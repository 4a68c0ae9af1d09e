"""Time one fresh process's set-up for a workload; prints ``{"setup_s": ...}``.

Set-up is what every invocation pays before its first job: importing the
package, building each platform the workload simulates and calibrating
SysScale's thresholds for it, and -- for the fleet -- starting the worker
pool.  Generating the benchmark's inputs is not part of it.  The figure is
in this host's seconds: a calibration run (``hostclock.py``) next to a
half-second set-up read noisier than the raw time, so none is applied.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

from repro.hw import get_hardware  # noqa: E402
from repro.runtime.jobs import (  # noqa: E402
    PolicySpec,
    SimSpec,
    SimulationJob,
    TraceSpec,
    platform_for,
)

import inputs  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    names = ("skylake",) if args.workload == "battery-long" else inputs.SWEEP_HARDWARE
    for name in names:
        spec = get_hardware(name)
        ddr4 = spec.dram.technology == "ddr4"
        policy = (
            PolicySpec.make("sysscale", operating_points="ddr4")
            if ddr4
            else PolicySpec.make("sysscale")
        )
        policy.build(platform_for(spec))
    if args.workload == "fleet-drain":
        from repro.fleet import BatchingExecutor

        # One minimal job per worker, so every worker of the pool has started.
        tiny = SimSpec(max_simulated_time=0.002)
        jobs = [
            SimulationJob(
                trace=TraceSpec.make("spec", name=name, duration=0.01),
                policy=PolicySpec.make("baseline"),
                sim=tiny,
            )
            for name in ("416.gamess", "470.lbm")
        ]
        executor = BatchingExecutor(max_workers=2, batch_size=1)
        try:
            executor.run(jobs)
        finally:
            executor.close()
    print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))


if __name__ == "__main__":
    main()
