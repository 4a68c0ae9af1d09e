"""The benchmark's one command: run a workload, check it, print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-cold --seed 20200530 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run plus the tracing overhead.  The last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

This file imports nothing from the package: it starts fresh processes --
``probe.py`` to time set-up, ``workload.py`` for the measurement -- so
set-up is always measured from a cold interpreter, and an untraced run
never loads the tracing wrappers.  See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("battery-long", "sweep-cold", "sweep-warm", "fleet-drain")
#: Fresh-process set-ups per run; ``setup_s`` is their median, scaled.
SETUP_PROBES = 5
#: ``reference_setup.py``'s set-up time on the reference host, about its
#: median on a 2-vCPU x86-64 VM under CPython 3.11.
REFERENCE_SETUP_S = 0.15
#: Passes a timed run makes at least, whatever ``--seconds`` says.  A
#: fleet drain takes about 9 s, and its tail metrics rest on the slowest
#: polls of each drain, so fewer drains read too noisily to compare runs.
MIN_PASSES = {"battery-long": 3, "sweep-cold": 3, "sweep-warm": 3, "fleet-drain": 4}
#: Every process this command starts must end within this budget.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(script: str, args: List[str], deadline: float) -> Dict[str, Any]:
    """Run ``perfbench/<script>`` to completion; return its last-line JSON."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left to run {script}")
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / script), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{script} {' '.join(args)} timed out") from error
    if done.returncode != 0:
        raise BenchError(f"{script} {' '.join(args)} failed:\n{done.stderr[-4000:]}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{script} printed nothing")
    return json.loads(lines[-1])


def setup_seconds(workload: str, deadline: float) -> float:
    """Median probe set-up, in reference-host seconds.

    Each probe is paired with a fresh process that imports only numpy and
    the standard library; their median over ``REFERENCE_SETUP_S`` is the
    host's slowness at fresh-process set-up while the probes ran.
    """
    probes, references = [], []
    for _ in range(SETUP_PROBES):
        probes.append(_child("probe.py", ["--workload", workload], deadline)["setup_s"])
        references.append(_child("reference_setup.py", [], deadline)["setup_s"])
    return statistics.median(probes) * REFERENCE_SETUP_S / statistics.median(references)


def measure(workload: str, seed: Optional[int], seconds: int, trace: int) -> Dict[str, Any]:
    deadline = time.monotonic() + DEADLINE_S
    worker_args = ["--workload", workload]
    if seed is not None:
        worker_args += ["--seed", str(seed)]
    if not trace:
        setup = setup_seconds(workload, deadline)
        plain = _child(
            "workload.py",
            worker_args + ["--seconds", str(seconds), "--min-passes", str(MIN_PASSES[workload])],
            deadline,
        )
        runs = [plain]
        metrics = dict(plain["metrics"])
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    else:
        # One untraced and two traced processes, each measuring a third of
        # the run: the difference between the first two is the tracing
        # overhead; the two traced runs must agree exactly on every
        # deterministic work counter.
        worker_args += ["--seconds", str(seconds / 3.0)]
        plain = _child("workload.py", worker_args, deadline)
        traced = [_child("workload.py", worker_args + ["--traced"], deadline) for _ in range(2)]
        runs = [plain, *traced]
        metrics = dict(traced[0]["layers"])
        plain_rate = plain["metrics"]["jobs_per_s"]["value"]
        traced_rate = traced[0]["metrics"]["jobs_per_s"]["value"]
        metrics["trace.overhead_ms_per_job"] = {
            "value": 1000.0 * (1.0 / traced_rate - 1.0 / plain_rate),
            "unit": "ms",
        }
        metrics["trace.overhead_ratio"] = {
            "value": plain_rate / traced_rate - 1.0,
            "unit": "ratio",
        }
        first, second = traced[0]["exact"], traced[1]["exact"]
        for name in first:
            if first[name] != second[name]:
                traced[1]["errors"].append(
                    f"work counter {name} did not repeat: {first[name]} then {second[name]}"
                )
    errors = [error for run in runs for error in run["errors"]]
    return {
        "errors": errors,
        "result": {
            "correct": not errors and not any(run["failed"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": metrics,
        },
        "detail": {
            "passes": [run["passes"] for run in runs],
            "host_speed": [
                round(statistics.median(run["host_speed"]), 3) for run in runs
            ],
            "raw_jobs_per_s": [round(run["raw_jobs_per_s"], 3) for run in runs],
            "samples": [run["samples"] for run in runs],
            "digest": runs[0]["digest"],
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument(
        "--seed", type=int, default=None, help="input seed (default: the pinned default seed)"
    )
    parser.add_argument("--seconds", type=int, default=15, help="seconds to measure for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no package source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        outcome = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for error in outcome["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    detail = outcome["detail"]
    print(
        f"{args.workload}: passes {detail['passes']}, job samples {detail['samples']}, "
        f"payload digest {detail['digest']}"
    )
    print(
        f"host speed (reference = 1) {detail['host_speed']}, "
        f"unscaled jobs/s {detail['raw_jobs_per_s']}"
    )
    for name, metric in outcome["result"]["metrics"].items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
