"""Run one benchmark workload in this process and print its figures.

Started by ``run.py``; it also runs standalone::

    PYTHONPATH=src python3 perfbench/workload.py --workload sweep-cold --seed 7 --seconds 10 [--traced]

The timed loop repeats *passes* of the workload until ``--seconds`` of
measured time and ``--min-passes`` passes have accumulated, then checks the
outputs outside the timed region.  Every pass interleaves short runs of a
fixed calibration kernel with its work, untimed, and its times are scaled
to the reference host speed (see ``hostclock.py``).  The last stdout line
is one JSON object that ``run.py`` reads.  With ``--traced`` the layer wrappers of
``tracer.py`` are installed around the timed loop, and the per-layer metrics
of the first pass are reported as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.fleet import (
    AutoscalerConfig,
    FleetConfig,
    FleetService,
    submit_campaign,
    sweep_spec_hash,
)
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import Campaign
from repro.runtime.executor import SerialExecutor
from repro.runtime.jobs import SimSpec, SimulationJob

import inputs
from hostclock import FileKernel, HostClock, InterpreterKernel, Kernel

#: Scratch space for caches and fleet directories, inside the checkout.
WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench-work"

WORKLOADS = ("battery-long", "sweep-cold", "sweep-warm", "fleet-drain")

#: sha256 of every first-pass payload (in job order) at the default seed.
PINNED_DIGESTS = {
    "battery": "98f84a6f3d21c4bec7db74d500203a2aa737643d34af9061ca742ed3e8ce18b4",
    "sweep": "adadbb93cc99e85667a2f98034803f4aaf8f3f49487dbb8bb10a86ea734cc963",
    "fleet": "01388ae2f8780cb225fe6cae128ecee0422cfbc424acba624ed6ffaf37a3904b",
}

#: Jobs of the first pass re-run on the reference (per-tick) engine loop.
REFERENCE_SAMPLE = 4
#: Battery-life jobs are 40k+ ticks, minutes on the reference loop, so the
#: sampled job is compared on both loops capped at this much simulated time.
BATTERY_REFERENCE_CAP_S = 2.0
#: Hard ceiling on one fleet drain, so a wedged service cannot hang the run.
DRAIN_TIMEOUT_S = 120.0


@dataclass
class PassResult:
    """One timed pass: its jobs, times and per-job samples.

    ``elapsed``, ``service_s`` and ``done_s`` are reference-host seconds;
    ``host_elapsed`` is the same pass in this host's seconds.
    """

    jobs: List[SimulationJob]
    elapsed: float
    host_elapsed: float
    ticks: int
    payloads: List[Dict[str, Any]]
    service_s: List[float]
    done_s: List[float]
    attempted: int
    failed: int
    executed: int
    extra: Dict[str, Any] = field(default_factory=dict)


def timed(
    clock: HostClock, started: float, ended: float, spans: List[tuple]
) -> Dict[str, Any]:
    """Reference times of a pass from ``(start, end, jobs)`` clock readings.

    Each span's time is shared evenly by the jobs it completed; a job is
    done at the end of its span.
    """
    speed = clock.speed
    service_s: List[float] = []
    done_s: List[float] = []
    for span_start, span_end, count in spans:
        service_s.extend([speed * (span_end - span_start) / count] * count)
        done_s.extend([speed * (span_end - started)] * count)
    return {
        "elapsed": speed * (ended - started),
        "host_elapsed": ended - started,
        "service_s": service_s,
        "done_s": done_s,
    }


def digest(payloads: List[Dict[str, Any]]) -> str:
    blob = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def children_peak_kb() -> int:
    """Summed peak RSS (VmHWM) of this process's live children, in KiB."""
    me = os.getpid()
    total = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
            if ppid != me:
                continue
            with open(f"/proc/{entry}/status", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except (OSError, ValueError, IndexError):
            continue
    return total


# ---------------------------------------------------------------------------
# One pass of each workload
# ---------------------------------------------------------------------------


def serial_pass(
    jobs: List[SimulationJob], cache_root: Path, kernel: Kernel
) -> PassResult:
    """All jobs in one ``SerialExecutor.run`` into an empty cache."""
    clock = HostClock(kernel)
    marks: List[float] = []

    def progress(update: Any) -> None:
        marks.append(clock.now())
        clock.calibrate()

    clock.calibrate(force=True)
    started = clock.now()
    report = SerialExecutor().run(jobs, cache=ResultCache(cache_root), progress=progress)
    ended = clock.now()
    clock.calibrate(force=True)
    return PassResult(
        jobs=jobs,
        **timed(clock, started, ended, [(a, b, 1) for a, b in zip([started] + marks, marks)]),
        ticks=report.engine_stats()["ticks"],
        payloads=report.payloads(),
        attempted=len(jobs),
        failed=report.failed + len(jobs) - len(report.outcomes),
        executed=report.executed,
    )


def warm_pass(
    jobs: List[SimulationJob],
    cache_root: Path,
    ticks_by_hash: Dict[str, int],
    kernel: Kernel,
) -> PassResult:
    """Every job answered from a filled cache through a fresh ``ResultCache``.

    One ``run`` call per job: the executor reports cache hits only after
    every lookup, so per-job service times need one call per job.
    """
    cache = ResultCache(cache_root)
    executor = SerialExecutor()
    clock = HostClock(kernel)
    payloads: List[Dict[str, Any]] = []
    spans: List[tuple] = []
    executed = failed = 0
    clock.calibrate(force=True)
    started = clock.now()
    for job in jobs:
        call_start = clock.now()
        report = executor.run([job], cache=cache)
        spans.append((call_start, clock.now(), 1))
        with clock.untimed():
            executed += report.executed
            failed += report.failed + 1 - len(report.outcomes)
            payloads.extend(report.payloads())
        clock.calibrate()
    ended = clock.now()
    clock.calibrate(force=True)
    return PassResult(
        jobs=jobs,
        **timed(clock, started, ended, spans),
        ticks=sum(ticks_by_hash[job.content_hash] for job in jobs),
        payloads=payloads,
        attempted=len(jobs),
        failed=failed,
        executed=executed,
    )


def fleet_pass(
    jobs: List[SimulationJob],
    fleet_root: Path,
    ticks_by_hash: Dict[str, int],
    kernel: Kernel,
) -> PassResult:
    """Submit all jobs at t0 as one campaign, then poll ``run_once`` until drained.

    The loop is ``repro serve --drain``'s: poll again at once after a
    productive poll, otherwise check ``drained()`` and sleep one poll interval.
    """
    campaign = Campaign(name="perfbench-sweep", jobs=tuple(jobs))
    clock = HostClock(kernel)
    spans: List[tuple] = []
    clock.calibrate(force=True)
    started = clock.now()
    submit_campaign(fleet_root, campaign)
    service = FleetService(
        FleetConfig(
            root=fleet_root,
            workers=2,
            autoscaler=AutoscalerConfig(min_workers=1, max_workers=2),
        )
    )
    # The pool's workers are sampled for peak memory after every poll (an
    # autoscaler resize can retire them); sampling time is not counted.
    workers_peak_kb = 0
    try:
        while True:
            poll_start = clock.now()
            completed = service.run_once()
            poll_end = clock.now()
            with clock.untimed():
                workers_peak_kb = max(workers_peak_kb, children_peak_kb())
            clock.calibrate()
            if completed:
                spans.append((poll_start, poll_end, completed))
                continue
            if service.drained():
                break
            if poll_end - started > DRAIN_TIMEOUT_S:
                raise RuntimeError(f"fleet did not drain within {DRAIN_TIMEOUT_S} s")
            time.sleep(service.config.poll_interval)
        ended = clock.now()
        clock.calibrate(force=True)
    finally:
        service.executor.close()
    report = service.store.get_report(sweep_spec_hash(campaign))
    results = report["results"] if report is not None else {}
    payloads = [results[job.content_hash] for job in jobs if job.content_hash in results]
    done = sum(count for _, _, count in spans)
    return PassResult(
        jobs=jobs,
        **timed(clock, started, ended, spans),
        ticks=sum(ticks_by_hash.get(job.content_hash, 0) for job in jobs),
        payloads=payloads,
        attempted=len(jobs),
        failed=service.jobs_failed + service.jobs_quarantined + len(jobs) - done,
        executed=done,
        extra={"finalized": report is not None, "workers_peak_kb": workers_peak_kb},
    )


# ---------------------------------------------------------------------------
# Checks outside the timed loop
# ---------------------------------------------------------------------------


def serial_reference(jobs: List[SimulationJob]) -> tuple:
    """Payloads and per-job ticks of a plain serial run with no cache."""
    report = SerialExecutor().run(jobs)
    ticks = {
        outcome.job.content_hash: outcome.stats.ticks
        for outcome in report.outcomes
        if outcome.stats is not None
    }
    return report.payloads(), ticks


def reference_loop_errors(
    workload: str, seed: int, jobs: List[SimulationJob], fast: List[Dict[str, Any]]
) -> List[str]:
    """Re-run a seeded sample on the reference loop; list any mismatch."""
    rng = random.Random(f"reference:{workload}:{seed}")
    errors = []
    if workload == "battery-long":
        job = rng.choice(jobs)
        capped = SimSpec(max_simulated_time=BATTERY_REFERENCE_CAP_S)
        pairs = [
            (
                replace(job, sim=capped),
                replace(job, sim=replace(capped, reference_loop=True)),
                None,
            )
        ]
    else:
        indices = sorted(rng.sample(range(len(jobs)), REFERENCE_SAMPLE))
        pairs = [
            (None, replace(jobs[i], sim=replace(jobs[i].sim, reference_loop=True)), fast[i])
            for i in indices
        ]
    executor = SerialExecutor()
    for fast_job, reference_job, expected in pairs:
        if fast_job is not None:
            expected = executor.run([fast_job]).payloads()[0]
        if executor.run([reference_job]).payloads()[0] != expected:
            errors.append(f"reference loop differs from the fast loop on {reference_job.label}")
    return errors


# ---------------------------------------------------------------------------
# The timed loop
# ---------------------------------------------------------------------------


def quantile(values: List[float], index: int) -> float:
    """The ``index``-th of the 19 cut points splitting ``values`` in 20."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[index]


def run(
    workload: str, seed: int, seconds: float, min_passes: int, traced: bool
) -> Dict[str, Any]:
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    errors: List[str] = []
    try:
        make_jobs: Callable[[int], List[SimulationJob]]
        if workload == "battery-long":
            make_jobs = lambda k: inputs.battery_jobs(seed, k)  # noqa: E731
        elif workload == "sweep-cold":
            make_jobs = lambda k: inputs.sweep_jobs(seed, k)  # noqa: E731
        else:
            # Warm and fleet repeat the first sweep-cold pass's job list.
            first = inputs.sweep_jobs(seed, 0)
            if workload == "fleet-drain":
                first = first[: inputs.FLEET_JOBS]
            make_jobs = lambda k: first  # noqa: E731

        # Each pass is calibrated with a kernel of the work it does: battery
        # and cold passes simulate; warm passes read cache entries, and the
        # fleet's parent spends most of a drain reading queue entries.
        kernel: Kernel = (
            InterpreterKernel()
            if workload in ("battery-long", "sweep-cold")
            else FileKernel(scratch / "calibration")
        )

        # Untimed set-up: the warm workload's cache is filled here.
        cold_payloads: Optional[List[Dict[str, Any]]] = None
        ticks_by_hash: Dict[str, int] = {}
        if workload == "sweep-warm":
            fill = scratch / "warm-cache"
            fill_report = SerialExecutor().run(make_jobs(0), cache=ResultCache(fill))
            cold_payloads = fill_report.payloads()
            ticks_by_hash = {
                outcome.job.content_hash: outcome.stats.ticks for outcome in fill_report.outcomes
            }

        tracer = None
        layers: Optional[Dict[str, float]] = None
        if traced:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()

        passes: List[PassResult] = []
        measured = 0.0
        try:
            while len(passes) < min_passes or measured < seconds:
                k = len(passes)
                jobs = make_jobs(k)
                if workload in ("battery-long", "sweep-cold"):
                    result = serial_pass(jobs, scratch / f"cache-{k}", kernel)
                elif workload == "sweep-warm":
                    result = warm_pass(jobs, scratch / "warm-cache", ticks_by_hash, kernel)
                else:
                    result = fleet_pass(jobs, scratch / f"fleet-{k}", ticks_by_hash, kernel)
                passes.append(result)
                measured += result.host_elapsed
                if k == 0:
                    # Memory is read through the first pass only: later
                    # passes would make the peak depend on the pass count.
                    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    peak_kb += result.extra.get("workers_peak_kb", 0)
                    if tracer is not None:
                        layers = tracer.snapshot()
                # Only the first pass's payloads are kept; later ones are
                # checked below for execution accounting alone.
                if k > 0:
                    result.payloads = []
                for leftover in scratch.glob(f"*-{k}"):
                    shutil.rmtree(leftover)
        finally:
            if tracer is not None:
                tracer.uninstall()

        # -- correctness, outside the timed loop -------------------------
        first = passes[0]
        reference = first.payloads
        if workload == "sweep-warm":
            reference = cold_payloads
            if first.payloads != cold_payloads:
                errors.append("warm payloads differ from the cold payloads")
            if any(p.executed for p in passes):
                errors.append("a warm pass executed jobs instead of reading the cache")
        if workload == "fleet-drain":
            reference, ticks_by_hash = serial_reference(first.jobs)
            for index, p in enumerate(passes):
                p.ticks = sum(ticks_by_hash[job.content_hash] for job in p.jobs)
                if not p.extra["finalized"]:
                    errors.append(f"drain {index}: the campaign report was not finalized")
            if first.payloads != reference:
                errors.append("fleet store payloads differ from the serial payloads")
        for index, p in enumerate(passes):
            if workload != "sweep-warm" and p.executed != len(p.jobs):
                errors.append(f"pass {index}: executed {p.executed} of {len(p.jobs)} jobs")
        family = {"battery-long": "battery", "fleet-drain": "fleet"}.get(workload, "sweep")
        payload_digest = digest(reference)
        if seed == inputs.DEFAULT_SEED and payload_digest != PINNED_DIGESTS[family]:
            errors.append(f"payload digest {payload_digest} != pinned {PINNED_DIGESTS[family]}")
        errors.extend(reference_loop_errors(workload, seed, first.jobs, reference))

        # -- figures ------------------------------------------------------
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        # Every time below is in reference-host seconds.
        service = [s for p in passes for s in p.service_s]
        done = [d for p in passes for d in p.done_s]
        metrics = {
            "jobs_per_s": (statistics.median(len(p.jobs) / p.elapsed for p in passes), "jobs/s"),
            "job_p50_ms": (1000.0 * quantile(service, 9), "ms"),
            "job_p95_ms": (1000.0 * quantile(service, 18), "ms"),
            "sim_ticks_per_s": (statistics.median(p.ticks / p.elapsed for p in passes), "ticks/s"),
            "done_p50_s": (quantile(done, 9), "s"),
            "done_p95_s": (quantile(done, 18), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        return {
            "workload": workload,
            "seed": seed,
            "passes": len(passes),
            "samples": len(service),
            "host_speed": [p.elapsed / p.host_elapsed for p in passes],
            "raw_jobs_per_s": statistics.median(len(p.jobs) / p.host_elapsed for p in passes),
            "attempted": attempted,
            "failed": failed,
            "errors": errors,
            "digest": payload_digest,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            "layers": None
            if layers is None
            else {
                name: {"value": value, "unit": tracing.LAYER_METRICS[name]}
                for name, value in layers.items()
            },
            "exact": None
            if layers is None
            else {name: layers[name] for name in tracing.EXACT_COUNTERS},
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    if args.min_passes < 1:
        parser.error("--min-passes must be at least 1")
    result = run(args.workload, args.seed, args.seconds, args.min_passes, args.traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
