"""Layer-boundary wrappers for the benchmark's traced run.

The traced run replaces a handful of public methods -- one or more at each
layer boundary of the program -- with timing/counting wrappers, and puts the
originals back afterwards.  Nothing inside the program changes; an untraced
run never imports this module, so it installs no wrapper at all.

Each timed boundary is a span.  Spans nest through an in-memory stack, so a
span's *self* time is its duration minus the time of the spans it caused
(e.g. ``engine.run`` minus ``core.decide``).  Spans are aggregated per name
as they close -- calls, total and self seconds -- rather than stored one by
one: a battery-life pass closes tens of thousands of ``decide`` spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.core.sysscale import SysScaleController
from repro.fleet.autoscaler import Autoscaler
from repro.fleet.queue import JobQueue
from repro.fleet.service import FleetService
from repro.hw import HardwareSpec
from repro.memory.dram import DramDevice
from repro.runtime.cache import ResultCache
from repro.runtime.executor import Executor
from repro.runtime.jobs import PolicySpec, TraceSpec
from repro.sim.engine import SimulationEngine
from repro.sim.platform import Platform
from repro.sim.result import SimulationResult

ENGINE_COUNTERS = ("ticks", "segments", "model_evaluations", "memo_hits", "transitions")

#: Per-layer metrics, in report order, with their units.  Times are seconds;
#: ``*_self_s`` / ``fleet.poll_s`` exclude nested spans, every other ``*_s``
#: is inclusive.
LAYER_METRICS = {
    "core.decide_s": "s",
    "core.decide_calls": "count",
    "memory.dram_timings_calls": "count",
    "platform.worst_case_io_memory_power_calls": "count",
    "engine.run_self_s": "s",
    **{f"engine.{name}": "count" for name in ENGINE_COUNTERS},
    "engine.memo_hit_ratio": "ratio",
    "jobs.trace_build_s": "s",
    "jobs.policy_build_s": "s",
    "jobs.platform_build_s": "s",
    "jobs.result_to_dict_s": "s",
    "cache.put_s": "s",
    "cache.get_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.writes": "count",
    "cache.memo_hits": "count",
    "cache.bytes_written": "bytes",
    "executor.run_self_s": "s",
    "queue.scan_s": "s",
    "queue.scans": "count",
    "queue.entries_read": "count",
    "queue.lease_s": "s",
    "queue.complete_s": "s",
    "queue.counts_s": "s",
    "queue.submit_s": "s",
    "fleet.poll_s": "s",
    "fleet.polls": "count",
    "fleet.dispatch_s": "s",
    "fleet.dispatch_share": "ratio",
    "fleet.finalize_s": "s",
    "autoscaler.decisions": "count",
    "autoscaler.scaling_events": "count",
}

#: Deterministic work counters: for one seed they must repeat exactly
#: across processes (the traced run's self-check compares two runs).
EXACT_COUNTERS = (
    *(f"engine.{name}" for name in ENGINE_COUNTERS),
    "core.decide_calls",
    "memory.dram_timings_calls",
    "queue.scans",
    "queue.entries_read",
    "cache.bytes_written",
)


class _Frame:
    __slots__ = ("name", "child")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child = 0.0


class Tracer:
    """Installs the layer wrappers; aggregates spans and counters."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack: List[_Frame] = []
        self._originals: List[tuple] = []

    # -- wrapping -------------------------------------------------------
    def _patch(self, owner: type, attr: str, wrapper: Callable) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(
        self,
        owner: type,
        attr: str,
        name: str,
        on_exit: Optional[Callable[..., None]] = None,
        on_enter: Optional[Callable[[tuple], Any]] = None,
    ) -> None:
        """Time ``owner.attr`` as span ``name``.

        ``on_enter(args)`` runs before the call; ``on_exit(tracer, args,
        result, entered)`` after it, with what ``on_enter`` returned.
        """
        original = getattr(owner, attr)
        stack = self._stack
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            entered = on_enter(args) if on_enter is not None else None
            frame = _Frame(name)
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                tracer.calls[name] += 1
                tracer.total[name] += elapsed
                tracer.self_time[name] += elapsed - frame.child
                if parent is not None:
                    parent.child += elapsed
                    tracer.total[f"{parent.name}>{name}"] += elapsed
            if on_exit is not None:
                on_exit(tracer, args, result, entered)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner: type, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        counters = self.counters

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counters[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        self.span(SysScaleController, "decide", "core.decide")
        self.count(DramDevice, "timings", "memory.dram_timings_calls")
        self.count(
            Platform, "worst_case_io_memory_power", "platform.worst_case_io_memory_power_calls"
        )
        self.span(SimulationEngine, "run", "engine.run")
        self.span(TraceSpec, "build", "jobs.trace_build")
        self.span(PolicySpec, "build", "jobs.policy_build")
        self.span(HardwareSpec, "build", "jobs.platform_build")
        self.span(SimulationResult, "to_dict", "jobs.result_to_dict")
        self.span(
            ResultCache,
            "get",
            "cache.get",
            on_exit=_on_cache_get,
            on_enter=lambda args: args[0].stats.memo_hits,
        )
        self.span(ResultCache, "put", "cache.put", on_exit=_on_cache_put)
        self.span(Executor, "run", "executor.run", on_exit=_on_executor_run)
        self.span(JobQueue, "scan", "queue.scan", on_exit=_on_queue_scan)
        self.span(JobQueue, "lease", "queue.lease")
        self.span(JobQueue, "complete", "queue.complete")
        self.span(JobQueue, "counts", "queue.counts")
        self.span(JobQueue, "submit_many", "queue.submit")
        self.span(FleetService, "run_once", "fleet.poll")
        self.span(FleetService, "finalize_reports", "fleet.finalize")
        self.span(Autoscaler, "observe", "autoscaler.observe", on_exit=_on_autoscale)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """The per-layer metrics accumulated so far."""
        c, t, s = self.counters, self.total, self.self_time
        poll_total = t["fleet.poll"]
        dispatch = t["fleet.poll>executor.run"]
        values = {
            "core.decide_s": t["core.decide"],
            "core.decide_calls": self.calls["core.decide"],
            "memory.dram_timings_calls": c["memory.dram_timings_calls"],
            "platform.worst_case_io_memory_power_calls": c[
                "platform.worst_case_io_memory_power_calls"
            ],
            "engine.run_self_s": s["engine.run"],
            **{f"engine.{name}": c[f"engine.{name}"] for name in ENGINE_COUNTERS},
            "engine.memo_hit_ratio": (
                c["engine.memo_hits"] / c["engine.segments"] if c["engine.segments"] else 0.0
            ),
            "jobs.trace_build_s": t["jobs.trace_build"],
            "jobs.policy_build_s": t["jobs.policy_build"],
            "jobs.platform_build_s": t["jobs.platform_build"],
            "jobs.result_to_dict_s": t["jobs.result_to_dict"],
            "cache.put_s": t["cache.put"],
            "cache.get_s": t["cache.get"],
            "cache.hits": c["cache.hits"],
            "cache.misses": c["cache.misses"],
            "cache.writes": self.calls["cache.put"],
            "cache.memo_hits": c["cache.memo_hits"],
            "cache.bytes_written": c["cache.bytes_written"],
            "executor.run_self_s": s["executor.run"],
            "queue.scan_s": t["queue.scan"],
            "queue.scans": self.calls["queue.scan"],
            "queue.entries_read": c["queue.entries_read"],
            "queue.lease_s": t["queue.lease"],
            "queue.complete_s": t["queue.complete"],
            "queue.counts_s": t["queue.counts"],
            "queue.submit_s": t["queue.submit"],
            "fleet.poll_s": s["fleet.poll"],
            "fleet.polls": self.calls["fleet.poll"],
            "fleet.dispatch_s": dispatch,
            "fleet.dispatch_share": dispatch / poll_total if poll_total else 0.0,
            "fleet.finalize_s": t["fleet.finalize"],
            "autoscaler.decisions": self.calls["autoscaler.observe"],
            "autoscaler.scaling_events": c["autoscaler.scaling_events"],
        }
        return {name: values[name] for name in LAYER_METRICS}


def _on_cache_get(tracer: Tracer, args: tuple, result: Any, memo_before: int) -> None:
    # The cache's own stats say whether this hit came from its memo.
    if result is None:
        tracer.counters["cache.misses"] += 1
        return
    tracer.counters["cache.hits"] += 1
    tracer.counters["cache.memo_hits"] += args[0].stats.memo_hits - memo_before


def _on_cache_put(tracer: Tracer, args: tuple, path: Any, entered: Any) -> None:
    tracer.counters["cache.bytes_written"] += path.stat().st_size


def _on_executor_run(tracer: Tracer, args: tuple, report: Any, entered: Any) -> None:
    for name, value in report.engine_stats().items():
        if name in ENGINE_COUNTERS:
            tracer.counters[f"engine.{name}"] += value


def _on_queue_scan(tracer: Tracer, args: tuple, result: Any, entered: Any) -> None:
    found, corrupt, transient = result
    tracer.counters["queue.entries_read"] += len(found) + len(corrupt) + len(transient)


def _on_autoscale(tracer: Tracer, args: tuple, decision: Any, entered: Any) -> None:
    tracer.counters["autoscaler.scaling_events"] += int(decision.scaled)
