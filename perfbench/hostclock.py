"""Host-speed calibration: wall times read in seconds of a reference host.

The shared host this benchmark was written on changes speed by 20-40% over
seconds and by up to 80% over an hour, mostly slower than a run, so raw
wall times of two runs of the same code differ by more than a regression
bound.  A fixed kernel, run between
units of work and not timed, measures the host's speed as it goes; times
are scaled by the kernel's reference time over its measured time.  A change
to the program moves the scaled times as it moves the raw ones.

The kernel matches what the workload spends its time on:

- ``InterpreterKernel``: a pure-Python loop, for the simulating workloads;
- ``FileKernel``: reading and parsing small JSON files, for the workloads
  that mostly read cache or queue entries from disk.  Their speed follows
  the host's system calls, which drift apart from the interpreter's.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Union

#: A pass runs its kernel at most this often (and at its start and end),
#: about 2.5% extra wall time that is not counted.
CALIBRATE_EVERY_S = 0.2


@contextmanager
def _collector_off() -> Iterator[None]:
    # Kernel garbage is freed by reference counting; with the collector off,
    # a collection of the program's heap cannot land inside a kernel call.
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def _step(point: _Point, table: Dict[int, float], i: int) -> _Point:
    key = i & 63
    value = table.get(key, 0.0) * 0.5 + point.x * 1.0001 - point.y
    table[key] = value
    return _Point(point.y, value if abs(value) < 1e6 else 0.0)


class InterpreterKernel:
    """A fixed pure-Python loop: calls, attribute reads, float math, dict I/O."""

    #: Time of one call on the reference host, about its median on a
    #: 2-vCPU x86-64 VM under CPython 3.11.
    reference_s = 0.005

    def __call__(self) -> None:
        with _collector_off():
            point = _Point(0.5, 0.25)
            table: Dict[int, float] = {}
            for i in range(6000):
                point = _step(point, table, i)


class FileKernel:
    """Open, read and parse 64 JSON files of about 2 KB, as a queue scan does."""

    reference_s = 0.005

    def __init__(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for index in range(64):
            entry = {
                "schema": 1,
                "index": index,
                "state": "done",
                "values": [round(index * j / 7.0, 6) for j in range(280)],
                "params": {f"key_{j}": {"bins": [j, j * 2.5, j * 3.25]} for j in range(12)},
            }
            path = directory / f"{index:02d}.json"
            path.write_text(json.dumps(entry), encoding="utf-8")
            self.paths.append(path)

    def __call__(self) -> None:
        with _collector_off():
            for path in self.paths:
                with open(path, encoding="utf-8") as handle:
                    json.loads(handle.read())


Kernel = Union[InterpreterKernel, FileKernel]


class HostClock:
    """A pass's wall clock and the host's speed over the pass.

    The pass calls ``calibrate()`` between jobs; it runs the kernel at most
    every ``CALIBRATE_EVERY_S`` (always when forced, at the pass's start
    and end).  ``now()`` is wall time minus the calibration and any
    ``untimed()`` block.  Multiplying a pass's ``now()`` intervals by
    ``speed`` gives reference-host seconds.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.excluded = 0.0
        self.kernel_s: List[float] = []
        self._last = float("-inf")

    def now(self) -> float:
        return time.perf_counter() - self.excluded

    @contextmanager
    def untimed(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - start

    def calibrate(self, force: bool = False) -> None:
        start = time.perf_counter()
        if not force and start - self._last < CALIBRATE_EVERY_S:
            return
        self.kernel()
        end = time.perf_counter()
        self.excluded += end - start
        self.kernel_s.append(end - start)
        self._last = end

    @property
    def speed(self) -> float:
        return self.kernel.reference_s / typical(self.kernel_s)


def typical(samples: List[float]) -> float:
    """Mean of ``samples`` without their top and bottom tenth.

    Kernel times are bimodal: the host runs at one speed, with spells of
    running up to 40% faster.  A median flips between the two modes as their
    shares cross one half, while the work between calibrations slows in
    proportion to the mean; the trimmed tails drop single disturbed calls.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut : len(ordered) - cut])
