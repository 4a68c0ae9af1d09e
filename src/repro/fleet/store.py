"""The sharded content-addressed result store the sweep service shares.

One store directory holds two namespaces, both in the runtime cache's
on-disk record layout (two-character hash-prefix shard directories, one JSON
file per entry, atomic temp-file-then-``os.replace`` writes -- the helpers in
:mod:`repro.runtime.cache`):

``jobs/``
    Per-job result entries.  :attr:`ShardedResultStore.jobs` *is* a
    :class:`ResultCache` rooted there, so executors, the CLI's
    ``--cache-dir`` and the service all read and write it unchanged.
    Multiple services or CLI runs pointed at the same store share results
    with no translation layer.

``reports/``
    Whole sweep reports keyed by **spec hash** -- the content hash of what a
    campaign *asked for* (name + ordered job hashes), not of any one result.
    A campaign resubmitted against a warm store is served at report
    granularity: no queueing, no per-job lookups, the finished document comes
    straight back.  This is the ``spec_hash``-level warm start the ROADMAP's
    sweep-service item calls for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro.obs import state as obs_state
from repro.runtime.cache import (
    ResultCache,
    iter_sharded,
    read_json_record,
    sharded_path,
    write_json_atomic,
)

__all__ = [
    "FLEET_SCHEMA_VERSION",
    "ShardedResultStore",
]

#: Version stamp carried by every report entry (and the sweep-spec payloads
#: hashed into ``spec_hash``); bump on incompatible layout changes.
FLEET_SCHEMA_VERSION = 1


def _atomic_write_json(
    path: Path,
    document: Dict[str, Any],
    faults: Optional[Any] = None,
    fault_op: Optional[str] = None,
) -> None:
    """:func:`write_json_atomic` behind the fleet's chaos seam.

    When a :class:`~repro.fleet.faults.FaultPlan` is attached (``faults`` and
    ``fault_op``), it may replace the write with a torn one, drop it (leaving
    a stray temp file), or raise an injected ``OSError`` -- deterministically
    from its seed.  Production callers pass neither and get the plain atomic
    write.
    """
    if faults is not None and fault_op is not None:
        if faults.intercept_write(fault_op, path, document) is not None:
            return
    write_json_atomic(path, document)


@dataclass
class ShardedResultStore:
    """Job results plus spec-hash-keyed sweep reports under one root."""

    root: Path
    #: Optional chaos plan (:class:`repro.fleet.faults.FaultPlan`) applied to
    #: the report namespace's reads/writes; ``None`` in production.  The job
    #: namespace is a plain ``ResultCache`` (runtime layer) and is not
    #: intercepted -- runtime never sees fleet.
    faults: Optional[Any] = None
    #: The job namespace: a runtime ``ResultCache`` rooted at ``<root>/jobs``.
    jobs: ResultCache = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.jobs = ResultCache(self.root / "jobs")

    # ------------------------------------------------------------------
    # Report namespace (spec_hash-level warm starts)
    # ------------------------------------------------------------------
    @property
    def reports_root(self) -> Path:
        return self.root / "reports"

    def report_path(self, spec_hash: str) -> Path:
        return sharded_path(self.reports_root, spec_hash)

    def get_report(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        """The stored sweep report for ``spec_hash``, or ``None``.

        Entries written under a different schema version (or corrupt files)
        read as absent: the sweep simply runs again and rewrites them.
        """
        path = self.report_path(spec_hash)
        if self.faults is not None:
            try:
                self.faults.intercept_read("store.read", path)
            except OSError:
                return None
        entry = read_json_record(path, FLEET_SCHEMA_VERSION)
        if entry is None or entry.get("spec_hash") != spec_hash or "report" not in entry:
            return None
        return entry["report"]

    def put_report(self, spec_hash: str, report: Dict[str, Any]) -> Path:
        """Store a finished sweep report under its spec hash, atomically."""
        path = self.report_path(spec_hash)
        _atomic_write_json(
            path,
            {
                "schema": FLEET_SCHEMA_VERSION,
                "spec_hash": spec_hash,
                "report": report,
            },
            faults=self.faults,
            fault_op="store.write",
        )
        obs_state.counter("fleet.store.report_writes").inc()
        return path

    def stats(self) -> Dict[str, Any]:
        """Entry counts and on-disk footprint, for ``repro fleet status``."""
        job_entries = list(self.jobs.iter_entries())
        report_entries = list(iter_sharded(self.reports_root))
        return {
            "root": str(self.root),
            "jobs": len(job_entries),
            "reports": len(report_entries),
            "bytes": sum(p.stat().st_size for p in job_entries + report_entries),
        }
