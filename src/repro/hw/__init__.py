"""Declarative, registry-backed hardware descriptions (``repro.hw``).

The package has three layers:

* :mod:`repro.hw.spec` -- the :class:`HardwareSpec` / :class:`DramSpec` value
  objects: frozen, JSON-serializable, content-hashable descriptions of an
  entire platform (SoC, power coefficients, VR rails, V/F curves, DRAM, TDP);
* :mod:`repro.hw.registry` -- the named catalog (``skylake``, ``broadwell``,
  derived variants) and the :meth:`HardwareSpec.derive` delta mechanism;
* :mod:`repro.hw.build` -- materialization: spec -> SoC -> assembled
  :class:`~repro.sim.platform.Platform`, bit-identical per spec.

A job's platform dimension is a :class:`HardwareSpec`, so job content hashes
cover the full hardware description and arbitrary variants cache, deduplicate,
and parallelize like any other job dimension.
"""

from repro.hw.build import build_platform_from_spec, soc_from_spec
from repro.hw.registry import (
    BROADWELL,
    HARDWARE,
    SKYLAKE,
    get_hardware,
    register_hardware,
    resolve_hardware,
)
from repro.hw.spec import (
    DRAM_SPECS,
    HW_SCHEMA_VERSION,
    DramSpec,
    HardwareSpec,
    resolve_dram,
)

__all__ = [
    "BROADWELL",
    "DRAM_SPECS",
    "DramSpec",
    "HARDWARE",
    "HW_SCHEMA_VERSION",
    "HardwareSpec",
    "SKYLAKE",
    "build_platform_from_spec",
    "get_hardware",
    "register_hardware",
    "resolve_dram",
    "resolve_hardware",
    "soc_from_spec",
]
