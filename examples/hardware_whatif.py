#!/usr/bin/env python3
"""Hardware what-if sweeps: SysScale's benefit as the die changes under it.

Platforms are data (``repro.hw``): this example runs the ``hwsweep``
experiment over the registered variants (Skylake, the Broadwell motivation
part, a low-leakage bin, the 7 W cTDP point, the DDR4 device), then mints an
*ad-hoc* variant with ``HardwareSpec.derive`` -- no registry entry, no
subclass -- and compares it against the stock die through the same cached
runtime.

Run with::

    python examples/hardware_whatif.py
"""

from __future__ import annotations

from repro.api import Session
from repro.hw import get_hardware
from repro.obs import Console

ui = Console()


def main() -> None:
    session = Session(duration=0.5)

    ui.out("Sweeping the registered hardware variants ...")
    report = session.run("hwsweep")
    ui.out(f"\n{'variant':18s} {'TDP':>5s} {'dram':>6s} {'energy':>8s} {'perf':>8s}")
    for row in report.block("variants").records():
        ui.out(
            f"{row['variant']:18s} {row['tdp_w']:4.1f}W {row['dram']:>6s} "
            f"{row['energy_reduction']:8.1%} {row['perf_impact']:8.1%}"
        )
    ui.out(f"spread across variants: {report.block('energy_reduction_spread').value:.2%}")

    # An ad-hoc what-if: a hotter-uncore, lower-TDP die.  derive() deltas are
    # first-class platforms -- hashed, cached, and parallelized like any other.
    hot = get_hardware("skylake").derive(
        name="skylake-hot", tdp=3.5, uncore_leakage_coeff_scale=1.25
    )
    ui.out(f"\nAd-hoc variant {hot.label} (hash {hot.content_hash[:12]}...)")
    followup = session.run("hwsweep", variants=("skylake", hot))
    for row in followup.block("variants").records():
        ui.out(
            f"{row['variant']:18s} energy {row['energy_reduction']:6.1%}  "
            f"perf {row['perf_impact']:6.1%}  low-residency {row['low_residency']:6.1%}"
        )

    ui.out(
        "\nA hotter, more TDP-constrained die leaves the PBM less headroom, so\n"
        "redistributing the IO/memory budget buys relatively more -- the same\n"
        "conclusion as Fig. 10, reached by varying the hardware instead of the\n"
        "TDP knob alone."
    )
    ui.out(f"\nruntime: {session.summary()}")


if __name__ == "__main__":
    main()
