#!/usr/bin/env python3
"""TDP scaling scenario: SysScale's benefit across thermal design points (Fig. 10).

Builds one platform per TDP (3.5 W to 15 W), runs a representative SPEC subset
under the baseline and SysScale, and prints how the average and maximum benefit
shrink as the package budget grows -- the paper's conclusion that SysScale helps
TDP-constrained SoCs most.

The sweep goes through ``Session.run("fig10", subset=...)``: ``subset`` is one
of the extra parameters the fig10 spec declares (``python -m repro run --help``
lists them per target), and the returned ``ExperimentReport`` carries the
distribution table read below.

Run with::

    python examples/tdp_scaling.py
"""

from __future__ import annotations

from repro.api import Session
from repro.obs import Console

ui = Console()

SUBSET = (
    "400.perlbench", "416.gamess", "429.mcf", "433.milc", "436.cactusADM",
    "444.namd", "445.gobmk", "456.hmmer", "462.libquantum", "470.lbm",
    "473.astar", "482.sphinx3",
)

PAPER_AVERAGES = {3.5: 0.191, 4.5: 0.092}


def main() -> None:
    ui.out("Sweeping TDP points (a fresh platform and calibration per point) ...")
    session = Session(duration=0.5)
    result = session.run("fig10", subset=SUBSET)

    ui.out(f"\n{'TDP':>6s} {'average':>9s} {'median':>9s} {'max':>9s}   paper")
    for row in result.block("rows").records():
        paper = PAPER_AVERAGES.get(row["tdp_w"])
        paper_text = f"avg {paper:.1%}" if paper is not None else "-"
        ui.out(
            f"{row['tdp_w']:5.1f}W {row['average']:9.1%} {row['median']:9.1%} "
            f"{row['max']:9.1%}   {paper_text}"
        )

    ui.out(
        "\nAs the TDP grows, power stops being the constraint on the compute domain\n"
        "and redistributing the IO/memory budget buys less frequency, so SysScale's\n"
        "performance benefit fades -- while its battery-life savings are TDP\n"
        "independent (Sec. 7.4)."
    )
    ui.out(f"\nruntime: {session.summary()}")


if __name__ == "__main__":
    main()
