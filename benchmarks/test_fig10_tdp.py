"""Benchmark: regenerate Fig. 10 (SysScale benefit vs. thermal design power)."""

from conftest import report

from repro.experiments import run_fig10_tdp_sensitivity

#: A representative SPEC subset keeps the four-TDP sweep inside a few minutes
#: while preserving the distribution shape (compute-bound, mixed, memory-bound).
SUBSET = (
    "400.perlbench", "416.gamess", "429.mcf", "433.milc", "436.cactusADM",
    "444.namd", "445.gobmk", "456.hmmer", "462.libquantum", "470.lbm",
    "473.astar", "482.sphinx3",
)


def test_fig10_tdp_sensitivity(benchmark):
    result = benchmark.pedantic(
        run_fig10_tdp_sensitivity,
        kwargs={"subset": SUBSET, "workload_duration": 0.5},
        rounds=1,
        iterations=1,
    )
    rows = {row["tdp_w"]: row for row in result.block("rows").records()}
    report(
        "Fig. 10: SysScale benefit vs. TDP (SPEC subset)",
        [
            f"TDP {tdp:>4.1f} W : avg {row['average']:.1%}  median {row['median']:.1%}  "
            f"max {row['max']:.1%}"
            for tdp, row in sorted(rows.items())
        ],
    )

    # Paper shape: the benefit grows as the TDP shrinks (19.1 % average / up to
    # 33 % at 3.5 W vs. 9.2 % average at 4.5 W) and fades at high TDPs where power
    # is no longer scarce.
    assert rows[3.5]["average"] > rows[4.5]["average"] > rows[7.0]["average"] >= rows[15.0]["average"]
    assert rows[3.5]["average"] > 1.3 * rows[4.5]["average"]
    assert rows[3.5]["max"] > 0.15
    assert rows[15.0]["average"] < 0.05
