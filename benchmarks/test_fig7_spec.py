"""Benchmark: regenerate Fig. 7 (SPEC CPU2006 performance improvements)."""

from conftest import report

from repro.experiments import format_table, run_fig7_spec


def test_fig7_spec_cpu2006(benchmark, context):
    result = benchmark.pedantic(run_fig7_spec, args=(context,), rounds=1, iterations=1)
    columns = ["workload", "memscale_redist", "coscale_redist", "sysscale"]
    records = result.block("rows").records()
    report("Fig. 7: SPEC CPU2006 performance improvement", format_table(records, columns))
    average = {name: result.block(f"average/{name}").value for name in columns[1:]}
    best = result.block("max/sysscale").value
    report(
        "Fig. 7 averages",
        [
            f"MemScale-Redist : {average['memscale_redist']:.1%} (paper 1.7%)",
            f"CoScale-Redist  : {average['coscale_redist']:.1%} (paper 3.8%)",
            f"SysScale        : {average['sysscale']:.1%} (paper 9.2%)",
            f"SysScale max    : {best:.1%} (paper up to 16%)",
        ],
    )

    # Paper shape: SysScale > CoScale-Redist > MemScale-Redist on average, with a
    # several-fold gap between SysScale and the prior techniques; SysScale's best
    # case is well into double digits while memory-bound workloads gain ~nothing.
    assert average["sysscale"] > average["coscale_redist"] > average["memscale_redist"]
    assert average["sysscale"] > 1.5 * average["coscale_redist"]
    assert 0.04 < average["sysscale"] < 0.15
    assert 0.10 < best < 0.25
    rows = {row["workload"]: row for row in records}
    for memory_bound in ("410.bwaves", "433.milc", "470.lbm"):
        assert rows[memory_bound]["sysscale"] < 0.02
    for scalable in ("416.gamess", "444.namd"):
        assert rows[scalable]["sysscale"] > 0.10
