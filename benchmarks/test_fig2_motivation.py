"""Benchmark: regenerate Fig. 2 (motivation: static MD-DVFS on three SPEC workloads)."""

from conftest import report

from repro.experiments import format_table, run_fig2_motivation


def test_fig2_motivation(benchmark, context):
    result = benchmark(run_fig2_motivation, context)
    impact_rows = result.block("impact").records()
    bottleneck_rows = result.block("bottlenecks").records()
    impact = {row["workload"]: row for row in impact_rows}
    report(
        "Fig. 2(a): MD-DVFS impact",
        format_table(impact_rows),
    )
    report("Fig. 2(b): bottleneck analysis", format_table(bottleneck_rows))
    report(
        "Fig. 2(c): bandwidth demand",
        format_table(result.block("bandwidth_demand").records()),
    )

    # Paper shape: all three workloads save ~10 % average power; cactusADM and lbm
    # lose >10 % performance while perlbench barely changes; redistributing the
    # saved power helps perlbench (~8 %) but not the memory-bound workloads.
    for row in impact_rows:
        assert row["power_reduction"] > 0.05
    assert impact["400.perlbench"]["performance_change"] > -0.03
    assert impact["436.cactusADM"]["performance_change"] < -0.05
    assert impact["470.lbm"]["performance_change"] < -0.08
    assert impact["400.perlbench"]["performance_with_redistribution"] > 0.03
    bottlenecks = {row["workload"]: row for row in bottleneck_rows}
    assert bottlenecks["436.cactusADM"]["memory_latency_bound"] > bottlenecks[
        "436.cactusADM"
    ]["memory_bandwidth_bound"]
    assert bottlenecks["470.lbm"]["memory_bandwidth_bound"] > 0.4
