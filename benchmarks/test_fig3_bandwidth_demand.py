"""Benchmark: regenerate Fig. 3 (bandwidth demand over time and per component)."""

from conftest import report

from repro.experiments import format_table, run_fig3_bandwidth_demand


def test_fig3_bandwidth_demand(benchmark, context):
    result = benchmark(run_fig3_bandwidth_demand, context)
    demand = result.block("component_demand").records()
    report("Fig. 3(b): component bandwidth demand", format_table(demand))

    rows = {row["configuration"]: row for row in demand}
    # HD panel ~17 % of peak, 4K ~70 %, three HD panels ~3x one (Fig. 3(b)).
    assert abs(rows["single_hd"]["fraction_of_peak"] - 0.17) < 0.02
    assert abs(rows["single_4k"]["fraction_of_peak"] - 0.70) < 0.03
    assert abs(rows["triple_hd"]["fraction_of_peak"] - 3 * rows["single_hd"]["fraction_of_peak"]) < 0.01

    # Fig. 3(a): demand varies over time (astar alternates low/high phases) and
    # across workloads (lbm's demand is consistently high).
    astar = result.block("timelines/473.astar").y
    lbm = result.block("timelines/470.lbm").y
    assert max(astar) > 2 * min(astar)
    assert min(lbm) > 8.0
