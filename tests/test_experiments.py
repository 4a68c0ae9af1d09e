"""Integration tests: the experiment harness reproduces the paper's key shapes.

These tests run the actual experiment functions (on reduced workload subsets or
corpus sizes where the full sweep would be slow) and assert the qualitative
results the paper reports: who wins, in which direction, and by roughly what
factor.  Exact absolute numbers are not asserted -- the substrate is a simulator,
not the authors' instrumented silicon (see DESIGN.md).
"""

import pytest

from repro.experiments import (
    build_context,
    format_table,
    run_dram_frequency_sensitivity,
    run_fig2_motivation,
    run_fig3_bandwidth_demand,
    run_fig4_mrc_impact,
    run_fig5_transition_flow,
    run_fig7_spec,
    run_fig8_graphics,
    run_fig9_battery_life,
    run_table1,
    run_table2,
)


@pytest.fixture(scope="module")
def context():
    return build_context(workload_duration=0.5)


class TestTables:
    def test_table1_settings(self, context):
        rows = run_table1(context).block("rows").records()
        by_component = {row["component"]: row for row in rows}
        assert by_component["DRAM frequency (GHz)"]["md_dvfs"] == pytest.approx(1.06)
        assert by_component["IO Interconnect (GHz)"]["md_dvfs"] == pytest.approx(0.4) \
            if "IO Interconnect (GHz)" in by_component else True
        assert by_component["Shared voltage (x V_SA)"]["md_dvfs"] == pytest.approx(0.8)
        assert by_component["DDRIO digital (x V_IO)"]["md_dvfs"] == pytest.approx(0.85)

    def test_table2_parameters(self, context):
        rows = {row["parameter"]: row["value"] for row in run_table2(context).block("rows").records()}
        assert rows["Thermal design power (W)"] == pytest.approx(4.5)
        assert rows["Peak memory bandwidth (GB/s)"] == pytest.approx(25.6)

    def test_format_table_renders(self, context):
        text = format_table(run_table1(context).block("rows").records())
        assert "DRAM frequency" in text


class TestMotivation:
    def test_fig2_power_reduces_for_all_three(self, context):
        impact = run_fig2_motivation(context).block("impact").records()
        assert len(impact) == 3
        for row in impact:
            assert 0.05 < row["power_reduction"] < 0.25

    def test_fig2_memory_bound_workloads_lose_performance(self, context):
        impact = {row["workload"]: row for row in run_fig2_motivation(context).block("impact").records()}
        assert impact["436.cactusADM"]["performance_change"] < -0.05
        assert impact["470.lbm"]["performance_change"] < -0.08
        assert impact["400.perlbench"]["performance_change"] > -0.03

    def test_fig2_redistribution_helps_compute_bound_only(self, context):
        impact = {row["workload"]: row for row in run_fig2_motivation(context).block("impact").records()}
        assert impact["400.perlbench"]["performance_with_redistribution"] > 0.03
        assert impact["470.lbm"]["performance_with_redistribution"] < 0.02

    def test_fig3_display_demands(self, context):
        rows = {row["configuration"]: row for row in run_fig3_bandwidth_demand(context).block("component_demand").records()}
        assert rows["single_hd"]["fraction_of_peak"] == pytest.approx(0.17, abs=0.02)
        assert rows["single_4k"]["fraction_of_peak"] == pytest.approx(0.70, abs=0.03)
        assert rows["triple_hd"]["fraction_of_peak"] == pytest.approx(0.51, abs=0.03)

    def test_fig3_timelines_vary_over_time(self, context):
        astar = run_fig3_bandwidth_demand(context).block("timelines/473.astar").y
        assert max(astar) > 2 * min(astar)

    def test_fig4_mrc_penalties(self, context):
        result = run_fig4_mrc_impact(context)
        assert 0.05 < result.block("performance_degradation").value < 0.20
        assert result.block("memory_power_increase").value > 0.05
        assert (
            result.block("unoptimized_bandwidth_gbps").value
            < result.block("optimized_bandwidth_gbps").value
        )


class TestMechanism:
    def test_fig5_flow_within_budget(self, context):
        result = run_fig5_transition_flow(context)
        assert result.block("within_budget").value
        assert result.block("worst_latency_us").value <= result.block("budget_us").value


class TestEvaluation:
    def test_fig7_ordering_and_magnitude(self, context):
        subset = (
            "400.perlbench", "416.gamess", "433.milc", "436.cactusADM",
            "444.namd", "470.lbm", "473.astar", "482.sphinx3",
        )
        result = run_fig7_spec(context, subset=subset)
        average = {
            technique: result.block(f"average/{technique}").value
            for technique in ("sysscale", "coscale_redist", "memscale_redist")
        }
        assert average["sysscale"] > average["coscale_redist"] > average["memscale_redist"]
        assert 0.03 < average["sysscale"] < 0.15
        assert result.block("max/sysscale").value > 0.10

    def test_fig7_memory_bound_workloads_do_not_regress(self, context):
        result = run_fig7_spec(context, subset=("433.milc", "470.lbm"))
        for row in result.block("rows").records():
            assert row["sysscale"] >= -0.01

    def test_fig8_graphics_ordering(self, context):
        records = run_fig8_graphics(context).block("rows").records()
        rows = {row["workload"]: row for row in records}
        for row in records:
            assert row["sysscale"] > row["memscale_redist"]
            assert row["sysscale"] > 0.02
        # 3DMark11 is the most bandwidth-hungry variant and benefits least.
        assert rows["3DMark11"]["sysscale"] <= rows["3DMark06"]["sysscale"]

    def test_fig9_battery_life_savings(self, context):
        records = run_fig9_battery_life(context).block("rows").records()
        rows = {row["workload"]: row for row in records}
        for row in records:
            assert 0.03 < row["sysscale"] < 0.20
            assert row["sysscale"] > row["memscale_redist"]
        assert rows["video_playback"]["sysscale"] > rows["web_browsing"]["sysscale"]

    def test_sensitivity_ddr4_saves_less(self, context):
        result = run_dram_frequency_sensitivity(context, corpus_size=20)
        lpddr3_savings = result.block("lpddr3_power_savings_w").value
        assert result.block("ddr4_power_savings_w").value < lpddr3_savings
        assert result.block("degradation_ratio_0p8_vs_1p06").value > 1.5
        # The extra power freed by the 0.8 GHz bin is a small fraction of what the
        # 1.06 GHz point already frees (V_SA is at Vmin), confirming the paper's
        # decision to implement only two operating points.
        assert result.block("extra_savings_from_0p8_bin_w").value < 0.5 * lpddr3_savings
