"""Benchmark: regenerate the Sec. 7.4 DRAM-frequency sensitivity results."""

from conftest import report

from repro.experiments import run_dram_frequency_sensitivity


def test_dram_frequency_sensitivity(benchmark, context):
    result = benchmark.pedantic(
        run_dram_frequency_sensitivity, args=(context,), kwargs={"corpus_size": 60},
        rounds=1, iterations=1,
    )
    lpddr3_savings = result.block("lpddr3_power_savings_w").value
    ddr4_savings = result.block("ddr4_power_savings_w").value
    extra_savings = result.block("extra_savings_from_0p8_bin_w").value
    degradation_ratio = result.block("degradation_ratio_0p8_vs_1p06").value
    report(
        "Sec. 7.4: DRAM device / operating-point sensitivity",
        [
            f"LPDDR3 1.6->1.06 GHz freed power : {lpddr3_savings:.3f} W",
            f"DDR4   1.86->1.33 GHz freed power: {ddr4_savings:.3f} W "
            f"({result.block('ddr4_savings_deficit').value:.1%} less; paper ~7% less)",
            f"extra power from the 0.8 GHz bin : {extra_savings:.3f} W",
            f"degradation 0.8 GHz vs 1.06 GHz  : {degradation_ratio:.1f}x "
            "(paper 2-3x)",
        ],
    )
    # Paper shape: DDR4 scaling frees somewhat less power than LPDDR3 scaling; the
    # 0.8 GHz bin adds little power headroom (V_SA already at Vmin) while hurting
    # performance 2-3x more, so two operating points suffice.
    assert ddr4_savings < lpddr3_savings
    assert degradation_ratio > 1.5
    assert extra_savings < 0.5 * lpddr3_savings
