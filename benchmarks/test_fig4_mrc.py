"""Benchmark: regenerate Fig. 4 (impact of unoptimized MRC values)."""

from conftest import report

from repro.experiments import run_fig4_mrc_impact


def test_fig4_mrc_impact(benchmark, context):
    result = benchmark(run_fig4_mrc_impact, context)
    degradation = result.block("performance_degradation").value
    memory_power = result.block("memory_power_increase").value
    soc_power = result.block("soc_power_increase").value
    report(
        "Fig. 4: unoptimized MRC impact (peak-bandwidth microbenchmark)",
        [
            f"performance degradation : {degradation:.1%} (paper ~10%)",
            f"memory power increase   : {memory_power:.1%} (paper ~22%)",
            f"SoC power increase      : {soc_power:.1%}",
        ],
    )
    # Paper shape: ~10 % performance loss and a substantial power increase.
    assert 0.05 < degradation < 0.20
    assert memory_power > 0.05
    assert (
        result.block("unoptimized_bandwidth_gbps").value
        < result.block("optimized_bandwidth_gbps").value
    )
