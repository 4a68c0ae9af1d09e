"""Benchmark: regenerate Table 1 (baseline vs. MD-DVFS setups)."""

from conftest import report

from repro.experiments import format_table, run_table1


def test_table1_setups(benchmark, context):
    result = benchmark(run_table1, context)
    rows = result.block("rows").records()
    report("Table 1: experimental setups", format_table(rows))
    by_component = {row["component"]: row for row in rows}
    assert by_component["DRAM frequency (GHz)"]["baseline"] == 1.6
    assert by_component["DRAM frequency (GHz)"]["md_dvfs"] == 1.06
    assert by_component["IO interconnect (GHz)"]["md_dvfs"] == 0.4
    assert by_component["Shared voltage (x V_SA)"]["md_dvfs"] == 0.8
    assert by_component["DDRIO digital (x V_IO)"]["md_dvfs"] == 0.85
