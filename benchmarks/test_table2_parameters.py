"""Benchmark: regenerate Table 2 (SoC and memory parameters)."""

from conftest import report

from repro.experiments import format_table, run_table2


def test_table2_parameters(benchmark, context):
    result = benchmark(run_table2, context)
    records = result.block("rows").records()
    rows = {row["parameter"]: row["value"] for row in records}
    report("Table 2: SoC and memory parameters", format_table(records))
    assert rows["CPU core base frequency (GHz)"] == 1.2
    assert rows["Graphics engine base frequency (MHz)"] == 300
    assert rows["L3 cache / LLC (MiB)"] == 4
    assert rows["Thermal design power (W)"] == 4.5
    assert rows["Peak memory bandwidth (GB/s)"] == 25.6
