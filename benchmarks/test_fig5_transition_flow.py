"""Benchmark: exercise the Fig. 5 transition flow and its < 10 us latency budget."""

from conftest import report

from repro.experiments import format_table, run_fig5_transition_flow


def test_fig5_transition_flow(benchmark, context):
    result = benchmark(run_fig5_transition_flow, context)
    transitions = result.block("transitions").records()
    report("Fig. 5 / Sec. 5: transition flow latency", format_table(transitions))
    assert result.block("within_budget").value
    assert result.block("worst_latency_us").value <= result.block("budget_us").value
    # Both directions (high->low and low->high) were exercised.
    assert len(transitions) == 2
    assert any(row["increasing_frequency"] for row in transitions)
