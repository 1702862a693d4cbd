"""Bench: regenerate Fig. 17 accuracy under faults (see DESIGN.md §3 for the experiment index)."""

from conftest import run_once


def test_fig17(benchmark, record_result, shared_experiment):
    # Shared with tests/test_experiments.py::TestSlowExperiments::
    # test_fig17_orderings: one computation per session.
    result = run_once(benchmark, lambda: shared_experiment("fig17"))
    record_result(result)
    assert result.rows, "experiment produced no data"
