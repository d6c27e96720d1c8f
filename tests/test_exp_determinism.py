"""Determinism wall for the parallel experiment engine.

The engine's contract (ISSUE 2): serial and parallel runs produce
byte-identical ``ExperimentResult`` JSON, repeated runs are identical,
and a cache hit returns the same bytes as the cold run it replays.
The representative subset covers a plain experiment (table1, fig13b),
cell-decomposed verbs sweeps (fig04a, fig05a) and — implicitly through
them — every delay in Table 1.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import registry
from repro.core.experiments import run_all
from repro.core.registry import ExperimentResult
from repro.exp import ResultCache, run_experiments

SUBSET = ["table1", "fig04a", "fig05a", "fig13b"]


@pytest.fixture(scope="module")
def serial_results(quick_result):
    return {exp_id: quick_result(exp_id) for exp_id in SUBSET}


def _bytes(results):
    return {r.exp_id: r.to_json() for r in results}


def test_parallel_matches_serial_byte_for_byte(serial_results):
    parallel = run_experiments(SUBSET, quick=True, jobs=4)
    assert [r.exp_id for r in parallel] == SUBSET
    for result in parallel:
        assert result.to_json() == serial_results[result.exp_id].to_json()


def test_repeated_runs_are_identical(serial_results):
    again = run_all(quick=True, ids=["table1", "fig04a", "fig05a"])
    for result in again:
        assert result.to_json() == serial_results[result.exp_id].to_json()


def test_cache_hit_returns_cold_run_bytes(tmp_path, serial_results):
    cache = ResultCache(tmp_path / "cache")
    cold = run_experiments(["fig04a"], quick=True, jobs=1, cache=cache)
    assert (cache.hits, cache.misses) == (0, 1)
    warm = run_experiments(["fig04a"], quick=True, jobs=1, cache=cache)
    assert (cache.hits, cache.misses) == (1, 1)
    assert warm[0].to_json() == cold[0].to_json()
    assert cold[0].to_json() == serial_results["fig04a"].to_json()


def test_warm_cache_runs_zero_experiments(tmp_path, monkeypatch,
                                          serial_results):
    cache = ResultCache(tmp_path / "cache")
    run_experiments(["table1", "fig04a"], quick=True, jobs=1, cache=cache)

    def boom(*args, **kwargs):
        raise AssertionError("experiment re-executed despite warm cache")

    monkeypatch.setattr(registry, "run_experiment", boom)
    monkeypatch.setattr(registry, "run_cell", boom)
    warm = run_experiments(["table1", "fig04a"], quick=True, jobs=1,
                           cache=cache)
    assert _bytes(warm) == {
        k: serial_results[k].to_json() for k in ("table1", "fig04a")}


def test_parallel_metrics_are_deterministic():
    """Merged --jobs>1 metrics are identical across repeated runs."""
    from repro.obs import MetricsRegistry, to_json, use_registry
    snapshots = []
    for _ in range(2):
        reg = MetricsRegistry()
        with use_registry(reg):
            run_experiments(["fig04b", "ext_dlm"], quick=True, jobs=3)
        snapshots.append(to_json(reg))
    assert snapshots[0] == snapshots[1]
    assert "busy_us" in snapshots[0]


def test_cells_match_registry_rows(serial_results):
    """Cell-by-cell recomputation reproduces the registered rows."""
    for exp_id in ("fig04a", "fig05a"):
        n = registry.n_cells(exp_id, quick=True)
        assert n == len(serial_results[exp_id].rows)
        rows = [registry.run_cell(exp_id, True, i) for i in range(n)]
        rebuilt = registry.finalize_cells(exp_id, True, rows)
        assert rebuilt.to_json() == serial_results[exp_id].to_json()


# -- serialization round-trip properties ------------------------------------

_cell = st.one_of(
    st.integers(min_value=-2**40, max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=20))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(_cell, _cell, _cell), min_size=1, max_size=8),
       st.text(max_size=30))
def test_result_json_roundtrip(rows, notes):
    result = ExperimentResult("prop", "property test",
                              ["a", "b", "c"], rows, notes)
    again = ExperimentResult.from_json(result.to_json())
    assert again == result
    assert again.to_json() == result.to_json()
