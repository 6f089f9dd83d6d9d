"""Fig. 10 (SSSP panel): single-source shortest path under the three
execution versions (converging variant in all versions; see
EXPERIMENTS.md)."""

import pytest

import repro as gb
from repro.algorithms import sssp_converging, sssp_native

from conftest import SIZES, requires_cpp


def _run_dsl(g):
    path = gb.Vector(([0.0], [0]), shape=(g.nrows,), dtype=g.dtype)
    return sssp_converging(g, path)


@pytest.mark.parametrize("n", SIZES)
def test_sssp_dsl_interpreted(benchmark, weighted_graphs, n):
    g = weighted_graphs[n]
    with gb.use_engine("interpreted"):
        _run_dsl(g)
        result = benchmark(_run_dsl, g)
    assert result.nvals > 0


@requires_cpp
@pytest.mark.parametrize("n", SIZES)
def test_sssp_dsl_cpp(benchmark, weighted_graphs, n):
    g = weighted_graphs[n]
    with gb.use_engine("cpp"):
        _run_dsl(g)
        result = benchmark(_run_dsl, g)
    assert result.nvals > 0


@pytest.mark.parametrize("n", SIZES)
def test_sssp_native_kernels(benchmark, weighted_graphs, n):
    store = weighted_graphs[n]._store
    store.transposed()
    result = benchmark(sssp_native, store, 0)
    assert result.nvals > 0


@requires_cpp
@pytest.mark.parametrize("n", SIZES)
def test_sssp_compiled_algorithm(benchmark, weighted_graphs, n):
    from repro.algorithms.compiled import sssp_compiled

    store = weighted_graphs[n]._store
    store.transposed()
    sssp_compiled(store, 0)
    path, _elapsed = benchmark(sssp_compiled, store, 0)
    assert path.nvals > 0
