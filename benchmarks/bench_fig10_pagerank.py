"""Fig. 10 (PageRank panel): the power iteration of Fig. 7 under the
three execution versions.  PageRank performs seven GraphBLAS operations
per while-loop iteration, so it has the largest per-iteration DSL
dispatch cost of the four algorithms."""

import pytest

import repro as gb
from repro.algorithms import pagerank, pagerank_native

from conftest import SIZES_SMALL, requires_cpp

THRESHOLD = 1.0e-8


def _run_dsl(g):
    ranks = gb.Vector(shape=(g.nrows,), dtype=float)
    return pagerank(g, ranks, threshold=THRESHOLD)


@pytest.mark.parametrize("n", SIZES_SMALL)
def test_pagerank_dsl_interpreted(benchmark, pagerank_graphs, n):
    g = pagerank_graphs[n]
    with gb.use_engine("interpreted"):
        _run_dsl(g)
        result = benchmark(_run_dsl, g)
    assert result.nvals == n


@requires_cpp
@pytest.mark.parametrize("n", SIZES_SMALL)
def test_pagerank_dsl_cpp(benchmark, pagerank_graphs, n):
    g = pagerank_graphs[n]
    with gb.use_engine("cpp"):
        _run_dsl(g)
        result = benchmark(_run_dsl, g)
    assert result.nvals == n


@pytest.mark.parametrize("n", SIZES_SMALL)
def test_pagerank_native_kernels(benchmark, pagerank_graphs, n):
    store = pagerank_graphs[n]._store
    result = benchmark(pagerank_native, store, threshold=THRESHOLD)
    assert result.nvals == n


@requires_cpp
@pytest.mark.parametrize("n", SIZES_SMALL)
def test_pagerank_compiled_algorithm(benchmark, pagerank_graphs, n):
    from repro.algorithms.compiled import pagerank_compiled

    store = pagerank_graphs[n]._store
    pagerank_compiled(store, threshold=THRESHOLD)
    ranks, _elapsed = benchmark(pagerank_compiled, store, threshold=THRESHOLD)
    assert ranks.nvals == n
