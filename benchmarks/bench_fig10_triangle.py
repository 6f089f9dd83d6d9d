"""Fig. 10 (triangle-counting panel): the loop-free algorithm of Fig. 5
under the three execution versions.  With no outer loop the DSL overhead
is a small constant, so the three versions converge fastest here."""

import pytest

import repro as gb
from repro.algorithms import triangle_count, triangle_count_native

from conftest import SIZES, requires_cpp, undirected_lower


@pytest.fixture(scope="module")
def lower_graphs():
    return {n: undirected_lower(n) for n in SIZES}


@pytest.mark.parametrize("n", SIZES)
def test_triangle_dsl_interpreted(benchmark, lower_graphs, n):
    L = lower_graphs[n]
    with gb.use_engine("interpreted"):
        triangle_count(L)
        result = benchmark(triangle_count, L)
    assert result >= 0


@requires_cpp
@pytest.mark.parametrize("n", SIZES)
def test_triangle_dsl_cpp(benchmark, lower_graphs, n):
    L = lower_graphs[n]
    with gb.use_engine("cpp"):
        triangle_count(L)
        result = benchmark(triangle_count, L)
    assert result >= 0


@pytest.mark.parametrize("n", SIZES)
def test_triangle_native_kernels(benchmark, lower_graphs, n):
    store = lower_graphs[n]._store
    store.transposed()
    result = benchmark(triangle_count_native, store)
    assert result >= 0


@requires_cpp
@pytest.mark.parametrize("n", SIZES)
def test_triangle_compiled_algorithm(benchmark, lower_graphs, n):
    from repro.algorithms.compiled import triangle_count_compiled

    store = lower_graphs[n]._store
    store.transposed()
    triangle_count_compiled(store)
    count, _elapsed = benchmark(triangle_count_compiled, store)
    assert count >= 0
