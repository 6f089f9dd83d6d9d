"""Fig. 10 (BFS panel): run time of breadth-first search under the
paper's three execution versions, against graph size.

* ``dsl`` — version 1: PyGB code, Python outer loop, one JIT-compiled
  kernel call per operation (parametrised over the ``interpreted`` and
  ``cpp`` engines);
* ``native`` — direct backend-kernel calls, no DSL objects (the native
  comparison point for the NumPy backend);
* ``compiled`` — version 2: Python calls the whole algorithm as a single
  JIT-compiled C++ module.  Version 3 (the module's internal
  ``std::chrono`` time) is reported by ``benchmarks/harness.py``.
"""

import pytest

import repro as gb
from repro.algorithms import bfs_levels, bfs_native

from conftest import SIZES, requires_cpp


@pytest.mark.parametrize("n", SIZES)
def test_bfs_dsl_interpreted(benchmark, graphs, n):
    g = graphs[n]
    with gb.use_engine("interpreted"):
        bfs_levels(g, 0)  # warm the JIT cache outside the timed region
        result = benchmark(bfs_levels, g, 0)
    assert result.nvals > 0


@requires_cpp
@pytest.mark.parametrize("n", SIZES)
def test_bfs_dsl_cpp(benchmark, graphs, n):
    g = graphs[n]
    with gb.use_engine("cpp"):
        bfs_levels(g, 0)
        result = benchmark(bfs_levels, g, 0)
    assert result.nvals > 0


@pytest.mark.parametrize("n", SIZES)
def test_bfs_native_kernels(benchmark, graphs, n):
    store = graphs[n]._store
    store.transposed()  # pre-build the cached transpose, as the DSL does
    result = benchmark(bfs_native, store, 0)
    assert result.nvals > 0


@requires_cpp
@pytest.mark.parametrize("n", SIZES)
def test_bfs_compiled_algorithm(benchmark, graphs, n):
    from repro.algorithms.compiled import bfs_compiled

    store = graphs[n]._store
    store.transposed()
    bfs_compiled(store, 0)  # compile outside the timed region
    levels, _elapsed = benchmark(bfs_compiled, store, 0)
    assert levels.nvals > 0
