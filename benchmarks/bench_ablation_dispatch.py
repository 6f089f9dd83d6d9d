"""Ablation: specialised JIT-compiled C++ kernels vs the generic
interpreted dispatcher (the design alternative Sec. V discusses and
rejects — a union-type/generic interpreter "adds execution overhead and
inefficiency, since an additional step is required to look up" operators
per call).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_ablation_dispatch.py``;
the cpp rows need a C++ toolchain.  EXPERIMENTS.md records the measured
medians.
"""

import numpy as np
import pytest

import repro as gb
from repro.io.generators import erdos_renyi

from conftest import requires_cpp

SIZES = [16, 256, 4096]
ENGINES = ["interpreted", pytest.param("cpp", marks=requires_cpp)]


@pytest.fixture(scope="module")
def vec_ops():
    out = {}
    for n in SIZES:
        rng = np.random.default_rng(n)
        u = gb.Vector((rng.uniform(1, 2, n), np.arange(n)), shape=(n,))
        v = gb.Vector((rng.uniform(1, 2, n), np.arange(n)), shape=(n,))
        w = gb.Vector(shape=(n,), dtype=float)
        out[n] = (u, v, w)
    return out


@pytest.fixture(scope="module")
def mat_ops():
    out = {}
    for n in SIZES:
        a = erdos_renyi(n, seed=n, weighted=True, dtype=float)
        u = gb.Vector((np.ones(n), np.arange(n)), shape=(n,))
        w = gb.Vector(shape=(n,), dtype=float)
        out[n] = (a, u, w)
    return out


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("engine_name", ENGINES)
def test_ewise_add_dispatch(benchmark, vec_ops, engine_name, n):
    u, v, w = vec_ops[n]

    def run():
        w[None] = u + v

    with gb.use_engine(engine_name):
        run()
        benchmark(run)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("engine_name", ENGINES)
def test_mxv_dispatch(benchmark, mat_ops, engine_name, n):
    a, u, w = mat_ops[n]

    def run():
        w[None] = a @ u

    with gb.use_engine(engine_name):
        run()
        benchmark(run)
