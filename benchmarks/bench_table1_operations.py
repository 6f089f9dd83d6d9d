"""Table I micro-benchmarks: one benchmark per GraphBLAS operation in its
PyGB notation, at a fixed representative size (|V| = 1024, |E| = |V|^1.5),
under the default (interpreted) engine.

These quantify the per-operation cost behind the Fig. 10 curves: the DSL
adds a constant expression-object + dispatch overhead to each row of this
table, so operations with more work per call amortise it better.
"""

import numpy as np
import pytest

import repro as gb
from repro.io.generators import erdos_renyi

N = 1024


@pytest.fixture(scope="module")
def ctx():
    a = erdos_renyi(N, seed=1, weighted=True, dtype=float)
    b = erdos_renyi(N, seed=2, weighted=True, dtype=float)
    u = gb.Vector((np.random.default_rng(3).uniform(1, 2, N), np.arange(N)), shape=(N,))
    v = gb.Vector((np.random.default_rng(4).uniform(1, 2, N), np.arange(N)), shape=(N,))
    m = gb.Vector(([True] * (N // 2), np.arange(0, N, 2)), shape=(N,), dtype=bool)
    out_m = gb.Matrix(shape=(N, N), dtype=float)
    out_v = gb.Vector(shape=(N,), dtype=float)
    # warm every kernel once so only steady-state dispatch is measured
    with gb.use_engine("interpreted"):
        out_m[None] = a @ b
        out_v[None] = a @ u
        out_v[None] = u @ a
        out_m[None] = a + b
        out_m[None] = a * b
        out_v[None] = u + v
        out_v[None] = u * v
        out_v[None] = gb.reduce(gb.PlusMonoid, a)
        gb.reduce(a)
        out_m[None] = gb.apply(a)
        out_m[None] = a.T
    return dict(a=a, b=b, u=u, v=v, m=m, out_m=out_m, out_v=out_v)


def _bench(benchmark, fn):
    with gb.use_engine("interpreted"):
        benchmark(fn)


def test_mxm(benchmark, ctx):
    _bench(benchmark, lambda: ctx["out_m"].__setitem__(None, ctx["a"] @ ctx["b"]))


def test_mxv(benchmark, ctx):
    _bench(benchmark, lambda: ctx["out_v"].__setitem__(None, ctx["a"] @ ctx["u"]))


def test_vxm(benchmark, ctx):
    _bench(benchmark, lambda: ctx["out_v"].__setitem__(None, ctx["u"] @ ctx["a"]))


def test_ewise_add_matrix(benchmark, ctx):
    _bench(benchmark, lambda: ctx["out_m"].__setitem__(None, ctx["a"] + ctx["b"]))


def test_ewise_mult_matrix(benchmark, ctx):
    _bench(benchmark, lambda: ctx["out_m"].__setitem__(None, ctx["a"] * ctx["b"]))


def test_ewise_add_vector(benchmark, ctx):
    _bench(benchmark, lambda: ctx["out_v"].__setitem__(None, ctx["u"] + ctx["v"]))


def test_ewise_mult_vector(benchmark, ctx):
    _bench(benchmark, lambda: ctx["out_v"].__setitem__(None, ctx["u"] * ctx["v"]))


def test_reduce_rows(benchmark, ctx):
    _bench(
        benchmark,
        lambda: ctx["out_v"].__setitem__(None, gb.reduce(gb.PlusMonoid, ctx["a"])),
    )


def test_reduce_scalar(benchmark, ctx):
    _bench(benchmark, lambda: gb.reduce(ctx["a"]))


def test_apply(benchmark, ctx):
    _bench(benchmark, lambda: ctx["out_m"].__setitem__(None, gb.apply(ctx["a"])))


def test_transpose(benchmark, ctx):
    # materialising assignment of A.T; the view itself is free
    _bench(benchmark, lambda: ctx["out_m"].__setitem__(None, gb.transpose(ctx["a"])))


def test_extract_subvector(benchmark, ctx):
    idx = np.arange(0, N, 2)

    def run():
        ctx["out_v"]  # noqa: B018 - keep symmetry with other benches
        return gb.Vector(ctx["u"][idx])

    _bench(benchmark, run)


def test_assign_subvector(benchmark, ctx):
    idx = np.arange(0, N, 2)
    src = gb.Vector(np.ones(idx.size))

    def run():
        ctx["out_v"][idx] = src

    _bench(benchmark, run)


def test_masked_mxv(benchmark, ctx):
    def run():
        ctx["out_v"][ctx["m"]] = ctx["a"] @ ctx["u"]

    with gb.use_engine("interpreted"):
        run()  # warm the masked-variant module
        benchmark(run)
