"""Ablation: deferred expression evaluation vs eager temporaries, and
container reuse vs reallocation (the two Sec. IV design choices).

* *lazy*: ``C[None] = A + B`` — the expression object evaluates straight
  into C with no temporary container;
* *eager*: materialise ``A + B`` into a temporary, then identity-apply
  the temporary into C — the "naive implementation" the paper describes
  and rejects;
* *reuse vs fresh*: ``C[None] = A @ B`` vs ``C = A @ B`` — the paper
  warns "the performance differences between the two are not negligible".
"""

import pytest

import repro as gb
from repro.io.generators import erdos_renyi

N = 1024


@pytest.fixture(scope="module")
def ops():
    a = erdos_renyi(N, seed=1, weighted=True, dtype=float)
    b = erdos_renyi(N, seed=2, weighted=True, dtype=float)
    c = gb.Matrix(shape=(N, N), dtype=float)
    with gb.use_engine("interpreted"):
        c[None] = a + b  # warm the kernels
        tmp = gb.Matrix(a + b)
        c[None] = gb.apply(tmp)
    return a, b, c


def test_lazy_ewise_into_container(benchmark, ops):
    a, b, c = ops

    def lazy():
        c[None] = a + b

    with gb.use_engine("interpreted"):
        benchmark(lazy)


def test_eager_temporary_then_assign(benchmark, ops):
    a, b, c = ops

    def eager():
        tmp = gb.Matrix(a + b)  # explicit temporary container
        c[None] = gb.apply(tmp)  # then a full copy into C

    with gb.use_engine("interpreted"):
        benchmark(eager)


def test_container_reuse_setitem(benchmark, ops):
    a, b, c = ops

    def reuse():
        c[None] = a @ b

    with gb.use_engine("interpreted"):
        reuse()
        benchmark(reuse)


def test_container_fresh_rebind(benchmark, ops):
    a, b, _ = ops

    def fresh():
        return gb.Matrix(a @ b)  # new container every time (C = A @ B)

    with gb.use_engine("interpreted"):
        fresh()
        benchmark(fresh)
