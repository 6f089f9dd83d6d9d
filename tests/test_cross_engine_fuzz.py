"""Cross-engine differential fuzzing: random DSL programs must compute
numerically identical results under the interpreted engine, under the
C++ engine's fallback chain on a host whose compiler fails every build,
and, when a toolchain exists, under the C++ engine.

This is the strongest correctness statement the architecture supports:
whatever a random composition of masked/accumulated operations does, the
two realisations of the Fig. 9 pipeline agree on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as gb
from helpers import use_test_engine
from repro.jit.cppengine import toolchain_works

N = 8

_BINOPS = ["Plus", "Minus", "Times", "Min", "Max", "First", "Second"]
_SEMIRINGS = [("Plus", "Times"), ("Min", "Plus"), ("Max", "First"), ("Plus", "Plus")]


@st.composite
def vec_data(draw):
    n = draw(st.integers(0, N))
    idx = draw(st.lists(st.integers(0, N - 1), min_size=n, max_size=n, unique=True))
    vals = draw(
        st.lists(
            st.integers(-8, 8), min_size=n, max_size=n
        )
    )
    return sorted(zip(idx, vals))


@st.composite
def mat_data(draw):
    n = draw(st.integers(0, N * N // 2))
    flat = draw(
        st.lists(st.integers(0, N * N - 1), min_size=n, max_size=n, unique=True)
    )
    vals = draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))
    return sorted(zip(flat, vals))


@st.composite
def program(draw):
    """A small random DSL program: a sequence of masked/accumulated
    statements over two matrices and three vectors."""
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(
            st.sampled_from(
                ["mxv", "vxm", "ewise_add", "ewise_mult", "apply", "reduce_rows",
                 "assign_scalar", "select"]
            )
        )
        steps.append(
            dict(
                kind=kind,
                semiring=draw(st.sampled_from(_SEMIRINGS)),
                op=draw(st.sampled_from(_BINOPS)),
                masked=draw(st.booleans()),
                comp=draw(st.booleans()),
                replace=draw(st.booleans()),
                accum=draw(st.sampled_from([None, "Plus", "Min"])),
                const=draw(st.integers(-3, 3)),
            )
        )
    return steps


def _build_state(mat1, mat2, v1, v2, v3):
    a = gb.Matrix(
        ([v for _, v in mat1], ([f // N for f, _ in mat1], [f % N for f, _ in mat1])),
        shape=(N, N), dtype=np.int64,
    )
    b = gb.Matrix(
        ([v for _, v in mat2], ([f // N for f, _ in mat2], [f % N for f, _ in mat2])),
        shape=(N, N), dtype=np.int64,
    )
    def vec(d):
        return gb.Vector(([v for _, v in d], [i for i, _ in d]), shape=(N,), dtype=np.int64)
    return a, b, vec(v1), vec(v2), vec(v3)


def _run_program(steps, mat1, mat2, v1, v2, v3) -> dict:
    a, b, x, y, out = _build_state(mat1, mat2, v1, v2, v3)
    mask = gb.Vector(
        ([True, True, True], [0, 3, 6]), shape=(N,), dtype=bool
    )
    for s in steps:
        key = None
        if s["masked"]:
            key = (~mask if s["comp"] else mask, s["replace"])
        sr = gb.Semiring(gb.Monoid(s["semiring"][0]), s["semiring"][1])
        with sr:
            if s["kind"] == "mxv":
                expr = a @ x
            elif s["kind"] == "vxm":
                expr = x @ b
            elif s["kind"] == "ewise_add":
                with gb.BinaryOp(s["op"]):
                    expr = x + y
            elif s["kind"] == "ewise_mult":
                with gb.BinaryOp(s["op"]):
                    expr = x * y
            elif s["kind"] == "apply":
                expr = gb.apply(gb.UnaryOp("Plus", s["const"]), x)
            elif s["kind"] == "reduce_rows":
                expr = gb.reduce(gb.Monoid(s["semiring"][0]), a)
            elif s["kind"] == "select":
                expr = gb.select("ValueGT", x, s["const"])
            else:  # assign_scalar
                expr = None
            if expr is None:
                if s["accum"]:
                    with gb.Accumulator(s["accum"]):
                        out[key] = s["const"]
                else:
                    out[key] = s["const"]
            elif s["accum"]:
                with gb.Accumulator(s["accum"]):
                    out.__setitem__(key, _accum(expr))  # the `+=` protocol
            else:
                out[key] = expr
        # rotate state so later steps see earlier results
        x, y = y, x
    return out._store.to_dict()


def _accum(expr):
    from repro.core.masks import AccumExpr

    return AccumExpr(expr)


@settings(max_examples=40, deadline=None)
@given(
    steps=program(),
    mat1=mat_data(),
    mat2=mat_data(),
    v1=vec_data(),
    v2=vec_data(),
    v3=vec_data(),
)
def test_interpreted_and_pyjit_agree(steps, mat1, mat2, v1, v2, v3):
    """``pyjit``: the cpp stack of a host whose compiler fails every
    build; every op degrades to interpreted, so results are identical."""
    with gb.use_engine("interpreted"):
        r1 = _run_program(steps, mat1, mat2, v1, v2, v3)
    with use_test_engine("pyjit"):
        r2 = _run_program(steps, mat1, mat2, v1, v2, v3)
    assert r1 == r2


@pytest.mark.cpp
@pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain")
@settings(max_examples=10, deadline=None)
@given(
    steps=program(),
    mat1=mat_data(),
    mat2=mat_data(),
    v1=vec_data(),
    v2=vec_data(),
    v3=vec_data(),
)
def test_cpp_agrees_with_interpreted(steps, mat1, mat2, v1, v2, v3):
    with gb.use_engine("interpreted"):
        r1 = _run_program(steps, mat1, mat2, v1, v2, v3)
    with gb.use_engine("cpp"):
        r2 = _run_program(steps, mat1, mat2, v1, v2, v3)
    assert r1.keys() == r2.keys()
    for k in r1:
        assert r1[k] == pytest.approx(r2[k])
