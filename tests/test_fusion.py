"""Differential tests for the plan-IR fusion pass (``jit/fusion.py``).

Two properties under test, per peephole rule:

* **equivalence** — with ``PYGB_FUSION=1`` the fused cpp kernel produces
  the same result as the unfused interpreted engine (bit-identical for
  integers; allclose for floats, whose reductions cpp may re-associate)
  across dtypes, masks (including ``~mask``), accumulators, and the
  replace flag; and a fused plan whose kernels cannot be built (no
  working compiler) runs bit-identically on the interpreted rung;
* **savings** — a :class:`~repro.core.dispatch.CountingEngine` shows each
  rule collapses its producer+consumer pair into one engine call, and the
  traced algorithms (BFS, SSSP, PageRank) issue strictly fewer engine
  calls fused than unfused.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pytest

import repro as gb
from repro.core.dispatch import CountingEngine, make_engine
from repro.core.masks import AccumExpr
from repro.core.plan import Plan, fusion_enabled
from repro.jit.cppcodegen import CPP_GENERATORS, PARALLEL_FUNCS
from repro.jit.cppengine import toolchain_works
from repro.jit.fused_ops import FUSED_OPS

from helpers import (
    mat_from_dict, random_mat_dict, random_vec_dict, use_test_engine, vec_from_dict,
)

N = 32


@contextlib.contextmanager
def _fusion(on: bool):
    old = os.environ.get("PYGB_FUSION")
    os.environ["PYGB_FUSION"] = "1" if on else "0"
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("PYGB_FUSION", None)
        else:
            os.environ["PYGB_FUSION"] = old


def _data(dtype):
    rng = np.random.default_rng(11)
    return dict(
        A=random_mat_dict(rng, N, N, 0.25, dtype),
        B=random_mat_dict(rng, N, N, 0.25, dtype),
        u=random_vec_dict(rng, N, 0.5, dtype),
        v=random_vec_dict(rng, N, 0.5, dtype),
        w=random_vec_dict(rng, N, 0.4, dtype),
        W=random_mat_dict(rng, N, N, 0.2, dtype),
        mv=random_vec_dict(rng, N, 0.5, np.bool_),
        mm=random_mat_dict(rng, N, N, 0.4, np.bool_),
    )


# expression builders, one per vector-producing plan rule
_VEC_EXPRS = {
    "mxv_apply": lambda A, B, u, v: (A @ u) * 2,
    "vxm_apply": lambda A, B, u, v: (u @ A) + 3,
    "ewise_add_vec_apply": lambda A, B, u, v: (u + v) * 2,
    "ewise_mult_vec_apply": lambda A, B, u, v: (u * v) + 1,
    "mxm_reduce_rows": lambda A, B, u, v: gb.reduce("Plus", A @ B),
}

_MAT_EXPRS = {
    "ewise_add_mat_apply": lambda A, B: (A + B) * 2,
    "ewise_mult_mat_apply": lambda A, B: (A * B) + 1,
}

_VEC_MODES = ("plain", "mask", "comp", "replace", "accum")


def _run_vec(rule, mode, dtype):
    d = _data(dtype)
    A = mat_from_dict(d["A"], N, N, dtype)
    B = mat_from_dict(d["B"], N, N, dtype)
    u = vec_from_dict(d["u"], N, dtype)
    v = vec_from_dict(d["v"], N, dtype)
    out = vec_from_dict(d["w"], N, dtype)
    mask = vec_from_dict(d["mv"], N, np.bool_)
    expr = _VEC_EXPRS[rule](A, B, u, v)
    if mode == "plain":
        out[None] = expr
    elif mode == "mask":
        out[mask] = expr
    elif mode == "comp":
        out[~mask] = expr
    elif mode == "replace":
        out[mask, True] = expr
    elif mode == "accum":
        with gb.Accumulator("Plus"):
            out[None] += expr
    return out.to_numpy()


def _run_mat(rule, mode, dtype):
    d = _data(dtype)
    A = mat_from_dict(d["A"], N, N, dtype)
    B = mat_from_dict(d["B"], N, N, dtype)
    out = mat_from_dict(d["W"], N, N, dtype)
    mask = mat_from_dict(d["mm"], N, N, np.bool_)
    expr = _MAT_EXPRS[rule](A, B)
    if mode == "plain":
        out[None] = expr
    elif mode == "mask":
        out[mask] = expr
    elif mode == "comp":
        out[~mask] = expr
    elif mode == "replace":
        out[mask, True] = expr
    elif mode == "accum":
        with gb.Accumulator("Plus"):
            out[None] += expr
    return out.to_numpy()


def _run_reduce(rule, dtype):
    d = _data(dtype)
    u = vec_from_dict(d["u"], N, dtype)
    v = vec_from_dict(d["v"], N, dtype)
    if rule == "ewise_add_vec_reduce_scalar":
        return gb.reduce(u + v)
    return gb.reduce(u * v)


def _run_apply_assign(mode, dtype):
    d = _data(dtype)
    u = vec_from_dict(d["u"], N, dtype)
    out = vec_from_dict(d["w"], N, dtype)
    mask = vec_from_dict(d["mv"], N, np.bool_)
    if mode == "full":
        out[:] = u * 2
    elif mode == "indexed":
        idx = list(range(0, N, 3))
        small = vec_from_dict(
            {i: val for i, val in enumerate(sorted(d["v"].values())[: len(idx)])},
            len(idx),
            dtype,
        )
        out[idx] = small * 2
    elif mode == "masked":
        out[mask][:] = u * 2
    elif mode == "accum":
        # C[:] += expr in GrB terms; the DSL spells it through AccumExpr
        with gb.Accumulator("Plus"):
            out[slice(None)] = AccumExpr(u * 2)
    return out.to_numpy()


def _differential(build, engine_name, exact):
    with _fusion(True), use_test_engine(engine_name):
        got = np.asarray(build())
    with _fusion(False), gb.use_engine("interpreted"):
        want = np.asarray(build())
    if exact:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-9)


# ----------------------------------------------------------------------
# equivalence: fused plan on a host without a working compiler
# ----------------------------------------------------------------------
class TestPyJitDifferential:
    """The ``pyjit`` id: the cpp stack whose every build fails (see
    :func:`helpers.no_compiler_engine`).  The plan still fuses, because
    the chain's primary engine does; each fused kernel build fails and
    the fused op runs on the interpreted rung's reference kernel, which
    must be bit-identical to the unfused interpreted run."""

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("mode", _VEC_MODES)
    @pytest.mark.parametrize("rule", sorted(_VEC_EXPRS))
    def test_vector_rules(self, rule, mode, dtype):
        _differential(lambda: _run_vec(rule, mode, dtype), "pyjit", exact=True)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("mode", _VEC_MODES)
    @pytest.mark.parametrize("rule", sorted(_MAT_EXPRS))
    def test_matrix_rules(self, rule, mode, dtype):
        _differential(lambda: _run_mat(rule, mode, dtype), "pyjit", exact=True)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize(
        "rule", ["ewise_add_vec_reduce_scalar", "ewise_mult_vec_reduce_scalar"]
    )
    def test_reduce_rules(self, rule, dtype):
        _differential(lambda: _run_reduce(rule, dtype), "pyjit", exact=True)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("mode", ["full", "indexed", "masked", "accum"])
    def test_apply_assign(self, mode, dtype):
        _differential(lambda: _run_apply_assign(mode, dtype), "pyjit", exact=True)

    def test_unary_op_form(self):
        """A named UnaryOp (not a scalar bind) on top of a producer."""
        _differential(_unary_op_form, "pyjit", exact=True)


def _unary_op_form():
    inv = gb.UnaryOp("AdditiveInverse")
    d = _data(np.float64)
    A = mat_from_dict(d["A"], N, N, np.float64)
    u = vec_from_dict(d["u"], N, np.float64)
    return gb.Vector(gb.apply(inv, A @ u)).to_numpy()


# ----------------------------------------------------------------------
# equivalence: cpp fused vs interpreted unfused
# ----------------------------------------------------------------------
needs_cxx = pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain")

_DTYPES = (np.float64, np.int64)


def _cpp_differential(build):
    """Both dtypes: exact for int64, allclose for float64."""
    for dtype in _DTYPES:
        _differential(lambda: build(dtype), "cpp", exact=np.dtype(dtype).kind != "f")


@pytest.mark.cpp
@needs_cxx
class TestCppDifferential:
    @pytest.mark.parametrize("mode", _VEC_MODES)
    @pytest.mark.parametrize("rule", sorted(_VEC_EXPRS))
    def test_vector_rules(self, rule, mode):
        _cpp_differential(lambda dtype: _run_vec(rule, mode, dtype))

    @pytest.mark.parametrize("rule", sorted(_MAT_EXPRS))
    def test_matrix_rules(self, rule):
        for mode in _VEC_MODES:
            _cpp_differential(lambda dtype: _run_mat(rule, mode, dtype))

    @pytest.mark.parametrize(
        "rule", ["ewise_add_vec_reduce_scalar", "ewise_mult_vec_reduce_scalar"]
    )
    def test_reduce_rules(self, rule):
        _cpp_differential(lambda dtype: _run_reduce(rule, dtype))

    @pytest.mark.parametrize("mode", ["full", "indexed", "masked", "accum"])
    def test_apply_assign(self, mode):
        _cpp_differential(lambda dtype: _run_apply_assign(mode, dtype))

    def test_unary_op_form(self):
        _differential(_unary_op_form, "cpp", exact=False)


# ----------------------------------------------------------------------
# savings: every rule collapses its pair into one engine call
# ----------------------------------------------------------------------
def _counted(fusion_on, fn):
    eng = CountingEngine(make_engine("cpp"))
    with _fusion(fusion_on), gb.use_engine(eng):
        result = fn()
    return eng, result


class TestCallSavings:
    """Counted on the cpp engine, the only engine that fuses."""

    @pytest.mark.cpp
    @needs_cxx
    @pytest.mark.parametrize("rule", sorted(_VEC_EXPRS))
    def test_vector_rule_fires(self, rule):
        eng, _ = _counted(True, lambda: _run_vec(rule, "plain", np.float64))
        assert eng.counts.get(rule) == 1
        off, _ = _counted(False, lambda: _run_vec(rule, "plain", np.float64))
        assert rule not in off.counts
        assert off.total == eng.total + 1  # two calls became one

    @pytest.mark.cpp
    @needs_cxx
    @pytest.mark.parametrize("rule", sorted(_MAT_EXPRS))
    def test_matrix_rule_fires(self, rule):
        eng, _ = _counted(True, lambda: _run_mat(rule, "plain", np.float64))
        assert eng.counts.get(rule) == 1
        off, _ = _counted(False, lambda: _run_mat(rule, "plain", np.float64))
        assert rule not in off.counts
        assert off.total == eng.total + 1

    @pytest.mark.cpp
    @needs_cxx
    @pytest.mark.parametrize(
        "rule", ["ewise_add_vec_reduce_scalar", "ewise_mult_vec_reduce_scalar"]
    )
    def test_reduce_rule_fires(self, rule):
        eng, _ = _counted(True, lambda: _run_reduce(rule, np.float64))
        assert eng.counts.get(rule) == 1
        off, _ = _counted(False, lambda: _run_reduce(rule, np.float64))
        assert rule not in off.counts
        assert off.total == eng.total + 1

    @pytest.mark.cpp
    @needs_cxx
    def test_apply_assign_fires(self):
        eng, _ = _counted(True, lambda: _run_apply_assign("masked", np.float64))
        assert eng.counts.get("apply_assign_vec") == 1
        off, _ = _counted(False, lambda: _run_apply_assign("masked", np.float64))
        assert "apply_assign_vec" not in off.counts
        assert off.total == eng.total + 1

    def test_fusion_env_switch(self, monkeypatch):
        monkeypatch.setenv("PYGB_FUSION", "0")
        assert not fusion_enabled()
        monkeypatch.setenv("PYGB_FUSION", "1")
        assert fusion_enabled()
        monkeypatch.delenv("PYGB_FUSION")
        assert fusion_enabled()  # default on

    @pytest.mark.cpp
    @needs_cxx
    def test_algorithms_issue_strictly_fewer_calls(self):
        """Acceptance gate: tracing BFS + SSSP + PageRank, fusion-on
        issues strictly fewer engine calls than fusion-off."""
        from repro.algorithms import bfs_levels, pagerank, sssp_distances
        from repro.io.generators import erdos_renyi

        def trace():
            g = erdos_renyi(40, seed=3)
            gf = erdos_renyi(40, seed=3, weighted=True, dtype=float)
            bfs_levels(g, 0)
            sssp_distances(gf, 0)
            pr = gb.Vector(shape=(40,), dtype=float)
            pagerank(gf, pr)

        on, _ = _counted(True, trace)
        off, _ = _counted(False, trace)
        assert on.total < off.total
        assert on.counts.get("ewise_mult_vec_reduce_scalar", 0) > 0

    @pytest.mark.cpp
    @needs_cxx
    def test_pagerank_saves_one_call_per_iteration(self):
        from repro.algorithms import pagerank
        from repro.io.generators import erdos_renyi

        def trace():
            g = erdos_renyi(40, seed=3, weighted=True, dtype=float)
            pr = gb.Vector(shape=(40,), dtype=float)
            pagerank(g, pr)

        on, _ = _counted(True, trace)
        off, _ = _counted(False, trace)
        iters = on.counts["vxm"]
        assert off.total - on.total == iters


# ----------------------------------------------------------------------
# plan structure
# ----------------------------------------------------------------------
class TestPlanIR:
    def test_shared_subexpression_evaluates_once(self):
        """Satellite fix: forcing the same expression twice reuses the
        cached container instead of re-running the kernel."""
        d = _data(np.float64)
        A = mat_from_dict(d["A"], N, N, np.float64)
        u = vec_from_dict(d["u"], N, np.float64)
        eng = CountingEngine(make_engine("interpreted"))
        with gb.use_engine(eng):
            e = A @ u
            w1 = gb.Vector(e)
            w2 = gb.Vector(e)
        assert eng.counts.get("mxv") == 1
        assert np.array_equal(w1.to_numpy(), w2.to_numpy())

    def test_plan_orders_children_before_parents(self):
        d = _data(np.float64)
        A = mat_from_dict(d["A"], N, N, np.float64)
        u = vec_from_dict(d["u"], N, np.float64)
        expr = (A @ u) * 2
        plan = Plan(expr)
        kinds = [node.kind for node in plan.order]
        assert kinds.index("mxv") < kinds.index("apply_vec")

    @pytest.mark.cpp
    @needs_cxx
    def test_materialised_producer_is_not_fused(self):
        """A producer that was already forced must not be re-executed
        inside a fused kernel (its value may be observed elsewhere)."""
        d = _data(np.float64)
        A = mat_from_dict(d["A"], N, N, np.float64)
        u = vec_from_dict(d["u"], N, np.float64)
        eng = CountingEngine(make_engine("cpp"))
        with _fusion(True), gb.use_engine(eng):
            e = A @ u
            e.nvals  # forces the producer
            out = gb.Vector(shape=(N,), dtype=float)
            out[None] = e * 2
        assert "mxv_apply" not in eng.counts
        assert eng.counts.get("apply_vec") == 1


# ----------------------------------------------------------------------
# registry coverage
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_fused_op_has_all_backends(self):
        """Each planner rule must have a C++ generator, a reference kernel
        on the interpreted engine, and (for warm-cache stamping)
        membership in PARALLEL_FUNCS."""
        from repro.backend import kernels as K

        names = {op.name for op in FUSED_OPS}
        assert names <= set(CPP_GENERATORS)
        assert names <= set(PARALLEL_FUNCS)
        for name in names:
            assert callable(getattr(K, name))

    def test_plan_rules_cover_issue_minimum(self):
        plan_rules = {op.name for op in FUSED_OPS if op.where == "plan"}
        assert {
            "mxv_apply",
            "vxm_apply",
            "ewise_add_vec_apply",
            "ewise_mult_vec_apply",
            "ewise_add_mat_apply",
            "ewise_mult_mat_apply",
            "mxm_reduce_rows",
        } <= plan_rules
