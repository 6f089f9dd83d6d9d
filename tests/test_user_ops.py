"""Tests for user-defined operators (paper Sec. VIII future work,
implemented here): registration, DSL usage on every engine, monoid
formation, validation, and test isolation via unregistration."""

import numpy as np
import pytest

import repro as gb
from repro.backend import ops_table
from repro.exceptions import UnknownOperator


@pytest.fixture
def cleanup():
    registered = []
    yield registered
    for name in registered:
        ops_table.unregister_op(name)


class TestRegistration:
    def test_define_binary(self, cleanup):
        op = gb.BinaryOp.define("TAvgOp", lambda a, b: (a + b) / 2)
        cleanup.append("TAvgOp")
        assert op.name == "TAvgOp"
        out = ops_table.apply_binary("TAvgOp", np.array([2.0]), np.array([4.0]))
        assert out[0] == 3.0

    def test_define_unary(self, cleanup):
        gb.UnaryOp.define("TSquare", lambda a: a * a)
        cleanup.append("TSquare")
        out = ops_table.apply_unary("TSquare", np.array([3.0]))
        assert out[0] == 9.0

    def test_vectorized_form(self, cleanup):
        gb.BinaryOp.define("THyp", np.hypot, vectorized=True)
        cleanup.append("THyp")
        out = ops_table.apply_binary("THyp", np.array([3.0]), np.array([4.0]))
        assert out[0] == 5.0

    def test_cannot_shadow_builtin(self):
        with pytest.raises(UnknownOperator):
            gb.BinaryOp.define("Plus", lambda a, b: a)
        with pytest.raises(UnknownOperator):
            gb.UnaryOp.define("Identity", lambda a: a)

    def test_cannot_register_twice(self, cleanup):
        gb.BinaryOp.define("TOnce", lambda a, b: a)
        cleanup.append("TOnce")
        with pytest.raises(UnknownOperator):
            gb.BinaryOp.define("TOnce", lambda a, b: b)

    def test_name_rules(self):
        with pytest.raises(UnknownOperator):
            gb.BinaryOp.define("lowercase", lambda a, b: a)
        with pytest.raises(UnknownOperator):
            gb.BinaryOp.define("Has Spaces", lambda a, b: a)

    def test_bad_kind_rejected(self):
        with pytest.raises(UnknownOperator):
            ops_table.register_binary_op("TBadKind", lambda a, b: a, kind="weird")

    def test_cannot_unregister_builtin(self):
        with pytest.raises(UnknownOperator):
            ops_table.unregister_op("Plus")

    def test_unregister_is_idempotent_for_user_ops(self, cleanup):
        gb.BinaryOp.define("TGone", lambda a, b: a)
        ops_table.unregister_op("TGone")
        ops_table.unregister_op("TGone")  # no error
        with pytest.raises(UnknownOperator):
            ops_table.binary_def("TGone")


class TestDslUsage:
    def test_ewise_with_user_op(self, cleanup, engine):
        op = gb.BinaryOp.define("TAbsDiff", lambda a, b: abs(a - b))
        cleanup.append("TAbsDiff")
        u = gb.Vector([1.0, 9.0])
        v = gb.Vector([4.0, 3.0])
        with op:
            w = gb.Vector(u + v)
        assert list(w.to_numpy()) == [3.0, 6.0]

    def test_apply_with_user_unary(self, cleanup, engine):
        op = gb.UnaryOp.define("TCube", lambda a: a**3)
        cleanup.append("TCube")
        v = gb.Vector([2.0, 3.0])
        out = gb.Vector(gb.apply(op, v))
        assert list(out.to_numpy()) == [8.0, 27.0]

    def test_user_accumulator(self, cleanup, engine):
        op = gb.BinaryOp.define("TKeepBigger", lambda a, b: a if abs(a) > abs(b) else b)
        cleanup.append("TKeepBigger")
        v = gb.Vector([5.0, -1.0])
        w = gb.Vector([-2.0, 4.0])
        with gb.Accumulator(op):
            v[None] += gb.apply(w)
        assert list(v.to_numpy()) == [5.0, 4.0]

    def test_user_monoid_semiring(self, cleanup, engine):
        ops_table.register_binary_op(
            "TSatPlus", lambda a, b: min(a + b, 100.0), associative=True
        )
        cleanup.append("TSatPlus")
        monoid = gb.Monoid("TSatPlus", 0.0)
        a = gb.Matrix([[60.0, 60.0], [1.0, 2.0]])
        u = gb.Vector([1.0, 1.0])
        with gb.Semiring(monoid, "Times"):
            w = gb.Vector(a @ u)
        assert list(w.to_numpy()) == [100.0, 3.0]  # saturated at 100

    def test_user_monoid_reduce(self, cleanup, engine):
        ops_table.register_binary_op(
            "TGcdOp", lambda a, b: int(np.gcd(int(a), int(b))), associative=True
        )
        cleanup.append("TGcdOp")
        v = gb.Vector([12, 18, 30], dtype=np.int64)
        assert gb.reduce(gb.Monoid("TGcdOp", 0), v) == 6

    def test_nonassociative_user_op_cannot_form_monoid(self, cleanup):
        gb.BinaryOp.define("TNotAssoc", lambda a, b: a - 2 * b)
        cleanup.append("TNotAssoc")
        with pytest.raises(UnknownOperator):
            gb.Monoid("TNotAssoc")


@pytest.mark.cpp
class TestCppUserOps:
    @pytest.fixture(autouse=True)
    def _need_compiler(self):
        from repro.jit.cppengine import toolchain_works

        if not toolchain_works():
            pytest.skip("no working C++ toolchain")

    def test_user_binary_on_cpp_engine(self, cleanup):
        op = gb.BinaryOp.define(
            "TCppHypot",
            lambda a, b: (a * a + b * b) ** 0.5,
            cxx="T(std::sqrt(double(({a})*({a}) + ({b})*({b}))))",
        )
        cleanup.append("TCppHypot")
        u = gb.Vector([3.0])
        v = gb.Vector([4.0])
        with gb.use_engine("cpp"), op:
            w = gb.Vector(u + v)
        assert w[0] == pytest.approx(5.0)

    def test_user_unary_on_cpp_engine(self, cleanup):
        op = gb.UnaryOp.define(
            "TCppClamp", lambda a: min(a, 1.0), cxx="((({a}) < T(1)) ? ({a}) : T(1))"
        )
        cleanup.append("TCppClamp")
        v = gb.Vector([0.5, 7.0])
        with gb.use_engine("cpp"):
            out = gb.Vector(gb.apply(op, v))
        assert list(out.to_numpy()) == [0.5, 1.0]

    def test_user_op_without_cxx_degrades_on_cpp(self, cleanup, monkeypatch):
        """A Python-only operator cannot compile to C++; the resilient
        chain degrades to the interpreted engine with a warning, and ``PYGB_JIT_STRICT=1``
        restores the raise."""
        from repro.exceptions import CompilationError, JitFallbackWarning

        op = gb.BinaryOp.define("TNoCxx", lambda a, b: a + b)
        cleanup.append("TNoCxx")
        u = gb.Vector([1.0])
        with gb.use_engine("cpp"), op:
            with pytest.warns(JitFallbackWarning):
                w = gb.Vector(u + u)
        assert w.to_numpy()[0] == 2.0
        monkeypatch.setenv("PYGB_JIT_STRICT", "1")
        with gb.use_engine("cpp"), op:
            with pytest.raises(CompilationError):
                gb.Vector(u + u)
