"""Unit tests for the GBTL operator table (paper Fig. 6)."""

import numpy as np
import pytest

from repro.backend import ops_table as ot
from repro.exceptions import UnknownOperator


class TestTableContents:
    def test_all_four_unary_operators_present(self):
        assert set(ot.UNARY_OPS) == {
            "Identity",
            "AdditiveInverse",
            "LogicalNot",
            "MultiplicativeInverse",
        }

    def test_all_seventeen_binary_operators_present(self):
        # Fig. 6 lists exactly 17 binary operators
        expected = {
            "LogicalOr", "LogicalAnd", "LogicalXor", "Equal", "NotEqual",
            "GreaterThan", "LessThan", "GreaterEqual", "LessEqual",
            "Times", "Div", "First", "Second", "Min", "Max", "Plus", "Minus",
        }
        assert set(ot.BINARY_OPS) == expected
        assert len(ot.BINARY_OPS) == 17

    def test_unknown_names_raise(self):
        with pytest.raises(UnknownOperator):
            ot.binary_def("Frobnicate")
        with pytest.raises(UnknownOperator):
            ot.unary_def("Frobnicate")
        with pytest.raises(UnknownOperator):
            ot.identity_value("FrobnicateIdentity", np.float64)


class TestBinarySemantics:
    @pytest.mark.parametrize(
        "name,a,b,expected",
        [
            ("Plus", 3, 4, 7),
            ("Minus", 3, 4, -1),
            ("Times", 3, 4, 12),
            ("Min", 3, 4, 3),
            ("Max", 3, 4, 4),
            ("First", 3, 4, 3),
            ("Second", 3, 4, 4),
            ("Equal", 3, 3, True),
            ("NotEqual", 3, 4, True),
            ("GreaterThan", 3, 4, False),
            ("LessThan", 3, 4, True),
            ("GreaterEqual", 4, 4, True),
            ("LessEqual", 5, 4, False),
            ("LogicalOr", 0, 7, True),
            ("LogicalAnd", 0, 7, False),
            ("LogicalXor", 3, 7, False),
        ],
    )
    def test_scalar_application(self, name, a, b, expected):
        out = ot.apply_binary(name, np.asarray([a]), np.asarray([b]))
        assert out[0] == expected

    def test_div_floats_is_true_division(self):
        out = ot.apply_binary("Div", np.asarray([7.0]), np.asarray([2.0]))
        assert out[0] == pytest.approx(3.5)

    def test_div_ints_truncates_toward_zero(self):
        # C++ semantics: -7/2 == -3 (NumPy's // would give -4)
        out = ot.apply_binary("Div", np.asarray([-7]), np.asarray([2]))
        assert out[0] == -3

    def test_div_by_zero_ints_yields_zero(self):
        out = ot.apply_binary("Div", np.asarray([5]), np.asarray([0]))
        assert out[0] == 0

    def test_div_ints_exact_at_int64_extremes(self):
        """Integer Div never detours through float64: INT64_MAX / 1 stays
        INT64_MAX and quotients above 2**53 keep every bit."""
        big = np.iinfo(np.int64)
        a = np.array([big.max, big.min, big.max, -(2**53 + 1), 2**62 + 3, big.min])
        b = np.array([1, 1, -1, 1, 3, -1])
        want = [big.max, big.min, -big.max, -(2**53 + 1), (2**62 + 3) // 3, big.min]
        assert ot.apply_binary("Div", a, b).tolist() == want

    def test_first_second_preserve_left_right(self):
        a = np.array([1, 2, 3])
        b = np.array([9, 8, 7])
        assert list(ot.apply_binary("First", a, b)) == [1, 2, 3]
        assert list(ot.apply_binary("Second", a, b)) == [9, 8, 7]


class TestUnarySemantics:
    def test_identity(self):
        a = np.array([1.5, -2.0])
        assert list(ot.apply_unary("Identity", a)) == [1.5, -2.0]

    def test_additive_inverse(self):
        assert list(ot.apply_unary("AdditiveInverse", np.array([3, -4]))) == [-3, 4]

    def test_logical_not_coerces(self):
        out = ot.apply_unary("LogicalNot", np.array([0.0, 2.5]))
        assert list(out) == [True, False]

    def test_multiplicative_inverse_floats(self):
        out = ot.apply_unary("MultiplicativeInverse", np.array([4.0]))
        assert out[0] == pytest.approx(0.25)

    def test_multiplicative_inverse_int_zero_guard(self):
        out = ot.apply_unary("MultiplicativeInverse", np.array([0, 2]))
        assert list(out) == [0, 0]


class TestIdentities:
    @pytest.mark.parametrize(
        "name,dtype,expected",
        [
            ("PlusIdentity", np.float64, 0.0),
            ("TimesIdentity", np.int32, 1),
            ("MinIdentity", np.float64, np.inf),
            ("MaxIdentity", np.float64, -np.inf),
            ("MinIdentity", np.int16, np.iinfo(np.int16).max),
            ("MaxIdentity", np.int16, np.iinfo(np.int16).min),
            ("MinIdentity", np.bool_, True),
            ("MaxIdentity", np.bool_, False),
            ("LogicalOrIdentity", np.bool_, False),
            ("LogicalAndIdentity", np.bool_, True),
            ("LogicalXorIdentity", np.bool_, False),
            ("EqualIdentity", np.bool_, True),
        ],
    )
    def test_named_identity_values(self, name, dtype, expected):
        assert ot.identity_value(name, dtype) == expected

    def test_literal_identity_passthrough(self):
        assert ot.identity_value(5, np.int64) == 5

    def test_identity_is_neutral_for_its_monoid(self):
        for op, ident_name in ot.DEFAULT_IDENTITY_NAME.items():
            for dtype in (np.int64, np.float64):
                ident = ot.identity_value(ident_name, dtype)
                for x in (np.dtype(dtype).type(3), np.dtype(dtype).type(0)):
                    got = ot.apply_binary(op, np.asarray([ident]), np.asarray([x]))
                    coerced = bool(x) if ot.binary_def(op).kind in ("logical",) else x
                    expected = (
                        bool(x)
                        if ot.binary_def(op).kind == "logical"
                        else (x == ident if op == "Equal" else coerced)
                    )
                    if op == "Equal":
                        continue  # Equal's monoid is over bools only
                    assert got[0] == expected, (op, dtype, x)


class TestResultDtypes:
    def test_comparisons_yield_bool(self):
        assert ot.binary_result_dtype("Equal", np.int64, np.int64) == np.bool_
        assert ot.binary_result_dtype("LessThan", np.float32, np.float64) == np.bool_

    def test_logical_ops_yield_bool(self):
        assert ot.binary_result_dtype("LogicalOr", np.int64, np.int64) == np.bool_

    def test_arith_promotes(self):
        assert ot.binary_result_dtype("Plus", np.int32, np.float32) == np.float64
        assert ot.binary_result_dtype("Times", np.int8, np.int64) == np.int64

    def test_bool_arith_promotes_to_int64(self):
        assert ot.binary_result_dtype("Plus", np.bool_, np.bool_) == np.int64

    def test_first_second_take_operand_dtype(self):
        assert ot.binary_result_dtype("First", np.int8, np.float64) == np.int8
        assert ot.binary_result_dtype("Second", np.int8, np.float64) == np.float64


class TestReduce:
    def test_nonassociative_ops_cannot_reduce(self):
        with pytest.raises(UnknownOperator):
            ot.reduce_ufunc("Minus")
        with pytest.raises(UnknownOperator):
            ot.reduce_ufunc("First")

    def test_monoid_ops_reduce(self):
        for op in ("Plus", "Times", "Min", "Max", "LogicalOr", "LogicalAnd", "LogicalXor"):
            assert ot.reduce_ufunc(op) is not None

    def test_segment_reduce_values(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        starts = np.array([0, 2, 3])
        out = ot.segment_reduce_values("Plus", vals, starts)
        assert list(out) == [3.0, 3.0, 9.0]

    def test_segment_reduce_min(self):
        vals = np.array([5, 1, 7, 2])
        out = ot.segment_reduce_values("Min", vals, np.array([0, 2]))
        assert list(out) == [1, 2]

    def test_segment_reduce_logical_coerces(self):
        vals = np.array([0.0, 2.0, 0.0])
        out = ot.segment_reduce_values("LogicalOr", vals, np.array([0, 2]))
        assert list(out) == [True, False]
