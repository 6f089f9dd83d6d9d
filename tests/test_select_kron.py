"""Tests for the ``select`` and ``kronecker`` operations."""

import numpy as np
import pytest

import repro as gb
from repro.exceptions import InvalidValue, UnknownOperator
from repro.jit.cppengine import toolchain_works

from helpers import mat_from_dict, random_mat_dict


@pytest.fixture
def A(engine):
    return gb.Matrix([[1.0, -2.0, 0.0], [3.0, 4.0, -5.0], [0.0, 6.0, 7.0]])


class TestSelectPositional:
    def test_tril(self, A):
        L = gb.Matrix(gb.select("Tril", A))
        rows, cols, _ = L.to_coo()
        assert (cols <= rows).all()
        assert L.nvals == 6  # entries on/below the diagonal (incl. stored 0s)

    def test_tril_strict_via_thunk(self, A):
        L = gb.Matrix(gb.select("Tril", A, -1))
        rows, cols, _ = L.to_coo()
        assert (cols < rows).all()

    def test_triu(self, A):
        U = gb.Matrix(gb.select("Triu", A, 1))
        rows, cols, _ = U.to_coo()
        assert (cols > rows).all()

    def test_tril_plus_triu_partitions(self, A):
        L = gb.Matrix(gb.select("Tril", A))
        U = gb.Matrix(gb.select("Triu", A, 1))
        assert L.nvals + U.nvals == A.nvals

    def test_diag_and_offdiag(self, A):
        D = gb.Matrix(gb.select("Diag", A))
        rows, cols, _ = D.to_coo()
        assert (rows == cols).all()
        O = gb.Matrix(gb.select("Offdiag", A))
        assert D.nvals + O.nvals == A.nvals

    def test_diag_with_offset(self, A):
        D = gb.Matrix(gb.select("Diag", A, 1))
        assert D.nvals == 2 and D[0, 1] == -2.0 and D[1, 2] == -5.0

    def test_positional_rejected_on_vectors(self, engine):
        v = gb.Vector([1.0, 2.0])
        with pytest.raises(UnknownOperator):
            gb.Vector(gb.select("Tril", v))


class TestSelectValued:
    def test_nonzero_drops_stored_zeros(self, A):
        nz = gb.Matrix(gb.select("NonZero", A))
        assert nz.nvals == 7  # two stored zeros dropped
        _, _, vals = nz.to_coo()
        assert (vals != 0).all()

    @pytest.mark.parametrize(
        "op,thunk,expect",
        [
            ("ValueGT", 3.0, {4.0, 6.0, 7.0}),
            ("ValueGE", 4.0, {4.0, 6.0, 7.0}),
            ("ValueLT", 0.0, {-2.0, -5.0}),
            ("ValueLE", 0.0, {-2.0, -5.0, 0.0}),
            ("ValueEQ", 4.0, {4.0}),
        ],
    )
    def test_value_predicates(self, A, op, thunk, expect):
        out = gb.Matrix(gb.select(op, A, thunk))
        assert set(out.to_coo()[2].tolist()) == expect

    def test_value_ne(self, A):
        out = gb.Matrix(gb.select("ValueNE", A, 0.0))
        assert out.nvals == 7

    def test_vector_select(self, engine):
        v = gb.Vector([5.0, 0.0, -3.0, 8.0])
        big = gb.Vector(gb.select("ValueGT", v, 0.0))
        assert big.to_dict() if hasattr(big, "to_dict") else True
        idx, vals = big.to_coo()
        assert list(idx) == [0, 3] and list(vals) == [5.0, 8.0]

    def test_unknown_select_op(self, A):
        with pytest.raises(InvalidValue):
            gb.select("Weird", A)

    def test_select_with_mask_and_assignment(self, A, engine):
        C = gb.Matrix([[9.0, 9.0, 9.0]] * 3)
        mask = gb.Matrix(
            ([True] * 3, ([0, 1, 2], [0, 1, 2])), shape=(3, 3), dtype=bool
        )
        C[mask] = gb.select("NonZero", A)
        # diagonal of A: 1, 4, 7 (all nonzero) land under the mask
        assert C[0, 0] == 1.0 and C[1, 1] == 4.0 and C[2, 2] == 7.0
        assert C[0, 1] == 9.0  # outside mask untouched

    def test_select_transposed(self, A, engine):
        L = gb.Matrix(gb.select("Tril", gb.Matrix(A.T), -1))
        U = gb.Matrix(gb.select("Triu", A, 1))
        rows_l, cols_l, _ = L.to_coo()
        assert {(r, c) for r, c in zip(rows_l, cols_l)} == {
            (c, r) for r, c in zip(*U.to_coo()[:2])
        }


class TestLowerTriangleUsesSelectSemantics:
    def test_consistency_with_algorithm_helper(self, engine):
        from repro.algorithms import lower_triangle

        A = gb.Matrix(
            (np.ones(4), ([0, 1, 1, 2], [1, 0, 2, 1])), shape=(3, 3), dtype=int
        )
        via_helper = lower_triangle(A)
        via_select = gb.Matrix(gb.select("Tril", A, -1))
        assert via_helper.isequal(via_select)


class TestKronecker:
    def test_matches_numpy_kron(self, engine, rng):
        a = mat_from_dict(random_mat_dict(rng, 4, 3), 4, 3)
        b = mat_from_dict(random_mat_dict(rng, 2, 5), 2, 5)
        K = gb.Matrix(gb.kron(a, b))
        assert K.shape == (8, 15)
        assert np.allclose(K.to_numpy(), np.kron(a.to_numpy(), b.to_numpy()))

    def test_kron_with_identity_grows_block_diagonal(self, engine):
        eye = gb.Matrix(([1.0, 1.0], ([0, 1], [0, 1])), shape=(2, 2))
        b = gb.Matrix([[1.0, 2.0], [3.0, 4.0]])
        K = gb.Matrix(gb.kron(eye, b))
        expect = np.kron(np.eye(2), b.to_numpy())
        assert np.allclose(K.to_numpy(), expect)

    def test_kron_custom_op(self, engine):
        a = gb.Matrix([[2.0, 8.0]])
        b = gb.Matrix([[4.0]])
        K = gb.Matrix(gb.kron(a, b, op="Min"))
        assert list(K.to_numpy()[0]) == [2.0, 4.0]

    def test_kron_op_from_context(self, engine):
        a = gb.Matrix([[2.0]])
        b = gb.Matrix([[5.0]])
        with gb.BinaryOp("Plus"):
            K = gb.Matrix(gb.kron(a, b))
        assert K[0, 0] == 7.0

    def test_kron_empty_operand(self, engine):
        a = gb.Matrix(shape=(2, 2), dtype=float)
        b = gb.Matrix([[1.0]])
        K = gb.Matrix(gb.kron(a, b))
        assert K.shape == (2, 2) and K.nvals == 0

    def test_rmat_style_growth(self, engine):
        # Kronecker powers of a seed adjacency generate Graph500-style graphs
        seed = gb.Matrix(
            ([1.0, 1.0, 1.0], ([0, 0, 1], [0, 1, 0])), shape=(2, 2)
        )  # sparse build: no stored zeros
        g = seed
        for _ in range(3):
            g = gb.Matrix(gb.kron(g, seed))
        assert g.shape == (16, 16)
        assert g.nvals == 3**4  # nnz multiplies per power

    @pytest.mark.cpp
    @pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain")
    def test_kron_engines_agree(self, rng):
        a = mat_from_dict(random_mat_dict(rng, 3, 3), 3, 3)
        b = mat_from_dict(random_mat_dict(rng, 3, 3), 3, 3)
        outs = []
        for name in ("interpreted", "cpp"):
            with gb.use_engine(name):
                outs.append(gb.Matrix(gb.kron(a, b)).to_numpy())
        assert np.array_equal(outs[0], outs[1])
