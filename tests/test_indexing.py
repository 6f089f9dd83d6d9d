"""Subscript semantics, differentially across engines (property-style).

Random subscripts — negative, out-of-range, empty, duplicated, unsorted,
sliced — must produce *identical results or identical exceptions* on
every engine, for both extract (``v[idx]``) and assign (``v[idx] = s``).
Out-of-range indices must raise :class:`IndexOutOfBounds` at parse time
on every engine (the C++ engine used to read/write out of bounds
silently — the bug this suite pins down).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as gb
from helpers import use_test_engine
from repro.jit.cppengine import toolchain_works

N = 6

ENGINES = ["interpreted", "pyjit"] + (["cpp"] if toolchain_works() else [])


@st.composite
def subscript(draw):
    """A random 1-D subscript: int, slice, or integer array — any of
    which may be negative, out of range, empty, duplicated or unsorted."""
    kind = draw(st.sampled_from(["int", "slice", "array"]))
    if kind == "int":
        return draw(st.integers(-N - 2, N + 2))
    if kind == "slice":
        lo = draw(st.one_of(st.none(), st.integers(-N - 2, N + 2)))
        hi = draw(st.one_of(st.none(), st.integers(-N - 2, N + 2)))
        step = draw(st.sampled_from([None, 1, 2, -1]))
        return slice(lo, hi, step)
    size = draw(st.integers(0, 2 * N))
    return draw(
        st.lists(st.integers(-N - 2, N + 2), min_size=size, max_size=size)
    )


@st.composite
def vector_entries(draw):
    n = draw(st.integers(0, N))
    idx = draw(st.lists(st.integers(0, N - 1), min_size=n, max_size=n, unique=True))
    vals = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    return sorted(zip(idx, vals))


def _vector(entries):
    return gb.Vector(
        ([v for _, v in entries], [i for i, _ in entries]), shape=(N,), dtype=np.int64
    )


def _normalise(obj):
    """Comparable snapshot of an extract/assign result."""
    store = getattr(obj, "_store", None)
    if store is not None:
        return ("container", obj.shape, store.to_dict())
    return ("scalar", obj)


def _outcome(fn):
    """(result, None) on success, (None, exception type name) on error —
    gb-level exceptions only; anything else is a real bug and propagates."""
    try:
        return _normalise(fn()), None
    except gb.GraphBLASError as exc:
        return None, type(exc).__name__


def _extract(entries, sub):
    v = _vector(entries)
    return _outcome(lambda: v[sub].new() if hasattr(v[sub], "new") else v[sub])


def _assign(entries, sub):
    def run():
        v = _vector(entries)
        v[sub] = 7
        return v

    return _outcome(run)


class TestSubscriptFuzz:
    @settings(max_examples=120, deadline=None)
    @given(entries=vector_entries(), sub=subscript())
    def test_extract_agrees_across_engines(self, entries, sub):
        outcomes = {}
        for name in ENGINES:
            with use_test_engine(name):
                outcomes[name] = _extract(entries, sub)
        baseline = outcomes["interpreted"]
        for name, got in outcomes.items():
            assert got == baseline, f"{name} disagrees with interpreted on {sub!r}"

    @settings(max_examples=120, deadline=None)
    @given(entries=vector_entries(), sub=subscript())
    def test_assign_agrees_across_engines(self, entries, sub):
        outcomes = {}
        for name in ENGINES:
            with use_test_engine(name):
                outcomes[name] = _assign(entries, sub)
        baseline = outcomes["interpreted"]
        for name, got in outcomes.items():
            assert got == baseline, f"{name} disagrees with interpreted on {sub!r}"


@pytest.fixture(params=ENGINES)
def any_engine(request):
    with use_test_engine(request.param):
        yield request.param


class TestOutOfBounds:
    """Explicit parse-time bounds checks (every engine, extract+assign)."""

    def test_vector_extract_positive_oob(self, any_engine):
        v = _vector([(0, 1), (1, 2)])
        with pytest.raises(gb.IndexOutOfBounds):
            v[[0, N]].new()

    def test_vector_extract_negative_oob(self, any_engine):
        v = _vector([(0, 1), (1, 2)])
        with pytest.raises(gb.IndexOutOfBounds):
            v[[-N - 1]].new()

    def test_vector_assign_oob(self, any_engine):
        v = _vector([(0, 1)])
        with pytest.raises(gb.IndexOutOfBounds):
            v[[1, N + 3]] = 5

    def test_vector_scalar_subscript_oob(self, any_engine):
        v = _vector([(0, 1)])
        with pytest.raises(gb.IndexOutOfBounds):
            v[N]
        with pytest.raises(gb.IndexOutOfBounds):
            v[-N - 1]

    def test_matrix_extract_oob(self, any_engine):
        a = gb.Matrix(([1.0, 2.0], ([0, 1], [1, 0])), shape=(3, 3))
        with pytest.raises(gb.IndexOutOfBounds):
            a[[0, 3], [0, 1]].new()
        with pytest.raises(gb.IndexOutOfBounds):
            a[[0, 1], [0, -4]].new()

    def test_matrix_assign_oob(self, any_engine):
        a = gb.Matrix(([1.0], ([0], [0])), shape=(3, 3))
        with pytest.raises(gb.IndexOutOfBounds):
            a[[0, 5], [0, 1]] = 9.0

    def test_negative_indices_resolve(self, any_engine):
        """In-range negative indices wrap (numpy semantics), not raise."""
        v = _vector([(i, i + 1) for i in range(N)])
        out = v[[-1, -N]].new()
        assert out._store.to_dict() == {0: N, 1: 1}

    def test_message_names_offending_index(self, any_engine):
        v = _vector([(0, 1)])
        with pytest.raises(gb.IndexOutOfBounds, match=str(N + 4)):
            v[[N + 4]]
