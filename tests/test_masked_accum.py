"""Masked accumulate-assign round-trips (``C[M, True] += expr`` et al.).

Python desugars ``C[M, replace] += expr`` into ``__getitem__`` →
``__iadd__`` → ``__setitem__``; the explicit *replace* flag (and the
mask itself) must survive that round-trip.  It used to be dropped — and
a masked view bound to a name (``mv = C[M]; mv += u``) silently did
nothing.  These tests run the fixed protocol differentially against the
interpreted engine on every backend.
"""

import numpy as np
import pytest

import repro as gb
from helpers import use_test_engine
from repro.jit.cppengine import toolchain_works

ENGINES = ["interpreted", "pyjit"] + (["cpp"] if toolchain_works() else [])


@pytest.fixture(params=ENGINES)
def any_engine(request):
    with use_test_engine(request.param):
        yield request.param


def _state():
    c = gb.Vector(([1.0, 2.0, 3.0, 4.0], [0, 1, 2, 3]), shape=(4,))
    u = gb.Vector(([10.0, 20.0, 30.0, 40.0], [0, 1, 2, 3]), shape=(4,))
    m = gb.Vector(([True, True], [0, 1]), shape=(4,), dtype=bool)
    return c, u, m


def _dense(v):
    return list(v.to_numpy())


class TestExplicitReplaceSurvivesIadd:
    def test_masked_replace_accum_expr(self, any_engine):
        # C<M,replace> += u*1.0: masked lanes accumulate, the rest clear
        c, u, m = _state()
        with gb.Accumulator("Plus"):
            c[m, True] += u * 1.0
        assert _dense(c) == [11.0, 22.0, 0.0, 0.0]

    def test_masked_replace_numpy_bool(self, any_engine):
        # np.True_ instead of the builtin True must parse identically
        c, u, m = _state()
        c[m, np.True_] = u * 1.0
        assert _dense(c) == [10.0, 20.0, 0.0, 0.0]

    def test_masked_no_replace_merges(self, any_engine):
        c, u, m = _state()
        with gb.Accumulator("Plus"):
            c[m, False] += u * 1.0
        assert _dense(c) == [11.0, 22.0, 3.0, 4.0]

    def test_default_accumulator_is_plus(self, any_engine):
        c, u, m = _state()
        c[m, True] += u * 1.0
        assert _dense(c) == [11.0, 22.0, 0.0, 0.0]


class TestNamedMaskedView:
    def test_named_view_iadd_applies(self, any_engine):
        # mv = C[M]; mv += u used to silently no-op
        c, u, m = _state()
        mv = c[m]
        with gb.Accumulator("Plus"):
            mv += u
        assert _dense(c) == [11.0, 22.0, 3.0, 4.0]

    def test_named_view_iadd_with_replace(self, any_engine):
        c, u, m = _state()
        mv = c[m, True]
        with gb.Accumulator("Plus"):
            mv += u
        assert _dense(c) == [11.0, 22.0, 0.0, 0.0]

    def test_masked_region_iadd(self, any_engine):
        # C[M][0:2] += s: accumulate a scalar into an indexed region
        c, _, m = _state()
        with gb.Accumulator("Plus"):
            c[m][0:2] += 5.0
        assert _dense(c) == [6.0, 7.0, 3.0, 4.0]

    def test_complemented_view_iadd(self, any_engine):
        c, u, m = _state()
        with gb.Accumulator("Plus"):
            c[~m] += u
        assert _dense(c) == [1.0, 2.0, 33.0, 44.0]


class TestUnmaskedProtocolUnchanged:
    def test_plain_container_iadd(self, any_engine):
        c, u, _ = _state()
        with gb.Accumulator("Plus"):
            c += u * 1.0
        assert _dense(c) == [11.0, 22.0, 33.0, 44.0]

    def test_none_key_iadd(self, any_engine):
        c, u, _ = _state()
        with gb.Accumulator("Plus"):
            c[None] += u * 1.0
        assert _dense(c) == [11.0, 22.0, 33.0, 44.0]


class TestDifferentialAgainstInterpreted:
    """The full masked/replace/accum matrix, engine vs interpreted."""

    CASES = [
        ("replace_accum", lambda c, u, m: _accum_stmt(c, (m, True), u)),
        ("merge_accum", lambda c, u, m: _accum_stmt(c, (m, False), u)),
        ("mask_only_accum", lambda c, u, m: _accum_stmt(c, m, u)),
        ("comp_replace_accum", lambda c, u, m: _accum_stmt(c, (~m, True), u)),
    ]

    @pytest.mark.parametrize("label,stmt", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("engine_name", [e for e in ENGINES if e != "interpreted"])
    def test_agrees(self, engine_name, label, stmt):
        def run():
            c, u, m = _state()
            stmt(c, u, m)
            return _dense(c)

        with gb.use_engine("interpreted"):
            expected = run()
        with use_test_engine(engine_name):
            got = run()
        assert got == pytest.approx(expected)


def _accum_stmt(c, key, u):
    with gb.Accumulator("Plus"):
        c[key] += u * 1.0
