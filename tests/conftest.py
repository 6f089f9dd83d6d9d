"""Shared test fixtures.

The JIT disk cache is pointed at a repo-local directory (kept across test
runs so the C++ artifacts amortise, exactly as the paper intends for its
compilation cache).  The ``engine`` fixture runs DSL-level tests on the
interpreted engine and on the cpp stack of a host without a working
compiler (id ``pyjit``); C++-engine tests live in ``test_cpp_engine.py``
and the differential suites behind the ``cpp`` marker.
"""

from __future__ import annotations

import os
from pathlib import Path

# must be set before `repro` is imported anywhere
os.environ.setdefault(
    "PYGB_CACHE_DIR", str(Path(__file__).resolve().parent.parent / ".pygb_cache")
)

import numpy as np
import pytest

import repro as gb
from helpers import use_test_engine


@pytest.fixture(params=["interpreted", "pyjit"])
def engine(request):
    """Run the test body on the interpreted engine and on ``pyjit``, the
    cpp stack of a host whose compiler fails every build (see
    :func:`helpers.no_compiler_engine`).  Yields the name the active
    engine reports in spans and errors (``cpp`` for ``pyjit``)."""
    with use_test_engine(request.param) as active:
        yield active.name


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_graph():
    """The 7-vertex graph of the paper's Fig. 1 (directed edges)."""
    edges = [(0, 1), (0, 3), (1, 4), (1, 6), (2, 5), (3, 0), (3, 2),
             (4, 5), (5, 2), (6, 2), (6, 3), (6, 4)]
    rows = [e[0] for e in edges]
    cols = [e[1] for e in edges]
    return gb.Matrix((np.ones(len(edges)), (rows, cols)), shape=(7, 7), dtype=np.int64)


@pytest.fixture
def no_faults(monkeypatch):
    """Opt a counter-exact test out of ambient chaos injection.

    The chaos CI leg runs the whole suite under ``PYGB_FAULT=...``; the
    guardrail ladder keeps every *result* bit-identical, but tests that
    assert exact tiling/dispatch counters would observe the (correct)
    degrade-to-monolithic bookkeeping instead."""
    from repro import guard
    from repro.testing.faults import FAULTS

    monkeypatch.delenv("PYGB_FAULT", raising=False)
    FAULTS.clear()
    # earlier chaos-injected failures may have quarantined tiling for
    # some op signatures; counter-exact tests need the fan-out live
    guard.tiling_health().reset()
    yield
