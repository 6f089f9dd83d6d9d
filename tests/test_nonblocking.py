"""Nonblocking execution mode: differential fuzz + targeted hazard tests.

The core correctness statement: any program run under ``gb.nonblocking()``
produces bit-identical container state to the same program run in blocking
mode, on every engine.  A seeded fuzzer generates randomized statement
sequences (masked/accumulated writes, aliased ``A[None] = A @ A``,
copies, scalar fills, mid-program observations) and compares the exact
final store dicts and dtypes between modes.

Targeted tests cover each queue mechanism individually: flush triggers,
dead-store elimination, copy elision, cross-statement substitution, WAR
force-evaluation, the queue cap, ``PYGB_MODE``, and the observability
events the queue emits.
"""

from __future__ import annotations

import contextlib
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import repro as gb
from repro.core.dispatch import CountingEngine, make_engine
from repro.core.nonblocking import (
    _st,
    pending,
    reset_stats,
    set_mode,
    stats,
)
from repro.jit.cppengine import toolchain_works

N = 8


@pytest.fixture(autouse=True)
def _force_blocking_default():
    """These tests compare the two modes explicitly, so the process-wide
    default must be blocking even when the suite itself runs under
    ``PYGB_MODE=nonblocking`` (the CI nonblocking leg)."""
    set_mode("blocking")
    yield
    set_mode("blocking")


_BINOPS = ["Plus", "Minus", "Times", "Min", "Max", "First", "Second"]
_SEMIRINGS = [("Plus", "Times"), ("Min", "Plus"), ("Max", "First")]


# ----------------------------------------------------------------------
# fuzz program generation / execution
# ----------------------------------------------------------------------

def _gen_program(seed: int) -> list[dict]:
    """A randomized statement sequence over matrices A, B and vectors
    x, y, w (all int64), exercising every enqueue path."""
    rnd = random.Random(seed)
    kinds = [
        "vec_ewise",        # w[None] = x + y / x * y (varying op)
        "vec_ewise_masked",  # w[key] = x + y (mask/comp/replace/accum grid)
        "mxv", "vxm",        # w[None] = A @ x / x @ A (semiring grid)
        "mat_aliased",       # A[None] = A @ A
        "mat_ewise",         # B[None] = A + B
        "self_ewise",        # w[None] = w + w
        "vec_copy",          # w[:] = x
        "mat_copy",          # B[None] = A
        "scalar_fill",       # w[key] = c (masked and unmasked)
        "apply",             # w[None] = gb.apply(UnaryOp, x)
        "select",            # w[None] = gb.select("ValueGT", x, c)
        "observe",           # read w.nvals mid-program
        "reduce",            # scalar = gb.reduce(monoid, w) — observation
    ]
    steps = []
    for _ in range(rnd.randint(4, 12)):
        steps.append(
            dict(
                kind=rnd.choice(kinds),
                op=rnd.choice(_BINOPS),
                semiring=rnd.choice(_SEMIRINGS),
                masked=rnd.random() < 0.5,
                comp=rnd.random() < 0.5,
                replace=rnd.random() < 0.5,
                accum=rnd.choice([None, None, "Plus", "Min"]),
                const=rnd.randint(-3, 3),
            )
        )
    return steps


def _fresh_state(seed: int):
    rnd = np.random.default_rng(seed)

    def vec():
        idx = np.flatnonzero(rnd.random(N) < 0.6)
        return gb.Vector(
            (rnd.integers(-8, 8, idx.size), idx), shape=(N,), dtype=np.int64
        )

    def mat():
        flat = np.flatnonzero(rnd.random(N * N) < 0.35)
        return gb.Matrix(
            (rnd.integers(-8, 8, flat.size), (flat // N, flat % N)),
            shape=(N, N),
            dtype=np.int64,
        )

    return mat(), mat(), vec(), vec(), vec()


def _run_program(steps, seed: int, nonblocking: bool) -> tuple:
    a, b, x, y, w = _fresh_state(seed)
    mask = gb.Vector(([True] * 3, [0, 3, 6]), shape=(N,), dtype=bool)
    observations = []

    def key_for(s):
        if not s["masked"]:
            return None
        return (~mask if s["comp"] else mask, s["replace"])

    def write(target, s, expr):
        key = key_for(s)
        if s["accum"]:
            with gb.Accumulator(s["accum"]):
                if key is None:
                    target[None] = _accum(expr)
                else:
                    target.__setitem__(key, _accum(expr))
        elif key is None:
            target[None] = expr
        else:
            target[key] = expr

    ctx = gb.nonblocking() if nonblocking else contextlib.nullcontext()
    with ctx:
        for s in steps:
            sr = gb.Semiring(gb.Monoid(s["semiring"][0]), s["semiring"][1])
            if s["kind"] == "vec_ewise":
                with gb.BinaryOp(s["op"]):
                    w[None] = x + y if s["const"] % 2 else x * y
            elif s["kind"] == "vec_ewise_masked":
                with gb.BinaryOp(s["op"]):
                    write(w, s, x + y)
            elif s["kind"] == "mxv":
                with sr:
                    write(w, s, a @ x)
            elif s["kind"] == "vxm":
                with sr:
                    write(w, s, x @ a)
            elif s["kind"] == "mat_aliased":
                with sr:
                    a[None] = a @ a
            elif s["kind"] == "mat_ewise":
                with gb.BinaryOp(s["op"]):
                    b[None] = a + b
            elif s["kind"] == "self_ewise":
                with gb.BinaryOp(s["op"]):
                    w[None] = w + w
            elif s["kind"] == "vec_copy":
                w[:] = x
            elif s["kind"] == "mat_copy":
                b[None] = a
            elif s["kind"] == "scalar_fill":
                write(w, s, s["const"])
            elif s["kind"] == "apply":
                w[None] = gb.apply(gb.UnaryOp("Plus", s["const"]), x)
            elif s["kind"] == "select":
                w[None] = gb.select("ValueGT", x, s["const"])
            elif s["kind"] == "observe":
                observations.append(w.nvals)
            else:  # reduce
                observations.append(gb.reduce(gb.Monoid("Plus"), w))
            # rotate so later statements consume earlier results
            x, y = y, x
    assert pending() == 0  # leaving the context must have flushed
    return (
        {n: (c._store.to_dict(), str(c.dtype)) for n, c in
         [("a", a), ("b", b), ("x", x), ("y", y), ("w", w)]},
        observations,
    )


def _accum(expr):
    from repro.core.masks import AccumExpr

    return AccumExpr(expr)


@pytest.mark.parametrize("seed", range(30))
def test_fuzz_nonblocking_matches_blocking(engine, seed):
    steps = _gen_program(seed)
    blocking = _run_program(steps, seed, nonblocking=False)
    deferred = _run_program(steps, seed, nonblocking=True)
    assert blocking == deferred


@pytest.mark.cpp
@pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain")
@pytest.mark.parametrize("seed", range(8))
def test_fuzz_nonblocking_matches_blocking_cpp(seed):
    steps = _gen_program(seed)
    with gb.use_engine("cpp"):
        blocking = _run_program(steps, seed, nonblocking=False)
        deferred = _run_program(steps, seed, nonblocking=True)
    assert blocking == deferred


# ----------------------------------------------------------------------
# flush triggers
# ----------------------------------------------------------------------

def _vecs():
    u = gb.Vector(([1.0, 2.0, 3.0], [0, 2, 5]), shape=(N,), dtype=float)
    v = gb.Vector(([4.0, 5.0], [2, 6]), shape=(N,), dtype=float)
    w = gb.Vector(shape=(N,), dtype=float)
    return u, v, w


def test_statements_defer_until_context_exit(engine):
    u, v, w = _vecs()
    with gb.nonblocking():
        w[None] = u + v
        assert pending() == 1
        assert w._backing.nvals == 0  # not executed yet
    assert pending() == 0
    assert w._store.to_dict() == {0: 1.0, 2: 6.0, 5: 3.0, 6: 5.0}


def test_observation_flushes(engine):
    u, v, w = _vecs()
    with gb.nonblocking():
        w[None] = u + v
        assert w.nvals == 4  # nvals is an observation → flush
        assert pending() == 0


def test_wait_flushes(engine):
    u, v, w = _vecs()
    with gb.nonblocking():
        w[None] = u + v
        gb.wait()
        assert pending() == 0
        assert w._backing.nvals == 4


def test_flush_on_exception_unwind(engine):
    u, v, w = _vecs()
    with pytest.raises(RuntimeError):
        with gb.nonblocking():
            w[None] = u + v
            raise RuntimeError("boom")
    # statements issued before the raise still ran, like blocking mode
    assert pending() == 0
    assert w._backing.nvals == 4


def test_queue_cap_triggers_flush(engine):
    u, v, w = _vecs()
    st = _st()
    old_cap = st.queue.max_len
    st.queue.max_len = 3
    try:
        with gb.nonblocking():
            with gb.BinaryOp("Plus"):
                w[None] = u + v
                w[None] = u + v
                assert pending() == 2
                w[None] = u + v  # hits the cap
                assert pending() == 0
    finally:
        st.queue.max_len = old_cap


def test_nested_contexts_flush_only_at_outer_exit(engine):
    u, v, w = _vecs()
    with gb.nonblocking():
        with gb.nonblocking():
            w[None] = u + v
        # inner exit flushes (context-exit is unconditional, like GrB_wait)
        assert pending() == 0
        w[None] = v + u
        assert pending() == 1
    assert pending() == 0


# ----------------------------------------------------------------------
# queue optimisations, verified via dispatch counts
# ----------------------------------------------------------------------

@contextlib.contextmanager
def _counting(engine_name="interpreted"):
    eng = CountingEngine(make_engine(engine_name))
    with gb.use_engine(eng):
        yield eng


def test_dead_store_elimination(engine):
    u, v, w = _vecs()
    reset_stats()
    with _counting() as eng:
        with gb.nonblocking():
            with gb.BinaryOp("Plus"):
                w[None] = u + v  # dead: overwritten before any read
                w[None] = u * v
    assert stats()["dead_stores"] == 1
    assert sum(eng.counts.values()) == 1  # only the surviving statement ran
    assert w._store.to_dict() == {2: 6.0}


def test_dead_store_kept_when_observed(engine):
    u, v, w = _vecs()
    reset_stats()
    with gb.nonblocking():
        with gb.BinaryOp("Plus"):
            w[None] = u + v
            first = w.nvals  # observation: the first write must execute
            w[None] = u * v
    assert first == 4
    assert stats()["dead_stores"] == 0
    assert w._store.to_dict() == {2: 6.0}


def test_copy_elision_zero_dispatch(engine):
    u, _, w = _vecs()
    reset_stats()
    with _counting() as eng:
        with gb.nonblocking():
            w[:] = u
    assert stats()["copy_elisions"] == 1
    assert sum(eng.counts.values()) == 0  # store aliasing, no kernel
    assert w._store.to_dict() == u._store.to_dict()
    # backend stores are immutable-by-convention, so aliasing is safe: a
    # subsequent write to w rebinds, never mutates u's store
    with gb.BinaryOp("Plus"):
        w[None] = w + w
    assert u._store.to_dict() == {0: 1.0, 2: 2.0, 5: 3.0}


def test_copy_elision_requires_equal_dtype(engine):
    u, _, _ = _vecs()
    w = gb.Vector(shape=(N,), dtype=np.int64)
    reset_stats()
    with gb.nonblocking():
        w[:] = u  # float → int: must replay the blocking cast kernel
    assert stats()["copy_elisions"] == 0
    assert str(w.dtype) == "int64"
    assert w._store.to_dict() == {0: 1, 2: 2, 5: 3}


@pytest.mark.cpp
@pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain")
def test_cross_statement_substitution_fuses(engine, monkeypatch):
    """t = u + v; w = apply(t); t = overwritten — the consumer stitches the
    producer's tree, the producer dies, and one fused kernel runs."""
    monkeypatch.setenv("PYGB_FUSION", "1")
    u, v, w = _vecs()
    t = gb.Vector(shape=(N,), dtype=float)
    reset_stats()
    with _counting("cpp") as eng:
        with gb.nonblocking():
            with gb.BinaryOp("Plus"):
                t[None] = u + v
                w[None] = gb.apply(gb.UnaryOp("Times", 2.0), t)
                t[None] = u * v  # kills the first write of t
    st = stats()
    assert st["substitutions"] == 1
    assert st["dead_stores"] == 1
    assert sum(eng.counts.values()) == 2  # fused add+apply, then the mult
    assert eng.counts.get("ewise_add_vec_apply", 0) == 1
    assert w._store.to_dict() == {0: 2.0, 2: 12.0, 5: 6.0, 6: 10.0}
    assert t._store.to_dict() == {2: 6.0}


def test_war_hazard_forces_producer_eval(engine):
    """Producer → input overwrite → consumer stitch → producer kill: the
    dead producer must be force-evaluated at its own queue position, or the
    consumer's stitched tree would read the post-overwrite input."""

    def run(nonblocking):
        u, v, _ = _vecs()
        t = gb.Vector(shape=(N,), dtype=float)
        w = gb.Vector(shape=(N,), dtype=float)
        ctx = gb.nonblocking() if nonblocking else contextlib.nullcontext()
        with ctx:
            with gb.BinaryOp("Plus"):
                t[None] = u + v            # producer reads u
                u[:] = 0.0                 # WAR: pending overwrite of u
                w[None] = gb.apply(gb.UnaryOp("Times", 2.0), t)  # consumer
                t[None] = v * v            # WAW: kills the producer
        return w._store.to_dict(), t._store.to_dict(), u._store.to_dict()

    reset_stats()
    blocking = run(False)
    deferred = run(True)
    assert blocking == deferred
    assert stats()["forced_evals"] == 1


def test_war_after_consumer_resolved_in_order(engine):
    """Producer → consumer → input overwrite → kill: in-order replay already
    evaluates the consumer before the overwrite lands, so no force-eval is
    needed — but results must still match blocking mode exactly."""

    def run(nonblocking):
        u, v, _ = _vecs()
        t = gb.Vector(shape=(N,), dtype=float)
        w = gb.Vector(shape=(N,), dtype=float)
        ctx = gb.nonblocking() if nonblocking else contextlib.nullcontext()
        with ctx:
            with gb.BinaryOp("Plus"):
                t[None] = u + v
                w[None] = gb.apply(gb.UnaryOp("Times", 2.0), t)
                u[:] = 0.0
                t[None] = v * v
        return w._store.to_dict(), t._store.to_dict(), u._store.to_dict()

    assert run(False) == run(True)


def test_war_hazard_through_stitched_chain(engine):
    """Reads are inherited through chains of stitched producers, so a
    two-deep chain whose leaf input is overwritten mid-queue still replays
    like blocking mode."""

    def run(nonblocking):
        u, v, _ = _vecs()
        t1 = gb.Vector(shape=(N,), dtype=float)
        t2 = gb.Vector(shape=(N,), dtype=float)
        w = gb.Vector(shape=(N,), dtype=float)
        ctx = gb.nonblocking() if nonblocking else contextlib.nullcontext()
        with ctx:
            with gb.BinaryOp("Plus"):
                t1[None] = u + v                                  # leaf reads u
                t2[None] = gb.apply(gb.UnaryOp("Plus", 1.0), t1)  # stitches t1
                u[:] = 0.0                                        # overwrite leaf input
                w[None] = gb.apply(gb.UnaryOp("Times", 2.0), t2)  # stitches t2
                t2[None] = v * v                                  # kill middle
                t1[None] = v * v                                  # kill leaf
        return (w._store.to_dict(), t1._store.to_dict(),
                t2._store.to_dict(), u._store.to_dict())

    assert run(False) == run(True)


def test_raw_through_copy_of_pending_expr(engine):
    """Copying a container whose pending write is an expression shares the
    expression, so the copy survives the source being overwritten."""
    u, v, w = _vecs()
    t = gb.Vector(shape=(N,), dtype=float)
    with gb.nonblocking():
        with gb.BinaryOp("Plus"):
            t[None] = u + v
            w[:] = t          # copy of a pending expr result
            t[None] = u * v   # overwrite the source before any flush
    assert w._store.to_dict() == {0: 1.0, 2: 6.0, 5: 3.0, 6: 5.0}
    assert t._store.to_dict() == {2: 6.0}


def test_masked_accum_replace_differential(engine):
    """The opaque-thunk path: masked + accumulated + replace writes are
    replayed verbatim with a frozen descriptor."""

    def run(nonblocking):
        u, v, w = _vecs()
        w[None] = gb.apply(gb.UnaryOp("Plus", 10.0), u)
        mask = gb.Vector(([True, True], [2, 5]), shape=(N,), dtype=bool)
        ctx = gb.nonblocking() if nonblocking else contextlib.nullcontext()
        with ctx:
            with gb.BinaryOp("Plus"):
                with gb.Accumulator("Plus"):
                    w.__setitem__((mask, True), _accum(u + v))
        return w._store.to_dict()

    assert run(False) == run(True)


def test_replace_flag_frozen_at_statement(engine):
    """A descriptor context exited before the flush must still apply: the
    SetKey is frozen at enqueue time."""

    def run(nonblocking):
        u, v, w = _vecs()
        w[None] = gb.apply(gb.UnaryOp("Plus", 10.0), u)
        mask = gb.Vector(([True, True], [2, 5]), shape=(N,), dtype=bool)
        ctx = gb.nonblocking() if nonblocking else contextlib.nullcontext()
        with ctx:
            with gb.BinaryOp("Plus"):
                with gb.Replace:
                    w[mask] = u + v
                # Replace context has exited; the deferred write must not
                # see the current (non-replace) context at flush time
        return w._store.to_dict()

    assert run(False) == run(True)


def test_aliased_matrix_squaring(engine):
    def run(nonblocking):
        m = gb.Matrix(([1.0, 2.0, 3.0], ([0, 1, 2], [1, 2, 0])),
                      shape=(3, 3), dtype=float)
        ctx = gb.nonblocking() if nonblocking else contextlib.nullcontext()
        with ctx:
            m[None] = m @ m
            m[None] = m @ m
        return m._store.to_dict()

    assert run(False) == run(True)


def test_indexed_assign_defers_and_freezes_index(engine):
    u, _, w = _vecs()
    idx = [0, 3, 5]
    with gb.nonblocking():
        w[idx] = 9.0
        idx.append(7)  # caller mutates the index list after the statement
        assert pending() == 1
    assert w._store.to_dict() == {0: 9.0, 3: 9.0, 5: 9.0}


# ----------------------------------------------------------------------
# mode plumbing
# ----------------------------------------------------------------------

def test_set_mode_roundtrip(engine):
    u, v, w = _vecs()
    set_mode("nonblocking")
    try:
        with gb.BinaryOp("Plus"):
            w[None] = u + v
        assert pending() == 1
        set_mode("blocking")  # switching back flushes
        assert pending() == 0
        assert w._backing.nvals == 4
    finally:
        set_mode("blocking")
    with pytest.raises(ValueError):
        set_mode("turbo")


def test_pygb_mode_env(tmp_path):
    """PYGB_MODE=nonblocking turns deferral on process-wide."""
    code = (
        "import repro as gb\n"
        "from repro.core.nonblocking import pending\n"
        "u = gb.Vector(([1.0], [0]), shape=(4,), dtype=float)\n"
        "w = gb.Vector(shape=(4,), dtype=float)\n"
        "with gb.BinaryOp('Plus'):\n"
        "    w[None] = u + u\n"
        "assert pending() == 1, pending()\n"
        "assert w.nvals == 1\n"
        "assert pending() == 0\n"
        "print('ok')\n"
    )
    env = dict(os.environ, PYGB_MODE="nonblocking", PYGB_BACKEND="interpreted")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert "ok" in out.stdout


# ----------------------------------------------------------------------
# observability integration
# ----------------------------------------------------------------------

def test_queue_events_traced(engine, tmp_path):
    trace_path = tmp_path / "trace.json"
    u, v, w = _vecs()
    with gb.tracing(chrome=str(trace_path)):
        with gb.nonblocking():
            with gb.BinaryOp("Plus"):
                w[None] = u + v
    import json

    events = json.loads(trace_path.read_text())["traceEvents"]
    names = [e["name"] for e in events]
    assert "nb.enqueue" in names
    assert "nb.flush" in names
    flush_ev = next(e for e in events if e["name"] == "nb.flush")
    assert flush_ev["args"]["reason"] == "context-exit"
    assert flush_ev["args"]["entries"] == 1


# ----------------------------------------------------------------------
# whole-algorithm acceptance: fewer dispatches, identical results
# ----------------------------------------------------------------------

def test_pagerank_fewer_dispatches(engine):
    from repro.algorithms import pagerank
    from repro.io.generators import erdos_renyi

    m = erdos_renyi(60, seed=7, weighted=False, dtype=float)

    def run(nonblocking):
        eng = CountingEngine(make_engine("interpreted"))
        pr = gb.Vector(shape=(60,), dtype=float)
        ctx = gb.nonblocking() if nonblocking else contextlib.nullcontext()
        with gb.use_engine(eng):
            with ctx:
                pagerank(m, pr)
        return pr.to_numpy(), sum(eng.counts.values())

    ranks_b, calls_b = run(False)
    ranks_nb, calls_nb = run(True)
    assert np.array_equal(ranks_b, ranks_nb)  # bit-identical
    assert calls_nb < calls_b


def test_bfs_identical_under_nonblocking(engine, small_graph):
    from repro.algorithms import bfs

    def run(nonblocking):
        frontier = gb.Vector(([True], [0]), shape=(7,), dtype=bool)
        levels = gb.Vector(shape=(7,), dtype=np.int64)
        ctx = gb.nonblocking() if nonblocking else contextlib.nullcontext()
        with ctx:
            bfs(small_graph, frontier, levels)
        return levels._store.to_dict()

    assert run(False) == run(True)
