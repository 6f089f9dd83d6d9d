"""Shared test helpers: random containers in both the reference-dict
format and the DSL format, a fake compiler for cache-mechanics tests,
and the engine stacks behind the test engine ids."""

from __future__ import annotations

import atexit
import contextlib
import os
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np

import repro as gb

__all__ = [
    "random_vec_dict", "random_mat_dict", "vec_from_dict", "mat_from_dict",
    "fake_compile", "fake_source", "BROKEN_CXX", "no_compiler_engine", "use_test_engine",
]


def random_vec_dict(rng, size: int, density: float = 0.4, dtype=np.float64) -> dict:
    """A random sparse vector as a plain dict (reference format)."""
    n = max(0, int(size * density))
    idx = rng.choice(size, size=min(n, size), replace=False)
    if np.dtype(dtype).kind == "f":
        vals = rng.uniform(-10, 10, size=idx.size)
    elif np.dtype(dtype) == np.bool_:
        vals = rng.integers(0, 2, size=idx.size).astype(bool)
    else:
        vals = rng.integers(-10, 10, size=idx.size)
    return {int(i): np.dtype(dtype).type(v).item() for i, v in zip(idx, vals)}


def random_mat_dict(rng, nrows: int, ncols: int, density: float = 0.3, dtype=np.float64) -> dict:
    """A random sparse matrix as a plain dict (reference format)."""
    total = nrows * ncols
    n = max(0, int(total * density))
    flat = rng.choice(total, size=min(n, total), replace=False)
    if np.dtype(dtype).kind == "f":
        vals = rng.uniform(-10, 10, size=flat.size)
    elif np.dtype(dtype) == np.bool_:
        vals = rng.integers(0, 2, size=flat.size).astype(bool)
    else:
        vals = rng.integers(-10, 10, size=flat.size)
    return {
        (int(f) // ncols, int(f) % ncols): np.dtype(dtype).type(v).item()
        for f, v in zip(flat, vals)
    }


def vec_from_dict(d: dict, size: int, dtype=np.float64) -> "gb.Vector":
    idx = sorted(d)
    return gb.Vector(([d[i] for i in idx], idx), shape=(size,), dtype=dtype)


def mat_from_dict(d: dict, nrows: int, ncols: int, dtype=np.float64) -> "gb.Matrix":
    keys = sorted(d)
    rows = [k[0] for k in keys]
    cols = [k[1] for k in keys]
    vals = [d[k] for k in keys]
    return gb.Matrix((vals, (rows, cols)), shape=(nrows, ncols), dtype=dtype)


def fake_compile(src_path, out_path) -> None:
    """Stands in for g++ in cache-mechanics tests: :class:`JitCache` only
    stores and returns artifact paths, so its lookup, manifest and sweep
    logic needs no toolchain."""
    Path(out_path).write_bytes(Path(src_path).read_bytes())


def fake_source(spec) -> str:
    return f"// {spec.key}\n"


#: the compiler of a host whose toolchain is broken: it resolves on PATH,
#: so the cpp engine builds, and it fails every invocation
BROKEN_CXX = "/bin/false"

_NO_COMPILER_ENGINE = None


def no_compiler_engine():
    """The cpp engine stack of a host whose C++ compiler fails every build.

    Every kernel build fails, is quarantined per spec, and the operation
    re-runs on the next rung of the fallback chain (interpreted), so
    results must equal the interpreted engine's.  The ``pyjit`` test id
    runs DSL-level tests on this stack: it is the id of the Python JIT
    engine that used to serve hosts without a working compiler.  The
    engine keeps a private, catalog-free cache so no cached ``.so`` can
    turn a build failure into a hit.  Built once per process."""
    global _NO_COMPILER_ENGINE
    if _NO_COMPILER_ENGINE is None:
        from repro.core.dispatch import InterpretedEngine, PartitionedEngine, ResilientEngine
        from repro.guard import GuardedEngine
        from repro.jit.cache import JitCache
        from repro.jit.cppengine import CppJitEngine

        cache_dir = tempfile.mkdtemp(prefix="pygb-no-compiler-")
        atexit.register(shutil.rmtree, cache_dir, True)
        cache = JitCache(cache_dir)
        cache.attach_catalog(None)
        previous = os.environ.get("PYGB_CXX")
        os.environ["PYGB_CXX"] = BROKEN_CXX
        try:
            cpp = CppJitEngine(cache)
        finally:
            if previous is None:
                del os.environ["PYGB_CXX"]
            else:
                os.environ["PYGB_CXX"] = previous
        # the layering of make_engine("cpp"), minus the PYGB_JIT_STRICT
        # bypass: this stack always degrades
        _NO_COMPILER_ENGINE = GuardedEngine(
            PartitionedEngine(ResilientEngine([cpp, InterpretedEngine()]))
        )
    return _NO_COMPILER_ENGINE


def _without_env_kernel_fail(raw: str) -> str:
    return ",".join(
        e for e in raw.split(",") if e.strip().partition(":")[0] != "kernel_fail"
    )


@contextlib.contextmanager
def use_test_engine(name: str):
    """``gb.use_engine`` for a test engine id.  Yields the engine.

    ``pyjit`` is :func:`no_compiler_engine`.  Its expected fallback
    warnings are silenced, and an ambient ``kernel_fail`` rule from
    ``$PYGB_FAULT`` is lifted for the block: with the cpp rung failing
    every build, interpreted is the only rung that works, and a fault
    injected there has nothing left to fall back to.  That makes the
    stack exempt from kernel faults, like the bare interpreted engine,
    which has no fault hook.  Rules a test installs itself still fire.
    Every other id is an engine name."""
    if name != "pyjit":
        with gb.use_engine(name) as engine:
            yield engine
        return
    from repro.exceptions import JitFallbackWarning

    ambient = os.environ.get("PYGB_FAULT")
    if ambient:
        os.environ["PYGB_FAULT"] = _without_env_kernel_fail(ambient)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", JitFallbackWarning)
            with gb.use_engine(no_compiler_engine()) as engine:
                yield engine
    finally:
        if ambient:
            os.environ["PYGB_FAULT"] = ambient
