"""Compilation-time experiment (paper Sec. VI: "compilation times are not
worse than for native GBTL implementation", and Sec. V: compile cost "can
be amortized over future runs").

Measures the three lookup outcomes of the Fig. 9 ``get_module`` pipeline
for the C++ code generator:

* **cold compile** — generate + invoke the compiler + load;
* **disk hit** — a fresh process/memory cache finding the artifact on disk;
* **memory hit** — the steady-state dispatch path.
"""

import numpy as np

from repro.backend.kernels import OpDesc
from repro.backend.svector import SparseVector
from repro.jit.cache import JitCache
from repro.jit.spec import KernelSpec

from conftest import requires_cpp


def _spec(**extra):
    base = dict(
        a="float64", u="float64", c="float64", t_dtype="float64",
        add="Plus", mult="Times", ta=False,
        mask="none", comp=False, repl=False, accum="none",
    )
    base.update(extra)
    return KernelSpec.make("mxv", **base)


@requires_cpp
def test_cpp_cold_compile(benchmark, tmp_path):
    """One ``g++`` invocation per new spec — the dominant cold-start cost,
    directly comparable to compiling a native GBTL translation unit."""
    from repro.jit.cppcodegen import generate_cpp_source
    from repro.jit.cppengine import CppJitEngine

    eng = CppJitEngine(JitCache(tmp_path))
    counter = [0]

    def cold():
        counter[0] += 1
        spec = _spec(tag=counter[0])  # unique spec -> one g++ run each
        return eng.cache.get_module(
            spec, generate_cpp_source, compiler=eng._compile
        )

    benchmark.pedantic(cold, rounds=6, iterations=1, warmup_rounds=0)


@requires_cpp
def test_cpp_disk_hit(benchmark, tmp_path):
    from repro.jit.cppcodegen import generate_cpp_source
    from repro.jit.cppengine import CppJitEngine

    eng = CppJitEngine(JitCache(tmp_path))
    spec = _spec()
    eng.cache.get_module(spec, generate_cpp_source, compiler=eng._compile)

    def disk_hit():
        eng.cache.clear_memory()
        return eng.cache.get_module(
            spec, generate_cpp_source, compiler=eng._compile
        )

    benchmark.pedantic(disk_hit, rounds=30, iterations=1)
    assert eng.cache.stats.compiles == 1


@requires_cpp
def test_cpp_memory_hit(benchmark, tmp_path):
    from repro.jit.cppcodegen import generate_cpp_source
    from repro.jit.cppengine import CppJitEngine

    eng = CppJitEngine(JitCache(tmp_path))
    spec = _spec()
    eng.cache.get_module(spec, generate_cpp_source, eng._compile)
    benchmark(eng.cache.get_module, spec, generate_cpp_source, eng._compile)
    assert eng.cache.stats.compiles == 1


@requires_cpp
def test_cpp_steady_state_dispatch(benchmark, tmp_path):
    """Full engine dispatch with a warm cache: this is the constant
    per-operation overhead the paper's Fig. 10 claim is about."""
    from repro.jit.cppengine import CppJitEngine

    eng = CppJitEngine(JitCache(tmp_path))
    u = SparseVector.from_coo(8, [0, 3], [1.0, 2.0])
    w = SparseVector.empty(8, np.float64)
    desc = OpDesc()
    eng.ewise_add_vec(w, u, u, "Plus", desc)
    benchmark(eng.ewise_add_vec, w, u, u, "Plus", desc)
