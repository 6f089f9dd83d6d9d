"""The cpp kernels at scale and the concurrent compilation path.

Three properties under test:

* the cpp kernels produce the same sparsity pattern as the interpreted
  engine bit-for-bit, with values allclose (float folds may associate
  differently from NumPy's);
* the cache is safe and deduplicating under concurrent ``get_module``
  callers — same-spec racers compile once, distinct specs in parallel;
* no kernel build passes ``-fopenmp``: a compiler that rejects the flag
  still builds every kernel.
"""

from __future__ import annotations

import stat
import threading

import numpy as np
import pytest

import repro as gb
from repro.backend.kernels import OpDesc
from repro.backend.svector import SparseVector
from repro.core.dispatch import InterpretedEngine
from repro.jit.cache import JitCache
from repro.jit.cppengine import toolchain_works
from repro.jit.spec import KernelSpec

from helpers import mat_from_dict, random_mat_dict, random_vec_dict, vec_from_dict

pytestmark = [
    pytest.mark.cpp,
    pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain"),
]

N = 512


@pytest.fixture(scope="module")
def interp():
    return InterpretedEngine()


@pytest.fixture(scope="module")
def cpp():
    from repro.jit.cppengine import CppJitEngine

    return CppJitEngine()


def _vs(d, size=N, dtype=np.float64):
    return vec_from_dict(d, size, dtype)._store


def _ms(d, nrows=N, ncols=N, dtype=np.float64):
    return mat_from_dict(d, nrows, ncols, dtype)._store


def _same_pattern_close(got, want):
    g, w = got.to_dict(), want.to_dict()
    assert g.keys() == w.keys()
    for k, v in g.items():
        assert v == pytest.approx(w[k], rel=1e-9, abs=1e-12)


# ----------------------------------------------------------------------
# cpp kernels vs the interpreted reference
# ----------------------------------------------------------------------
class TestParallelKernelsMatchReference:
    def test_mxv(self, cpp, interp, rng):
        a = random_mat_dict(rng, N, N, density=0.02)
        u = random_vec_dict(rng, N, density=0.5)
        desc = OpDesc()
        got = cpp.mxv(_vs({}), _ms(a), _vs(u), "Plus", "Times", desc)
        want = interp.mxv(_vs({}), _ms(a), _vs(u), "Plus", "Times", OpDesc())
        _same_pattern_close(got, want)

    def test_mxv_masked(self, cpp, interp, rng):
        a = random_mat_dict(rng, N, N, density=0.02)
        u = random_vec_dict(rng, N, density=0.5)
        mask = random_vec_dict(rng, N, density=0.5, dtype=np.bool_)
        for comp in (False, True):
            def desc():
                return OpDesc(
                    mask=_vs(mask, dtype=np.bool_), complement=comp, replace=True
                )
            got = cpp.mxv(_vs({}), _ms(a), _vs(u), "Min", "Plus", desc())
            want = interp.mxv(_vs({}), _ms(a), _vs(u), "Min", "Plus", desc())
            _same_pattern_close(got, want)

    def test_vxm(self, cpp, interp, rng):
        a = random_mat_dict(rng, N, N, density=0.02)
        u = random_vec_dict(rng, N, density=0.5)
        got = cpp.vxm(_vs({}), _vs(u), _ms(a), "Plus", "Times", OpDesc())
        want = interp.vxm(_vs({}), _vs(u), _ms(a), "Plus", "Times", OpDesc())
        _same_pattern_close(got, want)

    def test_mxm(self, cpp, interp, rng):
        a = random_mat_dict(rng, N, N, density=0.01)
        b = random_mat_dict(rng, N, N, density=0.01)
        got = cpp.mxm(_ms({}), _ms(a), _ms(b), "Plus", "Times", OpDesc())
        want = interp.mxm(_ms({}), _ms(a), _ms(b), "Plus", "Times", OpDesc())
        _same_pattern_close(got, want)

    @pytest.mark.parametrize("func", ["ewise_add_mat", "ewise_mult_mat"])
    def test_ewise_mat(self, cpp, interp, rng, func):
        a = random_mat_dict(rng, N, N, density=0.02)
        b = random_mat_dict(rng, N, N, density=0.02)
        got = getattr(cpp, func)(_ms({}), _ms(a), _ms(b), "Plus", OpDesc())
        want = getattr(interp, func)(_ms({}), _ms(a), _ms(b), "Plus", OpDesc())
        _same_pattern_close(got, want)

    def test_apply_mat(self, cpp, interp, rng):
        a = random_mat_dict(rng, N, N, density=0.02)
        op = ("bind", "Times", 2.5, "second")
        got = cpp.apply_mat(_ms({}), _ms(a), op, OpDesc())
        want = interp.apply_mat(_ms({}), _ms(a), op, OpDesc())
        _same_pattern_close(got, want)

    def test_reduce_rows(self, cpp, interp, rng):
        a = random_mat_dict(rng, N, N, density=0.02)
        got = cpp.reduce_rows(_vs({}), _ms(a), "Plus", OpDesc())
        want = interp.reduce_rows(_vs({}), _ms(a), "Plus", OpDesc())
        _same_pattern_close(got, want)

    def test_reduce_scalar_large(self, cpp, interp, rng):
        size = 1 << 18
        idx = np.arange(0, size, 2, dtype=np.int64)
        vals = rng.uniform(-10, 10, size=idx.size)
        u = SparseVector.from_sorted(size, idx, vals)
        got = cpp.reduce_vec_scalar(u, "Plus", None)
        want = interp.reduce_vec_scalar(u, "Plus", None)
        assert got == pytest.approx(want, rel=1e-9)


# ----------------------------------------------------------------------
# concurrent get_module: dedupe per spec, parallel across specs
# ----------------------------------------------------------------------
def test_concurrent_get_module_compiles_each_spec_once(tmp_path):
    cache = JitCache(tmp_path)
    specs = [KernelSpec.make("fake", variant=i) for i in range(4)]
    compile_counts: dict[str, int] = {}
    counts_lock = threading.Lock()

    def generate(spec):
        return f"# generated for {spec.key}\n"

    def compiler(src_path, out_path):
        with counts_lock:
            name = out_path.name
            compile_counts[name] = compile_counts.get(name, 0) + 1
        out_path.write_text("binary")

    n_threads = 16
    barrier = threading.Barrier(n_threads)
    results: list = [None] * n_threads
    errors: list = []

    def worker(i):
        try:
            barrier.wait()
            spec = specs[i % len(specs)]
            results[i] = cache.get_module(
                spec, generate, compiler=compiler
            )
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors
    assert all(r is not None for r in results)
    # every spec compiled exactly once despite 4 racers each
    assert sorted(compile_counts.values()) == [1, 1, 1, 1]
    assert cache.stats.compiles == 4
    assert cache.stats.memory_hits == n_threads - 4


def test_precompile_report_and_idempotence(tmp_path):
    cache = JitCache(tmp_path)
    specs = [KernelSpec.make("fake", variant=i) for i in range(6)]

    def generate(spec):
        return "source\n"

    def compiler(src_path, out_path):
        out_path.write_text("binary")

    jobs = [(s, generate, compiler) for s in specs]
    report = cache.precompile(jobs, max_workers=3)
    assert report["requested"] == 6
    assert report["compiled"] == 6
    assert report["failed"] == []
    assert report["jobs"] == 3

    again = cache.precompile(jobs, max_workers=3)
    assert again["compiled"] == 0
    assert again["memory_hits"] == 6


def test_precompile_collects_failures(tmp_path):
    cache = JitCache(tmp_path)

    def generate(spec):
        return "source\n"

    def bad_compiler(src_path, out_path):
        raise RuntimeError("boom")

    report = cache.precompile(
        [(KernelSpec.make("fake", variant="bad"), generate, bad_compiler)]
    )
    assert report["compiled"] == 0
    assert len(report["failed"]) == 1
    assert "boom" in report["failed"][0][1]


# ----------------------------------------------------------------------
# cache warming covers the algorithms (drift guard)
# ----------------------------------------------------------------------
def test_warm_cache_covers_algorithms(rng, no_faults):
    """After warm_cache, running every bundled algorithm (operation-wise
    and whole-module) must be all cache hits — zero inline compiles.
    (Counter-exact, so ambient chaos injection is opted out: an injected
    ``kernel_fail`` on a cpp dispatch falls back to the interpreted
    engine and skips the cache lookup the test counts.)"""
    from repro.algorithms import (
        bfs_levels,
        connected_components,
        lower_triangle,
        pagerank,
        sssp_distances,
        triangle_count,
    )
    from repro.algorithms.compiled import (
        bfs_compiled,
        pagerank_compiled,
        sssp_compiled,
        triangle_count_compiled,
    )
    from repro.io.generators import erdos_renyi, grid_graph, scale_free
    from repro.jit.cache import default_cache
    from repro.jit.precompile import warm_cache

    report = warm_cache()
    assert report["failed"] == []

    cache = default_cache()
    before = cache.stats.compiles
    with gb.use_engine("cpp"):
        g = erdos_renyi(12, seed=3)
        bfs_levels(g, 0)
        wg = grid_graph(4, weighted=True, seed=5, dtype=float)
        sssp_distances(wg, 0)
        pg = scale_free(12, seed=7)
        pr = gb.Vector(shape=(12,), dtype=float)
        pagerank(pg, pr, threshold=1e-6)
        r, c, _ = g.to_coo()
        A = gb.Matrix(
            (np.ones(2 * len(r)), (np.concatenate([r, c]), np.concatenate([c, r]))),
            shape=g.shape, dtype=int,
        )
        L = lower_triangle(A)
        triangle_count(L)
        connected_components(g)
    bfs_compiled(g._store, 0)
    sssp_compiled(wg._store, 0)
    pagerank_compiled(pg._store)
    triangle_count_compiled(L._store)
    assert cache.stats.compiles == before, (
        "algorithms compiled kernels warm_cache missed — update "
        "repro.jit.precompile._ALGORITHM_KERNELS"
    )


# ----------------------------------------------------------------------
# no kernel build passes -fopenmp
# ----------------------------------------------------------------------
def test_serial_fallback_without_openmp(tmp_path, rng, monkeypatch):
    """A compiler that rejects ``-fopenmp`` builds every kernel, because
    no build asks for it."""
    from repro.jit.cppengine import CppJitEngine, find_cxx_compiler

    real = find_cxx_compiler()
    wrapper = tmp_path / "noomp-g++"
    wrapper.write_text(
        "#!/bin/sh\n"
        'for a in "$@"; do\n'
        '  [ "$a" = "-fopenmp" ] && { echo "error: unrecognized option" >&2; exit 1; }\n'
        "done\n"
        f'exec {real} "$@"\n'
    )
    wrapper.chmod(wrapper.stat().st_mode | stat.S_IXUSR)

    monkeypatch.setenv("PYGB_CXX", str(wrapper))
    engine = CppJitEngine(JitCache(tmp_path / "cache"))
    assert engine.cxx == str(wrapper)

    n = 32
    a = random_mat_dict(rng, n, n, density=0.2)
    u = random_vec_dict(rng, n, density=0.5)
    got = engine.mxv(
        _vs({}, n), _ms(a, n, n), _vs(u, n), "Plus", "Times", OpDesc()
    )
    want = InterpretedEngine().mxv(
        _vs({}, n), _ms(a, n, n), _vs(u, n), "Plus", "Times", OpDesc()
    )
    _same_pattern_close(got, want)
    assert engine.cache.stats.compiles == 1  # built here, by the wrapper


# ----------------------------------------------------------------------
# the CLI entry point
# ----------------------------------------------------------------------
def test_precompile_cli(capsys):
    from repro.__main__ import main

    assert main(["precompile", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "compiler:" in out
    assert "warmed" in out
