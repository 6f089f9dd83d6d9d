"""Failure-injection and concurrency tests for the JIT pipeline.

The disk cache is shared state touched by multiple threads/processes;
these tests pin down the behaviours that keep it safe: one compile per
spec under racing threads, graceful errors on corrupted artifacts and
failing compilers, and stale-version invalidation.
"""

import threading

import numpy as np
import pytest

import repro as gb
from repro.backend.kernels import OpDesc
from repro.backend.svector import SparseVector
from repro.core.dispatch import InterpretedEngine, ResilientEngine
from repro.exceptions import BackendUnavailable, CompilationError, JitFallbackWarning
from repro.jit.cache import JitCache
from repro.jit.cppengine import toolchain_works
from repro.jit.spec import KernelSpec

from helpers import BROKEN_CXX, fake_compile, fake_source


def _spec(**extra):
    base = dict(
        a="float64", u="float64", c="float64", t_dtype="float64",
        add="Plus", mult="Times", ta=False,
        mask="none", comp=False, repl=False, accum="none",
    )
    base.update(extra)
    return KernelSpec.make("mxv", **base)


class TestConcurrency:
    def test_racing_threads_compile_once(self, tmp_path):
        cache = JitCache(tmp_path)
        spec = _spec()
        barrier = threading.Barrier(8)
        results = []
        errors = []

        def worker():
            try:
                barrier.wait()
                results.append(cache.get_module(spec, fake_source, fake_compile))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.stats.compiles == 1
        assert all(p == results[0] for p in results)

    def test_concurrent_dsl_use_across_threads(self, tmp_path):
        """Different threads share the engine's cache safely and keep
        independent operator contexts."""
        errors = []

        def worker(seed):
            try:
                rng = np.random.default_rng(seed)
                a = gb.Matrix(rng.uniform(size=(6, 6)))
                u = gb.Vector(rng.uniform(size=6))
                with gb.MinPlusSemiring:
                    w = gb.Vector(a @ u)
                assert w.nvals > 0
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestFailureInjection:
    def test_corrupted_disk_artifact_rebuilt_transparently(self, tmp_path):
        """A corrupted artifact fails the manifest checksum on the next
        disk hit and is rebuilt in place — the caller never sees it."""
        cache = JitCache(tmp_path)
        spec = _spec()
        cache.get_module(spec, fake_source, fake_compile)
        cache.clear_memory()
        artifact = next(tmp_path.glob("pygb_mxv_*.so"))
        whole = artifact.read_bytes()
        artifact.write_bytes(bytes(len(whole)))  # same size, wrong bytes
        assert cache.get_module(spec, fake_source, fake_compile) == artifact
        assert cache.stats.integrity_rebuilds == 1
        # the rebuilt artifact is whole again
        assert artifact.read_bytes() == whole

    def test_truncated_artifact_with_stale_manifest_rebuilt(self, tmp_path):
        """Truncation (killed mid-write) is caught by the size fast path."""
        cache = JitCache(tmp_path)
        spec = _spec()
        cache.get_module(spec, fake_source, fake_compile)
        cache.clear_memory()
        artifact = next(tmp_path.glob("pygb_mxv_*.so"))
        data = artifact.read_bytes()
        artifact.write_bytes(data[: len(data) // 2])
        cache.get_module(spec, fake_source, fake_compile)
        assert artifact.read_bytes() == data
        assert cache.stats.integrity_rebuilds == 1

    def test_generator_exception_propagates(self, tmp_path):
        cache = JitCache(tmp_path)

        def broken(_spec):
            raise RuntimeError("generator exploded")

        with pytest.raises(RuntimeError):
            cache.get_module(_spec(), broken, fake_compile)
        # and nothing half-written is left behind to poison later lookups
        assert not list(tmp_path.glob("pygb_mxv_*"))
        cache.get_module(_spec(), fake_source, fake_compile)  # recovers

    def test_cache_dir_created_on_demand(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "cache"
        cache = JitCache(target)
        cache.get_module(_spec(), fake_source, fake_compile)
        assert target.is_dir()

    def test_version_bump_isolates_artifacts(self, tmp_path):
        """Specs embed the codegen version, so two library versions can
        never load each other's artifacts (they hash differently)."""
        import repro.jit.spec as spec_mod

        h1 = _spec().key_hash
        old = spec_mod.CODEGEN_VERSION
        try:
            spec_mod.CODEGEN_VERSION = old + 1
            h2 = _spec().key_hash  # key embeds the version at access time
        finally:
            spec_mod.CODEGEN_VERSION = old
        assert h1 != h2


@pytest.mark.cpp
class TestCppFailureInjection:
    @pytest.fixture(autouse=True)
    def _need_compiler(self):
        if not toolchain_works():
            pytest.skip("no working C++ toolchain")

    def test_invalid_cpp_source_reports_gxx_stderr(self, tmp_path):
        from repro.jit.cppengine import CppJitEngine

        eng = CppJitEngine(JitCache(tmp_path))
        with pytest.raises(CompilationError) as exc:
            eng.cache.get_module(
                _spec(), lambda s: "this is not C++ at all;",
                compiler=eng._compile,
            )
        assert "g++" in str(exc.value) or "error" in str(exc.value)

    def test_missing_compiler_raises_backend_unavailable(self, monkeypatch):
        import repro.jit.cppengine as ce

        monkeypatch.setattr(ce, "find_cxx_compiler", lambda: None)
        with pytest.raises(BackendUnavailable):
            ce.CppJitEngine()


class TestExplicitEngineSelection:
    def test_use_engine_cpp_raises_eagerly_without_compiler(self, monkeypatch):
        """An explicitly requested cpp engine with a bogus $PYGB_CXX is a
        configuration error and must fail at use_engine() time, not be
        silently degraded like the env-selected default."""
        monkeypatch.setenv("PYGB_CXX", "/nonexistent/pygb-test-compiler")
        with pytest.raises(BackendUnavailable):
            gb.use_engine("cpp")


class TestEngineRobustness:
    def test_pyjit_engine_survives_cache_clear_mid_session(self, tmp_path, monkeypatch, no_faults):
        """The cpp stack of a host whose compiler fails every build (the
        hosts the deleted Python JIT engine served) keeps serving after
        its cache directory is wiped between two calls."""
        from repro.jit.cppengine import CppJitEngine

        monkeypatch.setenv("PYGB_CXX", BROKEN_CXX)
        cpp = CppJitEngine(JitCache(tmp_path))
        eng = ResilientEngine([cpp, InterpretedEngine()])
        u = SparseVector.from_coo(4, [0], [1.0])
        w = SparseVector.empty(4, np.float64)
        with pytest.warns(JitFallbackWarning):
            eng.ewise_add_vec(w, u, u, "Plus", OpDesc())
        cpp.cache.clear_disk()
        out = eng.ewise_add_vec(w, u, u, "Plus", OpDesc())
        assert out.to_dict() == {0: 2.0}
        assert cpp.cache.stats.fallbacks == 2

    @pytest.mark.cpp
    @pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain")
    def test_cpp_engine_survives_cache_clear_mid_session(self, tmp_path):
        from repro.jit.cppengine import CppJitEngine

        eng = CppJitEngine(JitCache(tmp_path))
        u = SparseVector.from_coo(4, [0], [1.0])
        w = SparseVector.empty(4, np.float64)
        eng.ewise_add_vec(w, u, u, "Plus", OpDesc())
        eng.cache.clear_disk()
        out = eng.ewise_add_vec(w, u, u, "Plus", OpDesc())
        assert out.to_dict() == {0: 2.0}

    def test_env_selected_engine(self, monkeypatch):
        monkeypatch.setenv("PYGB_BACKEND", "interpreted")

        # a thread with no cached engine resolves from the env var
        seen = {}

        def worker():
            seen["name"] = gb.current_backend_engine().name

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen["name"] == "interpreted"
