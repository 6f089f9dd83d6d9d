"""JIT-layer tests: kernel specs, C++ code generation, the
memory→disk→compile cache of the paper's Fig. 9, cross-process
disk-cache persistence, and kernel keying on a host whose compiler
fails every build."""

import inspect
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro as gb
from repro.backend.kernels import OpDesc
from repro.backend.svector import SparseVector
from repro.core.dispatch import InterpretedEngine, ResilientEngine
from repro.exceptions import CompilationError, JitFallbackWarning
from repro.jit.cache import JitCache, default_cache
from repro.jit.cppcodegen import CPP_GENERATORS, generate_cpp_source
from repro.jit.cppengine import CppJitEngine, toolchain_works
from repro.jit.spec import CODEGEN_VERSION, KernelSpec

from helpers import BROKEN_CXX, fake_compile, fake_source

REPO = Path(__file__).resolve().parent.parent


class TestKernelSpec:
    def test_params_canonicalised_and_sorted(self):
        s1 = KernelSpec.make("mxv", add="Plus", mult="Times", ta=True)
        s2 = KernelSpec.make("mxv", ta=True, mult="Times", add="Plus")
        assert s1 == s2
        assert s1.key == s2.key
        assert s1.key_hash == s2.key_hash

    def test_different_params_different_hash(self):
        s1 = KernelSpec.make("mxv", add="Plus")
        s2 = KernelSpec.make("mxv", add="Min")
        assert s1.key_hash != s2.key_hash

    def test_flags_and_none_canonical(self):
        s = KernelSpec.make("mxv", ta=False, accum=None)
        assert s.get("ta") == "0"
        assert s.get("accum") == "none"
        assert not s.flag("ta")

    def test_hash_is_stable_across_processes(self):
        # the disk cache relies on this: same spec -> same file name
        code = textwrap.dedent(
            """
            from repro.jit.spec import KernelSpec
            print(KernelSpec.make("mxv", add="Plus", mult="Times", a="float64").key_hash)
            """
        )
        out1 = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout.strip()
        local = KernelSpec.make("mxv", add="Plus", mult="Times", a="float64").key_hash
        assert out1 == local

    def test_version_in_key(self):
        s = KernelSpec.make("mxv")
        assert f"v{CODEGEN_VERSION}:" in s.key

    def test_cxx_defines(self):
        s = KernelSpec.make("mxv", a="float64", add="Plus", mask="none")
        defines = s.cxx_defines()
        assert "-DA_TYPE=double" in defines
        assert "-DADD=Plus" in defines
        assert "-DPYGB_FUNC_MXV" in defines

    def test_dtype_accessor(self):
        s = KernelSpec.make("mxv", a="int32")
        assert s.dtype("a") == np.int32
        assert s.dtype("missing") is None


#: kernel operations the cpp engine hands to its in-engine interpreted
#: fallback instead of generating C++ for them
CPP_DELEGATED = (
    "assign_mat", "assign_mat_scalar", "extract_mat", "kronecker",
    "select_mat", "select_vec", "transpose",
)


class TestPyCodegen:
    """Kernel source generation over the whole kernel operation set.

    The class name dates from the Python code generator, deleted with the
    Python JIT engine; the C++ generator is the only one left.  Every
    operation either has a C++ generator whose source builds, or is
    delegated by the cpp engine to its interpreted fallback."""

    def _spec(self, func, **extra):
        base = dict(
            a="float64", b="float64", u="float64", c="float64",
            t_dtype="float64", p="float64", add="Plus", mult="Times",
            op="Plus", uop="Identity", rop="Plus",
            mask="none", comp=False, repl=False, accum="none",
            ta=False, tb=False, form="unary", side="none",
        )
        base.update(extra)
        return KernelSpec.make(func, **base)

    @pytest.mark.parametrize("func", sorted(set(CPP_GENERATORS) | set(CPP_DELEGATED)))
    def test_every_generator_produces_compilable_source(self, func, monkeypatch, tmp_path):
        if func in CPP_DELEGATED:
            assert func not in CPP_GENERATORS
            with pytest.raises(CompilationError, match=r"no C\+\+ generator"):
                generate_cpp_source(self._spec(func))
            # the engine's own method forwards the call verbatim
            monkeypatch.setenv("PYGB_CXX", BROKEN_CXX)
            eng = CppJitEngine(JitCache(tmp_path))
            calls = []

            class Recorder:
                def __getattr__(self, name):
                    return lambda *args: calls.append((name, args))

            eng._fallback = Recorder()
            nargs = len(inspect.signature(getattr(eng, func)).parameters)
            args = tuple(object() for _ in range(nargs))
            getattr(eng, func)(*args)
            assert calls == [(func, args)]
            return
        extra = {"op": "Identity"} if func.startswith("apply") else {}
        spec = self._spec(func, **extra)
        src = generate_cpp_source(spec)
        assert '#include "gbtl_lite.hpp"' in src and 'extern "C"' in src
        if toolchain_works():
            # built through the shared kernel cache, so reruns are disk hits
            cache = default_cache()
            eng = CppJitEngine(cache)
            artifact = cache.get_module(spec, generate_cpp_source, eng.compiler_for(spec))
            assert Path(artifact).stat().st_size > 0

    def test_header_records_spec_and_defines(self):
        src = generate_cpp_source(self._spec("mxv"))
        assert "spec: v" in src
        assert "g++" in src and "-DA_TYPE=double" in src

    def test_unknown_func_raises(self):
        with pytest.raises(CompilationError):
            generate_cpp_source(KernelSpec.make("frobnicate"))

    def test_masked_variant_differs_from_unmasked(self):
        plain = generate_cpp_source(self._spec("mxv"))
        masked = generate_cpp_source(self._spec("mxv", mask="value", repl=True))
        assert plain != masked
        assert "kHasMask = true" in masked and "kHasMask = false" in plain
        assert "kRepl = true" in masked and "kRepl = false" in plain

    def test_accum_variant_binds_operator(self):
        src = generate_cpp_source(self._spec("mxv", accum="Min"))
        assert "using AccumOp = GB::Min<TC>;" in src


def _get(cache, spec):
    return cache.get_module(spec, fake_source, fake_compile)


class TestJitCache:
    def test_lookup_order_memory_disk_compile(self, tmp_path):
        cache = JitCache(tmp_path)
        spec = KernelSpec.make(
            "mxv", a="float64", u="float64", c="float64", t_dtype="float64",
            add="Plus", mult="Times",
            mask="none", comp=False, repl=False, accum="none",
        )
        path1 = _get(cache, spec)
        assert cache.stats.compiles == 1
        assert _get(cache, spec) == path1
        assert cache.stats.memory_hits == 1
        cache.clear_memory()
        assert _get(cache, spec) == path1
        assert cache.stats.disk_hits == 1
        assert cache.stats.compiles == 1

    def test_artifact_on_disk(self, tmp_path):
        cache = JitCache(tmp_path)
        spec = KernelSpec.make(
            "reduce_vec_scalar", a="float64", op="Plus"
        )
        _get(cache, spec)
        assert len(list(Path(tmp_path).glob("pygb_reduce_vec_scalar_*.so"))) == 1
        assert len(list(Path(tmp_path).glob("pygb_reduce_vec_scalar_*.cpp"))) == 1

    def test_clear_disk(self, tmp_path):
        cache = JitCache(tmp_path)
        spec = KernelSpec.make("reduce_vec_scalar", a="float64", op="Plus")
        _get(cache, spec)
        cache.clear_disk()
        assert not list(Path(tmp_path).glob("pygb_*"))
        _get(cache, spec)
        assert cache.stats.compiles == 2

    def test_stats_snapshot_and_reset(self, tmp_path):
        cache = JitCache(tmp_path)
        spec = KernelSpec.make("reduce_vec_scalar", a="float64", op="Plus")
        _get(cache, spec)
        snap = cache.stats.snapshot()
        assert snap["compiles"] == 1
        assert snap["per_func"] == {"reduce_vec_scalar": 1}
        assert snap["generate_seconds"] >= 0.0
        cache.stats.reset()
        assert cache.stats.snapshot()["compiles"] == 0

    def test_broken_generated_module_raises_compilation_error(self, tmp_path):
        cache = JitCache(tmp_path)
        spec = KernelSpec.make("reduce_vec_scalar", a="float64", op="Plus")

        def broken(src_path, out_path):
            Path(out_path).write_bytes(b"half")
            raise CompilationError("compiler rejected the source")

        with pytest.raises(CompilationError):
            cache.get_module(spec, fake_source, broken)
        # nothing half-usable is left behind for the next lookup
        assert not list(Path(tmp_path).glob("pygb_*.so"))
        _get(cache, spec)
        assert cache.stats.compiles == 1


@pytest.mark.cpp
@pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain")
class TestCppJitEngine:
    def test_identical_calls_reuse_module(self, tmp_path):
        eng = CppJitEngine(JitCache(tmp_path))
        u = SparseVector.from_coo(5, [0, 2], [1.0, 2.0])
        w = SparseVector.empty(5, np.float64)
        eng.ewise_add_vec(w, u, u, "Plus", OpDesc())
        eng.ewise_add_vec(w, u, u, "Plus", OpDesc())
        assert eng.cache.stats.compiles == 1
        assert eng.cache.stats.memory_hits == 1

    def test_different_dtypes_compile_separately(self, tmp_path):
        # Sec. V: the module is keyed on operand data types
        eng = CppJitEngine(JitCache(tmp_path))
        uf = SparseVector.from_coo(5, [0], [1.0])
        ui = SparseVector.from_coo(5, [0], [1], dtype=np.int64)
        eng.ewise_add_vec(SparseVector.empty(5, np.float64), uf, uf, "Plus", OpDesc())
        eng.ewise_add_vec(SparseVector.empty(5, np.int64), ui, ui, "Plus", OpDesc())
        assert eng.cache.stats.compiles == 2

    def test_different_descriptors_compile_separately(self, tmp_path):
        eng = CppJitEngine(JitCache(tmp_path))
        u = SparseVector.from_coo(5, [0], [1.0])
        mask = SparseVector.from_coo(5, [0], [True], dtype=np.bool_)
        eng.ewise_add_vec(SparseVector.empty(5, np.float64), u, u, "Plus", OpDesc())
        eng.ewise_add_vec(
            SparseVector.empty(5, np.float64), u, u, "Plus", OpDesc(mask=mask)
        )
        assert eng.cache.stats.compiles == 2

    def test_disk_cache_shared_across_processes(self, tmp_path):
        """A fresh interpreter hits the disk cache, not the compiler —
        'the cost of compiling the code can be amortized over future
        runs of the same code' (Sec. V)."""
        code = textwrap.dedent(
            f"""
            import numpy as np
            from repro.backend.kernels import OpDesc
            from repro.backend.svector import SparseVector
            from repro.jit.cache import JitCache
            from repro.jit.cppengine import CppJitEngine
            eng = CppJitEngine(JitCache({str(tmp_path)!r}))
            u = SparseVector.from_coo(5, [0], [1.0])
            eng.ewise_add_vec(SparseVector.empty(5, np.float64), u, u, "Plus", OpDesc())
            print(eng.cache.stats.compiles, eng.cache.stats.disk_hits)
            """
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                check=True, cwd=REPO,
            ).stdout.split()
            for _ in range(2)
        ]
        assert runs[0] == ["1", "0"]  # first process compiles
        assert runs[1] == ["0", "1"]  # second process reads the disk artifact


def _no_compiler_engine(tmp_path, monkeypatch):
    monkeypatch.setenv("PYGB_CXX", BROKEN_CXX)
    monkeypatch.delenv("PYGB_CATALOG", raising=False)
    cpp = CppJitEngine(JitCache(tmp_path))
    return cpp, ResilientEngine([cpp, InterpretedEngine()])


class TestPyJitEngine:
    """Kernel keying on the cpp stack of a host whose compiler fails
    every build (the hosts the deleted Python JIT engine served): each
    spec is attempted once, quarantined, and served by interpreted."""

    def test_identical_calls_reuse_module(self, tmp_path, monkeypatch, no_faults):
        cpp, eng = _no_compiler_engine(tmp_path, monkeypatch)
        u = SparseVector.from_coo(5, [0, 2], [1.0, 2.0])
        w = SparseVector.empty(5, np.float64)
        with pytest.warns(JitFallbackWarning):
            first = eng.ewise_add_vec(w, u, u, "Plus", OpDesc())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the quarantine fails fast, silently
            second = eng.ewise_add_vec(w, u, u, "Plus", OpDesc())
        assert first.to_dict() == second.to_dict() == {0: 2.0, 2: 4.0}
        assert cpp.cache.stats.jit_failures == 1
        assert cpp.cache.stats.fallbacks == 2

    def test_different_dtypes_compile_separately(self, tmp_path, monkeypatch, no_faults):
        # Sec. V: the module is keyed on operand data types
        cpp, eng = _no_compiler_engine(tmp_path, monkeypatch)
        uf = SparseVector.from_coo(5, [0], [1.0])
        ui = SparseVector.from_coo(5, [0], [1], dtype=np.int64)
        with pytest.warns(JitFallbackWarning):
            eng.ewise_add_vec(SparseVector.empty(5, np.float64), uf, uf, "Plus", OpDesc())
            eng.ewise_add_vec(SparseVector.empty(5, np.int64), ui, ui, "Plus", OpDesc())
        assert cpp.cache.stats.jit_failures == 2
        assert cpp.cache.health.snapshot()["failures"] == 2

    def test_different_descriptors_compile_separately(self, tmp_path, monkeypatch, no_faults):
        cpp, eng = _no_compiler_engine(tmp_path, monkeypatch)
        u = SparseVector.from_coo(5, [0], [1.0])
        mask = SparseVector.from_coo(5, [0], [True], dtype=np.bool_)
        with pytest.warns(JitFallbackWarning):
            eng.ewise_add_vec(SparseVector.empty(5, np.float64), u, u, "Plus", OpDesc())
            eng.ewise_add_vec(
                SparseVector.empty(5, np.float64), u, u, "Plus", OpDesc(mask=mask)
            )
        assert cpp.cache.stats.jit_failures == 2

    @pytest.mark.cpp
    @pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain")
    def test_disk_cache_shared_across_processes(self, tmp_path):
        """A kernel cache filled on a host with a working compiler serves
        a host whose compiler is broken: the second process reads the
        artifact from disk and never invokes its compiler."""
        code = textwrap.dedent(
            f"""
            import numpy as np
            from repro.backend.kernels import OpDesc
            from repro.backend.svector import SparseVector
            from repro.jit.cache import JitCache
            from repro.jit.cppengine import CppJitEngine
            eng = CppJitEngine(JitCache({str(tmp_path)!r}))
            u = SparseVector.from_coo(5, [0], [1.0])
            eng.ewise_add_vec(SparseVector.empty(5, np.float64), u, u, "Plus", OpDesc())
            s = eng.cache.stats
            print(eng.cxx, s.compiles, s.disk_hits, s.jit_failures)
            """
        )
        env = {k: v for k, v in os.environ.items() if k not in ("PYGB_CXX", "PYGB_CATALOG")}
        first = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, cwd=REPO, env=env,
        ).stdout.split()
        second = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, cwd=REPO, env=dict(env, PYGB_CXX=BROKEN_CXX),
        ).stdout.split()
        assert first[1:] == ["1", "0", "0"]  # the working compiler builds it
        assert second == [BROKEN_CXX, "0", "1", "0"]  # read from disk, no build


class TestEngineSelection:
    def test_default_engine_is_interpreted(self):
        import os

        if os.environ.get("PYGB_BACKEND", "interpreted") == "interpreted":
            assert gb.current_backend_engine().name == "interpreted"

    def test_use_engine_scoped(self):
        with gb.use_engine("interpreted"):
            assert gb.current_backend_engine().name == "interpreted"

    def test_unknown_engine_rejected(self):
        with pytest.raises(gb.BackendUnavailable):
            gb.use_engine("turbo")
        with pytest.raises(gb.BackendUnavailable):
            gb.use_engine("pyjit")

    @pytest.mark.cpp
    @pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain")
    def test_engines_agree_on_results(self):
        a = gb.Matrix([[1.0, 2.0], [3.0, 4.0]])
        results = []
        for name in ("interpreted", "cpp"):
            with gb.use_engine(name):
                results.append(gb.Matrix(a @ a).to_numpy())
        assert np.array_equal(results[0], results[1])
