"""The ``cpp`` execution engine: dynamic compilation into C++ (the
paper's actual design).

On the first use of an ``(operation, dtypes, operators, flags)``
combination the engine writes the binding translation unit produced by
:mod:`~repro.jit.cppcodegen` into the cache directory, compiles it with
``g++ -std=c++17 -O2 -shared -fPIC`` against the bundled mini-GBTL header,
and loads the shared object through :mod:`ctypes`; later calls hit the
memory/disk caches.  Buffers flow between NumPy and C++ as raw pointers —
one FFI call per GraphBLAS operation, mirroring the paper's pybind-style
boundary.

Operations without a native C++ binding (the index-heavy matrix
assign/extract forms, select, Kronecker and standalone transpose — none
of which appear in the evaluated algorithms' hot loops) delegate to the
interpreted engine; the native set is
``repro.jit.cppcodegen.CPP_SUPPORTED``.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from ctypes import POINTER, byref, c_double, c_int64, c_void_p
from pathlib import Path

import numpy as np

from .. import obs, schedule as _schedule
from ..backend.ops_table import (
    DEFAULT_IDENTITY_NAME,
    binary_result_dtype,
    identity_value,
)
from ..backend.kernels import OpDesc
from ..backend.smatrix import SparseMatrix
from ..backend.svector import SparseVector
from ..exceptions import BackendUnavailable, CompilationError, OperationCancelled
from ..testing.faults import FAULTS
from .cache import JitCache, default_cache
from .cppcodegen import PARALLEL_FUNCS, generate_cpp_source
from .gbtl_lite import GBTL_LITE_HEADER, HEADER_FILENAME
from .spec import KernelSpec

__all__ = [
    "CppJitEngine",
    "find_cxx_compiler",
    "compiler_available",
    "toolchain_works",
    "openmp_available",
    "parallel_requested",
    "compile_timeout",
]

DEFAULT_COMPILE_TIMEOUT = 120.0


def compile_timeout() -> float | None:
    """Wall-clock limit for one compiler invocation, in seconds
    (``$PYGB_COMPILE_TIMEOUT``, default 120; 0 or negative disables).
    A wedged compiler otherwise hangs the calling thread — and the
    precompile pool — forever."""
    env = os.environ.get("PYGB_COMPILE_TIMEOUT")
    if env:
        try:
            value = float(env)
            return value if value > 0 else None
        except ValueError:
            pass
    return DEFAULT_COMPILE_TIMEOUT

_I64 = np.dtype(np.int64)


def _desc_params(desc: OpDesc) -> dict:
    return {
        "mask": "none" if desc.mask is None else "value",
        "comp": desc.complement,
        "repl": desc.replace,
        "accum": desc.accum or "none",
    }


def find_cxx_compiler() -> str | None:
    """Path of the C++ compiler (``$PYGB_CXX`` override, else ``g++``,
    else ``c++``), or None when this machine has none."""
    env = os.environ.get("PYGB_CXX")
    if env:
        return env if shutil.which(env) else None
    for cand in ("g++", "c++"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def compiler_available() -> bool:
    return find_cxx_compiler() is not None


# ----------------------------------------------------------------------
# OpenMP support probe (one tiny test compile per compiler, memoised)
# ----------------------------------------------------------------------
_OPENMP_PROBES: dict[str, bool] = {}
_PROBE_LOCK = threading.Lock()


def _probe_openmp(cxx: str) -> bool:
    source = (
        "#include <omp.h>\n"
        'extern "C" int pygb_probe() { return omp_get_max_threads(); }\n'
    )
    try:
        with tempfile.TemporaryDirectory(prefix="pygb_omp_probe_") as td:
            src = Path(td) / "probe.cpp"
            src.write_text(source)
            out = Path(td) / "probe.so"
            proc = subprocess.run(
                [cxx, "-std=c++17", "-shared", "-fPIC", "-fopenmp",
                 str(src), "-o", str(out)],
                capture_output=True,
                text=True,
            )
            return proc.returncode == 0 and out.exists()
    except OSError:
        return False


def openmp_available(cxx: str | None = None) -> bool:
    """Whether *cxx* (default: the discovered compiler) accepts
    ``-fopenmp``; probed once per compiler path with a tiny test compile
    and cached for the life of the process."""
    cxx = cxx or find_cxx_compiler()
    if cxx is None:
        return False
    with _PROBE_LOCK:
        cached = _OPENMP_PROBES.get(cxx)
    if cached is not None:
        return cached
    result = _probe_openmp(cxx)
    with _PROBE_LOCK:
        _OPENMP_PROBES[cxx] = result
    return result


_TOOLCHAIN_PROBES: dict[str, bool] = {}


def _probe_toolchain(cxx: str) -> bool:
    source = 'extern "C" int pygb_probe() { return 42; }\n'
    try:
        with tempfile.TemporaryDirectory(prefix="pygb_cxx_probe_") as td:
            src = Path(td) / "probe.cpp"
            src.write_text(source)
            out = Path(td) / "probe.so"
            proc = subprocess.run(
                [cxx, "-std=c++17", "-shared", "-fPIC", str(src), "-o", str(out)],
                capture_output=True,
                text=True,
                timeout=60,
            )
            return proc.returncode == 0 and out.exists()
    except (OSError, subprocess.TimeoutExpired):
        return False


def toolchain_works(cxx: str | None = None) -> bool:
    """Whether the discovered compiler can actually build a shared object.

    :func:`compiler_available` only checks PATH resolution; a compiler
    that resolves but fails every invocation (a broken install, or the
    fault-tolerance CI leg's ``PYGB_CXX=/bin/false``) passes that check
    and fails this one.  Probed once per compiler path with a tiny test
    compile and memoised for the life of the process."""
    cxx = cxx or find_cxx_compiler()
    if cxx is None:
        return False
    with _PROBE_LOCK:
        cached = _TOOLCHAIN_PROBES.get(cxx)
    if cached is not None:
        return cached
    result = _probe_toolchain(cxx)
    with _PROBE_LOCK:
        _TOOLCHAIN_PROBES[cxx] = result
    return result


def parallel_requested() -> bool:
    """The ``$PYGB_PARALLEL`` runtime switch (default: on).  Re-read on
    every dispatch so it can be toggled without rebuilding engines."""
    value = os.environ.get("PYGB_PARALLEL")
    if value is None:
        return True
    return value.strip().lower() not in ("", "0", "false", "off", "no")


def _scalar_pair(value, prefer_float: bool):
    """``(c_double, c_int64)`` encodings of a scalar; the generated C++
    selects one by element type, so the other leg may be lossy or zero
    (``int(inf)`` would raise — the unused leg is zeroed instead)."""
    if prefer_float:
        return c_double(float(value)), c_int64(0)
    try:
        ival = int(value)
    except (OverflowError, ValueError):
        ival = 0
    return c_double(float(value)), c_int64(ival)


class _Args:
    """Argument list builder that owns every temporary buffer it creates,
    keeping the pointers alive for the duration of the ctypes call."""

    def __init__(self):
        self.args: list = []
        self._hold: list[np.ndarray] = []

    def _keep(self, arr: np.ndarray) -> np.ndarray:
        self._hold.append(arr)
        return arr

    def ptr(self, arr: np.ndarray):
        arr = self._keep(np.ascontiguousarray(arr))
        self.args.append(None if arr.size == 0 else arr.ctypes.data_as(c_void_p))

    def int64(self, x: int):
        self.args.append(c_int64(int(x)))

    def raw(self, ctypes_value):
        self.args.append(ctypes_value)

    def values_ptr(self, arr: np.ndarray):
        """Value buffer with bool reinterpreted as uint8 (C++ bool is one
        byte)."""
        if arr.dtype == np.bool_:
            arr = np.ascontiguousarray(arr).view(np.uint8)
        self.ptr(arr)

    def csr(self, m: SparseMatrix, with_dims: bool = True):
        if with_dims:
            self.int64(m.nrows)
            self.int64(m.ncols)
        self.ptr(np.asarray(m.indptr, _I64))
        self.ptr(np.asarray(m.indices, _I64))
        self.values_ptr(m.values)

    def vec(self, v: SparseVector, with_size: bool = True):
        if with_size:
            self.int64(v.size)
        self.ptr(np.asarray(v.indices, _I64))
        self.values_ptr(v.values)
        self.int64(v.nvals)

    def mask_vec(self, mask: SparseVector | None):
        if mask is None:
            self.args += [None, None]
            self.int64(0)
        else:
            self.ptr(np.asarray(mask.indices, _I64))
            self.ptr(np.ascontiguousarray(mask.values.astype(bool)).view(np.uint8))
            self.int64(mask.nvals)

    def mask_mat(self, mask: SparseMatrix | None):
        if mask is None:
            self.args += [None, None, None]
        else:
            self.ptr(np.asarray(mask.indptr, _I64))
            self.ptr(np.asarray(mask.indices, _I64))
            self.ptr(np.ascontiguousarray(mask.values.astype(bool)).view(np.uint8))

    def index_list(self, idx) -> None:
        arr = np.ascontiguousarray(idx, _I64)
        self.ptr(arr)
        self.int64(arr.size)


class CppJitEngine:
    """Engine-interface implementation backed by JIT-compiled C++."""

    name = "cpp"
    supports_fusion = True

    def __init__(self, cache: JitCache | None = None):
        self.cxx = find_cxx_compiler()
        if self.cxx is None:
            raise BackendUnavailable(
                "the cpp engine needs a C++ compiler (g++/c++) on PATH; "
                "set $PYGB_CXX or use the interpreted engine"
            )
        from ..core.dispatch import InterpretedEngine

        self.cache = cache if cache is not None else default_cache()
        self._fallback = InterpretedEngine()
        self._libs: dict[str, ctypes.CDLL] = {}
        self._libs_lock = threading.Lock()
        self._header_lock = threading.Lock()
        self._header_written = False

    # ------------------------------------------------------------------
    # compilation plumbing
    # ------------------------------------------------------------------
    def parallel_enabled(self) -> bool:
        """Whether new specs should request OpenMP kernels: the
        ``$PYGB_PARALLEL`` switch is on *and* the compiler passed the
        ``-fopenmp`` probe (silent serial fallback otherwise)."""
        return parallel_requested() and openmp_available(self.cxx)

    def _spec(self, func: str, **params) -> KernelSpec:
        """Build the kernel spec, marking parallel-capable operations
        ``par=1`` so serial and OpenMP artifacts hash (and cache)
        separately."""
        if func in PARALLEL_FUNCS and self.parallel_enabled():
            params["par"] = True
        return KernelSpec.make(func, **params)

    def _ensure_header(self) -> None:
        if self._header_written:
            return
        with self._header_lock:
            if self._header_written:
                return
            path = self.cache.cache_dir / HEADER_FILENAME
            if not path.exists() or path.read_text() != GBTL_LITE_HEADER:
                tmp = path.with_name(
                    f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
                )
                tmp.write_text(GBTL_LITE_HEADER)
                os.replace(tmp, path)
            self._header_written = True

    def _compile(self, src_path: Path, out_path: Path, parallel: bool = False) -> None:
        self._ensure_header()
        if FAULTS.fire("compile_fail"):
            raise CompilationError(f"injected compile failure for {src_path.name}")
        tmp = out_path.with_name(
            f"{out_path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        cmd = [self.cxx, "-std=c++17", "-O2", "-shared", "-fPIC"]
        if parallel and openmp_available(self.cxx):
            cmd.append("-fopenmp")
        cmd += [f"-I{self.cache.cache_dir}", str(src_path), "-o", str(tmp)]
        timeout = compile_timeout()
        if FAULTS.fire("slow_compile"):
            # a sleeper in place of the compiler, so the timeout
            # machinery below trips exactly as it would for a wedged g++
            delay = 4 * (timeout if timeout is not None else 1.0)
            cmd = [sys.executable, "-c", f"import time; time.sleep({delay})"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            tmp.unlink(missing_ok=True)
            raise CompilationError(
                f"C++ compiler timed out after {timeout:g}s for {src_path.name} "
                "(raise $PYGB_COMPILE_TIMEOUT for very large translation units)"
            ) from None
        if proc.returncode != 0:
            tmp.unlink(missing_ok=True)
            raise CompilationError(
                f"g++ failed for {src_path.name}:\n{proc.stderr[-4000:]}"
            )
        os.replace(tmp, out_path)
        if FAULTS.fire("corrupt_so"):
            # truncate to the ELF header alone — a half-truncated .so can
            # still dlopen and then SIGBUS at call time, which no userspace
            # handler can recover from; header-only truncation guarantees
            # dlopen itself fails with a clean OSError
            data = out_path.read_bytes()
            out_path.write_bytes(data[:512])

    def _compile_parallel(self, src_path: Path, out_path: Path) -> None:
        self._compile(src_path, out_path, parallel=True)

    def compiler_for(self, spec: KernelSpec):
        """The compile callable matching *spec*: ``par=1`` specs build
        with ``-fopenmp`` (when supported), everything else with the
        serial flag set."""
        return self._compile_parallel if spec.flag("par") else self._compile

    def _lib(self, spec: KernelSpec, scalar_out: bool = False) -> ctypes.CDLL:
        """Compiled module for *spec*, with the resilience wrapper: a
        quarantined spec fails fast (:class:`KernelQuarantined`, caught by
        the dispatch fallback chain); compile/load failures are recorded
        against this engine's health so hot loops stop re-attempting a
        broken build."""
        health = self.cache.health
        health.check(self.name, spec.key)
        t0 = time.perf_counter_ns() if obs.ACTIVE else 0
        try:
            lib = self._load_lib(spec, scalar_out)
        except CompilationError as exc:
            self.cache.note_jit_failure()
            health.record_failure(self.name, spec.key, exc)
            raise
        health.record_success(self.name, spec.key)
        if obs.ACTIVE:
            tracer = obs.active_tracer()
            if tracer is not None:
                tracer.record(
                    "module_lookup",
                    "jit",
                    t0,
                    time.perf_counter_ns() - t0,
                    {"engine": self.name, "spec": spec.key},
                )
        return lib

    def _load_lib(self, spec: KernelSpec, scalar_out: bool) -> ctypes.CDLL:
        artifact = self.cache.get_module(
            spec, generate_cpp_source, compiler=self.compiler_for(spec)
        )
        key = str(artifact)
        with self._libs_lock:
            lib = self._libs.get(key)
            if lib is not None:
                return lib
        try:
            lib = self._dlopen(artifact)
        except OSError as exc:
            # a truncated or corrupt shared object that slipped past the
            # manifest checksum (or an injected dlopen fault): invalidate
            # the artifact, recompile once, then give up on this engine
            self.cache.invalidate(spec)
            artifact = self.cache.get_module(
                spec, generate_cpp_source, compiler=self.compiler_for(spec),
            )
            try:
                lib = self._dlopen(artifact)
            except OSError as exc2:
                raise CompilationError(
                    f"cannot load compiled kernel {artifact.name} even after "
                    f"rebuilding: {exc2} (first failure: {exc})"
                ) from exc2
        lib.pygb_run.restype = None if scalar_out else c_int64
        try:
            # observability accessor generated alongside every kernel
            # since CODEGEN_VERSION 7; guard for exotic/legacy artifacts
            lib.pygb_kernel_ns.restype = c_int64
        except AttributeError:  # pragma: no cover
            pass
        try:
            # deterministic traversal counter; pull TUs only (v8+)
            lib.pygb_edges_examined.restype = c_int64
        except AttributeError:
            pass
        try:
            # cooperative cancellation flag (v9+); the guard watchdog
            # asserts it from its own thread while a kernel is running
            lib.pygb_request_cancel.restype = None
            lib.pygb_request_cancel.argtypes = (c_int64,)
            lib.pygb_cancel_requested.restype = c_int64
        except AttributeError:  # pragma: no cover - legacy artifact
            pass
        else:
            from .. import guard

            guard.register_cancel_lib(lib)
        with self._libs_lock:
            return self._libs.setdefault(str(artifact), lib)

    @staticmethod
    def _dlopen(artifact) -> ctypes.CDLL:
        if FAULTS.fire("dlopen_fail"):
            raise OSError(f"injected dlopen failure for {artifact}")
        return ctypes.CDLL(str(artifact))

    # ------------------------------------------------------------------
    # the FFI boundary
    # ------------------------------------------------------------------
    def _ffi_call(self, lib, args):
        """One ``pygb_run`` invocation with the observability split:
        Python's monotonic clock around the whole call (FFI total) and
        the kernel's own C++-side clock pair read back through
        ``pygb_kernel_ns()``; the difference is the ctypes/marshalling
        boundary cost (the per-op overhead of paper Figs. 7/8)."""
        if not obs.ACTIVE:
            return lib.pygb_run(*args)
        tracer = obs.active_tracer()
        if tracer is None:
            return lib.pygb_run(*args)
        t0 = time.perf_counter_ns()
        try:
            return lib.pygb_run(*args)
        finally:
            dur = time.perf_counter_ns() - t0
            kernel_fn = getattr(lib, "pygb_kernel_ns", None)
            kernel_ns = int(kernel_fn()) if kernel_fn is not None else None
            tracer.record(
                "ffi_call",
                "ffi",
                t0,
                dur,
                {
                    "engine": "cpp",
                    "lib": os.path.basename(lib._name) if lib._name else None,
                    "kernel_ns": kernel_ns,
                    "boundary_ns": dur - kernel_ns if kernel_ns is not None else None,
                },
            )

    # ------------------------------------------------------------------
    # result unmarshalling
    # ------------------------------------------------------------------
    @staticmethod
    def _copy_values(ptr, nnz: int, dtype) -> np.ndarray:
        dt = np.dtype(dtype)
        cdt = np.dtype(np.uint8) if dt == np.bool_ else dt
        raw = ctypes.string_at(ptr, nnz * cdt.itemsize)
        vals = np.frombuffer(raw, dtype=cdt).copy()
        return vals.view(np.bool_) if dt == np.bool_ else vals

    def _run_vec_out(self, lib, packed: _Args, size: int, dtype) -> SparseVector:
        out_idx = POINTER(c_int64)()
        out_vals = c_void_p()
        nnz = self._ffi_call(lib, (*packed.args, byref(out_idx), byref(out_vals)))
        if nnz == -2:
            # cancellation sentinel: the kernel bailed before the writeback,
            # so no output buffers were allocated — nothing to free
            raise OperationCancelled("C++ kernel observed cancellation flag")
        if nnz < 0:
            raise CompilationError("C++ kernel signalled failure")
        if nnz > 0:
            idx = np.ctypeslib.as_array(out_idx, shape=(nnz,)).copy()
            vals = self._copy_values(out_vals, nnz, dtype)
        else:
            idx = np.empty(0, _I64)
            vals = np.empty(0, np.dtype(dtype))
        lib.pygb_free(out_idx)
        lib.pygb_free(out_vals)
        return SparseVector.from_sorted(size, idx, vals)

    def _run_mat_out(self, lib, packed: _Args, nrows, ncols, dtype) -> SparseMatrix:
        out_indptr = POINTER(c_int64)()
        out_indices = POINTER(c_int64)()
        out_values = c_void_p()
        nnz = self._ffi_call(
            lib,
            (*packed.args, byref(out_indptr), byref(out_indices), byref(out_values)),
        )
        if nnz == -2:
            raise OperationCancelled("C++ kernel observed cancellation flag")
        if nnz < 0:
            raise CompilationError("C++ kernel signalled failure")
        indptr = np.ctypeslib.as_array(out_indptr, shape=(nrows + 1,)).copy()
        if nnz > 0:
            indices = np.ctypeslib.as_array(out_indices, shape=(nnz,)).copy()
            values = self._copy_values(out_values, nnz, dtype)
        else:
            indices = np.empty(0, _I64)
            values = np.empty(0, np.dtype(dtype))
        lib.pygb_free(out_indptr)
        lib.pygb_free(out_indices)
        lib.pygb_free(out_values)
        return SparseMatrix(nrows, ncols, indptr, indices, values)

    # ------------------------------------------------------------------
    # engine interface
    # ------------------------------------------------------------------
    @staticmethod
    def _frontier_edges(s: SparseMatrix, u: SparseVector) -> int:
        """Σ degree(frontier) over the scatter matrix's row pointers —
        exactly the edges the GB::vxm scatter kernel walks."""
        if u.nvals == 0:
            return 0
        rows = np.asarray(u.indices, _I64)
        indptr = np.asarray(s.indptr)
        return int((indptr[rows + 1] - indptr[rows]).sum())

    @staticmethod
    def _note_pull_edges(lib) -> None:
        fn = getattr(lib, "pygb_edges_examined", None)
        _schedule.note_edges("pull", int(fn()) if fn is not None else 0)

    def mxv(self, out, a, u, add, mult, desc, ta=False, sched=None):
        direction = sched.direction if sched is not None else "dense"
        # orientation resolves here, as for plain transposes: dense/pull
        # TUs compile against the gather matrix, push TUs against its
        # transpose (the scatter form GB::vxm walks)
        if direction == "push":
            a = a if ta else a.transposed()
        elif ta:
            a = a.transposed()
        extra = {"dir": direction} if direction != "dense" else {}
        spec = self._spec(
            "mxv",
            a=KernelSpec.dt(a.dtype),
            u=KernelSpec.dt(u.dtype),
            c=KernelSpec.dt(out.dtype),
            t_dtype=KernelSpec.dt(binary_result_dtype(mult, a.dtype, u.dtype)),
            add=add,
            mult=mult,
            **extra,
            **_desc_params(desc),
        )
        lib = self._lib(spec)
        p = _Args()
        p.csr(a)
        p.vec(u)
        p.vec(out)
        p.mask_vec(desc.mask)
        if direction == "pull":
            p.index_list(sched.candidates)
        result = self._run_vec_out(lib, p, out.size, out.dtype)
        if sched is not None:
            if direction == "pull":
                self._note_pull_edges(lib)
            elif direction == "push":
                _schedule.note_edges("push", self._frontier_edges(a, u))
            else:
                _schedule.note_edges("dense", int(a.indices.size))
        return result

    def vxm(self, out, u, a, add, mult, desc, ta=False, sched=None):
        direction = sched.direction if sched is not None else "dense"
        # GB::vxm is natively a scatter kernel, so dense and push share
        # the effective matrix (and the legacy spec/artifact); pull
        # gathers over its transpose with the mask's candidate rows
        if direction == "pull":
            a = a if ta else a.transposed()
        elif ta:
            a = a.transposed()
        extra = {"dir": "pull"} if direction == "pull" else {}
        spec = self._spec(
            "vxm",
            a=KernelSpec.dt(a.dtype),
            u=KernelSpec.dt(u.dtype),
            c=KernelSpec.dt(out.dtype),
            t_dtype=KernelSpec.dt(binary_result_dtype(mult, u.dtype, a.dtype)),
            add=add,
            mult=mult,
            **extra,
            **_desc_params(desc),
        )
        lib = self._lib(spec)
        p = _Args()
        p.csr(a)
        p.vec(u)
        p.vec(out)
        p.mask_vec(desc.mask)
        if direction == "pull":
            p.index_list(sched.candidates)
        result = self._run_vec_out(lib, p, out.size, out.dtype)
        if sched is not None:
            if direction == "pull":
                self._note_pull_edges(lib)
            else:
                # the scatter kernel's scan is a frontier degree sum even
                # for the "dense" (legacy) schedule — count honestly
                _schedule.note_edges(direction, self._frontier_edges(a, u))
        return result

    def mxm(self, out, a, b, add, mult, desc, ta=False, tb=False):
        if ta:
            a = a.transposed()
        if tb:
            b = b.transposed()
        spec = self._spec(
            "mxm",
            a=KernelSpec.dt(a.dtype),
            b=KernelSpec.dt(b.dtype),
            c=KernelSpec.dt(out.dtype),
            t_dtype=KernelSpec.dt(binary_result_dtype(mult, a.dtype, b.dtype)),
            add=add,
            mult=mult,
            **_desc_params(desc),
        )
        lib = self._lib(spec)
        p = _Args()
        p.csr(a)
        p.csr(b)
        p.csr(out)
        p.mask_mat(desc.mask)
        return self._run_mat_out(lib, p, out.nrows, out.ncols, out.dtype)

    def _ewise_vec(self, func, out, u, v, op, desc):
        spec = self._spec(
            func,
            a=KernelSpec.dt(u.dtype),
            b=KernelSpec.dt(v.dtype),
            c=KernelSpec.dt(out.dtype),
            t_dtype=KernelSpec.dt(binary_result_dtype(op, u.dtype, v.dtype)),
            op=op,
            **_desc_params(desc),
        )
        lib = self._lib(spec)
        p = _Args()
        p.vec(u)
        p.vec(v, with_size=False)
        p.vec(out)
        p.mask_vec(desc.mask)
        return self._run_vec_out(lib, p, out.size, out.dtype)

    def ewise_add_vec(self, out, u, v, op, desc):
        return self._ewise_vec("ewise_add_vec", out, u, v, op, desc)

    def ewise_mult_vec(self, out, u, v, op, desc):
        return self._ewise_vec("ewise_mult_vec", out, u, v, op, desc)

    def _ewise_mat(self, func, out, a, b, op, desc, ta, tb):
        if ta:
            a = a.transposed()
        if tb:
            b = b.transposed()
        spec = self._spec(
            func,
            a=KernelSpec.dt(a.dtype),
            b=KernelSpec.dt(b.dtype),
            c=KernelSpec.dt(out.dtype),
            t_dtype=KernelSpec.dt(binary_result_dtype(op, a.dtype, b.dtype)),
            op=op,
            **_desc_params(desc),
        )
        lib = self._lib(spec)
        p = _Args()
        p.csr(a)
        p.csr(b, with_dims=False)
        p.csr(out, with_dims=False)
        p.mask_mat(desc.mask)
        return self._run_mat_out(lib, p, out.nrows, out.ncols, out.dtype)

    def ewise_add_mat(self, out, a, b, op, desc, ta=False, tb=False):
        return self._ewise_mat("ewise_add_mat", out, a, b, op, desc, ta, tb)

    def ewise_mult_mat(self, out, a, b, op, desc, ta=False, tb=False):
        return self._ewise_mat("ewise_mult_mat", out, a, b, op, desc, ta, tb)

    @staticmethod
    def _apply_spec_parts(op_spec, out_dtype):
        if op_spec[0] == "unary":
            d, i = _scalar_pair(0, prefer_float=True)
            return d, i, "unary", op_spec[1], "none"
        _, name, const, side = op_spec
        prefer_float = np.dtype(out_dtype).kind == "f"
        d, i = _scalar_pair(const, prefer_float)
        return d, i, "bind", name, side

    def apply_vec(self, out, u, op_spec, desc):
        dconst, iconst, form, op, side = self._apply_spec_parts(op_spec, out.dtype)
        spec = self._spec(
            "apply_vec",
            a=KernelSpec.dt(u.dtype),
            c=KernelSpec.dt(out.dtype),
            form=form,
            op=op,
            side=side,
            **_desc_params(desc),
        )
        lib = self._lib(spec)
        p = _Args()
        p.vec(u)
        p.vec(out)
        p.mask_vec(desc.mask)
        p.raw(dconst)
        p.raw(iconst)
        return self._run_vec_out(lib, p, out.size, out.dtype)

    def apply_mat(self, out, a, op_spec, desc, ta=False):
        if ta:
            a = a.transposed()
        dconst, iconst, form, op, side = self._apply_spec_parts(op_spec, out.dtype)
        spec = self._spec(
            "apply_mat",
            a=KernelSpec.dt(a.dtype),
            c=KernelSpec.dt(out.dtype),
            form=form,
            op=op,
            side=side,
            **_desc_params(desc),
        )
        lib = self._lib(spec)
        p = _Args()
        p.csr(a)
        p.csr(out, with_dims=False)
        p.mask_mat(desc.mask)
        p.raw(dconst)
        p.raw(iconst)
        return self._run_mat_out(lib, p, out.nrows, out.ncols, out.dtype)

    def _reduce_scalar(self, func, x, op, identity, matrix: bool):
        if identity is None:
            identity = DEFAULT_IDENTITY_NAME[op]
        ident = identity_value(identity, x.dtype)
        spec = self._spec(func, a=KernelSpec.dt(x.dtype), op=op)
        lib = self._lib(spec, scalar_out=True)
        dt = np.dtype(x.dtype)
        out = np.zeros(1, dtype=np.uint8 if dt == np.bool_ else dt)
        p = _Args()
        if matrix:
            p.csr(x)
        else:
            p.vec(x)
        d, i = _scalar_pair(ident, prefer_float=dt.kind == "f")
        p.raw(d)
        p.raw(i)
        p.ptr(out.view(np.uint8) if dt == np.bool_ else out)
        self._ffi_call(lib, p.args)
        val = out.view(np.bool_)[0] if dt == np.bool_ else out[0]
        return dt.type(val)

    def reduce_mat_scalar(self, a, op, identity):
        return self._reduce_scalar("reduce_mat_scalar", a, op, identity, matrix=True)

    def reduce_vec_scalar(self, u, op, identity):
        return self._reduce_scalar("reduce_vec_scalar", u, op, identity, matrix=False)

    def reduce_rows(self, out, a, op, desc, ta=False):
        if ta:
            a = a.transposed()
        spec = self._spec(
            "reduce_rows",
            a=KernelSpec.dt(a.dtype),
            c=KernelSpec.dt(out.dtype),
            op=op,
            **_desc_params(desc),
        )
        lib = self._lib(spec)
        p = _Args()
        p.csr(a)
        p.vec(out)
        p.mask_vec(desc.mask)
        return self._run_vec_out(lib, p, out.size, out.dtype)

    def assign_vec(self, out, u, idx, desc):
        spec = self._spec(
            "assign_vec",
            a=KernelSpec.dt(u.dtype),
            c=KernelSpec.dt(out.dtype),
            **_desc_params(desc),
        )
        lib = self._lib(spec)
        p = _Args()
        p.vec(out)
        p.vec(u)
        p.index_list(idx)
        p.mask_vec(desc.mask)
        return self._run_vec_out(lib, p, out.size, out.dtype)

    def assign_vec_scalar(self, out, value, idx, desc):
        spec = self._spec(
            "assign_vec_scalar",
            c=KernelSpec.dt(out.dtype),
            **_desc_params(desc),
        )
        lib = self._lib(spec)
        p = _Args()
        p.vec(out)
        d, i = _scalar_pair(value, prefer_float=np.dtype(out.dtype).kind == "f")
        p.raw(d)
        p.raw(i)
        p.index_list(idx)
        p.mask_vec(desc.mask)
        return self._run_vec_out(lib, p, out.size, out.dtype)

    def extract_vec(self, out, u, idx, desc):
        spec = self._spec(
            "extract_vec",
            a=KernelSpec.dt(u.dtype),
            c=KernelSpec.dt(out.dtype),
            **_desc_params(desc),
        )
        lib = self._lib(spec)
        p = _Args()
        p.vec(out)
        p.vec(u)
        p.index_list(idx)
        p.mask_vec(desc.mask)
        return self._run_vec_out(lib, p, out.size, out.dtype)

    # ------------------------------------------------------------------
    # compile prefetch (nonblocking queue): predict the kernel specs a
    # deferred expression will dispatch so the JIT cache can start g++
    # in the background while the queue is still being built
    # ------------------------------------------------------------------
    def prefetch_jobs(self, expr, out_dtype, desc):
        """Best-effort ``(spec, generate, compiler)`` jobs for the
        kernels evaluating *expr* into a *out_dtype* container under
        *desc* will need — including the fused kernels the planner is
        predicted to emit for ``apply(producer)`` pairs.  Mispredictions
        are harmless: the flush compiles whatever is missing, and warm
        cache entries are hits, not rebuilds."""
        from ..core import expressions as ex
        from ..core.plan import fusion_enabled

        jobs: list = []
        seen: set[int] = set()
        fuse = fusion_enabled()

        def dt(operand):
            return np.dtype(ex._dtype_of(operand))

        def add_job(spec):
            jobs.append(
                (spec, generate_cpp_source, self.compiler_for(spec))
            )

        def fused_apply(node, out_dt, dp):
            """Predict the planner's producer+apply fusion; returns True
            when a fused spec was emitted for this node."""
            child = node.a
            if (
                not isinstance(child, ex.Expression)
                or child._materialized is not None
                or getattr(node, "ta", False)
            ):
                return False
            _d, _i, form, uop, side = self._apply_spec_parts(node.op_spec, out_dt)
            ck = type(child)
            if ck in (ex.MXV, ex.VXM):
                lhs, rhs = (
                    (dt(child.a), dt(child.u))
                    if ck is ex.MXV
                    else (dt(child.u), dt(child.a))
                )
                tdt = binary_result_dtype(child.mult_op, lhs, rhs)
                pdt = binary_result_dtype(child.add_op, tdt, tdt)
                add_job(self._spec(
                    "mxv_apply" if ck is ex.MXV else "vxm_apply",
                    a=KernelSpec.dt(dt(child.a)),
                    u=KernelSpec.dt(dt(child.u)),
                    c=KernelSpec.dt(out_dt),
                    t_dtype=KernelSpec.dt(tdt),
                    p=KernelSpec.dt(pdt),
                    add=child.add_op,
                    mult=child.mult_op,
                    form=form,
                    uop=uop,
                    side=side,
                    fused=True,
                    **dp,
                ))
            elif ck in (ex.EWiseAdd, ex.EWiseMult):
                pdt = binary_result_dtype(child.op, dt(child.a), dt(child.b))
                shape = "mat" if child.produces_matrix else "vec"
                add_job(self._spec(
                    f"{child.kind}_{shape}_apply",
                    a=KernelSpec.dt(dt(child.a)),
                    b=KernelSpec.dt(dt(child.b)),
                    c=KernelSpec.dt(out_dt),
                    t_dtype=KernelSpec.dt(pdt),
                    p=KernelSpec.dt(pdt),
                    op=child.op,
                    form=form,
                    uop=uop,
                    side=side,
                    fused=True,
                    **dp,
                ))
            else:
                return False
            for slot in child.operand_slots:
                walk(getattr(child, slot), None, None)
            return True

        def walk(node, out_dt, node_desc):
            if not isinstance(node, ex.Expression) or node._materialized is not None:
                return
            if id(node) in seen:
                return
            seen.add(id(node))
            if out_dt is None:
                out_dt = dt(node)  # interior temporaries use natural dtype
            dp = _desc_params(node_desc if node_desc is not None else OpDesc())
            kind = type(node)
            if kind is ex.Apply and fuse and fused_apply(node, out_dt, dp):
                return
            if kind in (ex.MXV, ex.VXM):
                lhs, rhs = (
                    (dt(node.a), dt(node.u))
                    if kind is ex.MXV
                    else (dt(node.u), dt(node.a))
                )
                tdt = binary_result_dtype(node.mult_op, lhs, rhs)
                add_job(self._spec(
                    "mxv" if kind is ex.MXV else "vxm",
                    a=KernelSpec.dt(dt(node.a)),
                    u=KernelSpec.dt(dt(node.u)),
                    c=KernelSpec.dt(out_dt),
                    t_dtype=KernelSpec.dt(tdt),
                    add=node.add_op,
                    mult=node.mult_op,
                    **dp,
                ))
            elif kind is ex.MXM:
                tdt = binary_result_dtype(node.mult_op, dt(node.a), dt(node.b))
                add_job(self._spec(
                    "mxm",
                    a=KernelSpec.dt(dt(node.a)),
                    b=KernelSpec.dt(dt(node.b)),
                    c=KernelSpec.dt(out_dt),
                    t_dtype=KernelSpec.dt(tdt),
                    add=node.add_op,
                    mult=node.mult_op,
                    **dp,
                ))
            elif kind in (ex.EWiseAdd, ex.EWiseMult):
                tdt = binary_result_dtype(node.op, dt(node.a), dt(node.b))
                shape = "mat" if node.produces_matrix else "vec"
                add_job(self._spec(
                    f"{node.kind}_{shape}",
                    a=KernelSpec.dt(dt(node.a)),
                    b=KernelSpec.dt(dt(node.b)),
                    c=KernelSpec.dt(out_dt),
                    t_dtype=KernelSpec.dt(tdt),
                    op=node.op,
                    **dp,
                ))
            elif kind is ex.Apply:
                _d, _i, form, op, side = self._apply_spec_parts(node.op_spec, out_dt)
                shape = "mat" if node.produces_matrix else "vec"
                add_job(self._spec(
                    f"apply_{shape}",
                    a=KernelSpec.dt(dt(node.a)),
                    c=KernelSpec.dt(out_dt),
                    form=form,
                    op=op,
                    side=side,
                    **dp,
                ))
            elif kind is ex.ReduceRows:
                add_job(self._spec(
                    "reduce_rows",
                    a=KernelSpec.dt(dt(node.a)),
                    c=KernelSpec.dt(out_dt),
                    op=node.op,
                    **dp,
                ))
            # Select / Kronecker / Transpose / Extract are rare enough that
            # the flush-time compile is acceptable; operands still walk
            for slot in node.operand_slots:
                walk(getattr(node, slot), None, None)

        walk(expr, np.dtype(out_dtype), desc)
        return jobs

    # ------------------------------------------------------------------
    # fused kernels (planner output; one FFI call for a producer+consumer
    # pair, intermediate stays inside the shared object)
    # ------------------------------------------------------------------
    def mxv_apply(self, out, a, u, add, mult, op_spec, desc, ta=False):
        if ta:
            a = a.transposed()
        tdt = binary_result_dtype(mult, a.dtype, u.dtype)
        pdt = binary_result_dtype(add, tdt, tdt)
        dconst, iconst, form, uop, side = self._apply_spec_parts(op_spec, out.dtype)
        spec = self._spec(
            "mxv_apply",
            a=KernelSpec.dt(a.dtype),
            u=KernelSpec.dt(u.dtype),
            c=KernelSpec.dt(out.dtype),
            t_dtype=KernelSpec.dt(tdt),
            p=KernelSpec.dt(pdt),
            add=add,
            mult=mult,
            form=form,
            uop=uop,
            side=side,
            fused=True,
            **_desc_params(desc),
        )
        lib = self._lib(spec)
        p = _Args()
        p.csr(a)
        p.vec(u)
        p.vec(out)
        p.mask_vec(desc.mask)
        p.raw(dconst)
        p.raw(iconst)
        return self._run_vec_out(lib, p, out.size, out.dtype)

    def vxm_apply(self, out, u, a, add, mult, op_spec, desc, ta=False):
        if ta:
            a = a.transposed()
        tdt = binary_result_dtype(mult, u.dtype, a.dtype)
        pdt = binary_result_dtype(add, tdt, tdt)
        dconst, iconst, form, uop, side = self._apply_spec_parts(op_spec, out.dtype)
        spec = self._spec(
            "vxm_apply",
            a=KernelSpec.dt(a.dtype),
            u=KernelSpec.dt(u.dtype),
            c=KernelSpec.dt(out.dtype),
            t_dtype=KernelSpec.dt(tdt),
            p=KernelSpec.dt(pdt),
            add=add,
            mult=mult,
            form=form,
            uop=uop,
            side=side,
            fused=True,
            **_desc_params(desc),
        )
        lib = self._lib(spec)
        p = _Args()
        p.csr(a)
        p.vec(u)
        p.vec(out)
        p.mask_vec(desc.mask)
        p.raw(dconst)
        p.raw(iconst)
        return self._run_vec_out(lib, p, out.size, out.dtype)

    def _ewise_vec_apply(self, func, out, u, v, op, op_spec, desc):
        pdt = binary_result_dtype(op, u.dtype, v.dtype)
        dconst, iconst, form, uop, side = self._apply_spec_parts(op_spec, out.dtype)
        spec = self._spec(
            func,
            a=KernelSpec.dt(u.dtype),
            b=KernelSpec.dt(v.dtype),
            c=KernelSpec.dt(out.dtype),
            t_dtype=KernelSpec.dt(pdt),
            p=KernelSpec.dt(pdt),
            op=op,
            form=form,
            uop=uop,
            side=side,
            fused=True,
            **_desc_params(desc),
        )
        lib = self._lib(spec)
        p = _Args()
        p.vec(u)
        p.vec(v, with_size=False)
        p.vec(out)
        p.mask_vec(desc.mask)
        p.raw(dconst)
        p.raw(iconst)
        return self._run_vec_out(lib, p, out.size, out.dtype)

    def ewise_add_vec_apply(self, out, u, v, op, op_spec, desc):
        return self._ewise_vec_apply("ewise_add_vec_apply", out, u, v, op, op_spec, desc)

    def ewise_mult_vec_apply(self, out, u, v, op, op_spec, desc):
        return self._ewise_vec_apply("ewise_mult_vec_apply", out, u, v, op, op_spec, desc)

    def _ewise_mat_apply(self, func, out, a, b, op, op_spec, desc, ta, tb):
        if ta:
            a = a.transposed()
        if tb:
            b = b.transposed()
        pdt = binary_result_dtype(op, a.dtype, b.dtype)
        dconst, iconst, form, uop, side = self._apply_spec_parts(op_spec, out.dtype)
        spec = self._spec(
            func,
            a=KernelSpec.dt(a.dtype),
            b=KernelSpec.dt(b.dtype),
            c=KernelSpec.dt(out.dtype),
            t_dtype=KernelSpec.dt(pdt),
            p=KernelSpec.dt(pdt),
            op=op,
            form=form,
            uop=uop,
            side=side,
            fused=True,
            **_desc_params(desc),
        )
        lib = self._lib(spec)
        p = _Args()
        p.csr(a)
        p.csr(b, with_dims=False)
        p.csr(out, with_dims=False)
        p.mask_mat(desc.mask)
        p.raw(dconst)
        p.raw(iconst)
        return self._run_mat_out(lib, p, out.nrows, out.ncols, out.dtype)

    def ewise_add_mat_apply(self, out, a, b, op, op_spec, desc, ta=False, tb=False):
        return self._ewise_mat_apply(
            "ewise_add_mat_apply", out, a, b, op, op_spec, desc, ta, tb
        )

    def ewise_mult_mat_apply(self, out, a, b, op, op_spec, desc, ta=False, tb=False):
        return self._ewise_mat_apply(
            "ewise_mult_mat_apply", out, a, b, op, op_spec, desc, ta, tb
        )

    def mxm_reduce_rows(self, out, a, b, add, mult, rop, desc, ta=False, tb=False):
        if ta:
            a = a.transposed()
        if tb:
            b = b.transposed()
        tdt = binary_result_dtype(mult, a.dtype, b.dtype)
        pdt = binary_result_dtype(add, tdt, tdt)
        spec = self._spec(
            "mxm_reduce_rows",
            a=KernelSpec.dt(a.dtype),
            b=KernelSpec.dt(b.dtype),
            c=KernelSpec.dt(out.dtype),
            t_dtype=KernelSpec.dt(tdt),
            p=KernelSpec.dt(pdt),
            add=add,
            mult=mult,
            rop=rop,
            fused=True,
            **_desc_params(desc),
        )
        lib = self._lib(spec)
        p = _Args()
        p.csr(a)
        p.csr(b)
        p.vec(out)
        p.mask_vec(desc.mask)
        return self._run_vec_out(lib, p, out.size, out.dtype)

    def apply_assign_vec(self, out, u, op_spec, idx, desc):
        from ..backend.kernels import apply_result_dtype

        pdt = apply_result_dtype(op_spec, u.dtype)
        dconst, iconst, form, uop, side = self._apply_spec_parts(op_spec, pdt)
        spec = self._spec(
            "apply_assign_vec",
            a=KernelSpec.dt(u.dtype),
            c=KernelSpec.dt(out.dtype),
            p=KernelSpec.dt(pdt),
            form=form,
            uop=uop,
            side=side,
            fused=True,
            **_desc_params(desc),
        )
        lib = self._lib(spec)
        p = _Args()
        p.vec(out)
        p.vec(u)
        p.index_list(idx)
        p.mask_vec(desc.mask)
        p.raw(dconst)
        p.raw(iconst)
        return self._run_vec_out(lib, p, out.size, out.dtype)

    def _ewise_reduce_scalar(self, func, u, v, op, rop, identity):
        pdt = np.dtype(binary_result_dtype(op, u.dtype, v.dtype))
        if identity is None:
            identity = DEFAULT_IDENTITY_NAME[rop]
        ident = identity_value(identity, pdt)
        spec = self._spec(
            func,
            a=KernelSpec.dt(u.dtype),
            b=KernelSpec.dt(v.dtype),
            p=KernelSpec.dt(pdt),
            op=op,
            rop=rop,
            fused=True,
        )
        lib = self._lib(spec, scalar_out=True)
        out = np.zeros(1, dtype=np.uint8 if pdt == np.bool_ else pdt)
        p = _Args()
        p.vec(u)
        p.vec(v, with_size=False)
        d, i = _scalar_pair(ident, prefer_float=pdt.kind == "f")
        p.raw(d)
        p.raw(i)
        p.ptr(out.view(np.uint8) if pdt == np.bool_ else out)
        self._ffi_call(lib, p.args)
        val = out.view(np.bool_)[0] if pdt == np.bool_ else out[0]
        return pdt.type(val)

    def ewise_add_vec_reduce_scalar(self, u, v, op, rop, identity=None):
        return self._ewise_reduce_scalar(
            "ewise_add_vec_reduce_scalar", u, v, op, rop, identity
        )

    def ewise_mult_vec_reduce_scalar(self, u, v, op, rop, identity=None):
        return self._ewise_reduce_scalar(
            "ewise_mult_vec_reduce_scalar", u, v, op, rop, identity
        )

    # -- interpreted fallbacks (ops without a native binding) -----------
    def transpose(self, out, a, desc):
        return self._fallback.transpose(out, a, desc)

    def extract_mat(self, out, a, rows, cols, desc, ta=False):
        return self._fallback.extract_mat(out, a, rows, cols, desc, ta)

    def assign_mat(self, out, a, rows, cols, desc, ta=False):
        return self._fallback.assign_mat(out, a, rows, cols, desc, ta)

    def assign_mat_scalar(self, out, value, rows, cols, desc):
        return self._fallback.assign_mat_scalar(out, value, rows, cols, desc)

    def select_mat(self, out, a, op, thunk, desc, ta=False):
        return self._fallback.select_mat(out, a, op, thunk, desc, ta)

    def select_vec(self, out, u, op, thunk, desc):
        return self._fallback.select_vec(out, u, op, thunk, desc)

    def kronecker(self, out, a, b, op, desc, ta=False, tb=False):
        return self._fallback.kronecker(out, a, b, op, desc, ta, tb)
