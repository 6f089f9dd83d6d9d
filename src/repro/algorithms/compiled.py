"""The compiled whole-algorithm execution versions (paper Sec. VI).

Each function here JIT-compiles the complete algorithm as a single C++
module (:mod:`~repro.jit.algorithm_codegen`), calls it once, and returns
``(result, elapsed_ns)`` where ``elapsed_ns`` was measured *inside* the
C++ code with ``std::chrono``:

* timing the Python call from outside gives the paper's **version 2**
  (Python calls a complete C++ algorithm — includes the single FFI
  crossing and buffer marshalling);
* the returned ``elapsed_ns`` is the paper's **version 3** (native C++
  timing, no Python anywhere on the measured path).

All functions require a C++ toolchain and raise
:class:`~repro.exceptions.BackendUnavailable` otherwise.
"""

from __future__ import annotations

import ctypes
from ctypes import POINTER, byref, c_double, c_int64, c_void_p

import numpy as np

from ..backend.smatrix import SparseMatrix
from ..backend.svector import SparseVector
from ..exceptions import BackendUnavailable
from ..jit.algorithm_codegen import generate_algorithm_source
from ..jit.cache import default_cache
from ..jit.cppengine import CppJitEngine, compiler_available
from ..jit.spec import KernelSpec

__all__ = [
    "bfs_compiled",
    "sssp_compiled",
    "pagerank_compiled",
    "triangle_count_compiled",
]

_I64 = np.dtype(np.int64)


class _AlgoRunner:
    """Shared compile/load plumbing for whole-algorithm modules."""

    def __init__(self):
        if not compiler_available():
            raise BackendUnavailable(
                "compiled algorithm versions need a C++ toolchain (g++)"
            )
        self._engine = CppJitEngine()  # reuse its compiler + cache dir
        self._libs: dict[str, ctypes.CDLL] = {}

    def lib(self, func: str, vtype, scalar_out: bool = False) -> ctypes.CDLL:
        spec = KernelSpec.make(func, vtype=KernelSpec.dt(vtype))
        artifact = default_cache().get_module(
            spec, generate_algorithm_source, compiler=self._engine._compile
        )
        key = str(artifact)
        lib = self._libs.get(key)
        if lib is None:
            lib = ctypes.CDLL(key)
            lib.pygb_run.restype = None if scalar_out else c_int64
            self._libs[key] = lib
        return lib


_runner: _AlgoRunner | None = None


def _get_runner() -> _AlgoRunner:
    global _runner
    if _runner is None:
        _runner = _AlgoRunner()
    return _runner


def _csr_ptrs(m: SparseMatrix):
    indptr = np.ascontiguousarray(m.indptr, _I64)
    indices = np.ascontiguousarray(m.indices, _I64)
    values = np.ascontiguousarray(m.values)
    if values.dtype == np.bool_:
        values = values.view(np.uint8)
    return indptr, indices, values


def _ptr(a: np.ndarray):
    return None if a.size == 0 else a.ctypes.data_as(c_void_p)


def _take_vec(lib, nnz, out_idx, out_vals, size, dtype) -> SparseVector:
    dt = np.dtype(dtype)
    cdt = np.dtype(np.uint8) if dt == np.bool_ else dt
    if nnz > 0:
        idx = np.ctypeslib.as_array(out_idx, shape=(nnz,)).copy()
        vals = np.frombuffer(
            ctypes.string_at(out_vals, nnz * cdt.itemsize), dtype=cdt
        ).copy()
        if dt == np.bool_:
            vals = vals.view(np.bool_)
    else:
        idx = np.empty(0, _I64)
        vals = np.empty(0, dt)
    lib.pygb_free(out_idx)
    lib.pygb_free(out_vals)
    return SparseVector.from_sorted(size, idx, vals)


def bfs_compiled(graph: SparseMatrix, source: int) -> tuple[SparseVector, int]:
    """BFS as one compiled C++ module.  Takes the backend store of the
    graph; returns ``(levels, elapsed_ns)``."""
    gt = graph.transposed()
    lib = _get_runner().lib("algo_bfs", gt.dtype)
    indptr, indices, values = _csr_ptrs(gt)
    out_idx = POINTER(c_int64)()
    out_vals = c_void_p()
    elapsed = c_int64(0)
    nnz = lib.pygb_run(
        c_int64(gt.nrows), _ptr(indptr), _ptr(indices), _ptr(values),
        c_int64(source), byref(out_idx), byref(out_vals), byref(elapsed),
    )
    levels = _take_vec(lib, nnz, out_idx, out_vals, gt.nrows, np.int64)
    return levels, elapsed.value


def sssp_compiled(graph: SparseMatrix, source: int) -> tuple[SparseVector, int]:
    """SSSP (converging variant) as one compiled C++ module."""
    gt = graph.transposed()
    lib = _get_runner().lib("algo_sssp", gt.dtype)
    indptr, indices, values = _csr_ptrs(gt)
    out_idx = POINTER(c_int64)()
    out_vals = c_void_p()
    elapsed = c_int64(0)
    nnz = lib.pygb_run(
        c_int64(gt.nrows), _ptr(indptr), _ptr(indices), _ptr(values),
        c_int64(source), byref(out_idx), byref(out_vals), byref(elapsed),
    )
    path = _take_vec(lib, nnz, out_idx, out_vals, gt.nrows, gt.dtype)
    return path, elapsed.value


def pagerank_compiled(
    graph: SparseMatrix,
    damping_factor: float = 0.85,
    threshold: float = 1.0e-5,
    max_iters: int = 100000,
) -> tuple[SparseVector, int]:
    """PageRank as one compiled C++ module (graph values are cast to the
    rank type, float64, before the call)."""
    g = graph.astype(np.float64)
    lib = _get_runner().lib("algo_pagerank", np.float64)
    indptr, indices, values = _csr_ptrs(g)
    out_idx = POINTER(c_int64)()
    out_vals = c_void_p()
    elapsed = c_int64(0)
    nnz = lib.pygb_run(
        c_int64(g.nrows), _ptr(indptr), _ptr(indices), _ptr(values),
        c_double(damping_factor), c_double(threshold), c_int64(max_iters),
        byref(out_idx), byref(out_vals), byref(elapsed),
    )
    ranks = _take_vec(lib, nnz, out_idx, out_vals, g.nrows, np.float64)
    return ranks, elapsed.value


def triangle_count_compiled(L: SparseMatrix) -> tuple[int, int]:
    """Triangle counting as one compiled C++ module; returns
    ``(triangles, elapsed_ns)``."""
    lib = _get_runner().lib("algo_triangle_count", L.dtype, scalar_out=True)
    lt = L.transposed()
    l_indptr, l_indices, l_values = _csr_ptrs(L)
    t_indptr, t_indices, t_values = _csr_ptrs(lt)
    dt = np.dtype(L.dtype)
    out = np.zeros(1, dtype=np.uint8 if dt == np.bool_ else dt)
    elapsed = c_int64(0)
    lib.pygb_run(
        c_int64(L.nrows), _ptr(l_indptr), _ptr(l_indices), _ptr(l_values),
        _ptr(t_indptr), _ptr(t_indices), _ptr(t_values),
        _ptr(out.view(np.uint8) if dt == np.bool_ else out), byref(elapsed),
    )
    count = int(out.view(np.bool_)[0]) if dt == np.bool_ else int(out[0])
    return count, elapsed.value
