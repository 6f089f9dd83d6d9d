"""The bundled mini-GBTL C++17 header.

The paper compiles generated binding files against GBTL, the authors' C++
GraphBLAS template library.  GBTL is not vendored here, so this module
carries a from-scratch, self-contained replacement implementing the same
surface the binding files need: sparse containers, the Fig. 6 operator
functors under the same names, and templated kernels for every operation
the C++ engine compiles (semiring mxv/vxm/mxm with dense-accumulator
Gustavson SpGEMM, sorted-merge eWise ops, apply/reduce, assign/extract,
and the shared masked accumulate-write stage).

Every kernel is serial, as in the paper's one ``g++ -O2`` artifact per
binding file; each compute sweep polls the cancellation flag.  Parallelism
lives one level up, in the row-tile plane (``PYGB_TILES``), which runs
disjoint row blocks of one operation on worker threads.

The header text is written once into the JIT cache directory; per-spec
binding translation units ``#include`` it (see
:mod:`~repro.jit.cppcodegen`).
"""

from __future__ import annotations

__all__ = ["GBTL_LITE_HEADER", "HEADER_FILENAME"]

HEADER_FILENAME = "gbtl_lite.hpp"

GBTL_LITE_HEADER = r"""
// gbtl_lite.hpp — mini-GBTL for the PyGB reproduction. Auto-written; do not edit.
#pragma once
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

namespace GB {

using Index = int64_t;

// ---------------------------------------------------------------------
// kernel-time observability.  Every generated pygb_run stack-allocates a
// KernelTimer; its destructor stores the kernel's wall time (monotonic
// clock — clock_gettime(CLOCK_MONOTONIC) under the hood) in a
// thread-local slot the binding exposes through pygb_kernel_ns().  The
// Python tracer subtracts this from its own around-the-FFI-call timing
// to split marshalling overhead from compute (paper Figs. 7/8).
// ---------------------------------------------------------------------
inline int64_t& last_kernel_ns_ref() {
    thread_local int64_t ns = 0;
    return ns;
}

struct KernelTimer {
    std::chrono::steady_clock::time_point t0{std::chrono::steady_clock::now()};
    ~KernelTimer() {
        last_kernel_ns_ref() = std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0).count();
    }
};

// edges examined by the most recent direction-optimized traversal kernel
// on this thread; push/pull binding TUs expose it through
// pygb_edges_examined() so the engine can feed the schedule-layer
// counters (the perf-trajectory metric behind the push/pull switch).
inline int64_t& edges_examined_ref() {
    thread_local int64_t edges = 0;
    return edges;
}

// ---------------------------------------------------------------------
// cooperative cancellation.  The Python watchdog thread asserts this flag
// through the FFI boundary (pygb_request_cancel) while a kernel runs on a
// DIFFERENT thread, so it must be one process-wide atomic per loaded
// library — NOT thread_local.  Every compute sweep (mxv/vxm/mxm, the pull
// variants, the matrix eWise merges, reduce_rows) polls it every 1024
// iterations and breaks; the generated writeback stage then returns the
// -2 sentinel instead of exporting a partial result (no C++ exception
// ever crosses the extern "C" frame — that would be undefined behaviour).
// ---------------------------------------------------------------------
inline std::atomic<int64_t>& cancel_flag_ref() {
    static std::atomic<int64_t> flag{0};
    return flag;
}

inline bool cancel_requested() {
    return cancel_flag_ref().load(std::memory_order_relaxed) != 0;
}

// ---------------------------------------------------------------------
// operator functors (names match GBTL's algebra.hpp / paper Fig. 6)
// ---------------------------------------------------------------------
template <class T> struct Plus  { T operator()(T a, T b) const { return a + b; } };
template <class T> struct Minus { T operator()(T a, T b) const { return a - b; } };
template <class T> struct Times { T operator()(T a, T b) const { return a * b; } };
template <class T> struct Div {
    T operator()(T a, T b) const {
        if (b == T(0)) return T(0);
        if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
            // negate in unsigned arithmetic: MIN / -1 wraps (as NumPy's
            // does) instead of trapping
            using U = std::make_unsigned_t<T>;
            if (b == T(-1)) return T(U(0) - U(a));
        }
        return T(a / b);
    }
};
// exactly np.minimum / np.maximum: a NaN in either argument propagates
// (a NaN b fails the comparison, so b is returned) and ties return b;
// the a != a test folds away for integral T
template <class T> struct Min {
    T operator()(T a, T b) const { return (a != a || a < b) ? a : b; }
};
template <class T> struct Max {
    T operator()(T a, T b) const { return (a != a || a > b) ? a : b; }
};
template <class T> struct First  { T operator()(T a, T) const { return a; } };
template <class T> struct Second { T operator()(T, T b) const { return b; } };
template <class T> struct LogicalOr {
    T operator()(T a, T b) const { return T(bool(a) || bool(b)); }
};
template <class T> struct LogicalAnd {
    T operator()(T a, T b) const { return T(bool(a) && bool(b)); }
};
template <class T> struct LogicalXor {
    T operator()(T a, T b) const { return T(bool(a) != bool(b)); }
};
template <class T> struct Equal    { T operator()(T a, T b) const { return T(a == b); } };
template <class T> struct NotEqual { T operator()(T a, T b) const { return T(a != b); } };
template <class T> struct GreaterThan  { T operator()(T a, T b) const { return T(a > b); } };
template <class T> struct LessThan     { T operator()(T a, T b) const { return T(a < b); } };
template <class T> struct GreaterEqual { T operator()(T a, T b) const { return T(a >= b); } };
template <class T> struct LessEqual    { T operator()(T a, T b) const { return T(a <= b); } };

template <class T> struct Identity        { T operator()(T a) const { return a; } };
template <class T> struct AdditiveInverse { T operator()(T a) const { return T(-a); } };
template <class T> struct LogicalNot      { T operator()(T a) const { return T(!bool(a)); } };
template <class T> struct MultiplicativeInverse {
    T operator()(T a) const { return a == T(0) ? T(0) : T(T(1) / a); }
};

// binary op with a bound constant (GBTL's BinaryOp_Bind1st / Bind2nd)
template <class T, class Op> struct Bind1st {
    T c; Op op;
    explicit Bind1st(T c_) : c(c_) {}
    T operator()(T a) const { return op(c, a); }
};
template <class T, class Op> struct Bind2nd {
    T c; Op op;
    explicit Bind2nd(T c_) : c(c_) {}
    T operator()(T a) const { return op(a, c); }
};

// ---------------------------------------------------------------------
// containers
// ---------------------------------------------------------------------
template <class T> struct Vec {
    Index size = 0;
    std::vector<Index> idx;  // strictly increasing
    std::vector<T> val;
};

template <class T> struct CSR {
    Index nrows = 0, ncols = 0;
    std::vector<Index> indptr;   // nrows + 1
    std::vector<Index> indices;  // sorted within each row
    std::vector<T> values;
};

template <class T>
Vec<T> make_vec(Index size, const Index* idx, const T* val, Index nnz) {
    Vec<T> v; v.size = size;
    v.idx.assign(idx, idx + nnz);
    v.val.assign(val, val + nnz);
    return v;
}

template <class T>
CSR<T> make_csr(Index nrows, Index ncols, const Index* indptr, const Index* indices,
                const T* values) {
    CSR<T> m; m.nrows = nrows; m.ncols = ncols;
    m.indptr.assign(indptr, indptr + nrows + 1);
    const Index nnz = indptr[nrows];
    m.indices.assign(indices, indices + nnz);
    m.values.assign(values, values + nnz);
    return m;
}

// exported buffers are malloc'd so Python can free them with pygb_free()
template <class T>
Index export_vec(const Vec<T>& v, Index** out_idx, void** out_val) {
    const Index nnz = static_cast<Index>(v.idx.size());
    *out_idx = static_cast<Index*>(std::malloc(sizeof(Index) * std::max<Index>(nnz, 1)));
    T* vals = static_cast<T*>(std::malloc(sizeof(T) * std::max<Index>(nnz, 1)));
    std::memcpy(*out_idx, v.idx.data(), sizeof(Index) * nnz);
    std::memcpy(vals, v.val.data(), sizeof(T) * nnz);
    *out_val = vals;
    return nnz;
}

template <class T>
Index export_csr(const CSR<T>& m, Index** out_indptr, Index** out_indices, void** out_values) {
    const Index nnz = static_cast<Index>(m.indices.size());
    *out_indptr = static_cast<Index*>(std::malloc(sizeof(Index) * (m.nrows + 1)));
    *out_indices = static_cast<Index*>(std::malloc(sizeof(Index) * std::max<Index>(nnz, 1)));
    T* vals = static_cast<T*>(std::malloc(sizeof(T) * std::max<Index>(nnz, 1)));
    std::memcpy(*out_indptr, m.indptr.data(), sizeof(Index) * (m.nrows + 1));
    std::memcpy(*out_indices, m.indices.data(), sizeof(Index) * nnz);
    std::memcpy(vals, m.values.data(), sizeof(T) * nnz);
    *out_values = vals;
    return nnz;
}

// ---------------------------------------------------------------------
// computational kernels (produce the raw result T of the C API pipeline)
// ---------------------------------------------------------------------

// w = A ⊕.⊗ u : dense-accumulator row sweep, O(nnz(A))
template <class TT, class TA, class TU, class AddOp, class MultOp>
Vec<TT> mxv(const CSR<TA>& A, const Vec<TU>& u, AddOp add, MultOp mult) {
    std::vector<TT> ud(A.ncols);
    std::vector<uint8_t> up(A.ncols, 0);
    for (size_t k = 0; k < u.idx.size(); ++k) {
        ud[u.idx[k]] = static_cast<TT>(u.val[k]);
        up[u.idx[k]] = 1;
    }
    Vec<TT> out; out.size = A.nrows;
    for (Index i = 0; i < A.nrows; ++i) {
        if ((i & 1023) == 0 && cancel_requested()) break;
        TT acc{}; bool any = false;
        for (Index p = A.indptr[i]; p < A.indptr[i + 1]; ++p) {
            const Index j = A.indices[p];
            if (!up[j]) continue;
            const TT prod = mult(static_cast<TT>(A.values[p]), ud[j]);
            acc = any ? add(acc, prod) : prod;
            any = true;
        }
        if (any) { out.idx.push_back(i); out.val.push_back(acc); }
    }
    return out;
}

// w = u ⊕.⊗ A : scatter along the rows u touches, O(Σ nnz(A(k,:)))
template <class TT, class TA, class TU, class AddOp, class MultOp>
Vec<TT> vxm(const Vec<TU>& u, const CSR<TA>& A, AddOp add, MultOp mult) {
    std::vector<TT> acc(A.ncols);
    std::vector<uint8_t> has(A.ncols, 0);
    for (size_t k = 0; k < u.idx.size(); ++k) {
        if ((k & 1023) == 0 && cancel_requested()) break;
        const Index row = u.idx[k];
        const TT uv = static_cast<TT>(u.val[k]);
        for (Index p = A.indptr[row]; p < A.indptr[row + 1]; ++p) {
            const Index j = A.indices[p];
            const TT prod = mult(uv, static_cast<TT>(A.values[p]));
            if (has[j]) acc[j] = add(acc[j], prod);
            else { acc[j] = prod; has[j] = 1; }
        }
    }
    Vec<TT> out; out.size = A.ncols;
    for (Index j = 0; j < A.ncols; ++j)
        if (has[j]) { out.idx.push_back(j); out.val.push_back(acc[j]); }
    return out;
}

// w<cand> = A ⊕.⊗ u over candidate rows only — the pull (gather)
// direction of a direction-optimized traversal.  Candidate rows are the
// positions the write mask can accept, so entries the masked finalize
// would discard are never computed.  Each row folds its present
// neighbours in stored (ascending-column) order, exactly as mxv()'s row
// sweep, so surviving entries are bit-identical to the dense form.
template <class TT, class TA, class TU, class AddOp, class MultOp>
Vec<TT> mxv_pull(const CSR<TA>& A, const Vec<TU>& u,
                 const Index* cand, Index n_cand, AddOp add, MultOp mult) {
    std::vector<TT> ud(A.ncols);
    std::vector<uint8_t> up(A.ncols, 0);
    for (size_t k = 0; k < u.idx.size(); ++k) {
        ud[u.idx[k]] = static_cast<TT>(u.val[k]);
        up[u.idx[k]] = 1;
    }
    Vec<TT> out; out.size = A.nrows;
    int64_t edges = 0;
    for (Index c = 0; c < n_cand; ++c) {
        if ((c & 1023) == 0 && cancel_requested()) break;
        const Index i = cand[c];
        edges += A.indptr[i + 1] - A.indptr[i];
        TT acc{}; bool any = false;
        for (Index p = A.indptr[i]; p < A.indptr[i + 1]; ++p) {
            const Index j = A.indices[p];
            if (!up[j]) continue;
            const TT prod = mult(static_cast<TT>(A.values[p]), ud[j]);
            acc = any ? add(acc, prod) : prod;
            any = true;
        }
        if (any) { out.idx.push_back(i); out.val.push_back(acc); }
    }
    edges_examined_ref() = edges;
    return out;
}

// Early-exiting pull for the LogicalOr add monoid (Beamer's bottom-up
// BFS step): a candidate row is finished at its first true product.  An
// output entry exists iff the row has any present neighbour (even an
// all-false one — implied-zero semantics of the full reduction) and its
// value is the OR of the products, so the result is independent of where
// the scan stops.  Neighbours are counted in the same geometrically
// growing blocks (4, 8, ... 4096) as the vectorised Python primitive
// spmv_pull_logical, and a row that retires mid-block still counts the
// whole block — the deterministic edges-examined figure is therefore
// identical across all three engines.
template <class TT, class TA, class TU, class MultOp>
Vec<TT> mxv_pull_or(const CSR<TA>& A, const Vec<TU>& u,
                    const Index* cand, Index n_cand, MultOp mult) {
    std::vector<TT> ud(A.ncols);
    std::vector<uint8_t> up(A.ncols, 0);
    for (size_t k = 0; k < u.idx.size(); ++k) {
        ud[u.idx[k]] = static_cast<TT>(u.val[k]);
        up[u.idx[k]] = 1;
    }
    Vec<TT> out; out.size = A.nrows;
    int64_t edges = 0;
    for (Index c = 0; c < n_cand; ++c) {
        if ((c & 1023) == 0 && cancel_requested()) break;
        const Index i = cand[c];
        Index cur = A.indptr[i];
        const Index end = A.indptr[i + 1];
        bool seen = false, hit = false;
        Index block = 4;
        while (cur < end && !hit) {
            Index take = end - cur;
            if (take > block) take = block;
            edges += take;
            for (Index p = cur; p < cur + take; ++p) {
                const Index j = A.indices[p];
                if (!up[j]) continue;
                seen = true;
                if (bool(mult(static_cast<TT>(A.values[p]), ud[j]))) hit = true;
            }
            cur += take;
            block = block * 2 > 4096 ? 4096 : block * 2;
        }
        if (seen) { out.idx.push_back(i); out.val.push_back(static_cast<TT>(hit)); }
    }
    edges_examined_ref() = edges;
    return out;
}

// C = A ⊕.⊗ B : Gustavson with a dense per-row workspace
template <class TT, class TA, class TB, class AddOp, class MultOp>
CSR<TT> mxm(const CSR<TA>& A, const CSR<TB>& B, AddOp add, MultOp mult) {
    CSR<TT> out; out.nrows = A.nrows; out.ncols = B.ncols;
    out.indptr.assign(A.nrows + 1, 0);
    std::vector<TT> acc(B.ncols);
    std::vector<Index> mark(B.ncols, -1);
    std::vector<Index> touched;
    for (Index i = 0; i < A.nrows; ++i) {
        if ((i & 1023) == 0 && cancel_requested()) break;
        touched.clear();
        for (Index p = A.indptr[i]; p < A.indptr[i + 1]; ++p) {
            const Index k = A.indices[p];
            const TT av = static_cast<TT>(A.values[p]);
            for (Index q = B.indptr[k]; q < B.indptr[k + 1]; ++q) {
                const Index j = B.indices[q];
                const TT prod = mult(av, static_cast<TT>(B.values[q]));
                if (mark[j] == i) acc[j] = add(acc[j], prod);
                else { mark[j] = i; acc[j] = prod; touched.push_back(j); }
            }
        }
        std::sort(touched.begin(), touched.end());
        for (const Index j : touched) {
            out.indices.push_back(j);
            out.values.push_back(acc[j]);
        }
        out.indptr[i + 1] = static_cast<Index>(out.indices.size());
    }
    return out;
}

// eWiseAdd on vectors: union merge of two sorted coordinate lists
template <class TT, class TU, class TV, class Op>
Vec<TT> ewise_add(const Vec<TU>& u, const Vec<TV>& v, Op op) {
    Vec<TT> out; out.size = u.size;
    size_t i = 0, j = 0;
    while (i < u.idx.size() || j < v.idx.size()) {
        if (j >= v.idx.size() || (i < u.idx.size() && u.idx[i] < v.idx[j])) {
            out.idx.push_back(u.idx[i]);
            out.val.push_back(static_cast<TT>(u.val[i]));
            ++i;
        } else if (i >= u.idx.size() || v.idx[j] < u.idx[i]) {
            out.idx.push_back(v.idx[j]);
            out.val.push_back(static_cast<TT>(v.val[j]));
            ++j;
        } else {
            out.idx.push_back(u.idx[i]);
            out.val.push_back(op(static_cast<TT>(u.val[i]), static_cast<TT>(v.val[j])));
            ++i; ++j;
        }
    }
    return out;
}

// eWiseMult on vectors: intersection merge
template <class TT, class TU, class TV, class Op>
Vec<TT> ewise_mult(const Vec<TU>& u, const Vec<TV>& v, Op op) {
    Vec<TT> out; out.size = u.size;
    size_t i = 0, j = 0;
    while (i < u.idx.size() && j < v.idx.size()) {
        if (u.idx[i] < v.idx[j]) ++i;
        else if (v.idx[j] < u.idx[i]) ++j;
        else {
            out.idx.push_back(u.idx[i]);
            out.val.push_back(op(static_cast<TT>(u.val[i]), static_cast<TT>(v.val[j])));
            ++i; ++j;
        }
    }
    return out;
}

// matrix eWise ops: the vector merges applied row by row
template <class TT, class TA, class TB, class Op>
CSR<TT> ewise_add_mat(const CSR<TA>& A, const CSR<TB>& B, Op op) {
    CSR<TT> out; out.nrows = A.nrows; out.ncols = A.ncols;
    out.indptr.assign(A.nrows + 1, 0);
    for (Index r = 0; r < A.nrows; ++r) {
        if ((r & 1023) == 0 && cancel_requested()) break;
        Index i = A.indptr[r], j = B.indptr[r];
        const Index ie = A.indptr[r + 1], je = B.indptr[r + 1];
        while (i < ie || j < je) {
            if (j >= je || (i < ie && A.indices[i] < B.indices[j])) {
                out.indices.push_back(A.indices[i]);
                out.values.push_back(static_cast<TT>(A.values[i]));
                ++i;
            } else if (i >= ie || B.indices[j] < A.indices[i]) {
                out.indices.push_back(B.indices[j]);
                out.values.push_back(static_cast<TT>(B.values[j]));
                ++j;
            } else {
                out.indices.push_back(A.indices[i]);
                out.values.push_back(
                    op(static_cast<TT>(A.values[i]), static_cast<TT>(B.values[j])));
                ++i; ++j;
            }
        }
        out.indptr[r + 1] = static_cast<Index>(out.indices.size());
    }
    return out;
}

template <class TT, class TA, class TB, class Op>
CSR<TT> ewise_mult_mat(const CSR<TA>& A, const CSR<TB>& B, Op op) {
    CSR<TT> out; out.nrows = A.nrows; out.ncols = A.ncols;
    out.indptr.assign(A.nrows + 1, 0);
    for (Index r = 0; r < A.nrows; ++r) {
        if ((r & 1023) == 0 && cancel_requested()) break;
        Index i = A.indptr[r], j = B.indptr[r];
        const Index ie = A.indptr[r + 1], je = B.indptr[r + 1];
        while (i < ie && j < je) {
            if (A.indices[i] < B.indices[j]) ++i;
            else if (B.indices[j] < A.indices[i]) ++j;
            else {
                out.indices.push_back(A.indices[i]);
                out.values.push_back(
                    op(static_cast<TT>(A.values[i]), static_cast<TT>(B.values[j])));
                ++i; ++j;
            }
        }
        out.indptr[r + 1] = static_cast<Index>(out.indices.size());
    }
    return out;
}

template <class TT, class TU, class F>
Vec<TT> apply_vec(const Vec<TU>& u, F f) {
    Vec<TT> out; out.size = u.size;
    out.idx = u.idx;
    const Index n = static_cast<Index>(u.val.size());
    out.val.resize(n);
    for (Index k = 0; k < n; ++k) out.val[k] = f(static_cast<TT>(u.val[k]));
    return out;
}

template <class TT, class TA, class F>
CSR<TT> apply_mat(const CSR<TA>& A, F f) {
    CSR<TT> out; out.nrows = A.nrows; out.ncols = A.ncols;
    out.indptr = A.indptr;
    out.indices = A.indices;
    const Index n = static_cast<Index>(A.values.size());
    out.values.resize(n);
    for (Index k = 0; k < n; ++k) out.values[k] = f(static_cast<TT>(A.values[k]));
    return out;
}

template <class T, class Op>
T reduce_values(const std::vector<T>& vals, Op op, T identity) {
    const Index n = static_cast<Index>(vals.size());
    if (n == 0) return identity;
    T acc = vals[0];
    for (Index i = 1; i < n; ++i) acc = op(acc, vals[i]);
    return acc;
}

template <class TT, class TA, class Op>
Vec<TT> reduce_rows(const CSR<TA>& A, Op op) {
    Vec<TT> out; out.size = A.nrows;
    for (Index i = 0; i < A.nrows; ++i) {
        if ((i & 1023) == 0 && cancel_requested()) break;
        const Index lo = A.indptr[i], hi = A.indptr[i + 1];
        if (lo == hi) continue;
        TT acc = static_cast<TT>(A.values[lo]);
        for (Index p = lo + 1; p < hi; ++p) acc = op(acc, static_cast<TT>(A.values[p]));
        out.idx.push_back(i);
        out.val.push_back(acc);
    }
    return out;
}

// w(i) = u : embed u into positions idx (GrB_assign region map, no dedup —
// callers pass unique index lists)
template <class T>
Vec<T> scatter_vec(const Vec<T>& u, const Index* indices, Index n_indices, Index out_size) {
    Vec<T> out; out.size = out_size;
    std::vector<std::pair<Index, T>> items;
    items.reserve(u.idx.size());
    for (size_t k = 0; k < u.idx.size(); ++k)
        items.emplace_back(indices[u.idx[k]], u.val[k]);
    std::sort(items.begin(), items.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& it : items) { out.idx.push_back(it.first); out.val.push_back(it.second); }
    (void)n_indices;
    return out;
}

// ---------------------------------------------------------------------
// the masked accumulate-write stage: C<M, z> = C ⊙ T  (C API pipeline)
// ---------------------------------------------------------------------
template <class TC, class TT, class AccumOp>
Vec<TC> write_back_vec(const Vec<TC>& C, const Vec<TT>& T, const Vec<uint8_t>* mask,
                       bool comp, bool replace, bool has_accum, AccumOp accum) {
    const Index n = C.size;
    // dense presence maps keep this O(n); vector sizes are graph-scale
    std::vector<uint8_t> c_has(n, 0), t_has(n, 0), m_true(n, 0);
    std::vector<TC> c_val(n);
    std::vector<TC> t_val(n);
    for (size_t k = 0; k < C.idx.size(); ++k) { c_has[C.idx[k]] = 1; c_val[C.idx[k]] = C.val[k]; }
    for (size_t k = 0; k < T.idx.size(); ++k) {
        t_has[T.idx[k]] = 1;
        t_val[T.idx[k]] = static_cast<TC>(T.val[k]);
    }
    if (mask)
        for (size_t k = 0; k < mask->idx.size(); ++k)
            if (mask->val[k]) m_true[mask->idx[k]] = 1;
    Vec<TC> out; out.size = n;
    for (Index i = 0; i < n; ++i) {
        // Z(i)
        bool z_has; TC z{};
        if (has_accum && c_has[i] && t_has[i]) { z_has = true; z = accum(c_val[i], t_val[i]); }
        else if (has_accum && c_has[i]) { z_has = true; z = c_val[i]; }
        else if (t_has[i]) { z_has = true; z = t_val[i]; }
        else { z_has = false; }
        const bool in_mask = mask ? (bool(m_true[i]) != comp) : true;
        if (in_mask) {
            if (z_has) { out.idx.push_back(i); out.val.push_back(z); }
        } else if (!replace && c_has[i]) {
            out.idx.push_back(i);
            out.val.push_back(c_val[i]);
        }
    }
    return out;
}

template <class TC, class TT, class AccumOp>
CSR<TC> write_back_mat(const CSR<TC>& C, const CSR<TT>& T, const CSR<uint8_t>* mask,
                       bool comp, bool replace, bool has_accum, AccumOp accum) {
    const Index nrows = C.nrows, ncols = C.ncols;
    CSR<TC> out; out.nrows = nrows; out.ncols = ncols;
    out.indptr.assign(nrows + 1, 0);
    // per-row dense workspaces, reset via touch lists
    std::vector<int8_t> state(ncols, 0);  // bit0: c present, bit1: t present
    std::vector<TC> cv(ncols), tv(ncols);
    std::vector<uint8_t> mt(ncols, 0);
    std::vector<Index> touched, mtouched;
    for (Index r = 0; r < nrows; ++r) {
        touched.clear(); mtouched.clear();
        for (Index p = C.indptr[r]; p < C.indptr[r + 1]; ++p) {
            const Index j = C.indices[p];
            if (!state[j]) touched.push_back(j);
            state[j] |= 1; cv[j] = C.values[p];
        }
        for (Index p = T.indptr[r]; p < T.indptr[r + 1]; ++p) {
            const Index j = T.indices[p];
            if (!state[j]) touched.push_back(j);
            state[j] |= 2; tv[j] = static_cast<TC>(T.values[p]);
        }
        if (mask)
            for (Index p = mask->indptr[r]; p < mask->indptr[r + 1]; ++p)
                if (mask->values[p]) { mt[mask->indices[p]] = 1; mtouched.push_back(mask->indices[p]); }
        std::sort(touched.begin(), touched.end());
        for (const Index j : touched) {
            const bool ch = state[j] & 1, th = state[j] & 2;
            bool z_has; TC z{};
            if (has_accum && ch && th) { z_has = true; z = accum(cv[j], tv[j]); }
            else if (has_accum && ch) { z_has = true; z = cv[j]; }
            else if (th) { z_has = true; z = tv[j]; }
            else { z_has = false; }
            const bool in_mask = mask ? (bool(mt[j]) != comp) : true;
            if (in_mask) {
                if (z_has) { out.indices.push_back(j); out.values.push_back(z); }
            } else if (!replace && ch) {
                out.indices.push_back(j);
                out.values.push_back(cv[j]);
            }
        }
        out.indptr[r + 1] = static_cast<Index>(out.indices.size());
        for (const Index j : touched) state[j] = 0;
        for (const Index j : mtouched) mt[j] = 0;
    }
    return out;
}

}  // namespace GB

extern "C" void pygb_free(void* p) { std::free(p); }
"""
