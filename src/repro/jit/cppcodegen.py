"""C++ binding-file generation (the paper's ``operation_binding.cpp``).

For every :class:`~repro.jit.spec.KernelSpec` this module emits one small
translation unit that

1. fixes the template parameters via ``#define``/``using`` lines — the
   in-file equivalent of the paper's ``-DA_TYPE=int64_t -DADD_BINOP=Plus``
   command-line defines (the equivalent ``g++ -D...`` line is recorded in
   the header comment);
2. ``#include``-s the bundled mini-GBTL header
   (:mod:`~repro.jit.gbtl_lite`);
3. exposes a single ``extern "C" pygb_run`` entry point marshalling raw
   index/value buffers, which the ``cpp`` engine calls through ``ctypes``.

Operand transposition is resolved by the engine (it passes the cached
transposed CSR), so transpose flags never reach the C++ side — except for
``vxm``, which has a genuine row-scatter kernel and needs no transpose at
all.
"""

from __future__ import annotations

from ..backend import ops_table
from ..exceptions import CompilationError
from ..types import cxx_name as _cxx_name
from .spec import KernelSpec


def cxx_name(token) -> str:
    """C++ element type for a dtype token; ``bool`` maps to ``uint8_t``
    because ``std::vector<bool>`` is a bitset with no ``.data()`` — the
    one-byte encoding matches what the engine marshals from NumPy."""
    name = _cxx_name(token)
    return "uint8_t" if name == "bool" else name

__all__ = ["generate_cpp_source", "CPP_GENERATORS", "CPP_SUPPORTED"]


def _cxx_header(spec: KernelSpec) -> str:
    defines = " ".join(spec.cxx_defines())
    return (
        f"// Auto-generated by the PyGB JIT — do not edit.\n"
        f"// spec: {spec.key}\n"
        f"// equivalent command-line instantiation (paper Fig. 9):\n"
        f"//   g++ -std=c++17 -O2 -shared -fPIC operation_binding.cpp {defines}\n"
        f'#include "gbtl_lite.hpp"\n'
        f"using GB::Index;\n"
    )



def _binop_using(alias: str, name: str, t: str) -> str:
    """``using {alias} = ...;`` for a binary operator — a GBTL functor for
    the built-in Fig. 6 set, or an inline functor struct generated from
    the registered C++ expression for user-defined operators
    (Sec. VIII future work)."""
    d = ops_table.binary_def(name)
    if name in ops_table.BUILTIN_BINARY:
        return f"using {alias} = GB::{name}<{t}>;"
    if not d.cxx:
        raise CompilationError(
            f"user-defined operator {name!r} has no C++ expression; "
            f"register it with cxx=... or use the interpreted engine"
        )
    expr = d.cxx.format(a="a", b="b")
    return (
        f"struct {alias} {{ using T = {t}; "
        f"T operator()(T a, T b) const {{ return {expr}; }} }};"
    )


def _unary_using(alias: str, name: str, t: str) -> str:
    """Unary counterpart of :func:`_binop_using`."""
    d = ops_table.unary_def(name)
    if name in ops_table.BUILTIN_UNARY:
        return f"using {alias} = GB::{name}<{t}>;"
    if not d.cxx:
        raise CompilationError(
            f"user-defined operator {name!r} has no C++ expression; "
            f"register it with cxx=... or use the interpreted engine"
        )
    expr = d.cxx.format(a="a")
    return (
        f"struct {alias} {{ using T = {t}; "
        f"T operator()(T a) const {{ return {expr}; }} }};"
    )


def _flags_block(spec: KernelSpec, tc: str = "TC") -> str:
    """The descriptor constants + accumulate functor for this spec."""
    accum = spec.get("accum", "none")
    lines = [
        f"constexpr bool kHasMask = {'true' if spec.get('mask') != 'none' else 'false'};",
        f"constexpr bool kComp = {'true' if spec.flag('comp') else 'false'};",
        f"constexpr bool kRepl = {'true' if spec.flag('repl') else 'false'};",
        f"constexpr bool kHasAccum = {'true' if accum != 'none' else 'false'};",
    ]
    if accum != "none":
        lines.append(_binop_using("AccumOp", accum, tc))
    else:
        lines.append(f"using AccumOp = GB::Second<{tc}>;")
    return "\n".join(lines)


#: the kernel result ``t`` may be partial when a compute loop observed the
#: cancellation flag and broke out early — the ``-2`` sentinel (checked
#: before any export allocation) tells the engine to discard it and raise
#: ``OperationCancelled`` instead of surfacing a truncated result
_VEC_WRITEBACK = """
    if (GB::cancel_requested()) return -2;
    GB::Vec<uint8_t> m;
    const GB::Vec<uint8_t>* mp = nullptr;
    if (kHasMask) { m = GB::make_vec<uint8_t>(c_size, m_idx, m_vals, m_nnz); mp = &m; }
    auto out = GB::write_back_vec<TC>(c, t, mp, kComp, kRepl, kHasAccum, AccumOp{});
    return GB::export_vec(out, out_idx, out_vals);
}
"""

_MAT_WRITEBACK = """
    if (GB::cancel_requested()) return -2;
    GB::CSR<uint8_t> m;
    const GB::CSR<uint8_t>* mp = nullptr;
    if (kHasMask) {
        m = GB::make_csr<uint8_t>(c_nrows, c_ncols, m_indptr, m_indices, m_vals);
        mp = &m;
    }
    auto out = GB::write_back_mat<TC>(c, t, mp, kComp, kRepl, kHasAccum, AccumOp{});
    return GB::export_csr(out, out_indptr, out_indices, out_values);
}
"""


#: ``MultOp`` with its arguments swapped.  The push form of ``mxv`` runs
#: the vxm scatter kernel over the transposed (scatter) matrix, and the
#: pull form of ``vxm`` runs the row gather over the transposed matrix;
#: both see operands in the opposite order from the semiring's ``⊗``, so
#: the flip restores ``mult(a_value, u_value)`` / ``mult(u_value,
#: a_value)`` exactly as the dense kernels evaluate them.
_MULT_FLIP = (
    "struct MultFlip { TT operator()(TT a, TT b) const"
    " { return MultOp{}(b, a); } };"
)

_EDGES_ACCESSOR = (
    '\nextern "C" int64_t pygb_edges_examined()'
    " { return GB::edges_examined_ref(); }\n"
)


def _gen_spmv(spec: KernelSpec, vxm: bool) -> str:
    """``mxv``/``vxm`` translation units, branched on the schedule's
    ``dir`` param (absent → the legacy dense kernel, preserving the cache
    key and generated code of unscheduled dispatches).

    The engine resolves orientation before dispatch: dense/pull TUs
    receive the gather matrix (``A`` effective for mxv, its transpose for
    vxm) and push TUs the scatter matrix (the other one).  Pull TUs take
    the mask's candidate rows as an extra index list and export the
    deterministic ``pygb_edges_examined`` counter; push edge counts are a
    frontier degree sum the engine reads off the CSR row pointers without
    entering C++.
    """
    direction = spec.get("dir", "dense")
    dense_call = "GB::vxm<TT>(u, A, AddOp{}, MultOp{})" if vxm else \
        "GB::mxv<TT>(A, u, AddOp{}, MultOp{})"
    if direction == "push":
        # scatter kernel; mxv flips ⊗ so products stay mult(a_val, u_val)
        call = "GB::vxm<TT>(u, A, AddOp{}, MultOp{})" if vxm else \
            "GB::vxm<TT>(u, A, AddOp{}, MultFlip{})"
    elif direction == "pull":
        mult_op = "MultFlip{}" if vxm else "MultOp{}"
        if spec.get("add") == "LogicalOr" and spec.get("t_dtype") == "bool":
            call = f"GB::mxv_pull_or<TT>(A, u, cand, n_cand, {mult_op})"
        else:
            call = f"GB::mxv_pull<TT>(A, u, cand, n_cand, AddOp{{}}, {mult_op})"
    else:
        call = dense_call
    flip_line = f"\n{_MULT_FLIP}" if "MultFlip" in call else ""
    cand_params = "\n    const Index* cand, Index n_cand," \
        if direction == "pull" else ""
    accessor = _EDGES_ACCESSOR if direction == "pull" else ""
    return (
        _cxx_header(spec)
        + f"""
using TA = {cxx_name(spec.get('a'))};
using TU = {cxx_name(spec.get('u'))};
using TC = {cxx_name(spec.get('c'))};
using TT = {cxx_name(spec.get('t_dtype'))};
{_binop_using("AddOp", spec.get('add'), "TT")}
{_binop_using("MultOp", spec.get('mult'), "TT")}{flip_line}
{_flags_block(spec)}

extern "C" Index pygb_run(
    Index a_nrows, Index a_ncols, const Index* a_indptr, const Index* a_indices,
    const TA* a_vals,
    Index u_size, const Index* u_idx, const TU* u_vals, Index u_nnz,
    Index c_size, const Index* c_idx, const TC* c_vals, Index c_nnz,
    const Index* m_idx, const uint8_t* m_vals, Index m_nnz,{cand_params}
    Index** out_idx, void** out_vals)
{{
    auto A = GB::make_csr<TA>(a_nrows, a_ncols, a_indptr, a_indices, a_vals);
    auto u = GB::make_vec<TU>(u_size, u_idx, u_vals, u_nnz);
    auto c = GB::make_vec<TC>(c_size, c_idx, c_vals, c_nnz);
    auto t = {call};
"""
        + _VEC_WRITEBACK
        + accessor
    )


def _gen_mxv(spec: KernelSpec) -> str:
    return _gen_spmv(spec, vxm=False)


def _gen_vxm(spec: KernelSpec) -> str:
    return _gen_spmv(spec, vxm=True)


def _gen_mxm(spec: KernelSpec) -> str:
    return (
        _cxx_header(spec)
        + f"""
using TA = {cxx_name(spec.get('a'))};
using TB = {cxx_name(spec.get('b'))};
using TC = {cxx_name(spec.get('c'))};
using TT = {cxx_name(spec.get('t_dtype'))};
{_binop_using("AddOp", spec.get('add'), "TT")}
{_binop_using("MultOp", spec.get('mult'), "TT")}
{_flags_block(spec)}

extern "C" Index pygb_run(
    Index a_nrows, Index a_ncols, const Index* a_indptr, const Index* a_indices,
    const TA* a_vals,
    Index b_nrows, Index b_ncols, const Index* b_indptr, const Index* b_indices,
    const TB* b_vals,
    Index c_nrows, Index c_ncols, const Index* c_indptr, const Index* c_indices,
    const TC* c_vals,
    const Index* m_indptr, const Index* m_indices, const uint8_t* m_vals,
    Index** out_indptr, Index** out_indices, void** out_values)
{{
    auto A = GB::make_csr<TA>(a_nrows, a_ncols, a_indptr, a_indices, a_vals);
    auto B = GB::make_csr<TB>(b_nrows, b_ncols, b_indptr, b_indices, b_vals);
    auto c = GB::make_csr<TC>(c_nrows, c_ncols, c_indptr, c_indices, c_vals);
    auto t = GB::mxm<TT>(A, B, AddOp{{}}, MultOp{{}});
"""
        + _MAT_WRITEBACK
    )


def _gen_ewise_vec(spec: KernelSpec, kernel: str) -> str:
    return (
        _cxx_header(spec)
        + f"""
using TU = {cxx_name(spec.get('a'))};
using TV = {cxx_name(spec.get('b'))};
using TC = {cxx_name(spec.get('c'))};
using TT = {cxx_name(spec.get('t_dtype'))};
{_binop_using("Op", spec.get('op'), "TT")}
{_flags_block(spec)}

extern "C" Index pygb_run(
    Index u_size, const Index* u_idx, const TU* u_vals, Index u_nnz,
    const Index* v_idx, const TV* v_vals, Index v_nnz,
    Index c_size, const Index* c_idx, const TC* c_vals, Index c_nnz,
    const Index* m_idx, const uint8_t* m_vals, Index m_nnz,
    Index** out_idx, void** out_vals)
{{
    auto u = GB::make_vec<TU>(u_size, u_idx, u_vals, u_nnz);
    auto v = GB::make_vec<TV>(u_size, v_idx, v_vals, v_nnz);
    auto c = GB::make_vec<TC>(c_size, c_idx, c_vals, c_nnz);
    auto t = GB::{kernel}<TT>(u, v, Op{{}});
"""
        + _VEC_WRITEBACK
    )


def _gen_ewise_mat(spec: KernelSpec, kernel: str) -> str:
    return (
        _cxx_header(spec)
        + f"""
using TA = {cxx_name(spec.get('a'))};
using TB = {cxx_name(spec.get('b'))};
using TC = {cxx_name(spec.get('c'))};
using TT = {cxx_name(spec.get('t_dtype'))};
{_binop_using("Op", spec.get('op'), "TT")}
{_flags_block(spec)}

extern "C" Index pygb_run(
    Index a_nrows, Index a_ncols, const Index* a_indptr, const Index* a_indices,
    const TA* a_vals,
    const Index* b_indptr, const Index* b_indices, const TB* b_vals,
    const Index* c_indptr, const Index* c_indices, const TC* c_vals,
    const Index* m_indptr, const Index* m_indices, const uint8_t* m_vals,
    Index** out_indptr, Index** out_indices, void** out_values)
{{
    Index c_nrows = a_nrows, c_ncols = a_ncols;
    auto A = GB::make_csr<TA>(a_nrows, a_ncols, a_indptr, a_indices, a_vals);
    auto B = GB::make_csr<TB>(a_nrows, a_ncols, b_indptr, b_indices, b_vals);
    auto c = GB::make_csr<TC>(a_nrows, a_ncols, c_indptr, c_indices, c_vals);
    auto t = GB::{kernel}<TT>(A, B, Op{{}});
"""
        + _MAT_WRITEBACK
    )


def _unary_functor(spec: KernelSpec, t: str = "TC", op_key: str = "op") -> str:
    """Lines defining ``UnaryF make_unary(double, int64_t)``.

    Fused specs store the apply operator under ``uop`` and may evaluate
    it at a type other than the output's (*t*)."""
    form = spec.get("form")
    op = spec.get(op_key)
    if form == "unary":
        return (
            _unary_using("UnaryF", op, t)
            + "\nstatic UnaryF make_unary(double, int64_t) { return UnaryF{}; }\n"
        )
    binder = "Bind1st" if spec.get("side") == "first" else "Bind2nd"
    return (
        _binop_using("BoundOp", op, t)
        + f"\nusing UnaryF = GB::{binder}<{t}, BoundOp>;\n"
        "static UnaryF make_unary(double dconst, int64_t iconst) {\n"
        f"    return UnaryF(std::is_floating_point<{t}>::value"
        f" ? static_cast<{t}>(dconst) : static_cast<{t}>(iconst));\n"
        "}\n"
    )


def _gen_apply_vec(spec: KernelSpec) -> str:
    return (
        _cxx_header(spec)
        + "#include <type_traits>\n"
        + f"""
using TU = {cxx_name(spec.get('a'))};
using TC = {cxx_name(spec.get('c'))};
{_flags_block(spec)}
{_unary_functor(spec)}

extern "C" Index pygb_run(
    Index u_size, const Index* u_idx, const TU* u_vals, Index u_nnz,
    Index c_size, const Index* c_idx, const TC* c_vals, Index c_nnz,
    const Index* m_idx, const uint8_t* m_vals, Index m_nnz,
    double dconst, int64_t iconst,
    Index** out_idx, void** out_vals)
{{
    auto u = GB::make_vec<TU>(u_size, u_idx, u_vals, u_nnz);
    auto c = GB::make_vec<TC>(c_size, c_idx, c_vals, c_nnz);
    auto t = GB::apply_vec<TC>(u, make_unary(dconst, iconst));
"""
        + _VEC_WRITEBACK
    )


def _gen_apply_mat(spec: KernelSpec) -> str:
    return (
        _cxx_header(spec)
        + "#include <type_traits>\n"
        + f"""
using TA = {cxx_name(spec.get('a'))};
using TC = {cxx_name(spec.get('c'))};
{_flags_block(spec)}
{_unary_functor(spec)}

extern "C" Index pygb_run(
    Index a_nrows, Index a_ncols, const Index* a_indptr, const Index* a_indices,
    const TA* a_vals,
    const Index* c_indptr, const Index* c_indices, const TC* c_vals,
    const Index* m_indptr, const Index* m_indices, const uint8_t* m_vals,
    double dconst, int64_t iconst,
    Index** out_indptr, Index** out_indices, void** out_values)
{{
    Index c_nrows = a_nrows, c_ncols = a_ncols;
    auto A = GB::make_csr<TA>(a_nrows, a_ncols, a_indptr, a_indices, a_vals);
    auto c = GB::make_csr<TC>(a_nrows, a_ncols, c_indptr, c_indices, c_vals);
    auto t = GB::apply_mat<TC>(A, make_unary(dconst, iconst));
"""
        + _MAT_WRITEBACK
    )


def _gen_reduce_scalar(spec: KernelSpec, matrix: bool) -> str:
    op = spec.get("op")
    ta = cxx_name(spec.get("a"))
    if matrix:
        sig = (
            "Index a_nrows, Index a_ncols, const Index* a_indptr,"
            " const Index* a_indices, const TA* a_vals,"
        )
        mk = "auto x = GB::make_csr<TA>(a_nrows, a_ncols, a_indptr, a_indices, a_vals);"
        values = "x.values"
    else:
        sig = "Index u_size, const Index* u_idx, const TA* u_vals, Index u_nnz,"
        mk = "auto x = GB::make_vec<TA>(u_size, u_idx, u_vals, u_nnz);"
        values = "x.val"
    return (
        _cxx_header(spec)
        + "#include <type_traits>\n"
        + f"""
using TA = {ta};
{_binop_using("Op", op, "TA")}

extern "C" void pygb_run(
    {sig}
    double didentity, int64_t iidentity,
    TA* out_scalar)
{{
    {mk}
    const TA identity = std::is_floating_point<TA>::value
        ? static_cast<TA>(didentity) : static_cast<TA>(iidentity);
    *out_scalar = GB::reduce_values<TA>({values}, Op{{}}, identity);
}}
"""
    )


def _gen_reduce_rows(spec: KernelSpec) -> str:
    return (
        _cxx_header(spec)
        + f"""
using TA = {cxx_name(spec.get('a'))};
using TC = {cxx_name(spec.get('c'))};
{_binop_using("Op", spec.get('op'), "TA")}
{_flags_block(spec)}

extern "C" Index pygb_run(
    Index a_nrows, Index a_ncols, const Index* a_indptr, const Index* a_indices,
    const TA* a_vals,
    Index c_size, const Index* c_idx, const TC* c_vals, Index c_nnz,
    const Index* m_idx, const uint8_t* m_vals, Index m_nnz,
    Index** out_idx, void** out_vals)
{{
    auto A = GB::make_csr<TA>(a_nrows, a_ncols, a_indptr, a_indices, a_vals);
    auto c = GB::make_vec<TC>(c_size, c_idx, c_vals, c_nnz);
    auto t = GB::reduce_rows<TA>(A, Op{{}});
"""
        + _VEC_WRITEBACK
    )


_ASSIGN_PRELUDE = """
    // GrB_assign: region-local replace/merge, then the whole-domain mask stage
    std::vector<uint8_t> in_region(c_size, 0);
    for (Index k = 0; k < n_idx; ++k) in_region[idx[k]] = 1;
    std::vector<uint8_t> z_has(c_size, 0);
    std::vector<TC> z_val(c_size);
"""

_ASSIGN_EPILOGUE = """
    GB::Vec<TC> z; z.size = c_size;
    for (Index i = 0; i < c_size; ++i)
        if (z_has[i]) { z.idx.push_back(i); z.val.push_back(z_val[i]); }
    GB::Vec<uint8_t> m;
    const GB::Vec<uint8_t>* mp = nullptr;
    if (kHasMask) { m = GB::make_vec<uint8_t>(c_size, m_idx, m_vals, m_nnz); mp = &m; }
    auto out = GB::write_back_vec<TC>(c, z, mp, kComp, kRepl, false, AccumOp{});
    return GB::export_vec(out, out_idx, out_vals);
}
"""


def _gen_assign_vec(spec: KernelSpec) -> str:
    return (
        _cxx_header(spec)
        + "#include <vector>\n"
        + f"""
using TU = {cxx_name(spec.get('a'))};
using TC = {cxx_name(spec.get('c'))};
{_flags_block(spec)}

extern "C" Index pygb_run(
    Index c_size, const Index* c_idx, const TC* c_vals, Index c_nnz,
    Index u_size, const Index* u_idx, const TU* u_vals, Index u_nnz,
    const Index* idx, Index n_idx,
    const Index* m_idx, const uint8_t* m_vals, Index m_nnz,
    Index** out_idx, void** out_vals)
{{
    auto c = GB::make_vec<TC>(c_size, c_idx, c_vals, c_nnz);
{_ASSIGN_PRELUDE}
    // outside the region: C passes through
    for (Index k = 0; k < c_nnz; ++k)
        if (!in_region[c_idx[k]]) {{ z_has[c_idx[k]] = 1; z_val[c_idx[k]] = c_vals[k]; }}
        else if (kHasAccum) {{ z_has[c_idx[k]] = 1; z_val[c_idx[k]] = c_vals[k]; }}
    // inside: the scattered source (accumulated into region-old values)
    for (Index k = 0; k < u_nnz; ++k) {{
        const Index i = idx[u_idx[k]];
        const TC v = static_cast<TC>(u_vals[k]);
        if (kHasAccum && z_has[i] && in_region[i]) z_val[i] = AccumOp{{}}(z_val[i], v);
        else {{ z_has[i] = 1; z_val[i] = v; }}
    }}
"""
        + _ASSIGN_EPILOGUE
    )


def _gen_assign_vec_scalar(spec: KernelSpec) -> str:
    return (
        _cxx_header(spec)
        + "#include <vector>\n#include <type_traits>\n"
        + f"""
using TC = {cxx_name(spec.get('c'))};
{_flags_block(spec)}

extern "C" Index pygb_run(
    Index c_size, const Index* c_idx, const TC* c_vals, Index c_nnz,
    double dvalue, int64_t ivalue,
    const Index* idx, Index n_idx,
    const Index* m_idx, const uint8_t* m_vals, Index m_nnz,
    Index** out_idx, void** out_vals)
{{
    auto c = GB::make_vec<TC>(c_size, c_idx, c_vals, c_nnz);
    const TC value = std::is_floating_point<TC>::value
        ? static_cast<TC>(dvalue) : static_cast<TC>(ivalue);
{_ASSIGN_PRELUDE}
    for (Index k = 0; k < c_nnz; ++k)
        if (!in_region[c_idx[k]] || kHasAccum)
            {{ z_has[c_idx[k]] = 1; z_val[c_idx[k]] = c_vals[k]; }}
    for (Index k = 0; k < n_idx; ++k) {{
        const Index i = idx[k];
        if (kHasAccum && z_has[i]) z_val[i] = AccumOp{{}}(z_val[i], value);
        else {{ z_has[i] = 1; z_val[i] = value; }}
    }}
"""
        + _ASSIGN_EPILOGUE
    )


def _gen_extract_vec(spec: KernelSpec) -> str:
    return (
        _cxx_header(spec)
        + "#include <vector>\n"
        + f"""
using TU = {cxx_name(spec.get('a'))};
using TC = {cxx_name(spec.get('c'))};
{_flags_block(spec)}

extern "C" Index pygb_run(
    Index c_size, const Index* c_idx, const TC* c_vals, Index c_nnz,
    Index u_size, const Index* u_idx, const TU* u_vals, Index u_nnz,
    const Index* idx, Index n_idx,
    const Index* m_idx, const uint8_t* m_vals, Index m_nnz,
    Index** out_idx, void** out_vals)
{{
    auto c = GB::make_vec<TC>(c_size, c_idx, c_vals, c_nnz);
    std::vector<uint8_t> u_has(u_size, 0);
    std::vector<TC> u_val(u_size);
    for (Index k = 0; k < u_nnz; ++k) {{
        u_has[u_idx[k]] = 1;
        u_val[u_idx[k]] = static_cast<TC>(u_vals[k]);
    }}
    GB::Vec<TC> t; t.size = n_idx;
    for (Index p = 0; p < n_idx; ++p)
        if (u_has[idx[p]]) {{ t.idx.push_back(p); t.val.push_back(u_val[idx[p]]); }}
"""
        + _VEC_WRITEBACK
    )


# ----------------------------------------------------------------------
# fused generators (planner output; see jit/fused_ops.py)
#
# Each one composes the verified mini-GBTL primitives in-process: the
# producer's result never crosses the FFI boundary or becomes a Python
# container.  The intermediate ``apply_*<TP>(…, Identity<TP>)`` hop
# replicates the dtype of the temporary the unfused pair materialises,
# so fused and unfused runs agree exactly.
# ----------------------------------------------------------------------


def _gen_mxv_apply(spec: KernelSpec, flip: bool) -> str:
    call = "GB::vxm<TT>(u, A, AddOp{}, MultOp{})" if flip else \
        "GB::mxv<TT>(A, u, AddOp{}, MultOp{})"
    return (
        _cxx_header(spec)
        + "#include <type_traits>\n"
        + f"""
using TA = {cxx_name(spec.get('a'))};
using TU = {cxx_name(spec.get('u'))};
using TC = {cxx_name(spec.get('c'))};
using TT = {cxx_name(spec.get('t_dtype'))};
using TP = {cxx_name(spec.get('p'))};
{_binop_using("AddOp", spec.get('add'), "TT")}
{_binop_using("MultOp", spec.get('mult'), "TT")}
{_flags_block(spec)}
{_unary_functor(spec, op_key="uop")}

extern "C" Index pygb_run(
    Index a_nrows, Index a_ncols, const Index* a_indptr, const Index* a_indices,
    const TA* a_vals,
    Index u_size, const Index* u_idx, const TU* u_vals, Index u_nnz,
    Index c_size, const Index* c_idx, const TC* c_vals, Index c_nnz,
    const Index* m_idx, const uint8_t* m_vals, Index m_nnz,
    double dconst, int64_t iconst,
    Index** out_idx, void** out_vals)
{{
    auto A = GB::make_csr<TA>(a_nrows, a_ncols, a_indptr, a_indices, a_vals);
    auto u = GB::make_vec<TU>(u_size, u_idx, u_vals, u_nnz);
    auto c = GB::make_vec<TC>(c_size, c_idx, c_vals, c_nnz);
    auto t0 = {call};
    auto t1 = GB::apply_vec<TP>(t0, GB::Identity<TP>{{}});
    auto t = GB::apply_vec<TC>(t1, make_unary(dconst, iconst));
"""
        + _VEC_WRITEBACK
    )


def _gen_ewise_vec_apply(spec: KernelSpec, kernel: str) -> str:
    return (
        _cxx_header(spec)
        + "#include <type_traits>\n"
        + f"""
using TU = {cxx_name(spec.get('a'))};
using TV = {cxx_name(spec.get('b'))};
using TC = {cxx_name(spec.get('c'))};
using TT = {cxx_name(spec.get('t_dtype'))};
using TP = {cxx_name(spec.get('p'))};
{_binop_using("Op", spec.get('op'), "TT")}
{_flags_block(spec)}
{_unary_functor(spec, op_key="uop")}

extern "C" Index pygb_run(
    Index u_size, const Index* u_idx, const TU* u_vals, Index u_nnz,
    const Index* v_idx, const TV* v_vals, Index v_nnz,
    Index c_size, const Index* c_idx, const TC* c_vals, Index c_nnz,
    const Index* m_idx, const uint8_t* m_vals, Index m_nnz,
    double dconst, int64_t iconst,
    Index** out_idx, void** out_vals)
{{
    auto u = GB::make_vec<TU>(u_size, u_idx, u_vals, u_nnz);
    auto v = GB::make_vec<TV>(u_size, v_idx, v_vals, v_nnz);
    auto c = GB::make_vec<TC>(c_size, c_idx, c_vals, c_nnz);
    auto t0 = GB::{kernel}<TT>(u, v, Op{{}});
    auto t1 = GB::apply_vec<TP>(t0, GB::Identity<TP>{{}});
    auto t = GB::apply_vec<TC>(t1, make_unary(dconst, iconst));
"""
        + _VEC_WRITEBACK
    )


def _gen_ewise_mat_apply(spec: KernelSpec, kernel: str) -> str:
    return (
        _cxx_header(spec)
        + "#include <type_traits>\n"
        + f"""
using TA = {cxx_name(spec.get('a'))};
using TB = {cxx_name(spec.get('b'))};
using TC = {cxx_name(spec.get('c'))};
using TT = {cxx_name(spec.get('t_dtype'))};
using TP = {cxx_name(spec.get('p'))};
{_binop_using("Op", spec.get('op'), "TT")}
{_flags_block(spec)}
{_unary_functor(spec, op_key="uop")}

extern "C" Index pygb_run(
    Index a_nrows, Index a_ncols, const Index* a_indptr, const Index* a_indices,
    const TA* a_vals,
    const Index* b_indptr, const Index* b_indices, const TB* b_vals,
    const Index* c_indptr, const Index* c_indices, const TC* c_vals,
    const Index* m_indptr, const Index* m_indices, const uint8_t* m_vals,
    double dconst, int64_t iconst,
    Index** out_indptr, Index** out_indices, void** out_values)
{{
    Index c_nrows = a_nrows, c_ncols = a_ncols;
    auto A = GB::make_csr<TA>(a_nrows, a_ncols, a_indptr, a_indices, a_vals);
    auto B = GB::make_csr<TB>(a_nrows, a_ncols, b_indptr, b_indices, b_vals);
    auto c = GB::make_csr<TC>(a_nrows, a_ncols, c_indptr, c_indices, c_vals);
    auto t0 = GB::{kernel}<TT>(A, B, Op{{}});
    auto t1 = GB::apply_mat<TP>(t0, GB::Identity<TP>{{}});
    auto t = GB::apply_mat<TC>(t1, make_unary(dconst, iconst));
"""
        + _MAT_WRITEBACK
    )


def _gen_mxm_reduce_rows(spec: KernelSpec) -> str:
    return (
        _cxx_header(spec)
        + f"""
using TA = {cxx_name(spec.get('a'))};
using TB = {cxx_name(spec.get('b'))};
using TC = {cxx_name(spec.get('c'))};
using TT = {cxx_name(spec.get('t_dtype'))};
using TP = {cxx_name(spec.get('p'))};
{_binop_using("AddOp", spec.get('add'), "TT")}
{_binop_using("MultOp", spec.get('mult'), "TT")}
{_binop_using("RedOp", spec.get('rop'), "TP")}
{_flags_block(spec)}

extern "C" Index pygb_run(
    Index a_nrows, Index a_ncols, const Index* a_indptr, const Index* a_indices,
    const TA* a_vals,
    Index b_nrows, Index b_ncols, const Index* b_indptr, const Index* b_indices,
    const TB* b_vals,
    Index c_size, const Index* c_idx, const TC* c_vals, Index c_nnz,
    const Index* m_idx, const uint8_t* m_vals, Index m_nnz,
    Index** out_idx, void** out_vals)
{{
    auto A = GB::make_csr<TA>(a_nrows, a_ncols, a_indptr, a_indices, a_vals);
    auto B = GB::make_csr<TB>(b_nrows, b_ncols, b_indptr, b_indices, b_vals);
    auto c = GB::make_vec<TC>(c_size, c_idx, c_vals, c_nnz);
    auto t0 = GB::mxm<TT>(A, B, AddOp{{}}, MultOp{{}});
    auto t1 = GB::apply_mat<TP>(t0, GB::Identity<TP>{{}});
    auto t = GB::reduce_rows<TP>(t1, RedOp{{}});
"""
        + _VEC_WRITEBACK
    )


def _gen_apply_assign_vec(spec: KernelSpec) -> str:
    return (
        _cxx_header(spec)
        + "#include <vector>\n#include <type_traits>\n"
        + f"""
using TU = {cxx_name(spec.get('a'))};
using TC = {cxx_name(spec.get('c'))};
using TP = {cxx_name(spec.get('p'))};
{_flags_block(spec)}
{_unary_functor(spec, t="TP", op_key="uop")}

extern "C" Index pygb_run(
    Index c_size, const Index* c_idx, const TC* c_vals, Index c_nnz,
    Index u_size, const Index* u_idx, const TU* u_vals, Index u_nnz,
    const Index* idx, Index n_idx,
    const Index* m_idx, const uint8_t* m_vals, Index m_nnz,
    double dconst, int64_t iconst,
    Index** out_idx, void** out_vals)
{{
    auto c = GB::make_vec<TC>(c_size, c_idx, c_vals, c_nnz);
    auto u0 = GB::make_vec<TU>(u_size, u_idx, u_vals, u_nnz);
    auto u = GB::apply_vec<TP>(u0, make_unary(dconst, iconst));
{_ASSIGN_PRELUDE}
    for (Index k = 0; k < c_nnz; ++k)
        if (!in_region[c_idx[k]] || kHasAccum)
            {{ z_has[c_idx[k]] = 1; z_val[c_idx[k]] = c_vals[k]; }}
    for (size_t k = 0; k < u.idx.size(); ++k) {{
        const Index i = idx[u.idx[k]];
        const TC v = static_cast<TC>(u.val[k]);
        if (kHasAccum && z_has[i] && in_region[i]) z_val[i] = AccumOp{{}}(z_val[i], v);
        else {{ z_has[i] = 1; z_val[i] = v; }}
    }}
"""
        + _ASSIGN_EPILOGUE
    )


def _gen_ewise_reduce_scalar(spec: KernelSpec, kernel: str) -> str:
    return (
        _cxx_header(spec)
        + "#include <type_traits>\n"
        + f"""
using TU = {cxx_name(spec.get('a'))};
using TV = {cxx_name(spec.get('b'))};
using TP = {cxx_name(spec.get('p'))};
{_binop_using("Op", spec.get('op'), "TP")}
{_binop_using("RedOp", spec.get('rop'), "TP")}

extern "C" void pygb_run(
    Index u_size, const Index* u_idx, const TU* u_vals, Index u_nnz,
    const Index* v_idx, const TV* v_vals, Index v_nnz,
    double didentity, int64_t iidentity,
    TP* out_scalar)
{{
    auto u = GB::make_vec<TU>(u_size, u_idx, u_vals, u_nnz);
    auto v = GB::make_vec<TV>(u_size, v_idx, v_vals, v_nnz);
    auto t = GB::{kernel}<TP>(u, v, Op{{}});
    const TP identity = std::is_floating_point<TP>::value
        ? static_cast<TP>(didentity) : static_cast<TP>(iidentity);
    *out_scalar = GB::reduce_values<TP>(t.val, RedOp{{}}, identity);
}}
"""
    )


CPP_GENERATORS = {
    "mxv": _gen_mxv,
    "vxm": _gen_vxm,
    "mxm": _gen_mxm,
    "ewise_add_vec": lambda s: _gen_ewise_vec(s, "ewise_add"),
    "ewise_mult_vec": lambda s: _gen_ewise_vec(s, "ewise_mult"),
    "ewise_add_mat": lambda s: _gen_ewise_mat(s, "ewise_add_mat"),
    "ewise_mult_mat": lambda s: _gen_ewise_mat(s, "ewise_mult_mat"),
    "apply_vec": _gen_apply_vec,
    "apply_mat": _gen_apply_mat,
    "reduce_vec_scalar": lambda s: _gen_reduce_scalar(s, matrix=False),
    "reduce_mat_scalar": lambda s: _gen_reduce_scalar(s, matrix=True),
    "reduce_rows": _gen_reduce_rows,
    "assign_vec": _gen_assign_vec,
    "assign_vec_scalar": _gen_assign_vec_scalar,
    "extract_vec": _gen_extract_vec,
    # fused kernels
    "mxv_apply": lambda s: _gen_mxv_apply(s, flip=False),
    "vxm_apply": lambda s: _gen_mxv_apply(s, flip=True),
    "ewise_add_vec_apply": lambda s: _gen_ewise_vec_apply(s, "ewise_add"),
    "ewise_mult_vec_apply": lambda s: _gen_ewise_vec_apply(s, "ewise_mult"),
    "ewise_add_mat_apply": lambda s: _gen_ewise_mat_apply(s, "ewise_add_mat"),
    "ewise_mult_mat_apply": lambda s: _gen_ewise_mat_apply(s, "ewise_mult_mat"),
    "mxm_reduce_rows": _gen_mxm_reduce_rows,
    "apply_assign_vec": _gen_apply_assign_vec,
    "ewise_add_vec_reduce_scalar": lambda s: _gen_ewise_reduce_scalar(s, "ewise_add"),
    "ewise_mult_vec_reduce_scalar": lambda s: _gen_ewise_reduce_scalar(s, "ewise_mult"),
}

#: operations the C++ backend compiles natively; everything else falls
#: back to the interpreted engine inside :class:`~repro.jit.cppengine.CppJitEngine`
CPP_SUPPORTED = frozenset(CPP_GENERATORS)


def _instrument_kernel_timing(source: str) -> str:
    """Plant the observability clock pair into a generated TU: a
    ``GB::KernelTimer`` as the first statement of ``pygb_run`` (its
    destructor records the kernel's monotonic wall time on every exit
    path) and an ``extern "C"`` accessor the engine reads after the FFI
    call returns."""
    anchor = source.find("pygb_run(")
    if anchor < 0:  # pragma: no cover - every generator emits pygb_run
        return source
    brace = source.find("{", anchor)
    if brace < 0:  # pragma: no cover
        return source
    return (
        source[: brace + 1]
        + "\n    GB::KernelTimer _pygb_kernel_timer;"
        + source[brace + 1 :]
        + '\nextern "C" GB::Index pygb_kernel_ns() { return GB::last_kernel_ns_ref(); }\n'
    )


#: every TU exposes the cancellation flag both ways: the Python watchdog
#: asserts it (pygb_request_cancel) while a kernel runs on another
#: thread, and the engine/tests can read it back (pygb_cancel_requested).
#: One flag per loaded .so — ctypes dlopens RTLD_LOCAL — so the guard
#: layer keeps a registry of every library it must reach.
_CANCEL_ACCESSORS = (
    '\nextern "C" void pygb_request_cancel(GB::Index v)'
    " { GB::cancel_flag_ref().store(v); }\n"
    'extern "C" GB::Index pygb_cancel_requested()'
    " { return GB::cancel_flag_ref().load(); }\n"
)


def _instrument_cancellation(source: str) -> str:
    return source + _CANCEL_ACCESSORS


def generate_cpp_source(spec: KernelSpec) -> str:
    try:
        gen = CPP_GENERATORS[spec.func]
    except KeyError:
        raise CompilationError(f"no C++ generator for operation {spec.func!r}") from None
    return _instrument_cancellation(_instrument_kernel_timing(gen(spec)))
