"""The shared per-node description of every fused kernel.

This table is the single source of truth the planner
(:mod:`repro.jit.fusion`), the code generator
(:mod:`repro.jit.cppcodegen`), the reference kernels
(:mod:`repro.backend.kernels.fused`) and the precompiler key off —
adding a rule here, a reference kernel and a C++ generator is the whole
recipe (a coverage test asserts every name below is registered in
both).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FusedOp", "FUSED_OPS"]


@dataclass(frozen=True)
class FusedOp:
    """One peephole rule: *consumer* node absorbing the *producer* node
    feeding its operand *slot*.

    ``name`` is simultaneously the engine method, the ``KernelSpec`` func
    and the generator key.  ``where`` says which rewrite site applies the
    rule: ``plan`` rules run inside the planner pass over the expression
    graph; ``assign``/``reduce`` rules trigger at the two write sites the
    plan cannot see (``w[i] = f(u)`` subscript-assign and scalar
    ``gb.reduce``), where the "consumer" is the write site itself.
    """

    name: str
    producer: str  # producer node plan_kind
    consumer: str  # consumer node plan_kind (or the write-site kind)
    slot: str      # consumer operand slot the producer feeds
    output: str    # "vec" | "mat" | "scalar"
    where: str = "plan"
    #: whether the fused kernel still executes correctly per row tile.
    #: Every current rule is row-local (the PartitionedEngine fans the
    #: fused method itself over the blocks), but a rule whose kernel
    #: crosses a tile merge boundary must set False — the planner then
    #: refuses to absorb nodes with tiled matrix operands rather than
    #: silently discarding the partition.
    tile_safe: bool = True


FUSED_OPS = (
    FusedOp("mxv_apply", "mxv", "apply_vec", "a", "vec"),
    FusedOp("vxm_apply", "vxm", "apply_vec", "a", "vec"),
    FusedOp("ewise_add_vec_apply", "ewise_add_vec", "apply_vec", "a", "vec"),
    FusedOp("ewise_mult_vec_apply", "ewise_mult_vec", "apply_vec", "a", "vec"),
    FusedOp("ewise_add_mat_apply", "ewise_add_mat", "apply_mat", "a", "mat"),
    FusedOp("ewise_mult_mat_apply", "ewise_mult_mat", "apply_mat", "a", "mat"),
    FusedOp("mxm_reduce_rows", "mxm", "reduce_rows", "a", "vec"),
    FusedOp("apply_assign_vec", "apply_vec", "assign_vec", "a", "vec", where="assign"),
    FusedOp("ewise_add_vec_reduce_scalar", "ewise_add_vec", "reduce_vec_scalar", "a",
            "scalar", where="reduce"),
    FusedOp("ewise_mult_vec_reduce_scalar", "ewise_mult_vec", "reduce_vec_scalar", "a",
            "scalar", where="reduce"),
)
