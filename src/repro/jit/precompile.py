"""Ahead-of-time cache warming (non-blocking compilation, paper Sec. V).

The paper notes that dynamic compilation "can be amortized over future
runs" but every *first* run still pays the g++ latency inline.  This
module removes that cost up front: :func:`warm_cache` fans the known
algorithm kernel set out over :meth:`JitCache.precompile`'s thread pool,
so by the time an algorithm dispatches its first operation the shared
object is already on disk (a cache hit, not a compile).

The spec list below was captured by tracing every bundled algorithm
(BFS, SSSP, PageRank, triangle count — both the operation-at-a-time and
the whole-algorithm compiled versions) under the ``cpp`` engine; the
``test_warm_cache_covers_algorithms`` drift guard re-derives it the same
way, so additions to the algorithms fail loudly here instead of silently
compiling at run time.
"""

from __future__ import annotations

from ..exceptions import CompilationError
from .cache import JitCache, default_cache
from .cppcodegen import generate_cpp_source
from .spec import KernelSpec

__all__ = ["algorithm_kernel_specs", "algorithm_module_specs", "warm_cache"]

# (func, params) for every per-operation kernel the bundled algorithms
# dispatch.  Keep sorted by func for readability.
_ALGORITHM_KERNELS: tuple[tuple[str, dict], ...] = (
    ("apply_mat", dict(a="float64", accum="none", c="float64", comp=0,
                       form="bind", mask="none", op="Times", repl=0,
                       side="second")),
    ("apply_mat", dict(a="int64", accum="none", c="float64", comp=0,
                       form="unary", mask="none", op="Identity", repl=0,
                       side="none")),
    ("apply_vec", dict(a="float64", accum="none", c="float64", comp=0,
                       form="bind", mask="none", op="Plus", repl=0,
                       side="second")),
    ("assign_vec", dict(a="float64", accum="none", c="float64", comp=0,
                        mask="none", repl=0)),
    ("assign_vec_scalar", dict(accum="none", c="float64", comp=0,
                               mask="none", repl=0)),
    ("assign_vec_scalar", dict(accum="none", c="int64", comp=0,
                               mask="value", repl=0)),
    ("ewise_add_vec", dict(a="float64", accum="none", b="float64",
                           c="float64", comp=0, mask="none", op="Minus",
                           repl=0, t_dtype="float64")),
    ("ewise_mult_vec", dict(a="float64", accum="none", b="float64",
                            c="float64", comp=0, mask="none", op="Times",
                            repl=0, t_dtype="float64")),
    ("ewise_mult_vec_reduce_scalar", dict(a="float64", b="float64", fused=1,
                                          op="Times", p="float64",
                                          rop="Plus")),
    ("mxm", dict(a="int64", accum="none", add="Plus", b="int64", c="int64",
                 comp=0, mask="value", mult="Times", repl=0,
                 t_dtype="int64")),
    ("mxv", dict(a="float64", accum="Min", add="Min", c="float64", comp=0,
                 mask="none", mult="Plus", repl=0, t_dtype="float64",
                 u="float64")),
    ("mxv", dict(a="float64", accum="Min", add="Min", c="float64", comp=0,
                 dir="push", mask="none", mult="Plus", repl=0,
                 t_dtype="float64", u="float64")),
    ("mxv", dict(a="int64", accum="Min", add="Min", c="int64", comp=0,
                 mask="none", mult="Second", repl=0, t_dtype="int64",
                 u="int64")),
    ("mxv", dict(a="int64", accum="Min", add="Min", c="int64", comp=0,
                 dir="push", mask="none", mult="Second", repl=0,
                 t_dtype="int64", u="int64")),
    ("mxv", dict(a="int64", accum="none", add="LogicalOr", c="bool", comp=1,
                 mask="value", mult="LogicalAnd", repl=1, t_dtype="bool",
                 u="bool")),
    # the auto schedule's direction-optimized variants of the BFS step
    # (push on sparse frontiers, pull with the LogicalOr early exit on
    # dense ones) and of the unmasked SSSP / connected-components
    # relaxations (push)
    ("mxv", dict(a="int64", accum="none", add="LogicalOr", c="bool", comp=1,
                 dir="push", mask="value", mult="LogicalAnd", repl=1,
                 t_dtype="bool", u="bool")),
    ("mxv", dict(a="int64", accum="none", add="LogicalOr", c="bool", comp=1,
                 dir="pull", mask="value", mult="LogicalAnd", repl=1,
                 t_dtype="bool", u="bool")),
    ("reduce_mat_scalar", dict(a="int64", op="Plus")),
    ("reduce_vec_scalar", dict(a="float64", op="Plus")),
    ("vxm", dict(a="float64", accum="Second", add="Plus", c="float64",
                 comp=0, mask="none", mult="Times", repl=0,
                 t_dtype="float64", u="float64")),
)

# (func, vtype) for the whole-algorithm compiled modules (Fig. 10
# versions 2/3).
_ALGORITHM_MODULES: tuple[tuple[str, str], ...] = (
    ("algo_bfs", "int64"),
    ("algo_pagerank", "float64"),
    ("algo_sssp", "float64"),
    ("algo_triangle_count", "int64"),
)


def algorithm_kernel_specs() -> list[KernelSpec]:
    """The per-operation kernel specs the bundled algorithms use."""
    return [KernelSpec.make(func, **params) for func, params in _ALGORITHM_KERNELS]


def algorithm_module_specs() -> list[KernelSpec]:
    """Specs of the whole-algorithm C++ modules."""
    return [KernelSpec.make(func, vtype=vtype) for func, vtype in _ALGORITHM_MODULES]


def warm_cache(
    cache: JitCache | None = None,
    include_algorithm_modules: bool = True,
    max_workers: int | None = None,
) -> dict:
    """Pre-build the algorithm kernel set with concurrent g++ jobs.

    Returns the :meth:`JitCache.precompile` report dict.
    """
    # imported late: cppengine raises BackendUnavailable without a
    # toolchain, and importing it triggers no probe by itself
    from .algorithm_codegen import generate_algorithm_source
    from .cppengine import CppJitEngine

    cache = cache if cache is not None else default_cache()
    engine = CppJitEngine(cache)

    jobs = [
        (spec, generate_cpp_source, engine._compile)
        for spec in algorithm_kernel_specs()
    ]
    if include_algorithm_modules:
        jobs += [
            (spec, generate_algorithm_source, engine._compile)
            for spec in algorithm_module_specs()
        ]
    report = cache.precompile(jobs, max_workers=max_workers)
    # failed specs are recorded against the cpp engine's health up front,
    # so a later algorithm run skips straight to the fallback chain (and
    # ``repro doctor`` shows what precompilation discovered); the report
    # itself is the user-facing signal here, so the per-spec fallback
    # warnings are suppressed
    if report["failed"]:
        import warnings

        from ..exceptions import JitFallbackWarning

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", JitFallbackWarning)
            for key, err in report["failed"]:
                cache.note_jit_failure()
                cache.health.record_failure(engine.name, key, CompilationError(err))
    return report
