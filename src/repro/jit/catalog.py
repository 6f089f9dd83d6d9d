"""AOT kernel catalog: a redistributable pack of pre-built kernels.

The paper amortizes dynamic compilation "over future runs of the same
code", but every *first* ``(op, dtypes, operators)`` spec in a fresh
cache directory still pays an inline ``g++`` compile.  DAPHNE's
``genKernelInst.py`` pre-instantiation pipeline and GraphBLAST's fixed
pre-built kernel library show the hot spec space is enumerable ahead of
time; this module does exactly that for PyGB:

* :func:`catalog_kernel_specs` enumerates the hot spec space — the
  traced algorithm kernel set from :mod:`~repro.jit.precompile` (kept
  honest by its drift guard), a predefined-semiring × dtype ×
  schedule-direction grid, and the fused-pair shapes from
  :mod:`~repro.jit.fused_ops`;
* :func:`bake_catalog` batch-builds those specs with the existing
  concurrent compile pool (:meth:`JitCache.precompile`) into one shared
  pack directory and emits ``catalog.json`` — spec key hash → artifact
  name + sha256, stamped with ``CODEGEN_VERSION`` and
  ``CACHE_FORMAT_VERSION``;
* :class:`KernelCatalog` / :func:`load_catalog` attach a baked pack to
  a :class:`JitCache`, which then serves lookups from the pack *between*
  its memory and disk tiers — a fresh process's first op becomes a
  catalog hit, not a compile.

Invalidation is two-level, mirroring the disk cache: a pack whose
version stamps mismatch is rejected **wholesale** at load time
(:class:`~repro.exceptions.CatalogError`); an individual entry whose
artifact fails its checksum (or fails to load) is quarantined and the
lookup falls through to the normal disk → compile path.  The pack itself
is never written to at serve time, so read-only catalog directories
(container images, shared network mounts) work.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from ..exceptions import BackendUnavailable, CatalogError
from .cache import CACHE_FORMAT_VERSION, JitCache, default_cache
from .fused_ops import FUSED_OPS
from .precompile import algorithm_kernel_specs, algorithm_module_specs
from .spec import CODEGEN_VERSION, KernelSpec

__all__ = [
    "CATALOG_FILENAME",
    "CATALOG_SCHEMA_VERSION",
    "KernelCatalog",
    "catalog_kernel_specs",
    "bake_catalog",
    "validate_catalog",
    "load_catalog",
]

CATALOG_FILENAME = "catalog.json"

#: bumped whenever the catalog.json layout changes.
CATALOG_SCHEMA_VERSION = 1

#: ``(add, mult)`` of every predefined semiring (core/predefined.py) —
#: the grid axis the ISSUE calls "predefined semirings".
_SEMIRING_PAIRS: tuple[tuple[str, str], ...] = (
    ("Plus", "Times"),          # ArithmeticSemiring
    ("LogicalOr", "LogicalAnd"),  # LogicalSemiring
    ("Min", "Plus"),            # MinPlusSemiring
    ("Max", "Plus"),            # MaxPlusSemiring
    ("Min", "Times"),           # MinTimesSemiring
    ("Max", "Times"),           # MaxTimesSemiring
    ("Min", "First"),           # MinSelect1stSemiring
    ("Min", "Second"),          # MinSelect2ndSemiring
    ("Max", "First"),           # MaxSelect1stSemiring
    ("Max", "Second"),          # MaxSelect2ndSemiring
)

#: the dtypes the bundled algorithms and examples actually traffic in.
_GRID_DTYPES = ("int64", "float64")

_UNMASKED = dict(mask="none", comp=0, repl=0, accum="none")
#: the traversal shape: structural-complement mask, replace semantics —
#: what direction-optimized BFS/SSSP frontier expansion dispatches.
_MASKED = dict(mask="value", comp=1, repl=1, accum="none")


def _result_dtypes(add: str, mult: str, d: str) -> tuple[str, str]:
    """``(t_dtype, c)`` for a semiring applied to operands of dtype *d*,
    computed exactly the way the cpp engine does at dispatch time."""
    from ..backend.ops_table import binary_result_dtype

    t = KernelSpec.dt(binary_result_dtype(mult, d, d))
    c = KernelSpec.dt(binary_result_dtype(add, t, t))
    return t, c


def _semiring_grid() -> list[KernelSpec]:
    """mxv/vxm over every predefined semiring × grid dtype, in every
    schedule direction the engine can actually pick: ``dense`` and
    ``push`` unmasked, ``push``/``pull`` under the traversal mask
    (``schedule.resolve`` only offers ``pull`` when a mask bounds the
    gather candidates, so there is no unmasked-pull variant to bake)."""
    specs = []
    for add, mult in _SEMIRING_PAIRS:
        # the logical semiring's native operand dtype is bool (BFS
        # frontiers); the arithmetic-flavoured pairs never see it
        dtypes = _GRID_DTYPES
        if (add, mult) == ("LogicalOr", "LogicalAnd"):
            dtypes = _GRID_DTYPES + ("bool",)
        for d in dtypes:
            t, c = _result_dtypes(add, mult, d)
            base = dict(a=d, u=d, c=c, t_dtype=t, add=add, mult=mult)
            shapes = [
                ("mxv", dict(base, **_UNMASKED)),
                ("mxv", dict(base, dir="push", **_UNMASKED)),
                ("mxv", dict(base, dir="push", **_MASKED)),
                ("mxv", dict(base, dir="pull", **_MASKED)),
                # the relaxation idiom (`d[:] accum= A @ d` with the add
                # monoid as accumulator — SSSP/Bellman-Ford steps)
                ("mxv", dict(base, **{**_UNMASKED, "accum": add})),
                ("mxv", dict(base, dir="push",
                             **{**_UNMASKED, "accum": add})),
                ("vxm", dict(base, **_UNMASKED)),
                ("vxm", dict(base, dir="push", **_UNMASKED)),
                # the frontier-update idiom (`w[...] << v.vxm(A)` with
                # Second accumulation) that PageRank-style loops dispatch
                ("vxm", dict(base, dir="push",
                             **{**_UNMASKED, "accum": "Second"})),
            ]
            specs += [KernelSpec.make(func, **params) for func, params in shapes]
    return specs


def _reduction_grid() -> list[KernelSpec]:
    """``reduce_rows`` over every monoid a predefined semiring adds
    with, per grid dtype — the rank-normalisation step of PageRank-style
    loops (`v << A.reduce_rows()`)."""
    from ..backend.ops_table import binary_result_dtype

    monoids = sorted({add for add, _ in _SEMIRING_PAIRS})
    specs = []
    for op in monoids:
        for d in _GRID_DTYPES:
            c = KernelSpec.dt(binary_result_dtype(op, d, d))
            specs.append(KernelSpec.make("reduce_rows", a=d, c=c, op=op, **_UNMASKED))
    return specs


def _elementwise_grid() -> list[KernelSpec]:
    """The hot non-semiring companions every algorithm-shaped loop
    dispatches between its mxv/vxm steps: vector eWise combine, the
    scalar-bound apply (PageRank's damping multiply), the same-dtype
    matrix copy ``m[None] = graph`` (PageRank's first statement on a
    float graph), and whole-container scalar reductions (convergence
    checks, sums)."""
    from ..backend.ops_table import binary_result_dtype

    specs = []
    for d in _GRID_DTYPES:
        shapes = []
        for func, op in (("ewise_add_vec", "Plus"), ("ewise_add_vec", "Min"),
                         ("ewise_mult_vec", "Times")):
            t = KernelSpec.dt(binary_result_dtype(op, d, d))
            shapes.append((func, dict(a=d, b=d, c=t, t_dtype=t, op=op,
                                      **_UNMASKED)))
        for op in ("Times", "Plus"):
            shapes.append(("apply_vec", dict(a=d, c=d, form="bind", op=op,
                                             side="second", **_UNMASKED)))
        shapes.append(("apply_mat", dict(a=d, c=d, form="unary", op="Identity",
                                         side="none", **_UNMASKED)))
        for func in ("reduce_mat_scalar", "reduce_vec_scalar"):
            for op in ("Plus", "Min", "Max"):
                shapes.append((func, dict(a=d, op=op)))
        specs += [KernelSpec.make(func, **params) for func, params in shapes]
    return specs


def _fused_grid() -> list[KernelSpec]:
    """One representative spec per fused-pair shape in ``FUSED_OPS``,
    instantiated for the float64 arithmetic semiring with the planner's
    most common absorbed apply (``x * const`` — PageRank's damping
    step), mirroring the spec construction in ``cppengine``."""
    f = "float64"
    apply_parts = dict(form="bind", uop="Times", side="second")
    by_name = {
        "mxv_apply": dict(a=f, u=f, c=f, t_dtype=f, p=f, add="Plus",
                          mult="Times", **apply_parts),
        "vxm_apply": dict(a=f, u=f, c=f, t_dtype=f, p=f, add="Plus",
                          mult="Times", **apply_parts),
        "ewise_add_vec_apply": dict(a=f, b=f, c=f, t_dtype=f, p=f,
                                    op="Plus", **apply_parts),
        "ewise_mult_vec_apply": dict(a=f, b=f, c=f, t_dtype=f, p=f,
                                     op="Times", **apply_parts),
        "ewise_add_mat_apply": dict(a=f, b=f, c=f, t_dtype=f, p=f,
                                    op="Plus", **apply_parts),
        "ewise_mult_mat_apply": dict(a=f, b=f, c=f, t_dtype=f, p=f,
                                     op="Times", **apply_parts),
        "mxm_reduce_rows": dict(a=f, b=f, c=f, t_dtype=f, p=f, add="Plus",
                                mult="Times", rop="Plus"),
        "apply_assign_vec": dict(a=f, c=f, p=f, **apply_parts),
        # reduce-site fusions carry no descriptor (scalar output)
        "ewise_add_vec_reduce_scalar": dict(a=f, b=f, p=f, op="Plus",
                                            rop="Plus"),
        "ewise_mult_vec_reduce_scalar": dict(a=f, b=f, p=f, op="Times",
                                             rop="Plus"),
    }
    specs = []
    for rule in FUSED_OPS:
        params = dict(by_name[rule.name], fused=True)
        if rule.output != "scalar":
            params.update(_UNMASKED)
        specs.append(KernelSpec.make(rule.name, **params))
    return specs


def _dedup(specs: list[KernelSpec]) -> list[KernelSpec]:
    seen: set[str] = set()
    out = []
    for spec in specs:
        if spec.key_hash not in seen:
            seen.add(spec.key_hash)
            out.append(spec)
    return out


def catalog_kernel_specs() -> list[KernelSpec]:
    """The hot per-operation spec space, deduplicated by key hash:
    the traced algorithm kernel set (tier 1 — reuses ``precompile.py``'s
    list and therefore its drift guard), the predefined-semiring grid
    with its row-reduction companions (tier 2) and the fused-pair
    shapes (tier 3)."""
    return _dedup(
        algorithm_kernel_specs()
        + _semiring_grid()
        + _reduction_grid()
        + _elementwise_grid()
        + _fused_grid()
    )


# ----------------------------------------------------------------------
# the catalog object (read side)
# ----------------------------------------------------------------------
class KernelCatalog:
    """A loaded, version-checked ``catalog.json``.

    Entry lookups are by ``(key_hash, kind)`` where *kind* is the
    artifact suffix (``.so``, the only kind baked).  Checksums are
    verified lazily on first use of each entry and the verdict memoized;
    a failing entry is quarantined so later lookups miss immediately.
    """

    def __init__(self, root: Path, data: dict):
        self.root = Path(root)
        self.entries: dict[tuple[str, str], dict] = {}
        for entry in data.get("entries", []):
            self.entries[(entry["key_hash"], entry["kind"])] = entry
        self._verified: dict[tuple[str, str], bool] = {}
        self._lock = threading.Lock()

    @classmethod
    def load(cls, root: str | os.PathLike) -> "KernelCatalog":
        """Parse and version-check ``<root>/catalog.json``; raises
        :class:`CatalogError` on a missing/garbled file or any stamp
        mismatch — stale catalogs are rejected wholesale, never entry by
        entry."""
        root = Path(root)
        path = root / CATALOG_FILENAME
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise CatalogError(f"cannot read kernel catalog {path}: {exc}") from exc
        except ValueError as exc:
            raise CatalogError(f"garbled kernel catalog {path}: {exc}") from exc
        if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
            raise CatalogError(f"garbled kernel catalog {path}: not a catalog object")
        stamps = (
            ("schema", data.get("schema"), CATALOG_SCHEMA_VERSION),
            ("codegen_version", data.get("codegen_version"), CODEGEN_VERSION),
            ("cache_format_version", data.get("cache_format_version"),
             CACHE_FORMAT_VERSION),
        )
        for name, got, want in stamps:
            if got != want:
                raise CatalogError(
                    f"stale kernel catalog {path}: {name}={got!r} but this "
                    f"library expects {want!r} — re-run `python -m repro bake`"
                )
        try:
            return cls(root, data)
        except (KeyError, TypeError) as exc:
            raise CatalogError(f"garbled kernel catalog {path}: {exc}") from exc

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, key_hash: str, kind: str) -> dict | None:
        """The catalog entry for ``(key_hash, kind)``, or ``None`` when
        absent or quarantined."""
        key = (key_hash, kind)
        with self._lock:
            if self._verified.get(key) is False:
                return None
        return self.entries.get(key)

    def artifact_path(self, entry: dict) -> Path:
        return self.root / entry["artifact"]

    def verify(self, entry: dict) -> bool:
        """Whether the entry's artifact matches its recorded sha256 and
        size.  Hashing happens once per entry per process; failures are
        sticky (the entry is quarantined)."""
        key = (entry["key_hash"], entry["kind"])
        with self._lock:
            cached = self._verified.get(key)
        if cached is not None:
            return cached
        path = self.artifact_path(entry)
        try:
            ok = (
                path.stat().st_size == entry.get("size")
                and JitCache._sha256_file(path) == entry.get("sha256")
            )
        except OSError:
            ok = False
        with self._lock:
            self._verified[key] = ok
        return ok

    def quarantine(self, key_hash: str, kind: str) -> None:
        """Mark an entry bad (checksum-clean artifact that still failed
        to dlopen/import) so later lookups fall through to compile."""
        with self._lock:
            self._verified[(key_hash, kind)] = False


def load_catalog(path: str | os.PathLike, cache: JitCache | None = None) -> KernelCatalog:
    """Programmatic attach: load the pack at *path* and install it as the
    catalog tier of *cache* (the process-wide default cache when omitted).
    Unlike the ``$PYGB_CATALOG`` env path — which degrades to a warning —
    this raises :class:`CatalogError` on any problem."""
    catalog = KernelCatalog.load(path)
    cache = cache if cache is not None else default_cache()
    cache.attach_catalog(catalog)
    return catalog


# ----------------------------------------------------------------------
# baking (write side)
# ----------------------------------------------------------------------
def bake_catalog(
    out_dir: str | os.PathLike,
    max_workers: int | None = None,
) -> dict:
    """Build the full catalog spec space into *out_dir* and write
    ``catalog.json``.

    The pack directory doubles as a :class:`JitCache` directory during
    the bake, so re-baking into an existing pack is incremental (warm
    artifacts are disk hits, not recompiles) and every artifact gets the
    cache's usual sidecar manifest — the catalog's per-entry sha256 is
    read back from those manifests rather than hashed twice.

    Without a C++ toolchain nothing is baked and the report says why
    (``cpp_skipped``).  Failures are collected per spec, not raised.
    """
    out_dir = Path(out_dir)
    cache = JitCache(out_dir)
    if cache.relocated:
        raise CatalogError(f"catalog output directory {out_dir} is not writable")

    jobs = []
    specs: list[KernelSpec] = []
    cpp_skipped = None
    try:
        from .algorithm_codegen import generate_algorithm_source
        from .cppcodegen import generate_cpp_source
        from .cppengine import CppJitEngine

        engine = CppJitEngine(cache)
        kernel_specs = catalog_kernel_specs()
        module_specs = algorithm_module_specs()
        specs = kernel_specs + module_specs
        jobs = [(spec, generate_cpp_source, engine._compile) for spec in kernel_specs]
        jobs += [(spec, generate_algorithm_source, engine._compile)
                 for spec in module_specs]
    except BackendUnavailable as exc:
        cpp_skipped = str(exc)

    t0 = time.perf_counter()
    report = cache.precompile(jobs, max_workers=max_workers)

    entries = []
    missing = []
    kind = ".so"
    for spec in specs:
        artifact = out_dir / f"{spec.module_stem}{kind}"
        manifest = JitCache._manifest_path(artifact)
        try:
            mdata = json.loads(manifest.read_text())
        except (OSError, ValueError):
            missing.append((spec.key, kind))
            continue
        entries.append({
            "key": spec.key,
            "key_hash": spec.key_hash,
            "func": spec.func,
            "kind": kind,
            "artifact": artifact.name,
            "sha256": mdata.get("artifact_sha256"),
            "size": mdata.get("artifact_size"),
        })
    entries.sort(key=lambda e: (e["func"], e["key_hash"], e["kind"]))

    catalog_data = {
        "schema": CATALOG_SCHEMA_VERSION,
        "codegen_version": CODEGEN_VERSION,
        "cache_format_version": CACHE_FORMAT_VERSION,
        "entries": entries,
    }
    cache._atomic_write(out_dir / CATALOG_FILENAME,
                        json.dumps(catalog_data, indent=1, sort_keys=True))

    report.update(
        out=str(out_dir),
        entries=len(entries),
        missing=missing,
        cpp_skipped=cpp_skipped,
        seconds=time.perf_counter() - t0,
    )
    return report


def validate_catalog(path: str | os.PathLike) -> dict:
    """Round-trip check of a baked pack: load (version stamps) then
    verify every entry's checksum.  Returns ``{"entries", "ok", "bad"}``
    where *bad* lists the keys of entries whose artifacts fail."""
    catalog = KernelCatalog.load(path)
    bad = [entry["key"] for entry in catalog.entries.values()
           if not catalog.verify(entry)]
    return {"entries": len(catalog), "ok": len(catalog) - len(bad), "bad": bad}
