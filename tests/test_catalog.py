"""AOT kernel catalog tests: baking, the catalog lookup tier, wholesale
version rejection vs per-entry checksum fall-through, read-only packs —
plus regression tests for the cache bugs the catalog work exposed
(key-lock leak, precompile report inflation, $PYGB_COMPILE_JOBS parsing)
and the cross-process compile race.

The packs here are real ``.so`` packs built with the C++ toolchain, but
over a three-spec slice of the catalog space so a bake takes seconds;
the full enumeration is checked by the spec-space tests below and baked
end-to-end by the CI cold-start leg (``benchmarks/check_cold_start.py``).
"""

import ctypes
import json
import os
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import pytest

from repro.exceptions import CatalogError, JitFallbackWarning
from repro.jit import cache as cache_mod
from repro.jit import catalog as catalog_mod
from repro.jit.cache import JitCache, default_compile_jobs
from repro.jit.catalog import (
    CATALOG_FILENAME,
    KernelCatalog,
    bake_catalog,
    catalog_kernel_specs,
    load_catalog,
    validate_catalog,
)
from repro.jit.cppcodegen import generate_cpp_source
from repro.jit.cppengine import CppJitEngine, toolchain_works
from repro.jit.precompile import algorithm_kernel_specs
from repro.jit.spec import KernelSpec

from helpers import fake_compile, fake_source

needs_cxx = pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain")


def _traversal_spec(func: str = "mxv") -> KernelSpec:
    """A spec of the catalog space, keyed as the cpp engine keys
    an unmasked float64 Plus-Times traversal."""
    return KernelSpec.make(
        func, a="float64", u="float64", c="float64", t_dtype="float64",
        add="Plus", mult="Times", mask="none", comp=0, repl=0, accum="none",
    )


def _slice():
    return [_traversal_spec("mxv"), _traversal_spec("vxm"),
            KernelSpec.make("reduce_vec_scalar", a="float64", op="Plus")]


def _bake_slice(out, monkeypatch):
    """Bake the three-spec slice into *out*."""
    monkeypatch.setattr(catalog_mod, "catalog_kernel_specs", _slice)
    monkeypatch.setattr(catalog_mod, "algorithm_module_specs", lambda: [])
    return bake_catalog(out)


def _get(cache: JitCache, spec: KernelSpec):
    """The cpp engine's lookup of *spec* through *cache*."""
    engine = CppJitEngine(cache)
    return cache.get_module(spec, generate_cpp_source, engine._compile)


@pytest.fixture(scope="module")
def pack(tmp_path_factory):
    """One baked pack shared by the read-side tests."""
    if not toolchain_works():
        pytest.skip("no working C++ toolchain")
    out = tmp_path_factory.mktemp("pack")
    with pytest.MonkeyPatch.context() as mp:
        report = _bake_slice(out, mp)
    assert report["failed"] == []
    assert report["entries"] == len(_slice())
    return out


def _copy_pack(pack: Path, dest: Path) -> Path:
    dest.mkdir()
    for p in pack.iterdir():
        (dest / p.name).write_bytes(p.read_bytes())
    return dest


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------
def test_catalog_specs_cover_algorithm_set():
    """Tier 1 of the enumeration is the traced algorithm kernel list, so
    the catalog inherits precompile's drift guard: every algorithm spec
    must appear in the catalog space."""
    catalog = {s.key_hash for s in catalog_kernel_specs()}
    algo = {s.key_hash for s in algorithm_kernel_specs()}
    assert algo <= catalog


def test_catalog_specs_deduplicated():
    specs = catalog_kernel_specs()
    assert len({s.key_hash for s in specs}) == len(specs)


# ----------------------------------------------------------------------
# bake + serve round trip
# ----------------------------------------------------------------------
def test_catalog_specs_contain_the_baked_slice():
    space = {s.key_hash for s in catalog_kernel_specs()}
    assert {s.key_hash for s in _slice()} <= space


def test_catalog_hit_serves_without_compile(pack, tmp_path):
    cache = JitCache(tmp_path / "cold")
    load_catalog(pack, cache)
    path = _get(cache, _traversal_spec())
    assert path.parent == pack
    ctypes.CDLL(str(path))  # a loadable shared object, served in place
    snap = cache.stats.snapshot()
    assert snap["compiles"] == 0
    assert snap["disk_hits"] == 0
    assert snap["catalog_hits"] == 1
    assert snap["catalog_misses"] == 0
    # second lookup is a memory hit, not a second catalog probe
    _get(cache, _traversal_spec())
    assert cache.stats.snapshot()["catalog_hits"] == 1
    assert cache.stats.snapshot()["memory_hits"] == 1


def test_catalog_miss_counted_only_with_catalog_attached(pack, tmp_path):
    cache = JitCache(tmp_path / "cold")
    spec = KernelSpec.make("reduce_vec_scalar", a="int32", op="Max")
    cache.get_module(spec, fake_source, fake_compile)
    assert cache.stats.snapshot()["catalog_misses"] == 0  # no pack attached
    load_catalog(pack, cache)
    spec2 = KernelSpec.make("reduce_vec_scalar", a="int16", op="Max")
    cache.get_module(spec2, fake_source, fake_compile)
    snap = cache.stats.snapshot()
    assert snap["catalog_misses"] == 1
    assert snap["compiles"] == 2


def test_bake_is_incremental(pack, monkeypatch):
    """Re-baking into an existing pack reuses the artifacts on disk."""
    report = _bake_slice(pack, monkeypatch)
    assert report["failed"] == []
    assert report["compiled"] == 0
    assert report["disk_hits"] == report["requested"]


def test_validate_catalog_round_trip(pack):
    check = validate_catalog(pack)
    assert check["bad"] == []
    assert check["ok"] == check["entries"] > 0


def test_bake_without_toolchain_bakes_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv("PYGB_CXX", "/nonexistent/pygb-no-such-compiler")
    report = bake_catalog(tmp_path / "pack")
    assert report["entries"] == report["requested"] == 0
    assert "C++ compiler" in report["cpp_skipped"]


# ----------------------------------------------------------------------
# wholesale rejection (version stamps) vs per-entry fall-through
# ----------------------------------------------------------------------
def _rewrite_catalog(pack: Path, **overrides):
    path = pack / CATALOG_FILENAME
    data = json.loads(path.read_text())
    data.update(overrides)
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("field", ["schema", "codegen_version", "cache_format_version"])
def test_stale_version_stamp_rejected_wholesale(pack, tmp_path, field):
    stale = _copy_pack(pack, tmp_path / "stale")
    _rewrite_catalog(stale, **{field: 999})
    with pytest.raises(CatalogError, match="stale kernel catalog"):
        KernelCatalog.load(stale)
    # programmatic attach is strict too
    with pytest.raises(CatalogError):
        load_catalog(stale, JitCache(tmp_path / "cold"))


def test_garbled_catalog_rejected(tmp_path):
    (tmp_path / CATALOG_FILENAME).write_text("{not json")
    with pytest.raises(CatalogError, match="garbled"):
        KernelCatalog.load(tmp_path)
    with pytest.raises(CatalogError, match="cannot read"):
        KernelCatalog.load(tmp_path / "nowhere")


def test_env_catalog_degrades_to_warning(pack, tmp_path, monkeypatch):
    """$PYGB_CATALOG pointing at a stale/garbled pack must not break the
    process: the cache warns, records the reason for `repro doctor`, and
    serves the normal compile path."""
    stale = _copy_pack(pack, tmp_path / "stale")
    _rewrite_catalog(stale, codegen_version=999)
    monkeypatch.setenv("PYGB_CATALOG", str(stale))
    with pytest.warns(JitFallbackWarning, match="ignoring \\$PYGB_CATALOG"):
        cache = JitCache(tmp_path / "cold")
    assert cache.catalog is None
    assert "stale kernel catalog" in cache.catalog_error
    path = _get(cache, _traversal_spec())
    assert path.parent == cache.cache_dir
    assert cache.stats.snapshot()["compiles"] == 1


def test_env_catalog_attaches(pack, tmp_path, monkeypatch):
    monkeypatch.setenv("PYGB_CATALOG", str(pack))
    cache = JitCache(tmp_path / "cold")
    assert cache.catalog is not None
    assert len(cache.catalog) > 0
    assert cache.catalog_error is None


def test_checksum_mismatch_falls_through_to_compile(pack, tmp_path):
    """A single corrupted artifact quarantines that entry only; the
    lookup degrades to a normal compile and every other entry still
    serves."""
    broken = _copy_pack(pack, tmp_path / "broken")
    spec = _traversal_spec()
    (broken / f"{spec.module_stem}.so").write_bytes(b"garbage ][")
    cache = JitCache(tmp_path / "cold")
    load_catalog(broken, cache)
    path = _get(cache, spec)
    ctypes.CDLL(str(path))
    snap = cache.stats.snapshot()
    assert snap["catalog_misses"] == 1
    assert snap["compiles"] == 1
    # an intact entry still serves from the same pack
    _get(cache, _traversal_spec("vxm"))
    assert cache.stats.snapshot()["catalog_hits"] == 1
    check = validate_catalog(broken)
    assert check["bad"] == [spec.key]


def test_unloadable_entry_quarantined(pack, tmp_path):
    """Checksum-clean but unloadable (pack baked from a broken file that
    was then faithfully checksummed): the engine's failed dlopen
    quarantines the entry and recompiles, once."""
    import numpy as np

    from repro.backend.svector import SparseVector

    broken = _copy_pack(pack, tmp_path / "broken")
    spec = KernelSpec.make("reduce_vec_scalar", a="float64", op="Plus")
    bad = b"not an ELF object\n"
    (broken / f"{spec.module_stem}.so").write_bytes(bad)
    path = broken / CATALOG_FILENAME
    data = json.loads(path.read_text())
    for entry in data["entries"]:
        if entry["key_hash"] == spec.key_hash:
            entry["sha256"] = JitCache._sha256_file(broken / f"{spec.module_stem}.so")
            entry["size"] = len(bad)
    path.write_text(json.dumps(data))
    cache = JitCache(tmp_path / "cold")
    catalog = load_catalog(broken, cache)
    engine = CppJitEngine(cache)
    u = SparseVector.from_coo(4, [0, 2], [1.5, 2.0])
    assert engine.reduce_vec_scalar(u, "Plus", np.float64(0.0)) == 3.5
    assert cache.stats.snapshot()["compiles"] == 1
    assert catalog.entry(spec.key_hash, ".so") is None  # quarantined


def test_readonly_catalog_dir(pack, tmp_path):
    """Packs are served in place (no copy into the cache dir), so a
    read-only pack — a container image layer, a shared mount — works."""
    os.chmod(pack, 0o555)
    try:
        cache = JitCache(tmp_path / "cold")
        load_catalog(pack, cache)
        assert _get(cache, _traversal_spec()).parent == pack
        assert cache.stats.snapshot()["catalog_hits"] == 1
        assert cache.stats.snapshot()["compiles"] == 0
    finally:
        os.chmod(pack, 0o755)


@needs_cxx
def test_bake_into_unwritable_dir_raises(tmp_path):
    if getattr(os, "geteuid", lambda: 1)() == 0:
        pytest.skip("root ignores directory modes")
    target = tmp_path / "ro"
    target.mkdir()
    os.chmod(target, 0o555)
    try:
        with pytest.raises(CatalogError, match="not writable"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", JitFallbackWarning)
                bake_catalog(target / "pack")
    finally:
        os.chmod(target, 0o755)


# ----------------------------------------------------------------------
# satellite regression tests
# ----------------------------------------------------------------------
def test_key_locks_pruned_after_module_resident(pack, tmp_path):
    """Regression: one lock per spec used to accumulate forever — a leak
    for long-running services and for bake's hundreds of specs."""
    cache = JitCache(tmp_path)
    specs = [KernelSpec.make("reduce_vec_scalar", a=d, op="Plus")
             for d in ("int8", "int16", "int32")]
    for spec in specs:
        cache.get_module(spec, fake_source, fake_compile)
    assert cache._key_locks == {}
    # ... including when the module arrives via the catalog tier
    cold = JitCache(tmp_path / "cold")
    load_catalog(pack, cold)
    _get(cold, _traversal_spec())
    assert cold.stats.snapshot()["catalog_hits"] == 1
    assert cold._key_locks == {}


def test_precompile_report_not_inflated_by_foreground_traffic(tmp_path):
    """Regression: the report was computed as global-counter deltas, so
    compiles triggered *from inside* a job's generate call (or by any
    concurrent foreground thread) were billed to the precompile batch.
    Outcomes are now attributed per submitted job."""
    cache = JitCache(tmp_path)
    inner = KernelSpec.make("reduce_vec_scalar", a="int64", op="Plus")
    outer = KernelSpec.make("reduce_vec_scalar", a="float64", op="Plus")

    def generate_with_foreground(spec):
        # a "foreground" dispatch on another spec while the pool works
        cache.get_module(inner, fake_source, fake_compile)
        return fake_source(spec)

    report = cache.precompile([(outer, generate_with_foreground, fake_compile)])
    assert cache.stats.snapshot()["compiles"] == 2  # both really compiled
    assert report["requested"] == 1
    assert report["compiled"] == 1  # ... but only one was this batch's job
    assert report["disk_hits"] == report["memory_hits"] == 0
    assert report["catalog_hits"] == 0


def test_precompile_reports_catalog_hits(pack, tmp_path):
    cache = JitCache(tmp_path / "cold")
    load_catalog(pack, cache)
    report = cache.precompile([(_traversal_spec(), fake_source, fake_compile)])
    assert report["catalog_hits"] == 1
    assert report["compiled"] == 0


def test_compile_jobs_env_rejects_garbage(monkeypatch):
    """Regression: an unparseable $PYGB_COMPILE_JOBS was silently
    swallowed and 0/negative clamped to one worker; now it warns once
    and uses the default."""
    default = max(2, min(8, 2 * (os.cpu_count() or 1)))
    for bad in ("banana", "0", "-3"):
        monkeypatch.setattr(cache_mod, "_jobs_env_warned", False)
        monkeypatch.setenv("PYGB_COMPILE_JOBS", bad)
        with pytest.warns(UserWarning, match="bad \\$PYGB_COMPILE_JOBS"):
            assert default_compile_jobs() == default
        # ... and only once per process
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_compile_jobs() == default


def test_compile_jobs_env_valid_value(monkeypatch):
    monkeypatch.setenv("PYGB_COMPILE_JOBS", "5")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert default_compile_jobs() == 5


# ----------------------------------------------------------------------
# cross-process compile race (the os.replace path)
# ----------------------------------------------------------------------
@needs_cxx
def test_cross_process_cache_race(tmp_path):
    """Two processes compiling the same spec into one cache directory
    must both load a complete artifact: writers build under a unique
    temp name and ``os.replace`` it into place, so a reader can never
    see a half-written shared object."""
    child = textwrap.dedent(
        """
        import ctypes, sys, time
        from repro.jit.cache import JitCache
        from repro.jit.cppcodegen import generate_cpp_source
        from repro.jit.cppengine import CppJitEngine
        from repro.jit.spec import KernelSpec

        cache = JitCache(sys.argv[1])
        engine = CppJitEngine(cache)
        spec = KernelSpec.make("reduce_vec_scalar", a="float64", op="Plus")

        def slow_generate(s):
            time.sleep(0.5)  # widen the race window past process startup skew
            return generate_cpp_source(s)

        path = cache.get_module(spec, slow_generate, engine._compile)
        ctypes.CDLL(str(path))
        print("OK", cache.stats.compiles)
        """
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", child, str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
        )
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=120) for p in procs]
    for p, (out, err) in zip(procs, outs):
        assert p.returncode == 0, err
        assert out.startswith("OK")
    # whichever writer lost the os.replace race, the survivor artifact
    # must be complete and checksum-clean for the next process
    cache = JitCache(tmp_path)
    spec = KernelSpec.make("reduce_vec_scalar", a="float64", op="Plus")
    _get(cache, spec)
    assert cache.stats.snapshot()["disk_hits"] == 1
    assert cache.stats.snapshot()["compiles"] == 0


def test_same_process_race_dedupes_to_one_compile(tmp_path):
    """In-process, the per-key lock dedupes concurrent lookups of one
    spec into a single compile (and the loser threads get memory hits)."""
    cache = JitCache(tmp_path)
    spec = KernelSpec.make("reduce_vec_scalar", a="int64", op="Min")
    results = []

    def worker():
        results.append(cache.get_module(spec, fake_source, fake_compile))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert cache.stats.snapshot()["compiles"] == 1
