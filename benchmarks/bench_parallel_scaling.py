#!/usr/bin/env python3
"""Concurrent-compilation benchmark: sequential vs pooled cache warming.

Warms the algorithm kernel set (:func:`repro.jit.precompile.warm_cache`)
into a cold cache twice, once with one compile job and once with a pool
of four, and reports both wall times.  Kernels themselves are serial;
this measures only how far the compile pool overlaps ``g++`` runs.

Results go to ``benchmarks/results/parallel_scaling.json`` together with
the machine's visible core count — the pooled speedup is bounded by that
number.

Run directly::

    python benchmarks/bench_parallel_scaling.py
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

os.environ.setdefault(
    "PYGB_CACHE_DIR", str(Path(__file__).resolve().parent.parent / ".pygb_cache")
)

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _cpu_quota() -> float | None:
    """Cores allowed by the cgroup v2 quota, when one is set."""
    try:
        text = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        if text[0] != "max":
            return int(text[0]) / int(text[1])
    except (OSError, IndexError, ValueError):
        pass
    return None


def main() -> int:
    from repro.jit.cache import JitCache
    from repro.jit.cppengine import compiler_available
    from repro.jit.precompile import warm_cache

    if not compiler_available():
        print("no C++ toolchain — nothing to measure")
        return 1

    compile_times = {}
    for label, workers in (("sequential", 1), ("concurrent", 4)):
        with tempfile.TemporaryDirectory(prefix="pygb_warm_bench_") as tmp:
            t0 = time.perf_counter()
            report = warm_cache(cache=JitCache(tmp), max_workers=workers)
            elapsed = time.perf_counter() - t0
        compile_times[label] = {
            "seconds": elapsed,
            "kernels": report["requested"],
            "jobs": workers,
        }
        print(f"warm_cache {label:10s} ({workers} jobs): {elapsed:6.2f} s "
              f"for {report['requested']} kernels")
    if compile_times["concurrent"]["seconds"] > 0:
        ratio = compile_times["sequential"]["seconds"] / compile_times["concurrent"]["seconds"]
        print(f"concurrent warm speedup: {ratio:.2f}x")

    payload = {
        "environment": {
            "cpu_count": os.cpu_count(),
            "cgroup_cpu_quota": _cpu_quota(),
        },
        "warm_cache_seconds": compile_times,
        "note": "the pooled speedup is bounded by the visible core count",
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "parallel_scaling.json"
    out.write_text(json.dumps(payload, indent=2))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
