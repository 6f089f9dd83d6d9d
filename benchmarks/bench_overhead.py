#!/usr/bin/env python3
"""Per-operation Python overhead (the paper's Fig. 7/8 decomposition).

For each engine and each primitive operation the cost of one dispatch is
split into layers using the observability tracer
(``repro.obs``):

* **frontend** — DSL work above the engine: expression objects, operator
  resolution, ``__setitem__`` parsing (wall time minus the engine span);
* **engine** — time inside the engine method (kernel lookup + execution;
  for ``cpp`` this still includes the ctypes boundary);
* for the ``cpp`` engine the engine span is further split into the pure
  C++ **kernel** time (measured on the C++ side by ``pygb_kernel_ns()``)
  and the FFI **boundary** (argument marshalling + ``ctypes`` call glue).

This reproduces the paper's claim that dynamic compilation pushes the
Python-side overhead to a small constant per op while the kernel scales
with the input.  Numbers are medians over ``REPEATS`` batches of
``BATCH`` calls each; the tracer itself adds ~a few µs per op to the
*traced* engine-span measurement, so frontend figures are conservative
(slightly understated).

Run ``python benchmarks/bench_overhead.py``; results (with host specs)
land in ``benchmarks/results/overhead.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path

os.environ.setdefault(
    "PYGB_CACHE_DIR", str(Path(__file__).resolve().parent.parent / ".pygb_cache")
)

import numpy as np

import repro as gb
from repro.io.generators import erdos_renyi
from repro.jit.cppengine import compiler_available

RESULTS_DIR = Path(__file__).resolve().parent / "results"
SIZES = [256, 4096]
BATCH = 50
REPEATS = 7


def _ops(n: int):
    """One closure per primitive op on an n-vertex ER graph."""
    a = erdos_renyi(n, seed=n, weighted=True, dtype=float)
    rng = np.random.default_rng(n)
    u = gb.Vector((rng.uniform(1, 2, n), np.arange(n)), shape=(n,))
    v = gb.Vector((rng.uniform(1, 2, n), np.arange(n)), shape=(n,))
    w = gb.Vector(shape=(n,), dtype=float)

    def mxv():
        w[None] = a @ u

    def ewise_mult():
        w[None] = u * v

    def apply():
        w[None] = u * 0.85

    def reduce():
        gb.reduce(u)

    return {"mxv": mxv, "ewise_mult": ewise_mult, "apply": apply, "reduce": reduce}


def _measure(fn) -> dict:
    """Wall time per call (untraced) + traced engine-span decomposition."""
    fn()  # warm-up: populate the JIT caches
    # untraced wall time: obs.ACTIVE is False here, so this is the real
    # end-to-end per-op latency users pay
    walls = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        for _ in range(BATCH):
            fn()
        walls.append((time.perf_counter_ns() - t0) / BATCH)
    wall_ns = statistics.median(walls)

    # traced run: engine span + (cpp) kernel/boundary split
    with gb.tracing() as tr:
        for _ in range(REPEATS * BATCH):
            fn()
    snap = tr.stats.snapshot()
    calls = sum(op["count"] for op in snap["ops"].values())
    engine_ns = sum(op["total_ns"] for op in snap["ops"].values()) / max(calls, 1)
    ffi = snap.get("ffi", {})
    out = {
        "wall_us": wall_ns / 1e3,
        "engine_us": engine_ns / 1e3,
        "frontend_us": max(wall_ns - engine_ns, 0.0) / 1e3,
    }
    if ffi.get("calls"):
        kernel_ns = ffi["kernel_ns"] / ffi["calls"]
        boundary_ns = (ffi["total_ns"] - ffi["kernel_ns"]) / ffi["calls"]
        out["kernel_us"] = kernel_ns / 1e3
        out["ffi_boundary_us"] = boundary_ns / 1e3
    return out


def main() -> None:
    engines = ["interpreted"] + (["cpp"] if compiler_available() else [])
    results: dict = {
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "processor": platform.processor() or "unknown",
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "batch": BATCH,
        "repeats": REPEATS,
        "engines": engines,
        "ops": {},
    }

    header = (f"{'engine':12s} {'op':12s} {'n':>5s}  {'wall_us':>9s} "
              f"{'frontend':>9s} {'engine':>9s} {'kernel':>9s} {'ffi':>9s}")
    print(header)
    for engine_name in engines:
        with gb.use_engine(engine_name):
            for n in SIZES:
                for label, fn in _ops(n).items():
                    m = _measure(fn)
                    results["ops"].setdefault(label, {}).setdefault(
                        engine_name, {}
                    )[str(n)] = m
                    print(
                        f"{engine_name:12s} {label:12s} {n:5d}  "
                        f"{m['wall_us']:9.1f} {m['frontend_us']:9.1f} "
                        f"{m['engine_us']:9.1f} "
                        f"{m.get('kernel_us', float('nan')):9.1f} "
                        f"{m.get('ffi_boundary_us', float('nan')):9.1f}"
                    )

    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / "overhead.json"
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {out_path}")


if __name__ == "__main__":
    main()
