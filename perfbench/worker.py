"""The process under test for the in-process workloads.

    python perfbench/worker.py --workload W --seed S --role R \
        --spawned T --seconds N --trace 0|1 --out FILE

Roles:

``prepare``  untimed: the warm-up calls alone, which pass over every
             distinct input, so the benchmark's private kernel cache holds
             every kernel the timed phase needs.
``timed``    import, build the graph, make the warm-up calls, then run a
             closed loop with one caller for ``--seconds``.  With
             ``--trace 1`` the spans and per-call counts are recorded and
             folded into per-layer numbers.

``--spawned`` is run.py's ``perf_counter`` reading just before it
started this process (``CLOCK_MONOTONIC``, shared by all processes), so
``setup_s`` covers interpreter start-up and imports too.  The last line
on stdout is one JSON object; the distinct outputs go to ``--out``
(``.npz``) for run.py to check against the oracle.
"""

from __future__ import annotations

import argparse
import resource
import time

import numpy as np

import workloads


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.IN_PROCESS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--role", choices=("prepare", "timed"), required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    return p.parse_args(argv)


def make_call(workload: str, graph, gb):
    from repro.algorithms import bfs_levels, pagerank

    if workload == "pagerank_large":
        n = graph.nrows

        def call(_inp):
            ranks = gb.Vector(shape=(n,), dtype=float)
            return pagerank(graph, ranks, threshold=workloads.PAGERANK_THRESHOLD)

    else:

        def call(source):
            return bfs_levels(graph, source)

    return call


def _counts():
    from repro import schedule, tiling

    s, t = schedule.stats(), tiling.stats()
    return s["edges_total"], s["switches"], t["tile_tasks"], t["partitioned_total"]


def main(argv=None) -> int:
    args = parse_args(argv)
    import repro as gb
    from repro.jit import cache_statistics

    from common import config_stamp, digest, emit

    t_import = time.perf_counter()
    rec = None
    if args.trace:
        import spans

        rec = spans.Recorder()
        methods = spans.install_program_spans(rec)
        from repro.core.dispatch import make_engine

        gb.use_engine(spans.EngineProxy(make_engine("cpp"), rec, methods))
    else:
        gb.use_engine("cpp")
    graph = workloads.make_graph(args.workload, args.seed)
    t_graph = time.perf_counter()
    call = make_call(args.workload, graph, gb)
    if rec is not None:
        call = rec.wrap(f"call.{args.workload}", "core", call, root=True)
    inputs = workloads.inputs(args.workload, args.seed)
    stats0 = cache_statistics()
    for i in range(workloads.WARMUP_CALLS[args.workload]):
        call(inputs[i % len(inputs)])
    t_warm = time.perf_counter()
    result = {
        "setup": {
            "import_s": t_import - args.spawned,
            "graph_s": t_graph - t_import,
            "warmup_s": t_warm - t_graph,
        },
        "config": config_stamp(),
    }
    if args.role == "prepare":
        stats1 = cache_statistics()
        result["compiles"] = stats1["compiles"] - stats0["compiles"]
        emit(result)
        return 0
    if rec is not None:
        rec.clear()
    stats0 = cache_statistics()
    latencies, cpu, errors = [], 0.0, []
    outputs: dict[tuple, int] = {}
    arrays: dict[str, np.ndarray] = {}
    per_call_counts = []
    t_start = time.perf_counter()
    result["setup_s"] = t_start - args.spawned
    deadline = t_start + args.seconds
    i = 0
    while True:
        k = i % len(inputs)
        before = _counts() if rec is not None else None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = call(inputs[k])
        except Exception as exc:  # a failed call counts in error_rate
            t1 = time.perf_counter()
            errors.append(f"input {k}: {exc!r}")
            out = None
        else:
            t1 = time.perf_counter()
        cpu += time.process_time() - c0
        latencies.append((t1 - t0) * 1e3)
        if before is not None:
            per_call_counts.append((k, [b - a for a, b in zip(before, _counts())]))
        if out is not None:
            idx, vals = out.to_coo()
            key = (k, digest(idx, vals))
            if key not in outputs:
                arrays[f"{k}_{key[1]}_idx"] = idx
                arrays[f"{k}_{key[1]}_val"] = vals
            outputs[key] = outputs.get(key, 0) + 1
        i += 1
        if t1 >= deadline:
            break
    t_end = time.perf_counter()
    stats1 = cache_statistics()
    result.update({
        "latencies_ms": latencies,
        "phase_s": t_end - t_start,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "errors": errors,
        "outputs": [[k, d, n] for (k, d), n in sorted(outputs.items())],
        "jit": {key: stats1[key] - stats0[key] for key in ("compiles", "disk_hits", "fallbacks")},
    })
    np.savez(args.out, **arrays)
    if rec is not None:
        result["trace"] = summarize_trace(rec, per_call_counts)
    emit(result)
    return 0


def summarize_trace(rec, per_call_counts) -> dict:
    """Per-call layer means and the count-determinism check."""
    import spans

    calls = spans.per_call(rec.spans, rec.attrs)
    ordered = [calls[c] for c in sorted(calls)]
    if len(ordered) != len(per_call_counts):
        raise spans.TraceError(
            f"{len(ordered)} traced calls but {len(per_call_counts)} timed calls"
        )
    n = len(ordered)
    layers = {}
    for entry in ordered:
        for layer, ns in entry["self_ns"].items():
            layers[layer] = layers.get(layer, 0) + ns
    # counts that depend only on the program and the input: every call on
    # the same input must repeat them exactly
    fixed, varied = {}, {}
    for entry, (k, (edges, _sw, tile_tasks, _part)) in zip(ordered, per_call_counts):
        sig = (entry["dispatch_ops"], entry["cpp_calls"], entry["plan_evaluates"], tile_tasks)
        if fixed.setdefault(k, sig) != sig:
            raise spans.TraceError(
                f"input {k}: counts (dispatch.ops, cppengine.calls, plan.evaluates, "
                f"tiling.tile_tasks) were {fixed[k]} and then {sig}"
            )
        varied.setdefault(k, set()).add(edges)
    total = lambda key: sum(e[key] for e in ordered)
    counts = np.array([c for _k, c in per_call_counts], dtype=np.float64)
    fuse_calls = total("fuse_calls")
    return {
        "calls": n,
        "call_ms": sum(e["root_ns"] for e in ordered) / n / 1e6,
        "layer_ms": {layer: ns / n / 1e6 for layer, ns in layers.items()},
        "overlap_ms": total("overlap_ns") / n / 1e6,
        "dispatch_ops": total("dispatch_ops") / n,
        "cpp_calls": total("cpp_calls") / n,
        "plan_evaluates": total("plan_evaluates") / n,
        "fuse_calls": fuse_calls / n,
        "fused_ratio": total("fused") / fuse_calls if fuse_calls else 0.0,
        "computed_mb": total("bytes") / n / 1e6,
        "schedule_edges": float(counts[:, 0].mean()),
        "schedule_switches": float(counts[:, 1].mean()),
        "tile_tasks": float(counts[:, 2].mean()),
        "partitioned": float(counts[:, 3].mean()),
        "edges_varied_inputs": sum(1 for s in varied.values() if len(s) > 1),
    }


if __name__ == "__main__":
    raise SystemExit(main())
