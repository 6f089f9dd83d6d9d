"""The process under test for ``service_mixed``: runs
``python -m repro --engine cpp serve`` in this process, with the
benchmark's spans installed first when ``--trace 1``.

    python perfbench/launcher.py --manifest M --trace 0|1

``--engine cpp`` selects the engine of the thread that parses the command
line only; the service executes batches on its own worker threads, which
resolve their engine from ``$PYGB_BACKEND``.  So the launcher also sets
``PYGB_BACKEND=cpp``, which pins the same engine on every thread.

run.py talks to this process over stdin, one command per line; each
answer is one stdout line starting with ``PERFBENCH``:

``stats``  resource usage of this process and the program's counters
``config`` the effective program configuration
``clear``  drop the spans recorded so far (after the warm-up)
``spans``  fold the recorded spans into per-request and per-batch numbers

End of input shuts the server down.
"""

from __future__ import annotations

import _thread
import argparse
import json
import os
import resource
import sys
import threading
import time

os.environ["PYGB_BACKEND"] = "cpp"


def _say(doc) -> None:
    sys.stdout.write("PERFBENCH " + json.dumps(doc) + "\n")
    sys.stdout.flush()


def _stats() -> dict:
    from repro import schedule, service, tiling
    from repro.jit import cache_statistics

    ru = resource.getrusage(resource.RUSAGE_SELF)
    jit = cache_statistics()
    return {
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss * 1024 / 1e6,
        "jit": {k: jit[k] for k in ("compiles", "disk_hits", "fallbacks")},
        "service": service.stats(),
        "schedule_edges": schedule.stats()["edges_total"],
        "schedule_switches": schedule.stats()["switches"],
        "tile_tasks": tiling.stats()["tile_tasks"],
        "partitioned": tiling.stats()["partitioned_total"],
    }


def summarize(rec) -> dict:
    """Per-request protocol and wait times, per-batch run times and the
    per-batch layer self times."""
    import numpy as np

    import spans
    from spans import _NAME, _T0, _T1

    rows = rec.spans
    calls = spans.per_call(rows, rec.attrs)
    parse, encode = {}, {}
    batch_sizes, fused_sources = [], []
    for idx, s in enumerate(rows):
        a = rec.attrs.get(idx)
        if s[_NAME] == "protocol.parse_request":
            parse[a] = s
        elif s[_NAME] == "protocol.encode_response":
            encode[a[0]] = (s, a[1])
        elif s[_NAME] == "admission.run_requests":
            batch_sizes.append(a)
        elif s[_NAME].startswith("multisource."):
            fused_sources.append(a)
    protocol_ms, wait_ms = [], []
    for req, (enc, batch) in encode.items():
        par = parse[req]
        protocol_ms.append((par[_T1] - par[_T0] + enc[_T1] - enc[_T0]) / 1e6)
        if batch is None:
            continue  # an error response: counted by run.py, not timed here
        run = rows[batch]
        wait = (enc[_T1] - par[_T0]) - (run[_T1] - run[_T0])
        if wait < 0:
            raise spans.TraceError(f"request {req}: batch span longer than the request")
        wait_ms.append(wait / 1e6)
    batches = [c for c in calls.values() if c["root"] == "admission.run_requests"]
    nb = max(len(batches), 1)
    layers = {}
    for entry in batches:
        for layer, ns in entry["self_ns"].items():
            layers[layer] = layers.get(layer, 0) + ns
    total = lambda key: sum(e[key] for e in batches)
    fuse_calls = total("fuse_calls")
    q = lambda xs, p: float(np.percentile(xs, p)) if xs else 0.0
    return {
        "requests": len(encode),
        "batches": len(batches),
        "protocol_ms": float(np.mean(protocol_ms)) if protocol_ms else 0.0,
        "wait_ms_p50": q(wait_ms, 50),
        "wait_ms_p90": q(wait_ms, 90),
        "call_ms": total("root_ns") / nb / 1e6,
        "requests_per_batch": float(np.mean(batch_sizes)) if batch_sizes else 0.0,
        "requests_per_batch_p90": q(batch_sizes, 90),
        "fused_sources_per_run": float(np.mean(fused_sources)) if fused_sources else 0.0,
        "layer_ms": {layer: ns / nb / 1e6 for layer, ns in layers.items()},
        "overlap_ms": total("overlap_ns") / nb / 1e6,
        "dispatch_ops": total("dispatch_ops") / nb,
        "cpp_calls": total("cpp_calls") / nb,
        "plan_evaluates": total("plan_evaluates") / nb,
        "fused_ratio": total("fused") / fuse_calls if fuse_calls else 0.0,
        "computed_mb": total("bytes") / nb / 1e6,
    }


def _control(rec) -> None:
    for line in sys.stdin:
        cmd = line.strip()
        try:
            if cmd == "stats":
                _say(_stats())
            elif cmd == "config":
                from common import config_stamp

                _say(config_stamp())
            elif cmd == "clear" and rec is not None:
                rec.clear()
                _say({"cleared": True})
            elif cmd == "spans" and rec is not None:
                _say(summarize(rec))
            else:
                _say({"error": f"unknown command {cmd!r}"})
        except Exception as exc:  # report and keep serving; run.py fails the run
            _say({"error": f"{cmd}: {exc!r}"})
    _thread.interrupt_main()


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--manifest", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    rec = None
    if args.trace:
        import spans

        rec = spans.Recorder()
        spans.install_service_spans(rec)
    threading.Thread(target=_control, args=(rec,), name="perfbench-control",
                     daemon=True).start()
    from repro.__main__ import main as repro_main

    sys.stdout.reconfigure(line_buffering=True)
    _say({"imported": time.perf_counter()})
    return repro_main(["--engine", "cpp", "serve", "--host", "127.0.0.1",
                       "--port", "0", "--graphs", args.manifest])


if __name__ == "__main__":
    raise SystemExit(main())
