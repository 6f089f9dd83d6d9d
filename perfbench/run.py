#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (the seed draws every input; the service's graphs and source
pools are fixed and the seed draws its request streams):

``pagerank_large``  closed loop, one caller: ``pagerank(g, ranks,
                    threshold=1e-8)`` on ER |V|=8192, |E|=741,455.
``bfs_small``       closed loop, one caller: ``bfs_levels(g, s)`` on ER
                    |V|=1024, cycling through 64 seeded sources.
``service_mixed``   ``python -m repro --engine cpp serve`` in its own
                    process over ER |V|=1024 plus R-MAT scale 12, driven
                    by one generator thread over at most two connections:
                    an open-loop Poisson phase, then a closed-loop phase.

Every workload pins the ``cpp`` engine; every other ``PYGB_*`` knob is
removed from the environment, so the program's defaults apply.  Each run:

1. prepares the benchmark's own kernel cache (``.perfbench/kernels``),
   untimed, and reports how many kernels that compiled; a kernel compiled
   in a timed phase fails the run;
2. computes reference outputs with the ``interpreted`` engine in a
   separate process (the oracle);
3. starts the process under test three times, fresh; each one sets up,
   warms up and is timed for a third of ``--seconds``.  Samples are
   pooled; ``setup_s`` (spawn to the first timed call, warm-up included)
   is the median of the three;
4. checks every output against the oracle: integers exactly, floats
   within ``FLOAT_RTOL``.  Wrong outputs, errors and missing replies are
   the ``failed`` calls; ``error_rate`` is ``failed / attempted``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
process under test twice, untraced and then traced (half of ``--seconds``
each), and reports the per-layer metrics; layers a workload does not
exercise report 0.  The human-readable lines come first; the last line of
stdout is the JSON result.  Any inconsistency (a kernel compiled during a
timed phase, a count that changed between calls on the same input, a span
outside its parent) ends the run with a non-zero exit code and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from common import Check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
# the service's inputs are derived here with the program's generators
sys.path.insert(1, str(ROOT / "src"))

#: processes under test per untraced run, each timed for an equal share
#: of ``--seconds``; samples are pooled, and setup_s is their median set-up
#: time.  Pooling over fresh processes averages out differences that last
#: a process's lifetime (PageRank p50 read 68 ms in one process and 75 ms
#: in an otherwise identical one).
PROCESSES = 3
CHILD_TIMEOUT = 150.0

END_TO_END = {
    "setup_s": "s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "throughput_per_s": "calls/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.self_ms": "ms",
    "plan.self_ms": "ms",
    "plan.evaluates": "count",
    "fusion.fuse_ms": "ms",
    "fusion.fused_ratio": "ratio",
    "dispatch.self_ms": "ms",
    "dispatch.ops": "count",
    "tiling.tile_tasks": "count",
    "tiling.partitioned_ratio": "ratio",
    "schedule.edges": "count",
    "schedule.switches": "count",
    "schedule.edges_varied_inputs": "count",
    "cppengine.self_ms": "ms",
    "cppengine.calls": "count",
    "cppengine.computed_mb": "MB",
    "cppengine.computed_gbps": "GB/s",
    "jitcache.lookup_ms": "ms",
    "jitcache.compiles": "count",
    "jitcache.disk_hits": "count",
    "jit.fallbacks": "count",
    "service.protocol_ms": "ms",
    "service.wait_ms.p50": "ms",
    "service.wait_ms.p90": "ms",
    "service.run_ms": "ms",
    "service.requests_per_batch": "count",
    "service.requests_per_batch.p90": "count",
    "service.fused_sources_per_run": "count",
    "service.errors": "count",
    "service.timeouts": "count",
    "loadgen.lag_ms.p90": "ms",
    "setup.import_s": "s",
    "setup.graph_s": "s",
    "setup.warmup_s": "s",
    "setup.prepare_compiles": "count",
    "trace.call_ms": "ms",
    "trace.overlap_ms": "ms",
    "trace.overhead_pct": "%",
    "check.float_bit_mismatches": "count",
    "check.float_max_abs_diff": "abs",
    "error_rate": "ratio",
}


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYGB_")}
    paths = [str(ROOT / "src"), str(BENCH)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYGB_CACHE_DIR"] = str(WORK / "kernels")
    return env


def start(script: str, *args, stdin=None) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(BENCH / script), *map(str, args)],
        env=child_env(), cwd=ROOT, stdin=stdin, stdout=subprocess.PIPE, text=True,
    )


def finish(proc: subprocess.Popen, what: str) -> dict | None:
    """Wait for *proc*; its last stdout line, if any, is its JSON report."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what} did not finish in {CHILD_TIMEOUT:g}s") from None
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def worker(workload, seed, role, run_dir, seconds=0.0, trace=0, tag="w") -> dict:
    spawned = time.perf_counter()
    proc = start("worker.py", "--workload", workload, "--seed", seed, "--role", role,
                 "--spawned", repr(spawned), "--seconds", seconds, "--trace", trace,
                 "--out", run_dir / f"{tag}.npz")
    report = finish(proc, f"worker ({role})")
    report["out"] = run_dir / f"{tag}.npz"
    return report


class Server:
    """The service process under test, driven over its stdin/stdout."""

    def __init__(self, manifest: Path, trace: int):
        self.spawned = time.perf_counter()
        self.proc = start("launcher.py", "--manifest", manifest, "--trace", trace,
                          stdin=subprocess.PIPE)
        self.port = None
        while self.port is None:
            line = self.proc.stdout.readline()
            if not line:
                self.stop()
                raise BenchError("the service exited before it was listening")
            if line.startswith("PERFBENCH "):
                self.imported = json.loads(line[len("PERFBENCH "):])["imported"]
            elif line.startswith("pygb service on "):
                self.port = int(line.rsplit(":", 1)[1])
                self.booted = time.perf_counter()

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError(f"the service exited while answering {command!r}")
            if line.startswith("PERFBENCH "):
                doc = json.loads(line[len("PERFBENCH "):])
                if "error" in doc:
                    raise BenchError(f"service {command}: {doc['error']}")
                return doc

    def stop(self) -> None:
        """Close stdin (the launcher shuts the server down) and wait."""
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError(f"the service exited with code {self.proc.returncode}")


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


def pct(values, p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def latency_percentiles(latencies: list) -> dict:
    """p50 and p90; p90 needs 100 samples, so that 10 lie beyond it."""
    if len(latencies) < 100:
        raise BenchError(f"only {len(latencies)} latency samples; p90 needs 100")
    return {"latency_ms.p50": pct(latencies, 50), "latency_ms.p90": pct(latencies, 90)}


def layer_metrics(t: dict, jit: dict, plain: dict, traced: dict) -> dict:
    """The per-layer numbers both kinds of workload share, from a trace
    summary (per call; per batch on the service), the kernel-cache counts
    of the traced timed phase, and the untraced and traced latencies."""
    layer = t["layer_ms"]
    cpp_ms = layer.get("cppengine", 0.0)
    setup = {k: statistics.median([plain["setup"][k], traced["setup"][k]])
             for k in traced["setup"]}
    return {
        "core.self_ms": layer.get("core", 0.0),
        "plan.self_ms": layer.get("plan", 0.0),
        "plan.evaluates": t["plan_evaluates"],
        "fusion.fuse_ms": layer.get("fusion", 0.0),
        "fusion.fused_ratio": t["fused_ratio"],
        "dispatch.self_ms": layer.get("dispatch", 0.0),
        "dispatch.ops": t["dispatch_ops"],
        "cppengine.self_ms": cpp_ms,
        "cppengine.calls": t["cpp_calls"],
        "cppengine.computed_mb": t["computed_mb"],
        "cppengine.computed_gbps": t["computed_mb"] / cpp_ms if cpp_ms else 0.0,
        "jitcache.lookup_ms": layer.get("jitcache", 0.0),
        "jitcache.compiles": jit["compiles"],
        "jitcache.disk_hits": jit["disk_hits"],
        "jit.fallbacks": jit["fallbacks"],
        "setup.import_s": setup["import_s"],
        "setup.graph_s": setup["graph_s"],
        "setup.warmup_s": setup["warmup_s"],
        "trace.call_ms": t["call_ms"],
        "trace.overlap_ms": t["overlap_ms"],
        "trace.overhead_pct": (pct(traced["latencies_ms"], 50)
                               / pct(plain["latencies_ms"], 50) - 1) * 100,
    }


def check_in_process(oracle: Path, reports) -> tuple[int, Check]:
    """Compare every distinct output against the oracle; returns the
    number of calls whose output was wrong."""
    ref = np.load(oracle)
    check = Check()
    wrong = 0
    for report in reports:
        got = np.load(report["out"])
        for k, d, n in report["outputs"]:
            ok = check.arrays(f"input {k}", got[f"{k}_{d}_idx"], got[f"{k}_{d}_val"],
                              ref[f"{k}_idx"], ref[f"{k}_val"])
            wrong += 0 if ok else n
    return wrong, check


def timed_metrics(reports: list) -> dict:
    lat = [x for r in reports for x in r["latencies_ms"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        **latency_percentiles(lat),
        "throughput_per_s": len(lat) / sum(r["phase_s"] for r in reports),
        "cpu_ms_per_op": sum(r["cpu_s"] for r in reports) * 1e3 / len(lat),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def assert_no_compiles(jit: dict, what: str) -> None:
    if jit["compiles"] != 0:
        raise BenchError(f"{what}: {jit['compiles']} kernels compiled in the timed phase")


def run_in_process(args, run_dir: Path) -> dict:
    w, seed = args.workload, args.seed
    oracle_proc = start("oracle.py", "--workload", w, "--seed", seed,
                        "--out", run_dir / "oracle.npz")
    try:
        prep = worker(w, seed, "prepare", run_dir, tag="prepare")
    finally:
        finish(oracle_proc, "oracle")
    res = {"prepare_compiles": prep["compiles"], "config": prep["config"]}

    if not args.trace:
        reports = [worker(w, seed, "timed", run_dir, args.seconds / PROCESSES, 0, tag=f"t{i}")
                   for i in range(PROCESSES)]
        for r in reports:
            assert_no_compiles(r["jit"], w)
        res["metrics"] = timed_metrics(reports)
        res["reports"] = reports
        res["samples"] = {"processes": PROCESSES,
                          "calls": sum(len(r["latencies_ms"]) for r in reports)}
        return res

    half = args.seconds / 2
    plain = worker(w, seed, "timed", run_dir, half, 0, tag="plain")
    traced = worker(w, seed, "timed", run_dir, half, 1, tag="traced")
    for r in (plain, traced):
        assert_no_compiles(r["jit"], w)
    t = traced["trace"]
    res["layers"] = {
        **layer_metrics(t, traced["jit"], plain, traced),
        "tiling.tile_tasks": t["tile_tasks"],
        "tiling.partitioned_ratio": t["partitioned"] / t["dispatch_ops"] if t["dispatch_ops"] else 0.0,
        "schedule.edges": t["schedule_edges"],
        "schedule.switches": t["schedule_switches"],
        "schedule.edges_varied_inputs": t["edges_varied_inputs"],
    }
    res["reports"] = [plain, traced]
    res["samples"] = {"calls_untraced": len(plain["latencies_ms"]),
                      "calls_traced": len(traced["latencies_ms"])}
    return res


def connections() -> int:
    """Client connections: at most ``SERVICE_MAX_CONNECTIONS`` and nproc."""
    return max(1, min(workloads.SERVICE_MAX_CONNECTIONS, os.cpu_count() or 1))


def _service_session(manifest: Path, templates, seed: int, session: int,
                     seconds: float, trace: int) -> dict:
    """Boot the service, warm it up, then run the open-loop and
    closed-loop phases."""
    from loadgen import Client, Responses

    srv = Server(manifest, trace)
    client = None
    try:
        client = Client(srv.port, connections(), [workloads.request_line(t) for t in templates])
        warm = Responses()
        for group in range(len(workloads.SERVICE_MIX)):
            members = [i for i, t in enumerate(templates) if t["group"] == group]
            for k in range(workloads.SERVICE_WARMUP_PER_GROUP):
                client.request(members[k % len(members)], warm)
        t_warm = time.perf_counter()
        out = {"setup": {"import_s": srv.imported - srv.spawned,
                         "graph_s": srv.booted - srv.imported,
                         "warmup_s": t_warm - srv.booted}}
        if trace:
            srv.ask("clear")
        open_s = seconds * workloads.SERVICE_OPEN_SHARE
        arrivals, closed = workloads.service_schedule(
            seed, session, templates, workloads.SERVICE_RATE, open_s)
        before = srv.ask("stats")
        sent0 = client.sent
        responses = Responses()
        latencies, lateness, t0, _t1 = client.open_loop(arrivals, responses)
        out["setup_s"] = t0 - srv.spawned
        completed = client.closed_loop(closed, seconds - open_s, responses)
        after = srv.ask("stats")
        out.update({
            "latencies_ms": latencies,
            "lateness_ms": lateness,
            "completed": completed,
            "closed_s": seconds - open_s,
            "attempted": client.sent - sent0,
            "responses": responses,
            "before": before,
            "after": after,
            "config": srv.ask("config"),
        })
        if trace:
            out["trace"] = srv.ask("spans")
        return out
    finally:
        if client is not None:
            client.close()
        srv.stop()


def check_service(oracle: Path, sessions) -> tuple[int, Check]:
    """Failed requests: error responses, wrong results and missing replies."""
    refs = json.loads(oracle.read_text())
    check = Check()
    failed = 0
    for s in sessions:
        r = s["responses"]
        failed += r.missing
        if r.missing:
            check.problems.append(f"{r.missing} requests got no response")
        for (tidx, d), n in r.counts.items():
            doc = json.loads(r.lines[(tidx, d)])
            if not doc.get("ok"):
                check.problems.append(f"template {tidx}: {doc.get('error')}")
                failed += n
            elif not check.json(f"template {tidx}", doc["result"], refs[tidx]):
                failed += n
    return failed, check


def _service_metrics(sessions: list) -> dict:
    lat = [x for s in sessions for x in s["latencies_ms"]]
    answered = sum(s["attempted"] - s["responses"].missing for s in sessions)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in sessions),
        **latency_percentiles(lat),
        "throughput_per_s": (sum(s["completed"] for s in sessions)
                             / sum(s["closed_s"] for s in sessions)),
        "cpu_ms_per_op": sum(_delta(s, "cpu_s") for s in sessions) * 1e3 / max(answered, 1),
        "peak_rss_mb": statistics.median(s["after"]["peak_rss_mb"] for s in sessions),
    }


def _delta(s: dict, *path) -> float:
    a, b = s["after"], s["before"]
    for key in path:
        a, b = a[key], b[key]
    return a - b


def run_service(args, run_dir: Path) -> dict:
    from loadgen import Client, Responses

    seed = args.seed
    manifest = run_dir / "manifest.json"
    manifest.write_text(json.dumps(workloads.service_manifest()))
    templates = workloads.service_templates()
    oracle_proc = start("oracle.py", "--workload", "service_mixed", "--seed", seed,
                        "--out", run_dir / "oracle.json", "--manifest", manifest)
    try:
        # fill the kernel cache: every template alone, then all of them
        # over every connection so batches fuse as they will when timed
        srv = Server(manifest, 0)
        client = None
        try:
            client = Client(srv.port, connections(),
                            [workloads.request_line(t) for t in templates])
            scratch = Responses()
            for tidx in range(len(templates)):
                client.request(tidx, scratch)
            client.closed_loop(list(range(len(templates))) * 2, CHILD_TIMEOUT, scratch)
            prepare_compiles = srv.ask("stats")["jit"]["compiles"]
        finally:
            if client is not None:
                client.close()
            srv.stop()
    finally:
        finish(oracle_proc, "oracle")
    res = {"prepare_compiles": prepare_compiles}

    if not args.trace:
        sessions = [_service_session(manifest, templates, seed, i, args.seconds / PROCESSES, 0)
                    for i in range(PROCESSES)]
        for s in sessions:
            assert_no_compiles({"compiles": _delta(s, "jit", "compiles")}, "service_mixed")
        res["metrics"] = _service_metrics(sessions)
        res["sessions"] = sessions
        res["config"] = sessions[0]["config"]
        res["samples"] = {"processes": PROCESSES,
                          "requests_open_loop": sum(len(s["latencies_ms"]) for s in sessions),
                          "requests": sum(s["attempted"] for s in sessions)}
        return res

    half = args.seconds / 2
    plain = _service_session(manifest, templates, seed, 0, half, 0)
    traced = _service_session(manifest, templates, seed, 0, half, 1)
    for s in (plain, traced):
        assert_no_compiles({"compiles": _delta(s, "jit", "compiles")}, "service_mixed")
    t = traced["trace"]
    nb = max(t["batches"], 1)
    jit = {k: _delta(traced, "jit", k) for k in ("compiles", "disk_hits", "fallbacks")}
    res["layers"] = {
        **layer_metrics(t, jit, plain, traced),
        "tiling.tile_tasks": _delta(traced, "tile_tasks") / nb,
        "tiling.partitioned_ratio": (_delta(traced, "partitioned") / (t["dispatch_ops"] * nb)
                                     if t["dispatch_ops"] else 0.0),
        "schedule.edges": _delta(traced, "schedule_edges") / nb,
        "schedule.switches": _delta(traced, "schedule_switches") / nb,
        "service.protocol_ms": t["protocol_ms"],
        "service.wait_ms.p50": t["wait_ms_p50"],
        "service.wait_ms.p90": t["wait_ms_p90"],
        "service.run_ms": t["call_ms"],
        "service.requests_per_batch": t["requests_per_batch"],
        "service.requests_per_batch.p90": t["requests_per_batch_p90"],
        "service.fused_sources_per_run": t["fused_sources_per_run"],
        "service.errors": _delta(traced, "service", "errors"),
        "service.timeouts": _delta(traced, "service", "timeouts"),
        "loadgen.lag_ms.p90": pct(plain["lateness_ms"], 90),
    }
    res["sessions"] = [plain, traced]
    res["config"] = traced["config"]
    res["samples"] = {"requests_open_loop_untraced": len(plain["latencies_ms"]),
                      "requests_open_loop_traced": len(traced["latencies_ms"]),
                      "batches_traced": t["batches"]}
    return res


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


def source_stamp() -> dict:
    """The git sha when the checkout is a git work tree, and a digest of
    the program sources either way."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            sha = head.stdout.strip() if head.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def measure(args, run_dir: Path) -> dict:
    if args.workload == "service_mixed":
        res = run_service(args, run_dir)
        failed, check = check_service(run_dir / "oracle.json", res["sessions"])
        attempted = sum(s["attempted"] for s in res["sessions"])
    else:
        res = run_in_process(args, run_dir)
        failed, check = check_in_process(run_dir / "oracle.npz", res["reports"])
        attempted = sum(len(r["latencies_ms"]) for r in res["reports"])
        for r in res["reports"]:
            failed += len(r["errors"])
            check.problems.extend(r["errors"])
    res.update(attempted=attempted, failed=failed, check=check)
    return res


def report(args, res: dict) -> dict:
    check = res["check"]
    error_rate = res["failed"] / res["attempted"]
    if args.trace:
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(res["layers"])
        values.update({
            "setup.prepare_compiles": res["prepare_compiles"],
            "check.float_bit_mismatches": check.bit_mismatches,
            "check.float_max_abs_diff": check.max_abs_diff,
            "error_rate": error_rate,
        })
        units = PER_LAYER
    else:
        values = res["metrics"]
        units = END_TO_END
    stamp = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             **source_stamp(), "samples": res["samples"],
             "prepare_compiles": res["prepare_compiles"], **res["config"]}
    print(f"perfbench {args.workload}")
    print("config " + json.dumps(stamp, sort_keys=True))
    for problem in check.problems[:20]:
        print(f"check: {problem}")
    for name, unit in units.items():
        print(f"  {name:<34} {values[name]:>14.6g} {unit}")
    if not args.trace:
        print(f"  {'error_rate':<34} {error_rate:>14.6g} ratio "
              f"({res['failed']} of {res['attempted']} failed)")
    return {
        "correct": res["failed"] == 0,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (WORK / "kernels").mkdir(parents=True, exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir()
    try:
        result = report(args, measure(args, run_dir))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
