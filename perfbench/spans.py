"""In-memory span recorder, the wrappers that install it on the program's
public entry points, and the self-time analysis of the recorded spans.

Spans are taken from the benchmark's side only: each wrapper times one
call into a layer's public function.  A span records its name, layer,
start and end (``perf_counter_ns``), parent span, thread and call id.
Tile tasks run on worker threads; the wrapper around
``tiling.run_tile_tasks`` hands each task the span that was open on the
dispatching thread, so kernel spans on tile workers nest under the
dispatch that fanned them out.

Self time is a span's duration minus the union of the intervals its
children cover.  A child that does not lie inside its parent, or a span
that belongs to no call, is an error: nothing is clamped.
"""

from __future__ import annotations

import functools
import threading
import time

_NAME, _LAYER, _T0, _T1, _PARENT, _THREAD, _CALL = range(7)


class TraceError(RuntimeError):
    """The recorded spans are inconsistent; the numbers cannot be trusted."""


class Recorder:
    """Spans are stored column by column in flat lists, so recording adds
    no objects for the garbage collector to traverse."""

    def __init__(self):
        self.columns = tuple([] for _ in range(7))
        self.attrs: dict[int, object] = {}
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._calls = 0

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    @property
    def spans(self) -> list[tuple]:
        """``(name, layer, t0, t1, parent, thread, call)`` per span."""
        return list(zip(*self.columns))

    def clear(self) -> None:
        with self._lock:
            for column in self.columns:
                column.clear()
            self.attrs.clear()

    def wrap(self, name: str, layer: str, fn, after=None, root: bool = False):
        """*fn* timed as a span.  ``after(idx, args, result)`` runs once
        the span is closed.  A *root* span opened with no parent starts a
        new call."""
        lock, stack_of = self._lock, self._stack
        names, layers, t0s, t1s, parents, threads, calls = self.columns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            with lock:
                idx = len(names)
                if parent is not None:
                    call = calls[parent]
                elif root:
                    self._calls += 1
                    call = self._calls
                else:
                    call = None
                names.append(name)
                layers.append(layer)
                parents.append(parent)
                threads.append(threading.get_ident())
                calls.append(call)
                t1s.append(None)
                t0s.append(time.perf_counter_ns())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[idx] = time.perf_counter_ns()
                stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        return spanned

    def adopt(self, parent, task):
        """Run *task* with *parent* (a span index) as its enclosing span."""
        stack = self._stack()
        stack.append(parent)
        try:
            return task()
        finally:
            stack.pop()


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------


def dispatch_methods() -> frozenset:
    """The engine interface: every public method of the reference engine."""
    from repro.core.dispatch import InterpretedEngine

    return frozenset(
        n for n, v in vars(InterpretedEngine).items()
        if callable(v) and not n.startswith("_")
    )


class EngineProxy:
    """Times every engine-interface method of a ``make_engine`` object as
    a ``dispatch`` span; every other attribute passes through."""

    def __init__(self, engine, rec: Recorder, methods: frozenset):
        self._engine = engine
        self._rec = rec
        self._methods = methods

    def __getattr__(self, attr):
        value = getattr(self._engine, attr)
        if attr in self._methods and callable(value):
            value = self._rec.wrap(f"dispatch.{attr}", "dispatch", value)
            self.__dict__[attr] = value
        return value


def _nbytes(obj) -> int:
    total = 0
    for field in ("indptr", "indices", "values"):
        arr = getattr(obj, field, None)
        if arr is not None:
            total += getattr(arr, "nbytes", 0)
    return total


def _boundary_bytes(rec: Recorder):
    """Operand and result ``nbytes`` of one kernel call, computed from the
    containers that cross the boundary (masks included)."""

    def after(idx, args, result):
        total = _nbytes(result)
        for arg in args[1:]:
            total += _nbytes(arg)
            mask = getattr(arg, "mask", None)
            if mask is not None:
                total += _nbytes(mask)
        rec.attrs[idx] = total

    return after


def install_program_spans(rec: Recorder) -> frozenset:
    """Wrap plan, fusion, the C++ engine, the kernel cache and the tile
    fan-out.  Returns the engine-interface method names."""
    from repro import tiling
    from repro.core import plan
    from repro.jit import cache, fusion
    from repro.jit.cppengine import CppJitEngine

    methods = dispatch_methods()
    plan.evaluate = rec.wrap("plan.evaluate", "plan", plan.evaluate)

    def fused(idx, _args, result):
        rec.attrs[idx] = isinstance(result, fusion.Fused)

    fusion.fuse_expression = rec.wrap(
        "fusion.fuse_expression", "fusion", fusion.fuse_expression, after=fused
    )
    after = _boundary_bytes(rec)
    for name in sorted(methods):
        fn = getattr(CppJitEngine, name, None)
        if fn is not None:
            setattr(CppJitEngine, name, rec.wrap(f"cppengine.{name}", "cppengine", fn, after=after))
    cache.JitCache.get_module = rec.wrap(
        "jitcache.get_module", "jitcache", cache.JitCache.get_module
    )
    run_tile_tasks = tiling.run_tile_tasks

    def adopting(tasks):
        parent = rec.current()
        return run_tile_tasks([functools.partial(rec.adopt, parent, t) for t in tasks])

    tiling.run_tile_tasks = adopting
    return methods


def install_service_spans(rec: Recorder) -> None:
    """Wrap the service entry points and route every engine the server
    threads build through :class:`EngineProxy`."""
    from repro.algorithms import multisource
    from repro.core import dispatch
    from repro.service import admission, protocol, server

    methods = install_program_spans(rec)
    make_engine = dispatch.make_engine
    dispatch.make_engine = lambda name: EngineProxy(make_engine(name), rec, methods)

    owners: dict[int, list] = {}
    owners_lock = threading.Lock()
    request_ids = threading.local()
    counter = [0]

    def parsed(idx, _args, _result):
        with owners_lock:
            counter[0] += 1
            request_ids.current = counter[0]
        rec.attrs[idx] = request_ids.current

    def submitted(idx, _args, _result):
        rec.attrs[idx] = getattr(request_ids, "current", None)

    def ran(idx, args, results):
        rec.attrs[idx] = len(args[4])
        with owners_lock:
            for r in results:
                slot = owners.setdefault(id(r), [idx, 0, r])
                slot[1] += 1

    def encoded(idx, args, _result):
        result = args[0].get("result") if isinstance(args[0], dict) else None
        batch = None
        with owners_lock:
            slot = owners.get(id(result)) if result is not None else None
            if slot is not None:
                batch = slot[0]
                slot[1] -= 1
                if slot[1] == 0:
                    del owners[id(result)]
        rec.attrs[idx] = (getattr(request_ids, "current", None), batch)

    def sized(idx, args, _result):
        rec.attrs[idx] = len(args[1])

    parse = rec.wrap("protocol.parse_request", "protocol", protocol.parse_request,
                     after=parsed, root=True)
    encode = rec.wrap("protocol.encode_response", "protocol", protocol.encode_response,
                      after=encoded, root=True)
    protocol.parse_request = server.parse_request = parse
    protocol.encode_response = server.encode_response = encode
    admission.AdmissionController.submit = rec.wrap(
        "admission.submit", "admission", admission.AdmissionController.submit,
        after=submitted, root=True,
    )
    admission.run_requests = rec.wrap(
        "admission.run_requests", "core", admission.run_requests, after=ran, root=True
    )
    for name in ("bfs_levels_multi", "sssp_distances_multi"):
        setattr(multisource, name, rec.wrap(
            f"multisource.{name}", "core", getattr(multisource, name), after=sized
        ))


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------


def _union_ns(intervals: list) -> int:
    total = 0
    end = None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def self_times(spans: list) -> tuple[list, list]:
    """Per-span self time and child overlap (sum of child durations minus
    their union), both in ns.  Raises :class:`TraceError` on an open span
    or a child outside its parent."""
    children: list[list] = [[] for _ in spans]
    for idx, s in enumerate(spans):
        if s[_T1] is None:
            raise TraceError(f"span {s[_NAME]} never closed")
        parent = s[_PARENT]
        if parent is not None:
            p = spans[parent]
            if s[_T0] < p[_T0] or s[_T1] > p[_T1]:  # parents precede children
                raise TraceError(
                    f"span {s[_NAME]} [{s[_T0]}, {s[_T1]}] lies outside its parent "
                    f"{p[_NAME]} [{p[_T0]}, {p[_T1]}]"
                )
            children[parent].append(idx)
    selfs, overlaps = [], []
    for idx, s in enumerate(spans):
        kids = [(spans[c][_T0], spans[c][_T1]) for c in children[idx]]
        covered = _union_ns(kids)
        own = s[_T1] - s[_T0] - covered
        if own < 0:
            raise TraceError(f"span {s[_NAME]} has negative self time {own} ns")
        selfs.append(own)
        overlaps.append(sum(t1 - t0 for t0, t1 in kids) - covered)
    return selfs, overlaps


def per_call(spans: list, attrs: dict) -> dict:
    """Fold spans into per-call layer totals keyed by call id.

    Each entry holds the root span's duration, the self time of every
    layer, the child overlap, and the per-call counts.  The layer self
    times minus the overlap must add up to the root span exactly (integer
    ns); a mismatch, or a span outside any call, raises."""
    selfs, overlaps = self_times(spans)
    calls: dict[int, dict] = {}
    for idx, s in enumerate(spans):
        call = s[_CALL]
        if call is None:
            raise TraceError(f"span {s[_NAME]} belongs to no call")
        entry = calls.get(call)
        if entry is None:
            entry = calls[call] = {"root_ns": 0, "overlap_ns": 0, "self_ns": {},
                                   "dispatch_ops": 0, "cpp_calls": 0,
                                   "plan_evaluates": 0, "fuse_calls": 0,
                                   "fused": 0, "bytes": 0}
        if s[_PARENT] is None:
            entry["root_ns"] = s[_T1] - s[_T0]
            entry["root"] = s[_NAME]
        layer = s[_LAYER]
        entry["self_ns"][layer] = entry["self_ns"].get(layer, 0) + selfs[idx]
        entry["overlap_ns"] += overlaps[idx]
        if layer == "dispatch":
            entry["dispatch_ops"] += 1
        elif layer == "cppengine" and spans[s[_PARENT]][_LAYER] != "cppengine":
            entry["cpp_calls"] += 1
            entry["bytes"] += attrs.get(idx, 0)
        elif layer == "plan":
            entry["plan_evaluates"] += 1
        elif layer == "fusion":
            entry["fuse_calls"] += 1
            entry["fused"] += int(bool(attrs.get(idx)))
    for call, entry in calls.items():
        total = sum(entry["self_ns"].values()) - entry["overlap_ns"]
        if "root" not in entry or total != entry["root_ns"]:
            raise TraceError(
                f"call {call}: layer self times minus overlap give {total} ns, "
                f"the call span is {entry['root_ns']} ns"
            )
    return calls
