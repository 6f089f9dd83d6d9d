"""Helpers shared by the benchmark's processes: the config stamp, output
digests and the comparison against the oracle."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys

import numpy as np

from workloads import FLOAT_RTOL


def emit(doc: dict) -> None:
    """One JSON line on stdout: how a child process reports to run.py."""
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def config_stamp() -> dict:
    """The effective program configuration, read through the program's own
    accessors in the process under test."""
    from repro import schedule, tiling
    from repro.core import plan
    from repro.core.nonblocking import enabled as nonblocking_enabled
    from repro.jit import cppengine, spec
    from repro.service import admission

    cxx = cppengine.find_cxx_compiler()
    openmp = bool(cxx) and cppengine.openmp_available(cxx)
    return {
        "engine": "cpp",
        "tiles": tiling.tiles_mode(),
        "workers": tiling.workers_count(),
        "openmp_available": openmp,
        "openmp_enabled": openmp and cppengine.parallel_requested(),
        "fusion": plan.fusion_enabled(),
        "schedule": schedule.schedule_mode(),
        "schedule_tuner": schedule.tuner_enabled(),
        "mode": "nonblocking" if nonblocking_enabled() else "blocking",
        "batch_window_s": admission.batch_window(),
        "batch_max": admission.batch_max(),
        "serve_workers": admission.serve_workers(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "codegen_version": spec.CODEGEN_VERSION,
        "pygb_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("PYGB_")},
    }


def digest(indices: np.ndarray, values: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=12)
    h.update(str(values.dtype).encode())
    h.update(np.ascontiguousarray(indices).tobytes())
    h.update(np.ascontiguousarray(values).tobytes())
    return h.hexdigest()


class Check:
    """Running tally of output comparisons against the oracle.  Integers
    must match exactly; floats within ``FLOAT_RTOL`` (relative), with the
    elements whose bits differ counted separately."""

    def __init__(self):
        self.bit_mismatches = 0
        self.max_abs_diff = 0.0
        self.problems: list[str] = []

    def arrays(self, what, indices, values, ref_indices, ref_values) -> bool:
        if not np.array_equal(np.asarray(indices), np.asarray(ref_indices)):
            self.problems.append(f"{what}: sparsity pattern differs")
            return False
        values, ref_values = np.asarray(values), np.asarray(ref_values)
        if values.shape != ref_values.shape:
            self.problems.append(f"{what}: shape differs")
            return False
        if np.issubdtype(ref_values.dtype, np.floating):
            a, b = values.astype(np.float64), ref_values.astype(np.float64)
            diff = np.abs(a - b)
            if diff.size:
                self.max_abs_diff = max(self.max_abs_diff, float(np.nanmax(diff)))
            self.bit_mismatches += int(np.count_nonzero(a.view(np.int64) != b.view(np.int64)))
            ok = bool(np.all(np.isclose(a, b, rtol=FLOAT_RTOL, atol=0.0, equal_nan=True)))
        else:
            ok = values.dtype.kind == ref_values.dtype.kind and np.array_equal(values, ref_values)
        if not ok:
            self.problems.append(f"{what}: values differ")
        return ok

    def json(self, what, got, ref) -> bool:
        """Compare decoded service results: lists of numbers as arrays,
        everything else exactly."""
        if isinstance(ref, dict):
            if not isinstance(got, dict) or set(got) != set(ref):
                self.problems.append(f"{what}: keys differ")
                return False
            return all([self.json(f"{what}.{k}", got[k], ref[k]) for k in sorted(ref)])
        if isinstance(ref, list) and ref and all(isinstance(x, (int, float)) for x in ref):
            if not isinstance(got, list) or len(got) != len(ref):
                self.problems.append(f"{what}: length differs")
                return False
            if any(type(a) is not type(b) for a, b in zip(got, ref)):
                self.problems.append(f"{what}: element types differ")
                return False
            kind = float if isinstance(ref[0], float) else np.int64
            idx = np.arange(len(ref))
            return self.arrays(what, idx, np.array(got, dtype=kind), idx, np.array(ref, dtype=kind))
        if got != ref or type(got) is not type(ref):
            self.problems.append(f"{what}: {got!r} != {ref!r}")
            return False
        return True
