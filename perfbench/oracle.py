"""Reference outputs, computed in a process of their own with the
``interpreted`` engine, so they count in neither the set-up time nor the
memory of the process under test.

    python perfbench/oracle.py --workload W --seed S --out FILE [--manifest M]

In-process workloads: one ``(indices, values)`` pair per distinct input,
saved as ``.npz``.  ``service_mixed``: ``solo_reference`` for every
request template, saved as JSON.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

import workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None)
    args = p.parse_args(argv)

    import repro as gb

    gb.use_engine("interpreted")
    if args.workload == "service_mixed":
        from repro.service import load_manifest, solo_reference

        registry = load_manifest(args.manifest)
        refs = [
            solo_reference(registry.get(t["graph"]), t["graph"], t["algorithm"],
                           t["source"], {})
            for t in workloads.service_templates()
        ]
        with open(args.out, "w") as fh:
            json.dump(refs, fh)
        return 0

    from worker import make_call

    graph = workloads.make_graph(args.workload, args.seed)
    call = make_call(args.workload, graph, gb)
    arrays = {}
    for k, inp in enumerate(workloads.inputs(args.workload, args.seed)):
        idx, vals = call(inp).to_coo()
        arrays[f"{k}_idx"], arrays[f"{k}_val"] = idx, vals
    np.savez(args.out, **arrays)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
