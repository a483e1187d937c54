#!/usr/bin/env python3
"""Regenerate reference.json: the op summaries of every workload on the default seed.

    python3 perfbench/make_reference.py

Run it only when a change to the library is meant to change results, and
say so with the change.  Ops 0..N-1 of each workload are run and gated.
"""

from __future__ import annotations

import json
import sys

import run

#: Ops stored per workload: more than one default-seed run completes today.
REFERENCE_OPS = {
    "contraction-seeds": 128,
    "ou-replicates": 2048,
    "pullback-cli": 128,
    "wide-simulate": 64,
}


def main() -> int:
    run.import_library()
    import workloads

    out = {}
    for name, n_ops in REFERENCE_OPS.items():
        wl = workloads.WORKLOADS[name](run.DEFAULT_SEED, run.SCRATCH)
        rows = []
        for i in range(n_ops):
            inp = wl.op_input(i)
            try:
                ok, summary = wl.check(inp, wl.run(inp))
            finally:
                wl.cleanup(inp)
            if not ok:
                print(f"{name} op {i} failed its property check", file=sys.stderr)
                return 1
            rows.append(summary)
        out[name] = rows
        print(f"{name}: {n_ops} ops", file=sys.stderr)
    payload = {"seed": run.DEFAULT_SEED, "rtol": run.RTOL, "atol": run.ATOL, "workloads": out}
    text = json.dumps(payload, separators=(",", ":"))
    (run.HERE / "reference.json").write_text(text.replace("],[", "],\n[") + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
