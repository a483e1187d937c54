"""Span tracing installed from outside the library, for ``--trace 1`` runs.

Each target is a public name as a calling module binds it; the wrapper
replaces that binding, records a span (name, start, end, parent span, op
id) around every call and adds the work counts it can read off the
arguments.  Spans are kept in flat in-memory arrays and written when the
run ends.  A target that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

#: (layer, target).  A layer's self time is its spans' time minus that of
#: the wrapped calls they make, so work in an unwrapped helper counts
#: toward the layer of its nearest wrapped caller.
TARGETS = (
    ("fbm", "fraclattice.noise.sample_fbm"),
    ("fbm", "fraclattice.noise.reanchor"),
    ("noise.build", "fraclattice.noise.build_noise_field"),
    ("noise.build", "fraclattice.cli.nz.build_noise_field"),
    ("noise.shift", "fraclattice.attractor.shift_noise"),
    ("noise.shift", "fraclattice.solver.shift_noise"),
    ("noise.sweep", "fraclattice.noise.stationary_ou"),
    ("noise.sweep", "fraclattice.noise.decayed_exp_sweep"),
    ("noise.sweep", "fraclattice.attractor.stationary_ou"),
    ("noise.sweep", "fraclattice.solver.decayed_exp_sweep"),
    ("noise.sweep", "fraclattice.cli.nz.stationary_ou"),
    ("lattice", "fraclattice.solver.laplacian_array"),
    ("solver", "fraclattice.solver.integrate"),
    ("solver", "fraclattice.attractor.integrate"),
    ("solver", "fraclattice.attractor.integrate_ensemble"),
    ("solver", "fraclattice.attractor.cocycle_map"),
    ("solver", "fraclattice.cli.sv.integrate"),
    ("attractor", "fraclattice.attractor.contraction_experiment"),
    ("attractor", "fraclattice.attractor.pullback_experiment"),
    ("attractor", "fraclattice.attractor.random_equilibrium"),
    ("attractor", "fraclattice.cli.at.contraction_experiment"),
    ("attractor", "fraclattice.cli.at.pullback_experiment"),
    ("attractor", "fraclattice.cli.at.random_equilibrium"),
    ("cli", "fraclattice.cli.load_config"),
    ("cli", "fraclattice.cli.run"),
)

LAYERS = ("fbm", "noise.build", "noise.shift", "noise.sweep", "lattice",
          "solver", "attractor", "cli")


def _count_sample(args, kw, out):
    return {"fbm.paths": 1, "fbm.nodes": int(args[0]) + 1}


def _count_reanchor(args, kw, out):
    return {"fbm.nodes": int(np.size(out.values))}


def _count_build(args, kw, out):
    return {"noise.build.sites": int(np.count_nonzero(args[0].noise_amp.values))}


def _count_sweep(args, kw, out):
    return {"noise.sweep.site_nodes": int(np.size(args[0]))}


def _count_integrate(args, kw, out):
    steps = args[4].n_steps()
    return {"solver.steps": steps, "solver.batch_steps": steps,
            "solver.site_steps": steps * args[2].n_sites}


def _count_ensemble(args, kw, out):
    steps = args[4].n_steps()
    batch = int(np.shape(args[0])[0])
    return {"solver.steps": steps, "solver.batch_steps": steps * batch,
            "solver.site_steps": steps * batch * args[2].n_sites}


def _count_pullback_point(args, kw, out):
    return {"attractor.pullback_points": 1}


def _count_pullback(args, kw, out):
    return {"attractor.pullback_points": int(args[1]) * len(args[6])}


#: Work counts per wrapped name, read off positional arguments and results.
COUNTERS = {
    "sample_fbm": _count_sample,
    "reanchor": _count_reanchor,
    "build_noise_field": _count_build,
    "decayed_exp_sweep": _count_sweep,
    "integrate": _count_integrate,
    "integrate_ensemble": _count_ensemble,
    "cocycle_map": _count_pullback_point,
    "pullback_experiment": _count_pullback,
}


def _resolve(path: str):
    """(owner, attribute) for a dotted target, or None when it is gone."""
    parts = path.split(".")
    try:
        owner = importlib.import_module(".".join(parts[:2]))
        for part in parts[2:-1]:
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return None
    if not callable(getattr(owner, parts[-1], None)):
        return None
    return owner, parts[-1]


class Tracer:
    """Records spans for wrapped calls; one instance per traced run."""

    def __init__(self):
        self.names = ["op"] + [path for _, path in TARGETS]
        self.layer_of = [None] + [layer for layer, _ in TARGETS]
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self.stack: list[int] = []
        self.current_op = -1
        self.n_ops = 0
        self.scale: dict[int, float] = {}  # op id -> calibration scale, set by the caller
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._installed: list[tuple] = []

    def _open(self, nid: int) -> int:
        sid = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def add(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, nid: int, fn, counter):
        path = self.names[nid]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counter is not None:
                try:
                    for key, value in counter(args, kwargs, out).items():
                        self.add(key, value)
                except (AttributeError, IndexError, TypeError, ValueError):
                    self.uncounted.add(path)
            return out

        return wrapper

    def install(self):
        """Wrap every target that exists; each binding is wrapped once."""
        seen = set()
        absent = []
        for nid, (_, path) in enumerate(TARGETS, start=1):
            slot = _resolve(path)
            if slot is None:
                absent.append(path)
                continue
            owner, attr = slot
            if (id(owner), attr) in seen:
                continue
            seen.add((id(owner), attr))
            fn = getattr(owner, attr)
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(nid, fn, COUNTERS.get(attr)))
        self.absent = absent

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def run_op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as op ``op_id`` under a root "op" span."""
        self.current_op = op_id
        self.n_ops += 1
        sid = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(sid)

    def arrays(self) -> dict:
        # copies, so the record arrays stay appendable
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: Path):
        np.savez(path, **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-op layer totals: outermost calls, work counts and self time.

        Self time is a span's duration minus the durations of its direct
        child spans, times its op's calibration scale; a layer's calls are
        its spans that sit in no other span of the same layer.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        scale = np.ones(int(a["op"].max(initial=0)) + 1)
        for op, factor in self.scale.items():
            if op < scale.size:
                scale[op] = factor
        self_t = (dur - child) * scale[np.maximum(a["op"], 0)]
        layer_ids = {name: k for k, name in enumerate(LAYERS)}
        layer_by_name = np.array([layer_ids.get(x, -1) for x in self.layer_of])
        layer = layer_by_name[a["name_id"]]
        parent_layer = np.where(nested, layer[np.maximum(a["parent"], 0)], -1)
        per_op = max(self.n_ops, 1)
        out = {}
        for name, k in layer_ids.items():
            mine = layer == k
            out[f"{name}.calls"] = float(np.count_nonzero(mine & (parent_layer != k))) / per_op
            out[f"{name}.self_s"] = float(self_t[mine].sum()) / per_op
        for key, value in self.counts.items():
            out[key] = value / per_op
        return out
