#!/usr/bin/env python3
"""Benchmark of the fraclattice library and CLI: one workload per run.

    python3 perfbench/run.py --workload contraction-seeds --seed 0 --seconds 24 --trace 0

One closed-loop client in this process issues the next op only after the
previous one returns.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs every op twice, untraced and under span wrappers, and
reports the per-layer metrics plus the tracing overhead.  Every op passes
a correctness gate; a failing op is counted, never dropped.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full results, the environment
record and the span arrays go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SCRATCH = ROOT / ".perfbench_tmp"

#: Seed whose op summaries are stored in reference.json.
DEFAULT_SEED = 0
#: Set-ups per run (this process plus fresh child processes); the median is reported.
SETUP_SAMPLES = 5
#: Reference comparison: lets through rounding-level reordering only.
RTOL, ATOL = 1e-9, 1e-12
#: Candidate tail percentiles.  A fixed ladder keeps the reported percentile
#: the same from run to run at a given op rate.  It stops at p95: on a shared
#: machine, p99 of a 2 ms op measures the neighbours' bursts (0.17 quartile
#: spread over ten runs, against 0.09 at p95).
TAIL_PERCENTILES = (95.0, 90.0, 75.0, 50.0)
#: The speed of a shared machine drifts by up to 2x over minutes.  Every
#: reported time is scaled to the speed at which the calibration kernel
#: takes CAL_REF_S, probed at most every CAL_EVERY_S between ops.
CAL_REF_S = 0.0065
CAL_EVERY_S = 0.1

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "fbm.calls": "1/op", "fbm.paths": "1/op", "fbm.self_s": "s/op", "fbm.ns_per_node": "ns",
    "noise.build.calls": "1/op", "noise.build.sites": "1/op",
    "noise.build.self_s": "s/op", "noise.build.us_per_site": "us",
    "noise.shift.calls": "1/op", "noise.shift.self_s": "s/op",
    "noise.sweep.calls": "1/op", "noise.sweep.self_s": "s/op",
    "noise.sweep.ns_per_site_node": "ns",
    "lattice.calls": "1/op", "lattice.self_s": "s/op",
    "solver.calls": "1/op", "solver.steps": "1/op", "solver.batch": "count",
    "solver.site_steps": "1/op", "solver.self_s": "s/op", "solver.ns_per_site_step": "ns",
    "attractor.calls": "1/op", "attractor.pullback_points": "1/op", "attractor.self_s": "s/op",
    "cli.calls": "1/op", "cli.self_s": "s/op", "cli.bytes_written": "B/op", "cli.mb_per_s": "MB/s",
    "trace.overhead_ratio": "ratio",
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


def import_library() -> float:
    """Import fraclattice from this checkout's ``src``; returns the seconds taken."""
    if not (SRC / "fraclattice" / "__init__.py").is_file():
        raise BenchError(f"no fraclattice sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import fraclattice.cli
    elapsed = time.perf_counter() - t0
    if Path(fraclattice.__file__).resolve().parent != (SRC / "fraclattice").resolve():
        raise BenchError(f"imported fraclattice from {fraclattice.__file__}, not {SRC}")
    return elapsed


def load_reference(workload: str, seed: int) -> list:
    """Stored op summaries for the default seed; none for other seeds."""
    if seed != DEFAULT_SEED:
        return []
    return json.loads((HERE / "reference.json").read_text())["workloads"][workload]


def matches(summary, reference) -> bool:
    return len(summary) == len(reference) and all(
        math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL) for a, b in zip(summary, reference)
    )


class OpResult(NamedTuple):
    seconds: float
    cpu_s: float
    ok: bool
    bytes: int
    error: str | None


def one_op(wl, i: int, reference: list, call=None) -> OpResult:
    """Run op ``i`` (timed), gate it, and clean up after it."""
    inp = wl.op_input(i)
    error = None
    try:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = call(wl.run, inp) if call else wl.run(inp)
        finally:
            elapsed = time.perf_counter() - t0
            cpu = time.process_time() - c0
        ok, summary = wl.check(inp, out)
        if not ok:
            error = "property check failed"
        elif i < len(reference) and not matches(summary, reference[i]):
            ok, error = False, f"summary {summary} differs from reference {reference[i]}"
    except Exception as exc:  # any failure of the program is a failed op
        ok, error = False, f"{type(exc).__name__}: {exc}"
    finally:
        written = wl.cleanup(inp)
    return OpResult(elapsed, cpu, ok, written, error)


def set_up(workload: str, seed: int):
    """Import, generate inputs, run the warm-up op; returns (wl, reference, seconds, warm-up).

    The warm-up is op 0 of the default seed, checked against its stored
    summary, so every run compares at least one op with the reference.
    """
    import_s = import_library()
    t1 = time.perf_counter()
    import workloads

    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[workload]
    warm = one_op(make(DEFAULT_SEED, SCRATCH), 0, load_reference(workload, DEFAULT_SEED))
    wl = make(seed, SCRATCH)
    reference = load_reference(workload, seed)
    setup_s = import_s + (time.perf_counter() - t1)
    return wl, reference, setup_s, warm


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, so imports start cold."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of percentile ``pct`` among ``n`` samples."""
    return math.ceil(round(pct * n / 100.0, 9))


def percentile(ranked: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ranked[_rank(len(ranked), pct) - 1]


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) for the highest of ``TAIL_PERCENTILES`` that has at
    least ten samples beyond it; the median when none has."""
    ranked = sorted(times)
    for pct in TAIL_PERCENTILES:
        if len(ranked) - _rank(len(ranked), pct) >= 10:
            return percentile(ranked, pct), pct
    return statistics.median(ranked), 50.0


class Calibrator:
    """Machine-speed probe: a fixed kernel that never touches fraclattice.

    The kernel mixes what the ops spend their time on (small-array numpy
    calls, an interpreter loop, FFTs, float formatting).  A time measured
    between two probes is scaled by ``CAL_REF_S`` over their mean kernel
    time (:meth:`scale`).
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._small = np.linspace(0.1, 1.0, 33)
        self._wave = np.linspace(0.0, 1.0, 8192)
        self._floats = [float(v) for v in np.linspace(0.1, 2.0, 400)]
        self.kernel_s: list[float] = []
        self._due = 0.0

    def _kernel(self) -> float:
        np, x = self._np, self._small
        t0 = time.perf_counter()
        for _ in range(500):
            y = np.zeros_like(x)
            y[1:] = x[:-1]
            bool(np.isfinite(2.0 * x - y).all())
        acc = 0.0
        for k in range(50000):
            acc += k * 0.5
        for _ in range(10):
            np.fft.fft(self._wave)
        ",".join(format(v, ".17g") for v in self._floats)
        return time.perf_counter() - t0

    def probe(self, force: bool = True) -> int:
        """Probe now (or only when ``CAL_EVERY_S`` has passed); returns the last probe's index."""
        if force or time.perf_counter() >= self._due:
            self.kernel_s.append(self._kernel())
            self._due = time.perf_counter() + CAL_EVERY_S
        return len(self.kernel_s) - 1

    def scale(self, k: int) -> float:
        """Scale for a time measured between probe ``k`` and the next one."""
        probes = self.kernel_s[k:k + 2]
        return CAL_REF_S * len(probes) / sum(probes)


def measure(wl, seconds: float, reference: list, cal: Calibrator) -> dict:
    """Untraced closed loop for ``seconds``; ops are numbered from 1.

    Per op it keeps the op's result, the whole client cycle (input, op,
    gate, clean-up) and the calibration scale.
    """
    run = {"results": [], "cycle_s": [], "probe": []}
    start = time.perf_counter()
    i = 1
    while time.perf_counter() - start < seconds:
        run["probe"].append(cal.probe(force=False))
        t0 = time.perf_counter()
        run["results"].append(one_op(wl, i, reference))
        run["cycle_s"].append(time.perf_counter() - t0)
        i += 1
    cal.probe()
    run["scale"] = [cal.scale(k) for k in run.pop("probe")]
    return run


def measure_traced(wl, seconds: float, reference: list, tracer, cal: Calibrator) -> dict:
    """Each op twice, untraced and traced, alternating which goes first."""
    plain, traced, probe = [], [], {}
    start = time.perf_counter()
    i = 1
    while time.perf_counter() - start < seconds:
        probe[i] = cal.probe(force=False)
        for with_spans in ((False, True) if i % 2 else (True, False)):
            if not with_spans:
                plain.append(one_op(wl, i, reference))
                continue
            tracer.install()
            try:
                r = one_op(wl, i, reference,
                           call=lambda fn, inp, op=i: tracer.run_op(op, fn, inp))
            finally:
                tracer.uninstall()
            tracer.add("cli.bytes_written", r.bytes)
            traced.append(r)
        i += 1
    cal.probe()
    tracer.scale = {op: cal.scale(k) for op, k in probe.items()}
    return {"plain": plain, "traced": traced}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den > 0 else 0.0


def end_to_end_metrics(run: dict, setup_s: float) -> tuple[dict, dict]:
    """Metrics at calibrated speed; the raw wall-clock values go to the detail."""
    results, scale = run["results"], run["scale"]
    n = len(results)
    failed = sum(not r.ok for r in results)
    raw = [r.seconds for r in results]
    times = sorted(t * f for t, f in zip(raw, scale))
    tail_s, tail_pct = tail(times)
    metrics = {
        "ops_per_s": n / sum(c * f for c, f in zip(run["cycle_s"], scale)),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "cpu_s_per_op": sum(r.cpu_s * f for r, f in zip(results, scale)) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "ok_ratio": (n - failed) / n,
    }
    detail = {
        "ops": n, "failed_ratio": failed / n, "op_tail_percentile": tail_pct,
        "op_percentiles_s": {p: percentile(times, p) for p in TAIL_PERCENTILES},
        "raw": {"ops_per_s": n / sum(run["cycle_s"]), "op_p50_s": statistics.median(raw),
                "op_tail_s": tail(raw)[0], "cpu_s_per_op": sum(r.cpu_s for r in results) / n},
        "median_scale": statistics.median(scale),
    }
    return metrics, detail


def per_layer_metrics(run: dict, tracer) -> tuple[dict, dict]:
    m = tracer.layer_metrics()  # self times at calibrated speed

    def get(key: str) -> float:
        return m.get(key, 0.0)

    out = {name: get(name) for name in PER_LAYER if name.endswith((".calls", ".self_s"))}
    out.update({
        "fbm.paths": get("fbm.paths"),
        "fbm.ns_per_node": _ratio(get("fbm.self_s"), get("fbm.nodes"), 1e9),
        "noise.build.sites": get("noise.build.sites"),
        "noise.build.us_per_site": _ratio(get("noise.build.self_s"), get("noise.build.sites"), 1e6),
        "noise.sweep.ns_per_site_node": _ratio(get("noise.sweep.self_s"),
                                               get("noise.sweep.site_nodes"), 1e9),
        "solver.steps": get("solver.steps"),
        "solver.batch": _ratio(get("solver.batch_steps"), get("solver.steps")),
        "solver.site_steps": get("solver.site_steps"),
        "solver.ns_per_site_step": _ratio(get("solver.self_s"), get("solver.site_steps"), 1e9),
        "attractor.pullback_points": get("attractor.pullback_points"),
        "cli.bytes_written": get("cli.bytes_written"),
        "cli.mb_per_s": _ratio(get("cli.bytes_written"), get("cli.self_s"), 1e-6),
        "trace.overhead_ratio": _ratio(sum(r.seconds for r in run["traced"]),
                                       sum(r.seconds for r in run["plain"])) - 1.0,
    })
    detail = {"traced_ops": len(run["traced"]), "absent_targets": tracer.absent,
              "uncounted_targets": sorted(tracer.uncounted), "spans": len(tracer.name_id)}
    return {name: out[name] for name in PER_LAYER}, detail


def environment() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "fraclattice").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the set-up seconds and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl, reference, setup_s, warm = set_up(args.workload, args.seed)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        cal = Calibrator()
        samples = [setup_s * cal.scale(cal.probe())]
        while not args.trace and len(samples) < SETUP_SAMPLES:
            raw = child_setup_s(args.workload, args.seed)
            samples.append(raw * cal.scale(cal.probe() - 1))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        import spans

        tracer = spans.Tracer()
        run = measure_traced(wl, args.seconds, reference, tracer, cal)
        results = run["plain"] + run["traced"]
        metrics, detail = per_layer_metrics(run, tracer)
        units = PER_LAYER
    else:
        run = measure(wl, args.seconds, reference, cal)
        results = run["results"]
        metrics, detail = end_to_end_metrics(run, statistics.median(samples))
        units = END_TO_END
    failed = sum(not r.ok for r in results)
    errors = [r.error for r in [warm] + results if r.error][:5]
    detail.update({"setup_samples_s": samples, "warmup_ok": warm.ok, "errors": errors,
                   "reference_ops": len(reference),
                   "calibration_kernel_s": statistics.median(cal.kernel_s)})

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    if args.trace:
        tracer.write(OUT / f"spans-{tag}.npz")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, "detail": detail,
              "environment": environment()}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print("detail " + json.dumps(detail))
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps({
        "correct": warm.ok and failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
