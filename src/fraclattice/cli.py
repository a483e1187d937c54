"""Experiment orchestration: JSON configs in, state arrays, tables and manifests out.

Every run is a pure function of its config file plus one master seed;
per-site and per-member seeds derive from the master, so re-running a
config reproduces every artifact byte for byte.  The per-node state tables
(``simulate``'s trajectory, ``ou``'s noise and damped fields) are exact
float64 ``.npy`` arrays; the other tables are CSV series written with 17
significant digits, which round-trips binary doubles exactly.

Subcommands: sample-fbm, verify-operators, simulate, ou, contraction,
pullback, equilibrium, absorb, report.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field as dc_field
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import attractor as at
from . import noise as nz
from . import solver as sv
from .errors import ConfigError, FracLatticeError
from .fbm import TimeGrid, as_hurst, sample_fbm_array
from .lattice import (
    Boundary,
    LatticeParams,
    LatticeVector,
    NonlinearitySpec,
    apply_diff,
    apply_diff_adjoint,
    apply_laplacian,
)

__all__ = ["ExperimentConfig", "RunManifest", "load_config", "run", "main"]

ENV_OUTDIR = "FRACLATTICE_OUTDIR"

#: Hard size guard on a config: the most values one array of a run may
#: hold (512 MiB of doubles).  ``validate_config`` checks the noise field
#: of every config, and each experiment's plan the arrays its run allocates.
MAX_GRID_VALUES = 1 << 26

#: Work guard on a config: the most site-steps (solver steps x starts x sites)
#: one stepping batch of a run may take, 340 times the largest batch of the
#: default and CLI benchmark configs (the default ``pullback`` ladder, 7.9e5).
MAX_SITE_STEPS = 1 << 28


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated bundle of everything a run needs."""

    hurst: float
    params: LatticeParams
    spec: NonlinearitySpec
    solver: sv.SolverConfig
    grid: TimeGrid
    experiment: str
    options: dict
    starts: dict  # the experiment's start vectors (u0, w0) as LatticeVectors
    master_seed: int
    output_dir: str
    effective: dict  # defaults-filled plain dict, echoed, and hashed without output_dir

    def config_hash(self) -> str:  # it names the experiment, not where its run went
        experiment = {k: v for k, v in self.effective.items() if k != "output_dir"}
        payload = json.dumps(experiment, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class RunManifest:
    """What a run produced: artifacts and their array records, verdicts, timings, and the
    step kernel that stepped it, "compiled" or "numpy" (None: the run took no step)."""

    experiment: str
    config_hash: str
    config: dict
    site_seeds: dict = dc_field(default_factory=dict)
    artifacts: list = dc_field(default_factory=list)
    arrays: dict = dc_field(default_factory=dict)
    checks: dict = dc_field(default_factory=dict)
    numbers: dict = dc_field(default_factory=dict)
    timings: dict = dc_field(default_factory=dict)
    kernel: str | None = None
    error: str | None = None

    @property
    def all_passed(self) -> bool:
        return self.error is None and all(self.checks.values())

    def to_json(self) -> str:
        """The fields as JSON, ``timings`` as ``timings_s``, ``arrays`` only when not empty,
        ``site_seeds``' keys as strings and each non-finite number as null."""
        payload = vars(self) | {"all_passed": self.all_passed}  # a shallow copy
        payload["timings_s"] = payload.pop("timings")
        if not self.arrays:
            del payload["arrays"]
        payload["site_seeds"] = {str(k): v for k, v in self.site_seeds.items()}
        payload["numbers"] = {k: v if math.isfinite(v) else None
                              for k, v in self.numbers.items()}
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# output
#
# A per-node state table is one float64 ``.npy`` array, exact as stored.  Its
# ``arrays`` record on the manifest holds its shape, its axes (t, i), the ``TimeGrid``
# fields whose ``times()`` are its nodes, ``(i_start + k) * dt``, and its first site.
# Every other table is a CSV of equal-length columns in one ``template % values``
# call: ``%.17g`` (an exact float64 round-trip) for floats and ``%d`` for integers.


def _write_csv(out: Path, name: str, header: list[str], *columns, manifest) -> None:
    """Write ``out / name``: the header line, then one row per entry of the integer or
    float ``columns``; list it on the manifest."""
    arrays = [np.asarray(c) for c in columns]
    if wrong := [a.dtype for a in arrays if a.dtype.kind not in "iuf"]:
        raise TypeError(f"CSV column of dtype {wrong[0]}: expected integers or floats")
    cells = ["%.17g" if a.dtype.kind == "f" else "%d" for a in arrays]
    rows = list(zip(*(a.tolist() for a in arrays), strict=True))
    out.mkdir(parents=True, exist_ok=True)
    with (out / name).open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(((",".join(cells) + "\n") * len(rows)) % tuple(v for row in rows for v in row))
    manifest.artifacts.append(str(out / name))


def _write_states(out: Path, name: str, values: np.ndarray, grid: TimeGrid, manifest) -> None:
    """Save the (node, site) ``values`` on ``grid`` as ``out / name``, with its record."""
    np.save(out / name, values, allow_pickle=False)
    manifest.artifacts.append(str(out / name))
    manifest.arrays[name] = {"shape": list(values.shape), "axes": ["t", "i"], "dt": float(grid.dt),
                             "i_start": int(grid.i_start), "first_site": -(values.shape[1] // 2)}


# ---------------------------------------------------------------------------
# experiment runners


def _build_field(cfg: ExperimentConfig, manifest: RunManifest) -> nz.NoiseField:
    """The run's noise field; its per-site seeds are recorded on the manifest."""
    field = nz.build_noise_field(cfg.params, cfg.grid, cfg.master_seed, cfg.hurst)
    manifest.site_seeds = field.seed_scheme
    return field


def _run_fbm_sample(cfg, out: Path, manifest: RunManifest):
    n_steps = cfg.options["n_steps"]
    path = sample_fbm_array(1, n_steps, cfg.hurst, cfg.grid.dt, cfg.master_seed)[0]
    _write_csv(out, "fbm_path.csv", ["t", "value"], TimeGrid(cfg.grid.dt, n_steps).times(),
               path, manifest=manifest)
    manifest.checks["anchored"] = bool(path[0] == 0.0)
    manifest.numbers["n_steps"] = n_steps


def _run_verify_operators(cfg, out: Path, manifest: RunManifest):
    n_vec = cfg.options["n_vectors"]
    tol = float(cfg.options["tol"])
    n = cfg.params.half_width
    rng = np.random.default_rng(cfg.master_seed)
    worst = {"factor_periodic": 0.0, "factor_zero_interior": 0.0,
             "adjoint": 0.0, "positivity": 0.0}
    for _ in range(n_vec):
        x = rng.standard_normal(2 * n + 1)
        y = rng.standard_normal(2 * n + 1)
        xv, yv = LatticeVector(x), LatticeVector(y)
        xz = x.copy()
        xz[0] = xz[-1] = 0.0  # zero padding factorizes on interior support
        for bnd, key, xi in ((Boundary.PERIODIC, "factor_periodic", xv),
                             (Boundary.ZERO_PADDING, "factor_zero_interior", LatticeVector(xz))):
            ax = apply_laplacian(xi, bnd).values
            bbs = apply_diff(apply_diff_adjoint(xi, bnd), bnd).values
            bsb = apply_diff_adjoint(apply_diff(xi, bnd), bnd).values
            gap = max(np.abs(ax - bbs).max(), np.abs(ax - bsb).max())
            worst[key] = max(worst[key], gap / np.linalg.norm(xi.values))
        lhs = float(np.dot(apply_diff_adjoint(xv).values, y))
        rhs = float(np.dot(x, apply_diff(yv).values))
        # scale by |x||y|: the pairing itself can cancel to zero
        scale = float(np.linalg.norm(x) * np.linalg.norm(y))
        worst["adjoint"] = max(worst["adjoint"], abs(lhs - rhs) / scale)
        quad = float(np.dot(apply_laplacian(xv).values, x))
        worst["positivity"] = max(worst["positivity"], -quad / float(np.dot(x, x)))
    for key, val in worst.items():
        manifest.checks[key] = bool(val <= tol)
        manifest.numbers[f"worst_{key}"] = val
    manifest.numbers["n_vectors"] = n_vec


def _run_simulate(cfg, out: Path, manifest: RunManifest):
    field = _build_field(cfg, manifest)
    traj = sv.integrate(cfg.starts["u0"], field, cfg.params, cfg.spec, cfg.solver)
    _write_states(out, "trajectory.npy", traj.values, traj.grid, manifest)
    manifest.checks["finite"] = bool(np.isfinite(traj.values).all())
    manifest.numbers["final_norm"] = float(np.linalg.norm(traj.values[-1]))


def _run_ou(cfg, out: Path, manifest: RunManifest):
    field = _build_field(cfg, manifest)
    ou = nz.stationary_ou(cfg.params.damping, field)
    bound = ou.growth_bound(ou.grid.times())
    _write_states(out, "noise_field.npy", field.w_matrix, field.grid, manifest)
    _write_states(out, "ou_field.npy", ou.values, ou.grid, manifest)
    manifest.checks["growth_bound"] = bool((ou.norms() <= bound + 1e-12).all())
    manifest.numbers["rho"] = ou.rho
    manifest.numbers["past_horizon"] = ou.past_horizon
    manifest.numbers["tail_bound"] = ou.tail_bound


def _run_contraction(cfg, out: Path, manifest: RunManifest):
    field = _build_field(cfg, manifest)
    rep = at.contraction_experiment(cfg.starts["u0"], cfg.starts["w0"], field,
                                    cfg.params, cfg.spec, cfg.solver)
    keep = rep.distances > 0.0
    d = rep.distances[keep]
    _write_csv(out, "contraction_log_distance.csv", ["t", "distance", "log_distance"],
               rep.times[keep], d, np.log(d), manifest=manifest)
    manifest.checks["slope"] = rep.slope_ok
    manifest.checks["pointwise_certificate"] = rep.pointwise_ok
    manifest.checks["nondegenerate"] = not rep.degenerate
    manifest.numbers["fitted_slope"] = rep.fitted_slope
    manifest.numbers["rate"] = rep.rate


def _run_pullback(cfg, out: Path, manifest: RunManifest):
    field = _build_field(cfg, manifest)
    opts = cfg.options
    equilibrium = None
    tol = opts["equilibrium_tol"]
    if tol is not None:
        eq = at.random_equilibrium(field, cfg.params, cfg.spec, cfg.solver, tol=float(tol))
        equilibrium = eq.u0
        manifest.numbers["equilibrium_horizon"] = eq.horizon
        manifest.numbers["equilibrium_cauchy_gap"] = eq.cauchy_gap
        manifest.checks["equilibrium_start_independent"] = eq.start_gap <= 2 * float(tol)
    rep = at.pullback_experiment(
        float(opts["radius"]), opts["n_starts"], field, cfg.params, cfg.spec,
        cfg.solver, opts["horizons"], seed=nz.derive_seed(cfg.master_seed, 7, 0),
        equilibrium=equilibrium,
    )
    header, columns = ["horizon", "diameter", "bound"], [rep.horizons, rep.diameters, rep.bounds]
    if rep.hausdorff is not None:
        header.append("hausdorff_to_equilibrium")
        columns.append(rep.hausdorff)
    _write_csv(out, "pullback_diameters.csv", header, *columns, manifest=manifest)
    manifest.checks["diameter_decay"] = rep.passed
    manifest.numbers["start_diameter"] = rep.start_diameter
    manifest.numbers["final_diameter"] = float(rep.diameters[-1])


def _run_equilibrium(cfg, out: Path, manifest: RunManifest):
    field = _build_field(cfg, manifest)
    opts = cfg.options
    tol = float(opts["tol"])
    eq = at.random_equilibrium(
        field, cfg.params, cfg.spec, cfg.solver, tol=tol,
        initial_horizon=float(opts["initial_horizon"]),
    )
    manifest.numbers["horizon"] = eq.horizon
    manifest.numbers["cauchy_gap"] = eq.cauchy_gap
    manifest.numbers["start_gap"] = eq.start_gap
    manifest.numbers["norm"] = float(eq.u0.norm())
    manifest.checks["cauchy"] = eq.cauchy_gap <= tol
    manifest.checks["start_independent"] = eq.start_gap <= 2 * tol
    sites = np.arange(-cfg.params.half_width, cfg.params.half_width + 1)
    _write_csv(out, "equilibrium.csv", ["i", "value"], sites, eq.u0.values, manifest=manifest)
    times = [float(t) for t in opts["check_times"]]
    if times:
        rep = at.forward_stationarity_check(
            eq, field, cfg.params, cfg.spec, cfg.solver, times
        )
        _write_csv(out, "stationarity_residuals.csv", ["t", "residual"], rep.times,
                   rep.residuals, manifest=manifest)
        manifest.checks["forward_stationarity"] = rep.passed
        manifest.numbers["max_stationarity_residual"] = float(rep.residuals.max())


def _run_absorb(cfg, out: Path, manifest: RunManifest):
    field = _build_field(cfg, manifest)
    opts = cfg.options
    t_past = float(opts["t_past"])
    rep = at.absorption_check(
        float(opts["d_radius"]), field, cfg.params, cfg.spec, cfg.solver,
        opts["horizons"], n_starts=opts["n_starts"],
        seed=nz.derive_seed(cfg.master_seed, 7, 1), t_past=t_past,
        ou_tail_tol=float(opts["ou_tail_tol"]),
    )
    _write_csv(out, "absorption_entry.csv", ["horizon", "max_norm", "bound", "margin"],
               rep.horizons, rep.max_norms, np.full(rep.horizons.shape, float(rep.bound)),
               rep.margins, manifest=manifest)
    manifest.checks["absorbed"] = rep.passed
    manifest.checks["radius_at_least_one"] = rep.radius.value >= 1.0
    manifest.numbers["absorbing_radius"] = rep.radius.value
    manifest.numbers["radius_tail_bound"] = rep.radius.tail_bound
    manifest.numbers["bound"] = rep.bound
    if rep.entry_horizon is not None:
        manifest.numbers["entry_horizon"] = rep.entry_horizon
    # radius growth with quadrature depth, for plotting
    dt = field.grid.dt
    depths = [max(dt, round(frac * t_past / dt) * dt) for frac in (0.25, 0.5, 1.0)]
    radii = [at.absorbing_radius(rep.ou, cfg.spec, tp) for tp in depths]
    _write_csv(out, "absorbing_radius.csv", ["t_past", "radius", "tail_bound"], depths,
               [r.value for r in radii], [r.tail_bound for r in radii], manifest=manifest)


# ---------------------------------------------------------------------------
# run plans: ``plan(c, check)`` makes every check its run makes before its first
# step, through the run's own functions, size-checks each array the run
# allocates, and checks that a stepping run steps once per noise node, then that
# its step is stable and each of its stepping batches fits ``MAX_SITE_STEPS``.  ``c``
# holds the validated values, ``c.solver`` None when a ``solver.*`` value failed its rule,
# and then a stepping plan checks nothing of its steps; ``check(path, make, *args)``
# returns ``make(*args)``, or None with its error listed under ``path``.


def _plan_fbm_sample(c, check):
    check("experiment.n_steps", _size_check, "circulant", 2 * c.n_steps, "values")


def _plan_forward(c, check, starts=1):
    if c.solver is None or not check("solver.dt", sv._node_step, c.solver, c.grid):
        return
    check("solver.dt", sv._stable_step, c.step_margin)
    row = check("solver.t_end", sv._forward_row, c.grid, c.solver.t_end, c.solver)
    # the forward run keeps every state of its starts, in one array
    if row and check("solver.t_end", _size_check, "trajectory", (row[1] + 1) * starts,
                     "node x start rows", c.sites):
        check("solver.dt", _work_check, "forward run", [row], starts, c.sites)


def _plan_ou(c, check):
    window = check("grid.t_future", nz._forward_window, c.grid)
    if window:
        check("grid.t_past", nz._ou_window, c.damping, c.grid, window)


def _plan_ladder(c, check) -> bool:
    """A pullback ladder of ``n_starts`` starts from each of ``horizons``; False if its
    step is not the noise step, with nothing more checked."""
    if c.solver is None or not check("solver.dt", sv._node_step, c.solver, c.grid):
        return False
    check("solver.dt", sv._stable_step, c.step_margin)
    rows = check("experiment.horizons", at._ladder_rows, c.grid, c.horizons, c.solver)
    if check("experiment.n_starts", _size_check, "pullback ladder",
             len(c.horizons) * c.n_starts, "horizon x start rows", c.sites) and rows:
        check("solver.dt", _work_check, "pullback ladder", rows, c.n_starts, c.sites)
    return True


def _search(c, initial_horizon: float) -> list[float]:
    """The checks of ``random_equilibrium``'s two-start ladder; returns its horizons."""
    horizons = at._doubling_horizons(c.grid, initial_horizon)
    rows = at._ladder_rows(c.grid, horizons, c.solver)
    _size_check("pullback ladder", 2 * len(horizons), "horizon x start rows", c.sites)
    _work_check("pullback ladder", rows, 2, c.sites)
    return horizons


def _plan_pullback(c, check):
    if _plan_ladder(c, check) and c.equilibrium_tol is not None:
        check("experiment.equilibrium_tol", _search, c, at.INITIAL_HORIZON)


def _plan_absorb(c, check):
    _plan_ladder(c, check)
    window = check("experiment.t_past", at._past_window, c.grid, float(c.t_past))
    if window:
        check("experiment.t_past", nz._ou_window, c.damping, c.grid, window, c.ou_tail_tol)


def _stationarity(c, horizons, times) -> None:
    """The checks of ``forward_stationarity_check`` at the deepest horizon the search may
    stop at, which cover every shallower H (t - H lies on the grid between t and the
    deepest's start), the sizes of its batch and forward leg, and its batch's work."""
    _size_check("stationarity batch", len(times), "check time rows", c.sites)
    steps, rows = at._stationarity_rows(c.grid, c.solver, times, horizons[-1])
    _size_check("trajectory", steps[-1] + 1, "node x start rows", c.sites)
    _work_check("stationarity batch", rows, 1, c.sites)


def _plan_equilibrium(c, check):
    if c.solver is None or not check("solver.dt", sv._node_step, c.solver, c.grid):
        return
    check("solver.dt", sv._stable_step, c.step_margin)
    horizons = check("experiment.initial_horizon", _search, c, float(c.initial_horizon))
    times = sorted(float(t) for t in c.check_times)
    if horizons and times:
        check("experiment.check_times", _stationarity, c, horizons, times)


class _Experiment(NamedTuple):
    """One subcommand; its name is the key it is registered under."""

    run: Callable  # (cfg, out, manifest) -> None
    plan: Callable | None  # (c, check) -> None, see "run plans"
    options: dict  # option defaults; each option's rule is its _FIELDS row
    help: str
    flags: tuple = ()  # _OVERRIDES dests beyond --out and --seed


_REGISTRY = {
    "sample-fbm": _Experiment(_run_fbm_sample, _plan_fbm_sample, {"n_steps": 1000},
                              "write one fractional path as CSV", ("h", "dt", "steps")),
    "verify-operators": _Experiment(_run_verify_operators, None, {"n_vectors": 1000, "tol": 1e-12},
                                    "difference-operator identity checks"),
    "simulate": _Experiment(_run_simulate, _plan_forward, {"u0": {"0": 1.0}},
                            "integrate one trajectory and dump it"),
    "ou": _Experiment(_run_ou, _plan_ou, {}, "stationary damped field and its growth check",
                      ("lambda", "h", "t_past", "dt")),
    "contraction": _Experiment(_run_contraction, functools.partial(_plan_forward, starts=2),
                               {"u0": {"0": 1.0}, "w0": {"0": -1.0}},
                               "matched-noise pairwise contraction"),
    "pullback": _Experiment(_run_pullback, _plan_pullback,
                            {"radius": 10.0, "n_starts": 16, "horizons": [1.0, 2.0, 4.0, 8.0],
                             "equilibrium_tol": None},
                            "ensemble pullback shrinkage"),
    "equilibrium": _Experiment(_run_equilibrium, _plan_equilibrium,
                               {"tol": 1e-6, "initial_horizon": at.INITIAL_HORIZON,
                                "check_times": []},
                               "random equilibrium via horizon doubling"),
    "absorb": _Experiment(_run_absorb, _plan_absorb,
                          {"d_radius": 10.0, "horizons": [0.5, 1.0, 2.0, 4.0], "n_starts": 8,
                           "t_past": 4.0, "ou_tail_tol": 1e-6},
                          "absorbing radius and pullback absorption"),
}


# ---------------------------------------------------------------------------
# config validation: one rule per value, then the checks that join values


def _is_int(x) -> bool:
    """A JSON integer; JSON ``true`` and ``false`` are not integers."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A finite JSON number: no boolean, NaN, infinity or integer beyond float range."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


def _is_site(key) -> bool:
    """A site index in canonical decimal, so that no two keys name one site."""
    try:
        return str(int(key)) == key
    except (TypeError, ValueError):
        return False


def _is_times(x) -> bool:
    return isinstance(x, list) and all(_is_number(t) and t >= 0 for t in x)


def _one_of(*choices: str):
    return (lambda x: isinstance(x, str) and x in choices,
            "one of " + ", ".join(map(repr, choices)))


_NUMBER = (_is_number, "a finite number")
_POSITIVE = (lambda x: _is_number(x) and x > 0, "a finite number > 0")
_NONNEGATIVE = (lambda x: _is_number(x) and x >= 0, "a finite number >= 0")
_COUNT = (lambda x: _is_int(x) and x >= 1, "an integer >= 1")
#: An object of site -> value; each key and each value is then checked on its own.
_SITES = (lambda x: isinstance(x, dict), "an object of site -> finite number")

#: Every config value: dotted path -> (default, (test, requirement)).  A
#: ``None`` default is filled from each experiment's option defaults in
#: ``_REGISTRY``, and ``solver.dt``'s from ``grid.dt``.
_FIELDS = {
    "hurst": (0.75, _NUMBER),  # its range is checked by fbm.as_hurst
    "lattice.coupling": (1.0, _POSITIVE),
    "lattice.damping": (1.0, _POSITIVE),
    "lattice.half_width": (16, _COUNT),
    "lattice.boundary": ("zero-padding", _one_of(*(b.value for b in Boundary))),
    "lattice.forcing": ({}, _SITES),
    "lattice.noise_amp": ({"0": 1.0}, _SITES),
    "nonlinearity.kind": ("cubic", _one_of("linear", "cubic")),
    "nonlinearity.a": (1.0, _POSITIVE),
    "nonlinearity.b": (1.0, _POSITIVE),
    "solver.scheme": ("heun", _one_of(*(s.value for s in sv.Scheme))),
    "solver.dt": (None, _POSITIVE),
    "solver.t_end": (5.0, _NONNEGATIVE),
    "grid.dt": (0.01, _POSITIVE),
    "grid.t_past": (30.0, _NONNEGATIVE),
    "grid.t_future": (5.0, _NONNEGATIVE),
    "experiment.name": ("contraction", _one_of(*_REGISTRY)),
    "experiment.n_steps": (None, _COUNT),
    "experiment.n_vectors": (None, _COUNT),
    "experiment.n_starts": (None, _COUNT),
    "experiment.tol": (None, _POSITIVE),
    "experiment.ou_tail_tol": (None, _POSITIVE),
    "experiment.initial_horizon": (None, _POSITIVE),
    "experiment.t_past": (None, _POSITIVE),
    "experiment.radius": (None, _NONNEGATIVE),
    "experiment.d_radius": (None, _NONNEGATIVE),
    "experiment.equilibrium_tol": (None, (lambda x: x is None or _POSITIVE[0](x),
                                          "null or a finite number > 0")),
    "experiment.horizons": (None, (lambda x: _is_times(x) and len(x) > 0,
                                   "a non-empty list of finite numbers >= 0")),
    "experiment.check_times": (None, (_is_times, "a list of finite numbers >= 0")),
    "experiment.u0": (None, _SITES),
    "experiment.w0": (None, _SITES),
    "master_seed": (0, (lambda x: _is_int(x) and x >= 0, "an integer >= 0")),
    "output_dir": ("out", (lambda x: isinstance(x, str) and x != "", "a non-empty string")),
}

_SECTIONS = {path.partition(".")[0] for path in _FIELDS if "." in path}


def _flatten(raw: dict, violations: list[str]) -> dict:
    """The config as ``{dotted path: value}``; lists unknown top-level keys
    and sections that are not objects."""
    flat = {}
    for key, value in raw.items():
        if key in _SECTIONS:
            if isinstance(value, dict):
                flat.update((f"{key}.{sub}", val) for sub, val in value.items())
            else:
                violations.append(f"{key}: expected an object")
        elif key in _FIELDS and "." not in key:  # "lattice.coupling" is no top-level key
            flat[key] = value
        else:
            violations.append(f"{key}: unknown key")
    return flat


def _rule_violations(path: str, value) -> list[str]:
    """One ``<path>: must be <requirement>, got <value>`` line per broken rule."""
    rule = _FIELDS[path][1]
    test, requirement = rule
    if not test(value):
        return [f"{path}: must be {requirement}, got {value!r}"]
    if rule is not _SITES:
        return []
    return [f"{path}: must be keyed by canonical decimal integers, got {key!r}" if not _is_site(key)
            else f"{path}.{key}: must be a finite number, got {val!r}"
            for key, val in value.items() if not (_is_site(key) and _is_number(val))]


def _checked(violations: list[str], label: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, or None with its error listed under ``label``."""
    try:
        return make(*args, **kwargs)
    except (ValueError, OverflowError, FracLatticeError) as exc:
        violations.append(f"{label}: {exc}")
        return None


def _size_check(what: str, rows: int, unit: str, sites: int | None = None) -> bool:
    """True, or ValueError if ``rows`` (times ``sites``) values exceed ``MAX_GRID_VALUES``."""
    if rows * (sites or 1) > MAX_GRID_VALUES:
        shape = f"{Decimal(rows):.3g} {unit}" + (f" x {sites} sites" if sites else "")
        raise ValueError(f"a {what} of {shape} exceeds the limit of {MAX_GRID_VALUES} values")
    return True


def _work_check(what: str, rows, starts: int, sites: int) -> bool:
    """True, or ValueError if the batch of ``rows`` over ``sites``, stepping each run of
    ``solver._runs`` from ``starts`` starts, takes more than ``MAX_SITE_STEPS`` site-steps."""
    steps = sum(n for _, n in sv._runs(rows)) * starts
    if steps * sites > MAX_SITE_STEPS:
        raise ValueError(f"a {what} of {Decimal(steps):.3g} start-steps x {sites} sites "
                         f"exceeds the limit of {MAX_SITE_STEPS} site-steps")
    return True


def validate_config(raw: dict) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig`, reporting every violation at once.

    Each value must pass its ``_FIELDS`` rule, and unknown keys are
    violations too, so a typo never falls back to a default (an absent
    ``solver.dt`` is ``grid.dt``, its rule then reported under ``grid.dt``).  The checks
    that every run shares and that join several values (the Hurst range,
    each site vector against ``half_width``, the grid window, the noise
    field's ``MAX_GRID_VALUES`` size guard) run for every group whose values
    passed their rules; so are the lattice params and the nonlinearity spec,
    once each, and the config returns those objects.  Then, once those
    checks and the lattice damping and the experiment's options have
    passed, the experiment's plan (see "run plans") makes every check its
    run makes before its first step, each listed under its config path, so
    a config that validates does not fail on them; the plan runs whether or
    not the ``solver.*`` values passed.  A stepping run's plan checks its
    steps only when they did: first that ``solver.dt`` is ``grid.dt``, then the
    ``solver.step_margin`` of the params and the spec, once both are built,
    and the ``MAX_SITE_STEPS`` work guard of each batch whose arrays fit.
    """
    violations: list[str] = []
    given = _flatten(raw, violations)
    name = given.get("experiment.name", _FIELDS["experiment.name"][0])
    entry = _REGISTRY.get(name) if isinstance(name, str) else None
    options = {f"experiment.{key}": val for key, val in entry.options.items()} if entry else {}
    defaults = {path: default for path, (default, _) in _FIELDS.items() if default is not None}
    values = copy.deepcopy(defaults | options) | given
    values.setdefault("solver.dt", values["grid.dt"])  # a step the code already has
    known = {path for path in _FIELDS if not path.startswith("experiment.")}
    known |= {"experiment.name", *options}
    for path in given:
        section = path.partition(".")[0]
        if path not in known and (entry is not None or section != "experiment"):
            keys = sorted(p.partition(".")[2] for p in known if p.startswith(f"{section}."))
            violations.append(f"{path}: unknown key (known: {', '.join(keys)})")

    found = {path: _rule_violations(path, values[path])
             for path in _FIELDS if path in known and path in values}
    failed = {path for path, lines in found.items() if lines}
    if "solver.dt" not in given:  # grid.dt's value, which grid.dt's own line reports
        del found["solver.dt"]
    violations += [line for lines in found.values() for line in lines]

    def passed(*paths):
        return failed.isdisjoint(paths)

    hurst = grid = solver_cfg = None
    if passed("hurst"):
        hurst = _checked(violations, "hurst", as_hurst, values["hurst"])
    half_width = values["lattice.half_width"]
    vectors = {path: _checked(violations, path, LatticeVector.from_support, half_width,
                              {int(k): v for k, v in values[path].items()})
               for path in _FIELDS if path in known and _FIELDS[path][1] is _SITES
               and passed(path, "lattice.half_width")}
    if passed("grid.dt", "grid.t_past", "grid.t_future"):
        grid = _checked(violations, "grid", TimeGrid.window, float(values["grid.dt"]),
                        float(values["grid.t_past"]), float(values["grid.t_future"]))
    if passed("solver.dt", "solver.t_end", "solver.scheme"):
        solver_cfg = sv.SolverConfig(dt=float(values["solver.dt"]),
                                     t_end=float(values["solver.t_end"]),
                                     scheme=values["solver.scheme"])
    sites = 2 * half_width + 1 if passed("lattice.half_width") else None
    params = spec = None
    if (passed("lattice.coupling", "lattice.damping", "lattice.boundary")
            and all(vectors.get(path) for path in ("lattice.forcing", "lattice.noise_amp"))):
        params = LatticeParams(float(values["lattice.coupling"]),
                               float(values["lattice.damping"]), vectors["lattice.forcing"],
                               vectors["lattice.noise_amp"], half_width,
                               values["lattice.boundary"])
    if passed("nonlinearity.kind", "nonlinearity.a", "nonlinearity.b"):
        a, b = float(values["nonlinearity.a"]), float(values["nonlinearity.b"])
        spec = (NonlinearitySpec.linear(a) if values["nonlinearity.kind"] == "linear"
                else NonlinearitySpec.cubic(a, b))
    if grid is not None and sites is not None:
        fits = _checked(violations, "grid", _size_check, "noise field", grid.n_nodes, "nodes",
                        sites)
        if fits and passed("experiment.name", "lattice.damping", *options) and entry.plan:
            margin = (sv.step_margin(solver_cfg.dt, params, spec)
                      if solver_cfg and params and spec else None)
            c = SimpleNamespace(grid=grid, solver=solver_cfg, sites=sites,
                                damping=float(values["lattice.damping"]), step_margin=margin,
                                **{key: values[f"experiment.{key}"] for key in entry.options})
            entry.plan(c, functools.partial(_checked, violations))

    if violations:
        raise ConfigError(violations)

    effective: dict = {}
    for path, value in values.items():
        section, _, key = path.partition(".")
        if key:
            effective.setdefault(section, {})[key] = value
        else:
            effective[path] = value
    return ExperimentConfig(
        hurst=hurst,
        params=params,
        spec=spec,
        solver=solver_cfg,
        grid=grid,
        experiment=name,
        options=dict(effective["experiment"]),
        starts={key: vectors[f"experiment.{key}"] for key in ("u0", "w0")
                if key in entry.options},
        master_seed=values["master_seed"],
        output_dir=values["output_dir"],
        effective=effective,
    )


def _read_json(path: str | Path) -> dict:
    """The top-level JSON object of a config or manifest file."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc.strerror or exc}"]) from exc
    except json.JSONDecodeError as exc:
        msg = f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        raise ConfigError([msg]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top-level JSON value must be an object"])
    return raw


def _arrays_ok(data: dict) -> bool:
    """Whether a manifest's ``arrays`` holds a well-formed record per ``.npy`` artifact."""
    arrays, listed = data.get("arrays", {}), data.get("artifacts", [])
    saved = {Path(a).name for a in listed if str(a).endswith(".npy")} if isinstance(
        listed, list) else set()
    return isinstance(arrays, dict) and saved <= arrays.keys() and all(
        isinstance(r, dict) and isinstance(r.get("shape"), list) and isinstance(r.get("axes"), list)
        and len(r["axes"]) == len(r["shape"]) and all(_is_int(n) and n >= 0 for n in r["shape"])
        and all(isinstance(a, str) for a in r["axes"]) and _POSITIVE[0](r.get("dt"))
        and _is_int(r.get("i_start")) and _is_int(r.get("first_site")) for r in arrays.values())


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config file.

    Parse errors carry line/column; validation reports the full list of
    violations, not just the first.
    """
    return validate_config(_read_json(path))


def run(cfg: ExperimentConfig) -> RunManifest:
    """Execute the configured experiment; never raises on module errors.

    Failures land in ``manifest.error`` with no checks passed, so the
    process exit code stays honest.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(experiment=cfg.experiment, config_hash=cfg.config_hash(),
                           config=cfg.effective)
    t0, bound = time.perf_counter(), sv._BOUND.copy()
    try:
        _REGISTRY[cfg.experiment].run(cfg, out, manifest)
    except (FracLatticeError, ValueError) as exc:
        manifest.error = f"{type(exc).__name__}: {exc}"
    manifest.timings["total"] = time.perf_counter() - t0
    manifest.kernel = next(iter(sv._BOUND - bound), None)
    manifest_path = out / "manifest.json"
    manifest_path.write_text(manifest.to_json() + "\n")
    manifest.artifacts.append(str(manifest_path))
    return manifest


# ---------------------------------------------------------------------------
# argparse front end

#: Command-line overrides: argparse dest -> (type, help, config paths it sets).
_OVERRIDES = {
    "h": (float, "Hurst exponent in (1/2, 1)", ("hurst",)),
    "dt": (float, "noise grid and solver step", ("grid.dt", "solver.dt")),
    "steps": (int, "number of steps", ("experiment.n_steps",)),
    "lambda": (float, "damping rate", ("lattice.damping",)),
    "t_past": (float, "sampled noise history before t = 0", ("grid.t_past",)),
    "out": (str, "output directory (overrides env and config)", ("output_dir",)),
    "seed": (int, "master seed override", ("master_seed",)),
}


def _cfg_from_args(args) -> ExperimentConfig:
    """The config file, with the subcommand's name and each given flag written over it."""
    raw = _read_json(args.config) if args.config else {}
    flags = {**vars(args), "out": args.out or os.environ.get(ENV_OUTDIR) or None}
    overrides = [("experiment.name", args.command)] + [
        (path, flags[dest]) for dest, (_, _, paths) in _OVERRIDES.items()
        if flags.get(dest) is not None for path in paths
    ]
    for path, value in overrides:
        section, _, key = path.partition(".")
        if not key:
            raw[section] = value
        elif isinstance(raw.setdefault(section, {}), dict):  # otherwise validation reports it
            raw[section][key] = value
    return validate_config(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fraclattice",
        description="Simulate a damped coupled lattice driven by long-memory "
                    "fractional noise and verify its contraction, pullback, "
                    "and absorption behavior.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, entry in _REGISTRY.items():
        p = subs.add_parser(name, help=entry.help)
        p.add_argument("--config", help="JSON config file")
        for dest in (*entry.flags, "out", "seed"):
            kind, text, _ = _OVERRIDES[dest]
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=kind, help=text)
    p = subs.add_parser("report", help="summarize a run manifest")
    p.add_argument("--manifest", required=True)

    args = parser.parse_args(argv)

    if args.command == "report":
        try:
            data = _read_json(args.manifest)
            bad = [k for k in ("experiment", "config_hash") if not isinstance(data.get(k), str)]
            bad += [k for k in ("checks", "numbers") if not isinstance(data.get(k, {}), dict)]
            if data.get("kernel") not in (None, "compiled", "numpy"):
                bad.append("kernel")
            if not _arrays_ok(data):
                bad.append("arrays")
            if bad:
                raise ConfigError([f"not a run manifest: {', '.join(bad)} missing or malformed"])
        except ConfigError as exc:
            print(f"report error: {exc.violations[0]}", file=sys.stderr)
            return 2
        print(f"experiment: {data['experiment']}   config {data['config_hash'][:12]}")
        if data.get("kernel"):
            print(f"  kernel: {data['kernel']}")
        for name, ok in sorted(data.get("checks", {}).items()):
            print(f"  {'PASS' if ok else 'FAIL'}  {name}")
        for name, val in sorted(data.get("numbers", {}).items()):
            print(f"        {name} = {val:.6g}" if isinstance(val, float)
                  else f"        {name} = {val}")
        for name, rec in sorted(data.get("arrays", {}).items()):
            print(f"  ARRAY {name}  shape {' x '.join(map(str, rec['shape']))}  axes "
                  f"{', '.join(rec['axes'])}  dt {rec['dt']!r}  i_start {rec['i_start']}  "
                  f"first_site {rec['first_site']}")
        if data.get("error"):
            print(f"  ERROR {data['error']}")
        return 0 if data.get("all_passed") else 1

    try:
        cfg = _cfg_from_args(args)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2

    manifest = run(cfg)
    for name, ok in sorted(manifest.checks.items()):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if manifest.error:
        print(f"ERROR {manifest.error}", file=sys.stderr)
    print(f"manifest: {Path(cfg.output_dir) / 'manifest.json'}")
    return 0 if manifest.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
