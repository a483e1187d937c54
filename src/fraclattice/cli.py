"""Experiment orchestration: JSON configs in, CSV series and manifests out.

Every run is a pure function of its config file plus one master seed;
per-site and per-member seeds derive from the master, so re-running a
config reproduces every CSV payload byte for byte.  Numbers are written
with 17 significant digits, which round-trips binary doubles exactly.

Subcommands: sample-fbm, verify-operators, simulate, ou, contraction,
pullback, equilibrium, absorb, report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import attractor as at
from . import noise as nz
from . import solver as sv
from .errors import ConfigError, FracLatticeError
from .fbm import HurstParameter, TimeGrid, sample_fbm_array
from .lattice import (
    Boundary,
    LatticeParams,
    LatticeVector,
    NonlinearitySpec,
    apply_diff,
    apply_diff_adjoint,
    apply_laplacian,
)

__all__ = ["ExperimentConfig", "RunManifest", "load_config", "run",
           "emit_plot_series", "main"]

ENV_OUTDIR = "FRACLATTICE_OUTDIR"

EXPERIMENTS = (
    "sample-fbm",
    "verify-operators",
    "simulate",
    "ou",
    "contraction",
    "pullback",
    "equilibrium",
    "absorb",
)

_DEFAULTS = {
    "hurst": 0.75,
    "lattice": {
        "coupling": 1.0,
        "damping": 1.0,
        "half_width": 16,
        "boundary": "zero-padding",
        "forcing": {},
        "noise_amp": {"0": 1.0},
    },
    "nonlinearity": {"kind": "cubic", "a": 1.0, "b": 1.0},
    "solver": {"scheme": "heun", "dt": 0.01, "t_end": 5.0},
    "grid": {"dt": 0.01, "t_past": 30.0, "t_future": 5.0},
    "experiment": {"name": "contraction"},
    "master_seed": 0,
    "output_dir": "out",
}

_EXPERIMENT_DEFAULTS = {
    "sample-fbm": {"n_steps": 1000},
    "verify-operators": {"n_vectors": 1000, "tol": 1e-12},
    "simulate": {"u0": {"0": 1.0}},
    "ou": {},
    "contraction": {"u0": {"0": 1.0}, "w0": {"0": -1.0}},
    "pullback": {"radius": 10.0, "n_starts": 16, "horizons": [1.0, 2.0, 4.0, 8.0],
                 "equilibrium_tol": None},
    "equilibrium": {"tol": 1e-6, "initial_horizon": 1.0, "check_times": []},
    "absorb": {"d_radius": 10.0, "horizons": [0.5, 1.0, 2.0, 4.0], "n_starts": 8,
               "t_past": 4.0, "ou_tail_tol": 1e-6},
}


def _is_int(x) -> bool:
    """A JSON integer; JSON ``true`` and ``false`` are not integers."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_nonnegative(x) -> bool:
    """A finite JSON number >= 0; NaN fails the comparison."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and 0 <= x < math.inf


def _is_times(x) -> bool:
    return isinstance(x, list) and all(_is_nonnegative(t) for t in x)


_COUNT = (lambda x: _is_int(x) and x >= 1, "an integer >= 1")
_POSITIVE = (lambda x: _is_nonnegative(x) and x > 0, "a finite number > 0")
_NONNEGATIVE = (_is_nonnegative, "a finite number >= 0")

#: (test, requirement) of each experiment option but the start vectors,
#: which ``_parse_support`` reads.
_OPTION_RULES = {
    "n_steps": _COUNT, "n_vectors": _COUNT, "n_starts": _COUNT,
    "tol": _POSITIVE, "ou_tail_tol": _POSITIVE, "initial_horizon": _POSITIVE,
    "t_past": _POSITIVE, "radius": _NONNEGATIVE, "d_radius": _NONNEGATIVE,
    "equilibrium_tol": (lambda x: x is None or _POSITIVE[0](x), "null or a finite number > 0"),
    "horizons": (lambda x: _is_times(x) and len(x) > 0,
                 "a non-empty list of finite numbers >= 0"),
    "check_times": (_is_times, "a list of finite numbers >= 0"),
}

#: Top-level keys; the object-valued ones are the sections.
_TOP_LEVEL_KEYS = frozenset(_DEFAULTS) | {"hurst_reference_mode"}
_SECTIONS = ("lattice", "nonlinearity", "solver", "grid", "experiment")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated bundle of everything a run needs."""

    hurst: HurstParameter
    params: LatticeParams
    spec: NonlinearitySpec
    solver: sv.SolverConfig
    grid: TimeGrid
    experiment: str
    options: dict
    starts: dict  # the experiment's start vectors (u0, w0) as LatticeVectors
    master_seed: int
    output_dir: str
    effective: dict  # defaults-filled plain dict, echoed and hashed

    def config_hash(self) -> str:
        payload = json.dumps(self.effective, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class RunManifest:
    """What a run produced: artifacts, per-check verdicts, timings."""

    experiment: str
    config_hash: str
    config: dict
    site_seeds: dict = dc_field(default_factory=dict)
    artifacts: list = dc_field(default_factory=list)
    checks: dict = dc_field(default_factory=dict)
    numbers: dict = dc_field(default_factory=dict)
    timings: dict = dc_field(default_factory=dict)
    error: str | None = None

    @property
    def all_passed(self) -> bool:
        return self.error is None and all(self.checks.values())

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "config_hash": self.config_hash,
            "config": self.config,
            "site_seeds": {str(k): list(v) for k, v in self.site_seeds.items()},
            "artifacts": self.artifacts,
            "checks": self.checks,
            "numbers": self.numbers,
            "timings_s": self.timings,
            "error": self.error,
            "all_passed": self.all_passed,
        }
        finite = json.loads(json.dumps(payload), parse_constant=lambda _: None)  # NaN, inf -> null
        return json.dumps(finite, indent=2, sort_keys=True, allow_nan=False)


def _experiment_defaults(name) -> dict | None:
    """Option defaults of experiment ``name``; None for any other value, unhashable too."""
    return _EXPERIMENT_DEFAULTS.get(name) if isinstance(name, str) else None


def _merge_defaults(raw: dict) -> dict:
    eff = json.loads(json.dumps(_DEFAULTS))  # deep copy
    for key, val in raw.items():
        if isinstance(val, dict) and isinstance(eff.get(key), dict):
            eff[key].update(val)
        else:
            eff[key] = val
    defaults = _experiment_defaults(eff["experiment"]["name"])
    if defaults is not None:
        merged = dict(defaults)
        merged.update(eff["experiment"])
        eff["experiment"] = merged
    return eff


def _parse_support(raw, half_width: int, label: str, violations: list[str]):
    entries = {}
    if not isinstance(raw, dict):
        violations.append(f"{label}: expected an object of site -> value")
        return None
    for key, val in raw.items():
        try:
            i = int(key)
        except ValueError:
            violations.append(f"{label}: site key {key!r} is not an integer")
            continue
        if abs(i) > half_width:
            violations.append(f"{label}: site {i} outside [-{half_width}, {half_width}]")
            continue
        try:
            entries[i] = float(val)
            if not np.isfinite(entries[i]):
                raise ValueError
        except (TypeError, ValueError):
            violations.append(f"{label}: value at site {i} is not a finite number")
    return entries


def _key_violations(eff: dict) -> list[str]:
    """Keys of a defaults-filled config that no part of the run reads."""
    found = [f"{key}: unknown key" for key in eff if key not in _TOP_LEVEL_KEYS]
    defaults = _experiment_defaults(eff["experiment"]["name"])
    for section in _SECTIONS:
        if section != "experiment":
            known = set(_DEFAULTS[section])
        elif defaults is not None:
            known = {"name", *defaults}
        else:
            continue  # a bad experiment.name is reported on its own
        found += [f"{section}.{key}: unknown key (known: {', '.join(sorted(known))})"
                  for key in eff[section] if key not in known]
    return found


def validate_config(raw: dict) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig`, reporting every violation at once.

    Unknown keys are violations too, so a typo never falls back to a default.
    """
    violations = [f"{key}: expected an object" for key in _SECTIONS
                  if key in raw and not isinstance(raw[key], dict)]
    eff = _merge_defaults({k: v for k, v in raw.items()
                           if k not in _SECTIONS or isinstance(v, dict)})
    violations += _key_violations(eff)

    hurst = None
    reference_mode = eff.get("hurst_reference_mode", False)
    if not isinstance(reference_mode, bool):
        violations.append(f"hurst_reference_mode: must be true or false, got {reference_mode!r}")
    try:
        hurst = HurstParameter(float(eff["hurst"]), reference_mode=reference_mode is True)
    except (TypeError, ValueError) as exc:
        violations.append(f"hurst: {exc}")

    lat = eff["lattice"]
    half_width = lat["half_width"]
    if not (_is_int(half_width) and half_width >= 1):
        violations.append(f"lattice.half_width: must be an integer >= 1, got {half_width!r}")
        half_width = 1
    for name in ("coupling", "damping"):
        try:
            if not float(lat[name]) > 0:
                violations.append(f"lattice.{name}: must be a positive constant")
        except (TypeError, ValueError):
            violations.append(f"lattice.{name}: must be a positive number")
    boundary = None
    try:
        boundary = Boundary(lat["boundary"])
    except ValueError:
        violations.append(
            f"lattice.boundary: {lat['boundary']!r} not in {[b.value for b in Boundary]}"
        )
    forcing = _parse_support(lat["forcing"], half_width, "lattice.forcing", violations)
    noise_amp = _parse_support(lat["noise_amp"], half_width, "lattice.noise_amp", violations)

    spec = None
    nl = eff["nonlinearity"]
    kind = nl["kind"]
    try:
        if kind == "linear":
            spec = NonlinearitySpec.linear(float(nl["a"]))
        elif kind == "cubic":
            spec = NonlinearitySpec.cubic(float(nl["a"]), float(nl["b"]))
        else:
            violations.append(
                f"nonlinearity.kind: {kind!r} not in ['linear', 'cubic'] "
                "(custom drifts are API-only)"
            )
    except ValueError as exc:
        violations.append(f"nonlinearity: {exc}")

    solver_cfg = None
    sol = eff["solver"]
    try:
        solver_cfg = sv.SolverConfig(
            dt=float(sol["dt"]), t_end=float(sol["t_end"]),
            scheme=sv.Scheme(sol["scheme"]),
        )
    except (TypeError, ValueError) as exc:
        violations.append(f"solver: {exc}")

    grid = None
    gr = eff["grid"]
    try:
        dt = float(gr["dt"])
        if not dt > 0:
            raise ValueError("grid.dt must be positive")
        t_past = float(gr["t_past"])
        t_future = float(gr["t_future"])
        if t_past < 0 or t_future < 0:
            raise ValueError("grid.t_past and grid.t_future must be >= 0")
        n_past = round(t_past / dt)
        n_future = round(t_future / dt)
        if abs(t_past - n_past * dt) > 1e-9 * dt or abs(t_future - n_future * dt) > 1e-9 * dt:
            raise ValueError("grid window must be a whole number of steps")
        if n_past + n_future < 1:
            raise ValueError("grid window must contain at least one step")
        grid = TimeGrid(dt=dt, n_steps=n_past + n_future, i_start=-n_past)
    except (TypeError, ValueError) as exc:
        violations.append(f"grid: {exc}")

    options = eff["experiment"]
    experiment = options["name"]
    if experiment not in EXPERIMENTS:
        violations.append(f"experiment.name: {experiment!r} not in {list(EXPERIMENTS)}")
    known = _experiment_defaults(experiment) or {}
    starts = {key: _parse_support(options[key], half_width, f"experiment.{key}", violations)
              for key in ("u0", "w0") if key in known}
    for key in known:
        test, requirement = _OPTION_RULES.get(key, (None, None))
        if test is not None and not test(options[key]):
            violations.append(f"experiment.{key}: must be {requirement}, got {options[key]!r}")

    master_seed = eff["master_seed"]
    if not (_is_int(master_seed) and master_seed >= 0):
        violations.append(f"master_seed: must be an integer >= 0, got {master_seed!r}")

    if solver_cfg is not None and grid is not None:
        try:
            solver_cfg.refinement(grid.dt)
        except ValueError as exc:
            violations.append(f"solver.dt: {exc}")

    if violations:
        raise ConfigError(violations)

    params = LatticeParams(
        coupling=float(lat["coupling"]),
        damping=float(lat["damping"]),
        forcing=LatticeVector.from_support(half_width, forcing),
        noise_amp=LatticeVector.from_support(half_width, noise_amp),
        half_width=half_width,
        boundary=boundary,
    )
    return ExperimentConfig(
        hurst=hurst,
        params=params,
        spec=spec,
        solver=solver_cfg,
        grid=grid,
        experiment=experiment,
        options=dict(options),
        starts={key: LatticeVector.from_support(half_width, entries)
                for key, entries in starts.items()},
        master_seed=master_seed,
        output_dir=str(eff["output_dir"]),
        effective=eff,
    )


def _read_json(path: str | Path) -> dict:
    """The top-level JSON object of a config or manifest file."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc.strerror or exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top-level JSON value must be an object"])
    return raw


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config file.

    Parse errors carry line/column; validation reports the full list of
    violations, not just the first.
    """
    return validate_config(_read_json(path))


# ---------------------------------------------------------------------------
# CSV output
#
# Every table goes through one writer.  It streams blocks of rows, each
# block one ``template % values`` call: ``%.17g`` (an exact float64
# round-trip) for float columns and ``%d`` for integer columns.


def _write_csv(path: Path, header: list[str], blocks) -> str:
    """Write the header line, then each ``(template, values)`` block."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for template, values in blocks:
            fh.write(template % values)
    return str(path)


def _columns(*columns) -> list[tuple[str, tuple]]:
    """Equal-length integer or float columns as one block of rows."""
    arrays = [np.asarray(c) for c in columns]
    cells = []
    for a in arrays:
        if a.dtype.kind not in "iuf":
            raise TypeError(f"CSV column of dtype {a.dtype}: expected integers or floats")
        cells.append("%.17g" if a.dtype.kind == "f" else "%d")
    rows = list(zip(*(a.tolist() for a in arrays), strict=True))
    return [((",".join(cells) + "\n") * len(rows), tuple(v for row in rows for v in row))]


def _node_blocks(times: np.ndarray, states: np.ndarray, half_width: int):
    """Long-format ``t,i,value`` rows, one block per node, sites in order.

    Each node's ``t`` is formatted once and the site indices once per
    table, so only the values are formatted per row.
    """
    cells = [",%d,%%.17g\n" % i for i in range(-half_width, half_width + 1)]
    for t, row in zip(times.tolist(), states, strict=True):
        head = "%.17g" % t
        yield head + head.join(cells), tuple(row.tolist())


def emit_plot_series(report, out_dir: str | Path, stem: str) -> list[str]:
    """Write the (x, y) series a report type supports; returns file paths."""
    out = Path(out_dir)
    if isinstance(report, at.ContractionReport):
        keep = report.distances > 0.0
        d = report.distances[keep]
        return [_write_csv(out / f"{stem}_log_distance.csv",
                           ["t", "distance", "log_distance"],
                           _columns(report.times[keep], d, np.log(d)))]
    if isinstance(report, at.PullbackReport):
        header = ["horizon", "diameter", "bound"]
        columns = [report.horizons, report.diameters, report.bounds]
        if report.hausdorff is not None:
            header.append("hausdorff_to_equilibrium")
            columns.append(report.hausdorff)
        return [_write_csv(out / f"{stem}_diameters.csv", header, _columns(*columns))]
    if isinstance(report, at.StationarityReport):
        return [_write_csv(out / f"{stem}_residuals.csv", ["t", "residual"],
                           _columns(report.times, report.residuals))]
    if isinstance(report, at.AbsorptionReport):
        bound = np.full(report.horizons.shape, float(report.bound))
        return [_write_csv(out / f"{stem}_entry.csv",
                           ["horizon", "max_norm", "bound", "margin"],
                           _columns(report.horizons, report.max_norms, bound, report.margins))]
    raise TypeError(f"no plot series defined for {type(report).__name__}")


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
    manifest.artifacts.append(_write_csv(
        out / "fbm_path.csv", ["t", "value"],
        _columns(TimeGrid(cfg.grid.dt, n_steps).times(), path),
    ))
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
    manifest.artifacts.append(_write_csv(
        out / "trajectory.csv", ["t", "i", "u_i"],
        _node_blocks(traj.grid.times(), traj.values, cfg.params.half_width),
    ))
    manifest.checks["finite"] = bool(np.isfinite(traj.values).all())
    manifest.numbers["final_norm"] = float(np.linalg.norm(traj.values[-1]))


def _run_ou(cfg, out: Path, manifest: RunManifest):
    field = _build_field(cfg, manifest)
    ou = nz.stationary_ou(cfg.params.damping, field)
    times = ou.grid.times()
    bound = 4.0 * ou.rho * (1.0 + np.abs(times)) ** 2
    manifest.artifacts.append(_write_csv(
        out / "noise_field.csv", ["t", "i", "value"],
        _node_blocks(field.grid.times(), field.w_matrix, cfg.params.half_width),
    ))
    manifest.artifacts.append(_write_csv(
        out / "ou_field.csv", ["t", "i", "value"],
        _node_blocks(times, ou.values, cfg.params.half_width),
    ))
    manifest.checks["growth_bound"] = bool((ou.norms() <= bound + 1e-12).all())
    manifest.numbers["rho"] = ou.rho
    manifest.numbers["past_horizon"] = ou.past_horizon
    manifest.numbers["tail_bound"] = ou.tail_bound


def _run_contraction(cfg, out: Path, manifest: RunManifest):
    field = _build_field(cfg, manifest)
    rep = at.contraction_experiment(cfg.starts["u0"], cfg.starts["w0"], field,
                                    cfg.params, cfg.spec, cfg.solver)
    manifest.artifacts.extend(emit_plot_series(rep, out, "contraction"))
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
    manifest.artifacts.extend(emit_plot_series(rep, out, "pullback"))
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
    manifest.artifacts.append(_write_csv(
        out / "equilibrium.csv", ["i", "value"],
        _columns(sites, eq.u0.values),
    ))
    times = [float(t) for t in opts["check_times"]]
    if times:
        rep = at.forward_stationarity_check(
            eq, field, cfg.params, cfg.spec, cfg.solver, times
        )
        manifest.artifacts.extend(emit_plot_series(rep, out, "stationarity"))
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
    manifest.artifacts.extend(emit_plot_series(rep, out, "absorption"))
    manifest.checks["absorbed"] = rep.passed
    manifest.checks["radius_at_least_one"] = rep.radius.value >= 1.0
    manifest.numbers["absorbing_radius"] = rep.radius.value
    manifest.numbers["radius_tail_bound"] = rep.radius.tail_bound
    manifest.numbers["bound"] = rep.bound
    if rep.entry_horizon is not None:
        manifest.numbers["entry_horizon"] = rep.entry_horizon
    # radius growth with quadrature depth, for plotting
    rows = []
    for frac in (0.25, 0.5, 1.0):
        tp = max(field.grid.dt, round(frac * t_past / field.grid.dt) * field.grid.dt)
        r = at.absorbing_radius(field, cfg.params, cfg.spec, cfg.params.damping,
                                tp, float(opts["ou_tail_tol"]))
        rows.append((float(tp), float(r.value), float(r.tail_bound)))
    manifest.artifacts.append(_write_csv(
        out / "absorbing_radius.csv", ["t_past", "radius", "tail_bound"],
        _columns(*zip(*rows)),
    ))


_RUNNERS = {
    "sample-fbm": _run_fbm_sample,
    "verify-operators": _run_verify_operators,
    "simulate": _run_simulate,
    "ou": _run_ou,
    "contraction": _run_contraction,
    "pullback": _run_pullback,
    "equilibrium": _run_equilibrium,
    "absorb": _run_absorb,
}


def run(cfg: ExperimentConfig) -> RunManifest:
    """Execute the configured experiment; never raises on module errors.

    Failures land in ``manifest.error`` with no checks passed, so the
    process exit code stays honest.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        experiment=cfg.experiment,
        config_hash=cfg.config_hash(),
        config=cfg.effective,
    )
    t0 = time.perf_counter()
    try:
        _RUNNERS[cfg.experiment](cfg, out, manifest)
    except (FracLatticeError, ValueError) as exc:
        manifest.error = f"{type(exc).__name__}: {exc}"
    manifest.timings["total"] = time.perf_counter() - t0
    manifest_path = out / "manifest.json"
    manifest_path.write_text(manifest.to_json() + "\n")
    manifest.artifacts.append(str(manifest_path))
    return manifest


# ---------------------------------------------------------------------------
# argparse front end


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output directory (overrides env and config)")
    p.add_argument("--seed", type=int, help="master seed override")


def _cfg_from_args(args, experiment: str) -> ExperimentConfig:
    raw = _read_json(args.config) if args.config else {}
    options = raw.setdefault("experiment", {})
    if isinstance(options, dict):  # otherwise validation reports it
        options["name"] = experiment
        if getattr(args, "steps", None) is not None:
            options["n_steps"] = args.steps
    if getattr(args, "h", None) is not None:
        raw["hurst"] = args.h
    if getattr(args, "dt", None) is not None:
        raw.setdefault("grid", {})["dt"] = args.dt
        raw.setdefault("solver", {})["dt"] = args.dt
    if getattr(args, "t_past", None) is not None:
        raw.setdefault("grid", {})["t_past"] = args.t_past
    if getattr(args, "lam", None) is not None:
        raw.setdefault("lattice", {})["damping"] = args.lam
    if args.seed is not None:
        raw["master_seed"] = args.seed
    outdir = args.out or os.environ.get(ENV_OUTDIR)
    if outdir:
        raw["output_dir"] = outdir
    return validate_config(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fraclattice",
        description="Simulate a damped coupled lattice driven by long-memory "
                    "fractional noise and verify its contraction, pullback, "
                    "and absorption behavior.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sample-fbm", help="write one fractional path as CSV")
    p.add_argument("--h", type=float, help="Hurst exponent in (1/2, 1)")
    p.add_argument("--dt", type=float)
    p.add_argument("--steps", type=int)
    _add_common(p)

    p = subs.add_parser("ou", help="stationary damped field and its growth check")
    p.add_argument("--lambda", dest="lam", type=float, help="damping rate")
    p.add_argument("--h", type=float)
    p.add_argument("--t-past", dest="t_past", type=float)
    p.add_argument("--dt", type=float)
    _add_common(p)

    for name, descr in (
        ("verify-operators", "difference-operator identity checks"),
        ("simulate", "integrate one trajectory and dump it"),
        ("contraction", "matched-noise pairwise contraction"),
        ("pullback", "ensemble pullback shrinkage"),
        ("equilibrium", "random equilibrium via horizon doubling"),
        ("absorb", "absorbing radius and pullback absorption"),
    ):
        p = subs.add_parser(name, help=descr)
        _add_common(p)

    p = subs.add_parser("report", help="summarize a run manifest")
    p.add_argument("--manifest", required=True)

    args = parser.parse_args(argv)

    if args.command == "report":
        try:
            data = _read_json(args.manifest)
            bad = [k for k in ("experiment", "config_hash") if not isinstance(data.get(k), str)]
            bad += [k for k in ("checks", "numbers") if not isinstance(data.get(k, {}), dict)]
            if bad:
                raise ConfigError([f"not a run manifest: {', '.join(bad)} missing or malformed"])
        except ConfigError as exc:
            print(f"report error: {exc.violations[0]}", file=sys.stderr)
            return 2
        print(f"experiment: {data['experiment']}   config {data['config_hash'][:12]}")
        for name, ok in sorted(data.get("checks", {}).items()):
            print(f"  {'PASS' if ok else 'FAIL'}  {name}")
        for name, val in sorted(data.get("numbers", {}).items()):
            print(f"        {name} = {val:.6g}" if isinstance(val, float)
                  else f"        {name} = {val}")
        if data.get("error"):
            print(f"  ERROR {data['error']}")
        return 0 if data.get("all_passed") else 1

    try:
        cfg = _cfg_from_args(args, args.command)
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
