"""Long-term behavior experiments: contraction, pullback, absorption.

With a one-sided dissipative drift every pair of solutions sharing one
noise path contracts exponentially, so the pullback limit of any bounded
start set collapses to a single random point: a unique random
equilibrium whose singleton is the random attractor.  The experiments
here measure exactly that on the truncated system:

* matched-noise pairwise contraction with a fitted log-distance slope,
* shrinkage of whole start ensembles pulled back from receding horizons,
* the equilibrium itself via horizon doubling with a Cauchy stop,
* its forward stationarity under the noise shift,
* the damped-field absorbing radius and the pullback absorption bound.

Deterministic balls of fixed radius stand in for tempered random sets;
that desk-scale surrogate is the only notion of "bounded set" used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientHorizonError
from .fbm import TimeGrid
from .lattice import LatticeParams, LatticeVector, NonlinearitySpec
from .noise import NoiseField, OUProcess, stationary_ou
from .solver import SolverConfig, _forward_row, _run_row, _step_rows, _steps

__all__ = [
    "ContractionReport",
    "PullbackReport",
    "EquilibriumEstimate",
    "StationarityReport",
    "AbsorbingRadius",
    "AbsorptionReport",
    "contraction_experiment",
    "pullback_experiment",
    "random_equilibrium",
    "forward_stationarity_check",
    "absorbing_radius",
    "absorption_check",
    "sphere_starts",
]

#: Distances below this are dropped from the slope fit (log of roundoff).
SLOPE_FIT_FLOOR = 1e-12

#: Discretization cushion factor in pointwise contraction certificates.
CERT_CUSHION = 5.0

#: Relative slack on the guaranteed rate in the contraction slope test.
SLOPE_TOL_FACTOR = 0.05

#: Forward-stationarity residuals must stay below this many equilibrium tols.
STATIONARITY_TOL_FACTOR = 5.0

#: First horizon of the doubling search of :func:`random_equilibrium` by default.
INITIAL_HORIZON = 1.0


@dataclass(frozen=True)
class ContractionReport:
    """Pairwise distance decay of two matched-noise solutions."""

    times: np.ndarray
    distances: np.ndarray
    fitted_slope: float
    rate: float
    slope_ok: bool
    pointwise_ok: bool
    degenerate: bool
    passed: bool


def contraction_experiment(
    u0: LatticeVector,
    w0: LatticeVector,
    field: NoiseField,
    params: LatticeParams,
    spec: NonlinearitySpec,
    config: SolverConfig,
) -> ContractionReport:
    """Integrate two starts under one noise path and fit the decay.

    Passes when the fitted slope of log distance is at most
    -damping * (1 - SLOPE_TOL_FACTOR) and the pointwise certificate
    |u(t) - w(t)| <= |u0 - w0| e^(-damping t) (1 + 5 dt) holds on every
    node.  Identical starts produce an identically zero distance; the
    report is then flagged degenerate (no slope can be fitted) and does
    not pass.
    """
    lam = params.damping
    # one (2, d) batch; each row is the single run bit for bit
    states = _step_rows([_forward_row(field.grid, config.t_end, config)], field,
                        np.stack([u0.values, w0.values]), params, spec, config, collect=True)
    diff = np.subtract(states[:, 0], states[:, 1], out=states[:, 0])
    distances = np.linalg.norm(diff, axis=1)
    times = TimeGrid(dt=config.dt, n_steps=len(distances) - 1).times()
    d0 = float(np.linalg.norm(u0.values - w0.values))
    window = distances > SLOPE_FIT_FLOOR
    if window.sum() >= 2:
        slope = float(np.polyfit(times[window], np.log(distances[window]), 1)[0])
    else:
        slope = float("nan")
    slope_ok = bool(slope <= -lam * (1.0 - SLOPE_TOL_FACTOR))
    envelope = d0 * np.exp(-lam * times) * (1.0 + CERT_CUSHION * config.dt)
    pointwise_ok = bool((distances <= envelope).all())
    return ContractionReport(
        times=times, distances=distances, fitted_slope=slope, rate=lam,
        slope_ok=slope_ok, pointwise_ok=pointwise_ok, degenerate=d0 == 0.0,
        passed=slope_ok and pointwise_ok,
    )


def sphere_starts(
    radius: float, n_starts: int, half_width: int, seed
) -> np.ndarray:
    """n_starts points on the radius-``radius`` sphere, rows of shape d."""
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    rng = np.random.default_rng(seed)
    d = 2 * half_width + 1
    pts = rng.standard_normal((n_starts, d))
    if radius == 0.0:
        return np.zeros((n_starts, d))
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    return radius * pts / norms


def _ladder_rows(grid: TimeGrid, horizons, config: SolverConfig) -> list:
    """The ``_run_row`` of each horizon T's pullback over [-T, 0], in the order of
    ``horizons``; each distinct horizon is checked once, smallest first."""
    runs = {t: _run_row(grid, -t, t, config) for t in sorted({float(t) for t in horizons})}
    return [runs[float(t)] for t in horizons]


def _pullback_ladder(
    horizons, field: NoiseField, starts: LatticeVector | np.ndarray,
    params: LatticeParams, spec: NonlinearitySpec, config: SolverConfig,
) -> np.ndarray:
    """phi(T, shift_(-T) field, starts) for every T in ``horizons``, in their order.

    The ``_step_rows`` batch of the horizons' runs steps from -max T to 0:
    horizon T's run joins at -T and reads its own noise
    (omega(s) - omega(-T)) sigma, so it equals
    ``cocycle_map(T, shift_noise(field, -T), starts, ...)`` bit for bit
    (``shift_noise`` is the field shift of ``tests/oracles.py``).  Every
    horizon is checked before any step, smallest first, as its single run
    checks it; a blow-up reports its time from -max T, and no horizons
    raise ValueError.  Returns shape ``(len(horizons),) + starts' shape``.
    """
    if not len(horizons):
        raise ValueError("horizons must not be empty")
    return _step_rows(_ladder_rows(field.grid, horizons, config), field, starts, params, spec,
                      config)


def _diameter(points: np.ndarray) -> float:
    """The largest distance between two rows of ``points``, one row against all at a time."""
    return max(float(np.linalg.norm(points - p, axis=1).max()) for p in points)


@dataclass(frozen=True)
class PullbackReport:
    """Ensemble shrinkage under pullback at receding horizons."""

    radius: float
    horizons: np.ndarray
    diameters: np.ndarray
    bounds: np.ndarray
    start_diameter: float
    hausdorff: np.ndarray | None
    passed: bool


def pullback_experiment(
    radius: float,
    n_starts: int,
    field: NoiseField,
    params: LatticeParams,
    spec: NonlinearitySpec,
    config: SolverConfig,
    horizons,
    seed=0,
    equilibrium: LatticeVector | None = None,
) -> PullbackReport:
    """Pull a sphere of starts back from each horizon and measure it at 0.

    For horizon T the ensemble integrates over [0, T] against the noise
    shifted T into the past, so every endpoint is an observation at
    absolute time zero; all horizons step as one staggered batch.  Passes
    when each ensemble diameter is at most
    diameter(0) * e^(-damping T) * (1 + 5 dt T).  When an equilibrium
    estimate is supplied, the one-sided Hausdorff distance of each
    endpoint cloud to it is reported as well.  No ``horizons`` raise ValueError.
    """
    horizons = np.asarray(sorted(horizons), dtype=float)
    starts = sphere_starts(radius, n_starts, params.half_width, seed)
    d0 = _diameter(starts)
    lam = params.damping
    ends = _pullback_ladder(horizons, field, starts, params, spec, config)
    diameters = np.array([_diameter(e) for e in ends], dtype=float)
    hausdorff = None
    if equilibrium is not None:
        hausdorff = np.array([
            float(np.linalg.norm(e - equilibrium.values[None, :], axis=1).max())
            for e in ends
        ], dtype=float)
    bounds = d0 * np.exp(-lam * horizons) * (1.0 + CERT_CUSHION * config.dt * horizons)
    passed = bool((diameters <= bounds).all())
    return PullbackReport(
        radius=radius, horizons=horizons, diameters=diameters, bounds=bounds,
        start_diameter=d0, hausdorff=hausdorff, passed=passed,
    )


@dataclass(frozen=True)
class EquilibriumEstimate:
    """Pullback limit point with the horizon bookkeeping that produced it."""

    u0: LatticeVector
    horizon: float
    cauchy_gap: float
    start_gap: float
    tol: float


def _doubling_horizons(grid: TimeGrid, initial_horizon: float) -> list[float]:
    """The horizons initial_horizon * 2^k, k >= 0, that the sampled past of ``grid`` holds.

    Raises ``InsufficientHorizonError`` unless it holds the first two.
    """
    available = -grid.i_start * grid.dt  # 0.0, not -0.0, for a grid with no past
    t = float(initial_horizon)
    if 2.0 * t > available:
        raise InsufficientHorizonError(
            f"field past {available:.3g} cannot support initial horizon {t:.3g}"
        )
    horizons = [t]
    while 2.0 * horizons[-1] <= available:
        horizons.append(2.0 * horizons[-1])
    return horizons


def random_equilibrium(
    field: NoiseField,
    params: LatticeParams,
    spec: NonlinearitySpec,
    config: SolverConfig,
    tol: float = 1e-6,
    start: LatticeVector | None = None,
    verify_start: LatticeVector | None = None,
    initial_horizon: float = INITIAL_HORIZON,
) -> EquilibriumEstimate:
    """Estimate the unique random equilibrium by horizon doubling.

    The pullback point from horizon T is compared against horizon 2T and
    T keeps doubling until the gap drops below ``tol``; a second start
    must then land within 2 tol, certifying that the limit does not
    depend on the start.  The start and the second start are pulled back
    from every doubling horizon the sampled past supports,
    ``initial_horizon * 2^k <= -field.grid.t_start``, as one staggered
    ladder, and the stop then reads the endpoints in order.  So the search
    costs one step per node of the deepest supported horizon, wherever it
    stops, and a blow-up at any supported horizon raises.  Each endpoint
    equals its single run bit for bit, so the result is that of pulling
    back one horizon after another.  The default second start is a
    radius-10 vector spread across all sites (site-concentrated mass that
    large would need a much smaller explicit step).  Raises
    ``InsufficientHorizonError`` when no supported horizon passes both
    checks; the message names the check that failed at the deepest one.
    """
    if not initial_horizon > 0:
        raise ValueError(f"initial_horizon must be > 0, got {initial_horizon!r}")
    if start is None:
        start = LatticeVector.zeros(params.half_width)
    if verify_start is None:
        signs = np.where(np.arange(params.n_sites) % 2 == 0, 1.0, -1.0)
        verify_start = LatticeVector(10.0 * signs / np.sqrt(params.n_sites))
    available = -field.grid.t_start
    horizons = _doubling_horizons(field.grid, initial_horizon)
    if start.half_width != verify_start.half_width:
        raise ValueError(f"start and verify_start widths differ: {start.values.size} and "
                         f"{verify_start.values.size} sites")
    pair = np.stack([start.values, verify_start.values])
    ends = _pullback_ladder(horizons, field, pair, params, spec, config)
    for k in range(1, len(horizons)):
        cur, check = ends[k]
        gap = float(np.linalg.norm(cur - ends[k - 1, 0]))
        if gap <= tol:
            start_gap = float(np.linalg.norm(check - cur))
            if start_gap <= 2.0 * tol:
                return EquilibriumEstimate(
                    u0=LatticeVector(cur), horizon=horizons[k], cauchy_gap=gap,
                    start_gap=start_gap, tol=tol,
                )
    failed = (f"start gap {start_gap:.3e} > 2 tol {2 * tol:.1e}" if gap <= tol
              else f"gap {gap:.3e} > tol {tol:.1e}")
    raise InsufficientHorizonError(
        f"{failed} at horizon {horizons[-1]:.3g} and the sampled past "
        f"{available:.3g} cannot support doubling"
    )


@dataclass(frozen=True)
class StationarityReport:
    times: np.ndarray
    residuals: np.ndarray
    threshold: float
    passed: bool


def _stationarity_rows(grid: TimeGrid, config: SolverConfig, times, horizon: float):
    """Every check of :func:`forward_stationarity_check` before its first step: the
    ``_run_row`` of each time t's pullback over [t - horizon, t], which reads the noise
    of theta_(t - horizon) omega, and the solver steps to each sorted time."""
    rows = []
    for t in times:  # the checks of time t on the grid, then of its pullback
        grid.index_of(float(t))
        rows.append(_run_row(grid, float(t) - horizon, horizon, config))
    return [_steps(float(t), config) for t in times], rows


def forward_stationarity_check(
    equilibrium: EquilibriumEstimate,
    field: NoiseField,
    params: LatticeParams,
    spec: NonlinearitySpec,
    config: SolverConfig,
    times,
) -> StationarityReport:
    """Check phi(t, field, eq) against the equilibrium of the shifted noise.

    u*(theta_t omega) is recomputed at the estimate's own horizon H as the
    pullback phi(H, theta_(t - H) omega, 0), so the residual mixes pullback
    truncation with solver error; it must stay below
    STATIONARITY_TOL_FACTOR * tol.  Every forward leg is read off one run to
    the last time, and the pullbacks step as one batch, each row equal to
    ``cocycle_map(H, shift_noise(field, t - H), 0)`` bit for bit, with the
    field shift of ``tests/oracles.py``.  No ``times`` raise ValueError.
    """
    if not len(times):
        raise ValueError("times must not be empty")
    times = np.asarray(sorted(times), dtype=float)
    steps, rows = _stationarity_rows(field.grid, config, times, equilibrium.horizon)
    legs = _step_rows([_run_row(field.grid, 0.0, float(times[-1]), config)], field,
                      equilibrium.u0, params, spec, config, collect=True)
    shifted_eqs = _step_rows(rows, field, LatticeVector.zeros(params.half_width),
                             params, spec, config)
    residuals = np.empty(times.size)
    for j, n in enumerate(steps):
        residuals[j] = float(np.linalg.norm(legs[n] - shifted_eqs[j]))
    threshold = STATIONARITY_TOL_FACTOR * equilibrium.tol
    return StationarityReport(
        times=times, residuals=residuals, threshold=threshold,
        passed=bool((residuals <= threshold).all()),
    )


@dataclass(frozen=True)
class AbsorbingRadius:
    """1 + int_(-t_past)^0 e^(lam s) |f(ou(s))| ds with its truncation bound."""

    value: float
    tail_bound: float


def _past_window(grid: TimeGrid, t_past: float) -> TimeGrid:
    """The grid of [-t_past, 0]; raises unless it starts on ``grid``."""
    steps_back = grid.steps_of(t_past)
    if steps_back < 1:
        raise ValueError("t_past must be at least one grid step")
    if -steps_back < grid.i_start:
        raise InsufficientHorizonError(
            f"t_past {t_past:.3g} exceeds the sampled past {-grid.t_start:.3g}"
        )
    return TimeGrid(dt=grid.dt, n_steps=steps_back, i_start=-steps_back)


def absorbing_radius(ou: OUProcess, spec: NonlinearitySpec, t_past: float) -> AbsorbingRadius:
    """Absorbing-ball radius 1 + int_(-t_past)^0 e^(lam s) |f(ou(s))| ds.

    Reads the rows of the stationary damped field ``ou`` on [-t_past, 0],
    which its grid must cover, with lam = ``ou.lam``.  Each row comes from
    the full sampled past, so ``t_past`` only truncates the quadrature and
    deepening it can never shrink the value.  The neglected tail is bounded
    through the growth claim |f(x)| <= K (1 + |x|^p) and ``ou.growth_bound``.
    """
    window = _past_window(ou.grid, t_past)
    k0 = ou.grid.index_of(0.0)  # a grid that stops before 0 does not cover the window
    lam = ou.lam
    f_norms = np.linalg.norm(spec.eval_array(ou.values[k0 - window.n_steps : k0 + 1]), axis=1)
    value = 1.0 + float(np.trapezoid(np.exp(lam * window.times()) * f_norms, dx=window.dt))
    # tail of the radius integral, bounded via the growth claim
    r = np.linspace(t_past, t_past + 80.0 / lam, 4001)
    tail_integrand = np.exp(-lam * r) * spec.growth_coef * (
        1.0 + ou.growth_bound(r) ** spec.growth_power
    )
    return AbsorbingRadius(value=value, tail_bound=float(np.trapezoid(tail_integrand, r)))


@dataclass(frozen=True)
class AbsorptionReport:
    """Entry-time scan for the pullback absorption bound."""

    horizons: np.ndarray
    max_norms: np.ndarray
    bound: float
    margins: np.ndarray
    entry_horizon: float | None
    radius: AbsorbingRadius
    ou: OUProcess
    passed: bool


def absorption_check(
    d_radius: float,
    field: NoiseField,
    params: LatticeParams,
    spec: NonlinearitySpec,
    config: SolverConfig,
    horizons,
    n_starts: int = 8,
    seed=0,
    t_past: float = 10.0,
    ou_tail_tol: float = 1e-6,
) -> AbsorptionReport:
    """Scan horizons for |pullback endpoint| <= |ou(0)| + absorbing radius.

    The ball's centre ou(0) and radius both read one stationary damped
    field, swept once on [-t_past, 0] and returned as the report's ``ou``.
    Starts live on the radius-``d_radius`` sphere.  The entry horizon is
    the smallest tested T from which the bound holds at T and at every
    larger tested horizon; the report fails when no tested horizon works
    (window too short, or a genuine violation).  No ``horizons`` raise ValueError.
    Every run is checked, as the ladder checks it, before the field is swept.
    """
    horizons = np.asarray(sorted(horizons), dtype=float)
    _ladder_rows(field.grid, horizons, config)  # the runs' checks, before the field's sweep
    window = _past_window(field.grid, t_past)
    ou = stationary_ou(params.damping, field, eval_grid=window, tail_tol=ou_tail_tol)
    radius = absorbing_radius(ou, spec, t_past)
    bound = float(np.linalg.norm(ou.at(0.0).values)) + radius.value
    starts = sphere_starts(d_radius, n_starts, params.half_width, seed)
    ends = _pullback_ladder(horizons, field, starts, params, spec, config)
    max_norms = np.array([float(np.linalg.norm(e, axis=1).max()) for e in ends], dtype=float)
    ok = max_norms <= bound
    entry = None
    for j in range(horizons.size):
        if ok[j:].all():
            entry = float(horizons[j])
            break
    return AbsorptionReport(
        horizons=horizons, max_norms=max_norms, bound=bound,
        margins=bound - max_norms, entry_horizon=entry, radius=radius, ou=ou,
        passed=entry is not None,
    )
