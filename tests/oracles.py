"""Reference implementations the test suite checks the package against.

None of these is reached by a CLI runner, a library function or a
benchmark workload; each is an independent way to compute an object the
package computes, or a probe of a claim the package makes:

* ``fgn_autocovariance`` and the dense Cholesky sampler
  ``sample_fbm_cholesky``, against the circulant fBm sampler, and the
  full-spectrum synthesis ``fgn_from_normals_full_spectrum``, against
  its half-spectrum one;
* the randomized ``probe_dissipativity`` and ``probe_growth`` of a
  drift's claimed constants, and the periodic laplacian eigenbasis
  ``laplacian_modes``;
* the field shift ``shift_noise`` and restriction ``coarsen_noise``,
  the Stieltjes quadrature ``stieltjes_exp_integral``, the damped
  field from an initial state ``ou_solution``, and the stationary field
  ``stationary_ou_dense`` and growth constant ``growth_constant_dense``
  computed over every site, the silent ones too;
* the cocycle composition check ``cocycle_check``, the spectral solution
  ``linear_oracle`` of the linear drift, and the decay envelope
  ``gronwall_envelope``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fraclattice.errors import WindowError
from fraclattice.fbm import HurstParameter, TimeGrid, as_hurst
from fraclattice.lattice import Boundary, LatticeParams, LatticeVector, NonlinearitySpec
from fraclattice.noise import (
    TAIL_TOL,
    NoiseField,
    OUProcess,
    VectorSeries,
    _forward_window,
    _ou_window,
    decayed_exp_sweep,
)
from fraclattice.solver import SolverConfig, cocycle_map

__all__ = [
    "CHOLESKY_MAX_STEPS",
    "fgn_autocovariance",
    "_fbm_covariance_matrix",
    "sample_fbm_cholesky",
    "fgn_from_normals_full_spectrum",
    "PROBE_TOL",
    "DEGENERATE_PAIR_TOL",
    "DissipativityReport",
    "GrowthReport",
    "probe_dissipativity",
    "probe_growth",
    "laplacian_modes",
    "shift_noise",
    "coarsen_noise",
    "stieltjes_exp_integral",
    "ou_solution",
    "stationary_ou_dense",
    "growth_constant_dense",
    "COCYCLE_RESIDUAL_COEF",
    "CocycleReport",
    "cocycle_check",
    "linear_oracle",
    "gronwall_envelope",
]


# ---------------------------------------------------------------------------
# fractional Brownian motion

#: Hard size guard for the dense Cholesky oracle.
CHOLESKY_MAX_STEPS = 4096


def fgn_autocovariance(k: int, h: "HurstParameter | float", dt: float = 1.0) -> float:
    """Autocovariance of step-``dt`` fBm increments at integer lag ``k``.

    gamma(k) = dt^(2H) / 2 * (|k+1|^(2H) - 2|k|^(2H) + |k-1|^(2H)).

    Positive for every lag when h > 1/2 (long-range positive correlation)
    and zero for k >= 1 at h = 1/2.
    """
    if k < 0:
        raise ValueError("lag must be >= 0")
    if not dt > 0:
        raise ValueError("dt must be positive")
    h2 = 2.0 * as_hurst(h).h
    lag = float(k)
    return 0.5 * dt**h2 * ((lag + 1.0) ** h2 - 2.0 * lag**h2 + abs(lag - 1.0) ** h2)


def _fbm_covariance_matrix(n_steps: int, h: float, dt: float) -> np.ndarray:
    t = dt * np.arange(1, n_steps + 1, dtype=float)
    h2 = 2.0 * h
    return 0.5 * (
        t[:, None] ** h2 + t[None, :] ** h2 - np.abs(t[:, None] - t[None, :]) ** h2
    )


def sample_fbm_cholesky(
    n_steps: int,
    h: "HurstParameter | float",
    dt: float,
    seed=None,
    normals: np.ndarray | None = None,
) -> np.ndarray:
    """Exact fBm path via dense Cholesky of the path covariance.

    O(n^3); intended as a cross-validation oracle, hence the
    ``CHOLESKY_MAX_STEPS`` guard.  ``normals`` injects the driving unit
    normals directly (tests), otherwise they are drawn from ``seed``.
    Returns the ``(n_steps + 1,)`` path on the nodes 0, dt, ..., exactly
    0 at t = 0.
    """
    if n_steps > CHOLESKY_MAX_STEPS:
        raise ValueError(
            f"n_steps={n_steps} exceeds Cholesky oracle guard {CHOLESKY_MAX_STEPS}"
        )
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    hurst = as_hurst(h)
    cov = _fbm_covariance_matrix(n_steps, hurst.h, dt)
    chol = np.linalg.cholesky(cov)
    if normals is None:
        normals = np.random.default_rng(seed).standard_normal(n_steps)
    else:
        normals = np.asarray(normals, dtype=float)
        if normals.shape != (n_steps,):
            raise ValueError(f"normals must have shape ({n_steps},)")
    return np.concatenate([[0.0], chol @ normals])


def fgn_from_normals_full_spectrum(z: np.ndarray, eig: np.ndarray) -> np.ndarray:
    """(rows, n) unit-step fGn from (rows, 2n) unit normals through the whole
    2n-point Hermitian spectrum and one complex FFT, keeping the real part.

    The reference of ``fbm._fgn_from_normals``, which takes one real
    inverse FFT of the half spectrum instead; the two agree to rounding.
    """
    m = z.shape[1]
    n_steps = m // 2
    spec = np.empty(z.shape, dtype=complex)
    spec[:, 0] = z[:, 0]
    spec[:, n_steps] = z[:, n_steps]
    half = (z[:, 1:n_steps] + 1j * z[:, n_steps + 1 :]) / np.sqrt(2.0)
    spec[:, 1:n_steps] = half
    spec[:, n_steps + 1 :] = np.conj(half[:, ::-1])
    spec *= np.sqrt(eig / m)
    return np.fft.fft(spec, axis=1, out=spec).real[:, :n_steps]


# ---------------------------------------------------------------------------
# randomized condition probes

#: Slack added to the claimed dissipativity constant before failing a probe.
PROBE_TOL = 1e-9

#: Pairs closer than this are skipped by the dissipativity probe.
DEGENERATE_PAIR_TOL = 1e-14


@dataclass(frozen=True)
class DissipativityReport:
    worst_quotient: float
    claimed_const: float
    n_pairs: int
    n_skipped: int
    passed: bool


@dataclass(frozen=True)
class GrowthReport:
    worst_ratio: float
    claimed_coef: float
    claimed_power: float
    n_samples: int
    passed: bool


def probe_dissipativity(
    spec: NonlinearitySpec,
    n_samples: int = 10_000,
    radius: float = 10.0,
    seed=0,
    half_width: int = 16,
) -> DissipativityReport:
    """Estimate the worst one-sided quotient <x-y, f(x)-f(y)> / |x-y|^2.

    Pairs are drawn with componentwise-uniform entries in
    [-radius, radius].  The probe passes when the worst quotient stays
    below -diss_const (plus a tiny slack); for f(s) = -a s the quotient
    is -a on every pair.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    d = 2 * half_width + 1
    worst = -np.inf
    n_skipped = 0
    x = rng.uniform(-radius, radius, size=(n_samples, d))
    y = rng.uniform(-radius, radius, size=(n_samples, d))
    diff = x - y
    norms2 = np.einsum("ij,ij->i", diff, diff)
    fdiff = spec.eval_array(x) - spec.eval_array(y)
    inner = np.einsum("ij,ij->i", diff, fdiff)
    ok = np.sqrt(norms2) >= DEGENERATE_PAIR_TOL
    n_skipped = int((~ok).sum())
    if ok.any():
        worst = float((inner[ok] / norms2[ok]).max())
    return DissipativityReport(
        worst_quotient=worst,
        claimed_const=spec.diss_const,
        n_pairs=int(ok.sum()),
        n_skipped=n_skipped,
        passed=bool(worst <= -spec.diss_const + PROBE_TOL),
    )


def probe_growth(
    spec: NonlinearitySpec,
    n_samples: int = 10_000,
    radius: float = 10.0,
    seed=0,
    half_width: int = 16,
) -> GrowthReport:
    """Check |f(x)| + max|f'(x_i)| <= growth_coef * (1 + |x|^growth_power).

    Samples componentwise-uniform vectors in [-radius, radius] and
    reports the worst ratio of left to right side divided by the bound
    with coefficient 1.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    d = 2 * half_width + 1
    x = rng.uniform(-radius, radius, size=(n_samples, d))
    fx = spec.eval_array(x)
    dfx = spec.deriv_array(x)
    lhs = np.linalg.norm(fx, axis=1) + np.abs(dfx).max(axis=1)
    rhs = 1.0 + np.linalg.norm(x, axis=1) ** spec.growth_power
    worst = float((lhs / rhs).max())
    return GrowthReport(
        worst_ratio=worst,
        claimed_coef=spec.growth_coef,
        claimed_power=spec.growth_power,
        n_samples=n_samples,
        passed=bool(worst <= spec.growth_coef * (1.0 + 1e-12)),
    )


# ---------------------------------------------------------------------------
# spectral basis (periodic boundary)


def laplacian_modes(half_width: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenbasis of the periodic lattice laplacian.

    Returns ``(eigenvalues, modes)`` where ``modes[:, k]`` is the k-th
    eigenvector.  With M = 2N + 1 sites the eigenvalues are
    4 sin^2(pi k / M), k = 0..N, each nonzero one carried by a
    cosine/sine pair; all lie in [0, 4].
    """
    m = 2 * half_width + 1
    j = np.arange(m)
    modes = np.empty((m, m))
    eigs = np.empty(m)
    modes[:, 0] = 1.0 / np.sqrt(m)
    eigs[0] = 0.0
    col = 1
    for k in range(1, half_width + 1):
        mu = 4.0 * np.sin(np.pi * k / m) ** 2
        phase = 2.0 * np.pi * k * j / m
        modes[:, col] = np.sqrt(2.0 / m) * np.cos(phase)
        eigs[col] = mu
        modes[:, col + 1] = np.sqrt(2.0 / m) * np.sin(phase)
        eigs[col + 1] = mu
        col += 2
    return eigs, modes


# ---------------------------------------------------------------------------
# noise fields and pathwise integrals


def shift_noise(field: NoiseField, t: float) -> NoiseField:
    """Advance the noise origin: output W'(s) = W(s + t) - W(t).

    Every path is re-anchored at t by one row subtraction, so
    W(tau + t) = W'(tau) + W(t) holds on shared nodes up to one floating
    subtraction per value.  The grid window translates by -t.
    """
    k = field.grid.steps_of(t)
    j = field.grid.index_of(t)  # raises WindowError if t is outside
    return NoiseField(grid=field.grid.shifted(k), sigma=field.sigma,
                      master_seed=field.master_seed, paths=field.paths - field.paths[j])


def coarsen_noise(field: NoiseField, factor: int) -> NoiseField:
    """Restrict the field to every ``factor``-th node.

    Grid restriction of fBm is again fBm with step ``factor * dt`` (the
    law is exact, no interpolation happens), which makes solver
    convergence studies run on one realization across several dt.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    g = field.grid
    if g.i_start % factor or g.n_steps % factor:
        raise WindowError("grid start and length must be divisible by factor")
    grid = TimeGrid(dt=g.dt * factor, n_steps=g.n_steps // factor,
                    i_start=g.i_start // factor)
    return NoiseField(grid=grid, sigma=field.sigma, master_seed=field.master_seed,
                      paths=field.paths[::factor])


def stieltjes_exp_integral(grid: TimeGrid, values: np.ndarray, lam: float, a: float,
                           t: float) -> float:
    """int_a^t e^(lam s) dW(s) for a scalar path W sampled as ``values`` on ``grid``.

    Uses integration by parts; the remaining ordinary integral is
    composite trapezoid on the grid, so smooth injected paths converge
    at O(dt^2).  ``a`` and ``t`` must be grid nodes with a <= t.  The
    oracle of :func:`decayed_exp_sweep`.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    if a > t:
        raise ValueError("need a <= t")
    ia = grid.index_of(a)
    it = grid.index_of(t)
    w = np.asarray(values, dtype=float)
    if w.shape != (grid.n_nodes,):
        raise ValueError(f"values shape {w.shape} does not match grid "
                         f"({grid.n_nodes} nodes)")
    if ia == it:
        return 0.0
    kernel = np.exp(lam * grid.times()[ia : it + 1]) * w[ia : it + 1]
    ordinary = np.trapezoid(kernel, dx=grid.dt)
    return float(
        np.exp(lam * t) * w[it] - np.exp(lam * a) * w[ia] - lam * ordinary
    )


def ou_solution(
    u0: LatticeVector,
    lam: float,
    field: NoiseField,
    t_end: float | None = None,
) -> VectorSeries:
    """Damped linear field from an initial state:

        u(t) = u0 e^(-lam t) + e^(-lam t) int_0^t e^(lam s) dW(s),

    evaluated on the grid nodes of [0, t_end] (field end by default).

    Only the tests call it.  It is the oracle that ``tests/test_noise.py``
    checks ``stationary_ou``'s sweep against on t >= 0, started from the
    stationary value at 0.
    """
    if u0.values.size != field.n_sites:
        raise ValueError("u0 width does not match the noise field")
    k0 = field.grid.index_of(0.0)
    k1 = field.grid.n_steps if t_end is None else field.grid.index_of(t_end)
    if k1 <= k0:
        raise WindowError("t_end must lie at least one step after 0")
    w = field.w_matrix[k0 : k1 + 1]
    sweep = decayed_exp_sweep(w, lam, field.grid.dt)
    times = np.arange(k1 - k0 + 1) * field.grid.dt
    values = np.exp(-lam * times)[:, None] * u0.values[None, :] + sweep
    return VectorSeries(grid=TimeGrid(dt=field.grid.dt, n_steps=k1 - k0), values=values)


def growth_constant_dense(field: NoiseField) -> float:
    """``noise_growth_constant`` with the norms taken over every column of ``w_matrix``."""
    norms = np.linalg.norm(field.w_matrix, axis=1)
    return float((norms / (1.0 + field.grid.times() ** 2)).max())


def stationary_ou_dense(
    lam: float,
    field: NoiseField,
    eval_grid: TimeGrid | None = None,
    tail_tol: float = TAIL_TOL,
) -> OUProcess:
    """``stationary_ou`` swept over every column of ``w_matrix``, the silent
    sites' zero columns too: the computation the noisy-column sweep replaced."""
    g = field.grid
    if eval_grid is None:
        eval_grid = _forward_window(g)
    first = _ou_window(lam, g, eval_grid, tail_tol)
    past = first * g.dt
    sweep = decayed_exp_sweep(field.w_matrix, lam, g.dt)
    rho = growth_constant_dense(field)
    return OUProcess(
        grid=eval_grid,
        values=sweep[first : first + eval_grid.n_steps + 1],
        lam=lam,
        past_horizon=past,
        tail_bound=float(np.exp(-lam * past) * 4.0 * rho * (1.0 + past) ** 2),
        rho=rho,
    )


# ---------------------------------------------------------------------------
# the solution cocycle and solver references

#: Cocycle-residual coefficient of both schemes, calibrated on pilot runs of
#: the cubic benchmark; a generous envelope, as the residual is rounding.
COCYCLE_RESIDUAL_COEF = 0.05


@dataclass(frozen=True)
class CocycleReport:
    residual: float
    bound: float
    t: float
    tau: float
    passed: bool


def cocycle_check(
    t: float,
    tau: float,
    field: NoiseField,
    u0: LatticeVector,
    params: LatticeParams,
    spec: NonlinearitySpec,
    config: SolverConfig,
) -> CocycleReport:
    """Composition residual |phi(t+tau, w, u0) - phi(tau, shift_t w, phi(t, w, u0))|.

    Both legs run at the same step; the shift reuses the sampled noise.
    Passes when the residual stays under coef * dt * (1 + |u0|) with the
    calibrated ``COCYCLE_RESIDUAL_COEF``.
    """
    if t < 0 or tau < 0:
        raise ValueError("t and tau must be >= 0")
    one_pass = cocycle_map(t + tau, field, u0, params, spec, config)
    # a zero leg is exact: phi(0) is the identity and a zero shift copies the paths
    mid = cocycle_map(t, field, u0, params, spec, config)
    two_pass = cocycle_map(tau, shift_noise(field, t), mid, params, spec, config)
    residual = float(np.linalg.norm(one_pass.values - two_pass.values))
    bound = COCYCLE_RESIDUAL_COEF * config.dt * (1.0 + u0.norm())
    return CocycleReport(residual=residual, bound=bound, t=t, tau=tau,
                         passed=bool(residual <= bound))


def linear_oracle(
    u0: LatticeVector,
    field: NoiseField,
    params: LatticeParams,
    a: float,
    grid: TimeGrid,
) -> VectorSeries:
    """Spectral solution for the linear drift f = -a id, periodic boundary.

    Each laplacian mode k obeys a scalar damped equation with rate
    r_k = lam + a + kappa mu_k whose solution is explicit up to the
    exponential-kernel Stieltjes integral of the projected noise, so the
    only error is O(dt^2) quadrature in the smooth factors.  Raises on a
    non-periodic boundary (no closed modes) by design.
    """
    if params.boundary is not Boundary.PERIODIC:
        raise ValueError("linear oracle needs the periodic boundary")
    if grid.i_start != 0:
        raise ValueError("oracle grid must start at t = 0")
    if grid.dt != field.grid.dt:
        raise ValueError("oracle grid must use the noise dt")
    mu, modes = laplacian_modes(params.half_width)
    rates = params.damping + a + params.coupling * mu
    if rates.min() <= 0:
        raise ValueError("oracle needs lam + a + kappa*mu_k > 0 for every mode")
    k0 = field.grid.index_of(0.0)
    k1 = k0 + grid.n_steps
    if k1 > field.grid.n_steps:
        raise WindowError("noise window too short for the oracle grid")
    w_hat = field.w_matrix[k0 : k1 + 1] @ modes
    d_hat = decayed_exp_sweep(w_hat, rates, grid.dt)
    times = grid.times()
    decay = np.exp(-np.outer(times, rates))
    u0_hat = modes.T @ u0.values
    g_hat = modes.T @ params.forcing.values
    coeff = decay * u0_hat[None, :] + (g_hat / rates)[None, :] * (1.0 - decay) + d_hat
    return VectorSeries(grid, coeff @ modes.T)


def gronwall_envelope(
    u0_norm: float,
    damping: float,
    c0: float,
    forcing_norm: float,
    w_sup: float,
    growth_power: float,
    times: np.ndarray,
) -> np.ndarray:
    """Decay-plus-forcing envelope for |v(t)|:

        |u0| e^(-lam t) + (c0/lam)(1 - e^(-lam t)) (|g| + S + S^p),

    with S the sup of |W| over the run.  ``c0`` is a calibration
    constant, fitted once on a pilot ensemble and then held fixed.
    """
    times = np.asarray(times, dtype=float)
    load = forcing_norm + w_sup + w_sup**growth_power
    decay = np.exp(-damping * times)
    return u0_norm * decay + (c0 / damping) * (1.0 - decay) * load
