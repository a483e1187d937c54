"""Vector-valued driving noise, pathwise Stieltjes integrals, and the OU field.

The driving noise is W(t) = sum_i sigma_i * omega_i(t) e^i with
independent per-site fractional Brownian paths omega_i, sampled only at
the sites where sigma_i is nonzero.  A field stores the unscaled paths
as one array, a column per site, and scales by sigma on read.  Per-site
seeds derive deterministically from one master seed, so a field is
reproducible from ``(params, grid, master_seed)`` alone and is unchanged
when the lattice truncation is widened.

Integrals against W never difference the rough path.  Everything is
reduced, by integration by parts, to ordinary trapezoid quadrature of
the sampled path against a smooth exponential kernel:

    int_a^t e^(l s) dW(s)
        = e^(l t) W(t) - e^(l a) W(a) - l * int_a^t e^(l s) W(s) ds.

The damped linear field driven by W (the fractional
Ornstein-Uhlenbeck field) and its stationary pullback version are built
on the same identity, evaluated by one O(n) sweep along the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientHorizonError, WindowError
from .fbm import HurstParameter, ScalarPath, TimeGrid, as_hurst, sample_fbm_array
from .lattice import LatticeParams, LatticeVector

__all__ = [
    "NoiseField",
    "VectorSeries",
    "OUProcess",
    "derive_seed",
    "build_noise_field",
    "shift_noise",
    "coarsen_noise",
    "stieltjes_exp_integral",
    "decayed_exp_sweep",
    "ou_solution",
    "stationary_ou",
    "noise_growth_constant",
]

#: Default relative tail tolerance for truncating the pullback integral.
TAIL_TOL = 1e-6

_SITE_STREAM = 101
_SITE_OFFSET = 1 << 20  # keeps site indices nonnegative in seed tuples


def derive_seed(master_seed: int, stream: int, index: int) -> np.random.SeedSequence:
    """Deterministic child seed: entropy tuple (master, stream, index)."""
    return np.random.SeedSequence((int(master_seed), int(stream), int(index)))


def _site_seeds(master_seed: int, sigma: LatticeVector) -> dict[int, tuple]:
    """Seed tuple of every site i with sigma_i != 0: (master, site stream, i)."""
    n = sigma.half_width
    return {i: (int(master_seed), _SITE_STREAM, i + _SITE_OFFSET)
            for i in (np.flatnonzero(sigma.values) - n).tolist()}


@dataclass(frozen=True)
class NoiseField:
    """The sampled noise W on a time grid.

    ``paths`` is the read-only (n_nodes, n_sites) array of the unscaled
    anchored paths omega_i: column i + N holds site i, row k is time t_k,
    the row at t = 0 is exactly zero and columns of sites with
    sigma_i = 0 are zero.  W itself is ``paths * sigma``.  An array that
    owns its data is made read-only in place rather than copied.
    """

    grid: TimeGrid
    sigma: LatticeVector
    master_seed: int
    paths: np.ndarray

    def __post_init__(self):
        paths = np.asarray(self.paths, dtype=float)
        if paths.base is not None or not paths.flags.writeable:
            paths = paths.copy()  # a view or shared array; an owned one is frozen in place
        if paths.shape != (self.grid.n_nodes, self.n_sites):
            raise ValueError(f"paths shape {paths.shape} is not (nodes, sites) = "
                             f"({self.grid.n_nodes}, {self.n_sites})")
        if not np.all(np.isfinite(paths)):
            raise ValueError("paths must be finite")
        if np.any(paths[self.grid.index_of(0.0)] != 0.0):
            raise ValueError("paths must be exactly 0 at t = 0")
        if np.any(paths[:, self.sigma.values == 0.0]):
            raise ValueError("sites with zero intensity must carry zero paths")
        paths.setflags(write=False)
        object.__setattr__(self, "paths", paths)

    @property
    def half_width(self) -> int:
        return self.sigma.half_width

    @property
    def n_sites(self) -> int:
        return self.sigma.values.size

    @property
    def seed_scheme(self) -> dict[int, tuple]:
        return _site_seeds(self.master_seed, self.sigma)

    @property
    def w_matrix(self) -> np.ndarray:
        """Dense samples, shape (n_nodes, n_sites): row k is W(t_k)."""
        return self.paths * self.sigma.values

    def at(self, t: float) -> LatticeVector:
        """The noise vector (sigma_i omega_i(t))_i at a grid time."""
        return LatticeVector(self.paths[self.grid.index_of(t)] * self.sigma.values)


def build_noise_field(
    params: LatticeParams,
    grid: TimeGrid,
    master_seed: int,
    h: "HurstParameter | float" = 0.75,
) -> NoiseField:
    """Sample independent per-site paths for every site with sigma_i != 0.

    The grid must contain t = 0 so every path can be anchored there.
    Site i draws from the seed tuple ``(master_seed, site_stream, i)``,
    which depends on neither the truncation width nor the other sites, so
    widening the truncation leaves every existing path untouched.
    """
    k0 = grid.index_of(0.0)  # anchoring requires zero on the grid
    hurst = as_hurst(h)
    paths = np.zeros((grid.n_nodes, params.n_sites))
    n = params.half_width
    for i, seed in _site_seeds(master_seed, params.noise_amp).items():
        paths[:, i + n] = sample_fbm_array(1, grid.n_steps, hurst, grid.dt,
                                           np.random.SeedSequence(seed))[0]
    paths -= paths[k0]
    return NoiseField(grid=grid, sigma=params.noise_amp, master_seed=int(master_seed),
                      paths=paths)


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


# ---------------------------------------------------------------------------
# pathwise integrals


def stieltjes_exp_integral(path: ScalarPath, lam: float, a: float, t: float) -> float:
    """int_a^t e^(lam s) dW(s) for a sampled scalar path W.

    Uses integration by parts; the remaining ordinary integral is
    composite trapezoid on the grid, so smooth injected paths converge
    at O(dt^2).  ``a`` and ``t`` must be grid nodes with a <= t.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    if a > t:
        raise ValueError("need a <= t")
    ia = path.grid.index_of(a)
    it = path.grid.index_of(t)
    w = path.values
    times = path.grid.times()
    if ia == it:
        return 0.0
    kernel = np.exp(lam * times[ia : it + 1]) * w[ia : it + 1]
    ordinary = np.trapezoid(kernel, dx=path.grid.dt)
    return float(
        np.exp(lam * t) * w[it] - np.exp(lam * a) * w[ia] - lam * ordinary
    )


def decayed_exp_sweep(values: np.ndarray, lam, dt: float) -> np.ndarray:
    """D_k = e^(-lam t_k) int_(t_0)^(t_k) e^(lam s) dX(s) along axis 0.

    ``values`` samples X on a uniform grid (extra axes allowed; ``lam``
    may also be an array matching the trailing axes for per-column
    rates).  The sweep is the integration-by-parts trapezoid written as
    the recurrence

        D_(k+1) = q D_k + X_(k+1) - q X_k - lam dt/2 (q X_k + X_(k+1)),

    q = e^(-lam dt), which matches the direct formula identically in
    exact arithmetic while staying overflow-safe for large lam * t.  The
    recurrence is evaluated in vectorized blocks sized so the rescaling
    factors stay within e^25 of unity.
    """
    lam = np.asarray(lam, dtype=float)
    if not (lam > 0).all():
        raise ValueError("lam must be positive")
    q = np.exp(-lam * dt)
    half = 0.5 * lam * dt
    x = np.asarray(values, dtype=float)
    out = np.zeros_like(x)
    n = x.shape[0] - 1
    if n < 1:
        return out
    b = (1.0 - half) * x[1:] - q * (1.0 + half) * x[:-1]
    block = max(1, min(n, int(25.0 / (float(np.max(lam)) * dt))))
    carry = np.zeros(x.shape[1:])
    pos = 0
    while pos < n:
        m = min(block, n - pos)
        i = np.arange(1, m + 1).reshape((m,) + (1,) * (x.ndim - 1))
        up = q ** (-i)  # bounded by e^25 through the block choice
        down = q**i
        partial = np.cumsum(b[pos : pos + m] * up, axis=0)
        out[pos + 1 : pos + m + 1] = down * (carry + partial)
        carry = out[pos + m]
        pos += m
    return out


@dataclass(frozen=True)
class VectorSeries:
    """Time-indexed lattice vectors on a grid (row k is the state at t_k)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape[0] != self.grid.n_nodes:
            raise ValueError("values rows must match grid nodes")

    def at(self, t: float) -> LatticeVector:
        return LatticeVector(self.values[self.grid.index_of(t)])

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.values, axis=1)


@dataclass(frozen=True)
class OUProcess(VectorSeries):
    """Stationary damped linear field driven by W, truncated in the past.

    ``past_horizon`` is the depth of past actually integrated for the
    first evaluation node; ``tail_bound`` the recorded bound
    e^(-lam*horizon) * 4 * rho * (1 + horizon)^2 on the truncation error.
    """

    lam: float = 0.0
    past_horizon: float = 0.0
    tail_bound: float = 0.0
    rho: float = 0.0


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


def noise_growth_constant(field: NoiseField) -> float:
    """Smallest c with |W(t)| <= c (1 + t^2) on every sampled node."""
    return _growth_constant(field.w_matrix, field.grid)


def _growth_constant(w: np.ndarray, grid: TimeGrid) -> float:
    norms = np.linalg.norm(w, axis=1)
    return float((norms / (1.0 + grid.times() ** 2)).max())


def stationary_ou(
    lam: float,
    field: NoiseField,
    eval_grid: TimeGrid | None = None,
    tail_tol: float = TAIL_TOL,
) -> OUProcess:
    """Pullback-stationary damped field e^(-lam t) int_(-inf)^t e^(lam s) dW.

    The integral is truncated at the field's earliest sample; the
    available past before the first evaluation node must satisfy
    e^(-lam*past) (1 + past)^2 <= tail_tol, and the corresponding
    truncation bound (scaled by the field's growth constant) is recorded
    on the result.  Defaults to evaluating on the nodes in [0, t_end].
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    g = field.grid
    if eval_grid is None:
        if g.i_start + g.n_steps <= 0:
            raise WindowError("field has no nodes at t >= 0 to evaluate on")
        eval_grid = TimeGrid(dt=g.dt, n_steps=g.i_start + g.n_steps, i_start=0)
    if eval_grid.dt != g.dt:
        raise WindowError("eval grid must share the field dt")
    first = eval_grid.i_start - g.i_start
    last = first + eval_grid.n_steps
    if first < 0 or last > g.n_steps:
        raise WindowError("eval grid leaves the sampled window")
    past = first * g.dt
    if np.exp(-lam * past) * (1.0 + past) ** 2 > tail_tol:
        raise InsufficientHorizonError(
            f"past horizon {past:.3g} too short: e^(-lam*T)(1+T)^2 = "
            f"{np.exp(-lam * past) * (1.0 + past) ** 2:.3e} > {tail_tol:.1e}"
        )
    w = field.w_matrix
    sweep = decayed_exp_sweep(w, lam, g.dt)
    rho = _growth_constant(w, g)
    return OUProcess(
        grid=eval_grid,
        values=sweep[first : last + 1],
        lam=lam,
        past_horizon=past,
        tail_bound=float(np.exp(-lam * past) * 4.0 * rho * (1.0 + past) ** 2),
        rho=rho,
    )
