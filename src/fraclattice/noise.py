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

The stationary pullback version of the damped linear field driven by W
(the fractional Ornstein-Uhlenbeck field) is built on the same identity,
evaluated by one O(n) sweep along the grid.  The references the tests
check these against (the field shift ``shift_noise`` and restriction
``coarsen_noise``, the one-integral quadrature ``stieltjes_exp_integral``
and the damped field from an initial state ``ou_solution``) live in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientHorizonError, WindowError
from .fbm import TimeGrid, _fbm_rows, _fgn_eigenvalues, as_hurst
from .lattice import LatticeParams, LatticeVector

__all__ = [
    "NoiseField",
    "VectorSeries",
    "OUProcess",
    "derive_seed",
    "build_noise_field",
    "decayed_exp_sweep",
    "stationary_ou",
    "noise_growth_constant",
]

#: Default relative tail tolerance for truncating the pullback integral.
TAIL_TOL = 1e-6

_SITE_STREAM = 101
_SITE_OFFSET = 1 << 20  # keeps site indices nonnegative in seed tuples
#: Normals per block of sites in :func:`build_noise_field`; bounds its
#: scratch memory at a few hundred kB whatever the number of sites.
_BLOCK_VALUES = 1 << 15


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
    h: float = 0.75,
) -> NoiseField:
    """Sample independent per-site paths for every site with sigma_i != 0.

    This is the one two-sided construction.  Site i's column is the row
    that ``sample_fbm_array(1, ...)`` draws over the whole window from the
    seed tuple ``(master_seed, site_stream, i)``, minus the row's value at
    the node of t = 0, so the grid must contain t = 0.  Stationary
    increments make the re-anchored row an exact two-sided fBm sample,
    with the covariance (|t|^(2H) + |s|^(2H) - |t-s|^(2H)) / 2 across
    zero too.  The seed depends on neither the truncation width nor the
    other sites, so widening the truncation leaves every path untouched.

    Each block of ``_BLOCK_VALUES // (2 * n_steps)`` sites' normals becomes
    paths through the samplers' shared synthesis, with the circulant
    eigenvalues looked up once per field; a row does not depend on its
    block, so every column is bit-identical to that one-row sample.  The
    columns of sites with sigma_i = 0 are never touched.
    """
    k0 = grid.index_of(0.0)  # anchoring requires zero on the grid
    h = as_hurst(h)
    n_steps = grid.n_steps
    eig = _fgn_eigenvalues(n_steps, h)
    paths = np.zeros((grid.n_nodes, params.n_sites))
    sites = list(_site_seeds(master_seed, params.noise_amp).items())
    rows = max(1, _BLOCK_VALUES // (2 * n_steps))
    z = np.empty((min(rows, len(sites)), 2 * n_steps))
    for first in range(0, len(sites), rows):
        block = sites[first : first + rows]
        for r, (_, seed) in enumerate(block):
            np.random.default_rng(np.random.SeedSequence(seed)).standard_normal(out=z[r])
        walks = _fbm_rows(z[: len(block)], eig, grid.dt, h)
        walks -= walks[:, k0, None]
        paths[:, [i + params.half_width for i, _ in block]] = walks.T
    return NoiseField(grid=grid, sigma=params.noise_amp, master_seed=int(master_seed),
                      paths=paths)


# ---------------------------------------------------------------------------
# pathwise integrals


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
    factors stay within e^25 of unity; the factors are computed once, for
    a whole block, and the last block reads a slice of them.
    """
    lam = np.asarray(lam, dtype=float)
    if not (lam > 0).all():
        raise ValueError("lam must be positive")
    q = np.exp(-lam * dt)
    half = 0.5 * lam * dt
    x = np.asarray(values, dtype=float)
    out = np.zeros_like(x)
    n = x.shape[0] - 1
    b = (1.0 - half) * x[1:] - q * (1.0 + half) * x[:-1]
    block = max(1, min(n, int(25.0 / (float(np.max(lam)) * dt))))
    i = np.arange(1, block + 1).reshape((block,) + (1,) * (x.ndim - 1))
    up = q ** (-i)  # bounded by e^25 through the block choice
    down = q**i
    carry = np.zeros(x.shape[1:])
    pos = 0
    while pos < n:
        m = min(block, n - pos)
        partial = b[pos : pos + m]  # b is scratch: each block is read once
        partial *= up[:m]
        np.cumsum(partial, axis=0, out=partial)
        partial += carry
        np.multiply(down[:m], partial, out=out[pos + 1 : pos + m + 1])
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
    first evaluation node and ``rho`` the noise growth constant, from
    which :meth:`growth_bound` and ``tail_bound`` derive.  ``lam`` must be
    finite and > 0, the other two finite and >= 0.
    """

    lam: float = 0.0
    past_horizon: float = 0.0
    rho: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be a finite number > 0, got {self.lam!r}")
        for name in ("past_horizon", "rho"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")

    def growth_bound(self, t):
        """4 rho (1 + |t|)^2, the bound on the field's norm at times ``t`` (float or array)."""
        return 4.0 * self.rho * (1.0 + np.abs(t)) ** 2

    @property
    def tail_bound(self) -> float:
        """e^(-lam * past_horizon) growth_bound(past_horizon): the truncation error's bound."""
        return float(np.exp(-self.lam * self.past_horizon) * self.growth_bound(self.past_horizon))


def noise_growth_constant(field: NoiseField) -> float:
    """Smallest c with |W(t)| <= c (1 + t^2) on every sampled node."""
    return _growth_constant(_noisy_w(field)[1], field.grid)


def _noisy_w(field: NoiseField) -> tuple[np.ndarray, np.ndarray]:
    """The columns of the sites with sigma_i != 0, and W on those columns only."""
    noisy = np.flatnonzero(field.sigma.values)
    return noisy, field.paths[:, noisy] * field.sigma.values[noisy]


def _growth_constant(w: np.ndarray, grid: TimeGrid) -> float:
    norms = np.linalg.norm(w, axis=1)
    return float((norms / (1.0 + grid.times() ** 2)).max())


def _forward_window(grid: TimeGrid) -> TimeGrid:
    """The nodes of ``grid`` in [0, t_end]: where ``stationary_ou`` evaluates by default."""
    if grid.i_start + grid.n_steps <= 0:
        raise WindowError("field window ends at t = 0: no step after it to evaluate on")
    return TimeGrid(dt=grid.dt, n_steps=grid.i_start + grid.n_steps, i_start=0)


def _ou_window(lam: float, grid: TimeGrid, eval_grid: TimeGrid, tail_tol: float = TAIL_TOL) -> int:
    """Node of ``grid`` at which ``eval_grid`` starts, after the checks of ``stationary_ou``:
    ``eval_grid`` lies on ``grid`` (``WindowError``) and the past before it meets the
    tail check (``InsufficientHorizonError``)."""
    if eval_grid.dt != grid.dt:
        raise WindowError("eval grid must share the field dt")
    first = eval_grid.i_start - grid.i_start
    if first < 0 or first + eval_grid.n_steps > grid.n_steps:
        raise WindowError("eval grid leaves the sampled window")
    past = first * grid.dt
    if np.exp(-lam * past) * (1.0 + past) ** 2 > tail_tol:
        raise InsufficientHorizonError(
            f"past horizon {past:.3g} too short: e^(-lam*T)(1+T)^2 = "
            f"{np.exp(-lam * past) * (1.0 + past) ** 2:.3e} > {tail_tol:.1e}"
        )
    return first


def stationary_ou(
    lam: float,
    field: NoiseField,
    eval_grid: TimeGrid | None = None,
    tail_tol: float = TAIL_TOL,
) -> OUProcess:
    """Pullback-stationary damped field e^(-lam t) int_(-inf)^t e^(lam s) dW.

    The integral is truncated at the field's earliest sample; the
    available past before the first evaluation node must satisfy
    e^(-lam*past) (1 + past)^2 <= tail_tol, and the result derives the
    corresponding truncation bound, scaled by the field's growth constant,
    as ``tail_bound``.  Defaults to evaluating on the nodes in [0, t_end].

    Only the sites with sigma_i != 0 are swept, and only they enter the
    growth constant; the field is exactly zero at every other site.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    g = field.grid
    if eval_grid is None:
        eval_grid = _forward_window(g)
    first = _ou_window(lam, g, eval_grid, tail_tol)
    past = first * g.dt
    noisy, w = _noisy_w(field)
    values = np.zeros((eval_grid.n_nodes, field.n_sites))
    values[:, noisy] = decayed_exp_sweep(w, lam, g.dt)[first : first + eval_grid.n_nodes]
    rho = _growth_constant(w, g)
    return OUProcess(
        grid=eval_grid,
        values=values,
        lam=lam,
        past_horizon=past,
        rho=rho,
    )
