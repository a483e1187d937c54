"""Exact-covariance fractional Brownian motion on uniform time grids.

Sampling is done by circulant embedding of the fractional Gaussian noise
(fGn) covariance (Davies-Harte), which is exact in law and O(n log n).
The circulant eigenvalues are computed once per ``(n_steps, h)`` and
cached read-only; :func:`_fgn_from_normals` turns a block of unit
normals into fGn with one real inverse FFT of the n + 1 half of the
Hermitian spectrum along its rows.  The dense O(n^3)
Cholesky sampler it is cross-validated against lives with the tests,
in ``tests/oracles.py``.

A path is a plain array: row k of :func:`sample_fbm_array` samples
one fBm path on the nodes 0, dt, ..., exactly zero at t = 0.  Two-sided
paths are built by the noise field
(:func:`fraclattice.noise.build_noise_field`) through the same
:func:`_fgn_from_normals`: each site's row is drawn from the site's own
seed and re-anchored at the interior node of t = 0, and stationarity of
the increments makes that row an exact two-sided sample.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import EmbeddingError, OffGridError, WindowError

__all__ = [
    "HurstParameter",
    "TimeGrid",
    "sample_fbm_array",
]

#: Relative tolerance for negative circulant eigenvalues.  fGn with
#: H in (1/2, 1) embeds cleanly in practice; this only absorbs
#: floating-point dust and anything larger raises ``EmbeddingError``.
EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True)
class HurstParameter:
    """Hurst exponent of the driving noise.

    The long-memory regime 1/2 < h < 1 is the supported one.  ``h = 0.5``
    (plain Brownian motion) is admitted only with ``reference_mode=True``
    and exists so the sampler can be checked against an independent
    Gaussian-walk oracle.
    """

    h: float
    reference_mode: bool = False

    def __post_init__(self):
        if self.reference_mode:
            if not 0.5 <= self.h < 1.0:
                raise ValueError(f"hurst parameter {self.h} outside [0.5, 1)")
        elif not 0.5 < self.h < 1.0:
            raise ValueError(
                f"hurst parameter {self.h} outside (0.5, 1); "
                "h = 0.5 needs reference_mode=True"
            )


def as_hurst(h: "HurstParameter | float") -> HurstParameter:
    """Coerce a float to a validated :class:`HurstParameter`."""
    if isinstance(h, HurstParameter):
        return h
    return HurstParameter(float(h))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with nodes ``(i_start + k) * dt`` for k = 0..n_steps.

    Anchoring the grid on integer multiples of ``dt`` keeps shift
    arithmetic exact: whenever the grid spans t = 0, zero is a node.
    """

    dt: float
    n_steps: int
    i_start: int = 0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @classmethod
    def window(cls, dt: float, t_past: float, t_future: float) -> "TimeGrid":
        """The grid on ``[-t_past, t_future]``; each side a whole number of steps."""
        if not (t_past >= 0 and t_future >= 0):
            raise ValueError("t_past and t_future must be >= 0")
        n_past, n_future = round(t_past / dt), round(t_future / dt)
        if abs(t_past - n_past * dt) > 1e-9 * dt or abs(t_future - n_future * dt) > 1e-9 * dt:
            raise ValueError("grid window must be a whole number of steps")
        if n_past + n_future < 1:
            raise ValueError("grid window must contain at least one step")
        return cls(dt=dt, n_steps=n_past + n_future, i_start=-n_past)

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def t_start(self) -> float:
        return self.i_start * self.dt

    @property
    def t_end(self) -> float:
        return (self.i_start + self.n_steps) * self.dt

    def times(self) -> np.ndarray:
        return (self.i_start + np.arange(self.n_nodes)) * self.dt

    def index_of(self, t: float) -> int:
        """Node index of time ``t``; ``WindowError`` if t is outside the window,
        ``OffGridError`` if t is off-grid."""
        k = round(t / self.dt) - self.i_start
        if not 0 <= k <= self.n_steps:
            raise WindowError(
                f"time {t} outside grid window [{self.t_start}, {self.t_end}]"
            )
        if abs(t - (self.i_start + k) * self.dt) > 1e-6 * self.dt:
            raise OffGridError(f"time {t} is not aligned with dt={self.dt}")
        return k

    def steps_of(self, s: float) -> int:
        """Signed number of grid steps equal to the duration ``s``."""
        k = round(s / self.dt)
        if abs(s - k * self.dt) > 1e-6 * self.dt:
            raise OffGridError(f"shift {s} is not a multiple of dt={self.dt}")
        return k

    def shifted(self, k_steps: int) -> "TimeGrid":
        """Grid translated k_steps nodes toward the past (t -> t - k*dt)."""
        return TimeGrid(self.dt, self.n_steps, self.i_start - k_steps)


@functools.lru_cache(maxsize=32)
def _fgn_eigenvalues(n_steps: int, h: float) -> np.ndarray:
    """Eigenvalues of the 2n-circulant embedding of the unit-step fGn covariance.

    Cached for the 32 latest ``(n_steps, h)`` pairs; the result is
    read-only because every caller shares it.  A failed embedding raises
    on every call, since the cache keeps only returned values.
    """
    lags = np.arange(n_steps + 1, dtype=float)
    h2 = 2.0 * h
    gamma = 0.5 * (
        (lags + 1.0) ** h2 - 2.0 * lags**h2 + np.abs(lags - 1.0) ** h2
    )
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eig = np.fft.fft(row).real
    floor = -EIGENVALUE_TOL * eig.max()
    if eig.min() < floor:
        raise EmbeddingError(
            f"circulant eigenvalue {eig.min():.3e} below tolerance for "
            f"h={h}, n={n_steps}; tests/oracles.py has the dense Cholesky sampler"
        )
    eig = np.clip(eig, 0.0, None)
    eig.setflags(write=False)
    return eig


def _fgn_from_normals(z: np.ndarray, eig: np.ndarray) -> np.ndarray:
    """(rows, n) unit-step fGn from (rows, 2n) unit normals, one real inverse FFT per row.

    The normals fill the n + 1 half of a Hermitian spectrum: ``z[:, 0]``,
    then ``(z[:, 1:n] - i z[:, n+1:]) / sqrt(2)``, then ``z[:, n]``, each
    scaled by the square root of its circulant eigenvalue over 2n.  A
    real inverse FFT of that half spectrum is the fGn, and its first n
    values are the sample.  Row r depends on ``z[r]`` alone, and bit for
    bit so: a row comes out the same whatever block of rows it is
    transformed in.
    """
    m = z.shape[1]
    n_steps = m // 2
    spec = np.empty((z.shape[0], n_steps + 1), dtype=complex)
    spec[:, 0] = z[:, 0]
    spec[:, 1:n_steps] = (z[:, 1:n_steps] - 1j * z[:, n_steps + 1 :]) / np.sqrt(2.0)
    spec[:, n_steps] = z[:, n_steps]
    spec *= np.sqrt(eig[: n_steps + 1] / m)
    return np.fft.irfft(spec, n=m, axis=1, norm="forward")[:, :n_steps]


def sample_fbm_array(
    n_paths: int,
    n_steps: int,
    h: "HurstParameter | float",
    dt: float,
    seed,
) -> np.ndarray:
    """(n_paths, n_steps + 1) independent fBm paths from one generator stream.

    Row k samples path k on the nodes 0, dt, ..., n_steps * dt and is
    exactly 0 at t = 0.  The increments are drawn with exact covariance
    by circulant embedding and the path is their cumulative sum.
    Identical arguments give bit-identical output.  Raises
    ``EmbeddingError`` if the covariance embedding fails (the dense
    Cholesky sampler ``sample_fbm_cholesky`` of ``tests/oracles.py`` is
    the reference this sampler is checked against).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    hurst = as_hurst(h)
    eig = _fgn_eigenvalues(n_steps, hurst.h)
    z = np.random.default_rng(seed).standard_normal((n_paths, 2 * n_steps))
    fgn = _fgn_from_normals(z, eig) * dt**hurst.h
    out = np.zeros((n_paths, n_steps + 1))
    np.cumsum(fgn, axis=1, out=out[:, 1:])
    return out
