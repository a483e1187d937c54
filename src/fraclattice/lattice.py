"""Finite lattice state, difference operators, and the componentwise drift.

The state space is a truncation of the square-summable sequences
``u = (u_i), i in [-N, N]``.  Three linear operators act on it,

    laplacian:      (A x)_i = -x_{i-1} + 2 x_i - x_{i+1}
    difference:     (B x)_i = x_{i+1} - x_i
    adjoint diff:   (B* x)_i = x_{i-1} - x_i

with either zero padding outside the window or periodic wrap.  On the
full lattice A = B B* = B* B and B* is adjoint to B; the same holds
exactly for the periodic truncation, while under zero padding the
factorization picks up boundary terms unless the vector vanishes on the
outermost sites (the adjointness identity survives unconditionally).

The drift nonlinearity acts componentwise and is described by a
:class:`NonlinearitySpec` carrying its claimed one-sided dissipativity
and growth constants; randomized probes check the claims numerically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonlinearityOverflowError

__all__ = [
    "Boundary",
    "LatticeVector",
    "LatticeParams",
    "NonlinearitySpec",
    "apply_laplacian",
    "apply_diff",
    "apply_diff_adjoint",
    "eval_nonlinearity",
    "probe_dissipativity",
    "probe_growth",
    "laplacian_modes",
    "DissipativityReport",
    "GrowthReport",
]

#: Slack added to the claimed dissipativity constant before failing a probe.
PROBE_TOL = 1e-9

#: Pairs closer than this are skipped by the dissipativity probe.
DEGENERATE_PAIR_TOL = 1e-14


class Boundary(str, enum.Enum):
    ZERO_PADDING = "zero-padding"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class LatticeVector:
    """Truncated lattice sequence over sites i = -N..N (length 2N + 1)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size % 2 == 0 or values.size < 3:
            raise ValueError("lattice vector needs odd length >= 3")
        if not np.all(np.isfinite(values)):
            raise ValueError("lattice vector entries must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def half_width(self) -> int:
        return (self.values.size - 1) // 2

    def get(self, i: int) -> float:
        """Entry at lattice site i (i may be negative)."""
        n = self.half_width
        if not -n <= i <= n:
            raise IndexError(f"site {i} outside [-{n}, {n}]")
        return float(self.values[i + n])

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    @classmethod
    def zeros(cls, half_width: int) -> "LatticeVector":
        return cls(np.zeros(2 * half_width + 1))

    @classmethod
    def basis(cls, half_width: int, i: int) -> "LatticeVector":
        v = np.zeros(2 * half_width + 1)
        v[i + half_width] = 1.0
        return cls(v)

    @classmethod
    def from_support(cls, half_width: int, entries: dict[int, float]) -> "LatticeVector":
        v = np.zeros(2 * half_width + 1)
        for i, x in entries.items():
            if not -half_width <= int(i) <= half_width:
                raise ValueError(f"site {i} outside [-{half_width}, {half_width}]")
            v[int(i) + half_width] = float(x)
        return cls(v)


@dataclass(frozen=True)
class LatticeParams:
    """Static coefficients of the lattice system.

    ``coupling`` and ``damping`` are the positive prefactors of the
    discrete diffusion and of the linear decay; ``forcing`` is the
    constant drive g and ``noise_amp`` holds the per-site noise
    intensities.  All vectors share ``half_width``.
    """

    coupling: float
    damping: float
    forcing: LatticeVector
    noise_amp: LatticeVector
    half_width: int
    boundary: Boundary = Boundary.ZERO_PADDING

    def __post_init__(self):
        if not self.coupling > 0:
            raise ValueError("coupling must be positive")
        if not self.damping > 0:
            raise ValueError("damping must be positive")
        for name in ("forcing", "noise_amp"):
            vec = getattr(self, name)
            if vec.half_width != self.half_width:
                raise ValueError(
                    f"{name} half_width {vec.half_width} != {self.half_width}"
                )

    @property
    def n_sites(self) -> int:
        return 2 * self.half_width + 1


def _roll_prev(x: np.ndarray, boundary: Boundary) -> np.ndarray:
    """x_{i-1} along the last axis."""
    if boundary is Boundary.PERIODIC:
        return np.roll(x, 1, axis=-1)
    out = np.zeros_like(x)
    out[..., 1:] = x[..., :-1]
    return out


def _roll_next(x: np.ndarray, boundary: Boundary) -> np.ndarray:
    """x_{i+1} along the last axis."""
    if boundary is Boundary.PERIODIC:
        return np.roll(x, -1, axis=-1)
    out = np.zeros_like(x)
    out[..., :-1] = x[..., 1:]
    return out


def laplacian_array(x: np.ndarray, boundary: Boundary) -> np.ndarray:
    return -_roll_prev(x, boundary) + 2.0 * x - _roll_next(x, boundary)


def apply_laplacian(x: LatticeVector, boundary: Boundary = Boundary.ZERO_PADDING) -> LatticeVector:
    """(A x)_i = -x_{i-1} + 2 x_i - x_{i+1}; positive semidefinite."""
    return LatticeVector(laplacian_array(x.values, boundary))


def apply_diff(x: LatticeVector, boundary: Boundary = Boundary.ZERO_PADDING) -> LatticeVector:
    """(B x)_i = x_{i+1} - x_i."""
    return LatticeVector(_roll_next(x.values, boundary) - x.values)


def apply_diff_adjoint(x: LatticeVector, boundary: Boundary = Boundary.ZERO_PADDING) -> LatticeVector:
    """(B* x)_i = x_{i-1} - x_i, the adjoint of :func:`apply_diff`."""
    return LatticeVector(_roll_prev(x.values, boundary) - x.values)


# ---------------------------------------------------------------------------
# componentwise nonlinearity


class NonlinearityKind(str, enum.Enum):
    LINEAR = "linear"
    CUBIC = "cubic"
    CUSTOM = "custom"


def _cubic_growth_coef(a: float, b: float) -> float:
    # sup over r >= 0 of (a + a r + 3 b r^2 + b r^3) / (1 + r^3), from the
    # norm bounds |f(x)| <= a|x| + b|x|^3 and max|f'| <= a + 3b|x|^2.
    r = np.linspace(0.0, 50.0, 20001)
    ratio = (a + a * r + 3.0 * b * r**2 + b * r**3) / (1.0 + r**3)
    return float(ratio.max()) * (1.0 + 1e-12)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Componentwise drift term f(x) = (f(x_i))_i with claimed constants.

    ``diss_const`` is the claimed one-sided dissipativity rate L in
    <x - y, f(x) - f(y)> <= -L |x - y|^2, and ``growth_coef`` /
    ``growth_power`` the claimed K, p in |f(x)| + |Df(x)| <= K(1 + |x|^p)
    with |Df| the max-abs diagonal derivative.  The claims are metadata;
    :func:`probe_dissipativity` and :func:`probe_growth` test them.
    """

    kind: NonlinearityKind
    a: float = 0.0
    b: float = 0.0
    fn: Callable[[np.ndarray], np.ndarray] | None = None
    dfn: Callable[[np.ndarray], np.ndarray] | None = None
    diss_const: float = 1.0
    growth_coef: float = 1.0
    growth_power: float = 1.0
    label: str = ""

    def __post_init__(self):
        if not self.diss_const > 0:
            raise ValueError("claimed dissipativity constant must be positive")
        if not self.growth_coef > 0:
            raise ValueError("claimed growth coefficient must be positive")
        if self.growth_power < 1:
            raise ValueError("growth power must be >= 1")
        if self.kind is NonlinearityKind.CUSTOM and (self.fn is None or self.dfn is None):
            raise ValueError("custom nonlinearity needs fn and dfn callables")

    @classmethod
    def linear(cls, a: float) -> "NonlinearitySpec":
        """f(s) = -a s, exactly dissipative with rate a."""
        if not a > 0:
            raise ValueError("linear coefficient must be positive")
        return cls(
            kind=NonlinearityKind.LINEAR,
            a=a,
            diss_const=a,
            growth_coef=a,
            growth_power=1.0,
            label=f"linear(a={a:g})",
        )

    @classmethod
    def cubic(cls, a: float, b: float) -> "NonlinearitySpec":
        """f(s) = -a s - b s^3; dissipative with rate a, growth power 3."""
        if not (a > 0 and b > 0):
            raise ValueError("cubic coefficients must be positive")
        return cls(
            kind=NonlinearityKind.CUBIC,
            a=a,
            b=b,
            diss_const=a,
            growth_coef=_cubic_growth_coef(a, b),
            growth_power=3.0,
            label=f"cubic(a={a:g}, b={b:g})",
        )

    @classmethod
    def custom(
        cls,
        fn: Callable[[np.ndarray], np.ndarray],
        dfn: Callable[[np.ndarray], np.ndarray],
        diss_const: float,
        growth_coef: float,
        growth_power: float,
        label: str = "custom",
    ) -> "NonlinearitySpec":
        return cls(
            kind=NonlinearityKind.CUSTOM,
            fn=fn,
            dfn=dfn,
            diss_const=diss_const,
            growth_coef=growth_coef,
            growth_power=growth_power,
            label=label,
        )

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        # overflow surfaces as non-finite output, which callers turn into
        # NonlinearityOverflowError inside their own np.errstate
        if self.kind is NonlinearityKind.LINEAR:
            return -self.a * x
        if self.kind is NonlinearityKind.CUBIC:
            return -self.a * x - self.b * (x * x * x)
        return np.asarray(self.fn(x), dtype=float)

    def deriv_array(self, x: np.ndarray) -> np.ndarray:
        if self.kind is NonlinearityKind.LINEAR:
            return np.full_like(x, -self.a)
        if self.kind is NonlinearityKind.CUBIC:
            return -self.a - 3.0 * self.b * x**2
        return np.asarray(self.dfn(x), dtype=float)


def eval_nonlinearity(spec: NonlinearitySpec, x: LatticeVector) -> LatticeVector:
    """Apply the componentwise drift; raises on non-finite output."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = spec.eval_array(x.values)
    if not np.all(np.isfinite(out)):
        raise NonlinearityOverflowError(
            f"{spec.label or spec.kind.value} overflowed on "
            f"max|x_i|={float(np.abs(x.values).max()):.3e}"
        )
    return LatticeVector(out)


# ---------------------------------------------------------------------------
# randomized condition probes


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
# spectral oracle (periodic boundary)


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
