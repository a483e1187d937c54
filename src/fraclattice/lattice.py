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
:class:`NonlinearitySpec`, linear or cubic, which derives its one-sided
dissipativity and growth constants from its coefficients; the randomized
probes of the test suite (``tests/oracles.py``) check them numerically.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Boundary",
    "LatticeVector",
    "LatticeParams",
    "NonlinearitySpec",
    "apply_laplacian",
    "apply_diff",
    "apply_diff_adjoint",
]


def _operand(x: float) -> np.ndarray:
    """``x`` as a read-only 0-d float64 array, a cheaper ufunc operand than a float."""
    a = np.array(x, dtype=float)
    a.setflags(write=False)
    return a


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
        """The vector of ``entries``, site -> value, zero elsewhere.  Each site is an integer
        read through ``operator.index``: TypeError for a bool, a float or any other key
        that would silently name another site."""
        v = np.zeros(2 * half_width + 1)
        for key, x in entries.items():
            if isinstance(key, bool):
                raise TypeError(f"site {key!r} is not an integer")
            i = operator.index(key)
            if not -half_width <= i <= half_width:
                raise ValueError(f"site {i} outside [-{half_width}, {half_width}]")
            v[i + half_width] = float(x)
        return cls(v)


@dataclass(frozen=True)
class LatticeParams:
    """Static coefficients of the lattice system.

    ``coupling`` and ``damping`` are the positive prefactors of the
    discrete diffusion and of the linear decay; ``forcing`` is the
    constant drive g and ``noise_amp`` holds the per-site noise
    intensities.  All vectors share ``half_width``; a ``boundary`` given
    by its value is the member itself.
    """

    coupling: float
    damping: float
    forcing: LatticeVector
    noise_amp: LatticeVector
    half_width: int
    boundary: Boundary = Boundary.ZERO_PADDING

    def __post_init__(self):
        for name in ("coupling", "damping"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        for name in ("forcing", "noise_amp"):
            vec = getattr(self, name)
            if vec.half_width != self.half_width:
                raise ValueError(f"{name} half_width {vec.half_width} != {self.half_width}")

    @property
    def n_sites(self) -> int:
        return 2 * self.half_width + 1


def _neighbours(out: np.ndarray, x: np.ndarray, boundary: Boundary):
    """(left, right) lists of (out slice, x slice) pairs: x_{i-1}, then x_{i+1}, against out_i
    along the first axis, the sites; the periodic wrap slices one in past an edge, zero
    padding none.  On a C-contiguous site-major state every slice is one contiguous block."""
    left, right = [(out[1:], x[:-1])], [(out[:-1], x[1:])]
    if boundary is Boundary.PERIODIC:
        left.append((out[:1], x[-1:]))
        right.append((out[-1:], x[:1]))
    return left, right


def _diff_array(x: np.ndarray, boundary: Boundary, side: int) -> np.ndarray:
    """x_{i-1} - x_i (side 0) or x_{i+1} - x_i (side 1), a missing neighbour 0."""
    out = np.zeros_like(x)
    for target, neighbour in _neighbours(out, x, Boundary(boundary))[side]:
        target[...] = neighbour
    return np.subtract(out, x, out=out)


def apply_laplacian(x: LatticeVector, boundary: Boundary = Boundary.ZERO_PADDING) -> LatticeVector:
    """(A x)_i = -x_{i-1} + 2 x_i - x_{i+1}; positive semidefinite."""
    out = 2.0 * x.values
    left, right = _neighbours(out, x.values, Boundary(boundary))
    for target, neighbour in left + right:
        np.subtract(target, neighbour, out=target)
    return LatticeVector(out)


def apply_diff(x: LatticeVector, boundary: Boundary = Boundary.ZERO_PADDING) -> LatticeVector:
    """(B x)_i = x_{i+1} - x_i."""
    return LatticeVector(_diff_array(x.values, boundary, 1))


def apply_diff_adjoint(x: LatticeVector, boundary: Boundary = Boundary.ZERO_PADDING) -> LatticeVector:
    """(B* x)_i = x_{i-1} - x_i, the adjoint of :func:`apply_diff`."""
    return LatticeVector(_diff_array(x.values, boundary, 0))


# ---------------------------------------------------------------------------
# componentwise nonlinearity


class NonlinearityKind(str, enum.Enum):
    LINEAR = "linear"
    CUBIC = "cubic"


def _cubic_growth_coef(a: float, b: float) -> float:
    # sup over r >= 0 of g(r) = (a + a r + 3 b r^2 + b r^3) / (1 + r^3), from the
    # norm bounds |f(x)| <= a|x| + b|x|^3 and max|f'| <= a + 3b|x|^2.  g' has the sign
    # of P(r) = a + 6b r + 3(b - a) r^2 - 2a r^3 - 3b r^4, whose coefficients change sign
    # once, so g peaks at P's one positive root, bisected on [0, 2] (P(2) = -27a - 24b).
    lo, hi = 0.0, 2.0
    for _ in range(64):
        r = 0.5 * (lo + hi)
        if a + r * (6.0 * b + r * (3.0 * (b - a) - r * (2.0 * a + 3.0 * b * r))) > 0.0:
            lo = r
        else:
            hi = r
    return (a + a * r + 3.0 * b * r**2 + b * r**3) / (1.0 + r**3) * (1.0 + 1e-12)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Componentwise drift term f(x) = (f(x_i))_i with its constants.

    The linear kind is f(s) = -a s, the cubic f(s) = -a s - b s^3; a spec takes
    ``kind``, ``a`` and ``b`` (0 for the linear kind) and derives the rest from them:
    ``diss_const``, the one-sided dissipativity rate L in
    <x - y, f(x) - f(y)> <= -L |x - y|^2, ``growth_coef`` / ``growth_power``, the K, p
    in |f(x)| + |Df(x)| <= K(1 + |x|^p) with |Df| the max-abs diagonal derivative, and
    ``label``.  ``dataclasses.replace`` derives them anew.  The probes
    ``probe_dissipativity`` and ``probe_growth`` of ``tests/oracles.py`` test them.
    """

    kind: NonlinearityKind
    a: float = 0.0
    b: float = 0.0
    diss_const: float = field(init=False)
    growth_coef: float = field(init=False)
    growth_power: float = field(init=False)
    label: str = field(init=False)
    # -a and -b as ufunc operands, for eval_array and remainder
    _neg_a: np.ndarray = field(init=False, repr=False, compare=False)
    _neg_b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind = NonlinearityKind(self.kind)
        a, b = self.a, self.b
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("coefficients a and b must be finite")
        if kind is NonlinearityKind.LINEAR:
            if b:
                raise ValueError("the linear kind takes no coefficient b")
            if not a > 0:
                raise ValueError("linear coefficient must be positive")
            derived = {"diss_const": a, "growth_coef": a, "growth_power": 1.0,
                       "label": f"linear(a={a:g})"}
        else:
            if not (a > 0 and b > 0):
                raise ValueError("cubic coefficients must be positive")
            derived = {"diss_const": a, "growth_coef": _cubic_growth_coef(a, b),
                       "growth_power": 3.0, "label": f"cubic(a={a:g}, b={b:g})"}
        for name, value in {"kind": kind, "_neg_a": _operand(-a), "_neg_b": _operand(-b),
                            **derived}.items():
            object.__setattr__(self, name, value)

    @classmethod
    def linear(cls, a: float) -> "NonlinearitySpec":
        """f(s) = -a s, exactly dissipative with rate a."""
        return cls(kind=NonlinearityKind.LINEAR, a=a)

    @classmethod
    def cubic(cls, a: float, b: float) -> "NonlinearitySpec":
        """f(s) = -a s - b s^3; dissipative with rate a, growth power 3."""
        return cls(kind=NonlinearityKind.CUBIC, a=a, b=b)

    def remainder(self, shape: tuple):
        """r(x) = f(x) + a x prepared once for float x of ``shape``: None for the linear
        kind, whose f has none, and for the cubic a callable r(x) that writes -b (x x x)
        into a buffer of its own, which it returns."""
        if self.kind is NonlinearityKind.LINEAR:
            return None
        out, work, neg_b, multiply = np.empty(shape), np.empty(shape), self._neg_b, np.multiply

        def cubic(x):
            multiply(x, x, work)
            multiply(work, x, out)
            return multiply(out, neg_b, out)
        return cubic

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        """f(x) as a new float array, -a*x + r(x): bit for bit -a*x - b*(x*x*x) for the
        cubic.  Overflow surfaces as non-finite output, which callers turn into
        ``NonlinearityOverflowError`` in their ``np.errstate``."""
        remainder = self.remainder(np.shape(x))
        fx = np.multiply(x, self._neg_a)
        return fx if remainder is None else np.add(fx, remainder(x), fx)

    def deriv_array(self, x: np.ndarray) -> np.ndarray:
        if self.kind is NonlinearityKind.LINEAR:
            return np.full(np.shape(x), -self.a)
        return -self.a - 3.0 * self.b * x**2
