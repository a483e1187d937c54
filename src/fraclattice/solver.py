"""Pathwise integration of the noisy lattice system.

The additive rough noise is removed by the substitution v = u - W, which
turns the integral equation into an ordinary differential equation with
continuous (Hoelder) time dependence,

    dv/dt = F(v + W(t)),   F(u) = -kappa A u - lam u + f(u) + g,

stepped here by explicit Euler or Heun, each stage evaluating F once, its
scalar linear terms folded into one diagonal coefficient, in place, into
buffers bound once per batch shape.  Where the compiled kernel of
``_kernel.c`` loads, one C loop steps each noise block, bit for bit as the
numpy kernel does, which steps otherwise, each step one straight run of
ufunc calls.  A run steps once per noise node (``_node_step``), so W is
used only at its sampled nodes and never interpolated.  The solution map

    phi(t, field, u0) = endpoint of the integration over [0, t]

is :func:`cocycle_map`, for one start or a batch; it satisfies
phi(0) = id exactly and composes with the noise shift (the cocycle
property).  Every run, forward or pulled back, steps through one driver,
``_step_rows``: given runs in any order and a start or batch, it steps
each distinct run once, in one staggered batch reading the noise in blocks,
and returns each run's endpoint or a forward run's every state.  Inside the
driver the state is site-major, (d, runs, starts), so that every per-step
numpy call of the stepping meets C-contiguous operands of one shape, numpy's
fast path; callers see the starts' shape only.
The references the tests check it against live in ``tests/oracles.py``:
``cocycle_check`` measures that composition residual directly, and
``linear_oracle`` is the spectral solution for linear drifts on the
periodic lattice, an independent accuracy oracle.
"""

from __future__ import annotations

import collections
import ctypes
import enum
import functools
import hashlib
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BlowUpError, NonlinearityOverflowError, OffGridError, WindowError
from .fbm import TimeGrid, check_step, finite_duration, whole_steps
from .lattice import (Boundary, LatticeParams, LatticeVector, NonlinearityKind, NonlinearitySpec,
                      _neighbours, _operand)
from .noise import NoiseField, VectorSeries

__all__ = [
    "Scheme",
    "SolverConfig",
    "integrate",
    "cocycle_map",
    "step_margin",
]

#: State-norm guard: beyond this the step loop raises ``BlowUpError``
#: (a dissipativity violation or a too-large step, not a silent inf).
BLOWUP_NORM = 1e12

#: While the squares of the whole state sum to at most this, no row's norm
#: can pass ``BLOWUP_NORM``, whatever the order of the summation; the
#: factor 4 of room covers the rounding of either sum.
_GUARD_TOTAL = (BLOWUP_NORM / 2) ** 2

#: Noise values, counting the starts, that one ``_step_loop`` call's noise
#: block holds at most (two nodes when one node holds more), so the block
#: grows neither with the run's length nor with its runs and starts.
_BLOCK_VALUES = 1 << 15

#: The compiled kernel's source, and the command that builds it.  Contraction stays off: a
#: fused multiply-add rounds once where the numpy kernel rounds twice.
_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
_CC = ("cc", "-O2", "-ffp-contract=off", "-fPIC", "-shared")

_UNTRIED = object()

#: ``_kernel``'s memo, set on the first ``_step_loop`` call: the compiled block stepper, or
#: None, the numpy kernel stepping every run of the process.
_KERNEL = _UNTRIED

#: ``_step_loop`` kernels bound in this process, by name, "compiled" or "numpy".
_BOUND = collections.Counter()


class Scheme(str, enum.Enum):
    EULER = "euler"
    HEUN = "heun"


@dataclass(frozen=True)
class SolverConfig:
    """Stepping choices: scheme, step, and final time.

    ``dt`` must equal the noise grid step (``_node_step``).  A ``scheme``
    given by its value is the member itself.
    """

    dt: float
    t_end: float
    scheme: Scheme = Scheme.HEUN

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        check_step(self.dt)
        if not self.t_end >= 0:
            raise ValueError("t_end must be >= 0")
        finite_duration(self.t_end)

    def n_steps(self) -> int:
        return whole_steps(self.t_end, self.dt)


def _steps(t: float, config: SolverConfig) -> int:
    """Solver steps in a duration ``t``, which must be >= 0 and whole (``OffGridError``)."""
    if not t >= 0:
        raise ValueError(f"duration {t} must be >= 0")
    return whole_steps(t, config.dt)


def step_margin(dt: float, params: LatticeParams, spec: NonlinearitySpec) -> float:
    """dt (kappa rho(A) + lam + a): the step against the drift's symmetric linear part.

    kappa and lam are the params' coupling and damping and a the spec's linear
    coefficient; rho(A), the spectral radius of the laplacian on the params' d sites, is
    2 + 2 cos(pi / (d + 1)) with zero padding and 2 + 2 cos(pi / d) periodic.  Euler and
    Heun are stable on a real eigenvalue mu < 0 only when dt |mu| <= 2, so past a margin
    of 2 every step grows the top mode.
    """
    extra = 1 if params.boundary is Boundary.ZERO_PADDING else 0
    radius = 2.0 + 2.0 * math.cos(math.pi / (params.n_sites + extra))
    return dt * (params.coupling * radius + params.damping + spec.a)


def _node_step(config: SolverConfig, grid: TimeGrid) -> bool:
    """True, or ValueError unless the noise step is one whole solver step (``whole_steps``)."""
    try:
        if whole_steps(grid.dt, config.dt) == 1:
            return True
    except OffGridError:
        pass
    raise ValueError(f"solver dt={config.dt} must equal the noise dt={grid.dt}")


def _stable_step(margin: float | None) -> None:
    """ValueError if a run's ``step_margin`` (None: not computed) passes 2."""
    if margin is not None and margin > 2.0:
        raise ValueError(f"dt (kappa rho(A) + lam + a) = {margin:.3g} exceeds 2, where an "
                         "explicit step grows the top lattice mode")


def _overflow(spec: NonlinearitySpec) -> NonlinearityOverflowError:
    return NonlinearityOverflowError(f"{spec.label} overflowed during stepping")


def _kernel():
    """``_load_kernel``, once per process."""
    global _KERNEL
    if _KERNEL is _UNTRIED:
        _KERNEL = _load_kernel()
    return _KERNEL


def _load_kernel():
    """The compiled block stepper of ``_KERNEL_SOURCE``; None if it cannot be built or
    loaded, and the numpy kernel then steps every run.

    It is cached in the package's ``__pycache__``, named by the sha256 of the source and
    ``_CC``.  A cache miss, or a cached file that does not load, builds it there anew
    (``_build``).
    """
    source = _KERNEL_SOURCE
    try:
        key = hashlib.sha256(source.read_bytes() + " ".join(_CC).encode()).hexdigest()
        target = source.parent / "__pycache__" / f"_kernel-{key}.so"
        try:
            kernel = ctypes.CDLL(str(target)).step_block
        except OSError:
            _build(source, target)
            kernel = ctypes.CDLL(str(target)).step_block
    except (OSError, AttributeError):
        return None
    long, double, pointer = ctypes.c_long, ctypes.c_double, ctypes.c_void_p
    kernel.argtypes = [long] * 5 + [double] * 6 + [pointer] * 3 + [long, pointer, pointer, long]
    kernel.restype = long
    return kernel


def _build(source: Path, target: Path) -> None:
    """Compiles ``source`` into a temporary file beside ``target`` that then replaces the
    target whole, so that processes building at once each load a whole library; OSError
    if it cannot."""
    import subprocess  # only on a cache miss

    target.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        done = subprocess.run([*_CC, "-o", tmp, str(source)], capture_output=True)
        if done.returncode:
            raise OSError(f"{_CC[0]} exited with {done.returncode}")
        os.chmod(tmp, 0o644)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _neg_c(params: LatticeParams, spec: NonlinearitySpec) -> float:
    """-c, c = 2 kappa + lam + a: the drift's scalar linear terms folded into one."""
    return -(2.0 * params.coupling + params.damping + spec.a)


def _step_loop(shape: tuple, params: LatticeParams, spec: NonlinearitySpec,
               config: SolverConfig):
    """``steps(v0, w, states=None, first_step=0) -> v`` for site-major (d, ...) states of
    ``shape``: the compiled kernel's when ``_kernel`` loads, else the numpy kernel's
    (``_numpy_loop``), its oracle, which it matches bit for bit.

    The compiled ``steps`` steps a whole noise block in one call.  When the squares of the
    state sum past ``_GUARD_TOTAL`` it steps the block anew from its start through the
    numpy kernel, which raises a blow-up's or an overflow's error at the same step or steps
    on bit for bit: a row norm passes ``BLOWUP_NORM`` only past 4 ``_GUARD_TOTAL``, so the
    two sums' rounding cannot change which.  It leaves to the numpy kernel too the states
    it cannot write in place: of another shape, or not C-contiguous float.
    """
    kernel = _kernel()
    _BOUND["numpy" if kernel is None else "compiled"] += 1
    if kernel is None:
        return _numpy_loop(shape, params, spec, config)
    size = math.prod(shape)
    g, u, f = params.forcing.values, np.empty(size), np.empty(2 * size)
    block = functools.partial(
        kernel, shape[0], size // shape[0], params.boundary is Boundary.PERIODIC,
        spec.kind is NonlinearityKind.CUBIC, config.scheme is Scheme.HEUN, _neg_c(params, spec),
        params.coupling, float(spec._neg_b), config.dt, 0.5 * config.dt, _GUARD_TOTAL,
        *(x.ctypes.data_as(ctypes.c_void_p) for x in (g, u, f)))  # each keeps its array
    numpy_steps = functools.cache(lambda: _numpy_loop(shape, params, spec, config))

    def steps(v0, w, states=None, first_step=0):
        w = np.ascontiguousarray(w, dtype=float)
        # the nodes land in states, or v0's copy is stepped in place: out, one node long
        out = np.array(v0, dtype=float, order="C")[None] if states is None else states
        if (w.shape[1:] == out.shape[1:] == shape and len(w) and out.dtype == float
                and len(out) == (1 if states is None else len(w)) and out.flags.c_contiguous):
            if states is not None:
                states[0] = v0
            if not block(len(w) - 1, w.ctypes.data, out.ctypes.data,
                         0 if states is None else size):
                return out[-1]
        return numpy_steps()(v0, w, states, first_step)

    return steps


def _numpy_loop(shape: tuple, params: LatticeParams, spec: NonlinearitySpec,
                config: SolverConfig):
    """The numpy kernel: ``steps(v0, w, states=None, first_step=0) -> v`` for site-major
    (d, ...) states of ``shape``, every buffer, view and constant bound here, once.

    ``steps`` advances v0 over the nodes of the noise rows w, (nodes,) + ``shape``, and
    returns the last v, with node k written into ``states[k]``, or stepped in place on a
    copy of v0 with ``states`` None.  A step is one straight run of ufunc calls.  Each
    stage writes F(v + w) = -c u + kappa (u_{i-1} + u_{i+1}) + r(u) + g into its own
    buffer, c = 2 kappa + lam + a folding the scalar linear terms: every left neighbour's
    kappa u is added, then every right one's, then r, the spec's ``remainder`` prepared
    per stage (None for the linear kind), then g.  Each step sums the squares of the
    state in one reduction; past ``_GUARD_TOTAL`` the row norms, each row's squares
    summed in site order from a row-major copy, are checked against ``BLOWUP_NORM``, and
    past that a non-finite r is ``NonlinearityOverflowError``, anything else a blow-up,
    its time counting ``first_step`` steps already taken by the run this call continues.
    """
    u0, u1, ku, f0, f1, work, g = (np.empty(shape) for _ in range(7))
    g[...] = params.forcing.values.reshape((-1,) + (1,) * (len(shape) - 1))
    neg_c = _operand(_neg_c(params, spec))
    kappa, dt, half_dt = (_operand(x) for x in (params.coupling, config.dt, 0.5 * config.dt))
    remainder0, remainder1 = spec.remainder(shape), spec.remainder(shape)
    has_r, heun = remainder0 is not None, config.scheme is Scheme.HEUN
    wrap = params.boundary is Boundary.PERIODIC
    # each stage's (out, ku) slice pairs: left, wrap left, right, wrap right; the wrap
    # pairs, read only when wrap, repeat the inner ones under zero padding
    pairs = [p for f in (f0, f1) for side in _neighbours(f, ku, params.boundary)
             for p in (side[0], side[-1])]
    (f0l, kl), (f0wl, kwl), (f0r, kr), (f0wr, kwr), (f1l, _), (f1wl, _), (f1r, _), (f1wr, _) = pairs
    squares = work.reshape(-1)  # a view: one reduction over the whole state
    add, multiply, total = np.add, np.multiply, np.add.reduce

    def steps(v0, w, states=None, first_step=0):
        if states is None:
            v = np.array(v0, dtype=float)
            targets = [v] * (len(w) - 1)
        else:
            states[0] = v0
            v, targets = states[0], states[1:]
        w0 = w[0]
        with np.errstate(over="ignore", invalid="ignore"):
            for step, w1, nxt in zip(range(first_step + 1, first_step + len(w)), w[1:],
                                     targets):
                add(v, w0, u0)
                multiply(u0, kappa, ku)
                multiply(u0, neg_c, f0)
                add(f0l, kl, f0l)
                if wrap:
                    add(f0wl, kwl, f0wl)
                add(f0r, kr, f0r)
                if wrap:
                    add(f0wr, kwr, f0wr)
                if has_r:
                    r0 = remainder0(u0)
                    add(f0, r0, f0)
                add(f0, g, f0)
                if heun:
                    multiply(f0, dt, work)
                    add(v, work, work)  # the predictor v + dt f0
                    add(work, w1, u1)
                    multiply(u1, kappa, ku)
                    multiply(u1, neg_c, f1)
                    add(f1l, kl, f1l)
                    if wrap:
                        add(f1wl, kwl, f1wl)
                    add(f1r, kr, f1r)
                    if wrap:
                        add(f1wr, kwr, f1wr)
                    if has_r:
                        r1 = remainder1(u1)
                        add(f1, r1, f1)
                    add(f1, g, f1)
                    add(f0, f1, f1)
                    multiply(f1, half_dt, f1)
                    add(v, f1, nxt)  # v + dt/2 (f0 + f1)
                else:
                    multiply(f0, dt, f0)
                    add(v, f0, nxt)
                v, w0 = nxt, w1
                multiply(v, v, work)
                if (not total(squares) <= _GUARD_TOTAL
                        and not math.sqrt(_row_sums(work).max()) <= BLOWUP_NORM):
                    if has_r and not (np.isfinite(r0).all()
                                      and (not heun or np.isfinite(r1).all())):
                        raise _overflow(spec)
                    raise BlowUpError(
                        f"|v| exceeded {BLOWUP_NORM:.0e} at t={step * config.dt:.6g}; "
                        "check dissipativity or reduce dt"
                    )
        return v

    return steps


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Each row's sum over the sites of a site-major ``x``, added in a row-major copy's order."""
    return np.ascontiguousarray(np.moveaxis(x, 0, -1)).sum(axis=-1)


def _read_noise(field: NoiseField, j, local) -> np.ndarray:
    """W at steps ``local`` (steps, runs) of runs from noise nodes j.

    Re-anchored once, at the run's start node, in place on one gathered copy:
    (omega - omega[j]) sigma, the noise of theta_(t0) omega, t0 node j's time,
    bit for bit as the field shift of ``tests/oracles.py`` makes it; at t = 0's node, W.
    Returned site-major, as a (steps, d, runs) view of that copy.
    """
    w = field.paths[j + local]
    w -= field.paths[j]
    w *= field.sigma.values
    return np.moveaxis(w, -1, 1)


def _run_row(grid: TimeGrid, t0: float, t: float, config: SolverConfig) -> tuple[int, int] | None:
    """(noise node of t0, solver steps) of the run over [t0, t0 + t]; None if it takes no step.

    Raises before any step: first for a step other than the noise step (``_node_step``),
    then for a t0 off or outside the noise grid, a ``t`` below 0 or off the solver grid,
    and ``WindowError`` for noise read past the grid.
    """
    _node_step(config, grid)
    j = grid.index_of(t0)
    n = _steps(t, config)
    if j + n > grid.n_steps:
        raise WindowError(f"noise window ends at {grid.t_end} but integration needs {t}")
    return (j, n) if n else None


def _forward_row(grid: TimeGrid, t: float, config: SolverConfig) -> tuple[int, int]:
    """The ``_run_row`` of the run over [0, t], which must take a step."""
    row = _run_row(grid, 0.0, t, config)
    if row is None:
        raise ValueError("t_end must be at least one step (phi(0) is the identity)")
    return row


def _start_values(u0, field: NoiseField, params: LatticeParams) -> np.ndarray:
    """Values of a LatticeVector or (n_starts, d) batch; all widths must agree."""
    single = isinstance(u0, LatticeVector)
    x = u0.values if single else np.asarray(u0, dtype=float)
    if ((not single and x.ndim != 2) or x.shape[-1] != params.n_sites
            or field.half_width != params.half_width):
        raise ValueError(f"start {x.shape}, params ({params.n_sites} sites) and "
                         f"field ({field.n_sites} sites) widths differ")
    return x


def _runs(rows) -> list[tuple[int, int]]:
    """The runs that ``_step_rows`` steps for ``rows``: each distinct one that takes a step,
    longest first."""
    return sorted({r for r in rows if r}, key=lambda r: (-r[1], r))


def _step_rows(rows, field: NoiseField, starts, params: LatticeParams,
               spec: NonlinearitySpec, config: SolverConfig, collect: bool = False) -> np.ndarray:
    """Endpoint of each (noise node, steps) run from ``starts``, in the order given.

    The runs come in any order, with repeats and None for a run of no step;
    a run reads its noise re-anchored at its start node (see ``_read_noise``).
    The starts are a LatticeVector or an (n_starts, d) batch.  A step other than the noise
    step or past a ``step_margin`` of 2 is a ValueError before any step.
    Each distinct run steps once, in one staggered batch from the longest run's start (a
    blow-up's time counts from there): the runs end together, the site-major state
    (d, runs, starts) stepped by one ``_step_loop`` kernel per batch shape, each call
    handed a noise block of at most ``_BLOCK_VALUES`` values with the starts filled in,
    written into one buffer that every block reuses.  Returns (runs,) + the starts' shape,
    C-contiguous, a None run's entry being the starts; with ``collect``, which
    takes one run only (ValueError before any step), that run's u at every
    step, (steps + 1,) + that shape, as a view of the site-major states: a
    block writes its nodes there as v and makes all but its last u = v + w,
    and the next block steps on from that v.
    """
    if collect and len(set(rows)) > 1:
        raise ValueError(f"collect keeps the states of one run, not of {len(set(rows))}")
    x = _start_values(starts, field, params)
    runs = _runs(rows)
    if not runs:
        return np.stack([x] * len(rows))
    _node_step(config, field.grid)
    _stable_step(step_margin(config.dt, params, spec))
    (j, n), sites = np.array(runs).T, x.reshape(-1, params.n_sites).T  # (d, starts)
    d, n_starts = sites.shape
    joins = n[0] - n  # global step at which a run starts
    bounds = sorted(set(joins.tolist())) + [int(n[0])]
    states = np.empty((n[0] + 1, d, 1, n_starts)) if collect else None
    v, buffer = np.empty((d, 0, n_starts)), np.empty(0)
    for a, b in zip(bounds, bounds[1:]):
        r = int(np.searchsorted(joins, a, side="right"))  # runs active from step a
        node = (d, r, n_starts)  # one node of the noise block
        block = max(1, _BLOCK_VALUES // math.prod(node) - 1)  # steps per call
        steps = _step_loop(node, params, spec, config)
        for c in range(a, b, block):
            e = min(b, c + block)
            size = (e - c + 1) * math.prod(node)
            if buffer.size < size:
                buffer = np.empty(size)
            w = buffer[:size].reshape((e - c + 1,) + node)
            w[...] = _read_noise(field, j[:r], np.arange(c, e + 1)[:, None] - joins[:r])[..., None]
            if c == a:  # the runs joining here start from x - w[0], as v0
                v = np.concatenate([v, sites[:, None] - w[0, :, v.shape[1]:]], axis=1)
            view = states[c:e + 1] if collect else None
            v = steps(v, w, view, c)
            if collect:
                view[:-1] += w[:-1]
    v += w[-1]
    if collect:
        return states.transpose(0, 2, 3, 1).reshape((n[0] + 1,) + x.shape)
    # row-major endpoints: np.stack keeps its operands' layout, and norms downstream add
    # in memory order
    ends = dict(zip(runs, np.ascontiguousarray(v.transpose(1, 2, 0)).reshape(
        (len(runs),) + x.shape)))
    return np.stack([ends.get(r, x) for r in rows])


def integrate(
    u0: LatticeVector,
    field: NoiseField,
    params: LatticeParams,
    spec: NonlinearitySpec,
    config: SolverConfig,
) -> VectorSeries:
    """Pathwise solution u on the solver nodes of [0, t_end].

    Deterministic given its inputs; the whole run happens in the
    transformed variable and u = v + W is reconstructed on the nodes.
    """
    if not isinstance(u0, LatticeVector):
        raise TypeError("integrate takes one LatticeVector; batch through cocycle_map")
    states = _step_rows([_forward_row(field.grid, config.t_end, config)], field, u0, params,
                        spec, config, collect=True)
    return VectorSeries(TimeGrid(dt=config.dt, n_steps=states.shape[0] - 1), states)


def cocycle_map(
    t: float,
    field: NoiseField,
    u0: LatticeVector | np.ndarray,
    params: LatticeParams,
    spec: NonlinearitySpec,
    config: SolverConfig,
) -> LatticeVector | np.ndarray:
    """Solution map phi(t, field, u0).  phi(0) returns u0 untouched.

    ``u0`` is one ``LatticeVector``, giving one, or an (n_starts, d)
    array of starts, giving the array of their endpoints.  A batch shares
    the one noise realization and steps vectorized; each row equals the
    single run from that start bit for bit.  It is the one-run
    ``_step_rows`` batch from the node of t = 0, so it reads its noise in blocks.
    """
    row = _run_row(field.grid, 0.0, t, config)
    if row is None:
        _start_values(u0, field, params)  # the identity, on a start of the right width
        return u0
    end = _step_rows([row], field, u0, params, spec, config)[0]
    return LatticeVector(end) if isinstance(u0, LatticeVector) else end
