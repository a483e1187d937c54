import itertools
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fraclattice import solver
from fraclattice.attractor import _pullback_ladder
from fraclattice.errors import BlowUpError, NonlinearityOverflowError, WindowError
from fraclattice.fbm import TimeGrid
from fraclattice.lattice import (
    Boundary,
    LatticeParams,
    LatticeVector,
    NonlinearityKind,
    NonlinearitySpec,
)
from fraclattice.noise import build_noise_field, decayed_exp_sweep
from fraclattice.solver import (
    _GUARD_TOTAL,
    BLOWUP_NORM,
    Scheme,
    SolverConfig,
    _step_loop,
    cocycle_map,
    integrate,
)
from oracles import (cocycle_check, gronwall_envelope, laplacian_array, laplacian_modes,
                     linear_oracle, rolled)

CUBIC = NonlinearitySpec.cubic(1.0, 1.0)
LINEAR = NonlinearitySpec.linear(1.0)


def make_params(half_width=8, boundary=Boundary.ZERO_PADDING, sigma=None, forcing=None,
                coupling=1.0):
    return LatticeParams(
        coupling=coupling,
        damping=1.0,
        forcing=LatticeVector.from_support(half_width, forcing or {}),
        noise_amp=LatticeVector.from_support(
            half_width, sigma if sigma is not None else {0: 0.8, 2: 0.5, -3: 0.6}
        ),
        half_width=half_width,
        boundary=boundary,
    )


def rhs(v, w, params, spec):
    """The kernel's drift F(v + w) at one instant: one Euler step of dt 1 from -0, which
    adds -0 to u = v + w and to 1 F, so both come through bit for bit, sign of zero
    included.  A non-finite remainder would fail the step's guard."""
    u = v + w
    cfg = SolverConfig(dt=1.0, t_end=1.0, scheme=Scheme.EULER)
    return run_kernel(np.full(np.shape(u), -0.0), np.stack([u, u]), params, spec, cfg)


def run_kernel(v0, w, params, spec, cfg, states=None, first_step=0):
    """The kernel of site-major ``v0``'s shape, bound and run once over the noise rows w."""
    return _step_loop(np.shape(v0), params, spec, cfg)(v0, w, states, first_step)


class TestRhs:
    def test_unforced_equilibrium(self):
        params = make_params(4, sigma={})
        zero = LatticeVector.zeros(4)
        out = LatticeVector(rhs(zero.values, zero.values, params, LINEAR))
        assert out.norm() == 0.0

    def test_no_noise_reduces_to_drift(self):
        params = make_params(4, forcing={0: 0.3}, sigma={})
        rng = np.random.default_rng(0)
        v = rng.standard_normal(9)
        lhs = rhs(v, np.zeros(9), params, CUBIC)
        drift = (
            -laplacian_array(v, params.boundary) - v + CUBIC.eval_array(v)
            + params.forcing.values
        )
        np.testing.assert_allclose(lhs, drift, rtol=0.0, atol=1e-14)

    def test_equals_drift_of_sum(self):
        # the transformed right side is the plain drift evaluated at v + W
        for boundary, spec in itertools.product(Boundary, (LINEAR, CUBIC)):
            params = make_params(6, boundary=boundary, forcing={1: 0.4})
            rng = np.random.default_rng(1)
            for _ in range(50):
                v = rng.standard_normal(13)
                w = rng.standard_normal(13)
                assert_bits_equal(rhs(v, w, params, spec), written_out_drift(v + w, params, spec))


class TestIntegrate:
    def test_rest_state_stays_zero(self):
        params = make_params(4, sigma={})
        field = build_noise_field(params, TimeGrid(dt=0.01, n_steps=100), 1)
        traj = integrate(LatticeVector.zeros(4), field, params, CUBIC,
                         SolverConfig(dt=0.01, t_end=1.0))
        assert np.all(traj.values == 0.0)

    def test_deterministic(self):
        params = make_params()
        field = build_noise_field(params, TimeGrid(dt=0.01, n_steps=100), 5)
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        u0 = LatticeVector.from_support(8, {0: 1.0})
        a = integrate(u0, field, params, CUBIC, cfg)
        b = integrate(u0, field, params, CUBIC, cfg)
        assert np.array_equal(a.values, b.values)

    def test_eigenmode_decay_matches_scalar_solution(self):
        params = make_params(8, boundary=Boundary.PERIODIC, sigma={})
        field = build_noise_field(params, TimeGrid(dt=1e-3, n_steps=2000), 1)
        eigs, modes = laplacian_modes(8)
        k = 3
        u0 = LatticeVector(modes[:, k])
        traj = integrate(u0, field, params, LINEAR, SolverConfig(dt=1e-3, t_end=2.0))
        rate = params.damping + 1.0 + params.coupling * eigs[k]
        exact = np.exp(-rate * traj.grid.times())[:, None] * modes[:, k][None, :]
        assert np.abs(traj.values - exact).max() <= 1e-6

    def test_blow_up_guard(self):
        # f stays finite while |v| passes the guard, in a run and in a batch: the step is
        # stable for the drift's linear part, margin 1.48, but far too long for the cubic's
        # stiffness at a large start
        params = make_params(4, sigma={})
        field = build_noise_field(params, TimeGrid(dt=0.25, n_steps=40), 1)
        cfg = SolverConfig(dt=0.25, t_end=10.0)
        u0 = LatticeVector.from_support(4, {0: 1e4})
        with pytest.raises(BlowUpError):
            integrate(u0, field, params, CUBIC, cfg)
        with pytest.raises(BlowUpError):
            cocycle_map(10.0, field, np.stack([np.zeros(9), u0.values]), params, CUBIC, cfg)

    def test_euler_close_to_heun_at_small_dt(self):
        params = make_params()
        field = build_noise_field(params, TimeGrid(dt=1e-3, n_steps=1000), 9)
        u0 = LatticeVector.from_support(8, {0: 1.5})
        he = integrate(u0, field, params, CUBIC, SolverConfig(dt=1e-3, t_end=1.0))
        eu = integrate(u0, field, params, CUBIC,
                       SolverConfig(dt=1e-3, t_end=1.0, scheme=Scheme.EULER))
        assert np.abs(he.values - eu.values).max() <= 0.05

    def test_subdivided_solver_step(self):
        # solver dt = noise dt / 2 reads W at the nearest node and should
        # land close to the aligned run
        params = make_params()
        field = build_noise_field(params, TimeGrid(dt=0.01, n_steps=200), 12)
        u0 = LatticeVector.from_support(8, {0: 1.0})
        coarse = integrate(u0, field, params, CUBIC, SolverConfig(dt=0.01, t_end=2.0))
        fine = integrate(u0, field, params, CUBIC, SolverConfig(dt=0.005, t_end=2.0))
        gap = np.abs(fine.values[::2] - coarse.values).max()
        assert gap <= 0.05

    def test_mismatched_dt_rejected(self):
        params = make_params()
        field = build_noise_field(params, TimeGrid(dt=0.01, n_steps=100), 5)
        with pytest.raises(ValueError):
            integrate(LatticeVector.zeros(8), field, params, CUBIC,
                      SolverConfig(dt=0.03, t_end=0.3))

    def test_ensemble_matches_single_runs(self):
        params = make_params()
        field = build_noise_field(params, TimeGrid(dt=0.01, n_steps=100), 5)
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        starts = np.array([
            LatticeVector.from_support(8, {0: 1.0}).values,
            LatticeVector.from_support(8, {1: -2.0}).values,
        ])
        ends = cocycle_map(1.0, field, starts, params, CUBIC, cfg)
        for row, start in zip(ends, starts):
            single = integrate(LatticeVector(start), field, params, CUBIC, cfg)
            np.testing.assert_array_equal(row, single.values[-1])
            one = cocycle_map(1.0, field, LatticeVector(start), params, CUBIC, cfg)
            np.testing.assert_array_equal(row, one.values)

    def test_ensemble_rejects_mismatched_widths(self):
        params = make_params(4, sigma={0: 0.8})  # 9 sites
        field = build_noise_field(params, TimeGrid(dt=0.01, n_steps=100), 5)
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        for bad in (np.ones((3, 1)), np.ones(9), np.ones((2, 8)), np.ones((1, 2, 9))):
            with pytest.raises(ValueError):
                cocycle_map(0.1, field, bad, params, CUBIC, cfg)
        wide = build_noise_field(make_params(5, sigma={0: 0.8}),
                                 TimeGrid(dt=0.01, n_steps=100), 5)
        with pytest.raises(ValueError):
            cocycle_map(0.1, wide, np.ones((2, 9)), params, CUBIC, cfg)

    def test_integrate_rejects_a_batch(self):
        params = make_params(4, sigma={0: 0.8})
        field = build_noise_field(params, TimeGrid(dt=0.01, n_steps=10), 5)
        with pytest.raises(TypeError):
            integrate(np.ones((11, 9)), field, params, CUBIC, SolverConfig(dt=0.01, t_end=0.1))

    def test_batch_at_time_zero_is_returned_unchanged(self):
        params = make_params(4, sigma={0: 0.8})
        field = build_noise_field(params, TimeGrid(dt=0.01, n_steps=10), 5)
        batch = np.arange(18.0).reshape(2, 9)
        assert cocycle_map(0.0, field, batch, params, CUBIC,
                           SolverConfig(dt=0.01, t_end=0.1)) is batch


def reference_f(spec, u):
    """f(u) from the literal formula of each kind."""
    if spec.kind is NonlinearityKind.LINEAR:
        return -spec.a * u
    return -spec.a * u - spec.b * (u * u * u)


def reference_r(spec, u):
    """r(u) = f(u) + a u from the literal formula of each kind; None for the linear kind."""
    if spec.kind is NonlinearityKind.LINEAR:
        return None
    return -spec.b * (u * u * u)


def written_out_drift(u, params, spec):
    """F(u) = -c u + kappa (u_{i-1} + u_{i+1}) + r(u) + g, c = 2 kappa + lam + a, site by
    site along the last axis: the left neighbour's kappa u added first, then the right
    one's, a neighbour missing under zero padding skipped."""
    c = 2.0 * params.coupling + params.damping + spec.a
    ku = params.coupling * u
    d, wrap = u.shape[-1], params.boundary is Boundary.PERIODIC
    out = np.empty_like(u)
    for i in range(d):
        site = -c * u[..., i]
        if i > 0 or wrap:
            site = site + ku[..., i - 1]
        if i < d - 1 or wrap:
            site = site + ku[..., (i + 1) % d]
        out[..., i] = site
    r = reference_r(spec, u)
    return (out if r is None else out + r) + params.forcing.values


def unfolded_drift(u, params, spec):
    """F(u) = -kappa A u - lam u + f(u) + g term by term, from rolled copies: the drift
    before its scalar linear terms are folded into one coefficient."""
    return (-params.coupling * laplacian_array(u, params.boundary) - params.damping * u
            + reference_f(spec, u) + params.forcing.values)


def written_out_steps(v, ws, params, spec, dt, scheme, drift=written_out_drift):
    """Solver steps of v over the noise rows ws, from the site-by-site written-out drift."""
    for w0, w1 in zip(ws, ws[1:]):
        f0 = drift(v + w0, params, spec)
        if scheme is Scheme.EULER:
            v = v + dt * f0
        else:
            f1 = drift(v + dt * f0 + w1, params, spec)
            v = v + 0.5 * dt * (f0 + f1)
    return v


def written_out_step(u0, field, params, spec, dt, scheme):
    """One solver step from the written-out drift."""
    w0, w1 = field.at(0.0).values, field.at(dt).values
    return written_out_steps(u0 - w0, [w0, w1], params, spec, dt, scheme) + w1


def assert_bits_equal(a, b):
    """Equal arrays down to the sign of zero."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestKernel:
    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("spec", [LINEAR, CUBIC], ids=["linear", "cubic"])
    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_one_step_equals_written_out_drift(self, boundary, spec, scheme):
        # noise and forcing sit on both edge sites, so the periodic wrap
        # matters; the step is long, so the drift's rounding shows in the state, and the
        # coupling small enough that it is stable, margin 1.98 at most
        params = make_params(4, boundary=boundary, sigma={-4: 0.7, 0: 0.8, 4: 0.5},
                             forcing={-4: 0.2, 1: 0.4}, coupling=0.5)
        field = build_noise_field(params, TimeGrid(dt=0.5, n_steps=2), 3)
        cfg = SolverConfig(dt=0.5, t_end=0.5, scheme=scheme)
        batch = 2.0 * np.random.default_rng(4).standard_normal((3, 9))
        ends = cocycle_map(0.5, field, batch, params, spec, cfg)
        np.testing.assert_array_equal(
            ends, written_out_step(batch, field, params, spec, 0.5, scheme))
        one = cocycle_map(0.5, field, LatticeVector(batch[0]), params, spec, cfg)
        np.testing.assert_array_equal(
            one.values, written_out_step(batch[0], field, params, spec, 0.5, scheme))


class TestStepErrors:
    """A non-finite f is NonlinearityOverflowError, not a blow-up."""

    params = make_params(4, sigma={0: 0.8})
    field = build_noise_field(params, TimeGrid(dt=0.01, n_steps=100), 5)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_cubic_overflow(self, scheme):
        cfg = SolverConfig(dt=0.01, t_end=1.0, scheme=scheme)
        u0 = LatticeVector.from_support(4, {0: 1e110})
        with pytest.raises(NonlinearityOverflowError):
            integrate(u0, self.field, self.params, CUBIC, cfg)
        with pytest.raises(NonlinearityOverflowError):
            cocycle_map(1.0, self.field, u0, self.params, CUBIC, cfg)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_cubic_overflow_when_the_noise_arrives(self, scheme):
        # W is 0 at the start node and about 1e200 after it, so f is finite at the start and
        # overflows at the first stage that reads W past it: Euler's second step, the
        # corrector of Heun's first
        params = make_params(4, sigma={0: 1e200})
        field = build_noise_field(params, TimeGrid(dt=0.01, n_steps=100), 5)
        cfg = SolverConfig(dt=0.01, t_end=1.0, scheme=scheme)
        if scheme is Scheme.EULER:
            cocycle_map(0.01, field, LatticeVector.zeros(4), params, CUBIC, cfg)
        with pytest.raises(NonlinearityOverflowError):
            integrate(LatticeVector.zeros(4), field, params, CUBIC, cfg)
        with pytest.raises(NonlinearityOverflowError):
            cocycle_map(1.0, field, np.zeros((2, 9)), params, CUBIC, cfg)

    def test_batch_with_one_overflowing_row(self):
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        starts = np.zeros((2, 9))
        cocycle_map(1.0, self.field, starts, self.params, CUBIC, cfg)
        starts[1, 4] = 1e110
        with pytest.raises(NonlinearityOverflowError):
            cocycle_map(1.0, self.field, starts, self.params, CUBIC, cfg)


def kernel_params(half_width, coupling=1.0, damping=1.0, forcing=None,
                  boundary=Boundary.ZERO_PADDING):
    """Noise-free params: _step_loop takes its noise rows as an argument."""
    return LatticeParams(
        coupling=coupling, damping=damping,
        forcing=LatticeVector(np.zeros(2 * half_width + 1) if forcing is None else forcing),
        noise_amp=LatticeVector.zeros(half_width), half_width=half_width, boundary=boundary,
    )


def layout(name, d, n_steps, rng, n_starts=3):
    """Start and noise rows of one batch layout, batch-major: a start, starts, or the
    ladder's rows of ``n_starts`` starts each."""
    if name == "single":
        return rng.standard_normal(d), rng.standard_normal((n_steps + 1, d))
    if name == "batch":
        return rng.standard_normal((n_starts, d)), rng.standard_normal((n_steps + 1, d))
    return (rng.standard_normal((2, n_starts, d)),
            rng.standard_normal((n_steps + 1, 2, 1, d)))


LAYOUTS = ["single", "batch", "ladder"]


def site_major(v0, w):
    """A batch-major start (..., d) and its noise rows (nodes, ..., d) as the step loop
    takes them: (d, ...) and (nodes, d, ...), the rows broadcast to the start's shape."""
    w = w.reshape(w.shape[:1] + (1,) * (np.ndim(v0) + 1 - w.ndim) + w.shape[1:])
    w = np.broadcast_to(w, (len(w),) + np.shape(v0))
    return (np.ascontiguousarray(np.moveaxis(v0, -1, 0)),
            np.ascontiguousarray(np.moveaxis(w, -1, 1)))


def batch_major(x):
    """A site-major state (d, ...) with its sites moved back last."""
    return np.moveaxis(x, 0, -1)


def collected(v0, w, params, spec, cfg):
    """Every node of one ``_step_loop`` run, written into one states array."""
    states = np.empty((len(w),) + np.shape(v0))
    run_kernel(v0, w, params, spec, cfg, states)
    return states


#: The kernel configurations the property tests draw from.
KERNEL_CONFIGS = dict(
    boundary=st.sampled_from(list(Boundary)), scheme=st.sampled_from(list(Scheme)),
    spec=st.sampled_from([LINEAR, CUBIC, NonlinearitySpec.cubic(0.3, 1.7)]),
    coupling=st.floats(0.0, 2.0, exclude_min=True), damping=st.floats(0.2, 2.0),
    forced=st.booleans(), name=st.sampled_from(LAYOUTS),
    n_starts=st.sampled_from([1, 2, 5]), half_width=st.integers(1, 4),
    n_steps=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))


class TestKernelOverConfigs:
    @settings(max_examples=150)
    @given(**KERNEL_CONFIGS)
    def test_steps_equal_written_out_reference(self, boundary, scheme, spec, coupling,
                                               damping, forced, name, n_starts, half_width,
                                               n_steps, seed):
        # the reference steps batch-major, row by row; the kernel steps site-major
        d = 2 * half_width + 1
        rng = np.random.default_rng(seed)
        params = kernel_params(half_width, coupling, damping,
                               rng.standard_normal(d) if forced else None, boundary)
        v0, w = layout(name, d, n_steps, rng, n_starts)
        v0[..., 0] = -0.0  # the sign of zero must come out as the reference's
        cfg = SolverConfig(dt=0.05, t_end=0.05 * n_steps, scheme=scheme)
        refs = []
        for k in range(n_steps + 1):
            refs.append(written_out_steps(v0, w[: k + 1], params, spec, 0.05, scheme))
            if np.linalg.norm(refs[-1], axis=-1).max() > BLOWUP_NORM:
                # the guard stops the run at the reference's first node past the bound
                with pytest.raises(BlowUpError, match=f"at t={k * 0.05:.6g};"):
                    collected(*site_major(v0, w), params, spec, cfg)
                return
        states = collected(*site_major(v0, w), params, spec, cfg)
        for k in range(n_steps + 1):
            assert_bits_equal(batch_major(states[k]), refs[k])
        assert_bits_equal(run_kernel(*site_major(v0, w), params, spec, cfg), states[-1])


class TestLinearPart:
    """The drift's scalar linear terms fold into one coefficient -c u, c = 2 kappa + lam + a."""

    @settings(max_examples=150)
    @given(**KERNEL_CONFIGS)
    def test_fold_is_within_ulps_of_the_unfolded_drift(self, boundary, scheme, spec, coupling,
                                                       damping, forced, name, n_starts,
                                                       half_width, n_steps, seed):
        # each formula rounds about a dozen times, each time by at most half an ulp of a
        # value bounded by the site's sum of absolute terms s, so the two differ by at
        # most 16 ulp of s, a bound fixed before the first run
        d = 2 * half_width + 1
        rng = np.random.default_rng(seed)
        params = kernel_params(half_width, coupling, damping,
                               rng.standard_normal(d) if forced else None, boundary)
        v0, w = layout(name, d, 1, rng, n_starts)
        v, w = site_major(v0, w)
        folded = batch_major(rhs(v, w[0], params, spec))
        u = batch_major(v + w[0])
        au = np.abs(u)
        rest = np.abs(reference_f(spec, u) + spec.a * u)
        s = ((2 * coupling + damping + spec.a) * au
             + coupling * (rolled(au, boundary, 1) + rolled(au, boundary, -1))
             + rest + np.abs(params.forcing.values))
        assert (np.abs(folded - unfolded_drift(u, params, spec))
                <= 16 * np.finfo(float).eps * s).all()

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_linear_blow_up_at_the_reference_step(self, boundary, scheme):
        # dt = 1 is unstable; the linear kind has no remainder to overflow, so past the
        # bound it is a blow-up, at the first step the written-out references pass it
        params = kernel_params(2, boundary=boundary)
        v0 = np.array([[3e5, -1e6, 2e5, 0.0, 7e5], [0.0, 1.0, 0.0, 0.0, -1.0]])
        w = np.zeros((40, 5))
        steps = []
        for drift in (written_out_drift, unfolded_drift):
            v, k = v0, 0
            while np.linalg.norm(v, axis=1).max() <= BLOWUP_NORM:
                v, k = written_out_steps(v, w[:2], params, LINEAR, 1.0, scheme, drift), k + 1
            steps.append(k)
        assert steps[0] == steps[1] and 2 < steps[0] < 39
        with pytest.raises(BlowUpError, match=f"at t={steps[0]:.6g};"):
            run_kernel(*site_major(v0, w), params, LINEAR, SolverConfig(1.0, 39.0, scheme))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_linear_state_overflow_is_a_blow_up(self, scheme):
        # one step takes the state to inf: still a blow-up, never an overflow of f
        params = kernel_params(2)
        v0, w = site_major(np.full(5, 1e300), np.zeros((3, 5)))
        with pytest.raises(BlowUpError, match=r"at t=1e\+10;"):
            run_kernel(v0, w, params, LINEAR, SolverConfig(1e10, 2e10, scheme))


class TestGuard:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rows_just_under_the_bound_step_on(self, scheme):
        # four rows of norm 0.9e12 sum past the one-reduction bound, so
        # every step falls back to the row norms, and none passes 1e12
        params = kernel_params(2)
        v0 = 0.9e12 * np.eye(5)[:4]
        w = np.zeros((4, 5))
        assert np.add.reduce((v0 * v0).reshape(-1)) > _GUARD_TOTAL
        cfg = SolverConfig(dt=0.01, t_end=0.03, scheme=scheme)
        ends = batch_major(run_kernel(*site_major(v0, w), params, LINEAR, cfg))
        assert np.add.reduce((ends * ends).reshape(-1)) > _GUARD_TOTAL
        assert_bits_equal(ends, written_out_steps(v0, w, params, LINEAR, 0.01, scheme))

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("first_step", [0, 7])
    def test_blow_up_time_is_the_first_row_past_the_bound(self, scheme, first_step):
        # dt = 1 is unstable for the linear drift: each step multiplies |v|
        params = kernel_params(2)
        v0 = np.array([[1e6, -2e6, 0.5e6, 0.0, 1e6], [1.0, 0.0, 0.0, 0.0, 0.0]])
        w = np.zeros((40, 5))
        v, k = v0, 0
        while np.linalg.norm(v, axis=1).max() <= 1e12:
            v, k = written_out_steps(v, w[:2], params, LINEAR, 1.0, scheme), k + 1
        cfg = SolverConfig(dt=1.0, t_end=39.0, scheme=scheme)
        with pytest.raises(BlowUpError, match=f"at t={first_step + k:.6g};"):
            run_kernel(*site_major(v0, w), params, LINEAR, cfg, first_step=first_step)
        assert 2 < k < 39

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("name", LAYOUTS)
    def test_cubic_overflow_in_every_layout(self, scheme, name):
        params = kernel_params(2)
        v0, w = layout(name, 5, 3, np.random.default_rng(2))
        v0[..., 2] = 1e110
        cfg = SolverConfig(dt=0.01, t_end=0.03, scheme=scheme)
        with pytest.raises(NonlinearityOverflowError):
            run_kernel(*site_major(v0, w), params, CUBIC, cfg)


class CountedUfunc:
    """Stands in for a ufunc, appending its name to ``calls`` on each call and reduce."""

    def __init__(self, ufunc, calls):
        self.ufunc, self.calls = ufunc, calls

    def __call__(self, *args, **kwargs):
        self.calls.append(self.ufunc.__name__)
        return self.ufunc(*args, **kwargs)

    def reduce(self, *args, **kwargs):
        self.calls.append(self.ufunc.__name__ + ".reduce")
        return self.ufunc.reduce(*args, **kwargs)


#: ufunc calls per step, by kind, boundary and scheme: a stage adds u = v + w, makes kappa u
#: and -c u, adds the left and right stencil slices (two more with the periodic wrap), then
#: r (three products more for the cubic) and g; Heun adds the predictor's two calls and the
#: update's three, Euler the update's two, and the guard squares and sums the state
UFUNC_CALLS = {
    ("linear", "zero-padding", "heun"): 19, ("linear", "periodic", "heun"): 23,
    ("cubic", "zero-padding", "heun"): 27, ("cubic", "periodic", "heun"): 31,
    ("linear", "zero-padding", "euler"): 10, ("linear", "periodic", "euler"): 12,
    ("cubic", "zero-padding", "euler"): 14, ("cubic", "periodic", "euler"): 16,
}


class TestStepCost:
    """A step is a fixed run of ufunc calls, with one Python-level call per stage at most."""

    SPECS = {"linear": LINEAR, "cubic": CUBIC}

    def kernel_run(self, kind, boundary, scheme, n_steps):
        params = kernel_params(2, forcing=np.linspace(-1.0, 1.0, 5), boundary=boundary)
        cfg = SolverConfig(dt=0.01, t_end=0.01 * n_steps, scheme=scheme)
        v0, w = site_major(*layout("batch", 5, n_steps, np.random.default_rng(n_steps)))
        return _step_loop(v0.shape, params, self.SPECS[kind], cfg), v0, w

    @pytest.mark.parametrize("kind, boundary, scheme", list(UFUNC_CALLS))
    def test_ufunc_calls_per_step(self, monkeypatch, kind, boundary, scheme):
        # binding the kernel makes no ufunc call, and each step makes the same ones
        counts, ends = [], []
        for n_steps in (1, 2, 5):
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(np, "add", CountedUfunc(np.add, calls))
                patch.setattr(np, "multiply", CountedUfunc(np.multiply, calls))
                steps, v0, w = self.kernel_run(kind, boundary, scheme, n_steps)
                ends.append(steps(v0, w))
            counts.append(len(calls))
            steps, v0, w = self.kernel_run(kind, boundary, scheme, n_steps)
            assert_bits_equal(ends[-1], steps(v0, w))
        assert counts == [UFUNC_CALLS[kind, boundary, scheme] * n for n in (1, 2, 5)]

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("kind", list(SPECS))
    def test_python_calls_per_step(self, kind, boundary, scheme):
        # the prepared remainder is a step's one Python-level call per stage; the linear
        # kind, which has none, makes no Python-level call in a step
        counts = []
        for n_steps in (1, 2, 5):
            steps, v0, w = self.kernel_run(kind, boundary, scheme, n_steps)
            calls = []
            sys.setprofile(lambda frame, event, arg: calls.append(1) if event == "call"
                           else None)
            try:
                steps(v0, w)
            finally:
                sys.setprofile(None)
            counts.append(len(calls))
        per_step = 0 if kind == "linear" else 2 if scheme is Scheme.HEUN else 1
        assert [c - counts[0] for c in counts] == [0, per_step, 4 * per_step]


class TestStepMargin:
    @pytest.mark.parametrize("half_width", [1, 2, 3, 4])
    def test_laplacian_radius_is_the_dense_one(self, half_width):
        # at dt 1 and kappa 1 the margin is rho(A) itself: lam + a = 2^-59 is under half an
        # ulp of rho(A)
        d, tiny = 2 * half_width + 1, NonlinearitySpec.linear(2.0**-60)
        zero, periodic = (solver.step_margin(1.0, kernel_params(half_width, damping=2.0**-60,
                                                                boundary=b), tiny)
                          for b in (Boundary.ZERO_PADDING, Boundary.PERIODIC))
        dense = {b: np.linalg.eigvalsh(laplacian_array(np.eye(d), b)).max() for b in Boundary}
        assert zero == pytest.approx(dense[Boundary.ZERO_PADDING], rel=1e-14, abs=0)
        assert periodic == pytest.approx(dense[Boundary.PERIODIC], rel=1e-14, abs=0)
        assert periodic == pytest.approx(laplacian_modes(half_width)[0].max(), rel=1e-14, abs=0)

    def test_driver_refuses_a_step_past_the_margin(self):
        # d = 33, kappa = lam = a = 1: dt 0.5 is margin 3.0, where the top mode took |u| to
        # 2.3e7 by t = 10 unchecked; every run refuses it before its first step, and dt
        # 0.25, margin 1.5, decays
        params = make_params(16)
        field = build_noise_field(params, TimeGrid(dt=0.5, n_steps=20), 0)
        u0 = LatticeVector.from_support(16, {0: 1.0})
        unstable = SolverConfig(dt=0.5, t_end=10.0)
        message = (r"^dt \(kappa rho\(A\) \+ lam \+ a\) = 3 exceeds 2, where an explicit "
                   "step grows the top lattice mode$")
        for run in (lambda: cocycle_map(10.0, field, u0, params, LINEAR, unstable),
                    lambda: cocycle_map(0.5, field, np.zeros((2, 33)), params, LINEAR, unstable),
                    lambda: integrate(u0, field, params, LINEAR, unstable)):
            with pytest.raises(ValueError, match=message):
                run()
        stable = SolverConfig(dt=0.25, t_end=10.0)
        assert cocycle_map(10.0, field, u0, params, LINEAR, stable).norm() < 1.0

    @settings(max_examples=100)
    @given(coupling=st.floats(0.0, 2.0, exclude_min=True), damping=st.floats(0.2, 2.0),
           a=st.floats(0.0, 2.0, exclude_min=True), boundary=st.sampled_from(list(Boundary)),
           scheme=st.sampled_from(list(Scheme)), half_width=st.integers(1, 4),
           margin=st.floats(1.5, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_stable_to_the_edge_and_growing_past_it(self, coupling, damping, a, boundary,
                                                    scheme, half_width, margin, seed):
        # noise-free and unforced, the linear drift is symmetric negative definite:
        # up to a margin of 2 no explicit step grows the state; at 2.1 the top mode grows
        params = kernel_params(half_width, coupling, damping, boundary=boundary)
        spec, d = NonlinearitySpec.linear(a), params.n_sites
        rate = solver.step_margin(1.0, params, spec)
        dt = margin / rate
        while solver.step_margin(dt, params, spec) > margin:
            dt = np.nextafter(dt, 0.0)
        assume(solver.step_margin(dt, params, spec) >= 1.5)
        w = np.zeros((201, d))
        v0 = np.random.default_rng(seed).standard_normal(d)
        states = collected(v0, w, params, spec, SolverConfig(dt, 200 * dt, scheme))
        norms = np.linalg.norm(states, axis=1)
        assert (norms <= (1 + 1e-12) * norms[0]).all()
        eye = np.eye(d)
        drift = -(coupling * laplacian_array(eye, boundary) + (damping + a) * eye)
        top = np.linalg.eigh(drift)[1][:, 0]  # the mode of the most negative eigenvalue
        dt = 2.1 / rate
        states = collected(top, w, params, spec, SolverConfig(dt, 200 * dt, scheme))
        assert (np.diff(np.linalg.norm(states, axis=1)) > 0).all()

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_boundary_given_by_value(self, boundary):
        # the params hold the member, so the margin takes its radius and the run its stencil
        by_value = make_params(4, boundary=boundary.value, forcing={1: 0.4})
        member = make_params(4, boundary=boundary, forcing={1: 0.4})
        assert by_value.boundary is boundary
        assert solver.step_margin(0.1, by_value, CUBIC) == solver.step_margin(0.1, member, CUBIC)
        field = build_noise_field(member, TimeGrid(dt=0.05, n_steps=40), 3)
        batch = np.random.default_rng(4).standard_normal((3, 9))
        cfg = SolverConfig(dt=0.05, t_end=2.0)
        assert_bits_equal(cocycle_map(2.0, field, batch, by_value, CUBIC, cfg),
                          cocycle_map(2.0, field, batch, member, CUBIC, cfg))


class TestEvalInto:
    """``eval_array``: the exact f(x) that ``absorbing_radius`` and the probes read."""

    @settings(max_examples=60)
    @given(spec=st.sampled_from([LINEAR, CUBIC, NonlinearitySpec.cubic(0.3, 1.7),
                                 NonlinearitySpec.linear(2.5)]),
           shape=st.sampled_from([(7,), (3, 5), (2, 3, 4)]), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_formula_into_the_buffer(self, spec, shape, seed):
        x = 3.0 * np.random.default_rng(seed).standard_normal(shape)
        assert_bits_equal(spec.eval_array(x), reference_f(spec, x))

    @pytest.mark.parametrize("spec", [LINEAR, CUBIC, NonlinearitySpec.cubic(0.3, 1.7)],
                             ids=["linear", "cubic", "cubic-2"])
    def test_prepared_remainder_equals_the_formula(self, spec):
        # each preparation writes into buffers of its own, so a second one's call leaves
        # the first one's r as it was; the linear kind has no remainder to prepare
        x, y = 3.0 * np.random.default_rng(3).standard_normal((2, 3, 5))
        first, second = spec.remainder((3, 5)), spec.remainder((3, 5))
        if spec.kind is NonlinearityKind.LINEAR:
            assert first is None and second is None
            return
        rx, ry = first(x), second(y)
        assert_bits_equal(rx, reference_r(spec, x))
        assert_bits_equal(ry, reference_r(spec, y))


class TestSubStepCocycle:
    # noise dt 0.02 on [0, 0.8]; the solver dt is that divided by m
    PARAMS = make_params(2, sigma={0: 0.8, 1: 0.5, -2: 0.6}, forcing={0: 0.2})
    FIELD = build_noise_field(PARAMS, TimeGrid(dt=0.02, n_steps=40), 2718)
    U0 = LatticeVector.from_support(2, {0: 1.0, 1: -0.5})

    @settings(max_examples=40)
    @given(m=st.sampled_from([1, 2, 3, 4]), scheme=st.sampled_from(list(Scheme)),
           shift=st.integers(1, 15), tau_steps=st.integers(1, 20))
    @example(m=2, scheme=Scheme.HEUN, shift=5, tau_steps=7)
    @example(m=2, scheme=Scheme.HEUN, shift=6, tau_steps=7)
    @example(m=4, scheme=Scheme.EULER, shift=3, tau_steps=2)
    def test_residual_rounding_level_for_odd_and_even_shifts(self, m, scheme, shift,
                                                             tau_steps):
        # the node a sub-step reads must not depend on the parity of the
        # shift, or the two legs see different noise
        cfg = SolverConfig(dt=0.02 / m, t_end=0.02, scheme=scheme)
        rep = cocycle_check(shift * 0.02, tau_steps * cfg.dt, self.FIELD, self.U0,
                            self.PARAMS, CUBIC, cfg)
        assert rep.residual <= 1e-12


class TestNoiseNodes:
    # noise dt 0.01 on [-1, 1]; the pullback from 0.37 joins 37 nodes back, an odd shift
    PARAMS = make_params(2, sigma={0: 0.8, 1: -0.5, -2: 0.6}, forcing={0: 0.2})
    FIELD = build_noise_field(PARAMS, TimeGrid(dt=0.01, n_steps=200, i_start=-100), 1414)
    K0 = 100  # the node of t = 0
    STARTS = np.array([[1.0, -0.5, -0.0, 0.3, 0.0], [0.2, 0.1, -1.0, 0.0, 0.5]])

    def by_hand(self, j, n, m, cfg):
        """Endpoints of the n-step run from node j, its noise written out from the
        rule: solver step k reads the nearer of the nodes around k / m, ties up."""
        nodes = [j + k // m + (2 * (k % m) >= m) for k in range(n + 1)]
        w = (self.FIELD.paths[nodes] - self.FIELD.paths[j]) * self.FIELD.sigma.values
        v = run_kernel(*site_major(self.STARTS - w[0], w), self.PARAMS, CUBIC, cfg)
        return batch_major(v) + w[-1]

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_runs_read_the_documented_nodes(self, m, scheme):
        cfg = SolverConfig(dt=0.01 / m, t_end=1.0, scheme=scheme)
        n = 37 * m + 1  # one sub-step past a node: the last step reads a rounded node
        forward = cocycle_map(n * cfg.dt, self.FIELD, self.STARTS, self.PARAMS, CUBIC, cfg)
        assert_bits_equal(forward, self.by_hand(self.K0, n, m, cfg))
        pulled = _pullback_ladder([0.37], self.FIELD, self.STARTS, self.PARAMS, CUBIC, cfg)
        assert_bits_equal(pulled[0], self.by_hand(self.K0 - 37, 37 * m, m, cfg))

    def test_blocks_keep_a_long_run(self, monkeypatch, ladder_calls):
        cfg = SolverConfig(dt=0.01 / 3, t_end=1.0)
        ref = cocycle_map(1.0, self.FIELD, self.STARTS, self.PARAMS, CUBIC, cfg)
        assert ladder_calls == [((5, 1, 2), 300)]
        # 8 nodes of 1 run, 2 starts and 5 sites: 7 steps per call
        monkeypatch.setattr(solver, "_BLOCK_VALUES", 8 * 2 * 5)
        assert_bits_equal(cocycle_map(1.0, self.FIELD, self.STARTS, self.PARAMS, CUBIC, cfg),
                          ref)
        assert len(ladder_calls) == 1 + 43
        assert_bits_equal(ref, self.by_hand(self.K0, 300, 3, cfg))

    @pytest.mark.parametrize("m, n", [(2, 201), (3, 302)])
    def test_window_end_checked_before_any_step(self, m, n):
        # 201 sub-steps at m = 2 and 302 at m = 3 read node 101 past t = 0, one past the end
        cfg = SolverConfig(dt=0.01 / m, t_end=n * 0.01 / m)
        blow_up = LatticeVector.from_support(2, {0: 1e6})
        message = f"noise window ends at 1.0 but integration needs {cfg.t_end}"
        with pytest.raises(WindowError) as forward:
            cocycle_map(cfg.t_end, self.FIELD, blow_up, self.PARAMS, CUBIC, cfg)
        with pytest.raises(WindowError) as run:
            integrate(blow_up, self.FIELD, self.PARAMS, CUBIC, cfg)
        assert str(forward.value) == str(run.value) == message
        # one sub-step less reads node 100, the last: at m = 3, 301 / 3 rounds down
        short = SolverConfig(dt=0.01 / m, t_end=(n - 1) * 0.01 / m)
        assert integrate(LatticeVector(self.STARTS[0]), self.FIELD, self.PARAMS, CUBIC,
                         short).values.shape == (n, 5)


class TestCocycle:
    def setup_method(self):
        self.params = make_params()
        self.field = build_noise_field(self.params, TimeGrid(dt=0.01, n_steps=220), 99)
        self.cfg = SolverConfig(dt=0.01, t_end=1.0)
        self.u0 = LatticeVector.from_support(8, {0: 1.0, 1: -0.5})

    def test_time_zero_is_identity_object(self):
        out = cocycle_map(0.0, self.field, self.u0, self.params, CUBIC, self.cfg)
        assert out is self.u0

    def test_negative_time_raises(self):
        with pytest.raises(ValueError, match=r"^duration -0.01 must be >= 0$"):
            cocycle_map(-0.01, self.field, self.u0, self.params, CUBIC, self.cfg)

    def test_degenerate_legs_are_exact(self):
        r0 = cocycle_check(0.0, 1.0, self.field, self.u0, self.params, CUBIC, self.cfg)
        r1 = cocycle_check(1.0, 0.0, self.field, self.u0, self.params, CUBIC, self.cfg)
        assert r0.residual == 0.0 and r1.residual == 0.0

    def test_composition_residual_rounding_level(self):
        # one-step schemes commute with the grid shift exactly in real
        # arithmetic; the measured residual is accumulated rounding
        rep = cocycle_check(1.0, 1.0, self.field, self.u0, self.params, CUBIC, self.cfg)
        assert rep.passed
        assert rep.residual <= 1e-11

    def test_deterministic(self):
        a = cocycle_map(1.0, self.field, self.u0, self.params, CUBIC, self.cfg)
        b = cocycle_map(1.0, self.field, self.u0, self.params, CUBIC, self.cfg)
        assert np.array_equal(a.values, b.values)

    def test_refinement_consistency(self):
        # endpoints form a Cauchy sequence as the step refines on one
        # noise realization
        params = make_params()
        fine = build_noise_field(params, TimeGrid(dt=2.5e-4, n_steps=4000), 31)
        from oracles import coarsen_noise

        ends = {}
        for fac, dt in ((4, 1e-3), (2, 5e-4), (1, 2.5e-4)):
            f = coarsen_noise(fine, fac)
            ends[dt] = cocycle_map(1.0, f, self.u0, params, CUBIC,
                                   SolverConfig(dt=dt, t_end=1.0))
        gap_coarse = np.linalg.norm(ends[1e-3].values - ends[5e-4].values)
        gap_fine = np.linalg.norm(ends[5e-4].values - ends[2.5e-4].values)
        assert gap_fine < gap_coarse


@pytest.mark.parametrize("scheme", list(Scheme))
def test_scheme_given_by_value(scheme):
    # a scheme given as its value is the member itself and steps as it
    params = make_params(2, sigma={0: 0.8, 2: 0.5}, forcing={0: 0.2})
    field = build_noise_field(params, TimeGrid(dt=0.01, n_steps=10), 5)
    by_value = SolverConfig(0.01, 0.1, scheme.value)
    assert by_value.scheme is scheme
    other = SolverConfig(0.01, 0.1, next(s for s in Scheme if s is not scheme))
    ends = [cocycle_map(0.1, field, np.ones((1, 5)), params, CUBIC, cfg)
            for cfg in (by_value, SolverConfig(0.01, 0.1, scheme), other)]
    assert_bits_equal(ends[0], ends[1])
    assert not np.array_equal(ends[0], ends[2])


def test_unknown_scheme_raises():
    with pytest.raises(ValueError, match="^'rk4' is not a valid Scheme$"):
        SolverConfig(0.01, 0.1, "rk4")


def test_long_run_is_a_whole_number_of_steps():
    # 65536.04 is 1.46e-11 off 6553604 * 0.01: over 1e-9 of a step, inside 1e-6 of one
    assert SolverConfig(dt=0.01, t_end=65536.04).n_steps() == 6553604


def test_refinement_rejects_a_noise_step_below_the_solver_step():
    # 1e-7 is within the slack of 0 steps of 1.0: no whole number m >= 1 of solver steps
    with pytest.raises(ValueError, match="^solver dt=1.0 must equal or evenly subdivide "
                                         "the noise dt=1e-07$"):
        SolverConfig(1.0, 1.0).refinement(1e-7)


@pytest.mark.parametrize("dt, t_end, message", [
    (0.0, 1.0, "dt must be positive"),
    (-0.01, 1.0, "dt must be positive"),
    (0.01, -0.01, "t_end must be >= 0"),
], ids=["zero-dt", "negative-dt", "negative-t-end"])
def test_input_guards(dt, t_end, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SolverConfig(dt=dt, t_end=t_end)


class TestLinearOracle:
    def setup_method(self):
        self.params = make_params(8, boundary=Boundary.PERIODIC,
                                  forcing={0: 0.5, 3: -0.2})
        self.grid = TimeGrid(dt=1e-3, n_steps=1000)
        self.field = build_noise_field(self.params, self.grid, 5)
        self.u0 = LatticeVector.from_support(8, {0: 1.0, -5: 0.7})

    def test_pure_decay_no_noise_no_forcing(self):
        params = make_params(8, boundary=Boundary.PERIODIC, sigma={})
        field = build_noise_field(params, self.grid, 1)
        eigs, modes = laplacian_modes(8)
        u0 = LatticeVector(modes[:, 2])
        traj = linear_oracle(u0, field, params, 1.0, self.grid)
        rate = params.damping + 1.0 + params.coupling * eigs[2]
        exact = np.exp(-rate * self.grid.times())[:, None] * modes[:, 2][None, :]
        np.testing.assert_allclose(traj.values, exact, rtol=0.0, atol=1e-12)

    def test_forcing_only_steady_state(self):
        params = make_params(8, boundary=Boundary.PERIODIC, sigma={},
                             forcing={0: 0.5, 3: -0.2})
        field = build_noise_field(params, TimeGrid(dt=1e-2, n_steps=3000), 1)
        grid = TimeGrid(dt=1e-2, n_steps=3000)
        traj = linear_oracle(LatticeVector.zeros(8), field, params, 1.0, grid)
        eigs, modes = laplacian_modes(8)
        target = modes @ (modes.T @ params.forcing.values / (2.0 + eigs))
        np.testing.assert_allclose(traj.values[-1], target, rtol=0.0, atol=1e-10)

    def test_agreement_with_heun_improves_with_dt(self):
        from oracles import coarsen_noise

        fine = build_noise_field(self.params, TimeGrid(dt=1e-3, n_steps=2000), 41)
        errs = {}
        for fac, dt in ((4, 4e-3), (2, 2e-3), (1, 1e-3)):
            f = coarsen_noise(fine, fac)
            cfg = SolverConfig(dt=dt, t_end=2.0)
            heun = integrate(self.u0, f, self.params, LINEAR, cfg)
            oracle = linear_oracle(self.u0, f, self.params, 1.0, heun.grid)
            errs[dt] = np.linalg.norm(heun.values - oracle.values, axis=1).max()
        assert errs[4e-3] / errs[2e-3] >= 1.7
        assert errs[2e-3] / errs[1e-3] >= 1.7

    def test_rejects_zero_padding_boundary(self):
        params = make_params(8, boundary=Boundary.ZERO_PADDING)
        field = build_noise_field(params, self.grid, 5)
        with pytest.raises(ValueError):
            linear_oracle(self.u0, field, params, 1.0, self.grid)


class TestModeProjectionCrossOracle:
    def test_constant_mode_follows_scalar_damped_field(self):
        # periodic constant mode feels no coupling, so its projection must
        # follow the scalar damped integral of the projected noise with
        # rate damping + a
        params = LatticeParams(
            coupling=1.3, damping=0.8, forcing=LatticeVector.zeros(6),
            noise_amp=LatticeVector.from_support(6, {0: 0.9, 2: 0.4}),
            half_width=6, boundary=Boundary.PERIODIC,
        )
        a = 0.7
        grid = TimeGrid(dt=1e-3, n_steps=2000)
        field = build_noise_field(params, grid, 606)
        _, modes = laplacian_modes(6)
        v0 = modes[:, 0]
        traj = integrate(LatticeVector(2.0 * v0), field, params,
                         NonlinearitySpec.linear(a), SolverConfig(dt=1e-3, t_end=2.0))
        proj = traj.values @ v0
        sweep = decayed_exp_sweep((field.w_matrix @ v0)[:, None],
                                  params.damping + a, grid.dt)[:, 0]
        reference = 2.0 * np.exp(-(params.damping + a) * grid.times()) + sweep
        assert np.abs(proj - reference).max() <= 5e-6


class TestGronwallEnvelope:
    # calibration constant fitted once on a 20-seed pilot (max needed
    # value 0.307) and frozen with headroom; fresh seeds must stay inside
    C0 = 0.46

    def _run(self, seed):
        params = LatticeParams(
            coupling=1.0, damping=1.0,
            forcing=LatticeVector.from_support(8, {0: 0.4, 2: -0.3}),
            noise_amp=LatticeVector.from_support(
                8, {i: 0.7 * np.exp(-abs(i) / 2) for i in range(-4, 5)}
            ),
            half_width=8,
        )
        field = build_noise_field(params, TimeGrid(dt=1e-2, n_steps=300), seed)
        u0 = LatticeVector.from_support(8, {0: 2.0, -1: 1.0})
        traj = integrate(u0, field, params, CUBIC, SolverConfig(dt=1e-2, t_end=3.0))
        v = traj.values - field.w_matrix  # v = u - W; the field spans the run's nodes
        w_sup = np.linalg.norm(field.w_matrix, axis=1).max()
        env = gronwall_envelope(
            u0.norm(), params.damping, self.C0, params.forcing.norm(),
            w_sup, CUBIC.growth_power, traj.grid.times(),
        )
        return np.linalg.norm(v, axis=1), env

    def test_frozen_constant_holds_on_fresh_seeds(self):
        for seed in range(1000, 1100):
            norms, env = self._run(seed)
            assert (norms <= env + 1e-12).all()
