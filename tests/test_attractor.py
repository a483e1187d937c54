import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclattice import attractor, solver
from fraclattice.attractor import (
    EquilibriumEstimate,
    _ladder_rows,
    _stationarity_rows,
    absorbing_radius,
    absorption_check,
    contraction_experiment,
    forward_stationarity_check,
    pullback_experiment,
    random_equilibrium,
    sphere_starts,
)
from fraclattice.cli import validate_config
from fraclattice.errors import BlowUpError, InsufficientHorizonError, WindowError
from fraclattice.fbm import TimeGrid
from fraclattice.lattice import (
    Boundary,
    LatticeParams,
    LatticeVector,
    NonlinearitySpec,
)
from fraclattice.noise import build_noise_field, stationary_ou
from fraclattice.solver import Scheme, SolverConfig, _run_row, _step_rows, cocycle_map, integrate
from oracles import laplacian_modes, shift_noise

CUBIC = NonlinearitySpec.cubic(1.0, 1.0)
LINEAR = NonlinearitySpec.linear(1.0)
N = 16
DT = 1e-2


def make_params(boundary=Boundary.ZERO_PADDING, sigma=None, forcing=None):
    return LatticeParams(
        coupling=1.0,
        damping=1.0,
        forcing=LatticeVector.from_support(N, forcing if forcing is not None else {0: 0.3}),
        noise_amp=LatticeVector.from_support(
            N, sigma if sigma is not None else {0: 0.8, 1: 0.5, -2: 0.4}
        ),
        half_width=N,
        boundary=boundary,
    )


@pytest.fixture(scope="module")
def field():
    grid = TimeGrid(dt=DT, n_steps=round(30 / DT), i_start=-round(24 / DT))  # [-24, 6]
    return build_noise_field(make_params(), grid, 314)


@pytest.fixture(scope="module")
def zero_field():
    grid = TimeGrid(dt=DT, n_steps=round(30 / DT), i_start=-round(24 / DT))
    return build_noise_field(make_params(sigma={}, forcing={}), grid, 1)


CFG = SolverConfig(dt=DT, t_end=5.0)


def assert_bits_equal(a, b):
    """Equal arrays down to the sign of zero."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def single_pullback(t, field, starts, params, spec, config):
    """The per-horizon reference: phi(t, shift_(-t) field, starts)."""
    end = cocycle_map(t, shift_noise(field, -t), starts, params, spec, config)
    return end.values if isinstance(end, LatticeVector) else end


def sequential_equilibrium(field, params, spec, config, tol, start=None, verify_start=None,
                           initial_horizon=1.0):
    """random_equilibrium's doubling with one single run per start and horizon,
    stopping at the first horizon that passes and raising as it raises."""
    if start is None:
        start = LatticeVector.zeros(params.half_width)
    if verify_start is None:
        signs = np.where(np.arange(params.n_sites) % 2 == 0, 1.0, -1.0)
        verify_start = LatticeVector(10.0 * signs / np.sqrt(params.n_sites))
    available = -field.grid.t_start
    t = initial_horizon
    prev = single_pullback(t, field, start, params, spec, config)
    while True:
        cur = single_pullback(2 * t, field, start, params, spec, config)
        gap = float(np.linalg.norm(cur - prev))
        if gap <= tol:
            check = single_pullback(2 * t, field, verify_start, params, spec, config)
            start_gap = float(np.linalg.norm(check - cur))
            if start_gap <= 2 * tol:
                return cur, 2 * t, gap, start_gap
        if 4 * t > available:
            failed = (f"start gap {start_gap:.3e} > 2 tol {2 * tol:.1e}" if gap <= tol
                      else f"gap {gap:.3e} > tol {tol:.1e}")
            raise InsufficientHorizonError(
                f"{failed} at horizon {2 * t:.3g} and the sampled past {available:.3g} "
                f"cannot support doubling")
        t *= 2
        prev = cur


def assert_matches_sequential(field, params, spec, config, tol, **kwargs):
    """random_equilibrium equals the sequential doubling bit for bit."""
    eq = random_equilibrium(field, params, spec, config, tol=tol, **kwargs)
    u0, horizon, gap, start_gap = sequential_equilibrium(field, params, spec, config, tol,
                                                         **kwargs)
    assert_bits_equal(eq.u0.values, u0)
    assert (eq.horizon, eq.cauchy_gap, eq.start_gap) == (horizon, gap, start_gap)
    return eq


def ou_on(field, t_from, t_to, tail_tol):
    """The stationary damped field (damping 1) on the nodes of [t_from, t_to]."""
    i_start = round(t_from / DT)
    grid = TimeGrid(dt=DT, n_steps=round(t_to / DT) - i_start, i_start=i_start)
    return stationary_ou(1.0, field, eval_grid=grid, tail_tol=tail_tol)


class TestContraction:
    def test_cubic_pair_contracts(self, field):
        u0 = LatticeVector.from_support(N, {0: 2.0, 1: -1.0})
        w0 = LatticeVector.from_support(N, {0: -1.5, -3: 0.4})
        rep = contraction_experiment(u0, w0, field, make_params(), CUBIC, CFG)
        assert rep.passed  # the pass criterion uses the guaranteed rate
        assert rep.fitted_slope <= -2.0  # observed rate reaches damping + a
        d = rep.distances
        assert ((np.diff(d) <= 1e-9) | (d[1:] < 1e-12)).all()

    def test_distances_equal_separate_integrations(self, field):
        # the pair steps as one batch; each row must be its single run
        u0 = LatticeVector.from_support(N, {0: 2.0, N: -1.0})
        w0 = LatticeVector.from_support(N, {-N: -1.5, 3: 0.4})
        for boundary in Boundary:
            params = make_params(boundary=boundary)
            rep = contraction_experiment(u0, w0, field, params, CUBIC, CFG)
            tr_u = integrate(u0, field, params, CUBIC, CFG)
            tr_w = integrate(w0, field, params, CUBIC, CFG)
            np.testing.assert_array_equal(
                rep.distances, np.linalg.norm(tr_u.values - tr_w.values, axis=1))
            np.testing.assert_array_equal(rep.times, tr_u.grid.times())

    def test_identical_starts_flagged_degenerate(self, field):
        u0 = LatticeVector.from_support(N, {0: 2.0})
        rep = contraction_experiment(u0, u0, field, make_params(), CUBIC, CFG)
        assert rep.degenerate and not rep.passed
        assert (rep.distances == 0.0).all()
        # no slope can be fitted, and the zero envelope holds the zero distance
        assert math.isnan(rep.fitted_slope) and not rep.slope_ok and rep.pointwise_ok

    def test_mismatched_starts_raise_the_drivers_rule(self, field):
        # each start is checked against the params and the field before the pair is stacked
        good, wide = LatticeVector.zeros(N), LatticeVector.zeros(N + 1)
        for u0, w0 in ((good, wide), (wide, good), (wide, wide)):
            with pytest.raises(ValueError, match="widths differ"):
                contraction_experiment(u0, w0, field, make_params(), CUBIC, CFG)

    def test_linear_slope_matches_slowest_mode(self, field):
        # periodic linear pair differing in the constant mode decays at
        # exactly damping + a; the fit must land within 1%
        params = make_params(boundary=Boundary.PERIODIC)
        u0 = LatticeVector.from_support(N, {0: 2.0, 3: -1.0})
        w0 = LatticeVector(u0.values + 2.0 / np.sqrt(2 * N + 1))
        rep = contraction_experiment(u0, w0, field, params, LINEAR, CFG)
        assert rep.passed
        assert abs(rep.fitted_slope + 2.0) <= 0.02


class TestSphereStarts:
    @pytest.mark.parametrize("n_starts", [0, -1])
    def test_input_guards(self, n_starts):
        with pytest.raises(ValueError, match="^n_starts must be >= 1$"):
            sphere_starts(1.0, n_starts, N, seed=1)

    def test_radius_and_count(self):
        pts = sphere_starts(3.0, 7, N, seed=1)
        assert pts.shape == (7, 2 * N + 1)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 3.0, rtol=1e-12)

    def test_zero_radius(self):
        assert np.all(sphere_starts(0.0, 4, N, seed=1) == 0.0)


class TestPullback:
    def test_diameters_shrink_under_bound(self, field):
        rep = pullback_experiment(10.0, 16, field, make_params(), CUBIC, CFG,
                                  horizons=[1, 2, 4, 8], seed=5)
        assert rep.passed
        assert (np.diff(rep.diameters) < 0).all()

    def test_single_start_has_zero_diameter(self, field):
        rep = pullback_experiment(5.0, 1, field, make_params(), CUBIC, CFG,
                                  horizons=[1, 2], seed=5)
        assert rep.start_diameter == 0.0
        assert (rep.diameters == 0.0).all()

    def test_zero_radius_has_zero_diameter(self, field):
        rep = pullback_experiment(0.0, 8, field, make_params(), CUBIC, CFG,
                                  horizons=[1, 2], seed=5)
        assert rep.start_diameter == 0.0
        assert (rep.diameters == 0.0).all()

    def test_hausdorff_reported_against_equilibrium(self, field):
        eq = random_equilibrium(field, make_params(), CUBIC, CFG, tol=1e-6)
        rep = pullback_experiment(10.0, 8, field, make_params(), CUBIC, CFG,
                                  horizons=[1, 4, 8], seed=5, equilibrium=eq.u0)
        assert rep.hausdorff is not None
        assert rep.hausdorff[-1] <= 1e-5

    def test_no_horizons_raise(self, field):
        # no diameter to bound is no pass
        with pytest.raises(ValueError, match="^horizons must not be empty$"):
            pullback_experiment(10.0, 8, field, make_params(), CUBIC, CFG, horizons=[])

    def test_no_horizons_raise_before_the_starts_are_drawn(self, field, monkeypatch):
        monkeypatch.setattr(attractor, "sphere_starts",
                            lambda *args: pytest.fail("the starts were drawn"))
        with pytest.raises(ValueError, match="^horizons must not be empty$"):
            pullback_experiment(10.0, 8, field, make_params(), CUBIC, CFG, horizons=[])


class TestPullbackLadder:
    # 0 (the identity), 0.37 (37 noise nodes, odd), a duplicate 1.0, unsorted
    HORIZONS = [1.0, 0.0, 0.37, 2.0, 1.0]

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rows_equal_single_runs(self, field, boundary, scheme):
        params = make_params(boundary=boundary)
        cfg = SolverConfig(dt=DT, t_end=1.0, scheme=scheme)
        starts = sphere_starts(3.0, 3, N, seed=4)
        starts[0, :5] = -0.0  # phi(0) must hand back the sign of zero
        ends = _step_rows(_ladder_rows(field.grid, self.HORIZONS, cfg), field, starts, params,
                          CUBIC, cfg)
        assert ends.shape == (len(self.HORIZONS),) + starts.shape
        for t, end in zip(self.HORIZONS, ends):
            assert_bits_equal(end, single_pullback(t, field, starts, params, CUBIC, cfg))
        assert_bits_equal(ends[1], starts)
        one = LatticeVector(starts[0])
        rows = _step_rows(_ladder_rows(field.grid, self.HORIZONS, cfg), field, one, params,
                          CUBIC, cfg)
        for t, end in zip(self.HORIZONS, rows):
            assert_bits_equal(end, single_pullback(t, field, one, params, CUBIC, cfg))

    def test_one_step_loop_per_segment(self, field, ladder_calls):
        # horizons 1, 2, 4, 8 step 400 + 200 + 100 + 100 = 800 times, 16 to 64 rows wide;
        # each segment's calls hold 62, 31, 20 and 15 nodes of 33 sites, 1 to 4 runs and
        # 16 starts, within the 2^15 noise values of a block
        pullback_experiment(10.0, 16, field, make_params(), CUBIC, CFG,
                            horizons=[8, 4, 2, 1], seed=5)
        d = 2 * N + 1
        assert ladder_calls == ([((d, 1, 16), 61)] * 6 + [((d, 1, 16), 34)]
                                + [((d, 2, 16), 30)] * 6 + [((d, 2, 16), 20)]
                                + [((d, 3, 16), 19)] * 5 + [((d, 3, 16), 5)]
                                + [((d, 4, 16), 14)] * 7 + [((d, 4, 16), 2)])
        # one kernel bound per segment, stepping each of its blocks
        assert ladder_calls.builds == [(d, 1, 16), (d, 2, 16), (d, 3, 16), (d, 4, 16)]

    def test_noise_blocks_stay_within_the_bound(self, field, ladder_calls):
        # a call's noise block holds its steps + 1 nodes of the whole site-major state,
        # starts counted, and never more than _BLOCK_VALUES values
        pullback_experiment(10.0, 16, field, make_params(), CUBIC, CFG,
                            horizons=[8, 4, 2, 1], seed=5)
        assert sum(n for _, n in ladder_calls) == 800
        sizes = [(n + 1) * math.prod(shape) for shape, n in ladder_calls]
        assert max(sizes) <= solver._BLOCK_VALUES == 1 << 15
        assert max(sizes) > solver._BLOCK_VALUES - 16 * (2 * N + 1)  # within a node of it

    def test_blocks_bound_noise_rows(self, field, monkeypatch):
        # more blocks change nothing but how many steps one call takes
        ref = _step_rows(_ladder_rows(field.grid, [0.5, 1.0], CFG), field,
                         sphere_starts(2.0, 2, N, 1), make_params(), CUBIC, CFG)
        monkeypatch.setattr(solver, "_BLOCK_VALUES", 7 * (2 * N + 1))
        ends = _step_rows(_ladder_rows(field.grid, [0.5, 1.0], CFG), field,
                          sphere_starts(2.0, 2, N, 1), make_params(), CUBIC, CFG)
        assert_bits_equal(ends, ref)

    def test_smallest_horizon_beyond_past_named(self, field):
        starts = sphere_starts(1.0, 2, N, seed=1)
        with pytest.raises(WindowError) as single:
            shift_noise(field, -26.0)
        with pytest.raises(WindowError) as ladder:
            _step_rows(_ladder_rows(field.grid, [1.0, 30.0, 26.0], CFG), field, starts,
                       make_params(), CUBIC, CFG)
        assert str(ladder.value) == str(single.value)
        with pytest.raises(WindowError) as pullback:
            pullback_experiment(1.0, 2, field, make_params(), CUBIC, CFG,
                                horizons=[1.0, 30.0, 26.0])
        with pytest.raises(WindowError) as absorption:
            absorption_check(1.0, field, make_params(), CUBIC, CFG,
                             horizons=[1.0, 30.0, 26.0], n_starts=2, t_past=2.0,
                             ou_tail_tol=1.0)
        assert str(pullback.value) == str(absorption.value) == str(single.value)

    def test_blow_up_time_counts_from_run_start(self, field):
        # the 1.0 row steps alone for one step, then blows up at its third
        start = LatticeVector.from_support(N, {0: 15.0})
        with pytest.raises(BlowUpError) as single:
            single_pullback(1.0, field, start, make_params(), CUBIC, CFG)
        assert "t=0.03;" in str(single.value)
        with pytest.raises(BlowUpError) as ladder:
            _step_rows(_ladder_rows(field.grid, [0.99, 1.0], CFG), field, start, make_params(),
                       CUBIC, CFG)
        assert str(ladder.value) == str(single.value)


class TestStepRows:
    """The driver takes the runs as its callers have them: in any order, with
    repeats and with None for a run of no step."""

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_each_run_equals_its_single_run(self, field, ladder_calls, scheme):
        params, grid = make_params(), field.grid
        cfg = SolverConfig(dt=DT, t_end=1.0, scheme=scheme)
        # (run, its single run's duration and field): pullbacks from 1 and 0.37, the
        # forward run over [0, 0.37], and the stationarity batch's runs from horizon
        # 0.37 at t = 0.37 and 1, each on the noise shifted once, to t - 0.37
        runs = [(_run_row(grid, -t, t, cfg), t, shift_noise(field, -t)) for t in (1.0, 0.37)]
        runs.append((_run_row(grid, 0.0, 0.37, cfg), 0.37, field))
        _, rows = _stationarity_rows(grid, cfg, [0.37, 1.0], 0.37)
        runs += [(r, 0.37, shift_noise(field, t - 0.37)) for r, t in zip(rows, [0.37, 1.0])]
        assert runs[2][0] == runs[3][0]  # the forward run is a stationarity run too
        runs.append((_run_row(grid, 0.0, 0.0, cfg), 0.0, field))
        assert runs[-1][0] is None
        given = [runs[i] for i in (3, 1, 5, 0, 4, 1, 2, 5, 3)]
        batch = sphere_starts(3.0, 3, N, seed=4)
        batch[0, :5] = -0.0
        distinct = sorted({r for r, *_ in runs if r}, key=lambda r: -r[1])
        for starts in (batch, LatticeVector(batch[0])):
            ladder_calls.clear()
            _step_rows(distinct, field, starts, params, CUBIC, cfg)
            sorted_calls = ladder_calls[:]
            ladder_calls.clear()
            ends = _step_rows([r for r, *_ in given], field, starts, params, CUBIC, cfg)
            assert ladder_calls == sorted_calls
            x = starts.values if isinstance(starts, LatticeVector) else starts
            assert ends.shape == (len(given),) + x.shape
            for end, (_, t, f) in zip(ends, given):
                single = cocycle_map(t, f, starts, params, CUBIC, cfg)
                assert_bits_equal(end, getattr(single, "values", single))
            assert_bits_equal(ends[2], x)  # None gives the starts, signs of zero kept

    def test_endpoints_are_row_major(self, field):
        # the driver steps site-major, but norms downstream add in memory order, so the
        # endpoints' layout is part of their bits
        starts = sphere_starts(3.0, 3, N, seed=4)
        ends = _step_rows([(2000, 100), (2100, 50)], field, starts, make_params(), CUBIC, CFG)
        assert ends.shape == (2,) + starts.shape and ends.flags.c_contiguous

    def test_collect_takes_one_run(self, field, ladder_calls):
        # the states of two runs do not fit one array: refused before any step
        params, zero = make_params(), LatticeVector.zeros(N)
        for rows in ([(100, 50), (50, 100)], [(100, 50), None]):
            with pytest.raises(ValueError, match="^collect keeps the states of one run, "
                                                 "not of 2$"):
                _step_rows(rows, field, zero, params, CUBIC, CFG, collect=True)
        assert ladder_calls == []
        states = _step_rows([(100, 50), (100, 50)], field, zero, params, CUBIC, CFG,
                            collect=True)
        assert_bits_equal(states, _step_rows([(100, 50)], field, zero, params, CUBIC, CFG,
                                             collect=True))
        assert states.shape == (51, 2 * N + 1)

    def test_stationarity_at_horizon_zero(self, field, ladder_calls, monkeypatch):
        # every shifted equilibrium is the zero start itself: no pullback steps, and
        # the forward leg is one driver call even when it takes no step
        params = make_params()
        u0 = LatticeVector(sphere_starts(2.0, 1, N, seed=3)[0])
        eq = EquilibriumEstimate(u0=u0, horizon=0.0, cauchy_gap=0.0, start_gap=0.0, tol=1.0)
        driver_calls = []

        def counted(*args, **kwargs):
            driver_calls.append(args[0])
            return _step_rows(*args, **kwargs)

        monkeypatch.setattr(attractor, "_step_rows", counted)
        for times, stepped in (([0.0], []), ([0.0, 0.37, 1.0], [((2 * N + 1, 1, 1), 100)])):
            driver_calls.clear()
            ladder_calls.clear()
            rep = forward_stationarity_check(eq, field, params, CUBIC, CFG, times)
            assert len(driver_calls) == 2
            assert ladder_calls == stepped  # the forward leg alone steps
            legs = [cocycle_map(t, field, u0, params, CUBIC, CFG).values for t in times]
            assert_bits_equal(rep.residuals, np.array([np.linalg.norm(v) for v in legs]))


class TestRandomEquilibrium:
    def test_zero_field_zero_forcing_gives_origin(self, zero_field):
        eq = random_equilibrium(zero_field, make_params(sigma={}, forcing={}),
                                CUBIC, CFG, tol=1e-6)
        assert eq.u0.norm() == 0.0

    def test_linear_deterministic_case_matches_spectral_solution(self):
        # no noise, constant forcing: the equilibrium solves
        # (coupling A + (damping + a) I) u = g, diagonal in the mode basis
        params = make_params(boundary=Boundary.PERIODIC, sigma={},
                             forcing={0: 0.3, 2: -0.1})
        grid = TimeGrid(dt=DT, n_steps=round(30 / DT), i_start=-round(24 / DT))
        f = build_noise_field(params, grid, 1)
        eq = random_equilibrium(f, params, LINEAR, CFG, tol=1e-8)
        eigs, modes = laplacian_modes(N)
        target = modes @ (modes.T @ params.forcing.values / (2.0 + eigs))
        np.testing.assert_allclose(eq.u0.values, target, rtol=0.0, atol=1e-7)

    def test_start_independence(self, field):
        eq1 = random_equilibrium(field, make_params(), CUBIC, CFG, tol=1e-6)
        eq2 = random_equilibrium(
            field, make_params(), CUBIC, CFG, tol=1e-6,
            start=LatticeVector.from_support(N, {2: 10.0}),
            verify_start=LatticeVector.from_support(N, {-1: -7.0}),
        )
        gap = float(np.linalg.norm(eq1.u0.values - eq2.u0.values))
        assert gap <= 2e-6
        assert eq1.cauchy_gap <= 1e-6 and eq1.start_gap <= 2e-6

    @pytest.mark.parametrize("starts", [
        (None, None), ({2: 10.0}, {-1: -7.0}), ({0: -0.0}, {N: 4.0, -N: -4.0})])
    def test_matches_sequential_reference(self, field, starts):
        start, verify = (None if s is None else LatticeVector.from_support(N, s)
                         for s in starts)
        assert_matches_sequential(field, make_params(), CUBIC, CFG, 1e-6, start=start,
                                  verify_start=verify)

    def test_early_stop_matches_sequential(self, field):
        # a loose tol stops below the deepest supported horizon, 16
        eq = assert_matches_sequential(field, make_params(), CUBIC, CFG, 1e-2)
        assert eq.horizon < 16.0

    def test_initial_horizon_three_matches_sequential(self, field):
        # the ladder of 3, 6, 12 and 24 reaches the start of the sampled past
        eq = assert_matches_sequential(field, make_params(), CUBIC, CFG, 1e-8,
                                       initial_horizon=3.0)
        assert eq.horizon == 24.0

    def test_zero_field_matches_sequential(self, zero_field):
        assert_matches_sequential(zero_field, make_params(sigma={}, forcing={}), CUBIC, CFG,
                                  1e-6)

    def test_periodic_linear_matches_sequential(self, field):
        assert_matches_sequential(field, make_params(boundary=Boundary.PERIODIC), LINEAR,
                                  CFG, 1e-6)

    def test_one_ladder_to_deepest_supported_horizon(self, field, ladder_calls):
        # [-24, 6] supports 1, 2, 4, 8 and 16: one step per node of [-16, 0],
        # wherever the stop lands
        for tol in (1e-2, 1e-8):
            ladder_calls.clear()
            random_equilibrium(field, make_params(), CUBIC, CFG, tol=tol)
            assert sum(n for _, n in ladder_calls) == round(16.0 / DT)

    def test_verify_start_width_checked(self, field):
        with pytest.raises(ValueError, match="widths differ"):
            random_equilibrium(field, make_params(), CUBIC, CFG,
                               verify_start=LatticeVector.zeros(N + 1))

    @pytest.mark.parametrize("horizon", [0.0, -1.0])
    def test_nonpositive_initial_horizon_raises(self, field, horizon):
        # at 0 every pullback returns the start and t never doubles away from 0
        with pytest.raises(ValueError, match="initial_horizon must be > 0"):
            random_equilibrium(field, make_params(), CUBIC, CFG, initial_horizon=horizon)

    def test_doubling_owns_the_initial_horizon_rule(self, field):
        # NaN fails every comparison, so only the rule stops the doubling there
        with pytest.raises(ValueError, match="^initial_horizon must be > 0, got nan$"):
            attractor._doubling_horizons(field.grid, float("nan"))

    def test_horizon_exhaustion_raises(self):
        grid = TimeGrid(dt=DT, n_steps=round(3 / DT), i_start=-round(2 / DT))
        f = build_noise_field(make_params(), grid, 3)
        with pytest.raises(InsufficientHorizonError) as err:
            random_equilibrium(f, make_params(), CUBIC, CFG, tol=1e-12)
        with pytest.raises(InsufficientHorizonError) as reference:
            sequential_equilibrium(f, make_params(), CUBIC, CFG, 1e-12)
        assert str(err.value) == str(reference.value)
        assert str(err.value).startswith("gap ")

    def test_start_gap_failure_named(self):
        # no noise and no forcing: the zero start stays at 0, so the Cauchy
        # gap is 0 and only the start-independence check can fail
        n = 4
        params = LatticeParams(coupling=1.0, damping=1.0, forcing=LatticeVector.zeros(n),
                               noise_amp=LatticeVector.zeros(n), half_width=n)
        grid = TimeGrid(dt=DT, n_steps=round(3 / DT), i_start=-round(2 / DT))  # [-2, 1]
        f = build_noise_field(params, grid, 0)
        verify = LatticeVector.from_support(n, {0: 10.0})
        with pytest.raises(InsufficientHorizonError) as err:
            random_equilibrium(f, params, LINEAR, CFG, verify_start=verify)
        with pytest.raises(InsufficientHorizonError) as reference:
            sequential_equilibrium(f, params, LINEAR, CFG, 1e-6, verify_start=verify)
        assert str(err.value) == str(reference.value)
        assert str(err.value).startswith("start gap ")
        assert "> 2 tol 2.0e-06 at horizon 2 and the sampled past 2 " in str(err.value)


class TestForwardStationarity:
    def test_residuals_within_tolerance(self, field):
        params = make_params()
        eq = random_equilibrium(field, params, CUBIC, CFG, tol=1e-6)
        rep = forward_stationarity_check(eq, field, params, CUBIC, CFG, times=[1.0, 2.0])
        assert rep.passed
        assert (rep.residuals <= 5e-6).all()

    def test_residuals_equal_one_run_per_time(self, field):
        # the forward legs read off one run equal one cocycle_map per time
        params = make_params()
        cfg = SolverConfig(dt=DT, t_end=1.0)
        eq = random_equilibrium(field, params, CUBIC, cfg, tol=1e-4)
        times = [0.0, 0.37, 1.0, 2.0]
        rep = forward_stationarity_check(eq, field, params, CUBIC, cfg, times=times)
        zero = LatticeVector.zeros(N)
        expected = [
            float(np.linalg.norm(
                cocycle_map(t, field, eq.u0, params, CUBIC, cfg).values
                - cocycle_map(eq.horizon, shift_noise(field, t - eq.horizon), zero, params,
                              CUBIC, cfg).values
            ))
            for t in times
        ]
        assert_bits_equal(rep.residuals, np.array(expected))

    def test_rows_agree_with_the_two_shift_reference(self, field):
        # theta_(t - H) omega is theta_(-H) theta_t omega: the rows read the noise shifted
        # once, and the pullback on the noise shifted twice agrees with them to the
        # bound that test_flow_composition holds the shift to
        params, cfg = make_params(), SolverConfig(dt=DT, t_end=1.0)
        times, zero = [0.0, 0.37, 1.0, 2.0], LatticeVector.zeros(N)
        for horizon in (0.37, 4.0):
            _, rows = _stationarity_rows(field.grid, cfg, times, horizon)
            ends = _step_rows(rows, field, zero, params, CUBIC, cfg)
            for end, t in zip(ends, times):
                once = cocycle_map(horizon, shift_noise(field, t - horizon), zero, params,
                                   CUBIC, cfg)
                assert_bits_equal(end, once.values)
                twice = single_pullback(horizon, shift_noise(field, t), zero, params, CUBIC,
                                        cfg)
                np.testing.assert_allclose(end, twice, rtol=1e-13, atol=1e-13)

    def test_equilibria_step_as_one_batch(self, field, ladder_calls):
        # every check time is one row of one pullback from the estimate's horizon
        params = make_params()
        eq = random_equilibrium(field, params, CUBIC, CFG, tol=1e-6)
        ladder_calls.clear()
        forward_stationarity_check(eq, field, params, CUBIC, CFG, times=[0.5, 1.0, 2.0])
        d = 2 * N + 1
        assert round(eq.horizon / DT) == 1600  # blocks of 330 nodes of 3 runs
        assert ladder_calls == [((d, 1, 1), 200)] + [((d, 3, 1), 329)] * 4 + [((d, 3, 1), 284)]

    def test_no_times_raise(self, field):
        # no residual to bound is no pass
        eq = random_equilibrium(field, make_params(), CUBIC, CFG, tol=1e-6)
        with pytest.raises(ValueError, match="^times must not be empty$"):
            forward_stationarity_check(eq, field, make_params(), CUBIC, CFG, times=[])

    def test_negative_time_raises(self, field):
        eq = EquilibriumEstimate(u0=LatticeVector.zeros(N), horizon=1.0, cauchy_gap=0.0,
                                 start_gap=0.0, tol=1e-6)
        with pytest.raises(ValueError, match=r"^duration -0.01 must be >= 0$"):
            forward_stationarity_check(eq, field, make_params(), CUBIC, CFG, times=[-0.01])

    def test_window_errors_of_single_runs(self, field):
        params = make_params()
        eq = random_equilibrium(field, params, CUBIC, CFG, tol=1e-6)
        with pytest.raises(WindowError):  # the forward run passes the sampled future
            forward_stationarity_check(eq, field, params, CUBIC, CFG, times=[1.0, 7.0])
        deep = dataclasses.replace(eq, horizon=24.5)  # reaches past -24 from t = 0.25
        with pytest.raises(WindowError) as single:
            cocycle_map(24.5, shift_noise(field, 0.25 - 24.5), LatticeVector.zeros(N), params,
                        CUBIC, CFG)
        with pytest.raises(WindowError) as batch:
            forward_stationarity_check(deep, field, params, CUBIC, CFG, times=[1.0, 0.25])
        assert str(batch.value) == str(single.value)

    def test_forward_attraction_envelope(self, field):
        # every start falls onto the moving equilibrium at least as fast
        # as e^(-damping t), with the discretization cushion
        params = make_params()
        eq = random_equilibrium(field, params, CUBIC, CFG, tol=1e-8)
        u0 = LatticeVector.from_support(N, {0: 3.0, -2: 1.0})
        d0 = float(np.linalg.norm(u0.values - eq.u0.values))
        for t in (1.0, 2.0, 4.0):
            forward = cocycle_map(t, field, u0, params, CUBIC, CFG)
            eq_shifted = single_pullback(eq.horizon, shift_noise(field, t),
                                         LatticeVector.zeros(N), params, CUBIC, CFG)
            gap = float(np.linalg.norm(forward.values - eq_shifted))
            assert gap <= d0 * np.exp(-params.damping * t) * (1.0 + 5.0 * DT) + 1e-7


class TestBlockedForward:
    """Forward runs read their noise in blocks, as pullback ladders do."""

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_blocks_keep_every_forward_run(self, field, monkeypatch, ladder_calls, scheme):
        # more blocks change nothing but how many steps one call takes
        params = make_params()
        cfg = SolverConfig(dt=DT, t_end=1.0, scheme=scheme)
        x = sphere_starts(2.0, 1, N, seed=3)[0]
        x[:4] = -0.0
        u0 = LatticeVector(x)
        eq = EquilibriumEstimate(u0=u0, horizon=0.5, cauchy_gap=0.0, start_gap=0.0, tol=1.0)

        def runs():
            return (integrate(u0, field, params, CUBIC, cfg).values,
                    contraction_experiment(u0, LatticeVector.zeros(N), field, params, CUBIC,
                                           cfg).distances,
                    forward_stationarity_check(eq, field, params, CUBIC, cfg,
                                               times=[0.0, 0.37, 1.0]).residuals)

        ref = runs()
        assert [steps for _, steps in ladder_calls[:3]] == [100] * 3
        monkeypatch.setattr(solver, "_BLOCK_VALUES", 8 * (2 * N + 1))  # 7 steps per call
        ladder_calls.clear()
        for got, want in zip(runs(), ref):
            assert_bits_equal(got, want)
        blocks = [7] * (100 // 7) + [100 % 7]
        assert [steps for _, steps in ladder_calls[:len(blocks)]] == blocks

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_blocked_blow_up_reports_the_same_time(self, field, monkeypatch, scheme):
        # the start blows up 3 to 5 steps in, past the first 2-step block
        cfg = SolverConfig(dt=DT, t_end=1.0, scheme=scheme)
        start = LatticeVector.from_support(N, {0: 15.0})
        with pytest.raises(BlowUpError) as whole:
            integrate(start, field, make_params(), CUBIC, cfg)
        monkeypatch.setattr(solver, "_BLOCK_VALUES", 3 * (2 * N + 1))  # 2 steps per call
        with pytest.raises(BlowUpError) as blocked:
            integrate(start, field, make_params(), CUBIC, cfg)
        assert str(blocked.value) == str(whole.value)
        assert float(re.search("at t=(.*?);", str(whole.value))[1]) > 2 * cfg.dt


class TestAbsorbingRadius:
    def test_zero_field_zero_forcing_is_exactly_one(self, zero_field):
        rad = absorbing_radius(ou_on(zero_field, -2.0, 0.0, 1.0), CUBIC, t_past=2.0)
        assert rad.value == 1.0

    def test_at_least_one_and_monotone_in_depth(self, field):
        shallow = absorbing_radius(ou_on(field, -2.0, 0.0, 1e-2), CUBIC, t_past=2.0)
        deep_ou = ou_on(field, -4.0, 0.0, 1e-2)
        deep = absorbing_radius(deep_ou, CUBIC, t_past=4.0)
        assert shallow.value >= 1.0
        assert deep.value + 1e-12 >= shallow.value
        assert abs(deep.value - shallow.value) <= shallow.tail_bound
        # the shallow window read off the deeper field is the same rows
        assert absorbing_radius(deep_ou, CUBIC, t_past=2.0) == shallow

    def test_demands_enough_past(self, field):
        with pytest.raises(InsufficientHorizonError, match="exceeds the sampled past 24"):
            absorption_check(10.0, field, make_params(), CUBIC, CFG, horizons=[1.0],
                             t_past=100.0)

    def test_rejects_ou_not_covering_window(self, field):
        with pytest.raises(InsufficientHorizonError, match="exceeds the sampled past 2"):
            absorbing_radius(ou_on(field, -2.0, 0.0, 1e-2), CUBIC, t_past=4.0)
        # a grid that stops before 0 must not be read as if it reached it
        with pytest.raises(WindowError):
            absorbing_radius(ou_on(field, -10.0, -2.0, 1e-2), CUBIC, t_past=2.0)

    def test_under_one_step_raises(self, field):
        with pytest.raises(ValueError, match="at least one grid step"):
            absorbing_radius(ou_on(field, -2.0, 0.0, 1e-2), CUBIC, t_past=0.0)


class TestAbsorption:
    def test_no_horizons_raise(self, field):
        with pytest.raises(ValueError, match="^horizons must not be empty$"):
            absorption_check(10.0, field, make_params(), CUBIC, CFG, horizons=[],
                             t_past=2.0, ou_tail_tol=1.0)

    def test_no_horizons_raise_before_the_sweep(self, field, monkeypatch):
        # on a long past and on one too short for the field's tail check alike
        for name in ("stationary_ou", "absorbing_radius"):
            monkeypatch.setattr(attractor, name,
                                lambda *args, name=name, **kwargs: pytest.fail(f"{name} ran"))
        short = build_noise_field(make_params(), TimeGrid(dt=DT, n_steps=300, i_start=-200), 3)
        for past, t_past in ((field, 10.0), (short, 1.0)):
            with pytest.raises(ValueError, match="^horizons must not be empty$"):
                absorption_check(10.0, past, make_params(), CUBIC, CFG, horizons=[],
                                 t_past=t_past)

    def test_runs_checked_before_the_sweep(self, field, monkeypatch):
        # a step other than the noise step, and a horizon past the sampled past, fail
        # before the stationary field is swept
        sweeps = []
        monkeypatch.setattr(attractor, "stationary_ou",
                            lambda *args, **kwargs: sweeps.append(1))
        fine = SolverConfig(dt=DT / 2, t_end=1.0)
        with pytest.raises(ValueError, match=rf"^solver dt={DT / 2} must equal the noise dt={DT}$"):
            absorption_check(10.0, field, make_params(), CUBIC, fine, horizons=[1.0],
                             t_past=4.0, ou_tail_tol=1e-2)
        deep = -field.grid.t_start + 1.0
        with pytest.raises(WindowError):
            absorption_check(10.0, field, make_params(), CUBIC, CFG, horizons=[1.0, deep],
                             t_past=4.0, ou_tail_tol=1e-2)
        assert sweeps == []

    def test_one_sweep_reads_centre_and_radius(self, field, sweep_calls):
        rep = absorption_check(10.0, field, make_params(), CUBIC, CFG, horizons=[1.0],
                               t_past=4.0, ou_tail_tol=1e-2)
        assert len(sweep_calls) == 1
        assert rep.ou.grid == TimeGrid(dt=DT, n_steps=400, i_start=-400)
        assert rep.radius == absorbing_radius(rep.ou, CUBIC, t_past=4.0)
        assert rep.bound == float(np.linalg.norm(rep.ou.at(0.0).values)) + rep.radius.value
        assert len(sweep_calls) == 1

    def test_bound_holds_from_entry_horizon(self, field):
        params = make_params()
        rep = absorption_check(10.0, field, params, CUBIC, CFG,
                               horizons=[0.5, 1, 2, 4], n_starts=8, seed=2,
                               t_past=4.0, ou_tail_tol=1e-2)
        assert rep.passed
        assert rep.radius.value >= 1.0
        assert rep.entry_horizon is not None
        held = rep.horizons >= rep.entry_horizon
        assert (rep.max_norms[held] <= rep.bound).all()

    def test_entry_horizon_monotone_in_ball_size(self, field):
        params = make_params()
        horizons = [0.05, 0.1, 0.2, 0.5, 1, 2, 4]
        entries = []
        for radius in (0.5, 5.0, 30.0):
            rep = absorption_check(radius, field, params, CUBIC, CFG,
                                   horizons=horizons, n_starts=8, seed=2,
                                   t_past=4.0, ou_tail_tol=1e-2)
            assert rep.passed
            entries.append(rep.entry_horizon)
        assert entries == sorted(entries)
        assert entries[0] < entries[-1]


class TestAbsorptionOverConfigs:
    DT = 0.02
    TAIL_TOL = 1e-6

    @settings(max_examples=150)
    @given(coupling=st.floats(0.0, 2.0, exclude_min=True), damping=st.floats(0.2, 2.0),
           boundary=st.sampled_from([b.value for b in Boundary]),
           kind=st.sampled_from(["cubic", "linear"]),
           a=st.floats(0.0, 2.0, exclude_min=True), b=st.floats(0.0, 2.0, exclude_min=True),
           hurst=st.floats(0.5, 0.95, exclude_min=True, exclude_max=True),
           half_width=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           shallow_steps=st.integers(1, 100), extra_steps=st.integers(0, 100))
    def test_radius_and_bound_read_off_one_field(self, coupling, damping, boundary, kind,
                                                 a, b, hurst, half_width, seed,
                                                 shallow_steps, extra_steps):
        dt = self.DT
        t_past = (shallow_steps + extra_steps) * dt
        # the shortest whole past that passes the OU tail check at this damping
        ou_past = 1.0
        while math.exp(-damping * ou_past) * (1.0 + ou_past) ** 2 > self.TAIL_TOL:
            ou_past += 1.0
        cfg = validate_config({
            "hurst": hurst,
            "lattice": {"coupling": coupling, "damping": damping, "half_width": half_width,
                        "boundary": boundary},
            "nonlinearity": {"kind": kind, "a": a, "b": b},
            "solver": {"dt": dt, "t_end": 0.5},
            "grid": {"dt": dt, "t_past": ou_past + t_past, "t_future": 0.5},
            "experiment": {"name": "absorb", "d_radius": 1.0, "horizons": [0.5],
                           "n_starts": 2, "t_past": t_past, "ou_tail_tol": self.TAIL_TOL},
            "master_seed": seed,
        })
        field = build_noise_field(cfg.params, cfg.grid, cfg.master_seed, cfg.hurst)
        opts = cfg.options
        rep = absorption_check(opts["d_radius"], field, cfg.params, cfg.spec, cfg.solver,
                               opts["horizons"], n_starts=opts["n_starts"], seed=seed,
                               t_past=t_past, ou_tail_tol=opts["ou_tail_tol"])
        shallow = absorbing_radius(rep.ou, cfg.spec, shallow_steps * dt)
        assert rep.radius.value >= 1.0
        assert rep.radius.value + 1e-12 >= shallow.value
        assert rep.radius == absorbing_radius(rep.ou, cfg.spec, t_past)
        assert rep.bound == float(np.linalg.norm(rep.ou.at(0.0).values)) + rep.radius.value


class TestLadderOverConfigs:
    DT = 0.02

    @settings(max_examples=100)
    @given(coupling=st.floats(0.0, 2.0, exclude_min=True), damping=st.floats(0.2, 2.0),
           boundary=st.sampled_from([b.value for b in Boundary]),
           scheme=st.sampled_from([s.value for s in Scheme]),
           kind=st.sampled_from(["cubic", "linear"]),
           a=st.floats(0.0, 2.0, exclude_min=True), b=st.floats(0.0, 2.0, exclude_min=True),
           hurst=st.floats(0.5, 0.95, exclude_min=True, exclude_max=True),
           half_width=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           steps=st.lists(st.integers(0, 30), min_size=1, max_size=4))
    def test_ladder_equals_per_horizon_runs(self, coupling, damping, boundary, scheme, kind,
                                            a, b, hurst, half_width, seed, steps):
        dt = self.DT
        horizons = [k * dt for k in steps]
        cfg = validate_config({
            "hurst": hurst,
            "lattice": {"coupling": coupling, "damping": damping, "half_width": half_width,
                        "boundary": boundary, "noise_amp": {"0": 1.0, "1": 0.5}},
            "nonlinearity": {"kind": kind, "a": a, "b": b},
            "solver": {"scheme": scheme, "dt": dt, "t_end": 0.5},
            "grid": {"dt": dt, "t_past": 30 * dt, "t_future": dt},
            "experiment": {"name": "pullback", "radius": 1.0, "horizons": horizons,
                           "n_starts": 2},
            "master_seed": seed,
        })
        field = build_noise_field(cfg.params, cfg.grid, cfg.master_seed, cfg.hurst)
        starts = sphere_starts(1.0, 2, half_width, seed)
        ends = _step_rows(_ladder_rows(field.grid, cfg.options["horizons"], cfg.solver), field,
                          starts, cfg.params, cfg.spec, cfg.solver)
        for t, end in zip(cfg.options["horizons"], ends):
            assert_bits_equal(end, single_pullback(t, field, starts, cfg.params, cfg.spec,
                                                   cfg.solver))
