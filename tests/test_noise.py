import numpy as np
import pytest

from fraclattice import noise
from fraclattice.errors import InsufficientHorizonError, WindowError
from fraclattice.fbm import TimeGrid, sample_fbm_array
from fraclattice.lattice import LatticeParams, LatticeVector
from fraclattice.noise import (
    NoiseField,
    VectorSeries,
    build_noise_field,
    decayed_exp_sweep,
    noise_growth_constant,
    stationary_ou,
)
import oracles
from oracles import coarsen_noise, ou_solution, shift_noise, stieltjes_exp_integral


def make_params(half_width=4, sigma=None, forcing=None, damping=1.0):
    sigma = sigma if sigma is not None else {0: 1.0, 1: 0.5}
    return LatticeParams(
        coupling=1.0,
        damping=damping,
        forcing=LatticeVector.from_support(half_width, forcing or {}),
        noise_amp=LatticeVector.from_support(half_width, sigma),
        half_width=half_width,
    )


def all_sites(half_width):
    return {i: 1.0 for i in range(-half_width, half_width + 1)}


def site_path(field, i):
    """The unscaled path of site i: its column of the field."""
    return field.paths[:, i + field.half_width]


def noisy_sites(field):
    """Sites whose path column is not identically zero."""
    return (np.flatnonzero(np.abs(field.paths).max(axis=0)) - field.half_width).tolist()


@pytest.fixture
def field():
    params = make_params()
    grid = TimeGrid(dt=0.05, n_steps=80, i_start=-40)  # [-2, 2]
    return build_noise_field(params, grid, master_seed=99)


class TestBuildField:
    def test_deterministic(self):
        params = make_params()
        grid = TimeGrid(dt=0.1, n_steps=30, i_start=-10)
        a = build_noise_field(params, grid, 2024)
        b = build_noise_field(params, grid, 2024)
        assert np.array_equal(a.paths, b.paths)

    def test_zero_intensity_sites_carry_no_path(self, field):
        assert noisy_sites(field) == [0, 1]
        assert sorted(field.seed_scheme) == [0, 1]

    def test_all_zero_intensity_gives_zero_field(self):
        params = make_params(sigma={})
        grid = TimeGrid(dt=0.1, n_steps=20, i_start=-10)
        f = build_noise_field(params, grid, 1)
        assert not f.seed_scheme
        assert np.all(f.paths == 0.0)
        assert np.all(f.w_matrix == 0.0)

    def test_single_site_matches_scaled_path(self):
        params = make_params(sigma={2: 0.7})
        grid = TimeGrid(dt=0.1, n_steps=20, i_start=-10)
        f = build_noise_field(params, grid, 5)
        w1 = f.at(1.0)
        assert w1.get(2) == 0.7 * site_path(f, 2)[grid.index_of(1.0)]
        assert np.count_nonzero(w1.values) <= 1

    def test_anchored_at_zero(self, field):
        assert field.at(0.0).norm() == 0.0

    def test_widening_truncation_preserves_paths(self):
        # in the second case the narrow field fits in one block of sites, the wide one spans four
        cases = [(TimeGrid(dt=0.1, n_steps=30, i_start=-10), {0: 1.0, 1: 0.5}, 4, 9),
                 (TimeGrid(dt=0.01, n_steps=2048, i_start=-1024), None, 3, 15)]
        for grid, sigma, narrow, wider in cases:
            small = build_noise_field(make_params(narrow, sigma=sigma or all_sites(narrow)),
                                      grid, 11)
            wide = build_noise_field(make_params(wider, sigma=sigma or all_sites(wider)),
                                     grid, 11)
            assert noisy_sites(small)
            for i in noisy_sites(small):
                assert np.array_equal(site_path(small, i), site_path(wide, i))
        rows = noise._BLOCK_VALUES // (2 * 2048)  # sites per block
        assert 7 <= rows and 31 > 3 * rows

    def test_blocked_columns_are_one_row_samples(self):
        # zero-intensity gaps and a negative intensity, over at least three blocks
        sigma = {i: (-0.4 if i == 6 else 0.3 + 0.01 * i) for i in range(-16, 17) if i % 5}
        grid = TimeGrid(dt=0.02, n_steps=1500, i_start=-500)
        f = build_noise_field(make_params(16, sigma=sigma), grid, 123, h=0.7)
        assert len(sigma) > 2 * (noise._BLOCK_VALUES // (2 * grid.n_steps))
        k0 = grid.index_of(0.0)
        for i in range(-16, 17):
            if i not in sigma:
                assert not site_path(f, i).any()
                continue
            row = sample_fbm_array(1, grid.n_steps, 0.7, grid.dt,
                                   np.random.SeedSequence(f.seed_scheme[i]))[0]
            assert np.array_equal(site_path(f, i), row - row[k0])


class TestNoiseFieldChecks:
    def test_paths_read_only_and_scaled_on_read(self, field):
        with pytest.raises(ValueError):
            field.paths[1, 4] = 1.0
        np.testing.assert_array_equal(field.w_matrix, field.paths * field.sigma.values)
        np.testing.assert_array_equal(field.at(1.0).values,
                                      field.w_matrix[field.grid.index_of(1.0)])

    def test_owned_arrays_frozen_and_views_copied(self, field):
        owned = np.array(field.paths)
        f = NoiseField(field.grid, field.sigma, field.master_seed, owned)
        assert f.paths is owned and not owned.flags.writeable
        base = np.array(field.paths)
        g = NoiseField(field.grid, field.sigma, field.master_seed, base[:])
        assert base.flags.writeable and not np.shares_memory(g.paths, base)

    def test_rejects_inconsistent_paths(self, field):
        k0 = field.grid.index_of(0.0)
        short = np.array(field.paths[:-1])
        infinite = np.array(field.paths)
        infinite[-1, 4] = np.inf
        unanchored = np.array(field.paths)
        unanchored[k0, 4] = 1e-300
        silent = np.array(field.paths)
        silent[-1, 0] = 1.0  # site -4 has sigma = 0
        for paths, message in ((short, "shape"), (infinite, "finite"),
                               (unanchored, "exactly 0 at t = 0"),
                               (silent, "zero intensity")):
            with pytest.raises(ValueError, match=message):
                NoiseField(grid=field.grid, sigma=field.sigma,
                           master_seed=field.master_seed, paths=paths)

    def test_seed_scheme_follows_master_seed(self, field):
        assert field.seed_scheme == {0: (99, 101, 1 << 20), 1: (99, 101, 1 + (1 << 20))}
        assert shift_noise(field, 0.5).seed_scheme == field.seed_scheme


class TestShift:
    def test_zero_shift_identity(self, field):
        sh = shift_noise(field, 0.0)
        assert np.array_equal(sh.w_matrix, field.w_matrix)
        assert sh.grid == field.grid

    def test_additivity_identity(self, field):
        # W(tau + t) = W(tau, shifted) + W(t) per site per node; pure
        # subtraction, so the residual sits at one ulp of |W|
        t = 0.6
        sh = shift_noise(field, t)
        worst = 0.0
        for k, tau in enumerate(sh.grid.times()):
            if not (field.grid.t_start <= tau + t <= field.grid.t_end):
                continue
            lhs = field.w_matrix[field.grid.index_of(tau + t)]
            rhs = sh.w_matrix[k] + field.w_matrix[field.grid.index_of(t)]
            worst = max(worst, np.abs(lhs - rhs).max())
        assert worst <= 1e-15

    def test_composition(self, field):
        a = shift_noise(shift_noise(field, 0.5), 0.25)
        b = shift_noise(field, 0.75)
        assert a.grid == b.grid
        np.testing.assert_allclose(a.paths, b.paths, rtol=0.0, atol=1e-13)

    def test_window_error(self, field):
        with pytest.raises(WindowError):
            shift_noise(field, 5.0)


class TestCoarsen:
    def test_every_other_node(self, field):
        c = coarsen_noise(field, 2)
        assert c.grid.dt == pytest.approx(0.1)
        np.testing.assert_array_equal(c.w_matrix, field.w_matrix[::2])

    def test_misaligned_factor_rejected(self):
        params = make_params()
        f = build_noise_field(params, TimeGrid(dt=0.1, n_steps=21, i_start=-10), 3)
        with pytest.raises(WindowError):
            coarsen_noise(f, 2)


class TestStieltjesIntegral:
    def test_zero_path(self):
        g = TimeGrid(dt=0.1, n_steps=10)
        assert stieltjes_exp_integral(g, np.zeros(11), 1.0, 0.0, 1.0) == 0.0

    def test_smooth_path_second_order(self):
        # W(s) = s makes the integral int_0^1 e^s ds = e - 1; trapezoid
        # error falls by 4 per halving
        errs = {}
        for dt in (1e-2, 5e-3):
            g = TimeGrid(dt=dt, n_steps=round(1 / dt))
            val = stieltjes_exp_integral(g, g.times(), 1.0, 0.0, 1.0)
            errs[dt] = abs(val - (np.e - 1.0))
        assert errs[1e-2] <= 1e-4
        assert 3.5 <= errs[1e-2] / errs[5e-3] <= 4.5

    def test_linearity(self, field):
        g, p0, p1 = field.grid, site_path(field, 0), site_path(field, 1)
        lhs = stieltjes_exp_integral(g, p0 + p1, 1.3, -1.0, 2.0)
        rhs = stieltjes_exp_integral(g, p0, 1.3, -1.0, 2.0) + stieltjes_exp_integral(
            g, p1, 1.3, -1.0, 2.0
        )
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_rough_path_cauchy_in_dt(self):
        # on fractional paths the quadrature still settles: gaps between
        # successive refinements of one realization shrink
        params = make_params(sigma={0: 1.0})
        fine = build_noise_field(params, TimeGrid(dt=2.5e-4, n_steps=4000), 17)
        vals = {}
        for fac in (4, 2, 1):
            f = coarsen_noise(fine, fac)
            vals[fac] = stieltjes_exp_integral(f.grid, site_path(f, 0), 1.0, 0.0, 1.0)
        assert abs(vals[2] - vals[4]) > abs(vals[1] - vals[2])

    def test_sweep_matches_direct_formula(self, field):
        p = site_path(field, 0)
        sweep = decayed_exp_sweep(p, 1.3, field.grid.dt)
        for t in (-1.0, 0.5, 2.0):
            direct = np.exp(-1.3 * t) * stieltjes_exp_integral(
                field.grid, p, 1.3, field.grid.t_start, t
            )
            assert sweep[field.grid.index_of(t)] == pytest.approx(direct, abs=1e-12)

    def test_sweep_rows_do_not_depend_on_later_rows(self):
        # lam dt = 2.5 makes blocks of 10 steps, so the prefixes end in last
        # blocks of every length, each reading a slice of the first block's factors
        x = np.random.default_rng(3).standard_normal((36, 3)).cumsum(axis=0)
        for lam in (25.0, np.array([25.0, 3.0, 0.5])):
            full = decayed_exp_sweep(x, lam, 0.1)
            for n in range(1, 36):
                assert np.array_equal(decayed_exp_sweep(x[: n + 1], lam, 0.1), full[: n + 1])

    @pytest.mark.parametrize("lam", [1.3, np.array([25.0, 3.0, 0.5])],
                             ids=["scalar", "per-column"])
    def test_one_node_sweeps_to_zero(self, lam):
        out = decayed_exp_sweep(np.array([[0.4, -1.0, 2.0]]), lam, 0.1)
        assert out.shape == (1, 3) and (out == 0.0).all()


class TestOUSolution:
    def test_zero_field_pure_decay(self):
        params = make_params(sigma={})
        f = build_noise_field(params, TimeGrid(dt=0.05, n_steps=60), 1)
        u0 = LatticeVector.from_support(4, {0: 2.0, -2: 1.0})
        tr = ou_solution(u0, 0.7, f, 3.0)
        for t in (0.0, 1.0, 3.0):
            np.testing.assert_allclose(
                tr.at(t).values, np.exp(-0.7 * t) * u0.values, rtol=0.0, atol=1e-15
            )

    def test_zero_start_bounded_by_noise_sup(self, field):
        # damped response from rest stays within a few sups of the drive
        tr = ou_solution(LatticeVector.zeros(4), 5.0, field, 2.0)
        w_sup = np.linalg.norm(field.w_matrix, axis=1).max()
        assert tr.norms().max() <= 3.0 * w_sup


class TestStationaryOU:
    def setup_method(self):
        self.params = make_params(half_width=2, sigma={-1: 0.5, 0: 1.0, 1: 0.5})
        self.grid = TimeGrid(dt=0.02, n_steps=1100, i_start=-1000)  # [-20, 2]
        self.field = build_noise_field(self.params, self.grid, 77)

    def test_continues_as_ou_solution_from_its_value_at_zero(self):
        # on t >= 0 the sweep from the far past is the damped solution
        # started at its own value at 0, for which ou_solution is the oracle
        ou = stationary_ou(1.0, self.field)
        tr = ou_solution(ou.at(0.0), 1.0, self.field, 2.0)
        np.testing.assert_allclose(tr.values, ou.values, rtol=0.0, atol=1e-12)

    def test_zero_field_is_zero(self):
        params = make_params(half_width=2, sigma={})
        f = build_noise_field(params, self.grid, 1)
        ou = stationary_ou(1.0, f)
        assert np.all(ou.values == 0.0)

    def test_insufficient_horizon_raises(self):
        eval_grid = TimeGrid(dt=0.02, n_steps=10, i_start=-990)
        with pytest.raises(InsufficientHorizonError):
            stationary_ou(1.0, self.field, eval_grid=eval_grid)

    def test_doubling_past_changes_less_than_tail_bound(self):
        deep_grid = TimeGrid(dt=0.02, n_steps=2100, i_start=-2000)  # [-40, 2]
        deep = build_noise_field(self.params, deep_grid, 77)
        shallow = NoiseField(grid=self.grid, sigma=deep.sigma,
                             master_seed=deep.master_seed, paths=deep.paths[1000:])
        ou_shallow = stationary_ou(1.0, shallow)
        ou_deep = stationary_ou(1.0, deep)
        gap = np.abs(ou_shallow.at(0.0).values - ou_deep.at(0.0).values).max()
        assert gap <= ou_shallow.tail_bound

    def test_shift_stationarity_identity(self):
        # ou(t) of the field equals ou(0) of the t-shifted field up to the
        # trapezoid defect, which scales like dt^2 times the path size
        ou = stationary_ou(1.0, self.field)
        shifted = stationary_ou(1.0, shift_noise(self.field, 1.0))
        gap = np.abs(ou.at(1.0).values - shifted.at(0.0).values).max()
        w_max = np.abs(self.field.w_matrix).max()
        assert gap <= 0.6 * self.grid.dt**2 * (1.0 + w_max)

    def test_growth_bound_every_node(self):
        ou = stationary_ou(1.0, self.field)
        rho = noise_growth_constant(self.field)
        times = ou.grid.times()
        assert (ou.norms() <= 4.0 * rho * (1.0 + np.abs(times)) ** 2 + 1e-12).all()
        assert np.array_equal(ou.growth_bound(times), 4.0 * rho * (1.0 + np.abs(times)) ** 2)

    def test_rho_equals_growth_constant(self):
        for f in (self.field, shift_noise(self.field, 1.0)):
            assert stationary_ou(1.0, f).rho == noise_growth_constant(f)

    def test_tail_bound_recorded(self):
        ou = stationary_ou(1.0, self.field)
        rho = noise_growth_constant(self.field)
        expected = np.exp(-20.0) * 4.0 * rho * 21.0**2
        assert ou.tail_bound == pytest.approx(expected, rel=1e-12)
        # derived from the field's growth bound at the past horizon, not stored
        assert ou.tail_bound == np.exp(-1.0 * ou.past_horizon) * ou.growth_bound(ou.past_horizon)
        assert ou.past_horizon == pytest.approx(20.0)

    def test_built_without_rate_raises(self):
        # absorbing_radius divided by this default lam = 0 with a bare ZeroDivisionError
        with pytest.raises(ValueError, match="lam must be a finite number > 0, got 0.0"):
            noise.OUProcess(grid=TimeGrid(0.1, 10, -10), values=np.zeros((11, 3)))

    @pytest.mark.parametrize("field_name, bad", [
        ("lam", -1.0), ("lam", np.inf), ("lam", np.nan),
        ("rho", -1e-9), ("rho", np.inf), ("past_horizon", -1.0), ("past_horizon", np.nan),
    ])
    def test_invalid_fields_named(self, field_name, bad):
        kwargs = {"lam": 1.0, field_name: bad}
        with pytest.raises(ValueError, match=f"^{field_name} must be a finite number"):
            noise.OUProcess(grid=TimeGrid(0.1, 10, -10), values=np.zeros((11, 3)), **kwargs)


@pytest.mark.parametrize("call, error, message", [
    (lambda f: stationary_ou(1.0, f, TimeGrid(dt=0.1, n_steps=10)), WindowError,
     "eval grid must share the field dt"),
    (lambda f: stationary_ou(1.0, f, TimeGrid(dt=0.05, n_steps=10, i_start=35)), WindowError,
     "eval grid leaves the sampled window"),
    (lambda f: stationary_ou(0.0, f), ValueError, "lam must be positive"),
    (lambda f: stationary_ou(-1.0, f), ValueError, "lam must be positive"),
    (lambda f: decayed_exp_sweep(f.paths, 0.0, f.grid.dt), ValueError, "lam must be positive"),
    (lambda f: decayed_exp_sweep(f.paths[:, :2], np.array([1.0, -1.0]), f.grid.dt), ValueError,
     "lam must be positive"),
    (lambda f: VectorSeries(f.grid, f.paths[1:]), ValueError, "values rows must match grid nodes"),
], ids=["ou-other-dt", "ou-outside-window", "ou-zero-lam", "ou-negative-lam", "sweep-zero-lam",
        "sweep-negative-column-lam", "series-row-mismatch"])
def test_input_guards(field, call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call(field)


class TestGrowthConstant:
    def test_zero_field(self):
        params = make_params(sigma={})
        f = build_noise_field(params, TimeGrid(dt=0.1, n_steps=20, i_start=-10), 1)
        assert noise_growth_constant(f) == 0.0

    def test_bounded_by_max_on_unit_window(self, field):
        rho = noise_growth_constant(field)
        norms = np.linalg.norm(field.w_matrix, axis=1)
        assert rho <= norms.max()
        times = field.grid.times()
        assert (norms <= rho * (1.0 + times**2) + 1e-15).all()


NOISY_GRID = TimeGrid(dt=0.05, n_steps=540, i_start=-500)  # [-25, 2]


class TestNoisyColumns:
    """stationary_ou and the growth constant read only the noisy sites; the
    oracles compute them over every column of w_matrix, silent ones too."""

    @pytest.mark.parametrize("half_width, sigma", [
        (3, {-2: 0.5, 0: 1.0, 2: 0.3}),
        (2, {}),
        (2, all_sites(2)),
    ], ids=["silent-edges-and-gaps", "no-noisy-site", "every-site-noisy"])
    def test_bit_identical_to_whole_field(self, half_width, sigma):
        f = build_noise_field(make_params(half_width, sigma), NOISY_GRID, 5)
        for eval_grid in (None, TimeGrid(dt=0.05, n_steps=20, i_start=-20)):
            ou = stationary_ou(1.0, f, eval_grid)
            ref = oracles.stationary_ou_dense(1.0, f, eval_grid)
            assert ou.grid == ref.grid
            assert np.array_equal(ou.values, ref.values)
            assert (ou.rho, ou.tail_bound, ou.past_horizon) == (
                ref.rho, ref.tail_bound, ref.past_horizon)
        assert noise_growth_constant(f) == oracles.growth_constant_dense(f)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("half_width, sigma", [
        (6, {i: 0.3 + 0.05 * i for i in range(-6, 7) if i % 3}),
        (4, all_sites(4)),
    ], ids=["eight-among-silent", "nine-every-site-noisy"])
    def test_eight_or_more_noisy_sites(self, half_width, sigma, seed):
        # numpy sums a row-major row of eight or more squares in eight interleaved
        # partial sums, and the column-major noisy columns in column order, so
        # |W(t)| and rho move at rounding level; the swept values stay bit-identical
        f = build_noise_field(make_params(half_width, sigma), NOISY_GRID, seed)
        ou = stationary_ou(1.0, f)
        ref = oracles.stationary_ou_dense(1.0, f)
        assert np.array_equal(ou.values, ref.values)
        assert ou.rho == pytest.approx(ref.rho, rel=1e-15, abs=0.0)
        assert ou.tail_bound == pytest.approx(ref.tail_bound, rel=1e-15, abs=0.0)
        assert noise_growth_constant(f) == ou.rho
