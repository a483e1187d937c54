import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fraclattice import fbm
from fraclattice.errors import EmbeddingError, OffGridError, WindowError
from fraclattice.fbm import (
    TimeGrid,
    as_hurst,
    sample_fbm_array,
)
from fraclattice.lattice import LatticeParams, LatticeVector
from fraclattice.noise import NoiseField, build_noise_field
from fraclattice.solver import SolverConfig
import oracles
from oracles import fgn_autocovariance, sample_fbm_cholesky, shift_noise

@pytest.fixture
def forced_bad_embedding(monkeypatch):
    """A negative tolerance, so every embedding fails the guard.

    No admissible (h, n) produces a bad embedding.  The eigenvalue cache
    is keyed on (n, h) alone, so it is cleared to make every call meet
    the forced tolerance.
    """
    monkeypatch.setattr(fbm, "EIGENVALUE_TOL", -1.0)
    fbm._fgn_eigenvalues.cache_clear()


class TestHurstParameter:
    def test_standard_range(self):
        assert as_hurst(0.75) == 0.75
        for h in (0.5, 1.0, 0.4, float("nan")):
            with pytest.raises(ValueError, match=r"outside \(0\.5, 1\)"):
                as_hurst(h)

    def test_half_rejected_by_samplers(self):
        grid = TimeGrid(dt=0.01, n_steps=8)
        with pytest.raises(ValueError):
            sample_fbm_array(1, 8, 0.5, 0.01, seed=0)
        with pytest.raises(ValueError):
            build_noise_field(all_sites_params(2), grid, 0, h=0.5)


class TestTimeGrid:
    def test_nodes_and_zero_alignment(self):
        g = TimeGrid(dt=0.25, n_steps=8, i_start=-4)
        assert g.t_start == -1.0 and g.t_end == 1.0
        assert g.index_of(0.0) == 4
        assert g.index_of(-1.0) == 0

    def test_off_grid_and_window_errors(self):
        g = TimeGrid(dt=0.25, n_steps=4)
        with pytest.raises(OffGridError):
            g.index_of(0.1)
        assert issubclass(OffGridError, ValueError)  # for callers that catch ValueError
        with pytest.raises(WindowError):
            g.index_of(2.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TimeGrid(dt=0.0, n_steps=2)
        with pytest.raises(ValueError):
            TimeGrid(dt=0.1, n_steps=0)


#: Every count of a duration ``s`` in steps of ``dt``, as each user of ``whole_steps`` reads it.
STEP_READERS = {
    "window-past": lambda s, dt: -TimeGrid.window(dt, s, 0.0).i_start,
    "window-future": lambda s, dt: TimeGrid.window(dt, 0.0, s).n_steps,
    "index_of": lambda s, dt: TimeGrid(dt, 1 << 26).index_of(s),
    "steps_of": lambda s, dt: TimeGrid(dt, 1).steps_of(s),
    "n_steps": lambda s, dt: SolverConfig(dt=dt, t_end=s).n_steps(),
    "refinement": lambda s, dt: SolverConfig(dt=dt, t_end=0.0).refinement(s),
}


class TestWholeSteps:
    @settings(max_examples=200)
    @given(k=st.integers(1, 1 << 26), dt=st.floats(1e-3, 10.0),
           offset=st.floats(-1e-7, 1e-7))
    @example(k=1 << 26, dt=0.1, offset=1e-7)
    @example(k=1 << 26, dt=0.1, offset=-1e-7)
    def test_every_reader_accepts_whole_steps_within_the_slack(self, k, dt, offset):
        s = k * dt + offset * dt
        assert {name: read(s, dt) for name, read in STEP_READERS.items()} == dict.fromkeys(
            STEP_READERS, k)

    @settings(max_examples=100)
    @given(k=st.integers(1, 1 << 26), dt=st.floats(1e-3, 10.0), sign=st.sampled_from([-1, 1]))
    @example(k=1 << 26, dt=0.1, sign=1)
    def test_every_reader_rejects_a_hundred_thousandth_of_a_step(self, k, dt, sign):
        s = k * dt + sign * 1e-5 * dt
        for read in STEP_READERS.values():
            with pytest.raises(OffGridError, match=" is not a whole number of steps of dt="):
                read(s, dt)

    @pytest.mark.parametrize("call", [
        lambda: TimeGrid.window(0.1, float("inf"), 0.0),
        lambda: SolverConfig(0.01, float("inf")).n_steps(),
        lambda: TimeGrid(0.1, 10).index_of(float("nan")),
    ], ids=["window-infinite-past", "n_steps-infinite-t_end", "index_of-nan"])
    def test_non_finite_duration_is_off_grid(self, call):
        # not the OverflowError or ValueError of rounding inf or nan to an integer
        with pytest.raises(OffGridError, match=r"^duration (inf|nan) is not finite"):
            call()


@pytest.mark.parametrize("call, message", [
    (lambda: TimeGrid.window(0.1, -0.1, 1.0), "t_past and t_future must be >= 0"),
    (lambda: TimeGrid.window(0.1, 1.0, -0.1), "t_past and t_future must be >= 0"),
    (lambda: sample_fbm_array(1, 0, 0.75, 0.1, 0), "n_steps must be >= 1"),
    # an infinite step would count every duration as 0 steps
    (lambda: TimeGrid(float("inf"), 10).index_of(5.0), "dt must be finite"),
    (lambda: TimeGrid(float("inf"), 10).steps_of(123.0), "dt must be finite"),
    (lambda: SolverConfig(float("inf"), 3.0).n_steps(), "dt must be finite"),
    (lambda: TimeGrid.window(float("inf"), 1.0, 1.0), "dt must be finite"),
], ids=["window-negative-past", "window-negative-future", "fbm-zero-steps",
        "infinite-dt-index_of", "infinite-dt-steps_of", "infinite-dt-n_steps",
        "infinite-dt-window"])
def test_input_guards(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: TimeGrid(0.1, 10.5),
    lambda: TimeGrid(0.1, 10, i_start=-2.5),
], ids=["n_steps", "i_start"])
def test_fractional_node_count_rejected(call):
    # 10.5 steps would give 11.5 nodes but 12 times, and i_start -2.5 a node index of 2.5
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


def test_node_counts_become_ints():
    grid = TimeGrid(0.1, np.int64(10), i_start=np.int64(-4))
    assert type(grid.n_steps) is int and type(grid.i_start) is int
    assert grid.index_of(0.0) == 4


class TestAutocovariance:
    def test_lag_zero_is_step_variance(self):
        assert fgn_autocovariance(0, 0.75, 1.0) == 1.0
        assert fgn_autocovariance(0, 0.75, 0.5) == pytest.approx(0.5**1.5, rel=1e-15)

    def test_reference_mode_increments_uncorrelated(self):
        # the oracle takes H unchecked, so it evaluates the Brownian reference H = 1/2
        for k in range(1, 6):
            assert fgn_autocovariance(k, 0.5, 1.0) == 0.0

    def test_lag_one_value(self):
        # direct evaluation: (2^1.5 - 2) / 2
        assert fgn_autocovariance(1, 0.75, 1.0) == pytest.approx(
            0.41421356237309515, abs=1e-15
        )

    def test_positive_for_long_memory(self):
        gam = [fgn_autocovariance(k, 0.6) for k in range(60)]
        assert min(gam) > 0.0


class TestSampling:
    def test_deterministic(self):
        a = sample_fbm_array(1, 1024, 0.75, 0.01, seed=7)
        b = sample_fbm_array(1, 1024, 0.75, 0.01, seed=7)
        assert np.array_equal(a, b)

    def test_anchored_at_zero(self):
        assert sample_fbm_array(1, 64, 0.8, 0.1, seed=1)[0, 0] == 0.0

    def test_embedding_guard_fires(self, forced_bad_embedding):
        with pytest.raises(EmbeddingError):
            sample_fbm_array(1, 64, 0.75, 0.01, seed=3)

    def test_embedding_error_raised_on_every_call(self, forced_bad_embedding):
        # the eigenvalue cache keeps returned values only, never a raised error
        grid = TimeGrid(dt=0.01, n_steps=64, i_start=-32)
        for _ in range(3):
            with pytest.raises(EmbeddingError):
                fbm._fgn_eigenvalues(64, 0.75)
            with pytest.raises(EmbeddingError):
                build_noise_field(all_sites_params(2), grid, 3)
        assert fbm._fgn_eigenvalues.cache_info().currsize == 0

    def test_cached_eigenvalues_read_only_and_equal_to_fresh(self):
        fbm._fgn_eigenvalues.cache_clear()
        first = fbm._fgn_eigenvalues(300, 0.7)
        cached = fbm._fgn_eigenvalues(300, 0.7)
        assert cached is first
        assert fbm._fgn_eigenvalues.cache_info().hits == 1
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 1.0
        assert np.array_equal(cached, fbm._fgn_eigenvalues.__wrapped__(300, 0.7))

    def test_one_eigenvalue_computation_per_field(self):
        # d = 41 at 2000 steps spans six blocks of sites
        fbm._fgn_eigenvalues.cache_clear()
        grid = TimeGrid(dt=0.01, n_steps=2000, i_start=-1000)
        build_noise_field(all_sites_params(20), grid, 5)
        build_noise_field(all_sites_params(20), grid, 6)
        info = fbm._fgn_eigenvalues.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_embedding_eigenvalues_nonnegative_across_h(self):
        for h in (0.55, 0.65, 0.75, 0.85, 0.95):
            eig = fbm._fgn_eigenvalues(256, h)
            assert eig.min() >= 0.0

    def test_variance_follows_power_law(self):
        # Var beta(t) = t^(2H) within 3 SE across 1e4 paths
        values = sample_fbm_array(10_000, 100, 0.75, 0.01, seed=2024)
        for t in (0.25, 0.5, 1.0):
            sq = values[:, round(t / 0.01)] ** 2
            se = sq.std(ddof=1) / np.sqrt(sq.size)
            assert abs(sq.mean() - t**1.5) <= 3.0 * se

    def test_reference_mode_increments_pass_whiteness(self):
        # lag-1..10 autocovariances of the increments against the
        # Gaussian-walk oracle value 0, within 3 SE across 1e4 paths.  The
        # samplers reject H = 1/2, so the paths are synthesized by their
        # shared synthesis, from the generator stream sample_fbm_array uses
        z = np.random.default_rng(12).standard_normal((10_000, 128))
        paths = fbm._fbm_rows(z, fbm._fgn_eigenvalues(64, 0.5), 1.0, 0.5)
        inc = np.diff(paths, axis=1)
        for lag in range(1, 11):
            per_path = (inc[:, :-lag] * inc[:, lag:]).mean(axis=1)
            se = per_path.std(ddof=1) / np.sqrt(per_path.size)
            assert abs(per_path.mean()) <= 3.0 * se


class TestHalfSpectrum:
    """The real inverse FFT of the half spectrum against the full-spectrum complex FFT."""

    @pytest.mark.parametrize("rows", [1, 3, 32])
    @pytest.mark.parametrize("n", [1, 2, 7, 500, 3500, 5000])
    def test_matches_full_spectrum_reference(self, n, rows):
        z = np.random.default_rng([n, rows]).standard_normal((rows, 2 * n))
        eig = fbm._fgn_eigenvalues(n, 0.75)
        fgn = fbm._fgn_from_normals(z, eig)
        ref = oracles.fgn_from_normals_full_spectrum(z, eig)
        assert fgn.shape == ref.shape == (rows, n)
        assert np.abs(fgn - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [1, 2, 7, 500, 3500])
    @pytest.mark.parametrize("seed", [0, 1, 2**70 + 5])
    def test_real_arithmetic_equals_the_complex_formula(self, n, seed):
        # the spectrum's parts, written in real arithmetic, are the complex formula's bits,
        # and so is the fGn of the one inverse FFT
        z = np.random.default_rng(seed).standard_normal((32, 2 * n))
        assert (z != 0).all()
        for h in (0.6, 0.9):
            eig = fbm._fgn_eigenvalues(n, h)
            fgn, ref = fbm._fgn_from_normals(z, eig), oracles.fgn_from_normals_complex(z, eig)
            assert fgn.shape == ref.shape == (32, n) and fgn.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [7, 500])
    def test_row_is_independent_of_its_block(self, n):
        z = np.random.default_rng(n).standard_normal((40, 2 * n))
        eig = fbm._fgn_eigenvalues(n, 0.75)
        alone = np.concatenate([fbm._fgn_from_normals(z[r : r + 1], eig) for r in range(40)])
        for size in range(1, 17):
            for first in (0, 3, 17, 40 - size):
                block = fbm._fgn_from_normals(z[first : first + size], eig)
                assert np.array_equal(block, alone[first : first + size])


class TestCholeskyOracle:
    def test_injected_normals_first_step(self):
        # with unit normals z = (1, 0) the first value is sqrt(var step)
        p = sample_fbm_cholesky(2, 0.75, 1.0, normals=np.array([1.0, 0.0]))
        assert p[1] == pytest.approx(1.0, abs=1e-14)
        # second value is then cov(t1, t2)/sqrt(var t1) = 2^1.5 / 2
        assert p[2] == pytest.approx(0.5 * 2**1.5, abs=1e-14)

    def test_deterministic(self):
        a = sample_fbm_cholesky(32, 0.7, 0.1, seed=5)
        b = sample_fbm_cholesky(32, 0.7, 0.1, seed=5)
        assert np.array_equal(a, b)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            sample_fbm_cholesky(5000, 0.75, 0.01, seed=0)

    @pytest.mark.parametrize("n,seed_a,seed_b", [(8, 21, 22), (16, 31, 32)])
    def test_cross_oracle_covariance(self, n, seed_a, seed_b):
        # circulant and Cholesky samplers must give the same covariance;
        # entrywise 3 SE with the analytic SE of a Gaussian covariance
        npaths = 20_000
        a = sample_fbm_array(npaths, n, 0.75, 0.05, seed_a)[:, 1:]
        b = np.array([
            sample_fbm_cholesky(n, 0.75, 0.05, (seed_b, k))[1:]
            for k in range(npaths)
        ])
        cov_a = (a.T @ a) / npaths
        cov_b = (b.T @ b) / npaths
        cov = oracles._fbm_covariance_matrix(n, 0.75, 0.05)
        se_one = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / npaths)
        gap = np.abs(cov_a - cov_b)
        assert (gap <= 3.0 * np.sqrt(2.0) * se_one).all()


def all_sites_params(half_width):
    return LatticeParams(
        coupling=1.0, damping=1.0, forcing=LatticeVector.zeros(half_width),
        noise_amp=LatticeVector(np.ones(2 * half_width + 1)), half_width=half_width,
    )


class TestReanchor:
    """The time-shift flow of one sampled path, (shift by s)(t) = path(t + s) - path(s),
    as the field shift applies it to a field whose only noisy site holds the path."""

    def setup_method(self):
        self.path = sample_fbm_array(1, 100, 0.75, 0.1, seed=3)[0]
        paths = np.zeros((101, 3))
        paths[:, 1] = self.path
        self.field = NoiseField(grid=TimeGrid(dt=0.1, n_steps=100),
                                sigma=LatticeVector.from_support(1, {0: 1.0}),
                                master_seed=3, paths=paths)

    def value(self, field, t):
        return field.paths[field.grid.index_of(t), 1]

    def test_zero_shift_is_identity(self):
        q = shift_noise(self.field, 0.0)
        assert np.array_equal(q.paths[:, 1], self.path)
        assert q.grid == self.field.grid

    def test_output_anchored_exactly(self):
        for s in (0.5, 3.1, 10.0):
            assert self.value(shift_noise(self.field, s), 0.0) == 0.0

    def test_flow_composition(self):
        q = shift_noise(shift_noise(self.field, 2.0), 3.0)
        r = shift_noise(self.field, 5.0)
        assert q.grid == r.grid
        np.testing.assert_allclose(q.paths, r.paths, rtol=0.0, atol=1e-13)

    def test_shift_values(self):
        s = 1.5
        q = shift_noise(self.field, s)
        for t in (-1.0, 0.3, 2.0):
            assert self.value(q, t) == pytest.approx(
                self.value(self.field, t + s) - self.value(self.field, s), abs=1e-15
            )

    def test_out_of_window(self):
        with pytest.raises(WindowError):
            shift_noise(self.field, 11.0)
        with pytest.raises(OffGridError):
            shift_noise(self.field, 0.55 / 2)


#: Each site of the wide field is one two-sided sample on [-1, 1].
WIDE_GRID = TimeGrid(dt=0.25, n_steps=8, i_start=-4)


@pytest.fixture(scope="module")
def wide_field():
    """One production field with 20 001 unit-intensity sites, master seed 50."""
    return build_noise_field(all_sites_params(10_000), WIDE_GRID, 50)


class TestTwoSided:
    """The two-sided law of the noise field, whose per-site columns are
    sample_fbm_array rows re-anchored at the node of t = 0."""

    def test_no_past_reduces_to_one_sided(self):
        field = build_noise_field(all_sites_params(1), TimeGrid(dt=0.1, n_steps=32), 8)
        for i, seed in field.seed_scheme.items():
            row = sample_fbm_array(1, 32, 0.75, 0.1, np.random.SeedSequence(seed))[0]
            assert np.array_equal(field.paths[:, i + 1], row)

    def test_anchored(self):
        field = build_noise_field(all_sites_params(1), TimeGrid(0.25, 16, -8), 4)
        assert np.all(field.paths[field.grid.index_of(0.0)] == 0.0)
        assert field.grid.t_start == pytest.approx(-2.0)

    def test_field_column_is_the_row_minus_its_value_at_zero(self, wide_field):
        k0 = WIDE_GRID.index_of(0.0)
        for i in (-10_000, -3, 0, 7, 10_000):
            row = sample_fbm_array(1, 8, 0.75, 0.25,
                                   np.random.SeedSequence(wide_field.seed_scheme[i]))[0]
            assert np.array_equal(wide_field.paths[:, i + 10_000], row - row[k0])

    def test_cross_zero_covariance(self, wide_field):
        # E[beta(-1) beta(1)] = (2 - 2^1.5) / 2, within 3 SE across the sites
        target = 0.5 * (2.0 - 2.0**1.5)
        prods = wide_field.paths[0] * wide_field.paths[-1]
        se = prods.std(ddof=1) / np.sqrt(prods.size)
        assert abs(prods.mean() - target) <= 3.0 * se

    def test_full_two_sided_covariance(self, wide_field):
        # whole-window law against the analytic kernel; the threshold is
        # Bonferroni-widened for the 72 simultaneous entries
        arr = wide_field.paths.T
        npaths = arr.shape[0]
        t = WIDE_GRID.times()
        cov = 0.5 * (
            np.abs(t[:, None]) ** 1.5 + np.abs(t[None, :]) ** 1.5
            - np.abs(t[:, None] - t[None, :]) ** 1.5
        )
        emp = (arr.T @ arr) / npaths
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / npaths)
        se[se == 0.0] = np.inf
        assert (np.abs(emp - cov) <= 4.0 * se).all()
