import math
import warnings

import numpy as np
import pytest

from fraclattice.errors import NonlinearityOverflowError
from fraclattice.lattice import (
    Boundary,
    LatticeParams,
    LatticeVector,
    NonlinearityKind,
    NonlinearitySpec,
    apply_diff,
    apply_diff_adjoint,
    apply_laplacian,
    eval_nonlinearity,
    laplacian_array,
    laplacian_modes,
    probe_dissipativity,
    probe_growth,
)


def rand_vec(rng, n, interior=False):
    v = rng.standard_normal(2 * n + 1)
    if interior:
        v[0] = v[-1] = 0.0
    return LatticeVector(v)


class TestLatticeVector:
    def test_indexing(self):
        v = LatticeVector.from_support(3, {-3: 1.0, 0: 2.0, 2: -1.0})
        assert v.get(-3) == 1.0 and v.get(0) == 2.0 and v.get(2) == -1.0
        assert v.half_width == 3
        with pytest.raises(IndexError):
            v.get(4)

    def test_from_support_rejects_sites_outside_truncation(self):
        for site in (-4, 4, 7):
            with pytest.raises(ValueError, match="outside"):
                LatticeVector.from_support(3, {site: 1.0})

    def test_basis_and_norm(self):
        e = LatticeVector.basis(4, -2)
        assert e.norm() == 1.0 and e.get(-2) == 1.0

    def test_rejects_even_length(self):
        with pytest.raises(ValueError):
            LatticeVector(np.zeros(4))


class TestOperators:
    def test_laplacian_stencil_on_basis(self):
        a = apply_laplacian(LatticeVector.basis(4, 0))
        assert a.get(0) == 2.0 and a.get(1) == -1.0 and a.get(-1) == -1.0
        assert a.norm() ** 2 == pytest.approx(6.0, abs=1e-15)

    def test_periodic_kills_constants(self):
        c = LatticeVector(np.full(9, 3.7))
        assert apply_laplacian(c, Boundary.PERIODIC).norm() == 0.0
        assert apply_diff(c, Boundary.PERIODIC).norm() == 0.0

    def test_diff_stencil_on_basis(self):
        b = apply_diff(LatticeVector.basis(4, 0))
        assert b.get(-1) == 1.0 and b.get(0) == -1.0
        assert b.norm() ** 2 == pytest.approx(2.0, abs=1e-15)
        bs = apply_diff_adjoint(LatticeVector.basis(4, 0))
        assert bs.get(1) == 1.0 and bs.get(0) == -1.0

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_adjointness(self, boundary):
        rng = np.random.default_rng(2)
        for _ in range(300):
            x, y = rand_vec(rng, 16), rand_vec(rng, 16)
            lhs = float(np.dot(apply_diff_adjoint(x, boundary).values, y.values))
            rhs = float(np.dot(x.values, apply_diff(y, boundary).values))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    def test_factorization_periodic_any_vector(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            x = rand_vec(rng, 16)
            ax = apply_laplacian(x, Boundary.PERIODIC).values
            bbs = apply_diff(apply_diff_adjoint(x, Boundary.PERIODIC), Boundary.PERIODIC).values
            bsb = apply_diff_adjoint(apply_diff(x, Boundary.PERIODIC), Boundary.PERIODIC).values
            scale = x.norm()
            assert np.abs(ax - bbs).max() <= 1e-12 * scale
            assert np.abs(ax - bsb).max() <= 1e-12 * scale

    def test_factorization_zero_padding_interior_support(self):
        # truncated compositions match the laplacian whenever the vector
        # vanishes on the outermost sites (honest truncations of
        # compactly supported states); boundary entries break it
        rng = np.random.default_rng(4)
        for _ in range(300):
            x = rand_vec(rng, 16, interior=True)
            ax = apply_laplacian(x).values
            bbs = apply_diff(apply_diff_adjoint(x)).values
            bsb = apply_diff_adjoint(apply_diff(x)).values
            scale = x.norm()
            assert np.abs(ax - bbs).max() <= 1e-12 * scale
            assert np.abs(ax - bsb).max() <= 1e-12 * scale
        edge = LatticeVector.basis(4, 4)
        gap = apply_laplacian(edge).values - apply_diff(apply_diff_adjoint(edge)).values
        assert np.abs(gap).max() > 0.5

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_positivity(self, boundary):
        rng = np.random.default_rng(5)
        for _ in range(300):
            x = rand_vec(rng, 16)
            quad = float(np.dot(apply_laplacian(x, boundary).values, x.values))
            assert quad >= -1e-12 * x.norm() ** 2


class TestSpectralModes:
    def test_constant_mode(self):
        eigs, modes = laplacian_modes(5)
        assert eigs[0] == 0.0
        np.testing.assert_allclose(modes[:, 0], np.full(11, 1 / np.sqrt(11)))

    def test_eigen_residuals(self):
        eigs, modes = laplacian_modes(2)
        for k in range(5):
            res = laplacian_array(modes[:, k], Boundary.PERIODIC) - eigs[k] * modes[:, k]
            assert np.abs(res).max() <= 1e-12

    def test_range_and_orthonormality(self):
        eigs, modes = laplacian_modes(12)
        assert eigs.min() >= 0.0 and eigs.max() <= 4.0
        gram = modes.T @ modes
        assert np.abs(gram - np.eye(25)).max() <= 1e-12


class TestNonlinearity:
    def test_linear_formula(self):
        spec = NonlinearitySpec.linear(1.0)
        x = LatticeVector.from_support(3, {0: 2.0, 1: -3.0})
        out = eval_nonlinearity(spec, x)
        np.testing.assert_array_equal(out.values, -x.values)

    def test_cubic_on_basis(self):
        out = eval_nonlinearity(NonlinearitySpec.cubic(1.0, 1.0), LatticeVector.basis(3, 0))
        assert out.get(0) == -2.0
        assert out.norm() == 2.0

    def test_cubic_fixes_zero(self):
        out = eval_nonlinearity(NonlinearitySpec.cubic(1.0, 1.0), LatticeVector.zeros(3))
        assert out.norm() == 0.0

    def test_overflow_raises(self):
        x = LatticeVector.from_support(3, {0: 1e200})
        with pytest.raises(NonlinearityOverflowError):
            eval_nonlinearity(NonlinearitySpec.cubic(1.0, 1.0), x)

    def test_overflow_message_names_largest_entry_without_warning(self):
        x = LatticeVector.from_support(3, {0: 1e200})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonlinearityOverflowError, match=r"max\|x_i\|=1\.000e\+200"):
                eval_nonlinearity(NonlinearitySpec.cubic(1.0, 1.0), x)

    def test_commutes_with_site_permutation(self):
        spec = NonlinearitySpec.cubic(0.5, 2.0)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(9)
        flipped = eval_nonlinearity(spec, LatticeVector(x[::-1].copy())).values
        np.testing.assert_array_equal(flipped, eval_nonlinearity(spec, LatticeVector(x)).values[::-1])

    def test_custom_requires_callables(self):
        with pytest.raises(ValueError):
            NonlinearitySpec(kind=NonlinearityKind.CUSTOM, diss_const=1.0,
                             growth_coef=1.0, growth_power=1.0)


class TestDissipativityProbe:
    @pytest.mark.parametrize("a", [1.0, 2.0, 4.0])
    def test_linear_quotient_exact(self, a):
        # power-of-two coefficients make the quotient bit-exact
        rep = probe_dissipativity(NonlinearitySpec.linear(a), 500, 10.0, seed=1)
        assert rep.worst_quotient == -a
        assert rep.passed

    def test_cubic_quotient_below_minus_one(self):
        rep = probe_dissipativity(NonlinearitySpec.cubic(1.0, 1.0), 10_000, 10.0, seed=1)
        assert rep.worst_quotient <= -1.0
        assert rep.passed

    def test_designed_violation_detected(self):
        anti = NonlinearitySpec.custom(
            fn=lambda s: s, dfn=lambda s: np.ones_like(s),
            diss_const=1.0, growth_coef=2.0, growth_power=1.0, label="anti",
        )
        rep = probe_dissipativity(anti, 500, 10.0, seed=1)
        assert not rep.passed
        assert rep.worst_quotient == 1.0


class TestGrowthProbe:
    def test_linear_with_doubled_coef(self):
        spec = NonlinearitySpec(kind=NonlinearityKind.LINEAR, a=1.0, diss_const=1.0,
                                growth_coef=2.0, growth_power=1.0)
        rep = probe_growth(spec, 2000, 10.0, seed=2)
        assert rep.passed
        assert rep.worst_ratio <= 1.0 + 1e-12  # |x| + 1 <= 1 * (1 + |x|)

    def test_cubic_minimal_coef_brute_force(self):
        # independent oracle: recompute the worst ratio with plain math on
        # the probe's own samples, then bracket the claimed coefficient
        spec = NonlinearitySpec.cubic(1.0, 1.0)
        n, radius, seed, width = 2000, 10.0, 7, 16
        rng = np.random.default_rng(seed)
        samples = rng.uniform(-radius, radius, size=(n, 2 * width + 1))
        worst = 0.0
        for row in samples:
            fx = [-s - s**3 for s in row]
            lhs = math.sqrt(sum(v * v for v in fx)) + max(abs(-1.0 - 3.0 * s * s) for s in row)
            rhs = 1.0 + math.sqrt(sum(s * s for s in row)) ** 3
            worst = max(worst, lhs / rhs)
        rep = probe_growth(spec, n, radius, seed=seed, half_width=width)
        assert rep.worst_ratio == pytest.approx(worst, rel=1e-12)
        ok = NonlinearitySpec(kind=NonlinearityKind.CUBIC, a=1.0, b=1.0, diss_const=1.0,
                              growth_coef=worst * 1.05, growth_power=3.0)
        bad = NonlinearitySpec(kind=NonlinearityKind.CUBIC, a=1.0, b=1.0, diss_const=1.0,
                               growth_coef=worst * 0.95, growth_power=3.0)
        assert probe_growth(ok, n, radius, seed=seed, half_width=width).passed
        assert not probe_growth(bad, n, radius, seed=seed, half_width=width).passed

    def test_cubic_default_coef_passes(self):
        rep = probe_growth(NonlinearitySpec.cubic(1.0, 1.0), 5000, 10.0, seed=3)
        assert rep.passed

    def test_cubic_with_claimed_linear_growth_fails(self):
        lying = NonlinearitySpec(kind=NonlinearityKind.CUBIC, a=1.0, b=1.0, diss_const=1.0,
                                 growth_coef=NonlinearitySpec.cubic(1.0, 1.0).growth_coef,
                                 growth_power=1.0)
        assert not probe_growth(lying, 2000, 10.0, seed=4).passed


class TestLatticeParams:
    def test_positivity_enforced(self):
        z = LatticeVector.zeros(2)
        with pytest.raises(ValueError):
            LatticeParams(coupling=-1.0, damping=1.0, forcing=z, noise_amp=z, half_width=2)
        with pytest.raises(ValueError):
            LatticeParams(coupling=1.0, damping=0.0, forcing=z, noise_amp=z, half_width=2)

    def test_width_consistency(self):
        with pytest.raises(ValueError):
            LatticeParams(coupling=1.0, damping=1.0, forcing=LatticeVector.zeros(3),
                          noise_amp=LatticeVector.zeros(2), half_width=2)
