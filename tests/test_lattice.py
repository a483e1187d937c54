import dataclasses
import itertools
import math
import re
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
)
from fraclattice.solver import SolverConfig, _step_loop
from oracles import (ClaimedDrift, laplacian_array, laplacian_modes, probe_dissipativity,
                     probe_growth, rolled)


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

    def test_from_support_reads_sites_as_integers(self):
        # a key that int() would truncate or a bool would name site 1 silently
        for key in (1.5, 1.0, True, np.float64(1.0), "1"):
            with pytest.raises(TypeError):
                LatticeVector.from_support(2, {key: 1.0})
        ref = LatticeVector.from_support(3, {-3: 1.0, 0: 2.0, 2: -1.0})
        for kind in (int, np.int64, np.int8):
            v = LatticeVector.from_support(3, {kind(-3): 1.0, kind(0): 2.0, kind(2): -1.0})
            assert v.values.tobytes() == ref.values.tobytes()

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

    @pytest.mark.parametrize("op", [apply_laplacian, apply_diff, apply_diff_adjoint])
    def test_boundary_given_by_value(self, op):
        x = LatticeVector(np.arange(5.0))
        for boundary in Boundary:
            np.testing.assert_array_equal(op(x, boundary.value).values, op(x, boundary).values)
        with pytest.raises(ValueError, match="^'torus' is not a valid Boundary$"):
            op(x, "torus")

    def test_periodic_laplacian_given_by_value_wraps(self):
        x = LatticeVector(np.arange(5.0))
        assert apply_laplacian(x, "periodic").values.tolist() == [-5.0, 0.0, 0.0, 0.0, 5.0]

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
    @pytest.mark.parametrize("d", [3, 5, 33])
    def test_stencil_matches_rolled_references_bit_for_bit(self, boundary, d):
        # edge values of +-0.0 make a signed zero show if it changes
        rng = np.random.default_rng(d)
        for first, last in itertools.product([None, 0.0, -0.0], repeat=2):
            v = rng.standard_normal(d)
            v[0] = v[0] if first is None else first
            v[-1] = v[-1] if last is None else last
            x = LatticeVector(v)
            pairs = [(apply_laplacian(x, boundary), laplacian_array(v, boundary)),
                     (apply_diff(x, boundary), rolled(v, boundary, -1) - v),
                     (apply_diff_adjoint(x, boundary), rolled(v, boundary, 1) - v)]
            for got, want in pairs:
                assert got.values.tobytes() == want.tobytes()

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


def step_cubic(x):
    """One solver step from x, noise-free, under the cubic drift a = b = 1."""
    params = LatticeParams(coupling=1.0, damping=1.0, forcing=LatticeVector.zeros(3),
                           noise_amp=LatticeVector.zeros(3), half_width=3)
    return _step_loop((7,), params, NonlinearitySpec.cubic(1.0, 1.0),
                      SolverConfig(dt=0.01, t_end=0.01))(x.values, np.zeros((2, 7)))


class TestNonlinearity:
    # a LatticeVector of spec.eval_array's output is f with the finiteness check
    def test_linear_formula(self):
        spec = NonlinearitySpec.linear(1.0)
        x = LatticeVector.from_support(3, {0: 2.0, 1: -3.0})
        out = LatticeVector(spec.eval_array(x.values))
        np.testing.assert_array_equal(out.values, -x.values)

    def test_cubic_on_basis(self):
        x = LatticeVector.basis(3, 0)
        out = LatticeVector(NonlinearitySpec.cubic(1.0, 1.0).eval_array(x.values))
        assert out.get(0) == -2.0
        assert out.norm() == 2.0

    def test_cubic_fixes_zero(self):
        x = LatticeVector.zeros(3)
        out = LatticeVector(NonlinearitySpec.cubic(1.0, 1.0).eval_array(x.values))
        assert out.norm() == 0.0

    def test_overflow_raises(self):
        # the kernel turns the non-finite f into NonlinearityOverflowError
        x = LatticeVector.from_support(3, {0: 1e200})
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(NonlinearitySpec.cubic(1.0, 1.0).eval_array(x.values)).all()
        with pytest.raises(NonlinearityOverflowError):
            step_cubic(x)

    def test_overflow_detected_without_warning(self):
        x = LatticeVector.from_support(3, {0: 1e200})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonlinearityOverflowError, match=r"cubic\(a=1, b=1\) overflowed"):
                step_cubic(x)

    def test_commutes_with_site_permutation(self):
        spec = NonlinearitySpec.cubic(0.5, 2.0)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(9)
        flipped = LatticeVector(spec.eval_array(x[::-1].copy())).values
        np.testing.assert_array_equal(flipped, LatticeVector(spec.eval_array(x)).values[::-1])

    def test_kind_given_by_value(self):
        # a kind given as its string value is the kind itself, and evaluates as it
        spec = NonlinearitySpec(kind="cubic", a=1.0, b=1.0)
        assert spec.kind is NonlinearityKind.CUBIC
        assert spec == NonlinearitySpec.cubic(1.0, 1.0)
        x = np.array([-2.0, 0.5, 3.0])
        np.testing.assert_array_equal(spec.eval_array(x),
                                      NonlinearitySpec.cubic(1.0, 1.0).eval_array(x))

    def test_remainder_per_kind(self):
        # f(x) = -a x + r(x), r the prepared remainder, which the linear kind has none of
        x = np.linspace(-2.0, 2.0, 9)
        for spec in (NonlinearitySpec.linear(2.5), NonlinearitySpec.cubic(0.3, 1.7)):
            r = spec.remainder((9,))
            np.testing.assert_array_equal(-spec.a * x + (0.0 if r is None else r(x)),
                                          spec.eval_array(x))

    def test_settable_values(self):
        # a spec takes its kind and coefficients; L, K, p and the label it derives
        assert [f.name for f in dataclasses.fields(NonlinearitySpec) if f.init] == [
            "kind", "a", "b"]

    @pytest.mark.parametrize("spec, changes, derived", [
        (NonlinearitySpec.cubic(1.0, 1.0), {"a": 2.0}, "cubic(a=2, b=1)"),
        (NonlinearitySpec.cubic(1.0, 1.0), {"b": 0.5}, "cubic(a=1, b=0.5)"),
        (NonlinearitySpec.linear(1.0), {"a": 2.5}, "linear(a=2.5)"),
    ], ids=["cubic-a", "cubic-b", "linear-a"])
    def test_replace_derives_anew(self, spec, changes, derived):
        new = dataclasses.replace(spec, **changes)
        fresh = NonlinearitySpec(kind=spec.kind, **{"a": spec.a, "b": spec.b, **changes})
        assert new == fresh and new.label == derived
        assert (new.diss_const, new.growth_coef, new.growth_power) == (
            fresh.diss_const, fresh.growth_coef, fresh.growth_power)
        assert new.diss_const == new.a and new.growth_coef != spec.growth_coef

    @pytest.mark.parametrize("kind, a, b", [("linear", 2.5, 0.0), ("cubic", 0.3, 1.7),
                                            ("cubic", 5e-324, 1.0), ("cubic", 1.0, 5e-324)])
    def test_derived_constants(self, kind, a, b):
        # the derived kinds make L, K, p and the label from their coefficients alone, without
        # a warning even at the smallest double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = NonlinearitySpec(kind=kind, a=a, b=b)
        assert spec.diss_const == a
        if kind == "linear":
            assert (spec.growth_coef, spec.growth_power, spec.label) == (a, 1.0, "linear(a=2.5)")
            return
        assert spec.growth_power == 3.0 and spec.label == f"cubic(a={a:g}, b={b:g})"

        def g(r):
            return (a + a * r + 3.0 * b * r**2 + b * r**3) / (1.0 + r**3)

        # K is the sup of g over r >= 0: at least g on every grid, and within rounding of g
        # at the one positive root of g's numerator P(r) = a + 6b r + 3(b - a) r^2
        # - 2a r^3 - 3b r^4, its subnormal coefficients dropped so np.roots need not divide
        # by them
        for nodes in (20001, 200001):
            assert spec.growth_coef >= g(np.linspace(0.0, 50.0, nodes)).max()
        p = np.array([-3.0 * b, -2.0 * a, 3.0 * (b - a), 6.0 * b, a])
        roots = np.roots(np.where(np.abs(p) > 1e-300, p, 0.0))
        (peak,) = roots.real[(np.abs(roots.imag) < 1e-12) & (roots.real > 0)]
        assert spec.growth_coef <= g(peak) * (1.0 + 2e-12)

    def test_derivative_is_a_float_array_for_every_kind(self):
        # an integer sample gives float derivatives, the linear kind's included
        x = np.array([1, 2])
        for spec, expected in ((NonlinearitySpec.linear(2.5), [-2.5, -2.5]),
                               (NonlinearitySpec.cubic(0.5, 1.0), [-3.5, -12.5])):
            deriv = spec.deriv_array(x)
            assert deriv.dtype == np.float64 and deriv.tolist() == expected


def unexpected(name):
    """The pattern of the TypeError for a keyword that ``NonlinearitySpec`` does not take."""
    return re.escape(f"NonlinearitySpec.__init__() got an unexpected keyword argument '{name}'")


@pytest.mark.parametrize("call, error, message", [
    (lambda: LatticeVector(np.array([0.0, np.nan, 1.0])), ValueError,
     "lattice vector entries must be finite"),
    (lambda: NonlinearitySpec.linear(0.0), ValueError, "linear coefficient must be positive"),
    (lambda: NonlinearitySpec.cubic(0.0, 1.0), ValueError, "cubic coefficients must be positive"),
    (lambda: NonlinearitySpec.cubic(1.0, -1.0), ValueError,
     "cubic coefficients must be positive"),
    (lambda: NonlinearitySpec(kind="quartic", a=1.0, b=1.0), ValueError,
     "'quartic' is not a valid NonlinearityKind"),
    (lambda: NonlinearitySpec(kind=NonlinearityKind.CUBIC, a=float("nan"), b=1.0), ValueError,
     "coefficients a and b must be finite"),
    (lambda: NonlinearitySpec(kind="linear", a=1.0, b=float("inf")), ValueError,
     "coefficients a and b must be finite"),
    # a derived kind takes no claim: L, K, p and the label are no arguments
    (lambda: NonlinearitySpec(kind="cubic", a=1.0, b=1.0, growth_power=1.0), TypeError,
     unexpected("growth_power")),
    (lambda: NonlinearitySpec(kind="linear", a=-3.0, diss_const=1.0, label="weak"), TypeError,
     unexpected("diss_const")),
    (lambda: NonlinearitySpec(kind="linear", a=1.0, fn=np.sin, dfn=np.cos), TypeError,
     unexpected("fn")),
    (lambda: NonlinearitySpec(kind="linear", a=1.0, b=1.0), ValueError,
     "the linear kind takes no coefficient b"),
    (lambda: NonlinearitySpec(kind="linear", a=-3.0), ValueError,
     "linear coefficient must be positive"),
    (lambda: NonlinearitySpec(kind="cubic", a=1.0), ValueError,
     "cubic coefficients must be positive"),
], ids=["vector-nan", "linear-coefficient", "cubic-a", "cubic-b", "spec-kind", "spec-a-nan",
        "spec-b-inf", "cubic-claim", "linear-claims", "linear-callables", "linear-b",
        "linear-a-negative", "cubic-no-b"])
def test_input_guards(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


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
        anti = ClaimedDrift(eval_array=lambda s: s, deriv_array=np.ones_like,
                            diss_const=1.0, growth_coef=2.0, growth_power=1.0)
        rep = probe_dissipativity(anti, 500, 10.0, seed=1)
        assert not rep.passed
        assert rep.worst_quotient == 1.0


class TestGrowthProbe:
    def test_linear_with_doubled_coef(self):
        # f(s) = -s with the claim K = 2, which the linear kind would derive as 1
        linear = NonlinearitySpec.linear(1.0)
        spec = ClaimedDrift(linear.eval_array, linear.deriv_array, diss_const=1.0,
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
        ok = ClaimedDrift(spec.eval_array, spec.deriv_array, diss_const=1.0,
                          growth_coef=worst * 1.05, growth_power=3.0)
        bad = ClaimedDrift(spec.eval_array, spec.deriv_array, diss_const=1.0,
                           growth_coef=worst * 0.95, growth_power=3.0)
        assert probe_growth(ok, n, radius, seed=seed, half_width=width).passed
        assert not probe_growth(bad, n, radius, seed=seed, half_width=width).passed

    def test_cubic_default_coef_passes(self):
        rep = probe_growth(NonlinearitySpec.cubic(1.0, 1.0), 5000, 10.0, seed=3)
        assert rep.passed

    def test_cubic_with_claimed_linear_growth_fails(self):
        cubic = NonlinearitySpec.cubic(1.0, 1.0)
        lying = ClaimedDrift(cubic.eval_array, cubic.deriv_array, diss_const=1.0,
                             growth_coef=cubic.growth_coef, growth_power=1.0)
        assert not probe_growth(lying, 2000, 10.0, seed=4).passed


class TestLatticeParams:
    def test_positivity_enforced(self):
        z = LatticeVector.zeros(2)
        with pytest.raises(ValueError):
            LatticeParams(coupling=-1.0, damping=1.0, forcing=z, noise_amp=z, half_width=2)
        with pytest.raises(ValueError):
            LatticeParams(coupling=1.0, damping=0.0, forcing=z, noise_amp=z, half_width=2)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["coupling", "damping"])
    def test_non_finite_coefficients_rejected(self, name, bad):
        z = LatticeVector.zeros(2)
        kwargs = {"coupling": 1.0, "damping": 1.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be a finite number > 0, got {bad!r}$"):
            LatticeParams(forcing=z, noise_amp=z, half_width=2, **kwargs)

    def test_boundary_given_by_value(self):
        z = LatticeVector.zeros(2)
        params = LatticeParams(1.0, 1.0, z, z, 2, boundary="periodic")
        assert params.boundary is Boundary.PERIODIC
        with pytest.raises(ValueError, match="^'torus' is not a valid Boundary$"):
            LatticeParams(1.0, 1.0, z, z, 2, boundary="torus")

    def test_width_consistency(self):
        with pytest.raises(ValueError):
            LatticeParams(coupling=1.0, damping=1.0, forcing=LatticeVector.zeros(3),
                          noise_amp=LatticeVector.zeros(2), half_width=2)
