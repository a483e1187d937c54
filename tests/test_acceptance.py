"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is fixed here, not calibrated at run
time; statistical criteria use frozen seeds that were verified once and
stay deterministic.
"""

import math
import time

import numpy as np
import pytest

from fraclattice.attractor import (
    absorption_check,
    contraction_experiment,
    pullback_experiment,
    random_equilibrium,
)
from fraclattice.cli import run, validate_config
from fraclattice.fbm import TimeGrid, sample_fbm_array
from fraclattice.lattice import Boundary, LatticeParams, LatticeVector, NonlinearitySpec
from fraclattice.noise import (
    build_noise_field,
    stationary_ou,
)
from fraclattice.solver import SolverConfig, integrate
from oracles import (ClaimedDrift, cocycle_check, coarsen_noise, linear_oracle,
                     probe_dissipativity)

CUBIC = NonlinearitySpec.cubic(1.0, 1.0)
LINEAR = NonlinearitySpec.linear(1.0)


class _Stopwatch:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def _report(number, name, ok, watch, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>3} {name}: {verdict} ({watch.elapsed:.1f} s) {detail}")


def test_criterion_01_fbm_increment_law():
    with _Stopwatch(60.0) as watch:
        values = sample_fbm_array(10_000, 100, 0.75, 0.01, seed=314159)
        ok = True
        details = []
        for s, t in ((0.0, 0.25), (0.25, 0.75), (0.0, 1.0)):
            ks, kt = round(s / 0.01), round(t / 0.01)
            sq = (values[:, kt] - values[:, ks]) ** 2
            target = (t - s) ** 1.5
            se = sq.std(ddof=1) / np.sqrt(sq.size)
            z = abs(sq.mean() - target) / se
            details.append(f"z({s},{t})={z:.2f}")
            ok &= z <= 3.0
    _report(1, "fbm-increment-law", ok and watch.elapsed < 60, watch, " ".join(details))
    assert ok
    assert watch.elapsed < 60.0


def test_criterion_02_operator_identities(tmp_path):
    # the shipped verify-operators command on the slice stencil the drift steps with
    cfg = validate_config({"experiment": {"name": "verify-operators", "n_vectors": 1000,
                                          "tol": 1e-12},
                           "lattice": {"half_width": 64}, "master_seed": 20,
                           "output_dir": str(tmp_path)})
    with _Stopwatch(1.0) as watch:
        manifest = run(cfg)
    keys = ("factor_periodic", "factor_zero_interior", "adjoint", "positivity")
    worst = {key: manifest.numbers.get(f"worst_{key}", math.inf) for key in keys}
    ok = manifest.all_passed and max(worst.values()) <= 1e-12
    _report(2, "operator-identities", ok and watch.elapsed < 1, watch,
            " ".join(f"{key}={val:.1e}" for key, val in worst.items()))
    assert manifest.error is None
    assert set(manifest.checks) == set(keys)
    for key in keys:
        assert worst[key] <= 1e-12
        assert manifest.checks[key]
    assert watch.elapsed < 1.0


def test_criterion_03_dissipativity_probes():
    with _Stopwatch(5.0) as watch:
        exact = probe_dissipativity(NonlinearitySpec.linear(2.0), 10_000, 10.0, seed=1)
        cubic = probe_dissipativity(CUBIC, 10_000, 10.0, seed=1)
        anti = ClaimedDrift(eval_array=lambda s: s, deriv_array=np.ones_like,
                            diss_const=1.0, growth_coef=2.0, growth_power=1.0)
        violation = probe_dissipativity(anti, 10_000, 10.0, seed=1)
        ok = (
            exact.worst_quotient == -2.0
            and exact.passed
            and cubic.worst_quotient <= -1.0
            and cubic.passed
            and not violation.passed
        )
    _report(3, "dissipativity-probes", ok and watch.elapsed < 5, watch,
            f"linear={exact.worst_quotient} cubic={cubic.worst_quotient:.2f} "
            f"violation_quotient={violation.worst_quotient:.2f}")
    assert exact.worst_quotient == -2.0
    assert cubic.worst_quotient <= -1.0 and cubic.passed
    assert not violation.passed
    assert watch.elapsed < 5.0


def _cocycle_setup():
    n = 16
    params = LatticeParams(
        coupling=1.0, damping=1.0,
        forcing=LatticeVector.from_support(n, {0: 0.2}),
        noise_amp=LatticeVector.from_support(n, {0: 1.0, 2: 0.5, -3: 0.8}),
        half_width=n,
    )
    u0 = LatticeVector.from_support(n, {0: 1.0, 1: -0.5})
    fine = build_noise_field(params, TimeGrid(dt=5e-4, n_steps=4000), 2718)
    return params, u0, fine


def test_criterion_04a_cocycle_residual_bound():
    with _Stopwatch(120.0) as watch:
        params, u0, fine = _cocycle_setup()
        field = coarsen_noise(fine, 2)  # dt = 1e-3
        rep = cocycle_check(1.0, 1.0, field, u0, params, CUBIC,
                            SolverConfig(dt=1e-3, t_end=1.0))
        ok = rep.residual <= 1e-4
    _report("4a", "cocycle-residual", ok and watch.elapsed < 120, watch,
            f"residual={rep.residual:.2e} (<= 1e-4)")
    assert rep.residual <= 1e-4
    assert watch.elapsed < 120.0


def test_criterion_04b_cocycle_refinement_ratio():
    with _Stopwatch(120.0) as watch:
        params, u0, fine = _cocycle_setup()
        res = {}
        for fac, dt in ((2, 1e-3), (1, 5e-4)):
            field = coarsen_noise(fine, fac)
            rep = cocycle_check(1.0, 1.0, field, u0, params, CUBIC,
                                SolverConfig(dt=dt, t_end=1.0))
            res[dt] = rep.residual
        ratio = res[1e-3] / res[5e-4]
        ok = ratio >= 1.7
    _report("4b", "cocycle-refinement-ratio", ok and watch.elapsed < 120, watch,
            f"residuals={res[1e-3]:.2e}/{res[5e-4]:.2e} ratio={ratio:.2f}")
    assert watch.elapsed < 120.0
    # One-step schemes in the state variable commute with the grid shift
    # identically in real arithmetic, so both residuals sit at accumulated
    # rounding (~1e-15, see 4a) instead of scaling with dt.  The >= 1.7
    # refinement ratio is therefore unattainable for euler/heun stepping;
    # the composition property itself holds eleven orders of magnitude
    # below the required bound.  Kept as stated, expected to fail.
    assert ratio >= 1.7, (
        f"refinement ratio {ratio:.2f} < 1.7: residuals are rounding-level "
        f"({res[1e-3]:.1e}, {res[5e-4]:.1e}), they do not scale with dt"
    )


def test_criterion_05_contraction():
    with _Stopwatch(180.0) as watch:
        n = 16
        # (a) linear drift, periodic: difference lives in the constant
        # mode and decays at exactly damping + a = 2
        params_lin = LatticeParams(
            coupling=1.0, damping=1.0,
            forcing=LatticeVector.from_support(n, {0: 0.3}),
            noise_amp=LatticeVector.from_support(n, {0: 0.8, 1: 0.5, -2: 0.4}),
            half_width=n, boundary=Boundary.PERIODIC,
        )
        field = build_noise_field(params_lin, TimeGrid(dt=1e-3, n_steps=5000), 4242)
        u0 = LatticeVector.from_support(n, {0: 2.0, 3: -1.0})
        w0 = LatticeVector(u0.values + 2.0 / np.sqrt(2 * n + 1))
        rep_lin = contraction_experiment(u0, w0, field, params_lin, LINEAR,
                                         SolverConfig(dt=1e-3, t_end=5.0))
        slope_err = abs(rep_lin.fitted_slope + 2.0) / 2.0
        ok_a = slope_err <= 0.01

        # (b) cubic pointwise certificate across 20 fresh seeds
        params_cub = LatticeParams(
            coupling=1.0, damping=1.0,
            forcing=LatticeVector.from_support(n, {0: 0.3}),
            noise_amp=LatticeVector.from_support(n, {0: 0.8, 1: 0.5, -2: 0.4}),
            half_width=n,
        )
        u0b = LatticeVector.from_support(n, {0: 2.0, 3: -1.0})
        w0b = LatticeVector.from_support(n, {0: -1.0, -4: 0.5})
        ok_b = True
        for seed in range(20):
            f = build_noise_field(params_cub, TimeGrid(dt=1e-3, n_steps=5000),
                                  8100 + seed)
            rep = contraction_experiment(u0b, w0b, f, params_cub, CUBIC,
                                         SolverConfig(dt=1e-3, t_end=5.0))
            ok_b &= rep.pointwise_ok
        ok = ok_a and ok_b
    _report(5, "contraction", ok and watch.elapsed < 180, watch,
            f"linear_slope={rep_lin.fitted_slope:.5f} cubic_certificate=20/20"
            if ok_b else f"linear_slope={rep_lin.fitted_slope:.5f} cubic cert failed")
    assert ok_a, f"linear slope {rep_lin.fitted_slope} off by {slope_err:.2%}"
    assert ok_b
    assert watch.elapsed < 180.0


def test_criterion_06_linear_oracle_convergence():
    with _Stopwatch(120.0) as watch:
        n = 32
        params = LatticeParams(
            coupling=1.0, damping=1.0,
            forcing=LatticeVector.from_support(n, {0: 0.5, 3: -0.2}),
            noise_amp=LatticeVector.from_support(
                n, {i: 0.8 * np.exp(-abs(i) / 4) for i in range(-8, 9)}
            ),
            half_width=n, boundary=Boundary.PERIODIC,
        )
        u0 = LatticeVector.from_support(n, {0: 1.0, -5: 0.7})
        fine = build_noise_field(params, TimeGrid(dt=1e-3, n_steps=2000), 41)
        errs = {}
        for fac, dt in ((4, 4e-3), (2, 2e-3), (1, 1e-3)):
            f = coarsen_noise(fine, fac)
            cfg = SolverConfig(dt=dt, t_end=2.0)
            heun = integrate(u0, f, params, LINEAR, cfg)
            oracle = linear_oracle(u0, f, params, 1.0, heun.grid)
            errs[dt] = float(np.linalg.norm(heun.values - oracle.values, axis=1).max())
        r1 = errs[4e-3] / errs[2e-3]
        r2 = errs[2e-3] / errs[1e-3]
        ok = r1 >= 1.7 and r2 >= 1.7
    _report(6, "linear-oracle-convergence", ok and watch.elapsed < 120, watch,
            f"ratios={r1:.2f},{r2:.2f}")
    assert r1 >= 1.7 and r2 >= 1.7
    assert watch.elapsed < 120.0


def test_criterion_07_singleton_attractor():
    with _Stopwatch(300.0) as watch:
        n = 16
        params = LatticeParams(
            coupling=1.0, damping=1.0,
            forcing=LatticeVector.from_support(n, {0: 0.3}),
            noise_amp=LatticeVector.from_support(n, {0: 0.8, 1: 0.5, -2: 0.4}),
            half_width=n,
        )
        dt = 1e-2
        grid = TimeGrid(dt=dt, n_steps=round(26 / dt), i_start=-round(25 / dt))
        field = build_noise_field(params, grid, 7777)
        cfg = SolverConfig(dt=dt, t_end=1.0)
        pull = pullback_experiment(10.0, 16, field, params, CUBIC, cfg,
                                   horizons=[1, 2, 4, 8], seed=5)
        tol = 1e-6
        eq_zero = random_equilibrium(field, params, CUBIC, cfg, tol=tol)
        eq_ball = random_equilibrium(
            field, params, CUBIC, cfg, tol=tol,
            start=LatticeVector.from_support(n, {2: 10.0}),
            verify_start=LatticeVector.from_support(n, {-1: -7.0}),
        )
        gap = float(np.linalg.norm(eq_zero.u0.values - eq_ball.u0.values))
        ok = pull.passed and gap <= 2 * tol
    _report(7, "singleton-attractor", ok and watch.elapsed < 300, watch,
            f"final_diameter={pull.diameters[-1]:.2e} two_ball_gap={gap:.2e}")
    assert pull.passed
    assert gap <= 2 * tol
    assert watch.elapsed < 300.0


def test_criterion_08_truncation_robustness():
    with _Stopwatch(120.0) as watch:
        dt = 1e-3
        grid = TimeGrid(dt=dt, n_steps=round(5 / dt))
        sigma = {i: 0.6 * np.exp(-abs(i) / 5) for i in range(-16, 17)}
        forcing = {i: 0.3 * np.exp(-abs(i) / 6) for i in range(-16, 17)}
        start = {i: 1.0 / (1 + abs(i)) for i in range(-16, 17)}
        states = {}
        for n in (32, 64):
            params = LatticeParams(
                coupling=1.0, damping=1.0,
                forcing=LatticeVector.from_support(n, forcing),
                noise_amp=LatticeVector.from_support(n, sigma),
                half_width=n,
            )
            f = build_noise_field(params, grid, 515)
            u0 = LatticeVector.from_support(n, start)
            states[n] = integrate(u0, f, params, CUBIC,
                                  SolverConfig(dt=dt, t_end=5.0)).values
        pad = 32
        embedded = np.pad(states[32], ((0, 0), (pad, pad)))
        gap = float(np.abs(embedded - states[64]).max())
        ok = gap <= 1e-8
    _report(8, "truncation-robustness", ok and watch.elapsed < 120, watch,
            f"sup_gap={gap:.2e}")
    assert gap <= 1e-8
    assert watch.elapsed < 120.0


def test_criterion_09_ou_stationarity():
    with _Stopwatch(300.0) as watch:
        n = 2
        params = LatticeParams(
            coupling=1.0, damping=1.0,
            forcing=LatticeVector.zeros(n),
            noise_amp=LatticeVector.from_support(n, {-1: 0.5, 0: 1.0, 1: 0.5}),
            half_width=n,
        )
        grid = TimeGrid(dt=0.01, n_steps=3500, i_start=-3000)  # [-30, 5]
        sq = {0.0: [], 1.0: [], 5.0: []}
        growth_ok = True
        for r in range(2000):
            f = build_noise_field(params, grid, 90000 + r)
            ou = stationary_ou(1.0, f)
            rho = ou.rho
            times = ou.grid.times()
            growth_ok &= bool(
                (ou.norms() <= 4.0 * rho * (1.0 + np.abs(times)) ** 2 + 1e-12).all()
            )
            for t in sq:
                sq[t].append(float(np.linalg.norm(ou.at(t).values)) ** 2)
        sq = {t: np.asarray(v) for t, v in sq.items()}
        ok = growth_ok
        details = []
        for t in (1.0, 5.0):
            diff = sq[0.0] - sq[t]
            z_mean = abs(diff.mean()) / (diff.std(ddof=1) / math.sqrt(diff.size))
            w = (sq[0.0] - sq[0.0].mean()) ** 2 - (sq[t] - sq[t].mean()) ** 2
            z_var = abs(w.mean()) / (w.std(ddof=1) / math.sqrt(w.size))
            details.append(f"T={t:g}: z_mean={z_mean:.2f} z_var={z_var:.2f}")
            ok &= z_mean <= 3.0 and z_var <= 3.0
    _report(9, "ou-stationarity", ok and watch.elapsed < 300, watch,
            "; ".join(details) + f" growth_bound={'ok' if growth_ok else 'violated'}")
    assert growth_ok
    for t in (1.0, 5.0):
        diff = sq[0.0] - sq[t]
        assert abs(diff.mean()) <= 3.0 * diff.std(ddof=1) / math.sqrt(diff.size)
        w = (sq[0.0] - sq[0.0].mean()) ** 2 - (sq[t] - sq[t].mean()) ** 2
        assert abs(w.mean()) <= 3.0 * w.std(ddof=1) / math.sqrt(w.size)
    assert watch.elapsed < 300.0


def test_criterion_10_absorption():
    with _Stopwatch(180.0) as watch:
        n = 16
        params = LatticeParams(
            coupling=1.0, damping=1.0,
            forcing=LatticeVector.from_support(n, {0: 0.3}),
            noise_amp=LatticeVector.from_support(n, {0: 0.8, 1: 0.5, -2: 0.4}),
            half_width=n,
        )
        dt = 1e-2
        grid = TimeGrid(dt=dt, n_steps=round(45.5 / dt), i_start=-round(45 / dt))
        field = build_noise_field(params, grid, 1001)
        cfg = SolverConfig(dt=dt, t_end=1.0)
        rep = absorption_check(10.0, field, params, CUBIC, cfg,
                               horizons=[0.5, 1, 2, 4], n_starts=8, seed=2,
                               t_past=10.0, ou_tail_tol=1e-6)
        margin = float(rep.margins.min())
        t_scale = math.log(10.0 / max(margin, 1e-12))
        ok = rep.passed and rep.radius.value >= 1.0
    _report(10, "absorption", ok and watch.elapsed < 180, watch,
            f"radius={rep.radius.value:.3f} entry={rep.entry_horizon} "
            f"log(D/margin)={t_scale:.2f}")
    assert rep.passed
    assert rep.radius.value >= 1.0
    assert rep.entry_horizon is not None
    assert watch.elapsed < 180.0
