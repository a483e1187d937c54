import itertools
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclattice.attractor import (EquilibriumEstimate, absorption_check,
                                   contraction_experiment, forward_stationarity_check,
                                   pullback_experiment, random_equilibrium)
from fraclattice.cli import (
    MAX_SITE_STEPS,
    _FIELDS,
    _REGISTRY,
    RunManifest,
    _work_check,
    _write_csv,
    load_config,
    main,
    run,
    validate_config,
)
from fraclattice.errors import ConfigError
from fraclattice.fbm import TimeGrid
from fraclattice.lattice import LatticeParams, LatticeVector, NonlinearitySpec
from fraclattice.noise import build_noise_field, stationary_ou
from fraclattice.solver import SolverConfig, _step_rows, cocycle_map, integrate
from kernels import KERNELS, step_kernel

MINIMAL = {
    "lattice": {"half_width": 6, "noise_amp": {"0": 0.8, "1": 0.5}},
    "solver": {"dt": 0.02, "t_end": 2.0},
    "grid": {"dt": 0.02, "t_past": 8.0, "t_future": 3.0},
    "master_seed": 11,
}


#: dt (kappa rho(A) + lam + a) = 0.5 (3.90 + 2) = 2.95 on 9 zero-padded sites: unstable.
UNSTABLE = {"nonlinearity": {"kind": "linear", "a": 1.0}, "lattice": {"half_width": 4},
            "solver": {"dt": 0.5}}


def blank_manifest() -> RunManifest:
    return RunManifest(experiment="simulate", config_hash="", config={})


def write_config(tmp_path, extra=None, name="contraction"):
    raw = json.loads(json.dumps(MINIMAL))
    raw["experiment"] = {"name": name}
    raw["output_dir"] = str(tmp_path / "out")
    for key, val in (extra or {}).items():
        if isinstance(val, dict) and isinstance(raw.get(key), dict):
            raw[key].update(val)
        else:
            raw[key] = val
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return path


class TestLoadConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.hurst == 0.75
        assert cfg.params.coupling == 1.0
        assert cfg.spec.label.startswith("cubic")
        assert cfg.options["u0"] == {"0": 1.0}
        assert cfg.effective["lattice"]["half_width"] == 6

    def test_all_violations_reported_together(self, tmp_path):
        path = write_config(tmp_path, extra={
            "hurst": 0.4,
            "lattice": {"coupling": -1.0},
            "nonlinearity": {"kind": "tanh"},
        })
        with pytest.raises(ConfigError) as err:
            load_config(path)
        text = " ".join(err.value.violations)
        assert "hurst" in text
        assert "lattice.coupling: must be a finite number > 0, got -1.0" in err.value.violations
        assert "nonlinearity.kind" in text
        assert len(err.value.violations) == 3

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"hurst": 0.75,\n  "lattice": }')
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "line 2" in err.value.violations[0]

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, name="levitate"))
        assert any("experiment.name" in v for v in err.value.violations)

    def test_unhashable_experiment_name_listed_with_other_violations(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": {"name": ["simulate"]},
                                    "lattice": {"half_width": 0}}))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert ("experiment.name: must be one of 'sample-fbm', 'verify-operators', 'simulate', "
                "'ou', 'contraction', 'pullback', 'equilibrium', 'absorb', got ['simulate']"
                in err.value.violations)
        assert any(v.startswith("lattice.half_width") for v in err.value.violations)

    def test_misaligned_window_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, extra={"grid": {"t_past": 8.013}}))
        assert any("grid" in v for v in err.value.violations)

    def test_unknown_keys_rejected_at_every_level(self, tmp_path):
        path = write_config(tmp_path, extra={
            "experimnt": {"name": "pullback"},
            "lattice": {"dampng": 2.0},
            "nonlinearity": {"kidn": "linear"},
            "solver": {"sheme": "euler"},
            "grid": {"tpast": 4.0},
            "experiment": {"radius": 3.0},  # a pullback key, not a contraction one
        })
        with pytest.raises(ConfigError) as err:
            load_config(path)
        found = sorted(v.split(":")[0] for v in err.value.violations)
        assert found == ["experiment.radius", "experimnt", "grid.tpast",
                         "lattice.dampng", "nonlinearity.kidn", "solver.sheme"]

    def test_known_keys_depend_on_experiment(self, tmp_path):
        path = write_config(tmp_path, name="pullback", extra={"experiment": {"radius": 3.0}})
        assert load_config(path).options["radius"] == 3.0

    def test_section_that_is_not_an_object_reported(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"lattice": [1, 2], "solver": {"sheme": "euler"}})
        assert err.value.violations == [
            "lattice: expected an object",
            "solver.sheme: unknown key (known: dt, scheme, t_end)",
        ]

    @pytest.mark.parametrize("u0, message", [
        ({"-6": 1.0}, "experiment.u0: site -6 outside [-4, 4]"),
        ({"6": 1.0}, "experiment.u0: site 6 outside [-4, 4]"),
        ({"x": 1.0}, "experiment.u0: must be keyed by canonical decimal integers, got 'x'"),
        ({"0": float("nan")}, "experiment.u0.0: must be a finite number, got nan"),
    ])
    def test_bad_start_vector_reported(self, tmp_path, u0, message):
        path = write_config(tmp_path, name="simulate", extra={
            "lattice": {"half_width": 4}, "experiment": {"u0": u0}})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.violations == [message]

    @pytest.mark.parametrize("lattice, messages", [
        ({"noise_amp": {"0": True, "1": "0.5"}},
         ["lattice.noise_amp.0: must be a finite number, got True",
          "lattice.noise_amp.1: must be a finite number, got '0.5'"]),
        ({"forcing": {"+1": 1.0, "01": 2.0}},
         ["lattice.forcing: must be keyed by canonical decimal integers, got '+1'",
          "lattice.forcing: must be keyed by canonical decimal integers, got '01'"]),
        ({"forcing": {" 1": 1.0, "1_0": 2.0, "-0": 3.0}},
         ["lattice.forcing: must be keyed by canonical decimal integers, got ' 1'",
          "lattice.forcing: must be keyed by canonical decimal integers, got '1_0'",
          "lattice.forcing: must be keyed by canonical decimal integers, got '-0'"]),
    ], ids=["non-number-values", "signed-and-padded-keys", "spaced-underscored-negzero-keys"])
    def test_bad_site_vector_listed_with_other_violations(self, lattice, messages):
        # "+1" and "01" would both land on site 1 if keys were read through int()
        with pytest.raises(ConfigError) as err:
            validate_config({"lattice": lattice, "master_seed": -1})
        assert err.value.violations == messages + ["master_seed: must be an integer >= 0, got -1"]

    def test_bad_start_vectors_listed_with_other_violations(self, tmp_path):
        path = write_config(tmp_path, extra={
            "hurst": 2.0, "lattice": {"half_width": 4},
            "experiment": {"u0": {"5": 1.0}, "w0": {"x": 1.0}}})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        found = sorted(v.split(":")[0] for v in err.value.violations)
        assert found == ["experiment.u0", "experiment.w0", "hurst"]

    def test_start_vectors_parsed(self, tmp_path):
        cfg = load_config(write_config(tmp_path, extra={
            "experiment": {"u0": {"-6": 2.0, "1": 0.5}, "w0": {"6": -1.0}}}))
        assert cfg.starts["u0"].get(-6) == 2.0 and cfg.starts["u0"].get(1) == 0.5
        assert cfg.starts["u0"].norm() == np.hypot(2.0, 0.5)
        assert cfg.starts["w0"].get(6) == -1.0 and cfg.starts["w0"].norm() == 1.0

    @pytest.mark.parametrize("name, options, message", [
        ("pullback", {"horizons": []},
         "experiment.horizons: must be a non-empty list of finite numbers >= 0, got []"),
        ("pullback", {"horizons": "ab"},
         "experiment.horizons: must be a non-empty list of finite numbers >= 0, got 'ab'"),
        ("pullback", {"n_starts": 2.9}, "experiment.n_starts: must be an integer >= 1, got 2.9"),
        ("pullback", {"n_starts": True},
         "experiment.n_starts: must be an integer >= 1, got True"),
        ("pullback", {"radius": -1.0}, "experiment.radius: must be a finite number >= 0, got -1.0"),
        ("pullback", {"equilibrium_tol": 0},
         "experiment.equilibrium_tol: must be null or a finite number > 0, got 0"),
        ("absorb", {"horizons": [1.0, -0.5]},
         "experiment.horizons: must be a non-empty list of finite numbers >= 0, got [1.0, -0.5]"),
        ("absorb", {"t_past": "4"}, "experiment.t_past: must be a finite number > 0, got '4'"),
        ("equilibrium", {"check_times": [1.0, None]},
         "experiment.check_times: must be a list of finite numbers >= 0, got [1.0, None]"),
        ("equilibrium", {"tol": float("nan")}, "experiment.tol: must be a finite number > 0, got nan"),
        ("sample-fbm", {"n_steps": 64.0}, "experiment.n_steps: must be an integer >= 1, got 64.0"),
        ("verify-operators", {"n_vectors": 0},
         "experiment.n_vectors: must be an integer >= 1, got 0"),
    ], ids=["empty-horizons", "string-horizons", "fractional-n-starts", "boolean-n-starts",
            "negative-radius", "zero-equilibrium-tol", "negative-horizon", "string-t-past",
            "null-check-time", "nan-tol", "float-n-steps", "zero-n-vectors"])
    def test_bad_experiment_option_reported(self, tmp_path, name, options, message):
        path = write_config(tmp_path, name=name, extra={"experiment": options})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.violations == [message]

    def test_bad_options_listed_with_other_violations(self, tmp_path):
        path = write_config(tmp_path, name="pullback", extra={
            "hurst": 2.0, "experiment": {"horizons": [], "n_starts": 2.9, "radius": "x"}})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        found = sorted(v.split(":")[0] for v in err.value.violations)
        assert found == ["experiment.horizons", "experiment.n_starts", "experiment.radius",
                         "hurst"]

    @pytest.mark.parametrize("extra, message", [
        ({"master_seed": 1.7}, "master_seed: must be an integer >= 0, got 1.7"),
        ({"master_seed": True}, "master_seed: must be an integer >= 0, got True"),
        ({"master_seed": -1}, "master_seed: must be an integer >= 0, got -1"),
        ({"lattice": {"half_width": 2.6}},
         "lattice.half_width: must be an integer >= 1, got 2.6"),
        ({"lattice": {"half_width": True}},
         "lattice.half_width: must be an integer >= 1, got True"),
    ], ids=["fractional-seed", "boolean-seed", "negative-seed", "fractional-half-width",
            "boolean-half-width"])
    def test_integer_and_boolean_fields_typed(self, tmp_path, extra, message):
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, extra=extra))
        assert err.value.violations == [message]

    def test_unreadable_config_file_reported(self, tmp_path):
        for path in (tmp_path / "missing.json", tmp_path):
            with pytest.raises(ConfigError) as err:
                load_config(path)
            assert err.value.violations[0].startswith(f"cannot read {path}: ")


class TestRun:
    def test_contraction_manifest_structure(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        manifest = run(cfg)
        assert manifest.all_passed
        assert "fitted_slope" in manifest.numbers
        assert manifest.site_seeds
        assert (tmp_path / "out" / "manifest.json").exists()
        assert (tmp_path / "out" / "contraction_log_distance.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg1 = load_config(write_config(tmp_path / "a", name="pullback"))
        cfg2 = load_config(write_config(tmp_path / "b", name="pullback"))
        run(cfg1)
        run(cfg2)
        a = (tmp_path / "a" / "out" / "pullback_diameters.csv").read_bytes()
        b = (tmp_path / "b" / "out" / "pullback_diameters.csv").read_bytes()
        assert a == b

    def test_degenerate_contraction_manifest_is_strict_json(self, tmp_path):
        # identical starts leave no slope to fit: the NaN must land as null
        path = write_config(tmp_path, extra={"experiment": {"w0": {"0": 1.0}}})
        manifest = run(load_config(path))
        assert np.isnan(manifest.numbers["fitted_slope"])

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        text = (tmp_path / "out" / "manifest.json").read_text()
        data = json.loads(text, parse_constant=reject)
        assert data["numbers"]["fitted_slope"] is None
        assert data["checks"]["nondegenerate"] is False

    def test_insufficient_horizon_becomes_manifest_error(self, tmp_path):
        # no doubling that the 8-unit past holds meets a tol this tight
        path = write_config(tmp_path, name="equilibrium", extra={"experiment": {"tol": 1e-12}})
        manifest = run(load_config(path))
        assert manifest.error is not None
        assert manifest.error.startswith("InsufficientHorizonError: ")
        assert not manifest.all_passed

    def test_pullback_benchmark_config_step_count(self, tmp_path, ladder_calls):
        # the pullback-cli benchmark op: the equilibrium search steps [-16, 0]
        # once (1600 steps) and the experiment [-8, 0] once (800 steps)
        raw = {
            "hurst": 0.75,
            "lattice": {"coupling": 1.0, "damping": 1.0, "half_width": 16,
                        "boundary": "zero-padding", "forcing": {"0": 0.3},
                        "noise_amp": {"0": 0.8, "1": 0.5, "-2": 0.4}},
            "nonlinearity": {"kind": "cubic", "a": 1.0, "b": 1.0},
            "solver": {"scheme": "heun", "dt": 0.01, "t_end": 1.0},
            "grid": {"dt": 0.01, "t_past": 25.0, "t_future": 1.0},
            "experiment": {"name": "pullback", "radius": 10.0, "n_starts": 16,
                           "horizons": [1.0, 2.0, 4.0, 8.0], "equilibrium_tol": 1e-6},
            "master_seed": 0,
            "output_dir": str(tmp_path / "out"),
        }
        manifest = run(validate_config(raw))
        assert manifest.all_passed
        assert manifest.numbers["equilibrium_horizon"] == 16.0
        assert sum(n for _, n in ladder_calls) == 2400

    def test_equilibrium_run(self, tmp_path):
        path = write_config(tmp_path, name="equilibrium",
                            extra={"experiment": {"tol": 1e-4, "check_times": [1.0]}})
        manifest = run(load_config(path))
        assert manifest.all_passed
        assert manifest.checks["forward_stationarity"]

    def test_verify_operators_run(self, tmp_path):
        path = write_config(tmp_path, name="verify-operators",
                            extra={"experiment": {"n_vectors": 200}})
        manifest = run(load_config(path))
        assert manifest.all_passed
        assert set(manifest.checks) == {
            "factor_periodic", "factor_zero_interior", "adjoint", "positivity"
        }

    def test_absorb_run(self, tmp_path):
        path = write_config(tmp_path, name="absorb",
                            extra={"grid": {"t_past": 26.0},
                                   "experiment": {"t_past": 4.0, "ou_tail_tol": 1e-2,
                                                  "horizons": [0.5, 1.0, 2.0]}})
        manifest = run(load_config(path))
        assert manifest.all_passed
        assert manifest.numbers["absorbing_radius"] >= 1.0

    def test_manifest_names_the_kernel_that_stepped(self, tmp_path, capsys):
        # a stepping run records the kernel that stepped it, a run of no step null
        for kernel in KERNELS:
            with step_kernel(kernel):
                for name, expected, extra in (("simulate", kernel, {}),
                                              ("ou", None, {"grid": {"t_past": 26.0}})):
                    path = write_config(tmp_path / kernel / name, extra, name)
                    manifest = run(load_config(path))
                    assert manifest.all_passed and manifest.kernel == expected
                    saved = tmp_path / kernel / name / "out" / "manifest.json"
                    assert json.loads(saved.read_text())["kernel"] == expected
                    capsys.readouterr()
                    assert main(["report", "--manifest", str(saved)]) == 0
                    lines = capsys.readouterr().out.splitlines()
                    assert (lines[1] == f"  kernel: {kernel}") == (expected is not None)

    def test_absorb_run_sweeps_the_field_once(self, tmp_path, sweep_calls):
        # the centre, the radius and the radius table all read one stationary field
        manifest = run(validate_config({"experiment": {"name": "absorb"},
                                        "output_dir": str(tmp_path / "out")}))
        assert manifest.error is None
        assert len(sweep_calls) == 1


class TestMain:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["contraction", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, extra={"hurst": 2.0})
        assert main(["contraction", "--config", str(path)]) == 2
        assert "hurst" in capsys.readouterr().err

    def test_exit_two_on_misspelt_keys(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"lattice": {"dampng": 2}, "solver": {"sheme": "euler"},
                                    "experimnt": {"name": "simulate"}}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "lattice.dampng" in err and "solver.sheme" in err and "experimnt" in err
        assert not (tmp_path / "o").exists()

    def test_exit_two_on_non_object_config(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text("[1, 2, 3]")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("u0", [{"-6": 1.0}, {"6": 1.0}, {"x": 1.0}])
    def test_exit_two_on_bad_start_vector(self, tmp_path, capsys, u0):
        path = write_config(tmp_path, name="simulate", extra={
            "lattice": {"half_width": 4}, "experiment": {"u0": u0}})
        assert main(["simulate", "--config", str(path)]) == 2
        assert "config error: experiment.u0: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("options, key", [
        ({"horizons": []}, "horizons"),
        ({"n_starts": 2.9}, "n_starts"),
        ({"horizons": "ab"}, "horizons"),
    ], ids=["empty-horizons", "fractional-n-starts", "string-horizons"])
    def test_exit_two_on_bad_experiment_option(self, tmp_path, capsys, options, key):
        path = write_config(tmp_path, name="pullback", extra={"experiment": options})
        assert main(["pullback", "--config", str(path)]) == 2
        assert f"config error: experiment.{key}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, extra, line", [
        ("simulate", {"solver": {"t_end": 1.01}},
         "solver.t_end: 1.01 is not a whole number of steps of dt=0.02"),
        ("pullback", {"experiment": {"horizons": [1.0, 1.01]}},
         "experiment.horizons: -1.01 is not a whole number of steps of dt=0.02"),
        ("absorb", {"experiment": {"horizons": [1.01], "ou_tail_tol": 1.0}},
         "experiment.horizons: -1.01 is not a whole number of steps of dt=0.02"),
        ("equilibrium", {"experiment": {"tol": 1e-4, "check_times": [1.01]}},
         "experiment.check_times: 1.01 is not a whole number of steps of dt=0.02"),
    ], ids=["t-end", "pullback-horizon", "absorb-horizon", "check-time"])
    def test_exit_two_on_time_off_the_steps(self, tmp_path, capsys, name, extra, line):
        # with an on-grid time in its place, each config runs and passes
        path = write_config(tmp_path, name=name, extra=extra)
        assert main([name, "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, raw, line", [
        ("simulate", {"solver": {"t_end": 0.0}},
         "solver.t_end: t_end must be at least one step (phi(0) is the identity)"),
        ("simulate", {"solver": {"t_end": 6.0}},
         "solver.t_end: noise window ends at 5.0 but integration needs 6.0"),
        ("contraction", {"solver": {"t_end": 0.0}},
         "solver.t_end: t_end must be at least one step (phi(0) is the identity)"),
        ("contraction", {"solver": {"t_end": 6.0}},
         "solver.t_end: noise window ends at 5.0 but integration needs 6.0"),
        ("pullback", {"experiment": {"horizons": [1.0, 40.0]}},
         "experiment.horizons: time -40.0 outside grid window [-30.0, 5.0]"),
        ("absorb", {"experiment": {"horizons": [40.0]}},
         "experiment.horizons: time -40.0 outside grid window [-30.0, 5.0]"),
        ("equilibrium", {"experiment": {"check_times": [6.0]}},
         "experiment.check_times: time 6.0 outside grid window [-30.0, 5.0]"),
        ("absorb", {"experiment": {"t_past": 40.0}},
         "experiment.t_past: t_past 40 exceeds the sampled past 30"),
        ("absorb", {"experiment": {"t_past": 3.005}},
         "experiment.t_past: 3.005 is not a whole number of steps of dt=0.01"),
        ("equilibrium", {"experiment": {"initial_horizon": 20.0}},
         "experiment.initial_horizon: field past 30 cannot support initial horizon 20"),
        # a grid with no past has a past of 0, printed without a sign
        ("equilibrium", {"grid": {"t_past": 0.0}},
         "experiment.initial_horizon: field past 0 cannot support initial horizon 1"),
        # the stationary OU field's past fails the tail check of stationary_ou
        ("ou", {"grid": {"t_past": 5.0}},
         "grid.t_past: past horizon 5 too short: e^(-lam*T)(1+T)^2 = 2.426e-01 > 1.0e-06"),
        ("absorb", {"experiment": {"t_past": 12.0}},
         "experiment.t_past: past horizon 18 too short: e^(-lam*T)(1+T)^2 = 5.498e-06 > 1.0e-06"),
        # the equilibrium search starts at horizon 1 and needs a past of 2
        ("pullback", {"grid": {"t_past": 1.0},
                      "experiment": {"horizons": [1.0], "equilibrium_tol": 1e-6}},
         "experiment.equilibrium_tol: field past 1 cannot support initial horizon 1"),
        ("ou", {"grid": {"t_future": 0.0}},
         "grid.t_future: field window ends at t = 0: no step after it to evaluate on"),
    ], ids=["simulate-zero-t-end", "simulate-t-end-past-window", "contraction-zero-t-end",
            "contraction-t-end-past-window", "pullback-deep-horizon", "absorb-deep-horizon",
            "check-time-past-window", "absorb-deep-t-past", "absorb-off-grid-t-past",
            "equilibrium-deep-initial-horizon", "equilibrium-no-past", "ou-short-past",
            "absorb-short-ou-past", "pullback-equilibrium-short-past", "ou-no-future"])
    def test_exit_two_on_run_outside_the_window(self, tmp_path, capsys, name, raw, line):
        # the default noise window is [-30, 5]; each run would fail once its noise is built
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**raw, "output_dir": str(tmp_path / "out")}))
        assert main([name, "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, raw", [
        ("simulate", {"solver": {"t_end": 5.0}}),
        ("pullback", {"experiment": {"horizons": [0.0, 30.0], "equilibrium_tol": 1e-6}}),
        ("absorb", {"experiment": {"horizons": [30.0], "t_past": 30.0, "ou_tail_tol": 1.0}}),
        ("equilibrium", {"experiment": {"check_times": [0.0, 5.0], "initial_horizon": 15.0}}),
    ], ids=["simulate", "pullback", "absorb", "equilibrium"])
    def test_runs_to_the_window_edges_validate(self, name, raw):
        validate_config({**raw, "experiment": {**raw.get("experiment", {}), "name": name}})

    def test_unused_t_end_need_not_be_whole_steps(self, tmp_path):
        # pullback runs to its horizons, never to solver.t_end
        load_config(write_config(tmp_path, name="pullback", extra={"solver": {"t_end": 1.01}}))

    @pytest.mark.parametrize("name", ["ou", "sample-fbm", "verify-operators"])
    def test_unused_solver_dt_need_not_be_the_noise_step(self, tmp_path, name):
        # these runs never step, so their solver.dt 0.02 may span four noise steps
        load_config(write_config(tmp_path, name=name,
                                 extra={"grid": {"dt": 0.005, "t_past": 30.0}}))

    @pytest.mark.parametrize("name, options", [
        ("simulate", {}), ("contraction", {}), ("pullback", {"equilibrium_tol": 1e-6}),
        ("equilibrium", {"check_times": [0.5]}), ("absorb", {"ou_tail_tol": 1.0}),
    ], ids=["simulate", "contraction", "pullback", "equilibrium", "absorb"])
    def test_exit_two_on_a_solver_step_off_the_noise_step(self, tmp_path, capsys, name,
                                                          options):
        # a finer step reads no noise between the nodes and a coarser one skips nodes: the
        # plan names the step once and checks nothing more of the run
        for dt in (0.01, 0.04):
            path = write_config(tmp_path, name=name,
                                extra={"solver": {"dt": dt}, "experiment": options})
            assert main([name, "--config", str(path)]) == 2
            assert capsys.readouterr().err == (
                f"config error: solver.dt: solver dt={dt} must equal the noise dt=0.02\n")
        assert not (tmp_path / "out").exists()

    def test_exit_two_on_too_many_check_times(self, tmp_path, capsys, monkeypatch):
        # the stationarity batch holds a row per check time: 10 x 13 values, more
        # than the 9-node noise field's 9 x 13; the weak drift keeps dt 0.5 stable
        path = write_config(tmp_path, name="equilibrium", extra={
            "grid": {"dt": 0.5, "t_past": 2.0, "t_future": 2.0}, "solver": {"dt": 0.5},
            "lattice": {"coupling": 0.5, "damping": 0.5}, "nonlinearity": {"a": 0.5},
            "experiment": {"check_times": [1.0] * 10}})
        monkeypatch.setattr("fraclattice.cli.MAX_GRID_VALUES", 10 * 13)
        load_config(path)
        monkeypatch.setattr("fraclattice.cli.MAX_GRID_VALUES", 10 * 13 - 1)
        assert main(["equilibrium", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: experiment.check_times: a stationarity batch of 10 check time "
            "rows x 13 sites exceeds the limit of 129 values\n")
        assert not (tmp_path / "out").exists()

    def test_exit_two_on_half_hurst_and_reference_mode_key(self, tmp_path, capsys):
        # H = 1/2 is outside the model, and no config key admits it
        for extra, line in (
                ({"hurst": 0.5}, "hurst: hurst parameter 0.5 outside (0.5, 1)"),
                ({"hurst_reference_mode": True}, "hurst_reference_mode: unknown key")):
            path = write_config(tmp_path, extra=extra)
            assert main(["contraction", "--config", str(path)]) == 2
            assert capsys.readouterr().err == f"config error: {line}\n"
        assert not (tmp_path / "out").exists()

    def test_exit_two_on_unstable_step(self, tmp_path, capsys):
        # dt 0.5 on 9 sites: the exact solution decays, but each explicit step
        # grows the top mode, 2746-fold over the 10 steps
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            **UNSTABLE, "grid": {"dt": 0.5, "t_past": 0.0, "t_future": 5.0},
            "output_dir": str(tmp_path / "out")}))
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: solver.dt: dt (kappa rho(A) + lam + a) = 2.95 exceeds 2, where an "
            "explicit step grows the top lattice mode\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["simulate", "contraction", "pullback", "equilibrium",
                                      "absorb"])
    def test_every_stepping_plan_checks_the_step(self, name):
        raw = {**UNSTABLE, "grid": {"dt": 0.5, "t_past": 30.0, "t_future": 5.0},
               "experiment": {"name": name}}
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert [v for v in err.value.violations if v.startswith("solver.dt")] == [
            "solver.dt: dt (kappa rho(A) + lam + a) = 2.95 exceeds 2, where an explicit "
            "step grows the top lattice mode"]

    def test_library_calls_give_the_plan_message(self):
        # the driver checks the step itself, before any step, in the words of the plans
        raw = {**UNSTABLE, "grid": {"dt": 0.5, "t_past": 0.0, "t_future": 5.0}}
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        cfg = validate_config({**raw, "solver": {"dt": 0.25},
                               "grid": {"dt": 0.25, "t_past": 0.0, "t_future": 5.0}})
        field = build_noise_field(cfg.params, TimeGrid.window(0.5, 0.0, 5.0), cfg.master_seed,
                                  cfg.hurst)
        unstable = SolverConfig(dt=0.5, t_end=cfg.solver.t_end)
        for run in (lambda: integrate(cfg.starts["u0"], field, cfg.params, cfg.spec, unstable),
                    lambda: _step_rows([(0, 1), (0, 2)], field, cfg.starts["w0"], cfg.params,
                                       cfg.spec, unstable)):
            with pytest.raises(ValueError) as exc:
                run()
            assert err.value.violations == [f"solver.dt: {exc.value}"]

    def test_library_calls_give_the_node_step_message(self, ladder_calls):
        # every run refuses a solver step other than the noise step before any step, at
        # t = 0 too, in the words of the plans
        raw = {"solver": {"dt": 0.01, "t_end": 1.0},
               "grid": {"dt": 0.02, "t_past": 4.0, "t_future": 1.0}}
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        (line,) = err.value.violations
        cfg = validate_config({**raw, "solver": {"dt": 0.02, "t_end": 1.0}})
        field = build_noise_field(cfg.params, cfg.grid, cfg.master_seed, cfg.hurst)
        params, spec, u0 = cfg.params, cfg.spec, cfg.starts["u0"]
        fine = SolverConfig(dt=0.01, t_end=1.0)
        eq = EquilibriumEstimate(u0=u0, horizon=0.5, cauchy_gap=0.0, start_gap=0.0, tol=1.0)
        for call in (
                lambda: integrate(u0, field, params, spec, fine),
                lambda: cocycle_map(0.0, field, u0, params, spec, fine),
                lambda: _step_rows([(0, 1)], field, u0, params, spec, fine),
                lambda: contraction_experiment(u0, cfg.starts["w0"], field, params, spec, fine),
                lambda: pullback_experiment(1.0, 2, field, params, spec, fine, [1.0]),
                lambda: random_equilibrium(field, params, spec, fine, initial_horizon=0.5),
                lambda: forward_stationarity_check(eq, field, params, spec, fine, [0.5]),
                lambda: absorption_check(1.0, field, params, spec, fine, [1.0], t_past=1.0,
                                         ou_tail_tol=1.0)):
            with pytest.raises(ValueError) as exc:
                call()
            assert line == f"solver.dt: {exc.value}"
        assert ladder_calls.builds == []

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_exit_two_on_unreadable_config(self, tmp_path, capsys, name):
        path = tmp_path / name
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("raw, messages", [
        ({"lattice": {"coupling": True, "damping": "2"}, "hurst": "0.75",
          "solver": {"dt": "0.01", "t_end": "5"}},
         ["hurst: must be a finite number, got '0.75'",
          "lattice.coupling: must be a finite number > 0, got True",
          "lattice.damping: must be a finite number > 0, got '2'",
          "solver.dt: must be a finite number > 0, got '0.01'",
          "solver.t_end: must be a finite number >= 0, got '5'"]),
        ({"nonlinearity": {"a": "1", "b": True}},
         ["nonlinearity.a: must be a finite number > 0, got '1'",
          "nonlinearity.b: must be a finite number > 0, got True"]),
        ({"grid": {"dt": "0.01", "t_future": True}},
         ["grid.dt: must be a finite number > 0, got '0.01'",
          "grid.t_future: must be a finite number >= 0, got True"]),
        ({"output_dir": None}, ["output_dir: must be a non-empty string, got None"]),
        ({"output_dir": 5}, ["output_dir: must be a non-empty string, got 5"]),
    ], ids=["typed-numbers", "typed-nonlinearity", "typed-grid", "null-output-dir",
            "integer-output-dir"])
    def test_exit_two_on_mistyped_value(self, tmp_path, capsys, monkeypatch, raw, messages):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["ou", "--config", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {m}" for m in messages]
        assert list(tmp_path.iterdir()) == [path]

    def test_exit_two_on_flag_over_non_object_section(self, tmp_path, capsys):
        # --dt writes grid.dt and solver.dt; a non-object grid is left for validation
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": 5}))
        assert main(["ou", "--config", str(path), "--dt", "0.01",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: grid: expected an object\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, raw, message", [
        # the noise field of 2000001 nodes fits, the two states at each of them do not
        ("contraction", {"grid": {"dt": 2.5e-6, "t_past": 0.0}, "solver": {"dt": 2.5e-6}},
         "solver.t_end: a trajectory of 4.00e+6 node x start rows x 33 sites exceeds "
         "the limit of 67108864 values"),
        ("contraction", {"grid": {"dt": 1e-7}, "solver": {"dt": 1e-7}},
         "grid: a noise field of 3.50e+8 nodes x 33 sites exceeds the limit of 67108864 values"),
        ("sample-fbm", {"experiment": {"name": "sample-fbm", "n_steps": 10**12}},
         "experiment.n_steps: a circulant of 2.00e+12 values exceeds the limit of "
         "67108864 values"),
        ("pullback", {"experiment": {"name": "pullback", "n_starts": 10**7}},
         "experiment.n_starts: a pullback ladder of 4.00e+7 horizon x start rows x 33 sites "
         "exceeds the limit of 67108864 values"),
        ("absorb", {"experiment": {"name": "absorb", "n_starts": 10**7}},
         "experiment.n_starts: a pullback ladder of 4.00e+7 horizon x start rows x 33 sites "
         "exceeds the limit of 67108864 values"),
    ], ids=["trajectory", "noise-field", "fbm-circulant", "pullback-distances",
            "absorb-starts"])
    def test_exit_two_on_oversized_run(self, tmp_path, capsys, monkeypatch, command, raw,
                                       message):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("name, options, limit, message", [
        # 1500 steps of the ladder's four horizons from each of 6000 starts: 2.97e8
        # site-steps, while its arrays hold 4 x 6000 x 33 values
        ("pullback", {"n_starts": 6000}, MAX_SITE_STEPS,
         "solver.dt: a pullback ladder of 9.00e+6 start-steps x 33 sites exceeds the limit "
         "of 268435456 site-steps"),
        ("absorb", {"n_starts": 12000}, MAX_SITE_STEPS,
         "solver.dt: a pullback ladder of 9.00e+6 start-steps x 33 sites exceeds the limit "
         "of 268435456 site-steps"),
        # the search steps under 4 n_past sites, which the noise field's size guard keeps
        # below MAX_SITE_STEPS, so only a lower limit reaches its check
        ("equilibrium", {}, 2**17,
         "experiment.initial_horizon: a pullback ladder of 6.20e+3 start-steps x 33 sites "
         "exceeds the limit of 131072 site-steps"),
    ], ids=["pullback", "absorb", "equilibrium"])
    def test_exit_two_on_unbounded_work(self, tmp_path, capsys, monkeypatch, name, options,
                                        limit, message):
        # no array grows past its limit, but the batch takes too many site-steps
        monkeypatch.setattr("fraclattice.cli.MAX_SITE_STEPS", limit)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": {"name": name, **options}}))
        assert main([name, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_sample_fbm_flags(self, tmp_path):
        out = tmp_path / "fbm"
        code = main(["sample-fbm", "--h", "0.75", "--dt", "0.01", "--steps", "64",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = (out / "fbm_path.csv").read_text().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 66
        assert lines[1].split(",")[1] == "0"

    def test_seed_flag_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["sample-fbm", "--steps", "32", "--seed", "1", "--out", str(a)])
        main(["sample-fbm", "--steps", "32", "--seed", "2", "--out", str(b)])
        assert (a / "fbm_path.csv").read_bytes() != (b / "fbm_path.csv").read_bytes()

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACLATTICE_OUTDIR", str(tmp_path / "envout"))
        assert main(["sample-fbm", "--steps", "16", "--seed", "3"]) == 0
        assert (tmp_path / "envout" / "fbm_path.csv").exists()

    def test_report_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path)
        main(["contraction", "--config", str(path)])
        capsys.readouterr()
        code = main(["report", "--manifest", str(tmp_path / "out" / "manifest.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "fitted_slope" in out

    def test_run_error_exits_one_with_error_on_stderr(self, tmp_path, capsys):
        # the equilibrium of test_insufficient_horizon_becomes_manifest_error, from the command line
        path = write_config(tmp_path, name="equilibrium", extra={"experiment": {"tol": 1e-12}})
        assert main(["equilibrium", "--config", str(path)]) == 1
        out = capsys.readouterr()
        assert out.err.startswith("ERROR InsufficientHorizonError: ")
        assert "ERROR" not in out.out

    def test_report_prints_integer_numbers_and_the_error(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"experiment": "ou", "config_hash": "0123456789abcdef",
                                    "checks": {"stationary": False},
                                    "numbers": {"n_steps": 64, "gap": 0.5},
                                    "error": "ValueError: boom", "all_passed": False}))
        assert main(["report", "--manifest", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["experiment: ou   config 0123456789ab", "  FAIL  stationary",
                         "        gap = 0.5", "        n_steps = 64", "  ERROR ValueError: boom"]

    def test_report_exit_two_on_unreadable_manifest(self, tmp_path, capsys):
        bad, listed = tmp_path / "bad.json", tmp_path / "list.json"
        bad.write_text("{not json")
        listed.write_text("[1]")
        keyless, typed = tmp_path / "keyless.json", tmp_path / "typed.json"
        keyless.write_text('{"checks": {}}')
        typed.write_text('{"experiment": "ou", "config_hash": 7, "checks": []}')
        kernel = tmp_path / "kernel.json"
        kernel.write_text('{"experiment": "ou", "config_hash": "0123", "kernel": "fortran"}')
        for path, reason in ((tmp_path / "nope.json", f"cannot read {tmp_path / 'nope.json'}"),
                             (tmp_path, f"cannot read {tmp_path}"),
                             (bad, "JSON parse error at line 1"),
                             (listed, "top-level JSON value must be an object"),
                             (keyless, "not a run manifest: experiment, config_hash"),
                             (typed, "not a run manifest: config_hash, checks"),
                             (kernel, "not a run manifest: kernel")):
            assert main(["report", "--manifest", str(path)]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith(f"report error: {reason}")
            assert out.err.count("\n") == 1

    def test_report_shows_arrays(self, tmp_path, capsys):
        path = write_config(tmp_path, name="simulate")
        assert main(["simulate", "--config", str(path)]) == 0
        capsys.readouterr()
        assert main(["report", "--manifest", str(tmp_path / "out" / "manifest.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == ("  ARRAY trajectory.npy  shape 101 x 13  axes t, i  dt 0.02  "
                             "i_start 0  first_site -6")

    def test_report_exit_two_on_malformed_arrays(self, tmp_path, capsys):
        record = {"shape": [3, 2], "axes": ["t", "i"], "dt": 0.1, "i_start": 0, "first_site": -1}
        base = {"experiment": "simulate", "config_hash": "0123456789abcdef",
                "artifacts": ["out/trajectory.npy"], "arrays": {"trajectory.npy": record}}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(base))
        assert main(["report", "--manifest", str(path)]) == 1  # well formed; all_passed absent
        capsys.readouterr()
        for arrays in ([], {}, {"trajectory.npy": {**record, "axes": ["t"]}},
                       {"trajectory.npy": {**record, "dt": None}},
                       {"trajectory.npy": {**record, "shape": [3.0, 2]}},
                       {"trajectory.npy": {k: v for k, v in record.items() if k != "i_start"}},
                       {"trajectory.npy": [3, 2]}):
            path.write_text(json.dumps({**base, "arrays": arrays}))
            assert main(["report", "--manifest", str(path)]) == 2, arrays
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == "report error: not a run manifest: arrays missing or malformed\n"

    def test_exit_one_on_failed_check(self, tmp_path):
        # identical starts validate, but their contraction is degenerate, a
        # failed check and a nonzero exit
        path = write_config(tmp_path, extra={"experiment": {"u0": {"0": 1.0},
                                                            "w0": {"0": 1.0}}})
        assert main(["contraction", "--config", str(path)]) == 1


class TestPlotSeries:
    def test_degenerate_contraction_gives_header_only(self, tmp_path):
        # identical starts never separate: no positive distance to take the log of
        path = write_config(tmp_path, extra={"experiment": {"u0": {"0": 1.0},
                                                            "w0": {"0": 1.0}}})
        assert main(["contraction", "--config", str(path)]) == 1
        lines = (tmp_path / "out" / "contraction_log_distance.csv").read_text().splitlines()
        assert lines == ["t,distance,log_distance"]

    def test_numbers_round_trip_17_digits(self, tmp_path):
        _write_csv(tmp_path, "pi.csv", ["t", "distance"], np.array([0.0, 0.1]),
                   np.array([1.0, np.pi * 1e-7]), manifest=blank_manifest())
        cell = (tmp_path / "pi.csv").read_text().splitlines()[2].split(",")[1]
        assert float(cell) == np.pi * 1e-7


class TestStateArrays:
    """The per-node state tables are float64 ``.npy`` arrays holding the run's states."""

    @staticmethod
    def assert_exact(out, name, grid, states):
        saved = np.load(out / name, allow_pickle=False)
        assert saved.dtype == np.dtype("<f8")
        assert saved.tobytes() == states.tobytes()
        record = json.loads((out / "manifest.json").read_text())["arrays"][name]
        assert record["shape"] == list(states.shape) and record["axes"] == ["t", "i"]
        rebuilt = TimeGrid(record["dt"], saved.shape[0] - 1, record["i_start"]).times()
        assert rebuilt.tobytes() == grid.times().tobytes()
        assert record["first_site"] == -6

    def test_simulate_trajectory_matches_oracle(self, tmp_path):
        cfg = load_config(write_config(tmp_path, name="simulate"))
        assert run(cfg).all_passed
        field = build_noise_field(cfg.params, cfg.grid, cfg.master_seed, cfg.hurst)
        traj = integrate(cfg.starts["u0"], field, cfg.params, cfg.spec, cfg.solver)
        self.assert_exact(tmp_path / "out", "trajectory.npy", traj.grid, traj.values)

    def test_ou_fields_match_oracle(self, tmp_path):
        cfg = load_config(write_config(tmp_path, name="ou",
                                       extra={"grid": {"t_past": 24.0, "t_future": 1.0}}))
        assert run(cfg).all_passed
        field = build_noise_field(cfg.params, cfg.grid, cfg.master_seed, cfg.hurst)
        ou = stationary_ou(cfg.params.damping, field)
        self.assert_exact(tmp_path / "out", "noise_field.npy", field.grid, field.w_matrix)
        self.assert_exact(tmp_path / "out", "ou_field.npy", ou.grid, ou.values)

    def test_rerun_trajectory_is_byte_identical(self, tmp_path):
        run(load_config(write_config(tmp_path / "a", name="simulate")))
        run(load_config(write_config(tmp_path / "b", name="simulate")))
        a = (tmp_path / "a" / "out" / "trajectory.npy").read_bytes()
        assert a == (tmp_path / "b" / "out" / "trajectory.npy").read_bytes()

    def test_only_array_runs_record_arrays(self, tmp_path):
        manifest = run(load_config(write_config(tmp_path)))
        assert manifest.arrays == {}
        assert "arrays" not in json.loads((tmp_path / "out" / "manifest.json").read_text())


class TestCsvFormat:
    @staticmethod
    def lines(tmp_path, name, header, *columns):
        """The lines ``_write_csv`` writes, checking that it lists the file on the manifest."""
        manifest = blank_manifest()
        _write_csv(tmp_path, name, header, *columns, manifest=manifest)
        assert manifest.artifacts == [str(tmp_path / name)]
        return (tmp_path / name).read_text().splitlines()

    def test_float_edge_values(self, tmp_path):
        values = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3,
                  float("nan"), float("inf"), float("-inf")]
        lines = self.lines(tmp_path, "f.csv", ["x"], values)
        assert lines == ["x", "-0", "4.9406564584124654e-324", "1.7976931348623157e+308",
                         "0.10000000000000001", "0.33333333333333331", "nan", "inf", "-inf"]
        assert lines[1:] == [format(x, ".17g") for x in values]

    def test_integer_column(self, tmp_path):
        lines = self.lines(tmp_path, "i.csv", ["i", "n", "value"],
                           np.arange(-2, 1), [7, 8, 2**40], np.array([0.5, 2.0, -1e-7]))
        assert lines == [
            "i,n,value", "-2,7,0.5", "-1,8,2", "0,1099511627776,-9.9999999999999995e-08"]

    def test_zero_rows_stay_header_only(self, tmp_path):
        _write_csv(tmp_path, "z.csv", ["t", "i"], np.empty(0), np.empty(0, int),
                   manifest=blank_manifest())
        assert (tmp_path / "z.csv").read_bytes() == b"t,i\n"

    def test_bool_column_rejected(self, tmp_path):
        # '%d' % True is '1' but str(True) is 'True': neither is an integer column
        manifest = blank_manifest()
        with pytest.raises(TypeError, match="dtype bool"):
            _write_csv(tmp_path, "b.csv", ["x"], np.array([True, False]), manifest=manifest)
        assert not (tmp_path / "b.csv").exists() and manifest.artifacts == []

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        manifest = blank_manifest()
        with pytest.raises(ValueError):
            _write_csv(tmp_path, "u.csv", ["x", "y"], np.zeros(3), np.zeros(2),
                       manifest=manifest)
        assert not (tmp_path / "u.csv").exists() and manifest.artifacts == []


class TestManifestJson:
    def test_one_pass_equals_the_round_trip(self, tmp_path):
        # a degenerate contraction's NaN slope becomes null, and the 13 site
        # seeds' int keys sort as strings, as dumping, loading and dumping again does
        noisy = {str(i): 0.5 for i in range(-6, 7)}
        path = write_config(tmp_path, extra={"lattice": {"noise_amp": noisy},
                                             "experiment": {"w0": {"0": 1.0}}})
        manifest = run(load_config(path))
        assert np.isnan(manifest.numbers["fitted_slope"]) and len(manifest.site_seeds) == 13
        payload = vars(manifest) | {"all_passed": manifest.all_passed}
        payload["timings_s"] = payload.pop("timings")
        del payload["arrays"]
        finite = json.loads(json.dumps(payload), parse_constant=lambda _: None)
        text = manifest.to_json()
        assert text == json.dumps(finite, indent=2, sort_keys=True, allow_nan=False)
        assert list(json.loads(text)["site_seeds"])[:4] == ["-1", "-2", "-3", "-4"]

    def test_non_finite_value_outside_numbers_raises(self):
        manifest = RunManifest("simulate", "", {"dt": float("nan")})
        with pytest.raises(ValueError):
            manifest.to_json()


class TestValidateConfigDirect:
    def test_defaults_only(self):
        cfg = validate_config({})
        assert cfg.experiment == "contraction"
        assert cfg.config_hash() == validate_config({}).config_hash()

    def test_default_config_hashes_pinned(self):
        # hashes of the defaults-filled configs; a change to a default or to
        # what the effective dict holds changes them
        pinned = {
            None: "94b2179f2215e5bfadd749c06e91f70f08397d0891894adbb3fcae787d6cee99",
            "sample-fbm": "86579a7ca1ce1370268295860c46b3090e91b0c260f6b47ba571b46bc42e3be1",
            "verify-operators": "84eddcd50a1a7e9cc5afe2c13f4e23ed6a314759a7403874766d288ab00475e7",
            "simulate": "4a53d6d95a06b1b7fd61d78ac0111935c36e932cb36f59ba43f8f47534abe005",
            "ou": "9eafb5a8ea84c651bbe657c5ead854be4ab3a09eaa2e8dbbab47a2a71af74976",
            "contraction": "94b2179f2215e5bfadd749c06e91f70f08397d0891894adbb3fcae787d6cee99",
            "pullback": "c4c55ef141a14b47b955ff7787ca1e1f08aa3faceedb615e46708f0d03c7812a",
            "equilibrium": "9fd076f32f7d74bcd49e3d91a1150090d574b901b859d66bbd9a077b4dccacde",
            "absorb": "3feaa80bee202db852cd63e433efff3ab2f3e4a69270a45deb4d6a72aaf5e8e0",
        }
        assert set(pinned) == {None, *_REGISTRY}
        for name, digest in pinned.items():
            raw = {} if name is None else {"experiment": {"name": name}}
            assert validate_config(raw).config_hash() == digest, name

    @pytest.mark.parametrize("name, plan_line", [
        ("ou", "grid.t_past: past horizon 1 too short: e^(-lam*T)(1+T)^2 = 1.472e+00 > 1.0e-06"),
        ("absorb", "experiment.t_past: t_past 4 exceeds the sampled past 1"),
    ])
    def test_plan_runs_when_a_solver_value_fails(self, name, plan_line):
        # a failed solver value is listed with the plan's own lines, not instead of them
        raw = {"experiment": {"name": name}, "solver": {"scheme": "rk4"},
               "grid": {"t_past": 1.0}}
        with pytest.raises(ConfigError) as info:
            validate_config(raw)
        assert info.value.violations == [
            "solver.scheme: must be one of 'euler', 'heun', got 'rk4'", plan_line]

    def test_size_limit_inclusive_and_listed_with_other_violations(self, monkeypatch):
        cases = [
            # at dt 0.001 with no past the grid has 5001 nodes and 33 sites, and the two
            # states of the run to t_end 5 take 5001 nodes each, twice as many values
            ({"solver": {"dt": 0.001}, "grid": {"dt": 0.001, "t_past": 0.0}}, 5001 * 2 * 33,
             "solver.t_end: a trajectory of 1.00e+4 node x start rows x 33 sites exceeds "
             "the limit of 330065 values"),
        ]
        for raw, limit, message in cases:
            monkeypatch.setattr("fraclattice.cli.MAX_GRID_VALUES", limit)
            validate_config(raw)
            monkeypatch.setattr("fraclattice.cli.MAX_GRID_VALUES", limit - 1)
            with pytest.raises(ConfigError) as err:
                validate_config({**raw, "lattice": {"coupling": -1.0}})
            assert err.value.violations == [
                "lattice.coupling: must be a finite number > 0, got -1.0", message,
            ]

    def test_pullback_starts_bounded_by_the_ladder_alone(self):
        # 2000 starts make 4.0e6 pairs x 33 sites, over the limit, but no array holds them
        validate_config({"experiment": {"name": "pullback", "n_starts": 2000}})

    @pytest.mark.parametrize("dt, t_future, n_steps", [
        (0.1, 954965.7, 300 + 9549657), (0.01, 65536.04, 3000 + 6553604)])
    def test_long_windows_of_whole_steps_validate(self, dt, t_future, n_steps):
        cfg = validate_config({"experiment": {"name": "ou"}, "lattice": {"half_width": 1},
                               "grid": {"dt": dt, "t_past": 30.0, "t_future": t_future}})
        assert cfg.grid.n_steps == n_steps

    def test_size_limit_counts_ladder_horizons(self):
        # the ladder holds a row per horizon and start: 6 x 2033601 x 33 = 4.0e8 values
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": {"name": "absorb", "n_starts": 2033601,
                                            "horizons": [0.5, 1, 2, 4, 8, 16]}})
        assert err.value.violations == [
            "experiment.n_starts: a pullback ladder of 1.22e+7 horizon x start rows x 33 "
            "sites exceeds the limit of 67108864 values"]

    @pytest.mark.parametrize("name", ["absorb", "pullback"])
    def test_ladder_size_limit_inclusive(self, monkeypatch, name):
        # more horizons than starts: for pullback too the ladder is the larger array
        # absorb's OU past is 0, whose tail bound is 1; the weak drift keeps dt 0.5 stable
        tail = {"ou_tail_tol": 1.0} if name == "absorb" else {}
        raw = {"grid": {"dt": 0.5, "t_past": 4.0, "t_future": 0.0}, "solver": {"dt": 0.5},
               "lattice": {"coupling": 0.5, "damping": 0.5}, "nonlinearity": {"a": 0.5},
               "experiment": {"name": name, "n_starts": 3, "horizons": [1.0, 2.0] * 5, **tail}}
        monkeypatch.setattr("fraclattice.cli.MAX_GRID_VALUES", 10 * 3 * 33)
        validate_config(raw)
        monkeypatch.setattr("fraclattice.cli.MAX_GRID_VALUES", 10 * 3 * 33 - 1)
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert err.value.violations == [
            "experiment.n_starts: a pullback ladder of 30 horizon x start rows x 33 sites "
            "exceeds the limit of 989 values"]

    def test_size_limit_counts_trajectory(self, monkeypatch):
        # contraction keeps both states at each of its 501 nodes: 501 x 2 x 33 values,
        # twice the 501-node noise field
        raw = {"grid": {"t_past": 0.0}}
        monkeypatch.setattr("fraclattice.cli.MAX_GRID_VALUES", 501 * 2 * 33)
        validate_config(raw)
        monkeypatch.setattr("fraclattice.cli.MAX_GRID_VALUES", 501 * 2 * 33 - 1)
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert err.value.violations == [
            "solver.t_end: a trajectory of 1.00e+3 node x start rows x 33 sites exceeds the "
            "limit of 33065 values"]

    @pytest.mark.parametrize("raw, work, message", [
        ({"experiment": {"name": "simulate"}}, 500 * 33,
         "solver.dt: a forward run of 500 start-steps x 33 sites"),
        ({"experiment": {"name": "contraction"}}, 500 * 2 * 33,
         "solver.dt: a forward run of 1.00e+3 start-steps x 33 sites"),
        # the ladder steps each of its horizons' rows, 100 + 200 + 400 + 800 steps, 16 starts wide
        ({"experiment": {"name": "pullback"}}, 1500 * 16 * 33,
         "solver.dt: a pullback ladder of 2.40e+4 start-steps x 33 sites"),
        # the two-start search over horizons 1, 2, 4, 8 and 16 of the 30-unit past
        ({"experiment": {"name": "equilibrium"}}, 3100 * 2 * 33,
         "experiment.initial_horizon: a pullback ladder of 6.20e+3 start-steps x 33 sites"),
        # the stationarity batch pulls back from the deepest horizon, 16, at each of 8 check
        # times: 8 x 1600 steps, more than the search's 6200
        ({"experiment": {"name": "equilibrium", "check_times": [k / 2 for k in range(1, 9)]}},
         8 * 1600 * 33,
         "experiment.check_times: a stationarity batch of 1.28e+4 start-steps x 33 sites"),
    ], ids=["simulate", "contraction", "pullback", "equilibrium-search", "stationarity"])
    def test_work_limit_inclusive(self, monkeypatch, raw, work, message):
        monkeypatch.setattr("fraclattice.cli.MAX_SITE_STEPS", work)
        validate_config(raw)
        monkeypatch.setattr("fraclattice.cli.MAX_SITE_STEPS", work - 1)
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert err.value.violations == [
            f"{message} exceeds the limit of {work - 1} site-steps"]

    @pytest.mark.parametrize("n_starts, count", [(1, "65"), (3, "195")])
    def test_work_check_counts_the_driver_steps(self, monkeypatch, ladder_calls, n_starts,
                                                count):
        # rows out of order, repeated and None: the work bound counts the site-steps that
        # the driver takes, each distinct run that steps once, from every start
        params = LatticeParams(1.0, 1.0, LatticeVector.zeros(3),
                               LatticeVector.from_support(3, {0: 0.5}), 3)
        field = build_noise_field(params, TimeGrid(0.01, 80, -50), 0)
        rows = [(30, 20), None, (10, 40), (30, 20), (0, 5), None, (10, 40)]
        starts = LatticeVector.zeros(3) if n_starts == 1 else np.full((n_starts, 7), 0.5)
        _step_rows(rows, field, starts, params, NonlinearitySpec.cubic(1.0, 1.0),
                   SolverConfig(0.01, 0.0))
        work = sum(n * math.prod(shape) for shape, n in ladder_calls)
        assert work == int(count) * 7
        monkeypatch.setattr("fraclattice.cli.MAX_SITE_STEPS", work)
        assert _work_check("batch", rows, n_starts, 7)
        monkeypatch.setattr("fraclattice.cli.MAX_SITE_STEPS", work - 1)
        with pytest.raises(ValueError) as err:
            _work_check("batch", rows, n_starts, 7)
        assert str(err.value) == (f"a batch of {count} start-steps x 7 sites exceeds the limit "
                                  f"of {work - 1} site-steps")

    def test_repeated_check_times_count_one_run(self, monkeypatch):
        # four check times at t = 1 share one 1600-step pullback, which the driver steps
        # once: at the search's bound of 6200 start-steps the batch fits, while four
        # distinct times take 4 x 1600
        monkeypatch.setattr("fraclattice.cli.MAX_SITE_STEPS", 6200 * 33)
        validate_config({"experiment": {"name": "equilibrium", "check_times": [1.0] * 4}})
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": {"name": "equilibrium",
                                            "check_times": [1.0, 2.0, 3.0, 4.0]}})
        assert err.value.violations == [
            "experiment.check_times: a stationarity batch of 6.40e+3 start-steps x 33 sites "
            "exceeds the limit of 204600 site-steps"]

    def test_work_limit_leaves_ten_times_headroom(self, monkeypatch):
        # every default config, the pullback-cli benchmark config (with its equilibrium
        # search) and a d = 513 simulate validate at a tenth of the limit
        monkeypatch.setattr("fraclattice.cli.MAX_SITE_STEPS", MAX_SITE_STEPS // 10)
        for name in _REGISTRY:
            validate_config({"experiment": {"name": name}})
        validate_config({"lattice": {"half_width": 16, "noise_amp": {"0": 0.8, "1": 0.5}},
                         "grid": {"t_past": 25.0, "t_future": 1.0}, "solver": {"t_end": 1.0},
                         "experiment": {"name": "pullback", "equilibrium_tol": 1e-6}})
        validate_config({"lattice": {"half_width": 256}, "grid": {"t_past": 0.0},
                         "experiment": {"name": "simulate"}})

    def test_hash_changes_with_content(self):
        assert validate_config({}).config_hash() != validate_config(
            {"master_seed": 1}
        ).config_hash()


#: Values of the wrong type or range for most rules: a numeric string, a
#: boolean, null, a list, an object, NaN and a negative number.
CANDIDATES = ["1", True, None, [1], {}, float("nan"), -1]


def config_setting(path, value):
    """A config that sets ``path`` to ``value``, naming an experiment that reads it."""
    section, _, key = path.partition(".")
    if not key:
        return {path: value}
    raw = {section: {key: value}}
    if section == "experiment" and key != "name":
        raw[section]["name"] = next(n for n, e in _REGISTRY.items() if key in e.options)
    return raw


@pytest.mark.parametrize("raw, line", [
    ({"hurst": 10**400}, f"hurst: must be a finite number, got {10**400!r}"),
    ({"lattice": {"coupling": 10**400}},
     f"lattice.coupling: must be a finite number > 0, got {10**400!r}"),
    ({"grid": {"t_past": 10**400}}, f"grid.t_past: must be a finite number >= 0, got {10**400!r}"),
    ({"lattice": {"noise_amp": {"0": 10**400}}},
     f"lattice.noise_amp.0: must be a finite number, got {10**400!r}"),
    ({"experiment": {"name": "pullback", "horizons": [10**400]}},
     "experiment.horizons: must be a non-empty list of finite numbers >= 0, "
     f"got {[10**400]!r}"),
], ids=["hurst", "coupling", "t-past", "site-value", "horizon"])
def test_input_guards(raw, line):
    # a JSON integer beyond float range is no finite number
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.violations == [line]


class TestFieldTable:
    def test_every_experiment_option_has_a_row(self):
        options = {f"experiment.{key}" for e in _REGISTRY.values() for key in e.options}
        assert options == {p for p in _FIELDS if p.startswith("experiment.")} - {"experiment.name"}

    def test_readme_table_lists_exactly_the_keys(self):
        # the backticked keys in the first cell of each row of README's config table
        lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
        first = lines.index("| Key | Default | Rule |") + 2  # past the header's separator
        rows = itertools.takewhile(lambda line: line.startswith("|"), lines[first:])
        keys = {key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
        assert keys == set(_FIELDS)

    @settings(max_examples=2 * len(_FIELDS) * len(CANDIDATES))
    @given(path=st.sampled_from(sorted(_FIELDS)), value=st.sampled_from(CANDIDATES))
    def test_rejected_value_reported_under_its_path(self, path, value):
        raw = config_setting(path, value)
        test, _ = _FIELDS[path][1]
        if test(value):
            try:  # accepted by the rule: a joint check may still object
                validate_config(raw)
            except ConfigError:
                pass
            return
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert any(v.startswith((f"{path}:", f"{path}.")) for v in err.value.violations)


class TestPlansCoverRuns:
    """A config that validates passes every check its run makes before its first step."""

    @pytest.mark.parametrize("name", sorted(_REGISTRY))
    @settings(max_examples=40)
    @given(data=st.data(), dt=st.sampled_from([0.05, 0.1]),
           past=st.integers(0, 20), future=st.integers(0, 6), tol=st.sampled_from([1.0, 1e-6]),
           equilibrium_tol=st.sampled_from([None, 1e-1, 1e-6]),
           ou_tail_tol=st.sampled_from([1e-6, 0.5, 1.0]),
           damping=st.sampled_from([1.0, 12.0, 30.0]),
           kind=st.sampled_from(["linear", "cubic"]))
    def test_validated_config_passes_its_run_checks(self, name, data, dt, past, future, tol,
                                                    equilibrium_tol, ou_tail_tol, damping, kind):
        # times count steps, up to one step beyond the window's edge
        step = dt
        back, ahead = st.integers(0, past + 1), st.integers(0, future + 1)
        options = {"n_steps": 16, "n_vectors": 4, "tol": tol, "n_starts": 2, "radius": 1.0,
                   "d_radius": 1.0, "equilibrium_tol": equilibrium_tol,
                   "ou_tail_tol": ou_tail_tol,
                   "horizons": [k * step for k in data.draw(st.lists(back, min_size=1,
                                                                     max_size=3))],
                   "check_times": [k * step for k in data.draw(st.lists(ahead, max_size=3))],
                   "t_past": data.draw(st.integers(1, past + 1)) * dt,
                   # the search needs a past of twice its initial horizon
                   "initial_horizon": data.draw(st.integers(1, past // 2 + 1)) * step}
        with tempfile.TemporaryDirectory() as out:
            raw = {"lattice": {"half_width": 1, "damping": damping},
                   "nonlinearity": {"kind": kind},
                   "solver": {"dt": step, "t_end": data.draw(ahead) * step},
                   "grid": {"dt": dt, "t_past": past * dt, "t_future": future * dt},
                   "experiment": {"name": name, **{key: val for key, val in options.items()
                                                   if key in _REGISTRY[name].options}},
                   "output_dir": out}
            try:
                cfg = validate_config(raw)
            except ConfigError:
                return
            error = run(cfg).error or ""
        # a blow-up, or a Cauchy stop that runs out of horizons, is the run's own result
        assert (error == "" or error.startswith(("BlowUpError", "NonlinearityOverflowError"))
                or error.startswith("InsufficientHorizonError") and "support doubling" in error
                ), error
