import json
from pathlib import Path

import numpy as np
import pytest

from fraclattice.attractor import ContractionReport
from fraclattice.cli import (
    _columns,
    _write_csv,
    emit_plot_series,
    load_config,
    main,
    run,
    validate_config,
)
from fraclattice.errors import ConfigError
from fraclattice.noise import build_noise_field, stationary_ou
from fraclattice.solver import integrate

MINIMAL = {
    "lattice": {"half_width": 6, "noise_amp": {"0": 0.8, "1": 0.5}},
    "solver": {"dt": 0.02, "t_end": 2.0},
    "grid": {"dt": 0.02, "t_past": 8.0, "t_future": 3.0},
    "master_seed": 11,
}


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
        assert cfg.hurst.h == 0.75
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
        assert "coupling" in text and "positive" in text
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
        assert any(v.startswith("experiment.name: ['simulate']")
                   for v in err.value.violations)
        assert any(v.startswith("lattice.half_width") for v in err.value.violations)

    def test_misaligned_window_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, extra={"grid": {"t_past": 8.013}}))
        assert any("grid" in v for v in err.value.violations)

    def test_reference_mode_flag_admits_half(self, tmp_path):
        path = write_config(tmp_path, extra={"hurst": 0.5, "hurst_reference_mode": True})
        assert load_config(path).hurst.h == 0.5

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
        ({"x": 1.0}, "experiment.u0: site key 'x' is not an integer"),
        ({"0": float("nan")}, "experiment.u0: value at site 0 is not a finite number"),
    ])
    def test_bad_start_vector_reported(self, tmp_path, u0, message):
        path = write_config(tmp_path, name="simulate", extra={
            "lattice": {"half_width": 4}, "experiment": {"u0": u0}})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.violations == [message]

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
        path = write_config(tmp_path, name="pullback",
                            extra={"grid": {"t_past": 2.0},
                                   "experiment": {"horizons": [1.0, 8.0]}})
        manifest = run(load_config(path))
        assert manifest.error is not None
        assert not manifest.all_passed

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

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_exit_two_on_unreadable_config(self, tmp_path, capsys, name):
        path = tmp_path / name
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read {path}: ") and err.count("\n") == 1

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

    def test_report_exit_two_on_unreadable_manifest(self, tmp_path, capsys):
        bad, listed = tmp_path / "bad.json", tmp_path / "list.json"
        bad.write_text("{not json")
        listed.write_text("[1]")
        keyless, typed = tmp_path / "keyless.json", tmp_path / "typed.json"
        keyless.write_text('{"checks": {}}')
        typed.write_text('{"experiment": "ou", "config_hash": 7, "checks": []}')
        for path, reason in ((tmp_path / "nope.json", f"cannot read {tmp_path / 'nope.json'}"),
                             (tmp_path, f"cannot read {tmp_path}"),
                             (bad, "JSON parse error at line 1"),
                             (listed, "top-level JSON value must be an object"),
                             (keyless, "not a run manifest: experiment, config_hash"),
                             (typed, "not a run manifest: config_hash, checks")):
            assert main(["report", "--manifest", str(path)]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith(f"report error: {reason}")
            assert out.err.count("\n") == 1

    def test_exit_one_on_failed_check(self, tmp_path):
        # horizons deeper than the sampled past surface as a manifest
        # error and a nonzero exit
        path = write_config(tmp_path, name="pullback",
                            extra={"grid": {"t_past": 2.0},
                                   "experiment": {"horizons": [8.0]}})
        assert main(["pullback", "--config", str(path)]) == 1


class TestPlotSeries:
    def test_degenerate_contraction_gives_header_only(self, tmp_path):
        report = ContractionReport(
            times=np.array([0.0, 1.0]), distances=np.array([0.0, 0.0]),
            fitted_slope=float("nan"), rate=1.0, slope_ok=False,
            pointwise_ok=True, degenerate=True, passed=False,
        )
        files = emit_plot_series(report, tmp_path, "degenerate")
        lines = Path(files[0]).read_text().splitlines()
        assert lines == ["t,distance,log_distance"]

    def test_numbers_round_trip_17_digits(self, tmp_path):
        report = ContractionReport(
            times=np.array([0.0, 0.1]), distances=np.array([1.0, np.pi * 1e-7]),
            fitted_slope=-2.0, rate=1.0, slope_ok=True,
            pointwise_ok=True, degenerate=False, passed=True,
        )
        files = emit_plot_series(report, tmp_path, "pi")
        cell = Path(files[0]).read_text().splitlines()[2].split(",")[1]
        assert float(cell) == np.pi * 1e-7

    def test_unknown_report_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            emit_plot_series(object(), tmp_path, "x")


def long_format_lines(header, times, states, half_width):
    """The CSV layout written out: one ``t,i,value`` row per node and site."""
    return [header] + [
        f"{format(t, '.17g')},{i},{format(u, '.17g')}"
        for t, row in zip(times.tolist(), states.tolist())
        for i, u in zip(range(-half_width, half_width + 1), row)
    ]


class TestCsvFormat:
    def test_simulate_trajectory_matches_oracle(self, tmp_path):
        cfg = load_config(write_config(tmp_path, name="simulate"))
        assert run(cfg).all_passed
        field = build_noise_field(cfg.params, cfg.grid, cfg.master_seed, cfg.hurst)
        traj = integrate(cfg.starts["u0"], field, cfg.params, cfg.spec, cfg.solver)
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert lines == long_format_lines("t,i,u_i", traj.grid.times(), traj.states, 6)

    def test_ou_fields_match_oracle(self, tmp_path):
        cfg = load_config(write_config(tmp_path, name="ou",
                                       extra={"grid": {"t_past": 24.0, "t_future": 1.0}}))
        assert run(cfg).all_passed
        field = build_noise_field(cfg.params, cfg.grid, cfg.master_seed, cfg.hurst)
        ou = stationary_ou(cfg.params.damping, field)
        for name, times, states in (("noise_field", field.grid.times(), field.w_matrix),
                                    ("ou_field", ou.grid.times(), ou.values)):
            lines = (tmp_path / "out" / f"{name}.csv").read_text().splitlines()
            assert lines == long_format_lines("t,i,value", times, states, 6)

    def test_float_edge_values(self, tmp_path):
        values = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3,
                  float("nan"), float("inf"), float("-inf")]
        path = _write_csv(tmp_path / "f.csv", ["x"], _columns(values))
        lines = Path(path).read_text().splitlines()
        assert lines == ["x", "-0", "4.9406564584124654e-324", "1.7976931348623157e+308",
                         "0.10000000000000001", "0.33333333333333331", "nan", "inf", "-inf"]
        assert lines[1:] == [format(x, ".17g") for x in values]

    def test_integer_column(self, tmp_path):
        path = _write_csv(tmp_path / "i.csv", ["i", "n", "value"],
                          _columns(np.arange(-2, 1), [7, 8, 2**40], np.array([0.5, 2.0, -1e-7])))
        assert Path(path).read_text().splitlines() == [
            "i,n,value", "-2,7,0.5", "-1,8,2", "0,1099511627776,-9.9999999999999995e-08"]

    def test_zero_rows_stay_header_only(self, tmp_path):
        path = _write_csv(tmp_path / "z.csv", ["t", "i"], _columns(np.empty(0), np.empty(0, int)))
        assert Path(path).read_bytes() == b"t,i\n"

    def test_bool_column_rejected(self):
        # '%d' % True is '1' but str(True) is 'True': neither is an integer column
        with pytest.raises(TypeError, match="dtype bool"):
            _columns(np.array([True, False]))

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError):
            _columns(np.zeros(3), np.zeros(2))


class TestValidateConfigDirect:
    def test_defaults_only(self):
        cfg = validate_config({})
        assert cfg.experiment == "contraction"
        assert cfg.config_hash() == validate_config({}).config_hash()

    def test_hash_changes_with_content(self):
        assert validate_config({}).config_hash() != validate_config(
            {"master_seed": 1}
        ).config_hash()
