import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pccontrol import RunConfig, cli
from pccontrol.cli import _json_ready, _write_csv, main, run_config
from pccontrol.errors import ConfigError


def scalar_null_config(n_steps=128, checks=None):
    cfg = {
        "model": {"family": "ode", "A": [[0.0]], "B": [[1.0]]},
        "grid": {"T": 1.0, "n_steps": n_steps},
        "problem": {"kind": "null", "y0": [1.0]},
        "solver": {"grad_tol": 1e-10},
    }
    if checks is not None:
        cfg["checks"] = checks
    return cfg


def infeasible_config():
    return {
        "model": {"family": "ode", "A": [[0.0]], "B": [[1.0]]},
        "grid": {"T": 1.0, "n_steps": 32},
        "problem": {
            "kind": "exact",
            "y0": [0.0],
            "y1": [1.0],
            "G": [{"rate": 0.0, "vector": [1.0]}],
        },
    }


def floor_stop_config():
    """A five-state random ODE, N = 7, kind approx with E one vector (the
    draw of seed 3 in the solver tests' stress family), with the uniqueness
    check.  The map holds, but the minimizer lies so far out that the least
    subgradient stalls at the rounding floor."""
    return {
        "model": {"family": "ode",
                  "A": [[-0.2838848030639649, -0.22632464605522293, -0.10779858154488295,
                         -1.0099930645736255, -0.11596618882209474],
                        [-0.43260653813747085, 1.6614997583224413, 0.11289330661396088,
                         -0.1763153971707977, -0.1406437090756752],
                        [-0.33402317305447504, -0.5275752756025607, -0.19540048861732737,
                         0.24097269425339293, -0.11927680328668334],
                        [0.47887935147988203, -0.09990106453329, 0.012129782538332311,
                         0.772910425606406, 0.2725527613438223],
                        [-0.252614367807009, -0.09141948729886745, 0.27026256587740105,
                         0.9675440170494264, -0.13481016367095675]],
                  "B": [[-0.24355867907910456], [1.0023136012756912], [-0.8864599431605871],
                        [-0.291720232439864], [0.8825389674564839]]},
        "grid": {"T": 1.0, "n_steps": 7},
        "problem": {"kind": "approx",
                    "y0": [0.5803500161908991, 0.09151670328235219, 0.6701043548284794,
                           -2.8281623068437627, 1.02130681750008],
                    "y1": [-0.9596447598081417, -1.6686198426559695, 0.27644575952099965,
                           0.7005448853493901, -0.4447674556827841],
                    "epsilon": 0.07701081169363559,
                    "E": [[0.026124833534033623, -0.05274730824287927, 1.4055981660180925,
                           0.7474079874793504, 0.19381564626462]]},
        "checks": {"uc": True},
    }


def two_time_config(t_tilde=0.5):
    """The scalar integrator, N = 2, G the constants: its two-time check
    fails on the uniqueness map cut at t~ = 1/2, and no uc check runs."""
    return {
        "model": {"family": "ode", "A": [[0.0]], "B": [[1.0]]},
        "grid": {"T": 1.0, "n_steps": 2},
        "problem": {"kind": "null", "y0": [1.0], "G": [{"rate": 0.0, "vector": [1.0]}]},
        "checks": {"two_time": {"t_tilde": t_tilde}},
    }


def undamped_heat_config(n_modes, n_steps):
    """heat1d, T = 1, exact, y0 = 1 and y1 = linspace(0, 1): an undamped
    target, with the uniqueness check."""
    return {
        "model": {"family": "heat1d", "n_modes": n_modes},
        "grid": {"T": 1.0, "n_steps": n_steps},
        "problem": {"kind": "exact", "y0": [1.0] * n_modes,
                    "y1": np.linspace(0.0, 1.0, n_modes).tolist()},
        "checks": {"uc": True},
    }


def write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestSolveCommand:
    def test_null_solve_end_to_end(self, tmp_path):
        path = write(tmp_path, scalar_null_config())
        out = tmp_path / "out"
        assert run_config(path, out) == 0
        report = json.loads((out / "report.json").read_text())
        res = report["solve"]["residuals"]
        assert res["final_state_error"] <= 1e-8
        assert res["proj_u_error"] == 0.0
        assert res["proj_y_error"] == 0.0
        assert report["solve"]["verdict"] == "converged"
        traj = (out / "trajectory.csv").read_text().strip().split("\n")
        ctrl = (out / "control.csv").read_text().strip().split("\n")
        assert len(traj) == 1 + 128 + 1  # header + nodes
        assert len(ctrl) == 1 + 128
        # control values agree with the analytic solution at interval midpoints
        row0 = ctrl[1].split(",")
        assert float(row0[1]) == pytest.approx(
            -math.cosh(1.0 - float(row0[0])) / math.sinh(1.0), abs=1e-4
        )

    @pytest.mark.parametrize("kind", ["exact", "approx", "approx_relaxed"])
    def test_infeasible_exits_3_with_radius(self, tmp_path, capsys, kind):
        cfg = infeasible_config()
        cfg["problem"]["kind"] = kind
        if kind != "exact":
            cfg["problem"]["epsilon"] = 0.1
        path = write(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_config(path, out) == 3
        assert "problem certified non-coercive" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        # no check was asked for: the divergence path runs the uniqueness check
        uc = report["checks"]["uc"]
        assert uc["sigma_min"] <= 1e-12
        assert len(uc["witness"]) == 1 + 1 + 0  # n + dim G + dim W
        assert uc["infeasibility_radius"] > 0.0

    def test_unknown_key_exits_1(self, tmp_path):
        cfg = scalar_null_config()
        cfg["problem"]["epsilonn"] = 0.1
        path = write(tmp_path, cfg)
        assert run_config(path, tmp_path / "out") == 1

    def test_failed_uc_check_exits_2(self, tmp_path):
        cfg = infeasible_config()
        cfg["checks"] = {"uc": True}
        path = write(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_config(path, out) == 2
        report = json.loads((out / "report.json").read_text())
        uc = report["checks"]["uc"]
        assert not uc["holds"]
        assert len(uc["witness"]) == 1 + 1 + 0
        assert uc["infeasibility_radius"] > 0.0
        assert "solve" not in report

    def test_failed_checks_are_named(self, tmp_path, capsys):
        # only a failed uc check has a witness to point at
        out = tmp_path / "out"
        assert run_config(write(tmp_path, two_time_config()), out) == 2
        err = capsys.readouterr().err
        assert "certification failed: two_time" in err and "witness" not in err
        two_time = json.loads((out / "report.json").read_text())["checks"]["two_time"]
        assert not two_time["certified"]
        assert math.copysign(1.0, two_time["uc_tilde_sigma_min"]) == 1.0
        cfg = infeasible_config()
        cfg["checks"] = {"uc": True}
        assert run_config(write(tmp_path, cfg, "uc.json"), tmp_path / "uc") == 2
        err = capsys.readouterr().err
        assert "certification failed: uc" in err and "witness serialized" in err

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write(tmp_path, scalar_null_config(checks={"uc": True}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_config(path, out1) == 0
        assert run_config(path, out2) == 0
        for name in ("report.json", "control.csv", "trajectory.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_zero_data_writes_zero_rows(self, tmp_path):
        cfg = scalar_null_config(n_steps=16)
        cfg["problem"]["y0"] = [0.0]
        path = write(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_config(path, out) == 0
        ctrl = (out / "control.csv").read_text().strip().split("\n")
        traj = (out / "trajectory.csv").read_text().strip().split("\n")
        assert len(ctrl) == 1 + 16
        assert len(traj) == 1 + 17
        assert all(float(line.split(",")[1]) == 0.0 for line in ctrl[1:])
        assert all(float(line.split(",")[1]) == 0.0 for line in traj[1:])

    def test_report_echo_round_trips(self, tmp_path):
        cfg = scalar_null_config(checks={"uc": True, "observability": ["final_state"]})
        path = write(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_config(path, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert RunConfig(report["config"]) == RunConfig(cfg)

    def test_observability_section(self, tmp_path):
        cfg = scalar_null_config(checks={"observability": ["final_state"]})
        path = write(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_config(path, out) == 0
        report = json.loads((out / "report.json").read_text())
        c = report["checks"]["observability"]["final_state"]["constant"]
        assert c == pytest.approx(1.0, abs=1e-10)


class TestCsv:
    def test_row_bytes(self, tmp_path):
        # 17 significant digits, signed zeros, infinities, nan, the smallest
        # subnormal and the largest double
        row = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308, 0.1, -1 / 3]
        _write_csv(tmp_path / "x.csv", ["a", "b"], np.array(row))
        assert (tmp_path / "x.csv").read_bytes() == (
            b"a,b\n0,-0,inf,-inf,nan,4.9406564584124654e-324,1.7976931348623157e+308,"
            b"0.10000000000000001,-0.33333333333333331\n"
        )


class TestJson:
    def test_nonfinite_numpy_scalars_are_strings(self):
        # json.dump would write inf as Infinity and nan as NaN, which are not JSON
        assert _json_ready(np.float64("inf")) == "inf"
        assert _json_ready(np.float64("-inf")) == "-inf"
        assert _json_ready(np.float64("nan")) == "nan"
        assert _json_ready([math.nan, np.float64(0.5), 2]) == ["nan", 0.5, 2]


class TestOtherCommands:
    def test_check_uc_pass_and_fail(self, tmp_path, capsys):
        ok = write(tmp_path, scalar_null_config(), "ok.json")
        assert main(["check-uc", "--config", str(ok)]) == 0
        bad = write(tmp_path, infeasible_config(), "bad.json")
        assert main(["check-uc", "--config", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "witness" in out

    def test_obs_constant(self, tmp_path, capsys):
        path = write(tmp_path, scalar_null_config())
        assert main(["obs-constant", "--config", str(path), "--kind", "final_state"]) == 0
        out = capsys.readouterr().out
        assert float(out.split("final_state constant = ")[1].split()[0]) == pytest.approx(
            1.0, rel=1e-15)

    def test_models_list(self, capsys):
        assert main(["models", "list"]) == 0
        out = capsys.readouterr().out
        assert "heat1d" in out and "wave1d" in out and "ode" in out

    def test_models_list_leaves_logging_alone(self):
        # in a fresh process, since pytest installs root handlers of its own:
        # main reads no environment variable and configures no logger
        probe = ("import logging; from pccontrol.cli import main; main(['models', 'list']); "
                 "root = logging.getLogger(); print(len(root.handlers), root.level)")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PCCONTROL_LOG": "DEBUG", "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout.splitlines()[-1] == "0 30"  # no handler, level WARNING
        assert run.stderr == ""

    def test_missing_config_file(self, tmp_path):
        assert main(["check-uc", "--config", str(tmp_path / "absent.json")]) == 1

    def test_obs_constant_unknown_key_exits_1(self, tmp_path, capsys):
        cfg = scalar_null_config()
        cfg["model"]["extra"] = 1
        path = write(tmp_path, cfg)
        assert main(["obs-constant", "--config", str(path), "--kind", "final_state"]) == 1
        assert "unknown key 'extra' in model" in capsys.readouterr().err


class TestConfigParsing:
    def test_unknown_top_level_key(self):
        cfg = scalar_null_config()
        cfg["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            RunConfig(cfg).build()

    def test_null_forbids_target(self):
        cfg = scalar_null_config()
        cfg["problem"]["y1"] = [0.0]
        with pytest.raises(ConfigError, match="y1"):
            RunConfig(cfg).build()

    def test_approx_requires_epsilon(self):
        cfg = scalar_null_config()
        cfg["problem"]["kind"] = "approx"
        cfg["problem"]["y1"] = [0.0]
        with pytest.raises(ConfigError, match="epsilon"):
            RunConfig(cfg).build()

    def test_entry_shape_rules(self):
        cfg = scalar_null_config()
        cfg["problem"]["G"] = [{"rate": 0.0}]
        with pytest.raises(ConfigError):
            RunConfig(cfg).build()
        cfg["problem"]["G"] = [{"signal": [[0.0]], "rate": 1.0}]
        with pytest.raises(ConfigError):
            RunConfig(cfg).build()

    def test_build_heat_model_with_subspaces(self):
        cfg = {
            "model": {"family": "heat1d", "n_modes": 4, "omega": [0.3, 0.7],
                      "n_quad": 201},
            "grid": {"T": 1.0, "n_steps": 32},
            "problem": {
                "kind": "exact",
                "y0": {"coords": [[0, 1.0]]},
                "y1": [0.0, 0.0, 0.0, 0.0],
                "W": [{"rate": 0.0, "coords": [[0, 1.0]]}],
                "w_star": [0.1],
            },
        }
        build = RunConfig(cfg).build()
        assert build.problem.W.dim == 1
        assert build.problem.w_star.shape == (32, 4)
        assert build.problem.system.n == 4

    def test_coords_index_out_of_range(self):
        cfg = scalar_null_config()
        cfg["problem"]["y0"] = {"coords": [[5, 1.0]]}
        with pytest.raises(ConfigError, match="out of range"):
            RunConfig(cfg).build()

    def test_duplicate_key_exits_1(self, tmp_path, capsys):
        # json.load keeps the last of two equal keys: grid.T would be 2.0 unnoticed
        text = json.dumps(scalar_null_config(n_steps=16)).replace('"T": 1.0', '"T": 1.0, "T": 2.0')
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "duplicate key 'T'" in capsys.readouterr().err

    def test_repeated_coords_index_exits_1(self, tmp_path, capsys):
        # y0[0] would be 2.0 unnoticed, the last of its two values
        cfg = scalar_null_config(n_steps=16)
        cfg["problem"]["y0"] = {"coords": [[0, 1.0], [0, 2.0]]}
        with pytest.raises(ConfigError, match=r"problem\.y0\.coords\[1\] repeats index 0"):
            RunConfig(cfg).build()
        path = write(tmp_path, cfg)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "problem.y0.coords[1]" in capsys.readouterr().err

    def test_literal_signal_entry(self):
        cfg = scalar_null_config(n_steps=4)
        cfg["problem"]["G"] = [{"signal": [[1.0], [1.0], [0.0], [0.0]]}]
        build = RunConfig(cfg).build()
        assert build.problem.G.dim == 1

    @pytest.mark.parametrize("offset, last", [(1e-10, 4), (1e-6, 3)])
    def test_signal_and_profile_support_agree(self, offset, last):
        # the window end lies offset * T before the end of interval 4: inside
        # the alignment tolerance that interval stays, outside it it is cut,
        # at any horizon
        N = 8
        for T in (2.0, 2e-6):
            window = [0.125 * T, (0.625 - offset) * T]
            entries = ({"signal": [[1.5]] * N, "support": window},
                       {"rate": 0.0, "vector": [1.5], "support": window})
            for entry in entries:
                cfg = scalar_null_config(n_steps=N)
                cfg["grid"]["T"] = T
                cfg["problem"]["G"] = [entry]
                basis = RunConfig(cfg).build().problem.G.basis
                assert np.flatnonzero(basis[0, :, 0]).tolist() == list(range(1, last + 1))

    @pytest.mark.parametrize("tol", [-1, 0, 1e-8])
    def test_tol_uc_is_unknown_key(self, tmp_path, capsys, tol):
        # every verdict takes the numerical-rank cutoff of its map, so there
        # is no uniqueness threshold to configure
        cfg = infeasible_config()
        cfg["checks"] = {"uc": True, "tol_uc": tol}
        with pytest.raises(ConfigError, match="unknown key 'tol_uc' in checks"):
            RunConfig(cfg).build()
        assert run_config(write(tmp_path, cfg), tmp_path / "out") == 1
        assert "'tol_uc'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, data, field", [
        ("null", {"y1": [0.0]}, "y1"),
        ("exact", {}, "y1"),
        ("approx", {"y1": [0.0]}, "epsilon"),
        ("exact", {"y1": [0.0], "epsilon": 0.1}, "epsilon"),
        ("null", {"E": [[1.0]]}, "E"),
    ], ids=["y1_with_null", "exact_without_y1", "approx_without_epsilon",
            "epsilon_with_exact", "E_with_null"])
    def test_kind_rules(self, tmp_path, capsys, kind, data, field):
        cfg = scalar_null_config()
        cfg["problem"] = {"kind": kind, "y0": [1.0], **data}
        with pytest.raises(ConfigError, match=rf"^problem: .*\b{field}\b"):
            RunConfig(cfg).build()
        path = write(tmp_path, cfg)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "check-uc", "obs-constant"])
    def test_divergence_bound_is_unknown_key(self, tmp_path, capsys, command):
        # no solver option bounds the dual iterates
        cfg = scalar_null_config()
        cfg["solver"]["divergence_bound"] = 1e-3
        with pytest.raises(ConfigError, match="unknown key 'divergence_bound' in solver"):
            RunConfig(cfg).build()
        extra = {"solve": ["--out", str(tmp_path / "out")], "check-uc": [],
                 "obs-constant": ["--kind", "final_state"]}[command]
        assert main([command, "--config", str(write(tmp_path, cfg))] + extra) == 1
        assert "'divergence_bound'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["false", 0, 1, None])
    def test_uc_flag_must_be_boolean(self, tmp_path, capsys, flag):
        cfg = infeasible_config()
        cfg["checks"] = {"uc": flag}
        with pytest.raises(ConfigError, match="checks.uc"):
            RunConfig(cfg).build()
        assert run_config(write(tmp_path, cfg), tmp_path / "out") == 1
        assert "checks.uc" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["nan", "inf", "-inf", "int_beyond_float"])
    def test_non_finite_number_rejected(self, tmp_path, capsys, value):
        # json.load parses NaN and +-Infinity; a NaN y0 used to run to the
        # iteration cap and write NaN into report.json
        cfg = scalar_null_config(n_steps=16)
        cfg["problem"]["y0"] = [value]
        with pytest.raises(ConfigError, match=r"problem\.y0\[0\] must be a finite number"):
            RunConfig(cfg).build()
        assert run_config(write(tmp_path, cfg), tmp_path / "out") == 1
        assert "problem.y0[0]" in capsys.readouterr().err

    def test_grid_type_checks(self):
        cfg = scalar_null_config()
        cfg["grid"]["n_steps"] = 8.5
        with pytest.raises(ConfigError, match="n_steps"):
            RunConfig(cfg).build()

    @pytest.mark.parametrize("key, value, message", [
        ("T", -1.0, r"grid\.T must be positive, got -1\.0"),
        ("T", 0, r"grid\.T must be positive, got 0\.0"),
        ("n_steps", 1, r"grid\.n_steps must be at least 2, got 1"),
    ], ids=["negative_T", "zero_T", "one_step"])
    def test_grid_values_name_their_key(self, tmp_path, capsys, key, value, message):
        cfg = scalar_null_config()
        cfg["grid"][key] = value
        with pytest.raises(ConfigError, match=message):
            RunConfig(cfg).build()
        assert main(["check-uc", "--config", str(write(tmp_path, cfg))]) == 1
        assert f"grid.{key}" in capsys.readouterr().err

    def test_model_name_must_be_a_string(self, tmp_path, capsys):
        # a mapping used to pass through to report.json
        cfg = scalar_null_config(n_steps=16)
        cfg["model"]["name"] = {"not": "a string"}
        with pytest.raises(ConfigError, match=r"model\.name must be a string"):
            RunConfig(cfg).build()
        assert run_config(write(tmp_path, cfg), tmp_path / "out") == 1
        assert "model.name" in capsys.readouterr().err

    @pytest.mark.parametrize("A, B, where", [
        ([["x"]], [[1.0]], r"model\.A\[0\]\[0\] must be a number"),
        ([[True]], [[1.0]], r"model\.A\[0\]\[0\] must be a number"),
        ([[1.0, 2.0], [3.0]], [[1.0], [1.0]], r"model\.A\[1\] must have 2 entries"),
        (1.0, 1.0, r"model\.A must be a nonempty list of rows"),
        ([[0.0]], 1.0, r"model\.B must be a nonempty list of rows"),
        ([[0.0]], [1.0], r"model\.B\[0\] must be a list"),
    ], ids=["string", "boolean", "ragged", "scalars", "scalar_B", "flat_B"])
    def test_ode_matrices_read_entrywise(self, tmp_path, capsys, A, B, where):
        cfg = scalar_null_config(n_steps=16)
        cfg["model"].update(A=A, B=B)
        with pytest.raises(ConfigError, match=where):
            RunConfig(cfg).build()
        assert run_config(write(tmp_path, cfg), tmp_path / "out") == 1
        assert "model." in capsys.readouterr().err

    def test_ode_without_control_columns(self):
        cfg = scalar_null_config(n_steps=16)
        cfg["model"]["B"] = [[]]
        assert RunConfig(cfg).build().problem.system.m == 0

    def test_non_string_family_exits_1(self, tmp_path, capsys):
        # a list is unhashable: the family lookup used to raise TypeError
        cfg = scalar_null_config()
        cfg["model"]["family"] = ["ode"]
        assert run_config(write(tmp_path, cfg), tmp_path / "out") == 1
        assert "unknown model family ['ode']" in capsys.readouterr().err

    def test_heat_without_modes_exits_1(self, tmp_path, capsys):
        cfg = {
            "model": {"family": "heat1d", "n_modes": 0},
            "grid": {"T": 1.0, "n_steps": 16},
            "problem": {"kind": "null", "y0": []},
        }
        assert run_config(write(tmp_path, cfg), tmp_path / "out") == 1
        assert "n_modes must be at least 1" in capsys.readouterr().err

    def test_overflowing_generator_rejected(self, tmp_path, capsys):
        # exp(800 t) overflows on [0, 1]; it used to empty G silently
        cfg = scalar_null_config(n_steps=16)
        cfg["problem"]["G"] = [{"rate": 800.0, "vector": [1.0]}]
        with pytest.raises(ConfigError, match=r"problem\.G\[0\] is not finite"):
            RunConfig(cfg).build()
        assert run_config(write(tmp_path, cfg), tmp_path / "out") == 1
        assert "problem.G[0]" in capsys.readouterr().err

    def test_generator_overflowing_outside_its_window_is_kept(self):
        cfg = scalar_null_config(n_steps=16)
        cfg["problem"]["G"] = [{"rate": 800.0, "vector": [1.0], "support": [0.0, 0.25]}]
        assert RunConfig(cfg).build().problem.G.dim == 1


class TestHeatConfigEndToEnd:
    def test_heat_null_solve_with_checks(self, tmp_path):
        cfg = {
            "model": {"family": "heat1d", "n_modes": 4, "omega": [0.3, 0.7],
                      "n_quad": 201},
            "grid": {"T": 1.0, "n_steps": 32},
            "problem": {
                "kind": "null",
                "y0": {"coords": [[0, 1.0], [1, 0.5]]},
                "W": [{"rate": 0.0, "coords": [[0, 1.0]]}],
                "w_star": [0.02],
            },
            "solver": {"grad_tol": 1e-10, "max_iters": 5000},
            "checks": {"uc": True, "observability": ["final_state"],
                       "two_time": {"t_tilde": 0.5}},
        }
        path = write(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_config(path, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]["uc"]["holds"]
        assert report["checks"]["two_time"]["certified"]
        assert report["solve"]["residuals"]["final_state_error"] <= 1e-7
        assert report["solve"]["residuals"]["proj_y_error"] <= 1e-7
        ctrl = (out / "control.csv").read_text().strip().split("\n")
        # t_mid column plus one column per control node
        assert len(ctrl[0].split(",")) == 1 + report_control_dim(report)


class TestUcMapDims:
    # the uniqueness map has N*min(m, n) + p_g rows (the output frame of
    # B^T) and one column per state, G and W coordinate
    @pytest.mark.parametrize("model, n, G, N, dims", [
        # m = 1 < n = 3, no G
        ({"family": "ode", "A": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]],
          "B": [[0.0], [0.0], [1.0]]}, 3, [], 16, [16 * 1 + 0, 3 + 0 + 1]),
        # m = 80 quadrature nodes > n = 4 modes, one G generator
        ({"family": "heat1d", "n_modes": 4, "omega": [0.3, 0.7], "n_quad": 201},
         4, [{"rate": 1.0, "coords": [[0, 1.0]]}], 32, [32 * 4 + 1, 4 + 1 + 1]),
    ])
    def test_map_dims(self, tmp_path, model, n, G, N, dims):
        cfg = {
            "model": model,
            "grid": {"T": 1.0, "n_steps": N},
            "problem": {"kind": "null", "y0": [1.0] + [0.0] * (n - 1), "G": G,
                        "W": [{"rate": 0.0, "vector": [1.0] + [0.0] * (n - 1)}]},
            "solver": {"grad_tol": 1e-10, "max_iters": 5000},
            "checks": {"uc": True},
        }
        out = tmp_path / "out"
        assert run_config(write(tmp_path, cfg), out) == 0
        uc = json.loads((out / "report.json").read_text())["checks"]["uc"]
        assert uc["holds"]
        assert uc["map_dims"] == dims


def report_control_dim(report):
    model = report["config"]["model"]
    assert model["family"] == "heat1d"
    # control dimension equals the composite quadrature size of omega
    from pccontrol import make_heat1d

    system, _ = make_heat1d(model["n_modes"], tuple(model["omega"]), model["n_quad"])
    return system.m


class TestExitCodes:
    def test_iteration_cap_exits_4(self, tmp_path):
        cfg = scalar_null_config()
        cfg["solver"] = {"max_iters": 1, "grad_tol": 1e-14}
        path = write(tmp_path, cfg)
        assert run_config(path, tmp_path / "out") == 4

    def test_divergence_without_witness_is_not_certified(self, tmp_path, capsys):
        # an undamped heat target at 32 modes, N = 1024: the uniqueness map
        # holds (sigma_min 2.0e-7), yet the solve stops at the rounding floor
        # (its true gradient, 2.1e-7, stays above grad_tol), so exit 3 stays,
        # but nothing certifies non-coercivity
        out = tmp_path / "out"
        assert run_config(write(tmp_path, undamped_heat_config(32, 1024)), out) == 3
        err = capsys.readouterr().err
        assert "not certified" in err and "certified non-coercive" not in err
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]["uc"]["holds"]
        assert report["checks"]["uc"]["witness"] is None

    def test_floor_stop_is_not_certified(self, tmp_path, capsys):
        # the uniqueness map holds and the approximate solve stops where its
        # least subgradient has stalled at the rounding floor: exit 3, but
        # nothing certifies non-coercivity
        out = tmp_path / "out"
        assert run_config(write(tmp_path, floor_stop_config()), out) == 3
        assert "not certified" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]["uc"]["holds"]
        assert report["solve"]["verdict"] == "diverged_infeasible"
        assert report["solve"]["final_residual"] <= 1e-2

    def test_undamped_heat_target_at_16_modes_converges(self, tmp_path):
        # 16 modes, N = 128 (sigma_min 2.5e-5): solvable, and the Gramian
        # preconditioned solve passes grad_tol on the true gradient
        out = tmp_path / "out"
        assert run_config(write(tmp_path, undamped_heat_config(16, 128)), out) == 0
        solve = json.loads((out / "report.json").read_text())["solve"]
        assert solve["verdict"] == "converged"
        assert solve["residuals"]["final_state_error"] <= 1e-9

    @pytest.mark.parametrize("command", ["solve", "obs-constant"])
    def test_infinite_constant_exits_2(self, tmp_path, command):
        # G holds the constants, which the scalar integrator cannot tell
        # from its final state: general_final is infinite, and every command
        # that computes it exits 2 on that verdict
        cfg = infeasible_config()
        cfg["checks"] = {"observability": ["general_final"]}
        extra = {"solve": ["--out", str(tmp_path / "out")],
                 "obs-constant": ["--kind", "general_final"]}[command]
        assert main([command, "--config", str(write(tmp_path, cfg))] + extra) == 2

    def test_unwritable_output_reports_io_error(self, tmp_path):
        path = write(tmp_path, scalar_null_config(n_steps=8))
        blocker = tmp_path / "blocked"
        blocker.write_text("file in the way")
        assert run_config(path, blocker / "out") == 1

    def test_unwritable_output_fails_before_checks_and_solve(self, tmp_path, capsys,
                                                              monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ran before the output directory was made")

        monkeypatch.setattr(cli, "minimize", refuse)
        monkeypatch.setattr(cli, "_run_checks", refuse)
        path = write(tmp_path, scalar_null_config(n_steps=8))
        blocker = tmp_path / "blocked"
        blocker.write_text("file in the way")
        assert run_config(path, blocker / "out") == 1
        assert capsys.readouterr().err.startswith("error: cannot create output directory")

    @pytest.mark.parametrize("t_tilde", [0.25, 0.0, 1.5])
    def test_bad_t_tilde_fails_before_checks_and_solve(self, tmp_path, capsys, monkeypatch,
                                                       t_tilde):
        # off the grid or outside (0, T]: a configuration error at build time
        def refuse(*args, **kwargs):
            raise AssertionError("ran although the configuration is invalid")

        monkeypatch.setattr(cli, "minimize", refuse)
        monkeypatch.setattr(cli, "_run_checks", refuse)
        monkeypatch.setattr(cli.certificates, "two_time_check", refuse)
        assert run_config(write(tmp_path, two_time_config(t_tilde)), tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checks.two_time.t_tilde")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", [
        ["check-uc"],
        ["obs-constant", "--kind", "initial_state"],
        ["obs-constant", "--kind", "general_initial"],
        ["solve", "--out", "out"],
    ], ids=["check-uc", "obs-constant-initial_state", "obs-constant-general_initial", "solve"])
    def test_propagator_overflowing_the_horizon_exits_1(self, tmp_path, capsys, command):
        # exp(A dt) = exp(300) is finite, but E^N = exp(1200) is not: every
        # command refuses the system with one error line and no warning
        cfg = {
            "model": {"family": "ode", "A": [[300.0]], "B": [[1.0]]},
            "grid": {"T": 4.0, "n_steps": 4},
            "problem": {"kind": "null", "y0": [1.0]},
            "checks": {"uc": True, "observability": ["initial_state", "general_initial"],
                       "two_time": {"t_tilde": 2.0}},
        }
        command = [str(tmp_path / arg) if arg == "out" else arg for arg in command]
        assert main(command + ["--config", str(write(tmp_path, cfg))]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: propagator over the horizon T = 4.0")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("kind", ["exact", "approx"])
    @pytest.mark.parametrize("y0", [1e308, 1e200])
    def test_overflowing_data_exits_1(self, tmp_path, capsys, kind, y0):
        # the forward solve from y0 overflows (1e308), or the squared norm of
        # the dual gradient at zero does (1e200): the data, not the system,
        # are out of range, so solve refuses them with one error line
        cfg = {
            "model": {"family": "ode", "A": [[1.0]], "B": [[1.0]]},
            "grid": {"T": 1.0, "n_steps": 8},
            "problem": {"kind": kind, "y0": [y0], "y1": [0.0]},
        }
        if kind == "approx":
            cfg["problem"]["epsilon"] = 0.1
        assert run_config(write(tmp_path, cfg), tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: problem data overflow double precision")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("blocked, message", [
        ("report.json", "error: cannot write report"),
        ("trajectory.csv", "error: cannot write"),
    ])
    def test_unwritable_output_file_exits_1(self, tmp_path, capsys, blocked, message):
        # a directory where an output file goes
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert run_config(write(tmp_path, scalar_null_config(n_steps=8)), out) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and blocked in err
        assert len(err.splitlines()) == 1

    def test_unwritable_output_after_failed_certification_exits_1(self, tmp_path, capsys):
        cfg = infeasible_config()
        cfg["checks"] = {"uc": True}
        blocker = tmp_path / "blocked"
        blocker.write_text("file in the way")
        assert run_config(write(tmp_path, cfg), blocker / "out") == 1
        assert capsys.readouterr().err.startswith("error: cannot create output directory")


class TestWaveConfig:
    def test_wave_exact_with_support_windows(self, tmp_path):
        cfg = {
            "model": {"family": "wave1d", "n_modes": 3, "omega": [0.3, 0.7],
                      "n_quad": 201},
            "grid": {"T": 4.0, "n_steps": 64},
            "problem": {
                "kind": "exact",
                "y0": {"coords": [[0, 1.0]]},
                "y1": {"coords": [[1, 0.5]]},
                "G": [{"rate": 0.0, "coords": [[0, 0.3], [3, -0.2]],
                       "support": [0.0, 1.5]}],
                "g_star": [0.02],
            },
            "solver": {"grad_tol": 1e-9, "max_iters": 10000},
            "checks": {"uc": True},
        }
        path = write(tmp_path, cfg)
        out = tmp_path / "out"
        assert run_config(path, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]["uc"]["holds"]
        assert report["checks"]["certificate_level"] == "discrete"
        res = report["solve"]["residuals"]
        assert res["final_state_error"] <= 1e-6
        assert res["proj_u_error"] <= 1e-7
