import json
import math

import numpy as np
import pytest

from pccontrol import RunConfig
from pccontrol.cli import _write_csv, main, run_config
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

    def test_infeasible_exits_3_with_radius(self, tmp_path, capsys):
        path = write(tmp_path, infeasible_config())
        out = tmp_path / "out"
        assert run_config(path, out) == 3
        assert "problem certified non-coercive" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        info = report["infeasibility"]
        assert info["sigma_min"] <= 1e-12
        assert len(info["witness"]) == 1 + 1 + 0  # n + dim G + dim W
        assert info["radius"] > 0.0

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
        assert RunConfig.from_dict(report["config"]) == RunConfig.from_dict(cfg)

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
        assert "final_state constant = 1" in out

    def test_models_list(self, capsys):
        assert main(["models", "list"]) == 0
        out = capsys.readouterr().out
        assert "heat1d" in out and "wave1d" in out and "ode" in out

    def test_missing_config_file(self, tmp_path):
        assert main(["check-uc", "--config", str(tmp_path / "absent.json")]) == 1


class TestConfigParsing:
    def test_unknown_top_level_key(self):
        cfg = scalar_null_config()
        cfg["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            RunConfig.from_dict(cfg)

    def test_null_forbids_target(self):
        cfg = scalar_null_config()
        cfg["problem"]["y1"] = [0.0]
        with pytest.raises(ConfigError, match="y1"):
            RunConfig.from_dict(cfg)

    def test_approx_requires_epsilon(self):
        cfg = scalar_null_config()
        cfg["problem"]["kind"] = "approx"
        cfg["problem"]["y1"] = [0.0]
        with pytest.raises(ConfigError, match="epsilon"):
            RunConfig.from_dict(cfg)

    def test_entry_shape_rules(self):
        cfg = scalar_null_config()
        cfg["problem"]["G"] = [{"rate": 0.0}]
        with pytest.raises(ConfigError):
            RunConfig.from_dict(cfg)
        cfg["problem"]["G"] = [{"signal": [[0.0]], "rate": 1.0}]
        with pytest.raises(ConfigError):
            RunConfig.from_dict(cfg)

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
        build = RunConfig.from_dict(cfg).build()
        assert build.problem.W.dim == 1
        assert build.problem.w_star.shape == (32, 4)
        assert build.system.n == 4

    def test_coords_index_out_of_range(self):
        cfg = scalar_null_config()
        cfg["problem"]["y0"] = {"coords": [[5, 1.0]]}
        with pytest.raises(ConfigError, match="out of range"):
            RunConfig.from_dict(cfg).build()

    def test_literal_signal_entry(self):
        cfg = scalar_null_config(n_steps=4)
        cfg["problem"]["G"] = [{"signal": [[1.0], [1.0], [0.0], [0.0]]}]
        build = RunConfig.from_dict(cfg).build()
        assert build.problem.G.dim == 1

    @pytest.mark.parametrize("offset, last", [(1e-10, 4), (1e-6, 3)])
    def test_signal_and_profile_support_agree(self, offset, last):
        # the window end lies offset * T before the end of interval 4: inside
        # the alignment tolerance that interval stays, outside it it is cut
        T, N = 2.0, 8
        window = [0.25, 1.25 - offset * T]
        entries = ({"signal": [[1.5]] * N, "support": window},
                   {"rate": 0.0, "vector": [1.5], "support": window})
        for entry in entries:
            cfg = scalar_null_config(n_steps=N)
            cfg["grid"]["T"] = T
            cfg["problem"]["G"] = [entry]
            basis = RunConfig.from_dict(cfg).build().problem.G.basis
            assert np.flatnonzero(basis[0, :, 0]).tolist() == list(range(1, last + 1))

    @pytest.mark.parametrize("tol", [-1, 0])
    def test_non_positive_tol_uc_rejected(self, tmp_path, capsys, tol):
        # a cutoff at or below zero would certify the kernel of this map
        cfg = infeasible_config()
        cfg["checks"] = {"uc": True, "tol_uc": tol}
        with pytest.raises(ConfigError, match="checks.tol_uc"):
            RunConfig.from_dict(cfg).build()
        assert run_config(write(tmp_path, cfg), tmp_path / "out") == 1
        assert "checks.tol_uc" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["false", 0, 1, None])
    def test_uc_flag_must_be_boolean(self, tmp_path, capsys, flag):
        cfg = infeasible_config()
        cfg["checks"] = {"uc": flag}
        with pytest.raises(ConfigError, match="checks.uc"):
            RunConfig.from_dict(cfg).build()
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
            RunConfig.from_dict(cfg).build()
        assert run_config(write(tmp_path, cfg), tmp_path / "out") == 1
        assert "problem.y0[0]" in capsys.readouterr().err

    def test_grid_type_checks(self):
        cfg = scalar_null_config()
        cfg["grid"]["n_steps"] = 8.5
        with pytest.raises(ConfigError, match="n_steps"):
            RunConfig.from_dict(cfg).build()

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
            RunConfig.from_dict(cfg).build()
        assert run_config(write(tmp_path, cfg), tmp_path / "out") == 1
        assert "model." in capsys.readouterr().err

    def test_ode_without_control_columns(self):
        cfg = scalar_null_config(n_steps=16)
        cfg["model"]["B"] = [[]]
        assert RunConfig.from_dict(cfg).build().system.m == 0

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
            RunConfig.from_dict(cfg).build()
        assert run_config(write(tmp_path, cfg), tmp_path / "out") == 1
        assert "problem.G[0]" in capsys.readouterr().err

    def test_generator_overflowing_outside_its_window_is_kept(self):
        cfg = scalar_null_config(n_steps=16)
        cfg["problem"]["G"] = [{"rate": 800.0, "vector": [1.0], "support": [0.0, 0.25]}]
        assert RunConfig.from_dict(cfg).build().problem.G.dim == 1


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
        # the bound stops CG on a problem whose uniqueness map holds: exit 3
        # stays, but nothing certifies non-coercivity
        cfg = scalar_null_config(checks={"uc": True})
        cfg["solver"]["divergence_bound"] = 1e-3
        out = tmp_path / "out"
        assert run_config(write(tmp_path, cfg), out) == 3
        err = capsys.readouterr().err
        assert "not certified" in err and "certified non-coercive" not in err
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]["uc"]["holds"]
        assert "witness" not in report["infeasibility"]

    def test_unwritable_output_reports_io_error(self, tmp_path):
        path = write(tmp_path, scalar_null_config(n_steps=8))
        blocker = tmp_path / "blocked"
        blocker.write_text("file in the way")
        assert run_config(path, blocker / "out") == 1


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
