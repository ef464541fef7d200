import csv
import io
import json
import os
import platform
import re

import numpy as np
import pytest

from swarmlab.cli import main
from swarmlab.potentials import PowerLaw
from swarmlab.spectra import cs_flock_mode_matrix, eig4


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def sim_config(tmp_path, **overrides):
    data = {
        "model": "propulsion",
        "potential": {"kind": "power-law", "a": 5.0, "b": 1.5},
        "propulsion": {"alpha": 1.0, "beta": 4.0},
        "n": 16,
        "t_final": 2.0,
        "sample_every": 1.0,
        "seed": 3,
        "ic": {"kind": "flock", "perturbation": {"kind": "mode", "m": 3, "xi_plus": 1e-3}},
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestRadius:
    def test_closed_form_printed(self, capsys):
        assert main(["radius", "--a", "4", "--b", "2", "--n", "1000", "--speed", "0"]) == 0
        out = capsys.readouterr().out
        assert "R=0.577350" in out
        value = float(out.split("R=")[1].split()[0])
        assert value == pytest.approx(3 ** -0.5, abs=1e-7)

    def test_manifest_written(self, in_tmp):
        assert main(["radius", "--a", "4", "--b", "2", "--n", "100",
                     "--out", "rad"]) == 0
        manifest = json.loads((in_tmp / "rad.manifest.json").read_text())
        assert manifest["command"] == "radius"
        assert manifest["parameters"]["radius"] == pytest.approx(3 ** -0.5, abs=1e-10)
        assert manifest["outputs"] == []
        assert manifest["artifact_version"]
        env = manifest["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["platform"] == platform.platform()
        assert env["nproc"] == os.cpu_count()

    def test_manifests_share_the_ufunc_fingerprint(self, in_tmp):
        # a sha256 of hypot, power, float_power and exp on a fixed probe:
        # the same for every command that runs in one process
        assert main(["radius", "--a", "4", "--b", "2", "--n", "100", "--out", "one"]) == 0
        assert main(["spectrum", "--model", "flock", "--a", "4", "--b", "2", "--n", "20",
                     "--out", "two"]) == 0
        prints = [json.loads((in_tmp / f"{name}.manifest.json").read_text())
                  ["environment"]["ufunc_fingerprint"] for name in ("one", "two")]
        assert re.fullmatch("[0-9a-f]{64}", prints[0])
        assert prints[0] == prints[1]

    def test_missing_potential_is_usage_error(self, capsys):
        assert main(["radius", "--n", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_no_root_is_numerical_error(self, capsys):
        # this well supports no rotating ring at speed 0.3
        code = main(["radius", "--morse", "0.5", "1.0", "2.0", "0.5",
                     "--n", "60", "--speed", "0.3", "--bracket", "0.1", "10"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error:")


class TestSpectrum:
    def test_single_mode_matches_library(self, in_tmp, capsys):
        assert main(["spectrum", "--model", "flock-cs", "--a", "5", "--b", "1.5",
                     "--n", "64", "--m", "3", "--out", "spec"]) == 0
        rows = read_csv(in_tmp / "spec.csv")
        assert rows[0] == ["m", "re1", "re2", "re3", "re4",
                           "im1", "im2", "im3", "im4", "classification"]
        assert len(rows) == 2
        got = sorted(float(v) for v in rows[1][1:5])
        expect = sorted(eig4(cs_flock_mode_matrix(5, 1.5, 64, 3, 1.0)).real)
        assert got == pytest.approx(expect, rel=1e-12)
        assert rows[1][-1] == "stable"

    def test_full_table_row_count(self, in_tmp):
        assert main(["spectrum", "--model", "flock", "--a", "4", "--b", "2",
                     "--n", "10", "--out", "spec"]) == 0
        rows = read_csv(in_tmp / "spec.csv")
        # default range m = 2 .. (n-1)//2
        assert [r[0] for r in rows[1:]] == ["2", "3", "4"]

    def test_stable_mill_reference_point(self, in_tmp):
        assert main(["spectrum", "--model", "mill", "--a", "5", "--b", "1.25",
                     "--n", "1000", "--alpha", "1", "--speed", "0.5",
                     "--m-max", "500", "--out", "spec"]) == 0
        rows = read_csv(in_tmp / "spec.csv")
        assert len(rows) == 500
        assert all(r[-1] == "stable" for r in rows[1:])

    def test_degenerate_flock_agrees_with_region(self, in_tmp):
        # (4, 2) has det S = 0 in every mode m >= 3: marginal on both routes
        assert main(["spectrum", "--model", "flock", "--a", "4", "--b", "2",
                     "--n", "64", "--out", "spec"]) == 0
        verdicts = {r[-1] for r in read_csv(in_tmp / "spec.csv")[1:]}
        assert "unstable" not in verdicts
        assert main(["region", "--model", "flock", "--grid", "a:4:5:2", "b:2:2.5:2",
                     "--fixed", "n=64", "--out", "reg"]) == 0
        x, y, verdict = read_csv(in_tmp / "reg.csv")[1][:3]
        assert (float(x), float(y), verdict) == (4.0, 2.0, "marginal")

    def test_bad_mode_is_usage_error(self, capsys):
        assert main(["spectrum", "--model", "flock", "--a", "4", "--b", "2",
                     "--n", "10", "--m", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_nonpositive_alpha_is_usage_error(self, capsys):
        for model, m in (("flock", "1"), ("mill", "1"), ("mill", "3")):
            assert main(["spectrum", "--model", model, "--a", "4", "--b", "1.5",
                         "--n", "20", "--m", m, "--alpha", "-1", "--speed", "0.3"]) == 2
            assert capsys.readouterr().err.startswith(
                "error: need finite alpha > 0, got alpha=-1.0")


class TestRegion:
    def test_map_and_sidecar(self, in_tmp):
        assert main(["region", "--model", "flock",
                     "--grid", "a:3:7:3", "b:0.5:2.5:3",
                     "--fixed", "n=200", "m_max=20", "--out", "reg"]) == 0
        rows = read_csv(in_tmp / "reg.csv")
        assert len(rows) == 10
        sidecar = json.loads((in_tmp / "reg.json").read_text())
        assert sidecar["grid"]["x"]["name"] == "a"
        manifest = json.loads((in_tmp / "reg.manifest.json").read_text())
        assert sorted(manifest["outputs"]) == ["reg.csv", "reg.json"]
        assert manifest["parameters"]["workers"] == 1  # --workers is the only source

    def test_invalid_cells_reported_not_fatal(self, in_tmp):
        # b >= a cells are invalid rows, not errors
        assert main(["region", "--model", "flock",
                     "--grid", "a:1:2:2", "b:1.5:2.5:2",
                     "--fixed", "n=50", "m_max=5", "--out", "reg"]) == 0
        rows = read_csv(in_tmp / "reg.csv")
        verdicts = [r[2] for r in rows[1:]]
        assert verdicts.count("invalid") == 3

    def test_two_workers_write_the_csv_of_one(self, in_tmp):
        for workers in ("1", "2"):
            assert main(["region", "--model", "mill", "--grid", "a:1.5:7:6", "b:0.3:3:6",
                         "--fixed", "n=64", "speed=0.5", "--workers", workers,
                         "--out", f"w{workers}"]) == 0
        assert (in_tmp / "w1.csv").read_bytes() == (in_tmp / "w2.csv").read_bytes()
        sidecar = json.loads((in_tmp / "w2.json").read_text())["metadata"]
        assert sidecar["cells"] == 36 and sidecar["invalid_reasons"] == {"requires b < a": 4}

    def test_malformed_grid_axis(self, capsys):
        assert main(["region", "--model", "flock", "--grid", "a:3:7", "b:0.5:2.5:3"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_model_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["region", "--model", "blob", "--grid", "a:3:7:3", "b:0.5:2.5:3"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error:")



class TestSeparatrixAndGamma:
    def test_separatrix_csv(self, in_tmp):
        assert main(["separatrix", "--a-list", "3", "--n", "200", "--m-max", "40",
                     "--steps", "12", "--out", "sep"]) == 0
        rows = read_csv(in_tmp / "sep.csv")
        assert rows[0] == ["a", "b_boundary", "a_over_a_minus_1", "gap"]
        a, boundary, target, gap = (float(v) for v in rows[1])
        assert a == 3.0
        assert target == pytest.approx(1.5)
        assert 1.0 < boundary < target
        assert gap == pytest.approx(boundary - target, abs=1e-12)

    def test_gamma_sweep_csv(self, in_tmp):
        assert main(["gamma-sweep", "--a", "3", "--b", "2.5", "--n", "100",
                     "--m", "5", "--gamma-list", "0.5,1", "--out", "gam"]) == 0
        rows = read_csv(in_tmp / "gam.csv")
        assert rows[0] == ["gamma", "max_re"]
        assert [float(r[0]) for r in rows[1:]] == [0.5, 1.0]
        assert all(float(r[1]) > 0 for r in rows[1:])

    def test_empty_list_is_usage_error(self, capsys):
        assert main(["gamma-sweep", "--a", "3", "--b", "2.5", "--n", "100",
                     "--m", "5", "--gamma-list", ","]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_mode_below_one_is_usage_error(self, capsys):
        assert main(["gamma-sweep", "--a", "3", "--b", "2.5", "--n", "100",
                     "--m", "0", "--gamma-list", "1"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestSimulate:
    def test_metrics_and_manifest(self, in_tmp, capsys):
        cfg = sim_config(in_tmp)
        assert main(["simulate", "--config", str(cfg), "--out", "run"]) == 0
        rows = read_csv(in_tmp / "run_metrics.csv")
        assert rows[0] == ["t", "mu_rel", "eta_rel", "speed_dev",
                           "polarization", "angular_momentum"]
        assert len(rows) == 4  # t = 0, 1, 2 plus header
        manifest = json.loads((in_tmp / "run.manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["parameters"]["config"]["rtol"] == 1e-6
        assert manifest["outputs"] == ["run_metrics.csv"]

    def test_trajectory_output(self, in_tmp):
        cfg = sim_config(in_tmp)
        assert main(["simulate", "--config", str(cfg), "--out", "run", "--traj"]) == 0
        rows = read_csv(in_tmp / "run_trajectory.csv")
        assert rows[0] == ["t", "j", "x", "y", "vx", "vy"]
        assert len(rows) == 1 + 3 * 16  # 3 samples of 16 particles

    def test_manifest_parameters_reproduce_run(self, in_tmp):
        cfg = sim_config(in_tmp)
        assert main(["simulate", "--config", str(cfg), "--out", "one"]) == 0
        manifest = json.loads((in_tmp / "one.manifest.json").read_text())
        resolved = in_tmp / "resolved.json"
        resolved.write_text(json.dumps(manifest["parameters"]["config"]))
        assert main(["simulate", "--config", str(resolved), "--out", "two"]) == 0
        assert (in_tmp / "one_metrics.csv").read_bytes() == (
            in_tmp / "two_metrics.csv"
        ).read_bytes()

    def test_flag_overrides_config(self, in_tmp):
        cfg = sim_config(in_tmp)
        assert main(["simulate", "--config", str(cfg), "--t-final", "1.0",
                     "--out", "run"]) == 0
        rows = read_csv(in_tmp / "run_metrics.csv")
        assert len(rows) == 3
        manifest = json.loads((in_tmp / "run.manifest.json").read_text())
        assert manifest["parameters"]["config"]["t_final"] == 1.0

    def test_missing_config_usage_error(self, capsys):
        assert main(["simulate", "--config", "does_not_exist.json"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_json_usage_error(self, in_tmp, capsys):
        bad = in_tmp / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_guard_violation_exit_code(self, in_tmp, capsys):
        cfg = sim_config(in_tmp, min_distance_guard=10.0)
        assert main(["simulate", "--config", str(cfg), "--out", "run"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "guard" in err

    def test_morse_config_rejected(self, in_tmp, capsys):
        # a Morse ring needs an explicit radius bracket, which a config cannot
        # give, so configs take power laws only; Morse stays in `radius --morse`
        morse = {"kind": "morse", "C_A": 0.5, "C_R": 1.0, "l_A": 2.0, "l_R": 0.5}
        cfg = sim_config(in_tmp, potential=morse)
        for argv in (["simulate", "--config", str(cfg), "--out", "run"],
                     ["bifurcate", "--config", str(cfg), "--param", "speed",
                      "--values", "0.5", "--out", "sweep"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "unknown potential kind 'morse'" in err
        assert not (in_tmp / "run_metrics.csv").exists()
        assert not (in_tmp / "sweep.csv").exists()

    @pytest.mark.parametrize("key, value, needle", [
        ("min_distance_guard", -1.0, "min_distance_guard=-1.0"),
        ("min_distance_guard", float("nan"), "min_distance_guard=nan"),
        ("min_distance_guard", True, "min_distance_guard=True"),
        ("min_distance_guard", float("inf"), "min_distance_guard=inf"),
        ("t_final", float("inf"), "t_final=inf"),
        ("sample_every", float("inf"), "sample_every=inf"),
        ("rtol", float("inf"), "rtol=inf"),
        ("atol", float("inf"), "atol=inf"),
        ("n", 20.7, "n=20.7"),
        ("propulsion", {"alpha": float("inf"), "beta": 4.0}, "alpha=inf"),
        ("ic", {"kind": "flock", "perturbation": {"kind": "noise", "sigma_pos": float("nan")}},
         "sigma_pos=nan"),
        ("ic", {"kind": "flock", "perturbation": {"kind": "mode", "m": 2.5, "xi_plus": 1e-3}},
         "m=2.5"),
        ("ic", {"kind": "mill", "orientation": 1.7}, "orientation=1.7"),
        ("ic", {"kind": "mill", "orientation": True}, "orientation=True"),
        ("seed", 2.7, "seed=2.7"),
        ("seed", True, "seed=True"),
        ("t_final", True, "t_final=True"),
        ("t_final", "1.5", "t_final='1.5'"),
        ("rtol", "1e-6", "rtol='1e-6'"),
        ("propulsion", {"alpha": True, "beta": 4.0}, "alpha=True"),
        ("potential", {"kind": "power-law", "a": True, "b": 0.5}, "a=True"),
        ("ic", {"kind": "flock", "perturbation": {"kind": "noise", "sigma_pos": True}},
         "sigma_pos=True"),
        ("ic", {"kind": "flock", "speed": True}, "speed=True"),
        ("ic", {"kind": "flock", "direction": [True, False]}, "direction[0]=True"),
        ("ic", {"kind": "flock", "perturbation": {"kind": "mode", "m": 3, "xi_plus": True}},
         "xi_plus=True"),
        ("ic", {"kind": "flock", "direction": [1.0]}, "direction=[1.0]"),
    ])
    def test_bad_config_value_is_usage_error(self, key, value, needle, in_tmp, capsys):
        # each used to run: a guard of -1, NaN or true turned into no guard
        # or a guard of 1, sample_every inf gave exit 0, an infinite guard or
        # t_final exit 3, and an infinite rtol stepped forever; n 20.7 ran
        # n = 20 and mode 2.5 ran mode 2, an infinite alpha was exit 3 and a
        # NaN sigma exit 2 with a message that named neither; orientation
        # 1.7 or true ran a counter-clockwise mill; seed 2.7 ran seed 2, a
        # true seed, t_final, alpha, a, sigma_pos, speed or direction entry
        # ran as 1 (xi_plus too), string numbers were parsed, and a
        # one-entry direction drifted diagonally
        cfg = sim_config(in_tmp, **{key: value})
        assert main(["simulate", "--config", str(cfg), "--out", "run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and needle in err
        assert [p.name for p in in_tmp.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("kind, key, value, other", [
        ("mill", "direction", [0.0, 1.0], "flock"),
        ("flock", "orientation", -1, "mill"),
    ])
    def test_ic_key_the_ring_kind_ignores_rejected(self, kind, key, value, other, in_tmp,
                                                   capsys):
        # both used to exit 0 and run the default, while the manifest
        # recorded the ignored key; the ring kind that reads the key runs
        cfg = sim_config(in_tmp, ic={"kind": kind, key: value})
        assert main(["simulate", "--config", str(cfg), "--out", "run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"ic.{key}" in err
        assert [p.name for p in in_tmp.iterdir()] == ["config.json"]
        cfg = sim_config(in_tmp, ic={"kind": other, key: value})
        assert main(["simulate", "--config", str(cfg), "--out", "run"]) == 0

    def test_deterministic_metrics_bytes(self, in_tmp):
        cfg = sim_config(in_tmp, ic={"kind": "mill",
                                     "perturbation": {"kind": "noise",
                                                      "sigma_pos": 1e-3,
                                                      "sigma_vel": 1e-3}})
        assert main(["simulate", "--config", str(cfg), "--out", "one"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", "two"]) == 0
        assert (in_tmp / "one_metrics.csv").read_bytes() == (
            in_tmp / "two_metrics.csv"
        ).read_bytes()


class TestBifurcate:
    def test_sweep_csv(self, in_tmp):
        cfg = sim_config(in_tmp, ic={"kind": "flock"})
        assert main(["bifurcate", "--config", str(cfg), "--param", "b",
                     "--values", "1.2,1.5", "--metric", "fatten",
                     "--out", "bif"]) == 0
        rows = read_csv(in_tmp / "bif.csv")
        assert rows[0] == ["value", "metric"]
        assert [float(r[0]) for r in rows[1:]] == [1.2, 1.5]
        manifest = json.loads((in_tmp / "bif.manifest.json").read_text())
        assert manifest["parameters"]["seed_policy"] == "base_seed + value_index"

    def test_workers_below_one_is_usage_error(self, in_tmp, capsys):
        cfg = sim_config(in_tmp, ic={"kind": "flock"})
        assert main(["bifurcate", "--config", str(cfg), "--param", "b",
                     "--values", "1.2,1.5", "--workers", "0", "--out", "bif"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "workers=0" in err
        assert sorted(p.name for p in in_tmp.iterdir()) == ["config.json"]

    def test_bad_param_rejected(self, capsys, in_tmp):
        cfg = sim_config(in_tmp)
        with pytest.raises(SystemExit) as exc:
            main(["bifurcate", "--config", str(cfg), "--param", "gamma",
                  "--values", "1.0"])
        assert exc.value.code == 2


    def test_bool_ic_speed_is_usage_error(self, in_tmp, capsys):
        # a true ic.speed used to start every member at speed 1
        cfg = sim_config(in_tmp, ic={"kind": "flock", "speed": True})
        assert main(["bifurcate", "--config", str(cfg), "--param", "b",
                     "--values", "1.2,1.5", "--out", "bif"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ic_speed=True" in err
        assert not (in_tmp / "bif.csv").exists()

    @pytest.mark.parametrize("key, value", [("orientation", -1), ("direction", [0.0, 1.0])])
    def test_ic_keys_the_sweep_cannot_honour_rejected(self, key, value, in_tmp, capsys):
        cfg = sim_config(in_tmp, ic={"kind": "mill", key: value})
        assert main(["bifurcate", "--config", str(cfg), "--param", "b",
                     "--values", "1.25", "--out", "bif"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"ic.{key}" in err
        assert not (in_tmp / "bif.csv").exists()


class TestValidateAndGlobal:
    def test_validate_all_pass(self, in_tmp, capsys):
        assert main(["validate", "--out", "val"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        assert all(line.startswith("PASS") for line in lines)
        manifest = json.loads((in_tmp / "val.manifest.json").read_text())
        assert manifest["parameters"]["failures"] == 0

    def test_unknown_flag_single_line_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--bogus", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("swarmlab ")

    def test_csv_uses_lf_line_endings(self, in_tmp):
        assert main(["gamma-sweep", "--a", "3", "--b", "2.5", "--n", "50",
                     "--m", "3", "--gamma-list", "1", "--out", "gam"]) == 0
        raw = (in_tmp / "gam.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


GRID = ["--grid", "a:3:7:3", "b:0.5:2.5:3"]
SPEED_GRID = ["--grid", "speed:0:1:3", "b:0.5:2:3"]


# one bad input per row: exit 2, one ``error:`` line naming the fault, no files
@pytest.mark.parametrize("argv, needle", [
    pytest.param(["separatrix", "--a-list", "3", "--n", "2"], "m_max", id="separatrix-n2"),
    pytest.param(["gamma-sweep", "--a", "3", "--b", "2.5", "--n", "2", "--m", "3",
                  "--gamma-list", "1"], "n >= 3", id="gamma-sweep-n2"),
    pytest.param(["region", "--model", "speed-b", *SPEED_GRID, "--fixed", "n=50"],
                 "missing key 'a'", id="speed-b-without-a"),
    pytest.param(["radius", "--morse", "0.5", "1.0", "2.0", "0.5", "--n", "60",
                  "--speed", "0.3"], "explicit bracket", id="morse-without-bracket"),
    pytest.param(["separatrix", "--a-list", "3", "--n", "50", "--m-max", "1"], "m_max",
                 id="separatrix-m_max1"),
    pytest.param(["separatrix", "--a-list", "3,1.0", "--n", "50"], "a > 1",
                 id="separatrix-a1"),
    pytest.param(["separatrix", "--a-list", "3", "--n", "50", "--steps", "-5"], "steps >= 0",
                 id="separatrix-negative-steps"),
    pytest.param(["region", "--model", "flock", *GRID, "--fixed", "n=50", "m_max=1"],
                 "m_max", id="flock-m_max1"),
    pytest.param(["region", "--model", "flock-cs", *GRID, "--fixed", "n=50", "m_max=1"],
                 "m_max", id="flock-cs-m_max1"),
    pytest.param(["region", "--model", "mill", *GRID, "--fixed", "n=50", "m_max=1",
                  "speed=0.5"], "m_max", id="mill-m_max1"),
    pytest.param(["region", "--model", "speed-b", *SPEED_GRID, "--fixed", "n=50", "a=3",
                  "m_max=1"], "m_max", id="speed-b-m_max1"),
    pytest.param(["spectrum", "--model", "flock", "--a", "4", "--b", "2", "--n", "50",
                  "--m", "3", "--m-max", "7"], "--m-max", id="spectrum-m-and-m_max"),
    pytest.param(["radius", "--a", "4", "--b", "2", "--morse", "0.5", "1.0", "2.0", "0.5",
                  "--n", "60", "--bracket", "0.1", "10"], "--morse", id="radius-powerlaw-and-morse"),
    pytest.param(["region", "--model", "flock", *GRID, "--fixed", "n=50", "speeed=0.5"],
                 "speeed", id="region-unknown-fixed-key"),
    pytest.param(["region", "--model", "flock", *GRID, "--fixed", "n=50", "alpha=-1"],
                 "need finite alpha > 0, got alpha=-1.0", id="flock-negative-alpha"),
    pytest.param(["region", "--model", "flock-cs", *GRID, "--fixed", "n=50", "gamma=-1"],
                 "need finite gamma > 0, got gamma=-1.0", id="flock-cs-negative-gamma"),
    pytest.param(["region", "--model", "flock-cs", *GRID, "--fixed", "n=50", "gamma=inf"],
                 "gamma=inf", id="flock-cs-infinite-gamma"),
    pytest.param(["radius", "--a", "inf", "--b", "1", "--n", "10"], "a=inf",
                 id="radius-infinite-a"),
    pytest.param(["region", "--model", "mill", *GRID, "--fixed", "n=20", "speed=nan"],
                 "need finite speed >= 0, got speed=nan", id="mill-nan-speed"),
    pytest.param(["region", "--model", "mill", *GRID, "--fixed", "n=20", "speed=0.5",
                  "--workers", "-5"], "need an integer workers >= 1, got workers=-5",
                 id="region-negative-workers"),
    pytest.param(["radius", "--a", "4", "--b", "2", "--n", "20", "--speed", "inf"], "speed=inf",
                 id="radius-infinite-speed"),
    pytest.param(["radius", "--a", "4", "--b", "2", "--n", "20", "--speed", "nan"], "speed=nan",
                 id="radius-nan-speed"),
    pytest.param(["spectrum", "--model", "mill", "--a", "4", "--b", "2", "--n", "20",
                  "--speed", "inf"], "speed=inf", id="spectrum-mill-infinite-speed"),
    pytest.param(["spectrum", "--model", "flock", "--a", "4", "--b", "2", "--n", "20",
                  "--alpha", "inf"], "alpha=inf", id="spectrum-flock-infinite-alpha"),
    pytest.param(["spectrum", "--model", "flock-cs", "--a", "4", "--b", "2", "--n", "20",
                  "--gamma", "inf"], "gamma=inf", id="spectrum-flock-cs-infinite-gamma"),
    pytest.param(["radius", "--morse", "inf", "1", "2", "0.5", "--n", "100",
                  "--bracket", "0.1", "10"], "C_A=inf", id="radius-morse-infinite-C_A"),
    # printed R=inf residual=nan and exited 0
    pytest.param(["radius", "--a", "4", "--b", "2", "--n", "20", "--bracket", "0.1", "inf"],
                 "hi=inf", id="radius-infinite-bracket"),
    # scanned NaN and infinite cells, marked them invalid and exited 0
    pytest.param(["region", "--model", "flock", "--grid", "a:3:inf:3", "b:0.5:2.5:3",
                  "--fixed", "n=50"], "x_max=inf", id="region-infinite-grid-bound"),
    # modes n - 1 and n fold onto the translation and the uniform mode
    *(pytest.param([arg.format(m_max) for arg in argv],
                   f"m_max <= n - 2, got m_max={m_max} for n=10", id=f"{label}-m_max{m_max}")
      for m_max in (9, 12)
      for label, argv in (
          ("region", ["region", "--model", "flock", "--grid", "a:4:5:2", "b:1.5:2:2",
                      "--fixed", "n=10", "m_max={}"]),
          ("separatrix", ["separatrix", "--a-list", "3", "--n", "10", "--m-max", "{}"]),
          ("spectrum", ["spectrum", "--model", "flock", "--a", "4", "--b", "1.5", "--n", "10",
                        "--m-max", "{}"]),
          ("spectrum-m", ["spectrum", "--model", "flock", "--a", "4", "--b", "1.5", "--n", "10",
                          "--m", "{}"]),
      )),
])
def test_usage_error_exit_code(argv, needle, in_tmp, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err
    assert list(in_tmp.iterdir()) == []
