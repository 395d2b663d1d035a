"""End-to-end tests of the command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rigidloc
from rigidloc.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from rigidloc.geometry import Conformation
from rigidloc.measurement import AnchorSet, PartialEdm
from rigidloc.placement import evaluate_placement


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "scenario": "rmse_vs_sensors",
        "sigma_list": [0.0, 0.1],
        "sensor_counts": [4, 6],
        "trials": 4,
        "master_seed": 5,
    }))
    return path


def squared_edm(points):
    diff = points[:, None, :] - points[None, :, :]
    return (diff**2).sum(axis=2)


def write_partial_csvs(tmp_path, mask_pairs):
    rng = np.random.default_rng(17)
    pts = rng.uniform(-4, 4, (8, 3))
    sq = squared_edm(pts)
    mask = np.ones_like(sq, dtype=bool)
    for i, j in mask_pairs:
        mask[i, j] = mask[j, i] = False
    partial = PartialEdm(np.where(mask, sq, np.nan), mask, dim=3)
    partial.to_csv(tmp_path / "values.csv", tmp_path / "mask.csv")
    return sq, mask


class TestRun:
    def test_csv_output(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out-dir", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out.strip()
        assert str(out / "results.csv") in printed
        lines = (out / "results.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 4  # header + 2 sigmas x 2 sensor counts

    def test_json_output(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--format", "json",
                     "--out-dir", str(out)]) == EXIT_OK
        parsed = json.loads((out / "results.json").read_text())
        assert len(parsed["rows"]) == 4

    def test_plot_data_output(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--format", "plot-data",
                     "--out-dir", str(out)]) == EXIT_OK
        assert (out / "plot_translation_rmse.csv").exists()
        assert (out / "plot_rotation_rmse.csv").exists()

    def test_seed_override_changes_noisy_rows(self, config_path, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        main(["run", str(config_path), "--out-dir", str(a_dir)])
        main(["run", str(config_path), "--seed", "99", "--out-dir", str(b_dir)])
        a = (a_dir / "results.csv").read_text()
        b = (b_dir / "results.csv").read_text()
        assert a != b

    def test_trials_override(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["run", str(config_path), "--trials", "2", "--out-dir", str(out)])
        first_row = (out / "results.csv").read_text().strip().split("\n")[1]
        assert first_row.endswith(",2")  # trials column is last

    def test_missing_config(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == EXIT_CONFIG

    def test_invalid_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"scenario": "rmse_vs_sensors", "trials": -3}')
        assert main(["run", str(bad)]) == EXIT_CONFIG


class TestValidate:
    def test_ok(self, config_path, capsys):
        assert main(["validate", str(config_path)]) == EXIT_OK
        assert "ok:" in capsys.readouterr().out

    def test_broken_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("entries, message", [
        ({"sensor_counts": [4, 25]}, "box-vehicle supports 1..20 nodes in 3D"),
        ({"anchor_count": 30}, "cube layout supports 1..20 anchors in 3D"),
    ], ids=["sensor_counts", "anchor_count"])
    def test_built_in_layout_too_small(self, tmp_path, capsys, entries, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenario": "rmse_vs_sensors", "trials": 2,
                                   **entries}))
        assert main(["validate", str(bad)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["run", str(bad), "--out-dir", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entries, key", [
        ({"sensor_counts": [4.5, 6.9]}, "sensor_counts"),
        ({"sensor_counts": [4, "6"]}, "sensor_counts"),
        ({"sigma_list": ["0.1"]}, "sigma_list"),
        ({"missing_fraction": ["0.1"]}, "missing_fraction"),
        ({"anchor_span": "60"}, "anchor_span"),
        ({"sigma_list": [True]}, "sigma_list"),
        ({"trials": True}, "trials"),
        ({"master_seed": True}, "master_seed"),
        ({"anchor_count": True}, "anchor_count"),
        ({"estimator": {"weighted": "false"}}, "weighted"),
    ], ids=["fractional_count", "string_count", "string_sigma", "string_fraction",
            "string_span", "bool_sigma", "bool_trials", "bool_seed",
            "bool_anchor_count", "string_weighted"])
    def test_value_of_the_wrong_type(self, tmp_path, capsys, entries, key):
        """A value JSON gives with the wrong type is an error naming its key,
        not a number or a switch made from it."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenario": "rmse_vs_sensors", "trials": 2,
                                   **entries}))
        assert main(["validate", str(bad)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("entries, message", [
        ({"master_seed": -1}, "master_seed must be a non-negative integer"),
        ({"sigma_list": [float("inf")]}, "sigma_list entries must be non-negative and finite"),
    ], ids=["negative_seed", "infinite_sigma"])
    def test_value_out_of_range(self, tmp_path, capsys, entries, message):
        """A value out of its key's range is a config error naming the key
        in every command, not a runtime failure once the trials run."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenario": "rmse_vs_sensors", "trials": 2,
                                   **entries}))
        out = tmp_path / "out"
        for command in ("validate", "run", "placement"):
            extra = [] if command == "validate" else ["--out-dir", str(out)]
            assert main([command, str(bad), *extra]) == EXIT_CONFIG
            assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "placement"])
    def test_negative_seed_override(self, config_path, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, str(config_path), "--seed", "-5",
                     "--out-dir", str(out)]) == EXIT_CONFIG
        assert "master_seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("body, message", [
        ("four_nodes.json", "conformation file has 4 nodes; cannot take 6"),
        ("absent.json", "absent.json"),
    ], ids=["too_few_nodes", "missing_file"])
    def test_conformation_file_checked(self, tmp_path, capsys, body, message):
        (tmp_path / "four_nodes.json").write_text(Conformation(
            [[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 2.0, 0.0],
             [0.0, 0.0, 1.0]]).to_json())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenario": "rmse_vs_sensors", "trials": 2,
                                   "conformation": f"file:{tmp_path / body}",
                                   "sensor_counts": [4, 6]}))
        assert main(["validate", str(bad)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["run", str(bad), "--out-dir", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unread_anchor_file_not_checked(self, tmp_path):
        # the anchorless scenario reads no anchors, so neither command does
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "anchorless_two_body",
                                   "trials": 2, "sensor_counts": [4],
                                   "sigma_list": [0.0],
                                   "anchors": f"file:{tmp_path / 'absent.json'}"}))
        assert main(["validate", str(cfg)]) == EXIT_OK
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_OK


class TestPlacement:
    def test_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "place.json"
        cfg.write_text(json.dumps({
            "scenario": "placement_study",
            "sigma_list": [0.1],
            "sensor_counts": [5],
            "trials": 10,
            "anchor_count": 6,
        }))
        out = tmp_path / "out"
        assert main(["placement", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        placement = json.loads((out / "placement.json").read_text())
        assert np.isclose(placement["frame_potential"], 36.0 / 3.0, atol=1e-3)
        assert len(placement["positions"]) == 6
        lines = (out / "placement_eval.csv").read_text().strip().split("\n")
        assert lines[0] == ("sigma,translation_rmse,rotation_rmse,translation_se,"
                            "rotation_se,failures,trials")
        assert len(lines) == 2

    def test_scores_the_configured_conformation(self, tmp_path, capsys):
        body = Conformation([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 2.0, 0.0],
                             [0.0, 0.0, 1.0], [3.0, 2.0, 1.0]])
        (tmp_path / "body.json").write_text(body.to_json())
        cfg = tmp_path / "place.json"
        cfg.write_text(json.dumps({
            "scenario": "placement_study",
            "conformation": f"file:{tmp_path / 'body.json'}",
            "sigma_list": [0.05, 0.1],
            "sensor_counts": [4],
            "trials": 10,
            "master_seed": 2,
        }))
        out = tmp_path / "out"
        assert main(["placement", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        placement = json.loads((out / "placement.json").read_text())
        anchors = AnchorSet(np.array(placement["positions"]))
        lines = (out / "placement_eval.csv").read_text().strip().split("\n")
        for idx, sigma in enumerate((0.05, 0.1)):
            ev = evaluate_placement(anchors, Conformation(body.coords[:4]), sigma,
                                    10, seed=(2, idx))
            assert lines[1 + idx] == (
                f"{sigma!r},{ev.translation_rmse!r},{ev.rotation_rmse!r},"
                f"{ev.translation_se!r},{ev.rotation_se!r},{ev.failures},{ev.trials}")


    @pytest.mark.parametrize("scenario", ["placement_study", "rmse_vs_sensors"])
    def test_unweighted_estimator_is_a_config_error(self, tmp_path, capsys, scenario):
        """Placement scoring runs the weighted estimator only, so a config
        asking for uniform weights is refused rather than ignored."""
        cfg = tmp_path / "place.json"
        cfg.write_text(json.dumps({
            "scenario": scenario,
            "sigma_list": [0.1],
            "sensor_counts": [5],
            "trials": 10,
            "estimator": {"weighted": False},
        }))
        out = tmp_path / "out"
        assert main(["placement", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
        assert "weighted" in capsys.readouterr().err
        assert not out.exists()


class TestComplete:
    def test_csv_round_trip(self, tmp_path, capsys):
        sq, mask = write_partial_csvs(tmp_path, [(0, 4), (2, 6)])
        out = tmp_path / "out"
        code = main(["complete", str(tmp_path / "values.csv"),
                     str(tmp_path / "mask.csv"), "--num-anchors", "4",
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        completed = np.loadtxt(out / "completed.csv", delimiter=",")
        assert np.abs(completed - sq).max() < 1e-4 * sq.max()
        assert "converged=True" in capsys.readouterr().out

    def test_json_output(self, tmp_path):
        write_partial_csvs(tmp_path, [(1, 5)])
        out = tmp_path / "out"
        code = main(["complete", str(tmp_path / "values.csv"),
                     str(tmp_path / "mask.csv"), "--format", "json",
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        back = PartialEdm.from_json((out / "completed.json").read_text(), dim=3)
        assert back.mask.all()

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["complete", str(tmp_path / "nope.csv"),
                     str(tmp_path / "nope_mask.csv")]) == EXIT_CONFIG

    def test_stalled_completion_is_runtime_error(self, tmp_path, capsys):
        rng = np.random.default_rng(18)
        pts = rng.uniform(-4, 4, (8, 3))
        sq = squared_edm(pts)
        sq[1, 2] = sq[2, 1] = 1e4  # inconsistent with any geometry
        mask = np.ones_like(sq, dtype=bool)
        mask[0, 5] = mask[5, 0] = False
        partial = PartialEdm(np.where(mask, sq, np.nan), mask, dim=3)
        partial.to_csv(tmp_path / "values.csv", tmp_path / "mask.csv")
        code = main(["complete", str(tmp_path / "values.csv"),
                     str(tmp_path / "mask.csv"), "--out-dir", str(tmp_path)])
        assert code == EXIT_RUNTIME
        assert "converged=False" in capsys.readouterr().out


class TestConsoleScript:
    def test_installed_entry_point(self, config_path):
        # the child imports the package the tests import, installed or not
        src = str(Path(rigidloc.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "rigidloc.cli",
                               "validate", str(config_path)],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == EXIT_OK
        assert "ok:" in proc.stdout
