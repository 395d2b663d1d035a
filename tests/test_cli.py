"""End-to-end tests of the command line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

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
        assert lines[0].startswith("sigma,translation_rmse")
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
            assert lines[1 + idx].split(",")[1:3] == [
                repr(ev.translation_rmse), repr(ev.rotation_rmse)]


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
        proc = subprocess.run([sys.executable, "-m", "rigidloc.cli",
                               "validate", str(config_path)],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert "ok:" in proc.stdout
