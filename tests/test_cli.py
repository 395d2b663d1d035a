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
from rigidloc.geometry import Conformation, Pose, apply_pose, rotation_about_axis
from rigidloc.harness import box_vehicle_conformation, cube_anchor_layout
from rigidloc.measurement import (
    AnchorSet,
    MaskedRangeMatrix,
    PartialEdm,
    assemble_partial_edm,
)
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
        pytest.param({"anchor_span": 1e160}, "anchor_span 1e+160",
                     marks=pytest.mark.filterwarnings("error")),
    ], ids=["negative_seed", "infinite_sigma", "overflowing_span"])
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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_span_with_file_anchors(self, tmp_path, capsys):
        """``rigidloc placement`` places ``anchor_count`` anchors on a
        sphere of diameter ``anchor_span`` whatever the anchor source, so a
        span whose squared distances overflow names its key for file
        anchors too, before anything is written; their count is not held
        to the cube layout's 1..20."""
        anchors = tmp_path / "anchors.json"
        anchors.write_text(json.dumps({"positions": (30.0 * np.eye(4, 3)
                                                     - 5.0).tolist()}))
        config = {"scenario": "rmse_vs_sensors", "trials": 2, "sensor_counts": [4],
                  "sigma_list": [0.1], "anchors": f"file:{anchors}", "anchor_count": 30}
        good = tmp_path / "good.json"
        good.write_text(json.dumps(config))
        assert main(["validate", str(good)]) == EXIT_OK
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**config, "anchor_span": 1e160}))
        out = tmp_path / "out"
        for command in ("validate", "run", "placement"):
            extra = [] if command == "validate" else ["--out-dir", str(out)]
            assert main([command, str(bad), *extra]) == EXIT_CONFIG
            assert ("anchor_span 1e+160: anchor positions are too far apart"
                    in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("source", ["box-vehicle", "file"])
    def test_span_too_wide_to_resolve_the_body(self, tmp_path, capsys, source):
        """One rounding unit of a range as long as ``anchor_span`` must stay
        below the smallest internode distance of the largest body (1.5 m for
        the 8-node box, 1 m for the file body here): 1e15 runs, while 1e16
        and 5e153 (whose squares do not overflow) are config errors naming
        the key in every command, before anything is written."""
        body = tmp_path / "body.json"
        body.write_text(Conformation([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                      [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]).to_json())
        config = {"scenario": "rmse_vs_sensors", "trials": 2, "sigma_list": [0.0],
                  "sensor_counts": [4, 8]}
        if source == "file":
            config.update(conformation=f"file:{body}", sensor_counts=[4])
        good = tmp_path / "good.json"
        good.write_text(json.dumps({**config, "anchor_span": 1e15}))
        assert main(["validate", str(good)]) == EXIT_OK
        assert main(["run", str(good), "--out-dir", str(tmp_path / "ok")]) == EXIT_OK
        for span in (1e16, 5e153):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({**config, "anchor_span": span}))
            out = tmp_path / "out"
            for command in ("validate", "run", "placement"):
                extra = [] if command == "validate" else ["--out-dir", str(out)]
                assert main([command, str(bad), *extra]) == EXIT_CONFIG
                assert f"anchor_span {span!r}:" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_span_is_checked_at_the_nodes_a_command_resolves(self, tmp_path, capsys):
        """``placement_study`` and ``rigidloc placement`` score the first
        ``sensor_counts`` body only: at 5e15 the 4-node box resolves (up to
        about 8e15) while the 20-node one (3.4e15) does not, so both
        commands run; a sweep over both sizes is a config error naming the
        key, before anything is written."""
        config = {"scenario": "placement_study", "trials": 2, "sigma_list": [0.0],
                  "sensor_counts": [4, 20], "anchor_span": 5e15}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["validate", str(path)]) == EXIT_OK
        assert main(["placement", str(path), "--out-dir", str(tmp_path / "placed")]) == EXIT_OK
        path.write_text(json.dumps({**config, "scenario": "rmse_vs_sensors"}))
        out = tmp_path / "out"
        for command in ("validate", "run"):
            extra = [] if command == "validate" else ["--out-dir", str(out)]
            assert main([command, str(path), *extra]) == EXIT_CONFIG
            assert "anchor_span 5000000000000000.0:" in capsys.readouterr().err
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

    @pytest.mark.filterwarnings("error")
    def test_conformation_file_whose_distances_overflow(self, tmp_path, capsys):
        """A file body is read when a command runs, so an unusable one
        fails both commands at run time with the reason."""
        body = tmp_path / "huge.json"
        body.write_text(json.dumps({"coords": (1e160 * np.eye(3)).tolist()}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenario": "rmse_vs_sensors", "trials": 2,
                                   "conformation": f"file:{body}", "sensor_counts": [3]}))
        message = "coords are too far apart: their squared distances overflow"
        assert main(["validate", str(bad)]) == EXIT_RUNTIME
        assert message in capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["run", str(bad), "--out-dir", str(out)]) == EXIT_RUNTIME
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source, key", [("anchors", "positions"),
                                             ("conformation", "coords")])
    @pytest.mark.parametrize("text, reason", [
        ('{"labels": []}', "missing key"),
        ("[[0.0, 0.0, 0.0]]", "list indices"),
        ('{"coords": [[0.0, 0.0, 0.0]\n', "Expecting"),
        (b'\xff{"coords": []}', "'utf-8' codec can't decode byte 0xff"),
        ('{"positions": [[0, 0, "x"], [1, 0, 0]], "coords": [[0, 0, "x"], [1, 0, 0]]}',
         "could not convert string to float"),
    ], ids=["no_key", "list", "truncated", "not_utf8", "not_a_number"])
    def test_malformed_source_file_names_itself(self, tmp_path, capsys, source, key,
                                                text, reason):
        """An anchor or body file that is not UTF-8 JSON, not an object with
        its key, or whose coordinates are not numbers, fails both commands
        at run time with the file, the key and the reason."""
        path = tmp_path / "source.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenario": "rmse_vs_sensors", "trials": 2,
                                   source: f"file:{path}", "sensor_counts": [3]}))
        out = tmp_path / "out"
        for command in ("validate", "run"):
            extra = [] if command == "validate" else ["--out-dir", str(out)]
            assert main([command, str(bad), *extra]) == EXIT_RUNTIME
            err = capsys.readouterr().err
            assert str(path) in err and repr(key) in err and reason in err
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
        asking for uniform weights is refused rather than ignored, as it is
        by every command for the scenarios where it has no effect."""
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
        cfg.write_text(json.dumps({"scenario": "motion_tracking", "trials": 2,
                                   "estimator": {"weighted": False}}))
        assert main(["validate", str(cfg)]) == EXIT_CONFIG
        assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
        assert "placement_study and motion_tracking" in capsys.readouterr().err
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

    @pytest.mark.parametrize("node_3_ranged", [False, True])
    def test_mirror_tie_warns(self, tmp_path, capsys, node_3_ranged):
        """Cross ranges of box nodes 0-2 alone cannot tell the body from its
        mirror image: the completion runs and exits as before, with a
        warning on stderr. A range of node 3, off their plane, decides."""
        anchors, conf = cube_anchor_layout(8), box_vehicle_conformation(8)
        body = apply_pose(conf, Pose(rotation_about_axis([1.0, 2.0, 3.0], 0.7),
                                     np.array([1.0, -2.0, 0.5])))
        mask = np.zeros((8, 8), dtype=bool)
        mask[:, :3] = True
        mask[0, 3] = node_3_ranged
        d = np.sqrt(squared_edm(np.vstack([anchors.positions, body.positions]))[:8, 8:])
        partial = assemble_partial_edm(anchors, conf,
                                       MaskedRangeMatrix(np.where(mask, d, np.nan), mask))
        partial.to_csv(tmp_path / "values.csv", tmp_path / "mask.csv")
        code = main(["complete", str(tmp_path / "values.csv"), str(tmp_path / "mask.csv"),
                     "--num-anchors", "8", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "converged=True" in captured.out
        assert ("mirror" in captured.err) != node_3_ranged

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
