"""Tests for experiment configuration, the runner and result emission."""

import json

import numpy as np
import pytest

from rigidloc import placement
from rigidloc.geometry import Conformation
from rigidloc.harness import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    ResultTable,
    box_vehicle_conformation,
    cube_anchor_layout,
    emit_results,
    load_config,
    run_experiment,
    save_config,
)


def write_config(tmp_path, name="cfg.json", **overrides):
    body = {"scenario": "rmse_vs_sensors"}
    body.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return path


class TestBuiltinLayouts:
    def test_box_vehicle_nested_subsets(self):
        big = box_vehicle_conformation(10, dim=3)
        small = box_vehicle_conformation(4, dim=3)
        assert np.array_equal(big.coords[:4], small.coords)

    def test_box_vehicle_extents(self):
        conf = box_vehicle_conformation(20, dim=3)
        spans = conf.coords.max(axis=0) - conf.coords.min(axis=0)
        assert np.allclose(spans, [4.5, 1.8, 1.5])

    def test_four_nodes_span_3d(self):
        assert box_vehicle_conformation(4, dim=3).spans_space()

    def test_two_nodes_distinct(self):
        conf = box_vehicle_conformation(2, dim=3)
        assert np.linalg.norm(conf.coords[0] - conf.coords[1]) > 0.1

    def test_node_count_limits(self):
        with pytest.raises(ValueError):
            box_vehicle_conformation(21, dim=3)
        with pytest.raises(ValueError):
            box_vehicle_conformation(0, dim=3)

    def test_cube_anchor_layout(self):
        anchors = cube_anchor_layout(8, dim=3, span=60.0)
        assert anchors.positions.shape == (8, 3)
        assert np.allclose(np.abs(anchors.positions), 30.0)
        four = cube_anchor_layout(4, dim=3, span=60.0)
        assert np.array_equal(anchors.positions[:4], four.positions)


class TestConfig:
    def test_minimal_file_gets_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.scenario == "rmse_vs_sensors"
        assert cfg.dim == 3
        assert cfg.trials == 100
        assert cfg.master_seed == 0
        assert cfg.anchor_count == 8
        assert cfg.anchor_span == 60.0
        assert cfg.sigma_list == (0.01, 0.05, 0.1, 0.5)
        assert cfg.sensor_counts == (2, 4, 6, 8, 10)
        assert cfg.estimator == {"weighted": True}

    def test_single_sensor_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="sensor_counts"):
            load_config(write_config(tmp_path, sensor_counts=[1]))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="nonsense"):
            load_config(write_config(tmp_path, nonsense=1))

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="scenario"):
            load_config(write_config(tmp_path, scenario="warp_drive"))

    def test_zero_trials_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="trials"):
            load_config(write_config(tmp_path, trials=0))

    def test_empty_sigma_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="sigma_list"):
            load_config(write_config(tmp_path, sigma_list=[]))

    def test_negative_sigma_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="sigma_list"):
            load_config(write_config(tmp_path, sigma_list=[-0.1]))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"scenario": "rmse_vs_sensors",\n  "trials": }\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.json")

    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path, trials=7, sigma_list=[0.1],
                                       sensor_counts=[4, 6], master_seed=11))
        out = tmp_path / "saved.json"
        save_config(cfg, out)
        assert load_config(out) == cfg

    def test_scalar_missing_fraction_normalized(self, tmp_path):
        cfg = load_config(write_config(tmp_path, scenario="completion_benchmark",
                                       missing_fraction=0.2))
        assert cfg.missing_fraction == (0.2,)

    def test_conformation_file_source(self, tmp_path):
        conf = Conformation([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                             [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                             [1.0, 1.0, 1.0], [2.0, 1.0, 0.0]])
        conf_path = tmp_path / "body.json"
        conf_path.write_text(conf.to_json())
        cfg = load_config(write_config(
            tmp_path, conformation=f"file:{conf_path}",
            sigma_list=[0.0], sensor_counts=[6], trials=3))
        table = run_experiment(cfg)
        assert all(row.translation_rmse < 1e-6 for row in table.rows)


def tiny_config(**overrides):
    base = dict(scenario="rmse_vs_sensors", sigma_list=[0.0],
                sensor_counts=[4, 6], trials=5, master_seed=3)
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestRunExperiment:
    def test_noiseless_rows_exact(self):
        table = run_experiment(tiny_config())
        assert len(table.rows) == 2
        for row in table.rows:
            assert row.translation_rmse < 1e-6
            assert row.rotation_rmse < 1e-6
            assert row.failures == 0
            assert row.trials == 5
            assert row.wall_time_s >= 0.0

    def test_sigma_scaling_locally_linear(self):
        """Halving sigma roughly halves the RMSE for K >= 4."""
        cfg = tiny_config(scenario="rmse_vs_noise", sigma_list=[0.05, 0.1],
                          sensor_counts=[6], trials=400)
        table = run_experiment(cfg)
        rmse = {row.params["sigma"]: row.translation_rmse for row in table.rows}
        ratio = rmse[0.1] / rmse[0.05]
        assert 1.6 <= ratio <= 2.4

    @pytest.mark.parametrize("cfg", [
        tiny_config(sigma_list=[0.1], trials=12, master_seed=9),
        tiny_config(scenario="rmse_vs_noise", sigma_list=[0.05, 0.2],
                    sensor_counts=[4, 8], missing_fraction=[0.3], trials=40,
                    master_seed=7),
        tiny_config(scenario="completion_benchmark", sigma_list=[0.1],
                    sensor_counts=[6], missing_fraction=[0.1, 0.3], trials=20,
                    master_seed=3),
    ], ids=["sensors", "noise_missing", "completion"])
    def test_block_size_does_not_change_results(self, cfg, monkeypatch, tmp_path):
        """Blocks of 16 node fixes and one block per sweep point give
        byte-identical CSVs."""
        outputs = []
        for block in (16, 10**6):
            monkeypatch.setattr(placement, "BLOCK_NODE_FIXES", block)
            path, = emit_results(run_experiment(cfg), "csv", tmp_path / str(block))
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_completion_benchmark(self):
        cfg = tiny_config(scenario="completion_benchmark", sigma_list=[0.0],
                          sensor_counts=[6], missing_fraction=[0.0, 0.2],
                          trials=5)
        table = run_experiment(cfg)
        assert len(table.rows) == 2
        for row in table.rows:
            assert row.params["missing_fraction"] in (0.0, 0.2)
            assert row.translation_rmse < 1e-5

    def test_anchorless_scenario(self):
        cfg = tiny_config(scenario="anchorless_two_body", sigma_list=[0.0],
                          sensor_counts=[5], trials=5)
        table = run_experiment(cfg)
        assert table.rows[0].translation_rmse < 1e-6
        assert table.rows[0].rotation_rmse < 1e-6

    def test_motion_tracking_scenario(self):
        cfg = tiny_config(scenario="motion_tracking", sigma_list=[0.0],
                          sensor_counts=[6], trials=5)
        table = run_experiment(cfg)
        assert table.rows[0].translation_rmse < 1e-6

    def test_placement_study_scenario(self):
        cfg = tiny_config(scenario="placement_study", sigma_list=[0.1],
                          sensor_counts=[5], trials=30)
        table = run_experiment(cfg)
        kinds = {row.params["placement"] for row in table.rows}
        assert kinds == {"optimized", "cube"}

    def test_identical_reruns_bit_exact(self):
        cfg = tiny_config(sigma_list=[0.05], trials=10)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.translation_rmse == rb.translation_rmse
            assert ra.rotation_rmse == rb.rotation_rmse


class TestEmitResults:
    def table(self):
        row = ResultRow(scenario="rmse_vs_sensors",
                        params={"sigma": 0.1, "sensors": 4},
                        translation_rmse=0.25, rotation_rmse=0.01,
                        translation_se=0.002, rotation_se=0.0001,
                        failures=0, trials=100, wall_time_s=1.5)
        return ResultTable([row], ("sigma", "sensors"))

    def test_single_row_csv(self, tmp_path):
        paths = emit_results(self.table(), "csv", tmp_path)
        lines = paths[0].read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("scenario,sigma,sensors,translation_rmse")
        assert "wall_time" not in lines[0]

    def test_json_round_trip_bit_exact(self, tmp_path):
        cfg = tiny_config(sigma_list=[0.1], trials=8)
        table = run_experiment(cfg)
        paths = emit_results(table, "json", tmp_path)
        back = ResultTable.from_json(paths[0].read_text())
        assert back.param_keys == table.param_keys
        for ra, rb in zip(table.rows, back.rows):
            assert ra == rb

    def test_json_handles_nan(self, tmp_path):
        row = ResultRow(scenario="rmse_vs_sensors", params={"sigma": 0.1},
                        translation_rmse=float("nan"), rotation_rmse=0.0,
                        translation_se=float("nan"), rotation_se=0.0,
                        failures=5, trials=5, wall_time_s=0.1)
        table = ResultTable([row], ("sigma",))
        paths = emit_results(table, "json", tmp_path)
        parsed = json.loads(paths[0].read_text())  # NaN must not leak out
        assert parsed["rows"][0]["translation_rmse"] is None
        back = ResultTable.from_json(paths[0].read_text())
        assert np.isnan(back.rows[0].translation_rmse)

    def test_plot_data_one_series_per_sigma(self, tmp_path):
        cfg = tiny_config(sigma_list=[0.0, 0.1], sensor_counts=[4, 6],
                          trials=4)
        table = run_experiment(cfg)
        paths = emit_results(table, "plot-data", tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["plot_rotation_rmse.csv", "plot_translation_rmse.csv"]
        lines = paths[0].read_text().strip().split("\n")
        assert lines[0] == "x,series,y"
        series = {line.split(",")[1] for line in lines[1:]}
        assert len(series) == 2  # one per sigma
        xs = {line.split(",")[0] for line in lines[1:]}
        assert xs == {"4", "6"}

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_results(self.table(), "yaml", tmp_path)
