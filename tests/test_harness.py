"""Tests for experiment configuration, the runner and result emission."""

import json
from dataclasses import replace

import numpy as np
import pytest

from rigidloc import estimators, harness, placement
from rigidloc.completion import NonEuclideanMatrixError, _congruent_fill_batch, complete_edm
from rigidloc.estimators import (
    DegenerateGeometryError,
    InsufficientMeasurementsError,
    _joint_start,
    _refine,
    estimate_motion,
    rbl_two_stage,
)
from rigidloc.geometry import (
    BodyMotion,
    Conformation,
    Pose,
    apply_pose,
    random_rotation,
    squared_distances,
)
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
)
from rigidloc.measurement import (
    AnchorSet,
    MaskedRangeMatrix,
    assemble_partial_edm,
    simulate_range_rates,
    simulate_ranges,
)


def without_starts(monkeypatch):
    """Send every completion trial to the ``complete_edm`` fallback: neither
    the joint start nor the congruent fill starts any."""
    joint, fill = harness._joint_start, harness._congruent_fill_batch

    def no_joint_start(*args):
        rotations, translations, failed = joint(*args)
        return rotations, translations, [DegenerateGeometryError("no start")] * len(failed)

    def no_fill(*args):
        placed, pinned, started = fill(*args)
        return placed, pinned, np.zeros_like(started)
    monkeypatch.setattr(harness, "_joint_start", no_joint_start)
    monkeypatch.setattr(harness, "_congruent_fill_batch", no_fill)


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

    @pytest.mark.parametrize("entries, message", [
        ({"master_seed": -1}, "master_seed must be a non-negative integer"),
        ({"sigma_list": [0.1, np.inf]}, "sigma_list entries must be non-negative and finite"),
        ({"sigma_list": [np.nan]}, "sigma_list entries must be non-negative and finite"),
        pytest.param({"anchor_span": 1e160}, "anchor_span 1e\\+160: anchor positions are too far",
                     marks=pytest.mark.filterwarnings("error")),
    ], ids=["negative_seed", "infinite_sigma", "nan_sigma", "overflowing_span"])
    def test_value_out_of_range_rejected(self, tmp_path, entries, message):
        """A value out of its key's range fails validation with the key's
        message, from the file and from an override alike."""
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, **entries))
        with pytest.raises(ConfigError, match=message):
            replace(load_config(write_config(tmp_path)), **entries)

    def test_unweighted_placement_study_rejected(self, tmp_path):
        """The placement study scores layouts with the weighted estimator
        only, and the motion sweep fits velocities at the true poses, so
        in both uniform weights are refused rather than ignored, with one
        message naming both."""
        for scenario in ("placement_study", "motion_tracking"):
            with pytest.raises(ConfigError, match="placement_study and motion_tracking"):
                load_config(write_config(tmp_path, scenario=scenario,
                                         estimator={"weighted": False}))
        cfg = load_config(write_config(tmp_path, estimator={"weighted": False}))
        assert cfg.estimator == {"weighted": False}

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
        out.write_text(json.dumps(cfg.to_dict(), indent=2))
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
                    sensor_counts=[6], missing_fraction=[0.1, 0.3, 0.5], trials=20,
                    master_seed=3),
        tiny_config(scenario="anchorless_two_body", sigma_list=[0.1],
                    sensor_counts=[5, 8], trials=20, master_seed=4),
        tiny_config(scenario="motion_tracking", dim=2, sigma_list=[0.1],
                    sensor_counts=[3, 8], trials=20, master_seed=6),
    ], ids=["sensors", "noise_missing", "completion", "anchorless", "motion"])
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

    def test_completion_pose_depends_only_on_observed_ranges(self, monkeypatch):
        """Stage 3 is the fit to the observed ranges, so a 1 mm error in
        every stage-1 fix only moves its start: noiseless poses stay exact."""
        real = estimators.multilaterate

        def shifted(*args, **kwargs):
            fix = real(*args, **kwargs)
            fix.position = fix.position + 1e-3
            return fix
        monkeypatch.setattr(estimators, "multilaterate", shifted)
        cfg = tiny_config(scenario="completion_benchmark", sigma_list=[0.0],
                          sensor_counts=[8], missing_fraction=[0.1, 0.3], trials=3)
        for row in run_experiment(cfg).rows:
            assert row.failures == 0
            assert row.translation_rmse < 1e-9 and row.rotation_rmse < 1e-9

    def test_completion_accuracy(self):
        """M=8 cube, K=8 box, sigma 0.1, 30% missing: the congruent start
        with the stage-3 refinement keeps the translation RMSE near the
        full-data level (the projection path read 0.079 m here)."""
        cfg = tiny_config(scenario="completion_benchmark", sigma_list=[0.1],
                          sensor_counts=[8], missing_fraction=[0.3], trials=100,
                          master_seed=2)
        row, = run_experiment(cfg).rows
        assert row.failures == 0
        assert row.translation_rmse <= 0.06

    def test_completion_falls_back_to_projections(self, monkeypatch):
        """A trial whose congruent start cannot pin ``dim`` nodes is filled
        by ``complete_edm`` and still ends in a pose or a classified
        failure."""
        seen = {"no_start": 0, "complete_edm": 0, "outcomes": []}
        fill, complete, solve = (harness._congruent_fill_batch, harness.complete_edm,
                                 harness.refined_block)

        def counted_fill(*args):
            placed, pinned, started = fill(*args)
            seen["no_start"] += int((~started).sum())
            return placed, pinned, started

        def counted_complete(*args, **kwargs):
            seen["complete_edm"] += 1
            return complete(*args, **kwargs)

        def recorded_solve(*args):
            (rotations, translations), failed = solve(*args)
            seen["outcomes"] += [
                err if err is not None
                else bool(np.isfinite(rotations[t]).all() and np.isfinite(translations[t]).all())
                for t, err in enumerate(failed)]
            return (rotations, translations), failed

        monkeypatch.setattr(harness, "_congruent_fill_batch", counted_fill)
        monkeypatch.setattr(harness, "complete_edm", counted_complete)
        monkeypatch.setattr(harness, "refined_block", recorded_solve)
        cfg = tiny_config(scenario="completion_benchmark", sigma_list=[0.1],
                          sensor_counts=[8], missing_fraction=[0.7], trials=20)
        row, = run_experiment(cfg).rows
        assert seen["complete_edm"] == seen["no_start"] > 0
        assert row.trials == 20 == len(seen["outcomes"])
        assert all(outcome is True or isinstance(outcome, (InsufficientMeasurementsError,
                                                           DegenerateGeometryError))
                   for outcome in seen["outcomes"])

    @pytest.mark.parametrize("error", [NonEuclideanMatrixError,
                                       DegenerateGeometryError])
    def test_completion_counts_classified_errors(self, error, monkeypatch):
        def fail(*args):
            raise error("cannot complete")
        without_starts(monkeypatch)
        monkeypatch.setattr(harness, "assemble_partial_edm", fail)
        cfg = tiny_config(scenario="completion_benchmark", sigma_list=[0.1],
                          sensor_counts=[6], missing_fraction=[0.3], trials=4)
        row, = run_experiment(cfg).rows
        assert row.failures == row.trials == 4

    def test_completion_raises_other_errors(self, monkeypatch):
        def fail(*args):
            raise ValueError("programming error")
        without_starts(monkeypatch)
        monkeypatch.setattr(harness, "assemble_partial_edm", fail)
        cfg = tiny_config(scenario="completion_benchmark", sigma_list=[0.1],
                          sensor_counts=[6], missing_fraction=[0.3], trials=4)
        with pytest.raises(ValueError, match="programming error"):
            run_experiment(cfg)

    def test_unclassified_block_errors_raise(self, monkeypatch):
        """A bare ValueError a block solver returns is a fault, not a
        failed trial."""
        real = placement._two_stage

        def broken(anchors, conf, values, *args):
            fit = real(anchors, conf, values, *args)
            fit.failed = [ValueError("programming error")] * len(values)
            return fit
        monkeypatch.setattr(placement, "_two_stage", broken)
        with pytest.raises(ValueError, match="programming error"):
            run_experiment(tiny_config(sigma_list=[0.1], trials=4))

    def test_motion_node_on_an_anchor(self, monkeypatch):
        """A node on an anchor is a fault of the draw, not a failed trial:
        the motion sweep raises what ``simulate_range_rates`` raises for
        that trial, and the velocity fit fails it as ``estimate_motion``
        does."""
        anchors, conf = cube_anchor_layout(8), box_vehicle_conformation(4)
        offset = anchors.positions[0] - conf.coords[0]
        assert np.array_equal(conf.coords[0] + offset, anchors.positions[0])
        pose, motion = Pose(np.eye(3), offset), BodyMotion(np.ones(3), np.ones(3))
        draw_pose, drawn = harness.uniform_pose, []

        def on_anchor_third(center, spread):
            # the quaternion (1, 0, 0, 0) draws the identity rotation
            def draw(rng):
                drawn.append(draw_pose(center, spread)(rng))
                return (np.array([1.0, 0.0, 0.0, 0.0]), offset) if len(drawn) == 3 \
                    else drawn[-1]
            return draw
        monkeypatch.setattr(harness, "uniform_pose", on_anchor_third)
        with pytest.raises(ValueError) as swept:
            run_experiment(tiny_config(scenario="motion_tracking", sigma_list=[0.1],
                                       sensor_counts=[4], trials=6))
        with pytest.raises(ValueError) as alone:
            simulate_range_rates(anchors, conf, pose, motion)
        assert (type(swept.value), str(swept.value)) == (ValueError, str(alone.value))
        with pytest.raises(DegenerateGeometryError) as fitted:
            estimate_motion(anchors, pose, conf, np.zeros((8, 4)))
        *_, failed = estimators._motion_fits(anchors, conf, np.eye(3)[None], offset[None],
                                             np.zeros((1, 8, 4)), np.ones((1, 8, 4), bool))
        assert [(type(err), str(err)) for err in failed] == [
            (DegenerateGeometryError, str(fitted.value))]

    def test_anchorless_scenario(self):
        cfg = tiny_config(scenario="anchorless_two_body", sigma_list=[0.0],
                          sensor_counts=[5], trials=5)
        table = run_experiment(cfg)
        assert table.rows[0].translation_rmse < 1e-6
        assert table.rows[0].rotation_rmse < 1e-6

    def test_anchorless_planar_body_fails_every_trial(self):
        """Three nodes of body 1 span only a plane in 3D, so no node of
        body 2 has the dim+1 ranges stage 1 needs."""
        cfg = tiny_config(scenario="anchorless_two_body", sigma_list=[0.0],
                          sensor_counts=[3], trials=20)
        row = run_experiment(cfg).rows[0]
        assert row.failures == row.trials == 20
        assert np.isnan(row.translation_rmse)

    def test_anchorless_noisy_accuracy(self):
        """Fixed seed, K = 8, sigma 0.1 m: the localize-and-refine estimate
        reads about 0.175 m / 0.055 rad."""
        cfg = tiny_config(scenario="anchorless_two_body", sigma_list=[0.1],
                          sensor_counts=[8], trials=100, master_seed=0)
        row = run_experiment(cfg).rows[0]
        assert row.failures == 0
        assert row.translation_rmse < 0.25
        assert row.rotation_rmse < 0.07

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


def uniform_draw(anchors, spread):
    """The sweeps' pose draw: a random rotation, then a translation uniform
    within ``spread`` meters per axis of the anchor centroid."""
    center = anchors.positions.mean(axis=0)
    return lambda rng: (random_rotation(rng, anchors.dim),
                        center + rng.uniform(-spread, spread, anchors.dim))


def anchorless_draw(dim):
    """``anchorless_two_body``'s pose draw: a random rotation, then a
    translation 8-12 m from body 1 in a random direction."""
    def draw(rng):
        rotation = random_rotation(rng, dim)
        direction = rng.normal(size=dim)
        return rotation, (10.0 + rng.uniform(-2.0, 2.0)) * (direction
                                                          / np.linalg.norm(direction))
    return draw


def public_statistics(trials, trial_rng, anchors, conf, draw_pose, sigma,
                      fraction=0.0, estimate=None):
    """(translation RMSE, SE, rotation RMSE, SE, failures) of a Monte-Carlo
    run rebuilt trial by trial from the public calls, each trial drawing
    in the order the blocks draw: rotation, translation, noise, drops.
    ``estimate(ranges)`` returns the trial's estimated ``Pose`` or raises
    (default: ``rbl_two_stage``'s pose)."""
    estimate = estimate or (lambda ranges: rbl_two_stage(anchors, ranges, conf).pose)
    t_sq, r_sq, failures = [], [], 0
    for trial in range(trials):
        rng = trial_rng(trial)
        pose = Pose(*draw_pose(rng))
        ranges = simulate_ranges(anchors, apply_pose(conf, pose), sigma, None, rng)
        if fraction > 0:
            mask = ranges.mask & (rng.random(ranges.shape) >= fraction)
            ranges = MaskedRangeMatrix(np.where(mask, ranges.values, np.nan), mask)
        try:
            est = estimate(ranges)
        except placement.TRIAL_FAILURES:
            failures += 1
            continue
        t_err, r_err = placement.pose_errors(est, pose)
        t_sq.append(t_err)
        r_sq.append(r_err)
    return (*placement.rmse_and_se(t_sq), *placement.rmse_and_se(r_sq), failures)


def refined(anchors, conf, observed, filled=None, start=None):
    """Pose of one trial refined by stage 3 (``_refine``) on ``observed``
    from the pose ``start``, or else from ``rbl_two_stage`` on ``filled``,
    whose pose stays unrefined where its rotation is not unique; raises
    the estimation error."""
    if start is None:
        est = rbl_two_stage(anchors, filled, conf)
        if not est.rotation_unique:
            return est.pose
        start = est.pose
    rot, trans, _, _ = _refine(anchors, conf, start.rotation[None], start.translation[None],
                               observed.values[None], observed.mask[None])
    return Pose(rot[0], trans[0])


def row_statistics(row):
    return (row.translation_rmse, row.translation_se, row.rotation_rmse,
            row.rotation_se, row.failures)


class TestBlocksMatchThePublicCalls:
    """The sweeps draw, check, estimate and score each block of trials as
    arrays; every row equals, bit for bit, the trial-by-trial run through
    ``Pose``, ``simulate_ranges``, the one-trial estimators and
    ``pose_errors``: ``rbl_two_stage``, or for the refined sweeps stage 3
    (``_refine``) from the trial's own ``_joint_start`` or, where the
    completion sweep takes the fill, from ``rbl_two_stage`` on the fill of
    that trial alone. The motion sweep's rows equal the run
    through ``Pose``, ``BodyMotion``, ``simulate_range_rates`` and
    ``estimate_motion``."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("fraction", [0.0, 0.3])
    def test_rmse_vs_sensors(self, dim, fraction):
        cfg = tiny_config(dim=dim, sigma_list=[0.0, 0.1], sensor_counts=[2, 4, 8],
                          missing_fraction=[fraction], anchor_count=5, trials=40,
                          master_seed=21)
        anchors = cube_anchor_layout(5, dim)
        rows = run_experiment(cfg).rows
        for sweep_idx, row in enumerate(rows):
            conf = box_vehicle_conformation(row.params["sensors"], dim)
            want = public_statistics(
                cfg.trials, lambda t: harness._trial_rng(cfg.master_seed, sweep_idx, t),
                anchors, conf, uniform_draw(anchors, harness.POSE_SPREAD),
                row.params["sigma"], fraction)
            assert row_statistics(row) == want, row.params
        if fraction > 0:
            assert sum(row.failures for row in rows) > 0

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", [5, (7, 1)])
    def test_evaluate_placement(self, dim, seed):
        anchors = cube_anchor_layout(4 if dim == 2 else 6, dim)
        conf = box_vehicle_conformation(5, dim)
        entropy = seed if isinstance(seed, tuple) else (seed,)
        got = placement.evaluate_placement(anchors, conf, 0.1, 60, seed)
        assert row_statistics(got) == public_statistics(
            60, lambda t: np.random.default_rng((*entropy, t)), anchors, conf,
            uniform_draw(anchors, placement.EVALUATION_POSE_SPREAD), 0.1)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_completion_benchmark(self, dim):
        """A trial whose joint start has full rank is refined from it; at
        70% missing some trials have no such start and take the fill:
        the congruent fill, or the ``complete_edm`` fallback where that
        cannot start either."""
        cfg = tiny_config(scenario="completion_benchmark", dim=dim, sigma_list=[0.0, 0.1],
                          sensor_counts=[4, 8], missing_fraction=[0.7], trials=30,
                          master_seed=13)
        anchors = cube_anchor_layout(8, dim)
        m = anchors.num_anchors
        fallbacks = []
        for sweep_idx, row in enumerate(run_experiment(cfg).rows):
            conf = box_vehicle_conformation(row.params["sensors"], dim)
            sigma = row.params["sigma"]

            def estimate(ranges):
                rotation, translation, (err,) = _joint_start(
                    anchors, conf, ranges.values[None], ranges.mask[None])
                if err is None:
                    return refined(anchors, conf, ranges,
                                   start=Pose(rotation[0], translation[0]))
                fallbacks.append(sweep_idx)
                placed, _, started = _congruent_fill_batch(
                    anchors.positions, conf.coords, ranges.values[None], ranges.mask[None])
                if started[0]:
                    fill = np.sqrt(squared_distances(anchors.positions, placed[0]))
                else:
                    partial = assemble_partial_edm(anchors, conf, ranges)
                    fill = np.sqrt(complete_edm(partial, rank_slack=1 if sigma > 0 else 0)
                                   .completed[:m, m:])
                filled = MaskedRangeMatrix(np.where(ranges.mask, ranges.values, fill))
                return refined(anchors, conf, ranges, filled)
            want = public_statistics(
                cfg.trials, lambda t: harness._trial_rng(cfg.master_seed, sweep_idx, t),
                anchors, conf, uniform_draw(anchors, harness.POSE_SPREAD), sigma, 0.7,
                estimate)
            np.testing.assert_equal(row_statistics(row), want, str(row.params))
        assert fallbacks

    @pytest.mark.parametrize("dim", [2, 3])
    def test_anchorless_two_body(self, dim):
        """Body 1 of ``dim`` nodes gives no body-2 node the dim+1 ranges
        stage 1 needs, so every trial of that row fails."""
        cfg = tiny_config(scenario="anchorless_two_body", dim=dim, sigma_list=[0.0, 0.1],
                          sensor_counts=[dim, 5, 8], trials=30, master_seed=17)
        rows = run_experiment(cfg).rows
        for sweep_idx, row in enumerate(rows):
            conf = box_vehicle_conformation(row.params["sensors"], dim)
            body1 = AnchorSet(conf.coords)
            want = public_statistics(
                cfg.trials, lambda t: harness._trial_rng(cfg.master_seed, sweep_idx, t),
                body1, conf, anchorless_draw(dim), row.params["sigma"],
                estimate=lambda ranges: refined(body1, conf, ranges, ranges))
            np.testing.assert_equal(row_statistics(row), want, str(row.params))
        assert [row.failures for row in rows if row.params["sensors"] == dim] == [30, 30]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_motion_tracking(self, dim):
        """Each trial is rebuilt through ``Pose``, ``BodyMotion``,
        ``simulate_range_rates`` and ``estimate_motion`` at the true pose,
        drawing the rotation, translation, omega, t_dot and rate noise in
        that order. Two nodes in 3D cannot separate rotation from
        translation, so every trial of those rows fails."""
        cfg = tiny_config(scenario="motion_tracking", dim=dim, sigma_list=[0.0, 0.1],
                          sensor_counts=[2, 4, 8], trials=50, master_seed=3)
        anchors = cube_anchor_layout(8, dim)
        draw_pose = uniform_draw(anchors, harness.POSE_SPREAD)
        rows = run_experiment(cfg).rows
        for sweep_idx, row in enumerate(rows):
            conf = box_vehicle_conformation(row.params["sensors"], dim)
            t_sq, r_sq, failures = [], [], 0
            for trial in range(cfg.trials):
                rng = harness._trial_rng(cfg.master_seed, sweep_idx, trial)
                pose = Pose(*draw_pose(rng))
                omega = rng.uniform(-0.5, 0.5, 3) if dim == 3 \
                    else float(rng.uniform(-0.5, 0.5))
                motion = BodyMotion(omega, rng.uniform(-15.0, 15.0, dim))
                rates = simulate_range_rates(anchors, conf, pose, motion,
                                             row.params["sigma"], None, rng)
                try:
                    est = estimate_motion(anchors, pose, conf, rates).motion
                except placement.TRIAL_FAILURES:
                    failures += 1
                    continue
                # a planar omega is a scalar, squared by pow() as one float
                omega_err = np.asarray(est.omega) - np.asarray(motion.omega)
                t_sq.append(float(((est.t_dot - motion.t_dot) ** 2).sum()))
                r_sq.append(float((omega_err**2).sum()))
            want = (*placement.rmse_and_se(t_sq), *placement.rmse_and_se(r_sq), failures)
            np.testing.assert_equal(row_statistics(row), want, str(row.params))
        assert all(row.failures < cfg.trials for row in rows if row.params["sensors"] > 2)
        if dim == 3:
            assert [row.failures for row in rows if row.params["sensors"] == 2] == [50, 50]


class TestEmitResults:
    def table(self):
        row = ResultRow(scenario="rmse_vs_sensors",
                        params={"sigma": 0.1, "sensors": 4},
                        translation_rmse=0.25, rotation_rmse=0.01,
                        translation_se=0.002, rotation_se=0.0001,
                        failures=0, trials=100, wall_time_s=1.5)
        return ResultTable([row], ("sigma", "sensors"))

    def test_single_row_csv(self, tmp_path):
        """The CSV holds the scenario, the parameters and the metric
        columns, and no wall time."""
        paths = emit_results(self.table(), "csv", tmp_path)
        assert paths[0].read_text() == (
            "scenario,sigma,sensors,translation_rmse,rotation_rmse,"
            "translation_se,rotation_se,failures,trials\n"
            "rmse_vs_sensors,0.1,4,0.25,0.01,0.002,0.0001,0,100\n")

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

    def test_json_text(self):
        """Rows are written with the ResultRow fields in field order, NaN as
        null, and the wall time, which only the JSON carries."""
        row = ResultRow(scenario="rmse_vs_sensors", params={"sigma": 0.1, "sensors": 4},
                        translation_rmse=float("nan"), rotation_rmse=0.5,
                        translation_se=float("nan"), rotation_se=0.0,
                        failures=5, trials=6, wall_time_s=0.25)
        assert ResultTable([row], ("sigma", "sensors")).to_json() == """{
  "param_keys": [
    "sigma",
    "sensors"
  ],
  "rows": [
    {
      "scenario": "rmse_vs_sensors",
      "params": {
        "sigma": 0.1,
        "sensors": 4
      },
      "translation_rmse": null,
      "rotation_rmse": 0.5,
      "translation_se": null,
      "rotation_se": 0.0,
      "failures": 5,
      "trials": 6,
      "wall_time_s": 0.25
    }
  ]
}"""

    @pytest.mark.parametrize("edit", ["missing", "unknown"])
    def test_from_json_rejects_a_row_with_other_keys(self, edit):
        obj = json.loads(self.table().to_json())
        if edit == "missing":
            del obj["rows"][0]["wall_time_s"]
        else:
            obj["rows"][0]["nees"] = 1.0
        with pytest.raises(TypeError):
            ResultTable.from_json(json.dumps(obj))

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
