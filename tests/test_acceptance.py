"""Acceptance gate: the eight headline behaviors, one test each.

Every test prints a single PASS/FAIL line (bypassing capture) so the
acceptance status is readable straight off the pytest log. All runs are
deterministic: Monte-Carlo checks use fixed documented seeds.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from rigidloc import placement
from rigidloc.completion import complete_edm, edm_to_points
from rigidloc.estimators import (
    estimate_motion,
    fit_pose_procrustes,
    rbl_two_stage,
    relative_pose_anchorless,
)
from rigidloc.geometry import (
    BodyMotion,
    Conformation,
    Pose,
    apply_pose,
    body_velocities,
    cross_matrix,
    random_rotation,
    rotation_2d,
    rotation_geodesic_error,
)
from rigidloc.harness import (
    ExperimentConfig,
    box_vehicle_conformation,
    cube_anchor_layout,
    emit_results,
    run_experiment,
)
from rigidloc.measurement import (
    AnchorSet,
    MaskedRangeMatrix,
    PartialEdm,
    simulate_range_rates,
    simulate_ranges,
)
from rigidloc.placement import (
    PlacementProblem,
    evaluate_placement,
    frame_potential,
    optimize_placement,
)


def report(capsys, name, passed, detail):
    with capsys.disabled():
        print(f"\nacceptance {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def fig_sens_config():
    return ExperimentConfig.from_dict(dict(
        scenario="rmse_vs_sensors",
        sigma_list=[0.05, 0.1, 0.5],
        sensor_counts=[2, 4, 6, 8, 10, 14],
        trials=500,
        master_seed=0,
    ))


def test_criterion_1_noiseless_exactness(capsys):
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst_t, worst_r = 0.0, 0.0
    for dim in (2, 3):
        for num_nodes in (4, 6, 10):
            conf = box_vehicle_conformation(num_nodes, dim)
            for num_anchors in (4, 8):
                anchors = cube_anchor_layout(num_anchors, dim, span=60.0)
                for _ in range(100):
                    pose = Pose(random_rotation(rng, dim),
                                rng.uniform(-5, 5, dim))
                    ranges = simulate_ranges(anchors, apply_pose(conf, pose), 0.0)
                    est = rbl_two_stage(anchors, ranges, conf)
                    worst_t = max(worst_t, float(np.linalg.norm(
                        est.pose.translation - pose.translation)))
                    worst_r = max(worst_r, rotation_geodesic_error(
                        est.pose.rotation, pose.rotation))
    elapsed = time.perf_counter() - start
    passed = worst_t < 1e-6 and worst_r < 1e-6 and elapsed < 10.0
    report(capsys, "criterion 1 noiseless exactness", passed,
           f"worst translation {worst_t:.2e} m, worst rotation {worst_r:.2e} rad, "
           f"{elapsed:.1f}s for 2400 poses")


@pytest.fixture(scope="module")
def fig_sens_table():
    start = time.perf_counter()
    table = run_experiment(fig_sens_config())
    return table, time.perf_counter() - start


def test_criterion_2_sensor_sweep_shape(capsys, fig_sens_table):
    table, elapsed = fig_sens_table
    by_sigma = {}
    for row in table.rows:
        by_sigma.setdefault(row.params["sigma"], {})[row.params["sensors"]] = row
    checks = []
    for sigma, rows in sorted(by_sigma.items()):
        ks = sorted(rows)
        rmse = {k: rows[k].translation_rmse for k in ks}
        se = {k: rows[k].translation_se for k in ks}
        ratio_2_4 = rmse[2] / rmse[4]
        monotone = all(
            rmse[ks[i + 1]] <= rmse[ks[i]]
            + 2.0 * float(np.hypot(se[ks[i + 1]], se[ks[i]]))
            for i in range(len(ks) - 1))
        tail = abs(rmse[10] - rmse[14]) / rmse[14]
        checks.append((sigma, ratio_2_4 >= 10.0, monotone, tail <= 0.2,
                       ratio_2_4, tail))
    passed = elapsed < 120.0 and all(a and b and c for _, a, b, c, _, _ in checks)
    detail = "; ".join(
        f"sigma={s}: K2/K4={r24:.1f}, monotone={m}, K10-K14 gap={t:.3f}"
        for s, _, m, _, r24, t in checks) + f"; {elapsed:.1f}s"
    report(capsys, "criterion 2 sensor-count curve", passed, detail)


def test_criterion_3_procrustes_vs_grid(capsys):
    rng = np.random.default_rng(1003)
    grid = np.arange(0.0, 2.0 * np.pi, 1e-3)
    cosg, sing = np.cos(grid), np.sin(grid)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 6))
        conf = Conformation(rng.uniform(-2, 2, (k, 2)))
        pts = (apply_pose(conf, Pose(rotation_2d(rng.uniform(0, 2 * np.pi)),
                                     rng.uniform(-3, 3, 2))).positions
               + rng.normal(0, 0.2, (k, 2)))
        est = fit_pose_procrustes(conf, pts)
        c0 = conf.coords - conf.coords.mean(axis=0)
        p0 = pts - pts.mean(axis=0)
        # vectorized SSE over the whole angle grid
        rx = np.outer(cosg, c0[:, 0]) - np.outer(sing, c0[:, 1])
        ry = np.outer(sing, c0[:, 0]) + np.outer(cosg, c0[:, 1])
        sse = ((rx - p0[:, 0]) ** 2 + (ry - p0[:, 1]) ** 2).sum(axis=1)
        fit_sse = ((c0 @ est.pose.rotation.T - p0) ** 2).sum()
        best_angle = grid[np.argmin(sse)]
        fit_angle = np.arctan2(est.pose.rotation[1, 0], est.pose.rotation[0, 0])
        angle_gap = abs(np.remainder(fit_angle - best_angle + np.pi, 2 * np.pi)
                        - np.pi)
        assert fit_sse <= sse.min() + 1e-9
        worst = max(worst, angle_gap)
    passed = worst <= 1e-3
    report(capsys, "criterion 3 procrustes vs rotation grid", passed,
           f"worst angle gap {worst:.2e} rad over 50 instances")


def test_criterion_4_velocity_model(capsys):
    rng = np.random.default_rng(1004)
    worst_fd = {}
    for h in (1e-4, 1e-5, 1e-6):
        worst = 0.0
        for dim in (2, 3):
            for _ in range(10):
                conf = Conformation(rng.uniform(-2, 2, (5, dim)))
                pose = Pose(random_rotation(rng, dim), rng.uniform(-3, 3, dim))
                if dim == 2:
                    omega = rng.uniform(-1, 1)
                    gen = omega * np.array([[0.0, -1.0], [1.0, 0.0]])
                else:
                    omega = rng.uniform(-1, 1, 3)
                    gen = cross_matrix(omega)
                motion = BodyMotion(omega, rng.uniform(-3, 3, dim))
                vel = body_velocities(conf, pose, motion)
                moved = Pose.from_matrix(expm(gen * h) @ pose.rotation,
                                         pose.translation + h * motion.t_dot,
                                         reorthonormalize=True)
                fd = (apply_pose(conf, moved).positions
                      - apply_pose(conf, pose).positions) / h
                worst = max(worst, float(np.abs(vel - fd).max()))
        worst_fd[h] = worst
    fd_ok = all(worst_fd[h] <= 10.0 * h for h in worst_fd)

    worst_motion = 0.0
    for dim in (2, 3):
        for _ in range(20):
            conf = Conformation(rng.uniform(-2, 2, (5, dim)))
            anchors = AnchorSet(rng.uniform(-30, 30, (8, dim)))
            pose = Pose(random_rotation(rng, dim), rng.uniform(-3, 3, dim))
            omega = rng.uniform(-1, 1) if dim == 2 else rng.uniform(-1, 1, 3)
            motion = BodyMotion(omega, rng.uniform(-5, 5, dim))
            rates = simulate_range_rates(anchors, conf, pose, motion)
            est = estimate_motion(anchors, pose, conf, rates)
            worst_motion = max(
                worst_motion,
                float(np.abs(np.atleast_1d(est.motion.omega)
                             - np.atleast_1d(motion.omega)).max()),
                float(np.abs(est.motion.t_dot - motion.t_dot).max()))
    passed = fd_ok and worst_motion < 1e-9
    report(capsys, "criterion 4 velocity model", passed,
           "finite-difference gaps "
           + ", ".join(f"h={h:g}: {worst_fd[h]:.1e}" for h in worst_fd)
           + f"; motion recovery worst {worst_motion:.2e}")


def test_criterion_5_edm_completion(capsys):
    num_anchors, num_nodes = 5, 5
    hits = 0
    for inst in range(50):
        rng = np.random.default_rng((1005, inst))
        pts = rng.uniform(-5, 5, (num_anchors + num_nodes, 3))
        sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        cross = [(i, num_anchors + j)
                 for i in range(num_anchors) for j in range(num_nodes)]
        pick = rng.choice(len(cross), size=round(0.2 * len(cross)),
                          replace=False)
        mask = np.ones_like(sq, dtype=bool)
        for p in pick:
            i, j = cross[p]
            mask[i, j] = mask[j, i] = False
        partial = PartialEdm(np.where(mask, sq, np.nan), mask, dim=3,
                             num_anchors=num_anchors)
        res = complete_edm(partial)
        rel = np.abs(res.completed - sq)[~mask].max() / sq.max()
        hits += rel < 1e-4

    rng = np.random.default_rng(1005)
    worst_rt = 0.0
    for _ in range(20):
        pts = rng.uniform(-5, 5, (10, 3))
        sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        back = edm_to_points(sq, 3)
        sq2 = ((back[:, None, :] - back[None, :, :]) ** 2).sum(axis=2)
        worst_rt = max(worst_rt, float(np.abs(sq2 - sq).max() / sq.max()))
    passed = hits >= 48 and worst_rt < 1e-9
    report(capsys, "criterion 5 EDM completion", passed,
           f"{hits}/50 instances within 1e-4 relative; "
           f"MDS round-trip worst {worst_rt:.2e}")


def test_criterion_6_anchorless_recovery(capsys):
    worst_r, worst_t = 0.0, 0.0
    for trial in range(100):
        rng = np.random.default_rng((1006, trial))
        conf1 = Conformation(rng.uniform(-2, 2, (5, 3)))
        conf2 = Conformation(rng.uniform(-2, 2, (5, 3)))
        assert conf1.spans_space() and conf2.spans_space()
        pose = Pose(random_rotation(rng, 3),
                    rng.uniform(-2, 2, 3) + np.array([9.0, 0.0, 0.0]))
        body2 = apply_pose(conf2, pose).positions
        cross = np.linalg.norm(conf1.coords[:, None, :] - body2[None, :, :],
                               axis=2)
        est = relative_pose_anchorless(conf1, conf2, MaskedRangeMatrix(cross))
        worst_r = max(worst_r, rotation_geodesic_error(est.pose.rotation,
                                                       pose.rotation))
        worst_t = max(worst_t, float(np.linalg.norm(est.pose.translation
                                                    - pose.translation)))
    passed = worst_r < 1e-6 and worst_t < 1e-6
    report(capsys, "criterion 6 anchorless two-body", passed,
           f"worst rotation {worst_r:.2e} rad, worst translation "
           f"{worst_t:.2e} m over 100 trials")


def test_criterion_7_frame_potential(capsys):
    angles = np.deg2rad([0.0, 120.0, 240.0])
    mercedes = np.column_stack([np.cos(angles), np.sin(angles)])
    fp_ok = abs(frame_potential(mercedes) - 4.5) <= 1e-12

    opt_gaps = {}
    for m, dim in ((2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (6, 3)):
        res = optimize_placement(PlacementProblem(m, dim, anchor_radius=20.0,
                                                  seed=7))
        opt_gaps[(m, dim)] = res.frame_potential - m * m / dim
    # round-off can land a hair below the exact bound
    opt_ok = all(-1e-9 <= gap <= 1e-3 for gap in opt_gaps.values())

    conf = Conformation([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                         [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    tight = optimize_placement(PlacementProblem(6, 3, anchor_radius=20.0,
                                                seed=8)).to_anchor_set()
    arc = np.deg2rad(np.linspace(-2.5, 2.5, 6))
    clustered = AnchorSet(np.column_stack([20.0 * np.cos(arc),
                                           20.0 * np.sin(arc),
                                           np.linspace(-0.8, 0.8, 6)]))
    ev_tight = evaluate_placement(tight, conf, 0.1, trials=500, seed=11)
    ev_clustered = evaluate_placement(clustered, conf, 0.1, trials=500, seed=11)
    beat = (ev_tight.translation_rmse < ev_clustered.translation_rmse
            and ev_tight.rotation_rmse < ev_clustered.rotation_rmse)

    passed = fp_ok and opt_ok and beat
    worst_gap = max(opt_gaps.values())
    report(capsys, "criterion 7 frame potential", passed,
           f"mercedes FP exact: {fp_ok}; worst bound gap {worst_gap:.1e}; "
           f"tight {ev_tight.translation_rmse:.3f} m vs clustered "
           f"{ev_clustered.translation_rmse:.3f} m")


def test_criterion_8_block_size_determinism(capsys, monkeypatch, tmp_path):
    """Trials are solved in blocks of node fixes; a block of 16 and one
    larger than any sweep point (500 trials x 14 nodes) give the same file."""
    cfg = fig_sens_config()
    monkeypatch.setattr(placement, "BLOCK_NODE_FIXES", 16)
    small = emit_results(run_experiment(cfg), "csv", tmp_path / "small")
    monkeypatch.setattr(placement, "BLOCK_NODE_FIXES", 10**6)
    whole = emit_results(run_experiment(cfg), "csv", tmp_path / "whole")
    identical = small[0].read_bytes() == whole[0].read_bytes()
    report(capsys, "criterion 8 determinism across block sizes", identical,
           f"csv bytes identical with blocks of 16 and 10^6 node fixes: {identical}")
