"""Tests for multilateration, pose fitting, the two-stage pipeline,
anchorless relative pose and motion estimation."""

import numpy as np
import pytest

from rigidloc.estimators import (
    JOINT_START_RCOND,
    DegenerateGeometryError,
    InsufficientMeasurementsError,
    _joint_start,
    estimate_motion,
    fit_pose_procrustes,
    localize_point_hybrid,
    multilaterate,
    rbl_two_stage,
    relative_pose_anchorless,
)
from rigidloc.geometry import (
    BodyMotion,
    Conformation,
    PlacedBody,
    Pose,
    apply_pose,
    random_rotation,
    rotation_2d,
    rotation_geodesic_error,
)
from rigidloc.harness import box_vehicle_conformation, cube_anchor_layout
from rigidloc.measurement import (
    AnchorSet,
    MaskedRangeMatrix,
    simulate_range_rates,
    simulate_ranges,
)


def ranges_to(anchors, point):
    return np.linalg.norm(anchors.positions - np.asarray(point, float), axis=1)


class TestMultilaterate:
    def test_exact_2d(self):
        anchors = AnchorSet([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
        fix = multilaterate(anchors, [np.sqrt(2.0), np.sqrt(10.0), np.sqrt(5.0)])
        assert np.allclose(fix.position, [1.0, 1.0], atol=1e-9)
        assert fix.converged
        assert not fix.ambiguous
        assert fix.residual_rms < 1e-9

    def test_exact_3d(self):
        rng = np.random.default_rng(21)
        anchors = AnchorSet(rng.uniform(-20, 20, (5, 3)))
        target = rng.uniform(-5, 5, 3)
        fix = multilaterate(anchors, ranges_to(anchors, target))
        assert np.allclose(fix.position, target, atol=1e-8)

    def test_zero_range_returns_anchor(self):
        """Noiseless ranges of a point on an anchor fix it at that anchor
        bit for bit, with RMS 0 and no iteration, in 2D and 3D."""
        anchors = AnchorSet([[1.0, 2.0], [5.0, 2.0], [1.0, 7.0]])
        d = ranges_to(anchors, [1.0, 2.0])
        fix = multilaterate(anchors, d)
        assert np.array_equal(fix.position, [1.0, 2.0])
        assert fix.converged
        assert (fix.residual_rms, fix.iterations) == (0.0, 0)
        anchors = AnchorSet(np.random.default_rng(3).uniform(-20.0, 20.0, (6, 3)))
        ranges = simulate_ranges(anchors, PlacedBody(anchors.positions[4:5]), 0.0)
        fix = multilaterate(anchors, ranges.values[:, 0])
        assert np.array_equal(fix.position, anchors.positions[4])
        assert (fix.residual_rms, fix.iterations) == (0.0, 0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_clamped_zero_range_is_refined(self, dim):
        """A node near an anchor whose noisy range to it was clamped at 0 is
        fitted from that anchor by Gauss-Newton: it ends at a stationary
        point of the objective, below the anchor's objective and within the
        noise of the node."""
        rng = np.random.default_rng(10 + dim)
        anchors = AnchorSet(rng.uniform(-20.0, 20.0, (6, dim)))
        node = anchors.positions[2] + 0.05
        d = ranges_to(anchors, node) + rng.normal(0.0, 0.05, 6)
        d[2] = 0.0
        fix = multilaterate(anchors, d)
        ranges = ranges_to(anchors, fix.position)
        gradient = ((ranges - d) / ranges) @ (fix.position - anchors.positions)
        objective = fix.residual_rms**2 * 6
        assert fix.iterations > 0
        assert objective < ((ranges_to(anchors, anchors.positions[2]) - d) ** 2).sum()
        assert np.isclose(objective, ((ranges - d) ** 2).sum(), rtol=1e-9)
        assert np.linalg.norm(gradient) < 1e-6
        assert np.linalg.norm(fix.position - node) < 0.3

    def test_mirror_pair_2d(self):
        # collinear anchors: the point and its mirror across the baseline
        # fit equally well
        anchors = AnchorSet([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        fix = multilaterate(anchors, ranges_to(anchors, [1.0, 1.5]))
        assert fix.ambiguous
        assert len(fix.candidates) == 2
        ys = sorted(c[1] for c in fix.candidates)
        assert np.allclose(ys, [-1.5, 1.5], atol=1e-9)
        assert np.allclose([c[0] for c in fix.candidates], [1.0, 1.0], atol=1e-9)
        assert any(np.allclose(fix.position, c, atol=1e-12)
                   for c in fix.candidates)

    def test_mirror_pair_3d_plane(self):
        anchors = AnchorSet([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        fix = multilaterate(anchors, ranges_to(anchors, [1.0, 2.0, 2.0]))
        assert fix.ambiguous
        zs = sorted(c[2] for c in fix.candidates)
        assert np.allclose(zs, [-2.0, 2.0], atol=1e-9)

    def test_masked_entries_ignored(self):
        anchors = AnchorSet([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0], [9.0, 9.0]])
        d = ranges_to(anchors, [1.0, 1.0])
        d[3] = 123.0  # poisoned but masked out
        fix = multilaterate(anchors, d, mask=[True, True, True, False])
        assert np.allclose(fix.position, [1.0, 1.0], atol=1e-9)

    def test_mask_of_another_shape_raises(self):
        """A 3 x 6 mask for 6 x 3 ranges has the right element count but
        would mark the wrong entries."""
        anchors = AnchorSet(np.random.default_rng(5).uniform(-9, 9, (6, 2)))
        d = np.stack([ranges_to(anchors, p) for p in ([1, 1], [2, -1], [0, 3])], axis=1)
        mask = np.ones((3, 6), dtype=bool)
        mask[0, :3] = False
        with pytest.raises(ValueError, match="mask shape"):
            multilaterate(anchors, d, mask)

    def test_insufficient_raises(self):
        anchors = AnchorSet([[0.0, 0.0], [4.0, 0.0]])
        with pytest.raises(InsufficientMeasurementsError):
            multilaterate(anchors, [1.0, np.nan])

    def test_collinear_3d_raises(self):
        anchors = AnchorSet([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(DegenerateGeometryError):
            multilaterate(anchors, [1.0, 1.0, 1.0])

    def test_noisy_converges_near_truth(self):
        rng = np.random.default_rng(4)
        anchors = AnchorSet(rng.uniform(-30, 30, (8, 3)))
        target = np.array([2.0, -1.0, 3.0])
        d = ranges_to(anchors, target) + rng.normal(0, 0.01, 8)
        fix = multilaterate(anchors, d)
        assert fix.converged
        assert np.linalg.norm(fix.position - target) < 0.05
        assert fix.residual_rms < 0.03


class TestProcrustes:
    def test_generate_recover(self):
        rng = np.random.default_rng(30)
        conf = Conformation(rng.uniform(-2, 2, (6, 3)))
        pose = Pose(random_rotation(rng, 3), rng.uniform(-10, 10, 3))
        est = fit_pose_procrustes(conf, apply_pose(conf, pose).positions)
        assert rotation_geodesic_error(est.pose.rotation, pose.rotation) < 1e-9
        assert np.allclose(est.pose.translation, pose.translation, atol=1e-9)
        assert est.stage2_rms < 1e-9
        assert est.rotation_unique

    def test_zero_weight_excludes_node(self):
        rng = np.random.default_rng(31)
        conf = Conformation(rng.uniform(-2, 2, (5, 3)))
        pose = Pose(random_rotation(rng, 3), rng.uniform(-5, 5, 3))
        pts = apply_pose(conf, pose).positions.copy()
        pts[2] += 40.0  # gross outlier, weighted out below
        est = fit_pose_procrustes(conf, pts, weights=[1, 1, 0, 1, 1])
        assert rotation_geodesic_error(est.pose.rotation, pose.rotation) < 1e-9
        assert np.allclose(est.pose.translation, pose.translation, atol=1e-9)

    def test_single_node_gives_identity_rotation(self):
        conf = Conformation([[0.0, 0.0, 0.0]])
        est = fit_pose_procrustes(conf, np.array([[3.0, 4.0, 5.0]]))
        assert np.array_equal(est.pose.rotation, np.eye(3))
        assert np.allclose(est.pose.translation, [3.0, 4.0, 5.0])
        assert not est.rotation_unique

    def test_collinear_flags_nonunique(self):
        conf = Conformation([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        pts = conf.coords + np.array([5.0, 0.0, 0.0])
        est = fit_pose_procrustes(conf, pts)
        assert not est.rotation_unique

    @pytest.mark.parametrize("dim", [2, 3])
    def test_nodes_in_a_hyperplane_fix_the_rotation(self, dim):
        """Two nodes in 2D or three coplanar ones in 3D: the determinant
        rules out the mirror, so the proper rotation is unique."""
        rng = np.random.default_rng(35)
        coords = rng.uniform(-2, 2, (dim, dim))
        coords[:, -1] = 0.0
        conf = Conformation(coords)
        pose = Pose(random_rotation(rng, dim), rng.uniform(-5, 5, dim))
        est = fit_pose_procrustes(conf, apply_pose(conf, pose).positions)
        assert est.rotation_unique
        assert rotation_geodesic_error(est.pose.rotation, pose.rotation) < 1e-9
        assert np.allclose(est.pose.translation, pose.translation, atol=1e-9)

    @pytest.mark.parametrize("weights, message", [
        ([1.0, -1.0, 1.0, 1.0], "non-negative and finite"),
        ([1.0, np.nan, 1.0, 1.0], "non-negative and finite"),
        ([1.0, np.inf, 1.0, 1.0], "non-negative and finite"),
        ([0.0, 0.0, 0.0, 0.0], "at least one positive weight"),
    ])
    def test_bad_weights_raise(self, weights, message):
        conf = Conformation(np.random.default_rng(36).uniform(-2, 2, (4, 3)))
        with pytest.raises(ValueError, match=message):
            fit_pose_procrustes(conf, conf.coords + 1.0, weights)

    def test_mirrored_input_beats_rotation_grid(self):
        """With reflected targets no proper rotation fits exactly; the fit
        must still match the best rotation found by brute-force search."""
        rng = np.random.default_rng(32)
        conf = Conformation(rng.uniform(-2, 2, (6, 2)))
        mirrored = conf.coords @ np.diag([1.0, -1.0])
        est = fit_pose_procrustes(conf, mirrored)
        assert np.isclose(np.linalg.det(est.pose.rotation), 1.0, atol=1e-9)

        centered_c = conf.coords - conf.coords.mean(axis=0)
        centered_m = mirrored - mirrored.mean(axis=0)
        best = np.inf
        for theta in np.arange(0.0, 2 * np.pi, 2e-4):
            sse = ((centered_c @ rotation_2d(theta).T - centered_m) ** 2).sum()
            best = min(best, sse)
        got = ((centered_c @ est.pose.rotation.T - centered_m) ** 2).sum()
        assert got <= best + 1e-6
        assert est.stage2_rms > 0.1  # reflection leaves real residual

    def test_weighted_optimum_matches_grid(self):
        rng = np.random.default_rng(33)
        conf = Conformation(rng.uniform(-3, 3, (7, 2)))
        pts = apply_pose(conf, Pose(rotation_2d(0.7), np.zeros(2))).positions
        pts = pts + rng.normal(0, 0.3, pts.shape)
        w = rng.uniform(0.2, 2.0, 7)
        est = fit_pose_procrustes(conf, pts, weights=w)

        best = np.inf
        for theta in np.arange(0.0, 2 * np.pi, 2e-4):
            rot = rotation_2d(theta)
            shift = (np.average(pts, axis=0, weights=w)
                     - np.average(conf.coords, axis=0, weights=w) @ rot.T)
            sse = (w[:, None] * (conf.coords @ rot.T + shift - pts) ** 2).sum()
            best = min(best, sse)
        shift = est.pose.translation
        got = (w[:, None] * (conf.coords @ est.pose.rotation.T + shift - pts) ** 2).sum()
        assert got <= best + 1e-6

    def test_3d_optimum_over_random_rotations(self):
        rng = np.random.default_rng(34)
        conf = Conformation(rng.uniform(-2, 2, (8, 3)))
        pts = apply_pose(conf, Pose(random_rotation(rng, 3), np.zeros(3))).positions
        pts = pts + rng.normal(0, 0.2, pts.shape)
        est = fit_pose_procrustes(conf, pts)
        c0 = conf.coords - conf.coords.mean(axis=0)
        p0 = pts - pts.mean(axis=0)
        got = ((c0 @ est.pose.rotation.T - p0) ** 2).sum()
        for _ in range(4000):
            sse = ((c0 @ random_rotation(rng, 3).T - p0) ** 2).sum()
            assert got <= sse + 1e-9


class TestTwoStage:
    def make_scene(self, seed=40, nodes=6):
        rng = np.random.default_rng(seed)
        conf = box_vehicle_conformation(nodes, dim=3)
        anchors = cube_anchor_layout(8, dim=3, span=60.0)
        pose = Pose(random_rotation(rng, 3), rng.uniform(-5, 5, 3))
        return rng, conf, anchors, pose

    def test_noiseless_exact(self):
        rng, conf, anchors, pose = self.make_scene()
        ranges = simulate_ranges(anchors, apply_pose(conf, pose), 0.0)
        est = rbl_two_stage(anchors, ranges, conf)
        assert rotation_geodesic_error(est.pose.rotation, pose.rotation) < 1e-7
        assert np.allclose(est.pose.translation, pose.translation, atol=1e-7)
        assert est.rotation_unique
        assert est.stage1_rms < 1e-8
        assert est.stage2_rms < 1e-8
        assert est.ambiguous_nodes == ()
        assert est.iterations > 0

    def test_two_nodes_flags_rotation(self):
        rng, conf, anchors, pose = self.make_scene(nodes=2)
        ranges = simulate_ranges(anchors, apply_pose(conf, pose), 0.0)
        est = rbl_two_stage(anchors, ranges, conf)
        assert not est.rotation_unique
        # translation of the node centroid is still pinned down
        true_center = apply_pose(conf, pose).positions.mean(axis=0)
        got_center = (conf.coords @ est.pose.rotation.T
                      + est.pose.translation).mean(axis=0)
        assert np.allclose(got_center, true_center, atol=1e-6)

    def test_underobserved_node_dropped(self):
        rng, conf, anchors, pose = self.make_scene(seed=41)
        ranges = simulate_ranges(anchors, apply_pose(conf, pose), 0.0)
        values = ranges.values.copy()
        values[3:, 0] = np.nan  # node 0 keeps only 3 ranges in 3D
        est = rbl_two_stage(anchors, MaskedRangeMatrix(values), conf)
        assert rotation_geodesic_error(est.pose.rotation, pose.rotation) < 1e-7
        assert np.allclose(est.pose.translation, pose.translation, atol=1e-7)

    def test_all_nodes_underobserved_raises(self):
        rng, conf, anchors, pose = self.make_scene(seed=42)
        ranges = simulate_ranges(anchors, apply_pose(conf, pose), 0.0)
        values = ranges.values.copy()
        values[2:] = np.nan
        with pytest.raises(InsufficientMeasurementsError):
            rbl_two_stage(anchors, MaskedRangeMatrix(values), conf)

    def test_rigid_motion_equivariance(self):
        """Moving anchors and body by a common rigid motion transports the
        estimate by exactly that motion."""
        rng, conf, anchors, pose = self.make_scene(seed=43)
        ranges = simulate_ranges(anchors, apply_pose(conf, pose), 0.0)
        base = rbl_two_stage(anchors, ranges, conf)

        q = random_rotation(np.random.default_rng(99), 3)
        shift = np.array([7.0, -3.0, 11.0])
        moved_anchors = AnchorSet(anchors.positions @ q.T + shift)
        moved = rbl_two_stage(moved_anchors, ranges, conf)
        assert np.allclose(moved.pose.rotation, q @ base.pose.rotation, atol=1e-7)
        assert np.allclose(moved.pose.translation,
                           q @ base.pose.translation + shift, atol=1e-6)

    def test_weighting_helps_on_heteroscedastic_noise(self):
        """More sensors shrink the rotation error under fixed noise."""
        rng = np.random.default_rng(44)
        anchors = cube_anchor_layout(8, dim=3, span=60.0)
        errs = {}
        for nodes in (4, 8):
            conf = box_vehicle_conformation(nodes, dim=3)
            samples = []
            for _ in range(150):
                pose = Pose(random_rotation(rng, 3), rng.uniform(-5, 5, 3))
                ranges = simulate_ranges(anchors, apply_pose(conf, pose), 0.1,
                                         None, rng)
                est = rbl_two_stage(anchors, ranges, conf)
                samples.append(rotation_geodesic_error(est.pose.rotation,
                                                       pose.rotation))
            errs[nodes] = np.median(samples)
        assert errs[8] < errs[4]


class TestJointStart:
    """The linear start of the completion sweep: one least-squares fit of
    (vec R, t, Rᵀt, |t|²) to every observed squared range of a trial."""

    @staticmethod
    def block(dim, nodes, trials, fraction, seed):
        rng = np.random.default_rng(seed)
        anchors = cube_anchor_layout(8, dim)
        conf = box_vehicle_conformation(nodes, dim)
        poses = [Pose(random_rotation(rng, dim), rng.uniform(-5, 5, dim))
                 for _ in range(trials)]
        values = np.stack([simulate_ranges(anchors, apply_pose(conf, p), 0.0).values
                           for p in poses])
        mask = rng.random(values.shape) >= fraction
        return anchors, conf, poses, np.where(mask, values, np.nan), mask

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5])
    def test_exact_on_noiseless_ranges(self, dim, fraction):
        anchors, conf, poses, values, mask = self.block(dim, 8, 20, fraction, 60)
        rotations, translations, failed = _joint_start(anchors, conf, values, mask)
        assert failed == [None] * 20
        for pose, rot, trans in zip(poses, rotations, translations):
            assert np.allclose(rot, pose.rotation, atol=1e-9)
            assert np.allclose(trans, pose.translation, atol=1e-9)
            assert np.isclose(np.linalg.det(rot), 1.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_too_few_ranges(self, dim):
        """D² + 2D + 1 unknowns need as many observed ranges."""
        anchors, conf, _, values, mask = self.block(dim, 8, 1, 0.0, 61)
        unknowns = dim * dim + 2 * dim + 1
        keep = np.zeros(mask.size, dtype=bool)
        keep[:unknowns - 1] = True
        rotations, translations, (err,) = _joint_start(
            anchors, conf, values, keep.reshape(mask.shape))
        assert isinstance(err, InsufficientMeasurementsError)
        assert np.isnan(rotations).all() and np.isnan(translations).all()

    def test_coplanar_body(self):
        """Nodes in a plane leave the R column along its normal unseen."""
        anchors = cube_anchor_layout(8, 3)
        plate = box_vehicle_conformation(16, 2).coords
        conf = Conformation(np.column_stack([plate, np.full(16, 0.4)]))
        assert conf.affine_rank() == 2
        values = simulate_ranges(anchors, apply_pose(conf, Pose.identity(3)), 0.0).values
        _, _, (err,) = _joint_start(anchors, conf, values[None],
                                    np.ones((1,) + values.shape, dtype=bool))
        assert isinstance(err, DegenerateGeometryError)

    @staticmethod
    def lstsq_start(anchors, conf, values, mask):
        """One trial's start by ``np.linalg.lstsq`` at its default cutoff,
        on the design of one explicit row per observed range (R row-major,
        t, w, τ): the error class (None where the rank is full), the proper
        rotation nearest the fitted R, the fitted t and the equilibrated
        design's squared singular value ratio."""
        a, c = anchors.positions, conf.coords
        dim = a.shape[1]
        rows, rhs = [], []
        for m, k in zip(*np.nonzero(mask)):
            rows.append(np.concatenate([-2.0 * np.outer(a[m], c[k]).ravel(), -2.0 * a[m],
                                        2.0 * c[k], [1.0]]))
            rhs.append(values[m, k] ** 2 - a[m] @ a[m] - c[k] @ c[k])
        design = np.array(rows).reshape(-1, dim * dim + 2 * dim + 1)
        theta, _, rank, _ = np.linalg.lstsq(design, np.array(rhs), rcond=None)
        norms = np.linalg.norm(design, axis=0)
        svals = np.linalg.svd(design / np.where(norms > 0, norms, 1.0), compute_uv=False)
        ratio = (svals[-1] / svals[0]) ** 2 if len(svals) == design.shape[1] else 0.0
        if len(rows) < design.shape[1]:
            return InsufficientMeasurementsError, None, None, ratio
        if rank < design.shape[1]:
            return DegenerateGeometryError, None, None, ratio
        u, _, vt = np.linalg.svd(theta[:dim * dim].reshape(dim, dim))
        u[:, -1] *= np.sign(np.linalg.det(u @ vt))
        return type(None), u @ vt, theta[dim * dim:dim * dim + dim], ratio

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("nodes", [4, 8])
    @pytest.mark.parametrize("fraction", [0.3, 0.5, 0.7])
    def test_matches_lstsq(self, dim, nodes, fraction):
        """Trial by trial on noisy masked blocks, the start classifies as
        ``lstsq`` does and, where both start, gives the same pose."""
        anchors, conf, _, values, mask = self.block(dim, nodes, 120, fraction, 63)
        values = np.abs(values + np.random.default_rng(64).normal(0.0, 0.1, values.shape))
        rotations, translations, failed = _joint_start(anchors, conf, values, mask)
        kinds = set()
        for t, err in enumerate(failed):
            kind, rot, trans, _ = self.lstsq_start(anchors, conf, values[t], mask[t])
            assert type(err) is kind
            kinds.add(kind)
            if err is None:
                assert np.allclose(rotations[t], rot, rtol=0.0, atol=1e-9)
                assert np.allclose(translations[t], trans, rtol=0.0, atol=1e-9)
        # these cells mix starting, too few and rank-deficient trials
        if (dim, nodes, fraction) in {(2, 4, 0.7), (3, 4, 0.5), (3, 8, 0.7)}:
            assert kinds == {type(None), InsufficientMeasurementsError,
                             DegenerateGeometryError}

    def test_conditioning_bound_decides_near_singular_trials(self):
        """A plate body is singular; lifting one node by ε out of its plane
        makes the equilibrated design's squared singular value ratio grow
        as ε². At 0.9 and 1.1 times the ε where that ratio reaches
        JOINT_START_RCOND, ``lstsq`` starts both trials; the bound starts
        only the one above it."""
        anchors = cube_anchor_layout(8, 3)
        plate = np.column_stack([box_vehicle_conformation(16, 2).coords, np.full(16, 0.4)])

        def trial(eps):
            coords = plate.copy()
            coords[0, 2] += eps
            conf = Conformation(coords)
            values = simulate_ranges(anchors, apply_pose(conf, Pose.identity(3)), 0.0).values
            mask = np.ones(values.shape, dtype=bool)
            return conf, values, mask, self.lstsq_start(anchors, conf, values, mask)

        low, high = 1e-9, 1.0
        for _ in range(60):
            mid = np.sqrt(low * high)
            low, high = (mid, high) if trial(mid)[3][3] < JOINT_START_RCOND else (low, mid)
        for eps, starts in ((0.9 * low, False), (1.1 * low, True)):
            conf, values, mask, (kind, _, _, ratio) = trial(eps)
            assert kind is type(None)
            assert (ratio > 1.1 * JOINT_START_RCOND) if starts \
                else (ratio < 0.9 * JOINT_START_RCOND)
            _, _, (err,) = _joint_start(anchors, conf, values[None], mask[None])
            assert (err is None) if starts else isinstance(err, DegenerateGeometryError)

    def test_ranges_from_one_anchor(self):
        """Twenty ranges from one anchor outnumber the 16 unknowns, but
        cannot separate R, t and Rᵀt."""
        anchors, conf, _, values, mask = self.block(3, 20, 1, 0.0, 62)
        mask[:, 1:] = False
        _, _, (err,) = _joint_start(anchors, conf, values, mask)
        assert isinstance(err, DegenerateGeometryError)


class TestHybrid:
    def test_polar_fix_2d(self):
        anchors = AnchorSet([[0.0, 0.0]])
        fix = localize_point_hybrid(anchors, ranges=[5.0],
                                    azimuths=[np.pi / 6])
        expected = [5.0 * np.cos(np.pi / 6), 5.0 * np.sin(np.pi / 6)]
        assert np.allclose(fix.position, expected, atol=1e-9)
        assert fix.converged

    def test_spherical_fix_3d(self):
        anchors = AnchorSet([[1.0, 1.0, 1.0]])
        az, el, r = 0.8, 0.4, 7.0
        expected = np.array([1.0 + r * np.cos(el) * np.cos(az),
                             1.0 + r * np.cos(el) * np.sin(az),
                             1.0 + r * np.sin(el)])
        fix = localize_point_hybrid(anchors, ranges=[r], azimuths=[az],
                                    elevations=[el])
        assert np.allclose(fix.position, expected, atol=1e-8)

    def test_ranges_only_matches_multilateration(self):
        rng = np.random.default_rng(50)
        anchors = AnchorSet(rng.uniform(-20, 20, (5, 3)))
        target = rng.uniform(-4, 4, 3)
        d = ranges_to(anchors, target)
        plain = multilaterate(anchors, d)
        hybrid = localize_point_hybrid(anchors, ranges=d)
        assert np.allclose(hybrid.position, plain.position, atol=1e-8)

    def test_azimuth_resolves_mirror(self):
        anchors = AnchorSet([[0.0, 0.0], [4.0, 0.0]])
        target = np.array([1.0, 2.0])
        d = ranges_to(anchors, target)
        az = np.array([np.arctan2(2.0, 1.0), np.nan])
        fix = localize_point_hybrid(anchors, ranges=d, azimuths=az,
                                    sigma_range=0.1, sigma_angle=0.1)
        assert np.allclose(fix.position, target, atol=1e-8)
        # the mirror point (1, -2) satisfies the ranges but not the azimuth
        assert fix.position[1] > 0

    def test_angles_only_triangulation(self):
        anchors = AnchorSet([[0.0, 0.0], [10.0, 0.0]])
        target = np.array([3.0, 4.0])
        az = [np.arctan2(4.0, 3.0), np.arctan2(4.0, -7.0)]
        fix = localize_point_hybrid(anchors, azimuths=az)
        assert np.allclose(fix.position, target, atol=1e-8)

    def test_insufficient_raises(self):
        anchors = AnchorSet([[0.0, 0.0], [4.0, 0.0]])
        with pytest.raises(InsufficientMeasurementsError):
            localize_point_hybrid(anchors, ranges=[5.0, np.nan])

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["sigma_range", "sigma_angle"])
    def test_invalid_noise_level_raises(self, name, sigma):
        """A noise level weights its residuals by 1/sigma, so only a
        positive finite one is valid; none falls back to unit weights or
        reads as a geometry failure."""
        anchors = AnchorSet([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        ranges = ranges_to(anchors, [3.0, 4.0])
        with pytest.raises(ValueError, match=f"{name} must be positive and finite") as err:
            localize_point_hybrid(anchors, ranges=ranges, azimuths=[np.arctan2(4.0, 3.0),
                                                                    np.nan, np.nan],
                                  **{"sigma_angle": 0.01, name: sigma})
        assert not isinstance(err.value, DegenerateGeometryError)

    def test_elevation_in_2d_rejected(self):
        anchors = AnchorSet([[0.0, 0.0]])
        with pytest.raises(ValueError):
            localize_point_hybrid(anchors, ranges=[1.0], azimuths=[0.1],
                                  elevations=[0.2])


class TestAnchorless:
    def make_bodies(self, seed, k1=5, k2=5, dim=3):
        rng = np.random.default_rng(seed)
        conf1 = Conformation(rng.uniform(-2, 2, (k1, dim)))
        conf2 = Conformation(rng.uniform(-2, 2, (k2, dim)))
        pose = Pose(random_rotation(rng, dim),
                    rng.uniform(-1, 1, dim) + ([8.0, 0.0, 0.0][:dim]))
        body2 = apply_pose(conf2, pose).positions
        cross = np.linalg.norm(conf1.coords[:, None, :] - body2[None, :, :],
                               axis=2)
        return conf1, conf2, pose, body2, MaskedRangeMatrix(cross)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_generate_recover(self, dim):
        conf1, conf2, pose, body2, cross = self.make_bodies(60, dim=dim)
        est = relative_pose_anchorless(conf1, conf2, cross)
        assert est.reflection_resolved
        assert rotation_geodesic_error(est.pose.rotation, pose.rotation) < 1e-6
        assert np.allclose(est.pose.translation, pose.translation, atol=1e-6)
        assert np.allclose(est.center_offset,
                           body2.mean(axis=0) - conf1.coords.mean(axis=0),
                           atol=1e-6)
        assert est.residual_rms < 1e-6

    def test_pure_translation(self):
        conf1 = Conformation([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                              [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
                              [0.0, 0.0, 1.5]])
        conf2 = Conformation(conf1.coords * 0.7)
        shift = np.array([6.0, 1.0, -2.0])
        body2 = conf2.coords + shift
        cross = np.linalg.norm(conf1.coords[:, None, :] - body2[None, :, :],
                               axis=2)
        est = relative_pose_anchorless(conf1, conf2, MaskedRangeMatrix(cross))
        assert rotation_geodesic_error(est.pose.rotation, np.eye(3)) < 1e-6
        # offset is between geometric centers, not equal to the frame shift
        # because neither conformation is centered
        expected = body2.mean(axis=0) - conf1.coords.mean(axis=0)
        assert np.allclose(est.center_offset, expected, atol=1e-6)
        assert np.allclose(est.pose.translation, shift, atol=1e-6)

    def test_same_line_raises(self):
        conf1 = Conformation([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        conf2 = Conformation([[0.0, 0.0], [1.0, 0.0]])
        body2 = conf2.coords + np.array([6.0, 0.0])
        cross = np.linalg.norm(conf1.coords[:, None, :] - body2[None, :, :],
                               axis=2)
        with pytest.raises(DegenerateGeometryError):
            relative_pose_anchorless(conf1, conf2, MaskedRangeMatrix(cross))

    @pytest.mark.parametrize("dim,k2", [(2, 2), (3, 4)])
    def test_body_in_a_hyperplane_recovers(self, dim, k2):
        """A 2-node body 2 in 2D, or a coplanar 4-node one in 3D (a roof
        array), has one proper placement when body 1 spans the space."""
        rng = np.random.default_rng(64)
        conf1 = Conformation(rng.uniform(-2, 2, (5, dim)))
        coords = rng.uniform(-2, 2, (k2, dim))
        coords[:, -1] = 0.0
        conf2 = Conformation(coords)
        pose = Pose(random_rotation(rng, dim),
                    rng.uniform(-1, 1, dim) + ([8.0, 0.0, 0.0][:dim]))
        body2 = apply_pose(conf2, pose).positions
        cross = np.linalg.norm(conf1.coords[:, None, :] - body2[None, :, :],
                               axis=2)
        est = relative_pose_anchorless(conf1, conf2, MaskedRangeMatrix(cross))
        assert est.reflection_resolved
        assert rotation_geodesic_error(est.pose.rotation, pose.rotation) < 1e-6
        assert np.allclose(est.pose.translation, pose.translation, atol=1e-6)

    def test_two_node_body_raises(self):
        """Two nodes of body 2 leave its rotation about their axis free."""
        conf1, conf2, _, _, cross = self.make_bodies(63, k2=2)
        with pytest.raises(DegenerateGeometryError):
            relative_pose_anchorless(conf1, conf2, cross)

    def test_planar_first_body_flags_unresolved(self):
        rng = np.random.default_rng(61)
        square = np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0],
                           [-1.0, -1.0, 0.0], [1.0, -1.0, 0.0]])
        conf1 = Conformation(square)
        conf2 = Conformation(rng.uniform(-2, 2, (5, 3)))
        pose = Pose(random_rotation(rng, 3), [7.0, 2.0, 1.0])
        body2 = apply_pose(conf2, pose).positions
        cross = np.linalg.norm(conf1.coords[:, None, :] - body2[None, :, :],
                               axis=2)
        est = relative_pose_anchorless(conf1, conf2, MaskedRangeMatrix(cross))
        # mirroring body 2 through body 1's plane preserves every cross
        # distance, so the chirality cannot be pinned down
        assert not est.reflection_resolved

    def test_partial_cross_rejected(self):
        conf1, conf2, pose, body2, cross = self.make_bodies(62)
        values = cross.values.copy()
        values[0, 0] = np.nan
        with pytest.raises(ValueError):
            relative_pose_anchorless(conf1, conf2, MaskedRangeMatrix(values))


class TestMotion:
    def make_case(self, seed, dim):
        rng = np.random.default_rng(seed)
        conf = Conformation(rng.uniform(-2, 2, (5, dim)))
        anchors = AnchorSet(rng.uniform(-25, 25, (6, dim)))
        pose = Pose(random_rotation(rng, dim), rng.uniform(-4, 4, dim))
        omega = rng.uniform(-1, 1) if dim == 2 else rng.uniform(-1, 1, 3)
        motion = BodyMotion(omega, rng.uniform(-10, 10, dim))
        return conf, anchors, pose, motion

    @pytest.mark.parametrize("dim", [2, 3])
    def test_generate_recover(self, dim):
        conf, anchors, pose, motion = self.make_case(70, dim)
        rates = simulate_range_rates(anchors, conf, pose, motion)
        est = estimate_motion(anchors, pose, conf, rates)
        assert np.allclose(np.atleast_1d(est.motion.omega),
                           np.atleast_1d(motion.omega), atol=1e-8)
        assert np.allclose(est.motion.t_dot, motion.t_dot, atol=1e-8)
        assert est.residual_rms < 1e-9

    def test_static_body(self):
        conf, anchors, pose, _ = self.make_case(71, 3)
        motion = BodyMotion(np.zeros(3), np.zeros(3))
        rates = simulate_range_rates(anchors, conf, pose, motion)
        est = estimate_motion(anchors, pose, conf, rates)
        assert np.allclose(np.atleast_1d(est.motion.omega), 0.0, atol=1e-10)
        assert np.allclose(est.motion.t_dot, 0.0, atol=1e-10)

    def test_partial_rates(self):
        conf, anchors, pose, motion = self.make_case(72, 3)
        rates = simulate_range_rates(anchors, conf, pose, motion)
        rates[::2, ::2] = np.nan  # still well over 6 observations
        est = estimate_motion(anchors, pose, conf, rates)
        assert np.allclose(est.motion.t_dot, motion.t_dot, atol=1e-8)

    def test_mask_of_another_shape_raises(self):
        """A length-K or M x 1 mask must not broadcast over the M x K rates."""
        conf, anchors, pose, motion = self.make_case(75, 3)
        rates = simulate_range_rates(anchors, conf, pose, motion)
        for shape in ((conf.num_nodes,), (anchors.num_anchors, 1)):
            with pytest.raises(ValueError, match="mask shape"):
                estimate_motion(anchors, pose, conf, rates, np.ones(shape, dtype=bool))

    def test_underdetermined_raises(self):
        conf, anchors, pose, motion = self.make_case(73, 3)
        rates = simulate_range_rates(anchors, conf, pose, motion)
        keep = np.zeros_like(rates, dtype=bool)
        keep.flat[:5] = True  # five rows cannot fix six unknowns
        rates[~keep] = np.nan
        with pytest.raises(InsufficientMeasurementsError):
            estimate_motion(anchors, pose, conf, rates)

    def test_single_node_spin_unobservable(self):
        """One node moving with the body gives rank-deficient equations."""
        conf = Conformation([[1.0, 1.0, 0.5]])
        rng = np.random.default_rng(74)
        anchors = AnchorSet(rng.uniform(-25, 25, (8, 3)))
        pose = Pose.identity(3)
        motion = BodyMotion([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
        rates = simulate_range_rates(anchors, conf, pose, motion)
        with pytest.raises(DegenerateGeometryError):
            estimate_motion(anchors, pose, conf, rates)

    def test_node_on_an_anchor_is_degenerate(self):
        """A node at an anchor has no direction: a classified failure."""
        conf = Conformation([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        anchors = AnchorSet([[0.0, 0.0, 0.0], [9.0, 0.0, 0.0], [0.0, 9.0, 0.0],
                             [0.0, 0.0, 9.0]])
        rates = np.zeros((4, 3))
        with pytest.raises(DegenerateGeometryError, match="coincides"):
            estimate_motion(anchors, Pose.identity(3), conf, rates)
