"""Batched estimation: ``multilaterate`` on range matrices, the
two-stage array core, the stage-3 pose refinement, the joint start, the
velocity fit, the batched congruent start, the stacked pose and range
checks, and their agreement with one-at-a-time calls."""

import itertools

import numpy as np
import pytest

from rigidloc import estimators, placement
from rigidloc.completion import _congruent_fill_batch
from rigidloc.estimators import (
    DegenerateGeometryError,
    InsufficientMeasurementsError,
    _cached_subset,
    _joint_start,
    _motion_fits,
    _pattern_groups,
    _refine,
    _rigid_range_rows,
    _subset_geometry,
    _two_stage,
    multilaterate,
    rbl_two_stage,
)
from rigidloc.geometry import (
    ORTHOGONALITY_TOL,
    Conformation,
    Pose,
    _apply_linear_factor,
    _check_poses,
    _linear_factor,
    _node_velocities,
    _place,
    _squared_norms,
    apply_pose,
    random_rotation,
    rotation_2d,
    rotation_about_axis,
    rotation_geodesic_error,
)
from rigidloc.harness import box_vehicle_conformation, cube_anchor_layout
from rigidloc.measurement import (
    AnchorSet,
    MaskedRangeMatrix,
    _check_observed,
    _range_rates,
    simulate_ranges,
)
from rigidloc.placement import range_blocks, uniform_pose


def ranges_to(anchors, point):
    return np.linalg.norm(anchors.positions - np.asarray(point, float), axis=1)


def mixed_columns(dim, rng, count):
    """Range columns of every kind for a fixed anchor set: full rank,
    noisy, mirror pairs, anchor hits (exact, or a range clamped at 0 that
    the others do not fit), too few anchors and (3D) degenerate."""
    if dim == 3:
        # the first four anchors are one face of a cube; the last three
        # are collinear
        anchors = AnchorSet([[30, 30, 30], [30, -30, 30], [-30, 30, 30],
                             [-30, -30, 30], [30, 30, -30], [-30, -30, -30],
                             [0, 0, 5], [0, 0, 15], [0, 0, 25]])
        face = np.array([True] * 4 + [False] * 5)
        line = np.array([False] * 6 + [True] * 3)
    else:
        # the first three anchors are collinear
        anchors = AnchorSet([[0, 0], [10, 0], [20, 0], [5, 12], [-8, 6]])
        face = np.array([True, True, True, False, False])
        line = None
    m = anchors.num_anchors
    cols, masks = [], []
    for i in range(count):
        target = rng.uniform(-6, 6, dim)
        d = ranges_to(anchors, target)
        mask = np.ones(m, dtype=bool)
        kind = i % 6
        if kind == 1:
            d = np.abs(d + rng.normal(0, 0.1, m))
        elif kind == 2:
            mask = face.copy()
            d = np.abs(d + rng.normal(0, 0.05 * (i % 2), m))
        elif kind == 3 and (i // 6) % 2:
            d[rng.integers(m)] = 0.0
        elif kind == 3:
            d = ranges_to(anchors, anchors.positions[rng.integers(m)])
        elif kind == 4:
            mask[: m - dim + 1] = False
        elif kind == 5 and line is not None:
            mask = line.copy()
        elif kind == 5:
            mask = rng.random(m) > 0.3
        cols.append(np.where(mask, d, np.nan))
        masks.append(mask)
    return anchors, np.array(cols).T, np.array(masks).T


def single_outcome(anchors, column, mask):
    try:
        fix = multilaterate(anchors, column, mask)
    except ValueError as err:
        return type(err)
    return fix


class TestMatrixMultilaterate:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_single_columns(self, dim):
        anchors, values, mask = mixed_columns(dim, np.random.default_rng(dim), 60)
        fix = multilaterate(anchors, values, mask)
        assert fix.position.shape == (values.shape[1], dim)
        assert isinstance(fix.iterations, int)
        assert isinstance(fix.converged, bool)
        kinds = set()
        for b in range(values.shape[1]):
            one = single_outcome(anchors, values[:, b], mask[:, b])
            if isinstance(one, type):
                kinds.add(one)
                assert type(fix.errors[b]) is one
                assert np.all(np.isnan(fix.position[b]))
                continue
            assert fix.errors[b] is None
            assert np.array_equal(fix.position[b], one.position)
            assert fix.residual_rms[b] == one.residual_rms
            assert fix.point_iterations[b] == one.iterations
            assert fix.point_converged[b] == one.converged
            assert fix.ambiguous[b] == one.ambiguous
            if one.ambiguous:
                kinds.add("mirror")
                assert np.array_equal(fix.candidates[b], np.array(one.candidates))
            elif one.iterations == 0:
                kinds.add("exact")
            else:
                kinds.add("full")
        expected = {"full", "mirror", "exact", InsufficientMeasurementsError}
        if dim == 3:
            expected.add(DegenerateGeometryError)
        assert kinds == expected
        solved = [e is None for e in fix.errors]
        assert fix.iterations == int(fix.point_iterations[solved].sum())

    def test_one_linear_start_per_rank_and_count(self, monkeypatch):
        """Columns whose observed anchors differ but share their rank and
        count take their linearized starts together, each from its own
        pattern's factor: one call for 21 patterns of five anchors in
        general position, one for 15 of four, one for the 4 mirror patterns
        of three anchors in a plane, and every column is fixed as a
        one-column call fixes it."""
        rng = np.random.default_rng(112)
        anchors = AnchorSet(np.concatenate([rng.uniform(-20, 20, (7, 3)),
                                            np.column_stack([rng.uniform(-20, 20, (4, 2)),
                                                             np.zeros(4)])]))
        general, plane = np.arange(7), np.arange(7, 11)
        picks = ([list(c) for c in itertools.combinations(general, 5)]
                 + [list(c) for c in itertools.combinations(general[:6], 4)]
                 + [list(c) for c in itertools.combinations(plane, 3)])
        mask = np.zeros((11, len(picks)), dtype=bool)
        for b, pick in enumerate(picks):
            mask[pick, b] = True
        truth = rng.uniform(-5, 5, (len(picks), 3)) + [0.0, 0.0, 3.0]
        values = np.linalg.norm(anchors.positions[:, None] - truth, axis=2)
        values = np.where(mask, values + rng.normal(0, 0.05, values.shape), np.nan)
        calls = []
        apply_factor = estimators._apply_linear_factor

        def counted(factor, dists):
            calls.append(len(dists))
            return apply_factor(factor, dists)

        monkeypatch.setattr(estimators, "_apply_linear_factor", counted)
        fix = multilaterate(anchors, values, mask)
        assert sorted(calls) == [4, 15, 21]
        assert fix.ambiguous.sum() == 4
        monkeypatch.setattr(estimators, "_apply_linear_factor", apply_factor)
        for b in range(len(picks)):
            one = multilaterate(anchors, values[:, b], mask[:, b])
            assert np.array_equal(fix.position[b], one.position)
            assert fix.residual_rms[b] == one.residual_rms

    def test_vector_is_the_one_column_case(self):
        anchors = AnchorSet([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
        d = ranges_to(anchors, [1.0, 1.0])
        one = multilaterate(anchors, d)
        column = multilaterate(anchors, d[:, None])
        assert np.array_equal(column.position[0], one.position)
        assert column.iterations == one.iterations
        assert column.converged == one.converged

    def test_mirror_pair_counts_both_candidates(self, monkeypatch):
        monkeypatch.setattr(estimators, "GN_MAX_ITER", 1)
        anchors = AnchorSet([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0],
                             [4.0, 4.0, 0.0]])
        d = ranges_to(anchors, [1.0, 2.0, 2.0]) + [0.01, -0.02, 0.015, 0.0]
        fix = multilaterate(anchors, d)
        assert fix.ambiguous
        assert fix.iterations == 2
        assert not fix.converged

    def test_length_mismatch_raises(self):
        anchors = AnchorSet([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
        with pytest.raises(ValueError):
            multilaterate(anchors, np.ones((4, 2)))


def assert_same_fix(a, b):
    """Bit-identical matrix ``PointFix`` results, errors compared by type."""
    for name in ("position", "candidates", "residual_rms", "point_iterations",
                 "point_converged", "ambiguous"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
    assert [type(e) for e in a.errors] == [type(e) for e in b.errors]


class TestPatternCache:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_cold_and_warm_cache_agree(self, dim):
        anchors, values, mask = mixed_columns(dim, np.random.default_rng(40 + dim), 60)
        _cached_subset.cache_clear()
        cold = multilaterate(anchors, values, mask)
        misses = _cached_subset.cache_info().misses
        warm = multilaterate(anchors, values, mask)
        assert _cached_subset.cache_info().misses == misses
        assert _cached_subset.cache_info().hits >= misses
        assert_same_fix(cold, warm)

    def test_anchor_sets_sharing_a_pattern_keep_their_own_entries(self):
        first = cube_anchor_layout(8, dim=3, span=60.0)
        moved = first.positions.copy()
        moved[5, 2] += 1.0
        second = AnchorSet(moved)
        mask = np.ones(8, dtype=bool)
        mask[[1, 6]] = False
        key = np.packbits(mask).tobytes()
        d = np.where(mask, ranges_to(second, [1.0, -2.0, 0.5]), np.nan)
        _cached_subset.cache_clear()
        alone = multilaterate(second, d[:, None])
        _cached_subset.cache_clear()
        multilaterate(first, np.where(mask, ranges_to(first, [1.0, -2.0, 0.5]), np.nan))
        assert_same_fix(alone, multilaterate(second, d[:, None]))
        for anchors in (first, second):
            sub = _subset_geometry(anchors.positions, key)
            assert np.array_equal(sub.points, anchors.positions[mask])
            for got, want in zip(sub.factor, _linear_factor(anchors.positions[mask])):
                assert np.array_equal(got, want)
        # the same bytes and pattern read as another shape are another point set
        block = first.positions[:4]
        every = np.packbits(np.ones(4, dtype=bool)).tobytes()
        assert _subset_geometry(block, every).points.shape == (4, 3)
        assert _subset_geometry(block.reshape(6, 2), every).points.shape == (4, 2)
        assert _cached_subset.cache_info().currsize == 4

    def test_cached_arrays_are_read_only(self):
        anchors = cube_anchor_layout(8, dim=3, span=60.0)
        face = anchors.positions[:, 0] > 0
        sub = _subset_geometry(anchors.positions, np.packbits(face).tobytes())
        assert sub.rank == 2
        arrays = [sub.points, sub.normal, sub.in_plane, sub.plane_points,
                  *sub.factor[:2], *sub.plane_factor[:2]]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0


@pytest.mark.parametrize("m", [3, 8, 9, 20, 70])
def test_pattern_groups_match_np_unique(m):
    rng = np.random.default_rng(m)
    pool = rng.random((12, m)) < 0.6
    inputs = [pool[rng.integers(12, size=200)], rng.random((50, m)) < 0.5,
              np.ones((30, m), dtype=bool), np.zeros((0, m), dtype=bool)]
    for obs in inputs:
        patterns, which, keys = _pattern_groups(obs)
        want_patterns, want_which = np.unique(obs, axis=0, return_inverse=True)
        assert patterns.shape == want_patterns.shape
        assert np.array_equal(patterns, want_patterns)
        assert np.array_equal(which, want_which.reshape(-1))
        assert keys == [np.packbits(p).tobytes() for p in patterns]


class TestBatchTwoStage:
    def trials(self, count, nodes=8):
        anchors = cube_anchor_layout(8, dim=3, span=60.0)
        conf = box_vehicle_conformation(nodes, dim=3)
        rng = np.random.default_rng(77)
        out = []
        for i in range(count):
            pose = Pose(random_rotation(rng, 3), rng.uniform(-5, 5, 3))
            ranges = simulate_ranges(anchors, apply_pose(conf, pose),
                                     0.1 * (i % 3), None, rng)
            values, mask = ranges.values.copy(), ranges.mask.copy()
            if i % 5 == 1:
                mask[rng.random(mask.shape) < 0.4] = False
            elif i % 5 == 2:
                mask[[2, 3, 4, 5]] = False  # only the x = +30 face: mirrors
            elif i % 5 == 3:
                mask[3:] = False  # no usable node
            out.append(MaskedRangeMatrix(np.where(mask, values, np.nan), mask))
        return anchors, conf, out

    @staticmethod
    def block(anchors, conf, ranges, weighted=True):
        """``_two_stage`` on the stacked trials."""
        return _two_stage(anchors, conf, np.stack([r.values for r in ranges]),
                          np.stack([r.mask for r in ranges]), weighted)

    @pytest.mark.parametrize("weighted", [True, False])
    def test_matches_rbl_two_stage(self, weighted):
        """Row t of one block is, bit for bit, ``rbl_two_stage`` on trial t,
        or the error it raises."""
        anchors, conf, ranges = self.trials(40)
        fit = self.block(anchors, conf, ranges, weighted)
        outcomes = set()
        for t, r in enumerate(ranges):
            try:
                est = rbl_two_stage(anchors, r, conf, weighted=weighted)
            except ValueError as err:
                assert type(fit.failed[t]) is type(err)
                assert str(fit.failed[t]) == str(err)
                assert np.isnan(fit.rotation[t]).all()
                outcomes.add(type(err))
                continue
            assert fit.failed[t] is None
            assert np.array_equal(fit.rotation[t], est.pose.rotation)
            assert np.array_equal(fit.translation[t], est.pose.translation)
            assert (fit.stage1_rms[t], fit.stage2_rms[t], fit.iterations[t],
                    fit.rotation_unique[t], tuple(np.flatnonzero(fit.ambiguous[t])),
                    fit.unconverged[t]) == (
                        est.stage1_rms, est.stage2_rms, est.iterations,
                        est.rotation_unique, est.ambiguous_nodes,
                        est.unconverged_nodes)
            outcomes.add("ambiguous" if est.ambiguous_nodes else "estimate")
        assert outcomes == {"estimate", "ambiguous", InsufficientMeasurementsError}

    def test_no_usable_node_is_an_insufficient_error(self):
        anchors, conf, ranges = self.trials(4)
        assert isinstance(self.block(anchors, conf, ranges).failed[3],
                          InsufficientMeasurementsError)
        with pytest.raises(InsufficientMeasurementsError, match="no node has enough"):
            rbl_two_stage(anchors, ranges[3], conf)

    def test_wrong_shape_raises(self):
        anchors, conf, _ = self.trials(1)
        with pytest.raises(ValueError, match="shape"):
            rbl_two_stage(anchors, MaskedRangeMatrix(np.ones((8, 3))), conf)
        with pytest.raises(ValueError, match="dimensions differ"):
            rbl_two_stage(cube_anchor_layout(8, dim=2, span=60.0),
                          MaskedRangeMatrix(np.ones((8, 8))), conf)

    def test_unconverged_nodes_reported(self, monkeypatch):
        anchors = cube_anchor_layout(8, dim=3, span=60.0)
        conf = box_vehicle_conformation(8, dim=3)
        rng = np.random.default_rng(5)
        pose = Pose(random_rotation(rng, 3), rng.uniform(-5, 5, 3))
        body = apply_pose(conf, pose)
        monkeypatch.setattr(estimators, "GN_MAX_ITER", 1)
        noisy = rbl_two_stage(anchors, simulate_ranges(anchors, body, 0.1, None, rng),
                              conf)
        exact = rbl_two_stage(anchors, simulate_ranges(anchors, body, 0.0), conf)
        assert noisy.unconverged_nodes > 0
        assert exact.unconverged_nodes == 0


class TestRefinePoses:
    """Stage 3, ``_refine``, on stacked poses and ranges."""

    def scene(self, dim, count, sigma, seed=31):
        """Anchors, body, true poses and ranges with about 30% missing."""
        anchors = cube_anchor_layout(8, dim=dim, span=60.0)
        conf = box_vehicle_conformation(8, dim=dim)
        rng = np.random.default_rng((seed, dim))
        poses, ranges = [], []
        for _ in range(count):
            pose = Pose(random_rotation(rng, dim), rng.uniform(-5, 5, dim))
            full = simulate_ranges(anchors, apply_pose(conf, pose), sigma, None, rng)
            mask = rng.random(full.shape) >= 0.3
            poses.append(pose)
            ranges.append(MaskedRangeMatrix(np.where(mask, full.values, np.nan), mask))
        return anchors, conf, poses, ranges

    @staticmethod
    def refine(anchors, conf, rotations, translations, ranges):
        return _refine(anchors, conf, rotations, translations,
                       np.stack([r.values for r in ranges]), np.stack([r.mask for r in ranges]))

    @staticmethod
    def assert_exact(rotations, translations, poses):
        for rot, trans, pose in zip(rotations, translations, poses, strict=True):
            assert np.linalg.norm(trans - pose.translation) < 1e-9
            assert rotation_geodesic_error(rot, pose.rotation) < 1e-9

    @pytest.mark.parametrize("dim", [2, 3])
    def test_noiseless_refinement_is_exact(self, dim):
        anchors, conf, poses, ranges = self.scene(dim, 10, 0.0)
        full = [simulate_ranges(anchors, apply_pose(conf, p), 0.0) for p in poses]
        start = TestBatchTwoStage.block(anchors, conf, full)
        assert start.rotation_unique.all()
        rot, trans, iterations, converged = self.refine(
            anchors, conf, start.rotation, start.translation, ranges)
        self.assert_exact(rot, trans, poses)
        assert converged.all()
        assert (iterations > 0).all()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_perturbed_start_converges(self, dim):
        anchors, conf, poses, ranges = self.scene(dim, 10, 0.0)
        rng = np.random.default_rng(dim)
        angle = np.deg2rad(5.0)
        start = []
        for pose in poses:
            turn = rotation_2d(angle) if dim == 2 \
                else rotation_about_axis(rng.normal(size=3), angle)
            shift = rng.normal(size=dim)
            shift *= 0.3 / np.linalg.norm(shift)
            start.append(Pose(turn @ pose.rotation, pose.translation + shift))
        rot, trans, _, converged = self.refine(
            anchors, conf, np.stack([p.rotation for p in start]),
            np.stack([p.translation for p in start]), ranges)
        self.assert_exact(rot, trans, poses)
        assert converged.all()


@pytest.mark.parametrize("dim", [2, 3])
def test_stage1_rms_is_the_rms_of_the_fitted_ranges(dim):
    """Stage 1's ``residual_rms`` is, bit for bit, the RMS of
    ``_range_residuals`` over the observed ranges at the reported point,
    on masked, exact-hit and clamped-zero columns; a mirror pair reports
    the smaller RMS of its two candidates."""
    anchors = cube_anchor_layout(8, dim=dim, span=60.0)
    rng = np.random.default_rng((17, dim))
    points = rng.uniform(-10.0, 10.0, (240, dim))
    points[::12] = anchors.positions[3]
    values = (np.sqrt(((points[:, None] - anchors.positions) ** 2).sum(axis=-1))
              + np.where(np.arange(240)[:, None] % 12 == 0, 0.0,
                         rng.normal(0.0, 0.1, (240, 8))))
    values = np.maximum(values, 0.0)
    values[5::12, 2] = 0.0
    obs = rng.random(values.shape) >= 0.3
    obs[::12] = obs[5::12] = True
    obs[7::12] = False
    obs[7::12, :dim] = True
    fix = multilaterate(anchors, values.T, obs.T)
    kinds = {"exact": np.arange(0, 240, 12), "clamped": np.arange(5, 240, 12),
             "mirror": np.arange(7, 240, 12)}
    assert np.all(fix.residual_rms[kinds["exact"]] == 0.0)
    assert np.all(fix.point_iterations[kinds["clamped"]] > 0)
    assert fix.ambiguous[kinds["mirror"]].all()
    assert sum(e is None for e in fix.errors) == 240
    dists = np.where(obs, values, 0.0)

    def rms(x):
        resid = estimators._range_residuals(x, anchors.positions, dists, obs)
        return np.sqrt((resid**2).sum(axis=-1) / obs.sum(axis=1))

    mirror = fix.ambiguous
    assert np.array_equal(fix.residual_rms[~mirror], rms(fix.position)[~mirror])
    candidates = np.minimum(rms(fix.candidates[:, 0]), rms(fix.candidates[:, 1]))
    assert np.array_equal(fix.residual_rms[mirror], candidates[mirror])


class TestGaussNewtonKernel:
    """``estimators._gauss_newton`` evaluates its model once per iteration,
    linearizes it only where the fit goes on, evaluates nothing once a fit
    ends, and ``_backtrack`` halves only the steps that raise the
    objective by more than rounding."""

    @staticmethod
    def count_evaluations(monkeypatch, model_name):
        """Wrap the model ``model_name`` builds and ``_backtrack``; returns
        per-problem counts: ``linearized``, ``evaluated`` (calls of
        ``residuals`` that include the problem), ``backtracked`` (halved
        steps), ``resumed`` (halved steps after which the problem goes
        on) and ``ended`` (full steps below GN_STEP_TOL)."""
        counts = {}
        build, backtrack = getattr(estimators, model_name), estimators._backtrack

        def counting_model(*args):
            residuals, linearize = build(*args)
            size = len(args[-1])
            for name in ("linearized", "evaluated", "backtracked", "resumed", "ended"):
                counts[name] = np.zeros(size, dtype=int)

            def counted_residuals(x, rows):
                np.add.at(counts["evaluated"], np.unique(rows), 1)
                return residuals(x, rows)

            def counted_linearize(x, rows):
                np.add.at(counts["linearized"], rows, 1)
                return linearize(x, rows)
            return counted_residuals, counted_linearize

        def counting_backtrack(x, step, norm, residuals, rows, obj, objective):
            assert np.array_equal(norm, np.sqrt((step**2).sum(axis=1)))
            before = objective.copy()
            scale = backtrack(x, step, norm, residuals, rows, obj, objective)
            assert np.array_equal(objective, before)
            halved = scale < 1.0
            np.add.at(counts["backtracked"], rows[halved], 1)
            np.add.at(counts["resumed"],
                      rows[halved & (scale * norm >= estimators.GN_STEP_TOL)], 1)
            np.add.at(counts["ended"], rows[norm < estimators.GN_STEP_TOL], 1)
            return scale

        monkeypatch.setattr(estimators, model_name, counting_model)
        monkeypatch.setattr(estimators, "_backtrack", counting_backtrack)
        return counts

    @staticmethod
    def assert_one_evaluation_per_iteration(counts, iterations, converged):
        # a full step below tolerance ends the fit, so its problem is not
        # linearized there; ``residuals`` is evaluated only at halvings,
        # never once a fit has ended
        assert counts["ended"].sum() > 0
        assert np.all(counts["ended"] <= converged)
        assert np.array_equal(counts["linearized"],
                              iterations + 1 + counts["resumed"] - counts["ended"])
        assert np.all(counts["evaluated"] <= counts["backtracked"])
        # near a minimum at 0.1 m noise a step changes the objective by
        # rounding, which the step test lets through
        assert counts["backtracked"][converged].sum() <= 0.01 * iterations[converged].sum()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stage1_linearizes_once_per_iteration(self, dim, monkeypatch):
        anchors = cube_anchor_layout(8, dim=dim, span=60.0)
        rng = np.random.default_rng((5, dim))
        points = rng.uniform(-10.0, 10.0, (300, dim))
        values = (np.sqrt(((points[:, None] - anchors.positions) ** 2).sum(axis=-1))
                  + rng.normal(0.0, 0.1, (300, 8)))
        counts = self.count_evaluations(monkeypatch, "_range_model")
        fix = multilaterate(anchors, values.T)
        assert fix.converged
        self.assert_one_evaluation_per_iteration(counts, fix.point_iterations,
                                                 fix.point_converged)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stage3_linearizes_once_per_iteration(self, dim, monkeypatch):
        anchors, conf, _, ranges = TestRefinePoses().scene(dim, 60, 0.1)
        start = TestBatchTwoStage.block(anchors, conf, ranges)
        assert start.rotation_unique.all()
        counts = self.count_evaluations(monkeypatch, "_pose_model")
        _, _, iterations, converged = TestRefinePoses.refine(
            anchors, conf, start.rotation, start.translation, ranges)
        self.assert_one_evaluation_per_iteration(counts, iterations, converged)

    @staticmethod
    def scalar_model(resid, slope):
        """Residuals ``resid(x)`` (one row per problem) of scalar problems,
        with the Jacobian column ``slope(x)``."""
        def linearize(x, rows):
            return resid(x), slope(x)[..., None]
        return lambda x, rows: resid(x), linearize

    def test_overshooting_step_is_halved(self, monkeypatch):
        """x³ = 1 from x = 0.1: the full step lands near 33 and raises the
        objective about 1e9-fold; the second problem starts near the root."""
        residuals, linearize = self.scalar_model(lambda x: x**3 - 1.0,
                                                 lambda x: 3.0 * x**2)
        start = np.array([[0.1], [1.05]])
        monkeypatch.setattr(estimators, "GN_MAX_ITER", 1)
        x, _, _ = estimators._gauss_newton(start, residuals, linearize)
        step = -(start**3 - 1.0) / (3.0 * start**2)
        scale = 1.0
        while ((start[0] + scale * step[0]) ** 3 - 1.0) ** 2 > (start[0] ** 3 - 1.0) ** 2:
            scale /= 2
        assert scale < 1.0
        assert (x - start)[:, 0] / step[:, 0] == pytest.approx([scale, 1.0])
        assert (x[0, 0] ** 3 - 1.0) ** 2 < (start[0, 0] ** 3 - 1.0) ** 2
        monkeypatch.setattr(estimators, "GN_MAX_ITER", 100)
        x, _, converged = estimators._gauss_newton(start, residuals, linearize)
        assert converged.all()
        assert np.allclose(x, 1.0)

    @pytest.mark.parametrize("rise", [0.1, 10.0])
    def test_step_test_allows_rounding_only(self, rise, monkeypatch):
        """A Jacobian of the wrong sign doubles x = 1e-5 in one step, which
        raises the objective of the residuals (x, c) by 3x². Chosen against
        c², that rise is ``rise`` times the allowance: within it the step is
        taken whole, beyond it halved."""
        x0 = 1e-5
        offset = np.sqrt(3.0 * x0**2 / (rise * estimators.GN_OBJECTIVE_RTOL) - x0**2)
        residuals, linearize = self.scalar_model(
            lambda x: np.hstack([x, np.full_like(x, offset)]),
            lambda x: np.hstack([-np.ones_like(x), np.zeros_like(x)]))
        monkeypatch.setattr(estimators, "GN_MAX_ITER", 1)
        x, _, _ = estimators._gauss_newton(np.array([[x0]]), residuals, linearize)
        if rise < 1.0:
            assert x[0, 0] == 2.0 * x0
        else:
            assert x0 < x[0, 0] < 2.0 * x0

    def test_step_below_tolerance_is_taken_whole(self):
        """A full step below GN_STEP_TOL ends the fit at scale 1, though
        it raises the objective: it is neither tested, halved nor
        linearized, so the fit ends with no evaluation at all."""
        evaluated, linearized = [], []
        residuals, linearize = self.scalar_model(lambda x: x, lambda x: -np.ones_like(x))

        def counted(x, rows):
            evaluated.append(x.copy())
            return residuals(x, rows)

        def counted_linearize(x, rows):
            linearized.append(x.copy())
            return linearize(x, rows)

        x0 = 0.25 * estimators.GN_STEP_TOL
        x, iterations, converged = estimators._gauss_newton(
            np.array([[x0]]), counted, counted_linearize)
        assert x[0, 0] == 2.0 * x0
        assert iterations[0] == 1 and converged[0]
        assert [p.tolist() for p in linearized] == [[[x0]]]
        assert evaluated == []

    def test_only_going_problems_are_linearized(self):
        """x³ = 1 from 1 + 1e-13 ends on its first step, which is below
        GN_STEP_TOL, while the problem from 2 takes several: after the
        start, every linearization is of the second problem alone, the
        first ends where Newton's step puts it, and no step is tested by
        ``residuals``."""
        linearized, evaluated = [], []
        residuals, linearize = self.scalar_model(lambda x: x**3 - 1.0,
                                                 lambda x: 3.0 * x**2)

        def counted_linearize(x, rows):
            linearized.append(rows.tolist())
            return linearize(x, rows)

        def counted(x, rows):
            evaluated.append(rows.tolist())
            return residuals(x, rows)

        start = np.array([[1.0 + 1e-13], [2.0]])
        x, iterations, converged = estimators._gauss_newton(start, counted, counted_linearize)
        assert converged.all() and iterations[0] == 1 and iterations[1] > 3
        step = -(start[0, 0] ** 3 - 1.0) / (3.0 * start[0, 0] ** 2)
        assert x[0, 0] == start[0, 0] + step
        assert evaluated == []
        assert linearized[0] == [0, 1]
        assert all(rows == [1] for rows in linearized[1:])
        assert len(linearized) == iterations[1]


@pytest.mark.parametrize("dim", [2, 3])
def test_motion_design_matches_explicit_rows(dim, monkeypatch):
    """``_motion_fits`` solves a trial on one row per observed (anchor,
    node) pair, in row-major order."""
    rng = np.random.default_rng(60 + dim)
    anchors = cube_anchor_layout(8 if dim == 3 else 4, dim=dim, span=60.0)
    conf = box_vehicle_conformation(8, dim=dim)
    pose = Pose(random_rotation(rng, dim), rng.uniform(-5, 5, dim))
    rates = rng.normal(size=(anchors.num_anchors, conf.num_nodes))
    obs = rng.random(rates.shape) > 0.3
    solves, lstsq = [], np.linalg.lstsq

    def recorded(design, rhs, rcond):
        solves.append((design, rhs))
        return lstsq(design, rhs, rcond=rcond)
    monkeypatch.setattr(np.linalg, "lstsq", recorded)
    _motion_fits(anchors, conf, pose.rotation[None], pose.translation[None], rates[None],
                 obs[None])
    (design, rhs), = solves
    body = apply_pose(conf, pose).positions
    rows, expected_rhs = [], []
    for n in range(anchors.num_anchors):
        for m in range(conf.num_nodes):
            if not obs[n, m]:
                continue
            u = body[m] - anchors.positions[n]
            u = u / np.linalg.norm(u)
            r = pose.rotation @ conf.coords[m]
            if dim == 2:
                rows.append([u @ (np.array([[0.0, -1.0], [1.0, 0.0]]) @ r), *u])
            else:
                rows.append([*np.cross(r, u), *u])
            expected_rhs.append(rates[n, m])
    assert np.allclose(design, np.array(rows), rtol=0.0, atol=1e-12)
    assert np.array_equal(rhs, np.array(expected_rhs))


class TestPerCoordinateKernels:
    """The per-coordinate kernels give what numpy's own reductions and
    ``np.cross`` give, bit for bit, so that writing a model with them
    leaves every output unchanged."""

    @staticmethod
    def mixed(rng, shape):
        """Signed values over 40 orders of magnitude, with exact zeros."""
        values = rng.normal(size=shape) * 10.0 ** rng.uniform(-20.0, 20.0, shape)
        values[rng.random(shape) < 0.05] = 0.0
        return values

    @pytest.mark.parametrize("dim", [2, 3])
    def test_squared_norms_match_sum(self, dim):
        rng = np.random.default_rng(80 + dim)
        for shape in [(200_000, dim), (1, dim), (6, 8, 14, dim)]:
            diff = self.mixed(rng, shape)
            assert np.array_equal(_squared_norms(diff), (diff**2).sum(axis=-1))
        # a strided view, as the model's coordinates are
        diff = self.mixed(rng, (1000, 2 * dim))[:, ::2]
        assert np.array_equal(_squared_norms(diff), (diff**2).sum(axis=-1))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rigid_range_rows_match_cross_product(self, dim):
        """Rotated offsets (B x 1 x K x D) broadcast against differences
        (B x M x K x D): the rows are [q x u, u] as ``np.cross`` and a
        concatenation build them, and the planar [u . (J2 q), u]."""
        rng = np.random.default_rng(90 + dim)
        rotated = self.mixed(rng, (5, 1, 7, dim))
        diff = self.mixed(rng, (5, 4, 7, dim))
        dist = np.sqrt((diff**2).sum(axis=-1)) + 1e-300
        u = diff / dist[..., None]
        if dim == 3:
            spin = np.cross(np.broadcast_to(rotated, u.shape), u)
        else:
            spin = (u[..., 1] * rotated[..., 0] - u[..., 0] * rotated[..., 1])[..., None]
        rows = _rigid_range_rows(rotated, diff, dist)
        assert rows.shape == (5, 4, 7, 3 * dim - 3)
        assert np.array_equal(rows, np.concatenate([spin, u], axis=-1))


def test_linear_trilaterate_rejects_rank_deficient_rows():
    flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                     [1.0, 1.0, 0.0]])
    assert _apply_linear_factor(_linear_factor(flat), np.ones(4))[1] < 3
    anchors = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0],
                        [0.0, 0.0, 4.0]])
    target = np.array([1.0, 2.0, 0.5])
    fix, rank = _apply_linear_factor(_linear_factor(anchors),
                                     np.linalg.norm(anchors - target, axis=1))
    assert rank == 3
    assert np.allclose(fix[0], target, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_linear_factor_matches_shared_anchors(dim):
    """Row b of the fixes from a stack of anchor sets is the fix of set b
    alone, bit for bit and with the same rank, for sets that span the
    space, a hyperplane or a line."""
    rng = np.random.default_rng(70 + dim)
    stack = rng.uniform(-20.0, 20.0, (30, dim + 3, dim))
    stack[10:20, :, -1] = 0.0
    # integer points on a line through an integer point are exactly collinear
    steps = rng.integers(-5, 6, (10, dim + 3, 1))
    stack[20:] = rng.integers(-9, 10, (10, 1, dim)) + steps * rng.integers(1, 4, (10, 1, dim))
    dists = rng.uniform(1.0, 30.0, (30, dim + 3))
    fix, rank = _apply_linear_factor(_linear_factor(stack), dists)
    for b in range(30):
        alone, alone_rank = _apply_linear_factor(_linear_factor(stack[b]), dists[b])
        assert np.array_equal(fix[b], alone[0])
        assert rank[b] == alone_rank
    assert rank.tolist() == [dim] * 10 + [dim - 1] * 10 + [1] * 10


def assert_same_outcome(got, want):
    """One problem's results, tuples of arrays and plain values, agree."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(a, (type, tuple, bool, type(None))):
            assert a == b
        else:
            assert np.array_equal(a, b, equal_nan=True)


class TestBatchIndependence:
    """Every problem's result is bit-identical solved alone, in blocks of
    16 and in one block of all problems. The scenes are 2D and 3D with 30%
    of the ranges masked; 130 anchors take the sums over anchors past
    numpy's 128-term pairwise block, and 20 nodes the pose refinement's
    sums past it too. The range matrices are Fortran-ordered, as column
    slices of a larger matrix are."""

    SHAPES = [(2, 4, 5), (3, 5, 6), (2, 130, 20), (3, 130, 20)]

    @staticmethod
    def scene(dim, m, k):
        """Anchors 0, 1 and 2 are collinear."""
        rng = np.random.default_rng((dim, m, k))
        positions = rng.uniform(-40.0, 40.0, (m, dim))
        positions[2] = 2.0 * positions[1] - positions[0]
        anchors = AnchorSet(positions)
        conf = Conformation(rng.uniform(-2.0, 2.0, (k, dim)))
        trials = 24 if m < 100 else 18
        ranges = []
        for _ in range(trials):
            pose = Pose(random_rotation(rng, dim), rng.uniform(-5.0, 5.0, dim))
            full = simulate_ranges(anchors, apply_pose(conf, pose), 0.1, None, rng)
            # every other trial masks whole anchors, so that its nodes share
            # one observation pattern
            draw = rng.random((m, k if len(ranges) % 2 else 1))
            mask = np.broadcast_to(draw >= 0.3, full.shape)
            ranges.append(MaskedRangeMatrix(np.where(mask, full.values, np.nan), mask))
        return anchors, conf, ranges

    @staticmethod
    def assert_block_independent(solve, count):
        """``solve(indices)`` returns one result per index."""
        whole = solve(np.arange(count))
        assert len(whole) == count
        for size in (1, 16):
            for start in range(0, count, size):
                block = np.arange(start, min(start + size, count))
                for got, i in zip(solve(block), block, strict=True):
                    assert_same_outcome(got, whole[i])

    @pytest.mark.parametrize("dim,m,k", SHAPES)
    def test_multilaterate(self, dim, m, k):
        """Four columns in six are replaced by noiseless ranges of one kind
        each: an anchor hit (exact, or every other time a range clamped at
        0 that the others do not fit), too few anchors, ``dim`` anchors in a
        hyperplane (a mirror pair) and the collinear anchors alone (a mirror
        pair in 2D, degenerate in 3D)."""
        anchors, _, ranges = self.scene(dim, m, k)
        values = np.concatenate([r.values.T for r in ranges]).T[:, :48]
        mask = np.concatenate([r.mask.T for r in ranges]).T[:, :48]
        rng = np.random.default_rng((dim, m))
        observed = {2: list(range(dim - 1)), 3: list(range(dim - 1)) + [3],
                    4: [0, 1, 2]}
        for col in range(values.shape[1]):
            kind = col % 6
            if kind not in (1, 2, 3, 4):
                continue
            values[:, col] = ranges_to(anchors, rng.uniform(-5.0, 5.0, dim))
            mask[:, col] = kind == 1
            if kind == 1:
                hit = rng.integers(m)
                if (col // 6) % 2 == 0:
                    values[:, col] = ranges_to(anchors, anchors.positions[hit])
                values[hit, col] = 0.0
            else:
                mask[observed[kind], col] = True
        assert not values.flags.c_contiguous

        def solve(cols):
            fix = multilaterate(anchors, values[:, cols], mask[:, cols])
            return [(type(err), fix.position[i], fix.residual_rms[i],
                     fix.point_iterations[i], fix.point_converged[i],
                     fix.ambiguous[i], fix.candidates[i])
                    for i, err in enumerate(fix.errors)]
        whole = solve(np.arange(values.shape[1]))
        errors = {outcome[0] for outcome in whole}
        assert InsufficientMeasurementsError in errors
        assert (DegenerateGeometryError in errors) == (dim == 3)
        assert any(outcome[5] for outcome in whole)
        assert any(outcome[0] is type(None) and outcome[3] == 0 for outcome in whole)
        self.assert_block_independent(solve, values.shape[1])

    @pytest.mark.parametrize("dim,m,k", SHAPES)
    def test_two_stage_and_refinement(self, dim, m, k):
        anchors, conf, ranges = self.scene(dim, m, k)

        def solve(trials):
            """Per trial: its two-stage row with the pose that stage 3
            refines where the rotation is unique, and stage 3's iterations
            and convergence flag (0 and False where it does not run)."""
            values = np.stack([ranges[t].values for t in trials])
            mask = np.stack([ranges[t].mask for t in trials])
            fit = _two_stage(anchors, conf, values, mask, True)
            todo = fit.rotation_unique
            rotations, translations = fit.rotation.copy(), fit.translation.copy()
            iterations, converged = np.zeros(len(trials), dtype=int), np.zeros_like(todo)
            rotations[todo], translations[todo], iterations[todo], converged[todo] = _refine(
                anchors, conf, fit.rotation[todo], fit.translation[todo], values[todo],
                mask[todo])
            return [(type(fit.failed[t]), rotations[t], translations[t], fit.stage1_rms[t],
                     fit.stage2_rms[t], fit.iterations[t], todo[t], fit.ambiguous[t],
                     fit.unconverged[t], iterations[t], converged[t])
                    for t in range(len(trials))]
        outcomes = {(outcome[0], outcome[6]) for outcome in solve(np.arange(len(ranges)))}
        assert (type(None), True) in outcomes
        self.assert_block_independent(solve, len(ranges))

    @pytest.mark.parametrize("dim,m,k", SHAPES)
    def test_congruent_fill(self, dim, m, k):
        """Every fourth trial observes only ``dim`` anchors, too few to pin
        a node, so the fill cannot start it."""
        anchors, conf, ranges = self.scene(dim, m, k)
        cross = np.stack([np.where(r.mask, r.values, 0.0) for r in ranges])
        mask = np.stack([r.mask for r in ranges])
        mask[3::4, dim:] = False

        def solve(trials):
            return list(zip(*_congruent_fill_batch(anchors.positions, conf.coords,
                                                   cross[trials], mask[trials])))
        started = {outcome[2] for outcome in solve(np.arange(len(ranges)))}
        assert started == {True, False}
        self.assert_block_independent(solve, len(ranges))

    @pytest.mark.parametrize("dim,m,k", SHAPES)
    def test_joint_start(self, dim, m, k):
        """Every fourth trial observes one anchor only: too few ranges for
        the joint start with 5 or 6 nodes, rank-deficient with 20."""
        anchors, conf, ranges = self.scene(dim, m, k)
        values = np.stack([r.values for r in ranges])
        mask = np.stack([r.mask for r in ranges])
        mask[3::4] = False
        mask[3::4, 0] = True

        def solve(trials):
            rotations, translations, failed = _joint_start(anchors, conf, values[trials],
                                                           mask[trials])
            return [(type(err), rotations[i], translations[i]) for i, err in enumerate(failed)]
        errors = {outcome[0] for outcome in solve(np.arange(len(ranges)))}
        assert errors >= {type(None), InsufficientMeasurementsError if k < 16
                          else DegenerateGeometryError}
        self.assert_block_independent(solve, len(ranges))

    @pytest.mark.parametrize("dim,m,k", SHAPES)
    def test_motion_fits(self, dim, m, k):
        """Every fifth trial observes two rates, too few, and every
        seventh one node only, which cannot fix the spin (with five anchors
        in 3D, also too few rates)."""
        anchors, conf, ranges = self.scene(dim, m, k)
        rng = np.random.default_rng((dim, m, k, 1))
        count = len(ranges)
        rotations = np.stack([random_rotation(rng, dim) for _ in range(count)])
        translations = rng.uniform(-5.0, 5.0, (count, dim))
        omegas = rng.uniform(-0.5, 0.5, (count, 1 if dim == 2 else 3))
        t_dots = rng.uniform(-15.0, 15.0, (count, dim))
        rates = _range_rates(anchors.positions, _place(conf.coords, rotations, translations),
                             _node_velocities(conf.coords, rotations, omegas, t_dots))
        rates += rng.normal(0.0, 0.05, rates.shape)
        mask = rng.random(rates.shape) >= 0.3
        mask[4::5] = False
        mask[4::5, 0, :2] = True
        mask[6::7] = False
        mask[6::7, :, 0] = True
        rates[~mask] = np.nan

        def solve(trials):
            omega, t_dot, rms, failed = _motion_fits(anchors, conf, rotations[trials],
                                                     translations[trials], rates[trials],
                                                     mask[trials])
            return [(type(err), omega[i], t_dot[i], rms[i]) for i, err in enumerate(failed)]
        errors = {outcome[0] for outcome in solve(np.arange(count))}
        assert errors == {type(None), InsufficientMeasurementsError,
                          InsufficientMeasurementsError if m < 3 * (dim - 1)
                          else DegenerateGeometryError}
        self.assert_block_independent(solve, count)


def raised(call, *args):
    """The message of the ValueError ``call(*args)`` raises."""
    with pytest.raises(ValueError) as info:
        call(*args)
    return str(info.value)


class TestStackedChecks:
    """One bad item hidden in a valid block fails the stacked check with
    the message ``Pose`` or ``MaskedRangeMatrix`` gives that item alone;
    the first bad item decides when there are several."""

    POSE_FAULTS = {
        "reflection": lambda rot, trans: (rot * np.r_[np.ones(len(rot) - 1), -1.0], trans),
        "skewed": lambda rot, trans: (rot + 10 * ORTHOGONALITY_TOL * np.eye(len(rot)), trans),
        "nan rotation": lambda rot, trans: (np.where(np.eye(len(rot)) > 0, np.nan, rot), trans),
        "nan translation": lambda rot, trans: (rot, np.r_[np.nan, trans[1:]]),
        "infinite translation": lambda rot, trans: (rot, np.r_[trans[:-1], np.inf]),
    }

    @staticmethod
    def poses(dim, count=10, seed=2):
        rng = np.random.default_rng(seed)
        return (np.stack([random_rotation(rng, dim) for _ in range(count)]),
                rng.uniform(-5.0, 5.0, (count, dim)))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("fault", sorted(POSE_FAULTS))
    @pytest.mark.parametrize("where", [0, 6, 9])
    def test_one_bad_pose(self, dim, fault, where):
        rotations, translations = self.poses(dim)
        _check_poses(rotations, translations)
        bad = self.POSE_FAULTS[fault](rotations[where], translations[where])
        rotations[where], translations[where] = bad
        assert raised(_check_poses, rotations, translations) == raised(Pose, *bad)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_first_bad_pose_decides(self, dim):
        rotations, translations = self.poses(dim)
        rotations[3], translations[3] = self.POSE_FAULTS["reflection"](
            rotations[3], translations[3])
        translations[7, 0] = np.nan
        assert raised(_check_poses, rotations, translations) == \
            raised(Pose, rotations[3], translations[3])

    RANGE_FAULTS = {"negative": -0.5, "nan": np.nan, "infinite": np.inf,
                    "negative infinite": -np.inf}

    @staticmethod
    def ranges(count=10, seed=4):
        rng = np.random.default_rng(seed)
        mask = rng.random((count, 6, 5)) >= 0.3
        return np.where(mask, rng.uniform(1.0, 40.0, mask.shape), np.nan), mask

    @pytest.mark.parametrize("fault", sorted(RANGE_FAULTS))
    @pytest.mark.parametrize("where", [0, 4, 9])
    def test_one_bad_range_matrix(self, fault, where):
        values, mask = self.ranges()
        _check_observed(values, mask, nonnegative=True)
        node, anchor = np.argwhere(mask[where])[0]
        values[where, node, anchor] = self.RANGE_FAULTS[fault]
        assert raised(_check_observed, values, mask, True) == \
            raised(MaskedRangeMatrix, values[where], mask[where])

    def test_unobserved_entries_are_not_checked(self):
        values, mask = self.ranges()
        values[~mask] = -1.0
        _check_observed(values, mask, nonnegative=True)

    def test_first_bad_range_matrix_decides(self):
        values, mask = self.ranges()
        node, anchor = np.argwhere(mask[2])[0]
        values[2, node, anchor] = -1.0
        node, anchor = np.argwhere(mask[5])[0]
        values[5, node, anchor] = np.nan
        assert raised(_check_observed, values, mask, True) == \
            raised(MaskedRangeMatrix, values[2], mask[2])

    def test_range_blocks_check_the_drawn_poses(self, monkeypatch):
        """A block whose rotations include a reflection fails as ``Pose``
        does."""
        anchors, conf = cube_anchor_layout(8), box_vehicle_conformation(4)
        reflection = np.diag([1.0, 1.0, -1.0])
        build = placement._drawn_rotations

        def with_reflections(draws):
            rotations = build(draws)
            rotations[draws[:, 0] < -1.5] = reflection
            return rotations
        monkeypatch.setattr(placement, "_drawn_rotations", with_reflections)
        blocks = range_blocks(anchors, conf, 100, np.random.default_rng,
                              uniform_pose(np.zeros(3), 5.0), 0.1)
        assert raised(lambda: list(blocks)) == raised(Pose, reflection, np.zeros(3))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_block_rotations_match_random_rotation(self, dim):
        """``range_blocks`` builds each block's rotations at once from the
        trials' draws, bit for bit as ``random_rotation`` builds each from
        the same generator state."""
        anchors = cube_anchor_layout(8, dim)
        conf = box_vehicle_conformation(8, dim)
        blocks = range_blocks(anchors, conf, 100, np.random.default_rng,
                              uniform_pose(np.zeros(dim), 5.0), 0.1, 0.3)
        rotations = np.concatenate([truth[0] for truth, _ in blocks])
        assert len(rotations) == 100
        assert np.array_equal(rotations, np.stack([
            random_rotation(np.random.default_rng(t), dim) for t in range(100)]))
