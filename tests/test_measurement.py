"""Tests for measurement simulation, occlusion and matrix assembly."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.spatial import ConvexHull

from rigidloc import measurement
from rigidloc.geometry import (
    BodyMotion,
    Conformation,
    PlacedBody,
    Pose,
    affine_basis,
    apply_pose,
    cross_matrix,
    random_rotation,
)
from rigidloc.harness import box_vehicle_conformation
from rigidloc.measurement import (
    AngleMeasurements,
    AnchorSet,
    HullOcclusion,
    MaskedRangeMatrix,
    PartialEdm,
    assemble_partial_edm,
    line_of_sight_blocked,
    simulate_aoa,
    simulate_range_rates,
    simulate_ranges,
    wrap_angle,
)

CUBE = np.array([(x, y, z) for x in (-0.5, 0.5)
                 for y in (-0.5, 0.5) for z in (-0.5, 0.5)])


def euclidean(a, b):
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def sampled_outside(p, q, hull_points):
    """1001 points along (p, q) and how far outside the hull each lies
    (its largest facet value; < 0 inside)."""
    equations = ConvexHull(hull_points).equations
    samples = p + np.linspace(0.0, 1.0, 1001)[:, None] * (q - p)
    return samples, (samples @ equations[:, :-1].T + equations[:, -1]).max(axis=1)


def flat_oracle(p, q, points):
    """Blocked (True), clear (False) or too close to call (None) for the
    segment (p, q) against a flat point set of rank dim - 1, from where it
    crosses the set's hyperplane."""
    center = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - center)
    inplane, normal = vt[:-1], vt[-1]
    sp, sq = (p - center) @ normal, (q - center) @ normal
    if min(abs(sp), abs(sq)) < 1e-4:
        return None
    if sp * sq > 0:
        return False
    u = (p + sp / (sp - sq) * (q - p) - center) @ inplane.T
    flat = (points - center) @ inplane.T
    if len(u) == 1:
        margin = min(u[0] - flat.min(), flat.max() - u[0])
    else:
        equations = ConvexHull(flat).equations
        margin = -(equations[:, :-1] @ u + equations[:, -1]).max()
    return None if abs(margin) < 1e-4 else bool(margin > 0)


def rod_oracle(p, q, points):
    """Clear (False) when (p, q) passes at least 1 mm from a collinear point
    set in 3D, else too close to call (None): a segment meets a rod only
    on a set of measure zero."""
    a, b = points[np.argmin(points[:, 0])], points[np.argmax(points[:, 0])]
    samples = p + np.linspace(0.0, 1.0, 1001)[:, None] * (q - p)
    t = np.clip((samples - a) @ (b - a) / ((b - a) @ (b - a)), 0.0, 1.0)
    gap = np.sqrt(((samples - a - t[:, None] * (b - a)) ** 2).sum(axis=1)).min()
    return False if gap > 1e-3 else None


class TestWrapAngle:
    def test_range(self):
        angles = np.linspace(-4 * np.pi, 4 * np.pi, 10001)
        wrapped = wrap_angle(angles)
        assert np.all(wrapped > -np.pi)
        assert np.all(wrapped <= np.pi)
        assert np.allclose(np.cos(wrapped), np.cos(angles), atol=1e-12)
        assert np.allclose(np.sin(wrapped), np.sin(angles), atol=1e-12)

    def test_boundary(self):
        assert wrap_angle(np.pi) == np.pi
        assert wrap_angle(-np.pi) == np.pi
        assert wrap_angle(3 * np.pi) == np.pi


class TestAnchorSet:
    def test_rejects_near_duplicates(self):
        with pytest.raises(ValueError):
            AnchorSet([[0.0, 0.0], [1e-12, 0.0]])

    def test_json_round_trip(self):
        anchors = AnchorSet([[0.0, 1.0, 2.0], [3.0, -1.0, 0.5]])
        back = AnchorSet.from_json(anchors.to_json())
        assert np.array_equal(back.positions, anchors.positions)


class TestMaskedRangeMatrix:
    def test_nan_is_the_poison_value(self):
        mrm = MaskedRangeMatrix([[1.0, 2.0], [3.0, 4.0]],
                                [[True, False], [True, True]])
        assert np.isnan(mrm.values[0, 1])
        assert mrm.mask.sum() == 3
        assert list(mrm.observed_per_node()) == [2, 1]

    def test_nan_implies_masked(self):
        mrm = MaskedRangeMatrix([[1.0, np.nan]])
        assert not mrm.mask[0, 1]

    def test_rejects_negative_observed(self):
        with pytest.raises(ValueError):
            MaskedRangeMatrix([[-0.1]])

    def test_csv_round_trip(self, tmp_path):
        mrm = MaskedRangeMatrix([[1.5, np.nan], [0.0, 2.25]])
        mrm.to_csv(tmp_path / "v.csv", tmp_path / "m.csv")
        back = MaskedRangeMatrix.from_csv(tmp_path / "v.csv", tmp_path / "m.csv")
        assert np.array_equal(back.mask, mrm.mask)
        assert np.array_equal(back.values[back.mask], mrm.values[mrm.mask])
        assert np.isnan(back.values[0, 1])

    def test_json_round_trip(self):
        mrm = MaskedRangeMatrix([[1.5, np.nan], [0.0, 2.25]])
        text = mrm.to_json()
        assert json.loads(text)["values"][0][1] is None  # valid JSON, no NaN
        back = MaskedRangeMatrix.from_json(text)
        assert np.array_equal(back.mask, mrm.mask)
        assert np.array_equal(back.values[back.mask], mrm.values[mrm.mask])


class TestSimulateRanges:
    def test_noiseless_exact(self):
        rng = np.random.default_rng(3)
        anchors = AnchorSet(rng.uniform(-20, 20, (5, 3)))
        body = PlacedBody(rng.uniform(-2, 2, (4, 3)))
        mrm = simulate_ranges(anchors, body, 0.0)
        assert mrm.mask.all()
        assert np.allclose(mrm.values, euclidean(anchors.positions, body.positions),
                           atol=1e-12)

    def test_noise_std_matches_sigma(self):
        """1e5 draws of one anchor/node pair: sample std within 2% of sigma."""
        sigma = 0.1
        anchors = AnchorSet([[0.0, 0.0, 0.0]])
        body = PlacedBody(np.tile([3.0, 4.0, 12.0], (100_000, 1)))
        mrm = simulate_ranges(anchors, body, sigma, None, np.random.default_rng(99))
        errors = mrm.values[0] - 13.0
        assert abs(errors.std() - sigma) < 0.02 * sigma
        assert abs(errors.mean()) < 0.002

    def test_noise_clamped_at_zero(self):
        anchors = AnchorSet([[0.0, 0.0]])
        body = PlacedBody(np.tile([0.05, 0.0], (1000, 1)))
        mrm = simulate_ranges(anchors, body, 1.0, None, np.random.default_rng(5))
        assert mrm.values.min() >= 0.0

    def test_negative_sigma_rejected(self):
        anchors = AnchorSet([[0.0, 0.0]])
        with pytest.raises(ValueError):
            simulate_ranges(anchors, PlacedBody([[1.0, 1.0]]), -0.1)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            simulate_ranges(AnchorSet([[0.0, 0.0]]), PlacedBody([[1.0, 1.0, 1.0]]), 0.0)

    def test_occluded_entries_masked_not_zero(self):
        # two nodes collinear with the anchor: the cube around the near
        # node hides the far one but not itself
        body = PlacedBody(np.vstack([CUBE, [[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]]]))
        anchors = AnchorSet([[5.0, 0.0, 0.0]])
        mrm = simulate_ranges(anchors, body, 0.0, HullOcclusion(body))
        near_face, far_face = 8, 9
        assert mrm.mask[0, near_face]
        assert not mrm.mask[0, far_face]
        assert np.isnan(mrm.values[0, far_face])
        assert np.isclose(mrm.values[0, near_face], 4.5)


@pytest.mark.parametrize("simulate", ["ranges", "range_rates", "aoa"])
def test_nan_sigma_rejected(simulate):
    """A NaN noise level raises instead of simulating noiseless data."""
    anchors = AnchorSet([[0.0, 0.0], [10.0, 0.0]])
    conf = Conformation([[1.0, 1.0], [2.0, 1.0]])
    body = apply_pose(conf, Pose.identity(2))
    with pytest.raises(ValueError, match="sigma must be non-negative"):
        if simulate == "ranges":
            simulate_ranges(anchors, body, np.nan)
        elif simulate == "range_rates":
            simulate_range_rates(anchors, conf, Pose.identity(2), BodyMotion(0.1, [1.0, 0.0]),
                                 sigma=np.nan)
        else:
            simulate_aoa(anchors, body, np.nan)


def test_negative_aoa_sigma_rejected():
    with pytest.raises(ValueError, match="sigma must be non-negative"):
        simulate_aoa(AnchorSet([[0.0, 0.0]]), PlacedBody([[1.0, 1.0]]), -0.1)


class TestLineOfSight:
    def test_far_segment_clear(self):
        body = PlacedBody(CUBE)
        assert not line_of_sight_blocked([5.0, 5.0, 5.0], [6.0, 5.0, 4.0], body)

    def test_through_centroid_blocked(self):
        body = PlacedBody(CUBE)
        assert line_of_sight_blocked([-3.0, 0.1, 0.0], [3.0, -0.1, 0.05], body)

    def test_vertex_endpoint_not_blocked(self):
        # touching the hull only at the segment endpoint does not block
        body = PlacedBody(CUBE)
        assert not line_of_sight_blocked([0.5, 0.5, 0.5], [3.0, 3.0, 3.0], body)

    def test_vertex_endpoint_through_interior_blocked(self):
        body = PlacedBody(CUBE)
        assert line_of_sight_blocked([0.5, 0.5, 0.5], [-3.0, -3.0, -3.0], body)

    def test_tangent_face_not_blocked(self):
        body = PlacedBody(CUBE)
        assert not line_of_sight_blocked([-3.0, 0.5, 0.0], [3.0, 0.5, 0.0], body)
        # parallel to that face and outside it
        assert not line_of_sight_blocked([-3.0, 0.7, 0.0], [3.0, 0.7, 0.0], body)

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError):
            line_of_sight_blocked([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], PlacedBody(CUBE))

    def test_planar_body_slab(self):
        square = PlacedBody([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                             [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        assert line_of_sight_blocked([0.5, 0.5, -1.0], [0.5, 0.5, 1.0], square)
        assert not line_of_sight_blocked([0.5, 0.5, 0.5], [0.5, 0.5, 2.0], square)
        assert not line_of_sight_blocked([2.0, 2.0, -1.0], [2.0, 2.0, 1.0], square)

    def test_flat_body_sees_its_own_nodes(self):
        """A plate, a bar and a rod hide none of their own nodes, grazing
        anchor included, and still block a segment through them."""
        plate = PlacedBody([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.0, 2.0, 0.0],
                            [0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [1.0, 2.0, 0.0]])
        anchors = AnchorSet([[1.0, 1.0, 5.0], [1.0, 1.0, -5.0],
                             [30.0, 30.0, 30.0], [-30.0, 1.0, 0.5]])
        assert simulate_ranges(anchors, plate, 0.0, HullOcclusion(plate)).mask.all()
        assert line_of_sight_blocked([1.0, 1.0, 5.0], [1.0, 1.0, -5.0], plate)
        assert not line_of_sight_blocked([1.0, 1.0, 5.0], [3.0, 3.0, -5.0], plate)
        bar = PlacedBody([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        assert simulate_ranges(AnchorSet([[1.5, 4.0], [2.0, -3.0], [-9.0, 0.1]]),
                               bar, 0.0, HullOcclusion(bar)).mask.all()
        assert line_of_sight_blocked([2.0, 1.0], [2.0, -1.0], bar)
        rod = PlacedBody([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        assert simulate_ranges(AnchorSet([[1.0, 5.0, 0.0], [9.0, 0.1, 0.0],
                                          [-5.0, -5.0, -5.0]]),
                               rod, 0.0, HullOcclusion(rod)).mask.all()
        assert line_of_sight_blocked([1.0, -1.0, 0.0], [1.0, 1.0, 0.0], rod)

    def test_collinear_body_slab(self):
        rod = PlacedBody([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        assert line_of_sight_blocked([1.0, -1.0, 0.0], [1.0, 1.0, 0.0], rod)
        assert not line_of_sight_blocked([3.0, -1.0, 0.0], [3.0, 1.0, 0.0], rod)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_against_dense_sampling_oracle(self, dim):
        """Random segments against random hulls agree with a brute-force
        point-sampling oracle on all non-grazing cases."""
        rng = np.random.default_rng(404)
        checked = 0
        for _ in range(120):
            pts = rng.uniform(-1, 1, (8, dim))
            body = PlacedBody(pts)
            p = rng.uniform(-3, 3, dim)
            q = rng.uniform(-3, 3, dim)
            penetration = -sampled_outside(p, q, pts)[1].min()  # >0 once inside
            if abs(penetration) < 1e-4:
                continue  # grazing: too close to the boundary to call
            checked += 1
            assert line_of_sight_blocked(p, q, body) == (penetration > 0)
        assert checked > 60


def qhull_equations(points):
    """(facets, flat) of a point set's hull from Qhull: of the points
    themselves, or of their coordinates in their affine hull when they
    are flat; a rod is bounded by its end points, a point by nothing."""
    dim = points.shape[1]
    center, directions, rank = affine_basis(points, tol=1e-12)
    if rank == dim:
        return ConvexHull(points).equations, None
    inside, outside = directions[:rank], directions[rank:]
    coords = (points - center) @ inside.T
    if rank > 1:
        equations = ConvexHull(coords).equations
    elif rank == 1:
        equations = np.array([[1.0, -coords.max()], [-1.0, coords.min()]])
    else:
        equations = np.zeros((0, 1))
    normals = equations[:, :-1] @ inside
    facets = np.column_stack([normals, equations[:, -1] - normals @ center])
    return facets, np.column_stack([outside, -outside @ center])


def assert_same_planes(ours, theirs, center):
    """Every plane [a | b] of each set lies within 1e-9 of one of the
    other's once both are scaled to a unit normal and their offsets are
    taken from ``center``. (A plane 10 km out carries the rounding of its
    points' coordinates, about 2e-12 m, times 10 km in its offset from the
    origin. Qhull splits a face into triangles, so it may list one plane
    several times.)"""
    assert ours.shape[1:] == theirs.shape[1:]
    if not len(ours) or not len(theirs):
        assert len(ours) == len(theirs) == 0
        return

    def unit(eq):
        eq = eq / np.linalg.norm(eq[:, :-1], axis=1, keepdims=True)
        return np.column_stack([eq[:, :-1], eq[:, -1] + eq[:, :-1] @ center])

    gap = np.abs(unit(ours)[:, None] - unit(theirs)[None]).max(axis=2)
    assert gap.min(axis=1).max() <= 1e-9
    assert gap.min(axis=0).max() <= 1e-9


def assert_matches_qhull(points, rng):
    """The hull's planes match Qhull's, and so does every segment's
    blockage: from anchors around the set to its own points (endpoints
    on the hull or inside it) and to points near it."""
    ours, theirs = measurement._hull_equations(points), qhull_equations(points)
    dim = points.shape[1]
    center = points.mean(axis=0)
    assert (ours[1] is None) == (theirs[1] is None)
    assert_same_planes(ours[0], theirs[0], center)
    if ours[1] is not None:
        assert_same_planes(ours[1], theirs[1], center)
    spread = np.abs(points - center).max()
    starts = center + rng.uniform(-4.0, 4.0, (12, dim)) * max(spread, 1.0)
    ends = np.concatenate([points, center + rng.uniform(-1.5, 1.5, (12, dim)) * spread])
    blocked = measurement._segments_blocked(starts, ends, ours)
    assert np.array_equal(blocked, measurement._segments_blocked(starts, ends, theirs))
    return blocked


class TestHullEquations:
    """The enumerated hull against Qhull (``scipy.spatial``, used by the
    tests only): the same facet planes, within 1e-9, and the same blocked
    segments."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_sets(self, dim):
        rng = np.random.default_rng(910 + dim)
        blocked = 0
        for k in range(dim + 1, 21):
            for draw in (rng.uniform(-1.0, 1.0, (k, dim)), rng.normal(size=(k, dim))):
                blocked += assert_matches_qhull(draw * rng.uniform(0.1, 5.0), rng).sum()
        assert blocked > 100

    @pytest.mark.parametrize("dim,largest", [(2, 16), (3, 20)])
    def test_box_vehicles(self, dim, largest):
        """The built-in bodies, whose edge midpoints and quarter points lie
        on the faces and edges of their box: one plane per face."""
        rng = np.random.default_rng(920 + dim)
        for k in range(4, largest + 1):
            conf = box_vehicle_conformation(k, dim)
            pose = Pose(random_rotation(rng, dim), rng.uniform(-20.0, 20.0, dim))
            points = apply_pose(conf, pose).positions
            assert_matches_qhull(points, rng)
        facets, _ = measurement._hull_equations(points)
        assert len(facets) == 2 * dim

    def test_far_from_origin(self):
        """A body 10 km out: the tolerances follow its extent, not its
        distance from the origin."""
        rng = np.random.default_rng(930)
        for k in (8, 14, 20):
            pose = Pose(random_rotation(rng, 3), [1e4, -3e3, 2.0])
            points = apply_pose(box_vehicle_conformation(k), pose).positions
            assert assert_matches_qhull(points, rng).any()

    def test_flat_sets(self):
        """Plates (one with collinear points on its edges), rods, and a
        single point, in 2D and 3D."""
        rng = np.random.default_rng(940)
        rectangle = np.column_stack([box_vehicle_conformation(16, 2).coords,
                                     np.zeros(16)])
        sets = [rectangle @ random_rotation(rng, 3).T + [5.0, 1.0, -2.0]]
        sets += [flat_points(rng, 3, 2, num) for num in (3, 4, 9)]
        sets += [flat_points(rng, dim, 1, num) for dim in (2, 3) for num in (2, 5)]
        sets += [rng.uniform(-2.0, 2.0, (1, dim)) for dim in (2, 3)]
        for points in sets:
            assert_matches_qhull(points, rng)


def occlusion_mask(anchors, body, *occluders):
    return simulate_ranges(anchors, body, 0.0, HullOcclusion(*occluders)).mask


def assert_matches_pairwise(mask, anchors, body, *occluders):
    """The mask bit of every anchor-node pair equals the one-segment test
    against each occluder."""
    for m, a in enumerate(anchors.positions):
        for k, s in enumerate(body.positions):
            blocked = any(line_of_sight_blocked(a, s, occ) for occ in occluders)
            assert mask[m, k] == (not blocked), (m, k)


def flat_points(rng, dim, rank, num=10):
    """``num`` random points spanning a random affine subspace of ``rank``."""
    basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0][:rank]
    return rng.uniform(-1.5, 1.5, (num, rank)) @ basis + rng.uniform(-0.5, 0.5, dim)


class TestOcclusionMask:
    """The simulated visibility mask against the one-segment function and
    against oracles that share no code with the clip."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_self_occlusion_full_rank(self, dim):
        """Nodes as segment endpoints: hull vertices, and nodes inside the
        hull, which every anchor sees through the body."""
        rng = np.random.default_rng(505 + dim)
        checked, blocked = 0, 0
        for _ in range(30):
            body = PlacedBody(rng.uniform(-1, 1, (10, dim)))
            anchors = AnchorSet(rng.uniform(-4, 4, (6, dim)))
            mask = occlusion_mask(anchors, body, body)
            assert_matches_pairwise(mask, anchors, body, body)
            for m, a in enumerate(anchors.positions):
                for k, s in enumerate(body.positions):
                    samples, outside = sampled_outside(a, s, body.positions)
                    # a node on the hull is clear when every sample before it
                    # lies outside in proportion to its distance from the node
                    slope = outside[:-1] / np.linalg.norm(samples[:-1] - s, axis=1)
                    if -outside.min() > 1e-4:
                        expected = True
                    elif slope.min() > 1e-2:
                        expected = False
                    else:
                        continue  # grazing: too close to the boundary to call
                    checked += 1
                    blocked += expected
                    assert mask[m, k] == (not expected), (m, k)
        assert checked > 1000
        assert 200 < blocked < checked - 200

    @pytest.mark.parametrize("dim,rank", [(2, 1), (3, 2), (3, 1)])
    def test_flat_occluder(self, dim, rank):
        """Planar and collinear bodies block where a segment passes
        through them; their own nodes are segment endpoints too, and no
        anchor loses sight of one."""
        rng = np.random.default_rng(606 + 10 * dim + rank)
        oracle = rod_oracle if rank < dim - 1 else flat_oracle
        checked, blocked = 0, 0
        for _ in range(30):
            flat = PlacedBody(flat_points(rng, dim, rank))
            target = PlacedBody(rng.uniform(-0.3, 0.3, (5, dim))
                                + rng.uniform(-3, 3, dim))
            anchors = AnchorSet(rng.uniform(-4, 4, (6, dim)))
            own = occlusion_mask(anchors, flat, flat)
            assert_matches_pairwise(own, anchors, flat, flat)
            assert own.all()
            mask = occlusion_mask(anchors, target, flat)
            assert_matches_pairwise(mask, anchors, target, flat)
            for m, a in enumerate(anchors.positions):
                for k, s in enumerate(target.positions):
                    expected = oracle(a, s, flat.positions)
                    if expected is None:
                        continue
                    checked += 1
                    blocked += expected
                    assert mask[m, k] == (not expected), (m, k)
        assert checked > 500
        if rank == dim - 1:
            assert 50 < blocked < checked - 50

    @pytest.mark.parametrize("dim", [2, 3])
    def test_two_bodies_or(self, dim):
        """A pair is visible only when neither body blocks it."""
        rng = np.random.default_rng(707 + dim)
        for _ in range(30):
            body = PlacedBody(rng.uniform(-1, 1, (10, dim)))
            other = PlacedBody(rng.uniform(-1, 1, (8, dim)) + rng.uniform(-2, 2, dim))
            anchors = AnchorSet(rng.uniform(-4, 4, (6, dim)))
            both = occlusion_mask(anchors, body, body, other)
            assert np.array_equal(both, occlusion_mask(anchors, body, body)
                                  & occlusion_mask(anchors, body, other))
            assert_matches_pairwise(both, anchors, body, body, other)

    def test_one_hull_per_body(self, monkeypatch):
        calls = []
        hull_equations = measurement._hull_equations

        def counted(points):
            calls.append(len(points))
            return hull_equations(points)

        monkeypatch.setattr(measurement, "_hull_equations", counted)
        rng = np.random.default_rng(808)
        conf = Conformation(rng.uniform(-1, 1, (14, 3)))
        pose = Pose(random_rotation(rng, 3), np.zeros(3))
        body = apply_pose(conf, pose)
        other = PlacedBody(rng.uniform(-1, 1, (6, 3)) + [3.0, 0.0, 0.0])
        anchors = AnchorSet(rng.uniform(-6, 6, (8, 3)))
        occlusion = HullOcclusion(body, other)
        simulate_ranges(anchors, body, 0.1, occlusion, rng)
        motion = BodyMotion([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
        simulate_range_rates(anchors, conf, pose, motion, 0.05, occlusion, rng)
        assert calls == [14, 6]

    def test_visibility_is_tested_once_per_placed_body(self, monkeypatch):
        """Ranges and range-rates of one placed body share its line-of-sight
        test; a body placed elsewhere is tested afresh, never given the
        stale mask."""
        calls = []
        segments_blocked = measurement._segments_blocked

        def counted(starts, ends, hull):
            calls.append(len(ends))
            return segments_blocked(starts, ends, hull)

        monkeypatch.setattr(measurement, "_segments_blocked", counted)
        rng = np.random.default_rng(809)
        conf = Conformation(rng.uniform(-1, 1, (14, 3)))
        anchors = AnchorSet(rng.uniform(-6, 6, (8, 3)))
        pose = Pose(random_rotation(rng, 3), np.zeros(3))
        body = apply_pose(conf, pose)
        occlusion = HullOcclusion(body)
        ranges = simulate_ranges(anchors, body, 0.1, occlusion, rng)
        motion = BodyMotion([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
        rates = simulate_range_rates(anchors, conf, pose, motion, 0.05, occlusion, rng)
        assert calls == [14]
        assert not ranges.mask.all()
        assert np.array_equal(np.isfinite(rates), ranges.mask)
        moved = Pose(pose.rotation, [0.0, 0.0, 0.5])
        moved_rates = simulate_range_rates(anchors, conf, moved, motion, 0.0, occlusion)
        assert calls == [14, 14]
        monkeypatch.setattr(measurement, "_segments_blocked", segments_blocked)
        fresh = simulate_range_rates(anchors, conf, moved, motion, 0.0, HullOcclusion(body))
        assert np.array_equal(moved_rates, fresh, equal_nan=True)
        assert not np.array_equal(np.isfinite(moved_rates), ranges.mask)

    def test_errors(self):
        body = PlacedBody(CUBE)
        anchors = AnchorSet([[5.0, 0.0, 0.0], [0.5, 0.5, 0.5]])  # one on a node
        with pytest.raises(ValueError, match="segment endpoints coincide"):
            simulate_ranges(anchors, body, 0.0, HullOcclusion(body))
        assert simulate_ranges(anchors, body, 0.0).values[1, 7] == 0.0
        flat = HullOcclusion(PlacedBody([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="endpoint dimensions must match"):
            simulate_ranges(AnchorSet([[5.0, 0.0, 0.0]]), body, 0.0, flat)
        with pytest.raises(ValueError, match="endpoint dimensions must match"):
            line_of_sight_blocked([5.0, 0.0], [1.0, 0.0, 0.0], body)
        with pytest.raises(ValueError, match="segment endpoints must be finite"):
            line_of_sight_blocked([np.inf, 0.0, 0.0], [1.0, 0.0, 0.0], body)

    def test_occluded_frame_leaves_scipy_out(self):
        """The package runs on numpy alone: simulating one self-occluded
        frame (hull, ranges and range-rates) loads no part of scipy."""
        src = str(Path(measurement.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from rigidloc import (BodyMotion, HullOcclusion, Pose, apply_pose,\n"
            "                      box_vehicle_conformation, cube_anchor_layout,\n"
            "                      random_rotation, simulate_range_rates, simulate_ranges)\n"
            "rng = np.random.default_rng(3)\n"
            "anchors, conf = cube_anchor_layout(8), box_vehicle_conformation(14)\n"
            "pose = Pose(random_rotation(rng, 3), np.zeros(3))\n"
            "body = apply_pose(conf, pose)\n"
            "occlusion = HullOcclusion(body)\n"
            "ranges = simulate_ranges(anchors, body, 0.1, occlusion, rng)\n"
            "simulate_range_rates(anchors, conf, pose, BodyMotion([0.0, 0.0, 1.0],\n"
            "                     [1.0, 0.0, 0.0]), 0.05, occlusion, rng)\n"
            "print(int((~ranges.mask).sum()), 'scipy' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=src))
        blocked, scipy_loaded = out.stdout.split()
        assert int(blocked) > 0
        assert scipy_loaded == "False"


class TestSimulateAoa:
    def test_exact_angles(self):
        anchors = AnchorSet([[0.0, 0.0, 0.0]])
        body = PlacedBody([[1.0, 1.0, np.sqrt(2.0)]])
        aoa = simulate_aoa(anchors, body, 0.0)
        assert np.isclose(aoa.azimuth[0, 0], np.pi / 4, atol=1e-12)
        assert np.isclose(aoa.elevation[0, 0], np.pi / 4, atol=1e-12)

    def test_pole_azimuth_zero(self):
        anchors = AnchorSet([[0.0, 0.0, 0.0]])
        body = PlacedBody([[0.0, 0.0, 5.0]])
        aoa = simulate_aoa(anchors, body, 0.0)
        assert aoa.azimuth[0, 0] == 0.0
        assert np.isclose(aoa.elevation[0, 0], np.pi / 2)

    def test_2d_has_no_elevation(self):
        aoa = simulate_aoa(AnchorSet([[0.0, 0.0]]), PlacedBody([[1.0, 0.0]]), 0.0)
        assert aoa.elevation is None
        assert aoa.azimuth[0, 0] == 0.0

    def test_wrap_across_pi(self):
        """Noise around a true azimuth of pi lands on both sides of the
        boundary but always inside (-pi, pi]."""
        anchors = AnchorSet([[0.0, 0.0]])
        body = PlacedBody(np.tile([-10.0, 0.0], (1000, 1)))
        aoa = simulate_aoa(anchors, body, 0.2, None, np.random.default_rng(8))
        az = aoa.azimuth[0]
        assert np.all(az > -np.pi)
        assert np.all(az <= np.pi)
        assert (az > 2.9).any()
        assert (az < -2.9).any()

    def test_elevation_stays_in_range(self):
        anchors = AnchorSet([[0.0, 0.0, 0.0]])
        body = PlacedBody(np.tile([0.1, 0.0, 5.0], (2000, 1)))
        aoa = simulate_aoa(anchors, body, 0.5, None, np.random.default_rng(9))
        assert aoa.elevation.min() >= -np.pi / 2
        assert aoa.elevation.max() <= np.pi / 2

    def test_coincident_rejected(self):
        anchors = AnchorSet([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            simulate_aoa(anchors, PlacedBody([[1.0, 2.0, 3.0]]), 0.0)


class TestRangeRates:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_finite_difference_oracle(self, dim):
        """Range-rates match the numeric derivative of the distances while
        the body moves along its velocity model."""
        rng = np.random.default_rng(77)
        h = 1e-7
        conf = Conformation(rng.uniform(-2, 2, (5, dim)))
        anchors = AnchorSet(rng.uniform(-30, 30, (6, dim)))
        pose = Pose(random_rotation(rng, dim), rng.uniform(-5, 5, dim))
        if dim == 2:
            omega = rng.uniform(-1, 1)
            gen = omega * np.array([[0.0, -1.0], [1.0, 0.0]])
        else:
            omega = rng.uniform(-1, 1, 3)
            gen = cross_matrix(omega)
        motion = BodyMotion(omega, rng.uniform(-10, 10, dim))

        rates = simulate_range_rates(anchors, conf, pose, motion)
        moved = Pose.from_matrix(expm(gen * h) @ pose.rotation,
                                 pose.translation + motion.t_dot * h,
                                 reorthonormalize=True)
        d0 = euclidean(anchors.positions, apply_pose(conf, pose).positions)
        d1 = euclidean(anchors.positions, apply_pose(conf, moved).positions)
        assert np.abs((d1 - d0) / h - rates).max() < 1e-5

    def test_noise_and_mask(self):
        rng = np.random.default_rng(78)
        conf = Conformation([[1.0, 0.0], [-1.0, 0.0]])
        anchors = AnchorSet([[10.0, 0.0], [0.0, 10.0]])
        motion = BodyMotion(0.3, [1.0, 2.0])
        rates = simulate_range_rates(anchors, conf, Pose.identity(2), motion,
                                     sigma=0.1, rng=rng)
        assert np.isfinite(rates).all()

    def test_anchor_dimension_mismatch_raises(self):
        """2D anchors and a 3D body fail as ``simulate_ranges`` and
        ``estimate_motion`` fail, not in a numpy broadcast."""
        anchors = AnchorSet([[10.0, 0.0], [0.0, 10.0], [-10.0, 0.0], [0.0, -10.0]])
        conf = Conformation([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        motion = BodyMotion([0.0, 0.0, 0.3], [1.0, 2.0, 0.0])
        with pytest.raises(ValueError, match="anchor and conformation dimensions differ"):
            simulate_range_rates(anchors, conf, Pose.identity(3), motion)


class TestPartialEdm:
    def make_partial(self):
        rng = np.random.default_rng(12)
        anchors = AnchorSet(rng.uniform(-10, 10, (3, 3)))
        conf = Conformation(rng.uniform(-2, 2, (4, 3)))
        placed = PlacedBody(conf.coords)
        values = euclidean(anchors.positions, placed.positions)
        mask = np.ones((3, 4), dtype=bool)
        mask[1, 2] = mask[0, 3] = False
        cross = MaskedRangeMatrix(np.where(mask, values, np.nan), mask)
        return anchors, conf, cross

    def test_assemble_matches_direct_edm(self):
        anchors, conf, cross = self.make_partial()
        partial = assemble_partial_edm(anchors, conf, cross)
        stacked = np.vstack([anchors.positions, conf.coords])
        direct = euclidean(stacked, stacked) ** 2
        assert partial.size == 7
        assert np.allclose(partial.values_sq[partial.mask],
                           direct[partial.mask], atol=1e-9)
        assert np.isnan(partial.values_sq[1, 3 + 2])
        assert np.isnan(partial.values_sq[3 + 2, 1])
        assert partial.mask.sum() == 7 * 7 - 4

    def test_blocks_fully_observed(self):
        anchors, conf, cross = self.make_partial()
        partial = assemble_partial_edm(anchors, conf, cross)
        m = anchors.num_anchors
        assert partial.mask[:m, :m].all()
        assert partial.mask[m:, m:].all()
        assert np.allclose(np.diag(partial.values_sq), 0.0)

    def test_distances_accessor(self):
        anchors, conf, cross = self.make_partial()
        partial = assemble_partial_edm(anchors, conf, cross)
        d = partial.distances()
        assert np.isclose(d[0, 1], np.sqrt(partial.values_sq[0, 1]))

    def test_single_anchor_single_node(self):
        anchors = AnchorSet([[0.0, 0.0, 0.0]])
        conf = Conformation([[3.0, 4.0, 0.0]])
        cross = MaskedRangeMatrix([[5.0]])
        partial = assemble_partial_edm(anchors, conf, cross)
        assert partial.size == 2
        assert np.isclose(partial.values_sq[0, 1], 25.0)

    def test_rejects_asymmetric_and_nonhollow(self):
        with pytest.raises(ValueError):
            PartialEdm(np.array([[0.0, 1.0], [2.0, 0.0]]), dim=2)
        with pytest.raises(ValueError):
            PartialEdm(np.array([[0.5, 1.0], [1.0, 0.0]]), dim=2)

    def test_csv_and_json_round_trip(self, tmp_path):
        anchors, conf, cross = self.make_partial()
        partial = assemble_partial_edm(anchors, conf, cross)
        partial.to_csv(tmp_path / "v.csv", tmp_path / "m.csv")
        back = PartialEdm.from_csv(tmp_path / "v.csv", tmp_path / "m.csv",
                                   dim=3, num_anchors=3)
        assert np.array_equal(back.mask, partial.mask)
        assert np.allclose(back.values_sq[back.mask],
                           partial.values_sq[partial.mask], atol=1e-12)
        back_json = PartialEdm.from_json(partial.to_json(), dim=3)
        assert np.array_equal(back_json.mask, partial.mask)
        assert np.allclose(back_json.values_sq[partial.mask],
                           partial.values_sq[partial.mask], atol=1e-15)
