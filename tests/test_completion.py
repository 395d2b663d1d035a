"""Tests for EDM completion, MDS embedding and alphabet snapping."""

import numpy as np
import pytest

from rigidloc.completion import (
    DistanceAlphabet,
    NonEuclideanMatrixError,
    _congruent_fill,
    build_distance_alphabet,
    complete_edm,
    edm_to_points,
    snap_to_alphabet,
)
from rigidloc.geometry import Conformation, rotation_2d
from rigidloc.measurement import PartialEdm


def squared_edm(points):
    diff = points[:, None, :] - points[None, :, :]
    return (diff**2).sum(axis=2)


def masked_partial(points, pairs, dim, num_anchors=None):
    sq = squared_edm(points)
    mask = np.ones_like(sq, dtype=bool)
    for i, j in pairs:
        mask[i, j] = mask[j, i] = False
    values = np.where(mask, sq, np.nan)
    return PartialEdm(values, mask, dim=dim, num_anchors=num_anchors), sq


class TestCompleteEdm:
    def test_full_mask_is_identity(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-5, 5, (6, 3))
        partial = PartialEdm(squared_edm(pts), dim=3)
        res = complete_edm(partial)
        assert res.iterations == 0
        assert res.converged
        assert np.array_equal(res.completed, squared_edm(pts))

    def test_twenty_percent_masked_10_points(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-5, 5, (10, 3))
        # mask 9 of the 45 node pairs, none sharing a row too heavily
        pairs = [(0, 4), (1, 5), (2, 6), (3, 7), (0, 8), (1, 9), (2, 9),
                 (5, 8), (6, 7)]
        partial, sq = masked_partial(pts, pairs, dim=3)
        res = complete_edm(partial)
        assert res.converged
        scale = np.abs(sq).max()
        assert np.abs(res.completed - sq).max() < 1e-4 * scale

    def test_single_unknown_exact(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-5, 5, (7, 3))
        partial, sq = masked_partial(pts, [(1, 4)], dim=3)
        res = complete_edm(partial)
        assert abs(res.completed[1, 4] - sq[1, 4]) < 1e-6 * np.abs(sq).max()

    def test_known_entries_bit_exact(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-5, 5, (8, 3))
        partial, sq = masked_partial(pts, [(0, 5), (2, 7)], dim=3)
        res = complete_edm(partial)
        assert np.array_equal(res.completed[partial.mask],
                              partial.values_sq[partial.mask])

    def test_output_invariants(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-5, 5, (9, 2))
        partial, _ = masked_partial(pts, [(0, 3), (1, 6), (4, 8)], dim=2)
        res = complete_edm(partial)
        out = res.completed
        assert np.array_equal(out, out.T)
        assert np.allclose(np.diag(out), 0.0)
        assert out.min() >= 0.0
        assert np.isfinite(res.final_objective)

    def test_round_trip_through_points(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-5, 5, (10, 3))
        pairs = [(0, 4), (1, 5), (2, 6), (3, 7), (0, 8), (1, 9), (2, 9),
                 (5, 8), (6, 7)]
        partial, sq = masked_partial(pts, pairs, dim=3)
        res = complete_edm(partial)
        rebuilt = squared_edm(edm_to_points(res.completed, 3))
        assert np.abs(rebuilt - sq).max() < 1e-3 * np.abs(sq).max()

    def test_rank_slack_helps_noisy_input(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-5, 5, (10, 3))
        sq = squared_edm(pts)
        noisy = np.sqrt(sq) + rng.normal(0, 0.01, sq.shape)
        noisy = np.maximum(0.5 * (noisy + noisy.T), 0.0) ** 2
        np.fill_diagonal(noisy, 0.0)
        mask = np.ones_like(sq, dtype=bool)
        mask[0, 4] = mask[4, 0] = mask[2, 7] = mask[7, 2] = False
        partial = PartialEdm(np.where(mask, noisy, np.nan), mask, dim=3)
        res = complete_edm(partial, rank_slack=1)
        assert np.abs(res.completed - sq)[~mask].max() < 0.5

    def test_inconsistent_knowns_not_converged(self):
        """Known entries that fit no low-rank EDM leave the objective
        stalled above the threshold and clear the converged flag."""
        rng = np.random.default_rng(9)
        pts = rng.uniform(-5, 5, (8, 3))
        sq = squared_edm(pts)
        sq[1, 2] = sq[2, 1] = 1e4  # wildly violates the geometry
        mask = np.ones_like(sq, dtype=bool)
        mask[0, 5] = mask[5, 0] = False
        partial = PartialEdm(np.where(mask, sq, np.nan), mask, dim=3)
        res = complete_edm(partial)
        assert not res.converged
        assert res.final_objective > 1e-6


class TestCongruentFill:
    @staticmethod
    def mirrored(points, pins):
        """Reflection of points through the hyperplane of ``dim`` pins."""
        base = pins[0]
        if pins.shape[1] == 3:
            normal = np.cross(pins[1] - base, pins[2] - base)
        else:
            edge = pins[1] - base
            normal = np.array([-edge[1], edge[0]])
        normal /= np.linalg.norm(normal)
        return points - 2.0 * ((points - base) @ normal)[:, None] * normal

    @pytest.mark.parametrize("dim", [2, 3])
    def test_partial_pins_place_the_rest(self, dim):
        """Only the first ``dim`` body nodes have cross ranges, so they are
        the only pins and the other nodes are placed by aligning the body
        embedding onto them: up to a mirror through the pins' hyperplane."""
        rng = np.random.default_rng(40 + dim)
        m, k = dim + 2, 6
        anchors = rng.uniform(-20, 20, (m, dim))
        body = rng.uniform(-3, 3, (k, dim))
        pts = np.vstack([anchors, body])
        unpinned = [(a, m + j) for a in range(m) for j in range(dim, k)]
        partial, sq = masked_partial(pts, unpinned, dim, num_anchors=m)

        fill = _congruent_fill(partial)
        assert fill is not None
        scale = sq.max()
        pinned = list(range(m + dim))
        assert np.abs(fill[np.ix_(pinned, pinned)]
                      - sq[np.ix_(pinned, pinned)]).max() <= 1e-9 * scale
        mirror = squared_edm(np.vstack([anchors,
                                        self.mirrored(body, body[:dim])]))
        assert np.abs(mirror - sq).max() > 1.0
        assert min(np.abs(fill - sq).max(),
                   np.abs(fill - mirror).max()) <= 1e-9 * scale


class TestEdmToPoints:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_round_trip(self, dim):
        rng = np.random.default_rng(10)
        pts = rng.uniform(-4, 4, (8, dim))
        sq = squared_edm(pts)
        rebuilt = squared_edm(edm_to_points(sq, dim))
        assert np.abs(rebuilt - sq).max() < 1e-9 * max(sq.max(), 1.0)

    def test_two_points(self):
        out = edm_to_points(np.array([[0.0, 4.0], [4.0, 0.0]]), 2)
        assert np.isclose(np.linalg.norm(out[0] - out[1]), 2.0)

    def test_all_zero(self):
        out = edm_to_points(np.zeros((4, 4)), 3)
        assert np.allclose(out, 0.0)

    def test_mildly_non_euclidean_warns_and_clamps(self):
        edm = np.array([[0.0, 1.0, 4.2025],
                        [1.0, 0.0, 1.0],
                        [4.2025, 1.0, 0.0]])
        with pytest.warns(RuntimeWarning):
            pts = edm_to_points(edm, 3)
        assert np.allclose(pts[:, 2], 0.0)

    def test_severely_non_euclidean_raises(self):
        edm = np.array([[0.0, 1.0, 25.0],
                        [1.0, 0.0, 1.0],
                        [25.0, 1.0, 0.0]])
        with pytest.raises(NonEuclideanMatrixError):
            edm_to_points(edm, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            edm_to_points(np.array([[0.0, 1.0], [2.0, 0.0]]), 2)
        with pytest.raises(ValueError):
            edm_to_points(np.array([[0.0, np.nan], [np.nan, 0.0]]), 2)
        with pytest.raises(ValueError):
            edm_to_points(np.zeros((3, 3)), 4)


class TestDistanceAlphabet:
    def test_single_node_bodies(self):
        conf1 = Conformation([[0.0, 0.0]])
        conf2 = Conformation([[0.0, 0.0]])
        alpha = build_distance_alphabet(conf1, conf2, 5.0, 7, 1e-6)
        assert len(alpha.values) == 1
        assert np.isclose(alpha.values[0], 25.0, atol=1e-5)

    def test_matches_exhaustive_enumeration_2d(self):
        conf1 = Conformation([[0.5, 0.0], [-0.5, 0.0]])
        conf2 = Conformation([[0.0, 0.8], [0.0, -0.8]])
        step = 1e-3
        alpha = build_distance_alphabet(conf1, conf2, 4.0, 4, step)

        expected = set()
        for k in range(4):
            rot = rotation_2d(2.0 * np.pi * k / 4)
            placed = conf2.coords @ rot.T + np.array([4.0, 0.0])
            for a in conf1.coords:
                for b in placed:
                    sq = float(((a - b) ** 2).sum())
                    expected.add(round(sq / step) * step)
        assert np.allclose(alpha.values, sorted(expected), atol=1e-12)

    def test_finer_step_never_shrinks(self):
        rng = np.random.default_rng(11)
        conf1 = Conformation(rng.uniform(-1, 1, (3, 3)))
        conf2 = Conformation(rng.uniform(-1, 1, (3, 3)))
        sizes = [len(build_distance_alphabet(conf1, conf2, 6.0, 16, step).values)
                 for step in (0.5, 0.25, 0.125, 1e-3)]
        assert sizes == sorted(sizes)

    def test_sorted_unique_nonnegative(self):
        rng = np.random.default_rng(12)
        conf1 = Conformation(rng.uniform(-1, 1, (4, 3)))
        conf2 = Conformation(rng.uniform(-1, 1, (4, 3)))
        alpha = build_distance_alphabet(conf1, conf2, 3.0, 10, 0.05)
        vals = alpha.values
        assert np.all(np.diff(vals) > 0)
        assert vals.min() >= 0.0

    def test_parameter_validation(self):
        conf = Conformation([[0.0, 0.0]])
        with pytest.raises(ValueError):
            build_distance_alphabet(conf, conf, 1.0, 0, 0.1)
        with pytest.raises(ValueError):
            build_distance_alphabet(conf, conf, 1.0, 4, 0.0)
        with pytest.raises(ValueError):
            build_distance_alphabet(conf, conf, -1.0, 4, 0.1)


class TestSnapToAlphabet:
    def completed_scene(self):
        rng = np.random.default_rng(5)
        c1 = rng.uniform(-1, 1, (4, 2))
        c1 -= c1.mean(axis=0)
        c2 = rng.uniform(-1, 1, (4, 2))
        c2 -= c2.mean(axis=0)
        body2 = c2 @ rotation_2d(np.pi / 2).T + np.array([6.0, 0.0])
        pts = np.vstack([c1, body2])
        partial, sq = masked_partial(pts, [(0, 5), (2, 6)], dim=2,
                                     num_anchors=4)
        return Conformation(c1), Conformation(c2), partial, sq

    def test_recovers_exact_truth(self):
        """When the true configuration is one of the sampled rotations the
        snapped entries land on the truth up to quantization."""
        conf1, conf2, partial, sq = self.completed_scene()
        res = complete_edm(partial)
        alpha = build_distance_alphabet(conf1, conf2, 6.0, 4, 1e-6)
        snapped = snap_to_alphabet(res, alpha)
        assert np.abs(snapped.completed - sq)[~partial.mask].max() < 1e-6

    def test_known_entries_untouched(self):
        conf1, conf2, partial, sq = self.completed_scene()
        res = complete_edm(partial)
        alpha = DistanceAlphabet([10.0, 20.0], 1.0, 1)
        snapped = snap_to_alphabet(res, alpha)
        assert np.array_equal(snapped.completed[partial.mask],
                              res.completed[partial.mask])
        assert np.array_equal(snapped.completed, snapped.completed.T)

    def test_member_value_unchanged(self):
        conf1, conf2, partial, sq = self.completed_scene()
        res = complete_edm(partial)
        alpha = DistanceAlphabet(np.unique(sq[~partial.mask]), 1e-9, 1)
        first = snap_to_alphabet(res, alpha)
        again = snap_to_alphabet(first, alpha)
        assert np.array_equal(first.completed[~partial.mask],
                              again.completed[~partial.mask])

    def test_tie_prefers_smaller(self):
        conf1, conf2, partial, sq = self.completed_scene()
        res = complete_edm(partial)
        unknown = res.completed[~partial.mask][0]
        alpha = DistanceAlphabet([unknown - 1.0, unknown + 1.0], 1.0, 1)
        snapped = snap_to_alphabet(res, alpha)
        assert np.isclose(snapped.completed[~partial.mask][0], unknown - 1.0)

    def test_idempotent(self):
        conf1, conf2, partial, sq = self.completed_scene()
        res = complete_edm(partial)
        alpha = build_distance_alphabet(conf1, conf2, 6.0, 8, 0.01)
        once = snap_to_alphabet(res, alpha)
        twice = snap_to_alphabet(once, alpha)
        assert np.array_equal(once.completed, twice.completed)
