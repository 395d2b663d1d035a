"""Tests for EDM completion, the congruent start and MDS embedding."""

import numpy as np
import pytest

from rigidloc.completion import (
    NonEuclideanMatrixError,
    _congruent_fill,
    _congruent_fill_batch,
    complete_edm,
    edm_to_points,
)
from rigidloc.geometry import (
    Conformation,
    _apply_linear_factor,
    _linear_factor,
    _weighted_kabsch,
    random_rotation,
)
from rigidloc.measurement import (
    AnchorSet,
    MaskedRangeMatrix,
    PartialEdm,
    assemble_partial_edm,
)


def squared_edm(points):
    diff = points[:, None, :] - points[None, :, :]
    return (diff**2).sum(axis=2)


def cross_distances(anchors, nodes):
    return np.sqrt(((anchors[:, None, :] - nodes[None, :, :]) ** 2).sum(axis=2))


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

    @pytest.mark.parametrize("slack", [-3, -10])
    def test_negative_rank_slack_rejected(self, slack):
        """A negative slack would cap the rank below that of the points."""
        pts = np.random.default_rng(10).uniform(-5, 5, (10, 3))
        partial, _ = masked_partial(pts, [(0, 4), (2, 7)], dim=3)
        with pytest.raises(ValueError, match="rank_slack must be non-negative"):
            complete_edm(partial, rank_slack=slack)

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


def reference_fill(anchors, body, cross_d, mask):
    """The congruent start trial by trial, one node fix at a time: the
    squared EDMs it may return (both mirrors when they fit the observed
    distances equally well) and the nodes it pinned, or None with fewer
    than ``dim`` pins."""
    dim, k = anchors.shape[1], body.shape[0]
    body_d = np.sqrt(squared_edm(body))
    pins = {}
    progress = True
    while progress:
        progress = False
        for j in range(k):
            rows = np.flatnonzero(mask[:, j])
            if j in pins or rows.size + len(pins) < dim + 1:
                continue
            refs = np.vstack([anchors[rows]] + [pins[p][None, :] for p in pins])
            dists = np.concatenate([cross_d[rows, j]]
                                   + [body_d[p, j:j + 1] for p in pins])
            fix, rank = _apply_linear_factor(_linear_factor(refs), dists)
            if rank == dim:
                pins[j] = fix[0]
                progress = True
    if len(pins) < dim:
        return None
    order = sorted(pins)
    pin_pts = np.asarray([pins[j] for j in order])
    fits = []
    for chirality in (1.0, -1.0):
        emb = body.copy()
        emb[:, -1] *= chirality
        rot, shift, _ = _weighted_kabsch(emb[order], pin_pts[None],
                                         np.ones((1, len(order))))
        placed = emb @ rot[0].T + shift[0]
        placed[order] = pin_pts
        misfit = cross_distances(anchors, placed) - cross_d
        fits.append((float((misfit[mask] ** 2).sum()),
                     squared_edm(np.vstack([anchors, placed]))))
    scale = squared_edm(anchors).max()
    if len(pins) == k or abs(fits[0][0] - fits[1][0]) <= 1e-9 * scale:
        return [fit for _, fit in fits[:1 if len(pins) == k else 2]], set(pins)
    return [min(fits, key=lambda fit: fit[0])[1]], set(pins)


def random_block(rng, dim, size, sigma):
    """Anchor and body coordinates and ``size`` trials of masked cross
    distances (missing fractions from 0 to 0.85). One block in four has
    its anchors in a hyperplane, so anchors alone pin no node."""
    anchors = rng.uniform(-20, 20, (int(rng.integers(dim + 1, 9)), dim))
    if rng.random() < 0.25:
        anchors[:, -1] = 0.0
    body = rng.uniform(-2, 2, (int(rng.integers(2, 9)), dim))
    cross, masks = [], []
    for _ in range(size):
        placed = body @ random_rotation(rng, dim).T + rng.uniform(-5, 5, dim)
        d = cross_distances(anchors, placed)
        masks.append(rng.random(d.shape) >= rng.uniform(0.0, 0.85))
        d = np.abs(d + rng.normal(0, sigma, d.shape))
        cross.append(np.where(masks[-1], d, np.nan))
    return anchors, body, np.array(cross), np.array(masks)


class TestCongruentFillBatch:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_node_by_node_reference(self, dim):
        """The batched core, on coordinates, and ``_congruent_fill``, on the
        partial EDM, agree with the one-fix-at-a-time loop to 1e-9 of the
        scale on noisy distances, None included, anchors in a hyperplane
        too."""
        rng = np.random.default_rng(90 + dim)
        seen = {"none": 0, "via_pins": 0, "filled": 0, "flat_anchors": 0}
        for _ in range(40):
            anchors, body, cross, masks = random_block(rng, dim, 10, sigma=0.05)
            seen["flat_anchors"] += not anchors[:, -1].any()
            placed, _, ok = _congruent_fill_batch(anchors, body, cross, masks)
            scale = squared_edm(np.vstack([anchors, anchors[:1] + body])).max()
            for t in range(len(cross)):
                ref = reference_fill(anchors, body, np.nan_to_num(cross[t]), masks[t])
                fills = [squared_edm(np.vstack([anchors, placed[t]])),
                         _congruent_fill(assemble_partial_edm(
                             AnchorSet(anchors), Conformation(body),
                             MaskedRangeMatrix(cross[t], masks[t])))]
                assert (fills[-1] is not None) == ok[t]
                assert ok[t] == (ref is not None)
                if ref is None:
                    assert np.isnan(placed[t]).all()
                    seen["none"] += 1
                    continue
                expected, pinned = ref
                seen["filled"] += 1
                seen["via_pins"] += any(masks[t][:, j].sum() < dim + 1 for j in pinned)
                for fill in fills:
                    assert min(np.abs(fill - e).max() for e in expected) <= 1e-9 * scale
        assert min(seen.values()) >= 5 and seen["none"] + seen["filled"] == 400

    @pytest.mark.parametrize("dim", [2, 3])
    def test_places_the_body_not_its_mirror(self, dim):
        """With exactly ``dim`` pins and no observed range on the other
        nodes, the body and its mirror image fit the data equally well; the
        batch aligns the body it is given, which no rigid motion mirrors."""
        rng = np.random.default_rng(0)
        anchors = rng.uniform(-20, 20, (dim + 2, dim))
        body = rng.uniform(-2, 2, (dim + 3, dim))
        true = body @ random_rotation(rng, dim).T + rng.uniform(-5, 5, dim)
        mask = np.zeros((dim + 2, dim + 3), dtype=bool)
        mask[:, :dim] = True
        placed, _, ok = _congruent_fill_batch(anchors, body,
                                           cross_distances(anchors, true)[None],
                                           mask[None])
        assert ok[0]
        assert np.abs(placed[0] - true).max() < 1e-9


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
