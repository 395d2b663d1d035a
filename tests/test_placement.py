"""Tests for frame potential, placement optimization and evaluation."""

import numpy as np
import pytest

from rigidloc.completion import NonEuclideanMatrixError
from rigidloc.estimators import DegenerateGeometryError, InsufficientMeasurementsError
from rigidloc.geometry import Conformation, _exp_rotations, random_rotation
from rigidloc.measurement import AnchorSet
from rigidloc.placement import (
    PlacementProblem,
    _pose_errors,
    error_statistics,
    evaluate_placement,
    frame_potential,
    optimize_placement,
)


class TestFramePotential:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_orthonormal_basis(self, dim):
        assert np.isclose(frame_potential(np.eye(dim)), dim, atol=1e-12)

    def test_repeated_vector(self):
        u = np.tile([1.0, 0.0], (5, 1))
        assert np.isclose(frame_potential(u), 25.0, atol=1e-12)

    def test_mercedes_frame(self):
        angles = np.deg2rad([0.0, 120.0, 240.0])
        u = np.column_stack([np.cos(angles), np.sin(angles)])
        assert np.isclose(frame_potential(u), 4.5, atol=1e-12)

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=(6, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        expected = sum((u[i] @ u[j]) ** 2
                       for i in range(6) for j in range(6))
        assert np.isclose(frame_potential(u), expected, atol=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=(5, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        rot = random_rotation(rng, 3)
        assert np.isclose(frame_potential(u @ rot.T), frame_potential(u),
                          atol=1e-12)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            frame_potential(np.array([[1.0, 1.0]]))


class TestOptimizePlacement:
    @pytest.mark.parametrize("m,dim", [(2, 2), (3, 2), (4, 2), (3, 3),
                                       (4, 3), (6, 3)])
    def test_reaches_tight_frame_bound(self, m, dim):
        problem = PlacementProblem(m, dim, anchor_radius=10.0, seed=3)
        result = optimize_placement(problem)
        bound = m * m / dim
        assert frame_potential(result.positions / 10.0) == pytest.approx(
            result.frame_potential)
        assert result.frame_potential >= bound - 1e-12
        assert result.frame_potential <= bound + 1e-3

    def test_tight_frame_condition(self):
        problem = PlacementProblem(4, 2, anchor_radius=5.0, seed=4)
        directions = optimize_placement(problem).positions / 5.0
        gram_sum = directions.T @ directions
        assert np.allclose(gram_sum, 2.0 * np.eye(2), atol=1e-2)

    def test_single_anchor(self):
        result = optimize_placement(PlacementProblem(1, 3))
        assert np.isclose(result.frame_potential, 1.0, atol=1e-12)
        assert result.positions.shape == (1, 3)

    def test_positions_on_sphere(self):
        problem = PlacementProblem(6, 3, anchor_radius=12.0, seed=5)
        result = optimize_placement(problem)
        radii = np.linalg.norm(result.positions, axis=1)
        assert np.allclose(radii, 12.0, atol=1e-9)
        anchors = result.to_anchor_set()
        assert isinstance(anchors, AnchorSet)
        assert np.array_equal(anchors.positions, result.positions)

    def test_deterministic_for_seed(self):
        problem = PlacementProblem(5, 3, seed=6)
        a = optimize_placement(problem)
        b = optimize_placement(problem)
        assert np.array_equal(a.positions, b.positions)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            PlacementProblem(0, 3)
        with pytest.raises(ValueError):
            PlacementProblem(4, 3, anchor_radius=0.0)
        with pytest.raises(ValueError):
            PlacementProblem(4, 4)


class TestEvaluatePlacement:
    def body(self):
        return Conformation([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                             [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
                             [0.0, 0.0, 1.0]])

    def test_noiseless_rmse_vanishes(self):
        anchors = optimize_placement(PlacementProblem(6, 3,
                                                      anchor_radius=20.0,
                                                      seed=7)).to_anchor_set()
        ev = evaluate_placement(anchors, self.body(), 0.0, trials=20, seed=1)
        assert ev.translation_rmse < 1e-6
        assert ev.rotation_rmse < 1e-6
        assert ev.failures == 0
        assert ev.trials == 20

    def test_tight_frame_beats_clustered(self):
        """Anchors spread as a tight frame localize better than the same
        number of anchors bunched within a 5 degree arc."""
        tight = optimize_placement(PlacementProblem(6, 3, anchor_radius=20.0,
                                                    seed=8)).to_anchor_set()
        arc = np.deg2rad(np.linspace(-2.5, 2.5, 6))
        clustered = AnchorSet(np.column_stack([
            20.0 * np.cos(arc), 20.0 * np.sin(arc),
            np.linspace(-0.8, 0.8, 6)]))
        sigma = 0.1
        ev_tight = evaluate_placement(tight, self.body(), sigma,
                                      trials=500, seed=2)
        ev_clustered = evaluate_placement(clustered, self.body(), sigma,
                                          trials=500, seed=2)
        assert ev_tight.translation_rmse < ev_clustered.translation_rmse
        assert ev_tight.rotation_rmse < ev_clustered.rotation_rmse

    def test_standard_error_scales_with_trials(self):
        anchors = optimize_placement(PlacementProblem(6, 3, anchor_radius=20.0,
                                                      seed=9)).to_anchor_set()
        ev_n = evaluate_placement(anchors, self.body(), 0.1, trials=400, seed=3)
        ev_2n = evaluate_placement(anchors, self.body(), 0.1, trials=800, seed=3)
        ratio = ev_2n.translation_se / ev_n.translation_se
        assert abs(ratio - 1.0 / np.sqrt(2.0)) < 0.3 / np.sqrt(2.0)

    def test_deterministic_given_seed(self):
        anchors = optimize_placement(PlacementProblem(5, 3, anchor_radius=15.0,
                                                      seed=10)).to_anchor_set()
        a = evaluate_placement(anchors, self.body(), 0.05, trials=50, seed=4)
        b = evaluate_placement(anchors, self.body(), 0.05, trials=50, seed=4)
        assert a == b

    def test_dimension_mismatch_raises(self):
        anchors = AnchorSet([[20.0, 0.0], [0.0, 20.0], [-20.0, 0.0]])
        with pytest.raises(ValueError, match="dimensions differ"):
            evaluate_placement(anchors, self.body(), 0.1, trials=4)

    @pytest.mark.parametrize("sigma", [-0.1, np.nan, np.inf])
    def test_negative_or_nan_sigma_rejected(self, sigma):
        """Such a noise level, or an infinite one, raises instead of scoring
        noiseless trials or failing a later check."""
        anchors = optimize_placement(PlacementProblem(6, 3, anchor_radius=20.0,
                                                      seed=7)).to_anchor_set()
        with pytest.raises(ValueError, match="sigma must be non-negative"):
            evaluate_placement(anchors, self.body(), sigma, trials=4, seed=1)

    def test_failures_counted_not_fatal(self):
        # two anchors cannot multilaterate any 3D node
        anchors = AnchorSet([[20.0, 0.0, 0.0], [0.0, 20.0, 0.0]])
        ev = evaluate_placement(anchors, self.body(), 0.01, trials=10, seed=5)
        assert ev.failures == 10
        assert np.isnan(ev.translation_rmse)


CLASSIFIED = [InsufficientMeasurementsError, DegenerateGeometryError,
              NonEuclideanMatrixError]


class TestTrialFailures:
    """Only the classified estimation errors fail a trial; any other
    ``ValueError`` is a fault and propagates."""

    @staticmethod
    def blocks():
        """Four trials in blocks of three and one."""
        return [(None, [0, 1, 2]), (None, [3])]

    @pytest.mark.parametrize("error", CLASSIFIED)
    def test_classified_errors_are_counted(self, error):
        def fail_all(items):
            return None, [error("no fix")] * len(items)
        stats = error_statistics(self.blocks(), fail_all)
        assert (stats.failures, stats.trials) == (4, 4)

    def test_other_errors_propagate(self):
        def broken_block(items):
            return None, [ValueError("bug")] * len(items)
        with pytest.raises(ValueError, match="bug"):
            error_statistics(self.blocks(), broken_block)


@pytest.mark.parametrize("dim", [2, 3])
def test_block_scoring_matches_the_one_pose_formula(dim):
    """Scoring a block gives, bit for bit, what the one-pose formula gives
    pair by pair: ``np.linalg.norm`` for the Frobenius distance to the
    identity and Python's float power for the square (``x * x`` differs
    from it in the last bit for about one angle in 1300)."""
    rng = np.random.default_rng(dim)
    count = 20000
    true_rot = np.stack([random_rotation(rng, dim) for _ in range(count)])
    turns = rng.normal(scale=0.05, size=(count, 1 if dim == 2 else 3))
    est_rot = _exp_rotations(turns) @ true_rot
    true_trans, est_trans = rng.normal(size=(2, count, dim))
    t_sq, r_sq = _pose_errors((est_rot, est_trans), (true_rot, true_trans))
    want_t, want_r = [], []
    for i in range(count):
        frob = np.linalg.norm(est_rot[i] @ true_rot[i].T - np.eye(dim))
        angle = float(2.0 * np.arcsin(min(1.0, frob / (2.0 * np.sqrt(2.0)))))
        want_r.append(angle ** 2)
        want_t.append(float(((est_trans[i] - true_trans[i]) ** 2).sum()))
    assert np.array_equal(t_sq, want_t)
    assert np.array_equal(r_sq, want_r)
