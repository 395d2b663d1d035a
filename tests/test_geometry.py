"""Tests for rigid body types, poses and velocity kinematics."""

import json

import numpy as np
import pytest
from scipy.linalg import expm

from rigidloc.geometry import (
    BodyMotion,
    Conformation,
    PlacedBody,
    Pose,
    apply_pose,
    body_velocities,
    cross_matrix,
    random_rotation,
    rotation_2d,
    rotation_about_axis,
    rotation_angle,
    rotation_geodesic_error,
    squared_distances,
)


def random_conformation(rng, k, dim, scale=3.0):
    return Conformation(rng.uniform(-scale, scale, size=(k, dim)))


def random_pose(rng, dim, spread=10.0):
    return Pose(random_rotation(rng, dim), rng.uniform(-spread, spread, size=dim))


class TestConformation:
    def test_properties(self):
        conf = Conformation([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        assert conf.dim == 2
        assert conf.num_nodes == 3
        d = conf.pairwise_distances()
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)
        assert np.isclose(d[1, 2], np.hypot(1.0, 2.0))

    def test_immutable(self):
        conf = Conformation([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            conf.coords[0, 0] = 5.0

    @pytest.mark.filterwarnings("error")
    def test_validation(self):
        with pytest.raises(ValueError):
            Conformation(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            Conformation([[np.nan, 0.0]])
        with pytest.raises(ValueError):
            Conformation(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            Conformation([[0.0, 0.0]], labels=("a", "b"))
        with pytest.raises(ValueError, match="coords are too far apart"):
            Conformation([[0.0, 0.0], [-1e160, 1e160]])

    def test_affine_rank(self):
        line = Conformation([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        assert line.affine_rank() == 1
        assert not line.spans_space()
        tetra = Conformation([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]])
        assert tetra.affine_rank() == 3
        assert tetra.spans_space()

    def test_json_round_trip(self):
        conf = Conformation([[0.5, -1.0, 2.0], [3.0, 4.0, -0.25]], labels=("a", "b"))
        back = Conformation.from_json(conf.to_json())
        assert np.array_equal(back.coords, conf.coords)
        assert back.labels == conf.labels
        obj = json.loads(conf.to_json())
        assert obj["dim"] == 3
        assert obj["coords"] == conf.coords.tolist()

    def test_json_dim_mismatch(self):
        with pytest.raises(ValueError):
            Conformation.from_json(json.dumps({"dim": 3, "coords": [[0.0, 1.0]]}))


class TestPose:
    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            Pose(np.array([[1.0, 0.1], [0.0, 1.0]]), np.zeros(2))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            Pose(np.diag([1.0, -1.0]), np.zeros(2))

    def test_reorthonormalize(self):
        rng = np.random.default_rng(7)
        r = random_rotation(rng, 3) + 1e-6 * rng.normal(size=(3, 3))
        with pytest.raises(ValueError):
            Pose(r, np.zeros(3))
        pose = Pose.from_matrix(r, np.zeros(3), reorthonormalize=True)
        assert np.allclose(pose.rotation.T @ pose.rotation, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(pose.rotation), 1.0)
        # snapping stays close to the input
        assert np.abs(pose.rotation - r).max() < 1e-5


class TestApplyPose:
    def test_identity(self):
        conf = Conformation([[1.0, 2.0], [-0.5, 0.25]])
        placed = apply_pose(conf, Pose.identity(2))
        assert np.allclose(placed.positions, conf.coords)

    def test_quarter_turn_with_translation(self):
        """90 degree turn moves (1, 0) to (0, 1); then shift by (1, 1)."""
        conf = Conformation([[1.0, 0.0]])
        pose = Pose(rotation_2d(np.pi / 2.0), [1.0, 1.0])
        placed = apply_pose(conf, pose)
        assert np.allclose(placed.positions, [[1.0, 2.0]], atol=1e-12)

    def test_preserves_pairwise_distances(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3):
            conf = random_conformation(rng, 6, dim)
            placed = apply_pose(conf, random_pose(rng, dim))
            assert np.allclose(squared_distances(placed.positions, placed.positions),
                               squared_distances(conf.coords, conf.coords), atol=1e-9)

    def test_dim_mismatch(self):
        conf = Conformation([[1.0, 0.0]])
        with pytest.raises(ValueError):
            apply_pose(conf, Pose.identity(3))


class TestRandomRotation:
    def test_valid_and_deterministic(self):
        for dim in (2, 3):
            r1 = random_rotation(np.random.default_rng(42), dim)
            r2 = random_rotation(np.random.default_rng(42), dim)
            assert np.array_equal(r1, r2)
            assert np.allclose(r1.T @ r1, np.eye(dim), atol=1e-12)
            assert np.isclose(np.linalg.det(r1), 1.0)

    def test_entry_mean_vanishes(self):
        """Uniform sampling: entry means over 1e5 draws stay near zero."""
        rng = np.random.default_rng(2024)
        n = 100_000
        total = np.zeros((3, 3))
        for _ in range(n):
            total += random_rotation(rng, 3)
        assert np.abs(total / n).max() < 0.01


class TestVelocities:
    def test_cross_matrix(self):
        rng = np.random.default_rng(5)
        w, v = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(cross_matrix(w) @ v, np.cross(w, v), atol=1e-12)
        assert np.allclose(cross_matrix(w), -cross_matrix(w).T)

    def test_zero_motion(self):
        rng = np.random.default_rng(17)
        conf = random_conformation(rng, 4, 3)
        motion = BodyMotion(np.zeros(3), np.zeros(3))
        vel = body_velocities(conf, random_pose(rng, 3), motion)
        assert np.allclose(vel, 0.0)

    def test_pure_translation(self):
        rng = np.random.default_rng(19)
        conf = random_conformation(rng, 4, 2)
        motion = BodyMotion(0.0, [1.5, -2.0])
        vel = body_velocities(conf, random_pose(rng, 2), motion)
        assert np.allclose(vel, np.tile([1.5, -2.0], (4, 1)), atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_finite_difference_oracle(self, dim):
        """Velocities match (s(h) - s(0)) / h when the pose is propagated
        with the matrix exponential of the spin."""
        rng = np.random.default_rng(31)
        h = 1e-6
        conf = random_conformation(rng, 5, dim)
        pose = random_pose(rng, dim)
        if dim == 2:
            omega = rng.uniform(-2, 2)
            gen = omega * np.array([[0.0, -1.0], [1.0, 0.0]])
        else:
            omega = rng.uniform(-2, 2, size=3)
            gen = cross_matrix(omega)
        t_dot = rng.uniform(-5, 5, size=dim)
        motion = BodyMotion(omega, t_dot)

        moved = Pose.from_matrix(expm(gen * h) @ pose.rotation,
                                 pose.translation + t_dot * h,
                                 reorthonormalize=True)
        fd = (apply_pose(conf, moved).positions - apply_pose(conf, pose).positions) / h
        vel = body_velocities(conf, pose, motion)
        assert np.abs(fd - vel).max() <= 10.0 * h

    def test_motion_validation(self):
        with pytest.raises(ValueError):
            BodyMotion([0.1, 0.2], np.zeros(3))
        with pytest.raises(ValueError):
            BodyMotion(0.5, np.zeros(4))


class TestCenterAndMetrics:
    def test_rotation_angle(self):
        assert rotation_angle(np.eye(3)) == 0.0
        assert np.isclose(rotation_angle(rotation_2d(0.3)), 0.3, atol=1e-12)
        r = rotation_about_axis([0, 0, 1.0], 1.2)
        assert np.isclose(rotation_angle(r), 1.2, atol=1e-12)
        # stable for tiny angles where the trace formula would round off
        tiny = rotation_about_axis([1.0, 2.0, -0.5], 1e-9)
        assert np.isclose(rotation_angle(tiny), 1e-9, rtol=1e-4)

    def test_geodesic_error(self):
        rng = np.random.default_rng(41)
        r = random_rotation(rng, 3)
        assert rotation_geodesic_error(r, r) < 1e-7
        turned = rotation_about_axis([0, 1.0, 0], 0.4) @ r
        assert np.isclose(rotation_geodesic_error(turned, r), 0.4, atol=1e-9)
