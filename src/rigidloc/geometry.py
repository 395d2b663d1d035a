"""Rigid bodies, poses and velocities.

A body is a fixed *conformation* of sensor nodes given in its own frame.
A pose (rotation + translation) places the conformation in the world frame,
and a body motion (angular + translational velocity) moves it. Everything is
in SI units (meters, radians, seconds) and works in 2 or 3 dimensions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Rotations are accepted as valid if they satisfy R^T R = I and det R = +1
# within this tolerance.
ORTHOGONALITY_TOL = 1e-9

# 90 degree turn: the planar analogue of the cross product operator.
_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def affine_basis(points: np.ndarray, tol: float = 1e-9):
    """(center, directions, rank) of a point set's affine hull.

    The rows of ``directions`` are orthonormal, ordered by decreasing
    spread: the first ``rank`` span the hull, the rest its missing
    directions. A singular value counts when it exceeds ``tol`` times the
    largest one, or times 1 if that is smaller.
    """
    center = points.mean(axis=0)
    _, svals, vt = np.linalg.svd(points - center, full_matrices=True)
    svals = np.concatenate([svals, np.zeros(points.shape[1] - len(svals))])
    scale = max(svals.max(initial=0.0), 1.0)
    return center, vt, int(np.sum(svals > tol * scale))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Conformation:
    """Body-frame node coordinates, one node per row (K x D), in meters.

    The coordinates are constants of the body; placing or moving the body
    never alters them, so instances are immutable.
    """

    coords: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        coords = _as_float_array(self.coords, "coords")
        if coords.ndim != 2 or coords.shape[0] < 1:
            raise ValueError("coords must be a K x D array with K >= 1")
        if coords.shape[1] not in (2, 3):
            raise ValueError("only 2D and 3D bodies are supported")
        object.__setattr__(self, "coords", _freeze(coords))
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != coords.shape[0]:
                raise ValueError("labels must match the number of nodes")
            object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @property
    def num_nodes(self) -> int:
        return self.coords.shape[0]

    def pairwise_distances(self) -> np.ndarray:
        """K x K matrix of internode distances (fixed for a rigid body)."""
        diff = self.coords[:, None, :] - self.coords[None, :, :]
        return np.sqrt((diff**2).sum(axis=2))

    def affine_rank(self, tol: float = 1e-9) -> int:
        """Rank of the centered coordinates.

        Equals ``dim`` when the nodes affinely span the full space, which is
        what the pose estimators need for a unique rotation.
        """
        return affine_basis(self.coords, tol)[2]

    def spans_space(self) -> bool:
        return self.affine_rank() == self.dim

    def to_json(self) -> str:
        obj = {"dim": self.dim, "coords": self.coords.tolist()}
        if self.labels is not None:
            obj["labels"] = list(self.labels)
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "Conformation":
        obj = json.loads(text)
        conf = cls(np.array(obj["coords"], dtype=float),
                   tuple(obj["labels"]) if "labels" in obj else None)
        if "dim" in obj and int(obj["dim"]) != conf.dim:
            raise ValueError("declared dim does not match coords")
        return conf


@dataclass(frozen=True)
class Pose:
    """A proper rigid motion: rotation matrix plus translation vector."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = _as_float_array(self.rotation, "rotation")
        trans = _as_float_array(self.translation, "translation").reshape(-1)
        if rot.ndim != 2 or rot.shape[0] != rot.shape[1]:
            raise ValueError("rotation must be square")
        dim = rot.shape[0]
        if dim not in (2, 3):
            raise ValueError("only 2D and 3D poses are supported")
        if trans.shape != (dim,):
            raise ValueError("translation length must match rotation size")
        err = np.abs(rot.T @ rot - np.eye(dim)).max()
        if err > ORTHOGONALITY_TOL:
            raise ValueError(f"rotation is not orthogonal (deviation {err:.2e})")
        det = np.linalg.det(rot)
        if abs(det - 1.0) > ORTHOGONALITY_TOL:
            raise ValueError(f"rotation must have determinant +1, got {det!r}")
        object.__setattr__(self, "rotation", _freeze(rot))
        object.__setattr__(self, "translation", _freeze(trans))

    @property
    def dim(self) -> int:
        return self.rotation.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "Pose":
        return cls(np.eye(dim), np.zeros(dim))

    @classmethod
    def from_matrix(cls, rotation, translation, reorthonormalize: bool = False) -> "Pose":
        """Build a pose, optionally snapping a drifted matrix back to SO(D).

        With ``reorthonormalize`` the nearest rotation (polar decomposition,
        reflections rejected) replaces the given matrix.
        """
        if reorthonormalize:
            rot = np.array(rotation, dtype=float)
            u, _, vt = np.linalg.svd(rot)
            signs = np.ones(rot.shape[0])
            signs[-1] = np.sign(np.linalg.det(u @ vt))
            rotation = (u * signs) @ vt
        return cls(rotation, translation)

    def to_json(self) -> str:
        return json.dumps({"R": self.rotation.tolist(),
                           "t": self.translation.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "Pose":
        obj = json.loads(text)
        return cls(np.array(obj["R"], dtype=float), np.array(obj["t"], dtype=float))


@dataclass(frozen=True)
class PlacedBody:
    """World-frame node positions of a body, one node per row (K x D)."""

    positions: np.ndarray

    def __post_init__(self):
        pos = _as_float_array(self.positions, "positions")
        if pos.ndim != 2 or pos.shape[0] < 1 or pos.shape[1] not in (2, 3):
            raise ValueError("positions must be a K x D array, D in {2, 3}")
        object.__setattr__(self, "positions", _freeze(pos))

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def num_nodes(self) -> int:
        return self.positions.shape[0]

    def pairwise_distances(self) -> np.ndarray:
        diff = self.positions[:, None, :] - self.positions[None, :, :]
        return np.sqrt((diff**2).sum(axis=2))


@dataclass(frozen=True)
class BodyMotion:
    """Angular velocity (scalar in 2D, vector in 3D) and frame velocity."""

    omega: float | np.ndarray
    t_dot: np.ndarray

    def __post_init__(self):
        t_dot = _as_float_array(self.t_dot, "t_dot").reshape(-1)
        if t_dot.shape[0] == 2:
            omega = float(self.omega)
            if not np.isfinite(omega):
                raise ValueError("omega must be finite")
        elif t_dot.shape[0] == 3:
            omega = _as_float_array(self.omega, "omega").reshape(-1)
            if omega.shape != (3,):
                raise ValueError("3D angular velocity must be a 3-vector")
            omega = _freeze(omega)
        else:
            raise ValueError("t_dot must have length 2 or 3")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "t_dot", _freeze(t_dot))

    @property
    def dim(self) -> int:
        return self.t_dot.shape[0]


def apply_pose(conf: Conformation, pose: Pose) -> PlacedBody:
    """Place a conformation in the world frame: s_k = R c_k + t."""
    if conf.dim != pose.dim:
        raise ValueError("conformation and pose dimensions differ")
    return PlacedBody(conf.coords @ pose.rotation.T + pose.translation)


def compose(first: Pose, second: Pose) -> Pose:
    """Pose applying ``second`` then ``first`` (matrix-style composition)."""
    if first.dim != second.dim:
        raise ValueError("pose dimensions differ")
    return Pose(first.rotation @ second.rotation,
                first.rotation @ second.translation + first.translation)


def inverse(pose: Pose) -> Pose:
    rot_t = pose.rotation.T
    return Pose(rot_t.copy(), -rot_t @ pose.translation)


def rotation_2d(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotation_about_axis(axis, theta: float) -> np.ndarray:
    """Rodrigues formula for a 3D rotation about a (non-zero) axis."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm == 0:
        raise ValueError("axis must be non-zero")
    k = cross_matrix(axis / norm)
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniformly distributed rotation matrix.

    2D draws a uniform angle; 3D draws a uniform unit quaternion (normalized
    Gaussian 4-vector) and converts it. Deterministic given the generator
    state.
    """
    if dim == 2:
        return rotation_2d(rng.uniform(0.0, 2.0 * np.pi))
    if dim == 3:
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        w, x, y, z = q
        return np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])
    raise ValueError("dim must be 2 or 3")


def cross_matrix(omega) -> np.ndarray:
    """Skew-symmetric matrix with cross_matrix(w) @ v == cross(w, v)."""
    w = np.asarray(omega, dtype=float).reshape(-1)
    if w.shape != (3,):
        raise ValueError("cross_matrix expects a 3-vector")
    return np.array([
        [0.0, -w[2], w[1]],
        [w[2], 0.0, -w[0]],
        [-w[1], w[0], 0.0],
    ])


def body_velocities(conf: Conformation, pose: Pose, motion: BodyMotion) -> np.ndarray:
    """Instantaneous world-frame velocity of every node (K x D).

    Each node inherits the frame velocity plus the spin term acting on its
    rotated body-frame coordinates.
    """
    if not (conf.dim == pose.dim == motion.dim):
        raise ValueError("conformation, pose and motion dimensions differ")
    rotated = conf.coords @ pose.rotation.T
    if conf.dim == 2:
        spin = motion.omega * rotated @ _J2.T
    else:
        spin = rotated @ cross_matrix(motion.omega).T
    return spin + motion.t_dot


def geometric_center(body: PlacedBody | Conformation) -> np.ndarray:
    """Mean of the node coordinates."""
    pts = body.positions if isinstance(body, PlacedBody) else body.coords
    return pts.mean(axis=0)


def rotation_angle(rotation: np.ndarray) -> float:
    """Rotation angle of a single rotation matrix, in [0, pi].

    Uses the Frobenius distance to the identity, which stays accurate for
    angles near zero where the trace formula loses digits.
    """
    rotation = np.asarray(rotation, dtype=float)
    frob = np.linalg.norm(rotation - np.eye(rotation.shape[0]))
    return float(2.0 * np.arcsin(min(1.0, frob / (2.0 * np.sqrt(2.0)))))


def rotation_geodesic_error(r_est: np.ndarray, r_true: np.ndarray) -> float:
    """Geodesic angle between two rotations (error metric, radians)."""
    return rotation_angle(np.asarray(r_est) @ np.asarray(r_true).T)
