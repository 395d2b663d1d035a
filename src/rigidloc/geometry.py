"""Rigid bodies, poses, velocities and shared point-set kernels.

A body is a fixed *conformation* of sensor nodes given in its own frame.
A pose (rotation + translation) places the conformation in the world frame,
and a body motion (angular + translational velocity) moves it. Everything is
in SI units (meters, radians, seconds) and works in 2 or 3 dimensions.

Batched kernels here and in ``estimators`` and ``completion`` give each
problem the same result whichever batch it is solved in. They keep one
rule: reduce with ``.sum(axis=-1)`` over a C-contiguous last axis, or with
a stacked ``np.matmul`` whose batch is a stack axis; numpy then sums each
row from its own values alone. A sum over 2 or 3 coordinates may also be
taken as element-wise additions of the per-coordinate terms, left to right
(``_squared_norms``), which gives the ``.sum(axis=-1)`` bit for bit and
runs along whole arrays instead of D values at a time. Never reduce over
a strided or non-last axis (an array made by selecting columns is copied
contiguous first), and never use a 2-D matrix product whose rows are the
batch: its blocking can change a row's result with the number of rows.
``TestBatchIndependence`` in ``tests/test_batch.py`` checks the property.
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


def _squared_norms(diff: np.ndarray) -> np.ndarray:
    """Squared norms over the last axis of ``diff`` (2 or 3 coordinates),
    summed left to right from per-coordinate products: bit for bit
    ``(diff**2).sum(axis=-1)``, without numpy's per-row loop over a short
    axis."""
    squares = diff * diff
    total = squares[..., 0] + squares[..., 1]
    for c in range(2, diff.shape[-1]):
        total += squares[..., c]
    return total


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from every row of ``a`` to every row of
    ``b`` (shape ... x len(a) x len(b)); leading axes broadcast."""
    return ((a[..., :, None, :] - b[..., None, :, :]) ** 2).sum(axis=-1)


def _proper_svd(matrix):
    """SVD factors (u, vt) of a square matrix or a stack of them, the last
    column of u negated where needed so that u @ vt is a proper rotation:
    the rotation nearest the matrix, reflections rejected."""
    u, _, vt = np.linalg.svd(matrix)
    signs = np.ones(u.shape[:-1])
    signs[..., -1] = np.where(np.linalg.det(u @ vt) < 0.0, -1.0, 1.0)
    return u * signs[..., None, :], vt


def _weighted_kabsch(source: np.ndarray, target: np.ndarray, weights):
    """Proper rotations + translations minimizing the weighted alignment
    error from source points onto target points, for a batch.

    ``target`` is T x K x D, ``weights`` T x K and ``source`` K x D (shared)
    or T x K x D. Zero-weight points drop out exactly. Returns T rotations,
    T translations and T weighted residual RMS values.
    """
    w = np.asarray(weights, dtype=float)
    total = w.sum(axis=-1)
    src_bar = (w[:, None, :] @ source)[:, 0] / total[:, None]
    dst_bar = (w[:, None, :] @ target)[:, 0] / total[:, None]
    src_c = source - src_bar[:, None, :]
    dst_c = target - dst_bar[:, None, :]
    cov = np.swapaxes(src_c * w[..., None], -1, -2) @ dst_c
    # the rotation nearest cov's transpose: V diag(1, ..., ±1) U^T
    u, vt = _proper_svd(cov)
    rot = np.swapaxes(vt, -1, -2) @ np.swapaxes(u, -1, -2)
    trans = dst_bar - (rot * src_bar[:, None, :]).sum(axis=-1)
    resid = dst_c - src_c @ np.swapaxes(rot, -1, -2)
    rms = np.sqrt((w * (resid**2).sum(axis=-1)).sum(axis=-1) / total)
    return rot, trans, rms


def _linear_factor(anchors):
    """Anchor-only part of the linearized point fix, for M x D anchors
    shared by every problem or B x M x D, one set per problem: subtracting
    the first range equation from the rest leaves a linear system in the
    position. Returns its pseudo-inverse and the anchor part of its
    right-hand side (read-only), and its rank with the cutoff ``lstsq``
    applies; ``_apply_linear_factor`` finishes the least-squares fixes."""
    first, rest = anchors[..., :1, :], anchors[..., 1:, :]
    pinv, rank = _pseudo_inverse(2.0 * (rest - first))
    base = (rest**2).sum(axis=-1) - (first**2).sum(axis=-1)
    return _freeze(pinv), _freeze(base), rank


def _pseudo_inverse(lhs):
    """Pseudo-inverse of a matrix or of each matrix of a stack, and its
    rank, with the cutoff ``lstsq`` applies: a singular value at most eps
    times the larger dimension times the largest singular value counts as
    0. Apply it as ``(pinv * rhs[..., None, :]).sum(axis=-1)``, which keeps
    the reduction rule."""
    u, svals, vt = np.linalg.svd(lhs, full_matrices=False)
    keep = svals > (np.finfo(float).eps * max(lhs.shape[-2:])
                    * svals.max(axis=-1, keepdims=True))
    # a singular value below the cutoff divides to an exact 0
    pinv = (np.swapaxes(vt, -1, -2) / np.where(keep, svals, np.inf)[..., None, :]
            @ np.swapaxes(u, -1, -2))
    return pinv, keep.sum(axis=-1)


def _apply_linear_factor(factor, dists):
    """Linearized fixes from the ``_linear_factor`` of their anchors: the
    B x D solutions for the B x M ``dists`` and the rank. With one factor
    per problem, a problem's fix does not depend on the others."""
    pinv, base, rank = factor
    dists = np.atleast_2d(dists)
    rhs = base - dists[:, 1:] ** 2 + dists[:, :1] ** 2
    return (pinv * rhs[:, None, :]).sum(axis=-1), rank


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# Identity matrices of the supported dimensions, built once because every
# ``Pose`` compares its rotation's Gram matrix with one.
_IDENTITY = {dim: _freeze(np.eye(dim)) for dim in (2, 3)}


def _check_poses(rotations: np.ndarray, translations: np.ndarray) -> None:
    """The checks of ``Pose`` over a stack of poses: float arrays of B
    rotations (B x D x D) and B translations (B x D). Raises the ValueError
    ``Pose`` raises for the first invalid pose, for its first failed check:
    a non-finite rotation, then translation; a wrong shape; a rotation off
    orthogonal, then off determinant +1, by more than ORTHOGONALITY_TOL."""
    def check_finite(first):
        if not np.isfinite(rotations[first]).all():
            raise ValueError("rotation must be finite")
        if not np.isfinite(translations[first]).all():
            raise ValueError("translation must be finite")

    if rotations.ndim != 3 or rotations.shape[1] != rotations.shape[2]:
        check_finite(0)
        raise ValueError("rotation must be square")
    dim = rotations.shape[2]
    if dim not in (2, 3):
        check_finite(0)
        raise ValueError("only 2D and 3D poses are supported")
    if translations.shape[1:] != (dim,):
        check_finite(0)
        raise ValueError("translation length must match rotation size")
    finite = np.isfinite(rotations).all() and np.isfinite(translations).all()
    faulty, safe = False, rotations
    if not finite:
        faulty = ~(np.isfinite(rotations).all(axis=(1, 2))
                   & np.isfinite(translations).all(axis=1))
        # a non-finite pose fails whatever its deviation; the identity in
        # its place keeps the deviations below free of NaN warnings
        safe = np.where(faulty[:, None, None], _IDENTITY[dim], rotations)
    err = np.abs(safe.transpose(0, 2, 1) @ safe - _IDENTITY[dim]).max(axis=(1, 2))
    det = np.linalg.det(safe)
    worst = np.maximum(err, np.abs(det - 1.0))
    if finite and worst.max(initial=0.0) <= ORTHOGONALITY_TOL:
        return
    first = (faulty | (worst > ORTHOGONALITY_TOL)).argmax()
    check_finite(first)
    if err[first] > ORTHOGONALITY_TOL:
        raise ValueError(f"rotation is not orthogonal (deviation {err[first]:.2e})")
    raise ValueError(f"rotation must have determinant +1, got {det[first]!r}")


def _place(coords: np.ndarray, rotations: np.ndarray, translations: np.ndarray):
    """World-frame positions R c_k + t of the K x D body-frame ``coords``
    under one pose (D x D, D) or a stack of them (B x D x D, B x D)."""
    return coords @ rotations.swapaxes(-1, -2) + translations[..., None, :]


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
        return np.sqrt(squared_distances(self.coords, self.coords))

    def affine_rank(self) -> int:
        """Rank of the centered coordinates, by ``affine_basis`` at its
        default tolerance.

        Equals ``dim`` when the nodes affinely span the full space. The
        pose estimators need at least ``dim`` - 1 for a unique rotation.
        """
        return affine_basis(self.coords)[2]

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
        rot = np.array(self.rotation, dtype=float)
        trans = np.array(self.translation, dtype=float).reshape(-1)
        _check_poses(rot[None], trans[None])
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
            u, vt = _proper_svd(np.array(rotation, dtype=float))
            rotation = u @ vt
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
        return np.sqrt(squared_distances(self.positions, self.positions))


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
    return PlacedBody(_place(conf.coords, pose.rotation, pose.translation))


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
    return _exp_rotations(np.array([[theta]], dtype=float))[0]


def rotation_about_axis(axis, theta: float) -> np.ndarray:
    """Rodrigues formula for a 3D rotation about a (non-zero) axis."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm == 0:
        raise ValueError("axis must be non-zero")
    return _exp_rotations((axis / norm * theta)[None])[0]


def _skew(w):
    """Skew matrices [w]x of the ... x 3 vectors w: [w]x v == cross(w, v)."""
    # [w]x holds w at (2, 1), (0, 2), (1, 0) and -w at the transposed places
    skew = np.zeros(w.shape + (3,))
    skew[..., [2, 0, 1], [1, 2, 0]] = w
    skew[..., [1, 2, 0], [2, 0, 1]] = -w
    return skew


def _exp_rotations(params):
    """Rotations of the B x 1 (2D) or B x 3 (3D) rotation parameters: the
    angle's planar rotation, or exp([w]x) of the rotation vector w by the
    Rodrigues formula."""
    if params.shape[1] == 1:
        c, s = np.cos(params[:, 0]), np.sin(params[:, 0])
        return np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
    skew = _skew(params)
    angle = np.sqrt((params**2).sum(axis=-1))
    # sin(θ)/θ and (1 - cos θ)/θ², both finite at θ = 0
    first = np.sinc(angle / np.pi)[:, None, None]
    second = 0.5 * np.sinc(angle / (2.0 * np.pi))[:, None, None] ** 2
    return np.eye(3) + first * skew + second * (skew @ skew)


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniformly distributed rotation matrix.

    2D draws a uniform angle; 3D draws a uniform unit quaternion (normalized
    Gaussian 4-vector) and converts it. Deterministic given the generator
    state; ``_drawn_rotations`` builds the same matrices for a stack of
    ``_rotation_draw`` draws.
    """
    return _drawn_rotations(_rotation_draw(rng, dim)[None])[0]


def _rotation_draw(rng: np.random.Generator, dim: int) -> np.ndarray:
    """The numbers ``random_rotation`` draws: a 1-vector holding an angle
    uniform in [0, 2π) in 2D, four standard normals in 3D."""
    if dim == 2:
        return np.array([rng.uniform(0.0, 2.0 * np.pi)])
    if dim == 3:
        return rng.normal(size=4)
    raise ValueError("dim must be 2 or 3")


def _drawn_rotations(draws: np.ndarray) -> np.ndarray:
    """Rotations of B stacked ``_rotation_draw`` draws (B x 1 or B x 4):
    each angle's planar rotation, or the rotation of each normalized
    quaternion. The norm is a stacked dot product of each draw with
    itself, which numpy computes as ``np.linalg.norm`` does (one BLAS dot
    per draw)."""
    if draws.shape[1] == 1:
        return _exp_rotations(draws)
    q = draws[:, None, :]
    w, x, y, z = (draws / np.sqrt((q @ np.swapaxes(q, 1, 2))[:, 0])).T
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(-1, 3, 3)


def cross_matrix(omega) -> np.ndarray:
    """Skew-symmetric matrix with cross_matrix(w) @ v == cross(w, v)."""
    w = np.asarray(omega, dtype=float).reshape(-1)
    if w.shape != (3,):
        raise ValueError("cross_matrix expects a 3-vector")
    return _skew(w)


def body_velocities(conf: Conformation, pose: Pose, motion: BodyMotion) -> np.ndarray:
    """Instantaneous world-frame velocity of every node (K x D).

    Each node inherits the frame velocity plus the spin term acting on its
    rotated body-frame coordinates.
    """
    if not (conf.dim == pose.dim == motion.dim):
        raise ValueError("conformation, pose and motion dimensions differ")
    omega = motion.omega if conf.dim == 3 else np.array([motion.omega])
    return _node_velocities(conf.coords, pose.rotation, omega, motion.t_dot)


def _node_velocities(coords, rotations, omegas, t_dots):
    """``body_velocities`` of the K x D ``coords`` under one rotation and
    motion or a stack of B: rotations (B x) D x D, omegas (B x) 1 in 2D or
    3 in 3D, t_dots (B x) D."""
    rotated = coords @ rotations.swapaxes(-1, -2)
    if coords.shape[1] == 2:
        spin = omegas[..., None] * rotated @ _J2.T
    else:
        spin = rotated @ _skew(omegas).swapaxes(-1, -2)
    return spin + t_dots[..., None, :]


def geometric_center(body: PlacedBody | Conformation) -> np.ndarray:
    """Mean of the node coordinates."""
    pts = body.positions if isinstance(body, PlacedBody) else body.coords
    return pts.mean(axis=0)


def rotation_angle(rotation: np.ndarray) -> float:
    """Rotation angle of a single rotation matrix, in [0, pi].

    Uses the Frobenius distance to the identity, which stays accurate for
    angles near zero where the trace formula loses digits.
    """
    return float(_rotation_angles(np.asarray(rotation, dtype=float)[None])[0])


def _rotation_angles(rotations: np.ndarray) -> np.ndarray:
    """Rotation angles of a B x D x D stack, as ``rotation_angle`` computes
    each: the Frobenius norm is a stacked dot product of each flattened
    difference with itself, which numpy computes as ``np.linalg.norm``
    does (one BLAS dot per rotation)."""
    diff = (rotations - np.eye(rotations.shape[1])).reshape(len(rotations), 1, -1)
    frob = np.sqrt((diff @ np.swapaxes(diff, 1, 2))[:, 0, 0])
    # fmin, like min(1.0, x), keeps 1.0 where x is NaN
    return 2.0 * np.arcsin(np.fmin(1.0, frob / (2.0 * np.sqrt(2.0))))


def rotation_geodesic_error(r_est: np.ndarray, r_true: np.ndarray) -> float:
    """Geodesic angle between two rotations (error metric, radians)."""
    return rotation_angle(np.asarray(r_est) @ np.asarray(r_true).T)
