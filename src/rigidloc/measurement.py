"""Synthetic wireless measurements between anchors and body nodes.

Ranges, range-rates and angles of arrival are simulated with additive
Gaussian noise; blocked or otherwise unobserved entries carry NaN plus a
False mask bit, never a zero, so nothing downstream can mistake a missing
measurement for a distance of zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .geometry import (
    BodyMotion,
    Conformation,
    PlacedBody,
    Pose,
    affine_basis,
    apply_pose,
    body_velocities,
)

# Minimum anchor separation: coincident anchors carry no extra information
# and break direction computations.
MIN_ANCHOR_SEPARATION = 1e-9

# Slab thickness used when an occluder's hull is flat (rank-deficient).
DEGENERATE_HULL_THICKNESS = 1e-6


def wrap_angle(angle):
    """Wrap angles into (-pi, pi]."""
    return np.pi - np.remainder(np.pi - np.asarray(angle, dtype=float), 2.0 * np.pi)


@dataclass(frozen=True)
class AnchorSet:
    """Fixed anchor positions at known world coordinates, one per row."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[0] < 1 or pos.shape[1] not in (2, 3):
            raise ValueError("positions must be an M x D array, D in {2, 3}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("anchor positions must be finite")
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        if dist.min() <= MIN_ANCHOR_SEPARATION:
            raise ValueError("anchors closer than the minimum separation")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def num_anchors(self) -> int:
        return self.positions.shape[0]

    def to_json(self) -> str:
        return json.dumps({"positions": self.positions.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "AnchorSet":
        return cls(np.array(json.loads(text)["positions"], dtype=float))


def _masked_values(values, mask, name: str, nonnegative: bool):
    values = np.array(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"{name} must be 2-D")
    if mask is None:
        mask = np.isfinite(values)
    mask = np.array(mask, dtype=bool)
    if mask.shape != values.shape:
        raise ValueError("mask shape must match values")
    observed = values[mask]
    if not np.all(np.isfinite(observed)):
        raise ValueError("observed entries must be finite")
    if nonnegative and observed.size and observed.min() < 0:
        raise ValueError("observed entries must be non-negative")
    values[~mask] = np.nan
    values.flags.writeable = False
    mask.flags.writeable = False
    return values, mask


@dataclass(frozen=True)
class MaskedRangeMatrix:
    """Anchor-to-node distances (M x K, meters) with an observation mask.

    Unobserved entries hold NaN so accidental reads poison the result
    instead of silently acting like a zero-length measurement.
    """

    values: np.ndarray
    mask: np.ndarray = None
    noise_sigma: float = 0.0

    def __post_init__(self):
        values, mask = _masked_values(self.values, self.mask, "values", nonnegative=True)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "noise_sigma", float(self.noise_sigma))

    @property
    def shape(self):
        return self.values.shape

    def observed_per_node(self) -> np.ndarray:
        """Number of observed ranges for each body node (length K)."""
        return self.mask.sum(axis=0)

    def to_json(self) -> str:
        vals = [[None if np.isnan(v) else v for v in row] for row in self.values]
        return json.dumps({"values": vals, "mask": self.mask.astype(int).tolist()})

    @classmethod
    def from_json(cls, text: str) -> "MaskedRangeMatrix":
        obj = json.loads(text)
        values = np.array([[np.nan if v is None else v for v in row]
                           for row in obj["values"]], dtype=float)
        return cls(values, np.array(obj["mask"], dtype=bool))

    def to_csv(self, values_path, mask_path):
        np.savetxt(values_path, self.values, delimiter=",")
        np.savetxt(mask_path, self.mask.astype(int), delimiter=",", fmt="%d")

    @classmethod
    def from_csv(cls, values_path, mask_path):
        values = np.loadtxt(values_path, delimiter=",", ndmin=2)
        mask = np.loadtxt(mask_path, delimiter=",", ndmin=2).astype(bool)
        return cls(values, mask)


@dataclass(frozen=True)
class AngleMeasurements:
    """Azimuth (and elevation in 3D) from each anchor to each node, radians."""

    azimuth: np.ndarray
    elevation: np.ndarray = None
    mask: np.ndarray = None
    noise_sigma: float = 0.0

    def __post_init__(self):
        azimuth, mask = _masked_values(self.azimuth, self.mask, "azimuth",
                                       nonnegative=False)
        observed = azimuth[mask]
        if observed.size and (observed.min() <= -np.pi or observed.max() > np.pi):
            raise ValueError("azimuth must lie in (-pi, pi]")
        object.__setattr__(self, "azimuth", azimuth)
        object.__setattr__(self, "mask", mask)
        if self.elevation is not None:
            elevation, _ = _masked_values(self.elevation, mask, "elevation",
                                          nonnegative=False)
            obs = elevation[mask]
            if obs.size and (obs.min() < -np.pi / 2 or obs.max() > np.pi / 2):
                raise ValueError("elevation must lie in [-pi/2, pi/2]")
            object.__setattr__(self, "elevation", elevation)
        object.__setattr__(self, "noise_sigma", float(self.noise_sigma))

    @property
    def shape(self):
        return self.azimuth.shape


class HullOcclusion:
    """Visibility model where the convex hull of each body blocks the path."""

    def __init__(self, *bodies: PlacedBody):
        if not bodies:
            raise ValueError("at least one occluding body is required")
        self.bodies = tuple(bodies)

    def blocked(self, p, q) -> bool:
        return any(line_of_sight_blocked(p, q, body) for body in self.bodies)


def _hull_equations(points: np.ndarray) -> np.ndarray:
    """Facet equations [a | b] with a.x + b <= 0 inside the hull.

    A flat point set is inflated into a thin slab (thickness 1e-6 m) along
    its missing directions so grazing rays are still handled sensibly.
    """
    try:
        return ConvexHull(points).equations
    except QhullError:
        pass
    _, directions, rank = affine_basis(points, tol=1e-12)
    thin = directions[rank:]
    inflated = [points]
    for direction in thin:
        offset = 0.5 * DEGENERATE_HULL_THICKNESS * direction
        inflated = [pts + offset for pts in inflated] + [pts - offset for pts in inflated]
    return ConvexHull(np.vstack(inflated)).equations


def line_of_sight_blocked(p, q, occluder: PlacedBody) -> bool:
    """True when the open segment (p, q) passes through the hull interior.

    Touching the hull boundary (including segment endpoints that are hull
    vertices) does not count as blockage.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    if p.shape != q.shape or p.shape[0] != occluder.dim:
        raise ValueError("endpoint dimensions must match the occluder")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise ValueError("segment endpoints must be finite")
    if np.array_equal(p, q):
        raise ValueError("segment endpoints coincide")

    equations = _hull_equations(occluder.positions)
    normals, offsets = equations[:, :-1], equations[:, -1]
    fp = normals @ p + offsets
    fq = normals @ q + offsets

    # Clip the segment parameter interval against every facet half-space.
    lo, hi = 0.0, 1.0
    for a, b in zip(fp, fq):
        delta = b - a
        if delta == 0.0:
            if a > 0.0:
                return False
            continue
        crossing = -a / delta
        if delta > 0.0:
            hi = min(hi, crossing)
        else:
            lo = max(lo, crossing)
        if lo >= hi:
            return False
    if hi - lo <= 1e-12:
        return False
    mid = p + 0.5 * (lo + hi) * (q - p)
    return bool((normals @ mid + offsets).max() < -1e-9)


def _pair_distances(anchors: AnchorSet, body: PlacedBody) -> np.ndarray:
    diff = anchors.positions[:, None, :] - body.positions[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def _visibility_mask(anchors: AnchorSet, body: PlacedBody, visibility) -> np.ndarray:
    mask = np.ones((anchors.num_anchors, body.num_nodes), dtype=bool)
    if visibility is None:
        return mask
    for n, a in enumerate(anchors.positions):
        for m, s in enumerate(body.positions):
            if visibility.blocked(a, s):
                mask[n, m] = False
    return mask


def simulate_ranges(anchors: AnchorSet, body: PlacedBody, sigma: float,
                    visibility=None, rng: np.random.Generator | None = None
                    ) -> MaskedRangeMatrix:
    """Noisy anchor-to-node distances with blocked pairs masked out.

    Observed entries are true Euclidean distances plus iid Gaussian noise of
    standard deviation ``sigma`` meters, clamped at zero.
    """
    if anchors.dim != body.dim:
        raise ValueError("anchor and body dimensions differ")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    values = _pair_distances(anchors, body)
    if sigma > 0:
        if rng is None:
            rng = np.random.default_rng()
        values = np.maximum(values + rng.normal(0.0, sigma, size=values.shape), 0.0)
    mask = _visibility_mask(anchors, body, visibility)
    values = np.where(mask, values, np.nan)
    return MaskedRangeMatrix(values, mask, noise_sigma=sigma)


def simulate_aoa(anchors: AnchorSet, body: PlacedBody, sigma_rad: float,
                 visibility=None, rng: np.random.Generator | None = None
                 ) -> AngleMeasurements:
    """Noisy angles of arrival from each anchor toward each node.

    Azimuth is atan2 over the anchor-to-node offset, wrapped to (-pi, pi];
    3D adds elevation in [-pi/2, pi/2] (re-folded over the poles after
    noise). A node coinciding with an anchor has no defined direction and is
    rejected.
    """
    if anchors.dim != body.dim:
        raise ValueError("anchor and body dimensions differ")
    if sigma_rad < 0:
        raise ValueError("sigma_rad must be non-negative")
    diff = body.positions[None, :, :] - anchors.positions[:, None, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    if dist.min() <= 0.0:
        raise ValueError("node coincides with an anchor; direction undefined")
    azimuth = wrap_angle(np.arctan2(diff[:, :, 1], diff[:, :, 0]))
    elevation = np.arcsin(np.clip(diff[:, :, 2] / dist, -1.0, 1.0)) \
        if anchors.dim == 3 else None
    if sigma_rad > 0:
        if rng is None:
            rng = np.random.default_rng()
        azimuth = wrap_angle(azimuth + rng.normal(0.0, sigma_rad, azimuth.shape))
        if elevation is not None:
            elevation = wrap_angle(elevation + rng.normal(0.0, sigma_rad, elevation.shape))
            over = np.abs(elevation) > np.pi / 2
            elevation = np.where(over, np.sign(elevation) * np.pi - elevation, elevation)
    mask = _visibility_mask(anchors, body, visibility)
    azimuth = np.where(mask, azimuth, np.nan)
    if elevation is not None:
        elevation = np.where(mask, elevation, np.nan)
    return AngleMeasurements(azimuth, elevation, mask, noise_sigma=sigma_rad)


def simulate_range_rates(anchors: AnchorSet, conf: Conformation, pose: Pose,
                         motion: BodyMotion, sigma: float = 0.0,
                         visibility=None, rng: np.random.Generator | None = None
                         ) -> np.ndarray:
    """Range-rate (Doppler) matrix in m/s; NaN marks blocked pairs.

    The rate toward a node is the radial component of that node's velocity
    along the anchor-to-node line.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    body = apply_pose(conf, pose)
    diff = body.positions[None, :, :] - anchors.positions[:, None, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    if dist.min() <= 0.0:
        raise ValueError("node coincides with an anchor; rate undefined")
    vel = body_velocities(conf, pose, motion)
    rates = (diff * vel[None, :, :]).sum(axis=2) / dist
    if sigma > 0:
        if rng is None:
            rng = np.random.default_rng()
        rates = rates + rng.normal(0.0, sigma, size=rates.shape)
    mask = _visibility_mask(anchors, body, visibility)
    return np.where(mask, rates, np.nan)


@dataclass(frozen=True)
class PartialEdm:
    """Partially observed squared Euclidean distance matrix.

    Holds squared distances internally (the form the completion and MDS
    algebra works in); ``distances()`` exposes plain distances. When built
    from anchors and a body, rows/columns [0, num_anchors) form the anchor
    block and the rest the body block; only cross entries may be missing.
    """

    values_sq: np.ndarray
    mask: np.ndarray = None
    dim: int = 3
    num_anchors: int | None = None

    def __post_init__(self):
        values, mask = _masked_values(self.values_sq, self.mask, "values_sq",
                                      nonnegative=True)
        n = values.shape[0]
        if values.shape[1] != n:
            raise ValueError("matrix must be square")
        if int(self.dim) not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if not np.array_equal(mask, mask.T):
            raise ValueError("mask must be symmetric")
        both = mask & mask.T
        if not np.allclose(np.where(both, values, 0.0),
                           np.where(both, values.T, 0.0), atol=1e-12):
            raise ValueError("observed entries must be symmetric")
        if not np.all(mask.diagonal()):
            raise ValueError("diagonal entries must be observed")
        if np.abs(np.diagonal(values)).max() > 0.0:
            raise ValueError("matrix must be hollow")
        object.__setattr__(self, "values_sq", values)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "dim", int(self.dim))
        if self.num_anchors is not None:
            m = int(self.num_anchors)
            if not 0 <= m <= n:
                raise ValueError("num_anchors out of range")
            if not np.all(mask[:m, :m]) or not np.all(mask[m:, m:]):
                raise ValueError("anchor and body blocks must be fully observed")
            object.__setattr__(self, "num_anchors", m)

    @property
    def size(self) -> int:
        return self.values_sq.shape[0]

    def distances(self) -> np.ndarray:
        """Plain distances; NaN passes through at unobserved entries."""
        return np.sqrt(self.values_sq)

    def to_json(self) -> str:
        vals = [[None if np.isnan(v) else v for v in row] for row in self.values_sq]
        return json.dumps({"values": vals, "mask": self.mask.astype(int).tolist()})

    @classmethod
    def from_json(cls, text: str, dim: int = 3, num_anchors=None) -> "PartialEdm":
        obj = json.loads(text)
        values = np.array([[np.nan if v is None else v for v in row]
                           for row in obj["values"]], dtype=float)
        return cls(values, np.array(obj["mask"], dtype=bool), dim, num_anchors)

    def to_csv(self, values_path, mask_path):
        np.savetxt(values_path, self.values_sq, delimiter=",")
        np.savetxt(mask_path, self.mask.astype(int), delimiter=",", fmt="%d")

    @classmethod
    def from_csv(cls, values_path, mask_path, dim: int = 3, num_anchors=None
                 ) -> "PartialEdm":
        values = np.loadtxt(values_path, delimiter=",", ndmin=2)
        mask = np.loadtxt(mask_path, delimiter=",", ndmin=2).astype(bool)
        return cls(values, mask, dim, num_anchors)


def assemble_partial_edm(anchors: AnchorSet, conf: Conformation,
                         cross: MaskedRangeMatrix) -> PartialEdm:
    """Stack known anchor and body distance blocks around measured cross
    ranges into one (M+K)-point squared EDM.

    Anchor-anchor distances come from the known positions, node-node
    distances from the rigid conformation; only the anchor-to-node cross
    block inherits missing entries from the range mask.
    """
    if anchors.dim != conf.dim:
        raise ValueError("anchor and conformation dimensions differ")
    m, k = anchors.num_anchors, conf.num_nodes
    if cross.shape != (m, k):
        raise ValueError("cross matrix shape must be (num_anchors, num_nodes)")
    n = m + k
    values = np.zeros((n, n))
    mask = np.ones((n, n), dtype=bool)
    a_diff = anchors.positions[:, None, :] - anchors.positions[None, :, :]
    values[:m, :m] = (a_diff**2).sum(axis=2)
    values[m:, m:] = conf.pairwise_distances() ** 2
    values[:m, m:] = cross.values**2
    values[m:, :m] = values[:m, m:].T
    mask[:m, m:] = cross.mask
    mask[m:, :m] = cross.mask.T
    values = np.where(mask, values, np.nan)
    return PartialEdm(values, mask, dim=conf.dim, num_anchors=m)
