"""Synthetic wireless measurements between anchors and body nodes.

Ranges, range-rates and angles of arrival are simulated with additive
Gaussian noise; blocked or otherwise unobserved entries carry NaN plus a
False mask bit, never a zero, so nothing downstream can mistake a missing
measurement for a distance of zero.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .geometry import (
    BodyMotion,
    Conformation,
    PlacedBody,
    Pose,
    affine_basis,
    apply_pose,
    body_velocities,
    squared_distances,
)
from .geometry import _freeze

# Minimum anchor separation: coincident anchors carry no extra information
# and break direction computations.
MIN_ANCHOR_SEPARATION = 1e-9

# Tolerances of the occlusion hull relative to the body's extent E (see
# ``_hull_equations``): a point within HULL_RTOL * E of a candidate facet
# plane counts as on it, and r points span a candidate plane only when its
# normal (a difference in 2D, a cross product in 3D) is at least
# HULL_SPAN_RTOL * E**(r - 1) long. The normal of coincident or collinear
# points is rounding, about 1e-15 * E**(r - 1), and so is its direction.
HULL_RTOL = 1e-9
HULL_SPAN_RTOL = 1e-6


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
        dist = np.sqrt(squared_distances(pos, pos))
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
    _check_observed(values, mask, nonnegative)
    values[~mask] = np.nan
    values.flags.writeable = False
    mask.flags.writeable = False
    return values, mask


def _check_observed(values: np.ndarray, mask: np.ndarray, nonnegative: bool) -> None:
    """The checks of ``_masked_values`` over a stack of matrices (values
    and mask ... x M x K): raises the ValueError it raises for the first
    matrix whose observed entries are not all finite or, with
    ``nonnegative``, not all non-negative."""
    observed = values[mask]
    if np.isfinite(observed).all() and not (
            nonnegative and observed.size and observed.min() < 0):
        return
    per_matrix = np.where(mask, values, 0.0).reshape(-1, values.shape[-2] * values.shape[-1])
    infinite = ~np.isfinite(per_matrix).all(axis=1)
    negative = (per_matrix < 0).any(axis=1) & nonnegative
    if infinite[np.argmax(infinite | negative)]:
        raise ValueError("observed entries must be finite")
    raise ValueError("observed entries must be non-negative")


def _masked_to_json(values: np.ndarray, mask: np.ndarray) -> str:
    vals = [[None if np.isnan(v) else v for v in row] for row in values]
    return json.dumps({"values": vals, "mask": mask.astype(int).tolist()})


def _masked_from_json(text: str):
    obj = json.loads(text)
    values = np.array([[np.nan if v is None else v for v in row]
                       for row in obj["values"]], dtype=float)
    return values, np.array(obj["mask"], dtype=bool)


def _masked_to_csv(values: np.ndarray, mask: np.ndarray, values_path, mask_path):
    np.savetxt(values_path, values, delimiter=",")
    np.savetxt(mask_path, mask.astype(int), delimiter=",", fmt="%d")


def _masked_from_csv(values_path, mask_path):
    values = np.loadtxt(values_path, delimiter=",", ndmin=2)
    mask = np.loadtxt(mask_path, delimiter=",", ndmin=2).astype(bool)
    return values, mask


@dataclass(frozen=True)
class MaskedRangeMatrix:
    """Anchor-to-node distances (M x K, meters) with an observation mask.

    Unobserved entries hold NaN so accidental reads poison the result
    instead of silently acting like a zero-length measurement.
    """

    values: np.ndarray
    mask: np.ndarray = None

    def __post_init__(self):
        values, mask = _masked_values(self.values, self.mask, "values", nonnegative=True)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def shape(self):
        return self.values.shape

    def observed_per_node(self) -> np.ndarray:
        """Number of observed ranges for each body node (length K)."""
        return self.mask.sum(axis=0)

    def to_json(self) -> str:
        return _masked_to_json(self.values, self.mask)

    @classmethod
    def from_json(cls, text: str) -> "MaskedRangeMatrix":
        return cls(*_masked_from_json(text))

    def to_csv(self, values_path, mask_path):
        _masked_to_csv(self.values, self.mask, values_path, mask_path)

    @classmethod
    def from_csv(cls, values_path, mask_path):
        return cls(*_masked_from_csv(values_path, mask_path))


@dataclass(frozen=True)
class AngleMeasurements:
    """Azimuth (and elevation in 3D) from each anchor to each node, radians."""

    azimuth: np.ndarray
    elevation: np.ndarray = None
    mask: np.ndarray = None

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

    @property
    def shape(self):
        return self.azimuth.shape


class HullOcclusion:
    """Visibility model where the convex hull of each body blocks the path.

    Each body's hull is computed once, here, in numpy (``_hull_equations``
    enumerates its facet planes), and shared by every anchor-to-node
    segment tested against it.
    """

    def __init__(self, *bodies: PlacedBody):
        if not bodies:
            raise ValueError("at least one occluding body is required")
        self.bodies = tuple(bodies)
        self.hulls = tuple(_hull_equations(body.positions) for body in self.bodies)
        self._last = None

    def _visible(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Read-only M x K mask, True where no hull blocks the segment from
        ``starts[m]`` to ``ends[k]``. The latest mask is kept, keyed on the
        bytes and shapes of both point sets, so simulating the ranges and
        the range-rates of one placed body tests its lines of sight once,
        and other points are always tested afresh."""
        key = (starts.shape, starts.tobytes(), ends.shape, ends.tobytes())
        if self._last is None or self._last[0] != key:
            blocked = np.zeros((len(starts), len(ends)), dtype=bool)
            for hull in self.hulls:
                blocked |= _segments_blocked(starts, ends, hull)
            self._last = (key, _freeze(~blocked))
        return self._last[1]


def _hull_equations(points: np.ndarray):
    """(facets, flat) of a point set's convex hull.

    ``facets`` are the equations [a | b], a.x + b <= 0 inside the hull.
    ``flat`` is None unless the set has rank r < dim (a plate, a rod, a
    point): such a hull has no interior, so ``flat`` holds dim - r
    equations [n | c] whose values n.x + c are the coordinates of x off
    the set's affine hull, and ``facets`` bound the set within that hull,
    their normals in it (none for a point).

    The facets are enumerated (``_supporting_planes``): the plane through
    every r-subset of the K points is tested against all K of them, so the
    cost is C(K, r) * K plane evaluations, 1,140 planes x 20 points for the
    largest built-in body (the 20-node box vehicle). The tolerances scale
    with the set's extent, its largest coordinate offset from the first
    point. A set is flat when some candidate plane has every point on it;
    its rank and hull are then found the same way in its principal axes
    (``affine_basis``), a rod's as its two end points.
    """
    origin = points[0]
    shifted = points - origin
    extent = np.abs(shifted).max()
    planes = _supporting_planes(shifted, extent)
    if planes is not None:
        normals, offsets = planes
        return np.column_stack([normals, offsets - normals @ origin]), None
    dim = points.shape[1]
    center, directions, _ = affine_basis(points)
    coords = (points - center) @ directions.T
    planes = _supporting_planes(coords[:, :2], extent) if dim == 3 else None
    if planes is not None:
        rank, (normals, offsets) = 2, planes
    else:
        lo, hi = coords[:, 0].min(), coords[:, 0].max()
        rank = int(hi - lo > HULL_RTOL * extent)
        normals = np.array([[1.0], [-1.0]]) if rank else np.zeros((0, 0))
        offsets = np.array([-hi, lo]) if rank else np.zeros(0)
    inside, outside = directions[:rank], directions[rank:]
    normals = normals @ inside
    facets = np.column_stack([normals, offsets - normals @ center])
    return facets, np.column_stack([outside, -outside @ center])


@functools.lru_cache(maxsize=32)
def _subset_terms(k: int, r: int):
    """Index arrays of the candidate facet planes of K points in r = 2 or 3
    dimensions, one plane per r-subset i < j (< m), in the order
    ``itertools.combinations`` gives them. ``terms`` picks the rows of
    ``_supporting_planes``'s table whose sum is each plane's normal,
    n = perp(p_j) - perp(p_i) in 2D and n = p_i x p_j + p_j x p_m +
    p_m x p_i in 3D; ``first`` is the flat index, in a K x C array of
    values, of each plane's first point. Both are read-only."""
    subsets = np.array(list(itertools.combinations(range(k), r)),
                       dtype=np.intp).reshape(-1, r)
    if r == 2:
        terms = np.stack([subsets[:, 1], k + subsets[:, 0]])
    else:
        i, j, m = subsets.T
        terms = np.stack([i * k + j, j * k + m, m * k + i])
    first = subsets[:, 0] * len(subsets) + np.arange(len(subsets))
    return _freeze(terms), _freeze(first)


def _supporting_planes(coords: np.ndarray, extent: float):
    """Unit outward normals (F x r) and offsets (F) of the facets of the K
    points ``coords`` (K x r, r = 2 or 3) of the given ``extent``, or None
    when they span less than r dimensions (or are fewer than r + 1).

    A candidate is the plane through an r-subset whose normal is at least
    HULL_SPAN_RTOL * extent**(r - 1) long. It is a facet when every point
    lies on one side of it within HULL_RTOL * extent, and the set is flat
    when all points lie on one. Of the facets with the same points on them
    (within that tolerance), the one with the longest normal is kept.
    """
    k, r = coords.shape
    terms, first = _subset_terms(k, r)
    if r == 2:
        perp = coords[:, ::-1] * [1.0, -1.0]
        table = np.concatenate([perp, -perp])
    else:
        # every pairwise cross product p_a x p_b, row a * K + b
        a, b = coords[:, [1, 2, 0]], coords[:, [2, 0, 1]]
        table = (a[:, None] * b - b[:, None] * a).reshape(-1, 3)
    normals = table.take(terms, axis=0).sum(axis=0)
    size = np.sqrt(np.einsum("ij,ij->i", normals, normals))
    values = coords @ normals.T
    at_first = values.take(first)
    values -= at_first
    lim = HULL_RTOL * extent * size
    above = values.max(axis=0) > lim
    below = values.min(axis=0) < -lim
    spans = size > HULL_SPAN_RTOL * extent ** (r - 1)
    facets = np.flatnonzero(spans & (above != below))
    if not facets.size or (spans & ~above & ~below).any():
        return None
    facets = facets[np.argsort(-size[facets], kind="stable")]
    # the points on each plane, packed to bytes, one row per plane
    on = np.packbits(np.abs(values[:, facets]).T <= lim[facets, None], axis=1)
    facets = facets[np.unique(on.view(np.dtype((np.void, on.shape[1]))).ravel(),
                              return_index=True)[1]]
    scale = np.where(above[facets], -1.0, 1.0) / size[facets]
    return normals[facets] * scale[:, None], -at_first[facets] * scale


def _facet_values(normals, offsets, points) -> np.ndarray:
    """a.x + b for every point (rows) and facet (columns).

    One matrix-vector product per point, the way ``normals @ point`` is
    computed, so a point's values do not depend on how many points share
    the call.
    """
    return (normals @ points[:, :, None])[:, :, 0] + offsets


def _segments_blocked(starts: np.ndarray, ends: np.ndarray, hull) -> np.ndarray:
    """(M, K) mask: True where the open segment from ``starts[m]`` to
    ``ends[k]`` (float arrays, M x D and K x D) passes through the interior
    of the hull ``(facets, flat)`` that ``_hull_equations`` returns.

    Liang-Barsky clipping of every segment against every facet half-space
    at once. Touching the hull boundary (including segment endpoints that
    are hull vertices) does not count as blockage. A flat hull has no
    interior: it blocks a segment that passes through its affine hull
    (within 1e-9 m), both endpoints more than 1e-9 m off it, at a point
    strictly inside the set.
    """
    equations, flat = hull
    dim = equations.shape[1] - 1
    if starts.shape[1:] != (dim,) or ends.shape[1:] != (dim,):
        raise ValueError("endpoint dimensions must match the occluder")
    if not (np.all(np.isfinite(starts)) and np.all(np.isfinite(ends))):
        raise ValueError("segment endpoints must be finite")
    if np.any((starts[:, None, :] == ends[None, :, :]).all(axis=2)):
        raise ValueError("segment endpoints coincide")

    normals, offsets = equations[:, :-1], equations[:, -1]
    blocked = np.zeros((len(starts), len(ends)), dtype=bool)
    if flat is not None:
        # where each segment passes closest to the flat set's affine hull
        a = _facet_values(flat[:, :-1], flat[:, -1], starts)[:, None, :]
        b = _facet_values(flat[:, :-1], flat[:, -1], ends)[None, :, :]
        step = b - a
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -(a * step).sum(axis=2) / (step**2).sum(axis=2)
        miss = np.sqrt(((a + t[:, :, None] * step) ** 2).sum(axis=2))
        off = ((np.sqrt((a**2).sum(axis=2)) > 1e-9)
               & (np.sqrt((b**2).sum(axis=2)) > 1e-9))
        m, k = np.nonzero(off & (t > 0.0) & (t < 1.0) & (miss <= 1e-9))
        hit = starts[m] + t[m, k, None] * (ends[k] - starts[m])
        blocked[m, k] = _facet_values(normals, offsets, hit).max(
            axis=1, initial=-np.inf) < -1e-9
        return blocked

    fp = _facet_values(normals, offsets, starts)[:, None, :]   # (M, 1, F)
    fq = _facet_values(normals, offsets, ends)[None, :, :]     # (1, K, F)
    delta = fq - fp
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = -fp / delta
    # Clip the parameter interval [0, 1] against every facet: entering
    # facets raise its start, leaving facets lower its end. An empty
    # interval (lo >= hi), or one no longer than 1e-12, misses the hull.
    lo = np.where(delta < 0.0, crossing, 0.0).max(axis=2)
    hi = np.where(delta > 0.0, crossing, 1.0).min(axis=2)
    candidate = hi - lo > 1e-12

    # The clipped interval must have a midpoint strictly inside the hull.
    # This also rejects a segment parallel to a facet (delta == 0) that
    # lies outside it: that facet leaves the interval alone, but its value
    # at the midpoint is its value at the start, > 0.
    m, k = np.nonzero(candidate)
    t = 0.5 * (lo[m, k] + hi[m, k])
    mid = starts[m] + t[:, None] * (ends[k] - starts[m])
    blocked[m, k] = _facet_values(normals, offsets, mid).max(axis=1) < -1e-9
    return blocked


def line_of_sight_blocked(p, q, occluder: PlacedBody) -> bool:
    """True when the open segment (p, q) passes through the hull interior.

    Touching the hull boundary (including segment endpoints that are hull
    vertices) does not count as blockage.
    """
    p = np.asarray(p, dtype=float).reshape(1, -1)
    q = np.asarray(q, dtype=float).reshape(1, -1)
    return bool(_segments_blocked(p, q, _hull_equations(occluder.positions))[0, 0])


def _visibility_mask(anchors: AnchorSet, body: PlacedBody, visibility) -> np.ndarray:
    if visibility is None:
        return np.ones((anchors.num_anchors, body.num_nodes), dtype=bool)
    return visibility._visible(anchors.positions, body.positions)


def simulate_ranges(anchors: AnchorSet, body: PlacedBody, sigma: float,
                    visibility=None, rng: np.random.Generator | None = None
                    ) -> MaskedRangeMatrix:
    """Noisy anchor-to-node distances with blocked pairs masked out.

    Observed entries are true Euclidean distances plus iid Gaussian noise of
    standard deviation ``sigma`` meters, clamped at zero.
    """
    if anchors.dim != body.dim:
        raise ValueError("anchor and body dimensions differ")
    if not sigma >= 0:
        raise ValueError("sigma must be non-negative")
    noise = None
    if sigma > 0:
        if rng is None:
            rng = np.random.default_rng()
        noise = rng.normal(0.0, sigma, size=(anchors.num_anchors, body.num_nodes))
    values = _ranges(anchors.positions, body.positions, noise)
    mask = _visibility_mask(anchors, body, visibility)
    values = np.where(mask, values, np.nan)
    return MaskedRangeMatrix(values, mask)


def _ranges(anchors: np.ndarray, points: np.ndarray, noise=None) -> np.ndarray:
    """Distances from the M x D ``anchors`` to the K x D ``points``, or to
    each of a B x K x D stack of them, plus the ``noise`` (same shape, or
    None) clamped at zero."""
    values = np.sqrt(squared_distances(anchors, points))
    return values if noise is None else np.maximum(values + noise, 0.0)


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
    if not sigma_rad >= 0:
        raise ValueError("sigma must be non-negative")
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
    return AngleMeasurements(azimuth, elevation, mask)


def simulate_range_rates(anchors: AnchorSet, conf: Conformation, pose: Pose,
                         motion: BodyMotion, sigma: float = 0.0,
                         visibility=None, rng: np.random.Generator | None = None
                         ) -> np.ndarray:
    """Range-rate (Doppler) matrix in m/s; NaN marks blocked pairs.

    The rate toward a node is the radial component of that node's velocity
    along the anchor-to-node line. This is the one-trial case of
    ``_range_rates``.
    """
    if not sigma >= 0:
        raise ValueError("sigma must be non-negative")
    if anchors.dim != conf.dim:
        raise ValueError("anchor and conformation dimensions differ")
    body = apply_pose(conf, pose)
    rates = _range_rates(anchors.positions, body.positions,
                         body_velocities(conf, pose, motion))
    if sigma > 0:
        if rng is None:
            rng = np.random.default_rng()
        rates = rates + rng.normal(0.0, sigma, size=rates.shape)
    return np.where(_visibility_mask(anchors, body, visibility), rates, np.nan)


def _range_rates(anchors: np.ndarray, points: np.ndarray, velocities: np.ndarray):
    """Range-rates from the M x D ``anchors`` to the K x D ``points`` moving
    at ``velocities``, or to each of a B x K x D stack of them; raises
    ValueError where a point coincides with an anchor."""
    diff = points[..., None, :, :] - anchors[:, None]
    dist = np.sqrt((diff**2).sum(axis=-1))
    if dist.min() <= 0.0:
        raise ValueError("node coincides with an anchor; rate undefined")
    return (diff * velocities[..., None, :, :]).sum(axis=-1) / dist


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
        return _masked_to_json(self.values_sq, self.mask)

    @classmethod
    def from_json(cls, text: str, dim: int = 3, num_anchors=None) -> "PartialEdm":
        return cls(*_masked_from_json(text), dim, num_anchors)

    def to_csv(self, values_path, mask_path):
        _masked_to_csv(self.values_sq, self.mask, values_path, mask_path)

    @classmethod
    def from_csv(cls, values_path, mask_path, dim: int = 3, num_anchors=None
                 ) -> "PartialEdm":
        return cls(*_masked_from_csv(values_path, mask_path), dim, num_anchors)


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
    values[:m, :m] = squared_distances(anchors.positions, anchors.positions)
    values[m:, m:] = conf.pairwise_distances() ** 2
    values[:m, m:] = cross.values**2
    values[m:, :m] = values[:m, m:].T
    mask[:m, m:] = cross.mask
    mask[m:, :m] = cross.mask.T
    values = np.where(mask, values, np.nan)
    return PartialEdm(values, mask, dim=conf.dim, num_anchors=m)
