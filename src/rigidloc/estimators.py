"""Pose, point and motion estimators.

The main pipeline localizes each body node from its anchor ranges
(Gauss-Newton multilateration) and then fits the rigid pose to the node
fixes with a weighted orthogonal Procrustes alignment. Companions cover
hybrid range+angle point fixes, anchorless body-to-body relative pose from
cross distances, and linear velocity estimation from range-rates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .completion import edm_to_points
from .geometry import (
    BodyMotion,
    Conformation,
    Pose,
    affine_basis,
    apply_pose,
)
from .measurement import AnchorSet, MaskedRangeMatrix, wrap_angle

GN_STEP_TOL = 1e-10
GN_MAX_ITER = 100

# Regularizer added to stage-1 residual variances so noiseless nodes do not
# produce infinite weights.
WEIGHT_EPSILON = 1e-12


class InsufficientMeasurementsError(ValueError):
    """Fewer observations than the estimate needs."""


class DegenerateGeometryError(ValueError):
    """The observation geometry cannot pin down the estimate."""


@dataclass
class PointFix:
    """Point localization result.

    For a single range vector, ``position`` is one point. ``candidates``
    carries both mirror solutions when the observed anchor geometry leaves
    a reflection ambiguity (then ``ambiguous`` is set and ``position`` is
    the candidate on the deterministic side of the anchor hyperplane).

    For an M x B range matrix, ``position`` is B x D and the per-point
    values sit in arrays: ``residual_rms``, ``ambiguous``, ``candidates``
    (B x 2 x D, NaN where a point is not ambiguous), ``point_iterations``
    and ``point_converged``. ``errors`` holds, per column, the estimation
    error a single-column call would raise, or None; a failed column's
    position is NaN. ``iterations`` is then the total over all points and
    ``converged`` is True when every solved point converged.
    """

    position: np.ndarray
    residual_rms: float
    iterations: int
    converged: bool
    ambiguous: bool = False
    candidates: tuple = ()
    point_iterations: np.ndarray | None = None
    point_converged: np.ndarray | None = None
    errors: tuple = ()


@dataclass
class PoseEstimate:
    """Rigid pose estimate with per-stage residual summaries.

    ``unconverged_nodes`` counts the stage-1 node fixes whose Gauss-Newton
    iteration hit the iteration cap before its step fell below tolerance.
    """

    pose: Pose
    stage1_rms: float
    stage2_rms: float
    iterations: int
    rotation_unique: bool = True
    ambiguous_nodes: tuple = ()
    unconverged_nodes: int = 0

    def to_json(self) -> str:
        return json.dumps({
            "R": self.pose.rotation.tolist(),
            "t": self.pose.translation.tolist(),
            "residuals": {"stage1_rms": self.stage1_rms,
                          "stage2_rms": self.stage2_rms},
        })


@dataclass
class RelativePoseEstimate:
    """Pose of body 2 expressed in body 1's frame.

    ``center_offset`` is the vector between the two geometric centers in
    body 1's frame. ``reflection_resolved`` is False when both embedding
    chiralities explain the data equally well (degenerate flat bodies).
    """

    pose: Pose
    center_offset: np.ndarray
    residual_rms: float
    reflection_resolved: bool = True


@dataclass
class MotionEstimate:
    motion: BodyMotion
    residual_rms: float


def _observed(values, mask):
    values = np.asarray(values, dtype=float).reshape(-1)
    if mask is None:
        mask = np.isfinite(values)
    else:
        mask = np.asarray(mask, dtype=bool).reshape(-1) & np.isfinite(values)
    return values, mask


def _ordered_sum(terms: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum along ``axis`` term by term from the first.

    Batched kernels sum over anchors and nodes this way so that a
    problem's result never depends on which other problems share its
    batch; numpy's pairwise reduction does not promise that.
    """
    lead = (slice(None),) * (axis % terms.ndim)
    total = terms[lead + (0,)].copy()
    for i in range(1, terms.shape[axis]):
        total += terms[lead + (i,)]
    return total


def _small_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked product of D x D (or K x D by D x D) matrices, D <= 3,
    summed elementwise so the result is the same in any batch."""
    return (a[..., :, :, None] * b[..., None, :, :]).sum(axis=-2)


def _pattern_groups(obs: np.ndarray):
    """Distinct rows of a boolean matrix and, per row, its group index."""
    if obs.all():
        return obs[:1], np.zeros(obs.shape[0], dtype=int)
    patterns, which = np.unique(obs, axis=0, return_inverse=True)
    return patterns, which.reshape(-1)


def _range_residuals(x, anchors, dists, obs):
    """B x M residuals |x_b - a_m| - d_bm, zero at unobserved entries."""
    sq = (x[:, :1] - anchors[:, 0]) ** 2
    for k in range(1, anchors.shape[1]):
        sq += (x[:, k:k + 1] - anchors[:, k]) ** 2
    return np.where(obs, np.sqrt(sq) - dists, 0.0)


def _objective(x, anchors, dists, obs):
    return _ordered_sum(_range_residuals(x, anchors, dists, obs) ** 2)


def _normal_step(jtj, rhs, jac, resid):
    """Solve each problem's normal equations; an exactly singular system
    takes the minimum-norm least-squares step instead."""
    try:
        return np.linalg.solve(jtj, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    step = np.empty_like(rhs)
    singular = np.linalg.det(jtj) == 0.0
    regular = ~singular
    if regular.any():
        step[regular] = np.linalg.solve(jtj[regular], rhs[regular][..., None])[..., 0]
    for i in np.flatnonzero(singular):
        step[i] = np.linalg.lstsq(jac[i], -resid[i], rcond=None)[0]
    return step


def _backtrack(x, step, anchors, dists, obs, obj):
    """Per-problem step scale: the first of 1, 1/2, ..., 2**-29 at which
    the objective does not increase, else 2**-30, so badly conditioned
    geometry cannot launch an iterate off to overflow.

    A scale at which the step drops below GN_STEP_TOL is taken without a
    test: that step ends the iteration whatever it does to the objective,
    which near the minimum changes only by rounding. All the halvings a
    problem may need are tested in one batched evaluation.
    """
    scale = np.ones(x.shape[0])
    rejected = np.flatnonzero(~(_objective(x + step, anchors, dists, obs) <= obj))
    if rejected.size == 0:
        return scale
    halvings = 0.5 ** np.arange(1, 31)
    norm = np.sqrt((step[rejected] ** 2).sum(axis=1))
    accept = halvings * norm[:, None] < GN_STEP_TOL
    # each problem tests its halvings before the first one below tolerance
    count = np.where(accept.any(axis=1), accept.argmax(axis=1), 29)
    owner = np.repeat(np.arange(rejected.size), count)
    k = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    rows = rejected[owner]
    ok = _objective(x[rows] + halvings[k, None] * step[rows], anchors,
                    dists[rows], obs[rows]) <= obj[rows]
    accept[owner[ok], k[ok]] = True
    accept[:, -1] = True
    scale[rejected] = halvings[accept.argmax(axis=1)]
    return scale


def _gauss_newton_ranges(x, anchors, dists, obs):
    """Gauss-Newton range fits for a batch of problems.

    Row b fits the point x[b] to the ranges dists[b] from the shared
    anchors; unobserved entries (False in ``obs``) are zero-weight rows.
    Each problem backtracks on its own and stops once its step norm drops
    below GN_STEP_TOL or after GN_MAX_ITER iterations. Returns positions,
    residual RMS, iteration counts and convergence flags, one per problem.
    """
    x = np.array(x, dtype=float)
    dists = np.where(obs, dists, 0.0)
    iterations = np.zeros(x.shape[0], dtype=int)
    converged = np.zeros(x.shape[0], dtype=bool)
    obj = _objective(x, anchors, dists, obs)
    live = np.arange(x.shape[0])
    for iteration in range(1, GN_MAX_ITER + 1):
        if live.size == 0:
            break
        x_live, d_live, o_live = x[live], dists[live], obs[live]
        jac = x_live[:, None, :] - anchors
        norm = np.maximum(np.sqrt((jac**2).sum(axis=2)), 1e-300)
        resid = np.where(o_live, norm - d_live, 0.0)
        jac /= norm[..., None]
        jac[~o_live] = 0.0
        # normal equations, accumulated anchor by anchor
        jtj = jac[:, 0, :, None] * jac[:, 0, None, :]
        rhs = -(jac[:, 0] * resid[:, :1])
        for m in range(1, anchors.shape[0]):
            jtj += jac[:, m, :, None] * jac[:, m, None, :]
            rhs -= jac[:, m] * resid[:, m:m + 1]
        step = _normal_step(jtj, rhs, jac, resid)
        moved = _backtrack(x_live, step, anchors, d_live, o_live,
                           obj[live])[:, None] * step
        x_live = x_live + moved
        x[live] = x_live
        obj[live] = _objective(x_live, anchors, d_live, o_live)
        iterations[live] = iteration
        done = np.sqrt((moved**2).sum(axis=1)) < GN_STEP_TOL
        converged[live[done]] = True
        live = live[~done]
    rms = np.sqrt(_objective(x, anchors, dists, obs) / obs.sum(axis=1))
    return x, rms, iterations, converged


def _linearized_fix(anchors, dists):
    """Closed-form start points: subtracting the first range equation from
    the rest leaves a linear system in the unknown position, solved in the
    least-squares (minimum-norm) sense.

    ``dists`` is B x M, one problem per row, all from the same anchors, so
    the problems share one pseudo-inverse. Returns the B x D solutions and
    the rank of the linear system, with the cutoff ``lstsq`` applies.
    """
    dists = np.atleast_2d(dists)
    lhs = 2.0 * (anchors[1:] - anchors[0])
    u, svals, vt = np.linalg.svd(lhs, full_matrices=False)
    keep = svals > np.finfo(float).eps * max(lhs.shape) * svals.max()
    pinv = (vt[keep].T / svals[keep]) @ u[:, keep].T
    rhs = (anchors[1:] ** 2).sum(axis=1) - (anchors[0] ** 2).sum() \
        - dists[:, 1:] ** 2 + dists[:, :1] ** 2
    return _ordered_sum(pinv * rhs[:, None, :]), int(keep.sum())


def _fix_columns(anchors, dists, obs, guess) -> PointFix:
    """Batched core of ``multilaterate``: one problem per row of the B x M
    ``dists``; returns the matrix form of ``PointFix``."""
    b, dim = dists.shape[0], anchors.shape[1]
    position = np.full((b, dim), np.nan)
    rms = np.full(b, np.nan)
    iterations = np.zeros(b, dtype=int)
    converged = np.zeros(b, dtype=bool)
    ambiguous = np.zeros(b, dtype=bool)
    candidates = np.full((b, 2, dim), np.nan)
    errors = [None] * b
    dists = np.where(obs, dists, 0.0)
    n_obs = obs.sum(axis=1)
    live = np.ones(b, dtype=bool)
    for i in np.flatnonzero((dists < 0).any(axis=1)):
        errors[i] = ValueError("ranges must be non-negative")
        live[i] = False
    for i in np.flatnonzero(live & (n_obs < dim)):
        errors[i] = InsufficientMeasurementsError(
            f"{n_obs[i]} observed ranges cannot fix a point in {dim}D")
        live[i] = False

    hits = obs & (dists == 0.0) & live[:, None]
    exact = np.flatnonzero(hits.any(axis=1))
    position[exact] = anchors[hits[exact].argmax(axis=1)]
    rms[exact] = np.sqrt(_objective(position[exact], anchors, dists[exact],
                                    obs[exact]) / n_obs[exact])
    converged[exact] = True
    live[exact] = False

    # Per observation pattern, by the rank of the observed anchors: full
    # rank starts Gauss-Newton from the linearized fix, one short starts it
    # from both mirror candidates, anything less cannot be fixed.
    owner, second, start = [], [], []
    todo = np.flatnonzero(live)
    patterns, which = _pattern_groups(obs[todo])
    for p, pattern in enumerate(patterns):
        cols = todo[which == p]
        pts, d_obs = anchors[pattern], dists[cols][:, pattern]
        _, axes, rank = affine_basis(pts)
        if rank == dim:
            owner.append(cols)
            second.append(np.zeros(cols.size, dtype=bool))
            start.append(guess[cols] if guess is not None
                         else _linearized_fix(pts, d_obs)[0])
        elif rank == dim - 1:
            normal = axes[rank]
            flip = np.flatnonzero(np.abs(normal) > 1e-12)
            if flip.size and normal[flip[0]] < 0:
                normal = -normal
            # solve within the anchors' hyperplane, then place the
            # out-of-plane component on both sides
            in_plane = axes[:rank]
            plane_pts = (pts - pts[0]) @ in_plane.T
            y = _linearized_fix(plane_pts, d_obs)[0]
            off = ((y[:, None, :] - plane_pts) ** 2).sum(axis=2)
            z = np.sqrt(np.maximum(_ordered_sum(d_obs**2 - off) / pts.shape[0],
                                   0.0))[:, None]
            base = pts[0] + (y[:, :, None] * in_plane).sum(axis=1)
            owner += [cols, cols]
            second += [np.zeros(cols.size, dtype=bool), np.ones(cols.size, dtype=bool)]
            start += [base + z * normal, base - z * normal]
            ambiguous[cols] = True
        else:
            for i in cols:
                errors[i] = DegenerateGeometryError(
                    "observed anchors span too few dimensions for a point fix")

    if owner:
        owner, second = np.concatenate(owner), np.concatenate(second)
        x, fit_rms, fit_iters, fit_conv = _gauss_newton_ranges(
            np.concatenate(start), anchors, dists[owner], obs[owner])
        first, cols = ~second, owner[~second]
        position[cols] = x[first]
        rms[cols] = fit_rms[first]
        iterations[cols] = fit_iters[first]
        converged[cols] = fit_conv[first]
        # a mirror pair reports its first candidate, the better residual,
        # the iterations of both and whether both converged
        cols = owner[second]
        candidates[cols] = np.stack([position[cols], x[second]], axis=1)
        rms[cols] = np.minimum(rms[cols], fit_rms[second])
        iterations[cols] += fit_iters[second]
        converged[cols] &= fit_conv[second]
    solved = np.array([e is None for e in errors], dtype=bool)
    return PointFix(position, rms, int(iterations.sum()),
                    bool(converged[solved].all()), ambiguous, candidates,
                    iterations, converged, tuple(errors))


def multilaterate(anchors: AnchorSet, ranges, mask=None,
                  initial_guess=None) -> PointFix:
    """Locate points from their distances to known anchors.

    ``ranges`` is a length-M vector aligned with the anchor set, or an
    M x B matrix with one point per column; NaN (or a False ``mask`` bit)
    marks unobserved entries. With observed anchors spanning the space,
    Gauss-Newton refines a linearized closed-form start until the step
    norm drops below 1e-10 (at most 100 iterations). When the observed
    anchors span only a hyperplane, both mirror candidates are computed
    and flagged. All columns are solved together in one batched
    iteration; a vector is the one-column case. A vector whose point
    cannot be fixed raises; for a matrix the error is returned per column
    (see ``PointFix``). ``initial_guess`` (a point, or B x D) replaces the
    linearized start of full-rank problems.
    """
    values = np.asarray(ranges, dtype=float)
    single = values.ndim == 1
    if values.ndim not in (1, 2) or values.shape[0] != anchors.num_anchors:
        raise ValueError("ranges length must match the anchor count")
    obs = np.isfinite(values)
    if mask is not None:
        obs &= np.asarray(mask, dtype=bool).reshape(values.shape)
    columns = values.reshape(anchors.num_anchors, -1).T
    obs = obs.reshape(anchors.num_anchors, -1).T
    guess = None
    if initial_guess is not None:
        guess = np.asarray(initial_guess, dtype=float).reshape(columns.shape[0],
                                                               anchors.dim)
    fix = _fix_columns(anchors.positions, columns, obs, guess)
    if not single:
        return fix
    if fix.errors[0] is not None:
        raise fix.errors[0]
    ambiguous = bool(fix.ambiguous[0])
    return PointFix(fix.position[0], float(fix.residual_rms[0]), fix.iterations,
                    fix.converged, ambiguous,
                    tuple(fix.candidates[0]) if ambiguous else ())


def _weighted_kabsch(source: np.ndarray, target: np.ndarray, weights):
    """Proper rotations + translations minimizing the weighted alignment
    error from source points onto target points, for a batch.

    ``target`` is T x K x D, ``weights`` T x K and ``source`` K x D (shared)
    or T x K x D. Zero-weight points drop out exactly. Returns T rotations,
    T translations and T weighted residual RMS values.
    """
    w = np.asarray(weights, dtype=float)
    total = _ordered_sum(w)
    src_bar = _ordered_sum(w[..., None] * source, axis=-2) / total[:, None]
    dst_bar = _ordered_sum(w[..., None] * target, axis=-2) / total[:, None]
    src_c = source - src_bar[:, None, :]
    dst_c = target - dst_bar[:, None, :]
    cov = _ordered_sum((src_c * w[..., None])[..., :, None] * dst_c[..., None, :],
                       axis=-3)
    u, _, vt = np.linalg.svd(cov)
    v = np.swapaxes(vt, -1, -2)
    u_t = np.swapaxes(u, -1, -2)
    signs = np.ones(src_bar.shape)
    det_sign = np.sign(np.linalg.det(_small_matmul(v, u_t)))
    signs[:, -1] = np.where(det_sign == 0.0, 1.0, det_sign)
    rot = _small_matmul(v * signs[:, None, :], u_t)
    trans = dst_bar - (rot * src_bar[:, None, :]).sum(axis=-1)
    resid = dst_c - _small_matmul(src_c, np.swapaxes(rot, -1, -2))
    rms = np.sqrt(_ordered_sum(w * (resid**2).sum(axis=-1)) / total)
    return rot, trans, rms


def _fit_poses(conf: Conformation, points: np.ndarray, weights: np.ndarray):
    """Weighted Procrustes fits of one conformation onto T point sets
    (T x K x D, weights T x K). Each entry is (pose, stage-2 RMS, rotation
    unique) or the ValueError ``fit_pose_procrustes`` raises for it."""
    fits = [None] * points.shape[0]
    bad_points = ~np.isfinite(points).all(axis=(1, 2))
    bad_weights = (weights < 0).any(axis=1) | ~np.isfinite(weights).all(axis=1)
    for t in np.flatnonzero(bad_points | bad_weights | (weights.sum(axis=1) <= 0)):
        if bad_points[t]:
            fits[t] = ValueError("points must be finite")
        elif bad_weights[t]:
            fits[t] = ValueError("weights must be non-negative and finite")
        else:
            fits[t] = ValueError("at least one positive weight required")
    ok = np.array([f is None for f in fits], dtype=bool)
    if not ok.any():
        return fits
    rot, trans, rms = _weighted_kabsch(conf.coords, points[ok], weights[ok])
    # the rotation is unique when the weighted nodes span the space
    patterns, which = _pattern_groups(weights[ok] > 0)
    unique = np.array([affine_basis(conf.coords[p])[2] == conf.dim
                       for p in patterns])[which]
    # a Kabsch rotation is a product of orthogonal SVD factors, so it is a
    # proper rotation to rounding and needs no re-orthonormalization
    for i, t in enumerate(np.flatnonzero(ok)):
        fits[t] = (Pose(rot[i], trans[i]), float(rms[i]), bool(unique[i]))
    return fits


def fit_pose_procrustes(conf: Conformation, points, weights=None) -> PoseEstimate:
    """Fit the rigid pose aligning a conformation onto estimated node
    positions (weighted orthogonal Procrustes).

    Zero-weight nodes are ignored. When the effective conformation does not
    span the space (e.g. a single node, or two nodes in 3D) the optimal
    rotation is not unique; a valid minimizer is still returned with
    ``rotation_unique`` cleared.
    """
    points = np.asarray(points, dtype=float)
    if points.shape != conf.coords.shape:
        raise ValueError("points shape must match the conformation")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    if weights is None:
        weights = np.ones(conf.num_nodes)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (conf.num_nodes,):
        raise ValueError("one weight per node required")
    fit = _fit_poses(conf, points[None], weights[None])[0]
    if isinstance(fit, ValueError):
        raise fit
    pose, rms, unique = fit
    return PoseEstimate(pose, stage1_rms=0.0, stage2_rms=rms, iterations=0,
                        rotation_unique=unique)


def rbl_two_stage_batch(anchors: AnchorSet, ranges, conf: Conformation,
                        weighted: bool = True) -> list:
    """Two-stage rigid body localization of many trials of one body.

    ``ranges`` is a sequence of M x K ``MaskedRangeMatrix``. Stage 1
    multilaterates every usable node of every trial in one batched
    ``multilaterate`` call; stage 2 fits all poses in one batched weighted
    Kabsch. Returns, per trial, the ``PoseEstimate`` ``rbl_two_stage``
    would return or the estimation error (a ValueError) it would raise.
    Work and memory grow with the total node count, so callers with many
    trials pass them in blocks.
    """
    if anchors.dim != conf.dim:
        raise ValueError("anchor and conformation dimensions differ")
    if any(r.shape != (anchors.num_anchors, conf.num_nodes) for r in ranges):
        raise ValueError("range matrix shape must be (num_anchors, num_nodes)")
    results = [None] * len(ranges)
    if not ranges:
        return results
    dim = conf.dim
    values = np.stack([r.values for r in ranges])
    mask = np.stack([r.mask for r in ranges])
    n_obs = mask.sum(axis=1)

    # Stage 1: nodes with at least dim+1 observed ranges, trial by trial
    # in node order; the others get zero weight.
    usable = n_obs >= dim + 1
    trial_of, node_of = np.nonzero(usable)
    points = np.zeros((len(ranges),) + conf.coords.shape)
    rms = np.zeros(usable.shape)
    iters = np.zeros(usable.shape, dtype=int)
    unconverged = np.zeros(usable.shape, dtype=bool)
    ambiguous = np.zeros(usable.shape, dtype=bool)
    failed = {}
    if trial_of.size:
        fix = multilaterate(anchors, values[trial_of, :, node_of].T,
                            mask[trial_of, :, node_of].T)
        points[trial_of, node_of] = fix.position
        rms[trial_of, node_of] = fix.residual_rms
        iters[trial_of, node_of] = fix.point_iterations
        unconverged[trial_of, node_of] = ~fix.point_converged
        ambiguous[trial_of, node_of] = fix.ambiguous
        for j, err in enumerate(fix.errors):
            if err is not None:
                failed.setdefault(trial_of[j], err)
    if weighted:
        weights = np.where(usable, 1.0 / (rms**2 + WEIGHT_EPSILON), 0.0)
    else:
        weights = usable.astype(float)
    sq_resid = _ordered_sum(np.where(usable, rms**2 * n_obs, 0.0))
    used_ranges = np.where(usable, n_obs, 0).sum(axis=1)

    # Stage 2 for the trials whose stage 1 left something to fit.
    solvable = []
    for t in range(len(ranges)):
        if t in failed:
            results[t] = failed[t]
        elif not usable[t].any():
            results[t] = InsufficientMeasurementsError(
                "no node has enough observed ranges")
        else:
            solvable.append(t)
    if not solvable:
        return results
    fits = _fit_poses(conf, points[solvable], weights[solvable])
    for t, fit in zip(solvable, fits):
        if isinstance(fit, ValueError):
            results[t] = fit
            continue
        pose, stage2_rms, unique = fit
        results[t] = PoseEstimate(
            pose, float(np.sqrt(sq_resid[t] / used_ranges[t])), stage2_rms,
            int(iters[t].sum()), unique,
            tuple(int(n) for n in np.flatnonzero(ambiguous[t])),
            int(unconverged[t].sum()))
    return results


def rbl_two_stage(anchors: AnchorSet, ranges: MaskedRangeMatrix,
                  conf: Conformation, weighted: bool = True) -> PoseEstimate:
    """Two-stage rigid body localization.

    Stage 1 multilaterates every node with at least dim+1 observed ranges;
    nodes with fewer are dropped (zero weight). Stage 2 fits the pose by
    Procrustes, weighting each node by the inverse of its stage-1 residual
    variance (plus a small regularizer); ``weighted=False`` switches to
    uniform weights over the localized nodes. This is the one-trial case
    of ``rbl_two_stage_batch``.
    """
    result = rbl_two_stage_batch(anchors, [ranges], conf, weighted)[0]
    if isinstance(result, ValueError):
        raise result
    return result


def _polar_point(anchor, dist, azimuth, elevation=None):
    if elevation is None:
        return anchor + dist * np.array([np.cos(azimuth), np.sin(azimuth)])
    ce = np.cos(elevation)
    return anchor + dist * np.array([ce * np.cos(azimuth),
                                     ce * np.sin(azimuth),
                                     np.sin(elevation)])


def localize_point_hybrid(anchors: AnchorSet, ranges=None, azimuths=None,
                          elevations=None, sigma_range: float = 1.0,
                          sigma_angle: float = 1.0,
                          initial_guess=None) -> PointFix:
    """Locate one point from any mix of ranges and angles of arrival.

    All measurement vectors have length M with NaN marking unobserved
    entries. Residuals are stacked with 1/sigma weighting and solved by
    Gauss-Newton (step tolerance 1e-10, at most 100 iterations). Angles
    resolve ambiguities ranges alone cannot, e.g. a single anchor with one
    range and one azimuth already fixes a 2D point.
    """
    dim = anchors.dim
    m = anchors.num_anchors
    nothing = np.full(m, np.nan)
    r_vals, r_obs = _observed(nothing if ranges is None else ranges, None)
    a_vals, a_obs = _observed(nothing if azimuths is None else azimuths, None)
    e_vals, e_obs = _observed(nothing if elevations is None else elevations, None)
    if dim == 2 and e_obs.any():
        raise ValueError("elevation measurements require 3D anchors")
    for vec in (r_vals, a_vals, e_vals):
        if vec.shape[0] != m:
            raise ValueError("measurement vectors must have one entry per anchor")
    n_total = int(r_obs.sum() + a_obs.sum() + e_obs.sum())
    if n_total < dim:
        raise InsufficientMeasurementsError(
            f"{n_total} observations cannot fix a point in {dim}D")
    w_range = 1.0 / sigma_range if sigma_range > 0 else 1.0
    w_angle = 1.0 / sigma_angle if sigma_angle > 0 else 1.0

    def residual_jacobian(x):
        rows_r, rows_j = [], []
        for n in np.flatnonzero(r_obs):
            diff = x - anchors.positions[n]
            dist = max(np.linalg.norm(diff), 1e-300)
            rows_r.append(w_range * (dist - r_vals[n]))
            rows_j.append(w_range * diff / dist)
        for n in np.flatnonzero(a_obs):
            diff = x - anchors.positions[n]
            rho_sq = diff[0] ** 2 + diff[1] ** 2
            rho_sq = max(rho_sq, 1e-300)
            pred = np.arctan2(diff[1], diff[0])
            rows_r.append(w_angle * wrap_angle(pred - a_vals[n]))
            grad = np.zeros(dim)
            grad[0] = -diff[1] / rho_sq
            grad[1] = diff[0] / rho_sq
            rows_j.append(w_angle * grad)
        for n in np.flatnonzero(e_obs):
            diff = x - anchors.positions[n]
            rho = max(np.hypot(diff[0], diff[1]), 1e-300)
            r_sq = max((diff**2).sum(), 1e-300)
            pred = np.arctan2(diff[2], rho)
            rows_r.append(w_angle * (pred - e_vals[n]))
            grad = np.array([-diff[0] * diff[2] / (r_sq * rho),
                             -diff[1] * diff[2] / (r_sq * rho),
                             rho / r_sq])
            rows_j.append(w_angle * grad)
        return np.array(rows_r), np.array(rows_j)

    # Candidate start points: caller guess, polar fixes from anchors with a
    # full range+angle pair, a linearized multilateration fix, and a nudged
    # anchor centroid as a fallback.
    candidates = []
    if initial_guess is not None:
        candidates.append(np.asarray(initial_guess, dtype=float))
    pair = r_obs & a_obs & (e_obs if dim == 3 else True)
    for n in np.flatnonzero(pair):
        candidates.append(_polar_point(anchors.positions[n], r_vals[n], a_vals[n],
                                       e_vals[n] if dim == 3 else None))
    if r_obs.sum() >= dim + 1:
        candidates.append(_linearized_fix(anchors.positions[r_obs],
                                          r_vals[r_obs])[0][0])
    if dim == 2 and a_obs.sum() >= 2:
        # bearing-ray intersection of the first two azimuth anchors
        i, j = np.flatnonzero(a_obs)[:2]
        d_i = np.array([np.cos(a_vals[i]), np.sin(a_vals[i])])
        d_j = np.array([np.cos(a_vals[j]), np.sin(a_vals[j])])
        system = np.column_stack([d_i, -d_j])
        if abs(np.linalg.det(system)) > 1e-12:
            s = np.linalg.solve(system, anchors.positions[j] - anchors.positions[i])
            candidates.append(anchors.positions[i] + s[0] * d_i)
    candidates.append(anchors.positions.mean(axis=0) + 0.37)

    best, best_obj = None, np.inf
    for cand in candidates:
        obj = float((residual_jacobian(cand)[0] ** 2).sum())
        if obj < best_obj:
            best, best_obj = cand, obj

    x = best
    resid, jac = residual_jacobian(x)
    if np.linalg.matrix_rank(jac) < dim:
        raise DegenerateGeometryError("measurements do not pin down the point")
    converged = False
    iterations = 0
    obj = float((resid**2).sum())
    for iterations in range(1, GN_MAX_ITER + 1):
        resid, jac = residual_jacobian(x)
        try:
            step = np.linalg.solve(jac.T @ jac, -jac.T @ resid)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -resid, rcond=None)[0]
        # backtrack: a full Gauss-Newton step can overshoot when angle
        # residuals flatten out far from the anchors
        scale = 1.0
        for _ in range(30):
            trial = x + scale * step
            trial_obj = float((residual_jacobian(trial)[0] ** 2).sum())
            if trial_obj <= obj:
                break
            scale *= 0.5
        x = x + scale * step
        obj = float((residual_jacobian(x)[0] ** 2).sum())
        if np.linalg.norm(scale * step) < GN_STEP_TOL:
            converged = True
            break
    resid, _ = residual_jacobian(x)
    rms = float(np.sqrt(np.mean(resid**2)))
    return PointFix(x, rms, iterations, converged)


def _relative_residual(a: float, b: float) -> float:
    return abs(a - b) / max(a, b, 1e-300)


def relative_pose_anchorless(conf1: Conformation, conf2: Conformation,
                             cross: MaskedRangeMatrix) -> RelativePoseEstimate:
    """Relative pose of body 2 in body 1's frame from cross distances only.

    Stacks both bodies' internal distance blocks with the measured cross
    distances into one squared EDM, embeds it by classical MDS and aligns
    the body-1 part back onto its conformation. Both embedding chiralities
    are tried; the one aligning body 1 better wins, with the cross-distance
    fit as tie-breaker. If both chiralities tie (flat bodies), the estimate
    is returned with ``reflection_resolved`` cleared.
    """
    if conf1.dim != conf2.dim:
        raise ValueError("conformation dimensions differ")
    dim = conf1.dim
    k1, k2 = conf1.num_nodes, conf2.num_nodes
    if cross.shape != (k1, k2):
        raise ValueError("cross matrix shape must be (k1, k2)")
    if not np.all(cross.mask):
        raise ValueError("cross distances must be fully observed; "
                         "complete the distance matrix first")

    n = k1 + k2
    edm = np.zeros((n, n))
    edm[:k1, :k1] = conf1.pairwise_distances() ** 2
    edm[k1:, k1:] = conf2.pairwise_distances() ** 2
    edm[:k1, k1:] = cross.values**2
    edm[k1:, :k1] = edm[:k1, k1:].T
    embedded = edm_to_points(edm, dim)
    # eigentruncation turns a zero Gram eigenvalue into sqrt(eps)-sized
    # coordinates, so the rank test needs a matching tolerance
    if affine_basis(embedded, tol=1e-6)[2] < dim:
        raise DegenerateGeometryError(
            "combined point set does not span the space")

    scale = float(np.sqrt(np.mean(edm)))
    options = []
    for chirality in (1.0, -1.0):
        pts = embedded.copy()
        pts[:, -1] *= chirality
        rot, trans, align_rms = _weighted_kabsch(pts[:k1], conf1.coords[None],
                                                 np.ones((1, k1)))
        body2 = pts[k1:] @ rot[0].T + trans[0]
        pred = np.sqrt(((conf1.coords[:, None, :] - body2[None, :, :]) ** 2)
                       .sum(axis=2))
        cross_rms = float(np.sqrt(np.mean((pred - cross.values) ** 2)))
        options.append((float(align_rms[0]), cross_rms, body2))

    atol = 1e-9 * max(scale, 1.0)
    a0, a1 = options[0][0], options[1][0]
    resolved = True
    if max(a0, a1) > atol and _relative_residual(a0, a1) > 1e-6:
        choice = options[0] if a0 <= a1 else options[1]
    else:
        c0, c1 = options[0][1], options[1][1]
        if max(c0, c1) > atol and _relative_residual(c0, c1) > 1e-6:
            choice = options[0] if c0 <= c1 else options[1]
        else:
            choice = options[0]
            resolved = False

    body2 = choice[2]
    rot, trans, rms = _weighted_kabsch(conf2.coords, body2[None], np.ones((1, k2)))
    pose = Pose.from_matrix(rot[0], trans[0], reorthonormalize=True)
    offset = body2.mean(axis=0) - conf1.coords.mean(axis=0)
    return RelativePoseEstimate(pose, offset, float(rms[0]), resolved)


def _motion_design(anchors: AnchorSet, pose: Pose, conf: Conformation,
                   rates: np.ndarray, obs: np.ndarray):
    """Linear system of the range-rate model, one row per observed
    (anchor, node) pair in row-major order.

    With u the unit vector from the anchor to the node and r the rotated
    body-frame node offset, a row reads [u . (J2 r), u] in 2D and
    [r x u, u] in 3D against the unknowns (omega, t_dot).
    """
    n, m = np.nonzero(obs)
    rotated = (conf.coords @ pose.rotation.T)[m]
    diff = apply_pose(conf, pose).positions[m] - anchors.positions[n]
    dist = np.sqrt((diff**2).sum(axis=1))
    if np.any(dist <= 0):
        raise ValueError("node coincides with an anchor; rate undefined")
    u = diff / dist[:, None]
    if conf.dim == 2:
        spin = u[:, 1] * rotated[:, 0] - u[:, 0] * rotated[:, 1]
        design = np.column_stack([spin, u])
    else:
        design = np.hstack([np.cross(rotated, u), u])
    return design, rates[n, m]


def estimate_motion(anchors: AnchorSet, pose: Pose, conf: Conformation,
                    range_rates, mask=None) -> MotionEstimate:
    """Angular and translational velocity from range-rate measurements.

    With the pose known, each observed range-rate is linear in the unknown
    (omega, t_dot), so the estimate is a single linear least-squares solve.
    ``range_rates`` is M x K with NaN for unobserved pairs.
    """
    if anchors.dim != conf.dim:
        raise ValueError("anchor and conformation dimensions differ")
    if pose.dim != conf.dim:
        raise ValueError("pose and conformation dimensions differ")
    rates = np.asarray(range_rates, dtype=float)
    if rates.shape != (anchors.num_anchors, conf.num_nodes):
        raise ValueError("range-rate matrix shape must be (num_anchors, num_nodes)")
    if mask is None:
        obs = np.isfinite(rates)
    else:
        obs = np.asarray(mask, dtype=bool) & np.isfinite(rates)
    dim = conf.dim
    n_unknowns = 3 if dim == 2 else 6
    if obs.sum() < n_unknowns:
        raise InsufficientMeasurementsError(
            f"{int(obs.sum())} range-rates cannot fix {n_unknowns} velocity unknowns")

    design, rhs = _motion_design(anchors, pose, conf, rates, obs)
    if np.linalg.matrix_rank(design) < n_unknowns:
        raise DegenerateGeometryError(
            "range-rate geometry does not separate rotation from translation")
    theta, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    resid = design @ theta - rhs
    rms = float(np.sqrt(np.mean(resid**2)))
    if dim == 2:
        motion = BodyMotion(float(theta[0]), theta[1:])
    else:
        motion = BodyMotion(theta[:3], theta[3:])
    return MotionEstimate(motion, rms)
