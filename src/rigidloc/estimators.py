"""Pose, point and motion estimators.

The main pipeline localizes each body node from its anchor ranges
(Gauss-Newton multilateration) and then fits the rigid pose to the node
fixes with a weighted orthogonal Procrustes alignment; a third stage can
refine that pose, or a joint linear fit of the pose to every observed
range, by Gauss-Newton over all observed ranges. Anchorless
body-to-body relative pose is the same pipeline run in one body's frame,
with that body's nodes as the anchors. Companions cover hybrid
range+angle point fixes and linear velocity estimation from range-rates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import (
    BodyMotion,
    Conformation,
    Pose,
    affine_basis,
    apply_pose,
    squared_distances,
)
from .geometry import (
    _apply_linear_factor,
    _exp_rotations,
    _freeze,
    _linear_factor,
    _proper_svd,
    _squared_norms,
    _weighted_kabsch,
)
from .measurement import AnchorSet, MaskedRangeMatrix, wrap_angle

GN_STEP_TOL = 1e-10
GN_MAX_ITER = 100

# Relative rise of a Gauss-Newton objective that a step may cause and still
# pass the step test. Near a minimum the objective's rounding error is about
# eps * range / residual, 1e-14 to 3e-14 at 0.1 m noise, so a step that only
# rounds upward passes, while a real overshoot is still halved; over
# GN_MAX_ITER steps the objective can rise by less than 1e-10 of itself.
GN_OBJECTIVE_RTOL = 1e-12

# Regularizer added to stage-1 residual variances so noiseless nodes do not
# produce infinite weights.
WEIGHT_EPSILON = 1e-12

# Bound on the subset geometries ``_pattern_subsets`` keeps. A set of M
# points has at most 2**M observation patterns, and a tracked body repeats
# a few dozen (71 distinct in 2000 frames of 8 anchors and a 14-node body).
PATTERN_CACHE_SIZE = 1024

# Least ratio of the smallest to the largest eigenvalue of a trial's
# column-equilibrated Gram matrix in ``_joint_start`` at which its fit has
# full rank. A rank-deficient design leaves a ratio at rounding level
# (below 1e-14); at the bound the normal equations still give about six
# correct digits, and stage 3 refines the start anyway.
JOINT_START_RCOND = 1e-10


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

    ``iterations`` is the stage-1 Gauss-Newton total over the node fixes,
    and ``unconverged_nodes`` counts the fixes whose iteration hit the
    iteration cap before its step fell below tolerance.
    """

    pose: Pose
    stage1_rms: float
    stage2_rms: float
    iterations: int
    rotation_unique: bool = True
    ambiguous_nodes: tuple = ()
    unconverged_nodes: int = 0


@dataclass
class RelativePoseEstimate:
    """Pose of body 2 expressed in body 1's frame.

    ``center_offset`` is the vector between the two geometric centers in
    body 1's frame, and ``residual_rms`` the stage-2 Procrustes RMS.
    ``reflection_resolved`` is False when some node of body 2 was fixed as
    one of two mirror candidates (``PoseEstimate.ambiguous_nodes``), as
    when body 1's nodes lie in a hyperplane.
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
    """Entries of ``values`` that are finite and, given a ``mask`` of the
    same shape, marked True in it."""
    obs = np.isfinite(values)
    if mask is None:
        return obs
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != values.shape:
        raise ValueError(f"mask shape {mask.shape} does not match the "
                         f"measurements' {values.shape}")
    return obs & mask


@dataclass(frozen=True)
class _Subset:
    """Geometry of the points an observation pattern picks from a fixed
    point set; it depends on no measurement, and its arrays are read-only.

    ``rank`` is the points' affine rank and ``factor`` their
    ``_linear_factor`` (None for a single point). When they span exactly a
    hyperplane, ``normal`` is its unit normal, its first non-zero
    component made positive, ``in_plane`` its orthonormal axes,
    ``plane_points`` the points in those axes from the first point, and
    ``plane_factor`` the ``_linear_factor`` of ``plane_points``; otherwise
    these are None.
    """

    points: np.ndarray
    rank: int
    factor: tuple | None
    normal: np.ndarray | None = None
    in_plane: np.ndarray | None = None
    plane_points: np.ndarray | None = None
    plane_factor: tuple | None = None


@functools.lru_cache(maxsize=PATTERN_CACHE_SIZE)
def _cached_subset(coords: bytes, key: bytes) -> _Subset:
    pattern = np.frombuffer(key, dtype=bool)
    points = _freeze(np.frombuffer(coords).reshape(pattern.size, -1)[pattern])
    dim = points.shape[1]
    _, axes, rank = affine_basis(points)
    factor = _linear_factor(points) if points.shape[0] > 1 else None
    if rank != dim - 1:
        return _Subset(points, rank, factor)
    normal = axes[rank]
    flip = np.flatnonzero(np.abs(normal) > 1e-12)
    if flip.size and normal[flip[0]] < 0:
        normal = -normal
    in_plane = axes[:rank]
    plane_points = (points - points[0]) @ in_plane.T
    return _Subset(points, rank, factor, _freeze(normal), _freeze(in_plane),
                   _freeze(plane_points), _linear_factor(plane_points))


def _pattern_subsets(coords: np.ndarray, obs: np.ndarray):
    """Each row's index among the distinct rows of the boolean matrix
    ``obs`` (B x N), in ``np.unique(obs, axis=0)`` order, and the
    ``_Subset`` of the rows of the N x D ``coords`` that each distinct row
    picks. Anchors and body conformations stay fixed while the patterns
    repeat, so each subset is cached on the bytes of the coordinates and
    of its mask row (whose length is N, so the two fix the shape), at most
    PATTERN_CACHE_SIZE entries, least recently used first out."""
    obs = np.ascontiguousarray(obs, dtype=bool)
    if obs.all():
        first, which = np.arange(min(obs.shape[0], 1)), np.zeros(obs.shape[0], dtype=int)
    else:
        # a row of N one-byte booleans compares as bytes the way it compares
        # column by column, so the rows sort into np.unique's order
        rows = obs.view(np.dtype((np.void, obs.shape[1]))).reshape(-1)
        _, first, which = np.unique(rows, return_index=True, return_inverse=True)
    points = np.asarray(coords, dtype=float).tobytes()
    return which, [_cached_subset(points, row.tobytes()) for row in obs[first]]


def _range_residuals(x, anchors, dists, obs):
    """B x M residuals |x_b - a_m| - d_bm, zero at unobserved entries."""
    return np.where(obs, np.sqrt(_squared_norms(x[:, None, :] - anchors)) - dists, 0.0)


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


def _backtrack(x, step, norm, linearize, rows, obj, resid, jac):
    """Step scales of the steps ``step`` (norms ``norm``) from the points
    x of problems ``rows``, and the model at the points they move to. A
    step passes the test when the objective (the sum of squared residuals)
    at its new point is at most obj * (1 + GN_OBJECTIVE_RTOL), which lets
    rounding through. The scale is 1 when the full step passes, else the
    first of 1/2, ..., 2**-29 that passes, else 2**-30, so badly
    conditioned geometry cannot launch an iterate off to overflow.

    Each scale is tried in one call of the model ``linearize``, for the
    problems still failing, whose rows of ``resid`` and ``jac`` it
    overwrites. A scale at which the step is below GN_STEP_TOL is taken
    without a test or an evaluation, the full step included: it ends the
    fit whatever it does to the objective, which near the minimum changes
    only by rounding. Returns the scales and the residuals, Jacobians and
    objective at the new points, stale for a fit that ends so.
    """
    scale = np.ones(x.shape[0])
    objective = np.empty(x.shape[0])
    bound = obj * (1.0 + GN_OBJECTIVE_RTOL)
    todo = np.flatnonzero(~(norm < GN_STEP_TOL))
    halved = 1.0
    while todo.size:
        at = slice(None) if todo.size == x.shape[0] else todo  # the whole block: no copy
        r, j = linearize(x[at] + halved * step[at], rows[at])
        if at is todo:
            resid[todo], jac[todo] = r, j
        else:
            resid, jac = r, j
        objective[at] = (r**2).sum(axis=-1)
        if halved == 2.0**-30:
            break
        todo = todo[~(objective[at] <= bound[at])]
        halved *= 0.5
        scale[todo] = halved
        todo = todo[~(halved * norm[todo] < GN_STEP_TOL)]
    return scale, resid, jac, objective


def _gauss_newton(x, linearize):
    """Gauss-Newton least-squares fits for a batch of problems.

    Problem b starts from the point x[b]. The model is one function:
    ``linearize(x, rows)`` returns the residual vectors of problems
    ``rows`` (an index array) at the points ``x``, one row per point, and
    their Jacobians (points x residuals x D). An unobserved measurement is
    a residual that is zero with a zero Jacobian row.

    The model is evaluated here once, at the start; after that only the
    step test ``_backtrack`` evaluates it, once per scale it tries, and
    the evaluation at the point a problem moves to starts its next
    iteration. A step that passes whole costs one evaluation. Halved steps
    are rare: none in the 70,832 problem-iterations of two ``mc_sensors``
    benchmark sweeps or the 2,453 of two ``mc_completion`` ones, and one in
    the 32,691 of 500 ``track_stream`` frames. Each problem stops once its
    step norm drops below GN_STEP_TOL or after GN_MAX_ITER iterations; a
    full step below GN_STEP_TOL ends its problem with no evaluation at
    all. Returns positions, iteration counts and convergence flags, one
    per problem; a caller that needs a fit's residuals evaluates them at
    its position.
    """
    x = np.array(x, dtype=float)
    iterations = np.zeros(x.shape[0], dtype=int)
    converged = np.zeros(x.shape[0], dtype=bool)
    live = np.arange(x.shape[0])
    resid, jac = linearize(x, live)
    obj = (resid**2).sum(axis=-1)
    for iteration in range(1, GN_MAX_ITER + 1):
        if live.size == 0:
            break
        x_live = x[live]
        jac_t = np.swapaxes(jac, -1, -2)
        jtj = jac_t @ jac
        rhs = -(jac_t @ resid[..., None])[..., 0]
        step = _normal_step(jtj, rhs, jac, resid)
        norm = np.sqrt((step**2).sum(axis=1))
        scale, resid, jac, obj = _backtrack(x_live, step, norm, linearize, live, obj,
                                            resid, jac)
        x[live] = x_live + scale[:, None] * step
        iterations[live] = iteration
        # a scale is a power of two, so this is the moved step's norm bit for bit
        done = scale * norm < GN_STEP_TOL
        converged[live[done]] = True
        resid, jac, obj = resid[~done], jac[~done], obj[~done]
        live = live[~done]
    return x, iterations, converged


def _range_model(anchors, dists, obs):
    """The model ``linearize`` of the range fits ``_gauss_newton`` runs:
    problem b fits a point to the ranges dists[b] from the shared anchors,
    where obs[b] is True (B x M). A distance is clamped at 1e-300 so that a
    point on an anchor divides to a zero Jacobian row; ``_fix_columns``
    tests fixes on an anchor with ``_range_residuals``, which does not
    clamp."""
    def linearize(x, rows):
        observed = obs[rows]
        jac = x[:, None, :] - anchors
        norm = np.maximum(np.sqrt(_squared_norms(jac)), 1e-300)
        resid = np.where(observed, norm - dists[rows], 0.0)
        jac /= norm[..., None]
        jac[~observed] = 0.0
        return resid, jac

    return linearize


def _fix_columns(anchors, dists, obs) -> PointFix:
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

    # An observed range of 0 puts the point on its anchor. When every range
    # fits that anchor exactly it is the fix; otherwise the 0 is a noisy
    # range clamped at zero, and Gauss-Newton starts from the anchor.
    hits = obs & (dists == 0.0) & live[:, None]
    clamped = np.zeros(b, dtype=bool)
    hit_anchor = np.empty((b, dim))
    if hits.any():
        cols = np.flatnonzero(hits.any(axis=1))
        hit_anchor[cols] = anchors[hits[cols].argmax(axis=1)]
        exact = (_range_residuals(hit_anchor[cols], anchors, dists[cols], obs[cols]) == 0.0
                 ).all(axis=1)
        clamped[cols[~exact]] = True
        cols = cols[exact]
        position[cols], rms[cols], converged[cols] = hit_anchor[cols], 0.0, True
        live[cols] = False

    # Per rank and count of the observed anchors, over every pattern that
    # shares them: full rank starts Gauss-Newton from the linearized fix,
    # one short starts it from both mirror candidates, anything less cannot
    # be fixed. Each problem applies its own pattern's cached geometry.
    owner, second, start = [], [], []
    todo = np.flatnonzero(live)
    which, subs = _pattern_subsets(anchors, obs[todo])
    groups = {}
    for p, sub in enumerate(subs):
        groups.setdefault((sub.rank, sub.points.shape[0]), []).append(p)
    group_of, slot = np.empty((2, len(subs)), dtype=int)
    for g, members in enumerate(groups.values()):
        group_of[members], slot[members] = g, np.arange(len(members))
    col_group = group_of[which]
    for g, ((rank, count), members) in enumerate(groups.items()):
        chosen = col_group == g
        cols = todo[chosen]
        if rank < dim - 1:
            for i in cols:
                errors[i] = DegenerateGeometryError(
                    "observed anchors span too few dimensions for a point fix")
            continue
        pick = slot[which[chosen]]

        def per_problem(arrays):
            # one array per pattern to one per problem; a lone pattern's
            # array broadcasts as it is
            return arrays[0] if len(arrays) == 1 else np.stack(arrays)[pick]

        group = [subs[p] for p in members]
        d_obs = dists[cols][obs[cols]].reshape(-1, count)
        if rank == dim:
            factor = (per_problem([sub.factor[0] for sub in group]),
                      per_problem([sub.factor[1] for sub in group]), rank)
            owner.append(cols)
            second.append(np.zeros(cols.size, dtype=bool))
            start.append(_apply_linear_factor(factor, d_obs)[0])
        else:
            # solve within the anchors' hyperplane, then place the
            # out-of-plane component on both sides
            factor = (per_problem([sub.plane_factor[0] for sub in group]),
                      per_problem([sub.plane_factor[1] for sub in group]), rank)
            y = _apply_linear_factor(factor, d_obs)[0]
            off = squared_distances(
                y[:, None], per_problem([sub.plane_points for sub in group]))[:, 0]
            z = np.sqrt(np.maximum((d_obs**2 - off).sum(axis=-1) / count, 0.0))[:, None]
            base = (per_problem([sub.points[0] for sub in group])
                    + (y[:, None, :] @ per_problem([sub.in_plane for sub in group]))[:, 0])
            normal = per_problem([sub.normal for sub in group])
            owner += [cols, cols]
            second += [np.zeros(cols.size, dtype=bool), np.ones(cols.size, dtype=bool)]
            start += [base + z * normal, base - z * normal]
            ambiguous[cols] = True

    if owner:
        owner, second, start = (np.concatenate(v) for v in (owner, second, start))
        if clamped.any():
            # a clamped column that is not a mirror pair starts from its anchor
            moved = clamped[owner] & ~ambiguous[owner]
            start[moved] = hit_anchor[owner[moved]]
        fit_dists, fit_obs = dists[owner], obs[owner]
        x, fit_iters, fit_conv = _gauss_newton(start, _range_model(anchors, fit_dists, fit_obs))
        fit_rms = np.sqrt((_range_residuals(x, anchors, fit_dists, fit_obs) ** 2).sum(axis=-1)
                          / n_obs[owner])
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


def multilaterate(anchors: AnchorSet, ranges, mask=None) -> PointFix:
    """Locate points from their distances to known anchors.

    ``ranges`` is a length-M vector aligned with the anchor set, or an
    M x B matrix with one point per column; NaN, or a False bit of a
    ``mask`` shaped like ``ranges``, marks unobserved entries. With
    observed anchors spanning the space, Gauss-Newton refines a linearized
    closed-form start until the step norm drops below 1e-10 (at most 100
    iterations). A range of 0 puts the point on its anchor: the fix is
    that anchor when every observed range fits it exactly, and otherwise
    (a noisy range clamped at zero) Gauss-Newton starts from it. When the
    observed anchors span only a hyperplane, both mirror candidates are
    computed and flagged. All columns are solved together in one batched
    iteration; a vector is the one-column case. A vector whose point
    cannot be fixed raises; for a matrix the error is returned per column
    (see ``PointFix``).
    """
    values = np.asarray(ranges, dtype=float)
    single = values.ndim == 1
    if values.ndim not in (1, 2) or values.shape[0] != anchors.num_anchors:
        raise ValueError("ranges length must match the anchor count")
    obs = _observed(values, mask)
    columns = values.reshape(anchors.num_anchors, -1).T
    obs = obs.reshape(anchors.num_anchors, -1).T
    fix = _fix_columns(anchors.positions, columns, obs)
    if not single:
        return fix
    if fix.errors[0] is not None:
        raise fix.errors[0]
    ambiguous = bool(fix.ambiguous[0])
    return PointFix(fix.position[0], float(fix.residual_rms[0]), fix.iterations,
                    fix.converged, ambiguous,
                    tuple(fix.candidates[0]) if ambiguous else ())


def _fit_poses(conf: Conformation, points: np.ndarray, weights: np.ndarray):
    """Weighted Procrustes fits of one conformation onto T point sets
    (T x K x D, finite, with finite non-negative weights T x K, at least
    one positive per set). Returns the rotations, translations, stage-2 RMS
    values and rotation-unique flags of the fits."""
    # a Kabsch rotation is a product of orthogonal SVD factors, so it is a
    # proper rotation to rounding and needs no re-orthonormalization
    rot, trans, rms = _weighted_kabsch(conf.coords, points, weights)
    # the proper rotation is unique when the weighted nodes span at least a
    # hyperplane: the one missing direction is fixed by the determinant
    which, subs = _pattern_subsets(conf.coords, weights > 0)
    unique = np.array([sub.rank >= conf.dim - 1 for sub in subs], dtype=bool)[which]
    return rot, trans, rms, unique


def fit_pose_procrustes(conf: Conformation, points, weights=None) -> PoseEstimate:
    """Fit the rigid pose aligning a conformation onto estimated node
    positions (weighted orthogonal Procrustes).

    Zero-weight nodes are ignored. When the effective conformation spans
    less than a hyperplane (a single node, or collinear nodes in 3D) the
    optimal rotation is not unique; a valid minimizer is still returned
    with ``rotation_unique`` cleared. Nodes in a hyperplane (two nodes in
    2D, three or more coplanar ones in 3D) fix a proper rotation.
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
    if not (np.isfinite(weights) & (weights >= 0)).all():
        raise ValueError("weights must be non-negative and finite")
    if weights.sum() <= 0:
        raise ValueError("at least one positive weight required")
    rot, trans, rms, unique = _fit_poses(conf, points[None], weights[None])
    return PoseEstimate(Pose(rot[0], trans[0]), stage1_rms=0.0, stage2_rms=float(rms[0]),
                        iterations=0, rotation_unique=bool(unique[0]))


@dataclass
class _TwoStage:
    """Array form of T two-stage estimates (see ``_two_stage``). A failed
    trial's ``failed`` entry is its estimation error, its pose is NaN and
    its ``rotation_unique`` False; ``ambiguous`` is T x K."""

    rotation: np.ndarray
    translation: np.ndarray
    failed: list
    stage1_rms: np.ndarray
    stage2_rms: np.ndarray
    iterations: np.ndarray
    rotation_unique: np.ndarray
    ambiguous: np.ndarray
    unconverged: np.ndarray


def _two_stage(anchors: AnchorSet, conf: Conformation, values: np.ndarray,
               mask: np.ndarray, weighted: bool) -> _TwoStage:
    """Array core of ``rbl_two_stage``: the two-stage estimates of T
    trials of one body from their T x M x K ranges (NaN where ``mask`` is
    False). Stage 1 multilaterates every usable node of every trial in one
    batched call and stage 2 fits all poses in one batched weighted
    Kabsch; a trial's row is what it gives solved alone. Work and memory
    grow with the total node count, so callers with many trials pass them
    in blocks."""
    t_count, dim = values.shape[0], conf.dim
    n_obs = mask.sum(axis=1)

    # Stage 1: nodes with at least dim+1 observed ranges, trial by trial
    # in node order; the others get zero weight.
    usable = n_obs >= dim + 1
    trial_of, node_of = np.nonzero(usable)
    points = np.zeros((t_count,) + conf.coords.shape)
    rms = np.zeros(usable.shape)
    iters = np.zeros(usable.shape, dtype=int)
    unconverged = np.zeros(usable.shape, dtype=bool)
    ambiguous = np.zeros(usable.shape, dtype=bool)
    failed = [None] * t_count
    if trial_of.size:
        fix = multilaterate(anchors, values[trial_of, :, node_of].T,
                            mask[trial_of, :, node_of].T)
        points[trial_of, node_of] = fix.position
        rms[trial_of, node_of] = fix.residual_rms
        iters[trial_of, node_of] = fix.point_iterations
        unconverged[trial_of, node_of] = ~fix.point_converged
        ambiguous[trial_of, node_of] = fix.ambiguous
        for j, err in enumerate(fix.errors):
            if err is not None and failed[trial_of[j]] is None:
                failed[trial_of[j]] = err
    for t in np.flatnonzero(~usable.any(axis=1)):
        failed[t] = InsufficientMeasurementsError("no node has enough observed ranges")
    if weighted:
        weights = np.where(usable, 1.0 / (rms**2 + WEIGHT_EPSILON), 0.0)
    else:
        weights = usable.astype(float)
    sq_resid = np.where(usable, rms**2 * n_obs, 0.0).sum(axis=-1)
    used_ranges = np.where(usable, n_obs, 0).sum(axis=1)

    # Stage 2 for the trials whose stage 1 left something to fit.
    rot = np.full((t_count, dim, dim), np.nan)
    trans = np.full((t_count, dim), np.nan)
    stage2_rms = np.full(t_count, np.nan)
    unique = np.zeros(t_count, dtype=bool)
    solvable = np.flatnonzero([f is None for f in failed])
    if solvable.size:
        rot[solvable], trans[solvable], stage2_rms[solvable], unique[solvable] = _fit_poses(
            conf, points[solvable], weights[solvable])
    # a trial without usable nodes has failed; its 0 / 1 keeps the division quiet
    stage1_rms = np.sqrt(sq_resid / np.maximum(used_ranges, 1))
    return _TwoStage(rot, trans, failed, stage1_rms, stage2_rms, iters.sum(axis=1),
                     unique, ambiguous, unconverged.sum(axis=1))


def rbl_two_stage(anchors: AnchorSet, ranges: MaskedRangeMatrix,
                  conf: Conformation, weighted: bool = True) -> PoseEstimate:
    """Two-stage rigid body localization.

    Stage 1 multilaterates every node with at least dim+1 observed ranges;
    nodes with fewer are dropped (zero weight). Stage 2 fits the pose by
    Procrustes, weighting each node by the inverse of its stage-1 residual
    variance (plus a small regularizer); ``weighted=False`` switches to
    uniform weights over the localized nodes. This is the one-trial case
    of the array core ``_two_stage``, which the sweeps run on blocks of
    trials; the estimation error (a ValueError) of a failed trial is raised.
    """
    if anchors.dim != conf.dim:
        raise ValueError("anchor and conformation dimensions differ")
    if ranges.shape != (anchors.num_anchors, conf.num_nodes):
        raise ValueError("range matrix shape must be (num_anchors, num_nodes)")
    fit = _two_stage(anchors, conf, ranges.values[None], ranges.mask[None], weighted)
    if fit.failed[0] is not None:
        raise fit.failed[0]
    return PoseEstimate(Pose(fit.rotation[0], fit.translation[0]), float(fit.stage1_rms[0]),
                        float(fit.stage2_rms[0]), int(fit.iterations[0]),
                        bool(fit.rotation_unique[0]),
                        tuple(int(n) for n in np.flatnonzero(fit.ambiguous[0])),
                        int(fit.unconverged[0]))


def _rigid_range_rows(rotated, diff, dist):
    """Derivative of an anchor-to-node range in the body's (ω, t): the
    row [q x u, u] in 3D and [u . (J2 q), u] in 2D, with q the rotated
    body-frame node offset and u = diff / dist the unit anchor-to-node
    vector (``dist`` is ``diff`` without its last axis); q broadcasts
    against u. Each column is written into one array from per-coordinate
    views, q x u with the products np.cross takes."""
    dim = diff.shape[-1]
    rows = np.empty(diff.shape[:-1] + (3 * dim - 3,))
    u = np.divide(diff, dist[..., None], out=rows[..., -dim:])
    if dim == 2:
        np.subtract(u[..., 1] * rotated[..., 0], u[..., 0] * rotated[..., 1], out=rows[..., 0])
    else:
        for c in range(3):
            a, b = (c + 1) % 3, (c + 2) % 3
            np.subtract(rotated[..., a] * u[..., b], rotated[..., b] * u[..., a],
                        out=rows[..., c])
    return rows


def _pose_model(anchors, coords, rot0, dists, obs):
    """The model ``linearize`` of the pose refinements ``_gauss_newton``
    runs: problem b fits x = (ω, t), the body at rotation R(ω)·rot0[b] and
    translation t, to the ranges dists[b] (B x M x K) where obs[b] is True;
    its residuals and Jacobian rows run over (anchor, node) pairs in
    row-major order. A residual's Jacobian row is ``_rigid_range_rows`` of
    q = R c_k. In 3D that row is the derivative for a rotation applied on
    top of the current one; it equals the derivative in ω at ω = 0 and
    differs from it by the left Jacobian of SO(3), invertible for
    |ω| < 2π, so both vanish at the same fits."""
    dim = coords.shape[1]
    count = obs.shape[1] * obs.shape[2]
    # every anchor once per node (M x K x D), so that each difference below
    # runs along whole (node, coordinate) rows instead of D at a time
    grid = np.ascontiguousarray(np.broadcast_to(anchors[:, None], obs.shape[1:] + (dim,)))

    def linearize(x, rows):
        rot = _exp_rotations(x[:, :-dim]) @ rot0[rows]
        rotated = coords @ np.swapaxes(rot, -1, -2)
        diff = (rotated + x[:, None, -dim:])[:, None] - grid
        dist = np.maximum(np.sqrt(_squared_norms(diff)), 1e-300)
        observed = obs[rows]
        resid = np.where(observed, dist - dists[rows], 0.0)
        jac = _rigid_range_rows(rotated[:, None], diff, dist)
        # zeroed through the flat indices of the 2-D view, which is faster
        # than a boolean mask over the leading axes
        jac.reshape(-1, jac.shape[-1])[np.flatnonzero(~observed)] = 0.0
        return resid.reshape(-1, count), jac.reshape(-1, count, jac.shape[-1])

    return linearize


def _refine(anchors: AnchorSet, conf: Conformation, rotations: np.ndarray,
            translations: np.ndarray, values: np.ndarray, mask: np.ndarray):
    """Stage 3: maximum-likelihood refinement of B poses (B x D x D, B x D)
    by Gauss-Newton on SE(n) over their B x M x K ranges, observed where
    ``mask`` is True, following Chepuri, Leus & van der Veen, "Rigid Body
    Localization Using Sensor Networks" (IEEE TSP 2014). Each pose starts
    from its rotation R0 and translation and moves as R = exp([ω]×)·R0 in
    3D or rot(θ)·R0 in 2D. All poses are solved together by the kernel
    every point fix runs on, so a pose's result does not depend on the
    others. Returns the refined poses, iteration counts and convergence
    flags."""
    dim = conf.dim
    start = np.hstack([np.zeros((len(rotations), 1 if dim == 2 else 3)), translations])
    x, iterations, converged = _gauss_newton(start, _pose_model(
        anchors.positions, conf.coords, rotations, np.where(mask, values, 0.0), mask))
    return _exp_rotations(x[:, :-dim]) @ rotations, x[:, -dim:], iterations, converged


def _joint_start(anchors: AnchorSet, conf: Conformation, values: np.ndarray,
                 mask: np.ndarray):
    """Start poses of B trials from one linear least-squares fit per trial
    over every observed range of its B x M x K ``values`` (observed where
    ``mask`` is True), for stage 3 to refine.

    Each squared range is linear in θ = (vec R, t, w = Rᵀt, τ = |t|²):
    d²ₘₖ − |aₘ|² − |cₖ|² = −2 aₘᵀ R cₖ − 2 aₘᵀ t + 2 cₖᵀ w + τ, which lifts
    the range equations of Chepuri, Leus & van der Veen, "Rigid Body
    Localization Using Sensor Networks" (IEEE TSP 2014) as Beck, Stoica &
    Li, "Exact and approximate solutions of source localization problems"
    (IEEE TSP 2008) lift |x|². That is D² + 2D + 1 unknowns (16 in 3D, 9
    in 2D) whatever K is. The right side is uₘᵀ Θ vₖ with uₘ = (−2aₘ, 1),
    vₖ = (cₖ, 1) and Θ = [[R, t], [2wᵀ, τ]], so the design row of range
    (m, k) is uₘ ⊗ vₖ and each trial's normal equations are built from the
    M + K outer products, not from its M·K rows. Their Gram matrix is
    scaled to a unit diagonal; a trial whose eigenvalues span more than
    1 / JOINT_START_RCOND has no full-rank fit, and the others are solved.
    The start is the proper rotation nearest the fitted R and the fitted
    t. Returns the rotations (B x D x D), the translations (B x D), NaN
    where a trial failed, and per trial None or its error:
    InsufficientMeasurementsError below D² + 2D + 1 observed ranges,
    DegenerateGeometryError when they do not have full rank.
    """
    a, c = anchors.positions, conf.coords
    count, dim = len(values), a.shape[1]
    side = dim + 1
    unknowns = side * side
    u = np.hstack([-2.0 * a, np.ones((len(a), 1))])
    v = np.hstack([c, np.ones((len(c), 1))])
    n_obs = mask.reshape(count, -1).sum(axis=1)
    ok = n_obs >= unknowns
    rhs = np.where(mask[ok], values[ok]**2 - (a**2).sum(axis=1)[:, None] - (c**2).sum(axis=1),
                   0.0)
    # gram[(i, j), (i', j')] = Σₘ uₘᵢ uₘᵢ' Σₖ maskₘₖ vₖⱼ vₖⱼ', as stacked products
    outer_u = np.ascontiguousarray((u[:, :, None] * u[:, None, :]).reshape(len(a), -1).T)
    outer_v = (v[:, :, None] * v[:, None, :]).reshape(len(c), unknowns)
    gram = (outer_u @ (mask[ok].astype(float) @ outer_v)).reshape(-1, side, side, side, side)
    gram = gram.transpose(0, 1, 3, 2, 4).reshape(-1, unknowns, unknowns)
    moment = (u.T @ (rhs @ v)).reshape(-1, unknowns)
    diagonal = np.diagonal(gram, axis1=1, axis2=2)
    scale = np.divide(1.0, np.sqrt(diagonal), out=np.zeros_like(diagonal), where=diagonal > 0.0)
    gram *= scale[:, :, None] * scale[:, None, :]
    eig = np.linalg.eigvalsh(gram)
    full = eig[:, 0] > JOINT_START_RCOND * eig[:, -1]
    ok[np.flatnonzero(ok)[~full]] = False
    scale = scale[full]
    theta = scale * np.linalg.solve(gram[full], (moment[full] * scale)[..., None])[..., 0]
    theta = theta.reshape(-1, side, side)
    failed = [None] * count
    for b in np.flatnonzero(~ok):
        failed[b] = (InsufficientMeasurementsError(
            f"{n_obs[b]} observed ranges cannot fix the {unknowns} unknowns "
            f"of a joint start in {dim}D") if n_obs[b] < unknowns else
            DegenerateGeometryError("observed ranges do not determine a joint start"))
    rotations = np.full((count, dim, dim), np.nan)
    translations = np.full((count, dim), np.nan)
    u_rot, vt = _proper_svd(theta[:, :dim, :dim])
    rotations[ok] = u_rot @ vt
    translations[ok] = theta[:, :dim, dim]
    return rotations, translations, failed


def localize_point_hybrid(anchors: AnchorSet, ranges=None, azimuths=None,
                          elevations=None, sigma_range: float = 1.0,
                          sigma_angle: float = 1.0) -> PointFix:
    """Locate one point from any mix of ranges and angles of arrival.

    All measurement vectors have length M with NaN marking unobserved
    entries. Range, azimuth and (3D) elevation residuals are stacked with
    1/sigma weighting and solved by the Gauss-Newton kernel that
    ``multilaterate`` runs (step tolerance 1e-10, at most 100 iterations)
    from the best-fitting closed-form start: a range+angle polar fix, the
    linearized range fix, a 2D bearing intersection or the anchor
    centroid. Angles resolve ambiguities ranges alone cannot, e.g. a
    single anchor with one range and one azimuth already fixes a 2D point.
    Both sigmas must be positive and finite: they weight the residuals.
    """
    for name, sigma in (("sigma_range", sigma_range), ("sigma_angle", sigma_angle)):
        if not 0 < sigma < np.inf:
            raise ValueError(f"{name} must be positive and finite")
    dim = anchors.dim
    m = anchors.num_anchors
    nothing = np.full(m, np.nan)
    r_vals, a_vals, e_vals = (
        np.asarray(nothing if v is None else v, dtype=float).reshape(-1)
        for v in (ranges, azimuths, elevations))
    r_obs, a_obs, e_obs = (np.isfinite(v) for v in (r_vals, a_vals, e_vals))
    if dim == 2 and e_obs.any():
        raise ValueError("elevation measurements require 3D anchors")
    for vec in (r_vals, a_vals, e_vals):
        if vec.shape[0] != m:
            raise ValueError("measurement vectors must have one entry per anchor")
    n_total = int(r_obs.sum() + a_obs.sum() + e_obs.sum())
    if n_total < dim:
        raise InsufficientMeasurementsError(
            f"{n_total} observations cannot fix a point in {dim}D")
    w_range, w_angle = 1.0 / sigma_range, 1.0 / sigma_angle
    # one weighted row per anchor and kind, zero where unobserved
    weights = np.concatenate([w_range * r_obs, w_angle * a_obs]
                             + ([w_angle * e_obs] if dim == 3 else []))

    def linearize(x, rows):
        # every problem shares the one measurement set, so ``rows`` is unused
        diff = x[:, None, :] - anchors.positions
        sq = (diff**2).sum(axis=2)
        dist = np.maximum(np.sqrt(sq), 1e-300)
        rho_sq = np.maximum(diff[..., 0] ** 2 + diff[..., 1] ** 2, 1e-300)
        d_azimuth = np.zeros_like(diff)
        d_azimuth[..., 0] = -diff[..., 1] / rho_sq
        d_azimuth[..., 1] = diff[..., 0] / rho_sq
        resid = [np.where(r_obs, dist - r_vals, 0.0),
                 np.where(a_obs, wrap_angle(np.arctan2(diff[..., 1], diff[..., 0])
                                            - a_vals), 0.0)]
        jac = [diff / dist[..., None], d_azimuth]
        if dim == 3:
            rho = np.sqrt(rho_sq)
            resid.append(np.where(e_obs, np.arctan2(diff[..., 2], rho) - e_vals, 0.0))
            jac.append(np.stack([-diff[..., 0] * diff[..., 2],
                                 -diff[..., 1] * diff[..., 2], rho_sq], axis=-1)
                       / (np.maximum(sq, 1e-300) * rho)[..., None])
        return (np.concatenate(resid, axis=1) * weights,
                np.concatenate(jac, axis=1) * weights[:, None])
    # Candidate start points: polar fixes from anchors with a full
    # range+angle pair, a linearized multilateration fix, and a nudged
    # anchor centroid as a fallback.
    pair = r_obs & a_obs & (e_obs if dim == 3 else True)
    azimuth, elevation = a_vals[pair], np.where(e_obs, e_vals, 0.0)[pair]
    candidates = list(anchors.positions[pair] + r_vals[pair, None] * np.stack(
        [np.cos(elevation) * np.cos(azimuth), np.cos(elevation) * np.sin(azimuth),
         np.sin(elevation)], axis=1)[:, :dim])
    if r_obs.sum() >= dim + 1:
        _, (ranged,) = _pattern_subsets(anchors.positions, r_obs[None])
        candidates.append(_apply_linear_factor(ranged.factor, r_vals[r_obs])[0][0])
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
    candidates = np.array(candidates)
    start = candidates[np.argmin((linearize(candidates, None)[0] ** 2).sum(axis=-1)), None]

    if np.linalg.matrix_rank(linearize(start, None)[1][0]) < dim:
        raise DegenerateGeometryError("measurements do not pin down the point")
    x, iterations, converged = _gauss_newton(start, linearize)
    resid = linearize(x, None)[0]
    return PointFix(x[0], float(np.sqrt((resid**2).sum(axis=-1)[0] / n_total)),
                    int(iterations[0]), bool(converged[0]))


def relative_pose_anchorless(conf1: Conformation, conf2: Conformation,
                             cross: MaskedRangeMatrix) -> RelativePoseEstimate:
    """Relative pose of body 2 in body 1's frame from cross distances only.

    In body 1's frame its nodes are anchors at known coordinates, so this
    is anchored rigid body localization with ``conf1``'s nodes as anchors
    and ``cross`` (k1 x k2) as their ranges to body 2's nodes: the
    ``rbl_two_stage`` estimate refined by stage 3 (``_refine``). Stage 1
    fixes a body-2 node only when body 1 has at least dim+1 nodes; when
    they span only a hyperplane, each fix is one of two mirror candidates,
    ``reflection_resolved`` is cleared and the pose can be metres off.
    Raises the estimation error the two stages raise, and
    DegenerateGeometryError when body 2's nodes span less than a
    hyperplane (its rotation is not unique) or when both bodies lie in one
    hyperplane (ranges within it leave each node's offset out of it
    unobservable).

    One call is one trial of the array cores that the anchorless sweep
    runs on blocks of trials (``placement.refined_block``).
    """
    if conf1.dim != conf2.dim:
        raise ValueError("conformation dimensions differ")
    if cross.shape != (conf1.num_nodes, conf2.num_nodes):
        raise ValueError("cross matrix shape must be (k1, k2)")
    if not np.all(cross.mask):
        raise ValueError("cross distances must be fully observed; "
                         "complete the distance matrix first")
    anchors = AnchorSet(conf1.coords)
    est = rbl_two_stage(anchors, cross, conf2)
    if not est.rotation_unique:
        raise DegenerateGeometryError(
            "body 2's localized nodes do not pin down its rotation")
    rot, trans, _, _ = _refine(anchors, conf2, est.pose.rotation[None],
                               est.pose.translation[None], cross.values[None],
                               cross.mask[None])
    pose = Pose(rot[0], trans[0])
    body2 = apply_pose(conf2, pose).positions
    # stage 1 puts a node in body 1's hyperplane to rounding, hence the cutoff
    if affine_basis(np.vstack([conf1.coords, body2]), tol=1e-6)[2] < conf1.dim:
        raise DegenerateGeometryError("both bodies lie in one hyperplane")
    offset = body2.mean(axis=0) - conf1.coords.mean(axis=0)
    return RelativePoseEstimate(pose, offset, est.stage2_rms, not est.ambiguous_nodes)


def _motion_fits(anchors: AnchorSet, conf: Conformation, rotations: np.ndarray,
                 translations: np.ndarray, rates: np.ndarray, mask: np.ndarray):
    """Array core of ``estimate_motion`` for B bodies at known poses (B x D x D,
    B x D): per trial one least-squares solve on the ``_rigid_range_rows``
    of its B x M x K range-rates where ``mask`` is True, in row-major order.
    Returns the omegas (B x 1 or B x 3), t_dots and residual RMS values, NaN
    where a trial failed, and per trial None or its estimation error."""
    dim, unknowns = conf.dim, 3 if conf.dim == 2 else 6
    rotated = conf.coords @ np.swapaxes(rotations, -1, -2)
    diff = (rotated + translations[:, None])[:, None] - anchors.positions[:, None]
    dist = np.sqrt(_squared_norms(diff))
    coincide = (mask & (dist <= 0.0)).any(axis=(1, 2))
    # a coincident pair's row is never solved: its trial fails or masks it
    rows = _rigid_range_rows(rotated[:, None], diff, np.where(dist > 0, dist, 1.0))
    theta, rms = np.full((len(rates), unknowns), np.nan), np.full(len(rates), np.nan)
    failed = []
    for b, observed in enumerate(mask):
        count, err = int(observed.sum()), None
        if count < unknowns:
            err = InsufficientMeasurementsError(
                f"{count} range-rates cannot fix {unknowns} velocity unknowns")
        elif coincide[b]:
            err = DegenerateGeometryError("node coincides with an anchor; rate undefined")
        else:
            design, rhs = rows[b][observed], rates[b][observed]
            fit, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
            if rank < unknowns:
                err = DegenerateGeometryError(
                    "range-rate geometry does not separate rotation from translation")
            else:
                theta[b], rms[b] = fit, np.sqrt(np.mean((design @ fit - rhs) ** 2))
        failed.append(err)
    return theta[:, :-dim], theta[:, -dim:], rms, failed


def estimate_motion(anchors: AnchorSet, pose: Pose, conf: Conformation,
                    range_rates, mask=None) -> MotionEstimate:
    """Angular and translational velocity from range-rate measurements.

    With the pose known, each observed range-rate is linear in the unknown
    (omega, t_dot), so the estimate is a single linear least-squares solve.
    ``range_rates`` is M x K; NaN, or a False bit of an M x K ``mask``,
    marks unobserved pairs. This is the one-trial case of ``_motion_fits``.
    """
    if anchors.dim != conf.dim:
        raise ValueError("anchor and conformation dimensions differ")
    if pose.dim != conf.dim:
        raise ValueError("pose and conformation dimensions differ")
    rates = np.asarray(range_rates, dtype=float)
    if rates.shape != (anchors.num_anchors, conf.num_nodes):
        raise ValueError("range-rate matrix shape must be (num_anchors, num_nodes)")
    omega, t_dot, rms, (err,) = _motion_fits(anchors, conf, pose.rotation[None],
                                             pose.translation[None], rates[None],
                                             _observed(rates, mask)[None])
    if err is not None:
        raise err
    return MotionEstimate(BodyMotion(omega[0, 0] if conf.dim == 2 else omega[0], t_dot[0]),
                          float(rms[0]))
