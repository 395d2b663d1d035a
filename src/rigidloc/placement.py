"""Anchor placement quality and optimization.

Anchor directions seen from the target region behave like a frame: the
frame potential (sum of squared pairwise inner products of the unit
direction vectors) is bounded below by M^2/D and reaches the bound exactly
for unit-norm tight frames, which spread measurement information evenly
over all directions. Placement optimization minimizes the potential on the
sphere by projected gradient descent with restarts; an evaluation helper
scores a candidate layout by Monte-Carlo localization error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .completion import NonEuclideanMatrixError
from .estimators import (
    DegenerateGeometryError,
    InsufficientMeasurementsError,
    _refine,
    _two_stage,
)
from .geometry import (
    Conformation,
    Pose,
    _check_poses,
    _drawn_rotations,
    _place,
    _rotation_angles,
    _rotation_draw,
)
from .measurement import AnchorSet, _check_observed, _check_sigma, _ranges

UNIT_NORM_TOL = 1e-9
EVALUATION_POSE_SPREAD = 1.0  # meters; see ``evaluate_placement``

# Restarts of the frame-potential descent, the iteration cap of each, and
# the decrease a step must make to be taken.
PLACEMENT_RESTARTS = 20
DESCENT_MAX_ITER = 2000
DESCENT_TOL = 1e-15

# Monte-Carlo trials are drawn and solved in blocks of at most this many
# node fixes (trials x nodes), which bounds the memory of a long run. It is
# the largest power of two that keeps the peak RSS of a harness sweep within
# 5% of one trial per block (see README, "Batched estimation").
BLOCK_NODE_FIXES = 1024

# The estimation errors that fail a Monte-Carlo trial; any other error is a
# fault of the program and propagates.
TRIAL_FAILURES = (InsufficientMeasurementsError, DegenerateGeometryError,
                  NonEuclideanMatrixError)


@dataclass(frozen=True)
class PlacementProblem:
    """Optimize ``num_anchors`` directions on a sphere of ``anchor_radius``
    around the origin."""

    num_anchors: int
    dim: int
    anchor_radius: float = 30.0
    seed: int = 0

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if self.num_anchors < 1:
            raise ValueError("at least one anchor is required")
        if not self.anchor_radius > 0:
            raise ValueError("anchor_radius must be positive")


@dataclass
class PlacementResult:
    positions: np.ndarray
    frame_potential: float

    def to_anchor_set(self) -> AnchorSet:
        return AnchorSet(self.positions)


@dataclass
class PlacementEvaluation:
    """RMSE and its standard error over the successful trials of a
    Monte-Carlo run, with the failed and total trial counts."""

    translation_rmse: float
    rotation_rmse: float
    translation_se: float
    rotation_se: float
    failures: int
    trials: int


def frame_potential(directions) -> float:
    """Sum of squared inner products over all ordered direction pairs.

    Directions must be unit vectors; the self terms contribute exactly M,
    so the minimum M^2/D is attained only by tight frames.
    """
    u = np.asarray(directions, dtype=float)
    if u.ndim != 2 or u.shape[1] not in (2, 3):
        raise ValueError("directions must be an M x D array, D in {2, 3}")
    norms = np.sqrt((u**2).sum(axis=1))
    if np.abs(norms - 1.0).max() > UNIT_NORM_TOL:
        raise ValueError("directions must be unit vectors")
    gram = u @ u.T
    return float((gram**2).sum())


def _normalize_rows(u: np.ndarray) -> np.ndarray:
    return u / np.sqrt((u**2).sum(axis=1))[:, None]


def _descend(u: np.ndarray):
    """Projected gradient descent on the product of spheres, halving the
    step whenever it fails to decrease the potential."""
    fp = frame_potential(u)
    step = 0.25
    for _ in range(DESCENT_MAX_ITER):
        grad = 4.0 * (u @ u.T) @ u
        moved = u - step * grad
        norms = np.sqrt((moved**2).sum(axis=1))
        if norms.min() < 1e-12:  # step collapsed a direction; shrink it
            step *= 0.5
            if step < 1e-14:
                break
            continue
        trial = moved / norms[:, None]
        trial_fp = frame_potential(trial)
        if trial_fp < fp - DESCENT_TOL:
            u, fp = trial, trial_fp
            step *= 1.5
        else:
            step *= 0.5
            if step < 1e-14:
                break
    return u, fp


def optimize_placement(problem: PlacementProblem) -> PlacementResult:
    """Minimize the frame potential of the anchor directions.

    Runs ``PLACEMENT_RESTARTS`` random restarts of projected gradient
    descent, seeded by ``problem.seed``, and keeps the best layout; anchors
    are placed on a sphere of ``anchor_radius`` around the origin along
    the optimized directions.
    """
    rng = np.random.default_rng(problem.seed)
    m, dim = problem.num_anchors, problem.dim
    best_u, best_fp = None, np.inf
    for _ in range(PLACEMENT_RESTARTS):
        u = rng.normal(size=(m, dim))
        norms = np.sqrt((u**2).sum(axis=1))
        while np.any(norms < 1e-12):
            u = rng.normal(size=(m, dim))
            norms = np.sqrt((u**2).sum(axis=1))
        u, fp = _descend(_normalize_rows(u))
        if fp < best_fp:
            best_u, best_fp = u, fp
    return PlacementResult(problem.anchor_radius * best_u, best_fp)


def evaluate_placement(anchors: AnchorSet, conf: Conformation, sigma: float,
                       trials: int, seed=0) -> PlacementEvaluation:
    """Monte-Carlo localization error of a body under an anchor layout.

    Each trial places the body at a random rotation and a translation
    drawn uniformly within ``EVALUATION_POSE_SPREAD`` meters per axis of
    the anchor centroid, simulates ranges at noise ``sigma`` and runs the
    two-stage estimator. Per-trial generators are derived from (seed,
    trial index), so results do not depend on scheduling. Estimator
    failures are counted and excluded from the error statistics.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    entropy = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    blocks = range_blocks(
        anchors, conf, trials, lambda trial: np.random.default_rng((*entropy, trial)),
        uniform_pose(anchors.positions.mean(axis=0), EVALUATION_POSE_SPREAD), sigma)
    return two_stage_statistics(anchors, conf, blocks)


def uniform_pose(center: np.ndarray, spread: float):
    """Pose draw for ``range_blocks``: the ``_rotation_draw`` of a uniform
    random rotation, then a translation uniform within ``spread`` meters
    per axis of ``center``."""
    dim = len(center)
    return lambda rng: (_rotation_draw(rng, dim),
                        center + rng.uniform(-spread, spread, dim))


def range_blocks(anchors: AnchorSet, conf: Conformation, trials: int, trial_rng,
                 draw_pose, sigma: float, fraction: float = 0.0):
    """Monte-Carlo range draws of a body, in the blocks of
    ``trial_blocks``, for ``error_statistics``.

    Each trial draws its true rotation and translation by
    ``draw_pose(rng)``, the rotation as its ``_rotation_draw``, then, with
    ``sigma`` > 0, the noise of each of its M x K ranges and, with
    ``fraction`` > 0, one uniform number per range, which drops the range
    when below ``fraction``. Each block then builds its rotations with
    ``_drawn_rotations``, as ``random_rotation`` builds each, and is
    placed, ranged and checked at once, as ``Pose`` and
    ``MaskedRangeMatrix`` check, and yields ((rotations, translations),
    (values, mask)): B x D x D, B x D and two B x M x K arrays, the values
    NaN where the mask drops them.
    """
    if anchors.dim != conf.dim:
        raise ValueError("anchor and conformation dimensions differ")
    _check_sigma(sigma)
    shape = (anchors.num_anchors, conf.num_nodes)

    def draw(rng):
        return (*draw_pose(rng), rng.normal(0.0, sigma, size=shape) if sigma > 0 else None,
                rng.random(shape) if fraction > 0 else None)

    for rotations, translations, noise, draws in trial_blocks(conf, trials, trial_rng, draw):
        rotations = _drawn_rotations(rotations)
        _check_poses(rotations, translations)
        values = _ranges(anchors.positions, _place(conf.coords, rotations, translations), noise)
        mask = draws >= fraction if fraction > 0 else np.ones(values.shape, dtype=bool)
        values[~mask] = np.nan
        _check_observed(values, mask, nonnegative=True)
        yield (rotations, translations), (values, mask)


def trial_blocks(conf: Conformation, trials: int, trial_rng, draw):
    """Monte-Carlo draws in blocks of ``trials_per_block(conf)`` trials:
    ``draw(trial_rng(t))`` returns a tuple of arrays or Nones for trial t,
    and each block yields, per tuple field, its trials' arrays stacked in
    trial order, or None."""
    size = trials_per_block(conf)
    for first in range(0, trials, size):
        fields = zip(*[draw(trial_rng(t)) for t in range(first, min(first + size, trials))])
        yield [None if field[0] is None else np.stack(field) for field in fields]


def pose_errors(est_pose: Pose, true_pose: Pose):
    """Squared translation error and squared rotation geodesic error."""
    t_sq, r_sq = _pose_errors(
        (est_pose.rotation[None], est_pose.translation[None]),
        (true_pose.rotation[None], true_pose.translation[None]))
    return float(t_sq[0]), float(r_sq[0])


def _pose_errors(estimate, truth):
    """``pose_errors`` of stacked poses: ``estimate`` and ``truth`` are
    (rotations B x D x D, translations B x D) pairs."""
    (est_rot, est_trans), (true_rot, true_trans) = estimate, truth
    t_sq = ((est_trans - true_trans) ** 2).sum(axis=-1)
    angles = _rotation_angles(est_rot @ np.swapaxes(true_rot, -1, -2))
    # squared by pow() on Python floats, as the sweeps always have: x * x
    # differs from it in the last bit for about one angle in 1300
    return t_sq, np.array([a**2 for a in angles.tolist()])


def error_statistics(blocks, solve, errors=None) -> PlacementEvaluation:
    """Error statistics of an estimator over Monte-Carlo draws.

    ``blocks`` yields one (truth, data) pair per block of trials, each
    covering every trial of the block. ``solve(data)`` returns (estimate,
    failures): ``failures`` holds per trial None or the estimation
    ``ValueError`` that failed it, and ``errors(estimate, truth)`` gives
    the squared translation and rotation errors of every trial of the
    block as two arrays, whose entries at failed trials are ignored
    (default: ``pose_errors`` of stacked (rotations, translations)).
    Trials failed by one of ``TRIAL_FAILURES`` are counted and excluded
    from the RMSE; any other ``ValueError`` is raised.
    """
    errors = errors or _pose_errors
    t_sq, r_sq = [], []
    trials = failures = 0
    for truth, data in blocks:
        estimate, failed = solve(data)
        trials += len(failed)
        for err in failed:
            if err is not None and not isinstance(err, TRIAL_FAILURES):
                raise err
        ok = np.array([err is None for err in failed], dtype=bool)
        failures += len(failed) - int(ok.sum())
        if ok.any():
            t_err, r_err = errors(estimate, truth)
            t_sq.append(np.asarray(t_err)[ok])
            r_sq.append(np.asarray(r_err)[ok])
    t_rmse, t_se = rmse_and_se(np.concatenate(t_sq) if t_sq else [])
    r_rmse, r_se = rmse_and_se(np.concatenate(r_sq) if r_sq else [])
    return PlacementEvaluation(t_rmse, r_rmse, t_se, r_se, failures, trials)


def trials_per_block(conf: Conformation) -> int:
    """Trials of a body solved together: at most ``BLOCK_NODE_FIXES`` node
    fixes, and at least one trial."""
    return max(1, BLOCK_NODE_FIXES // conf.num_nodes)


def two_stage_statistics(anchors: AnchorSet, conf: Conformation, blocks,
                         weighted: bool = True) -> PlacementEvaluation:
    """Error statistics of the two-stage estimator over the blocks of
    ``range_blocks``, each block estimated as arrays."""
    return error_statistics(
        blocks, lambda data: _checked(_two_stage(anchors, conf, *data, weighted)))


def _checked(fit):
    """A block's ``_two_stage`` fit in block form, its poses checked as ``Pose`` does."""
    ok = np.array([err is None for err in fit.failed], dtype=bool)
    _check_poses(fit.rotation[ok], fit.translation[ok])
    return (fit.rotation, fit.translation), fit.failed


def refined_block(anchors: AnchorSet, conf: Conformation, filled, values, mask,
                  weighted: bool, start=None):
    """Block solver of the refined sweeps: stage 3 on the observed
    ``values`` where ``mask`` is True (B x M x K), from a start pose per
    trial. ``start``, when given, is what ``estimators._joint_start``
    returns for the block; the trials it started refine from its poses and
    skip stages 1-2. Every other trial starts from two-stage on its
    ``filled`` ranges (NaN where unknown), checked once as
    ``MaskedRangeMatrix`` checks them, and is refined where its rotation
    is unique."""
    count, dim = len(values), conf.dim
    rotations, translations = np.full((count, dim, dim), np.nan), np.full((count, dim), np.nan)
    ready = np.zeros(count, dtype=bool)
    if start is not None:
        ready = np.array([err is None for err in start[2]], dtype=bool)
        rotations[ready], translations[ready] = start[0][ready], start[1][ready]
    failed, todo, rest = [None] * count, ready.copy(), np.flatnonzero(~ready)
    if rest.size:
        ranges = filled[rest]
        known = np.isfinite(ranges)
        _check_observed(ranges, known, nonnegative=True)
        fit = _two_stage(anchors, conf, ranges, known, weighted)
        (rotations[rest], translations[rest]), fit_failed = _checked(fit)
        for t, err in zip(rest, fit_failed):
            failed[t] = err
        todo[rest] = fit.rotation_unique
    rot, trans, _, _ = _refine(anchors, conf, rotations[todo], translations[todo],
                               values[todo], mask[todo])
    _check_poses(rot, trans)
    rotations[todo], translations[todo] = rot, trans
    return (rotations, translations), failed


def rmse_and_se(squared_errors) -> tuple[float, float]:
    """RMSE plus its standard error (delta method on the mean square)."""
    sq = np.asarray(squared_errors, dtype=float)
    if sq.size == 0:
        return float("nan"), float("nan")
    rmse = float(np.sqrt(sq.mean()))
    if sq.size < 2 or rmse == 0.0:
        return rmse, 0.0
    se_mean = sq.std(ddof=1) / np.sqrt(sq.size)
    return rmse, float(se_mean / (2.0 * rmse))
