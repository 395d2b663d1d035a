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

import itertools
from dataclasses import dataclass

import numpy as np

from .estimators import rbl_two_stage_batch
from .geometry import (
    Conformation,
    Pose,
    apply_pose,
    random_rotation,
    rotation_geodesic_error,
)
from .measurement import AnchorSet, simulate_ranges

UNIT_NORM_TOL = 1e-9

# Monte-Carlo trials are drawn and solved in blocks of at most this many
# node fixes (trials x nodes), which bounds the memory of a long run. The
# value kept the peak RSS of a harness sweep within 5% of solving trial by
# trial (see README, "Batched estimation").
BLOCK_NODE_FIXES = 256


@dataclass(frozen=True)
class PlacementProblem:
    """Optimize ``num_anchors`` directions around a target center."""

    num_anchors: int
    dim: int
    target_center: np.ndarray = None
    anchor_radius: float = 30.0
    seed: int = 0

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if self.num_anchors < 1:
            raise ValueError("at least one anchor is required")
        if not self.anchor_radius > 0:
            raise ValueError("anchor_radius must be positive")
        center = np.zeros(self.dim) if self.target_center is None \
            else np.array(self.target_center, dtype=float).reshape(-1)
        if center.shape != (self.dim,) or not np.all(np.isfinite(center)):
            raise ValueError("target_center must be a finite length-dim vector")
        center.flags.writeable = False
        object.__setattr__(self, "target_center", center)


@dataclass
class PlacementResult:
    positions: np.ndarray
    directions: np.ndarray
    frame_potential: float
    lower_bound: float

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


def _descend(u: np.ndarray, max_iter: int, tol: float):
    """Projected gradient descent on the product of spheres, halving the
    step whenever it fails to decrease the potential."""
    fp = frame_potential(u)
    step = 0.25
    for _ in range(max_iter):
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
        if trial_fp < fp - tol:
            u, fp = trial, trial_fp
            step *= 1.5
        else:
            step *= 0.5
            if step < 1e-14:
                break
    return u, fp


def optimize_placement(problem: PlacementProblem, restarts: int = 20,
                       max_iter: int = 2000, tol: float = 1e-15) -> PlacementResult:
    """Minimize the frame potential of the anchor directions.

    Runs seeded random restarts of projected gradient descent and keeps the
    best layout; anchors are placed on a sphere of ``anchor_radius`` around
    the target center along the optimized directions.
    """
    rng = np.random.default_rng(problem.seed)
    m, dim = problem.num_anchors, problem.dim
    best_u, best_fp = None, np.inf
    for _ in range(restarts):
        u = rng.normal(size=(m, dim))
        norms = np.sqrt((u**2).sum(axis=1))
        while np.any(norms < 1e-12):
            u = rng.normal(size=(m, dim))
            norms = np.sqrt((u**2).sum(axis=1))
        u, fp = _descend(_normalize_rows(u), max_iter, tol)
        if fp < best_fp:
            best_u, best_fp = u, fp
    positions = problem.target_center + problem.anchor_radius * best_u
    return PlacementResult(positions, best_u, best_fp, m**2 / dim)


def evaluate_placement(anchors: AnchorSet, conf: Conformation, sigma: float,
                       trials: int, seed=0,
                       pose_spread: float = 1.0) -> PlacementEvaluation:
    """Monte-Carlo localization error of a body under an anchor layout.

    Each trial places the body at a random rotation and a translation
    drawn uniformly within ``pose_spread`` meters of the anchor centroid,
    simulates ranges at noise ``sigma`` and runs the two-stage estimator.
    Per-trial generators are derived from (seed, trial index), so results
    do not depend on scheduling. Estimator failures are counted and
    excluded from the error statistics.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    center = anchors.positions.mean(axis=0)
    entropy = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)

    def draws():
        for trial in range(trials):
            rng = np.random.default_rng((*entropy, trial))
            pose = Pose(random_rotation(rng, anchors.dim),
                        center + rng.uniform(-pose_spread, pose_spread, anchors.dim))
            yield pose, simulate_ranges(anchors, apply_pose(conf, pose), sigma,
                                        None, rng)

    return two_stage_statistics(anchors, conf, draws())


def pose_errors(est_pose: Pose, true_pose: Pose):
    """Squared translation error and squared rotation geodesic error."""
    t_err = float(((est_pose.translation - true_pose.translation) ** 2).sum())
    r_err = rotation_geodesic_error(est_pose.rotation, true_pose.rotation) ** 2
    return t_err, r_err


def error_statistics(draws, solve, errors=None,
                     block_size: int = 1) -> PlacementEvaluation:
    """Error statistics of an estimator over Monte-Carlo draws.

    ``draws`` yields (truth, data) per trial; data of None marks a trial
    that already failed while its data was prepared. Draws are taken
    ``block_size`` at a time and ``solve`` maps the block's data list to
    one estimate, or one estimation ``ValueError``, per item.
    ``errors(estimate, truth)`` gives the squared translation and rotation
    errors of a success (default: ``pose_errors`` of ``estimate.pose``).
    Failed trials are counted and excluded from the RMSE.
    """
    errors = errors or (lambda est, pose: pose_errors(est.pose, pose))
    draws = iter(draws)
    t_sq, r_sq = [], []
    trials = failures = 0
    while block := list(itertools.islice(draws, block_size)):
        trials += len(block)
        solvable = [(truth, data) for truth, data in block if data is not None]
        failures += len(block) - len(solvable)
        for (truth, _), est in zip(solvable, solve([d for _, d in solvable])):
            if isinstance(est, ValueError):
                failures += 1
                continue
            t_err, r_err = errors(est, truth)
            t_sq.append(t_err)
            r_sq.append(r_err)
    t_rmse, t_se = rmse_and_se(t_sq)
    r_rmse, r_se = rmse_and_se(r_sq)
    return PlacementEvaluation(t_rmse, r_rmse, t_se, r_se, failures, trials)


def one_at_a_time(solve):
    """Block solver for ``error_statistics`` from a one-trial solver whose
    ``ValueError`` marks that trial as failed."""
    def solve_block(items):
        estimates = []
        for item in items:
            try:
                estimates.append(solve(item))
            except ValueError as err:
                estimates.append(err)
        return estimates
    return solve_block


def two_stage_statistics(anchors: AnchorSet, conf: Conformation, draws,
                         weighted: bool = True) -> PlacementEvaluation:
    """Error statistics of the two-stage estimator over (true pose, ranges)
    draws, solved in blocks of at most ``BLOCK_NODE_FIXES`` node fixes."""
    return error_statistics(
        draws, lambda ranges: rbl_two_stage_batch(anchors, ranges, conf,
                                                  weighted=weighted),
        block_size=max(1, BLOCK_NODE_FIXES // conf.num_nodes))


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
