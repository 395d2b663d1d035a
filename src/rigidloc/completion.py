"""Euclidean distance matrix completion and embedding.

A squared EDM of points in D dimensions has rank at most D+2, so missing
entries can be recovered by alternating between a rank-(D+2) eigenvalue
truncation and re-imposing the known entries together with symmetry,
hollowness and non-negativity. Classical multidimensional scaling turns a
complete EDM back into coordinates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import affine_basis, squared_distances
from .geometry import _apply_linear_factor, _linear_factor, _weighted_kabsch
from .measurement import PartialEdm

COMPLETION_TOL = 1e-10
COMPLETION_MAX_ITER = 500
COMPLETION_STALL_THRESHOLD = 1e-6

# Rank of a squared EDM generated by D-dimensional points is <= D + 2.
EDM_RANK_SURPLUS = 2


class NonEuclideanMatrixError(ValueError):
    """Input is too far from any Euclidean distance matrix."""


@dataclass
class CompletionResult:
    """Completed squared EDM plus diagnostics.

    ``completed`` is hollow, symmetric and non-negative, and holds the
    originally known entries (marked in ``known_mask``) bit-exact.
    ``final_objective`` is the relative mismatch between the final
    low-rank iterate and the known entries. ``mirror_ambiguous`` is set
    when the known entries fit the body and its mirror image equally (see
    ``_congruent_fill``); the completion then starts from the unmirrored
    body, and which of the two it returns is arbitrary.
    """

    completed: np.ndarray
    known_mask: np.ndarray
    iterations: int
    final_objective: float
    converged: bool
    mirror_ambiguous: bool = False


def _rank_truncate(matrix: np.ndarray, rank: int) -> np.ndarray:
    """Nearest (Frobenius) matrix of the given rank; EDMs are indefinite so
    eigenvalues are kept by magnitude."""
    evals, evecs = np.linalg.eigh(matrix)
    keep = np.argsort(np.abs(evals))[-rank:]
    return (evecs[:, keep] * evals[keep]) @ evecs[:, keep].T


def _congruent_fill_batch(anchors, body, cross_d, mask):
    """Congruent starts for a block of partial EDMs whose anchor and body
    blocks are the same.

    ``anchors`` (M x D) and ``body`` (K x D) are coordinates, each in a
    frame of its own, that realize the two fully known blocks; ``cross_d``
    and ``mask`` (B x M x K) hold each trial's anchor-to-node distances,
    observed where ``mask`` is True (the other entries are ignored).

    Each trial pins its nodes by trilateration in the anchor frame, pass
    by pass in node order: a node's references are its observed anchors,
    then the nodes pinned before it, in pin order, whose distances the body
    block supplies. A pin counts when the linearized system has rank D. A
    trial stops at the first pass in which it pins nothing. The body is
    then aligned onto the pins by a rigid motion, without reflection, to
    place the rest. The trials run in lockstep: per pass and node, those
    with the same reference count share one stacked solve, and every sum
    keeps the batching rule of ``geometry``, so a trial's result does not
    depend on the rest of the block.

    Returns B x K x D node positions in the anchor frame, the B x K mask of
    pinned nodes and, per trial, whether it pinned at least D nodes; the
    positions of a trial that did not are NaN.
    """
    b, m, k = mask.shape
    dim = anchors.shape[1]
    body_d = np.sqrt(squared_distances(body, body))
    n_obs = mask.sum(axis=1)
    # reference slots: the M anchors, then the pins in pin order
    refs = np.concatenate([np.broadcast_to(anchors, (b, m, dim)),
                           np.zeros((b, k, dim))], axis=1)
    pin_node = np.zeros((b, k), dtype=int)
    n_pins = np.zeros(b, dtype=int)
    pinned = np.zeros((b, k), dtype=bool)
    placed = np.zeros((b, k, dim))
    active = np.ones(b, dtype=bool)
    slots = np.arange(k)
    while active.any():
        progress = np.zeros(b, dtype=bool)
        for j in range(k):
            count = n_obs[:, j] + n_pins
            todo = np.flatnonzero(active & ~pinned[:, j] & (count >= dim + 1))
            if not todo.size:
                continue
            usable = np.concatenate([mask[todo, :, j], slots < n_pins[todo, None]],
                                    axis=1)
            order = np.argsort(~usable, axis=1, kind="stable")
            dists = np.concatenate([cross_d[todo, :, j], body_d[pin_node[todo], j]],
                                   axis=1)
            count = count[todo]
            for c in sorted(set(count.tolist())):
                group = count == c
                pick = order[group, :c]
                fix, rank = _apply_linear_factor(
                    _linear_factor(np.take_along_axis(refs[todo[group]],
                                                      pick[..., None], axis=1)),
                    np.take_along_axis(dists[group], pick, axis=1))
                new = todo[group][rank == dim]
                placed[new, j] = refs[new, m + n_pins[new]] = fix[rank == dim]
                pinned[new, j] = progress[new] = True
                pin_node[new, n_pins[new]] = j
                n_pins[new] += 1
        active &= progress & (n_pins < k)

    ok = n_pins >= dim
    align = np.flatnonzero(ok & (n_pins < k))
    if align.size:
        placed[align] = np.where(pinned[align, :, None], placed[align],
                                 _aligned_body(body, placed[align], pinned[align]))
    placed[~ok] = np.nan
    return placed, pinned, ok


def _aligned_body(body, placed, pinned):
    """``body`` moved by the rigid motion, without reflection, that best
    fits its pinned nodes onto their pins (B x K x D, mask B x K)."""
    rot, shift, _ = _weighted_kabsch(body, placed, pinned)
    return body @ np.swapaxes(rot, -1, -2) + shift[:, None, :]


def _congruent_fill(partial: PartialEdm):
    """Geometric starting guess for the unknown cross entries.

    Embeds the fully observed anchor and body blocks separately and runs
    the one-trial case of ``_congruent_fill_batch`` on them. The embedding
    leaves the body's handedness unknown, so the body and its mirror image
    are both aligned onto the pins, and the unpinned nodes follow the one
    whose anchor distances fit the observed cross distances better, the
    unmirrored one on a tie. When some node is unpinned, the pinned nodes
    span less than the space and no unpinned node has an observed cross
    distance, both fit the data equally: the unmirrored body is taken
    without a score and the fill is flagged mirror-ambiguous. Returns the
    squared EDM of the reconstruction and that flag, or (None, False) when
    the block structure is missing or too degenerate, in which case the
    caller falls back to a constant fill.
    """
    m = partial.num_anchors
    dim = partial.dim
    n = partial.size
    if m is None or m < dim + 1 or n - m < dim:
        return None, False
    try:
        anchors = edm_to_points(partial.values_sq[:m, :m], dim)
        body = edm_to_points(partial.values_sq[m:, m:], dim)
    except (NonEuclideanMatrixError, ValueError):
        return None, False
    cross_mask = partial.mask[:m, m:]
    cross_d = np.sqrt(np.where(cross_mask, partial.values_sq[:m, m:], 0.0))
    placed, pinned, ok = _congruent_fill_batch(anchors, body, cross_d[None],
                                               cross_mask[None])
    if not ok[0]:
        return None, False
    # the mirror image through the pinned nodes' hyperplane fits them as
    # well as the body does, so only a range of an unpinned node can choose
    free = ~pinned[0]
    ambiguous = bool(free.any() and not cross_mask[:, free].any()
                     and affine_basis(body[pinned[0]])[2] < dim)
    best = _aligned_body(body, placed, pinned)[0]
    if not ambiguous:
        mirror = _aligned_body(body * np.r_[np.ones(dim - 1), -1.0], placed, pinned)[0]
        fits = [np.sqrt(squared_distances(anchors, c)) - cross_d for c in (best, mirror)]
        scores = [np.where(cross_mask, f**2, 0.0).sum() for f in fits]
        if scores[1] < scores[0]:
            best = mirror
    points = np.vstack([anchors, np.where(pinned[0, :, None], placed[0], best)])
    return squared_distances(points, points), ambiguous


def complete_edm(partial: PartialEdm, rank_slack: int = 0) -> CompletionResult:
    """Fill the missing entries of a partial squared EDM.

    Alternates a rank-(dim+2+rank_slack) eigentruncation with restoring the
    known entries and projecting onto hollow symmetric non-negative
    matrices, until the relative Frobenius change drops below
    COMPLETION_TOL or COMPLETION_MAX_ITER is reached. ``rank_slack``, a
    non-negative count, loosens the rank cap for noisy data. Known entries
    are returned bit-exact.
    ``converged`` requires both a stalled iteration and a final objective
    at or below COMPLETION_STALL_THRESHOLD; inconsistent known entries
    leave the objective stuck above it. A matrix with missing entries but
    no observed off-diagonal one has nothing to complete from and raises
    ValueError.
    """
    if rank_slack < 0:
        raise ValueError("rank_slack must be non-negative")
    known = partial.mask.copy()
    target = np.where(known, partial.values_sq, 0.0)
    if known.all():
        return CompletionResult(partial.values_sq.copy(), known, 0, 0.0, True)

    rank = partial.dim + EDM_RANK_SURPLUS + int(rank_slack)
    known_norm = max(np.linalg.norm(target[known]), 1e-300)

    # Start the unknowns from a geometric reconstruction of the two blocks
    # when the layout allows it; otherwise fall back to the mean observed
    # cross-block entry (or any observed off-diagonal entry).
    guess, mirror_ambiguous = _congruent_fill(partial)
    if guess is not None:
        current = np.where(known, target, np.maximum(guess, 0.0))
    else:
        off_diag = known & ~np.eye(partial.size, dtype=bool)
        if not off_diag.any():
            raise ValueError("no off-diagonal entry is observed to complete from")
        if partial.num_anchors is not None:
            m = partial.num_anchors
            cross = np.zeros_like(known)
            cross[:m, m:] = True
            cross[m:, :m] = True
            pool = known & cross
            if not pool.any():
                pool = off_diag
        else:
            pool = off_diag
        fill = float(target[pool].mean())
        current = np.where(known, target, fill)

    iterations = 0
    stalled = False
    low_rank = current
    for iterations in range(1, COMPLETION_MAX_ITER + 1):
        low_rank = _rank_truncate(current, rank)
        step = np.where(known, target, low_rank)
        step = 0.5 * (step + step.T)
        step = np.maximum(step, 0.0)
        np.fill_diagonal(step, 0.0)
        change = np.linalg.norm(step - current) / max(np.linalg.norm(current), 1e-300)
        current = step
        if change < COMPLETION_TOL:
            stalled = True
            break
    objective = float(np.linalg.norm((low_rank - target)[known]) / known_norm)
    # re-imposing the constraints last keeps known entries bit-exact
    current = np.where(known, target, current)
    converged = stalled and objective <= COMPLETION_STALL_THRESHOLD
    return CompletionResult(current, known, iterations, objective, converged,
                            mirror_ambiguous)


def edm_to_points(edm, dim: int) -> np.ndarray:
    """Embed a complete squared EDM into coordinates by classical MDS.

    Double-centers the matrix and takes the top ``dim`` eigenpairs. The
    result reproduces the distances up to a rigid motion plus possible
    reflection. Top eigenvalues at or below the rounding floor (1e-12 of
    n times the largest entry) are zeroed, so points in a hyperplane embed
    exactly in it; mildly negative ones also warn. A strongly negative
    spectrum (most negative eigenvalue beyond 10% of the largest positive
    one) raises NonEuclideanMatrixError.
    """
    edm = np.asarray(edm, dtype=float)
    n = edm.shape[0]
    if edm.ndim != 2 or edm.shape[1] != n:
        raise ValueError("EDM must be square")
    if not np.all(np.isfinite(edm)):
        raise ValueError("EDM must be complete and finite")
    if np.abs(edm - edm.T).max() > 1e-9 * max(np.abs(edm).max(), 1.0):
        raise ValueError("EDM must be symmetric")
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")

    centering = np.eye(n) - np.full((n, n), 1.0 / n)
    gram = -0.5 * centering @ edm @ centering
    gram = 0.5 * (gram + gram.T)
    evals, evecs = np.linalg.eigh(gram)
    floor = max(1e-12, 1e-12 * n * max(np.abs(edm).max(), 1.0))
    most_negative = -evals[0]
    largest = max(evals[-1], 0.0)
    if most_negative > max(0.1 * largest, floor):
        raise NonEuclideanMatrixError(
            f"negative eigenvalue {-most_negative:.3e} too large for a "
            f"Euclidean matrix (largest positive {largest:.3e})")
    top = evals[-dim:][::-1]
    vecs = evecs[:, -dim:][:, ::-1]
    if top.min() < -floor:
        warnings.warn("clamping negative eigenvalues in MDS embedding; "
                      "input is slightly non-Euclidean", RuntimeWarning)
    top = np.where(top > floor, top, 0.0)
    return vecs * np.sqrt(top)
