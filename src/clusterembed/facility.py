"""Medoid scoring: facility location objective, nearest-medoid assignment,
and the per-class oracle score, plus what the oracle and every inference
routine share: the one distance-matrix check, the one class-label check
and the one within-group cost.

All functions take a precomputed square distance matrix so that inference
loops, which evaluate the objective many times per batch, never recompute
distances. ``dist[s, i]`` is the cost of serving point i from medoid s:
every function here and in ``inference`` reads that orientation, so the
matrix need not be symmetric. Medoid sets are nonempty ordered sequences
of distinct integer indices in range (float and bool arrays are refused,
not cast); assignment labels are positions within that sequence.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InvalidInputError


def _check_medoids(dist: np.ndarray, medoids: Sequence[int]) -> np.ndarray:
    s = np.asarray(medoids)
    if s.size == 0:
        raise InvalidInputError("medoid set must be nonempty")
    # refused rather than cast: a float index would be truncated and a
    # bool read as 0 or 1
    if s.ndim != 1 or not np.issubdtype(s.dtype, np.integer):
        raise InvalidInputError(
            f"medoid set must be a flat sequence of integer indices, got {s.dtype}{s.shape}"
        )
    m = dist.shape[0]
    if np.any(s < 0) or np.any(s >= m):
        raise InvalidInputError(f"medoid index out of range [0, {m})")
    if len(set(s.tolist())) != s.size:
        raise InvalidInputError("medoid indices must be distinct")
    return s


def _check_dist(dist: np.ndarray) -> float:
    """Reject a distance matrix that is not square, is empty or holds nan,
    on which ``assign``'s ``argmin`` and inference's serving rule would
    disagree and a maximum over scores would depend on their order.
    Returns its least entry."""
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1] or dist.size == 0:
        raise InvalidInputError(f"distance matrix must be square and nonempty, got {dist.shape}")
    # one pass, and no m x m temporary: the minimum is nan if any entry is
    least = float(dist.min())
    if np.isnan(least):
        raise InvalidInputError("distance matrix holds nan")
    return least


def _check_labels(y_star: np.ndarray, m: int) -> tuple[np.ndarray, int]:
    """``y_star`` as an array and its number of classes K. It must hold one
    class id per point, and the ids must be 0..K-1, each present."""
    y_star = np.asarray(y_star)
    ok = m > 0 and y_star.shape == (m,) and np.issubdtype(y_star.dtype, np.integer)
    # K <= m when every id is present, which bounds the count
    if not (ok and 0 <= y_star.min() and y_star.max() < m and np.bincount(y_star).all()):
        raise InvalidInputError(
            f"need class ids 0..K-1, each present, for {m} points; got {y_star.dtype}{y_star.shape}"
        )
    return y_star, int(y_star.max()) + 1


def facility_score(dist: np.ndarray, medoids: Sequence[int]) -> float:
    """Negated sum over all points of the cost ``dist[s, i]`` of serving
    point i from its nearest medoid s.

    On a distance matrix this is <= 0, and 0 only when every point
    coincides with some medoid.
    """
    s = _check_medoids(dist, medoids)
    return -float(np.sum(np.min(dist[s], axis=0)))


def assign(dist: np.ndarray, medoids: Sequence[int]) -> np.ndarray:
    """Label each point i with the position (within ``medoids``) of the
    medoid s of least ``dist[s, i]``. Ties go to the smallest position, so
    the result is deterministic.
    """
    s = _check_medoids(dist, medoids)
    return np.argmin(dist[s], axis=0)


def _group_costs(
    dist: np.ndarray, cands: np.ndarray, groups: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """For each candidate ``cands[r]``, its summed cost ``dist[c, i]`` of
    serving the points i with ``labels[i] == groups[r]``: the within-group
    cost by which the oracle and refinement's cluster pool pick medoids.
    One ``bincount`` adds each group's points one by one in ascending
    order, starting from 0.0, as numpy's column sum
    ``dist.T[np.ix_(labels == groups[r], cands)].sum(axis=0)`` does, so
    every sum has its bits, signed zeros included. O(pairs), the sum over
    candidates of their group's size."""
    sizes = np.bincount(labels, minlength=int(groups.max()) + 1)
    # each group's points, ascending, from ``starts``
    members = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    size = sizes[groups]
    pair = np.repeat(np.arange(cands.size), size)
    # each pair's point: its group's start plus its rank among its pairs
    first = np.repeat(starts[groups] - (np.cumsum(size) - size), size)
    point = members[first + np.arange(pair.size)]
    # dist[cand, point] through the flat index of the row-major matrix
    cost = np.take(dist, np.repeat(cands * len(dist), size) + point)
    return np.bincount(pair, weights=cost, minlength=cands.size)


def oracle_score(dist: np.ndarray, y_star: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Best achievable per-class medoid score under the ground-truth partition.

    For each class, picks the member j that minimizes the summed cost
    ``dist[j, i]`` of serving its class (``_group_costs``; ties to the
    smallest index) and accumulates the negated totals in class order.
    Returns the summed score and the chosen medoid per class in class-id
    order; the medoids are needed again by the gradient.
    ``y_star`` must hold one integer class id per point, dense 0..K-1 with
    each id present, and ``dist`` must be square, nonempty and free of nan:
    ``_check_labels`` and ``_check_dist``, the checks inference makes, raise
    ``InvalidInputError`` for anything else.
    """
    _check_dist(dist)
    y_star, num_classes = _check_labels(y_star, len(dist))
    costs = _group_costs(dist, np.arange(len(dist)), y_star, y_star)
    order = np.lexsort((costs, y_star))
    medoids = order[np.searchsorted(y_star[order], np.arange(num_classes))]
    # a running total, where ``np.sum`` would add pairwise; ``0.0 -`` gives
    # a zero total the sign that subtracting each cost does
    total = float(0.0 - np.add.accumulate(costs[medoids])[-1])
    return total, tuple(medoids.tolist())
