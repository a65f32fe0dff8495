"""Medoid scoring: facility location objective, nearest-medoid assignment,
and the per-class oracle score.

All functions take a precomputed distance matrix so that inference loops,
which evaluate the objective many times per batch, never recompute
distances. Medoid sets are ordered index sequences; assignment labels are
positions within that sequence.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InvalidInputError


def _check_medoids(dist: np.ndarray, medoids: Sequence[int]) -> np.ndarray:
    s = np.asarray(medoids, dtype=np.intp)
    if s.size == 0:
        raise InvalidInputError("medoid set must be nonempty")
    if s.ndim != 1:
        raise InvalidInputError("medoid set must be a flat index sequence")
    m = dist.shape[0]
    if np.any(s < 0) or np.any(s >= m):
        raise InvalidInputError(f"medoid index out of range [0, {m})")
    if len(set(s.tolist())) != s.size:
        raise InvalidInputError("medoid indices must be distinct")
    return s


def facility_score(dist: np.ndarray, medoids: Sequence[int]) -> float:
    """Negated sum over all points of the distance to the nearest medoid.

    Always <= 0; equals 0 only when every point coincides with some medoid.
    """
    s = _check_medoids(dist, medoids)
    return -float(np.sum(np.min(dist[:, s], axis=1)))


def assign(dist: np.ndarray, medoids: Sequence[int]) -> np.ndarray:
    """Label each point with the position (within ``medoids``) of its nearest
    medoid. Ties go to the smallest position, so the result is deterministic.
    """
    s = _check_medoids(dist, medoids)
    return np.argmin(dist[:, s], axis=1)


def oracle_score(dist: np.ndarray, y_star: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Best achievable per-class medoid score under the ground-truth partition.

    For each class, picks the member that minimizes the summed distance to
    the rest of its class (ties to the smallest index) and accumulates the
    negated totals. Returns the summed score and the chosen medoid per class
    in class-id order; the medoids are needed again by the gradient.
    """
    y_star = np.asarray(y_star)
    num_classes = int(y_star.max()) + 1 if y_star.size else 0
    total = 0.0
    medoids = []
    for k in range(num_classes):
        members = np.flatnonzero(y_star == k)
        if members.size == 0:
            raise InvalidInputError(f"class {k} has no members")
        # column sums restricted to the class; argmin = best member medoid
        costs = dist[np.ix_(members, members)].sum(axis=0)
        best = int(np.argmin(costs))
        medoids.append(int(members[best]))
        total -= float(costs[best])
    return total, tuple(medoids)
