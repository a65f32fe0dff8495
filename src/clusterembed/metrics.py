"""Clustering agreement and retrieval metrics."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .embedding_ops import EmbeddingBatch, pairwise_distances
from .errors import InvalidInputError


def contingency_table(y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """Co-occurrence count matrix: entry (i, j) counts points labeled i by
    ``y1`` and j by ``y2``. Row/column sums over m give the marginal pmfs."""
    y1 = np.asarray(y1, dtype=np.intp)
    y2 = np.asarray(y2, dtype=np.intp)
    c1 = int(y1.max()) + 1
    c2 = int(y2.max()) + 1
    flat = y1 * c2 + y2
    return np.bincount(flat, minlength=c1 * c2).reshape(c1, c2)


def _one_to_one(table: np.ndarray) -> bool:
    """True when every nonempty row and every nonempty column of the
    contingency table holds exactly one nonzero cell."""
    cells = np.count_nonzero(table)
    return cells == np.count_nonzero(table.any(axis=1)) == np.count_nonzero(table.any(axis=0))


def same_partition(y1: np.ndarray, y2: np.ndarray) -> bool:
    """True when the two label vectors induce the same partition of indices."""
    return _one_to_one(contingency_table(y1, y2))


def _entropy(counts: np.ndarray, m: int) -> float:
    p = counts[counts > 0] / m
    return -float(np.sum(p * np.log(p)))


def nmi(y1: np.ndarray, y2: np.ndarray) -> float:
    """Normalized mutual information of two label vectors, in [0, 1].

    MI / sqrt(H1 * H2) with natural logs and pmfs estimated from counts.
    Permutation invariant. When either assignment has zero entropy the ratio
    is undefined; by convention the result is 1 when the two partitions are
    identical and 0 otherwise. Identical partitions short-circuit to exactly
    1.0 so the identity holds without floating-point slack.
    """
    y1 = np.asarray(y1)
    y2 = np.asarray(y2)
    if y1.shape != y2.shape or y1.ndim != 1:
        raise InvalidInputError(f"label shape mismatch: {y1.shape} vs {y2.shape}")
    if y1.size == 0:
        raise InvalidInputError("labels must be nonempty")
    joint = contingency_table(y1, y2)
    if _one_to_one(joint):
        return 1.0
    m = y1.size
    row = joint.sum(axis=1)
    col = joint.sum(axis=0)
    h1 = _entropy(row, m)
    h2 = _entropy(col, m)
    if h1 == 0.0 or h2 == 0.0:
        return 0.0
    nz_i, nz_j = np.nonzero(joint)
    counts = joint[nz_i, nz_j]
    # p_ij log(p_ij / (p_i p_j)) with p = count / m throughout
    mi = float(np.sum(counts / m * np.log(counts * m / (row[nz_i] * col[nz_j]))))
    return min(max(mi / np.sqrt(h1 * h2), 0.0), 1.0)


def margin(y: np.ndarray, y_star: np.ndarray) -> float:
    """Structured margin 1 - NMI: 0 for a perfect clustering (up to label
    permutation), 1 for statistically independent assignments."""
    return 1.0 - nmi(y, y_star)


def recall_at_k(
    batch: EmbeddingBatch, labels: np.ndarray, ks: Sequence[int]
) -> dict[int, float]:
    """For each K, the fraction of points whose K nearest neighbors (self
    excluded, Euclidean, distance ties by smaller index) include at least one
    same-class point. One ranking serves every K."""
    labels = np.asarray(labels)
    m = batch.m
    for k in ks:
        if not 1 <= k < m:
            raise InvalidInputError(f"k must be in [1, {m}), got {k}")
    dist = pairwise_distances(batch)
    np.fill_diagonal(dist, np.inf)
    # stable sort keeps ties in index order
    neighbors = np.argsort(dist, axis=1, kind="stable")[:, : max(ks, default=0)]
    same = labels[neighbors] == labels[:, None]
    return {int(k): int(np.count_nonzero(same[:, :k].any(axis=1))) / m for k in ks}
