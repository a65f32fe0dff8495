"""Clustering agreement and retrieval metrics."""

from __future__ import annotations

from typing import Sequence

import numpy as np

# unused; perfbench/tests/test_perfbench.py expects the tracer to patch it here
from .embedding_ops import pairwise_distances  # noqa: F401
from .errors import InvalidInputError


def _compact_ids(y: np.ndarray, limit: int) -> np.ndarray:
    """Integer ids shifted to start at 0, so tables indexed by them need no
    empty leading rows. Ids spread over more than ``limit`` values are
    instead relabelled to 0..C-1 in sorted order, which keeps a table built
    from them small whatever the ids are (``_batched_nmi`` allocates one
    bin per possible id pair). Either way only empty table rows and
    columns are dropped, so every count, and every sum over nonzero cells
    in row-major order, keeps its bits."""
    y = np.asarray(y, dtype=np.intp)
    low = int(y.min())
    if int(y.max()) - low < limit:
        return y - low
    return np.unique(y, return_inverse=True)[1].reshape(y.shape)


def _row_sums(values: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Sum of ``values`` per row for rows 0..n-1, where ``rows`` (sorted)
    names the row of each value; a row with no values sums to 0.0.

    Each sum has the bits ``np.sum`` gives over that row's values alone.
    ``np.sum`` adds a row pairwise, starting from its 0.0 identity, while
    ``np.add.reduceat`` adds a slice pairwise after its first element, so a
    0.0 put at the start of each slice makes the two run the same additions.
    This rests on numpy's pairwise summation, which the tests compare with
    ``np.sum`` across its unrolled and blocked lengths.
    """
    first = np.searchsorted(rows, np.arange(n))
    padded = np.insert(values, first, 0.0)
    return np.add.reduceat(padded, first + np.arange(n))


def _label_pair(y1: np.ndarray, y2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two label vectors as arrays, which must be 1-D of one length."""
    y1 = np.asarray(y1)
    y2 = np.asarray(y2)
    if y1.shape != y2.shape or y1.ndim != 1:
        raise InvalidInputError(f"label shape mismatch: {y1.shape} vs {y2.shape}")
    return y1, y2


def _batched_nmi(labels: np.ndarray, y_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """NMI of every row of an (n, m) label matrix with ``y_star``; see
    ``nmi``. Also returns, per row, whether it induces the same partition
    as ``y_star``: every nonempty cluster and every class then hold one
    nonzero cell of the joint count.

    One ``bincount`` counts the joint (row, label, true class) cells, and
    the work after it touches only the nonzero cells, so one call costs
    O(n * m) array work plus a table of n * C * K bins for C label ids and
    K classes. H(y_star) is computed once. The MI and row entropy terms of
    a row are summed by ``_row_sums`` in the order ``np.sum`` sums one
    row's terms, so every row has the bits of a one-row call.
    """
    labels = np.asarray(labels)
    y_star = np.asarray(y_star)
    if labels.ndim != 2 or y_star.ndim != 1 or labels.shape[1] != y_star.size:
        raise InvalidInputError(f"label shape mismatch: {labels.shape} vs {y_star.shape}")
    n, m = labels.shape
    if m == 0:
        raise InvalidInputError("labels must be nonempty")
    if n == 0:
        return np.zeros(0), np.zeros(0, dtype=bool)
    truth = _compact_ids(y_star, m)
    num_classes = int(truth.max()) + 1
    rows = _compact_ids(labels, m)
    num_ids = int(rows.max()) + 1
    # cluster (r, c) of row r is id r * num_ids + c
    clusters = rows + num_ids * np.arange(n)[:, None]
    cell_ids = (clusters * num_classes + truth).ravel()
    joint = np.bincount(cell_ids, minlength=n * num_ids * num_classes)
    cells = np.flatnonzero(joint > 0)
    counts = joint[cells]
    cell_cluster, cell_class = np.divmod(cells, num_classes)
    cell_row = cell_cluster // num_ids
    sizes = np.bincount(clusters.ravel(), minlength=n * num_ids)
    col = np.bincount(truth, minlength=num_classes)
    # p_ij log(p_ij / (p_i p_j)) with p = count / m throughout
    terms = counts / m * np.log(counts * m / (sizes[cell_cluster] * col[cell_class]))
    mi = _row_sums(terms, cell_row, n)
    nonempty = np.flatnonzero(sizes > 0)
    p = sizes[nonempty] / m
    nonempty_row = nonempty // num_ids
    h_rows = -_row_sums(p * np.log(p), nonempty_row, n)
    q = col[col > 0] / m
    h_star = -np.sum(q * np.log(q))
    num_cells = np.bincount(cell_row, minlength=n)
    same = (num_cells == np.bincount(nonempty_row, minlength=n)) & (
        num_cells == np.count_nonzero(col)
    )
    scored = (h_rows != 0.0) & (h_star != 0.0)
    nmi_rows = np.zeros(n)
    nmi_rows[scored] = np.clip(mi[scored] / np.sqrt(h_rows[scored] * h_star), 0.0, 1.0)
    nmi_rows[same] = 1.0
    return nmi_rows, same


def same_partition(y1: np.ndarray, y2: np.ndarray) -> bool:
    """True when the two label vectors induce the same partition of indices."""
    y1, y2 = _label_pair(y1, y2)
    return bool(_batched_nmi(y1[None], y2)[1][0])


def nmi(y1: np.ndarray, y2: np.ndarray) -> float:
    """Normalized mutual information of two label vectors, in [0, 1].

    MI / sqrt(H1 * H2) with natural logs and pmfs estimated from counts.
    Permutation invariant. When either assignment has zero entropy the ratio
    is undefined; by convention the result is 1 when the two partitions are
    identical and 0 otherwise. Identical partitions short-circuit to exactly
    1.0 so the identity holds without floating-point slack. This is the
    one-row case of ``batched_margin``'s computation, so the two agree
    exactly.
    """
    y1, y2 = _label_pair(y1, y2)
    return float(_batched_nmi(y1[None], y2)[0][0])


def margin(y: np.ndarray, y_star: np.ndarray) -> float:
    """Structured margin 1 - NMI: 0 for a perfect clustering (up to label
    permutation), 1 for statistically independent assignments."""
    return 1.0 - nmi(y, y_star)


def batched_margin(labels: np.ndarray, y_star: np.ndarray) -> np.ndarray:
    """``margin(row, y_star)`` for every row of an (n, m) label matrix, in
    one vectorized call whose rows equal the scalar ``margin`` bit for bit.

    A row that induces the same partition as ``y_star`` scores exactly 0.0,
    and a row or ``y_star`` with zero entropy scores 1.0 otherwise, as in
    ``margin``.
    """
    return 1.0 - _batched_nmi(labels, y_star)[0]


def recall_at_k(dist: np.ndarray, labels: np.ndarray, ks: Sequence[int]) -> dict[int, float]:
    """For each K, the fraction of points whose K nearest neighbors (self
    excluded, distance ties by smaller index) include at least one
    same-class point, read from the distance matrix ``dist``.

    One ranking serves every K. Only the points at or below each row's
    ``max(ks)``-th smallest distance to another point are ranked, by
    (distance, index); ``dist`` is not written to.
    """
    dist = np.asarray(dist)
    labels = np.asarray(labels)
    m = labels.size
    if dist.shape != (m, m):
        raise InvalidInputError(f"distance matrix shape {dist.shape} does not match {m} labels")
    for k in ks:
        if not 1 <= k < m:
            raise InvalidInputError(f"k must be in [1, {m}), got {k}")
    top = max(ks, default=0)
    # at least ``top`` of a row's ``top + 1`` smallest entries are other
    # points, so its ``top`` nearest others lie at or below the largest of them
    kth = np.partition(dist, top, axis=1)[:, top]
    near = dist <= kth[:, None]
    np.fill_diagonal(near, False)
    rows, cols = np.nonzero(near)
    order = np.lexsort((cols, dist[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(m))
    neighbors = cols[order[starts[:, None] + np.arange(top)]]
    same = labels[neighbors] == labels[:, None]
    return {int(k): int(np.count_nonzero(same[:, :k].any(axis=1))) / m for k in ks}
