"""Clustering agreement and retrieval metrics."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# unused; perfbench/tests/test_perfbench.py expects the tracer to patch it here
from .embedding_ops import pairwise_distances  # noqa: F401
from .errors import InvalidInputError
from .facility import _check_dist


def _compact_ids(y: np.ndarray) -> np.ndarray:
    """Integer ids shifted to start at 0, so tables indexed by them need no
    empty leading rows. Ids spread over more values than ``y`` has entries
    are instead relabelled to 0..C-1 in sorted order, which keeps a table
    built from them small whatever the ids are (a joint count allocates one
    bin per possible id pair). Either way only empty table rows and columns
    are dropped, so every count, and every sum over nonzero cells in
    row-major order, keeps its bits."""
    y = np.asarray(y, dtype=np.intp)
    low = int(y.min())
    if int(y.max()) - low < y.size:
        return y - low
    return np.unique(y, return_inverse=True)[1].reshape(y.shape)


def _check_integer(y: np.ndarray) -> None:
    """Refuse float and bool labels rather than cast them: a cast truncates
    a float and reads a bool as 0 or 1."""
    if not np.issubdtype(y.dtype, np.integer):
        raise InvalidInputError(f"labels must be integer ids, got {y.dtype}")


def _contingency(y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """Joint counts of two nonempty integer label vectors of one length:
    one row per cluster id of ``y1`` and one column per id of ``y2``, both
    compacted. Float and bool labels are refused, not cast."""
    y1 = np.asarray(y1)
    y2 = np.asarray(y2)
    if y1.shape != y2.shape or y1.ndim != 1:
        raise InvalidInputError(f"label shape mismatch: {y1.shape} vs {y2.shape}")
    if y1.size == 0:
        raise InvalidInputError("labels must be nonempty")
    _check_integer(y1)
    _check_integer(y2)
    rows = _compact_ids(y1)
    cols = _compact_ids(y2)
    shape = (int(rows.max()) + 1, int(cols.max()) + 1)
    flat = np.bincount(rows * shape[1] + cols, minlength=shape[0] * shape[1])
    return flat.reshape(shape)


def _fraction_bits(m: int) -> int:
    """Binary places of ``_xlogx_table(m)``. No sum of x ln x over a
    partition of m points exceeds m ln m, so with these places such sums,
    and the difference of three of them, stay below 2**62."""
    return 61 - math.ceil(m * math.log(m)).bit_length()


def _xlogx_table(m: int) -> np.ndarray:
    """x ln x for x = 0..m in int64 fixed point, rounded to
    ``_fraction_bits(m)`` binary places. Sums over it are exact integers,
    whatever the order of their terms."""
    x = np.arange(m + 1)
    return np.rint(np.ldexp(x * np.log(np.maximum(x, 1)), _fraction_bits(m))).astype(np.int64)


def _nmis(
    s_joint: np.ndarray, s_sizes: np.ndarray, s_classes: int,
    cells: np.ndarray, clusters: np.ndarray, classes: int, m: int,
) -> np.ndarray:
    """NMI of labelings of m points against one truth, from the fixed-point
    sums S = sum of x ln x (``_xlogx_table(m)``) over the nonzero joint
    cells, the cluster sizes and the class sizes, and from the number of
    nonzero cells, clusters and classes.

    With p = count / m, MI = ln m + (S_joint - S_sizes - S_classes) / m
    and H = ln m - S / m, and NMI = MI / sqrt(H1 * H2) clipped to [0, 1].
    The integer counts, not the float entropies, decide the special cases:
    a labeling with as many nonzero cells as clusters and classes is the
    truth's partition (1.0), and otherwise one cluster or one class has
    zero entropy (0.0). In fixed point the H of one cluster is near 1e-16,
    not 0.
    """
    scale = m * 2.0 ** _fraction_bits(m)
    log_m = math.log(m)
    nmis = np.zeros(len(s_joint))
    scored = (clusters > 1) & (classes > 1)
    sizes = s_sizes[scored]
    mi = log_m + (s_joint[scored] - sizes - s_classes) / scale
    h = (log_m - sizes / scale) * (log_m - s_classes / scale)
    nmis[scored] = np.clip(mi / np.sqrt(h), 0.0, 1.0)
    nmis[(cells == clusters) & (cells == classes)] = 1.0
    return nmis


def _pair_nmi_args(y1: np.ndarray, y2: np.ndarray) -> tuple:
    """``_nmis``' arguments for the single labeling ``y1`` against the
    truth ``y2``, counted from their joint table."""
    joint = _contingency(y1, y2)
    m = int(joint.sum())
    xlogx = _xlogx_table(m)
    sizes = joint.sum(axis=1)
    classes = joint.sum(axis=0)
    return (
        np.array([xlogx[joint].sum()]), np.array([xlogx[sizes].sum()]), xlogx[classes].sum(),
        np.array([np.count_nonzero(joint)]), np.array([np.count_nonzero(sizes)]),
        np.count_nonzero(classes), m,
    )


def same_partition(y1: np.ndarray, y2: np.ndarray) -> bool:
    """True when the two label vectors induce the same partition of indices:
    as many nonzero joint cells as clusters on either side."""
    _, _, _, cells, clusters, classes, _ = _pair_nmi_args(y1, y2)
    return bool(cells[0] == clusters[0] == classes)


def nmi(y1: np.ndarray, y2: np.ndarray) -> float:
    """Normalized mutual information of two label vectors, in [0, 1].

    MI / sqrt(H1 * H2) with natural logs and pmfs estimated from counts,
    summed exactly in fixed point by ``_nmis``, so the value is permutation
    invariant and symmetric bit for bit. When either assignment has zero
    entropy the ratio is undefined; by convention the result is 1 when the
    two partitions are identical and 0 otherwise. Identical partitions give
    exactly 1.0.
    """
    return float(_nmis(*_pair_nmi_args(y1, y2))[0])


def margin(y: np.ndarray, y_star: np.ndarray) -> float:
    """Structured margin 1 - NMI: 0 for a perfect clustering (up to label
    permutation), 1 for statistically independent assignments. Exactly
    ``1.0 - nmi(y, y_star)``, and every ``SwapMargins`` row that
    materializes to ``y`` has its bits.
    """
    return 1.0 - nmi(y, y_star)


class SwapMargins:
    """``margin`` against one ``y_star`` of labelings that move some points
    of a base labeling into a cluster of their own, one the base leaves
    empty: a candidate medoid's labels. Holds what every call shares,
    ``_xlogx_table(m)`` and the class counts, so an inference routine
    builds one per call.

    Labels are inference's, not any integers: ``y_star`` holds classes
    0..K-1, each present, as ``facility._check_labels`` returns them, and
    base labels are positions in the ``inference`` label space, 0..K. So
    each base's joint table is (K + 1) x K, and no id is relabelled. A
    float or bool ``y_star`` is refused, not cast.

    One call scores rows of several groups, each with its own base:
    greedy's step is one group, and a refinement sweep passes one group
    per medoid position. A row's moves are the points its candidate takes,
    given as flat indices ``r * m + i``. NMI does not read the moved
    points' cluster id, so no position is passed. A call costs O(moves log
    moves + G * K * K + n * K) for n rows in G groups, beyond O(G * m) to
    count the bases; no n * K * K table is built.
    """

    def __init__(self, y_star: np.ndarray) -> None:
        y_star = np.asarray(y_star)
        _check_integer(y_star)
        self.truth = y_star.astype(np.intp, copy=False)
        classes = np.bincount(self.truth)
        self.num_classes = classes.size
        self.xlogx = _xlogx_table(self.truth.size)
        self.s_classes = self.xlogx[classes].sum()

    def __call__(self, base: np.ndarray, moves: np.ndarray, group: np.ndarray) -> np.ndarray:
        """``margin(labels_r, y_star)`` bit for bit, for every row r of
        ``group``: ``labels_r`` is ``base[g]``, g = ``group[r]``, with the
        points i of the moves ``r * m + i`` moved into a cluster of their
        own, under any id that no ``base[g]`` label is (inference's scored
        position). ``moves`` are distinct flat indices into an (n, m) array,
        in any order, such as ``np.flatnonzero`` of a bool mask of the
        points each row takes. ``base`` is (G, m); there is no position
        argument.

        Each group's joint count of its base labels is built once. A row
        changes it only where it moves points: they leave their (base
        cluster, class) cells and join their own cluster's, counted apart,
        so that cluster's id is never read. The moves are sorted by (row,
        cell), so each touched cell of a row is one run, and the joint sum of
        x ln x changes by the touched cells' terms alone. Cluster sizes and
        the joining cluster's class counts are (n, K + 1) and (n, K) tables.
        """
        n, m = group.size, self.truth.size
        num_classes, xlogx = self.num_classes, self.xlogx
        num_ids = num_classes + 1
        width = num_ids * num_classes
        cell = base * num_classes + self.truth
        # each group's cells numbered apart, so one count serves every group
        joint = np.bincount(
            (cell + width * np.arange(len(base))[:, None]).ravel(), minlength=len(base) * width
        ).reshape(-1, width)
        # each move's (row, cell) key, sorted: a row's moves out of one
        # cell are then one run
        rows = moves // m
        # the moved point's cell under its row's base: same point, group's row
        moved_cell = cell.ravel()[moves + (group[rows] - rows) * m]
        key = np.sort(rows * width + moved_cell)
        # the start of each run, and the end of the last
        edge = np.ones(key.size + 1, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=edge[1:-1])
        bounds = np.flatnonzero(edge)
        first = bounds[:-1]
        rows, moved_cell = np.divmod(key, width)
        run_rows = rows[first]
        before = joint[group[run_rows], moved_cell[first]]
        after = before - (bounds[1:] - first)
        # per row: the drop in the joint sum, the cluster sizes, and the
        # class counts of the joining cluster
        drop = np.zeros(n, dtype=np.int64)
        np.add.at(drop, run_rows, xlogx[before] - xlogx[after])
        moved_base, moved_class = np.divmod(moved_cell, num_classes)
        sizes = joint.reshape(-1, num_ids, num_classes).sum(axis=2)[group] - np.bincount(
            rows * num_ids + moved_base, minlength=n * num_ids
        ).reshape(n, num_ids)
        joins = np.bincount(rows * num_classes + moved_class, minlength=n * num_classes)
        joins = joins.reshape(n, num_classes)
        joined = joins.sum(axis=1)
        return 1.0 - _nmis(
            xlogx[joint].sum(axis=1)[group] - drop + xlogx[joins].sum(axis=1),
            xlogx[sizes].sum(axis=1) + xlogx[joined],
            self.s_classes,
            np.count_nonzero(joint, axis=1)[group]
            - np.bincount(run_rows[after == 0], minlength=n)
            + (joins > 0).sum(axis=1),
            (sizes > 0).sum(axis=1) + (joined > 0),
            num_classes,
            m,
        )


def recall_at_k(dist: np.ndarray, labels: np.ndarray, ks: Sequence[int]) -> dict[int, float]:
    """For each K, the fraction of points whose K nearest neighbors (self
    excluded, distance ties by smaller index) include at least one
    same-class point, read from the distance matrix ``dist``. A ``dist``
    that holds nan, where no ranking is defined, is refused with
    ``InvalidInputError``.

    Row i's K nearest others hold a classmate exactly when its nearest
    classmate j, by (distance, index), ranks among them: fewer than K other
    points come before j, by a smaller distance or by the same distance and
    a smaller index. So one masked ``argmin`` over a table of each point's
    classmates finds j, O(m * c) for a largest class of c points, and
    counts against j's distance rank it, O(m * m) with no sort; one rank
    serves every K. A point with no classmate hits at no K. ``dist`` is
    not written to.
    """
    dist = np.asarray(dist)
    labels = np.asarray(labels)
    m = labels.size
    if dist.shape != (m, m):
        raise InvalidInputError(f"distance matrix shape {dist.shape} does not match {m} labels")
    _check_dist(dist)
    for k in ks:
        if not 1 <= k < m:
            raise InvalidInputError(f"k must be in [1, {m}), got {k}")
    rows = np.arange(m)
    # each class's points in ascending order, padded with -1 to the largest
    # class's size: row i's candidates are its class's points but i
    _, cls, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    order = np.argsort(cls, kind="stable")
    members = np.full((sizes.size, sizes.max()), -1)
    members[cls[order], rows - (np.cumsum(sizes) - sizes)[cls[order]]] = order
    mates = members[cls]
    valid = (mates >= 0) & (mates != rows[:, None])
    mate_dist = np.where(valid, dist[rows[:, None], mates], np.inf)
    # the first minimum: the nearest classmate, ties to the smaller index
    pick = mate_dist.argmin(axis=1)
    at = mate_dist[rows, pick]
    # where that minimum is inf, ``argmin`` took the row's first inf, which
    # may be a pad or the point itself; the first classmate is the nearest
    far = np.flatnonzero(at == np.inf)
    pick[far] = valid[far].argmax(axis=1)
    near = mates[rows, pick]
    has_mate = valid[rows, pick]
    # the points nearer than the classmate, then those at its distance
    # with a smaller index; only rows where another point ties it need
    # the second count
    before = np.count_nonzero(dist < at[:, None], axis=1)
    tied = np.flatnonzero(np.count_nonzero(dist == at[:, None], axis=1) > 1)
    ahead = (dist[tied] == at[tied, None]) & (rows < near[tied, None])
    before[tied] += np.count_nonzero(ahead, axis=1)
    # less the point itself, where it comes before its classmate
    own = dist[rows, rows]
    before -= (own < at) | ((own == at) & (rows < near))
    return {int(k): int(np.count_nonzero(has_mate & (before < k))) / m for k in ks}
