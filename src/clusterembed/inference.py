"""Loss-augmented inference over medoid sets.

Over all medoid sets S of size C, one medoid per class, maximize

    A(S) = -sum_i D[S[a_i], i] + gamma * margin(a, y_star),  a = assign(D, S)

minus each point's cost from the medoid ``assign`` labels it with, plus
gamma times the margin of those labels. The margin rewards clusterings
that disagree with the ground truth, so the maximizer is the
most-violating assignment. Exact maximization is NP-hard:
``greedy_inference`` builds a set by best marginal benefit,
``pam_refine`` improves it by medoid/point exchanges, and ``infer`` runs
one after the other. ``brute_force_inference`` solves small instances
exactly for tests. Everything is sequential and deterministic.

The matrix. ``D[s, i]`` is the cost of serving point i from medoid s, as
in ``facility``, so a candidate is scored from its contiguous row and D
need not be symmetric, only square, nonempty and free of nan. ``_serves``
is the one serving rule, and a candidate's facility part is the one row
sum ``_facility_rows``, so one summation order decides every tie between
medoids.

Labels. Greedy and refinement share one label space: medoid positions
0..C-1, and C for no medoid, at cost inf. Greedy starts every point at
C, and ``_two_nearest`` appends it as a row, so no base label passed to
``SwapMargins`` is the position being scored: the points a candidate
moves form a cluster of their own, and no position is passed.

Greedy (m points) makes C steps and keeps each point's nearest chosen
medoid as running state, O(m) per step. Its one buffer holds a block of
max(1, ``GREEDY_BLOCK_ENTRIES`` // m) candidate rows, at most m: O(block
* m) extra memory. ``_facility_rows`` sums each row alone, so the block
size changes no bit. A step picks among the candidates not yet chosen,
in one of two ways.

- Full: the facility part of every row, chosen ones included (they take
  no point), a block of rows at a time through the buffer, so O(m * m)
  time in O(block * m) extra memory, plus the margins when gamma != 0; the
  pick is the first maximum, or the first nan, as ``np.argmax`` takes
  it. At step 0 no medoid serves a point, so each row is summed as it
  is. Steps 0 and 1 are full, and so is every step with the margin (A is
  then not submodular) or on a matrix with a negative entry.
- Lazy blocks (Minoux 1978), every other step. At gamma = 0 on a
  nonnegative matrix A is monotone submodular, so a candidate's gain
  A(S + {i}) - A(S) from the step that last scored it bounds its gain
  now; step 1 records the first gains, and a gain is kept only while
  A(S) is finite. The highest bound is scored first. The slack is
  ``LAZY_SLACK`` times the first step's |A(S)|, the largest any step
  reaches, so it is far above a row sum's rounding. The candidates whose
  A(S) + bound reaches the first score less the slack stay live; they
  alone are sorted by decreasing bound (stable, so equal bounds keep
  index order), gathered into the buffer a block at a time and scored
  while the next A(S) + bound reaches the best score less the slack: O(m)
  for the bounds, O(L log L) for L live candidates and O(m) per scored
  row.
  Every candidate that could tie the best is scored, by the same row
  sum, and the pick is the smallest index with the best score, so
  medoids and traces are those of full steps.

With the margin, greedy carries its moves, the (candidate, point) pairs
where the candidate would take the point, as flat indices
``candidate * m + point``. At step 0 every candidate takes every point,
so the step's margins are one ``margin`` of one cluster. After it a
candidate serves a point only by being strictly nearer than the point's
nearest chosen medoid, which only gets nearer: the moves are built once,
from ``_serves`` over the whole matrix, and each later step keeps those
that still serve, O(moves).

Refinement scores a sweep in calls. A call (``_next_call``) takes the
positions from where the sweep stands, whole, until their rows reach m,
and scores them together against the medoid set as it stands. The first
of them whose best candidate is not its medoid installs that candidate,
and the next call starts right after it; when none swaps, it starts after
the call's last position. Positions are still decided one at a time, in
order, against the current set, so medoids, traces and ties are those of
scoring one position at a time. The cluster pool has at most m
candidates in all, so a call holds every position left, and a sweep that
installs s swaps makes at most s + 1 calls. The whole-batch pool has
m - C + 1 candidates per position, so for C > 1 a call holds two
positions, or the last alone. A call's scores are built from one piece
per fact:

- the facility part. The cluster pool takes a candidate's cost of
  serving its position's cluster under the labels the sweep starts from,
  summed once per sweep by ``facility._group_costs``, O(sum of squared
  cluster sizes); at gamma = 0 that is the whole score, and no row is
  read. The whole-batch pool takes ``_facility_rows`` of the candidates'
  rows against each point's nearest other medoid.
- each point's nearest medoid at another position than the scored one,
  ``_others``: level 1 of the ``_two_nearest`` table where level 0 is
  that position, else level 0. The table, O(m * C log C), is built when
  a call first needs it and dropped when a swap is installed (few
  positions install one); then O(m) per position and per candidate row.
- the margins, ``_swap_margins``: an (n, m) ``_serves`` mask of the
  points each candidate row takes from those nearest others, then one
  ``SwapMargins`` call.

Margins. A greedy step after step 0, and a refinement call, that the
facility part does not decide (below) score their margins in one
``SwapMargins`` call, one row group per position, each with its base
labels. It counts only the points a candidate moves: O(moves log moves +
G * C * C + n * C) for n rows in G groups, beyond O(G * m) for the bases.
Each row has the bits of the scalar ``margin`` of its labels, exactly
1 - ``nmi``, so maxima and ties are the scalar ones.

Decided steps and calls. A margin lies in [0, 1], so where ``_rivals``
holds no candidate but the first maximum of the facility part, no margin
can change the pick. Such a greedy step is decided, O(n) for its
n candidates: it picks that maximum with no ``SwapMargins`` call and
keeps its position, base labels, the pick's moves (the ``_serves`` mask
that updates the labels) and facility part, O(m). After the last step
one ``SwapMargins`` call, one single-row group per decided step, adds
their margins to the trace: O(moves + D * C * C + D * m) for D decided
steps. A refinement call whose positions up to the first that swaps are
all decided installs from the facility part alone, O(n) for n rows:
no ``SwapMargins`` call, and in the cluster pool no ``_two_nearest``;
the whole-batch pool still reads it for the facility part, but builds no
(n, m) mask of moves. A nan maximum, or another candidate within gamma
of it, leaves a step or call undecided, scored as above.

Refinement starts from the labels and A(S) of its seed and, after each
sweep that changes the set, makes one ``label_medoids`` call (one
``assign``, and one ``margin`` if gamma != 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from itertools import combinations
from typing import Literal, Sequence, get_args

import numpy as np

from .errors import InstanceTooLargeError, InvalidInputError
from .facility import _check_dist, _check_labels, _group_costs, assign
from .metrics import SwapMargins, margin

# Exhaustive search refuses instances with more candidate subsets than this.
BRUTE_FORCE_CAP = 10**6

# Costs in greedy's block of candidate rows: at m <= 256 a block is the whole
# matrix, so a training-size full step stays one row sum.
GREEDY_BLOCK_ENTRIES = 2**16
# Lazy greedy's slack as a share of |A|.
LAZY_SLACK = 1e-9

# Refinement candidate pools: members of the medoid's cluster, or the whole
# batch; each position also keeps its own medoid as a candidate.
CandidatePool = Literal["cluster", "all"]


@dataclass
class InferenceResult:
    """Outcome of one inference routine.

    ``objective`` is A(S) for the returned medoids; ``trace`` records the
    objective after each iteration of the routine that produced the result
    (greedy: each added medoid; refinement: each sweep; ``label_medoids``: once).
    """

    medoids: tuple[int, ...]
    assignment: np.ndarray
    objective: float
    trace: list[float] = field(default_factory=list)


def label_medoids(
    dist: np.ndarray, medoids: Sequence[int], y_star: np.ndarray, gamma: float
) -> InferenceResult:
    """Label a medoid set with one ``assign`` call and score its A(S):
    minus the sum, by one ``np.sum``, of each point's cost ``dist[s, i]``
    from the medoid s that ``assign`` labels it with, plus gamma times the
    margin of those labels. At gamma = 0 this is the facility total.
    """
    labels = assign(dist, medoids)
    served = dist[np.asarray(medoids)[labels], np.arange(len(dist))]
    score = -float(np.sum(served))
    if gamma != 0.0:
        score += gamma * margin(labels, y_star)
    return InferenceResult(
        medoids=tuple(int(i) for i in medoids), assignment=labels, objective=score, trace=[score]
    )


def _serves(cost: np.ndarray, pos: int, other_cost: np.ndarray, other_pos: np.ndarray) -> np.ndarray:
    """The serving rule of ``assign``: where a medoid at position ``pos``
    serving at ``cost`` beats one at ``other_pos`` serving at
    ``other_cost``. The nearer medoid serves, ties to the smaller position."""
    return (cost < other_cost) | ((cost == other_cost) & (pos < other_pos))


def _two_nearest(dist: np.ndarray, medoids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest and second-nearest medoid in ``_serves`` order:
    (2, m) costs and positions, in the module's label space."""
    rows = np.vstack([dist[medoids], np.full(len(dist), np.inf)])
    at = np.argsort(rows, axis=0, kind="stable")[:2]
    return np.take_along_axis(rows, at, axis=0), at


def _facility_rows(rows: np.ndarray, near: np.ndarray | None, out: np.ndarray) -> np.ndarray:
    """The facility part of A(S) for each candidate row of ``rows``, the
    candidate's cost of serving each point: minus the row's sum of
    min(cost, ``near``), the point's cost from the other medoids.
    The first rows of ``out`` take the minima; they may be ``rows``. Each
    row is summed alone, in the same order whatever rows come with it.
    With no ``near``, no other medoid serves any point: min(cost, inf) is
    the cost, so the rows are summed as they are, in the same order, and
    ``out`` is not written."""
    if near is None:
        # a C-ordered copy only of a matrix that is not one: another layout
        # would add each row in another order
        return -np.ascontiguousarray(rows).sum(axis=1)
    return -np.minimum(rows, near, out=out[: len(rows)]).sum(axis=1)


def _others(nearest: tuple[np.ndarray, np.ndarray], ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest medoid at a position other than each of ``ks``,
    read from ``nearest`` (``_two_nearest``): (len(ks), m) costs and
    positions, level 1 of the table where level 0 is that position, else
    level 0."""
    own = nearest[1][0] == ks[:, None]
    return tuple(np.where(own, level[1], level[0]) for level in nearest)


def _swap_margins(
    dist: np.ndarray, margins: SwapMargins, nearest: tuple[np.ndarray, np.ndarray],
    cands: np.ndarray, group: np.ndarray, ks: np.ndarray,
) -> np.ndarray:
    """The margin of each medoid set that puts candidate ``cands[r]`` at
    position ``ks[g]``, g = ``group[r]``, of the set whose two nearest
    medoids of each point are ``nearest``, all groups in one call: the
    candidate takes the points it serves (``_serves``) against their
    nearest medoid at another position (``_others``), which keeps the
    rest."""
    other_min, other_pos = _others(nearest, ks)
    takes = _serves(dist[cands], ks[group, None], other_min[group], other_pos[group])
    return margins(other_pos, np.flatnonzero(takes), group)


def _rivals(facility: np.ndarray, top: np.ndarray | float, gamma: float) -> np.ndarray:
    """The candidates whose margin could lift their score to ``top``, the
    greatest facility part of their group (nan if any is nan): where
    fl(F_c + gamma) >= ``top``. The group's first maximum is one of them
    unless it is nan. Where it is the only one, the margin cannot change
    the pick: fl(gamma * M) lies in [0, gamma] for a margin M in [0, 1]
    and rounding is monotone, so every other score fl(F_c + fl(gamma *
    M_c)) <= fl(F_c + gamma) < ``top`` <= the maximum's own score."""
    return facility + gamma >= top


def _group_argmax(scores: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Per group of consecutive ``scores`` (``group`` ascending from 0,
    each group present), the index of the group's maximum as ``np.argmax``
    takes it: the first of equal maxima, or the first nan."""
    starts = np.searchsorted(group, np.arange(group[-1] + 1))
    top = np.maximum.reduceat(scores, starts)
    hit = (scores == top[group]) | np.isnan(scores)
    return np.minimum.reduceat(np.where(hit, np.arange(scores.size), scores.size), starts)


def greedy_inference(dist: np.ndarray, y_star: np.ndarray, gamma: float) -> InferenceResult:
    """Build a medoid set of size |classes| by repeatedly adding the point
    with the best marginal benefit A(S + {i}) - A(S).

    The first step maximizes A({i}) directly (A of the empty set is an
    arbitrary constant that cancels out of the argmax). Ties go to the
    smallest candidate index.
    """
    least, y_star, num_classes = _check_args(dist, y_star, gamma)
    m = dist.shape[0]

    chosen: list[int] = []
    trace: list[float] = []
    # each point's nearest chosen medoid: distance and position, from none
    best_dist = np.full(m, np.inf)
    best_pos = np.full(m, num_classes, dtype=np.intp)
    free = np.ones(m, dtype=bool)
    # a block of candidates' costs of serving each point with the chosen
    # medoids, the one buffer a step writes rows to
    block = max(1, GREEDY_BLOCK_ENTRIES // m)
    buffer = np.empty((min(block, m), m))
    # each point's gain A(S + {i}) - A(S) when last scored; inf until then
    gain = np.full(m, np.inf)
    lazy_ok = gamma == 0.0 and least >= 0
    if gamma != 0.0:
        margins = SwapMargins(y_star)
        # every row's group, and at step 0 every point's label: one cluster
        zeros = np.zeros(m, dtype=np.intp)

    def gathered(idx: Sequence[int]) -> np.ndarray:
        # the facility part of candidate rows gathered into the buffer; the
        # indices are valid, and "clip" writes to ``out`` where the default
        # "raise" would fill a copy first
        rows = np.take(dist, idx, axis=0, out=buffer[: len(idx)], mode="clip")
        return _facility_rows(rows, best_dist, rows)

    # the steps the facility part decides: position, base labels, the
    # pick's moves and its facility part
    deferred = []
    for step in range(num_classes):
        cands = np.flatnonzero(free)
        decided = False
        # a gain taken from -inf is inf or nan and bounds nothing
        bounded = lazy_ok and step > 0 and bool(np.isfinite(trace[-1]))
        if bounded and step > 1:
            first = cands[np.argmax(gain[cands])]
            blocks = [gathered([first])]
            top = float(blocks[0][0])
            live = cands[(trace[-1] + gain[cands] >= top - slack) & (cands != first)]
            order = np.append(first, live[np.argsort(-gain[live], kind="stable")])
            hi = 1
            while hi < order.size and trace[-1] + gain[order[hi]] >= top - slack:
                blocks.append(gathered(order[hi : hi + block]))
                top = max(top, float(blocks[-1].max()))
                hi += block
            cands, scores = order[:hi], np.concatenate(blocks)
            pick = int(cands[scores == top].min())
        else:
            near = best_dist if step else None
            scores = np.concatenate(
                [_facility_rows(dist[lo : lo + block], near, buffer) for lo in range(0, m, block)]
            )
            if gamma != 0.0 and step == 0:
                # every candidate takes every point
                scores += gamma * margin(zeros, y_star)
            scores = scores[cands]
            if gamma != 0.0 and step > 0:
                decided = np.count_nonzero(_rivals(scores, scores.max(), gamma)) == 1
                if not decided:
                    scores += gamma * margins(best_pos[None], moves, zeros)[cands]
            best = int(np.argmax(scores))
            pick, top = int(cands[best]), float(scores[best])
        if bounded:
            gain[cands] = scores - trace[-1]
        chosen.append(pick)
        trace.append(top)
        slack = LAZY_SLACK * abs(trace[0])
        free[pick] = False
        takes = _serves(dist[pick], step, best_dist, best_pos)
        if decided:
            # A(S) is the facility part plus the margin of these labels
            deferred.append((step, best_pos.copy(), np.flatnonzero(takes), top))
        best_pos[takes] = step
        np.minimum(best_dist, dist[pick], out=best_dist)
        if gamma != 0.0 and step + 1 < num_classes:
            # the moves of position step + 1, which only shrink after step 0
            if step == 0:
                moves = np.flatnonzero(_serves(dist, 1, best_dist, best_pos))
            else:
                point = moves % m
                keep = _serves(np.take(dist, moves), step + 1, best_dist[point], best_pos[point])
                moves = moves[keep]

    if deferred:
        # the decided steps' margins in one call, one group per step
        steps, bases, takes, tops = zip(*deferred)
        moves = np.concatenate([g * m + t for g, t in enumerate(takes)])
        lifts = gamma * margins(np.array(bases), moves, np.arange(len(steps)))
        for step, value in zip(steps, np.array(tops) + lifts):
            trace[step] = float(value)
    # the running state is ``assign``'s labels and the last score is A(S)
    return InferenceResult(
        medoids=tuple(chosen), assignment=best_pos, objective=trace[-1], trace=trace
    )


def _next_call(
    assignment: np.ndarray, medoids: np.ndarray, first: int, candidate_pool: CandidatePool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A sweep's next scoring call, from position ``first`` against
    ``medoids`` as they stand: (positions, the group of each candidate,
    candidates), grouped by position and ascending within one. The call
    takes whole positions until their rows reach m. Candidates follow
    ``pam_refine``'s rule, with the cluster pool's clusters read from
    ``assignment``, and a position whose only candidate is its own medoid
    is left out, so an empty call leaves nothing in the sweep to score."""
    ks = np.arange(first, len(medoids))
    if candidate_pool == "cluster":
        is_cand = assignment == ks[:, None]
    else:
        is_cand = np.ones((ks.size, assignment.size), dtype=bool)
    is_cand[:, medoids] = False
    is_cand[np.arange(ks.size), medoids[first:]] = True
    counts = is_cand.sum(axis=1)
    scored = np.flatnonzero(counts > 1)
    n = int(np.searchsorted(np.cumsum(counts[scored]), assignment.size)) + 1
    group, cands = np.nonzero(is_cand[scored[:n]])
    return ks[scored[:n]], group, cands


def _check_args(dist: np.ndarray, y_star: np.ndarray, gamma: float) -> tuple[float, np.ndarray, int]:
    """The input checks of every inference routine: ``_check_dist``'s, with
    the least entry it returns, ``_check_labels``', with the labels and
    their number of classes, and a finite, nonnegative gamma."""
    least = _check_dist(dist)
    y_star, num_classes = _check_labels(y_star, len(dist))
    # a nan gamma would make every score nan, and the loss's max(0, nan) 0
    if not (gamma >= 0.0 and np.isfinite(gamma)):
        raise InvalidInputError(f"gamma must be finite and nonnegative, got {gamma}")
    return least, y_star, num_classes


def _check_refine_args(max_sweeps: int, candidate_pool: CandidatePool) -> None:
    if max_sweeps < 1:
        raise InvalidInputError("refinement needs at least one sweep")
    if candidate_pool not in get_args(CandidatePool):
        raise InvalidInputError(f"unknown candidate pool {candidate_pool!r}")


def pam_refine(
    dist: np.ndarray,
    y_star: np.ndarray,
    seed: InferenceResult,
    gamma: float,
    max_sweeps: int,
    candidate_pool: CandidatePool = "cluster",
) -> InferenceResult:
    """Refine ``seed``, the result of ``greedy_inference`` or ``label_medoids``
    for the same ``dist``, ``y_star`` and ``gamma``, by sequential
    medoid/point exchanges.

    Each outer sweep visits every medoid position k in turn. Position k's
    candidates are its pool, plus its own medoid, less the other positions'
    medoids: keeping the current medoid is always an option, and the
    medoid set stays duplicate-free. A position whose only candidate is its
    own medoid keeps it and is not scored. Otherwise the best candidate is
    installed in place, ties to the smallest index. Sweeps stop early once
    one of them changes nothing.

    With the default ``candidate_pool="cluster"``, the pool is the current
    members of cluster k under the assignment frozen at the start of the
    sweep, and a candidate j is scored by

        within-cluster-k facility score of j
        + gamma * margin(assign with position k swapped to j, y_star)

    With ``candidate_pool="all"``, the pool is the whole batch and each
    exchange is scored by the full objective A(S with position k swapped to
    j); when this variant stops changing the result is a single-exchange
    local optimum of A (no swap of one medoid for any other point improves
    A). The cheaper within-cluster surrogate does not have that property,
    which is why the whole-batch variant pays for full evaluations.

    The trace holds A(S) after each completed sweep. The whole-batch
    variant installs at each position the candidate of greatest A, and the
    incumbent is one of them. In the within-cluster variant the facility
    score under the frozen assignment lower-bounds the true one and equals
    it at the start of the sweep, and each swap raises that bound plus the
    exact margin term or keeps it. So in exact arithmetic no sweep lowers A
    in either pool. In floating point this is measured, not proven: the
    tests check that the seed's objective followed by the trace never
    falls, with no tolerance.
    """
    _, y_star, num_classes = _check_args(dist, y_star, gamma)
    m = dist.shape[0]
    medoids = np.array(seed.medoids)
    if len(medoids) != num_classes:
        raise InvalidInputError(
            f"seed medoid set has size {len(medoids)}, expected {num_classes}"
        )
    _check_refine_args(max_sweeps, candidate_pool)

    margins = SwapMargins(y_star) if gamma != 0.0 else None
    # the labelled current set, renewed when a sweep changes it, and each
    # point's two nearest medoids, dropped when a swap changes the set
    current, nearest = seed, None
    trace: list[float] = []
    for _ in range(max_sweeps):
        changed = False
        if candidate_pool == "cluster":
            # each point's cost of serving its cluster, then each medoid's
            # of serving its position's; a medoid keeps its position until
            # that position is scored
            groups = np.append(current.assignment, np.arange(num_classes))
            within = _group_costs(dist, np.append(np.arange(m), medoids), groups, current.assignment)
        first = 0
        while first < num_classes:
            ks, group, cands = _next_call(current.assignment, medoids, first, candidate_pool)
            if not ks.size:
                break
            held = medoids[ks]
            if candidate_pool == "cluster":
                # a candidate is a point of its position's cluster or that
                # position's medoid
                facility = -np.where(cands == held[group], within[m + ks[group]], within[cands])
            else:
                # each point is served by the candidate or by its nearest
                # medoid at another position, whichever is nearer
                nearest = nearest or _two_nearest(dist, medoids)
                rows = dist[cands]
                facility = _facility_rows(rows, _others(nearest, ks)[0][group], rows)
            at = _group_argmax(facility, group)
            if gamma != 0.0:
                # the margin is scored unless the facility part decides
                # every position up to the first that swaps
                rivals = group[_rivals(facility, facility[at][group], gamma)]
                undecided = np.bincount(rivals, minlength=ks.size) != 1
                if undecided[np.argmax(undecided | (cands[at] != held))]:
                    nearest = nearest or _two_nearest(dist, medoids)
                    lifts = _swap_margins(dist, margins, nearest, cands, group, ks)
                    at = _group_argmax(facility + gamma * lifts, group)
            picks = cands[at]
            swapped = np.flatnonzero(picks != held)
            if swapped.size:
                # the first swap is installed, and the next call starts after it
                k = int(ks[swapped[0]])
                medoids[k] = picks[swapped[0]]
                changed, nearest, first = True, None, k + 1
            else:
                first = int(ks[-1]) + 1
        if changed:
            current = label_medoids(dist, medoids, y_star, gamma)
        trace.append(current.objective)
        if not changed:
            break

    return InferenceResult(current.medoids, current.assignment, current.objective, trace)


def infer(
    dist: np.ndarray, y_star: np.ndarray, gamma: float, max_sweeps: int,
    candidate_pool: CandidatePool = "cluster",
) -> tuple[InferenceResult, InferenceResult]:
    """Loss-augmented inference: ``greedy_inference``, then ``pam_refine``
    from its result. Returns the greedy and the refined result."""
    _check_refine_args(max_sweeps, candidate_pool)  # before greedy's work
    greedy = greedy_inference(dist, y_star, gamma)
    return greedy, pam_refine(dist, y_star, greedy, gamma, max_sweeps, candidate_pool)


def brute_force_inference(dist: np.ndarray, y_star: np.ndarray, gamma: float) -> InferenceResult:
    """Exhaustively maximize A(S) over all medoid sets of size |classes|.

    Test oracle only: refuses instances with more than 10^6 candidate
    subsets. Ties resolve to the lexicographically smallest index tuple,
    which is the enumeration order of ``itertools.combinations``.
    """
    _, y_star, num_classes = _check_args(dist, y_star, gamma)
    m = dist.shape[0]
    if comb(m, num_classes) > BRUTE_FORCE_CAP:
        raise InstanceTooLargeError(
            f"C({m}, {num_classes}) subsets exceed the {BRUTE_FORCE_CAP} enumeration cap"
        )
    subsets = combinations(range(m), num_classes)
    # max keeps the first of equal scores
    return max(
        (label_medoids(dist, s, y_star, gamma) for s in subsets), key=lambda r: r.objective
    )
