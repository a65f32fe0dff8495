"""Loss-augmented inference over medoid sets.

The subproblem: over all medoid sets S of fixed size C, maximize

    A(S) = facility_score(D, S) + gamma * margin(assign(D, S), y_star)

The margin rewards candidate clusterings that disagree with the ground
truth, so the maximizer is the most-violating assignment. Exact
maximization is NP-hard; ``greedy_inference`` builds an initial set by
best-marginal-benefit selection and ``pam_refine`` improves it with
medoid/member exchanges; ``infer`` runs one after the other.
``brute_force_inference`` exhaustively solves small instances for tests.

The distance matrix is read in one orientation, as in ``facility``:
``D[s, i]`` is the cost of serving point i from medoid s, so a candidate
is scored from its contiguous row ``D[cands]``. Nothing here needs the
matrix to be symmetric, only square, nonempty and free of nan.

Costs (m points, C medoids, K classes): every greedy step and every medoid
position of a refinement sweep scores n <= m candidates, reading their
rows. Which medoid serves a point follows one rule, ``_serves``: the
nearer, ties to the smaller position. Each point's nearest other medoid
comes from the caller: greedy keeps each point's nearest chosen medoid as
running state, O(m) per step, and refinement reads it from a table of
each point's two nearest medoids (``_two_nearest``), O(m) per position.
The table is built, O(m * C log C), when a position first needs it (with
the margin, or in the whole-batch pool) and again only after a swap is
installed, so the within-cluster refinement at gamma = 0 never builds it.
Few positions install a swap (74 of 2,097 margin-scored positions in a
40-iteration training run at m = 128, C = 32), so the table is rebuilt
rather than updated point by point. Without the margin a scored
candidate costs one row, O(m); the within-cluster refinement at
gamma = 0 scores its members' submatrix and reads no rows. With the
margin, a step or position finds which points each candidate takes from
the other medoids, an (n, m) mask, and scores the margins with one
``SwapMargins`` call (built once per greedy or refinement call). Its
labels are positions: 0..C-1 for the medoids and C (= K) for no medoid,
at cost inf, as in ``_two_nearest``; greedy starts every point there,
so no point's base label is the position being scored. That call counts
only the points a candidate moves: O(m log m + K * K + moves + n * K)
beyond the mask, with no n * K * K table. Its sums of
x ln x are exact integers in fixed point, so every candidate's margin
has the bits of the scalar ``margin`` of its labels (exactly 1 - ``nmi``,
the held-out metric), and maxima and ties are the scalar ones. Greedy at gamma = 0 on a nonnegative matrix (every
``pairwise_distances`` matrix) is lazy (Minoux 1978): A is then monotone
submodular, so a candidate's gain A(S + {i}) - A(S) from the step that
last scored it bounds its gain now. Steps 0 and 1 score every candidate;
later steps score candidates in blocks of 64 rows in order of decreasing
bound (stable, so equal bounds keep index order), and stop once the next
candidate's A(S) + bound falls below the best score less a slack of
1e-9 |A| (the first step's |A(S)|, the largest any step reaches), orders
of magnitude above the rounding of a row sum. A gain is kept only when
the A(S) it is taken from is finite, so inf distances leave bounds at inf
and their candidates scored. Every candidate that could tie the best is
scored, each score is the row sum full scoring computes, and the pick is
the smallest index with the best score, so medoids, ties and traces are
those of full scoring. On held-out blobs at m = 1,280, C = 32 this scores
about 6,100 of the 40,464 candidate rows. With the margin A is not
submodular, and every step scores every candidate in one call, as does
every step on a matrix with a negative entry. Greedy makes C steps and a
sweep at most C positions.
Each medoid set is labelled once: refinement starts from the labels and
A(S) of its seed, and after each sweep that changes the set makes one
``label_medoids`` call (one ``assign``, and one ``margin`` if gamma !=
0). Everything here is sequential and deterministic: all argmax ties
resolve to the smallest index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from itertools import combinations
from typing import Literal, Sequence, get_args

import numpy as np

from .errors import InstanceTooLargeError, InvalidInputError
from .facility import _check_labels, assign
from .metrics import SwapMargins, margin

# Exhaustive search refuses instances with more candidate subsets than this.
BRUTE_FORCE_CAP = 10**6

# Lazy greedy (gamma = 0) scores candidate rows in blocks of this size,
# and scores on while a bound is within this share of |A| of the best.
LAZY_BLOCK_ROWS = 64
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
    """Label a medoid set with one ``assign`` call and score its A(S).

    Each point's cost ``dist[s, i]`` from its medoid s is the value
    ``facility_score`` takes as the column minimum, summed by the same
    ``np.sum``.
    """
    labels = assign(dist, medoids)
    served = dist[np.asarray(medoids)[labels], np.arange(len(dist))]
    score = -float(np.sum(served))
    if gamma != 0.0:
        score += gamma * margin(labels, y_star)
    return InferenceResult(
        medoids=tuple(int(i) for i in medoids), assignment=labels, objective=score, trace=[score]
    )


def _check_dist(dist: np.ndarray) -> float:
    """Reject a distance matrix that is not square, is empty or holds nan
    (which ``_serves`` and ``assign``'s ``argmin`` would serve differently).
    Returns its least entry."""
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1] or dist.size == 0:
        raise InvalidInputError(f"distance matrix must be square and nonempty, got {dist.shape}")
    # one pass, and no m x m temporary: the minimum is nan if any entry is
    least = float(dist.min())
    if np.isnan(least):
        raise InvalidInputError("distance matrix holds nan")
    return least


def _serves(cost: np.ndarray, pos: int, other_cost: np.ndarray, other_pos: np.ndarray) -> np.ndarray:
    """The serving rule of ``assign``: where a medoid at position ``pos``
    serving at ``cost`` beats one at ``other_pos`` serving at
    ``other_cost``. The nearer medoid serves, ties to the smaller position."""
    return (cost < other_cost) | ((cost == other_cost) & (pos < other_pos))


def _two_nearest(dist: np.ndarray, medoids: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest and second-nearest medoid in ``_serves`` order:
    (2, m) costs and positions in ``medoids``. Position ``len(medoids)``
    stands for no medoid, at cost inf."""
    rows = np.vstack([dist[medoids], np.full(len(dist), np.inf)])
    at = np.argsort(rows, axis=0, kind="stable")[:2]
    return np.take_along_axis(rows, at, axis=0), at


def _swap_scores(
    dist: np.ndarray,
    gamma: float,
    margins: SwapMargins | None,
    pos: int,
    cands: np.ndarray,
    other_min: np.ndarray | None,
    other_pos: np.ndarray | None,
    facility: np.ndarray | None = None,
) -> np.ndarray:
    """A(S) for each medoid set S that puts one of ``cands`` at position
    ``pos`` of a medoid set whose other medoids serve each point at
    distance ``other_min`` from position ``other_pos``.

    Labels follow ``assign``, through ``_serves``.
    ``margins`` scores against the true classes when gamma != 0.
    ``facility`` replaces the exact facility part, one value per candidate;
    given it at gamma = 0, the call returns it and the other medoids may be
    None.
    """
    if facility is not None and gamma == 0.0:
        return facility
    # row c holds the cost of serving each point from candidate c
    cand_dist = dist[cands]
    if gamma != 0.0:
        # the points each candidate takes from the other medoids
        takes = _serves(cand_dist, pos, other_min, other_pos)
    if facility is None:
        # in place: ``takes`` above was the last reader of the raw rows
        facility = -np.minimum(cand_dist, other_min, out=cand_dist).sum(axis=1)
    if gamma == 0.0:
        return facility
    return facility + gamma * margins(other_pos, pos, takes)


def greedy_inference(dist: np.ndarray, y_star: np.ndarray, gamma: float) -> InferenceResult:
    """Build a medoid set of size |classes| by repeatedly adding the point
    with the best marginal benefit A(S + {i}) - A(S).

    The first step maximizes A({i}) directly (A of the empty set is an
    arbitrary constant that cancels out of the argmax). Ties go to the
    smallest candidate index.
    """
    least = _check_dist(dist)
    m = dist.shape[0]
    y_star, num_classes = _check_labels(y_star, m)

    chosen: list[int] = []
    trace: list[float] = []
    # each point's nearest chosen medoid: distance and position, starting
    # at position ``num_classes``, no medoid, at cost inf
    best_dist = np.full(m, np.inf)
    best_pos = np.full(m, num_classes, dtype=np.intp)
    # each point's gain A(S + {i}) - A(S) when last scored; inf until then
    gain = np.full(m, np.inf)
    # gains bound later gains at gamma = 0, where A is submodular; on a
    # nonnegative matrix no |A(S)| exceeds the first step's, which sizes
    # the slack
    lazy_ok = gamma == 0.0 and least >= 0
    margins = SwapMargins(y_star) if gamma != 0.0 else None
    for step in range(num_classes):
        cands = np.delete(np.arange(m), chosen)
        # gains exist from step 1 on, and only while A(S) is finite: a gain
        # taken from -inf is inf or nan and bounds nothing
        bounded = lazy_ok and step > 0 and bool(np.isfinite(trace[-1]))
        # from step 2 on, score the highest bound first, stably, so equal
        # bounds keep index order
        lazy = bounded and step > 1
        order = cands[np.argsort(-gain[cands], kind="stable")] if lazy else cands
        hi = LAZY_BLOCK_ROWS if lazy else len(order)
        scores = _swap_scores(dist, gamma, margins, step, order[:hi], best_dist, best_pos)
        best = int(np.argmax(scores))
        top = float(scores[best])
        # score on while the next bound reaches the best score less the slack
        while hi < len(order) and trace[-1] + gain[order[hi]] >= top - slack:
            block = order[hi : hi + LAZY_BLOCK_ROWS]
            block_scores = _swap_scores(dist, gamma, margins, step, block, best_dist, best_pos)
            scores = np.concatenate([scores, block_scores])
            top = max(top, float(block_scores.max()))
            hi += LAZY_BLOCK_ROWS
        # the smallest index with the best score; ``cands`` is ascending
        pick = int(order[:hi][scores == top].min()) if lazy else int(cands[best])
        if bounded:
            gain[order[:hi]] = scores - trace[-1]
        chosen.append(pick)
        trace.append(top)
        slack = LAZY_SLACK * abs(trace[0])
        best_pos[_serves(dist[pick], step, best_dist, best_pos)] = step
        np.minimum(best_dist, dist[pick], out=best_dist)

    # the running state is ``assign``'s labels and the last score is A(S)
    return InferenceResult(
        medoids=tuple(chosen), assignment=best_pos, objective=trace[-1], trace=trace
    )


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
    _check_dist(dist)
    m = dist.shape[0]
    y_star, num_classes = _check_labels(y_star, m)
    medoids = list(seed.medoids)
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
        for k in range(num_classes):
            # the pool and the own medoid, less the other positions' medoids
            is_cand = current.assignment == k if candidate_pool == "cluster" else np.ones(m, bool)
            is_cand[medoids] = False
            is_cand[medoids[k]] = True
            cands = np.flatnonzero(is_cand)
            if cands.size == 1:  # only the own medoid, which it keeps
                continue
            surrogate = other_min = other_pos = None
            if candidate_pool == "cluster":
                surrogate = -dist.T[np.ix_(current.assignment == k, cands)].sum(axis=0)
            if surrogate is None or gamma != 0.0:  # else the surrogate is the score
                nearest = nearest or _two_nearest(dist, medoids)
                # the nearest other medoid: level 1 where level 0 is position k
                own = nearest[1][0] == k
                other_min, other_pos = (np.where(own, level[1], level[0]) for level in nearest)
            scores = _swap_scores(dist, gamma, margins, k, cands, other_min, other_pos, surrogate)
            pick = int(cands[int(np.argmax(scores))])
            if pick != medoids[k]:
                medoids[k] = pick
                changed = True
                nearest = None
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
    m = dist.shape[0]
    y_star, num_classes = _check_labels(y_star, m)
    if comb(m, num_classes) > BRUTE_FORCE_CAP:
        raise InstanceTooLargeError(
            f"C({m}, {num_classes}) subsets exceed the {BRUTE_FORCE_CAP} enumeration cap"
        )
    subsets = combinations(range(m), num_classes)
    # max keeps the first of equal scores
    return max(
        (label_medoids(dist, s, y_star, gamma) for s in subsets), key=lambda r: r.objective
    )
