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

Costs (m points, C medoids, K classes): every greedy step scores n <= m
candidates, reading their rows; with the margin, O(m * m) row sums plus
O(moves) to refilter its moves (below) per step. A refinement sweep
scores its positions in segments: positions k..C-1 together, against
the medoid set as it stands. The first of them whose best candidate is not its medoid
installs that candidate, and the positions after it are scored again as
the next segment. Positions are still decided one at a time, in order,
against the current set, so medoids, traces and ties are those of
scoring one position at a time. A segment's positions go to the scoring
calls whole, each call taking positions until its rows reach m: one call
per segment in the within-cluster pool, whose candidates are about the m
points. Few positions install a swap (74 of 2,097 margin-scored
positions in a 40-iteration training run at m = 128, C = 32), so a sweep
makes about one call plus one per swap, not one per position: 3.75
margin calls per training step in that run, where one per position made
53.
Which medoid serves a point follows one rule, ``_serves``: the
nearer, ties to the smaller position. Each point's nearest other medoid
comes from the caller: greedy keeps each point's nearest chosen medoid as
running state, O(m) per step, and refinement reads it from a table of
each point's two nearest medoids (``_two_nearest``), O(m) per position.
The table is built, O(m * C log C), when a segment first needs it (with
the margin, or in the whole-batch pool) and again only after a swap is
installed, so the within-cluster refinement at gamma = 0 never builds it.
Since few positions install a swap, the table is rebuilt rather than
updated point by point. Without the margin a scored candidate costs one
row, O(m); the within-cluster refinement scores each candidate over its
cluster's points only, from costs summed once per sweep in ascending
point order (``_cluster_costs``, O(sum of squared cluster sizes)), and
at gamma = 0 reads no rows. With the margin, a refinement call finds
the moves, the (candidate, point) pairs where the candidate would take
the point from the other medoids, from an (n, m) mask; greedy carries
them from step to step instead. Either scores the margins with one
``SwapMargins`` call (built once per greedy or refinement call), one row
group per position, given the moves as flat indices. Its labels are
positions: 0..C-1 for the medoids and C (= K) for no medoid, at cost
inf, as in ``_two_nearest``; greedy starts every point there, so no
point's base label is the position being scored. That call counts only
the points a candidate moves: O(moves log moves + G * K * K + n * K)
beyond O(G * m) for the bases of G positions, with no n * K * K table.
Greedy keeps a move, stored as ``candidate * m + point``, while the
candidate at the next position would still serve the point. At step 0
every candidate takes every point, so the step's margins are one
``margin`` of one cluster and no call. Step 0 puts every point at
position 0; after it a candidate serves a point only by being strictly
nearer than the point's nearest chosen medoid, and that distance only
falls. So the moves are built once after step 0, from ``_serves`` over
the whole matrix, and each later step keeps those that still serve,
O(moves); no (n, m) mask is built per step. Its facility part is every
row's sum of ``min(D[c], nearest chosen cost)``, chosen candidates
included (they take no point), and the pick is made among the others.
Every margin's sums of x ln x are exact integers in fixed point, so
every candidate's margin has the bits of the scalar ``margin`` of its labels (exactly 1 - ``nmi``,
the held-out metric), and maxima and ties are the scalar ones. Greedy at
gamma = 0 on a nonnegative matrix (every
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
submodular, and every step scores every candidate, as does every step on
a matrix with a negative entry. Greedy makes C steps; a
sweep scores at most C positions, in one segment plus one per swap.
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
from typing import Iterator, Literal, Sequence, get_args

import numpy as np

from .errors import InstanceTooLargeError, InvalidInputError
from .facility import _check_dist, _check_labels, assign
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
    cands: np.ndarray,
    group: np.ndarray,
    pos: np.ndarray,
    other_min: np.ndarray | None,
    other_pos: np.ndarray | None,
    facility: np.ndarray | None = None,
) -> np.ndarray:
    """A(S) for each medoid set S that puts candidate ``cands[r]`` at
    position ``pos[g]``, g = ``group[r]``, of a medoid set whose other
    medoids serve each point at distance ``other_min[g]`` from position
    ``other_pos[g]``. A group is one scored position: ``pos`` is (G,) and
    the other medoids' rows are (G, m).

    Labels follow ``assign``, through ``_serves``.
    ``margins`` scores against the true classes when gamma != 0, all
    groups in one call.
    ``facility`` replaces the exact facility part, one value per candidate;
    given it at gamma = 0, the call returns it and the other medoids may be
    None.
    """
    if facility is not None and gamma == 0.0:
        return facility
    # one group's rows broadcast over the candidates; several are read per row
    per_row = group if len(pos) > 1 else slice(None)
    near_min = other_min[per_row]
    # row c holds the cost of serving each point from candidate c
    cand_dist = dist[cands]
    if gamma != 0.0:
        # the points each candidate takes from the other medoids
        takes = _serves(cand_dist, pos[per_row, None], near_min, other_pos[per_row])
    if facility is None:
        # in place: ``takes`` above was the last reader of the raw rows
        facility = -np.minimum(cand_dist, near_min, out=cand_dist).sum(axis=1)
    if gamma == 0.0:
        return facility
    return facility + gamma * margins(other_pos, pos, np.flatnonzero(takes), group)


def _cluster_costs(dist: np.ndarray, assignment: np.ndarray, medoids: list[int]) -> np.ndarray:
    """The within-cluster costs of the refinement's cluster pool under
    ``assignment``: each point's summed cost ``dist[c, i]`` of serving the
    points i of its own cluster, then each medoid's of serving its
    position's cluster. ``bincount`` adds the points one by one in
    ascending order, starting from 0.0, as numpy's column sum
    ``dist.T[np.ix_(cluster, cands)].sum(axis=0)`` does, so every sum has
    its bits, signed zeros included."""
    m, num_classes = len(dist), len(medoids)
    sizes = np.bincount(assignment, minlength=num_classes)
    # the clusters' points, ascending within each cluster, from ``starts``
    members = np.argsort(assignment, kind="stable")
    starts = np.cumsum(sizes) - sizes
    cand_pos = np.concatenate([assignment, np.arange(num_classes)])
    cands = np.concatenate([np.arange(m), medoids])
    size = sizes[cand_pos]
    pair = np.repeat(np.arange(cands.size), size)
    # each pair's point: its cluster's start plus its rank among its pairs
    first = np.repeat(starts[cand_pos] - (np.cumsum(size) - size), size)
    point = members[first + np.arange(pair.size)]
    # dist[cand, point] through the flat index of the row-major matrix
    cost = np.take(dist, np.repeat(cands * m, size) + point)
    return np.bincount(pair, weights=cost, minlength=cands.size)


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
    least = _check_dist(dist)
    m = dist.shape[0]
    y_star, num_classes = _check_labels(y_star, m)
    _check_gamma(gamma)

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
    if gamma != 0.0:
        margins = SwapMargins(y_star)
        free = np.ones(m, dtype=bool)
        # each candidate's cost of serving each point with the chosen medoids
        cost = np.empty((m, m))
        # every row's group, and at step 0 every point's label: one cluster
        zeros = np.zeros(m, dtype=np.intp)

    def score(block: np.ndarray) -> np.ndarray:
        # a step scores one group: position ``step`` against the running state
        return _swap_scores(
            dist, gamma, None, block, np.zeros(block.size, dtype=np.intp), np.array([step]),
            best_dist[None], best_pos[None],
        )

    for step in range(num_classes):
        if gamma != 0.0:
            # every candidate's row, chosen ones included: they take no
            # point, and the pick is made among the free ones
            scores = -np.minimum(dist, best_dist, out=cost).sum(axis=1)
            if step == 0:
                # every candidate takes every point
                scores += gamma * margin(zeros, y_star)
            else:
                scores += gamma * margins(best_pos[None], np.array([step]), moves, zeros)
            cands = np.flatnonzero(free)
            pick = int(cands[np.argmax(scores[cands])])
            top = float(scores[pick])
        else:
            cands = np.delete(np.arange(m), chosen)
            # gains exist from step 1 on, and only while A(S) is finite: a
            # gain taken from -inf is inf or nan and bounds nothing
            bounded = lazy_ok and step > 0 and bool(np.isfinite(trace[-1]))
            # from step 2 on, score the highest bound first, stably, so
            # equal bounds keep index order
            lazy = bounded and step > 1
            order = cands[np.argsort(-gain[cands], kind="stable")] if lazy else cands
            hi = LAZY_BLOCK_ROWS if lazy else len(order)
            scores = score(order[:hi])
            best = int(np.argmax(scores))
            top = float(scores[best])
            # score on while the next bound reaches the best score less the slack
            while hi < len(order) and trace[-1] + gain[order[hi]] >= top - slack:
                block = order[hi : hi + LAZY_BLOCK_ROWS]
                block_scores = score(block)
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
        if gamma != 0.0 and step + 1 < num_classes:
            free[pick] = False
            # the moves (candidate c, point i), flat index c * m + i, of
            # position step + 1. Step 0 put every point at position 0, so
            # from here on a candidate serves a point only by being nearer,
            # and best_dist only falls: a move never comes back
            if step == 0:
                moves = np.flatnonzero(_serves(dist, 1, best_dist, best_pos))
            else:
                point = moves % m
                keep = _serves(np.take(dist, moves), step + 1, best_dist[point], best_pos[point])
                moves = moves[keep]

    # the running state is ``assign``'s labels and the last score is A(S)
    return InferenceResult(
        medoids=tuple(chosen), assignment=best_pos, objective=trace[-1], trace=trace
    )


def _scoring_calls(
    assignment: np.ndarray, medoids: list[int], first: int, candidate_pool: CandidatePool
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The scoring calls of positions ``first``..K-1 against ``medoids`` as
    they stand: (positions, the group of each candidate, candidates) per
    call, grouped by position and ascending within one. A call takes whole
    positions until its rows reach m. A position's candidates are its pool
    (the members of its cluster under ``assignment``, or the whole batch),
    plus its own medoid, less the other positions' medoids; a position
    whose only candidate is its own medoid is left out."""
    ks = np.arange(first, len(medoids))
    if candidate_pool == "cluster":
        is_cand = assignment == ks[:, None]
    else:
        is_cand = np.ones((ks.size, assignment.size), dtype=bool)
    is_cand[:, medoids] = False
    is_cand[np.arange(ks.size), medoids[first:]] = True
    scored = np.count_nonzero(is_cand, axis=1) > 1
    ks = ks[scored]
    group, cands = np.nonzero(is_cand[scored])
    # the rows through each position
    through = np.cumsum(np.bincount(group, minlength=ks.size))
    lo = done = 0
    while lo < ks.size:
        hi = min(int(np.searchsorted(through, done + assignment.size)) + 1, ks.size)
        rows = slice(done, through[hi - 1])
        yield ks[lo:hi], group[rows] - lo, cands[rows]
        lo, done = hi, through[hi - 1]


def _best_candidates(
    dist: np.ndarray,
    gamma: float,
    margins: SwapMargins | None,
    medoids: list[int],
    nearest: tuple[np.ndarray, np.ndarray] | None,
    within: np.ndarray | None,
    ks: np.ndarray,
    group: np.ndarray,
    cands: np.ndarray,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """The best candidate of each position ``ks[g]`` among its ``cands``
    rows (``group`` g), ties to the smallest index, in one scoring call.
    In the within-cluster pool ``within`` holds each point's cost of
    serving its frozen cluster and then each position's medoid's, and in
    the whole-batch pool it is None. Returns the picks and ``nearest``,
    the two-nearest table of ``medoids``, built here if the scores need it
    and it is None."""
    surrogate = other_min = other_pos = None
    if within is not None:
        # a candidate is a point of its position's cluster or that position's medoid
        pos = ks[group]
        own = cands == np.asarray(medoids)[pos]
        surrogate = -np.where(own, within[len(dist) + pos], within[cands])
    if surrogate is None or gamma != 0.0:  # else the surrogate is the score
        nearest = nearest or _two_nearest(dist, medoids)
        # the nearest other medoid: level 1 where level 0 is the position
        own = nearest[1][0] == ks[:, None]
        other_min, other_pos = (np.where(own, level[1], level[0]) for level in nearest)
    scores = _swap_scores(dist, gamma, margins, cands, group, ks, other_min, other_pos, surrogate)
    return cands[_group_argmax(scores, group)], nearest


def _check_gamma(gamma: float) -> None:
    # a nan gamma would make every score nan, and the loss's max(0, nan) 0
    if not (gamma >= 0.0 and np.isfinite(gamma)):
        raise InvalidInputError(f"gamma must be finite and nonnegative, got {gamma}")


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

    A sweep scores the positions from its start, or from just after the
    last installed swap, in one batch against the set as it stands, and
    installs the first pick that is not its position's medoid; positions
    before it kept their medoids, so the result is that of visiting the
    positions one at a time. Each batch is scored in calls of whole
    positions that stop once their rows reach m.

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
    _check_gamma(gamma)

    margins = SwapMargins(y_star) if gamma != 0.0 else None
    # the labelled current set, renewed when a sweep changes it, and each
    # point's two nearest medoids, dropped when a swap changes the set
    current, nearest = seed, None
    trace: list[float] = []
    for _ in range(max_sweeps):
        changed = False
        # the within-cluster costs under the frozen assignment, once per
        # sweep: a medoid keeps its position until that position is scored
        within = None
        if candidate_pool == "cluster":
            within = _cluster_costs(dist, current.assignment, medoids)
        # score positions ``first``.. against the set as it stands, install
        # the first pick that is not its position's medoid, and score the
        # positions after it again
        first = 0
        while first < num_classes:
            calls = _scoring_calls(current.assignment, medoids, first, candidate_pool)
            first = num_classes
            for ks, group, cands in calls:
                picks, nearest = _best_candidates(
                    dist, gamma, margins, medoids, nearest, within, ks, group, cands
                )
                swapped = np.flatnonzero(picks != np.asarray(medoids)[ks])
                if swapped.size:
                    k = int(ks[swapped[0]])
                    medoids[k] = int(picks[swapped[0]])
                    changed, nearest, first = True, None, k + 1
                    break
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
    _check_dist(dist)
    m = dist.shape[0]
    y_star, num_classes = _check_labels(y_star, m)
    _check_gamma(gamma)
    if comb(m, num_classes) > BRUTE_FORCE_CAP:
        raise InstanceTooLargeError(
            f"C({m}, {num_classes}) subsets exceed the {BRUTE_FORCE_CAP} enumeration cap"
        )
    subsets = combinations(range(m), num_classes)
    # max keeps the first of equal scores
    return max(
        (label_medoids(dist, s, y_star, gamma) for s in subsets), key=lambda r: r.objective
    )
