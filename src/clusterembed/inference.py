"""Loss-augmented inference over medoid sets.

The subproblem: over all medoid sets S of fixed size C, maximize

    A(S) = facility_score(D, S) + gamma * margin(assign(D, S), y_star)

The margin rewards candidate clusterings that disagree with the ground
truth, so the maximizer is the most-violating assignment. Exact
maximization is NP-hard; ``greedy_inference`` builds an initial set by
best-marginal-benefit selection and ``pam_refine`` improves it with
medoid/member exchanges. ``brute_force_inference`` exhaustively solves
small instances and exists for testing.

Costs (m points, C medoids, K classes): every greedy step and every medoid
position of a refinement sweep is one scoring call over up to m
candidates. Without the margin a call is O(m * (m + C)) array work. With
it, the call also builds the (candidates, m) label matrix and scores it with
one ``batched_margin`` call, O(m^2 + m * C * K) array work, then rescores
through the scalar ``margin`` only the candidates within RESCORE_WINDOW of
the best (usually one or a few), so that maxima and ties are exactly the
scalar ones. Greedy makes C calls and a sweep at most C. Everything here
is sequential and deterministic: all argmax ties resolve to the smallest
index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from itertools import combinations
from typing import Literal, Sequence

import numpy as np

from .errors import InstanceTooLargeError, InvalidInputError
from .facility import assign, facility_score
from .metrics import batched_margin, margin

# Exhaustive search refuses instances with more candidate subsets than this.
BRUTE_FORCE_CAP = 10**6

# Candidates whose batched score lies within RESCORE_WINDOW * (1 + |best| +
# gamma) of the best batched score are rescored through the scalar margin.
# A batched margin is off by a few ulps of 1, so a batched score is off by
# about 1e-16 * (|score| + gamma): the window holds every candidate that can
# be the exact maximum, and a wider one would only rescore more of them.
RESCORE_WINDOW = 1e-9


@dataclass
class InferenceResult:
    """Outcome of one inference routine.

    ``objective`` is A(S) for the returned medoids; ``trace`` records the
    objective after each iteration of the routine that produced the result
    (greedy: after each added medoid; refinement: after each outer sweep).
    """

    medoids: tuple[int, ...]
    assignment: np.ndarray
    objective: float
    trace: list[float] = field(default_factory=list)


def _num_classes(y_star: np.ndarray) -> int:
    return int(np.max(y_star)) + 1


def augmented_objective(
    dist: np.ndarray, medoids: Sequence[int], y_star: np.ndarray, gamma: float
) -> float:
    """A(S): facility score plus gamma times the margin of the induced labels."""
    score = facility_score(dist, medoids)
    if gamma != 0.0:
        score += gamma * margin(assign(dist, medoids), y_star)
    return score


def _swap_scores(
    dist: np.ndarray,
    y_star: np.ndarray,
    gamma: float,
    medoids: list[int],
    pos: int,
    cands: np.ndarray,
    facility: np.ndarray | None = None,
) -> np.ndarray:
    """A(S) for each medoid set S that puts one of ``cands`` at position
    ``pos`` of ``medoids`` (``pos == len(medoids)`` appends it).

    Labels follow ``assign``: nearest medoid, ties to the smallest position.
    ``facility`` replaces the exact facility part, one value per candidate.
    """
    others = medoids[:pos] + medoids[pos + 1 :]
    cand_dist = dist[:, cands]
    other_min = dist[:, others].min(axis=1, initial=np.inf)[:, None]
    if facility is None:
        facility = -np.minimum(other_min, cand_dist).sum(axis=0)
    if gamma == 0.0:
        return facility
    nearest = np.argmin(dist[:, others], axis=1) if others else np.zeros(len(dist), np.intp)
    # a candidate takes a point when strictly closer than the other medoids,
    # or as close as the nearest of them and earlier in position order
    other_pos = (nearest + (nearest >= pos))[:, None]
    takes = (cand_dist < other_min) | ((cand_dist == other_min) & (pos < other_pos))
    labels = np.where(takes, pos, other_pos).T
    scores = facility + gamma * batched_margin(labels, y_star)
    # the batched margins may differ from the scalar ones in the last bits;
    # rescoring every candidate near the best through ``margin`` makes the
    # returned maximum, its ties and its index exactly the scalar ones
    best = scores.max()
    near = np.flatnonzero(scores >= best - RESCORE_WINDOW * (1.0 + abs(best) + gamma))
    scores[near] = facility[near] + gamma * np.array([margin(labels[i], y_star) for i in near])
    return scores


def greedy_inference(dist: np.ndarray, y_star: np.ndarray, gamma: float) -> InferenceResult:
    """Build a medoid set of size |classes| by repeatedly adding the point
    with the best marginal benefit A(S + {i}) - A(S).

    The first step maximizes A({i}) directly (A of the empty set is an
    arbitrary constant that cancels out of the argmax). Ties go to the
    smallest candidate index.
    """
    y_star = np.asarray(y_star)
    m = dist.shape[0]
    num_classes = _num_classes(y_star)
    if num_classes > m:
        raise InvalidInputError(f"need {num_classes} medoids but batch has only {m} points")

    chosen: list[int] = []
    trace: list[float] = []
    for step in range(num_classes):
        cands = np.delete(np.arange(m), chosen)
        scores = _swap_scores(dist, y_star, gamma, chosen, step, cands)
        best = int(np.argmax(scores))
        chosen.append(int(cands[best]))
        trace.append(float(scores[best]))

    medoids = tuple(chosen)
    return InferenceResult(
        medoids=medoids,
        assignment=assign(dist, medoids),
        objective=augmented_objective(dist, medoids, y_star, gamma),
        trace=trace,
    )


def pam_refine(
    dist: np.ndarray,
    y_star: np.ndarray,
    initial_medoids: Sequence[int],
    gamma: float,
    max_sweeps: int,
    candidate_pool: Literal["cluster", "all"] = "cluster",
) -> InferenceResult:
    """Refine a medoid set by sequential medoid/point exchanges.

    With the default ``candidate_pool="cluster"``, each outer sweep freezes
    the assignment induced by the current medoids, then for every medoid
    position k picks, among the current members of cluster k, the exchange
    candidate j maximizing

        within-cluster-k facility score of j
        + gamma * margin(assign with position k swapped to j, y_star)

    and installs it in place. With ``candidate_pool="all"``, candidates
    range over the whole batch and each exchange is scored by the full
    objective A(S with position k swapped to j); when this variant stops
    changing the result is a single-exchange local optimum of A (no swap of
    one medoid for any other point improves A). The cheaper within-cluster
    surrogate does not have that property, which is why the whole-batch
    variant pays for full evaluations.

    Points serving as other positions' medoids are never candidates, which
    keeps the medoid set duplicate-free; a cluster with no members keeps
    its medoid. Ties go to the smallest candidate index. Sweeps stop early
    once one of them changes nothing.

    The trace holds A(S) after each completed sweep and never decreases.
    For the whole-batch variant each installed swap maximizes A with
    keeping the current medoid among the candidates. For the within-cluster
    variant the frozen-assignment surrogate lower-bounds the true facility
    score, the bound is tight when j is the incumbent medoid, and the
    margin term is evaluated exactly, so each swap can only raise A as
    well.
    """
    y_star = np.asarray(y_star)
    m = dist.shape[0]
    num_classes = _num_classes(y_star)
    medoids = [int(i) for i in initial_medoids]
    if len(medoids) != num_classes:
        raise InvalidInputError(
            f"initial medoid set has size {len(medoids)}, expected {num_classes}"
        )
    if len(set(medoids)) != len(medoids):
        raise InvalidInputError("initial medoid indices must be distinct")
    if any(i < 0 or i >= m for i in medoids):
        raise InvalidInputError(f"initial medoid index out of range [0, {m})")
    if max_sweeps < 1:
        raise InvalidInputError("refinement needs at least one sweep")
    if candidate_pool not in ("cluster", "all"):
        raise InvalidInputError(f"unknown candidate pool {candidate_pool!r}")

    trace: list[float] = []
    for _ in range(max_sweeps):
        labels = assign(dist, medoids)
        changed = False
        for k in range(num_classes):
            members = np.flatnonzero(labels == k)
            cands = members if candidate_pool == "cluster" else np.arange(m)
            cands = cands[~np.isin(cands, medoids[:k] + medoids[k + 1 :])]
            if cands.size == 0:
                continue
            surrogate = None
            if candidate_pool == "cluster":
                surrogate = -dist[np.ix_(members, cands)].sum(axis=0)
            scores = _swap_scores(dist, y_star, gamma, medoids, k, cands, surrogate)
            pick = int(cands[int(np.argmax(scores))])
            if pick != medoids[k]:
                medoids[k] = pick
                changed = True
        trace.append(augmented_objective(dist, medoids, y_star, gamma))
        if not changed:
            break

    final = tuple(medoids)
    return InferenceResult(
        medoids=final,
        assignment=assign(dist, final),
        objective=trace[-1],
        trace=trace,
    )


def brute_force_inference(dist: np.ndarray, y_star: np.ndarray, gamma: float) -> InferenceResult:
    """Exhaustively maximize A(S) over all medoid sets of size |classes|.

    Test oracle only: refuses instances with more than 10^6 candidate
    subsets. Ties resolve to the lexicographically smallest index tuple,
    which is the enumeration order of ``itertools.combinations``.
    """
    y_star = np.asarray(y_star)
    m = dist.shape[0]
    num_classes = _num_classes(y_star)
    if num_classes > m:
        raise InvalidInputError(f"need {num_classes} medoids but batch has only {m} points")
    if comb(m, num_classes) > BRUTE_FORCE_CAP:
        raise InstanceTooLargeError(
            f"C({m}, {num_classes}) subsets exceed the {BRUTE_FORCE_CAP} enumeration cap"
        )
    # max keeps the first of equal scores
    best_set = max(
        combinations(range(m), num_classes),
        key=lambda subset: augmented_objective(dist, subset, y_star, gamma),
    )
    best_score = augmented_objective(dist, best_set, y_star, gamma)
    return InferenceResult(
        medoids=best_set,
        assignment=assign(dist, best_set),
        objective=best_score,
        trace=[best_score],
    )
