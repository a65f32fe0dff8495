"""Structured clustering loss and its subgradient in embedding space.

For a batch of embeddings E with ground-truth labels y*, the loss is the
structured hinge

    l(E) = max(0, max_S [F(E, S) + gamma * margin(g(S), y*)] - F_oracle)

where S ranges over medoid sets of size |classes|, g(S) is the induced
nearest-medoid labeling, and F_oracle scores the best per-class medoids.
The inner maximization is approximated by greedy construction plus
exchange refinement, so the hinge also guards against a negative argument
when the approximate maximizer scores below the oracle.

The subgradient treats the margin term as locally constant (it only
changes when an assignment flips, a measure-zero event) and differentiates
the two facility scores through the distance matrix inference used: each
point carries coefficient -1 on its distance to its violator medoid and +1
on its distance to its oracle medoid, and ``embedding_ops.distance_grad``
turns that coefficient matrix into the gradient, as for the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding_ops import EmbeddingBatch, distance_grad, pairwise_distances
from .facility import oracle_score
from .inference import CandidatePool, InferenceResult, infer
# unused; perfbench/tests/test_perfbench.py expects the tracer to patch it here
from .metrics import margin  # noqa: F401


@dataclass
class LossOutput:
    """Loss value, subgradient, and inference diagnostics for one batch.

    ``greedy`` is the greedy seed and ``violator`` the refined most-violating
    medoid set; ``hinge_arg`` is ``violator.objective - oracle_value``.
    """

    value: float
    hinge_arg: float
    grad: np.ndarray
    greedy: InferenceResult
    violator: InferenceResult
    oracle_value: float
    oracle_medoids: tuple[int, ...]


def clustering_loss(
    batch: EmbeddingBatch,
    y_star: np.ndarray,
    gamma: float,
    max_sweeps: int = 5,
    candidate_pool: CandidatePool = "cluster",
) -> LossOutput:
    """Evaluate the structured clustering loss and its subgradient.

    Runs greedy inference followed by ``max_sweeps`` of exchange
    refinement to find the most-violating medoid set, scores it against
    the per-class oracle, and differentiates the active hinge. A clipped
    hinge (argument <= 0) returns a zero subgradient.
    """
    y_star = np.asarray(y_star)
    dist = pairwise_distances(batch)

    oracle_value, oracle_medoids = oracle_score(dist, y_star)
    seed, refined = infer(dist, y_star, gamma, max_sweeps, candidate_pool)

    hinge_arg = refined.objective - oracle_value
    value = max(0.0, hinge_arg)

    if hinge_arg > 0.0:
        points = np.arange(batch.m)
        coeff = np.zeros_like(dist)
        coeff[points, np.asarray(refined.medoids)[refined.assignment]] = -1.0
        coeff[points, np.asarray(oracle_medoids)[y_star]] += 1.0
        grad = distance_grad(coeff, dist, batch.data)
    else:
        grad = np.zeros_like(batch.data)

    return LossOutput(
        value=value,
        hinge_arg=hinge_arg,
        grad=grad,
        greedy=seed,
        violator=refined,
        oracle_value=oracle_value,
        oracle_medoids=oracle_medoids,
    )
