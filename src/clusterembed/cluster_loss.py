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
the two facility scores through the embedding distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding_ops import ZERO_NORM_TOL, EmbeddingBatch, pairwise_distances
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


def facility_subgradient(embeddings: np.ndarray, attachment: np.ndarray) -> np.ndarray:
    """Subgradient of sum_i -||E_i - E_{a(i)}|| w.r.t. E.

    ``attachment`` maps each point to the index of the point serving it.
    Each pair contributes the unit direction u = (E_i - E_{a(i)}) / ||.||,
    -u to row i and +u to row a(i); pairs at (numerically) zero distance
    contribute nothing, the canonical subgradient choice at the kink.
    """
    m = embeddings.shape[0]
    diffs = embeddings - embeddings[attachment]
    norms = np.linalg.norm(diffs, axis=1)
    served = norms > ZERO_NORM_TOL
    units = np.zeros_like(diffs)
    units[served] = diffs[served] / norms[served, None]
    grad = -units
    np.add.at(grad, attachment, units)
    return grad


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
    emb = batch.data
    dist = pairwise_distances(batch)

    oracle_value, oracle_medoids = oracle_score(dist, y_star)
    seed, refined = infer(dist, y_star, gamma, max_sweeps, candidate_pool)

    hinge_arg = refined.objective - oracle_value
    value = max(0.0, hinge_arg)

    if hinge_arg > 0.0:
        violator_attach = np.asarray(refined.medoids)[refined.assignment]
        oracle_attach = np.asarray(oracle_medoids)[y_star]
        grad = facility_subgradient(emb, violator_attach) - facility_subgradient(emb, oracle_attach)
    else:
        grad = np.zeros_like(emb)

    return LossOutput(
        value=value,
        hinge_arg=hinge_arg,
        grad=grad,
        greedy=seed,
        violator=refined,
        oracle_value=oracle_value,
        oracle_medoids=oracle_medoids,
    )
