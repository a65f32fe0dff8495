"""Pairwise and tuple-based comparison losses.

Three standard deep metric learning objectives evaluated on a flat batch:
triplet loss with online semi-hard negative mining, the lifted structured
loss, and the N-pairs loss with an l2 norm regularizer. None require the
batch to be pre-arranged into pairs or tuples; positives and negatives
are mined from the labels inside the loss.

Shared convention, which every numeric expectation in the tests assumes:
the positive pair set P holds ORDERED pairs (i, j) with i != j and
y[i] == y[j], enumerated in row-major order (i outer, j inner), and all
discrete ties resolve to the smallest index. The triplet loss consumes
squared distances, the lifted loss unsquared distances, and N-pairs raw
dot products. Each function returns (loss value, gradient w.r.t. the
embedding rows) with mined indices and hinge activity frozen, hinges
inactive at exactly zero.

Each loss works on a (|P|, m) array, one row of the pairwise matrix per
positive pair, and collects its derivative by that matrix in one m x m
coefficient matrix; the triplet and lifted losses turn it into the
gradient with the helpers of ``embedding_ops`` that the clustering loss
also uses.
"""

from __future__ import annotations

import numpy as np

from .embedding_ops import (
    EmbeddingBatch,
    distance_grad,
    pair_grad,
    pairwise_distances,
    pairwise_similarities,
    pairwise_squared_distances,
    row_norms,
)
from .errors import InvalidInputError


def _mine(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anchor and positive indices of the ordered positive pairs, and the
    m x m mask of pairs with different labels.

    Every anchor has a negative exactly when the batch holds more than one
    class, so that and a nonempty pair set are all a loss needs checked.
    """
    y = np.asarray(y)
    differ = y[:, None] != y[None, :]
    same = ~differ
    np.fill_diagonal(same, False)
    anchor, positive = np.nonzero(same)
    if anchor.size == 0:
        raise InvalidInputError("batch has no positive pairs")
    if not differ.any():
        raise InvalidInputError("batch has a single class, so no anchor has negatives")
    return anchor, positive, differ


def triplet_semihard_loss(
    batch: EmbeddingBatch, y: np.ndarray, alpha: float
) -> tuple[float, np.ndarray]:
    """Mean over ordered positive pairs of [D2(i,j) + alpha - D2(i,k*)]_+.

    k* is the semi-hard negative of the anchor i: the negative with the
    smallest squared distance still strictly greater than D2(i,j). When no
    negative satisfies the constraint the farthest negative is used
    instead. Gradients flow through the active hinge terms with k* frozen.
    """
    emb = batch.data
    anchor, positive, differ = _mine(y)
    d2 = pairwise_squared_distances(batch)

    rows, negative = d2[anchor], differ[anchor]
    pos_d2 = d2[anchor, positive]
    beyond = negative & (rows > pos_d2[:, None])
    lowest = np.where(beyond, rows, np.inf)
    # the first beyond index at the row minimum, also when that minimum is inf
    semi = np.argmax(beyond & (lowest == lowest.min(axis=1, keepdims=True)), axis=1)
    farthest = np.argmax(np.where(negative, rows, -np.inf), axis=1)
    k = np.where(beyond.any(axis=1), semi, farthest)
    term = pos_d2 + alpha - d2[anchor, k]
    active = term > 0.0

    n = anchor.size
    coeff = np.zeros_like(d2)
    coeff[anchor[active], positive[active]] = 1.0 / n
    np.add.at(coeff, (anchor[active], k[active]), -1.0 / n)
    return term[active].sum() / n, 2.0 * pair_grad(coeff, emb)


def lifted_struct_loss(
    batch: EmbeddingBatch, y: np.ndarray, alpha: float
) -> tuple[float, np.ndarray]:
    """Lifted structured loss in its smooth log-sum-exp form.

    For each ordered positive pair (i, j),

        J = log( sum_{k in N(i)} e^{alpha - D(i,k)}
               + sum_{l in N(j)} e^{alpha - D(j,l)} ) + D(i, j)

    and the loss is (1 / (2|P|)) * sum [J]_+^2 over unsquared distances.
    The log-sum-exp is max-shifted for stability; the analytic gradient
    chains through the softmax weights of the negative terms. Coincident
    points pass no gradient between them (``distance_grad``).
    """
    emb = batch.data
    m = emb.shape[0]
    anchor, positive, differ = _mine(y)
    dist = pairwise_distances(batch)

    expo = np.where(differ, alpha - dist, -np.inf)
    exponents = np.concatenate([expo[anchor], expo[positive]], axis=1)
    shift = exponents.max(axis=1)
    weights = np.exp(exponents - shift[:, None])
    z = weights.sum(axis=1)
    jval = shift + np.log(z) + dist[anchor, positive]
    hinge = np.maximum(jval, 0.0)

    n = anchor.size
    scale = hinge / n  # d/dJ of J^2/(2n)
    weights *= (scale / z)[:, None]
    # dJ/dD(i,j) = 1, dJ/dD(i,k) = -w_ik, likewise for the j side
    coeff = np.zeros((m, m))
    np.add.at(coeff, anchor, -weights[:, :m])
    np.add.at(coeff, positive, -weights[:, m:])
    coeff[anchor, positive] += scale
    return (hinge * hinge).sum() / (2.0 * n), distance_grad(coeff, dist, emb)


def npairs_loss(
    batch: EmbeddingBatch, y: np.ndarray, reg_lambda: float
) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy over dot-product similarities plus a norm penalty.

    Each ordered positive pair (i, j) contributes
    -log( e^{S(i,j)} / (e^{S(i,j)} + sum_{k in N(i)} e^{S(i,k)}) ), averaged
    over |P|, plus (lambda / m) * sum_i ||E_i||_2 with the unsquared norm.
    Operates on raw (unnormalized) embeddings.
    """
    emb = batch.data
    m = emb.shape[0]
    anchor, positive, differ = _mine(y)
    sims = pairwise_similarities(batch)

    pair = np.arange(anchor.size)
    scored = differ[anchor]
    scored[pair, positive] = True
    scores = np.where(scored, sims[anchor], -np.inf)
    shift = scores.max(axis=1)
    probs = np.exp(scores - shift[:, None])
    z = probs.sum(axis=1)
    terms = shift + np.log(z) - sims[anchor, positive]
    probs /= z[:, None]

    n = anchor.size
    # d term / d S(i,j) = p_j - 1; d term / d S(i,k) = p_k
    probs[pair, positive] -= 1.0
    coeff = np.zeros((m, m))
    np.add.at(coeff, anchor, probs / n)
    total = terms.sum() / n
    grad = (coeff + coeff.T) @ emb

    if reg_lambda != 0.0:
        norms = row_norms(emb, "differentiate the norm penalty")
        total += reg_lambda / m * norms.sum()
        grad += reg_lambda / m * (emb / norms[:, None])
    return float(total), grad
