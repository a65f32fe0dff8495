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
"""

from __future__ import annotations

import numpy as np

from .embedding_ops import (
    ZERO_NORM_TOL,
    EmbeddingBatch,
    pairwise_distances,
    pairwise_similarities,
    pairwise_squared_distances,
)
from .errors import DegenerateRowError, InvalidInputError


def positive_pairs(y: np.ndarray) -> list[tuple[int, int]]:
    """Ordered same-label pairs (i, j), i != j, in row-major order."""
    y = np.asarray(y)
    same = y[:, None] == y[None, :]
    np.fill_diagonal(same, False)
    return list(map(tuple, np.argwhere(same).tolist()))


def _mine(y: np.ndarray) -> tuple[list[tuple[int, int]], list[np.ndarray]]:
    """Ordered positive pairs and, per anchor, the indices with another label.

    Every anchor has a negative exactly when the batch holds more than one
    class, so that and a nonempty pair set are all a loss needs checked.
    """
    y = np.asarray(y)
    pairs = positive_pairs(y)
    if not pairs:
        raise InvalidInputError("batch has no positive pairs")
    differ = y[:, None] != y[None, :]
    if not differ.any():
        raise InvalidInputError("batch has a single class, so no anchor has negatives")
    return pairs, [np.flatnonzero(row) for row in differ]


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
    pairs, negatives = _mine(y)
    d2 = pairwise_squared_distances(batch)

    total = 0.0
    grad = np.zeros_like(emb)
    for i, j in pairs:
        neg = negatives[i]
        neg_d2 = d2[i, neg]
        beyond = neg_d2 > d2[i, j]
        if np.any(beyond):
            k = int(neg[beyond][int(np.argmin(neg_d2[beyond]))])
        else:
            k = int(neg[int(np.argmax(neg_d2))])
        term = d2[i, j] + alpha - d2[i, k]
        if term > 0.0:
            total += term
            grad[i] += 2.0 * (emb[i] - emb[j]) - 2.0 * (emb[i] - emb[k])
            grad[j] -= 2.0 * (emb[i] - emb[j])
            grad[k] += 2.0 * (emb[i] - emb[k])
    n = len(pairs)
    return total / n, grad / n


def lifted_struct_loss(
    batch: EmbeddingBatch, y: np.ndarray, alpha: float
) -> tuple[float, np.ndarray]:
    """Lifted structured loss in its smooth log-sum-exp form.

    For each ordered positive pair (i, j),

        J = log( sum_{k in N(i)} e^{alpha - D(i,k)}
               + sum_{l in N(j)} e^{alpha - D(j,l)} ) + D(i, j)

    and the loss is (1 / (2|P|)) * sum [J]_+^2 over unsquared distances.
    The log-sum-exp is max-shifted for stability; the analytic gradient
    chains through the softmax weights of the negative terms.

    The unit directions (E_a - E_k) / D(a, k) are tabulated once per batch,
    an m x m x d array (2 MB at m = 128, d = 16): sized for training
    batches, not for evaluation-scale m.
    """
    emb = batch.data
    pairs, negatives = _mine(y)
    dist = pairwise_distances(batch)
    units = emb[:, None, :] - emb[None, :, :]
    apart = dist > ZERO_NORM_TOL  # coincident points get a zero direction
    np.divide(units, dist[:, :, None], out=units, where=apart[:, :, None])
    units[~apart] = 0.0

    n = len(pairs)
    total = 0.0
    grad = np.zeros_like(emb)
    for i, j in pairs:
        ni, nj = negatives[i], negatives[j]
        exponents = np.concatenate([alpha - dist[i, ni], alpha - dist[j, nj]])
        shift = exponents.max()
        weights = np.exp(exponents - shift)
        z = weights.sum()
        jval = shift + np.log(z) + dist[i, j]
        if jval <= 0.0:
            continue
        total += jval * jval
        coeff = jval / n  # d/dJ of J^2/(2n)
        weights /= z
        wi, wj = weights[: ni.size], weights[ni.size :]
        # d J / d D(i,j) = 1
        grad[i] += coeff * units[i, j]
        grad[j] -= coeff * units[i, j]
        # d J / d D(i,k) = -w_ik, likewise for the j side; negatives are
        # distinct, so plain fancy-index += scatters them
        ui = units[i, ni]
        grad[i] -= coeff * (wi[:, None] * ui).sum(axis=0)
        grad[ni] += coeff * wi[:, None] * ui
        uj = units[j, nj]
        grad[j] -= coeff * (wj[:, None] * uj).sum(axis=0)
        grad[nj] += coeff * wj[:, None] * uj
    return total / (2.0 * n), grad


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
    pairs, negatives = _mine(y)
    sims = pairwise_similarities(batch)

    n = len(pairs)
    total = 0.0
    grad = np.zeros_like(emb)
    for i, j in pairs:
        ni = negatives[i]
        scores = np.concatenate([[sims[i, j]], sims[i, ni]])
        shift = scores.max()
        expd = np.exp(scores - shift)
        z = expd.sum()
        total += shift + np.log(z) - sims[i, j]
        probs = expd / z
        # d term / d S(i,j) = p_j - 1; d term / d S(i,k) = p_k
        grad[i] += (probs[0] - 1.0) * emb[j]
        grad[j] += (probs[0] - 1.0) * emb[i]
        grad[i] += probs[1:] @ emb[ni]
        grad[ni] += probs[1:, None] * emb[i]
    total /= n
    grad /= n

    if reg_lambda != 0.0:
        norms = np.linalg.norm(emb, axis=1)
        if np.any(norms <= ZERO_NORM_TOL):
            bad = int(np.argmax(norms <= ZERO_NORM_TOL))
            raise DegenerateRowError(f"row {bad} has zero norm; norm penalty gradient undefined")
        total += reg_lambda / m * norms.sum()
        grad += reg_lambda / m * (emb / norms[:, None])
    return float(total), grad
