"""Independent reference implementations used as test oracles.

Everything here is written as a literal transcription of the defining
formula, favoring double loops over vectorization, so a shared bug with
the package code is unlikely.
"""

import numpy as np

from clusterembed.embedding_ops import (
    ZERO_NORM_TOL,
    EmbeddingBatch,
    pairwise_distances,
    pairwise_similarities,
    pairwise_squared_distances,
)
from clusterembed.errors import DegenerateRowError, InvalidInputError
from clusterembed.facility import assign
from clusterembed.inference import InferenceResult, label_medoids
from clusterembed.metrics import margin


def dist_oracle(emb: np.ndarray) -> np.ndarray:
    m = emb.shape[0]
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            out[i, j] = np.sqrt(np.sum((emb[i] - emb[j]) ** 2))
    return out


def facility_oracle(dist: np.ndarray, medoids) -> float:
    total = 0.0
    for i in range(dist.shape[0]):
        total += min(dist[i, j] for j in medoids)
    return -total


def oracle_score_oracle(dist: np.ndarray, y: np.ndarray) -> tuple[float, list[int]]:
    """Best single within-class medoid per class, ties to the smallest index."""
    total = 0.0
    medoids = []
    for c in sorted(set(int(v) for v in y)):
        members = [i for i in range(len(y)) if y[i] == c]
        best_val, best_j = -np.inf, None
        for j in members:
            val = -sum(dist[i, j] for i in members)
            if val > best_val:
                best_val, best_j = val, j
        total += best_val
        medoids.append(best_j)
    return total, medoids


def nmi_oracle(y1: np.ndarray, y2: np.ndarray) -> float:
    """NMI from the textbook definition, natural log, geometric-mean
    normalization. Zero-entropy convention: 1 if identical partitions,
    else 0."""
    y1 = np.asarray(y1)
    y2 = np.asarray(y2)
    m = len(y1)
    cs1 = sorted(set(y1.tolist()))
    cs2 = sorted(set(y2.tolist()))

    def entropy(y, cs):
        h = 0.0
        for c in cs:
            p = np.sum(y == c) / m
            h -= p * np.log(p)
        return h

    h1, h2 = entropy(y1, cs1), entropy(y2, cs2)
    if h1 == 0.0 or h2 == 0.0:
        groups1 = [tuple(np.flatnonzero(y1 == c).tolist()) for c in cs1]
        groups2 = [tuple(np.flatnonzero(y2 == c).tolist()) for c in cs2]
        return 1.0 if sorted(groups1) == sorted(groups2) else 0.0
    mi = 0.0
    for u in cs1:
        for v in cs2:
            pij = np.sum((y1 == u) & (y2 == v)) / m
            if pij > 0:
                pi = np.sum(y1 == u) / m
                pj = np.sum(y2 == v) / m
                mi += pij * np.log(pij / (pi * pj))
    return mi / np.sqrt(h1 * h2)


# The scalar NMI as a float formula over the per-pair table, with the table
# helpers it used, kept verbatim. The package's ``nmi`` and ``margin`` sum
# exact fixed-point integers instead: ``nmi`` is held within 1e-14 of it,
# and ``margin``, which the inference references above call, within 1e-12
# of 1 minus it.


def _contingency_table(y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    y1 = np.asarray(y1, dtype=np.intp)
    y2 = np.asarray(y2, dtype=np.intp)
    c1 = int(y1.max()) + 1
    c2 = int(y2.max()) + 1
    flat = y1 * c2 + y2
    return np.bincount(flat, minlength=c1 * c2).reshape(c1, c2)


def _one_to_one(table: np.ndarray) -> bool:
    cells = np.count_nonzero(table)
    return cells == np.count_nonzero(table.any(axis=1)) == np.count_nonzero(table.any(axis=0))


def _compact_ids(y: np.ndarray, limit: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.intp)
    low = int(y.min())
    if int(y.max()) - low < limit:
        return y - low
    return np.unique(y, return_inverse=True)[1].reshape(y.shape)


def _compact_table(y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    y1 = np.asarray(y1)
    y2 = np.asarray(y2)
    return _contingency_table(_compact_ids(y1, y1.size), _compact_ids(y2, y2.size))


def _entropy(counts: np.ndarray, m: int) -> float:
    p = counts[counts > 0] / m
    return -float(np.sum(p * np.log(p)))


def nmi_reference(y1: np.ndarray, y2: np.ndarray) -> float:
    y1 = np.asarray(y1)
    y2 = np.asarray(y2)
    if y1.shape != y2.shape or y1.ndim != 1:
        raise InvalidInputError(f"label shape mismatch: {y1.shape} vs {y2.shape}")
    if y1.size == 0:
        raise InvalidInputError("labels must be nonempty")
    joint = _compact_table(y1, y2)
    if _one_to_one(joint):
        return 1.0
    m = y1.size
    row = joint.sum(axis=1)
    col = joint.sum(axis=0)
    h1 = _entropy(row, m)
    h2 = _entropy(col, m)
    if h1 == 0.0 or h2 == 0.0:
        return 0.0
    nz_i, nz_j = np.nonzero(joint)
    counts = joint[nz_i, nz_j]
    # p_ij log(p_ij / (p_i p_j)) with p = count / m throughout
    mi = float(np.sum(counts / m * np.log(counts * m / (row[nz_i] * col[nz_j]))))
    return min(max(mi / np.sqrt(h1 * h2), 0.0), 1.0)


def canonical_partition(y: np.ndarray) -> np.ndarray:
    """Relabel by order of first appearance; equal arrays <=> equal partitions."""
    first_seen = {}
    out = np.empty(len(y), dtype=np.intp)
    for i, v in enumerate(np.asarray(y).tolist()):
        if v not in first_seen:
            first_seen[v] = len(first_seen)
        out[i] = first_seen[v]
    return out


def recall_at_k_reference(dist: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Recall@K read from a given matrix: each row's other points sorted by
    (distance, index), self excluded, and a hit where the first K hold a
    point of the row's class."""
    m = len(labels)
    hits = 0
    for i in range(m):
        order = sorted((j for j in range(m) if j != i), key=lambda j: (dist[i, j], j))
        if any(labels[j] == labels[i] for j in order[:k]):
            hits += 1
    return hits / m


def recall_at_k_oracle(emb: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Recall@K of embeddings, ranked on the loop distances of ``dist_oracle``."""
    return recall_at_k_reference(dist_oracle(emb), labels, k)


def nearest_other_reference(dist: np.ndarray, medoids, pos: int) -> tuple[np.ndarray, list]:
    """Each point's cost from its nearest medoid other than the one at
    position ``pos``, read from the other medoids' rows ``dist[s, :]``, and
    that medoid's position in ``medoids``, ties to the smallest position.
    With no other medoid the cost is inf and the position None."""
    costs, positions = np.full(dist.shape[0], np.inf), [None] * dist.shape[0]
    for i in range(dist.shape[0]):
        for p, s in enumerate(medoids):
            if p != pos and (positions[i] is None or dist[s, i] < costs[i]):
                costs[i], positions[i] = dist[s, i], p
    return costs, positions


def greedy_reference(dist: np.ndarray, y_star: np.ndarray, gamma: float) -> InferenceResult:
    """Greedy inference as first written: running nearest-medoid state and
    one margin call per candidate. Kept as the regression reference for the
    batched candidate scoring. It reads medoid columns ``dist[:, j]``
    throughout, so the package on a matrix matches it on the transpose."""
    m = dist.shape[0]
    num_classes = int(np.max(y_star)) + 1
    chosen: list[int] = []
    trace: list[float] = []
    in_set = np.zeros(m, dtype=bool)
    best_dist = np.full(m, np.inf)
    best_pos = np.zeros(m, dtype=np.intp)
    for step in range(num_classes):
        cands = np.flatnonzero(~in_set)
        new_dist = np.minimum(best_dist[:, None], dist[:, cands])
        scores = -new_dist.sum(axis=0)
        if gamma != 0.0:
            for idx, cand in enumerate(cands):
                closer = dist[:, cand] < best_dist
                cand_assign = np.where(closer, step, best_pos)
                scores[idx] += gamma * margin(cand_assign, y_star)
        best = int(np.argmax(scores))
        pick = int(cands[best])
        chosen.append(pick)
        in_set[pick] = True
        closer = dist[:, pick] < best_dist
        best_pos = np.where(closer, step, best_pos)
        best_dist = np.minimum(best_dist, dist[:, pick])
        trace.append(float(scores[best]))
    medoids = tuple(chosen)
    return InferenceResult(
        medoids=medoids,
        assignment=best_pos.copy(),
        objective=label_medoids(dist.T, medoids, y_star, gamma).objective,
        trace=trace,
    )


def pam_refine_reference(
    dist: np.ndarray, y_star: np.ndarray, initial_medoids, gamma: float, max_sweeps: int,
    candidate_pool: str,
) -> InferenceResult:
    """Swap refinement as first written: one full ``assign`` per candidate
    swap. Kept as the regression reference for the batched candidate scoring.
    A position's candidates are its pool (the cluster's members or the whole
    batch) plus its own medoid, less the other positions' medoids; a
    position whose only candidate is its own medoid keeps it unscored.
    It reads medoid columns ``dist[:, j]`` throughout, so the package on a
    matrix matches it on the transpose."""
    m = dist.shape[0]
    num_classes = int(np.max(y_star)) + 1
    medoids = [int(i) for i in initial_medoids]
    trace: list[float] = []
    for _ in range(max_sweeps):
        labels = assign(dist.T, medoids)
        changed = False
        for k in range(num_classes):
            members = np.flatnonzero(labels == k)
            pool = members if candidate_pool == "cluster" else np.arange(m)
            other_medoids = set(medoids) - {medoids[k]}
            cands = np.union1d(pool, [medoids[k]])
            cands = cands[~np.isin(cands, list(other_medoids))]
            if cands.size == 1:
                continue
            if candidate_pool == "cluster":
                scores = -dist[np.ix_(members, cands)].sum(axis=0)
            else:
                others = [medoids[p] for p in range(num_classes) if p != k]
                other_min = dist[:, others].min(axis=1) if others else np.full(m, np.inf)
                scores = -np.minimum(other_min[:, None], dist[:, cands]).sum(axis=0)
            if gamma != 0.0:
                trial = list(medoids)
                for idx, cand in enumerate(cands):
                    trial[k] = int(cand)
                    scores[idx] += gamma * margin(assign(dist.T, trial), y_star)
            pick = int(cands[int(np.argmax(scores))])
            if pick != medoids[k]:
                medoids[k] = pick
                changed = True
        trace.append(label_medoids(dist.T, medoids, y_star, gamma).objective)
        if not changed:
            break
    final = tuple(medoids)
    return InferenceResult(
        medoids=final,
        assignment=assign(dist.T, final),
        objective=trace[-1],
        trace=trace,
    )


def triplet_oracle(emb: np.ndarray, y: np.ndarray, alpha: float) -> float:
    """Semi-hard triplet loss over ordered positive pairs, squared distances."""
    m = len(y)
    d2 = dist_oracle(emb) ** 2
    terms = []
    for i in range(m):
        for j in range(m):
            if i == j or y[i] != y[j]:
                continue
            negs = [k for k in range(m) if y[k] != y[i]]
            semi = [k for k in negs if d2[i, k] > d2[i, j]]
            if semi:
                k_star = min(semi, key=lambda k: (d2[i, k], k))
            else:
                k_star = max(negs, key=lambda k: (d2[i, k], -k))
            terms.append(max(0.0, d2[i, j] + alpha - d2[i, k_star]))
    return sum(terms) / len(terms)


def lifted_oracle(emb: np.ndarray, y: np.ndarray, alpha: float) -> float:
    """Lifted structured loss, literal formula, no log-sum-exp shift."""
    m = len(y)
    dist = dist_oracle(emb)
    terms = []
    for i in range(m):
        for j in range(m):
            if i == j or y[i] != y[j]:
                continue
            inner = sum(np.exp(alpha - dist[i, k]) for k in range(m) if y[k] != y[i])
            inner += sum(np.exp(alpha - dist[j, l]) for l in range(m) if y[l] != y[j])
            jval = np.log(inner) + dist[i, j]
            terms.append(max(0.0, jval) ** 2)
    return sum(terms) / (2 * len(terms))


def npairs_oracle(emb: np.ndarray, y: np.ndarray, lam: float) -> float:
    """N-pairs loss: softmax cross-entropy over dot products plus the
    unsquared-norm penalty."""
    m = len(y)
    sims = emb @ emb.T
    terms = []
    for i in range(m):
        for j in range(m):
            if i == j or y[i] != y[j]:
                continue
            denom = np.exp(sims[i, j]) + sum(
                np.exp(sims[i, k]) for k in range(m) if y[k] != y[i]
            )
            terms.append(-np.log(np.exp(sims[i, j]) / denom))
    reg = lam / m * sum(np.sqrt(np.sum(emb[i] ** 2)) for i in range(m))
    return sum(terms) / len(terms) + reg


def squared_distances_broadcast(emb: np.ndarray) -> np.ndarray:
    """Squared distances from one m x m x d broadcast difference tensor."""
    diff = emb[:, None, :] - emb[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


# The three comparison losses as first written: per-pair unit rows and
# np.add.at scatters. Kept verbatim as the regression reference, within
# 1e-12, for the array versions in clusterembed.baselines.


def positive_pairs(y: np.ndarray) -> list[tuple[int, int]]:
    """Ordered same-label pairs (i, j), i != j, in row-major order."""
    y = np.asarray(y)
    same = y[:, None] == y[None, :]
    np.fill_diagonal(same, False)
    return list(map(tuple, np.argwhere(same).tolist()))


def _negatives_reference(y: np.ndarray) -> list[np.ndarray]:
    """Per-anchor arrays of indices with a different label."""
    y = np.asarray(y)
    return [np.flatnonzero(y != y[i]) for i in range(y.shape[0])]


def _check_batch_reference(pairs: list[tuple[int, int]], negatives: list[np.ndarray]) -> None:
    if not pairs:
        raise InvalidInputError("batch has no positive pairs")
    for i, j in pairs:
        if negatives[i].size == 0:
            raise InvalidInputError(f"anchor {i} has no negatives in the batch")
        if negatives[j].size == 0:
            raise InvalidInputError(f"anchor {j} has no negatives in the batch")


def triplet_semihard_loss_reference(
    batch: EmbeddingBatch, y: np.ndarray, alpha: float
) -> tuple[float, np.ndarray]:
    """Mean over ordered positive pairs of [D2(i,j) + alpha - D2(i,k*)]_+.

    k* is the semi-hard negative of the anchor i: the negative with the
    smallest squared distance still strictly greater than D2(i,j). When no
    negative satisfies the constraint the farthest negative is used
    instead. Gradients flow through the active hinge terms with k* frozen.
    """
    y = np.asarray(y)
    emb = batch.data
    pairs = positive_pairs(y)
    negatives = _negatives_reference(y)
    _check_batch_reference(pairs, negatives)
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


def _unit_rows_reference(emb: np.ndarray, anchor: int, others: np.ndarray, dist_row: np.ndarray) -> np.ndarray:
    """Rows (E_anchor - E_k) / D(anchor, k) with zero-distance rows zeroed."""
    diffs = emb[anchor] - emb[others]
    out = np.zeros_like(diffs)
    ok = dist_row > ZERO_NORM_TOL
    out[ok] = diffs[ok] / dist_row[ok, None]
    return out


def lifted_struct_loss_reference(
    batch: EmbeddingBatch, y: np.ndarray, alpha: float
) -> tuple[float, np.ndarray]:
    """Lifted structured loss in its smooth log-sum-exp form.

    For each ordered positive pair (i, j),

        J = log( sum_{k in N(i)} e^{alpha - D(i,k)}
               + sum_{l in N(j)} e^{alpha - D(j,l)} ) + D(i, j)

    and the loss is (1 / (2|P|)) * sum [J]_+^2 over unsquared distances.
    The log-sum-exp is max-shifted for stability; the analytic gradient
    chains through the softmax weights of the negative terms.
    """
    y = np.asarray(y)
    emb = batch.data
    pairs = positive_pairs(y)
    negatives = _negatives_reference(y)
    _check_batch_reference(pairs, negatives)
    dist = pairwise_distances(batch)

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
        u_ij = _unit_rows_reference(emb, i, np.array([j]), np.array([dist[i, j]]))[0]
        grad[i] += coeff * u_ij
        grad[j] -= coeff * u_ij
        # d J / d D(i,k) = -w_ik, likewise for the j side
        ui = _unit_rows_reference(emb, i, ni, dist[i, ni])
        grad[i] -= coeff * (wi[:, None] * ui).sum(axis=0)
        np.add.at(grad, ni, coeff * wi[:, None] * ui)
        uj = _unit_rows_reference(emb, j, nj, dist[j, nj])
        grad[j] -= coeff * (wj[:, None] * uj).sum(axis=0)
        np.add.at(grad, nj, coeff * wj[:, None] * uj)
    return total / (2.0 * n), grad


def npairs_loss_reference(
    batch: EmbeddingBatch, y: np.ndarray, reg_lambda: float
) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy over dot-product similarities plus a norm penalty.

    Each ordered positive pair (i, j) contributes
    -log( e^{S(i,j)} / (e^{S(i,j)} + sum_{k in N(i)} e^{S(i,k)}) ), averaged
    over |P|, plus (lambda / m) * sum_i ||E_i||_2 with the unsquared norm.
    Operates on raw (unnormalized) embeddings.
    """
    y = np.asarray(y)
    emb = batch.data
    m = emb.shape[0]
    pairs = positive_pairs(y)
    negatives = _negatives_reference(y)
    _check_batch_reference(pairs, negatives)
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
        np.add.at(grad, ni, probs[1:, None] * emb[i])
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


def facility_subgradient_reference(embeddings: np.ndarray, attachment: np.ndarray) -> np.ndarray:
    """Per-pair subgradient of sum_i -||E_i - E_{a(i)}|| w.r.t. E.

    ``attachment`` maps each point to the index of the point serving it.
    Each pair contributes the unit direction u = (E_i - E_{a(i)}) / ||.||,
    -u to row i and +u to row a(i); pairs at (numerically) zero distance
    contribute nothing. The clustering loss's gradient is this for the
    violator's attachment minus this for the oracle's.
    """
    diffs = embeddings - embeddings[attachment]
    norms = np.linalg.norm(diffs, axis=1)
    served = norms > ZERO_NORM_TOL
    units = np.zeros_like(diffs)
    units[served] = diffs[served] / norms[served, None]
    grad = -units
    np.add.at(grad, attachment, units)
    return grad


def central_diff_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, coordinatewise."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = grad.ravel()
    xflat = x.ravel()
    for idx in range(xflat.size):
        orig = xflat[idx]
        xflat[idx] = orig + h
        up = f(x)
        xflat[idx] = orig - h
        down = f(x)
        xflat[idx] = orig
        flat[idx] = (up - down) / (2 * h)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
