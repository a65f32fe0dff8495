"""Dense matrix primitives shared by every loss and inference routine.

Besides the pairwise matrices, this module turns a loss's m x m
coefficient matrix over them into the embedding gradient, and owns the
zero-norm rule: which rows cannot be normalized and which pairs are
coincident.

All functions are pure and operate on float64 arrays. Reductions rely on
numpy's deterministic pairwise summation, so identical inputs give bit
identical outputs regardless of thread settings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRowError, InvalidInputError

# Row norms at or below this are treated as degenerate (cannot be normalized).
ZERO_NORM_TOL = 1e-12

# Rows per block of the distance matrix: the difference buffer holds
# DISTANCE_BLOCK_ROWS x m x d floats (2.6 MB at m = 1,280, d = 16).
DISTANCE_BLOCK_ROWS = 16


@dataclass
class EmbeddingBatch:
    """m x d matrix of embedded points, one row per example."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise InvalidInputError(f"embedding batch must be 2-D, got shape {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise InvalidInputError("embedding batch contains non-finite entries")

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def pairwise_distances(batch: EmbeddingBatch) -> np.ndarray:
    """Unsquared Euclidean distance matrix D[i, j] = ||E_i - E_j||.

    Computed from explicit row differences (not the dot-product identity),
    which makes the result exactly symmetric with an exactly zero diagonal.
    """
    squared = pairwise_squared_distances(batch)
    return np.sqrt(squared, out=squared)


def pairwise_squared_distances(batch: EmbeddingBatch) -> np.ndarray:
    """Squared Euclidean distance matrix; the triplet loss uses this form.

    Filled a block of rows at a time through one reused difference buffer;
    a fresh buffer per block would make the allocator map pages per call.
    Each block of rows computes only the columns from its first row on,
    then copies the part right of its own columns, transposed, into the
    rows below: (a - b)^2 == (b - a)^2 and the sum over the dimensions
    keeps its order, so every entry has the bits a direct computation gives.
    """
    e = batch.data
    m, d = e.shape
    out = np.empty((m, m))
    buffer = np.empty(min(DISTANCE_BLOCK_ROWS, m) * m * d)
    for lo in range(0, m, DISTANCE_BLOCK_ROWS):
        hi = min(lo + DISTANCE_BLOCK_ROWS, m)
        rows = buffer[: (hi - lo) * (m - lo) * d].reshape(hi - lo, m - lo, d)
        np.subtract(e[lo:hi, None, :], e[None, lo:, :], out=rows)
        np.einsum("ijk,ijk->ij", rows, rows, out=out[lo:hi, lo:])
        out[hi:, lo:hi] = out[lo:hi, hi:].T
    return out


def pairwise_similarities(batch: EmbeddingBatch) -> np.ndarray:
    """Dot-product matrix S[i, j] = E_i . E_j."""
    e = batch.data
    return e @ e.T


def pair_grad(coeff: np.ndarray, emb: np.ndarray) -> np.ndarray:
    """Gradient of (1/2) sum_ab C[a, b] ||E_a - E_b||^2 for the coefficient
    matrix C = ``coeff``: row a is sum_b (C[a, b] + C[b, a]) (E_a - E_b)."""
    w = coeff + coeff.T
    return w.sum(axis=1)[:, None] * emb - w @ emb


def distance_grad(coeff: np.ndarray, dist: np.ndarray, emb: np.ndarray) -> np.ndarray:
    """Gradient of sum_ab C[a, b] D[a, b] over the unsquared distances
    ``dist`` of ``emb``. Coincident pairs (D <= ZERO_NORM_TOL) pass no
    gradient, the canonical subgradient at the kink of the norm."""
    per_dist = np.divide(coeff, dist, out=np.zeros_like(coeff), where=dist > ZERO_NORM_TOL)
    return pair_grad(per_dist, emb)


def row_norms(rows: np.ndarray, action: str) -> np.ndarray:
    """Euclidean norm of every row. Raises DegenerateRowError, naming the
    first row with norm <= ZERO_NORM_TOL and the ``action`` that would
    divide by it, rather than silently emitting NaN."""
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms <= ZERO_NORM_TOL):
        bad = int(np.argmax(norms <= ZERO_NORM_TOL))
        raise DegenerateRowError(f"row {bad} has norm {norms[bad]:.3e}, cannot {action}")
    return norms


def l2_normalize_rows(batch: EmbeddingBatch) -> EmbeddingBatch:
    """Scale every row to unit Euclidean norm; zero rows raise."""
    norms = row_norms(batch.data, "normalize")
    return EmbeddingBatch(batch.data / norms[:, None])


def l2_normalize_rows_backward(x_rows: np.ndarray, upstream_rows: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product of row normalization ``x -> x / ||x||``.

    Each row returns J^T u with J = (I - u u^T) / ||x||, u = x / ||x||: the
    radial component of the upstream row is annihilated and the tangent part
    is scaled by 1 / ||x||.
    """
    norms = row_norms(x_rows, "differentiate")
    u = x_rows / norms[:, None]
    radial = np.einsum("ij,ij->i", u, upstream_rows)
    return (upstream_rows - u * radial[:, None]) / norms[:, None]
