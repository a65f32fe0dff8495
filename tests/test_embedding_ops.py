import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clusterembed.embedding_ops import (
    DISTANCE_BLOCK_ROWS,
    EmbeddingBatch,
    l2_normalize_rows,
    l2_normalize_rows_backward,
    pairwise_distances,
    pairwise_similarities,
    pairwise_squared_distances,
)
from clusterembed.errors import DegenerateRowError, InvalidInputError

from oracles import central_diff_grad, dist_oracle, rel_err, squared_distances_broadcast

finite_rows = arrays(
    np.float64,
    st.tuples(st.integers(2, 8), st.integers(1, 5)),
    elements=st.floats(-10, 10, allow_nan=False),
)


def test_batch_coerces_and_validates():
    b = EmbeddingBatch(np.array([[1, 2], [3, 4]], dtype=np.float32))
    assert b.data.dtype == np.float64
    assert (b.m, b.dim) == (2, 2)
    with pytest.raises(InvalidInputError):
        EmbeddingBatch(np.zeros(3))
    with pytest.raises(InvalidInputError):
        EmbeddingBatch(np.array([[np.nan, 0.0]]))


def test_distances_match_double_loop_oracle():
    rng = np.random.default_rng(7)
    emb = rng.normal(size=(12, 4))
    dist = pairwise_distances(EmbeddingBatch(emb))
    assert rel_err(dist, dist_oracle(emb)).max() < 1e-12


def test_distances_exact_symmetry_and_zero_diagonal():
    rng = np.random.default_rng(8)
    emb = rng.normal(size=(20, 6)) * 100
    dist = pairwise_distances(EmbeddingBatch(emb))
    assert np.array_equal(dist, dist.T)
    assert np.all(np.diag(dist) == 0.0)
    assert np.all(dist >= 0.0)


def test_squared_distances_are_squares():
    rng = np.random.default_rng(9)
    emb = rng.normal(size=(9, 3))
    b = EmbeddingBatch(emb)
    assert rel_err(pairwise_squared_distances(b), pairwise_distances(b) ** 2).max() < 1e-12


def test_row_blocks_equal_one_shot_broadcast():
    rng = np.random.default_rng(10)
    # one row, whole blocks only, a ragged last block, and the held-out
    # size with and without a ragged last block: the mirrored lower
    # triangle must have the bits of a direct computation
    for m in (1, 2 * DISTANCE_BLOCK_ROWS, 2 * DISTANCE_BLOCK_ROWS + 5, 1280, 1283):
        for emb in (rng.normal(size=(m, 7)) * 30, np.round(rng.normal(size=(m, 3)))):
            d2 = pairwise_squared_distances(EmbeddingBatch(emb))
            assert np.array_equal(d2, squared_distances_broadcast(emb))
            assert np.array_equal(d2, d2.T)
            assert np.all(np.diag(d2) == 0.0)


def test_similarities_are_dot_products():
    rng = np.random.default_rng(10)
    emb = rng.normal(size=(7, 5))
    sims = pairwise_similarities(EmbeddingBatch(emb))
    for i in range(7):
        for j in range(7):
            assert sims[i, j] == pytest.approx(float(emb[i] @ emb[j]), rel=1e-12)


@settings(deadline=None)
@given(finite_rows)
def test_triangle_inequality(emb):
    dist = pairwise_distances(EmbeddingBatch(emb))
    m = dist.shape[0]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                assert dist[i, j] <= dist[i, k] + dist[k, j] + 1e-9


def test_normalize_rows():
    rng = np.random.default_rng(11)
    emb = rng.normal(size=(6, 4)) * 3
    out = l2_normalize_rows(EmbeddingBatch(emb))
    norms = np.linalg.norm(out.data, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    # direction preserved: positive multiple of the input row
    scale = np.linalg.norm(emb, axis=1)
    assert np.allclose(out.data * scale[:, None], emb, atol=1e-12)


def test_normalize_rejects_zero_row():
    emb = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateRowError):
        l2_normalize_rows(EmbeddingBatch(emb))


def test_normalize_backward_matches_finite_differences():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(5, 3)) + 0.5
    upstream = rng.normal(size=(5, 3))

    def scalar(x_in):
        normed = x_in / np.linalg.norm(x_in, axis=1, keepdims=True)
        return float(np.sum(upstream * normed))

    analytic = l2_normalize_rows_backward(x, upstream)
    numeric = central_diff_grad(scalar, x.copy())
    assert rel_err(analytic, numeric).max() < 1e-6
