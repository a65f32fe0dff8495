import numpy as np
import pytest

from clusterembed.baselines import lifted_struct_loss, npairs_loss, triplet_semihard_loss
from clusterembed.embedding_ops import EmbeddingBatch
from clusterembed.errors import DegenerateRowError, InvalidInputError

from oracles import (
    central_diff_grad,
    lifted_oracle,
    lifted_struct_loss_reference,
    npairs_loss_reference,
    npairs_oracle,
    positive_pairs,
    rel_err,
    triplet_oracle,
    triplet_semihard_loss_reference,
)


def random_batch(rng, m=8, num_classes=3, d=3):
    y = rng.integers(0, num_classes, size=m)
    y[: 2 * num_classes] = np.repeat(np.arange(num_classes), 2)  # every class has a pair
    emb = rng.normal(size=(m, d))
    return emb, y


def test_positive_pairs_ordered_row_major():
    pairs = positive_pairs(np.array([0, 1, 0, 1]))
    assert pairs == [(0, 2), (1, 3), (2, 0), (3, 1)]


def test_triplet_frozen_line_example():
    emb = np.array([[0.0], [0.5], [1.0]])
    y = np.array([0, 0, 1])
    value, _ = triplet_semihard_loss(EmbeddingBatch(emb), y, alpha=1.0)
    # pair (0,1): semi-hard negative 2 -> [0.25 + 1 - 1]+ = 0.25
    # pair (1,0): no negative beyond 0.25 -> farthest fallback -> [0.25 + 1 - 0.25]+ = 1.0
    assert value == pytest.approx(0.625, abs=1e-12)


def test_triplet_coincident_batch_gives_alpha():
    emb = np.zeros((4, 2))
    y = np.array([0, 0, 1, 1])
    value, _ = triplet_semihard_loss(EmbeddingBatch(emb), y, alpha=0.7)
    assert value == pytest.approx(0.7, abs=1e-12)


def test_triplet_inactive_hinge_zero_loss_and_grad():
    emb = np.array([[0.0, 0], [0.0, 0], [100.0, 0], [100.0, 0]])
    y = np.array([0, 0, 1, 1])
    value, grad = triplet_semihard_loss(EmbeddingBatch(emb), y, alpha=0.5)
    assert value == 0.0
    assert np.all(grad == 0.0)


def test_triplet_semihard_pick_is_a_negative_at_infinite_distance():
    # the only negative lies at an overflowed (inf) squared distance: the
    # semi-hard pick must still be that negative, not the first index of
    # the all-inf masked row (the anchor), so both hinges are off
    emb = np.array([[0.0], [1.0], [1e200]])
    y = np.array([0, 0, 1])
    value, grad = triplet_semihard_loss(EmbeddingBatch(emb), y, alpha=0.5)
    ref_value, ref_grad = triplet_semihard_loss_reference(EmbeddingBatch(emb), y, 0.5)
    assert value == ref_value == 0.0
    assert np.array_equal(grad, ref_grad)


def test_triplet_matches_oracle_on_random_batches():
    rng = np.random.default_rng(40)
    for _ in range(10):
        emb, y = random_batch(rng)
        value, _ = triplet_semihard_loss(EmbeddingBatch(emb), y, alpha=0.8)
        assert value == pytest.approx(triplet_oracle(emb, y, 0.8), rel=1e-10)


def test_triplet_gradient_matches_finite_differences():
    rng = np.random.default_rng(41)
    for _ in range(5):
        emb, y = random_batch(rng, m=6, num_classes=2)
        _, grad = triplet_semihard_loss(EmbeddingBatch(emb), y, alpha=0.8)
        numeric = central_diff_grad(
            lambda e: triplet_oracle(e, y, 0.8), emb.copy()
        )
        assert rel_err(grad, numeric).max() < 1e-5


def test_lifted_matches_literal_oracle():
    rng = np.random.default_rng(42)
    emb = rng.normal(size=(4, 1))
    y = np.array([0, 0, 1, 1])
    value, _ = lifted_struct_loss(EmbeddingBatch(emb), y, alpha=1.0)
    assert value == pytest.approx(lifted_oracle(emb, y, 1.0), rel=1e-10)
    for _ in range(10):
        emb, y = random_batch(rng)
        value, _ = lifted_struct_loss(EmbeddingBatch(emb), y, alpha=1.0)
        assert value == pytest.approx(lifted_oracle(emb, y, 1.0), rel=1e-10)


def test_lifted_inactive_hinge():
    emb = np.array([[0.0, 0], [0.0, 0], [50.0, 0], [50.0, 0]])
    y = np.array([0, 0, 1, 1])
    value, grad = lifted_struct_loss(EmbeddingBatch(emb), y, alpha=1.0)
    assert value == 0.0
    assert np.all(grad == 0.0)


def test_lifted_symmetric_under_class_role_swap():
    rng = np.random.default_rng(43)
    emb = rng.normal(size=(6, 2))
    y = np.array([0, 0, 0, 1, 1, 1])
    a, _ = lifted_struct_loss(EmbeddingBatch(emb), y, alpha=1.0)
    b, _ = lifted_struct_loss(EmbeddingBatch(emb), 1 - y, alpha=1.0)
    assert a == pytest.approx(b, rel=1e-12)


def test_lifted_gradient_matches_finite_differences():
    rng = np.random.default_rng(44)
    for _ in range(5):
        emb, y = random_batch(rng, m=6, num_classes=2)
        _, grad = lifted_struct_loss(EmbeddingBatch(emb), y, alpha=1.0)
        numeric = central_diff_grad(lambda e: lifted_oracle(e, y, 1.0), emb.copy())
        assert rel_err(grad, numeric).max() < 1e-5


def test_npairs_frozen_orthonormal_example():
    # orthonormal rows: all off-diagonal similarities 0, diagonals unused
    emb = np.eye(4)
    y = np.array([0, 0, 1, 1])
    value, _ = npairs_loss(EmbeddingBatch(emb), y, reg_lambda=0.0)
    assert value == pytest.approx(np.log(3.0), abs=1e-12)


def test_npairs_regularizer_on_unit_rows_adds_lambda():
    emb = np.eye(4)
    y = np.array([0, 0, 1, 1])
    base, _ = npairs_loss(EmbeddingBatch(emb), y, reg_lambda=0.0)
    reg, _ = npairs_loss(EmbeddingBatch(emb), y, reg_lambda=0.25)
    assert reg - base == pytest.approx(0.25, abs=1e-12)


def test_npairs_matches_oracle_and_finite_differences():
    rng = np.random.default_rng(45)
    for _ in range(5):
        emb, y = random_batch(rng, m=6, num_classes=2)
        value, grad = npairs_loss(EmbeddingBatch(emb), y, reg_lambda=0.1)
        assert value == pytest.approx(npairs_oracle(emb, y, 0.1), rel=1e-10)
        numeric = central_diff_grad(lambda e: npairs_oracle(e, y, 0.1), emb.copy())
        assert rel_err(grad, numeric).max() < 1e-5


def test_npairs_rejects_zero_norm_row_with_regularizer():
    emb = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    with pytest.raises(DegenerateRowError):
        npairs_loss(EmbeddingBatch(emb), y, reg_lambda=0.5)
    value, _ = npairs_loss(EmbeddingBatch(emb), y, reg_lambda=0.0)  # fine without
    assert np.isfinite(value)


def test_translation_invariance_where_promised():
    rng = np.random.default_rng(46)
    emb, y = random_batch(rng)
    shift = emb + np.array([5.0, -3.0, 2.0])
    t0, _ = triplet_semihard_loss(EmbeddingBatch(emb), y, alpha=0.8)
    t1, _ = triplet_semihard_loss(EmbeddingBatch(shift), y, alpha=0.8)
    assert t1 == pytest.approx(t0, abs=1e-9)
    l0, _ = lifted_struct_loss(EmbeddingBatch(emb), y, alpha=1.0)
    l1, _ = lifted_struct_loss(EmbeddingBatch(shift), y, alpha=1.0)
    assert l1 == pytest.approx(l0, abs=1e-9)
    n0, _ = npairs_loss(EmbeddingBatch(emb), y, reg_lambda=0.0)
    n1, _ = npairs_loss(EmbeddingBatch(shift), y, reg_lambda=0.0)
    assert abs(n1 - n0) > 1e-6  # dot products are not translation invariant


def test_permutation_invariance():
    rng = np.random.default_rng(47)
    emb, y = random_batch(rng)
    perm = rng.permutation(len(y))
    for loss, arg in (
        (triplet_semihard_loss, 0.8),
        (lifted_struct_loss, 1.0),
        (npairs_loss, 0.1),
    ):
        a, _ = loss(EmbeddingBatch(emb), y, arg)
        b, _ = loss(EmbeddingBatch(emb[perm]), y[perm], arg)
        assert b == pytest.approx(a, abs=1e-9)


def test_nonnegative_losses():
    rng = np.random.default_rng(48)
    for _ in range(10):
        emb, y = random_batch(rng)
        assert triplet_semihard_loss(EmbeddingBatch(emb), y, 0.5)[0] >= 0.0
        assert lifted_struct_loss(EmbeddingBatch(emb), y, 1.0)[0] >= 0.0
        assert npairs_loss(EmbeddingBatch(emb), y, 0.1)[0] >= 0.0


def test_degenerate_label_guards():
    emb = np.random.default_rng(49).normal(size=(4, 2))
    for loss, arg in (
        (triplet_semihard_loss, 0.5),
        (lifted_struct_loss, 1.0),
        (npairs_loss, 0.1),
    ):
        with pytest.raises(InvalidInputError, match="no positive pairs"):
            loss(EmbeddingBatch(emb), np.array([0, 1, 2, 3]), arg)
        with pytest.raises(InvalidInputError, match="single class"):
            loss(EmbeddingBatch(emb), np.array([1, 1, 1, 1]), arg)


def _reference_batches():
    """300 random batches, then paper-shaped ones: m = 128 in 32 classes of
    4 at d = 16, raw and unit rows, and one batch of unequal class sizes."""
    rng = np.random.default_rng(50)
    for trial in range(300):
        m = int(rng.integers(3, 41))
        num_classes = int(rng.integers(2, 8))
        y = rng.integers(0, num_classes, size=m)
        y[:3] = [0, 0, 1]  # at least one pair and two classes
        emb = rng.normal(size=(m, int(rng.integers(1, 17)))) * rng.uniform(0.2, 3.0)
        if trial % 5 == 0:
            emb = np.round(emb)  # coincident points, zero distances
        elif trial % 3 == 0:
            emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        yield EmbeddingBatch(emb), y, rng
    paper_y = np.repeat(np.arange(32), 4)
    raw = rng.normal(size=(128, 16))
    yield EmbeddingBatch(raw), paper_y, rng
    unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    yield EmbeddingBatch(unit), paper_y, rng
    uneven_y = np.repeat(np.arange(8), [2, 3, 5, 8, 13, 21, 34, 42])
    yield EmbeddingBatch(rng.normal(size=(128, 16))), uneven_y, rng


def _within(new, ref):
    return np.all(np.abs(np.asarray(new) - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_per_batch_losses_match_per_pair_reference_within_1e_12():
    # the array losses sum in another order than the per-pair loops, so
    # values and gradient entries agree to rounding, not bit for bit
    for batch, y, rng in _reference_batches():
        lam = 0.1 if np.all(np.linalg.norm(batch.data, axis=1) > 0.0) else 0.0
        for loss, reference, arg in (
            (triplet_semihard_loss, triplet_semihard_loss_reference, rng.uniform(0.1, 2.0)),
            (lifted_struct_loss, lifted_struct_loss_reference, rng.uniform(0.1, 2.0)),
            (npairs_loss, npairs_loss_reference, lam),
        ):
            value, grad = loss(batch, y, arg)
            ref_value, ref_grad = reference(batch, y, arg)
            assert _within(value, ref_value), (loss.__name__, value, ref_value)
            assert grad.shape == ref_grad.shape
            assert _within(grad, ref_grad), (loss.__name__, np.abs(grad - ref_grad).max())
