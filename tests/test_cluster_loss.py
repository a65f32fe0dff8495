import numpy as np
import pytest

from clusterembed.cluster_loss import clustering_loss
from clusterembed.embedding_ops import EmbeddingBatch, distance_grad, pairwise_distances
from clusterembed.errors import InvalidInputError
from clusterembed.facility import oracle_score
from clusterembed.inference import brute_force_inference
from clusterembed.metrics import margin

from oracles import central_diff_grad, facility_subgradient_reference, rel_err


def random_labeled(rng, m=8, num_classes=3, d=3, spread=1.0):
    y = rng.integers(0, num_classes, size=m)
    y[:num_classes] = np.arange(num_classes)
    emb = rng.normal(size=(m, d)) * spread
    return emb, y


def facility_subgradient(emb, attachment):
    """distance_grad for the score sum_i -||E_i - E_{a(i)}||."""
    m = emb.shape[0]
    coeff = np.zeros((m, m))
    coeff[np.arange(m), attachment] = -1.0
    return distance_grad(coeff, pairwise_distances(EmbeddingBatch(emb)), emb)


def separated_instance():
    """Two tight clusters 100 apart: the oracle dominates any violator."""
    rng = np.random.default_rng(31)
    a = rng.normal(size=(4, 2)) * 0.01
    b = rng.normal(size=(4, 2)) * 0.01 + 100.0
    emb = np.concatenate([a, b])
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    return emb, y


def test_facility_subgradient_matches_finite_differences():
    rng = np.random.default_rng(30)
    emb, _ = random_labeled(rng)
    attachment = np.array([3, 3, 0, 3, 5, 5, 0, 0])

    def frozen_score(e):
        return -float(
            np.sum(np.linalg.norm(e - e[attachment], axis=1))
        )

    analytic = facility_subgradient(emb, attachment)
    numeric = central_diff_grad(frozen_score, emb.copy())
    assert rel_err(analytic, numeric).max() < 1e-6


def test_facility_subgradient_zero_distance_contributes_nothing():
    emb = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
    grad = facility_subgradient(emb, np.array([1, 0, 2]))
    assert np.all(grad == 0.0)


def test_facility_subgradient_rows_sum_to_zero():
    rng = np.random.default_rng(32)
    emb, _ = random_labeled(rng, m=10)
    attachment = rng.integers(0, 10, size=10)
    grad = facility_subgradient(emb, attachment)
    assert np.allclose(grad.sum(axis=0), 0.0, atol=1e-12)


def test_loss_zero_on_separated_clusters():
    emb, y = separated_instance()
    out = clustering_loss(EmbeddingBatch(emb), y, gamma=0.1)
    assert out.value == 0.0
    assert out.hinge_arg <= 0.0
    assert np.all(out.grad == 0.0)
    assert margin(out.violator.assignment, y) == 0.0


def test_loss_positive_with_large_margin_weight():
    emb, y = separated_instance()
    out = clustering_loss(EmbeddingBatch(emb), y, gamma=1000.0)
    # the margin reward dwarfs the facility drop, so a violator wins
    assert out.value > 0.0
    assert margin(out.violator.assignment, y) > 0.0
    assert not np.all(out.grad == 0.0)


def test_loss_value_is_clipped_hinge_argument():
    rng = np.random.default_rng(33)
    for trial in range(10):
        emb, y = random_labeled(rng)
        out = clustering_loss(EmbeddingBatch(emb), y, gamma=(0.0, 0.5, 2.0)[trial % 3])
        assert out.value == max(0.0, out.hinge_arg)
        assert out.value >= 0.0
        assert 0.0 <= margin(out.violator.assignment, y) <= 1.0
        assert len(out.oracle_medoids) == len(set(y.tolist()))
        assert len(out.violator.medoids) == len(set(y.tolist()))


def test_loss_gradient_matches_frozen_structure_finite_differences():
    rng = np.random.default_rng(34)
    active = 0
    for _ in range(5):
        emb, y = random_labeled(rng, m=8, num_classes=2)
        base = clustering_loss(EmbeddingBatch(emb), y, gamma=5.0)
        if base.hinge_arg <= 0.0:
            continue
        active += 1
        violator_attach = np.asarray(base.violator.medoids)[base.violator.assignment]
        oracle_attach = np.asarray(base.oracle_medoids)[y]

        def frozen(e):
            fv = -float(np.sum(np.linalg.norm(e - e[violator_attach], axis=1)))
            fo = -float(np.sum(np.linalg.norm(e - e[oracle_attach], axis=1)))
            return fv - fo

        numeric = central_diff_grad(frozen, emb.copy())
        # atol absorbs central-difference cancellation noise (~1e-10) on
        # coordinates whose exact gradient is zero
        np.testing.assert_allclose(base.grad, numeric, rtol=1e-6, atol=1e-8)
    assert active >= 3  # the check must not pass vacuously


def test_loss_gradient_zero_when_hinge_inactive():
    emb, y = separated_instance()
    out = clustering_loss(EmbeddingBatch(emb), y, gamma=0.0)
    assert out.value == 0.0
    assert np.all(out.grad == 0.0)


def test_hinge_argument_nonnegative_under_exact_inference():
    # with exact maximization the violator dominates the oracle arrangement
    rng = np.random.default_rng(35)
    for trial in range(20):
        emb, y = random_labeled(rng, m=8, num_classes=2)
        dist = pairwise_distances(EmbeddingBatch(emb))
        gamma = (0.0, 0.5, 2.0)[trial % 3]
        exact = brute_force_inference(dist, y, gamma)
        oracle_value, _ = oracle_score(dist, y)
        assert exact.objective - oracle_value >= -1e-9


def test_loss_deterministic():
    rng = np.random.default_rng(36)
    emb, y = random_labeled(rng)
    a = clustering_loss(EmbeddingBatch(emb), y, gamma=1.0)
    b = clustering_loss(EmbeddingBatch(emb), y, gamma=1.0)
    assert a.value == b.value
    assert np.array_equal(a.grad, b.grad)
    assert a.violator.medoids == b.violator.medoids


def test_loss_rejects_labels_that_are_not_dense_class_ids():
    emb, y = separated_instance()
    batch = EmbeddingBatch(emb)
    for bad in (np.full(8, -1), np.array([0, 0, 0, 0, 2, 2, 2, 2]), y[:7]):
        for gamma in (0.0, 1.0):
            with pytest.raises(InvalidInputError):
                clustering_loss(batch, bad, gamma)


def test_loss_rejects_a_gamma_that_is_not_finite_and_nonnegative():
    """max(0, nan) is 0, so a nan gamma gave loss 0.0 and no error."""
    emb, y = separated_instance()
    for gamma in (float("nan"), float("inf"), -1.0):
        with pytest.raises(InvalidInputError, match="gamma"):
            clustering_loss(EmbeddingBatch(emb), y, gamma)


def _reference_batches():
    """Random batches, a third of them integer-rounded (coincident points,
    zero distances) and a third with unit rows, then paper-shaped ones:
    m = 128 in 32 classes of 4 at d = 16, raw and unit rows."""
    rng = np.random.default_rng(37)
    for trial in range(60):
        m = int(rng.integers(4, 25))
        emb, y = random_labeled(
            rng, m=m, num_classes=int(rng.integers(2, min(m, 6) + 1)),
            d=int(rng.integers(1, 9)), spread=rng.uniform(0.2, 3.0),
        )
        if trial % 3 == 0:
            emb = np.round(emb)
        elif trial % 3 == 1:
            emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        yield emb, y
    paper_y = np.repeat(np.arange(32), 4)
    raw = rng.normal(size=(128, 16))
    yield raw, paper_y
    yield raw / np.linalg.norm(raw, axis=1, keepdims=True), paper_y


def test_loss_gradient_matches_per_pair_reference_within_1e_12():
    # the coefficient-matrix gradient sums in another order than the
    # per-pair units, so entries agree to rounding, not bit for bit
    active = 0
    for emb, y in _reference_batches():
        for gamma in (0.0, 1.0):
            for pool in ("cluster", "all"):
                out = clustering_loss(EmbeddingBatch(emb), y, gamma, candidate_pool=pool)
                if out.hinge_arg <= 0.0:
                    assert np.all(out.grad == 0.0)
                    continue
                active += 1
                violator_attach = np.asarray(out.violator.medoids)[out.violator.assignment]
                oracle_attach = np.asarray(out.oracle_medoids)[y]
                ref = facility_subgradient_reference(emb, violator_attach)
                ref -= facility_subgradient_reference(emb, oracle_attach)
                err = np.abs(out.grad - ref)
                assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(ref))), err.max()
    assert active >= 220, active  # 236 of the 248 hinges are active
