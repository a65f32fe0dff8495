import numpy as np
import pytest

from clusterembed.data import generate_gaussian, split_by_class
from clusterembed.errors import InvalidInputError
from clusterembed.mlp import save_checkpoint
from clusterembed import train as train_module
from clusterembed.embedding_ops import EmbeddingBatch
from clusterembed.train import TrainConfig, evaluate_embeddings, evaluate_model, heldout_rows, train

TINY = dict(
    batch_size=8,
    hidden_dims=(8,),
    embedding_dim=4,
    class_ratio=0.25,
    eval_interval=3,
    recall_ks=(1,),
    seed=0,
)


def tiny_dataset():
    return generate_gaussian(8, 6, 3, center_scale=6.0, cluster_std=0.5, seed=100)


def test_zero_iterations_returns_initialization():
    config = TrainConfig(max_iterations=0, **TINY)
    params, records = train(config, tiny_dataset())
    assert records == []
    assert params.input_dim == 3
    assert params.output_dim == 4


def test_zero_learning_rate_freezes_params_and_metrics():
    config = TrainConfig(max_iterations=6, learning_rate=0.0, **TINY)
    ds = tiny_dataset()
    params, records = train(config, ds)
    init_config = TrainConfig(max_iterations=0, **TINY)
    init_params, _ = train(init_config, ds)
    for (w0, b0), (w1, b1) in zip(init_params.layers, params.layers):
        assert np.array_equal(w0, w1)
        assert np.array_equal(b0, b1)
    evals = [(r.nmi, r.recall_at[1]) for r in records if r.nmi is not None]
    assert len(evals) >= 2
    assert all(e == evals[0] for e in evals)


def test_records_structure():
    config = TrainConfig(max_iterations=7, **TINY)
    _, records = train(config, tiny_dataset())
    assert [r.iteration for r in records] == list(range(7))
    evaluated = [r.iteration for r in records if r.nmi is not None]
    assert evaluated == [2, 5, 6]  # every 3rd, plus the final iteration
    for r in records:
        assert r.loss >= 0.0
        assert r.gamma > 0.0
        if r.recall_at is not None:
            assert set(r.recall_at) == {1}


def test_training_is_deterministic():
    config = TrainConfig(max_iterations=5, **TINY)
    ds = tiny_dataset()
    params_a, records_a = train(config, ds)
    params_b, records_b = train(config, ds)
    for (wa, ba), (wb, bb) in zip(params_a.layers, params_b.layers):
        assert np.array_equal(wa, wb)
        assert np.array_equal(ba, bb)
    for ra, rb in zip(records_a, records_b):
        assert ra.loss == rb.loss
        assert ra.gamma == rb.gamma
        assert ra.nmi == rb.nmi
        assert ra.recall_at == rb.recall_at


@pytest.mark.parametrize("loss_kind", ["cluster", "triplet", "lifted", "npairs"])
def test_all_losses_train(loss_kind):
    config = TrainConfig(max_iterations=3, loss_kind=loss_kind, **TINY)
    params, records = train(config, tiny_dataset())
    assert len(records) == 3
    assert all(np.isfinite(r.loss) for r in records)
    assert params.final_normalize == (loss_kind in ("cluster", "triplet"))


def test_gamma_decays_in_records():
    config = TrainConfig(max_iterations=9, gamma_decay_interval=2, **TINY)
    _, records = train(config, tiny_dataset())
    gammas = [r.gamma for r in records]
    assert gammas == sorted(gammas, reverse=True)
    assert gammas[0] == 1.0
    assert gammas[2] == pytest.approx(0.94)


def test_zero_noise_task_reaches_perfect_nmi():
    # coincident class members embed identically, so held-out clustering is exact
    ds = generate_gaussian(6, 4, 3, center_scale=6.0, cluster_std=0.0, seed=3)
    config = TrainConfig(max_iterations=10, loss_kind="cluster", **TINY)
    _, records = train(config, ds)
    assert records[-1].nmi == 1.0
    assert records[-1].recall_at[1] == 1.0


def test_config_validation():
    with pytest.raises(InvalidInputError):
        TrainConfig(loss_kind="contrastive")
    with pytest.raises(InvalidInputError, match="candidate pool"):
        TrainConfig(candidate_pool="everything")
    with pytest.raises(InvalidInputError, match="at least one sweep"):
        TrainConfig(refine_sweeps=0)
    with pytest.raises(InvalidInputError, match="round to at least 2 classes"):
        TrainConfig(batch_size=4, class_ratio=0.25)  # only 1 class per batch
    with pytest.raises(InvalidInputError):
        TrainConfig(train_fraction=1.5)
    with pytest.raises(InvalidInputError):
        TrainConfig(gamma_decay_rate=0.0)
    with pytest.raises(InvalidInputError, match="at most 1"):
        TrainConfig(gamma_decay_rate=1.5)
    assert TrainConfig(gamma_decay_rate=1.0).gamma_decay_rate == 1.0
    with pytest.raises(InvalidInputError, match="class_ratio \\* m must be finite"):
        TrainConfig(class_ratio=1e308)
    with pytest.raises(InvalidInputError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(InvalidInputError, match="^learning rate, lambda, and iteration count"):
        TrainConfig(learning_rate=-2)
    with pytest.raises(InvalidInputError):
        TrainConfig(hidden_dims=(8, 0))
    with pytest.raises(InvalidInputError, match="finite"):
        TrainConfig(gamma0=float("inf"))


def test_class_count_check_matches_the_sampler():
    # 0.25 * 6 = 1.5 rounds to the 2 classes the sampler draws
    config = TrainConfig(max_iterations=1, **{**TINY, "batch_size": 6})
    assert config.classes_per_batch == 2
    _, records = train(config, tiny_dataset())
    assert len(records) == 1 and np.isfinite(records[0].loss)


def test_evaluate_checks_recall_k_before_clustering(monkeypatch):
    def no_clustering(*args, **kwargs):
        raise AssertionError("clustering ran before the K check")

    monkeypatch.setattr(train_module, "infer", no_clustering)
    rng = np.random.default_rng(5)
    batch = EmbeddingBatch(rng.normal(size=(6, 2)))
    with pytest.raises(InvalidInputError, match="k must be in"):
        evaluate_embeddings(batch, np.array([0, 0, 1, 1, 2, 2]), (1, 6))


def test_train_rejects_undersized_split():
    ds = generate_gaussian(4, 6, 3, 6.0, 0.5, seed=101)  # 2 train classes
    config = TrainConfig(max_iterations=1, batch_size=16, class_ratio=0.25, seed=0)
    with pytest.raises(InvalidInputError):
        train(config, ds)


def test_train_rejects_recall_k_beyond_heldout_before_training():
    # 4 held-out classes of 6 points: K = 24 has no 24 neighbors to rank
    config = TrainConfig(max_iterations=0, **{**TINY, "recall_ks": (1, 24)})
    with pytest.raises(InvalidInputError, match="held-out"):
        train(config, tiny_dataset())


def test_heldout_rows_dense_sorted_remap():
    ds = tiny_dataset()
    feats, labels = heldout_rows(ds, [5, 2])
    assert feats.shape == (12, 3)
    assert labels.tolist() == [0] * 6 + [1] * 6  # class 2 first (sorted), then 5
    assert np.array_equal(feats[:6], ds.features[ds.class_index[2]])


def test_evaluate_model_ranges(tmp_path):
    config = TrainConfig(max_iterations=2, **TINY)
    ds = tiny_dataset()
    params, _ = train(config, ds)
    split = split_by_class(ds, 0.5, 0)
    nmi_value, recalls = evaluate_model(params, ds, split.test_classes, (1, 2))
    assert 0.0 <= nmi_value <= 1.0
    assert set(recalls) == {1, 2}
    assert all(0.0 <= v <= 1.0 for v in recalls.values())
    save_checkpoint(params, tmp_path / "x.ckpt")  # smoke: params serializable