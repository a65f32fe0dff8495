"""Training harness: sampler -> model -> loss -> RMSprop update.

One harness drives four interchangeable objectives (the structured
clustering loss and the three comparison losses). Embeddings are row
l2-normalized for the clustering and triplet losses and left raw for the
lifted and N-pairs losses. Held-out evaluation embeds the test classes,
clusters them with the facility-location inference at gamma = 0 and C =
number of held-out classes, and reports NMI plus Recall@K.

Everything downstream of the single seed is deterministic: one
``numpy.random.Generator`` drives initialization and batch sampling in a
fixed order, and evaluation consumes no randomness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Literal, Sequence, get_args

import numpy as np

from .baselines import lifted_struct_loss, npairs_loss, triplet_semihard_loss
from .cluster_loss import clustering_loss
from .data import Dataset, batch_class_count, sample_batch, split_by_class
from .embedding_ops import EmbeddingBatch, pairwise_distances
from .errors import InvalidInputError
from .inference import CandidatePool, _check_refine_args, infer
from .metrics import nmi, recall_at_k
from .mlp import MlpParams, backward, forward, init_params
from .optim import RmsState, gamma_at, rmsprop_step

LossKind = Literal["cluster", "triplet", "lifted", "npairs"]

# Per the evaluation protocol, these losses train on l2-normalized rows;
# lifted and npairs consume raw embeddings.
NORMALIZED_LOSSES = ("cluster", "triplet")


@dataclass
class TrainConfig:
    batch_size: int = 128
    hidden_dims: tuple[int, ...] = (32, 32)
    embedding_dim: int = 16
    learning_rate: float = 1e-3
    rms_decay: float = 0.9
    rms_eps: float = 1e-8
    gamma0: float = 1.0
    gamma_decay_rate: float = 0.94
    gamma_decay_interval: int | None = None  # None: one sampler pass over train classes
    refine_sweeps: int = 5
    candidate_pool: CandidatePool = "cluster"
    class_ratio: float = 0.25
    margin_alpha: float = 1.0
    reg_lambda: float = 1e-3
    loss_kind: LossKind = "cluster"
    max_iterations: int = 1000
    train_fraction: float = 0.5
    eval_interval: int = 100
    recall_ks: tuple[int, ...] = (1, 2, 4, 8)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.loss_kind not in get_args(LossKind):
            raise InvalidInputError(f"unknown loss kind {self.loss_kind!r}")
        _check_refine_args(self.refine_sweeps, self.candidate_pool)
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise InvalidInputError(f"{f.name} must be finite, got {value}")
        positive = {
            "batch_size": self.batch_size,
            "embedding_dim": self.embedding_dim,
            "rms_decay": self.rms_decay,
            "rms_eps": self.rms_eps,
            "gamma0": self.gamma0,
            "gamma_decay_rate": self.gamma_decay_rate,
            "class_ratio": self.class_ratio,
            "margin_alpha": self.margin_alpha,
            "eval_interval": self.eval_interval,
        }
        for name, value in positive.items():
            if value <= 0:
                raise InvalidInputError(f"{name} must be positive, got {value}")
        if self.learning_rate < 0 or self.reg_lambda < 0 or self.max_iterations < 0:
            raise InvalidInputError("learning rate, lambda, and iteration count are nonnegative")
        if self.classes_per_batch < 2:
            raise InvalidInputError("class_ratio * batch_size must round to at least 2 classes")
        if self.gamma_decay_rate > 1.0:
            raise InvalidInputError(f"gamma_decay_rate must be at most 1, got {self.gamma_decay_rate}")
        if not 0.0 < self.train_fraction < 1.0:
            raise InvalidInputError("train_fraction must lie in (0, 1)")
        if self.gamma_decay_interval is not None and self.gamma_decay_interval < 1:
            raise InvalidInputError("gamma_decay_interval must be at least 1")
        if any(k < 1 for k in self.recall_ks):
            raise InvalidInputError("recall K values must be positive")
        if any(width < 1 for width in self.hidden_dims):
            raise InvalidInputError("hidden layer widths must be positive")

    @property
    def classes_per_batch(self) -> int:
        return batch_class_count(self.batch_size, self.class_ratio)

    @property
    def normalize_embeddings(self) -> bool:
        return self.loss_kind in NORMALIZED_LOSSES


@dataclass
class TrainRecord:
    iteration: int
    loss: float
    gamma: float
    elapsed_ms: float
    nmi: float | None = None
    recall_at: dict[int, float] | None = None


def batch_loss(
    config: TrainConfig, batch: EmbeddingBatch, labels: np.ndarray, gamma: float
) -> tuple[float, np.ndarray]:
    """Dispatch to the configured objective; returns (value, d embeddings)."""
    if config.loss_kind == "cluster":
        out = clustering_loss(
            batch,
            labels,
            gamma,
            max_sweeps=config.refine_sweeps,
            candidate_pool=config.candidate_pool,
        )
        return out.value, out.grad
    if config.loss_kind == "triplet":
        return triplet_semihard_loss(batch, labels, config.margin_alpha)
    if config.loss_kind == "lifted":
        return lifted_struct_loss(batch, labels, config.margin_alpha)
    return npairs_loss(batch, labels, config.reg_lambda)


def heldout_rows(dataset: Dataset, class_ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows of the given classes, each a class of the dataset named
    once, with labels remapped to dense ids in sorted-class order: the rows
    of the smallest class first, each class's rows in dataset order."""
    rows = np.flatnonzero(np.isin(dataset.labels, class_ids))
    rows = rows[np.argsort(dataset.labels[rows], kind="stable")]
    return dataset.features[rows], np.searchsorted(np.unique(class_ids), dataset.labels[rows])


def evaluate_embeddings(
    batch: EmbeddingBatch,
    labels: np.ndarray,
    recall_ks: Sequence[int],
    refine_sweeps: int = 5,
) -> tuple[float, dict[int, float]]:
    """NMI of facility-location clustering at gamma = 0 (greedy, then swap
    refinement) against the labels, and Recall@K for each K, both read from
    one distance matrix.

    Recall runs first, so an out-of-range K fails before the clustering."""
    dist = pairwise_distances(batch)
    recalls = recall_at_k(dist, labels, recall_ks)
    _, refined = infer(dist, labels, gamma=0.0, max_sweeps=refine_sweeps)
    return nmi(refined.assignment, labels), recalls


def evaluate_model(
    params: MlpParams,
    dataset: Dataset,
    class_ids: Sequence[int],
    recall_ks: Sequence[int],
    refine_sweeps: int = 5,
) -> tuple[float, dict[int, float]]:
    """Held-out NMI and Recall@K of the model's embeddings of the classes."""
    feats, y_true = heldout_rows(dataset, class_ids)
    batch, _ = forward(params, feats)
    return evaluate_embeddings(batch, y_true, recall_ks, refine_sweeps)


def train(config: TrainConfig, dataset: Dataset) -> tuple[MlpParams, list[TrainRecord]]:
    rng = np.random.default_rng(config.seed)
    split = split_by_class(dataset, config.train_fraction, config.seed)
    if config.classes_per_batch > len(split.train_classes):
        raise InvalidInputError(
            f"batch draws {config.classes_per_batch} classes, train split has "
            f"{len(split.train_classes)}"
        )
    heldout = sum(dataset.class_index[c].size for c in split.test_classes)
    if any(k >= heldout for k in config.recall_ks):
        raise InvalidInputError(
            f"recall K values must be below the {heldout} held-out points, got {config.recall_ks}"
        )
    interval = config.gamma_decay_interval
    if interval is None:
        interval = max(1, int(np.ceil(len(split.train_classes) / config.classes_per_batch)))

    dims = [dataset.input_dim, *config.hidden_dims, config.embedding_dim]
    params = init_params(dims, config.normalize_embeddings, rng)
    state = RmsState.zeros_like(params)
    records: list[TrainRecord] = []

    for t in range(config.max_iterations):
        tic = time.perf_counter()
        gamma = gamma_at(t, config.gamma0, config.gamma_decay_rate, interval)
        feats, labels = sample_batch(
            dataset, split.train_classes, config.batch_size, config.class_ratio, rng
        )
        batch, cache = forward(params, feats)
        value, d_emb = batch_loss(config, batch, labels, gamma)
        grads = backward(params, cache, d_emb)
        params, state = rmsprop_step(
            params, grads, state, config.learning_rate, config.rms_decay, config.rms_eps
        )
        record = TrainRecord(
            iteration=t,
            loss=float(value),
            gamma=float(gamma),
            elapsed_ms=0.0,
        )
        is_last = t == config.max_iterations - 1
        if (t + 1) % config.eval_interval == 0 or is_last:
            record.nmi, record.recall_at = evaluate_model(
                params, dataset, split.test_classes, config.recall_ks, config.refine_sweeps
            )
        record.elapsed_ms = (time.perf_counter() - tic) * 1000.0
        records.append(record)
    return params, records
