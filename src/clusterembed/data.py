"""Datasets: synthetic Gaussian generation, CSV persistence, class-disjoint
splits, and the class-ratio batch sampler.

The sampler mirrors the training protocol: a batch of m examples drawn
from round(class_ratio * m) distinct classes, allocated as evenly as
possible. Batches that would make every clustering trivial (all labels
equal, or all labels distinct) are rejected by a guard; the guard also
requires one class with at least two members so that pair-based losses
always see a positive pair. The guard depends only on m and the number of
classes per batch, so it is checked before anything is drawn and a batch
is never redrawn.

CSV schema: header "label,f0,...,f{D-1}", then one row per example with
a nonnegative integer label and D shortest-round-trip decimal features.
UTF-8, LF line endings, no quoting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CsvParseError, InvalidInputError, PathologicalBatchError

# Class ids are stored as numpy index integers.
MAX_LABEL = int(np.iinfo(np.intp).max)


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    class_index: dict[int, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if self.features.ndim != 2:
            raise InvalidInputError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise InvalidInputError("labels must be one id per feature row")
        if self.labels.size and self.labels.min() < 0:
            raise InvalidInputError("class ids must be nonnegative")
        if not np.isfinite(self.features).all():
            raise InvalidInputError("non-finite feature value")
        self.class_index = {
            int(c): np.flatnonzero(self.labels == c) for c in np.unique(self.labels)
        }

    @property
    def num_examples(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    @property
    def classes(self) -> list[int]:
        return sorted(self.class_index)


@dataclass(frozen=True)
class SplitSpec:
    """Class-disjoint train/test split. Splitting is always by class,
    never by example: test classes are entirely unseen in training."""

    train_classes: tuple[int, ...]
    test_classes: tuple[int, ...]

    def __post_init__(self) -> None:
        if set(self.train_classes) & set(self.test_classes):
            raise InvalidInputError("train and test classes overlap")


def generate_gaussian(
    num_classes: int,
    points_per_class: int,
    input_dim: int,
    center_scale: float,
    cluster_std: float,
    seed: int,
) -> Dataset:
    """Isotropic Gaussian blobs: class centers uniform in
    [-center_scale, center_scale]^D, points = center + N(0, std^2 I)."""
    if num_classes < 1 or points_per_class < 1 or input_dim < 1:
        raise InvalidInputError("counts and dimensions must be positive")
    # rng.uniform needs a finite width 2 * center_scale
    if not (0 <= cluster_std < np.inf and 0 <= 2.0 * center_scale < np.inf):
        raise InvalidInputError("scales must be nonnegative, and the std and center range finite")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-center_scale, center_scale, size=(num_classes, input_dim))
    labels = np.repeat(np.arange(num_classes), points_per_class)
    features = centers[labels] + rng.normal(
        0.0, cluster_std, size=(num_classes * points_per_class, input_dim)
    )
    return Dataset(features=features, labels=labels)


def save_csv(dataset: Dataset, path: str | Path) -> None:
    dim = dataset.input_dim
    lines = ["label," + ",".join(f"f{i}" for i in range(dim))]
    for label, row in zip(dataset.labels, dataset.features):
        lines.append(f"{int(label)}," + ",".join(repr(v) for v in row.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_csv(path: str | Path) -> Dataset:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CsvParseError(1, "empty file, expected a header")
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 2:
        raise CsvParseError(1, f"header must start with 'label,f0,...', got {lines[0]!r}")
    dim = len(header) - 1
    for i, name in enumerate(header[1:]):
        if name != f"f{i}":
            raise CsvParseError(1, f"feature column {i} must be named f{i}, got {name!r}")
    labels: list[int] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != dim + 1:
            raise CsvParseError(lineno, f"expected {dim + 1} columns, got {len(fields)}")
        try:
            label = int(fields[0])
        except ValueError:
            raise CsvParseError(lineno, f"label {fields[0]!r} is not an integer") from None
        if not 0 <= label <= MAX_LABEL:
            raise CsvParseError(lineno, f"label {label} is outside [0, {MAX_LABEL}]")
        try:
            rows.append([float(v) for v in fields[1:]])
        except ValueError:
            raise CsvParseError(lineno, "non-numeric feature value") from None
        labels.append(label)
    features = np.array(rows, dtype=np.float64) if rows else np.empty((0, dim))
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise CsvParseError(int(np.argmin(finite)) + 2, "non-finite feature value")
    return Dataset(features=features, labels=np.array(labels, dtype=np.intp))


def split_by_class(dataset: Dataset, fraction: float, seed: int) -> SplitSpec:
    """Shuffle class ids with the seed; first ceil(fraction * C) go to train."""
    if not 0.0 < fraction < 1.0:
        raise InvalidInputError(f"train fraction must lie in (0, 1), got {fraction}")
    classes = dataset.classes
    if len(classes) < 2:
        raise InvalidInputError("need at least 2 classes to split")
    order = np.random.default_rng(seed).permutation(len(classes))
    shuffled = [classes[i] for i in order]
    cut = int(np.ceil(fraction * len(classes)))
    if cut == len(classes):
        raise InvalidInputError(
            f"train fraction {fraction} leaves none of the {len(classes)} classes held out"
        )
    return SplitSpec(train_classes=tuple(shuffled[:cut]), test_classes=tuple(shuffled[cut:]))


def batch_class_count(m: int, class_ratio: float) -> int:
    """Number of classes a batch of m examples draws: round(class_ratio * m),
    halves rounded up."""
    count = class_ratio * m
    if not np.isfinite(count):
        raise InvalidInputError(f"class_ratio * m must be finite, got {count}")
    return int(np.floor(count + 0.5))


def sample_batch(
    dataset: Dataset,
    train_classes: tuple[int, ...],
    m: int,
    class_ratio: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a batch of m examples from round(class_ratio * m) train classes.

    Examples are allocated across the drawn classes as uniformly as
    possible, with the remainder going to randomly chosen classes. Labels
    are remapped to dense ids 0..C_b-1 in the drawn-class order. Every
    batch has C_b >= 2 distinct labels, and a label with 2+ members unless
    m == C_b; that case raises ``PathologicalBatchError`` before ``rng`` is
    used.
    """
    num_batch_classes = batch_class_count(m, class_ratio)
    if num_batch_classes < 2:
        raise InvalidInputError(
            f"class_ratio * m gives {num_batch_classes} classes per batch, need at least 2"
        )
    if num_batch_classes > len(train_classes):
        raise InvalidInputError(
            f"batch needs {num_batch_classes} classes, split has {len(train_classes)}"
        )
    if num_batch_classes > m:
        raise InvalidInputError("more classes per batch than examples")
    if num_batch_classes == m:
        raise PathologicalBatchError(
            f"every batch would be all singletons (m={m}, classes per batch={num_batch_classes})"
        )

    chosen = rng.choice(np.asarray(train_classes), size=num_batch_classes, replace=False)
    counts = np.full(num_batch_classes, m // num_batch_classes)
    remainder = m % num_batch_classes
    if remainder:
        counts[rng.choice(num_batch_classes, size=remainder, replace=False)] += 1
    feat_blocks = []
    label_blocks = []
    for dense_id, class_id in enumerate(chosen):
        members = dataset.class_index[int(class_id)]
        take = int(counts[dense_id])
        picked = rng.choice(members, size=take, replace=take > members.size)
        feat_blocks.append(dataset.features[picked])
        label_blocks.append(np.full(take, dense_id, dtype=np.intp))
    return np.concatenate(feat_blocks, axis=0), np.concatenate(label_blocks)
