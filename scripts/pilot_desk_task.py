"""Pilot for the desk-scale end-to-end training floors.

Stage 1 (--sweep) sweeps the within-class noise level of the synthetic
task (10 classes, 50 points each, 10 input dims, 5 train + 5 held-out)
and reports the held-out NMI of clustering the raw input features. The
acceptance task pins the noise level where raw NMI lands near 0.6
(std = 6.0 at the default center scale).

Stage 2 (--train) runs the pinned end-to-end protocol: clustering loss,
batch 20, learning rate 3e-4, 300 iterations. It reports untrained vs
trained held-out NMI and Recall@1 plus wall time; the trained numbers
are what the end-to-end acceptance test pins as floors.

Stage 3 (--compare) runs the pinned four-way comparison: every loss,
batch 50, learning rate 3e-4, 20 iterations, against the untrained
initialization. It prints one NMI / Recall@K table (values scaled by
100): a row for the raw input features, then per loss a row for the
untrained network and one for the trained network. At this
early-training budget all four methods improve on their untrained
metrics for the pinned data seed; with longer budgets the pairwise
baselines fall below the initialization again because nothing transfers
between disjoint sets of isotropic Gaussian classes. These are
desk-scale synthetic-task numbers, not comparable to any published
real-dataset table.

Usage: python3 scripts/pilot_desk_task.py [--sweep] [--train] [--compare]
       (no flags runs all three stages)
"""

import argparse
import time
from dataclasses import replace

from clusterembed.cli import print_metric_table
from clusterembed.data import generate_gaussian, split_by_class
from clusterembed.embedding_ops import EmbeddingBatch
from clusterembed.train import (
    TrainConfig,
    evaluate_embeddings,
    evaluate_model,
    heldout_rows,
    train,
)

NUM_CLASSES = 10
POINTS = 50
DIM = 10
DATA_SEED = 7
PINNED_STD = 6.0


def make_dataset(std: float = PINNED_STD):
    return generate_gaussian(NUM_CLASSES, POINTS, DIM, center_scale=10.0,
                             cluster_std=std, seed=DATA_SEED)


def untrained(config: TrainConfig, dataset, test_classes):
    """Held-out metrics of the network ``train`` initializes for config."""
    params, _ = train(replace(config, max_iterations=0), dataset)
    return evaluate_model(params, dataset, test_classes, config.recall_ks)


def raw(dataset, test_classes, recall_ks):
    """Held-out metrics of the unembedded input features."""
    feats, labels = heldout_rows(dataset, test_classes)
    return evaluate_embeddings(EmbeddingBatch(feats), labels, recall_ks)


def sweep():
    print("raw-feature held-out metrics by noise level:")
    for std in (4.0, 5.0, 6.0, 7.0, 8.0):
        dataset = make_dataset(std)
        split = split_by_class(dataset, 0.5, 0)
        score, recalls = raw(dataset, split.test_classes, (1,))
        print(f"  std={std:<4} raw NMI {score:.3f}  raw R@1 {recalls[1]:.3f}")


def train_stage():
    dataset = make_dataset()
    config = TrainConfig(batch_size=20, class_ratio=0.25, learning_rate=3e-4,
                         loss_kind="cluster", max_iterations=300,
                         eval_interval=300, recall_ks=(1,), seed=0)
    split = split_by_class(dataset, config.train_fraction, config.seed)
    base_nmi, base_recalls = untrained(config, dataset, split.test_classes)
    print(f"untrained init: NMI {base_nmi:.4f}  R@1 {base_recalls[1]:.4f}")
    tic = time.perf_counter()
    _, records = train(config, dataset)
    elapsed = time.perf_counter() - tic
    final = records[-1]
    print(f"trained ({config.max_iterations} iters, {elapsed:.1f}s): "
          f"NMI {final.nmi:.4f}  R@1 {final.recall_at[1]:.4f}")


def compare_stage():
    dataset = make_dataset()
    recall_ks = (1, 2, 4, 8)
    base = TrainConfig(batch_size=50, class_ratio=0.1, learning_rate=3e-4,
                       max_iterations=20, eval_interval=20, recall_ks=recall_ks, seed=0)
    split = split_by_class(dataset, base.train_fraction, base.seed)
    print(f"four-way comparison (batch 50, lr 3e-4): raw input features, then each loss "
          f"untrained (-0) and after {base.max_iterations} iterations (-{base.max_iterations})")
    rows = [("raw", *raw(dataset, split.test_classes, recall_ks))]
    for kind in ("cluster", "triplet", "lifted", "npairs"):
        config = replace(base, loss_kind=kind)
        rows.append((f"{kind}-0", *untrained(config, dataset, split.test_classes)))
        _, records = train(config, dataset)
        rows.append((f"{kind}-{config.max_iterations}", records[-1].nmi, records[-1].recall_at))
    print_metric_table(rows, recall_ks)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sweep", action="store_true")
    parser.add_argument("--train", action="store_true")
    parser.add_argument("--compare", action="store_true")
    args = parser.parse_args()
    run_all = not (args.sweep or args.train or args.compare)
    if args.sweep or run_all:
        sweep()
    if args.train or run_all:
        train_stage()
    if args.compare or run_all:
        compare_stage()


if __name__ == "__main__":
    main()
