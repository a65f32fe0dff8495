"""The benchmark's workloads: which blobs to generate and which training
configurations to run on them, at full and at smoke scale.

Every workload drives ``train.train`` on Gaussian blobs written to CSV and
read back with ``data.load_csv``, as ``clusterembed train`` does. The data
seed comes from the benchmark's ``--seed``; the training seed stays 0 as
in the desk protocol, so a seed changes the input, not the program.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from clusterembed.train import TrainConfig

CENTER_SCALE = 10.0
# Data seed of the input every workload reports held-out quality on, so
# that quality is a fixed reference that does not vary with --seed. On
# desk this is the pinned input of the desk protocol.
QUALITY_DATA_SEED = 7


@dataclass(frozen=True)
class Blobs:
    classes: int
    per_class: int
    dim: int
    std: float = 6.0


@dataclass(frozen=True)
class Workload:
    name: str
    blobs: Blobs
    configs: tuple[TrainConfig, ...]
    # (NMI, R@1) floors the final held-out metrics of the quality input must clear.
    floors: tuple[float, float] | None = None
    # Reference kernel whose speed factor scales evaluation times (see
    # reference.py): "large" for the m = 1,280 evaluation and its 210 MB
    # distance tensor; "small" for desk's 250 held-out points, whose
    # evaluation times track interpreter-bound work.
    eval_kernel: str = "large"


# Desk protocol of the acceptance suite (criterion 8): small batches where
# fixed per-call costs dominate; its pinned input (data seed 7) is the
# repo's quality reference, NMI 0.3931 and R@1 0.768.
DESK = Workload(
    name="desk",
    blobs=Blobs(classes=10, per_class=50, dim=10),
    configs=(
        TrainConfig(
            batch_size=20, class_ratio=0.25, learning_rate=3e-4, loss_kind="cluster",
            max_iterations=300, eval_interval=100, seed=0,
        ),
    ),
    floors=(0.35, 0.74),
    eval_kernel="small",
)

# The default TrainConfig (m = 128, 32 classes per batch, gamma0 = 1):
# loss-augmented inference dominates each step. The iteration budget is
# cut so that several sessions fit in one run; one final evaluation on
# the 1,280 held-out points.
PAPER_BLOBS = Blobs(classes=64, per_class=40, dim=16)
PAPER_ITERATIONS = 8
PAPER = Workload(
    name="paper",
    blobs=PAPER_BLOBS,
    configs=(TrainConfig(max_iterations=PAPER_ITERATIONS, eval_interval=PAPER_ITERATIONS),),
)

# The three comparison losses on the paper data and config: the same
# harness and evaluation path with no loss-augmented inference in the
# step. More iterations than paper, because their steps are 10-100x cheaper.
BASELINE_ITERATIONS = 40
BASELINES = Workload(
    name="baselines",
    blobs=PAPER_BLOBS,
    configs=tuple(
        TrainConfig(loss_kind=kind, max_iterations=BASELINE_ITERATIONS,
                    eval_interval=BASELINE_ITERATIONS)
        for kind in ("triplet", "lifted", "npairs")
    ),
)

WORKLOADS = {w.name: w for w in (DESK, PAPER, BASELINES)}

SMOKE_BLOBS = Blobs(classes=16, per_class=10, dim=16)


def smoke(workload: Workload) -> Workload:
    """A seconds-long version of ``workload`` for the benchmark's own tests:
    the same losses and code paths on tiny inputs. Floors are dropped
    because they only hold after the full protocol."""
    if workload.name == "desk":
        configs = tuple(replace(c, max_iterations=20, eval_interval=10) for c in workload.configs)
        return replace(workload, configs=configs, floors=None)
    configs = tuple(
        replace(c, batch_size=32, max_iterations=3, eval_interval=3) for c in workload.configs
    )
    return replace(workload, blobs=SMOKE_BLOBS, configs=configs)
