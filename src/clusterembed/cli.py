"""Command-line interface: generate / train / evaluate / inspect.

Every command writes a flat key=value manifest recording the resolved
configuration, seed, and artifact paths, so any output can be reproduced
from its manifest alone. Exit codes: 0 success, 2 usage error, 1 runtime
error.

``train`` accepts a comma-separated list of losses and prints one
comparison row per method in the layout of the published evaluation
tables (NMI, R@1, R@2, R@4, R@8, scaled by 100). The absolute numbers
come from the synthetic desk-scale task and are not comparable to any
full-scale published results.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_args

import numpy as np

from . import __version__
from .cluster_loss import clustering_loss
from .data import generate_gaussian, load_csv, sample_batch, save_csv, split_by_class
from .embedding_ops import pairwise_distances
from .errors import InstanceTooLargeError
from .inference import CandidatePool, brute_force_inference
from .metrics import margin
from .mlp import forward, load_checkpoint, save_checkpoint
from .train import LossKind, TrainConfig, TrainRecord, evaluate_model, train

LOSS_KINDS = get_args(LossKind)


def positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text}")
    return value


def nonneg_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"expected a nonnegative finite number, got {text}")
    return value


def int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(",") if v)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}"
        )
    return values


def loss_list(text: str) -> tuple[str, ...]:
    values = tuple(v.strip() for v in text.split(",") if v.strip())
    for i, v in enumerate(values):
        if v not in LOSS_KINDS:
            raise argparse.ArgumentTypeError(
                f"unknown loss {v!r}, choose from {', '.join(LOSS_KINDS)}"
            )
        if v in values[:i]:
            raise argparse.ArgumentTypeError(f"loss {v!r} is listed more than once")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one loss name")
    return values


def write_manifest(path: Path, entries: dict) -> None:
    lines = [f"{key}={entries[key]}" for key in sorted(entries)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _command_manifest(args: argparse.Namespace, **results) -> dict:
    """A command's argparse dests (``func`` aside), the tool version, and
    ``results``, which override dests of the same name."""
    entries = {k: v for k, v in vars(args).items() if k != "func"}
    return {**entries, "tool_version": __version__, **results}


def record_to_json(record: TrainRecord) -> str:
    """One metrics-JSONL line: every ``TrainRecord`` field, sorted by name."""
    payload = asdict(record)
    if record.recall_at is not None:
        payload["recall_at"] = {str(k): v for k, v in record.recall_at.items()}
    return json.dumps(payload, sort_keys=True)


def print_metric_table(rows: list[tuple[str, float, dict[int, float]]], ks: tuple[int, ...]) -> None:
    """One row per method: NMI and Recall@K, scaled by 100 like the
    published evaluation tables. Synthetic desk-scale numbers only."""
    header = f"{'method':<10} {'NMI':>7} " + " ".join(f"{'R@' + str(k):>7}" for k in ks)
    print(header)
    print("-" * len(header))
    for name, nmi_value, recalls in rows:
        cells = " ".join(f"{100.0 * recalls[k]:>7.2f}" for k in ks)
        print(f"{name:<10} {100.0 * nmi_value:>7.2f} {cells}")


def cmd_generate(args: argparse.Namespace) -> int:
    dataset = generate_gaussian(
        num_classes=args.classes,
        points_per_class=args.per_class,
        input_dim=args.dim,
        center_scale=args.center_scale,
        cluster_std=args.std,
        seed=args.seed,
    )
    out = Path(args.out)
    save_csv(dataset, out)
    write_manifest(out.with_suffix(out.suffix + ".manifest"), _command_manifest(args, out=out))
    print(f"wrote {dataset.num_examples} rows ({args.classes} classes) to {out}")
    return 0


def _train_config(args: argparse.Namespace, loss: str) -> TrainConfig:
    """Each ``train`` flag's argparse dest is the name of its config field."""
    values = {f.name: getattr(args, f.name) for f in fields(TrainConfig) if f.name != "loss_kind"}
    values["gamma_decay_interval"] = args.gamma_decay_interval or None  # 0 derives the interval
    return TrainConfig(**values, loss_kind=loss)


def _suffixed(path: Path, tag: str, multi: bool) -> Path:
    if not multi:
        return path
    return path.with_name(f"{path.stem}-{tag}{path.suffix}")


def cmd_train(args: argparse.Namespace) -> int:
    dataset = load_csv(args.data)
    multi = len(args.loss) > 1
    table_rows = []
    for loss in args.loss:
        config = _train_config(args, loss)
        params, records = train(config, dataset)

        ckpt_path = _suffixed(Path(args.checkpoint), loss, multi)
        save_checkpoint(params, ckpt_path)
        metrics_path = (
            _suffixed(Path(args.metrics), loss, multi)
            if args.metrics
            else ckpt_path.with_suffix(ckpt_path.suffix + ".metrics.jsonl")
        )
        metrics_path.write_text(
            "".join(record_to_json(r) + "\n" for r in records), encoding="utf-8"
        )

        if records:  # ``train`` evaluates its last iteration
            final_nmi, final_recalls = records[-1].nmi, records[-1].recall_at
        else:
            split = split_by_class(dataset, config.train_fraction, config.seed)
            final_nmi, final_recalls = evaluate_model(
                params, dataset, split.test_classes, config.recall_ks, config.refine_sweeps
            )
        table_rows.append((loss, final_nmi, final_recalls))

        manifest = {f"config.{k}": v for k, v in asdict(config).items()}
        manifest.update(
            {
                "command": "train",
                "tool_version": __version__,
                "data": args.data,
                "checkpoint": ckpt_path,
                "metrics": metrics_path,
            }
        )
        write_manifest(ckpt_path.with_suffix(ckpt_path.suffix + ".manifest"), manifest)

    print("held-out metrics (synthetic task; not comparable to published full-scale numbers)")
    print_metric_table(table_rows, args.recall_ks)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    params = load_checkpoint(args.checkpoint)
    dataset = load_csv(args.data)
    split = split_by_class(dataset, args.train_fraction, args.split_seed)
    nmi_value, recalls = evaluate_model(
        params, dataset, split.test_classes, args.recall_ks, args.refine_sweeps
    )
    print(f"held-out classes: {len(split.test_classes)}")
    print_metric_table([("eval", nmi_value, recalls)], args.recall_ks)
    write_manifest(
        Path(args.checkpoint).with_suffix(".eval.manifest"),
        _command_manifest(
            args,
            recall_ks=",".join(str(k) for k in args.recall_ks),
            nmi=repr(nmi_value),
            **{f"recall_at_{k}": repr(v) for k, v in recalls.items()},
        ),
    )
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    params = load_checkpoint(args.checkpoint)
    dataset = load_csv(args.data)
    rng = np.random.default_rng(args.batch_seed)
    feats, labels = sample_batch(
        dataset, tuple(dataset.classes), args.m, args.class_ratio, rng
    )
    batch, _ = forward(params, feats)
    out = clustering_loss(batch, labels, args.gamma, args.refine_sweeps, args.candidate_pool)
    num_classes = int(labels.max()) + 1

    print(f"batch: m={args.m} classes={num_classes} gamma={args.gamma}")
    print("greedy selection (point, marginal gain, objective):")
    prev = 0.0
    for step, (point, objective) in enumerate(zip(out.greedy.medoids, out.greedy.trace)):
        gain = objective - prev if step else objective
        print(f"  step {step}: add {point:>4d} gain {gain:+.6f} A(S) {objective:.6f}")
        prev = objective
    print("refinement sweeps (objective is nondecreasing):")
    for sweep, objective in enumerate(out.violator.trace):
        print(f"  sweep {sweep}: A(S) {objective:.6f}")
    print(f"final medoids: {' '.join(str(i) for i in out.violator.medoids)}")
    print(f"oracle medoids: {' '.join(str(i) for i in out.oracle_medoids)}")
    print(f"oracle score: {out.oracle_value:.6f}")
    print(f"margin of violator: {margin(out.violator.assignment, labels):.6f}")
    print(f"hinge argument: {out.hinge_arg:.6f}")
    print(f"loss: {out.value:.6f}")
    if args.brute_force:
        try:
            exact = brute_force_inference(pairwise_distances(batch), labels, args.gamma)
        except InstanceTooLargeError as exc:
            print(f"brute force skipped: {exc}")
        else:
            print(
                f"brute-force optimum: A(S) {exact.objective:.6f} "
                f"medoids {' '.join(str(i) for i in exact.medoids)}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterembed",
        description="Metric learning by structured facility-location clustering.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic Gaussian-blob dataset")
    gen.add_argument("--classes", type=positive_int, required=True)
    gen.add_argument("--per-class", type=positive_int, required=True)
    gen.add_argument("--dim", type=positive_int, required=True)
    gen.add_argument("--std", type=nonneg_float, default=1.0)
    gen.add_argument("--center-scale", type=nonneg_float, default=10.0)
    gen.add_argument("--seed", type=nonneg_int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    config = TrainConfig()
    tr = sub.add_parser("train", help="train one or more losses on a dataset")
    tr.add_argument("--data", required=True)
    tr.add_argument("--loss", type=loss_list, default=(config.loss_kind,),
                    help="comma-separated subset of: " + ", ".join(LOSS_KINDS))
    tr.add_argument("--checkpoint", required=True)
    tr.add_argument("--metrics", default=None, help="JSON-lines metrics path")
    tr.add_argument("--iterations", dest="max_iterations", type=nonneg_int)
    tr.add_argument("--batch-size", type=positive_int)
    tr.add_argument("--hidden-dims", type=int_list)
    tr.add_argument("--embedding-dim", type=positive_int)
    tr.add_argument("--lr", dest="learning_rate", type=nonneg_float)
    tr.add_argument("--rms-decay", type=positive_float)
    tr.add_argument("--rms-eps", type=positive_float)
    tr.add_argument("--gamma0", type=positive_float)
    tr.add_argument("--gamma-decay-rate", type=positive_float)
    tr.add_argument("--gamma-decay-interval", type=nonneg_int,
                    help="0 derives one pass over the train classes")
    tr.add_argument("--refine-sweeps", type=positive_int)
    tr.add_argument("--candidate-pool", choices=get_args(CandidatePool))
    tr.add_argument("--class-ratio", type=positive_float)
    tr.add_argument("--alpha", dest="margin_alpha", type=positive_float)
    tr.add_argument("--reg-lambda", type=nonneg_float)
    tr.add_argument("--train-fraction", type=positive_float)
    tr.add_argument("--eval-interval", type=positive_int)
    tr.add_argument("--recall-ks", type=int_list)
    tr.add_argument("--seed", type=nonneg_int)
    # each dest above names a TrainConfig field, which supplies its default
    tr.set_defaults(func=cmd_train, **asdict(config))

    ev = sub.add_parser("evaluate", help="evaluate a checkpoint on held-out classes")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--split-seed", type=nonneg_int, default=config.seed)
    ev.add_argument("--train-fraction", type=positive_float, default=config.train_fraction)
    ev.add_argument("--recall-ks", type=int_list, default=config.recall_ks)
    ev.add_argument("--refine-sweeps", type=positive_int, default=config.refine_sweeps)
    ev.set_defaults(func=cmd_evaluate)

    ins = sub.add_parser("inspect", help="trace the inference on one sampled batch")
    ins.add_argument("--checkpoint", required=True)
    ins.add_argument("--data", required=True)
    ins.add_argument("--m", type=positive_int, default=16)
    ins.add_argument("--class-ratio", type=positive_float, default=config.class_ratio)
    ins.add_argument("--batch-seed", type=nonneg_int, default=0)
    ins.add_argument("--gamma", type=nonneg_float, default=config.gamma0)
    ins.add_argument("--refine-sweeps", type=positive_int, default=config.refine_sweeps)
    ins.add_argument(
        "--candidate-pool", choices=get_args(CandidatePool), default=config.candidate_pool
    )
    ins.add_argument("--brute-force", action="store_true")
    ins.set_defaults(func=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a diverging run ends in one error line, not numpy's warnings first
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
