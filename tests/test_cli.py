import json
import os
import resource
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import clusterembed
from clusterembed.cli import _train_config, build_parser, main
from clusterembed.data import load_csv, sample_batch
from clusterembed.embedding_ops import pairwise_distances
from clusterembed.facility import oracle_score
from clusterembed.inference import infer
from clusterembed.metrics import margin
from clusterembed.mlp import forward, init_params, load_checkpoint, save_checkpoint
from clusterembed.train import TrainConfig


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    code = main(
        [
            "generate",
            "--classes", "10",
            "--per-class", "4",
            "--dim", "3",
            "--std", "0.5",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


def train_args(data_csv, ckpt, *extra):
    return [
        "train",
        "--data", str(data_csv),
        "--checkpoint", str(ckpt),
        "--batch-size", "8",
        "--hidden-dims", "8",
        "--embedding-dim", "4",
        "--eval-interval", "2",
        "--recall-ks", "1,2",
        "--seed", "0",
        *extra,
    ]


def test_generate_writes_rows_and_manifest(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    code = main(
        ["generate", "--classes", "10", "--per-class", "4", "--dim", "3",
         "--std", "0.5", "--out", str(data_csv)]
    )
    assert code == 0
    lines = data_csv.read_text().splitlines()
    assert lines[0] == "label,f0,f1,f2"
    assert len(lines) == 1 + 40
    manifest = (data_csv.parent / "data.csv.manifest").read_text().splitlines()
    assert manifest == sorted(manifest)
    assert "classes=10" in manifest
    assert "command=generate" in manifest
    assert "wrote 40 rows" in capsys.readouterr().out


def test_generate_is_reproducible(tmp_path):
    args = ["generate", "--classes", "3", "--per-class", "2", "--dim", "2", "--seed", "7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_nonpositive_count(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--classes", "0", "--per-class", "2", "--dim", "2",
              "--out", str(tmp_path / "x.csv")])
    assert excinfo.value.code == 2


def test_generate_rejects_non_finite_std(tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--classes", "3", "--per-class", "2", "--dim", "2",
              "--std", "nan", "--out", str(out)])
    assert excinfo.value.code == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_rejects_unknown_loss(tmp_path, data_csv):
    with pytest.raises(SystemExit) as excinfo:
        main(train_args(data_csv, tmp_path / "m.ckpt", "--loss", "contrastive"))
    assert excinfo.value.code == 2


def test_train_writes_checkpoint_metrics_manifest(tmp_path, data_csv, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert main(train_args(data_csv, ckpt, "--iterations", "4")) == 0

    params = load_checkpoint(ckpt)
    assert params.input_dim == 3
    assert params.output_dim == 4
    assert params.final_normalize  # cluster loss trains on normalized rows

    records = [
        json.loads(line)
        for line in (tmp_path / "model.ckpt.metrics.jsonl").read_text().splitlines()
    ]
    assert [r["iteration"] for r in records] == [0, 1, 2, 3]
    assert set(records[0]) == {"iteration", "loss", "gamma", "nmi", "recall_at", "elapsed_ms"}
    assert records[0]["nmi"] is None
    assert records[-1]["nmi"] is not None
    assert set(records[-1]["recall_at"]) == {"1", "2"}

    manifest = (tmp_path / "model.ckpt.manifest").read_text()
    assert "command=train" in manifest
    assert "config.loss_kind=cluster" in manifest

    out = capsys.readouterr().out
    assert "method" in out and "NMI" in out
    assert "\ncluster " in out


def test_metrics_line_and_manifest_are_written_from_what_they_record(
    tmp_path, data_csv, monkeypatch
):
    """A JSONL line holds the ``TrainRecord`` fields, with the Recall@K keys
    as strings in string order; a manifest's ``out`` is the normalized path."""
    ckpt = tmp_path / "model.ckpt"
    assert main(train_args(data_csv, ckpt, "--iterations", "4", "--recall-ks", "1,2,16")) == 0
    last = json.loads((tmp_path / "model.ckpt.metrics.jsonl").read_text().splitlines()[-1])
    del last["elapsed_ms"]
    assert json.dumps(last) == (
        '{"gamma": 0.94, "iteration": 3, "loss": 0.0, "nmi": 1.0, '
        '"recall_at": {"1": 1.0, "16": 1.0, "2": 1.0}}'
    )

    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    args = ["generate", "--classes", "3", "--per-class", "2", "--dim", "2", "--out", "./sub//b.csv"]
    assert main(args) == 0
    assert "out=sub/b.csv" in (tmp_path / "sub" / "b.csv.manifest").read_text().splitlines()


def test_train_zero_iterations_checkpoint_is_initialization(tmp_path, data_csv):
    ckpt = tmp_path / "model.ckpt"
    assert main(train_args(data_csv, ckpt, "--iterations", "0")) == 0
    loaded = load_checkpoint(ckpt)
    expected = init_params([3, 8, 4], True, np.random.default_rng(0))
    for (wl, bl), (we, be) in zip(loaded.layers, expected.layers):
        assert np.array_equal(wl, we)
        assert np.array_equal(bl, be)


def test_train_multi_loss_suffixes_artifacts(tmp_path, data_csv, capsys):
    ckpt = tmp_path / "model.ckpt"
    args = train_args(data_csv, ckpt, "--iterations", "2", "--loss", "cluster,npairs")
    assert main(args) == 0
    for tag in ("cluster", "npairs"):
        assert (tmp_path / f"model-{tag}.ckpt").exists()
        assert (tmp_path / f"model-{tag}.ckpt.metrics.jsonl").exists()
        assert (tmp_path / f"model-{tag}.ckpt.manifest").exists()
    assert not ckpt.exists()
    out = capsys.readouterr().out
    assert "\ncluster " in out and "\nnpairs " in out


def test_evaluate_prints_table_and_manifest(tmp_path, data_csv, capsys):
    # noisy classes, so the NMI is not one of the exact 0.0 and 1.0 cases
    assert main(["generate", "--classes", "10", "--per-class", "4", "--dim", "3",
                 "--std", "6.0", "--out", str(data_csv)]) == 0
    ckpt = tmp_path / "model.ckpt"
    assert main(train_args(data_csv, ckpt, "--iterations", "1")) == 0
    capsys.readouterr()
    code = main(
        ["evaluate", "--checkpoint", str(ckpt), "--data", str(data_csv),
         "--recall-ks", "1,2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "held-out classes: 5" in out
    assert "\neval " in out
    manifest = (tmp_path / "model.eval.manifest").read_text()
    assert "command=evaluate" in manifest
    # a float's repr, the same under every numpy version, not np.float64(...)
    (nmi_line,) = [line for line in manifest.splitlines() if line.startswith("nmi=")]
    assert nmi_line == f"nmi={float(nmi_line[4:])!r}"
    assert 0.0 < float(nmi_line[4:]) < 1.0


def test_evaluate_dimension_mismatch_fails_cleanly(tmp_path, data_csv, capsys):
    ckpt = tmp_path / "wrong.ckpt"
    save_checkpoint(init_params([5, 4, 2], False, np.random.default_rng(0)), ckpt)
    code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data_csv)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["non-finite feature", "empty layer"])
def test_evaluate_bad_input_file_fails_cleanly(tmp_path, data_csv, capsys, fault):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(init_params([3, 4, 2], False, np.random.default_rng(0)), ckpt)
    if fault == "non-finite feature":
        rows = data_csv.read_text().splitlines()
        rows[5] = rows[5].rsplit(",", 1)[0] + ",nan"
        data_csv.write_text("\n".join(rows) + "\n")
    else:
        ckpt.write_text("mlp-checkpoint v1\nlayer 0 3\nnormalize 0\n")
    code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data_csv)])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")
    assert "line" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag,value,code,named",
    [
        ("--train-fraction", "0.9", 1, "held out"),
        ("--recall-ks", "40", 1, "held-out points"),
        ("--hidden-dims", "0", 2, "positive integers"),
        ("--class-ratio", "inf", 2, "finite"),
        ("--lr", "nan", 2, "finite"),
        ("--alpha", "nan", 2, "finite"),
        ("--loss", "cluster,npairs,cluster", 2, "'cluster' is listed more than once"),
    ],
    ids=["train-fraction", "recall-ks", "hidden-dims", "class-ratio-inf", "lr-nan", "alpha-nan",
         "loss-repeated"],
)
def test_train_bad_setting_fails_before_training(tmp_path, capsys, flag, value, code, named):
    # 6 classes of 5 points: 0.9 holds out no class, 15 held-out points rank
    # fewer than 40 neighbors, a hidden layer of width 0 cannot be built, and
    # non-finite numbers are usage errors
    data_csv = tmp_path / "small.csv"
    gen = ["generate", "--classes", "6", "--per-class", "5", "--dim", "3", "--out", str(data_csv)]
    assert main(gen) == 0
    capsys.readouterr()
    ckpt = tmp_path / "model.ckpt"
    args = ["train", "--data", str(data_csv), "--checkpoint", str(ckpt),
            "--batch-size", "8", "--iterations", "4", flag, value]
    if code == 1:
        assert main(args) == 1
    else:
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and named in errors[0]
    assert "Traceback" not in err
    assert list(tmp_path.glob("model*")) == []


def test_missing_data_file_fails_cleanly(tmp_path, capsys):
    code = main(
        ["train", "--data", str(tmp_path / "absent.csv"),
         "--checkpoint", str(tmp_path / "m.ckpt")]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_inspect_traces_inference(tmp_path, data_csv, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert main(train_args(data_csv, ckpt, "--iterations", "1")) == 0
    capsys.readouterr()
    code = main(
        ["inspect", "--checkpoint", str(ckpt), "--data", str(data_csv),
         "--m", "8", "--brute-force"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "greedy selection" in out
    assert "refinement sweeps" in out
    assert "final medoids:" in out
    assert "oracle medoids:" in out
    assert "hinge argument:" in out
    assert "brute-force optimum:" in out


TRAIN_FLAGS = {
    # flag: (value, field, parsed value)
    "--iterations": ("7", "max_iterations", 7),
    "--batch-size": ("9", "batch_size", 9),
    "--hidden-dims": ("5,6", "hidden_dims", (5, 6)),
    "--embedding-dim": ("3", "embedding_dim", 3),
    "--lr": ("0.5", "learning_rate", 0.5),
    "--rms-decay": ("0.8", "rms_decay", 0.8),
    "--rms-eps": ("1e-6", "rms_eps", 1e-6),
    "--gamma0": ("2.5", "gamma0", 2.5),
    "--gamma-decay-rate": ("0.5", "gamma_decay_rate", 0.5),
    "--gamma-decay-interval": ("4", "gamma_decay_interval", 4),
    "--refine-sweeps": ("2", "refine_sweeps", 2),
    "--candidate-pool": ("all", "candidate_pool", "all"),
    "--class-ratio": ("0.5", "class_ratio", 0.5),
    "--alpha": ("0.3", "margin_alpha", 0.3),
    "--reg-lambda": ("0.01", "reg_lambda", 0.01),
    "--train-fraction": ("0.6", "train_fraction", 0.6),
    "--eval-interval": ("11", "eval_interval", 11),
    "--recall-ks": ("1,3", "recall_ks", (1, 3)),
    "--seed": ("13", "seed", 13),
}


def test_train_flags_map_onto_config_fields():
    base = ["train", "--data", "d", "--checkpoint", "c"]
    parser = build_parser()
    assert _train_config(parser.parse_args(base), "cluster") == TrainConfig()
    assert _train_config(parser.parse_args(base), "npairs") == TrainConfig(loss_kind="npairs")
    fields_reached = {"loss_kind"}
    for flag, (text, field, value) in TRAIN_FLAGS.items():
        config = _train_config(parser.parse_args([*base, flag, text]), "cluster")
        assert getattr(config, field) == value, flag
        assert getattr(config, field) != getattr(TrainConfig(), field), flag
        fields_reached.add(field)
    assert fields_reached == {f.name for f in fields(TrainConfig)}


def test_inspect_prints_the_loss_of_direct_inference(tmp_path, capsys):
    # noisy blobs and an untrained model: on this batch the candidate pool
    # and the sweep count each change the refined medoids
    data_csv = tmp_path / "noisy.csv"
    gen = ["generate", "--classes", "10", "--per-class", "8", "--dim", "3", "--std", "6.0"]
    assert main([*gen, "--out", str(data_csv)]) == 0
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(init_params([3, 8, 4], True, np.random.default_rng(0)), ckpt)
    capsys.readouterr()
    m, batch_seed, gamma, sweeps, pool = 16, 7, 0.5, 1, "all"
    code = main(
        ["inspect", "--checkpoint", str(ckpt), "--data", str(data_csv), "--m", str(m),
         "--batch-seed", str(batch_seed), "--gamma", str(gamma),
         "--refine-sweeps", str(sweeps), "--candidate-pool", pool]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    printed = dict(line.split(": ", 1) for line in lines if ": " in line and line[0] != " ")
    steps = [line.split()[3] for line in lines if line.startswith("  step")]
    sweeps_printed = [line.split()[-1] for line in lines if line.startswith("  sweep")]

    dataset = load_csv(data_csv)
    feats, labels = sample_batch(
        dataset, tuple(dataset.classes), m, 0.25, np.random.default_rng(batch_seed)
    )
    batch, _ = forward(load_checkpoint(ckpt), feats)
    dist = pairwise_distances(batch)
    seed, refined = infer(dist, labels, gamma, sweeps, pool)
    oracle_value, oracle_medoids = oracle_score(dist, labels)
    hinge_arg = refined.objective - oracle_value

    assert steps == [str(i) for i in seed.medoids]
    assert sweeps_printed == [f"{v:.6f}" for v in refined.trace]
    assert printed["final medoids"] == " ".join(map(str, refined.medoids))
    assert printed["oracle medoids"] == " ".join(map(str, oracle_medoids))
    assert printed["oracle score"] == f"{oracle_value:.6f}"
    assert printed["margin of violator"] == f"{margin(refined.assignment, labels):.6f}"
    assert printed["hinge argument"] == f"{hinge_arg:.6f}"
    assert printed["loss"] == f"{max(0.0, hinge_arg):.6f}"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0

GENERATE_TINY = ["generate", "--classes", "3", "--per-class", "2", "--dim", "2"]
EVALUATE = ["evaluate", "--checkpoint", "{ckpt}", "--data", "{data}"]
# a 30,000 x 30,000 distance matrix, 6.7 GiB, run under a 2 GiB address space
OUT_OF_MEMORY = [
    "inspect", "--checkpoint", "{ckpt}", "--data", "{data}", "--m", "30000", "--class-ratio", "0.0001"
]


def limit_address_space():
    """Cap the calling process's address space at 2 GiB: a ``preexec_fn``,
    so the cap holds in the child alone."""
    resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))


@pytest.mark.parametrize(
    "args",
    [
        ["evaluate", "--checkpoint", "{ckpt}", "--data", "{bad}"],
        ["evaluate", "--checkpoint", "{ckpt}", "--data", "{ckpt}"],
        ["evaluate", "--checkpoint", "{data}", "--data", "{data}"],
        [*EVALUATE, "--recall-ks", "300"],
        [*EVALUATE, "--train-fraction", "0.99"],
        ["inspect", "--checkpoint", "{ckpt}", "--data", "{data}", "--m", "4"],
        ["train", "--data", "{data}", "--checkpoint", "{out}", "--hidden-dims", "0"],
        [*GENERATE_TINY, "--center-scale", "1e308", "--out", "{out}"],
        [*GENERATE_TINY, "--std", "1e308", "--out", "{out}"],
        ["train", "--data", "{data}", "--checkpoint", "{out}", "--loss", "npairs",
         "--lr", "1e200", "--batch-size", "20", "--iterations", "3"],
        ["train", "--data", "{data}", "--checkpoint", "{out}", "--class-ratio", "1e308"],
        ["inspect", "--checkpoint", "{ckpt}", "--data", "{data}", "--class-ratio", "1e308"],
        ["train", "--data", "{data}", "--checkpoint", "{out}", "--batch-size", "20",
         "--iterations", "12", "--gamma-decay-rate", "1e308"],
        OUT_OF_MEMORY,
    ],
    ids=["csv-header", "checkpoint-as-data", "csv-as-checkpoint", "recall-k-300",
         "train-fraction-0.99", "inspect-m-4", "hidden-dims-0", "center-scale-overflow",
         "std-overflow", "diverging-npairs", "train-class-ratio-overflow",
         "inspect-class-ratio-overflow", "gamma-decay-rate-above-1", "inspect-out-of-memory"],
)
def test_bad_input_prints_one_error_line(tmp_path, data_csv, args):
    """Run in a fresh process, as a user would: each bad file or flag exits
    with 1 or 2, writes nothing, and prints exactly one ``error:`` line to
    stderr, with no traceback and no numpy warning before it. The
    out-of-memory case limits only its own process's address space, so
    the matrix it asks for is refused, never allocated."""
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(init_params([3, 8, 4], True, np.random.default_rng(0)), ckpt)
    bad = tmp_path / "bad.csv"
    bad.write_text("lbl,f0,f1,f2\n0,1.0,2.0,3.0\n")
    out = tmp_path / "out"
    argv = [a.format(data=data_csv, ckpt=ckpt, bad=bad, out=out) for a in args]
    package_root = str(Path(clusterembed.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, inherited]))}
    proc = subprocess.run(
        [sys.executable, "-m", "clusterembed.cli", *argv], capture_output=True, text=True, env=env,
        preexec_fn=limit_address_space if args is OUT_OF_MEMORY else None,
    )
    assert proc.returncode in (1, 2), proc.stderr
    assert sum("error:" in line for line in proc.stderr.splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr, proc.stderr
    assert not out.exists()
