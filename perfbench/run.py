"""Training benchmark for clusterembed.

Runs one workload (``desk``, ``paper`` or ``baselines``, see
``workloads.py``) and prints every metric by name and unit, then one JSON
line ``{"correct", "attempted", "failed", "metrics"}`` as the last line
of standard output. With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` a separate run wraps every traced function (see
``tracer.py``) and reports per-layer metrics.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

The seed generates the blob CSV (``data.generate_gaussian`` +
``save_csv``) before anything is timed; the workload process only gets
the file. Workload processes run one at a time with one BLAS thread.
Timings are reported at a nominal machine speed, measured alongside with
the fixed kernels of ``reference.py``; the raw timings are printed too.
Inputs, span dumps, run records and loss-trace digests go to
``.perfbench_work/`` in the checkout. Exit status 0 means a result was
printed; failed output checks are counted in it, not raised.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER = HERE / "worker.py"

# Fresh processes whose set-up time is measured before and again after the
# workload process; setup_s is the median of all of them. Machine speed
# drifts in phases of seconds, so probes at both ends of the run sample
# more than one phase.
SETUP_PROBES = 5
# Reference-kernel pairs timed just before and just after each probe.
SPEED_PAIRS = 8
# Every process this run starts must have ended by then (seconds).
RUN_DEADLINE_S = 170.0

END_TO_END = ("setup_s", "train_steps_per_s", "eval_s", "wall_s", "peak_rss_mb",
              "heldout_nmi", "heldout_recall_at_1")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def make_csv(blobs, seed: int) -> str:
    from clusterembed.data import generate_gaussian, save_csv
    from workloads import CENTER_SCALE

    path = WORK / f"blobs-{blobs.classes}x{blobs.per_class}-d{blobs.dim}-s{blobs.std}-seed{seed}.csv"
    if not path.exists():
        dataset = generate_gaussian(blobs.classes, blobs.per_class, blobs.dim,
                                    CENTER_SCALE, blobs.std, seed)
        # write then rename: a killed run must not leave a partial file to reuse
        tmp = path.with_suffix(".tmp")
        save_csv(dataset, tmp)
        tmp.replace(path)
    return str(path)


def remaining(start: float) -> float:
    left = RUN_DEADLINE_S - (perf_counter() - start)
    if left <= 0:
        raise subprocess.TimeoutExpired("perfbench", RUN_DEADLINE_S)
    return left


def measure_setup(worker_args: list[str], start: float) -> list[tuple[float, float]]:
    """Fresh process to the first training step, once per probe, as
    measured and at the nominal machine speed (see ``reference.py``), from
    reference calls made just before and just after the probe.

    Both ends read ``perf_counter``, a system-wide monotonic clock, so the
    probe's printed reading can be compared with the spawn time here.
    """
    from reference import SpeedMeter

    times = []
    for _ in range(SETUP_PROBES):
        meter = SpeedMeter()
        meter.sample(SPEED_PAIRS)
        spawned = perf_counter()
        done = subprocess.run([sys.executable, str(WORKER), *worker_args, "--probe"],
                              env=child_env(), capture_output=True, text=True,
                              timeout=remaining(start), check=True)
        raw = float(done.stdout.split()[-1]) - spawned
        meter.sample(SPEED_PAIRS)
        # imports and set-up are interpreter-bound: the small-array reference
        times.append((raw, raw * meter.factors()[0]))
    return times


def check_digests(key: str, digests: dict[str, str]) -> list[str]:
    """Loss-trace digests must match every earlier run in this checkout
    with the same workload definition and input."""
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    failures = []
    for csv_path, digest in digests.items():
        slot = f"{key}:{Path(csv_path).name}"
        if known.setdefault(slot, digest) != digest:
            failures.append(f"loss-trace digest {digest} differs from {known[slot]} of an earlier run")
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and iteration counts, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "clusterembed" / "__init__.py").is_file():
        print(f"perfbench: no clusterembed sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import QUALITY_DATA_SEED, WORKLOADS, smoke

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)

    start = perf_counter()
    WORK.mkdir(exist_ok=True)
    env_start = environment()
    label = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    worker_args = ["--workload", args.workload, "--data", make_csv(workload.blobs, args.seed)]
    if args.smoke:
        worker_args.append("--smoke")
    run_args = [*worker_args, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--spans", str(WORK / f"spans-{label}.csv.gz")]
    else:
        run_args += ["--quality-data", make_csv(workload.blobs, QUALITY_DATA_SEED)]

    try:
        setup = [] if args.trace else measure_setup(worker_args, start)
        done = subprocess.run([sys.executable, str(WORKER), *run_args], env=child_env(),
                              capture_output=True, text=True, timeout=remaining(start))
        if setup and done.returncode == 0:
            setup += measure_setup(worker_args, start)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: set-up probe failed:\n{exc.stderr}", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"perfbench: workload process failed:\n{done.stderr}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.splitlines()[-1])

    metrics = result["metrics"]
    if setup:
        metrics["setup_s"] = (statistics.median(norm for _, norm in setup), "s",
                              f"median of {len(setup)} fresh processes, at nominal machine speed")
        metrics["raw_setup_s"] = (statistics.median(raw for raw, _ in setup), "s",
                                  "as measured, not normalized")
    failures = result["failures"] + check_digests(
        f"{args.workload}:{hashlib.sha256(repr(workload).encode()).hexdigest()[:12]}", result["digests"])
    attempted = result["attempted"] + len(result["digests"])
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "seconds": args.seconds, "env_start": env_start,
              "env_end": environment(), "metrics": metrics, "setup_probes_s": setup,
              "digests": result["digests"], "samples": result.get("samples"),
              "attempted": attempted, "failures": failures}
    (WORK / f"run-{label}.json").write_text(json.dumps(record, indent=1))

    for key in ("python", "numpy", "blas", "nproc"):
        print(f"env {key}: {env_start[key]}")
    print("env loadavg start/end: {} / {}".format(
        " ".join(f"{v:.2f}" for v in env_start["loadavg"]),
        " ".join(f"{v:.2f}" for v in record["env_end"]["loadavg"])))
    # step_ms_p50 is printed but left out of the result: its run-to-run
    # spread is too wide for a bound (see README.md).
    names = END_TO_END if not args.trace else sorted(metrics)
    for name in [*names, *(n for n in metrics if n not in names)]:
        value, unit, note = metrics[name]
        print(f"{name:45s} {value:14.6g} {unit:6s} ({note})")
    print(f"{'error_rate':45s} {len(failures) / attempted:14.6g} {'ratio':6s} "
          f"({len(failures)} of {attempted} steps, evaluations and checks failed)")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
