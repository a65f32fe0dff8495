"""Tests of the benchmark itself, at smoke scale.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import clusterembed.cli  # noqa: E402,F401  (imports every public function by name)
import clusterembed.cluster_loss as cluster_loss  # noqa: E402
import clusterembed.embedding_ops as embedding_ops  # noqa: E402
import clusterembed.metrics as metrics  # noqa: E402

from tracer import Tracer, attribute_snapshot, originals  # noqa: E402
from reference import NOMINAL_LARGE_S, NOMINAL_SMALL_S, SpeedMeter  # noqa: E402
from worker import DETERMINISTIC, Checks, Pacer, run_session, untraced  # noqa: E402
from workloads import WORKLOADS, smoke  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def smoke_csv(tmp_path: Path, workload) -> str:
    from clusterembed.data import generate_gaussian, save_csv
    from workloads import CENTER_SCALE

    b = workload.blobs
    path = tmp_path / "blobs.csv"
    save_csv(generate_gaussian(b.classes, b.per_class, b.dim, CENTER_SCALE, b.std, 3), path)
    return str(path)


def test_spec_names_the_benchmark_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, section):
    result = result_of(run_bench(workload, trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_counts_repeat_exactly_between_traced_runs():
    first, second = (result_of(run_bench("desk", trace=1)) for _ in range(2))
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["metrics.margin.calls"]["value"] > 0


def test_patch_reaches_every_namespace_and_restores_it():
    before = attribute_snapshot()
    originals_by_name = originals()
    tracer = Tracer()
    with tracer.patch():
        # functions imported by name into other modules are wrapped there too
        for mod in (cluster_loss, metrics, clusterembed.cli, sys.modules["clusterembed.train"],
                    sys.modules["clusterembed.baselines"]):
            assert mod.pairwise_distances is not originals_by_name["embedding_ops.pairwise_distances"]
        for mod in (sys.modules["clusterembed.inference"], cluster_loss, clusterembed.cli):
            assert mod.margin is not originals_by_name["metrics.margin"]
        assert metrics.same_partition is not originals_by_name["metrics.same_partition"]
        assert attribute_snapshot() != before
    assert attribute_snapshot() == before
    assert embedding_ops.pairwise_distances is originals_by_name["embedding_ops.pairwise_distances"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_session_reproduces_untraced_one(tmp_path, name):
    workload = smoke(WORKLOADS[name])
    csv_path = smoke_csv(tmp_path, workload)
    checks = Checks()
    plain = run_session(workload, csv_path, checks, timed_evals=True)
    tracer = Tracer()
    with tracer.patch():
        traced = run_session(workload, csv_path, checks, timed_evals=False)
    assert traced.digest == plain.digest
    assert traced.quality == plain.quality
    assert checks.failures == []
    # self times of the spans under train.train add up to the traced wall time
    wall = tracer.root_time("train.train")
    self_sum = sum(v for k, v in tracer.self_times().items() if k != "data.load_csv")
    assert self_sum == pytest.approx(wall, abs=1e-6)
    assert wall <= traced.wall_s


def test_paced_session_samples_speed_once_per_step_and_trains_alike(tmp_path):
    workload = smoke(WORKLOADS["desk"])
    csv_path = smoke_csv(tmp_path, workload)
    checks = Checks()
    pacer = Pacer()
    plain = run_session(workload, csv_path, checks, timed_evals=True)
    paced = run_session(workload, csv_path, checks, timed_evals=True, pacer=pacer)
    assert paced.digest == plain.digest and paced.quality == plain.quality
    assert len(pacer.pauses) == sum(len(steps) for steps in paced.step_ms)
    assert len(pacer.meter.small) == len(pacer.meter.large) >= 1
    assert all(v > 0 for steps in paced.step_ms for v in steps)
    assert checks.failures == []


def test_speed_factor_is_nominal_over_mean_kernel_time():
    meter = SpeedMeter()
    meter.small[:] = [0.5 * NOMINAL_SMALL_S, 1.5 * NOMINAL_SMALL_S]
    meter.large[:] = [2.0 * NOMINAL_LARGE_S]
    assert meter.factors() == pytest.approx((1.0, 0.5))
    meter.sample(2)
    assert len(meter.small) == 4 and len(meter.large) == 3


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans[:] = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0],
                       ["c", 5.0, 7.0, 0, 0]]
    assert tracer.self_times() == {"a": 5.0, "b": 2.0, "c": 3.0}
    assert tracer.calls() == {"a": 1, "b": 1, "c": 2}


def test_failed_output_checks_are_counted_not_raised(tmp_path):
    workload = replace(smoke(WORKLOADS["desk"]), floors=(1.0, 1.0))
    csv_path = smoke_csv(tmp_path, workload)
    result = untraced(workload, csv_path, csv_path, seconds=0.0)
    failures = result["checks"].failures
    assert len(failures) == 1 and "below floors" in failures[0]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("desk", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
