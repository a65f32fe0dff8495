"""One workload process: train sessions on the generated CSV files, check
the outputs, and print the measurements as one JSON line.

Started by ``run.py`` in a fresh interpreter with one BLAS thread; not
meant to be run by hand. A session loads the CSV with ``data.load_csv``
and calls ``train.train`` once per configuration of the workload, the
entry points that ``clusterembed train`` and ``evaluate`` use.

``--probe`` instead measures set-up: it imports the package, loads the
CSV, runs ``train.train`` with zero iterations (class split and parameter
init) and prints the clock, which ``run.py`` subtracts from the moment it
started the process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass, field, replace
from time import perf_counter

import clusterembed.data as data_mod
import clusterembed.train as train_mod

from reference import SpeedMeter
from tracer import Patch, Tracer, attribute_snapshot
from workloads import WORKLOADS, Workload, smoke

# Counts that must repeat exactly between traced sessions of one input.
DETERMINISTIC = (
    "metrics.margin.calls",
    "metrics.recall_at_k.calls",
    "facility.assign.calls",
    "embedding_ops.pairwise_distances.calls",
    "inference.pam_refine.sweeps",
    "inference.refine_improved_share",
    "cluster_loss.hinge_active_share",
)

# Per-layer metrics that are a traced function's self time.
SELF_TIMED = (
    "metrics.margin", "metrics.nmi", "metrics.same_partition", "metrics.recall_at_k",
    "inference.greedy_inference", "inference.pam_refine",
    "facility.assign", "facility.oracle_score",
    "embedding_ops.pairwise_distances",
    "cluster_loss.clustering_loss",
    "baselines.triplet_semihard_loss", "baselines.lifted_struct_loss", "baselines.npairs_loss",
    "mlp.forward", "mlp.backward", "optim.rmsprop_step", "data.sample_batch",
    "train.evaluate_model", "train.train",
)

# Untraced runs time a pair of reference-kernel calls (see reference.py)
# per this many seconds of the run, taken at the start of a training step.
SPEED_INTERVAL_S = 0.25

# Self times over all spans of a session sum to its traced wall time; this
# much disagreement (seconds) means spans were lost or mis-nested.
SELF_SUM_TOLERANCE_S = 1e-6


class Checks:
    """Output checks. A failed check is counted and reported, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Session:
    wall_s: float = 0.0
    step_ms: list[list[float]] = field(default_factory=list)  # per config
    eval_s: list[float] = field(default_factory=list)
    trace: list = field(default_factory=list)
    quality: list[tuple[float, float]] = field(default_factory=list)  # (NMI, R@1) per config
    # (small, large) speed factors from the samples taken during a paced session
    factors: tuple[float, float] = (1.0, 1.0)

    @property
    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.trace).encode()).hexdigest()[:16]


class Pacer:
    """Spreads speed samples evenly through a run: at the start of a
    training step, one pair of reference calls per ``SPEED_INTERVAL_S``
    elapsed since the last ones (at least one pair in each session), and a
    record of the pause this made."""

    def __init__(self) -> None:
        self.meter = SpeedMeter()
        self.last = perf_counter()
        self.pauses: list[float] = []  # seconds, one per step
        self.session_start = 0  # index of the session's first sample
        self.due_now = True

    def start_session(self) -> None:
        self.session_start = len(self.meter.small)
        self.due_now = True

    def session_factors(self) -> tuple[float, float]:
        return self.meter.factors(since=self.session_start)

    def before_step(self) -> None:
        now = perf_counter()
        due = max(int((now - self.last) / SPEED_INTERVAL_S), int(self.due_now))
        self.due_now = False
        if due:
            self.meter.sample(due)
        done = perf_counter()
        self.pauses.append(done - now)
        # the pause is not run time; carry the part of an interval not yet due
        self.last = done - (now - self.last - due * SPEED_INTERVAL_S)


def run_session(workload: Workload, csv_path: str, checks: Checks, timed_evals: bool,
                pacer: Pacer | None = None) -> Session:
    """Load the CSV and train every configuration of the workload on it.

    With ``timed_evals`` each ``evaluate_model`` call is timed from outside
    so that step times can exclude evaluation. With a ``pacer``, each step
    starts by taking the speed samples that are due, the pause is taken out
    of the step time and the session's wall time, and the session's speed
    factors come from its samples.
    """
    out = Session()
    if pacer is not None:
        pacer.start_session()
    dataset = data_mod.load_csv(csv_path)
    evaluate = train_mod.evaluate_model
    sample = data_mod.sample_batch

    def timed_evaluate(*args, **kwargs):
        tic = perf_counter()
        result = evaluate(*args, **kwargs)
        out.eval_s.append(perf_counter() - tic)
        return result

    def paced_sample_batch(*args, **kwargs):
        pacer.before_step()
        return sample(*args, **kwargs)

    replacements = {}
    if timed_evals:
        replacements[evaluate] = timed_evaluate
    if pacer is not None:
        replacements[sample] = paced_sample_batch
    for config in workload.configs:
        n_evals = len(out.eval_s)
        n_pauses = len(pacer.pauses) if pacer else 0
        with Patch(replacements):
            tic = perf_counter()
            _, records = train_mod.train(config, dataset)
            out.wall_s += perf_counter() - tic
        evals = iter(out.eval_s[n_evals:])
        pauses = pacer.pauses[n_pauses:] if pacer else [0.0] * len(records)
        if len(pauses) != len(records):
            raise RuntimeError(f"{len(pauses)} paced batches for {len(records)} steps")
        out.wall_s -= sum(pauses)
        out.step_ms.append([])
        for r, pause in zip(records, pauses):
            checks.check(math.isfinite(r.loss) and r.loss >= 0.0,
                         f"{config.loss_kind} step {r.iteration}: loss {r.loss!r}")
            recalls = sorted((r.recall_at or {}).items())
            out.trace.append([r.iteration, r.loss, r.gamma, None if r.nmi is None else float(r.nmi),
                              [[k, float(v)] for k, v in recalls]])
            step_ms = r.elapsed_ms - pause * 1000.0
            if r.nmi is not None:
                checks.check(0.0 <= r.nmi <= 1.0 and all(0.0 <= v <= 1.0 for _, v in recalls),
                             f"{config.loss_kind} step {r.iteration}: held-out metric outside [0, 1]")
                if timed_evals:
                    step_ms -= next(evals) * 1000.0
            out.step_ms[-1].append(step_ms)
        final = records[-1]
        out.quality.append((float(final.nmi), float(final.recall_at[1])))
    if pacer is not None:
        out.factors = pacer.session_factors()
    return out


def quality(session: Session) -> tuple[float, float]:
    """Held-out (NMI, R@1); the worst over configurations when there are several."""
    return min(q[0] for q in session.quality), min(q[1] for q in session.quality)


def tail_note(values: list[float]) -> str:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    best = None
    for q in (90, 99, 99.9):
        if n * (1 - q / 100) >= 10:
            best = q
    if best is None:
        return f"n={n}, too few samples for a tail percentile"
    value = statistics.quantiles(values, n=1000)[int(best * 10) - 1]
    return f"n={n}, p{best:g} {value:.3f} ms"


def keep_going(start: float, sessions: int, minimum: int, seconds: float) -> bool:
    """Run at least ``minimum`` sessions, then another one while it is
    expected to bring the run's length closer to ``seconds`` than
    stopping would."""
    elapsed = perf_counter() - start
    return sessions < minimum or elapsed + elapsed / sessions / 2 <= seconds


def untraced(workload: Workload, seeded: str, quality_csv: str, seconds: float) -> dict:
    """One session on the pinned quality input, then sessions on the seeded
    input (at least two) for about ``seconds`` in all."""
    checks = Checks()
    pacer = Pacer()
    start = perf_counter()
    pinned = run_session(workload, quality_csv, checks, timed_evals=True, pacer=pacer)
    seeded_sessions: list[Session] = []
    while keep_going(start, 1 + len(seeded_sessions), 3, seconds):
        s = run_session(workload, seeded, checks, timed_evals=True, pacer=pacer)
        if seeded_sessions:
            checks.check(s.digest == seeded_sessions[0].digest,
                         "loss-trace digest differs between sessions on one input")
        seeded_sessions.append(s)
    sessions = [pinned, *seeded_sessions]
    nmi, r1 = quality(pinned)
    if workload.floors is not None:
        checks.check(nmi >= workload.floors[0] and r1 >= workload.floors[1],
                     f"held-out NMI {nmi:.4f} / R@1 {r1:.4f} below floors {workload.floors}")

    # raw timings, and the same timings at the nominal machine speed
    per_config = [[v for s in sessions for v in s.step_ms[i]] for i in range(len(workload.configs))]
    step_ms = [v for steps in per_config for v in steps]
    eval_s = [v for s in sessions for v in s.eval_s]
    wall_s = [s.wall_s for s in sessions]
    # Each session's timings are scaled by the factors from the samples
    # taken during it: training steps by the small-array one, evaluations
    # by the one the workload names (see reference.py and workloads.py).
    kernel = ("small", "large").index(workload.eval_kernel)
    norm_step_ms = [v * s.factors[0] for s in sessions for steps in s.step_ms for v in steps]
    norm_eval_s = [v * s.factors[kernel] for s in sessions for v in s.eval_s]
    norm_wall_s = [(s.wall_s - sum(s.eval_s)) * s.factors[0] + sum(s.eval_s) * s.factors[kernel]
                   for s in sessions]
    at_nominal = "at nominal machine speed, {} reference samples, factors {:.3f}-{:.3f}".format(
        len(pacer.meter.small), min(min(s.factors) for s in sessions), max(max(s.factors) for s in sessions))
    m = workload.configs[0].batch_size
    source = "pinned input"
    if len(workload.configs) > 1:
        source += ", worst of the losses"
    metrics = {
        "train_steps_per_s": (len(norm_step_ms) / (sum(norm_step_ms) / 1000.0), "1/s",
                              f"m={m}, {len(step_ms)} steps, {at_nominal}"),
        # one step of each configuration: a median over a mix of losses
        # would jump between their modes
        "step_ms_p50": (sum(statistics.median(steps) for steps in per_config), "ms",
                        "; ".join(f"{c.loss_kind}: {tail_note(steps)}"
                                  for c, steps in zip(workload.configs, per_config))),
        # Means, not medians: on a shared machine the run-to-run noise comes
        # in phases of seconds to minutes, and a median over a run that spans
        # a fast and a slow phase jumps between them (see README.md).
        "eval_s": (statistics.mean(norm_eval_s), "s", f"mean of {len(eval_s)} calls, {at_nominal}"),
        "wall_s": (statistics.mean(norm_wall_s), "s", f"mean of {len(sessions)} sessions, {at_nominal}"),
        "raw_train_steps_per_s": (len(step_ms) / (sum(step_ms) / 1000.0), "1/s",
                                  "as measured, not normalized"),
        "raw_eval_s": (statistics.mean(eval_s), "s", "as measured, not normalized"),
        "raw_wall_s": (statistics.mean(wall_s), "s", "as measured, not normalized"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "getrusage of the workload process"),
        "heldout_nmi": (nmi, "ratio", source),
        "heldout_recall_at_1": (r1, "ratio", source),
    }
    digests = {seeded: seeded_sessions[0].digest, quality_csv: pinned.digest}
    samples = {"step_ms": per_config, "eval_s": eval_s, "wall_s": wall_s,
               "reference_small_s": pacer.meter.small, "reference_large_s": pacer.meter.large,
               "factors": [s.factors for s in sessions]}
    return {"metrics": metrics, "checks": checks, "digests": digests, "samples": samples}


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    self_s = tracer.self_times()
    calls = tracer.calls()
    refines = calls.get("inference.pam_refine", 0)
    losses = calls.get("cluster_loss.clustering_loss", 0)
    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMED}
    out.update({
        "metrics.margin.calls": calls.get("metrics.margin", 0),
        "metrics.recall_at_k.calls": calls.get("metrics.recall_at_k", 0),
        "facility.assign.calls": calls.get("facility.assign", 0),
        "embedding_ops.pairwise_distances.calls": calls.get("embedding_ops.pairwise_distances", 0),
        "embedding_ops.pairwise_distances.temp_mb": tracer.temp_mb,
        "inference.pam_refine.sweeps": tracer.sweeps,
        "inference.refine_improved_share": tracer.refine_improved / refines if refines else 0.0,
        "cluster_loss.hinge_active_share": tracer.hinge_active / losses if losses else 0.0,
        "data.load_csv.s": self_s.get("data.load_csv", 0.0),
        "trace.wall_s": wall_s,
    })
    return out


LAYER_UNITS = {"calls": "count", "sweeps": "count", "temp_mb": "MB", "self_s": "s", "s": "s",
               "wall_s": "s"}


def traced(workload: Workload, seeded: str, seconds: float, spans_path: str) -> dict:
    """Alternate untraced and traced sessions on the seeded input, starting
    untraced, so that the overhead compares sessions run close together."""
    checks = Checks()
    start = perf_counter()
    reference = None
    untraced_walls: list[float] = []
    per_session: list[dict[str, float]] = []
    while keep_going(start, len(untraced_walls) + len(per_session), 2, seconds):
        if len(untraced_walls) <= len(per_session):
            s = run_session(workload, seeded, checks, timed_evals=False)
            if reference is None:
                reference = s
            else:
                checks.check(s.digest == reference.digest, "loss-trace digest differs between sessions")
            untraced_walls.append(s.wall_s)
            continue
        tracer = Tracer()
        before = attribute_snapshot()
        with tracer.patch():
            s = run_session(workload, seeded, checks, timed_evals=False)
        checks.check(attribute_snapshot() == before, "module attributes not restored after tracing")
        checks.check(s.digest == reference.digest and s.quality == reference.quality,
                     "traced session differs from the untraced one")
        wall = tracer.root_time("train.train")
        self_sum = sum(v for k, v in tracer.self_times().items() if k != "data.load_csv")
        checks.check(abs(self_sum - wall) <= SELF_SUM_TOLERANCE_S,
                     f"self times sum to {self_sum!r} s, traced wall is {wall!r} s")
        layer = layer_metrics(tracer, wall)
        if per_session:
            same = all(layer[k] == per_session[0][k] for k in DETERMINISTIC)
            checks.check(same, "deterministic counts differ between traced sessions")
        tracer.write(spans_path, len(per_session), append=bool(per_session))
        per_session.append(layer)

    metrics = {}
    for name in per_session[0]:
        values = [layer[name] for layer in per_session]
        value = values[0] if name in DETERMINISTIC else statistics.median(values)
        note = "repeats in every traced session" if name in DETERMINISTIC else "median"
        metrics[name] = (value, LAYER_UNITS.get(name.rsplit(".", 1)[1], "ratio"),
                         f"{note}, {len(values)} traced sessions")
    overhead = metrics["trace.wall_s"][0] / statistics.median(untraced_walls)
    metrics["trace.overhead_ratio"] = (overhead, "ratio",
                                       f"traced over untraced wall_s, {len(untraced_walls)} untraced sessions")
    return {"metrics": metrics, "checks": checks, "digests": {seeded: reference.digest}}


def probe(workload: Workload, csv_path: str) -> None:
    dataset = data_mod.load_csv(csv_path)
    train_mod.train(replace(workload.configs[0], max_iterations=0), dataset)
    print(repr(perf_counter()), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--data", required=True, help="CSV generated from the benchmark seed")
    parser.add_argument("--quality-data", help="CSV of the input held-out quality is reported on")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where a traced run writes its spans (gzip CSV)")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    if args.probe:
        probe(workload, args.data)
        return 0
    if args.trace:
        result = traced(workload, args.data, args.seconds, args.spans)
    else:
        result = untraced(workload, args.data, args.quality_data, args.seconds)
    checks = result.pop("checks")
    result.update(attempted=checks.attempted, failures=checks.failures)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
