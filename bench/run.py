"""csagg benchmark: step throughput, step latency and set-up time per workload.

Run from the repository root:

    python3 bench/run.py --workload matrix-k60 --seed 1 --seconds 45 --trace 0

Each workload is one experiment configuration that goes through the same
experiment entry points as ``csagg matrix`` / ``csagg routing``
(``csagg.experiments.run_matrix`` / ``run_routing``). The load is a closed
loop in this one process: each timestep starts when the previous one has
finished, and the benchmark starts no threads or processes of its own. A
run repeats one collection (race simulation plus ``Workload.steps``
timesteps) at least MIN_COLLECTIONS times and until ``--seconds`` have
passed, so every run times at least 100 steps and samples set-up three
times. The seed drives the peloton, the +/-1 matrix, the link losses and
the protocol signs; everything else is the ``ExperimentConfig`` default.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced collections; the traced ones wrap each layer's public
functions (see LAYER_PROBES) and give the per-layer metrics, and the
difference in mean step time between the two kinds is the tracing
overhead. Spans are kept in memory and written to
``.bench_out/<workload>/spans-seed<seed>.jsonl`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A collection that
raises or fails the correctness gate counts as failed. A broken probe, a
step count that differs from the configured one or a structural count that
does not hold (for example an LP solve on a ``routing-p0`` step where every
rider reaches a sink) is an error: the benchmark exits with code 1 and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

# One OpenBLAS thread unless the caller sets a count. On a 2-vCPU shared host
# the default two-thread pool stalls a small QR of routing-p0 by about 0.1 s
# at random, which made the step times bimodal and their median swing with
# the host's load. Must be set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
from probes import CountFn, Recorder  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_COLLECTIONS = 3  # three set-up samples
MIN_TIMED_STEPS = 100  # so that ten steps lie beyond the p90
MAX_FAILURES = 3
MIN_TRACED_COLLECTIONS = 2  # one untraced, one traced
MEAN_STRESS_LIMIT = 0.01  # acceptance criteria 5 and 6
DETERMINED_STRESS_LIMIT = 1e-9  # acceptance criterion 6, loss-free routing


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple[str, ...]
    # steps that solve the L1 LP: "all", "some", or "uncoverable" for exactly
    # the steps where some rider cannot reach a sink (loss-free routing)
    lp: str
    steps: int  # per collection: 3 x steps >= MIN_TIMED_STEPS


# BENCHMARK.json lists matrix-k60 and routing-p0 and says why; routing-p50
# runs both the LP and the protocol and is kept for manual runs and the baseline
WORKLOADS = {
    w.name: w
    for w in (
        Workload("matrix-k60", ("scenario=matrix", "k_measurements=60"), "all", 34),
        Workload("routing-p50", ("scenario=routing", "loss_p=0.5"), "some", 34),
        Workload("routing-p0", ("scenario=routing", "loss_p=0"), "uncoverable", 50),
    )
}

# (module:attribute the experiment code resolves, span name, counts from the result)
LAYER_PROBES: tuple[tuple[str, str, CountFn | None], ...] = (
    ("csagg.experiments:simulate_race", "mobility.simulate_race", None),
    ("csagg.experiments:knn_graph", "graph.knn_graph", lambda g: {"edges": len(g.edges)}),
    ("csagg.experiments:collect_timestep", "protocol.collect_timestep",
     lambda r: {"messages": r.message_count, "rounds": r.rounds_used,
                "sink_rows": len(r.system.rows), "uncoverable": len(r.uncoverable)}),
    ("csagg.protocol:hop_distance_to_sinks", "radio.hop_distance_to_sinks", None),
    ("csagg.protocol:compute_reachability", "radio.compute_reachability",
     lambda r: {"deliveries": len(r.delivered)}),
    ("csagg.protocol:step_sensor", "protocol.step_sensor", None),
    ("csagg.experiments:reconstruct", "protocol.reconstruct",
     lambda r: {"determined": float(r[1] == "determined")}),
    ("csagg.protocol:build_pairwise_l1", "sparsity.build_pairwise_l1",
     lambda p: {"rows": p.eq_matrix.shape[0], "cols": p.eq_matrix.shape[1],
                "nnz": int(np.count_nonzero(p.eq_matrix)),
                "dense_bytes": p.eq_matrix.shape[0] * p.eq_matrix.shape[1] * 8}),
    ("csagg.protocol:solve_lp", "linalg.solve_lp", None),
    ("csagg.linalg:linprog", "linalg.highs", lambda r: {"nit": r.nit}),
    ("csagg.protocol:least_squares", "linalg.least_squares", None),
    ("csagg.protocol:rank", "linalg.rank", lambda r: {"rank": r}),
    ("csagg.linalg:rank", "linalg.rank", lambda r: {"rank": r}),
    ("csagg.experiments:rank", "linalg.rank", lambda r: {"rank": r, "report": 1}),
)

# per-layer self-time metric -> the span whose self time it sums per step
SELF_TIME_METRICS = {
    "graph.knn_s": "graph.knn_graph",
    "radio.hops_s": "radio.hop_distance_to_sinks",
    "radio.reach_s": "radio.compute_reachability",
    "protocol.collect_s": "protocol.collect_timestep",
    "protocol.step_sensor_s": "protocol.step_sensor",
    "protocol.reconstruct_s": "protocol.reconstruct",
    "sparsity.build_s": "sparsity.build_pairwise_l1",
    "linalg.solve_lp_s": "linalg.solve_lp",
    "linalg.highs_s": "linalg.highs",
    "linalg.least_squares_s": "linalg.least_squares",
    "linalg.rank_s": "linalg.rank",
}


class StructureError(RuntimeError):
    """The run did not have the shape the benchmark measures; no result."""


@dataclass
class Collection:
    """One call of the experiment runner: set-up plus the timed steps."""

    traced: bool
    failure: str | None = None
    setup_s: float = 0.0
    step_s: list[float] = field(default_factory=list)
    mean_stress: float = 0.0
    recorder: Recorder | None = None
    methods: list[str] = field(default_factory=list)
    uncoverable_steps: int = 0


def import_csagg():
    """Import the package from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import csagg  # noqa: F401
    import csagg.experiments

    where = Path(csagg.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"csagg was imported from {where}, not from {src}")
    return csagg.experiments


def make_config(workload: Workload, seed: int, steps: int, extra=()):
    from csagg.config import load_config

    out = ROOT / ".bench_out" / workload.name
    overrides = [*workload.overrides, f"seed={seed}", f"steps={steps}", f"out={out}", *extra]
    return load_config(None, overrides)


def runner(experiments, cfg):
    return experiments.run_matrix if cfg.scenario == "matrix" else experiments.run_routing


def gate(workload: Workload, result) -> str | None:
    """Correctness of one collection's outputs; returns why it failed, or None."""
    if workload.lp == "uncoverable":
        # loss-free: a step is determined exactly when every rider reaches a sink
        wrong = [i for i, r in enumerate(result.reports) if (r.method == "determined") == bool(r.uncoverable)]
        worst = max((r.stress for r in result.reports if r.method == "determined"), default=0.0)
        if wrong or worst > DETERMINED_STRESS_LIMIT:
            return f"steps {wrong} break determined == all coverable; worst determined stress {worst:.3g}"
    if not result.summary.mean_stress < MEAN_STRESS_LIMIT:
        return f"mean stress {result.summary.mean_stress:.3g} >= {MEAN_STRESS_LIMIT}"
    return None


def collect(experiments, workload: Workload, cfg, run: int, traced: bool) -> Collection:
    rec = Recorder(run)
    try:
        rec.probe("csagg.experiments:velocities", "mobility.velocities", marks_boundary=True)
        rec.probe("csagg.experiments:StepReport", "experiments.step_report", marks_boundary=True)
        if traced:
            for target, name, count in LAYER_PROBES:
                rec.probe(target, name, count)
        start = time.perf_counter()
        try:
            result = runner(experiments, cfg)(cfg)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            return Collection(traced, failure="raised")
    finally:
        rec.restore()
    steps = rec.step_times()
    if len(steps) != cfg.steps or len(result.reports) != cfg.steps:
        raise StructureError(
            f"{workload.name}: {len(steps)} timed steps and {len(result.reports)} "
            f"reports, configured {cfg.steps}"
        )
    return Collection(
        traced,
        failure=gate(workload, result),
        setup_s=rec.boundaries[0] - start,
        step_s=steps,
        mean_stress=result.summary.mean_stress,
        recorder=rec,
        methods=[r.method for r in result.reports],
        uncoverable_steps=sum(1 for r in result.reports if r.uncoverable),
    )


def measure(experiments, workload: Workload, seed: int, seconds: float, trace: bool):
    cfg = make_config(workload, seed, workload.steps)
    # warm-up on a short race, so lazy imports and first-call set-up are not timed
    warm = make_config(workload, seed, 2, ("duration_s=5",))
    try:
        runner(experiments, warm)(warm)
    except Exception:
        traceback.print_exc()
    least = MIN_TRACED_COLLECTIONS if trace else MIN_COLLECTIONS
    collections: list[Collection] = []
    start = time.perf_counter()
    failures = good_steps = 0
    while failures < MAX_FAILURES and (
        len(collections) < least
        or time.perf_counter() - start < seconds
        or (not trace and good_steps < MIN_TIMED_STEPS)
    ):
        traced = trace and len(collections) % 2 == 1
        c = collect(experiments, workload, cfg, len(collections), traced)
        collections.append(c)
        failures += c.failure is not None
        good_steps += len(c.step_s) if c.failure is None else 0
    # the seed fixes the inputs, so every repeat must reproduce the same stress
    ok = [c for c in collections if c.failure is None]
    for c in ok[1:]:
        if c.mean_stress != ok[0].mean_stress:
            c.failure = f"mean stress {c.mean_stress!r} != first repeat {ok[0].mean_stress!r}"
    for i, c in enumerate(collections):
        if c.failure is not None:
            print(f"collection {i} failed: {c.failure}", file=sys.stderr)
    return collections


def quantile(values: list[float], q: int) -> float:
    """q-th decile, inclusive method (the sample's own extremes bound it)."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def end_to_end(collections: list[Collection]) -> dict[str, tuple[float, str]]:
    ok = [c for c in collections if c.failure is None]
    steps = [s for c in ok for s in c.step_s]
    if len(steps) < MIN_TIMED_STEPS:
        raise StructureError(f"only {len(steps)} good timed steps; p90 needs {MIN_TIMED_STEPS}")
    return {
        "steps_per_s": (len(steps) / sum(steps), "1/s"),
        "step_s_p50": (statistics.median(steps), "s"),
        "step_s_p90": (quantile(steps, 9), "s"),
        "setup_s": (statistics.median(c.setup_s for c in ok), "s"),
    }


def per_layer(workload: Workload, collections: list[Collection], blas_threads: int):
    ok = [c for c in collections if c.failure is None]
    traced = [c for c in ok if c.traced]
    plain = [c for c in ok if not c.traced]
    if not traced or not plain:
        raise StructureError("the traced run needs one good untraced and one good traced collection")
    spans, selfs, step_total = [], [], 0.0
    for c in traced:
        spans += c.recorder.spans
        selfs += c.recorder.self_times()
        step_total += sum(c.step_s)
    steps = sum(len(c.step_s) for c in traced)
    in_steps = [(s, t) for s, t in zip(spans, selfs) if s.step >= 0]

    def spans_named(name):
        return [s for s, _ in in_steps if s.name == name]

    def per_step(name, key=None):
        found = spans_named(name)
        return sum(s.counts[key] if key else 1 for s in found) / steps

    def per_call(name, key):
        found = spans_named(name)
        return sum(s.counts[key] for s in found) / len(found) if found else 0.0

    m: dict[str, tuple[float, str]] = {}
    simulate = [s.duration for s in spans if s.name == "mobility.simulate_race"]
    m["mobility.simulate_s"] = (statistics.median(simulate), "s")
    for metric, name in SELF_TIME_METRICS.items():
        m[metric] = (sum(t for s, t in in_steps if s.name == name) / steps, "s")
    layer_spans = set(SELF_TIME_METRICS.values())
    top = sum(s.covered for s, _ in in_steps if s.parent < 0 and s.name in layer_spans)
    m["experiments.self_s"] = ((step_total - top) / steps, "s")
    m["trace.probe_s"] = (sum(s.counted - s.end for s, _ in in_steps) / steps, "s")

    m["graph.edges"] = (per_call("graph.knn_graph", "edges"), "count")
    m["radio.deliveries"] = (per_step("radio.compute_reachability", "deliveries"), "count")
    m["protocol.step_sensor_calls"] = (per_step("protocol.step_sensor"), "count")
    for key in ("messages", "rounds", "sink_rows", "uncoverable"):
        m[f"protocol.{key}"] = (per_step("protocol.collect_timestep", key), "count")
    # rank of the sink system per protocol-collected row, from the report's rank
    sink_rows = sum(s.counts["sink_rows"] for s in spans_named("protocol.collect_timestep"))
    report_rank = sum(s.counts["rank"] for s in spans_named("linalg.rank") if "report" in s.counts)
    m["protocol.rows_useful_ratio"] = (report_rank / sink_rows if sink_rows else 0.0, "1")
    m["protocol.determined_fraction"] = (per_step("protocol.reconstruct", "determined"), "1")
    for key in ("rows", "cols", "nnz"):
        m[f"sparsity.lp_{key}"] = (per_call("sparsity.build_pairwise_l1", key), "count")
    # computed as rows x cols x 8 bytes of a dense float64 matrix, not measured
    m["sparsity.lp_dense_bytes"] = (per_call("sparsity.build_pairwise_l1", "dense_bytes"), "B")
    m["linalg.lp_iterations"] = (per_call("linalg.highs", "nit"), "count")
    m["linalg.lp_solves"] = (per_step("linalg.solve_lp"), "count")
    m["linalg.rank_calls"] = (per_step("linalg.rank"), "count")
    m["linalg.blas_threads"] = (blas_threads, "count")
    m["experiments.peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    m["experiments.timed_steps"] = (steps, "count")
    m["experiments.mean_stress"] = (traced[0].mean_stress, "1")
    traced_step = step_total / steps
    plain_step = sum(sum(c.step_s) for c in plain) / sum(len(c.step_s) for c in plain)
    m["trace.step_s"] = (traced_step, "s")
    m["trace.overhead_s"] = (traced_step - plain_step, "s")

    check_structure(workload, m, traced, steps)
    return m


def check_structure(workload: Workload, m, traced: list[Collection], steps: int) -> None:
    """Counts that must hold exactly; a miss means a probe no longer sees its layer."""
    calls = Counter(s.name for c in traced for s in c.recorder.spans if s.step >= 0)
    methods = Counter(meth for c in traced for meth in c.methods)
    lp, determined = methods["cs-lp"], methods["determined"]
    routing = workload.overrides[0] == "scenario=routing"
    wrong = []

    def expect(what, seen, want):
        if seen != want:
            wrong.append(f"{what} {seen}, expected {want}")

    expect("steps with a reconstruction", lp + determined, steps)
    if workload.lp == "all":
        expect("cs-lp steps", lp, steps)
    elif workload.lp == "uncoverable":
        expect("cs-lp steps", lp, sum(c.uncoverable_steps for c in traced))
    elif lp == 0:
        wrong.append("no step took the LP path")
    for name in ("sparsity.build_pairwise_l1", "linalg.solve_lp", "linalg.highs"):
        expect(f"{name} calls", calls[name], lp)
    expect("linalg.least_squares calls", calls["linalg.least_squares"], determined)
    expect("protocol.determined_fraction", m["protocol.determined_fraction"][0], determined / steps)
    for name in ("graph.knn_graph", "protocol.reconstruct"):
        expect(f"{name} calls", calls[name], steps)
    for name in ("protocol.collect_timestep", "radio.hop_distance_to_sinks"):
        expect(f"{name} calls", calls[name], steps if routing else 0)
    if not routing:
        expect("protocol.step_sensor calls", calls["protocol.step_sensor"], 0)
        expect("radio.compute_reachability calls", calls["radio.compute_reachability"], 0)
    elif not calls["protocol.step_sensor"] or not m["radio.deliveries"][0]:
        wrong.append("routing ran without step_sensor calls or deliveries")
    if wrong:
        raise StructureError(f"{workload.name}: " + "; ".join(wrong))
    layers = sum(m[k][0] for k in (*SELF_TIME_METRICS, "experiments.self_s", "trace.probe_s"))
    if abs(layers - m["trace.step_s"][0]) > 1e-9 * m["trace.step_s"][0]:
        raise StructureError(f"layer self times sum to {layers}, traced step is {m['trace.step_s'][0]}")


def blas_libraries() -> list[dict[str, Any]]:
    """OpenBLAS libraries mapped into this process, with their thread counts."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.split()[-1]})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry: dict[str, Any] = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.argtypes, threads.restype = [], ctypes.c_int
                    entry["threads"] = int(threads())
                if config is not None and "config" not in entry:
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def os_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment(args, blas) -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "steps_per_collection": WORKLOADS[args.workload].steps,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "os_threads": os_threads(),
        "machine": platform.machine(),
    }


def declared_metrics(trace: bool) -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def write_spans(workload: Workload, seed: int, collections: list[Collection]) -> Path:
    path = ROOT / ".bench_out" / workload.name / f"spans-seed{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        for c in collections:
            if c.traced and c.recorder is not None:
                for s in c.recorder.spans:
                    out.write(json.dumps(s.__dict__) + "\n")
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        declared = declared_metrics(bool(args.trace))
        experiments = import_csagg()
    except (OSError, ImportError, KeyError, ValueError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    blas = blas_libraries()
    env = environment(args, blas)
    threads_before = env["os_threads"]
    try:
        collections = measure(experiments, workload, args.seed, args.seconds, bool(args.trace))
        ok = [c for c in collections if c.failure is None]
        if not ok:
            raise StructureError("every collection failed; nothing to report")
        if args.trace:
            blas_threads = max((b.get("threads", 0) for b in blas), default=0)
            metrics = per_layer(workload, collections, blas_threads)
            print(f"spans written to {write_spans(workload, args.seed, collections)}", file=sys.stderr)
        else:
            metrics = end_to_end(collections)
    except (StructureError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if sorted(metrics) != sorted(declared):
        print(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}",
              file=sys.stderr)
        return 1
    if os_threads() != threads_before:
        print(f"error: thread count changed from {threads_before} to {os_threads()}", file=sys.stderr)
        return 1

    attempted, failed = len(collections), len(collections) - len(ok)
    print("env " + json.dumps(env, sort_keys=True))
    shown = dict(metrics)
    shown["mean_stress"] = (ok[0].mean_stress, "1")
    shown["failed_frac"] = (failed / attempted, "1")
    for name, (value, unit) in shown.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
