"""End-to-end experiment runs: random-matrix aggregation, multi-round
routing, and the lost-data DCT demonstration."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .config import ExperimentConfig, config_lines
from .errors import ConfigError, TraceFormatError
from .graph import knn_graph
from .linalg import dct_matrix, rank, solve_lp
from .metrics import StepReport, Summary, stress, summarize, write_report_csv
from .mobility import RaceTrace, ingest_trace, simulate_race, velocities
from .protocol import CollectionResult, collect_timestep, reconstruct
from .radio import place_sinks
from .sparsity import Measurement, build_l1, decode_consistent


@dataclass(frozen=True)
class RunResult:
    reports: list[StepReport]
    summary: Summary
    report_path: str


def load_race(cfg: ExperimentConfig) -> RaceTrace:
    """The simulated race cfg.race(), or the ingested trace, which must hold
    at least 2 frames and more riders than k_neighbors (validate checks a
    simulated race's n)."""
    if not cfg.trace_path:
        return simulate_race(cfg.race())
    trace = ingest_trace(cfg.trace_path, cfg.peloton.dt)
    if len(trace.times) < 2:
        raise TraceFormatError(
            f"{cfg.trace_path}: one frame, at t={trace.times[0]}: velocities need at least 2 frames"
        )
    if cfg.k_neighbors >= trace.n:
        raise ConfigError(
            f"k_neighbors={cfg.k_neighbors} must be smaller than the number of riders ({trace.n})"
        )
    return trace


def _start(cfg: ExperimentConfig, load: Callable[[ExperimentConfig], RaceTrace | None]):
    """(load(cfg), `<out>/report_<scenario>.csv`) for cfg, validated first;
    each runner sets the scenario it runs. The out directory is made after
    the input loads, so a bad input leaves none behind, and before any step
    runs."""
    cfg.validate()
    return load(cfg), cfg.output(f"report_{cfg.scenario.replace('-', '_')}.csv")


def _collect_matrix(cfg: ExperimentConfig, trace: RaceTrace, i: int, x: np.ndarray) -> CollectionResult:
    """The sink directly receives Y = A X with a random +/-1 matrix."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, i)))
    a = rng.choice(np.array([-1, 1], dtype=np.int64), size=(cfg.k_measurements, x.shape[0]))
    return CollectionResult(
        system=Measurement(a, a @ x), rounds_used=0, uncoverable=(), message_count=0, mean_payload_bits=0.0
    )


def _collect_routing(cfg: ExperimentConfig, trace: RaceTrace, i: int, x: np.ndarray) -> CollectionResult:
    """Multi-round broadcast/aggregate collection at the frame that ends step i."""
    positions = trace.frame(i + 1)
    return collect_timestep(
        readings=x,
        positions=positions,
        sinks=place_sinks(positions),
        radio=cfg.radio(),
        cap_m=cfg.cap_m,
        step_index=i,
        check_aggregates=cfg.check_aggregates,
    )


def _run(
    cfg: ExperimentConfig, collect: Callable[[ExperimentConfig, RaceTrace, int, np.ndarray], CollectionResult]
) -> RunResult:
    """The step loop both experiments share. collect(cfg, trace, i, x) gives
    the sink's equations for step i, whose true velocities are x. A step
    whose sinks received no equation is reported as "no-data" and keeps the
    previous estimate (zeros before the first one).

    Step i's k-NN graph is built from the previous instant's positions. In
    "truth" mode these are the true frame i. In "reconstruction" mode the
    sink integrates its own velocity estimates, s_hat, from the true initial
    along-road positions (lateral treated as 0), so after warm-up the graph
    reflects what the sink actually knows."""
    trace, path = _start(cfg, load_race)
    times, vels = velocities(trace)
    s_hat = trace.pos[0, :, 0]
    reports = []
    estimate = np.zeros(trace.n)
    for i in range(min(cfg.steps or len(vels), len(vels))):  # steps=0: every frame
        x = vels[i]
        result = collect(cfg, trace, i, x)
        if result.system.k:
            prev = trace.frame(i)
            if cfg.graph_mode != "truth" and i > 0:
                prev = replace(prev, pos=np.column_stack([s_hat, np.zeros_like(s_hat)]))
            estimate, tag = reconstruct(result.system, knn_graph(prev, cfg.k_neighbors))
        else:
            tag = "no-data"
        s_hat = s_hat + trace.dt * estimate
        reports.append(
            StepReport(
                time=times[i],
                stress=stress(x, estimate),
                method=tag,
                rows=result.system.k,
                rank=rank(result.system.rows),
                rounds_used=result.rounds_used,
                uncoverable=len(result.uncoverable),
                mean_payload_bits=result.mean_payload_bits,
            )
        )
    with open(path, "w", encoding="utf-8") as out:
        write_report_csv(out, reports, config_lines(cfg))
    return RunResult(reports=reports, summary=summarize(reports), report_path=path)


def run_matrix(cfg: ExperimentConfig) -> RunResult:
    """Experiment 1: the sink directly receives Y = A X with a random +/-1 matrix."""
    return _run(replace(cfg, scenario="matrix"), _collect_matrix)


def run_routing(cfg: ExperimentConfig) -> RunResult:
    """Experiment 2: multi-round broadcast/aggregate collection under packet loss."""
    return _run(replace(cfg, scenario="routing"), _collect_routing)


@dataclass(frozen=True)
class DctDemoResult:
    stress_zero_fill: float
    stress_column_removal: float
    report_path: str


def dct_demo_signal(cfg: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    """Signal of length dct_n that is dct_sparsity-sparse in the DCT domain."""
    phi = dct_matrix(cfg.dct_n)
    coeffs = np.zeros(cfg.dct_n)
    support = rng.choice(cfg.dct_n, size=cfg.dct_sparsity, replace=False)
    coeffs[support] = rng.uniform(1.0, 3.0, size=cfg.dct_sparsity) * rng.choice([-1.0, 1.0], size=cfg.dct_sparsity)
    return phi.T @ coeffs


def _basis_recover(a: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    meas = Measurement(a, y)
    return decode_consistent(solve_lp(build_l1(meas, t)), meas)


def run_dct_demo(cfg: ExperimentConfig) -> DctDemoResult:
    """Lost-data demonstration: zero-filling vs column-removal basis-L1 recovery."""
    cfg = replace(cfg, scenario="dct-demo")
    _, path = _start(cfg, lambda cfg: None)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xDC7)))
    n = cfg.dct_n
    x = dct_demo_signal(cfg, rng)
    a = rng.choice(np.array([-1.0, 1.0]), size=(cfg.dct_k, n))
    lost = np.sort(rng.choice(n, size=cfg.dct_losses, replace=False))
    kept = np.setdiff1d(np.arange(n), lost)

    # (a) lost readings silently become zeros; recover on the full index set
    x_zeroed = x.copy()
    x_zeroed[lost] = 0.0
    estimate_zero = _basis_recover(a, a @ x_zeroed, dct_matrix(n))
    stress_zero = stress(x, estimate_zero)

    # (b) drop the lost columns; the reduced signal is still expressed by the
    # original sparse coefficients through the surviving rows of the inverse
    # transform, so minimize ||C||_1 with the restricted synthesis operator
    a_kept = a[:, kept]
    synth = dct_matrix(n).T[kept]  # (n - losses, n)
    estimate_kept = synth @ _basis_recover(a_kept @ synth, a_kept @ x[kept], np.eye(n))
    stress_col = stress(x[kept], estimate_kept)

    with open(path, "w", encoding="utf-8") as out:
        for line in config_lines(cfg):
            out.write(f"# {line}\n")
        out.write("method,stress\n")
        out.write(f"zero_fill,{stress_zero:.12g}\n")
        out.write(f"column_removal,{stress_col:.12g}\n")
    return DctDemoResult(
        stress_zero_fill=stress_zero,
        stress_column_removal=stress_col,
        report_path=path,
    )

