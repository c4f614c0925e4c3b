"""Reconstruction stress metric, per-step reports and CSV emission."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .errors import DimensionError, NumericalError


@dataclass(frozen=True)
class StepReport:
    time: float
    stress: float
    method: str
    rows: int
    rank: int
    rounds_used: int
    uncoverable: int
    mean_payload_bits: float


@dataclass(frozen=True)
class Summary:
    mean_stress: float
    max_stress: float
    argmax_time: float
    determined_fraction: float


def stress(truth: np.ndarray, estimate: np.ndarray) -> float:
    """Normalized squared error: sum((x - xhat)^2) / sum(x^2), 0 when both are 0. Smaller is better.
    A value that is not finite, because a sum of squares overflows, raises NumericalError."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape:
        raise DimensionError(
            f"truth has shape {truth.shape}, estimate {estimate.shape}"
        )
    # a square that overflows is caught below, as the value it makes
    with np.errstate(over="ignore", invalid="ignore"):
        denom = float(np.sum(truth**2))
        value = float(np.sum((truth - estimate) ** 2))
    if denom == 0.0:
        if np.array_equal(truth, estimate):
            return 0.0
        raise DimensionError("stress undefined for a zero-norm truth vector and a nonzero estimate")
    value /= denom
    if not math.isfinite(value):
        raise NumericalError(f"stress={value}: the squared velocities or errors overflow float64")
    return value


def summarize(reports: Sequence[StepReport]) -> Summary:
    if not reports:
        raise DimensionError("cannot summarize zero reports")
    stresses = [r.stress for r in reports]
    worst = max(range(len(reports)), key=lambda i: stresses[i])
    determined = sum(1 for r in reports if r.method == "determined")
    return Summary(
        mean_stress=sum(stresses) / len(stresses),
        max_stress=stresses[worst],
        argmax_time=reports[worst].time,
        determined_fraction=determined / len(reports),
    )


REPORT_HEADER = "time_s,stress,method,rows,rank,L,uncoverable,mean_payload_bits"


def write_report_csv(
    out: IO[str],
    reports: Sequence[StepReport],
    config_lines: Sequence[str] = (),
) -> None:
    """One row per timestep; resolved config as a comment header, summary as a
    trailing comment block. Deterministic formatting for diffable artifacts."""
    for line in config_lines:
        out.write(f"# {line}\n")
    out.write(REPORT_HEADER + "\n")
    for r in reports:
        out.write(
            f"{r.time:.3f},{r.stress:.12g},{r.method},{r.rows},{r.rank},"
            f"{r.rounds_used},{r.uncoverable},{r.mean_payload_bits:.12g}\n"
        )
    if reports:
        s = summarize(reports)
        out.write(f"# summary mean_stress={s.mean_stress:.12g}\n")
        out.write(f"# summary max_stress={s.max_stress:.12g} at_time={s.argmax_time:.3f}\n")
        out.write(f"# summary determined_fraction={s.determined_fraction:.12g}\n")
