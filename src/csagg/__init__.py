"""Compressive data aggregation for mobile sensor networks in bike races."""

from .config import ExperimentConfig, load_config
from .graph import NeighborGraph, RiderPositions, knn_graph
from .linalg import (
    LpProblem,
    LpSolution,
    LpStatus,
    dct_matrix,
    least_squares,
    rank,
    solve_lp,
)
from .metrics import StepReport, stress, summarize
from .mobility import (
    PelotonParams,
    RaceTrace,
    ingest_trace,
    simulate_race,
    velocities,
)
from .protocol import (
    AggregateMessage,
    SensorState,
    collect_timestep,
    plan_rounds,
    reconstruct,
    step_sensor,
)
from .radio import RadioParams, Reachability, compute_reachability, hop_distance_to_sinks, in_range_links
from .sparsity import (
    Measurement,
    build_basis_l1,
    build_pairwise_l1,
    decode_consistent,
    decode_solution,
)

__all__ = [
    "AggregateMessage",
    "ExperimentConfig",
    "LpProblem",
    "LpSolution",
    "LpStatus",
    "Measurement",
    "NeighborGraph",
    "PelotonParams",
    "RaceTrace",
    "RadioParams",
    "Reachability",
    "RiderPositions",
    "SensorState",
    "StepReport",
    "build_basis_l1",
    "build_pairwise_l1",
    "collect_timestep",
    "compute_reachability",
    "dct_matrix",
    "decode_consistent",
    "decode_solution",
    "hop_distance_to_sinks",
    "in_range_links",
    "ingest_trace",
    "knn_graph",
    "least_squares",
    "load_config",
    "plan_rounds",
    "rank",
    "reconstruct",
    "simulate_race",
    "solve_lp",
    "step_sensor",
    "stress",
    "summarize",
    "velocities",
]
