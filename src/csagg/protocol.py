"""Multi-round broadcast-and-aggregate collection protocol.

Within one timestep the collection runs L synchronized rounds. In round 1
every sensor broadcasts its own reading tagged with the unit combination
row e_i. In later rounds each sensor draws a +/-1 coefficient for every
message heard in the previous round (always including its own previous
message), sums the combination rows and aggregates, and broadcasts the
result. Every message a sink hears contributes one linear equation
aggregate = coeff_row . X to the sink-side system.

Combination rows are kept in exact integer arithmetic so the round-L rows
equal the product of the per-round mixing matrices entry for entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError
from .graph import NeighborGraph
from .linalg import LpStatus, least_squares, rank, solve_lp
from .radio import (
    RadioParams,
    RiderPositions,
    compute_reachability,
    hop_distance_to_sinks,
    in_range_links,
)
from .sparsity import Measurement, build_pairwise_l1, decode_solution

MIN_ROUNDS = 3
DEFAULT_CAP = 32
AGGREGATE_BITS = 64  # a real number on the wire


def payload_bits(n: int, cap_m: int) -> int:
    """Payload size of one aggregate message: n*ceil(log2(m)) + 64 bits."""
    if cap_m < 2:
        raise ConfigError("cap_m must be >= 2")
    return n * math.ceil(math.log2(cap_m)) + AGGREGATE_BITS


@dataclass(frozen=True)
class AggregateMessage:
    sender: int
    round: int
    coeff_row: np.ndarray  # (n,) int64
    aggregate: float
    payload_bits: int


@dataclass(frozen=True)
class SensorState:
    id: int
    round: int
    coeff_row: np.ndarray  # (n,) int64
    aggregate: float
    # drawn mixing rows, one length-n int vector per completed round >= 2
    mix_rows: tuple[np.ndarray, ...] = field(default=())


@dataclass
class LinearSystem:
    """Sink-side accumulation of equations coeff_row . X = value."""

    n: int
    rows: list[tuple[np.ndarray, float, tuple[int, int]]] = field(default_factory=list)

    def __post_init__(self):
        self._seen = {(r.tobytes(), v) for r, v, _ in self.rows}

    def matrix(self) -> np.ndarray:
        if not self.rows:
            return np.zeros((0, self.n))
        return np.array([r for r, _, _ in self.rows], dtype=float)

    def values(self) -> np.ndarray:
        return np.array([v for _, v, _ in self.rows], dtype=float)

    def append(self, coeff_row: np.ndarray, value: float, provenance: tuple[int, int]) -> bool:
        """Add one equation; returns False if (row, value) is already present."""
        coeff_row = np.asarray(coeff_row)
        if coeff_row.shape != (self.n,):
            raise DimensionError(
                f"coefficient row has shape {coeff_row.shape}, expected ({self.n},)"
            )
        key = (coeff_row.tobytes(), value)
        if key in self._seen:
            return False
        self._seen.add(key)
        self.rows.append((coeff_row, value, provenance))
        return True


def initial_state(sensor_id: int, n: int, reading: float, cap_m: int = DEFAULT_CAP):
    """Round-1 state and broadcast: unit row e_i with the sensor's own reading."""
    row = np.zeros(n, dtype=np.int64)
    row[sensor_id] = 1
    state = SensorState(id=sensor_id, round=1, coeff_row=row, aggregate=float(reading))
    msg = AggregateMessage(
        sender=sensor_id,
        round=1,
        coeff_row=row,
        aggregate=float(reading),
        payload_bits=payload_bits(n, cap_m),
    )
    return state, msg


def plan_rounds(hops: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """Rounds needed so every covered sensor reaches a sink: max(3, max hop).

    Riders with infinite hop count are returned as uncoverable rather than
    raising; they simply cannot contribute equations this timestep.
    """
    hops = np.asarray(hops, dtype=float)
    uncoverable = tuple(int(i) for i in np.nonzero(~np.isfinite(hops))[0])
    finite = hops[np.isfinite(hops)]
    deepest = int(finite.max()) if finite.size else 0
    return max(MIN_ROUNDS, deepest), uncoverable


def step_sensor(
    state: SensorState,
    inbox: list[AggregateMessage],
    rng: np.random.Generator,
    cap_m: int = DEFAULT_CAP,
) -> tuple[SensorState, AggregateMessage]:
    """Advance one sensor by one round: random +/-1 combination of the inbox.

    The sensor's own previous message always contributes; if the inbox pushes
    the contributor count above cap_m, a uniform subsample of the inbox is
    combined instead (self always kept).
    """
    for msg in inbox:
        if msg.round != state.round:
            raise DimensionError(
                f"inbox message from round {msg.round}, sensor is at round {state.round}"
            )
    contributors = list(inbox)
    if len(contributors) + 1 > cap_m:
        pick = rng.choice(len(contributors), size=cap_m - 1, replace=False)
        contributors = [contributors[i] for i in sorted(pick)]

    n = state.coeff_row.shape[0]
    new_row = np.zeros(n, dtype=np.int64)
    new_aggregate = 0.0
    mix_row = np.zeros(n, dtype=np.int64)
    own = AggregateMessage(
        sender=state.id,
        round=state.round,
        coeff_row=state.coeff_row,
        aggregate=state.aggregate,
        payload_bits=payload_bits(n, cap_m),
    )
    for msg in [own] + contributors:
        sign = 1 if rng.integers(0, 2) == 1 else -1
        new_row += sign * msg.coeff_row
        new_aggregate += sign * msg.aggregate
        mix_row[msg.sender] = sign

    peak = int(np.abs(new_row).max(initial=0))
    if peak >= cap_m:
        raise ConfigError(
            f"combination coefficient {peak} >= cap_m={cap_m}: increase cap_m"
        )
    new_state = SensorState(
        id=state.id,
        round=state.round + 1,
        coeff_row=new_row,
        aggregate=new_aggregate,
        mix_rows=state.mix_rows + (mix_row,),
    )
    out = AggregateMessage(
        sender=state.id,
        round=state.round + 1,
        coeff_row=new_row,
        aggregate=new_aggregate,
        payload_bits=payload_bits(n, cap_m),
    )
    return new_state, out


def sink_collect(system: LinearSystem, delivered: list[AggregateMessage]) -> LinearSystem:
    """Append one equation per delivered message, dropping exact duplicates."""
    for msg in delivered:
        system.append(msg.coeff_row, msg.aggregate, (msg.sender, msg.round))
    return system


def reconstruct(
    system: LinearSystem, graph: NeighborGraph, feas_tol: float = 1e-8
) -> tuple[np.ndarray, str]:
    """Solve the sink system: least squares when full rank, pairwise-L1 LP otherwise."""
    if not system.rows:
        raise DimensionError("cannot reconstruct from an empty system")
    a = system.matrix()
    y = system.values()
    if rank(a) == system.n:
        return least_squares(a, y), "determined"
    problem = build_pairwise_l1(Measurement(matrix=a, values=y), graph.edges)
    sol = solve_lp(problem, feas_tol=feas_tol)
    if sol.status is not LpStatus.OPTIMAL:
        raise NumericalError(
            f"CS linear program came back {sol.status.value}; "
            "rows of a consistent system cannot be infeasible"
        )
    return decode_solution(sol, system.n), "cs-lp"


@dataclass(frozen=True)
class CollectionResult:
    system: LinearSystem
    rounds_used: int
    uncoverable: tuple[int, ...]
    message_count: int
    mean_payload_bits: float


def collect_timestep(
    readings: np.ndarray,
    positions: RiderPositions,
    sinks: np.ndarray,
    radio: RadioParams,
    cap_m: int = DEFAULT_CAP,
    step_index: int = 0,
    check_aggregates: float | None = None,
) -> CollectionResult:
    """Run one timestep's L rounds of broadcast, aggregation and sink collection.

    check_aggregates, when set, asserts aggregate == coeff_row . readings
    within that tolerance for every emitted message (debug hook).
    """
    readings = np.asarray(readings, dtype=float)
    n = positions.n
    if readings.shape != (n,):
        raise DimensionError(f"readings shape {readings.shape}, expected ({n},)")
    links = in_range_links(positions, sinks, radio.range_m)
    hops = hop_distance_to_sinks(links, n)
    rounds_total, uncoverable = plan_rounds(hops)

    states = []
    broadcasts = []
    for i in range(n):
        state, msg = initial_state(i, n, readings[i], cap_m)
        states.append(state)
        broadcasts.append(msg)

    system = LinearSystem(n=n)
    message_count = 0
    bits_total = 0

    def _verify(msg: AggregateMessage) -> None:
        if check_aggregates is not None:
            err = abs(msg.aggregate - float(msg.coeff_row @ readings))
            if err > check_aggregates:
                raise NumericalError(
                    f"aggregate drifted from coeff_row . X by {err:.3e} "
                    f"(sensor {msg.sender}, round {msg.round})"
                )

    for rnd in range(1, rounds_total + 1):
        for msg in broadcasts:
            _verify(msg)
            message_count += 1
            bits_total += msg.payload_bits
        reach = compute_reachability(links, positions.time, radio, rnd)
        # sinks hear every round; riders' inboxes feed the next one
        inboxes: list[list[AggregateMessage]] = [[] for _ in range(n)]
        for sender, receiver in reach.delivered.tolist():
            if receiver >= n:
                sink_collect(system, [broadcasts[sender]])
            else:
                inboxes[receiver].append(broadcasts[sender])
        if rnd == rounds_total:
            break
        next_states = []
        next_broadcasts = []
        for i in range(n):
            rng = np.random.default_rng(
                np.random.SeedSequence((radio.seed, step_index, rnd, i))
            )
            state, msg = step_sensor(states[i], inboxes[i], rng, cap_m)
            next_states.append(state)
            next_broadcasts.append(msg)
        states, broadcasts = next_states, next_broadcasts

    mean_bits = bits_total / message_count if message_count else 0.0
    return CollectionResult(
        system=system,
        rounds_used=rounds_total,
        uncoverable=uncoverable,
        message_count=message_count,
        mean_payload_bits=mean_bits,
    )

