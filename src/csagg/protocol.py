"""Multi-round broadcast-and-aggregate collection protocol.

Within one timestep the collection runs L synchronized rounds. In round 1
every sensor broadcasts its own reading tagged with the unit combination
row e_i. In later rounds each sensor draws a +/-1 coefficient for every
message heard in the previous round (always including its own previous
message), sums the combination rows and aggregates, and broadcasts the
result; a sum with a coefficient of cap_m or more would not fit the wire, so
the sensor forwards its previous message instead. A sensor with more than
cap_m - 1 messages in its inbox combines a uniform subsample of cap_m - 1.

Each round r >= 2 is one signed mixing matrix M_r on the combination rows,
R_r = M_r R_(r-1), with R_1 the identity. collect_timestep makes one pass
per round, and each round hands the next two arrays: the combination rows,
one int64 row per sensor, and their aggregates. Round 1 is the identity and
the readings. Round 2 mixes unit rows only, so no coefficient can reach
cap_m >= 2 and no sensor forwards: M_2 comes from (row, col, sign) triples
(unit_round_terms, mixing_matrix) and its aggregates are summed term by
term, self first, as step_sensor sums them (mix_aggregates). Rounds 3 and
later mix rows that are already sums, where a coefficient can overflow the
cap: they build one message per sensor from the two arrays, step each
sensor with step_sensor and stack the sent messages back. A round's
deliveries become the heard senders and the next round's inboxes through
one who-heard-whom table (receptions).

The random draws are counter-based: draw j of sensor i in round r of step t
is the splitmix64 hash chain of (DRAW_TAG, seed, t, r, i, j), its prefix
from radio.key_chain, turned into a uniform in [0, 1), so a sensor's draws
depend on nothing but that key. Each round hashes one block per stepped
sensor in a single array call, laid out as block_layout states; round 2
reads the blocks whole (unit_round_terms) and later rounds hand each
sensor its own (step_sensor).

Every message a sink hears contributes one linear equation
aggregate = coeff_row . X to the sink-side system, a sparsity.Measurement
whose rows come one block per round, in sender order, with exact duplicate
equations dropped. A last-round message that no sink hears is never
computed.

Combination rows are kept in exact integer arithmetic so the round-L rows
equal the product of the per-round mixing matrices entry for entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError
from .graph import NeighborGraph, smallest_per_row
from .linalg import least_squares, rank, solve_lp
from .radio import (
    RadioParams,
    RiderPositions,
    _splitmix64,
    compute_reachability,
    hop_distance_to_sinks,
    in_range_links,
    key_chain,
)
from .sparsity import Measurement, build_pairwise_l1, decode_consistent

MIN_ROUNDS = 3
DEFAULT_CAP = 32
AGGREGATE_BITS = 64  # a real number on the wire
# first key of every protocol draw chain; a radio.link_uniforms chain starts
# from the seed, so the two never hash the same key sequence
DRAW_TAG = int.from_bytes(b"protocol", "big")
# a sensor sums itself and at most cap_m - 1 inbox rows whose entries are
# below cap_m, so every int64 sum stays below cap_m**2 <= 2**62 and cannot wrap
MAX_CAP = 2**31


def payload_bits(n: int, cap_m: int) -> int:
    """Payload size of one aggregate message: n*ceil(log2(m)) + 64 bits.
    A cap_m outside [2, MAX_CAP] raises ConfigError."""
    if not 2 <= cap_m <= MAX_CAP:
        raise ConfigError(f"cap_m={cap_m} must be in [2, {MAX_CAP}]")
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


def initial_state(sensor_id: int, n: int, reading: float, cap_m: int = DEFAULT_CAP):
    """Round-1 state and broadcast: unit row e_i with the sensor's own reading."""
    row = np.zeros(n, dtype=np.int64)
    row[sensor_id] = 1
    state = SensorState(id=sensor_id, round=1, coeff_row=row, aggregate=float(reading))
    return state, AggregateMessage(sensor_id, 1, row, float(reading), payload_bits(n, cap_m))


def sensor_uniforms(
    seed: int, step_index: int, round_index: int, sensors: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """counts[k] uniforms in [0, 1) for each sensors[k], concatenated in order.

    Draw j of sensor i is the splitmix64 chain of (DRAW_TAG, seed,
    step_index, round_index, i, j), independent of the other sensors asked
    for and of their order.
    """
    key = key_chain(DRAW_TAG, seed, step_index, round_index)
    per_sensor = _splitmix64(key ^ np.asarray(sensors).astype(np.uint64))
    counts = np.asarray(counts, dtype=np.int64)
    draw = ranges(np.zeros_like(counts), counts)
    z = _splitmix64(np.repeat(per_sensor, counts) ^ draw.astype(np.uint64))
    return (z >> np.uint64(11)) * 2.0**-53


def block_layout(m: int | np.ndarray, cap_m: int) -> tuple:
    """(subsample, signs): the uniforms in the block of a sensor whose inbox
    holds m messages, for an int m or an int64 array of them. The block holds
    m subsample uniforms when the inbox overflows the cap (m + 1 > cap_m) and
    none otherwise, then one sign uniform per term, self first and the kept
    inbox in order."""
    over = m + 1 > cap_m
    return over * m, m + 1 - over * (m + 1 - cap_m)


def ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """starts[k], starts[k] + 1, ..., starts[k] + sizes[k] - 1 for each k in
    turn, concatenated."""
    return np.arange(sizes.sum()) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)


def unit_round_terms(
    senders: np.ndarray,
    inbox_start: np.ndarray,
    inbox_size: np.ndarray,
    inbox_from: np.ndarray,
    uniforms: np.ndarray,
    cap_m: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, col, sign) triples of a round whose every input is a unit row.

    Row k is senders[k]'s mixing row. Its inbox is inbox_from[inbox_start[k]
    : inbox_start[k] + inbox_size[k]], the senders it heard in delivery
    order, and its block of uniforms is the k-th of block_layout's, in order.
    An inbox over the cap keeps the cap_m - 1 messages with the smallest of
    the block's first inbox_size[k] uniforms, ties to the earlier one, in
    inbox order. Each term is signed +1 where its uniform is >= 0.5 and -1
    otherwise. The triples come grouped by row, each row's terms self first
    and then the kept inbox: step_sensor's draws and summation order.
    """
    subsample, signs = block_layout(inbox_size, cap_m)
    block = np.cumsum(subsample + signs) - (subsample + signs)
    heard = inbox_from[ranges(inbox_start, inbox_size)]
    kept = np.ones(heard.size, dtype=bool)
    over = subsample > 0
    if over.any():
        # the over-cap inboxes' uniforms in a table, one row per inbox and
        # +inf past its end; each row keeps its cap_m - 1 smallest
        size = inbox_size[over]
        width = size.max()
        slot = ranges(np.arange(size.size) * width, size)
        table = np.full((size.size, width), np.inf)
        table.ravel()[slot] = uniforms[ranges(block[over], size)]
        kept[np.repeat(over, inbox_size)] = smallest_per_row(table, cap_m - 1).ravel()[slot]

    row = np.repeat(np.arange(len(senders)), signs)
    own = np.zeros(row.size, dtype=bool)
    own[np.cumsum(signs) - signs] = True
    col = np.empty(row.size, dtype=np.int64)
    col[own] = senders
    col[~own] = heard[kept]
    sign = np.where(uniforms[ranges(block + subsample, signs)] >= 0.5, 1, -1)
    return row, col, sign


def mixing_matrix(row: np.ndarray, col: np.ndarray, sign: np.ndarray, shape: tuple[int, int]):
    """The signed mixing matrix M with M[row[t], col[t]] = sign[t], as a dense
    int64 array; repeated (row, col) pairs add up."""
    flat = np.bincount(row * shape[1] + col, weights=sign, minlength=shape[0] * shape[1])
    return flat.astype(np.int64).reshape(shape)


def mix_aggregates(
    row: np.ndarray, col: np.ndarray, sign: np.ndarray, values: np.ndarray, size: int
) -> np.ndarray:
    """M @ values for the mixing matrix of the triples, each row summed one
    term at a time from 0.0 in the triples' order, as step_sensor sums: a
    pairwise or BLAS sum rounds differently."""
    # bincount adds its weights one at a time, in order
    return np.bincount(row, weights=sign * values[col], minlength=size)


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
    draws: np.random.Generator | np.ndarray,
    cap_m: int = DEFAULT_CAP,
) -> tuple[SensorState, AggregateMessage]:
    """Advance one sensor by one round: random +/-1 combination of the inbox.

    The step reads the k uniforms of block_layout(len(inbox), cap_m): from a
    Generator with draws.random(k), or as the sensor's block, which must hold
    exactly k (another length raises DimensionError). The sensor's own
    previous message always contributes; an inbox that pushes the
    contributor count above cap_m keeps the cap_m - 1 messages with the
    smallest subsample uniforms, ties to the earlier one, in inbox order.
    Each term is signed +1 where its uniform is >= 0.5 and -1 otherwise. A
    combination with a coefficient of cap_m or more would not fit its
    ceil(log2 cap_m)-bit slot: it is not sent, and the sensor forwards its
    previous row and aggregate instead, with mixing row e_i. A previous row
    that does not fit, or a cap_m outside [2, MAX_CAP], raises ConfigError.
    """
    n = state.coeff_row.shape[0]
    bits = payload_bits(n, cap_m)
    own_peak = int(np.abs(state.coeff_row).max(initial=0))
    if own_peak >= cap_m:
        raise ConfigError(
            f"sensor {state.id} holds coefficient {own_peak} >= cap_m={cap_m}: increase cap_m"
        )
    for msg in inbox:
        if msg.round != state.round:
            raise DimensionError(
                f"inbox message from round {msg.round}, sensor is at round {state.round}"
            )
    subsample, terms = block_layout(len(inbox), cap_m)
    u = draws.random(subsample + terms) if isinstance(draws, np.random.Generator) else draws
    if len(u) != subsample + terms:
        raise DimensionError(
            f"sensor {state.id} got a block of {len(u)} uniforms, its step reads {subsample + terms}"
        )
    contributors = inbox
    if subsample:
        pick = np.argsort(u[:subsample], kind="stable")[: cap_m - 1]
        contributors = [inbox[i] for i in np.sort(pick).tolist()]

    signs = np.where(u[subsample:] >= 0.5, 1, -1)
    new_row = signs @ np.array([state.coeff_row, *[msg.coeff_row for msg in contributors]])
    mix_row = np.zeros(n, dtype=np.int64)
    if np.abs(new_row).max(initial=0) >= cap_m:
        new_row, new_aggregate = state.coeff_row, state.aggregate
        mix_row[state.id] = 1
    else:
        # summed term by term, self first: a pairwise or BLAS sum rounds differently
        new_aggregate = 0.0
        for sign, aggregate in zip(
            signs.tolist(), [state.aggregate, *[msg.aggregate for msg in contributors]]
        ):
            new_aggregate += sign * aggregate
        mix_row[[state.id, *[msg.sender for msg in contributors]]] = signs
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
        payload_bits=bits,
    )
    return new_state, out


def reconstruct(system: Measurement, graph: NeighborGraph) -> tuple[np.ndarray, str]:
    """Solve the sink system: least squares when full rank, pairwise-L1 LP otherwise."""
    if system.k == 0:
        raise DimensionError("cannot reconstruct from an empty system")
    if rank(system.rows) == system.n:
        return least_squares(system.rows, system.values), "determined"
    return decode_consistent(solve_lp(build_pairwise_l1(system, graph.edges)), system), "cs-lp"


@dataclass(frozen=True)
class CollectionResult:
    system: Measurement
    rounds_used: int
    uncoverable: tuple[int, ...]
    message_count: int
    mean_payload_bits: float


def _first_equations(rows: np.ndarray, values: np.ndarray) -> Measurement:
    """The equations in order, each exact (row, value) duplicate dropped after
    its first occurrence. Adding 0.0 turns -0.0 into 0.0, so values compare
    as with ==; two equations are equal when all their bytes are, so each is
    one opaque record for np.unique."""
    key = np.column_stack([rows, (values + 0.0).view(np.int64)])
    records = key.view(np.dtype((np.void, key.shape[1] * key.itemsize)))[:, 0]
    first = np.sort(np.unique(records, return_index=True)[1])
    return Measurement(rows[first], values[first])


def receptions(delivered: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(heard, sizes, inbox_from) of one round's delivered (sender, receiver)
    pairs: the senders some sink hears, in id order; each rider's inbox
    size; and the senders in the inboxes, receiver by receiver, each inbox
    in sender order, which is delivery order.

    One boolean table holds who heard whom, a row per receiving rider and
    one row for all sinks together; its set entries, read in order, are the
    inboxes.
    """
    heard_by = np.zeros((n + 1, n), dtype=bool)
    heard_by.ravel()[np.minimum(delivered[:, 1], n) * n + delivered[:, 0]] = True
    entries = np.flatnonzero(heard_by[:n])
    return np.flatnonzero(heard_by[n]), np.bincount(entries // n, minlength=n), entries % n


def collect_timestep(
    readings: np.ndarray,
    positions: RiderPositions,
    sinks: np.ndarray,
    radio: RadioParams,
    cap_m: int = DEFAULT_CAP,
    step_index: int = 0,
    check_aggregates: bool = False,
) -> CollectionResult:
    """Run one timestep's L rounds of broadcast, aggregation and sink collection.

    One pass per round: round r's deliveries give the senders the sinks hear
    in round r and the inboxes round r + 1 reads, and round r >= 2 maps
    round r - 1's combination rows and aggregates to the same two arrays for
    the sensors it steps. The sink system holds every broadcast a sink
    hears, by round and then by sender, without exact duplicates. A round-L
    message that no sink hears is never read, so the last round steps only
    the heard senders; a sensor's draws are keyed by its id alone, so this
    changes no equation. check_aggregates (debug hook) asserts
    aggregate == coeff_row . readings for every computed message within
    max(1e-9, 64 eps s), s the summed magnitude of the terms added into it
    round by round; an error names the sensor and round.
    """
    readings = np.asarray(readings, dtype=float)
    n = positions.n
    if readings.shape != (n,):
        raise DimensionError(f"readings shape {readings.shape}, expected ({n},)")
    message_bits = payload_bits(n, cap_m)
    links = in_range_links(positions, sinks, radio.range_m)
    hops = hop_distance_to_sinks(links, n)
    rounds_total, uncoverable = plan_rounds(hops)

    # round 1 is the identity: each sensor sends its reading with the unit
    # row e_i, so the sinks' round-1 equations are the heard senders' e_i
    rows, aggregates = np.eye(n, dtype=np.int64), readings
    terms_size = np.abs(readings)  # check_aggregates' s: |M_r| ... |M_2| |X|
    rows_heard, values_heard = [], []
    for rnd in range(1, rounds_total + 1):
        # rows and aggregates hold round rnd - 1's messages, one per sensor,
        # and inbox_sizes and inbox_from the inboxes they reached
        delivered = compute_reachability(links, positions.time, radio, rnd).delivered
        heard, next_sizes, next_from = receptions(delivered, n)
        last = rnd == rounds_total
        if rnd > 1:
            # round rnd steps every sensor, or in the last round the heard ones
            senders = heard if last else np.arange(n)
            sizes, starts = inbox_sizes[senders], (np.cumsum(inbox_sizes) - inbox_sizes)[senders]
            subsample, signs = block_layout(sizes, cap_m)
            uniforms = sensor_uniforms(radio.seed, step_index, rnd - 1, senders, subsample + signs)
            if rnd == 2:
                # every input is a unit row, so each sensor's new row is its
                # row of M_2, whose +/-1 entries never reach cap_m >= 2
                terms = unit_round_terms(senders, starts, sizes, inbox_from, uniforms, cap_m)
                rows = mixing_matrix(*terms, (n, n))
                aggregates = mix_aggregates(*terms, aggregates, n)
            else:
                # objects from the two arrays, the sent messages stacked back
                values = aggregates.tolist()
                messages = [
                    AggregateMessage(j, rnd - 1, rows[j], values[j], message_bits) for j in range(n)
                ]
                inbox = inbox_from.tolist()
                ends = np.cumsum(subsample + signs).tolist()
                stepped = [
                    step_sensor(
                        SensorState(i, rnd - 1, rows[i], values[i]),
                        [messages[j] for j in inbox[start : start + size]],
                        uniforms[lo:hi],
                        cap_m,
                    )
                    for i, start, size, lo, hi in zip(
                        senders.tolist(), starts.tolist(), sizes.tolist(), [0] + ends, ends
                    )
                ]
                rows = np.array([msg.coeff_row for _, msg in stepped], dtype=np.int64).reshape(-1, n)
                aggregates = np.array([msg.aggregate for _, msg in stepped], dtype=float)
            if check_aggregates:
                # an aggregate rounds in proportion to the terms added into
                # it; round 2's rows are its mixing rows
                mix = rows if rnd == 2 else [state.mix_rows[-1] for state, _ in stepped]
                terms_size = np.abs(np.reshape(mix, (-1, n))) @ terms_size
                err = np.abs(aggregates - rows @ readings)
                tol = np.maximum(1e-9, 64 * np.finfo(float).eps * terms_size)
                bad = np.flatnonzero(err > tol)
                if bad.size:
                    raise NumericalError(
                        f"aggregate drifted from coeff_row . X by {err[bad[0]]:.3e} "
                        f"(tolerance {tol[bad[0]]:.3e}, sensor {senders[bad[0]]}, round {rnd})"
                    )
        rows_heard.append(rows if last else rows[heard])
        values_heard.append(aggregates if last else aggregates[heard])
        inbox_sizes, inbox_from = next_sizes, next_from

    # every sensor sends one message of payload_bits(n, cap_m) per round
    return CollectionResult(
        system=_first_equations(np.vstack(rows_heard), np.concatenate(values_heard)),
        rounds_used=rounds_total,
        uncoverable=uncoverable,
        message_count=n * rounds_total,
        mean_payload_bits=float(message_bits),
    )
