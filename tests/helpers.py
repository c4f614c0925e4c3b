"""Shared test oracles, independent of the code paths they check."""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from csagg.graph import NeighborGraph, RiderPositions
from csagg.mobility import (
    FLOCK_ACCEL_CLAMP,
    LATERAL_HALFWIDTH_M,
    SEPARATION_RADIUS_M,
    SPEED_RELAX_PER_S,
    PelotonParams,
    RaceTrace,
)
from csagg.config import (
    ExperimentConfig,
    _format_float,
    _format_profile,
    _parse_bool,
    _parse_profile,
)
from csagg.errors import ConfigError, DimensionError
from csagg.linalg import LpProblem
from csagg.protocol import (
    DRAW_TAG,
    AggregateMessage,
    SensorState,
    block_layout,
    initial_state,
    payload_bits,
)
from csagg.radio import RadioParams, link_uniforms
from csagg.sparsity import Measurement


def brute_force_lp(c: np.ndarray, g: np.ndarray, h: np.ndarray) -> float | None:
    """Minimum objective over basic feasible solutions by exhaustive enumeration.

    Valid oracle for bounded feasible standard-form LPs with full-row-rank G.
    Returns None if no basic feasible solution exists.
    """
    m, n = g.shape
    best = None
    for cols in itertools.combinations(range(n), m):
        sub = g[:, cols]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x_basic = np.linalg.solve(sub, h)
        if x_basic.min() < -1e-9:
            continue
        obj = float(c[list(cols)] @ x_basic)
        if best is None or obj < best:
            best = obj
    return best


def random_feasible_lp(rng: np.random.Generator):
    """A bounded feasible standard-form LP: c >= 0, h reachable from x0 >= 0."""
    m = int(rng.integers(1, 5))
    n = int(rng.integers(m + 1, 7))
    g = rng.standard_normal((m, n))
    x0 = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 3.0, n))
    h = g @ x0
    c = np.abs(rng.standard_normal(n))
    return c, g, h


def bernoulli_matrix(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """k x n matrix of +/-1 entries, equiprobable."""
    return rng.choice(np.array([-1.0, 1.0]), size=(k, n))


def standard_form_abs_lp(a: np.ndarray, y: np.ndarray, t: np.ndarray):
    """(c, G, h) of min ||T X||_1 s.t. A X = Y in pure standard form.

    Variables [X+(n), X-(n), delta(p), s1(p), s2(p)], all nonnegative:
    A (X+ - X-) = Y, T X - delta + s1 = 0, -T X - delta + s2 = 0, cost 1.delta.
    """
    k, n = a.shape
    p = t.shape[0]
    eye = np.eye(p)
    zero = np.zeros((p, p))
    g = np.block([
        [a, -a, np.zeros((k, 3 * p))],
        [t, -t, -eye, eye, zero],
        [-t, t, -eye, zero, eye],
    ])
    h = np.concatenate([y, np.zeros(2 * p)])
    c = np.concatenate([np.zeros(2 * n), np.ones(p), np.zeros(2 * p)])
    return c, g, h


def split_residual_abs_lp(a: np.ndarray, y: np.ndarray, t: np.ndarray):
    """(c, G, h, lower) of min ||T X||_1 s.t. A X = Y with one split residual
    per row of T.

    Variables [X(n), u(p), v(p)], X free and u, v >= 0:
    A X = Y, T X - u + v = 0, cost 1.(u + v).
    """
    k, n = a.shape
    p = t.shape[0]
    eye = np.eye(p)
    g = np.block([
        [a, np.zeros((k, 2 * p))],
        [t, -eye, eye],
    ])
    h = np.concatenate([y, np.zeros(p)])
    c = np.concatenate([np.zeros(n), np.ones(2 * p)])
    lower = np.concatenate([np.full(n, -np.inf), np.zeros(2 * p)])
    return c, g, h, lower


def unreduced_abs_bound_lp(meas: Measurement, t: np.ndarray) -> LpProblem:
    """Dual LP of min ||T X||_1 s.t. A X = Y over every received row, as a
    minimization:

    min -Y.lambda  s.t.  A^T lambda - T^T mu = 0,  lambda free, -1 <= mu <= 1.

    Variables: [lambda(k), mu(p)], one dense lambda column per row of A, dependent
    rows included; X is minus the equality duals. An inconsistent A X = Y
    makes this LP unbounded.
    """
    a, y = meas.rows, meas.values
    k, n = a.shape
    p = t.shape[0]
    return LpProblem(
        objective=np.concatenate([-y, np.zeros(p)]),
        eq_matrix=np.hstack([a.T, -t.T]),
        eq_rhs=np.zeros(n),
        lower=np.concatenate([np.full(k, -np.inf), np.full(p, -1.0)]),
        upper=np.concatenate([np.full(k, np.inf), np.full(p, 1.0)]),
    )


def random_bounded_lp(rng: np.random.Generator):
    """A bounded feasible LP with mixed bounds: some variables free, others z >= lower.

    The cost is dual feasible (c = G^T w + s, s >= 0 and zero on free
    variables), so the optimum is finite.
    """
    m = int(rng.integers(1, 5))
    n = int(rng.integers(m + 1, 8))
    g = rng.standard_normal((m, n))
    free = rng.random(n) < 0.4
    lower = np.where(free, -np.inf, rng.uniform(-2.0, 2.0, n))
    above = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 3.0, n))
    x0 = np.where(free, rng.standard_normal(n), lower + above)
    h = g @ x0
    c = g.T @ rng.standard_normal(m) + np.where(free, 0.0, np.abs(rng.standard_normal(n)))
    return c, g, h, lower


def _in_range_reference(positions: RiderPositions, sinks, range_m: float) -> np.ndarray:
    """Symmetric (n+s, n+s) in-range matrix over riders then sinks, no self-links."""
    pts = np.vstack([positions.pos, np.atleast_2d(np.asarray(sinks, dtype=float))])
    diff = pts[:, None, :] - pts[None, :, :]
    in_range = np.sqrt((diff**2).sum(axis=2)) <= range_m
    np.fill_diagonal(in_range, False)
    return in_range


def reachability_reference(
    positions: RiderPositions, sinks, params: RadioParams, round_index: int
) -> frozenset[tuple[int, int]]:
    """Delivered (sender, receiver) pairs of one round from a full distance
    matrix: a rider sends to every rider and sink within range_m, sinks never
    send, and each link survives iff its link_uniforms draw is >= loss_p."""
    in_range = _in_range_reference(positions, sinks, params.range_m)
    in_range[positions.n :, :] = False
    senders, receivers = np.nonzero(in_range)
    if params.loss_p > 0.0:
        u = link_uniforms(params.seed, positions.time, round_index, senders, receivers)
        keep = u >= params.loss_p
        senders, receivers = senders[keep], receivers[keep]
    return frozenset(zip(senders.tolist(), receivers.tolist()))


def hops_reference(positions: RiderPositions, sinks, range_m: float) -> np.ndarray:
    """Hop count from each rider to the nearest sink, by a level-by-level BFS
    out of the sinks over the full in-range matrix; inf when out of reach."""
    in_range = _in_range_reference(positions, sinks, range_m)
    n, total = positions.n, in_range.shape[0]
    hops = np.full(total, np.inf)
    frontier = list(range(n, total))
    hops[frontier] = 0.0
    level = 0
    while frontier:
        level += 1
        nxt = []
        for v in frontier:
            for w in np.nonzero(in_range[v])[0]:
                if hops[w] == np.inf:
                    hops[w] = level
                    nxt.append(int(w))
        frontier = nxt
    return hops[:n]


def hops_dijkstra_reference(links: np.ndarray, n: int) -> np.ndarray:
    """Hop count from each of the n riders to the nearest sink over directed
    (sender, receiver) links, by scipy's unweighted Dijkstra from one node
    standing for every sink along the reversed links; inf when out of reach."""
    receivers = np.minimum(links[:, 1], n)
    reverse = csr_matrix((np.ones(len(links)), (receivers, links[:, 0])), shape=(n + 1, n + 1))
    return dijkstra(reverse, unweighted=True, indices=n)[:n]


def receptions_reference(delivered, n: int) -> tuple[list[int], list[list[int]]]:
    """(heard, inboxes) of one round, one delivered pair at a time in sorted
    order: the senders some sink (node >= n) hears, and each rider's inbox."""
    heard, inboxes = set(), [[] for _ in range(n)]
    for sender, receiver in sorted(map(tuple, np.asarray(delivered).tolist())):
        if receiver >= n:
            heard.add(sender)
        else:
            inboxes[receiver].append(sender)
    return sorted(heard), inboxes


def unit_round_terms_reference(
    senders: np.ndarray,
    inbox_start: np.ndarray,
    inbox_size: np.ndarray,
    inbox_from: np.ndarray,
    uniforms: np.ndarray,
    cap_m: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """protocol.unit_round_terms with each over-cap inbox's subsample picked
    by two stable argsorts over all inbox entries, by row and then by
    uniform, ties in inbox order; the signs are 2*floor(2u) - 1."""
    subsample, signs = block_layout(inbox_size, cap_m)
    block = np.cumsum(subsample + signs) - (subsample + signs)
    owner = np.repeat(np.arange(len(senders)), inbox_size)
    place = np.arange(owner.size) - np.repeat(np.cumsum(inbox_size) - inbox_size, inbox_size)
    heard = inbox_from[inbox_start[owner] + place]
    drawn = np.flatnonzero(subsample[owner] > 0)
    drawn_owner = owner[drawn]
    u = uniforms[block[drawn_owner] + place[drawn]]
    by_u = np.argsort(u, kind="stable")
    order = by_u[np.argsort(drawn_owner[by_u], kind="stable")]
    grouped = drawn_owner[order]
    kept = np.ones(owner.size, dtype=bool)
    kept[drawn[order]] = np.arange(order.size) - np.searchsorted(grouped, grouped) < cap_m - 1

    row = np.repeat(np.arange(len(senders)), signs)
    term = np.arange(row.size) - np.repeat(np.cumsum(signs) - signs, signs)
    col = np.empty(row.size, dtype=np.int64)
    col[term == 0] = senders
    col[term > 0] = heard[kept]
    sign = 2 * np.floor(uniforms[block[row] + subsample[row] + term] * 2).astype(np.int64) - 1
    return row, col, sign


def first_equations_reference(rows: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, values) without exact duplicates, first occurrences in order:
    one Python loop that keeps an equation unless the bytes of its row and of
    its value + 0.0 were seen before."""
    seen, first = set(), []
    for i, (row, value) in enumerate(zip(rows, values)):
        key = (row.tobytes(), np.float64(value + 0.0).tobytes())
        if key not in seen:
            seen.add(key)
            first.append(i)
    first = np.array(first, dtype=np.int64)
    return rows[first], values[first]


_MASK64 = 2**64 - 1


def splitmix64_reference(x: int) -> int:
    """One splitmix64 step on a Python int, wrapping at 2**64 by masking."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class ScalarDraws:
    """One sensor's protocol draws, each uniform from its own scalar chain:
    draw j hashes (DRAW_TAG, seed, step, round, sensor, j) one key at a time,
    and its top 53 bits scaled by 2**-53 are the uniform. The chain has no end."""

    def __init__(self, seed: int, step_index: int, round_index: int, sensor: int):
        self.keys = (seed, step_index, round_index, sensor)
        self.drawn = 0

    def random(self) -> float:
        z = splitmix64_reference(DRAW_TAG)
        for key in (*self.keys, self.drawn):
            z = splitmix64_reference(z ^ key)
        self.drawn += 1
        return (z >> 11) * 2.0**-53


def step_sensor_reference(
    state: SensorState,
    inbox: list[AggregateMessage],
    rng: np.random.Generator | ScalarDraws,
    cap_m: int,
) -> tuple[SensorState, AggregateMessage]:
    """protocol.step_sensor one contributor at a time, each uniform a scalar
    rng.random(): an inbox of cap_m or more messages draws one uniform per
    message and keeps the cap_m - 1 smallest (sorted() is stable, so tied
    uniforms keep their order), in inbox order; then each term, self first,
    draws its sign (+1 when u >= 0.5), and the row and aggregate are summed
    term by term."""
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
    contributors = list(inbox)
    if len(contributors) + 1 > cap_m:
        u = [rng.random() for _ in contributors]
        pick = sorted(range(len(u)), key=u.__getitem__)[: cap_m - 1]
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
        sign = 1 if rng.random() >= 0.5 else -1
        new_row += sign * msg.coeff_row
        new_aggregate += sign * msg.aggregate
        mix_row[msg.sender] = sign

    if np.abs(new_row).max(initial=0) >= cap_m:
        new_row, new_aggregate = state.coeff_row, state.aggregate
        mix_row = np.zeros(n, dtype=np.int64)
        mix_row[state.id] = 1
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


def sink_system_reference(
    readings: np.ndarray,
    positions: RiderPositions,
    sinks,
    params: RadioParams,
    cap_m: int,
    step_index: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, values) of one timestep's sink system, one delivered pair at a time.

    Rounds, hop counts and deliveries come from the distance-matrix oracles
    above. Each round walks the delivered (sender, receiver) pairs in sorted
    order: a rider's inbox takes the message, and a sink appends its
    equation unless the same (row, value) pair is already in the system.
    Every sensor then advances with step_sensor_reference, drawing from
    ScalarDraws(seed, step, round, sensor).
    """
    n = positions.n
    hops = hops_reference(positions, sinks, params.range_m)
    finite = hops[np.isfinite(hops)]
    rounds = max(3, int(finite.max()) if finite.size else 0)
    states, msgs = zip(*(initial_state(i, n, readings[i], cap_m) for i in range(n)))
    rows, values, seen = [], [], set()
    for rnd in range(1, rounds + 1):
        inboxes = [[] for _ in range(n)]
        for sender, receiver in sorted(reachability_reference(positions, sinks, params, rnd)):
            msg = msgs[sender]
            if receiver < n:
                inboxes[receiver].append(msg)
            elif (msg.coeff_row.tobytes(), msg.aggregate) not in seen:
                seen.add((msg.coeff_row.tobytes(), msg.aggregate))
                rows.append(msg.coeff_row)
                values.append(msg.aggregate)
        if rnd == rounds:
            break
        states, msgs = zip(*(
            step_sensor_reference(
                states[i],
                inboxes[i],
                ScalarDraws(params.seed, step_index, rnd, i),
                cap_m,
            )
            for i in range(n)
        ))
    return np.array(rows, dtype=np.int64).reshape(-1, n), np.array(values, dtype=float)


def flocking_reference(pos: np.ndarray, vel: np.ndarray, params: PelotonParams) -> np.ndarray:
    """Clamped flocking acceleration with every force a masked (n, n, 2)
    broadcast sum over neighbours."""
    n = pos.shape[0]
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    nbr = dist <= params.neighbor_radius
    counts = nbr.sum(axis=1)

    acc = np.zeros((n, 2))
    has = counts > 0
    if np.any(has):
        centroid = (nbr[:, :, None] * pos[None, :, :]).sum(axis=1)
        centroid[has] /= counts[has, None]
        coh = np.zeros((n, 2))
        coh[has] = params.cohesion_gain * (centroid[has] - pos[has])
        meanvel = (nbr[:, :, None] * vel[None, :, :]).sum(axis=1)
        meanvel[has] /= counts[has, None]
        ali = np.zeros((n, 2))
        ali[has] = params.alignment_gain * (meanvel[has] - vel[has])
        acc += coh + ali
    close = dist < SEPARATION_RADIUS_M
    if np.any(close):
        safe = np.maximum(dist, 1e-6)
        safe[~np.isfinite(safe)] = 1.0
        weight = np.where(close, SEPARATION_RADIUS_M - dist, 0.0) / (SEPARATION_RADIUS_M * safe)
        acc += params.separation_gain * (weight[:, :, None] * diff).sum(axis=1)
    np.clip(acc, -FLOCK_ACCEL_CLAMP, FLOCK_ACCEL_CLAMP, out=acc)
    return acc


def simulate_race_reference(params: PelotonParams) -> RaceTrace:
    """The peloton simulator stepping with flocking_reference; same random
    stream as simulate_race."""
    params.validate()
    rng = np.random.default_rng(params.seed)
    n, dt = params.n, params.dt
    steps = int(round(params.duration / dt))
    pos = np.empty((n, 2))
    pos[:, 0] = rng.uniform(0.0, params.init_length, size=n)
    pos[:, 1] = rng.uniform(-4.0, 4.0, size=n)
    vel = np.zeros((n, 2))
    vel[:, 0] = params.speed_at(0.0) + params.speed_jitter * rng.standard_normal(n)
    boost_until = np.full(n, -1.0)

    frames = [pos.copy()]
    for step in range(steps - 1):
        t = step * dt
        target = np.full(n, params.speed_at(t))
        draws = rng.random(n)
        starting = (draws < params.breakaway_rate * dt) & (boost_until <= t)
        boost_until[starting] = t + params.breakaway_duration
        target[boost_until > t] += params.breakaway_boost

        acc = flocking_reference(pos, vel, params)
        acc[:, 0] += SPEED_RELAX_PER_S * (target - vel[:, 0])
        vel = vel + dt * acc
        pos = pos + dt * vel
        low = pos[:, 1] < -LATERAL_HALFWIDTH_M
        high = pos[:, 1] > LATERAL_HALFWIDTH_M
        pos[low, 1] = -LATERAL_HALFWIDTH_M
        pos[high, 1] = LATERAL_HALFWIDTH_M
        vel[low | high, 1] = 0.0
        frames.append(pos.copy())
    return RaceTrace(dt=dt, times=[k * dt for k in range(steps)], pos=frames)


def knn_reference(positions: RiderPositions, k_neighbors: int) -> NeighborGraph:
    """k-NN union graph, one stable argsort per rider over a broadcast
    distance matrix, edges gathered in a set."""
    n = positions.n
    p = positions.pos
    diff = p[:, None, :] - p[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    edges: set[tuple[int, int]] = set()
    for i in range(n):
        for j in np.argsort(dist[i], kind="stable")[:k_neighbors]:
            edges.add((min(i, int(j)), max(i, int(j))))
    return NeighborGraph(n=n, edges=tuple(sorted(edges)))


@st.composite
def edge_lists(draw, n: int) -> tuple[tuple[int, int], ...]:
    """Edges i < j of an n-vertex graph, repeats allowed, and in half of the
    lists one more (i, j) with both ends in -1..n at a random place."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    if draw(st.booleans()):
        end = st.integers(-1, n)
        edges.insert(draw(st.integers(0, len(edges))), draw(st.tuples(end, end)))
    return tuple(edges)


def edges_check_reference(edges, n: int) -> None:
    """NeighborGraph's edge check one edge at a time: the first edge that is
    not 0 <= i < j < n, or that was seen before, raises DimensionError."""
    seen = set()
    for i, j in edges:
        if not (0 <= i < j < n):
            raise DimensionError(f"edge ({i},{j}) invalid for n={n}")
        if (i, j) in seen:
            raise DimensionError(f"duplicate edge ({i},{j})")
        seen.add((i, j))


def pairwise_difference_reference(edges, n: int) -> np.ndarray:
    """The (|E|, n) difference operator, checked and filled one edge at a time."""
    edges = [(int(i), int(j)) for i, j in edges]
    edges_check_reference(edges, n)
    if not edges:
        raise DimensionError("edge list is empty: the objective would be void")
    t = np.zeros((len(edges), n))
    for e, (i, j) in enumerate(edges):
        t[e, i] = 1.0
        t[e, j] = -1.0
    return t


def components_reference(graph: NeighborGraph) -> list[list[int]]:
    """Connected components by a depth-first walk from each unseen vertex in
    index order; each component sorted."""
    adj: list[list[int]] = [[] for _ in range(graph.n)]
    for i, j in graph.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * graph.n
    comps = []
    for start in range(graph.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    frontier.append(w)
        comps.append(sorted(comp))
    return comps


# config key -> the PelotonParams float field it sets
_PELOTON_FLOATS = {
    "duration_s": "duration",
    "dt_s": "dt",
    "separation_gain": "separation_gain",
    "alignment_gain": "alignment_gain",
    "cohesion_gain": "cohesion_gain",
    "neighbor_radius_m": "neighbor_radius",
    "breakaway_rate": "breakaway_rate",
    "breakaway_boost_mps": "breakaway_boost",
    "breakaway_duration_s": "breakaway_duration",
    "speed_jitter_mps": "speed_jitter",
    "init_length_m": "init_length",
}


def apply_setting_reference(cfg: ExperimentConfig, key: str, value: str) -> ExperimentConfig:
    """config.apply_setting written out key by key, one case per key."""
    p = cfg.peloton
    try:
        match key:
            case "scenario":
                return replace(cfg, scenario=value)
            case "n":
                return replace(cfg, peloton=replace(p, n=int(value)))
            case "base_speed_profile":
                return replace(cfg, peloton=replace(p, base_speed_profile=_parse_profile(value)))
            case _ if key in _PELOTON_FLOATS:
                return replace(cfg, peloton=replace(p, **{_PELOTON_FLOATS[key]: float(value)}))
            case "trace":
                return replace(cfg, trace_path=value or None)
            case "range_m":
                return replace(cfg, range_m=float(value))
            case "loss_p":
                return replace(cfg, loss_p=float(value))
            case "k_measurements":
                return replace(cfg, k_measurements=int(value))
            case "k_neighbors":
                return replace(cfg, k_neighbors=int(value))
            case "cap_m":
                return replace(cfg, cap_m=int(value))
            case "graph_mode":
                return replace(cfg, graph_mode=value)
            case "steps":
                return replace(cfg, steps=int(value))
            case "check_aggregates":
                return replace(cfg, check_aggregates=_parse_bool(value))
            case "dct_n":
                return replace(cfg, dct_n=int(value))
            case "dct_sparsity":
                return replace(cfg, dct_sparsity=int(value))
            case "dct_losses":
                return replace(cfg, dct_losses=int(value))
            case "dct_k":
                return replace(cfg, dct_k=int(value))
            case "seed":
                return replace(cfg, seed=int(value), peloton=replace(p, seed=int(value)))
            case "out":
                return replace(cfg, out_dir=value)
            case _:
                raise ConfigError(f"unknown config key {key!r}")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def config_lines_reference(cfg: ExperimentConfig) -> list[str]:
    """config.config_lines written out line by line."""
    p = cfg.peloton
    lines = [
        f"scenario={cfg.scenario}",
        f"seed={cfg.seed}",
        f"n={p.n}",
        f"duration_s={_format_float(p.duration)}",
        f"dt_s={_format_float(p.dt)}",
        f"base_speed_profile={_format_profile(p.base_speed_profile)}",
        f"separation_gain={_format_float(p.separation_gain)}",
        f"alignment_gain={_format_float(p.alignment_gain)}",
        f"cohesion_gain={_format_float(p.cohesion_gain)}",
        f"neighbor_radius_m={_format_float(p.neighbor_radius)}",
        f"breakaway_rate={_format_float(p.breakaway_rate)}",
        f"breakaway_boost_mps={_format_float(p.breakaway_boost)}",
        f"breakaway_duration_s={_format_float(p.breakaway_duration)}",
        f"speed_jitter_mps={_format_float(p.speed_jitter)}",
        f"init_length_m={_format_float(p.init_length)}",
        f"range_m={_format_float(cfg.range_m)}",
        f"loss_p={_format_float(cfg.loss_p)}",
        f"k_measurements={cfg.k_measurements}",
        f"k_neighbors={cfg.k_neighbors}",
        f"cap_m={cfg.cap_m}",
        f"graph_mode={cfg.graph_mode}",
        f"steps={cfg.steps}",
        f"check_aggregates={'true' if cfg.check_aggregates else 'false'}",
        f"dct_n={cfg.dct_n}",
        f"dct_sparsity={cfg.dct_sparsity}",
        f"dct_losses={cfg.dct_losses}",
        f"dct_k={cfg.dct_k}",
    ]
    if cfg.trace_path:
        lines.insert(2, f"trace={cfg.trace_path}")
    return lines
