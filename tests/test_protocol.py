import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csagg import protocol
from csagg.errors import ConfigError, DimensionError, NumericalError
from csagg.graph import NeighborGraph, RiderPositions, knn_graph
from csagg.linalg import LpSolution, LpStatus, rank
from csagg.metrics import stress
from csagg.protocol import (
    DEFAULT_CAP,
    AggregateMessage,
    SensorState,
    block_layout,
    collect_timestep,
    initial_state,
    mix_aggregates,
    mixing_matrix,
    payload_bits,
    plan_rounds,
    receptions,
    reconstruct,
    sensor_uniforms,
    step_sensor,
    unit_round_terms,
)
from csagg.radio import RadioParams, compute_reachability, in_range_links, place_sinks
from csagg.sparsity import Measurement
from helpers import (
    ScalarDraws,
    first_equations_reference,
    receptions_reference,
    sink_system_reference,
    step_sensor_reference,
    unit_round_terms_reference,
)


def run_lossfree_rounds(n, rounds, readings, cap_m=1024, seed=0):
    """Full-connectivity loss-free protocol run; returns states and messages per round."""
    states, msgs = [], []
    for i in range(n):
        st, msg = initial_state(i, n, readings[i], cap_m)
        states.append(st)
        msgs.append(msg)
    history = [list(msgs)]
    for rnd in range(2, rounds + 1):
        nxt_states, nxt_msgs = [], []
        for i in range(n):
            inbox = [m for m in msgs if m.sender != i]
            rng = np.random.default_rng((seed, rnd, i))
            st, msg = step_sensor(states[i], inbox, rng, cap_m)
            nxt_states.append(st)
            nxt_msgs.append(msg)
        states, msgs = nxt_states, nxt_msgs
        history.append(list(msgs))
    return states, history


class TestPlanRounds:
    def test_floor_of_three(self):
        assert plan_rounds(np.array([1.0, 1.0])) == (3, ())

    def test_deep_network(self):
        assert plan_rounds(np.array([1.0, 5.0, 2.0])) == (5, ())

    def test_uncoverable_flagged(self):
        rounds, uncoverable = plan_rounds(np.array([1.0, 2.0, np.inf]))
        assert rounds == 3
        assert uncoverable == (2,)


draw_keys = st.fixed_dictionaries({
    "seed": st.integers(0, 2**64 - 1),
    "step_index": st.integers(0, 10**6),
    "round_index": st.integers(1, 20),
})


def _blocks(u: np.ndarray, counts) -> list[list[float]]:
    return [block.tolist() for block in np.split(u, np.cumsum(counts)[:-1])] if len(counts) else []


class TestSensorUniforms:
    @settings(max_examples=200, deadline=None)
    @given(draw_keys, st.lists(st.tuples(st.integers(0, 5000), st.integers(0, 40)), max_size=12))
    def test_blocks_equal_the_scalar_chain(self, key, asks):
        sensors = np.array([i for i, _ in asks], dtype=np.int64)
        counts = [c for _, c in asks]
        u = sensor_uniforms(key["seed"], key["step_index"], key["round_index"], sensors, counts)
        want = []
        for i, count in asks:
            ref = ScalarDraws(key["seed"], key["step_index"], key["round_index"], i)
            want.append([ref.random() for _ in range(count)])
        assert _blocks(u, counts) == want
        assert all(0.0 <= x < 1.0 for x in u.tolist())

    @settings(max_examples=200, deadline=None)
    @given(draw_keys, st.data())
    def test_a_sensor_draws_the_same_in_any_subset(self, key, data):
        # the last round steps only the senders a sink hears: each of them
        # must draw what it would draw with every sensor stepped
        n = data.draw(st.integers(1, 30), label="n")
        counts = np.array(data.draw(st.lists(st.integers(0, 40), min_size=n, max_size=n), label="counts"))
        subset = data.draw(st.lists(st.integers(0, n - 1), unique=True), label="subset")
        args = (key["seed"], key["step_index"], key["round_index"])
        full = _blocks(sensor_uniforms(*args, np.arange(n), counts), counts)
        part = _blocks(sensor_uniforms(*args, np.array(subset, dtype=np.int64), counts[subset]), counts[subset])
        assert part == [full[i] for i in subset]

    def test_keys_select_distinct_streams(self):
        base = dict(seed=3, step_index=4, round_index=2)
        one = sensor_uniforms(**base, sensors=np.array([5]), counts=[8])
        for change in ({"seed": 4}, {"step_index": 5}, {"round_index": 3}):
            other = sensor_uniforms(**{**base, **change}, sensors=np.array([5]), counts=[8])
            assert not np.array_equal(one, other)
        assert not np.array_equal(one, sensor_uniforms(**base, sensors=np.array([6]), counts=[8]))


def _unit_messages(n, senders):
    """Round-1 messages of the senders: unit rows, each reading its id."""
    return [AggregateMessage(j, 1, np.eye(n, dtype=np.int64)[j], float(j), payload_bits(n, 32)) for j in senders]


class TestSensorBlock:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 64), st.integers(0, 40))
    def test_layout_of_an_int_equals_its_one_element_array(self, cap_m, size):
        # step_sensor asks for one inbox's layout, the rounds for an array's
        subsample, signs = block_layout(size, cap_m)
        want = block_layout(np.array([size], dtype=np.int64), cap_m)
        assert (subsample, signs) == (want[0][0], want[1][0])
        assert subsample == (size if size + 1 > cap_m else 0)
        assert signs == min(size, cap_m - 1) + 1

    def test_keeps_the_smallest_uniforms_ties_first(self):
        # five messages at cap_m=4 keep three: the uniforms 0.1, 0.1 and the
        # first of the two 0.5s, in inbox order
        state, _ = initial_state(0, 6, 0.0)
        block = np.array([0.5, 0.1, 0.5, 0.1, 0.9, 0.75, 0.0, 0.5, 0.4999])
        new_state, msg = step_sensor(state, _unit_messages(6, range(1, 6)), block, cap_m=4)
        assert msg.coeff_row.tolist() == [1, -1, 1, 0, -1, 0]
        assert new_state.mix_rows[0].tolist() == [1, -1, 1, 0, -1, 0]

    def test_signs_split_at_one_half(self):
        state, _ = initial_state(0, 4, 0.0)
        block = np.array([0.0, 0.4999, 0.5, 0.9999])
        _, msg = step_sensor(state, _unit_messages(4, range(1, 4)), block)
        assert msg.coeff_row.tolist() == [-1, -1, 1, 1]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 64), st.integers(0, 40), st.sampled_from([-1, 1]))
    def test_block_one_short_or_long_rejected(self, cap_m, size, off):
        state, _ = initial_state(0, size + 1, 0.0, cap_m)
        want = sum(block_layout(size, cap_m))
        block = np.full(want + off, 0.75)
        with pytest.raises(DimensionError, match=rf"block of {want + off} uniforms, its step reads {want}"):
            step_sensor(state, _unit_messages(size + 1, range(1, size + 1)), block, cap_m)


class TestStepSensor:
    def test_self_only_rebroadcast(self):
        state, _ = initial_state(1, 3, 7.5)
        new_state, msg = step_sensor(state, [], np.random.default_rng(1))
        sign = msg.coeff_row[1]
        assert sign in (-1, 1)
        assert np.array_equal(msg.coeff_row, [0, sign, 0])
        assert msg.aggregate == sign * 7.5
        assert new_state.round == 2

    def test_two_term_combination(self):
        state, _ = initial_state(0, 2, 3.0)
        _, other = initial_state(1, 2, 5.0)

        # +1 for self, -1 for the neighbor
        _, msg = step_sensor(state, [other], np.array([0.75, 0.25]))
        assert np.array_equal(msg.coeff_row, [1, -1])
        assert msg.aggregate == pytest.approx(3.0 - 5.0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_scalar_reference(self, data):
        # same seed, same draws: an inbox of cap_m or more messages takes the
        # subsample path, a combination reaching cap_m the forward path.
        # Aggregates with full mantissas make the sum's rounding depend on
        # its order
        cap_m = data.draw(st.integers(2, 64), label="cap_m")
        size = data.draw(st.integers(0, 39), label="inbox size")
        n = data.draw(st.integers(size + 1, 40), label="n")
        own = data.draw(st.integers(0, n - 1), label="own")
        senders = data.draw(st.permutations([j for j in range(n) if j != own]), label="senders")
        # sparse rows of bounded coefficients, so that some combinations fit
        peak = data.draw(st.integers(0, cap_m - 1), label="peak")
        density = data.draw(st.floats(0.0, 1.0), label="density")
        layout = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="layout"))
        rows = layout.integers(-peak, peak + 1, (size + 1, n))
        rows[layout.random((size + 1, n)) >= density] = 0
        aggregates = layout.uniform(-50.0, 50.0, size + 1).tolist()
        rnd = data.draw(st.integers(1, 6), label="round")
        state = SensorState(own, rnd, rows[0], aggregates[0])
        inbox = [
            AggregateMessage(j, rnd, row, value, payload_bits(n, cap_m))
            for j, row, value in zip(senders[:size], rows[1:], aggregates[1:])
        ]
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")

        got_state, got = step_sensor(state, inbox, np.random.default_rng(seed), cap_m)
        want_state, want = step_sensor_reference(state, inbox, np.random.default_rng(seed), cap_m)
        assert got_state.round == want_state.round == got.round == rnd + 1
        assert np.array_equal(got_state.coeff_row, want_state.coeff_row)
        assert np.array_equal(got.coeff_row, want.coeff_row)
        assert len(got_state.mix_rows) == len(want_state.mix_rows) == 1
        assert np.array_equal(got_state.mix_rows[0], want_state.mix_rows[0])
        for got_value, want_value in [(got_state.aggregate, want_state.aggregate),
                                      (got.aggregate, want.aggregate)]:
            assert np.float64(got_value).tobytes() == np.float64(want_value).tobytes()
        assert got.payload_bits == want.payload_bits

    def test_round_mismatch_rejected(self):
        state, _ = initial_state(0, 2, 1.0)
        stale = AggregateMessage(1, 5, np.array([0, 1]), 2.0, payload_bits(2, 32))
        with pytest.raises(DimensionError):
            step_sensor(state, [stale], np.random.default_rng(0))

    def test_cap_subsamples_but_keeps_self(self):
        n = 12
        readings = np.arange(n, dtype=float)
        states, msgs = [], []
        for i in range(n):
            st, msg = initial_state(i, n, readings[i], cap_m=4)
            states.append(st)
            msgs.append(msg)
        inbox = [m for m in msgs if m.sender != 0]
        _, out = step_sensor(states[0], inbox, np.random.default_rng(3), cap_m=4)
        assert np.count_nonzero(out.coeff_row) == 4
        assert out.coeff_row[0] != 0  # own data always contributes

    def test_aggregate_tracks_row_exactly(self):
        rng = np.random.default_rng(8)
        readings = rng.uniform(8, 12, 15)
        _, history = run_lossfree_rounds(15, 4, readings, seed=8)
        for round_msgs in history:
            for msg in round_msgs:
                assert msg.aggregate == pytest.approx(
                    float(msg.coeff_row @ readings), abs=1e-12 * 100
                )

    def test_matrix_product_identity(self):
        # stacked round-L rows equal the product of the drawn mixing matrices
        n, rounds = 4, 4
        readings = np.arange(1.0, n + 1)
        states, history = run_lossfree_rounds(n, rounds, readings, seed=5)
        mixes = []
        for r in range(rounds - 1):
            mixes.append(np.array([st.mix_rows[r] for st in states], dtype=np.int64))
        product = np.eye(n, dtype=np.int64)
        for a_l in mixes:
            product = a_l @ product
        final_rows = np.array([m.coeff_row for m in history[-1]], dtype=np.int64)
        assert np.array_equal(final_rows, product)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mixing_row_is_the_applied_combination(self, data):
        # coeff_row = mix_row . R_prev for any inbox: sender j's message
        # carries row j of R_prev, and an inbox may hear a sender twice or
        # hold the sensor's own message, whose signs then add up
        cap_m = data.draw(st.integers(2, 16), label="cap_m")
        n = data.draw(st.integers(1, 8), label="n")
        own = data.draw(st.integers(0, n - 1), label="own")
        senders = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * cap_m), label="senders")
        peak = data.draw(st.integers(0, cap_m - 1), label="peak")
        layout = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="layout"))
        r_prev = np.eye(n, dtype=np.int64) + layout.integers(-peak, peak + 1, (n, n))
        r_prev = np.clip(r_prev, 1 - cap_m, cap_m - 1)
        state = SensorState(own, 2, r_prev[own], 0.0)
        inbox = [AggregateMessage(j, 2, r_prev[j], 0.0, payload_bits(n, cap_m)) for j in senders]
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        new_state, msg = step_sensor(state, inbox, np.random.default_rng(seed), cap_m)
        assert new_state.mix_rows[-1].dtype == np.int64
        assert np.array_equal(new_state.mix_rows[-1] @ r_prev, msg.coeff_row)

    def test_coefficient_cap_overflow_forwards_previous_message(self):
        # two sensors ping-ponging with cap 2 soon draw a coefficient of 2;
        # such a combination is not sent, the sensor forwards its last message
        n, rounds = 2, 6
        readings = np.array([1.5, -2.25])
        forwards = 0
        for seed in range(50):
            states, history = run_lossfree_rounds(n, rounds, readings, cap_m=2, seed=seed)
            for round_msgs in history:
                for msg in round_msgs:
                    assert np.abs(msg.coeff_row).max() < 2
                    assert msg.aggregate == pytest.approx(float(msg.coeff_row @ readings), abs=1e-12)
            product = np.eye(n, dtype=np.int64)
            for r in range(rounds - 1):
                mix = np.array([st.mix_rows[r] for st in states], dtype=np.int64)
                product = mix @ product
                forwards += int(np.sum(np.all(mix == np.eye(n, dtype=np.int64), axis=1)))
            assert np.array_equal(np.array([m.coeff_row for m in history[-1]]), product)
        assert forwards > 0


class TestUnitRound:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_step_sensor_on_the_same_blocks(self, data):
        # round 2: every sensor holds e_i and hears unit-row messages over
        # lossy links. Each row of M_2 must be the row, mixing row and
        # aggregate step_sensor gives on the same block, which it reads whole
        n = data.draw(st.integers(1, 40), label="n")
        cap_m = data.draw(st.integers(2, 64), label="cap_m")
        layout = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="layout"))
        keep_p = data.draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]), label="delivered share")
        readings = layout.uniform(-50.0, 50.0, n)
        _, first = zip(*(initial_state(i, n, readings[i], cap_m) for i in range(n)))
        inboxes = [[j for j in range(n) if j != i and layout.random() < keep_p] for i in range(n)]
        senders = np.array(
            data.draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1), label="senders"),
            dtype=np.int64,
        )
        if data.draw(st.booleans(), label="all step"):
            senders = np.arange(n)
        senders.sort()
        sizes = np.array([len(inbox) for inbox in inboxes], dtype=np.int64)
        inbox_from = np.array([j for inbox in inboxes for j in inbox], dtype=np.int64)
        subsample, signs = block_layout(sizes[senders], cap_m)
        counts = subsample + signs
        uniforms = sensor_uniforms(data.draw(st.integers(0, 2**64 - 1), label="seed"), 7, 1, senders, counts)

        terms = unit_round_terms(
            senders, (np.cumsum(sizes) - sizes)[senders], sizes[senders], inbox_from, uniforms, cap_m
        )
        rows = mixing_matrix(*terms, (len(senders), n))
        aggregates = mix_aggregates(*terms, readings, len(senders))
        assert rows.dtype == np.int64
        bounds = np.cumsum(counts) - counts
        for k, i in enumerate(senders.tolist()):
            state, _ = initial_state(i, n, readings[i], cap_m)
            block = uniforms[bounds[k] : bounds[k] + counts[k]]
            want_state, want = step_sensor(state, [first[j] for j in inboxes[i]], block, cap_m)
            assert np.array_equal(rows[k], want.coeff_row)
            assert np.array_equal(rows[k], want_state.mix_rows[0])
            assert np.float64(aggregates[k]).tobytes() == np.float64(want.aggregate).tobytes()

    def test_mixing_matrix_adds_repeated_entries(self):
        m = mixing_matrix(np.array([0, 0, 1]), np.array([2, 2, 0]), np.array([1, 1, -1]), (2, 3))
        assert m.dtype == np.int64
        assert m.tolist() == [[0, 0, 2], [-1, 0, 0]]

    def test_aggregates_are_summed_in_term_order(self):
        # 1 + 1e16 - 1e16 is 0.0 left to right, 1.0 right to left
        values = np.array([1e16, 1.0])
        row, col, sign = np.array([0, 0, 0, 1]), np.array([1, 0, 0, 1]), np.array([1, 1, -1, -1])
        assert mix_aggregates(row, col, sign, values, 3).tolist() == [0.0, -1.0, 0.0]


class LoggedReads(np.ndarray):
    """An array that records the positions each indexing reads."""

    def __getitem__(self, key):
        self.read.append(np.arange(len(self))[key])
        return np.asarray(self)[key]


class TestRoundTwoSubsample:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_ties_at_the_cap_match_the_argsort_oracle(self, data):
        # uniforms quantised to a few values tie at the (cap_m - 1)-th
        # smallest, and inboxes of cap_m - 1, cap_m and cap_m + 1 sit just
        # under, at and over the cap; each uniform is read exactly once
        cap_m = data.draw(st.integers(2, 64), label="cap_m")
        sizes = np.array(
            data.draw(st.lists(st.sampled_from([cap_m - 1, cap_m, cap_m + 1]), min_size=1, max_size=8)),
            dtype=np.int64,
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="layout"))
        senders = np.sort(rng.choice(1000, size=len(sizes), replace=False))
        # the inboxes lie in inbox_from in a shuffled order
        order = rng.permutation(len(sizes))
        starts = np.empty_like(sizes)
        starts[order] = np.cumsum(sizes[order]) - sizes[order]
        inbox_from = rng.integers(0, 1000, size=sizes.sum())
        subsample, signs = block_layout(sizes, cap_m)
        levels = data.draw(st.integers(1, 4), label="levels")
        uniforms = rng.integers(0, levels, size=(subsample + signs).sum()) / levels

        logged = uniforms.view(LoggedReads)
        logged.read = []
        got = protocol.unit_round_terms(senders, starts, sizes, inbox_from, logged, cap_m)
        want = unit_round_terms_reference(senders, starts, sizes, inbox_from, uniforms, cap_m)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            assert np.array_equal(g, w)
        read = np.sort(np.concatenate(logged.read))
        assert np.array_equal(read, np.arange(len(uniforms)))

    def test_cap_two_keeps_one_message(self):
        # at cap_m = 2 the partition looks for the smallest uniform of each
        # inbox, and of two tied ones the first is kept
        sizes = np.array([3, 2])
        # row 0: three subsample uniforms, two signs; row 1: two and two
        uniforms = np.array([0.7, 0.2, 0.2, 0.9, 0.1, 0.4, 0.4, 0.6, 0.3])
        row, col, sign = unit_round_terms(
            np.array([4, 9]), np.array([0, 3]), sizes, np.array([1, 2, 3, 5, 6]), uniforms, 2
        )
        assert row.tolist() == [0, 0, 1, 1]
        assert col.tolist() == [4, 2, 9, 5]
        assert sign.tolist() == [1, -1, 1, -1]


def _equations(data, n, k):
    """k equations over n riders drawn from a small pool, so that rows and
    values repeat; -0.0 and 0.0 are both among the values."""
    pool = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    rows = np.array(data.draw(st.lists(pool, min_size=k, max_size=k), label="rows"), dtype=np.int64)
    values = data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.5, -1.5, 1e300]), min_size=k, max_size=k))
    return rows.reshape(k, n), np.array(values, dtype=float)


class TestFirstEquations:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_record_oracle(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        rows, values = _equations(data, n, data.draw(st.integers(0, 30), label="k"))
        system = protocol._first_equations(rows, values)
        want_rows, want_values = first_equations_reference(rows, values)
        assert np.array_equal(system.rows, want_rows)
        assert system.values.tobytes() == want_values.tobytes()

    def test_first_occurrence_kept_in_order(self):
        rows = np.array([[0, 1], [1, 0], [0, 1], [1, 1], [1, 0], [0, 1]])
        values = np.array([2.0, -0.0, 2.0, 3.0, 0.0, 5.0])
        system = protocol._first_equations(rows, values)
        assert system.rows.tolist() == [[0, 1], [1, 0], [1, 1], [0, 1]]
        # (e_0, 0.0) repeats (e_0, -0.0), whose sign bit the system keeps
        assert system.values.tobytes() == np.array([2.0, -0.0, 3.0, 5.0]).tobytes()

    def test_empty_system(self):
        system = protocol._first_equations(np.zeros((0, 4), dtype=np.int64), np.zeros(0))
        assert (system.k, system.n) == (0, 4)


class TestReceptions:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_pair_by_pair_oracle(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        n_sinks = data.draw(st.integers(0, 2), label="n_sinks")
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n + n_sinks - 1))
        delivered = np.array(
            sorted({(s, r) for s, r in data.draw(st.lists(pairs), label="pairs") if s != r}),
            dtype=np.int64,
        ).reshape(-1, 2)
        heard, sizes, inbox_from = receptions(delivered, n)
        want_heard, want_inboxes = receptions_reference(delivered, n)
        assert heard.tolist() == want_heard
        assert sizes.tolist() == [len(inbox) for inbox in want_inboxes]
        assert inbox_from.tolist() == [s for inbox in want_inboxes for s in inbox]


def _equation_keys(system: Measurement) -> set[tuple[bytes, float]]:
    return {(row.tobytes(), value) for row, value in zip(system.rows, system.values.tolist())}


class TestSinkCollect:
    def test_duplicate_rows_dropped(self):
        # both sinks hear both riders in every round: each broadcast is one
        # equation, and round 1 gives the unit rows in sender order
        readings = np.array([3.0, 4.0])
        pos = RiderPositions(0.0, [[5.0, 0.0], [5.0, 1.0]])
        sinks = np.array([[0.0, 0.0], [10.0, 0.0]])
        radio = RadioParams(range_m=20.0)
        result = collect_timestep(readings, pos, sinks, radio)
        system = result.system
        assert np.array_equal(system.rows[:2], np.eye(2))
        assert np.array_equal(system.values[:2], readings)
        assert system.k <= 2 * result.rounds_used
        assert len(_equation_keys(system)) == system.k
        rows, values = sink_system_reference(readings, pos, sinks, radio, DEFAULT_CAP, 0)
        assert np.array_equal(system.rows, rows)
        assert np.array_equal(system.values, values)

    @pytest.mark.parametrize(
        "reading, step, own_rows",
        [(7.0, 11, 2),  # rows e_0, e_0, -e_0
         (-0.0, 3, 1)],  # (e_0, -0.0), then (e_0, 0.0) twice: equal values under ==
    )
    def test_isolated_sensor_resends_its_own_row(self, reading, step, own_rows):
        # rider 0 hears no rider, so each round it re-sends +/-e_0; its three
        # broadcasts hold at most two distinct equations, e_0 first
        readings = np.array([reading, 8.0, 9.0])
        pos = RiderPositions(0.0, [[0.0, 0.0], [500.0, 0.0], [502.0, 0.0]])
        sinks = np.array([[1.0, 0.0], [501.0, 0.0]])
        radio = RadioParams(range_m=20.0)
        result = collect_timestep(readings, pos, sinks, radio, step_index=step)
        assert result.rounds_used == 3
        system = result.system
        own = system.rows[:, 0] != 0
        assert own.sum() == own_rows
        assert np.array_equal(system.rows[own][0], [1, 0, 0])
        assert np.array_equal(np.abs(system.rows[own]), np.tile([1, 0, 0], (own.sum(), 1)))
        assert np.array_equal(system.values[own], system.rows[own][:, 0] * readings[0])
        assert len(_equation_keys(system)) == system.k
        rows, values = sink_system_reference(readings, pos, sinks, radio, DEFAULT_CAP, step)
        assert np.array_equal(system.rows, rows)
        assert np.array_equal(system.values, values)

    def test_rows_accumulate_across_rounds(self):
        rng = np.random.default_rng(0)
        pos = RiderPositions(0.0, np.column_stack([rng.uniform(0, 20, 10), rng.uniform(-2, 2, 10)]))
        readings = np.arange(1.0, 11.0)
        result = collect_timestep(readings, pos, place_sinks(pos), RadioParams(range_m=50.0), cap_m=1024)
        system = result.system
        assert np.array_equal(system.rows[:10], np.eye(10))  # round 1, in sender order
        assert system.k >= 10
        assert rank(system.rows) == 10
        assert system.rows @ readings == pytest.approx(system.values, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            Measurement(np.ones((2, 3)), np.zeros(3))
        pos = RiderPositions(0.0, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(DimensionError):
            collect_timestep(np.zeros(2), pos, place_sinks(pos), RadioParams())

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_per_pair_reference(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        coords = st.tuples(st.floats(0.0, 100.0), st.floats(-4.0, 4.0))
        pos = RiderPositions(
            data.draw(st.floats(0.0, 1e4), label="time"),
            data.draw(st.lists(coords, min_size=n, max_size=n), label="riders"),
        )
        n_sinks = data.draw(st.sampled_from([2, 1, 0]), label="n_sinks")
        sinks = np.array(
            data.draw(st.lists(coords, min_size=n_sinks, max_size=n_sinks), label="sinks"), dtype=float
        ).reshape(-1, 2)
        radio = RadioParams(
            range_m=data.draw(st.floats(5.0, 150.0), label="range_m"),
            loss_p=data.draw(st.floats(0.0, 1.0), label="loss_p"),
            seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
        )
        cap_m = data.draw(st.integers(2, 1024), label="cap_m")
        step = data.draw(st.integers(0, 10_000), label="step")
        readings = np.array(data.draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n), label="x"))

        def collect():
            return collect_timestep(
                readings, pos, sinks, radio, cap_m=cap_m, step_index=step, check_aggregates=True
            )

        rows, values = sink_system_reference(readings, pos, sinks, radio, cap_m, step)
        system = collect().system
        assert np.array_equal(system.rows, rows)
        assert np.array_equal(system.values, values)


    @pytest.mark.parametrize("loss_p", [0.0, 0.3])
    def test_deep_chain_matches_per_pair_reference(self, monkeypatch, loss_p):
        # 30 riders 3 m apart in a zigzag, range 8 m: seven rounds, and at
        # cap_m=4 sensors forward in every round from 3 to 7, so each
        # round's rows and aggregates reach the next through both the mixed
        # and the forwarded messages
        forwards = []

        def recording(state, inbox, rng, cap_m):
            new_state, msg = step_sensor(state, inbox, rng, cap_m)
            if inbox and np.count_nonzero(new_state.mix_rows[-1]) == 1:
                forwards.append(msg.round)
            return new_state, msg

        monkeypatch.setattr(protocol, "step_sensor", recording)
        pos = RiderPositions(0.0, np.column_stack([3.0 * np.arange(30), np.tile([-1.0, 1.0], 15)]))
        sinks = place_sinks(pos)
        radio = RadioParams(range_m=8.0, loss_p=loss_p, seed=3)
        readings = np.linspace(8.0, 12.0, 30)
        result = collect_timestep(
            readings, pos, sinks, radio, cap_m=4, step_index=2, check_aggregates=True
        )
        assert result.rounds_used == 7
        assert set(forwards) == set(range(3, 8))
        rows, values = sink_system_reference(readings, pos, sinks, radio, 4, 2)
        assert np.array_equal(result.system.rows, rows)
        assert np.array_equal(result.system.values, values)


class TestReconstruct:
    def test_identity_rows_determined(self):
        y = [4.0, 5.0, 6.0]
        system = Measurement(np.eye(3, dtype=np.int64), y)
        graph = NeighborGraph(n=3, edges=((0, 1), (1, 2)))
        estimate, tag = reconstruct(system, graph)
        assert tag == "determined"
        assert estimate == pytest.approx(y)

    def test_underdetermined_uses_cs_lp(self):
        system = Measurement(np.ones((1, 4), dtype=np.int64), [8.0])
        graph = NeighborGraph(n=4, edges=((0, 1), (1, 2), (2, 3)))
        estimate, tag = reconstruct(system, graph)
        assert tag == "cs-lp"
        assert estimate == pytest.approx([2.0, 2.0, 2.0, 2.0], abs=1e-8)

    def test_non_optimal_lp_is_numerical_error(self, monkeypatch):
        infeasible = LpSolution(LpStatus.INFEASIBLE, None, float("nan"))
        monkeypatch.setattr(protocol, "solve_lp", lambda problem: infeasible)
        system = Measurement(np.ones((1, 4), dtype=np.int64), [8.0])
        graph = NeighborGraph(n=4, edges=((0, 1), (1, 2), (2, 3)))
        with pytest.raises(NumericalError, match="infeasible"):
            reconstruct(system, graph)

    def test_empty_system_rejected(self):
        empty = Measurement(np.zeros((0, 3)), np.zeros(0))
        assert empty.k == 0 and empty.n == 3
        with pytest.raises(DimensionError):
            reconstruct(empty, NeighborGraph(n=3, edges=((0, 1),)))


class TestCollectTimestep:
    def _scenario(self, loss_p=0.0, seed=0, range_m=50.0):
        rng = np.random.default_rng(seed)
        pos = RiderPositions(
            1.0, np.column_stack([rng.uniform(0, 120, 40), rng.uniform(-4, 4, 40)])
        )
        readings = 10.0 + 0.1 * rng.standard_normal(40)
        sinks = place_sinks(pos)
        radio = RadioParams(range_m=range_m, loss_p=loss_p, seed=seed)
        return readings, pos, sinks, radio

    def test_lossfree_full_rank(self):
        readings, pos, sinks, radio = self._scenario()
        result = collect_timestep(readings, pos, sinks, radio, check_aggregates=True)
        assert result.rounds_used >= 3
        assert rank(result.system.rows) == 40

    def test_lossy_round_trip_reconstruction(self):
        readings, pos, sinks, radio = self._scenario(loss_p=0.5, seed=3)
        result = collect_timestep(readings, pos, sinks, radio, check_aggregates=True)
        graph = knn_graph(pos, 8)
        estimate, _ = reconstruct(result.system, graph)

        assert stress(readings, estimate) < 0.01

    def test_payload_accounting(self):
        readings, pos, sinks, radio = self._scenario()
        result = collect_timestep(readings, pos, sinks, radio, cap_m=32)
        assert result.mean_payload_bits == payload_bits(40, 32)
        assert payload_bits(130, 32) == 130 * 5 + 64

    def test_deterministic(self):
        readings, pos, sinks, radio = self._scenario(loss_p=0.5, seed=9)
        r1 = collect_timestep(readings, pos, sinks, radio, step_index=4)
        r2 = collect_timestep(readings, pos, sinks, radio, step_index=4)
        assert r1.system.k == r2.system.k
        assert np.array_equal(r1.system.rows, r2.system.rows)
        assert np.array_equal(r1.system.values, r2.system.values)

    def test_sign_stream_pinned(self):
        # four rounds with losses; of the 94 sensor steps, 59 subsample their
        # inbox and 8 forward their previous message. The digest pins the
        # counter-based stream: it changes if a block's layout (subsample
        # uniforms, then one sign per term) or the hash chain's key changes
        readings, pos, sinks, radio = self._scenario(loss_p=0.3, seed=4, range_m=20.0)
        result = collect_timestep(readings, pos, sinks, radio, cap_m=8, step_index=2)
        assert result.rounds_used == 4
        system = result.system
        digest = hashlib.sha256(system.rows.tobytes() + system.values.tobytes()).hexdigest()
        assert digest == "4d4a71d04deceb2ab3d3b2c3d760e84065534354fc235cfd8cbd8b42fe8abcb7"

    @pytest.mark.parametrize("cap_m", [8, DEFAULT_CAP])
    def test_each_block_holds_exactly_the_draws_of_its_step(self, monkeypatch, cap_m):
        # at cap_m=8 most inboxes are subsampled, at the default cap none is;
        # a block left with an unused uniform would let a later layout drift.
        # Round 2 is one matrix: it must read each of its uniforms once.
        # Later rounds hand each sensor a block of its step's length
        round_two, steps = {}, []

        class Logged(np.ndarray):
            def __getitem__(self, key):
                self.read.append(np.arange(len(self))[key])
                return np.asarray(self)[key]

        def logging_uniforms(seed, step_index, round_index, sensors, counts):
            u = sensor_uniforms(seed, step_index, round_index, sensors, counts)
            if round_index != 1:
                return u
            round_two.update(size=len(u), subsampled=int(np.sum(counts > cap_m)))
            logged = u.view(Logged)
            logged.read = round_two.setdefault("read", [])
            return logged

        def exhausting(state, inbox, block, cap_m):
            assert len(block) == sum(block_layout(len(inbox), cap_m))
            steps.append(len(inbox) + 1 > cap_m)
            return step_sensor(state, inbox, block, cap_m)

        monkeypatch.setattr(protocol, "sensor_uniforms", logging_uniforms)
        monkeypatch.setattr(protocol, "step_sensor", exhausting)
        readings, pos, sinks, radio = self._scenario(loss_p=0.3, seed=4, range_m=20.0)
        collect_timestep(readings, pos, sinks, radio, cap_m=cap_m, step_index=2)
        read = np.sort(np.concatenate(round_two["read"]))
        assert np.array_equal(read, np.arange(round_two["size"]))
        # 94 sensor steps: 40 in round 2, 54 in rounds 3 and 4
        assert len(steps) == 54
        assert round_two["subsampled"] + sum(steps) == (59 if cap_m == 8 else 0)

    def test_check_aggregates_names_sensor_and_round(self, monkeypatch):
        # sensors 5 and 7 send wrong round-2 aggregates; the first is named
        def drifting(row, col, sign, values, size):
            out = mix_aggregates(row, col, sign, values, size)
            own = col[np.searchsorted(row, np.arange(size))]  # each row's first term
            out[np.isin(own, (5, 7))] += 1e-6
            return out

        monkeypatch.setattr(protocol, "mix_aggregates", drifting)
        readings, pos, sinks, radio = self._scenario()
        with pytest.raises(NumericalError, match=r"sensor 5, round 2"):
            collect_timestep(readings, pos, sinks, radio, check_aggregates=True)

    def _last_round_heard(self, pos, sinks, radio, rounds):
        links = in_range_links(pos, sinks, radio.range_m)
        delivered = compute_reachability(links, pos.time, radio, rounds).delivered
        return np.unique(delivered[delivered[:, 1] >= pos.n, 0]).tolist()

    def _recording_steps(self, monkeypatch):
        """(round, sensor) of every step_sensor call, and the shape of every
        mixing matrix built."""
        calls, matrices = [], []

        def recording(state, inbox, rng, cap_m):
            calls.append((state.round + 1, state.id))
            return step_sensor(state, inbox, rng, cap_m)

        def recording_matrix(row, col, sign, shape):
            matrices.append(shape)
            return mixing_matrix(row, col, sign, shape)

        monkeypatch.setattr(protocol, "step_sensor", recording)
        monkeypatch.setattr(protocol, "mixing_matrix", recording_matrix)
        return calls, matrices

    def test_last_round_steps_only_senders_a_sink_hears(self, monkeypatch):
        calls, matrices = self._recording_steps(monkeypatch)
        readings, pos, sinks, radio = self._scenario(loss_p=0.3, seed=5)
        result = collect_timestep(readings, pos, sinks, radio, check_aggregates=True)
        last = result.rounds_used
        heard = self._last_round_heard(pos, sinks, radio, last)
        assert 0 < len(heard) < 40
        # round 2 is one mixing matrix over every sensor, not 40 steps
        assert matrices == [(40, 40)]
        assert all(r >= 3 for r, _ in calls)
        for rnd in range(3, last):
            assert [i for r, i in calls if r == rnd] == list(range(40))
        assert [i for r, i in calls if r == last] == heard

    @pytest.mark.parametrize("sinks", [np.zeros((0, 2)), np.array([[1e4, 0.0], [-1e4, 0.0]])])
    def test_no_sink_hears_anyone(self, monkeypatch, sinks):
        calls, matrices = self._recording_steps(monkeypatch)
        readings, pos, _, radio = self._scenario()
        result = collect_timestep(readings, pos, sinks, radio, check_aggregates=True)
        assert result.system.k == 0
        assert result.system.rows.shape == (0, 40)
        assert len(result.uncoverable) == 40
        assert result.rounds_used == 3
        # round 2 mixes every sensor; round 3, the last, steps no one
        assert matrices == [(40, 40)]
        assert calls == []

    def test_check_aggregates_names_a_last_round_sensor(self, monkeypatch):
        # the last round computes only the heard senders; the error still
        # names the sensor id, not its place among them
        readings, pos, sinks, radio = self._scenario(loss_p=0.3, seed=5)
        last = collect_timestep(readings, pos, sinks, radio).rounds_used
        culprit = self._last_round_heard(pos, sinks, radio, last)[-1]

        def drifting(state, inbox, rng, cap_m):
            new_state, msg = step_sensor(state, inbox, rng, cap_m)
            if state.id == culprit and msg.round == last:
                msg = AggregateMessage(msg.sender, msg.round, msg.coeff_row, msg.aggregate + 1e-6, msg.payload_bits)
            return new_state, msg

        monkeypatch.setattr(protocol, "step_sensor", drifting)
        with pytest.raises(NumericalError, match=rf"sensor {culprit}, round {last}\)"):
            collect_timestep(readings, pos, sinks, radio, check_aggregates=True)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_cap_overflow_never_ends_a_step(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="layout"))
        pos = RiderPositions(1.0, np.column_stack([rng.uniform(0, 300, n), rng.uniform(-4, 4, n)]))
        radio = RadioParams(
            range_m=data.draw(st.floats(5.0, 150.0), label="range_m"),
            loss_p=data.draw(st.floats(0.0, 1.0), label="loss_p"),
            seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
        )
        cap_m = data.draw(st.integers(2, 64), label="cap_m")
        readings = rng.uniform(-50.0, 50.0, n)
        system = collect_timestep(
            readings, pos, place_sinks(pos), radio, cap_m=cap_m, check_aggregates=True
        ).system
        assert np.abs(system.rows).max(initial=0) < cap_m
        assert np.abs(system.rows @ readings - system.values).max(initial=0) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_check_aggregates_scales_with_readings(self, data):
        # the hook's tolerance follows the size of each aggregate's terms, so
        # riders at any speed pass it, as they pass without it
        n = data.draw(st.integers(2, 40), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="layout"))
        pos = RiderPositions(1.0, np.column_stack([rng.uniform(0, 150, n), rng.uniform(-4, 4, n)]))
        radio = RadioParams(
            range_m=data.draw(st.floats(10.0, 60.0), label="range_m"),
            loss_p=data.draw(st.floats(0.0, 0.6), label="loss_p"),
            seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
        )
        cap_m = data.draw(st.integers(2, 64), label="cap_m")
        scale = 10.0 ** data.draw(st.floats(0.0, 12.0), label="log10_scale")
        readings = scale * rng.uniform(-50.0, 50.0, n)
        collect_timestep(readings, pos, place_sinks(pos), radio, cap_m=cap_m, check_aggregates=True)


class TestWireFormat:
    def test_oversized_coefficient_rejected(self):
        # payload_bits gives each coefficient ceil(log2(cap_m)) magnitude
        # bits; a combination that would not fit is refused, not sent
        def advance(coefficient):
            state = SensorState(
                id=0, round=2, coeff_row=np.array([coefficient], dtype=np.int64),
                aggregate=1.0,
            )
            return step_sensor(state, [], np.random.default_rng(0), cap_m=32)

        _, msg = advance(31)
        assert abs(int(msg.coeff_row[0])) == 31
        assert msg.payload_bits == 1 * 5 + 64
        with pytest.raises(ConfigError, match="cap_m"):
            advance(40)

        # at cap_m = 2**62 self plus four rows of 2**62 - 1, all signs +1,
        # would sum to 5 * (2**62 - 1), which wraps in int64 to 2**62 - 5 and
        # would be sent with aggregate 5.0; a cap above MAX_CAP is refused
        def message(sender):
            row = np.array([2**62 - 1, 0, 0, 0, 0], dtype=np.int64)
            return AggregateMessage(sender, 2, row, 1.0, 0)

        state = SensorState(id=0, round=2, coeff_row=message(0).coeff_row, aggregate=1.0)
        inbox = [message(j) for j in range(1, 5)]
        with pytest.raises(ConfigError, match=r"cap_m=4611686018427387904"):
            step_sensor(state, inbox, np.full(5, 0.75), cap_m=2**62)
        assert payload_bits(1, protocol.MAX_CAP) == 31 + 64
        for cap_m in (1, protocol.MAX_CAP + 1):
            with pytest.raises(ConfigError, match=rf"cap_m={cap_m} must be in \[2, {protocol.MAX_CAP}\]"):
                payload_bits(1, cap_m)
