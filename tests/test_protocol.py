import numpy as np
import pytest

from csagg.errors import ConfigError, DimensionError
from csagg.graph import NeighborGraph, RiderPositions, knn_graph
from csagg.protocol import (
    AggregateMessage,
    LinearSystem,
    SensorState,
    collect_timestep,
    initial_state,
    payload_bits,
    plan_rounds,
    reconstruct,
    sink_collect,
    step_sensor,
)
from csagg.radio import RadioParams, place_sinks


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

        class TwoSigns:
            draws = iter([1, 0])  # +1 for self, -1 for the neighbor

            def integers(self, lo, hi):
                return next(self.draws)

        _, msg = step_sensor(state, [other], TwoSigns())
        assert np.array_equal(msg.coeff_row, [1, -1])
        assert msg.aggregate == pytest.approx(3.0 - 5.0)

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

    def test_coefficient_cap_violation_raises(self):
        # two sensors ping-ponging with cap 2 eventually exceed |b| < 2
        n = 2
        readings = np.array([1.0, 1.0])
        with pytest.raises(ConfigError):
            for seed in range(50):
                run_lossfree_rounds(n, 6, readings, cap_m=2, seed=seed)


class TestSinkCollect:
    def test_duplicate_rows_dropped(self):
        system = LinearSystem(n=4)
        _, msg = initial_state(3, 4, 9.0)
        sink_collect(system, [msg])
        sink_collect(system, [msg])  # second sink heard the same broadcast
        assert len(system.rows) == 1
        assert system.rows[0][2] == (3, 1)

    def test_rows_accumulate_across_rounds(self):
        readings = np.arange(1.0, 11.0)
        _, history = run_lossfree_rounds(10, 3, readings)
        system = LinearSystem(n=10)
        for round_msgs in history:
            sink_collect(system, round_msgs)
        assert len(system.rows) >= 10
        from csagg.linalg import rank

        assert rank(system.matrix()) == 10

    def test_length_mismatch(self):
        system = LinearSystem(n=3)
        with pytest.raises(DimensionError):
            system.append(np.array([1, 0]), 1.0, (0, 1))


class TestReconstruct:
    def test_identity_rows_determined(self):
        system = LinearSystem(n=3)
        y = [4.0, 5.0, 6.0]
        for i in range(3):
            row = np.zeros(3, dtype=np.int64)
            row[i] = 1
            system.append(row, y[i], (i, 1))
        graph = NeighborGraph(n=3, edges=((0, 1), (1, 2)))
        estimate, tag = reconstruct(system, graph)
        assert tag == "determined"
        assert estimate == pytest.approx(y)

    def test_underdetermined_uses_cs_lp(self):
        system = LinearSystem(n=4)
        system.append(np.ones(4, dtype=np.int64), 8.0, (0, 1))
        graph = NeighborGraph(n=4, edges=((0, 1), (1, 2), (2, 3)))
        estimate, tag = reconstruct(system, graph)
        assert tag == "cs-lp"
        assert estimate == pytest.approx([2.0, 2.0, 2.0, 2.0], abs=1e-8)

    def test_empty_system_rejected(self):
        with pytest.raises(DimensionError):
            reconstruct(LinearSystem(n=3), NeighborGraph(n=3, edges=((0, 1),)))


class TestCollectTimestep:
    def _scenario(self, loss_p=0.0, seed=0):
        rng = np.random.default_rng(seed)
        pos = RiderPositions(
            1.0, np.column_stack([rng.uniform(0, 120, 40), rng.uniform(-4, 4, 40)])
        )
        readings = 10.0 + 0.1 * rng.standard_normal(40)
        sinks = place_sinks(pos)
        radio = RadioParams(range_m=50.0, loss_p=loss_p, seed=seed)
        return readings, pos, sinks, radio

    def test_lossfree_full_rank(self):
        readings, pos, sinks, radio = self._scenario()
        result = collect_timestep(readings, pos, sinks, radio, check_aggregates=1e-9)
        from csagg.linalg import rank

        assert result.rounds_used >= 3
        assert rank(result.system.matrix()) == 40

    def test_lossy_round_trip_reconstruction(self):
        readings, pos, sinks, radio = self._scenario(loss_p=0.5, seed=3)
        result = collect_timestep(readings, pos, sinks, radio, check_aggregates=1e-9)
        graph = knn_graph(pos, 8)
        estimate, _ = reconstruct(result.system, graph)
        from csagg.metrics import stress

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
        assert len(r1.system.rows) == len(r2.system.rows)
        for (row1, v1, p1), (row2, v2, p2) in zip(r1.system.rows, r2.system.rows):
            assert np.array_equal(row1, row2) and v1 == v2 and p1 == p2


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
