import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csagg.errors import ConfigError
from csagg.graph import RiderPositions
from csagg.radio import (
    RadioParams,
    compute_reachability,
    hop_distance_to_sinks,
    in_range_links,
    key_chain,
    link_uniforms,
    place_sinks,
)
from csagg.protocol import MIN_ROUNDS
from helpers import hops_dijkstra_reference, hops_reference, reachability_reference, splitmix64_reference

NO_SINKS = np.zeros((0, 2))


def riders(*s_coords):
    return RiderPositions(0.0, [[s, 0.0] for s in s_coords])


def delivered(pos, sinks, params, round_index=1):
    links = in_range_links(pos, sinks, params.range_m)
    pairs = compute_reachability(links, pos.time, params, round_index).delivered
    return {(s, r) for s, r in pairs.tolist()}


def hops(pos, sinks, range_m):
    return hop_distance_to_sinks(in_range_links(pos, sinks, range_m), pos.n)


class TestComputeReachability:
    def test_lossless_in_range_pair(self):
        assert delivered(riders(0.0, 10.0), NO_SINKS, RadioParams(range_m=50)) == {(0, 1), (1, 0)}

    def test_range_is_inclusive(self):
        assert delivered(riders(0.0, 50.0), NO_SINKS, RadioParams(range_m=50)) == {(0, 1), (1, 0)}

    def test_total_loss(self):
        params = RadioParams(range_m=50, loss_p=1.0)
        assert delivered(riders(0.0, 10.0), NO_SINKS, params) == set()

    def test_out_of_range(self):
        assert delivered(riders(0.0, 100.0), NO_SINKS, RadioParams(range_m=50)) == set()

    def test_loss_fraction_concentrates(self):
        # 33 riders in close range: 1056 ordered pairs, p = 0.5
        pos = riders(*np.linspace(0.0, 3.2, 33))
        params = RadioParams(range_m=50, loss_p=0.5, seed=123)
        fraction = len(delivered(pos, NO_SINKS, params)) / (33 * 32)
        assert 0.45 <= fraction <= 0.55

    def test_loss_monotone_in_p(self):
        pos = riders(*np.linspace(0.0, 40.0, 20))
        sets = []
        for p in (0.2, 0.5, 0.8):
            params = RadioParams(range_m=50, loss_p=p, seed=7)
            sets.append(delivered(pos, NO_SINKS, params, 3))
        assert sets[0] >= sets[1] >= sets[2]

    def test_deterministic_replay(self):
        pos = riders(*np.linspace(0.0, 40.0, 20))
        params = RadioParams(range_m=50, loss_p=0.4, seed=11)
        links = in_range_links(pos, NO_SINKS, params.range_m)
        first = compute_reachability(links, pos.time, params, 2).delivered
        second = compute_reachability(links, pos.time, params, 2).delivered
        assert np.array_equal(first, second)

    def test_sinks_receive_but_never_send(self):
        sinks = np.array([[5.0, 0.0]])
        assert delivered(riders(0.0), sinks, RadioParams(range_m=50)) == {(0, 1)}  # sink is node 1

    def test_invalid_params(self):
        for range_m in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="range_m"):
                RadioParams(range_m=range_m)
        with pytest.raises(ConfigError):
            RadioParams(loss_p=1.5)


class TestLinkUniforms:
    def test_order_independent(self):
        s = np.array([3, 1, 2])
        r = np.array([4, 5, 6])
        u = link_uniforms(9, 1.0, 2, s, r)
        v = link_uniforms(9, 1.0, 2, s[::-1], r[::-1])
        assert np.array_equal(u, v[::-1])

    def test_direction_matters(self):
        u_fwd = link_uniforms(9, 1.0, 2, np.array([1]), np.array([2]))
        u_rev = link_uniforms(9, 1.0, 2, np.array([2]), np.array([1]))
        assert u_fwd[0] != u_rev[0]

    # exact uniforms of four (seed, time, round, sender, receiver) keys, so a
    # change to any bit of the link stream fails here and not only through
    # the reports it moves
    @pytest.mark.parametrize(
        "seed, time, round_index, sender, receiver, u",
        [
            (0, 0.0, 1, 0, 1, 0.9025694813249272),
            (9, 1.0, 2, 3, 4, 0.06932982281546274),
            (2**64 - 1, 33.5, 7, 129, 131, 0.24739541040817004),
            (123456789, 0.25, 3, 57, 12, 0.8517675860172322),
        ],
    )
    def test_pinned_values(self, seed, time, round_index, sender, receiver, u):
        assert link_uniforms(seed, time, round_index, np.array([sender]), np.array([receiver]))[0] == u


class TestKeyChain:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5))
    def test_matches_the_reference_chain(self, parts):
        key = splitmix64_reference(parts[0])
        for part in parts[1:]:
            key = splitmix64_reference(key ^ part)
        assert key_chain(*parts) == np.uint64(key)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=4))
    def test_parts_taken_modulo_2_64(self, parts):
        assert key_chain(*parts) == key_chain(*(part % 2**64 for part in parts))


class TestHopDistance:
    def test_one_hop_to_sink(self):
        assert hops(riders(0.0), np.array([[20.0, 0.0]]), 50.0) == pytest.approx([1.0])

    def test_chain(self):
        assert hops(riders(0.0, 40.0), np.array([[80.0, 0.0]]), 50.0) == pytest.approx([2.0, 1.0])

    def test_isolated_rider(self):
        found = hops(riders(0.0, 1000.0), np.array([[1010.0, 0.0]]), 50.0)
        assert found[1] == 1.0
        assert np.isinf(found[0])

    def test_bad_range(self):
        for range_m in (0.0, float("nan")):
            with pytest.raises(ConfigError, match="range_m"):
                in_range_links(riders(0.0), NO_SINKS, range_m)


class TestLevelBfs:
    """hop_distance_to_sinks on hand-made link lists, against the Dijkstra
    search it replaced and the distance-matrix BFS."""

    def test_rider_without_links(self):
        # rider 2 neither sends nor receives; sink is node 3
        links = np.array([[0, 1], [1, 0], [1, 3]])
        found = hop_distance_to_sinks(links, 3)
        assert found.tolist()[:2] == [2.0, 1.0]
        assert np.isinf(found[2])
        assert np.array_equal(found, hops_dijkstra_reference(links, 3))

    def test_links_only_into_sinks(self):
        links = np.array([[0, 3], [1, 4], [2, 3]])
        assert hop_distance_to_sinks(links, 3).tolist() == [1.0, 1.0, 1.0]

    def test_repeated_sink_links(self):
        # rider 0 reaches both sinks, one of them twice
        links = np.array([[0, 2], [0, 2], [0, 3], [1, 0]])
        assert hop_distance_to_sinks(links, 2).tolist() == [1.0, 2.0]
        assert np.array_equal(hop_distance_to_sinks(links, 2), hops_dijkstra_reference(links, 2))

    def test_no_links(self):
        assert np.isinf(hop_distance_to_sinks(np.zeros((0, 2), dtype=np.int64), 2)).all()

    def test_chain_deeper_than_min_rounds(self):
        depth = MIN_ROUNDS + 3
        pos = riders(*(40.0 * k for k in range(depth)))
        sinks = np.array([[40.0 * depth, 0.0]])
        found = hops(pos, sinks, 50.0)
        assert found.tolist() == [float(depth - k) for k in range(depth)]
        assert np.array_equal(found, hops_reference(pos, sinks, 50.0))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_link_list_matches_dijkstra(self, data):
        # directed, unsorted and repeated links; sinks only receive
        n = data.draw(st.integers(1, 15), label="n")
        n_sinks = data.draw(st.integers(0, 3), label="n_sinks")
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n + n_sinks - 1))
        links = np.array(data.draw(st.lists(pairs, max_size=60), label="links"), dtype=np.int64)
        links = links.reshape(-1, 2)
        assert np.array_equal(hop_distance_to_sinks(links, n), hops_dijkstra_reference(links, n))


_ALONG = st.floats(0.0, 400.0)
_LATERAL = st.floats(-4.0, 4.0)


class TestLinksMatchReference:
    """in_range_links, compute_reachability and hop_distance_to_sinks against
    the full distance-matrix reachability and the loop BFS in helpers."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_links_rounds_and_hops(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        pos = RiderPositions(
            data.draw(st.floats(0.0, 1e4), label="time"),
            data.draw(st.lists(st.tuples(_ALONG, _LATERAL), min_size=n, max_size=n), label="riders"),
        )
        sinks = np.array(
            data.draw(st.lists(st.tuples(_ALONG, _LATERAL), max_size=2), label="sinks"), dtype=float
        ).reshape(-1, 2)
        range_m = data.draw(st.floats(1.0, 150.0), label="range_m")
        loss_p, more_loss = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        round_index = data.draw(st.integers(1, 20), label="round")

        links = in_range_links(pos, sinks, range_m)
        sets = []
        for p in (loss_p, more_loss):
            params = RadioParams(range_m=range_m, loss_p=p, seed=seed)
            pairs = compute_reachability(links, pos.time, params, round_index).delivered.tolist()
            assert pairs == sorted(pairs)
            found = {(s, r) for s, r in pairs}
            assert len(found) == len(pairs)
            assert found == reachability_reference(pos, sinks, params, round_index)
            sets.append(found)
        assert sets[1] <= sets[0]
        assert np.array_equal(hop_distance_to_sinks(links, n), hops_reference(pos, sinks, range_m))


class TestPlaceSinks:
    def test_front_and_back(self):
        rng = np.random.default_rng(0)
        pos = RiderPositions(0.0, np.column_stack([rng.uniform(0, 200, 100), rng.uniform(-4, 4, 100)]))
        sinks = place_sinks(pos)
        assert sinks.shape == (2, 2)
        s = pos.pos[:, 0]
        assert sinks[0, 0] < np.median(s) < sinks[1, 0]
        assert sinks[:, 1] == pytest.approx([0.0, 0.0])
