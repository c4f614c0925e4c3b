import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csagg.errors import DimensionError
from csagg.graph import (
    NeighborGraph,
    RiderPositions,
    connected_components,
    knn_graph,
)

from helpers import components_reference, edge_lists, edges_check_reference, knn_reference


def _positions(data, max_n=40):
    """Uniform positions, or points on a 4 x 4 integer grid where distance
    ties are common."""
    n = data.draw(st.integers(min_value=2, max_value=max_n))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if data.draw(st.booleans()):
        pos = rng.integers(0, 4, size=(n, 2)).astype(float)
    else:
        pos = rng.uniform(0.0, 50.0, size=(n, 2))
    return RiderPositions(0.0, pos)


class TestKnnGraph:
    def test_collinear_points(self):
        pos = RiderPositions(0.0, [[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        g = knn_graph(pos, 1)
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_square_corners_complete(self):
        pos = RiderPositions(0.0, [[0, 0], [0, 1], [1, 0], [1, 1]])
        g = knn_graph(pos, 3)
        assert g.edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]

    def test_tie_break_towards_lower_index(self):
        # riders 1 and 2 are equidistant from 0; k=1 must pick rider 1
        pos = RiderPositions(0.0, [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        g = knn_graph(pos, 1)
        assert g.edges.tolist() == [[0, 1], [0, 2]]

    def test_too_few_riders(self):
        with pytest.raises(DimensionError):
            knn_graph(RiderPositions(0.0, [[0.0, 0.0]]), 1)

    def test_bad_k(self):
        pos = RiderPositions(0.0, [[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            knn_graph(pos, 2)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_degree_bounds_130_riders(self, seed):
        rng = np.random.default_rng(seed)
        pos = RiderPositions(
            0.0, np.column_stack([rng.uniform(0, 300, 130), rng.uniform(0, 10, 130)])
        )
        g = knn_graph(pos, 10)
        deg = np.bincount(np.ravel(g.edges), minlength=130)
        assert deg.min() >= 10  # every rider lists 10 neighbors
        assert deg.max() <= 20  # union symmetrization at most doubles
        assert len(np.unique(g.edges, axis=0)) == len(g.edges)

    def test_compact_peloton_usually_connected(self):
        # density 0.2 riders/m over a 300 m window, k=10
        connected = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            pos = RiderPositions(
                0.0, np.column_stack([rng.uniform(0, 300, 60), rng.uniform(-5, 5, 60)])
            )
            g = knn_graph(pos, 10)
            connected += len(connected_components(g)) == 1
        assert connected >= 95

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        pos = RiderPositions(0.0, rng.uniform(0, 50, size=(30, 2)))
        assert np.array_equal(knn_graph(pos, 5).edges, knn_graph(pos, 5).edges)


class TestRiderPositions:
    def test_squared_spread_must_be_finite(self):
        # the square of the spread is the largest squared distance a k-d tree
        # forms; sqrt(max float64) is about 1.34e154 m
        RiderPositions(0.0, [[0.0, 0.0], [1.3e154, 5.0]])
        with pytest.raises(DimensionError, match=r"positions span 1\.4e\+154 x 5 m: "):
            RiderPositions(0.0, [[0.0, 0.0], [1.4e154, 5.0]])
        with pytest.raises(DimensionError, match="the squared distance overflows float64"):
            RiderPositions(0.0, [[0.0, 0.0], [1e154, 1e154]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with np.errstate(invalid="ignore"), pytest.raises(DimensionError, match="positions must be finite"):
            RiderPositions(0.0, [[0.0, 0.0], [bad, 1.0]])


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_knn_edges_match_reference(self, data):
        pos = _positions(data)
        k = data.draw(st.integers(min_value=1, max_value=pos.n - 1))
        edges = knn_graph(pos, k).edges
        assert edges.dtype == np.int64 and edges.ndim == 2 and edges.shape[1] == 2
        assert np.array_equal(edges, knn_reference(pos, k).edges)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_components_match_reference(self, data):
        n = data.draw(st.integers(min_value=0, max_value=40))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=60)) if pairs else []
        graph = NeighborGraph(n=n, edges=tuple(sorted(edges)))
        assert connected_components(graph) == components_reference(graph)

    def test_components_without_edges(self):
        assert connected_components(NeighborGraph(n=3)) == [[0], [1], [2]]


class TestNeighborGraph:
    def test_invalid_edges_rejected(self):
        with pytest.raises(DimensionError):
            NeighborGraph(n=3, edges=((0, 3),))
        with pytest.raises(DimensionError):
            NeighborGraph(n=3, edges=((1, 1),))
        # rows that are not pairs are named by their shape, not reread as pairs
        for edges in (((0, 1, 2), (3, 4, 5)), (0, 1), ((0,), (1,))):
            with pytest.raises(DimensionError, match="must be an"):
                NeighborGraph(n=6, edges=edges)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_edge_check_matches_reference(self, data):
        # out-of-range, reversed, self and repeated edges in any order, as
        # Python ints, numpy ints or one (m, 2) array: the same edge is
        # named, or both accept and the graph stores the edges row for row
        n = data.draw(st.integers(0, 12), label="n")
        edges = data.draw(edge_lists(n), label="edges")
        forms = (
            edges,
            tuple(tuple(np.int64(v) for v in e) for e in edges),
            np.array(edges, dtype=np.int64).reshape(-1, 2),
        )
        try:
            edges_check_reference(edges, n)
        except DimensionError as want:
            for form in forms:
                with pytest.raises(DimensionError) as got:
                    NeighborGraph(n=n, edges=form)
                assert str(got.value) == str(want)
        else:
            for form in forms:
                stored = NeighborGraph(n=n, edges=form).edges
                assert stored.dtype == np.int64 and stored.shape == (len(edges), 2)
                assert stored.tolist() == [list(e) for e in edges]
