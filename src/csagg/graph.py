"""k-nearest-neighbor rider graph and its connected components."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph, csr_matrix
from scipy.spatial.distance import cdist

from .errors import DimensionError


@dataclass(frozen=True)
class RiderPositions:
    """Rider coordinates at one instant: pos[:, 0] along-road s, pos[:, 1] lateral d (meters)."""

    time: float
    pos: np.ndarray  # (n, 2)

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.pos, dtype=float))
        if p.ndim != 2 or p.shape[1] != 2:
            raise DimensionError(f"positions must be (n, 2), got {p.shape}")
        check_positions(p)
        object.__setattr__(self, "pos", p)

    @property
    def n(self) -> int:
        return self.pos.shape[0]


def check_positions(pos: np.ndarray) -> None:
    """Raise DimensionError unless the (n, 2) positions are finite and so is the square of their
    spread, the largest squared distance between two riders: they span below about 1.3e154 m."""
    # no squared distance exceeds 2 w^2; each test is false for a nan or infinite spread
    w = float(pos.max()) - float(pos.min())
    if not 2 * w * w < math.inf:
        ds, dd = (pos.max(axis=0) - pos.min(axis=0)).tolist()
        if not ds * ds + dd * dd < math.inf:
            if not np.isfinite(pos).all():
                raise DimensionError("positions must be finite")
            raise DimensionError(f"positions span {ds:.3g} x {dd:.3g} m: the squared distance overflows float64")


# an array field does not compare by value, so graphs compare by identity
@dataclass(frozen=True, eq=False)
class NeighborGraph:
    """Simple undirected graph on n vertices. edges is given as any (m, 2)
    array-like of (i, j) pairs with i < j and stored as an (m, 2) int64 array."""

    n: int
    edges: np.ndarray = ()

    def __post_init__(self):
        e = np.array(self.edges, dtype=np.int64)
        if e.size and (e.ndim != 2 or e.shape[1] != 2):
            raise DimensionError(f"edges must be an (m, 2) array, got shape {e.shape}")
        e = e.reshape(-1, 2)
        check_edges(e, self.n)
        object.__setattr__(self, "edges", e)


def check_edges(edges: np.ndarray, n: int) -> None:
    """Raise DimensionError naming the first of the (m, 2) edges, in order,
    that is not 0 <= i < j < n or that repeats an earlier edge."""
    i, j = edges[:, 0], edges[:, 1]
    invalid = ~((0 <= i) & (i < j) & (j < n))
    # lexsort is stable, so each run of equal edges starts at its first
    order = np.lexsort((j, i))
    si, sj = i[order], j[order]
    repeat = np.zeros(len(edges), dtype=bool)
    repeat[order[1:][(si[1:] == si[:-1]) & (sj[1:] == sj[:-1])]] = True
    bad = np.flatnonzero(invalid | repeat)
    if bad.size:
        a, b = edges[bad[0]].tolist()
        if invalid[bad[0]]:
            raise DimensionError(f"edge ({a},{b}) invalid for n={n}")
        raise DimensionError(f"duplicate edge ({a},{b})")


def smallest_per_row(table: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k smallest entries in each row of the 2-D table:
    all below the row's k-th smallest value, then its earliest at that value."""
    kth = np.partition(table, k - 1, axis=1)[:, k - 1 : k]
    below = table < kth
    tied = table == kth
    room = k - below.sum(axis=1, keepdims=True)
    return below | (tied & (np.cumsum(tied, axis=1) <= room))


def knn_graph(positions: RiderPositions, k_neighbors: int) -> NeighborGraph:
    """Connect each rider to its k nearest neighbors (Euclidean), symmetrized by union.

    Distance ties are broken towards the lower rider index, so the result is
    deterministic for a fixed position set.
    """
    n = positions.n
    if n < 2:
        raise DimensionError("need at least 2 riders to build a graph")
    if not 1 <= k_neighbors < n:
        raise ValueError(f"k_neighbors must be in [1, {n - 1}], got {k_neighbors}")
    dist = cdist(positions.pos, positions.pos)
    np.fill_diagonal(dist, np.inf)
    rows, cols = np.nonzero(smallest_per_row(dist, k_neighbors))
    # each undirected pair once, as one key min * n + max in sorted order
    keys = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
    return NeighborGraph(n=n, edges=np.column_stack([keys // n, keys % n]))


def connected_components(graph: NeighborGraph) -> list[list[int]]:
    """Vertex sets of the connected components, each sorted, ordered by their
    lowest vertex."""
    i, j = graph.edges.T
    adjacency = csr_matrix((np.ones(len(i)), (i, j)), shape=(graph.n, graph.n))
    labels = csgraph.connected_components(adjacency, directed=False)[1]
    order = np.argsort(labels, kind="stable")
    comps = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    # a graph without vertices splits into one empty piece
    return sorted((c.tolist() for c in comps if c.size), key=lambda c: c[0])
