"""k-nearest-neighbor rider graph and its connected components."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
        if not np.all(np.isfinite(p)):
            raise DimensionError("positions must be finite")
        object.__setattr__(self, "pos", p)

    @property
    def n(self) -> int:
        return self.pos.shape[0]


@dataclass(frozen=True)
class NeighborGraph:
    """Simple undirected graph on n vertices; edges stored with i < j."""

    n: int
    edges: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise DimensionError(f"edge ({i},{j}) invalid for n={self.n}")
        if len(set(self.edges)) != len(self.edges):
            raise DimensionError("duplicate edges")


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
    p = positions.pos
    diff = p[:, None, :] - p[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    edges: set[tuple[int, int]] = set()
    for i in range(n):
        # stable sort on distance keeps lower indices first among ties
        nearest = np.argsort(dist[i], kind="stable")[:k_neighbors]
        for j in nearest:
            edges.add((min(i, int(j)), max(i, int(j))))
    return NeighborGraph(n=n, edges=tuple(sorted(edges)))


def connected_components(graph: NeighborGraph) -> list[list[int]]:
    """Vertex sets of the connected components (BFS)."""
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
