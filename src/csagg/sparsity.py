"""Compile L1 recovery formulations into bounded-variable LPs and decode back.

Three priors are supported for recovering a length-n signal X from k linear
measurements Y = A X:

  * basis:     minimize ||phi X||_1        (sparsity in a transform basis)
  * pairwise:  minimize sum_{ij in E} |x_i - x_j|   (neighbors move alike)
  * laplacian: minimize ||L X||_1 with L the graph Laplacian of E

Each prior is a (p, n) operator T, and every builder compiles it into one
bounded-variable LP over [X(n), u(p), v(p)]: X is free, u, v >= 0, and
T X - u + v = 0 splits each residual into its positive and negative parts,
so minimizing 1.(u + v) minimizes ||T X||_1. decode_solution reads X from
the first n entries regardless of the prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import LpProblem, LpSolution, LpStatus

EdgeList = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Measurement:
    """Received linear system: values = matrix @ X for the true signal X."""

    matrix: np.ndarray  # (k, n)
    values: np.ndarray  # (k,)

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        y = np.asarray(self.values, dtype=float)
        if a.shape[0] != y.shape[0]:
            raise DimensionError(
                f"{a.shape[0]} measurement rows but {y.shape[0]} values"
            )
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "values", y)

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @property
    def k(self) -> int:
        return self.matrix.shape[0]


def _check_edges(edges: EdgeList, n: int) -> EdgeList:
    edges = tuple((int(i), int(j)) for i, j in edges)
    if not edges:
        raise DimensionError("edge list is empty: the objective would be void")
    seen = set()
    for i, j in edges:
        if not (0 <= i < j < n):
            raise DimensionError(f"edge ({i},{j}) invalid for n={n}")
        if (i, j) in seen:
            raise DimensionError(f"duplicate edge ({i},{j})")
        seen.add((i, j))
    return edges


def _abs_bound_lp(meas: Measurement, t: np.ndarray) -> LpProblem:
    """LP: min 1.(u + v)  s.t.  A X = Y, T X - u + v = 0, X free, u, v >= 0.

    T is the (p, n) operator whose componentwise absolute value is being
    minimized. Variables: [X(n), u(p), v(p)].
    """
    a, y = meas.matrix, meas.values
    k, n = a.shape
    p = t.shape[0]
    g = np.zeros((k + p, n + 2 * p))
    g[:k, :n] = a
    g[k:, :n] = t
    rows = np.arange(p)
    g[k + rows, n + rows] = -1.0
    g[k + rows, n + p + rows] = 1.0
    h = np.zeros(k + p)
    h[:k] = y
    c = np.zeros(n + 2 * p)
    c[n:] = 1.0
    lower = np.zeros(n + 2 * p)
    lower[:n] = -np.inf
    return LpProblem(objective=c, eq_matrix=g, eq_rhs=h, lower=lower)


def build_basis_l1(meas: Measurement, basis: np.ndarray) -> LpProblem:
    """min ||basis @ X||_1 subject to the measurements."""
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    n = meas.n
    if basis.shape != (n, n):
        raise DimensionError(f"basis is {basis.shape}, expected ({n}, {n})")
    return _abs_bound_lp(meas, basis)


def pairwise_difference_operator(edges: EdgeList, n: int) -> np.ndarray:
    """(|E|, n) operator mapping X to (x_i - x_j) over the edges, i < j."""
    edges = _check_edges(edges, n)
    t = np.zeros((len(edges), n))
    for e, (i, j) in enumerate(edges):
        t[e, i] = 1.0
        t[e, j] = -1.0
    return t


def build_pairwise_l1(meas: Measurement, edges: EdgeList) -> LpProblem:
    """min sum over edges of |x_i - x_j| subject to the measurements."""
    return _abs_bound_lp(meas, pairwise_difference_operator(edges, meas.n))


def build_laplacian_l1(meas: Measurement, edges: EdgeList) -> LpProblem:
    """min ||L X||_1 with L the graph Laplacian of the edge set."""
    from .graph import NeighborGraph, laplacian

    edges = _check_edges(edges, meas.n)
    lap = laplacian(NeighborGraph(n=meas.n, edges=edges))
    return _abs_bound_lp(meas, lap)


def decode_solution(sol: LpSolution, n: int) -> np.ndarray:
    """Extract X, the leading n entries of an optimal builder solution."""
    if sol.status is not LpStatus.OPTIMAL:
        raise ValueError(f"cannot decode a {sol.status.value} solution")
    if sol.values is None or sol.values.shape[0] < n:
        raise DimensionError("solution vector shorter than n")
    return sol.values[:n]
