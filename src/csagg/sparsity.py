"""Compile L1 recovery formulations into bounded-variable LPs and decode back.

Two formulations are supported for recovering a length-n signal X from k
linear measurements Y = A X:

  * basis:     minimize ||phi X||_1        (sparsity in a transform basis)
  * pairwise:  minimize sum_{ij in E} |x_i - x_j|   (neighbors move alike)

Each prior is a (p, n) operator T, and both builders compile
min ||T X||_1 s.t. A X = Y into its LP dual, one bounded-variable LP over
[lambda(k), mu(p)]:

    maximize Y.lambda  s.t.  A^T lambda - T^T mu = 0,  lambda free, -1 <= mu <= 1

which has n equality rows and k + p columns. By strong duality its optimum
is ||T X||_1 at the recovered X, and X is the negated vector of its equality
duals, so decode_solution reads X from the solution's duals regardless of
the prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import LpProblem, LpSolution, LpStatus

EdgeList = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Measurement:
    """Received linear system: values = rows @ X for the true signal X."""

    rows: np.ndarray  # (k, n)
    values: np.ndarray  # (k,)

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.rows, dtype=float))
        y = np.asarray(self.values, dtype=float)
        if a.shape[0] != y.shape[0]:
            raise DimensionError(
                f"{a.shape[0]} measurement rows but {y.shape[0]} values"
            )
        object.__setattr__(self, "rows", a)
        object.__setattr__(self, "values", y)

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    @property
    def k(self) -> int:
        return self.rows.shape[0]


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
    """Dual LP of min ||T X||_1 s.t. A X = Y, as a minimization:

    min -Y.lambda  s.t.  A^T lambda - T^T mu = 0,  lambda free, -1 <= mu <= 1.

    T is the (p, n) operator whose componentwise absolute value is being
    minimized. Variables: [lambda(k), mu(p)]; X is minus the equality duals.
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


def decode_solution(sol: LpSolution, n: int) -> np.ndarray:
    """Extract X, the negated equality duals of an optimal builder solution."""
    if sol.status is not LpStatus.OPTIMAL:
        raise ValueError(f"cannot decode a {sol.status.value} solution")
    if sol.eq_duals is None or sol.eq_duals.shape != (n,):
        raise DimensionError(f"solution carries no {n} equality duals")
    return -sol.eq_duals
