"""Compile L1 recovery into one bounded-variable LP and decode back.

Every prior is a (p, n) operator T passed to build_l1, the one builder: it
recovers a length-n signal X from k measurements Y = A X as min ||T X||_1
s.t. A X = Y (the generalized lasso). The DCT demo passes a transform basis
as T; build_pairwise_l1 passes pairwise_difference_operator, x_i - x_j over
each edge of a graph.NeighborGraph, so that neighbours move alike.

build_l1 first replaces A X = Y by its reduced row-echelon form B X = Y'
(linalg.row_echelon): one pivoted QR of rank r gives r rows
[I_r | R11^-1 R12] in pivot order and drops the dependent rows. It then
compiles the problem into its LP dual, over [lambda(r), mu(p)]:

    maximize Y'.lambda  s.t.  B^T lambda - T^T mu = 0,  lambda free, -1 <= mu <= 1

which has n equality rows and r + p columns, not k + p; each lambda column
holds 1 + (n - r) entries instead of k dense ones. By strong duality its
optimum is ||T X||_1 at the recovered X, and X is the negated vector of its
equality duals, so decode_solution reads X from the solution's duals
regardless of the prior. The dropped rows are checked afterwards:
decode_consistent rejects an X that misses any received row, which is how an
inconsistent system shows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError
from .graph import NeighborGraph
from .linalg import LpProblem, LpSolution, LpStatus, row_echelon

# decode_consistent: ||A X - Y||_inf may reach this times max(1, ||Y||_inf)
CONSISTENCY_RTOL = 1e-8


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


def build_l1(meas: Measurement, t) -> LpProblem:
    """min ||T X||_1 subject to the measurements, for any (p, n) prior
    operator T with p >= 1: the dual LP above as a minimization,

    min -Y'.lambda  s.t.  B^T lambda - T^T mu = 0,  lambda free, -1 <= mu <= 1,

    over [lambda(r), mu(p)] for B of rank r; X is minus the equality duals."""
    t = np.asarray(t, dtype=float)
    n = meas.n
    if t.ndim != 2 or t.shape[0] < 1 or t.shape[1] != n:
        raise DimensionError(f"prior operator is {t.shape}, expected (p, {n}) with p >= 1")
    b, b_rhs = row_echelon(meas.rows, meas.values)
    r, p = b.shape[0], t.shape[0]
    return LpProblem(
        objective=np.concatenate([-b_rhs, np.zeros(p)]),
        eq_matrix=np.hstack([b.T, -t.T]),
        eq_rhs=np.zeros(n),
        lower=np.concatenate([np.full(r, -np.inf), np.full(p, -1.0)]),
        upper=np.concatenate([np.full(r, np.inf), np.full(p, 1.0)]),
    )


def pairwise_difference_operator(edges, n: int) -> np.ndarray:
    """(|E|, n) operator mapping X to (x_i - x_j) over the (m, 2) edges, i < j;
    the edges are checked as a NeighborGraph's."""
    e = NeighborGraph(n, edges).edges
    if not len(e):
        raise DimensionError("edge list is empty: the objective would be void")
    t = np.zeros((len(e), n))
    t[np.arange(len(e)), e[:, 0]] = 1.0
    t[np.arange(len(e)), e[:, 1]] = -1.0
    return t


def build_pairwise_l1(meas: Measurement, edges) -> LpProblem:
    """min sum over edges of |x_i - x_j| subject to the measurements."""
    return build_l1(meas, pairwise_difference_operator(edges, meas.n))


def decode_solution(sol: LpSolution, n: int) -> np.ndarray:
    """Extract X, the negated equality duals of an optimal builder solution."""
    if sol.status is not LpStatus.OPTIMAL:
        raise ValueError(f"cannot decode a {sol.status.value} solution")
    if sol.eq_duals is None or sol.eq_duals.shape != (n,):
        raise DimensionError(f"solution carries no {n} equality duals")
    return -sol.eq_duals


def decode_consistent(sol: LpSolution, meas: Measurement) -> np.ndarray:
    """decode_solution, checked against every received row: the one judge of
    a builder LP. Its dual is feasible and bounded, so a status other than
    optimal raises NumericalError naming it. The builders keep only
    independent rows, so an inconsistent system still gives an X, and
    ||A X - Y||_inf above CONSISTENCY_RTOL * max(1, ||Y||_inf) raises
    NumericalError."""
    if sol.status is not LpStatus.OPTIMAL:
        raise NumericalError(f"L1 recovery LP came back {sol.status.value}")
    x = decode_solution(sol, meas.n)
    resid = float(np.max(np.abs(meas.rows @ x - meas.values), initial=0.0))
    scale = max(1.0, float(np.max(np.abs(meas.values), initial=0.0)))
    if resid > CONSISTENCY_RTOL * scale:
        raise NumericalError(
            f"received rows are inconsistent: the L1 estimate misses them by {resid:.3e} "
            f"(tolerance {CONSISTENCY_RTOL * scale:.3e})"
        )
    return x
