"""Dense numerical kernel: bounded-variable LP, least squares, rank, DCT.

Matrices are plain float64 numpy arrays (row-major). The LP solver accepts
equality-constrained problems with per-variable bounds (minimize c.z subject
to G z = h, lower <= z <= upper). Without explicit bounds every variable is
nonnegative, which is pure standard form; a lower bound of -inf makes a
variable free below and an upper bound of +inf (the default) free above. It
is backed by HiGHS's interior-point solver (IPX) via scipy, with crossover
to a vertex; results are deterministic for a fixed problem. An optimal
solution carries the equality duals y, and is returned only with a primal
and a dual certificate: z is feasible, every free variable's reduced cost
c - G^T y vanishes, and c.z equals the dual objective of y. row_echelon
reduces a linear system to its independent rows with the rank rule of rank.
rank, least_squares and row_echelon share one economic column-pivoted QR
per matrix: the last factorisation is kept, keyed on the matrix's shape,
dtype and exact bytes, so a step that asks all three about its sink system
factorises it once and gets the same factors it would have computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse
from scipy.linalg import qr as _pivoted_qr, solve_triangular
from scipy.optimize import linprog

from .errors import DimensionError, NumericalError, RankDeficientError

# solve_lp's feasibility and optimality tolerance, also HiGHS's own
FEAS_TOL = 1e-8
# a pivoted-QR diagonal entry counts towards the rank above this times max|entry|
RANK_RTOL = 1e-9


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """min objective . z  s.t.  eq_matrix @ z = eq_rhs, lower <= z <= upper.

    ``lower=None`` means z >= 0 (standard form); -inf entries are unbounded
    below. ``upper=None`` means no upper bounds; +inf entries are unbounded
    above. Both are stored as arrays.
    """

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        g = np.atleast_2d(np.asarray(self.eq_matrix, dtype=float))
        h = np.asarray(self.eq_rhs, dtype=float)
        if g.shape != (h.shape[0], c.shape[0]):
            raise DimensionError(
                f"eq_matrix is {g.shape}, expected ({h.shape[0]}, {c.shape[0]})"
            )
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", g)
        object.__setattr__(self, "eq_rhs", h)
        lo = np.zeros(c.shape) if self.lower is None else np.asarray(self.lower, dtype=float)
        up = np.full(c.shape, np.inf) if self.upper is None else np.asarray(self.upper, dtype=float)
        for name, bound in (("lower", lo), ("upper", up)):
            if bound.shape != c.shape:
                raise DimensionError(f"{name} is {bound.shape}, expected {c.shape}")
        if np.any(np.isnan(lo) | (lo == np.inf)):
            raise ValueError("lower bounds must be finite or -inf")
        if np.any(np.isnan(up) | (up == -np.inf)):
            raise ValueError("upper bounds must be finite or +inf")
        if np.any(lo > up):
            raise ValueError("a lower bound exceeds its upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    values: np.ndarray | None
    objective_value: float
    # equality duals y: the objective's sensitivity to eq_rhs
    eq_duals: np.ndarray | None = None


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve an equality-constrained LP with bounded variables.

    Returns an OPTIMAL solution with its equality duals y, or the
    INFEASIBLE/UNBOUNDED status. An optimal z satisfies every row i of
    G z = h within FEAS_TOL (relative to max(1, sum_j |G_ij z_j| + |h_i|),
    the size of the terms the row sums) and lies within FEAS_TOL of its
    finite bounds. Its duals certify optimality: the
    reduced cost c - G^T y of every free variable is within FEAS_TOL of zero
    (relative to max(1, ||c||_inf)), and c.z equals the dual objective
    h.y + sum_j min over lower_j <= z_j <= upper_j of (c - G^T y)_j z_j within
    FEAS_TOL (relative to max(1, |c.z|)). A breach, or numerical breakdown,
    raises NumericalError.
    """
    c, g, h = problem.objective, problem.eq_matrix, problem.eq_rhs
    lower, upper = problem.lower, problem.upper
    res = linprog(
        c,
        A_eq=sparse.csr_matrix(g),
        b_eq=h,
        bounds=np.column_stack([lower, upper]),
        method="highs-ipm",
        options={"primal_feasibility_tolerance": FEAS_TOL, "dual_feasibility_tolerance": FEAS_TOL},
    )
    if res.status == 2:
        return LpSolution(LpStatus.INFEASIBLE, None, float("nan"))
    if res.status == 3:
        return LpSolution(LpStatus.UNBOUNDED, None, float("-inf"))
    if res.status != 0:
        raise NumericalError(f"LP solver breakdown: {res.message}")
    z = np.asarray(res.x, dtype=float)
    y = np.asarray(res.eqlin.marginals, dtype=float)
    resid = np.abs(g @ z - h)
    # a row rounds in proportion to its terms, which h alone does not measure:
    # h is 0 in every build_l1 dual
    off = np.flatnonzero(resid > FEAS_TOL * np.maximum(1.0, np.abs(g) @ np.abs(z) + np.abs(h)))
    fin_lo, fin_up = np.isfinite(lower), np.isfinite(upper)
    below = float(np.max(lower[fin_lo] - z[fin_lo], initial=0.0))
    above = float(np.max(z[fin_up] - upper[fin_up], initial=0.0))
    if off.size or max(below, above) > FEAS_TOL:
        raise NumericalError(
            f"LP solution violates feasibility: residual {float(np.max(resid[off], initial=0.0)):.3e} "
            f"beyond tolerance on {off.size} of {resid.size} rows, bound violation {max(below, above):.3e}"
        )
    reduced = c - g.T @ y
    free = ~fin_lo & ~fin_up
    stationarity = float(np.max(np.abs(reduced[free]), initial=0.0))
    # each bounded variable's least reduced-cost term over its box
    at_lower = np.where(fin_lo, reduced * np.where(fin_lo, lower, 0.0), np.inf)
    at_upper = np.where(fin_up, reduced * np.where(fin_up, upper, 0.0), np.inf)
    dual_objective = float(h @ y) + float(np.minimum(at_lower, at_upper)[~free].sum())
    primal_objective = float(c @ z)
    gap = abs(primal_objective - dual_objective)
    if (
        stationarity > FEAS_TOL * max(1.0, float(np.max(np.abs(c), initial=0.0)))
        or gap > FEAS_TOL * max(1.0, abs(primal_objective))
    ):
        raise NumericalError(
            f"LP duals do not certify optimality: free reduced cost {stationarity:.3e}, "
            f"duality gap {gap:.3e}"
        )
    return LpSolution(LpStatus.OPTIMAL, z, float(res.fun), y)


# (shape, dtype, bytes) of the last matrix factorised, and its read-only
# (q, r, perm); a hit returns exactly what the same LAPACK call on the same
# data computes again
_last_qr: tuple = (None, None)


def _qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economic column-pivoted QR a[:, perm] = q @ r, computed once per matrix."""
    global _last_qr
    key = (a.shape, a.dtype.str, a.tobytes())
    cached_key, factors = _last_qr
    if cached_key != key:
        factors = _pivoted_qr(a, mode="economic", pivoting=True)
        for f in factors:
            f.setflags(write=False)
        _last_qr = (key, factors)
    return factors


def least_squares(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """argmin ||a x - y||_2 via one column-pivoted Householder QR; requires
    full column rank under rank's rule (|r_jj| > RANK_RTOL * max|entry|)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    y = np.asarray(y, dtype=float)
    m, n = a.shape
    if y.shape != (m,):
        raise DimensionError(f"rhs has length {y.shape}, expected ({m},)")
    if m < n:
        raise RankDeficientError(f"system is underdetermined: {m} rows, {n} cols")
    q, r, perm = _qr(a)
    if _qr_rank(r, a) < n:
        raise RankDeficientError("matrix is numerically rank-deficient")
    x = np.empty(n)
    x[perm] = solve_triangular(r, q.T @ y)
    return x


def _qr_rank(r: np.ndarray, a: np.ndarray) -> int:
    """Rank of a from its pivoted-QR factor r: |r_jj| > RANK_RTOL * max|entry of a|."""
    return int(np.count_nonzero(np.abs(np.diag(r)) > RANK_RTOL * float(np.max(np.abs(a), initial=0.0))))


def row_echelon(a: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(b, b_rhs): the reduced row-echelon form of a x = y.

    One column-pivoted QR a P = Q R of numerical rank r under rank's rule
    gives b = [I_r | R11^-1 R12] P^T, r rows whose pivot columns are exact unit
    vectors, and b_rhs = R11^-1 Q_r^T y. Whenever a x = y is consistent, b x =
    b_rhs has the same solutions; the dropped dependent rows are not checked.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    y = np.asarray(y, dtype=float)
    if y.shape != (a.shape[0],):
        raise DimensionError(f"rhs has length {y.shape}, expected ({a.shape[0]},)")
    q, r, perm = _qr(a)
    k = _qr_rank(r, a)
    r11 = r[:k, :k]
    b = np.zeros((k, a.shape[1]))
    b[:, perm[:k]] = np.eye(k)
    b[:, perm[k:]] = solve_triangular(r11, r[:k, k:])
    return b, solve_triangular(r11, q[:, :k].T @ y)


def rank(a: np.ndarray) -> int:
    """Numerical rank via one column-pivoted QR, under _qr_rank's rule."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0
    return _qr_rank(_qr(a)[1], a)


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix phi of size n x n (phi.T @ phi = I)."""
    if n < 1:
        raise DimensionError("DCT size must be >= 1")
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    phi = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    phi[0] /= np.sqrt(2.0)
    return phi
