"""Dense numerical kernel: bounded-variable LP, least squares, rank, DCT.

Matrices are plain float64 numpy arrays (row-major). The LP solver accepts
equality-constrained problems with per-variable lower bounds (minimize c.z
subject to G z = h, z >= lower). Without explicit bounds every variable is
nonnegative, which is pure standard form; a lower bound of -inf makes a
variable free. It is backed by HiGHS via scipy; results are deterministic
for a fixed problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse
from scipy.linalg import qr as _pivoted_qr, solve_triangular
from scipy.optimize import linprog

from .errors import DimensionError, NumericalError, RankDeficientError

DEFAULT_FEAS_TOL = 1e-8


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """min objective . z  s.t.  eq_matrix @ z = eq_rhs, z >= lower.

    ``lower=None`` means z >= 0 (standard form); -inf entries are free.
    """

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    lower: np.ndarray | None = None

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
        if self.lower is not None:
            lo = np.asarray(self.lower, dtype=float)
            if lo.shape != c.shape:
                raise DimensionError(f"lower is {lo.shape}, expected {c.shape}")
            if np.any(np.isnan(lo) | (lo == np.inf)):
                raise ValueError("lower bounds must be finite or -inf")
            object.__setattr__(self, "lower", lo)

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    values: np.ndarray | None
    objective_value: float


def solve_lp(problem: LpProblem, feas_tol: float = DEFAULT_FEAS_TOL) -> LpSolution:
    """Solve an equality-constrained LP with lower-bounded variables.

    Returns an OPTIMAL solution satisfying ||G z - h||_inf <= feas_tol
    (relative to max(1, ||h||_inf)) and z >= lower - feas_tol on every
    finitely bounded entry, or the INFEASIBLE/UNBOUNDED status. Numerical
    breakdown raises NumericalError.
    """
    if feas_tol <= 0:
        raise ValueError("feas_tol must be positive")
    lower = np.zeros(problem.num_vars) if problem.lower is None else problem.lower
    res = linprog(
        problem.objective,
        A_eq=sparse.csr_matrix(problem.eq_matrix),
        b_eq=problem.eq_rhs,
        bounds=np.column_stack([lower, np.full_like(lower, np.inf)]),
        method="highs",
        options={"primal_feasibility_tolerance": min(feas_tol, 1e-8)},
    )
    if res.status == 2:
        return LpSolution(LpStatus.INFEASIBLE, None, float("nan"))
    if res.status == 3:
        return LpSolution(LpStatus.UNBOUNDED, None, float("-inf"))
    if res.status != 0:
        raise NumericalError(f"LP solver breakdown: {res.message}")
    z = np.asarray(res.x, dtype=float)
    scale = max(1.0, float(np.max(np.abs(problem.eq_rhs), initial=0.0)))
    resid = float(np.max(np.abs(problem.eq_matrix @ z - problem.eq_rhs), initial=0.0))
    bounded = np.isfinite(lower)
    slack = float(np.min(z[bounded] - lower[bounded], initial=0.0))
    if resid > feas_tol * scale or slack < -feas_tol:
        raise NumericalError(
            f"LP solution violates feasibility: residual {resid:.3e}, "
            f"bound violation {-slack:.3e}"
        )
    return LpSolution(LpStatus.OPTIMAL, z, float(res.fun))


def least_squares(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """argmin ||a x - y||_2 via Householder QR; requires full column rank."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    y = np.asarray(y, dtype=float)
    m, n = a.shape
    if y.shape != (m,):
        raise DimensionError(f"rhs has length {y.shape}, expected ({m},)")
    if m < n:
        raise RankDeficientError(f"system is underdetermined: {m} rows, {n} cols")
    if rank(a) < n:
        raise RankDeficientError("matrix is numerically rank-deficient")
    q, r = np.linalg.qr(a)
    return solve_triangular(r, q.T @ y)


def rank(a: np.ndarray, tol: float | None = None) -> int:
    """Numerical rank via column-pivoted QR; default tol = 1e-9 * max|entry|."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0
    if tol is None:
        tol = 1e-9 * float(np.max(np.abs(a)))
    elif tol <= 0:
        raise ValueError("tol must be positive")
    if np.max(np.abs(a)) == 0.0:
        return 0
    r = _pivoted_qr(a, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(r))
    return int(np.count_nonzero(diag > tol))


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix phi of size n x n (phi.T @ phi = I)."""
    if n < 1:
        raise DimensionError("DCT size must be >= 1")
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    phi = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    phi[0] /= np.sqrt(2.0)
    return phi
