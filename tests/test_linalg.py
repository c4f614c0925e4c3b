import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg

from types import SimpleNamespace

import csagg.linalg
from csagg.errors import DimensionError, NumericalError, RankDeficientError
from csagg.linalg import (
    LpProblem,
    LpStatus,
    dct_matrix,
    least_squares,
    rank,
    row_echelon,
    solve_lp,
)
from helpers import brute_force_lp, random_bounded_lp, random_feasible_lp


class TestSolveLp:
    def test_forced_segment(self):
        # min x1+x2 s.t. x1+x2=1: every feasible point has objective 1
        sol = solve_lp(LpProblem([1.0, 1.0], [[1.0, 1.0]], [1.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_negative_rhs(self):
        sol = solve_lp(LpProblem([1.0, 0.0], [[1.0, -1.0]], [-1.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(0.0, abs=1e-9)
        assert sol.values[0] == pytest.approx(0.0, abs=1e-9)
        assert sol.values[1] == pytest.approx(1.0, abs=1e-9)

    def test_unbounded(self):
        sol = solve_lp(LpProblem([-1.0], [[0.0]], [0.0]))
        assert sol.status is LpStatus.UNBOUNDED

    def test_infeasible(self):
        sol = solve_lp(LpProblem([1.0], [[0.0]], [1.0]))
        assert sol.status is LpStatus.INFEASIBLE

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            LpProblem([1.0, 1.0], [[1.0]], [1.0])

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            c, g, h = random_feasible_lp(rng)
            sol = solve_lp(LpProblem(c, g, h))
            assert sol.status is LpStatus.OPTIMAL
            expected = brute_force_lp(c, g, h)
            assert expected is not None
            assert sol.objective_value == pytest.approx(expected, abs=1e-6)

    def test_optimal_satisfies_own_postconditions(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            c, g, h = random_feasible_lp(rng)
            sol = solve_lp(LpProblem(c, g, h))
            scale = max(1.0, np.abs(h).max())
            assert np.max(np.abs(g @ sol.values - h)) <= 1e-8 * scale
            assert sol.values.min() >= -1e-8

    def test_free_variable_takes_negative_optimum(self):
        # min x2 s.t. x1 + x2 = -3 with x1 free, x2 >= 0: x1 = -3, x2 = 0
        sol = solve_lp(LpProblem([0.0, 1.0], [[1.0, 1.0]], [-3.0], lower=[-np.inf, 0.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(0.0, abs=1e-9)
        assert sol.values == pytest.approx([-3.0, 0.0], abs=1e-9)

    def test_lower_wrong_length(self):
        with pytest.raises(DimensionError):
            LpProblem([1.0, 1.0], [[1.0, 1.0]], [1.0], lower=[0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_lower_must_be_finite_or_minus_inf(self, bad):
        with pytest.raises(ValueError):
            LpProblem([1.0, 1.0], [[1.0, 1.0]], [1.0], lower=[0.0, bad])

    def test_bounded_optimal_satisfies_own_postconditions(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            c, g, h, lower = random_bounded_lp(rng)
            sol = solve_lp(LpProblem(c, g, h, lower=lower))
            assert sol.status is LpStatus.OPTIMAL
            scale = max(1.0, np.abs(h).max())
            assert np.max(np.abs(g @ sol.values - h)) <= 1e-8 * scale
            bounded = np.isfinite(lower)
            assert np.all(sol.values[bounded] >= lower[bounded] - 1e-8)

    @pytest.mark.parametrize(
        "returned",
        [[-1.0, 1e-6, 2.0 - 1e-6], [-1.0 - 1e-6, -1e-6, 2.0 + 1e-6]],
        ids=["breaks-equality", "breaks-bound"],
    )
    def test_rejects_solver_output_off_the_feasible_set(self, monkeypatch, returned):
        # x0 free, x1 >= 0, x2 >= 1: x0 + x2 = 1 and x1 + x2 = 2
        problem = LpProblem([0.0, 1.0, 1.0], [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [1.0, 2.0],
                            lower=[-np.inf, 0.0, 1.0])
        fake = SimpleNamespace(status=0, x=np.array(returned), fun=2.0, message="",
                               eqlin=SimpleNamespace(marginals=np.array([0.0, 1.0])))
        monkeypatch.setattr(csagg.linalg, "linprog", lambda *a, **k: fake)
        with pytest.raises(NumericalError, match="violates feasibility"):
            solve_lp(problem)

    @pytest.mark.parametrize("off, accepted", [(5e-7, True), (5e-6, False)], ids=["within", "beyond"])
    def test_feasibility_scales_with_each_rows_terms(self, monkeypatch, off, accepted):
        # min 0 s.t. x0 - x1 = 0, x >= 0, at x near (100, 100): the row sums
        # terms of size 200, so it may miss h = 0 by 1e-8 * 200 = 2e-6
        problem = LpProblem([0.0, 0.0], [[1.0, -1.0]], [0.0])
        fake = SimpleNamespace(status=0, x=np.array([100.0, 100.0 - off]), fun=0.0, message="",
                               eqlin=SimpleNamespace(marginals=np.array([0.0])))
        monkeypatch.setattr(csagg.linalg, "linprog", lambda *a, **k: fake)
        if accepted:
            assert solve_lp(problem).status is LpStatus.OPTIMAL
        else:
            with pytest.raises(NumericalError, match=r"violates feasibility: residual 5\.000e-06 beyond tolerance on 1 of 1 rows"):
                solve_lp(problem)

    # x0 free, 0 <= x1 <= 3, 1 <= x2 <= 1.5: x0 + x2 = 1 and x1 + x2 = 2, so
    # every feasible point costs x1 + x2 = 2, and y = (0, 1) certifies it
    BOXED = LpProblem([0.0, 1.0, 1.0], [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [1.0, 2.0],
                      lower=[-np.inf, 0.0, 1.0], upper=[np.inf, 3.0, 1.5])

    def _fake_solve(self, monkeypatch, x, duals):
        fake = SimpleNamespace(status=0, x=np.array(x), fun=2.0, message="",
                               eqlin=SimpleNamespace(marginals=np.array(duals)))
        monkeypatch.setattr(csagg.linalg, "linprog", lambda *a, **k: fake)
        return solve_lp(self.BOXED)

    def test_accepts_certified_solver_output(self, monkeypatch):
        sol = self._fake_solve(monkeypatch, [-0.25, 0.75, 1.25], [0.0, 1.0])
        assert sol.status is LpStatus.OPTIMAL
        assert sol.eq_duals == pytest.approx([0.0, 1.0])

    def test_rejects_solver_output_above_upper(self, monkeypatch):
        with pytest.raises(NumericalError, match="violates feasibility"):
            self._fake_solve(monkeypatch, [-0.5 - 1e-6, 0.5 - 1e-6, 1.5 + 1e-6], [0.0, 1.0])

    @pytest.mark.parametrize(
        "duals, breach",
        # y = (-1e-3, 1) closes the gap but leaves x0 the reduced cost 1e-3;
        # y = (0, 0.5) is stationary but its dual objective is 1.5
        [([-1e-3, 1.0], "free reduced cost 1.000e-03"), ([0.0, 0.5], "duality gap 5.000e-01")],
        ids=["breaks-stationarity", "duality-gap"],
    )
    def test_rejects_duals_that_do_not_certify(self, monkeypatch, duals, breach):
        with pytest.raises(NumericalError, match=breach):
            self._fake_solve(monkeypatch, [-0.25, 0.75, 1.25], duals)

    def test_upper_bound_caps_the_optimum(self):
        # max x0 + x1 s.t. x0 - x1 = 0, x in [0, 2]^2: z = (2, 2), y certifies -4
        sol = solve_lp(LpProblem([-1.0, -1.0], [[1.0, -1.0]], [0.0], upper=[2.0, 2.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.values == pytest.approx([2.0, 2.0], abs=1e-9)
        assert sol.objective_value == pytest.approx(-4.0, abs=1e-9)

    def test_upper_wrong_length(self):
        with pytest.raises(DimensionError):
            LpProblem([1.0, 1.0], [[1.0, 1.0]], [1.0], upper=[1.0])

    @pytest.mark.parametrize(
        "lower, upper",
        [(None, [1.0, np.nan]), (None, [1.0, -np.inf]), ([-np.inf, 2.0], [1.0, 1.0]),
         (None, [1.0, -0.5])],
        ids=["nan", "minus-inf", "lower-above-upper", "default-lower-above-upper"],
    )
    def test_upper_must_be_a_valid_bound(self, lower, upper):
        with pytest.raises(ValueError):
            LpProblem([1.0, 1.0], [[1.0, 1.0]], [1.0], lower=lower, upper=upper)


class TestLeastSquares:
    def test_identity(self):
        assert least_squares(np.eye(3), np.array([1.0, 2.0, 3.0])) == pytest.approx(
            [1.0, 2.0, 3.0]
        )

    def test_mean_of_two_observations(self):
        x = least_squares(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
        assert x == pytest.approx([2.0])

    def test_consistent_overdetermined(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 4))
        x0 = rng.standard_normal(4)
        x = least_squares(a, a @ x0)
        assert np.abs(x - x0).max() <= 1e-8

    def test_square_nonsingular(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        y = rng.standard_normal(5)
        assert np.abs(least_squares(a, y) - np.linalg.solve(a, y)).max() <= 1e-8

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficientError):
            least_squares(np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([1.0, 2.0]))

    def test_underdetermined_raises(self):
        with pytest.raises(RankDeficientError):
            least_squares(np.ones((1, 2)), np.ones(1))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_lstsq_and_rank(self, data):
        # small signed integer entries hit exact rank deficiency; scaled
        # columns make the pivoting order differ from the column order
        n = data.draw(st.integers(1, 8), label="n")
        m = data.draw(st.integers(n, 12), label="m")
        entries = st.lists(st.integers(-2, 2), min_size=m * n, max_size=m * n)
        scale = np.array(data.draw(st.lists(st.sampled_from([1e-3, 1.0, 7.0]), min_size=n, max_size=n)))
        a = np.array(data.draw(entries, label="a"), dtype=float).reshape(m, n) * scale
        y = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=m, max_size=m), label="y"))
        if rank(a) < n:
            with pytest.raises(RankDeficientError):
                least_squares(a, y)
            return
        x = least_squares(a, y)
        ref = np.linalg.lstsq(a, y, rcond=None)[0]
        assert np.abs(x - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())


class TestRank:
    def test_identity(self):
        assert rank(np.eye(4)) == 4

    def test_proportional_rows(self):
        assert rank(np.array([[1.0, 1.0], [2.0, 2.0]])) == 1

    def test_dependent_third_row(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert rank(a) == 2

    def test_empty_and_zero(self):
        assert rank(np.zeros((0, 3))) == 0
        assert rank(np.zeros((2, 2))) == 0


class TestSharedQr:
    def test_one_factorisation_per_matrix(self, monkeypatch):
        # a determined step asks rank, least_squares and rank again about
        # one sink system; an LP step asks rank, row_echelon and rank
        calls = []

        def counting(a, **kwargs):
            calls.append(a.shape)
            return scipy.linalg.qr(a, **kwargs)

        monkeypatch.setattr(csagg.linalg, "_pivoted_qr", counting)
        a = np.random.default_rng(1).integers(-2, 3, (9, 5)).astype(float)
        rank(a), least_squares(a, np.ones(9)), rank(a.copy())
        assert calls == [(9, 5)]
        rank(a[:4]), row_echelon(a[:4], np.ones(4)), rank(a[:4])
        assert calls == [(9, 5), (4, 5)]

    def test_other_or_changed_matrix_factorised_afresh(self, monkeypatch):
        # another matrix, the same bytes in another shape, or the same array
        # changed in place: each gets exactly what a cold call computes
        def cold(call, *args):
            monkeypatch.setattr(csagg.linalg, "_last_qr", (None, None))
            return call(*args)

        def same_bits(got, want):
            got, want = np.atleast_1d(got), np.atleast_1d(want)
            return got.shape == want.shape and got.tobytes() == want.tobytes()

        rng = np.random.default_rng(2)
        a = rng.integers(-2, 3, (6, 4)).astype(float)
        y = rng.standard_normal(6)
        x = least_squares(a, y)
        assert rank(a) == 4
        b = a.copy()
        b[0, 0] += 1.0
        x_b = least_squares(b, y)
        assert same_bits(x_b, cold(least_squares, b, y)) and not same_bits(x_b, x)
        a[:, 3] = a[:, 0]
        assert rank(a) == 3 == cold(rank, a)
        for got, want in zip(row_echelon(a, y), cold(row_echelon, a, y)):
            assert same_bits(got, want)
        wide = a.reshape(4, 6)
        assert rank(wide) == cold(rank, wide)
        for got, want in zip(row_echelon(wide, y[:4]), cold(row_echelon, wide, y[:4])):
            assert same_bits(got, want)


class TestRowEchelon:
    def test_duplicate_row_dropped(self):
        a = np.array([[1.0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]])
        b, b_rhs = row_echelon(a, np.array([2.0, 2.0, 3.0]))
        assert b.shape == (2, 4)
        x = np.linalg.lstsq(b, b_rhs, rcond=None)[0]
        assert np.abs(a @ x - [2.0, 2.0, 3.0]).max() <= 1e-12

    def test_zero_and_empty_rows_give_no_rows(self):
        for a in (np.zeros((2, 3)), np.zeros((0, 3))):
            b, b_rhs = row_echelon(a, np.zeros(a.shape[0]))
            assert b.shape == (0, 3) and b_rhs.shape == (0,)

    def test_rhs_length_checked(self):
        with pytest.raises(DimensionError):
            row_echelon(np.eye(3), np.zeros(2))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_same_solutions_on_rank_rows(self, data):
        # the same integer and scaled-column systems as least squares, with
        # more or fewer rows than columns
        n = data.draw(st.integers(1, 8), label="n")
        m = data.draw(st.integers(1, 12), label="m")
        entries = st.lists(st.integers(-2, 2), min_size=m * n, max_size=m * n)
        scale = np.array(data.draw(st.lists(st.sampled_from([1e-3, 1.0, 7.0]), min_size=n, max_size=n)))
        a = np.array(data.draw(entries, label="a"), dtype=float).reshape(m, n) * scale
        x0 = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n), label="x0"))
        y = a @ x0
        b, b_rhs = row_echelon(a, y)
        r = rank(a)
        assert b.shape == (r, n)
        # r columns are exact unit vectors, one per row
        units = [j for j in range(n) if np.count_nonzero(b[:, j]) == 1 and b[:, j].max() == 1.0]
        assert len(units) >= r and rank(b[:, units]) == r
        # the rows span the rows of a: the true signal solves them, and so
        # does any other solution of b x = b_rhs solve a x = y
        assert rank(np.vstack([a, b])) == r
        assert np.abs(b @ x0 - b_rhs).max(initial=0.0) <= 1e-9 * max(1.0, np.abs(x0).max())
        if r:
            x = np.linalg.lstsq(b, b_rhs, rcond=None)[0]
            assert np.abs(a @ x - y).max() <= 1e-8 * max(1.0, np.abs(y).max(), np.abs(x).max())


class TestDct:
    def test_size_one(self):
        assert np.allclose(dct_matrix(1), [[1.0]])

    def test_constant_signal_is_pure_dc(self):
        phi = dct_matrix(4)
        coeffs = phi @ np.full(4, 1.5)
        assert coeffs[0] == pytest.approx(3.0)  # 2c for n=4 orthonormal scaling
        assert np.abs(coeffs[1:]).max() <= 1e-12

    def test_orthonormal_n8(self):
        phi = dct_matrix(8)
        assert np.abs(phi.T @ phi - np.eye(8)).max() <= 1e-10

    def test_zero_size_rejected(self):
        with pytest.raises(DimensionError):
            dct_matrix(0)

    @settings(max_examples=64, deadline=None)
    @given(st.integers(min_value=1, max_value=64))
    def test_orthonormal_for_all_sizes(self, n):
        phi = dct_matrix(n)
        assert np.abs(phi.T @ phi - np.eye(n)).max() <= 1e-10
