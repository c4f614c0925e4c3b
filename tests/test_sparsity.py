import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csagg import experiments
from csagg.config import load_config
from csagg.errors import DimensionError, NumericalError
from csagg.graph import NeighborGraph, RiderPositions, connected_components, knn_graph
from csagg.linalg import FEAS_TOL, LpProblem, LpStatus, LpSolution, dct_matrix, rank, solve_lp
from csagg.metrics import stress
from csagg.protocol import reconstruct
from csagg.sparsity import (
    CONSISTENCY_RTOL,
    Measurement,
    build_l1,
    build_pairwise_l1,
    decode_consistent,
    decode_solution,
    pairwise_difference_operator,
)
from helpers import (
    bernoulli_matrix,
    edge_lists,
    pairwise_difference_reference,
    split_residual_abs_lp,
    standard_form_abs_lp,
    unreduced_abs_bound_lp,
)


def recover(problem, n):
    sol = solve_lp(problem)
    assert sol.status is LpStatus.OPTIMAL
    return decode_solution(sol, n)


PATH_EDGES_4 = ((0, 1), (1, 2), (2, 3))
TWO_GROUP_EDGES = ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))


class TestBasisL1:
    def test_fully_determined_identity_measurement(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(6)
        meas = Measurement(np.eye(6), y)
        x = recover(build_l1(meas, dct_matrix(6)), 6)
        assert np.abs(x - y).max() <= 1e-8

    def test_sparse_dct_signal_recovered(self):
        rng = np.random.default_rng(1)
        phi = dct_matrix(32)
        coeffs = np.zeros(32)
        support = rng.choice(32, size=3, replace=False)
        coeffs[support] = rng.uniform(1.0, 3.0, size=3)
        x0 = phi.T @ coeffs
        a = bernoulli_matrix(rng, 16, 32)
        x = recover(build_l1(Measurement(a, a @ x0), phi), 32)
        assert np.abs(x - x0).max() <= 1e-5

    def test_lost_data_column_removal_beats_zero_filling(self):
        # 10-sparse DCT signal, 10 entries lost, 40 measurements
        rng = np.random.default_rng(5)
        n = 100
        phi = dct_matrix(n)
        coeffs = np.zeros(n)
        support = rng.choice(n, size=10, replace=False)
        coeffs[support] = rng.uniform(1.0, 3.0, 10) * rng.choice([-1.0, 1.0], 10)
        x0 = phi.T @ coeffs
        a = bernoulli_matrix(rng, 40, n)
        lost = rng.choice(n, size=10, replace=False)
        kept = np.setdiff1d(np.arange(n), lost)

        x_zeroed = x0.copy()
        x_zeroed[lost] = 0.0
        est_zero = recover(build_l1(Measurement(a, a @ x_zeroed), phi), n)
        # the surviving entries keep the original sparse coefficients, seen
        # through the row-restricted inverse transform
        a_kept = a[:, kept]
        synth = phi.T[kept]
        chat = recover(
            build_l1(Measurement(a_kept @ synth, a_kept @ x0[kept]), np.eye(n)),
            n,
        )
        assert stress(x0[kept], synth @ chat) < stress(x0, est_zero)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError, match=r"prior operator is \(5, 5\), expected \(p, 4\)"):
            build_l1(Measurement(np.eye(4), np.zeros(4)), dct_matrix(5))

    @pytest.mark.parametrize("t", [np.zeros((0, 4)), np.ones(4)], ids=["no-rows", "1-d"])
    def test_operator_without_rows_rejected(self, t):
        with pytest.raises(DimensionError, match=r"expected \(p, 4\) with p >= 1"):
            build_l1(Measurement(np.eye(4), np.zeros(4)), t)


class TestPairwiseL1:
    def test_single_sum_measurement(self):
        meas = Measurement(np.ones((1, 4)), np.array([8.0]))
        x = recover(build_pairwise_l1(meas, PATH_EDGES_4), 4)
        assert np.abs(x - 2.0).max() <= 1e-8

    def test_two_groups_indicator_rows(self):
        a = np.array([[1.0, 1, 1, 0, 0, 0], [0, 0, 0, 1.0, 1, 1]])
        x0 = np.array([10.0] * 3 + [12.0] * 3)
        x = recover(build_pairwise_l1(Measurement(a, a @ x0), TWO_GROUP_EDGES), 6)
        assert np.abs(x - x0).max() <= 1e-8

    def test_identity_measurement_ignores_edges(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(4)
        x = recover(build_pairwise_l1(Measurement(np.eye(4), y), PATH_EDGES_4), 4)
        assert np.abs(x - y).max() <= 1e-8

    def test_empty_edges_rejected(self):
        with pytest.raises(DimensionError):
            build_pairwise_l1(Measurement(np.eye(3), np.zeros(3)), ())

    @pytest.mark.parametrize(
        "edges, message",
        [(((0, 1), (2, 1)), r"edge \(2,1\) invalid for n=3"),
         (((1, 1),), r"edge \(1,1\) invalid for n=3"),
         (((0, 1), (1, 3)), r"edge \(1,3\) invalid for n=3"),
         (((-1, 2),), r"edge \(-1,2\) invalid for n=3"),
         (((0, 1), (1, 2), (0, 1)), r"duplicate edge \(0,1\)")],
    )
    def test_bad_edge_named(self, edges, message):
        with pytest.raises(DimensionError, match=message):
            build_pairwise_l1(Measurement(np.eye(3), np.zeros(3)), edges)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_difference_operator_matches_reference(self, data):
        # numpy integer edges as from an index array, bad and repeated ones
        # among them: the same operator, or the same edge named
        n = data.draw(st.integers(1, 12), label="n")
        edges = data.draw(edge_lists(n), label="edges")
        edges = tuple(tuple(np.int64(v) for v in e) for e in edges)
        try:
            want = pairwise_difference_reference(edges, n)
        except DimensionError as error:
            with pytest.raises(DimensionError) as got:
                pairwise_difference_operator(edges, n)
            assert str(got.value) == str(error)
        else:
            assert np.array_equal(pairwise_difference_operator(edges, n), want)

    def test_exact_recovery_edge_constant(self):
        # connected graph + component-rank measurements force the truth exactly
        rng = np.random.default_rng(11)
        pos = np.column_stack([rng.uniform(0, 200, 60), rng.uniform(-4, 4, 60)])
        graph = knn_graph(RiderPositions(0.0, pos), 10)
        comps = connected_components(graph)
        x0 = np.zeros(60)
        for ci, comp in enumerate(comps):
            x0[comp] = 10.0 + ci
        a = bernoulli_matrix(rng, len(comps) + 2, 60)
        x = recover(build_pairwise_l1(Measurement(a, a @ x0), graph.edges), 60)
        assert stress(x0, x) <= 1e-10

    def test_stress_monotone_in_measurement_count(self):
        # mean stress over 30 seeds does not increase from k to k+10
        rng_sig = np.random.default_rng(5)
        n = 40
        pos = np.column_stack([rng_sig.uniform(0, 120, n), rng_sig.uniform(-4, 4, n)])
        graph = knn_graph(RiderPositions(0.0, pos), 6)
        x0 = 10.0 + 0.05 * pos[:, 0] / 12 + 0.1 * rng_sig.standard_normal(n)
        means = {}
        for k in (10, 20):
            vals = []
            for seed in range(30):
                rng = np.random.default_rng(200 + seed)
                a = bernoulli_matrix(rng, k, n)
                x = recover(build_pairwise_l1(Measurement(a, a @ x0), graph.edges), n)
                vals.append(stress(x0, x))
            means[k] = np.mean(vals)
        assert means[10] >= means[20]


class TestDecode:
    def test_leading_block_is_signal(self):
        # n=2, one row, one edge: values are [lambda(1), mu(1)]; the signal
        # block is the equality duals, one per rider, and X is their negation,
        # signs included, whatever the values hold
        sol = LpSolution(LpStatus.OPTIMAL, np.array([3.0, 1.0]), -3.0,
                         eq_duals=np.array([-1.0, 2.0]))
        assert decode_solution(sol, 2) == pytest.approx([1.0, -2.0])

    def test_zero_solution(self):
        # n=3, one row and two edges: [lambda(1), mu(2)], three equality duals
        sol = LpSolution(LpStatus.OPTIMAL, np.zeros(1 + 2), 0.0, eq_duals=np.zeros(3))
        assert decode_solution(sol, 3) == pytest.approx([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("duals", [None, np.zeros(2)], ids=["missing", "short"])
    def test_duals_must_cover_the_signal(self, duals):
        sol = LpSolution(LpStatus.OPTIMAL, np.zeros(3), 0.0, eq_duals=duals)
        with pytest.raises(DimensionError):
            decode_solution(sol, 3)

    def test_round_trip_through_builder(self):
        meas = Measurement(np.ones((1, 4)), np.array([8.0]))
        sol = solve_lp(build_pairwise_l1(meas, PATH_EDGES_4))
        assert decode_solution(sol, 4) == pytest.approx([2.0, 2.0, 2.0, 2.0], abs=1e-8)

    def test_non_optimal_rejected(self):
        with pytest.raises(ValueError):
            decode_solution(LpSolution(LpStatus.INFEASIBLE, None, float("nan")), 2)

    # decode_consistent is the one judge of an LP outcome: a solver that
    # gives up is a numerical failure (exit 3), not a bad config
    @pytest.mark.parametrize("status", [LpStatus.INFEASIBLE, LpStatus.UNBOUNDED])
    def test_consistent_decode_names_non_optimal_status(self, status):
        meas = Measurement(np.ones((1, 2)), np.array([1.0]))
        with pytest.raises(NumericalError, match=status.value):
            decode_consistent(LpSolution(status, None, float("nan")), meas)


class TestFormulationEquivalence:
    def test_basis_form_equals_coefficient_form(self):
        # min ||phi X||_1 s.t. Y = A X  equals  phi^-1 argmin ||C||_1 s.t. Y = (A phi^-1) C
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 13))
            phi = rng.standard_normal((n, n)) + 2 * np.eye(n)
            a = rng.standard_normal((n, n)) + 2 * np.eye(n)
            x0 = rng.standard_normal(n)
            y = a @ x0
            x_direct = recover(build_l1(Measurement(a, y), phi), n)
            c_star = recover(
                build_l1(Measurement(a @ np.linalg.inv(phi), y), np.eye(n)), n
            )
            x_via_coeffs = np.linalg.solve(phi, c_star)
            assert np.abs(x_direct - x_via_coeffs).max() <= 1e-6

    def test_identity_map_for_all_formulations(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal(5)
        meas = Measurement(np.eye(5), y)
        edges = ((0, 1), (1, 2), (2, 3), (3, 4))
        for problem in (
            build_l1(meas, dct_matrix(5)),
            build_pairwise_l1(meas, edges),
        ):
            x = recover(problem, 5)
            assert np.abs(x - y).max() <= 1e-8


def _random_prior(rng: np.random.Generator, prior: str, n: int):
    """(operator T, builder) for one prior: a random (p, n) operator, p from 1
    to 2n, or the differences over a random connected edge set."""
    if prior == "operator":
        t = rng.standard_normal((int(rng.integers(1, 2 * n + 1)), n))
        return t, lambda meas: build_l1(meas, t)
    # a random spanning tree keeps the graph connected; extra edges on top
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for i, j in rng.integers(0, n, size=(int(rng.integers(0, n + 1)), 2)).tolist():
        if i != j:
            edges.add((min(i, j), max(i, j)))
    edges = tuple(sorted(edges))
    return pairwise_difference_operator(edges, n), lambda meas: build_pairwise_l1(meas, edges)


class TestSplitResidualEquivalence:
    """The [X, u, v] split-residual oracle against the standard form."""

    @settings(max_examples=80, deadline=None)
    @given(
        prior=st.sampled_from(["operator", "pairwise"]),
        n=st.integers(min_value=2, max_value=12),
        k_frac=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_same_optimum_as_standard_form(self, prior, n, k_frac, seed):
        rng = np.random.default_rng(seed)
        k = 1 + int(k_frac * (n - 2))  # 1 <= k < n
        t, _ = _random_prior(rng, prior, n)
        a = rng.standard_normal((k, n))
        y = a @ (10.0 + rng.standard_normal(n))
        sol = solve_lp(LpProblem(*split_residual_abs_lp(a, y, t)))
        assert sol.status is LpStatus.OPTIMAL

        oracle = solve_lp(LpProblem(*standard_form_abs_lp(a, y, t)))
        assert oracle.status is LpStatus.OPTIMAL
        scale = max(1.0, abs(oracle.objective_value))
        assert abs(sol.objective_value - oracle.objective_value) <= 1e-7 * scale

        x = sol.values[:n]  # [X(n), u(p), v(p)]: X is the leading block
        assert np.abs(a @ x - y).max() <= FEAS_TOL * max(1.0, np.abs(y).max())
        assert abs(sol.objective_value - np.abs(t @ x).sum()) <= 1e-7 * scale


class TestDualEquivalence:
    """The [lambda, mu] dual builder against the primal formulations."""

    @settings(max_examples=80, deadline=None)
    @given(
        prior=st.sampled_from(["operator", "pairwise"]),
        n=st.integers(min_value=2, max_value=12),
        k_frac=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # a 5x12 standard-form oracle LP that HiGHS interior point solves in
    # milliseconds with presolve and never finishes without it
    @example(prior="pairwise", n=3, k_frac=0.0, seed=7)
    def test_dual_optimum_matches_standard_form(self, prior, n, k_frac, seed):
        rng = np.random.default_rng(seed)
        k = 1 + int(k_frac * (n - 2))  # 1 <= k < n
        t, build = _random_prior(rng, prior, n)
        a = rng.standard_normal((k, n))
        y = a @ (10.0 + rng.standard_normal(n))
        sol = solve_lp(build(Measurement(a, y)))
        assert sol.status is LpStatus.OPTIMAL

        oracle = solve_lp(LpProblem(*standard_form_abs_lp(a, y, t)))
        assert oracle.status is LpStatus.OPTIMAL
        scale = max(1.0, abs(oracle.objective_value))
        # the dual minimizes -Y.lambda, which is -||T X||_1 at the optimum
        assert abs(-sol.objective_value - oracle.objective_value) <= 1e-7 * scale

        x = decode_solution(sol, n)
        assert np.abs(a @ x - y).max() <= FEAS_TOL * max(1.0, np.abs(y).max())
        assert abs(-sol.objective_value - np.abs(t @ x).sum()) <= 1e-7 * scale

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=14),
        extra_rows=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_routing_like_systems_match_split_residual(self, n, extra_rows, seed):
        # sink systems as the protocol builds them: more rows than riders,
        # exact duplicates, rank below n, small signed integer coefficients
        rng = np.random.default_rng(seed)
        base = rng.integers(-3, 4, size=(int(rng.integers(1, n)), n))
        mix = rng.integers(-1, 2, size=(n + extra_rows, base.shape[0]))
        a = (mix @ base).astype(float)
        a = np.vstack([a, a[rng.integers(0, a.shape[0], size=int(rng.integers(1, 4)))]])
        y = a @ (10.0 + rng.standard_normal(n))
        t, build = _random_prior(rng, "pairwise", n)
        sol = solve_lp(build(Measurement(a, y)))
        assert sol.status is LpStatus.OPTIMAL

        oracle = solve_lp(LpProblem(*split_residual_abs_lp(a, y, t)))
        assert oracle.status is LpStatus.OPTIMAL
        scale = max(1.0, abs(oracle.objective_value))
        assert abs(-sol.objective_value - oracle.objective_value) <= 1e-7 * scale

        x = decode_solution(sol, n)
        assert np.abs(a @ x - y).max() <= FEAS_TOL * max(1.0, np.abs(y).max())


class TestRowEchelonLp:
    """The builders' LP over the row-echelon form against the unreduced dual
    over every received row."""

    @settings(max_examples=80, deadline=None)
    @given(
        prior=st.sampled_from(["operator", "pairwise"]),
        shape=st.sampled_from(["full_row_rank", "routing_like", "duplicate_rows"]),
        n=st.integers(min_value=3, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_same_optimum_as_unreduced_dual(self, prior, shape, n, seed):
        rng = np.random.default_rng(seed)
        if shape == "full_row_rank":
            a = rng.standard_normal((int(rng.integers(1, n + 1)), n))
        elif shape == "routing_like":
            # more rows than riders, rank below n, small signed integers
            base = rng.integers(-3, 4, size=(int(rng.integers(1, n)), n))
            a = (rng.integers(-1, 2, size=(n + int(rng.integers(1, 10)), base.shape[0])) @ base).astype(float)
        else:
            a = rng.standard_normal((int(rng.integers(1, n)), n))
            a = np.vstack([a, a[rng.integers(0, a.shape[0], size=int(rng.integers(1, 4)))]])
        meas = Measurement(a, a @ (10.0 + rng.standard_normal(n)))
        t, build = _random_prior(rng, prior, n)
        problem = build(meas)
        assert problem.eq_matrix.shape == (n, rank(a) + t.shape[0])
        sol = solve_lp(problem)
        assert sol.status is LpStatus.OPTIMAL

        oracle = solve_lp(unreduced_abs_bound_lp(meas, t))
        assert oracle.status is LpStatus.OPTIMAL
        scale = max(1.0, abs(oracle.objective_value))
        assert abs(sol.objective_value - oracle.objective_value) <= 1e-7 * scale

        x = decode_consistent(sol, meas)
        assert np.abs(a @ x - meas.values).max() <= CONSISTENCY_RTOL * max(1.0, np.abs(meas.values).max())
        assert abs(-sol.objective_value - np.abs(t @ x).sum()) <= 1e-7 * scale

    # one exact duplicate row whose value disagrees in the fourth digit
    INCONSISTENT = (np.array([[1.0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]]), np.array([2.0, 2.001, 3.0]))

    def test_inconsistent_rows_have_an_unbounded_unreduced_dual(self):
        meas = Measurement(*self.INCONSISTENT)
        t = pairwise_difference_operator(PATH_EDGES_4, 4)
        assert solve_lp(unreduced_abs_bound_lp(meas, t)).status is LpStatus.UNBOUNDED
        # the reduced LP keeps one of the two rows and is solvable
        assert solve_lp(build_pairwise_l1(meas, PATH_EDGES_4)).status is LpStatus.OPTIMAL

    @pytest.mark.parametrize("recover_from", ["reconstruct", "basis"])
    def test_inconsistent_rows_raise(self, recover_from):
        a, y = self.INCONSISTENT
        with pytest.raises(NumericalError, match="inconsistent.*misses them by 5.000e-04"):
            if recover_from == "reconstruct":
                reconstruct(Measurement(a, y), NeighborGraph(n=4, edges=PATH_EDGES_4))
            else:
                experiments._basis_recover(a, y, dct_matrix(4))

    @pytest.mark.parametrize(
        "overrides",
        [["scenario=matrix", "k_measurements=60"], ["scenario=routing", "loss_p=0.5"]],
        ids=["matrix-k60", "routing-p50"],
    )
    def test_seed_1_estimates_match_unreduced_dual(self, tmp_path, monkeypatch, overrides):
        # the benchmark's LP workloads: every step's LP estimate within 1e-9
        # of the unreduced dual's
        cfg = load_config(None, [*overrides, "seed=1", "steps=12", f"out={tmp_path}"])
        real, solved = experiments.reconstruct, []

        def recording(system, graph):
            estimate, tag = real(system, graph)
            if tag == "cs-lp":
                solved.append((system, graph, estimate))
            return estimate, tag

        monkeypatch.setattr(experiments, "reconstruct", recording)
        (experiments.run_matrix if overrides[0] == "scenario=matrix" else experiments.run_routing)(cfg)
        assert len(solved) >= 10
        for system, graph, estimate in solved:
            t = pairwise_difference_operator(graph.edges, system.n)
            oracle = decode_solution(solve_lp(unreduced_abs_bound_lp(system, t)), system.n)
            assert np.abs(estimate - oracle).max() <= 1e-9
