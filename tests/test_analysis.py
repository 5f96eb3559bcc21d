import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packhedge import analysis, core, environments
from packhedge.core import GameTrajectory, game_rng
from packhedge.environments import MatrixOracle


def brute_distance(matrix, i, j):
    return max(abs(matrix[t, i] - matrix[t, j]) for t in range(matrix.shape[0]))


def brute_cover_number(matrix, eps):
    """Exhaustive subset search straight from the cover definition."""
    experts = matrix.shape[1]
    for size in range(1, experts + 1):
        for subset in combinations(range(experts), size):
            if all(
                any(brute_distance(matrix, i, j) <= eps for j in subset)
                for i in range(experts)
            ):
                return size
    raise AssertionError("the full set always covers")


def brute_packing_number(matrix, eps):
    """Exhaustive subset search straight from the packing definition."""
    experts = matrix.shape[1]
    best = 0
    for size in range(1, experts + 1):
        found = False
        for subset in combinations(range(experts), size):
            if all(brute_distance(matrix, a, b) > eps for a, b in combinations(subset, 2)):
                found = True
                break
        if not found:
            break
        best = size
    return best


small_matrices = st.integers(min_value=0, max_value=2**31).map(
    lambda seed: game_rng(seed).uniform(
        -1.0, 1.0, size=(int(game_rng(seed, 1).integers(1, 5)), int(game_rng(seed, 2).integers(2, 7)))
    )
)


class TestExpertDistance:
    def test_identical_columns(self):
        matrix = np.array([[0.4, 0.4], [-0.2, -0.2]])
        assert analysis.distance_matrix(matrix)[0, 1] == 0.0

    def test_extreme_range(self):
        matrix = np.array([[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])
        assert analysis.distance_matrix(matrix)[0, 1] == 2.0

    def test_hand_arithmetic(self):
        matrix = np.array([[0.1, 0.2], [-0.3, 0.1], [0.5, 0.5]])
        assert analysis.distance_matrix(matrix)[0, 1] == pytest.approx(0.4)

    @settings(max_examples=40)
    @given(small_matrices)
    def test_pseudometric(self, matrix):
        dist = analysis.distance_matrix(matrix)
        experts = matrix.shape[1]
        for i in range(experts):
            assert dist[i, i] == 0.0
            for j in range(experts):
                assert dist[i, j] == dist[j, i]
                for k in range(experts):
                    assert dist[i, j] <= dist[i, k] + dist[k, j] + 1e-12

    @settings(max_examples=20)
    @given(small_matrices)
    def test_distance_matrix_matches_pairwise(self, matrix):
        dist = analysis.distance_matrix(matrix)
        for i in range(matrix.shape[1]):
            for j in range(matrix.shape[1]):
                assert dist[i, j] == pytest.approx(brute_distance(matrix, i, j))

    @settings(max_examples=20)
    @given(small_matrices, st.integers(min_value=1, max_value=200))
    def test_blocked_distance_matrix_is_exact(self, matrix, max_entries):
        # Tiny budgets force one- or few-round blocks; the result must not move.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "BLOCK_ENTRIES", max_entries)
            dist = analysis.distance_matrix(matrix)
        for i in range(matrix.shape[1]):
            for j in range(matrix.shape[1]):
                assert dist[i, j] == brute_distance(matrix, i, j)

    def test_distance_pass_memory_is_bounded(self):
        # The result plus a few block-sized temporaries, whatever T is.
        matrix = game_rng(3).uniform(-1.0, 1.0, (2000, 100))
        analysis.distance_matrix(matrix)  # first calls import and cache what later ones reuse
        tracemalloc.start()
        try:
            analysis.distance_matrix(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 100 * 8 + 4 * core.BLOCK_ENTRIES * 8


class TestCoveringNumberExact:
    def test_identical_columns_cover_with_one(self):
        matrix = np.zeros((3, 5))
        for eps in (0.0, 0.1, 1.0):
            assert analysis.covering_number_exact(matrix, eps) == 1

    def test_middle_expert_covers_chain(self):
        matrix = np.array([[0.0, 0.3, 0.6]])
        assert analysis.covering_number_exact(matrix, 0.3) == 1

    def test_zero_epsilon_counts_distinct_columns(self):
        env = environments.make_clustered_binary(12, 10, 4, seed=5)
        assert analysis.covering_number_exact(env.to_matrix(), 0.0) == 4

    def test_negative_epsilon_same_as_zero(self):
        matrix = np.array([[0.0, 0.0, 0.5]])
        assert analysis.covering_number_exact(matrix, -1.0) == 2

    def test_budget_exceeded_returns_none(self):
        matrix = np.zeros((2, 30))
        assert analysis.covering_number_exact(matrix, 0.5, budget=24) is None

    @settings(max_examples=50)
    @given(small_matrices, st.floats(min_value=0.0, max_value=2.0))
    def test_matches_brute_force(self, matrix, eps):
        assert analysis.covering_number_exact(matrix, eps) == brute_cover_number(matrix, eps)

    @settings(max_examples=25)
    @given(small_matrices)
    def test_monotone_non_increasing_in_epsilon(self, matrix):
        values = [
            analysis.covering_number_exact(matrix, eps)
            for eps in (0.0, 0.2, 0.5, 1.0, 2.0)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestPackingGreedy:
    def test_single_expert(self):
        assert analysis.packing_greedy(np.zeros((2, 1)), 0.5) == (1, [0])

    def test_strict_inequality_at_threshold(self):
        matrix = np.array([[0.0, 0.3, 0.6]])
        size, witnesses = analysis.packing_greedy(matrix, 0.3)
        assert size == 2
        assert witnesses == [0, 2]

    def test_fully_separated_admits_everyone(self):
        matrix = np.array([[-0.9, -0.3, 0.3, 0.9]])
        size, _ = analysis.packing_greedy(matrix, 0.25)
        assert size == 4

    @settings(max_examples=40)
    @given(small_matrices, st.floats(min_value=0.05, max_value=1.5))
    def test_maximal_packing_is_packing_and_cover(self, matrix, eps):
        _, witnesses = analysis.packing_greedy(matrix, eps)
        # valid packing: every admitted pair separated
        for a, b in combinations(witnesses, 2):
            assert brute_distance(matrix, a, b) > eps
        # valid cover at the same accuracy: maximality leaves nobody uncovered
        for i in range(matrix.shape[1]):
            assert any(brute_distance(matrix, i, j) <= eps for j in witnesses)


class TestPackingNumberExact:
    @settings(max_examples=40)
    @given(small_matrices, st.floats(min_value=0.0, max_value=2.0))
    def test_matches_brute_force(self, matrix, eps):
        assert analysis.packing_number_exact(matrix, eps) == brute_packing_number(matrix, eps)

    def test_budget_exceeded_returns_none(self):
        assert analysis.packing_number_exact(np.zeros((2, 30)), 0.5, budget=24) is None


class TestDualityCertificate:
    def test_identical_columns_all_one(self):
        report = analysis.duality_certificate(np.zeros((3, 4)), 0.3)
        assert report.exact_packing_at_2eps == 1
        assert report.exact_cover == 1
        assert report.exact_packing_at_eps == 1

    def test_epsilon_beyond_range_all_one(self):
        matrix = game_rng(0).uniform(-1, 1, size=(3, 5))
        report = analysis.duality_certificate(matrix, 2.0)
        assert (report.exact_packing_at_2eps, report.exact_cover, report.exact_packing_at_eps) == (1, 1, 1)

    def test_beyond_budget_partial_report(self):
        matrix = game_rng(1).uniform(-1, 1, size=(2, 30))
        report = analysis.duality_certificate(matrix, 0.4, budget=24)
        assert report.exact_cover is None
        assert report.greedy_packing_at_eps >= report.greedy_packing_at_2eps >= 1

    @settings(max_examples=40)
    @given(small_matrices, st.floats(min_value=0.05, max_value=1.9))
    def test_sandwich_on_random_instances(self, matrix, eps):
        report = analysis.duality_certificate(matrix, eps)
        assert report.exact_packing_at_2eps <= report.exact_cover <= report.exact_packing_at_eps
        # greedy maximal packings bound the exact quantities from both sides
        assert report.greedy_packing_at_2eps <= report.exact_cover <= report.greedy_packing_at_eps

    @pytest.mark.parametrize(
        ("search", "eps", "message"),
        [
            pytest.param(analysis.duality_certificate, -0.5, ">= 0", id="-0.5"),
            pytest.param(analysis.duality_certificate, float("nan"), ">= 0", id="nan"),
            # NaN never matches a distance: the cover search used to loop forever.
            pytest.param(analysis.covering_number_exact, float("nan"), "a number", id="cover-nan"),
            pytest.param(analysis.packing_number_exact, float("nan"), "a number", id="packing-nan"),
        ],
    )
    def test_negative_epsilon_rejected_before_search(self, monkeypatch, search, eps, message):
        # At -0.5 the cover clamps to 0 but packing(2e) would not: a false violation.
        monkeypatch.setattr(analysis, "_min_set_cover", None)
        monkeypatch.setattr(analysis, "_max_clique", None)
        for budget in (24, 0):
            with pytest.raises(ValueError, match=f"epsilon must be {message}"):
                search([[0.1, 0.1, 0.5]], eps, budget=budget)

    def test_nan_epsilon_rejected_by_greedy_packing(self):
        # NaN fails every comparison, so the scan used to admit expert 0 alone.
        with pytest.raises(ValueError, match="epsilon must be a number"):
            analysis.packing_greedy([[0.1, 0.1, 0.5]], float("nan"))

    def test_witnesses_are_valid(self):
        matrix = game_rng(2).uniform(-1, 1, size=(4, 6))
        report = analysis.duality_certificate(matrix, 0.5)
        cover = report.witnesses["exact_cover"]
        for i in range(matrix.shape[1]):
            assert any(brute_distance(matrix, i, j) <= 0.5 for j in cover)
        packing = report.witnesses["exact_packing_at_2eps"]
        for a, b in combinations(packing, 2):
            assert brute_distance(matrix, a, b) > 1.0


def _constant_choice_trajectory(matrix, expert):
    T, K = matrix.shape
    return GameTrajectory.from_rounds(
        np.full(T, expert), matrix[:, expert], np.full(T, K), np.ones(T), seed=0
    )


class TestEmpiricalRegret:
    def test_playing_best_column_gives_zero(self):
        matrix = np.array([[0.5, -0.5], [0.5, -0.5]])
        trajectory = _constant_choice_trajectory(matrix, 1)
        ledger = analysis.empirical_regret(trajectory, MatrixOracle(matrix))
        assert ledger.regret == pytest.approx(0.0)
        assert ledger.best_expert == 1

    def test_hand_subtraction(self):
        # column 0 sums to 5, column 1 sums to -3
        matrix = np.array([[1.0, -0.6]] * 5)
        trajectory = _constant_choice_trajectory(matrix, 0)
        ledger = analysis.empirical_regret(trajectory, MatrixOracle(matrix))
        assert ledger.learner_cumulative == pytest.approx(5.0)
        assert ledger.best_cumulative == pytest.approx(-3.0)
        assert ledger.regret == pytest.approx(8.0)

    def test_two_path_agreement(self):
        matrix = game_rng(4).uniform(-1, 1, size=(30, 5))
        trajectory = _constant_choice_trajectory(matrix, 2)
        ledger = analysis.empirical_regret(trajectory, MatrixOracle(matrix))
        best = min(sum(matrix[t, i] for t in range(30)) for i in range(5))
        assert ledger.regret == pytest.approx(trajectory.learner_cumulative - best, abs=1e-9)

    def test_oracle_and_matrix_paths_agree(self):
        # The clustered oracle sums its distinct rows; the dense matrix must agree.
        env = environments.make_clustered_binary(20, 15, 3, seed=6)
        matrix = env.to_matrix()
        best = matrix.sum(axis=0).min()
        ledger = analysis.empirical_regret(_constant_choice_trajectory(matrix, 0), env)
        assert ledger.best_cumulative == pytest.approx(best, abs=1e-9)
        assert ledger.regret == pytest.approx(matrix[:, 0].sum() - best, abs=1e-9)

    def test_length_mismatch_rejected(self):
        matrix = np.zeros((4, 2))
        trajectory = _constant_choice_trajectory(matrix[:3], 0)
        with pytest.raises(ValueError, match="rounds"):
            analysis.empirical_regret(trajectory, MatrixOracle(matrix))


class TestVariationProfile:
    def test_constant_column_is_zero(self):
        assert analysis.variation_profile(np.ones((5, 2))).tolist() == [0.0, 0.0]

    def test_alternating_column(self):
        matrix = np.array([[-1.0], [1.0], [-1.0]])
        assert analysis.variation_profile(matrix)[0] == pytest.approx(4.0)

    def test_single_round_all_zero(self):
        assert analysis.variation_profile(np.array([[0.3, -0.2]])).tolist() == [0.0, 0.0]

    def test_halving_adversary_capped_at_two(self):
        env = environments.make_bounded_variation_adversary(10, 256, seed=3)
        assert float(analysis.variation_profile(env.to_matrix()).max()) <= 2.0


class TestLogsumBound:
    def test_singleton(self):
        assert analysis.logsum_bound_check([1]) is True

    def test_powers_of_two(self):
        assert analysis.logsum_bound_check([1, 2, 4, 8]) is True

    @pytest.mark.parametrize("bad", [[], [2, 3], [1, 3, 3], [1, 0], [1, 2.5]])
    def test_preconditions(self, bad):
        with pytest.raises(ValueError):
            analysis.logsum_bound_check(bad)

    @settings(max_examples=100)
    @given(st.sets(st.integers(min_value=2, max_value=10_000), min_size=0, max_size=40))
    def test_random_sequences_always_hold(self, tail):
        assert analysis.logsum_bound_check([1] + sorted(tail)) is True
