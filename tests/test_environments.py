import logging
from math import comb

import numpy as np
import pytest

from packhedge import analysis, core, environments, many_experts
from packhedge.core import game_rng
from packhedge.environments import (
    EnvironmentSpec,
    environment_from_sidecar,
    export_environment,
    make_bounded_variation_adversary,
    make_clustered_binary,
    make_environment,
    make_iid_stochastic,
    make_low_rank,
    make_sparse_dictionary,
)
from reference import first_uncovered


class TestEnvironmentSpec:
    def test_missing_parameter_named_in_error(self):
        with pytest.raises(ValueError, match="environment.N"):
            EnvironmentSpec("clustered_binary", {"T": 10, "K": 5, "seed": 0})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            EnvironmentSpec("casino", {})

    def test_dispatch_round_trip(self):
        spec = EnvironmentSpec("clustered_binary", {"T": 20, "K": 10, "N": 3, "seed": 4})
        env = make_environment(spec)
        assert env.num_experts() == 10
        assert env.horizon() == 20


class TestLossRangeContract:
    @pytest.mark.parametrize(
        "make",
        [
            lambda s: make_clustered_binary(30, 40, 5, s),
            lambda s: make_low_rank(20, 15, 2, 0.25, s),
            lambda s: make_sparse_dictionary(20, 15, 6, 3, 0.25, s),
            lambda s: make_bounded_variation_adversary(8, 64, s),
            lambda s: make_iid_stochastic(20, 5, [0.4, -0.4, 0.0, 0.9, -0.9], "uniform", 0.1, s),
        ],
    )
    def test_every_loss_in_unit_interval(self, make):
        for seed in range(5):
            matrix = make(seed).to_matrix()
            assert np.abs(matrix).max() <= 1.0


class TestDeterminism:
    @pytest.mark.parametrize(
        "make",
        [
            lambda s: make_clustered_binary(30, 40, 5, s),
            lambda s: make_low_rank(20, 15, 2, 0.1, s),
            lambda s: make_sparse_dictionary(20, 15, 6, 2, 0.1, s),
            lambda s: make_bounded_variation_adversary(8, 64, s),
            lambda s: make_iid_stochastic(20, 5, 0.0, "uniform", 0.5, s),
        ],
    )
    def test_same_seed_same_matrix(self, make):
        assert np.array_equal(make(13).to_matrix(), make(13).to_matrix())

    def test_different_seeds_differ(self):
        a = make_low_rank(20, 15, 2, 0.1, 1).to_matrix()
        b = make_low_rank(20, 15, 2, 0.1, 2).to_matrix()
        assert not np.array_equal(a, b)


class TestClusteredBinary:
    def test_values_are_binary(self):
        matrix = make_clustered_binary(25, 30, 6, seed=0).to_matrix()
        assert set(np.unique(matrix)) <= {-1.0, 1.0}

    def test_distinct_column_count_equals_n(self):
        matrix = make_clustered_binary(25, 200, 7, seed=1).to_matrix()
        assert np.unique(matrix.T, axis=0).shape[0] == 7

    def test_exact_zero_cover_equals_n(self):
        env = make_clustered_binary(15, 12, 5, seed=2)
        assert analysis.covering_number_exact(env.to_matrix(), 0.0) == 5

    def test_every_cluster_non_empty(self):
        env = make_clustered_binary(10, 50, 8, seed=3)
        assert set(np.unique(env.ground_truth["assignment"])) == set(range(8))

    def test_cross_cluster_distance_is_two(self):
        env = make_clustered_binary(20, 30, 4, seed=4)
        matrix = env.to_matrix()
        assignment = env.ground_truth["assignment"]
        i = int(np.flatnonzero(assignment == 0)[0])
        j = int(np.flatnonzero(assignment == 1)[0])
        assert analysis.expert_distance(matrix, i, j) == 2.0

    def test_single_cluster_never_grows(self):
        env = make_clustered_binary(60, 100, 1, seed=5)
        trajectory = many_experts.play_many_experts(env, 0.5, rng=5)
        assert trajectory.extras["final_packing"] == 1

    def test_too_many_rows_rejected(self):
        with pytest.raises(ValueError, match="distinct binary rows"):
            make_clustered_binary(3, 100, 9, seed=0)
        with pytest.raises(ValueError, match="N"):
            make_clustered_binary(10, 4, 5, seed=0)

    def test_uncovered_expert_matches_dense_scan(self):
        env = make_clustered_binary(30, 60, 6, seed=6)
        dense = environments.MatrixOracle(env.to_matrix())
        rng = game_rng(99)
        for _ in range(50):
            t = int(rng.integers(1, 31))
            active = list(rng.choice(60, size=int(rng.integers(1, 5)), replace=False))
            threshold = float(rng.uniform(0.0, 2.2))
            assert first_uncovered(env, t, active, threshold) == first_uncovered(
                dense, t, active, threshold
            )

    def test_column_sums_match_dense(self):
        env = make_clustered_binary(30, 60, 6, seed=7)
        assert np.allclose(env.column_sums(), env.to_matrix().sum(axis=0))
        assert env.column_sums() is env.column_sums()  # gathered once per oracle

    def test_desk_scale_generation(self):
        env = make_clustered_binary(5000, 100_000, 8, seed=8)
        assert env.num_experts() == 100_000
        rows = env.ground_truth["rows"]
        assert np.unique(rows, axis=0).shape[0] == 8
        assert set(np.unique(env.ground_truth["assignment"])) == set(range(8))


class TestLowRank:
    def test_structure_residual_within_noise(self):
        env = make_low_rank(30, 25, 3, 0.2, seed=0)
        structure = env.ground_truth["U"] @ env.ground_truth["W"]
        assert np.abs(env.to_matrix() - structure).max() <= 0.2 + 1e-12

    def test_matrix_in_range(self):
        matrix = make_low_rank(30, 25, 3, 0.25, seed=1).to_matrix()
        assert np.abs(matrix).max() <= 1.0

    def test_structure_rank_at_most_d(self):
        env = make_low_rank(30, 25, 2, 0.0, seed=2)
        structure = env.ground_truth["U"] @ env.ground_truth["W"]
        assert np.linalg.matrix_rank(structure, tol=1e-9) <= 2

    def test_rank_one_noiseless_cover_shrinks_with_epsilon(self):
        env = make_low_rank(6, 12, 1, 0.0, seed=3)
        matrix = env.to_matrix()
        covers = [analysis.covering_number_exact(matrix, eps) for eps in (0.1, 0.3, 0.6)]
        assert all(a >= b for a, b in zip(covers, covers[1:]))
        assert covers[-1] < 12

    def test_full_rank_degenerate_still_in_range(self):
        matrix = make_low_rank(8, 8, 8, 0.0, seed=4).to_matrix()
        assert np.abs(matrix).max() <= 1.0

    def test_desk_scale_cover_small_and_bound_holds(self):
        # short horizon, huge expert set: the realized cover is tiny relative
        # to K and the per-run packing bound holds at accuracy 4*eps
        eps = 0.1
        env = make_low_rank(12, 4096, 2, eps, seed=5)
        matrix = env.to_matrix()
        cover_upper, _ = analysis.packing_greedy(matrix, 4 * eps)  # maximal => also a cover
        assert cover_upper < 4096 / 10
        trajectory = many_experts.play_many_experts(env, 4 * eps, rng=5)
        assert trajectory.extras["final_packing"] <= cover_upper
        regret = analysis.empirical_regret(trajectory, env).regret
        bound = many_experts.packing_regret_bound(
            trajectory.extras["final_packing"], trajectory.extras["num_phases"], 4 * eps, 12
        )
        assert regret <= bound

    @pytest.mark.parametrize("kwargs", [
        {"T": 5, "K": 5, "d": 6, "epsilon_noise": 0.1},
        {"T": 5, "K": 5, "d": 0, "epsilon_noise": 0.1},
        {"T": 5, "K": 5, "d": 2, "epsilon_noise": 0.3},
    ])
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ValueError):
            make_low_rank(seed=0, **kwargs)


class TestSparseDictionary:
    def test_dictionary_rows_unit_one_norm(self):
        env = make_sparse_dictionary(20, 30, 8, 3, 0.1, seed=0)
        assert np.abs(env.ground_truth["D"]).sum(axis=1).max() <= 1.0 + 1e-12

    def test_codes_are_k_sparse_and_bounded(self):
        env = make_sparse_dictionary(20, 30, 8, 3, 0.1, seed=1)
        V = env.ground_truth["V"]
        assert np.abs(V).max() <= 1.0
        assert int((V != 0).sum(axis=0).max()) <= 3

    def test_structure_residual_within_noise(self):
        env = make_sparse_dictionary(20, 30, 8, 3, 0.15, seed=2)
        structure = env.ground_truth["D"] @ env.ground_truth["V"]
        assert np.abs(env.to_matrix() - structure).max() <= 0.15 + 1e-12

    def test_column_gap_bounded_by_code_gap(self):
        eps = 0.1
        env = make_sparse_dictionary(8, 30, 6, 2, eps, seed=3)
        matrix = env.to_matrix()
        V = env.ground_truth["V"]
        for i in range(30):
            for j in range(i + 1, 30):
                column_gap = float(np.abs(matrix[:, i] - matrix[:, j]).max())
                code_gap = float(np.abs(V[:, i] - V[:, j]).max())
                assert column_gap <= code_gap + 2 * eps + 1e-12

    def test_zero_sparsity_collapses_to_noise(self):
        eps = 0.1
        env = make_sparse_dictionary(10, 20, 6, 0, eps, seed=4)
        matrix = env.to_matrix()
        assert np.abs(matrix).max() <= eps + 1e-12
        assert analysis.covering_number_exact(matrix, 2 * eps, budget=20) == 1

    def test_exact_cover_below_counting_bound(self):
        # desk-scale check of the support-union counting argument
        eps = 0.25
        env = make_sparse_dictionary(8, 200, 6, 2, eps, seed=0)
        exact = analysis.covering_number_exact(env.to_matrix(), 4 * eps, budget=200)
        assert exact is not None
        assert 1 <= exact <= min(200, comb(6, 2) * (2 / eps) ** 2)

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError, match="k"):
            make_sparse_dictionary(5, 5, 3, 4, 0.1, seed=0)


class TestBoundedVariationAdversary:
    def test_variation_capped_at_two(self):
        env = make_bounded_variation_adversary(12, 4096, seed=0)
        assert analysis.variation_profile(env.to_matrix()).per_expert.max() <= 2.0

    def test_flips_are_permanent(self):
        matrix = make_bounded_variation_adversary(10, 128, seed=1).to_matrix()
        assert np.all(np.diff(matrix, axis=0) >= 0.0)

    def test_survivor_counts_halve_exactly_at_power_of_two(self):
        T = 10
        env = make_bounded_variation_adversary(T, 2**T, seed=2)
        flip_round = env.ground_truth["flip_round"]
        for t in range(T + 1):
            assert int((flip_round > t).sum()) == 2 ** (T - t)

    def test_one_expert_survives_with_minimal_loss(self):
        T = 8
        env = make_bounded_variation_adversary(T, 2**T, seed=3)
        assert float(env.column_sums().min()) == -float(T)

    def test_first_round_mean_loss_zero_for_even_k(self):
        env = make_bounded_variation_adversary(6, 64, seed=4)
        assert float(env.rows(0, 1)[0].mean()) == 0.0

    def test_too_few_experts_rejected(self):
        with pytest.raises(ValueError, match="K"):
            make_bounded_variation_adversary(5, 1, seed=0)

    def test_small_k_warns(self, caplog):
        with caplog.at_level(logging.WARNING):
            make_bounded_variation_adversary(10, 16, seed=5)
        assert any("2**T" in record.message for record in caplog.records)


class TestIidStochastic:
    def test_zero_noise_constant_columns(self):
        means = [-0.5, 0.2, 0.9]
        env = make_iid_stochastic(10, 3, means, seed=0)
        matrix = env.to_matrix()
        assert np.array_equal(matrix, np.tile(means, (10, 1)))
        assert int(np.argmin(env.column_sums())) == 0

    def test_sign_noise_values(self):
        env = make_iid_stochastic(50, 2, [0.1, -0.1], "sign", 0.5, seed=1)
        matrix = env.to_matrix()
        assert set(np.round(np.unique(np.abs(matrix - np.array([0.1, -0.1]))), 12)) == {0.5}

    def test_uniform_noise_within_band(self):
        env = make_iid_stochastic(100, 2, [0.0, 0.5], "uniform", 0.3, seed=2)
        matrix = env.to_matrix()
        assert np.abs(matrix - np.array([0.0, 0.5])).max() <= 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"means": [1.5, 0.0]},
            {"means": [0.9, 0.0], "noise": "uniform", "noise_scale": 0.2},
            {"means": [0.0], "noise": "gaussian"},
            {"means": [0.0, 0.0, 0.0]},
            {"means": [0.0, 0.0], "noise": "uniform", "noise_scale": -0.1},
        ],
    )
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ValueError):
            make_iid_stochastic(10, 2, seed=0, **kwargs)


class TestDenseSizeGuard:
    GENERATORS = {
        "low_rank": lambda T, K: make_low_rank(T, K, 2, 0.1, seed=0),
        "sparse_dictionary": lambda T, K: make_sparse_dictionary(T, K, 3, 1, 0.1, seed=0),
        "bounded_variation": lambda T, K: make_bounded_variation_adversary(T, K, seed=0),
        "iid_stochastic": lambda T, K: make_iid_stochastic(T, K, 0.0, seed=0),
    }

    @pytest.mark.parametrize("kind", list(GENERATORS))
    def test_one_entry_over_the_limit_rejected(self, monkeypatch, kind):
        monkeypatch.setattr(core, "MATRIX_MAX_ENTRIES", 20)
        assert self.GENERATORS[kind](4, 5).to_matrix().shape == (4, 5)
        with pytest.raises(ValueError, match="too large to generate"):
            self.GENERATORS[kind](3, 7)


class TestExportAndSidecar:
    def test_csv_export_reloads_identically(self, tmp_path):
        env = make_low_rank(6, 5, 2, 0.1, seed=0)
        written = export_environment(env, tmp_path / "demo", fmt="csv")
        from packhedge import matrix_io

        assert np.array_equal(matrix_io.load_matrix(written["matrix"]), env.to_matrix())
        assert "ground_truth.U" in written
        assert "ground_truth.E" not in written

    def test_binary_export_round_trips_bit_exact(self, tmp_path):
        env = make_sparse_dictionary(6, 5, 4, 2, 0.1, seed=1)
        written = export_environment(env, tmp_path / "demo", fmt="binary")
        from packhedge import matrix_io

        reloaded = matrix_io.load_matrix(written["matrix"])
        assert reloaded.tobytes() == env.to_matrix().tobytes()

    @pytest.mark.parametrize(
        "make",
        [
            lambda s: make_clustered_binary(12, 9, 3, s),
            lambda s: make_low_rank(8, 6, 2, 0.1, s),
            lambda s: make_bounded_variation_adversary(5, 32, s),
        ],
    )
    def test_sidecar_regenerates_matrix(self, tmp_path, make):
        env = make(21)
        written = export_environment(env, tmp_path / "env", fmt="csv")
        regenerated = environment_from_sidecar(written["sidecar"])
        assert np.array_equal(regenerated.to_matrix(), env.to_matrix())

    def test_finite_matrix_sidecar_points_at_export(self, tmp_path):
        matrix = game_rng(3).uniform(-1, 1, size=(4, 3))
        spec = EnvironmentSpec("finite_matrix", {"path": "unused"})
        env = environments.MatrixOracle(matrix, spec)
        written = export_environment(env, tmp_path / "raw", fmt="binary")
        regenerated = environment_from_sidecar(written["sidecar"])
        assert np.array_equal(regenerated.to_matrix(), matrix)
