import gc
import json
import logging
import os
import re
import struct
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from packhedge import analysis, core, environments, many_experts, matrix_io
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

    def test_iid_seed_is_required(self):
        # The generator's seed is keyword-only with no default, so a spec must name one.
        with pytest.raises(ValueError, match="environment.seed"):
            EnvironmentSpec("iid_stochastic", {"T": 4, "K": 2, "means": 0.0})

    def test_arguments_are_the_checked_generator_keywords(self):
        parameters = {"T": 8.0, "K": 4, "d": 1, "epsilon_noise": 0, "seed": 1, "note": "x"}
        spec = EnvironmentSpec("low_rank", parameters)
        arguments = spec.arguments()
        assert arguments == {"T": 8, "K": 4, "d": 1, "epsilon_noise": 0.0, "seed": 1}
        assert [type(arguments[k]) for k in ("T", "epsilon_noise")] == [int, float]
        assert spec.parameters["T"] == 8.0 and type(spec.parameters["T"]) is float

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
            lambda s: make_iid_stochastic(
                20, 5, [0.4, -0.4, 0.0, 0.9, -0.9], "uniform", 0.1, seed=s
            ),
        ],
    )
    def test_every_loss_in_unit_interval(self, make):
        for seed in range(5):
            matrix = make(seed).to_matrix()
            assert np.abs(matrix).max() <= 1.0


class TestMatrixOracleStorage:
    def test_blocks_and_matrix_are_read_only(self):
        oracle = environments.MatrixOracle(game_rng(5).uniform(-1.0, 1.0, (6, 4)))
        with pytest.raises(ValueError, match="read-only"):
            oracle.rows(1, 4)[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            oracle.to_matrix()[0, 0] = 0.0

    def test_callers_array_stays_writable(self):
        matrix = game_rng(5).uniform(-1.0, 1.0, (6, 4))
        oracle = environments.MatrixOracle(matrix)
        assert np.shares_memory(oracle.to_matrix(), matrix)  # held without a copy
        matrix[0, 0] = 0.5
        assert matrix.flags.writeable


class TestDeterminism:
    @pytest.mark.parametrize(
        "make",
        [
            lambda s: make_clustered_binary(30, 40, 5, s),
            lambda s: make_low_rank(20, 15, 2, 0.1, s),
            lambda s: make_sparse_dictionary(20, 15, 6, 2, 0.1, s),
            lambda s: make_bounded_variation_adversary(8, 64, s),
            lambda s: make_iid_stochastic(20, 5, 0.0, "uniform", 0.5, seed=s),
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
        assert analysis.distance_matrix(matrix)[i, j] == 2.0

    def test_single_cluster_never_grows(self):
        env = make_clustered_binary(60, 100, 1, seed=5)
        trajectory = many_experts.play_many_experts(env, 0.5, rng=5)
        assert trajectory.extras["final_packing"] == 1

    def test_too_many_rows_rejected(self):
        with pytest.raises(ValueError, match="distinct binary rows"):
            make_clustered_binary(3, 100, 9, seed=0)
        with pytest.raises(ValueError, match="N"):
            make_clustered_binary(10, 4, 5, seed=0)

    def test_oversize_rows_refused_before_drawing(self, monkeypatch):
        # The N x T distinct rows are dense: 2 x MATRIX_MAX_ENTRIES is over the guard.
        def no_draws(*key):
            raise AssertionError("the generator ran past its size guard")

        monkeypatch.setattr(environments, "game_rng", no_draws)
        with pytest.raises(ValueError, match="environment.N x environment.T = 2 x 50000000"):
            make_clustered_binary(core.MATRIX_MAX_ENTRIES, 4, 2, seed=0)

    def test_oversize_assignment_refused_before_drawing(self, monkeypatch):
        # The oracle stores one cluster id per expert.
        def no_draws(*key):
            raise AssertionError("the generator ran past its size guard")

        monkeypatch.setattr(environments, "game_rng", no_draws)
        with pytest.raises(ValueError, match="environment.K = .*too large to generate"):
            make_clustered_binary(4, core.MATRIX_MAX_ENTRIES + 1, 2, seed=0)

    def test_assignment_is_drawn_as_int64_ids(self):
        # The whole-array cast of the draw, as the generator did before it
        # concatenated straight into int64: the same stream and the same ids.
        env = make_clustered_binary(30, 500, 6, seed=4)
        rng = game_rng(4)
        environments._distinct_binary_rows(6, 30, rng)
        drawn = np.concatenate([rng.permutation(6), rng.integers(0, 6, size=494)])
        expected = drawn.astype(np.int64)
        assignment = env.ground_truth["assignment"]
        assert assignment.dtype == np.int64 and assignment.tobytes() == expected.tobytes()

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
        dense = environments.MatrixOracle(env.to_matrix())
        assert np.array_equal(dense.column_sums(), dense.to_matrix().sum(axis=0))

    @pytest.mark.parametrize(
        ("value", "message"),
        [(np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"),
         (1.5, r"exceed \[-1, 1\] by 0.5")],
    )
    def test_bad_rows_refused_as_a_dense_matrix_is(self, value, message):
        rows = np.array([[value, 0.5, -1.0], [1.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match=message):
            environments.ClusteredBinaryOracle(rows, np.array([0, 1, 1]))
        with pytest.raises(ValueError, match=message):
            environments.MatrixOracle(rows)

    def test_rows_not_2d_name_the_clusters_x_rounds_layout(self):
        with pytest.raises(ValueError, match=r"2-D \(clusters x rounds\), got shape \(3,\)"):
            environments.ClusteredBinaryOracle(np.zeros(3), np.array([0, 0]))
        with pytest.raises(ValueError, match=r"2-D \(rounds x experts\), got shape \(3,\)"):
            environments.MatrixOracle(np.zeros(3))

    def test_grazing_rows_clamped_after_one_warning(self, caplog):
        rows = np.array([[1.0 + 1e-13, -1.0, 1.0], [-1.0 - 2e-13, 1.0, 1.0]])
        with caplog.at_level(logging.WARNING, logger="packhedge.core"):
            env = environments.ClusteredBinaryOracle(rows, np.array([0, 1, 1]))
        assert [r.getMessage() for r in caplog.records] == [
            "clamping losses grazing the [-1, 1] boundary by 2e-13"
        ]
        assert env.rows(0, 3).tolist() == [[1.0, -1.0, -1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
        assert rows[0, 0] > 1.0  # the caller's rows are left as given

    def test_valid_rows_kept_as_given(self):
        env = make_clustered_binary(30, 60, 6, seed=7)
        rows = env.ground_truth["rows"]
        assert environments.ClusteredBinaryOracle(rows, env.ground_truth["assignment"])._rows is rows

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

    def test_empty_dictionary_refused(self):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            make_sparse_dictionary(5, 5, 0, 0, 0.1, seed=0)

    @pytest.mark.parametrize(
        ("T", "K", "n"), [(50_000_000, 1, 2), (1, 50_000_000, 2), (3, 4, 10**12)]
    )
    def test_oversize_dictionary_refused_before_drawing(self, monkeypatch, T, K, n):
        # T x n or n x K above the guard, though T x K is not.
        def no_draws(*key):
            raise AssertionError("the generator ran past its size guard")

        monkeypatch.setattr(environments, "game_rng", no_draws)
        with pytest.raises(ValueError, match=f"environment.n = {n}: .*too large to generate"):
            make_sparse_dictionary(T, K, n, 1, 0.1, seed=0)


class TestBoundedVariationAdversary:
    def test_variation_capped_at_two(self):
        env = make_bounded_variation_adversary(12, 4096, seed=0)
        assert analysis.variation_profile(env.to_matrix()).max() <= 2.0

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
        assert any("no expert flips after round 4" in record.message for record in caplog.records)

    @pytest.mark.parametrize("shape", [(17, 3), (10, 16), (8, 100), (30, 1000)])
    def test_one_survivor_and_no_flip_after_ceil_log2_k(self, shape):
        T, K = shape
        flip_round = make_bounded_variation_adversary(T, K, seed=6).ground_truth["flip_round"]
        assert int((flip_round == T + 1).sum()) == 1
        assert int(flip_round[flip_round <= T].max()) == (K - 1).bit_length()


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
            {"means": [0.0, 0.0], "noise_scale": float("nan")},
            {"means": [0.0, 0.0], "noise_scale": float("inf")},
            {"means": [0.0, 0.0], "noise_scale": 1.5},
        ],
    )
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ValueError):
            make_iid_stochastic(10, 2, seed=0, **kwargs)

    @pytest.mark.parametrize("means", [[float("nan"), 0.0], float("nan"), [0.0, -float("inf")]])
    def test_mean_outside_the_range_is_named(self, means):
        # A NaN mean fails the range check itself, not the loss matrix's later.
        with pytest.raises(ValueError, match=r"^means must lie in \[-1, 1\]$"):
            make_iid_stochastic(10, 2, means, seed=0)


CHUNKED = {
    "low_rank": (make_low_rank, reference.make_low_rank),
    "sparse_dictionary": (make_sparse_dictionary, reference.make_sparse_dictionary),
    "bounded_variation": (
        make_bounded_variation_adversary, reference.make_bounded_variation_adversary
    ),
    "iid_stochastic": (make_iid_stochastic, reference.make_iid_stochastic),
}


def generator_arguments(kind, T, K, data):
    """Keyword arguments of ``kind``'s generator for a ``T x K`` matrix, the rest drawn."""
    noise = st.sampled_from([0.0, 0.05, 0.25])
    seed = data.draw(st.integers(0, 2**32), label="seed")
    if kind == "low_rank":
        return {"T": T, "K": K, "d": data.draw(st.integers(1, min(T, K, 3))),
                "epsilon_noise": data.draw(noise), "seed": seed}
    if kind == "sparse_dictionary":
        n = data.draw(st.integers(1, 4))
        return {"T": T, "K": K, "n": n, "k": data.draw(st.integers(0, n)),
                "epsilon_noise": data.draw(noise), "seed": seed}
    if kind == "bounded_variation":
        return {"T": T, "K": max(K, 2), "seed": seed}
    means = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=K, max_size=K))
    noise_kind = data.draw(st.sampled_from(environments.NOISE_KINDS))
    return {"T": T, "K": K, "means": means, "noise": noise_kind,
            "noise_scale": data.draw(st.sampled_from([0.0, 0.25, 0.5])), "seed": seed}


def assert_same_bits(oracle, expected):
    """The oracle's matrix and ground truth equal the reference's, bit for bit."""
    matrix, truth = expected
    assert oracle.to_matrix().tobytes() == matrix.tobytes()
    assert oracle.ground_truth.keys() == truth.keys()
    for name, value in truth.items():
        actual = oracle.ground_truth[name]
        assert actual.dtype == value.dtype and actual.tobytes() == value.tobytes(), name


class TestChunkedGeneration:
    """Dense generators fill one buffer a chunk at a time, with the bits of whole-matrix draws.

    The halving adversary's clustered rows expand to its dense reference matrix.
    """

    @settings(max_examples=150)
    @given(
        data=st.data(),
        kind=st.sampled_from(list(CHUNKED)),
        T=st.integers(1, 12),
        K=st.integers(1, 12),
        entries=st.sampled_from([1, 5, 16, 36, core.BLOCK_ENTRIES]),
    )
    def test_matches_whole_matrix_draws(self, data, kind, T, K, entries):
        # Small chunks: T x K below one chunk, exactly one or several, or no multiple of it.
        arguments = generator_arguments(kind, T, K, data)
        fast, slow = CHUNKED[kind]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "BLOCK_ENTRIES", entries)
            assert_same_bits(fast(**arguments), slow(**arguments))

    # Below one module chunk, exactly one, exactly two, and no multiple of it.
    SHAPES = [(64, 100), (128, 128), (2, 1 << 14), (300, 77)]

    @pytest.mark.parametrize("shape", SHAPES, ids=["below", "one", "two", "ragged"])
    @pytest.mark.parametrize("epsilon_noise", [0.0, 0.25])
    def test_structured_kinds_at_module_chunks(self, shape, epsilon_noise):
        T, K = shape
        low_rank = {"T": T, "K": K, "d": 2, "epsilon_noise": epsilon_noise, "seed": 5}
        assert_same_bits(make_low_rank(**low_rank), reference.make_low_rank(**low_rank))
        sparse = {"T": T, "K": K, "n": 5, "k": 2, "epsilon_noise": epsilon_noise, "seed": 6}
        expected = reference.make_sparse_dictionary(**sparse)
        assert_same_bits(make_sparse_dictionary(**sparse), expected)

    @pytest.mark.parametrize("shape", SHAPES, ids=["below", "one", "two", "ragged"])
    @pytest.mark.parametrize("noise", environments.NOISE_KINDS)
    def test_iid_at_module_chunks(self, shape, noise):
        T, K = shape
        means = game_rng(2).uniform(-0.5, 0.5, K).tolist()
        arguments = {"T": T, "K": K, "means": means, "noise": noise, "noise_scale": 0.5, "seed": 7}
        expected = reference.make_iid_stochastic(**arguments)
        assert_same_bits(make_iid_stochastic(**arguments), expected)

    @pytest.mark.parametrize("shape", SHAPES, ids=["below", "one", "two", "ragged"])
    def test_bounded_variation_matches_reference(self, shape):
        # The clustered oracle's rows, expanded, are the reference's dense matrix.
        T, K = shape
        assert_same_bits(
            make_bounded_variation_adversary(T, K, seed=8),
            reference.make_bounded_variation_adversary(T, K, seed=8),
        )

    @settings(max_examples=100)
    @given(
        structure=st.lists(
            st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.75]) | st.floats(-1.0, 1.0),
            min_size=1,
            max_size=40,
        ),
        epsilon_noise=st.sampled_from([0.0, 0.25]),
        entries=st.sampled_from([1, 3, 8, core.BLOCK_ENTRIES]),
        seed=st.integers(0, 2**32),
    )
    def test_noise_matches_whole_matrix_draw(self, structure, epsilon_noise, entries, seed):
        # Entries at +/-1 put the clip to work, and with no noise 0.0 + -0.0 is 0.0.
        matrix = np.array(structure).reshape(1, -1)
        expected = reference.add_noise(matrix.copy(), epsilon_noise, game_rng(seed))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "BLOCK_ENTRIES", entries)
            losses = environments._add_noise(matrix, epsilon_noise, game_rng(seed))
        assert losses is matrix  # in place
        assert losses.tobytes() == expected.tobytes()

    def test_no_noise_turns_negative_zero_structure_into_zero(self):
        losses = environments._add_noise(np.array([[-0.0, 0.5, -0.0]]), 0.0, game_rng(0))
        assert losses.tobytes() == np.array([[0.0, 0.5, 0.0]]).tobytes()

    @pytest.mark.parametrize("shape", [(5, 0), (0, 4)], ids=["no-experts", "no-rounds"])
    @pytest.mark.parametrize("noise", ["uniform", "sign"])
    def test_empty_matrix_refused_by_the_oracle(self, shape, noise):
        # The noise pass hands an empty matrix on to the oracle's refusal.
        T, K = shape
        message = re.escape(f"need at least one round and one expert, got shape {shape}")
        with pytest.raises(ValueError, match=message):
            make_iid_stochastic(T, K, [0.0] * K, noise, 0.5, seed=0)
        if noise == "uniform":
            with pytest.raises(ValueError, match=message):
                make_sparse_dictionary(T, K, 3, 1, 0.1, seed=0)


def _read_whole(directory, fmt):
    """Write a 4 x 5 matrix file in ``fmt`` and read it back whole."""
    matrix_io.save_matrix(directory / "m", np.zeros((4, 5)), fmt)
    return environments.load_matrix_file(directory / "m").to_matrix()


class TestDenseSizeGuard:
    """Every array sized by the input is built at ``MATRIX_MAX_ENTRIES`` entries, refused past it."""

    DENSE = (
        "environment.T x environment.K = 4 x 5: a dense loss matrix is too large to generate"
    )
    LOAD = "{path}: a matrix of 4 x 5 entries is too large to load; runs stream binary matrix files"
    # Per site: what builds an array of ``entries`` entries, and its refusal before the guard.
    SITES = {
        "low_rank": (lambda _: make_low_rank(4, 5, 2, 0.1, seed=0), 20, DENSE),
        "sparse_dictionary": (lambda _: make_sparse_dictionary(4, 5, 3, 1, 0.1, seed=0), 20, DENSE),
        "bounded_variation": (
            lambda _: make_bounded_variation_adversary(4, 5, seed=0), 16,
            "environment.T = 4: the 4 x 4 distinct loss rows are too large to generate",
        ),
        "bounded_variation_flip_rounds": (
            lambda _: make_bounded_variation_adversary(1, 20, seed=0), 20,
            "environment.K = 20: the flip rounds are too large to generate",
        ),
        "iid_stochastic": (lambda _: make_iid_stochastic(4, 5, 0.0, seed=0), 20, DENSE),
        "dictionary_atoms": (
            lambda _: make_sparse_dictionary(2, 3, 7, 1, 0.1, seed=0), 21,
            "environment.n = 7: the 2 x 7 dictionary and 7 x 3 codes are too large to generate",
        ),
        "cluster_rows": (
            lambda _: make_clustered_binary(5, 4, 4, seed=0), 20,
            "environment.N x environment.T = 4 x 5: the distinct loss rows are too large"
            " to generate",
        ),
        "cluster_assignment": (
            lambda _: make_clustered_binary(2, 20, 2, seed=0), 20,
            "environment.K = 20: the cluster assignment is too large to generate",
        ),
        "to_matrix": (
            lambda _: environments.MatrixOracle(np.zeros((4, 5))).to_matrix(), 20,
            "matrix of 4 x 5 entries is too large to materialize",
        ),
        "csv_read": (lambda directory: _read_whole(directory, "csv"), 20, LOAD),
        # A binary file is streamed: only its to_matrix() holds the whole matrix.
        "binary_read": (
            lambda directory: _read_whole(directory, "binary"), 20,
            "matrix of 4 x 5 entries is too large to materialize",
        ),
        "hedge_horizon": (
            lambda _: core.GameConfig(20), 20,
            "game.T = 20: the per-round arrays of hedge are too large to play",
        ),
        "meta_horizon": (
            lambda _: core.GameConfig(7, algorithm="meta_tuner"), 21,
            "game.T = 7: the per-round arrays of meta_tuner are too large to play",
        ),
    }

    @pytest.mark.parametrize("kind", list(SITES))
    def test_one_entry_over_the_limit_rejected(self, monkeypatch, tmp_path, kind):
        build, entries, message = self.SITES[kind]
        monkeypatch.setattr(core, "MATRIX_MAX_ENTRIES", entries)
        build(tmp_path)
        monkeypatch.setattr(core, "MATRIX_MAX_ENTRIES", entries - 1)
        with pytest.raises(ValueError) as refused:
            build(tmp_path)
        guard = f" (guard: {entries - 1} entries)"
        assert str(refused.value) == message.format(path=tmp_path / "m") + guard


def finite_matrix_spec(directory, seed):
    """A ``finite_matrix`` spec naming a freshly written binary matrix file."""
    path = directory / "source.bin"
    matrix_io.save_matrix(path, game_rng(seed).uniform(-1, 1, size=(4, 3)), "binary")
    return EnvironmentSpec("finite_matrix", {"path": str(path)})


class TestExportAndSidecar:
    def test_csv_export_reloads_identically(self, tmp_path):
        parameters = {"T": 6, "K": 5, "d": 2, "epsilon_noise": 0.1, "seed": 0}
        spec = EnvironmentSpec("low_rank", parameters)
        written = export_environment(spec, tmp_path / "demo", fmt="csv")
        matrix = make_environment(spec).to_matrix()
        assert np.array_equal(environments.load_matrix_file(written["matrix"]).to_matrix(), matrix)
        assert "ground_truth.U" in written
        assert "ground_truth.E" not in written

    def test_binary_export_round_trips_bit_exact(self, tmp_path):
        parameters = {"T": 6, "K": 5, "n": 4, "k": 2, "epsilon_noise": 0.1, "seed": 1}
        spec = EnvironmentSpec("sparse_dictionary", parameters)
        written = export_environment(spec, tmp_path / "demo", fmt="binary")
        reloaded = environments.load_matrix_file(written["matrix"]).to_matrix()
        assert reloaded.tobytes() == make_environment(spec).to_matrix().tobytes()

    @pytest.mark.parametrize(
        "make",
        [
            lambda s, _: EnvironmentSpec("clustered_binary", {"T": 12, "K": 9, "N": 3, "seed": s}),
            lambda s, _: EnvironmentSpec(
                "low_rank", {"T": 8, "K": 6, "d": 2, "epsilon_noise": 0.1, "seed": s}
            ),
            lambda s, _: EnvironmentSpec("bounded_variation", {"T": 5, "K": 32, "seed": s}),
            lambda s, _: EnvironmentSpec(
                "sparse_dictionary",
                {"T": 8, "K": 6, "n": 4, "k": 2, "epsilon_noise": 0.1, "seed": s},
            ),
            # A scalar mean and the noise keywords omitted: the sidecar keeps them so.
            lambda s, _: EnvironmentSpec(
                "iid_stochastic", {"T": 7, "K": 3, "means": 0.25, "seed": s}
            ),
            lambda s, directory: finite_matrix_spec(directory, s),
        ],
    )
    def test_sidecar_regenerates_matrix(self, tmp_path, make):
        spec = make(21, tmp_path)
        written = export_environment(spec, tmp_path / "env", fmt="csv")
        sidecar = json.loads((tmp_path / "env.json").read_text())
        assert sidecar["spec"] == spec.as_dict()
        regenerated = environment_from_sidecar(written["sidecar"])
        assert np.array_equal(regenerated.to_matrix(), make_environment(spec).to_matrix())

    def test_finite_matrix_sidecar_points_at_export(self, tmp_path):
        spec = finite_matrix_spec(tmp_path, 3)
        matrix = make_environment(spec).to_matrix()
        written = export_environment(spec, tmp_path / "raw", fmt="binary")
        (tmp_path / "source.bin").unlink()
        regenerated = environment_from_sidecar(written["sidecar"])
        assert np.array_equal(regenerated.to_matrix(), matrix)

    @pytest.mark.parametrize("fmt", matrix_io.FORMATS)
    def test_sidecar_with_a_format_key_rebuilds_the_same_oracle(self, tmp_path, fmt):
        # Sidecars written before the key was dropped still carry "format";
        # nothing reads it, and the oracle they rebuild is the same.
        for spec in (
            EnvironmentSpec("low_rank", {"T": 8, "K": 6, "d": 2, "epsilon_noise": 0.1, "seed": 4}),
            finite_matrix_spec(tmp_path, 4),
        ):
            export_environment(spec, tmp_path / spec.kind, fmt=fmt)
            path = tmp_path / f"{spec.kind}.json"
            sidecar = json.loads(path.read_text())
            assert "format" not in sidecar
            plain = environment_from_sidecar(path).to_matrix()
            path.write_text(json.dumps({**sidecar, "format": fmt}))
            rebuilt = environment_from_sidecar(path).to_matrix()
            original = make_environment(spec).to_matrix()
            assert rebuilt.tobytes() == plain.tobytes() == original.tobytes()

    @pytest.mark.parametrize("fmt", matrix_io.FORMATS)
    def test_finite_matrix_sidecar_builds_the_specs_oracle(self, tmp_path, fmt):
        # The sidecar goes through make_environment: a binary export streams too.
        spec = finite_matrix_spec(tmp_path, 5)
        written = export_environment(spec, tmp_path / "raw", fmt=fmt)
        regenerated = environment_from_sidecar(written["sidecar"])
        original = make_environment(spec)
        expected = environments.MatrixFileOracle if fmt == "binary" else environments.MatrixOracle
        assert type(regenerated) is expected
        assert regenerated.rows(0, 4).tobytes() == original.rows(0, 4).tobytes()
        assert regenerated.rows(1, 3, [2, 0]).tobytes() == original.rows(1, 3, [2, 0]).tobytes()
        assert regenerated.column_sums().tobytes() == original.column_sums().tobytes()


def write_binary(path, matrix):
    matrix_io.write_matrix_binary(path, matrix)
    return path


class TestMatrixFileOracle:
    """The streamed binary file against the matrix it was written from, in a ``MatrixOracle``."""

    @staticmethod
    def awkward_matrix(T, K, seed):
        matrix = game_rng(seed).uniform(-1.0, 1.0, (T, K))
        draws = game_rng(seed + 1).random((T, K))
        matrix[draws < 0.05] = -0.0
        matrix[draws > 0.95] = 0.0
        matrix[0, 0], matrix[-1, -1] = -1.0, 1.0
        return matrix

    # T is no multiple of block_rounds(K); 20011 rounds of one column is where
    # a blockwise fold of a single column first differed from numpy's sum.
    @pytest.mark.parametrize(("T", "K"), [(20011, 1), (16390, 2), (5465, 3), (333, 100)])
    @pytest.mark.parametrize("entries", [core.BLOCK_ENTRIES, 1], ids=["module", "row_blocks"])
    def test_matches_matrix_oracle(self, tmp_path, monkeypatch, T, K, entries):
        monkeypatch.setattr(core, "BLOCK_ENTRIES", entries)  # 1: one row per block
        matrix = self.awkward_matrix(T, K, seed=K)
        path = write_binary(tmp_path / "m.bin", matrix)
        streamed = environments.MatrixFileOracle(path)
        whole = environments.MatrixOracle(matrix)
        assert (streamed.horizon(), streamed.num_experts()) == (T, K)
        assert np.array_equal(streamed.coverage_ids(), np.arange(K))
        assert streamed.column_sums().tobytes() == whole.column_sums().tobytes()
        assert streamed.to_matrix().tobytes() == whole.to_matrix().tobytes()
        experts = game_rng(K).integers(0, K, size=2 * K)
        step = core.block_rounds(K)
        for t0, t1 in [(0, 1), (0, step), (step - 1, min(T, 2 * step + 1)), (T - 1, T), (T, T)]:
            block = streamed.rows(t0, t1)
            assert block.flags.c_contiguous and block.dtype == np.float64
            assert block.tobytes() == whole.rows(t0, t1).tobytes()
            assert block.shape == (t1 - t0, K)
            assert streamed.rows(t0, t1, experts).tobytes() == whole.rows(t0, t1, experts).tobytes()

    @pytest.mark.parametrize("grazing", [False, True], ids=["in_range", "grazing"])
    def test_rows_of_some_experts_match_matrix_oracle(self, tmp_path, monkeypatch, grazing):
        # A block of some experts is read block_rounds(K) whole rows at a time,
        # so ranges here span one read, several, or none.
        monkeypatch.setattr(core, "BLOCK_ENTRIES", 64)  # 8 rows of 8 columns per read
        matrix = self.awkward_matrix(100, 8, seed=5)
        if grazing:
            matrix[17, 3], matrix[90, 0] = 1.0 + 1e-13, -1.0 - 1e-13
        path = write_binary(tmp_path / "m.bin", matrix)
        streamed = environments.MatrixFileOracle(path)
        whole = environments.MatrixOracle(matrix)
        reads = []
        read_rows = matrix_io.read_binary_rows

        def recording(fh, t0, t1, experts):
            reads.append(t1 - t0)
            return read_rows(fh, t0, t1, experts)

        monkeypatch.setattr(matrix_io, "read_binary_rows", recording)
        step = core.block_rounds(8)
        ranges = [(0, 0), (5, 5), (0, 1), (0, step), (3, step + 1), (step - 1, 4 * step + 3),
                  (97, 100), (0, 100), (100, 100)]
        for experts in ([3], [7, 0, 5], [2, 2, 6, 2], np.arange(8)[::-1], []):
            for t0, t1 in ranges:
                block = streamed.rows(t0, t1, experts)
                assert block.flags.c_contiguous and block.dtype == np.float64
                assert block.shape == (t1 - t0, len(experts))
                assert block.tobytes() == whole.rows(t0, t1, experts).tobytes()
        assert reads and max(reads) == step

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0), (0, 1)])
    def test_no_rows_or_no_columns(self, tmp_path, shape):
        # A loss matrix has at least one row and one column: the header is refused.
        # The writers refuse such a matrix, so the header is written here.
        path = tmp_path / "m.bin"
        path.write_bytes(struct.pack("<4sBII", matrix_io.MAGIC, matrix_io.VERSION, *shape))
        with pytest.raises(ValueError, match=re.escape(f"{path}: a {shape[0]} x {shape[1]} matrix")):
            environments.MatrixFileOracle(path)

    def test_grazing_file_is_clamped_after_one_warning(self, tmp_path, caplog):
        matrix = self.awkward_matrix(400, 50, seed=4)
        matrix[3, 7], matrix[399, 0] = 1.0 + 1e-13, -1.0 - 4e-13
        path = write_binary(tmp_path / "m.bin", matrix)
        with caplog.at_level(logging.WARNING, logger="packhedge.core"):
            streamed = environments.MatrixFileOracle(path)
            blocks = [streamed.rows(t0, t0 + 100) for t0 in range(0, 400, 100)]
        assert [r.getMessage() for r in caplog.records] == [
            "clamping losses grazing the [-1, 1] boundary by 4e-13"
        ]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="packhedge.core"):
            whole = environments.MatrixOracle(matrix)
        assert len(caplog.records) == 1
        assert np.concatenate(blocks).tobytes() == whole.to_matrix().tobytes()
        assert streamed.rows(3, 4)[0, 7] == 1.0 and streamed.rows(399, 400)[0, 0] == -1.0
        assert streamed.column_sums().tobytes() == whole.column_sums().tobytes()

    @pytest.mark.parametrize(
        ("value", "message"),
        [(np.nan, "non-finite"), (-np.inf, "non-finite"), (1.5, r"exceed \[-1, 1\] by 0.5")],
    )
    def test_bad_values_refused_as_a_whole_matrix_is(self, tmp_path, value, message):
        matrix = np.zeros((500, 40))
        matrix[0, 0] = 1.5  # out of range in the first block, non-finite in the last
        matrix[-1, -1] = value
        path = write_binary(tmp_path / "m.bin", matrix)
        with pytest.raises(ValueError, match=message):
            environments.MatrixFileOracle(path)
        with pytest.raises(ValueError, match=message):
            environments.MatrixOracle(matrix)

    def test_bad_header_refused_as_a_whole_file_read_is(self, tmp_path):
        path = write_binary(tmp_path / "m.bin", np.zeros((3, 2)))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="does not match header"):
            environments.MatrixFileOracle(path)

    def test_file_truncated_after_open_is_refused(self, tmp_path):
        path = write_binary(tmp_path / "m.bin", game_rng(2).uniform(-1.0, 1.0, (300, 100)))
        oracle = environments.MatrixFileOracle(path)
        assert oracle.rows(250, 300).shape == (50, 100)
        os.truncate(path, 13 + 8 * 100 * 200)
        assert oracle.rows(0, 200).shape == (200, 100)
        with pytest.raises(ValueError, match=f"{path}: file shrank while it was read"):
            oracle.rows(150, 300)

    def test_file_closed_with_the_oracle(self, tmp_path):
        oracle = environments.MatrixFileOracle(write_binary(tmp_path / "m.bin", np.zeros((2, 2))))
        handle = oracle._file
        assert not handle.closed
        del oracle
        gc.collect()
        assert handle.closed

    # The format is read from the file's first bytes, whatever its name says.
    @pytest.mark.parametrize(
        ("binary_name", "csv_name"), [("m.dat", "m.csv"), ("m.csv", "m.bin")], ids=["plain", "swapped"]
    )
    def test_binary_files_stream_and_csv_files_are_read_whole(self, tmp_path, binary_name, csv_name):
        matrix = game_rng(3).uniform(-1.0, 1.0, (7, 4))
        path = write_binary(tmp_path / binary_name, matrix)
        streamed = make_environment(EnvironmentSpec("finite_matrix", {"path": str(path)}))
        assert isinstance(streamed, environments.MatrixFileOracle)
        matrix_io.write_matrix_csv(tmp_path / csv_name, matrix)
        whole = make_environment(EnvironmentSpec("finite_matrix", {"path": str(tmp_path / csv_name)}))
        assert isinstance(whole, environments.MatrixOracle)
        assert streamed.to_matrix().tobytes() == whole.to_matrix().tobytes() == matrix.tobytes()
