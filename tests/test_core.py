import logging
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import reference
from packhedge import core, environments, hedge
from packhedge.core import (
    GameConfig,
    GameTrajectory,
    LossOracle,
    game_rng,
    normalize_rng,
    validate_loss_matrix,
)
from reference import LossOnlyOracle, first_uncovered


def pick(weights, n, seed):
    """The kernel's picks of ``n`` rounds with these weights, on ``game_rng(seed).random(n)``."""
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), (n, len(weights)))
    return hedge.inverse_cdf_pick(weights, game_rng(seed).random(n))


def kernel_expected(losses):
    """Expected loss ``p @ l`` of each round of ``losses`` under the kernel's normalised weights."""
    losses = np.asarray(losses, dtype=np.float64)
    _, _, means = hedge.exponential_weights(
        lambda j0, j1, _: losses[j0:j1], [0], [losses.shape[1]], np.zeros(len(losses)),
        normalize=True, expected=True,
    )
    return means


class TestSampleCategorical:
    def test_singleton_always_zero(self):
        assert np.all(pick([1.0], 20, seed=0) == 0)

    def test_zero_mass_never_chosen(self):
        assert set(pick([0.0, 3.0], 200, seed=1).tolist()) == {1}

    def test_uniform_frequencies(self):
        n = 100_000
        counts = np.bincount(pick([1.0, 1.0, 1.0, 1.0], n, seed=3), minlength=4)
        frequencies = counts / n
        assert np.all(frequencies >= 0.235) and np.all(frequencies <= 0.265)
        assert stats.chisquare(counts).pvalue > 0.01

    def test_weighted_frequencies_match_weights(self):
        weights = np.array([1.0, 2.0, 5.0])
        n = 100_000
        counts = np.bincount(pick(weights, n, seed=4), minlength=3)
        assert stats.chisquare(counts, f_exp=n * weights / weights.sum()).pvalue > 0.01

    def test_consumes_exactly_one_state_advance(self):
        # A game of T rounds draws exactly T uniforms from its generator.
        env = environments.make_iid_stochastic(30, 3, 0.0, seed=0)
        a, b = game_rng(5), game_rng(5)
        hedge.play_hedge(env, rng=a)
        b.random(30)
        assert np.array_equal(a.random(8), b.random(8))

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=10),
           st.integers(min_value=0, max_value=2**31))
    # A subnormal total: u = random() * total rounds up to total itself.
    @example(weights=[5e-324], seed=0)
    @example(weights=[0.0, 5e-324, 0.0], seed=0)
    def test_never_returns_zero_weight_index(self, weights, seed):
        if sum(weights) <= 0:
            return
        i = pick(weights, 1, seed)[0]
        assert weights[i] > 0


class TestExpectedLoss:
    def test_point_mass(self):
        # 10^4 rounds of [-1, 1] underflow the second weight to exactly 0.
        losses = np.tile([-1.0, 1.0], (10_001, 1))
        losses[-1] = 0.5, -1.0
        assert kernel_expected(losses)[-1] == pytest.approx(0.5)

    def test_symmetric_cancellation(self):
        assert kernel_expected([[1.0, -1.0]])[0] == pytest.approx(0.0)

    def test_hand_arithmetic(self):
        assert kernel_expected([[-1.0, 1.0, 1.0, 1.0]])[0] == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            hedge.exponential_weights(
                lambda j0, j1, _: np.zeros((j1 - j0, 1)), [0], [2], np.zeros(3),
                normalize=True, expected=True,
            )

    def test_unnormalized_distribution_rejected(self):
        with pytest.raises(ValueError, match="normalise"):
            hedge.exponential_weights(
                lambda j0, j1, w: np.zeros((j1 - j0, w)), [0], [2], np.zeros(3), expected=True
            )


class TestRngStreams:
    def test_same_key_same_stream(self):
        assert np.array_equal(game_rng(7, 1).random(5), game_rng(7, 1).random(5))

    def test_different_keys_differ(self):
        assert not np.array_equal(game_rng(7, 1).random(5), game_rng(7, 2).random(5))

    def test_normalize_rng_int_records_seed(self):
        gen, seed = normalize_rng(11)
        assert seed == 11
        assert np.array_equal(gen.random(3), game_rng(11, 0).random(3))

    def test_normalize_rng_generator_passthrough(self):
        gen = game_rng(1)
        out, seed = normalize_rng(gen)
        assert out is gen and seed is None

    def test_normalize_rng_rejects_other_types(self):
        with pytest.raises(TypeError):
            normalize_rng("seed")


class TestValidateLossMatrix:
    def test_in_range_passthrough(self):
        m = np.array([[0.5, -1.0], [1.0, 0.0]])
        assert np.array_equal(validate_loss_matrix(m), m)

    def test_grazing_clamped_with_warning(self, caplog):
        m = np.array([[1.0 + 1e-13, -1.0]])
        with caplog.at_level(logging.WARNING):
            out = validate_loss_matrix(m)
        assert out.max() == 1.0
        assert any("clamping" in record.message for record in caplog.records)

    def test_clear_violation_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            validate_loss_matrix(np.array([[1.5, 0.0]]))

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            for position in (0, 1, 2):
                m = np.array([[0.5, 0.0, -0.5]])
                m[0, position] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    validate_loss_matrix(m)

    def test_negative_side_checked(self):
        with pytest.raises(ValueError, match="exceed"):
            validate_loss_matrix(np.array([[0.5, -1.5]]))
        assert validate_loss_matrix(np.array([[0.5, -1.0 - 1e-13]])).min() == -1.0

    @settings(max_examples=200)
    @given(
        values=st.lists(
            st.sampled_from([np.nan, np.inf, -np.inf, 1.5, -1.5, 1.0 + 1e-13, -1.0 - 1e-13, -0.0])
            | st.floats(-1.0, 1.0),
            max_size=40,
        ),
        width=st.integers(1, 6),
    )
    def test_matches_elementwise_check(self, values, width):
        # The two extremes decide as a check of every entry does: NaN or inf
        # anywhere is non-finite, else the largest |value| passes, clamps or fails.
        m = np.array(values[: len(values) // width * width]).reshape(-1, width)

        def outcome(validate):
            try:
                return validate(m).tobytes()
            except ValueError as exc:
                return str(exc)

        assert outcome(validate_loss_matrix) == outcome(reference.validate_loss_matrix)

    def test_valid_matrix_allocates_less_than_a_block(self):
        # The hedge_dense ingest shape: a valid matrix is returned as given.
        m = game_rng(4).uniform(-1.0, 1.0, (10_000, 100))
        validate_loss_matrix(m)  # first calls import and cache what later ones reuse
        tracemalloc.start()
        try:
            assert validate_loss_matrix(m) is m
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < core.BLOCK_ENTRIES * 8


def test_import_loads_numpy_random():
    # numpy 2.x loads numpy.random lazily; the package loads it at import, so
    # the first game's timings do not include it.
    code = "import sys, packhedge; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, sys.path)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"


class TestGameConfig:
    def test_valid(self):
        cfg = GameConfig(T=10, epsilon=0.5, seed=1, algorithm="hedge")
        assert cfg.T == 10

    def test_whole_floats_and_int_epsilon_are_converted(self):
        cfg = GameConfig(T=10.0, epsilon=1, seed=np.int64(2))
        assert (cfg.T, cfg.epsilon, cfg.seed) == (10, 1.0, 2)
        assert [type(v) for v in (cfg.T, cfg.epsilon, cfg.seed)] == [int, float, int]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"T": 0},
            {"T": 10, "epsilon": 0.0},
            {"T": 10, "epsilon": 1.5},
            {"T": 10, "algorithm": "bandit"},
            {"T": 10.5},
            {"T": 10, "seed": True},
            {"T": 10, "epsilon": True},
            {"T": 10, "epsilon": "0.5"},
            {"T": 1, "algorithm": "meta_tuner"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GameConfig(**kwargs)


class TestLossOracleDefaults:
    """The ABC's rows()-based defaults must agree with vectorized overrides."""

    def test_contract_is_rows_and_candidates(self):
        assert LossOracle.__abstractmethods__ == {"rows"}

    def _pair(self, seed):
        from packhedge.environments import MatrixOracle

        matrix = game_rng(seed).uniform(-1.0, 1.0, size=(12, 9))
        return LossOnlyOracle(matrix), MatrixOracle(matrix)

    def test_losses_agree(self):
        minimal, vectorized = self._pair(0)
        for t in (1, 5, 12):
            assert np.allclose(minimal.rows(t - 1, t), vectorized.rows(t - 1, t))
            assert np.allclose(minimal.rows(t - 1, t, [2, 7]), vectorized.rows(t - 1, t, [2, 7]))

    def test_uncovered_expert_agrees(self):
        minimal, vectorized = self._pair(1)
        rng = game_rng(2)
        for _ in range(40):
            t = int(rng.integers(1, 13))
            active = list(rng.choice(9, size=int(rng.integers(1, 4)), replace=False))
            threshold = float(rng.uniform(0.0, 2.0))
            assert first_uncovered(minimal, t, active, threshold) == first_uncovered(
                vectorized, t, active, threshold
            )

    def test_column_sums_and_matrix_agree(self):
        minimal, vectorized = self._pair(3)
        assert np.allclose(minimal.column_sums(), vectorized.column_sums())
        assert np.array_equal(minimal.to_matrix(), vectorized.to_matrix())


class TestGameTrajectory:
    def _build(self, incurred, packing):
        n = len(incurred)
        incurred = np.asarray(incurred, dtype=np.float64)
        return GameTrajectory(
            t=np.arange(1, n + 1),
            chosen=np.zeros(n, dtype=np.int64),
            incurred=incurred,
            cumulative=np.cumsum(incurred),
            packing_size=np.asarray(packing, dtype=np.int64),
            phase=np.ones(n, dtype=np.int64),
            seed=0,
        )

    def test_valid_trajectory_passes(self):
        self._build([0.5, -0.5, 1.0], [1, 2, 2]).validate()

    def test_cumulative_mismatch_rejected(self):
        trajectory = self._build([0.5, -0.5], [1, 1])
        trajectory.cumulative = trajectory.cumulative + 1.0
        with pytest.raises(ValueError, match="cumulative"):
            trajectory.validate()

    def test_shrinking_packing_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            self._build([0.0, 0.0], [2, 1]).validate()

    def test_learner_cumulative_matches_sum(self):
        trajectory = self._build([0.25, -1.0, 0.5], [1, 1, 1])
        assert trajectory.learner_cumulative == pytest.approx(-0.25)
