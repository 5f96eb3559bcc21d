import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packhedge import analysis, environments, hedge
from packhedge.core import game_rng


def softmax_oracle(log_weights, dps=50):
    """High-precision softmax, independent of the log-domain implementation."""
    with mpmath.workdps(dps):
        exps = [mpmath.exp(x) for x in log_weights]
        total = sum(exps)
        return np.array([float(e / total) for e in exps])


finite_losses = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=2, max_size=6
)


def kernel_distribution(log_weights):
    """The kernel's normalised weights of one round with these log-weights."""
    total = -np.array([log_weights], dtype=np.float64)
    return hedge.totals_to_weights(total, [(0, 1, total.shape[1])], normalize=True)[0]


def kernel_distributions(losses, carry=None, first_round=1):
    """The kernel's distribution before each round of ``losses`` and after the last.

    One segment whose rounds ``first_round ..`` are the rows of ``losses``;
    ``carry`` holds the running totals of the rounds before them.
    """
    losses = np.asarray(losses, dtype=np.float64)
    m, k = losses.shape
    eta = hedge.learning_rates([0], [k], first_round + m - 1)[first_round - 1 :]
    total = hedge.running_totals(losses, eta, carry, [(0, m, k)])
    return hedge.totals_to_weights(total, [(0, m + 1, k)], normalize=True)


class TestLearningRate:
    def test_single_expert_is_zero(self):
        assert hedge.learning_rates([0], [1], 5)[4] == 0.0

    def test_first_round_two_experts(self):
        assert hedge.learning_rates([0], [2], 1)[0] == pytest.approx(2.3548200450309493, abs=1e-12)

    def test_round_eight_eight_experts(self):
        assert hedge.learning_rates([0], [8], 8)[7] == pytest.approx(1.442026886600883, abs=1e-12)

    @pytest.mark.parametrize("t,k", [(0, 2), (-1, 2), (1, 0)])
    def test_invalid_arguments(self, t, k):
        # A schedule needs at least one round and one expert.
        with pytest.raises(ValueError):
            hedge.learning_rates([0], [k], t)

    def test_decreasing_in_t(self):
        rates = hedge.learning_rates([0], [4], 49)
        assert np.all(rates[:-1] > rates[1:])


class TestDistribution:
    def test_fresh_state_uniform(self):
        p = kernel_distribution(np.zeros(4))
        assert np.allclose(p, 0.25, atol=1e-15)

    def test_hand_normalization(self):
        assert np.allclose(kernel_distribution([0.0, math.log(3.0)]), [0.25, 0.75], atol=1e-12)

    def test_extreme_offset_is_stable(self):
        p = kernel_distribution([-1000.0, 0.0])
        assert np.all(np.isfinite(p))
        assert p[1] == pytest.approx(1.0, abs=1e-12)
        assert p[0] >= 0.0

    @given(st.lists(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
                    min_size=1, max_size=8))
    def test_matches_high_precision_softmax(self, log_weights):
        p = kernel_distribution(log_weights)
        assert np.allclose(p, softmax_oracle(log_weights), atol=1e-12)

    @given(st.lists(st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
                    min_size=1, max_size=16))
    def test_always_a_distribution(self, log_weights):
        p = kernel_distribution(log_weights)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(np.isfinite(p))


class TestUpdate:
    def test_round_clock_advances(self):
        # The second round of a segment steps at clock 2.
        eta = hedge.learning_rates([0], [3], 2)
        total = hedge.running_totals(np.ones((2, 3)), eta, None, [(0, 2, 3)])
        step = math.sqrt(8.0 * math.log(3.0))
        assert total[2] == pytest.approx(step + step / math.sqrt(2.0), abs=1e-12)

    def test_common_loss_shift_cancels(self):
        # Round 4 of a segment whose log-weights are [0.3, -0.2, 1.0].
        carry = -np.array([0.3, -0.2, 1.0])
        losses = np.array([[0.1, -0.5, 0.9]])
        p_base = kernel_distributions(losses, carry, first_round=4)[-1]
        p_shift = kernel_distributions(losses + 0.7, carry, first_round=4)[-1]
        assert np.allclose(p_base, p_shift, atol=1e-9)

    def test_two_expert_ratio_after_one_round(self):
        p = kernel_distributions([[1.0, -1.0]])[-1]
        # weight ratio is exp(2 * eta_1) with eta_1 = sqrt(8 ln 2)
        assert p[1] / p[0] == pytest.approx(111.01219832141852, rel=1e-9)

    def test_single_expert_unchanged(self):
        eta = hedge.learning_rates([0], [1], 1)
        total = hedge.running_totals(np.array([[0.8]]), eta, None, [(0, 1, 1)])
        assert total[1, 0] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            hedge.running_totals(np.zeros((1, 3)), np.ones(1), None, [(0, 1, 2)])

    @given(finite_losses, st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    def test_shift_invariance_property(self, losses, shift):
        losses = np.array([losses])
        p_base = kernel_distributions(losses)[-1]
        p_shift = kernel_distributions(losses + shift)[-1]
        assert np.allclose(p_base, p_shift, atol=1e-9)

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=40))
    def test_per_round_shifts_never_change_distributions(self, seed, rounds):
        rng = game_rng(seed)
        losses = rng.uniform(-1.0, 1.0, size=(rounds, 4))
        shifts = rng.uniform(-0.5, 0.5, size=rounds)
        plain = kernel_distributions(losses)
        shifted = kernel_distributions(losses + shifts[:, None])
        assert np.allclose(plain, shifted, atol=1e-9)

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=30))
    def test_dominated_expert_never_preferred(self, seed, rounds):
        rng = game_rng(seed)
        losses = np.empty((rounds, 2))
        for t in range(rounds):
            loss_b = rng.uniform(-1.0, 1.0)
            loss_a = loss_b - rng.uniform(0.0, min(1.0, loss_b + 1.0))
            losses[t] = loss_a, loss_b
        p = kernel_distributions(losses)[-1]
        assert p[0] >= p[1] - 1e-12


class TestPlayHedge:
    def test_single_expert_zero_regret(self):
        env = environments.make_iid_stochastic(50, 1, -0.3, "uniform", 0.2, seed=0)
        trajectory = hedge.play_hedge(env, rng=0)
        assert analysis.empirical_regret(trajectory, env).regret == pytest.approx(0.0, abs=1e-12)

    def test_identical_experts_zero_regret(self):
        matrix = np.tile(game_rng(1).uniform(-1.0, 1.0, size=(40, 1)), (1, 6))
        env = environments.MatrixOracle(matrix)
        trajectory = hedge.play_hedge(env, rng=1)
        assert analysis.empirical_regret(trajectory, env).regret == pytest.approx(0.0, abs=1e-12)

    def test_trajectory_shape_and_invariants(self):
        env = environments.make_iid_stochastic(100, 3, 0.0, "uniform", 0.5, seed=2)
        trajectory = hedge.play_hedge(env, rng=2)
        assert len(trajectory) == 100
        trajectory.validate()
        assert np.all(trajectory.packing_size == 3)
        assert np.all(trajectory.phase == 1)

    def test_reproducible_bit_for_bit(self):
        env = environments.make_iid_stochastic(200, 5, 0.0, "uniform", 0.9, seed=3)
        a = hedge.play_hedge(env, rng=3)
        b = hedge.play_hedge(env, rng=3)
        assert np.array_equal(a.chosen, b.chosen)
        assert np.array_equal(a.incurred, b.incurred)
        assert np.array_equal(a.cumulative, b.cumulative)

    def test_oracle_without_rounds_rejected(self):
        env = environments.MatrixOracle(np.zeros((0, 2)))
        with pytest.raises(ValueError, match="at least one round"):
            hedge.play_hedge(env, rng=0)

    def test_small_scale_regret_bound(self):
        regrets = []
        for seed in range(10):
            env = environments.make_iid_stochastic(2000, 5, 0.0, "sign", 1.0, seed=seed)
            trajectory = hedge.play_hedge(env, rng=seed)
            regrets.append(analysis.empirical_regret(trajectory, env).regret)
        assert np.mean(regrets) <= hedge.hedge_regret_bound(2000, 5)

    def test_easy_stochastic_instance_far_below_bound(self):
        regrets = []
        for seed in range(10):
            env = environments.make_iid_stochastic(
                2000, 2, [-0.5, 0.5], "uniform", 0.1, seed=seed
            )
            trajectory = hedge.play_hedge(env, rng=seed)
            regrets.append(analysis.empirical_regret(trajectory, env).regret)
        assert np.mean(regrets) <= hedge.hedge_regret_bound(2000, 2) / 4


class TestRegretBound:
    def test_value(self):
        assert hedge.hedge_regret_bound(10_000, 10) == pytest.approx(606.9708517540586)

    def test_invalid(self):
        with pytest.raises(ValueError):
            hedge.hedge_regret_bound(0, 5)
