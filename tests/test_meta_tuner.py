import numpy as np
import pytest

from packhedge import environments, hedge, many_experts, meta_tuner
from packhedge.core import game_rng
from packhedge.meta_tuner import build_grid, play_meta


class TestBuildGrid:
    def test_smallest_horizon(self):
        assert build_grid(2) == (1.0,)

    def test_horizon_eight(self):
        assert build_grid(8) == (1.0, 0.5, 0.25)

    def test_horizon_thousand(self):
        grid = build_grid(1000)
        assert len(grid) == 10
        assert grid[-1] == pytest.approx(0.001953125)

    def test_too_short_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            build_grid(1)

    @pytest.mark.parametrize("horizon", [2, 3, 4, 7, 8, 9, 100, 1024, 1025])
    def test_level_count_brackets_horizon(self, horizon):
        levels = len(build_grid(horizon))
        assert 2**levels >= horizon
        assert levels == 1 or 2 ** (levels - 1) < horizon

    def test_levels_halve(self):
        epsilons = build_grid(64)
        assert epsilons[0] == 1.0
        assert all(b == a / 2 for a, b in zip(epsilons, epsilons[1:]))


class TestMetaState:
    """The meta layer's state: one hedge column per grid level."""

    def test_mismatched_sizes_rejected(self):
        # Feedback with fewer columns than the meta hedge has experts.
        with pytest.raises(ValueError):
            hedge.exponential_weights(lambda a, b, _: np.zeros((b - a, 1)), [0], [3], np.zeros(8))


class TestPlayMeta:
    def test_identical_experts_tie_exactly(self):
        column = game_rng(0).uniform(-1.0, 1.0, size=(32, 1))
        env = environments.MatrixOracle(np.tile(column, (1, 7)))
        trajectory = play_meta(env, seed=0)
        copy_cumulative = trajectory.extras["copy_cumulative"][-1]
        assert np.allclose(copy_cumulative, trajectory.learner_cumulative, atol=1e-9)

    def test_embedded_copies_match_standalone_runs(self):
        env = environments.make_clustered_binary(64, 32, 4, seed=9)
        trajectory = play_meta(env, seed=9)
        epsilons = trajectory.extras["epsilons"]
        for r, copy_traj in enumerate(trajectory.extras["copies"], start=1):
            standalone = many_experts.play_many_experts(env, epsilons[r - 1], rng=game_rng(9, r))
            assert np.array_equal(copy_traj.chosen, standalone.chosen)
            assert np.array_equal(copy_traj.incurred, standalone.incurred)
            assert np.array_equal(copy_traj.packing_size, standalone.packing_size)
            assert np.array_equal(copy_traj.phase, standalone.phase)
            assert copy_traj.extras["final_active"] == standalone.extras["final_active"]

    def test_extras_shapes(self):
        env = environments.make_clustered_binary(40, 20, 3, seed=2)
        trajectory = play_meta(env, seed=2)
        num_copies = trajectory.extras["num_copies"]
        assert num_copies == len(build_grid(40))
        assert trajectory.extras["copy_cumulative"].shape == (40, num_copies)
        assert trajectory.extras["chosen_copy"].shape == (40,)
        assert set(np.unique(trajectory.extras["chosen_copy"])) <= set(range(num_copies))
        assert len(trajectory.extras["copies"]) == num_copies
        assert np.all(trajectory.packing_size == num_copies)

    def test_played_action_comes_from_chosen_copy(self):
        env = environments.make_clustered_binary(48, 24, 4, seed=5)
        trajectory = play_meta(env, seed=5)
        copies = trajectory.extras["copies"]
        picked = trajectory.extras["chosen_copy"]
        for i in range(len(trajectory)):
            copy_traj = copies[int(picked[i])]
            assert trajectory.chosen[i] == copy_traj.chosen[i]
            assert trajectory.incurred[i] == copy_traj.incurred[i]

    def test_reproducible_bit_for_bit(self):
        env = environments.make_clustered_binary(40, 20, 3, seed=7)
        a = play_meta(env, seed=7)
        b = play_meta(env, seed=7)
        assert np.array_equal(a.chosen, b.chosen)
        assert np.array_equal(a.incurred, b.incurred)
        assert np.array_equal(a.extras["chosen_copy"], b.extras["chosen_copy"])

    def test_horizon_below_two_rejected(self):
        env = environments.make_clustered_binary(1, 5, 2, seed=0)
        with pytest.raises(ValueError, match="horizon"):
            play_meta(env, seed=0)
