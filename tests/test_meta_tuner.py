import numpy as np
import pytest

from packhedge import environments, hedge, many_experts
from packhedge.core import build_grid, game_rng
from packhedge.many_experts import play_meta


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


def standalone_copies(env, trajectory, seed):
    """Each copy of a meta game replayed standalone from its own stream ``game_rng(seed, r)``."""
    return [
        many_experts.play_many_experts(env, epsilon, rng=game_rng(seed, r))
        for r, epsilon in enumerate(trajectory.extras["epsilons"], start=1)
    ]


class TestPlayMeta:
    def test_identical_experts_tie_exactly(self):
        column = game_rng(0).uniform(-1.0, 1.0, size=(32, 1))
        env = environments.MatrixOracle(np.tile(column, (1, 7)))
        trajectory = play_meta(env, seed=0)
        copy_cumulative = [c["learner_cumulative"] for c in trajectory.extras["copy_reports"]]
        assert np.allclose(copy_cumulative, trajectory.learner_cumulative, atol=1e-9)

    def test_embedded_copies_match_standalone_runs(self):
        # A copy's rounds are not kept; its report is the standalone game's
        # extras and cumulative loss, and its rounds show in the played ones.
        env = environments.make_clustered_binary(64, 32, 4, seed=9)
        trajectory = play_meta(env, seed=9)
        games = standalone_copies(env, trajectory, 9)
        assert trajectory.extras["copy_reports"] == [
            g.extras | {"learner_cumulative": g.learner_cumulative} for g in games
        ]
        picked = trajectory.extras["chosen_copy"]
        assert np.array_equal(trajectory.chosen, np.choose(picked, [g.chosen for g in games]))
        assert np.array_equal(trajectory.incurred, np.choose(picked, [g.incurred for g in games]))

    def test_extras_shapes(self):
        env = environments.make_clustered_binary(40, 20, 3, seed=2)
        trajectory = play_meta(env, seed=2)
        num_copies = trajectory.extras["num_copies"]
        assert num_copies == len(build_grid(40))
        reports = trajectory.extras["copy_reports"]
        assert [report["epsilon"] for report in reports] == list(build_grid(40))
        assert all(isinstance(report["learner_cumulative"], float) for report in reports)
        assert not any(isinstance(v, np.ndarray) for report in reports for v in report.values())
        assert trajectory.extras["chosen_copy"].shape == (40,)
        assert set(np.unique(trajectory.extras["chosen_copy"])) <= set(range(num_copies))
        assert len(reports) == num_copies
        assert np.all(trajectory.packing_size == num_copies)

    def test_schedule_is_the_copies_summed(self):
        env = environments.make_low_rank(64, 30, 2, 0.05, seed=4)
        trajectory = play_meta(env, seed=4)
        counts = [c["schedule"] for c in trajectory.extras["copy_reports"]]
        assert trajectory.extras["schedule"] == many_experts.total_schedule(counts)
        assert trajectory.extras["schedule"]["blocks"] == sum(c["blocks"] for c in counts)

    def test_played_action_comes_from_chosen_copy(self):
        env = environments.make_clustered_binary(48, 24, 4, seed=5)
        trajectory = play_meta(env, seed=5)
        games = standalone_copies(env, trajectory, 5)
        picked = trajectory.extras["chosen_copy"]
        for i in range(len(trajectory)):
            copy_traj = games[int(picked[i])]
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
