import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from packhedge import analysis, environments, many_experts
from packhedge.core import game_rng
from packhedge.many_experts import expand_packing, packing_regret_bound


def reference_expand(matrix, t, active, threshold):
    """Brute-force transcription of the admission loop: scan experts in index
    order, admit the first one farther than the threshold from every active
    expert at round t, and repeat until none qualifies."""
    active = list(active)
    added = []
    while True:
        for j in range(matrix.shape[1]):
            if all(abs(matrix[t - 1, j] - matrix[t - 1, i]) > threshold for i in active):
                active.append(j)
                added.append(j)
                break
        else:
            return active, added


#: The packing's start: expert 0 alone.
START = np.zeros(1, dtype=np.int64)


class TestExpandPacking:
    def test_three_spread_experts_all_admitted(self):
        active, added = expand_packing(np.array([-1.0, 0.0, 1.0]), START, 0.4)
        assert added == [1, 2]
        assert active.tolist() == [0, 1, 2]
        env = environments.MatrixOracle(np.array([[-1.0, 0.0, 1.0]]))
        assert many_experts._schedule(env, [0.2])[0][1] == [0, 1, 1]

    def test_covered_round_changes_nothing(self):
        active, added = expand_packing(np.array([0.0, 0.1, -0.1]), START, 0.4)
        assert added == []
        assert active.tolist() == [0]

    def test_binary_split_admitted(self):
        active, added = expand_packing(np.array([-1.0, 1.0]), START, 0.8)
        assert added == [1]
        assert active.tolist() == [0, 1]

    @settings(max_examples=60)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=2, max_value=10),
        st.floats(min_value=0.05, max_value=1.0),
        st.data(),
    )
    def test_matches_reference_loop(self, seed, experts, epsilon, data):
        values = game_rng(seed).uniform(-1.0, 1.0, size=(1, experts))
        # Any nonempty set of starting columns, in any order: separated or not.
        start = data.draw(
            st.lists(st.integers(0, experts - 1), min_size=1, max_size=experts, unique=True)
        )
        active, added = expand_packing(values[0], np.array(start, dtype=np.int64), 2.0 * epsilon)
        expected_active, expected_added = reference_expand(values, 1, start, 2.0 * epsilon)
        assert active.tolist() == expected_active
        assert added == expected_added
        # Post-condition: every column is now within 2*epsilon of the active set.
        gap = np.abs(values[0][:, None] - values[0][active][None, :]).min(axis=1)
        assert np.all(gap <= 2.0 * epsilon)


class TestRestart:
    def test_first_expansion_bookkeeping(self):
        env = environments.MatrixOracle(
            np.array(
                [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [-0.9, 0.9, 0.0, -0.45], [0.5] * 4]
            )
        )
        active, admitted_at, _ = many_experts._schedule(env, [0.1])[0]
        assert admitted_at == [0, 3, 3, 3]
        trajectory = many_experts.play_many_experts(env, 0.1, rng=0)
        assert trajectory.extras["restarts"] == [(0, 1), (3, 4)]
        assert trajectory.extras["num_phases"] == 2
        assert trajectory.phase.tolist() == [1, 1, 2, 2]
        assert trajectory.packing_size.tolist() == [1, 1, 4, 4]
        # Round 4 samples the restarted hedge: uniform over the four active experts.
        u = game_rng(0, 0).random(4)[3]
        assert trajectory.chosen[3] == active[int(4 * u)]

    def test_restart_sizes_strictly_increase(self):
        env = environments.make_clustered_binary(200, 50, 5, seed=8)
        trajectory = many_experts.play_many_experts(env, 0.5, rng=8)
        sizes = [size for _, size in trajectory.extras["restarts"]]
        starts = [start for start, _ in trajectory.extras["restarts"]]
        assert sizes == sorted(set(sizes))
        assert starts == sorted(set(starts))

    def test_learning_rate_clock_tracks_phase_start(self):
        # The per-round reference restarts its hedge clock at every phase start,
        # and the phase kernels replay it bit for bit.
        env = environments.make_clustered_binary(60, 30, 4, seed=3)
        state = reference.PackingState.fresh(0.5)
        gen = game_rng(3, 0)
        for t in range(1, 61):
            assert state.inner.t == t - state.phase_start
            state, *_ = reference.advance(state, t, env, gen)
        fast = many_experts.play_many_experts(env, 0.5, rng=game_rng(3, 0))
        slow = reference.play_many_experts(env, 0.5, rng=game_rng(3, 0))
        # The per-round reference has no block schedule pass to count.
        counts = fast.extras.pop("schedule")
        assert counts["admitting_rounds"] == slow.extras["num_phases"] - 1
        assert fast.extras == slow.extras
        assert np.array_equal(fast.chosen, slow.chosen)
        assert np.array_equal(fast.phase, slow.phase)


class TestTotalSchedule:
    COUNTS = {"blocks": 2, "recertifications": 1, "exact_queries": 5, "admitting_rounds": 3}

    def test_counts_add_and_saturation_is_the_latest(self):
        total = many_experts.total_schedule(
            [self.COUNTS | {"saturation_round": 7}, self.COUNTS | {"saturation_round": 4}]
        )
        assert total == {key: 2 * value for key, value in self.COUNTS.items()} | {
            "saturation_round": 7
        }

    def test_one_unsaturated_game_leaves_no_saturation_round(self):
        total = many_experts.total_schedule(
            [self.COUNTS | {"saturation_round": 7}, self.COUNTS | {"saturation_round": None}]
        )
        assert total["saturation_round"] is None

    def test_every_other_key_is_summed(self):
        # A count added to the schedule later is summed without further code.
        counts = [{"kernel_s": 0.5, "saturation_round": 1}, {"kernel_s": 0.25, "saturation_round": 2}]
        assert many_experts.total_schedule(counts) == {"kernel_s": 0.75, "saturation_round": 2}


class TestPackingRegretBound:
    def test_single_expert_value(self):
        assert packing_regret_bound(1, 1, 0.1, 100) == pytest.approx(22.0)

    def test_direct_evaluation(self):
        assert packing_regret_bound(8, 3, 0.05, 5000) == pytest.approx(2813.2430185614126)

    def test_monotone_in_each_argument(self):
        base = packing_regret_bound(4, 2, 0.1, 1000)
        assert packing_regret_bound(5, 2, 0.1, 1000) > base
        assert packing_regret_bound(4, 3, 0.1, 1000) > base
        assert packing_regret_bound(4, 2, 0.2, 1000) > base
        assert packing_regret_bound(4, 2, 0.1, 2000) > base

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"final_packing": 2, "phases": 3, "epsilon": 0.1, "horizon": 10},
            {"final_packing": 2, "phases": 0, "epsilon": 0.1, "horizon": 10},
            {"final_packing": 2, "phases": 1, "epsilon": 0.0, "horizon": 10},
            {"final_packing": 2, "phases": 1, "epsilon": 0.1, "horizon": 0},
            {"final_packing": 2, "phases": 1, "epsilon": float("nan"), "horizon": 10},
        ],
    )
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ValueError):
            packing_regret_bound(**kwargs)


class TestPlayManyExperts:
    def test_everything_covered_keeps_singleton(self):
        means = np.linspace(-0.05, 0.05, 5)
        env = environments.make_iid_stochastic(120, 5, means, "uniform", 0.05, seed=4)
        trajectory = many_experts.play_many_experts(env, 0.3, rng=4)
        assert trajectory.extras["final_packing"] == 1
        assert trajectory.extras["num_phases"] == 1
        assert np.all(trajectory.chosen == 0)

    def test_action_sampled_before_expansion(self):
        env = environments.MatrixOracle(np.array([[0.0, 1.0], [0.0, 1.0]]))
        trajectory = many_experts.play_many_experts(env, 0.2, rng=0)
        # Expert 1 becomes known at round 1 but cannot be played before round 2.
        assert trajectory.chosen[0] == 0
        assert trajectory.packing_size[0] == 2

    def test_epsilon_one_on_binary_losses_never_grows(self):
        env = environments.make_clustered_binary(100, 40, 2, seed=6)
        trajectory = many_experts.play_many_experts(env, 1.0, rng=6)
        assert trajectory.extras["final_packing"] == 1

    def test_clustered_packing_capped_at_clusters(self):
        env = environments.make_clustered_binary(300, 500, 8, seed=7)
        trajectory = many_experts.play_many_experts(env, 0.5, rng=7)
        extras = trajectory.extras
        assert extras["final_packing"] <= 8
        assert extras["num_phases"] <= extras["final_packing"]

    def test_final_set_is_separated_packing(self):
        env = environments.make_clustered_binary(200, 120, 6, seed=9)
        trajectory = many_experts.play_many_experts(env, 0.4, rng=9)
        dist = analysis.distance_matrix(env.to_matrix())
        active = trajectory.extras["final_active"]
        for a in range(len(active)):
            for b in range(a + 1, len(active)):
                assert dist[active[a], active[b]] > 0.8

    def test_admission_round_certifies_separation(self):
        # at its admission round, each expert differs from every earlier
        # active expert by more than the threshold
        env = environments.make_low_rank(150, 40, 2, 0.1, seed=10)
        trajectory = many_experts.play_many_experts(env, 0.2, rng=10)
        active = trajectory.extras["final_active"]
        admitted_at = trajectory.extras["admitted_at"]
        for j in range(1, len(active)):
            t = admitted_at[j]
            row = env.rows(t - 1, t)[0]
            for i in range(j):
                assert abs(row[active[j]] - row[active[i]]) > 0.4

    def test_packing_starts_at_expert_zero(self):
        env = environments.make_clustered_binary(80, 50, 4, seed=13)
        trajectory = many_experts.play_many_experts(env, 0.5, rng=13)
        assert trajectory.extras["final_active"][0] == 0
        assert trajectory.extras["admitted_at"][0] == 0
        assert trajectory.chosen[0] == 0

    def test_coverage_ids_not_starting_at_zero_rejected(self):
        class SkipsZero(environments.MatrixOracle):
            def coverage_ids(self):
                return np.arange(1, self.num_experts())

        env = SkipsZero(game_rng(0).uniform(-1.0, 1.0, size=(10, 5)))
        with pytest.raises(ValueError, match="start at expert 0"):
            many_experts.play_many_experts(env, 0.5, rng=0)
        with pytest.raises(ValueError, match="start at expert 0"):
            many_experts.play_meta(env, seed=0)

    def test_packing_no_larger_than_exact_cover(self):
        for seed in range(5):
            env = environments.make_iid_stochastic(
                60, 6, np.linspace(-0.6, 0.6, 6), "uniform", 0.1, seed=seed
            )
            trajectory = many_experts.play_many_experts(env, 0.3, rng=seed)
            exact = analysis.covering_number_exact(env.to_matrix(), 0.3)
            assert trajectory.extras["final_packing"] <= exact

    def test_per_run_regret_bound_smoke(self):
        for seed in range(5):
            env = environments.make_clustered_binary(300, 200, 5, seed=seed)
            trajectory = many_experts.play_many_experts(env, 0.5, rng=seed)
            regret = analysis.empirical_regret(trajectory, env).regret
            bound = packing_regret_bound(
                trajectory.extras["final_packing"],
                trajectory.extras["num_phases"],
                0.5,
                300,
            )
            assert regret <= bound

    def test_reproducible_bit_for_bit(self):
        env = environments.make_clustered_binary(150, 80, 4, seed=11)
        a = many_experts.play_many_experts(env, 0.5, rng=11)
        b = many_experts.play_many_experts(env, 0.5, rng=11)
        assert np.array_equal(a.chosen, b.chosen)
        assert np.array_equal(a.incurred, b.incurred)
        assert np.array_equal(a.packing_size, b.packing_size)
        assert a.extras["final_active"] == b.extras["final_active"]

    def test_trajectory_invariants_and_final_record(self):
        env = environments.make_clustered_binary(100, 60, 4, seed=12)
        trajectory = many_experts.play_many_experts(env, 0.5, rng=12)
        trajectory.validate()
        assert trajectory.packing_size[-1] == trajectory.extras["final_packing"]
        assert trajectory.phase[-1] == trajectory.extras["num_phases"]

    def test_invalid_epsilon(self):
        env = environments.make_clustered_binary(10, 5, 2, seed=0)
        with pytest.raises(ValueError, match="epsilon"):
            many_experts.play_many_experts(env, 0.0, rng=0)
        with pytest.raises(ValueError, match="epsilon"):
            many_experts.play_many_experts(env, 1.5, rng=0)
