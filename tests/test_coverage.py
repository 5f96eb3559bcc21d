"""Differential tests of the coverage path against slow dense references.

``dense_uncovered`` is the ``K x K_p`` broadcast gap scan and
``requery_expand`` the admission loop that re-asks for the smallest uncovered
column after every admission.  The sorted-neighbour kernel, the block
certificate ``uncovered_rows`` and the one-pass ``expand_packing`` must agree
with them bit for bit; the block schedule pass must agree with
``expand_packing`` called on every round's candidates, and with the requery
loop called on every round's full row of ``K`` experts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packhedge import cli, core, environments, many_experts
from packhedge.core import game_rng
from packhedge.many_experts import expand_packing, uncovered_mask, uncovered_rows
from reference import LossOnlyOracle, Prefix, first_uncovered


def dense_uncovered(values, reference, threshold):
    """Broadcast scan: ``min_s |values[i] - reference[s]| > threshold``."""
    gap = np.abs(values[:, None] - reference[None, :]).min(axis=1)
    return gap > threshold


def requery_expand(values, active, threshold):
    """The admission loop before the one-pass rewrite, with ``expand_packing``'s signature."""
    added = []
    while True:
        mask = dense_uncovered(values, values[active], threshold)
        j = int(np.argmax(mask))
        if not mask[j]:
            return active, added
        active = np.append(active, np.int64(j))
        added.append(j)


def schedule(oracle, epsilon, expand, candidates=True):
    """Active ids and admission rounds from ``expand`` called on every round.

    Each round's row holds the coverage candidates, or with ``candidates``
    false every one of the ``K`` experts.
    """
    ids = oracle.coverage_ids() if candidates else np.arange(oracle.num_experts())
    active, admitted_at = np.zeros(1, dtype=np.int64), [0]
    for t in range(1, oracle.horizon() + 1):
        active, added = expand(oracle.rows(t - 1, t, ids)[0], active, 2.0 * epsilon)
        admitted_at += [t] * len(added)
    return ids[active].tolist(), admitted_at


def dense_schedule(oracle, epsilon):
    return schedule(oracle, epsilon, requery_expand, candidates=False)


def block_schedule(oracle, epsilon):
    active, admitted_at, _ = many_experts._schedule(oracle, [epsilon])[0]
    return active.tolist(), admitted_at


# Values a round can take: few distinct ones so duplicates and exact gaps are
# common, the boundary values, and both zeros.
EDGE_VALUES = [-1.0, -0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0, 0.1, 0.3, -0.7]
edge_rows = st.lists(
    st.one_of(st.sampled_from(EDGE_VALUES), st.floats(min_value=-1.0, max_value=1.0)),
    min_size=1,
    max_size=30,
)


class TestKernel:
    @settings(max_examples=300)
    @given(edge_rows, st.data())
    def test_matches_dense_scan(self, values, data):
        values = np.array(values)
        size = data.draw(st.integers(min_value=1, max_value=len(values)))
        active = data.draw(st.permutations(range(len(values))))[:size]
        reference = values[active]
        # Thresholds equal to an observed gap test the strict inequality.
        gaps = np.abs(values[:, None] - values[None, :]).ravel().tolist()
        threshold = data.draw(
            st.one_of(st.sampled_from(gaps), st.floats(min_value=0.0, max_value=2.5))
        )
        assert np.array_equal(
            uncovered_mask(values, reference, threshold),
            dense_uncovered(values, reference, threshold),
        )

    def test_gap_equal_to_threshold_is_covered(self):
        values = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        mask = uncovered_mask(values, np.array([0.0]), 0.5)
        assert mask.tolist() == [True, False, False, False, True]

    def test_binary_rows(self):
        values = np.array([1.0, -1.0, -1.0, 1.0, 1.0])
        assert uncovered_mask(values, np.array([1.0]), 1.0).tolist() == [
            False, True, True, False, False
        ]
        assert not uncovered_mask(values, np.array([1.0, -1.0]), 1.0).any()
        # Cross-cluster gap is exactly 2: never uncovered at threshold 2.
        assert not uncovered_mask(values, np.array([-1.0]), 2.0).any()

    def test_signed_zeros_are_one_value(self):
        values = np.array([0.0, -0.0, 1e-300, -1e-300])
        assert not uncovered_mask(values, np.array([-0.0]), 0.0)[:2].any()
        assert uncovered_mask(values, np.array([-0.0]), 0.0)[2:].all()
        assert np.array_equal(
            uncovered_mask(values, np.array([0.0]), 0.0),
            dense_uncovered(values, np.array([0.0]), 0.0),
        )

    def test_single_active_expert(self):
        values = game_rng(3).uniform(-1.0, 1.0, 500)
        for threshold in (0.0, 0.01, 0.5, 2.0):
            assert np.array_equal(
                uncovered_mask(values, values[:1], threshold),
                dense_uncovered(values, values[:1], threshold),
            )

    def test_unsorted_duplicate_keys(self):
        # Sorted search order must land every copy of a key on its own position.
        values = np.array([0.9, -0.6, 0.9, 0.1, -0.6, 0.9, -1.0, 0.1])
        reference = np.array([0.5, -0.5])
        mask = uncovered_mask(values, reference, 0.3)
        assert mask.tolist() == [True, False, True, True, False, True, True, True]
        assert np.array_equal(mask, dense_uncovered(values, reference, 0.3))

    def test_negative_and_positive_zero_keys(self):
        values = np.array([0.0, 0.5, -0.0, -0.5, 0.0, -0.0])
        for reference in (np.array([0.0]), np.array([-0.0]), np.array([-0.0, 0.0, 0.5])):
            for threshold in (0.0, 0.25, 0.5):
                assert np.array_equal(
                    uncovered_mask(values, reference, threshold),
                    dense_uncovered(values, reference, threshold),
                )
        assert uncovered_mask(values, np.array([1.0]), 0.75).tolist() == [
            True, False, True, True, True, True
        ]

    def test_keys_equal_to_reference_values(self):
        # A key equal to a reference value is covered at any threshold, on
        # whichever side of the key the search places it.
        reference = np.array([0.25, -0.75, 0.25, 1.0])
        values = np.array([1.0, 0.25, -0.75, 0.25, 1.0, -0.75, 0.0])
        for threshold in (0.0, 0.25, 1.0):
            mask = uncovered_mask(values, reference, threshold)
            assert not mask[:6].any()
            assert np.array_equal(mask, dense_uncovered(values, reference, threshold))
        assert uncovered_mask(values, reference, 0.0)[6]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_rows_large_reference(self, seed):
        rng = game_rng(seed)
        values = rng.uniform(-1.0, 1.0, 2000)
        reference = values[rng.choice(2000, size=300, replace=False)]
        for threshold in (2.0**-7, 2.0**-4, 0.3):
            assert np.array_equal(
                uncovered_mask(values, reference, threshold),
                dense_uncovered(values, reference, threshold),
            )


def exact_rows(values, reference, threshold):
    """Row by row: does the sorted-neighbour kernel find an uncovered value?"""
    return np.array([uncovered_mask(v, r, threshold).any() for v, r in zip(values, reference)])


def dense_rows(values, reference, threshold):
    return np.array([dense_uncovered(v, r, threshold).any() for v, r in zip(values, reference)])


def wide_gaps(reference, threshold):
    """Wide gaps per row, the two outer ones included."""
    return (np.diff(np.sort(reference, axis=1), axis=1) >= 2.0 * threshold).sum(axis=1) + 2


# A block of rounds: b rows of n values, and m reference values per row,
# drawn from the row's values (active experts are candidates) or anywhere.
# The thresholds put gaps of exactly 2 eps and 4 eps on the 0.25 grid of
# EDGE_VALUES.
blocks = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=16),
).flatmap(
    lambda shape: st.tuples(
        st.lists(
            st.lists(
                st.one_of(st.sampled_from(EDGE_VALUES), st.floats(-1.0, 1.0)),
                min_size=shape[1],
                max_size=shape[1],
            ),
            min_size=shape[0],
            max_size=shape[0],
        ),
        st.lists(
            st.lists(
                st.one_of(
                    st.integers(min_value=0, max_value=shape[1] - 1),
                    st.sampled_from(EDGE_VALUES),
                ),
                min_size=shape[2],
                max_size=shape[2],
            ),
            min_size=shape[0],
            max_size=shape[0],
        ),
    )
)
thresholds = st.one_of(
    st.sampled_from([0.0, 0.0625, 0.125, 0.25, 0.5, 1.0, 2.0]), st.floats(0.0, 2.5)
)


def draw_block(block):
    rows, picks = block
    values = np.array(rows)
    # An integer pick names a value of the same row; a float is a value itself.
    reference = np.array(
        [
            [row[p] if isinstance(p, int) else p for p in pick]
            for row, pick in zip(rows, picks)
        ]
    )
    return values, reference


def extremes(values):
    """The row minima and maxima that ``uncovered_rows`` takes with a block."""
    return values.min(axis=1), values.max(axis=1)


def certify(values, reference, threshold, entries):
    """``uncovered_rows`` with gap tests of at most ``entries`` values: the kernel's block size."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "BLOCK_ENTRIES", entries)
        return uncovered_rows(values, *extremes(values), reference, threshold)


class TestBlockCertificate:
    @settings(max_examples=300)
    @given(blocks, thresholds)
    def test_matches_kernel_and_dense_scan(self, block, threshold):
        values, reference = draw_block(block)
        exact = exact_rows(values, reference, threshold)
        assert np.array_equal(exact, dense_rows(values, reference, threshold))
        # Past the gap cutoff a row is flagged untested; below it, exactly.
        tested = wide_gaps(reference, threshold) <= int(np.log2(reference.shape[1])) + 2
        for entries in (1, 7, core.BLOCK_ENTRIES):
            flagged = certify(values, reference, threshold, entries)
            assert np.array_equal(flagged[tested], exact[tested])
            assert flagged[~tested].all()

    @settings(max_examples=200)
    @given(blocks, thresholds, st.data())
    def test_subset_never_misses(self, block, threshold, data):
        # Coverage is monotone in the reference set: certifying against the
        # active set at the start of a block flags every round that a larger
        # set leaves uncovered.
        values, reference = draw_block(block)
        size = data.draw(st.integers(min_value=1, max_value=reference.shape[1]))
        subset = reference[:, :size]
        flagged = uncovered_rows(values, *extremes(values), subset, threshold)
        assert not (exact_rows(values, reference, threshold) & ~flagged).any()
        assert not (exact_rows(values, subset, threshold) & ~flagged).any()

    def test_signed_zeros_and_single_reference(self):
        values = np.array([[0.0, -0.0, 1e-300], [-0.0, 0.5, -0.5], [1.0, -1.0, 0.0]])
        for reference in (np.array([[-0.0], [0.0], [0.0]]), np.array([[0.0], [-0.0], [-0.0]])):
            for threshold in (0.0, 0.5, 1.0):
                exact = exact_rows(values, reference, threshold)
                assert np.array_equal(exact, dense_rows(values, reference, threshold))
                assert np.array_equal(certify(values, reference, threshold, 4), exact)

    @pytest.mark.parametrize("epsilon", [2.0**-5, 2.0**-7, 0.1])
    def test_references_spaced_four_epsilon(self, epsilon):
        # Eight references: four with wide inner gaps of 4 eps and 5 eps, the
        # most the cutoff int(log2(8)) tests exactly, and four close ones.
        # Values sit 2 eps from either end of a gap (covered), one ulp
        # farther in, and inside the gap.
        threshold = 2.0 * epsilon
        spaced = -1.0 + threshold * np.array([0.0, 2.0, 4.5, 7.0])
        dense = spaced[-1] + threshold / 2 * np.arange(1, 5)
        reference = np.tile(np.concatenate((spaced, dense)), (8, 1))
        assert (wide_gaps(reference, threshold) == 5).all()
        lows, highs = spaced[:-1], spaced[1:]
        values = np.stack(
            [
                lows + threshold,
                highs - threshold,
                np.nextafter(lows + threshold, 2.0),
                np.nextafter(highs - threshold, -2.0),
                np.nextafter(lows + threshold, -2.0),
                lows + threshold / 2,
                game_rng(3).uniform(-1.0, 1.0, lows.size),
                np.full(lows.size, 1.0),
            ]
        )
        exact = exact_rows(values, reference, threshold)
        assert np.array_equal(exact, dense_rows(values, reference, threshold))
        for entries in (1, 2, 64):
            assert np.array_equal(certify(values, reference, threshold, entries), exact)
        # Spaced 4 eps across [-1, 1], every row is past the cutoff.
        count = int(2.0 / (2.0 * threshold))
        spread = np.tile(-1.0 + 2.0 * threshold * np.arange(count), (8, 1))
        assert certify(values, spread, threshold, 64).all()


def oracles(rounds=None):
    """A dense matrix, a clustered and a loss()-only oracle, by name."""
    low_rank = environments.make_low_rank(rounds or 40, 60, 2, 0.05, seed=5)
    clustered = environments.make_clustered_binary(rounds or 40, 80, 7, seed=6)
    loss_only = LossOnlyOracle(game_rng(7).uniform(-1.0, 1.0, size=(rounds or 30, 25)))
    return {"matrix": low_rank, "clustered": clustered, "loss_only": loss_only}


class TestOnePassExpansion:
    @pytest.mark.parametrize("kind", ["matrix", "clustered", "loss_only"])
    @pytest.mark.parametrize("epsilon", [1.0, 0.5, 0.25, 2.0**-4, 2.0**-7])
    def test_schedule_matches_requery_loop(self, kind, epsilon):
        oracle = oracles()[kind]
        assert block_schedule(oracle, epsilon) == dense_schedule(oracle, epsilon)

    @settings(max_examples=200)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda rounds: st.lists(
                st.lists(st.sampled_from(EDGE_VALUES), min_size=rounds, max_size=rounds),
                min_size=1,
                max_size=12,
            )
        ),
        st.sampled_from([1.0, 0.5, 0.25, 0.125, 0.05]),
        st.booleans(),
    )
    def test_schedule_matches_requery_on_tied_gaps(self, columns, epsilon, loss_only):
        # Few distinct values: gaps of exactly 2 * epsilon between candidates
        # admitted in the same round are common.
        matrix = np.array(columns).T
        oracle = LossOnlyOracle(matrix) if loss_only else environments.MatrixOracle(matrix)
        assert block_schedule(oracle, epsilon) == dense_schedule(oracle, epsilon)

    def test_same_round_gap_equal_to_threshold_blocks_admission(self):
        values = np.array([-1.0, 0.0, 0.5, 1.0, -0.5])
        active, added = expand_packing(values, np.zeros(1, dtype=np.int64), 0.5)
        assert added == [1, 3]
        assert active.tolist() == [0, 1, 3]

    @pytest.mark.parametrize("kind", ["matrix", "clustered", "loss_only"])
    def test_uncovered_expert_matches_dense_scan(self, kind):
        oracle = oracles()[kind]
        rng = game_rng(11)
        k = oracle.num_experts()
        for _ in range(40):
            t = int(rng.integers(1, oracle.horizon() + 1))
            active = rng.choice(k, size=int(rng.integers(1, 6)), replace=False)
            threshold = float(rng.uniform(0.0, 2.2))
            row = oracle.rows(t - 1, t)[0]
            mask = dense_uncovered(row, row[active], threshold)
            expected = int(np.argmax(mask)) if mask.any() else None
            assert first_uncovered(oracle, t, active, threshold) == expected

    def test_saturated_set_stops_querying(self, monkeypatch):
        # Every expert separated at round 1: the set saturates, and no later
        # round is queried or read, in this block or the next.
        matrix = np.zeros((2 * core.block_rounds(5), 5))
        matrix[0] = [-1.0, -0.5, 0.0, 0.5, 1.0]
        oracle = environments.MatrixOracle(matrix)
        reads, queries = [], []
        rows = oracle.rows

        def reading(t0, t1, experts=None):
            reads.append((t0, t1))
            return rows(t0, t1, experts)

        def querying(values, active, threshold):
            queries.append(active.size)
            return expand_packing(values, active, threshold)

        oracle.rows = reading
        monkeypatch.setattr(many_experts, "expand_packing", querying)
        active, admitted_at, counts = many_experts._schedule(oracle, [0.1])[0]
        assert (active.tolist(), admitted_at) == ([0, 1, 2, 3, 4], [0, 1, 1, 1, 1])
        assert reads == [(0, core.block_rounds(5))] and queries == [1]
        assert counts == {
            "blocks": 1, "recertifications": 0, "exact_queries": 1, "saturation_round": 1
        }

    def test_meta_game_matches_requery_loop(self, monkeypatch):
        oracle = environments.make_low_rank(64, 30, 2, 0.05, seed=2)
        fast = many_experts.play_meta(oracle, seed=4)
        monkeypatch.setattr(many_experts, "expand_packing", requery_expand)
        slow = many_experts.play_meta(oracle, seed=4)
        assert np.array_equal(fast.chosen, slow.chosen)
        assert np.array_equal(fast.incurred, slow.incurred)
        assert fast.extras["copy_reports"] == slow.extras["copy_reports"]

    def test_run_outputs_match_requery_loop(self, tmp_path, monkeypatch):
        config = tmp_path / "config.yaml"
        config.write_text(
            "game: {algorithm: many_experts, T: 200, epsilon: 0.0625, seed: 1}\n"
            "environment: {kind: low_rank, K: 80, d: 2, epsilon_noise: 0.05}\n"
        )
        assert cli.main(["run", "--config", str(config), "--out-dir", str(tmp_path / "a")]) == 0
        monkeypatch.setattr(many_experts, "expand_packing", requery_expand)
        assert cli.main(["run", "--config", str(config), "--out-dir", str(tmp_path / "b")]) == 0
        for name in ("trajectory.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def per_round_schedule(oracle, epsilon):
    return schedule(oracle, epsilon, expand_packing)


class TestBlockSchedule:
    """The block pass against ``expand_packing`` on every round."""

    @pytest.mark.parametrize("entries", [12, core.BLOCK_ENTRIES])
    @pytest.mark.parametrize("kind", ["matrix", "clustered", "loss_only"])
    @pytest.mark.parametrize("epsilon", [1.0, 0.25, 2.0**-4, 2.0**-7])
    def test_matches_per_round_pass(self, monkeypatch, entries, kind, epsilon):
        monkeypatch.setattr(core, "BLOCK_ENTRIES", entries)
        oracle = oracles()[kind]
        assert block_schedule(oracle, epsilon) == per_round_schedule(oracle, epsilon)

    @pytest.mark.parametrize("entries", [12, 300, core.BLOCK_ENTRIES])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_horizons_around_the_block(self, monkeypatch, entries, offset):
        monkeypatch.setattr(core, "BLOCK_ENTRIES", entries)
        for kind, candidates in (("matrix", 60), ("clustered", 7), ("loss_only", 25)):
            horizon = core.block_rounds(candidates) + offset
            if horizon < 1:  # a one-round block
                continue
            # The generators need three rounds; a shorter game plays their first rounds.
            oracle = Prefix(oracles(max(horizon, 3))[kind], horizon)
            assert oracle.coverage_ids().size == candidates
            for epsilon in (0.5, 2.0**-4):
                assert block_schedule(oracle, epsilon) == per_round_schedule(oracle, epsilon)

    @pytest.mark.parametrize("entries", [12, core.BLOCK_ENTRIES])
    @pytest.mark.parametrize("kind", ["matrix", "clustered", "loss_only"])
    def test_every_meta_copy_matches_per_round_pass(self, monkeypatch, entries, kind):
        monkeypatch.setattr(core, "BLOCK_ENTRIES", entries)
        oracle = oracles()[kind]
        reports = many_experts.play_meta(oracle, seed=4).extras["copy_reports"]
        assert len(reports) == len(core.build_grid(oracle.horizon()))
        for report in reports:
            active, admitted_at = per_round_schedule(oracle, report["epsilon"])
            assert report["final_active"] == active
            assert report["admitted_at"] == admitted_at


# A tied-value game: cluster rows of EDGE_VALUES, an assignment of experts to
# clusters with at least one expert more than clusters (so one expert is not
# its cluster's candidate), and whether the game is the clustered oracle or the
# dense matrix it stands for.
tied_games = st.tuples(
    st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=6)
).flatmap(
    lambda shape: st.tuples(
        st.lists(
            st.lists(st.sampled_from(EDGE_VALUES), min_size=shape[0], max_size=shape[0]),
            min_size=shape[1],
            max_size=shape[1],
        ),
        st.lists(st.integers(min_value=0, max_value=shape[1] - 1), min_size=1, max_size=6),
        st.permutations(range(shape[1])),
        st.booleans(),
    )
)


class TestBlockScheduleOnTiedValues:
    @pytest.mark.parametrize("entries", [12, core.BLOCK_ENTRIES])
    @settings(max_examples=150, deadline=None)
    @given(tied_games, st.sampled_from([1.0, 0.5, 0.25, 0.125, 0.05]))
    def test_matches_per_round_pass(self, entries, game, epsilon):
        rows, extra, clusters, dense = game
        assignment = np.array(list(clusters) + extra)
        oracle = environments.ClusteredBinaryOracle(np.array(rows), assignment)
        assert oracle.coverage_ids().size < assignment.size
        if dense:
            oracle = environments.MatrixOracle(oracle.to_matrix())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "BLOCK_ENTRIES", entries)
            assert block_schedule(oracle, epsilon) == per_round_schedule(oracle, epsilon)


@pytest.mark.parametrize("seed", [0, 4242, 4243, 4244])
def test_stale_blocks_on_the_readme_shape(monkeypatch, seed):
    # The README shape: 8 candidates, so a block is 2048 rounds, and an early
    # admission leaves the rest of a block flagged against its start set.
    # Re-certifying after a false flag keeps the exact queries near the
    # admitting rounds.
    oracle = environments.make_clustered_binary(5000, 100_000, 8, seed=seed)
    calls = []

    def counting(values, active, threshold):
        calls.append(active.size)
        return expand_packing(values, active, threshold)

    monkeypatch.setattr(many_experts, "expand_packing", counting)
    _, admitted_at, counts = many_experts._schedule(oracle, [0.5])[0]
    admitting = len(set(admitted_at)) - 1
    assert admitting >= 1
    assert len(calls) <= 2 * admitting
    assert counts["exact_queries"] == len(calls)
    assert counts["recertifications"] <= admitting


small_games = st.tuples(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([1.0, 0.5, 0.25, 0.125, 0.05]),
    st.booleans(),
)


def small_game_oracle(seed, rounds, experts, binary):
    rng = game_rng(seed)
    if binary:
        matrix = rng.integers(0, 2, size=(rounds, experts)) * 2.0 - 1.0
    else:
        matrix = rng.uniform(-1.0, 1.0, size=(rounds, experts))
    return environments.MatrixOracle(matrix)


class TestPackingProperties:
    @settings(max_examples=60)
    @given(small_games)
    def test_final_active_set_is_a_packing(self, game):
        seed, rounds, experts, epsilon, binary = game
        oracle = small_game_oracle(seed, rounds, experts, binary)
        trajectory = many_experts.play_many_experts(oracle, epsilon=epsilon, rng=seed)
        columns = oracle.to_matrix()[:, trajectory.extras["final_active"]]
        sup_gaps = np.abs(columns[:, :, None] - columns[:, None, :]).max(axis=0)
        off_diagonal = ~np.eye(columns.shape[1], dtype=bool)
        assert np.all(sup_gaps[off_diagonal] > 2.0 * epsilon)

    @settings(max_examples=60)
    @given(small_games)
    def test_phases_at_most_packing_size(self, game):
        seed, rounds, experts, epsilon, binary = game
        oracle = small_game_oracle(seed, rounds, experts, binary)
        extras = many_experts.play_many_experts(oracle, epsilon=epsilon, rng=seed).extras
        assert 1 <= extras["num_phases"] <= extras["final_packing"]

    @settings(max_examples=60)
    @given(small_games, st.integers(min_value=0, max_value=2**31))
    def test_schedule_independent_of_rng_seed(self, game, other_seed):
        seed, rounds, experts, epsilon, binary = game
        oracle = small_game_oracle(seed, rounds, experts, binary)
        a = many_experts.play_many_experts(oracle, epsilon=epsilon, rng=seed)
        b = many_experts.play_many_experts(oracle, epsilon=epsilon, rng=other_seed)
        for key in ("final_active", "admitted_at", "restarts", "num_phases"):
            assert a.extras[key] == b.extras[key]
        assert np.array_equal(a.packing_size, b.packing_size)
        assert np.array_equal(a.phase, b.phase)
