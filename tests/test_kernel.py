"""Differential tests of the closed-form hedge kernel against the per-round loops.

``reference`` keeps the loops that :func:`hedge.exponential_weights` replaced.
Plain hedge, the packing learner (all of its phases in one kernel call) and
the meta layer must reproduce their trajectories and extras bit for bit:
across kernel block boundaries, with one expert, with one-round phases and
admissions at the first and last round, and on every oracle kind.  Small
block sizes are patched in so that games of a few rounds cross many blocks,
or one block spans many phases.  The kernel's segments are also checked
directly against ``reference.segmented_hedge``, and its two paired running
sums against the float ``cumsum`` steps in ``reference``.  A packing game's
kernel pass reads fixed blocks of ``core.block_rounds(K_p)`` rounds.
"""

import csv
import io
import tracemalloc
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from packhedge import analysis, cli, core, environments, hedge, many_experts, matrix_io
from packhedge.core import GameTrajectory, game_rng
from reference import LossOnlyOracle, Prefix

#: Block sizes (loss entries per block): a tiny one, the module's own, and a
#: small one whose blocks span several short phases of a few dozen experts.
BLOCK_SIZES = [12, core.BLOCK_ENTRIES, 600]


@pytest.fixture(params=BLOCK_SIZES, ids=["tiny_blocks", "module_blocks", "small_blocks"])
def block_entries(request, monkeypatch):
    monkeypatch.setattr(core, "BLOCK_ENTRIES", request.param)
    return request.param


def assert_same(fast, slow):
    """Bit-for-bit equality of two trajectories, their extras and a meta game's copy reports."""
    for name in ("t", "chosen", "incurred", "cumulative", "packing_size", "phase"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert fast.seed == slow.seed
    # ``schedule`` counts the work of the block schedule pass, which the
    # per-round reference does not do; every other key must match.
    assert ("schedule" in fast.extras) == (fast.extras["algorithm"] != "hedge")
    assert fast.extras.keys() - {"schedule"} == slow.extras.keys()
    for key, value in fast.extras.items():
        if key == "schedule":
            continue
        other = slow.extras[key]
        if key == "copy_reports":
            # A report is its copy's extras, schedule counts included, and cumulative loss.
            assert len(value) == len(other)
            for a, b in zip(value, other):
                assert "schedule" in a
                assert repr({k: v for k, v in a.items() if k != "schedule"}) == repr(b)
        elif isinstance(value, np.ndarray):
            assert value.dtype == other.dtype and value.tobytes() == other.tobytes(), key
        else:
            assert repr(value) == repr(other), key


def make_oracle(kind, rounds, experts, seed=0):
    rng = game_rng(seed)
    if kind == "clustered":
        return environments.make_clustered_binary(rounds, experts, min(experts, 5), seed=seed)
    matrix = rng.uniform(-1.0, 1.0, size=(rounds, experts))
    if kind == "loss_only":
        return LossOnlyOracle(matrix)
    return environments.MatrixOracle(matrix)


def horizons(block):
    return sorted({1, max(1, block - 1), block, block + 1, 2 * block + 3})


KINDS = ["matrix", "clustered", "loss_only"]


class TestHedge:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "entries, experts",
        [(12, 1), (12, 3), (12, 40), (core.BLOCK_ENTRIES, 100), (core.BLOCK_ENTRIES, 300)],
    )
    def test_matches_reference_across_blocks(self, monkeypatch, kind, entries, experts):
        monkeypatch.setattr(core, "BLOCK_ENTRIES", entries)
        block = core.block_rounds(experts)
        oracle = make_oracle(kind, 2 * block + 3, experts, seed=experts)
        for T in horizons(block):
            game = Prefix(oracle, T)
            for seed in range(2):
                assert_same(hedge.play_hedge(game, rng=seed), reference.play_hedge(game, rng=seed))

    def test_one_expert_at_module_block(self):
        oracle = make_oracle("matrix", 300, 1)
        assert_same(hedge.play_hedge(oracle, rng=3), reference.play_hedge(oracle, rng=3))

    def test_negative_zero_losses(self, block_entries):
        # A running total started at 0.0 never records -0.0.
        oracle = environments.MatrixOracle(np.array([[-0.0, 0.0]] * 5 + [[0.5, -0.5]]))
        trajectory = hedge.play_hedge(oracle, rng=0)
        assert_same(trajectory, reference.play_hedge(oracle, rng=0))
        assert not np.signbit(trajectory.cumulative[:5]).any()


def one_admission_per_round(rounds):
    """Expert t stands out at round t only, so every round admits one expert."""
    matrix = np.zeros((rounds, rounds + 1))
    matrix[np.arange(rounds), np.arange(1, rounds + 1)] = 1.0
    return matrix


class TestManyExperts:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("epsilon", [1.0, 0.25, 2.0**-4, 2.0**-7])
    def test_matches_reference(self, block_entries, kind, epsilon):
        oracle = make_oracle(kind, 60, 24, seed=5)
        for T in (1, 2, 17, 60):
            game = Prefix(oracle, T)
            for seed in range(2):
                assert_same(
                    many_experts.play_many_experts(game, epsilon, rng=seed),
                    reference.play_many_experts(game, epsilon, rng=seed),
                )

    def test_one_round_phases_and_admission_at_last_round(self, block_entries):
        oracle = environments.MatrixOracle(one_admission_per_round(6))
        fast = many_experts.play_many_experts(oracle, epsilon=0.25, rng=4)
        assert_same(fast, reference.play_many_experts(oracle, epsilon=0.25, rng=4))
        assert fast.extras["admitted_at"] == [0, 1, 2, 3, 4, 5, 6]
        assert fast.extras["restarts"][-1] == (6, 7)
        assert fast.phase.tolist() == [2, 3, 4, 5, 6, 7]

    def test_admissions_at_first_and_last_round_only(self, block_entries):
        # Expert 1 stands out at round 1 and expert 2 at round T: a one-round
        # phase, a long one, and an empty last phase.
        T = 700
        matrix = np.tile(game_rng(3).uniform(-0.1, 0.1, (T, 1)), (1, 3))
        matrix[0, 1] += 0.8
        matrix[T - 1, 2] -= 0.8
        oracle = environments.MatrixOracle(matrix)
        fast = many_experts.play_many_experts(oracle, epsilon=0.25, rng=5)
        assert_same(fast, reference.play_many_experts(oracle, epsilon=0.25, rng=5))
        assert fast.extras["restarts"] == [(0, 1), (1, 2), (T, 3)]

    def test_one_expert(self, block_entries):
        oracle = make_oracle("matrix", 40, 1)
        assert_same(
            many_experts.play_many_experts(oracle, epsilon=0.1, rng=2),
            reference.play_many_experts(oracle, epsilon=0.1, rng=2),
        )

    def test_long_phases_cross_module_blocks(self):
        # One expert per cluster after round 1: phases far longer than a block.
        oracle = environments.make_clustered_binary(1500, 60, 12, seed=4)
        assert core.block_rounds(12) < 1500
        assert_same(
            many_experts.play_many_experts(oracle, epsilon=0.5, rng=6),
            reference.play_many_experts(oracle, epsilon=0.5, rng=6),
        )

    def test_large_packing(self):
        oracle = environments.make_low_rank(300, 200, 2, 0.05, seed=3)
        fast = many_experts.play_many_experts(oracle, epsilon=2.0**-7, rng=2)
        assert fast.extras["final_packing"] > 60
        assert_same(fast, reference.play_many_experts(oracle, epsilon=2.0**-7, rng=2))


class TestFixedBlocks:
    """A packing game's kernel pass reads fixed blocks of ``block_rounds(K_p)`` rounds."""

    def kernel_reads(self, monkeypatch):
        """Shapes of the blocks that every later kernel pass reads, in order."""
        reads = []
        kernel = hedge.exponential_weights

        def recording(rows, *args, **kwargs):
            def read(j0, j1, width):
                block = rows(j0, j1, width)
                reads.append(block.shape)
                return block

            return kernel(read, *args, **kwargs)

        monkeypatch.setattr(hedge, "exponential_weights", recording)
        return reads

    def assert_fixed_blocks(self, monkeypatch, oracle, epsilon, rng):
        reads = self.kernel_reads(monkeypatch)
        fast = many_experts.play_many_experts(oracle, epsilon, rng=rng)
        T = oracle.horizon()
        # K_p, the widest phase that plays a round.
        width = max(k for start, k in fast.extras["restarts"] if start < T)
        step = core.block_rounds(width)
        count = -(-T // step)
        assert [m for m, _ in reads] == [step] * (count - 1) + [T - step * (count - 1)]
        assert max(m * k for m, k in reads) <= core.BLOCK_ENTRIES
        assert_same(fast, reference.play_many_experts(oracle, epsilon, rng=rng))
        return fast, reads

    @pytest.mark.parametrize("seed", [0, 1])
    def test_packing_lowrank_shape(self, monkeypatch, seed):
        oracle = environments.make_low_rank(1024, 500, 2, 0.05, seed=seed)
        fast, _ = self.assert_fixed_blocks(monkeypatch, oracle, 2.0**-7, seed)
        assert fast.extras["final_packing"] > 250

    @pytest.mark.parametrize("entries", [core.BLOCK_ENTRIES, 600])
    def test_late_wide_game(self, monkeypatch, entries):
        # One active expert until all 40 are admitted at round 651: a block
        # of the narrow phase alone is read at its own width of one column.
        monkeypatch.setattr(core, "BLOCK_ENTRIES", entries)
        T, K = 700, 40
        matrix = np.tile(game_rng(9).uniform(-0.1, 0.1, (T, 1)), (1, K))
        matrix[650:] += np.linspace(-0.9, 0.9, K)
        oracle = environments.MatrixOracle(matrix)
        fast, reads = self.assert_fixed_blocks(monkeypatch, oracle, 2.0**-6, 3)
        assert fast.extras["restarts"] == [(0, 1), (651, K)]
        assert reads[0] == (core.block_rounds(K), 1)


class TestMeta:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_reference(self, block_entries, kind):
        oracle = make_oracle(kind, 40, 16, seed=8)
        for T in (2, 3, 40):
            game = Prefix(oracle, T)
            assert_same(many_experts.play_meta(game, seed=5), reference.play_meta(game, seed=5))

    def test_low_rank_game(self):
        oracle = environments.make_low_rank(200, 120, 2, 0.05, seed=1)
        assert_same(many_experts.play_meta(oracle, seed=2), reference.play_meta(oracle, seed=2))

    def test_one_expert(self):
        oracle = make_oracle("matrix", 20, 1)
        assert_same(many_experts.play_meta(oracle, seed=1), reference.play_meta(oracle, seed=1))


class TestKernel:
    def test_uniform_block_is_the_per_call_stream(self):
        a, b = game_rng(3, 1), game_rng(3, 1)
        block = a.random(1000)
        assert block.tobytes() == np.array([b.random() for _ in range(1000)]).tobytes()

    def test_round_clock_restarts_with_each_call(self):
        # Two calls over the halves of a game equal two fresh per-round hedges.
        losses = game_rng(5).uniform(-1.0, 1.0, size=(40, 4))
        uniforms = game_rng(6).random(40)
        for j0, j1 in ((0, 25), (25, 40)):
            chosen, _, _ = hedge.exponential_weights(
                lambda a, b, _: losses[j0 + a : j0 + b], [0], [4], uniforms[j0:j1]
            )
            state = reference.HedgeState.fresh(4)
            for j in range(j0, j1):
                cumulative = np.exp(state.log_weights - state.log_weights.max()).cumsum()
                assert chosen[j - j0] == np.count_nonzero(cumulative <= uniforms[j] * cumulative[-1])
                state = reference.update(state, losses[j])

    def test_wrong_block_width_rejected(self):
        with pytest.raises(ValueError):
            hedge.exponential_weights(lambda a, b, _: np.zeros((b - a, 2)), [0], [3], np.zeros(4))

    def test_no_experts_rejected(self):
        with pytest.raises(ValueError, match="expert"):
            hedge.exponential_weights(lambda a, b, _: np.zeros((b - a, 0)), [0], [0], np.zeros(4))


def segments(lengths, widths, seed=0):
    """Segment starts, a loss matrix and uniforms for segments of these lengths and widths."""
    starts = np.cumsum([0, *lengths[:-1]])
    T = int(sum(lengths))
    losses = game_rng(seed).uniform(-1.0, 1.0, (T, max(widths)))
    return starts, losses, game_rng(seed, 1).random(T)


def assert_segments_match(starts, widths, losses, uniforms, expected=True):
    """The kernel over the segments equals their per-round reference bit for bit.

    Picks and incurred losses always, and the expected losses with
    ``expected``; without it the kernel returns ``None`` for them.
    """
    chosen, incurred, means = hedge.exponential_weights(
        lambda j0, j1, width: losses[j0:j1, :width], starts, widths, uniforms, expected=expected
    )
    slow = reference.segmented_hedge(losses, starts, widths, uniforms)
    assert chosen.tobytes() == slow[0].tobytes()
    assert incurred.tobytes() == slow[1].tobytes()
    if expected:
        assert means.tobytes() == slow[2].tobytes()
    else:
        assert means is None
    return chosen


class TestSegments:
    """One kernel call over many segments, against the per-round reference."""

    @pytest.mark.parametrize("expected", [True, False])
    def test_lengths_around_a_block(self, block_entries, expected):
        b = core.block_rounds(5)
        lengths = [1, max(1, b - 1), b, b + 1, 1, 2]
        for widths in ([5] * 6, [1, 2, 5, 3, 5, 4]):
            starts, losses, uniforms = segments(lengths, widths, seed=len(set(widths)))
            assert_segments_match(starts, widths, losses, uniforms, expected)

    @pytest.mark.parametrize("expected", [True, False])
    def test_many_widths_in_one_block(self, block_entries, expected):
        # 60 short segments, widths rising and falling between 1 and 30.
        rng = game_rng(11)
        lengths = rng.integers(1, 4, 60).tolist()
        widths = rng.integers(1, 31, 60).tolist()
        starts, losses, uniforms = segments(lengths, widths, seed=11)
        assert_segments_match(starts, widths, losses, uniforms, expected)

    @pytest.mark.parametrize("entries", [64, core.BLOCK_ENTRIES])
    def test_segments_longer_than_a_block(self, monkeypatch, entries):
        monkeypatch.setattr(core, "BLOCK_ENTRIES", entries)
        widths = [1, 3, 2, 7]
        lengths = [core.block_rounds(w) * 2 + 3 for w in widths]
        starts, losses, uniforms = segments(lengths, widths, seed=2)
        assert_segments_match(starts, widths, losses, uniforms)

    @pytest.mark.parametrize("expected", [True, False])
    def test_draw_at_the_row_total_falls_back_within_the_width(self, expected):
        # Segment 2 (width 3, rounds 5-10) shares a block with the wider
        # segment 3.  Its last column's weight underflows to 0 after the
        # segment's first round, and a draw of 1.0 in round 9 reaches the row
        # total, which the zero-weight padding also reaches: the pick is the
        # last positive weight inside the width, column 1.
        widths = [2, 3, 6]
        starts, losses, uniforms = segments([4, 6, 5], widths, seed=4)
        losses[4:, 2] = 1000.0
        uniforms[8] = 1.0
        chosen = assert_segments_match(starts, widths, losses, uniforms, expected)
        assert chosen[8] == 1

    def test_no_runtime_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            starts, losses, uniforms = segments([3, 1, 2, 40, 1], [1, 4, 2, 9, 30], seed=6)
            losses[:, 0] = 1000.0  # weights that underflow to 0
            assert_segments_match(starts, [1, 4, 2, 9, 30], losses, uniforms)
            oracle = environments.make_low_rank(200, 120, 2, 0.05, seed=1)
            many_experts.play_meta(oracle, seed=2)
            many_experts.play_many_experts(oracle, epsilon=2.0**-6, rng=3)

    def test_vecdot_matches_row_dots_on_column_takes(self):
        # The expected loss of a round is p @ l over the phase's exact width;
        # the block is a column take of the active experts, read at the
        # block's wider width and sliced.
        rng = game_rng(7)
        matrix = rng.uniform(-1.0, 1.0, (64, 700))
        for _ in range(40):
            width = int(rng.integers(1, 400))
            wide = width + int(rng.integers(0, 200))
            block = matrix[3:40].take(rng.permutation(700)[:wide], axis=1)
            weights = rng.random((37, wide))
            weights /= weights.sum(axis=1, keepdims=True)
            p, l = weights[:, :width], block[:, :width]
            assert not l.flags.c_contiguous or width == wide
            rows = np.array([np.ascontiguousarray(a) @ np.ascontiguousarray(b) for a, b in zip(p, l)])
            assert np.vecdot(p, l).tobytes() == rows.tobytes()

    @pytest.mark.parametrize(
        "starts, widths, T",
        [([1, 3], [2, 2], 5), ([0, 2, 2], [1, 2, 3], 5), ([0, 3, 5], [1, 2, 3], 5),
         ([0, 2], [1, 0], 5), ([0, 2], [1], 5), ([], [], 5)],
    )
    def test_bad_segments_rejected(self, starts, widths, T):
        with pytest.raises(ValueError, match="segment"):
            hedge.exponential_weights(
                lambda a, b, w: np.zeros((b - a, w)), starts, widths, np.zeros(T)
            )


#: Values a paired sum must carry bit for bit: signed zeros, the smallest
#: subnormal and magnitudes near 1e300.
EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.7e300, 1.0, -1.0])


def edge_values(rng, shape):
    """Uniform values on [-1, 1) with about a third replaced by ``EDGE_VALUES``."""
    values = rng.uniform(-1.0, 1.0, shape)
    edges = rng.random(shape) < 1 / 3
    values[edges] = rng.choice(EDGE_VALUES, np.count_nonzero(edges))
    return values


@st.composite
def block_lanes(draw):
    """A block of 1-41 rounds cut into lanes ``(a, b, k)`` of widths 1-17."""
    m = draw(st.integers(min_value=1, max_value=41))
    cuts = st.lists(st.integers(min_value=1, max_value=m - 1), max_size=4, unique=True)
    starts = [0, *sorted(draw(cuts) if m > 1 else [])]
    width = st.integers(min_value=1, max_value=17)
    widths = draw(st.lists(width, min_size=len(starts), max_size=len(starts)))
    return m, list(zip(starts, [*starts[1:], m], widths))


#: The bits of a signalling NaN: any add that reads one raises the invalid
#: flag, which numpy reports as a RuntimeWarning.
SIGNALLING_NAN = 0x7FF0000000000001


class SignallingScratch:
    """numpy as ``hedge`` sees it, but ``empty`` fills float64 buffers with a signalling NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        buffer = np.empty(shape, dtype)
        if buffer.dtype == np.float64:
            buffer.view(np.uint64).fill(SIGNALLING_NAN)
        return buffer


class TestPairedSums:
    """The kernel's paired running sums against the float ``cumsum`` steps in ``reference``."""

    @settings(max_examples=300)
    @given(block_lanes(), st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_running_totals_match_float_cumsum(self, layout, with_carry, seed):
        m, lanes = layout
        rng = game_rng(seed)
        block = edge_values(rng, (m, max(k for _, _, k in lanes)))
        eta = np.where(rng.random(m) < 0.1, 0.0, rng.uniform(0.0, 3.0, m))
        carry = edge_values(rng, lanes[0][2]) if with_carry else None
        fast = hedge.running_totals(block, eta, carry, lanes)
        slow = reference.running_totals(block, eta, carry, lanes)
        # The last row is defined over the last lane's width: the carry.
        assert fast.shape == slow.shape
        assert fast[:-1].tobytes() == slow[:-1].tobytes()
        assert fast[-1, : lanes[-1][2]].tobytes() == slow[-1, : lanes[-1][2]].tobytes()
        # Every round's largest weight is exp(0) = 1, so its total is >= 1 and
        # only a draw of 1.0 reaches it in inverse_cdf_pick.
        assert (hedge.totals_to_weights(fast[:-1]).max(axis=1) == 1.0).all()

    @settings(max_examples=300)
    @given(block_lanes(), st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_picks_match_float_cumsum(self, layout, reach, seed):
        m, lanes = layout
        rng = game_rng(seed)
        weights = np.abs(edge_values(rng, (m, max(k for _, _, k in lanes))))
        for a, b, k in lanes:
            weights[a:b, k:] = 0.0
            # Every round has a positive weight within its width, as exp(0) is.
            positive = rng.choice([1.0, 5e-324, 1e300], b - a)
            weights[np.arange(a, b), rng.integers(0, k, b - a)] = positive
        edges = rng.choice([0.0, 1.0 - 2.0**-53], m)
        uniforms = np.where(rng.random(m) < 0.2, edges, rng.random(m))
        if reach:
            # The last round's total is the smallest subnormal, and its draw
            # rounds up to that total: the fallback picks the one weight.
            column = int(rng.integers(0, lanes[-1][2]))
            weights[-1] = 0.0
            weights[-1, column] = 5e-324
            uniforms[-1] = 1.0 - 2.0**-53
        fast = hedge.inverse_cdf_pick(weights, uniforms)
        slow = reference.inverse_cdf_pick(weights, uniforms)
        assert fast.dtype == slow.dtype and fast.tobytes() == slow.tobytes()
        if reach:
            assert fast[-1] == column

    @pytest.mark.parametrize("expected", [True, False])
    def test_every_summed_cell_is_set_first(self, monkeypatch, expected):
        # Blocks of 24 entries.  Widths [3, 8]: the width-3 segment continues
        # into a block of width 8, so row 0 holds an odd carry narrower than
        # the block.  Widths [8, 3, 5]: the width-3 segment continues out of a
        # block of width 8, then fills odd-width blocks of its own.  Blocks of
        # 3 rounds at width 8 pad the inverse CDF with a zero round.
        monkeypatch.setattr(core, "BLOCK_ENTRIES", 24)
        monkeypatch.setattr(hedge, "np", SignallingScratch())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cases = (([10, 5], [3, 8]), ([2, 12, 3], [8, 3, 5]), ([9, 4, 7], [1, 7, 3]))
            for lengths, widths in cases:
                starts, losses, uniforms = segments(lengths, widths, seed=sum(widths))
                assert_segments_match(starts, widths, losses, uniforms, expected)


class TestRows:
    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_stack_losses(self, kind):
        oracle = make_oracle(kind, 30, 12, seed=9)
        experts = np.array([7, 0, 11, 7])
        for t0, t1 in ((0, 30), (4, 5), (10, 21)):
            stacked = np.vstack([reference.round_losses(oracle, t) for t in range(t0 + 1, t1 + 1)])
            assert np.array_equal(oracle.rows(t0, t1), stacked)
            assert np.array_equal(oracle.rows(t0, t1, experts), stacked[:, experts])


class EventOracle(environments.MatrixOracle):
    """Logs the reads of loss rows in order, with the rows read."""

    def __init__(self, matrix):
        super().__init__(matrix)
        self.events = []

    def rows(self, t0, t1, experts=None):
        values = super().rows(t0, t1, experts)
        self.events.append(("read", t0, values))
        return values


def replay_schedule(events, admitting):
    """Check the logged schedule pass; return its block-flagged rounds and exact queries.

    Every read is a block, certified right after it, and every exact query
    runs on a row of the block last read.  A certification with no block
    read before it re-certifies the block's pending flagged rounds.  The
    exact queries must take the pending rounds in order, each on its own
    row, and a query that admits no one after the set has grown since the
    last certification must be followed by a re-certification while rounds
    are pending.
    """
    flagged, queries = [], []
    pending, t0, block, fresh, grown, due = [], 0, None, False, False, False
    for event in events:
        if event[0] == "read":
            assert not pending and not fresh, "a block is read after the last one's queries"
            assert block is None or event[1] > t0, "a block is read once"
            _, t0, block = event
            fresh = True
            continue
        if event[0] == "query":
            assert not due, "a re-certification was due before this query"
            t = pending.pop(0)
            assert np.array_equal(event[1], block[t - 1 - t0])
            queries.append(t)
            if t in admitting:
                grown = True
            elif grown and pending:
                due = True
            continue
        flags = event[1]
        if fresh:
            assert not due and not pending
            pending = (np.flatnonzero(flags) + t0 + 1).tolist()
            flagged.extend(pending)
            fresh = False
        else:
            assert due, "a re-certification must follow a false flag after growth"
            assert flags.size == len(pending)
            pending = [t for t, keep in zip(pending, flags.tolist()) if keep]
        grown = due = False
    assert not due
    return flagged, queries


def is_subsequence(items, sequence):
    remaining = iter(sequence)
    return all(any(item == other for other in remaining) for item in items)


@pytest.mark.parametrize("entries", [600, core.BLOCK_ENTRIES])
def test_active_gathers_only_on_flagged_rounds(monkeypatch, entries):
    monkeypatch.setattr(core, "BLOCK_ENTRIES", entries)
    matrix = environments.make_low_rank(400, 60, 2, 0.05, seed=4).to_matrix()
    oracle = None
    certify, expand = many_experts.uncovered_rows, many_experts.expand_packing

    def certifying(values, low, high, reference, threshold):
        flags = certify(values, low, high, reference, threshold)
        oracle.events.append(("certify", flags))
        return flags

    def querying(values, active, threshold):
        oracle.events.append(("query", values))
        return expand(values, active, threshold)

    monkeypatch.setattr(many_experts, "uncovered_rows", certifying)
    monkeypatch.setattr(many_experts, "expand_packing", querying)
    gathered = recertified = 0
    for epsilon in (0.25, 2.0**-5, 2.0**-9):
        oracle = EventOracle(matrix)
        active, admitted_at, counts = many_experts._schedule(oracle, [epsilon])[0]
        admitting = set(admitted_at[1:])
        flagged, queries = replay_schedule(oracle.events, admitting)
        # The exact queries are an ordered subsequence of the block-flagged
        # rounds, and every admission round is among them.
        assert is_subsequence(queries, flagged)
        assert admitting <= set(queries)
        certifications = sum(1 for event in oracle.events if event[0] == "certify")
        assert (counts["exact_queries"], counts["blocks"]) == (
            len(queries),
            certifications - counts["recertifications"],
        )
        assert counts["recertifications"] <= len(admitting)
        # The last unsaturated round: the pass stops once all 60 candidates are active.
        last = admitted_at[-1] if active.size == 60 else 400
        assert all(event[1] < last for event in oracle.events if event[0] == "read")
        gathered += len(queries)
        recertified += counts["recertifications"]
    assert last < 400  # the finest accuracy saturated
    assert recertified > 0
    unsaturated = 400 + 400 + last
    # Far fewer exact queries than unsaturated rounds: under a quarter with
    # 10-round blocks, under two thirds with the module's 273-round blocks.
    assert gathered < unsaturated * (0.25 if entries == 600 else 2 / 3)


def count_reads(oracle):
    """Log the ``(t0, t1)`` of every ``rows`` read of ``oracle``."""
    reads = []
    rows = oracle.rows

    def counting(t0, t1, experts=None):
        reads.append((t0, t1))
        return rows(t0, t1, experts)

    oracle.rows = counting
    return reads


@pytest.mark.parametrize("entries", [600, core.BLOCK_ENTRIES])
def test_schedule_reads_each_block_and_query_once(monkeypatch, entries):
    # The active losses are columns of the candidate rows, and an exact query
    # runs on its row of the block: one read per certified block, none for a
    # query's round or for a re-certification.
    monkeypatch.setattr(core, "BLOCK_ENTRIES", entries)
    games = [(environments.make_low_rank(400, 60, 2, 0.05, seed=4), e) for e in (0.25, 2.0**-9)]
    games.append((environments.make_clustered_binary(5000, 100_000, 8, seed=0), 0.5))
    for oracle, epsilon in games:
        reads = count_reads(oracle)
        _, _, counts = many_experts._schedule(oracle, [epsilon])[0]
        assert counts["exact_queries"] > 0
        assert len(reads) == counts["blocks"]
        assert len(set(reads)) == len(reads)
    assert counts["recertifications"] > 0


def test_schedule_reads_whole_rows_of_a_dense_oracle():
    # Every expert is a candidate: the blocks are views of the matrix, not copies.
    oracle = environments.make_low_rank(400, 60, 2, 0.05, seed=4)
    matrix, blocks = oracle.to_matrix(), []
    rows = oracle.rows

    def recording(t0, t1, experts=None):
        blocks.append((experts, rows(t0, t1, experts)))
        return blocks[-1][1]

    oracle.rows = recording
    many_experts._schedule(oracle, [2.0**-5])[0]
    assert blocks
    for experts, block in blocks:
        assert experts is None and np.may_share_memory(block, matrix)


def lockstep_oracle(kind, rounds, experts, seed, path):
    """A clustered, low-rank, bounded-variation or binary-file instance of the shape."""
    if kind == "clustered":
        return environments.make_clustered_binary(rounds, experts, min(experts, 6), seed)
    if kind == "bounded_variation":
        return environments.make_bounded_variation_adversary(rounds, max(experts, 2), seed)
    oracle = environments.make_low_rank(rounds, experts, 1, 0.05, seed)
    if kind == "low_rank":
        return oracle
    matrix_io.write_matrix_binary(path, oracle.to_matrix())
    return environments.MatrixFileOracle(path)


class TestLockstepSchedule:
    """The schedule pass over several accuracies against one pass per accuracy."""

    @settings(
        max_examples=40,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(
        st.sampled_from(["clustered", "low_rank", "bounded_variation", "matrix_file"]),
        st.integers(min_value=3, max_value=160),
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=0, max_value=2**16),
        st.data(),
    )
    def test_matches_one_pass_per_accuracy(
        self, block_entries, tmp_path, kind, rounds, experts, seed, data
    ):
        # Grid accuracies in any order, repeats included: each keeps its own state.
        grid = core.build_grid(rounds)
        epsilons = data.draw(st.lists(st.sampled_from(grid), min_size=1, max_size=len(grid) + 2))
        path = tmp_path / f"{kind}-{rounds}-{experts}-{seed}.bin"
        oracle = lockstep_oracle(kind, rounds, experts, seed, path)
        together = many_experts._schedule(oracle, epsilons)
        assert len(together) == len(epsilons)
        for epsilon, (active, admitted_at, counts) in zip(epsilons, together):
            alone_active, alone_admitted_at, alone_counts = many_experts._schedule(
                oracle, [epsilon]
            )[0]
            assert active.dtype == alone_active.dtype
            assert active.tolist() == alone_active.tolist()
            assert admitted_at == alone_admitted_at
            assert counts == alone_counts


@pytest.mark.parametrize("kind", ["clustered", "low_rank", "matrix_file"])
def test_meta_game_reads_each_schedule_block_once(monkeypatch, block_entries, tmp_path, kind):
    # The copies certify each block in lockstep: the schedule pass reads each
    # block once, as many reads as the blocks of the copy that saturates
    # last, not their sum over copies.
    oracle = lockstep_oracle(kind, 400, 60, 4, tmp_path / "m.bin")
    reads, in_pass = [], []
    rows, schedule = oracle.rows, many_experts._schedule

    def counting(t0, t1, experts=None):
        if in_pass:
            reads.append((t0, t1))
        return rows(t0, t1, experts)

    def passing(oracle, epsilons):
        in_pass.append(True)
        try:
            return schedule(oracle, epsilons)
        finally:
            in_pass.clear()

    oracle.rows = counting
    monkeypatch.setattr(many_experts, "_schedule", passing)
    reports = many_experts.play_meta(oracle, seed=1).extras["copy_reports"]
    blocks = [report["schedule"]["blocks"] for report in reports]
    assert len(reads) == max(blocks) < sum(blocks)
    assert len(set(reads)) == len(reads)


@pytest.mark.parametrize("entries", [600, core.BLOCK_ENTRIES])
def test_games_leave_the_matrix_unchanged(monkeypatch, entries):
    # The learners read views of the oracle's matrix and must not write to them.
    monkeypatch.setattr(core, "BLOCK_ENTRIES", entries)
    oracle = environments.make_low_rank(300, 40, 2, 0.05, seed=4)
    before = oracle.to_matrix().tobytes()
    hedge.play_hedge(oracle, rng=1)
    epsilons = (0.25, 2.0**-6)
    for epsilon, schedule in zip(epsilons, many_experts._schedule(oracle, epsilons)):
        many_experts._play_packing(oracle, epsilon, schedule, game_rng(1), None, expected=True)
    many_experts.play_meta(oracle, seed=1)
    assert oracle.to_matrix().tobytes() == before


class TestBoundedMemory:
    def held_and_peak(self, play):
        """Bytes still held while ``play``'s result is alive, and the peak of the call."""
        play()  # first calls import and cache what later games reuse
        tracemalloc.start()
        try:
            result = play()
            return tracemalloc.get_traced_memory()  # taken while result is alive
        finally:
            tracemalloc.stop()

    def peak(self, play):
        return self.held_and_peak(play)[1]

    def test_hedge_dense(self):
        oracle = environments.MatrixOracle(game_rng(1).uniform(-1.0, 1.0, (4096, 200)))
        one_matrix = 4096 * 200 * 8
        assert self.peak(lambda: hedge.play_hedge(oracle, rng=1)) < one_matrix / 4

    #: Bytes of one packing_lowrank-shaped float64 matrix.
    ONE_MATRIX = 1024 * 500 * 8

    def test_low_rank_generation(self):
        # The noise is added to the structure in its own buffer, a chunk at a
        # time: one matrix plus chunk-sized scratch.
        peak = self.peak(lambda: environments.make_low_rank(1024, 500, 2, 0.05, 3))
        assert peak < 1.25 * self.ONE_MATRIX

    def test_sparse_dictionary_generation(self):
        peak = self.peak(lambda: environments.make_sparse_dictionary(1024, 500, 8, 3, 0.05, 3))
        assert peak < 1.25 * self.ONE_MATRIX

    @pytest.mark.parametrize("noise", ["uniform", "sign"])
    def test_iid_stochastic_generation(self, noise):
        # The noise is drawn a block of rounds at a time into the output.
        means = np.linspace(-0.5, 0.5, 500)
        peak = self.peak(
            lambda: environments.make_iid_stochastic(1024, 500, means, noise, 0.5, seed=3)
        )
        assert peak < 1.25 * self.ONE_MATRIX

    def test_bounded_variation_generation(self):
        # The halving adversary is clustered: its 10 x 1024 distinct rows and
        # a few K-long arrays, never the dense matrix.
        peak = self.peak(lambda: environments.make_bounded_variation_adversary(1024, 500, seed=3))
        assert peak < 0.1 * self.ONE_MATRIX

    #: Bytes of one float64 temporary of a kernel block.
    BLOCK_BYTES = core.BLOCK_ENTRIES * 8

    def test_binary_write(self, tmp_path):
        # The hedge_dense input: written from the matrix's own buffer.
        matrix = game_rng(2).uniform(-1.0, 1.0, (10_000, 100))
        peak = self.peak(lambda: matrix_io.write_matrix_binary(tmp_path / "m.bin", matrix))
        assert peak < self.BLOCK_BYTES

    def test_hedge_dense_streams_its_matrix_file(self, tmp_path):
        # The hedge_dense game on its 8 MB file: opened, played and summed a
        # block of rows at a time, never read whole.
        matrix = game_rng(2).uniform(-1.0, 1.0, (10_000, 100))
        matrix_io.write_matrix_binary(tmp_path / "m.bin", matrix)
        del matrix
        spec = environments.EnvironmentSpec("finite_matrix", {"path": str(tmp_path / "m.bin")})

        def game():
            oracle = environments.make_environment(spec)
            trajectory = hedge.play_hedge(oracle, rng=1)
            return analysis.empirical_regret(trajectory, oracle)

        assert self.peak(game) < 1.5 * 2**20

    def test_export_streams_its_matrix_file(self, tmp_path):
        # A binary file exported as binary: one block of rows at a time, so
        # four times the rounds peak the same, within one block.
        peaks = []
        for rounds in (4096, 4 * 4096):
            source = tmp_path / f"{rounds}.bin"
            matrix_io.write_matrix_binary(source, game_rng(2).uniform(-1.0, 1.0, (rounds, 100)))
            spec = environments.EnvironmentSpec("finite_matrix", {"path": str(source)})
            peaks.append(
                self.peak(lambda: environments.export_environment(spec, tmp_path / "out", "binary"))
            )
        assert abs(peaks[1] - peaks[0]) < self.BLOCK_BYTES
        assert peaks[1] < 4 * self.BLOCK_BYTES

    def file_game_peak(self, tmp_path, shape, play):
        """Peak of ``play`` on a uniform binary matrix file of ``shape``, opened within the game."""
        path = tmp_path / "m.bin"
        matrix_io.write_matrix_binary(path, game_rng(2).uniform(-1.0, 1.0, shape))
        return self.peak(lambda: play(environments.MatrixFileOracle(path)))

    def test_packing_game_streams_its_matrix_file(self, tmp_path):
        # At eps = 1 the packing is expert 0 alone, so the one phase is one
        # column wide: its blocks are read a block_rounds(K) of whole rows at
        # a time, not the 26 MB file at once.
        peak = self.file_game_peak(
            tmp_path, (16384, 200), lambda oracle: many_experts.play_many_experts(oracle, 1.0, 1)
        )
        assert peak < 4 * 2**20

    def test_meta_game_streams_its_matrix_file(self, tmp_path):
        # A 13 MB file, wide beside the copies' O(T * R) record of 1024 rounds.
        peak = self.file_game_peak(
            tmp_path, (1024, 1600), lambda oracle: many_experts.play_meta(oracle, seed=1)
        )
        assert peak < 4 * 2**20

    def test_meta_game_keeps_copy_reports(self):
        # 15 copies over 20000 rounds. The game keeps its own record and one
        # report per copy, not the copies' rounds; its peak holds the T x R
        # feedback and pick columns and one copy's game at a time.
        oracle = environments.make_clustered_binary(20_000, 1000, 8, 3)
        held, peak = self.held_and_peak(lambda: many_experts.play_meta(oracle, seed=3))
        assert held < 128 * 20_000
        assert peak < 640 * 20_000

    def test_csv_write(self, tmp_path):
        # Rows are formatted and written a block at a time.
        matrix = game_rng(2).uniform(-1.0, 1.0, (2000, 100))
        peak = self.peak(lambda: matrix_io.write_matrix_csv(tmp_path / "m.csv", matrix))
        assert peak < 0.5 * matrix.nbytes

    def test_csv_read(self, tmp_path):
        # Blocks of parsed rows, joined once: the returned matrix and one more.
        matrix = game_rng(2).uniform(-1.0, 1.0, (4000, 100))
        matrix_io.write_matrix_csv(tmp_path / "m.csv", matrix)
        peak = self.peak(lambda: matrix_io.read_matrix_csv(tmp_path / "m.csv"))
        assert peak < 2.25 * matrix.nbytes

    def test_schedule_pass_meta_lowrank(self):
        # The meta_lowrank shape: every copy of the grid, one 0.8 MB matrix.
        oracle = environments.make_low_rank(512, 200, 2, 0.05, 3)
        epsilons = core.build_grid(512)
        assert len(epsilons) == 9
        peak = self.peak(lambda: many_experts._schedule(oracle, epsilons))
        assert peak < 8 * self.BLOCK_BYTES

    def test_schedule_pass_packing_lowrank(self):
        oracle = environments.make_low_rank(1024, 500, 2, 0.05, 3)
        assert many_experts._schedule(oracle, [2.0**-7])[0][0].size > 250  # a large packing
        peak = self.peak(lambda: many_experts._schedule(oracle, [2.0**-7])[0])
        assert peak < 8 * self.BLOCK_BYTES

    @pytest.mark.parametrize("active", [125, 250, 499])
    def test_certificate_on_references_spaced_four_epsilon(self, active):
        # Every gap of every row is wide: the rows are past the gap cutoff.
        epsilon = 2.0**-9
        rounds = core.block_rounds(500)
        reference = np.tile(-1.0 + 4.0 * epsilon * np.arange(active), (rounds, 1))
        values = game_rng(1).uniform(-1.0, 1.0, (rounds, 500))
        low, high = values.min(axis=1), values.max(axis=1)
        peak = self.peak(
            lambda: many_experts.uncovered_rows(values, low, high, reference, 2.0 * epsilon)
        )
        assert peak < 8 * self.BLOCK_BYTES

    def test_schedule_pass_on_references_spaced_four_epsilon(self):
        # 250 experts 4 eps apart join at round 1; the other 250 sit eps from
        # one of them, so the set never saturates and every row has 251 wide gaps.
        epsilon = 2.0**-9
        spaced = -1.0 + 4.0 * epsilon * np.arange(250)
        matrix = np.tile(np.concatenate((spaced, spaced + epsilon)), (256, 1))
        oracle = environments.MatrixOracle(matrix)
        assert many_experts._schedule(oracle, [epsilon])[0][0].size == 250
        peak = self.peak(lambda: many_experts._schedule(oracle, [epsilon])[0])
        assert peak < 8 * self.BLOCK_BYTES

    def phase_peak(self, oracle, epsilons, expected):
        """Peak of the phase pass alone: every copy's kernel call, schedules precomputed."""
        schedules = many_experts._schedule(oracle, epsilons)
        return self.peak(lambda: [
            many_experts._play_packing(oracle, e, schedule, game_rng(r, 0), r, expected)
            for r, (e, schedule) in enumerate(zip(epsilons, schedules))
        ])

    def test_phase_pass_meta_lowrank(self):
        # Every copy of the grid with expected losses, as the meta-tuner plays them.
        oracle = environments.make_low_rank(512, 200, 2, 0.05, 3)
        epsilons = core.build_grid(512)
        peak = self.phase_peak(oracle, epsilons, expected=True)
        assert peak < 8 * self.BLOCK_BYTES

    def test_phase_pass_packing_lowrank(self):
        oracle = environments.make_low_rank(1024, 500, 2, 0.05, 3)
        peak = self.phase_peak(oracle, [2.0**-7], expected=False)
        assert peak < 8 * self.BLOCK_BYTES

    @pytest.mark.parametrize("seed", [0, 4242])
    def test_schedule_pass_readme_shape(self, seed):
        # 2048-round blocks over 8 candidates, re-certified after false flags.
        oracle = environments.make_clustered_binary(5000, 100_000, 8, seed=seed)
        assert many_experts._schedule(oracle, [0.5])[0][2]["recertifications"] > 0
        peak = self.peak(lambda: many_experts._schedule(oracle, [0.5])[0])
        assert peak < 8 * self.BLOCK_BYTES

    def test_packing_clustered(self):
        oracle = environments.make_clustered_binary(5000, 100_000, 8, seed=7)
        # One K-long float64 vector is 0.8 MB; a T x K array would be 4 GB.
        peak = self.peak(lambda: many_experts.play_many_experts(oracle, epsilon=0.5, rng=7))
        assert peak < 2 * 100_000 * 8

    def test_bounded_variation_readme_shape(self):
        # The paper's bounded-variation application at T=5000, K=1e5: 18
        # distinct rows, where a dense T x K matrix would be 4 GB.
        oracle = environments.make_bounded_variation_adversary(5000, 100_000, seed=7)
        packing = self.peak(lambda: many_experts.play_many_experts(oracle, epsilon=0.5, rng=7))
        assert packing < 2 * 2**20
        # The meta game holds its 13 copies' O(T * R) feedback and pick columns.
        assert self.peak(lambda: many_experts.play_meta(oracle, seed=7)) < 6 * 2**20


class TestRunOutputs:
    KIND_PARAMETERS = {
        "clustered_binary": {"K": 40, "N": 5},
        "low_rank": {"K": 30, "d": 2, "epsilon_noise": 0.05},
        "sparse_dictionary": {"K": 30, "n": 6, "k": 2, "epsilon_noise": 0.05},
        "bounded_variation": {"K": 64},
        "iid_stochastic": {"K": 6, "means": [0.1, -0.2, 0.3, 0.0, 0.5, -0.5],
                           "noise": "uniform", "noise_scale": 0.4},
        "finite_matrix": {},
    }

    @pytest.mark.parametrize("kind", list(KIND_PARAMETERS))
    @pytest.mark.parametrize("algorithm", ["hedge", "many_experts", "meta_tuner"])
    def test_run_bytes_match_reference(self, tmp_path, monkeypatch, kind, algorithm):
        parameters = dict(self.KIND_PARAMETERS[kind])
        if kind == "finite_matrix":
            parameters["path"] = str(tmp_path / "losses.bin")
            matrix_io.write_matrix_binary(parameters["path"], game_rng(4).uniform(-1, 1, (48, 9)))
        config = tmp_path / "config.yaml"
        config.write_text(
            yaml.safe_dump(
                {
                    "game": {"algorithm": algorithm, "T": 48, "epsilon": 0.125, "seed": 3},
                    "environment": {"kind": kind, **parameters},
                }
            )
        )
        argv = ["run", "--config", str(config), "--out-dir"]
        assert cli.main(argv + [str(tmp_path / "fast")]) == 0
        monkeypatch.setattr(hedge, "play_hedge", reference.play_hedge)
        monkeypatch.setattr(many_experts, "play_many_experts", reference.play_many_experts)
        monkeypatch.setattr(many_experts, "play_meta", reference.play_meta)
        assert cli.main(argv + [str(tmp_path / "slow")]) == 0
        for name in ("trajectory.csv", "summary.json"):
            assert (tmp_path / "fast" / name).read_bytes() == (tmp_path / "slow" / name).read_bytes()


def reference_csv(trajectory):
    """``trajectory.csv`` as ``csv.writer`` writes it, row by row with ``repr`` floats."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["t", "phase", "packing_size", "chosen_expert", "loss", "cumulative_loss"])
    for i in range(len(trajectory)):
        writer.writerow(
            [
                int(trajectory.t[i]),
                int(trajectory.phase[i]),
                int(trajectory.packing_size[i]),
                int(trajectory.chosen[i]),
                repr(float(trajectory.incurred[i])),
                repr(float(trajectory.cumulative[i])),
            ]
        )
    return out.getvalue().encode()


@pytest.mark.parametrize("block_rows", [3, cli.CSV_BLOCK_ROWS])
def test_trajectory_csv_matches_csv_writer(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
    # Longer than one module block, so both block sizes cross a block boundary
    # and the repeating patterns repeat values on both sides of it.
    rounds = 1024 + 6
    incurred = np.resize([-0.0, 0.0, 1e-05, 1.0, -1.0, 0.1, 2.0**-60, -0.5], rounds)
    trajectory = GameTrajectory.from_rounds(
        chosen=np.resize([0, 3, 2, 0, 9, 100_000, 1, 123_456_789, 5], rounds),
        incurred=incurred,
        packing_size=1 + np.arange(rounds) // 200,
        phase=np.ones(rounds, dtype=np.int64),  # one value, as plain hedge writes
    )
    trajectory.cumulative[2] = 3.0  # an integer-valued float
    trajectory.cumulative[4:6] = [-0.0, 0.0]  # both zeros in one block of 3 rows
    cli.write_trajectory_csv(tmp_path / "fast.csv", trajectory)
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == reference_csv(trajectory)
    assert b"\r\n3,1,1,2,1e-05,3.0\r\n" in fast
    assert b"\r\n5,1,1,9,-1.0,-0.0\r\n6,1,1,100000,0.1,0.0\r\n" in fast
    assert b"\r\n1025,1,6,123456789,-0.0," in fast and b"\r\n1026,1,6,5,0.0," in fast
    # An all-distinct column (with both zeros in one block of 3 rows) and one
    # with exactly half its values distinct in each block of 1024 rows.
    trajectory.incurred = np.linspace(-1.0, 1.0, rounds)
    trajectory.incurred[4:6] = [-0.0, 0.0]
    trajectory.packing_size = np.arange(rounds, dtype=np.int64) // 2
    cli.write_trajectory_csv(tmp_path / "distinct.csv", trajectory)
    assert (tmp_path / "distinct.csv").read_bytes() == reference_csv(trajectory)
    assert b"\r\n5,1,2,9,-0.0,-0.0\r\n6,1,2,100000,0.0,0.0\r\n" in reference_csv(trajectory)


#: Few distinct values, so most of a block repeats them.
FLOAT_POOL = [-0.0, 0.0, 1.0, -1.0, 0.5, 1e-05, 5e-324, -2.0**-60, 1e300]
INT_POOL = [0, 1, 7, 99_999, 100_000, 2**62]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def column(pool, values, size=None):
    """``size`` entries (any number if None), all from ``pool`` or all from ``values``."""
    return st.lists(st.sampled_from(pool), min_size=size or 0, max_size=size) | st.lists(
        values, min_size=size or 0, max_size=size
    )


@settings(max_examples=60)
@given(
    data=st.data(),
    incurred=column(FLOAT_POOL, FINITE),
    block_rows=st.sampled_from([1, 2, 3, cli.CSV_BLOCK_ROWS]),
)
def test_trajectory_csv_matches_csv_writer_on_drawn_tables(
    tmp_path_factory, data, incurred, block_rows
):
    rounds = len(incurred)
    ints = [data.draw(column(INT_POOL, st.integers(0, 2**63 - 1), rounds)) for _ in range(3)]
    trajectory = GameTrajectory(
        t=np.arange(1, rounds + 1, dtype=np.int64),
        chosen=np.array(ints[0], dtype=np.int64),
        incurred=np.array(incurred, dtype=np.float64),
        cumulative=np.array(data.draw(column(FLOAT_POOL, FINITE, rounds)), dtype=np.float64),
        packing_size=np.array(ints[1], dtype=np.int64),
        phase=np.array(ints[2], dtype=np.int64),
    )
    path = tmp_path_factory.getbasetemp() / "drawn.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
        cli.write_trajectory_csv(path, trajectory)
    assert path.read_bytes() == reference_csv(trajectory)
