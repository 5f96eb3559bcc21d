"""Exponential weights over a fixed finite expert set, with an anytime learning rate.

Weights live in the natural-log domain with the maximum subtracted, so
distributions stay finite for arbitrarily long games and arbitrarily large
cumulative losses.  One kernel, :func:`exponential_weights`, plays a whole
game in one call: a sequence of segments, each a fresh hedge over a prefix of
the columns.  Plain hedge and the accuracy-grid meta-learner are one segment,
and a packing game is one segment per phase.  Like every other pass over a
loss matrix, the game goes in fixed blocks of rounds, ``core.block_rounds``
of its widest segment's width, and one block may span many short phases.
Each block takes three steps, :func:`running_totals`,
:func:`totals_to_weights` and :func:`inverse_cdf_pick`, at the rates of
:func:`learning_rates`; the per-round hedge in ``tests/reference.py`` is the
same learner one round at a time.  Inverse-CDF sampling is scale-invariant,
so every learner picks from the unnormalised weights ``exp(min - total)``;
only the meta-tuner's feedback, each copy's expected loss, divides them by
their sum.

The block's two running sums, over rounds for the log-weights and over
experts for the inverse CDF, are many independent float64 chains, and each
is one ``np.add.accumulate`` on a ``complex128`` view that pairs two of
them.  A complex add is two independent IEEE float64 adds and the
accumulation never reassociates, so every chain keeps the bits of its own
float ``cumsum`` while the pair costs about one chain's time.

The kernel calls ufuncs directly (``np.add.accumulate``,
``np.minimum.reduce``, ``np.add.reduce``) rather than the functions that
wrap them: a game runs its blocks and lanes thousands of times on small
arrays, where the wrappers' Python layer is a large share of the cost.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Callable, Sequence

import numpy as np

from .core import GameTrajectory, LossOracle, block_rounds, normalize_rng


def hedge_regret_bound(horizon: int, num_experts: int) -> float:
    """Worst-case expected-regret guarantee ``4 sqrt(T ln K)`` of this learner."""
    if horizon < 1 or num_experts < 1:
        raise ValueError("horizon and expert count must be >= 1")
    return 4.0 * math.sqrt(horizon * math.log(num_experts))


def learning_rates(starts: Sequence[int], widths: Sequence[int], n: int) -> np.ndarray:
    """Step size ``sqrt(8 ln K / s)`` of each of ``n`` rounds, ``s`` its clock in its segment.

    Segments are as in :func:`exponential_weights`; one of width ``K = 1`` steps 0.
    """
    starts = np.asarray(starts, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64)
    if widths.shape != starts.shape or starts.size < 1 or widths.min() < 1:
        raise ValueError(f"need at least one segment of at least one expert, got widths {widths}")
    if starts[0] != 0 or starts[-1] >= n or (np.diff(starts) < 1).any():
        raise ValueError(f"segment starts must rise strictly from 0 below {n}, got {starts}")
    lengths = np.diff(starts, append=n)
    # Round clock within its segment, and the segment's scale 8 ln K.
    clock = np.arange(1, n + 1) - np.repeat(starts, lengths)
    scales = np.array([8.0 * math.log(k) for k in widths.tolist()])
    return np.sqrt(np.repeat(scales, lengths) / clock)


def exponential_weights(
    rows: Callable[[int, int, int], np.ndarray],
    starts: Sequence[int],
    widths: Sequence[int],
    uniforms: np.ndarray,
    expected: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Exponential weights over a game of consecutive segments, one round per uniform.

    Segment ``p`` plays rounds ``starts[p] + 1 .. starts[p + 1]`` (the last
    one up to ``T = len(uniforms)``) over the first ``widths[p]`` columns,
    from uniform weights and with its own round clock: the packing learner's
    phases, or one segment for plain hedge.  ``starts`` begins at 0 and
    increases strictly below ``T``.  ``rows(j0, j1, width)`` gives the losses
    of rounds ``j0 + 1 .. j1`` over the first ``width`` columns as a
    ``(j1 - j0) x width`` block, and ``uniforms[j]`` is the one draw of round
    ``j + 1``.  The log-weights of the ``s``-th round of a segment of width
    ``K`` are ``-sum_{r < s} eta_r l_r`` with ``eta_r = sqrt(8 ln K / r)``,
    summed in round order (a running row carried across blocks, then one
    ``np.add.accumulate`` per segment in a block), so they carry the bits of
    the per-round hedge in ``tests/reference.py``.  Each round picks an
    expert by inverse CDF on the weights ``exp(lw - max lw)``, as that hedge
    samples round by round.

    Every block has ``core.block_rounds(max(widths))`` rounds (the last one
    fewer), so it holds at most ``core.BLOCK_ENTRIES`` entries.  It is read
    in one ``rows`` call at the width of the widest segment it meets, however
    many segments it spans.  Columns beyond a round's own width hold
    ``+inf`` log-loss, so they get zero weight.

    Returns the chosen column and the incurred loss of every round and, with
    ``expected``, the expected loss ``p @ l`` per round under the
    distribution ``p``, the weights divided by their sum, else ``None``.
    The sums of ``p`` and of ``p @ l`` are taken per segment over its exact
    width, since zero padding regroups their pairwise sums.
    """
    n = len(uniforms)
    eta = learning_rates(starts, widths, n)
    starts, widths = np.asarray(starts).tolist(), np.asarray(widths).tolist()
    ends = starts[1:] + [n]
    step = block_rounds(max(widths))  # rounds per block, the last one fewer

    chosen = np.empty(n, dtype=np.int64)
    incurred = np.empty(n, dtype=np.float64)
    means = np.empty(n, dtype=np.float64) if expected else None
    last = None  # the previous block's last running row
    for j0 in range(0, n, step):
        j1 = min(j0 + step, n)
        s = bisect.bisect_right(starts, j0) - 1  # the segment of round j0 + 1
        e = bisect.bisect_left(starts, j1)  # segments s .. e - 1 meet rounds j0 + 1 .. j1
        # Lane (a, b, k): rows a .. b - 1 of the block, over k columns.
        lanes = [(max(starts[q], j0) - j0, min(ends[q], j1) - j0, widths[q]) for q in range(s, e)]
        width = max(widths[s:e])
        carry = last[: widths[s]] if starts[s] < j0 else None  # segment s goes on from it
        # The block's temporaries live in _play_block only, so they are freed
        # before the next block allocates its own.
        chosen[j0:j1], incurred[j0:j1], block_means, last = _play_block(
            rows(j0, j1, width), lanes, eta[j0:j1], carry, uniforms[j0:j1], expected
        )
        if means is not None:
            means[j0:j1] = block_means
    return chosen, incurred, means


def running_totals(
    block: np.ndarray, eta: np.ndarray, carry: np.ndarray | None, lanes: list[tuple[int, int, int]]
) -> np.ndarray:
    """Sums of ``eta_r l_r`` over the earlier rounds of each round's lane: the negated log-weights.

    Row ``i`` of the ``(m + 1) x width`` result is for the block's round
    ``i + 1``.  Lane ``(a, b, k)``, rows ``a .. b - 1`` over ``k`` columns,
    sums from a zero row (the first lane from ``carry`` if given), and its
    columns past ``k`` hold ``+inf``.  The last row carries on to the next
    block over the last lane's width.

    Each lane's ``np.add.accumulate`` over rounds runs on a ``complex128``
    view of the buffer, which pairs adjacent columns: a complex add is two
    independent float64 adds and the accumulation adds in order, so every
    column gets the bits of its own float ``cumsum`` while two dependent
    chains run at once.  The buffer is padded to an even width, and the cell
    past an odd lane width enters the paired sum too, so the padding column
    and row 0 past the carry are set to 0 first.
    """
    m, width = eta.size, max(k for _, _, k in lanes)
    if block.shape != (m, width):
        raise ValueError(f"loss block has shape {block.shape}, expected {(m, width)}")
    buffer = np.empty((m + 1, width + width % 2))
    total = buffer[:, :width]
    np.multiply(eta[:, None], block, out=total[1:])
    buffer[:, width:] = 0.0
    buffer[0] = 0.0
    if carry is not None:
        buffer[0, : carry.size] = carry
    if len(lanes) > 1:
        buffer[[a for a, _, _ in lanes[1:]]] = 0.0
    for a, b, k in lanes:
        lane = buffer[a : b + (b == m), : k + k % 2].view(np.complex128)
        np.add.accumulate(lane, axis=0, out=lane)
        if k < width:
            total[a:b, k:] = np.inf
    return total


def totals_to_weights(total: np.ndarray) -> np.ndarray:
    """Weights ``exp(min - total)`` of each row, in place: the kernel's one pick rule.

    Inverse-CDF sampling is scale-invariant, so the weights are never
    normalised to pick; each row's largest weight is exactly ``exp(0) = 1``.
    """
    # lw - max(lw) for lw = -total is min(total) - total, bit for bit.
    np.subtract(np.minimum.reduce(total, axis=1, keepdims=True), total, out=total)
    return np.exp(total, out=total)


def inverse_cdf_pick(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Per row ``i``, the column where its CDF passes ``uniforms[i]`` times the row total.

    Columns past a round's own width carry weight exactly ``0.0``, so the
    last cumulative weight is that round's total, and the pick lies within
    its width unless the draw reached the total.

    The weights are copied expert-major, with the round count padded to even
    by a zero round, and the ``np.add.accumulate`` over experts runs on the
    copy's ``complex128`` view, which pairs adjacent rounds: each round gets
    the bits of its own float ``cumsum`` (a complex add is two independent
    float64 adds), while two dependent chains run at once.
    """
    n, width = weights.shape
    cumulative = np.empty((width, n + n % 2))
    cumulative[:, n:] = 0.0
    cumulative[:, :n] = weights.T
    paired = cumulative.view(np.complex128)
    np.add.accumulate(paired, axis=0, out=paired)
    cumulative = cumulative[:, :n]
    threshold = uniforms * cumulative[-1]
    pick = np.add.reduce(cumulative <= threshold, axis=0)
    for i in (pick == width).nonzero()[0].tolist():
        # A guard on the input: the kernel's rows peak at exp(0) = 1, so
        # their total is >= 1 and no draw in [0, 1) reaches it, but a draw
        # of 1.0 does.  Then every column counted, the zero-weight padding
        # too: take the last positive weight, inside the round's width.
        pick[i] = weights[i].nonzero()[0][-1]
    return pick


def _play_block(
    block: np.ndarray,
    lanes: list[tuple[int, int, int]],
    eta: np.ndarray,
    carry: np.ndarray | None,
    uniforms: np.ndarray,
    expected: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """Picks, incurred losses, expected losses (or None) and the last running row of a block."""
    total = running_totals(block, eta, carry, lanes)
    last = total[-1].copy()
    weights = totals_to_weights(total[:-1])
    pick = inverse_cdf_pick(weights, uniforms)
    means = None
    if expected:
        block = np.ascontiguousarray(block)
        means = np.empty(eta.size)
        for a, b, k in lanes:
            p = weights[a:b, :k]
            p /= np.add.reduce(p, axis=1, keepdims=True)
            means[a:b] = np.vecdot(p, block[a:b, :k])
    return pick, block[np.arange(eta.size), pick], means, last


def play_hedge(oracle: LossOracle, rng: int | np.random.Generator = 0) -> GameTrajectory:
    """Run exponential weights over the oracle's ``T`` rounds.

    Each round samples an expert from the current weights (one uniform draw)
    and incurs its loss; the weights then update on the full loss vector.
    The whole game is one :func:`exponential_weights` pass.
    """
    T = oracle.horizon()
    K = oracle.num_experts()
    gen, seed = normalize_rng(rng)
    chosen, incurred, _ = exponential_weights(
        lambda j0, j1, _: oracle.rows(j0, j1), [0], [K], gen.random(T)
    )
    extras: dict[str, Any] = {"algorithm": "hedge", "final_packing": K, "num_phases": 1}
    return GameTrajectory.from_rounds(
        chosen, incurred, np.full(T, K), np.ones(T), seed, extras
    )
