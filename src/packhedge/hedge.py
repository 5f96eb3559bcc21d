"""Exponential weights over a fixed finite expert set, with an anytime learning rate.

Weights live in the natural-log domain with max-subtraction normalization, so
distributions stay finite for arbitrarily long games and arbitrarily large
cumulative losses.  One kernel, :func:`exponential_weights`, plays a whole
game in one call: a sequence of segments, each a fresh hedge over a prefix of
the columns.  Plain hedge and the accuracy-grid meta-learner are one segment,
and a packing game is one segment per phase, played in blocks of rounds that
span many short phases at once.  Each block takes three steps,
:func:`running_totals`, :func:`totals_to_weights` and
:func:`inverse_cdf_pick`, at the rates of :func:`learning_rates`; the
per-round hedge in ``tests/reference.py`` is the same learner one round at a
time.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np

from .core import GameTrajectory, LossOracle, normalize_rng

#: Loss entries per kernel block, so each float64 temporary of a block is 128 KB.
BLOCK_ENTRIES = 1 << 14


def hedge_regret_bound(horizon: int, num_experts: int) -> float:
    """Worst-case expected-regret guarantee ``4 sqrt(T ln K)`` of this learner."""
    if horizon < 1 or num_experts < 1:
        raise ValueError("horizon and expert count must be >= 1")
    return 4.0 * math.sqrt(horizon * math.log(num_experts))


def block_rounds(num_experts: int) -> int:
    """Rounds per kernel block over ``num_experts`` columns (at least one)."""
    return max(1, BLOCK_ENTRIES // num_experts)


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
    normalize: bool = False,
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
    ``cumsum`` per segment in a block), so they carry the bits of the
    per-round hedge in ``tests/reference.py``.  Each round picks an expert by
    inverse CDF on the weights ``exp(lw - max lw)``, or on their
    normalisation with ``normalize``, as that hedge samples round by round.

    A block reads as many rounds as fit in ``BLOCK_ENTRIES`` entries at the
    width of its widest segment, in one ``rows`` call, however many segments
    it spans.  Columns beyond a round's own width hold ``+inf`` log-loss, so
    they get zero weight; the row sums of the normalisation and the expected
    losses are taken per segment over its exact width, since zero padding
    regroups their pairwise sums.

    Returns the chosen column and the incurred loss of every round and, with
    ``expected``, the expected loss ``p @ l`` per round under the normalised
    distribution ``p`` (so ``expected`` needs ``normalize``), else ``None``.
    """
    if expected and not normalize:
        raise ValueError("expected losses need the normalised weights (normalize=True)")
    n = len(uniforms)
    eta = learning_rates(starts, widths, n)
    starts, widths = np.asarray(starts).tolist(), np.asarray(widths).tolist()
    last_column = np.repeat(np.subtract(widths, 1), np.diff(starts, append=n))

    chosen = np.empty(n, dtype=np.int64)
    incurred = np.empty(n, dtype=np.float64)
    means = np.empty(n, dtype=np.float64) if expected else None
    carry = None  # sum of eta_s * l_s over the rounds of a segment before the block
    for j0, j1, width, lanes, continues in _blocks(starts, widths, n):
        # The block's temporaries live in _play_block only, so they are freed
        # before the next block allocates its own.
        chosen[j0:j1], incurred[j0:j1], block_means, last = _play_block(
            rows(j0, j1, width), lanes, eta[j0:j1], carry, uniforms[j0:j1],
            last_column[j0:j1], normalize, expected,
        )
        if means is not None:
            means[j0:j1] = block_means
        carry = last[: lanes[-1][2]] if continues else None
    return chosen, incurred, means


def _blocks(starts: list[int], widths: list[int], n: int):
    """Yield ``(j0, j1, width, lanes, continues)`` for each block of rounds ``j0 + 1 .. j1``.

    A block extends over the next segment while its rounds still fit in
    ``BLOCK_ENTRIES`` at the width of its widest segment.  Segment ``q`` of
    the block is its own lane ``(a, b, k)``: rows ``a .. b - 1`` of the block,
    ``k`` columns.  ``continues`` says that the last segment goes on past the
    block.
    """
    ends = starts[1:] + [n]
    s = j0 = 0  # s is the segment of round j0 + 1
    while j0 < n:
        width = widths[s]
        j1 = min(ends[s], j0 + block_rounds(width))
        e = s + 1
        while e < len(starts) and j1 == starts[e]:
            wider = max(width, widths[e])
            if j0 + block_rounds(wider) <= j1:
                break
            width, j1 = wider, min(ends[e], j0 + block_rounds(wider))
            e += 1
        lanes = [(max(starts[q], j0) - j0, min(ends[q], j1) - j0, widths[q]) for q in range(s, e)]
        continues = j1 < ends[e - 1]
        yield j0, j1, width, lanes, continues
        j0, s = j1, (e - 1 if continues else e)


def running_totals(
    block: np.ndarray, eta: np.ndarray, carry: np.ndarray | None, lanes: list[tuple[int, int, int]]
) -> np.ndarray:
    """Sums of ``eta_r l_r`` over the earlier rounds of each round's lane: the negated log-weights.

    Row ``i`` of the ``(m + 1) x width`` result is for the block's round
    ``i + 1``.  Lane ``(a, b, k)``, rows ``a .. b - 1`` over ``k`` columns,
    sums from a zero row (the first lane from ``carry`` if given), columns
    past ``k`` hold ``+inf``, and the last row carries on to the next block.
    """
    m, width = eta.size, max(k for _, _, k in lanes)
    if block.shape != (m, width):
        raise ValueError(f"loss block has shape {block.shape}, expected {(m, width)}")
    total = np.empty((m + 1, width))
    np.multiply(eta[:, None], block, out=total[1:])
    if carry is None:
        total[0] = 0.0
    else:
        total[0, : carry.size] = carry
    if len(lanes) > 1:
        total[[a for a, _, _ in lanes[1:]]] = 0.0
    for a, b, k in lanes:
        lane = total[a : b + (b == m), :k]
        np.cumsum(lane, axis=0, out=lane)
        if k < width:
            total[a:b, k:] = np.inf
    return total


def totals_to_weights(
    total: np.ndarray, lanes: list[tuple[int, int, int]], normalize: bool
) -> np.ndarray:
    """Weights ``exp(min - total)`` of each row, in place; ``normalize`` divides by lane sums."""
    # lw - max(lw) for lw = -total is min(total) - total, bit for bit.
    np.subtract(total.min(axis=1, keepdims=True), total, out=total)
    np.exp(total, out=total)
    if normalize:
        for a, b, k in lanes:
            p = total[a:b, :k]
            p /= p.sum(axis=1, keepdims=True)
    return total


def inverse_cdf_pick(
    weights: np.ndarray, uniforms: np.ndarray, last_column: np.ndarray
) -> np.ndarray:
    """Per row ``i``, the column of ``0 .. last_column[i]`` where its CDF passes ``uniforms[i]``."""
    cumulative = np.cumsum(weights, axis=1)
    threshold = uniforms * cumulative[np.arange(len(weights)), last_column]
    pick = np.count_nonzero(cumulative <= threshold[:, None], axis=1)
    for i in np.flatnonzero(pick > last_column).tolist():
        # The draw reached the row total (a subnormal total can round it
        # up), so the zero-weight padding counted too: take the last
        # positive weight, which lies inside the round's width.
        pick[i] = np.flatnonzero(weights[i])[-1]
    return pick


def _play_block(
    block: np.ndarray,
    lanes: list[tuple[int, int, int]],
    eta: np.ndarray,
    carry: np.ndarray | None,
    uniforms: np.ndarray,
    last_column: np.ndarray,
    normalize: bool,
    expected: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """Picks, incurred losses, expected losses (or None) and the last running row of a block."""
    total = running_totals(block, eta, carry, lanes)
    last = total[-1].copy()
    weights = totals_to_weights(total[:-1], lanes, normalize)
    pick = inverse_cdf_pick(weights, uniforms, last_column)
    means = None
    if expected:
        block = np.ascontiguousarray(block)
        means = np.empty(eta.size)
        for a, b, k in lanes:
            means[a:b] = np.vecdot(weights[a:b, :k], block[a:b, :k])
    return pick, block[np.arange(eta.size), pick], means, last


def play_hedge(oracle: LossOracle, rng: int | np.random.Generator = 0) -> GameTrajectory:
    """Run exponential weights over the oracle's ``T`` rounds.

    Each round samples an expert from the current weights (one uniform draw)
    and incurs its loss; the weights then update on the full loss vector.
    The whole game is one :func:`exponential_weights` pass.
    """
    T = oracle.horizon()
    if T < 1:
        raise ValueError(f"the oracle must have at least one round, got {T}")
    K = oracle.num_experts()
    gen, seed = normalize_rng(rng)
    # Sampling is scale-invariant, so the unnormalized weights suffice.
    chosen, incurred, _ = exponential_weights(
        lambda j0, j1, _: oracle.rows(j0, j1), [0], [K], gen.random(T)
    )
    extras: dict[str, Any] = {"algorithm": "hedge", "num_experts": K}
    return GameTrajectory.from_rounds(
        chosen, incurred, np.full(T, K), np.ones(T), seed, extras
    )
