"""Exponential weights for very large expert sets via an online packing.

The learner keeps a small active set ``S`` that it grows into a
``2*epsilon``-separated packing of the observed loss sequence: whenever some
expert sits farther than ``2*epsilon`` from every member of ``S`` at the
current round, it is admitted and the inner exponential-weights engine is
restarted over the enlarged set with a fresh learning-rate clock.  Between
restarts the learner behaves exactly like plain exponential weights on ``S``.

The admission schedule never depends on the learner's draws, so a game is a
schedule pass followed by one :func:`hedge.exponential_weights` pass over all
of its phases, each phase a segment of the kernel over a prefix of the active
set.  The schedule pass reads a block of rounds at a time and certifies
with :func:`uncovered_rows` that the active set at the start of the block
covers every candidate of a round; coverage only grows with the active set,
so :func:`expand_packing`, the exact query by the one coverage kernel,
:func:`uncovered_mask`, and the admission walk, runs only on the rounds left
flagged, until the active set holds every coverage candidate.  When a
flagged round admits no one after the set has grown, the block's remaining
flagged rounds are certified again against the grown set, so one early
admission does not leave the rest of a block flagged.
The packing starts at expert 0, the first coverage candidate, and admits only
candidates, so the pass keeps the active set as columns of the candidate
block: each block is read once, and an exact query runs on the block's row
already in hand.

The accuracy grid, :func:`play_meta`, runs ``R = ceil(log2 T)`` copies of
the learner at accuracies ``1, 1/2, 1/4, ...``: copy ``r`` draws from the
stream ``game_rng(seed, r)``, so it replays standalone bit for bit, and a
meta layer, drawing from ``game_rng(seed, 0)``, is one hedge pass over the
copies' ``T x R`` expected losses and plays the action of the copy it picks.
One pass serves several accuracies: the meta-tuner's copies grow their
packings in lockstep, so each block is read, and its row extremes taken,
once for the whole grid (a binary matrix file's schedule blocks once per
meta game), while each accuracy certifies, walks and re-certifies against
its own active set and keeps its own counts, which the meta game sums.  A standalone game
is the same pass with one accuracy.

The per-query and per-block paths call the ufunc or ``ndarray`` method that
a numpy convenience function ends in (``np.add.reduce`` for
``count_nonzero``, a copy sorted in place for ``np.sort``): a game makes
thousands of these calls on small arrays, where the wrappers' Python layer
costs as much as the work, and the arithmetic is the same.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Sequence

import numpy as np

from . import hedge
from .core import GameTrajectory, LossOracle, block_rounds, build_grid, game_rng, normalize_rng


def _clear_of(values: np.ndarray, lo: np.ndarray, hi: np.ndarray, threshold: float) -> np.ndarray:
    """Which ``values`` lie farther than ``threshold`` from both ``lo`` and ``hi``.

    The two-sided coverage rule for a value between the sorted neighbours
    ``lo`` and ``hi``: only they can be its nearest reference, since rounded
    subtraction is monotone.  :func:`uncovered_mask` applies it to each
    value, and :func:`uncovered_rows` to each wide gap of a round, so the
    certificate flags a round by the kernel's own expressions.
    """
    return (values - lo > threshold) & (hi - values > threshold)


def uncovered_mask(
    values: np.ndarray, reference: np.ndarray, threshold: float
) -> np.ndarray:
    """Which ``values`` lie farther than ``threshold`` from every ``reference`` value.

    The coverage kernel of the package: ``min_s |values[i] - reference[s]| >
    threshold`` for every ``i`` in ``O((n + m) log m)``.  Only the two sorted
    neighbours of a value can attain the minimum, and rounded subtraction is
    monotone, so the answer is bit-identical to the dense ``n x m`` scan.
    The values are searched in sorted order, where consecutive searches
    reuse the previous position; each lands where an unsorted search would.
    The argsort pays for itself only on a fresh row, which is what every
    real call gets: a plain ``searchsorted`` of the unsorted values wins a
    ``timeit`` loop over one repeated row, but it made the schedule pass of
    a ``packing_lowrank``-shaped game (T=1024, K=500, eps=2^-7) about 20%
    slower, 10.1 against 12.1 ms per game over 8 rotating oracles.
    """
    # padded[pos] is the largest reference below the value, padded[pos + 1]
    # the smallest at or above it; the infinities stand in for a missing side.
    padded = np.empty(reference.size + 2)
    padded[0], padded[-1] = -np.inf, np.inf
    ordered = padded[1:-1]
    ordered[:] = reference
    ordered.sort()
    order = values.argsort()
    pos = np.empty(values.shape, dtype=np.intp)
    pos[order] = ordered.searchsorted(values[order])
    return _clear_of(values, padded[pos], padded[pos + 1], threshold)


def expand_packing(
    values: np.ndarray, active: np.ndarray, threshold: float
) -> tuple[np.ndarray, list[int]]:
    """Admit the columns of one round's ``values`` that the ``active`` columns leave uncovered.

    One coverage-kernel call finds the columns farther than ``threshold``
    from every active column.  They are walked in ascending order, and each
    one still farther than ``threshold`` from every column admitted earlier
    in the round is admitted.  This is the sequence that re-asking for the
    smallest uncovered column after every admission produces, since
    admissions only shrink the uncovered set.  Returns the grown active
    columns, in admission order, and the admitted columns.
    """
    uncovered = uncovered_mask(values, values.take(active), threshold).nonzero()[0]
    admitted: list[float] = []  # values admitted this round, kept sorted
    added: list[int] = []
    for k, value in zip(uncovered.tolist(), values[uncovered].tolist()):
        pos = bisect.bisect_left(admitted, value)
        if pos > 0 and value - admitted[pos - 1] <= threshold:
            continue
        if pos < len(admitted) and admitted[pos] - value <= threshold:
            continue
        admitted.insert(pos, value)
        added.append(k)
    return np.concatenate((active, np.array(added, dtype=np.int64))), added


def uncovered_rows(
    values: np.ndarray, low: np.ndarray, high: np.ndarray, reference: np.ndarray, threshold: float
) -> np.ndarray:
    """Which rows of ``values`` may hold a value farther than ``threshold`` from its ``reference`` row.

    The block certificate of the coverage kernel, for ``b x n`` values with
    row minima ``low`` and row maxima ``high``, and ``b x m`` references
    (``m >= 1``).  The extremes are arguments so that a block's are taken
    once, however many times and against however many active sets its rows
    are certified.  A value can only be uncovered inside a *wide gap* of its
    sorted reference row padded with ``-inf`` and ``+inf``: two neighbours at
    least ``2 * threshold`` apart, since rounded subtraction is monotone and
    doubling is exact.  Each wide gap ``(lo, hi)`` is tested by the kernel's
    own rule, :func:`_clear_of`, so a row with at most ``log2(m) + 2`` wide gaps
    is flagged exactly when ``uncovered_mask(values[r], reference[r],
    threshold).any()``.  A row with more, where the ``O(n * gaps)`` test
    outgrows the ``O(n log m)`` query, is flagged untested.  Each gap test
    holds at most ``core.BLOCK_ENTRIES`` values, the kernel's block size.
    """
    width, m = values.shape[1], reference.shape[1]
    max_gaps = int(math.log2(m)) + 2
    ordered = reference.copy()
    ordered.sort(axis=1)
    # The two outer gaps are always wide and open to -inf or +inf, so half the
    # rule, on the row's extreme value (subtraction is monotone), tests each.
    flagged = (ordered[:, 0] - low > threshold) | (high - ordered[:, -1] > threshold)
    wide = ordered[:, 1:] - ordered[:, :-1] >= 2.0 * threshold
    flagged |= np.add.reduce(wide, axis=1) > max_gaps - 2
    wide &= ~flagged[:, None]
    # Inner gap (r, g), flat index r * (m - 1) + g, opens at ordered[r, g],
    # flat index r * m + g.
    gaps = wide.ravel().nonzero()[0]
    if gaps.size == 0:
        return flagged
    gap_rows = gaps // (m - 1)
    lows = ordered.ravel()[gaps + gap_rows]
    highs = ordered.ravel()[gaps + gap_rows + 1]
    step = block_rounds(width)
    for g0 in range(0, gaps.size, step):
        r = gap_rows[g0 : g0 + step]
        block = values[r]
        lo, hi = lows[g0 : g0 + step, None], highs[g0 : g0 + step, None]
        hit = _clear_of(block, lo, hi, threshold).any(axis=1)
        flagged[r[hit]] = True
    return flagged


def _schedule(
    oracle: LossOracle, epsilons: Sequence[float]
) -> list[tuple[np.ndarray, list[int], dict[str, int | None]]]:
    """The packings after the oracle's ``T`` rounds at each of ``epsilons``: the schedule pass.

    The packings of every accuracy grow in lockstep, one block of
    ``core.block_rounds(K)`` rounds over the ``K`` candidates at a time.  A
    block is read once (whole rows when every expert is a candidate) and its
    row extremes are taken once.  Then each accuracy whose active set is
    smaller than the candidate set certifies the block at once against its
    active set at the start of the block, whose losses are columns of the
    block, and the rounds the certificate flags run :func:`expand_packing`
    on their row of the block, in order.  When a flagged round admits no one
    and the set has grown since the block's last certification, the block's
    remaining flagged rows are certified again against the grown set, and
    only the rows still flagged are walked.  Every certification but a
    block's first follows an admitting round, so there are at most as many
    of them as admitting rounds.  Once an active set is as large as the
    candidate set no later round admits anyone, so that accuracy skips the
    later blocks, and once every accuracy has, nothing more is read.  Each
    accuracy's packing is the one a pass at that accuracy alone would grow.

    Returns, per accuracy, the active ids in admission order, the round at
    which each joined (0 for expert 0), which certifies the pairwise
    separation of the packing, and the counts of blocks, re-certifications
    of a block's flagged rows, and exact queries of that accuracy, with its
    ``saturation_round``: the round whose admissions made the active set as
    large as the candidate set, or ``None`` if it never grew that large.
    """
    ids = oracle.coverage_ids()
    if ids.size == 0 or ids[0] != 0:
        raise ValueError(f"coverage_ids() must start at expert 0, got {ids[:1].tolist()}")
    # Ids rising strictly from 0, as many as the experts, are every expert:
    # read whole rows, a view of a dense oracle's matrix, not a copy.
    columns = None if ids.size == oracle.num_experts() else ids
    T, step = oracle.horizon(), block_rounds(ids.size)
    # Per accuracy: its active set as columns of the candidate block, its
    # threshold, admission rounds and counts.
    packings = [
        [
            np.zeros(1, dtype=np.int64),
            2.0 * epsilon,
            [0],
            {"blocks": 0, "recertifications": 0, "exact_queries": 0},
        ]
        for epsilon in epsilons
    ]
    for t0 in range(0, T, step):
        growing = [packing for packing in packings if packing[0].size < ids.size]
        if not growing:
            break
        values = oracle.rows(t0, min(T, t0 + step), columns)
        low, high = np.minimum.reduce(values, axis=1), np.maximum.reduce(values, axis=1)
        for packing in growing:
            active, threshold, admitted_at, counts = packing
            rows, certified, added = np.arange(values.shape[0]), 0, []  # rows still to walk
            while rows.size and active.size < ids.size:
                if not added and active.size > certified:
                    sub = rows if certified else slice(None)  # first: all of values, no copy
                    block = values[sub]
                    # take, not fancy indexing: a C-ordered copy keeps the certificate's row sort fast.
                    reference = block.take(active, 1)
                    rows = rows[uncovered_rows(block, low[sub], high[sub], reference, threshold)]
                    counts["recertifications" if certified else "blocks"] += 1
                    certified = active.size
                    continue
                active, added = expand_packing(values[rows[0]], active, threshold)
                admitted_at += [t0 + int(rows[0]) + 1] * len(added)
                counts["exact_queries"] += 1
                rows = rows[1:]
            packing[0] = active
    for active, _, admitted_at, counts in packings:
        counts["saturation_round"] = admitted_at[-1] if active.size == ids.size else None
    return [(ids[active], admitted_at, counts) for active, _, admitted_at, counts in packings]


def packing_regret_bound(
    final_packing: int, phases: int, epsilon: float, horizon: int
) -> float:
    """Per-run regret guarantee ``2*eps*T + 2*p + 8*sqrt(T * K_p * ln K_p)``.

    ``final_packing`` and ``phases`` are the observed active-set size and phase
    count of a finished run.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not (1 <= phases <= final_packing):
        raise ValueError(
            f"need 1 <= phases <= final_packing, got phases={phases}, final_packing={final_packing}"
        )
    if not epsilon > 0.0:  # NaN fails it too
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return (
        2.0 * epsilon * horizon
        + 2.0 * phases
        + 8.0 * math.sqrt(horizon * final_packing * math.log(final_packing))
    )


def total_schedule(counts: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Several games' schedule-pass counts (a meta game's copies) added up.

    ``saturation_round`` is not summed: it becomes the latest one, or ``None``
    if some game's active set never grew as large as its candidate set.
    """
    total = {key: sum(c[key] for c in counts) for key in counts[0] if key != "saturation_round"}
    rounds = [c["saturation_round"] for c in counts]
    total["saturation_round"] = None if None in rounds else max(rounds)
    return total


def play_many_experts(
    oracle: LossOracle,
    epsilon: float = 0.5,
    rng: int | np.random.Generator = 0,
) -> GameTrajectory:
    """Run the packing learner over the oracle's ``T`` rounds at accuracy ``epsilon``.

    The active set starts at expert 0.  Each round samples an expert from
    the current phase's distribution (one uniform draw), then admits the
    round's uncovered experts; an admission restarts the inner hedge over the
    enlarged set, and otherwise the weights update on the active losses.  The
    trajectory records the phase and active-set size at the end of every
    round; its extras expose the final packing, the phase count, the
    admission certificate, and the counts of the schedule pass
    (``schedule``).
    """
    gen, seed = normalize_rng(rng)
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    return _play_packing(oracle, epsilon, _schedule(oracle, [epsilon])[0], gen, seed, False)[0]


def _play_packing(
    oracle: LossOracle,
    epsilon: float,
    schedule: tuple[np.ndarray, list[int], dict[str, int | None]],
    gen: np.random.Generator,
    seed: int | None,
    expected: bool,
) -> tuple[GameTrajectory, np.ndarray | None]:
    """The packing game at ``epsilon`` from its :func:`_schedule`: one kernel pass over its phases.

    The rest of :func:`play_many_experts`, and each copy of :func:`play_meta`,
    whose copies share one schedule pass over the accuracy grid.  Returns the
    game and, with ``expected``, its expected loss per round (a meta-tuner
    copy's feedback), else ``None``.
    """
    T = oracle.horizon()
    active, admitted, counts = schedule
    admitted_at = np.array(admitted, dtype=np.int64)
    # Phase p plays rounds starts[p] + 1 .. starts[p + 1] over the first sizes[p]
    # active experts (a prefix, since active is in admission order); the
    # losses of its last round update nothing.  An admission at round T opens
    # a phase with no rounds.
    starts = np.array(sorted(set(admitted)), dtype=np.int64)
    sizes = admitted_at.searchsorted(starts, side="right")
    played = starts < T
    picks, incurred, means = hedge.exponential_weights(
        lambda j0, j1, width: oracle.rows(j0, j1, active[:width]),
        starts[played], sizes[played], gen.random(T), expected=expected,
    )

    rounds = np.arange(1, T + 1)
    extras: dict[str, Any] = {
        "algorithm": "many_experts",
        "epsilon": epsilon,
        "final_active": active.tolist(),
        "admitted_at": admitted,
        "final_packing": int(active.size),
        "num_phases": int(starts.size),
        "restarts": list(zip(starts.tolist(), sizes.tolist())),
        "schedule": {**counts, "admitting_rounds": int(starts.size) - 1},
    }
    return GameTrajectory.from_rounds(
        active[picks],
        incurred,
        admitted_at.searchsorted(rounds, side="right"),
        starts.searchsorted(rounds, side="right"),
        seed,
        extras,
    ), means


def play_meta(oracle: LossOracle, seed: int = 0) -> GameTrajectory:
    """Run the accuracy grid over the oracle's ``T`` rounds from one master seed.

    Copy ``r`` draws from the stream ``game_rng(seed, r)`` and the meta layer
    from ``game_rng(seed, 0)``, so any copy can be replayed standalone.  One
    schedule pass grows the packings of the whole grid in lockstep, and each
    copy plays its kernel pass from its own packing, as
    :func:`play_many_experts` would: the same trajectory, bit for bit.  The
    meta layer is one hedge pass over the ``T x R`` feedback of the copies:
    each copy's expected loss under its own sampling distribution.

    The returned trajectory records the actually played expert per round; its
    extras carry the copies' summed schedule counts and one report per copy,
    ``copy_reports``: its extras and ``learner_cumulative``, not its rounds.
    """
    T = oracle.horizon()
    grid = build_grid(T)  # rejects an oracle of fewer than two rounds
    R = len(grid)

    feedback = np.empty((T, R))
    chosen, incurred, reports = [], [], []
    for r, (eps, schedule) in enumerate(zip(grid, _schedule(oracle, grid)), 1):
        copy, feedback[:, r - 1] = _play_packing(
            oracle, eps, schedule, game_rng(seed, r), None, expected=True
        )
        chosen.append(copy.chosen)
        incurred.append(copy.incurred)
        reports.append(copy.extras | {"learner_cumulative": copy.learner_cumulative})
    chosen_copy, _, _ = hedge.exponential_weights(
        lambda j0, j1, _: feedback[j0:j1], [0], [R], game_rng(seed, 0).random(T)
    )
    # R = ceil(log2 T) <= 32 for any u32 T, within the 64 choices of np.choose.
    played = np.choose(chosen_copy, chosen)
    realized = np.choose(chosen_copy, incurred)

    extras: dict[str, Any] = {
        "algorithm": "meta_tuner",
        "num_copies": R,
        "epsilons": list(grid),
        "chosen_copy": chosen_copy,
        "copy_reports": reports,
        "schedule": total_schedule([report["schedule"] for report in reports]),
    }
    return GameTrajectory.from_rounds(played, realized, np.full(T, R), np.ones(T), seed, extras)
