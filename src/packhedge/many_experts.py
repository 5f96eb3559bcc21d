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
so :func:`expand_packing`, the exact query and admission walk, runs only on
the rounds left flagged, until the active set holds every coverage
candidate.  When a flagged round admits no one after the set has
grown, the block's remaining flagged rounds are certified again against the
grown set, so one early admission does not leave the rest of a block flagged.
The packing starts at expert 0, the first coverage candidate, and admits only
candidates, so the pass keeps the active set as columns of the candidate
block: each block is read once, and an exact query runs on the block's row
already in hand.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Sequence

import numpy as np

from . import hedge
from .core import GameTrajectory, LossOracle, block_rounds, normalize_rng, uncovered_mask


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
    uncovered = np.flatnonzero(uncovered_mask(values, values.take(active), threshold))
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


def uncovered_rows(values: np.ndarray, reference: np.ndarray, threshold: float) -> np.ndarray:
    """Which rows of ``values`` may hold a value farther than ``threshold`` from its ``reference`` row.

    The block certificate of the coverage kernel, for ``b x n`` values and
    ``b x m`` references (``m >= 1``).  A value can only be uncovered inside a
    *wide gap* of its sorted reference row padded with ``-inf`` and ``+inf``:
    two neighbours at least ``2 * threshold`` apart, since rounded
    subtraction is monotone and doubling is exact.  Each wide gap ``(lo,
    hi)`` is tested with the kernel's own expressions, so a row with at most
    ``log2(m) + 2`` wide gaps is flagged exactly when
    ``uncovered_mask(values[r], reference[r], threshold).any()``.  A row with
    more, where the ``O(n * gaps)`` test outgrows the ``O(n log m)`` query, is
    flagged untested.  Each gap test holds at most ``core.BLOCK_ENTRIES``
    values, the kernel's block size.
    """
    width, m = values.shape[1], reference.shape[1]
    max_gaps = int(math.log2(m)) + 2
    ordered = np.sort(reference, axis=1)
    # The two outer gaps are always wide, and by monotone subtraction the
    # row's extreme value passes their test if any value does.
    flagged = (ordered[:, 0] - values.min(axis=1) > threshold) | (
        values.max(axis=1) - ordered[:, -1] > threshold
    )
    wide = np.diff(ordered, axis=1) >= 2.0 * threshold
    flagged |= np.count_nonzero(wide, axis=1) > max_gaps - 2
    wide &= ~flagged[:, None]
    # Inner gap (r, g), flat index r * (m - 1) + g, opens at ordered[r, g],
    # flat index r * m + g.
    gaps = np.flatnonzero(wide)
    gap_rows = gaps // (m - 1)
    lows = ordered.ravel()[gaps + gap_rows]
    highs = ordered.ravel()[gaps + gap_rows + 1]
    step = block_rounds(width)
    for g0 in range(0, gaps.size, step):
        r = gap_rows[g0 : g0 + step]
        block = values[r]
        lo, hi = lows[g0 : g0 + step, None], highs[g0 : g0 + step, None]
        hit = ((block - lo > threshold) & (hi - block > threshold)).any(axis=1)
        flagged[r[hit]] = True
    return flagged


def _schedule(oracle: LossOracle, epsilon: float) -> tuple[np.ndarray, list[int], dict[str, int]]:
    """The packing after the oracle's ``T`` rounds: the schedule pass of :func:`play_many_experts`.

    Blocks of ``core.block_rounds(K)`` rounds over the ``K`` candidates are
    read once (whole rows when every expert is a candidate) and certified at
    once against the active set at the start of the block, whose losses are
    columns of the block; the rounds the certificate flags run
    :func:`expand_packing` on their row of the block, in order.  When a
    flagged round admits no one and the set has grown since the block's last
    certification, the block's remaining flagged rows are certified again
    against the grown set, and only the rows still flagged are walked.
    Every certification but a block's first follows an admitting round, so
    there are at most as many of them as admitting rounds.  Once the active
    set is as large as the candidate set no later round admits anyone, so
    nothing more is read.

    Returns the active ids in admission order, the round at which each
    joined (0 for expert 0), which certifies the pairwise separation of the
    packing, and the counts of blocks, re-certifications of a block's flagged
    rows, and exact queries of the pass.
    """
    ids = oracle.coverage_ids()
    # Ids rising strictly from 0, as many as the experts, are every expert:
    # read whole rows, a view of a dense oracle's matrix, not a copy.
    columns = None if ids.size == oracle.num_experts() else ids
    threshold = 2.0 * epsilon
    T, step = oracle.horizon(), block_rounds(ids.size)
    active = np.zeros(1, dtype=np.int64)  # columns of the candidate block
    admitted_at = [0]
    counts = {"blocks": 0, "recertifications": 0, "exact_queries": 0}
    for t0 in range(0, T, step):
        if active.size >= ids.size:
            break
        values = oracle.rows(t0, min(T, t0 + step), columns)
        # take, not fancy indexing: a C-ordered copy keeps the certificate's row sort fast.
        rows = np.flatnonzero(uncovered_rows(values, values.take(active, 1), threshold))
        counts["blocks"] += 1
        certified = active.size
        i = 0
        while i < rows.size and active.size < ids.size:
            active, added = expand_packing(values[rows[i]], active, threshold)
            admitted_at += [t0 + int(rows[i]) + 1] * len(added)
            counts["exact_queries"] += 1
            i += 1
            if added or active.size == certified or i == rows.size:
                continue
            rows = rows[i:]
            block = values[rows]
            rows = rows[uncovered_rows(block, block.take(active, 1), threshold)]
            i = 0
            certified = active.size
            counts["recertifications"] += 1
    return ids[active], admitted_at, counts


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
    if epsilon <= 0.0:
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
    expected: bool = False,
) -> GameTrajectory:
    """Run the packing learner over the oracle's ``T`` rounds at accuracy ``epsilon``.

    The active set starts at expert 0.  Each round samples an expert from
    the current phase's distribution (one uniform draw), then admits the
    round's uncovered experts; an admission restarts the inner hedge over the
    enlarged set, and otherwise the weights update on the active losses.  The
    trajectory records the phase and active-set size at the end of every
    round; its extras expose the final packing, the phase count, the
    admission certificate, and the counts of the schedule pass
    (``schedule``).  With ``expected``, ``extras["expected_losses"]`` also
    holds each round's expected loss under the sampling distribution, the
    low-variance feedback that the meta-tuner pops from each of its copies.
    """
    T = oracle.horizon()
    if T < 1:
        raise ValueError(f"the oracle must have at least one round, got {T}")
    ids = oracle.coverage_ids()
    if ids.size == 0 or ids[0] != 0:
        raise ValueError(f"coverage_ids() must start at expert 0, got {ids[:1].tolist()}")
    gen, seed = normalize_rng(rng)
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")

    active, admitted, counts = _schedule(oracle, epsilon)
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
        starts[played], sizes[played], gen.random(T), normalize=True, expected=expected,
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
        "schedule": {
            **counts,
            "admitting_rounds": int(starts.size) - 1,
            # The round whose admissions made the set as large as the candidate set.
            "saturation_round": admitted[-1] if active.size >= ids.size else None,
        },
    }
    if expected:
        extras["expected_losses"] = means
    return GameTrajectory.from_rounds(
        active[picks],
        incurred,
        admitted_at.searchsorted(rounds, side="right"),
        starts.searchsorted(rounds, side="right"),
        seed,
        extras,
    )
