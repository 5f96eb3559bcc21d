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
candidates, so the active losses are columns of the candidate block: each
block is read once, and each exact query reads its one round.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from . import hedge
from .core import ExpertId, GameTrajectory, LossOracle, normalize_rng, uncovered_mask


@dataclass
class PackingState:
    """Active set of the packing learner, grown by :func:`expand_packing`.

    ``active`` starts at expert 0 and is ordered by admission.
    ``admitted_at[j]`` is the round at which ``active[j]`` joined (0 for
    expert 0), which certifies the pairwise separation of the packing; the
    phases are its distinct rounds.
    """

    active: np.ndarray
    epsilon: float
    admitted_at: list[int] = field(default_factory=list)
    #: Work of the schedule pass (:func:`_schedule`): blocks certified,
    #: re-certifications of a block's flagged rows, and exact queries.
    blocks: int = 0
    recertifications: int = 0
    queries: int = 0

    @classmethod
    def fresh(cls, epsilon: float) -> "PackingState":
        if not (0.0 < epsilon <= 1.0):
            raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
        return cls(
            active=np.array([0], dtype=np.int64),
            epsilon=float(epsilon),
            admitted_at=[0],
        )


def expand_packing(
    state: PackingState, t: int, oracle: LossOracle
) -> tuple[PackingState, list[ExpertId]]:
    """Admit uncovered experts at round ``t`` until every expert is covered.

    One coverage-kernel call finds the candidates farther than ``2 *
    epsilon`` from every active expert.  They are walked in ascending expert
    id, and each one still farther than ``2 * epsilon`` from every expert
    admitted earlier in the round is admitted.  This is the sequence that
    re-asking for the smallest uncovered expert after every admission
    produces, since admissions only shrink the uncovered set.  Returns the
    (possibly unchanged) state and the admitted ids.
    """
    ids = oracle.coverage_ids()
    active = state.active
    if active.size >= ids.size:
        # Active experts are pairwise separated, so they copy distinct
        # candidates: the set already covers every one of them.
        return state, []
    values = oracle.rows(t - 1, t, ids)[0]
    threshold = 2.0 * state.epsilon
    reference = values.take(ids.searchsorted(active))
    uncovered = np.flatnonzero(uncovered_mask(values, reference, threshold))
    if uncovered.size == 0:
        return state, []
    admitted: list[float] = []  # values admitted this round, kept sorted
    added: list[ExpertId] = []
    for k, value in zip(uncovered.tolist(), values[uncovered].tolist()):
        pos = bisect.bisect_left(admitted, value)
        if pos > 0 and value - admitted[pos - 1] <= threshold:
            continue
        if pos < len(admitted) and admitted[pos] - value <= threshold:
            continue
        admitted.insert(pos, value)
        added.append(int(ids[k]))
    new_state = replace(
        state,
        active=np.concatenate((active, np.array(added, dtype=np.int64))),
        admitted_at=state.admitted_at + [t] * len(added),
    )
    return new_state, added


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
    flagged untested.  Each gap test holds at most ``hedge.BLOCK_ENTRIES``
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
    step = max(1, hedge.BLOCK_ENTRIES // width)
    for g0 in range(0, gaps.size, step):
        r = gap_rows[g0 : g0 + step]
        block = values[r]
        lo, hi = lows[g0 : g0 + step, None], highs[g0 : g0 + step, None]
        hit = ((block - lo > threshold) & (hi - block > threshold)).any(axis=1)
        flagged[r[hit]] = True
    return flagged


def _schedule(oracle: LossOracle, epsilon: float) -> PackingState:
    """The packing after the oracle's ``T`` rounds: the schedule pass of :func:`packing_game`.

    Blocks of ``hedge.block_rounds(K)`` rounds over the ``K`` candidates are
    read once and certified at once against the active set at the start of
    the block, whose losses are columns of the block; the rounds the
    certificate flags run :func:`expand_packing`, in order.  When a flagged
    round admits no one and the set has grown since the block's last
    certification, the block's remaining flagged rows are certified again
    against the grown set, again columns of the rows already read, and only
    the rows still flagged are walked.  Every certification but a block's
    first follows an admitting round, so there are at most as many of them
    as admitting rounds.  Once the active set is as large as the candidate
    set no later round admits anyone, so nothing more is read.  The returned
    state counts the blocks, re-certifications and exact queries of the pass.
    """
    state = PackingState.fresh(epsilon)
    ids = oracle.coverage_ids()
    threshold = 2.0 * state.epsilon
    T, step = oracle.horizon(), hedge.block_rounds(ids.size)
    blocks = recertifications = queries = 0
    for t0 in range(0, T, step):
        if state.active.size >= ids.size:
            break
        t1 = min(T, t0 + step)
        values = oracle.rows(t0, t1, ids)
        # take, not fancy indexing: a C-ordered copy keeps the certificate's row sort fast.
        reference = values.take(ids.searchsorted(state.active), 1)
        rows = np.flatnonzero(uncovered_rows(values, reference, threshold))
        blocks += 1
        certified = state.active.size
        i = 0
        while i < rows.size and state.active.size < ids.size:
            state, added = expand_packing(state, t0 + int(rows[i]) + 1, oracle)
            queries += 1
            i += 1
            if added or state.active.size == certified or i == rows.size:
                continue
            rows = rows[i:]
            block = values[rows]
            grown = block.take(ids.searchsorted(state.active), 1)
            rows = rows[uncovered_rows(block, grown, threshold)]
            i = 0
            certified = state.active.size
            recertifications += 1
    return replace(state, blocks=blocks, recertifications=recertifications, queries=queries)


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


def play_many_experts(
    oracle: LossOracle, epsilon: float = 0.5, rng: int | np.random.Generator = 0
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
    return packing_game(oracle, epsilon, rng)[0]


def packing_game(
    oracle: LossOracle,
    epsilon: float = 0.5,
    rng: int | np.random.Generator = 0,
    expected: bool = False,
) -> tuple[GameTrajectory, np.ndarray | None]:
    """:func:`play_many_experts`, plus with ``expected`` the expected loss of each round.

    The expected loss is taken under the sampling distribution; the
    meta-learner consumes it as low-variance feedback.
    """
    T = oracle.horizon()
    if T < 1:
        raise ValueError(f"the oracle must have at least one round, got {T}")
    ids = oracle.coverage_ids()
    if ids.size == 0 or ids[0] != 0:
        raise ValueError(f"coverage_ids() must start at expert 0, got {ids[:1].tolist()}")
    gen, seed = normalize_rng(rng)

    state = _schedule(oracle, epsilon)
    admitted_at = np.array(state.admitted_at, dtype=np.int64)
    # Phase p plays rounds starts[p] + 1 .. starts[p + 1] over the first sizes[p]
    # active experts (a prefix, since active is in admission order); the
    # losses of its last round update nothing.  An admission at round T opens
    # a phase with no rounds.
    starts = np.array(sorted(set(state.admitted_at)), dtype=np.int64)
    sizes = admitted_at.searchsorted(starts, side="right")
    played = starts < T
    picks, incurred, means = hedge.exponential_weights(
        lambda j0, j1, width: oracle.rows(j0, j1, state.active[:width]),
        starts[played], sizes[played], gen.random(T), normalize=True, expected=expected,
    )
    chosen = state.active[picks]

    rounds = np.arange(1, T + 1)
    extras: dict[str, Any] = {
        "algorithm": "many_experts",
        "epsilon": epsilon,
        "final_active": state.active.tolist(),
        "admitted_at": list(state.admitted_at),
        "final_packing": int(state.active.size),
        "num_phases": int(starts.size),
        "restarts": list(zip(starts.tolist(), sizes.tolist())),
        "schedule": {
            "blocks": state.blocks,
            "recertifications": state.recertifications,
            "exact_queries": state.queries,
            "admitting_rounds": int(starts.size) - 1,
            # The round whose admissions made the set as large as the candidate set.
            "saturation_round": state.admitted_at[-1] if state.active.size >= ids.size else None,
        },
    }
    trajectory = GameTrajectory.from_rounds(
        chosen,
        incurred,
        admitted_at.searchsorted(rounds, side="right"),
        starts.searchsorted(rounds, side="right"),
        seed,
        extras,
    )
    return trajectory, means
