"""Ground-truth measurement tools for loss matrices.

Exact and greedy covering/packing numbers under the sup-norm expert distance,
the cover/packing duality certificate, regret accounting, per-expert
variation, and the log-sum inequality used by the phase-count analysis.
Exact searches are exponential and guarded by an expert-count budget; greedy
quantities are always available.  The distance matrix behind the exact
searches is streamed over blocks of ``core.block_rounds`` rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import ExpertId, GameTrajectory, LossOracle, block_rounds


@dataclass
class CoverReport:
    """Covering/packing quantities of one matrix at one accuracy.

    Exact fields are present only when the instance fits the search budget.
    When they are present the duality sandwich
    ``packing(2*eps) <= cover(eps) <= packing(eps)`` has been verified.
    """

    epsilon: float
    greedy_packing_at_eps: int
    greedy_packing_at_2eps: int
    exact_cover: int | None = None
    exact_packing_at_eps: int | None = None
    exact_packing_at_2eps: int | None = None
    witnesses: dict[str, list[ExpertId]] = field(default_factory=dict)


@dataclass
class RegretLedger:
    """Learner total, best fixed expert, and their difference."""

    learner_cumulative: float
    best_expert: ExpertId
    best_cumulative: float
    regret: float


def distance_matrix(matrix: np.ndarray) -> np.ndarray:
    """All pairwise sup-norm distances ``max_t |l_t(i) - l_t(j)|``, streamed over round blocks.

    A block holds ``core.block_rounds(K * K)`` rounds, so its ``rounds x K x
    K`` temporary stays within ``core.BLOCK_ENTRIES`` entries, or is a
    single round's ``K x K``, the size of the result, for more experts.
    """
    m = np.asarray(matrix, dtype=np.float64)
    rounds, experts = m.shape
    dist = np.zeros((experts, experts), dtype=np.float64)
    step = block_rounds(max(1, experts * experts))
    for start in range(0, rounds, step):
        block = m[start : start + step]
        gaps = np.subtract(block[:, :, None], block[:, None, :])
        np.abs(gaps, out=gaps)
        np.maximum(dist, gaps.max(axis=0), out=dist)
    return dist


def _greedy_cover(cover_masks: list[int], universe: int) -> list[int]:
    chosen: list[int] = []
    uncovered = universe
    while uncovered:
        best_j = -1
        best_gain = 0
        for j, mask in enumerate(cover_masks):
            gain = (mask & uncovered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_j = j
        chosen.append(best_j)
        uncovered &= ~cover_masks[best_j]
    return chosen


def _min_set_cover(cover_masks: list[int], universe: int) -> tuple[int, list[int]]:
    """Exact minimum set cover by branch and bound over the coverage bitmasks."""
    # Dominated candidates (mask contained in another's) can never be needed.
    order = sorted(range(len(cover_masks)), key=lambda j: (-cover_masks[j].bit_count(), j))
    kept: list[int] = []
    for j in order:
        if not any(cover_masks[j] | cover_masks[i] == cover_masks[i] for i in kept):
            kept.append(j)
    masks = {j: cover_masks[j] for j in kept}

    best = _greedy_cover(cover_masks, universe)

    def dfs(uncovered: int, chosen: list[int]) -> None:
        nonlocal best
        if uncovered == 0:
            if len(chosen) < len(best):
                best = chosen[:]
            return
        max_gain = max((mask & uncovered).bit_count() for mask in masks.values())
        lower = len(chosen) + -(-uncovered.bit_count() // max_gain)
        if lower >= len(best):
            return
        # Branch on the uncovered expert with the fewest coverers.
        pick, fewest = -1, None
        probe = uncovered
        while probe:
            e = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            count = sum(1 for mask in masks.values() if (mask >> e) & 1)
            if fewest is None or count < fewest:
                fewest, pick = count, e
        coverers = [j for j, mask in masks.items() if (mask >> pick) & 1]
        coverers.sort(key=lambda j: -(masks[j] & uncovered).bit_count())
        for j in coverers:
            dfs(uncovered & ~masks[j], chosen + [j])

    dfs(universe, [])
    return len(best), sorted(best)


def _distances_within(matrix: np.ndarray, epsilon: float, budget: int) -> np.ndarray | None:
    """The distance matrix of ``matrix``, or ``None`` when it has more than ``budget`` experts.

    A NaN ``epsilon`` raises ``ValueError`` first, whatever the budget.
    """
    if math.isnan(epsilon):
        raise ValueError(f"epsilon must be a number, got {epsilon!r}")
    m = np.asarray(matrix, dtype=np.float64)
    return None if m.shape[1] > budget else distance_matrix(m)


def _bitmasks(related: np.ndarray) -> list[int]:
    """Each row of a square boolean relation as an int whose bit ``j`` is ``related[i, j]``."""
    packed = np.packbits(related, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _exact_cover(dist: np.ndarray, epsilon: float) -> tuple[int, list[int]]:
    """Smallest cover at ``epsilon``; ``epsilon <= 0`` covers exact matches only."""
    return _min_set_cover(_bitmasks(dist <= max(epsilon, 0.0)), (1 << dist.shape[0]) - 1)


def _exact_packing(dist: np.ndarray, epsilon: float) -> tuple[int, list[int]]:
    """Largest packing at ``epsilon``: the largest clique of ``dist > epsilon``."""
    return _max_clique(_bitmasks(dist > epsilon), dist.shape[0])


def covering_number_exact(
    matrix: np.ndarray, epsilon: float, budget: int = 24
) -> int | None:
    """Size of the smallest subset of experts within ``epsilon`` of every expert.

    ``epsilon <= 0`` degenerates to an exact-match cover (the number of
    distinct columns).  Returns ``None`` when the instance exceeds ``budget``
    experts; the search is exponential in the worst case.  A NaN ``epsilon``
    raises ``ValueError``.
    """
    dist = _distances_within(matrix, epsilon, budget)
    return None if dist is None else _exact_cover(dist, float(epsilon))[0]


def packing_greedy(matrix: np.ndarray, epsilon: float) -> tuple[int, list[ExpertId]]:
    """Greedily admit experts separated by more than ``epsilon`` from all admitted.

    Experts are scanned in index order.  The result is a maximal packing,
    hence simultaneously a valid ``epsilon``-packing and a valid
    ``epsilon``-cover.  A NaN ``epsilon`` raises ``ValueError``.
    """
    if math.isnan(epsilon):
        raise ValueError(f"epsilon must be a number, got {epsilon!r}")
    m = np.asarray(matrix, dtype=np.float64)
    admitted: list[int] = []
    for j in range(m.shape[1]):
        col = m[:, j]
        if all(float(np.abs(col - m[:, i]).max()) > epsilon for i in admitted):
            admitted.append(j)
    return len(admitted), admitted


def _max_clique(adjacency: list[int], num_vertices: int) -> tuple[int, list[int]]:
    """Largest clique via DFS with a candidate-count bound."""
    best: list[int] = []

    def expand(candidates: int, current: list[int]) -> None:
        nonlocal best
        while candidates:
            if len(current) + candidates.bit_count() <= len(best):
                return
            v = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            expand(candidates & adjacency[v], current + [v])
        if len(current) > len(best):
            best = current[:]

    expand((1 << num_vertices) - 1, [])
    return len(best), sorted(best)


def packing_number_exact(
    matrix: np.ndarray, epsilon: float, budget: int = 24
) -> int | None:
    """Size of the largest subset whose members pairwise differ by more than ``epsilon``.

    Packings are cliques of the separation graph, found by exact clique
    search.  Returns ``None`` beyond the ``budget``; a NaN ``epsilon`` raises
    ``ValueError``.
    """
    dist = _distances_within(matrix, epsilon, budget)
    return None if dist is None else _exact_packing(dist, float(epsilon))[0]


def duality_certificate(matrix: np.ndarray, epsilon: float, budget: int = 24) -> CoverReport:
    """Compute cover/packing numbers at ``epsilon`` and certify their ordering.

    On instances within the budget the exact quantities are found by
    exhaustive search and the sandwich
    ``packing(2*eps) <= cover(eps) <= packing(eps)`` is checked; a violation
    raises.  Larger instances get a partial report with greedy bounds only.
    A negative (or NaN) ``epsilon`` is rejected with ``ValueError``.
    """
    m = np.asarray(matrix, dtype=np.float64)
    eps = float(epsilon)
    if not eps >= 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon!r}")
    greedy_eps, witness_geps = packing_greedy(m, eps)
    greedy_2eps, witness_g2eps = packing_greedy(m, 2.0 * eps)
    report = CoverReport(
        epsilon=eps,
        greedy_packing_at_eps=greedy_eps,
        greedy_packing_at_2eps=greedy_2eps,
        witnesses={
            "greedy_packing_at_eps": witness_geps,
            "greedy_packing_at_2eps": witness_g2eps,
        },
    )
    dist = _distances_within(m, eps, budget)
    if dist is None:
        return report
    cover_size, cover_witness = _exact_cover(dist, eps)
    pack_eps, pack_eps_witness = _exact_packing(dist, eps)
    pack_2eps, pack_2eps_witness = _exact_packing(dist, 2.0 * eps)
    if not (pack_2eps <= cover_size <= pack_eps):
        raise RuntimeError(
            f"duality violated: packing(2e)={pack_2eps}, cover={cover_size}, packing(e)={pack_eps}"
        )
    report.exact_cover = cover_size
    report.exact_packing_at_eps = pack_eps
    report.exact_packing_at_2eps = pack_2eps
    report.witnesses.update(
        {
            "exact_cover": cover_witness,
            "exact_packing_at_eps": pack_eps_witness,
            "exact_packing_at_2eps": pack_2eps_witness,
        }
    )
    return report


def empirical_regret(trajectory: GameTrajectory, oracle: LossOracle) -> RegretLedger:
    """Learner cumulative loss minus the best fixed expert's, from first principles."""
    horizon = oracle.horizon()
    sums = oracle.column_sums()
    if len(trajectory) != horizon:
        raise ValueError(f"trajectory has {len(trajectory)} rounds, the oracle has {horizon}")
    best = int(np.argmin(sums))
    learner = trajectory.learner_cumulative
    best_cum = float(sums[best])
    return RegretLedger(
        learner_cumulative=learner,
        best_expert=best,
        best_cumulative=best_cum,
        regret=learner - best_cum,
    )


def variation_profile(matrix: np.ndarray) -> np.ndarray:
    """Per-expert total movement ``sum_t |l_{t+1}(i) - l_t(i)|``; all zeros for a single round."""
    m = np.asarray(matrix, dtype=np.float64)
    return np.abs(np.diff(m, axis=0)).sum(axis=0)


def logsum_bound_check(values: Sequence[int]) -> bool:
    """Whether ``sum_i ln(a_i) <= 2 * a_n * ln(a_n)`` for the increasing sequence.

    The sequence must be strictly increasing natural numbers starting at 1;
    the inequality is expected to hold for every such sequence.
    """
    a = list(values)
    if not a:
        raise ValueError("sequence must be non-empty")
    if any(int(x) != x or x < 1 for x in a):
        raise ValueError("sequence must consist of natural numbers")
    if a[0] != 1:
        raise ValueError(f"sequence must start at 1, got {a[0]}")
    if any(b <= c for c, b in zip(a, a[1:])):
        raise ValueError("sequence must be strictly increasing")
    total = sum(math.log(x) for x in a)
    return total <= 2.0 * a[-1] * math.log(a[-1])
