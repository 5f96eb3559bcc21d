"""Shared vocabulary for expert games: loss access, randomness, trajectories.

Conventions used throughout the package:

* experts are integer ids ``0 .. K-1`` within one environment instance;
* rounds are 1-based (``t = 1 .. T``), matching the learning-rate clocks;
* every loss lies in ``[-1, 1]``, enforced at the environment boundary;
* all randomness flows through named ``numpy`` PCG64 streams so that any
  game is bit-reproducible from its seed.
"""

from __future__ import annotations

import logging
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np
import numpy.random  # numpy 2.x imports it lazily: do it here, not in the first game's timings

logger = logging.getLogger(__name__)

ExpertId = int

ALGORITHMS = ("hedge", "many_experts", "meta_tuner")

#: Overshoot past the [-1, 1] boundary tolerated (and clamped) as rounding noise.
BOUNDARY_SLACK = 1e-12

#: Entries of the largest array the package allocates for one instance, and
#: so of the largest ``T x K`` loss matrix.  :func:`check_entries` applies it,
#: before anything is allocated, to :meth:`LossOracle.to_matrix`, the dense
#: generators' ``T x K`` matrices, ``clustered_binary``'s distinct rows and
#: assignment, ``sparse_dictionary``'s dictionary and codes, the whole-file
#: reads of :mod:`~packhedge.matrix_io`, and a :class:`GameConfig`'s
#: per-round arrays.
MATRIX_MAX_ENTRIES = 50_000_000

#: Entries per block of a pass over a loss matrix, so each float64 temporary
#: of a block is 128 KB: the hedge kernel's and the schedule pass's blocks of
#: rounds, the dense generators' chunks, the matrix files' row blocks and the
#: distance pass's blocks of rounds (``rounds x K x K`` entries).
BLOCK_ENTRIES = 1 << 14


def block_rounds(num_experts: int) -> int:
    """Rounds per block over ``num_experts`` columns (at least one)."""
    return max(1, BLOCK_ENTRIES // num_experts)


def check_entries(entries: int, description: str) -> None:
    """Refuse an array of more than ``MATRIX_MAX_ENTRIES`` entries before it is allocated.

    Raises ``ValueError(f"{description} (guard: N entries)")``.
    """
    if entries > MATRIX_MAX_ENTRIES:
        raise ValueError(f"{description} (guard: {MATRIX_MAX_ENTRIES} entries)")


def build_grid(horizon: int) -> tuple[float, ...]:
    """Halving accuracy ladder ``epsilon_r = 2**(1 - r)`` for ``r = 1 .. ceil(log2 T)``."""
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2 to build a grid, got {horizon}")
    num_levels = (horizon - 1).bit_length()  # == ceil(log2(horizon))
    return tuple(2.0 ** (1 - r) for r in range(1, num_levels + 1))


def game_rng(*key: int) -> np.random.Generator:
    """Independent PCG64 stream keyed by a tuple of integers.

    Distinct keys give statistically independent streams, so a single master
    seed can drive many reproducible games: ``game_rng(seed, game_id)``.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def whole_number(name: str, value: Any, least: int | None = None) -> int:
    """``value`` as an int, at least ``least`` if given: an int or a whole float, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer)) or value % 1:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {int(value)}")
    return int(value)


def real_number(name: str, value: Any) -> float:
    """``value`` as a float: an int or a float, never a boolean or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def normalize_rng(rng: int | np.random.Generator) -> tuple[np.random.Generator, int | None]:
    """Accept a seed or a ready generator; return ``(generator, seed if known)``.

    An integer seed is mapped to the game's default stream ``game_rng(seed, 0)``.
    """
    if isinstance(rng, (int, np.integer)):
        return game_rng(int(rng), 0), int(rng)
    if isinstance(rng, np.random.Generator):
        return rng, None
    raise TypeError(f"rng must be an int seed or a numpy Generator, got {type(rng)!r}")


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
    """
    ordered = np.sort(reference)
    order = np.argsort(values)
    pos = np.empty(values.shape, dtype=np.intp)
    pos[order] = ordered.searchsorted(values[order])
    padded = np.concatenate(([-np.inf], ordered, [np.inf]))
    # padded[pos] is the largest reference below the value, padded[pos + 1]
    # the smallest at or above it; the infinities stand in for a missing side.
    return (values - padded[pos] > threshold) & (padded[pos + 1] - values > threshold)


def validate_loss_matrix(matrix: np.ndarray) -> np.ndarray:
    """Check a realized loss matrix against the ``[-1, 1]`` contract.

    Values that graze the boundary by less than ``BOUNDARY_SLACK`` (products
    and additive noise can overshoot by an ulp) are clamped, into a copy,
    with a logged warning; anything farther out, NaN or infinite is a hard
    error.  A float64 C-ordered matrix within the contract is returned as
    given, after two reductions (its extremes) that allocate nothing.
    """
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"loss matrix must be 2-D (rounds x experts), got shape {m.shape}")
    # Extremes instead of |m|: no T x K temporary, and NaN or inf shows in them.
    if must_clamp(float(m.max(initial=0.0)), float(m.min(initial=0.0))):
        m = np.clip(m, -1.0, 1.0)
    return m


def must_clamp(high: float, low: float) -> bool:
    """Whether a loss matrix with these extremes (taken with ``initial=0.0``) must be clamped.

    The rules of :func:`validate_loss_matrix`: a NaN or infinite extreme, or
    one beyond ``[-1, 1]`` by more than ``BOUNDARY_SLACK``, is an error; one
    that grazes the boundary is logged once as a warning and answers True.
    """
    if not (math.isfinite(high) and math.isfinite(low)):
        raise ValueError("loss matrix contains non-finite values")
    overshoot = max(high, -low) - 1.0
    if overshoot > BOUNDARY_SLACK:
        raise ValueError(f"loss values exceed [-1, 1] by {overshoot:.3g}")
    if overshoot > 0.0:
        logger.warning("clamping losses grazing the [-1, 1] boundary by %.3g", overshoot)
        return True
    return False


@dataclass
class GameConfig:
    """Parameters of one seeded game: ``T`` and ``seed`` whole numbers, ``epsilon`` real.

    A game whose largest per-round array would exceed ``MATRIX_MAX_ENTRIES``
    is refused: ``T`` entries for hedge and many_experts, and the
    meta-tuner's ``T x R`` feedback for the ``R`` copies of
    :func:`build_grid`, which also refuses a meta-tuner game of ``T = 1``.
    """

    T: int
    epsilon: float = 1.0
    seed: int = 0
    algorithm: str = "hedge"

    def __post_init__(self) -> None:
        self.T = whole_number("T", self.T, 1)
        self.epsilon = real_number("epsilon", self.epsilon)
        self.seed = whole_number("seed", self.seed, 0)
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        copies = len(build_grid(self.T)) if self.algorithm == "meta_tuner" else 1
        check_entries(
            self.T * copies,
            f"game.T = {self.T}: the per-round arrays of {self.algorithm} are too large to play",
        )


@dataclass
class GameTrajectory:
    """Per-round record of one game; the unit of analysis.

    All per-round fields are parallel arrays of length ``T``.  ``packing_size``
    and ``phase`` are the active-set size and phase index at the end of each
    round (constant for plain exponential weights).
    """

    t: np.ndarray
    chosen: np.ndarray
    incurred: np.ndarray
    cumulative: np.ndarray
    packing_size: np.ndarray
    phase: np.ndarray
    seed: int | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_rounds(
        cls,
        chosen: np.ndarray,
        incurred: np.ndarray,
        packing_size: np.ndarray,
        phase: np.ndarray,
        seed: int | None = None,
        extras: dict[str, Any] | None = None,
    ) -> "GameTrajectory":
        """Trajectory of rounds ``1 .. T`` from its per-round columns."""
        incurred = np.asarray(incurred, dtype=np.float64)
        return cls(
            t=np.arange(1, incurred.size + 1, dtype=np.int64),
            chosen=np.asarray(chosen, dtype=np.int64),
            incurred=incurred,
            # A running total started at 0.0: adding 0.0 turns a -0.0 prefix into 0.0.
            cumulative=np.cumsum(incurred) + 0.0,
            packing_size=np.asarray(packing_size, dtype=np.int64),
            phase=np.asarray(phase, dtype=np.int64),
            seed=seed,
            extras=dict(extras or {}),
        )

    def __len__(self) -> int:
        return int(self.t.size)

    @property
    def learner_cumulative(self) -> float:
        return float(self.cumulative[-1]) if len(self) else 0.0

    def validate(self) -> None:
        """Assert the trajectory's internal invariants."""
        n = len(self)
        for name in ("chosen", "incurred", "cumulative", "packing_size", "phase"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"trajectory field {name} is not aligned with t")
        if n == 0:
            return
        if abs(float(self.incurred.sum()) - self.learner_cumulative) > 1e-9:
            raise ValueError("cumulative loss does not match the sum of incurred losses")
        if np.any(np.diff(self.packing_size) < 0):
            raise ValueError("packing_size must be non-decreasing over rounds")


class LossOracle(ABC):
    """Loss access for one environment instance: its shape and :meth:`rows`.

    An oracle is a ``T x K`` shape, given to ``__init__``, and one method,
    :meth:`rows`, that serves the losses of a block of rounds; everything
    else derives from them.  :meth:`coverage_ids` (one coverage candidate per
    group of identical experts) defaults to every expert, and an oracle that
    knows its groups, such as a clustered one, overrides it.  The hedge
    kernel and the packing learner's schedule pass both read :meth:`rows`.
    The schedule pass reads each block of rounds over the candidates once:
    its certificate screens the block, and the one coverage kernel,
    :func:`uncovered_mask`, answers a flagged round on the block's row
    already read in ``O(K log K_p)`` for ``K`` candidates and ``K_p`` active
    experts, so structured expert sets such as clusters never enumerate
    every expert.
    """

    def __init__(self, horizon: int, num_experts: int) -> None:
        self._shape = (int(horizon), int(num_experts))

    def horizon(self) -> int:
        """Number of rounds the environment defines."""
        return self._shape[0]

    def num_experts(self) -> int:
        """Number of experts."""
        return self._shape[1]

    @abstractmethod
    def rows(
        self, t0: int, t1: int, experts: np.ndarray | Sequence[int] | None = None
    ) -> np.ndarray:
        """Losses of rounds ``t0 + 1 .. t1`` (one row each) for ``experts`` (default: all).

        The block may be a view of the oracle's own storage, which the
        caller must not write (a dense matrix oracle's raises if written),
        or a fresh array (a matrix file's oracle reads each block anew).
        Serving a block for any ``experts`` holds at most one read of
        ``block_rounds(K)`` whole rows beyond the block itself, so a narrow
        block of many rounds never reads all ``K`` columns of them at once.
        """

    def coverage_ids(self) -> np.ndarray:
        """Ids of the experts whose losses coverage queries must consider: by default, all.

        Ids are strictly ascending, and every expert not listed copies (at
        every round) a listed expert with a smaller id, so ``ids[0] == 0``
        is required (the packing learner checks it and starts there).  So
        the first uncovered candidate is the smallest-id uncovered expert,
        no two separated experts share a candidate, and an active set as
        large as the candidate set covers every round.  Listing every expert
        meets this for any losses.
        """
        return np.arange(self.num_experts())

    def column_sums(self) -> np.ndarray:
        """Cumulative loss of every expert over the full horizon."""
        return self.rows(0, self.horizon()).sum(axis=0)

    def to_matrix(self) -> np.ndarray:
        """Materialize the full ``T x K`` loss matrix (guarded by ``MATRIX_MAX_ENTRIES``)."""
        T, K = self.horizon(), self.num_experts()
        check_entries(T * K, f"matrix of {T} x {K} entries is too large to materialize")
        return np.ascontiguousarray(self.rows(0, T))
