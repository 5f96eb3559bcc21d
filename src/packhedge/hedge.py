"""Exponential weights over a fixed finite expert set, with an anytime learning rate.

Weights live in the natural-log domain with max-subtraction normalization, so
distributions stay finite for arbitrarily long games and arbitrarily large
cumulative losses.  One kernel, :func:`exponential_weights`, plays a whole
game over a fixed expert set; it drives plain hedge, each phase of the
packing learner and the accuracy-grid meta-learner.  :class:`HedgeState`,
:func:`distribution` and :func:`update` are the same learner one step at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .core import GameTrajectory, LossOracle, normalize_rng

#: Loss entries per kernel block, so each float64 temporary of a block is 128 KB.
BLOCK_ENTRIES = 1 << 14


@dataclass
class HedgeState:
    """Log-domain weight vector plus the 1-based round counter of this instance."""

    log_weights: np.ndarray
    t: int = 1

    @property
    def num_experts(self) -> int:
        return int(self.log_weights.size)

    @classmethod
    def fresh(cls, num_experts: int) -> "HedgeState":
        """Initial state: unit weight (zero log-weight) on every expert."""
        if num_experts < 1:
            raise ValueError(f"need at least one expert, got {num_experts}")
        return cls(log_weights=np.zeros(num_experts, dtype=np.float64), t=1)


def learning_rate(t: int, num_experts: int) -> float:
    """Anytime step size ``sqrt(8 ln(K) / t)``; zero for a single expert."""
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    if num_experts < 1:
        raise ValueError(f"expert count must be >= 1, got {num_experts}")
    return math.sqrt(8.0 * math.log(num_experts) / t)


def distribution(state: HedgeState) -> np.ndarray:
    """Probability vector proportional to the weights, normalized stably."""
    shifted = state.log_weights - state.log_weights.max()
    p = np.exp(shifted)
    p /= p.sum()
    return p


def update(state: HedgeState, losses: np.ndarray) -> HedgeState:
    """Multiply each weight by ``exp(-eta_t * loss)`` and advance the round clock."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.shape != state.log_weights.shape:
        raise ValueError(
            f"losses have shape {losses.shape}, state has {state.log_weights.shape}"
        )
    eta = learning_rate(state.t, state.num_experts)
    return HedgeState(log_weights=state.log_weights - eta * losses, t=state.t + 1)


def hedge_regret_bound(horizon: int, num_experts: int) -> float:
    """Worst-case expected-regret guarantee ``4 sqrt(T ln K)`` of this learner."""
    if horizon < 1 or num_experts < 1:
        raise ValueError("horizon and expert count must be >= 1")
    return 4.0 * math.sqrt(horizon * math.log(num_experts))


def block_rounds(num_experts: int) -> int:
    """Rounds per kernel block over ``num_experts`` columns (at least one)."""
    return max(1, BLOCK_ENTRIES // num_experts)


def exponential_weights(
    rows: Callable[[int, int], np.ndarray],
    num_rounds: int,
    num_experts: int,
    uniforms: np.ndarray,
    normalize: bool = False,
    expected: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Exponential weights over a fixed set of ``num_experts`` columns for ``num_rounds`` rounds.

    ``rows(j0, j1)`` gives the losses of rounds ``j0 + 1 .. j1`` as a
    ``(j1 - j0) x num_experts`` block, and ``uniforms[j]`` is the one draw of
    round ``j + 1``.  The log-weights of round ``j`` are ``-sum_{s < j} eta_s
    l_s`` with ``eta_s = sqrt(8 ln K / s)``, summed in round order (a running
    row carried across blocks, then one ``cumsum`` per block), so they carry
    the bits of :func:`update` applied round by round.  Each round picks the
    expert of :func:`~packhedge.core.sample_categorical` on the weights
    ``exp(lw - max lw)``, or on their normalisation with ``normalize``.

    Returns the chosen column and the incurred loss of every round and, with
    ``expected``, the expected loss ``p @ l`` per round under the normalised
    distribution ``p`` (so ``expected`` needs ``normalize``), else ``None``.
    """
    n, k = int(num_rounds), int(num_experts)
    if k < 1:
        raise ValueError(f"need at least one expert, got {k}")
    chosen = np.empty(n, dtype=np.int64)
    incurred = np.empty(n, dtype=np.float64)
    means = np.empty(n, dtype=np.float64) if expected else None
    scale = 8.0 * math.log(k)
    step = block_rounds(k)
    carry = np.zeros(k)  # sum of eta_s * l_s over the rounds before the block
    for j0 in range(0, n, step):
        j1 = min(n, j0 + step)
        block = rows(j0, j1)
        if block.shape != (j1 - j0, k):
            raise ValueError(f"loss block has shape {block.shape}, expected {(j1 - j0, k)}")
        # total[i] sums the rounds before round j0 + 1 + i; its last row carries on.
        total = np.empty((j1 - j0 + 1, k))
        total[0] = carry
        np.multiply(np.sqrt(scale / np.arange(j0 + 1, j1 + 1))[:, None], block, out=total[1:])
        np.cumsum(total, axis=0, out=total)
        carry = total[-1].copy()
        # lw - max(lw) for lw = -total is min(total) - total, bit for bit.
        weights = total[:-1]
        np.subtract(weights.min(axis=1, keepdims=True), weights, out=weights)
        np.exp(weights, out=weights)
        if normalize:
            weights /= weights.sum(axis=1, keepdims=True)
        cumulative = np.cumsum(weights, axis=1)
        threshold = uniforms[j0:j1] * cumulative[:, -1]
        pick = np.count_nonzero(cumulative <= threshold[:, None], axis=1)
        for i in np.flatnonzero(pick == k):
            # The draw rounded up to a subnormal total: take the last positive weight.
            pick[i] = np.flatnonzero(weights[i])[-1]
        chosen[j0:j1] = pick
        incurred[j0:j1] = block[np.arange(j1 - j0), pick]
        if means is not None:
            block = np.ascontiguousarray(block)
            means[j0:j1] = [p @ l for p, l in zip(weights, block)]
    return chosen, incurred, means


def play_hedge(
    oracle: LossOracle,
    horizon: int | None = None,
    rng: int | np.random.Generator = 0,
) -> GameTrajectory:
    """Run exponential weights for ``horizon`` rounds against ``oracle``.

    Each round samples an expert from the current weights (one uniform draw)
    and incurs its loss; the weights then update on the full loss vector.
    The whole game is one :func:`exponential_weights` pass.
    """
    T = oracle.horizon() if horizon is None else int(horizon)
    if T < 1 or T > oracle.horizon():
        raise ValueError(f"horizon must be in [1, {oracle.horizon()}], got {T}")
    K = oracle.num_experts()
    gen, seed = normalize_rng(rng)
    # Sampling is scale-invariant, so the unnormalized weights suffice.
    chosen, incurred, _ = exponential_weights(oracle.rows, T, K, gen.random(T))
    extras: dict[str, Any] = {"algorithm": "hedge", "num_experts": K}
    return GameTrajectory.from_rounds(
        chosen, incurred, np.full(T, K), np.ones(T), seed, extras
    )
