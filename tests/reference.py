"""Slow per-round reference learners for differential tests.

These are the round-by-round loops the closed-form kernel replaced: every
round draws one uniform through ``sample_categorical`` and applies
``update`` to a :class:`HedgeState`, the minimal per-round hedge below (it
validates nothing, since only tests call it).  The packing loop reads every
round's row of coverage candidates and calls ``many_experts.expand_packing``
on it through the module, so a test can swap in another admission rule for
both sides; the block schedule pass instead reads each block of rounds once
and runs an exact query on the block's row already read.  The kernel-based
learners must reproduce these trajectories and extras bit for bit.
``LossOnlyOracle`` is the slowest oracle: every other access goes through
the base-class defaults.
``Prefix`` is the first rounds of a longer environment, an environment of its
own, since a game runs over every round of its oracle.  ``first_uncovered``
is a single coverage query, for comparison with dense scans, and
``segmented_hedge`` plays the kernel's segments round by round from given
uniforms.  ``running_totals`` and ``inverse_cdf_pick`` are two of the
kernel's block steps with one float ``cumsum`` each, where the kernel pairs
the independent sums in ``complex128`` views.  The dense generators at the
end touch whole ``T x K`` arrays at once, where the package works a chunk at
a time in one buffer;
``validate_loss_matrix`` tests every entry, where the package reads only
the matrix's extremes.  The matrix-file writers and the CSV reader at the very
end build each file's whole contents, or the whole list of rows, at once,
where the package streams blocks of rows.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from packhedge import many_experts
from packhedge.core import (
    BOUNDARY_SLACK,
    ExpertId,
    GameTrajectory,
    LossOracle,
    build_grid,
    game_rng,
    normalize_rng,
)
from packhedge.many_experts import uncovered_mask


@dataclass
class HedgeState:
    """Log-domain weight vector plus the 1-based round counter of one hedge."""

    log_weights: np.ndarray
    t: int = 1

    @classmethod
    def fresh(cls, num_experts: int) -> "HedgeState":
        return cls(log_weights=np.zeros(num_experts, dtype=np.float64), t=1)


def distribution(state: HedgeState) -> np.ndarray:
    """Probability vector proportional to the weights: exp(lw - max lw) over its sum."""
    p = np.exp(state.log_weights - state.log_weights.max())
    p /= p.sum()
    return p


def update(state: HedgeState, losses: np.ndarray) -> HedgeState:
    """Multiply each weight by ``exp(-eta_t * loss)`` with ``eta_t = sqrt(8 ln K / t)``."""
    eta = math.sqrt(8.0 * math.log(state.log_weights.size) / state.t)
    return HedgeState(log_weights=state.log_weights - eta * losses, t=state.t + 1)


def sample_categorical(weights: np.ndarray, rng) -> ExpertId:
    """Index drawn with probability proportional to its weight, from one ``rng.random()``."""
    cumulative = np.cumsum(weights)
    i = int(cumulative.searchsorted(rng.random() * cumulative[-1], side="right"))
    if i == len(weights):
        # Only a draw of 1.0 reaches a total >= 1, as every learner's is here
        # (its largest weight is exp(0)): take the last positive weight.
        i = int(np.flatnonzero(weights)[-1])
    return i


class LossOnlyOracle(LossOracle):
    """A shape and ``rows``, element by element; everything else is the base default."""

    def __init__(self, matrix):
        self._m = np.asarray(matrix, dtype=np.float64)
        super().__init__(*self._m.shape)

    def rows(self, t0, t1, experts=None):
        experts = range(self.num_experts()) if experts is None else experts
        block = [[float(self._m[t, int(i)]) for i in experts] for t in range(t0, t1)]
        return np.array(block, dtype=np.float64).reshape(t1 - t0, len(experts))


def round_losses(oracle, t, experts=None):
    """Loss vector of round ``t`` for ``experts`` (default: all experts)."""
    return oracle.rows(t - 1, t, experts)[0]


class Prefix(LossOracle):
    """Rounds ``1 .. horizon`` of ``oracle``, served as an environment of exactly ``horizon`` rounds."""

    def __init__(self, oracle, horizon):
        if not 0 <= horizon <= oracle.horizon():
            raise ValueError(f"horizon must be in [0, {oracle.horizon()}], got {horizon}")
        self._oracle = oracle
        super().__init__(horizon, oracle.num_experts())

    def rows(self, t0, t1, experts=None):
        if not 0 <= t0 <= t1 <= self.horizon():
            raise IndexError(f"rounds {t0 + 1} .. {t1} are outside 1 .. {self.horizon()}")
        return self._oracle.rows(t0, t1, experts)

    def coverage_ids(self):
        return self._oracle.coverage_ids()


def first_uncovered(oracle, t, active, threshold):
    """Smallest expert id farther than ``threshold`` from every active expert at round ``t``.

    One coverage query over the oracle's candidates; ``None`` when every
    expert is covered.
    """
    ids = oracle.coverage_ids()
    values = oracle.rows(t - 1, t, ids)[0]
    hits = np.flatnonzero(uncovered_mask(values, round_losses(oracle, t, active), threshold))
    return int(ids[hits[0]]) if hits.size else None


class Draws:
    """Stands in for a generator: ``random()`` replays the given uniforms in order."""

    def __init__(self, uniforms):
        self._draws = iter(np.asarray(uniforms, dtype=np.float64).tolist())

    def random(self):
        return next(self._draws)


def segmented_hedge(losses, starts, widths, uniforms):
    """Hedge restarted at every segment start over the first ``widths[p]`` columns.

    Round ``j`` of ``losses`` draws ``uniforms[j]``; a segment plays from a
    fresh :class:`HedgeState`, one :func:`update` per round, as a packing
    phase does.  Returns the chosen column, incurred loss and expected loss
    ``p @ l`` (under the :func:`distribution` ``p``) per round.
    """
    gen = Draws(uniforms)
    ends = list(starts[1:]) + [losses.shape[0]]
    chosen, incurred, means = [], [], []
    for start, end, width in zip(starts, ends, widths):
        state = HedgeState.fresh(int(width))
        for t in range(start, end):
            row = losses[t, :width]
            i = sample_categorical(np.exp(state.log_weights - state.log_weights.max()), gen)
            chosen.append(i)
            incurred.append(float(row[i]))
            means.append(float(distribution(state) @ row))
            state = update(state, row)
    return np.array(chosen, dtype=np.int64), np.array(incurred), np.array(means)


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


def inverse_cdf_pick(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Per row ``i``, the column where its CDF passes ``uniforms[i]`` times the row total.

    Columns past a round's own width carry weight exactly ``0.0``, so the
    last cumulative weight is that round's total, and the pick lies within
    its width unless the draw reached the total.
    """
    cumulative = np.cumsum(weights, axis=1)
    threshold = uniforms * cumulative[:, -1]
    pick = np.count_nonzero(cumulative <= threshold[:, None], axis=1)
    for i in np.flatnonzero(pick == weights.shape[1]).tolist():
        # A guard on the input: the kernel's rows peak at exp(0) = 1, so
        # their total is >= 1 and no draw in [0, 1) reaches it, but a draw
        # of 1.0 does.  Then every column counted, the zero-weight padding
        # too: take the last positive weight, inside the round's width.
        pick[i] = np.flatnonzero(weights[i])[-1]
    return pick


class TrajectoryRecorder:
    """Preallocated per-round recorder of a :class:`GameTrajectory`."""

    __slots__ = ("_t", "_chosen", "_incurred", "_cumulative", "_packing", "_phase", "_i", "_running")

    def __init__(self, horizon: int) -> None:
        self._t = np.empty(horizon, dtype=np.int64)
        self._chosen = np.empty(horizon, dtype=np.int64)
        self._incurred = np.empty(horizon, dtype=np.float64)
        self._cumulative = np.empty(horizon, dtype=np.float64)
        self._packing = np.empty(horizon, dtype=np.int64)
        self._phase = np.empty(horizon, dtype=np.int64)
        self._i = 0
        self._running = 0.0

    def add(self, t: int, chosen: int, incurred: float, packing_size: int, phase: int) -> None:
        i = self._i
        self._t[i] = t
        self._chosen[i] = chosen
        self._incurred[i] = incurred
        self._running += incurred
        self._cumulative[i] = self._running
        self._packing[i] = packing_size
        self._phase[i] = phase
        self._i = i + 1

    def finish(self, seed: int | None, extras: dict[str, Any] | None = None) -> GameTrajectory:
        if self._i != self._t.size:
            raise RuntimeError(f"recorded {self._i} rounds, expected {self._t.size}")
        return GameTrajectory(
            t=self._t,
            chosen=self._chosen,
            incurred=self._incurred,
            cumulative=self._cumulative,
            packing_size=self._packing,
            phase=self._phase,
            seed=seed,
            extras=dict(extras or {}),
        )


def play_hedge(oracle: LossOracle, rng: int | np.random.Generator = 0) -> GameTrajectory:
    T = oracle.horizon()
    if T < 1:
        raise ValueError(f"the oracle must have at least one round, got {T}")
    K = oracle.num_experts()
    if K is None:
        raise ValueError("plain exponential weights needs a finite expert set")
    gen, seed = normalize_rng(rng)

    state = HedgeState.fresh(K)
    recorder = TrajectoryRecorder(T)
    for t in range(1, T + 1):
        # Sampling is scale-invariant, so the weights need no division by their sum.
        weights = np.exp(state.log_weights - state.log_weights.max())
        i = sample_categorical(weights, gen)
        row = round_losses(oracle, t)
        recorder.add(t, i, float(row[i]), K, 1)
        state = update(state, row)

    extras: dict[str, Any] = {"algorithm": "hedge", "final_packing": K, "num_phases": 1}
    return recorder.finish(seed, extras)


@dataclass
class PackingState:
    """Active set, phase bookkeeping, and the inner hedge of the packing learner."""

    active: np.ndarray
    phase: int
    phase_start: int
    inner: HedgeState
    epsilon: float
    restarts: list[tuple[int, int]] = field(default_factory=list)
    admitted_at: list[int] = field(default_factory=list)

    @classmethod
    def fresh(cls, epsilon: float) -> "PackingState":
        if not (0.0 < epsilon <= 1.0):
            raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
        return cls(
            active=np.array([0], dtype=np.int64),
            phase=1,
            phase_start=0,
            inner=HedgeState.fresh(1),
            epsilon=float(epsilon),
            restarts=[(0, 1)],
            admitted_at=[0],
        )


def restart(state: PackingState, t: int) -> PackingState:
    """Reset the inner hedge over the enlarged active set and open a new phase."""
    size = int(state.active.size)
    inner = HedgeState.fresh(size)
    assert inner.t == 1
    return replace(
        state,
        phase=state.phase + 1,
        phase_start=t,
        inner=inner,
        restarts=state.restarts + [(t, size)],
    )


def advance(
    state: PackingState, t: int, oracle: LossOracle, gen: np.random.Generator
) -> tuple[PackingState, ExpertId, float, float]:
    """One round: sample from the pre-expansion weights, then grow/update."""
    log_weights = state.inner.log_weights
    idx = sample_categorical(np.exp(log_weights - log_weights.max()), gen)
    row = round_losses(oracle, t, state.active)
    chosen = int(state.active[idx])
    incurred = float(row[idx])
    mean_loss = float(distribution(state.inner) @ row)

    ids = oracle.coverage_ids()
    columns, added = many_experts.expand_packing(
        round_losses(oracle, t, ids), ids.searchsorted(state.active), 2.0 * state.epsilon
    )
    state = replace(state, active=ids[columns], admitted_at=state.admitted_at + [t] * len(added))
    if added:
        # The losses of the restart round update nothing: weights reset after it.
        state = restart(state, t)
    else:
        state = replace(state, inner=update(state.inner, row))
    return state, chosen, incurred, mean_loss


def play_many_experts(
    oracle: LossOracle, epsilon: float = 0.5, rng: int | np.random.Generator = 0
) -> GameTrajectory:
    T = oracle.horizon()
    if T < 1:
        raise ValueError(f"the oracle must have at least one round, got {T}")
    gen, seed = normalize_rng(rng)

    state = PackingState.fresh(epsilon)
    recorder = TrajectoryRecorder(T)
    for t in range(1, T + 1):
        state, chosen, incurred, _ = advance(state, t, oracle, gen)
        recorder.add(t, chosen, incurred, int(state.active.size), state.phase)

    extras: dict[str, Any] = {
        "algorithm": "many_experts",
        "epsilon": epsilon,
        "final_active": [int(i) for i in state.active],
        "admitted_at": list(state.admitted_at),
        "final_packing": int(state.active.size),
        "num_phases": state.phase,
        "restarts": list(state.restarts),
    }
    return recorder.finish(seed, extras)


@dataclass
class MetaState:
    """Grid, per-copy packing states, and the meta-level hedge."""

    grid: tuple[float, ...]
    copies: list[PackingState]
    meta: HedgeState

    def __post_init__(self) -> None:
        if len(self.copies) != len(self.grid) or self.meta.log_weights.size != len(self.grid):
            raise ValueError("copies and meta weights must both match the grid size")


def play_meta(oracle: LossOracle, seed: int = 0) -> GameTrajectory:
    T = oracle.horizon()
    grid = build_grid(T)
    R = len(grid)

    state = MetaState(
        grid=grid,
        copies=[PackingState.fresh(eps) for eps in grid],
        meta=HedgeState.fresh(R),
    )
    meta_gen = game_rng(seed, 0)
    copy_gens = [game_rng(seed, r) for r in range(1, R + 1)]

    recorder = TrajectoryRecorder(T)
    copy_cumulative = [0.0] * R
    chosen_copy = np.empty(T, dtype=np.int64)

    for t in range(1, T + 1):
        chosen = np.empty(R, dtype=np.int64)
        realized = np.empty(R, dtype=np.float64)
        expected = np.empty(R, dtype=np.float64)
        for r in range(R):
            state.copies[r], chosen_r, incurred_r, mean_r = advance(
                state.copies[r], t, oracle, copy_gens[r]
            )
            chosen[r] = chosen_r
            realized[r] = incurred_r
            expected[r] = mean_r
            copy_cumulative[r] += incurred_r

        r_star = sample_categorical(
            np.exp(state.meta.log_weights - state.meta.log_weights.max()), meta_gen
        )
        chosen_copy[t - 1] = r_star
        recorder.add(t, int(chosen[r_star]), float(realized[r_star]), R, 1)

        state.meta = update(state.meta, expected)

    copy_reports = []
    for r in range(R):
        copy = state.copies[r]
        copy_reports.append(
            {
                "algorithm": "many_experts",
                "epsilon": grid[r],
                "final_active": [int(i) for i in copy.active],
                "admitted_at": list(copy.admitted_at),
                "final_packing": int(copy.active.size),
                "num_phases": copy.phase,
                "restarts": list(copy.restarts),
                "learner_cumulative": copy_cumulative[r],
            }
        )

    extras: dict[str, Any] = {
        "algorithm": "meta_tuner",
        "num_copies": R,
        "epsilons": list(grid),
        "chosen_copy": chosen_copy,
        "copy_reports": copy_reports,
    }
    return recorder.finish(seed, extras)


# Unchunked dense generators: each draws its noise as one T x K array, as
# the generators did before they worked a chunk at a time in one buffer.
# They skip the parameter checks and return the realized matrix and the
# ground truth, for bit-for-bit comparison.


def add_noise(structure, epsilon_noise, rng):
    """``clip(structure + E, -1, 1)`` with the whole noise matrix ``E`` drawn at once."""
    shape = structure.shape
    L = np.zeros(shape)
    if epsilon_noise > 0:
        L = rng.uniform(-epsilon_noise, epsilon_noise, size=shape)
    L += structure
    np.clip(L, -1.0, 1.0, out=L)
    return L


def make_low_rank(T, K, d, epsilon_noise, seed):
    rng = game_rng(seed)
    U = rng.uniform(-1.0, 1.0, size=(T, d))
    W = rng.uniform(-1.0, 1.0, size=(d, K))
    product = U @ W
    peak = max(float(product.max()), -float(product.min()))
    if peak > 0.0:
        scale = (1.0 - epsilon_noise) / peak
        W *= scale
        product *= scale
    return add_noise(product, epsilon_noise, rng), {"U": U, "W": W}


def make_sparse_dictionary(T, K, n, k, epsilon_noise, seed):
    rng = game_rng(seed)
    D = rng.uniform(-1.0, 1.0, size=(T, n))
    D /= np.maximum(np.abs(D).sum(axis=1), 1.0)[:, None]
    V = np.zeros((n, K))
    for j in range(K):
        if k > 0:
            support = rng.choice(n, size=k, replace=False)
            V[support, j] = rng.uniform(-1.0, 1.0, size=k)
    return add_noise(D @ V, epsilon_noise, rng), {"D": D, "V": V}


def make_bounded_variation_adversary(T, K, seed):
    rng = game_rng(seed)
    flip_round = np.full(K, T + 1, dtype=np.int64)
    alive = np.arange(K)
    for t in range(1, T + 1):
        half = alive.size // 2
        if half == 0:
            break
        flipped = rng.choice(alive, size=half, replace=False)
        flip_round[flipped] = t
        alive = np.setdiff1d(alive, flipped, assume_unique=True)
    rounds = np.arange(1, T + 1)
    return np.where(flip_round[None, :] <= rounds[:, None], 1.0, -1.0), {"flip_round": flip_round}


def make_iid_stochastic(T, K, means, noise="none", noise_scale=0.0, *, seed):
    mu = np.array(means, dtype=np.float64) if np.ndim(means) else np.full(K, float(means))
    rng = game_rng(seed)
    if noise == "none" or noise_scale == 0.0:
        L = np.tile(mu, (T, 1))
    elif noise == "uniform":
        L = mu[None, :] + rng.uniform(-noise_scale, noise_scale, size=(T, K))
    else:
        L = mu[None, :] + noise_scale * (rng.integers(0, 2, size=(T, K)) * 2.0 - 1.0)
    return L, {"means": mu}


def validate_loss_matrix(matrix):
    """The boundary check entry by entry: every value finite, then the largest ``|value|``."""
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    if not np.isfinite(m).all():
        raise ValueError("loss matrix contains non-finite values")
    overshoot = float(np.abs(m).max(initial=0.0)) - 1.0
    if overshoot > BOUNDARY_SLACK:
        raise ValueError(f"loss values exceed [-1, 1] by {overshoot:.3g}")
    return np.clip(m, -1.0, 1.0) if overshoot > 0.0 else m


# Whole-file matrix I/O: the CSV text and the binary payload are built as one
# string or bytes object, and the CSV reader parses every row before it
# checks the shape, as the package did before it streamed blocks of rows.


def write_matrix_csv(path, matrix):
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    lines = [",".join(repr(float(x)) for x in row) for row in m]
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_csv(path):
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows in matrix file")
    return np.array(rows, dtype=np.float64)


def write_matrix_binary(path, matrix):
    m = np.atleast_2d(np.ascontiguousarray(matrix, dtype=np.float64))
    rounds, experts = m.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sBII", b"CHLM", 1, rounds, experts))
        fh.write(m.astype("<f8", copy=False).tobytes(order="C"))
