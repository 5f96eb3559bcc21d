"""Accuracy-grid meta-learner: hedge over packing learners run at halving accuracies.

``R = ceil(log2 T)`` copies of the packing learner run side by side with
accuracies ``1, 1/2, 1/4, ...``; an exponential-weights layer treats the
copies as meta-experts and plays the action of whichever copy it samples.
Under full information every copy observes the losses regardless of the
meta-choice, so each copy's trajectory is identical to a standalone run with
the same derived stream.  The copies share one schedule pass, which reads
each block of candidate rows once for the whole grid (a binary matrix file's
schedule blocks are read once per meta game, not once per copy); each copy
keeps its own schedule counts, and the meta game reports their sum.
"""

from __future__ import annotations

from typing import Any

import numpy as np

# Called through the module, so a substitute set on many_experts._schedule is
# seen.  A copy is its share of the grid's one schedule pass, played by
# many_experts._play_packing, never a play_many_experts call: a wrapper on
# many_experts.play_many_experts sees standalone games only.
from . import hedge, many_experts
from .core import GameTrajectory, LossOracle, build_grid, game_rng


def play_meta(oracle: LossOracle, seed: int = 0) -> GameTrajectory:
    """Run the accuracy grid over the oracle's ``T`` rounds from one master seed.

    Copy ``r`` draws from the stream ``game_rng(seed, r)`` and the meta layer
    from ``game_rng(seed, 0)``, so any copy can be replayed standalone.  One
    schedule pass grows the packings of the whole grid in lockstep, and each
    copy plays its kernel pass from its own packing, as
    :func:`~packhedge.many_experts.play_many_experts` with ``expected=True``
    would: the same trajectory, bit for bit.  The meta layer is one hedge
    pass over the ``T x R`` feedback of the copies: each copy's expected
    loss under its own sampling distribution, popped from the copy's
    ``extras["expected_losses"]``.

    The returned trajectory records the actually played expert per round; its
    extras carry the per-copy trajectories and their summed schedule counts.
    """
    T = oracle.horizon()
    grid = build_grid(T)  # rejects an oracle of fewer than two rounds
    R = len(grid)

    copies = [
        many_experts._play_packing(oracle, eps, schedule, game_rng(seed, r), None, expected=True)
        for r, (eps, schedule) in enumerate(zip(grid, many_experts._schedule(oracle, grid)), 1)
    ]
    feedback = np.column_stack([copy.extras.pop("expected_losses") for copy in copies])
    # Sampling is scale-invariant, so the unnormalized weights suffice.
    chosen_copy, _, _ = hedge.exponential_weights(
        lambda j0, j1, _: feedback[j0:j1], [0], [R], game_rng(seed, 0).random(T)
    )
    # R = ceil(log2 T) <= 32 for any u32 T, within the 64 choices of np.choose.
    chosen = np.choose(chosen_copy, [copy.chosen for copy in copies])
    realized = np.choose(chosen_copy, [copy.incurred for copy in copies])

    extras: dict[str, Any] = {
        "algorithm": "meta_tuner",
        "num_copies": R,
        "epsilons": list(grid),
        "chosen_copy": chosen_copy,
        "copies": copies,
        "schedule": many_experts.total_schedule([copy.extras["schedule"] for copy in copies]),
    }
    return GameTrajectory.from_rounds(chosen, realized, np.full(T, R), np.ones(T), seed, extras)
