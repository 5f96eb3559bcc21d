"""Accuracy-grid meta-learner: hedge over packing learners run at halving accuracies.

``R = ceil(log2 T)`` copies of the packing learner run side by side with
accuracies ``1, 1/2, 1/4, ...``; an exponential-weights layer treats the
copies as meta-experts and plays the action of whichever copy it samples.
Under full information every copy observes the losses regardless of the
meta-choice, so each copy's trajectory is identical to a standalone run with
the same derived stream.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from . import hedge
from .core import GameTrajectory, LossOracle, build_grid, game_rng
# Bound by name: a wrapper later set on many_experts.play_many_experts sees standalone games only.
from .many_experts import play_many_experts, total_schedule


def play_meta(oracle: LossOracle, seed: int = 0) -> GameTrajectory:
    """Run the accuracy grid over the oracle's ``T`` rounds from one master seed.

    Copy ``r`` draws from the stream ``game_rng(seed, r)`` and the meta layer
    from ``game_rng(seed, 0)``, so any copy can be replayed standalone; here
    each copy is that standalone game, a call of
    :func:`~packhedge.many_experts.play_many_experts` with ``expected=True``,
    and the meta layer is one hedge pass over the ``T x R`` feedback of the
    copies: each copy's expected loss under its own sampling distribution,
    popped from the copy's ``extras["expected_losses"]``.

    The returned trajectory records the actually played expert per round; its
    extras carry the per-copy trajectories and their summed schedule counts.
    """
    T = oracle.horizon()
    grid = build_grid(T)  # rejects an oracle of fewer than two rounds
    R = len(grid)

    copies = [
        play_many_experts(oracle, eps, game_rng(seed, r), expected=True)
        for r, eps in enumerate(grid, 1)
    ]
    feedback = np.column_stack([copy.extras.pop("expected_losses") for copy in copies])
    # Sampling is scale-invariant, so the unnormalized weights suffice.
    chosen_copy, _, _ = hedge.exponential_weights(
        lambda j0, j1, _: feedback[j0:j1], [0], [R], game_rng(seed, 0).random(T)
    )
    rounds = np.arange(T)
    chosen = np.column_stack([copy.chosen for copy in copies])[rounds, chosen_copy]
    realized = np.column_stack([copy.incurred for copy in copies])[rounds, chosen_copy]

    extras: dict[str, Any] = {
        "algorithm": "meta_tuner",
        "num_copies": R,
        "epsilons": list(grid),
        "chosen_copy": chosen_copy,
        "copies": copies,
        "schedule": total_schedule([copy.extras["schedule"] for copy in copies]),
    }
    return GameTrajectory.from_rounds(chosen, realized, np.full(T, R), np.ones(T), seed, extras)
