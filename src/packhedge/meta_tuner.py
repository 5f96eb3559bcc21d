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
    :func:`~packhedge.many_experts.play_many_experts` would: the same
    trajectory, bit for bit.  The meta layer is one hedge pass over the
    ``T x R`` feedback of the copies: each copy's expected loss under its
    own sampling distribution.

    The returned trajectory records the actually played expert per round; its
    extras carry the copies' summed schedule counts and one report per copy,
    ``copy_reports``: its extras and ``learner_cumulative``, not its rounds.
    """
    T = oracle.horizon()
    grid = build_grid(T)  # rejects an oracle of fewer than two rounds
    R = len(grid)

    feedback = np.empty((T, R))
    chosen, incurred, reports = [], [], []
    for r, (eps, schedule) in enumerate(zip(grid, many_experts._schedule(oracle, grid)), 1):
        copy, feedback[:, r - 1] = many_experts._play_packing(
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
        "schedule": many_experts.total_schedule([report["schedule"] for report in reports]),
    }
    return GameTrajectory.from_rounds(played, realized, np.full(T, R), np.ones(T), seed, extras)
