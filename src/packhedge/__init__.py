"""Online learning with expert advice at scale.

Adaptive exponential weights, a packing-grown active-set learner with
restarts, an accuracy-grid meta-learner, adversarial environment generators,
and exact covering/packing analysis tools.
"""

__version__ = "0.1.0"

from .core import (
    ExpertId,
    GameConfig,
    GameTrajectory,
    LossOracle,
    build_grid,
    game_rng,
)
from .hedge import hedge_regret_bound, play_hedge
from .many_experts import (
    expand_packing,
    packing_regret_bound,
    play_many_experts,
    play_meta,
)
from .environments import (
    EnvironmentSpec,
    MatrixFileOracle,
    MatrixOracle,
    make_bounded_variation_adversary,
    make_clustered_binary,
    make_environment,
    make_iid_stochastic,
    make_low_rank,
    make_sparse_dictionary,
)
from .analysis import (
    CoverReport,
    RegretLedger,
    covering_number_exact,
    duality_certificate,
    empirical_regret,
    logsum_bound_check,
    packing_greedy,
    packing_number_exact,
    variation_profile,
)

__all__ = [
    "__version__",
    "ExpertId",
    "GameConfig",
    "GameTrajectory",
    "LossOracle",
    "game_rng",
    "hedge_regret_bound",
    "play_hedge",
    "expand_packing",
    "packing_regret_bound",
    "play_many_experts",
    "build_grid",
    "play_meta",
    "EnvironmentSpec",
    "MatrixFileOracle",
    "MatrixOracle",
    "make_bounded_variation_adversary",
    "make_clustered_binary",
    "make_environment",
    "make_iid_stochastic",
    "make_low_rank",
    "make_sparse_dictionary",
    "CoverReport",
    "RegretLedger",
    "covering_number_exact",
    "duality_certificate",
    "empirical_regret",
    "logsum_bound_check",
    "packing_greedy",
    "packing_number_exact",
    "variation_profile",
]
