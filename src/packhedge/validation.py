"""Seeded bound-validation suites, shared by the CLI and the acceptance tests.

Each suite runs a batch of games or randomized instances, measures the
relevant quantity, compares it against the guarantee it is supposed to
satisfy, and returns its verdict ``(passed, summary, details)``;
:func:`run_suite` runs one by name, times it, and names its result.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import analysis, core, environments, hedge, many_experts
from .core import GameTrajectory, LossOracle, game_rng


@dataclass
class ValidationResult:
    suite: str
    passed: bool
    summary: str
    details: dict[str, Any]


#: The outcome of one suite: whether it passed, a one-line summary, and details.
Verdict = tuple[bool, str, dict[str, Any]]


def _regret(trajectory, oracle: LossOracle) -> float:
    return analysis.empirical_regret(trajectory, oracle).regret


def validate_lemma1(seed: int) -> Verdict:
    """Mean regret of plain exponential weights on i.i.d. +/-1 losses vs 4*sqrt(T ln K)."""
    num_seeds, horizon, num_experts = 50, 10_000, 10
    regrets = []
    for s in range(num_seeds):
        run_seed = seed + s
        env = environments.make_iid_stochastic(
            horizon, num_experts, means=0.0, noise="sign", noise_scale=1.0, seed=run_seed
        )
        trajectory = hedge.play_hedge(env, rng=run_seed)
        regrets.append(_regret(trajectory, env))
    mean_regret = float(np.mean(regrets))
    bound = hedge.hedge_regret_bound(horizon, num_experts)
    return (
        mean_regret <= bound,
        (
            f"mean regret {mean_regret:.2f} vs bound {bound:.2f} "
            f"({num_seeds} seeds, T={horizon}, K={num_experts})"
        ),
        {
            "mean_regret": mean_regret,
            "bound": bound,
            "max_regret": float(np.max(regrets)),
            "num_seeds": num_seeds,
            "horizon": horizon,
            "num_experts": num_experts,
        },
    )


def validate_duality(seed: int) -> Verdict:
    """Exact packing/cover sandwich on randomized small instances, zero violations."""
    instances, max_experts, max_rounds, epsilons = 500, 8, 5, (0.1, 0.25, 0.5, 1.0)
    rng = game_rng(seed, 101)
    violations = 0
    checks = 0
    for _ in range(instances):
        experts = int(rng.integers(2, max_experts + 1))
        rounds = int(rng.integers(1, max_rounds + 1))
        matrix = rng.uniform(-1.0, 1.0, size=(rounds, experts))
        for eps in epsilons:
            checks += 1
            try:
                report = analysis.duality_certificate(matrix, eps, budget=max_experts)
            except RuntimeError:
                violations += 1
                continue
            if report.exact_cover is None:
                raise AssertionError("duality suite instances must fit the exact budget")
    return (
        violations == 0,
        f"{violations} violations over {checks} sandwich checks ({instances} instances)",
        {
            "violations": violations,
            "checks": checks,
            "instances": instances,
        },
    )


def _validation_environments(run_seed: int) -> list[tuple[str, LossOracle, float]]:
    """One seeded instance of every shipped environment kind, with its accuracy."""
    uniform = environments.MatrixOracle(game_rng(run_seed, 11).uniform(-1.0, 1.0, size=(400, 30)))
    iid_means = np.linspace(-0.8, 0.8, 8)
    small_means = np.linspace(-0.6, 0.6, 6)
    return [
        ("finite_matrix_uniform", uniform, 0.3),
        ("clustered_binary", environments.make_clustered_binary(400, 300, 6, run_seed), 0.5),
        ("low_rank", environments.make_low_rank(300, 60, 2, 0.05, run_seed), 0.2),
        ("sparse_dictionary", environments.make_sparse_dictionary(300, 60, 8, 2, 0.05, run_seed), 0.2),
        ("bounded_variation", environments.make_bounded_variation_adversary(10, 1024, run_seed), 0.5),
        (
            "iid_stochastic",
            environments.make_iid_stochastic(500, 8, iid_means, "uniform", 0.1, seed=run_seed),
            0.25,
        ),
        ("clustered_small", environments.make_clustered_binary(60, 16, 4, run_seed), 0.5),
        (
            "iid_small",
            environments.make_iid_stochastic(80, 6, small_means, "uniform", 0.1, seed=run_seed),
            0.3,
        ),
    ]


def _packing_certificate_holds(matrix: np.ndarray, active: list[int], epsilon: float) -> bool:
    """Exhaustive pairwise check that ``active`` is a 2*eps packing of the matrix.

    It holds when the only pairs within ``2 * epsilon`` are the diagonal's.
    """
    within = analysis.distance_matrix(matrix[:, active]) <= 2.0 * epsilon
    return int(np.count_nonzero(within)) == len(active)


def validate_theorem1(seed: int) -> Verdict:
    """Per-run regret vs the observed-packing bound on every shipped environment.

    Also verifies, per run, that the final active set is a valid
    ``2*eps``-packing of the realized matrix, that the phase count never
    exceeds the packing size, and (on small instances) that the packing is no
    larger than the exact cover at the same accuracy.
    """
    seeds_per_env = 30
    runs = 0
    bound_violations = 0
    certificate_failures = 0
    cover_bound_failures = 0
    mean_by_env: dict[str, dict[str, float]] = {}
    per_env: dict[str, list[tuple[float, float]]] = {}

    for s in range(seeds_per_env):
        run_seed = seed + s
        for name, env, epsilon in _validation_environments(run_seed):
            T = env.horizon()
            trajectory = many_experts.play_many_experts(env, epsilon, rng=run_seed)
            extras = trajectory.extras
            final_packing = extras["final_packing"]
            phases = extras["num_phases"]
            regret = _regret(trajectory, env)
            bound = many_experts.packing_regret_bound(final_packing, phases, epsilon, T)
            runs += 1
            if regret > bound:
                bound_violations += 1
            if phases > final_packing:
                certificate_failures += 1
            matrix = env.to_matrix()
            if not _packing_certificate_holds(matrix, extras["final_active"], epsilon):
                certificate_failures += 1
            exact_cover = analysis.covering_number_exact(matrix, epsilon, budget=20)
            if exact_cover is not None and final_packing > exact_cover:
                cover_bound_failures += 1
            per_env.setdefault(name, []).append((regret, bound))

    mean_failures = 0
    for name, pairs in per_env.items():
        regrets = np.array([r for r, _ in pairs])
        bounds = np.array([b for _, b in pairs])
        mean_by_env[name] = {
            "mean_regret": float(regrets.mean()),
            "mean_bound": float(bounds.mean()),
        }
        if regrets.mean() > bounds.mean():
            mean_failures += 1

    violation_rate = bound_violations / runs
    passed = (
        violation_rate < 0.05
        and mean_failures == 0
        and certificate_failures == 0
        and cover_bound_failures == 0
    )
    return (
        passed,
        (
            f"{bound_violations}/{runs} per-run bound violations "
            f"({100 * violation_rate:.2f}%), {certificate_failures} certificate failures, "
            f"{cover_bound_failures} packing-vs-cover failures"
        ),
        {
            "runs": runs,
            "bound_violations": bound_violations,
            "violation_rate": violation_rate,
            "certificate_failures": certificate_failures,
            "cover_bound_failures": cover_bound_failures,
            "mean_by_env": mean_by_env,
        },
    )


def validate_corollary3(seed: int) -> Verdict:
    """Binary clustered losses: packing capped at the cluster count, regret at N + 8*sqrt(T N ln N)."""
    num_seeds, horizon, num_experts, num_clusters, epsilon = 50, 5000, 100_000, 8, 0.5
    regrets = []
    max_packing = 0
    for s in range(num_seeds):
        run_seed = seed + s
        env = environments.make_clustered_binary(horizon, num_experts, num_clusters, run_seed)
        trajectory = many_experts.play_many_experts(env, epsilon, rng=run_seed)
        max_packing = max(max_packing, trajectory.extras["final_packing"])
        regrets.append(_regret(trajectory, env))
    mean_regret = float(np.mean(regrets))
    bound = num_clusters + 8.0 * math.sqrt(horizon * num_clusters * math.log(num_clusters))
    passed = max_packing <= num_clusters and mean_regret <= bound
    return (
        passed,
        (
            f"max packing {max_packing} (cap {num_clusters}), "
            f"mean regret {mean_regret:.2f} vs bound {bound:.2f} ({num_seeds} seeds)"
        ),
        {
            "mean_regret": mean_regret,
            "bound": bound,
            "max_packing": max_packing,
            "num_clusters": num_clusters,
            "num_seeds": num_seeds,
            "horizon": horizon,
            "num_experts": num_experts,
        },
    )


def validate_lower_bound(seed: int) -> Verdict:
    """Halving adversary forces linear regret on exponential weights; variation stays <= 2."""
    num_seeds, horizon, num_experts = 200, 12, 4096
    regrets = []
    max_variation = 0.0
    for s in range(num_seeds):
        run_seed = seed + s
        env = environments.make_bounded_variation_adversary(horizon, num_experts, run_seed)
        trajectory = hedge.play_hedge(env, rng=run_seed)
        regrets.append(_regret(trajectory, env))
        variation = analysis.variation_profile(env.to_matrix())
        max_variation = max(max_variation, float(variation.max()))
    mean_regret = float(np.mean(regrets))
    floor = 0.9 * horizon
    passed = mean_regret >= floor and max_variation <= 2.0
    return (
        passed,
        (
            f"mean regret {mean_regret:.2f} vs floor {floor:.2f}, "
            f"max variation {max_variation:.2f} (cap 2)"
        ),
        {
            "mean_regret": mean_regret,
            "floor": floor,
            "max_variation": max_variation,
            "num_seeds": num_seeds,
            "horizon": horizon,
            "num_experts": num_experts,
        },
    )


def validate_logsum(seed: int) -> Verdict:
    """Random strictly increasing natural sequences starting at 1 satisfy the log-sum cap."""
    num_sequences, max_value = 1000, 10_000
    rng = game_rng(seed, 108)
    failures = 0
    for _ in range(num_sequences):
        length = int(rng.integers(1, 41))
        if length == 1:
            sequence = [1]
        else:
            tail = rng.choice(np.arange(2, max_value + 1), size=length - 1, replace=False)
            sequence = [1] + sorted(int(x) for x in tail)
        if not analysis.logsum_bound_check(sequence):
            failures += 1
    return (
        failures == 0,
        f"{failures} violations over {num_sequences} sequences",
        {
            "failures": failures,
            "num_sequences": num_sequences,
        },
    )


def _meta_fixtures(run_seed: int, horizon: int) -> list[tuple[str, LossOracle]]:
    return [
        ("clustered_binary", environments.make_clustered_binary(horizon, 64, 4, run_seed)),
        ("low_rank", environments.make_low_rank(horizon, 48, 2, 0.05, run_seed)),
    ]


def _replays_standalone(env: LossOracle, trajectory: GameTrajectory) -> bool:
    """Whether a meta game on ``env`` is its copies' standalone games, bit for bit.

    The played expert and loss must pick the chosen copy's at every round,
    and each copy's report must be its replay's extras and cumulative loss.
    Each replay runs its own schedule pass, each copy its share of the grid's.
    """
    games = [
        many_experts.play_many_experts(env, epsilon, rng=game_rng(trajectory.seed, r))
        for r, epsilon in enumerate(trajectory.extras["epsilons"], start=1)
    ]
    picked = trajectory.extras["chosen_copy"]
    return (
        np.array_equal(trajectory.chosen, np.choose(picked, [g.chosen for g in games]))
        and np.array_equal(trajectory.incurred, np.choose(picked, [g.incurred for g in games]))
        and trajectory.extras["copy_reports"]
        == [g.extras | {"learner_cumulative": g.learner_cumulative} for g in games]
    )


def validate_meta(seed: int) -> Verdict:
    """Accuracy-grid learner tracks its best copy within the meta-hedge overhead.

    Per fixture, the seed-averaged meta cumulative loss must not exceed the
    best copy's by more than the hedge bound ``4*sqrt(T ln R)`` over the ``R``
    copies plus three standard errors of the paired difference.  Also replays
    the first seed's copies standalone (:func:`_replays_standalone`), on both
    fixtures and on the README-scale clustered instance (T=5000, K=10^5, N=8).
    """
    num_seeds, horizon = 50, 256
    grid = core.build_grid(horizon)
    num_copies = len(grid)
    overhead = hedge.hedge_regret_bound(horizon, num_copies)
    meta_cum: dict[str, list[float]] = {}
    copy_cum: dict[str, list[list[float]]] = {}
    equivalence_ok = True
    for s in range(num_seeds):
        for name, env in _meta_fixtures(seed + s, horizon):
            trajectory = many_experts.play_meta(env, seed=seed + s)
            meta_cum.setdefault(name, []).append(trajectory.learner_cumulative)
            reports = trajectory.extras["copy_reports"]
            copy_cum.setdefault(name, []).append([c["learner_cumulative"] for c in reports])
            if s == 0:
                equivalence_ok &= _replays_standalone(env, trajectory)
    readme = environments.make_clustered_binary(5000, 100_000, 8, seed)
    equivalence_ok &= _replays_standalone(readme, many_experts.play_meta(readme, seed=seed))

    per_env: dict[str, dict[str, float]] = {}
    for name, copy_rows in copy_cum.items():
        copy_losses = np.array(copy_rows)
        best_copy = int(np.argmin(copy_losses.mean(axis=0)))
        diff = np.array(meta_cum[name]) - copy_losses[:, best_copy]
        per_env[name] = {
            "mean_gap_to_best_copy": float(diff.mean()),
            "allowance": overhead + 3.0 * float(diff.std(ddof=1) / math.sqrt(num_seeds)),
            "best_copy": best_copy,
            "best_copy_epsilon": grid[best_copy],
        }

    within = all(stats["mean_gap_to_best_copy"] <= stats["allowance"] for stats in per_env.values())
    return (
        within and equivalence_ok,
        (
            f"gap-to-best-copy within allowance on {len(per_env)} fixtures; "
            f"standalone replay {'bit-identical' if equivalence_ok else 'MISMATCH'}"
            f" on {len(per_env)} fixtures and clustered_binary T=5000 K=100000"
        ),
        {
            "per_env": per_env,
            "overhead": overhead,
            "num_copies": num_copies,
            "num_seeds": num_seeds,
            "horizon": horizon,
            "equivalence_ok": equivalence_ok,
        },
    )


SUITES: dict[str, Callable[[int], Verdict]] = {
    "duality": validate_duality,
    "lemma1": validate_lemma1,
    "theorem1": validate_theorem1,
    "corollary3": validate_corollary3,
    "lower_bound": validate_lower_bound,
    "logsum": validate_logsum,
    "meta": validate_meta,
}


def run_suite(name: str, seed: int) -> ValidationResult:
    """Run the suite ``name`` at ``seed``: its verdict, named, with its wall time in details."""
    start = time.perf_counter()
    passed, summary, details = SUITES[name](seed)
    details["wall_time"] = time.perf_counter() - start
    return ValidationResult(name, passed, summary, details)
