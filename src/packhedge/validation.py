"""Seeded bound-validation suites, shared by the CLI and the acceptance tests.

Each suite runs a batch of games or randomized instances, measures the
relevant quantity, compares it against the guarantee it is supposed to
satisfy, and returns a structured pass/fail result.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import analysis, environments, hedge, many_experts, meta_tuner
from .core import LossOracle, game_rng


@dataclass
class ValidationResult:
    suite: str
    passed: bool
    summary: str
    details: dict[str, Any] = field(default_factory=dict)


def _regret(trajectory, oracle: LossOracle) -> float:
    return analysis.empirical_regret(trajectory, oracle).regret


def validate_lemma1(seed: int = 0) -> ValidationResult:
    """Mean regret of plain exponential weights on i.i.d. +/-1 losses vs 4*sqrt(T ln K)."""
    start = time.perf_counter()
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
    return ValidationResult(
        suite="lemma1",
        passed=mean_regret <= bound,
        summary=f"mean regret {mean_regret:.2f} vs bound {bound:.2f} "
        f"({num_seeds} seeds, T={horizon}, K={num_experts})",
        details={
            "mean_regret": mean_regret,
            "bound": bound,
            "max_regret": float(np.max(regrets)),
            "num_seeds": num_seeds,
            "horizon": horizon,
            "num_experts": num_experts,
            "wall_time": time.perf_counter() - start,
        },
    )


def validate_duality(seed: int = 0) -> ValidationResult:
    """Exact packing/cover sandwich on randomized small instances, zero violations."""
    start = time.perf_counter()
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
    return ValidationResult(
        suite="duality",
        passed=violations == 0,
        summary=f"{violations} violations over {checks} sandwich checks "
        f"({instances} instances)",
        details={
            "violations": violations,
            "checks": checks,
            "instances": instances,
            "wall_time": time.perf_counter() - start,
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
            environments.make_iid_stochastic(500, 8, iid_means, "uniform", 0.1, run_seed),
            0.25,
        ),
        ("clustered_small", environments.make_clustered_binary(60, 16, 4, run_seed), 0.5),
        (
            "iid_small",
            environments.make_iid_stochastic(80, 6, small_means, "uniform", 0.1, run_seed),
            0.3,
        ),
    ]


def _packing_certificate_holds(matrix: np.ndarray, active: list[int], epsilon: float) -> bool:
    """Exhaustive pairwise check that ``active`` is a 2*eps packing of the matrix."""
    for a in range(len(active)):
        for b in range(a + 1, len(active)):
            if analysis.expert_distance(matrix, active[a], active[b]) <= 2.0 * epsilon:
                return False
    return True


def validate_theorem1(seed: int = 0) -> ValidationResult:
    """Per-run regret vs the observed-packing bound on every shipped environment.

    Also verifies, per run, that the final active set is a valid
    ``2*eps``-packing of the realized matrix, that the phase count never
    exceeds the packing size, and (on small instances) that the packing is no
    larger than the exact cover at the same accuracy.
    """
    start = time.perf_counter()
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
            if env.num_experts() <= 20:
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
    return ValidationResult(
        suite="theorem1",
        passed=passed,
        summary=(
            f"{bound_violations}/{runs} per-run bound violations "
            f"({100 * violation_rate:.2f}%), {certificate_failures} certificate failures, "
            f"{cover_bound_failures} packing-vs-cover failures"
        ),
        details={
            "runs": runs,
            "bound_violations": bound_violations,
            "violation_rate": violation_rate,
            "certificate_failures": certificate_failures,
            "cover_bound_failures": cover_bound_failures,
            "mean_by_env": mean_by_env,
            "wall_time": time.perf_counter() - start,
        },
    )


def validate_corollary3(seed: int = 0) -> ValidationResult:
    """Binary clustered losses: packing capped at the cluster count, regret at N + 8*sqrt(T N ln N)."""
    start = time.perf_counter()
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
    return ValidationResult(
        suite="corollary3",
        passed=passed,
        summary=(
            f"max packing {max_packing} (cap {num_clusters}), "
            f"mean regret {mean_regret:.2f} vs bound {bound:.2f} ({num_seeds} seeds)"
        ),
        details={
            "mean_regret": mean_regret,
            "bound": bound,
            "max_packing": max_packing,
            "num_clusters": num_clusters,
            "num_seeds": num_seeds,
            "horizon": horizon,
            "num_experts": num_experts,
            "wall_time": time.perf_counter() - start,
        },
    )


def validate_lower_bound(seed: int = 0) -> ValidationResult:
    """Halving adversary forces linear regret on exponential weights; variation stays <= 2."""
    start = time.perf_counter()
    num_seeds, horizon, num_experts = 200, 12, 4096
    regrets = []
    max_variation = 0.0
    for s in range(num_seeds):
        run_seed = seed + s
        env = environments.make_bounded_variation_adversary(horizon, num_experts, run_seed)
        trajectory = hedge.play_hedge(env, rng=run_seed)
        regrets.append(_regret(trajectory, env))
        variation = analysis.variation_profile(env.to_matrix()).per_expert
        max_variation = max(max_variation, float(variation.max()))
    mean_regret = float(np.mean(regrets))
    floor = 0.9 * horizon
    passed = mean_regret >= floor and max_variation <= 2.0
    return ValidationResult(
        suite="lower_bound",
        passed=passed,
        summary=(
            f"mean regret {mean_regret:.2f} vs floor {floor:.2f}, "
            f"max variation {max_variation:.2f} (cap 2)"
        ),
        details={
            "mean_regret": mean_regret,
            "floor": floor,
            "max_variation": max_variation,
            "num_seeds": num_seeds,
            "horizon": horizon,
            "num_experts": num_experts,
            "wall_time": time.perf_counter() - start,
        },
    )


def validate_logsum(seed: int = 0) -> ValidationResult:
    """Random strictly increasing natural sequences starting at 1 satisfy the log-sum cap."""
    start = time.perf_counter()
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
    return ValidationResult(
        suite="logsum",
        passed=failures == 0,
        summary=f"{failures} violations over {num_sequences} sequences",
        details={
            "failures": failures,
            "num_sequences": num_sequences,
            "wall_time": time.perf_counter() - start,
        },
    )


def _meta_fixtures(run_seed: int, horizon: int) -> list[tuple[str, LossOracle]]:
    return [
        ("clustered_binary", environments.make_clustered_binary(horizon, 64, 4, run_seed)),
        ("low_rank", environments.make_low_rank(horizon, 48, 2, 0.05, run_seed)),
    ]


def validate_meta(seed: int = 0) -> ValidationResult:
    """Accuracy-grid learner tracks its best copy within the meta-hedge overhead.

    Per fixture, the seed-averaged meta cumulative loss must not exceed the
    best copy's by more than ``4*sqrt(T ln R)`` plus three standard errors of
    the paired difference.  Also replays one seed's copies standalone and
    requires bit-identical trajectories.
    """
    start = time.perf_counter()
    num_seeds, horizon = 50, 256
    grid = meta_tuner.build_grid(horizon)
    num_copies = len(grid)
    overhead = 4.0 * math.sqrt(horizon * math.log(num_copies))
    per_env: dict[str, dict[str, float]] = {}
    passed = True
    equivalence_ok = True

    fixture_names = [name for name, _ in _meta_fixtures(seed, horizon)]
    meta_cum = {name: np.empty(num_seeds) for name in fixture_names}
    copy_cum = {name: np.empty((num_seeds, num_copies)) for name in fixture_names}
    for s in range(num_seeds):
        run_seed = seed + s
        for name, env in _meta_fixtures(run_seed, horizon):
            trajectory = meta_tuner.play_meta(env, seed=run_seed)
            meta_cum[name][s] = trajectory.learner_cumulative
            copy_cum[name][s] = trajectory.extras["copy_cumulative"][-1]

    for name in fixture_names:
        best_copy = int(np.argmin(copy_cum[name].mean(axis=0)))
        diff = meta_cum[name] - copy_cum[name][:, best_copy]
        stderr = float(diff.std(ddof=1) / math.sqrt(num_seeds))
        margin = overhead + 3.0 * stderr
        gap = float(diff.mean())
        per_env[name] = {
            "mean_gap_to_best_copy": gap,
            "allowance": margin,
            "best_copy": best_copy,
            "best_copy_epsilon": grid[best_copy],
        }
        if gap > margin:
            passed = False

        env = dict(_meta_fixtures(seed, horizon))[name]
        trajectory = meta_tuner.play_meta(env, seed=seed)
        for r, copy_traj in enumerate(trajectory.extras["copies"], start=1):
            standalone = many_experts.play_many_experts(env, grid[r - 1], rng=game_rng(seed, r))
            if not (
                np.array_equal(copy_traj.chosen, standalone.chosen)
                and np.array_equal(copy_traj.incurred, standalone.incurred)
                and np.array_equal(copy_traj.packing_size, standalone.packing_size)
                and np.array_equal(copy_traj.phase, standalone.phase)
            ):
                equivalence_ok = False

    passed = passed and equivalence_ok
    return ValidationResult(
        suite="meta",
        passed=passed,
        summary=(
            f"gap-to-best-copy within allowance on {len(per_env)} fixtures; "
            f"standalone replay {'bit-identical' if equivalence_ok else 'MISMATCH'}"
        ),
        details={
            "per_env": per_env,
            "overhead": overhead,
            "num_copies": num_copies,
            "num_seeds": num_seeds,
            "horizon": horizon,
            "equivalence_ok": equivalence_ok,
            "wall_time": time.perf_counter() - start,
        },
    )


SUITES: dict[str, Callable[..., ValidationResult]] = {
    "duality": validate_duality,
    "lemma1": validate_lemma1,
    "theorem1": validate_theorem1,
    "corollary3": validate_corollary3,
    "lower_bound": validate_lower_bound,
    "logsum": validate_logsum,
    "meta": validate_meta,
}


def run_suite(name: str, seed: int) -> ValidationResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed=seed)
