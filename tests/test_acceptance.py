"""Acceptance suite: every shipped guarantee checked at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -v -s``).  The
statistical criteria run the full seed batches, so this module takes on the
order of a minute.
"""

import json
import math

import numpy as np
import pytest

from packhedge import cli, environments, hedge, validation
from packhedge.core import game_rng


def report(name: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"


def assert_scale(result, **scale):
    """The suite ran at its fixed scale, as its details report it."""
    assert {key: result.details[key] for key in scale} == scale


@pytest.fixture(scope="module")
def theorem1_result():
    return validation.run_suite("theorem1", seed=0)


def test_criterion_1_adaptive_hedge_regret_bound():
    result = validation.run_suite("lemma1", seed=0)
    assert_scale(result, num_seeds=50, horizon=10_000, num_experts=10)
    assert result.details["bound"] == pytest.approx(606.9708517540586)
    report(
        "criterion 1 (hedge regret bound, 50 seeds)",
        result.passed,
        f"{result.summary}; wall {result.details['wall_time']:.1f}s",
    )


def test_criterion_2_cover_packing_duality_suite():
    result = validation.run_suite("duality", seed=0)
    assert_scale(result, instances=500, checks=500 * 4)
    report(
        "criterion 2 (duality sandwich, 500 instances)",
        result.passed and result.details["wall_time"] < 60,
        f"{result.summary}; wall {result.details['wall_time']:.1f}s",
    )


def test_criterion_3_per_run_packing_regret_bound(theorem1_result):
    details = theorem1_result.details
    assert_scale(theorem1_result, runs=30 * 8)  # 30 seeds of each of 8 environments
    mean_ok = all(
        stats["mean_regret"] <= stats["mean_bound"]
        for stats in details["mean_by_env"].values()
    )
    passed = details["violation_rate"] < 0.05 and mean_ok and details["runs"] >= 200
    report(
        "criterion 3 (per-run regret bound, all environments)",
        passed,
        theorem1_result.summary + f" over {details['runs']} runs",
    )


def test_criterion_4_packing_certificates(theorem1_result):
    details = theorem1_result.details
    passed = details["certificate_failures"] == 0 and details["cover_bound_failures"] == 0
    report(
        "criterion 4 (packing validity and cover cap)",
        passed,
        f"{details['certificate_failures']} certificate failures, "
        f"{details['cover_bound_failures']} cover-cap failures over {details['runs']} runs",
    )


def test_criterion_4_certificate_rejects_pairs_within_two_eps():
    # Columns 0 and 1 are exactly 2 * eps = 0.5 apart; column 2 is farther from both.
    matrix = np.array([[0.0, 0.5, -0.6], [0.0, 0.5, 0.6]])
    assert not validation._packing_certificate_holds(matrix, [0, 1, 2], 0.25)
    assert not validation._packing_certificate_holds(matrix, [0, 1], 0.25)
    assert validation._packing_certificate_holds(matrix, [0, 2], 0.25)
    assert validation._packing_certificate_holds(matrix, [1, 2], 0.25)


def test_criterion_5_clustered_binary_bound():
    result = validation.run_suite("corollary3", seed=0)
    assert_scale(result, num_seeds=50, horizon=5000, num_experts=100_000, num_clusters=8)
    assert result.details["bound"] == pytest.approx(2315.2430185614126)
    report(
        "criterion 5 (binary clusters at full scale, 50 seeds)",
        result.passed and result.details["wall_time"] < 120,
        f"{result.summary}; wall {result.details['wall_time']:.1f}s",
    )


def test_criterion_6_halving_adversary_forces_linear_regret():
    result = validation.run_suite("lower_bound", seed=0)
    assert_scale(result, num_seeds=200, horizon=12, num_experts=4096)
    report(
        "criterion 6 (bounded-variation lower bound, 200 seeds)",
        result.passed and result.details["wall_time"] < 30,
        f"{result.summary}; wall {result.details['wall_time']:.1f}s",
    )


def test_criterion_7_meta_tuner_tracks_best_copy():
    result = validation.run_suite("meta", seed=0)
    assert_scale(result, num_seeds=50, horizon=256, num_copies=8)
    report(
        "criterion 7 (accuracy grid vs best copy, 50 seeds)",
        result.passed,
        f"{result.summary}; wall {result.details['wall_time']:.1f}s",
    )


def test_criterion_8_logsum_inequality():
    result = validation.run_suite("logsum", seed=0)
    assert_scale(result, num_sequences=1000)
    report(
        "criterion 8 (log-sum inequality, 1000 sequences)",
        result.passed and result.details["wall_time"] < 1.0,
        f"{result.summary}; wall {result.details['wall_time']:.2f}s",
    )


class DirectWeightHedge:
    """Reference implementation in the raw weight domain (no log transform)."""

    def __init__(self, num_experts: int) -> None:
        self.weights = np.ones(num_experts)
        self.t = 1

    def distribution(self) -> np.ndarray:
        return self.weights / self.weights.sum()

    def update(self, losses: np.ndarray) -> None:
        eta = math.sqrt(8.0 * math.log(self.weights.size) / self.t)
        self.weights = self.weights * np.exp(-eta * losses)
        self.t += 1


def test_criterion_9_log_domain_agrees_with_direct_weights():
    # The kernel's own steps: running totals, then weights, at its step sizes,
    # divided by their sums as the kernel divides them for expected losses.
    worst = 0.0
    lanes = [(0, 100, 8)]
    eta = hedge.learning_rates([0], [8], 100)
    for seed in range(20):
        rng = game_rng(seed, 42)
        reference = DirectWeightHedge(8)
        losses = np.empty((100, 8))
        expected = np.empty((100, 8))
        for t in range(100):
            expected[t] = reference.distribution()
            losses[t] = rng.uniform(-1.0, 1.0, size=8)
            reference.update(losses[t])
        w = hedge.totals_to_weights(hedge.running_totals(losses, eta, None, lanes)[:-1])
        p = w / w.sum(axis=1, keepdims=True)
        worst = max(worst, float(np.abs(p - expected).max()))
    agree = worst <= 1e-9

    # long-horizon stability: a million adversarial updates at K = 1000,
    # chained through the running row in blocks of 256 rounds
    drift = np.ones(1000)
    drift[500:] = -1.0
    rounds, block = 1_000_000, 256
    rows = np.tile(drift, (block, 1))
    eta = hedge.learning_rates([0], [1000], rounds)
    carry = None
    for j0 in range(0, rounds, block):
        m = min(block, rounds - j0)
        carry = hedge.running_totals(rows[:m], eta[j0 : j0 + m], carry, [(0, m, 1000)])[-1]
    w = hedge.totals_to_weights(carry[None, :])
    p = (w / w.sum(axis=1, keepdims=True))[0]
    stable = bool(np.all(np.isfinite(p)) and abs(p.sum() - 1.0) <= 1e-12)

    report(
        "criterion 9 (numerical robustness)",
        agree and stable,
        f"max coordinate gap {worst:.2e} (tol 1e-9); finite at T=1e6, K=1e3: {stable}",
    )


def test_criterion_10_repeat_runs_byte_identical(tmp_path, capsys):
    import yaml

    matches = []
    for algorithm, extra in (
        ("hedge", {}),
        ("many_experts", {"epsilon": 0.5}),
        ("meta_tuner", {}),
    ):
        config = tmp_path / f"{algorithm}.yaml"
        config.write_text(
            yaml.safe_dump(
                {
                    "game": {"algorithm": algorithm, "T": 64, "seed": 11, **extra},
                    "environment": {"kind": "clustered_binary", "K": 40, "N": 4},
                }
            )
        )
        outputs = []
        for attempt in ("first", "second"):
            out_dir = tmp_path / algorithm / attempt
            assert cli.main(["run", "--config", str(config), "--out-dir", str(out_dir)]) == 0
            outputs.append(
                (out_dir / "trajectory.csv").read_bytes()
                + (out_dir / "summary.json").read_bytes()
            )
        matches.append(outputs[0] == outputs[1])
    capsys.readouterr()  # drop the per-run manifests from the criterion log
    report(
        "criterion 10 (byte-identical reruns)",
        all(matches),
        f"hedge/many_experts/meta_tuner identical: {matches}",
    )
