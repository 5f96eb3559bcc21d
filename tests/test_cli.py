import argparse
import concurrent.futures
import csv
import json
import logging
import math
import os
import platform
import re
import struct
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from packhedge import (
    analysis, cli, core, environments, many_experts, matrix_io, validation,
)
from packhedge.cli import EXIT_BOUND_VIOLATION, EXIT_CONFIG, EXIT_IO, EXIT_OK
from packhedge.core import game_rng


def write_config(path, payload):
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def iid_config(tmp_path, T=100, K=2, seed=7):
    return write_config(
        tmp_path / "config.yaml",
        {
            "game": {"algorithm": "hedge", "T": T, "seed": seed},
            "environment": {
                "kind": "iid_stochastic",
                "K": K,
                "means": [0.0] * K,
                "noise": "uniform",
                "noise_scale": 0.5,
            },
        },
    )


def clustered_config(tmp_path, algorithm="many_experts", T=500, K=2000, N=8, epsilon=0.5):
    return write_config(
        tmp_path / "config.yaml",
        {
            "game": {"algorithm": algorithm, "T": T, "epsilon": epsilon, "seed": 3},
            "environment": {"kind": "clustered_binary", "K": K, "N": N},
        },
    )


def tradeoff_matrix(T=300, decoys=30, spike_every=8):
    """Mediocre start expert, one clearly best expert, and a crowd of decoys
    that each dip once to a value only a fine-grained packing separates."""
    L = np.full((T, decoys + 2), 0.8)
    L[:, 0] = 0.3
    L[:, 1] = -0.9
    for j in range(decoys):
        t = spike_every * (j + 1)
        if t <= T:
            L[t - 1, 2 + j] = -0.1
    return L


class TestRun:
    def test_hedge_run_outputs(self, tmp_path, capsys):
        config = iid_config(tmp_path)
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        rows = read_rows(tmp_path / "out" / "trajectory.csv")
        assert len(rows) == 100
        assert list(rows[0]) == ["t", "phase", "packing_size", "chosen_expert", "loss", "cumulative_loss"]
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        for key in ("regret", "lemma1_bound", "theorem1_bound", "K_p", "p",
                    "epsilon", "T", "K", "seed", "environment"):
            assert key in summary
        assert summary["K"] == 2 and summary["seed"] == 7 and summary["K_p"] == 2
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["outputs"]["summary"].endswith("summary.json")

    def test_manifest_records_versions_and_summary_does_not(self, tmp_path):
        config = iid_config(tmp_path, T=5)
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["platform"] == f"{platform.system()} {platform.machine()}"
        # summary.json is hashed by the repeat-run checks: no run-environment keys.
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert not {"python", "numpy", "platform", "wall_time"} & summary.keys()

    def test_manifest_records_stage_timings(self, tmp_path, capsys):
        config = clustered_config(tmp_path, algorithm="meta_tuner", T=64, K=100)
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        text = (tmp_path / "out" / "manifest.json").read_text()
        assert capsys.readouterr().out == text
        manifest = json.loads(text)
        timings = manifest["timings"]
        assert set(timings) == {"environment", "play", "trajectory", "summary"}
        assert all(seconds >= 0 for seconds in timings.values())
        assert sum(timings.values()) <= manifest["wall_time"]
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "timings" not in summary

    @pytest.mark.parametrize("algorithm", ["many_experts", "meta_tuner"])
    def test_manifest_records_schedule_counts(self, tmp_path, monkeypatch, algorithm):
        config = clustered_config(tmp_path, algorithm=algorithm)
        queries = []
        expand = many_experts.expand_packing

        def counting(values, active, threshold):
            queries.append(active.size)
            return expand(values, active, threshold)

        monkeypatch.setattr(many_experts, "expand_packing", counting)
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        counts = manifest["metrics"]["schedule"]
        assert counts["exact_queries"] == len(queries)
        monkeypatch.setattr(many_experts, "expand_packing", expand)
        # The same counts from the schedule of every copy, summed.
        _, game, spec = cli._load(argparse.Namespace(config=config, set=None, seed=None))
        oracle = cli._build_oracle(spec)
        epsilons = (
            core.build_grid(game.T) if algorithm == "meta_tuner" else [game.epsilon]
        )
        schedules = [many_experts._schedule(oracle, [e])[0] for e in epsilons]
        for key in ("blocks", "recertifications", "exact_queries"):
            assert counts[key] == sum(c[key] for _, _, c in schedules)
        assert counts["blocks"] >= len(schedules)
        admitting = sum(len(set(admitted_at)) - 1 for _, admitted_at, _ in schedules)
        assert counts["admitting_rounds"] == admitting <= len(queries)
        # At epsilon 1 no +/-1 row is farther than 2 from another: that copy never saturates.
        saturated = [active.size == oracle.coverage_ids().size for active, _, _ in schedules]
        assert saturated == [eps < 1.0 for eps in epsilons]
        if all(saturated):
            assert counts["saturation_round"] == max(a[-1] for _, a, _ in schedules) > 0
        else:
            assert counts["saturation_round"] is None
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert not {"metrics", "schedule"} & summary.keys()

    def test_manifest_echoes_the_game_config(self, tmp_path):
        config = clustered_config(tmp_path, T=32, K=20, N=2, epsilon=1)
        argv = ["run", "--config", config, "--set", "environment.K=20.0"]
        assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        game = {"algorithm": "many_experts", "T": 32, "epsilon": 1.0, "seed": 3}
        assert manifest["config"]["game"] == game
        assert [type(manifest["config"]["game"][key]) for key in ("T", "epsilon", "seed")] == [
            int, float, int
        ]
        # The environment is echoed as the config gives it.
        assert manifest["config"]["environment"]["parameters"]["K"] == 20.0

    def test_hedge_manifest_has_no_schedule_counts(self, tmp_path):
        config = iid_config(tmp_path, T=5)
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["metrics"] == {}

    def test_clustered_run_meets_cluster_bound(self, tmp_path):
        config = clustered_config(tmp_path)
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["K_p"] <= 8
        assert summary["regret"] <= 8 + 8 * math.sqrt(500 * 8 * math.log(8))

    def test_meta_run_lists_three_copies_at_t8(self, tmp_path):
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "meta_tuner", "T": 8, "seed": 1},
                "environment": {"kind": "clustered_binary", "K": 10, "N": 2},
            },
        )
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [c["epsilon"] for c in summary["copies"]] == [1.0, 0.5, 0.25]
        assert summary["K_p"] is None and summary["p"] is None

    def test_meta_copy_regrets_match_their_own_ledgers(self, tmp_path):
        config = clustered_config(tmp_path, algorithm="meta_tuner", T=200, K=300, N=4)
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        _, game, spec = cli._load(argparse.Namespace(config=config, set=None, seed=None))
        oracle = cli._build_oracle(spec)
        # Each copy replayed standalone from its own stream, as validate meta replays them.
        grid = core.build_grid(game.T)
        assert len(summary["copies"]) == len(grid)
        for r, (row, epsilon) in enumerate(zip(summary["copies"], grid), start=1):
            copy = many_experts.play_many_experts(oracle, epsilon, rng=game_rng(game.seed, r))
            assert row["regret"] == analysis.empirical_regret(copy, oracle).regret

    def test_repeat_run_byte_identical(self, tmp_path):
        config = clustered_config(tmp_path, T=200, K=300, N=4)
        for name in ("a", "b"):
            assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path / name)]) == EXIT_OK
        for filename in ("trajectory.csv", "summary.json"):
            assert (tmp_path / "a" / filename).read_bytes() == (tmp_path / "b" / filename).read_bytes()

    def test_summary_roundtrips_from_trajectory(self, tmp_path):
        config = clustered_config(tmp_path, T=200, K=300, N=4)
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        rows = read_rows(tmp_path / "out" / "trajectory.csv")
        incurred = np.array([float(r["loss"]) for r in rows])
        cumulative = np.array([float(r["cumulative_loss"]) for r in rows])
        assert abs(incurred.sum() - cumulative[-1]) <= 1e-9
        spec = environments.EnvironmentSpec(**summary["environment"])
        env = environments.make_environment(spec)
        regret = cumulative[-1] - env.column_sums().min()
        assert regret == pytest.approx(summary["regret"], abs=1e-9)

    def test_set_flag_overrides_config(self, tmp_path):
        config = iid_config(tmp_path, T=100)
        assert cli.main(
            ["run", "--config", config, "--out-dir", str(tmp_path / "out"),
             "--set", "game.T=50", "--set", "environment.noise_scale=0.25"]
        ) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["T"] == 50
        assert summary["environment"]["parameters"]["noise_scale"] == 0.25
        assert len(read_rows(tmp_path / "out" / "trajectory.csv")) == 50

    def test_set_flag_reaches_no_later_call(self, tmp_path):
        # One parser serves every call in a process; its --set list must start empty each time.
        config = write_config(tmp_path / "config.yaml", {
            "game": {"algorithm": "many_experts", "T": 20, "epsilon": 0.25, "seed": 3},
            "environment": {"kind": "clustered_binary", "K": 12, "N": 3},
            "sweep": {"n_seeds": 1, "include_meta": False},
        })
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path / "run"),
                         "--set", "game.epsilon=0.5"]) == EXIT_OK
        assert json.loads((tmp_path / "run" / "summary.json").read_text())["epsilon"] == 0.5
        assert cli.main(["sweep", "--config", config, "--seed", "3",
                         "--out-dir", str(tmp_path / "sweep")]) == EXIT_OK
        rows = read_rows(tmp_path / "sweep" / "sweep.csv")
        assert [row["epsilon"] for row in rows] == ["0.25", "0.25"]  # the cell and best_epsilon

    @pytest.mark.parametrize("command", ["run", "sweep", "export-env"])
    @pytest.mark.parametrize("override", ["game.epsilonn=0.1", "game.T =5"])
    def test_unknown_game_key_is_config_error(self, tmp_path, capsys, command, override):
        config = clustered_config(tmp_path, T=20, K=12, N=3)
        argv = [command, "--config", config, "--out-dir", str(tmp_path / "out"),
                "--seed", "1", "--set", override]
        assert cli.main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        key = override.partition("=")[0]
        assert err.count("\n") == 1
        assert err.startswith(f"configuration error: {key}: unknown key"), err
        assert not (tmp_path / "out").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        config = iid_config(tmp_path, seed=7)
        assert cli.main(
            ["run", "--config", config, "--seed", "9", "--out-dir", str(tmp_path / "out")]
        ) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["seed"] == 9

    def test_missing_field_is_config_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "bad.yaml",
            {"game": {"algorithm": "hedge", "T": 10, "seed": 0}, "environment": {"K": 3}},
        )
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
        assert "environment.kind" in capsys.readouterr().err

    def test_bad_parameter_value_is_config_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "bad.yaml",
            {
                "game": {"algorithm": "many_experts", "T": 3, "epsilon": 0.5, "seed": 0},
                "environment": {"kind": "clustered_binary", "K": 100, "N": 9},
            },
        )
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
        assert "distinct binary rows" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("override", "whole", "message"),
        [
            ("game.T=32.9", "game.T=32.0", "game: T must be a whole number, got 32.9"),
            ("game.seed=true", "game.seed=3.0", "game: seed must be a whole number, got True"),
            ("environment.K=20.7", "environment.K=20.0",
             "environment.K must be a whole number, got 20.7"),
            ("environment.N=true", "environment.N=2.0",
             "environment.N must be a whole number, got True"),
        ],
    )
    def test_non_whole_number_is_config_error(self, tmp_path, capsys, override, whole, message):
        config = clustered_config(tmp_path, T=32, K=20, N=2)
        argv = ["run", "--config", config, "--out-dir"]
        assert cli.main(argv + [str(tmp_path / "bad"), "--set", override]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (tmp_path / "bad").exists()
        # A whole float plays the game of the int it stands for.
        assert cli.main(argv + [str(tmp_path / "float"), "--set", whole]) == EXIT_OK
        assert cli.main(argv + [str(tmp_path / "int")]) == EXIT_OK
        trajectory = (tmp_path / "float" / "trajectory.csv").read_bytes()
        assert trajectory == (tmp_path / "int" / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize(
        ("kind", "override", "message"),
        [
            ("clustered_binary", "game.epsilon=true",
             "game: epsilon must be a real number, got True"),
            ("low_rank", "environment.epsilon_noise=false",
             "environment.epsilon_noise must be a real number, got False"),
            ("low_rank", 'environment.epsilon_noise="0.05"',
             "environment.epsilon_noise must be a real number, got '0.05'"),
            ("iid_stochastic", "environment.noise_scale=true",
             "environment.noise_scale must be a real number, got True"),
            ("iid_stochastic", "environment.means=true",
             "environment: means must be a real number, got True"),
            ("iid_stochastic", 'environment.means="0.5"',
             "environment: means must be a real number, got '0.5'"),
            ("iid_stochastic", "environment.means=[true, false]",
             "environment: means must be a real number, got True"),
            # An empty key, which nothing reads, or no "=" at all.
            ("low_rank", "game..T=5", "--set 'game..T=5': expected section.key=value"),
            ("low_rank", "game.=5", "--set 'game.=5': expected section.key=value"),
            ("low_rank", "=5", "--set '=5': expected section.key=value"),
            ("low_rank", "game.T", "--set 'game.T': expected section.key=value"),
        ],
    )
    def test_non_real_number_is_config_error(self, tmp_path, capsys, kind, override, message):
        environment = {
            "clustered_binary": {"kind": kind, "K": 20, "N": 2},
            "low_rank": {"kind": kind, "K": 20, "d": 2, "epsilon_noise": 0.05},
            "iid_stochastic": {"kind": kind, "K": 2, "means": [0.0, 0.0], "noise": "uniform",
                               "noise_scale": 0.5},
        }[kind]
        config = write_config(
            tmp_path / "config.yaml",
            {"game": {"algorithm": "many_experts", "T": 32, "epsilon": 0.5, "seed": 3},
             "environment": environment},
        )
        argv = ["run", "--config", config, "--set", override, "--out-dir", str(tmp_path / "bad")]
        assert cli.main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("value", [".nan", ".inf", "1.5"])
    def test_noise_scale_outside_unit_interval_is_config_error(self, tmp_path, capsys, value):
        # Without noise the scale is unused, yet a NaN would reach summary.json.
        config = write_config(
            tmp_path / "config.yaml",
            {"game": {"algorithm": "hedge", "T": 10, "seed": 3},
             "environment": {"kind": "iid_stochastic", "K": 2, "means": 0.0, "noise": "none"}},
        )
        argv = ["run", "--config", config, "--set", f"environment.noise_scale={value}",
                "--out-dir", str(tmp_path / "bad")]
        assert cli.main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("configuration error: environment: noise_scale must be in [0, 1]")
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "validate"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command):
        config = clustered_config(tmp_path, T=20, K=12, N=3)
        out = ["--config", config, "--out-dir", str(tmp_path / "out")]
        argv = [command, "logsum"] if command == "validate" else [command] + out
        assert cli.main(argv + ["--seed", "-1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed" in err and err.startswith("configuration error:")
        assert not (tmp_path / "out").exists()

    def test_horizon_mismatch_is_config_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "bad.yaml",
            {
                "game": {"algorithm": "many_experts", "T": 50, "epsilon": 0.5, "seed": 0},
                "environment": {"kind": "clustered_binary", "T": 80, "K": 20, "N": 2},
            },
        )
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
        assert "environment.T" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep", "export-env"])
    @pytest.mark.parametrize(
        ("game_T", "environment_T", "message"),
        [(64, None, "environment.T: 64 rounds, but the environment has 300"),
         (300, 5, "environment.T: horizon 5 must equal game.T 300")],
        ids=["file-height", "given-T"],
    )
    def test_matrix_file_of_another_horizon_is_refused(
        self, tmp_path, capsys, command, game_T, environment_T, message
    ):
        # Every command plays or writes exactly game.T rounds, so a file must have that many.
        path = tmp_path / "losses.bin"
        matrix_io.write_matrix_binary(path, game_rng(4).uniform(-1.0, 1.0, (300, 3)))
        environment = {"kind": "finite_matrix", "path": str(path)}
        if environment_T is not None:
            environment["T"] = environment_T
        config = write_config(
            tmp_path / "config.yaml",
            {"game": {"algorithm": "hedge", "T": game_T, "seed": 0}, "environment": environment,
             "sweep": {"n_seeds": 2}},
        )
        argv = [command, "--config", config, "--seed", "0", "--out-dir", str(tmp_path / "out")]
        assert cli.main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_oversize_environment_horizon_is_refused_before_generating(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_generation(**kwargs):
            raise AssertionError("the generator ran before the horizon check")

        monkeypatch.setitem(environments.GENERATORS, "clustered_binary", no_generation)
        config = clustered_config(tmp_path, T=16, K=20, N=2)
        argv = ["run", "--config", config, "--set", "environment.T=1.0e+30"]
        assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: environment.T: horizon 1000000000000000019884624838656"
            " must equal game.T 16\n"
        )
        assert not (tmp_path / "out").exists()

    def test_oversize_game_horizon_is_config_error(self, tmp_path):
        # A fresh process under a deadline, since an unguarded 2**T never finishes.
        config = clustered_config(tmp_path, T=16, K=20, N=2)
        argv = ["run", "--config", config, "--set", "game.T=1.0e+30", "--out-dir", str(tmp_path)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, sys.path)))
        done = subprocess.run(
            [sys.executable, "-m", "packhedge.cli", *argv],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert done.returncode == EXIT_CONFIG
        assert done.stderr.count("\n") == 1
        assert done.stderr == (
            "configuration error: game: game.T = 1000000000000000019884624838656: the per-round"
            " arrays of many_experts are too large to play (guard: 50000000 entries)\n"
        )

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_oversize_meta_feedback_is_config_error(self, tmp_path, monkeypatch, capsys, command):
        # 64 rounds fit under the guard, the meta-tuner's 64 x 6 feedback does not: a meta run
        # and a sweep's meta cell are refused on game.T before any oracle is built.
        monkeypatch.setattr(core, "MATRIX_MAX_ENTRIES", 100)
        monkeypatch.setattr(environments, "make_environment", lambda spec: pytest.fail("built"))
        algorithm = "meta_tuner" if command == "run" else "many_experts"
        config = clustered_config(tmp_path, algorithm=algorithm, T=64, K=20, N=2)
        argv = [command, "--config", config, "--seed", "0", "--set", "sweep.n_seeds=1"]
        assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: game: game.T = 64: the per-round arrays of meta_tuner are too"
            " large to play (guard: 100 entries)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_oversize_clustered_experts_is_config_error(self, tmp_path, monkeypatch, capsys):
        # The oracle stores one cluster id per expert: K is refused before any draw.
        def no_draws(*key):
            raise AssertionError("the generator ran past its size guard")

        monkeypatch.setattr(environments, "game_rng", no_draws)
        config = clustered_config(tmp_path, T=16, K=20, N=2)
        argv = ["run", "--config", config, "--set", "environment.K=1.0e+30"]
        assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: environment: environment.K = 1000000000000000019884624838656:"
            " the cluster assignment is too large to generate (guard: 50000000 entries)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_oversize_dictionary_atoms_is_config_error(self, tmp_path, monkeypatch, capsys):
        # The T x n dictionary and the n x K codes are refused before any draw.
        def no_draws(*key):
            raise AssertionError("the generator ran past its size guard")

        monkeypatch.setattr(environments, "game_rng", no_draws)
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "hedge", "T": 20, "seed": 3},
                "environment": {"kind": "sparse_dictionary", "K": 12, "n": 4, "k": 2,
                                "epsilon_noise": 0.05},
            },
        )
        argv = ["run", "--config", config, "--set", "environment.n=1000000000000"]
        tracemalloc.start()
        try:
            code = cli.main(argv + ["--out-dir", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: environment: environment.n = 1000000000000: the 20 x"
            " 1000000000000 dictionary and 1000000000000 x 12 codes are too large to generate"
            " (guard: 50000000 entries)\n"
        )
        assert peak < 1 << 20  # the dictionary alone would be 160 TB
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        ("text", "fault"),
        [
            (b"0.5,0.25\r\n\r\n1.0,abc\r\n", "line 3: could not convert string to float: 'abc'"),
            (b"0.5,0.25\n0.1\n",
             "line 2: ragged rows in matrix file (2 values per row expected, got 1)"),
            (b"\xff0.5\n", "not a text file ('utf-8' codec can't decode byte 0xff in position 0:"
             " invalid start byte)"),
        ],
        ids=["token", "ragged", "undecodable"],
    )
    def test_bad_matrix_file_names_the_file_and_line(self, tmp_path, capsys, text, fault):
        matrix_path = tmp_path / "losses.csv"
        matrix_path.write_bytes(text)
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "hedge", "T": 2, "seed": 0},
                "environment": {"kind": "finite_matrix", "path": str(matrix_path)},
            },
        )
        argv = ["run", "--config", config, "--out-dir", str(tmp_path / "out")]
        assert cli.main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"configuration error: environment: {matrix_path}: {fault}\n"

    @pytest.mark.parametrize(
        ("value", "shown"),
        [("3", "3"), ("true", "True"), ("[a.bin]", "['a.bin']")],
        ids=["int", "bool", "list"],
    )
    def test_path_that_is_not_a_path_is_config_error(self, tmp_path, capsys, value, shown):
        # open() takes an int (a bool too) as a file descriptor: true would open and close fd 1.
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "hedge", "T": 2, "seed": 0},
                "environment": {"kind": "finite_matrix", "path": str(tmp_path / "losses.bin")},
            },
        )
        argv = ["run", "--config", config, "--set", f"environment.path={value}",
                "--out-dir", str(tmp_path / "out")]
        assert cli.main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: environment.path must be a path, got {shown}\n"
        )
        for fd in (0, 1, 2):
            os.fstat(fd)

    @pytest.mark.parametrize(
        ("value", "message"),
        [(np.nan, "loss matrix contains non-finite values"),
         (1.5, "loss values exceed [-1, 1] by 0.5")],
        ids=["nan", "out-of-range"],
    )
    @pytest.mark.parametrize("fmt", matrix_io.FORMATS)
    def test_bad_matrix_values_are_config_error(self, tmp_path, capsys, fmt, value, message):
        matrix = np.zeros((600, 30))
        matrix[590, 29] = value
        matrix_path = tmp_path / "losses"
        matrix_io.save_matrix(matrix_path, matrix, fmt)
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "hedge", "T": 600, "seed": 0},
                "environment": {"kind": "finite_matrix", "path": str(matrix_path)},
            },
        )
        argv = ["run", "--config", config, "--out-dir", str(tmp_path / "out")]
        assert cli.main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: environment: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fmt", matrix_io.FORMATS)
    def test_matrix_format_key_is_echoed_and_not_read(self, tmp_path, fmt):
        # The format comes from the file; a leftover format key is echoed like any extra key.
        path = tmp_path / "losses.bin"
        matrix_io.write_matrix_binary(path, game_rng(8).uniform(-1.0, 1.0, (12, 5)))
        outputs = []
        for name, extra in (("plain", {}), ("keyed", {"format": fmt})):
            environment = {"kind": "finite_matrix", "path": str(path), **extra}
            config = write_config(
                tmp_path / f"{name}.yaml",
                {"game": {"algorithm": "hedge", "T": 12, "seed": 1}, "environment": environment},
            )
            assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path / name)]) == EXIT_OK
            summary = json.loads((tmp_path / name / "summary.json").read_text())
            assert summary.pop("environment")["parameters"] == {"T": 12, "path": str(path), **extra}
            outputs.append(((tmp_path / name / "trajectory.csv").read_bytes(), summary))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        ("shape", "algorithm"),
        [((0, 3), "hedge"), ((4, 0), "hedge"), ((4, 0), "many_experts"), ((4, 0), "meta_tuner")],
    )
    def test_binary_file_without_rows_or_columns(self, tmp_path, capsys, shape, algorithm):
        # The file is refused when it is opened, before any learner or export reads it.
        # The writers refuse such a matrix, so the header is written here.
        path = tmp_path / "losses.bin"
        path.write_bytes(struct.pack("<4sBII", matrix_io.MAGIC, matrix_io.VERSION, *shape))
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": algorithm, "T": 4, "epsilon": 0.5, "seed": 0},
                "environment": {"kind": "finite_matrix", "path": str(path)},
            },
        )
        message = f"{path}: a {shape[0]} x {shape[1]} matrix has no losses"
        for command, field in (("run", "environment"), ("export-env", "export")):
            argv = [command, "--config", config, "--out-dir", str(tmp_path / command)]
            assert cli.main(argv) == EXIT_CONFIG
            assert capsys.readouterr().err == f"configuration error: {field}: {message}\n"
            assert not (tmp_path / command).exists()

    def test_matrix_files_above_the_guard(self, tmp_path, monkeypatch, capsys):
        # A binary file streams, so a run plays it; a CSV file is read whole and refused.
        monkeypatch.setattr(core, "MATRIX_MAX_ENTRIES", 20)
        matrix = game_rng(6).uniform(-1.0, 1.0, (6, 4))
        for fmt in matrix_io.FORMATS:
            matrix_io.save_matrix(tmp_path / fmt, matrix, fmt)
            config = write_config(
                tmp_path / f"{fmt}.yaml",
                {
                    "game": {"algorithm": "many_experts", "T": 6, "epsilon": 0.5, "seed": 0},
                    "environment": {"kind": "finite_matrix", "path": str(tmp_path / fmt)},
                },
            )
            argv = ["run", "--config", config, "--out-dir", str(tmp_path / f"{fmt}-out")]
            assert cli.main(argv) == (EXIT_OK if fmt == "binary" else EXIT_CONFIG)
        assert capsys.readouterr().err == (
            f"configuration error: environment: {tmp_path / 'csv'}: a matrix of 6 x 4 entries"
            " is too large to load; runs stream binary matrix files (guard: 20 entries)\n"
        )

    @pytest.mark.parametrize(
        ("environment", "override", "message"),
        [
            ({"kind": "clustered_binary", "K": 12, "N": 3}, "environment.seed=-1",
             "environment.seed must be >= 0, got -1"),
            ({"kind": "clustered_binary", "K": 12, "N": 3}, "environment.T=0",
             "environment.T must be >= 1, got 0"),
            ({"kind": "sparse_dictionary", "K": 12, "n": 4, "k": 2, "epsilon_noise": 0.05},
             "environment.K=0", "environment.K must be >= 1, got 0"),
            ({"kind": "sparse_dictionary", "K": 12, "n": 4, "k": 0, "epsilon_noise": 0.05},
             "environment.n=0", "environment.n must be >= 1, got 0"),
            ({"kind": "low_rank", "K": 12, "d": 2, "epsilon_noise": 0.05},
             "environment.K=-1", "environment.K must be >= 1, got -1"),
            ({"kind": "bounded_variation", "K": 12}, "environment.seed=-3.0",
             "environment.seed must be >= 0, got -3"),
            ({"kind": "iid_stochastic", "K": 2, "means": 0.0}, "environment.T=-2",
             "environment.T must be >= 1, got -2"),
        ],
    )
    def test_environment_size_or_seed_below_its_least_is_config_error(
        self, tmp_path, capsys, environment, override, message
    ):
        config = write_config(
            tmp_path / "config.yaml",
            {"game": {"algorithm": "hedge", "T": 20, "seed": 3}, "environment": environment},
        )
        for command in ("run", "export-env"):
            argv = [command, "--config", config, "--set", override]
            argv += ["--out-dir", str(tmp_path / "out")]
            assert cli.main(argv) == EXIT_CONFIG
            assert capsys.readouterr().err == f"configuration error: {message}\n"
            assert not (tmp_path / "out").exists()

    def test_readme_shape_low_rank_is_config_error(self, tmp_path, monkeypatch, capsys):
        # T x K = 5e8 entries: the generator refuses before it draws or allocates anything.
        def no_draws(*key):
            raise AssertionError("the generator ran past its size guard")

        monkeypatch.setattr(environments, "game_rng", no_draws)
        config = write_config(
            tmp_path / "big.yaml",
            {
                "game": {"algorithm": "many_experts", "T": 5000, "epsilon": 0.5, "seed": 7},
                "environment": {"kind": "low_rank", "K": 100_000, "d": 2, "epsilon_noise": 0.05},
            },
        )
        tracemalloc.start()
        try:
            code = cli.main(["run", "--config", config, "--out-dir", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("configuration error: environment:")
        assert "too large to generate" in err
        assert peak < 1 << 20  # one T x K float64 array is 4 GB

    def test_learner_value_error_is_config_error(self, tmp_path, capsys, monkeypatch):
        # The meta-tuner's feedback is sized by its grid, which one round does
        # not have: the game config refuses it before any environment is built.
        config = write_config(
            tmp_path / "bad.yaml",
            {
                "game": {"algorithm": "meta_tuner", "T": 1, "seed": 0},
                "environment": {"kind": "clustered_binary", "K": 4, "N": 2},
            },
        )
        monkeypatch.setattr(environments, "make_environment", lambda spec: pytest.fail("built"))
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: game: horizon T must be >= 2 to build a grid, got 1\n"
        )

    def test_unreadable_out_dir_is_io_error(self, tmp_path):
        config = iid_config(tmp_path, T=5)
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = cli.main(["run", "--config", config, "--out-dir", str(blocker / "sub")])
        assert code == EXIT_IO


class TestLoadConfig:
    README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    BENCH_SHAPED = [
        {"game": {"algorithm": "hedge", "T": 10_000},
         "environment": {"kind": "finite_matrix", "path": "/data/losses.bin", "format": "binary"}},
        {"game": {"algorithm": "many_experts", "T": 1024, "epsilon": 2.0**-7},
         "environment": {"kind": "low_rank", "d": 2, "epsilon_noise": 0.05, "K": 500}},
        {"game": {"algorithm": "meta_tuner", "T": 512},
         "environment": {"kind": "low_rank", "d": 2, "epsilon_noise": 0.05, "K": 200}},
        {"game": {"algorithm": "many_experts", "T": 5000, "epsilon": 0.5},
         "environment": {"kind": "clustered_binary", "N": 8, "K": 100_000}},
    ]

    def configs(self):
        with open(self.README) as fh:
            blocks = re.findall(r"```yaml\n(.*?)```", fh.read(), flags=re.S)
        assert blocks
        return blocks + [yaml.safe_dump(payload) for payload in self.BENCH_SHAPED]

    @pytest.mark.parametrize("loader", [yaml.SafeLoader, cli.YAML_LOADER])
    def test_loaders_agree(self, tmp_path, monkeypatch, loader):
        monkeypatch.setattr(cli, "YAML_LOADER", loader)
        for i, text in enumerate(self.configs()):
            path = tmp_path / f"{i}.yaml"
            path.write_text(text)
            loaded = cli.load_config(path)
            assert loaded == yaml.safe_load(text)
            assert repr(loaded) == repr(yaml.load(text, Loader=yaml.SafeLoader))

    @pytest.mark.parametrize("value", ["5000", "0.25", "1e3", "true", "null", "[1.0, 0.5]"])
    def test_set_values_load_alike(self, monkeypatch, value):
        # ``--set`` values parse with the config files' loader; both loaders
        # read each scalar kind alike (``1e3`` is a string in YAML 1.1).
        loaded = []
        for loader in (yaml.SafeLoader, cli.YAML_LOADER):
            monkeypatch.setattr(cli, "YAML_LOADER", loader)
            cfg = {}
            cli.apply_overrides(cfg, [f"game.x={value}"])
            loaded.append(cfg["game"]["x"])
        assert repr(loaded[0]) == repr(loaded[1]) == repr(yaml.safe_load(value))
        monkeypatch.setattr(cli, "YAML_LOADER", yaml.BaseLoader)  # every scalar a string
        cfg = {}
        cli.apply_overrides(cfg, [f"game.x={value}"])
        assert cfg["game"]["x"] == yaml.load(value, Loader=yaml.BaseLoader)

    def test_libyaml_loader_used_when_present(self):
        assert cli.YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)

    @pytest.mark.parametrize("loader", [yaml.SafeLoader, cli.YAML_LOADER])
    def test_invalid_yaml_is_config_error(self, tmp_path, monkeypatch, capsys, loader):
        monkeypatch.setattr(cli, "YAML_LOADER", loader)
        path = tmp_path / "bad.yaml"
        path.write_text("game: {algorithm: hedge, T: [5\nenvironment: :\n")
        assert cli.main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
        assert "not valid YAML" in capsys.readouterr().err

    @pytest.mark.parametrize("loader", [yaml.SafeLoader, cli.YAML_LOADER])
    @pytest.mark.parametrize(
        "text", ["game: [\n", "game: {algorithm: hedge\n", "game: {T: 5}\n\0\n"],
        ids=["bracket", "brace", "nul"],
    )
    def test_invalid_yaml_is_one_line_naming_the_file(
        self, tmp_path, monkeypatch, capsys, loader, text
    ):
        monkeypatch.setattr(cli, "YAML_LOADER", loader)
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert cli.main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config: {path}: not valid YAML (")
        assert err.endswith(")\n") and err.count("\n") == 1
        if text == "game: [\n":
            assert err.endswith(", line 2, column 1)\n")

    @pytest.mark.parametrize("command", ["run", "sweep", "export-env"])
    def test_config_that_is_not_text_is_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"game: {T: 5}\n\x80\n")
        argv = [command, "--config", str(path), "--seed", "0", "--out-dir", str(tmp_path / "out")]
        assert cli.main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: config: {path}: not a text file ('utf-8' codec can't decode"
            " byte 0x80 in position 13: invalid start byte)\n"
        )

    @pytest.mark.parametrize(
        ("value", "problem"),
        [("[5", "did not find expected ',' or ']'"), ("*x", "found undefined alias"),
         ("a: b: c", "mapping values are not allowed in this context")],
    )
    def test_invalid_yaml_in_set_is_config_error(self, tmp_path, capsys, value, problem):
        config = iid_config(tmp_path, T=5)
        argv = ["run", "--config", config, "--set", f"game.T={value}", "--out-dir", str(tmp_path)]
        assert cli.main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: --set 'game.T={value}': not valid YAML ({problem})\n"
        )


#: Hostile ``--set`` values, as YAML: booleans, a quoted number, +-1, 0, a
#: fraction, NaN, +-inf, 10**30, a list, a map and null.
HOSTILE = ["true", "false", "'5'", "1", "-1", "0", "1.5", ".nan", ".inf", "-.inf",
           str(10**30), "[1, 2]", "{a: 1}", "null"]

#: A small valid environment of each kind; ``finite_matrix`` gets an 8 x 5 binary file.
SURFACE_ENVIRONMENTS = {
    "finite_matrix": {},
    "clustered_binary": {"K": 6, "N": 2},
    "low_rank": {"K": 6, "d": 2, "epsilon_noise": 0.05},
    "sparse_dictionary": {"K": 6, "n": 3, "k": 2, "epsilon_noise": 0.05},
    "bounded_variation": {"K": 6},
    "iid_stochastic": {"K": 3, "means": 0.1, "noise": "uniform", "noise_scale": 0.2},
}

#: (kind, command, field) for every generator keyword of every kind, and the
#: ``game`` and ``sweep`` fields.
SURFACE_FIELDS = (
    [(kind, "run", f"environment.{name}")
     for kind in environments.KINDS for name in environments._KEYWORDS[kind]]
    + [("iid_stochastic", "run", f"game.{name}") for name in ("T", "epsilon", "seed", "algorithm")]
    + [("iid_stochastic", "sweep", f"sweep.{name}")
       for name in ("n_seeds", "epsilons", "include_meta", "environment")]
)


def with_every_hostile_value(test):
    """``test`` with one explicit example per hostile value, the learners taken in turn."""
    for i, value in enumerate(HOSTILE):
        test = example(value=value, algorithm=core.ALGORITHMS[i % len(core.ALGORITHMS)])(test)
    return test


class TestConfigSurface:
    """Every config field takes every hostile value: exit 0 or 2, never a traceback.

    A ``finite_matrix`` path that names no file exits 3, as any unreadable file does.
    """

    #: Bound on the traced peak of one command: a missing size guard fails here.
    PEAK_BYTES = 16 * 2**20

    def check(self, capsys, out, kind, command, field, value, algorithm):
        environment = {"kind": kind, **SURFACE_ENVIRONMENTS[kind]}
        if kind == "finite_matrix":
            environment["path"] = str(out.parent / "losses.bin")
        config = write_config(out.parent / "config.yaml", {
            "game": {"algorithm": algorithm, "T": 8, "epsilon": 0.25, "seed": 1},
            "environment": environment,
            "sweep": {"n_seeds": 1, "epsilons": [0.5], "include_meta": False},
        })
        argv = [command, "--config", config, "--set", f"{field}={value}", "--out-dir", str(out)]
        if command == "sweep":
            argv += ["--seed", "1"]  # required there; a run takes game.seed from the config
        tracemalloc.reset_peak()
        code = cli.main(argv)
        assert tracemalloc.get_traced_memory()[1] < self.PEAK_BYTES, (field, value)
        err = capsys.readouterr().err
        if field == "environment.path" and code == EXIT_IO:
            # A string that names no file is an I/O error, in one line naming that file.
            assert err.startswith("I/O error: ") and err.count("\n") == 1, err
            assert yaml.safe_load(value) in err
            return
        assert code in (EXIT_OK, EXIT_CONFIG), (field, value, err)
        if code == EXIT_CONFIG:
            assert err.startswith("configuration error: ") and err.count("\n") == 1, err
            name = field.rsplit(".", 1)[1]
            assert re.search(rf"\b{name}\b", err), (field, value, err)
        elif command == "run":
            for name in ("summary.json", "manifest.json"):
                json.loads((out / name).read_text(), parse_constant=pytest.fail)
        else:
            assert (out / "sweep.csv").exists()

    @with_every_hostile_value
    @given(
        value=st.sampled_from(HOSTILE)
        | st.integers(-2, 10**31).map(str)
        | st.floats().map(lambda x: yaml.safe_dump(x).partition("\n")[0]),
        algorithm=st.sampled_from(core.ALGORITHMS),
    )
    @settings(max_examples=4, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_field_takes_hostile_values(self, tmp_path_factory, capsys, value, algorithm):
        base = tmp_path_factory.mktemp("surface")
        matrix_io.write_matrix_binary(base / "losses.bin", game_rng(1).uniform(-1, 1, (8, 5)))
        tracemalloc.start()
        try:
            for i, (kind, command, field) in enumerate(SURFACE_FIELDS):
                self.check(capsys, base / str(i), kind, command, field, value, algorithm)
        finally:
            tracemalloc.stop()


class TestLogLevel:
    def run_grazing_matrix(self, tmp_path, *flags):
        """Run a game on a matrix the loader clamps with a warning, in a fresh interpreter.

        ``main`` configures logging only where nothing is set up yet, as in a
        shell; under pytest the root logger already has handlers.
        """
        matrix_path = tmp_path / "grazing.bin"
        matrix = np.zeros((4, 3))
        matrix[2, 1] = 1.0 + 1e-13  # clamped with a warning
        matrix_io.write_matrix_binary(matrix_path, matrix)
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "hedge", "T": 4, "seed": 0},
                "environment": {"kind": "finite_matrix", "path": str(matrix_path)},
            },
        )
        argv = [*flags, "run", "--config", config, "--out-dir", str(tmp_path / "out")]
        script = "import sys; from packhedge import cli; sys.exit(cli.main(sys.argv[1:]))"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, sys.path)))
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
        )
        assert done.returncode == EXIT_OK, done.stderr
        return done.stderr

    def test_default_shows_the_clamp_warning(self, tmp_path):
        assert "WARNING packhedge.core: clamping losses" in self.run_grazing_matrix(tmp_path)

    def test_error_level_suppresses_the_clamp_warning(self, tmp_path):
        assert "clamping losses" not in self.run_grazing_matrix(tmp_path, "--log-level", "ERROR")

    def test_long_bounded_variation_warns_in_one_line(self, tmp_path):
        # The warning's check never builds 2**T, which has over 6000 digits at T = 20000,
        # past Python's int-to-str limit.
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "hedge", "T": 20_000, "seed": 0},
                "environment": {"kind": "bounded_variation", "K": 4},
            },
        )
        script = "import sys; from packhedge import cli; sys.exit(cli.main(sys.argv[1:]))"
        argv = ["run", "--config", config, "--out-dir", str(tmp_path / "out")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, sys.path)))
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stderr == (
            "WARNING packhedge.environments: bounded_variation with K=4:"
            " no expert flips after round 2\n"
        )

    def test_existing_logging_setup_is_left_alone(self, tmp_path):
        root = logging.getLogger()
        level, handlers = root.level, list(root.handlers)
        assert handlers  # pytest's capture handlers
        config = iid_config(tmp_path, T=5)
        argv = ["--log-level", "DEBUG", "run", "--config", config, "--out-dir", str(tmp_path)]
        assert cli.main(argv) == EXIT_OK
        assert root.level == level and root.handlers == handlers

    def test_unknown_level_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--log-level", "LOUD", "validate", "logsum"])
        assert exc.value.code == 2
        assert "--log-level" in capsys.readouterr().err


class TestSweep:
    def test_requires_seed(self, tmp_path, capsys):
        config = clustered_config(tmp_path)
        assert cli.main(["sweep", "--config", config, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("override", "field"),
        [
            ("sweep.n_seeds=abc", "sweep.n_seeds"),
            ("sweep.n_seeds=[1]", "sweep.n_seeds"),
            ("sweep.n_seeds=1.5", "sweep.n_seeds"),
            ("sweep.epsilons=[abc]", "sweep.epsilons"),
            ("sweep.epsilons=[null]", "sweep.epsilons"),
            ("sweep.epsilons=[1.5]", "sweep.epsilons"),
            ("sweep.epsilons=[0]", "sweep.epsilons"),
            ("sweep.include_meta=off-please", "sweep.include_meta"),
            ("sweep.n_seed=5", "sweep.n_seed"),
            ("sweep.environment=[1]", "sweep.environment"),
            # Falsy values that are not a mapping: only a missing key or null is no grid.
            ("sweep.environment=false", "sweep.environment"),
            ("sweep.environment=0", "sweep.environment"),
            ("sweep.environment=[]", "sweep.environment"),
            ("sweep.environment=''", "sweep.environment"),
            # A key the kind does not take, or the seed each job sets, plays identical cells.
            ("sweep.environment={M: [2, 4]}", "sweep.environment.M"),
            ("sweep.environment={seed: [1, 2]}", "sweep.environment.seed"),
            # A horizon other than game.T, and hedge and the meta-tuner, which read no epsilon.
            ("sweep.environment={T: [32, 64]}", "environment.T"),
            pytest.param(("game.algorithm=meta_tuner", "sweep.epsilons=[0.5, 0.25]"),
                         "sweep.epsilons", id="meta_tuner-sweep.epsilons=[0.5, 0.25]"),
            pytest.param(("game.algorithm=hedge", "sweep.epsilons=[0.5, 0.25]"),
                         "sweep.epsilons", id="hedge-sweep.epsilons=[0.5, 0.25]"),
        ],
    )
    def test_bad_sweep_value_is_config_error(self, tmp_path, capsys, monkeypatch, override, field):
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "many_experts", "T": 32, "epsilon": 0.5},
                "environment": {"kind": "clustered_binary", "K": 20, "N": 2},
                "sweep": {"n_seeds": 1, "epsilons": [0.5], "include_meta": False},
            },
        )
        monkeypatch.setattr(cli, "_run_jobs", lambda *args: pytest.fail("a job ran"))
        argv = ["sweep", "--config", config, "--seed", "0", "--out-dir", str(tmp_path / "out")]
        for item in [override] if isinstance(override, str) else override:
            argv += ["--set", item]
        assert cli.main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {field}:") and "Traceback" not in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_grid_over_path_plays_each_file(self, tmp_path, capsys):
        # path is the one parameter of finite_matrix; a key it does not take is refused.
        paths = [str(tmp_path / f"m{seed}.bin") for seed in (1, 2)]
        for seed, path in zip((1, 2), paths):
            matrix_io.write_matrix_binary(path, game_rng(seed).uniform(-1.0, 1.0, (16, 3)))
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "many_experts", "T": 16, "epsilon": 0.5},
                "environment": {"kind": "finite_matrix", "path": paths[0]},
                "sweep": {"n_seeds": 1, "epsilons": [0.5], "include_meta": False},
            },
        )
        argv = ["sweep", "--config", config, "--seed", "0", "--out-dir", str(tmp_path / "out")]
        assert cli.main(argv + ["--set", "sweep.environment={K: [2, 3]}"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: sweep.environment.K: kind 'finite_matrix' takes no such parameter\n"
        )
        assert cli.main(argv + ["--set", f"sweep.environment={{path: [{', '.join(paths)}]}}"]) == EXIT_OK
        rows = read_rows(tmp_path / "out" / "sweep.csv")[:2]
        assert [row["path"] for row in rows] == paths
        assert rows[0]["mean_regret"] != rows[1]["mean_regret"]

    @pytest.mark.parametrize("value", ["{}", "null"])
    def test_empty_or_null_sweep_environment_is_no_grid(self, tmp_path, value):
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "many_experts", "T": 50, "epsilon": 0.5},
                "environment": {"kind": "clustered_binary", "K": 30, "N": 2},
                "sweep": {"n_seeds": 1, "epsilons": [0.5], "include_meta": False},
            },
        )
        assert cli.main(
            ["sweep", "--config", config, "--seed", "0", "--set", f"sweep.environment={value}",
             "--out-dir", str(tmp_path / "out")]
        ) == EXIT_OK
        rows = read_rows(tmp_path / "out" / "sweep.csv")
        assert [r["algorithm"] for r in rows] == ["many_experts", "best_epsilon"]

    @pytest.mark.parametrize(
        ("overrides", "cells", "seeds"),
        [(["sweep.n_seeds=1000000000000000000000000000000"], 2, 10**30),
         (["sweep.n_seeds=1000", f"sweep.environment={{N: {list(range(1, 51))}, K: [20, 30]}}"],
          200, 1000)],
        ids=["n_seeds", "grid"],
    )
    def test_too_many_jobs_refused_before_any_is_built(
        self, tmp_path, capsys, monkeypatch, overrides, cells, seeds
    ):
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "many_experts", "T": 32, "epsilon": 0.5},
                "environment": {"kind": "clustered_binary", "K": 20, "N": 2},
                "sweep": {"n_seeds": 1, "epsilons": [0.5], "include_meta": True},
            },
        )
        monkeypatch.setattr(cli, "_run_jobs", lambda *args: pytest.fail("a job ran"))
        argv = ["sweep", "--config", config, "--seed", "0", "--out-dir", str(tmp_path / "out")]
        for override in overrides:
            argv += ["--set", override]
        assert cli.main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: sweep.n_seeds: {cells} cells x {seeds} seeds are too many"
            f" jobs (guard: {cli.SWEEP_MAX_JOBS} jobs)\n"
        )

    def test_cost_grows_linearly_with_the_seeds(self, tmp_path, monkeypatch):
        # Jobs that finish at once leave the sweep's own work: building the jobs,
        # counting each cell's progress and aggregating.  Four times the seeds
        # cost about four times as much; a per-result rescan of the cell's seeds
        # would cost about sixteen times.
        ready = {"regret": 0.0, "final_packing": None, "phases": None, "error": None}
        monkeypatch.setattr(
            cli, "_run_jobs", lambda jobs, _: ((i, ready) for i in range(len(jobs)))
        )
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "hedge", "T": 4},
                "environment": {"kind": "iid_stochastic", "K": 2, "means": 0.0},
                "sweep": {"include_meta": False},
            },
        )

        def cost(n_seeds):
            argv = ["sweep", "--config", config, "--seed", "0", "--set", f"sweep.n_seeds={n_seeds}",
                    "--out-dir", str(tmp_path / "out")]
            started = time.perf_counter()
            assert cli.main(argv) == EXIT_OK
            return time.perf_counter() - started

        small, large = (min(cost(n) for _ in range(3)) for n in (2000, 8000))
        assert large < 8 * small

    def test_meta_cell_of_one_round_refused_before_any_job(self, tmp_path, capsys, monkeypatch):
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "many_experts", "T": 1, "epsilon": 0.5},
                "environment": {"kind": "clustered_binary", "K": 4, "N": 2},
                "sweep": {"n_seeds": 1, "include_meta": True},
            },
        )
        monkeypatch.setattr(cli, "_run_jobs", lambda *args: pytest.fail("a job ran"))
        argv = ["sweep", "--config", config, "--seed", "0", "--out-dir", str(tmp_path / "out")]
        assert cli.main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: game: horizon T must be >= 2 to build a grid, got 1\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_grid_sweep_bytes_are_pinned(self, tmp_path, parallelism):
        # Two grid values of N, two accuracies and the meta row, three seeds each:
        # every cell has n_seeds jobs, and each combo has its own best_epsilon row.
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "many_experts", "T": 64, "epsilon": 0.5},
                "environment": {"kind": "clustered_binary", "K": 200, "N": 2},
                "sweep": {"n_seeds": 3, "epsilons": [1, 0.5], "include_meta": True,
                          "environment": {"N": [2, 4]}},
            },
        )
        argv = ["sweep", "--config", config, "--seed", "0", "--parallelism", parallelism]
        assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == EXIT_OK
        assert (tmp_path / "out" / "sweep.csv").read_bytes().split(b"\r\n") == [
            b"algorithm,epsilon,N,n_seeds,n_failures,mean_regret,stderr_regret,"
            b"mean_final_packing,mean_phases,error",
            b"many_experts,1,2,3,0,6.666666666666667,6.666666666666667,1.0,1.0,",
            b"many_experts,0.5,2,3,0,4.0,2.0,2.0,2.0,",
            b"meta_tuner,,2,3,0,6.0,3.464101615137755,,,",
            b"many_experts,1,4,3,0,7.333333333333333,2.905932629027116,1.0,1.0,",
            b"many_experts,0.5,4,3,0,13.333333333333334,1.7638342073763937,4.0,4.0,",
            b"meta_tuner,,4,3,0,11.333333333333334,2.4037008503093262,,,",
            b"best_epsilon,0.5,2,3,0,4.0,2.0,2.0,2.0,",
            b"best_epsilon,1,4,3,0,7.333333333333333,2.905932629027116,1.0,1.0,",
            b"",
        ]

    def test_hedge_cells_report_all_experts_and_one_phase(self, tmp_path):
        # Hedge plays every expert in one phase: its packing is K and its phase count 1.
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "hedge", "T": 64, "epsilon": 0.5},
                "environment": {"kind": "clustered_binary", "K": 40, "N": 2},
                "sweep": {"n_seeds": 2, "epsilons": [0.5], "include_meta": False,
                          "environment": {"N": [2, 4]}},
            },
        )
        argv = ["sweep", "--config", config, "--seed", "0", "--out-dir", str(tmp_path / "out")]
        assert cli.main(argv) == EXIT_OK
        assert (tmp_path / "out" / "sweep.csv").read_bytes().split(b"\r\n") == [
            b"algorithm,epsilon,N,n_seeds,n_failures,mean_regret,stderr_regret,"
            b"mean_final_packing,mean_phases,error",
            b"hedge,0.5,2,2,0,5.0,1.0,40.0,1.0,",
            b"hedge,0.5,4,2,0,7.0,5.0,40.0,1.0,",
            b"best_epsilon,0.5,2,2,0,5.0,1.0,40.0,1.0,",
            b"best_epsilon,0.5,4,2,0,7.0,5.0,40.0,1.0,",
            b"",
        ]

    def test_include_meta_false_leaves_meta_row_out(self, tmp_path):
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "many_experts", "T": 32, "epsilon": 0.5},
                "environment": {"kind": "clustered_binary", "K": 20, "N": 2},
                "sweep": {"n_seeds": 1, "epsilons": [0.5]},
            },
        )
        for value, name in (("true", "with"), ("false", "without")):
            assert cli.main(
                ["sweep", "--config", config, "--seed", "0", "--set", f"sweep.include_meta={value}",
                 "--out-dir", str(tmp_path / name)]
            ) == EXIT_OK
        with_meta = [r["algorithm"] for r in read_rows(tmp_path / "with" / "sweep.csv")]
        without_meta = [r["algorithm"] for r in read_rows(tmp_path / "without" / "sweep.csv")]
        assert with_meta == ["many_experts", "meta_tuner", "best_epsilon"]
        assert without_meta == ["many_experts", "best_epsilon"]

    def test_single_cell_matches_run(self, tmp_path):
        config_payload = {
            "game": {"algorithm": "many_experts", "T": 200, "epsilon": 0.5},
            "environment": {"kind": "clustered_binary", "K": 300, "N": 4},
            "sweep": {"n_seeds": 1, "epsilons": [0.5], "include_meta": False},
        }
        config = write_config(tmp_path / "config.yaml", config_payload)
        assert cli.main(
            ["sweep", "--config", config, "--seed", "3", "--out-dir", str(tmp_path / "sweep")]
        ) == EXIT_OK
        assert cli.main(
            ["run", "--config", config, "--seed", "3", "--out-dir", str(tmp_path / "run")]
        ) == EXIT_OK
        rows = read_rows(tmp_path / "sweep" / "sweep.csv")
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        cell = next(r for r in rows if r["algorithm"] == "many_experts")
        assert float(cell["mean_regret"]) == pytest.approx(summary["regret"], abs=1e-9)

    def test_deterministic_output(self, tmp_path):
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "many_experts", "T": 120, "epsilon": 0.5},
                "environment": {"kind": "clustered_binary", "K": 100, "N": 4},
                "sweep": {"n_seeds": 3, "epsilons": [0.5, 0.25], "include_meta": True},
            },
        )
        for name in ("a", "b"):
            assert cli.main(
                ["sweep", "--config", config, "--seed", "5", "--out-dir", str(tmp_path / name)]
            ) == EXIT_OK
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()

    @pytest.mark.parametrize(
        ("parallelism", "n_seeds", "widths"), [("64", 2, [2]), ("4", 1, []), ("1000000", 4, [3])]
    )
    def test_pool_is_no_wider_than_the_seed_runs(
        self, tmp_path, monkeypatch, parallelism, n_seeds, widths
    ):
        # Nor than the CPUs the process may use, patched to 3: no process is started.
        started = []

        class RecordingPool:
            """Records its width and runs each job at once, in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "many_experts", "T": 16, "epsilon": 0.5},
                "environment": {"kind": "clustered_binary", "K": 20, "N": 2},
                "sweep": {"n_seeds": n_seeds, "epsilons": [0.5], "include_meta": False},
            },
        )
        for name, width in (("pooled", parallelism), ("serial", "1")):
            assert cli.main(
                ["sweep", "--config", config, "--seed", "0", "--parallelism", width,
                 "--out-dir", str(tmp_path / name)]
            ) == EXIT_OK
        assert started == widths
        sweeps = [(tmp_path / name / "sweep.csv").read_bytes() for name in ("pooled", "serial")]
        assert sweeps[0] == sweeps[1]

    @pytest.mark.parametrize("parallelism", ["0", "-3"])
    def test_parallelism_below_one_is_config_error(self, tmp_path, capsys, monkeypatch, parallelism):
        monkeypatch.setattr(cli, "_run_jobs", lambda *args: pytest.fail("a job ran"))
        config = clustered_config(tmp_path)
        argv = ["sweep", "--config", config, "--seed", "0", "--parallelism", parallelism]
        assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: --parallelism: must be >= 1, got {parallelism}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_parallel_pool_matches_serial(self, tmp_path):
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "many_experts", "T": 80, "epsilon": 0.5},
                "environment": {"kind": "clustered_binary", "K": 60, "N": 3},
                "sweep": {"n_seeds": 2, "epsilons": [0.5, 0.25], "include_meta": False},
            },
        )
        for name, parallelism in (("serial", "1"), ("parallel", "3")):
            assert cli.main(
                ["sweep", "--config", config, "--seed", "6",
                 "--out-dir", str(tmp_path / name), "--parallelism", parallelism]
            ) == EXIT_OK
        assert (tmp_path / "serial" / "sweep.csv").read_bytes() == (
            tmp_path / "parallel" / "sweep.csv"
        ).read_bytes()

    def test_includes_meta_and_best_epsilon_rows(self, tmp_path):
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "many_experts", "T": 64, "epsilon": 0.5},
                "environment": {"kind": "clustered_binary", "K": 60, "N": 4},
                "sweep": {"n_seeds": 2, "epsilons": [1.0, 0.5]},
            },
        )
        assert cli.main(
            ["sweep", "--config", config, "--seed", "1", "--out-dir", str(tmp_path / "out")]
        ) == EXIT_OK
        algorithms = {row["algorithm"] for row in read_rows(tmp_path / "out" / "sweep.csv")}
        assert {"many_experts", "meta_tuner", "best_epsilon"} <= algorithms

    def test_game_breaking_its_invariants_is_a_failed_cell(self, tmp_path, monkeypatch):
        # Each seed's game is validated as a run's is, so it is no row of numbers.
        play = cli._play

        def broken(game, oracle):
            trajectory = play(game, oracle)
            trajectory.cumulative[-1] += 1.0
            return trajectory

        monkeypatch.setattr(cli, "_play", broken)
        config = clustered_config(tmp_path, T=20, K=12, N=3)
        argv = ["sweep", "--config", config, "--seed", "0", "--parallelism", "1",
                "--set", "sweep={n_seeds: 3, include_meta: false}"]
        assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == EXIT_BOUND_VIOLATION
        rows = read_rows(tmp_path / "out" / "sweep.csv")
        assert [(row["n_seeds"], row["n_failures"]) for row in rows] == [("3", "3")]
        assert rows[0]["error"] == (
            "cumulative loss does not match the running sum of incurred losses"
        )

    def test_failing_cell_recorded_and_flagged(self, tmp_path):
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "many_experts", "T": 3, "epsilon": 0.5},
                "environment": {"kind": "clustered_binary", "K": 100, "N": 2},
                "sweep": {
                    "n_seeds": 2,
                    "epsilons": [0.5],
                    "include_meta": False,
                    "environment": {"N": [2, 16]},  # 16 > 2**3 rows cannot exist
                },
            },
        )
        code = cli.main(
            ["sweep", "--config", config, "--seed", "0", "--out-dir", str(tmp_path / "out")]
        )
        assert code == EXIT_BOUND_VIOLATION
        rows = read_rows(tmp_path / "out" / "sweep.csv")
        good = next(r for r in rows if r["N"] == "2" and r["algorithm"] == "many_experts")
        bad = next(r for r in rows if r["N"] == "16" and r["algorithm"] == "many_experts")
        assert good["n_failures"] == "0" and good["mean_regret"] != ""
        assert bad["n_failures"] == "2" and "distinct binary rows" in bad["error"]
        # Missing aggregates are empty fields; the error is the first failed seed's.
        lines = (tmp_path / "out" / "sweep.csv").read_bytes().split(b"\r\n")
        assert lines[2] == (
            b"many_experts,0.5,16,2,2,,,,,"
            b"environment: too many distinct binary rows: N=16 exceeds 2**T=8"
        )
        assert lines[1].endswith(b",") and lines[3].startswith(b"best_epsilon,0.5,2,")

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_progress_logged_per_cell(self, tmp_path, caplog, parallelism):
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "many_experts", "T": 3, "epsilon": 0.5},
                "environment": {"kind": "clustered_binary", "K": 100, "N": 2},
                "sweep": {
                    "n_seeds": 2,
                    "epsilons": [0.5],
                    "include_meta": False,
                    "environment": {"N": [2, 16]},  # 16 > 2**3 rows cannot exist
                },
            },
        )
        argv = ["sweep", "--config", config, "--seed", "0", "--parallelism", parallelism]
        caplog.set_level(logging.INFO, logger="packhedge.cli")
        assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == EXIT_BOUND_VIOLATION
        records = [r for r in caplog.records if r.name == "packhedge.cli"]
        lines = [(r.levelname, r.getMessage()) for r in records]
        # Both seeds of the N=16 cell fail: one warning, before the cell's finish line.
        warnings = [m for level, m in lines if level == "WARNING"]
        assert len(warnings) == 1
        assert warnings[0].startswith("sweep cell 2/2 (algorithm=many_experts, epsilon=0.5, N=16)")
        assert "distinct binary rows" in warnings[0]
        good = "sweep cell 1/2 (algorithm=many_experts, epsilon=0.5, N=2) finished: 0 of 2 seeds failed"
        bad = "sweep cell 2/2 (algorithm=many_experts, epsilon=0.5, N=16) finished: 2 of 2 seeds failed"
        assert sorted(m for level, m in lines if level == "INFO") == [good, bad]
        assert lines.index(("WARNING", warnings[0])) < lines.index(("INFO", bad))

    def test_module_run_logs_as_packhedge_cli(self, tmp_path):
        # Under ``python -m`` the module is ``__main__``; its records keep the package name.
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "many_experts", "T": 3, "epsilon": 0.5},
                "environment": {"kind": "clustered_binary", "K": 100, "N": 2},
                "sweep": {"n_seeds": 1, "epsilons": [0.5], "include_meta": False},
            },
        )
        argv = ["--log-level", "INFO", "sweep", "--config", config, "--seed", "0",
                "--out-dir", str(tmp_path / "out")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, sys.path)))
        done = subprocess.run(
            [sys.executable, "-m", "packhedge.cli", *argv], capture_output=True, text=True, env=env
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert "INFO packhedge.cli: sweep cell 1/1" in done.stderr
        assert "__main__" not in done.stderr

    def test_accuracy_tradeoff_has_interior_optimum(self, tmp_path):
        matrix_path = tmp_path / "tradeoff.bin"
        matrix_io.write_matrix_binary(matrix_path, tradeoff_matrix())
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "many_experts", "T": 300, "epsilon": 0.5},
                "environment": {"kind": "finite_matrix", "path": str(matrix_path)},
                "sweep": {"n_seeds": 5, "epsilons": [1.0, 0.3, 0.1], "include_meta": False},
            },
        )
        assert cli.main(
            ["sweep", "--config", config, "--seed", "2", "--out-dir", str(tmp_path / "out")]
        ) == EXIT_OK
        rows = read_rows(tmp_path / "out" / "sweep.csv")
        regret = {
            float(r["epsilon"]): float(r["mean_regret"])
            for r in rows
            if r["algorithm"] == "many_experts"
        }
        assert regret[0.3] < regret[0.1] < regret[1.0]
        best = next(r for r in rows if r["algorithm"] == "best_epsilon")
        assert float(best["epsilon"]) == 0.3

    def test_binary_losses_make_behavior_epsilon_invariant(self, tmp_path):
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "many_experts", "T": 150, "epsilon": 0.5},
                "environment": {"kind": "clustered_binary", "K": 120, "N": 5},
                "sweep": {"n_seeds": 3, "epsilons": [0.9, 0.5, 0.1], "include_meta": False},
            },
        )
        assert cli.main(
            ["sweep", "--config", config, "--seed", "4", "--out-dir", str(tmp_path / "out")]
        ) == EXIT_OK
        rows = read_rows(tmp_path / "out" / "sweep.csv")
        regrets = {r["epsilon"]: r["mean_regret"] for r in rows if r["algorithm"] == "many_experts"}
        # admission compares binary gaps {0, 2} to 2*eps, so any eps in (0, 1)
        # triggers identical decisions and bit-identical games
        assert regrets["0.9"] == regrets["0.5"] == regrets["0.1"]


class TestValidate:
    def test_unknown_suite_is_config_error(self, capsys):
        assert cli.main(["validate", "nonsense", "--seed", "0"]) == EXIT_CONFIG
        assert "unknown suite" in capsys.readouterr().err

    def test_requires_seed(self, capsys):
        assert cli.main(["validate", "logsum"]) == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err

    def test_logsum_suite_passes(self, capsys):
        assert cli.main(["validate", "logsum", "--seed", "0"]) == EXIT_OK
        assert "PASS logsum" in capsys.readouterr().out

    @staticmethod
    def stub_suite(seed):
        return seed > 0, f"stub at seed {seed}", {"per_case": {"b": 2, "a": [1]}, "count": 3}

    def test_runner_names_and_times_the_suite(self, monkeypatch):
        monkeypatch.setitem(validation.SUITES, "stub", self.stub_suite)
        result = validation.run_suite("stub", seed=4)
        assert (result.suite, result.passed, result.summary) == ("stub", True, "stub at seed 4")
        assert set(result.details) == {"per_case", "count", "wall_time"}
        assert 0.0 <= result.details["wall_time"] < 1.0

    @pytest.mark.parametrize(("seed", "status", "code"), [("1", "PASS", EXIT_OK),
                                                          ("0", "FAIL", EXIT_BOUND_VIOLATION)])
    def test_mapping_detail_printed_one_entry_per_line(
        self, monkeypatch, capsys, seed, status, code
    ):
        monkeypatch.setitem(validation.SUITES, "stub", self.stub_suite)
        assert cli.main(["validate", "stub", "--seed", seed]) == code
        lines = capsys.readouterr().out.splitlines()
        assert lines[:4] == [f"{status} stub: stub at seed {seed}", "  count: 3", "  b: 2", "  a: [1]"]
        assert len(lines) == 5 and lines[4].startswith("  wall_time: ")


class TestExportEnv:
    def test_csv_export_and_reingest(self, tmp_path):
        config = clustered_config(tmp_path, T=20, K=12, N=3)
        assert cli.main(
            ["export-env", "--config", config, "--out-dir", str(tmp_path / "out"), "--format", "csv"]
        ) == EXIT_OK
        env = environments.environment_from_sidecar(tmp_path / "out" / "clustered_binary.json")
        exported = environments.load_matrix_file(tmp_path / "out" / "clustered_binary.csv")
        assert np.array_equal(env.to_matrix(), exported.to_matrix())

    def test_binary_export_bit_identical(self, tmp_path):
        config = write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "hedge", "T": 15, "seed": 2},
                "environment": {"kind": "low_rank", "K": 10, "d": 2, "epsilon_noise": 0.1},
            },
        )
        assert cli.main(
            ["export-env", "--config", config, "--out-dir", str(tmp_path / "out"),
             "--format", "binary", "--name", "demo"]
        ) == EXIT_OK
        first = (tmp_path / "out" / "demo.bin").read_bytes()
        assert cli.main(
            ["export-env", "--config", config, "--out-dir", str(tmp_path / "out2"),
             "--format", "binary", "--name", "demo"]
        ) == EXIT_OK
        assert first == (tmp_path / "out2" / "demo.bin").read_bytes()

    def test_dotted_names_keep_every_dot(self, tmp_path):
        config = clustered_config(tmp_path, T=20, K=12, N=3)
        out = tmp_path / "out"
        for name in ("seed.1", "seed.2"):
            argv = ["export-env", "--config", config, "--out-dir", str(out), "--name", name]
            assert cli.main(argv) == EXIT_OK
        suffixes = ("csv", "json", "rows.csv", "assignment.csv")
        expected = [f"seed.{i}.{suffix}" for i in (1, 2) for suffix in suffixes]
        assert sorted(path.name for path in out.iterdir()) == sorted(expected)
        sidecar = json.loads((out / "seed.1.json").read_text())
        assert sidecar["files"]["matrix"] == "seed.1.csv"
        env = environments.environment_from_sidecar(out / "seed.2.json")
        exported = environments.load_matrix_file(out / "seed.2.csv")
        assert np.array_equal(env.to_matrix(), exported.to_matrix())

    def test_iid_sidecar_echoes_the_config(self, tmp_path):
        environment = {"kind": "iid_stochastic", "T": 9, "K": 3, "means": 0.25, "seed": 4}
        config = write_config(
            tmp_path / "config.yaml",
            {"game": {"algorithm": "hedge", "T": 9, "seed": 4}, "environment": environment},
        )
        assert cli.main(["export-env", "--config", config, "--out-dir", str(tmp_path)]) == EXIT_OK
        sidecar = json.loads((tmp_path / "iid_stochastic.json").read_text())
        parameters = {k: v for k, v in environment.items() if k != "kind"}
        assert sidecar["spec"] == {"kind": "iid_stochastic", "parameters": parameters}
        env = environments.environment_from_sidecar(tmp_path / "iid_stochastic.json")
        exported = environments.load_matrix_file(tmp_path / "iid_stochastic.csv").to_matrix()
        assert np.array_equal(env.to_matrix(), exported)
        assert np.array_equal(exported, np.full((9, 3), 0.25))

    @staticmethod
    def file_config(tmp_path):
        """A hedge game on a 40 x 30 binary matrix file."""
        matrix_io.write_matrix_binary(tmp_path / "source.bin", game_rng(6).uniform(-1, 1, (40, 30)))
        return write_config(
            tmp_path / "config.yaml",
            {
                "game": {"algorithm": "hedge", "T": 40, "seed": 1},
                "environment": {"kind": "finite_matrix", "path": str(tmp_path / "source.bin")},
            },
        )

    @pytest.mark.parametrize("fmt", matrix_io.FORMATS)
    @pytest.mark.parametrize("source", ["clustered", "file"])
    def test_export_past_the_guard_writes_the_same_bytes(self, tmp_path, monkeypatch, source, fmt):
        # The matrix is written from the oracle's rows a block at a time, so
        # the guard on a whole matrix does not apply to it.
        if source == "clustered":
            config, entries = clustered_config(tmp_path, T=50, K=1000, N=8), 50 * 1000
        else:
            config, entries = self.file_config(tmp_path), 40 * 30
        ext = "bin" if fmt == "binary" else "csv"

        def export(out):
            argv = ["export-env", "--config", config, "--out-dir", str(tmp_path / out)]
            assert cli.main(argv + ["--format", fmt, "--name", "m"]) == EXIT_OK
            return (tmp_path / out / f"m.{ext}").read_bytes()

        normal = export("normal")
        monkeypatch.setattr(core, "MATRIX_MAX_ENTRIES", entries - 1)
        assert export("guarded") == normal
        if source == "file" and fmt == "binary":
            assert normal == (tmp_path / "source.bin").read_bytes()

    def test_export_over_its_own_matrix_file_is_refused(self, tmp_path, capsys):
        # Writing would truncate the file the oracle streams.
        config = self.file_config(tmp_path)
        before = (tmp_path / "source.bin").read_bytes()
        assert cli.main(
            ["export-env", "--config", config, "--out-dir", str(tmp_path), "--format", "binary",
             "--name", "source"]
        ) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: export: {tmp_path / 'source.bin'}: the export would write over"
            " the file it reads\n"
        )
        assert (tmp_path / "source.bin").read_bytes() == before
