import csv
import json
import logging
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import yaml

from packhedge import cli, environments, many_experts, matrix_io, meta_tuner
from packhedge.cli import EXIT_BOUND_VIOLATION, EXIT_CONFIG, EXIT_IO, EXIT_OK


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

        def counting(state, t, oracle):
            queries.append(t)
            return expand(state, t, oracle)

        monkeypatch.setattr(many_experts, "expand_packing", counting)
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        counts = manifest["metrics"]["schedule"]
        assert counts["exact_queries"] == len(queries)
        monkeypatch.setattr(many_experts, "expand_packing", expand)
        # The same counts from the schedule of every copy, summed.
        game = cli.build_game_config(cli.load_config(config), None)
        oracle = cli._build_oracle(cli.build_env_spec(cli.load_config(config), game), game.T)
        epsilons = (
            meta_tuner.build_grid(game.T) if algorithm == "meta_tuner" else [game.epsilon]
        )
        states = [many_experts._schedule(oracle, e) for e in epsilons]
        assert counts["blocks"] == sum(state.blocks for state in states) >= len(states)
        assert counts["recertifications"] == sum(state.recertifications for state in states)
        assert counts["exact_queries"] == sum(state.queries for state in states)
        admitting = sum(len(set(state.admitted_at)) - 1 for state in states)
        assert counts["admitting_rounds"] == admitting <= len(queries)
        # At epsilon 1 no +/-1 row is farther than 2 from another: that copy never saturates.
        saturated = [s.active.size == oracle.coverage_ids().size for s in states]
        assert saturated == [eps < 1.0 for eps in epsilons]
        if all(saturated):
            assert counts["saturation_round"] == max(s.admitted_at[-1] for s in states) > 0
        else:
            assert counts["saturation_round"] is None
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert not {"metrics", "schedule"} & summary.keys()

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
        env = environments.make_environment(summary["environment"])
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

    def test_learner_value_error_is_config_error(self, tmp_path, capsys):
        # The meta-tuner needs T >= 2, which the generic game section allows.
        config = write_config(
            tmp_path / "bad.yaml",
            {
                "game": {"algorithm": "meta_tuner", "T": 1, "seed": 0},
                "environment": {"kind": "clustered_binary", "K": 4, "N": 2},
            },
        )
        assert cli.main(["run", "--config", config, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("configuration error: game:")
        assert "horizon" in err

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

    def test_libyaml_loader_used_when_present(self):
        assert cli.YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)

    @pytest.mark.parametrize("loader", [yaml.SafeLoader, cli.YAML_LOADER])
    def test_invalid_yaml_is_config_error(self, tmp_path, monkeypatch, capsys, loader):
        monkeypatch.setattr(cli, "YAML_LOADER", loader)
        path = tmp_path / "bad.yaml"
        path.write_text("game: {algorithm: hedge, T: [5\nenvironment: :\n")
        assert cli.main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
        assert "not valid YAML" in capsys.readouterr().err


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
            ("sweep.include_meta=off-please", "sweep.include_meta"),
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
        code = cli.main(
            ["sweep", "--config", config, "--seed", "0", "--set", override,
             "--out-dir", str(tmp_path / "out")]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {field}:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

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


class TestExportEnv:
    def test_csv_export_and_reingest(self, tmp_path):
        config = clustered_config(tmp_path, T=20, K=12, N=3)
        assert cli.main(
            ["export-env", "--config", config, "--out-dir", str(tmp_path / "out"), "--format", "csv"]
        ) == EXIT_OK
        env = environments.environment_from_sidecar(tmp_path / "out" / "clustered_binary.json")
        exported = matrix_io.load_matrix(tmp_path / "out" / "clustered_binary.csv")
        assert np.array_equal(env.to_matrix(), exported)

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

    def test_oversize_readme_config_is_config_error(self, tmp_path, capsys):
        # The README's clustered config (T=5000, K=1e5) is too large to materialise.
        config = clustered_config(tmp_path, T=5000, K=100_000, N=8)
        assert cli.main(
            ["export-env", "--config", config, "--out-dir", str(tmp_path / "out")]
        ) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("configuration error: export:")
        assert "too large" in err
