"""Batch front door: single games, seed sweeps, bound-validation suites, exports.

Configs are YAML files with ``game``, ``environment``, and (for sweeps) a
``sweep`` section; any value can be overridden on the command line with
``--set section.key=value``.  Exit codes: 0 success / bounds hold, 1 bound
violation or failed sweep cells, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import itertools
import json
import logging
import platform
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from . import __version__, analysis, environments, hedge, many_experts, matrix_io
from . import meta_tuner, validation
from .core import GameConfig, GameTrajectory, whole_number
from .environments import EnvironmentSpec

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3

#: Trajectory rows formatted per write.
CSV_BLOCK_ROWS = 1024

#: libyaml's parser where PyYAML was built with it (several times faster on a
#: config); the pure-Python safe loader otherwise.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# Named, not ``__name__``: under ``python -m packhedge.cli`` that is ``__main__``.
logger = logging.getLogger("packhedge.cli")


class ConfigError(Exception):
    """Invalid or incomplete configuration; the message names the field."""


# ----------------------------------------------------------------------------
# configuration plumbing


def load_config(path: str | Path) -> dict[str, Any]:
    try:
        raw = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config: {path}: not a text file ({exc})") from exc
    try:
        cfg = yaml.load(raw, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: not valid YAML ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be a mapping")
    return cfg


def apply_overrides(cfg: dict[str, Any], overrides: list[str]) -> None:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected section.key=value")
        dotted, raw_value = item.split("=", 1)
        keys = dotted.split(".")
        node = cfg
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {item!r}: {key} is not a section")
        try:
            node[keys[-1]] = yaml.load(raw_value, Loader=YAML_LOADER)
        except yaml.YAMLError as exc:
            problem = getattr(exc, "problem", None) or type(exc).__name__
            raise ConfigError(f"--set {item!r}: not valid YAML ({problem})") from exc


def build_env_spec(env: Any, game: GameConfig) -> EnvironmentSpec:
    """The spec of a config's ``environment`` section; ``T`` and ``seed`` default to the game's."""
    if not isinstance(env, dict):
        raise ConfigError("environment: section missing")
    if "kind" not in env:
        raise ConfigError("environment.kind: required and missing")
    parameters = {k: v for k, v in env.items() if k != "kind"}
    parameters.setdefault("T", game.T)
    if env["kind"] != "finite_matrix":
        parameters.setdefault("seed", game.seed)
    try:
        return EnvironmentSpec(str(env["kind"]), parameters)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load(args: argparse.Namespace) -> tuple[dict[str, Any], GameConfig, EnvironmentSpec]:
    """The config ``args`` names, with its overrides, and the game and environment it sets."""
    cfg = load_config(args.config)
    apply_overrides(cfg, args.set or [])
    raw = cfg.get("game")
    if not isinstance(raw, dict):
        raise ConfigError("game: section missing")
    for required in ("algorithm", "T"):
        if required not in raw:
            raise ConfigError(f"game.{required}: required and missing")
    seed = args.seed if args.seed is not None else raw.get("seed")
    if seed is None:
        raise ConfigError("game.seed: required (set it in the config or pass --seed)")
    try:
        game = GameConfig(raw["T"], raw.get("epsilon", 1.0), seed, str(raw["algorithm"]))
    except ValueError as exc:
        raise ConfigError(f"game: {exc}") from exc
    return cfg, game, build_env_spec(cfg.get("environment"), game)


def _play(game: GameConfig, oracle) -> GameTrajectory:
    if game.algorithm == "hedge":
        return hedge.play_hedge(oracle, rng=game.seed)
    if game.algorithm == "many_experts":
        return many_experts.play_many_experts(oracle, game.epsilon, rng=game.seed)
    return meta_tuner.play_meta(oracle, seed=game.seed)


# ----------------------------------------------------------------------------
# output writers


def _block_strings(values: np.ndarray) -> list[str]:
    """``repr`` of every entry of ``values``, called once per distinct entry.

    Entries are told apart by their 64-bit patterns, so ``-0.0`` and ``0.0``
    keep their own strings.  The ``repr`` of an integer is its decimal form.
    A block of which more than half the entries are distinct is formatted
    entry by entry: a table would save few calls and cost its own build.
    """
    bits = values.view(np.int64)
    # A sort and a binary search: np.unique's return_inverse would argsort the
    # block, which costs more than the rest of this function.
    ordered = np.sort(bits)
    keys = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    if 2 * keys.size > values.size:
        return list(map(repr, values.tolist()))
    table = np.array([repr(v) for v in keys.view(values.dtype).tolist()], dtype=object)
    return table[keys.searchsorted(bits)].tolist()


def write_trajectory_csv(path: str | Path, trajectory: GameTrajectory) -> None:
    """Write the per-round table in ``csv.writer``'s dialect, header first.

    Rows are written a block of ``CSV_BLOCK_ROWS`` at a time, and each block
    is formatted column by column: a value is formatted once per block in
    which it occurs, however many rows of the block hold it (integers in
    decimal, floats as ``repr``).  So nothing built here grows with ``T``
    beyond one block of strings per column.
    """
    columns = [np.asarray(trajectory.phase, np.int64),
               np.asarray(trajectory.packing_size, np.int64),
               np.asarray(trajectory.chosen, np.int64),
               np.asarray(trajectory.incurred, np.float64),
               np.asarray(trajectory.cumulative, np.float64)]
    rounds = len(trajectory)
    with open(path, "w", newline="") as fh:
        fh.write("t,phase,packing_size,chosen_expert,loss,cumulative_loss\r\n")
        for start in range(0, rounds, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, rounds)
            fields = [map(repr, range(start + 1, stop + 1))]
            fields += [_block_strings(column[start:stop]) for column in columns]
            fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def build_summary(
    trajectory: GameTrajectory,
    oracle,
    game: GameConfig,
    env_spec: EnvironmentSpec,
) -> dict[str, Any]:
    ledger = analysis.empirical_regret(trajectory, oracle)
    num_experts = oracle.num_experts()
    extras = trajectory.extras
    final_packing, phases = extras.get("final_packing"), extras.get("num_phases")
    theorem1_bound = (
        many_experts.packing_regret_bound(final_packing, phases, game.epsilon, game.T)
        if final_packing is not None
        else None
    )
    summary: dict[str, Any] = {
        "regret": ledger.regret,
        "lemma1_bound": hedge.hedge_regret_bound(game.T, num_experts),
        "theorem1_bound": theorem1_bound,
        "K_p": final_packing,
        "p": phases,
        "epsilon": game.epsilon,
        "T": game.T,
        "K": num_experts,
        "seed": game.seed,
        "environment": env_spec.as_dict(),
    }
    if "copies" in extras:
        # Every copy plays the game's oracle, so they share its best expert.
        summary["copies"] = [
            {
                "level": level,
                "epsilon": copy_traj.extras["epsilon"],
                "cumulative_loss": copy_traj.learner_cumulative,
                "regret": copy_traj.learner_cumulative - ledger.best_cumulative,
                "final_packing": copy_traj.extras["final_packing"],
                "phases": copy_traj.extras["num_phases"],
            }
            for level, copy_traj in enumerate(extras["copies"], start=1)
        ]
    return summary


def _write_json(path: Path, payload: dict[str, Any]) -> str:
    """Write ``payload`` as indented JSON and return the text written."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path.write_text(text)
    return text


# ----------------------------------------------------------------------------
# subcommands


def cmd_run(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    # Wall seconds per stage: one clock reading at the end of each stage.
    timings: dict[str, float] = {}
    mark = started

    def stage_done(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        timings[name] = now - mark
        mark = now

    _, game, env_spec = _load(args)
    oracle = _build_oracle(env_spec, game.T)
    stage_done("environment")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        trajectory = _play(game, oracle)
    except ValueError as exc:
        raise ConfigError(f"game: {exc}") from exc
    trajectory.validate()
    stage_done("play")

    trajectory_path = out_dir / "trajectory.csv"
    summary_path = out_dir / "summary.json"
    write_trajectory_csv(trajectory_path, trajectory)
    stage_done("trajectory")
    _write_json(summary_path, build_summary(trajectory, oracle, game, env_spec))
    stage_done("summary")

    schedule = trajectory.extras.get("schedule")
    manifest = {
        "config": {"game": dataclasses.asdict(game), "environment": env_spec.as_dict()},
        "outputs": {"trajectory": str(trajectory_path), "summary": str(summary_path)},
        "code_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{platform.system()} {platform.machine()}",
        "metrics": {"schedule": schedule} if schedule is not None else {},
        "timings": timings,
        "wall_time": time.perf_counter() - started,
    }
    print(_write_json(out_dir / "manifest.json", manifest), end="")
    return EXIT_OK


def _build_oracle(env_spec: EnvironmentSpec, horizon: int):
    # A generator's T is checked before it runs, a matrix file's once it is read.
    T = env_spec.arguments().get("T", horizon)
    if T == horizon:
        try:
            oracle = environments.make_environment(env_spec)
        except ValueError as exc:
            raise ConfigError(f"environment: {exc}") from exc
        T = oracle.horizon()
    if T != horizon:
        raise ConfigError(f"environment.T: horizon {T} must equal game.T {horizon}")
    return oracle


def _sweep_cell_run(game: GameConfig, spec: EnvironmentSpec) -> dict[str, Any]:
    """One seeded run of a sweep cell (worker-pool entry point)."""
    try:
        oracle = _build_oracle(spec, game.T)
        summary = build_summary(_play(game, oracle), oracle, game, spec)
        return {
            "regret": summary["regret"],
            "final_packing": summary["K_p"],
            "phases": summary["p"],
            "error": None,
        }
    except Exception as exc:  # per-cell failures are recorded, not fatal
        return {"regret": None, "final_packing": None, "phases": None, "error": str(exc)}


def _run_jobs(jobs: list[tuple[GameConfig, EnvironmentSpec]], parallelism: int):
    """Yield ``(index, result)`` of every sweep job as it finishes.

    The pool starts all its workers at once, so it is no wider than the jobs.
    """
    workers = min(parallelism, len(jobs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_sweep_cell_run, *job): i for i, job in enumerate(jobs)}
            for future in concurrent.futures.as_completed(futures):
                yield futures[future], future.result()
    else:
        for index, job in enumerate(jobs):
            yield index, _sweep_cell_run(*job)


def _aggregate(rows: list[dict[str, Any]]) -> dict[str, Any]:
    regrets = [r["regret"] for r in rows if r["error"] is None]
    failures = [r for r in rows if r["error"] is not None]
    out: dict[str, Any] = {
        "n_seeds": len(rows),
        "n_failures": len(failures),
        "error": failures[0]["error"] if failures else None,
    }
    if regrets:
        arr = np.asarray(regrets, dtype=np.float64)
        out["mean_regret"] = float(arr.mean())
        out["stderr_regret"] = (
            float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
        )
        packs = [r["final_packing"] for r in rows if r["error"] is None and r["final_packing"]]
        phases = [r["phases"] for r in rows if r["error"] is None and r["phases"]]
        out["mean_final_packing"] = float(np.mean(packs)) if packs else None
        out["mean_phases"] = float(np.mean(phases)) if phases else None
    return out


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise ConfigError("--seed: required in sweep mode")
    if args.parallelism < 1:
        raise ConfigError(f"--parallelism: must be >= 1, got {args.parallelism}")
    cfg, game, _ = _load(args)
    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict):
        raise ConfigError("sweep: section missing")
    try:
        n_seeds = whole_number("n_seeds", sweep.get("n_seeds", 1), 1)
    except ValueError as exc:
        raise ConfigError(f"sweep.n_seeds: {exc}") from exc
    epsilons = sweep.get("epsilons", [game.epsilon])
    if not isinstance(epsilons, list) or not epsilons:
        raise ConfigError("sweep.epsilons: must be a non-empty list")
    include_meta = sweep.get("include_meta", True)
    if not isinstance(include_meta, bool):
        raise ConfigError(f"sweep.include_meta: must be true or false, not {include_meta!r}")

    env_sweep = sweep.get("environment") or {}
    if not isinstance(env_sweep, dict):
        raise ConfigError(f"sweep.environment: must be a mapping, not {env_sweep!r}")
    env_grid: dict[str, list[Any]] = {}
    for key, values in env_sweep.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.environment.{key}: must be a non-empty list")
        env_grid[key] = values
    grid_keys = sorted(env_grid)
    combos = list(itertools.product(*(env_grid[k] for k in grid_keys))) or [()]

    # Cell c is row c of sweep.csv; job i plays one seed of cell i // n_seeds.
    labels: list[dict[str, Any]] = []
    jobs: list[tuple[GameConfig, EnvironmentSpec]] = []
    for combo in combos:
        grid = dict(zip(grid_keys, combo))
        cells = [(game.algorithm, epsilon, epsilon) for epsilon in epsilons]
        if include_meta and game.algorithm != "meta_tuner":
            cells.append(("meta_tuner", "", 1.0))
        for algorithm, label, epsilon in cells:
            labels.append({"algorithm": algorithm, "epsilon": label, **grid})
            for seed in range(game.seed, game.seed + n_seeds):
                try:
                    cell_game = GameConfig(game.T, epsilon, seed, algorithm)
                except ValueError as exc:
                    # A meta cell's accuracy is fixed: only its T x R feedback can be refused.
                    field = "game" if label == "" else "sweep.epsilons"
                    raise ConfigError(f"{field}: {exc}") from exc
                environment = cfg["environment"] | grid | {"seed": seed}
                jobs.append((cell_game, build_env_spec(environment, cell_game)))

    # Progress is logged per cell as its seeds finish; sweep.csv keeps cell order.
    names = [", ".join(f"{k}={v}" for k, v in label.items()) for label in labels]
    results: list[dict[str, Any] | None] = [None] * len(jobs)
    for index, result in _run_jobs(jobs, args.parallelism):
        results[index] = result
        c = index // n_seeds
        done = [r for r in results[c * n_seeds : (c + 1) * n_seeds] if r is not None]
        failed = sum(r["error"] is not None for r in done)
        if result["error"] is not None and failed == 1:
            logger.warning(
                "sweep cell %d/%d (%s) failed: %s", c + 1, len(labels), names[c], result["error"]
            )
        if len(done) == n_seeds:
            logger.info(
                "sweep cell %d/%d (%s) finished: %d of %d seeds failed",
                c + 1, len(labels), names[c], failed, n_seeds,
            )
    rows = [
        label | _aggregate(results[c * n_seeds : (c + 1) * n_seeds])
        for c, label in enumerate(labels)
    ]

    # Best accuracy in hindsight per environment combo, for the meta comparison;
    # each combo's cells are consecutive.
    per_combo = len(rows) // len(combos)
    for start in range(0, len(rows), per_combo):
        candidates = [
            row
            for row in rows[start : start + per_combo]
            if row["algorithm"] == game.algorithm and row.get("mean_regret") is not None
        ]
        if candidates:
            best = min(candidates, key=lambda row: row["mean_regret"])
            rows.append(best | {"algorithm": "best_epsilon"})

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep_path = out_dir / "sweep.csv"
    columns = (
        ["algorithm", "epsilon"]
        + grid_keys
        + [
            "n_seeds",
            "n_failures",
            "mean_regret",
            "stderr_regret",
            "mean_final_packing",
            "mean_phases",
            "error",
        ]
    )
    with open(sweep_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {sweep_path} ({len(rows)} rows)")
    return EXIT_BOUND_VIOLATION if any(row["n_failures"] for row in rows) else EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise ConfigError("--seed: required in validate mode")
    if args.seed < 0:
        raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
    if args.suite not in validation.SUITES:
        raise ConfigError(
            f"suite: unknown suite {args.suite!r}; choose from {sorted(validation.SUITES)}"
        )
    result = validation.run_suite(args.suite, args.seed)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.suite}: {result.summary}")
    # A mapping-valued detail is printed one entry per line, under no key of its own.
    for key, value in sorted(result.details.items()):
        entries = value.items() if isinstance(value, dict) else [(key, value)]
        for name, entry in entries:
            print(f"  {name}: {entry}")
    return EXIT_OK if result.passed else EXIT_BOUND_VIOLATION


def cmd_export_env(args: argparse.Namespace) -> int:
    _, _, env_spec = _load(args)
    out_base = Path(args.out_dir) / (args.name or env_spec.kind)
    try:
        written = environments.export_environment(env_spec, out_base, args.format)
    except ValueError as exc:
        raise ConfigError(f"export: {exc}") from exc
    for key, path in sorted(written.items()):
        print(f"{key}: {path}")
    return EXIT_OK


# ----------------------------------------------------------------------------
# entry point


LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packhedge",
        description="Expert-advice games at scale: run, sweep, validate, export.",
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="INFO",
        help=(
            "least severe log message shown (default: INFO); "
            "an existing logging setup is left as it is"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")

    p_run = sub.add_parser("run", help="run one seeded game")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a seed/accuracy/parameter grid")
    common(p_sweep)
    p_sweep.add_argument("--parallelism", type=int, default=1, help="worker pool width")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run a named bound-validation suite")
    p_val.add_argument("suite", help=f"one of {sorted(validation.SUITES)}")
    p_val.add_argument("--seed", type=int, default=None, help="master seed")
    p_val.set_defaults(func=cmd_validate)

    p_exp = sub.add_parser("export-env", help="write an environment's matrix and sidecar")
    common(p_exp)
    p_exp.add_argument("--format", choices=matrix_io.FORMATS, default="csv")
    p_exp.add_argument("--name", default=None, help="output base name (default: kind)")
    p_exp.set_defaults(func=cmd_export_env)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
