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

from . import __version__, analysis, environments, hedge, many_experts, meta_tuner, validation
from .core import GameConfig, GameTrajectory

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
    raw = Path(path).read_text()
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
        node[keys[-1]] = yaml.safe_load(raw_value)


def build_game_config(cfg: dict[str, Any], seed_override: int | None) -> GameConfig:
    game = cfg.get("game")
    if not isinstance(game, dict):
        raise ConfigError("game: section missing")
    for required in ("algorithm", "T"):
        if required not in game:
            raise ConfigError(f"game.{required}: required and missing")
    seed = seed_override if seed_override is not None else game.get("seed")
    if seed is None:
        raise ConfigError("game.seed: required (set it in the config or pass --seed)")
    try:
        return GameConfig(
            T=int(game["T"]),
            epsilon=float(game.get("epsilon", 1.0)),
            seed=int(seed),
            algorithm=str(game["algorithm"]),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"game: {exc}") from exc


def build_env_spec(cfg: dict[str, Any], game: GameConfig) -> environments.EnvironmentSpec:
    env = cfg.get("environment")
    if not isinstance(env, dict):
        raise ConfigError("environment: section missing")
    if "kind" not in env:
        raise ConfigError("environment.kind: required and missing")
    parameters = {k: v for k, v in env.items() if k != "kind"}
    parameters.setdefault("T", game.T)
    if env["kind"] != "finite_matrix":
        parameters.setdefault("seed", game.seed)
    try:
        return environments.EnvironmentSpec(str(env["kind"]), parameters)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
    """
    bits = values.view(np.int64)
    # A sort and a binary search: np.unique's return_inverse would argsort the
    # block, which costs more than the rest of this function.
    ordered = np.sort(bits)
    keys = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
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
    env_spec: environments.EnvironmentSpec,
) -> dict[str, Any]:
    ledger = analysis.empirical_regret(trajectory, oracle)
    num_experts = oracle.num_experts()
    extras = trajectory.extras
    if game.algorithm == "many_experts":
        final_packing: int | None = extras["final_packing"]
        phases: int | None = extras["num_phases"]
    elif game.algorithm == "hedge":
        final_packing, phases = num_experts, 1
    else:
        final_packing, phases = None, None
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
    if game.algorithm == "meta_tuner":
        copies = []
        for level, copy_traj in enumerate(extras["copies"], start=1):
            copy_ledger = analysis.empirical_regret(copy_traj, oracle)
            copies.append(
                {
                    "level": level,
                    "epsilon": copy_traj.extras["epsilon"],
                    "cumulative_loss": copy_traj.learner_cumulative,
                    "regret": copy_ledger.regret,
                    "final_packing": copy_traj.extras["final_packing"],
                    "phases": copy_traj.extras["num_phases"],
                }
            )
        summary["copies"] = copies
    return summary


#: Schedule-pass counts that add up over the copies of a meta game.
SCHEDULE_COUNTS = ("blocks", "recertifications", "exact_queries", "admitting_rounds")


def schedule_metrics(trajectory: GameTrajectory) -> dict[str, Any]:
    """The ``metrics`` of a manifest: schedule-pass counts, summed over meta copies.

    ``saturation_round`` is the latest round at which a copy's active set
    became as large as its candidate set, or ``None`` if one never did.
    Plain hedge has no schedule pass and no metrics.
    """
    copies = trajectory.extras.get("copies", [trajectory])
    counts = [copy.extras["schedule"] for copy in copies if "schedule" in copy.extras]
    if not counts:
        return {}
    schedule: dict[str, Any] = {key: sum(c[key] for c in counts) for key in SCHEDULE_COUNTS}
    rounds = [c["saturation_round"] for c in counts]
    schedule["saturation_round"] = None if None in rounds else max(rounds)
    return {"schedule": schedule}


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

    cfg = load_config(args.config)
    apply_overrides(cfg, args.set or [])
    game = build_game_config(cfg, args.seed)
    env_spec = build_env_spec(cfg, game)
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

    manifest = {
        "config": {
            "game": {
                "algorithm": game.algorithm,
                "T": game.T,
                "epsilon": game.epsilon,
                "seed": game.seed,
            },
            "environment": env_spec.as_dict(),
        },
        "outputs": {"trajectory": str(trajectory_path), "summary": str(summary_path)},
        "code_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{platform.system()} {platform.machine()}",
        "metrics": schedule_metrics(trajectory),
        "timings": timings,
        "wall_time": time.perf_counter() - started,
    }
    print(_write_json(out_dir / "manifest.json", manifest), end="")
    return EXIT_OK


def _build_oracle(env_spec: environments.EnvironmentSpec, horizon: int | None = None):
    try:
        oracle = environments.make_environment(env_spec)
    except ValueError as exc:
        raise ConfigError(f"environment: {exc}") from exc
    if horizon is not None and oracle.horizon() != horizon:
        raise ConfigError(
            f"environment.T: horizon {oracle.horizon()} must equal game.T {horizon}"
        )
    return oracle


def _sweep_cell_run(payload: dict[str, Any]) -> dict[str, Any]:
    """One seeded run of a sweep cell (worker-pool entry point)."""
    try:
        game = GameConfig(
            T=payload["T"],
            epsilon=payload["epsilon"],
            seed=payload["seed"],
            algorithm=payload["algorithm"],
        )
        spec = environments.EnvironmentSpec(
            payload["env_kind"], dict(payload["env_parameters"])
        )
        oracle = _build_oracle(spec, game.T)
        trajectory = _play(game, oracle)
        ledger = analysis.empirical_regret(trajectory, oracle)
        extras = trajectory.extras
        return {
            "regret": ledger.regret,
            "final_packing": extras.get("final_packing"),
            "phases": extras.get("num_phases"),
            "error": None,
        }
    except Exception as exc:  # per-cell failures are recorded, not fatal
        return {"regret": None, "final_packing": None, "phases": None, "error": str(exc)}


def _run_jobs(jobs: list[dict[str, Any]], parallelism: int):
    """Yield ``(index, result)`` of every sweep job as it finishes."""
    if parallelism > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=parallelism) as pool:
            futures = {pool.submit(_sweep_cell_run, job): i for i, job in enumerate(jobs)}
            for future in concurrent.futures.as_completed(futures):
                yield futures[future], future.result()
    else:
        for index, job in enumerate(jobs):
            yield index, _sweep_cell_run(job)


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


def _is_number(value: Any) -> bool:
    """True for an int or float from a config; YAML booleans are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise ConfigError("--seed: required in sweep mode")
    cfg = load_config(args.config)
    apply_overrides(cfg, args.set or [])
    game = build_game_config(cfg, args.seed)
    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict):
        raise ConfigError("sweep: section missing")
    n_seeds = sweep.get("n_seeds", 1)
    if not _is_number(n_seeds) or n_seeds % 1 != 0 or n_seeds < 1:
        raise ConfigError(f"sweep.n_seeds: must be a whole number >= 1, not {n_seeds!r}")
    n_seeds = int(n_seeds)
    epsilons = sweep.get("epsilons", [game.epsilon])
    if not isinstance(epsilons, list) or not epsilons:
        raise ConfigError("sweep.epsilons: must be a non-empty list")
    for epsilon in epsilons:
        if not _is_number(epsilon):
            raise ConfigError(f"sweep.epsilons: every entry must be a number, not {epsilon!r}")
    include_meta = sweep.get("include_meta", True)
    if not isinstance(include_meta, bool):
        raise ConfigError(f"sweep.include_meta: must be true or false, not {include_meta!r}")

    env_grid: dict[str, list[Any]] = {}
    for key, values in (sweep.get("environment") or {}).items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.environment.{key}: must be a non-empty list")
        env_grid[key] = values
    grid_keys = sorted(env_grid)
    combos = list(itertools.product(*(env_grid[k] for k in grid_keys))) or [()]

    base_spec = build_env_spec(cfg, game)

    def cell_payloads(combo, epsilon, algorithm, seed):
        parameters = dict(base_spec.parameters)
        parameters.update(dict(zip(grid_keys, combo)))
        parameters["seed"] = seed
        return {
            "algorithm": algorithm,
            "T": game.T,
            "epsilon": epsilon,
            "seed": seed,
            "env_kind": base_spec.kind,
            "env_parameters": parameters,
        }

    cells: list[tuple[dict[str, Any], list[dict[str, Any]]]] = []
    jobs: list[dict[str, Any]] = []
    for combo in combos:
        for epsilon in epsilons:
            label = {
                "algorithm": game.algorithm,
                "epsilon": epsilon,
                **dict(zip(grid_keys, combo)),
            }
            payloads = [
                cell_payloads(combo, float(epsilon), game.algorithm, game.seed + s)
                for s in range(n_seeds)
            ]
            cells.append((label, payloads))
            jobs.extend(payloads)
        if include_meta and game.algorithm != "meta_tuner":
            label = {"algorithm": "meta_tuner", "epsilon": "", **dict(zip(grid_keys, combo))}
            payloads = [
                cell_payloads(combo, 1.0, "meta_tuner", game.seed + s) for s in range(n_seeds)
            ]
            cells.append((label, payloads))
            jobs.extend(payloads)

    # Progress is logged per cell as its seeds finish; sweep.csv keeps cell order.
    names = [", ".join(f"{k}={v}" for k, v in label.items()) for label, _ in cells]
    cell_of_job = [c for c, (_, payloads) in enumerate(cells) for _ in payloads]
    pending = [len(payloads) for _, payloads in cells]
    failures = [0] * len(cells)
    results: list[dict[str, Any] | None] = [None] * len(jobs)
    for index, result in _run_jobs(jobs, args.parallelism):
        results[index] = result
        c = cell_of_job[index]
        if result["error"] is not None:
            failures[c] += 1
            if failures[c] == 1:
                logger.warning(
                    "sweep cell %d/%d (%s) failed: %s", c + 1, len(cells), names[c], result["error"]
                )
        pending[c] -= 1
        if pending[c] == 0:
            logger.info(
                "sweep cell %d/%d (%s) finished: %d of %d seeds failed",
                c + 1, len(cells), names[c], failures[c], len(cells[c][1]),
            )

    rows: list[dict[str, Any]] = []
    any_failure = False
    position = 0
    for label, payloads in cells:
        cell_results = results[position : position + len(payloads)]
        position += len(payloads)
        aggregate = _aggregate(cell_results)
        any_failure = any_failure or aggregate["n_failures"] > 0
        rows.append(label | aggregate)

    # Best accuracy in hindsight per environment combo, for the meta comparison.
    best_rows: list[dict[str, Any]] = []
    for combo in combos:
        combo_key = dict(zip(grid_keys, combo))
        candidates = [
            row
            for row in rows
            if row["algorithm"] == game.algorithm
            and all(row[k] == v for k, v in combo_key.items())
            and row.get("mean_regret") is not None
        ]
        if candidates:
            best = min(candidates, key=lambda row: row["mean_regret"])
            best_rows.append({**best, "algorithm": "best_epsilon"})
    rows.extend(best_rows)

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
    return EXIT_BOUND_VIOLATION if any_failure else EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise ConfigError("--seed: required in validate mode")
    if args.suite not in validation.SUITES:
        raise ConfigError(
            f"suite: unknown suite {args.suite!r}; choose from {sorted(validation.SUITES)}"
        )
    result = validation.run_suite(args.suite, seed=args.seed)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.suite}: {result.summary}")
    for key, value in sorted(result.details.items()):
        if key in ("mean_by_env", "per_env"):
            for env_name, stats in value.items():
                print(f"  {env_name}: {stats}")
        else:
            print(f"  {key}: {value}")
    return EXIT_OK if result.passed else EXIT_BOUND_VIOLATION


def cmd_export_env(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    apply_overrides(cfg, args.set or [])
    game = build_game_config(cfg, args.seed)
    env_spec = build_env_spec(cfg, game)
    oracle = _build_oracle(env_spec)
    out_base = Path(args.out_dir) / (args.name or env_spec.kind)
    try:
        written = environments.export_environment(oracle, out_base, args.format)
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
    p_exp.add_argument("--format", choices=("csv", "binary"), default="csv")
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
