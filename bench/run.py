"""packhedge benchmark: a closed loop of ``packhedge run`` games on one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client plays one game at a time through ``cli.main(["run", ...])`` in
this process; game ``i`` uses seed ``N + i``.  Every game's outputs are
checked after the timed window, and the default-seed game of the workload
is replayed and compared with the digest in ``bench/digests.json``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer split with ``--trace 1``.  The full result,
with the machine description, is written to ``.bench_out/<workload>/``.

``--workload all`` runs every workload, each in a fresh process, and exits
with 1 if any of them crashed or is not correct.
``--write-digests`` records the default-seed digests of every workload.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS / OpenMP pools are pinned to one thread before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"

if not (SRC / "packhedge" / "__init__.py").is_file():
    sys.exit(f"benchmark: no packhedge sources under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(BENCH_DIR))

import numpy as np
import yaml

import packhedge
from packhedge import cli, matrix_io
from packhedge.core import GameTrajectory

import tracing

if Path(packhedge.__file__).resolve().parent != SRC / "packhedge":
    sys.exit(f"benchmark: imported packhedge from {packhedge.__file__}, not from {SRC}")

DEFAULT_SEED = 0
SETUP_PROBES = 15
WARMUP_T = 64
CALIBRATION_SEED = 12345
CALIBRATION_REPEATS = 3
#: Fastest time of each calibration kernel on the recording machine (see README.md).
CALIBRATION_REF_S = {"loop": 0.0070, "gap": 0.0115}
#: A fresh interpreter that imports what packhedge imports, timed around each
#: set-up probe, and its fastest time on the recording machine.
REFERENCE_PROCESS = ("-c", "import numpy, yaml")
REFERENCE_PROCESS_S = 0.13
TRAJECTORY_HEADER = "t,phase,packing_size,chosen_expert,loss,cumulative_loss"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    algorithm: str
    T: int
    K: int
    environment: dict[str, Any]
    epsilon: float | None = None
    #: Calibration kernels timed around each game, those whose speed tracks the
    #: game's: "loop" for the round loop, plus "gap" where coverage dominates.
    calibration: tuple[str, ...] = ("loop",)

    def config(self, horizon: int, matrix: Path | None) -> dict[str, Any]:
        game: dict[str, Any] = {"algorithm": self.algorithm, "T": horizon}
        if self.epsilon is not None:
            game["epsilon"] = self.epsilon
        environment = dict(self.environment)
        if environment["kind"] == "finite_matrix":
            environment.update(path=str(matrix), format="binary")
        else:
            environment["K"] = self.K
        return {"game": game, "environment": environment}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hedge_dense",
            "per-round hedge loop, binary matrix ingest and CSV writing; never queries coverage",
            "hedge",
            T=10_000,
            K=100,
            environment={"kind": "finite_matrix"},
        ),
        Workload(
            "packing_clustered",
            "README config: many rounds, tiny packing, K=1e5 ids; loop and per-query overhead",
            "many_experts",
            T=5000,
            K=100_000,
            environment={"kind": "clustered_binary", "N": 8},
            epsilon=0.5,
        ),
        Workload(
            "packing_lowrank",
            "large packing (K_p~295) on a dense low-rank matrix; coverage queries dominate",
            "many_experts",
            T=1024,
            K=500,
            environment={"kind": "low_rank", "d": 2, "epsilon_noise": 0.05},
            epsilon=2.0**-7,
            calibration=("loop", "gap"),
        ),
        Workload(
            "meta_lowrank",
            "accuracy-grid meta-tuner (9 packing copies) on a low-rank matrix; the meta layer",
            "meta_tuner",
            T=512,
            K=200,
            environment={"kind": "low_rank", "d": 2, "epsilon_noise": 0.05},
            calibration=("loop", "gap"),
        ),
    )
}


# ----------------------------------------------------------------------------
# inputs and games


def prepare(workload: Workload, directory: Path, seed: int, horizon: int) -> Path:
    """Write the workload's input files for ``seed``; return the config path."""
    directory.mkdir(parents=True, exist_ok=True)
    matrix = None
    if workload.environment["kind"] == "finite_matrix":
        matrix = directory / "losses.bin"
        losses = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(horizon, workload.K))
        matrix_io.write_matrix_binary(matrix, losses)
    config = directory / "config.yaml"
    config.write_text(yaml.safe_dump(workload.config(horizon, matrix)))
    return config


def play(config: Path, seed: int, out_dir: Path, tracer: tracing.Tracer | None = None):
    """One ``packhedge run`` game; returns (wall seconds, error or None)."""
    argv = ["run", "--config", str(config), "--seed", str(seed), "--out-dir", str(out_dir)]
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv) if tracer is None else tracer.call_root(cli.main, argv)
        error = None if code == 0 else f"packhedge run exited with {code}"
    except Exception:  # a failed game is counted, and the loop goes on
        error = traceback.format_exc()
    return time.perf_counter() - start, error


def set_up(workload: Workload, directory: Path, seed: int) -> Path:
    """Write the inputs and play one short warm-up game; return the game config."""
    config = prepare(workload, directory / "inputs", seed, workload.T)
    warmup = prepare(workload, directory / "warmup", seed, WARMUP_T)
    _, error = play(warmup, seed, directory / "warmup" / "out")
    if error is not None:
        raise RuntimeError(f"warm-up game failed: {error}")
    return config


# ----------------------------------------------------------------------------
# output checks


def check_game(workload: Workload, out_dir: Path, seed: int) -> str | None:
    """Check one game's written outputs; return a description of the first defect."""
    try:
        return _first_defect(workload, out_dir, seed)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _first_defect(workload: Workload, out_dir: Path, seed: int) -> str | None:
    csv_path = out_dir / "trajectory.csv"
    with open(csv_path) as fh:
        header = fh.readline().strip()
    if header != TRAJECTORY_HEADER:
        return f"trajectory header {header!r}"
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    t, phase, packing, chosen, loss, cumulative = table.T
    trajectory = GameTrajectory(
        t=t.astype(np.int64),
        chosen=chosen.astype(np.int64),
        incurred=loss,
        cumulative=cumulative,
        packing_size=packing.astype(np.int64),
        phase=phase.astype(np.int64),
        seed=seed,
    )
    trajectory.validate()
    summary = json.loads((out_dir / "summary.json").read_text())
    json.loads((out_dir / "manifest.json").read_text())

    T = workload.T
    if not np.array_equal(trajectory.t, np.arange(1, T + 1)):
        return "rounds are not 1..T"
    if (summary["T"], summary["K"], summary["seed"]) != (T, workload.K, seed):
        return f"summary T/K/seed {summary['T']}/{summary['K']}/{summary['seed']}"
    if not (np.all(trajectory.chosen >= 0) and np.all(trajectory.chosen < workload.K)):
        return "chosen expert out of range"
    if np.abs(loss).max() > 1.0:
        return "incurred loss outside [-1, 1]"
    if trajectory.phase[0] < 1 or np.any(np.diff(trajectory.phase) < 0):
        return "phase index not positive and non-decreasing"
    if not np.allclose(np.cumsum(loss), cumulative, rtol=0.0, atol=1e-9 * T):
        return "cumulative loss is not the running sum of incurred losses"
    if not math.isfinite(summary["regret"]):
        return "regret is not finite"
    if workload.algorithm == "hedge" and not np.all(trajectory.packing_size == workload.K):
        return "hedge active set is not every expert"
    if workload.algorithm == "many_experts" and (
        summary["K_p"] != trajectory.packing_size[-1] or summary["p"] != trajectory.phase[-1]
    ):
        return "summary K_p/p disagree with the trajectory"
    if workload.algorithm == "meta_tuner" and len(summary["copies"]) != (T - 1).bit_length():
        return f"meta-tuner ran {len(summary['copies'])} copies"
    return None


def digest(out_dir: Path) -> str:
    """sha256 of trajectory.csv plus summary.json with the input path normalised."""
    summary = json.loads((out_dir / "summary.json").read_text())
    parameters = summary["environment"]["parameters"]
    if "path" in parameters:
        parameters["path"] = "<matrix>"
    h = hashlib.sha256((out_dir / "trajectory.csv").read_bytes())
    h.update((json.dumps(summary, indent=2, sort_keys=True) + "\n").encode())
    return h.hexdigest()


def reference_game(workload: Workload, directory: Path) -> tuple[str | None, str | None]:
    """Play and check the default-seed game; return (error, output digest)."""
    config = prepare(workload, directory, DEFAULT_SEED, workload.T)
    _, error = play(config, DEFAULT_SEED, directory / "out")
    if error is None:
        error = check_game(workload, directory / "out", DEFAULT_SEED)
    return error, None if error else digest(directory / "out")


# ----------------------------------------------------------------------------
# machine description


def machine() -> dict[str, Any]:
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "packhedge").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# ----------------------------------------------------------------------------
# runs


def _loop_kernel(rng: np.random.Generator) -> None:
    """Small-vector numpy calls driven from Python (weights, cumulative sums,
    sampling), shaped like a game's rounds, plus a small gap query every few
    rounds."""
    block = rng.uniform(-1.0, 1.0, size=(64, 256))
    log_weights = np.zeros(256)
    for t in range(1, 801):
        row = block[t % 64]
        weights = np.exp(log_weights - log_weights.max())
        cumulative = weights.cumsum()
        cumulative.searchsorted(rng.random() * cumulative[-1])
        log_weights -= math.sqrt(8.0 / t) * row
        if t % 16 == 0:
            np.abs(row[:, None] - row[None, :48]).min(axis=1).argmax()


def _gap_kernel(rng: np.random.Generator) -> None:
    """Broadcast gap queries shaped like ``packing_lowrank``'s coverage query:
    K=500 losses against about 300 admitted experts."""
    rows = rng.uniform(-1.0, 1.0, size=(8, 500))
    admitted = np.sort(rng.choice(500, size=300, replace=False))
    for q in range(40):
        row = rows[q % 8]
        gap = np.abs(row[:, None] - row[admitted][None, :]).min(axis=1)
        int(np.argmax(gap > 0.01))


KERNELS = {"loop": _loop_kernel, "gap": _gap_kernel}


def slowdown(kernels: tuple[str, ...]) -> float:
    """How many times slower than on the recording machine ``kernels`` run now.

    The kernels use numpy alone, so no change to packhedge can change their
    time; only the speed of the machine can.  Each kernel is timed
    CALIBRATION_REPEATS times and the fastest counts, so that one preemption
    does not skew the scale; the slowdowns of several kernels are averaged
    geometrically.
    """
    log_sum = 0.0
    for kernel in kernels:
        fastest = math.inf
        for _ in range(CALIBRATION_REPEATS):
            rng = np.random.Generator(np.random.PCG64(CALIBRATION_SEED))
            start = time.perf_counter()
            KERNELS[kernel](rng)
            fastest = min(fastest, time.perf_counter() - start)
        log_sum += math.log(fastest / CALIBRATION_REF_S[kernel])
    return math.exp(log_sum / len(kernels))


def process_slowdown() -> float:
    """How many times slower than on the recording machine a process starts now."""
    start = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    subprocess.run([sys.executable, *REFERENCE_PROCESS], check=True)
    return (time.perf_counter() - start) / REFERENCE_PROCESS_S


def normalised(wall: float, before: float, after: float) -> float:
    """Wall time rescaled to the recording machine's speed measured around it."""
    return wall / (0.5 * (before + after))


def measure_setup(workload: Workload, seed: int, directory: Path) -> list[dict[str, float]]:
    """Time fresh processes that import, write inputs and warm up, then exit."""
    samples = []
    # Set-up is mostly process start and imports, which no numpy kernel tracks.
    before = process_slowdown()
    for k in range(SETUP_PROBES):
        probe = directory / f"probe{k}"
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
                "--seed", str(seed), "--setup-probe", str(probe)]
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - start
        after = process_slowdown()
        samples.append({"wall": wall, "normalised": normalised(wall, before, after)})
        before = after
        shutil.rmtree(probe)
    return samples


def closed_loop(config: Path, seed: int, seconds: float, games_dir: Path,
                tracer: tracing.Tracer | None, kernels: tuple[str, ...]) -> dict[str, Any]:
    """Play games back to back until ``seconds`` have passed.

    Untraced, each seed is played once.  Traced, each seed is played twice,
    once untraced and once traced, alternating which goes first.
    """
    games: list[dict[str, Any]] = []
    layers: list[dict[str, float]] = []
    start = time.perf_counter()
    before = slowdown(kernels)
    i = 0
    while True:
        modes = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
        for traced in modes:
            out_dir = games_dir / f"{i:05d}{'-traced' if traced else ''}"
            if traced:
                tracer.install()
                try:
                    wall, error = play(config, seed + i, out_dir, tracer)
                finally:
                    tracer.uninstall()
                layers.append(tracer.finish_game(i))
            else:
                wall, error = play(config, seed + i, out_dir)
            after = slowdown(kernels)
            games.append({"index": i, "seed": seed + i, "traced": traced, "wall": wall,
                          "normalised": normalised(wall, before, after),
                          "slowdown": [before, after], "error": error, "out_dir": out_dir})
            before = after
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"games": games, "layers": layers}


def end_to_end_metrics(loop: dict[str, Any], setup: list[dict[str, float]],
                       peak_rss_mb: float):
    done = [g for g in loop["games"] if g["error"] is None]
    times = [g["normalised"] for g in done]
    walls = [g["wall"] for g in done]
    setup_times = [probe["normalised"] for probe in setup]
    metrics = {
        "games_per_s": (len(times) / sum(times) if times else 0.0, "games/s"),
        "game_s.p50": (statistics.median(times) if times else 0.0, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "games_per_s": f"{len(times)} games; wall: {len(walls) / sum(walls):.4g} games/s"
        if walls else "no completed game",
        "game_s.p50": f"n={len(times)}; wall: {statistics.median(walls):.4g} s" if walls else "",
        "setup_s": f"median of {len(setup)} fresh processes; wall: "
        f"{statistics.median(probe['wall'] for probe in setup):.4g} s",
    }
    extra = {}
    # A percentile is reported only with at least ten samples beyond it.
    if len(times) >= 100:
        extra["game_s.p90"] = (float(np.percentile(times, 90)), "s")
    return metrics, notes, extra


def layer_metrics(loop: dict[str, Any]):
    """Per-layer split: the mean over traced games of self times and counts."""
    layers = loop["layers"]

    def mean(key: str) -> float:
        return float(np.mean([g[key] for g in layers]))

    traced = [g["wall"] for g in loop["games"] if g["traced"] and g["error"] is None]
    untraced = [g["wall"] for g in loop["games"] if not g["traced"] and g["error"] is None]
    traced_p50 = statistics.median(traced) if traced else math.nan
    untraced_p50 = statistics.median(untraced) if untraced else math.nan
    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    self_times = {name: mean(f"{name}_s") for name in tracing.SPAN_NAMES}
    game_total = sum(self_times.values())
    for name, seconds in self_times.items():
        metrics[f"{name}_s"] = (seconds, "s")
        notes[f"{name}_s"] = f"{100.0 * seconds / game_total:.1f}% of the traced game"
    for name in ("environments.coverage", "core.sampling", "environments.rows"):
        metrics[f"{name}.calls"] = (mean(f"{name}.calls"), "count")
    calls = sum(g["environments.coverage.calls"] for g in layers)
    hits = sum(g["environments.coverage.hits"] for g in layers)
    metrics["environments.coverage.hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    for name in ("many_experts.admissions", "many_experts.phases",
                 "many_experts.final_packing", "meta_tuner.copies"):
        metrics[name] = (mean(name), "count")
    metrics["matrix_io.read_bytes"] = (mean("matrix_io.read_bytes"), "B")
    metrics["cli.output_bytes"] = (mean("cli.output_bytes"), "B")
    metrics["trace.game_s.p50"] = (traced_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    metrics["trace.spans"] = (mean("spans"), "count")
    notes["trace.game_s.p50"] = f"n={len(traced)}"
    notes["trace.overhead_s"] = (f"{100.0 * (traced_p50 / untraced_p50 - 1.0):.1f}% over "
                                 f"untraced p50 {untraced_p50:.4g} s (n={len(untraced)})")
    return metrics, notes


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    work = OUT / workload.name / "work"
    shutil.rmtree(work, ignore_errors=True)
    setup = [] if trace else measure_setup(workload, seed, work / "setup")
    config = set_up(workload, work / "run", seed)

    tracer = tracing.Tracer(packhedge) if trace else None
    loop = closed_loop(config, seed, seconds, work / "games", tracer, workload.calibration)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors: list[str] = []
    for game in loop["games"]:
        if game["error"] is None:
            game["error"] = check_game(workload, game["out_dir"], game["seed"])
    if trace:
        # Tracing must not change a single output byte.
        by_index: dict[int, dict[bool, str]] = {}
        for game in loop["games"]:
            if game["error"] is None:
                by_index.setdefault(game["index"], {})[game["traced"]] = digest(game["out_dir"])
        for index, pair in sorted(by_index.items()):
            if len(pair) == 2 and pair[True] != pair[False]:
                errors.append(f"game {index}: traced outputs differ from untraced outputs")
        tracer.write(OUT / workload.name / "spans.npz")
    shutil.rmtree(work / "games")

    ref_error, ref_digest = reference_game(workload, work / "reference")
    expected = json.loads(DIGESTS.read_text()).get(workload.name) if DIGESTS.exists() else None
    if ref_error is None and ref_digest != expected:
        ref_error = f"default-seed digest {ref_digest} != recorded {expected}"
    reference = {"seed": DEFAULT_SEED, "digest": ref_digest, "error": ref_error}

    attempted = len(loop["games"]) + 1
    failed = sum(g["error"] is not None for g in loop["games"]) + (ref_error is not None)
    for game in loop["games"]:
        if game["error"] is not None:
            errors.append(f"game seed {game['seed']}: {game['error']}")
    if ref_error is not None:
        errors.append(f"reference game: {ref_error}")

    if trace:
        (metrics, notes), extra = layer_metrics(loop), {}
    else:
        metrics, notes, extra = end_to_end_metrics(loop, setup, peak_rss_mb)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "correct": not errors,
        "errors": errors,
        "reference": reference,
        # A boundary the package no longer has reads as zero; its time counts
        # as self time of the layer that called it.
        "missing_boundaries": tracer.missing if trace else [],
        "metrics": metrics,
        "notes": notes,
        "extra": extra,
        "setup_samples": setup,
        "games": [{k: v for k, v in g.items() if k != "out_dir"} for g in loop["games"]],
    }


def report(result: dict[str, Any]) -> None:
    m = result["machine"]
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}  "
          f"trace {int(result['trace'])}")
    print(f"machine: python {m['python']}, numpy {m['numpy']}, {m['platform']}, "
          f"nproc {m['nproc']}, cpu {m['cpu_model']}, commit {m['git_commit']}, "
          f"threads pinned to 1 ({', '.join(THREAD_VARS)})")
    if result["missing_boundaries"]:
        print(f"untraced (not in the package): {', '.join(result['missing_boundaries'])}")
    for error in result["errors"]:
        print(f"FAILED {error}", file=sys.stderr)
    for name, (value, unit) in {**result["metrics"], **result["extra"]}.items():
        print(f"  {name:34s} {value:14.6g} {unit:8s} {result['notes'].get(name, '')}")
    print(f"  {'failed_frac':34s} {result['failed_frac']:14.6g} {'ratio':8s} "
          f"{result['failed']}/{result['attempted']} games failed")


def write_digests() -> None:
    digests = {}
    for workload in WORKLOADS.values():
        error, value = reference_game(workload, OUT / "digests" / workload.name)
        if error is not None:
            raise RuntimeError(f"{workload.name}: reference game failed: {error}")
        digests[workload.name] = value
        print(f"{workload.name}: {value}")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(OUT / "digests")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh process; their reports pass through.

    Returns 1 if a workload crashed or its last line says it is not correct.
    """
    ok = True
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        ok &= proc.returncode == 0 and json.loads(proc.stdout.splitlines()[-1])["correct"]
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record the default-seed digest of every workload")
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.write_digests:
        write_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    if args.setup_probe is not None:
        set_up(workload, args.setup_probe, args.seed)
        return 0

    result = run(workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    path = OUT / workload.name / f"result-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, default=str) + "\n")
    # The gate is the "correct" key of this line; the exit status is 0 whenever it is printed.
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
