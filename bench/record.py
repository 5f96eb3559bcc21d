"""Repeat the benchmark over several seeds and record medians and quartiles.

    python3 bench/record.py

Runs ``bench/run.py`` untraced for seeds 1-10 and traced for seeds 1-2 on
every workload of ``BENCHMARK.json``, one run at a time, for the
``run_seconds`` fixed there.  For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
their spread ``(q3 - q1) / median`` next to the metric's regression bound,
and for the traced runs the median of every per-layer metric.  The summary
goes to ``bench/baseline.json`` together with the machine description of the first run.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = list(range(1, 11))
TRACE_SEEDS = SEEDS[:2]
BASELINE = BENCH_DIR / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    detail_wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(
        (ROOT / ".bench_out" / workload / f"result-seed{seed}-trace{trace}.json").read_text()
    )
    detail["process_wall_s"] = detail_wall
    return line, detail


def summarise(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record: dict = {"run_seconds": seconds, "seeds": SEEDS, "trace_seeds": TRACE_SEEDS,
                    "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        samples: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in SEEDS:
            line, detail = run_once(workload, seed, seconds, 0)
            record.setdefault("machine", detail["machine"])
            attempted += line["attempted"]
            failed += line["failed"]
            ok &= line["correct"]
            for name, metric in line["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} ({detail['process_wall_s']:.1f} s): " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in line["metrics"].items()), flush=True)
        end_to_end = {name: summarise(values) for name, values in samples.items()}
        layers: dict[str, list[float]] = {}
        for seed in TRACE_SEEDS:
            line, _ = run_once(workload, seed, seconds, 1)
            ok &= line["correct"]
            for name, metric in line["metrics"].items():
                layers.setdefault(name, []).append(metric["value"])
        record["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": {name: statistics.median(v) for name, v in layers.items()},
        }
        for name, stats in end_to_end.items():
            flag = "" if stats["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:18s} {name:12s} median {stats['median']:.5g}  "
                  f"q1 {stats['q1']:.5g}  q3 {stats['q3']:.5g}  spread {stats['spread']:.4f}  "
                  f"bound {bounds[name]}{flag}", flush=True)
    BASELINE.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {BASELINE}; all runs correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
