"""Span tracing of packhedge's layers from outside the package.

For a traced game the benchmark replaces the public functions of each layer
(module attributes, and oracle / recorder methods on their classes) with
wrappers that record one span per call: name, start, end and the span that
was open when the call began.  Nothing under ``src/`` is edited; the
originals are put back after every traced game and :func:`Tracer.uninstall`
checks that they are.

Self time of a span is its duration minus the durations of its direct
children, so the self times of one game add up to its root span.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Any, Callable

import numpy as np

#: Layer boundaries: (span name, owner path, attribute).  A function imported
#: by name into several modules is listed once per module that calls it.
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("cli.run", "cli", "cmd_run"),
    ("cli.write_trajectory", "cli", "write_trajectory_csv"),
    ("cli.summary", "cli", "build_summary"),
    ("environments.generate", "environments", "make_environment"),
    ("environments.rows", "environments.MatrixOracle", "losses"),
    ("environments.rows", "environments.ClusteredBinaryOracle", "losses"),
    ("environments.coverage", "environments.MatrixOracle", "uncovered_expert"),
    ("environments.coverage", "environments.ClusteredBinaryOracle", "uncovered_expert"),
    ("matrix_io.read", "matrix_io", "load_matrix"),
    ("core.sampling", "hedge", "sample_categorical"),
    ("core.sampling", "many_experts", "sample_categorical"),
    ("core.sampling", "meta_tuner", "sample_categorical"),
    ("core.recording", "core.TrajectoryRecorder", "add"),
    ("core.recording", "core.TrajectoryRecorder", "finish"),
    ("hedge.play", "hedge", "play_hedge"),
    ("hedge.update", "hedge", "update"),
    ("hedge.distribution", "hedge", "distribution"),
    ("many_experts.play", "many_experts", "play_many_experts"),
    ("many_experts.expand", "many_experts", "expand_packing"),
    ("many_experts.restart", "many_experts", "restart"),
    ("meta_tuner.play", "meta_tuner", "play_meta"),
    ("analysis.regret", "analysis", "empirical_regret"),
)

#: Root span the benchmark opens around each traced ``cli.main`` call.
ROOT = "cli.main"

SPAN_NAMES = (ROOT, *sorted({name for name, _, _ in BOUNDARIES}))


def _count_coverage(counts: dict[str, float], args: tuple, result: Any) -> None:
    if result is not None:
        counts["environments.coverage.hits"] += 1


def _count_admissions(counts: dict[str, float], args: tuple, result: Any) -> None:
    counts["many_experts.admissions"] += len(result[1])


def _count_read(counts: dict[str, float], args: tuple, result: Any) -> None:
    counts["matrix_io.read_bytes"] += os.path.getsize(args[0])


def _count_outputs(counts: dict[str, float], args: tuple, result: Any) -> None:
    out_dir = args[0].out_dir
    for name in ("trajectory.csv", "summary.json", "manifest.json"):
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            counts["cli.output_bytes"] += os.path.getsize(path)


def _count_packing(counts: dict[str, float], args: tuple, result: Any) -> None:
    counts["many_experts.phases"] += result.extras.get("num_phases", 0)
    counts["many_experts.final_packing"] += result.extras.get("final_packing", 0)


def _count_meta(counts: dict[str, float], args: tuple, result: Any) -> None:
    counts["meta_tuner.copies"] += result.extras.get("num_copies", 0)
    for copy in result.extras.get("copies", ()):
        _count_packing(counts, args, copy)


#: Counters read from a call's arguments or result when its span closes.
COUNTERS: dict[str, Callable[[dict[str, float], tuple, Any], None]] = {
    "environments.coverage": _count_coverage,
    "many_experts.expand": _count_admissions,
    "matrix_io.read": _count_read,
    "cli.run": _count_outputs,
    "many_experts.play": _count_packing,
    "meta_tuner.play": _count_meta,
}

COUNT_NAMES = (
    "environments.coverage.hits",
    "many_experts.admissions",
    "many_experts.phases",
    "many_experts.final_packing",
    "meta_tuner.copies",
    "matrix_io.read_bytes",
    "cli.output_bytes",
)


def _resolve(package: Any, path: str) -> Any:
    """The module or class at ``path`` under ``package``, or None if it is gone."""
    owner = package
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner


class Tracer:
    """In-memory span store for traced games; one game open at a time."""

    def __init__(self, package: Any) -> None:
        self._package = package
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._installed: list[tuple[Any, str, Any]] = []
        #: Boundaries the package no longer has; their layers read as zero.
        self.missing: list[str] = []
        # Filled by the wrappers and cleared in place, so closures can hold them.
        self._name: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._parent: list[int] = []
        self._stack: list[int] = [-1]
        self._counts: dict[str, float] = dict.fromkeys(COUNT_NAMES, 0)
        self.games: list[dict[str, Any]] = []

    def _reset(self) -> None:
        for spans in (self._name, self._start, self._end, self._parent):
            spans.clear()
        self._counts.update(dict.fromkeys(COUNT_NAMES, 0))

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        span_id = self._ids[name]
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        names, starts, ends, parents = self._name, self._start, self._end, self._parent
        stack, counts = self._stack, self._counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(span_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        traced._bench_span = name  # type: ignore[attr-defined]
        return traced

    def call_root(self, fn: Callable, *args: Any) -> Any:
        """Call ``fn`` inside the root span of the open game."""
        return self._wrap(ROOT, fn)(*args)

    def install(self) -> None:
        """Replace every layer boundary with its tracing wrapper."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for name, owner_path, attr in BOUNDARIES:
            owner = _resolve(self._package, owner_path)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        """Restore every original and check that no wrapper is left behind."""
        installed, self._installed = self._installed, []
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)
        for owner, attr, original in installed:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} was not restored")
        for owner in {owner for owner, _, _ in installed}:
            for attr, value in vars(owner).items():
                if hasattr(value, "_bench_span"):
                    raise RuntimeError(f"tracing wrapper left on {owner.__name__}.{attr}")

    def finish_game(self, game_id: int) -> dict[str, float]:
        """Close the open game's spans; return its self times and counts."""
        if len(self._stack) != 1:
            raise RuntimeError("spans still open at the end of a game")
        names = np.asarray(self._name, dtype=np.int32)
        start = np.asarray(self._start, dtype=np.float64)
        end = np.asarray(self._end, dtype=np.float64)
        parent = np.asarray(self._parent, dtype=np.int32)
        duration = end - start
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=names.size)
        self_time = duration - child_time
        width = len(SPAN_NAMES)
        self_by_name = np.bincount(names, weights=self_time, minlength=width)
        calls_by_name = np.bincount(names, minlength=width)
        game: dict[str, float] = dict(self._counts)
        for i, name in enumerate(SPAN_NAMES):
            game[f"{name}_s"] = float(self_by_name[i])
            game[f"{name}.calls"] = int(calls_by_name[i])
        game["spans"] = int(names.size)
        self.games.append(
            {"game": game_id, "name": names, "start": start, "end": end, "parent": parent}
        )
        self._reset()
        return game

    def write(self, path: str | os.PathLike) -> None:
        """Write every recorded span, with its game id and global parent index."""
        offsets = np.cumsum([0] + [g["name"].size for g in self.games[:-1]])
        parents = [
            np.where(g["parent"] >= 0, g["parent"] + offset, -1)
            for g, offset in zip(self.games, offsets)
        ]
        np.savez(
            path,
            span_names=np.asarray(SPAN_NAMES),
            game=np.concatenate([np.full(g["name"].size, g["game"], np.int32) for g in self.games]),
            name=np.concatenate([g["name"] for g in self.games]),
            start=np.concatenate([g["start"] for g in self.games]),
            end=np.concatenate([g["end"] for g in self.games]),
            parent=np.concatenate(parents).astype(np.int32),
        )
