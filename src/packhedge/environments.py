"""Seeded loss environments: matrix oracles, structured generators, and export.

Every generator is a pure function of its parameters and seed, exposes its
ground-truth structure (cluster rows, low-rank factors, dictionary, flip
times, true means) for analysis, and enforces the ``[-1, 1]`` loss contract.
"""

from __future__ import annotations

import functools
import inspect
import json
import logging
import os
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import core, matrix_io
from .core import LossOracle, game_rng, validate_loss_matrix

logger = logging.getLogger(__name__)

NOISE_KINDS = ("none", "uniform", "sign")

#: The refusal of a dense ``T x K`` loss matrix past ``core.MATRIX_MAX_ENTRIES``.
_DENSE = "a dense loss matrix is too large to generate"

#: The least value a generator takes for each of these keywords.
_LEAST = {"T": 1, "K": 1, "n": 1, "seed": 0}


@dataclass
class EnvironmentSpec:
    """Declarative description of one environment instance.

    ``parameters`` are kept as given, so a spec echoes its config; the keywords
    its generator requires must be present and :meth:`arguments` must accept them.
    """

    kind: str
    parameters: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in GENERATORS:
            raise ValueError(f"environment.kind must be one of {KINDS}, got {self.kind!r}")
        for name, (_, required) in _KEYWORDS[self.kind].items():
            if required and name not in self.parameters:
                raise ValueError(
                    f"environment.{name}: required for kind {self.kind!r} and missing"
                )
        self.arguments()

    def arguments(self) -> dict[str, Any]:
        """The keyword arguments of the kind's generator that this spec sets.

        Each goes through its check in ``_KEYWORDS``, which holds its least
        value from ``_LEAST``; other keys of ``parameters`` are ignored.
        """
        return {
            name: check(f"environment.{name}", self.parameters[name])
            for name, (check, _) in _KEYWORDS[self.kind].items()
            if name in self.parameters
        }

    def as_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "parameters": dict(self.parameters)}


class MatrixOracle(LossOracle):
    """Dense ``T x K`` loss matrix; every expert is a coverage candidate."""

    def __init__(
        self, matrix: np.ndarray, ground_truth: dict[str, np.ndarray] | None = None
    ) -> None:
        # A read-only view: the blocks of rows and to_matrix() are this storage.
        self._m = validate_loss_matrix(matrix).view()
        self._m.flags.writeable = False
        super().__init__(*self._m.shape)
        self.ground_truth = dict(ground_truth or {})

    def rows(
        self, t0: int, t1: int, experts: np.ndarray | Sequence[int] | None = None
    ) -> np.ndarray:
        block = self._m[t0:t1]
        return block if experts is None else block.take(np.asarray(experts, dtype=np.int64), 1)


class MatrixFileOracle(LossOracle):
    """A binary matrix file, read a block of rows at a time; every expert is a candidate.

    The file stays open for the oracle's lifetime, and :meth:`rows` reads only
    the rows asked for, at their offset, into a fresh array: all experts in
    one read, some ``experts`` a ``core.block_rounds(K)`` of whole rows at a
    time, keeping those experts of each.  So the oracle holds its column
    sums and one block, never the ``T x K`` matrix, for every learner, and a
    file larger than memory can be played.  Opening the file checks its
    header and reads it once, a block of ``core.block_rounds(K)`` rows at a
    time: the values follow :func:`core.validate_loss_matrix`'s rules (the
    same errors, and a file grazing ``[-1, 1]`` is clamped block by block
    after the same one warning), and the column sums are those of the whole
    matrix bit for bit.  Rewriting the file in place while the oracle is in
    use is out of scope: a file that shrinks is refused when a read comes
    short, other edits are served as read.
    """

    def __init__(self, path: str | Path) -> None:
        self._file, T, K = matrix_io.open_matrix_binary(path)
        weakref.finalize(self, self._file.close)
        super().__init__(T, K)
        self.ground_truth: dict[str, np.ndarray] = {}
        self._clamp = False
        self._sums, high, low = self._sums_and_extremes()
        if core.must_clamp(high, low):
            self._clamp = True
            self._sums = self._sums_and_extremes()[0]

    def _sums_and_extremes(self) -> tuple[np.ndarray, float, float]:
        """One pass over the file: its column sums and its extremes, 0.0 included.

        Each block's first row takes the running totals before the block is
        summed, so the sums are those of one ``sum(axis=0)`` over the matrix.
        That sum adds the rows in turn for ``K >= 2``, but sums a single
        column pairwise, so for ``K = 1`` the column is read whole.
        """
        T, K = self.horizon(), self.num_experts()
        sums, highs, lows = np.zeros(K), [0.0], [0.0]
        step = core.block_rounds(K) if K > 1 else T
        for t0 in range(0, T, step):
            block = self.rows(t0, min(T, t0 + step))
            highs.append(float(block.max()))
            lows.append(float(block.min()))
            if t0:
                block[0] += sums
            sums = block.sum(axis=0)
        # numpy's extremes, not Python's max and min, so that a NaN carries through.
        return sums, float(np.max(highs)), float(np.min(lows))

    def rows(
        self, t0: int, t1: int, experts: np.ndarray | Sequence[int] | None = None
    ) -> np.ndarray:
        K = self.num_experts()
        if experts is not None:
            experts = np.asarray(experts, dtype=np.int64)
            block, step = np.empty((t1 - t0, experts.size)), core.block_rounds(K)
            for j0 in range(t0, t1, step):
                block[j0 - t0 : j0 - t0 + step] = self.rows(j0, min(t1, j0 + step)).take(experts, 1)
            return block
        block = matrix_io.read_binary_rows(self._file, t0, t1, K)
        if self._clamp:
            np.clip(block, -1.0, 1.0, out=block)
        return block

    def column_sums(self) -> np.ndarray:
        return self._sums.copy()


class ClusteredBinaryOracle(LossOracle):
    """Experts grouped into clusters sharing identical +/-1 loss rows.

    Stores only the ``N x T`` distinct rows plus a cluster assignment.  The
    coverage candidates are each cluster's smallest expert id, so coverage
    and column sums cost ``O(N)`` instead of ``O(K)`` while answering exactly
    as a scan over all ``K`` experts would.  The rows are checked, and kept
    as given or clamped into a copy, by :func:`core.validate_loss_matrix`.
    """

    def __init__(self, rows: np.ndarray, assignment: np.ndarray) -> None:
        self._rows = validate_loss_matrix(rows, "clusters x rounds")
        self._assign = np.ascontiguousarray(assignment, dtype=np.int64)
        n = self._rows.shape[0]
        if self._assign.min(initial=0) < 0 or self._assign.max(initial=-1) >= n:
            raise ValueError("assignment references a missing cluster row")
        # Smallest expert id per cluster: cluster mates share every loss, so
        # only that expert can be the first uncovered one of its cluster.
        first_expert = np.full(n, self._assign.size, dtype=np.int64)
        np.minimum.at(first_expert, self._assign, np.arange(self._assign.size))
        if np.any(first_expert == self._assign.size):
            raise ValueError("every cluster must have at least one expert")
        self._candidate_ids = np.sort(first_expert)
        super().__init__(self._rows.shape[1], self._assign.size)
        self.ground_truth = {"rows": self._rows, "assignment": self._assign}

    def rows(
        self, t0: int, t1: int, experts: np.ndarray | Sequence[int] | None = None
    ) -> np.ndarray:
        assign = self._assign if experts is None else self._assign[np.asarray(experts, np.int64)]
        return self._rows[assign, t0:t1].T

    def coverage_ids(self) -> np.ndarray:
        return self._candidate_ids

    def column_sums(self) -> np.ndarray:
        return self._rows.sum(axis=1)[self._assign]


def _distinct_binary_rows(num_rows: int, horizon: int, rng: np.random.Generator) -> np.ndarray:
    """``num_rows`` distinct +/-1 rows of length ``horizon``."""
    if horizon <= 20:
        patterns = rng.choice(2**horizon, size=num_rows, replace=False)
        bits = (patterns[:, None] >> np.arange(horizon)[None, :]) & 1
        return bits.astype(np.float64) * 2.0 - 1.0
    seen: set[bytes] = set()
    rows: list[np.ndarray] = []
    while len(rows) < num_rows:
        candidate = rng.integers(0, 2, size=horizon).astype(np.float64) * 2.0 - 1.0
        key = candidate.tobytes()
        if key not in seen:
            seen.add(key)
            rows.append(candidate)
    return np.vstack(rows)


def make_clustered_binary(T: int, K: int, N: int, seed: int) -> ClusteredBinaryOracle:
    """K experts, each copying one of N distinct +/-1 loss rows; no empty cluster.

    The realized matrix has exactly ``N`` distinct columns, so its exact-match
    cover has size ``N`` by construction.
    """
    # The N x T distinct rows are dense, and the assignment holds K ids.
    core.check_entries(
        T * N,
        f"environment.N x environment.T = {N} x {T}: the distinct loss rows are too large"
        " to generate",
    )
    core.check_entries(K, f"environment.K = {K}: the cluster assignment is too large to generate")
    if T < 1 or K < 1:
        raise ValueError("T and K must be >= 1")
    if N < 1 or N > K:
        raise ValueError(f"N must satisfy 1 <= N <= K, got N={N}, K={K}")
    if N > 2**T:
        raise ValueError(f"too many distinct binary rows: N={N} exceeds 2**T={2**T}")
    rng = game_rng(seed)
    rows = _distinct_binary_rows(N, T, rng)
    assignment = np.concatenate(
        [rng.permutation(N), rng.integers(0, N, size=K - N)], dtype=np.int64
    )
    return ClusteredBinaryOracle(rows, assignment)


def _add_noise(
    structure: np.ndarray, epsilon_noise: float, rng: np.random.Generator, noise: str = "uniform"
) -> np.ndarray:
    """``clip(structure + E, -1, 1)`` in place, for noise ``E`` of magnitude ``epsilon_noise``.

    ``E`` is uniform on ``[-eps, eps]``, or +/- ``eps`` with equal probability
    for ``noise="sign"``.  The C-ordered ``T x K`` ``structure`` is overwritten
    with the losses and returned, a block of ``core.block_rounds(K)`` rows at
    a time, so the step holds one ``T x K`` array and two block-sized ones.
    Each block's noise is drawn in turn from ``rng``, so the stream and its
    order are those of one ``T x K`` draw, and the structure is added to it;
    IEEE addition commutes, so this is ``structure + E`` bit for bit (with no
    noise, ``0.0 + structure`` turns ``-0.0`` into ``0.0`` as that sum does).
    Checks that no loss lies farther than ``epsilon_noise`` from ``structure``.
    """
    structure = np.ascontiguousarray(structure, dtype=np.float64)
    T, K = structure.shape
    step, deviation = core.block_rounds(max(K, 1)), 0.0
    for t0 in range(0, T, step):
        block = structure[t0 : t0 + step]
        if noise == "sign":
            L = epsilon_noise * (rng.integers(0, 2, size=block.shape) * 2.0 - 1.0)
        elif epsilon_noise > 0:
            L = rng.uniform(-epsilon_noise, epsilon_noise, block.shape)
        else:
            L = np.zeros(block.shape)
        L += block
        np.clip(L, -1.0, 1.0, out=L)
        residual = np.subtract(L, block, out=block)
        deviation = max(deviation, residual.max(initial=0.0), -residual.min(initial=0.0))
        block[...] = L
    if deviation > epsilon_noise + 1e-12:
        raise AssertionError(f"structure residual {deviation} exceeds epsilon_noise")
    return structure


def make_low_rank(T: int, K: int, d: int, epsilon_noise: float, seed: int) -> MatrixOracle:
    """Rank-``d`` product plus entrywise noise of magnitude ``epsilon_noise``.

    Factor entries are uniform on ``[-1, 1]``; the product is globally rescaled
    into ``[-(1 - eps), 1 - eps]`` so the noisy sum stays in range (the final
    clip is a safety net only).  Ground truth exposes ``U`` and ``W``.
    """
    core.check_entries(T * K, f"environment.T x environment.K = {T} x {K}: {_DENSE}")
    if not (1 <= d <= min(T, K)):
        raise ValueError(f"d must satisfy 1 <= d <= min(T, K), got d={d}")
    if not (0.0 <= epsilon_noise <= 0.25):
        raise ValueError(f"epsilon_noise must be in [0, 0.25], got {epsilon_noise}")
    rng = game_rng(seed)
    U = rng.uniform(-1.0, 1.0, size=(T, d))
    W = rng.uniform(-1.0, 1.0, size=(d, K))
    product = U @ W
    peak = max(float(product.max()), -float(product.min()))
    if peak > 0.0:
        scale = (1.0 - epsilon_noise) / peak
        W *= scale
        product *= scale
    L = _add_noise(product, epsilon_noise, rng)
    return MatrixOracle(L, {"U": U, "W": W})


def make_sparse_dictionary(
    T: int, K: int, n: int, k: int, epsilon_noise: float, seed: int
) -> MatrixOracle:
    """Losses near ``D @ V`` for a dictionary ``D`` and k-sparse codes ``V``.

    Rows of the ``T x n`` dictionary are rescaled to 1-norm at most 1; each of
    the ``K`` code columns has ``k`` nonzeros, uniform on ``[-1, 1]``, on a
    uniformly chosen support.  Ground truth exposes ``D`` and ``V``.
    """
    core.check_entries(T * K, f"environment.T x environment.K = {T} x {K}: {_DENSE}")
    # The T x n dictionary and the n x K codes are dense too.
    core.check_entries(
        max(T, K) * n,
        f"environment.n = {n}: the {T} x {n} dictionary and {n} x {K} codes are too large"
        " to generate",
    )
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if not (0.0 <= epsilon_noise <= 0.25):
        raise ValueError(f"epsilon_noise must be in [0, 0.25], got {epsilon_noise}")
    rng = game_rng(seed)
    D = rng.uniform(-1.0, 1.0, size=(T, n))
    norms = np.abs(D).sum(axis=1)
    D /= np.maximum(norms, 1.0)[:, None]
    V = np.zeros((n, K))
    for j in range(K):
        if k > 0:
            support = rng.choice(n, size=k, replace=False)
            V[support, j] = rng.uniform(-1.0, 1.0, size=k)
    L = _add_noise(D @ V, epsilon_noise, rng)
    return MatrixOracle(L, {"D": D, "V": V})


def make_bounded_variation_adversary(T: int, K: int, seed: int) -> ClusteredBinaryOracle:
    """Halving adversary: losses start at -1 and flip permanently to +1.

    Each round a uniformly random half (rounded down) of the experts still at
    -1 flips to +1, until one is left: every expert moves at most once (total
    variation at most 2), and none after round ``(K - 1).bit_length()``.  The
    instance is clustered, one +/-1 row per distinct flip round.  Ground truth
    exposes the flip round per expert (``T + 1`` meaning "never").
    """
    core.check_entries(K, f"environment.K = {K}: the flip rounds are too large to generate")
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    flips = min(T, (int(K) - 1).bit_length())  # rounds until one expert is left at -1
    core.check_entries(
        (flips + 1) * T,
        f"environment.T = {T}: the {flips + 1} x {T} distinct loss rows are too large to generate",
    )
    if flips < T:
        logger.warning("bounded_variation with K=%d: no expert flips after round %d", K, flips)
    rng = game_rng(seed)
    flip_round = np.full(K, T + 1, dtype=np.int64)
    alive = np.arange(K)
    for t in range(1, flips + 1):
        flipped = rng.choice(alive, size=alive.size // 2, replace=False)
        flip_round[flipped] = t
        alive = np.setdiff1d(alive, flipped, assume_unique=True)
    distinct, assignment = np.unique(flip_round, return_inverse=True)
    rows = np.where(distinct[:, None] <= np.arange(1, T + 1), 1.0, -1.0)
    oracle = ClusteredBinaryOracle(rows, assignment)
    oracle.ground_truth = {"flip_round": flip_round}
    return oracle


def make_iid_stochastic(
    T: int,
    K: int,
    means: Sequence[float] | float,
    noise: str = "none",
    noise_scale: float = 0.0,
    *,
    seed: int,
) -> MatrixOracle:
    """Rounds drawn i.i.d. around fixed per-expert means.

    The means are tiled over the rounds, kept as given (``-0.0`` too) with no
    noise; else :func:`_add_noise` adds ``"uniform"`` (on ``[-scale, scale]``)
    or ``"sign"`` (+/- ``scale``) noise, and its clip never acts, since means
    plus noise must stay inside ``[-1, 1]``.  Ground truth exposes the means.
    """
    core.check_entries(T * K, f"environment.T x environment.K = {T} x {K}: {_DENSE}")
    if isinstance(means, (list, tuple, np.ndarray)):
        mu = np.array([core.real_number("means", x) for x in means], dtype=np.float64)
    else:
        mu = np.full(K, core.real_number("means", means))
    if mu.shape != (K,):
        raise ValueError(f"means must have length K={K}, got shape {mu.shape}")
    if not (np.abs(mu) <= 1.0).all():  # NaN fails it too
        raise ValueError("means must lie in [-1, 1]")
    if noise not in NOISE_KINDS:
        raise ValueError(f"noise must be one of {NOISE_KINDS}, got {noise!r}")
    if not (0.0 <= noise_scale <= 1.0):
        raise ValueError(f"noise_scale must be in [0, 1], got {noise_scale}")
    if noise != "none" and float(np.abs(mu).max(initial=0.0)) + noise_scale > 1.0:
        raise ValueError("means plus noise_scale would leave [-1, 1]")
    rng = game_rng(seed)
    L = np.tile(mu, (T, 1))
    if noise != "none" and noise_scale > 0.0:
        L = _add_noise(L, noise_scale, rng, noise)
    return MatrixOracle(L, {"means": mu})


def load_matrix_file(path: str | Path) -> LossOracle:
    """A matrix file's environment: a binary file is streamed, a CSV file is read whole.

    The format is read from the file's magic bytes (:func:`matrix_io.file_format`).
    """
    if matrix_io.file_format(path) == "binary":
        return MatrixFileOracle(path)
    return MatrixOracle(matrix_io.read_matrix_csv(path))


#: Each environment kind's generator; a spec's parameters are its keyword arguments.
GENERATORS: dict[str, Callable[..., Any]] = {
    "finite_matrix": load_matrix_file,
    "clustered_binary": make_clustered_binary,
    "low_rank": make_low_rank,
    "sparse_dictionary": make_sparse_dictionary,
    "bounded_variation": make_bounded_variation_adversary,
    "iid_stochastic": make_iid_stochastic,
}

KINDS = tuple(GENERATORS)


def _check(name: str, annotation: str) -> Callable[[str, Any], Any]:
    """A generator keyword's check, by its annotation (a string under PEP 563).

    ``int`` is :func:`core.whole_number`, at least ``_LEAST[name]`` where that
    is given; ``float`` is :func:`core.real_number`; ``str | Path`` is
    :func:`_path`; others are taken as given.
    """
    if annotation == "int":
        return functools.partial(core.whole_number, least=_LEAST.get(name))
    if annotation == "str | Path":
        return _path
    return core.real_number if annotation == "float" else lambda _, value: value


def _path(name: str, value: Any) -> Any:
    """``value`` as given if it is a ``str`` or ``os.PathLike``: ``open`` takes an int as an fd."""
    if not isinstance(value, (str, os.PathLike)):
        raise ValueError(f"{name} must be a path, got {value!r}")
    return value


#: Per kind, each generator keyword's check and whether it is required (has no default).
_KEYWORDS: dict[str, dict[str, tuple[Callable[[str, Any], Any], bool]]] = {
    kind: {
        name: (_check(name, p.annotation), p.default is p.empty)
        for name, p in inspect.signature(generator).parameters.items()
    }
    for kind, generator in GENERATORS.items()
}


def make_environment(spec: EnvironmentSpec) -> LossOracle:
    """Instantiate the oracle a spec describes: its kind's generator on ``spec.arguments()``.

    Refuses, with :class:`core.ConfigError`, an oracle whose rounds differ from the spec's ``T``.
    """
    oracle = GENERATORS[spec.kind](**spec.arguments())
    rounds, T = oracle.horizon(), spec.parameters.get("T", oracle.horizon())
    if rounds != T:
        raise core.ConfigError(f"environment.T: {T} rounds, but the environment has {rounds}")
    return oracle


def export_environment(
    spec: EnvironmentSpec, out_base: str | Path, fmt: str = "csv"
) -> dict[str, str]:
    """Write the realized matrix, ground-truth arrays, and a JSON sidecar.

    Files land next to ``out_base``: the matrix as ``<base>.<ext>``, each
    ground-truth array as ``<base>.<name>.<ext>``, and the sidecar (``spec``
    as given and the file listing) as ``<base>.json``, where ``<base>`` is
    the whole name of ``out_base``, every dot kept.  Returns the written
    paths.  The matrix is written from the oracle's ``rows`` a block at a
    time, never materialized, so an export onto the binary ``finite_matrix``
    file it streams is refused: the write would truncate the file it reads.
    """
    if fmt not in matrix_io.FORMATS:
        raise ValueError(f"format must be one of {matrix_io.FORMATS}, got {fmt!r}")
    oracle = make_environment(spec)
    base = Path(out_base)
    base.parent.mkdir(parents=True, exist_ok=True)
    ext = "csv" if fmt == "csv" else "bin"

    matrix_path = base.parent / f"{base.name}.{ext}"
    if isinstance(oracle, MatrixFileOracle) and matrix_path.exists():
        if matrix_path.samefile(spec.parameters["path"]):
            raise ValueError(f"{matrix_path}: the export would write over the file it reads")
    matrix_io.save_matrix(matrix_path, oracle, fmt)
    written = {"matrix": str(matrix_path)}

    for name, arr in oracle.ground_truth.items():
        gt_path = base.parent / f"{base.name}.{name}.{ext}"
        matrix_io.save_matrix(gt_path, arr, fmt)
        written[f"ground_truth.{name}"] = str(gt_path)

    sidecar = {
        "spec": spec.as_dict(),
        "files": {key: Path(path).name for key, path in written.items()},
    }
    sidecar_path = base.parent / f"{base.name}.json"
    sidecar_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    written["sidecar"] = str(sidecar_path)
    return written


def environment_from_sidecar(path: str | Path) -> LossOracle:
    """Regenerate the environment described by an exported sidecar."""
    sidecar = json.loads(Path(path).read_text())
    spec = sidecar.get("spec")
    if spec is None:
        raise ValueError(f"{path}: sidecar carries no environment spec")
    if spec["kind"] == "finite_matrix":
        return load_matrix_file(Path(path).parent / sidecar["files"]["matrix"])
    return make_environment(EnvironmentSpec(**spec))
