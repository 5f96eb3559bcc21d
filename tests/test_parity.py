"""Pinned output bytes: ``run`` writes the same ``trajectory.csv`` and ``summary.json`` everywhere.

Each learner plays the small games of ``test_kernel.TestRunOutputs`` (T=48)
on kinds whose losses need no BLAS product: ``clustered_binary``,
``bounded_variation``, ``iid_stochastic`` and a binary ``finite_matrix``
written from ``game_rng``.  The packing learner and the meta-tuner also play
README's ``clustered.yaml`` (T=5000, K=10^5).  The sha256 of each file is
pinned, with the matrix file's path in the summary replaced by a fixed name,
so a change that alters any output byte fails here on every platform and
numpy version the suite runs on.  The low-rank and sparse-dictionary kinds
are left out: their losses come from a BLAS matrix product, whose bits
depend on the BLAS build.
"""

import hashlib
import re
from pathlib import Path

import pytest
import yaml

from packhedge import cli, matrix_io
from packhedge.core import game_rng

README = Path(__file__).resolve().parent.parent / "README.md"

KIND_PARAMETERS = {
    "clustered_binary": {"K": 40, "N": 5},
    "bounded_variation": {"K": 64},
    "iid_stochastic": {"K": 6, "means": [0.1, -0.2, 0.3, 0.0, 0.5, -0.5],
                       "noise": "uniform", "noise_scale": 0.4},
    "finite_matrix": {},
}

#: sha256 of (trajectory.csv, summary.json) per (kind, algorithm).
DIGESTS = {
    ("clustered_binary", "hedge"): (
        "3fd62c6325c473b535448bb61777b55647a28cdabb25c67c6a463193ca65e9f8",
        "1a32973b024958a9183d42b613bd27e756e5f470b6c2ef891f22a78e5a4bb3f8",
    ),
    ("bounded_variation", "hedge"): (
        "a9534dbfdd5ae0d8264031c295de022820652ba0d4c580b7c07399f1cac64140",
        "0677ad443faeb40fab89942ee4cb51c760f0e269066effde0a81dd992e33107d",
    ),
    ("iid_stochastic", "hedge"): (
        "49fef2413accb492c5f6f56676bd4b3862f3fe2f2ae5ab0f9f245d670d38a8ad",
        "197187edce4563d2fb7a4630c013acca05cf76f4f0cf0bd50d11dd4a0e289022",
    ),
    ("finite_matrix", "hedge"): (
        "19d9ec07c072ba8331c1f6c16e1f2d0496628ad5f1eda3478da890fb5f37d1f5",
        "de15d392b880e126f55cb0283e8503f4a1fc6b645fe61bc5ec4f0f74e231a4a2",
    ),
    ("clustered_binary", "many_experts"): (
        "2ba9bdb192da8ce3fddd4e825220b7eb5d21b7156e4573d10d724871b8653fed",
        "8884935e7e9be987b5a92257b79a605c8c193541b1436f4ccc72c907321e416d",
    ),
    ("bounded_variation", "many_experts"): (
        "ba3785838fca51fdbfac7e139894fe40ee6ad013f33dcaa3acc90bd3f4cb3d5c",
        "ce3d10d2c1920135af74e91b37ffb8032f4217f597f88a54ae3ded8aeaa09c9b",
    ),
    ("iid_stochastic", "many_experts"): (
        "a3f3e418ed7a56b24162862491acab84baa4a58fd5a26081def141d00e20982f",
        "bb3e95ade574e7afcf5111f9a8e9a48846d3f7b43c31d2f4e944a3c550b38eac",
    ),
    ("finite_matrix", "many_experts"): (
        "af424f40d6f5ac0645152ef8d67bd42fb2bc59eb5c8e89969c80931c8e4ba210",
        "64c1a83149dcc124cf995b204a5ca395baa48dad977d4f2d65aa23a1601d9e49",
    ),
    ("clustered_binary", "meta_tuner"): (
        "c6645d15ca193413bd97ff78ab7385fdf2301e08877e9450f8c2b16e1e0417c3",
        "a47ecc6e4b6ab99d7876b6d85866345630bec491512d213202de0ff05e46cd1e",
    ),
    ("bounded_variation", "meta_tuner"): (
        "45b170d6d55305d057e730c3716750d0bd3f9c84201a11aaea491f52c3bbef3b",
        "7153a5a0eeb8a21d7af9e4f280753fd0bca7f896422a2e67211f420614d1b11d",
    ),
    ("iid_stochastic", "meta_tuner"): (
        "539603e38237058214b6e7e538e1da9d1ecf7ccf6b7b0c2ace740660bc25b9f0",
        "5beb7ef8ae0bbf8a76735bbd2ef09a06076bb1cc2d1f2ff2c254ee0920d11b34",
    ),
    ("finite_matrix", "meta_tuner"): (
        "00846c32133ba1446cefc987dba3fcb710911e60bd83ffcbc3807beaf0a4a5ed",
        "a3b1f3a2be8b05fee47ac15c2e054fa150c48863c6ce8fce4d53f4488e661ae1",
    ),
    ("readme_clustered", "many_experts"): (
        "368b73153879b45f176ba608ad80e0486f809f68fee3d61058d6fb126db8ec2b",
        "3719a2e22c7288cad7ca4f1f1b4195e834a64509a46d553c7cbb7dbde4660f78",
    ),
    ("readme_clustered", "meta_tuner"): (
        "a9f08261036ad6766d835cf8d63bd0000aaec61175b4e2343c73e1da383dc128",
        "3390ac70b373d4a8d6344f2d8bb74f61e96578b1f2eeb48008f7c3e3395f20fd",
    ),
}


def digests(out_dir, path=None):
    """sha256 of ``trajectory.csv`` and of ``summary.json``, the matrix path read as ``losses.bin``."""
    summary = (out_dir / "summary.json").read_bytes()
    if path is not None:
        summary = summary.replace(str(path).encode(), b"losses.bin")
    files = ((out_dir / "trajectory.csv").read_bytes(), summary)
    return tuple(hashlib.sha256(data).hexdigest() for data in files)


@pytest.mark.parametrize("kind", list(KIND_PARAMETERS))
@pytest.mark.parametrize("algorithm", ["hedge", "many_experts", "meta_tuner"])
def test_small_run_bytes_are_pinned(tmp_path, kind, algorithm):
    parameters = dict(KIND_PARAMETERS[kind])
    path = None
    if kind == "finite_matrix":
        path = tmp_path / "losses.bin"
        parameters["path"] = str(path)
        matrix_io.write_matrix_binary(path, game_rng(4).uniform(-1, 1, (48, 9)))
    config = tmp_path / "config.yaml"
    config.write_text(
        yaml.safe_dump(
            {
                "game": {"algorithm": algorithm, "T": 48, "epsilon": 0.125, "seed": 3},
                "environment": {"kind": kind, **parameters},
            }
        )
    )
    assert cli.main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 0
    assert digests(tmp_path / "out", path) == DIGESTS[kind, algorithm]


@pytest.mark.parametrize("algorithm", ["many_experts", "meta_tuner"])
def test_readme_run_bytes_are_pinned(tmp_path, algorithm):
    config = re.search(r"```yaml\n(# clustered\.yaml\n.*?)```", README.read_text(), flags=re.S)
    (tmp_path / "clustered.yaml").write_text(config.group(1))
    argv = ["run", "--config", str(tmp_path / "clustered.yaml"), "--out-dir", str(tmp_path / "out"),
            "--set", f"game.algorithm={algorithm}"]
    assert cli.main(argv) == 0
    assert digests(tmp_path / "out") == DIGESTS["readme_clustered", algorithm]
