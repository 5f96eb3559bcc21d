import json
import re
import shlex
from pathlib import Path

import packhedge
from packhedge import cli, core

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert len(set(packhedge.__all__)) == len(packhedge.__all__)
    assert [name for name in packhedge.__all__ if not hasattr(packhedge, name)] == []


def test_star_import_runs():
    namespace = {}
    exec("from packhedge import *", namespace)
    assert set(packhedge.__all__) <= set(namespace)


def test_no_module_reaches_into_another():
    """No package module names another's underscore name: each keeps its own private code."""
    sources = sorted(Path(packhedge.__file__).parent.glob("*.py"))
    modules = "|".join(path.stem for path in sources if path.stem != "__init__")
    private = re.compile(rf"\b(?:{modules})\._\w+")
    found = [
        f"{path.name}:{number}: {match.group()}"
        for path in sources
        for number, line in enumerate(path.read_text().splitlines(), 1)
        for match in private.finditer(line)
    ]
    assert found == []


def test_readme_blocks_run(tmp_path, monkeypatch):
    """README's configs, commands and python blocks run as written there.

    Each ``yaml`` block whose first line is ``# <name>.yaml`` is written to
    that file, and every ``packhedge`` line of a ``bash`` block runs through
    ``cli.main`` in the same directory and exits 0; a ``run`` line runs twice
    and writes the same trajectory and summary bytes both times.  Each
    ``python`` block is executed.  The ``pip`` and ``pytest`` lines are skipped.
    """
    text = README.read_text()
    monkeypatch.chdir(tmp_path)
    configs = re.findall(r"```yaml\n(# (\S+\.yaml)\n.*?)```", text, flags=re.S)
    for config, name in configs:
        Path(name).write_text(config)
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", text, flags=re.S):
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] not in ("pip", "pytest"):
                commands.append(argv)
    for argv in commands:
        assert argv[0] == "packhedge", argv
        assert cli.main(argv[1:]) == 0, argv
        if argv[1] == "run":
            out_dir = Path(argv[argv.index("--out-dir") + 1])
            files = [out_dir / "trajectory.csv", out_dir / "summary.json"]
            first = [path.read_bytes() for path in files]
            assert cli.main(argv[1:]) == 0, argv
            assert [path.read_bytes() for path in files] == first
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    for block in blocks:
        exec(block, {})
    assert len(configs) >= 2 and len(commands) >= 6 and blocks


def test_matrix_files_play_and_export_alike(tmp_path, monkeypatch):
    """One low_rank instance, exported as binary and as CSV, plays and exports alike.

    Each file is exported again as a binary ``finite_matrix`` environment, to
    the binary export's bytes: the binary file from the rows its
    ``MatrixFileOracle`` streams, the CSV file from its ``MatrixOracle``.
    Each learner plays both files: a run streams the binary file and reads
    the CSV file whole, and both write the same trajectory bytes and the same
    summary apart from the path of the file each read.  At K=2000 a schedule
    block is ``block_rounds(2000) = 8`` rounds, so T=64 spans eight blocks and
    the meta-tuner copies' shared schedule pass crosses block boundaries.
    """
    monkeypatch.chdir(tmp_path)
    Path("low_rank.yaml").write_text(
        "game: {algorithm: many_experts, T: 64, epsilon: 0.25, seed: 1}\n"
        "environment: {kind: low_rank, K: 2000, d: 2, epsilon_noise: 0.05}\n"
    )
    files = {"binary": "binary/losses.bin", "csv": "csv/losses.csv"}
    for fmt in files:
        argv = ["--out-dir", fmt, "--format", fmt, "--name", "losses"]
        assert cli.main(["export-env", "--config", "low_rank.yaml", *argv]) == 0
    exported = Path(files["binary"]).read_bytes()

    def as_file(command, path, *argv):
        return cli.main([command, "--config", "low_rank.yaml", "--set",
                         "environment.kind=finite_matrix", "--set", f"environment.path={path}",
                         *argv])

    for fmt, path in files.items():
        argv = ["--out-dir", f"again/{fmt}", "--format", "binary", "--name", "losses"]
        assert as_file("export-env", path, *argv) == 0
        assert Path(f"again/{fmt}/losses.bin").read_bytes() == exported
    for algorithm in core.ALGORITHMS:
        outputs = []
        for fmt, path in files.items():
            out = Path(fmt, algorithm)
            assert as_file("run", path, "--set", f"game.algorithm={algorithm}",
                           "--out-dir", str(out)) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["environment"]["parameters"].pop("path") == path
            outputs.append(((out / "trajectory.csv").read_bytes(), summary))
        assert outputs[0] == outputs[1], algorithm
