import re
import shlex
from pathlib import Path

import packhedge
from packhedge import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert len(set(packhedge.__all__)) == len(packhedge.__all__)
    assert [name for name in packhedge.__all__ if not hasattr(packhedge, name)] == []


def test_star_import_runs():
    namespace = {}
    exec("from packhedge import *", namespace)
    assert set(packhedge.__all__) <= set(namespace)


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
