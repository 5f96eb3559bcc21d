import re
from pathlib import Path

import packhedge

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert len(set(packhedge.__all__)) == len(packhedge.__all__)
    assert [name for name in packhedge.__all__ if not hasattr(packhedge, name)] == []


def test_star_import_runs():
    namespace = {}
    exec("from packhedge import *", namespace)
    assert set(packhedge.__all__) <= set(namespace)


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        exec(block, {})
