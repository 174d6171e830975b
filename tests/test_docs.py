"""The documentation names only live API: README's Python blocks run,
README's Layout lists every module, and every exported name resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import lagmech

README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
_MODULES = sorted(m.name for m in pkgutil.iter_modules(lagmech.__path__) if m.name != "__main__")


def test_readme_has_python_blocks():
    assert _BLOCKS


@pytest.mark.parametrize("index", range(len(_BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(_BLOCKS[index], f"README.md block {index}", "exec"), {})


def test_readme_layout_lists_every_module_once():
    layout = README.read_text().split("## Layout", 1)[1]
    listed = re.findall(r"`src/lagmech/(\w+)\.py`", layout)
    assert sorted(listed) == _MODULES


@pytest.mark.parametrize("name", ["lagmech"] + [f"lagmech.{m}" for m in _MODULES])
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
