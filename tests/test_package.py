"""The package's public API is the union of its submodules' lists, and
the README's Python examples run."""

import importlib
import pkgutil
import re
from pathlib import Path

import eitconvert

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve_once_and_match_submodules():
    names = eitconvert.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(eitconvert, name), name
    union = {"__version__"}
    for info in pkgutil.iter_modules(eitconvert.__path__):
        if info.name == "cli":  # the command-line entry point exports nothing
            continue
        module = importlib.import_module(f"eitconvert.{info.name}")
        union.update(module.__all__)
    assert set(names) == union


def test_readme_python_blocks_run():
    """Every fenced python block of README.md, in order, in one fresh
    namespace: a later block reads names an earlier one defined, as a
    reader running them would."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
