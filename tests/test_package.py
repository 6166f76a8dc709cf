"""The package's public API is the union of its submodules' lists, the
README's Python examples run, and the import loads no process pool."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
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


def test_import_loads_no_process_pool():
    """concurrent.futures is imported by a parallel sweep alone: a fresh
    interpreter's import eitconvert leaves it out of sys.modules."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(eitconvert.__file__).parents[1]))
    probe = ("import sys, eitconvert; "
             "print(sorted(m for m in sys.modules "
             "if m.startswith('concurrent')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
