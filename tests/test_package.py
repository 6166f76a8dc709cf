"""The package's public API is the union of its submodules' lists."""

import importlib
import pkgutil

import eitconvert


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
