import importlib.metadata
import pathlib
import tomllib

from packaging.specifiers import SpecifierSet

from eprbell import cli

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_python_floor_supported_by_numpy():
    """Every Python that ``requires-python`` admits can install the numpy
    this package needs: numpy is the only dependency, so a floor below its
    own leaves installs that cannot resolve."""
    ours = SpecifierSet(tomllib.loads(PYPROJECT.read_text())["project"]["requires-python"])
    numpy = SpecifierSet(importlib.metadata.metadata("numpy")["Requires-Python"])
    unresolvable = [v for v in (f"3.{n}" for n in range(8, 15)) if v in ours and v not in numpy]
    assert unresolvable == []


def test_console_script_is_the_entry_function():
    """The installed ``eprbell`` runs ``cli.entry``, as ``python -m eprbell.cli``
    does: ``main``, then a frozen collector at exit."""
    target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["eprbell"]
    assert importlib.metadata.EntryPoint("eprbell", target, "console_scripts").load() is cli.entry
