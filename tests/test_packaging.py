import importlib.metadata
import pathlib
import re
import tomllib

from packaging.specifiers import SpecifierSet

from eprbell import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_python_floor_supported_by_numpy():
    """Every Python that ``requires-python`` admits can install the numpy
    this package needs: numpy is the only dependency, so a floor below its
    own leaves installs that cannot resolve."""
    ours = SpecifierSet(tomllib.loads(PYPROJECT.read_text())["project"]["requires-python"])
    numpy = SpecifierSet(importlib.metadata.metadata("numpy")["Requires-Python"])
    unresolvable = [v for v in (f"3.{n}" for n in range(8, 15)) if v in ours and v not in numpy]
    assert unresolvable == []


def test_ci_matrix_covers_numpy_pythons():
    """The workflow's ``python-version`` list holds every Python 3.N that the
    installed numpy declares in its classifiers and ``requires-python`` admits."""
    ours = SpecifierSet(tomllib.loads(PYPROJECT.read_text())["project"]["requires-python"])
    classifiers = importlib.metadata.metadata("numpy").get_all("Classifier")
    pattern = re.compile(r"Programming Language :: Python :: (3\.\d+)")
    declared = [m[1] for c in classifiers if (m := pattern.fullmatch(c))]
    matrix = re.findall(r'"([^"]+)"', re.search(r"python-version: \[([^\]]*)\]", WORKFLOW.read_text())[1])
    assert [v for v in declared if v in ours and v not in matrix] == []


def test_console_script_is_the_entry_function():
    """The installed ``eprbell`` runs ``cli.entry``, as ``python -m eprbell.cli``
    does: ``main``, then a frozen collector at exit."""
    target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["eprbell"]
    assert importlib.metadata.EntryPoint("eprbell", target, "console_scripts").load() is cli.entry
