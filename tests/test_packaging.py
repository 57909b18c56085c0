import importlib.metadata
import os
import pathlib
import re
import tomllib

import pytest
from hypothesis import HealthCheck, settings
from packaging.specifiers import SpecifierSet

from eprbell import cli

from conftest import FRESH_CHILD, run_python

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


def test_one_hypothesis_profile():
    """Every property test runs under the profile that conftest.py loads:
    the same examples on every run, no example database and no deadline."""
    default = settings.default
    assert default.derandomize is True and default.database is None and default.deadline is None
    assert set(default.suppress_health_check) == {HealthCheck.too_slow, HealthCheck.data_too_large}


@pytest.mark.parametrize("ci", [None, "true"])
def test_profile_with_and_without_ci(ci):
    """Hypothesis picks its own "ci" profile where $CI is set; conftest.py's
    profile replaces either built-in one."""
    proc = run_python("-m", "pytest", "-q", "-p", "no:cacheprovider", f"{__file__}::test_one_hypothesis_profile",
                      env={"CI": ci}, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# A falsified property test, then a plain one.
PLANTED = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(n):
    assert n < 10


def test_plain():
    pass
"""


def test_falsified_example_is_reported(tmp_path):
    """Under this project's pytest settings a falsified example fails its test
    and the session goes on: the plugin that reports it may raise a warning
    that filterwarnings would otherwise turn into an INTERNALERROR."""
    (tmp_path / "test_planted.py").write_text(PLANTED)
    proc = run_python("-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
                      "--rootdir", str(tmp_path), str(tmp_path / "test_planted.py"), cwd=tmp_path)
    output = proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in output and "INTERNALERROR" not in output, output


@pytest.mark.fresh_interpreter
def test_fresh_interpreter_runs_alone(request):
    """A test marked fresh_interpreter runs in a child interpreter, in a
    pytest session that holds it alone."""
    assert os.environ.get(FRESH_CHILD) == "1"
    assert request.session.items == [request.node]
