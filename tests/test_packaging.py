import importlib.metadata
import pathlib
import tomllib

from packaging.specifiers import SpecifierSet

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_python_floor_supported_by_numpy():
    """Every Python that ``requires-python`` admits can install the numpy
    this package needs: numpy is the only dependency, so a floor below its
    own leaves installs that cannot resolve."""
    ours = SpecifierSet(tomllib.loads(PYPROJECT.read_text())["project"]["requires-python"])
    numpy = SpecifierSet(importlib.metadata.metadata("numpy")["Requires-Python"])
    unresolvable = [v for v in (f"3.{n}" for n in range(8, 15)) if v in ours and v not in numpy]
    assert unresolvable == []
