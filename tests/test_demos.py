"""Each demo runs as a user runs it, ``python demos/NN_name.py`` with the
package importable: it exits 0, writes nothing to stderr, and prints the
bytes pinned below, which were recorded before the library calls under the
demos changed."""

import hashlib
from pathlib import Path

import pytest

from conftest import run_python

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# sha256 of stdout. Demo 03's counts come from numpy's generators, like the
# simulator goldens: recorded with numpy 2.4.6 on a 2-vCPU Intel Xeon.
DIGESTS = {
    "01_singlet_distributions.py": "a4010f73a23471012f3a786961020cdbdbad1d78c2cf2f407f0a85538e19de53",
    "02_bell_chsh_violations.py": "3b8d08483a6c0070579848ce2df604ef09f337ceb50f7f484076e6dad67bf2b8",
    "03_hidden_variable_simulation.py": "d76b1554076016cee014791f96bfe8abf52afa29426371c49b8bc621340135b4",
    "04_joint_existence.py": "6599efb8973607111b1d7dc8bc0e9a86b9ad552d741f879d255ab030551014bb",
    "05_information_curve.py": "fe578f25f2e68dd83a9c891356988cc4a79964c90171d9967510f0e984539fc9",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


def check_demo(name, blocked=()):
    """Run one demo, with the modules in ``blocked`` unimportable, and compare its output with the pinned digest."""
    proc = run_python(DEMOS / name, blocked=blocked, text=False)
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_runs(name):
    check_demo(name)


@pytest.mark.parametrize("name", ["01_singlet_distributions.py", "04_joint_existence.py", "05_information_curve.py"])
def test_demo_without_numpy(name):
    """The demos that read cells only: with every numpy import failing, each
    prints the same bytes."""
    check_demo(name, blocked=["numpy"])
