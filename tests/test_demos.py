"""Each demo runs as a user runs it, ``python demos/NN_name.py`` with the
package importable: it exits 0, writes nothing to stderr, and prints the
bytes tests/goldens.json pins, which were recorded before the library calls
under the demos changed."""

import pytest

from golden_check import GOLDENS, check_demo

DIGESTS = {demo["script"]: demo["sha256"] for demo in GOLDENS["demos"]}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_runs(name):
    assert check_demo(name, DIGESTS[name]) == []
