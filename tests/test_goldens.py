"""The golden table, tests/goldens.json, pins every subcommand and demo, and
tests/golden_check.py passes as it runs under an interpreter without numpy.
Each entry of the table is also checked on its own, by the test_golden_bytes
tests of test_cli.py and by test_demos.py."""

import argparse
import shlex

import golden_check
from golden_check import DEMOS, GOLDENS, check_command, run_python

from eprbell.cli import build_parser


def test_every_command_and_demo_is_pinned():
    """A subcommand or a demo without an entry in the table fails here."""
    sub = next(action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction))
    assert sorted({entry["argv"][0] for entry in GOLDENS["commands"]}) == sorted(sub.choices)
    assert sorted(entry["script"] for entry in GOLDENS["demos"]) == sorted(p.name for p in DEMOS.glob("*.py"))


def test_without_numpy():
    """With numpy blocked, the script skips the entries that need it, runs
    demos 01, 04 and 05 with numpy blocked too, and every other entry matches."""
    entries = GOLDENS["commands"] + GOLDENS["demos"]
    skipped = sum(entry["numpy"] for entry in entries)
    proc = run_python(golden_check.__file__, blocked=["numpy"])
    assert proc.returncode == 0 and proc.stderr == "", proc.stdout + proc.stderr
    assert proc.stdout.endswith(f": {len(entries) - skipped} checked, {skipped} skipped, 0 mismatches\n")


def test_mismatch_names_the_entry(tmp_path):
    """A wrong pin gives one line for stdout and one for -o, each naming the
    command, the sha256 of its bytes and the pin."""
    argv, digest = GOLDENS["commands"][0]["argv"], GOLDENS["commands"][0]["sha256"]
    wrong = "0" * 64
    assert check_command(argv, wrong, tmp_path) == [
        f"eprbell {shlex.join(argv)}{way}: sha256 {digest}, pinned {wrong}" for way in ("", " -o FILE")
    ]
