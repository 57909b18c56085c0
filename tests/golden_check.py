"""Check every output pinned in tests/goldens.json: each command's stdout and
its ``-o`` file, and each demo's stdout, against the table's sha256.

    python tests/golden_check.py

runs under any interpreter, with this checkout's ``src`` first on the path.
Where numpy cannot be imported it skips the entries marked ``"numpy": true``
and runs the demos with numpy blocked. It prints one line per mismatch, then
the count of entries checked and skipped, and exits 1 on any mismatch. It
needs only the standard library and takes no options.

pytest does not collect this file. The golden tests import its checks, and
tests/conftest.py takes ``run_python``, which starts every child interpreter
the tests need, from it."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = str(TESTS.parent / "src")
DEMOS = TESTS.parent / "demos"
GOLDENS = json.loads((TESTS / "goldens.json").read_text())


def run_python(*args, paths=(), env=None, blocked=(), popen=False, **options):
    """``python *args`` in a child interpreter: subprocess.run, or with
    ``popen`` subprocess.Popen, given ``options``. Unless ``options`` say
    otherwise, stdout and stderr are text pipes and a run times out after
    two minutes. The child's PYTHONPATH is SRC, then ``paths``, then this
    process's; ``env`` sets further variables, and a None value unsets one.
    Each module in ``blocked`` is None in the child's sys.modules before the
    target runs, so importing it raises ImportError; the target is then a
    ``-c`` program or a script path."""
    environ = {**os.environ, **(env or {})}
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, *map(str, paths), os.environ.get("PYTHONPATH"))))
    environ = {name: value for name, value in environ.items() if value is not None}
    if blocked:
        prelude = f"import sys; sys.modules.update(dict.fromkeys({list(blocked)!r}))\n"
        if args[0] == "-c":
            args = ("-c", prelude + args[1], *args[2:])
        else:  # the script sees the sys.argv it gets when run directly
            args = ("-c", prelude + "import runpy; del sys.argv[0]; runpy.run_path(sys.argv[0], run_name='__main__')",
                    *args)
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True} | options
    if popen:
        return subprocess.Popen([sys.executable, *args], env=environ, **options)
    return subprocess.run([sys.executable, *args], env=environ, **{"timeout": 120} | options)


def write_pairs(path, name) -> None:
    """Write the table's pair file ``name`` to ``path``."""
    Path(path).write_text(json.dumps({"pairs": GOLDENS["pairs"][name]}))


def with_pair_files(directory, argv) -> list[str]:
    """``argv`` with a ``--pairs`` name from the table written to a file in ``directory``."""
    argv = list(argv)
    if "--pairs" in argv:
        k = argv.index("--pairs") + 1
        path = Path(directory) / f"{argv[k]}.json"
        write_pairs(path, argv[k])
        argv[k] = str(path)
    return argv


def _mismatch(name, code, stray, data, sha256) -> list[str]:
    """The line for a run that did not exit 0 with no ``stray`` text and the pinned bytes, if any."""
    if code or stray:
        return [f"{name}: exit {code}, wrote {stray[:200]!r}"]
    got = hashlib.sha256(data).hexdigest()
    return [f"{name}: sha256 {got}, pinned {sha256}"] if got != sha256 else []


def check_command(argv, sha256, directory) -> list[str]:
    """Run ``eprbell argv`` through eprbell.cli.main twice, once to stdout and
    once with ``-o`` to a file in ``directory``: the mismatch lines."""
    from eprbell.cli import main

    name = f"eprbell {shlex.join(argv)}"
    argv = with_pair_files(directory, argv)
    path = Path(directory) / "output"
    found = []
    for way, extra in (("", []), (" -o FILE", ["-o", str(path)])):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + extra)
        if extra:  # stdout stays empty
            found += _mismatch(name + way, code, err.getvalue() + out.getvalue(), path.read_bytes(), sha256)
        else:
            found += _mismatch(name + way, code, err.getvalue(), out.getvalue().encode(), sha256)
    return found


def check_demo(script, sha256, blocked=()) -> list[str]:
    """Run ``python demos/<script>`` in a child, with the modules in ``blocked``
    unimportable: the mismatch line, if any."""
    proc = run_python(DEMOS / script, blocked=blocked, text=False)
    return _mismatch(f"demos/{script}", proc.returncode, proc.stderr.decode(errors="replace"), proc.stdout, sha256)


def main() -> int:
    numpy = importlib.util.find_spec("numpy") is not None
    found, checked, skipped = [], 0, 0
    with tempfile.TemporaryDirectory() as directory:
        for entry in GOLDENS["commands"] + GOLDENS["demos"]:
            if entry["numpy"] and not numpy:
                skipped += 1
                continue
            checked += 1
            if "argv" in entry:
                found += check_command(entry["argv"], entry["sha256"], directory)
            else:
                found += check_demo(entry["script"], entry["sha256"], blocked=() if numpy else ["numpy"])
    for line in found:
        print(line)
    print(f"Python {platform.python_version()}: {checked} checked, {skipped} skipped, {len(found)} mismatches")
    return 1 if found else 0


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    sys.exit(main())
