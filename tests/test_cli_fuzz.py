"""Property tests of the command line, run in-process.

Every argv vector and every ``--pairs`` file ends in exit 0, 64 (usage) or
65 (data), or 1 for a failed ``verify``, and never in an exception, which at
the command line is a traceback with exit 1. The last two tests check
results instead: pair tables cut from one joint distribution always have a
joint (``joint3``) and are always feasible (``joint4``).

Each example stays cheap: scan grids are coarse (>= 5 degrees) or so fine
that ``SCAN_MAX_POINTS`` rejects them before any work, ``-n`` and
``--trials`` are at most a few thousand, ``--threads`` at most 2 and
``--step`` at least 1e-3. Like every property test, these run under the
profile that conftest.py loads: derandomized, with no example database and
no deadline.
"""

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

import hypothesis.strategies as st
from hypothesis import example, given, settings

from eprbell.cli import main

from conftest import run_python


class PairsFile(bytes):
    """File content in an argv vector; the test writes it and passes its path."""


class InDir(str):
    """A file name in an argv vector; the test passes it as a path in its own
    directory, so that no example writes elsewhere."""


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help prints and exits 0
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Values for the float options: well formed, malformed, non-finite, out of
# range, and one non-UTF-8 byte as the shell passes it (surrogate escape).
BAD = ["", "abc", "nan", "inf", "-inf", "1e400", "-1e400", "0x10", "1,2", "\udcff"]
ANGLE = st.sampled_from(["0", "30", "60", "120", "-45", "22.5", "0.7", "1e-300", "1e308", "-1e308"] + BAD)
NUMBER = st.sampled_from(["0", "1", "-1", "0.5", "-0.7071", "0.6", "0.8", "1.0000001", "2",
                          "1e-200", "1e200", "nan", "inf", "-inf", "abc", ""])
INT = st.sampled_from(["-1", "0", "1", "2", "abc", "1.5", "", "1e3"])


def listed(values, max_size=4):
    return st.lists(values, max_size=max_size).map(",".join)


def option(name, values=None):
    return st.just([name]) if values is None else values.map(lambda v: [name, v])


# Options that no subcommand takes, or takes without its value.
JUNK = st.sampled_from([["--radians"], ["--format", "csv"], ["--format", "xml"], ["--pair"],
                        ["--bogus"], ["-h"], ["\udcff"], ["--theta"],
                        ["-o", InDir("out.txt")], ["--output", InDir("absent/out.txt")]])


def command(name, *options, positional=None, required=()):
    """argv vectors for one subcommand: usually its required options, then
    up to four options and now and then one JUNK option."""
    head = st.just([name]) if positional is None else positional.map(lambda p: [name, p])
    need = st.tuples(*required).map(lambda parts: [t for part in parts for t in part])
    parts = st.tuples(
        head,
        st.one_of(need, need, need, st.just([])),
        st.lists(st.one_of(*options), max_size=4).map(lambda ps: [t for p in ps for t in p]),
        st.one_of(st.just([]), st.just([]), JUNK),
    )
    return parts.map(lambda ps: [t for part in ps for t in part])


def _normalized(weights):
    total = sum(weights)
    return [w / total for w in weights] if total > 0 else [1.0 / len(weights)] * len(weights)


def _marginal(cells, dims, first, second):
    m = [0.0] * 4
    for index, v in zip(itertools.product((0, 1), repeat=dims), cells):
        m[2 * index[first] + index[second]] += v
    return dict(zip(("pp", "pm", "mp", "mm"), m))


def _pairs3(q):
    return {k: _marginal(q, 3, *axes) for k, axes in (("AB", (0, 1)), ("BC", (1, 2)), ("CA", (2, 0)))}


# Cell weights with many zeros, so that tables land on the boundary.
WEIGHT = st.one_of(st.sampled_from([0.0, 0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
# Pair tables of one joint over (A, B, C) or (A, B, C, D), so that the
# marginals agree and the input reaches the feasibility code.
JOINT3 = st.lists(WEIGHT, min_size=8, max_size=8).map(_normalized).map(_pairs3)
JOINT4 = st.lists(WEIGHT, min_size=16, max_size=16).map(_normalized).map(
    lambda q: {k: _marginal(q, 4, *axes)
               for k, axes in (("AB", (0, 1)), ("AC", (0, 2)), ("DB", (3, 1)), ("DC", (3, 2)))})
CELL = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),  # json writes NaN and Infinity
    st.integers(-10 ** 400, 10 ** 400),
    # Huge cells of one sign, so that two of them in one table overflow its sum.
    st.sampled_from([0.25, 0, 1, -0.25, 1.5, 1e308, -1e308, sys.float_info.max, "0.25", True, None,
                     [0.25], {"x": 1}]),
)
HUGE = st.sampled_from([1e308, sys.float_info.max])
MALFORMED = st.one_of(
    # Two huge cells of one sign: the table's sum passes the float range.
    st.builds(lambda keys, x, y, sign: {**dict.fromkeys(keys, 0.0), keys[0]: sign * x, keys[1]: sign * y},
              st.permutations(("pp", "pm", "mp", "mm")), HUGE, HUGE, st.sampled_from([1.0, -1.0])),
    # Finite numbers only, so that the table passes the type checks and
    # reaches the range and sum checks.
    st.fixed_dictionaries(dict.fromkeys(("pp", "pm", "mp", "mm"), st.sampled_from(
        [0.0, 0.25, 0.5, 1.5, -0.25, 5e-324, 1e308, -1e308, sys.float_info.max]))),
    st.fixed_dictionaries(dict.fromkeys(("pp", "pm", "mp", "mm"), CELL)),
    st.dictionaries(st.sampled_from(["pp", "pm", "mp", "mm", "PP", ""]), CELL, max_size=5),
    CELL,
)
TABLE = st.one_of(
    st.lists(WEIGHT, min_size=4, max_size=4).map(_normalized).map(
        lambda c: dict(zip(("pp", "pm", "mp", "mm"), c))),
    MALFORMED,
)
PAIRS = st.dictionaries(st.sampled_from(["AB", "BC", "CA", "AC", "DB", "DC", "ab"]), TABLE, max_size=6)


def broken(joint, keys):
    """A joint's pair tables with the table under one of ``keys``, the keys a
    command reads, replaced by a MALFORMED one: every table before it is
    valid, so the command reads the broken table whichever key it is under."""
    return st.tuples(joint, st.sampled_from(keys), MALFORMED).map(lambda p: {"pairs": {**p[0], p[1]: p[2]}})


BROKEN = {"joint3": broken(JOINT3, ("AB", "BC", "CA")), "joint4": broken(JOINT4, ("AB", "AC", "DB", "DC"))}
DOC = st.one_of(
    JOINT3.map(lambda p: {"pairs": p}),
    JOINT4.map(lambda p: {"pairs": p}),
    PAIRS.map(lambda p: {"pairs": p}),
    *BROKEN.values(),
    st.one_of(st.none(), st.integers(), st.lists(st.integers(), max_size=2), PAIRS,
              st.just({"pairs": [1, 2]}), st.just({"pairs": "AB"})),
)
CONTENT = st.one_of(
    DOC.map(lambda d: json.dumps(d).encode()),
    st.binary(max_size=40),
    st.sampled_from([b"", b"\xff\xfe{}", b'{"pairs": {"AB": {"pp": NaN}}}', b"Infinity",
                     b"[" * 5000, b"1" * 5000, b'{"pairs": {"AB": 1e400}}']),
).map(PairsFile)
PAIRS_OPTION = st.one_of(CONTENT.map(lambda c: ["--pairs", c]), st.just(["--pairs", InDir("absent.json")]))

THETA = option("--theta", ANGLE)
INEQUALITY = option("--inequality", st.sampled_from(["bell", "chsh", "ghz"]))
RESOLUTIONS = {
    "--resolution-deg": ["5", "7.5", "11.25", "22.5", "22.6", "45", "0", "-5", "1e-3", "1e-300", "5e-324"] + BAD,
    "--resolution-rad": ["0.1", "0.39269908169872414", "0.4", "1e-5", "1e-320", "5e-324", "-0.1"] + BAD,
}
RESOLUTION = st.one_of(*(option(flag, st.sampled_from(values)) for flag, values in RESOLUTIONS.items()))
SAMPLES = option("-n", st.sampled_from(["10", "1000", "4096", "-1", "0", "abc"]))
SEED = option("--seed", st.sampled_from(["0", "7", "-1", str(2 ** 64), "abc"]))
STEP = option("--step", st.sampled_from(
    ["1e-3", "0.01", "0.5", "1", "2", "2.5", "0", "-1", "1e-9", "5e-324"] + BAD))

COMMANDS = {
    "dist": command(
        "dist", THETA, option("--a", listed(NUMBER)), option("--b", listed(NUMBER)),
        option("--local"), option("--radians"), option("--format", st.sampled_from(["json", "csv", "xml"])),
    ),
    "ineq": command(
        "ineq", option("--angles", listed(ANGLE)), option("--cov", listed(NUMBER)), option("--radians"),
        positional=st.sampled_from(["bell", "chsh", "ghz", "--angles"]),
    ),
    "scan": command("scan", INEQUALITY, RESOLUTION, required=(INEQUALITY, RESOLUTION)),
    "joint3": command(
        "joint3", option("--qm"), option("--angles", listed(ANGLE)), PAIRS_OPTION,
        option("--mu3", st.sampled_from(["0", "0.5", "-1", "1", "1.5"] + BAD)), option("--radians"),
    ),
    "joint4": command("joint4", PAIRS_OPTION, required=(PAIRS_OPTION,)),
    "simulate": command(
        "simulate", THETA, SAMPLES, SEED, option("--mode", st.sampled_from(["local", "singlet", "weird"])),
        option("--threads", INT), option("--radians"), required=(THETA, SAMPLES, SEED),
    ),
    "info": command("info", STEP, required=(STEP,)),
    "verify": command(
        "verify", option("--trials", st.sampled_from(["1", "2", "50", "1000", "3000", "0", "-1", "abc"])), SEED,
    ),
}
EXAMPLES = {"scan": 60, "simulate": 60, "verify": 30}
# Top-level vectors: no subcommand, unknown ones, a subcommand alone.
TOP = st.lists(st.sampled_from(["", "frobnicate", "-h", "--bogus", "\udcff", *COMMANDS]), max_size=2)


def materialize(argv, directory) -> list[str]:
    """``argv`` with each PairsFile written to ``directory`` and each InDir
    replaced by its path there."""
    out = []
    for k, token in enumerate(argv):
        if isinstance(token, PairsFile):
            path = directory / f"pairs{k}.json"
            path.write_bytes(token)
            token = str(path)
        elif isinstance(token, InDir):
            token = str(directory / token)
        out.append(token)
    return out


def check(argv, directory):
    argv = materialize(argv, directory)
    code, _, err = run(argv)
    allowed = {0, 64, 65} | ({1} if argv[:1] == ["verify"] else set())
    assert code in allowed, (argv, code, err)
    assert "Traceback" not in err, (argv, err)


# Inputs that these tests have found, each run first on every invocation
# whatever examples Hypothesis draws, which a Hypothesis release can change.
FOUND_ARGV = {"scan": [["scan", "--inequality", "bell", "--resolution-rad", r] for r in ("1e-320", "5e-324")]}
FOUND_CONTENT = [
    b"[" * 5000,  # nested too deep for json
    b"1" * 5000,  # more than 4,300 digits
    json.dumps({"pairs": {"AB": {"pp": 10 ** 399, "pm": 0, "mp": 0, "mm": 0}}}).encode(),  # a 400-digit cell
    # Two finite cells whose sum passes the float range; both commands read AB first.
    json.dumps({"pairs": {"AB": {"pp": 1e308, "pm": 1e308, "mp": 0, "mm": 0}}}).encode(),
]
FOUND_JOINT3 = [
    [0.2, 0.3, 0.5, 0, 0, 0, 0, 0],  # the mu3 interval is one point, which rounding put out of order
    [0, 0.20442119186048707, 0.26519293604650435, 0, 0, 0.5303858720930087, 0, 0],  # <BC> is -1 - 2^-52
]


def pinned(name, values):
    """A decorator: one ``@example`` for each of ``values``, passed as ``name``."""
    def decorate(test):
        for value in values:
            test = example(**{name: value})(test)
        return test
    return decorate


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_subcommand_exit_codes(name, tmp_path_factory):
    directory = tmp_path_factory.mktemp(f"fuzz-{name}")

    @settings(max_examples=EXAMPLES.get(name, 150))
    @given(argv=COMMANDS[name])
    def inner(argv):
        check(argv, directory)

    pinned("argv", FOUND_ARGV.get(name, ()))(inner)()


@pytest.mark.parametrize("inequality", ["bell", "chsh"])
@pytest.mark.parametrize("flag, value", [(f, v) for f, values in RESOLUTIONS.items() for v in values])
def test_scan_every_resolution(inequality, flag, value, tmp_path):
    """Each resolution value with each inequality: the random draws above
    reach only some of these pairs."""
    check(["scan", "--inequality", inequality, flag, value], tmp_path)


def test_top_level_exit_codes(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz-top")

    @settings(max_examples=50)
    @given(argv=TOP)
    def inner(argv):
        check(argv, directory)

    inner()


@pytest.mark.parametrize("name", ["joint3", "joint4"])
def test_pairs_file_exit_codes(name, tmp_path_factory):
    """The same bound, with every example reading a generated pair file, and
    half of them a file whose one broken table this command reads."""
    directory = tmp_path_factory.mktemp(f"fuzz-pairs-{name}")

    @settings(max_examples=300)
    @given(content=st.one_of(CONTENT, BROKEN[name].map(lambda d: PairsFile(json.dumps(d).encode()))))
    def inner(content):
        check([name, "--pairs", content], directory)

    pinned("content", map(PairsFile, FOUND_CONTENT))(inner)()


@settings(max_examples=300)
@given(pairs=JOINT3)
@pinned("pairs", map(_pairs3, FOUND_JOINT3))
def test_marginals_of_a_joint3_exist(pairs, tmp_path_factory):
    """Pair tables cut from one joint over (A, B, C) always have a joint,
    also on the boundary, where rounding alone used to empty the mu3 interval."""
    path = tmp_path_factory.getbasetemp() / "joint3.json"
    path.write_text(json.dumps({"pairs": pairs}))
    code, out, err = run(["joint3", "--pairs", str(path)])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["exists"] and doc["valid"] and not doc["mu3_interval"]["empty"], doc


@settings(max_examples=300)
@given(pairs=JOINT4)
def test_marginals_of_a_joint4_are_feasible(pairs, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "joint4.json"
    path.write_text(json.dumps({"pairs": pairs}))
    code, out, err = run(["joint4", "--pairs", str(path)])
    assert code == 0, err
    assert json.loads(out)["feasible"] is True


# A pytest plugin for a subprocess: it appends the argv of every example that
# this module checks to the file named by $FUZZ_EXAMPLES_OUT, one repr a line.
RECORDER = """
import os, sys

def pytest_collection_finish(session):
    fuzz = sys.modules["test_cli_fuzz"]
    check = fuzz.check

    def recording(argv, directory):
        with open(os.environ["FUZZ_EXAMPLES_OUT"], "a") as out:
            out.write(repr(argv) + "\\n")
        return check(argv, directory)

    fuzz.check = recording
"""


def test_examples_independent_of_earlier_imports(tmp_path):
    """The joint4 fuzz test draws the same examples alone as after pytest has
    imported test_verify.py, which loads eprbell.verify. Hypothesis mixes the
    literals of every loaded local module into its draws, so this holds only
    because conftest.py loads every eprbell submodule before any test runs."""
    (tmp_path / "example_recorder.py").write_text(RECORDER)
    tests = Path(__file__).resolve().parent
    drawn = []
    for earlier in ([], [str(tests / "test_verify.py")]):
        out = tmp_path / f"examples{len(drawn)}.txt"
        proc = run_python(
            "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "example_recorder",
            *earlier, str(tests / "test_cli_fuzz.py"), "-k", "test_subcommand_exit_codes and joint4",
            paths=[tmp_path], env={"FUZZ_EXAMPLES_OUT": str(out)}, cwd=tests.parent, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        drawn.append(out.read_text().splitlines())
    assert len(drawn[0]) == EXAMPLES.get("joint4", 150)
    assert drawn[0] == drawn[1]
