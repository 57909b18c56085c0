"""Command-line front end.

``build_parser`` declares what a command line means; ``_resolve`` checks
companion options and converts degrees to radians, once. Each ``_cmd_*``
handler takes the parsed values, computes, and returns its output; ``main``
alone writes it and maps errors to exit codes by type: 64 for an
``InvalidInputError`` (usage), 65 for any other ``EprBellError`` or a stdout
that cannot be written, 1 for a failed ``verify`` check.

One loading rule: this module loads only the numpy-free core that every
command shares (``errors``, ``geometry``, ``spincore``), and each handler
imports the module it computes with when it runs. So ``dist`` loads nothing
more, and only ``scan``, ``simulate`` and ``verify`` load numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
from dataclasses import fields

from .errors import EprBellError, InvalidInputError
from .geometry import Direction
from .spincore import PairDist, cell_key, covariance, local_pair_dist, qm_pair_dist

EXIT_OK = 0
EXIT_USAGE = 64
EXIT_DATA = 65


class UsageError(InvalidInputError):
    """A bad command line: exit 64."""


class DataError(EprBellError):
    """A file that cannot be read or used, or output that cannot be written: exit 65."""


class _StoreOnce(argparse.Action):
    """``store`` for every option that takes a value: a second value is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if self.dest in parser._stored:
            raise argparse.ArgumentError(self, "given more than once")
        parser._stored.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _StoreOnce)  # the default action, argparse's "store"

    def parse_known_args(self, args=None, namespace=None):
        self._stored = set()  # dests given so far in this parse
        return super().parse_known_args(args, namespace)

    def error(self, message):  # argparse would exit(2); we want 64
        raise UsageError(message)

    def _print_message(self, message, file=None):
        # argparse drops a write error here, so `--help > /dev/full` would
        # exit 0 with nothing written; ``main`` maps it to 65.
        if message:
            file = file or sys.stderr
            file.write(message)
            file.flush()


def _finite_float(text: str) -> float:
    """argparse type for every float option: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _floats(text: str) -> tuple[float, ...]:
    """argparse type for a comma-separated list: each value as ``_finite_float``."""
    return tuple(_finite_float(v) for v in text.split(","))


def _finite_degrees(text: str) -> float:
    """argparse type for an angle given in degrees only (``--resolution-deg``):
    the angle in radians."""
    return math.radians(_finite_float(text))


def _count(values: tuple[float, ...], n: int, what: str) -> tuple[float, ...]:
    if len(values) != n:
        raise UsageError(f"{what}: expected {n} values, got {len(values)}")
    return values


def _coplanar_phis(angles: tuple[float, ...], n: int) -> tuple[float, ...]:
    """Azimuths of the coplanar directions after phi_a = 0 when each turns by
    the next of ``n`` increments: their running sums, left to right (sum()
    would compensate on Python >= 3.12). Finite increments can still sum to
    an infinity, which no cosine takes: a usage error."""
    phis = tuple(itertools.accumulate(_count(angles, n, "--angles")))
    if not all(map(math.isfinite, phis)):
        raise UsageError(f"--angles: the angles must sum to a finite value, got {phis[-1]!r}")
    return phis


def _direction(values: tuple[float, ...], what: str) -> Direction:
    x, y, z = _count(values, 3, what)
    try:
        return Direction(x, y, z)
    except EprBellError as exc:
        raise UsageError(f"{what}: {exc}")


def _emit(out, args):
    """Write a handler's output to the ``-o`` file or stdout: a dict as JSON,
    or as one CSV row under ``--format csv``; text (a string or an iterable
    of strings) as it comes."""
    if isinstance(out, dict):
        if getattr(args, "format", "json") == "csv":
            out = _csv(list(out), [list(out.values())])
        else:
            out = json.dumps(out, indent=2) + "\n"
    chunks = (out,) if isinstance(out, str) else out
    if not args.output:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # a write error shows here, not in the exit-time flush
        return
    try:
        with open(args.output, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise DataError(f"cannot write {args.output}: {exc}")


def _csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _verdict(v) -> dict:
    return {"lhs": v.lhs, "bound": v.bound, "satisfied": v.satisfied}


# Longest pair file read, so that memory stays bounded for any path, even
# /dev/zero; a pair file holds a few hundred bytes.
_PAIR_FILE_MAX_BYTES = 1 << 20


def _load_pair_file(path: str, keys: tuple[str, ...]) -> dict[str, PairDist]:
    try:
        with open(path, "rb") as fh:
            data = fh.read(_PAIR_FILE_MAX_BYTES + 1)
        if len(data) > _PAIR_FILE_MAX_BYTES:
            raise DataError(f"{path} is longer than {_PAIR_FILE_MAX_BYTES} bytes")
        doc = json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}")
    except (ValueError, RecursionError) as exc:  # also too deep or too long a number
        raise DataError(f"{path} is not valid JSON: {exc}")
    pairs = doc.get("pairs") if isinstance(doc, dict) else None
    if not isinstance(pairs, dict):
        raise DataError(f'{path}: expected an object with a "pairs" key')
    out = {}
    for key in keys:
        if key not in pairs:
            raise DataError(f"{path}: missing pair table {key!r}")
        try:
            out[key] = PairDist.from_mapping(pairs[key])
        except EprBellError as exc:
            raise DataError(f"{path}: pair table {key!r}: {exc}")
    return out


# --- subcommands ---


def _cmd_dist(args) -> dict:
    if args.a is not None:
        a, b = _direction(args.a, "--a"), _direction(args.b, "--b")
    else:
        a, b = Direction.from_angle(0.0), Direction.from_angle(args.theta)
    dist = local_pair_dist(a, b) if args.local else qm_pair_dist(a, b)
    return {**dist.to_mapping(), "covariance": covariance(dist)}


def _cmd_ineq(args) -> dict:
    from .inequalities import CovarianceQuad, CovarianceTriple, bell_1964, chsh

    # Each inequality's covariance type (its fields in argument order) and verdict.
    inequalities = {"bell": (CovarianceTriple, bell_1964), "chsh": (CovarianceQuad, chsh)}
    covariances, verdict = inequalities[args.which]
    n = len(fields(covariances))
    if args.angles is not None:
        # Coplanar increments (bell: b, c; chsh: b, d, c), so the a-c angle
        # is their sum and the rest are the increments themselves.
        *_, t_ac = _coplanar_phis(args.angles, n - 1)
        t = args.angles
        values = [-math.cos(v) for v in (t[0], t_ac, *t[1:])]
    else:
        values = _count(args.cov, n, "--cov")
    return {"inequality": args.which, **_verdict(verdict(covariances(*values)))}


# Violation rows per written chunk: the CSV is never built as one string.
_SCAN_CHUNK_ROWS = 1 << 14
# Violation rows whose distinct lhs values are formatted together, a whole
# number of chunks. One memo over the whole scan would hold a string per
# distinct value of the grid: at SCAN_MAX_POINTS (`scan bell` at 0.1244
# degrees, 1.7M distinct values) it took the peak RSS from 187 to 330 MB.
_SCAN_WINDOW_ROWS = _SCAN_CHUNK_ROWS << 4


def _scan_csv(result):
    """Header, violation rows and the max row of a scan, chunk by chunk, in
    the text csv.writer gives (floats as repr).

    Each text is formatted once and looked up. Angles take only n values.
    Violation rows hold few distinct lhs values, so each window of
    ``_SCAN_WINDOW_ROWS`` rows formats each of its distinct values once and
    its chunks take each row's text by its index into them (``np.unique``
    with ``return_inverse``). The bytes are those of one ``repr`` per row:
    ``repr`` is a function of the float, and ``np.unique`` merges only equal
    floats, except NaN and the two signed zeros, none of which is a
    violation lhs (each is greater than bound + VIOLATION_SLACK >= 1). Each
    chunk's cells fill one object array that is joined once."""
    import numpy as np

    degrees = np.array([repr(math.degrees(g)) + "," for g in result.grid.tolist()], dtype=object)
    first = "violation," + degrees  # object array: elementwise str +
    dims = result.violation_index.shape[1]
    yield ",".join(["kind", "phi_b_deg", "phi_c_deg", "phi_d_deg"][:dims + 1] + ["lhs"]) + "\n"
    for window in range(0, len(result.violation_lhs), _SCAN_WINDOW_ROWS):
        window_index = result.violation_index[window:window + _SCAN_WINDOW_ROWS]
        window_lhs = result.violation_lhs[window:window + _SCAN_WINDOW_ROWS]
        values, inverse = np.unique(window_lhs, return_inverse=True)
        text = np.array([repr(v) + "\n" for v in values.tolist()], dtype=object)
        for start in range(0, len(window_lhs), _SCAN_CHUNK_ROWS):
            index = window_index[start:start + _SCAN_CHUNK_ROWS]
            cells = np.empty((len(index), dims + 1), dtype=object)
            cells[:, 0] = first[index[:, 0]]
            for col in range(1, dims):
                cells[:, col] = degrees[index[:, col]]
            cells[:, dims] = text[inverse[start:start + _SCAN_CHUNK_ROWS]]
            yield "".join(cells.ravel().tolist())
    max_row = [repr(math.degrees(v)) for v in result.argmax_angles] + [repr(result.max_lhs)]
    yield ",".join(["max"] + max_row) + "\n"


def _cmd_scan(args):
    from .inequalities import violation_scan

    return _scan_csv(violation_scan(args.inequality, args.resolution))


def _cmd_joint3(args) -> dict:
    from .joint import (MARGINAL_TOL, MomentSet3, default_mu3, existence_check_3, moments_from_pairs,
                        mu3_interval, triple_from_moments)

    if args.qm:
        a, b, c = (Direction.from_angle(phi) for phi in (0.0, *_coplanar_phis(args.angles, 2)))
        moments = (0.0, 0.0, 0.0, a.cos_to(b), b.cos_to(c), c.cos_to(a))
    else:
        tables = _load_pair_file(args.pairs, ("AB", "BC", "CA"))
        m = moments_from_pairs(tables["AB"], tables["BC"], tables["CA"])
        moments = (m.m_a, m.m_b, m.m_c, m.m_ab, m.m_bc, m.m_ca)
    interval = mu3_interval(*moments)
    symmetric = max(map(abs, moments[:3])) <= MARGINAL_TOL
    mu3 = args.mu3 if args.mu3 is not None else default_mu3(interval, symmetric)
    trip = triple_from_moments(MomentSet3(*moments, mu3))
    check = existence_check_3(*moments, symmetric=symmetric)
    payload = {
        "entries": trip.to_mapping(),
        "valid": trip.valid,
        "negative_cells": [{"cell": cell_key(cell), "value": v} for cell, v in trip.negative_cells()],
        "mu3": mu3,
        "mu3_interval": {"lo": interval.lo, "hi": interval.hi, "empty": interval.empty},
        "inequalities": {name: _verdict(v) for name, v in check.verdicts.items()},
    }
    if args.pairs is not None:
        payload["exists"] = not interval.empty
        payload["necessary_conditions_hold"] = check.exists
    return payload


def _cmd_joint4(args) -> dict:
    from .joint import quad_feasibility

    tables = _load_pair_file(args.pairs, ("AB", "AC", "DB", "DC"))
    result = quad_feasibility(tables["AB"], tables["AC"], tables["DB"], tables["DC"])
    return {
        "feasible": result.feasible,
        "failed_inequality": result.failed,
        "inequalities": {name: _verdict(v) for name, v in result.verdicts.items()},
        "witness": result.witness.to_mapping() if result.witness is not None else None,
    }


def _cmd_simulate(args) -> dict:
    from .hvsim import simulate

    a = Direction.from_angle(0.0)
    b = Direction.from_angle(args.theta)
    report = simulate(a, b, args.n, args.seed, mode=args.mode, threads=args.threads)
    return {
        "contract": report.contract,
        "n": report.n_samples,
        "seed": report.seed,
        "theta_ab_rad": report.theta_ab_rad,
        "mode": report.mode,
        "empirical": report.empirical_mapping(),
        "theoretical": report.theoretical.to_mapping(),
        "max_abs_dev": report.max_abs_dev,
        "chi_square": report.chi_square,
    }


def _cmd_info(args) -> str:
    from .information import info_curve

    rows = [[p.x, p.mutual_information_bits, p.conditional_entropy_bits] for p in info_curve(args.step)]
    return _csv(["x", "mi_bits", "cond_entropy_bits"], rows)


def _cmd_verify(args) -> tuple[list[str], int]:
    """The report lines and the exit status: 1 when a check failed."""
    from . import verify

    results = verify.run_all(trials=args.trials, seed=args.seed)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name} (max deviation {r.max_dev:.3e})"
        if not r.passed:
            line += f": {r.detail}"
        lines.append(line + "\n")
    return lines, EXIT_OK if all(r.passed for r in results) else 1


def build_parser() -> _Parser:
    """Every rule about what a command line means: the options of each
    subcommand, the alternatives of which exactly one is given, the
    companions an option needs (``requires``) and the options that hold
    angles in degrees (``degrees``); ``_resolve`` applies the last two."""
    parser = _Parser(prog="eprbell", description=(
        "Singlet-state spin statistics, Bell and CHSH inequalities, joint-distribution feasibility "
        "and a hidden-variable simulator. Angles are degrees unless --radians is given. Exit codes: "
        "0 success, 64 usage error, 65 data error, 1 a failed verify check."))
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, degrees=(), requires=()):
        """A subparser with -o; where it has angles, also --radians, which needs them."""
        p = sub.add_parser(name, help=help, description=help)
        p.set_defaults(func=func, degrees=degrees, requires=(*requires, *(("radians", d) for d in degrees)))
        if degrees:
            p.add_argument("--radians", action="store_true", help="angle inputs are radians")
        p.add_argument("-o", "--output", help="write to file instead of stdout")
        return p

    p = command("dist", _cmd_dist, "pair probability table and covariance", degrees=("theta",),
                requires=(("a", "b"), ("b", "a")))
    p.add_argument("--format", choices=["json", "csv"], default="json")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--theta", type=_finite_float, help="angle between the two orientations")
    one.add_argument("--a", type=_floats, help="first direction as x,y,z")
    p.add_argument("--b", type=_floats, help="second direction as x,y,z (with --a)")
    p.add_argument("--local", action="store_true",
                   help="single-device (A(a), A(b)) table instead of the two-device (A, B) one")

    p = command("ineq", _cmd_ineq, "evaluate a Bell or CHSH inequality", degrees=("angles",))
    p.add_argument("which", choices=["bell", "chsh"])
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--angles", type=_floats, help="bell: t_ab,t_bc; chsh: t_ab,t_db,t_dc (coplanar)")
    one.add_argument("--cov", type=_floats, help="raw covariances: 3 values (bell) or 4 (chsh)")

    p = command("scan", _cmd_scan, "grid search for violating orientations")
    p.add_argument("--inequality", choices=["bell", "chsh"], required=True)
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--resolution-deg", dest="resolution", metavar="DEG", type=_finite_degrees)
    one.add_argument("--resolution-rad", dest="resolution", metavar="RAD", type=_finite_float)

    p = command("joint3", _cmd_joint3, "third-order joint from pairs or QM angles", degrees=("angles",),
                requires=(("qm", "angles"), ("angles", "qm"), ("mu3", "pairs")))
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--qm", action="store_true", help="build from singlet tables at --angles")
    one.add_argument("--pairs", help="JSON file with pair tables AB, BC, CA")
    p.add_argument("--angles", type=_floats, help="t_ab,t_bc for coplanar directions (with --qm)")
    p.add_argument("--mu3", type=_finite_float, help="third moment for --pairs (default: 0 or interval midpoint)")

    p = command("joint4", _cmd_joint4, "fourth-order feasibility from pair tables")
    p.add_argument("--pairs", required=True, help="JSON file with pair tables AB, AC, DB, DC")

    p = command("simulate", _cmd_simulate, "hidden-variable Monte Carlo run", degrees=("theta",))
    p.add_argument("--theta", type=_finite_float, required=True)
    p.add_argument("-n", type=int, required=True,
                   help="sample count; run time grows linearly with it, about 0.5 ms "
                   "per 65,536-sample block on one core of a 2-vCPU Xeon")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["local", "singlet"], default="local")
    p.add_argument("--threads", type=int, default=1)

    p = command("info", _cmd_info, "mutual-information curve as CSV")
    p.add_argument("--step", type=_finite_float, required=True)

    p = command("verify", _cmd_verify, "run cross-validation checks")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _resolve(args):
    """Check the subcommand's companion options, then turn its degree
    options into radians unless --radians is given: the one place either
    happens."""
    given = {dest for dest, value in vars(args).items() if value is not None and value is not False}
    for option, companion in args.requires:
        if option in given and companion not in given:
            raise UsageError(f"--{option} requires --{companion}")
    if args.degrees and not args.radians:
        for dest in args.degrees:
            value = getattr(args, dest)
            if isinstance(value, tuple):
                setattr(args, dest, tuple(map(math.radians, value)))
            elif value is not None:
                setattr(args, dest, math.radians(value))
    return args


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _resolve(parser.parse_args(argv))
        out = args.func(args)  # handlers return their output; verify also its status
        out, status = out if isinstance(out, tuple) else (out, EXIT_OK)
        _emit(out, args)
        return status
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EprBellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        # Stdout could not be written (``_emit`` maps -o errors): send the
        # interpreter's exit-time flush to devnull.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass  # stdout has no file descriptor, so nothing is left to flush
        if not isinstance(exc, BrokenPipeError):  # a reader that closed the pipe needs no message
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
