"""Command-line front end.

Angles are entered in degrees by default; ``--radians`` switches on the
subcommands that take angles (dist, ineq, joint3, simulate). Only ``dist``
has ``--format`` (json or csv); a flag a subcommand does not take exits 64.
Verdicts ("violated", "infeasible") are data, not failures: they exit 0.
Exit codes: 0 success, 1 a ``verify`` self-check failed, 64 usage error,
65 data/file error, including output that cannot be written: stdout closed
by its reader (``eprbell scan ... | head -1``) exits 65 without a message.

Only ``scan``, ``simulate`` and ``verify`` load numpy; the other subcommands
compute with Python floats.
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

from .errors import EprBellError, InconsistentMarginalsError, InvalidInputError
from .geometry import Direction
from .inequalities import (
    CovarianceQuad,
    CovarianceTriple,
    bell_1964,
    chsh,
    violation_scan,
)
from .information import info_curve
from .joint import (
    default_mu3,
    existence_check_3,
    moments_from_pairs,
    mu3_interval,
    qm_triple,
    quad_feasibility,
    triple_from_moments,
    MomentSet3,
)
from .spincore import PairDist, covariance, local_pair_dist, qm_pair_dist

EXIT_OK = 0
EXIT_USAGE = 64
EXIT_DATA = 65


def __getattr__(name):
    # ``cli.simulate`` stays a module attribute (perfbench's tracer patches
    # it), but the numpy-backed simulator loads only on first use.
    if name == "simulate":
        from .hvsim import simulate

        return simulate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want 64
        raise UsageError(message)


def _finite_float(text: str) -> float:
    """argparse type for every float option: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _to_rad(value: float, radians: bool) -> float:
    return value if radians else math.radians(value)


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"{what}: expected comma-separated numbers, got {text!r}")
    if len(values) != n:
        raise UsageError(f"{what}: expected {n} values, got {len(values)}")
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"{what}: values must be finite")
    return values


def _parse_direction(text: str, what: str) -> Direction:
    x, y, z = _parse_floats(text, 3, what)
    try:
        return Direction(x, y, z)
    except EprBellError as exc:
        raise UsageError(f"{what}: {exc}")


def _emit(text, output: str | None):
    """Write ``text`` (a string or an iterable of strings, written as they
    come) to the ``output`` file or stdout."""
    chunks = (text,) if isinstance(text, str) else text
    if not output:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(output, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise DataError(f"cannot write {output}: {exc}")


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _verdict(v) -> dict:
    return {"lhs": v.lhs, "bound": v.bound, "satisfied": v.satisfied}


def _load_pair_file(path: str, keys: tuple[str, ...]) -> dict[str, PairDist]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}")
    pairs = doc.get("pairs") if isinstance(doc, dict) else None
    if not isinstance(pairs, dict):
        raise DataError(f'{path}: expected an object with a "pairs" key')
    out = {}
    for key in keys:
        if key not in pairs:
            raise DataError(f"{path}: missing pair table {key!r}")
        try:
            out[key] = PairDist.from_mapping(pairs[key], tuple(key))
        except EprBellError as exc:
            raise DataError(f"{path}: pair table {key!r}: {exc}")
    return out


# --- subcommands ---


def _cmd_dist(args) -> int:
    if (args.theta is None) == (args.a is None):
        raise UsageError("give exactly one of --theta or --a/--b")
    if args.a is not None:
        if args.b is None:
            raise UsageError("--a requires --b")
        a = _parse_direction(args.a, "--a")
        b = _parse_direction(args.b, "--b")
    else:
        a = Direction.from_angle(0.0)
        b = Direction.from_angle(_to_rad(args.theta, args.radians))
    dist = local_pair_dist(a, b) if args.local else qm_pair_dist(a, b)
    payload = dict(dist.to_mapping())
    payload["covariance"] = covariance(dist)
    if args.format == "csv":
        _emit(_csv(list(payload), [list(payload.values())]), args.output)
    else:
        _emit(_json(payload), args.output)
    return EXIT_OK


def _cmd_ineq(args) -> int:
    radians = args.radians
    if (args.angles is None) == (args.cov is None):
        raise UsageError("give exactly one of --angles or --cov")
    if args.which == "bell":
        if args.angles is not None:
            t_ab, t_bc = (_to_rad(v, radians) for v in _parse_floats(args.angles, 2, "--angles"))
            # Coplanar: phi_a = 0, phi_b = t_ab, phi_c = t_ab + t_bc.
            t_ac = t_ab + t_bc
            triple = CovarianceTriple(-math.cos(t_ab), -math.cos(t_ac), -math.cos(t_bc))
        else:
            triple = CovarianceTriple(*_parse_floats(args.cov, 3, "--cov"))
        verdict = bell_1964(triple)
    else:
        if args.angles is not None:
            t_ab, t_db, t_dc = (
                _to_rad(v, radians) for v in _parse_floats(args.angles, 3, "--angles")
            )
            # Coplanar: phi_a = 0, phi_b = t_ab, phi_d = phi_b + t_db,
            # phi_c = phi_d + t_dc, so t_ac = t_ab + t_db + t_dc.
            t_ac = t_ab + t_db + t_dc
            quad = CovarianceQuad(
                -math.cos(t_ab), -math.cos(t_ac), -math.cos(t_db), -math.cos(t_dc)
            )
        else:
            quad = CovarianceQuad(*_parse_floats(args.cov, 4, "--cov"))
        verdict = chsh(quad)
    payload = {"inequality": args.which, **_verdict(verdict)}
    _emit(_json(payload), args.output)
    return EXIT_OK


# Violation rows per written chunk: the CSV is never built as one string.
_SCAN_CHUNK_ROWS = 1 << 14


def _scan_csv(result, angle_names: list[str]):
    """Header, violation rows and the max row of a scan, chunk by chunk, in
    the text csv.writer gives (floats as repr). Angles take only n values,
    so each is formatted once and looked up."""
    import numpy as np

    degrees = np.array([repr(math.degrees(g)) + "," for g in result.grid.tolist()], dtype=object)
    yield ",".join(["kind"] + angle_names + ["lhs"]) + "\n"
    for start in range(0, len(result.violation_lhs), _SCAN_CHUNK_ROWS):
        index = result.violation_index[start:start + _SCAN_CHUNK_ROWS]
        lhs = result.violation_lhs[start:start + _SCAN_CHUNK_ROWS]
        rows = "violation," + degrees[index[:, 0]]  # object arrays: elementwise str +
        for col in range(1, index.shape[1]):
            rows += degrees[index[:, col]]
        rows += np.array([repr(v) + "\n" for v in lhs.tolist()], dtype=object)
        yield "".join(rows.tolist())
    max_row = [repr(math.degrees(v)) for v in result.argmax_angles] + [repr(result.max_lhs)]
    yield ",".join(["max"] + max_row) + "\n"


def _cmd_scan(args) -> int:
    if args.resolution_deg is not None:
        resolution = math.radians(args.resolution_deg)
    elif args.resolution_rad is not None:
        resolution = args.resolution_rad
    else:
        raise UsageError("give --resolution-deg or --resolution-rad")
    try:
        result = violation_scan(args.inequality, resolution)
    except InvalidInputError as exc:
        raise UsageError(str(exc))
    angle_names = ["phi_b_deg", "phi_c_deg"] + (
        ["phi_d_deg"] if args.inequality == "chsh" else []
    )
    _emit(_scan_csv(result, angle_names), args.output)
    return EXIT_OK


_TRIPLE_KEYS = [
    "".join("p" if s == 1 else "m" for s in cell)
    for cell in itertools.product((1, -1), repeat=3)
]


def _triple_payload(t, interval, mu3, verdicts) -> dict:
    return {
        "entries": dict(zip(_TRIPLE_KEYS, t.cells)),
        "valid": t.valid,
        "negative_cells": [
            {"cell": "".join("p" if s == 1 else "m" for s in cell), "value": v}
            for cell, v in t.negative_cells()
        ],
        "mu3": mu3,
        "mu3_interval": {"lo": interval.lo, "hi": interval.hi, "empty": interval.empty},
        "inequalities": {name: _verdict(v) for name, v in verdicts.items()},
    }


def _cmd_joint3(args) -> int:
    if args.qm == (args.pairs is not None):
        raise UsageError("give exactly one of --qm --angles or --pairs FILE")
    if args.qm:
        if args.angles is None:
            raise UsageError("--qm requires --angles t_ab,t_bc")
        t_ab, t_bc = (_to_rad(v, args.radians) for v in _parse_floats(args.angles, 2, "--angles"))
        a = Direction.from_angle(0.0)
        b = Direction.from_angle(t_ab)
        c = Direction.from_angle(t_ab + t_bc)
        trip = qm_triple(a, b, c)
        interval = mu3_interval(0, 0, 0, a.dot(b), b.dot(c), c.dot(a))
        check = existence_check_3(0, 0, 0, a.dot(b), b.dot(c), c.dot(a), symmetric=True)
        payload = _triple_payload(trip, interval, 0.0, check.verdicts)
    else:
        tables = _load_pair_file(args.pairs, ("AB", "BC", "CA"))
        try:
            moments = moments_from_pairs(tables["AB"], tables["BC"], tables["CA"])
        except InconsistentMarginalsError as exc:
            raise DataError(str(exc))
        interval = mu3_interval(
            moments.m_a, moments.m_b, moments.m_c, moments.m_ab, moments.m_bc, moments.m_ca
        )
        symmetric = max(abs(moments.m_a), abs(moments.m_b), abs(moments.m_c)) <= 1e-9
        mu3 = args.mu3 if args.mu3 is not None else default_mu3(interval, symmetric)
        trip = triple_from_moments(
            MomentSet3(moments.m_a, moments.m_b, moments.m_c,
                       moments.m_ab, moments.m_bc, moments.m_ca, mu3)
        )
        check = existence_check_3(
            moments.m_a, moments.m_b, moments.m_c,
            moments.m_ab, moments.m_bc, moments.m_ca, symmetric=symmetric,
        )
        payload = _triple_payload(trip, interval, mu3, check.verdicts)
        # The mu3 interval decides existence exactly for every input; symmetric
        # inputs keep the inequalities' verdict, exact there as well.
        payload["exists"] = check.exists if check.exact else not interval.empty
        payload["necessary_conditions_hold"] = check.exists
    _emit(_json(payload), args.output)
    return EXIT_OK


_QUAD_KEYS = [
    "".join("p" if s == 1 else "m" for s in cell)
    for cell in itertools.product((1, -1), repeat=4)
]


def _cmd_joint4(args) -> int:
    tables = _load_pair_file(args.pairs, ("AB", "AC", "DB", "DC"))
    try:
        result = quad_feasibility(tables["AB"], tables["AC"], tables["DB"], tables["DC"])
    except InconsistentMarginalsError as exc:
        raise DataError(str(exc))
    payload = {
        "feasible": result.feasible,
        "failed_inequality": result.failed,
        "inequalities": {name: _verdict(v) for name, v in result.verdicts.items()},
        "witness": dict(zip(_QUAD_KEYS, result.witness.cells)) if result.witness is not None else None,
    }
    _emit(_json(payload), args.output)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from .hvsim import simulate

    a = Direction.from_angle(0.0)
    b = Direction.from_angle(_to_rad(args.theta, args.radians))
    report = simulate(a, b, args.n, args.seed, mode=args.mode, threads=args.threads)
    payload = {
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
    _emit(_json(payload), args.output)
    return EXIT_OK


def _cmd_info(args) -> int:
    try:
        points = info_curve(args.step)
    except InvalidInputError as exc:
        raise UsageError(str(exc))
    rows = [[p.x, p.mutual_information_bits, p.conditional_entropy_bits] for p in points]
    _emit(_csv(["x", "mi_bits", "cond_entropy_bits"], rows), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify

    results = verify.run_all(trials=args.trials, seed=args.seed)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name} (max deviation {r.max_dev:.3e})"
        if not r.passed:
            line += f": {r.detail}"
        lines.append(line + "\n")
    _emit(lines, args.output)
    return EXIT_OK if all(r.passed for r in results) else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="eprbell", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, radians=False, formats=False):
        """A subparser with -o, and --radians / --format only where honoured."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if radians:
            p.add_argument("--radians", action="store_true", help="angle inputs are radians")
        if formats:
            p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("-o", "--output", help="write to file instead of stdout")
        return p

    p = command("dist", _cmd_dist, "pair probability table and covariance", radians=True, formats=True)
    p.add_argument("--theta", type=_finite_float, help="angle between the two orientations")
    p.add_argument("--a", help="first direction as x,y,z")
    p.add_argument("--b", help="second direction as x,y,z")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--pair", action="store_true", help="two-device (A, B) table (default)")
    mode.add_argument("--local", action="store_true", help="single-device (A(a), A(b)) table")

    p = command("ineq", _cmd_ineq, "evaluate a Bell or CHSH inequality", radians=True)
    p.add_argument("which", choices=["bell", "chsh"])
    p.add_argument("--angles", help="bell: t_ab,t_bc; chsh: t_ab,t_db,t_dc (coplanar)")
    p.add_argument("--cov", help="raw covariances: 3 values (bell) or 4 (chsh)")

    p = command("scan", _cmd_scan, "grid search for violating orientations")
    p.add_argument("--inequality", choices=["bell", "chsh"], required=True)
    p.add_argument("--resolution-deg", type=_finite_float)
    p.add_argument("--resolution-rad", type=_finite_float)

    p = command("joint3", _cmd_joint3, "third-order joint from pairs or QM angles", radians=True)
    p.add_argument("--qm", action="store_true", help="build from singlet tables at --angles")
    p.add_argument("--angles", help="t_ab,t_bc for coplanar directions")
    p.add_argument("--pairs", help="JSON file with pair tables AB, BC, CA")
    p.add_argument("--mu3", type=_finite_float, help="third moment (default: 0 or interval midpoint)")

    p = command("joint4", _cmd_joint4, "fourth-order feasibility from pair tables")
    p.add_argument("--pairs", required=True, help="JSON file with pair tables AB, AC, DB, DC")

    p = command("simulate", _cmd_simulate, "hidden-variable Monte Carlo run", radians=True)
    p.add_argument("--theta", type=_finite_float, required=True)
    p.add_argument("-n", type=int, required=True, help="sample count")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["local", "singlet"], default="local")
    p.add_argument("--threads", type=int, default=1)

    p = command("info", _cmd_info, "mutual-information curve as CSV")
    p.add_argument("--step", type=_finite_float, required=True)

    p = command("verify", _cmd_verify, "run cross-validation checks")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EprBellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        # The reader closed stdout; send the interpreter's exit-time flush to devnull.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass  # stdout has no file descriptor, so nothing is left to flush
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
