"""Independent reference formulas and output checks.

Nothing here imports ``eprbell``: every expected value is computed from the
closed forms, so a check keeps working when the program changes how it
computes a result, and fails only when the result itself changes.

Each ``check_*`` function returns a list of failure messages (empty when the
output is correct).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

SIGNS = (1, -1)  # table index 0 is +1, index 1 is -1
CELL_KEYS = ("pp", "pm", "mp", "mm")
TABLE_TOL = 1e-12
MARGIN_TOL = 1e-9  # a verdict this close to its bound may go either way
SCAN_MAX = {"chsh": 2.0 * math.sqrt(2.0), "bell": 1.5}
# Violation counts of the CLI scans at the seed commit: a change that alters
# them changes the program's answer.
SCAN_VIOLATIONS = {("chsh", 11.25): 10008, ("chsh", 5.0): 118088, ("bell", 0.5): 257044}


def pair_table(x: float, sign: int) -> list[list[float]]:
    """(1 + sign*alpha*beta*x)/4: sign=-1 is the two-device singlet table for
    a.b = x, sign=+1 the single-device table."""
    return [[0.25 * (1.0 + sign * a * b * x) for b in SIGNS] for a in SIGNS]


def table_of(mapping: dict) -> list[list[float]]:
    return [[mapping["pp"], mapping["pm"]], [mapping["mp"], mapping["mm"]]]


def mapping_of(table) -> dict[str, float]:
    return {k: float(table[i // 2][i % 2]) for i, k in enumerate(CELL_KEYS)}


def correlation(t) -> float:
    return t[0][0] - t[0][1] - t[1][0] + t[1][1]


def fine_margin(ab, ac, db, dc) -> float:
    """Largest left-hand side minus 2 over the eight CHSH inequalities
    |E_ab + E_ac + E_db + E_dc - 2 E_x| <= 2 (Fine 1982). A joint over
    (A, B, C, D) with these four pair tables exists iff the margin is <= 0."""
    e = [correlation(t) for t in (ab, ac, db, dc)]
    total = sum(e)
    return max(abs(total - 2.0 * ex) for ex in e) - 2.0


def triple_cells(m_ab: float, m_bc: float, m_ca: float) -> dict[tuple[int, int, int], float]:
    """Sign-symmetric third-order table with mu3 = 0, per (a, b, c) cell."""
    return {
        (a, b, c): (1.0 + a * b * m_ab + b * c * m_bc + c * a * m_ca) / 8.0
        for a, b, c in itertools.product(SIGNS, repeat=3)
    }


def _cell_key(cell) -> str:
    return "".join("p" if s == 1 else "m" for s in cell)


def _close(x, y, tol) -> bool:
    return abs(x - y) <= tol


def _table_errors(name, got, want, tol) -> list[str]:
    dev = max(abs(got[i][j] - want[i][j]) for i in range(2) for j in range(2))
    return [] if dev <= tol else [f"{name}: table deviates by {dev:.3g}"]


def _marginal(cells: dict, keep: tuple[int, ...]) -> list[list[float]]:
    """Pair table over the variables at positions ``keep`` of a cell dict."""
    t = [[0.0, 0.0], [0.0, 0.0]]
    for cell, v in cells.items():
        t[(1 - cell[keep[0]]) // 2][(1 - cell[keep[1]]) // 2] += v
    return t


def verdict_agrees(verdict: bool, margin: float) -> bool:
    """``verdict`` says "holds" (margin <= 0); near 0 either answer is accepted."""
    return abs(margin) <= MARGIN_TOL or verdict == (margin <= 0.0)


# --- CLI output checks ---


def check_dist(text: str, theta_deg: str, local: bool) -> list[str]:
    d = json.loads(text)
    x = math.cos(math.radians(float(theta_deg)))
    errors = _table_errors("dist", table_of(d), pair_table(x, 1 if local else -1), TABLE_TOL)
    if not _close(d["covariance"], x if local else -x, TABLE_TOL):
        errors.append(f"dist: covariance {d['covariance']} != {x if local else -x}")
    return errors


def bell_lhs(t_ab: float, t_bc: float) -> float:
    c_ab, c_ac, c_bc = -math.cos(t_ab), -math.cos(t_ab + t_bc), -math.cos(t_bc)
    return abs(c_ab - c_ac) - c_bc


def chsh_lhs(t_ab: float, t_db: float, t_dc: float) -> float:
    c_ab, c_ac = -math.cos(t_ab), -math.cos(t_ab + t_db + t_dc)
    c_db, c_dc = -math.cos(t_db), -math.cos(t_dc)
    return abs(c_ab - c_ac) + abs(c_db + c_dc)


def check_ineq(text: str, which: str, angles_deg: str) -> list[str]:
    d = json.loads(text)
    rad = [math.radians(float(v)) for v in angles_deg.split(",")]
    lhs, bound = (bell_lhs(*rad), 1.0) if which == "bell" else (chsh_lhs(*rad), 2.0)
    errors = []
    if d["inequality"] != which or d["bound"] != bound:
        errors.append(f"ineq {which}: wrong inequality or bound in {d}")
    if not _close(d["lhs"], lhs, MARGIN_TOL):
        errors.append(f"ineq {which}: lhs {d['lhs']} != {lhs}")
    if not verdict_agrees(d["satisfied"], lhs - bound):
        errors.append(f"ineq {which}: satisfied={d['satisfied']} at lhs {lhs}")
    return errors


def _check_triple(d: dict, cells: dict, symmetric: bool, tables=None) -> list[str]:
    """Shared checks of a ``joint3`` payload against the expected cells (or,
    when ``tables`` is given, against the pair tables it must reproduce)."""
    errors = []
    entries = {cell: d["entries"][_cell_key(cell)] for cell in cells}
    if tables is None:
        dev = max(abs(entries[c] - v) for c, v in cells.items())
        if dev > TABLE_TOL:
            errors.append(f"joint3: entries deviate by {dev:.3g}")
    else:
        for name, keep in (("AB", (0, 1)), ("BC", (1, 2)), ("CA", (2, 0))):
            errors += _table_errors(f"joint3 {name}", _marginal(entries, keep), tables[name], MARGIN_TOL)
    if d["valid"] != (min(entries.values()) >= -TABLE_TOL):
        errors.append(f"joint3: valid={d['valid']} but min entry {min(entries.values())}")
    interval = d["mu3_interval"]
    if symmetric:
        margin = -8.0 * min(cells.values())  # a joint exists iff every mu3 = 0 cell >= 0
        if not verdict_agrees(not interval["empty"], margin):
            errors.append(f"joint3: interval empty={interval['empty']} at min cell {-margin / 8}")
        satisfied = all(v["satisfied"] for v in d["inequalities"].values())
        if not verdict_agrees(satisfied, margin):
            errors.append(f"joint3: inequalities satisfied={satisfied} at min cell {-margin / 8}")
    return errors


def check_joint3_qm(text: str, angles_deg: str) -> list[str]:
    t_ab, t_bc = (math.radians(float(v)) for v in angles_deg.split(","))
    cells = triple_cells(math.cos(t_ab), math.cos(t_bc), math.cos(t_ab + t_bc))
    return _check_triple(json.loads(text), cells, symmetric=True)


def check_joint3_pairs(text: str, doc: dict, symmetric: bool) -> list[str]:
    d = json.loads(text)
    tables = {k: table_of(v) for k, v in doc["pairs"].items()}
    m = {k: correlation(tables[k]) for k in ("AB", "BC", "CA")}
    cells = triple_cells(m["AB"], m["BC"], m["CA"])
    errors = _check_triple(d, cells, symmetric, tables)
    if symmetric:
        margin = -8.0 * min(cells.values())
        if d["exists"] is None or not verdict_agrees(d["exists"], margin):
            errors.append(f"joint3: exists={d['exists']} at min cell {-margin / 8}")
    else:  # drawn from a valid joint, so one exists
        if d["mu3_interval"]["empty"] or not d["necessary_conditions_hold"]:
            errors.append("joint3: tables from a valid joint reported as infeasible")
    return errors


def check_joint4(text: str, doc: dict, expect_feasible: bool) -> list[str]:
    d = json.loads(text)
    tables = [table_of(doc["pairs"][k]) for k in ("AB", "AC", "DB", "DC")]
    margin = fine_margin(*tables)
    errors = []
    if d["feasible"] != expect_feasible:
        errors.append(f"joint4: feasible={d['feasible']}, expected {expect_feasible}")
    if not verdict_agrees(d["feasible"], margin):
        errors.append(f"joint4: feasible={d['feasible']} but Fine margin {margin}")
    if d["feasible"]:
        w = d["witness"]
        cells = {
            cell: w[_cell_key(cell)] for cell in itertools.product(SIGNS, repeat=4)
        }
        errors += witness_errors(cells, tables)
    return errors


def witness_errors(cells: dict, tables) -> list[str]:
    """A (A, B, C, D) witness must be nonnegative and reproduce the AB, AC,
    DB and DC tables."""
    errors = []
    if min(cells.values()) < -TABLE_TOL:
        errors.append(f"witness has negative cell {min(cells.values())}")
    for name, keep, want in zip(("AB", "AC", "DB", "DC"), ((0, 1), (0, 2), (3, 1), (3, 2)), tables):
        errors += _table_errors(f"witness {name}", _marginal(cells, keep), want, MARGIN_TOL)
    return errors


def check_scan(text: str, inequality: str, resolution_deg: float) -> list[str]:
    rows = csv.reader(io.StringIO(text))
    next(rows)
    violations = 0
    last = None
    for row in rows:
        if row[0] == "violation":
            violations += 1
        last = row
    errors = []
    want = SCAN_VIOLATIONS[(inequality, resolution_deg)]
    if violations != want:
        errors.append(f"scan {inequality}: {violations} violations, seed commit has {want}")
    if last is None or last[0] != "max" or not _close(float(last[-1]), SCAN_MAX[inequality], MARGIN_TOL):
        errors.append(f"scan {inequality}: max row {last} != {SCAN_MAX[inequality]}")
    return errors


def simulation_errors(freqs: dict, n: int, theta_rad: float, mode: str) -> list[str]:
    """Frequencies must be counts over n, and each cell within 5 binomial
    standard deviations of the exact table."""
    x = math.cos(theta_rad)
    want = mapping_of(pair_table(x, -1 if mode == "singlet" else 1))
    counts = {k: freqs[k] * n for k in CELL_KEYS}
    errors = []
    if any(abs(c - round(c)) > 1e-6 for c in counts.values()) or sum(map(round, counts.values())) != n:
        errors.append(f"simulate: frequencies {freqs} are not counts summing to {n}")
    for k in CELL_KEYS:
        p = want[k]
        if abs(freqs[k] - p) > 5.0 * math.sqrt(p * (1.0 - p) / n) + TABLE_TOL:
            errors.append(f"simulate: cell {k} = {freqs[k]} vs {p} beyond 5 sigma at n={n}")
    return errors


def check_simulate(text: str, theta_deg: str, n: int, mode: str) -> list[str]:
    d = json.loads(text)
    theta = math.radians(float(theta_deg))
    errors = simulation_errors(d["empirical"], n, theta, mode)
    want = mapping_of(pair_table(math.cos(theta), -1 if mode == "singlet" else 1))
    errors += _table_errors("simulate theoretical", table_of(d["theoretical"]), table_of(want), TABLE_TOL)
    dev = max(abs(d["empirical"][k] - want[k]) for k in CELL_KEYS)
    if d["n"] != n or not _close(d["max_abs_dev"], dev, 1e-12):
        errors.append(f"simulate: n={d['n']} or max_abs_dev {d['max_abs_dev']} != {dev}")
    return errors


def _h2(p: float) -> float:
    return -sum(q * math.log2(q) for q in (p, 1.0 - p) if q > 0.0)


def check_info(text: str, step: float) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))[1:]
    n = int(round(2.0 / step))
    xs = [max(-1.0, min(1.0, -1.0 + k * step)) for k in range(n)] + [1.0]
    if len(rows) != len(xs):
        return [f"info: {len(rows)} rows, expected {len(xs)}"]
    worst = 0.0
    for row, x in zip(rows, xs):
        mi = 1.0 - _h2(0.5 * (1.0 + x))  # I(x) = 1 - H2((1+x)/2) for this table
        ce = _h2(0.5 * (1.0 + x))
        worst = max(worst, abs(float(row[0]) - x), abs(float(row[1]) - mi), abs(float(row[2]) - ce))
    return [] if worst <= MARGIN_TOL else [f"info: curve deviates by {worst:.3g}"]


def check_verify(text: str) -> list[str]:
    lines = text.splitlines()
    if len(lines) < 3 or not all(line.startswith("PASS ") for line in lines):
        return [f"verify: not all checks pass: {lines}"]
    return []
