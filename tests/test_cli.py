import csv
import importlib
import io
import json
import math
import os
import shlex
import sys
import tomllib
import tracemalloc
from pathlib import Path

import pytest

import eprbell
from eprbell import cli, verify
from eprbell.cli import main
from eprbell.errors import SHOWN_MAX_CHARS
from eprbell.inequalities import VIOLATION_SLACK, violation_scan

from conftest import CONTRA_AB, CONTRA_BC, CONTRA_CA, run_python
from golden_check import GOLDENS, check_command, with_pair_files, write_pairs

SQRT2 = math.sqrt(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def goldens(command=None):
    """(argv, sha256) of each command in tests/goldens.json with subcommand
    ``command``, or by default with any subcommand but scan, simulate and
    verify, which their own classes check; golden_check.check_command runs
    each to stdout and with -o."""
    return [(entry["argv"], entry["sha256"]) for entry in GOLDENS["commands"]
            if entry["argv"][0] == command or (command is None and entry["argv"][0] not in ("scan", "simulate", "verify"))]


class TestDist:
    def test_theta_sixty_degrees(self, capsys):
        doc = run_json(capsys, "dist", "--theta", "60")
        assert doc["pm"] == pytest.approx(0.375, abs=1e-12)
        assert doc["pp"] == pytest.approx(0.125, abs=1e-12)
        assert doc["covariance"] == pytest.approx(-0.5, abs=1e-12)

    def test_local_flag(self, capsys):
        doc = run_json(capsys, "dist", "--theta", "60", "--local")
        assert doc["pp"] == pytest.approx(0.375, abs=1e-12)
        assert doc["covariance"] == pytest.approx(0.5, abs=1e-12)

    def test_radians(self, capsys):
        deg = run_json(capsys, "dist", "--theta", "90")
        rad = run_json(capsys, "dist", "--theta", str(math.pi / 2), "--radians")
        assert deg == rad

    def test_explicit_directions(self, capsys):
        doc = run_json(capsys, "dist", "--a", "0,0,1", "--b", "1,0,0")
        assert doc["pp"] == pytest.approx(0.25, abs=1e-12)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "dist", "--theta", "60", "--format", "csv")
        assert code == 0
        header, values = out.strip().split("\n")
        assert header == "pp,pm,mp,mm,covariance"
        assert float(values.split(",")[1]) == pytest.approx(0.375)

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "dist.json"
        code, out, _ = run(capsys, "dist", "--theta", "60", "-o", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["pm"] == pytest.approx(0.375)

    def test_usage_errors(self, capsys):
        assert run(capsys, "dist")[0] == 64
        assert run(capsys, "dist", "--theta", "60", "--a", "0,0,1", "--b", "1,0,0")[0] == 64
        assert run(capsys, "dist", "--a", "0,0,1")[0] == 64
        assert run(capsys, "dist", "--a", "0,0,2", "--b", "1,0,0")[0] == 64
        assert run(capsys, "dist", "--theta", "abc")[0] == 64


class TestIneq:
    def test_bell_violation(self, capsys):
        doc = run_json(capsys, "ineq", "bell", "--angles", "45,45")
        assert doc["lhs"] == pytest.approx(SQRT2, abs=1e-12)
        assert doc["bound"] == 1.0
        assert doc["satisfied"] is False

    def test_chsh_violation(self, capsys):
        doc = run_json(capsys, "ineq", "chsh", "--angles", "45,45,45")
        assert doc["lhs"] == pytest.approx(2 * SQRT2, abs=1e-12)
        assert doc["satisfied"] is False

    def test_raw_covariances(self, capsys):
        doc = run_json(capsys, "ineq", "bell", "--cov", "0.5,-0.5,0.1")
        assert doc["lhs"] == pytest.approx(abs(0.5 + 0.5) - 0.1)
        assert doc["satisfied"] is True

    def test_usage_errors(self, capsys):
        assert run(capsys, "ineq", "bell")[0] == 64
        assert run(capsys, "ineq", "bell", "--angles", "45")[0] == 64
        assert run(capsys, "ineq", "bell", "--cov", "2,0,0")[0] == 64
        assert run(capsys, "ineq", "nope", "--angles", "45,45")[0] == 64


# Traced peak of `scan chsh 5 -o FILE`: ~61 MB with the dense kernel and
# csv.writer, ~9 MB with the slabbed kernel and streamed rows.
SCAN_PEAK_BOUND = 24 * 2**20
# Traced peak of formatting `scan bell 0.5` (29,261 distinct lhs values) in
# windows of 2,048 rows: ~0.4 MB; one memo over the whole scan reads ~3.3 MB.
FORMAT_PEAK_BOUND = 2**20


class TestScan:
    def test_bell_scan_contains_max(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--inequality", "bell", "--resolution-deg", "11.25"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kind,phi_b_deg,phi_c_deg,lhs"
        last = lines[-1].split(",")
        assert last[0] == "max"
        assert float(last[-1]) >= SQRT2 - 1e-9

    def test_resolution_out_of_range(self, capsys):
        assert run(capsys, "scan", "--inequality", "bell", "--resolution-deg", "60")[0] == 64
        assert run(capsys, "scan", "--inequality", "bell")[0] == 64

    @pytest.mark.parametrize("resolution", ["1e-320", "5e-324"])
    def test_grid_limit_subnormal(self, capsys, resolution):
        # 2 pi / resolution is inf: this used to end in an OverflowError traceback.
        code, out, err = run(capsys, "scan", "--inequality", "bell", "--resolution-rad", resolution)
        assert code == 64 and out == ""
        assert err.startswith(f"error: resolution {resolution} gives a bell grid of more than")

    def test_grid_limit(self, capsys):
        code, out, err = run(capsys, "scan", "--inequality", "chsh", "--resolution-deg", "1.75")
        assert code == 64 and out == ""
        assert err.startswith("error: resolution") and "206^3" in err
        assert "Traceback" not in err

    def test_grid_limit_message_short(self, capsys):
        # The grid size is not expanded in full: n ** 3 here has ~900 digits.
        code, out, err = run(capsys, "scan", "--inequality", "chsh", "--resolution-rad", "1e-300")
        assert code == 64 and out == ""
        assert "chsh grid of 6.283e+300^3 points" in err and len(err.encode()) < 200

    @pytest.mark.parametrize("args, digest", goldens("scan"))
    def test_golden_bytes(self, tmp_path, args, digest):
        assert check_command(args, digest, tmp_path) == []

    @pytest.mark.fresh_interpreter
    def test_memory_bounded(self, tmp_path):
        tracemalloc.start()
        try:
            code = main(["scan", "--inequality", "chsh", "--resolution-deg", "5",
                         "-o", str(tmp_path / "scan.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < SCAN_PEAK_BOUND

    @pytest.mark.parametrize("inequality, degrees, names", [
        ("bell", 5, ["phi_b_deg", "phi_c_deg"]),
        ("chsh", 11.25, ["phi_b_deg", "phi_c_deg", "phi_d_deg"]),
    ])
    def test_matches_csv_writer(self, monkeypatch, inequality, degrees, names):
        # The bytes csv.writer gives for the same floats: unlike the goldens, this
        # holds whatever the last bits of np.cos. Chunks of 7 rows in windows
        # of 21 split runs of equal lhs values at both kinds of boundary.
        monkeypatch.setattr(cli, "_SCAN_CHUNK_ROWS", 7)
        monkeypatch.setattr(cli, "_SCAN_WINDOW_ROWS", 21)
        result = violation_scan(inequality, math.radians(degrees))
        lhs = result.violation_lhs.tolist()
        splits = [k for k in range(7, len(lhs), 7) if lhs[k - 1] == lhs[k]]
        assert any(k % 21 == 0 for k in splits) and any(k % 21 != 0 for k in splits)
        grid = result.grid.tolist()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["kind", *names, "lhs"])
        for index, value in zip(result.violation_index.tolist(), lhs):
            writer.writerow(["violation", *(math.degrees(grid[i]) for i in index), value])
        writer.writerow(["max", *map(math.degrees, result.argmax_angles), result.max_lhs])
        assert "".join(cli._scan_csv(result)) == buf.getvalue()

    @pytest.mark.fresh_interpreter
    def test_format_memory_bounded_by_window(self, monkeypatch):
        monkeypatch.setattr(cli, "_SCAN_CHUNK_ROWS", 512)
        monkeypatch.setattr(cli, "_SCAN_WINDOW_ROWS", 2048)
        result = violation_scan("bell", math.radians(0.5))
        tracemalloc.start()
        try:
            for _ in cli._scan_csv(result):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < FORMAT_PEAK_BOUND


@pytest.mark.parametrize("argv", [
    ["dist", "--theta", "nan"],
    ["dist", "--theta", "inf"],
    ["simulate", "--theta", "inf", "-n", "10", "--seed", "1"],
    ["scan", "--inequality", "bell", "--resolution-deg", "nan"],
    ["scan", "--inequality", "bell", "--resolution-rad=-inf"],
    ["joint3", "--qm", "--angles", "10,10", "--mu3", "nan"],
    ["info", "--step", "nan"],
    ["info", "--step", "5e-324"],
    ["simulate", "--theta", "60", "-n", "10", "--seed", "-1"],
    ["simulate", "--theta", "60", "-n", "10", "--seed", "1", "--threads", "0"],
    ["simulate", "--theta", "60", "-n", "10", "--seed", "1", "--threads", "-3"],
    ["verify", "--trials", "0"],
    ["verify", "--trials", "-1"],
    ["verify", "--trials", "2", "--seed", "-1"],
    # Combinations that used to run and ignore one option.
    ["scan", "--inequality", "bell", "--resolution-deg", "22.5", "--resolution-rad", "0.1"],
    ["dist", "--theta", "30", "--b", "1,0,0"],
    ["joint3", "--qm", "--angles", "30,40", "--mu3", "0.5"],
    ["joint3", "--pairs", "sym3", "--angles", "1,2"],
    # A single-value option given twice, which used to keep the last value.
    ["dist", "--theta", "30", "--theta", "60"],
    ["scan", "--inequality", "chsh", "--inequality", "bell", "--resolution-deg", "22.5"],
    # Finite angles whose coplanar sum overflows to infinity.
    ["ineq", "chsh", "--radians", "--angles", "1e308,1e308,1e308"],
    ["ineq", "bell", "--radians", "--angles", "1e308,1e308"],
    ["joint3", "--qm", "--radians", "--angles", "1e308,1e308"],
    # An option, or a minus sign with no digit after it, is not a value.
    ["dist", "--theta", "--local"],
    ["dist", "--theta", "-x"],
])
def test_boundary_usage_errors(capsys, tmp_path, argv):
    code, out, err = run(capsys, *with_pair_files(tmp_path, argv))
    assert code == 64 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["dist", "--theta", "30"],
    ["scan", "--inequality", "bell", "--resolution-deg", "5"],
    ["verify", "--trials", "2"],
])
def test_unwritable_output(capsys, tmp_path, argv):
    target = str(tmp_path / "absent" / "out.txt")
    code, out, err = run(capsys, *argv, "-o", target)
    assert code == 65 and out == ""
    assert err.startswith(f"error: cannot write {target}") and "Traceback" not in err


class TestJoint3:
    def test_qm_angles(self, capsys):
        doc = run_json(capsys, "joint3", "--qm", "--angles", "22.5,22.5")
        assert doc["valid"] is False
        assert doc["negative_cells"]
        expected = (1 - 2 * math.cos(math.pi / 8) + math.cos(math.pi / 4)) / 8
        assert doc["entries"]["pmp"] == pytest.approx(expected, abs=1e-12)

    def test_qm_coplanar_rounding(self, capsys):
        # b = c: the computed b.c is 1 + 2^-52, which used to exit 64 with
        # "moment m_bc = 1.0000000000000002 outside [-1, 1]".
        doc = run_json(capsys, "joint3", "--qm", "--angles", "120,0")
        assert doc["valid"] is True and doc["negative_cells"] == []
        assert doc["entries"]["pmm"] == pytest.approx(0.375, abs=1e-12)

    def test_qm_boundary_interval_not_empty(self, capsys):
        # lo and hi cross by rounding alone (5.6e-17 > -5.6e-17); the
        # interval used to read empty although the table is valid.
        doc = run_json(capsys, "joint3", "--qm", "--angles", "120,0")
        assert doc["mu3_interval"]["lo"] > doc["mu3_interval"]["hi"]
        assert doc["mu3_interval"]["empty"] is False

    def test_pairs_file_asymmetric_boundary(self, capsys, tmp_path):
        # Marginals of the joint ppp = 0.2, ppm = 0.3, pmp = 0.5: the mu3
        # interval is one point, which rounding puts one ulp out of order.
        pairs = {
            "AB": {"pp": 0.5, "pm": 0.5, "mp": 0.0, "mm": 0.0},
            "BC": {"pp": 0.2, "pm": 0.3, "mp": 0.5, "mm": 0.0},
            "CA": {"pp": 0.7, "pm": 0.0, "mp": 0.3, "mm": 0.0},
        }
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": pairs}))
        doc = run_json(capsys, "joint3", "--pairs", str(path))
        assert doc["exists"] is True and doc["mu3_interval"]["empty"] is False
        assert doc["valid"] is True and doc["negative_cells"] == []
        assert doc["entries"]["pmp"] == pytest.approx(0.5, abs=1e-12)

    def test_pairs_file_moment_rounded_past_one(self, capsys, tmp_path):
        # Marginals of the joint ppm = 0.2044..., pmp = 0.2651..., mpm =
        # 0.5303... (B = -C): their <BC> is -1 - 2^-52, which used to exit 64
        # with "moment m_bc = -1.0000000000000002 outside [-1, 1]".
        pairs = {
            "AB": {"pp": 0.20442119186048707, "pm": 0.26519293604650435, "mp": 0.5303858720930087, "mm": 0.0},
            "BC": {"pp": 0.0, "pm": 0.7348070639534958, "mp": 0.26519293604650435, "mm": 0.0},
            "CA": {"pp": 0.26519293604650435, "pm": 0.0, "mp": 0.20442119186048707, "mm": 0.5303858720930087},
        }
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": pairs}))
        doc = run_json(capsys, "joint3", "--pairs", str(path))
        assert doc["exists"] is True and doc["valid"] is True

    @pytest.mark.parametrize("content, reason", [
        (b"[" * 5000, "maximum recursion depth"),
        (b"1" * 5000, "4300 digits"),
        (b'{"pairs": {"AB": {"pp": 1' + b"0" * 400 + b', "pm": 0, "mp": 0, "mm": 0}}}', "numbers"),
    ], ids=["deep", "long-number", "huge-cell"])
    def test_pairs_file_edge_content(self, capsys, tmp_path, content, reason):
        # Each used to end in a traceback (RecursionError, ValueError,
        # OverflowError) with exit 1.
        path = tmp_path / "pairs.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "joint3", "--pairs", str(path))
        assert code == 65 and out == ""
        assert err.startswith("error:") and reason in err and "Traceback" not in err

    def test_pairs_file_infeasible(self, capsys, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": {"AB": CONTRA_AB, "BC": CONTRA_BC, "CA": CONTRA_CA}}))
        doc = run_json(capsys, "joint3", "--pairs", str(path))
        assert doc["exists"] is False
        assert doc["mu3_interval"]["empty"] is True
        assert doc["inequalities"]["abs_plus"]["lhs"] == pytest.approx(3.0)
        assert doc["entries"]["mpp"] == pytest.approx(-0.25, abs=1e-12)  # (-2 - 0)/8

    def test_pairs_file_feasible_with_mu3(self, capsys, tmp_path):
        uniform = {"pp": 0.25, "pm": 0.25, "mp": 0.25, "mm": 0.25}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": {"AB": uniform, "BC": uniform, "CA": uniform}}))
        doc = run_json(capsys, "joint3", "--pairs", str(path), "--mu3", "0.5")
        assert doc["exists"] is True
        assert doc["entries"]["ppp"] == pytest.approx((1 + 0.5) / 8, abs=1e-12)

    def test_pairs_file_asymmetric_feasible(self, capsys, tmp_path):
        # Independent A, B, C with P(+) = 0.6, 0.3, 0.8.
        pairs = {
            "AB": {"pp": 0.18, "pm": 0.42, "mp": 0.12, "mm": 0.28},
            "BC": {"pp": 0.24, "pm": 0.06, "mp": 0.56, "mm": 0.14},
            "CA": {"pp": 0.48, "pm": 0.32, "mp": 0.12, "mm": 0.08},
        }
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": pairs}))
        doc = run_json(capsys, "joint3", "--pairs", str(path))
        assert doc["exists"] is True
        assert doc["mu3_interval"]["empty"] is False

    def test_pairs_file_asymmetric_infeasible(self, capsys, tmp_path):
        # First moments 0.2 and every pair moment -0.6: no three +-1 variables
        # are that strongly anticorrelated pairwise, so the mu3 interval is empty.
        table = {"pp": 0.2, "pm": 0.4, "mp": 0.4, "mm": 0.0}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": {"AB": table, "BC": table, "CA": table}}))
        doc = run_json(capsys, "joint3", "--pairs", str(path))
        assert doc["exists"] is False
        assert doc["mu3_interval"]["empty"] is True

    def test_exists_agrees_with_interval_near_the_boundary(self, capsys, tmp_path):
        # Symmetric tables with <AB> = <BC> = <CA> = -1/3 - d, d = 0 ... 3e-12:
        # lo - hi runs from 0 to 6 d, across the slack and on past 1.6e-11.
        # The verdict, the interval and the inequalities agree on every one,
        # lo - hi in (1e-12, 2e-12] too, and so does the table at the default
        # mu3: valid where a joint exists, with a negative cell where none does.
        # Only lo - hi within 1e-15 of the doubled slack, where rounding alone
        # decides, is left out of the second check.
        path = tmp_path / "pairs.json"
        skipped = 0
        for k in range(151):
            table = cov_table(-1.0 / 3.0 - k * 2e-14)
            path.write_text(json.dumps({"pairs": {"AB": table, "BC": table, "CA": table}}))
            doc = run_json(capsys, "joint3", "--pairs", str(path))
            assert doc["exists"] == (not doc["mu3_interval"]["empty"]) == doc["necessary_conditions_hold"], k
            iv = doc["mu3_interval"]
            if abs(iv["lo"] - iv["hi"] - 2.0 * VIOLATION_SLACK) <= 1e-15:
                skipped += 1
                continue
            assert doc["valid"] == doc["exists"] == (doc["negative_cells"] == []), k
        assert skipped <= 1

    def test_missing_file(self, capsys, tmp_path):
        assert run(capsys, "joint3", "--pairs", str(tmp_path / "absent.json"))[0] == 65

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(capsys, "joint3", "--pairs", str(path))[0] == 65
        path.write_text(json.dumps({"pairs": {"AB": {"pp": 1.0}}}))
        assert run(capsys, "joint3", "--pairs", str(path))[0] == 65

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_bytes(b'\xff\xfe{"pairs": {}}')
        code, out, err = run(capsys, "joint3", "--pairs", str(path))
        assert code == 65 and out == ""
        assert err.startswith("error:") and "UTF-8" in err

    def test_entries_outside_unit_interval(self, capsys, tmp_path):
        table = {"pp": 1.5, "pm": -0.5, "mp": 0.0, "mm": 0.0}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": {"AB": table, "BC": table, "CA": table}}))
        code, out, err = run(capsys, "joint3", "--pairs", str(path))
        assert code == 65 and out == ""
        assert err.startswith("error:") and "pair table 'AB': pair table entries outside [0, 1]" in err

    def test_string_cell(self, capsys, tmp_path):
        table = {"pp": "0.25", "pm": 0.25, "mp": 0.25, "mm": 0.25}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": {"AB": table, "BC": table, "CA": table}}))
        code, out, err = run(capsys, "joint3", "--pairs", str(path))
        assert code == 65 and out == ""
        assert err.startswith("error:") and "numbers" in err

    def test_inconsistent_marginals(self, capsys, tmp_path):
        biased = {"pp": 0.4, "pm": 0.2, "mp": 0.2, "mm": 0.2}
        uniform = {"pp": 0.25, "pm": 0.25, "mp": 0.25, "mm": 0.25}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": {"AB": biased, "BC": uniform, "CA": uniform}}))
        assert run(capsys, "joint3", "--pairs", str(path))[0] == 65


def cov_table(c):
    return {"pp": (1 + c) / 4, "pm": (1 - c) / 4, "mp": (1 - c) / 4, "mm": (1 + c) / 4}


TSIRELSON_COVS = {"AB": -SQRT2 / 2, "AC": SQRT2 / 2, "DB": -SQRT2 / 2, "DC": -SQRT2 / 2}
UNIFORM_COVS = dict.fromkeys(("AB", "AC", "DB", "DC"), 0.0)


def quad_file(tmp_path, covs):
    path = tmp_path / "quad.json"
    path.write_text(json.dumps({"pairs": {k: cov_table(c) for k, c in covs.items()}}))
    return str(path)


class TestJoint4:
    def test_tsirelson_infeasible(self, capsys, tmp_path):
        doc = run_json(capsys, "joint4", "--pairs", quad_file(tmp_path, TSIRELSON_COVS))
        assert doc["feasible"] is False
        assert doc["failed_inequality"] is not None
        assert doc["witness"] is None
        worst = max(v["lhs"] for v in doc["inequalities"].values())
        assert worst == pytest.approx(2 * SQRT2, abs=1e-9)

    def test_uniform_feasible(self, capsys, tmp_path):
        doc = run_json(capsys, "joint4", "--pairs", quad_file(tmp_path, UNIFORM_COVS))
        assert doc["feasible"] is True
        witness = doc["witness"]
        assert len(witness) == 16
        assert sum(witness.values()) == pytest.approx(1.0, abs=1e-9)

    def test_nan_entry(self, capsys, tmp_path):
        pairs = {k: cov_table(c) for k, c in UNIFORM_COVS.items()}
        pairs["AB"]["pp"] = math.nan
        doc_path = tmp_path / "quad.json"
        doc_path.write_text(json.dumps({"pairs": pairs}))
        code, out, err = run(capsys, "joint4", "--pairs", str(doc_path))
        assert code == 65 and out == ""
        assert "finite" in err and "Traceback" not in err

    def test_pair_file_length_cap(self, capsys, tmp_path):
        """A pair file padded to the cap is read; one byte more exits 65."""
        path = Path(quad_file(tmp_path, UNIFORM_COVS))
        text = path.read_text()
        path.write_text(text.ljust(cli._PAIR_FILE_MAX_BYTES))
        assert run(capsys, "joint4", "--pairs", str(path))[0] == 0
        path.write_text(text.ljust(cli._PAIR_FILE_MAX_BYTES + 1))
        code, out, err = run(capsys, "joint4", "--pairs", str(path))
        assert code == 65 and out == "" and "longer than" in err

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_pair_file(self, capsys):
        code, out, err = run(capsys, "joint4", "--pairs", "/dev/zero")
        assert code == 65 and out == "" and "longer than" in err


@pytest.mark.parametrize("command, keys", [("joint3", ("AB", "BC", "CA")), ("joint4", ("AB", "AC", "DB", "DC"))])
def test_pair_table_sum_past_float_range(capsys, tmp_path, command, keys):
    # Two finite cells whose sum is not: this used to end in an
    # OverflowError traceback from math.fsum, with exit 1.
    pairs = {k: cov_table(0.0) for k in keys}
    pairs["AB"] = {"pp": 1e308, "pm": 1e308, "mp": 0, "mm": 0}
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"pairs": pairs}))
    code, out, err = run(capsys, command, "--pairs", str(path))
    assert (code, out) == (65, "")
    assert err == f"error: {path}: pair table 'AB': PairDist sums to inf, not 1\n"


class TestShortGolden:
    @pytest.mark.parametrize("args, digest", goldens())
    def test_golden_bytes(self, tmp_path, args, digest):
        assert check_command(args, digest, tmp_path) == []


# The short subcommands: every route of dist, ineq, joint3, joint4 and info.
SHORT_COMMANDS = {
    "dist": ("dist", "--theta", "30"),
    "dist local csv": ("dist", "--theta", "30", "--local", "--format", "csv"),
    "dist a/b": ("dist", "--a", "0,0,1", "--b", "1,0,0"),
    "ineq bell": ("ineq", "bell", "--angles", "45,45"),
    "ineq chsh": ("ineq", "chsh", "--cov", "0.5,0.5,0.5,-0.5"),
    "joint3 qm": ("joint3", "--qm", "--angles", "22.5,22.5"),
    "joint3 pairs": ("joint3", "--pairs", "asym3", "--mu3", "0.05"),
    "joint4 feasible": ("joint4", "--pairs", "dirichlet4"),
    "joint4 infeasible": ("joint4", "--pairs", "tsirelson4"),
    "info": ("info", "--step", "0.01"),
}

# Standard-library modules whose import is a large share of a short call's
# start-up: dataclasses, which also loads inspect, ast and tokenize; inspect;
# and csv.
SLOW_STDLIB = ["dataclasses", "inspect", "csv"]

# Runs each [step, argv] of the JSON list in sys.argv[1] in one process and
# prints, after import and after each step, which of numpy, numpy.ma, scipy,
# concurrent.futures, SLOW_STDLIB and the eprbell modules are loaded.
MODULE_PROBE = """
import json, sys
def loaded():
    return sorted(name for name in sys.modules
                  if name in ("numpy", "numpy.ma", "scipy", "concurrent.futures", "dataclasses", "inspect", "csv")
                  or name.startswith("eprbell."))
seen = {}
import eprbell
seen["import eprbell"] = loaded()
from eprbell.cli import main
for step, argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    seen[step] = loaded()
print(json.dumps(seen))
"""

# Runs each argv of the JSON list in sys.argv[1].
MAIN_PROBE = """
import json, sys
from eprbell.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(code)
"""


def test_numpy_never_loaded(tmp_path):
    steps = [[name, with_pair_files(tmp_path, args)] for name, args in SHORT_COMMANDS.items()]
    steps.append(["scan", ["scan", "--inequality", "bell", "--resolution-deg", "11.25"]])
    proc = run_python("-c", MODULE_PROBE, json.dumps(steps))
    assert proc.returncode == 0, proc.stderr
    seen = {step: [name for name in loaded if not name.startswith("eprbell.") and name not in SLOW_STDLIB]
            for step, loaded in json.loads(proc.stdout.splitlines()[-1]).items()}
    assert seen.pop("scan") == ["numpy"]  # the probe sees a lazy import
    assert seen == dict.fromkeys(["import eprbell", *SHORT_COMMANDS], [])


# The eprbell modules each subcommand loads, run alone: cli and the core that
# every command shares, then the module it computes with.
CORE_MODULES = ["eprbell.cli", "eprbell.errors", "eprbell.geometry", "eprbell.spincore", "eprbell.value"]
# The subcommands that load no numpy, which loads inspect.
NUMPY_FREE = ["dist", "ineq", "joint3", "joint4", "info", "verify"]


@pytest.mark.parametrize("argv, own_modules", [
    (SHORT_COMMANDS["dist"], []),  # none of inequalities, information and joint
    (SHORT_COMMANDS["ineq chsh"], ["inequalities"]),
    (["scan", "--inequality", "bell", "--resolution-deg", "11.25"], ["inequalities"]),
    (SHORT_COMMANDS["info"], ["information"]),
    (SHORT_COMMANDS["joint3 pairs"], ["inequalities", "joint"]),
    (SHORT_COMMANDS["joint4 feasible"], ["inequalities", "joint"]),
    (["simulate", "--theta", "60", "-n", "1000", "--seed", "1"], ["hvsim"]),
    (["verify", "--trials", "10"], ["born", "hvsim", "verify"]),
])
def test_modules_loaded(tmp_path, argv, own_modules):
    steps = [["command", with_pair_files(tmp_path, argv)]]
    proc = run_python("-c", MODULE_PROBE, json.dumps(steps))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import eprbell"] == []
    loaded = [name for name in seen["command"] if name.startswith("eprbell.")]
    assert loaded == sorted(CORE_MODULES + [f"eprbell.{name}" for name in own_modules])
    # No command loads scipy; np.unique loads numpy.ma unless asked for an
    # index array; only a simulate on more than one worker starts a thread pool.
    assert not {"scipy", "numpy.ma", "concurrent.futures"} & set(seen["command"])
    assert ("numpy" in seen["command"]) == (argv[0] not in NUMPY_FREE)
    # No command loads dataclasses or csv (CSV rows are joined text), and
    # only numpy loads inspect.
    stdlib = [name for name in seen["command"] if name in SLOW_STDLIB]
    assert stdlib == ["inspect"] * (argv[0] not in NUMPY_FREE)


# eprbell.__all__, sorted: adding or removing a public name changes this list.
PUBLIC_NAMES = [
    "BLOCK_SIZE", "CovarianceQuad", "CovarianceTriple", "Direction", "EprBellError", "ExistenceResult",
    "InconsistentMarginalsError", "InequalityVerdict", "InfoCurvePoint", "InvalidDirectionError",
    "InvalidGeometryError", "InvalidInputError", "MomentSet3", "Mu3Interval", "PairDist", "PairMoments",
    "QuadDist", "QuadFeasibility", "ScanResult", "SimReport", "TripleDist", "apply_property_I",
    "bell_1964", "binary_entropy", "block_rng", "chsh", "chsh_to_bell_reduction", "conditional_entropy",
    "covariance", "default_mu3", "existence_check_3", "info_curve", "local_pair_dist", "marginal",
    "moments_from_pairs", "mu3_interval", "mutual_information", "product_rule_demo", "qm_bell_lhs",
    "qm_conditional", "qm_marginal", "qm_pair_dist", "qm_triple", "quad_feasibility", "simulate",
    "singlet_pair_probs", "triple_from_moments", "violation_scan",
]
# Names that left the surface: removed, private to their one caller, or kept
# in their module unexported (the simulator kernel's staged reference route).
FORMER_NAMES = [
    "InvalidModelError", "LocalModel", "PartitionSpec", "QuasiDistributionError",
    "UndefinedConditionalError", "bell_local_model_covariance", "bell_pair_inequalities",
    "chsh_family_verdicts", "classify", "local_conditional", "sample_lambda", "sample_pair_given_c",
    "spin_projector", "triple_conditional",
]


def test_public_names():
    """Every name of the one lazy table is the object its module holds, and
    only those names are served."""
    assert eprbell.__all__ == PUBLIC_NAMES and len(PUBLIC_NAMES) == 48
    for name, module in eprbell._MODULE_OF.items():
        assert getattr(eprbell, name) is getattr(importlib.import_module(f"eprbell.{module}"), name), name
    assert set(eprbell._MODULE_OF) <= set(dir(eprbell))
    for name in ["no_such_name", *FORMER_NAMES]:
        with pytest.raises(AttributeError, match=name):
            getattr(eprbell, name)


# Runs the command line sys.argv[2:] as a user does, after registering an
# atexit hook that writes the collector's freeze count to stderr: as
# ``python -m eprbell.cli`` when sys.argv[1] is "module", else as the console
# script that runs the entry point sys.argv[1] names.
EXIT_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(f"freeze count {gc.get_freeze_count()}", file=sys.stderr))
how, sys.argv = sys.argv[1], ["eprbell", *sys.argv[2:]]
if how == "module":
    runpy.run_module("eprbell.cli", run_name="__main__")
else:
    from importlib.metadata import EntryPoint
    sys.exit(EntryPoint("eprbell", how, "console_scripts").load()())
"""
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
CONSOLE_SCRIPT = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["eprbell"]


@pytest.mark.parametrize("how", ["module", CONSOLE_SCRIPT])
@pytest.mark.parametrize("argv", [
    ["dist", "--theta", "30"],
    ["scan", "--inequality", "bell", "--resolution-deg", "11.25"],
    ["dist", "--theta", "nan"],  # a usage error
])
def test_exit_path(capsys, how, argv):
    """Both launchers freeze the collector before exit, so the final
    collection skips what the call loaded, and still run the atexit hooks;
    output and exit status are main's."""
    code, out, err = run(capsys, *argv)
    proc = run_python("-c", EXIT_PROBE, how, *argv)
    *lines, hook = proc.stderr.splitlines(keepends=True)
    assert "".join(lines) == err
    assert hook.startswith("freeze count ") and int(hook.split()[-1]) > 0
    assert proc.stdout == out
    assert proc.returncode == code == (64 if "nan" in argv else 0)


def test_short_commands_without_numpy(capsys, tmp_path):
    argvs = [with_pair_files(tmp_path, args) for args in SHORT_COMMANDS.values()] + [["verify", "--trials", "10"]]
    expected = "".join(run(capsys, *argv)[1] for argv in argvs)
    proc = run_python("-c", MAIN_PROBE, json.dumps(argvs), blocked=["numpy"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "" and proc.stdout == expected


# prob, valid, negative_cells and to_mapping on a table of each size: all
# three share spincore.SignedTable, which must stay numpy-free.
TABLE_CALLS = """
from eprbell import Direction, PairDist, QuadDist, qm_triple
a, b, c = (Direction.from_angle(t) for t in (0.0, 0.4, 0.8))
for t in (PairDist([0.1, 0.2, 0.3, 0.4]), qm_triple(a, b, c), QuadDist([1 / 16] * 16)):
    print(type(t).__name__, t.prob(*[1] * t.DIMS), t.valid, t.negative_cells(), t.to_mapping())
"""


def test_tables_without_numpy(capsys):
    exec(TABLE_CALLS, {})
    expected = capsys.readouterr().out
    proc = run_python("-c", TABLE_CALLS, blocked=["numpy"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "" and proc.stdout == expected


class TestSimulate:
    ARGS = ("simulate", "--theta", "60", "-n", "100000", "--seed", "7", "--mode", "singlet")

    def test_payload(self, capsys):
        doc = run_json(capsys, *self.ARGS)
        assert list(doc) == [
            "contract", "n", "seed", "theta_ab_rad", "mode", "empirical",
            "theoretical", "max_abs_dev", "chi_square",
        ]
        assert doc["contract"] == 2
        assert doc["theta_ab_rad"] == pytest.approx(math.pi / 3, abs=1e-12)
        assert doc["theoretical"]["pm"] == pytest.approx(0.375, abs=1e-12)
        assert doc["max_abs_dev"] < 0.01

    def test_byte_identical_across_threads(self, capsys):
        # 196,609 samples: three full blocks and a one-sample block.
        for n in ("100000", "196609"):
            args = ("simulate", "--theta", "60", "-n", n, "--seed", "7", "--mode", "singlet")
            runs = [run(capsys, *args, "--threads", t) for t in ("1", "2", "8")]
            assert runs[0][0] == 0 and runs.count(runs[0]) == 3

    def test_golden_bytes(self, tmp_path):
        for args, digest in goldens("simulate"):
            assert check_command(args, digest, tmp_path) == []

    def test_usage_errors(self, capsys):
        assert run(capsys, "simulate", "--theta", "60", "-n", "0", "--seed", "1")[0] == 64
        assert run(capsys, "simulate", "--theta", "60", "-n", "10", "--seed", "1",
                   "--mode", "weird")[0] == 64


class TestInfo:
    def test_step_one(self, capsys):
        code, out, _ = run(capsys, "info", "--step", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,mi_bits,cond_entropy_bits"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == -1.0
        assert float(first[1]) == pytest.approx(1.0)
        assert float(first[2]) == pytest.approx(0.0)
        assert "-0.0" not in out

    def test_bad_step(self, capsys):
        assert run(capsys, "info", "--step", "0")[0] == 64
        assert run(capsys, "info", "--step", "2")[0] == 64

    # 2 / step rounds to the interval count; the curve has one point more.
    # The documented cap is literal here: step 2**-15 gives 2**16 + 1 points.
    @pytest.mark.parametrize("intervals, code", [
        (2**16, 0), (2**16 + 0.4, 0), (2**16 + 0.6, 64), (1e6, 64),
    ])
    def test_point_cap(self, capsys, intervals, code):
        got, out, err = run(capsys, "info", "--step", repr(2.0 / intervals))
        assert got == code
        if code:
            assert out == "" and err.startswith("error: step") and "more than 65537 points" in err
        else:
            assert out.count("\n") == 1 + 65537


class TestVerify:
    def test_failed_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "TOL", -1.0)  # every deviation now fails
        code, out, _ = run(capsys, "verify", "--trials", "5")
        assert code == 1
        lines = out.strip().split("\n")
        assert len(lines) == 3 and all(line.startswith("FAIL") for line in lines)

    def test_runs_clean(self, capsys):
        code, out, _ = run(capsys, "verify", "--trials", "50", "--seed", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert all(line.startswith("PASS") for line in lines)

    def test_output_file(self, capsys, tmp_path):
        _, expected, _ = run(capsys, "verify", "--trials", "50", "--seed", "1")
        path = tmp_path / "verify.txt"
        code, out, _ = run(capsys, "verify", "--trials", "50", "--seed", "1", "-o", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == expected

    @pytest.mark.parametrize("args, digest", goldens("verify"))
    def test_golden_bytes(self, tmp_path, args, digest):
        assert check_command(args, digest, tmp_path) == []


@pytest.mark.parametrize("argv, lines_read", [
    (["scan", "--inequality", "chsh", "--resolution-deg", "5"], 1),
    (["verify", "--trials", "50"], 0),
])
def test_closed_stdout_exits_quietly(argv, lines_read):
    """Like ``eprbell ... | head``: the reader closes the pipe early."""
    proc = run_python("-m", "eprbell.cli", *argv, popen=True)
    for _ in range(lines_read):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 65
    assert err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["dist", "--theta", "30"],  # fails at the flush
    ["scan", "--inequality", "bell", "--resolution-deg", "5"],  # fails mid-write
    ["--help"],
    ["dist", "--help"],
])
def test_full_stdout_exits_quietly(argv):
    """Like ``eprbell ... > /dev/full``: each write to stdout fails with ENOSPC."""
    with open("/dev/full", "w") as full:
        proc = run_python("-m", "eprbell.cli", *argv, stdout=full)
    assert proc.returncode == 65
    assert proc.stderr.startswith("error: cannot write stdout")
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_broken_pipe_without_file_descriptor(monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        writelines = write

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["dist", "--theta", "30"]) == 65


# Flags a subcommand used to accept and ignore; each now exits 64.
@pytest.mark.parametrize("argv", [
    ["dist", "--theta", "30", "--pair"],
    ["ineq", "bell", "--angles", "45,45", "--format", "csv"],
    ["scan", "--inequality", "bell", "--resolution-deg", "11.25", "--radians"],
    ["scan", "--inequality", "bell", "--resolution-deg", "11.25", "--format", "json"],
    ["joint3", "--qm", "--angles", "10,10", "--format", "csv"],
    ["joint4", "--pairs", "quad.json", "--radians"],
    ["joint4", "--pairs", "quad.json", "--format", "json"],
    ["simulate", "--theta", "60", "-n", "10", "--seed", "1", "--format", "csv"],
    ["info", "--step", "1", "--radians"],
    ["info", "--step", "1", "--format", "csv"],
    ["verify", "--trials", "1", "--radians"],
    ["verify", "--trials", "1", "--format", "json"],
])
def test_flag_not_taken(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert err.startswith("error: unrecognized arguments: --")


# --radians given with no angle option, where it used to change nothing.
@pytest.mark.parametrize("argv, angles", [
    (["dist", "--a", "1,0,0", "--b", "0,1,0", "--radians"], "theta"),
    (["ineq", "bell", "--cov", "0.1,0.2,0.3", "--radians"], "angles"),
    (["joint3", "--pairs", "F", "--radians"], "angles"),
])
def test_radians_without_angles(capsys, argv, angles):
    assert run(capsys, *argv) == (64, "", f"error: --radians requires --{angles}\n")


# A token that cannot be read, or that argparse refuses, is shown as
# errors.shown shows it: a short one in argparse's own text, a long one cut,
# so stderr stays one line, at most the cap longer than for a one-letter token.
@pytest.mark.parametrize("argv, token", [
    (["simulate", "--theta", "60", "--seed", "1", "-n"], "9" * 5000),  # past int()'s digit limit
    (["dist", "--theta"], "9" * 100_000),  # reads as inf
    (["verify", "--trials"], "x" * 2000),
    (["simulate", "--theta", "60", "-n", "1", "--seed", "1", "--mode"], "x" * 5000),
    ([], "x" * 5000),  # an unknown subcommand
    (["dist", "--theta", "30"], "x" * 5000),  # an extra argument
    (["scan", "--resolution-deg", "5", "--inequality"], "x" * 5000),
], ids=["simulate-n", "dist-theta", "verify-trials", "simulate-mode", "subcommand", "dist-extra", "scan-inequality"])
def test_long_token_bounded_usage_error(capsys, argv, token):
    code, out, err = run(capsys, *argv, token)
    assert code == 64 and out == "" and err.startswith("error: ")
    assert len(err.encode()) <= len(run(capsys, *argv, "y")[2]) + SHOWN_MAX_CHARS
    assert len(err.encode()) < SHOWN_MAX_CHARS + 200 and err.count("\n") == 1


# Each int option with a value it refuses; the last value's repr is as long
# as the cap allows, so it is not cut.
@pytest.mark.parametrize("argv", [
    ["simulate", "--theta", "60", "--seed", "1", "-n", "1.5"],
    ["simulate", "--theta", "60", "-n", "1", "--seed", "1.5"],
    ["simulate", "--theta", "60", "-n", "1", "--seed", "1", "--threads", "1.5"],
    ["verify", "--trials", "1.5"],
    ["verify", "--seed", "1.5"],
    ["verify", "--trials", "1." + "5" * (SHOWN_MAX_CHARS - 4)],
])
def test_short_int_token_keeps_argparse_text(capsys, argv):
    assert run(capsys, *argv) == (64, "", f"error: argument {argv[-2]}: invalid int value: {argv[-1]!r}\n")


@pytest.mark.parametrize("argv, degrees", [
    (["dist", "--local", "--theta"], [37.5]),
    (["ineq", "bell", "--angles"], [45.0, 30.25]),
    (["ineq", "chsh", "--angles"], [45.0, 45.0, 45.0]),
    (["joint3", "--qm", "--angles"], [71.3, 40.2]),
    (["simulate", "-n", "1000", "--seed", "3", "--theta"], [60.0]),
])
def test_radians_give_the_same_bytes(capsys, argv, degrees):
    deg = run(capsys, *argv, ",".join(map(repr, degrees)))
    rad = run(capsys, *argv, ",".join(repr(math.radians(d)) for d in degrees), "--radians")
    assert deg[0] == 0 and deg == rad


# Values that start with - and a digit or -. and a digit, which argparse's own
# pattern took for options; the last two entries are the option and its value.
@pytest.mark.parametrize("argv", [
    ["ineq", "chsh", "--cov", "-0.7,0.7,-0.7,-0.7"],
    ["ineq", "bell", "--angles", "-30,45"],
    ["dist", "--a", "1,0,0", "--b", "-1,0,0"],
    ["dist", "--theta", "-1e-3"],
    ["dist", "--theta", "-.5"],
])
def test_negative_values(capsys, tmp_path, argv):
    joined = (*argv[:-2], f"{argv[-2]}={argv[-1]}")
    spaced = run(capsys, *argv)
    assert spaced[0] == 0, spaced[2]
    assert spaced == run(capsys, *joined)
    # The --cov line's joined spelling is one of the golden table's commands.
    golden = {tuple(args): digest for args, digest in goldens(argv[0])}.get(joined)
    assert golden is None or check_command(argv, golden, tmp_path) == []


def readme_commands() -> list[list[str]]:
    """Each ``eprbell ...`` line of README's command-line block, as argv."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = next(b for b in text.split("```sh\n")[1:] if b.startswith("eprbell "))
    lines = block.split("```")[0].splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_commands_run(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    write_pairs(tmp_path / "pairs.json", "sym3")
    quad_file(tmp_path, TSIRELSON_COVS)
    code, out, err = run(capsys, *argv)
    assert code == 0 and out, err


def help_text(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main([*argv, "-h"])
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", ["dist", "ineq", "scan", "joint3", "joint4", "simulate", "info", "verify"])
def test_help(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "200")  # no wrapped lines
    top = help_text(capsys)
    assert cli.__doc__.split("\n")[0] not in top and "numpy" not in top
    # The subcommand's -h describes it with its line in the top-level list.
    description = help_text(capsys, command).split("\n\n")[1]
    assert f" {command} " in top and description in top


class TestTopLevel:
    def test_no_command(self, capsys):
        assert run(capsys)[0] == 64

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 64
