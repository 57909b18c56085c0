import csv
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import eprbell
from eprbell import cli, verify
from eprbell.cli import main
from eprbell.inequalities import violation_scan
from eprbell.information import INFO_MAX_POINTS

from conftest import CONTRA_AB, CONTRA_BC, CONTRA_CA

SQRT2 = math.sqrt(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


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

    # sha256 of stdout as the dense-meshgrid kernel and csv.writer wrote it;
    # the slabbed kernel and streamed rows must match it byte for byte.
    # Recorded with numpy 2.4.6 on a 2-vCPU Intel Xeon (x86-64). The lhs
    # digits come from np.cos, whose last bits may differ with another numpy
    # version, SIMD path or CPU; a mismatch there is a platform difference,
    # not a reason to loosen this test. test_scan_matches_dense_oracle in
    # test_inequalities.py is the platform-independent bit-identity check.
    GOLDEN = [
        (("chsh", "--resolution-deg", "11.25"),
         "d41a385c6b6eecf7e4cffec43362a37b2201351d77da0042d823e884eebc0508"),
        (("chsh", "--resolution-deg", "5"),
         "f23ca0908dfb18ae94adb45f45efa0f2a69246305bc5b013d2f9586fde723c25"),
        (("bell", "--resolution-deg", "0.5"),
         "50cde1a5cc6790eea128eedcc3d38916003a846e6583cc65c6455884a5ead06a"),
        (("bell", "--resolution-deg", "5"),
         "b3fb1a535c5d6dc39c96e9ece955219be14824e76d52223d0623b0c3e82d5eb4"),
        (("bell", "--resolution-rad", repr(math.pi / 32)),
         "b952d2778fef7e444927e7169cdd15963fa4845f478fffb1584a9ccee294222d"),
    ]

    @pytest.mark.parametrize("args, digest", GOLDEN)
    def test_golden_bytes(self, capsys, tmp_path, args, digest):
        code, out, _ = run(capsys, "scan", "--inequality", *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        path = tmp_path / "scan.csv"
        code, out, _ = run(capsys, "scan", "--inequality", *args, "-o", str(path))
        assert code == 0 and out == ""
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

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
        # The bytes csv.writer gives for the same floats: unlike GOLDEN, this
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
])
def test_boundary_usage_errors(capsys, tmp_path, argv):
    code, out, err = run(capsys, *with_golden_files(tmp_path, argv))
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
        # Symmetric tables with <AB> = <BC> = <CA> = -1/3 - d: lo - hi runs from
        # 0 to 6 d across the slack. The verdict, the interval and the
        # inequalities must agree on every one, lo - hi in (1e-12, 2e-12] too.
        path = tmp_path / "pairs.json"
        for k in range(31):
            table = cov_table(-1.0 / 3.0 - k * (6e-13 / 30))
            path.write_text(json.dumps({"pairs": {"AB": table, "BC": table, "CA": table}}))
            doc = run_json(capsys, "joint3", "--pairs", str(path))
            assert doc["exists"] == (not doc["mu3_interval"]["empty"]) == doc["necessary_conditions_hold"], k

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


def quad_file(tmp_path, covs, name="quad.json"):
    path = tmp_path / name
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


def independent_table(p, q):
    """Pair table of two independent signs with P(+) = p and q."""
    return {"pp": p * q, "pm": p * (1 - q), "mp": (1 - p) * q, "mm": (1 - p) * (1 - q)}


# Pair files of the golden-bytes test. DIRICHLET4 holds the CHSH-pattern
# marginals of one 16-cell joint drawn from a flat Dirichlet, as literals.
GOLDEN_PAIRS = {
    "sym3": {"AB": cov_table(math.cos(0.7)), "BC": cov_table(math.cos(2.1)),
             "CA": cov_table(math.cos(2.8))},
    "asym3": {"AB": independent_table(0.6, 0.3), "BC": independent_table(0.3, 0.8),
              "CA": independent_table(0.8, 0.6)},
    "dirichlet4": {
        "AB": {"pp": 0.16842711735236598, "pm": 0.36974333507656165,
               "mp": 0.41595718455652814, "mm": 0.04587236301454417},
        "AC": {"pp": 0.31651218996514874, "pm": 0.2216582624637789,
               "mp": 0.3132794700220164, "mm": 0.14855007754905594},
        "DB": {"pp": 0.046193841389017186, "pm": 0.1873413313071302,
               "mp": 0.538190460519877, "mm": 0.2282743667839756},
        "DC": {"pp": 0.08034738241745085, "pm": 0.1531877902786965,
               "mp": 0.5494442775697143, "mm": 0.2170205497341383},
    },
    "tsirelson4": {k: cov_table(c) for k, c in TSIRELSON_COVS.items()},
    # Marginals of a joint on four cells, with a CHSH lhs on the bound: the
    # witness has (B, C) cells without mass and products that round to -0.0.
    "sparse4": {
        "AB": {"pp": 0.04013727766298369, "pm": 0.8858994317219209,
               "mp": 0.07396329061509557, "mm": 0.0},
        "AC": {"pp": 0.8217987312823399, "pm": 0.10423797810256465,
               "mp": 0.07396329061509557, "mm": 0.0},
        "DB": {"pp": 0.0, "pm": 0.10423797810256465,
               "mp": 0.11410056827807927, "mm": 0.7816614536193562},
        "DC": {"pp": 0.0, "pm": 0.10423797810256465,
               "mp": 0.8957620218974355, "mm": 0.0},
    },
}


class TestShortGolden:
    # sha256 of stdout of the short subcommands, recorded before their tables
    # moved from numpy arrays to Python floats; the port must match them byte
    # for byte. Every value is IEEE-754 double arithmetic written out by repr.
    GOLDEN = [
        (("dist", "--theta", "60"),
         "dfc783e5f5290cc6cf9accf4373ef264452c03877e5356579b254dd70edaaf7f"),
        (("dist", "--theta", "37.5", "--local"),
         "aea5b6c8a3fe9b6c08bc345ae13e2ea79f2491db3e05adbb4b0b0f35e544021a"),
        (("dist", "--theta", "1.1", "--radians"),
         "4a646c6d53074e2b4c617d189b31fb8c159b625b4e79cd1613374c24fb561a34"),
        (("dist", "--a", "0,0.6,0.8", "--b", "0.48,0.6,-0.64"),
         "2588e368a34fbdc4cc76ec82ecd43c64d87d27fe85060bb65090eba65c166d99"),
        (("dist", "--theta", "123.4", "--format", "csv"),
         "704f7adf11c766ef91ba9b2bf8d05e3b6fd0370d05cb94afb9373a7a264b547e"),
        (("ineq", "bell", "--angles", "45,45"),
         "6da6a8c4d496bdd8f1f42d62a875ccae740fc609ee5ba978ee40cea02afa0c94"),
        (("ineq", "bell", "--cov", "0.5,-0.5,0.1"),
         "4b27dba5e83a377b457f41371c80f1c4c8917ba981dc4ceb5e2a6640cb6eb7c5"),
        (("ineq", "chsh", "--angles", "45,45,45"),
         "d141ffaf45a874a9ade593a5086e3f2c9db17bc75049dd3db004a8d9df04be9e"),
        (("ineq", "chsh", "--cov=-0.7,0.7,-0.7,-0.7"),
         "28bcd78cd68b7b053ce54644e291338d133855bcedb5f2d75ee60f582cc3fa39"),
        (("joint3", "--qm", "--angles", "22.5,22.5"),
         "2f82abc44b6c95b09de9cc0218414d6bb23883e66bf4b5210650078b015c67e0"),
        (("joint3", "--qm", "--angles", "71.3,40.2"),
         "e3841ac214e243fe7e4b397493b5d2a24539433cb2ebe48a7e832aa49005dd0e"),
        (("joint3", "--pairs", "sym3"),
         "4185e91ddeb9f5cf9d5e5f509459d1b274f867926e6373e7cb2e36ce0a425d4b"),
        (("joint3", "--pairs", "asym3"),
         "c2a95376558e00d4e3777c02fe031912575798948cbd0a4514f1a3392589c65c"),
        (("joint3", "--pairs", "asym3", "--mu3", "0.05"),
         "54e73a761ff2e4a488759fd5c8dd7d483b3ec53d812cb9d0264c209d3da51f53"),
        (("joint4", "--pairs", "dirichlet4"),
         "eb2d37b4d94690e6f2081ab62a87bea032608eba6e8310e3c725aec3a24896ae"),
        (("joint4", "--pairs", "sparse4"),
         "db10a054825dc256d64a9cc8cb7d0adb997f0a071891a149c149978f95a52c4e"),
        (("joint4", "--pairs", "tsirelson4"),
         "21bacdc50666abaf1704fd6c28217c12194719ea92b731c32ea3e9342bd11822"),
        (("info", "--step", "0.001"),
         "b9d8ba408063cbd6e72522429f48e8664d0ddcfebc9c5228a28f8f335c5eefce"),
    ]

    @pytest.mark.parametrize("args, digest", GOLDEN)
    def test_golden_bytes(self, capsys, tmp_path, args, digest):
        code, out, err = run(capsys, *with_golden_files(tmp_path, args))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def with_golden_files(tmp_path, args) -> list[str]:
    """``args`` with a ``--pairs`` name from GOLDEN_PAIRS written to a file."""
    argv = list(args)
    if "--pairs" in argv:
        k = argv.index("--pairs") + 1
        path = tmp_path / f"{argv[k]}.json"
        path.write_text(json.dumps({"pairs": GOLDEN_PAIRS[argv[k]]}))
        argv[k] = str(path)
    return argv


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

# Runs each [step, argv] of the JSON list in sys.argv[1] in one process and
# prints, after import and after each step, which of numpy, numpy.ma, scipy,
# concurrent.futures and the eprbell modules are loaded.
MODULE_PROBE = """
import json, sys
def loaded():
    return sorted(name for name in sys.modules
                  if name in ("numpy", "numpy.ma", "scipy", "concurrent.futures") or name.startswith("eprbell."))
seen = {}
import eprbell
seen["import eprbell"] = loaded()
from eprbell.cli import main
for step, argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    seen[step] = loaded()
print(json.dumps(seen))
"""

# With sys.modules[name] = None every import of that module raises
# ImportError. Runs each argv of the JSON list in sys.argv[2].
BLOCKED_PROBE = """
import json, sys
sys.modules[sys.argv[1]] = None
from eprbell.cli import main
for argv in json.loads(sys.argv[2]):
    code = main(argv)
    if code:
        sys.exit(code)
"""


def run_probe(probe, *args):
    src = str(Path(eprbell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", probe, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_scipy_never_loaded(tmp_path):
    steps = [
        ["dist", ["dist", "--theta", "30"]],
        ["joint4 infeasible", ["joint4", "--pairs", quad_file(tmp_path, TSIRELSON_COVS, "infeasible.json")]],
        ["joint4 feasible", ["joint4", "--pairs", quad_file(tmp_path, UNIFORM_COVS, "feasible.json")]],
        ["simulate", ["simulate", "--theta", "60", "-n", "1000", "--seed", "1"]],
    ]
    proc = run_probe(MODULE_PROBE, json.dumps(steps))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert list(seen) == ["import eprbell", "dist", "joint4 infeasible", "joint4 feasible", "simulate"]
    assert not any("scipy" in loaded for loaded in seen.values())


def test_numpy_never_loaded(tmp_path):
    steps = [[name, with_golden_files(tmp_path, args)] for name, args in SHORT_COMMANDS.items()]
    steps.append(["scan", ["scan", "--inequality", "bell", "--resolution-deg", "11.25"]])
    proc = run_probe(MODULE_PROBE, json.dumps(steps))
    assert proc.returncode == 0, proc.stderr
    seen = {step: [name for name in loaded if not name.startswith("eprbell.")]
            for step, loaded in json.loads(proc.stdout.splitlines()[-1]).items()}
    assert seen.pop("scan") == ["numpy"]  # the probe sees a lazy import
    assert seen == dict.fromkeys(["import eprbell", *SHORT_COMMANDS], [])


# The eprbell modules each subcommand loads, run alone: cli and the core that
# every command shares, then the module it computes with.
CORE_MODULES = ["eprbell.cli", "eprbell.errors", "eprbell.geometry", "eprbell.spincore"]


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
    steps = [["command", with_golden_files(tmp_path, argv)]]
    proc = run_probe(MODULE_PROBE, json.dumps(steps))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import eprbell"] == []
    loaded = [name for name in seen["command"] if name.startswith("eprbell.")]
    assert loaded == sorted(CORE_MODULES + [f"eprbell.{name}" for name in own_modules])
    # np.unique loads numpy.ma unless asked for an index array; only a
    # simulate on more than one worker starts a thread pool.
    assert not {"numpy.ma", "concurrent.futures"} & set(seen["command"])


def test_public_names():
    """Every name of the one lazy table is the object its module holds, and
    only those names are served."""
    for name, module in eprbell._MODULE_OF.items():
        assert getattr(eprbell, name) is getattr(importlib.import_module(f"eprbell.{module}"), name), name
    assert set(eprbell._MODULE_OF) <= set(dir(eprbell))
    with pytest.raises(AttributeError, match="no_such_name"):
        eprbell.no_such_name


def test_short_commands_without_numpy(capsys, tmp_path):
    argvs = [with_golden_files(tmp_path, args) for args in SHORT_COMMANDS.values()]
    expected = "".join(run(capsys, *argv)[1] for argv in argvs)
    proc = run_probe(BLOCKED_PROBE, "numpy", json.dumps(argvs))
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
    proc = run_probe("import sys\nsys.modules['numpy'] = None\n" + TABLE_CALLS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "" and proc.stdout == expected


def test_joint4_witness_without_scipy(tmp_path):
    argv = ["joint4", "--pairs", quad_file(tmp_path, UNIFORM_COVS)]
    proc = run_probe(BLOCKED_PROBE, "scipy", json.dumps([argv]))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["feasible"] is True
    assert sum(doc["witness"].values()) == pytest.approx(1.0, abs=1e-9)


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

    def test_golden_bytes(self, capsys):
        # sha256 of stdout, recorded with numpy 2.4.6 on a 2-vCPU Intel Xeon
        # (x86-64); tests/test_hvsim.py::TestGoldenCounts pins the counts.
        code, out, _ = run(capsys, "simulate", "--theta", "60", "-n", "300000",
                           "--seed", "12", "--mode", "singlet")
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "3cb955c5d5c3eb5b0e8ae45ab8e631d658d1473d61025a2c2ed2df805077730b")

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
    @pytest.mark.parametrize("intervals, code", [
        (INFO_MAX_POINTS - 1, 0), (INFO_MAX_POINTS - 0.6, 0),
        (INFO_MAX_POINTS - 0.4, 64), (1e6, 64),
    ])
    def test_point_cap(self, capsys, intervals, code):
        got, out, err = run(capsys, "info", "--step", repr(2.0 / intervals))
        assert got == code
        if code:
            assert out == "" and err.startswith("error: step") and str(INFO_MAX_POINTS) in err
        else:
            assert out.count("\n") == 1 + INFO_MAX_POINTS


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

    # sha256 of stdout, recorded with numpy 2.4.6 on a 2-vCPU Intel Xeon
    # (the sphere draws go through numpy's cos and sin).
    @pytest.mark.parametrize("args, digest", [
        ((), "614500b884db27792eb49fb7104ba7c87c9bf1732a2ad99dbd51eb71791130d5"),
        (("--trials", "50", "--seed", "1"),
         "9cb9352f6ea46deb8ff36fa38c2c7647bfcc54cda8675f0ae59633c58ad986ba"),
    ])
    def test_golden_bytes(self, capsys, args, digest):
        code, out, _ = run(capsys, "verify", *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, lines_read", [
    (["scan", "--inequality", "chsh", "--resolution-deg", "5"], 1),
    (["verify", "--trials", "50"], 0),
])
def test_closed_stdout_exits_quietly(argv, lines_read):
    """Like ``eprbell ... | head``: the reader closes the pipe early."""
    src = str(Path(eprbell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen([sys.executable, "-m", "eprbell.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines_read):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 65
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["dist", "--theta", "30"],  # fails at the flush
    ["scan", "--inequality", "bell", "--resolution-deg", "5"],  # fails mid-write
    ["--help"],
    ["dist", "--help"],
])
def test_full_stdout_exits_quietly(argv):
    """Like ``eprbell ... > /dev/full``: each write to stdout fails with ENOSPC."""
    src = str(Path(eprbell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "eprbell.cli", *argv], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
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
