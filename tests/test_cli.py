import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import eprbell
from eprbell.cli import main

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

    def test_grid_limit(self, capsys):
        code, out, err = run(capsys, "scan", "--inequality", "chsh", "--resolution-deg", "1.75")
        assert code == 64 and out == ""
        assert err.startswith("error: resolution") and "206^3" in err
        assert "Traceback" not in err

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


@pytest.mark.parametrize("argv", [
    ["dist", "--theta", "nan"],
    ["dist", "--theta", "inf"],
    ["simulate", "--theta", "inf", "-n", "10", "--seed", "1"],
    ["scan", "--inequality", "bell", "--resolution-deg", "nan"],
    ["scan", "--inequality", "bell", "--resolution-rad=-inf"],
    ["joint3", "--qm", "--angles", "10,10", "--mu3", "nan"],
    ["info", "--step", "nan"],
    ["simulate", "--theta", "60", "-n", "10", "--seed", "-1"],
    ["simulate", "--theta", "60", "-n", "10", "--seed", "1", "--threads", "0"],
    ["simulate", "--theta", "60", "-n", "10", "--seed", "1", "--threads", "-3"],
    ["verify", "--trials", "0"],
    ["verify", "--trials", "-1"],
    ["verify", "--trials", "2", "--seed", "-1"],
])
def test_boundary_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["dist", "--theta", "30"],
    ["scan", "--inequality", "bell", "--resolution-deg", "5"],
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

    def test_missing_file(self, capsys, tmp_path):
        assert run(capsys, "joint3", "--pairs", str(tmp_path / "absent.json"))[0] == 65

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(capsys, "joint3", "--pairs", str(path))[0] == 65
        path.write_text(json.dumps({"pairs": {"AB": {"pp": 1.0}}}))
        assert run(capsys, "joint3", "--pairs", str(path))[0] == 65

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


SCIPY_PROBE = """
import json, sys
loaded = {}
import eprbell
loaded["import eprbell"] = "scipy" in sys.modules
from eprbell.cli import main
for step, argv in (
    ("dist", ["dist", "--theta", "30"]),
    ("joint4 infeasible", ["joint4", "--pairs", sys.argv[1]]),
    ("joint4 feasible", ["joint4", "--pairs", sys.argv[2]]),
):
    assert main(argv) == 0
    loaded[step] = "scipy" in sys.modules
print(json.dumps(loaded))
"""

# With sys.modules["scipy"] = None every scipy import raises ImportError.
SCIPY_BLOCKED = """
import sys
sys.modules["scipy"] = None
from eprbell.cli import main
sys.exit(main(["joint4", "--pairs", sys.argv[1]]))
"""


def run_probe(probe, *args):
    src = str(Path(eprbell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", probe, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_scipy_never_loaded(tmp_path):
    proc = run_probe(SCIPY_PROBE, quad_file(tmp_path, TSIRELSON_COVS, "infeasible.json"),
                     quad_file(tmp_path, UNIFORM_COVS, "feasible.json"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import eprbell": False, "dist": False,
        "joint4 infeasible": False, "joint4 feasible": False,
    }


def test_joint4_witness_without_scipy(tmp_path):
    proc = run_probe(SCIPY_BLOCKED, quad_file(tmp_path, UNIFORM_COVS))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["feasible"] is True
    assert sum(doc["witness"].values()) == pytest.approx(1.0, abs=1e-9)


class TestSimulate:
    ARGS = ("simulate", "--theta", "60", "-n", "100000", "--seed", "7", "--mode", "singlet")

    def test_payload(self, capsys):
        doc = run_json(capsys, *self.ARGS)
        assert list(doc) == [
            "n", "seed", "theta_ab_rad", "mode", "empirical",
            "theoretical", "max_abs_dev", "chi_square",
        ]
        assert doc["theta_ab_rad"] == pytest.approx(math.pi / 3, abs=1e-12)
        assert doc["theoretical"]["pm"] == pytest.approx(0.375, abs=1e-12)
        assert doc["max_abs_dev"] < 0.01

    def test_byte_identical_across_threads(self, capsys):
        _, out1, _ = run(capsys, *self.ARGS, "--threads", "1")
        _, out8, _ = run(capsys, *self.ARGS, "--threads", "8")
        assert out1 == out8

    def test_golden_bytes(self, capsys):
        # sha256 of stdout, recorded with numpy 2.4.6 on a 2-vCPU Intel Xeon
        # (x86-64); tests/test_hvsim.py::TestGoldenCounts pins the counts.
        code, out, _ = run(capsys, "simulate", "--theta", "60", "-n", "300000",
                           "--seed", "12", "--mode", "singlet")
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "087f8a21a6189bb62f029921353e17460c50490dc848bbdaefc130fe075c4973")

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


class TestVerify:
    def test_runs_clean(self, capsys):
        code, out, _ = run(capsys, "verify", "--trials", "50", "--seed", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert all(line.startswith("PASS") for line in lines)


class TestTopLevel:
    def test_no_command(self, capsys):
        assert run(capsys)[0] == 64

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 64
