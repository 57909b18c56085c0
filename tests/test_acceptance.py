"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the suite doubles as a release
checklist; tolerances are pinned in the assertions.
"""

import itertools
import json
import math
import sys
import time

import numpy as np
import pytest

from eprbell import (
    Direction,
    MomentSet3,
    PairDist,
    apply_property_I,
    chsh,
    chsh_family_verdicts,
    chsh_to_bell_reduction,
    conditional_entropy,
    existence_check_3,
    local_pair_dist,
    marginal,
    mixture_pair_dist,
    moments_from_pairs,
    mu3_interval,
    mutual_information,
    qm_bell_lhs,
    qm_pair_dist,
    qm_triple,
    quad_feasibility,
    simulate,
    singlet_pair_prob,
    triple_from_moments,
)
from eprbell.cli import main as cli_main
from eprbell.inequalities import CovarianceQuad, CovarianceTriple
from eprbell.joint import QUAD_TOL

from conftest import CHSH_AXES, CONTRA_AB, CONTRA_BC, CONTRA_CA, lp_witness, random_direction

SQRT2 = math.sqrt(2.0)


def report(number, label, passed):
    # write past pytest's capture so the checklist shows in any run
    line = f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'}: {label}"
    print(line)
    if sys.stdout is not sys.__stdout__ and sys.__stdout__ is not None:
        print(line, file=sys.__stdout__)
    assert passed


def test_criterion_01_bell_violation_number():
    lhs = qm_bell_lhs(math.pi / 4, math.pi / 2, math.pi / 4)
    ok = abs(lhs - SQRT2) < 1e-12
    report(1, f"Bell lhs at (pi/4, pi/2, pi/4) = sqrt(2) +- 1e-12 (got {lhs:.15f})", ok)


def test_criterion_02_chsh_violation_number():
    t_ab = t_db = t_dc = math.pi / 4
    t_ac = 3 * math.pi / 4
    quad = CovarianceQuad(
        -math.cos(t_ab), -math.cos(t_ac), -math.cos(t_db), -math.cos(t_dc)
    )
    lhs = chsh(quad).lhs
    ok = abs(lhs - 2 * SQRT2) < 1e-12
    report(2, f"CHSH lhs at the coplanar optimum = 2*sqrt(2) +- 1e-12 (got {lhs:.15f})", ok)


def test_criterion_03_wavefunction_oracle_agreement():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        a, b = random_direction(rng), random_direction(rng)
        alpha = 1 if rng.integers(2) else -1
        beta = 1 if rng.integers(2) else -1
        dev = abs(singlet_pair_prob(a, b, alpha, beta) - qm_pair_dist(a, b).prob(alpha, beta))
        worst = max(worst, dev)
    report(3, f"1000 random Born-rule probabilities within 1e-12 (max dev {worst:.2e})", worst < 1e-12)


def test_criterion_04_equivalence_round_trip():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        a, b = random_direction(rng), random_direction(rng)
        loc, qm = local_pair_dist(a, b), qm_pair_dist(a, b)
        worst = max(worst, float(np.max(np.abs(apply_property_I(loc).table - qm.table))))
        worst = max(worst, float(np.max(np.abs(apply_property_I(qm).table - loc.table))))
    report(4, f"sign-flip relabeling round trip within 1e-12 over 1000 pairs (max dev {worst:.2e})", worst < 1e-12)


def test_criterion_05_hidden_variable_reproduces_qm():
    a = Direction.from_angle(0.0)
    b = Direction.from_angle(math.pi / 3)
    rep = simulate(a, b, 1_000_000, seed=5, mode="singlet")
    rng = np.random.default_rng(5)
    mix_dev = 0.0
    for _ in range(100):
        u, v = random_direction(rng), random_direction(rng)
        mix_dev = max(mix_dev, float(np.max(np.abs(
            mixture_pair_dist(u, v).table - local_pair_dist(u, v).table
        ))))
    ok = rep.max_abs_dev < 0.005 and mix_dev < 1e-12
    report(5, f"simulation at theta=pi/3, n=1e6 within 0.005 (got {rep.max_abs_dev:.4f}); "
              f"mixture identity within 1e-12 (got {mix_dev:.2e})", ok)


def test_criterion_06_contradictory_pair_tables():
    pairs = [PairDist.from_mapping(m) for m in (CONTRA_AB, CONTRA_BC, CONTRA_CA)]
    m = moments_from_pairs(*pairs)
    moments_ok = (m.m_ab, m.m_ca, m.m_bc) == (1.0, 1.0, -1.0)
    check = existence_check_3(0, 0, 0, m.m_ab, m.m_bc, m.m_ca, symmetric=True)
    lhs_ok = abs(check.verdicts["abs_plus"].lhs - 3.0) < 1e-12 and not check.verdicts["abs_plus"].satisfied
    interval = mu3_interval(0, 0, 0, m.m_ab, m.m_bc, m.m_ca)
    entry_ok = True
    for mu3 in np.linspace(-1.0, 1.0, 21):
        t = triple_from_moments(MomentSet3(m_ab=1, m_bc=-1, m_ca=1, m_abc=mu3))
        cell = t.prob(-1, 1, 1)
        if abs(cell - (-2 - mu3) / 8) > 1e-12 or cell > -0.125 + 1e-12:
            entry_ok = False
    ok = moments_ok and lhs_ok and interval.empty and entry_ok
    report(6, "contradictory tables: moments (1, 1, -1), inequality lhs 3, empty mu3 "
              "interval, cell (-1,+1,+1) = (-2 - mu3)/8 <= -1/8", ok)


def test_criterion_07_existence_property_suite():
    rng = np.random.default_rng(7)
    start = time.monotonic()
    disagreements = 0
    grid = np.arange(-1.0, 1.0 + 5e-4, 1e-3)
    signs = np.array(list(itertools.product((1, -1), repeat=3)))
    for _ in range(10_000):
        m_ab, m_bc, m_ca = rng.uniform(-1, 1, 3)
        via_check = existence_check_3(0, 0, 0, m_ab, m_bc, m_ca, symmetric=True).exists
        via_interval = not mu3_interval(0, 0, 0, m_ab, m_bc, m_ca).empty
        base = (
            1.0
            + signs[:, 0] * signs[:, 1] * m_ab
            + signs[:, 1] * signs[:, 2] * m_bc
            + signs[:, 2] * signs[:, 0] * m_ca
        )
        odd = signs.prod(axis=1)
        via_grid = bool(
            np.any(np.all(base[None, :] + grid[:, None] * odd[None, :] >= -1e-9, axis=1))
        )
        if not (via_check == via_interval == via_grid):
            disagreements += 1
    elapsed = time.monotonic() - start
    ok = disagreements == 0 and elapsed < 30
    report(7, f"10^4 symmetric triples: inequality check == interval == grid oracle "
              f"({disagreements} disagreements, {elapsed:.1f}s)", ok)


def test_criterion_08_triple_marginalization():
    rng = np.random.default_rng(8)
    worst = 0.0
    saw_negative = False
    for _ in range(1000):
        a, b, c = (random_direction(rng) for _ in range(3))
        t = qm_triple(a, b, c)
        saw_negative = saw_negative or not t.valid
        for axes, pair in (((0, 1), (a, b)), ((1, 2), (b, c)), ((0, 2), (a, c))):
            dev = float(np.max(np.abs(
                marginal(t, *axes).table - local_pair_dist(*pair).table
            )))
            worst = max(worst, dev)
    ok = worst < 1e-12 and saw_negative
    report(8, f"1000 random triples marginalize to the pair tables within 1e-12 "
              f"(max dev {worst:.2e}; negative-entry cases included: {saw_negative})", ok)


def test_criterion_09_fine_consistency():
    rng = np.random.default_rng(9)
    start = time.monotonic()
    disagreements = 0
    worst_witness_dev = 0.0

    def pair_from_cov(c):
        return PairDist(0.25 * np.array([[1 + c, 1 - c], [1 - c, 1 + c]]))

    for _ in range(1000):
        cs = rng.uniform(-1, 1, 4)
        tables = {k: pair_from_cov(c) for k, c in zip(("AB", "AC", "DB", "DC"), cs)}
        args = (tables["AB"], tables["AC"], tables["DB"], tables["DC"])
        res = quad_feasibility(*args)
        lp = lp_witness(*args)
        ineq = all(v.satisfied for v in chsh_family_verdicts(*cs).values())
        if (lp is not None) != ineq or res.feasible != ineq:
            disagreements += 1
        for witness in (res.witness, lp):
            if witness is None:
                continue
            if witness.table.min() < -QUAD_TOL:
                disagreements += 1
            for key, table in tables.items():
                dev = float(np.max(np.abs(
                    marginal(witness, *CHSH_AXES[key]).table - table.table
                )))
                worst_witness_dev = max(worst_witness_dev, dev)
    elapsed = time.monotonic() - start
    ok = disagreements == 0 and worst_witness_dev < 1e-9 and elapsed < 60
    report(9, f"10^3 symmetric quadruples: glued witness == LP == eight inequalities "
              f"({disagreements} disagreements); witnesses within 1e-9 "
              f"(max dev {worst_witness_dev:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_10_information_endpoints():
    def local_at(x):
        return local_pair_dist(Direction.from_angle(0.0), Direction.from_angle(math.acos(x)))

    mi_ok = all(
        abs(mutual_information(local_at(x)) - want) < 1e-9
        for x, want in ((-1.0, 1.0), (0.0, 0.0), (1.0, 1.0))
    )
    ce_ok = all(
        abs(conditional_entropy(Direction.from_angle(0.0), Direction.from_angle(t)) - want) < 1e-9
        for t, want in ((0.0, 0.0), (math.pi / 2, 1.0), (math.pi, 0.0))
    )
    report(10, "mutual information {1, 0, 1} bits at x in {-1, 0, 1}; conditional "
               "entropy {0, 1, 0} bits at theta in {0, pi/2, pi}, all within 1e-9",
           mi_ok and ce_ok)


def test_criterion_11_reduction_identity_exact():
    # Two routes: the CHSH formula at d = b (c_db = -1) and the Bell lhs plus
    # one. Their terms are at most 2, so rounding keeps them within an ulp of 2.
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10_000):
        triple = CovarianceTriple(*rng.uniform(-1, 1, 3))
        chsh_lhs, bell_lhs = chsh_to_bell_reduction(triple)
        worst = max(worst, abs(chsh_lhs - (bell_lhs + 1.0)))
    report(11, "degenerate-setting reduction: chsh lhs (c_db = -1) within one ulp of 2 "
               f"of bell lhs + 1 on 10^4 random triples (worst {worst:.2e})", worst <= math.ulp(2.0))


def test_criterion_12_simulation_determinism(tmp_path):
    outputs = []
    for threads in ("1", "8"):
        path = tmp_path / f"sim_t{threads}.json"
        code = cli_main([
            "simulate", "--theta", "60", "-n", "300000", "--seed", "12",
            "--mode", "singlet", "--threads", threads, "-o", str(path),
        ])
        assert code == 0
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] and json.loads(outputs[0])["n"] == 300000
    report(12, "simulate JSON byte-identical for --threads 1 vs --threads 8", ok)
