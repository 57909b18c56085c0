"""Seeded workload generator.

``generate(name, seed, tmpdir)`` returns the workload's steps. A step is one
CLI command, run in its own child as ``python -m eprbell.cli <args>``.
Pair-table inputs, and the feasibility instances the traced run's coverage
child solves in process, are written as JSON files under ``tmpdir``; the
program sees only argv and those files, and the benchmark's seed reaches it
only as the ``simulate --seed`` value.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

from oracles import fine_margin, mapping_of, pair_table, table_of

WORKLOADS = ("cli-mix", "simulate", "scan")

SIM_THETA = "60"
SIM_N = 16_777_216  # 256 blocks of 65,536
COVERAGE_SIM_N = 1_048_576  # 16 blocks per timed in-process simulate() call
COVERAGE_SIM_REPEATS = 3
FEAS_CHUNK = 12  # instances timed together; a chunk holds each class equally
COVERAGE_FEAS_BATCH = 120


def _deg(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.6f}"


def _quad_tables(q: np.ndarray) -> dict:
    """AB, AC, DB, DC pair tables of a (A, B, C, D) joint."""
    return {
        "AB": mapping_of(q.sum(axis=(2, 3))),
        "AC": mapping_of(q.sum(axis=(1, 3))),
        "DB": mapping_of(q.sum(axis=(0, 2)).T),
        "DC": mapping_of(q.sum(axis=(0, 1)).T),
    }


def _singlet_quad(phi: dict) -> dict:
    """Two-device singlet tables in the CHSH pattern at coplanar angles (rad)."""
    return {
        k: mapping_of(pair_table(math.cos(phi[k[0]] - phi[k[1]]), -1))
        for k in ("AB", "AC", "DB", "DC")
    }


def _random_phis(rng: random.Random) -> dict:
    return {v: rng.uniform(0.0, 2.0 * math.pi) for v in "ABCD"}


def _infeasible_singlet_quad(rng: random.Random) -> dict:
    """Singlet tables at random coplanar angles that break a CHSH inequality
    by at least 0.1 (drawn until one does)."""
    while True:
        pairs = _singlet_quad(_random_phis(rng))
        if fine_margin(*(table_of(pairs[k]) for k in ("AB", "AC", "DB", "DC"))) > 0.1:
            return pairs


def _violating_mix(rng: random.Random) -> dict:
    """Weight w >= 0.9 on maximally violating singlet tables, the rest on
    product tables with biased marginals: asymmetric, and infeasible because
    w * 2*sqrt(2) - (1 - w) * 2 > 2 for any w > 0.83."""
    r = rng.uniform(0.0, 2.0 * math.pi)
    phi = {"A": r, "D": r + math.pi / 2, "B": r + math.pi / 4, "C": r - math.pi / 4}
    singlet = _singlet_quad(phi)
    bias = {v: rng.uniform(-0.8, 0.8) for v in "ABCD"}
    w = rng.uniform(0.9, 0.98)
    out = {}
    for k, s in singlet.items():
        px = ((1 + bias[k[0]]) / 2, (1 - bias[k[0]]) / 2)
        py = ((1 + bias[k[1]]) / 2, (1 - bias[k[1]]) / 2)
        prod = [[px[i] * py[j] for j in range(2)] for i in range(2)]
        out[k] = mapping_of([[w * table_of(s)[i][j] + (1 - w) * prod[i][j] for j in range(2)] for i in range(2)])
    return out


def _triple_from_joint(np_rng: np.random.Generator) -> dict:
    q = np_rng.dirichlet(np.ones(8)).reshape(2, 2, 2)  # (A, B, C)
    return {"AB": mapping_of(q.sum(axis=2)), "BC": mapping_of(q.sum(axis=0)), "CA": mapping_of(q.sum(axis=1).T)}


def _triple_singlet(rng: random.Random) -> dict:
    """Single-device tables at coplanar angles: zero first moments."""
    phi = {v: rng.uniform(0.0, 2.0 * math.pi) for v in "ABC"}
    return {k: mapping_of(pair_table(math.cos(phi[k[0]] - phi[k[1]]), 1)) for k in ("AB", "BC", "CA")}


def feasibility_instances(rng: random.Random, np_rng: np.random.Generator, count: int) -> list[dict]:
    """Equal shares of (i) marginals of a random 16-cell joint, (ii) singlet
    tables at random coplanar angles and (iii) the violating mix; each with a
    three-variable check on tables from a random 8-cell joint or, for every
    other instance, single-device tables at random angles."""
    out = []
    for k in range(count):
        cls = k % 3
        if cls == 0:
            quad = _quad_tables(np_rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2))
        elif cls == 1:
            quad = _singlet_quad(_random_phis(rng))
        else:
            quad = _violating_mix(rng)
        symmetric = k % 2 == 1
        tri = _triple_singlet(rng) if symmetric else _triple_from_joint(np_rng)
        out.append({"cls": cls, "quad": quad, "tri": tri, "tri_symmetric": symmetric})
    return out


def _write(tmpdir: str, name: str, doc) -> str:
    path = os.path.join(tmpdir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _cli(name: str, args: list[str], check: dict) -> dict:
    return {"name": name, "args": args, "check": check}


def cli_mix_steps(rng: random.Random, np_rng: np.random.Generator, sim_seed: int, tmpdir: str) -> list[dict]:
    th1, th2 = _deg(rng, 0, 180), _deg(rng, 0, 180)
    bell = f"{_deg(rng, 0, 90)},{_deg(rng, 0, 90)}"
    chsh = f"{_deg(rng, 0, 90)},{_deg(rng, 0, 90)},{_deg(rng, 0, 90)}"
    qm3 = f"{_deg(rng, 0, 180)},{_deg(rng, 0, 180)}"
    sym3 = {"pairs": _triple_singlet(rng)}
    asym3 = {"pairs": _triple_from_joint(np_rng)}
    feas4 = {"pairs": _quad_tables(np_rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2))}
    infeas4 = {"pairs": _infeasible_singlet_quad(rng)}
    th_sim = _deg(rng, 0, 180)
    files = {k: _write(tmpdir, f"{k}.json", v) for k, v in
             (("sym3", sym3), ("asym3", asym3), ("feas4", feas4), ("infeas4", infeas4))}
    return [
        _cli("dist", ["dist", "--theta", th1], {"type": "dist", "theta": th1, "local": False}),
        _cli("dist-local", ["dist", "--theta", th2, "--local"], {"type": "dist", "theta": th2, "local": True}),
        _cli("ineq-bell", ["ineq", "bell", "--angles", bell], {"type": "ineq", "which": "bell", "angles": bell}),
        _cli("ineq-chsh", ["ineq", "chsh", "--angles", chsh], {"type": "ineq", "which": "chsh", "angles": chsh}),
        _cli("joint3-qm", ["joint3", "--qm", "--angles", qm3], {"type": "joint3_qm", "angles": qm3}),
        _cli("joint3-sym", ["joint3", "--pairs", files["sym3"]],
             {"type": "joint3_pairs", "doc": sym3, "symmetric": True}),
        _cli("joint3-asym", ["joint3", "--pairs", files["asym3"]],
             {"type": "joint3_pairs", "doc": asym3, "symmetric": False}),
        _cli("joint4-feasible", ["joint4", "--pairs", files["feas4"]],
             {"type": "joint4", "doc": feas4, "feasible": True}),
        _cli("joint4-infeasible", ["joint4", "--pairs", files["infeas4"]],
             {"type": "joint4", "doc": infeas4, "feasible": False}),
        _cli("scan-chsh-11.25", ["scan", "--inequality", "chsh", "--resolution-deg", "11.25"],
             {"type": "scan", "inequality": "chsh", "resolution": 11.25}),
        _cli("simulate-1block", ["simulate", "--theta", th_sim, "-n", "65536", "--seed", str(sim_seed),
                                 "--threads", "2"],
             {"type": "simulate", "theta": th_sim, "n": 65536, "mode": "local"}),
        _cli("info", ["info", "--step", "0.001"], {"type": "info", "step": 0.001}),
        _cli("verify", ["verify"], {"type": "verify"}),
    ]


def generate(name: str, seed: int, tmpdir: str) -> dict:
    """Steps of workload ``name``, plus the feasibility instances and the
    cli-mix commands that the traced run's coverage child executes."""
    rng = random.Random(seed)
    np_rng = np.random.default_rng(rng.getrandbits(64))
    sim_seed = rng.getrandbits(32)
    coverage_feas = _write(tmpdir, "coverage-feasibility.json",
                           feasibility_instances(rng, np_rng, COVERAGE_FEAS_BATCH))
    cli_mix = cli_mix_steps(rng, np_rng, sim_seed, tmpdir)
    if name == "cli-mix":
        steps = cli_mix
    elif name == "simulate":
        sim = ["simulate", "--theta", SIM_THETA, "-n", str(SIM_N), "--seed", str(sim_seed), "--mode", "singlet"]
        check = {"type": "simulate", "theta": SIM_THETA, "n": SIM_N, "mode": "singlet"}
        steps = [
            _cli("simulate-t1", sim + ["--threads", "1"], check),
            _cli("simulate-t2", sim + ["--threads", "2"], check),
        ]
    elif name == "scan":
        steps = [
            _cli("scan-chsh-5", ["scan", "--inequality", "chsh", "--resolution-deg", "5"],
                 {"type": "scan", "inequality": "chsh", "resolution": 5.0}),
            _cli("scan-bell-0.5", ["scan", "--inequality", "bell", "--resolution-deg", "0.5"],
                 {"type": "scan", "inequality": "bell", "resolution": 0.5}),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return {"steps": steps, "sim_seed": sim_seed, "coverage_feas": coverage_feas, "cli_mix": cli_mix}
