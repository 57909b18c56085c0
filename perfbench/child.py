"""Child process of the benchmark: imports ``eprbell`` and runs it in process.

    child.py cli      --result R --trace T --stdout OUT -- <eprbell.cli args>
    child.py coverage --result R --trace T --plan FILE

``cli`` runs one CLI command through ``eprbell.cli.main(argv)`` under the
tracer. ``coverage`` runs a list of CLI commands and then the in-process
simulator and feasibility kernels, all traced in one interpreter; the kernels
give the simulator and feasibility rates. Both modes write a JSON result to R
(the kernels check their results against the oracles); work done after the
timed part (the hvsim block rebuild, the tracemalloc re-scan) is reported as
``extra_s``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
import traceback

import eprbell
from eprbell import hvsim, joint
from eprbell.geometry import Direction
from eprbell.spincore import PairDist

import oracles
from tracer import Tracer, rebuild_blocks
from workloads import FEAS_CHUNK


def sim_kernel(n: int, theta_deg: str, seed: int, repeats: int) -> dict:
    """``repeats`` rounds of simulate() of n singlet samples at 1, then 2
    threads."""
    theta = math.radians(float(theta_deg))
    a, b = Direction.from_angle(0.0), Direction.from_angle(theta)
    out = {"ops": 2 * repeats, "failed_ops": 0, "failures": [],
           "sim_msamples_s_t1": [], "sim_msamples_s_t2": []}
    for _ in range(repeats):
        for threads in (1, 2):
            t0 = time.perf_counter()
            report = hvsim.simulate(a, b, n, seed, mode="singlet", threads=threads)
            out[f"sim_msamples_s_t{threads}"].append(n / (time.perf_counter() - t0) / 1e6)
            errors = oracles.simulation_errors(report.empirical_mapping(), n, theta, "singlet")
            out["failures"] += errors
            out["failed_ops"] += bool(errors)
    return out


def _pairs(doc: dict, keys) -> list[PairDist]:
    return [PairDist.from_mapping(doc[k], tuple(k)) for k in keys]


def load_instances(path: str) -> list[dict]:
    with open(path) as fh:
        return json.load(fh)


def feas_kernel(instances: list[dict]) -> dict:
    """One quad_feasibility call plus one three-variable check per instance,
    timed per chunk of FEAS_CHUNK instances."""
    results, rates = [], []
    for start in range(0, len(instances), FEAS_CHUNK):
        chunk = instances[start:start + FEAS_CHUNK]
        t0 = time.perf_counter()
        for inst in chunk:
            quad = joint.quad_feasibility(*_pairs(inst["quad"], ("AB", "AC", "DB", "DC")))
            m = joint.moments_from_pairs(*_pairs(inst["tri"], ("AB", "BC", "CA")))
            symmetric = max(abs(m.m_a), abs(m.m_b), abs(m.m_c)) <= 1e-9
            interval = joint.mu3_interval(m.m_a, m.m_b, m.m_c, m.m_ab, m.m_bc, m.m_ca)
            check = joint.existence_check_3(m.m_a, m.m_b, m.m_c, m.m_ab, m.m_bc, m.m_ca, symmetric=symmetric)
            results.append((quad, m, interval, check, symmetric))
        rates.append(len(chunk) / (time.perf_counter() - t0))
    failures = []
    for k, (inst, (quad, m, interval, check, symmetric)) in enumerate(zip(instances, results)):
        failures += [f"instance {k}: {e}" for e in feas_errors(inst, quad, m, interval, check, symmetric)]
    return {"feas_instances_per_s": rates, "ops": len(instances),
            "failed_ops": len({f.split(":")[0] for f in failures}), "failures": failures}


def feas_errors(inst, quad, m, interval, check, symmetric) -> list[str]:
    tables = [oracles.table_of(inst["quad"][k]) for k in ("AB", "AC", "DB", "DC")]
    margin = oracles.fine_margin(*tables)
    errors = []
    if not oracles.verdict_agrees(quad.feasible, margin):
        errors.append(f"feasible={quad.feasible} but Fine margin {margin}")
    if inst["cls"] != 1 and quad.feasible != (inst["cls"] == 0):
        errors.append(f"class {inst['cls']} instance reported feasible={quad.feasible}")
    if quad.feasible:
        q = quad.witness.q
        cells = {cell: float(q[tuple((1 - s) // 2 for s in cell)])
                 for cell in itertools.product(oracles.SIGNS, repeat=4)}
        errors += oracles.witness_errors(cells, tables)
    tri = {k: oracles.table_of(v) for k, v in inst["tri"].items()}
    want = [oracles.correlation(tri[k]) for k in ("AB", "BC", "CA")]
    if max(abs(x - y) for x, y in zip((m.m_ab, m.m_bc, m.m_ca), want)) > oracles.TABLE_TOL:
        errors.append(f"pair moments {(m.m_ab, m.m_bc, m.m_ca)} != {want}")
    if symmetric != inst["tri_symmetric"]:
        errors.append(f"symmetric={symmetric}, generated {inst['tri_symmetric']}")
    elif symmetric:
        tri_margin = -8.0 * min(oracles.triple_cells(*want).values())
        if interval.empty != (not check.exists) or not oracles.verdict_agrees(check.exists, tri_margin):
            errors.append(f"interval empty={interval.empty}, exists={check.exists}, min cell {-tri_margin / 8}")
    elif interval.empty or not check.exists:
        errors.append("tables from a valid joint: interval empty or conditions fail")
    return errors


def merge(into: dict, part: dict):
    """Add ``part``'s lists and counts into ``into``."""
    for k, v in part.items():
        if isinstance(v, list):
            into.setdefault(k, []).extend(v)
        elif isinstance(v, int):
            into[k] = into.get(k, 0) + v
    return into


def run_cli(tracer: Tracer, argv: list[str], stdout_path: str) -> int:
    from eprbell import cli

    with open(stdout_path, "w") as out:
        saved, sys.stdout = sys.stdout, out
        try:
            return tracer.run("cli.main", cli.main, argv)
        finally:
            sys.stdout = saved


def extras(tracer: Tracer) -> dict:
    """The hvsim block rebuild and the traced scan peak, for every traced
    simulate and violation_scan call."""
    import tracemalloc

    out = {"blocks": {}, "rebuild_mismatch": 0, "scan_peak_mb": []}
    for call in tracer.calls_of("hvsim.simulate"):
        stages, same = rebuild_blocks(call)
        merge(out["blocks"], stages)
        out["rebuild_mismatch"] += not same
    for rec, args, kwargs, _ in tracer.calls_of("inequalities.violation_scan"):
        tracemalloc.start()
        try:
            eprbell.inequalities.violation_scan(*args, **kwargs)
            out["scan_peak_mb"].append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["cli", "coverage"])
    p.add_argument("--result", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--stdout")
    p.add_argument("--plan")
    args = sys.argv[1:]
    split = args.index("--") if "--" in args else len(args)
    opts = p.parse_args(args[:split])
    cli_argv = args[split + 1:]

    tracer = Tracer()
    tracer.install()
    result = {"eprbell_file": eprbell.__file__, "exit": 0}
    t0 = time.perf_counter()
    if opts.mode == "cli":
        result["exit"] = run_cli(tracer, cli_argv, opts.stdout)
    else:
        with open(opts.plan) as fh:
            plan = json.load(fh)
        result["exits"] = []
        for k, (argv, stdout_path) in enumerate(plan["commands"]):
            tracer.command = k
            result["exits"].append(run_cli(tracer, argv, stdout_path))
        tracer.command = len(plan["commands"])
        merge(result, sim_kernel(plan["sim_n"], plan["theta"], plan["seed"], plan["sim_repeats"]))
        merge(result, feas_kernel(load_instances(plan["feas"])))
    result["timed_s"] = time.perf_counter() - t0
    t1 = time.perf_counter()
    result.update(extras(tracer))
    result["extra_s"] = time.perf_counter() - t1
    tracer.dump(opts.trace)
    with open(opts.result, "w") as fh:
        json.dump(result, fh)
    return result["exit"]


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
