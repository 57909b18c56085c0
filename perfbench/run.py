"""eprbell benchmark: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {cli-mix,simulate,scan} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the program measured is always ``src/eprbell`` of the
checkout this file sits in (``eprbell.__file__`` is checked), imported in
child processes through ``PYTHONPATH``. This process runs one child at a
time (closed loop, one client). Children get ``OPENBLAS_NUM_THREADS=1``, so
``--threads`` is the program's only source of parallelism, and no child runs
more than 2 threads.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median wall time
of fresh interpreters running ``import eprbell``, one run first and then one
per ``SETUP_EVERY_S`` seconds of the loop), ``wall_s`` (sum over the
workload's commands of each command's median wall time) and ``peak_rss_mb``
(largest ``ru_maxrss`` of any workload command). ``--trace 1`` reports the
per-layer metrics: the import breakdown, and the span tracer's numbers from a
traced pass over the workload plus a coverage child, which runs the cli-mix
commands for the layers the workload does not reach and times the in-process
simulator and feasibility kernels. A layer the tracer cannot see (a patched
name the program no longer has, or a span with no calls) is printed as a
warning and listed under ``coverage_gaps`` in the record.

Every output is checked against ``oracles.py``; an operation fails on a
nonzero exit, a traceback on stderr or a failed check, and ``fail_ratio`` =
failed / attempted is printed. Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The full record (environment, every sample, the
spans of a traced run) is written to ``.perfbench_runs/`` in the checkout.
Exit code 2 means the benchmark could not run (no ``src/eprbell``, or the
wrong package was imported); no result is printed then.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
CHILD = str(HERE / "child.py")
SETUP_EVERY_S = 2.5
CHILD_TIMEOUT_S = 150.0
RATES = ("sim_msamples_s_t1", "sim_msamples_s_t2", "feas_instances_per_s")

IMPORT_MODULES = {"import.numpy_s": "numpy", "import.scipy_optimize_s": "scipy.optimize",
                  "import.eprbell_joint_s": "eprbell.joint", "import.eprbell_s": "eprbell"}


class SetupError(Exception):
    """The benchmark cannot measure this checkout."""


class Child:
    def __init__(self, wall, code, rss_mb, out_path, err):
        self.wall, self.code, self.rss_mb, self.out_path, self.err = wall, code, rss_mb, out_path, err

    def text(self) -> str:
        with open(self.out_path) as fh:
            return fh.read()

    def errors(self) -> list[str]:
        out = [] if self.code == 0 else [f"exit code {self.code}"]
        return out + (["traceback on stderr"] if "Traceback" in self.err else [])


class Bench:
    def __init__(self, tmp: str):
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._n = 0

    def path(self, name: str) -> str:
        self._n += 1
        return os.path.join(self.tmp, f"{self._n:04d}-{name}")

    def run(self, argv: list[str], name: str) -> Child:
        """Run ``python argv`` to completion; wall time and ru_maxrss come from
        ``os.wait4`` on the child."""
        out_path, err_path = self.path(name + ".out"), self.path(name + ".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, errors="replace") as fh:
            err_text = fh.read()
        return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0, out_path, err_text)

    def record(self, name: str, ops: int, errors: list[str], failed_ops: int | None = None):
        self.attempted += ops
        failed = min(ops, len(errors) if failed_ops is None else failed_ops)
        if errors and not failed:
            failed = 1
        self.failed += failed
        self.failures += [f"{name}: {e}" for e in errors]

    # --- steps ---

    def cli(self, step: dict) -> Child:
        child = self.run(["-m", "eprbell.cli", *step["args"]], step["name"])
        errors = child.errors() or check_output(step["check"], child.text())
        os.remove(child.out_path)  # scan output runs to megabytes per call
        self.record(step["name"], 1, errors)
        return child



def check_output(check: dict, text: str) -> list[str]:
    kind = check["type"]
    try:
        if kind == "dist":
            return oracles.check_dist(text, check["theta"], check["local"])
        if kind == "ineq":
            return oracles.check_ineq(text, check["which"], check["angles"])
        if kind == "joint3_qm":
            return oracles.check_joint3_qm(text, check["angles"])
        if kind == "joint3_pairs":
            return oracles.check_joint3_pairs(text, check["doc"], check["symmetric"])
        if kind == "joint4":
            return oracles.check_joint4(text, check["doc"], check["feasible"])
        if kind == "scan":
            return oracles.check_scan(text, check["inequality"], check["resolution"])
        if kind == "simulate":
            return oracles.check_simulate(text, check["theta"], check["n"], check["mode"])
        if kind == "info":
            return oracles.check_info(text, check["step"])
        if kind == "verify":
            return oracles.check_verify(text)
    except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        return [f"unreadable output: {exc!r}"]
    raise ValueError(f"unknown check {kind!r}")


def check_package(eprbell_file: str):
    if not Path(eprbell_file).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported eprbell from {eprbell_file}, not from {SRC}")


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> float:
    """Highest order statistic with at least ten samples above it; the
    maximum when there are fewer than eleven samples."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, 0)] if len(ordered) >= 11 else ordered[-1]


def environment(seed: int, workload: str, trace: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "commit": commit, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "OPENBLAS_NUM_THREADS": "1", "max_program_threads": 2,
    }


def import_eprbell(bench: Bench) -> float:
    """Wall time of a fresh interpreter running ``import eprbell``, checking
    that it imports this checkout's package."""
    child = bench.run(["-c", "import sys, eprbell; sys.stdout.write(eprbell.__file__)"], "import")
    if child.code != 0:
        raise SetupError(f"cannot import eprbell from {SRC}: {child.err.strip()[-500:]}")
    check_package(child.text())
    bench.record("import", 1, child.errors())
    return child.wall


def timed_loop(bench: Bench, steps: list[dict], seconds: float, setup_times: list | None = None):
    """Closed loop over the steps, round robin, until ``seconds`` have passed
    and every step has run at least once. With ``setup_times``, an import
    child runs first and then between steps, one per started SETUP_EVERY_S
    seconds of the loop, so set-up time samples the whole run as the wall
    times do."""
    walls = {s["name"]: [] for s in steps}
    rss = []
    start = time.perf_counter()
    k = 0
    while k < len(steps) or time.perf_counter() < start + seconds:
        if setup_times is not None and len(setup_times) <= (time.perf_counter() - start) / SETUP_EVERY_S:
            setup_times.append(import_eprbell(bench))
        step = steps[k % len(steps)]
        child = bench.cli(step)
        walls[step["name"]].append(child.wall)
        rss.append(child.rss_mb)
        k += 1
    return walls, rss


def end_to_end(bench: Bench, plan: dict, seconds: float, report: dict) -> dict:
    setup_times = []
    walls, rss = timed_loop(bench, plan["steps"], seconds, setup_times)
    samples = {"setup_s": setup_times, "wall_s": walls, "peak_rss_mb": rss}
    report["samples"] = samples
    report["sample_counts"] = {"setup_s": len(setup_times), "wall_s": min(map(len, walls.values())),
                               "peak_rss_mb": len(rss)}
    return {
        "setup_s": median(setup_times),
        "wall_s": sum(median(v) for v in walls.values()),
        "peak_rss_mb": max(rss),
    }


# --- traced run ---


def import_breakdown(bench: Bench) -> dict:
    child = bench.run(["-X", "importtime", "-c", "import eprbell"], "importtime")
    bench.record("importtime", 1, [e for e in child.errors() if e != "traceback on stderr"])
    cumulative = {}
    for line in child.err.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {metric: cumulative.get(module, 0.0) for metric, module in IMPORT_MODULES.items()}


def traced_cli(bench: Bench, step: dict, dumps: list) -> Child:
    result_path, trace_path, out_path = (bench.path(step["name"] + s) for s in (".json", ".trace", ".stdout"))
    child = bench.run([CHILD, "cli", "--result", result_path, "--trace", trace_path,
                       "--stdout", out_path, "--", *step["args"]], step["name"] + "-traced")
    errors = child.errors()
    if not errors:
        with open(out_path) as fh:
            errors = check_output(step["check"], fh.read())
    bench.record(step["name"] + " (traced)", 1, errors)
    dumps.append(load_dump(bench, step["name"], result_path, trace_path, [out_path]))
    return child


def load_dump(bench: Bench, name: str, result_path: str, trace_path: str, outputs: list[str]) -> dict:
    if not (os.path.exists(result_path) and os.path.exists(trace_path)):
        return {"spans": [], "unpatched": [], "result": {}, "output_bytes": 0}
    with open(result_path) as fh:
        result = json.load(fh)
    with open(trace_path) as fh:
        dump = json.load(fh)
    check_package(result["eprbell_file"])
    if result.get("rebuild_mismatch"):
        bench.record(name + " (hvsim rebuild)", 1, ["rebuilt block counts differ from simulate()"])
    elif result.get("blocks"):
        bench.record(name + " (hvsim rebuild)", 1, [])
    dump["result"] = result
    dump["output_bytes"] = sum(os.path.getsize(p) for p in outputs if os.path.exists(p))
    return dump


def coverage(bench: Bench, plan: dict, dumps: list):
    """All cli-mix commands and both kernels, traced in one child, so that
    every layer is reported on every workload and the in-process rates are
    measured."""
    commands = [(s["args"], bench.path(s["name"] + ".stdout")) for s in plan["cli_mix"]]
    plan_path, result_path, trace_path = (bench.path("coverage" + s) for s in (".plan", ".json", ".trace"))
    with open(plan_path, "w") as fh:
        json.dump({"commands": commands, "sim_n": workloads.COVERAGE_SIM_N,
                   "sim_repeats": workloads.COVERAGE_SIM_REPEATS, "theta": workloads.SIM_THETA,
                   "seed": plan["sim_seed"], "feas": plan["coverage_feas"]}, fh)
    child = bench.run([CHILD, "coverage", "--result", result_path, "--trace", trace_path,
                       "--plan", plan_path], "coverage")
    bench.record("coverage", 1, child.errors())
    dump = load_dump(bench, "coverage", result_path, trace_path, [p for _, p in commands])
    result = dump["result"]
    bench.record("coverage kernels", result.get("ops", 0), result.get("failures", []), result.get("failed_ops"))
    for step, (_, out_path), code in zip(plan["cli_mix"], commands, result.get("exits", [])):
        with open(out_path) as fh:
            errors = [f"exit code {code}"] if code else check_output(step["check"], fh.read())
        bench.record(step["name"] + " (coverage)", 1, errors)
    dumps.append(dump)


def spans_named(dumps: list, name: str) -> list[dict]:
    return [s for d in dumps for s in d["spans"] if s["name"] == name]


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, spans: list[dict]) -> float:
    """Duration minus the part of it that direct child spans cover."""
    covered, last = 0.0, span["start"]
    for child in sorted((s for s in spans if s["parent"] == span["id"]), key=lambda s: s["start"]):
        start, end = max(child["start"], last), min(child["end"], span["end"])
        if end > start:
            covered += end - start
            last = end
    return duration(span) - covered


def layer_metrics(own: list, cov: list) -> tuple[dict, dict]:
    """Per-layer metrics from the workload's own traced children, or from the
    coverage child for a layer the workload does not reach. ``span_counts``
    gives the number of spans (or rebuilt blocks) behind each metric."""
    sources, counts = {}, {}

    def pick(group: str, name: str) -> list:
        chosen = own if spans_named(own, name) else cov
        sources[group] = "workload" if chosen is own else "coverage"
        return chosen

    def spans_of(dumps: list, name: str) -> list[dict]:
        spans = spans_named(dumps, name)
        counts[name] = len(spans)
        return spans

    def per_call(dumps, name, scale):
        return median([duration(s) for s in spans_of(dumps, name)]) * scale

    m = {}
    d = pick("cli", "cli.main")
    m["cli.self_s"] = sum(self_time(s, dump["spans"]) for dump in d for s in dump["spans"] if s["name"] == "cli.main")
    counts["cli.main"] = len(spans_named(d, "cli.main"))
    m["cli.output_bytes"] = sum(dump["output_bytes"] for dump in d)

    d = own if any(x["result"].get("blocks") for x in own) else cov
    sources["hvsim.blocks"] = "workload" if d is own else "coverage"
    blocks = {}
    for dump in d:
        for k, v in dump["result"].get("blocks", {}).items():
            blocks.setdefault(k, []).extend(v)
    for key, metric, scale in (("block_rng", "hvsim.block_rng_us", 1e6), ("sample_lambda", "hvsim.sample_lambda_ms", 1e3),
                               ("classify", "hvsim.classify_ms", 1e3),
                               ("sample_pair_given_c", "hvsim.sample_pair_given_c_ms", 1e3),
                               ("bincount", "hvsim.bincount_ms", 1e3), ("block", "hvsim.block_ms", 1e3)):
        m[metric] = median(blocks.get(key, [])) * scale
    m["hvsim.blocks"] = counts["hvsim.blocks"] = len(blocks.get("block", []))

    def sim_runs(ds, threads):
        spans = spans_named(ds, "hvsim.simulate")
        top = max((s["attrs"]["n"] for s in spans), default=0)
        return [duration(s) for s in spans if s["attrs"]["n"] == top and s["attrs"]["threads"] == threads]

    d = own if sim_runs(own, 1) and sim_runs(own, 2) else cov
    sources["hvsim.simulate"] = "workload" if d is own else "coverage"
    m["hvsim.simulate_s_t1"], m["hvsim.simulate_s_t2"] = median(sim_runs(d, 1)), median(sim_runs(d, 2))
    counts["hvsim.simulate_t1"], counts["hvsim.simulate_t2"] = len(sim_runs(d, 1)), len(sim_runs(d, 2))
    m["hvsim.parallel_efficiency"] = (m["hvsim.simulate_s_t1"] / (2 * m["hvsim.simulate_s_t2"])
                                      if m["hvsim.simulate_s_t2"] else 0.0)

    d = pick("inequalities", "inequalities.violation_scan")
    scans = spans_of(d, "inequalities.violation_scan")
    m["inequalities.violation_scan_s"] = sum(map(duration, scans))
    m["inequalities.grid_points"] = sum(s["attrs"]["grid_points"] for s in scans)
    m["inequalities.violations"] = sum(s["attrs"]["violations"] for s in scans)
    m["inequalities.scan_traced_peak_mb"] = max((p for x in d for p in x["result"].get("scan_peak_mb", [])), default=0.0)

    d = pick("joint", "joint.quad_feasibility")
    quads = spans_of(d, "joint.quad_feasibility")
    lps = spans_of(d, "joint.linprog")
    m["joint.quad_feasibility_ms"] = per_call(d, "joint.quad_feasibility", 1e3)
    m["joint.linprog_ms"] = per_call(d, "joint.linprog", 1e3)
    quad_total = sum(map(duration, quads))
    m["joint.linprog_share"] = sum(map(duration, lps)) / quad_total if quad_total else 0.0
    m["joint.infeasible_share"] = sum(not s["attrs"]["feasible"] for s in quads) / len(quads) if quads else 0.0
    d = pick("joint.three", "joint.mu3_interval")
    m["joint.moments_from_pairs_us"] = per_call(d, "joint.moments_from_pairs", 1e6)
    m["joint.mu3_interval_us"] = per_call(d, "joint.mu3_interval", 1e6)
    m["joint.existence_check_3_us"] = per_call(d, "joint.existence_check_3", 1e6)

    for group, name, metric in (("born", "born.singlet_pair_prob", "born.singlet_pair_prob_us"),
                                ("spincore.qm", "spincore.qm_pair_dist", "spincore.qm_pair_dist_us"),
                                ("spincore.local", "spincore.local_pair_dist", "spincore.local_pair_dist_us")):
        m[metric] = per_call(pick(group, name), name, 1e6)
    d = pick("information", "information.info_curve")
    m["information.info_curve_s"] = sum(map(duration, spans_of(d, "information.info_curve")))
    d = pick("verify", "verify.run_all")
    runs = spans_of(d, "verify.run_all")
    m["verify.run_all_s"] = sum(map(duration, runs))
    m["verify.checks_passed"] = sum(s["attrs"]["passed"] for s in runs)
    return m, {"sources": sources, "span_counts": counts}


def traced(bench: Bench, plan: dict, seconds: float, report: dict) -> dict:
    metrics = import_breakdown(bench)
    walls, _ = timed_loop(bench, plan["steps"], seconds)
    own, cov, traced_walls = [], [], []
    for step in plan["steps"]:
        child = traced_cli(bench, step, own)
        traced_walls.append(child.wall - own[-1]["result"].get("extra_s", 0.0))
    coverage(bench, plan, cov)
    rates = {k: cov[0]["result"].get(k, []) for k in RATES}
    metrics.update({k: median(v) for k, v in rates.items()})
    layers, provenance = layer_metrics(own, cov)
    metrics.update(layers)
    all_walls = [w for v in walls.values() for w in v]
    metrics["cli.wall_tail_s"] = tail(all_walls)
    metrics["cli.wall_samples"] = len(all_walls)
    metrics["trace.overhead_share"] = sum(traced_walls) / sum(median(v) for v in walls.values()) - 1.0
    provenance["span_counts"].update({k: len(v) for k, v in rates.items()})
    gaps = sorted({f"{name} not patched" for d in own + cov for name in d.get("unpatched", [])})
    gaps += [f"no samples for {name}" for name, n in provenance["span_counts"].items() if n == 0]
    report.update(provenance, coverage_gaps=gaps, spans={"workload": own, "coverage": cov},
                  samples={"wall_s": walls, "traced_walls": traced_walls, **rates})
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup below on termination
    if not (SRC / "eprbell" / "__init__.py").is_file():
        print(f"error: no eprbell package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=RUNS)
    try:
        bench = Bench(tmp)
        plan = workloads.generate(args.workload, args.seed, tmp)
        report = {"environment": environment(args.seed, args.workload, args.trace)}
        measure = traced if args.trace else end_to_end
        try:
            values = measure(bench, plan, args.seconds, report)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    report.update(metrics=metrics, attempted=bench.attempted, failed=bench.failed, failures=bench.failures)
    out_file = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"eprbell benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    counts = report.get("sample_counts", {})
    for m in spec:
        n = f"  n={counts[m['name']]}" if m["name"] in counts else ""
        print(f"  {m['name']:34s} {values[m['name']]:14.6g} {m['unit']:12s} {m['better']:6s}{n}")
    print(f"  {'fail_ratio':34s} {bench.failed / max(bench.attempted, 1):14.6g} {'ratio':12s} lower"
          f"  ({bench.failed} of {bench.attempted} operations)")
    for f in bench.failures[:20]:
        print(f"  FAILED {f}")
    for gap in report.get("coverage_gaps", []):
        print(f"  WARNING layer not measured, its metrics read 0: {gap}")
    print(f"record: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
