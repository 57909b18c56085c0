"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--workloads cli-mix scan ...]

Runs every workload at the minimum length (``--seconds 1``), once untraced
and once traced, and asserts that the last line reports exactly the
end-to-end or per-layer metrics named in ``BENCHMARK.json``, each a number
with its unit, with no failed operation, and that the traced run saw every
layer: no coverage gap, and at least one span or sample behind each per-layer
metric. It then checks that the benchmark
refuses to run, without printing a result, in a copy that holds only
``BENCHMARK.json`` and ``perfbench/``. Exits 0 when all checks pass.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: fail_ratio {result['failed']}/{result['attempted']}: {proc.stdout[-1500:]}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if list(result["metrics"]) != list(wanted):
        errors.append(f"{where}: metrics {sorted(result['metrics'])} != {sorted(wanted)}")
    for name, unit in wanted.items():
        got = result["metrics"].get(name, {})
        value = got.get("value")
        if got.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} = {got}")
        elif not trace and value <= 0:
            errors.append(f"{where}: end-to-end metric {name} = {value} is not positive")
    if trace:
        record = json.loads((ROOT / ".perfbench_runs" / f"{workload}-seed{SEED}-trace1.json").read_text())
        errors += [f"{where}: coverage gap: {gap}" for gap in record["coverage_gaps"]]
        errors += [f"{where}: no spans for {name}" for name, n in record["span_counts"].items() if n < 1]
    return errors


def check_refuses_without_program() -> list[str]:
    (ROOT / ".perfbench_runs").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_runs"))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "cli-mix", 0)
        if proc.returncode == 0 or proc.stdout.strip().startswith("{") or '"correct"' in proc.stdout:
            return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    opts = p.parse_args()
    errors = check_refuses_without_program()
    for workload in opts.workloads:
        for trace in (0, 1):
            found = check_result(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    for e in errors:
        print("FAILED " + e)
    print("selftest " + ("passed" if not errors else f"failed ({len(errors)} errors)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
