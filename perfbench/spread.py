"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads scan cli-mix --seeds 1 2 3 4 5

Runs ``run.py --trace 0`` once per workload and seed, one run at a time, and
prints, per metric, the median over the runs and the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median, next to a third of the metric's bound in ``BENCHMARK.json``.
The raw results are written to ``.perfbench_runs/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=int)
    opts = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = opts.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    worst_ok = True
    for workload in opts.workloads:
        results = []
        for seed in opts.seeds:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout
            result = json.loads(out.strip().splitlines()[-1])
            results.append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} {values}", flush=True)
        runs[workload] = results
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            ok = share < bound / 3
            worst_ok &= ok
            print(f"  {workload:12s} {name:22s} median={med:<10.5g} spread={share:.4f} "
                  f"bound/3={bound / 3:.4f} {'ok' if ok else 'WIDE'}", flush=True)
    (ROOT / ".perfbench_runs").mkdir(exist_ok=True)
    (ROOT / ".perfbench_runs" / "spread.json").write_text(json.dumps(runs, indent=1))
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
