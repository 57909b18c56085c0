"""In-memory span tracer for one child process.

``Tracer.install()`` replaces, at run time, the module-level names through
which ``eprbell.cli``, ``eprbell.joint``, ``eprbell.verify`` and
``eprbell.hvsim`` reach each layer, so no program file changes. Each span
records its name, start, end, parent span and command id; spans stay in
memory until ``dump``.
"""

from __future__ import annotations

import importlib
import json
import math
import time

import numpy as np

# (module, attribute, span name). A name the program no longer has is skipped
# and listed as unpatched in the dump; run.py reports it as a coverage gap.
PATCHES = [
    ("eprbell.cli", "simulate", "hvsim.simulate"),
    ("eprbell.hvsim", "simulate", "hvsim.simulate"),
    ("eprbell.cli", "violation_scan", "inequalities.violation_scan"),
    ("eprbell.cli", "quad_feasibility", "joint.quad_feasibility"),
    ("eprbell.joint", "quad_feasibility", "joint.quad_feasibility"),
    ("eprbell.cli", "moments_from_pairs", "joint.moments_from_pairs"),
    ("eprbell.joint", "moments_from_pairs", "joint.moments_from_pairs"),
    ("eprbell.cli", "mu3_interval", "joint.mu3_interval"),
    ("eprbell.joint", "mu3_interval", "joint.mu3_interval"),
    ("eprbell.cli", "existence_check_3", "joint.existence_check_3"),
    ("eprbell.joint", "existence_check_3", "joint.existence_check_3"),
    ("eprbell.joint", "linprog", "joint.linprog"),
    ("eprbell.cli", "info_curve", "information.info_curve"),
    ("eprbell.verify", "run_all", "verify.run_all"),
    ("eprbell.verify", "singlet_pair_prob", "born.singlet_pair_prob"),
    ("eprbell.verify", "qm_pair_dist", "spincore.qm_pair_dist"),
    ("eprbell.cli", "qm_pair_dist", "spincore.qm_pair_dist"),
    ("eprbell.verify", "local_pair_dist", "spincore.local_pair_dist"),
    ("eprbell.cli", "local_pair_dist", "spincore.local_pair_dist"),
]


def _scan_attrs(args, kwargs, result) -> dict:
    inequality, resolution = (list(args) + [kwargs.get("inequality"), kwargs.get("resolution")])[:2]
    dims = 2 if inequality == "bell" else 3
    return {
        "inequality": inequality,
        "resolution": resolution,
        "grid_points": int(round(2.0 * math.pi / resolution)) ** dims,
        "violations": len(result.violations),
    }


def _sim_attrs(args, kwargs, result) -> dict:
    names = ("a", "b", "n", "seed", "mode", "threads")
    bound = dict(zip(names, args), **kwargs)
    return {"n": bound["n"], "seed": bound["seed"], "mode": bound.get("mode", "local"),
            "threads": bound.get("threads", 1)}


ATTRS = {
    "inequalities.violation_scan": _scan_attrs,
    "hvsim.simulate": _sim_attrs,
    "joint.quad_feasibility": lambda a, k, r: {"feasible": bool(r.feasible)},
    "verify.run_all": lambda a, k, r: {"passed": sum(bool(c.passed) for c in r), "checks": len(r)},
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.command = 0
        self.unpatched: list[str] = []
        self.calls: list[tuple] = []  # (span, args, kwargs, result) of annotated spans
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    def run(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        rec = {"id": len(self.spans), "name": name, "command": self.command,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter() - self._t0
        try:
            result = fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()
        if name in ATTRS:
            rec["attrs"] = ATTRS[name](args, kwargs, result)
            self.calls.append((rec, args, kwargs, result))
        return result

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.run(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module_name, attr, span in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.unpatched.append(f"{module_name}.{attr}")
            else:
                setattr(module, attr, self.wrap(span, fn))

    def calls_of(self, name):
        return [c for c in self.calls if c[0]["name"] == name]

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "unpatched": self.unpatched, **extra}, fh)


def rebuild_blocks(call) -> tuple[dict[str, list[float]], bool]:
    """Redo every block of one traced ``simulate`` call from the public hvsim
    functions, in the contract's draw order, timing each stage.

    Returns the per-block stage times (s) and whether the rebuilt counts
    equal the counts the call reported.
    """
    from eprbell import hvsim

    rec, args, kwargs, report = call
    names = ("a", "b", "n", "seed", "mode", "threads")
    bound = dict(zip(names, args), **kwargs)
    a, b, n, seed = bound["a"], bound["b"], bound["n"], bound["seed"]
    singlet = bound.get("mode", "local") == "singlet"
    part = hvsim.PartitionSpec.for_directions(a, b)
    stages = {k: [] for k in ("block_rng", "sample_lambda", "classify", "sample_pair_given_c", "bincount", "block")}
    total = np.zeros(4, dtype=np.int64)
    n_blocks = (n + hvsim.BLOCK_SIZE - 1) // hvsim.BLOCK_SIZE
    for k in range(n_blocks):
        count = min(hvsim.BLOCK_SIZE, n - k * hvsim.BLOCK_SIZE)
        t0 = time.perf_counter()
        rng = hvsim.block_rng(seed, k)
        t1 = time.perf_counter()
        lam = hvsim.sample_lambda(rng, count)
        t2 = time.perf_counter()
        c = hvsim.classify(lam, part)
        t3 = time.perf_counter()
        first, second = hvsim.sample_pair_given_c(c, rng)
        t4 = time.perf_counter()
        if singlet:
            second = -second
        counts = np.bincount((first < 0) * 2 + (second < 0), minlength=4)
        t5 = time.perf_counter()
        total += counts
        for key, dt in zip(stages, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t5 - t0)):
            stages[key].append(dt)
    reported = np.rint(np.asarray(report.empirical).ravel() * n).astype(np.int64)
    return stages, bool(np.array_equal(total, reported))
