"""Cross-validation checks run by the ``verify`` CLI subcommand.

Each check compares two independent computational routes at a fixed
tolerance over random direction pairs (a, b), uniform on the sphere, and
reports its worst deviation and the trial where it occurred. One seeded
stream draws each trial's pair once: z uniform on [-1, 1], then the azimuth
uniform on [0, 2*pi), for a then for b. Every check runs on that pair in
plain Python, one trial at a time, so memory does not grow with the trial
count.
"""

from __future__ import annotations

import math
import random

from .born import singlet_pair_probs
from .errors import check_count
from .geometry import Direction
from .hvsim import _kernel_pair_dist
from .spincore import apply_property_I, local_pair_dist, qm_pair_dist
from .value import Value

TOL = 1e-12


class CheckResult(Value):
    name: str
    passed: bool
    max_dev: float
    detail: str = ""


def _direction(rng: random.Random) -> Direction:
    """A point uniform on the unit sphere: z uniform on [-1, 1] (Archimedes'
    hat-box theorem), then the azimuth uniform on [0, 2*pi)."""
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(max(0.0, 1.0 - z * z))
    return Direction(r * math.cos(phi), r * math.sin(phi), z)


def _born_routes(a, b):
    return singlet_pair_probs(a, b), qm_pair_dist(a, b).cells


def _round_trip_routes(a, b):
    qm, loc = qm_pair_dist(a, b), local_pair_dist(a, b)
    return apply_property_I(loc).cells, qm.cells


def _mixture_routes(a, b):
    return _kernel_pair_dist(a, b).cells, local_pair_dist(a, b).cells


# (name, FAIL text, routes) of each check, in run order: the Born-rule
# probabilities (``born.singlet_pair_probs``) against the closed-form
# two-device table (``qm_pair_dist``) on all four cells; the sign flip
# A(a) = -B(a) (``apply_property_I``) from ``local_pair_dist`` to
# ``qm_pair_dist`` (the flip is its own inverse, so the way back compares the
# same four cell pairs); the exact law of the simulator's sampling kernel
# (``hvsim._kernel_pair_dist``) against ``local_pair_dist``. ``routes(a, b)``
# returns two cell sequences that should agree; the library routes are looked
# up when called, so a patched module name is seen.
CHECKS = (
    ("born_vs_qm_pair_dist", "qm_pair_dist disagrees with wave-function route", _born_routes),
    ("equivalence_round_trip", "round trip fails", _round_trip_routes),
    ("hidden_variable_mixture", "mixture identity fails", _mixture_routes),
)


def run_all(trials: int = 1000, seed: int = 0) -> list[CheckResult]:
    """Every check in ``CHECKS`` on the same ``trials`` direction pairs, drawn
    from ``random.Random(seed)``."""
    trials = check_count("trials", trials, 1)
    rng = random.Random(check_count("seed", seed, 0))
    worst = [(-1.0, None)] * len(CHECKS)
    for _ in range(trials):
        pair = _direction(rng), _direction(rng)
        for k, (_, _, routes) in enumerate(CHECKS):
            left, right = routes(*pair)
            # d == d fails only for a NaN, which counts as infinite.
            dev = max(d if d == d else math.inf for d in (abs(x - y) for x, y in zip(left, right)))
            if dev > worst[k][0]:
                worst[k] = dev, pair
    return [CheckResult(name, dev <= TOL, dev, "" if dev <= TOL else f"{what} at a={a}, b={b}")
            for (name, what, _), (dev, (a, b)) in zip(CHECKS, worst)]
