"""Cross-validation checks run by the ``verify`` CLI subcommand.

Each check compares two independent computational routes at a fixed
tolerance over random direction pairs (a, b), uniform on the sphere, and
reports its worst deviation and the trial where it occurred. Trials run in
chunks of ``CHUNK``: the directions of a chunk are drawn as arrays, the Born
route evaluates all four outcome cells of every trial at once, and the
library routes under test are called once per trial, so memory does not
grow with the trial count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .born import singlet_pair_probs
from .errors import InvalidInputError
from .geometry import Direction
from .hvsim import mixture_pair_dist, sample_lambda
from .spincore import apply_property_I, local_pair_dist, qm_pair_dist

TOL = 1e-12
CHUNK = 4096  # trials per chunk


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_dev: float
    detail: str = ""


def _chunk_worst(rng: np.random.Generator, m: int, routes) -> tuple[float, tuple]:
    """Worst deviation over ``m`` fresh direction pairs, and its pair.
    ``routes(pairs)`` returns two (m, c) arrays that should agree row by
    row; a NaN deviation counts as infinite."""
    pairs = [(Direction(*u), Direction(*v))
             for u, v in zip(sample_lambda(rng, m).tolist(), sample_lambda(rng, m).tolist())]
    left, right = routes(pairs)
    dev = np.nan_to_num(np.max(np.abs(left - right), axis=1), nan=np.inf)
    i = int(np.argmax(dev))
    return float(dev[i]), pairs[i]


def _check(name: str, what: str, trials: int, seed: int, routes) -> CheckResult:
    """Worst deviation between the two routes over ``trials`` direction pairs
    drawn from ``default_rng(seed)``, one chunk at a time."""
    rng = np.random.default_rng(seed)
    worst, worst_pair = -1.0, None
    for start in range(0, trials, CHUNK):
        dev, pair = _chunk_worst(rng, min(CHUNK, trials - start), routes)
        if dev > worst:
            worst, worst_pair = dev, pair
    if worst <= TOL:
        return CheckResult(name, True, worst)
    a, b = worst_pair
    return CheckResult(name, False, worst, f"{what} at a={a}, b={b}")


def _born_routes(pairs):
    # The Born route gets the renormalized components the library sees.
    a = np.array([(u.x, u.y, u.z) for u, _ in pairs])
    b = np.array([(v.x, v.y, v.z) for _, v in pairs])
    closed = [qm_pair_dist(u, v).cells for u, v in pairs]
    return singlet_pair_probs(a, b).reshape(-1, 4), np.array(closed)


def _round_trip_routes(pairs):
    rows = []
    for u, v in pairs:
        qm, loc = qm_pair_dist(u, v), local_pair_dist(u, v)
        rows.append(apply_property_I(loc).cells + apply_property_I(qm).cells
                    + qm.cells + loc.cells)
    rows = np.array(rows)
    return rows[:, :8], rows[:, 8:]


def _mixture_routes(pairs):
    rows = np.array([mixture_pair_dist(u, v).cells + local_pair_dist(u, v).cells
                     for u, v in pairs])
    return rows[:, :4], rows[:, 4:]


def check_born_agreement(trials: int, seed: int) -> CheckResult:
    """Wave-function probabilities vs the closed-form two-device table, on
    all four outcome cells of every trial."""
    return _check("born_vs_qm_pair_dist", "qm_pair_dist disagrees with wave-function route",
                  trials, seed, _born_routes)


def check_equivalence_round_trip(trials: int, seed: int) -> CheckResult:
    """Sign-flip relabeling maps the one-device table to the two-device table
    and back."""
    return _check("equivalence_round_trip", "round trip fails", trials, seed, _round_trip_routes)


def check_mixture_identity(trials: int, seed: int) -> CheckResult:
    """Analytic hidden-variable mixture equals the one-device table."""
    return _check("hidden_variable_mixture", "mixture identity fails", trials, seed, _mixture_routes)


def run_all(trials: int = 1000, seed: int = 0) -> list[CheckResult]:
    if trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    return [
        check_born_agreement(trials, seed),
        check_equivalence_round_trip(trials, seed + 1),
        check_mixture_identity(trials, seed + 2),
    ]
