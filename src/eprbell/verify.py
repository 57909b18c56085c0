"""Cross-validation checks run by the ``verify`` CLI subcommand.

Each check compares two independent computational routes at a fixed
tolerance and reports the first disagreement found.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .born import singlet_pair_prob
from .errors import InvalidInputError
from .geometry import Direction
from .hvsim import mixture_pair_dist
from .spincore import SIGNS, apply_property_I, local_pair_dist, qm_pair_dist

TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_dev: float
    detail: str = ""


def _random_direction(rng: np.random.Generator) -> Direction:
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    r = np.sqrt(max(0.0, 1.0 - z * z))
    return Direction(r * np.cos(phi), r * np.sin(phi), z)


def check_born_agreement(trials: int, seed: int) -> CheckResult:
    """Wave-function probabilities vs the closed-form two-device table."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        a, b = _random_direction(rng), _random_direction(rng)
        alpha = int(rng.choice(SIGNS))
        beta = int(rng.choice(SIGNS))
        dev = abs(singlet_pair_prob(a, b, alpha, beta) - qm_pair_dist(a, b).prob(alpha, beta))
        worst = max(worst, dev)
        if dev > TOL:
            return CheckResult(
                "born_vs_qm_pair_dist", False, worst,
                f"qm_pair_dist disagrees with wave-function route at a={a}, b={b}",
            )
    return CheckResult("born_vs_qm_pair_dist", True, worst)


def check_equivalence_round_trip(trials: int, seed: int) -> CheckResult:
    """Sign-flip relabeling maps the one-device table to the two-device table
    and back."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        a, b = _random_direction(rng), _random_direction(rng)
        qm = qm_pair_dist(a, b)
        loc = local_pair_dist(a, b)
        dev = max(
            float(np.max(np.abs(apply_property_I(loc).table - qm.table))),
            float(np.max(np.abs(apply_property_I(qm).table - loc.table))),
        )
        worst = max(worst, dev)
        if dev > TOL:
            return CheckResult("equivalence_round_trip", False, worst,
                               f"round trip fails at a={a}, b={b}")
    return CheckResult("equivalence_round_trip", True, worst)


def check_mixture_identity(trials: int, seed: int) -> CheckResult:
    """Analytic hidden-variable mixture equals the one-device table."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        a, b = _random_direction(rng), _random_direction(rng)
        dev = float(np.max(np.abs(mixture_pair_dist(a, b).table - local_pair_dist(a, b).table)))
        worst = max(worst, dev)
        if dev > TOL:
            return CheckResult("hidden_variable_mixture", False, worst,
                               f"mixture identity fails at a={a}, b={b}")
    return CheckResult("hidden_variable_mixture", True, worst)


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
