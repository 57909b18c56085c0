"""Independent wave-function route to the singlet pair probabilities.

The singlet (|up down> - |down up>)/sqrt(2) has amplitude
<psi|u x v> = (u0 v1 - u1 v0)/sqrt(2) on a product spinor u x v, so the
probability of outcomes (alpha, beta) is |u0 v1 - u1 v0|^2 / 2 with u and v
the unit eigenspinors of a.sigma for alpha and of b.sigma for beta, in plain
complex arithmetic. This route never reads a.b, so it shares no formula with
the closed-form pair tables and is used to cross-validate them;
``singlet_pair_probs`` evaluates it for all four outcome pairs of one
orientation pair.
"""

from __future__ import annotations

import math

from .geometry import Direction


def _eigenspinors(n: Direction) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Unit eigenspinors of n.sigma = [[z, x - iy], [x + iy, -z]] for +1 and
    then -1. The +1 spinor is (1 + z, x + iy) normalized, or for z < 0
    (x - iy, 1 - z), the chart that stays away from zero there; the -1
    spinor is (-conj(u1), conj(u0))."""
    if n.z >= 0.0:
        u0, u1 = complex(1.0 + n.z), complex(n.x, n.y)
    else:
        u0, u1 = complex(n.x, -n.y), complex(1.0 - n.z)
    norm = math.hypot(u0.real, u0.imag, u1.real, u1.imag)
    u0, u1 = u0 / norm, u1 / norm
    return (u0, u1), (-u1.conjugate(), u0.conjugate())


def singlet_pair_probs(a: Direction, b: Direction) -> tuple[float, float, float, float]:
    """Born-rule probabilities of the four outcome pairs (alpha, beta) at
    orientations (a, b), in ``PairDist`` order: (+1, +1), (+1, -1),
    (-1, +1), (-1, -1)."""
    spinors_a, spinors_b = _eigenspinors(a), _eigenspinors(b)
    amps = [u0 * v1 - u1 * v0 for u0, u1 in spinors_a for v0, v1 in spinors_b]
    return tuple((w.real * w.real + w.imag * w.imag) / 2.0 for w in amps)
