"""Independent wave-function route to the singlet pair probabilities.

Probabilities come from the quadratic form <psi| P_a(alpha) x P_b(beta) |psi>
with P_n(s) = (I + s * n.sigma) / 2 and the singlet amplitudes
(0, 1, -1, 0)/sqrt(2) over the (up-up, up-down, down-up, down-down) basis,
in plain complex arithmetic. This route never reads a.b, so it shares no
formula with the closed-form pair tables and is used to cross-validate them;
``singlet_pair_probs`` evaluates it for all four outcome pairs of one
orientation pair.
"""

from __future__ import annotations

import math

from .geometry import Direction
from .spincore import SIGNS, _idx

# The singlet's nonzero amplitudes as ((first spin, second spin), amplitude), 0 as up.
_PSI = (((0, 1), 1 / math.sqrt(2.0)), ((1, 0), -1 / math.sqrt(2.0)))


def _spin_projector(n: Direction, s: int) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Rows of the 2x2 projector (I + s * n.sigma) / 2 onto spin s along
    direction n, with n.sigma = [[z, x - iy], [x + iy, -z]]."""
    h = 0.5 * SIGNS[_idx(s)]  # _idx rejects a spin other than +1 and -1
    return ((complex(0.5 + h * n.z), h * complex(n.x, -n.y)),
            (h * complex(n.x, n.y), complex(0.5 - h * n.z)))


def singlet_pair_probs(a: Direction, b: Direction) -> tuple[float, float, float, float]:
    """Born-rule probabilities of the four outcome pairs (alpha, beta) at
    orientations (a, b), in ``PairDist`` order: (+1, +1), (+1, -1),
    (-1, +1), (-1, -1)."""
    cells = []
    for pa in (_spin_projector(a, 1), _spin_projector(a, -1)):
        for pb in (_spin_projector(b, 1), _spin_projector(b, -1)):
            # <psi| P_a x P_b |psi>, summed over the nonzero amplitudes, which are real.
            value = 0j
            for (x, y), cx in _PSI:
                for (u, v), cu in _PSI:
                    value += cx * pa[x][u] * pb[y][v] * cu
            if abs(value.imag) > 1e-12:
                raise RuntimeError(f"probability has imaginary residue {abs(value.imag)}")
            cells.append(value.real)
    return tuple(cells)
