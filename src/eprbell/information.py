"""Shannon-information view of the single-device spin correlation.

The mutual information between A(a) and A(b) is computed from the cell-sum
definition sum p * log2(p / (p_first * p_second)) with 0*log(0) = 0. For the
single-device table it reduces to

    I(x) = (1+x)/2 * log2(1+x) + (1-x)/2 * log2(1-x),   x = a.b,

which is even in x, zero at x = 0, and 1 bit at x = +-1.
"""

from __future__ import annotations

import math

from .errors import InvalidInputError, shown
from .geometry import Direction
from .spincore import PairDist, pair_dist_from_dot
from .value import Value

# Largest curve info_curve tabulates: step 2**-15 gives 2**16 + 1 points.
INFO_MAX_POINTS = 2**16 + 1


class InfoCurvePoint(Value):
    x: float
    mutual_information_bits: float
    conditional_entropy_bits: float

    def __init__(self, x: float, mutual_information_bits: float, conditional_entropy_bits: float):
        vars(self).update(x=x, mutual_information_bits=mutual_information_bits,
                          conditional_entropy_bits=conditional_entropy_bits)


def _xlog2x(p: float) -> float:
    return p * math.log2(p) if p > 0.0 else 0.0


def mutual_information(d: PairDist) -> float:
    """Mutual information of a pair table, in bits."""
    pp, pm, mp, mm = d.cells
    first, second = (pp + pm, mp + mm), (pp + mp, pm + mm)
    total = 0.0
    for p, i, j in zip(d.cells, (0, 0, 1, 1), (0, 1, 0, 1)):
        if p > 0.0:
            # Each marginal is >= p > 0, but their product can underflow to 0.
            q = first[i] * second[j]
            total += p * (math.log2(p / q) if q > 0.0 else math.log2(p) - math.log2(first[i]) - math.log2(second[j]))
    # Clamp -0.0 / rounding residue: I >= 0 always.
    return max(total, 0.0)


def binary_entropy(p: float) -> float:
    """Entropy of a {p, 1-p} distribution in bits, with 0*log(0) = 0."""
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"probability out of range: {shown(p)}")
    return max(0.0, -_xlog2x(p) - _xlog2x(1.0 - p))


def conditional_entropy(a: Direction, b: Direction) -> float:
    """H(A(b) | A(a)) in bits; the binary entropy of cos^2(theta_ab / 2)."""
    x = a.cos_to(b)
    return binary_entropy(0.5 * (1.0 + x))


def info_curve(step: float) -> list[InfoCurvePoint]:
    """Tabulate mutual information and conditional entropy over x in [-1, 1],
    at most ``INFO_MAX_POINTS`` points; a finer step is rejected up front."""
    if not 0.0 < step <= 1.0:
        raise InvalidInputError(f"step must be in (0, 1], got {shown(step)}")
    n = int(round(min(2.0 / step, INFO_MAX_POINTS)))
    if n + 1 > INFO_MAX_POINTS:
        raise InvalidInputError(f"step {shown(step)} gives more than {INFO_MAX_POINTS} points, the most allowed")
    # k < n = round(2 / step) keeps each x in [-1, 1 - step / 2].
    xs = [-1.0 + k * step for k in range(n)] + [1.0]
    points = []
    for x in xs:
        mi = mutual_information(pair_dist_from_dot(x, 1))
        ce = binary_entropy(0.5 * (1.0 + x))
        points.append(InfoCurvePoint(x, mi, ce))
    return points
