"""Exact spin-pair probability tables for the singlet state.

Two families of 2x2 tables over outcomes in {-1,+1}:

* ``qm_pair_dist``: the two-device (A, B) table, entry(alpha, beta) =
  (1 - alpha*beta * a.b) / 4.
* ``local_pair_dist``: the single-device (A(a), A(b)) table, entry =
  (1 + alpha*beta * a.b) / 4.

The two are related by flipping the sign of one variable
(``apply_property_I``), reflecting total-spin conservation A(a) = -B(a).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidInputError
from .geometry import Direction

SIGNS = (1, -1)  # row/column 0 is +1, row/column 1 is -1

PROB_TOL = 1e-12


def _idx(s: int) -> int:
    if s == 1:
        return 0
    if s == -1:
        return 1
    raise InvalidInputError(f"spin value must be +1 or -1, got {s}")


def cell_key(signs) -> str:
    """Name of one table cell: a letter per variable, p for +1 and m for -1."""
    return "".join("p" if s == 1 else "m" for s in signs)


def cell_keys(dims: int) -> tuple[str, ...]:
    """Names of the cells of a 2 x ... x 2 table with ``dims`` axes in C
    order, index 0 = +1: ("pp", "pm", "mp", "mm") for a pair."""
    return tuple(map(cell_key, itertools.product(SIGNS, repeat=dims)))


def _nested(v, depth: int) -> list:
    if depth == 0:
        return [v]
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise TypeError
    return _nested(v[0], depth - 1) + _nested(v[1], depth - 1)


def cells_of(values, dims: int, what: str) -> tuple[float, ...]:
    """The cells of a 2 x ... x 2 table with ``dims`` axes, as a flat tuple of
    finite floats in C order. ``values`` is a nested sequence or ndarray of
    that shape, or the flat cells themselves."""
    v = values.tolist() if hasattr(values, "tolist") else values
    try:
        cells = tuple(map(float, v if len(v) == 1 << dims else _nested(v, dims)))
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"{what} must be {'x'.join('2' * dims)} numbers, got {values!r}")
    if not all(map(math.isfinite, cells)):
        raise InvalidInputError(f"{what} entries must be finite: {cells}")
    return cells


def table_sum(cells) -> float:
    """Sum of 4, 8 or 16 cells in numpy's order, so that a table normalized
    by it keeps numpy's bits: 4 cells left to right from 0.0; 8 or 16 in
    eight accumulators r[j] = x[j] (+ x[j + 8]), combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))."""
    if len(cells) < 8:
        total = 0.0
        for v in cells:
            total += v
        return total
    r = [u + v for u, v in zip(cells[:8], cells[8:])] if len(cells) == 16 else cells
    return ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))


def read_only_array(cells, dims: int):
    """``cells`` as a read-only 2 x ... x 2 ndarray; numpy loads here, on the
    first ``.table`` or ``.q`` access."""
    import numpy as np

    a = np.array(cells, dtype=float).reshape((2,) * dims)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PairDist:
    """Probability table over {-1,+1}^2 for two binary spin variables.

    ``cells`` is (p(+,+), p(+,-), p(-,+), p(-,-)), first variable first; it
    is built from any 2x2 nested sequence or array, or from the four cells.
    ``table[i, j]`` is the probability of (first, second) = (SIGNS[i],
    SIGNS[j]), as a read-only ndarray.
    """

    cells: tuple[float, float, float, float]
    labels: tuple[str, str] = ("A", "B")

    def __post_init__(self):
        t = cells_of(self.cells, 2, "pair table")
        if min(t) < -PROB_TOL or max(t) > 1.0 + PROB_TOL:
            raise InvalidInputError(f"pair table entries outside [0, 1]: {t}")
        if abs(table_sum(t) - 1.0) > PROB_TOL:
            raise InvalidInputError(f"pair table sums to {table_sum(t)}, not 1")
        # Clip as np.clip does: -0.0 stays -0.0.
        t = tuple(0.0 if v < 0.0 else 1.0 if v > 1.0 else v for v in t)
        object.__setattr__(self, "cells", t)

    @cached_property
    def table(self):
        return read_only_array(self.cells, 2)

    def prob(self, first: int, second: int) -> float:
        return self.cells[2 * _idx(first) + _idx(second)]

    def to_mapping(self) -> dict[str, float]:
        """Serialize as {"pp", "pm", "mp", "mm"} (``cell_keys(2)``)."""
        return dict(zip(cell_keys(2), self.cells))

    @classmethod
    def from_mapping(cls, m: dict, labels=("A", "B")) -> "PairDist":
        try:
            cells = [m[key] for key in cell_keys(2)]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"pair table mapping needs keys {'/'.join(cell_keys(2))}: {exc}")
        # float() would parse "0.25" and read True as 1.0.
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in cells):
            raise InvalidInputError(f"pair table cells must be numbers, got {cells}")
        return cls(cells, labels)


def pair_dist_from_dot(x: float, s: int) -> PairDist:
    """The table with cells (1 + s * alpha * beta * x) / 4 for x = a.b:
    s = -1 gives the two-device (A, B) singlet table, s = +1 the
    single-device (A, A') one."""
    cells = [0.25 * (1.0 + s * alpha * beta * x) for alpha in SIGNS for beta in SIGNS]
    return PairDist(cells, ("A", "B") if s == -1 else ("A", "A'"))


def qm_pair_dist(a: Direction, b: Direction) -> PairDist:
    """Singlet-state joint table for outcomes (A(a), B(b))."""
    return pair_dist_from_dot(a.dot(b), -1)


def local_pair_dist(a: Direction, b: Direction) -> PairDist:
    """Single-device joint table for outcomes (A(a), A(b))."""
    return pair_dist_from_dot(a.dot(b), 1)


def qm_marginal(d: PairDist, which: str = "first") -> dict[int, float]:
    """Single-variable marginal of a pair table; uniform for the singlet tables."""
    pp, pm, mp, mm = d.cells
    if which == "first":
        return {1: pp + pm, -1: mp + mm}
    if which == "second":
        return {1: pp + mp, -1: pm + mm}
    raise InvalidInputError(f"which must be 'first' or 'second', got {which!r}")


def qm_conditional(a: Direction, b: Direction, given: int) -> dict[int, float]:
    """Conditional table for one device's outcome given the other's reading
    ``given``; by symmetry it does not matter which device conditions:
    P[s] = (1 - s*given * a.b) / 2."""
    _idx(given)
    x = a.dot(b)
    return {s: 0.5 * (1.0 - s * given * x) for s in SIGNS}


def local_conditional(a: Direction, b: Direction, given: int) -> dict[int, float]:
    """P[A(b)=s | A(a)=given] = (1 + s*given * a.b) / 2."""
    _idx(given)
    x = a.dot(b)
    return {s: 0.5 * (1.0 + s * given * x) for s in SIGNS}


def covariance(d: PairDist) -> float:
    """Sum of alpha*beta * p(alpha, beta); equals -a.b for qm_pair_dist."""
    pp, pm, mp, mm = d.cells
    return pp - pm - mp + mm


def apply_property_I(d: PairDist, which: str = "second") -> PairDist:
    """Flip the sign of one variable (relabeling A(b) <-> -B(b)).

    Maps local_pair_dist(a, b) to qm_pair_dist(a, b) and back (the
    equivalence between the one-device and two-device descriptions).
    """
    pp, pm, mp, mm = d.cells
    if which == "first":
        return PairDist((mp, mm, pp, pm), d.labels)
    if which == "second":
        return PairDist((pm, pp, mm, mp), d.labels)
    raise InvalidInputError(f"which must be 'first' or 'second', got {which!r}")
