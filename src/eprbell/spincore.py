"""Exact spin-pair probability tables for the singlet state.

``SignedTable`` is the one table type over {-1,+1}^DIMS: ``PairDist`` is its
two-axis size, ``joint.TripleDist`` and ``joint.QuadDist`` the larger ones.

Two families of 2x2 tables over outcomes in {-1,+1}:

* ``qm_pair_dist``: the two-device (A, B) table, entry(alpha, beta) =
  (1 - alpha*beta * a.b) / 4.
* ``local_pair_dist``: the single-device (A(a), A(b)) table, entry =
  (1 + alpha*beta * a.b) / 4.

The two are related by flipping the sign of the second variable
(``apply_property_I``), reflecting total-spin conservation A(a) = -B(a).
"""

from __future__ import annotations

import itertools
import math
import numbers

from .errors import InvalidInputError, shown
from .geometry import Direction
from .value import Value

SIGNS = (1, -1)  # row/column 0 is +1, row/column 1 is -1

PROB_TOL = 1e-12


def _idx(s: int) -> int:
    if s == 1:
        return 0
    if s == -1:
        return 1
    raise InvalidInputError(f"spin value must be +1 or -1, got {shown(s)}")


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
        flat = v if len(v) == 1 << dims else _nested(v, dims)
        # float() would parse "0.25" and read True as 1.0; a float skips the slow ABC check.
        # A str or byte string is no table, though it iterates as characters or ints.
        text = isinstance(values, (str, bytes, bytearray, memoryview))
        if text or not all(type(x) is float or isinstance(x, numbers.Real) and not isinstance(x, bool) for x in flat):
            raise TypeError
        cells = tuple(map(float, flat))
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"{what} must be {'x'.join('2' * dims)} numbers, got {shown(values, repr)}")
    if not all(map(math.isfinite, cells)):
        raise InvalidInputError(f"{what} entries must be finite: {shown(cells)}")
    return cells


class SignedTable(Value):
    """Signed table over {-1,+1}^DIMS whose cells sum to one within TOL.
    ``cells`` holds the 2^DIMS entries in C order of (A, B, C, ...), index
    0 = +1, and is the table's one representation; it is built from any
    2 x ... x 2 nested sequence or array, or from the flat cells. Negative
    entries are kept: a table with one certifies that no joint has its pair
    marginals."""

    DIMS: ClassVar[int]
    TOL: ClassVar[float]

    cells: tuple[float, ...]

    def __init__(self, cells: tuple[float, ...]):
        name = type(self).__name__
        t = cells_of(cells, self.DIMS, name)
        try:
            total = math.fsum(t)
        except OverflowError:  # a partial sum passed the float range; scaled by 2**-DIMS, none can
            total = math.fsum(x * 0.5 ** self.DIMS for x in t) * 2 ** self.DIMS  # inf if the sum is past it
        if abs(total - 1.0) > self.TOL:
            raise InvalidInputError(f"{name} sums to {total}, not 1")
        vars(self)["cells"] = t

    @property
    def q(self):
        # The cells as a read-only (2,) * DIMS ndarray, built on each access for
        # perfbench/child.py alone; it goes once that reads cells (ROADMAP item 1a).
        import numpy as np

        a = np.array(self.cells, dtype=float).reshape((2,) * self.DIMS)
        a.flags.writeable = False
        return a

    @property
    def valid(self) -> bool:
        return min(self.cells) >= -self.TOL

    def prob(self, *signs: int) -> float:
        if len(signs) != self.DIMS:
            raise InvalidInputError(f"expected {self.DIMS} spin values, got {len(signs)}")
        index = 0
        for s in signs:
            index = 2 * index + _idx(s)
        return self.cells[index]

    def negative_cells(self) -> list[tuple[tuple[int, ...], float]]:
        grid = itertools.product(SIGNS, repeat=self.DIMS)
        return [(cell, v) for cell, v in zip(grid, self.cells) if v < -self.TOL]

    def to_mapping(self) -> dict[str, float]:
        """The cells by name (``cell_keys``): {"pp", "pm", "mp", "mm"} for a pair."""
        return dict(zip(cell_keys(self.DIMS), self.cells))


class PairDist(SignedTable):
    """Probability table over {-1,+1}^2 for two binary spin variables: a
    ``SignedTable`` whose cells also lie in [0, 1] within TOL, clipped to it."""

    DIMS, TOL = 2, PROB_TOL

    def __init__(self, cells: tuple[float, ...]):
        super().__init__(cells)
        t, lo, hi = self.cells, min(self.cells), max(self.cells)
        if lo < -self.TOL or hi > 1.0 + self.TOL:
            raise InvalidInputError(f"pair table entries outside [0, 1]: {shown(t)}")
        if lo < 0.0 or hi > 1.0:  # -0.0 is not below 0.0, so it is kept
            vars(self)["cells"] = tuple(0.0 if v < 0.0 else 1.0 if v > 1.0 else v for v in t)

    @classmethod
    def from_mapping(cls, m: dict, labels=None) -> "PairDist":
        # ``labels`` is ignored: perfbench/child.py still passes it.
        try:
            cells = [m[key] for key in cell_keys(2)]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"pair table mapping needs keys {'/'.join(cell_keys(2))}: {exc}")
        return cls(cells)


def pair_dist_from_dot(x: float, s: int) -> PairDist:
    """The table with cells (1 + s * alpha * beta * x) / 4 for x = a.b:
    s = -1 gives the two-device (A, B) singlet table, s = +1 the
    single-device (A, A') one."""
    cells = [0.25 * (1.0 + s * alpha * beta * x) for alpha in SIGNS for beta in SIGNS]
    return PairDist(cells)


def qm_pair_dist(a: Direction, b: Direction) -> PairDist:
    """Singlet-state joint table for outcomes (A(a), B(b))."""
    return pair_dist_from_dot(a.cos_to(b), -1)


def local_pair_dist(a: Direction, b: Direction) -> PairDist:
    """Single-device joint table for outcomes (A(a), A(b))."""
    return pair_dist_from_dot(a.cos_to(b), 1)


def qm_marginal(d: PairDist, which: str = "first") -> dict[int, float]:
    """Single-variable marginal of a pair table; uniform for the singlet tables."""
    pp, pm, mp, mm = d.cells
    if which == "first":
        return {1: pp + pm, -1: mp + mm}
    if which == "second":
        return {1: pp + mp, -1: pm + mm}
    raise InvalidInputError(f"which must be 'first' or 'second', got {shown(which, repr)}")


def qm_conditional(a: Direction, b: Direction, given: int) -> dict[int, float]:
    """Conditional table for one device's outcome given the other's reading
    ``given``; by symmetry it does not matter which device conditions:
    P[s] = (1 - s*given * a.b) / 2: twice a row of the pair table."""
    d = qm_pair_dist(a, b)
    return {s: 2.0 * d.prob(given, s) for s in SIGNS}


def covariance(d: PairDist) -> float:
    """Sum of alpha*beta * p(alpha, beta); equals -a.b for qm_pair_dist."""
    pp, pm, mp, mm = d.cells
    return pp - pm - mp + mm


def apply_property_I(d: PairDist) -> PairDist:
    """Property I: flip the sign of the second outcome (relabeling A(b) <->
    -B(b)). It maps local_pair_dist(a, b) to qm_pair_dist(a, b), and, being
    its own inverse, back: the one-device and two-device descriptions agree.
    """
    pp, pm, mp, mm = d.cells
    return PairDist((pm, pp, mm, mp))
