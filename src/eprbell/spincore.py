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

import numbers
from dataclasses import dataclass, field

import numpy as np

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


@dataclass(frozen=True)
class PairDist:
    """Probability table over {-1,+1}^2 for two binary spin variables.

    ``table[i, j]`` is the probability of (first, second) = (SIGNS[i], SIGNS[j]).
    """

    table: np.ndarray
    labels: tuple[str, str] = ("A", "B")

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.shape != (2, 2):
            raise InvalidInputError(f"pair table must be 2x2, got shape {t.shape}")
        if not np.isfinite(t).all():
            raise InvalidInputError(f"pair table entries must be finite: {t.tolist()}")
        if t.min() < -PROB_TOL or t.max() > 1.0 + PROB_TOL:
            raise InvalidInputError(f"pair table entries outside [0, 1]: {t.tolist()}")
        if abs(t.sum() - 1.0) > PROB_TOL:
            raise InvalidInputError(f"pair table sums to {t.sum()}, not 1")
        t = np.clip(t, 0.0, 1.0)
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    def prob(self, first: int, second: int) -> float:
        return float(self.table[_idx(first), _idx(second)])

    def to_mapping(self) -> dict[str, float]:
        """Serialize as {"pp", "pm", "mp", "mm"} with p = +1, first symbol first."""
        return {
            "pp": float(self.table[0, 0]),
            "pm": float(self.table[0, 1]),
            "mp": float(self.table[1, 0]),
            "mm": float(self.table[1, 1]),
        }

    @classmethod
    def from_mapping(cls, m: dict, labels=("A", "B")) -> "PairDist":
        try:
            cells = [[m["pp"], m["pm"]], [m["mp"], m["mm"]]]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"pair table mapping needs keys pp/pm/mp/mm: {exc}")
        # numpy would parse "0.25", read True as 1.0 and None as NaN.
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for row in cells for v in row):
            raise InvalidInputError(f"pair table cells must be numbers, got {cells}")
        return cls(np.array(cells, dtype=float), labels)


def qm_pair_dist(a: Direction, b: Direction) -> PairDist:
    """Singlet-state joint table for outcomes (A(a), B(b))."""
    x = a.dot(b)
    t = np.empty((2, 2))
    for i, alpha in enumerate(SIGNS):
        for j, beta in enumerate(SIGNS):
            t[i, j] = 0.25 * (1.0 - alpha * beta * x)
    return PairDist(t, ("A", "B"))


def local_pair_dist(a: Direction, b: Direction) -> PairDist:
    """Single-device joint table for outcomes (A(a), A(b))."""
    x = a.dot(b)
    t = np.empty((2, 2))
    for i, alpha in enumerate(SIGNS):
        for j, beta in enumerate(SIGNS):
            t[i, j] = 0.25 * (1.0 + alpha * beta * x)
    return PairDist(t, ("A", "A'"))


def qm_marginal(d: PairDist, which: str = "first") -> dict[int, float]:
    """Single-variable marginal of a pair table; uniform for the singlet tables."""
    axis = 1 if which == "first" else 0 if which == "second" else None
    if axis is None:
        raise InvalidInputError(f"which must be 'first' or 'second', got {which!r}")
    m = d.table.sum(axis=axis)
    return {1: float(m[0]), -1: float(m[1])}


def qm_conditional(a: Direction, b: Direction, given: int, side: str = "B") -> dict[int, float]:
    """Conditional table for one device's outcome given the other's.

    side="B" conditions on B(b)=given and returns the table for A(a);
    side="A" the converse. By symmetry both equal
    P[s] = (1 - s*given * a.b) / 2.
    """
    if side not in ("A", "B"):
        raise InvalidInputError(f"side must be 'A' or 'B', got {side!r}")
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
    t = d.table
    return float(t[0, 0] - t[0, 1] - t[1, 0] + t[1, 1])


def apply_property_I(d: PairDist, which: str = "second") -> PairDist:
    """Flip the sign of one variable (relabeling A(b) <-> -B(b)).

    Maps local_pair_dist(a, b) to qm_pair_dist(a, b) and back (the
    equivalence between the one-device and two-device descriptions).
    """
    if which == "first":
        t = d.table[::-1, :]
    elif which == "second":
        t = d.table[:, ::-1]
    else:
        raise InvalidInputError(f"which must be 'first' or 'second', got {which!r}")
    return PairDist(t.copy(), d.labels)
