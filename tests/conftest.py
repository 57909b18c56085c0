import importlib
import itertools
import math
import pkgutil
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest

import eprbell
from eprbell import Direction, PairDist, QuadDist
from eprbell.hvsim import sample_lambda

# Every eprbell submodule is loaded before any test runs. Hypothesis mixes the
# literals of each loaded local module into its draws, so without this the
# examples of a derandomized test would depend on which tests ran before it.
# The loading-rule tests probe fresh subprocesses and do not see this import.
for _module in pkgutil.iter_modules(eprbell.__path__):
    importlib.import_module(f"eprbell.{_module.name}")


def random_direction(rng: np.random.Generator) -> Direction:
    return Direction(*sample_lambda(rng, 1)[0].tolist())


def as_array(d: Direction) -> np.ndarray:
    """The direction's (x, y, z) as a float array."""
    return np.array([d.x, d.y, d.z])


def direction_from_array(v) -> Direction:
    """The Direction whose components are those of the 3-vector v."""
    return Direction(*np.asarray(v, dtype=float).tolist())


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random rotation matrix from the QR decomposition of a Gaussian."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def cell_dev(p, q) -> float:
    """The largest absolute difference between two tables' cells."""
    return max(abs(x - y) for x, y in zip(p.cells, q.cells))


def random_pair_dist(rng: np.random.Generator) -> PairDist:
    t = rng.uniform(0.0, 1.0, size=(2, 2))
    return PairDist(t / t.sum())


# Cells of the (A, B, C, D) tables in C order, index 0 = +1.
_SIGNS4 = tuple(itertools.product((1, -1), repeat=4))
# The nine moments that the CHSH pair tables fix, each the mean of a product
# of variables (0 = A, 1 = B, 2 = C, 3 = D): the total, <A>, <B>, <C>, <D>,
# <AB>, <AC>, <DB> and <DC>.
_MOMENT_AXES = ((), (0,), (1,), (2,), (3,), (0, 1), (0, 2), (3, 1), (3, 2))
_MOMENT_ROWS = [[math.prod(cell[k] for k in axes) for cell in _SIGNS4] for axes in _MOMENT_AXES]


def _exact_pair_moments(p: PairDist) -> tuple[Fraction, Fraction, Fraction]:
    """(first moment, second moment, pair moment) of a 2x2 table, exact in
    its float cells."""
    pp, pm, mp, mm = map(Fraction, p.cells)
    return pp + pm - mp - mm, pp + mp - pm - mm, pp - pm - mp + mm


def least_deviation(rows, rhs) -> tuple[Fraction, list[Fraction]]:
    """The least sum of |rows @ x - rhs| over nonnegative x, and an x that
    attains it, computed exactly over Fractions.

    Each row gets two slack variables with rows @ x + p - n = rhs, and the
    simplex method minimizes the slack sum, starting from the basis of the
    slacks that take up |rhs|. Bland's rule (the lowest index with a
    negative reduced cost enters; the lowest basic index leaves on a tied
    ratio) cannot cycle, so the loop ends."""
    m, n = len(rows), len(rows[0])
    # Tableau rows [row | e_i | -e_i | rhs], each negated where its rhs is
    # negative, so that the first slacks start nonnegative.
    tableau = [
        [Fraction(s * v) for v in [*row, *(int(i == k) for k in range(m)), *(-int(i == k) for k in range(m)), b]]
        for i, (row, b) in enumerate(zip(rows, rhs))
        for s in [-1 if b < 0 else 1]
    ]
    basis = list(range(n, n + m))
    # Reduced costs of the slack sum, then minus its value.
    cost = [int(n <= j < n + 2 * m) - sum(column) for j, column in enumerate(zip(*tableau))]
    while (enter := next((j for j, c in enumerate(cost[:-1]) if c < 0), None)) is not None:
        # The sum is bounded below by 0, so some entry of the column is positive.
        _, _, leave = min((row[-1] / row[enter], basis[i], i) for i, row in enumerate(tableau) if row[enter] > 0)
        pivot = tableau[leave]
        pivot[:] = [v / pivot[enter] for v in pivot]
        for row in (*tableau, cost):
            if row is not pivot and row[enter]:
                f = row[enter]
                row[:] = [v - f * w if w else v for v, w in zip(row, pivot)]  # most w are 0
        basis[leave] = enter
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = tableau[i][-1]
    return -cost[-1], x


# The largest total by which a witness's nine moments may miss those read
# from the tables: the tables' shared marginals, and each table's sum, differ
# from one joint's by rounding, ~1e-16, and a zero cell leaves no room to
# absorb that. A CHSH lhs is 1-Lipschitz in these moments, so an input whose
# largest lhs passes 2 by more than this has no witness.
LP_TOL = 1e-12


def lp_witness(
    p_ab: PairDist, p_ac: PairDist, p_db: PairDist, p_dc: PairDist
) -> Optional[QuadDist]:
    """A valid joint over (A, B, C, D) with the four given pair tables, found
    by exact linear programming over the 16 cells; None when there is none.
    The second route against which the tests check quad_feasibility's
    verdict and glued witness.

    The constraints are the total 1 and the eight moments the tables fix,
    each read exactly from the float cells, with a shared first moment the
    mean of its two tables' values; a witness may miss them by LP_TOL in
    all. Equating the 16 cells' pair sums to the tables' cells instead
    would need the shared marginals to agree exactly."""
    a1, b1, c_ab = _exact_pair_moments(p_ab)
    a2, c1, c_ac = _exact_pair_moments(p_ac)
    d1, b2, c_db = _exact_pair_moments(p_db)
    d2, c2, c_dc = _exact_pair_moments(p_dc)
    first = [(u + v) / 2 for u, v in ((a1, a2), (b1, b2), (c1, c2), (d1, d2))]
    deviation, x = least_deviation(_MOMENT_ROWS, [1, *first, c_ab, c_ac, c_db, c_dc])
    return QuadDist([float(v) for v in x]) if deviation <= LP_TOL else None


# Axes of each CHSH pair table in the (A, B, C, D) cell order.
CHSH_AXES = {"AB": (0, 1), "AC": (0, 2), "DB": (3, 1), "DC": (3, 2)}


# A contradictory set of three pairwise tables whose third-order joint cannot exist:
# A and B perfectly correlated, C and A perfectly correlated, B and C
# perfectly anti-correlated.
CONTRA_AB = {"pp": 0.5, "pm": 0.0, "mp": 0.0, "mm": 0.5}
CONTRA_BC = {"pp": 0.0, "pm": 0.5, "mp": 0.5, "mm": 0.0}
CONTRA_CA = {"pp": 0.5, "pm": 0.0, "mp": 0.0, "mm": 0.5}


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
