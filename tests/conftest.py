import importlib
import itertools
import pkgutil
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


_SIGN_GRID4 = np.array(list(itertools.product((1, -1), repeat=4)))  # (A, B, C, D)


def _pair_constraint_rows(first_axis: int, second_axis: int) -> np.ndarray:
    """Four indicator rows over the 16 cells, one per (first, second) value pair."""
    rows = np.zeros((4, 16))
    for r, (u, v) in enumerate(itertools.product((1, -1), repeat=2)):
        mask = (_SIGN_GRID4[:, first_axis] == u) & (_SIGN_GRID4[:, second_axis] == v)
        rows[r, mask] = 1.0
    return rows


def lp_witness(
    p_ab: PairDist, p_ac: PairDist, p_db: PairDist, p_dc: PairDist
) -> Optional[QuadDist]:
    """A valid joint over (A, B, C, D) with the four given pair tables, found
    by exact linear feasibility over the 16 entries; None when the linear
    program is infeasible. The second route against which the tests check
    quad_feasibility's verdict and glued witness."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    # Axes in the (A, B, C, D) cell ordering for each specified pair.
    systems = [(0, 1, p_ab), (0, 2, p_ac), (3, 1, p_db), (3, 2, p_dc)]
    a_eq = np.vstack([_pair_constraint_rows(i, j) for i, j, _ in systems])
    b_eq = np.concatenate(
        [[p.prob(u, v) for u, v in itertools.product((1, -1), repeat=2)] for _, _, p in systems]
    )
    res = linprog(
        c=np.zeros(16),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, 1.0)] * 16,
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status != 0:
        return None
    q = np.zeros((2, 2, 2, 2))
    for cell, value in zip(_SIGN_GRID4, res.x):
        idx = tuple((1 - s) // 2 for s in cell)
        q[idx] = value
    return QuadDist(q / q.sum())


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
