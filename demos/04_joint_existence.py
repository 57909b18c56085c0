"""When do pairwise tables extend to a genuine joint distribution?

Three pairwise tables for (A, B), (B, C), (C, A) fix six moments; an
eighth-order construction determines the candidate triple distribution up to
one free third moment mu3. The candidate is a real distribution iff mu3 can
be chosen to keep all eight cells nonnegative - an interval condition that,
for symmetric tables, matches a pair of covariance inequalities. The same
question for the four CHSH pairs is settled exactly by Fine's theorem (the
eight CHSH inequalities), and a feasible set gets a closed-form witness glued
from the triangles (A, B, C) and (D, B, C).
"""

import math

import numpy as np

from eprbell import (
    Direction,
    MomentSet3,
    PairDist,
    existence_check_3,
    mu3_interval,
    qm_triple,
    quad_feasibility,
    triple_from_moments,
)


def pair_from_cov(c):
    return PairDist(0.25 * np.array([[1 + c, 1 - c], [1 - c, 1 + c]]))


def main():
    print("A contradictory trio: <AB> = <CA> = +1 but <BC> = -1.")
    res = existence_check_3(0, 0, 0, 1.0, -1.0, 1.0, symmetric=True)
    print(f"  |m_ab + m_ca| - m_bc = {res.verdicts['abs_plus'].lhs:.0f} > 1 -> no joint exists")
    iv = mu3_interval(0, 0, 0, 1.0, -1.0, 1.0)
    print(f"  mu3 interval: [{iv.lo:.2f}, {iv.hi:.2f}] (empty: {iv.empty})")
    t = triple_from_moments(MomentSet3(m_ab=1.0, m_bc=-1.0, m_ca=1.0, m_abc=0.0))
    print(f"  forced cell: q(A=-1, B=+1, C=+1) = {t.prob(-1, 1, 1):+.4f} "
          "(negative for every mu3)")

    print("\nSinglet statistics at the pi/8 chain run into the same wall:")
    a = Direction.from_angle(0.0)
    b = Direction.from_angle(math.pi / 8)
    c = Direction.from_angle(math.pi / 4)
    trip = qm_triple(a, b, c)
    for cell, value in trip.negative_cells():
        label = "".join("+" if s == 1 else "-" for s in cell)
        print(f"  negative quasi-probability at ({label}): {value:+.5f}")

    print("\nMild correlations are fine:")
    res = existence_check_3(0, 0, 0, 0.3, 0.3, 0.2, symmetric=True)
    print(f"  m = (0.3, 0.3, 0.2): exists = {res.exists}")

    print("\nFourth-order check for the CHSH pairs (AB, AC, DB, DC) by Fine's inequalities:")
    s = math.sqrt(2) / 2
    res = quad_feasibility(
        pair_from_cov(-s), pair_from_cov(s), pair_from_cov(-s), pair_from_cov(-s)
    )
    worst = max(v.lhs for v in res.verdicts.values())
    print(f"  Tsirelson-point covariances: feasible = {res.feasible} "
          f"(worst inequality lhs {worst:.4f} > 2)")
    res = quad_feasibility(*(pair_from_cov(x) for x in (0.2, -0.1, 0.15, 0.05)))
    print(f"  small covariances: feasible = {res.feasible}, witness returned = "
          f"{res.witness is not None}")


if __name__ == "__main__":
    main()
