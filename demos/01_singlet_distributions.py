"""Pair distributions for two spin measurements on a singlet pair.

Walks through the two-device table P(alpha, beta) = (1 - alpha*beta*a.b)/4,
its single-device counterpart, and how marginals, conditionals, and the
covariance fall out of them.
"""

import math

from eprbell import (
    Direction,
    apply_property_I,
    covariance,
    local_pair_dist,
    qm_conditional,
    qm_marginal,
    qm_pair_dist,
)


def show_table(title, dist):
    print(f"\n{title}")
    m = dist.to_mapping()
    print(f"           second=+1   second=-1")
    print(f"  first=+1   {m['pp']:.4f}      {m['pm']:.4f}")
    print(f"  first=-1   {m['mp']:.4f}      {m['mm']:.4f}")
    print(f"  covariance = {covariance(dist):+.4f}")


def main():
    a = Direction.from_angle(0.0)
    for theta_deg in (0, 60, 90, 180):
        b = Direction.from_angle(math.radians(theta_deg))
        show_table(f"two-device singlet table, theta = {theta_deg} deg", qm_pair_dist(a, b))

    print("\nMarginals are uniform no matter the angle:")
    b = Direction.from_angle(1.234)
    print(" ", qm_marginal(qm_pair_dist(a, b), "first"))

    print("\nBut conditionals are not - at theta = 0 the remote outcome is forced:")
    b = Direction.from_angle(0.0)
    print("  P[A | B=+1] =", qm_conditional(a, b, given=1))

    print("\nSingle-device table at 60 deg (same device measured twice):")
    b = Direction.from_angle(math.radians(60))
    show_table("single-device table, theta = 60 deg", local_pair_dist(a, b))

    print("\nThe two tables are the same object up to flipping the second outcome")
    print("(total-spin conservation: the far device reads the opposite sign):")
    flipped = apply_property_I(local_pair_dist(a, b))
    print("  max |flip(local) - singlet| =",
          abs(flipped.table - qm_pair_dist(a, b).table).max())


if __name__ == "__main__":
    main()
