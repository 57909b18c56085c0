"""Stochastic hidden-variable model for the single-device pair statistics.

A hidden unit vector lambda is drawn uniformly on the sphere and classified
into a spherical cap of area 2*pi*(1 + a.b); cap membership fixes the product
A(a)*A(b), and a fair sign fixes the pair. The mixture over lambda reproduces
the exact table, and mapping B(b) = -A(b) gives the two-device singlet
statistics. The punchline: the conditional P[A(a)=1 | B(b)=1] depends on the
*remote* orientation b, so no local response function P[A | lambda, a] exists.
"""

import math

from eprbell import Direction, product_rule_demo, simulate


def main():
    a = Direction.from_angle(0.0)
    b = Direction.from_angle(math.pi / 3)

    print("Simulating 10^6 singlet pairs at theta = 60 deg (seed 7):")
    rep = simulate(a, b, 1_000_000, seed=7, mode="singlet")
    emp, theo = rep.empirical_mapping(), rep.theoretical.to_mapping()
    for key in ("pp", "pm", "mp", "mm"):
        print(f"  {key}: empirical {emp[key]:.4f}  theoretical {theo[key]:.4f}")
    print(f"  max abs deviation {rep.max_abs_dev:.5f}, chi-square {rep.chi_square:.2f}")

    print("\nSame run with 8 worker threads is bit-identical "
          "(fixed 65,536-sample blocks, per-block seeded streams):")
    rep8 = simulate(a, b, 1_000_000, seed=7, mode="singlet", threads=8)
    print("  identical:", rep == rep8)

    print("\nWhy the model is irreducibly nonlocal - the conditional")
    print("P[A(a)=+1 | B(b)=+1] for three choices of the remote direction b:")
    for est in product_rule_demo(a, n=500_000, seed=1):
        print(f"  {est.label:14s} estimate {est.estimate:.4f}  (target {est.target})")
    print("One device, three different conditionals: the outcome cannot be a")
    print("function of (lambda, a) alone.")


if __name__ == "__main__":
    main()
