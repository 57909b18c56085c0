import math

import numpy as np
import pytest

from eprbell import Direction, qm_pair_dist, singlet_pair_probs
from eprbell.born import _eigenspinors

from conftest import random_direction


def sigma_dot(n, u):
    """(n.sigma) u, with n.sigma = [[z, x - iy], [x + iy, -z]]."""
    return (n.z * u[0] + complex(n.x, -n.y) * u[1], complex(n.x, n.y) * u[0] - n.z * u[1])


# Where the chart switches (z = +0.0, -0.0 and just below 0), both poles, a
# hair from each pole, where a chart used on its wrong side loses all but a
# few digits, and a direction with its negation.
CHART_EDGES = [
    Direction.from_angle(0.7), -Direction.from_angle(0.7), Direction(1, 0, -1e-300),
    Direction(0, 0, 1), Direction(0, 0, -1), Direction(3e-8, 4e-8, 1), -Direction(3e-8, 4e-8, 1),
    Direction(0.0, -0.6, 0.8), -Direction(0.0, -0.6, 0.8),
]


class TestEigenspinors:
    def check(self, n):
        up, down = _eigenspinors(n)
        for s, u in ((1, up), (-1, down)):
            assert abs(abs(u[0]) ** 2 + abs(u[1]) ** 2 - 1.0) <= 1e-15
            assert all(abs(got - s * want) <= 1e-15 for got, want in zip(sigma_dot(n, u), u))
        assert abs(up[0].conjugate() * down[0] + up[1].conjugate() * down[1]) <= 1e-15

    def test_random_directions(self, rng):
        for _ in range(500):
            self.check(random_direction(rng))

    @pytest.mark.parametrize("n", CHART_EDGES, ids=repr)
    def test_chart_edges(self, n):
        self.check(n)

    def test_chart_edges_against_closed_form(self):
        for a in CHART_EDGES:
            for b in CHART_EDGES + [-a]:
                cells = qm_pair_dist(a, b).cells
                assert max(abs(p - c) for p, c in zip(singlet_pair_probs(a, b), cells)) <= 1e-15


def one_trial(a, b):
    """The Born probabilities at one orientation pair as a 2x2 array."""
    return np.array(singlet_pair_probs(a, b)).reshape(2, 2)


class TestSingletPairProb:
    def test_aligned(self):
        a = Direction(0, 0, 1)
        probs = one_trial(a, a)
        assert probs[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert probs[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_sixty_degrees(self):
        a = Direction.from_angle(0.0)
        b = Direction.from_angle(math.pi / 3)
        probs = one_trial(a, b)
        assert probs[0, 1] == pytest.approx(0.375, abs=1e-12)
        assert probs[0, 0] == pytest.approx(0.125, abs=1e-12)

    def test_matches_closed_form_random(self, rng):
        for _ in range(1000):
            a, b = random_direction(rng), random_direction(rng)
            d = qm_pair_dist(a, b)
            probs = one_trial(a, b)
            for i, alpha in enumerate((1, -1)):
                for j, beta in enumerate((1, -1)):
                    assert probs[i, j] == pytest.approx(d.prob(alpha, beta), abs=1e-12)


class TestSingletPairProbs:
    def test_matches_closed_form_all_cells(self, rng):
        pairs = [(random_direction(rng), random_direction(rng)) for _ in range(500)]
        probs = np.array([singlet_pair_probs(u, v) for u, v in pairs])
        assert probs.shape == (500, 4)
        closed = np.array([qm_pair_dist(u, v).cells for u, v in pairs])
        assert np.max(np.abs(probs - closed)) < 1e-12

    def test_never_reads_the_dot_product(self, rng, monkeypatch):
        # The route must stay independent of the closed form, which reads a.b.
        pairs = [(random_direction(rng), random_direction(rng)) for _ in range(200)]
        closed = [qm_pair_dist(u, v).cells for u, v in pairs]

        def forbidden(self, other):
            raise AssertionError("the Born route read a.b")

        monkeypatch.setattr(Direction, "dot", forbidden)
        monkeypatch.setattr(Direction, "cos_to", forbidden)
        for (u, v), cells in zip(pairs, closed):
            assert max(abs(p - c) for p, c in zip(singlet_pair_probs(u, v), cells)) < 1e-12
