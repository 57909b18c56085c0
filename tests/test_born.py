import math

import numpy as np
import pytest

from eprbell import Direction, qm_pair_dist, singlet_pair_probs
from eprbell.born import _spin_projector
from eprbell.errors import InvalidInputError

from conftest import random_direction


def projector(n, s):
    """``_spin_projector``'s rows as a 2x2 array, for the matrix algebra."""
    return np.array(_spin_projector(n, s))


class TestSpinProjector:
    def test_idempotent_hermitian(self, rng):
        for _ in range(50):
            n = random_direction(rng)
            for s in (1, -1):
                p = projector(n, s)
                assert np.allclose(p @ p, p, atol=1e-12)
                assert np.allclose(p, p.conj().T, atol=1e-12)
                assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)

    def test_completeness(self, rng):
        for _ in range(50):
            n = random_direction(rng)
            total = projector(n, 1) + projector(n, -1)
            assert np.allclose(total, np.eye(2), atol=1e-12)

    def test_orthogonality(self, rng):
        n = random_direction(rng)
        prod = projector(n, 1) @ projector(n, -1)
        assert np.allclose(prod, 0.0, atol=1e-12)

    def test_z_axis(self):
        up = projector(Direction(0, 0, 1), 1)
        assert np.allclose(up, np.diag([1.0, 0.0]), atol=1e-12)


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

    def test_rejects_bad_sign(self):
        with pytest.raises(InvalidInputError):
            _spin_projector(Direction(0, 0, 1), 2)
