import math

import numpy as np
import pytest

from eprbell import (
    Direction,
    qm_pair_dist,
    singlet_pair_prob,
    singlet_pair_probs,
    spin_projector,
)
from eprbell.errors import InvalidInputError

from conftest import random_direction


class TestSpinProjector:
    def test_idempotent_hermitian(self, rng):
        for _ in range(50):
            n = random_direction(rng)
            for s in (1, -1):
                p = spin_projector(n, s)
                assert np.allclose(p @ p, p, atol=1e-12)
                assert np.allclose(p, p.conj().T, atol=1e-12)
                assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)

    def test_completeness(self, rng):
        for _ in range(50):
            n = random_direction(rng)
            total = spin_projector(n, 1) + spin_projector(n, -1)
            assert np.allclose(total, np.eye(2), atol=1e-12)

    def test_orthogonality(self, rng):
        n = random_direction(rng)
        prod = spin_projector(n, 1) @ spin_projector(n, -1)
        assert np.allclose(prod, 0.0, atol=1e-12)

    def test_z_axis(self):
        up = spin_projector(Direction(0, 0, 1), 1)
        assert np.allclose(up, np.diag([1.0, 0.0]), atol=1e-12)


class TestSingletPairProb:
    def test_aligned(self):
        a = Direction(0, 0, 1)
        assert singlet_pair_prob(a, a, 1, 1) == pytest.approx(0.0, abs=1e-12)
        assert singlet_pair_prob(a, a, 1, -1) == pytest.approx(0.5, abs=1e-12)

    def test_sixty_degrees(self):
        a = Direction.from_angle(0.0)
        b = Direction.from_angle(math.pi / 3)
        assert singlet_pair_prob(a, b, 1, -1) == pytest.approx(0.375, abs=1e-12)
        assert singlet_pair_prob(a, b, 1, 1) == pytest.approx(0.125, abs=1e-12)

    def test_matches_closed_form_random(self, rng):
        for _ in range(1000):
            a, b = random_direction(rng), random_direction(rng)
            d = qm_pair_dist(a, b)
            for alpha in (1, -1):
                for beta in (1, -1):
                    assert singlet_pair_prob(a, b, alpha, beta) == pytest.approx(
                        d.prob(alpha, beta), abs=1e-12
                    )


def direction_arrays(rng, k):
    """k random direction pairs, as Directions and as (k, 3) arrays."""
    pairs = [(random_direction(rng), random_direction(rng)) for _ in range(k)]
    a = np.array([(u.x, u.y, u.z) for u, _ in pairs])
    b = np.array([(v.x, v.y, v.z) for _, v in pairs])
    return pairs, a, b


class TestSingletPairProbs:
    def test_matches_closed_form_all_cells(self, rng):
        pairs, a, b = direction_arrays(rng, 500)
        probs = singlet_pair_probs(a, b)
        assert probs.shape == (500, 2, 2)
        closed = np.array([qm_pair_dist(u, v).cells for u, v in pairs])
        assert np.max(np.abs(probs.reshape(-1, 4) - closed)) < 1e-12

    def test_matches_one_trial_route(self, rng):
        pairs, a, b = direction_arrays(rng, 50)
        probs = singlet_pair_probs(a, b)
        for i, (u, v) in enumerate(pairs):
            for j, alpha in enumerate((1, -1)):
                for k, beta in enumerate((1, -1)):
                    assert singlet_pair_prob(u, v, alpha, beta) == pytest.approx(
                        probs[i, j, k], abs=1e-15
                    )

    @pytest.mark.parametrize("a_shape, b_shape", [((3,), (3,)), ((4, 3), (5, 3)), ((4, 2), (4, 2))])
    def test_rejects_bad_shapes(self, a_shape, b_shape):
        with pytest.raises(InvalidInputError):
            singlet_pair_probs(np.zeros(a_shape), np.zeros(b_shape))

    def test_rejects_bad_sign(self):
        a = Direction(0, 0, 1)
        with pytest.raises(InvalidInputError):
            singlet_pair_prob(a, a, 0, 1)
        with pytest.raises(InvalidInputError):
            spin_projector(a, 2)
