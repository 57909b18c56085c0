import math

import numpy as np
import pytest

from hypothesis import given, strategies as st

from eprbell import (
    Direction,
    InvalidInputError,
    binary_entropy,
    conditional_entropy,
    info_curve,
    local_pair_dist,
    mutual_information,
)

from conftest import random_pair_dist


def local_at(x):
    return local_pair_dist(Direction.from_angle(0.0), Direction.from_angle(math.acos(x)))


def cell_sum_oracle(x):
    """Direct evaluation of the four-cell summation, independent of the library."""
    total = 0.0
    for alpha in (1, -1):
        for beta in (1, -1):
            p = 0.25 * (1 + alpha * beta * x)
            if p > 0:
                total += p * math.log2(p / 0.25)
    return total


class TestMutualInformation:
    def test_orthogonal_zero(self):
        assert mutual_information(local_at(0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_aligned_one_bit(self):
        assert mutual_information(local_at(1.0)) == pytest.approx(1.0, abs=1e-12)
        assert mutual_information(local_at(-1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_half_against_cell_oracle(self):
        expected = cell_sum_oracle(0.5)
        assert expected == pytest.approx(0.1887218755408671, abs=1e-12)
        assert mutual_information(local_at(0.5)) == pytest.approx(expected, abs=1e-12)

    def test_evenness(self, rng):
        for x in rng.uniform(-1, 1, 100):
            assert mutual_information(local_at(x)) == pytest.approx(
                mutual_information(local_at(-x)), abs=1e-12
            )

    def test_closed_form(self, rng):
        for x in rng.uniform(-1, 1, 100):
            closed = 0.5 * (1 + x) * math.log2(1 + x) + 0.5 * (1 - x) * math.log2(1 - x)
            assert mutual_information(local_at(x)) == pytest.approx(closed, abs=1e-9)

    def test_nonnegative_any_table(self, rng):
        for _ in range(200):
            assert mutual_information(random_pair_dist(rng)) >= 0.0

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    def test_nonnegative_hypothesis(self, u, v, w):
        from eprbell.spincore import PairDist

        t = np.array([[u, v], [w, 1.0]])
        assert mutual_information(PairDist(t / t.sum())) >= 0.0


class TestBinaryEntropy:
    @pytest.mark.parametrize("p", [1.5, -0.5, math.nan])
    def test_rejects_non_probability(self, p):
        with pytest.raises(InvalidInputError, match="probability out of range"):
            binary_entropy(p)


class TestConditionalEntropy:
    @pytest.mark.parametrize(
        "theta,expected", [(0.0, 0.0), (math.pi / 2, 1.0), (math.pi, 0.0)]
    )
    def test_endpoints(self, theta, expected):
        h = conditional_entropy(Direction.from_angle(0.0), Direction.from_angle(theta))
        assert h == pytest.approx(expected, abs=1e-12)

    def test_chain_identity(self, rng):
        # I + H(A(b)|A(a)) = 1 bit for the uniform-marginal binary case
        for x in rng.uniform(-1, 1, 100):
            a = Direction.from_angle(0.0)
            b = Direction.from_angle(math.acos(x))
            assert mutual_information(local_pair_dist(a, b)) + conditional_entropy(
                a, b
            ) == pytest.approx(1.0, abs=1e-9)


class TestInfoCurve:
    def test_step_one_endpoints(self):
        points = info_curve(1.0)
        assert [p.x for p in points] == [-1.0, 0.0, 1.0]
        assert [p.mutual_information_bits for p in points] == pytest.approx([1.0, 0.0, 1.0])

    def test_symmetry_step_half(self):
        points = {p.x: p.mutual_information_bits for p in info_curve(0.5)}
        assert points[-0.5] == pytest.approx(points[0.5], abs=1e-12)

    def test_fine_grid(self):
        points = info_curve(0.01)
        assert len(points) == 201
        mis = [p.mutual_information_bits for p in points]
        assert all(0.0 <= m <= 1.0 for m in mis)
        # monotone towards the edges
        mid = 100
        assert all(np.diff(mis[:mid + 1]) <= 1e-12)
        assert all(np.diff(mis[mid:]) >= -1e-12)
        for p in points:
            assert p.mutual_information_bits + p.conditional_entropy_bits == pytest.approx(
                1.0, abs=1e-9
            )

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_step_range(self, bad):
        with pytest.raises(InvalidInputError):
            info_curve(bad)
