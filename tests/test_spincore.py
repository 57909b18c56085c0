import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from eprbell import (
    Direction,
    InvalidDirectionError,
    InvalidInputError,
    apply_property_I,
    conditional_entropy,
    covariance,
    local_pair_dist,
    qm_conditional,
    qm_marginal,
    qm_pair_dist,
)
from eprbell.hvsim import _kernel_pair_dist
from eprbell.joint import QuadDist
from eprbell.spincore import PairDist

from conftest import as_array, cell_dev, direction_from_array, random_direction, random_pair_dist, random_rotation


def from_angles(theta):
    return Direction.from_angle(0.0), Direction.from_angle(theta)


class TestDirection:
    def test_normalizes_close_input(self):
        for axis in range(3):
            v = [0.0, 0.0, 0.0]
            v[axis] = 1.0 + 5e-7
            d = Direction(*v)
            assert (d.x, d.y, d.z)[axis] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidDirectionError):
            Direction(1.0, 1.0, 0.0)
        with pytest.raises(InvalidDirectionError):
            Direction(0.0, 0.0, 0.0)

    def test_from_angle(self):
        d = Direction.from_angle(math.pi / 2)
        assert d.y == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_from_angle_rejects_non_finite(self, theta):
        with pytest.raises(InvalidDirectionError, match="angle must be finite"):
            Direction.from_angle(theta)

    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_angle_to_matches_dot(self, t1, t2):
        a, b = Direction.from_angle(t1), Direction.from_angle(t2)
        assert math.cos(a.angle_to(b)) == pytest.approx(a.dot(b), abs=1e-9)

    def test_cos_to_clamps_rounding(self):
        b = Direction.from_angle(math.radians(120.0))
        assert b.dot(b) > 1.0  # 1 + 2^-52 from rounding
        assert b.cos_to(b) == 1.0 and (-b).cos_to(b) == -1.0
        a = Direction(0.0, 0.6, 0.8)
        assert a.cos_to(Direction(0.48, 0.6, -0.64)) == a.dot(Direction(0.48, 0.6, -0.64))

    def test_negation_is_exact(self, rng):
        # -a negates each component without renormalizing, so the two-device
        # table of (a, -a) is the one-device table of (a, a) cell for cell.
        for _ in range(2000):
            a = random_direction(rng)
            neg = -a
            assert (neg.x, neg.y, neg.z) == (-a.x, -a.y, -a.z)
            assert qm_pair_dist(a, neg).cells == local_pair_dist(a, a).cells


# Cells that float() would read as a number but that are not one.
NON_NUMBERS = ["0.25", b"0.25", True, np.bool_(False), None, [0.25]]


class TestPairDist:
    @pytest.mark.parametrize("first, second", [(math.nan, 0.25), (math.inf, -math.inf)])
    def test_rejects_non_finite_entries(self, first, second):
        with pytest.raises(InvalidInputError, match="finite"):
            PairDist(np.array([[first, second], [0.25, 0.25]]))

    @pytest.mark.parametrize("cell", NON_NUMBERS)
    def test_from_mapping_rejects_non_numbers(self, cell):
        with pytest.raises(InvalidInputError, match="numbers"):
            PairDist.from_mapping({"pp": cell, "pm": 0.25, "mp": 0.25, "mm": 0.25})

    @pytest.mark.parametrize("cls", [PairDist, QuadDist])
    @pytest.mark.parametrize("cell", NON_NUMBERS)
    def test_constructor_rejects_non_numbers(self, cell, cls):
        # The other cells sum to 0.75, so a cell that float() reads as 0.25
        # would make a table.
        rest = [0.75 / (2 ** cls.DIMS - 1)] * (2 ** cls.DIMS - 1)
        with pytest.raises(InvalidInputError, match="numbers"):
            cls([cell, *rest])

    @pytest.mark.parametrize("cls", [PairDist, QuadDist])
    @pytest.mark.parametrize("kind", [str, bytes, bytearray, memoryview])
    def test_constructor_rejects_text_and_bytes(self, kind, cls):
        # Iterated, b"\x01\x00\x00\x00" yields the ints 1, 0, 0, 0: a table.
        cells = [1] + [0] * (2 ** cls.DIMS - 1)
        values = "".join(map(str, cells)) if kind is str else kind(bytes(cells))
        with pytest.raises(InvalidInputError, match="numbers"):
            cls(values)

    def test_cells_and_read_only_table(self):
        d = PairDist(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert d.cells == (0.1, 0.2, 0.3, 0.4)
        assert PairDist([0.1, 0.2, 0.3, 0.4]) == d
        array = d.q  # the benchmark's view, built on each access
        assert not array.flags.writeable
        assert array.tolist() == [[0.1, 0.2], [0.3, 0.4]]

    @pytest.mark.parametrize("values", [[0.25] * 3, [[0.5, 0.5]], [[0.25, 0.25], [0.25]], 0.25, "abcd"])
    def test_rejects_wrong_shape(self, values):
        with pytest.raises(InvalidInputError, match="2x2"):
            PairDist(values)

    def test_rejects_entries_outside_unit_interval(self):
        # The cells sum to 1, so only the range check rejects them.
        with pytest.raises(InvalidInputError, match=r"pair table entries outside \[0, 1\]"):
            PairDist((1.5, -0.5, 0.0, 0.0))

    def test_clip_matches_numpy(self):
        raw = [-0.0, -1e-13, 0.0, 1.0 + 1e-13]
        cells = PairDist(raw).cells
        assert cells == (0.0, 0.0, 0.0, 1.0)
        assert [math.copysign(1.0, v) for v in cells] == np.copysign(1.0, np.clip(raw, 0.0, 1.0)).tolist()

    def test_from_mapping_accepts_numbers(self):
        m = {"pp": 1, "pm": 0.0, "mp": np.float64(0.0), "mm": 0}
        assert PairDist.from_mapping(m).to_mapping() == {"pp": 1.0, "pm": 0.0, "mp": 0.0, "mm": 0.0}

    def test_from_mapping_rejects_sum_past_float_range(self):
        # Each cell is finite, but their sum is not: this used to raise
        # OverflowError from math.fsum.
        with pytest.raises(InvalidInputError, match="PairDist sums to inf, not 1"):
            PairDist.from_mapping({"pp": 1e308, "pm": 1e308, "mp": 0, "mm": 0})


class TestQmPairDist:
    def test_aligned_equal_outcomes_impossible(self):
        a, b = from_angles(0.0)
        assert qm_pair_dist(a, b).prob(1, 1) == 0.0

    def test_orthogonal_uniform(self):
        a, b = from_angles(math.pi / 2)
        assert np.allclose(qm_pair_dist(a, b).cells, 0.25, atol=1e-15)

    def test_sixty_degrees(self):
        a, b = from_angles(math.pi / 3)
        # (1/2) cos^2(pi/6) = 0.375 for opposite outcomes
        assert qm_pair_dist(a, b).prob(1, -1) == pytest.approx(0.375, abs=1e-12)

    def test_normalization_random(self, rng):
        for _ in range(200):
            a, b = random_direction(rng), random_direction(rng)
            assert abs(sum(qm_pair_dist(a, b).cells) - 1.0) < 1e-12

    def test_rotation_invariance(self, rng):
        for _ in range(50):
            a, b = random_direction(rng), random_direction(rng)
            rot = random_rotation(rng)
            ar = direction_from_array(rot @ as_array(a))
            br = direction_from_array(rot @ as_array(b))
            assert np.allclose(
                qm_pair_dist(a, b).cells, qm_pair_dist(ar, br).cells, atol=1e-12
            )
            assert np.allclose(
                local_pair_dist(a, b).cells, local_pair_dist(ar, br).cells, atol=1e-12
            )


class TestMarginalsConditionals:
    def test_marginals_uniform(self):
        for theta in (0.0, math.pi / 2, 1.234):
            d = qm_pair_dist(*from_angles(theta))
            for which in ("first", "second"):
                m = qm_marginal(d, which)
                assert m[1] == pytest.approx(0.5, abs=1e-12)
                assert m[-1] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("func", [qm_marginal])
    def test_rejects_unknown_side(self, func):
        with pytest.raises(InvalidInputError, match="which must be 'first' or 'second', got 'x'"):
            func(PairDist([0.25] * 4), "x")

    def test_aligned_forces_opposite(self):
        a, b = from_angles(0.0)
        cond = qm_conditional(a, b, given=1)
        assert cond[-1] == pytest.approx(1.0, abs=1e-12)
        assert cond[1] == pytest.approx(0.0, abs=1e-12)

    def test_antialigned_forces_equal(self):
        a, b = from_angles(math.pi)
        cond = qm_conditional(a, b, given=1)
        assert cond[1] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_uninformative(self):
        a, b = from_angles(math.pi / 2)
        for given in (1, -1):
            cond = qm_conditional(a, b, given=given)
            assert cond[1] == pytest.approx(0.5, abs=1e-15)

    def test_bayes_consistency(self, rng):
        # conditional * marginal reproduces the joint, 1000 random pairs
        for _ in range(1000):
            a, b = random_direction(rng), random_direction(rng)
            d = qm_pair_dist(a, b)
            for beta in (1, -1):
                cond = qm_conditional(a, b, given=beta)
                for alpha in (1, -1):
                    assert cond[alpha] * 0.5 == pytest.approx(
                        d.prob(alpha, beta), abs=1e-12
                    )

    def test_opposite_directions_read_clamped_cosine(self, rng):
        # a.dot(-a) rounds to -1 - 2^-52 for many random a; every pair
        # quantity reads the cosine clamped to [-1, 1], so none goes negative,
        # the simulator kernel's law does not raise from acos, and such a
        # pair has zero conditional entropy.
        rounded = 0
        for _ in range(2000):
            a = random_direction(rng)
            if a.dot(-a) < -1.0:
                rounded += 1
                assert conditional_entropy(a, -a) == 0.0
                assert qm_pair_dist(a, -a).cells == (0.5, 0.0, 0.0, 0.5)
            values = [*qm_conditional(a, a, 1).values(), *_kernel_pair_dist(a, a).cells,
                      *_kernel_pair_dist(a, -a).cells]
            assert min(values) >= 0.0
        assert rounded > 0


class TestCovariance:
    def test_aligned(self):
        assert covariance(qm_pair_dist(*from_angles(0.0))) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal(self):
        assert covariance(qm_pair_dist(*from_angles(math.pi / 2))) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_table(self):
        assert covariance(PairDist(np.full((2, 2), 0.25))) == 0.0

    def test_identity_random(self, rng):
        for _ in range(200):
            a, b = random_direction(rng), random_direction(rng)
            x = a.dot(b)
            assert covariance(qm_pair_dist(a, b)) == pytest.approx(-x, abs=1e-12)
            assert covariance(local_pair_dist(a, b)) == pytest.approx(x, abs=1e-12)


class TestPropertyI:
    def test_local_sixty_degrees(self):
        a, b = from_angles(math.pi / 3)
        assert local_pair_dist(a, b).prob(1, 1) == pytest.approx(0.375, abs=1e-12)
        # equals the two-device table with the second outcome flipped
        assert local_pair_dist(a, b).prob(1, 1) == qm_pair_dist(a, b).prob(1, -1)

    def test_round_trip(self, rng):
        tables = np.random.default_rng(265)
        for _ in range(1000):
            a, b = random_direction(rng), random_direction(rng)
            loc, qm = local_pair_dist(a, b), qm_pair_dist(a, b)
            assert cell_dev(apply_property_I(loc), qm) < 1e-12
            # Both singlet tables are symmetric, so a flip of the first
            # outcome passes above; on an asymmetric table it does not.
            d = random_pair_dist(tables)
            assert apply_property_I(d).cells == tuple(d.prob(s, -t) for s in (1, -1) for t in (1, -1))

    def test_involution(self, rng):
        from conftest import random_pair_dist

        d = random_pair_dist(rng)
        twice = apply_property_I(apply_property_I(d))
        assert twice.cells == d.cells

    def test_flips_the_second_outcome(self):
        # An asymmetric table: a flip of the first outcome gives
        # (0.3, 0.4, 0.1, 0.2) instead.
        assert apply_property_I(PairDist((0.1, 0.2, 0.3, 0.4))).cells == (0.2, 0.1, 0.4, 0.3)

    def test_uniform_fixed_point(self):
        u = PairDist(np.full((2, 2), 0.25))
        assert apply_property_I(u).cells == u.cells
