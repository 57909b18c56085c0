import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from eprbell import (
    Direction,
    InconsistentMarginalsError,
    InvalidInputError,
    MomentSet3,
    PairDist,
    QuadDist,
    TripleDist,
    covariance,
    default_mu3,
    existence_check_3,
    local_pair_dist,
    marginal,
    moments_from_pairs,
    mu3_interval,
    qm_pair_dist,
    qm_triple,
    quad_feasibility,
    triple_from_moments,
)
from eprbell import joint
from eprbell.inequalities import VIOLATION_SLACK
from eprbell.joint import _chsh_family_verdicts

from conftest import CHSH_AXES, CONTRA_AB, CONTRA_BC, CONTRA_CA, cell_dev, lp_witness, random_direction


def contradictory_pairs():
    return (
        PairDist.from_mapping(CONTRA_AB),
        PairDist.from_mapping(CONTRA_BC),
        PairDist.from_mapping(CONTRA_CA),
    )


def grid_oracle_exists(m_ab, m_bc, m_ca, m_a=0.0, m_b=0.0, m_c=0.0, step=1e-3):
    """Brute-force search over the third moment: does any mu3 on the grid make
    all eight cells of the moment construction nonnegative?"""
    for mu3 in np.arange(-1.0, 1.0 + step / 2, step):
        ok = True
        for a, b, c in itertools.product((1, -1), repeat=3):
            q = (
                1 + a * m_a + b * m_b + c * m_c
                + a * b * m_ab + b * c * m_bc + c * a * m_ca
                + a * b * c * mu3
            ) / 8.0
            if q < -1e-9:
                ok = False
                break
        if ok:
            return True
    return False


class TestTableValidation:
    @pytest.mark.parametrize("cls, dims", [(PairDist, 2), (TripleDist, 3), (QuadDist, 4)])
    def test_cells_and_read_only_array(self, cls, dims):
        q = np.arange(1.0, 2 ** dims + 1) / (2 ** (dims - 1) * (2 ** dims + 1))
        t = cls(q.reshape((2,) * dims))
        assert t.cells == tuple(q.tolist()) and cls(tuple(q.tolist())) == t
        array = t.q  # the benchmark's view, built on each access
        assert not array.flags.writeable
        assert array.shape == (2,) * dims and array.ravel().tolist() == list(t.cells)

    @pytest.mark.parametrize("dims", [3, 4])
    def test_prob_and_negative_cells(self, dims):
        # <AB> = <BC> = <CA> = -1; at four variables, times an independent
        # uniform D.
        t = triple_from_moments(MomentSet3(m_ab=-1.0, m_bc=-1.0, m_ca=-1.0))
        negative = [((1, 1, 1), -0.25), ((-1, -1, -1), -0.25)]
        if dims == 4:
            t = QuadDist([v / 2 for v in t.cells for _ in range(2)])
            negative = [(cell + (d,), v / 2) for cell, v in negative for d in (1, -1)]
        for cell, value in zip(itertools.product((1, -1), repeat=dims), t.cells):
            assert t.prob(*cell) == value
        assert t.negative_cells() == negative

    @pytest.mark.parametrize("cls", [PairDist, TripleDist, QuadDist])
    def test_prob_rejects_bad_signs(self, cls):
        t = cls([1.0] + [0.0] * (2 ** cls.DIMS - 1))
        rest = [1] * (cls.DIMS - 1)
        for bad in (0, 3):
            for signs in ([bad, *rest], [*rest, bad]):
                with pytest.raises(InvalidInputError, match="spin value"):
                    t.prob(*signs)
        for n in (cls.DIMS - 1, cls.DIMS + 1):
            with pytest.raises(InvalidInputError, match=f"expected {cls.DIMS} spin values"):
                t.prob(*[1] * n)

    @pytest.mark.parametrize("cls", [PairDist, TripleDist, QuadDist])
    def test_rejects_sum_off_one(self, cls):
        rest = [0.0] * (2 ** cls.DIMS - 2)
        assert cls([1.0, 0.5 * cls.TOL, *rest]).valid
        with pytest.raises(InvalidInputError, match="sums to"):
            cls([1.0, 2.0 * cls.TOL, *rest])

    @pytest.mark.parametrize("cls", [PairDist, TripleDist, QuadDist])
    def test_sum_past_float_range(self, cls):
        # Finite cells whose partial sums pass the float range: math.fsum
        # raises OverflowError, which used to leave the constructor. A table
        # whose sum is past the range sums to inf; one whose sum comes back
        # into it has that exact sum.
        n = 2 ** cls.DIMS
        with pytest.raises(InvalidInputError, match=f"{cls.__name__} sums to inf, not 1"):
            cls([1e308] * n)
        with pytest.raises(InvalidInputError, match=f"{cls.__name__} sums to inf, not 1"):
            cls([sys.float_info.max] * n)
        with pytest.raises(InvalidInputError, match=rf"{cls.__name__} sums to 1e\+308, not 1"):
            cls([1e308, 1e308, -1e308] + [0.0] * (n - 3))
        if cls is not PairDist:  # a pair table's cells lie in [0, 1]
            cells = [1e308, 1e308, -1e308, -1e308, 1.0] + [0.0] * (n - 5)
            assert cls(cells).cells == tuple(cells)

    @pytest.mark.parametrize("cls", [TripleDist, QuadDist])
    def test_marginal_rejects_bad_axes(self, cls):
        t = cls([1.0] + [0.0] * (2 ** cls.DIMS - 1))
        assert marginal(t, 0, cls.DIMS - 1).cells == (1.0, 0.0, 0.0, 0.0)
        for axes in ((1, 1), (0, cls.DIMS), (-1, 0)):
            with pytest.raises(InvalidInputError, match="axes"):
                marginal(t, *axes)

    @pytest.mark.parametrize("cls", [TripleDist, QuadDist])
    def test_rejects_wrong_shape(self, cls):
        with pytest.raises(InvalidInputError, match="2x2x2"):
            cls(np.full((2, 2), 0.25))

    @pytest.mark.parametrize("first, second", [(math.nan, 0.0), (math.inf, -math.inf)])
    @pytest.mark.parametrize("cls, shape", [(TripleDist, (2, 2, 2)), (QuadDist, (2, 2, 2, 2))])
    def test_rejects_non_finite_entries(self, cls, shape, first, second):
        q = np.zeros(shape)
        q.flat[:3] = first, second, 1.0
        with pytest.raises(InvalidInputError, match="finite"):
            cls(q)


class TestTripleFromMoments:
    def test_uniform(self):
        t = triple_from_moments(MomentSet3())
        assert np.allclose(t.cells, 0.125, atol=1e-15)
        assert t.valid

    def test_contradictory_negative_cell(self):
        for mu3 in (-1.0, -0.3, 0.0, 0.7, 1.0):
            t = triple_from_moments(MomentSet3(m_ab=1, m_bc=-1, m_ca=1, m_abc=mu3))
            assert t.prob(-1, 1, 1) == pytest.approx((-2 - mu3) / 8, abs=1e-12)
            assert t.prob(-1, 1, 1) <= -0.125 + 1e-12
            assert not t.valid

    def test_all_pairs_correlated(self):
        t = triple_from_moments(MomentSet3(m_ab=1, m_bc=1, m_ca=1))
        assert t.prob(1, 1, 1) == pytest.approx(0.5)
        assert t.prob(-1, -1, -1) == pytest.approx(0.5)
        assert t.valid
        # brute-force check: all 8 entries nonnegative at mu3 = 0
        assert all(
            t.prob(a, b, c) >= -1e-12 for a, b, c in itertools.product((1, -1), repeat=3)
        )


class TestMomentsFromPairs:
    def test_uniform(self):
        u = PairDist(np.full((2, 2), 0.25))
        m = moments_from_pairs(u, u, u)
        assert m.m_ab == m.m_bc == m.m_ca == 0.0

    def test_contradictory_moments(self):
        m = moments_from_pairs(*contradictory_pairs())
        assert (m.m_ab, m.m_ca, m.m_bc) == (1.0, 1.0, -1.0)
        assert (m.m_a, m.m_b, m.m_c) == (0.0, 0.0, 0.0)

    def test_qm_local_pairs(self):
        a = Direction.from_angle(0.0)
        b = Direction.from_angle(math.pi / 4)
        c = Direction.from_angle(math.pi / 2)
        m = moments_from_pairs(
            local_pair_dist(a, b), local_pair_dist(b, c), local_pair_dist(c, a)
        )
        assert m.m_ab == pytest.approx(covariance(local_pair_dist(a, b)), abs=1e-12)
        assert m.m_ab == pytest.approx(math.cos(math.pi / 4), abs=1e-12)
        assert m.m_ca == pytest.approx(0.0, abs=1e-12)

    def test_marginal_mismatch(self):
        biased = PairDist(np.array([[0.4, 0.2], [0.2, 0.2]]))
        u = PairDist(np.full((2, 2), 0.25))
        with pytest.raises(InconsistentMarginalsError):
            moments_from_pairs(biased, u, u)

    def test_round_trip_reproduces_pairs(self, rng):
        # triple_from_moments of extracted moments marginalizes back to the
        # input tables, for any mu3
        for _ in range(100):
            a, b, c = (random_direction(rng) for _ in range(3))
            p_ab = local_pair_dist(a, b)
            p_bc = local_pair_dist(b, c)
            p_ca = local_pair_dist(c, a)
            m = moments_from_pairs(p_ab, p_bc, p_ca)
            mu3 = rng.uniform(-1, 1)
            t = triple_from_moments(
                MomentSet3(m.m_a, m.m_b, m.m_c, m.m_ab, m.m_bc, m.m_ca, mu3)
            )
            assert cell_dev(marginal(t, 0, 1), p_ab) < 1e-12
            assert cell_dev(marginal(t, 1, 2), p_bc) < 1e-12
            # marginal over B gives the (A, C) table; p_ca is (C, A)
            pp, pm, mp, mm = p_ca.cells
            assert cell_dev(marginal(t, 0, 2), PairDist((pp, mp, pm, mm))) < 1e-12


class TestMu3Interval:
    def test_zero_moments(self):
        iv = mu3_interval(0, 0, 0, 0, 0, 0)
        assert (iv.lo, iv.hi) == (-1.0, 1.0)

    def test_contradictory_empty(self):
        assert mu3_interval(0, 0, 0, 1, -1, 1).empty

    def test_rounding_on_the_boundary_is_not_empty(self):
        # Pair tables of the joint ppp = 0.2, ppm = 0.3, pmp = 0.5: their
        # moments put lo one ulp above hi, and the midpoint table is valid.
        m = moments_from_pairs(
            PairDist.from_mapping({"pp": 0.5, "pm": 0.5, "mp": 0.0, "mm": 0.0}),
            PairDist.from_mapping({"pp": 0.2, "pm": 0.3, "mp": 0.5, "mm": 0.0}),
            PairDist.from_mapping({"pp": 0.7, "pm": 0.0, "mp": 0.3, "mm": 0.0}),
        )
        moments = (m.m_a, m.m_b, m.m_c, m.m_ab, m.m_bc, m.m_ca)
        iv = mu3_interval(*moments)
        assert iv.lo > iv.hi and not iv.empty
        assert triple_from_moments(MomentSet3(*moments, iv.midpoint)).valid
        # The slack is the verdicts' own, doubled as lo - hi is twice an lhs excess.
        assert joint.Mu3Interval(2.0 * VIOLATION_SLACK, 0.0).empty is False
        assert joint.Mu3Interval(math.nextafter(2.0 * VIOLATION_SLACK, 1.0), 0.0).empty is True

    def test_half_correlations(self):
        iv = mu3_interval(0, 0, 0, 0.5, 0.5, 0.5)
        assert not iv.empty and triple_from_moments(MomentSet3(0, 0, 0, 0.5, 0.5, 0.5, iv.midpoint)).valid
        assert grid_oracle_exists(0.5, 0.5, 0.5)

    def test_matches_grid_oracle(self, rng):
        for _ in range(300):
            m_ab, m_bc, m_ca = rng.uniform(-1, 1, 3)
            iv = mu3_interval(0, 0, 0, m_ab, m_bc, m_ca)
            assert (not iv.empty) == grid_oracle_exists(m_ab, m_bc, m_ca)

    def test_default_mu3(self):
        iv = mu3_interval(0.2, 0.1, 0.0, 0.3, 0.2, 0.1)
        assert default_mu3(iv) == iv.midpoint == pytest.approx(0.5 * (iv.lo + iv.hi))
        assert default_mu3(mu3_interval(0, 0, 0, 1, -1, 1)) == 0.0

    def test_default_mu3_is_plus_zero_for_zero_first_moments(self, rng):
        # With first moments exactly 0 the cells pair up as (a, b, c) and
        # (-a, -b, -c) with one t and opposite abc, so the interval is [-h, h]
        # bit for bit and its midpoint +0.0: the tables `joint3 --qm` and
        # symmetric `joint3 --pairs` print keep mu3 = 0.
        pairs = rng.uniform(-1, 1, (2000, 3)).tolist()
        for u, v in rng.uniform(-2 * math.pi, 2 * math.pi, (500, 2)).tolist():
            a, b, c = (Direction.from_angle(phi) for phi in (0.0, u, u + v))
            pairs.append((a.cos_to(b), b.cos_to(c), c.cos_to(a)))
        for m_ab, m_bc, m_ca in pairs:
            mu3 = default_mu3(mu3_interval(0.0, 0.0, 0.0, m_ab, m_bc, m_ca))
            assert mu3 == 0.0 and math.copysign(1.0, mu3) == 1.0, (m_ab, m_bc, m_ca)

    def test_bound_past_one_is_empty(self):
        # Pair tables that sum to 1 + 7.5e-13, within PairDist's tolerance,
        # whose moments put lo at 1 + 1.5e-12 and hi at 1: lo - hi is within
        # the doubled slack, but mu3 stops at 1, where the ppp cell is
        # -1.9e-13. No mu3 in [-1, 1] makes a valid table, so it is empty.
        assert joint.Mu3Interval(1.0 + 1.5e-12, 1.0).empty and joint.Mu3Interval(-1.0, -1.0 - 1.5e-12).empty
        assert not joint.Mu3Interval(1.0 + VIOLATION_SLACK, 1.0).empty
        q = (1.0 + 7.5e-13) / 3.0
        m = moments_from_pairs(*(PairDist([0.0, q, q, q]) for _ in range(3)))
        moments = (m.m_a, m.m_b, m.m_c, m.m_ab, m.m_bc, m.m_ca)
        iv = mu3_interval(*moments)
        assert iv.lo > 1.0 + VIOLATION_SLACK and iv.hi == 1.0 and iv.empty
        assert not triple_from_moments(MomentSet3(*moments, 1.0)).valid


# a, b, c, ab, bc, ca of each cell of an (A, B, C) table, in C order.
_MOMENT_SIGNS = np.array([(a, b, c, a * b, b * c, c * a) for a, b, c in itertools.product((1, -1), repeat=3)])


def near_boundary_moments(rng, n, k_max=40, step=2.5e-13):
    """Asymmetric moments around the edge of existence: the six lower moments
    of a random joint, with <BC> bisected towards -1 or +1 to where lo = hi,
    then stepped by k * step for |k| <= k_max, so lo - hi runs past 1.6e-11
    and lands on the doubled slack at about one k per draw."""
    for _ in range(n):
        m_a, m_b, m_c, m_ab, inside, m_ca = (rng.dirichlet(np.ones(8)) @ _MOMENT_SIGNS).tolist()
        outside = 1.0 if rng.random() < 0.5 else -1.0

        def crossed(m_bc):
            iv = mu3_interval(m_a, m_b, m_c, m_ab, m_bc, m_ca)
            return iv.lo > iv.hi

        if not crossed(outside):
            continue
        while True:
            mid = 0.5 * (inside + outside)
            if mid in (inside, outside):
                break
            inside, outside = (inside, mid) if crossed(mid) else (mid, outside)
        for k in range(-k_max, k_max + 1):
            if abs(inside + k * step) <= 1.0:
                yield m_a, m_b, m_c, m_ab, inside + k * step, m_ca


def near_symmetric_moments(rng, n) -> list[list[float]]:
    """First moments within MARGINAL_TOL of 0, which move the interval off 0
    by ~1e-9, far more than its width here, and the symmetric sweep's pair
    moments, which put lo - hi within +-1.8e-11 of 0."""
    first = rng.uniform(-1e-9, 1e-9, (n, 3))
    pairs = -1.0 / 3.0 - rng.uniform(-3e-12, 3e-12, (n, 3))
    return np.hstack([first, pairs]).tolist()


def assert_valid_iff_exists(inputs) -> int:
    """At the default mu3, and at the interval's midpoint, which no mu3 betters
    on the two cells that set lo and hi, the table is valid where the interval
    is not empty and has a negative cell where it is. Inputs whose lo - hi is
    within 1e-15 of the doubled slack, where rounding alone decides, are
    skipped and counted."""
    skipped = 0
    for moments in inputs:
        iv = mu3_interval(*moments)
        if abs(iv.lo - iv.hi - 2.0 * VIOLATION_SLACK) <= 1e-15:
            skipped += 1
            continue
        for mu3 in (default_mu3(iv), iv.midpoint):
            t = triple_from_moments(MomentSet3(*moments, mu3))
            assert t.valid == (not iv.empty) == (not t.negative_cells()), (moments, mu3, iv)
    print(f"{skipped} inputs skipped in the rounding band")
    return skipped


class TestValidIffExists:
    def test_asymmetric_near_the_boundary(self, rng):
        inputs = list(near_boundary_moments(rng, 300))
        assert len(inputs) > 10_000
        assert assert_valid_iff_exists(inputs) <= 300

    def test_near_symmetric(self, rng):
        assert assert_valid_iff_exists(near_symmetric_moments(rng, 20_000)) <= 10


def exact_mu3_interval(m_a, m_b, m_c, m_ab, m_bc, m_ca) -> tuple[Fraction, Fraction]:
    """mu3_interval over Fractions, from the module docstring's cell formula
    q(a, b, c) = (t + abc <ABC>) / 8 with |<ABC>| <= 1: a cell with abc = +1
    bounds <ABC> from below, one with abc = -1 from above."""
    m_a, m_b, m_c, m_ab, m_bc, m_ca = map(Fraction, (m_a, m_b, m_c, m_ab, m_bc, m_ca))
    lo, hi = Fraction(-1), Fraction(1)
    for a, b, c in itertools.product((1, -1), repeat=3):
        t = 1 + a * m_a + b * m_b + c * m_c + a * b * m_ab + b * c * m_bc + c * a * m_ca
        if a * b * c == 1:
            lo = max(lo, -t)
        else:
            hi = min(hi, t)
    return lo, hi


def exact_bc_interval(m_a, m_b, m_c, m_ab, m_ca) -> tuple[Fraction, Fraction]:
    """_bc_interval over Fractions, as the shadow on the <BC> axis of the
    polygon of (<BC>, <ABC>) where every cell of the module docstring's
    formula is nonnegative and both moments lie in [-1, 1]: the least and
    greatest <BC> of its vertices, each where two of its edge lines meet."""
    m_a, m_b, m_c, m_ab, m_ca = map(Fraction, (m_a, m_b, m_c, m_ab, m_ca))
    # Each edge is k + u <BC> + v <ABC> >= 0.
    lines = [(1 + a * m_a + b * m_b + c * m_c + a * b * m_ab + c * a * m_ca, b * c, a * b * c)
             for a, b, c in itertools.product((1, -1), repeat=3)]
    lines += [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1)]
    xs = []
    for (k1, u1, v1), (k2, u2, v2) in itertools.combinations(lines, 2):
        if det := u1 * v2 - u2 * v1:
            x, y = (k2 * v1 - k1 * v2) / det, (k1 * u2 - k2 * u1) / det
            if all(k + u * x + v * y >= 0 for k, u, v in lines):
                xs.append(x)
    return min(xs), max(xs)


def dyadic(x: float) -> float:
    """x rounded to a multiple of 2^-44. A cell's t then needs at most 47
    bits, so the float routes compute it exactly and must match the
    Fraction routes bit for bit."""
    return round(x * 2.0 ** 44) * 2.0 ** -44


def valid_iff_exists_inputs(rng, draws: int, symmetric: int) -> list[list[float]]:
    """Fewer of TestValidIffExists's two families of inputs around the edge
    of existence, each moment on the dyadic grid."""
    inputs = [*near_boundary_moments(rng, draws), *near_symmetric_moments(rng, symmetric)]
    return [[dyadic(m) for m in moments] for moments in inputs]


class TestExactIntervals:
    def test_mu3_interval(self, rng):
        slack = Fraction(VIOLATION_SLACK)
        empty, near = set(), 0
        for moments in valid_iff_exists_inputs(rng, 30, 2000):
            iv = mu3_interval(*moments)
            lo, hi = exact_mu3_interval(*moments)
            assert (iv.lo, iv.hi) == (lo, hi), moments
            assert iv.empty == (lo > hi + 2 * slack or max(lo, -hi) > 1 + slack), moments
            empty.add(iv.empty)
            near += abs(lo - hi - 2 * slack) < 1e-13
        assert empty == {False, True} and near > 10

    def test_bc_interval(self, rng):
        # At an end of the <BC> range inside (-1, 1) the mu3 interval is one point.
        for m_a, m_b, m_c, m_ab, _, m_ca in valid_iff_exists_inputs(rng, 10, 0)[::10]:
            lo, hi = exact_bc_interval(m_a, m_b, m_c, m_ab, m_ca)
            assert joint._bc_interval(m_a, m_b, m_c, m_ab, m_ca) == (lo, hi)
            for m_bc in {lo, hi} - {-1, 1}:
                mu3_lo, mu3_hi = exact_mu3_interval(m_a, m_b, m_c, m_ab, m_bc, m_ca)
                assert mu3_lo == mu3_hi


class TestExistenceCheck:
    def test_contradictory_moments(self):
        res = existence_check_3(0, 0, 0, 1, -1, 1, symmetric=True)
        assert not res.exists
        assert res.verdicts["abs_plus"].lhs == pytest.approx(3.0)
        assert not res.verdicts["abs_plus"].satisfied
        assert res.verdicts["abs_minus"].satisfied

    def test_zero_moments(self):
        assert existence_check_3(0, 0, 0, 0, 0, 0, symmetric=True).exists

    def test_qm_chain_infeasible(self):
        # coplanar chain a -> b -> c at pi/8 steps: no third-order joint
        x1 = math.cos(math.pi / 8)
        x2 = math.cos(math.pi / 4)
        res = existence_check_3(0, 0, 0, x1, x1, x2, symmetric=True)
        assert not res.exists
        assert not res.verdicts["abs_minus"].satisfied
        assert not grid_oracle_exists(x1, x1, x2)

    def test_mild_correlations_feasible(self):
        res = existence_check_3(0, 0, 0, 0.3, 0.3, 0.2, symmetric=True)
        assert res.exists
        assert grid_oracle_exists(0.3, 0.3, 0.2)

    def test_symmetric_flag_validation(self):
        with pytest.raises(InvalidInputError):
            existence_check_3(0.5, 0, 0, 0, 0, 0, symmetric=True)

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("first", [(math.nan, 0, 0), (0, math.nan, 0), (0, 0, 5.0)],
                             ids=["nan_a", "nan_b", "5_c"])
    def test_rejects_bad_first_moments(self, first, symmetric):
        with pytest.raises(InvalidInputError, match="outside"):
            existence_check_3(*first, 0.1, 0.1, 0.1, symmetric=symmetric)

    def test_agrees_with_interval_and_grid(self, rng):
        for _ in range(500):
            m_ab, m_bc, m_ca = rng.uniform(-1, 1, 3)
            check = existence_check_3(0, 0, 0, m_ab, m_bc, m_ca, symmetric=True).exists
            interval = not mu3_interval(0, 0, 0, m_ab, m_bc, m_ca).empty
            assert check == interval


class TestQmTriple:
    def test_orthogonal_uniform(self):
        a = Direction(1, 0, 0)
        b = Direction(0, 1, 0)
        c = Direction(0, 0, 1)
        t = qm_triple(a, b, c)
        assert np.allclose(t.cells, 0.125, atol=1e-15)
        assert t.valid

    def test_negative_entry_at_pi_over_8(self):
        a = Direction.from_angle(0.0)
        b = Direction.from_angle(math.pi / 8)
        c = Direction.from_angle(math.pi / 4)
        t = qm_triple(a, b, c)
        expected = (1 - 2 * math.cos(math.pi / 8) + math.cos(math.pi / 4)) / 8
        assert t.prob(1, -1, 1) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.0178, abs=5e-4)
        assert not t.valid
        # the covariance inequality flags the same configuration
        lhs = abs(a.dot(b) - c.dot(a)) + b.dot(c)
        assert lhs == pytest.approx(2 * math.cos(math.pi / 8) - math.cos(math.pi / 4), abs=1e-12)
        assert lhs > 1

    def test_coincident_directions(self):
        a = Direction.from_angle(0.0)
        c = Direction.from_angle(1.1)
        t = qm_triple(a, a, c)
        for delta in (1, -1):
            assert t.prob(1, -1, delta) == pytest.approx(0.0, abs=1e-12)
            assert t.prob(-1, 1, delta) == pytest.approx(0.0, abs=1e-12)

    def test_marginalization(self, rng):
        for _ in range(1000):
            a, b, c = (random_direction(rng) for _ in range(3))
            t = qm_triple(a, b, c)
            assert cell_dev(marginal(t, 0, 1), local_pair_dist(a, b)) < 1e-12
            assert cell_dev(marginal(t, 1, 2), local_pair_dist(b, c)) < 1e-12
            assert cell_dev(marginal(t, 0, 2), local_pair_dist(a, c)) < 1e-12


def pair_from_cov(c):
    return PairDist(0.25 * np.array([[1 + c, 1 - c], [1 - c, 1 + c]]))


CHSH_PAIRS = ("AB", "AC", "DB", "DC")
TSIRELSON_COVS = dict(zip(CHSH_PAIRS, math.sqrt(0.5) * np.array([-1, 1, -1, -1])))


def biased_product(m_a, m_b, m_c, m_d) -> QuadDist:
    """Independent variables with the given first moments."""
    ps = [np.array([1 + m, 1 - m]) / 2 for m in (m_a, m_b, m_c, m_d)]
    return QuadDist(np.einsum("i,j,k,l->ijkl", *ps))


@st.composite
def asymmetric_quads(draw):
    """Consistent CHSH pair tables with generally nonzero first moments: the
    marginals of a random 16-cell joint (always feasible), or the Tsirelson
    singlet tables, at weight 1/2 or more, mixed with a biased product joint
    (infeasible for about a third of these mixes)."""
    if draw(st.booleans()):
        cells = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16)))
        assume(cells.sum() > 1e-3)
        joint4 = QuadDist((cells / cells.sum()).reshape(2, 2, 2, 2))
        return [marginal(joint4, *CHSH_AXES[k]) for k in CHSH_PAIRS]
    w = draw(st.floats(0.5, 1.0))
    product = biased_product(*(draw(st.floats(-1.0, 1.0)) for _ in range(4)))
    return [
        PairDist([w * x + (1 - w) * y
                  for x, y in zip(pair_from_cov(TSIRELSON_COVS[k]).cells, marginal(product, *CHSH_AXES[k]).cells)])
        for k in CHSH_PAIRS
    ]


_CHSH_SIGNS = ((-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1))


def quad_from_cells(cells) -> list[PairDist]:
    """The CHSH pair tables of the joint with these 16 (A, B, C, D) weights."""
    joint4 = QuadDist((cells / cells.sum()).reshape(2, 2, 2, 2))
    return [marginal(joint4, *CHSH_AXES[k]) for k in CHSH_PAIRS]


@st.composite
def boundary_quads(draw):
    """Feasible CHSH pair tables on the edge of the feasible set: one
    deterministic assignment (three zero-probability (B, C) cells), a mixture
    of the deterministic assignments on one CHSH facet (largest lhs exactly
    2), a joint with B = +-A (the a == +-b limit, c_ab = +-1), or symmetric
    tables just past the facet, within the slack the verdict allows."""
    cells = np.zeros(16)
    grid = list(itertools.product((1, -1), repeat=4))
    kind = draw(st.sampled_from(["deterministic", "facet", "b_is_pm_a", "slack"]))
    if kind == "slack":
        cs = [draw(st.floats(0.0, 1.0)) for _ in range(3)]
        cs.append(sum(cs) - 2.0 - VIOLATION_SLACK)  # minus_dc lhs = 2 + slack
        assume(cs[3] >= -1.0)
        tables = [pair_from_cov(c) for c in cs]
        verdicts = _chsh_family_verdicts(*(covariance(t) for t in tables))
        assume(all(v.satisfied for v in verdicts.values()))  # rounding can push lhs past the slack
        return tables
    if kind == "deterministic":
        cells[draw(st.integers(0, 15))] = 1.0
        return quad_from_cells(cells)
    if kind == "facet":
        # Every deterministic assignment gives each CHSH expression +-2.
        signs = draw(st.sampled_from(_CHSH_SIGNS))
        keep = [i for i, (a, b, c, d) in enumerate(grid)
                if np.dot(signs, (a * b, a * c, d * b, d * c)) == 2]
    else:
        s = draw(st.sampled_from((1, -1)))
        keep = [i for i, (a, b, c, d) in enumerate(grid) if b == s * a]
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=len(keep), max_size=len(keep)))
    assume(sum(weights) > 1e-3)
    cells[keep] = weights
    return quad_from_cells(cells)


def assert_valid_witness(witness: QuadDist, tables) -> None:
    assert min(witness.cells) >= -joint.QUAD_TOL
    for key, table in zip(CHSH_PAIRS, tables):
        assert cell_dev(marginal(witness, *CHSH_AXES[key]), table) < 1e-9


class TestQuadFeasibility:
    def test_uniform_feasible(self):
        u = PairDist(np.full((2, 2), 0.25))
        res = quad_feasibility(u, u, u, u)
        assert res.feasible and res.failed is None
        assert res.witness is not None
        for pair in ("AB", "AC", "DB", "DC"):
            assert np.allclose(marginal(res.witness, *CHSH_AXES[pair]).cells, 0.25, atol=1e-9)

    def test_qm_tsirelson_infeasible(self):
        s = math.sqrt(2) / 2
        res = quad_feasibility(
            pair_from_cov(-s), pair_from_cov(s), pair_from_cov(-s), pair_from_cov(-s)
        )
        assert not res.feasible
        assert res.failed is not None
        assert max(v.lhs for v in res.verdicts.values()) == pytest.approx(
            2 * math.sqrt(2), abs=1e-12
        )

    def test_small_covariances_feasible(self, rng):
        for _ in range(20):
            cs = rng.uniform(-0.25, 0.25, 4)
            res = quad_feasibility(*(pair_from_cov(c) for c in cs))
            assert res.feasible
            witness = res.witness
            tables = dict(zip(("AB", "AC", "DB", "DC"), (pair_from_cov(c) for c in cs)))
            for pair, table in tables.items():
                assert cell_dev(marginal(witness, *CHSH_AXES[pair]), table) < 1e-9

    def test_marginal_mismatch(self):
        biased = PairDist(np.array([[0.4, 0.2], [0.2, 0.2]]))
        u = PairDist(np.full((2, 2), 0.25))
        with pytest.raises(InconsistentMarginalsError):
            quad_feasibility(biased, u, u, u)

    @settings(max_examples=150, deadline=None)
    @given(asymmetric_quads())
    def test_fine_consistency_asymmetric(self, tables):
        # Glued witness == LP == Fine's eight inequalities on inputs with
        # nonzero first moments
        verdicts = _chsh_family_verdicts(*(covariance(t) for t in tables))
        # Within 1e-9 of the bound the two routes' tolerances (the verdicts'
        # 1e-12 slack, the LP's LP_TOL on the moments) may decide differently,
        # so the verdict is not compared there.
        assume(abs(max(v.lhs for v in verdicts.values()) - 2.0) > 1e-9)
        fine = all(v.satisfied for v in verdicts.values())
        res = quad_feasibility(*tables)
        lp = lp_witness(*tables)
        assert res.feasible == fine
        assert (lp is not None) == fine
        for witness in (res.witness, lp):
            if witness is not None:
                assert_valid_witness(witness, tables)

    @settings(max_examples=150, deadline=None)
    @given(boundary_quads())
    def test_boundary_witness(self, tables):
        res = quad_feasibility(*tables)
        assert res.feasible
        assert_valid_witness(res.witness, tables)

    def test_solver_disagreement_raises(self, monkeypatch):
        # The inequalities hold on this asymmetric input, so an empty <BC>
        # range for the glued witness contradicts Fine's theorem.
        product = biased_product(0.3, -0.5, 0.2, 0.7)
        tables = [marginal(product, *CHSH_AXES[k]) for k in CHSH_PAIRS]
        monkeypatch.setattr(joint, "_bc_interval", lambda *moments: (1.0, -1.0))
        with pytest.raises(RuntimeError, match="Fine"):
            quad_feasibility(*tables)

    def test_fine_consistency(self, rng):
        # Glued witness == LP == conjunction of the eight covariance inequalities
        for _ in range(100):
            cs = rng.uniform(-1, 1, 4)
            tables = [pair_from_cov(c) for c in cs]
            res = quad_feasibility(*tables)
            lp = lp_witness(*tables)
            all_hold = all(v.satisfied for v in _chsh_family_verdicts(*cs).values())
            assert res.feasible == all_hold
            assert (lp is not None) == all_hold
            for witness in (res.witness, lp):
                if witness is not None:
                    assert_valid_witness(witness, tables)
