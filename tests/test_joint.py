import itertools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from eprbell import (
    Direction,
    InconsistentMarginalsError,
    InvalidInputError,
    MomentSet3,
    PairDist,
    QuadDist,
    QuasiDistributionError,
    TripleDist,
    UndefinedConditionalError,
    chsh_family_verdicts,
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
    triple_conditional,
    triple_from_moments,
)
from eprbell import joint
from eprbell.inequalities import VIOLATION_SLACK

from conftest import CHSH_AXES, CONTRA_AB, CONTRA_BC, CONTRA_CA, lp_witness, random_direction


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
        assert t.table is t.table and not t.table.flags.writeable
        assert t.table.shape == (2,) * dims and t.table.ravel().tolist() == list(t.cells)

    @pytest.mark.parametrize("dims", [3, 4])
    def test_prob_and_negative_cells(self, dims):
        # <AB> = <BC> = <CA> = -1; at four variables, times an independent
        # uniform D.
        t = triple_from_moments(MomentSet3(m_ab=-1.0, m_bc=-1.0, m_ca=-1.0))
        negative = [((1, 1, 1), -0.25), ((-1, -1, -1), -0.25)]
        if dims == 4:
            t = QuadDist([v / 2 for v in t.cells for _ in range(2)])
            negative = [(cell + (d,), v / 2) for cell, v in negative for d in (1, -1)]
        for cell in itertools.product((1, -1), repeat=dims):
            assert t.prob(*cell) == t.table[tuple((1 - s) // 2 for s in cell)]
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
        assert np.allclose(t.table, 0.125, atol=1e-15)
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
            assert np.max(np.abs(marginal(t, 0, 1).table - p_ab.table)) < 1e-12
            assert np.max(np.abs(marginal(t, 1, 2).table - p_bc.table)) < 1e-12
            # marginal over B gives the (A, C) table; p_ca is (C, A)
            assert np.max(
                np.abs(marginal(t, 0, 2).table - p_ca.table.T)
            ) < 1e-12


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
        assert iv.lo > iv.hi and not iv.empty and iv.contains(iv.midpoint)
        assert triple_from_moments(MomentSet3(*moments, 0.5 * (iv.lo + iv.hi))).valid
        # The slack is the verdicts' own, doubled as lo - hi is twice an lhs excess.
        assert joint.Mu3Interval(2.0 * VIOLATION_SLACK, 0.0).empty is False
        assert joint.Mu3Interval(math.nextafter(2.0 * VIOLATION_SLACK, 1.0), 0.0).empty is True

    def test_half_correlations(self):
        iv = mu3_interval(0, 0, 0, 0.5, 0.5, 0.5)
        assert not iv.empty and iv.contains(0.0)
        assert grid_oracle_exists(0.5, 0.5, 0.5)

    def test_matches_grid_oracle(self, rng):
        for _ in range(300):
            m_ab, m_bc, m_ca = rng.uniform(-1, 1, 3)
            iv = mu3_interval(0, 0, 0, m_ab, m_bc, m_ca)
            assert (not iv.empty) == grid_oracle_exists(m_ab, m_bc, m_ca)

    def test_default_mu3(self):
        iv = mu3_interval(0.2, 0.1, 0.0, 0.3, 0.2, 0.1)
        assert default_mu3(iv, symmetric=False) == pytest.approx(0.5 * (iv.lo + iv.hi))
        assert default_mu3(iv, symmetric=True) == 0.0
        assert default_mu3(mu3_interval(0, 0, 0, 1, -1, 1), symmetric=False) == 0.0


class TestExistenceCheck:
    def test_contradictory_moments(self):
        res = existence_check_3(0, 0, 0, 1, -1, 1, symmetric=True)
        assert not res.exists and res.exact
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
        assert np.allclose(t.table, 0.125, atol=1e-15)
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
            assert np.max(
                np.abs(marginal(t, 0, 1).table - local_pair_dist(a, b).table)
            ) < 1e-12
            assert np.max(
                np.abs(marginal(t, 1, 2).table - local_pair_dist(b, c).table)
            ) < 1e-12
            assert np.max(
                np.abs(marginal(t, 0, 2).table - local_pair_dist(a, c).table)
            ) < 1e-12


class TestTripleConditional:
    def test_uniform(self):
        t = triple_from_moments(MomentSet3())
        cond = triple_conditional(t, "C", 1)
        assert np.allclose(cond.table, 0.25, atol=1e-12)

    def test_orthogonal_qm(self):
        t = qm_triple(Direction(1, 0, 0), Direction(0, 1, 0), Direction(0, 0, 1))
        for var in ("A", "B", "C"):
            for value in (1, -1):
                assert np.allclose(triple_conditional(t, var, value).table, 0.25)

    def test_quasi_distribution_rejected(self):
        t = qm_triple(
            Direction.from_angle(0.0),
            Direction.from_angle(math.pi / 8),
            Direction.from_angle(math.pi / 4),
        )
        with pytest.raises(QuasiDistributionError):
            triple_conditional(t, "C", 1)

    def test_zero_marginal(self):
        # A and C perfectly anti-correlated leaves P[C=1, A=1] slab summing fine
        # but a fully concentrated variable has a zero-probability side
        t = triple_from_moments(MomentSet3(m_a=1.0))
        with pytest.raises(UndefinedConditionalError):
            triple_conditional(t, "A", -1)


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
        PairDist(w * pair_from_cov(TSIRELSON_COVS[k]).table
                 + (1 - w) * marginal(product, *CHSH_AXES[k]).table)
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
        verdicts = chsh_family_verdicts(*(covariance(t) for t in tables))
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
    assert witness.table.min() >= -joint.QUAD_TOL
    for key, table in zip(CHSH_PAIRS, tables):
        assert np.max(np.abs(marginal(witness, *CHSH_AXES[key]).table - table.table)) < 1e-9


class TestQuadFeasibility:
    def test_uniform_feasible(self):
        u = PairDist(np.full((2, 2), 0.25))
        res = quad_feasibility(u, u, u, u)
        assert res.feasible and res.failed is None
        assert res.witness is not None
        for pair in ("AB", "AC", "DB", "DC"):
            assert np.allclose(marginal(res.witness, *CHSH_AXES[pair]).table, 0.25, atol=1e-9)

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
                assert np.max(
                    np.abs(marginal(witness, *CHSH_AXES[pair]).table - table.table)
                ) < 1e-9

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
        verdicts = chsh_family_verdicts(*(covariance(t) for t in tables))
        # Within 1e-9 of the bound the two routes' tolerances (1e-12 slack,
        # 1e-10 LP feasibility) decide differently, so the verdict is not compared there.
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
            all_hold = all(v.satisfied for v in chsh_family_verdicts(*cs).values())
            assert res.feasible == all_hold
            assert (lp is not None) == all_hold
            for witness in (res.witness, lp):
                if witness is not None:
                    assert_valid_witness(witness, tables)
