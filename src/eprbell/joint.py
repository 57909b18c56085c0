"""Third- and fourth-order joint distributions compatible with given pairwise
marginals.

Any third-order joint over three binary variables is determined by its seven
moments:

    q(a, b, c) = (1 + a<A> + b<B> + c<C> + ab<AB> + bc<BC> + ca<CA> + abc<ABC>) / 8

With the six lower moments fixed by the pair tables, existence of a valid
(nonnegative) joint reduces to a feasible interval for the free third moment
mu3 = <ABC>. Negative entries are kept and reported, never clamped: a signed
table summing to one certifies that no valid joint exists with the given
marginals.

For four variables in the CHSH pair pattern (A,B), (A,C), (D,B), (D,C),
existence is decided by the eight CHSH covariance inequalities, which are
necessary and sufficient for consistent pair tables (Fine's theorem). When
they hold, the witness follows the theorem's constructive proof: the 4-cycle
A-B-D-C lacks the edge B-C, so <BC> is chosen where both triangles (A, B, C)
and (D, B, C) admit a valid joint, each triangle is built at the midpoint of
its mu3 interval, and the two are glued on (B, C):

    q(a, b, c, d) = q_ABC(a, b, c) q_DBC(d, b, c) / p(b, c)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    InconsistentMarginalsError,
    InvalidInputError,
    QuasiDistributionError,
    UndefinedConditionalError,
)
from .geometry import Direction, clamp_unit
from .inequalities import VIOLATION_SLACK, InequalityVerdict, _check_unit, bell_pair_inequalities
from .spincore import SIGNS, PairDist, SignedTable, _idx, covariance

TRIPLE_TOL = 1e-12
QUAD_TOL = 1e-9
MARGINAL_TOL = 1e-9


@dataclass(frozen=True)
class MomentSet3:
    """First, second and third moments of three binary variables (A, B, C)."""

    m_a: float = 0.0
    m_b: float = 0.0
    m_c: float = 0.0
    m_ab: float = 0.0
    m_bc: float = 0.0
    m_ca: float = 0.0
    m_abc: float = 0.0

    def __post_init__(self):
        _check_unit(self, "moment")


# Cells of the (A, B, C) tables in C order, index 0 = +1.
_SIGN_GRID = tuple(itertools.product(SIGNS, repeat=3))
_ABC = tuple(a * b * c for a, b, c in _SIGN_GRID)
_BC = tuple(b * c for _, b, c in _SIGN_GRID)


class TripleDist(SignedTable):
    DIMS, TOL = 3, TRIPLE_TOL


class QuadDist(SignedTable):
    DIMS, TOL = 4, QUAD_TOL


def _pair_marginal(cells, dims: int, first: int, second: int) -> list[float]:
    """Cells of the (first, second) pair table of a C-order table."""
    m = [0.0] * 4
    for index, v in zip(itertools.product((0, 1), repeat=dims), cells):
        m[2 * index[first] + index[second]] += v
    return m


def marginal(table: SignedTable, first: int, second: int) -> PairDist:
    """The pair table of axes ``first`` and ``second`` (0 = A, 1 = B, ...),
    in that order. It is defined even when entries are negative: the pair
    marginals of the moment construction are always valid tables."""
    if first == second or not {first, second} <= set(range(table.DIMS)):
        raise InvalidInputError(f"axes must be two of 0..{table.DIMS - 1}, got {first!r}, {second!r}")
    return PairDist(_pair_marginal(table.cells, table.DIMS, first, second))


@dataclass(frozen=True)
class Mu3Interval:
    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        # The verdicts' slack, doubled: in the symmetric case lo - hi is twice
        # an inequality's lhs excess. Within it the midpoint table has no cell
        # below -VIOLATION_SLACK / 8, so TripleDist.valid accepts it.
        return self.lo > self.hi + 2.0 * VIOLATION_SLACK

    def contains(self, v: float) -> bool:
        # Half the slack of empty on each side: some v is contained iff the
        # interval is not empty.
        return self.lo - VIOLATION_SLACK <= v <= self.hi + VIOLATION_SLACK

    @property
    def midpoint(self) -> float:
        """The middle, clamped to [-1, 1]: rounding can put a bound an ulp
        outside."""
        return clamp_unit(0.5 * (self.lo + self.hi))


def _affine_part(m_a, m_b, m_c, m_ab, m_bc, m_ca) -> list[float]:
    """t(a,b,c) = 1 + a<A> + b<B> + c<C> + ab<AB> + bc<BC> + ca<CA>, per cell."""
    return [
        1.0 + a * m_a + b * m_b + c * m_c + a * b * m_ab + b * c * m_bc + c * a * m_ca
        for a, b, c in _SIGN_GRID
    ]


def triple_from_moments(m: MomentSet3) -> TripleDist:
    """Build the unique signed table with the given seven moments."""
    t = _affine_part(m.m_a, m.m_b, m.m_c, m.m_ab, m.m_bc, m.m_ca)
    return TripleDist([(v + abc * m.m_abc) / 8.0 for v, abc in zip(t, _ABC)])


def _pair_moments(p: PairDist) -> tuple[float, float, float]:
    """(first moment, second moment, pair moment) of a 2x2 table."""
    pp, pm, mp, mm = p.cells
    return (pp + pm) - (mp + mm), (pp + mp) - (pm + mm), covariance(p)


def _agreed_moments(**pairs: tuple[float, float]) -> list[float]:
    """The mean of each variable's two first moments, read from two pair
    tables, clamped to [-1, 1]. Raises InconsistentMarginalsError when they
    differ by more than MARGINAL_TOL."""
    for var, (u, v) in pairs.items():
        if abs(u - v) > MARGINAL_TOL:
            raise InconsistentMarginalsError(
                f"marginal of {var} differs across pair tables by {abs(u - v):.3g}"
            )
    return [clamp_unit(0.5 * (u + v)) for u, v in pairs.values()]


@dataclass(frozen=True)
class PairMoments:
    """Six moments extracted from the pair tables (A,B), (B,C), (C,A)."""

    m_a: float
    m_b: float
    m_c: float
    m_ab: float
    m_bc: float
    m_ca: float


def moments_from_pairs(p_ab: PairDist, p_bc: PairDist, p_ca: PairDist) -> PairMoments:
    """Extract the first six moments from the three pair tables.

    Raises InconsistentMarginalsError when a shared single-variable marginal
    differs by more than MARGINAL_TOL across tables.
    """
    a1, b2, m_ab = _pair_moments(p_ab)
    b1, c2, m_bc = _pair_moments(p_bc)
    c1, a2, m_ca = _pair_moments(p_ca)
    # Rounding can put a moment of a valid table an ulp outside [-1, 1].
    return PairMoments(*_agreed_moments(A=(a1, a2), B=(b2, b1), C=(c2, c1)),
                       clamp_unit(m_ab), clamp_unit(m_bc), clamp_unit(m_ca))


def mu3_interval(m_a, m_b, m_c, m_ab, m_bc, m_ca) -> Mu3Interval:
    """Feasible range of the third moment <ABC> given the six lower moments.

    Cells with abc = +1 require mu3 >= -t(cell); cells with abc = -1 require
    mu3 <= t(cell). A valid third-order joint with these six moments exists
    iff the interval (intersected with [-1, 1]) is non-empty.
    """
    MomentSet3(m_a, m_b, m_c, m_ab, m_bc, m_ca)  # checks each moment
    t = _affine_part(m_a, m_b, m_c, m_ab, m_bc, m_ca)
    lo = max(-1.0, *(-v for v, abc in zip(t, _ABC) if abc == 1))
    hi = min(1.0, *(v for v, abc in zip(t, _ABC) if abc == -1))
    return Mu3Interval(lo, hi)


def default_mu3(interval: Mu3Interval, symmetric: bool) -> float:
    """Default third moment: 0 in the symmetric case; otherwise the midpoint
    of the feasible interval when non-empty, else 0."""
    if symmetric or interval.empty:
        return 0.0
    return interval.midpoint


@dataclass(frozen=True)
class ExistenceResult:
    exists: bool
    exact: bool  # True when the verdict is necessary and sufficient
    verdicts: dict[str, InequalityVerdict]


def existence_check_3(m_a, m_b, m_c, m_ab, m_bc, m_ca, symmetric: bool = False) -> ExistenceResult:
    """Evaluate the four pair-sum inequalities (and their two condensed
    absolute-value forms) on the second moments.

    The conjunction is necessary for a valid third-order joint; when
    ``symmetric`` is set (all odd moments zero) it is also sufficient.
    """
    MomentSet3(m_a, m_b, m_c, m_ab, m_bc, m_ca)  # checks each moment
    if symmetric and max(abs(m_a), abs(m_b), abs(m_c)) > MARGINAL_TOL:
        raise InvalidInputError("symmetric flag set but first moments are non-zero")
    abs_plus, abs_minus = bell_pair_inequalities(m_ab, m_ca, m_bc)
    verdicts = {
        "sum": InequalityVerdict(-(m_ab + m_bc + m_ca), 1.0),
        "flip_a": InequalityVerdict(-(m_ab - m_bc - m_ca), 1.0),
        "flip_b": InequalityVerdict(-(-m_ab + m_bc - m_ca), 1.0),
        "flip_c": InequalityVerdict(-(-m_ab - m_bc + m_ca), 1.0),
        "abs_plus": abs_plus,
        "abs_minus": abs_minus,
    }
    exists = all(v.satisfied for v in verdicts.values())
    return ExistenceResult(exists=exists, exact=bool(symmetric), verdicts=verdicts)


def qm_triple(a: Direction, b: Direction, c: Direction) -> TripleDist:
    """The unique sign-symmetric signed table whose pair marginals are the
    single-device tables for (a, b), (b, c), (c, a)."""
    return triple_from_moments(MomentSet3(m_ab=a.cos_to(b), m_bc=b.cos_to(c), m_ca=c.cos_to(a)))


def triple_conditional(t: TripleDist, given: str, value: int) -> PairDist:
    """Pair table for the remaining two variables conditioned on one.

    Raises QuasiDistributionError when the triple has negative entries (the
    unconditional pair marginals still exist, but this conditional does not).
    """
    if not t.valid:
        raise QuasiDistributionError(
            f"cannot condition: triple table has negative entries {t.negative_cells()}"
        )
    axis = {"A": 0, "B": 1, "C": 2}.get(given)
    if axis is None:
        raise InvalidInputError(f"given must be 'A', 'B' or 'C', got {given!r}")
    k = _idx(value)
    slab = [v for index, v in zip(itertools.product((0, 1), repeat=3), t.cells) if index[axis] == k]
    norm = math.fsum(slab)
    if norm <= TRIPLE_TOL:
        raise UndefinedConditionalError(f"P[{given}={value}] = {norm} is not positive")
    return PairDist([v / norm for v in slab])


# --- fourth-order feasibility (CHSH pair pattern) ---


def chsh_family_verdicts(c_ab, c_ac, c_db, c_dc) -> dict[str, InequalityVerdict]:
    """The four absolute-value covariance conditions (eight one-sided
    inequalities) necessary for a fourth-order joint over the CHSH pattern:
    |s1*c_ab + s2*c_ac + s3*c_db + s4*c_dc| <= 2 over all sign choices with
    an odd number of minus signs."""
    return {
        "minus_ab": InequalityVerdict(abs(-c_ab + c_ac + c_db + c_dc), 2.0),
        "minus_ac": InequalityVerdict(abs(c_ab - c_ac + c_db + c_dc), 2.0),
        "minus_db": InequalityVerdict(abs(c_ab + c_ac - c_db + c_dc), 2.0),
        "minus_dc": InequalityVerdict(abs(c_ab + c_ac + c_db - c_dc), 2.0),
    }


@dataclass(frozen=True)
class QuadFeasibility:
    feasible: bool
    witness: Optional[QuadDist]
    verdicts: dict[str, InequalityVerdict]
    failed: Optional[str]  # name of a violated inequality, when any


def _bc_interval(m_a, m_b, m_c, m_ab, m_ca) -> tuple[float, float]:
    """Range (lo, hi) of <BC> over which the triangle (A, B, C) with the
    other five moments has a valid joint; empty when lo > hi.

    Each cell value t = alpha + bc <BC> is affine in <BC>, and the mu3
    interval is non-empty iff t_i + t_j >= 0 for every abc = +1 cell i and
    abc = -1 cell j, and t >= -1 on every cell (its [-1, 1] clauses).
    Eliminating mu3 this way leaves clauses const + coef <BC> >= 0. Those with
    coef = 0 pair cells that differ in b or c alone; they say an (A, B) or
    (A, C) pair-table entry is nonnegative, which the input tables ensure.
    """
    alpha = _affine_part(m_a, m_b, m_c, m_ab, 0.0, m_ca)
    cells = list(zip(alpha, _BC, _ABC))
    clauses = [(u + v, bu + bv) for u, bu, su in cells if su == 1 for v, bv, sv in cells if sv == -1]
    clauses += [(u + 1.0, bu) for u, bu, _ in cells]
    lo = max(-1.0, *(-const / coef for const, coef in clauses if coef > 0))
    hi = min(1.0, *(const / -coef for const, coef in clauses if coef < 0))
    return lo, hi


def _glued_witness(m_a, m_b, m_c, m_d, c_ab, c_ac, c_db, c_dc) -> Optional[QuadDist]:
    """A valid joint over (A, B, C, D) with the given first moments and CHSH
    pair moments, glued from the triangles (A, B, C) and (D, B, C) on the
    midpoint of their common <BC> range; None when that range is empty."""
    lo_a, hi_a = _bc_interval(m_a, m_b, m_c, c_ab, c_ac)
    lo_d, hi_d = _bc_interval(m_d, m_b, m_c, c_db, c_dc)
    # lo - hi equals the largest CHSH lhs minus 2, so an input inside the
    # verdict's slack still gets a witness; the doubled slack of empty
    # absorbs the rounding by which the two routes differ.
    bc_range = Mu3Interval(max(lo_a, lo_d), min(hi_a, hi_d))
    if bc_range.empty:
        return None
    m_bc = bc_range.midpoint
    triangles = []
    for m_x, m_xb, m_xc in ((m_a, c_ab, c_ac), (m_d, c_db, c_dc)):
        mu3 = mu3_interval(m_x, m_b, m_c, m_xb, m_bc, m_xc).midpoint
        moments = MomentSet3(m_x, m_b, m_c, m_xb, m_bc, m_xc, mu3)
        triangles.append(triple_from_moments(moments).cells)
    q_abc, q_dbc = triangles
    p_bc = _pair_marginal(q_abc, 3, 1, 2)
    q = []
    for a, b, c, d in itertools.product((0, 1), repeat=4):
        bc = 2 * b + c
        # A (B, C) cell of probability at most TRIPLE_TOL carries no mass;
        # dividing by it would only amplify rounding.
        v = q_abc[4 * a + bc] * q_dbc[4 * d + bc] / p_bc[bc] if p_bc[bc] > TRIPLE_TOL else 0.0
        q.append(0.0 if -QUAD_TOL <= v <= 0.0 else v)  # rounding and -0.0 only; larger negatives stay visible
    total = math.fsum(q)
    return QuadDist([v / total for v in q])


def quad_feasibility(
    p_ab: PairDist, p_ac: PairDist, p_db: PairDist, p_dc: PairDist
) -> QuadFeasibility:
    """Decide whether a valid joint over (A, B, C, D) exists with the four
    given pair tables; returns a witness table when feasible.

    The verdict is the eight CHSH covariance inequalities, which by Fine's
    theorem are necessary and sufficient once the shared single-variable
    marginals agree, whatever the first moments. An infeasible input is
    returned as such. A feasible one gets the glued witness of the theorem's
    constructive proof; an empty <BC> range there contradicts the theorem
    and raises RuntimeError.
    """
    a1, b1, c_ab = _pair_moments(p_ab)
    a2, c1, c_ac = _pair_moments(p_ac)
    d1, b2, c_db = _pair_moments(p_db)
    d2, c2, c_dc = _pair_moments(p_dc)
    m_a, m_b, m_c, m_d = _agreed_moments(A=(a1, a2), B=(b1, b2), C=(c1, c2), D=(d1, d2))

    verdicts = chsh_family_verdicts(c_ab, c_ac, c_db, c_dc)
    failed = next((k for k, v in verdicts.items() if not v.satisfied), None)
    if failed is not None:
        return QuadFeasibility(feasible=False, witness=None, verdicts=verdicts, failed=failed)

    witness = _glued_witness(m_a, m_b, m_c, m_d, *map(clamp_unit, (c_ab, c_ac, c_db, c_dc)))
    if witness is None:
        raise RuntimeError(
            "no <BC> admits both triangles although the eight CHSH "
            "inequalities hold, which contradicts Fine's theorem"
        )
    return QuadFeasibility(feasible=True, witness=witness, verdicts=verdicts, failed=None)

