"""Every public callable ends in a return or a typed error.

Each name of ``eprbell.__all__`` that can be called, and the two alternate
constructors, is called on drawn arguments and must return or raise
``EprBellError`` or ``TypeError``, never another exception such as an
``OverflowError`` or numpy's ``ValueError``. Numeric parameters draw from
edge values and wrong types; parameters that take a direction, a table, a
moment set or an interval get valid ones, since a wrong object type is
outside the contract. Sample counts stay at two blocks or fewer. Every
message of a typed error is bounded, whatever value it shows.
"""

import math
import time

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

import eprbell
from eprbell import (
    BLOCK_SIZE, CovarianceQuad, CovarianceTriple, Direction, EprBellError, InvalidDirectionError,
    InvalidInputError, MomentSet3, Mu3Interval, PairDist, QuadDist, TripleDist,
)
from eprbell import verify
from eprbell.errors import SHOWN_MAX_CHARS, shown
from eprbell.spincore import cell_keys

# Signed zeros, infinities, NaN, the least subnormal, a float near the top of
# the range, ints past it and past the 4,300 digits Python turns into text,
# bools, None, strings (one longer than a message shows) and tuples.
EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, 10**400, -10**400, 10**5000, -10**5000,
         True, False, None, "", "0.5", "9" * (SHOWN_MAX_CHARS + 1), (), (0.5, 0.5)]
NUMBER = st.sampled_from(EDGES + [0.25, 0.5, -1.0, 1.0, 0, 1, 2])
# A sample count: no int past the float range above zero (a huge n just runs
# on), and at most two blocks.
COUNT = st.sampled_from([v for v in EDGES if v not in (10**400, 10**5000)]
                        + [1, 2, BLOCK_SIZE + 1, 2 * BLOCK_SIZE])
# Longest message: a message shows at most three values, each through shown,
# beside its fixed text.
FIXED_TEXT = 200
MESSAGE_MAX_CHARS = 3 * SHOWN_MAX_CHARS + FIXED_TEXT
TEXT = st.sampled_from(["local", "singlet", "bell", "chsh", "first", "second", "", "x"])
UNIT = st.floats(-1.0, 1.0)

DIRECTION = st.builds(
    lambda z, phi: Direction(math.sqrt(1.0 - z * z) * math.cos(phi), math.sqrt(1.0 - z * z) * math.sin(phi), z),
    UNIT, st.floats(0.0, 2.0 * math.pi))


def weights(dims):
    """Valid cells of a table with ``dims`` axes: nonnegative, summing to 1."""
    return st.lists(st.floats(0.0, 1.0), min_size=1 << dims, max_size=1 << dims).filter(sum).map(
        lambda w: [x / math.fsum(w) for x in w])


def cells(dims):
    """A table constructor's argument: valid cells, NUMBERs of the right
    length or of a wrong one, or a single NUMBER."""
    n = 1 << dims
    return st.one_of(weights(dims), st.lists(NUMBER, min_size=n, max_size=n).map(tuple),
                     st.sampled_from([n - 1, n + 1]).flatmap(lambda k: st.lists(NUMBER, min_size=k, max_size=k)),
                     NUMBER)


PAIR = weights(2).map(PairDist)
TABLE = st.one_of(PAIR, weights(3).map(TripleDist), weights(4).map(QuadDist))
MAPPING = st.dictionaries(st.sampled_from([*cell_keys(2), "x"]), NUMBER, max_size=5)

# The argument strategies of each public callable, by position.
CALLS = {
    "CovarianceQuad": (CovarianceQuad, *[NUMBER] * 4),
    "CovarianceTriple": (CovarianceTriple, *[NUMBER] * 3),
    "Direction": (Direction, *[NUMBER] * 3),
    "Direction.from_angle": (Direction.from_angle, NUMBER),
    "EprBellError": (eprbell.EprBellError, NUMBER),
    "ExistenceResult": (eprbell.ExistenceResult, NUMBER, NUMBER),
    "InconsistentMarginalsError": (eprbell.InconsistentMarginalsError, NUMBER),
    "InequalityVerdict": (eprbell.InequalityVerdict, NUMBER, NUMBER),
    "InfoCurvePoint": (eprbell.InfoCurvePoint, *[NUMBER] * 3),
    "InvalidDirectionError": (eprbell.InvalidDirectionError, NUMBER),
    "InvalidGeometryError": (eprbell.InvalidGeometryError, NUMBER),
    "InvalidInputError": (eprbell.InvalidInputError, NUMBER),
    "MomentSet3": (MomentSet3, *[NUMBER] * 7),
    "Mu3Interval": (Mu3Interval, NUMBER, NUMBER),
    "PairDist": (PairDist, cells(2)),
    "PairDist.from_mapping": (PairDist.from_mapping, MAPPING),
    "PairMoments": (eprbell.PairMoments, *[NUMBER] * 6),
    "QuadDist": (QuadDist, cells(4)),
    "QuadFeasibility": (eprbell.QuadFeasibility, *[NUMBER] * 4),
    "ScanResult": (eprbell.ScanResult, *[NUMBER] * 7),
    "SimReport": (eprbell.SimReport, *[NUMBER] * 9),
    "TripleDist": (TripleDist, cells(3)),
    "apply_property_I": (eprbell.apply_property_I, PAIR),
    "bell_1964": (eprbell.bell_1964, st.builds(CovarianceTriple, UNIT, UNIT, UNIT)),
    "binary_entropy": (eprbell.binary_entropy, NUMBER),
    "block_rng": (eprbell.block_rng, NUMBER, NUMBER),
    "chsh": (eprbell.chsh, st.builds(CovarianceQuad, UNIT, UNIT, UNIT, UNIT)),
    "chsh_to_bell_reduction": (eprbell.chsh_to_bell_reduction, st.builds(CovarianceTriple, UNIT, UNIT, UNIT)),
    "conditional_entropy": (eprbell.conditional_entropy, DIRECTION, DIRECTION),
    "covariance": (eprbell.covariance, PAIR),
    "default_mu3": (eprbell.default_mu3, st.builds(Mu3Interval, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))),
    "existence_check_3": (eprbell.existence_check_3, *[NUMBER] * 7),
    "info_curve": (eprbell.info_curve, NUMBER),
    "local_pair_dist": (eprbell.local_pair_dist, DIRECTION, DIRECTION),
    "marginal": (eprbell.marginal, TABLE, NUMBER, NUMBER),
    "moments_from_pairs": (eprbell.moments_from_pairs, PAIR, PAIR, PAIR),
    "mu3_interval": (eprbell.mu3_interval, *[NUMBER] * 6),
    "mutual_information": (eprbell.mutual_information, PAIR),
    "product_rule_demo": (eprbell.product_rule_demo, DIRECTION, COUNT, NUMBER),
    "qm_bell_lhs": (eprbell.qm_bell_lhs, *[NUMBER] * 3),
    "qm_conditional": (eprbell.qm_conditional, DIRECTION, DIRECTION, NUMBER),
    "qm_marginal": (eprbell.qm_marginal, PAIR, TEXT),
    "qm_pair_dist": (eprbell.qm_pair_dist, DIRECTION, DIRECTION),
    "qm_triple": (eprbell.qm_triple, DIRECTION, DIRECTION, DIRECTION),
    "quad_feasibility": (eprbell.quad_feasibility, PAIR, PAIR, PAIR, PAIR),
    "simulate": (eprbell.simulate, DIRECTION, DIRECTION, COUNT, NUMBER, TEXT, NUMBER),
    "singlet_pair_probs": (eprbell.singlet_pair_probs, DIRECTION, DIRECTION),
    "triple_from_moments": (eprbell.triple_from_moments, st.builds(MomentSet3, *[UNIT] * 7)),
    "violation_scan": (eprbell.violation_scan, TEXT, NUMBER),
}


def test_every_public_callable_is_drawn():
    assert {name.split(".")[0] for name in CALLS} == set(eprbell.__all__) - {"BLOCK_SIZE"}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_public_callable_ends_in_typed_error(name):
    function, *parameters = CALLS[name]

    @settings(max_examples=40)
    @given(args=st.tuples(*parameters))
    def inner(args):
        try:
            function(*args)
        except EprBellError as exc:
            assert len(str(exc)) <= MESSAGE_MAX_CHARS
        except TypeError:
            pass

    inner()


A = Direction(1.0, 0.0, 0.0)
HUGE = 10**5000

# Calls that ended in an OverflowError or numpy's ValueError, or accepted a
# NaN (default_mu3 read the interval [nan, 0.5] as non-empty and returned -1),
# and calls on an int past Python's digit limit, whose message text raised
# ValueError, each now a typed error with the type a short bad value gets.
FOUND = {
    "Direction": (lambda: Direction(10**400, 0, 0), InvalidDirectionError),
    "from_angle": (lambda: Direction.from_angle(10**400), InvalidDirectionError),
    "qm_bell_lhs": (lambda: eprbell.qm_bell_lhs(0, 10**400, 0), InvalidInputError),
    "verdict_bound": (lambda: eprbell.InequalityVerdict(0.0, 10**400), InvalidInputError),
    "verdict_nan": (lambda: eprbell.InequalityVerdict(math.nan, 1.0), InvalidInputError),
    "interval_hi": (lambda: eprbell.default_mu3(Mu3Interval(0.0, 10**400)), InvalidInputError),
    "interval_nan": (lambda: eprbell.default_mu3(Mu3Interval(math.nan, 0.5)), InvalidInputError),
    "block_index": (lambda: eprbell.block_rng(3, -1), InvalidInputError),
    "seed": (lambda: eprbell.block_rng(-3, 0), InvalidInputError),
    "huge_Direction": (lambda: Direction(HUGE, 0, 0), InvalidDirectionError),
    "huge_from_angle": (lambda: Direction.from_angle(HUGE), InvalidDirectionError),
    "huge_CovarianceTriple": (lambda: CovarianceTriple(HUGE, 0, 0), InvalidInputError),
    "huge_CovarianceQuad": (lambda: CovarianceQuad(HUGE, 0, 0, 0), InvalidInputError),
    "huge_MomentSet3": (lambda: MomentSet3(HUGE), InvalidInputError),
    "huge_PairDist": (lambda: PairDist((HUGE, 0, 0, 0)), InvalidInputError),
    "huge_from_mapping": (lambda: PairDist.from_mapping({"pp": HUGE, "pm": 0, "mp": 0, "mm": 0}),
                          InvalidInputError),
    "huge_TripleDist": (lambda: TripleDist([HUGE] + [0] * 7), InvalidInputError),
    "huge_info_curve": (lambda: eprbell.info_curve(HUGE), InvalidInputError),
    "huge_binary_entropy": (lambda: eprbell.binary_entropy(HUGE), InvalidInputError),
    "huge_violation_scan": (lambda: eprbell.violation_scan("bell", HUGE), InvalidInputError),
    "huge_Mu3Interval": (lambda: Mu3Interval(0.0, HUGE), InvalidInputError),
    "huge_InequalityVerdict": (lambda: eprbell.InequalityVerdict(0.0, HUGE), InvalidInputError),
    "huge_qm_bell_lhs": (lambda: eprbell.qm_bell_lhs(HUGE, 0, 0), InvalidInputError),
    "huge_mu3_interval": (lambda: eprbell.mu3_interval(HUGE, 0, 0, 0, 0, 0), InvalidInputError),
    "huge_existence_check_3": (lambda: eprbell.existence_check_3(HUGE, 0, 0, 0, 0, 0), InvalidInputError),
    "huge_simulate_n": (lambda: eprbell.simulate(A, A, -HUGE, 0), InvalidInputError),
    "huge_simulate_seed": (lambda: eprbell.simulate(A, A, 1, -HUGE), InvalidInputError),
    "huge_block_rng": (lambda: eprbell.block_rng(-HUGE, 0), InvalidInputError),
    "huge_product_rule_demo": (lambda: eprbell.product_rule_demo(A, -HUGE, 0), InvalidInputError),
    "huge_run_all": (lambda: verify.run_all(-HUGE), InvalidInputError),
    "huge_qm_marginal": (lambda: eprbell.qm_marginal(PairDist((0.25,) * 4), HUGE), InvalidInputError),
    "huge_qm_conditional": (lambda: eprbell.qm_conditional(A, A, HUGE), InvalidInputError),
    "huge_marginal": (lambda: eprbell.marginal(PairDist((0.25,) * 4), HUGE, 0), InvalidInputError),
}


@pytest.mark.parametrize("call, error", FOUND.values(), ids=FOUND)
def test_found_calls_raise_typed_errors(call, error):
    with pytest.raises(error) as info:
        call()
    assert len(str(info.value)) <= SHOWN_MAX_CHARS + FIXED_TEXT


# What shown returns: a value's own text when it fits, and an int past the
# digit limit as its sign and size.
SHOWN = [
    (0.1, str, "0.1"), (-0.0, str, "-0.0"), (math.nan, repr, "nan"), (10**400, str, str(10**400)),
    (np.float64(2.0), str, "2.0"), (np.float64(2.0), repr, "np.float64(2.0)"),
    ("a b", str, "a b"), ("a b", repr, "'a b'"),
    (10**4300, str, "<int of about 4301 digits>"),
    (10**5000, str, "<int of about 5001 digits>"), (-10**5000, repr, "-<int of about 5001 digits>"),
]


@pytest.mark.parametrize("value, form, text", SHOWN, ids=range(len(SHOWN)))
def test_shown(value, form, text):
    assert shown(value, form) == text


@pytest.mark.parametrize("value, form", [(10**4299, str), ("x" * 100_000, str), ("x" * 100_000, repr)],
                         ids=["int of 4300 digits", "text", "text repr"])
def test_shown_cuts_long_text(value, form):
    text, cut = form(value), shown(value, form)  # str still makes 4,300 digits
    assert len(cut) == SHOWN_MAX_CHARS and cut.endswith(f"... ({len(text)} characters)")
    assert text.startswith(cut[:cut.rindex("... (")])


def test_shown_container_of_huge_int():
    text = shown([0.5, 10**5000], repr)
    assert text.startswith("<list that cannot be shown: ") and len(text) <= SHOWN_MAX_CHARS


def test_shown_int_size_without_text():
    value, seconds = 10**(10**6), []
    for _ in range(5):
        start = time.perf_counter()
        text = shown(value)
        seconds.append(time.perf_counter() - start)
    assert text == "<int of about 1000001 digits>" and min(seconds) < 0.01
