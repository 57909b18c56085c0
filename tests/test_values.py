"""Value semantics of every value type: construction, immutability, field-wise
equality and hashing, ``repr`` text and constructor signatures."""

import inspect

import numpy as np
import pytest

from eprbell import (
    BLOCK_SIZE,
    CovarianceQuad,
    CovarianceTriple,
    Direction,
    ExistenceResult,
    InequalityVerdict,
    InfoCurvePoint,
    InvalidInputError,
    MomentSet3,
    Mu3Interval,
    PairDist,
    PairMoments,
    QuadDist,
    QuadFeasibility,
    ScanResult,
    SimReport,
    TripleDist,
    simulate,
    violation_scan,
)
from eprbell.hvsim import CONTRACT, PartitionSpec, ProductRuleEstimate
from eprbell.spincore import SignedTable
from eprbell.verify import CheckResult

VERDICTS = {"sum": InequalityVerdict(0.5, 1.0)}
EMPIRICAL = (0.25,) * 4

# Each value type with one set of constructor arguments, by name in field
# order. ``repr`` shows each of them, and for ``InequalityVerdict`` also the
# computed ``satisfied``.
VALUES = [
    (Direction, {"x": 0.6, "y": 0.8, "z": 0.0}),
    (PairDist, {"cells": (0.1, 0.2, 0.3, 0.4)}),
    (TripleDist, {"cells": (0.125,) * 8}),
    (QuadDist, {"cells": (0.0625,) * 16}),
    (InequalityVerdict, {"lhs": 2.5, "bound": 2.0}),
    (Mu3Interval, {"lo": -0.5, "hi": 0.25}),
    (MomentSet3, {"m_a": 0.1, "m_b": 0.2, "m_c": 0.3, "m_ab": 0.4, "m_bc": 0.5, "m_ca": 0.6, "m_abc": 0.7}),
    (PairMoments, {"m_a": 0.1, "m_b": 0.2, "m_c": 0.3, "m_ab": 0.4, "m_bc": 0.5, "m_ca": 0.6}),
    (ExistenceResult, {"exists": True, "verdicts": VERDICTS}),
    (QuadFeasibility, {"feasible": False, "witness": None, "verdicts": VERDICTS, "failed": "sum"}),
    (CovarianceTriple, {"c_ab": 0.1, "c_ac": 0.2, "c_bc": -0.3}),
    (CovarianceQuad, {"c_ab": 0.1, "c_ac": 0.2, "c_db": -0.3, "c_dc": 0.4}),
    (PartitionSpec, {"cos_threshold": 0.5}),
    (SimReport, {"n_samples": 4, "seed": 1, "mode": "local", "theta_ab_rad": 0.5, "empirical": EMPIRICAL,
                 "theoretical": PairDist([0.25] * 4), "max_abs_dev": 0.0, "chi_square": 0.0, "contract": 2}),
    (ProductRuleEstimate, {"label": "b = a", "b": Direction(0.0, 0.0, 1.0), "estimate": 0.0, "target": 0.0}),
    (CheckResult, {"name": "check", "passed": False, "max_dev": 1.0, "detail": "at a"}),
    (InfoCurvePoint, {"x": 0.0, "mutual_information_bits": 0.0, "conditional_entropy_bits": 1.0}),
]
IDS = [cls.__name__ for cls, _ in VALUES]
# A dict field makes the value unhashable, as it does a tuple.
UNHASHABLE = {ExistenceResult, QuadFeasibility}

# inspect.signature of each constructor, without its return annotation.
SIGNATURES = {
    Direction: "(x: 'float', y: 'float', z: 'float')",
    SignedTable: "(cells: 'tuple[float, ...]')",
    PairDist: "(cells: 'tuple[float, ...]')",
    TripleDist: "(cells: 'tuple[float, ...]')",
    QuadDist: "(cells: 'tuple[float, ...]')",
    InequalityVerdict: "(lhs: 'float', bound: 'float')",
    Mu3Interval: "(lo: 'float', hi: 'float')",
    MomentSet3: "(m_a: 'float' = 0.0, m_b: 'float' = 0.0, m_c: 'float' = 0.0, m_ab: 'float' = 0.0,"
                " m_bc: 'float' = 0.0, m_ca: 'float' = 0.0, m_abc: 'float' = 0.0)",
    PairMoments: "(m_a: 'float', m_b: 'float', m_c: 'float', m_ab: 'float', m_bc: 'float', m_ca: 'float')",
    ExistenceResult: "(exists: 'bool', verdicts: 'dict[str, InequalityVerdict]')",
    QuadFeasibility: "(feasible: 'bool', witness: 'Optional[QuadDist]', verdicts: 'dict[str, InequalityVerdict]',"
                     " failed: 'Optional[str]')",
    CovarianceTriple: "(c_ab: 'float', c_ac: 'float', c_bc: 'float')",
    CovarianceQuad: "(c_ab: 'float', c_ac: 'float', c_db: 'float', c_dc: 'float')",
    ScanResult: "(inequality: 'str', resolution: 'float', max_lhs: 'float', argmax_angles: 'tuple[float, ...]',"
                " grid: 'np.ndarray', violation_index: 'np.ndarray', violation_lhs: 'np.ndarray')",
    PartitionSpec: "(cos_threshold: 'float')",
    SimReport: "(n_samples: 'int', seed: 'int', mode: 'str', theta_ab_rad: 'float',"
               " empirical: 'tuple[float, ...]', theoretical: 'PairDist', max_abs_dev: 'float', chi_square: 'float',"
               " contract: 'int' = 2)",
    ProductRuleEstimate: "(label: 'str', b: 'Direction', estimate: 'float', target: 'float')",
    CheckResult: "(name: 'str', passed: 'bool', max_dev: 'float', detail: 'str' = '')",
    InfoCurvePoint: "(x: 'float', mutual_information_bits: 'float', conditional_entropy_bits: 'float')",
}


def fields_of(obj) -> dict:
    names = list(dict(VALUES)[type(obj)])
    return {name: getattr(obj, name) for name in names + ["satisfied"] * isinstance(obj, InequalityVerdict)}


@pytest.mark.parametrize("cls, kwargs", VALUES, ids=IDS)
def test_construction(cls, kwargs):
    by_keyword = cls(**kwargs)
    by_position = cls(*kwargs.values())
    assert by_position == by_keyword
    for name, value in kwargs.items():
        read = getattr(by_keyword, name)
        assert read is value or read == value, name


@pytest.mark.parametrize("cls, kwargs", VALUES, ids=IDS)
def test_bad_arguments(cls, kwargs):
    names, values = list(kwargs), list(kwargs.values())
    with pytest.raises(TypeError):
        cls(*values, 0.0)
    with pytest.raises(TypeError):
        cls(**kwargs, no_such_field=0.0)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    if cls is not MomentSet3:  # every field has a default
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], values[1:])))


def test_defaults():
    assert MomentSet3() == MomentSet3(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert MomentSet3(m_ab=0.5).m_ab == 0.5 and MomentSet3(m_ab=0.5).m_a == 0.0
    assert CheckResult("check", True, 0.0).detail == ""
    kwargs = dict(dict(VALUES)[SimReport])
    del kwargs["contract"]
    assert SimReport(**kwargs).contract == CONTRACT


def test_validation_by_keyword():
    with pytest.raises(InvalidInputError):
        CovarianceTriple(c_ab=1.5, c_ac=0.0, c_bc=0.0)
    with pytest.raises(InvalidInputError):
        CovarianceQuad(0.0, 0.0, 0.0, c_dc=-1.5)
    with pytest.raises(InvalidInputError):
        MomentSet3(m_abc=2.0)
    with pytest.raises(InvalidInputError):
        PairDist(cells=(0.5, 0.5, 0.5, 0.5))


@pytest.mark.parametrize("cls, kwargs", VALUES, ids=IDS)
def test_frozen(cls, kwargs):
    obj = cls(**kwargs)
    for name in fields_of(obj):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert cls(**kwargs) == obj


@pytest.mark.parametrize("cls, kwargs", VALUES, ids=IDS)
def test_equality_and_hash(cls, kwargs):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    twin = type(cls.__name__, (cls,), {})  # the same name and fields
    assert a != twin(**kwargs) and twin(**kwargs) != a
    assert a != tuple(fields_of(a).values())


def test_unequal_fields():
    assert Mu3Interval(0.0, 0.5) != Mu3Interval(0.0, 0.25)
    assert InequalityVerdict(1.0, 2.0) != InequalityVerdict(1.0, 0.5)
    assert PairDist([0.25] * 4) != PairDist([0.4, 0.1, 0.1, 0.4])
    assert len({Direction(1.0, 0.0, 0.0), Direction(0.0, 1.0, 0.0), Direction(1.0, 0.0, 0.0)}) == 2


def test_repr_literals():
    assert repr(Direction(0.6, 0.8, 0.0)) == "Direction(x=0.6, y=0.8, z=0.0)"
    assert repr(-Direction(0.6, 0.8, 0.0)) == "Direction(x=-0.6, y=-0.8, z=-0.0)"
    assert repr(Direction.from_angle(0.5)) == "Direction(x=0.8775825618903728, y=0.479425538604203, z=0.0)"
    assert repr(PairDist([[0.1, 0.2], [0.3, 0.4]])) == "PairDist(cells=(0.1, 0.2, 0.3, 0.4))"
    assert repr(InequalityVerdict(2.5, 2.0)) == "InequalityVerdict(lhs=2.5, bound=2.0, satisfied=False)"
    assert repr(Mu3Interval(-0.5, 0.25)) == "Mu3Interval(lo=-0.5, hi=0.25)"


@pytest.mark.parametrize("cls, kwargs", VALUES, ids=IDS)
def test_repr_lists_fields(cls, kwargs):
    obj = cls(**kwargs)
    shown = ", ".join(f"{name}={value!r}" for name, value in fields_of(obj).items())
    assert repr(obj) == f"{cls.__name__}({shown})"


def test_scan_result_compares_by_identity():
    first, second = violation_scan("bell", np.radians(22.5)), violation_scan("bell", np.radians(22.5))
    assert first == first and first != second
    assert hash(first) == object.__hash__(first)
    with pytest.raises(AttributeError):
        first.max_lhs = 0.0


def test_signed_table_holds_only_cells():
    d = PairDist([0.1, 0.2, 0.3, 0.4])
    assert vars(d) == {"cells": (0.1, 0.2, 0.3, 0.4)} and not hasattr(d, "table")
    assert d == PairDist([0.1, 0.2, 0.3, 0.4])


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_constructor_signature(cls):
    signature = inspect.signature(cls)
    assert str(signature.replace(return_annotation=signature.empty)) == SIGNATURES[cls]


def test_simulate_reports_compare_and_hash():
    a, b = Direction.from_angle(0.0), Direction.from_angle(0.7)
    one, eight = (simulate(a, b, 3 * BLOCK_SIZE + 5, seed=4, mode="singlet", threads=t) for t in (1, 8))
    assert one == eight and hash(one) == hash(eight)
    assert type(one.empirical) is tuple and len(one.empirical) == 4
