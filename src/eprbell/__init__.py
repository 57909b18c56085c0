"""Singlet-state spin statistics, Bell/CHSH inequalities, joint-distribution
feasibility analysis, and a stochastic hidden-variable simulator.

One loading rule: ``import eprbell`` loads none of its modules. Each public
name below is looked up in the module that defines it on first access, so a
caller loads only what it uses. Only array code loads numpy: the
simulator's array functions and the scan.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "errors": (
        "EprBellError", "InconsistentMarginalsError", "InvalidDirectionError",
        "InvalidGeometryError", "InvalidInputError",
    ),
    "geometry": ("Direction",),
    "information": ("InfoCurvePoint", "binary_entropy", "conditional_entropy", "info_curve", "mutual_information"),
    "inequalities": (
        "CovarianceQuad", "CovarianceTriple", "InequalityVerdict", "ScanResult", "bell_1964", "chsh",
        "chsh_to_bell_reduction", "qm_bell_lhs", "violation_scan",
    ),
    "joint": (
        "ExistenceResult", "MomentSet3", "Mu3Interval", "PairMoments", "QuadDist", "QuadFeasibility",
        "TripleDist", "default_mu3", "existence_check_3", "marginal", "moments_from_pairs",
        "mu3_interval", "qm_triple", "quad_feasibility", "triple_from_moments",
    ),
    "spincore": (
        "PairDist", "apply_property_I", "covariance", "local_pair_dist", "qm_conditional",
        "qm_marginal", "qm_pair_dist",
    ),
    "born": ("singlet_pair_probs",),
    "hvsim": ("BLOCK_SIZE", "SimReport", "block_rng", "product_rule_demo", "simulate"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
