"""Singlet-state spin statistics, Bell/CHSH inequalities, joint-distribution
feasibility analysis, and a stochastic hidden-variable simulator.

One loading rule: ``import eprbell`` loads none of its modules. Each public
name below is looked up in the module that defines it on first access, so a
caller loads only what it uses. The exact tables and verdicts are plain
Python floats and load no numpy; the Born-rule route and the simulator do.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "errors": (
        "EprBellError", "InconsistentMarginalsError", "InvalidDirectionError",
        "InvalidGeometryError", "InvalidInputError", "InvalidModelError",
        "QuasiDistributionError", "UndefinedConditionalError",
    ),
    "geometry": ("Direction",),
    "information": ("InfoCurvePoint", "binary_entropy", "conditional_entropy", "info_curve", "mutual_information"),
    "inequalities": (
        "CovarianceQuad", "CovarianceTriple", "InequalityVerdict", "LocalModel", "ScanResult",
        "bell_1964", "bell_local_model_covariance", "bell_pair_inequalities", "chsh",
        "chsh_to_bell_reduction", "qm_bell_lhs", "violation_scan",
    ),
    "joint": (
        "ExistenceResult", "MomentSet3", "Mu3Interval", "PairMoments", "QuadDist", "QuadFeasibility",
        "TripleDist", "chsh_family_verdicts", "default_mu3", "existence_check_3", "marginal",
        "moments_from_pairs", "mu3_interval", "qm_triple", "quad_feasibility", "triple_conditional",
        "triple_from_moments",
    ),
    "spincore": (
        "PairDist", "apply_property_I", "covariance", "local_conditional", "local_pair_dist",
        "qm_conditional", "qm_marginal", "qm_pair_dist",
    ),
    "born": ("singlet_pair_prob", "singlet_pair_probs", "spin_projector"),
    "hvsim": (
        "BLOCK_SIZE", "PartitionSpec", "SimReport", "block_rng", "classify",
        "mixture_pair_dist", "p_c_analytic", "product_rule_demo", "sample_lambda",
        "sample_pair_given_c", "simulate",
    ),
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
