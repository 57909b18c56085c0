"""Singlet-state spin statistics, Bell/CHSH inequalities, joint-distribution
feasibility analysis, and a stochastic hidden-variable simulator.

The exact tables and verdicts are plain Python floats, so importing the
package does not load numpy. The Born-rule route and the simulator need it;
their names below are imported on first access.
"""

import importlib

from .errors import (
    EprBellError,
    InconsistentMarginalsError,
    InvalidDirectionError,
    InvalidGeometryError,
    InvalidInputError,
    InvalidModelError,
    QuasiDistributionError,
    UndefinedConditionalError,
)
from .geometry import Direction
from .information import (
    InfoCurvePoint,
    binary_entropy,
    conditional_entropy,
    info_curve,
    mutual_information,
)
from .inequalities import (
    CovarianceQuad,
    CovarianceTriple,
    InequalityVerdict,
    LocalModel,
    ScanResult,
    bell_1964,
    bell_local_model_covariance,
    bell_pair_inequalities,
    chsh,
    chsh_to_bell_reduction,
    qm_bell_lhs,
    violation_scan,
)
from .joint import (
    ExistenceResult,
    MomentSet3,
    Mu3Interval,
    PairMoments,
    QuadDist,
    QuadFeasibility,
    TripleDist,
    chsh_family_verdicts,
    default_mu3,
    existence_check_3,
    marginal,
    moments_from_pairs,
    mu3_interval,
    qm_triple,
    quad_feasibility,
    triple_conditional,
    triple_from_moments,
)
from .spincore import (
    PairDist,
    apply_property_I,
    covariance,
    local_conditional,
    local_pair_dist,
    qm_conditional,
    qm_marginal,
    qm_pair_dist,
)

__version__ = "0.1.0"

_NUMPY_BACKED = {
    "born": ("SingletState", "singlet_pair_prob", "singlet_pair_probs", "spin_projector"),
    "hvsim": (
        "BLOCK_SIZE", "PartitionSpec", "SimReport", "block_rng", "classify",
        "mixture_pair_dist", "p_c_analytic", "product_rule_demo", "sample_lambda",
        "sample_pair_given_c", "simulate",
    ),
}
_MODULE_OF = {name: module for module, names in _NUMPY_BACKED.items() for name in names}


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
