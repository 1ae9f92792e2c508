"""Simpson's paradox detection and collapsibility diagnostics.

Desk-scale, exact-arithmetic-first tooling for deciding when an
association survives marginalization: contingency tables and their
log-linear interactions, event-level reversal reports, directional
association relations, stratified regression summaries, distribution
dependence functions, and the linear transformation survival model.

The dependence-function names (``DependenceModel``, ``DepVerdict``,
``GaussianLinearInteraction``, ``UniformQuadratic``,
``check_avg_collapsibility``, ``check_homogeneity``, ``dep_fn``,
``model_from_json``) and the survival names (``SurvivalSpec``,
``SurvivalVerdict``, ``check_condition``, ``verify_numeric``) load their
module on first use.  Those modules import scipy, which takes several
times longer than numpy to import, so table, association and regression
work never pays for it.
"""

import importlib

from .assoc import (
    AssocReversalReport,
    BivariateJoint,
    FiniteJoint,
    LinearReversalReport,
    LinkageProfile,
    covariance,
    detect_assoc_reversal,
    double_linkage,
    holds_relation,
    linear_r4_reversal,
)
from .collapse import CollapseVerdict, check_collapsibility, check_strict_collapsibility
from .errors import (
    CollapsekitError,
    DistributionError,
    ModelError,
    RouteDisagreementError,
    SchemeError,
    TableError,
)
from .loglinear import (
    InteractionDecomposition,
    decompose,
    interaction,
    is_hierarchical,
    tilde_l,
)
from .paradox import (
    CornfieldDiagnostics,
    ParadoxReport,
    blyth_weights,
    cornfield,
    detect_reversal,
    fraction_reversal,
    scan_strata,
)
from .regress import (
    RegressionStratum,
    RegressVerdict,
    StratifiedRegressionSummary,
    check_a_collapsibility,
    check_parallel_collapsibility,
    check_sufficient_conditions,
    marginal_beta,
    summary_from_records,
)
from .tables import CategoricalScheme, CiVerdict, ContingencyTable, build_table

__version__ = "0.1.0"

# public name -> submodule imported on first access (PEP 562).  The value is
# looked up on the module at every access, never cached here, so a caller
# that swaps a module attribute sees the swap through the package too.
_LAZY = {
    **dict.fromkeys(
        (
            "DependenceModel",
            "DepVerdict",
            "GaussianLinearInteraction",
            "UniformQuadratic",
            "check_avg_collapsibility",
            "check_homogeneity",
            "dep_fn",
            "model_from_json",
        ),
        "depfun",
    ),
    **dict.fromkeys(
        ("SurvivalSpec", "SurvivalVerdict", "check_condition", "verify_numeric"),
        "survival",
    ),
}


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})

__all__ = [
    "AssocReversalReport",
    "BivariateJoint",
    "CategoricalScheme",
    "CiVerdict",
    "CollapseVerdict",
    "CollapsekitError",
    "ContingencyTable",
    "CornfieldDiagnostics",
    "DepVerdict",
    "DependenceModel",
    "DistributionError",
    "FiniteJoint",
    "GaussianLinearInteraction",
    "InteractionDecomposition",
    "LinearReversalReport",
    "LinkageProfile",
    "ModelError",
    "ParadoxReport",
    "RegressVerdict",
    "RegressionStratum",
    "RouteDisagreementError",
    "SchemeError",
    "StratifiedRegressionSummary",
    "SurvivalSpec",
    "SurvivalVerdict",
    "TableError",
    "UniformQuadratic",
    "blyth_weights",
    "build_table",
    "check_a_collapsibility",
    "check_avg_collapsibility",
    "check_collapsibility",
    "check_condition",
    "check_homogeneity",
    "check_parallel_collapsibility",
    "check_strict_collapsibility",
    "check_sufficient_conditions",
    "cornfield",
    "covariance",
    "decompose",
    "dep_fn",
    "detect_assoc_reversal",
    "detect_reversal",
    "double_linkage",
    "fraction_reversal",
    "holds_relation",
    "interaction",
    "is_hierarchical",
    "linear_r4_reversal",
    "marginal_beta",
    "model_from_json",
    "scan_strata",
    "summary_from_records",
    "tilde_l",
    "verify_numeric",
]
