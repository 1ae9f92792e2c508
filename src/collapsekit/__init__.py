"""Simpson's paradox detection and collapsibility diagnostics.

Desk-scale, exact-arithmetic-first tooling for deciding when an
association survives marginalization: contingency tables and their
log-linear interactions, event-level reversal reports, directional
association relations, stratified regression summaries, distribution
dependence functions, and the linear transformation survival model.

Importing the package loads numpy but no scipy: only the dependence-function
and survival code uses scipy, and each function that calls it imports it.
"""

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
from .depfun import (
    DependenceModel,
    DepVerdict,
    GaussianLinearInteraction,
    UniformQuadratic,
    check_avg_collapsibility,
    check_homogeneity,
    dep_fn,
    model_from_json,
)
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
from .survival import SurvivalSpec, SurvivalVerdict, check_condition, verify_numeric
from .tables import CategoricalScheme, CiVerdict, ContingencyTable, build_table

__version__ = "0.1.0"

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
