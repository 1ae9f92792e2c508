"""Simpson's paradox detection and collapsibility diagnostics.

Desk-scale, exact-arithmetic-first tooling for deciding when an
association survives marginalization: contingency tables and their
log-linear interactions, event-level reversal reports, directional
association relations, stratified regression summaries, distribution
dependence functions, and the linear transformation survival model.
The package exports what the ``collapsekit`` verbs call, their readers and
verdicts, and ``build_table`` for tables made in code.

Importing the package loads numpy but no scipy.  The quadrature of the
dependence-function and survival code loads QUADPACK's compiled extension
from its file on the first integral, so ``scipy.integrate`` never loads.  The
survival normal tail loads no scipy; a tabulated K transform imports
``scipy.interpolate``.
"""

from .assoc import (
    AssocReversalReport,
    BivariateJoint,
    FiniteJoint,
    LinkageProfile,
    covariance,
    detect_assoc_reversal,
    double_linkage,
    holds_relation,
)
from .collapse import CollapseVerdict, check_collapsibility, check_strict_collapsibility
from .depfun import (
    DependenceModel,
    DepVerdict,
    GaussianLinearInteraction,
    UniformQuadratic,
    check_avg_collapsibility,
    check_homogeneity,
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
)
from .paradox import (
    CornfieldDiagnostics,
    ParadoxReport,
    cornfield,
    detect_reversal,
    scan_strata,
)
from .regress import (
    RegressionStratum,
    RegressVerdict,
    StratifiedRegressionSummary,
    check_a_collapsibility,
    check_parallel_collapsibility,
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
    "build_table",
    "check_a_collapsibility",
    "check_avg_collapsibility",
    "check_collapsibility",
    "check_condition",
    "check_homogeneity",
    "check_parallel_collapsibility",
    "check_strict_collapsibility",
    "cornfield",
    "covariance",
    "decompose",
    "detect_assoc_reversal",
    "detect_reversal",
    "double_linkage",
    "holds_relation",
    "interaction",
    "is_hierarchical",
    "model_from_json",
    "scan_strata",
    "summary_from_records",
    "verify_numeric",
]
