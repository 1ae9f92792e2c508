"""Simpson's paradox detection and collapsibility diagnostics.

Desk-scale, exact-arithmetic-first tooling for deciding when an
association survives marginalization: contingency tables and their
log-linear interactions, event-level reversal reports, directional
association relations, stratified regression summaries, distribution
dependence functions, and the linear transformation survival model.
The package exports what the ``collapsekit`` verbs call, their readers and
verdicts, and ``build_table`` for tables made in code.

Names resolve on first use, and a CLI call loads only its verb's modules:
``import collapsekit`` loads no submodule, and the first lookup of a public
name imports the submodule that defines it (PEP 562).  No import loads
scipy.  The quadrature of the dependence-function and survival code loads
QUADPACK's compiled extension from its file on the first integral, so
``scipy.integrate`` never loads.  The survival normal tail and a tabulated
K transform, which is piecewise-linear, load no scipy.  numpy loads with the
first function that builds an array, so ``import collapsekit.cli``,
``--version`` and the survival reversal condition load none of it.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it
_HOMES = {
    "AssocReversalReport": "assoc",
    "FiniteJoint": "assoc",
    "LinkageProfile": "assoc",
    "covariance": "assoc",
    "detect_assoc_reversal": "assoc",
    "double_linkage": "assoc",
    "holds_relation": "assoc",
    "CollapseVerdict": "collapse",
    "check_collapsibility": "collapse",
    "check_strict_collapsibility": "collapse",
    "DependenceModel": "depfun",
    "DepVerdict": "depfun",
    "GaussianLinearInteraction": "depfun",
    "UniformQuadratic": "depfun",
    "check_avg_collapsibility": "depfun",
    "check_homogeneity": "depfun",
    "model_from_json": "depfun",
    "CollapsekitError": "errors",
    "DistributionError": "errors",
    "ModelError": "errors",
    "RouteDisagreementError": "errors",
    "SchemeError": "errors",
    "TableError": "errors",
    "InteractionDecomposition": "loglinear",
    "decompose": "loglinear",
    "interaction": "loglinear",
    "is_hierarchical": "loglinear",
    "CornfieldDiagnostics": "paradox",
    "ParadoxReport": "paradox",
    "cornfield": "paradox",
    "detect_reversal": "paradox",
    "scan_strata": "paradox",
    "RegressionStratum": "regress",
    "RegressVerdict": "regress",
    "StratifiedRegressionSummary": "regress",
    "check_a_collapsibility": "regress",
    "check_parallel_collapsibility": "regress",
    "summary_from_records": "regress",
    "SurvivalSpec": "survival",
    "SurvivalVerdict": "survival",
    "check_condition": "survival",
    "verify_numeric": "survival",
    "CategoricalScheme": "tables",
    "CiVerdict": "tables",
    "ContingencyTable": "tables",
    "build_table": "tables",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and bind it here, once."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
