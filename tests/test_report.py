"""``cli.as_report``: a verdict's report keys are its dataclass fields and properties."""

import dataclasses
import json

import numpy as np
import pytest

from collapsekit.assoc import FiniteJoint, detect_assoc_reversal, double_linkage
from collapsekit.cli import as_report, dumps_report
from collapsekit.collapse import check_collapsibility, check_strict_collapsibility
from collapsekit.depfun import GaussianLinearInteraction, check_avg_collapsibility, check_homogeneity
from collapsekit.loglinear import decompose, is_hierarchical
from collapsekit.paradox import cornfield, detect_reversal, scan_strata
from collapsekit.regress import (
    RegressionStratum,
    StratifiedRegressionSummary,
    check_a_collapsibility,
    check_parallel_collapsibility,
)
from collapsekit.survival import SurvivalSpec, verify_numeric
from collapsekit.tables import CategoricalScheme, build_table

ADMISSION = build_table(
    CategoricalScheme((("A", ("Y", "N")), ("X", ("M", "F")), ("D", ("H", "G")))),
    [1, 6, 2, 4, 4, 2, 6, 1],
    "counts",
)
PROBS = ADMISSION.normalize()
JOINT = FiniteJoint(
    (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), np.arange(1.0, 9.0).reshape(2, 2, 2) / 36.0
)
SUMMARY = StratifiedRegressionSummary(
    (RegressionStratum(0.4, 1.0, 0.5, 0.0, 1.0, 2.0), RegressionStratum(0.6, 2.0, 0.5, 1.0, 1.0, 2.0))
)
GAUSS = GaussianLinearInteraction(1.0, 0.5, 0.0, 1.0)
GRID = [(0.5, 1.0)]
SPEC = SurvivalSpec(beta_x=1.0, beta_y=-2.0, eta_rho=0.8)
Y, X = ("A", "Y"), ("X", "M")

# verdict class: (a library call returning one, the report keys pinned)
VERDICTS = {
    "CornfieldDiagnostics": (
        lambda: cornfield(ADMISSION, Y, X, ("D", "H")),
        {"ratio_lhs", "ratio_rhs", "ratio_condition", "riskdiff_lhs", "riskdiff_rhs", "riskdiff_condition"},
    ),
    "StratumScan": (lambda: scan_strata(ADMISSION, Y, X)[0], {"covariate", "report", "error"}),
    "LinkageProfile": (
        lambda: double_linkage(JOINT),
        {"w_indep_y", "w_indep_x", "w_indep_y_given_x", "w_indep_x_given_y", "deviations", "tol", "doubly_linked"},
    ),
    "AssocReversalReport": (
        lambda: detect_assoc_reversal(JOINT, "r4"),
        {
            "relation", "conditional_up", "conditional_down", "marginal_up_strict",
            "marginal_down_strict", "per_w", "reversal", "tol",
        },
    ),
    "RegressVerdict": (
        lambda: check_parallel_collapsibility(SUMMARY),
        {
            "mode", "beta_marginal", "alpha_marginal", "beta_reference", "collapsible",
            "a_collapsible", "lhs", "rhs", "identity_gap", "beta_gap", "tol",
        },
    ),
    "RegressVerdict.average": (
        lambda: check_a_collapsibility(SUMMARY),
        {
            "mode", "beta_marginal", "alpha_marginal", "beta_reference", "collapsible",
            "a_collapsible", "lhs", "rhs", "identity_gap", "beta_gap", "tol",
        },
    ),
    "CollapseVerdict": (
        lambda: check_collapsibility(PROBS, ("A", "X"), ("A", "X")),
        {
            "target", "margin", "collapsible", "max_residual", "direct_gap", "tau_full",
            "eta_marginal", "tol", "strict", "set_gaps", "zero_set_max", "ci",
        },
    ),
    "CollapseVerdict.strict": (
        lambda: check_strict_collapsibility(PROBS, ("A", "X"), (), ("D",)),
        {
            "target", "margin", "collapsible", "max_residual", "direct_gap", "tau_full",
            "eta_marginal", "tol", "strict", "set_gaps", "zero_set_max", "ci",
        },
    ),
    "CiVerdict": (lambda: PROBS.check_ci(("A",), ("X",), ("D",)), {"holds", "max_deviation", "witness", "tol"}),
    "HierarchyVerdict": (lambda: is_hierarchical(decompose(PROBS)), {"hierarchical", "violations", "tol"}),
    "HomogeneityVerdict": (
        lambda: check_homogeneity(GAUSS, grid=GRID),
        {"homogeneous", "max_gap", "worst", "tol"},
    ),
    "DepVerdict": (
        lambda: check_avg_collapsibility(GAUSS, grid=GRID),
        {
            "avg_collapsible", "max_residual", "integral_residual", "worst_point",
            "marginal_route", "quadrature_ok", "tol",
        },
    ),
    "SurvivalVerdict": (
        lambda: verify_numeric(SPEC, t_grid=(0.5,), s_grid=(0.5,)),
        {"condition", "gaussian_equiv", "probes", "reversal_on_grid", "matches_prediction"},
    ),
    "ProbeResult": (
        lambda: verify_numeric(SPEC, t_grid=(0.5,), s_grid=(0.5,)).probes[0],
        {"t", "s", "conditional_direction", "marginal_direction", "reversal"},
    ),
}


def fields_and_properties(obj) -> set[str]:
    cls = type(obj)
    props = {n for n in dir(cls) if isinstance(getattr(cls, n), property)}
    return {f.name for f in dataclasses.fields(obj)} | props


def tuples_in(value) -> list:
    if isinstance(value, tuple):
        return [value]
    if isinstance(value, dict):
        return [t for v in value.values() for t in tuples_in(v)]
    if isinstance(value, list):
        return [t for v in value for t in tuples_in(v)]
    return []


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_keys_are_fields_and_properties(name):
    factory, pinned = VERDICTS[name]
    verdict = factory()
    assert type(verdict).__name__ == name.split(".")[0]
    report = as_report(verdict)
    assert set(report) == pinned == fields_and_properties(verdict)
    assert tuples_in(report) == []
    for key in pinned:
        value = getattr(verdict, key)
        if isinstance(value, (bool, float, int, str)) or value is None:
            assert report[key] == value


def test_nested_verdicts_and_own_shapes():
    scan = scan_strata(ADMISSION, Y, X)[0]
    assert as_report(scan)["report"] == scan.report.to_json_dict()
    rep = detect_reversal(ADMISSION, Y, X, "D")
    assert as_report(rep) == rep.to_json_dict()
    assert as_report(SUMMARY) == SUMMARY.to_json_dict()
    link = as_report(double_linkage(JOINT))
    assert isinstance(link["deviations"], list)
    surv = as_report(verify_numeric(SPEC, t_grid=(0.5,), s_grid=(0.5,)))
    assert set(surv["probes"][0]) == VERDICTS["ProbeResult"][1]
    assert as_report((1, (2.0, None))) == [1, [2.0, None]]
    report = {"a": (1, 2)}
    assert as_report(report) is report  # a dict is a report already


def test_arrays_and_subset_keys_serialize():
    plain = check_collapsibility(PROBS, ("A", "X"), ("A", "X"))
    report = as_report(plain)
    assert report["tau_full"] == plain.tau_full.tolist()
    assert report["eta_marginal"] == plain.eta_marginal.tolist()
    assert json.loads(dumps_report(report))["tau_full"] == plain.tau_full.tolist()
    strict = check_strict_collapsibility(PROBS, ("A", "X"), (), ("D",))
    report = as_report(strict)
    assert report["set_gaps"] == {",".join(k): v for k, v in strict.set_gaps.items()}
    assert set(report["set_gaps"]) == {"A", "X", "A,X"}
    assert json.loads(dumps_report(report))["set_gaps"] == report["set_gaps"]
    # as_report finds ndarray through sys.modules, which holds numpy once any array exists
    nested = as_report(np.arange(4.0).reshape(2, 2))
    assert nested == [[0.0, 1.0], [2.0, 3.0]] and type(nested[1][0]) is float
    assert as_report((np.arange(2), [np.zeros(0)])) == [[0, 1], [[]]]


def test_subset_keys_with_quotes_stay_valid_json():
    scheme = CategoricalScheme((('A"', ("Y", "N")), ("X\\", ("M", "F")), ("D", ("H", "G"))))
    probs = build_table(scheme, [1, 6, 2, 4, 4, 2, 6, 1], "counts").normalize()
    report = as_report(check_strict_collapsibility(probs, ('A"', "X\\"), (), ("D",)))
    assert set(json.loads(dumps_report(report))["set_gaps"]) == {'A"', "X\\", 'A",X\\'}


def test_empty_dict_and_unserializable_leaf():
    assert dumps_report({}) == "{}"
    assert dumps_report({"a": {}}) == '{\n  "a": {}\n}'
    with pytest.raises(TypeError, match="cannot serialize object"):
        dumps_report({"a": object()})
