"""Import boundary: no import loads scipy, a CLI call loads only its verb's
modules and numpy only when it builds an array, and the package exports its
names.

The quadrature of the dependence-function and survival code uses scipy:
``quadpack.quad`` loads QUADPACK's compiled extension from its file on the
first integral, so importing any module loads none of scipy, and no golden
case runs the package init of ``scipy.integrate``, ``scipy.special`` or
``scipy.interpolate``, each of which costs several times the import of
numpy.  A survival spec that tabulates K loads none of them either: its K
is piecewise-linear, in plain Python.
``import collapsekit`` loads no submodule, ``import collapsekit.cli`` loads
``errors`` alone and no numpy, and each verb's handler imports the modules
it calls.  numpy loads with the first function that builds an array, so
``--version``, ``--help``, a usage error and the survival reversal condition
load none of it.  The boundary checks run in fresh interpreters, because the
test process has long since imported everything.
"""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import collapsekit

from test_golden import CASES

ROOT = Path(__file__).resolve().parents[1]

# every public name and the module that defines it
PUBLIC_NAMES = {
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
# verbs that may load part of scipy, the cases of them that integrate, and
# the scipy packages no golden case may load
SCIPY_VERBS = ("dep-check", "survival-check")
QUADRATURE_CASES = ("dep-check", "dep-check.md", "survival-check")
SCIPY_PACKAGES = {"scipy.integrate", "scipy.special", "scipy.interpolate"}

# the collapsekit modules each golden case loads besides the package, cli and
# errors: a table CSV adds ingest_csv's loglinear and subsets
CASE_MODULES = {
    "version": [],
    "ingest": ["loglinear", "subsets", "tables"],
    "ingest.md": ["loglinear", "subsets", "tables"],
    "scan-paradox": ["loglinear", "paradox", "subsets", "tables"],
    "scan-paradox.md": ["paradox", "tables"],
    "decompose": ["loglinear", "subsets", "tables"],
    "decompose.md": ["loglinear", "subsets", "tables"],
    "collapse-check": ["collapse", "loglinear", "subsets", "tables"],
    "collapse-check.md": ["collapse", "loglinear", "subsets", "tables"],
    "assoc-check": ["assoc", "tables"],
    "assoc-check.md": ["assoc", "tables"],
    "regress-audit": ["regress", "tables"],
    "regress-audit.md": ["regress", "tables"],
    "regress-audit.summary": ["regress", "tables"],
    "dep-check": ["depfun", "quadpack"],
    "dep-check.md": ["depfun", "quadpack"],
    "survival-check": ["quadpack", "survival"],
    "survival-check.md": ["survival"],  # the condition integrates nothing
}
CLI_MODULES = ["collapsekit", "collapsekit.cli", "collapsekit.errors"]
# the golden cases that build no array; every other case loads numpy
NUMPY_FREE_CASES = ("version", "survival-check.md")

# imports the modules given as a JSON list, then runs each golden case given
# as JSON through cli.main in order, each on a freshly imported collapsekit as
# a CLI call has; prints the scipy, numpy and collapsekit modules loaded after
# each step (scipy's and numpy's pile up from case to case)
CHILD = """
import contextlib, importlib, io, json, sys

def loaded():
    return {
        package: sorted(m for m in sys.modules if m.split(".")[0] == package)
        for package in ("scipy", "numpy", "collapsekit")
    }

modules, cases = json.loads(sys.argv[1])
for module in modules:
    importlib.import_module(module)
steps = {"import": loaded()}
for name, argv in cases.items():
    for module in loaded()["collapsekit"]:
        del sys.modules[module]
    cli = importlib.import_module("collapsekit.cli")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    steps[name] = loaded()
print(json.dumps(steps))
"""


def scipy_loaded_after(
    cases: dict[str, list[str]], modules=("collapsekit", "collapsekit.cli")
) -> dict[str, list[str]]:
    """scipy modules in ``sys.modules`` after the imports and after each case."""
    return {step: loaded["scipy"] for step, loaded in loaded_after(cases, modules).items()}


def collapsekit_loaded_after(cases: dict[str, list[str]], modules) -> dict[str, list[str]]:
    """collapsekit modules in ``sys.modules`` after the imports and after each case."""
    return {step: loaded["collapsekit"] for step, loaded in loaded_after(cases, modules).items()}


def numpy_loaded_after(cases: dict[str, list[str]], modules=("collapsekit.cli",)) -> dict[str, bool]:
    """Whether numpy is in ``sys.modules`` after the imports and after each case."""
    return {step: bool(loaded["numpy"]) for step, loaded in loaded_after(cases, modules).items()}


def loaded_after(cases: dict[str, list[str]], modules) -> dict[str, dict[str, list[str]]]:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([list(modules), cases])],
        cwd=ROOT,  # case arguments are paths relative to the repo root
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestImportBoundary:
    def test_package_and_cli_import_without_scipy(self):
        assert scipy_loaded_after({}) == {"import": []}

    def test_model_modules_import_without_scipy(self):
        modules = ("collapsekit.depfun", "collapsekit.survival")
        assert scipy_loaded_after({}, modules) == {"import": []}

    def test_table_verbs_run_without_scipy(self):
        cases = {
            name: argv
            for name, argv in sorted(CASES.items())
            if argv[0] not in SCIPY_VERBS
        }
        assert len(cases) == 14
        loaded = scipy_loaded_after(cases)
        assert loaded == dict.fromkeys(["import", *cases], [])

    @pytest.mark.parametrize("case", QUADRATURE_CASES)
    def test_quadrature_loads_quadpack_alone(self, case):
        # the check above can see a load: QUADPACK's extension imports
        # scipy._lib._ccallback on its first call
        loaded = scipy_loaded_after({case: CASES[case]})
        assert loaded["import"] == []
        assert "scipy._lib._ccallback" in loaded[case]
        assert SCIPY_PACKAGES.isdisjoint(loaded[case])

    def test_survival_condition_loads_no_scipy(self):
        # the condition is algebra on the coefficients: no scipy module at all
        loaded = scipy_loaded_after({"condition": CASES["survival-check.md"]})
        assert loaded["condition"] == []

    def test_k_spec_loads_no_interpolation(self, tmp_path):
        # a plain call on a spec that tabulates K loads no scipy module at
        # all, and the numeric check QUADPACK's extension alone
        spec = tmp_path / "k.json"
        spec.write_text(json.dumps({
            "beta_x": 1.0, "beta_y": -2.0, "eta": {"mu": 0.0, "rho": 0.8},
            "k_transform": {"t": [0.0, 1.0, 4.0], "k": [0.0, 2.0, 3.0]},
        }))
        loaded = scipy_loaded_after({
            "plain": ["survival-check", str(spec)],
            "numeric": ["survival-check", "--numeric", str(spec)],
        })
        assert loaded["plain"] == []
        assert "scipy._lib._ccallback" in loaded["numeric"]
        assert SCIPY_PACKAGES.isdisjoint(loaded["numeric"])


class TestVerbModules:
    def test_package_import_loads_no_submodule(self):
        assert collapsekit_loaded_after({}, ["collapsekit"]) == {"import": ["collapsekit"]}

    def test_cli_import_loads_errors_alone(self):
        assert collapsekit_loaded_after({}, ["collapsekit.cli"]) == {"import": CLI_MODULES}

    def test_each_case_loads_its_verbs_modules(self):
        assert sorted(CASE_MODULES) == sorted(CASES)
        loaded = collapsekit_loaded_after(CASES, ["collapsekit.cli"])
        want = {
            case: sorted(CLI_MODULES + [f"collapsekit.{m}" for m in modules])
            for case, modules in CASE_MODULES.items()
        }
        assert loaded == {"import": CLI_MODULES, **want}

    def test_cli_import_and_calls_that_build_no_array_load_no_numpy(self):
        cases = {
            **{case: CASES[case] for case in NUMPY_FREE_CASES},
            "help": ["--help"],
            "usage error": ["decompose"],
            "survival-check.json": ["survival-check", CASES["survival-check.md"][-1]],
        }
        assert numpy_loaded_after(cases) == dict.fromkeys(["import", *cases], False)

    @pytest.mark.parametrize("case", sorted(set(CASES) - set(NUMPY_FREE_CASES)))
    def test_every_other_case_loads_numpy(self, case):
        # one fresh interpreter a case: numpy, once loaded, stays loaded
        assert numpy_loaded_after({case: CASES[case]}) == {"import": False, case: True}


class TestPackageNames:
    @pytest.mark.parametrize("name", sorted(PUBLIC_NAMES))
    def test_same_object_as_the_module(self, name):
        module = importlib.import_module(f"collapsekit.{PUBLIC_NAMES[name]}")
        assert getattr(collapsekit, name) is getattr(module, name)

    def test_all_is_exactly_the_exported_names(self):
        # names resolve on first use, so resolve them all before looking
        for name in collapsekit.__all__:
            getattr(collapsekit, name)
        exported = {
            name for name, value in vars(collapsekit).items()
            if not name.startswith("_") and not inspect.ismodule(value)
        }
        assert sorted(collapsekit.__all__) == collapsekit.__all__
        assert set(collapsekit.__all__) == exported
        assert collapsekit.__all__ == sorted(collapsekit._HOMES)
        assert set(collapsekit.__all__) == set(PUBLIC_NAMES)

    def test_dir_lists_all(self):
        assert set(collapsekit.__all__) <= set(dir(collapsekit))

    def test_star_import_binds_all(self):
        namespace: dict = {}
        exec("from collapsekit import *", namespace)
        for name in collapsekit.__all__:
            assert namespace[name] is getattr(collapsekit, name)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="'collapsekit'.*'no_such_name'"):
            collapsekit.no_such_name


def names_read(node: ast.AST) -> set[str]:
    """Every variable and attribute name the code under ``node`` reads."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_public_function_has_a_caller_outside_the_tests():
    """A module-level function of src/collapsekit whose name has no leading
    ``_`` is named somewhere other than the tests: by code of src/ outside
    its own ``def`` (in its own module too, as ``main`` calls
    ``build_parser``), by a perfbench script, or by the package exports.
    Anything else is surface that only a test reaches."""
    statements = [
        node
        for path in sorted((ROOT / "src" / "collapsekit").glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    # each top-level statement counts a name once, so a def that names
    # itself (recursion) is not its own caller
    named = Counter(name for node in statements for name in names_read(node))
    outside = set(collapsekit._HOMES)
    for path in (ROOT / "perfbench").glob("*.py"):
        outside |= set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    orphans = [
        node.name
        for node in statements
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in outside
        and named[node.name] == (node.name in names_read(node))
    ]
    assert orphans == []


def test_every_import_is_read():
    """An import in src/, tools/ or tests/ binds only names its module reads
    (``from __future__`` imports set compiler flags and are exempt).  No
    linter is installed here, so this is the unused-import check."""
    unread = []
    for path in sorted(p for d in ("src", "tools", "tests") for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert unread == []


def test_readme_quick_start():
    """The README's library quick start runs and gives its commented results."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quick start\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    scope, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), scope))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
    reversal, weights, _, strict = values
    assert reversal is True
    assert weights == (5 / 13, 8 / 13)
    assert strict is False
