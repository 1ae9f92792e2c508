"""Import boundary: no import loads scipy, and the package exports its names.

The quadrature of the dependence-function and survival code uses scipy:
``quadpack.quad`` loads QUADPACK's compiled extension from its file on the
first integral, so importing any module loads none of scipy, and no golden
case runs the package init of ``scipy.integrate``, ``scipy.special`` or
``scipy.interpolate``, each of which costs several times the import of
numpy (only a survival spec that tabulates K imports ``scipy.interpolate``).
The boundary checks run in fresh interpreters, because the test process has
long since imported everything.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import collapsekit

from test_golden import CASES

ROOT = Path(__file__).resolve().parents[1]

MODEL_NAMES = {
    "DependenceModel": "depfun",
    "DepVerdict": "depfun",
    "GaussianLinearInteraction": "depfun",
    "UniformQuadratic": "depfun",
    "check_avg_collapsibility": "depfun",
    "check_homogeneity": "depfun",
    "model_from_json": "depfun",
    "SurvivalSpec": "survival",
    "SurvivalVerdict": "survival",
    "check_condition": "survival",
    "verify_numeric": "survival",
}
# verbs that may load part of scipy, the cases of them that integrate, and
# the scipy packages no golden case may load
SCIPY_VERBS = ("dep-check", "survival-check")
QUADRATURE_CASES = ("dep-check", "dep-check.md", "survival-check")
SCIPY_PACKAGES = {"scipy.integrate", "scipy.special", "scipy.interpolate"}

# imports the modules given as a JSON list, runs each golden case given as
# JSON through cli.main in order, and prints the scipy modules loaded after
# each step
CHILD = """
import contextlib, importlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

modules, cases = json.loads(sys.argv[1])
for module in modules:
    importlib.import_module(module)
loaded = {"import": scipy_modules()}
for name, argv in cases.items():
    with contextlib.redirect_stdout(io.StringIO()):
        sys.modules["collapsekit.cli"].main(argv)
    loaded[name] = scipy_modules()
print(json.dumps(loaded))
"""


def scipy_loaded_after(
    cases: dict[str, list[str]], modules=("collapsekit", "collapsekit.cli")
) -> dict[str, list[str]]:
    """scipy modules in ``sys.modules`` after the imports and after each case."""
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


class TestPackageNames:
    @pytest.mark.parametrize("name", sorted(MODEL_NAMES))
    def test_same_object_as_the_module(self, name):
        module = importlib.import_module(f"collapsekit.{MODEL_NAMES[name]}")
        assert getattr(collapsekit, name) is getattr(module, name)

    def test_all_is_exactly_the_exported_names(self):
        exported = {
            name for name, value in vars(collapsekit).items()
            if not name.startswith("_") and not inspect.ismodule(value)
        }
        assert sorted(collapsekit.__all__) == collapsekit.__all__
        assert set(collapsekit.__all__) == exported

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
