"""Import boundary: table verbs run without scipy, and lazy names act like eager ones.

``depfun`` and ``survival`` import scipy, which costs several times the
import of numpy, so the package loads them on first use.  The boundary
checks run in fresh interpreters, because the test process has long since
imported everything.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import collapsekit
from collapsekit import depfun, survival

from test_golden import CASES

ROOT = Path(__file__).resolve().parents[1]

LAZY_NAMES = {
    "DependenceModel": "depfun",
    "DepVerdict": "depfun",
    "GaussianLinearInteraction": "depfun",
    "UniformQuadratic": "depfun",
    "check_avg_collapsibility": "depfun",
    "check_homogeneity": "depfun",
    "dep_fn": "depfun",
    "model_from_json": "depfun",
    "SurvivalSpec": "survival",
    "SurvivalVerdict": "survival",
    "check_condition": "survival",
    "verify_numeric": "survival",
}
SCIPY_VERBS = ("dep-check", "survival-check")

# imports the package and the CLI, runs each golden case given as JSON
# through cli.main in order, and prints the scipy modules loaded after each step
CHILD = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import collapsekit, collapsekit.cli
loaded = {"import": scipy_modules()}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        collapsekit.cli.main(argv)
    loaded[name] = scipy_modules()
print(json.dumps(loaded))
"""


def scipy_loaded_after(cases: dict[str, list[str]]) -> dict[str, list[str]]:
    """scipy modules in ``sys.modules`` after the import and after each case."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(cases)],
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

    def test_table_verbs_run_without_scipy(self):
        cases = {
            name: argv
            for name, argv in sorted(CASES.items())
            if argv[0] not in SCIPY_VERBS
        }
        assert len(cases) == 14
        loaded = scipy_loaded_after(cases)
        assert loaded == dict.fromkeys(["import", *cases], [])

    def test_survival_condition_skips_integrate_and_interpolate(self):
        loaded = scipy_loaded_after(
            {"condition": CASES["survival-check.md"], "numeric": CASES["survival-check"]}
        )
        heavy = ("scipy.integrate", "scipy.interpolate")
        assert not [m for m in loaded["condition"] if m.startswith(heavy)]
        # the numeric probes do integrate: the check above can see a load
        assert "scipy.integrate" in loaded["numeric"]


class TestLazyNames:
    @pytest.mark.parametrize("name", sorted(LAZY_NAMES))
    def test_same_object_as_the_module(self, name):
        module = importlib.import_module(f"collapsekit.{LAZY_NAMES[name]}")
        assert getattr(collapsekit, name) is getattr(module, name)

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

    def test_not_cached_in_the_package(self, monkeypatch):
        # a swap of the module attribute (as span-recording probes do) shows
        # through the package; a cached value would pin the old object
        def probe(*args, **kwargs):
            raise AssertionError("not called")

        monkeypatch.setattr(survival, "verify_numeric", probe)
        monkeypatch.setattr(depfun, "dep_fn", probe)
        assert collapsekit.verify_numeric is probe
        assert collapsekit.dep_fn is probe
