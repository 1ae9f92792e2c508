"""Every reader turns an input of the wrong shape into its own error.

Each JSON property starts from a valid payload and replaces one to three of
its values, at any depth (the whole payload included), by any JSON value:
strings, numbers, null, booleans, nested arrays and objects.  The reader
gets the payload as JSON text, as the CLI passes it.  The CSV
properties read arbitrary text over the characters the CSV format gives a
meaning to.  A reader may accept what it gets or raise a
``CollapsekitError``; anything else escaping would end a CLI call in a
traceback.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsekit.assoc import FiniteJoint
from collapsekit.cli import ingest_csv, read_records
from collapsekit.depfun import model_from_json
from collapsekit.errors import CollapsekitError
from collapsekit.regress import StratifiedRegressionSummary, summary_from_records
from collapsekit.survival import SurvivalSpec
from collapsekit.tables import CategoricalScheme, ContingencyTable

# words a reader branches on, so a swap can also pick another valid branch
WORDS = ("counts", "probability", "uniform-quadratic", "normal", "gumbel", "logistic")

ANY = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=3)
    | st.sampled_from(WORDS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)

VARIABLES = [{"name": "A", "levels": ["a", "b"]}, {"name": "B", "levels": ["a", "b"]}]
STRATUM = {"pi": 0.5, "alpha": 0.0, "beta": 0.5, "mu_x": 0.0, "s_xx": 1.0, "s_yy": 1.0}
READERS = {
    "table": (
        ContingencyTable.from_json,
        {"variables": VARIABLES, "form": "counts", "cells": [1, 2, 3, 4]},
    ),
    # a --variables file, as cli._load_scheme reads it
    "variables": (
        lambda text: CategoricalScheme.from_json_dict(json.loads(text)),
        {"variables": VARIABLES},
    ),
    "joint": (
        FiniteJoint.from_json,
        {"levels": {"y": [0, 1], "x": [0, 1], "w": [0, 1]}, "p": [0.125] * 8},
    ),
    "summary": (
        StratifiedRegressionSummary.from_json,
        {"levels": [dict(STRATUM, label="u"), dict(STRATUM, mu_x=1.0, label="v")]},
    ),
    "model": (
        model_from_json,
        {
            "family": "gaussian-linear-interaction",
            "alpha": [1.0, 0.5, 0.8],
            "sigma": 1.0,
            "w_law": {"type": "normal", "mean_slope": 0.0},
        },
    ),
    "survival": (
        SurvivalSpec.from_json,
        {
            "beta_x": 1.0,
            "beta_y": -2.0,
            "eta": {"mu": 0.0, "rho": 0.8},
            "w_law": "std-normal",
            "v_law": "std-normal",
            "k_transform": {"t": [0.0, 0.5, 1.0], "k": [0.0, 0.9, 1.0]},
        },
    ),
}


def _paths(value, path=()):
    """The key path of ``value`` itself and of every value nested in it."""
    yield path
    if isinstance(value, (dict, list)):
        for key, inner in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(inner, path + (key,))


def _swapped(payload, swaps):
    """A copy of ``payload`` with the value at each path replaced.  Deepest
    paths go first, so every path still leads into the original payload."""
    root = [copy.deepcopy(payload)]
    for path, value in sorted(swaps, key=lambda s: -len(s[0])):
        *keys, last = (0, *path)
        parent = root
        for key in keys:
            parent = parent[key]
        parent[last] = value
    return root[0]


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_only_collapsekit_errors_escape(name, data):
    reader, valid = READERS[name]
    reader(json.dumps(valid))  # the starting point is read
    swap = st.tuples(st.sampled_from(list(_paths(valid))), ANY)
    payload = _swapped(valid, data.draw(st.lists(swap, min_size=1, max_size=3), label="swaps"))
    try:
        reader(json.dumps(payload))
    except CollapsekitError:
        pass


# the separator, the quote, the line ends, padding and NUL, plus characters
# that make names, levels and numbers
CSV_TEXT = st.text(alphabet=',"\r\n \x00xy1.', max_size=40)
CSV_READERS = {
    "observations": ingest_csv,
    "records": lambda path: summary_from_records(*read_records(path)),
}


@pytest.mark.parametrize("name", CSV_READERS)
@settings(max_examples=100, deadline=None)
@given(head=st.sampled_from(["", "y,x,a\n", "a,b\n"]), text=CSV_TEXT)
def test_only_collapsekit_errors_escape_a_csv_reader(tmp_path_factory, name, head, text):
    p = tmp_path_factory.mktemp("csv") / "input.csv"
    p.write_bytes((head + text).encode())
    try:
        CSV_READERS[name](str(p))
    except CollapsekitError:
        pass
