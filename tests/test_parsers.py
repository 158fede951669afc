"""Fuzzing of the model and matrix JSON parsers.

Every JSON value either parses or raises an error that ``cli.main`` maps to
exit code 2; none escapes as a traceback.
"""
import json
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cwishart as cw
from cwishart import cli

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _or_json(valid):
    return st.one_of(valid, JSON)


def _matrix(rows, cols, entries):
    return {"rows": rows, "cols": cols, "entries": entries}


VALID_MATRIX = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda rc: st.lists(st.floats(-4, 4), min_size=rc[0] * rc[1], max_size=rc[0] * rc[1]).map(
        lambda e: _matrix(*rc, e)
    )
)
MATRIX = st.one_of(
    VALID_MATRIX,
    st.builds(_matrix, _or_json(st.integers(1, 3)), _or_json(st.integers(1, 3)),
              _or_json(st.lists(st.floats(), max_size=9))),
    JSON,
)
SHAPE = st.one_of(
    st.sampled_from([{"variant": "identity"}, {"variant": "skew_block"}]),
    st.fixed_dictionaries(
        {"variant": _or_json(st.sampled_from(["identity", "diagonal", "skew_block", "custom"]))},
        optional={"entries": _or_json(st.lists(st.floats(), max_size=4)), "matrix": MATRIX},
    ),
    JSON,
)


def _valid_model(p, n):
    shapes = [st.just({"variant": "identity"}),
              st.lists(st.floats(-4, 4), min_size=n, max_size=n).map(
                  lambda e: {"variant": "diagonal", "entries": e}),
              st.lists(st.floats(-4, 4), min_size=n * n, max_size=n * n).map(
                  lambda e: {"variant": "custom", "matrix": _matrix(n, n, e)})]
    if n % 2 == 0:
        shapes.append(st.just({"variant": "skew_block"}))
    return st.fixed_dictionaries({"p": st.just(p), "n": st.just(n),
                                  "theta": st.just(cw.matrix_to_dict(np.eye(p))),
                                  "shape": st.one_of(shapes)})


MODEL = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(lambda pn: _valid_model(*pn)),
    st.integers(1, 3).flatmap(
        lambda p: st.fixed_dictionaries({
            "p": _or_json(st.just(p)),
            "n": _or_json(st.integers(1, 4)),
            "theta": st.one_of(st.just(cw.matrix_to_dict(np.eye(p))), MATRIX),
            "shape": SHAPE,
        })
    ),
    st.dictionaries(st.sampled_from(["p", "n", "theta", "shape"]), JSON),
    JSON,
)
IDENTITY_SHAPE_AS_STRING = {"p": 2, "n": 4, "theta": cw.matrix_to_dict(np.eye(2)),
                            "shape": "identity"}


@given(MATRIX)
@settings(max_examples=300, deadline=None)
def test_matrix_from_dict_parses_or_raises_usage_error(d):
    try:
        cw.matrix_from_dict(d)
    except cli.USAGE_ERRORS:
        pass


@given(MODEL)
@example(IDENTITY_SHAPE_AS_STRING)
@settings(max_examples=300, deadline=None)
def test_model_from_dict_parses_or_raises_usage_error(d):
    try:
        cw.model_from_dict(d)
    except cli.USAGE_ERRORS:
        pass


@given(MODEL)
@example(IDENTITY_SHAPE_AS_STRING)
@settings(max_examples=200, deadline=None)
def test_bound_command_exits_0_or_2(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"model": model}, fh)
        assert cli.main(["bound", "--config", path]) in (0, 2)
