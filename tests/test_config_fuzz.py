"""Fuzzing of whole ``verify``, ``sweep`` and ``netcert`` configs through ``cli.main``.

Each example is a valid config, or a valid config with one field replaced by
junk or removed, or with a key that no command reads added, holding junk.
Whatever it is, ``cli.main`` ends with one of the documented exit codes 0, 1,
2 or 3, no error escapes as a traceback, and every line it prints is strict
JSON (no NaN or Infinity).  A ``verify`` or ``sweep`` example that exits 2
draws no block of trials first.

Examples stay cheap: every integer is within 64 in absolute value (16 in
junk), trials are at most 64 and never left to their defaults, and a
complexity tolerance is either invalid or at least 0.5.  Complexity sweeps
use only the identity and skew-block families: the diagonal family draws n
Gaussians per n it is evaluated at, and inverting the bound can evaluate it
near the 2^20 search cap.
"""
import contextlib
import io
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import cwishart as cw
from cwishart import cli, verify

EXIT_CODES = (0, 1, 2, 3)

BAD = st.sampled_from([math.nan, math.inf, -math.inf, 0, -1, 2.5, "1", True, False, None])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-16, 16) | st.floats(-16, 16) | BAD
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
# Junk for a tolerance must not be a tiny positive number: that would start a
# doubling search to the cap.
BAD_TOLERANCE = BAD | st.sampled_from(["0.5", [1.0], {}, -0.5])
JUNK = {"tolerance": BAD_TOLERANCE}
KEPT = ("command", "trials")  # never removed: a missing trials means up to 10^5
# A top-level key that no command reads, and its junk: non-finite numbers often.
UNREAD = "note"
UNREAD_JUNK = st.sampled_from([math.nan, math.inf, -math.inf]) | JSON


def _one_field_broken(valid, unread=True):
    """``valid``, or one of its configs with one field replaced by junk or removed, or
    (with ``unread``) with ``UNREAD`` added, holding junk."""
    def variants(cfg):
        keys = sorted(cfg)
        removable = [k for k in keys if k not in KEPT]
        options = [st.just(cfg), st.sampled_from(keys).flatmap(
            lambda k: JUNK.get(k, JSON).map(lambda v: {**cfg, k: v}))]
        if removable:
            options.append(st.sampled_from(removable).map(
                lambda k: {kk: v for kk, v in cfg.items() if kk != k}))
        if unread:
            options.append(UNREAD_JUNK.map(lambda v: {**cfg, UNREAD: v}))
        return st.one_of(options)

    return valid.flatmap(variants)


def _matrix(rows, cols, entries):
    return {"rows": rows, "cols": cols, "entries": entries}


def _dense(rows, cols):
    return st.lists(st.floats(-4, 4), min_size=rows * cols, max_size=rows * cols).map(
        lambda e: _matrix(rows, cols, e))


def _theta(p):
    return st.one_of(
        st.just(cw.matrix_to_dict(np.eye(p))),
        st.lists(st.floats(0.25, 4), min_size=p, max_size=p).map(
            lambda d: cw.matrix_to_dict(np.diag(d))),
    )


def _unit(p):
    return st.lists(st.floats(-1, 1), min_size=p, max_size=p).filter(
        lambda v: np.linalg.norm(v) > 0.1).map(lambda v: list(np.asarray(v) / np.linalg.norm(v)))


def _model(p, n):
    shapes = [st.just({"variant": "identity"}),
              st.lists(st.floats(-4, 4), min_size=n, max_size=n).map(
                  lambda e: {"variant": "diagonal", "entries": e}),
              _dense(n, n).map(lambda m: {"variant": "custom", "matrix": m})]
    if n % 2 == 0:
        shapes.append(st.just({"variant": "skew_block"}))
    # No unread key inside the model: junk nested in a read object is found by the
    # report's digest, after the run.
    return _one_field_broken(st.fixed_dictionaries(
        {"p": st.just(p), "n": st.just(n), "theta": _theta(p), "shape": st.one_of(shapes)}),
        unread=False)


DIMS = st.tuples(st.integers(1, 3), st.integers(1, 8))
RUN = {"trials": st.integers(2, 64), "seed": st.integers(0, 64)}


def _verify(p, n):
    model = _model(p, n)
    return st.one_of(
        st.fixed_dictionaries({
            "check": st.sampled_from(["expectation", "dominance", "decoupling"]),
            "model": model, **RUN,
        }, optional={"convention": st.sampled_from(["frobenius", "ratio"])}),
        st.fixed_dictionaries({
            "check": st.just("concentration"), "model": model, "direction": _unit(p),
            "t_grid": st.lists(st.floats(0, 4), min_size=1, max_size=4), **RUN,
        }),
        st.fixed_dictionaries({
            "check": st.just("chaos"), "theta": _theta(p),
            "matrices": st.lists(_dense(p, p), min_size=1, max_size=16), **RUN,
        }),
        st.fixed_dictionaries({
            "check": st.just("stddev"), "theta": _theta(p),
            "a": st.lists(st.floats(-4, 4), min_size=p, max_size=p), **RUN,
        }),
    ).map(lambda cfg: {"command": "verify", **cfg})


FAMILY = st.one_of(
    st.sampled_from([{"variant": "identity"}, {"variant": "skew_block"}]),
    st.integers(0, 64).map(lambda s: {"variant": "diagonal", "seed": s}),
)
SCALING = st.integers(1, 4).flatmap(lambda p: st.fixed_dictionaries({
    "command": st.just("sweep"), "sweep": st.just("scaling"), "p": st.just(p),
    "n_grid": st.lists(st.integers(1, 32).map(lambda k: 2 * k), min_size=3, max_size=5,
                       unique=True).map(sorted),
    "family": FAMILY, **RUN,
}, optional={"theta": _theta(p)}))
COMPLEXITY = st.fixed_dictionaries({
    "command": st.just("sweep"), "sweep": st.just("complexity"),
    "p_grid": st.lists(st.integers(1, 4), min_size=1, max_size=3),
    "tolerance": st.floats(0.5, 64),
    "family": st.sampled_from([{"variant": "identity"}, {"variant": "skew_block"}]), **RUN,
})
# Netcert inputs name matrix files written per example: square ones, and a
# non-square one, one too large to enumerate and one that is not a matrix.
MATRIX_FILE = st.one_of(
    st.integers(1, 4).flatmap(lambda p: _dense(p, p)),
    _dense(2, 3),
    st.just(cw.matrix_to_dict(np.eye(15))),
    JSON,
)
NETCERT = st.fixed_dictionaries({
    "command": st.just("netcert"),
    "inputs": st.lists(MATRIX_FILE, min_size=1, max_size=3),
})


def _not_json(constant):
    raise AssertionError(f"printed {constant}, which is not JSON")


def _run(cfg, tmp):
    """Exit code of ``cli.main`` on ``cfg``, after checking what it printed."""
    cfg = dict(cfg, out=os.path.join(tmp, "out"))
    path = os.path.join(tmp, "c.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["--config", path])
    for line in stdout.getvalue().splitlines():
        json.loads(line, parse_constant=_not_json)
    return code


def _run_counted(cfg, tmp):
    """Exit code of ``_run`` on ``cfg``, and how many blocks of trials it drew."""
    seeds, generator = [], verify.generator
    with mock.patch.object(verify, "generator", lambda seed: seeds.append(seed) or generator(seed)):
        code = _run(cfg, tmp)
    return code, len(seeds)


def _write_inputs(cfg, tmp):
    """``cfg`` with its drawn matrix objects written to files and named by path."""
    paths = []
    for i, content in enumerate(cfg["inputs"]):
        paths.append(os.path.join(tmp, f"m{i}.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump(content, fh)
    return dict(cfg, inputs=paths)


@given(_one_field_broken(DIMS.flatmap(lambda pn: _verify(*pn))))
@settings(max_examples=250, deadline=None)
def test_verify_config_exits_with_documented_code(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        code, blocks = _run_counted(cfg, tmp)
    assert code in EXIT_CODES
    assert code != 2 or blocks == 0


@given(_one_field_broken(SCALING | COMPLEXITY))
@settings(max_examples=200, deadline=None)
def test_sweep_config_exits_with_documented_code(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        code, blocks = _run_counted(cfg, tmp)
    assert code in EXIT_CODES
    assert code != 2 or blocks == 0


@given(NETCERT, st.data())
@settings(max_examples=100, deadline=None)
def test_netcert_config_exits_with_documented_code(cfg, data):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = data.draw(_one_field_broken(st.just(_write_inputs(cfg, tmp))))
        assert _run(cfg, tmp) in EXIT_CODES
