"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The final test reruns every criterion with a different worker count
and requires byte-identical JSON reports.
"""
import concurrent.futures
import math
import statistics
import time
from functools import lru_cache

import numpy as np
import pytest

import cwishart as cw
from cwishart import netcert, verify
from cwishart.linalg import canonical_dumps, mix_seed
from cwishart.verify import (
    DominanceReport,
    TrialConfig,
    check_expectation,
    count_lipschitz_violations,
    sweep_scaling,
)

MASTER_SEED = 0xACCE97

_timings: dict[int, float] = {}


def _report_line(number, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} ({elapsed:.1f}s){detail}")


def _run(number, name, builder, ok_fn, limit=None):
    start = time.perf_counter()
    report = builder(1)
    elapsed = time.perf_counter() - start
    _timings[number] = elapsed
    ok = ok_fn(report)
    if limit is not None:
        ok = ok and elapsed < limit
    _report_line(number, name, ok, elapsed, LINE_DETAILS.get(number, lambda r: "")(report))
    assert ok_fn(report), f"criterion {number} failed: {report}"
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"
    return report


# ---------------------------------------------------------------------------
# Criterion builders (pure functions of the worker count)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def criterion_1(workers):
    # Expectation formula: p=3, theta=diag(1,2,3), B=diag(10,0,...,0), n=10.
    model = cw.WishartModel(
        3, 10, cw.SpdMatrix.diagonal([1.0, 2.0, 3.0]),
        cw.ShapeSpec.diagonal([10.0] + [0.0] * 9),
    )
    report = check_expectation(
        TrialConfig(model, 2 * 10**4, mix_seed(MASTER_SEED, 1)), workers
    )
    return report.to_dict()


GRID_SHAPES = ("identity", "skew_block", "diagonal")


def _grid_shape(kind, n):
    if kind == "identity":
        return cw.ShapeSpec.identity()
    if kind == "skew_block":
        return cw.ShapeSpec.skew_block()
    return cw.normalized_diagonal_family(mix_seed(MASTER_SEED, 2))(n)


@lru_cache(maxsize=None)
def _grid_reports(workers):
    # Shared 27-cell grid for criteria 2 and 3: p x n x shape, theta = I.  One
    # Monte Carlo run per cell: decoupling's lhs is estimate_mean_deviation on
    # the same config, bit for bit (TestDecouplingLhsContract), so dominance
    # reads its statistics from it.
    cells = {}
    for p in (2, 4, 8):
        for n in (8, 32, 128):
            for kind in GRID_SHAPES:
                model = cw.WishartModel(p, n, cw.SpdMatrix.identity(p), _grid_shape(kind, n))
                cell_seed = mix_seed(mix_seed(mix_seed(MASTER_SEED, p), n), len(kind))
                cfg = TrialConfig(model, 2000, cell_seed)
                dec = cw.check_wishart_decoupling(cfg, workers=workers)
                dom = DominanceReport.from_stats(dec.lhs, cw.deviation_bound(model))
                cells[f"p{p}_n{n}_{kind}"] = {
                    "dominance": dom.to_dict(),
                    "decoupling": dec.to_dict(),
                }
    return cells


@lru_cache(maxsize=None)
def criterion_2(workers):
    cells = _grid_reports(workers)
    ratios = sorted(c["dominance"]["ratio"] for c in cells.values())
    return {
        "cells": {k: c["dominance"] for k, c in cells.items()},
        "min_ratio": ratios[0],
        "median_ratio": statistics.median(ratios),
        "max_ratio": ratios[-1],
        "holds": all(c["dominance"]["holds"] for c in cells.values()),
    }


@lru_cache(maxsize=None)
def criterion_3(workers):
    # The chain's middle link per cell, 2 E||W'|| / bound: how much of the
    # bound's looseness lies past the decoupling step.
    cells = _grid_reports(workers)
    links = sorted(2.0 * c["decoupling"]["rhs"]["mean"] / c["dominance"]["bound"]["bound_value"]
                   for c in cells.values())
    return {
        "cells": {k: c["decoupling"] for k, c in cells.items()},
        "min_link": links[0],
        "median_link": statistics.median(links),
        "max_link": links[-1],
        "holds": all(c["decoupling"]["holds"] for c in cells.values()),
    }


@lru_cache(maxsize=None)
def criterion_4(workers):
    # 10 seeded families of <= 8 random 3x3 matrices, two scale matrices.
    rng = cw.generator(mix_seed(MASTER_SEED, 4))
    sizes = rng.integers(1, 9, size=10)
    families = [
        [rng.standard_normal((3, 3)) for _ in range(int(k))] for k in sizes
    ]
    thetas = {"identity": cw.SpdMatrix.identity(3),
              "diag123": cw.SpdMatrix.diagonal([1.0, 2.0, 3.0])}
    runs = {}
    for i, family in enumerate(families):
        for theta_name, theta in thetas.items():
            report = cw.check_chaos_decoupling(
                family, theta, 10**5,
                mix_seed(mix_seed(MASTER_SEED, 40 + i), len(theta_name)),
                workers,
            )
            runs[f"family{i}_{theta_name}"] = report.to_dict()
    return {"runs": runs, "holds": all(r["holds"] for r in runs.values())}


@lru_cache(maxsize=None)
def criterion_5(workers):
    # Two-sided sandwich on 100 seeded 6x6 Gaussian matrices.
    rng = cw.generator(mix_seed(MASTER_SEED, 5))
    certs = []
    lower_ok = True
    for _ in range(100):
        cert = cw.certify_norm_bound(rng.standard_normal((6, 6)))
        lower_ok = lower_ok and cert.reg_max <= cert.exact_norm + 1e-12
        certs.append(cert.to_dict())
    return {
        "factor": 12 * cw.log_factor(6),
        "certificates": certs,
        "upper_holds": all(c["holds"] for c in certs),
        "lower_holds": lower_ok,
        "holds": lower_ok and all(c["holds"] for c in certs),
    }


@lru_cache(maxsize=None)
def criterion_6(workers):
    # The cells the certificates enumerate, by support size s: each regular x of
    # R^p up to sign, once, so 2 count(s) = C(p, s) 2^s and no cell is x = 0.
    counts_ok = True
    totals_ok = True
    for p in range(1, 11):
        _, _, s_left, s_right, blocks = netcert._half_tables(p, netcert._BLOCK_CELLS)
        counts = np.zeros(p + 1, dtype=np.int64)
        for rows, cols in blocks:
            s = (s_left[rows, None] + s_right[cols]).astype(np.int64)
            counts += np.bincount(s.ravel(), minlength=p + 1)
        counts = counts.tolist()
        counts_ok = counts_ok and counts[0] == 0 and all(
            2 * counts[s] == math.comb(p, s) * 2**s for s in range(1, p + 1))
        totals_ok = totals_ok and 2 * sum(counts) == 3**p - 1
    return {"counts_ok": counts_ok, "totals_ok": totals_ok,
            "holds": counts_ok and totals_ok}


@lru_cache(maxsize=None)
def criterion_7(workers):
    model = cw.WishartModel(3, 16, cw.SpdMatrix.identity(3), cw.ShapeSpec.identity())
    direction = cw.RegularVector(3, 1, (0,), (1,)).to_array()
    t_grid = (0.0, 0.1, 0.2, 0.3, 0.4)
    trials = 10**5
    report = cw.check_concentration(
        model, direction, t_grid, trials, mix_seed(MASTER_SEED, 7), workers
    )
    violations = count_lipschitz_violations(
        model, direction, 1000, mix_seed(MASTER_SEED, 70), workers
    )
    all_points_asserted = all(report.asserted)
    return {
        "concentration": report.to_dict(),
        "all_points_asserted": all_points_asserted,
        "lipschitz_violations": violations,
        "holds": report.holds and all_points_asserted and violations == 0,
    }


@lru_cache(maxsize=None)
def criterion_8(workers):
    sweep = sweep_scaling(
        4, [16, 64, 256, 1024], cw.identity_family, cw.SpdMatrix.identity(4),
        2000, mix_seed(MASTER_SEED, 8), workers,
    )
    d = sweep.to_dict()
    d["holds"] = (not sweep.degenerate) and -0.6 <= sweep.slope <= -0.4
    return d


@lru_cache(maxsize=None)
def criterion_9(workers):
    report = cw.check_linear_form_std(
        cw.SpdMatrix.diagonal([4.0, 1.0]), [1.0, 1.0], 10**5,
        mix_seed(MASTER_SEED, 9), workers,
    )
    d = report.to_dict()
    d["target_is_sqrt5"] = abs(report.target - math.sqrt(5.0)) < 1e-12
    d["holds"] = report.holds and d["target_is_sqrt5"]
    return d


CRITERIA = {
    1: ("expectation-formula", criterion_1,
        lambda r: r["holds"], 60.0),
    2: ("bound-dominance-grid", criterion_2,
        lambda r: r["holds"] and r["max_ratio"] < 1.0, 600.0),
    3: ("wishart-decoupling-grid", criterion_3,
        lambda r: r["holds"], None),
    4: ("chaos-decoupling", criterion_4,
        lambda r: r["holds"] and len(r["runs"]) == 20, None),
    5: ("regular-vector-certificates", criterion_5,
        lambda r: r["holds"] and len(r["certificates"]) == 100, 120.0),
    6: ("regular-vector-counts", criterion_6,
        lambda r: r["holds"], None),
    7: ("concentration-tail", criterion_7,
        lambda r: r["holds"], None),
    8: ("scaling-slope", criterion_8,
        lambda r: r["holds"], 300.0),
    9: ("linear-form-std", criterion_9,
        lambda r: r["holds"], None),
}


# Summaries printed after a criterion's ACCEPTANCE status: the mean/bound
# ratios of criterion 2 and the middle links 2 E||W'|| / bound of criterion 3.
LINE_DETAILS = {
    2: lambda r: " ratios: min=%.3e median=%.3e max=%.3e"
                 % (r["min_ratio"], r["median_ratio"], r["max_ratio"]),
    3: lambda r: " 2 E||W'||/bound: min=%.3e median=%.3e max=%.3e"
                 % (r["min_link"], r["median_link"], r["max_link"]),
}


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number):
    name, builder, ok_fn, limit = CRITERIA[number]
    _run(number, name, builder, ok_fn, limit)


@pytest.mark.parametrize("change", [lambda blocks: blocks[:-1], lambda blocks: blocks + blocks[:1]],
                         ids=["block-dropped", "block-repeated"])
def test_criterion_6_rejects_a_wrong_cell_set(change, monkeypatch):
    tables = netcert._half_tables
    monkeypatch.setattr(netcert, "_half_tables",
                        lambda p, cells: (*tables(p, cells)[:-1], change(tables(p, cells)[-1])))
    assert criterion_6.__wrapped__(1)["holds"] is False


def test_criterion_10_reproducibility(monkeypatch):
    # Rerunning every criterion with a different worker count must produce
    # byte-identical JSON reports, each rerun well under 20 s.  Every summary
    # shape (scalar, (2,), (6,), (3, 3)) spans two blocks or more, so every shape
    # is merged.  No block here is heavy enough for the thread pool, so the
    # floor is set to 0: both workers run wherever 4 blocks or more leave two
    # after the timed ones.
    merged, merge = set(), verify._Summary.merge
    monkeypatch.setattr(verify._Summary, "merge", lambda a, b: merged.add(a.total.shape)
                        or merge(a, b))
    pools, pool = [], concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(verify, "_POOL_MIN_BLOCK_S", 0.0)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda max_workers: pools.append(max_workers) or pool(max_workers))
    start = time.perf_counter()
    ok = True
    for number, (name, builder, _, _) in sorted(CRITERIA.items()):
        base = canonical_dumps(builder(1))
        rerun_start = time.perf_counter()
        rerun = canonical_dumps(builder(2))
        assert time.perf_counter() - rerun_start < 20.0, f"criterion {number} rerun too slow"
        same = base == rerun
        ok = ok and same
        assert same, f"criterion {number} ({name}) reports differ across worker counts"
    _report_line(10, "reproducibility", ok, time.perf_counter() - start)
    assert ok
    assert {(), (2,), (6,), (3, 3)} <= merged, merged
    assert pools and set(pools) == {2}
