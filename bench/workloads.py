"""The benchmark's three workloads: inputs built from the seed, and their operations.

An operation is one check call, one certificate or one CLI command.  Each
workload is a fixed list of operations.  The seed changes values (Monte Carlo
master seeds, random matrices); sizes, trial counts and the list itself never
change, so every seed does the same work.

Trial counts are cut from the acceptance suite's so that one round of a
workload takes a few seconds; the configurations (p, n, shapes, theta,
directions, grids) are the acceptance suite's.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from typing import Callable

import numpy as np

import checks
from cwishart import bounds, cli, linalg, model, netcert, verify

# Family sizes of acceptance criterion 4, drawn there from its own master seed.
CHAOS_FAMILY_SIZES = (5, 3, 8, 5, 6, 6, 6, 4, 4, 8)

# Near-degenerate custom shape matrices: top two singular values 1e-6 apart.
# They and their Monte Carlo seeds are fixed, not drawn from the workload
# seed, so the same operations fail in every run (see README, "Failing ops").
DEGENERATE_SIZES = (200, 512)
DEGENERATE_GAP = 1e-6
SIGMA_FAULT = frozenset({"bound.sigma", "bound.bound_value"})


def sub_seed(seed: int, *tags: int) -> int:
    """A 64-bit seed for one input, derived from the workload seed and tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1, np.uint64)[0])


def report_of(result):
    """The JSON form of a library result: its ``to_dict``, or the value itself."""
    return result.to_dict() if hasattr(result, "to_dict") else result


@dataclass
class Op:
    """One operation: ``run`` is timed; ``snapshot`` and ``check`` are not.

    ``trials`` counts Monte Carlo trials and sample draws per call; it is an
    int, or a function of the snapshot when the program chooses the count.
    ``known_fault`` names the problem fields that a known program fault
    produces: an op whose every problem is in it counts as failed, not wrong.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    trials: int | Callable[[object], int] = 0
    snapshot: Callable[[object], object] = report_of
    known_fault: frozenset = field(default_factory=frozenset)


@dataclass
class Workload:
    ops: list
    warmup: Op


def _spd(rng, p: int) -> np.ndarray:
    a = rng.standard_normal((p, p))
    return a @ a.T / p + np.eye(p)


def _gapped_matrix(rng, n: int, top: float, second: float, rest_high: float) -> np.ndarray:
    """Dense n x n matrix with singular values top, second and the rest below rest_high."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.sort(rng.uniform(0.05, rest_high, n))[::-1]
    s[0], s[1] = top, second
    return (u * s) @ v.T


def _model_inputs(m) -> tuple:
    """(B, theta, Tr B) of a model, B built by the benchmark from the model's description."""
    spec = m.shape
    b = checks.shape_matrix(spec.variant, m.n, spec.entries, spec.matrix)
    return b, np.array(m.theta.array), float(np.trace(b))


# ---------------------------------------------------------------------------
# scalar-mc: criteria 1, 4, 7 and 9 at workers=1
# ---------------------------------------------------------------------------

EXPECTATION_TRIALS = 10_000
CHAOS_TRIALS = 500
CONCENTRATION_TRIALS = 20_000
LIPSCHITZ_PAIRS = 1000
LINEAR_FORM_TRIALS = 20_000


def scalar_mc(seed: int, workdir: str) -> Workload:
    ops = []

    theta1 = linalg.SpdMatrix.diagonal([1.0, 2.0, 3.0])
    m1 = model.WishartModel(3, 10, theta1, model.ShapeSpec.diagonal([10.0] + [0.0] * 9))
    cfg1 = verify.TrialConfig(m1, EXPECTATION_TRIALS, sub_seed(seed, 1))
    ops.append(Op(
        "expectation", lambda: verify.check_expectation(cfg1, 1),
        lambda r: checks.check_expectation(r, 10.0, 10, theta1.array, EXPECTATION_TRIALS),
        EXPECTATION_TRIALS,
    ))

    rng = np.random.default_rng(sub_seed(seed, 4))
    thetas = {"identity": linalg.SpdMatrix.identity(3),
              "diag123": linalg.SpdMatrix.diagonal([1.0, 2.0, 3.0])}
    for i, size in enumerate(CHAOS_FAMILY_SIZES):
        family = [rng.standard_normal((3, 3)) for _ in range(size)]
        for name, theta in thetas.items():
            s = sub_seed(seed, 40 + i, len(name))
            ops.append(Op(
                f"chaos.family{i}.{name}",
                lambda f=family, t=theta, s=s: verify.check_chaos_decoupling(f, t, CHAOS_TRIALS, s, 1),
                lambda r: checks.check_decoupling(r, CHAOS_TRIALS),
                CHAOS_TRIALS,
            ))

    m7 = model.WishartModel(3, 16, linalg.SpdMatrix.identity(3), model.ShapeSpec.identity())
    direction = np.array([1.0, 0.0, 0.0])
    t_grid = (0.0, 0.1, 0.2, 0.3, 0.4)
    s7, s70 = sub_seed(seed, 7), sub_seed(seed, 70)
    ops.append(Op(
        "concentration",
        lambda: verify.check_concentration(m7, direction, t_grid, CONCENTRATION_TRIALS, s7, 1),
        lambda r: checks.check_concentration(r, 3, 16, np.eye(16), CONCENTRATION_TRIALS),
        CONCENTRATION_TRIALS,
    ))
    lipschitz = Op(
        "lipschitz",
        lambda: verify.count_lipschitz_violations(m7, direction, LIPSCHITZ_PAIRS, s70, 1),
        checks.check_lipschitz, LIPSCHITZ_PAIRS,
    )
    ops.append(lipschitz)

    theta9 = linalg.SpdMatrix.diagonal([4.0, 1.0])
    a9 = np.array([1.0, 1.0])
    s9 = sub_seed(seed, 9)
    ops.append(Op(
        "linear_form_std",
        lambda: verify.check_linear_form_std(theta9, a9, LINEAR_FORM_TRIALS, s9, 1),
        lambda r: checks.check_linear_form(r, theta9.array, a9, LINEAR_FORM_TRIALS),
        LINEAR_FORM_TRIALS,
    ))
    return Workload(ops, warmup=lipschitz)


# ---------------------------------------------------------------------------
# norm-mc: the criteria 2/3 grid, dense custom B, criterion 8, certificates
# ---------------------------------------------------------------------------

GRID_TRIALS = 200
CUSTOM_TRIALS = 200
CUSTOM_SIZES = (96, 160, 256)
SWEEP_TRIALS = 500
SWEEP_GRID = (16, 64, 256, 1024)
CERT_SIZES = (6, 6, 6, 6, 8, 10, 12)
BRUTE_FORCE_MAX_P = 6
REFERENCE_TRIALS = 2000
# Cells whose program mean is compared with the benchmark's own Monte Carlo.
REFERENCE_CELLS = {(2, 8, "identity"), (4, 32, "skew_block"), (8, 128, "diagonal"),
                   (4, 96, "custom")}


def _dominance_op(name, m, trials, mc_seed, ref_seed=None, known_fault=frozenset()) -> Op:
    cfg = verify.TrialConfig(m, trials, mc_seed)

    def check(r):
        b, theta, _ = _model_inputs(m)
        out = checks.check_dominance(r, checks.reference_bound(m.p, m.n, b, theta), trials)
        if ref_seed is not None:
            ref = checks.reference_mean_deviation(m.p, m.n, b, theta, REFERENCE_TRIALS, ref_seed)
            out += checks.check_against_reference(r["empirical"], ref)
        return out

    return Op(name, lambda: verify.check_bound_dominance(cfg, workers=1), check, trials,
              known_fault=known_fault)


def norm_mc(seed: int, workdir: str) -> Workload:
    ops = []
    diagonal = model.normalized_diagonal_family(sub_seed(seed, 2))
    for p in (2, 4, 8):
        for n in (8, 32, 128):
            for k, kind in enumerate(("identity", "skew_block", "diagonal")):
                shape = {"identity": model.ShapeSpec.identity,
                         "skew_block": model.ShapeSpec.skew_block,
                         "diagonal": lambda: diagonal(n)}[kind]()
                m = model.WishartModel(p, n, linalg.SpdMatrix.identity(p), shape)
                s = sub_seed(seed, 3, p, n, k)
                ref = sub_seed(seed, 30, p, n, k) if (p, n, kind) in REFERENCE_CELLS else None
                ops.append(_dominance_op(f"dominance.p{p}_n{n}_{kind}", m, GRID_TRIALS, s, ref))
                cfg = verify.TrialConfig(m, GRID_TRIALS, s)
                ops.append(Op(
                    f"decoupling.p{p}_n{n}_{kind}",
                    lambda cfg=cfg: verify.check_wishart_decoupling(cfg, 1),
                    lambda r: checks.check_decoupling(r, GRID_TRIALS), GRID_TRIALS,
                ))

    rng = np.random.default_rng(sub_seed(seed, 6))
    for n in CUSTOM_SIZES:
        b = _gapped_matrix(rng, n, 1.0, 0.8, 0.8)
        theta = linalg.SpdMatrix(_spd(rng, 4))
        m = model.WishartModel(4, n, theta, model.ShapeSpec.custom(b))
        ref = sub_seed(seed, 60, n) if (4, n, "custom") in REFERENCE_CELLS else None
        ops.append(_dominance_op(f"dominance.custom_n{n}", m, CUSTOM_TRIALS,
                                 sub_seed(seed, 61, n), ref))
    for n in DEGENERATE_SIZES:
        b = _gapped_matrix(np.random.default_rng([77, n, 0]), n, 1.0, 1.0 - DEGENERATE_GAP, 0.5)
        m = model.WishartModel(4, n, linalg.SpdMatrix.identity(4), model.ShapeSpec.custom(b))
        ops.append(_dominance_op(f"dominance.degenerate_n{n}", m, CUSTOM_TRIALS,
                                 sub_seed(0, 62, n), known_fault=SIGMA_FAULT))

    theta4 = linalg.SpdMatrix.identity(4)
    s8 = sub_seed(seed, 8)
    ops.append(Op(
        "sweep_scaling",
        lambda: verify.sweep_scaling(4, SWEEP_GRID, model.identity_family, theta4,
                                     SWEEP_TRIALS, s8, 1),
        lambda r: checks.check_sweep(r, 4, SWEEP_GRID, np.eye(4), SWEEP_TRIALS),
        SWEEP_TRIALS * len(SWEEP_GRID),
    ))

    rng = np.random.default_rng(sub_seed(seed, 5))
    for i, p in enumerate(CERT_SIZES):
        a = rng.standard_normal((p, p))
        ops.append(Op(
            f"certificate.{i}.p{p}", lambda a=a: netcert.certify_norm_bound(a),
            lambda r, a=a: checks.check_certificate(r, a, a.shape[0] <= BRUTE_FORCE_MAX_P),
        ))
    return Workload(ops, warmup=ops[0])


# ---------------------------------------------------------------------------
# cli-files: cli.main over model, matrix and config files
# ---------------------------------------------------------------------------

CLI_WORKERS = min(2, os.cpu_count() or 1)
SAMPLE_DRAWS = 32
VERIFY_TRIALS = {"dominance": 400, "decoupling": 300, "stddev": 4000}
CLI_SWEEP_GRID = (16, 64, 256)
CLI_SWEEP_TRIALS = 300
# Tolerance 0.44 sits several standard errors from the mean deviation at
# every n of the doubling search, so the accepted n (32 for p=2, 64 for
# p=3) and with it the work do not depend on the seed.
COMPLEXITY = {"p_grid": [2, 3], "tolerance": 0.44, "trials": 200}


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str
    files: dict


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _read_files(directory: str) -> dict:
    if not os.path.isdir(directory):
        return {}
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "r", encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


def _cli_op(name, cfg: dict, config_path: str, check, trials=0) -> Op:
    """``cli.main`` on ``cfg`` written to ``config_path``; output files are read from cfg["out"]."""
    _write_json(config_path, cfg)
    argv = [cfg["command"], "--config", config_path]
    out_dir = cfg.get("out")

    def run():
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def snapshot(result):
        code, stdout, stderr = result
        return CliOutput(code, stdout, stderr, _read_files(out_dir) if out_dir else {})

    def full_check(o: CliOutput):
        return checks.check_exit(o.code) + check(o)

    return Op(name, run, full_check, trials, snapshot)


def _digest_config(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if k != "out"}


def _envelope(name: str, cfg: dict, payload: dict) -> str:
    return linalg.canonical_dumps(
        verify.emit_report(name, _digest_config(cfg), cfg["seed"], payload))


def cli_files(seed: int, workdir: str) -> Workload:
    os.environ["WISHART_THREADS"] = str(CLI_WORKERS)
    rng = np.random.default_rng(sub_seed(seed, 20))
    path = lambda *parts: os.path.join(workdir, *parts)  # noqa: E731
    os.makedirs(workdir, exist_ok=True)

    m_sample = model.WishartModel(
        6, 48, linalg.SpdMatrix(_spd(rng, 6)),
        model.ShapeSpec.diagonal(rng.uniform(0.5, 1.5, 48)))
    m_dom = model.WishartModel(
        4, 32, linalg.SpdMatrix.diagonal(rng.uniform(0.5, 2.0, 4)), model.ShapeSpec.skew_block())
    m_custom = model.WishartModel(
        3, 80, linalg.SpdMatrix.identity(3),
        model.ShapeSpec.custom(_gapped_matrix(rng, 80, 1.0, 0.8, 0.8)))
    models = {"sample": m_sample, "dom": m_dom, "custom": m_custom}
    for key, m in models.items():
        _write_json(path(f"model_{key}.json"), model.model_to_dict(m))
    seeds = {k: sub_seed(seed, 21, i) for i, k in enumerate(
        ("sample", "dominance", "decoupling", "stddev", "scaling", "complexity"))}

    ops = []
    samples = path("samples")
    cfg = {"command": "sample", "model_path": path("model_sample.json"),
           "trials": SAMPLE_DRAWS, "seed": seeds["sample"], "out": samples, "decoupled": True}

    def check_sample(o: CliOutput, cfg=cfg):
        m = model.load_model(cfg["model_path"])
        out = []
        for i in range(SAMPLE_DRAWS):
            s = linalg.mix_seed(cfg["seed"], i)
            for prefix, sampler in (("W", model.sample_wishart), ("Wprime", model.sample_decoupled)):
                name = f"{prefix}.{i:03d}.json"
                out += checks.check_bytes(name, o.files.get(name),
                                          linalg.dumps_matrix(sampler(m, s)) + "\n")
        out += checks.check_draw(o.files.get("W.000.json"), o.files.get("Wprime.000.json"),
                                 m.p, m.n, *_model_inputs(m)[:2], linalg.mix_seed(cfg["seed"], 0),
                                 linalg.mix_seed)
        return out

    ops.append(_cli_op("sample", cfg, path("cfg_sample.json"), check_sample, 2 * SAMPLE_DRAWS))

    for key, convention, out_dir in (("sample", "frobenius", path("bound")),
                                     ("custom", "ratio", None)):
        cfg = {"command": "bound", "model_path": path(f"model_{key}.json"),
               "convention": convention}
        if out_dir:
            cfg["out"] = out_dir

        def check_bound(o: CliOutput, cfg=cfg):
            m = model.load_model(cfg["model_path"])
            report = bounds.deviation_bound(m, cfg["convention"]).to_dict()
            text = linalg.canonical_dumps(report) + "\n"
            out = checks.check_bytes("stdout", o.stdout, text)
            if "out" in cfg:
                out += checks.check_bytes("bound.json", o.files.get("bound.json"), text)
            b, theta, _ = _model_inputs(m)
            return out + checks.check_bound(
                report, checks.reference_bound(m.p, m.n, b, theta, cfg["convention"]))

        ops.append(_cli_op(f"bound.{key}.{convention}", cfg, path(f"cfg_bound_{key}.json"),
                           check_bound))
    warmup = ops[-1]

    theta3 = _spd(rng, 3)
    a3 = rng.standard_normal(3)
    verify_cfgs = {
        "dominance": {"model_path": path("model_dom.json")},
        "decoupling": {"model_path": path("model_sample.json")},
        "stddev": {"theta": linalg.matrix_to_dict(theta3), "a": [float(v) for v in a3]},
    }
    for check_name, extra in verify_cfgs.items():
        trials = VERIFY_TRIALS[check_name]
        cfg = {"command": "verify", "check": check_name, "trials": trials,
               "seed": seeds[check_name], "out": path(f"verify_{check_name}"), **extra}

        def check_verify(o: CliOutput, cfg=cfg, trials=trials):
            name = cfg["check"]
            if name == "stddev":
                theta = linalg.SpdMatrix(linalg.matrix_from_dict(cfg["theta"]))
                result = verify.check_linear_form_std(theta, cfg["a"], trials, cfg["seed"], 1)
            else:
                m = model.load_model(cfg["model_path"])
                tc = verify.TrialConfig(m, trials, cfg["seed"])
                result = (verify.check_bound_dominance(tc, workers=1) if name == "dominance"
                          else verify.check_wishart_decoupling(tc, 1))
            # Byte identity makes the library report stand for the CLI's.
            report = result.to_dict()
            text = _envelope(name, cfg, report) + "\n"
            out = checks.check_bytes("stdout", o.stdout, text)
            out += checks.check_bytes(f"verify_{name}.json", o.files.get(f"verify_{name}.json"), text)
            if name == "stddev":
                return out + checks.check_linear_form(report, theta3, a3, trials)
            if name == "decoupling":
                return out + checks.check_decoupling(report, trials)
            b, theta, _ = _model_inputs(m)
            return out + checks.check_dominance(
                report, checks.reference_bound(m.p, m.n, b, theta), trials)

        ops.append(_cli_op(f"verify.{check_name}", cfg, path(f"cfg_verify_{check_name}.json"),
                           check_verify, trials))

    inputs = [os.path.join(samples, f"W.{i:03d}.json") for i in range(SAMPLE_DRAWS)]
    cfg = {"command": "netcert", "inputs": inputs, "out": path("netcert")}

    def check_netcert(o: CliOutput, cfg=cfg):
        out, lines = [], []
        for p in cfg["inputs"]:
            a = linalg.load_matrix(p)
            cert = netcert.certify_norm_bound(a, matrix_id=os.path.basename(p)).to_dict()
            lines.append(linalg.canonical_dumps(cert))
            out += [f"{os.path.basename(p)}.{x}" for x in
                    checks.check_certificate(cert, a, a.shape[0] <= BRUTE_FORCE_MAX_P)]
        text = "\n".join(lines) + "\n"
        out += checks.check_bytes("stdout", o.stdout, text)
        return out + checks.check_bytes("certificates.jsonl", o.files.get("certificates.jsonl"), text)

    ops.append(_cli_op("netcert", cfg, path("cfg_netcert.json"), check_netcert))

    cfg = {"command": "sweep", "sweep": "scaling", "p": 4, "n_grid": list(CLI_SWEEP_GRID),
           "family": {"variant": "identity"}, "trials": CLI_SWEEP_TRIALS,
           "seed": seeds["scaling"], "out": path("sweep_scaling")}

    def check_scaling(o: CliOutput, cfg=cfg):
        sweep = verify.sweep_scaling(4, cfg["n_grid"], model.identity_family,
                                     linalg.SpdMatrix.identity(4), cfg["trials"], cfg["seed"], 1)
        text = _envelope("sweep_scaling", cfg, {"sweep": "scaling", "slope": sweep.slope,
                                                "degenerate": sweep.degenerate}) + "\n"
        out = checks.check_bytes("stdout", o.stdout, text)
        out += checks.check_bytes("summary.json", o.files.get("summary.json"), text)
        out += checks.check_bytes("sweep.csv", o.files.get("sweep.csv"),
                                  _csv([r.to_dict() for r in sweep.rows]))
        return out + checks.check_sweep(sweep.to_dict(), 4, CLI_SWEEP_GRID, np.eye(4),
                                        cfg["trials"])

    ops.append(_cli_op("sweep.scaling", cfg, path("cfg_sweep_scaling.json"), check_scaling,
                       CLI_SWEEP_TRIALS * len(CLI_SWEEP_GRID)))

    cfg = {"command": "sweep", "sweep": "complexity", "family": {"variant": "identity"},
           "seed": seeds["complexity"], "out": path("sweep_complexity"), **COMPLEXITY}

    def check_complexity(o: CliOutput, cfg=cfg):
        table = verify.empirical_sample_complexity(
            cfg["p_grid"], cfg["tolerance"], model.identity_family, verify.identity_theta_rule,
            cfg["trials"], cfg["seed"], 1)
        rows = []
        for row in table.rows:
            m = model.WishartModel(row.p, row.empirical_n, linalg.SpdMatrix.identity(row.p),
                                   model.identity_family(row.empirical_n))
            bound = bounds.deviation_bound(m).bound_value
            rows.append({"p": row.p, "n": row.empirical_n, "mean": row.stats.mean,
                         "stderr": row.stats.stderr, "bound": bound,
                         "ratio": row.stats.mean / bound})
        text = _envelope("sweep_complexity", cfg,
                         {"sweep": "complexity", "table": table.to_dict()}) + "\n"
        out = checks.check_bytes("stdout", o.stdout, text)
        out += checks.check_bytes("summary.json", o.files.get("summary.json"), text)
        out += checks.check_bytes("sweep.csv", o.files.get("sweep.csv"), _csv(rows))
        for row in table.rows:
            if row.theoretical_n < row.empirical_n:
                out.append(f"rows[p={row.p}]: theoretical n {row.theoretical_n} "
                           f"< empirical n {row.empirical_n}")
        return out

    def complexity_trials(o: CliOutput) -> int:
        # The doubling search runs one estimate at each n = 1, 2, 4, ..., accepted n.
        rows = json.loads(o.stdout)["table"]["rows"]
        return sum(COMPLEXITY["trials"] * (int(math.log2(r["empirical_n"])) + 1) for r in rows)

    ops.append(_cli_op("sweep.complexity", cfg, path("cfg_sweep_complexity.json"),
                       check_complexity, complexity_trials))
    return Workload(ops, warmup=warmup)


def _csv(rows: list) -> str:
    lines = ["p,n,mean,stderr,bound,ratio"]
    lines += [f"{r['p']},{r['n']},{r['mean']!r},{r['stderr']!r},{r['bound']!r},{r['ratio']!r}"
              for r in rows]
    return "\n".join(lines) + "\n"


WORKLOADS = {"scalar-mc": scalar_mc, "norm-mc": norm_mc, "cli-files": cli_files}
