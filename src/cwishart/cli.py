"""Command-line interface: reproducible, file-driven experiments.

Commands: sample, bound, verify, netcert, sweep.  Parameters come from a JSON
config file (with a "command" field); command-line flags win over the file.
All randomness flows from the single seed; WISHART_THREADS sets how many
threads run Monte Carlo trial blocks and affects speed only, never results.

Exit codes: 0 success with all checks holding, 1 at least one check failing,
2 config/usage error, 3 resource/cap error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bounds import KappaConvention, deviation_bound
from .errors import EnumerationCapError, NotAchievableError, WishartError
from .linalg import (
    SpdMatrix,
    canonical_dumps,
    check_floats,
    check_int,
    dumps_matrix,
    load_matrix,
    matrix_from_dict,
    mix_seed,
)
from .model import (
    WishartModel,
    identity_family,
    load_model,
    model_from_dict,
    normalized_diagonal_family,
    sample_decoupled,
    sample_wishart,
    skew_block_family,
)
from .netcert import certify_norm_bound
from .verify import (
    SweepRow,
    TrialConfig,
    check_bound_dominance,
    check_chaos_decoupling,
    check_concentration,
    check_expectation,
    check_linear_form_std,
    check_wishart_decoupling,
    emit_report,
    empirical_sample_complexity,
    identity_theta_rule,
    sweep_scaling,
)

COMMANDS = ("sample", "bound", "verify", "netcert", "sweep")
CHECKS = ("expectation", "dominance", "decoupling", "chaos", "stddev", "concentration")

# Default trial counts: norm-level checks vs scalar-level checks.
_NORM_TRIALS = 2000
_SCALAR_TRIALS = 100_000


class ConfigError(Exception):
    """Configuration or usage problem; maps to exit code 2."""


# Everything main maps to exit code 2; anything else is a bug and propagates.
USAGE_ERRORS = (ConfigError, WishartError, ValueError, OSError)


def _workers() -> int:
    raw = os.environ.get("WISHART_THREADS")
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError as exc:
        raise ConfigError(f"WISHART_THREADS must be an integer, got {raw!r}") from exc


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwishart",
        description="Simulate compound Wishart matrices, evaluate the deviation "
        "bound, and verify its ingredients by Monte Carlo.",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="command to run (may also come from the config file)")
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--seed", type=int, help="master seed (unsigned 64-bit)")
    parser.add_argument("--trials", type=int, help="number of Monte Carlo trials")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--convention", choices=[c.value for c in KappaConvention],
                        help="kappa convention for bounds")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config file must contain a JSON object")
    for key in ("command", "seed", "trials", "out", "convention"):
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    if not cfg.get("command"):
        raise ConfigError("no command given (positional argument or \"command\" in config)")
    if cfg["command"] not in COMMANDS:
        raise ConfigError(f"unknown command {cfg['command']!r}; valid: {', '.join(COMMANDS)}")
    return cfg


def _load_model_from(cfg: dict) -> WishartModel:
    if "model" in cfg:
        return model_from_dict(cfg["model"])
    if "model_path" in cfg:
        path = cfg["model_path"]
        if not isinstance(path, str) or not os.path.exists(path):
            raise ConfigError(f"model file not found: {path}")
        return load_model(path)
    raise ConfigError("config needs a \"model\" object or a \"model_path\"")


def _seed(cfg: dict) -> int:
    return check_int(cfg.get("seed", 0), "seed")


def _trials(cfg: dict, default: int) -> int:
    return check_int(cfg.get("trials", default), "trials")


def _convention(cfg: dict) -> KappaConvention:
    return KappaConvention(cfg.get("convention", KappaConvention.FROBENIUS.value))


def _list(cfg: dict, key: str) -> list:
    value = cfg.get(key)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"\"{key}\" must be a nonempty list, got {value!r:.80}")
    return value


def _family(cfg: dict):
    fam = cfg.get("family", {"variant": "identity"})
    if not isinstance(fam, dict):
        raise ConfigError(f"\"family\" must be an object, got {fam!r:.80}")
    variant = fam.get("variant")
    if variant == "identity":
        return identity_family
    if variant == "skew_block":
        return skew_block_family
    if variant == "diagonal":
        return normalized_diagonal_family(check_int(fam.get("seed", _seed(cfg)), "family seed"))
    raise ConfigError(
        f"unknown family variant {variant!r}; valid: identity, skew_block, diagonal"
    )


def _digest_config(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if k != "out"}


def _out_dir(cfg: dict) -> Path:
    out = cfg.get("out")
    if out is None:
        raise ConfigError("this command needs an output directory (--out)")
    if not isinstance(out, str):
        raise ConfigError(f"\"out\" must be a directory path, got {out!r:.80}")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(cfg: dict, filename: str, lines: list[str]) -> None:
    """Print ``lines`` and, when the config names an output directory, write them there."""
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if cfg.get("out"):
        (_out_dir(cfg) / filename).write_text(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_sample(cfg: dict) -> int:
    model = _load_model_from(cfg)
    trials = _trials(cfg, 1)
    seed = _seed(cfg)
    out = _out_dir(cfg)
    for i in range(trials):
        trial_seed = mix_seed(seed, i)
        with open(out / f"W.{i:03d}.json", "w", encoding="utf-8") as fh:
            fh.write(dumps_matrix(sample_wishart(model, trial_seed)) + "\n")
        if cfg.get("decoupled"):
            with open(out / f"Wprime.{i:03d}.json", "w", encoding="utf-8") as fh:
                fh.write(dumps_matrix(sample_decoupled(model, trial_seed)) + "\n")
    return 0


def cmd_bound(cfg: dict) -> int:
    model = _load_model_from(cfg)
    report = deviation_bound(model, _convention(cfg))
    _emit(cfg, "bound.json", [canonical_dumps(report.to_dict())])
    return 0


def _run_check(cfg: dict, workers: int) -> dict:
    check = cfg.get("check")
    if check not in CHECKS:
        raise ConfigError(f"unknown check {check!r}; valid: {', '.join(CHECKS)}")
    seed = _seed(cfg)
    if check in ("expectation", "dominance", "decoupling"):
        trial_cfg = TrialConfig(_load_model_from(cfg), _trials(cfg, _NORM_TRIALS), seed)
        if check == "expectation":
            return check_expectation(trial_cfg, workers).to_dict()
        if check == "dominance":
            return check_bound_dominance(trial_cfg, _convention(cfg), workers).to_dict()
        return check_wishart_decoupling(trial_cfg, workers).to_dict()
    if check == "concentration":
        return check_concentration(
            _load_model_from(cfg), check_floats(cfg.get("direction"), "direction"),
            check_floats(cfg.get("t_grid"), "t_grid"), _trials(cfg, _SCALAR_TRIALS), seed,
            workers,
        ).to_dict()
    if "theta" not in cfg:
        raise ConfigError(f"{check} check needs \"theta\"")
    theta = SpdMatrix(matrix_from_dict(cfg["theta"]))
    if check == "chaos":
        matrices = [matrix_from_dict(m) for m in _list(cfg, "matrices")]
        return check_chaos_decoupling(
            matrices, theta, _trials(cfg, _SCALAR_TRIALS), seed, workers
        ).to_dict()
    return check_linear_form_std(
        theta, check_floats(cfg.get("a"), "a"), _trials(cfg, _SCALAR_TRIALS), seed, workers
    ).to_dict()


def cmd_verify(cfg: dict) -> int:
    payload = _run_check(cfg, _workers())
    report = emit_report(cfg["check"], _digest_config(cfg), _seed(cfg), payload)
    _emit(cfg, f"verify_{cfg['check']}.json", [canonical_dumps(report)])
    return 0 if payload.get("holds", True) else 1


def cmd_netcert(cfg: dict) -> int:
    certs = []
    for path in _list(cfg, "inputs"):
        if not isinstance(path, str) or not os.path.exists(path):
            raise ConfigError(f"matrix file not found: {path!r:.80}")
        certs.append(certify_norm_bound(load_matrix(path), matrix_id=os.path.basename(path)))
    _emit(cfg, "certificates.jsonl", [canonical_dumps(c.to_dict()) for c in certs])
    return 0 if all(c.holds for c in certs) else 1


def _csv_text(rows: list[SweepRow]) -> str:
    lines = ["p,n,mean,stderr,bound,ratio"]
    lines += [f"{r.p},{r.n},{r.mean!r},{r.stderr!r},{r.bound!r},{r.ratio!r}" for r in rows]
    return "\n".join(lines) + "\n"


def cmd_sweep(cfg: dict) -> int:
    kind = cfg.get("sweep", "scaling")
    workers = _workers()
    seed = _seed(cfg)
    out = _out_dir(cfg)
    if kind == "scaling":
        n_grid = _list(cfg, "n_grid")
        p = check_int(cfg.get("p", 0), "p")
        if p < 1:
            raise ConfigError("scaling sweep needs a positive \"p\"")
        theta = (
            SpdMatrix(matrix_from_dict(cfg["theta"]))
            if "theta" in cfg
            else SpdMatrix.identity(p)
        )
        sweep = sweep_scaling(
            p, n_grid, _family(cfg), theta, _trials(cfg, _NORM_TRIALS), seed, workers
        )
        rows = list(sweep.rows)
        summary = {"sweep": "scaling", "slope": sweep.slope, "degenerate": sweep.degenerate}
    elif kind == "complexity":
        tolerance = cfg.get("tolerance")
        if not isinstance(tolerance, (int, float)) or isinstance(tolerance, bool):
            raise ConfigError(f"\"tolerance\" must be a number, got {tolerance!r:.80}")
        table = empirical_sample_complexity(
            [check_int(p, "p_grid entry") for p in _list(cfg, "p_grid")], float(tolerance),
            _family(cfg), identity_theta_rule, _trials(cfg, _NORM_TRIALS), seed, workers,
        )
        rows = [row.stats for row in table.rows]
        summary = {"sweep": "complexity", "table": table.to_dict()}
    else:
        raise ConfigError(f"unknown sweep kind {kind!r}; valid: scaling, complexity")

    (out / "sweep.csv").write_text(_csv_text(rows))
    _emit(cfg, "summary.json",
          [canonical_dumps(emit_report(f"sweep_{kind}", _digest_config(cfg), seed, summary))])
    return 0


DISPATCH = {
    "sample": cmd_sample,
    "bound": cmd_bound,
    "verify": cmd_verify,
    "netcert": cmd_netcert,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        return DISPATCH[cfg["command"]](cfg)
    except (EnumerationCapError, NotAchievableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
