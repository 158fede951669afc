"""Command-line interface: reproducible, file-driven experiments.

Commands: sample, bound, verify, netcert, sweep.  Parameters come from a JSON
config file (with a "command" field); command-line flags win over the file.
All randomness flows from the single seed; WISHART_THREADS, a positive integer,
caps how many threads run Monte Carlo trial blocks: speed only, never results
(the verify module docstring says which checks use more than one).

Exit codes: 0 success with all checks holding, 1 at least one check failing,
2 config/usage error, 3 resource/cap error (running out of memory included).

Commands return their outputs; ``main`` alone writes them, all into ``out`` or
none, then prints the report, so a run that exits 2 prints and changes nothing.
"""
from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from pathlib import Path

from .bounds import KappaConvention, deviation_bound
from .errors import EnumerationCapError, NotAchievableError, WishartError
from .linalg import (
    SpdMatrix,
    canonical_dumps,
    check_int,
    dumps_matrix,
    load_matrix,
    matrix_from_dict,
    mix_seed,
    _write_texts,
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
from .netcert import certify_norm_bounds
from .verify import (
    SweepRow,
    TrialConfig,
    _config_digest,
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


class _ReadKeys(dict):
    """A config that records which of its top-level keys were read (by [] or get)."""

    def __init__(self, cfg: dict):
        super().__init__(cfg)
        self.read: set = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def digest_unread(self) -> None:
        """Digest the keys not read: one holding inf or NaN raises ValueError now.

        A command calls this after reading every key it uses and before its
        first trial; each key it read has had its own check, with its name.
        """
        _config_digest({k: v for k, v in self.items() if k not in self.read})


def _workers() -> int:
    raw = os.environ.get("WISHART_THREADS")
    if not raw:
        return 1
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"WISHART_THREADS must be an integer, got {raw!r}") from exc


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args keeps no state between calls."""
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


def _merge_config(args: argparse.Namespace) -> _ReadKeys:
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
    return _ReadKeys(cfg)


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


def _out_dir(cfg: dict) -> Path | None:
    """The output directory, checked before any work and created after it; None if not given.

    The nearest of ``out`` and its ancestors that is there (a dangling link
    counts) must be a directory.  If it is not, this raises what creating
    ``out`` would, before the work rather than after: FileExistsError when it
    is ``out`` itself or a dangling link, else NotADirectoryError.
    """
    out = cfg.get("out")
    if out is None:
        if cfg["command"] in ("sample", "sweep"):
            raise ConfigError("this command needs an output directory (--out)")
        return None
    if not isinstance(out, str) or not out:
        raise ConfigError(f"\"out\" must be a directory path, got {out!r:.80}")
    path = Path(out)
    nearest = next((a for a in (path, *path.parents) if a.exists() or a.is_symlink()), None)
    if nearest is not None and not nearest.is_dir():
        if nearest == path or not nearest.exists():
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), out)
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), out)
    return path


# ---------------------------------------------------------------------------
# Commands: each returns (exit code, [(file name, text), ...]), the report last
# ---------------------------------------------------------------------------

def cmd_sample(cfg: dict) -> tuple[int, list]:
    model = _load_model_from(cfg)
    trials = check_int(cfg.get("trials", 1), "trials")
    if trials < 1:
        raise ConfigError(f"sample needs at least 1 draw, got trials = {trials}")
    decoupled = cfg.get("decoupled", False)
    if not isinstance(decoupled, bool):
        raise ConfigError(f"\"decoupled\" must be true or false, got {decoupled!r:.80}")
    seed = _seed(cfg)
    samplers = (("W", sample_wishart), ("Wprime", sample_decoupled))[:1 + decoupled]
    return 0, [(f"{name}.{i:03d}.json", dumps_matrix(draw(model, mix_seed(seed, i))) + "\n")
               for i in range(trials) for name, draw in samplers]


def cmd_bound(cfg: dict) -> tuple[int, list]:
    report = deviation_bound(_load_model_from(cfg), cfg.get("convention", "frobenius"))
    return 0, [("bound.json", canonical_dumps(report.to_dict()) + "\n")]


def _run_check(cfg: _ReadKeys, workers: int) -> dict:
    """The check's payload; its keys are read, and the others digested, before any trial."""
    check = cfg.get("check")
    if check not in CHECKS:
        raise ConfigError(f"unknown check {check!r}; valid: {', '.join(CHECKS)}")
    seed = _seed(cfg)
    if check in ("expectation", "dominance", "decoupling"):
        trial_cfg = TrialConfig(_load_model_from(cfg), cfg.get("trials", _NORM_TRIALS), seed)
        fn = {"expectation": check_expectation, "dominance": check_bound_dominance,
              "decoupling": check_wishart_decoupling}[check]
        run = functools.partial(fn, trial_cfg, workers)
    elif check == "concentration":
        run = functools.partial(check_concentration, _load_model_from(cfg), cfg.get("direction"),
                                cfg.get("t_grid"), cfg.get("trials", _SCALAR_TRIALS), seed,
                                workers)
    else:
        if "theta" not in cfg:
            raise ConfigError(f"{check} check needs \"theta\"")
        theta = SpdMatrix(matrix_from_dict(cfg["theta"]))
        trials = cfg.get("trials", _SCALAR_TRIALS)
        if check == "chaos":
            matrices = [matrix_from_dict(m) for m in _list(cfg, "matrices")]
            run = functools.partial(check_chaos_decoupling, matrices, theta, trials, seed, workers)
        else:
            run = functools.partial(check_linear_form_std, theta, cfg.get("a"), trials, seed,
                                    workers)
    cfg.digest_unread()
    return run().to_dict()


def cmd_verify(cfg: _ReadKeys) -> tuple[int, list]:
    payload = _run_check(cfg, _workers())
    report = emit_report(cfg["check"], _digest_config(cfg), _seed(cfg), payload)
    return (0 if payload.get("holds", True) else 1,
            [(f"verify_{cfg['check']}.json", canonical_dumps(report) + "\n")])


def _load_input(path):
    if not isinstance(path, str) or not os.path.exists(path):
        raise ConfigError(f"matrix file not found: {path!r:.80}")
    return load_matrix(path)


def cmd_netcert(cfg: dict) -> tuple[int, list]:
    paths = _list(cfg, "inputs")
    # The files are read lazily: certify_norm_bounds loads and checks each in list
    # order before certifying any, so the first bad input decides the error (str()
    # keeps a non-string entry from failing here, before its turn).
    certs = certify_norm_bounds(map(_load_input, paths), [os.path.basename(str(p)) for p in paths])
    text = "".join(canonical_dumps(c.to_dict()) + "\n" for c in certs)
    return 0 if all(c.holds for c in certs) else 1, [("certificates.jsonl", text)]


def _csv_text(rows: list[SweepRow]) -> str:
    lines = ["p,n,mean,stderr,bound,ratio"]
    lines += [f"{r.p},{r.n},{r.mean!r},{r.stderr!r},{r.bound!r},{r.ratio!r}" for r in rows]
    return "\n".join(lines) + "\n"


def cmd_sweep(cfg: _ReadKeys) -> tuple[int, list]:
    kind = cfg.get("sweep", "scaling")
    workers = _workers()
    seed = _seed(cfg)
    if kind == "scaling":
        n_grid = _list(cfg, "n_grid")
        p = check_int(cfg.get("p", 0), "p")
        if p < 1:
            raise ConfigError("scaling sweep needs a positive \"p\"")
        theta = (SpdMatrix(matrix_from_dict(cfg["theta"])) if "theta" in cfg
                 else SpdMatrix.identity(p))
        run = functools.partial(sweep_scaling, p, n_grid, _family(cfg), theta,
                                cfg.get("trials", _NORM_TRIALS), seed, workers)
    elif kind == "complexity":
        run = functools.partial(
            empirical_sample_complexity, _list(cfg, "p_grid"), cfg.get("tolerance"),
            _family(cfg), identity_theta_rule, cfg.get("trials", _NORM_TRIALS), seed, workers,
        )
    else:
        raise ConfigError(f"unknown sweep kind {kind!r}; valid: scaling, complexity")
    cfg.digest_unread()
    result = run()
    if kind == "scaling":
        rows = list(result.rows)
        summary = {"sweep": "scaling", "slope": result.slope, "degenerate": result.degenerate}
    else:
        rows = [row.stats for row in result.rows]
        summary = {"sweep": "complexity", "table": result.to_dict()}
    report = canonical_dumps(emit_report(f"sweep_{kind}", _digest_config(cfg), seed, summary))
    return 0, [("sweep.csv", _csv_text(rows)), ("summary.json", report + "\n")]


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
        out = _out_dir(cfg)
        code, outputs = DISPATCH[cfg["command"]](cfg)
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
            _write_texts([(out / name, text) for name, text in outputs])
        if cfg["command"] != "sample":
            sys.stdout.write(outputs[-1][1])
        return code
    except (EnumerationCapError, NotAchievableError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
