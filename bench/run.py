"""Benchmark of cwishart: one workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload {scalar-mc,norm-mc,cli-files} [--seed N]
                         [--seconds S] [--trace 0|1]

Run from a checkout whose ``src/`` holds the package.  The run imports
cwishart from there, builds the workload's inputs from ``--seed`` and runs one
warm-up operation; it does this set-up several times and keeps the median.
It then repeats whole rounds of the workload's fixed operation list until
``--seconds`` have passed, checks every output against the benchmark's own
computations (``checks.py``), and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``tracing.py``, taken in a separate traced run.  Round details go
to ``bench/out/``.
"""
import os

# One BLAS thread, set before numpy loads, so CPU time equals work done.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("scalar-mc", "norm-mc", "cli-files")

# Machine-speed calibration.  This VM's speed drifts by +-15% over minutes
# (CPU time drifts with wall time, so it is not preemption).  A fixed numpy
# loop that does not touch cwishart runs in short slices before every op; the
# op times of a round are scaled by the slices' reference time over their
# measured time.  The loop mixes what the program does: generator set-up,
# small matmuls and a LAPACK call.
CAL_ITERS_PER_ROUND = 5000
CAL_REF_S_PER_ITER = 44e-6  # the loop's median time per iteration on the reference machine


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure whole rounds until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def cpu_seconds() -> float:
    """User plus system time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def digest(snapshot) -> str:
    if dataclasses.is_dataclass(snapshot):
        snapshot = dataclasses.asdict(snapshot)
    text = json.dumps(snapshot, sort_keys=True, default=lambda o: o.tolist())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def calibration_kernel():
    import numpy as np
    a = np.random.default_rng(12345).standard_normal((64, 64))

    def run(iters: int) -> float:
        start = perf_counter()
        for i in range(iters):
            x = np.random.Generator(np.random.PCG64(i)).standard_normal((4, 64))
            w = x @ a @ x.T
            np.linalg.eigvalsh(w + w.T)
        return perf_counter() - start

    return run


def run_round(ops, tracer, calibrate):
    """Run every op once: results, per-op times, CPU time and the round's speed scale."""
    results, op_s, cpu_s, cal_s = [], [], 0.0, 0.0
    slice_iters = -(-CAL_ITERS_PER_ROUND // len(ops))
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for op in ops:
            cal_s += calibrate(slice_iters)
            cpu0, start = cpu_seconds(), perf_counter()
            try:
                results.append((True, op.run()))
            except Exception as exc:  # an op that raises is a failed op; the run goes on
                results.append((False, f"{type(exc).__name__}: {exc}"))
            op_s.append(perf_counter() - start)
            cpu_s += cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    scale = slice_iters * len(ops) * CAL_REF_S_PER_ITER / cal_s
    return results, {"wall_s": sum(op_s), "cpu_s": cpu_s, "cal_s": cal_s, "scale": scale,
                     "op_s": op_s, "layers": tracer.window() if tracer is not None else None}


def measure(ops, seconds: float, tracer):
    """Whole rounds until ``seconds`` have passed: the first round's outputs, and every round."""
    calibrate = calibration_kernel()
    calibrate(CAL_ITERS_PER_ROUND // 10)
    rounds, first = [], None
    deadline = perf_counter() + seconds
    while True:
        results, rec = run_round(ops, tracer, calibrate)
        snaps = [op.snapshot(out) if ok else out for op, (ok, out) in zip(ops, results)]
        rec["raised"] = [not ok for ok, _ in results]
        rec["digests"] = [digest(s) for s in snaps]
        rounds.append(rec)
        if first is None:
            first = snaps
        if perf_counter() >= deadline:
            return first, rounds


def classify(op, problems: list) -> str:
    """"ok", "failed" (only problems of the op's known fault) or "wrong"."""
    if not problems:
        return "ok"
    fields = {p.split(":", 1)[0] for p in problems}
    return "failed" if fields <= op.known_fault else "wrong"


def judge(ops, first, rounds):
    """Check the first round's outputs; later rounds must repeat them byte for byte.

    Returns (correct, failed ops over all rounds, per-op status, trials per round).
    """
    statuses, trials = [], 0
    for op, raised, snap in zip(ops, rounds[0]["raised"], first):
        if raised:
            statuses.append("failed")
            print(f"op {op.name}: raised {snap}", file=sys.stderr)
            continue
        try:
            problems = op.check(snap)
            trials += op.trials(snap) if callable(op.trials) else op.trials
        except Exception as exc:  # a check that cannot read the output rejects it
            problems = [f"check: {type(exc).__name__}: {exc}"]
        statuses.append(classify(op, problems))
        for p in problems:
            print(f"op {op.name} [{statuses[-1]}]: {p}", file=sys.stderr)

    correct, failed = True, 0
    for r in rounds:
        for i, op in enumerate(ops):
            if r["raised"][i]:
                failed += 1
            elif r["digests"][i] != rounds[0]["digests"][i]:
                correct = False
                print(f"op {op.name}: output changed between rounds", file=sys.stderr)
            elif statuses[i] == "failed":
                failed += 1
            elif statuses[i] == "wrong":
                correct = False
    return correct, failed, statuses, trials


def unit_of(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def layer_metrics(rounds) -> dict:
    """Per-layer counts per round, and per-round times calibrated, as medians."""
    metrics = {}
    for name in rounds[0]["layers"]:
        unit = unit_of(name)
        if unit == "s":
            value = statistics.median(r["layers"][name] * r["scale"] for r in rounds)
        else:
            value = statistics.median_low(r["layers"][name] for r in rounds)
        metrics[name] = (value, unit)
    return metrics


def end_to_end_metrics(rounds, setup_s: float, trials: int, peak: float) -> dict:
    scale = statistics.median(r["scale"] for r in rounds)
    wall_s = statistics.median(r["wall_s"] * r["scale"] for r in rounds)
    return {
        "setup_s": (setup_s * scale, "s"),
        "wall_s": (wall_s, "s"),
        "trials_per_s": (trials / wall_s, "1/s"),
        "cpu_s": (statistics.median(r["cpu_s"] * r["scale"] for r in rounds), "s"),
        "peak_rss_mb": (peak, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cwishart", "__init__.py")):
        print(f"error: no cwishart package under {SRC}", file=sys.stderr)
        return 2

    # numpy is imported before the clock starts: no change to cwishart can move it.
    import numpy  # noqa: F401
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import cwishart
    import cwishart.cli
    import_s = perf_counter() - t0
    import tracing
    import workloads
    if os.path.dirname(os.path.dirname(os.path.abspath(cwishart.__file__))) != SRC:
        print(f"error: cwishart imported from {cwishart.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
            try:
                wl.warmup.run()
            except Exception as exc:  # the measured rounds count it as a failed op
                print(f"warm-up {wl.warmup.name}: raised {exc!r}", file=sys.stderr)
            setup_times.append(perf_counter() - start)

        tracer = tracing.Tracer() if args.trace else None
        first, rounds = measure(wl.ops, args.seconds, tracer)
        peak = peak_rss_mb()
        correct, failed, statuses, trials = judge(wl.ops, first, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(rounds)
    else:
        metrics = end_to_end_metrics(rounds, import_s + statistics.median(setup_times),
                                     trials, peak)

    os.makedirs(OUT, exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "import_s": import_s, "setup_s": setup_times, "trials_per_round": trials,
              "ops": [op.name for op in wl.ops], "statuses": statuses,
              "function_calls": tracer.functions() if tracer is not None else {},
              "rounds": [{k: v for k, v in r.items() if k != "digests"} for r in rounds]}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    raw_wall_s = statistics.median(r["wall_s"] for r in rounds)
    print(f"{args.workload}: {len(rounds)} rounds, unscaled wall {raw_wall_s:.4f} s per round, "
          f"{trials} trials per round", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(rounds) * len(wl.ops), "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
