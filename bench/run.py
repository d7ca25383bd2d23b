"""cesarolab benchmark: end-to-end metrics, or per-layer metrics traced.

    python3 bench/run.py --workload {portrait,scans,exact} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json, timed on the best of several runs of each operation,
with --trace 1 its per-layer metrics, which come from
alternating untraced and traced passes over the same operations.
Lines before it, starting with '#', record the environment, failed
operations, verdict drift against bench/reference.json and, in a traced
run, the baseline table of ROADMAP item 1.  A record of the run is
written to .bench_out/.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: the operations are small, and one
# BLAS/OpenMP thread keeps the load on a shared machine at one core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
PASS_REPEATS = 3
REFERENCE = BENCH / "reference.json"


class SetupError(RuntimeError):
    """The program under test cannot be imported from this checkout."""


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _rng(workload, seed, tag):
    return random.Random(f"{workload}:{seed}:{tag}")


def setup(workload, out):
    """Import cesarolab, build the parser, the workload's weight objects
    and run one untimed warm-up operation; returns (env, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("cesarolab")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"cesarolab imported from {pkg.__file__}, "
                         f"not from {SRC}")
    cli = importlib.import_module("cesarolab.cli")
    ops = importlib.import_module("cesarolab.operators")
    wmod = importlib.import_module("cesarolab.weights")
    cli.build_parser()
    wl = WORKLOADS[workload]
    env = SimpleNamespace(cli=cli, ops=ops, weights=wl.weights(wmod),
                          out=out)
    run_op(env, wl.warmup(out))
    return env, time.perf_counter() - t0


def _setup_in_child(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SetupError(f"set-up process failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_op(env, op, rec=None):
    """Run one operation; returns (latency s, error or None, signature).

    Each operation starts on a collected heap, as a CLI command starts in
    a fresh process: the garbage of earlier operations is not charged to
    it.
    """
    for f in os.listdir(env.out):
        os.remove(os.path.join(env.out, f))
    gc.collect()
    t0 = time.perf_counter()
    try:
        if rec is None:
            outcome = op.run(env)
        else:
            with rec.span(f"op.{op.kind}"):
                outcome = op.run(env)
    except Exception as exc:  # a raising operation is a failed one
        return (time.perf_counter() - t0,
                f"raised {type(exc).__name__}: {exc}", None)
    latency = time.perf_counter() - t0
    try:
        err, sig = op.check(outcome)
    except Exception as exc:
        err, sig = f"output check: {type(exc).__name__}: {exc}", None
    return latency, err, sig


class Tally:
    """Latencies, failures and verdict drift of the operations run."""

    def __init__(self):
        self.latencies, self.failures, self.drift = [], [], []
        self.pass_ends = []
        try:
            with open(REFERENCE) as fh:
                self.reference = json.load(fh)
        except FileNotFoundError:
            self.reference = {}

    def add(self, op, latency, err, sig):
        self.latencies.append(latency)
        if err:
            self.failures.append((op.key, err))
            return
        ref = self.reference.get(op.key)
        if sig is not None and ref is not None and \
                json.loads(json.dumps(sig)) != ref:
            self.drift.append((op.key, ref, sig))

    def run_pass(self, env, ops, rec=None):
        """Run the operations once each; returns their latencies."""
        lat = []
        for op in ops:
            latency, err, sig = run_op(env, op, rec)
            self.add(op, latency, err, sig)
            lat.append(latency)
        self.pass_ends.append(len(self.latencies))
        return lat


def measure(workload, seed, seconds, trace, setup_repeats=SETUP_REPEATS,
            out=None):
    """Run one workload; returns (metrics, tally, spans of a traced pass)."""
    wl = WORKLOADS[workload]
    setups = [_setup_in_child(workload, seed)
              for _ in range(setup_repeats - 1)]
    env, own = setup(workload, out)
    setups.append(own)
    tally = Tally()
    start = time.perf_counter()
    if not trace:
        # A round runs one seeded pass PASS_REPEATS times and times each
        # operation by its best run: on a shared host other tenants slow
        # the CPU for seconds at a time, and seldom during every run of an
        # operation when the runs are a pass apart.  The next round starts
        # only if it should end within the run's time.
        rounds = []
        for p in itertools.count():
            t0 = time.perf_counter()
            ops = wl.pass_ops(_rng(workload, seed, p), out)
            runs = [tally.run_pass(env, ops) for _ in range(PASS_REPEATS)]
            rounds.append([min(x) for x in zip(*runs)])
            now = time.perf_counter()
            if now + (now - t0) - start > seconds:
                break
        lat = [x for r in rounds for x in r]
        metrics = {
            "setup_s": statistics.median(setups),
            # every round has the same mix of operations
            "ops_per_s": statistics.median(len(r) / sum(r) for r in rounds),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[-1],
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1.0 - len(tally.failures) / len(tally.latencies),
        }
        return metrics, tally, None
    ops = wl.pass_ops(_rng(workload, seed, 0), out)
    rec = spans.Recorder()
    plain, traced, per_pass, kept = [], [], [], None
    while True:
        plain.append(sum(tally.run_pass(env, ops)))
        rec.install()
        try:
            traced.append(sum(tally.run_pass(env, ops, rec)))
        finally:
            rec.uninstall()
        per_pass.append(spans.pass_metrics(rec))
        kept = kept or rec.spans
        rec.reset()
        if time.perf_counter() - start >= seconds:
            break
    metrics = spans.median_metrics(per_pass)
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    metrics["check.drift"] = len(tally.drift)
    return metrics, tally, kept


# ROADMAP item 1: (label, seconds measured there)
BASELINE_ROWS = (
    ("grid --alpha loglog_n --res 100", 1.93),
    ("step_continuity_test(delta, n, 1, 2) h=2000", 1.0),
    ("step_continuity_test(delta, n, 1, 2) h=4000", 3.9),
    ("probe --alpha logloglog_n --lambda=0.4+0.2i (h=1e5)", 0.21),
    ("finite --weights finite:log_np1 (h=1e6)", 0.35),
    ("classify --alpha loglog_n", 0.03),
)


def baseline(out):
    """One untraced perf_counter run of each ROADMAP item-1 command."""
    cli = sys.modules["cesarolab.cli"]
    ops = sys.modules["cesarolab.operators"]
    wmod = sys.modules["cesarolab.weights"]
    W = wmod.WeightFamily(wmod.make_alpha("n"))
    calls = (
        lambda: cli.main(["grid", "--alpha", "loglog_n", "--res", "100",
                          "--out", f"{out}/b.csv"]),
        lambda: ops.step_continuity_test("delta", W, 1, 2, horizon=2000),
        lambda: ops.step_continuity_test("delta", W, 1, 2, horizon=4000),
        lambda: cli.main(["probe", "--alpha", "logloglog_n",
                          "--lambda=0.4+0.2i", "--output", f"{out}/b.json"]),
        lambda: cli.main(["finite", "--weights", "finite:log_np1",
                          "--output", f"{out}/b.json"]),
        lambda: cli.main(["classify", "--alpha", "loglog_n",
                          "--output", f"{out}/b.json"]),
    )
    rows = []
    for (label, ref), call in zip(BASELINE_ROWS, calls):
        t0 = time.perf_counter()
        call()
        rows.append({"command": label, "seconds": time.perf_counter() - t0,
                     "roadmap_seconds": ref})
    return rows


def environment():
    """Interpreter, numpy, CPUs and thread-pool settings of this run."""
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this process and print it")
    args = p.parse_args(argv)
    if not (SRC / "cesarolab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no cesarolab package under {SRC}\n")
        return 2
    record_dir = ROOT / ".bench_out"
    out = record_dir / f"tmp-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            print(repr(setup(args.workload, str(out))[1]))
            return 0
        spec = _spec()
        metrics, tally, kept = measure(args.workload, args.seed,
                                       args.seconds, args.trace, out=str(out))
        rows = baseline(str(out)) if args.trace else []
    except SetupError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        shutil.rmtree(out, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        sys.stderr.write(f"error: metrics not measured: {missing}\n")
        return 2
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload}: {WORKLOADS[args.workload].why}")
    print(f"# {len(tally.latencies)} operations timed, "
          f"{len(tally.failures)} failed, {len(tally.drift)} verdicts "
          f"drifted from reference.json")
    for key, err in tally.failures:
        print(f"# FAILED {key}: {err}")
    for key, ref, sig in tally.drift:
        print(f"# DRIFT {key}: reference {ref}, now {sig}")
    for row in rows:
        print(f"# baseline {row['command']}: {row['seconds']:.3f} s "
              f"(ROADMAP {row['roadmap_seconds']} s)")
    result = {
        "correct": not tally.failures,
        "attempted": len(tally.latencies),
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    with open(record_dir / f"{tag}.json", "w") as fh:
        json.dump({"env": env, "args": vars(args), "result": result,
                   "failures": tally.failures, "drift": tally.drift,
                   "baseline": rows, "latencies": tally.latencies,
                   "pass_ends": tally.pass_ends}, fh, indent=1, default=str)
    if kept is not None:
        spans.dump(kept, record_dir / f"{tag}-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
