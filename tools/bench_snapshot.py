"""Snapshot the end-to-end benchmark metrics of one or more checkouts.

    python tools/bench_snapshot.py [ROOT ...] [--out-dir DIR]

Runs ``bench/run.py`` of each checkout ROOT as it stands (default: the
checkout holding this script) on every workload of its BENCHMARK.json,
at a fixed seed and run length, and writes ``BENCH_<short sha>.json``
into DIR (default: the current directory).  The file holds the commit
(``git rev-parse HEAD`` and whether the work tree differs from it), the
host (``platform.platform()`` and ``os.cpu_count()``), the seed and
seconds, and every ``end_to_end`` metric of each workload.  With several
roots the workloads run alternately, root by root, so the snapshots see
the same host load.

It also holds an in-process table: each command of ``IN_PROCESS`` run
REPEATS times in one fresh interpreter per checkout, with the best time
in ms and the minor page faults (``resource.getrusage``) of that run.
And cold-start numbers, per checkout: the median wall time in ms of
each command of ``COLD_START`` as ``python -m cesarolab.cli`` in a fresh
interpreter, and the median of cesarolab's own share of
``import cesarolab.cli``, the self times of its modules under
``python -X importtime``, each over COLD_REPEATS runs.

A snapshot records; it gates nothing, and BENCHMARK.json stays the gate.
Three workloads at 10 s each take about a minute per root, and the
cold-start runs some 10 s more.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEED = 0
SECONDS = 10
REPEATS = 5
HERE = Path(__file__).resolve().parents[1]
_STEPS = ("cesaro", "cesaro_inverse", "diff", "shift")
# name -> the argv of ``cesarolab.cli.main``, or [op, preset] of a step
# criterion at k = 1, l = 2 and horizon 1e5
IN_PROCESS = {
    "finite acts 1e6": ["finite", "--weights", "finite:log_np1"],
    "finite 1 2 1e6": ["finite", "--weights", "finite:log_np1", "--k", "1",
                       "--l", "2"],
    **{f"probe {alpha} 1e5": ["probe", "--alpha", alpha,
                              "--lambda=0.4+0.2i", "--horizon", "100000"]
       for alpha in ("n", "loglog_n")},
    "classify loglog_n 1e5": ["classify", "--alpha", "loglog_n",
                              "--horizon", "100000"],
    **{f"{op} {preset} 1e5": [op, preset] for preset in ("sqrt_n", "loglog_n")
       for op in _STEPS},
}
# name -> the argv of ``python -m cesarolab.cli``: each command at its
# defaults
COLD_START = {
    "classify": ["classify", "--alpha", "loglog_n"],
    "probe": ["probe", "--alpha", "loglog_n", "--lambda=0.4+0.2i"],
    "finite": ["finite", "--weights", "finite:log_np1"],
}
COLD_REPEATS = 7
# run in a fresh interpreter with the checkout's src first on the path:
# argv[1] is the JSON of {name: command} and argv[2] the repeats
_CHILD = """
import contextlib, io, json, resource, sys, time
from cesarolab.cli import main
from cesarolab.operators import step_continuity_test
from cesarolab.weights import WeightFamily, make_alpha

def call(command):
    if len(command) == 2:
        op, preset = command
        W = WeightFamily(make_alpha(preset))
        return lambda: step_continuity_test(op, W, 1, 2, 10 ** 5)
    return lambda: main(command)

table = {}
for name, command in json.loads(sys.argv[1]).items():
    run, best = call(command), None
    for _ in range(int(sys.argv[2])):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            run()
        ms = (time.perf_counter() - start) * 1e3
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        if best is None or ms < best["best_ms"]:
            best = {"best_ms": ms, "minor_faults": faults}
    table[name] = best
print(json.dumps(table))
"""


def _git(root, *args):
    return subprocess.run(["git", *args], cwd=root, capture_output=True,
                          text=True, check=True).stdout.strip()


def commit_of(root):
    """(sha of HEAD, whether tracked files differ from it) of a checkout."""
    return (_git(root, "rev-parse", "HEAD"),
            bool(_git(root, "status", "--porcelain", "--untracked-files=no")))


def run_workload(root, workload):
    """The result line (the last stdout line) of one bench run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS)],
        cwd=root, capture_output=True, text=True, check=True)
    return proc.stdout.strip().splitlines()[-1]


def _python(root, *args):
    """Run the interpreter on the checkout's own src; (wall s, process)."""
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=root, env=env,
                          capture_output=True, text=True)
    return time.perf_counter() - start, proc


def in_process_table(root, commands=IN_PROCESS, repeats=REPEATS):
    """{name: {"best_ms", "minor_faults"}} of each command, run in one
    fresh interpreter on the checkout's own src."""
    _, proc = _python(root, "-c", _CHILD, json.dumps(commands), str(repeats))
    proc.check_returncode()
    return json.loads(proc.stdout)


def own_import_ms(importtime):
    """cesarolab's own share of an import in ms: the self times of the
    cesarolab modules in the stderr of ``python -X importtime``."""
    us = 0
    for line in importtime.splitlines():
        fields = line.removeprefix("import time:").split("|")
        name = fields[-1].strip()
        if len(fields) == 3 and name.split(".")[0] == "cesarolab":
            us += int(fields[0])
    return us / 1e3


def cold_start(root, commands=COLD_START, repeats=COLD_REPEATS):
    """{"wall_ms_median": {name: ms}, "cesarolab_import_ms", "repeats"}:
    each command as ``python -m cesarolab.cli`` in a fresh interpreter on
    the checkout's own src, and cesarolab's own share of its import, as
    medians over ``repeats`` runs.  RuntimeError for a run that exits
    with neither 0 nor 2 (inconclusive)."""
    walls = {}
    for name, argv in commands.items():
        runs = [_python(root, "-m", "cesarolab.cli", *argv)
                for _ in range(repeats)]
        bad = [proc for _, proc in runs if proc.returncode not in (0, 2)]
        if bad:
            raise RuntimeError(f"{name}: exit {bad[0].returncode}: "
                               f"{bad[0].stderr.strip()}")
        walls[name] = statistics.median(s for s, _ in runs) * 1e3
    imports = []
    for _ in range(repeats):
        _, proc = _python(root, "-X", "importtime", "-c",
                          "import cesarolab.cli")
        proc.check_returncode()
        imports.append(own_import_ms(proc.stderr))
    return {"wall_ms_median": walls,
            "cesarolab_import_ms": statistics.median(imports),
            "repeats": repeats}


def snapshot(spec, commit, dirty, lines, in_process=None, cold=None):
    """The snapshot of one checkout from its BENCHMARK.json ``spec``, the
    result line of each workload (a dict workload -> line), its
    in-process table and its cold-start numbers.  ValueError if a line
    lacks an end-to-end metric of the spec."""
    workloads = {}
    for name, line in lines.items():
        result = json.loads(line)
        metrics = result["metrics"]
        missing = [m["name"] for m in spec["end_to_end"]
                   if m["name"] not in metrics]
        if missing:
            raise ValueError(f"{name}: no {', '.join(missing)} in the "
                             f"result line")
        workloads[name] = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: metrics[m["name"]]["value"]
                        for m in spec["end_to_end"]},
        }
    return {
        "commit": commit,
        "dirty": dirty,
        "host": {"platform": platform.platform(),
                 "cpu_count": os.cpu_count()},
        "seed": SEED,
        "seconds": SECONDS,
        "units": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "workloads": workloads,
        "in_process": in_process or {},
        "cold_start": cold or {},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("roots", nargs="*", type=Path, default=[HERE])
    p.add_argument("--out-dir", type=Path, default=Path("."))
    args = p.parse_args(argv)
    specs = [json.loads((root / "BENCHMARK.json").read_text())
             for root in args.roots]
    lines = [{} for _ in args.roots]
    for w in (w["name"] for w in specs[0]["workloads"]):
        for root, got in zip(args.roots, lines):
            got[w] = run_workload(root, w)
    tables = [in_process_table(root) for root in args.roots]
    colds = [cold_start(root) for root in args.roots]
    for root, spec, got, table, cold in zip(args.roots, specs, lines, tables,
                                            colds):
        sha, dirty = commit_of(root)
        path = args.out_dir / f"BENCH_{sha[:7]}.json"
        path.write_text(json.dumps(
            snapshot(spec, sha, dirty, got, table, cold), indent=1,
            sort_keys=True) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
