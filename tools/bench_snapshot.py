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

A snapshot records; it gates nothing, and BENCHMARK.json stays the gate.
Three workloads at 10 s each take about a minute per root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

SEED = 0
SECONDS = 10
HERE = Path(__file__).resolve().parents[1]


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


def snapshot(spec, commit, dirty, lines):
    """The snapshot of one checkout from its BENCHMARK.json ``spec`` and
    the result line of each workload (a dict workload -> line).
    ValueError if a line lacks an end-to-end metric of the spec."""
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
    for root, spec, got in zip(args.roots, specs, lines):
        sha, dirty = commit_of(root)
        path = args.out_dir / f"BENCH_{sha[:7]}.json"
        path.write_text(json.dumps(snapshot(spec, sha, dirty, got),
                                   indent=1, sort_keys=True) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
