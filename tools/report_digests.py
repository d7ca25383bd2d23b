"""Digest every report of a fixed list of CLI commands.

Runs each command in-process against the package under ``src/`` of the
checkout that holds this script, and prints one line per command: the
exit code, the first 16 hex digits of the sha256 of everything it wrote
(stdout, stderr and each output file, in that order) and its argv.
Output files go to a temporary directory and appear in the argv as
``{out}/NAME``, so the lines do not depend on where the script runs.
Each command runs inside that directory, which also holds the
``file:`` alpha tables of ``ALPHA_FILES``; the commands name them by a
relative path, because the reports quote it.

Run it in two checkouts and diff the outputs: equal lines mean the
change kept every one of these reports byte-identical.

    python tools/report_digests.py > digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PRESETS = ("n", "log_n", "log_n_plus_1", "sqrt_n", "n_pow_n", "loglog_n",
           "logloglog_n", "appendix_5_3")
LAMBDAS = ("0.4+0.2i", "1.5-0.7i", "2")


def _tiny(n):
    return 1e-5 * math.log(math.log(n + math.e))


# name: (rows, alpha_n).  n^0.75 classifies as inconclusive; the tiny
# alpha fails both predicates, so classify and grid reach the scanned
# point-spectrum test, short of the 1e3 threshold at 200 rows and past
# it at 3000
ALPHA_FILES = {"pow.csv": (500, lambda n: n ** 0.75),
               "tiny.csv": (200, _tiny),
               "tiny_long.csv": (3000, _tiny)}


def commands():
    """The argv templates, output paths as {out}/NAME."""
    out = "{out}"
    cmds = []
    for N, seed, samples in ((20, 0, 50), (25, 3, 10), (40, 7, 10),
                             (10, 1, 5), (60, 2, 4), (100, 4, 3)):
        cmds.append(["verify", "--suite", "resolvent", "--N", str(N),
                     "--seed", str(seed), "--samples", str(samples)])
    for N, m in ((1, 1), (30, 10), (50, 10), (64, 20)):
        cmds.append(["verify", "--suite", "eigen", "--N", str(N),
                     "--m", str(m)])
    for N in (1, 2, 17, 18, 19, 40):
        cmds.append(["verify", "--suite", "factorizations", "--N", str(N)])
    for seed in range(12):
        cmds.append(["verify", "--suite", "ergodic", "--seed", str(seed)])
    cmds.append(["verify", "--suite", "sandwich"])
    cmds.append(["verify", "--suite", "finite"])
    for name in PRESETS:
        cmds.append(["classify", "--alpha", name])
        for horizon in ("100", "1000"):
            cmds.append(["classify", "--alpha", name, "--horizon", horizon])
        for lam in LAMBDAS:
            cmds.append(["probe", "--alpha", name, f"--lambda={lam}"])
        for N, k in ((50, 1), (200, 2)):
            cmds.append(["ergodic", "--alpha", name, "--N", str(N),
                         "--k", str(k), "--output", f"{out}/ergodic.json",
                         "--trace", f"{out}/trace.csv"])
    for weights in ("finite:log_np1", "finite:example53"):
        cmds.append(["finite", "--weights", weights])
        cmds.append(["finite", "--weights", weights, "--k", "1", "--l", "2"])
    for name in ("n", "loglog_n", "n_pow_n"):
        cmds.append(["grid", "--alpha", name, "--res", "30",
                     "--probe-subsample", "6", "--out", f"{out}/grid.csv",
                     "--svg", f"{out}/grid.svg"])
    for table in ALPHA_FILES:
        name = f"file:{table}"
        cmds.append(["classify", "--alpha", name])
        cmds.append(["classify", "--alpha", name, "--horizon", "100"])
        cmds.append(["probe", "--alpha", name, f"--lambda={LAMBDAS[0]}"])
        cmds.append(["ergodic", "--alpha", name, "--N", "50", "--k", "1",
                     "--output", f"{out}/ergodic.json"])
        cmds.append(["grid", "--alpha", name, "--res", "12",
                     "--probe-subsample", "3", "--out", f"{out}/grid.csv"])
    return cmds


def write_alpha_files(folder):
    for table, (rows, fn) in ALPHA_FILES.items():
        with open(Path(folder) / table, "w") as fh:
            fh.writelines(f"{n},{fn(n)!r}\n" for n in range(1, rows + 1))


def digest(template, main):
    """(exit code, sha256 hex digest) of one argv template run by main."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{out}", tmp) for a in template]
        write_alpha_files(tmp)
        stdout, stderr = io.StringIO(), io.StringIO()
        here = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(here)
        h = hashlib.sha256(stdout.getvalue().encode())
        h.update(stderr.getvalue().encode())
        for a in argv:
            if a.startswith(tmp):
                h.update(Path(a).read_bytes())
    return code, h.hexdigest()


def _main():
    sys.path.insert(0, str(SRC))
    from cesarolab.cli import main
    for template in commands():
        code, hexdigest = digest(template, main)
        print(code, hexdigest[:16], " ".join(template), flush=True)


if __name__ == "__main__":
    _main()
