"""Digest every report of a fixed list of CLI commands.

Runs each command in-process against the package under ``src/`` of the
checkout that holds this script, and prints one line per command: the
exit code, the first 16 hex digits of the sha256 of everything it wrote
(stdout, stderr and each output file it wrote, in that order) and its
argv.  Output files go to a temporary directory and appear in the argv
as ``{out}/NAME``, so the lines do not depend on where the script runs.
Each command runs inside that directory, which also holds the
``file:`` alpha tables of ``ALPHA_FILES``; the commands name them by a
relative path, because the reports quote it.

Run it in two checkouts and diff the outputs: equal lines mean the
change kept every one of these reports byte-identical.

    python tools/report_digests.py > digests.txt

``tests/report_digests.txt`` holds this output below a line naming the
Python and NumPy versions it was made with, and a tier-1 test compares
every line with it.  A change that moves a report on purpose records
the file again in the same diff:

    python -c "import platform, numpy; print('# python', \\
        platform.python_version(), 'numpy', numpy.__version__)" \\
        > tests/report_digests.txt
    python tools/report_digests.py >> tests/report_digests.txt
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
    for N, m in ((1, 1), (30, 10), (50, 10), (64, 20), (128, 20),
                 (128, 128)):
        cmds.append(["verify", "--suite", "eigen", "--N", str(N),
                     "--m", str(m)])
    for N in (1, 2, 17, 18, 19, 40, 64, 128):
        cmds.append(["verify", "--suite", "factorizations", "--N", str(N)])
    for seed in range(12):
        cmds.append(["verify", "--suite", "ergodic", "--seed", str(seed)])
    cmds.append(["verify", "--suite", "ergodic", "--N", "64"])
    cmds.append(["verify", "--suite", "sandwich"])
    cmds.append(["verify", "--suite", "sandwich", "--samples", "200",
                 "--seed", "5"])
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
    # past the dense 1e6: the log-spaced tail and its majorant, and the
    # staircase's block bounds; at 1e8, (2, 3) reads alpha past 1e6
    # through its guard and has its witness at j(4) = 7077888
    for weights, k, l, horizon in (("finite:log_np1", 1, 2, 10 ** 20),
                                   ("finite:example53", 1, 2, 10 ** 7),
                                   ("finite:example53", 2, 3, 10 ** 8)):
        cmds.append(["finite", "--weights", weights, "--k", str(k),
                     "--l", str(l), "--horizon", str(horizon)])
    # the criterion's exact head of 4096 rows decides only from horizon
    # 40960 on, where the head lies before the last decade
    for horizon in (40960, 40959):
        cmds.append(["finite", "--weights", "finite:log_np1",
                     "--horizon", str(horizon)])
    # one index past the dense 1e6: the head's last block ends at the
    # dense top, and one tail row follows it
    cmds.append(["finite", "--weights", "finite:log_np1", "--horizon",
                 "1000001"])
    cmds.append(["finite", "--weights", "finite:example53", "--k", "1",
                 "--l", "2", "--horizon", "1000001"])
    # acts searches whose first holding steps lie past k + 1 (l = 3, 5,
    # 7, 9 at 2 and l = 4, 7, 10, 14 at 1e20), and at 1, where none holds
    for horizon in (1, 2, 20, 10 ** 9, 10 ** 20):
        cmds.append(["finite", "--weights", "finite:log_np1", "--horizon",
                     str(horizon)])
    cmds.append(["finite", "--weights", "finite:log_np1", "--k", "3",
                 "--l", "5"])
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
    # near Sigma0 the discs of 3 of the 6 probe candidates touch it: those
    # cells stay unprobed
    cmds.append(["grid", "--alpha", "n", "--res", "20", "--re=-0.01:0.1",
                 "--im=-0.02:0.02", "--probe-subsample", "6",
                 "--out", f"{out}/grid.csv"])
    # an option the run does not read exits 1
    cmds.append(["verify", "--suite", "eigen", "--samples", "7"])
    cmds.append(["finite", "--weights", "finite:log_np1", "--k", "3"])
    # the probe's step search away from its defaults: a later k with few
    # steps, a few samples failing from the first step, and one step
    cmds.append(["probe", "--alpha", "loglog_n", "--lambda=0.4+0.2i",
                 "--k", "2", "--l-max", "3"])
    cmds.append(["probe", "--alpha", "logloglog_n", "--lambda=-0.5",
                 "--samples", "3"])
    cmds.append(["probe", "--alpha", "n", "--lambda=1.5-0.7i",
                 "--l-max", "0"])
    # declared flags classify a preset without a scan: below the
    # predicates' first indices, past int64, and under a grid whose
    # probes each scan one index
    cmds.append(["classify", "--alpha", "n", "--horizon", "2"])
    cmds.append(["classify", "--alpha", "loglog_n", "--horizon",
                 str(10 ** 20)])
    cmds.append(["grid", "--alpha", "n", "--res", "4", "--horizon", "2",
                 "--probe-subsample", "2", "--out", f"{out}/grid.csv"])
    # an ergodic trace cut by its cap one iterate past a multiple of 32,
    # and the one-row resolvent truncation, which has no strict part
    cmds.append(["ergodic", "--alpha", "n", "--N", "7", "--m-cap", "33",
                 "--tol", "1e-300", "--output", f"{out}/ergodic.json",
                 "--trace", f"{out}/trace.csv"])
    cmds.append(["verify", "--suite", "resolvent", "--N", "1", "--samples",
                 "3", "--seed", "2"])
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
            if a.startswith(tmp) and Path(a).exists():
                h.update(Path(a).read_bytes())
    return code, h.hexdigest()


def report_lines(main):
    """One line per command: exit code, digest prefix and argv."""
    for template in commands():
        code, hexdigest = digest(template, main)
        yield f"{code} {hexdigest[:16]} {' '.join(template)}"


def _main():
    sys.path.insert(0, str(SRC))
    from cesarolab.cli import main
    for line in report_lines(main):
        print(line, flush=True)


if __name__ == "__main__":
    _main()
