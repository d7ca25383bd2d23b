"""The benchmark's workloads: seeded operations, their checks and the
verdict signatures compared against reference.json.

Every workload is a closed loop: one client runs one operation at a
time, each through ``cesarolab.cli.main(argv)`` or a public library
function, and starts the next when it returns.  A pass is a fixed mix of
operations whose inputs a seed draws from fixed candidate lists, so that
reference.json can hold cesarolab's verdict for every possible input.
"""

from __future__ import annotations

import functools
import json
import random
from collections import Counter

import truth

# ---------------------------------------------------------------------------
# candidate inputs

TILE_RES = 40
TILE_PROBES = 4
ALPHAS = ("n", "loglog_n", "sqrt_n", "logloglog_n")  # nuclear, non-nuclear
FINITE_KL = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5))
STEP_KL = ((1, 2), (1, 3), (2, 3), (2, 4))
CHEAP_STEP_OPS = ("cesaro", "cesaro_inverse", "diff", "shift")
STEP_HORIZON = 10 ** 5
DELTA_HORIZON = 1000
SCAN_PRESETS = 4          # presets classified, stepped and delta-tested per pass
ERGODIC_N = (10, 20, 50, 100, 150, 200)
ERGODIC_K = (1, 2)
ERGODIC_TOL = 1e-8          # the ergodic command's default --tol
ERGODIC_TRACE_N = (50, 100, 150, 200)  # traces per pass: one per preset
PROBE_DELTA = 0.05          # the probe command's default --delta


def _fmt(x):
    return f"{x:.6f}"


@functools.lru_cache(maxsize=None)
def candidates():
    """Grid windows and probe points, drawn once from a fixed seed."""
    rng = random.Random("cesarolab-bench-candidates")
    near, outer, lam_in, lam_out = [], [], [], []
    for _ in range(8):
        # around the accumulation point 0 of {1/n}
        h = rng.uniform(0.005, 0.05)
        off = rng.uniform(-0.5, 0.5) * h
        near.append((f"{_fmt(-rng.uniform(0.001, 0.02))}:"
                     f"{_fmt(rng.uniform(0.05, 0.2))}",
                     f"{_fmt(off - h)}:{_fmt(off + h)}"))
    for i in range(8):
        # left of 0 or right of 1: outside the closed disc, away from Sigma0
        lo = rng.uniform(-2.5, -1.0) if i % 2 else rng.uniform(1.05, 1.8)
        ilo = rng.uniform(-1.5, 0.5)
        outer.append((f"{_fmt(lo)}:{_fmt(lo + rng.uniform(0.3, 0.9))}",
                      f"{_fmt(ilo)}:{_fmt(ilo + rng.uniform(0.3, 1.0))}"))
    while len(lam_in) < 8 or len(lam_out) < 8:
        z = complex(round(rng.uniform(-1.5, 2.5), 4),
                    round(rng.uniform(-1.5, 1.5), 4))
        if truth.dist_sigma0(z) <= 1.2 * PROBE_DELTA or abs(z) > 2.5:
            continue
        side = lam_in if abs(z - 0.5) <= 0.5 else lam_out
        if len(side) < 8:
            side.append(f"{z.real:.4f}{z.imag:+.4f}i")
    return {"near": tuple(near), "outer": tuple(outer),
            "lam_in": tuple(lam_in), "lam_out": tuple(lam_out)}


# ---------------------------------------------------------------------------
# operations

class Op:
    """One operation: a CLI argv or a library call, and its output check.

    ``check(outcome)`` returns (error or None, verdict signature or None);
    the outcome is the CLI exit code or the library result.
    """

    def __init__(self, kind, key, argv=None, call=None, check=None):
        self.kind, self.key = kind, key
        self.argv, self.call, self.check = argv, call, check

    def run(self, env):
        if self.argv is not None:
            return env.cli.main(list(self.argv))
        return self.call(env)


def _report(path):
    with open(path) as fh:
        return json.load(fh)["report"]


def _code(rc, allowed=(0,)):
    return None if rc in allowed else f"exit code {rc}, expected {allowed}"


def grid_op(out, alpha, window):
    re_s, im_s = window
    csv_path, svg_path = f"{out}/grid.csv", f"{out}/grid.svg"
    argv = ["grid", "--alpha", alpha, "--res", str(TILE_RES),
            f"--re={re_s}", f"--im={im_s}",
            "--probe-subsample", str(TILE_PROBES),
            "--out", csv_path, "--svg", svg_path]

    def check(rc):
        err = _code(rc)
        if err:
            return err, None
        with open(csv_path) as fh:
            lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
        if lines[0] != "re,im,region_label,probe_status,probe_sup,l_found":
            return f"bad CSV header {lines[0]!r}", None
        rows = lines[1:]
        if len(rows) != TILE_RES ** 2:
            return f"{len(rows)} CSV rows, expected {TILE_RES ** 2}", None
        import numpy as np  # here, so that set-up times its first import
        res = np.linspace(*map(float, re_s.split(":")), TILE_RES)
        ims = np.linspace(*map(float, im_s.split(":")), TILE_RES)
        labels, probed = Counter(), []
        for idx, row in enumerate(rows):
            re, im, label, status, _, l_found = row.split(",")
            i, j = divmod(idx, TILE_RES)
            z = complex(res[j], ims[i])
            if (float(re), float(im)) != (z.real, z.imag):
                return f"row {idx}: point ({re}, {im}), expected {z}", None
            want = truth.grid_label(z, alpha)
            if label != want:
                return f"point {z}: label {label}, expected {want}", None
            if status not in ("bounded", "unbounded_evidence", "skipped"):
                return f"point {z}: probe status {status!r}", None
            labels[label] += 1
            if status != "skipped":
                probed.append([idx, status, l_found])
        if len(probed) > TILE_PROBES:
            return f"{len(probed)} probed points > {TILE_PROBES}", None
        with open(svg_path) as fh:
            rects = fh.read().count("<rect ")
        if rects != TILE_RES ** 2:
            return f"{rects} SVG cells, expected {TILE_RES ** 2}", None
        return None, [probed, dict(sorted(labels.items()))]

    return Op("grid", f"grid|{alpha}|{re_s}|{im_s}", argv=argv, check=check)


def classify_op(out, preset):
    path = f"{out}/classify.json"
    argv = ["classify", "--alpha", preset, "--output", path]

    def check(rc):
        err = _code(rc)
        if err:
            return err, None
        rep = _report(path)
        got = (rep["sigma_pt"], rep["sigma"], rep["sigma_star"])
        flags = truth.FLAGS[preset]
        if (got != truth.regime(preset) or rep["status"] != "classified"
                or rep["nuclear"] != flags["nuclear"]
                or rep["loglog_finite"] != flags["loglog_finite"]):
            return (f"{preset}: classified {got}, expected "
                    f"{truth.regime(preset)}"), None
        ev = [[e["kind"], e.get("status", e.get("verdict")),
               e.get("l_found")] for e in rep["evidence"]]
        return None, [list(got), ev]

    return Op("classify", f"classify|{preset}", argv=argv, check=check)


def probe_op(out, alpha, lam):
    path = f"{out}/probe.json"
    argv = ["probe", "--alpha", alpha, f"--lambda={lam}", "--output", path]

    def check(rc):
        err = _code(rc)
        if err:
            return err, None
        rep = _report(path)
        verdict, l_found = rep["verdict"], rep["l_found"]
        if verdict not in ("bounded", "unbounded_evidence") or (
                (l_found is None) != (verdict == "unbounded_evidence")):
            return f"probe verdict {verdict!r} with l_found {l_found}", None
        return None, [verdict, l_found]

    return Op("probe", f"probe|{alpha}|{lam}", argv=argv, check=check)


def finite_op(out, kl=None):
    path = f"{out}/finite.json"
    argv = ["finite", "--weights", "finite:log_np1", "--output", path]
    if kl:
        argv += ["--k", str(kl[0]), "--l", str(kl[1])]

    def check(rc):
        err = _code(rc, (0, 2))  # 2: an inconclusive scan, not an error
        if err:
            return err, None
        rep = _report(path)
        if kl:
            status = sig = rep["verdict"]["status"]
        else:
            status = rep["verdict"]
            sig = [status, {k: v["l_found"]
                            for k, v in sorted(rep["per_step"].items())}]
        err = truth.finite_contradiction("criterion" if kl else "acts",
                                         status)
        return err, sig

    key = f"finite|{kl[0]}|{kl[1]}" if kl else "finite|acts"
    return Op("finite", key, argv=argv, check=check)


def steps_op(preset, k, l):
    """The four single-sweep step criteria on one preset."""
    def call(env):
        W = env.weights[preset]
        return [env.ops.step_continuity_test(op, W, k, l,
                                             horizon=STEP_HORIZON).status
                for op in CHEAP_STEP_OPS]

    def check(statuses):
        for op, status in zip(CHEAP_STEP_OPS, statuses):
            err = truth.step_contradiction(op, preset, status)
            if err:
                return err, None
        return None, statuses

    return Op("steps", f"steps|{preset}|{k}|{l}", call=call, check=check)


def delta_op(preset, k, l):
    """The quadratic signed-binomial row-sum criterion."""
    def call(env):
        return env.ops.step_continuity_test(
            "delta", env.weights[preset], k, l, horizon=DELTA_HORIZON).status

    def check(status):
        return truth.step_contradiction("delta", preset, status), status

    return Op("delta", f"delta|{preset}|{k}|{l}|{DELTA_HORIZON}",
              call=call, check=check)


def verify_op(out, suite, **opts):
    path = f"{out}/verify.json"
    argv = ["verify", "--suite", suite, "--output", path]
    for name, val in sorted(opts.items()):
        argv += [f"--{name}", str(val)]

    def check(rc):
        rep = _report(path)
        if not rep["passed"] or rep["suite"] != suite or not rep["checks"]:
            bad = [c["check"] for c in rep["checks"] if not c["passed"]]
            return f"verify {suite}: failed checks {bad}", None
        return _code(rc), None

    key = "|".join(["verify", suite] + [f"{n}={v}"
                                        for n, v in sorted(opts.items())])
    return Op("verify", key, argv=argv, check=check)


def ergodic_op(out, alpha, N, k):
    path, trace = f"{out}/ergodic.json", f"{out}/ergodic.csv"
    argv = ["ergodic", "--alpha", alpha, "--N", str(N), "--k", str(k),
            "--output", path, "--trace", trace]

    def check(rc):
        err = _code(rc)
        if err:
            return err, None
        rep = _report(path)
        with open(trace) as fh:
            rows = [ln for ln in fh if ln[0].isdigit()]
        last = float(rows[-1].split(",")[1]) if rows else float("inf")
        if (rep["status"] != "converged" or len(rows) != rep["iterations"]
                or not last < ERGODIC_TOL):
            return (f"ergodic {alpha} N={N}: status {rep['status']}, "
                    f"{len(rows)} trace rows, last distance {last}"), None
        return None, [rep["status"], rep["iterations"]]

    return Op("ergodic", f"ergodic|{alpha}|{N}|{k}", argv=argv, check=check)


# ---------------------------------------------------------------------------
# workloads

class Portrait:
    why = ("grid tiles near the accumulation of {0} u {1/n} and in the outer "
           "resolvent set: the per-point loop of spectrum.sample_grid, "
           "resolvent.dist_sigma0 and CSV/SVG output do nearly all the work")

    @staticmethod
    def weights(wmod):
        return {}

    @staticmethod
    def pass_ops(rng, out):
        c = candidates()
        ops = []
        for alpha in ALPHAS:
            ops.append(grid_op(out, alpha, rng.choice(c["near"])))
            ops.append(grid_op(out, alpha, rng.choice(c["outer"])))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def warmup(out):
        return grid_op(out, "n", candidates()["near"][0])

    @staticmethod
    def all_ops(out):
        c = candidates()
        return [grid_op(out, a, w) for a in ALPHAS
                for w in c["near"] + c["outer"]]


class Scans:
    why = ("verdicts at realistic horizons: long vector scans (log_values, "
           "product_log_prefix, probe sweeps, finite criteria) and the "
           "quadratic delta row sums; one Sigma0 distance per probe")

    @staticmethod
    def weights(wmod):
        return {p: wmod.WeightFamily(wmod.make_alpha(p))
                for p in truth.PRESETS}

    @staticmethod
    def pass_ops(rng, out):
        # Ranked by latency: classify and the cheap step criteria (8 ops),
        # the other probes with a finite criterion (7), which hold the
        # median, the slower logloglog_n probes (2), the delta criteria
        # (4), which hold the 90th percentile, and the finite acts search.
        c = candidates()
        ops = [classify_op(out, p)
               for p in rng.sample(truth.PRESETS, SCAN_PRESETS)]
        for alpha in ALPHAS:
            ops += [probe_op(out, alpha, rng.choice(c["lam_in"])),
                    probe_op(out, alpha, rng.choice(c["lam_out"]))]
        ops.append(finite_op(out))
        ops.append(finite_op(out, rng.choice(FINITE_KL)))
        ops += [steps_op(p, *rng.choice(STEP_KL))
                for p in rng.sample(truth.PRESETS, SCAN_PRESETS)]
        ops += [delta_op(p, *rng.choice(STEP_KL))
                for p in rng.sample(truth.PRESETS, SCAN_PRESETS)]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def warmup(out):
        return classify_op(out, "n")

    @staticmethod
    def all_ops(out):
        c = candidates()
        return ([classify_op(out, p) for p in truth.PRESETS]
                + [probe_op(out, a, lam) for a in ALPHAS
                   for lam in c["lam_in"] + c["lam_out"]]
                + [finite_op(out)] + [finite_op(out, kl) for kl in FINITE_KL]
                + [steps_op(p, k, l) for p in truth.PRESETS
                   for k, l in STEP_KL]
                + [delta_op(p, k, l) for p in truth.PRESETS
                   for k, l in STEP_KL])


class Exact:
    why = ("verify suites and ergodic traces: exact Fraction/big-int "
           "algebra, TriangularOperator.truncate and the scalar memoised "
           "weight path behind operators.weighted_norm")

    @staticmethod
    def weights(wmod):
        return {}

    @staticmethod
    def pass_ops(rng, out):
        # Sizes are fixed per slot (factorizations varies N only over
        # 17..19) and every preset is traced once, so a pass costs about
        # the same for every seed; the seed draws the suites' --seed, N,
        # which preset is traced at which N, and k.  The four ergodic
        # suites, the costliest operations and one fifth of a pass,
        # straddle the 90th latency percentile, so that it does not fall on
        # the edge between two kinds of operation.
        seeds = rng.sample(range(1000), 8)
        ops = [verify_op(out, "ergodic", seed=s) for s in seeds[:4]]
        ops += [
            verify_op(out, "factorizations", N=rng.randint(17, 19)),
            verify_op(out, "eigen", N=30, m=10),
            verify_op(out, "eigen", N=64, m=20),
            verify_op(out, "sandwich", samples=20, seed=seeds[4]),
            verify_op(out, "sandwich", samples=40, seed=seeds[5]),
            verify_op(out, "resolvent", N=25, samples=10, seed=seeds[6]),
            verify_op(out, "resolvent", N=40, samples=10, seed=seeds[7]),
            verify_op(out, "finite"),
        ]
        presets = rng.sample(truth.PRESETS, len(truth.PRESETS))
        ops += [ergodic_op(out, p, ERGODIC_TRACE_N[i % len(ERGODIC_TRACE_N)],
                           rng.choice(ERGODIC_K))
                for i, p in enumerate(presets)]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def warmup(out):
        return verify_op(out, "eigen", N=20, m=5)

    @staticmethod
    def all_ops(out):
        return [ergodic_op(out, a, N, k) for a in truth.PRESETS
                for N in ERGODIC_N for k in ERGODIC_K]


WORKLOADS = {"portrait": Portrait, "scans": Scans, "exact": Exact}
