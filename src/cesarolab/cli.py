"""Command line front end producing reproducible reports.

Commands: classify, verify, grid, probe, ergodic, finite.  Every output
file embeds a header with the tool version, a hash of the canonical
config, the scan horizon and the truncation N, so identical configs
yield byte-identical files.  Exit codes: 0 success, 1 invalid input or
failed check, 2 inconclusive result (distinguishable for scripting).
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field, is_dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from . import resolvent as rsv
from .ergodic import (iterates_limit_check, power_bounded_check,
                      range_inverse_matrices)
from .finite_type import (FiniteTypeWeights, example53_alpha,
                          example53_j, example53_lower_bound,
                          ft_cesaro_acts, ft_continuity_criterion)
from .operators import (_max_deviation, cesaro_apply, delta_matrix_exact,
                        verify_factorizations)
from .spectrum import classify_spectrum, grid_to_csv, grid_to_svg, sample_grid
from .weights import (PRESET_NAMES, WeightFamily, make_alpha,
                      make_alpha_from_csv)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
SCHEMA_VERSION = "1"


@dataclass
class RunConfig:
    command: str
    alpha_spec: str = ""
    horizon: int = 10 ** 5
    N: int = 0
    seed: int = 0
    options: dict = field(default_factory=dict)

    def hash(self):
        canon = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def header(self):
        return {"tool_version": __version__, "config_hash": self.hash(),
                "horizon": self.horizon, "N": self.N}


def _canon(obj):
    """Canonical JSON-safe form: fixed field order, non-finite floats as
    strings (json writes a finite float as its shortest round-trip repr)."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return _canon(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items(),
                                                     key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, complex):
        return {"im": _canon(obj.imag), "re": _canon(obj.real)}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, np.ndarray):
        return [_canon(v) for v in obj.tolist()]
    return obj


def _emit_json(report, config: RunConfig, path):
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(config.header())
    doc["config"] = _canon(asdict(config))
    doc["report"] = _canon(report)
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _header_comment(config: RunConfig):
    h = config.header()
    return (f"# tool_version={h['tool_version']} config_hash={h['config_hash']}"
            f" horizon={h['horizon']} N={h['N']}\n")


def _resolve_alpha(spec):
    if spec.startswith("preset:"):
        return make_alpha(spec[len("preset:"):])
    if spec.startswith("file:"):
        return make_alpha_from_csv(spec[len("file:"):])
    if spec in PRESET_NAMES:
        return make_alpha(spec)
    raise ValueError(
        f"alpha spec {spec!r} must be preset:NAME, file:PATH, or one of "
        f"{sorted(PRESET_NAMES)}")


def _resolve_finite(spec):
    if spec in ("finite:log_np1", "log_np1"):
        alpha = make_alpha("log_n_plus_1")
    elif spec in ("finite:example53", "example53"):
        alpha = example53_alpha()
    else:
        raise ValueError(
            f"finite weights spec {spec!r} must be finite:log_np1 or "
            f"finite:example53")
    return FiniteTypeWeights(alpha)


def _int_at_least(s, lo, what):
    try:
        n = int(s)
        if n >= lo:
            return n
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a {what} integer, got {s!r}")


def _positive_int(s):
    """argparse type: an integer >= 1 (a count, a horizon or a step)."""
    return _int_at_least(s, 1, "positive")


def _nonnegative_int(s):
    """argparse type: an integer >= 0, where 0 has a meaning of its own:
    probe --l-max 0 tries l = k only, verify --N 0 is the suite default,
    finite --k 0 or --l 0 runs the acts search, and grid
    --probe-subsample 0 probes nothing."""
    return _int_at_least(s, 0, "non-negative")


def _positive_float(s):
    """argparse type: a finite float > 0 (a disc radius or a tolerance)."""
    try:
        v = float(s)
        if math.isfinite(v) and v > 0:
            return v
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be a positive finite number, got {s!r}")


def _finite_complex(s):
    """argparse type: a finite complex number, 'i' or 'j' as the unit."""
    try:
        z = complex(s.replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse complex number {s!r}") from None
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"must be finite, got {s!r}")
    return z


def _parse_range(s):
    """argparse type: LO:HI, two finite floats (a side of the grid)."""
    try:
        lo, hi = map(float, s.split(":"))
        if math.isfinite(lo) and math.isfinite(hi):
            return lo, hi
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be LO:HI with two finite numbers, got {s!r}")


# ---------------------------------------------------------------------------
# commands

def cmd_classify(args):
    config = RunConfig("classify", alpha_spec=args.alpha,
                       horizon=args.horizon,
                       options={"probe": not args.no_probe})
    alpha = _resolve_alpha(args.alpha)
    report = classify_spectrum(alpha, horizon=args.horizon,
                               with_probe=not args.no_probe)
    _emit_json(report, config, args.output)
    return EXIT_OK if report.status == "classified" else EXIT_INCONCLUSIVE


def _checks_factorizations(args):
    res = verify_factorizations(args.N)
    return [
        {"check": "Eq2.2/involution_squared",
         "passed": res["involution_squared_deviation"] == 0,
         "deviation": float(res["involution_squared_deviation"])},
        {"check": "Eq2.2/similarity",
         "passed": res["similarity_deviation"] == 0,
         "deviation": float(res["similarity_deviation"])},
        {"check": "Eq2.3/shift_diff_factorization",
         "passed": res["shift_diff_factorization_deviation"] == 0,
         "deviation": float(res["shift_diff_factorization_deviation"])},
    ]


def _checks_eigen(args):
    if args.m > args.N:
        raise ValueError(f"--m {args.m} exceeds the {args.N} columns of "
                         f"the truncation --N")
    delta = delta_matrix_exact(args.N)
    checks = []
    for m in range(1, args.m + 1):
        col = np.array([Fraction(v) for v in delta[:, m - 1]], dtype=object)
        dev = _max_deviation(cesaro_apply(col), col / m)
        checks.append({"check": f"Sec2/eigenvector_m={m}",
                       "passed": dev == 0, "deviation": float(dev)})
    return checks


def _random_lambda(rng):
    """A uniform point of |lambda| <= 3 farther than 0.05 from Sigma0."""
    while True:
        lam = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        if abs(lam) <= 3.0 and rsv.dist_sigma0(lam) > 0.05:
            return lam


def _checks_sandwich(args):
    rng = np.random.default_rng(args.seed)
    N_list = (10, 100, 1000, 10000)
    slack = 1.001  # 0.1 percent floating slack
    worst_lo = math.inf
    worst_hi = math.inf
    bad = 0
    for _ in range(args.samples):
        lam = _random_lambda(rng)
        for lo, hi in rsv._log_slacks(lam, rsv.u_fn(lam), rsv.v_fn(lam),
                                      N_list):
            lo += math.log(slack)
            hi += math.log(slack)
            worst_lo = min(worst_lo, lo)
            worst_hi = min(worst_hi, hi)
            if lo < 0 or hi < 0:
                bad += 1
    return [{"check": "Lemma2.7/sandwich",
             "passed": bad == 0,
             "samples": args.samples, "violations": bad,
             "worst_log_slack_lower": worst_lo,
             "worst_log_slack_upper": worst_hi}]


def _checks_resolvent(args):
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.samples):
        mu = _random_lambda(rng)
        dec = rsv.resolvent_entries(mu)
        worst = max(worst, dec.reconstruction_residual(args.N))
    return [{"check": "Sec2/resolvent_reconstruction",
             "passed": worst < 1e-9, "max_residual": worst,
             "samples": args.samples}]


def _checks_ergodic(args):
    checks = []
    W = WeightFamily(make_alpha("n"))
    pb = power_bounded_check(W, k=1, trials=10, m_max=200, N=50,
                             seed=args.seed)
    checks.append({"check": "Prop4.1/power_bounded",
                   "passed": pb["passed"],
                   "worst_ratio": pb["worst_ratio"]})
    e1 = [1.0] + [0.0] * 9
    trace = iterates_limit_check(e1, W, k=1, N=10, tol=1e-6)
    checks.append({"check": "Thm4.2/iterates_limit",
                   "passed": trace.status == "converged",
                   "iterations": len(trace.m_values),
                   "final_distance": trace.distances[-1]})
    A, B, residual = range_inverse_matrices(10)
    ok = (residual == 0 and B[0][0] == Fraction(2)
          and B[1][1] == Fraction(3, 2))
    checks.append({"check": "Prop4.3/range_inverse",
                   "passed": bool(ok), "residual": float(residual),
                   "b11": float(B[0][0]), "b22": float(B[1][1])})
    return checks


def _checks_finite(args):
    checks = []
    ftw = _resolve_finite("finite:log_np1")
    v = ft_continuity_criterion(ftw, 1, 2, horizon=min(args.horizon, 10 ** 6))
    checks.append({"check": "Ex5.2/criterion_bounded",
                   "passed": v.status == "holds", "sup": v.sup_value})
    ftw_n = FiniteTypeWeights(make_alpha("n"))
    diverged = all(
        ft_continuity_criterion(ftw_n, 1, l, horizon=10 ** 4).status == "fails"
        for l in range(2, 10))
    checks.append({"check": "Prop5.1/divergence", "passed": diverged})
    jv = (example53_j(2), example53_j(3), example53_j(4))
    checks.append({"check": "Ex5.3/j_values",
                   "passed": jv == (4, 96, 7077888),
                   "values": list(jv)})
    lb = example53_lower_bound(4, 1)
    checks.append({"check": "Ex5.3/lower_bound",
                   "passed": abs(lb - 64.0) < 1e-9, "value": lb})
    return checks


# suite -> (checks, the truncation N that --N 0 stands for)
_SUITES = {
    "factorizations": (_checks_factorizations, 16),
    "eigen": (_checks_eigen, 50),
    "sandwich": (_checks_sandwich, 0),
    "resolvent": (_checks_resolvent, 20),
    "ergodic": (_checks_ergodic, 10),
    "finite": (_checks_finite, 0),
}


def cmd_verify(args):
    checks_of, default_N = _SUITES[args.suite]
    if args.N == 0:
        args.N = default_N
    config = RunConfig("verify", horizon=args.horizon, N=args.N,
                       seed=args.seed,
                       options={"suite": args.suite, "m": args.m,
                                "samples": args.samples})
    checks = checks_of(args)
    report = {"suite": args.suite, "checks": checks,
              "passed": all(c["passed"] for c in checks)}
    _emit_json(report, config, args.output)
    return EXIT_OK if report["passed"] else EXIT_FAIL


def cmd_grid(args):
    config = RunConfig("grid", alpha_spec=args.alpha, horizon=args.horizon,
                       options={"re": list(args.re), "im": list(args.im),
                                "res": args.res,
                                "probe_subsample": args.probe_subsample})
    alpha = _resolve_alpha(args.alpha)
    W = WeightFamily(alpha)
    report, grid = sample_grid(alpha, W, args.re, args.im, args.res,
                               horizon=args.horizon,
                               probe_subsample=args.probe_subsample)
    with open(args.out, "w") as fh:
        fh.write(_header_comment(config))
        fh.write(f"# sigma={report.sigma} sigma_star={report.sigma_star}\n")
        grid_to_csv(grid, fh)
    if args.svg:
        with open(args.svg, "w") as fh:
            hdr = _header_comment(config).strip("# \n")
            fh.write(f"<!-- {hdr} -->\n")
            grid_to_svg(grid, fh)
    return EXIT_OK


def cmd_probe(args):
    lam = getattr(args, "lambda")
    config = RunConfig("probe", alpha_spec=args.alpha, horizon=args.horizon,
                       options={"lambda": [lam.real, lam.imag],
                                "delta": args.delta, "k": args.k,
                                "samples": args.samples,
                                "l_max": args.l_max})
    W = WeightFamily(_resolve_alpha(args.alpha))
    report = rsv.equicontinuity_probe(lam, args.delta, W, args.k,
                                      horizon=args.horizon,
                                      samples=args.samples, l_max=args.l_max)
    _emit_json(report, config, args.output)
    return EXIT_OK


def cmd_ergodic(args):
    config = RunConfig("ergodic", alpha_spec=args.alpha, N=args.N,
                       options={"k": args.k, "tol": args.tol,
                                "m_cap": args.m_cap})
    alpha = _resolve_alpha(args.alpha)
    if alpha.max_index is not None and args.N > alpha.max_index:
        raise ValueError(f"--N {args.N} exceeds the {alpha.max_index} "
                         f"values of alpha {alpha.name!r}")
    W = WeightFamily(alpha)
    x = [1.0] + [0.0] * (args.N - 1)
    trace = iterates_limit_check(x, W, args.k, args.N, tol=args.tol,
                                 m_cap=args.m_cap)
    report = {"status": trace.status, "iterations": len(trace.m_values),
              "final_distance": trace.distances[-1], "k": args.k,
              "N": args.N}
    _emit_json(report, config, args.output)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(_header_comment(config))
            trace.to_csv(fh)
    return EXIT_OK if trace.status == "converged" else EXIT_INCONCLUSIVE


def cmd_finite(args):
    config = RunConfig("finite", alpha_spec=args.weights,
                       horizon=args.horizon,
                       options={"k": args.k, "l": args.l})
    ftw = _resolve_finite(args.weights)
    if args.k and args.l:
        v = ft_continuity_criterion(ftw, args.k, args.l,
                                    horizon=args.horizon)
        report = {"kind": "criterion", "k": args.k, "l": args.l,
                  "verdict": v}
        code = EXIT_OK if v.status != "inconclusive" else EXIT_INCONCLUSIVE
    else:
        res = ft_cesaro_acts(ftw, horizon=args.horizon)
        report = {"kind": "acts", "verdict": res["verdict"],
                  "per_step": res["per_step"]}
        code = (EXIT_OK if res["verdict"] != "inconclusive"
                else EXIT_INCONCLUSIVE)
    _emit_json(report, config, args.output)
    return code


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """Reports bad usage as one line on stderr, without the usage text."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser():
    p = _Parser(
        prog="cesarolab",
        description="Numerical laboratory for the averaging operator on "
                    "weighted inductive limits of sequence spaces.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="symbolic spectrum classification")
    c.add_argument("--alpha", required=True)
    c.add_argument("--horizon", type=_positive_int, default=10 ** 5)
    c.add_argument("--no-probe", action="store_true")
    c.add_argument("--output", default=None)
    c.set_defaults(func=cmd_classify)

    v = sub.add_parser("verify", help="run a named invariant suite")
    v.add_argument("--suite", required=True, choices=sorted(_SUITES))
    v.add_argument("--N", type=_nonnegative_int, default=0)
    v.add_argument("--m", type=_positive_int, default=10)
    v.add_argument("--samples", type=_positive_int, default=50)
    v.add_argument("--horizon", type=_positive_int, default=10 ** 5)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--output", default=None)
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("grid", help="complex-plane portrait CSV/SVG")
    g.add_argument("--alpha", required=True)
    g.add_argument("--re", type=_parse_range, default="-1:2")
    g.add_argument("--im", type=_parse_range, default="-1.5:1.5")
    g.add_argument("--res", type=_positive_int, required=True)
    g.add_argument("--probe-subsample", type=_nonnegative_int, default=0)
    g.add_argument("--horizon", type=_positive_int, default=10 ** 4)
    g.add_argument("--out", required=True)
    g.add_argument("--svg", default=None)
    g.set_defaults(func=cmd_grid)

    pr = sub.add_parser("probe", help="equicontinuity probe at a point")
    pr.add_argument("--alpha", required=True)
    pr.add_argument("--lambda", type=_finite_complex, required=True)
    pr.add_argument("--delta", type=_positive_float, default=0.05)
    pr.add_argument("--k", type=_positive_int, default=1)
    pr.add_argument("--horizon", type=_positive_int, default=10 ** 5)
    pr.add_argument("--samples", type=_positive_int, default=8)
    pr.add_argument("--l-max", type=_nonnegative_int, default=64)
    pr.add_argument("--output", default=None)
    pr.set_defaults(func=cmd_probe)

    e = sub.add_parser("ergodic", help="iterate-convergence trace")
    e.add_argument("--alpha", required=True)
    e.add_argument("--k", type=_positive_int, default=1)
    e.add_argument("--N", type=int, default=10)
    e.add_argument("--tol", type=_positive_float, default=1e-8)
    e.add_argument("--m-cap", type=_positive_int, default=10 ** 4)
    e.add_argument("--trace", default=None)
    e.add_argument("--output", default=None)
    e.set_defaults(func=cmd_ergodic)

    f = sub.add_parser("finite", help="finite-type continuity criteria")
    f.add_argument("--weights", required=True)
    f.add_argument("--k", type=_nonnegative_int, default=0)
    f.add_argument("--l", type=_nonnegative_int, default=0)
    f.add_argument("--horizon", type=_positive_int, default=10 ** 6)
    f.add_argument("--output", default=None)
    f.set_defaults(func=cmd_finite)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; remap to the invalid-input code
        return EXIT_FAIL if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
