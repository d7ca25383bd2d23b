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
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field, is_dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from . import resolvent as rsv
from .ergodic import (ITERATE_TOL, M_CAP, iterates_limit_check,
                      power_bounded_check, range_inverse_matrices)
from .finite_type import (FiniteTypeWeights, example53_j,
                          example53_lower_bound, ft_cesaro_acts,
                          ft_continuity_criterion)
from .operators import (_exact_tier, _max_deviation, _scale_to_ints,
                        delta_matrix_exact, verify_factorizations)
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
    if isinstance(obj, float):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
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
    name = {"log_np1": "log_n_plus_1", "example53": "appendix_5_3"}.get(
        spec.removeprefix("finite:"))
    if name is None:
        raise ValueError(f"finite weights spec {spec!r} must be "
                         f"finite:log_np1 or finite:example53")
    return FiniteTypeWeights(make_alpha(name))


def _arg_type(parse, ok, what):
    """An argparse type: ``parse`` the string and keep the value if ``ok``;
    otherwise the error reads ``must be <what>, got '<s>'``."""
    def convert(s):
        try:
            v = parse(s)
            if ok(v):
                return v
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {s!r}")
    return convert


# a count, a horizon or a step
_positive_int = _arg_type(int, lambda n: n >= 1, "a positive integer")
# 0 has a meaning of its own: probe --l-max 0 tries l = k only, verify
# --N 0 is the suite default, finite --k 0 --l 0 runs the acts search,
# and grid --probe-subsample 0 probes nothing (verify --seed 0 is a seed)
_nonnegative_int = _arg_type(int, lambda n: n >= 0, "a non-negative integer")
# a disc radius or a tolerance
_positive_float = _arg_type(float, lambda v: math.isfinite(v) and v > 0,
                            "a positive finite number")
# 'i' or 'j' as the imaginary unit
_finite_complex = _arg_type(lambda s: complex(s.replace("i", "j")),
                            cmath.isfinite, "a finite complex number")
# LO:HI, a side of the grid
_parse_range = _arg_type(lambda s: tuple(map(float, s.split(":"))),
                         lambda r: len(r) == 2 and all(map(math.isfinite, r)),
                         "LO:HI with two finite numbers")


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


def _exact_check(name, dev):
    """The record of an exact identity: it passes when its deviation is 0."""
    return {"check": name, "passed": dev == 0, "deviation": float(dev)}


def _checks_factorizations(*, N=16):
    res = verify_factorizations(N)
    return [_exact_check(name, res[key]) for name, key in (
        ("Eq2.2/involution_squared", "involution_squared_deviation"),
        ("Eq2.2/similarity", "similarity_deviation"),
        ("Eq2.3/shift_diff_factorization",
         "shift_diff_factorization_deviation"))]


def _checks_eigen(*, N=50, m=10):
    _exact_tier(N)
    if m > N:
        raise ValueError(f"--m {m} exceeds the {N} columns of the "
                         f"truncation --N")
    # C delta e_m = delta e_m / m, scaled by L = lcm(1..N):
    # (L/n) S_nm = (L/m) delta_nm with S the running sums of column m
    delta = delta_matrix_exact(N)[:, :m]
    L, (inv,) = _scale_to_ints([Fraction(1, n) for n in range(1, N + 1)])
    lhs = np.cumsum(delta, axis=0) * inv[:, None]
    rhs = delta * inv[:m]
    return [_exact_check(f"Sec2/eigenvector_m={i}", Fraction(
        _max_deviation(lhs[:, i - 1], rhs[:, i - 1]), L))
        for i in range(1, m + 1)]


def _random_lambda(rng):
    """A uniform point of |lambda| <= 3 farther than 0.05 from Sigma0."""
    while True:
        lam = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        if abs(lam) <= 3.0 and rsv.dist_sigma0(lam) > 0.05:
            return lam


def _checks_sandwich(*, samples=50, seed=0):
    rng = np.random.default_rng(seed)
    lams = [_random_lambda(rng) for _ in range(samples)]
    # 0.1 percent floating slack
    worst_lo, worst_hi, failures = rsv._sandwich_sweep(
        lams, [(rsv.u_fn(lam), rsv.v_fn(lam)) for lam in lams],
        (10, 100, 1000, 10000), math.log(1.001))
    return [{"check": "Lemma2.7/sandwich",
             "passed": not failures,
             "samples": samples, "violations": len(failures),
             "worst_log_slack_lower": worst_lo,
             "worst_log_slack_upper": worst_hi}]


def _checks_resolvent(*, N=20, samples=50, seed=0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        mu = _random_lambda(rng)
        dec = rsv.resolvent_entries(mu)
        worst = max(worst, dec.reconstruction_residual(N))
    return [{"check": "Sec2/resolvent_reconstruction",
             "passed": worst < 1e-9, "max_residual": worst,
             "samples": samples}]


def _checks_ergodic(*, N=10, seed=0):
    _exact_tier(N)  # the range inverse is exact
    checks = []
    W = WeightFamily(make_alpha("n"))
    pb = power_bounded_check(W, k=1, trials=10, m_max=200, N=50, seed=seed)
    checks.append({"check": "Prop4.1/power_bounded",
                   "passed": pb["passed"],
                   "worst_ratio": pb["worst_ratio"]})
    e1 = [1.0] + [0.0] * (N - 1)
    trace = iterates_limit_check(e1, W, k=1, N=N, tol=1e-6)
    checks.append({"check": "Thm4.2/iterates_limit",
                   "passed": trace.status == "converged",
                   "iterations": len(trace.m_values),
                   "final_distance": trace.distances[-1]})
    A, B, residual = range_inverse_matrices(N)
    ok = (residual == 0 and B[0][0] == Fraction(2)
          and B[1][1] == Fraction(3, 2))
    checks.append({"check": "Prop4.3/range_inverse",
                   "passed": bool(ok), "residual": float(residual),
                   "b11": float(B[0][0]), "b22": float(B[1][1])})
    return checks


def _checks_finite(*, horizon=10 ** 5):
    checks = []
    ftw = FiniteTypeWeights(make_alpha("log_n_plus_1"))
    v = ft_continuity_criterion(ftw, 1, 2, horizon=horizon)
    checks.append({"check": "Ex5.2/criterion_bounded",
                   "passed": v.status == "holds", "status": v.status,
                   "horizon": v.horizon, "sup": v.sup_value})
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


# a suite reads the options its checks name, with their defaults
_SUITES = {
    "factorizations": _checks_factorizations,
    "eigen": _checks_eigen,
    "sandwich": _checks_sandwich,
    "resolvent": _checks_resolvent,
    "ergodic": _checks_ergodic,
    "finite": _checks_finite,
}
# the verify options (None when not given), and what the header records
# for one the suite does not read
_UNREAD = {"N": 0, "m": 10, "samples": 50, "seed": 0, "horizon": 10 ** 5}


def cmd_verify(args):
    checks_of = _SUITES[args.suite]
    kw = dict(checks_of.__kwdefaults__)  # every suite's options: keyword-only
    for opt in _UNREAD:
        value = getattr(args, opt)
        if value is None or (opt == "N" and value == 0):  # the suite's N
            continue
        if opt not in kw:
            raise ValueError(
                f"suite {args.suite!r} reads no --{opt}, got {value}")
        kw[opt] = value
    rec = {**_UNREAD, **kw}
    config = RunConfig("verify", horizon=rec["horizon"], N=rec["N"],
                       seed=rec["seed"],
                       options={"suite": args.suite, "m": rec["m"],
                                "samples": rec["samples"]})
    checks = checks_of(**kw)
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
    report, grid = sample_grid(alpha, args.re, args.im, args.res,
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
    if bool(args.k) != bool(args.l):
        raise ValueError(f"--k and --l go together (both 0: the acts "
                         f"search), got --k {args.k} --l {args.l}")
    if args.k:
        v = ft_continuity_criterion(ftw, args.k, args.l,
                                    horizon=args.horizon)
        report = {"kind": "criterion", "k": args.k, "l": args.l,
                  "verdict": v}
        status = v.status
    else:
        res = ft_cesaro_acts(ftw, horizon=args.horizon)
        report = {"kind": "acts", "verdict": res["verdict"],
                  "per_step": res["per_step"]}
        status = res["verdict"]
    _emit_json(report, config, args.output)
    return EXIT_INCONCLUSIVE if status == "inconclusive" else EXIT_OK


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """Reports bad usage as one line on stderr, without the usage text."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
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
    v.add_argument("--N", type=_nonnegative_int)
    v.add_argument("--m", type=_positive_int)
    v.add_argument("--samples", type=_positive_int)
    v.add_argument("--horizon", type=_positive_int)
    v.add_argument("--seed", type=_nonnegative_int)
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
    pr.add_argument("--l-max", type=_nonnegative_int, default=rsv.PROBE_L_MAX)
    pr.add_argument("--output", default=None)
    pr.set_defaults(func=cmd_probe)

    e = sub.add_parser("ergodic", help="iterate-convergence trace")
    e.add_argument("--alpha", required=True)
    e.add_argument("--k", type=_positive_int, default=1)
    e.add_argument("--N", type=_positive_int, default=10)
    e.add_argument("--tol", type=_positive_float, default=ITERATE_TOL)
    e.add_argument("--m-cap", type=_positive_int, default=M_CAP)
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
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
