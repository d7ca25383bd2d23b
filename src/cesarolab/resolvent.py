"""Explicit resolvent of the averaging operator and its bounds.

For mu outside {0} u {1/n} the resolvent is the explicit lower
triangular matrix D_mu - mu^{-2} E_mu with diagonal 1/(1/n - mu) and
strict part e_{nm}(mu) = 1/(n prod_{k=m}^{n} (1 - 1/(mu k))).  All the
estimates here are on moduli, so products are accumulated as sums of
log-magnitudes (complex logs where a phase is needed); N up to 1e5
factors stays well inside double range.

The distance to Sigma0 = {0} u {1/n} is exact: the nearest point of
Sigma0 is read off Re z in closed form, elementwise over arrays, with no
cap on n.  Grid margins and the lower sandwich constant u(lam) are
measured with it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .operators import TriangularOperator
from .weights import WeightFamily, scan_horizon, scan_verdict

__all__ = [
    "ResolventDecomposition",
    "SandwichBounds",
    "a_fn",
    "dist_sigma0",
    "u_fn",
    "v_fn",
    "product_log",
    "product_log_prefix",
    "sandwich_bounds",
    "sandwich_check",
    "resolvent_entries",
    "resolvent_norm_bound_check",
    "equicontinuity_probe",
    "disc_samples",
]

PROBE_L_MAX = 64


def a_fn(z):
    """Re(1/z); a(z) >= 1 exactly on the closed disc |z - 1/2| <= 1/2."""
    if z == 0:
        raise ZeroDivisionError("a(z) undefined at z = 0")
    return (1.0 / z).real


def dist_sigma0(z):
    """Distance from z to {0} u {1/n : n in N}, elementwise over arrays.

    |z - 1/n| is smallest at the reciprocal nearest to x = Re z, one of
    1/floor(1/x) and 1/ceil(1/x) for 0 < x <= 1 and 1 for x > 1; for
    x <= 0 no reciprocal is nearer than the point 0.  A scalar z gives a
    float.
    """
    z = np.asarray(z, dtype=complex)
    # |z| as np.hypot (bit-equal to abs(complex)), |z - 1/n| as
    # np.abs(complex): the two round differently in the last bit, and
    # report floats such as the sandwich slack depend on which is used
    d = np.hypot(z.real, z.imag)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / z.real
        for n in (np.floor(inv), np.ceil(inv)):
            # n < 1 only for x > 1 (nearest is 1) or x <= 0 (0 is nearer)
            d = np.fmin(d, np.abs(z - 1.0 / np.maximum(n, 1.0)))
    return float(d) if d.ndim == 0 else d


def v_fn(lam):
    """Upper sandwich constant exp(1/|lam| + 1/|lam|^2)."""
    r = abs(lam)
    return math.exp(1.0 / r + 1.0 / r ** 2)


def u_fn(lam):
    """Lower sandwich constant exp(-1/|lam| - 2 D(lam)).

    D(lam) = 3 (1+|lam|)^2 / (|lam|^{3/2} d(lam)^{5/2}) with d the
    distance to {0} u {1/n}.  The constant degrades quickly as lam
    approaches the excluded set, so the bound is loose but never wrong.
    """
    r = abs(lam)
    d = dist_sigma0(lam)
    if d == 0:
        return 0.0
    big_d = 3.0 * (1.0 + r) ** 2 / (r ** 1.5 * d ** 2.5)
    arg = -1.0 / r - 2.0 * big_d
    return math.exp(max(arg, -745.0)) if arg > -745.0 else 0.0


@dataclass
class SandwichBounds:
    lam: complex
    delta: float
    a_val: float
    u_val: float
    v_val: float
    d_lambda: float
    d_delta: float
    D_delta: float


def product_log(mu, N):
    """sum_{n<=N} log|1 - 1/(n mu)|, -inf flagged when a factor vanishes."""
    return float(product_log_prefix(mu, N)[-1])


def product_log_prefix(mu, N):
    """Cumulative sums of log|1 - 1/(n mu)| for n = 1..N."""
    mu = complex(mu)
    if mu == 0:
        raise ZeroDivisionError("mu = 0 is in Sigma0")
    ns = np.arange(1, N + 1, dtype=float)
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(1.0 - 1.0 / (ns * mu)))
    return np.cumsum(logs)


def disc_samples(lam, delta, boundary=64, interior=32):
    """Deterministic sample grid of the closed disc around lam.

    A boundary ring plus an interior spiral lattice; includes the
    center.  Reproducible sup/inf estimates depend on this fixed order.
    """
    lam = complex(lam)
    pts = [lam]
    for i in range(boundary):
        theta = 2.0 * math.pi * i / boundary
        pts.append(lam + delta * cmath.exp(1j * theta))
    for i in range(1, interior + 1):
        r = delta * i / (interior + 1)
        theta = 2.0 * math.pi * (i * 0.61803398875 % 1.0)
        pts.append(lam + r * cmath.exp(1j * theta))
    return pts


def sandwich_bounds(lam, delta):
    """Disc-wide constants d_delta = inf u, D_delta = sup v."""
    d_lam = dist_sigma0(lam)
    if d_lam <= delta:
        raise ValueError(
            f"closed disc B({lam}, {delta}) touches Sigma0 "
            f"(dist = {d_lam:.3g})")
    pts = disc_samples(lam, delta)
    us = [u_fn(p) for p in pts]
    vs = [v_fn(p) for p in pts]
    return SandwichBounds(lam, delta, a_fn(lam), u_fn(lam), v_fn(lam),
                          d_lam, min(us), max(vs))


def sandwich_check(lam, delta, N_list, samples=16):
    """Assert d_delta/N^a <= prod |1 - 1/(n mu)| <= D_delta/N^a on a grid.

    Returns a report with the worst lower/upper slack factors (> 1 means
    the inequality holds with room to spare).
    """
    bounds = sandwich_bounds(lam, delta)
    pts = disc_samples(lam, delta, boundary=samples,
                       interior=max(samples // 2, 1))
    N_list = sorted(int(N) for N in N_list)
    worst_lo = math.inf
    worst_hi = math.inf
    failures = []
    for mu in pts:
        prefix = product_log_prefix(mu, N_list[-1])
        a_mu = a_fn(mu)
        for N in N_list:
            log_prod = float(prefix[N - 1])
            log_lo = math.log(bounds.d_delta) - a_mu * math.log(N)
            log_hi = math.log(bounds.D_delta) - a_mu * math.log(N)
            slack_lo = log_prod - log_lo
            slack_hi = log_hi - log_prod
            worst_lo = min(worst_lo, slack_lo)
            worst_hi = min(worst_hi, slack_hi)
            if slack_lo < 0 or slack_hi < 0:
                failures.append({"mu": mu, "N": N,
                                 "slack_lo": slack_lo, "slack_hi": slack_hi})
    return {
        "lambda": lam,
        "delta": delta,
        "N_list": N_list,
        "samples": len(pts),
        "d_delta": bounds.d_delta,
        "D_delta": bounds.D_delta,
        "worst_log_slack_lower": worst_lo,
        "worst_log_slack_upper": worst_hi,
        "passed": not failures,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# resolvent decomposition

@dataclass
class ResolventDecomposition:
    mu: complex
    diag_part: TriangularOperator
    strict_part: TriangularOperator

    def resolvent_matrix(self, N):
        """Dense truncation of D_mu - mu^{-2} E_mu."""
        D = self.diag_part.truncate(N)
        E = self.strict_part.truncate(N)
        return D - E / self.mu ** 2

    def reconstruction_residual(self, N):
        """max |(C - mu I) R - I| at truncation N (triangular, exact cut)."""
        R = self.resolvent_matrix(N)
        C = np.tril(1.0 / np.arange(1, N + 1, dtype=float)[:, None]
                    * np.ones((N, N)))
        M = (C - self.mu * np.eye(N)) @ R - np.eye(N)
        return float(np.max(np.abs(M)))


def resolvent_entries(mu):
    """Entry functions of the explicit resolvent at mu outside Sigma0.

    The strict part has e_{nm}(mu) = 1/(n prod_{k=m}^{n} (1 - 1/(mu k)))
    for 1 <= m < n and a zero first row; entries are evaluated through
    accumulated complex logs so deep products neither overflow nor lose
    their phase.
    """
    mu = complex(mu)
    if mu == 0:
        raise ValueError("mu = 0 lies in Sigma0")
    inv = 1.0 / mu
    if abs(inv - round(inv.real)) < 1e-15 and round(inv.real) >= 1:
        raise ValueError(f"mu = {mu} lies in Sigma0 (mu = 1/n)")

    cache = {"prefix": None}

    def clog_prefix(n):
        # cumulative complex log of the factors (1 - 1/(mu k)), k <= n
        pref = cache["prefix"]
        if pref is None or len(pref) < n:
            top = max(n, 64, 2 * (len(pref) if pref is not None else 0))
            ks = np.arange(1, top + 1, dtype=float)
            factors = (1.0 - 1.0 / (mu * ks)).astype(complex)
            pref = np.cumsum(np.log(factors))
            cache["prefix"] = pref
        return pref

    def e_entry(n, m):
        if n < 2 or m >= n or m < 1:
            return 0.0
        pref = clog_prefix(n)
        acc = pref[n - 1] - (pref[m - 2] if m >= 2 else 0.0)
        return complex(cmath.exp(-acc)) / n

    def d_entry(n, m):
        if n != m:
            return 0.0
        return 1.0 / (1.0 / n - mu)

    return ResolventDecomposition(mu, TriangularOperator(d_entry),
                                  TriangularOperator(e_entry))


# ---------------------------------------------------------------------------
# norm bound and equicontinuity probe

def _strict_row_base(mu, lw_k):
    """log of (1/n) sum_{m<n} e^{P(m-1)} / v_k(m), factored per row.

    With P the cumulative log-magnitude of the resolvent product, the
    weighted row sum of |e~^{k,l}_{nm}| equals
    exp(log v_l(n) + base(n)) where base is independent of l; this makes
    the search over steps l a cheap vector sweep.  ``lw_k`` holds
    log v_k(n) for n = 1..horizon.
    """
    horizon = len(lw_k)
    P = product_log_prefix(mu, horizon)          # P[i] = sum_{k<=i+1}
    # terms_m = P(m-1) - log v_k(m), prefix log-sum-exp over m
    terms = np.empty(horizon)
    terms[0] = -lw_k[0]
    terms[1:] = P[:-1] - lw_k[1:]
    logQ = np.logaddexp.accumulate(terms)
    base = np.full(horizon, -np.inf)
    log_n = np.log(np.arange(1, horizon + 1, dtype=float))
    base[1:] = -log_n[1:] - P[1:] + logQ[:-1]
    return base


def equicontinuity_probe(lam, delta, W: WeightFamily, k, horizon=10 ** 5,
                         samples=8, l_max=PROBE_L_MAX):
    """Search a step l making the conjugated strict part uniformly small.

    For each l in {k, ..., k+l_max} the probe computes, over a
    deterministic sample of the disc around lam, the supremum of the
    weighted row sums of the conjugated resolvent strict part.  A step
    counts as bounded when ``scan_verdict`` grants ``holds`` to the rows
    n >= 2 (row 1 of the strict part is zero) at every sample; a NaN row
    never does.  alpha is evaluated once; each step only rescales it.
    The horizon is capped to the indices a finite alpha defines.
    """
    if not delta > 0:
        raise ValueError(f"disc radius must be positive, got {delta}")
    d_lam = dist_sigma0(lam)
    if d_lam <= delta:
        raise ValueError(
            f"closed disc B({lam}, {delta}) touches Sigma0 "
            f"(dist = {d_lam:.3g})")
    mus = disc_samples(lam, delta, boundary=max(samples - 1, 1), interior=0)
    mus = mus[:samples]
    horizon = scan_horizon(W.alpha, horizon)
    ns = np.arange(1, horizon + 1)
    alpha_ns = W.alpha.values(ns)
    lw_k = W.step_log_weights(k, alpha_ns)
    bases = [_strict_row_base(mu, lw_k)[1:] for mu in mus]
    strict_ns, strict_alpha = ns[1:], alpha_ns[1:]

    best = None
    for l in range(k, k + l_max + 1):
        lw_l = W.step_log_weights(l, strict_alpha)
        sup_all = -math.inf
        bounded = True
        for base in bases:
            with np.errstate(invalid="ignore"):  # -inf + inf: a NaN row
                row = lw_l + base
            v = scan_verdict(row, strict_ns)
            sup = float(row[v.witness_index - 2])  # row[0] is n = 2
            sup_all = max(sup, sup_all)  # max keeps a NaN first argument
            if v.status != "holds":
                bounded = False
                break
        if best is None or sup_all < best[1]:
            best = (l, sup_all)
        if math.isnan(best[1]):
            # a NaN row (alpha_n = inf) recurs at every l, and no later
            # sup replaces a NaN best: the search is decided
            break
        if bounded:
            return {
                "l_found": l,
                "sup_row_sum": math.exp(sup_all),
                "lambda": lam,
                "delta": delta,
                "horizon": horizon,
                "samples": len(mus),
                "verdict": "bounded",
            }
    return {
        "l_found": None,
        "sup_row_sum": math.exp(min(best[1], 709.0)) if best else math.inf,
        "lambda": lam,
        "delta": delta,
        "horizon": horizon,
        "samples": len(mus),
        "verdict": "unbounded_evidence",
    }


def resolvent_norm_bound_check(lam, W: WeightFamily, k, horizon=10 ** 4,
                               delta=None, samples=8):
    """Weighted-norm estimate of the resolvent against M/(1 - a(mu)).

    Only valid outside the closed disc |lam - 1/2| <= 1/2, where
    a(lam) < 1.  Reports the worst ratio of the truncated row-sum norm
    to 1/(1 - a(mu)) over sampled mu near lam.  The horizon is capped to
    the indices a finite alpha defines.
    """
    if a_fn(lam) >= 1.0:
        raise ValueError(
            f"lambda = {lam} lies in the closed disc (a(lambda) >= 1)")
    if delta is None:
        delta = 0.25 * min(dist_sigma0(lam), abs(lam - 0.5) - 0.5)
    mus = disc_samples(lam, delta, boundary=max(samples - 1, 1), interior=0)
    mus = [mu for mu in mus[:samples] if a_fn(mu) < 1.0]
    worst = 0.0
    rows = []
    horizon = scan_horizon(W.alpha, horizon)
    ns = np.arange(1, horizon + 1)
    lw_k = W.log_weights(k, ns)
    for mu in mus:
        base = _strict_row_base(mu, lw_k)
        off = np.exp(np.minimum(lw_k + base, 700.0)) / abs(mu) ** 2
        diag = np.abs(1.0 / (1.0 / ns - mu))
        norm_est = float(np.max(diag + off))
        ratio = norm_est * (1.0 - a_fn(mu))
        worst = max(worst, ratio)
        rows.append({"mu": mu, "norm_estimate": norm_est, "ratio": ratio})
    return {
        "lambda": lam,
        "k": k,
        "horizon": horizon,
        "worst_ratio": worst,
        "bounded": math.isfinite(worst),
        "samples": rows,
    }
