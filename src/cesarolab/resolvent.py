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

Every disc B(lam, delta) comes from ``disc_samples``, which rejects a
radius <= 0, a negative sample count and a closed disc touching Sigma0.
``_log_slacks`` is the one measure of the Lemma 2.7 sandwich; a lower
constant 0 is read as the bound 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .weights import WeightFamily, scan_horizon, scan_verdict

__all__ = [
    "ResolventDecomposition",
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
    """Upper sandwich constant exp(1/|lam| + 1/|lam|^2); inf past the
    double range (|lam| < 0.0383), where the upper bound is trivial."""
    r = abs(lam)
    arg = 1.0 / r + 1.0 / r ** 2
    return math.exp(arg) if arg <= 709.782712893384 else math.inf


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
    return math.exp(arg) if arg > -745.0 else 0.0


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

    The center, a boundary ring and an interior spiral lattice, in the
    fixed order reproducible sup/inf estimates depend on.  ValueError
    unless delta > 0, both counts are >= 0 and the closed disc misses
    Sigma0.
    """
    if not delta > 0:
        raise ValueError(f"disc radius must be positive, got {delta}")
    if boundary < 0 or interior < 0:
        raise ValueError(f"disc sample counts must be >= 0, got "
                         f"boundary={boundary}, interior={interior}")
    d_lam = dist_sigma0(lam)
    if d_lam <= delta:
        raise ValueError(
            f"closed disc B({lam}, {delta}) touches Sigma0 "
            f"(dist = {d_lam:.3g})")
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
    """Disc-wide constants (d_delta, D_delta) = (inf u, sup v)."""
    pts = disc_samples(lam, delta)
    return min(u_fn(p) for p in pts), max(v_fn(p) for p in pts)


def _log_slacks(mu, lo, hi, N_list):
    """Log slacks (lower, upper) of lo/N^a <= prod_{n<=N} |1 - 1/(n mu)|
    <= hi/N^a, a = a(mu), for each N of the increasing N_list; a lower
    constant 0 is the bound 0 (log -inf)."""
    log_prods = product_log_prefix(mu, N_list[-1])[np.asarray(N_list) - 1]
    a = a_fn(mu)
    log_lo = math.log(lo) if lo > 0 else -math.inf
    log_hi = math.log(hi)
    return [(p - (log_lo - a * math.log(N)), (log_hi - a * math.log(N)) - p)
            for N, p in zip(N_list, log_prods.tolist())]


def sandwich_check(lam, delta, N_list, samples=16):
    """Assert d_delta/N^a <= prod |1 - 1/(n mu)| <= D_delta/N^a on a grid.

    Returns a report with the worst lower/upper log slacks (> 0 means
    the inequality holds with room to spare).
    """
    d_delta, D_delta = sandwich_bounds(lam, delta)
    pts = disc_samples(lam, delta, boundary=samples,
                       interior=max(samples // 2, 1))
    N_list = sorted(int(N) for N in N_list)
    worst_lo = math.inf
    worst_hi = math.inf
    failures = []
    for mu in pts:
        for N, (slack_lo, slack_hi) in zip(
                N_list, _log_slacks(mu, d_delta, D_delta, N_list)):
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
        "d_delta": d_delta,
        "D_delta": D_delta,
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

    def resolvent_matrix(self, N):
        """Dense truncation of D_mu - mu^{-2} E_mu.

        e_{nm} = exp(L_{m-1} - L_n) / n, L_n the cumulative complex log
        of (1 - 1/(mu k)), k <= n.  Each entry is divided and exponentiated
        in Python: NumPy rounds both differently, and reports show the bits.
        """
        mu = self.mu
        L = np.zeros(N + 1, dtype=complex)
        L[1:] = np.cumsum(np.log(1.0 - 1.0 / (mu * np.arange(1.0, N + 1))))
        D = np.diag([1.0 / (1.0 / n - mu) for n in range(1, N + 1)])
        E = np.array([[complex(cmath.exp(-(L[n] - L[m - 1]))) / n if m < n
                       else 0.0 for m in range(1, N + 1)]
                      for n in range(1, N + 1)], dtype=complex)
        return D - E / mu ** 2

    def reconstruction_residual(self, N):
        """max |(C - mu I) R - I| at truncation N (triangular, exact cut)."""
        R = self.resolvent_matrix(N)
        C = np.tril(1.0 / np.arange(1, N + 1, dtype=float)[:, None]
                    * np.ones((N, N)))
        M = (C - self.mu * np.eye(N)) @ R - np.eye(N)
        return float(np.max(np.abs(M)))


def resolvent_entries(mu):
    """The explicit resolvent at mu; ValueError for mu in Sigma0.

    The strict part has e_{nm}(mu) = 1/(n prod_{k=m}^{n} (1 - 1/(mu k)))
    for 1 <= m < n and a zero first row.
    """
    mu = complex(mu)
    if mu == 0:
        raise ValueError("mu = 0 lies in Sigma0")
    inv = 1.0 / mu
    if abs(inv - round(inv.real)) < 1e-15 and round(inv.real) >= 1:
        raise ValueError(f"mu = {mu} lies in Sigma0 (mu = 1/n)")
    return ResolventDecomposition(mu)


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
    n >= 2 (row 1 of the strict part is zero) at every sample.  alpha is
    evaluated once; each step only rescales it.  ``scan_horizon`` caps
    the horizon at the largest step, k + l_max.
    """
    mus = disc_samples(lam, delta, boundary=samples - 1, interior=0)
    horizon = scan_horizon(W.alpha, horizon, step=k + l_max)
    ns = np.arange(1, horizon + 1)
    alpha_ns = W.alpha.values(ns)
    lw_k = W.step_log_weights(k, alpha_ns)
    bases = [_strict_row_base(mu, lw_k)[1:] for mu in mus]
    strict_ns, strict_alpha = ns[1:], alpha_ns[1:]

    l_found = best = None  # best: the smallest log sup over the steps
    for l in range(k, k + l_max + 1):
        lw_l = W.step_log_weights(l, strict_alpha)
        sup_all = -math.inf
        for base in bases:
            row = lw_l + base
            v = scan_verdict(row, strict_ns)
            sup_all = max(float(row[v.witness_index - 2]), sup_all)  # n >= 2
            if v.status != "holds":
                break
        else:
            # every row holds, so sup_all <= log 1e3 and the cap is inert
            l_found, best = l, sup_all
            break
        if best is None or sup_all < best:
            best = sup_all
    return {
        "l_found": l_found,
        "sup_row_sum": (math.inf if best is None
                        else math.exp(min(best, 709.0))),
        "lambda": lam,
        "delta": delta,
        "horizon": horizon,
        "samples": len(mus),
        "verdict": "unbounded_evidence" if l_found is None else "bounded",
    }


def resolvent_norm_bound_check(lam, W: WeightFamily, k, horizon=10 ** 4,
                               delta=None, samples=8):
    """Weighted-norm estimate of the resolvent against M/(1 - a(mu)).

    Only valid outside the closed disc |lam - 1/2| <= 1/2, where
    a(lam) < 1.  Reports the worst ratio of the truncated row-sum norm
    to 1/(1 - a(mu)) over the samples mu of the disc B(lam, delta), which
    must stay clear of that closed disc as well (ValueError otherwise).
    ``scan_horizon`` caps the horizon at step k.
    """
    if a_fn(lam) >= 1.0:
        raise ValueError(
            f"lambda = {lam} lies in the closed disc (a(lambda) >= 1)")
    gap = abs(lam - 0.5) - 0.5
    if delta is None:
        delta = 0.25 * min(dist_sigma0(lam), gap)
    mus = disc_samples(lam, delta, boundary=samples - 1, interior=0)
    if gap <= delta:
        raise ValueError(
            f"closed disc B({lam}, {delta}) meets the disc |z - 1/2| <= 1/2"
            f" (gap = {gap:.3g})")
    rows = []
    horizon = scan_horizon(W.alpha, horizon, step=k)
    ns = np.arange(1, horizon + 1)
    lw_k = W.log_weights(k, ns)
    for mu in mus:
        base = _strict_row_base(mu, lw_k)
        off = np.exp(np.minimum(lw_k + base, 700.0)) / abs(mu) ** 2
        diag = np.abs(1.0 / (1.0 / ns - mu))
        norm_est = float(np.max(diag + off))
        ratio = norm_est * (1.0 - a_fn(mu))
        rows.append({"mu": mu, "norm_estimate": norm_est, "ratio": ratio})
    # np.max keeps a NaN ratio, so a NaN estimate is never bounded
    worst = float(np.max([r["ratio"] for r in rows]))
    return {
        "lambda": lam,
        "k": k,
        "horizon": horizon,
        "worst_ratio": worst,
        "bounded": math.isfinite(worst),
        "samples": rows,
    }
