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
radius <= 0, a negative count and a disc failing ``_disc_clears_sigma0``.
``_log_slacks`` is the one measure of the Lemma 2.7 sandwich; a lower
constant 0 is read as the bound 0.  ``_sandwich_sweep`` runs it over a
set of points, for ``sandwich_check`` and ``verify --suite sandwich``.

A disc sample of the equicontinuity probe that holds by certificate
reads alpha (through ``weights._AlphaReads``, where alpha is known not
to decrease) and its resolvent prefix P only over the exact head
n <= HEAD and, past it, at the block ends; P there comes from a
two-sided bracket (``_prefix_bracket``: a midpoint integral of
Re log(1 - w/x), w = 1/mu, in closed form, widened by its quadrature,
series and rounding errors).  No certificate is tried where |w| > HEAD/8
or below a horizon of 10 HEAD; such a sample, and one the certificate
cannot decide, fills P and its terms over the horizon (``_ProbeRows``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .weights import (BOUND_MARGIN, HEAD, LOG_DBL_MAX, WeightFamily,
                      _AlphaReads, _at_least, _certificate_ends,
                      _certified_holds, _first_step, log_cumsum_exp,
                      scan_horizon, scan_verdict)

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
    return math.exp(arg) if arg <= LOG_DBL_MAX else math.inf


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
    return math.exp(arg)  # 0.0 where it underflows


def product_log(mu, N):
    """sum_{n<=N} log|1 - 1/(n mu)|, -inf flagged when a factor vanishes."""
    return float(product_log_prefix(mu, N)[-1])


def product_log_prefix(mu, N):
    """Cumulative sums of log|1 - 1/(n mu)| for n = 1..N.

    Each term is computed in real arithmetic as (1/2) log1p(x_n), since
    |1 - 1/(n mu)|^2 = 1 + x_n with x_n = (rho/n - 2a)/n, a = Re(1/mu)
    and rho = 1/|mu|^2; log1p keeps the bits of the factors near 1 that
    a log of |1 - 1/(n mu)| loses.  x is clamped at -1, so a float 1/n
    gives -inf or a finite term, never NaN.
    """
    return _product_log_prefix(mu, np.arange(1, N + 1, dtype=float),
                               np.empty(N))


def _inverse_square_modulus(mu):
    """rho = 1/|mu|^2 for a complex mu != 0.

    Where mu.real ** 2 + mu.imag ** 2 is finite and non-zero, rho is 1
    over it, bit for bit (``x ** 2`` and ``x * x`` round differently, and
    reports show the bits).  Where the sum overflows, both parts are
    first divided by the larger one, and rho may underflow to 0.  Where
    rho itself overflows (|mu| below about 7.5e-155), ValueError names
    mu.
    """
    try:
        s = mu.real ** 2 + mu.imag ** 2
    except OverflowError:  # a square past double range
        s = math.inf
    if s == math.inf:  # |mu| past about 1.3e154: rho is subnormal or 0
        m = max(abs(mu.real), abs(mu.imag))
        return (1.0 / m) ** 2 / ((mu.real / m) ** 2 + (mu.imag / m) ** 2)
    rho = 1.0 / s if s > 0 else math.inf
    if rho == math.inf:
        raise ValueError(f"1/|mu|^2 overflows at mu = {mu}")
    return rho


def _product_log_prefix(mu, ns, out):
    """``product_log_prefix`` at the float indices ns = 1..N, into out."""
    mu = complex(mu)
    if mu == 0:
        raise ZeroDivisionError("mu = 0 is in Sigma0")
    x = np.divide(_inverse_square_modulus(mu), ns, out=out)
    x -= 2.0 * (1.0 / mu).real
    x /= ns
    np.maximum(x, -1.0, out=x)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf: a zero factor
        np.log1p(x, out=x)
    x *= 0.5
    return np.cumsum(x, out=x)


def _disc_clears_sigma0(lam, delta):
    """Whether the closed disc B(lam, delta) misses Sigma0."""
    return dist_sigma0(lam) > delta


def disc_samples(lam, delta, boundary=64, interior=32):
    """Deterministic sample grid of the closed disc around lam.

    The center, a boundary ring and an interior spiral lattice, in the
    fixed order reproducible sup/inf estimates depend on.  ValueError
    unless delta > 0, both counts are >= 0 and the closed disc misses
    Sigma0.
    """
    if not delta > 0:
        raise ValueError(f"disc radius must be positive, got {delta}")
    _at_least(boundary=(boundary, 0), interior=(interior, 0))
    if not _disc_clears_sigma0(lam, delta):
        raise ValueError(
            f"closed disc B({lam}, {delta}) touches Sigma0 "
            f"(dist = {dist_sigma0(lam):.3g})")
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


def _sandwich_sweep(points, constants, N_list, log_margin=0.0):
    """(worst lower, worst upper log slack, violations) of the Lemma 2.7
    sandwich at each point mu with its constants (lo, hi) and each N of
    the increasing N_list, every slack widened by ``log_margin``."""
    worst_lo = worst_hi = math.inf
    failures = []
    for mu, (lo, hi) in zip(points, constants):
        for N, (slack_lo, slack_hi) in zip(
                N_list, _log_slacks(mu, lo, hi, N_list)):
            slack_lo += log_margin
            slack_hi += log_margin
            worst_lo = min(worst_lo, slack_lo)
            worst_hi = min(worst_hi, slack_hi)
            if slack_lo < 0 or slack_hi < 0:
                failures.append({"mu": mu, "N": N,
                                 "slack_lo": slack_lo, "slack_hi": slack_hi})
    return worst_lo, worst_hi, failures


def sandwich_check(lam, delta, N_list, samples=16):
    """Assert d_delta/N^a <= prod |1 - 1/(n mu)| <= D_delta/N^a on a grid.

    Returns a report with the worst lower/upper log slacks (> 0 means
    the inequality holds with room to spare).  ValueError for an empty
    N_list or an N < 1, where the product has no factor to bound.
    """
    N_list = sorted(int(N) for N in N_list)
    if not N_list or N_list[0] < 1:
        raise ValueError(f"N_list must be non-empty with every N >= 1, "
                         f"got {N_list}")
    _at_least(samples=(samples, 1))
    d_delta, D_delta = sandwich_bounds(lam, delta)
    pts = disc_samples(lam, delta, boundary=samples,
                       interior=max(samples // 2, 1))
    worst_lo, worst_hi, failures = _sandwich_sweep(
        pts, [(d_delta, D_delta)] * len(pts), N_list)
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
        of (1 - 1/(mu k)), k <= n.  The exponents -(L_n - L_{m-1}) of the
        strict lower part are one array; each entry is then exponentiated
        and divided in Python: NumPy rounds both differently, and reports
        show the bits.
        """
        mu = self.mu
        L = np.zeros(N + 1, dtype=complex)
        L[1:] = np.cumsum(np.log(1.0 - 1.0 / (mu * np.arange(1.0, N + 1))))
        D = np.diag([1.0 / (1.0 / n - mu) for n in range(1, N + 1)])
        i, j = np.tril_indices(N, -1)  # n = i + 1 > m = j + 1
        E = np.zeros((N, N), dtype=complex)
        E[i, j] = [cmath.exp(z) / n for z, n in
                   zip((-(L[i + 1] - L[j])).tolist(), (i + 1).tolist())]
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
    if dist_sigma0(mu) == 0:
        raise ValueError(f"mu = {mu} lies in Sigma0")
    return ResolventDecomposition(mu)


# ---------------------------------------------------------------------------
# norm bound and equicontinuity probe

def _row_terms(mu, lw_k, ns, P, terms):
    """Fill P with the resolvent product prefix at mu (P[i] = P(i + 1))
    and terms with T_m = P(m-1) - log v_k(m), m = 1..N, for the float
    indices ns = 1..N; returns (P, terms)."""
    _product_log_prefix(mu, ns, P)
    terms[0] = -lw_k[0]
    np.subtract(P[:-1], lw_k[1:], out=terms[1:])
    return P, terms


def _row_base(P, sums, log_n):
    """-log n - P(n) + sums[n - 2] for rows n = 2..N: the strict-row base
    from P and the prefix log-sum-exp ``sums`` of the terms."""
    base = np.negative(log_n)
    base -= P[1:]
    base += sums[:-1]
    return base


def _strict_row_base(mu, lw_k, log_n):
    """log of (1/n) sum_{m<n} e^{P(m-1)} / v_k(m) for rows n = 2..horizon.

    With P the cumulative log-magnitude of the resolvent product, the
    weighted row sum of |e~^{k,l}_{nm}| equals
    exp(log v_l(n) + base(n)) where base is independent of l; this makes
    the search over steps l a cheap vector sweep.  Row 1 of the strict
    part is zero and has no base.  ``lw_k`` holds log v_k(n) for
    n = 1..horizon and ``log_n`` holds log n for n = 2..horizon, so a
    caller with several mu computes it once.  The sums over m are one
    prefix log-sum-exp, ``log_cumsum_exp``.
    """
    horizon = len(lw_k)
    P, terms = _row_terms(mu, lw_k, np.arange(1, horizon + 1, dtype=float),
                          np.empty(horizon), np.empty(horizon))
    return _row_base(P, log_cumsum_exp(terms), log_n)


def _prefix_bracket(mu, ends, p_top, p_abs):
    """Bounds (pts, lo, hi) of the resolvent product prefix P past its
    head, at the increasing indices pts, or None where |1/mu| > top/8.

    p_top is ``_product_log_prefix`` at n = top = ends[0] and p_abs its
    largest modulus over n <= top.  pts are the ``ends`` and, where
    Re w > 0 for w = 1/mu, the indices next to t = |w|^2/(2 Re w) that
    lie between them: P rises while j < t and falls after, so on [A, B]
    its least value is at A or B and its largest at A, B or one of
    those indices.  lo <= P(n) <= hi at each n of pts, both for the
    float prefix that ``_product_log_prefix`` sums on from p_top and
    for p_top plus the true sum of f(i) = Re log(1 - w/i), top < i <= n.

    For x > |w|, f(x) = -sum_k Re(w^k)/(k x^k), so the sum of f over
    (A, B] is within (B - A) sup|f''|/24 of its integral over
    [x0, x1] = [A + 1/2, B + 1/2] (the midpoint rule), with
    |f''(x)| <= (2r - r^2)/((1 - r)^2 x^2), r = |w|/x.  The integral is
    -Re(w) log1p((B - A)/x0) - sum_{k>=2} Re(w^k)/(k(k-1)) (x0^(1-k) -
    x1^(1-k)), cut after the K with (|w|/(top + 1/2))^K <= eps, whose
    tail is at most x0 r^(K+1)/(K(K+1)(1 - r)).  The float prefix stays
    within E = 8 eps h (max|P| + |w| + 1) of the true one, h = ends[-1]:
    each addition rounds by an ulp of |P|, each term by a few ulps of
    |w|/n, and this sum by a few ulps of |P| per block.  lo and hi carry
    the summed widths and E.
    """
    top, h = int(ends[0]), int(ends[-1])
    w = 1.0 / complex(mu)
    aw = abs(w)
    if not aw <= top / 8:  # the series would converge too slowly
        return None
    pts = ends
    t = aw * aw / (2.0 * w.real) if w.real > 0 else math.inf
    if t < h:  # P turns inside the scan
        j = math.floor(t)
        near = [n for n in (j - 1, j, j + 1) if top < n < h and n not in ends]
        if near:
            pts = np.sort(np.concatenate((ends, near)))
    x0, x1 = pts[:-1] + 0.5, pts[1:] + 0.5
    r = aw / x0
    eps = np.finfo(float).eps
    K = 2 if r[0] < eps else max(2, math.ceil(math.log(eps) / math.log(r[0])))
    sums = np.log1p((x1 - x0) / x0)
    sums *= -w.real
    v0, v1 = w / x0, w / x1
    p0, p1 = v0.copy(), v1.copy()  # (w/x)^k
    for k in range(2, K + 1):
        p0 *= v0
        p1 *= v1
        sums -= (x0 * p0 - x1 * p1).real / (k * (k - 1))
    width = ((x1 - x0) * r * (2.0 - r) / (24.0 * (x0 * (1.0 - r)) ** 2)
             + x0 * r ** (K + 1) / (K * (K + 1) * (1.0 - r)))
    mid = np.cumsum(np.concatenate(([p_top], sums)))
    width = np.cumsum(np.concatenate(([0.0], width)))
    width += 8.0 * eps * h * (
        max(p_abs, np.abs(mid).max() + width[-1]) + aw + 1.0)
    return pts, mid - width, mid + width


class _ProbeRows:
    """The probe's strict rows log v_l(n) + base(n), n = 2..horizon, at
    each disc sample and step l >= k, and their verdicts.

    From a horizon of 10 HEAD on, ``_certified`` tries to decide
    ``holds`` from the exact rows n <= HEAD and one bound per block past
    them, which reads P only through ``_prefix_bracket`` at the block
    ends, and alpha, through ``_AlphaReads``, only at the head and next
    to the block ends where it is known not to decrease.  A sample's
    dense base (its prefix P and terms T_m = P(m-1) + k alpha_m over the
    horizon, in two buffers that the samples share, then ``_row_base``)
    is built only where that cannot decide, and kept; alpha is read at
    every index when the first one is.  Any other alpha is read, and
    guarded, at every index when the probe is set up.  Every verdict and
    log sup is the dense scan's.
    """

    def __init__(self, W, k, l_top, mus, horizon):
        self.W, self.k, self.mus, self.horizon = W, k, mus, horizon
        self.ends = _certificate_ends(horizon, horizon)
        self.reads = _AlphaReads(W.alpha, horizon, self.ends, (0, 1))
        self.buffers = None  # the dense scan's arrays, built on first need
        self.dense, self.heads, self.blocks = {}, {}, {}
        self.log_sups = {}  # (sample, step) -> the log sup of its rows
        if self.ends is not None:
            values = self.reads.at(np.arange(1, HEAD + 1))
            ns = np.arange(1.0, HEAD + 1)
            # the head's alpha_n and indices n = 2..HEAD, its log v_k,
            # log n, and buffers for P and the terms
            self.head_alpha, self.head_ns = values[1:], ns[1:]
            self.head_arrays = (ns, W.step_log_weights(k, values),
                                np.log(ns[1:]), np.empty(HEAD),
                                np.empty(HEAD))
            a = self.ends[:-1]
            self.alpha_a = self.reads.at(a + 1)
            self.k_alpha_b = self.reads.at(self.ends[1:]) * k
            self.log_a1 = np.log(a + 1.0)
            self.log_span = np.log((self.ends[1:] - a).astype(float))
            # rounding of the bounds and rows, less that of P and U
            self.scale = (1.0 + l_top * self.reads.at([horizon])[0]
                          + math.log(horizon))

    @property
    def alpha(self):
        """alpha_n at n = 2..horizon, read on first need."""
        return self.reads.dense()[1][1:]

    def holds(self, i, l):
        """Whether the scan of sample i at step l holds; its log sup is
        kept."""
        if i not in self.dense:
            log_sup = self._certified(i, l)
            if log_sup is not None:
                self.log_sups[i, l] = log_sup
                return True
        row = self._rows(i, l)
        v = scan_verdict(row, self.strict_ns)
        self.log_sups[i, l] = float(row[v.witness_index - 2])  # n >= 2
        return v.status == "holds"

    def log_sup(self, i, l):
        """The log sup of the rows of sample i at step l."""
        if (i, l) not in self.log_sups:
            log_sup = None if i in self.dense else self._certified(i, l)
            self.log_sups[i, l] = (float(self._rows(i, l).max())
                                   if log_sup is None else log_sup)
        return self.log_sups[i, l]

    def _rows(self, i, l):
        """The dense rows of sample i at step l, its base built once."""
        if i not in self.dense:
            if self.buffers is None:
                ns = np.arange(1.0, self.horizon + 1)
                self.strict_ns = ns[1:]
                self.buffers = (ns, self.W.step_log_weights(
                    self.k, self.reads.dense()[1]), np.log(self.strict_ns),
                    np.empty(self.horizon), np.empty(self.horizon))
            ns, lw_k, log_n, P, terms = self.buffers
            _row_terms(self.mus[i], lw_k, ns, P, terms)
            self.dense[i] = _row_base(P, log_cumsum_exp(terms), log_n)
        row = self.W.step_log_weights(l, self.alpha)
        row += self.dense[i]
        return row

    def _certified(self, i, l):
        """The log sup M of sample i's rows at step l where the exact head
        shows the dense scan holds (``_certified_holds``), or None.

        The head rows n <= HEAD are the dense rows bit for bit (HEAD is a
        multiple of LCE_BLOCK).  Past it, a row n of the block (a, b] is
        at most -log(a + 1) - min P(n) + log(e^(U_a - l alpha_(a+1))
        + (b - a) e^(max_{a<=m<=b} P(m) + (k - l) alpha_(a+1))), for
        l >= k and alpha non-decreasing; U_a bounds log sum_{m<=a}
        e^(T_m), from the head's last prefix sum on, and a block adds at
        most (b - a) e^(max P + k alpha_b) to it.  The block extremes of
        P come from ``_prefix_bracket``, whose widths and float error
        are in the bounds, and no bound is tried where it gives no
        bracket.
        """
        if self.ends is None:
            return None
        row = self.W.step_log_weights(l, self.head_alpha)
        row += self._head(i)[1]
        v = _certified_holds(row, self.head_ns, self.horizon,
                             lambda: self._bounds(i, l))
        return None if v is None else float(row[v.witness_index - 2])

    def _bounds(self, i, l):
        """The bound of each block past the head at step l and the margin
        that covers their rounding and that of the rows, or None where
        P has no bracket."""
        if i not in self.blocks:
            self.blocks[i] = self._block_terms(i)
        if self.blocks[i] is None:
            return None
        c, U, p_max, span = self.blocks[i]
        a_l = self.alpha_a * l
        bound = np.logaddexp(U - a_l, p_max + (self.alpha_a * self.k - a_l))
        bound += c
        return bound, BOUND_MARGIN * span

    def _head(self, i):
        """(U_HEAD, the dense base of rows n = 2..HEAD, P(HEAD), max |P|
        over n <= HEAD) of sample i: U_HEAD the log of
        sum_{m<=HEAD} e^(T_m), and the base bit for bit."""
        if i not in self.heads:
            ns, lw_k, log_n, P, terms = self.head_arrays
            _row_terms(self.mus[i], lw_k, ns, P, terms)
            sums = log_cumsum_exp(terms)
            self.heads[i] = (sums[-1], _row_base(P, sums, log_n), P[-1],
                             np.abs(P).max())
        return self.heads[i]

    def _block_terms(self, i):
        """The parts of sample i's block bounds that do not depend on l:
        -log(a + 1) - min P, U_a, log(b - a) + max P and the rounding
        scale of the bounds; None where P has no bracket."""
        u_head, _, p_top, p_abs = self._head(i)
        bracket = _prefix_bracket(self.mus[i], self.ends, p_top, p_abs)
        if bracket is None:
            return None
        pts, lo, hi = bracket
        at = np.searchsorted(pts, self.ends)  # the block ends among pts
        p_min = np.minimum(lo[at[:-1]], lo[at[1:]])  # P(n), a <= n <= b
        p_max = np.maximum(np.maximum.reduceat(hi, at[:-1]), hi[at[1:]])
        U = log_cumsum_exp(np.concatenate(
            ([u_head], self.log_span + p_max + self.k_alpha_b)))
        p_abs = max(p_abs, np.abs(lo).max(), np.abs(hi).max())
        span = self.scale + p_abs + np.abs(U).max()
        return -self.log_a1 - p_min, U[:-1], self.log_span + p_max, span


def equicontinuity_probe(lam, delta, W: WeightFamily, k, horizon=10 ** 5,
                         samples=8, l_max=PROBE_L_MAX):
    """Search a step l making the conjugated strict part uniformly small.

    A step l in {k, ..., k+l_max} counts as bounded when ``scan_verdict``
    grants ``holds`` to the weighted row sums of the conjugated resolvent
    strict part, rows n >= 2 (row 1 is zero), at every point of a
    deterministic sample of the disc around lam.  Those rows are
    log v_l(n) + base(n) and alpha does not decrease, so a sample that
    holds at l holds at every larger step: each row element falls as l
    rises, and so does the last decade's excess over the earlier scan.
    The probe takes the samples in turn, each from the step the previous
    one needed (``_first_step``); the last step found is ``l_found``.
    ``sup_row_sum`` is the supremum over the samples at ``l_found``; in
    an unbounded probe, the least over the steps of the supremum over
    the samples up to the first that fails there, read at the last step
    of each stretch failing at the same sample, where it is smallest.
    alpha is evaluated once and ``scan_horizon`` caps the horizon at the
    largest step, k + l_max.  From a horizon of 10 HEAD on, a sample's
    ``holds`` is certified from its exact head rows and block bounds
    where they suffice; its dense row base is built only where they do
    not, when the search first needs it (``_ProbeRows``), so the report
    is the dense scan's.  ValueError for k < 1, l_max < 0 or
    samples < 1, which leave no step or no sample to search.
    """
    _at_least(k=(k, 1), l_max=(l_max, 0), samples=(samples, 1))
    mus = disc_samples(lam, delta, boundary=samples - 1, interior=0)
    horizon = scan_horizon(W.alpha, horizon, step=k + l_max)
    scan = _ProbeRows(W, k, k + l_max, mus, horizon)
    top, l_found = k + l_max, k
    stretch_ends = []  # (the last step stopping at sample i, i)
    for i in range(len(mus)):
        h = _first_step(lambda l: scan.holds(i, l), l_found, top)
        end = top if h is None else h - 1
        if end >= l_found:
            stretch_ends.append((end, i))
        l_found = h
        if h is None:
            break
    if l_found is not None:  # every row holds, so best <= log 1e3
        best = max(scan.log_sup(j, l_found) for j in range(len(mus)))
    else:
        best = min((max(scan.log_sup(j, l) for j in range(i + 1))
                    for l, i in stretch_ends), default=math.inf)
    return {
        "l_found": l_found,
        "sup_row_sum": math.inf if best > LOG_DBL_MAX else math.exp(best),
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
    ``scan_horizon`` caps the horizon at step k.  ValueError for k < 1 or
    samples < 1.
    """
    _at_least(k=(k, 1), samples=(samples, 1))
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
    log_n = np.log(ns[1:].astype(float))
    off = np.zeros(horizon)  # row 1 of the strict part is zero
    for mu in mus:
        base = _strict_row_base(mu, lw_k, log_n)
        try:
            square = abs(mu) ** 2
        except OverflowError:  # |mu| past about 1.3e154: 1/|mu|^2 is 0
            square = math.inf
        with np.errstate(over="ignore"):  # past double range: inf, unbounded
            off[1:] = np.exp(lw_k[1:] + base) / square
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
