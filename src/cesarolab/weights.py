"""Alpha sequences, derived weight families and the growth verdict rule.

Everything downstream (operator continuity, spectrum classification,
ergodic bounds, the finite-type criteria) is driven by boundedness of a
supremum such as sup log(n)/alpha_n or sup alpha_{n+1}/alpha_n.  Every
criterion sets its scan up from the same pieces: ``scan_horizon`` caps
the horizon, ``AlphaSequence.values`` gives alpha_n and ``WeightFamily``
the log weights log v_k(n) = -k alpha_n.  A finite scan cannot decide a
supremum over all of N, so every criterion hands its log-domain scan to
the one rule ``scan_verdict``: a declared ground-truth flag decides
outright; otherwise ``fails`` needs a supremum above the divergence
threshold that still grew over the last decade of the scan, and
``holds`` (where the caller grants it) a supremum under the threshold
that did not grow over a non-empty last decade.  Everything else, a NaN
supremum or a one-index scan included, is ``inconclusive`` with the
scan evidence attached.  The ``check_*`` predicates here never grant
``holds`` from a scan.  Presets defined from a first index on get
their head from one ramp rule, ``_ramped``.  Every prefix log-sum-exp
of the package, a scan's log partial sums, is ``log_cumsum_exp``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AlphaSequence",
    "WeightFamily",
    "GrowthVerdict",
    "PRESET_NAMES",
    "make_alpha",
    "make_alpha_from_csv",
    "scan_horizon",
    "check_nuclear",
    "check_lemma22",
    "check_shift_stable",
    "check_delta_criterion",
    "check_loglog",
    "scan_verdict",
    "log_cumsum_exp",
]

DIVERGENCE_LOG_THRESHOLD = math.log(1e3)
LOG_DBL_MAX = math.log(np.finfo(float).max)  # exp overflows above
M_MAX = 64
LEMMA22_LOG_BOUND = math.log(1e12)
LCE_BLOCK = 256
LCE_CHUNK = 1 << 16  # a multiple of LCE_BLOCK
# the exact head of a certified scan: a multiple of LCE_BLOCK, so that its
# prefix sums are those of the dense scan bit for bit
HEAD = 16 * LCE_BLOCK
BLOCK_RATIO_DENOM = 64  # certificate blocks past the head grow by 1 + 1/64
# rounding margin of the certificate bounds, relative to the rows' magnitude
BOUND_MARGIN = 1e-9
# a block whose shifted sums start below this has lost bits to
# subnormals, or a term to underflow
LCE_TINY = np.finfo(float).tiny * 2.0 ** 52

FLAG_NAMES = ("nuclear", "shift_stable", "delta_continuous", "loglog_finite")


class MonotonicityError(ValueError):
    """Raised when an evaluated alpha value falls below its predecessor."""


@dataclass
class GrowthVerdict:
    status: str  # "holds" | "fails" | "inconclusive"
    horizon: int
    sup_value: float
    witness_index: int
    declared_override: bool = False

    def __post_init__(self):
        if self.status not in ("holds", "fails", "inconclusive"):
            raise ValueError(f"bad status {self.status!r}")


class AlphaSequence:
    """A positive, non-decreasing sequence n -> alpha_n (n >= 1).

    ``value`` gives one alpha_n, memoized, inf where it overflows double
    precision; ``log_values`` gives log alpha_n over an index array, from
    ``vec_log_fn`` when there is one, so it stays finite for sequences
    like n^n.  Every bound a scan certifies assumes alpha positive and
    non-decreasing: ``value`` refuses a value that is not positive or
    below an evaluated neighbour, and ``log_values`` is the batch guard of
    the same rule.  Equal neighbours pass: adjacent floats may be equal
    where the increment falls below double resolution, e.g. deep inside
    a block of the appendix staircase.  ``block_bounds``
    (k -> j(k), exact ints) is set for a staircase sequence that is
    constant on the blocks [j(k), j(k+1)).
    """

    def __init__(self, name, value_fn, *, vec_log_fn=None,
                 declared_flags=None, max_index=None, block_bounds=None):
        self.name = name
        self._value_fn = value_fn
        self._vec_log_fn = vec_log_fn
        self.max_index = max_index
        self.block_bounds = block_bounds
        self.declared_flags = dict.fromkeys(FLAG_NAMES)
        if declared_flags:
            for key, val in declared_flags.items():
                if key not in FLAG_NAMES:
                    raise ValueError(f"unknown flag {key!r}")
                self.declared_flags[key] = val
        self._memo = {}

    def flag(self, name):
        return self.declared_flags[name]

    def _check_indices(self, lo, hi):
        """Reject indices from lo to hi outside 1..max_index."""
        if lo < 1:
            raise ValueError(f"alpha indices must be >= 1, got {lo}")
        if self.max_index is not None and hi > self.max_index:
            raise IndexError(
                f"alpha {self.name!r} only defined up to n={self.max_index}")

    def value(self, n):
        n = int(n)
        self._check_indices(n, n)
        cached = self._memo.get(n)
        if cached is not None:
            return cached
        v = float(self._value_fn(n))
        if not (v > 0.0):
            raise ValueError(f"alpha_{n} = {v} is not positive ({self.name})")
        # inf compares as the largest value: inf -> finite is a decrease
        below, above = self._memo.get(n - 1), self._memo.get(n + 1)
        if (below is not None and v < below) or (
                above is not None and above < v):
            raise MonotonicityError(
                f"alpha {self.name!r} decreases at n={n}")
        self._memo[n] = v
        return v

    __call__ = value

    def log_values(self, ns):
        """log(alpha_n) over an integer index array.

        The batch guard of alpha: along an increasing index array,
        contiguous or not, a NaN or zero alpha_n (as ``value`` refuses
        it) or a decrease is a ValueError that names alpha.  An unordered
        array is not checked.
        """
        ns = np.asarray(ns, dtype=np.int64)
        if ns.size:
            self._check_indices(int(ns.min()), int(ns.max()))
        if self._vec_log_fn is not None:
            out = np.asarray(self._vec_log_fn(ns), dtype=float)
        else:
            out = np.array([math.log(self.value(n)) for n in ns],
                           dtype=float)
        # NaN fails either comparison, a zero alpha_n (log -inf) one of them
        if ns.size and np.all(ns[1:] > ns[:-1]) and not (
                out[0] > -math.inf and np.all(out[1:] >= out[:-1])):
            bad = ~(out > -math.inf)
            i = int(np.argmax(bad if bad.any() else out[1:] < out[:-1]))
            if bad[i]:
                raise ValueError(f"alpha_{ns[i]} = {math.exp(out[i])} is "
                                 f"not positive ({self.name})")
            raise MonotonicityError(f"alpha {self.name!r} decreases from "
                                    f"n={ns[i]} to n={ns[i + 1]}")
        return out

    def values(self, ns):
        """alpha_n over an index array, inf where it overflows double."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_values(ns))


@dataclass
class WeightFamily:
    """Decreasing weights v_k(n) = e^(-k alpha_n) in log form."""

    alpha: AlphaSequence

    def log_weight(self, k, n):
        return -self.alpha.value(n) * k

    def log_weights(self, k, ns):
        return self.step_log_weights(k, self.alpha.values(ns))

    def step_log_weights(self, k, alpha_ns):
        """log v_k(n) = -k alpha_n from alpha.values(ns), so that a scan
        over steps k evaluates alpha once."""
        with np.errstate(over="ignore"):
            return alpha_ns * -k


# ---------------------------------------------------------------------------
# presets

def _ramped(f, vf, n_first):
    """(value_fn, vec_log_fn) of alpha_n = f(n) from n_first on, padded
    below n_first by a linear ramp (``vf`` is f over a float array).

    The head of the sequence is free as long as it stays positive and
    strictly increasing, so the ramp runs from just above 1 (or above 0
    when f(n_first) is itself <= 1) up to f(n_first).
    """
    v_first = f(n_first)
    lo, rise = (1.0, v_first - 1.0) if v_first > 1.0 else (0.0, v_first)

    def value(n):
        return f(n) if n >= n_first else lo + rise * n / n_first

    def vec_log(ns):
        # the ramp only where it applies, and f only where some index
        # reaches n_first
        ns = np.asarray(ns, dtype=float)
        low = ns < n_first
        if low.all():
            out = lo + rise * ns / n_first
        else:
            out = vf(np.maximum(ns, n_first))
            out[low] = lo + rise * ns[low] / n_first
        return np.log(out, out=out)

    return value, vec_log


class _Appendix53:
    """alpha_n = log(beta_n + gamma_n) from the appendix staircase.

    j(1) = 1 and j(k+1) = 2(k+1) j(k)^k; beta_n = k j(k)^k on the block
    [j(k), j(k+1)); gamma_n = 3 - 1/(n+1) (any strictly increasing
    sequence with 2 < gamma_n up to 3 is admissible; this closed form is
    fixed for reproducibility).  All index arithmetic uses Python ints,
    so block boundaries far beyond double range remain exact.
    """

    def __init__(self):
        self._j = [1, 1]  # j[k] for k >= 1; j[0] unused

    def j(self, k):
        while len(self._j) <= k:
            kk = len(self._j) - 1
            self._j.append(2 * (kk + 1) * self._j[kk] ** kk)
        return self._j[k]

    def block_of(self, n):
        k = 1
        while self.j(k + 1) <= n:
            k += 1
        return k

    def beta(self, n):
        k = self.block_of(n)
        return k * self.j(k) ** k

    def __call__(self, n):
        n = int(n)
        b = self.beta(n)
        g = 3.0 - 1.0 / (n + 1)
        if b.bit_length() > 1000:
            return math.log(b)  # gamma is negligible at this scale
        return math.log(b + g)


_APPENDIX53 = _Appendix53()


def _appendix53_vec(ns):
    ns = np.asarray(ns, dtype=np.int64)
    if not ns.size:
        return np.empty(0)
    top = int(ns.max())
    k_top = _APPENDIX53.block_of(top)
    bounds = np.array([_APPENDIX53.j(k) for k in range(1, k_top + 2)],
                      dtype=float)
    blocks = np.searchsorted(bounds, ns.astype(float), side="right")  # 1-based
    log_beta = np.array(
        [math.log(_APPENDIX53.beta(_APPENDIX53.j(k)))
         for k in range(1, k_top + 1)], dtype=float)
    lb = log_beta[blocks - 1]
    gamma = 3.0 - 1.0 / (ns.astype(float) + 1.0)
    alpha = lb + np.log1p(gamma * np.exp(-lb))
    return np.log(alpha)


def _preset(name, value_fn, vec_log_fn, flags, **kw):
    return AlphaSequence(name, value_fn=value_fn, vec_log_fn=vec_log_fn,
                         declared_flags=flags, **kw)


_PRESETS = {
    "n": lambda: _preset(
        "n", lambda n: float(n), lambda ns: np.log(ns.astype(float)),
        dict(nuclear=True, shift_stable=True, delta_continuous=True,
             loglog_finite=True)),
    "log_n_plus_1": lambda: _preset(
        "log_n_plus_1", lambda n: math.log(n + 1),
        lambda ns: np.log(np.log(ns.astype(float) + 1.0)),
        dict(nuclear=True, shift_stable=True, delta_continuous=False,
             loglog_finite=True)),
    "log_n": lambda: _preset(
        "log_n", *_ramped(math.log, np.log, 2),
        dict(nuclear=True, shift_stable=True, delta_continuous=False,
             loglog_finite=True)),
    "sqrt_n": lambda: _preset(
        "sqrt_n", lambda n: math.sqrt(n),
        lambda ns: 0.5 * np.log(ns.astype(float)),
        dict(nuclear=True, shift_stable=True, delta_continuous=False,
             loglog_finite=True)),
    "n_pow_n": lambda: _preset(
        "n_pow_n", lambda n: float(n) ** n if n < 144 else math.inf,
        lambda ns: ns.astype(float) * np.log(ns.astype(float)),
        dict(nuclear=True, shift_stable=False, delta_continuous=True,
             loglog_finite=True)),
    "loglog_n": lambda: _preset(
        "loglog_n", *_ramped(lambda n: math.log(math.log(n)),
                             lambda x: np.log(np.log(x)), 3 ** 3),
        dict(nuclear=False, shift_stable=True, delta_continuous=False,
             loglog_finite=True)),
    "logloglog_n": lambda: _preset(
        "logloglog_n", *_ramped(lambda n: math.log(math.log(math.log(n))),
                                lambda x: np.log(np.log(np.log(x))),
                                3 ** 27),
        dict(nuclear=False, shift_stable=True, delta_continuous=False,
             loglog_finite=False)),
    "appendix_5_3": lambda: _preset(
        "appendix_5_3", _APPENDIX53, _appendix53_vec,
        dict(nuclear=True, shift_stable=False, delta_continuous=False,
             loglog_finite=True), block_bounds=_APPENDIX53.j),
}

PRESET_NAMES = tuple(_PRESETS)


def make_alpha(preset_or_generator, name=None, declared_flags=None):
    """Build an AlphaSequence from a preset name or a custom generator."""
    if isinstance(preset_or_generator, str):
        try:
            factory = _PRESETS[preset_or_generator]
        except KeyError:
            raise ValueError(
                f"unknown preset {preset_or_generator!r}; "
                f"choose from {sorted(_PRESETS)}") from None
        return factory()
    alpha = AlphaSequence(name or "custom", value_fn=preset_or_generator,
                          declared_flags=declared_flags)
    # fail fast on generators that are decreasing right at the start
    alpha.value(1), alpha.value(2)
    return alpha


def make_alpha_from_csv(path):
    """Custom alpha from a CSV of (n, alpha_n) pairs, no extrapolation.

    The table is checked once, here: by line for a short row or a
    repeated index, then the indices 1..top, then every value in order
    through the guards of ``value`` and ``log_values``.  The horizon of
    every predicate is capped at the largest index in the file.
    """
    table = {}
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        for row in rows:
            if not row or row[0].strip().startswith("#"):
                continue
            where = f"{path}, line {rows.line_num}"
            if len(row) < 2:
                raise ValueError(f"{where}: need n,alpha_n")
            n = int(row[0])
            if n in table:
                raise ValueError(f"{where}: index {n} repeated")
            table[n] = float(row[1])
    if not table:
        raise ValueError(f"no data rows in {path}")
    top = max(table)
    if set(table) != set(range(1, top + 1)):
        raise ValueError(f"{path}: indices must be exactly 1..{top}")
    alpha = AlphaSequence(f"file:{path}",
                          value_fn=lambda n: table[n], max_index=top)
    alpha.log_values(np.arange(1, top + 1))
    return alpha


# ---------------------------------------------------------------------------
# prefix log-sum-exp

def log_cumsum_exp(t):
    """log(cumsum(exp(t))) over a 1-D array, with the semantics of
    np.logaddexp.accumulate: -inf terms add nothing, from a +inf term on
    the sums are +inf and from a NaN on NaN, and every sum is at least
    its own term and every earlier sum.

    The terms pass through one reused buffer in chunks of LCE_CHUNK, cut
    into blocks of LCE_BLOCK.  A block is shifted by its maximum c and
    summed in place, S_j = sum_{i<=j} e^(t_i - c); joined to the log C
    of all terms before it, its sums are m + log(e^(c-m) S_j + e^(C-m)),
    m = max(c, C).  The carries C accumulate the block totals
    c + log S_last alone, from the last sum before the blocks.  A block
    whose shift or carry is not finite, or whose S starts below
    LCE_TINY (an in-block range near 670 or more), is summed term by
    term from the last sum before it instead.  The error is a few ulps
    of the largest |c| or |C| involved; where rounding puts a joined sum
    under its own term or an earlier sum, it is raised to it.
    """
    t = np.asarray(t, dtype=float)
    n = len(t)
    out = np.empty(n)
    work = np.empty(-(-min(n, LCE_CHUNK) // LCE_BLOCK) * LCE_BLOCK)
    for lo in range(0, n, LCE_CHUNK):
        x = t[lo:lo + LCE_CHUNK]
        nb = -(-len(x) // LCE_BLOCK)
        flat = work[:nb * LCE_BLOCK]
        flat[:len(x)] = x
        flat[len(x):] = -math.inf
        w = flat.reshape(nb, LCE_BLOCK)
        with np.errstate(invalid="ignore"):  # shifts by a non-finite c
            c = w.max(axis=1)
            np.exp(np.subtract(w, c[:, None], out=w), out=w)
            np.cumsum(w, axis=1, out=w)
            total = c + np.log(w[:, -1])
        exact = ~(np.isfinite(c) & (w[:, 0] >= LCE_TINY))
        cuts = [0, *(np.flatnonzero(exact[1:] != exact[:-1]) + 1), nb]
        for b0, b1 in zip(cuts, cuts[1:]):
            i0, i1 = lo + b0 * LCE_BLOCK, min(lo + b1 * LCE_BLOCK, n)
            carry = out[i0 - 1] if i0 else -math.inf
            if exact[b0] or not carry < math.inf:  # or a +inf, NaN carry
                seq = np.concatenate(([carry], t[i0:i1]))
                np.logaddexp.accumulate(seq, out=seq)
                out[i0:i1] = seq[1:]
                continue
            C = np.logaddexp.accumulate(
                np.concatenate(([carry], total[b0:b1 - 1])))
            m = np.maximum(c[b0:b1], C)
            v = w[b0:b1]
            v *= np.exp(c[b0:b1] - m)[:, None]
            v += np.exp(C - m)[:, None]
            np.log(v, out=v)
            v += m[:, None]
            # each block at least the last sum of every block before it
            floor = np.maximum.accumulate(np.concatenate(
                ([carry], v[:-1, -1])))
            low = np.flatnonzero(v[:, 0] < floor)
            v[low] = np.maximum(v[low], floor[low, None])
            o = out[i0:i1]
            o[:] = v.reshape(-1)[:i1 - i0]
            if np.any(o < t[i0:i1]):  # a dominant term, rounded down
                np.maximum(o, t[i0:i1], out=o)
                np.maximum.accumulate(o, out=o)
    return out


# ---------------------------------------------------------------------------
# predicates

def _at_least(**bounds):
    """Refuse the first of the ``name=(value, least)`` pairs, in the
    order given, whose value is below its bound: ValueError
    ``<name> must be >= <least>, got <value>``."""
    for name, (value, least) in bounds.items():
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


def _block_ends(top, end):
    """The ends top = e_0 < e_1 < ... = end of the geometric blocks
    (e_i, e_(i+1)] of a certified scan past its exact head, each about
    1/BLOCK_RATIO_DENOM longer than the last (top >= BLOCK_RATIO_DENOM),
    as an int64 array; [top] when top >= end."""
    ends = [top]
    while ends[-1] < end:
        ends.append(min(ends[-1] + ends[-1] // BLOCK_RATIO_DENOM, end))
    return np.array(ends, dtype=np.int64)


def _first_step(holds, lo, hi):
    """The least l in lo..hi with holds(l), or None, for a predicate that
    stays true once true: gallop over l = lo, lo+1, lo+3, lo+7, ...,
    then bisect between the last step that failed and the first that
    held."""
    fail, d = lo - 1, 0
    while fail < hi:
        l = min(lo + d, hi)
        if holds(l):
            while l - fail > 1:
                mid = (fail + l) // 2
                if holds(mid):
                    l = mid
                else:
                    fail = mid
            return l
        fail, d = l, 2 * d + 1
    return None


def scan_horizon(alpha, horizon, tail=0, step=1):
    """The last index a scan reaches: ``horizon``, capped so that a scan
    reading alpha up to n + tail stays within int64 and a finite sequence,
    and its largest step times alpha_(n + tail) stays a double (one below
    the least n that overflows, as alpha does not decrease).  ValueError
    when the horizon or a cap leaves no index."""
    horizon = min(int(horizon), np.iinfo(np.int64).max - tail)
    if alpha.max_index is not None:
        horizon = min(horizon, alpha.max_index - tail)
    if horizon < 1:
        raise ValueError("empty scan: the horizon leaves no index to scan")

    def overflows(n):
        with np.errstate(over="ignore"):
            return not np.isfinite(step * alpha.values([n + tail])[0])

    if not overflows(horizon):
        return horizon
    cap = _first_step(overflows, 1, horizon) - 1
    if cap == 0:
        raise ValueError(f"empty scan: {step} * alpha_{1 + tail} of "
                         f"{alpha.name!r} overflows double precision")
    return cap


def scan_verdict(log_vals, ns, declared=None, grant_holds=True,
                 fail_growth=1e-9):
    """The growth-verdict rule: is sup_n exp(log_vals) bounded?

    ``ns`` are the increasing scan indices and the horizon is ns[-1].  A
    declared flag (True/False) decides the status outright.  Otherwise
    the status is ``fails`` when the log supremum is above
    DIVERGENCE_LOG_THRESHOLD and the last decade (indices above
    max(horizon // 10, ns[0])) beats the earlier scan by more than
    ``fail_growth`` (partial sums, which always rise, pass a wider one),
    ``holds`` when it is at most the threshold and the last decade beats
    it by at most 1e-9 (only if ``grant_holds``), and ``inconclusive``
    otherwise, always for a NaN supremum and for a one-index scan (its
    last decade is empty).  The witness is the first index of the
    supremum, or of the first NaN.
    """
    if len(ns) == 0:
        raise ValueError("empty scan: the horizon leaves no index to scan")
    horizon = int(ns[-1])
    i = int(np.argmax(log_vals))
    log_sup = log_vals[i]
    # a supremum past double range is inf (and a NaN one stays NaN)
    sup = math.inf if log_sup > LOG_DBL_MAX else float(np.exp(log_sup))
    if declared is not None:
        status = "holds" if declared else "fails"
        return GrowthVerdict(status, horizon, sup, int(ns[i]), True)
    cut = int(np.searchsorted(ns, max(horizon // 10, int(ns[0])),
                              side="right"))
    top, base = log_vals[cut:].max(initial=-np.inf), log_vals[:cut].max()
    if log_sup > DIVERGENCE_LOG_THRESHOLD and top > base + fail_growth:
        status = "fails"
    elif (grant_holds and cut < len(ns)
          and log_sup <= DIVERGENCE_LOG_THRESHOLD and not top > base + 1e-9):
        status = "holds"
    else:
        status = "inconclusive"
    return GrowthVerdict(status, horizon, sup, int(ns[i]), False)


def _ratio_scan(alpha, horizon, first, log_ratio, flag, tail=0):
    """Boundedness evidence for a ratio over n = first..horizon, its log
    from ``log_ratio`` of the float indices and log alpha_n over
    n = first..horizon + tail."""
    horizon = scan_horizon(alpha, horizon, tail=tail)
    ns = np.arange(first, horizon + 1)
    la = alpha.log_values(np.arange(first, horizon + tail + 1))
    return scan_verdict(log_ratio(ns.astype(float), la), ns,
                        alpha.flag(flag), grant_holds=False)


def check_nuclear(alpha, horizon=10 ** 5):
    """Boundedness evidence for sup_n log(n)/alpha_n."""
    return _ratio_scan(alpha, horizon, 2,
                       lambda x, la: np.log(np.log(x)) - la, "nuclear")


def check_shift_stable(alpha, horizon=10 ** 5):
    """Boundedness evidence for sup_n alpha_{n+1}/alpha_n."""
    return _ratio_scan(alpha, horizon, 1, lambda x, la: la[1:] - la[:-1],
                       "shift_stable", tail=1)


def check_delta_criterion(alpha, horizon=10 ** 5):
    """Boundedness evidence for sup_n n/alpha_n."""
    return _ratio_scan(alpha, horizon, 1, lambda x, la: np.log(x) - la,
                       "delta_continuous")


def check_loglog(alpha, horizon=10 ** 5):
    """Boundedness evidence for sup_n log(log(n))/alpha_n."""
    return _ratio_scan(alpha, horizon, 3,
                       lambda x, la: np.log(np.log(np.log(x))) - la,
                       "loglog_finite")


def check_lemma22(alpha, gamma, horizon=10 ** 5):
    """Smallest M with sup_n n^gamma e^(-M alpha_n) below 1e12.

    Returns (M, verdict); M is None (status fails) when no M <= M_MAX
    keeps the scanned supremum under the bound.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    horizon = scan_horizon(alpha, horizon, step=M_MAX)
    _at_least(horizon=(horizon, 2))
    ns = np.arange(1, horizon + 1)
    av = alpha.values(ns)
    glog = gamma * np.log(ns.astype(float))
    # glog - m * av falls as m rises, also in floats
    m = _first_step(lambda m: (glog - m * av).max() <= LEMMA22_LOG_BOUND,
                    1, M_MAX)
    vals = glog - (M_MAX if m is None else m) * av
    i = int(np.argmax(vals))
    with np.errstate(over="ignore"):
        sup = float(np.exp(vals[i]))
    return m, GrowthVerdict("fails" if m is None else "holds", horizon, sup,
                            int(ns[i]), False)
