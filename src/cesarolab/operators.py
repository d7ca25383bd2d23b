"""Triangular operators in exact and log-domain arithmetic.

Two arithmetic tiers are used throughout: exact rationals / big-integer
binomials for the small-N identity checks (the averaging matrix, its
similarity to diag(1/n), the involution), and double precision with
log-domain weight conjugation for everything scanned to large horizons.
An exact section is a NumPy object array of Python ints and Fractions,
so ``A @ B`` multiplies exactly, and every exact identity is measured by
the one rule ``_max_deviation``, max |X - Y|; a matrix identity with
Fraction factors is first scaled to Python ints by ``_scale_to_ints``.
The coordinatewise applications commute with truncation exactly, so a
finite section is a faithful witness; differentiation, the one
super-diagonal map, gives a truncated output one coordinate shorter.
``TriangularOperator`` is a lower-triangular entry(n, m) with a dense
truncation, for the c0 conjugation and its row-sum test; the resolvent
builds its sections itself.  Of the step criteria, averaging is the
package's one averaging scan, ``weights._AveragingScan``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .weights import (HEAD, WeightFamily, _AlphaReads, _at_least,
                      _AveragingScan, _bound_margin, _certificate_ends,
                      _certified_holds, _ends_max, scan_horizon,
                      scan_verdict)

__all__ = [
    "TriangularOperator",
    "N_EXACT",
    "cesaro_apply",
    "cesaro_inverse_apply",
    "diff_apply",
    "shift_apply",
    "delta_apply",
    "delta_log_abs",
    "cesaro_matrix_exact",
    "delta_matrix_exact",
    "verify_factorizations",
    "weighted_norm",
    "conjugate_to_c0",
    "c0_continuity_test",
    "step_continuity_test",
]

N_EXACT = 128         # exact big-integer tier for identity checks
N_DOUBLE_BINOM = 1020  # binom(n-1, k) overflows double beyond this
COLUMN_DECAY_TOL = 1e-6
SUP_GUARD = 1e-9  # log margin within which a term may be a row's largest
LOG_DBL_MIN = math.log(np.finfo(float).tiny)  # exp is subnormal below
_DELTA_MARGIN = 40.0  # log margin below a row's largest delta term
_DELTA_BLOCK = 64  # rows of the delta criterion evaluated together
_DELTA_CELLS = 1 << 18  # cap on a block's rows x window terms


@dataclass
class TriangularOperator:
    """Lower-triangular infinite matrix, entry(n, m) with 1-based indices."""

    entry: object

    def truncate(self, N):
        """Dense complex N x N section, one entry() call per m <= n."""
        A = np.zeros((N, N), dtype=complex)
        for n in range(1, N + 1):
            for m in range(1, n + 1):
                A[n - 1, m - 1] = self.entry(n, m)
        return A


# ---------------------------------------------------------------------------
# coordinatewise applications (dtype-agnostic: Fractions, floats, complex)

def _cesaro_step(v):
    """One averaging step along the last axis, so a 2-D array steps each
    row; a cumsum is the same sequential sum along either."""
    return np.cumsum(v, axis=-1) / np.arange(1, np.shape(v)[-1] + 1)


def cesaro_apply(x):
    """(x_1, (x_1+x_2)/2, ..., (x_1+...+x_n)/n)."""
    # as objects: Fractions stay exact and ints cannot overflow int64
    return list(_cesaro_step(np.asarray(x, dtype=object)))


def cesaro_inverse_apply(y):
    """(n y_n - (n-1) y_{n-1}) with the y_0 := 0 convention."""
    vals = list(y)
    return [n * v - (n - 1) * prev
            for n, (v, prev) in enumerate(zip(vals, shift_apply(vals)), 1)]


def diff_apply(x):
    """(x_2, 2 x_3, 3 x_4, ...); truncated output has length N-1."""
    vals = list(x)
    return [n * vals[n] for n in range(1, len(vals))]


def shift_apply(x):
    vals = list(x)
    zero = Fraction(0) if vals and isinstance(vals[0], Fraction) else 0
    return [zero] + vals


def delta_apply(x):
    """Signed-binomial involution applied to a truncated vector: the
    product of the exact section delta_matrix_exact with x as objects.

    Log-domain magnitudes are available separately via delta_log_abs
    for large indices.
    """
    vals = np.array(list(x), dtype=object)
    if len(vals) > N_DOUBLE_BINOM:
        raise OverflowError(
            f"dense delta application limited to N <= {N_DOUBLE_BINOM}")
    return list(delta_matrix_exact(len(vals)) @ vals)


@functools.lru_cache(maxsize=None)
def _lgamma_table(size):
    """Read-only math.lgamma(i) for i < size; lgamma(0) is the pole +inf."""
    table = np.array([math.inf] + [math.lgamma(i) for i in range(1, size)])
    table.flags.writeable = False
    return table


def delta_log_abs(n, m):
    """log|Delta_{nm}| = log binom(n-1, m-1), -inf above the diagonal.

    Elementwise over an integer array n, read off one cached lgamma
    table (sized to a power of two); a scalar n gives a float.
    """
    n = np.asarray(n)
    lg = _lgamma_table(1 << int(max(np.max(n, initial=0), m)).bit_length())
    with np.errstate(invalid="ignore"):
        out = np.where(n >= m,
                       lg[n] - lg[m] - lg[np.maximum(n - m + 1, 0)],
                       -np.inf)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# exact matrices and factorization checks

def cesaro_matrix_exact(N):
    """Averaging matrix section: Fraction(1, n) on and below the diagonal."""
    return np.array([[Fraction(1, n) if m <= n else Fraction(0)
                      for m in range(1, N + 1)] for n in range(1, N + 1)],
                    dtype=object)


def delta_matrix_exact(N):
    """Involution section: (-1)^(m-1) binom(n-1, m-1) as Python ints."""
    return np.array([[(-1) ** (m - 1) * math.comb(n - 1, m - 1) if m <= n
                      else 0 for m in range(1, N + 1)]
                     for n in range(1, N + 1)], dtype=object).reshape(N, N)


def _max_deviation(X, Y):
    """max |X - Y| over exact (object) arrays, 0 when they are empty."""
    diff = np.asarray(X, dtype=object) - np.asarray(Y, dtype=object)
    return max(map(abs, diff.flat), default=0)


def _scale_to_ints(*mats):
    """(L, [L * M as Python ints for each M]) with L the lcm of the
    denominators present in the exact (int or Fraction) arrays, so an
    identity between them is checked on integers and its deviation is
    the integer one over L (over L**2 for a product of two scaled
    factors)."""
    arrays = [np.asarray(M, dtype=object) for M in mats]
    L = math.lcm(*{v.denominator for M in arrays for v in M.flat})
    return L, [np.array([v.numerator * (L // v.denominator)
                         for v in M.flat], dtype=object).reshape(M.shape)
               for M in arrays]


def _exact_tier(N):
    """Reject a truncation N outside the exact tier 1 <= N <= N_EXACT."""
    if not 1 <= N <= N_EXACT:
        raise ValueError(f"exact tier needs 1 <= N <= {N_EXACT}, got {N}")


def verify_factorizations(N):
    """Exact checks of the two factorizations of the averaging matrix.

    Returns a dict with the (exact) deviations of
      * involution squared = identity,
      * averaging = involution . diag(1/n) . involution,
      * inverse-averaging = (I - right shift) . differentiation . right
        shift, checked coordinatewise on the first N-1 coordinates of
        ten random rational vectors (a fixed seed).
    """
    _exact_tier(N)
    delta = delta_matrix_exact(N)
    L, (inv_n, ces) = _scale_to_ints(
        [Fraction(1, n) for n in range(1, N + 1)], cesaro_matrix_exact(N))
    rng = np.random.default_rng(0)
    ys = [[Fraction(int(a), int(b)) for a, b in
           zip(rng.integers(-99, 100, N), rng.integers(1, 50, N))]
          for _ in range(10)]
    return {
        "N": N,
        "involution_squared_deviation": _max_deviation(
            delta @ delta, np.eye(N, dtype=object)),
        # delta * inv_n scales column m by L/m: L delta . diag(1/n)
        "similarity_deviation": Fraction(
            _max_deviation(delta * inv_n @ delta, ces), L),
        "shift_diff_factorization_deviation": _max_deviation(
            [_factored_inverse_apply(y) for y in ys],
            [cesaro_inverse_apply(y)[: N - 1] for y in ys]),
    }


def _factored_inverse_apply(y):
    """(I - S_r) D S_r applied at truncation; output length N-1."""
    z = diff_apply(shift_apply(y))      # length N: (1*y_1, 2*y_2, ...)
    return [a - b for a, b in zip(z[:-1], shift_apply(z))]


# ---------------------------------------------------------------------------
# weighted norms and c0 conjugation

def _log_weight_row(W: WeightFamily, k, N):
    """log v_k(1..N) from the memoised scalar path ``W.log_weight``.

    The vector path ``W.log_weights`` goes through exp(log alpha_n) and
    differs in the last bit for many n, which would change reported
    norms.  ValueError for a step k < 1, outside the family.
    """
    _at_least(k=(k, 1))
    return np.array([W.log_weight(k, n) for n in range(1, N + 1)],
                    dtype=float)


def _weighted_sup_rows(block, lw):
    """q_k of every row of a 2-D block, as Python floats.

    ``lw`` holds log v_k(n) for the columns.  Each term is
    exp(lw_n + log|x_n|) with Python's arithmetic: |x| is ``abs`` (for
    complex entries ``np.hypot``, which equals it where ``np.abs`` does
    not), log and exp are ``math``'s (NumPy's SIMD versions round
    differently).  Zero entries are skipped and NaN terms ignored, so an
    empty or all-zero row gives 0.0.

    Only the terms that can be a row's largest are evaluated that way.
    One ``np.abs`` pass and NumPy's log rank every term, and a term
    whose rank lies more than SUP_GUARD below its row's top cannot win:
    ``np.abs`` and ``np.hypot`` differ in the last bits, the two logs by
    a few ulp, and exp keeps normal results within one.  ``np.hypot``
    then gives the modulus of the kept entries alone.  A row whose top is
    below log DBL_MIN, where exp is subnormal and coarse, and an object
    (Fraction) block have every nonzero term evaluated.
    """
    b = np.asarray(block)
    a = np.abs(b)
    keep = a != 0
    if b.dtype != object:
        with np.errstate(divide="ignore", invalid="ignore"):
            rank = np.log(a)
            rank += lw
        top = np.fmax.reduce(rank, axis=1, initial=-np.inf)[:, None]
        keep &= (rank >= top - SUP_GUARD) | (top < LOG_DBL_MIN)
    # np.nonzero is several times slower on a 2-D mask
    rows, cols = np.divmod(np.flatnonzero(keep), b.shape[1])
    if b.dtype.kind == "c":
        kept = b[rows, cols]
        a = np.hypot(kept.real, kept.imag)
    else:
        a = a[rows, cols]
    logs = np.fromiter(map(math.log, a.tolist()), float, len(rows))
    with np.errstate(invalid="ignore"):  # -inf + inf is NaN, as in Python
        terms = (lw[cols] + logs).tolist()
    sup = np.zeros(b.shape[0])
    np.fmax.at(sup, rows, np.fromiter(map(math.exp, terms), float,
                                      len(rows)))
    return sup.tolist()


def weighted_norm(x, W: WeightFamily, k):
    """q_k(x) = max_n v_k(n) |x_n|, evaluated in log domain.

    The one-row case of the block kernel behind the ergodic checks, so
    q_k has one implementation.  The weight row is taken from the
    memoised scalar path, which keeps results bit-identical to a
    term-by-term loop over Python floats.
    """
    row = np.asarray(x)[None, :]
    return _weighted_sup_rows(row, _log_weight_row(W, k, row.shape[1]))[0]


def conjugate_to_c0(A: TriangularOperator, W: WeightFamily, k, l):
    """Similarity transform v_l(n)/v_k(m) * entry(n, m), in log domain.

    This is the weighted-step operator viewed as a plain c0 matrix; the
    ratio 1/v_k(m) alone overflows double precision, so the two log
    weights are combined before exponentiation.  ValueError for k < 1 or
    l < k.
    """
    _at_least(k=(k, 1), l=(l, k))

    def entry(n, m):
        v = A.entry(n, m)
        if v == 0:
            return 0.0
        scale = W.log_weight(l, n) - W.log_weight(k, m)
        return v * math.exp(scale)

    return TriangularOperator(entry)


def c0_continuity_test(A: TriangularOperator, horizon, col_check):
    """Row-sum / column-decay evidence that a matrix acts on c0.

    row_sup is the largest absolute row sum over rows n <= horizon;
    column_decay holds when each of the first ``col_check`` columns has
    decayed at row ``horizon`` below COLUMN_DECAY_TOL times its maximum.
    """
    _at_least(col_check=(col_check, 1), horizon=(horizon, col_check))

    row_sup = 0.0
    col_max = [0.0] * col_check
    last_row = [0.0] * col_check
    for n in range(1, horizon + 1):
        s = 0.0
        for m in range(1, n + 1):
            v = abs(A.entry(n, m))
            s += v
            if m <= col_check:
                col_max[m - 1] = max(col_max[m - 1], v)
                if n == horizon:
                    last_row[m - 1] = v
        row_sup = max(row_sup, s)
    column_decay = all(last <= COLUMN_DECAY_TOL * mx
                       for last, mx in zip(last_row, col_max) if mx > 0)
    return {
        "row_sup": row_sup,
        "column_decay": column_decay,
        "continuous_evidence": bool(row_sup < math.inf and column_decay),
    }


# ---------------------------------------------------------------------------
# step-to-step continuity criteria

def _delta_rows(lw_k, lw_l, log_n):
    """Row sums by log-sum-exp over a certified window of each row.

    Row n is the log-sum of t_m = log binom(n-1, m-1) + k alpha_m
    - l alpha_n over m <= n, log binom read off the lgamma table shared
    with delta_log_abs.  L = max(t_mode, t_n) is a lower bound on the
    row's largest term.  Up to the binomial's mode both parts of t_m are
    non-decreasing in m, so every term left of the first m with
    t_m >= L - margin is below L - margin; right of the mode
    log binom(n-1, m-1) + k alpha_n bounds each term and decreases in m,
    which gives the right stop.  Only monotonicity of alpha is assumed.
    With margin _DELTA_MARGIN + log n the dropped terms sum below
    2 e^-_DELTA_MARGIN of the row.  Both stops are bisected for all rows
    at once, and blocks of rows are summed over the union of their
    windows, at most max(_DELTA_CELLS, one row's window) terms at a time.
    """
    h = len(log_n)
    ns = np.arange(1, h + 1)
    lg = _lgamma_table(1 << (h + 1).bit_length())  # m up to n + 1

    def terms(n, m, lw_m, lg_rest):
        """t_m of row n, lg_rest = lg[n - m + 1]: inf above the diagonal,
        where lg[0] makes the binomial's log -inf."""
        t = lw_l[n - 1] - lw_m
        t += (lg[n] - lg[m]) - lg_rest
        return t

    def first(lo, hi, passes):
        """Smallest m in (lo, hi] passing, per row; hi passes, lo fails."""
        while np.any(open_ := hi - lo > 1):
            mid = (lo + hi + 1) // 2  # hi itself once a row has converged
            ok = passes(mid)
            lo, hi = (np.where(open_ & ~ok, mid, lo),
                      np.where(open_ & ok, mid, hi))
        return hi

    mode = (ns - 1) // 2 + 1
    floor = (np.maximum(terms(ns, mode, lw_k[mode - 1], lg[ns - mode + 1]),
                        terms(ns, ns, lw_k[ns - 1], lg[1]))
             - (_DELTA_MARGIN + log_n))
    left = first(np.zeros_like(mode), mode + 1, lambda m: terms(
        ns, m, lw_k[m - 1], lg[ns - m + 1]) >= floor)
    right = first(mode, ns + 1, lambda m: terms(
        ns, m, lw_k[ns - 1], lg[ns - m + 1]) < floor)

    out = np.empty(h)
    i = 0
    while i < h:
        j = min(i + _DELTA_BLOCK, h)
        width = int(right[i:j].max() - left[i:j].min())
        j = min(j, i + max(1, _DELTA_CELLS // width))
        n = ns[i:j]
        m = np.arange(left[i:j].min(), right[i:j].max())
        # lg[n - m + 1] is constant along diagonals: a strided view of
        # its values from the block's lowest diagonal to its highest
        diag = lg[np.maximum(np.arange(n[0] - m[-1], n[-1] - m[0] + 1)
                             + 1, 0)]
        t = terms(n[:, None], m, lw_k[m - 1],
                  sliding_window_view(diag, len(m))[:, ::-1])
        top = t.max(axis=1)
        t -= top[:, None]
        out[i:j] = top + np.log(np.sum(np.exp(t, out=t), axis=1))
        i = j
    return out


# the log row of each criterion but averaging (weights._AveragingScan) at
# n = 1..h, from log v_k and log v_l at n = 1..h+1 and log n at n = 1..h
_STEP_ROWS = {
    "cesaro_inverse": lambda lw_k, lw_l, log_n: (
        log_n + lw_l[:-1] - lw_k[:-1]),
    "diff": lambda lw_k, lw_l, log_n: log_n + lw_l[:-1] - lw_k[1:],
    "delta": _delta_rows,
    "shift": lambda lw_k, lw_l, log_n: lw_l[1:] - lw_k[:-1],
}
STEP_OPS = ("cesaro", *_STEP_ROWS)

# a bound on a single-sweep criterion's rows n in (a, b], one per block,
# from log b and up(s, c_k, c_l), the largest c_k log v_k(m) + c_l log v_l(m)
# over m in (a + s, b + s] (``_ends_max``).  Each with the largest s it
# asks.
_STEP_BOUNDS = {
    "cesaro_inverse": (0, lambda up, log_b: log_b + up(0, -1, 1)),
    "diff": (1, lambda up, log_b: log_b + up(0, 0, 1) + up(1, -1, 0)),
    "shift": (1, lambda up, log_b: up(1, 0, 1) + up(0, -1, 0)),
}


def _step_certificate(op_name, W, k, l, reads, ends):
    """The arguments of ``_certified_holds`` for a single-sweep
    criterion: its exact rows at n = 1..HEAD (those of ``_STEP_ROWS`` on
    alpha_1..alpha_(HEAD+1), the dense rows bit for bit), those n, the
    horizon and the bounds, one per block (a, b] of ``ends`` past the
    head (``_STEP_BOUNDS``), with ``_bound_margin`` at the top index."""
    h = int(ends[-1])
    lw = W.step_log_weights
    head = reads.at(np.arange(1, HEAD + 2))
    rows = _STEP_ROWS[op_name](lw(k, head), lw(l, head),
                               np.log(np.arange(1.0, HEAD + 1)))
    a, b = ends[:-1], ends[1:]

    def up(s, c_k, c_l):
        return _ends_max(lambda x: c_k * lw(k, x) + c_l * lw(l, x),
                         reads.at(a + s + 1), reads.at(b + s))

    def bounds():
        return (_STEP_BOUNDS[op_name][1](up, np.log(b.astype(float))),
                _bound_margin(W, k, l, reads.at([h + 1])[0], h + 1))

    return rows, np.arange(1, HEAD + 1), h, bounds


def step_continuity_test(op_name, W: WeightFamily, k, l, horizon=10 ** 4):
    """Operator-specific criterion for continuity c0(v_k) -> c0(v_l).

    diff:           sup_n n v_l(n) / v_k(n+1)
    cesaro_inverse: sup_n n v_l(n) / v_k(n)
    delta:          sup_n sum_m (v_l(n)/v_k(m)) binom(n-1, m-1)
    cesaro:         sup_n (v_l(n)/n) sum_m 1/v_k(m)
    shift:          sup_n v_l(n+1) / v_k(n)

    Averaging is the package's one averaging scan, shared with the
    finite-type criterion (``weights._AveragingScan``): past 1e6 its
    prefix sums rest on a tail majorant.  From a horizon of 10 HEAD on,
    every criterion but delta first tries a certificate: the exact rows
    n <= HEAD and one bound per geometric block past them, which read
    alpha only at the head and next to the block ends.  Only ``holds`` is
    certified, with the dense scan's supremum and witness; every other
    verdict is the dense scan's.  ValueError for k < 1 or l < k.
    """
    if op_name not in STEP_OPS:
        raise ValueError(f"unknown operator {op_name!r}; one of {STEP_OPS}")
    _at_least(k=(k, 1), l=(l, k))
    h = scan_horizon(W.alpha, horizon, tail=1, step=l)
    if op_name == "cesaro":
        return _AveragingScan(W, h).verdict(k, l)
    s_max = _STEP_BOUNDS.get(op_name, (-1,))[0]
    ends = _certificate_ends(h, h) if s_max >= 0 else None
    reads = _AlphaReads(W.alpha, h + 1, ends, range(s_max + 2))
    if ends is not None:
        v = _certified_holds(*_step_certificate(op_name, W, k, l, reads,
                                                ends))
        if v is not None:
            return v
    ns, alpha_ns = reads.dense()  # n = 1..h+1
    ns = ns[:-1]
    return scan_verdict(_STEP_ROWS[op_name](
        W.step_log_weights(k, alpha_ns), W.step_log_weights(l, alpha_ns),
        np.log(ns.astype(float))), ns)
