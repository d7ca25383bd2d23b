"""Iterates, means and the rank-one ergodic limit of the averaging map.

The averaging matrix is lower triangular, so coordinates up to N never
depend on later ones and convergence at a fixed truncation with the
k-weighted sup norm is a faithful finite witness.  The limit projection
sends x to x_1 * (1,1,1,...), along the hyperplane of vectors with
vanishing first coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .operators import (_cesaro_step, _log_weight_row, _max_deviation,
                        _scale_to_ints, _weighted_sup_rows,
                        cesaro_matrix_exact)
from .weights import (WeightFamily, _at_least, log_cumsum_exp, scan_horizon,
                      scan_verdict)

__all__ = [
    "IterationTrace",
    "power_apply",
    "cesaro_means",
    "power_bounded_check",
    "iterates_limit_check",
    "decomposition_split",
    "range_inverse_matrices",
    "b_continuity_check",
]

M_CAP = 10 ** 4
ITERATE_TOL = 1e-8
POWER_SLACK = 1e-10  # relative rounding room before a norm counts as grown
_ITERATE_BATCH = 32  # iterates stepped and measured together


@dataclass
class IterationTrace:
    m_values: list
    distances: list
    status: str  # "converged" | "not_converged"

    def to_csv(self, fh):
        fh.write("m,distance\n")
        for m, d in zip(self.m_values, self.distances):
            fh.write(f"{m},{d:.17g}\n")


def power_apply(x, m, N=None):
    """m-fold application of the averaging map at truncation N."""
    _at_least(m=(m, 1))
    v = np.asarray(x, dtype=complex)
    if N is not None:
        v = v[:N]
    for _ in range(m):
        v = _cesaro_step(v)
    return list(v)


def cesaro_means(x, n, N=None):
    """(1/n) sum_{m=1}^{n} C^m x, averaged in order m = 1..n."""
    _at_least(n=(n, 1))
    v = np.asarray(x, dtype=complex)
    if N is not None:
        v = v[:N]
    acc = np.zeros_like(v)
    cur = v
    for _ in range(n):
        cur = _cesaro_step(cur)
        acc = acc + cur
    return list(acc / n)


def _iterate_batches(v, count):
    """C^1 v, ..., C^count v along a leading axis, _ITERATE_BATCH
    iterates per yielded block; each block is overwritten by the next.

    Each iterate is the averaging step of ``_cesaro_step`` (a prefix sum
    along the last axis, then complex128 / int64) taken in place into a
    row of one reused buffer, so the iterates have the same bits and a
    long run touches no new memory.
    """
    den = np.arange(1, np.shape(v)[-1] + 1)
    block = np.empty((min(_ITERATE_BATCH, count),) + np.shape(v),
                     dtype=complex)
    for done in range(0, count, _ITERATE_BATCH):
        batch = block[:count - done]
        for row in batch:
            np.cumsum(v, axis=-1, out=row)
            row /= den
            v = row
        yield batch


def power_bounded_check(W: WeightFamily, k, trials=20, m_max=200, N=50,
                        seed=0):
    """Random-vector evidence that iterates contract the k-norm.

    No trial, iterate or coordinate would pass vacuously, so ``trials``,
    ``m_max`` and ``N`` below 1 raise ValueError.
    """
    _at_least(trials=(trials, 1), m_max=(m_max, 1), N=(N, 1))
    rng = np.random.default_rng(seed)
    # every trial's start vector, real part then imaginary part; row t of
    # a block of C^m x is C^m x_t
    x = np.empty((trials, N), dtype=complex)
    for row in x:
        row[:] = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    lw = _log_weight_row(W, k, N)
    q0 = np.array(_weighted_sup_rows(x, lw))
    q = np.reshape([d for batch in _iterate_batches(x, m_max)
                    for d in _weighted_sup_rows(batch.reshape(-1, N), lw)],
                   (m_max, trials))
    # C^m x_t against x_t: a start of norm 0 (or NaN) gives ratio 0, and
    # NaN ratios are passed over, as is NaN in the growth test
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(q0 > 0, q / q0, 0.0)
    worst = float(np.fmax.reduce(ratios, axis=None, initial=0.0))
    failures = int(np.count_nonzero(q > q0 * (1.0 + POWER_SLACK)))
    return {"trials": trials, "m_max": m_max, "N": N, "k": k,
            "worst_ratio": worst, "failures": failures,
            "passed": failures == 0}


def decomposition_split(x):
    """x = y + z with y = x_1 * (1,...,1) and z_1 = 0, exactly."""
    vals = list(x)
    if not vals:
        return [], []
    c = vals[0]
    y = [c for _ in vals]
    z = [v - c for v in vals]
    return y, z


def iterates_limit_check(x, W: WeightFamily, k, N, tol=ITERATE_TOL,
                         m_cap=M_CAP):
    """Trace of q_k(C^m x - P x) at truncation N until below tol.

    P x = x_1 * (1,1,...); the truncated iteration converges
    geometrically since the nontrivial eigenvalues 1/j, j >= 2, lie
    inside the unit disc.  The iterates are stepped _ITERATE_BATCH at a
    time into one block and measured by one kernel call; the trace ends
    at the first distance below tol, or at m_cap, and the iterates a
    batch computed past that end are dropped.
    """
    _at_least(N=(N, 2), m_cap=(m_cap, 1))
    v = np.asarray(x, dtype=complex)[:N]
    if len(v) < N:
        raise ValueError(f"x has {len(v)} coordinates, fewer than N = {N}")
    limit = np.full(N, v[0], dtype=complex)
    lw = _log_weight_row(W, k, N)
    distances = []
    for batch in _iterate_batches(v, m_cap):
        for d in _weighted_sup_rows(batch - limit, lw):
            distances.append(d)
            if d < tol:
                return IterationTrace(list(range(1, len(distances) + 1)),
                                      distances, "converged")
    return IterationTrace(list(range(1, m_cap + 1)), distances,
                          "not_converged")


# ---------------------------------------------------------------------------
# closed range: the shifted (I - C) and its explicit inverse

def _b_matrix_exact(N):
    """Explicit inverse: b_nn = (n+1)/n, b_nm = 1/m below the diagonal."""
    return np.array([[Fraction(n + 1, n) if m == n
                      else (Fraction(1, m) if m < n else Fraction(0))
                      for m in range(1, N + 1)] for n in range(1, N + 1)],
                    dtype=object)


def range_inverse_matrices(N):
    """The shifted (I - C) restriction, its explicit inverse, and the
    exact residual max|AB - I|, |BA - I| at truncation N.

    A = S (I - C)|_{x_1 = 0} S^{-1} is I - C with its first row and
    column cut: a_nn = n/(n+1), a_nm = -1/(n+1) below the diagonal.
    """
    _at_least(N=(N, 1))
    A = (np.eye(N + 1, dtype=object) - cesaro_matrix_exact(N + 1))[1:, 1:]
    B = _b_matrix_exact(N)
    L, (LA, LB) = _scale_to_ints(A, B)
    eye = np.eye(N, dtype=object) * L ** 2
    residual = Fraction(max(_max_deviation(LA @ LB, eye),
                            _max_deviation(LB @ LA, eye)), L ** 2)
    return A, B, residual


def b_continuity_check(W: WeightFamily, k, horizon=10 ** 4):
    """Weighted row sums of the explicit inverse, shifted weights, l=k+1.

    Row n contributes (n+1)/n * v_l(n+1)/v_k(n+1)
    + v_l(n+1) sum_{m<n} 1/(m v_k(m+1)); bounded exactly when the space
    is nuclear.  ValueError for k < 1.
    """
    _at_least(k=(k, 1))
    l = k + 1
    ns = np.arange(1, scan_horizon(W.alpha, horizon, tail=1, step=l) + 1)
    alpha_ns = W.alpha.values(ns + 1)
    lw_l = W.step_log_weights(l, alpha_ns)
    lw_k = W.step_log_weights(k, alpha_ns)
    log_n = np.log(ns.astype(float))
    # prefix log-sum of 1/(m v_k(m+1))
    prefix = log_cumsum_exp(-log_n - lw_k)
    diag_term = np.log1p(1.0 / ns) + lw_l - lw_k
    rows = np.array(diag_term)
    rows[1:] = np.logaddexp(diag_term[1:], lw_l[1:] + prefix[:-1])
    return scan_verdict(rows, ns, W.alpha.flag("nuclear"), grant_holds=False)
