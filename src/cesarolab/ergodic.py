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
from .weights import WeightFamily, log_cumsum_exp, scan_horizon, scan_verdict

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
    if m < 1:
        raise ValueError("m must be >= 1")
    v = np.asarray(x, dtype=complex)
    if N is not None:
        v = v[:N]
    for _ in range(m):
        v = _cesaro_step(v)
    return list(v)


def cesaro_means(x, n, N=None):
    """(1/n) sum_{m=1}^{n} C^m x, averaged in order m = 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    v = np.asarray(x, dtype=complex)
    if N is not None:
        v = v[:N]
    acc = np.zeros_like(v)
    cur = v
    for _ in range(n):
        cur = _cesaro_step(cur)
        acc = acc + cur
    return list(acc / n)


def power_bounded_check(W: WeightFamily, k, trials=20, m_max=200, N=50,
                        seed=0):
    """Random-vector evidence that iterates contract the k-norm."""
    rng = np.random.default_rng(seed)
    # every trial's start vector first, real part then imaginary part,
    # then C^m of all of them at once: row m * trials + t is C^m x_t
    block = np.empty((m_max + 1, trials, N), dtype=complex)
    for x in block[0]:
        x[:] = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    for m in range(1, m_max + 1):
        block[m] = _cesaro_step(block[m - 1])
    rows = block.reshape((m_max + 1) * trials, N)
    q = np.reshape(_weighted_sup_rows(rows, _log_weight_row(W, k, N)),
                   (m_max + 1, trials))
    worst = 0.0
    failures = 0
    for q0, *qs in q.T.tolist():
        for qm in qs:
            ratio = qm / q0 if q0 > 0 else 0.0
            worst = max(worst, ratio)
            if qm > q0 * (1.0 + POWER_SLACK):
                failures += 1
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
    inside the unit disc.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    v = np.asarray(x, dtype=complex)[:N]
    limit = np.full(N, v[0], dtype=complex)
    lw = _log_weight_row(W, k, len(v))
    m_values, distances = [], []
    status = "not_converged"
    for m in range(1, m_cap + 1):
        v = _cesaro_step(v)
        d = _weighted_sup_rows((v - limit)[None, :], lw)[0]
        m_values.append(m)
        distances.append(d)
        if d < tol:
            status = "converged"
            break
    return IterationTrace(m_values, distances, status)


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
    if N < 1:
        raise ValueError("N must be >= 1")
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
    is nuclear.
    """
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
