"""Duals of finite-type power series spaces: when averaging fails to act.

Here the weights are increasing, v_k(n) = e^(alpha_n / k), and the
continuity criterion for the averaging map between steps k -> l is
boundedness of (v_l(n)/n) * sum_{m<=n} 1/v_k(m).  The criterion is
bounded for the slowly growing alpha_n = log(n+1) (so averaging acts
even though the space is not nuclear), diverges whenever the space is
nuclear, and diverges for the staircase sequence of blocks
[j(k), j(k+1)) even though that space is not nuclear either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .weights import (LOG_DBL_MAX, AlphaSequence, GrowthVerdict,
                      log_cumsum_exp, make_alpha, scan_horizon, scan_verdict)

__all__ = [
    "FiniteTypeWeights",
    "ft_continuity_criterion",
    "ft_cesaro_acts",
    "example53_alpha",
    "example53_lower_bound",
    "example53_j",
    "gp_nuclearity",
]

L_MAX = 64
K_PROBE = 4


@dataclass
class FiniteTypeWeights:
    """Increasing weight family v_k(n) = e^(alpha_n / k)."""

    alpha: AlphaSequence

    def log_weight(self, k, n):
        return self.alpha.value(n) / k

    def log_weights(self, k, ns):
        return self.step_log_weights(k, self.alpha.values(ns))

    def step_log_weights(self, k, alpha_ns):
        """log v_k(n) = alpha_n / k from alpha.values(ns)."""
        return alpha_ns / k


def _scan_indices(alpha, horizon):
    """Indices scanned by the finite-type criteria.

    Dense up to 1e6; beyond that a log-spaced grid ending at the horizon
    plus (for a staircase sequence) the exact block boundaries, where the
    divergence lower bound lives.  The criterion needs prefix sums, so the dense part
    always covers the full prefix of the largest dense index.
    """
    horizon = scan_horizon(alpha, horizon)
    dense_top = min(horizon, 10 ** 6)
    extras = []
    if horizon > dense_top:
        # the top point is the horizon itself: its float may round away
        # from it, and from 2^63 - 1 up to 2^63, past int64
        grid = np.round(np.logspace(
            math.log10(dense_top), math.log10(horizon), 40)[:-1])
        extras.extend(int(g) for g in grid if g > dense_top)
        extras.append(horizon)
    j = alpha.block_bounds
    if j is not None:
        k = 2
        while j(k) <= horizon:
            if j(k) > dense_top:
                extras.append(int(j(k)))
            k += 1
    return dense_top, sorted(set(extras))


class _Scan:
    """alpha_n and log n at the scan indices, evaluated once per scan.

    Every (k, l) the criterion is tried at reads these arrays through the
    family's ``step_log_weights``; the prefix sums depend on k alone, so
    a search over l reuses them as well.
    """

    def __init__(self, ftw, horizon):
        dense_top, extras = _scan_indices(ftw.alpha, horizon)
        ns = np.arange(1, dense_top + 1)
        av = ftw.alpha.values(ns)
        log_n = np.log(ns.astype(float))
        self.dense_top = dense_top
        self.log_tail_len = None
        if extras:
            ex = np.array(extras, dtype=np.int64)
            self.log_tail_len = np.log(ex.astype(float) - dense_top)
            ns = np.concatenate([ns, ex])
            av = np.concatenate([av, ftw.alpha.values(ex)])
            log_n = np.concatenate([log_n, np.log(ex.astype(float))])
        self.W, self.ns, self.av, self.log_n = ftw, ns, av, log_n

    def log_prefix(self, k):
        """log sum_{m<=n} 1/v_k(m) at every scan index.

        The dense indices are one prefix log-sum-exp, ``log_cumsum_exp``,
        of -log v_k; the indices past them get the tail majorant.
        """
        # the weight rows stay temporaries: at 1e6 indices each is 8 MB
        lw = self.W.step_log_weights
        prefix = log_cumsum_exp(-lw(k, self.av[: self.dense_top]))
        if self.log_tail_len is None:
            return prefix
        # tail terms beyond dense_top are <= 1/v_k(dense_top) each; bound
        # the prefix by the dense part plus the tail majorant
        tail = self.log_tail_len - lw(k, self.av[self.dense_top - 1])
        return np.concatenate([prefix, np.logaddexp(prefix[-1], tail)])

    def verdict(self, log_prefix, l):
        """Verdict on (v_l(n)/n) sum_{m<=n} 1/v_k(m), k fixed by the prefix.

        Past dense_top the prefix is a majorant, an upper bound: it may
        support ``holds`` but not ``fails``, so a ``fails`` that the dense
        indices alone do not give is ``inconclusive``.
        """
        rows = self.W.step_log_weights(l, self.av) - self.log_n + log_prefix
        v = scan_verdict(rows, self.ns)
        dense = slice(self.dense_top)
        if (v.status == "fails" and self.log_tail_len is not None
                and scan_verdict(rows[dense], self.ns[dense]).status
                != "fails"):
            v = replace(v, status="inconclusive")
        return v


def ft_continuity_criterion(ftw: FiniteTypeWeights, k, l, horizon=10 ** 6):
    """Boundedness of (v_l(n)/n) sum_{m<=n} 1/v_k(m), log-sum-exp form."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if l <= k:
        raise ValueError("need l > k")
    scan = _Scan(ftw, horizon)
    return scan.verdict(scan.log_prefix(k), l)


def ft_cesaro_acts(ftw: FiniteTypeWeights, horizon=10 ** 6, l_max=L_MAX):
    """Search, for each k <= K_PROBE, a step l where the criterion holds.

    For a staircase sequence (``block_bounds``) the numeric scan cannot
    reach the blocks where divergence shows for larger l, so the closed-
    form lower bound at its block boundaries supplies that evidence: the
    averaging map does not act, with the bound at l = k + l_max as the
    verdict of step k (None when l_max is 0).
    """
    j = ftw.alpha.block_bounds
    per_k = {}
    if j is not None:
        for k in range(1, K_PROBE + 1):
            # lower bound k^(1/l) k^(k/l - 1) / 4 at blocks diverges in
            # the block index for every fixed l
            l = k + l_max
            per_k[k] = {"l_found": None, "verdict": GrowthVerdict(
                "fails", horizon, example53_lower_bound(10 * l, l),
                int(j(min(10 * l, 6))), True) if l_max else None}
        return {"verdict": "does_not_act", "per_step": per_k,
                "horizon": horizon}
    scan = _Scan(ftw, horizon)
    acts = True
    conclusive = True
    for k in range(1, K_PROBE + 1):
        log_prefix = scan.log_prefix(k)
        l_found = last = None
        for l in range(k + 1, k + l_max + 1):
            last = scan.verdict(log_prefix, l)
            if last.status == "holds":
                l_found = l
                break
            if last.status == "inconclusive":
                conclusive = False
        per_k[k] = {"l_found": l_found, "verdict": last}
        if l_found is None:
            acts = False
    if acts:
        verdict = "acts_evidence"
    elif conclusive:
        verdict = "does_not_act"
    else:
        verdict = "inconclusive"
    return {"verdict": verdict, "per_step": per_k, "horizon": horizon}


def example53_j(k):
    """Block boundaries j(1) = 1, j(k+1) = 2 (k+1) j(k)^k (exact ints)."""
    return example53_alpha().block_bounds(k)


def example53_alpha():
    """The staircase sequence log(beta_n + gamma_n) as an AlphaSequence."""
    return make_alpha("appendix_5_3")


def example53_lower_bound(k, l):
    """Closed-form divergence lower bound k^(1/l) k^(k/l - 1) / 4.

    Evaluated at the block boundary n = j(k); grows without bound in k
    for every fixed l.  Computed in log domain.
    """
    if k < 1 or l < 1:
        raise ValueError("k, l must be >= 1")
    log_val = (1.0 / l) * math.log(k) + (k / l - 1.0) * math.log(k) \
        - math.log(4.0)
    return math.exp(log_val) if log_val <= LOG_DBL_MAX else math.inf


def gp_nuclearity(weights, k, l, horizon=10 ** 5):
    """Summability evidence for (v_l(n)/v_k(n)) along the diagonal.

    Accepts either weight family flavour; ``scan_verdict`` rules on the
    log partial sums, so the sup is the sum at the horizon and the
    witness the first index where it is reached; ``fails`` needs a log
    growth above 1e-3 over the last decade, as the sums always grow.
    """
    if l <= k:
        raise ValueError("need l > k")
    horizon = scan_horizon(weights.alpha, horizon, step=l)
    ns = np.arange(1, horizon + 1)
    alpha_ns = weights.alpha.values(ns)
    log_terms = (weights.step_log_weights(l, alpha_ns)
                 - weights.step_log_weights(k, alpha_ns))
    return scan_verdict(log_cumsum_exp(log_terms), ns,
                        fail_growth=1e-3)
