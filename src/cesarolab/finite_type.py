"""Duals of finite-type power series spaces: when averaging fails to act.

Here the weights are increasing, v_k(n) = e^(alpha_n / k), and the
continuity criterion for the averaging map between steps k -> l is
boundedness of (v_l(n)/n) * sum_{m<=n} 1/v_k(m).  The criterion is
bounded for the slowly growing alpha_n = log(n+1) (so averaging acts
even though the space is not nuclear), diverges whenever the space is
nuclear, and diverges for the staircase sequence of blocks
[j(k), j(k+1)) even though that space is not nuclear either.  It is
scanned by ``weights._AveragingScan``, as the ``cesaro`` step criterion
of ``operators`` is on the decreasing weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import (LOG_DBL_MAX, AlphaSequence, GrowthVerdict,
                      _at_least, _AveragingScan, _first_step,
                      log_cumsum_exp, make_alpha, scan_horizon,
                      scan_verdict)

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


def ft_continuity_criterion(ftw: FiniteTypeWeights, k, l, horizon=10 ** 6):
    """Boundedness of (v_l(n)/n) sum_{m<=n} 1/v_k(m), log-sum-exp form,
    on the package's one averaging scan (``weights._AveragingScan``): a
    certified ``holds`` where it suffices, else the dense scan's verdict.
    """
    _at_least(k=(k, 1), l=(l, k + 1))
    return _AveragingScan(ftw, scan_horizon(ftw.alpha, horizon)).verdict(
        k, l)


def ft_cesaro_acts(ftw: FiniteTypeWeights, horizon=10 ** 6, l_max=L_MAX):
    """Search, for each k <= K_PROBE, a step l where the criterion holds.

    A row alpha_n / l - log n + P_k(n), with P_k(n) the log of
    sum_{m<=n} 1/v_k(m), falls elementwise as l rises, and the late rows
    fall most, as alpha does not decrease.  So ``fails`` is closed
    downward in l and ``holds`` upward; the majorant's fails ->
    inconclusive rule and the certified ``holds`` keep that, and each
    k's statuses run fails..., inconclusive..., holds... over l = k+1..
    k+l_max.  One ``_first_step`` per k finds the first holding step
    ``l_found``; its verdict, or that at k + l_max when none holds, is
    the verdict of step k.  When some k finds no step the report is
    ``inconclusive`` if, for some k, the step just below its first
    holding step (its last step, where none holds) was inconclusive, and
    ``does_not_act`` otherwise.

    For a staircase sequence (``block_bounds``) the numeric scan cannot
    reach the blocks where divergence shows for larger l, so the closed-
    form lower bound at its block boundaries supplies that evidence: the
    averaging map does not act, with the bound at l = k + l_max as the
    verdict of step k (None when l_max is 0).  The scanned search needs
    a step to try: ValueError for l_max < 1.  Either search needs an
    index: ValueError where ``scan_horizon`` leaves none.
    """
    j = ftw.alpha.block_bounds
    per_k = {}
    if j is not None:
        scan_horizon(ftw.alpha, horizon)
        for k in range(1, K_PROBE + 1):
            # lower bound k^(1/l) k^(k/l - 1) / 4 at blocks diverges in
            # the block index for every fixed l
            l = k + l_max
            per_k[k] = {"l_found": None, "verdict": GrowthVerdict(
                "fails", horizon, example53_lower_bound(10 * l, l),
                int(j(min(10 * l, 6))), True) if l_max else None}
        return {"verdict": "does_not_act", "per_step": per_k,
                "horizon": horizon}
    _at_least(l_max=(l_max, 1))
    scan = _AveragingScan(ftw, scan_horizon(ftw.alpha, horizon))
    doubt = False
    for k in range(1, K_PROBE + 1):
        seen = {}  # l -> its verdict; the search asks each l once

        def holds(l):
            seen[l] = scan.verdict(k, l)
            return seen[l].status == "holds"

        l_found = _first_step(holds, k + 1, k + l_max)
        last = seen[l_found or k + l_max]
        # the step below the first holding one, asked unless l_found = k + 1
        below = last if l_found is None else seen.get(l_found - 1, last)
        doubt |= below.status == "inconclusive"
        per_k[k] = {"l_found": l_found, "verdict": last}
    verdict = ("acts_evidence" if all(s["l_found"] for s in per_k.values())
               else "inconclusive" if doubt else "does_not_act")
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
    _at_least(k=(k, 1), l=(l, 1))
    log_val = (1.0 / l) * math.log(k) + (k / l - 1.0) * math.log(k) \
        - math.log(4.0)
    return math.exp(log_val) if log_val <= LOG_DBL_MAX else math.inf


def gp_nuclearity(weights, k, l, horizon=10 ** 5):
    """Summability evidence for (v_l(n)/v_k(n)) along the diagonal.

    Accepts either weight family flavour; ``scan_verdict`` rules on the
    log partial sums, so the sup is the sum at the horizon and the
    witness the first index where it is reached; ``fails`` needs a log
    growth above 1e-3 over the last decade, as the sums always grow.
    ValueError for k < 1 or l <= k.
    """
    _at_least(k=(k, 1), l=(l, k + 1))
    horizon = scan_horizon(weights.alpha, horizon, step=l)
    ns = np.arange(1, horizon + 1)
    alpha_ns = weights.alpha.values(ns)
    log_terms = (weights.step_log_weights(l, alpha_ns)
                 - weights.step_log_weights(k, alpha_ns))
    return scan_verdict(log_cumsum_exp(log_terms), ns,
                        fail_growth=1e-3)
