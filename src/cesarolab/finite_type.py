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

from .weights import (BOUND_MARGIN, HEAD, LOG_DBL_MAX, AlphaSequence,
                      GrowthVerdict, _at_least, _block_ends, _first_step,
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


class _Scan:
    """The criterion's rows at the scan indices, built by ``_rows`` from
    alpha_n, which one guarded ``values`` call reads at all of them.

    The indices are dense up to 1e6; beyond that a log-spaced grid
    ending at the horizon plus (for a staircase sequence) the exact block
    boundaries, where the divergence lower bound lives.  The guard
    refuses a NaN, a zero or a decrease at every scan index, and the
    bound rows of ``_rows`` rest on it.  ``verdict`` scans densely
    (``_dense``) only where the exact head and the bound rows past it
    (``_certified``) cannot decide.
    """

    def __init__(self, ftw, horizon):
        horizon = scan_horizon(ftw.alpha, horizon)
        d = self.dense_top = min(horizon, 10 ** 6)
        extras = []
        if horizon > d:
            # the top point is the horizon itself: its float may round away
            # from it, and from 2^63 - 1 up to 2^63, past int64
            grid = np.round(np.logspace(
                math.log10(d), math.log10(horizon), 40)[:-1])
            extras.extend(int(g) for g in grid if g > d)
            extras.append(horizon)
        j, i = ftw.alpha.block_bounds, 2
        while j is not None and j(i) <= horizon:
            if j(i) > d:
                extras.append(int(j(i)))
            i += 1
        extras = sorted(set(extras))
        # one allocation: 1..dense_top, then the indices past it
        self.ns = np.arange(1, d + len(extras) + 1)
        self.ns[d:] = extras
        self.av = ftw.alpha.values(self.ns)
        self.W, self.horizon = ftw, int(self.ns[-1])
        self._reads = {}  # top -> (a, b, alpha_n, log n) of its rows
        self._sums = {}  # top -> (k, exact, bound) of the last k

    def _rows(self, k, l, top):
        """log (v_l(n)/n) sum_{m<=n} 1/v_k(m) at n = 1..top, exact, then
        bound rows past top.

        One bound row per block (a, b] of ``_block_ends`` from top to
        dense_top: as alpha does not decrease, each row of the block is
        at most alpha_b / l - log(a + 1) + U_b, where
        U_b = log(e^U_a + (b - a) e^(-alpha_a / k)) bounds the prefix sum
        at b, from the exact one at top.  Then one row per index n past
        dense_top, where a term is at most 1/v_k(dense_top), with the tail
        majorant
        log(e^U + (n - dense_top) e^(-alpha_dense_top / k)) as its sum.
        The blocks and where the rows read alpha and log n are kept per
        top, the prefix sums for the last k asked at that top: a search
        over l sums once.
        """
        d, lw, av = self.dense_top, self.W.step_log_weights, self.av
        if top not in self._reads:
            ends = _block_ends(top, d)
            a, b = ends[:-1], ends[1:]
            log_n = np.concatenate((self.ns[:top], a + 1, self.ns[d:]),
                                   dtype=float)
            # the dense rows read alpha at every scan index, uncopied
            alpha = av if top == d else np.concatenate(
                (av[:top], av[b - 1], av[d:]))
            self._reads[top] = a, b, alpha, np.log(log_n, out=log_n)
        a, b, alpha, log_n = self._reads[top]
        if self._sums.get(top, (None,))[0] != k:
            # the weight rows stay temporaries: at 1e6 indices each is 8 MB
            exact = log_cumsum_exp(-lw(k, av[:top]))
            U = exact[-1:]
            if len(a):
                U = log_cumsum_exp(np.concatenate(
                    (U, np.log((b - a).astype(float)) - lw(k, av[a - 1]))))
            tail = (np.log(self.ns[d:].astype(float) - d)
                    - lw(k, av[d - 1:d]))
            self._sums[top] = k, exact, np.concatenate(
                (U[1:], np.logaddexp(U[-1:], tail)))
        _, exact, bound = self._sums[top]
        rows = lw(l, alpha) - log_n
        rows[:top] += exact
        rows[top:] += bound
        return rows

    def verdict(self, k, l):
        """Verdict on (v_l(n)/n) sum_{m<=n} 1/v_k(m)."""
        return self._certified(k, l) or self._dense(k, l)

    def _certified(self, k, l):
        """``holds`` from the rows of ``_rows`` up to HEAD, or None.

        The rows n <= HEAD are the dense rows, bit for bit: HEAD is a
        multiple of LCE_BLOCK, so their prefix is that of the dense scan.
        When the maximum M of the head lies before the last decade
        (HEAD <= horizon // 10) and every bound row stays below M by
        BOUND_MARGIN, relative to the rows' magnitude (it covers their
        rounding), the dense scan has the head's supremum, witness and
        base and a last decade below it: its verdict is that of the head
        rows with the largest bound as one row at the horizon.  Only a
        ``holds`` is returned, so only the dense scan reports ``fails``
        or ``inconclusive``.
        """
        if self.horizon // 10 < HEAD:
            return None
        rows = self._rows(k, l, HEAD)
        top = rows[HEAD:].max()
        margin = BOUND_MARGIN * (
            1.0 + self.W.step_log_weights(k, self.av[self.dense_top - 1])
            + math.log(self.dense_top))
        if not top + margin < rows[:HEAD].max():
            return None
        v = scan_verdict(np.append(rows[:HEAD], top),
                         np.append(self.ns[:HEAD], self.horizon))
        return v if v.status == "holds" else None

    def _dense(self, k, l):
        """The verdict on the rows of ``_rows`` up to dense_top.

        Past dense_top they rest on the tail majorant, an upper bound: it
        may support ``holds`` but not ``fails``, so a ``fails`` that the
        dense indices alone do not give is ``inconclusive``.
        """
        d = self.dense_top
        rows = self._rows(k, l, d)
        v = scan_verdict(rows, self.ns)
        if (v.status == "fails" and len(rows) > d
                and scan_verdict(rows[:d], self.ns[:d]).status != "fails"):
            v = replace(v, status="inconclusive")
        return v


def ft_continuity_criterion(ftw: FiniteTypeWeights, k, l, horizon=10 ** 6):
    """Boundedness of (v_l(n)/n) sum_{m<=n} 1/v_k(m), log-sum-exp form.

    ``holds`` is decided from the exact rows n <= HEAD and a certified
    bound past them where they suffice, with the verdict of the dense
    scan; every other verdict comes from the dense scan (see ``_Scan``).
    """
    _at_least(k=(k, 1), l=(l, k + 1))
    return _Scan(ftw, horizon).verdict(k, l)


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
    scan = _Scan(ftw, horizon)
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
