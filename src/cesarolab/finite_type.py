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

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .weights import (LCE_BLOCK, LOG_DBL_MAX, AlphaSequence, GrowthVerdict,
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
# the criterion's exact head: a multiple of LCE_BLOCK, so that its prefix
# sums are those of the dense scan bit for bit
HEAD = 16 * LCE_BLOCK
BLOCK_RATIO_DENOM = 64  # blocks past the head grow by a factor 1 + 1/64
# rounding margin of the bounds, relative to the rows' magnitude
BOUND_MARGIN = 1e-9


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
    """alpha_n at the scan indices, evaluated once per scan.

    Every (k, l) the criterion is tried at reads alpha through the
    family's ``step_log_weights``.  ``verdict`` first tries the exact
    head and the bound past it (``_certified``) and scans densely
    (``_dense``) only where they cannot decide; the dense prefix sums
    depend on k alone, so a search over l reuses them.
    """

    def __init__(self, ftw, horizon):
        dense_top, extras = _scan_indices(ftw.alpha, horizon)
        # the batch guard of alpha.values rules out a decrease over the
        # dense indices: the bounds of _certified rest on it
        av = ftw.alpha.values(np.arange(1, dense_top + 1))
        self.ex = np.array(extras, dtype=np.int64)
        self.log_tail_len = None
        if extras:
            self.log_tail_len = np.log(self.ex.astype(float) - dense_top)
            av = np.concatenate([av, ftw.alpha.values(self.ex)])
        self.W, self.av, self.dense_top = ftw, av, dense_top
        self.horizon = int(self.ex[-1]) if extras else dense_top
        # NaN passes the batch guard, and no bound sees it
        self.has_nan = bool(np.isnan(av).any())
        self._dense_prefix = None  # (k, log prefix) of the last dense k

    @functools.cached_property
    def _index(self):
        """(ns, log n) at every scan index, for the dense rows."""
        ns = np.concatenate([np.arange(1, self.dense_top + 1), self.ex])
        return ns, np.log(ns.astype(float))

    @functools.cached_property
    def _blocks(self):
        """Starts a and ends b of the blocks (a, b] from HEAD to dense_top,
        each about 1/BLOCK_RATIO_DENOM longer than the last."""
        ends = [HEAD]
        while ends[-1] < self.dense_top:
            ends.append(min(ends[-1] + ends[-1] // BLOCK_RATIO_DENOM,
                            self.dense_top))
        return np.array(ends[:-1]), np.array(ends[1:])

    def verdict(self, k, l):
        """Verdict on (v_l(n)/n) sum_{m<=n} 1/v_k(m)."""
        return self._certified(k, l) or self._dense(k, l)

    def _tail_prefix(self, k, log_prefix_top):
        """The prefix majorant at the indices past dense_top.

        Tail terms beyond dense_top are <= 1/v_k(dense_top) each, so the
        prefix there is at most the one at dense_top plus the tail.
        """
        tail = self.log_tail_len - self.W.step_log_weights(
            k, self.av[self.dense_top - 1])
        return np.logaddexp(log_prefix_top, tail)

    def _certified(self, k, l):
        """The verdict from the exact head and a bound past it, or None.

        The rows n <= HEAD are the dense rows, bit for bit: HEAD is a
        multiple of LCE_BLOCK, so their prefix is that of the dense scan.
        Past the head, geometric blocks (a, b] of ratio about
        1 + 1/BLOCK_RATIO_DENOM run to dense_top, and alpha does not
        decrease, so each row of a block is at most
        alpha_b / l - log(a + 1) + U_b, where U_b bounds the prefix at b:
        U_b = log(e^U_a + (b - a) e^(-alpha_a / k)) from U_HEAD, the exact
        prefix at HEAD.  Past dense_top the tail majorant takes U at
        dense_top for the prefix.  When the maximum M of the head lies
        before the last decade (HEAD <= horizon // 10) and every bound
        stays below M by BOUND_MARGIN, relative to the rows' magnitude
        (it covers their rounding), the dense scan has the head's
        supremum, witness and base and a last decade below it: its
        verdict is that of the head rows with the largest bound as one
        row at the horizon.  Only a ``holds`` is returned, so only the
        dense scan reports ``fails`` or ``inconclusive``.
        """
        if self.horizon // 10 < HEAD or self.has_nan:
            return None
        lw = self.W.step_log_weights
        ns = np.arange(1, HEAD + 1)
        head_prefix = log_cumsum_exp(-lw(k, self.av[:HEAD]))
        rows = lw(l, self.av[:HEAD]) - np.log(ns.astype(float)) + head_prefix
        a, b = self._blocks
        U = log_cumsum_exp(np.concatenate((
            head_prefix[-1:],
            np.log((b - a).astype(float)) - lw(k, self.av[a - 1]))))
        bounds = (lw(l, self.av[b - 1]) - np.log((a + 1).astype(float))
                  + U[1:])
        if self.log_tail_len is not None:
            bounds = np.concatenate([bounds, (
                lw(l, self.av[self.dense_top:])
                - np.log(self.ex.astype(float))
                + self._tail_prefix(k, U[-1]))])
        top = bounds.max()
        margin = BOUND_MARGIN * (
            1.0 + lw(k, self.av[self.dense_top - 1])
            + math.log(self.dense_top))
        if not top + margin < rows.max():
            return None
        v = scan_verdict(np.append(rows, top), np.append(ns, self.horizon))
        return v if v.status == "holds" else None

    def _dense(self, k, l):
        """The verdict on the rows at every scan index.

        The dense indices take one prefix log-sum-exp, ``log_cumsum_exp``,
        of -log v_k; the indices past them the tail majorant.  That
        majorant is an upper bound: it may support ``holds`` but not
        ``fails``, so a ``fails`` that the dense indices alone do not
        give is ``inconclusive``.
        """
        lw = self.W.step_log_weights
        if self._dense_prefix is None or self._dense_prefix[0] != k:
            # the weight rows stay temporaries: at 1e6 indices each is 8 MB
            prefix = log_cumsum_exp(-lw(k, self.av[: self.dense_top]))
            if self.log_tail_len is not None:
                prefix = np.concatenate(
                    [prefix, self._tail_prefix(k, prefix[-1])])
            self._dense_prefix = k, prefix
        ns, log_n = self._index
        rows = lw(l, self.av) - log_n + self._dense_prefix[1]
        v = scan_verdict(rows, ns)
        dense = slice(self.dense_top)
        if (v.status == "fails" and self.log_tail_len is not None
                and scan_verdict(rows[dense], ns[dense]).status
                != "fails"):
            v = replace(v, status="inconclusive")
        return v


def ft_continuity_criterion(ftw: FiniteTypeWeights, k, l, horizon=10 ** 6):
    """Boundedness of (v_l(n)/n) sum_{m<=n} 1/v_k(m), log-sum-exp form.

    ``holds`` is decided from the exact rows n <= HEAD and a certified
    bound past them where they suffice, with the verdict of the dense
    scan; every other verdict comes from the dense scan (see ``_Scan``).
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if l <= k:
        raise ValueError("need l > k")
    return _Scan(ftw, horizon).verdict(k, l)


def ft_cesaro_acts(ftw: FiniteTypeWeights, horizon=10 ** 6, l_max=L_MAX):
    """Search, for each k <= K_PROBE, a step l where the criterion holds.

    For a staircase sequence (``block_bounds``) the numeric scan cannot
    reach the blocks where divergence shows for larger l, so the closed-
    form lower bound at its block boundaries supplies that evidence: the
    averaging map does not act, with the bound at l = k + l_max as the
    verdict of step k (None when l_max is 0).  The scanned search needs
    a step to try: ValueError for l_max < 1.
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
    if l_max < 1:
        raise ValueError(f"need l_max >= 1 to scan, got {l_max}")
    scan = _Scan(ftw, horizon)
    acts = True
    conclusive = True
    for k in range(1, K_PROBE + 1):
        l_found = last = None
        for l in range(k + 1, k + l_max + 1):
            last = scan.verdict(k, l)
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
