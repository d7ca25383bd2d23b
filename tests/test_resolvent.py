import cmath
import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cesarolab import resolvent as rsv
from cesarolab.operators import TriangularOperator
from cesarolab.resolvent import (_log_slacks, _strict_row_base, a_fn,
                                 disc_samples, dist_sigma0,
                                 equicontinuity_probe, product_log,
                                 product_log_prefix, resolvent_entries,
                                 resolvent_norm_bound_check, sandwich_bounds,
                                 sandwich_check, u_fn, v_fn)
from cesarolab.weights import (LOG_DBL_MAX, PRESET_NAMES, AlphaSequence,
                               WeightFamily, _first_step, make_alpha,
                               scan_horizon, scan_verdict)


def test_a_fn_values():
    assert a_fn(0.4 + 0.2j) == pytest.approx(2.0)
    assert a_fn(2.0) == pytest.approx(0.5)
    with pytest.raises(ZeroDivisionError):
        a_fn(0.0)


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=200, deadline=None)
def test_disc_characterization(x, y):
    # a(z) >= 1 exactly on the closed disc |z - 1/2| <= 1/2
    z = complex(x, y)
    if z == 0 or abs(abs(z - 0.5) - 0.5) < 1e-9:
        return
    assert (a_fn(z) >= 1.0) == (abs(z - 0.5) <= 0.5)


def test_dist_sigma0():
    assert dist_sigma0(0.0) == 0.0
    assert dist_sigma0(1.0 / 7.0) == pytest.approx(0.0, abs=1e-12)
    # 0.3 sits between 1/3 and 1/4, closer to 1/3
    assert dist_sigma0(0.3) == pytest.approx(1.0 / 3.0 - 0.3)
    assert dist_sigma0(2.0 + 1.0j) == pytest.approx(abs(2.0 + 1.0j - 1.0))


def test_dist_sigma0_reciprocals_beyond_1e4():
    # the nearest point of Sigma0 may be 1/n for any n, not only n <= 1e4
    assert dist_sigma0(1.0 / 20000) == 0.0
    assert dist_sigma0(1.0 / 20000 + 2e-4j) == pytest.approx(2e-4)
    assert dist_sigma0(1.0 / 123457 + 1e-9j) == pytest.approx(1e-9)
    assert isinstance(dist_sigma0(0.3), float)


def test_u_fn_uses_true_distance_near_zero():
    lam = 1.0 / 20000 + 1e-6j
    r, d = abs(lam), 1e-6
    big_d = 3.0 * (1.0 + r) ** 2 / (r ** 1.5 * d ** 2.5)
    arg = -1.0 / r - 2.0 * big_d
    assert u_fn(lam) == math.exp(arg) == 0.0


_RECIPROCALS = 1.0 / np.arange(1, 10 ** 6 + 1)


def _brute_dist(z):
    return min(abs(z), float(np.min(np.abs(z - _RECIPROCALS))))


_RE = st.one_of(st.floats(2e-6, 3.0), st.floats(-3.0, 0.0),
                st.floats(-5.69, 0.0).map(lambda e: 10.0 ** e))
_IM = st.one_of(st.floats(-2.0, 2.0), st.floats(-1e-4, 1e-4))


@given(st.lists(st.tuples(_RE, _IM), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_dist_sigma0_matches_brute_force(pairs):
    # Re z >= 2e-6 puts the nearest reciprocal at n <= 5e5 < 1e6
    zs = np.array([complex(x, y) for x, y in pairs])
    scalars = [dist_sigma0(z) for z in zs.tolist()]
    assert dist_sigma0(zs).tolist() == scalars
    for z, d in zip(zs.tolist(), scalars):
        assert d == pytest.approx(_brute_dist(z), rel=1e-12, abs=0.0)


def test_product_exact_values():
    # prod_{n<=4} (1 - 1/(2n)) = (1/2)(3/4)(5/6)(7/8) = 105/384
    assert product_log(2.0, 4) == pytest.approx(math.log(105.0 / 384.0))
    # mu = -1 telescopes: prod (1 + 1/n) = N + 1
    assert product_log(-1.0, 100) == pytest.approx(math.log(101.0))


def test_product_prefix_monotone_structure():
    pref = product_log_prefix(2.0, 50)
    assert len(pref) == 50
    assert pref[3] == pytest.approx(math.log(105.0 / 384.0))


def test_product_zero_factor_flagged():
    # mu = 1/3 kills the n = 3 factor
    assert product_log(1.0 / 3.0, 5) == -math.inf
    with pytest.raises(ZeroDivisionError):
        product_log(0.0, 5)


# mu from four probes of the digest reports, at N = 2e4 terms
@pytest.mark.parametrize("mu", [0.5494 - 0.3519j, 0.5498 + 0.2209j,
                                -1.0815 - 0.5206j, 2.1884 - 1.0349j])
def test_product_prefix_against_mpmath(mu):
    mpmath = pytest.importorskip("mpmath")
    N = 2 * 10 ** 4
    with mpmath.workdps(40):
        w = 1 / mpmath.mpc(mu.real, mu.imag)
        total, want = mpmath.mpf(0), []
        for n in range(1, N + 1):
            total += mpmath.log(abs(1 - w / n))
            want.append(float(total))
    err = np.max(np.abs(product_log_prefix(mu, N) - np.array(want)))
    # a log of the complex modulus |1 - 1/(n mu)| is off by 6e-13 to
    # 1.1e-12 here
    assert err <= 2e-13


def test_product_prefix_at_float_reciprocals():
    # mu = float(1/n) nearly kills the n-th factor: the term reads -inf
    # or a tiny factor, never NaN, and with no RuntimeWarning
    for n in range(1, 10 ** 4 + 1):
        pref = product_log_prefix(1.0 / n, n)
        assert not np.isnan(pref).any()
        term = pref[-1] - (pref[-2] if n > 1 else 0.0)
        assert term == -math.inf or term < -15.0


def test_disc_samples_deterministic():
    a = disc_samples(1.0 + 1.0j, 0.1)
    b = disc_samples(1.0 + 1.0j, 0.1)
    assert a == b
    assert a[0] == 1.0 + 1.0j
    assert all(abs(p - (1.0 + 1.0j)) <= 0.1 + 1e-12 for p in a)


def test_sandwich_bounds_and_check():
    res = sandwich_check(2.0 + 0.5j, 0.1, [10, 100, 1000, 10000])
    assert res["passed"]
    assert res["worst_log_slack_lower"] >= 0
    assert res["worst_log_slack_upper"] >= 0


def test_sandwich_rejects_disc_touching_sigma0():
    with pytest.raises(ValueError):
        sandwich_bounds(0.5, 0.6)


def test_sandwich_bounds_are_the_disc_inf_and_sup():
    pts = disc_samples(2.0 + 0.5j, 0.1)
    assert sandwich_bounds(2.0 + 0.5j, 0.1) == (
        min(map(u_fn, pts)), max(map(v_fn, pts)))


_W_N = WeightFamily(make_alpha("n"))

# each call that makes a disc around lam = 2, with a radius and a count
_DISC_CALLS = {
    "sandwich_bounds": lambda delta, samples: sandwich_bounds(2.0, delta),
    "sandwich_check": lambda delta, samples: sandwich_check(
        2.0, delta, [10, 100], samples=samples),
    "equicontinuity_probe": lambda delta, samples: equicontinuity_probe(
        2.0, delta, _W_N, 1, horizon=100, samples=samples),
    "resolvent_norm_bound_check":
        lambda delta, samples: resolvent_norm_bound_check(
            2.0, _W_N, 1, horizon=100, delta=delta, samples=samples),
}
# every call that takes a sample count refuses one below 1 by name
# before it makes a disc
_BAD_COUNT = [("sandwich_check", -1), ("sandwich_check", 0)]
_RADIUS = "disc radius must be positive, got "
_DISC_CASES = [
    *((name, delta, 4, message) for name in sorted(_DISC_CALLS)
      for delta, message in [
          (0.0, _RADIUS + "0.0"),
          (-0.1, _RADIUS + "-0.1"),
          (math.nan, _RADIUS + "nan"),
          # dist_sigma0(2) = 1: this disc passes through 0 and every 1/n
          (2.0, "closed disc B(2.0, 2.0) touches Sigma0 (dist = 1)")]),
    *((name, 0.1, samples, f"samples must be >= 1, got {samples}")
      for name, samples in _BAD_COUNT),
]


@pytest.mark.parametrize("name,delta,samples,message", _DISC_CASES)
def test_every_disc_obeys_one_rule(name, delta, samples, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _DISC_CALLS[name](delta, samples)


def test_disc_samples_rejects_negative_counts():
    with pytest.raises(ValueError, match="^boundary must be >= 0, got -1$"):
        disc_samples(2.0, 0.1, boundary=-1)
    with pytest.raises(ValueError, match="^interior must be >= 0, got -1$"):
        disc_samples(2.0, 0.1, interior=-1)
    assert disc_samples(2.0, 0.1, boundary=0, interior=0) == [2.0]


def test_one_sample_is_the_center():
    probe = equicontinuity_probe(0.4 + 0.2j, 0.05, _W_N, 1, horizon=1000,
                                 samples=1)
    assert probe["samples"] == 1
    res = resolvent_norm_bound_check(2.0, _W_N, 1, horizon=100, samples=1)
    assert [row["mu"] for row in res["samples"]] == [2.0]


@pytest.mark.parametrize("lam,delta", [(0.3 + 0.01j, 0.005),
                                       (0.4 + 0.2j, 0.02)])
def test_sandwich_with_underflowed_lower_constant(lam, delta):
    # u underflows to 0 on the whole disc: the lower bound is 0, which
    # every product clears with infinite log slack
    res = sandwich_check(lam, delta, [10, 100, 1000, 10000])
    assert res["d_delta"] == 0.0
    assert res["worst_log_slack_lower"] == math.inf
    assert res["passed"]


def test_v_fn_past_double_range_is_inf():
    assert v_fn(0.038) == math.inf
    assert v_fn(0.0625) == math.exp(16.0 + 256.0)
    res = sandwich_check(-0.03, 0.01, [10, 100])
    assert res["D_delta"] == math.inf
    assert res["worst_log_slack_upper"] == math.inf
    assert res["passed"]


def reference_sandwich_slacks(mu, d_delta, D_delta, N_list):
    """The slack loop of sandwich_check before _log_slacks, verbatim."""
    slacks = []
    prefix = product_log_prefix(mu, N_list[-1])
    a_mu = a_fn(mu)
    for N in N_list:
        log_prod = float(prefix[N - 1])
        log_lo = math.log(d_delta) - a_mu * math.log(N)
        log_hi = math.log(D_delta) - a_mu * math.log(N)
        slack_lo = log_prod - log_lo
        slack_hi = log_hi - log_prod
        slacks.append((slack_lo, slack_hi))
    return slacks


def reference_verify_slacks(lam, u, v, N_list, slack=1.001):
    """The slack loop of ``verify --suite sandwich`` before _log_slacks,
    verbatim, with its 0.1 percent floating slack."""
    slacks = []
    a = a_fn(lam)
    log_u = math.log(u) if u > 0 else -math.inf
    log_v = math.log(v)
    prefix = product_log_prefix(lam, N_list[-1])
    for N in N_list:
        log_prod = float(prefix[N - 1])
        lo = log_prod - (log_u - a * math.log(N)) + math.log(slack)
        hi = (log_v - a * math.log(N)) - log_prod + math.log(slack)
        slacks.append((lo, hi))
    return slacks


def _bits(pairs):
    return [(lo.hex(), hi.hex()) for lo, hi in pairs]


_CONSTANT = st.floats(1e-300, 1e300)


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), _CONSTANT, _CONSTANT,
       st.lists(st.integers(1, 3000), min_size=1, max_size=5,
                unique=True).map(sorted))
@settings(max_examples=200, deadline=None)
def test_log_slacks_bit_equal_to_both_retired_loops(x, y, lo, hi, N_list):
    mu = complex(x, y)
    if dist_sigma0(mu) <= 0.01:
        return
    got = _log_slacks(mu, lo, hi, N_list)
    assert _bits(got) == _bits(reference_sandwich_slacks(mu, lo, hi, N_list))
    for u in (lo, 0.0):
        got = [(a + math.log(1.001), b + math.log(1.001))
               for a, b in _log_slacks(mu, u, hi, N_list)]
        assert _bits(got) == _bits(reference_verify_slacks(mu, u, hi, N_list))


def test_sandwich_single_lambda_all_scales():
    lam = 0.4 + 0.2j
    a = a_fn(lam)
    u, v = u_fn(lam), v_fn(lam)
    for N in (10, 100, 1000, 10000):
        prod = math.exp(product_log(lam, N))
        assert prod <= v / N ** a * 1.001
        assert prod >= u / N ** a / 1.001


def test_resolvent_entry_oracle():
    mu = -1.0
    R = resolvent_entries(mu).resolvent_matrix(3)
    # e_{21}(-1) = 1/(2 (1+1)(1+1/2)) = 1/6, and R = D - E / mu^2
    assert -mu ** 2 * R[1, 0] == pytest.approx(1.0 / 6.0)
    # first row of the strict part vanishes: R[0, 0] is d_11 exactly
    assert R[0, 0] == 1.0 / (1.0 / 1 - mu)
    # diagonal part
    assert R[2, 2] == pytest.approx(1.0 / (1.0 / 3.0 + 1.0))


def retired_resolvent_matrix(mu, N):
    # the entry-closure builder that resolvent_matrix replaced, verbatim
    # from resolvent_entries and ResolventDecomposition.resolvent_matrix
    mu = complex(mu)
    cache = {"prefix": None}

    def clog_prefix(n):
        # cumulative complex log of the factors (1 - 1/(mu k)), k <= n
        pref = cache["prefix"]
        if pref is None or len(pref) < n:
            top = max(n, 64, 2 * (len(pref) if pref is not None else 0))
            ks = np.arange(1, top + 1, dtype=float)
            factors = (1.0 - 1.0 / (mu * ks)).astype(complex)
            pref = np.cumsum(np.log(factors))
            cache["prefix"] = pref
        return pref

    def e_entry(n, m):
        if n < 2 or m >= n or m < 1:
            return 0.0
        pref = clog_prefix(n)
        acc = pref[n - 1] - (pref[m - 2] if m >= 2 else 0.0)
        return complex(cmath.exp(-acc)) / n

    def d_entry(n, m):
        if n != m:
            return 0.0
        return 1.0 / (1.0 / n - mu)

    D = TriangularOperator(d_entry).truncate(N)
    E = TriangularOperator(e_entry).truncate(N)
    return D - E / mu ** 2


@pytest.mark.parametrize("N", [1, 2, 20, 64])
@pytest.mark.parametrize("mu", [2.0, -1.0, 0.4 + 0.2j, -0.3 + 0.7j, 3.0j])
def test_resolvent_matrix_matches_retired_builder(mu, N):
    got = resolvent_entries(mu).resolvent_matrix(N)
    assert got.tobytes() == retired_resolvent_matrix(mu, N).tobytes()


def _retired_entry_comprehension(mu, N):
    # the per-entry builder that the array of exponents replaced
    L = np.zeros(N + 1, dtype=complex)
    L[1:] = np.cumsum(np.log(1.0 - 1.0 / (mu * np.arange(1.0, N + 1))))
    D = np.diag([1.0 / (1.0 / n - mu) for n in range(1, N + 1)])
    E = np.array([[complex(cmath.exp(-(L[n] - L[m - 1]))) / n if m < n
                   else 0.0 for m in range(1, N + 1)]
                  for n in range(1, N + 1)], dtype=complex)
    return D - E / mu ** 2


@pytest.mark.parametrize("N", [1, 2, 25, 40, 100])
@pytest.mark.parametrize("mu", [0.4 + 0.2j, 0.7 - 0.1j, 0.45 + 0.01j,
                                0.3, 0.6, 2.0, -1.0, 3.0j, -0.3 + 0.7j])
def test_resolvent_matrix_matches_the_entry_comprehension(mu, N):
    # inside the disc |mu - 1/2| < 1/2 off Sigma0, on its real segment,
    # and outside it, bit for bit
    got = resolvent_entries(mu).resolvent_matrix(N)
    want = _retired_entry_comprehension(complex(mu), N)
    assert got.tobytes() == want.tobytes()


def test_resolvent_rejects_sigma0():
    with pytest.raises(ValueError):
        resolvent_entries(0.0)
    with pytest.raises(ValueError):
        resolvent_entries(1.0 / 5.0)


def test_resolvent_rejects_every_float_reciprocal():
    # the membership test is dist_sigma0's; a rounding rule of its own
    # missed float(1/n) from n = 49 on, and 1/49 then divided by zero
    accepted = []
    for n in range(1, 10 ** 5 + 1):
        try:
            resolvent_entries(1.0 / n)
        except ValueError:
            continue
        accepted.append(n)
    assert accepted == []
    for n in (2, 49, 93, 103, 99991):
        mu = math.nextafter(1.0 / n, 1.0)
        assert resolvent_entries(mu).mu == mu


def test_probe_sup_past_double_range_is_inf():
    # a(mu) = 250: the row sums grow like n^249 and pass e^709.78 before
    # n = 1e4; the supremum is reported as inf, not a finite cap
    W = WeightFamily(make_alpha("log_n"))
    res = equicontinuity_probe(0.002 + 0.002j, 0.0005, W, 1, horizon=10 ** 4,
                               samples=2, l_max=0)
    assert res["verdict"] == "unbounded_evidence"
    assert res["sup_row_sum"] == math.inf


@pytest.mark.parametrize("mu", [2.0, -1.0, 0.4 + 0.2j, -0.3 + 0.7j, 3.0j])
def test_reconstruction_residual(mu):
    dec = resolvent_entries(mu)
    assert dec.reconstruction_residual(20) < 1e-9


def test_reconstruction_random_mu():
    rng = np.random.default_rng(7)
    done = 0
    while done < 20:
        mu = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if dist_sigma0(mu) <= 0.05:
            continue
        assert resolvent_entries(mu).reconstruction_residual(20) < 1e-9
        done += 1


def test_probe_finds_step_linear_alpha():
    W = WeightFamily(make_alpha("n"))
    res = equicontinuity_probe(0.4 + 0.2j, 0.05, W, k=1, horizon=10 ** 4)
    assert res["verdict"] == "bounded"
    assert res["l_found"] is not None
    assert res["sup_row_sum"] < 1e3


def test_probe_negative_axis_linear_alpha():
    W = WeightFamily(make_alpha("n"))
    res = equicontinuity_probe(-1.0, 0.05, W, k=1, horizon=10 ** 4)
    assert res["verdict"] == "bounded"


def test_probe_unbounded_for_slow_alpha():
    W = WeightFamily(make_alpha("logloglog_n"))
    res = equicontinuity_probe((1.0 + 1.0j) / 2.0, 0.05, W, k=1,
                               horizon=10 ** 4, l_max=16)
    assert res["verdict"] == "unbounded_evidence"
    assert res["l_found"] is None


def test_probe_n_pow_n_bounded_at_the_overflow_cap(monkeypatch):
    # the probe scans n_pow_n up to n = 142, where 65 alpha_n is still a
    # double: step l = 1 holds at every sample and ends the search
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return scan_verdict(*args, **kwargs)

    monkeypatch.setattr(rsv, "scan_verdict", counting)
    W = WeightFamily(make_alpha("n_pow_n"))
    res = equicontinuity_probe(2.0, 0.05, W, k=1, horizon=1000)
    assert len(calls) == res["samples"] == 8
    assert (res["verdict"], res["l_found"]) == ("bounded", 1)
    assert res["horizon"] == 142
    assert math.isfinite(res["sup_row_sum"])


def test_probe_n_pow_n_bounded_off_sigma0():
    # a nuclear dual has spectrum Sigma: every point of a 9 x 7 grid
    # farther than 0.1 from Sigma0 is bounded, at the overflow cap 142
    W = WeightFamily(make_alpha("n_pow_n"))
    grid = [complex(x, y) for y in np.linspace(-0.8, 0.8, 7)
            for x in np.linspace(-0.6, 1.6, 9)]
    lams = [lam for lam in grid if dist_sigma0(lam) > 0.1]
    assert len(lams) == 59
    for lam in lams:
        res = equicontinuity_probe(lam, 0.05, W, 1, samples=4)
        assert (res["verdict"], res["l_found"], res["horizon"]) == (
            "bounded", 1, 142)


def _eager_probe(lam, delta, W, k, horizon=10 ** 5, samples=8,
                 l_max=rsv.PROBE_L_MAX):
    """The probe as it was before its row bases were built on demand:
    every sample's base first, a fresh row per step and sample."""
    mus = disc_samples(lam, delta, boundary=samples - 1, interior=0)
    horizon = scan_horizon(W.alpha, horizon, step=k + l_max)
    ns = np.arange(1, horizon + 1)
    alpha_ns = W.alpha.values(ns)
    lw_k = W.step_log_weights(k, alpha_ns)
    strict_ns, strict_alpha = ns[1:], alpha_ns[1:]
    log_n = np.log(strict_ns.astype(float))
    bases = [rsv._strict_row_base(mu, lw_k, log_n) for mu in mus]
    l_found = best = None
    for l in range(k, k + l_max + 1):
        lw_l = W.step_log_weights(l, strict_alpha)
        sup_all = -math.inf
        for base in bases:
            row = lw_l + base
            v = scan_verdict(row, strict_ns)
            sup_all = max(float(row[v.witness_index - 2]), sup_all)
            if v.status != "holds":
                break
        else:
            l_found, best = l, sup_all
            break
        if best is None or sup_all < best:
            best = sup_all
    return {
        "l_found": l_found,
        "sup_row_sum": (math.inf if best is None or best > LOG_DBL_MAX
                        else math.exp(best)),
        "lambda": lam,
        "delta": delta,
        "horizon": horizon,
        "samples": len(mus),
        "verdict": "unbounded_evidence" if l_found is None else "bounded",
    }


# three points inside the closed disc |z - 1/2| <= 1/2 and three outside
_PROBE_LAMBDAS = [0.4 + 0.2j, 0.3 + 0.35j, 0.75 + 0.3j, -0.5, 1.5 - 0.7j,
                  2.0]


@pytest.mark.parametrize("alpha", PRESET_NAMES)
def test_probe_equals_eager_reference(alpha):
    # the step search finds what the loop over every step finds
    W = WeightFamily(make_alpha(alpha))
    for k, l_max, samples, lam in itertools.product(
            [1, 2], [0, 1, 3, 64], [1, 4, 8], _PROBE_LAMBDAS):
        kw = dict(horizon=10 ** 4, samples=samples, l_max=l_max)
        assert repr(equicontinuity_probe(lam, 0.05, W, k, **kw)) \
            == repr(_eager_probe(lam, 0.05, W, k, **kw))


def test_probe_unbounded_sup_is_the_least_over_the_steps():
    # step 3 stops at sample 0, whose sums stay below e^-1.8; steps 4 and
    # 5 stop at sample 2, whose sums reach e^15: the reported supremum
    # is step 3's, read at the end of an earlier stretch of steps
    W = WeightFamily(make_alpha("log_n_plus_1"))
    lam = -0.03266436511408821 - 0.11803864584454082j
    kw = dict(horizon=2000, samples=8, l_max=2)
    res = equicontinuity_probe(lam, 0.1, W, 3, **kw)
    assert repr(res) == repr(_eager_probe(lam, 0.1, W, 3, **kw))
    assert res["l_found"] is None
    assert res["sup_row_sum"] == pytest.approx(math.exp(-1.826), rel=1e-3)


# an alpha that climbs in jumps between plateaus: (plateau length, jump)
_STAIRS = st.lists(st.tuples(st.integers(1, 300), st.floats(0.0, 8.0)),
                   min_size=1, max_size=8)


@given(st.floats(0.01, 3.0), _STAIRS, st.sampled_from(_PROBE_LAMBDAS),
       st.integers(1, 3), st.integers(0, 20), st.integers(1, 8),
       st.integers(2, 2000))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_probe_equals_eager_reference_on_stairs(start, stairs, lam, k, l_max,
                                                samples, horizon):
    values = np.repeat(start + np.cumsum([jump for _, jump in stairs]),
                       [length for length, _ in stairs])
    alpha = make_alpha(lambda n: values[min(n, len(values)) - 1],
                       name="stairs")
    W = WeightFamily(alpha)
    kw = dict(horizon=horizon, samples=samples, l_max=l_max)
    assert repr(equicontinuity_probe(lam, 0.05, W, k, **kw)) \
        == repr(_eager_probe(lam, 0.05, W, k, **kw))


@pytest.mark.parametrize("alpha,lam,built,certified,verdicts", [
    pytest.param("logloglog_n", -0.5, 1, 0, 8, id="logloglog_n--0.5-1"),
    pytest.param("n", 0.4 + 0.2j, 0, 8, 0, id="n-(0.4+0.2j)-0")])
def test_probe_builds_only_the_bases_it_reads(monkeypatch, alpha, lam, built,
                                              certified, verdicts):
    # every step of logloglog_n fails at the first sample, whose head rows
    # still rise at n = HEAD: one dense base is read, at steps 1, 2, 4,
    # ..., 64 and 65 (the loop over the steps read 65).  n's step 1
    # holds at all eight samples by certificate, from no dense base and
    # no prefix past the head
    horizon, sums, prefixes, certs, scans = 10 ** 5, [], [], [], []
    kernel, prefix = rsv.log_cumsum_exp, rsv._product_log_prefix
    certify = rsv._ProbeRows._certified

    def counting_sums(t):
        sums.append(len(t))
        return kernel(t)

    def counting_prefix(mu, ns, out):
        prefixes.append(len(ns))
        return prefix(mu, ns, out)

    def counting_certified(self, i, l):
        log_sup = certify(self, i, l)
        if log_sup is not None:
            certs.append((i, l))
        return log_sup

    def counting_verdict(*args, **kwargs):
        scans.append(args)
        return scan_verdict(*args, **kwargs)

    monkeypatch.setattr(rsv, "log_cumsum_exp", counting_sums)
    monkeypatch.setattr(rsv, "_product_log_prefix", counting_prefix)
    monkeypatch.setattr(rsv._ProbeRows, "_certified", counting_certified)
    monkeypatch.setattr(rsv, "scan_verdict", counting_verdict)
    res = equicontinuity_probe(lam, 0.05, WeightFamily(make_alpha(alpha)), 1,
                               horizon=horizon)
    assert res["samples"] == 8
    # a dense base is the one prefix sum that spans the horizon
    assert (sums.count(horizon), len(certs), len(scans)) == (
        built, certified, verdicts)
    assert max(sums) == horizon if built else max(sums) < horizon
    # and the one resolvent prefix: a certified sample reads P past the
    # head only at its block ends
    assert prefixes.count(horizon) == built
    assert max(prefixes) == horizon if built else max(prefixes) <= rsv.HEAD


# ---------------------------------------------------------------------------
# the probe's certificate: the exact head and the block bounds

# the bench's probe points, inside and outside the closed disc
_BENCH_LAMBDAS = [complex(z) for z in (
    "0.5498+0.2209j", "0.3275+0.2988j", "0.9533+0.1009j", "0.6989+0.4237j",
    "0.1632-0.3025j", "0.4994-0.3519j", "0.4441-0.3245j", "0.9445-0.0790j",
    "-0.6732+0.8540j", "1.1081-0.6852j", "-0.1170+0.7579j", "2.1884-1.0349j",
    "1.6051+1.4751j", "-0.6150-1.3336j", "-1.0815-0.5206j",
    "1.1439-0.5732j")]
# the 59-point grid: 9 x 7 over [-0.6, 1.6] x [-0.8, 0.8], farther than
# 0.1 from Sigma0, at delta = 0.05
_GRID = [lam for lam in (complex(x, y) for y in np.linspace(-0.8, 0.8, 7)
                         for x in np.linspace(-0.6, 1.6, 9))
         if dist_sigma0(lam) > 0.1]
# the set near Sigma0: 1/m + d e^(i theta) and r e^(i theta), at delta
# half the distance to Sigma0; r = 0.02 and 0.05 at theta = 0 are 1/50
# and 1/20, in Sigma0, and left out
_NEAR_SIGMA0 = [z for z in (
    [1.0 / m + d * cmath.exp(2j * math.pi * t / 6) for m in (1, 2, 3, 5, 10)
     for d in (0.01, 0.03) for t in range(6)]
    + [r * cmath.exp(2j * math.pi * t / 5) for r in (0.02, 0.05)
       for t in range(5)]) if dist_sigma0(z) > 0]
_LEAST_CERTIFIED = 10 * rsv.HEAD


def _uncertified(report):
    """``report()`` with the certificate forced off."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rsv._ProbeRows, "_certified", lambda self, i, l: None)
        return report()


def _assert_same_reports(W, lams, radius, **kw):
    certified = [repr(equicontinuity_probe(lam, radius(lam), W, 1, **kw))
                 for lam in lams]
    assert certified == _uncertified(lambda: [
        repr(equicontinuity_probe(lam, radius(lam), W, 1, **kw))
        for lam in lams])


def test_certificate_point_sets():
    assert (len(_BENCH_LAMBDAS), len(_GRID), len(_NEAR_SIGMA0)) == (
        16, 59, 68)


@pytest.mark.parametrize("alpha", PRESET_NAMES)
def test_certified_probe_is_the_dense_one_at_bench_points(alpha):
    _assert_same_reports(WeightFamily(make_alpha(alpha)),
                         _BENCH_LAMBDAS, lambda lam: 0.05)


@pytest.mark.parametrize("alpha", PRESET_NAMES)
def test_certified_probe_is_the_dense_one_on_the_grids(alpha):
    # at the least horizon with a certificate, whose last decade starts
    # right past the head, on four samples a disc
    W = WeightFamily(make_alpha(alpha))
    _assert_same_reports(W, _GRID, lambda lam: 0.05,
                         horizon=_LEAST_CERTIFIED, samples=4)
    _assert_same_reports(W, _NEAR_SIGMA0, lambda lam: 0.5 * dist_sigma0(lam),
                         horizon=_LEAST_CERTIFIED, samples=4)


@functools.lru_cache(maxsize=None)
def _log_factorial(n):
    """log n! at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return mpmath.loggamma(n + 1)


def _oracle_prefix(mu, ns):
    """P(n) = sum_{j<=n} log|1 - w/j|, w = 1/mu, at 40 digits, as
    Re loggamma(n + 1 - w) - Re loggamma(1 - w) - loggamma(n + 1)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        w = 1 / mpmath.mpc(mu.real, mu.imag)
        start = mpmath.re(mpmath.loggamma(1 - w))
        return [float(mpmath.re(mpmath.loggamma(n + 1 - w)) - start
                      - _log_factorial(n)) for n in ns.tolist()]


# P turns at 1/(2 Re mu): past the head and before 1e5 on these discs
_TURNING = [5e-5 + 0.3j, 2e-5 - 0.5j]


@pytest.mark.parametrize("lams,radius,samples", [
    pytest.param(_BENCH_LAMBDAS + [-0.5, 2.0], lambda lam: 0.05, 8,
                 id="bench"),
    pytest.param(_NEAR_SIGMA0, lambda lam: 0.5 * dist_sigma0(lam), 4,
                 id="near-sigma0"),
    pytest.param(_TURNING, lambda lam: 1e-5, 8, id="turning")])
def test_prefix_bracket_holds_the_true_prefix(lams, radius, samples):
    # at every block end up to 1e5, and at the indices where P turns
    ends = rsv._block_ends(rsv.HEAD, 10 ** 5)
    widest = 0.0
    for lam in lams:
        for mu in disc_samples(lam, radius(lam), boundary=samples - 1,
                               interior=0):
            p_head = product_log_prefix(mu, rsv.HEAD)
            pts, lo, hi = rsv._prefix_bracket(mu, ends, p_head[-1],
                                              np.abs(p_head).max())
            assert np.isin(ends, pts).all()
            if lam in _TURNING:
                assert len(pts) > len(ends)
            true = np.array(_oracle_prefix(mu, pts))
            assert np.all((lo <= true) & (true <= hi)), mu
            widest = max(widest, float(np.max(hi - lo)))
    assert widest <= 1e-6


def test_probe_without_a_bracket_is_the_dense_one():
    # |1/mu| > HEAD/8 at every sample: the series is not tried, and
    # every verdict comes from the dense rows
    W, lam, delta = WeightFamily(make_alpha("n")), 0.001j, 0.0005
    mus = disc_samples(lam, delta, boundary=7, interior=0)
    assert min(abs(1 / mu) for mu in mus) > rsv.HEAD / 8
    scan = rsv._ProbeRows(W, 1, 1 + rsv.PROBE_L_MAX, mus, 10 ** 5)
    for i, mu in enumerate(mus):
        assert rsv._prefix_bracket(mu, scan.ends, *scan._head(i)[2:]) is None
        assert scan._certified(i, 1) is None
    report = repr(equicontinuity_probe(lam, delta, W, 1))
    assert report == _uncertified(
        lambda: repr(equicontinuity_probe(lam, delta, W, 1)))


def _assert_probe_certificate(W, lam, k, horizon, steps, delta=0.05):
    """The head rows are the dense rows bit for bit, and each block bound
    is at least every dense row in its block, up to the margin."""
    mus = disc_samples(lam, delta, boundary=3, interior=0)
    horizon = scan_horizon(W.alpha, horizon, step=k + rsv.PROBE_L_MAX)
    scan = rsv._ProbeRows(W, k, k + rsv.PROBE_L_MAX, mus, horizon)
    assert scan.heads is not None
    for i in range(len(mus)):
        for l in steps:
            dense = scan._rows(i, l)
            head = W.step_log_weights(l, scan.alpha[:rsv.HEAD - 1])
            head += scan._head(i)[1]
            assert head.tobytes() == dense[:rsv.HEAD - 1].tobytes()
            bound, margin = scan._bounds(i, l)
            # the rows n in (a, b] sit at a - 1..b - 2
            block_max = np.maximum.reduceat(dense, scan.ends[:-1] - 1)
            assert np.all(block_max <= bound + margin), (i, l)


@pytest.mark.parametrize("alpha", [a for a in PRESET_NAMES
                                   if a != "n_pow_n"])
@pytest.mark.parametrize("lam", [0.4 + 0.2j, 0.9533 + 0.1009j, -0.5, 2.0])
def test_probe_certificate_rows_on_presets(alpha, lam):
    # n_pow_n stops at n = 142, short of any certificate
    _assert_probe_certificate(WeightFamily(make_alpha(alpha)), lam, 1,
                              10 ** 5, (1, 2, 9, 65))


@pytest.mark.parametrize("alpha", [a for a in PRESET_NAMES
                                   if a != "n_pow_n"])
def test_probe_certificate_where_the_prefix_turns(alpha):
    # the block holding P's turning point is bounded by P there
    W = WeightFamily(make_alpha(alpha))
    for lam in _TURNING:
        _assert_probe_certificate(W, lam, 1, 10 ** 5, (1, 2, 65),
                                  delta=1e-5)
    _assert_same_reports(W, _TURNING, lambda lam: 1e-5)


@st.composite
def _probe_alpha_tables(draw):
    """Non-decreasing alpha tables past 10 HEAD: log or power growth with
    plateaus, maybe a late jump and maybe a NaN past the head."""
    top = draw(st.integers(_LEAST_CERTIFIED, 12 * 10 ** 4))
    growth = draw(st.sampled_from(["log", "pow"]))
    scale = draw(st.floats(0.05, 4.0))
    plateaus = draw(st.lists(st.tuples(st.integers(1, top),
                                       st.integers(1, top // 4)),
                             max_size=3))
    jump = draw(st.one_of(st.none(), st.tuples(
        st.integers(top - top // 50, top), st.floats(0.0, 20.0))))
    nan_at = draw(st.one_of(st.none(),
                            st.integers(rsv.HEAD + 1, top - 1)))
    return top, growth, scale, plateaus, jump, nan_at


def _table_family(top, growth, scale, plateaus, jump, nan_at):
    ns = np.arange(1, top + 1, dtype=float)
    table = scale * (np.log1p(ns) if growth == "log" else ns ** 0.3)
    for lo, length in plateaus:
        table[lo - 1:lo - 1 + length] = table[lo - 1]
    if jump:
        table[jump[0] - 1:] += jump[1]
    log_table = np.log(table)
    if nan_at:
        log_table[nan_at - 1] = np.nan
    return WeightFamily(AlphaSequence(
        "table", lambda n: math.exp(log_table[n - 1]),
        vec_log_fn=lambda ns: log_table[ns - 1], max_index=top))


@example((10 ** 5, "log", 0.05, [], (10 ** 5 - 5, 12.0), None),
         0.4 + 0.2j, 1, 8, 64)
@example((10 ** 5, "pow", 1.0, [(5000, 20000)], None, 70001), -0.5, 1, 8,
         64)
@given(_probe_alpha_tables(), st.sampled_from(_BENCH_LAMBDAS + [-0.5]),
       st.integers(1, 3), st.integers(1, 8), st.integers(0, 20))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_certified_probe_is_the_dense_one_on_alpha_tables(
        table, lam, k, samples, l_max):
    # a jump in the last block must send the sample to its dense rows,
    # and a NaN inside a block, which no bound sees, is refused with the
    # evaluation of alpha
    W = _table_family(*table)
    kw = dict(horizon=table[0], samples=samples, l_max=l_max)
    if table[-1] is not None:
        with pytest.raises(ValueError, match=f"alpha_{table[-1]} = nan"):
            equicontinuity_probe(lam, 0.05, W, k, **kw)
        return
    _assert_probe_certificate(W, lam, k, table[0], (k, k + 1, k + l_max))
    certified = repr(equicontinuity_probe(lam, 0.05, W, k, **kw))
    assert certified == _uncertified(
        lambda: repr(equicontinuity_probe(lam, 0.05, W, k, **kw)))


@pytest.mark.parametrize("alpha,lam,most", [
    ("n", 0.4 + 0.2j, 4.0), ("logloglog_n", -0.5, 16.8),
    ("loglog_n", 0.4 + 0.2j, 16.8), ("sqrt_n", 0.9533 + 0.1009j, 4.0)])
def test_probe_memory_peak(alpha, lam, most):
    # the traced peak of a probe at h = 1e5, in horizon-length arrays:
    # alpha and its evaluation where every sample holds by certificate
    # (n, sqrt_n: 3.0 each); the dense scan's arrays and two buffers
    # the samples share, where one does not, and a dense base kept for
    # each sample the certificate cannot decide (every sample kept one
    # before: 16.8)
    W, horizon = WeightFamily(make_alpha(alpha)), 10 ** 5
    tracemalloc.start()
    try:
        equicontinuity_probe(lam, 0.05, W, 1, horizon=horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= most * 8 * horizon


@pytest.mark.parametrize("lo,hi", [(1, 1), (1, 65), (3, 10), (5, 4)])
def test_first_step_finds_the_first_holding_step(lo, hi):
    for first in range(lo - 1, hi + 2):
        asked = []

        def holds(l):
            asked.append(l)
            return l >= first
        want = max(first, lo) if max(first, lo) <= hi else None
        assert _first_step(holds, lo, hi) == want
        assert all(lo <= l <= hi for l in asked)
        assert len(asked) <= 2 * max(hi - lo + 1, 1).bit_length() + 1


def test_probe_rejects_disc_touching_sigma0():
    W = WeightFamily(make_alpha("n"))
    with pytest.raises(ValueError):
        equicontinuity_probe(0.5, 0.6, W, k=1, horizon=100)


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan])
def test_probe_rejects_non_positive_radius(delta):
    W = WeightFamily(make_alpha("n"))
    with pytest.raises(ValueError, match="radius"):
        equicontinuity_probe(0.4 + 0.2j, delta, W, k=1, horizon=100)


def test_norm_bound_outside_disc():
    W = WeightFamily(make_alpha("n"))
    res = resolvent_norm_bound_check(2.0 + 0.5j, W, k=1, horizon=2000)
    assert res["bounded"]
    assert res["worst_ratio"] > 0


def test_norm_bound_rejects_disc_reaching_the_closed_disc():
    # B(0.5+0.6i, 0.3) misses Sigma0 (dist 0.6) but reaches
    # |z - 1/2| <= 1/2 (gap 0.1), where a(mu) >= 1 and no bound is stated
    with pytest.raises(ValueError, match=re.escape("|z - 1/2| <= 1/2")):
        resolvent_norm_bound_check(0.5 + 0.6j, _W_N, 1, horizon=100,
                                   delta=0.3, samples=8)


@pytest.mark.parametrize("lam", [2.0, -1.0, 1.5 - 0.7j, 0.5 + 0.6j])
def test_norm_bound_default_radius_keeps_every_sample(lam):
    res = resolvent_norm_bound_check(lam, _W_N, 1, horizon=100, samples=8)
    assert len(res["samples"]) == 8
    assert all(a_fn(row["mu"]) < 1.0 for row in res["samples"])


def test_norm_bound_n_pow_n_finite_at_the_overflow_cap():
    # alpha_n of n_pow_n overflows double from n = 144, so the norm bound
    # at k = 1 scans n <= 143, where every estimate is finite
    W = WeightFamily(make_alpha("n_pow_n"))
    res = resolvent_norm_bound_check(2.0, W, 1, horizon=500)
    assert res["horizon"] == 143
    assert all(math.isfinite(row["norm_estimate"]) for row in res["samples"])
    assert math.isfinite(res["worst_ratio"])
    assert res["bounded"] is True


@pytest.mark.parametrize("mu", [0.4 + 0.2j, -1.0815 - 0.5206j,
                                3e-150 + 1e-150j, 1e150 - 2e150j])
def test_inverse_square_modulus_keeps_its_bits_in_range(mu):
    assert rsv._inverse_square_modulus(mu) == 1.0 / (mu.real ** 2
                                                     + mu.imag ** 2)


def test_inverse_square_modulus_past_double_range():
    # the squares overflow: rho is scaled, and subnormal or 0
    assert rsv._inverse_square_modulus(complex(1e154, 1e154)) == \
        pytest.approx(0.5e-308, rel=1e-12)
    assert rsv._inverse_square_modulus(2e200 + 1e200j) == 0.0
    # rho itself overflows: refused by name
    for mu in (-2e-170 + 0j, complex(1e-155, 1e-155)):
        with pytest.raises(ValueError, match=re.escape(
                f"1/|mu|^2 overflows at mu = {mu}")):
            rsv._inverse_square_modulus(mu)


def test_norm_bound_far_from_sigma0():
    # |mu|^2 overflows double: the strict part vanishes
    res = resolvent_norm_bound_check(2e200, WeightFamily(make_alpha("n")),
                                     1, horizon=100)
    assert res["bounded"] is True
    assert all(row["norm_estimate"] > 0 for row in res["samples"])


def test_norm_bound_past_double_range_is_unbounded(monkeypatch):
    # an off-diagonal log above LOG_DBL_MAX is an inf estimate, not a
    # clipped finite one; no preset reaches this
    monkeypatch.setattr(rsv, "_strict_row_base",
                        lambda mu, lw_k, log_n: LOG_DBL_MAX + 1.0 - lw_k[1:])
    res = resolvent_norm_bound_check(2.0, _W_N, 1, horizon=100)
    assert all(row["norm_estimate"] == math.inf for row in res["samples"])
    assert res["worst_ratio"] == math.inf
    assert res["bounded"] is False


def test_norm_bound_rejects_disc_interior():
    W = WeightFamily(make_alpha("n"))
    with pytest.raises(ValueError):
        resolvent_norm_bound_check(0.4 + 0.1j, W, k=1)


@given(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5),
       st.integers(min_value=2, max_value=200))
@settings(max_examples=100, deadline=None)
def test_sandwich_property_random_points(x, y, N):
    lam = complex(x, y)
    if dist_sigma0(lam) <= 0.05 or abs(lam) > 3.0:
        return
    a = a_fn(lam)
    prod_log = product_log(lam, N)
    hi = math.log(v_fn(lam)) - a * math.log(N)
    assert prod_log <= hi + math.log(1.001)
    u = u_fn(lam)
    if u > 0.0:
        lo = math.log(u) - a * math.log(N)
        assert prod_log >= lo - math.log(1.001)


@pytest.mark.parametrize("arg, value", [("k", 0), ("k", -1), ("samples", 0)])
def test_norm_check_refuses_steps_and_samples_it_cannot_weigh(arg, value):
    # no step of the family below k = 1, and no sample, is no estimate
    args = {"k": 1, "samples": 4, arg: value}
    with pytest.raises(ValueError, match=f"^{arg} must be >= 1, got {value}$"):
        resolvent_norm_bound_check(2.0, WeightFamily(make_alpha("n")),
                                   horizon=100, **args)


@pytest.mark.parametrize("N_list", [[], [0, 10], [10, -3]])
def test_sandwich_check_refuses_a_truncation_below_1(N_list):
    # no N, or a product of no factor, bounds nothing
    with pytest.raises(ValueError, match="^N_list must be "):
        sandwich_check(2.0, 0.1, N_list)


@pytest.mark.parametrize("arg, value", [("k", 0), ("k", -1), ("l_max", -1),
                                        ("samples", 0)])
def test_probe_refuses_steps_and_samples_it_cannot_search(arg, value):
    # no step or no sample to search is no evidence either way
    args = {"k": 1, "l_max": 4, "samples": 4, arg: value}
    with pytest.raises(ValueError, match=f"^{arg} must be >= "):
        equicontinuity_probe(2.0, 0.05, WeightFamily(make_alpha("n")),
                             horizon=100, **args)
