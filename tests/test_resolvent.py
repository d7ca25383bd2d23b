import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesarolab import resolvent as rsv
from cesarolab.operators import TriangularOperator
from cesarolab.resolvent import (_log_slacks, a_fn, disc_samples, dist_sigma0,
                                 equicontinuity_probe, product_log,
                                 product_log_prefix, resolvent_entries,
                                 resolvent_norm_bound_check, sandwich_bounds,
                                 sandwich_check, u_fn, v_fn)
from cesarolab.weights import WeightFamily, make_alpha, scan_verdict


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
    assert u_fn(lam) == (math.exp(arg) if arg > -745.0 else 0.0)


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
# the smallest count each call turns into a negative disc count
_BAD_COUNT = {"sandwich_check": -1, "equicontinuity_probe": 0,
              "resolvent_norm_bound_check": 0}
_RADIUS = "disc radius must be positive, got "
_DISC_CASES = [
    *((name, delta, 4, message) for name in sorted(_DISC_CALLS)
      for delta, message in [
          (0.0, _RADIUS + "0.0"),
          (-0.1, _RADIUS + "-0.1"),
          (math.nan, _RADIUS + "nan"),
          # dist_sigma0(2) = 1: this disc passes through 0 and every 1/n
          (2.0, "closed disc B(2.0, 2.0) touches Sigma0 (dist = 1)")]),
    *((name, 0.1, samples, "disc sample counts must be >= 0")
      for name, samples in sorted(_BAD_COUNT.items())),
]


@pytest.mark.parametrize("name,delta,samples,message", _DISC_CASES)
def test_every_disc_obeys_one_rule(name, delta, samples, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _DISC_CALLS[name](delta, samples)


def test_disc_samples_rejects_negative_counts():
    with pytest.raises(ValueError, match="counts"):
        disc_samples(2.0, 0.1, boundary=-1)
    with pytest.raises(ValueError, match="counts"):
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


def test_resolvent_rejects_sigma0():
    with pytest.raises(ValueError):
        resolvent_entries(0.0)
    with pytest.raises(ValueError):
        resolvent_entries(1.0 / 5.0)


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
