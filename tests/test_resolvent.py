import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesarolab import resolvent as rsv
from cesarolab.resolvent import (a_fn, disc_samples, dist_sigma0,
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


def test_sandwich_single_lambda_all_scales():
    lam = 0.4 + 0.2j
    a = a_fn(lam)
    u, v = u_fn(lam), v_fn(lam)
    for N in (10, 100, 1000, 10000):
        prod = math.exp(product_log(lam, N))
        assert prod <= v / N ** a * 1.001
        assert prod >= u / N ** a / 1.001


def test_resolvent_entry_oracle():
    # e_{21}(-1) = 1/(2 (1+1)(1+1/2)) = 1/6
    dec = resolvent_entries(-1.0)
    e21 = dec.strict_part.entry(2, 1)
    assert e21 == pytest.approx(1.0 / 6.0)
    # first row of the strict part vanishes
    assert dec.strict_part.entry(1, 1) == 0.0
    # diagonal part
    assert dec.diag_part.entry(3, 3) == pytest.approx(1.0 / (1.0 / 3.0 + 1.0))


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


def test_probe_stops_at_nan_rows(monkeypatch):
    # alpha_n overflows from n = 144 for n_pow_n, so the rows there are
    # NaN at every step l: the first step decides the search
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return scan_verdict(*args, **kwargs)

    monkeypatch.setattr(rsv, "scan_verdict", counting)
    W = WeightFamily(make_alpha("n_pow_n"))
    res = equicontinuity_probe(2.0, 0.05, W, k=1, horizon=1000)
    assert len(calls) == 1
    assert (res["verdict"], res["l_found"]) == ("unbounded_evidence", None)
    assert math.isnan(res["sup_row_sum"])


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
