import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cesarolab.weights import (AlphaSequence, GrowthVerdict, MonotonicityError,
                               PRESET_NAMES, WeightFamily, check_delta_criterion,
                               check_lemma22, check_loglog, check_nuclear,
                               check_shift_stable, make_alpha,
                               make_alpha_from_csv, scan_verdict)


def test_preset_names_cover_contract():
    for name in ("n", "log_n_plus_1", "log_n", "sqrt_n", "n_pow_n",
                 "loglog_n", "logloglog_n", "appendix_5_3"):
        assert name in PRESET_NAMES


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_positive_and_increasing(name):
    alpha = make_alpha(name)
    vals = [alpha.value(n) for n in range(1, 60)]
    assert all(v > 0 for v in vals)
    finite = [v for v in vals if math.isfinite(v)]
    assert all(b >= a for a, b in zip(finite, finite[1:]))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_vectorized_logs_match_scalar(name):
    alpha = make_alpha(name)
    ns = np.array([1, 2, 3, 10, 50])
    vec = alpha.log_values(ns)
    for i, n in enumerate(ns):
        assert vec[i] == pytest.approx(math.log(alpha.value(n)), rel=1e-12)


def test_decreasing_generator_rejected():
    with pytest.raises(MonotonicityError):
        make_alpha(lambda n: 10.0 - n, name="bad")


@pytest.mark.parametrize("fn", [
    lambda n: math.inf if n == 2 else float(n),  # inf, then finite
    lambda n: 10.0 - n,
])
@pytest.mark.parametrize("order", [(1, 2, 3), (3, 2, 1)])
def test_monotonicity_guard_on_values(fn, order):
    # the guard compares values, inf as the largest, against the
    # neighbour below and above
    alpha = AlphaSequence("bad", fn)
    with pytest.raises(MonotonicityError):
        for n in order:
            alpha.value(n)


@pytest.mark.parametrize("order", [range(1, 301), range(300, 0, -1)])
def test_monotonicity_guard_accepts_overflow_to_inf(order):
    alpha = make_alpha("n_pow_n")
    vals = {n: alpha.value(n) for n in order}
    assert vals[143] == 143.0 ** 143 and vals[144] == math.inf
    assert all(vals[n] == math.inf for n in range(144, 301))
    finite = AlphaSequence("jump", lambda n: float(n) if n < 3 else math.inf)
    assert [finite.value(n) for n in range(1, 6)] == [1.0, 2.0] + [math.inf] * 3


def test_nonpositive_generator_rejected():
    with pytest.raises(ValueError):
        make_alpha(lambda n: float(n - 1), name="zero_start")


def test_weight_family_log_weights():
    W = WeightFamily(make_alpha("n"))
    # v_k(n) = e^{-k n} for the linear preset with base s_k = e^k
    assert W.log_weight(2, 3) == pytest.approx(-6.0)
    ns = np.arange(1, 6)
    np.testing.assert_allclose(W.log_weights(3, ns), -3.0 * ns)


@pytest.mark.parametrize("name", ["n", "sqrt_n", "n_pow_n", "loglog_n"])
def test_step_log_weights_reuse_alpha_values(name):
    # a scan over steps evaluates alpha once and only rescales it
    W = WeightFamily(make_alpha(name))
    ns = np.arange(1, 400)
    alpha_ns = W.alpha.values(ns)
    for k in (1, 2, 7):
        np.testing.assert_array_equal(W.step_log_weights(k, alpha_ns),
                                      W.log_weights(k, ns))


def test_weights_decrease_in_k():
    W = WeightFamily(make_alpha("sqrt_n"))
    for n in (1, 4, 25):
        assert W.log_weight(2, n) < W.log_weight(1, n)


# predicate oracles, frozen from independent closed-form computation

def test_nuclear_linear_sup_at_n3():
    # sup log(n)/n is attained at n = 3 with value log(3)/3
    v = check_nuclear(make_alpha("n"))
    assert v.status == "holds"
    assert v.sup_value == pytest.approx(math.log(3.0) / 3.0, rel=1e-9)
    assert v.witness_index == 3


def test_nuclear_declared_flags():
    assert check_nuclear(make_alpha("loglog_n")).status == "fails"
    assert check_nuclear(make_alpha("sqrt_n")).status == "holds"
    assert check_nuclear(make_alpha("n_pow_n")).status == "holds"


def test_shift_stable_linear():
    # sup alpha_{n+1}/alpha_n = 2 at n = 1
    v = check_shift_stable(make_alpha("n"))
    assert v.status == "holds"
    assert v.sup_value == pytest.approx(2.0, rel=1e-9)
    assert v.witness_index == 1


def test_shift_stable_n_pow_n_fails():
    assert check_shift_stable(make_alpha("n_pow_n")).status == "fails"


def test_delta_criterion():
    v = check_delta_criterion(make_alpha("n"))
    assert v.status == "holds"
    assert v.sup_value == pytest.approx(1.0, rel=1e-9)
    assert check_delta_criterion(make_alpha("log_n")).status == "fails"


def test_loglog_dichotomy():
    assert check_loglog(make_alpha("loglog_n")).status == "holds"
    assert check_loglog(make_alpha("logloglog_n")).status == "fails"


def test_lemma22_linear_gamma1():
    # n e^{-M n} is bounded already at M = 1
    m, v = check_lemma22(make_alpha("n"), gamma=1.0)
    assert m == 1
    assert v.status == "holds"


def test_lemma22_needs_larger_m():
    # n^5 e^{-M log n} = n^{5-M}: the scanned supremum at horizon 1e5
    # only drops under the bound once M >= 3, and M = 1 never qualifies
    alpha = make_alpha("log_n")
    m, v = check_lemma22(alpha, gamma=5.0)
    assert m is not None and m >= 3
    assert v.status == "holds"


def test_lemma22_rejects_bad_gamma():
    with pytest.raises(ValueError):
        check_lemma22(make_alpha("n"), gamma=0.0)


# appendix staircase

def test_appendix_block_boundaries():
    alpha = make_alpha("appendix_5_3")
    from cesarolab.finite_type import example53_j
    assert example53_j(1) == 1
    assert example53_j(2) == 4
    assert example53_j(3) == 96
    assert example53_j(4) == 7077888
    # beta at the start of block 3 is 3 * 96^3
    assert alpha.value(96) == pytest.approx(
        math.log(3 * 96 ** 3 + 3.0 - 1.0 / 97.0))


def test_appendix_strictly_increasing_over_first_blocks():
    alpha = make_alpha("appendix_5_3")
    vals = [alpha.value(n) for n in range(1, 300)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_appendix_vectorized_matches_scalar():
    alpha = make_alpha("appendix_5_3")
    ns = np.array([1, 3, 4, 95, 96, 97, 10 ** 5, 7077887, 7077888])
    vec = alpha.log_values(ns)
    for i, n in enumerate(ns):
        assert vec[i] == pytest.approx(math.log(alpha.value(n)), rel=1e-9)


# CSV alpha interface

def test_csv_alpha_roundtrip(tmp_path):
    path = tmp_path / "alpha.csv"
    path.write_text("".join(f"{n},{n * 1.5}\n" for n in range(1, 21)))
    alpha = make_alpha_from_csv(str(path))
    assert alpha.value(7) == pytest.approx(10.5)
    assert alpha.max_index == 20
    with pytest.raises(IndexError):
        alpha.value(21)
    # horizon of predicates capped at the file length
    v = check_nuclear(alpha, horizon=10 ** 5)
    assert v.horizon == 20
    assert v.status == "inconclusive"


def test_csv_alpha_gap_rejected(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("1,1.0\n3,3.0\n")
    with pytest.raises(ValueError):
        make_alpha_from_csv(str(path))


# property tests

@given(st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=5,
                max_size=30))
@settings(max_examples=50, deadline=None)
def test_predicates_total_on_random_increasing(increments):
    vals = np.cumsum([0.5] + increments)
    alpha = AlphaSequence("rand", value_fn=lambda n: float(vals[n - 1]),
                          max_index=len(vals))
    for check in (check_nuclear, check_shift_stable, check_delta_criterion,
                  check_loglog):
        v = check(alpha, horizon=len(vals))
        assert isinstance(v, GrowthVerdict)
        assert v.status in ("holds", "fails", "inconclusive")
        assert 1 <= v.witness_index <= len(vals)


@given(st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_weight_monotone_in_k(n, k):
    W = WeightFamily(make_alpha("n"))
    assert W.log_weight(k + 1, n) < W.log_weight(k, n)


# the growth-verdict rule against the two copies it replaced

def reference_resolve(log_ratios, ns, declared, horizon, threshold=1e3):
    """Turn a scan of log-ratios into a GrowthVerdict.

    Decision rule: a declared flag wins outright; otherwise the status is
    ``fails`` only when the supremum exceeds the divergence threshold AND
    the running supremum still grew in the last decade of the scan;
    everything else is ``inconclusive`` evidence.
    """
    i = int(np.argmax(log_ratios))
    with np.errstate(over="ignore"):
        sup = float(np.exp(log_ratios[i]))
    witness = int(ns[i])
    if declared is True:
        return GrowthVerdict("holds", horizon, sup, witness, True)
    if declared is False:
        return GrowthVerdict("fails", horizon, sup, witness, True)
    cut = max(horizon // 10, int(ns[0]))
    early = log_ratios[ns <= cut]
    late = log_ratios[ns > cut]
    grew = late.size > 0 and (early.size == 0
                              or late.max() > early.max() + 1e-9)
    if sup > threshold and grew:
        return GrowthVerdict("fails", horizon, sup, witness, False)
    return GrowthVerdict("inconclusive", horizon, sup, witness, False)


def reference_bounded_verdict(log_ratios, ns, horizon,
                              threshold=math.log(1e3)):
    """Boundedness decision shared by the step criteria.

    bounded (holds) when the supremum stays under the divergence
    threshold and did not grow over the last decade of the scan;
    divergent (fails) when it crossed the threshold while still growing;
    inconclusive otherwise.
    """
    i = int(np.argmax(log_ratios))
    with np.errstate(over="ignore"):
        sup = float(np.exp(log_ratios[i]))
    cut = max(horizon // 10, int(ns[0]))
    early = log_ratios[ns <= cut]
    late = log_ratios[ns > cut]
    grew = late.size > 0 and (early.size == 0
                              or late.max() > early.max() + 1e-9)
    if log_ratios[i] <= threshold and not grew:
        status = "holds"
    elif log_ratios[i] > threshold and grew:
        status = "fails"
    else:
        status = "inconclusive"
    return GrowthVerdict(status, horizon, sup, int(ns[i]), False)


_LOG_T = math.log(1e3)
_SPECIAL = [math.nan, math.inf, -math.inf, _LOG_T,
            math.nextafter(_LOG_T, -math.inf), math.nextafter(_LOG_T, math.inf),
            709.0, 709.5, 710.0, 1.0, 1.0 + 1e-9, 1.0 + 2e-9]
_log_entries = st.one_of(st.sampled_from(_SPECIAL),
                         st.floats(-20.0, 20.0), st.floats(-800.0, 800.0))


@st.composite
def _scans(draw):
    """Increasing indices from 1, 2, 3 or some m, mostly consecutive (a
    sparse tail as in the finite-type scans), with log values."""
    start = draw(st.one_of(st.sampled_from([1, 2, 3]),
                           st.integers(4, 500)))
    steps = draw(st.lists(st.sampled_from([1, 1, 1, 1, 1, 7, 1000]),
                          max_size=60))
    ns = start + np.cumsum([0] + steps)
    vals = draw(st.lists(_log_entries, min_size=ns.size, max_size=ns.size))
    return np.array(vals, dtype=float), ns


def _same_verdict(new, ref):
    assert (new.status, new.horizon, new.witness_index,
            new.declared_override) == (ref.status, ref.horizon,
                                       ref.witness_index,
                                       ref.declared_override)
    cap = float(np.exp(709.0))
    if ref.sup_value > cap:
        # one difference: the supremum is capped at e^709
        assert new.sup_value == cap
    elif math.isnan(ref.sup_value):
        assert math.isnan(new.sup_value)
    else:
        assert new.sup_value == ref.sup_value


@given(_scans(), st.sampled_from([True, False, None]))
@settings(max_examples=400, deadline=None)
def test_scan_verdict_matches_both_replaced_rules(scan, declared):
    log_vals, ns = scan
    horizon = int(ns[-1])
    v = scan_verdict(log_vals, ns, declared, grant_holds=False)
    _same_verdict(v, reference_resolve(log_vals, ns, declared, horizon))
    if declared is None:
        v = scan_verdict(log_vals, ns)
        ref = reference_bounded_verdict(log_vals, ns, horizon)
        if ns.size == 1:
            # the other difference: a one-index scan has an empty last
            # decade, no evidence that the supremum did not grow, so it
            # is inconclusive where the replaced rule granted holds
            assert v.status == "inconclusive"
            ref = dataclasses.replace(ref, status="inconclusive")
        _same_verdict(v, ref)
        if math.isnan(v.sup_value):
            assert v.status == "inconclusive"


@pytest.mark.parametrize("top", [math.nextafter(_LOG_T, -math.inf), _LOG_T,
                                 math.nextafter(_LOG_T, math.inf)])
@pytest.mark.parametrize("n_scan", [2, 9, 19, 100])
def test_scan_verdict_threshold_is_log_1e3(top, n_scan):
    # a scan whose supremum sits on the last index, so it grew; the
    # log threshold cuts where reference_resolve's linear 1e3 does
    ns = np.arange(1, n_scan + 1)
    log_vals = np.zeros(n_scan)
    log_vals[-1] = top
    v = scan_verdict(log_vals, ns, grant_holds=False)
    assert v.status == ("fails" if top > _LOG_T else "inconclusive")
    _same_verdict(v, reference_resolve(log_vals, ns, None, n_scan))
    _same_verdict(scan_verdict(log_vals, ns),
                  reference_bounded_verdict(log_vals, ns, n_scan))


@pytest.mark.parametrize("top", [math.nextafter(_LOG_T, -math.inf), _LOG_T,
                                 math.nextafter(_LOG_T, math.inf)])
def test_scan_verdict_holds_up_to_the_threshold(top):
    # the supremum sits on the first index, so nothing grew
    ns = np.arange(1, 31)
    log_vals = np.zeros(30)
    log_vals[0] = top
    v = scan_verdict(log_vals, ns)
    assert v.status == ("holds" if top <= _LOG_T else "inconclusive")
    _same_verdict(v, reference_bounded_verdict(log_vals, ns, 30))


@pytest.mark.parametrize("late,grew", [(1.0 + 0.5e-9, False),
                                       (1.0 + 2e-9, True)])
def test_scan_verdict_growth_margin(late, grew):
    # the last decade must beat the earlier scan by more than 1e-9
    ns = np.arange(1, 31)
    log_vals = np.full(30, 1.0)
    log_vals[-1] = late
    v = scan_verdict(log_vals, ns)
    assert v.status == ("inconclusive" if grew else "holds")
    _same_verdict(v, reference_bounded_verdict(log_vals, ns, 30))


def test_scan_verdict_nan_is_never_conclusive():
    ns = np.arange(1, 101)
    log_vals = np.zeros(100)
    log_vals[50] = math.nan
    log_vals[90] = 50.0          # a late growth beyond the threshold
    v = scan_verdict(log_vals, ns)
    assert v.status == "inconclusive" and math.isnan(v.sup_value)
    assert v.witness_index == 51
    # a declared flag still decides, with the NaN evidence attached
    v = scan_verdict(log_vals, ns, declared=True)
    assert v.status == "holds" and v.declared_override


def test_scan_verdict_empty_scan_rejected():
    with pytest.raises(ValueError, match="empty scan"):
        scan_verdict(np.array([]), np.arange(2, 2))


# The hand-written heads of the three ramped presets that weights._ramped
# replaced, kept verbatim as the reference its presets must reproduce
# bit for bit.

_LOGLOG_FIRST_N = 27  # 3**3, first index where log(log(n)) > 1
_LOGLOG_FIRST_VAL = math.log(math.log(_LOGLOG_FIRST_N))
_L3_FIRST_N = 3 ** 27  # 7 625 597 484 987
_L3_FIRST_VAL = math.log(math.log(math.log(_L3_FIRST_N)))


def _ramp(n, n_first, v_first):
    """Strictly increasing padding below the first defined value.

    The head of the sequence is free as long as it stays positive and
    strictly increasing, so a linear ramp from just above 1 (or above 0
    when the first defined value is itself <= 1) up to v_first is used.
    """
    if v_first > 1.0:
        return 1.0 + (v_first - 1.0) * n / n_first
    return v_first * n / n_first


def _loglog_val(n):
    if n >= _LOGLOG_FIRST_N:
        return math.log(math.log(n))
    return _ramp(n, _LOGLOG_FIRST_N, _LOGLOG_FIRST_VAL)


def _loglog_vec(ns):
    ns = np.asarray(ns, dtype=float)
    out = np.where(ns >= _LOGLOG_FIRST_N,
                   np.log(np.log(np.maximum(ns, 3.0))),
                   _ramp(ns, _LOGLOG_FIRST_N, _LOGLOG_FIRST_VAL))
    return np.log(out)


def _l3_val(n):
    if n >= _L3_FIRST_N:
        return math.log(math.log(math.log(n)))
    return _ramp(n, _L3_FIRST_N, _L3_FIRST_VAL)


def _l3_vec(ns):
    ns = np.asarray(ns, dtype=float)
    out = np.where(ns >= _L3_FIRST_N,
                   np.log(np.maximum(np.log(np.log(np.maximum(ns, 16.0))), 1e-300)),
                   _ramp(ns, float(_L3_FIRST_N), _L3_FIRST_VAL))
    return np.log(out)


_LOGN_FIRST_N = 2
_LOGN_FIRST_VAL = math.log(2.0)


def _logn_val(n):
    if n >= _LOGN_FIRST_N:
        return math.log(n)
    return _ramp(n, _LOGN_FIRST_N, _LOGN_FIRST_VAL)


def _logn_vec(ns):
    ns = np.asarray(ns, dtype=float)
    return np.log(np.where(ns >= _LOGN_FIRST_N,
                           np.log(np.maximum(ns, 2.0)),
                           _ramp(ns, _LOGN_FIRST_N, _LOGN_FIRST_VAL)))


_RAMPED_REFERENCE = {
    "log_n": (_logn_val, _logn_vec, _LOGN_FIRST_N),
    "loglog_n": (_loglog_val, _loglog_vec, _LOGLOG_FIRST_N),
    "logloglog_n": (_l3_val, _l3_vec, _L3_FIRST_N),
}


def _bits(xs):
    return np.asarray(xs, dtype=float).view(np.int64)


@example("logloglog_n", list(range(-40, 41)), [2 ** 62 - 1])
@given(st.sampled_from(sorted(_RAMPED_REFERENCE)),
       st.lists(st.integers(-40, 40), min_size=1, max_size=30),
       st.lists(st.integers(1, 2 ** 62 - 1), max_size=30))
@settings(max_examples=60, deadline=None)
def test_ramped_presets_bit_equal_to_reference(name, offsets, large):
    # around the first defined index, where the ramp hands over, and at
    # large n
    val, vec, n_first = _RAMPED_REFERENCE[name]
    ns = np.array(sorted({max(n_first + o, 1) for o in offsets} | set(large)),
                  dtype=np.int64)
    alpha = make_alpha(name)
    assert np.array_equal(_bits(alpha.log_values(ns)), _bits(vec(ns)))
    assert np.array_equal(_bits([alpha.value(int(n)) for n in ns]),
                          _bits([val(int(n)) for n in ns]))
