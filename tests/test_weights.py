import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cesarolab import weights
from cesarolab.finite_type import FiniteTypeWeights
from cesarolab.resolvent import product_log_prefix
from cesarolab.weights import (LCE_BLOCK, LCE_CHUNK, AlphaSequence,
                               GrowthVerdict, MonotonicityError, PRESET_NAMES,
                               WeightFamily, check_delta_criterion,
                               check_lemma22, check_loglog, check_nuclear,
                               check_shift_stable, log_cumsum_exp, make_alpha,
                               make_alpha_from_csv, scan_horizon,
                               scan_verdict)


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


def _vec_alpha(name, log_fn):
    """An alpha read through its vector path only."""
    return AlphaSequence(name, lambda n: math.exp(log_fn(np.array([n]))[0]),
                         vec_log_fn=log_fn)


@pytest.mark.parametrize("at", [1, 500])
def test_batch_guard_refuses_nan(at):
    # value() refuses a NaN as not positive, and so does the batch guard,
    # at the first index as in the middle of the array
    def log_fn(ns):
        out = np.log(np.log(ns.astype(float) + 1.0))
        out[ns == at] = np.nan
        return out

    alpha = _vec_alpha("holey", log_fn)
    message = rf"^alpha_{at} = nan is not positive \(holey\)"
    for ns in (np.arange(1, 1001), np.unique([1, 7, at, 2000])):
        with pytest.raises(ValueError, match=message):
            alpha.values(ns)


def test_batch_guard_refuses_a_zero_alpha():
    alpha = _vec_alpha("zero_start", lambda ns: np.log(ns - 1.0))
    with np.errstate(divide="ignore"):
        for ns in (np.arange(1, 10), np.array([1]), np.array([1, 10, 100])):
            with pytest.raises(ValueError,
                               match=r"^alpha_1 = 0.0 is not positive"):
                alpha.values(ns)


def test_batch_guard_refuses_a_decrease_between_any_increasing_indices():
    alpha = _vec_alpha("falling", lambda ns: np.log1p(1.0 / ns))
    with pytest.raises(MonotonicityError,
                       match="'falling' decreases from n=1 to n=10"):
        alpha.values([1, 10, 100])
    rising = make_alpha("log_n_plus_1")
    assert np.array_equal(rising.values([1, 10, 100]),
                          np.log([2.0, 11.0, 101.0]))


def test_batch_guard_skips_an_unordered_point_set():
    # only an increasing index array is checked: a preset read at
    # unordered points is not refused for its values falling
    for name, points, order in (("n", [5, 2, 9], [1, 0, 2]),
                                ("sqrt_n", [9, 9, 4], [1, 1, 0])):
        alpha = make_alpha(name)
        assert np.array_equal(alpha.values(points),
                              alpha.values(sorted(set(points)))[order])


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


@pytest.mark.parametrize("text, error, message", [
    ("1,1\n2\n3,3\n", ValueError, "line 2: need n,alpha_n"),
    ("1,1\n2,2\n2,3\n", ValueError, "line 3: index 2 repeated"),
    ("# n,alpha\n1,1\n\n2,2\n2,3\n", ValueError, "line 5: index 2 repeated"),
    ("1,1\n2,0.5\n3,3\n", MonotonicityError, "decreases at n=2"),
    ("1,1\n2,2\n3,1.5\n4,5\n", MonotonicityError, "decreases at n=3"),
    ("1,-1\n2,2\n", ValueError, "alpha_1 = -1.0 is not positive"),
    ("1,1\n2,nan\n", ValueError, "alpha_2 = nan is not positive"),
])
def test_csv_alpha_checked_at_load(tmp_path, text, error, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(error, match=message):
        make_alpha_from_csv(str(path))


def test_csv_alpha_accepts_equal_neighbours(tmp_path):
    # the runtime guard's rule: no value below its predecessor
    path = tmp_path / "flat.csv"
    path.write_text("1,1\n2,1\n3,2\n")
    assert make_alpha_from_csv(str(path)).values([1, 2, 3]).tolist() == \
        [1.0, 1.0, 2.0]


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
    if math.isnan(ref.sup_value):
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


@pytest.mark.parametrize("check, one, none", [
    (check_shift_stable, 1, 0), (check_delta_criterion, 1, 0),
    (check_nuclear, 2, 1), (check_loglog, 3, 2)])
def test_ratio_scan_of_one_index_is_inconclusive(check, one, none):
    # one scanned index leaves the last decade empty; no index is the one
    # empty-scan error of scan_verdict
    alpha = make_alpha(lambda n: n ** 2.0)
    v = check(alpha, horizon=one)
    assert (v.status, v.horizon) == ("inconclusive", one)
    with pytest.raises(ValueError, match="^empty scan: the horizon"):
        check(alpha, horizon=none)


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


_SPARSE = np.random.default_rng(5).integers(1, 2 ** 62, 3000)


@pytest.mark.parametrize("name", sorted(_RAMPED_REFERENCE))
def test_ramped_vector_path_bit_equal_to_where_form(name):
    # the ramp is evaluated only below the first defined index; the
    # np.where form evaluated it, and f, at every index: dense indices
    # 1..1e6, and sparse ones around n_first and up to 2^62 in random
    # order, increasing and decreasing
    _, vec, n_first = _RAMPED_REFERENCE[name]
    vec_log = make_alpha(name)._vec_log_fn
    near = np.clip(n_first + np.arange(-300, 301), 1, None)
    sparse = np.concatenate((near, _SPARSE))
    for ns in (np.arange(1, 10 ** 6 + 1), sparse, np.sort(sparse),
               np.sort(sparse)[::-1], near[near < n_first]):
        assert vec_log(ns).tobytes() == vec(ns).tobytes()


# ---------------------------------------------------------------------------
# the prefix log-sum-exp kernel

# the sequential loop that log_cumsum_exp replaced at every call site,
# kept as the reference for its semantics
_retired_prefix = np.logaddexp.accumulate


def _assert_same_sums(got, want, t):
    """Equal non-finite entries; finite ones within 1e-13 of the larger
    of |want|, the largest finite |t| and 1: a block shifted by its
    maximum costs a few ulps of that maximum, and near a zero sum both
    are accurate only in absolute terms."""
    np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
    fin = np.isfinite(want)
    np.testing.assert_array_equal(got[~fin], want[~fin])
    big = np.abs(t[np.isfinite(t)]).max(initial=1.0)
    assert np.all(np.abs(got[fin] - want[fin])
                  <= 1e-13 * np.maximum(np.abs(want[fin]), big))


_RNG_TERMS = np.random.default_rng(7).normal(scale=3.0, size=900)


@pytest.mark.parametrize("t", [
    np.empty(0),
    np.array([2.5]),
    np.full(LCE_BLOCK + 3, -np.inf),
    np.concatenate([np.full(LCE_BLOCK + 5, -np.inf), _RNG_TERMS]),
    np.concatenate([_RNG_TERMS[:400], [np.inf], _RNG_TERMS[400:]]),
    np.concatenate([_RNG_TERMS, [np.inf, -np.inf, 1.0]]),
], ids=["empty", "one", "all_neg_inf", "leading_neg_inf", "pos_inf",
        "pos_inf_last"])
def test_log_cumsum_exp_special_inputs(t):
    _assert_same_sums(log_cumsum_exp(t), _retired_prefix(t), t)


@pytest.mark.parametrize("at", [0, 300, LCE_BLOCK * 3 - 1])
def test_log_cumsum_exp_nan_from_its_index_on(at):
    t = np.concatenate([_RNG_TERMS[:at], [np.nan], _RNG_TERMS[at:]])
    # the sequential loop warns on a NaN, and so does the kernel
    with pytest.warns(RuntimeWarning, match="invalid value"):
        want = _retired_prefix(t)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        got = log_cumsum_exp(t)
    assert np.isnan(want[at:]).all() and np.isnan(got[at:]).all()
    _assert_same_sums(got[:at], want[:at], t[:at])


@pytest.mark.parametrize("n", [LCE_BLOCK - 1, LCE_BLOCK, LCE_BLOCK + 1,
                               LCE_CHUNK - 1, LCE_CHUNK, LCE_CHUNK + 1])
def test_log_cumsum_exp_block_and_chunk_edges(n):
    t = np.random.default_rng(n).normal(scale=4.0, size=n) + np.log1p(
        np.arange(n))
    got = log_cumsum_exp(t)
    _assert_same_sums(got, _retired_prefix(t), t)
    assert np.all(got[1:] >= got[:-1]) and np.all(got >= t)


def test_log_cumsum_exp_wide_blocks_take_the_exact_path():
    # alpha_n = n log n at step 1 spans far more than 700 in one block,
    # where the shifted sums underflow: the exact loop sums them, bit for
    # bit, and a block of ordinary range after them is joined on
    t = np.arange(1, 3 * LCE_BLOCK + 1) * np.log(np.arange(
        1.0, 3 * LCE_BLOCK + 1))
    assert np.ptp(t[:LCE_BLOCK]) > 700
    assert log_cumsum_exp(t).tobytes() == _retired_prefix(t).tobytes()
    tail = np.concatenate([t, t[-1] + _RNG_TERMS[:LCE_BLOCK]])
    got = log_cumsum_exp(tail)
    assert got[:t.size].tobytes() == _retired_prefix(t).tobytes()
    _assert_same_sums(got, _retired_prefix(tail), tail)



# block-aligned ends of a head: the head of the finite-type criterion,
# either side of each chunk edge, and either side of the blocks below
# that take the exact path
_HEAD_ENDS = [LCE_BLOCK, 16 * LCE_BLOCK, LCE_CHUNK - LCE_BLOCK, LCE_CHUNK,
              LCE_CHUNK + LCE_BLOCK, 2 * LCE_CHUNK, 2 * LCE_CHUNK + LCE_BLOCK,
              40 * LCE_BLOCK, 41 * LCE_BLOCK, 42 * LCE_BLOCK]


def _head_test_terms():
    """Terms over 2 chunks and more, with exact-path blocks inside."""
    n = 2 * LCE_CHUNK + 3 * LCE_BLOCK + 5
    t = np.random.default_rng(11).normal(scale=3.0, size=n) - np.log1p(
        np.arange(n))
    # a block whose first term lies 900 under its maximum, an all -inf
    # block, and each next to a chunk edge as well
    for b in (40, LCE_CHUNK // LCE_BLOCK - 1, LCE_CHUNK // LCE_BLOCK):
        t[b * LCE_BLOCK] -= 900.0
    t[41 * LCE_BLOCK:42 * LCE_BLOCK] = -np.inf
    t[2 * LCE_CHUNK:2 * LCE_CHUNK + LCE_BLOCK] = -np.inf
    return t


@pytest.mark.parametrize("end", _HEAD_ENDS)
def test_log_cumsum_exp_of_a_block_aligned_head_is_its_prefix(end):
    # the sums of the first `end` terms alone are the first `end` sums of
    # the whole array, bit for bit, when `end` is a multiple of LCE_BLOCK
    t = _head_test_terms()
    assert log_cumsum_exp(t[:end]).tobytes() == \
        log_cumsum_exp(t)[:end].tobytes()
    # and on the terms -alpha_n / k of the finite-type criterion
    ns = np.arange(1, len(t) + 1)
    for name in PRESET_NAMES:
        for k in (1, 3):
            with np.errstate(over="ignore"):
                terms = -make_alpha(name).values(ns) / k
            assert log_cumsum_exp(terms[:end]).tobytes() == \
                log_cumsum_exp(terms)[:end].tobytes(), (name, k)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_alpha_values_of_a_part_are_those_of_the_whole(name):
    # alpha over a sub-range or a point set is, bit for bit, the same
    # entries of one evaluation over 1..n
    alpha = make_alpha(name)
    n = 5 * 10 ** 4
    whole = alpha.values(np.arange(1, n + 1))
    ends = np.unique(np.geomspace(4096, n, 200).astype(np.int64))
    for part in (np.arange(1, 4097), np.arange(4096, n + 1),
                 np.arange(777, 1234), ends, ends[::7], np.array([1, n]),
                 np.array([n // 3])):
        assert alpha.values(part).tobytes() == whole[part - 1].tobytes()

def _package_terms(n):
    """Four prefix log-sum-exp inputs as the package builds them."""
    ns = np.arange(1, n + 1)
    ftw = FiniteTypeWeights(make_alpha("log_n_plus_1"))
    yield "finite_type", -ftw.log_weights(1, ns)
    lw = WeightFamily(make_alpha("loglog_n")).log_weights(1, ns)
    P = product_log_prefix(0.4 + 0.2j, n)
    yield "strict_row", np.concatenate([[-lw[0]], P[:-1] - lw[1:]])
    W = WeightFamily(make_alpha("n"))
    yield "gp_nuclearity", W.log_weights(2, ns) - W.log_weights(1, ns)
    W = WeightFamily(make_alpha("sqrt_n"))
    yield "b_continuity", -np.log(ns.astype(float)) - W.log_weights(1, ns + 1)


def test_log_cumsum_exp_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for name, t in _package_terms(2 * 10 ** 4):
        with mpmath.workdps(40):
            total, want = mpmath.mpf(0), []
            for x in t.tolist():
                total += mpmath.exp(x)
                want.append(float(mpmath.log(total)))
        want = np.array(want)
        rel = np.max(np.abs(log_cumsum_exp(t) - want) / np.abs(want))
        assert rel <= 1e-14, name


@st.composite
def _term_arrays(draw):
    """Raw, sorted or summed terms (ramps and walks), some -inf."""
    terms = np.array(draw(st.lists(
        st.one_of(st.floats(-1e3, 1e3), st.floats(-5.0, 5.0),
                  st.just(-math.inf)),
        max_size=3 * LCE_BLOCK)))
    shape = draw(st.sampled_from(["raw", "sorted", "summed"]))
    if shape == "sorted":
        return np.sort(terms)
    if shape == "summed":
        return np.cumsum(np.nan_to_num(terms, neginf=0.0))
    return terms


# a walk whose sums are flat across a block end, where a joined block
# would start an ulp under the block before it
_FLAT_WALK = np.cumsum(np.random.default_rng(3).normal(scale=10.0,
                                                       size=4 * LCE_BLOCK))


@example(_FLAT_WALK)
@given(_term_arrays())
@settings(max_examples=300, deadline=None)
def test_log_cumsum_exp_properties(t):
    got = log_cumsum_exp(t)
    assert np.all(got[1:] >= got[:-1]) and np.all(got >= t)
    _assert_same_sums(got, _retired_prefix(t), t)


def test_prefix_log_sum_exp_is_written_once():
    # every prefix log-sum-exp of the package goes through log_cumsum_exp
    src = Path(weights.__file__).parent
    kernel = next(node for node in ast.walk(ast.parse(
        Path(weights.__file__).read_text()))
        if isinstance(node, ast.FunctionDef)
        and node.name == "log_cumsum_exp")
    outside = [
        f"{path.name}:{i}"
        for path in sorted(src.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "logaddexp.accumulate" in line
        and not (path.name == "weights.py"
                 and kernel.lineno <= i <= kernel.end_lineno)]
    assert not outside


def _retired_scan_horizon(alpha, horizon, tail=0, step=1):
    """scan_horizon as it was: the overflow cap bisected from 0."""
    horizon = min(int(horizon), np.iinfo(np.int64).max - tail)
    if alpha.max_index is not None:
        horizon = min(horizon, alpha.max_index - tail)

    def finite(n):
        with np.errstate(over="ignore"):
            return np.isfinite(step * alpha.values([n + tail])[0])

    if horizon < 1 or finite(horizon):
        return horizon
    lo, hi = 0, horizon
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if finite(mid) else (lo, mid)
    if lo == 0:
        raise ValueError(f"empty scan: {step} * alpha_{1 + tail} of "
                         f"{alpha.name!r} overflows double precision")
    return lo


def _retired_lemma22(alpha, gamma, horizon=10 ** 5):
    """check_lemma22 as it was: a linear ladder over M."""
    horizon = weights.scan_horizon(alpha, horizon, step=weights.M_MAX)
    ns = np.arange(1, horizon + 1)
    av = alpha.values(ns)
    glog = gamma * np.log(ns.astype(float))
    for m in range(1, weights.M_MAX + 1):
        vals = glog - m * av
        if vals.max() <= weights.LEMMA22_LOG_BOUND:
            break
    else:
        m = None
    i = int(np.argmax(vals))
    with np.errstate(over="ignore"):
        sup = float(np.exp(vals[i]))
    return m, GrowthVerdict("fails" if m is None else "holds", horizon, sup,
                            int(ns[i]), False)


def _cap_or_error(scan, *args, **kw):
    try:
        return scan(*args, **kw)
    except ValueError as exc:
        return str(exc)


def test_monotone_searches_match_the_retired_bisection_and_ladder(tmp_path):
    # the overflow cap of scan_horizon and the M of check_lemma22 are now
    # the first holding step of one gallop-and-bisect search
    cases = 0
    n_pow_n = make_alpha("n_pow_n")
    for step in (1, 2, 4, 65, 1000):
        for tail in (0, 1):
            for horizon in (10, 143, 144, 10 ** 5, 10 ** 18):
                args = (n_pow_n, horizon, tail, step)
                assert (_cap_or_error(weights.scan_horizon, *args)
                        == _cap_or_error(_retired_scan_horizon, *args))
                cases += 1
    # tables whose alpha overflows from row r on
    for r in (2, 3, 17, 500):
        path = tmp_path / f"overflow_{r}.csv"
        path.write_text("".join(
            f"{n},{float(n) if n < r else math.inf!r}\n"
            for n in range(1, 601)))
        table = make_alpha_from_csv(str(path))
        for step in (1, 2, 65):
            for tail in (0, 1):
                args = (table, 10 ** 4, tail, step)
                got = _cap_or_error(weights.scan_horizon, *args)
                assert got == _cap_or_error(_retired_scan_horizon, *args)
                assert got == (r - 1 - tail if r - 1 - tail >= 1
                               else f"empty scan: {step} * alpha_{1 + tail}"
                               f" of {table.name!r} overflows double "
                               f"precision")
                cases += 1
    for name in PRESET_NAMES:
        alpha = make_alpha(name)
        for gamma in (0.5, 1.0, 5.0, 50.0):
            assert check_lemma22(alpha, gamma) == _retired_lemma22(alpha,
                                                                   gamma)
            cases += 1
    assert cases == 106


# ---------------------------------------------------------------------------
# the contract that sparse reads rest on

@given(st.sampled_from(PRESET_NAMES), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_presets_are_finite_and_non_decreasing_on_sparse_indices(name,
                                                                 data):
    # a certified scan reads a preset only at its head and next to its
    # block ends, trusting it not to decrease in between: along any
    # increasing index array up to the cap of scan_horizon, log alpha is
    # finite and non-decreasing
    alpha = make_alpha(name)
    cap = scan_horizon(alpha, np.iinfo(np.int64).max - 2)
    ns = np.unique(data.draw(st.lists(
        st.one_of(st.integers(1, min(cap, 10 ** 7)), st.integers(1, cap)),
        min_size=2, max_size=300)))
    assert alpha._known_monotone
    log_alpha = alpha._vec_log_fn(ns)
    assert np.all(np.isfinite(log_alpha))
    assert np.all(np.diff(log_alpha) >= 0)


def test_only_built_alphas_are_read_sparsely(tmp_path):
    # presets and checked tables are known not to decrease; a generator
    # or a bare sequence is not, and is read at every index
    path = tmp_path / "a.csv"
    path.write_text("".join(f"{n},{n}\n" for n in range(1, 6)))
    assert all(make_alpha(name)._known_monotone for name in PRESET_NAMES)
    assert make_alpha_from_csv(str(path))._known_monotone
    assert not make_alpha(lambda n: float(n))._known_monotone
    assert not AlphaSequence("bare", float)._known_monotone


def test_values_exponentiate_the_log_values_in_place():
    alpha = make_alpha("sqrt_n")
    ns = np.arange(1, 5000)
    assert alpha.values(ns).tobytes() == np.exp(
        alpha.log_values(ns)).tobytes()


def test_alpha_reads_gather_only_what_was_read():
    alpha = make_alpha("log_n_plus_1")
    ends = weights._block_ends(weights.HEAD, 10 ** 5)
    reads = weights._AlphaReads(alpha, 10 ** 5, ends, (0, 1))
    assert len(reads.ns) == weights.HEAD + 2 * (len(ends) - 1)
    assert reads.at(ends).tobytes() == alpha.values(ends).tobytes()
    with pytest.raises(LookupError, match="not read"):
        reads.at([weights.HEAD + 7])
    ns, dense = reads.dense()
    assert len(ns) == 10 ** 5
    assert dense[ends - 1].tobytes() == reads.at(ends).tobytes()
