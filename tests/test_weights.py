import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesarolab.weights import (AlphaSequence, GrowthVerdict, MonotonicityError,
                               PRESET_NAMES, WeightFamily, check_delta_criterion,
                               check_lemma22, check_loglog, check_nuclear,
                               check_shift_stable, make_alpha,
                               make_alpha_from_csv)


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
    # log values agree with direct values where both are finite
    for n in (1, 5, 30):
        if math.isfinite(alpha.value(n)):
            assert alpha.log_value(n) == pytest.approx(
                math.log(alpha.value(n)))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_vectorized_logs_match_scalar(name):
    alpha = make_alpha(name)
    ns = np.array([1, 2, 3, 10, 50])
    vec = alpha.log_values(ns)
    for i, n in enumerate(ns):
        assert vec[i] == pytest.approx(alpha.log_value(int(n)), rel=1e-12)


def test_decreasing_generator_rejected():
    with pytest.raises(MonotonicityError):
        make_alpha(lambda n: 10.0 - n, name="bad")


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
    alpha_ns = W.alpha_values(ns)
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
        assert vec[i] == pytest.approx(alpha.log_value(int(n)), rel=1e-9)


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
