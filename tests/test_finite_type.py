import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesarolab.finite_type import (L_MAX, FiniteTypeWeights, example53_alpha,
                                   example53_j, example53_lower_bound,
                                   ft_cesaro_acts, ft_continuity_criterion,
                                   gp_nuclearity)
from cesarolab.weights import WeightFamily, make_alpha


def log_np1_weights():
    return FiniteTypeWeights(make_alpha("log_n_plus_1"))


def test_finite_type_weights_increase():
    ftw = log_np1_weights()
    # v_k(n) = (n+1)^{1/k} grows in n, shrinks in k
    assert ftw.log_weight(1, 9) == pytest.approx(math.log(10.0))
    assert ftw.log_weight(2, 9) == pytest.approx(0.5 * math.log(10.0))
    ns = np.arange(1, 50)
    lw = ftw.log_weights(1, ns)
    assert np.all(np.diff(lw) > 0)


def test_criterion_bounded_slow_growth():
    ftw = log_np1_weights()
    for k in range(1, 5):
        v = ft_continuity_criterion(ftw, k, k + 1, horizon=10 ** 5)
        assert v.status == "holds", (k, v)


def test_criterion_majorant_slow_growth():
    # closed-form criterion for alpha = log(n+1), k=1, l=2:
    # sqrt(n+1)/n * sum_{m<=n} 1/(m+1) stays under
    # 2 (1 + log(n+1)) / sqrt(n+1)
    ns = np.arange(1, 10 ** 5 + 1, dtype=float)
    prefix = np.cumsum(1.0 / (ns + 1.0))
    vals = np.sqrt(ns + 1.0) / ns * prefix
    majorant = 2.0 * (1.0 + np.log(ns + 1.0)) / np.sqrt(ns + 1.0)
    assert np.all(vals <= majorant + 1e-12)
    # and the module computes the same quantity
    v = ft_continuity_criterion(log_np1_weights(), 1, 2, horizon=10 ** 5)
    assert v.sup_value == pytest.approx(float(vals.max()), rel=1e-9)


def test_criterion_rejects_bad_steps():
    with pytest.raises(ValueError):
        ft_continuity_criterion(log_np1_weights(), 2, 2)
    # l > k alone would let k = 0 or k < 0 through to a confident verdict
    for k in (0, -1):
        with pytest.raises(ValueError, match="k >= 1"):
            ft_continuity_criterion(log_np1_weights(), k, 2)


def test_criterion_diverges_fast_growth():
    ftw = FiniteTypeWeights(make_alpha("n"))
    for l in (2, 8, 64):
        v = ft_continuity_criterion(ftw, 1, l, horizon=10 ** 4)
        assert v.status == "fails", (l, v)


def test_acts_slow_growth():
    res = ft_cesaro_acts(log_np1_weights(), horizon=10 ** 5)
    assert res["verdict"] == "acts_evidence"
    assert all(info["l_found"] == k + 1
               for k, info in res["per_step"].items())


def test_does_not_act_fast_growth():
    res = ft_cesaro_acts(FiniteTypeWeights(make_alpha("n")),
                         horizon=10 ** 4, l_max=16)
    assert res["verdict"] == "does_not_act"
    assert all(info["l_found"] is None for info in res["per_step"].values())


@pytest.mark.parametrize("preset", ["log_n_plus_1", "n"])
def test_acts_search_matches_single_criteria(preset):
    ftw = FiniteTypeWeights(make_alpha(preset))
    res = ft_cesaro_acts(ftw, horizon=10 ** 5)
    for k, step in res["per_step"].items():
        # without a bounded step the search reports the last l it tried
        l = step["l_found"] or k + L_MAX
        assert step["verdict"] == ft_continuity_criterion(
            ftw, k, l, horizon=10 ** 5)


def test_does_not_act_staircase():
    res = ft_cesaro_acts(FiniteTypeWeights(example53_alpha()),
                         horizon=10 ** 5)
    assert res["verdict"] == "does_not_act"
    for info in res["per_step"].values():
        assert info["verdict"].declared_override


def test_staircase_verdict_is_the_bound_at_the_last_step():
    ftw = FiniteTypeWeights(example53_alpha())
    res = ft_cesaro_acts(ftw, horizon=10 ** 5, l_max=3)
    for k, info in res["per_step"].items():
        l = k + 3
        assert info["l_found"] is None
        assert info["verdict"].status == "fails"
        assert info["verdict"].sup_value == example53_lower_bound(10 * l, l)
    res = ft_cesaro_acts(ftw, horizon=10 ** 5, l_max=0)
    assert res["verdict"] == "does_not_act"
    assert [info["verdict"] for info in res["per_step"].values()] == [None] * 4


def test_staircase_is_data_not_a_name():
    # a log(n+1) sequence named like the staircase carries no block
    # bounds, so it is scanned, and averaging acts as on log_n_plus_1
    alpha = make_alpha(lambda n: math.log(n + 1), name="appendix_5_3")
    assert alpha.block_bounds is None
    res = ft_cesaro_acts(FiniteTypeWeights(alpha), horizon=10 ** 4)
    assert res["verdict"] == "acts_evidence"
    for info in res["per_step"].values():
        assert not info["verdict"].declared_override
    assert [example53_alpha().block_bounds(k) for k in range(1, 5)] == [
        example53_j(k) for k in range(1, 5)]


def test_staircase_j_values():
    assert [example53_j(k) for k in range(1, 5)] == [1, 4, 96, 7077888]
    # recurrence j(k+1) = 2 (k+1) j(k)^k
    for k in range(1, 6):
        assert example53_j(k + 1) == 2 * (k + 1) * example53_j(k) ** k


def test_lower_bound_values():
    assert example53_lower_bound(4, 1) == pytest.approx(64.0, rel=1e-9)
    assert example53_lower_bound(1, 1) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValueError):
        example53_lower_bound(0, 1)


def test_lower_bound_diverges_in_k():
    # for every fixed l <= 8 the bound exceeds any threshold eventually,
    # and the first crossing index grows with the threshold
    for l in range(1, 9):
        k0_small = next(k for k in range(1, 4000)
                        if example53_lower_bound(k, l) > 1e3)
        k0_large = next(k for k in range(1, 4000)
                        if example53_lower_bound(k, l) > 1e6)
        assert k0_small <= k0_large


@given(st.integers(min_value=1, max_value=30))
@settings(max_examples=30, deadline=None)
def test_lower_bound_near_diagonal_small(k):
    # at l = k the bound k^{1/k}/4 tends to 1/4 from above
    val = example53_lower_bound(k, k)
    assert 0.25 <= val <= 0.5


def test_staircase_beta_flat_then_jump():
    alpha = example53_alpha()
    # on a block the slowly increasing part only comes from gamma
    from cesarolab.weights import _APPENDIX53
    for k in (1, 2, 3):
        j, j_next = example53_j(k), example53_j(k + 1)
        assert _APPENDIX53.beta(j) == _APPENDIX53.beta(j_next - 1)
        assert _APPENDIX53.beta(j_next) > _APPENDIX53.beta(j)
    vals = [alpha.value(n) for n in range(1, 200)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_gp_nuclearity_infinite_type():
    W = WeightFamily(make_alpha("n"))
    v = gp_nuclearity(W, 1, 2, horizon=10 ** 4)
    assert v.status == "holds"
    # sum of e^{-n} = 1/(e - 1)
    assert v.sup_value == pytest.approx(1.0 / (math.e - 1.0), rel=1e-9)


def test_gp_nuclearity_finite_type_divergent():
    v = gp_nuclearity(log_np1_weights(), 1, 2, horizon=10 ** 6)
    assert v.status == "fails"


# (status, sup) per alpha, weight family and (k, l) at horizon 1e4, as
# recorded when FiniteTypeWeights took a branch of its own
_GP_RECORDED = {
    ("n_squared", WeightFamily, (1, 2)): ("holds", 0.38631860241332605),
    ("n_squared", WeightFamily, (2, 5)): ("holds", 0.0497932125820968),
    ("n_squared", FiniteTypeWeights, (1, 2)): ("holds", 0.7533141440214528),
    ("n_squared", FiniteTypeWeights, (2, 5)): ("holds", 1.1180215937964328),
    ("log_n_plus_1", WeightFamily, (1, 2)): ("inconclusive",
                                             8.787706026045287),
    ("log_n_plus_1", WeightFamily, (2, 5)): ("inconclusive",
                                             0.20205689816109476),
    ("log_n_plus_1", FiniteTypeWeights, (1, 2)): ("inconclusive",
                                                  197.5546449495615),
    ("log_n_plus_1", FiniteTypeWeights, (2, 5)): ("inconclusive",
                                                  899.5577172656726),
}


def test_gp_nuclearity_finite_type_nuclear():
    # alpha_n = n^2 gives sum e^{-n^2/2}: nuclear even in finite type
    alpha = make_alpha(lambda n: float(n * n), name="n_squared")
    v = gp_nuclearity(FiniteTypeWeights(alpha), 1, 2, horizon=10 ** 4)
    assert v.status == "holds"
    # both weight families take one path, with the recorded floats
    alphas = {"n_squared": alpha, "log_n_plus_1": make_alpha("log_n_plus_1")}
    for (name, family, (k, l)), want in _GP_RECORDED.items():
        v = gp_nuclearity(family(alphas[name]), k, l, horizon=10 ** 4)
        assert (v.status, v.sup_value) == want


def test_gp_nuclearity_rejects_bad_steps():
    with pytest.raises(ValueError):
        gp_nuclearity(log_np1_weights(), 2, 2)
