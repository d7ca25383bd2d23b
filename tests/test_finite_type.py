import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cesarolab import finite_type
from cesarolab.finite_type import (HEAD, K_PROBE, L_MAX, FiniteTypeWeights,
                                   _Scan, example53_alpha,
                                   example53_j, example53_lower_bound,
                                   ft_cesaro_acts, ft_continuity_criterion,
                                   gp_nuclearity)
from cesarolab.operators import step_continuity_test
from cesarolab.weights import (BLOCK_RATIO_DENOM, BOUND_MARGIN, AlphaSequence,
                               WeightFamily, make_alpha)


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


@pytest.mark.parametrize("preset", ["log_n_plus_1", "n", "sqrt_n"])
@pytest.mark.parametrize("k, l", [(1, 2), (1, 5), (3, 4)])
# 40959 and 40960 straddle the least horizon, 10 HEAD, where the exact
# head lies before the last decade and decides without a dense scan
@pytest.mark.parametrize("horizon", [500, 40959, 40960, 10 ** 5, 10 ** 6])
def test_criterion_is_the_cesaro_row_on_finite_type_weights(preset, k, l,
                                                            horizon):
    ftw = FiniteTypeWeights(make_alpha(preset))
    assert ft_continuity_criterion(ftw, k, l, horizon) == \
        step_continuity_test("cesaro", ftw, k, l, horizon)


@st.composite
def _alpha_tables(draw):
    """Non-decreasing alpha tables past 10 HEAD: log or power growth with
    plateaus, maybe a late jump and maybe a NaN past the head."""
    top = draw(st.integers(10 * HEAD, 2 * 10 ** 5))
    growth = draw(st.sampled_from(["log", "pow"]))
    scale = draw(st.floats(0.05, 4.0))
    plateaus = draw(st.lists(st.tuples(st.integers(1, top),
                                       st.integers(1, top // 4)),
                             max_size=3))
    jump = draw(st.one_of(st.none(), st.tuples(
        st.integers(top - top // 50, top), st.floats(0.0, 20.0))))
    nan_at = draw(st.one_of(st.none(), st.integers(HEAD + 1, top - 1)))
    return top, growth, scale, plateaus, jump, nan_at


def _table_alpha(top, growth, scale, plateaus, jump, nan_at):
    ns = np.arange(1, top + 1, dtype=float)
    table = scale * (np.log1p(ns) if growth == "log" else ns ** 0.3)
    for lo, length in plateaus:
        table[lo - 1:lo - 1 + length] = table[lo - 1]
    if jump:
        table[jump[0] - 1:] += jump[1]
    log_table = np.log(table)
    if nan_at:
        log_table[nan_at - 1] = np.nan
    return AlphaSequence("table", lambda n: math.exp(log_table[n - 1]),
                         vec_log_fn=lambda ns: log_table[ns - 1],
                         max_index=top)


@example((10 ** 5, "log", 1.0, [], (10 ** 5 - 5, 12.0), None))
@example((10 ** 5, "log", 1.0, [(5000, 20000)], None, 70001))
@given(_alpha_tables())
@settings(max_examples=40, deadline=None)
def test_certified_verdict_is_the_dense_one(table):
    # the exact head and the block bounds decide only where the dense
    # scan gives the same verdict: a jump in the last block must send the
    # scan to the dense rows, and a NaN inside a block, which no bound
    # sees, is refused with the evaluation of alpha
    ftw = FiniteTypeWeights(_table_alpha(*table))
    if table[-1] is not None:
        with pytest.raises(ValueError, match=f"alpha_{table[-1]} = nan"):
            _Scan(ftw, table[0])
        return
    scan = _Scan(ftw, table[0])
    for k, l in ((1, 2), (1, 5), (2, 3), (3, 5)):
        certified = scan._certified(k, l)
        if certified is not None:
            assert repr(certified) == repr(scan._dense(k, l)), (k, l)


def _assert_certificate(scan, k, l):
    """The head rows are the dense rows bit for bit, and each bound row
    is at least every dense row it stands for, up to the margin."""
    d = scan.dense_top
    head, dense = scan._rows(k, l, HEAD), scan._rows(k, l, d)
    assert np.array_equal(head[:HEAD].view(np.int64),
                          dense[:HEAD].view(np.int64))
    ends = [HEAD]
    while ends[-1] < d:
        ends.append(min(ends[-1] + ends[-1] // BLOCK_RATIO_DENOM, d))
    blocks = len(ends) - 1
    assert len(head) == HEAD + blocks + len(scan.ns) - d
    margin = BOUND_MARGIN * (1.0 + scan.av[d - 1] / k + math.log(d))
    # the rows n in (a, b] sit at a..b - 1
    block_max = np.maximum.reduceat(dense[:d], ends[:-1])
    assert np.all(block_max <= head[HEAD:HEAD + blocks] + margin), (k, l)
    # past dense_top both rest on the tail majorant, the head's from the
    # bound at dense_top instead of the exact prefix there
    assert np.all(dense[d:] <= head[HEAD + blocks:] + margin), (k, l)


_PAIRS = ((1, 2), (1, 5), (2, 3), (3, 5))


@pytest.mark.parametrize("preset, horizon", [
    ("log_n_plus_1", 10 ** 6), ("log_n_plus_1", 10 ** 7), ("n", 10 ** 5)])
def test_certificate_rows_on_presets(preset, horizon):
    scan = _Scan(FiniteTypeWeights(make_alpha(preset)), horizon)
    for k, l in _PAIRS:
        _assert_certificate(scan, k, l)


@given(_alpha_tables().map(lambda table: table[:-1] + (None,)))
@settings(max_examples=20, deadline=None)
def test_certificate_rows_on_alpha_tables(table):
    scan = _Scan(FiniteTypeWeights(_table_alpha(*table)), table[0])
    for k, l in _PAIRS:
        _assert_certificate(scan, k, l)


def test_certified_verdicts_sum_no_dense_prefix(monkeypatch):
    # on log(n + 1) at 1e6 the acts search and the criterion at (1, 2)
    # hold from the head and the bounds: no prefix sum spans the dense
    # indices
    lengths = []
    kernel = finite_type.log_cumsum_exp

    def counting(t):
        lengths.append(len(t))
        return kernel(t)

    monkeypatch.setattr(finite_type, "log_cumsum_exp", counting)
    assert ft_cesaro_acts(log_np1_weights())["verdict"] == "acts_evidence"
    assert ft_continuity_criterion(log_np1_weights(), 1, 2).status == \
        "holds"
    assert lengths and max(lengths) < 10 ** 6


def test_acts_search_sums_each_prefix_once_per_step(monkeypatch):
    # on n every step l fails: each k tries the head and the dense scan
    # for all l, from one head prefix, one block sum and one dense prefix
    calls = []
    kernel = finite_type.log_cumsum_exp

    def counting(t):
        calls.append(len(t))
        return kernel(t)

    monkeypatch.setattr(finite_type, "log_cumsum_exp", counting)
    res = ft_cesaro_acts(FiniteTypeWeights(make_alpha("n")),
                         horizon=10 ** 5)
    assert res["verdict"] == "does_not_act"
    assert len(calls) <= 3 * K_PROBE


def test_scan_points_past_the_dense_indices_are_guarded():
    # alpha is read at the log-spaced points past 1e6 in the same guarded
    # evaluation as the dense indices: a NaN at the horizon is refused
    def log_fn(ns):
        out = np.log(np.log(ns.astype(float) + 1.0))
        out[ns == 10 ** 7] = np.nan
        return out

    alpha = AlphaSequence("holey", lambda n: math.log(n + 1),
                          vec_log_fn=log_fn)
    with pytest.raises(ValueError, match="^alpha_10000000 = nan"):
        ft_continuity_criterion(FiniteTypeWeights(alpha), 1, 2,
                                horizon=10 ** 7)


def test_criterion_rejects_bad_steps():
    with pytest.raises(ValueError, match="^l must be >= 3, got 2$"):
        ft_continuity_criterion(log_np1_weights(), 2, 2)
    # l > k alone would let k = 0 or k < 0 through to a confident verdict
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
            ft_continuity_criterion(log_np1_weights(), k, 2)


def test_criterion_of_no_index_is_the_one_empty_scan_error():
    with pytest.raises(ValueError, match="^empty scan: the horizon"):
        ft_continuity_criterion(log_np1_weights(), 1, 2, horizon=0)


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


@pytest.mark.parametrize("l_max", [0, -1])
def test_scanned_acts_search_needs_a_step(l_max):
    # a search that tries no step has no evidence for does_not_act
    with pytest.raises(ValueError,
                       match=f"^l_max must be >= 1, got {l_max}$"):
        ft_cesaro_acts(log_np1_weights(), l_max=l_max)


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


def _retired_acts_search(ftw, horizon=10 ** 6, l_max=L_MAX):
    """The scanned acts search that tried every step l = k+1..k+l_max in
    turn, verbatim: the reference of the monotone search."""
    per_k = {}
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


_L_MAXES = (1, 3, 16, 64)


@pytest.mark.parametrize("preset", ["n", "sqrt_n", "log_n_plus_1",
                                    "loglog_n", "log_n", "logloglog_n"])
@pytest.mark.parametrize("horizon", [1, 2, 20, 500, 10 ** 4, 10 ** 5])
def test_acts_search_is_the_step_by_step_search_on_presets(preset, horizon):
    ftw = FiniteTypeWeights(make_alpha(preset))
    for l_max in _L_MAXES:
        assert repr(ft_cesaro_acts(ftw, horizon, l_max)) == repr(
            _retired_acts_search(ftw, horizon, l_max)), l_max


@given(_alpha_tables().map(lambda table: table[:-1] + (None,)),
       st.sampled_from(_L_MAXES))
@settings(max_examples=20, deadline=None)
def test_acts_search_is_the_step_by_step_search_on_alpha_tables(table,
                                                                l_max):
    ftw = FiniteTypeWeights(_table_alpha(*table))
    assert repr(ft_cesaro_acts(ftw, table[0], l_max)) == repr(
        _retired_acts_search(ftw, table[0], l_max))


def test_acts_search_asks_few_steps(monkeypatch):
    # on n every step fails: the search gallops to k + 64 in 7 verdicts
    # where the step-by-step search asked all 64
    asked = []
    verdict = _Scan.verdict

    def counting(scan, k, l):
        asked.append(k)
        return verdict(scan, k, l)

    monkeypatch.setattr(_Scan, "verdict", counting)
    res = ft_cesaro_acts(FiniteTypeWeights(make_alpha("n")),
                         horizon=10 ** 5, l_max=64)
    assert res["verdict"] == "does_not_act"
    assert all(0 < asked.count(k) <= 8 for k in range(1, K_PROBE + 1))


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


@pytest.mark.parametrize("horizon, top", [
    (10 ** 7, 10 ** 7), (2 ** 53 + 1, 2 ** 53 + 1), (10 ** 20, 2 ** 63 - 1)])
def test_scan_indices_end_at_the_horizon(horizon, top):
    # 2^53 + 1 is no float, and the horizon 1e20 clamps to 2^63 - 1,
    # whose float rounds up to 2^63, past int64: the top index is the
    # horizon itself, and no float reaches an int64 cast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = _Scan(log_np1_weights(), horizon)
    assert (scan.dense_top, scan.horizon, len(scan.ns)) == (
        10 ** 6, top, 10 ** 6 + 39)
    assert scan.ns[-1] == top and np.all(np.diff(scan.ns) > 0)


def test_tail_majorant_never_grants_fails():
    # past 1e6 the prefix is bounded by a majorant that grows with the
    # tail length; the criterion is bounded for log(n + 1) and l > k, so
    # the scan must not read the majorant's growth as divergence
    ftw = log_np1_weights()
    v = ft_continuity_criterion(ftw, 1, 2, horizon=10 ** 20)
    assert v.status == "inconclusive"
    assert v.horizon == 2 ** 63 - 1
    assert ft_continuity_criterion(ftw, 1, 2, horizon=10 ** 6).status == \
        "holds"
    # divergence the dense indices show is still reported past them
    ftw_n = FiniteTypeWeights(make_alpha("n"))
    assert ft_continuity_criterion(ftw_n, 1, 2, horizon=10 ** 20).status \
        == "fails"


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


def test_lower_bound_overflows_only_past_double_range():
    # log of the bound at (565, 5) is 709.6, under log DBL_MAX = 709.78
    assert example53_lower_bound(565, 5) == 1.505829683993771e+308
    assert example53_lower_bound(566, 5) == math.inf


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


# (status, sup) per alpha, weight family and (k, l) at horizon 1e4; the
# statuses as recorded when FiniteTypeWeights took a branch of its own,
# the sums in the last bits of the blocked log_cumsum_exp
_GP_RECORDED = {
    ("n_squared", WeightFamily, (1, 2)): ("holds", 0.38631860241332605),
    ("n_squared", WeightFamily, (2, 5)): ("holds", 0.0497932125820968),
    ("n_squared", FiniteTypeWeights, (1, 2)): ("holds", 0.7533141440214529),
    ("n_squared", FiniteTypeWeights, (2, 5)): ("holds", 1.1180215937964328),
    ("log_n_plus_1", WeightFamily, (1, 2)): ("inconclusive",
                                             8.787706026045381),
    ("log_n_plus_1", WeightFamily, (2, 5)): ("inconclusive",
                                             0.20205689816109396),
    ("log_n_plus_1", FiniteTypeWeights, (1, 2)): ("inconclusive",
                                                  197.5546449495617),
    ("log_n_plus_1", FiniteTypeWeights, (2, 5)): ("inconclusive",
                                                  899.557717265635),
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


def test_gp_nuclearity_converged_sum_above_threshold_is_inconclusive():
    # alpha_n = 9e-4 n: the sum of e^{-9e-4 n} converges to 1110.6, above
    # the 1e3 threshold of scan_verdict, so no holds is granted
    alpha = AlphaSequence("lin", lambda n: 9e-4 * n,
                          vec_log_fn=lambda ns: np.log(9e-4 * ns))
    v = gp_nuclearity(WeightFamily(alpha), 1, 2, horizon=10 ** 6)
    assert v.status == "inconclusive"
    assert v.sup_value == pytest.approx(1.0 / math.expm1(9e-4), rel=1e-9)
    # the witness is the first index where the partial sums peak: where
    # the float sums stop rising, so it moves with their rounding
    assert v.witness_index == 37633
    # at the default horizon 1e5 the sum is past 1e3 and its last decade
    # still adds about 1.2e-4 in log: a converging series, not evidence
    # that it diverges
    v = gp_nuclearity(WeightFamily(alpha), 1, 2)
    assert (v.status, v.sup_value > 1e3) == ("inconclusive", True)


def test_gp_nuclearity_rejects_bad_steps():
    with pytest.raises(ValueError):
        gp_nuclearity(log_np1_weights(), 2, 2)
