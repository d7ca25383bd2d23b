import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cesarolab import finite_type, operators, weights
from cesarolab.ergodic import b_continuity_check
from cesarolab.finite_type import (FiniteTypeWeights, example53_alpha,
                                   ft_cesaro_acts, ft_continuity_criterion,
                                   gp_nuclearity)
from cesarolab.operators import (N_DOUBLE_BINOM, N_EXACT, STEP_OPS,
                                 TriangularOperator, _log_weight_row,
                                 _max_deviation, _weighted_sup_rows,
                                 c0_continuity_test, cesaro_apply,
                                 cesaro_inverse_apply, cesaro_matrix_exact,
                                 conjugate_to_c0, delta_apply, delta_log_abs,
                                 delta_matrix_exact, diff_apply, shift_apply,
                                 step_continuity_test, verify_factorizations,
                                 weighted_norm)
from cesarolab.resolvent import (equicontinuity_probe,
                                 resolvent_norm_bound_check)
from cesarolab.spectrum import classify_spectrum, point_spectrum_test
from cesarolab.weights import (HEAD, PRESET_NAMES, AlphaSequence,
                               WeightFamily, _AveragingScan, _bound_margin,
                               check_delta_criterion, check_lemma22,
                               check_loglog, check_nuclear,
                               check_shift_stable, log_cumsum_exp,
                               make_alpha, make_alpha_from_csv,
                               scan_horizon, scan_verdict)
from test_weights import reference_bounded_verdict

F = Fraction
# the averaging matrix as a lazy lower-triangular operator
AVERAGING = TriangularOperator(lambda n, m: 1.0 / n if m <= n else 0.0)


def fr(seq):
    return [F(v) for v in seq]


# frozen exact oracles

def test_cesaro_basis_vector():
    assert cesaro_apply(fr([1, 0, 0])) == [F(1), F(1, 2), F(1, 3)]


def test_cesaro_squared_basis_vector():
    # two applications to e_1 at N = 3: (1, 3/4, 11/18)
    out = cesaro_apply(cesaro_apply(fr([1, 0, 0])))
    assert out == [F(1), F(3, 4), F(11, 18)]


def test_cesaro_alternating():
    assert cesaro_apply(fr([1, -1, 1, -1])) == [F(1), F(0), F(1, 3), F(0)]


@given(st.lists(st.fractions(max_denominator=50), min_size=1, max_size=12))
@settings(max_examples=50, deadline=None)
def test_cesaro_apply_equals_exact_matrix(x):
    assert cesaro_apply(x) == list(cesaro_matrix_exact(len(x)) @ np.array(
        x, dtype=object))


def test_cesaro_apply_does_not_overflow_int64():
    assert cesaro_apply([2 ** 62, 2 ** 62]) == [2 ** 62, 2 ** 62]


def test_cesaro_inverse_basis_vector():
    # inverse of averaging applied to e_2 at N = 3: (0, 2, -2)
    assert cesaro_inverse_apply(fr([0, 1, 0])) == [F(0), F(2), F(-2)]


def test_inverse_is_left_and_right_inverse():
    x = fr([3, -7, F(1, 2), 11, F(22, 7)])
    assert cesaro_inverse_apply(cesaro_apply(x)) == x
    assert cesaro_apply(cesaro_inverse_apply(x)) == x


def test_delta_row_and_column():
    assert delta_matrix_exact(3)[2].tolist() == [1, -2, 1]
    # column 2 of the involution: -(n-1)
    col = [delta_matrix_exact(4)[n][1] for n in range(4)]
    assert col == [0, -1, -2, -3]


def test_delta_is_involution():
    x = fr([5, -3, F(2, 3), 9, -1, F(1, 7)])
    assert delta_apply(delta_apply(x)) == x


# the hand loops that delta_apply and cesaro_inverse_apply replaced, kept
# as references

def _retired_delta_loop(vals):
    out = []
    for n in range(1, len(vals) + 1):
        acc = 0
        for m in range(1, n + 1):
            c = math.comb(n - 1, m - 1)
            acc = acc + (c if (m % 2) else -c) * vals[m - 1]
        out.append(acc)
    return out


def _retired_inverse_loop(vals):
    out, prev = [], 0
    for n, v in enumerate(vals, start=1):
        out.append(n * v - (n - 1) * prev)
        prev = v
    return out


_INTS = st.integers(-10 ** 20, 10 ** 20)


@given(st.one_of(st.lists(_INTS, max_size=30),
                 st.lists(st.fractions(), max_size=30),
                 st.lists(st.one_of(_INTS, st.fractions()), max_size=30)))
@settings(max_examples=300, deadline=None)
def test_exact_applications_match_retired_loops(x):
    # the involution is the product with its exact section: the same
    # values, and the same Python types for an int or a Fraction vector
    # (a mixed one may turn an int into an equal Fraction)
    for got, want in ((delta_apply(x), _retired_delta_loop(x)),
                      (cesaro_inverse_apply(x), _retired_inverse_loop(x))):
        assert got == want
        if len(set(map(type, x))) == 1:
            assert [type(v) for v in got] == [type(v) for v in want]


def test_delta_log_abs_matches_binomial():
    assert delta_log_abs(10, 4) == pytest.approx(math.log(math.comb(9, 3)))
    assert delta_log_abs(3, 5) == -math.inf


def test_delta_log_abs_array_matches_scalar_lgamma():
    # one lgamma table read elementwise, bit-identical to math.lgamma
    ns = np.arange(0, 300)
    for m in (1, 2, 4, 150):
        row = delta_log_abs(ns, m)
        want = [math.lgamma(n) - math.lgamma(m) - math.lgamma(n - m + 1)
                if n >= m else -math.inf for n in ns]
        assert row.tolist() == want


def test_diff_eigenvector():
    # differentiation fixes (lam^{n-1}/(n-1)!) up to the factor lam
    lam = F(3, 5)
    x = [lam ** n / math.factorial(n) for n in range(8)]
    assert diff_apply(x) == [lam * v for v in x[:-1]]


def test_shift_and_diag():
    assert shift_apply(fr([1, 2])) == [F(0), F(1), F(2)]
    # a diagonal is lower triangular: its truncation is the diagonal matrix
    diag = TriangularOperator(lambda n, m: 1.0 / n if m == n else 0.0)
    assert (diag.truncate(3) == np.diag([1.0, 0.5, 1.0 / 3.0])).all()


def test_factorizations_exact_zero_deviation():
    res = verify_factorizations(16)
    assert res["involution_squared_deviation"] == 0
    assert res["similarity_deviation"] == 0
    assert res["shift_diff_factorization_deviation"] == 0


def test_factorizations_reject_large_n():
    with pytest.raises(ValueError, match="exact tier"):
        verify_factorizations(1000)


@pytest.mark.parametrize("N", [0, -2, N_EXACT + 1])
def test_factorizations_reject_n_outside_the_exact_tier(N):
    # N = 0 and -2 used to reach the matrix product and raise IndexError;
    # N_EXACT + 1 is the first size past the exact tier
    with pytest.raises(ValueError, match="exact tier"):
        verify_factorizations(N)


# the deviation loops that _max_deviation replaced, kept as references

def _retired_identity_deviation(X):
    """max |X - I| over a square matrix, in the arithmetic of X."""
    return max(abs(x - (1 if i == j else 0))
               for i, row in enumerate(X) for j, x in enumerate(row))


def _retired_similarity_loop(sim, ces, N):
    return max(abs(sim[i][j] - ces[i][j])
               for i in range(N) for j in range(N))


def _retired_factorization_loop(lhs, rhs):
    return max((abs(a - b) for a, b in zip(lhs, rhs)), default=Fraction(0))


def _retired_eigen_loop(lhs, rhs):
    return max(abs(a - b) for a, b in zip(lhs, rhs))


_EXACT_ENTRIES = st.one_of(st.integers(-10 ** 30, 10 ** 30), st.fractions())


@st.composite
def _exact_matrix_pair(draw):
    N = draw(st.integers(1, 5))
    rows = st.lists(st.lists(_EXACT_ENTRIES, min_size=N, max_size=N),
                    min_size=N, max_size=N)
    return draw(rows), draw(rows)


@given(_exact_matrix_pair())
@settings(max_examples=200, deadline=None)
def test_max_deviation_matches_retired_matrix_loops(pair):
    X, Y = pair
    N = len(X)
    Xa, Ya = np.array(X, dtype=object), np.array(Y, dtype=object)
    assert _max_deviation(Xa, np.eye(N, dtype=object)) == \
        _retired_identity_deviation(X)
    assert _max_deviation(Xa, Ya) == _retired_similarity_loop(X, Y, N)


@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    *[st.lists(_EXACT_ENTRIES, min_size=n, max_size=n)] * 2)))
@settings(max_examples=200, deadline=None)
def test_max_deviation_matches_retired_vector_loops(pair):
    lhs, rhs = pair
    dev = _max_deviation(lhs, rhs)
    assert dev == _retired_factorization_loop(lhs, rhs)
    if lhs:
        assert dev == _retired_eigen_loop(lhs, rhs)
    else:
        assert dev == 0


def test_involution_check_sees_one_perturbed_entry(monkeypatch):
    # delta + e1 e1^T: delta e1 = (1, ..., 1) and e1^T delta = e1^T, so
    # its square and its similarity product gain a column of ones and
    # 1 + 1 + 1 at (1, 1): both deviations are exactly 3
    exact = operators.delta_matrix_exact

    def perturbed(N):
        delta = exact(N)
        delta[0, 0] += 1
        return delta

    monkeypatch.setattr(operators, "delta_matrix_exact", perturbed)
    res = verify_factorizations(6)
    assert res["involution_squared_deviation"] == 3
    assert res["similarity_deviation"] == 3
    assert res["shift_diff_factorization_deviation"] == 0


def test_similarity_check_sees_one_perturbed_entry(monkeypatch):
    exact = operators.cesaro_matrix_exact

    def perturbed(N):
        ces = exact(N)
        ces[N - 1, 0] += F(1, 7)
        return ces

    monkeypatch.setattr(operators, "cesaro_matrix_exact", perturbed)
    res = verify_factorizations(6)
    assert res["similarity_deviation"] == F(1, 7)
    assert res["involution_squared_deviation"] == 0


def test_shift_diff_check_sees_one_perturbed_entry(monkeypatch):
    exact = operators.cesaro_inverse_apply

    def perturbed(y):
        out = exact(y)
        out[0] += F(1, 5)
        return out

    monkeypatch.setattr(operators, "cesaro_inverse_apply", perturbed)
    res = verify_factorizations(6)
    assert res["shift_diff_factorization_deviation"] == F(1, 5)
    assert res["similarity_deviation"] == 0


def test_truncations_match_exact_matrices():
    # 1.0 / n and float(Fraction(1, n)) are both the rounded quotient
    N = 8
    C = AVERAGING.truncate(N)
    assert C.dtype == complex
    assert (C == np.array(cesaro_matrix_exact(N), dtype=float)).all()


def test_delta_apply_overflow_guard():
    with pytest.raises(OverflowError):
        delta_apply([0] * (N_DOUBLE_BINOM + 1))


# weighted norms

def test_weighted_norm_linear_weights():
    W = WeightFamily(make_alpha("n"))
    # q_1(e_3) = v_1(3) = e^{-3}
    x = [0.0, 0.0, 1.0]
    assert weighted_norm(x, W, 1) == pytest.approx(math.exp(-3.0))
    assert weighted_norm(x, W, 2) == pytest.approx(math.exp(-6.0))


def test_weighted_norm_zero_vector():
    W = WeightFamily(make_alpha("n"))
    assert weighted_norm([0.0, 0.0], W, 1) == 0.0
    assert weighted_norm([], W, 1) == 0.0


def reference_weighted_norm(x, W, k):
    """Term-by-term q_k(x) over Python scalars: the loop weighted_norm
    must reproduce exactly."""
    best = 0.0
    for n, v in enumerate(x, start=1):
        a = abs(v)
        if a == 0:
            continue
        best = max(best, math.exp(W.log_weight(k, n) + math.log(a)))
    return best


_NORM_FAMILIES = {p: WeightFamily(make_alpha(p))
                  for p in ("n", "sqrt_n", "n_pow_n")}
_no_nan = st.one_of(st.sampled_from([-0.0, math.inf, -math.inf]),
                    st.floats(-1e300, 1e300))
_reals = st.one_of(st.just(math.nan), _no_nan)
# CPython's abs(complex) with a NaN part reads a stale errno and raises
# OverflowError after an underflowing math.exp, so the reference loop
# only gets NaN parts through NumPy complex scalars (complex_array).
_NORM_ELEMENTS = {
    "float": (float, _reals),
    "float_array": (float, _reals),
    "complex": (complex, st.builds(complex, _no_nan, _no_nan)),
    "complex_array": (complex, st.builds(complex, _reals, _reals)),
    "fraction": (object, st.fractions(-10 ** 6, 10 ** 6,
                                      max_denominator=10 ** 6)),
}


@st.composite
def _norm_inputs(draw):
    """Vectors of up to 200 entries, mostly zeros, of every input type."""
    kind = draw(st.sampled_from(sorted(_NORM_ELEMENTS)))
    dtype, elements = _NORM_ELEMENTS[kind]
    zero = F(0) if dtype is object else dtype(0)
    arr = draw(hnp.arrays(dtype, st.integers(0, 200), elements=elements,
                          fill=st.just(zero)))
    return arr if kind.endswith("_array") else arr.tolist()


@given(_norm_inputs(), st.sampled_from(sorted(_NORM_FAMILIES)),
       st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_weighted_norm_equals_reference_loop(x, preset, k):
    W = _NORM_FAMILIES[preset]
    got = weighted_norm(x, W, k)
    assert type(got) is float
    assert got == reference_weighted_norm(x, W, k)


@pytest.mark.parametrize("preset", sorted(_NORM_FAMILIES))
def test_weighted_sup_rows_term_by_term(preset):
    # one nonzero entry per row, so each row's q_k is a single term and a
    # last-bit change in |x|, log or exp shows (np.abs, np.log and np.exp
    # all differ from Python's abs and math on some of these values)
    W = _NORM_FAMILIES[preset]
    rng = np.random.default_rng(5)
    rows, N = 4000, 160
    scale = np.where(np.arange(rows) % 2, 10.0 ** rng.uniform(-300, 300, rows),
                     rng.uniform(0.5, 2.0, rows))
    block = np.zeros((rows, N), dtype=complex)
    block[np.arange(rows), rng.integers(0, N, rows)] = scale * (
        rng.standard_normal(rows) + 1j * rng.standard_normal(rows))
    # np.log differs from math.log too rarely for random rows to hit it:
    # add rows holding moduli where it does, in the first column
    cand = rng.uniform(0.5, 2.0, 20_000)
    odd = cand[np.log(cand) != list(map(math.log, cand.tolist()))]
    extra = np.zeros((len(odd), N), dtype=complex)
    extra[:, 0] = odd
    block = np.vstack([block, extra])
    lw = _log_weight_row(W, 1, N)
    assert _weighted_sup_rows(block, lw) == [
        reference_weighted_norm(row, W, 1) for row in block]


def test_weighted_norm_n_pow_n_tail_is_minus_inf():
    # log v_k(n) = -inf from n = 144: a finite entry there adds 0, an
    # infinite one gives -inf + inf = NaN, which is ignored
    W = _NORM_FAMILIES["n_pow_n"]
    assert W.log_weight(1, 144) == -math.inf
    x = [0.0] * 143 + [1.0, math.inf]
    assert weighted_norm(x, W, 1) == 0.0 == reference_weighted_norm(x, W, 1)
    x[0] = 2.0
    assert weighted_norm(x, W, 1) == reference_weighted_norm(x, W, 1) > 0


def _odd_moduli(rng, count):
    """Moduli in [0.5, 2) where np.log and math.log round differently."""
    cand = rng.uniform(0.5, 2.0, count)
    return cand[np.log(cand) != list(map(math.log, cand.tolist()))]


def _top_ranked_only(block, lw):
    """q_k from each row's NumPy-ranked top term alone: what the kernel
    would give without its guard."""
    with np.errstate(divide="ignore"):
        top = np.argmax(lw + np.log(np.abs(block)), axis=1)
    return [math.exp(lw[c] + math.log(abs(row[c])))
            for row, c in zip(block, top)]


def test_weighted_sup_rows_near_ties():
    # two terms per row within two ulp of each other, one of them at a
    # modulus where np.log is off by an ulp: log v_k near 0 keeps that
    # ulp visible in the sum, so the NumPy ranking picks the smaller
    # term on some rows and only the guard's re-evaluation gets them
    W = WeightFamily(make_alpha(lambda n: 1e-3 * n, name="slow"))
    N = 8
    lw = _log_weight_row(W, 1, N)
    rng = np.random.default_rng(7)
    odd = _odd_moduli(rng, 200_000)
    block = np.zeros((len(odd), N))
    for row, x in zip(block, odd):
        i, j = rng.choice(N, 2, replace=False)
        row[i] = x
        row[j] = x * math.exp(lw[i] - lw[j]) * (
            1 + int(rng.integers(-2, 3)) * 2.0 ** -53)
    want = [reference_weighted_norm(row, W, 1) for row in block]
    assert _weighted_sup_rows(block, lw) == want
    assert _weighted_sup_rows(block.astype(complex), lw) == want
    assert _top_ranked_only(block, lw) != want


def _python_sup(row, lw):
    """max over the nonzero entries of exp(lw_c + log|x_c|), in Python."""
    return max((math.exp(float(w) + math.log(abs(complex(x))))
                for w, x in zip(lw, row) if x != 0), default=0.0)


def test_weighted_sup_rows_ranks_complex_moduli_by_np_abs():
    # the rank reads np.abs, which differs from abs (np.hypot) in the
    # last bits, most among subnormal moduli; two near-tied terms per row
    # from moduli where the two differ, normal ones under log v = 0 and
    # subnormal ones under log v = 700, whose terms are normal again
    rng = np.random.default_rng(17)
    z = rng.standard_normal(300_000) + 1j * rng.standard_normal(300_000)
    head = z[:5000]
    odd = head[np.abs(head) != np.hypot(head.real, head.imag)]
    tiny = z * 10.0 ** rng.uniform(-313, -309, len(z))
    tiny = tiny[np.abs(tiny) != np.hypot(tiny.real, tiny.imag)]
    N = 6
    blocks = []
    for pool, log_v in ((odd, 0.0), (tiny, 700.0)):
        assert len(pool) > 300
        block = np.zeros((len(pool), N), dtype=complex)
        for row, x in zip(block, pool):
            i, j = rng.choice(N, 2, replace=False)
            # x turned a quarter, its real part moved by up to two ulp
            y = x * 1j
            for _ in range(int(rng.integers(0, 3))):
                y = complex(np.nextafter(y.real, rng.choice([-1, 1])
                                         * math.inf), y.imag)
            row[i], row[j] = x, y
        lw = np.full(N, log_v)
        got = _weighted_sup_rows(block, lw)
        assert got == [_python_sup(row, lw) for row in block]
        assert _top_ranked_only(block, lw) != got  # the guard is needed
        blocks.append(got)
    assert min(blocks[1]) > np.finfo(float).tiny


def test_weighted_sup_rows_below_the_normal_range():
    # every row's largest term is below log DBL_MIN ~ -708.4, where exp
    # is subnormal and nearby terms can round alike
    W = _NORM_FAMILIES["n"]
    N = 40
    lw = _log_weight_row(W, 1, N)
    rng = np.random.default_rng(9)
    rows = 3000
    block = np.zeros((rows, N))
    for row in block:
        cols = rng.choice(N, 4, replace=False)
        # terms lw_c + log|x_c| in [-745, -709]
        row[cols] = np.exp(rng.uniform(-745.0, -709.0, 4) - lw[cols])
    got = _weighted_sup_rows(block, lw)
    assert got == [reference_weighted_norm(row, W, 1) for row in block]
    assert max(got) < np.finfo(float).tiny
    assert 0 < min(got)


def test_weighted_sup_rows_infinite_and_nan_entries():
    W = _NORM_FAMILIES["n_pow_n"]
    N = 150  # log v_k(n) = -inf from n = 144
    lw = _log_weight_row(W, 1, N)
    rng = np.random.default_rng(11)
    specials = np.array([math.inf, -math.inf, math.nan, 0.0, 1.0, 1e300,
                         5e-324])
    block = np.zeros((2000, N), dtype=complex)
    for row in block:
        cols = rng.choice(N, 5, replace=False)
        row.real[cols] = rng.choice(specials, 5)
        row.imag[cols] = rng.choice(specials, 5)
        row[rng.integers(0, N)] = rng.standard_normal()
    want = [reference_weighted_norm(row, W, 1) for row in block]
    assert _weighted_sup_rows(block, lw) == want
    assert math.inf in want and 0.0 in want
    real = block.real.copy()
    assert _weighted_sup_rows(real, lw) == [
        reference_weighted_norm(row, W, 1) for row in real]


def test_weighted_sup_rows_fraction_block():
    W = _NORM_FAMILIES["sqrt_n"]
    N = 30
    lw = _log_weight_row(W, 2, N)
    rng = np.random.default_rng(13)
    block = np.array([[F(int(a), int(b)) for a, b in
                       zip(rng.integers(-10 ** 6, 10 ** 6, N),
                           rng.integers(1, 10 ** 6, N))]
                      for _ in range(50)] + [[F(0)] * N], dtype=object)
    assert _weighted_sup_rows(block, lw) == [
        reference_weighted_norm(row, W, 2) for row in block]


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1,
                max_size=20),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_weighted_norm_decreases_in_k(coords, k):
    W = WeightFamily(make_alpha("n"))
    x = [float(c) for c in coords]
    assert weighted_norm(x, W, k + 1) <= weighted_norm(x, W, k) + 1e-15


@given(st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 20)),
                min_size=1, max_size=15))
@settings(max_examples=60, deadline=None)
def test_cesaro_inverse_roundtrip_property(pairs):
    x = [F(a, b) for a, b in pairs]
    assert cesaro_inverse_apply(cesaro_apply(x)) == x


# conjugation and continuity

def test_conjugate_entries():
    W = WeightFamily(make_alpha("n"))
    A = conjugate_to_c0(AVERAGING, W, 1, 2)
    # entry (2,1): (1/2) e^{-2*2 + 1*1}
    assert A.entry(2, 1) == pytest.approx(0.5 * math.exp(-3.0))
    assert A.entry(1, 2) == 0.0


def test_conjugate_requires_l_ge_k():
    W = WeightFamily(make_alpha("n"))
    with pytest.raises(ValueError, match="^l must be >= 3, got 1$"):
        conjugate_to_c0(AVERAGING, W, 3, 1)


@pytest.mark.parametrize("horizon, col_check, message", [
    (5, 0, "col_check must be >= 1, got 0"),
    (-5, -3, "col_check must be >= 1, got -3"),
    (2, 3, "horizon must be >= 3, got 2")])
def test_c0_continuity_test_needs_a_column_within_the_horizon(
        horizon, col_check, message):
    # no column, or a column past the last row, has no decay to check
    with pytest.raises(ValueError, match=f"^{message}$"):
        c0_continuity_test(AVERAGING, horizon, col_check)


def test_c0_continuity_conjugated_cesaro():
    W = WeightFamily(make_alpha("n"))
    A = conjugate_to_c0(AVERAGING, W, 1, 1)
    res = c0_continuity_test(A, horizon=300, col_check=3)
    assert res["continuous_evidence"]
    assert res["row_sup"] < 10.0


def test_step_continuity_criteria_linear_alpha():
    W = WeightFamily(make_alpha("n"))
    assert step_continuity_test("cesaro", W, 1, 2).status == "holds"
    assert step_continuity_test("cesaro_inverse", W, 1, 2).status == "holds"
    assert step_continuity_test("diff", W, 1, 2).status == "holds"
    assert step_continuity_test("shift", W, 1, 1).status == "holds"
    assert step_continuity_test("delta", W, 1, 4,
                                horizon=2000).status == "holds"


def _delta_log_row_sums(W, k, l, ns, log_binom):
    """Reference row sums of the delta criterion, one element at a time."""
    lw_l = W.log_weights(l, ns)
    lw_k = W.log_weights(k, ns)
    out = np.empty(ns.size)
    for i, n in enumerate(ns):
        terms = np.array([lw_l[i] - lw_k[m - 1] + log_binom(int(n), m)
                          for m in range(1, n + 1)])
        top = np.max(terms)
        out[i] = top + math.log(np.sum(np.exp(terms - top)))
    return out


@pytest.mark.parametrize("preset", ["n", "sqrt_n"])
@pytest.mark.parametrize("k,l", [(1, 2), (1, 4)])
def test_delta_criterion_matches_elementwise_reference(preset, k, l):
    W = WeightFamily(make_alpha(preset))
    ns = np.arange(1, 61)
    v = step_continuity_test("delta", W, k, l, horizon=60)

    # the same lgamma values, subtracted in the same order: bit-identical
    exact = _delta_log_row_sums(
        W, k, l, ns, lambda n, m: (math.lgamma(n) - math.lgamma(m))
        - math.lgamma(n - m + 1))
    assert v.sup_value == float(np.exp(np.max(exact)))

    # an independent reference from exact binomials
    ref = reference_bounded_verdict(_delta_log_row_sums(
        W, k, l, ns, lambda n, m: math.log(math.comb(n - 1, m - 1))), ns, 60)
    assert (v.status, v.witness_index) == (ref.status, ref.witness_index)
    assert v.sup_value == pytest.approx(ref.sup_value, rel=1e-12)


def _retired_delta_rows(lw_k, lw_l, log_n):
    """The per-row loop that the windowed delta rows replaced: every
    term of every row, summed by log-sum-exp."""
    ns = np.arange(1, len(log_n) + 1)
    lg = operators._lgamma_table(1 << len(ns).bit_length())
    out = []
    for n in ns.tolist():
        terms = lw_l[n - 1] - lw_k[:n] + (lg[n] - lg[ns[:n]]
                                          - lg[n - ns[:n] + 1])
        top = np.max(terms)
        out.append(float(top + math.log(np.sum(np.exp(terms - top)))))
    return np.array(out)


def _delta_scan(alpha, k, l, horizon):
    """The delta criterion's inputs, as step_continuity_test builds them."""
    W = WeightFamily(alpha)
    h = scan_horizon(alpha, horizon, tail=1, step=l)
    alpha_ns = alpha.values(np.arange(1, h + 2))
    ns = np.arange(1, h + 1)
    return (W.step_log_weights(k, alpha_ns), W.step_log_weights(l, alpha_ns),
            np.log(ns.astype(float))), ns


def _assert_rows_close(got, want):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("preset", PRESET_NAMES)
@pytest.mark.parametrize("k,l", [(1, 2), (1, 3), (2, 3), (2, 4)])
def test_delta_window_matches_retired_loop(preset, k, l):
    args, ns = _delta_scan(make_alpha(preset), k, l, 10 ** 3)
    got, want = operators._delta_rows(*args), _retired_delta_rows(*args)
    _assert_rows_close(got, want)
    v, ref = scan_verdict(got, ns), scan_verdict(want, ns)
    assert (v.status, v.witness_index) == (ref.status, ref.witness_index)
    assert v == step_continuity_test("delta", WeightFamily(make_alpha(
        preset)), k, l, horizon=10 ** 3)


# increments of a non-decreasing table: plateaus, slow rises and jumps
_increments = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.05),
                                 st.floats(1.0, 8.0)), min_size=1,
                       max_size=299)


@given(_increments, st.integers(0, 298), st.floats(20.0, 200.0),
       st.sampled_from([(1, 1), (1, 2), (2, 3), (1, 4)]))
@settings(max_examples=60, deadline=None)
def test_delta_window_on_stepped_tables(steps, at, jump, kl):
    # a jump right of a row's mode moves the row's largest term away
    # from the mode, where only the right bound k alpha_n still holds
    incs = np.array(steps)
    incs[at % len(incs)] += jump
    table = np.concatenate([[0.5], 0.5 + np.cumsum(incs)])
    alpha = AlphaSequence("stepped", lambda n: table[n - 1],
                          max_index=len(table))
    args, ns = _delta_scan(alpha, *kl, len(table))
    _assert_rows_close(operators._delta_rows(*args),
                       _retired_delta_rows(*args))


@pytest.mark.parametrize("preset", ["n", "sqrt_n", "log_n"])
def test_delta_sup_past_double_range_is_inf(preset):
    # binom(n-1, m-1) sums to 2^(n-1): the log supremum passes log
    # DBL_MAX, and the supremum is inf, not e^709
    v = step_continuity_test("delta", WeightFamily(make_alpha(preset)), 1, 1,
                             horizon=3000)
    assert v.status == "fails"
    assert v.sup_value == math.inf


def test_step_continuity_divergent_case():
    # for alpha_n = log n the inverse criterion sup n v_l(n)/v_k(n)
    # = sup n^{1 - (l - k)} diverges only when l = k; n^0 stays flat
    W = WeightFamily(make_alpha("log_n"))
    v = step_continuity_test("cesaro_inverse", W, 1, 1)
    assert v.status == "fails"


def test_step_continuity_unknown_operator():
    W = WeightFamily(make_alpha("n"))
    with pytest.raises(ValueError, match="mystery") as err:
        step_continuity_test("mystery", W, 1, 2)
    assert str(STEP_OPS) in str(err.value)


@pytest.mark.parametrize("op", STEP_OPS)
@pytest.mark.parametrize("horizon", [0, -3])
def test_step_continuity_empty_scan_rejected(op, horizon):
    for preset in ("n", "appendix_5_3"):
        W = WeightFamily(make_alpha(preset))
        with pytest.raises(ValueError, match="empty scan"):
            step_continuity_test(op, W, 1, 2, horizon=horizon)


def test_scans_capped_at_a_file_alpha(tmp_path):
    # ten values: a scan reading alpha_{n+1} stops at n = 9, every other
    # scan at n = 10, whatever horizon is asked for
    path = tmp_path / "alpha.csv"
    path.write_text("".join(f"{n},{n * 2.0}\n" for n in range(1, 11)))
    alpha = make_alpha_from_csv(str(path))
    W = WeightFamily(alpha)
    assert scan_horizon(alpha, 10 ** 4) == 10
    assert scan_horizon(alpha, 10 ** 4, tail=1) == 9
    assert scan_horizon(alpha, 5, tail=1) == 5
    assert scan_horizon(make_alpha("n"), 10 ** 4, tail=1) == 10 ** 4
    for op in STEP_OPS:
        assert step_continuity_test(op, W, 1, 2).horizon == 9
    assert b_continuity_check(W, 1).horizon == 9
    assert check_shift_stable(alpha).horizon == 9
    for check in (check_nuclear, check_delta_criterion, check_loglog):
        assert check(alpha).horizon == 10
    assert check_lemma22(alpha, 1.0)[1].horizon == 10
    assert point_spectrum_test(2, W).horizon == 10
    assert gp_nuclearity(W, 1, 2).horizon == 10
    ftw = FiniteTypeWeights(alpha)
    assert ft_continuity_criterion(ftw, 1, 2).horizon == 10
    assert equicontinuity_probe(2.0, 0.05, W, 1)["horizon"] == 10
    assert resolvent_norm_bound_check(2.0, W, 1)["horizon"] == 10


_N_POW_N = WeightFamily(make_alpha("n_pow_n"))


def test_scan_horizon_caps_where_step_alpha_overflows(tmp_path):
    # alpha_143 of n_pow_n is a double, 2 alpha_143 is not, and alpha_144
    # overflows by itself
    alpha = _N_POW_N.alpha
    assert scan_horizon(alpha, 10 ** 5) == 143
    assert scan_horizon(alpha, 10 ** 5, step=65) == 142
    assert scan_horizon(alpha, 10 ** 5, tail=1, step=4) == 141
    assert scan_horizon(alpha, 100, step=65) == 100
    # indices are int64: a larger horizon stops at its last value
    assert scan_horizon(make_alpha("n"), 10 ** 20) == 2 ** 63 - 1
    assert scan_horizon(make_alpha("n"), 10 ** 20, tail=1) == 2 ** 63 - 2
    generator = make_alpha(lambda n: float(n) if n < 50 else math.inf)
    assert scan_horizon(generator, 10 ** 4) == 49
    assert scan_horizon(generator, 10 ** 4, tail=1) == 48
    assert step_continuity_test("shift", WeightFamily(generator), 1,
                                2).horizon == 48
    # the last row is a double, twice it is not
    path = tmp_path / "alpha.csv"
    path.write_text("1,1.0\n2,2.0\n3,3.0\n4,1e308\n")
    table = make_alpha_from_csv(str(path))
    assert scan_horizon(table, 100) == 4
    assert scan_horizon(table, 100, step=2) == 3
    assert scan_horizon(table, 100, tail=1) == 3
    assert scan_horizon(table, 100, tail=1, step=2) == 2


def test_scan_horizon_rejects_a_cap_leaving_no_index(tmp_path):
    path = tmp_path / "alpha.csv"
    path.write_text("1,1e308\n2,1.5e308\n")
    table = make_alpha_from_csv(str(path))
    assert scan_horizon(table, 10) == 2
    with pytest.raises(ValueError, match="empty scan: 65 \\* alpha_1"):
        scan_horizon(table, 10, step=65)
    with pytest.raises(ValueError, match="empty scan"):
        equicontinuity_probe(2.0, 0.05, WeightFamily(table), 1)


_W_N = WeightFamily(make_alpha("n"))
_LOG_NP1 = FiniteTypeWeights(make_alpha("log_n_plus_1"))
# every public scan, as a function of its horizon
_SCANS = {
    "check_nuclear": lambda h: check_nuclear(_W_N.alpha, h),
    "check_shift_stable": lambda h: check_shift_stable(_W_N.alpha, h),
    "check_delta_criterion": lambda h: check_delta_criterion(_W_N.alpha, h),
    "check_loglog": lambda h: check_loglog(_W_N.alpha, h),
    "check_lemma22": lambda h: check_lemma22(_W_N.alpha, 1.0, h),
    "classify_spectrum": lambda h: classify_spectrum(_W_N.alpha, h),
    "point_spectrum_test m=1": lambda h: point_spectrum_test(1, _W_N, h),
    "point_spectrum_test m=2": lambda h: point_spectrum_test(2, _W_N, h),
    "step_continuity_test": lambda h: step_continuity_test("cesaro", _W_N,
                                                           1, 2, h),
    "b_continuity_check": lambda h: b_continuity_check(_W_N, 1, h),
    "equicontinuity_probe": lambda h: equicontinuity_probe(
        2.0, 0.05, _W_N, 1, horizon=h),
    "resolvent_norm_bound_check": lambda h: resolvent_norm_bound_check(
        2.0, _W_N, 1, horizon=h),
    "ft_continuity_criterion": lambda h: ft_continuity_criterion(
        _LOG_NP1, 1, 2, h),
    "ft_cesaro_acts": lambda h: ft_cesaro_acts(_LOG_NP1, h),
    "ft_cesaro_acts staircase": lambda h: ft_cesaro_acts(
        FiniteTypeWeights(example53_alpha()), h),
    "gp_nuclearity": lambda h: gp_nuclearity(_W_N, 1, 2, h),
}


@pytest.mark.parametrize("scan", sorted(_SCANS))
@pytest.mark.parametrize("horizon", [0, -5])
def test_every_scan_refuses_a_horizon_with_no_index(scan, horizon):
    # one guard, in scan_horizon: no scan indexes an empty range, and none
    # gives a verdict from no index
    with pytest.raises(ValueError, match="^empty scan: the horizon leaves "
                                         "no index to scan$"):
        _SCANS[scan](horizon)


# every scan between steps k and l, as a function of k
_STEP_PAIR_SCANS = {
    **{f"step_continuity_test {op}":
       (lambda k, op=op: step_continuity_test(op, _W_N, k, k, 100))
       for op in STEP_OPS},
    "gp_nuclearity": lambda k: gp_nuclearity(_W_N, k, k + 1, 100),
    "b_continuity_check": lambda k: b_continuity_check(_W_N, k, 100),
    "conjugate_to_c0": lambda k: conjugate_to_c0(AVERAGING, _W_N, k, k),
    "ft_continuity_criterion":
        lambda k: ft_continuity_criterion(_LOG_NP1, k, k + 1, 100),
    "equicontinuity_probe":
        lambda k: equicontinuity_probe(2.0, 0.05, _W_N, k, horizon=100),
    "resolvent_norm_bound_check":
        lambda k: resolvent_norm_bound_check(2.0, _W_N, k, horizon=100),
}


@pytest.mark.parametrize("scan", sorted(_STEP_PAIR_SCANS))
@pytest.mark.parametrize("k", [0, -1])
def test_every_step_pair_scan_refuses_a_step_below_1(scan, k):
    # the weight families are indexed from k = 1: a step pair below it is
    # no evidence either way
    with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
        _STEP_PAIR_SCANS[scan](k)


def test_scan_horizon_refuses_a_finite_alpha_with_no_index():
    one_row = AlphaSequence("one_row", lambda n: 1.0,
                            vec_log_fn=lambda ns: np.zeros(len(ns)),
                            max_index=1)
    assert scan_horizon(one_row, 10) == 1
    with pytest.raises(ValueError, match="^empty scan: the horizon"):
        scan_horizon(one_row, 10, tail=1)


@pytest.mark.parametrize("k, l", [(1, 2), (1, 3), (2, 3), (2, 4)])
def test_n_pow_n_step_criteria_decide_as_the_paper(k, l):
    # n_pow_n is nuclear and not shift stable: every map of the table but
    # differentiation is continuous c0(v_k) -> c0(v_l)
    for op in STEP_OPS:
        v = step_continuity_test(op, _N_POW_N, k, l)
        assert (v.status, v.horizon) == (
            "fails" if op == "diff" else "holds", 141)
    v = step_continuity_test("delta", _N_POW_N, k, l, horizon=1000)
    assert v.status == "holds"


def test_every_scan_on_n_pow_n_stops_before_overflow():
    # each scan stops where its largest step times alpha leaves double
    # range, so none meets -inf - (-inf) (the suite fails on the warning)
    W = _N_POW_N
    assert b_continuity_check(W, 1).horizon == 141
    assert gp_nuclearity(W, 1, 2).status == "holds"
    assert gp_nuclearity(W, 1, 2).horizon == 142
    m, v = check_lemma22(W.alpha, 1.0)
    assert (m, v.status, v.horizon) == (1, "holds", 142)
    v = point_spectrum_test(2, W)
    assert (v.status, v.horizon) == ("holds", 142)
    probe = equicontinuity_probe(0.4 + 0.2j, 0.05, W, 1, samples=4)
    assert (probe["verdict"], probe["horizon"]) == ("bounded", 142)
    bound = resolvent_norm_bound_check(2.0, W, 2)
    assert bound["bounded"] and bound["horizon"] == 142


# the rows of the step criteria before they read one alpha array, kept
# as the reference (log v from W.log_weights per index array); its
# prefix log-sum-exp is the package's one kernel, as in the rows tested
_OLD_STEP_ROWS = {
    "cesaro": lambda W, k, l, ns, log_n: (
        W.log_weights(l, ns) - log_n
        + log_cumsum_exp(-W.log_weights(k, ns))),
    "cesaro_inverse": lambda W, k, l, ns, log_n: (
        log_n + W.log_weights(l, ns) - W.log_weights(k, ns)),
    "diff": lambda W, k, l, ns, log_n: (
        log_n + W.log_weights(l, ns) - W.log_weights(k, ns + 1)),
    "shift": lambda W, k, l, ns, log_n: (
        W.log_weights(l, ns + 1) - W.log_weights(k, ns)),
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_one_alpha_array_matches_log_weights(name):
    W = WeightFamily(make_alpha(name))
    h = 10 ** 5
    ns = np.arange(1, h + 1)
    alpha_ns = W.alpha.values(np.arange(1, h + 2))
    for k in range(1, 5):
        lw = W.step_log_weights(k, alpha_ns)
        assert lw[:-1].tobytes() == W.log_weights(k, ns).tobytes()
        assert lw[1:].tobytes() == W.log_weights(k, ns + 1).tobytes()
    h = scan_horizon(W.alpha, 10 ** 4, tail=1, step=4)
    ns = np.arange(1, h + 1)
    log_n = np.log(ns.astype(float))
    alpha_ns = W.alpha.values(np.arange(1, h + 2))
    for k, l in ((1, 2), (2, 4)):
        lw_k = W.step_log_weights(k, alpha_ns)
        lw_l = W.step_log_weights(l, alpha_ns)
        for op, old in _OLD_STEP_ROWS.items():
            new = (_AveragingScan(W, h)._rows(k, l, h) if op == "cesaro"
                   else operators._STEP_ROWS[op](lw_k, lw_l, log_n))
            assert new.tobytes() == old(W, k, l, ns, log_n).tobytes()


@given(st.integers(min_value=2, max_value=40))
@settings(max_examples=30, deadline=None)
def test_triangularity_preserved(n):
    # averaging never looks ahead: truncation commutes with application
    x = [float(i + 1) for i in range(n)]
    full = cesaro_apply(x + [99.0, -99.0])
    assert full[:n] == cesaro_apply(x)


# ---------------------------------------------------------------------------
# the certified single-sweep criteria

_CERTIFIED_OPS = ("cesaro", "cesaro_inverse", "diff", "shift")
_CERTIFIED_KL = ((1, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5))
# 40959 and 40960 straddle the least horizon with a certificate, 10 HEAD
_CERTIFIED_HORIZONS = (40959, 40960, 10 ** 5, 3 * 10 ** 5)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_certified_step_is_the_dense_one(preset, monkeypatch):
    # every verdict equals the dense scan's; where a certificate is
    # tried, the head rows are the dense rows bit for bit and each block
    # bound plus the margin is at least every dense row of its block
    W = WeightFamily(make_alpha(preset))
    lw = W.step_log_weights
    certified = 0
    for h, (k, l) in itertools.product(_CERTIFIED_HORIZONS, _CERTIFIED_KL):
        top = scan_horizon(W.alpha, h, tail=1, step=l)
        alpha = W.alpha.values(np.arange(1, top + 2))
        log_n = np.log(np.arange(1.0, top + 1))
        ends = weights._block_ends(HEAD, top)
        for op in _CERTIFIED_OPS:
            with monkeypatch.context() as m:
                for module in (weights, operators):
                    m.setattr(module, "_certified_holds", lambda *a: None)
                dense = step_continuity_test(op, W, k, l, h)
            got = step_continuity_test(op, W, k, l, h)
            assert repr(got) == repr(dense), (op, k, l, h)
            if top // 10 < HEAD:
                continue
            if op == "cesaro":  # the one averaging scan, dense to 1e6
                scan = _AveragingScan(W, top)
                certified += scan._certified(k, l) is not None
                head, bound = np.split(scan._rows(k, l, HEAD), [HEAD])
                margin = _bound_margin(W, k, l, alpha[top - 1], top)
                rows = (lw(l, alpha[:-1]) - log_n
                        + log_cumsum_exp(-lw(k, alpha[:-1])))
            else:
                reads = weights._AlphaReads(W.alpha, top + 1, ends, range(3))
                head, ns, _, bounds = operators._step_certificate(
                    op, W, k, l, reads, ends)
                certified += weights._certified_holds(
                    head, ns, top, bounds) is not None
                rows = operators._STEP_ROWS[op](lw(k, alpha), lw(l, alpha),
                                                log_n)
                bound, margin = bounds()
            assert head.tobytes() == rows[:HEAD].tobytes()
            # the rows n in (a, b] sit at a..b - 1
            block_max = np.maximum.reduceat(rows, ends[:-1])
            assert np.all(block_max <= bound + margin), (op, k, l, h)
    # the nuclear presets grow fast enough for most steps to certify
    assert certified > 0 or preset in ("n_pow_n", "logloglog_n")


def test_certified_averaging_step_sums_the_head_once(monkeypatch):
    # the block bounds start from the head's last prefix sum, not from a
    # second sum over the head
    lengths = []
    kernel = weights.log_cumsum_exp

    def counting(t):
        lengths.append(len(t))
        return kernel(t)

    for module in (weights, operators, finite_type):
        if hasattr(module, "log_cumsum_exp"):
            monkeypatch.setattr(module, "log_cumsum_exp", counting)
    v = step_continuity_test("cesaro", _W_N, 1, 2, 10 ** 5)
    assert v.status == "holds"
    assert lengths.count(HEAD) == 1 and max(lengths) == HEAD
