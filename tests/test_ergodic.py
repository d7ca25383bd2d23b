import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesarolab import ergodic
from cesarolab.ergodic import (cesaro_means, decomposition_split,
                               b_continuity_check, iterates_limit_check,
                               power_apply, power_bounded_check,
                               range_inverse_matrices)
from cesarolab.operators import cesaro_apply, weighted_norm
from cesarolab.weights import WeightFamily, make_alpha
from test_operators import reference_weighted_norm

F = Fraction


def test_power_apply_matches_repeated_application():
    x = [1.0, -2.0, 3.0, 0.5]
    once = power_apply(x, 1)
    twice = power_apply(x, 2)
    direct = [complex(v) for v in cesaro_apply(cesaro_apply(x))]
    assert np.allclose(once, [complex(v) for v in cesaro_apply(x)])
    assert np.allclose(twice, direct)
    with pytest.raises(ValueError):
        power_apply(x, 0)


def test_cesaro_means_average_of_iterates():
    x = [2.0, 0.0, -1.0]
    m1 = power_apply(x, 1)
    m2 = power_apply(x, 2)
    mean = cesaro_means(x, 2)
    assert np.allclose(mean, (np.array(m1) + np.array(m2)) / 2.0)
    with pytest.raises(ValueError):
        cesaro_means(x, 0)


@pytest.mark.parametrize("name", ["n", "log_n", "sqrt_n"])
def test_power_bounded_contraction(name):
    W = WeightFamily(make_alpha(name))
    res = power_bounded_check(W, k=1, trials=10, m_max=100, N=30, seed=3)
    assert res["passed"]
    assert res["worst_ratio"] <= 1.0 + 1e-9


def reference_power_bounded(W, k, trials, m_max, N, seed, slack=1e-10):
    """One weighted norm per iterate, term by term."""
    rng = np.random.default_rng(seed)
    worst, failures = 0.0, 0
    for _ in range(trials):
        x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        q0 = reference_weighted_norm(x, W, k)
        v = x
        for _ in range(m_max):
            v = np.cumsum(v) / np.arange(1, N + 1)
            q = reference_weighted_norm(v, W, k)
            worst = max(worst, q / q0 if q0 > 0 else 0.0)
            failures += q > q0 * (1.0 + slack)
    return worst, failures


def reference_iterates(x, W, k, N, tol, m_cap):
    v = np.asarray(x, dtype=complex)[:N]
    limit = np.full(N, v[0], dtype=complex)
    distances = []
    for _ in range(m_cap):
        v = np.cumsum(v) / np.arange(1, N + 1)
        distances.append(reference_weighted_norm(v - limit, W, k))
        if distances[-1] < tol:
            return distances, "converged"
    return distances, "not_converged"


@pytest.mark.parametrize("name", ["n", "sqrt_n", "n_pow_n"])
@pytest.mark.parametrize("seed", [0, 11])
def test_checks_equal_reference_loops(name, seed):
    W = WeightFamily(make_alpha(name))
    res = power_bounded_check(W, k=2, trials=4, m_max=60, N=160, seed=seed)
    assert (res["worst_ratio"], res["failures"]) == reference_power_bounded(
        W, 2, 4, 60, 160, seed)
    x = np.random.default_rng(seed).standard_normal(160)
    for tol, m_cap in ((1e-8, 10 ** 4), (0.0, 40)):
        trace = iterates_limit_check(x, W, 1, 160, tol=tol, m_cap=m_cap)
        distances, status = reference_iterates(x, W, 1, 160, tol, m_cap)
        assert trace.distances == distances
        assert trace.status == status
        assert trace.m_values == list(range(1, len(distances) + 1))


def test_decomposition_split_exact():
    x = [F(3), F(1, 2), F(-5)]
    y, z = decomposition_split(x)
    assert y == [F(3)] * 3
    assert z == [F(0), F(-5, 2), F(-8)]
    assert [a + b for a, b in zip(y, z)] == x
    assert decomposition_split([]) == ([], [])


@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1,
                max_size=20))
@settings(max_examples=60, deadline=None)
def test_decomposition_idempotent(coords):
    y, z = decomposition_split(coords)
    y2, z2 = decomposition_split(y)
    assert y2 == y
    assert all(v == 0 for v in z2)
    assert z[0] == 0


def test_iterates_converge_to_projection():
    W = WeightFamily(make_alpha("n"))
    e1 = [1.0] + [0.0] * 9
    trace = iterates_limit_check(e1, W, k=1, N=10, tol=1e-6)
    assert trace.status == "converged"
    assert trace.distances[-1] < 1e-6
    # distances decrease once the transient passes
    assert trace.distances[-1] < trace.distances[0]


def test_iterates_trace_csv():
    W = WeightFamily(make_alpha("n"))
    trace = iterates_limit_check([1.0, 1.0], W, k=1, N=2, tol=1e-10)
    buf = io.StringIO()
    trace.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "m,distance"
    assert len(lines) == len(trace.m_values) + 1


def test_iterates_limit_is_constant_vector():
    # x with x_1 = c converges to (c, c, ..., c)
    W = WeightFamily(make_alpha("n"))
    x = [2.0, -1.0, 5.0, 0.0]
    v = np.array(power_apply(x, 400, N=4))
    assert np.allclose(v, 2.0, atol=1e-4)


def test_range_inverse_exact_identity():
    A, B, residual = range_inverse_matrices(10)
    assert residual == 0
    assert B[0][0] == F(2)
    assert B[1][0] == F(1)
    assert B[1][1] == F(3, 2)
    assert A[0][0] == F(1, 2)
    # strict upper parts vanish
    assert A[0][1] == 0 and B[0][1] == 0


@pytest.mark.parametrize("N", range(1, 13))
def test_range_inverse_a_entries(N):
    # A = S (I - C)|_{x_1 = 0} S^{-1}: n/(n+1) on the diagonal and
    # -1/(n+1) below it
    A, B, residual = range_inverse_matrices(N)
    assert A.tolist() == [[F(n, n + 1) if m == n else
                           (F(-1, n + 1) if m < n else 0)
                           for m in range(1, N + 1)] for n in range(1, N + 1)]
    assert residual == 0


def test_range_inverse_sees_one_perturbed_entry(monkeypatch):
    # B + e1 e1^T / 2: A B - I gains column 1 of A over 2, whose largest
    # entry is a_11 / 2 = 1/4, and B A - I gains row 1 of A over 2
    exact = ergodic._b_matrix_exact

    def perturbed(N):
        B = exact(N)
        B[0, 0] += F(1, 2)
        return B

    monkeypatch.setattr(ergodic, "_b_matrix_exact", perturbed)
    assert range_inverse_matrices(6)[2] == F(1, 4)


def test_range_inverse_rejects_bad_n():
    with pytest.raises(ValueError):
        range_inverse_matrices(0)


def test_b_continuity_nuclear_holds():
    W = WeightFamily(make_alpha("n"))
    v = b_continuity_check(W, k=1, horizon=2000)
    assert v.status == "holds"


def test_b_continuity_non_nuclear_fails():
    W = WeightFamily(make_alpha("loglog_n"))
    v = b_continuity_check(W, k=1, horizon=2000)
    assert v.status == "fails"


@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=2,
                max_size=15),
       st.integers(min_value=1, max_value=50))
@settings(max_examples=60, deadline=None)
def test_iterate_norm_never_increases(coords, m):
    W = WeightFamily(make_alpha("n"))
    q0 = weighted_norm(coords, W, 1)
    qm = weighted_norm(power_apply(coords, m), W, 1)
    assert qm <= q0 * (1.0 + 1e-9) + 1e-12
