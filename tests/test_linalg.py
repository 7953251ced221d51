import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from projlind import linalg
from projlind.exceptions import DimensionError, InvalidInputError

from oracles import rand_hermitian, taylor_expm


def test_vectorization_identity_random():
    # vec(A X B) = (A kron B^T) vec(X), relative residual <= 1e-12
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 6):
        for _ in range(5):
            a, b, x = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(3))
            lhs = (a @ x @ b).reshape(-1)
            rhs = np.kron(a, b.T) @ x.reshape(-1)
            bound = 1e-12 * np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(x)
            assert np.linalg.norm(lhs - rhs) <= bound


def test_matexp_zero_is_identity():
    out = linalg.matexp(np.zeros((4, 4), dtype=complex), [0.0, 1.0, -2.5])
    assert out.shape == (3, 4, 4)
    assert_allclose(out, np.broadcast_to(np.eye(4), out.shape), atol=1e-15)


def test_matexp_diagonal():
    ts = np.array([1.0, 0.0, -3.0, 1e3])
    out = linalg.matexp(np.diag([0.3j, -1.2j]), ts)
    for t, u in zip(ts, out):
        assert_allclose(u, np.diag([np.exp(0.3j * t), np.exp(-1.2j * t)]), rtol=1e-14)


@pytest.mark.parametrize("target_norm", [0.01, 0.5, 3.0, 10.0, 100.0])
def test_matexp_matches_series_oracle(target_norm):
    # Exactly anti-Hermitian input, the only kind matexp takes: each member
    # of the stack is the series oracle's exp(t m), and unitary to rounding.
    rng = np.random.default_rng(int(target_norm * 100))
    ts = (1.0, 0.25, -0.5)
    for _ in range(4):
        m = 1j * rand_hermitian(5, rng)
        m *= target_norm / np.linalg.norm(m)
        stack = linalg.matexp(m, ts)
        assert stack.shape == (len(ts), 5, 5)
        for t, u in zip(ts, stack):
            ref = taylor_expm(t * m)
            assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)
            assert np.linalg.norm(u.conj().T @ u - np.eye(5)) <= 1e-13


def test_matexp_inverse_pair():
    rng = np.random.default_rng(23)
    for _ in range(6):
        m = 1j * rand_hermitian(4, rng)
        m *= 10.0 / np.linalg.norm(m)
        u, v = linalg.matexp(m, [1.0, -1.0])
        assert np.linalg.norm(u @ v - np.eye(4)) <= 1e-10


def test_matexp_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        linalg.matexp(np.zeros((2, 3)), [1.0])
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(InvalidInputError):
        linalg.matexp(bad, [1.0])


@pytest.mark.parametrize("m", [
    # exp(m) = I + m, which no unitary is.
    np.array([[0.0, 1e200], [0.0, 0.0]]),
    1j * np.array([[0.0, 1e200], [0.0, 0.0]]),
    # Real input, even anti-Hermitian or zero.
    np.zeros((3, 3)),
    np.array([[0.0, 1.0], [-1.0, 0.0]]),
    np.diag([0.3, -1.2]),
    # Anti-Hermitian only to rounding.
    np.array([[0.5j, 1.0 + 2.0j], [-1.0 + 2.0j + 1e-16, -0.25j]]),
    np.array([[0.5j, 1.0 + 2.0j], [-1.0 + 2.0j, 1e-300 - 0.25j]]),
])
def test_matexp_refuses_all_but_exactly_anti_hermitian_input(m):
    with pytest.raises(InvalidInputError, match="exactly anti-Hermitian"):
        linalg.matexp(m, [1.0])


def test_taylor_expm_of_zero_and_of_a_nilpotent_is_exact():
    for n in (1, 4):
        assert np.array_equal(linalg._taylor_expm(np.zeros((n, n))), np.eye(n))
    a = np.array([[0.0, 0.5j], [0.0, 0.0]])
    assert np.array_equal(linalg._taylor_expm(a), np.eye(2) + a)


@pytest.mark.parametrize("target_norm", [0.01, 0.5, 0.99])
def test_taylor_expm_keeps_float64_real(target_norm):
    # A real generator stays real: no complex promotion, and the same
    # numbers as the polynomial of its complex copy.
    rng = np.random.default_rng(int(target_norm * 100) + 1)
    for _ in range(4):
        m = rng.normal(size=(6, 6))
        m *= target_norm / np.linalg.norm(m, 2)
        out = linalg._taylor_expm(m)
        assert out.dtype == np.float64
        ref = linalg._taylor_expm(m.astype(complex))
        assert np.linalg.norm(out - ref) <= 1e-15 * np.linalg.norm(ref)


@pytest.mark.parametrize("n, target_norm, kind", [
    (1, 0.999, "general"), (2, 0.5, "anti-hermitian"), (3, 0.9, "general"),
    (5, 0.75, "symmetric"), (8, 0.999, "anti-hermitian"), (15, 0.6, "general"),
    (15, 0.999, "symmetric"),
])
def test_taylor_expm_matches_40_digit_reference(n, target_norm, kind):
    # Within 1e-15 of mpmath's 40-digit exponential, relative in the
    # 2-norm, for ||a||_2 in [0.5, 1): the polynomial's truncation is below
    # u/2 there. Normal inputs have ||a^k||_2 = ||a||_2^k, so a polynomial
    # of lower degree fails on them.
    rng = np.random.default_rng(1000 * n + int(1000 * target_norm))
    if kind == "general":
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    elif kind == "anti-hermitian":
        a = 1j * rand_hermitian(n, rng)
    else:
        a = rand_hermitian(n, rng).real
    a *= target_norm / np.linalg.norm(a, 2)
    with mpmath.workdps(40):
        ref = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=complex)
    out = linalg._taylor_expm(a)
    assert np.linalg.norm(out - ref, 2) <= 1e-15 * np.linalg.norm(ref, 2)


@pytest.mark.parametrize("nu, degree", [(0.0, 0), (1.0, 18), (3.0, 28)])
def test_taylor_action_stops_at_the_first_bound_below_half_the_unit_roundoff(nu, degree):
    # S = nu on the vector (1,): the term of degree k is nu^k / k!, which is
    # also the stopping rule's bound for it.
    x = np.ones(1)
    terms = linalg._taylor_action(lambda y, k: nu * y / k, nu, x)
    assert terms[0] is x and len(terms) == degree + 1
    expected = [nu ** k / math.factorial(k) for k in range(degree + 1)]
    assert_allclose(np.concatenate(terms), expected, rtol=1e-15, atol=0)
    half_u = np.finfo(float).eps / 4.0
    assert nu ** (degree + 1) / math.factorial(degree + 1) <= half_u
    assert not nu ** degree / math.factorial(degree) <= half_u


def test_hermiticity_residual_of_a_stack_matches_each_matrix():
    rng = np.random.default_rng(43)
    stack = np.array([rand_hermitian(4, rng) + 1e-3 * k * rng.normal(size=(4, 4))
                      for k in range(20)])
    residuals = linalg.hermiticity_residual(stack)
    assert residuals.shape == (20,)
    assert residuals[0] <= 1e-15 < residuals[1]
    assert_allclose(residuals, [linalg.hermiticity_residual(m) for m in stack],
                    rtol=1e-14, atol=0)
    assert_allclose(linalg.hermiticity_residual(stack.reshape(4, 5, 4, 4)).reshape(-1),
                    residuals, rtol=0, atol=0)


@pytest.mark.parametrize("n", [1, 8, 32])
def test_hermiticity_residual_of_a_matrix_matches_its_stack(n):
    # A single matrix takes its own path; it must agree with the stacked one.
    rng = np.random.default_rng(n)
    for m in (rand_hermitian(n, rng), rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
              1e-3 * rng.normal(size=(n, n))):
        single = linalg.hermiticity_residual(m)
        assert type(single) is float
        assert_allclose(single, linalg.hermiticity_residual(m[None])[0], rtol=1e-14, atol=0)
    nan = np.eye(n, dtype=complex)
    nan[0, -1] = np.nan
    assert np.isnan(linalg.hermiticity_residual(nan))


def test_hermiticity_residual_of_a_matrix_is_a_float():
    assert type(linalg.hermiticity_residual(np.eye(3))) is float
    # Relative to max(1, ||m||_F): ||m - m^dag||_F = sqrt(2) for this m.
    assert linalg.hermiticity_residual([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(np.sqrt(2))


@pytest.mark.parametrize("m, expected", [
    ([[0.0, 1e200], [0.0, 0.0]], math.sqrt(2.0)),      # ||m||_F^2 overflows
    ([[1.0, 1e308], [-1e308, 0.0]], 2.0),              # m - m^dag overflows too
    ([[0.0, 1.7e308 * (1 + 1j)], [0.0, 0.0]], math.sqrt(2.0)),  # |entry| overflows
])
def test_hermiticity_residual_stays_relative_past_the_float_range(m, expected):
    assert linalg.hermiticity_residual(m) == pytest.approx(expected, rel=1e-15)
    assert_allclose(linalg.hermiticity_residual(np.array([m, m])), [expected] * 2,
                    rtol=1e-15, atol=0)

