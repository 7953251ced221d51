import math

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
    assert_allclose(linalg.matexp(np.zeros((4, 4))), np.eye(4), atol=1e-15)


def test_matexp_diagonal():
    out = linalg.matexp(np.diag([0.3, -1.2]))
    assert_allclose(out, np.diag([np.exp(0.3), np.exp(-1.2)]), rtol=1e-14)


def test_matexp_nilpotent():
    out = linalg.matexp(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert_allclose(out, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


@pytest.mark.parametrize("target_norm", [0.01, 0.5, 3.0, 10.0, 100.0])
def test_matexp_matches_series_oracle(target_norm):
    rng = np.random.default_rng(int(target_norm * 100))
    for _ in range(4):
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m *= target_norm / np.linalg.norm(m)
        ref = taylor_expm(m)
        assert np.linalg.norm(linalg.matexp(m) - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("target_norm", [0.01, 0.5, 3.0, 10.0])
def test_matexp_keeps_float64_real(target_norm):
    # A real generator stays real: no complex promotion, the same Pade
    # route, and the same finiteness gate.
    rng = np.random.default_rng(int(target_norm * 100) + 1)
    for _ in range(4):
        m = rng.normal(size=(6, 6))
        m *= target_norm / np.linalg.norm(m)
        out = linalg.matexp(m)
        assert out.dtype == np.float64
        ref = linalg.matexp(m.astype(complex))
        assert np.linalg.norm(out - ref) <= 1e-15 * np.linalg.norm(ref)
    m[2, 3] = np.nan
    with pytest.raises(InvalidInputError):
        linalg.matexp(m)


def test_matexp_inverse_pair():
    rng = np.random.default_rng(23)
    for _ in range(6):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m *= 10.0 / np.linalg.norm(m)
        prod = linalg.matexp(m) @ linalg.matexp(-m)
        assert np.linalg.norm(prod - np.eye(4)) <= 1e-10


def test_matexp_anti_hermitian_path_agrees_and_is_unitary():
    rng = np.random.default_rng(37)
    for _ in range(6):
        a = 1j * rand_hermitian(5, rng, scale=2.0)
        general = linalg.matexp(a)
        eig_path = linalg.matexp(a, assume="anti_hermitian")
        assert np.linalg.norm(general - eig_path) <= 1e-10
        u = eig_path
        assert np.linalg.norm(u.conj().T @ u - np.eye(5)) <= 1e-10


def test_matexp_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        linalg.matexp(np.zeros((2, 3)))
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(InvalidInputError):
        linalg.matexp(bad)
    with pytest.raises(InvalidInputError):
        linalg.matexp(np.array([[0.0, 1.0], [0.0, 0.0]]), assume="anti_hermitian")


def test_matexp_rejects_an_overflowing_symmetry_residual():
    # ||m||_F overflows, so the relative residual is NaN, which must fail
    # the gate rather than return a wrong "unitary".
    with pytest.raises(InvalidInputError, match="symmetry gate"):
        linalg.matexp(1j * np.array([[0.0, 1e200], [0.0, 0.0]]), assume="anti_hermitian")


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
