import numpy as np
import pytest
from numpy.testing import assert_allclose

from projlind import linalg
from projlind.exceptions import DimensionError, InvalidInputError

from oracles import SX, rand_hermitian, taylor_expm


def test_kron_identity_case():
    assert_allclose(linalg.kron(np.eye(2), np.eye(2)), np.eye(4), atol=0)


def test_kron_diagonal_projectors():
    out = linalg.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert_allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]), atol=0)


def test_kron_block_structure():
    # kron(swap, I2) swaps the 2x2 blocks; brute-force entrywise check.
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = linalg.kron(swap, np.eye(2))
    expected = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            expected[2 * i:2 * i + 2, 2 * j:2 * j + 2] = swap[i, j] * np.eye(2)
    assert_allclose(out, expected, atol=0)


def test_kron_mixed_product_property():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, b, c, d = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(4))
        lhs = linalg.kron(a, b) @ linalg.kron(c, d)
        rhs = linalg.kron(a @ c, b @ d)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_kron_associative():
    rng = np.random.default_rng(8)
    a, b, c = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
    lhs = linalg.kron(linalg.kron(a, b), c)
    rhs = linalg.kron(a, linalg.kron(b, c))
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_vectorize_row_stacking_order():
    out = linalg.vectorize(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert_allclose(out, [1.0, 2.0, 3.0, 4.0], atol=0)


def test_vectorize_identity():
    assert_allclose(linalg.vectorize(np.eye(2)), [1.0, 0.0, 0.0, 1.0], atol=0)


def test_vectorize_rejects_non_square():
    with pytest.raises(DimensionError):
        linalg.vectorize(np.zeros((2, 3)))


def test_devectorize_examples():
    assert_allclose(linalg.devectorize([1, 0, 0, 1], 2), np.eye(2), atol=0)
    assert_allclose(linalg.devectorize([1, 2, 3, 4], 2), [[1, 2], [3, 4]], atol=0)


def test_devectorize_length_mismatch():
    with pytest.raises(DimensionError):
        linalg.devectorize(np.zeros(5), 2)


def test_vectorize_devectorize_roundtrip():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert_allclose(linalg.devectorize(linalg.vectorize(x), 5), x, atol=0)


def test_vectorization_identity_random():
    # vec(A X B) = (A kron B^T) vec(X), relative residual <= 1e-12
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 6):
        for _ in range(5):
            a, b, x = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(3))
            lhs = linalg.vectorize(a @ x @ b)
            rhs = linalg.kron(a, b.T) @ linalg.vectorize(x)
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


def test_matexp_inverse_pair():
    rng = np.random.default_rng(23)
    for _ in range(6):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m *= 10.0 / np.linalg.norm(m)
        prod = linalg.matexp(m) @ linalg.matexp(-m)
        assert np.linalg.norm(prod - np.eye(4)) <= 1e-10


def test_matexp_hermitian_path_agrees():
    rng = np.random.default_rng(31)
    for _ in range(6):
        h = rand_hermitian(5, rng, scale=2.0)
        general = linalg.matexp(h)
        eig_path = linalg.matexp(h, assume="hermitian")
        assert np.linalg.norm(general - eig_path) <= 1e-10 * np.linalg.norm(general)


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
        linalg.matexp(np.array([[0.0, 1.0], [0.0, 0.0]]), assume="hermitian")


def test_hermitian_eigenvalues_examples():
    assert_allclose(linalg.hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])),
                    [1.0, 2.0, 3.0], atol=1e-14)
    assert_allclose(linalg.hermitian_eigenvalues(SX), [-1.0, 1.0], atol=1e-14)
    assert_allclose(linalg.hermitian_eigenvalues(0.5 * np.ones((2, 2))),
                    [0.0, 1.0], atol=1e-14)


def test_hermitian_eigenvalues_trace_and_reconstruction():
    rng = np.random.default_rng(41)
    for _ in range(8):
        h = rand_hermitian(6, rng)
        w = linalg.hermitian_eigenvalues(h)
        assert np.all(np.diff(w) >= 0)
        assert abs(w.sum() - np.trace(h).real) <= 1e-10
        # reconstruction residual through the same solver
        wv, v = np.linalg.eigh(h)
        assert np.linalg.norm((v * wv) @ v.conj().T - h) <= 1e-10


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(InvalidInputError):
        linalg.hermitian_eigenvalues(np.array([[1.0, 1.0], [0.0, 0.0]]))
