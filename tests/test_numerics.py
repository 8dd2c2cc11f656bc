import numpy as np
import pytest

from gradlink.errors import UsageError
from gradlink.numerics import symmetric_eigen


def test_eigen_identity():
    vals, vecs = symmetric_eigen(np.eye(3), 3)
    np.testing.assert_allclose(vals, [1, 1, 1], atol=1e-12)


def test_eigen_diagonal():
    vals, vecs = symmetric_eigen(np.diag([1.0, 2.0, 3.0]), 2)
    np.testing.assert_allclose(vals, [1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(vecs), np.eye(3)[:, :2], atol=1e-12)


def test_eigen_rejects_nonsymmetric_and_bad_k():
    with pytest.raises(UsageError):
        symmetric_eigen([[0.0, 1.0], [0.0, 0.0]], 1)
    with pytest.raises(UsageError):
        symmetric_eigen(np.eye(2), 3)


def _charpoly_roots(a):
    """Characteristic polynomial coefficients via the Faddeev-LeVerrier
    recurrence, then companion-matrix roots. Independent of the Jacobi path."""
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.sort(np.roots(coeffs).real)


def test_eigen_matches_characteristic_polynomial_oracle():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6))
    a = (a + a.T) / 2.0
    vals, _ = symmetric_eigen(a, 6)
    np.testing.assert_allclose(vals, _charpoly_roots(a), atol=1e-6)


def test_eigen_residual_and_orthonormality_bounds():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 33))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2.0
        k = int(rng.integers(1, n + 1))
        vals, vecs = symmetric_eigen(a, k)
        fro = np.linalg.norm(a)
        resid = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
        assert np.all(resid <= 1e-8 * fro)
        gram = vecs.T @ vecs
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-8
        assert np.all(np.diff(vals) >= -1e-12)
