"""A cyclic Jacobi symmetric eigensolver for the spectral attack, so the
package depends only on numpy. Runs in 64-bit precision; NaN/Inf never
enters or leaves it.
"""

import numpy as np

from .errors import NumericalError, UsageError


def symmetric_eigen(a, k: int, *, tol: float = 1e-10, max_sweeps: int = 100):
    """Return the `k` algebraically smallest eigenpairs of a symmetric matrix.

    Cyclic Jacobi rotations; converged when the off-diagonal Frobenius mass
    drops below `tol` relative to the matrix scale. Robust for the dense
    matrices of the sizes this package produces (up to a few hundred).

    Returns (eigenvalues ascending, eigenvectors as columns, shape (n, k)).
    """
    w = np.array(a, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise UsageError(f"expected a square matrix, got shape {w.shape}")
    n = w.shape[0]
    if not 1 <= k <= n:
        raise UsageError(f"k={k} out of range for a {n}x{n} matrix")
    if np.max(np.abs(w - w.T)) > 1e-10:
        raise UsageError("matrix is not symmetric within 1e-10")
    w = (w + w.T) / 2.0

    vecs = np.eye(n)
    thresh = tol * max(1.0, float(np.linalg.norm(w)))

    def off_norm(m):
        o = m - np.diag(np.diag(m))
        return float(np.linalg.norm(o))

    converged = off_norm(w) <= thresh
    sweeps = 0
    while not converged and sweeps < max_sweeps:
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = w[p, q]
                if apq == 0.0:
                    continue
                theta = (w[q, q] - w[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                cp = w[:, p].copy()
                cq = w[:, q].copy()
                w[:, p] = c * cp - s * cq
                w[:, q] = s * cp + c * cq
                rp = w[p, :].copy()
                rq = w[q, :].copy()
                w[p, :] = c * rp - s * rq
                w[q, :] = s * rp + c * rq
                vp = vecs[:, p].copy()
                vq = vecs[:, q].copy()
                vecs[:, p] = c * vp - s * vq
                vecs[:, q] = s * vp + c * vq
        sweeps += 1
        converged = off_norm(w) <= thresh
    if not converged:
        raise NumericalError(f"Jacobi eigensolver did not converge in {sweeps} sweeps")

    eigvals = np.diag(w).copy()
    order = np.argsort(eigvals, kind="stable")[:k]
    return eigvals[order], vecs[:, order]
