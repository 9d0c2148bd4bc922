"""Parametrization of the unitary group for template synthesis.

A point is a real vector theta of length d*d mapped to U = expm(i H(theta))
where H runs over an orthonormal Hermitian basis. A stack of points shares
one batched eigendecomposition of H, and the same spectral data pull a
matrix gradient dc/dU back to dc/dtheta through divided differences, so no
tangent of U is ever formed.
"""

from __future__ import annotations

import numpy as np

# eigenvalue gaps below this take the degenerate limit of the divided difference
_DEGENERATE_GAP = 1e-12


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) basis of d x d Hermitian matrices."""
    basis = []
    for j in range(d):
        E = np.zeros((d, d), dtype=complex)
        E[j, j] = 1.0
        basis.append(E)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for j in range(d):
        for k in range(j + 1, d):
            E = np.zeros((d, d), dtype=complex)
            E[j, k] = inv_sqrt2
            E[k, j] = inv_sqrt2
            basis.append(E)
            F = np.zeros((d, d), dtype=complex)
            F[j, k] = -1j * inv_sqrt2
            F[k, j] = 1j * inv_sqrt2
            basis.append(F)
    return np.array(basis)


def unitaries(theta: np.ndarray, basis: np.ndarray):
    """Stacked U_l = expm(i H(theta_l)) (L, d, d) for theta (L, n) and basis
    (n, d, d), with the spectral data (lam, e^{i lam}, V) of every
    H_l = V diag(lam) V^dag that pullback needs."""
    H = np.tensordot(np.asarray(theta, dtype=float), basis, axes=(1, 0))
    lam, V = np.linalg.eigh(H)
    e = np.exp(1j * lam)
    return (V * e[:, None, :]) @ V.conj().transpose(0, 2, 1), (lam, e, V)


def pullback(spec, G: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """dc/dtheta_lm (L, n) of c = sum_ij G_lij U_lij + const, for the
    spectral data spec of unitaries(theta, basis) and G (L, d, d).

    With H = V diag(lam) V^dag, the derivative of U along i E is
    V (Phi * (V^dag (i E) V)) V^dag, where Phi_jk is the divided difference
    (e^{i lam_j} - e^{i lam_k}) / (i lam_j - i lam_k) (Daleckii-Krein).
    Contracted with G it is sum_ij (i E)_ij P_ij, where
    P = conj(V) (Phi * (V^T G conj(V))) V^T: one projection of P onto the
    basis per point.
    """
    lam, e, V = spec
    diff = 1j * (lam[:, :, None] - lam[:, None, :])
    num = e[:, :, None] - e[:, None, :]
    small = np.abs(diff) < _DEGENERATE_GAP
    # the degenerate limit of (e_j - e_k)/(i(lam_j - lam_k)) is e_j
    Phi = np.where(small, e[:, :, None], num / np.where(small, 1.0, diff))
    Vt = V.transpose(0, 2, 1)
    P = V.conj() @ (Phi * (Vt @ G @ V.conj())) @ Vt
    return 1j * np.einsum("mij,lij->lm", basis, P)
