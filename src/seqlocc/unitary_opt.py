"""Parametrization of the unitary group for template synthesis.

A point is a real vector theta of length d*d mapped to U = expm(i H(theta))
where H runs over an orthonormal Hermitian basis. Tangents (directional
derivatives of U along every basis element) come from one eigendecomposition
of H via divided differences; a stack of points shares one batched
eigendecomposition, so gradient evaluations stay cheap.
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
    (n, d, d), with the spectral data (lam, e^{i lam}, V, V^dag) of every
    H_l = V diag(lam) V^dag that the tangents are built from."""
    H = np.tensordot(np.asarray(theta, dtype=float), basis, axes=(1, 0))
    lam, V = np.linalg.eigh(H)
    e = np.exp(1j * lam)
    Vh = V.conj().transpose(0, 2, 1)
    return (V * e[:, None, :]) @ Vh, (lam, e, V, Vh)


def unitary_and_tangents(theta: np.ndarray, basis: np.ndarray, ibasis: np.ndarray):
    """Stacked U_l = expm(i H(theta_l)) (L, d, d) and tangents dU_l/dtheta_lm
    (L, n, d, d) for theta (L, n), basis (n, d, d) and ibasis = 1j * basis.

    Uses the standard divided-difference formula: with H = V diag(lam) V^dag,
    the derivative along direction E is V (Phi * (V^dag (iE) V)) V^dag where
    Phi_jk = (e^{i lam_j} - e^{i lam_k}) / (i lam_j - i lam_k).
    """
    U, (lam, e, V, Vh) = unitaries(theta, basis)
    diff = 1j * (lam[:, :, None] - lam[:, None, :])
    num = e[:, :, None] - e[:, None, :]
    small = np.abs(diff) < _DEGENERATE_GAP
    # Daleckii-Krein divided differences of exp(i x), written against i*E
    # directions; the degenerate limit of (e_j - e_k)/(i(lam_j - lam_k)) is e_j.
    Phi = np.where(small, e[:, :, None] * np.ones_like(num),
                   np.divide(num, np.where(small, 1.0, diff)))

    mid = Phi[:, None] * np.einsum("lab,mbc,lcd->lmad", Vh, ibasis, V)
    tangents = np.einsum("lab,lmbc,lcd->lmad", V, mid, Vh)
    return U, tangents
