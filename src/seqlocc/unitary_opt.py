"""Parametrization of the unitary group for local searches.

A point is a real vector theta of length d*d mapped to U = expm(i H(theta))
where H runs over an orthonormal Hermitian basis. Tangents (directional
derivatives of U along every basis element) come from one eigendecomposition
of H via divided differences, so gradient evaluations stay cheap.
"""

from __future__ import annotations

import numpy as np


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


def n_params(d: int) -> int:
    return d * d


def params_to_hermitian(theta: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return np.tensordot(np.asarray(theta, dtype=float), basis, axes=(0, 0))


def unitary_and_tangents(theta: np.ndarray, basis: np.ndarray):
    """U = expm(i H(theta)) and dU/dtheta_m for every basis direction m.

    Uses the standard divided-difference formula: with H = V diag(lam) V^dag,
    the derivative along direction E is V (Phi * (V^dag (iE) V)) V^dag where
    Phi_jk = (e^{i lam_j} - e^{i lam_k}) / (i lam_j - i lam_k).
    """
    H = params_to_hermitian(theta, basis)
    lam, V = np.linalg.eigh(H)
    e = np.exp(1j * lam)
    U = (V * e) @ V.conj().T

    diff = 1j * (lam[:, None] - lam[None, :])
    num = e[:, None] - e[None, :]
    small = np.abs(diff) < 1e-12
    # Daleckii-Krein divided differences of exp(i x), written against i*E
    # directions; the degenerate limit of (e_j - e_k)/(i(lam_j - lam_k)) is e_j.
    Phi = np.where(small, e[:, None] * np.ones_like(num),
                   np.divide(num, np.where(small, 1.0, diff)))

    Vh = V.conj().T
    mid = Phi[None, :, :] * np.einsum("ab,mbc,cd->mad", Vh, 1j * basis, V)
    tangents = np.einsum("ab,mbc,cd->mad", V, mid, Vh)
    return U, tangents
