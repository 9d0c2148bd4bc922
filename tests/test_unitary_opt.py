import numpy as np
import pytest
import scipy.linalg

from seqlocc import random_unitary
from seqlocc.unitary_opt import hermitian_basis, unitaries, unitary_and_tangents


def _stack(d, rng):
    """Rows: theta = 0 (fully degenerate), a spectrum with one repeated
    eigenvalue, and two generic points."""
    basis = hermitian_basis(d)
    W = random_unitary(d, rng)
    lam = np.full(d, 0.4)
    lam[-1] = -1.1
    H = (W * lam) @ W.conj().T
    repeated = np.einsum("mij,ji->m", basis, H).real
    return np.stack([np.zeros(d * d), repeated,
                     rng.normal(size=d * d), rng.normal(scale=2.0, size=d * d)])


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_rows_equal_single_rows(d):
    basis = hermitian_basis(d)
    theta = _stack(d, np.random.default_rng(d))
    U, dU = unitary_and_tangents(theta, basis, 1j * basis)
    assert U.shape == (len(theta), d, d)
    assert dU.shape == (len(theta), d * d, d, d)
    assert (unitaries(theta, basis)[0] == U).all()
    for i in range(len(theta)):
        U1, dU1 = unitary_and_tangents(theta[i:i + 1], basis, 1j * basis)
        assert (U1[0] == U[i]).all()
        assert (dU1[0] == dU[i]).all()


@pytest.mark.parametrize("d", [2, 3])
def test_unitary_matches_expm(d):
    basis = hermitian_basis(d)
    theta = _stack(d, np.random.default_rng(10 + d))
    U, _ = unitary_and_tangents(theta, basis, 1j * basis)
    for row, got in zip(theta, U):
        H = np.tensordot(row, basis, axes=(0, 0))
        assert np.linalg.norm(got - scipy.linalg.expm(1j * H)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_tangents_match_central_differences(d):
    basis = hermitian_basis(d)
    theta = _stack(d, np.random.default_rng(20 + d))
    _, dU = unitary_and_tangents(theta, basis, 1j * basis)
    eps = 1e-6

    def expm_at(row):
        return scipy.linalg.expm(1j * np.tensordot(row, basis, axes=(0, 0)))

    for row, tangents in zip(theta, dU):
        for m in range(d * d):
            step = np.zeros(d * d)
            step[m] = eps
            fd = (expm_at(row + step) - expm_at(row - step)) / (2 * eps)
            assert np.linalg.norm(tangents[m] - fd) <= 1e-8
