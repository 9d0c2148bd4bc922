import numpy as np
import pytest
import scipy.linalg

from seqlocc import random_unitary
from seqlocc.unitary_opt import hermitian_basis, pullback, unitaries


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


def _contraction(theta, d, seed):
    """Random G (L, d, d) against which tangents are contracted."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(len(theta), d, d)) + 1j * rng.normal(size=(len(theta), d, d))


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_rows_equal_single_rows(d):
    basis = hermitian_basis(d)
    theta = _stack(d, np.random.default_rng(d))
    G = _contraction(theta, d, 30 + d)
    U, spec = unitaries(theta, basis)
    grad = pullback(spec, G, basis)
    assert U.shape == (len(theta), d, d)
    assert grad.shape == (len(theta), d * d)
    for i in range(len(theta)):
        U1, spec1 = unitaries(theta[i:i + 1], basis)
        assert (U1[0] == U[i]).all()
        assert (pullback(spec1, G[i:i + 1], basis)[0] == grad[i]).all()


@pytest.mark.parametrize("d", [2, 3])
def test_unitary_matches_expm(d):
    basis = hermitian_basis(d)
    theta = _stack(d, np.random.default_rng(10 + d))
    U, _ = unitaries(theta, basis)
    for row, got in zip(theta, U):
        H = np.tensordot(row, basis, axes=(0, 0))
        assert np.linalg.norm(got - scipy.linalg.expm(1j * H)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_tangents_match_central_differences(d):
    """The central-difference tangents of expm, contracted with a random G
    as sum_ij G_ij dU_ij / dtheta_m, agree with pullback(spec, G)."""
    basis = hermitian_basis(d)
    theta = _stack(d, np.random.default_rng(20 + d))
    G = _contraction(theta, d, 40 + d)
    grad = pullback(unitaries(theta, basis)[1], G, basis)
    eps = 1e-6

    def expm_at(row):
        return scipy.linalg.expm(1j * np.tensordot(row, basis, axes=(0, 0)))

    for row, g, got in zip(theta, G, grad):
        for m in range(d * d):
            step = np.zeros(d * d)
            step[m] = eps
            fd = (expm_at(row + step) - expm_at(row - step)) / (2 * eps)
            assert abs(got[m] - np.sum(g * fd)) <= 1e-8
