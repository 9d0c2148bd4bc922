import numpy as np
import pytest

from seqlocc import (
    BipartiteUnitary,
    DimensionMismatch,
    NotUnitary,
    basis_state,
    dagger,
    eig_unitary,
    kron,
    phase_distance,
    random_unitary,
    swap_operator,
    validate_unitary,
)

from conftest import HAD, I2, SX, SZ


def test_validate_identity():
    U = validate_unitary(np.eye(4), 2, 2)
    assert U.unitarity_defect == 0.0
    assert (U.d_a, U.d_b) == (2, 2)


def test_validate_hadamard_product():
    U = validate_unitary(np.kron(HAD, HAD), 2, 2)
    assert U.unitarity_defect <= 1e-15


def test_validate_rejects_shear():
    with pytest.raises(NotUnitary):
        validate_unitary(np.array([[1, 1], [0, 1]]), 2, 1)


def test_validate_rejects_wrong_shape():
    with pytest.raises(DimensionMismatch):
        validate_unitary(np.eye(3), 2, 2)


def test_eig_diagonal_phases():
    dec = eig_unitary(np.diag([1, -1]).astype(complex))
    assert np.allclose(dec.phases, [0.0, np.pi])


def test_eig_identity_multiplicity():
    dec = eig_unitary(np.eye(3, dtype=complex))
    assert np.allclose(dec.phases, 0.0)
    assert dec.phases.shape == (3,)


@pytest.mark.parametrize("seed", range(5))
def test_eig_reconstruction_random(seed):
    rng = np.random.default_rng(seed)
    U = random_unitary(3, rng)
    dec = eig_unitary(U)
    recon = (dec.vectors * np.exp(1j * dec.phases)) @ dec.vectors.conj().T
    assert np.linalg.norm(recon - U) / np.linalg.norm(U) <= 1e-10
    gram = dec.vectors.conj().T @ dec.vectors
    assert np.linalg.norm(gram - np.eye(3)) <= 1e-12
    assert np.all(dec.phases >= 0) and np.all(dec.phases < 2 * np.pi)
    assert np.all(np.diff(dec.phases) >= 0)


def test_phase_distance_self_and_orbit():
    rng = np.random.default_rng(7)
    U = random_unitary(4, rng)
    assert phase_distance(U, U) == 0.0
    assert phase_distance(U, np.exp(1j * np.pi / 7) * U) == 0.0


def test_phase_distance_identity_vs_sx():
    assert phase_distance(I2, SX) == pytest.approx(1.0)


def test_phase_distance_symmetric_positive():
    rng = np.random.default_rng(8)
    U, V = random_unitary(3, rng), random_unitary(3, rng)
    assert phase_distance(U, V) == pytest.approx(phase_distance(V, U), abs=1e-14)
    assert phase_distance(U, V) > 1e-3


def test_swap_operator():
    P = swap_operator(2)
    psi = np.kron(basis_state(2, 0), basis_state(2, 1))
    assert np.allclose(P @ psi, np.kron(basis_state(2, 1), basis_state(2, 0)))
    for d in (2, 3, 4):
        Pd = swap_operator(d)
        assert np.linalg.norm(Pd @ Pd - np.eye(d * d)) <= 1e-15


def test_kron_identity():
    assert np.allclose(kron(I2, I2), np.eye(4))


def test_kron_mixed_product_property():
    rng = np.random.default_rng(11)
    A, B, C, D = (random_unitary(d, rng) for d in (2, 3, 2, 3))
    lhs = kron(A, B) @ kron(C, D)
    rhs = kron(A @ C, B @ D)
    assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_kron_associativity():
    rng = np.random.default_rng(12)
    A, B, C = (random_unitary(2, rng) for _ in range(3))
    assert np.linalg.norm(kron(kron(A, B), C) - kron(A, kron(B, C))) <= 1e-12


def test_dagger_on_known_matrices():
    rng = np.random.default_rng(13)
    U = random_unitary(3, rng)
    assert np.allclose(dagger(U) @ U, np.eye(3), atol=1e-13)
    wrapped = BipartiteUnitary(U, 3, 1, 0.0)
    assert np.allclose(dagger(wrapped), U.conj().T)


@pytest.mark.parametrize("shapes", [((2, 2), (3, 3)), ((3, 3), (2, 2)), ((2, 3), (4, 1)),
                                    ((1, 5), (3, 2)), ((4, 4), (4, 4))])
def test_kron_same_bits_as_numpy(shapes):
    """The broadcast product forms each entry as np.kron does, so every bit
    agrees, the sign of every zero included."""
    rng = np.random.default_rng(13)
    (m, n), (p, q) = shapes
    A = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    B = rng.normal(size=(p, q)) + 1j * rng.normal(size=(p, q))
    A.flat[0], B.flat[-1] = complex(-0.0, 0.0), complex(0.0, -0.0)
    A.flat[-1] = -1.0
    got, want = kron(A, B), np.kron(A, B)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.signbit(got.real).any() and np.signbit(got.imag).any()
