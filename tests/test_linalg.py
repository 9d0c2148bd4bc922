import numpy as np
import pytest

from seqlocc import (
    BipartiteUnitary,
    DimensionMismatch,
    NotUnitary,
    NumericalFailure,
    basis_state,
    dagger,
    eig_unitary,
    kron,
    op_distance_mod_phase,
    phase_distance,
    random_unitary,
    swap_operator,
    unitarity_defect,
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


def test_operator_norms_same_bits_as_numpy_norm():
    """unitarity_defect and op_distance_mod_phase read the largest singular
    value from np.linalg.svd directly; np.linalg.norm(., 2) makes the same
    LAPACK call, so every value agrees bit for bit."""
    rng = np.random.default_rng(14)
    for _ in range(200):
        d = int(rng.integers(2, 10))
        M = random_unitary(d, rng) + rng.normal(scale=10.0 ** rng.integers(-12, 0), size=(d, d))
        W = random_unitary(d, rng)
        assert unitarity_defect(M) == np.linalg.norm(M.conj().T @ M - np.eye(d), 2)
        t = np.trace(W.conj().T @ M)
        assert op_distance_mod_phase(M, W) == np.linalg.norm(M - t / abs(t) * W, 2)


def _eig_unitary_via_schur(U):
    """eig_unitary as it stood on scipy.linalg.schur: the reference the
    direct LAPACK call must match bit for bit."""
    import scipy.linalg

    from seqlocc.linalg import canonical_phases

    T, Z = scipy.linalg.schur(np.asarray(U, dtype=complex), output="complex")
    phases = canonical_phases(np.diag(T))
    order = np.argsort(phases, kind="stable")
    return phases[order], Z[:, order]


def _oracle_matrices():
    rng = np.random.default_rng(2718)
    mats = [random_unitary(int(rng.integers(2, 17)), rng) for _ in range(1000)]
    mats += [random_unitary(d, rng) for d in range(2, 17)]
    for d in (2, 3, 5, 9, 16):
        Q = random_unitary(d, rng)
        mats.append(np.eye(d, dtype=complex))
        # a +-1 two-cluster spectrum, and one split by 1e-12
        mats.append(Q @ np.diag(np.resize([1.0, -1.0], d)).astype(complex) @ Q.conj().T)
        split = np.exp(1j * (0.4 + 1e-12 * np.arange(d)))
        mats.append(Q @ np.diag(split) @ Q.conj().T)
    return mats


def test_eig_unitary_bits_equal_the_schur_wrapper():
    mats = _oracle_matrices()
    assert len(mats) >= 1000
    for M in mats:
        dec = eig_unitary(M)
        phases, vectors = _eig_unitary_via_schur(M)
        assert np.array_equal(dec.phases, phases)
        assert np.array_equal(dec.vectors, vectors)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_eig_unitary_non_finite_raises(bad):
    M = np.eye(3, dtype=complex)
    M[0, 2] = bad
    with pytest.raises(NumericalFailure):
        eig_unitary(M)


def test_eig_unitary_non_square_raises():
    with pytest.raises(NumericalFailure):
        eig_unitary(np.eye(3, 2, dtype=complex))


def test_eig_unitary_memoizes_lapack_setup_only():
    """The routine and its workspace are kept per dimension; a result never
    is, so a changed matrix of the same size is decomposed afresh."""
    from seqlocc.linalg import _gees

    A = np.diag(np.exp([0.1j, 0.7j, 2.0j]))
    first = eig_unitary(A)
    assert _gees(3) is _gees(3)
    A[:] = np.diag(np.exp([0.3j, 1.1j, 2.5j]))
    assert not np.array_equal(eig_unitary(A).phases, first.phases)
