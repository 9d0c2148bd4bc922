import warnings

import numpy as np
import pytest

from seqlocc import (
    BipartiteUnitary,
    CircuitTemplate,
    DimensionMismatch,
    NotUnitary,
    NumericalFailure,
    basis_state,
    build_sequential_scheme,
    compose_sequential,
    dagger,
    eig_unitary,
    kron,
    match_exp_xx_mod_phase,
    op_distance_mod_phase,
    phase_distance,
    random_unitary,
    realign,
    single_query_distinguishable,
    swap_operator,
    synthesize,
    unitarity_defect,
    validate_unitary,
)

from seqlocc import linalg
from seqlocc.arcs import arc_of_phases
from seqlocc.config import DISTINCT_TOL
from seqlocc.engine import _X_TOL
from seqlocc.linalg import _EXTENDED_BELOW, _extended_distance

from conftest import HAD, I2, SX, SZ

EPS = np.finfo(float).eps


def test_validate_identity():
    U = validate_unitary(np.eye(4), 2, 2)
    assert unitarity_defect(U.matrix) == 0.0
    assert (U.d_a, U.d_b) == (2, 2)


def test_validate_hadamard_product():
    U = validate_unitary(np.kron(HAD, HAD), 2, 2)
    assert unitarity_defect(U.matrix) <= 1e-15


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


def _nearby(U, s, rng):
    """U expm(i s H) for a Hermitian Gaussian H, through H's eigenbasis."""
    d = len(U)
    H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    lam, Q = np.linalg.eigh(H + H.conj().T)
    return U @ (Q * np.exp(0.5j * s * lam)) @ Q.conj().T


@pytest.mark.parametrize("d", [2, 3, 4, 6, 9, 16])
def test_phase_distance_fast_value_agrees_with_the_extended_one(d, monkeypatch):
    """Above the switch the float64 trace decides: its deficit is off by
    about one ulp of 1, so a distance r is off by about eps / (2 r^2)
    relative, 1.1e-12 at the switch and under 1e-12 from r = 1.05e-2 on.
    Checked at twice that, over s from 1e-9 to 3 in U expm(i s H)."""
    rng = np.random.default_rng(100 + d)
    extended = []
    monkeypatch.setattr(linalg, "_extended_distance",
                        lambda a, b: extended.append(1) or _extended_distance(a, b))
    for s in np.logspace(-9, np.log10(3.0), 60):
        U = random_unitary(d, rng)
        V = _nearby(U, s, rng)
        fast, ext = phase_distance(U, V), _extended_distance(U, V)
        assert abs(fast - ext) * ext <= EPS
    # the sweep takes both paths
    assert 0 < len(extended) < 60


def test_phase_distance_is_the_extended_value_at_or_below_the_switch():
    """Wherever the float64 deficit is at most the switch, the value is
    _extended_distance's bit for bit: each threshold is decided as before."""
    rng = np.random.default_rng(11)
    U = random_unitary(4, rng)
    H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    lam, Q = np.linalg.eigh(H + H.conj().T)
    unit = phase_distance(U, U @ (Q * np.exp(1e-3j * lam)) @ Q.conj().T) / 1e-3
    # pairs on either side of DISTINCT_TOL, _X_TOL, epsilon and synthesis's
    # floor, and one just inside the switch
    switch = _EXTENDED_BELOW ** 0.5
    for threshold, factor in [(t, f) for t in (DISTINCT_TOL, _X_TOL, 1e-4, 1e-3) for f in (0.5, 2.0)] \
            + [(switch, 0.99)]:
        V = U @ (Q * np.exp(1j * factor * threshold / unit * lam)) @ Q.conj().T
        assert 1.0 - abs(np.vdot(U, V)) / 4 <= _EXTENDED_BELOW
        got = phase_distance(U, V)
        assert got.hex() == _extended_distance(U, V).hex()
        assert (got <= threshold) == (factor < 1)


def test_phase_distance_edge_values():
    """Phase-equivalent operands read 0.0, as does a non-unitary pair with
    |tr(U^dag V)| / dim above 1; a NaN entry raises NumericalFailure."""
    rng = np.random.default_rng(12)
    U = random_unitary(3, rng)
    assert phase_distance(U, np.exp(0.3j) * U) == 0.0
    assert phase_distance(2.0 * np.eye(2), np.eye(2)) == 0.0
    W = U.copy()
    W[1, 2] = np.nan
    with pytest.raises(NumericalFailure):
        phase_distance(U, W)


@pytest.mark.parametrize("bad", [np.inf, complex(0, -np.inf), np.nan])
@pytest.mark.parametrize("side", [0, 1])
def test_phase_distance_of_a_non_finite_operand_raises_without_a_warning(bad, side):
    """As op_distance_mod_phase and unitarity_defect do: the float64 trace is
    not finite, so the extended trace, whose product would warn, never runs."""
    U = random_unitary(3, np.random.default_rng(12))
    W = U.copy()
    W[0, 1] = bad
    operands = (U, W) if side == 0 else (W, U)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure):
            phase_distance(*operands)
        with pytest.raises(NumericalFailure):
            linalg._phase_gap(*operands, DISTINCT_TOL)


def test_phase_distance_of_empty_operands_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        phase_distance(np.zeros((0, 0)), np.zeros((0, 0)))


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
    wrapped = BipartiteUnitary(U, 3, 1)
    assert np.allclose(dagger(wrapped), U.conj().T)


@pytest.mark.parametrize("shapes", [((2, 2), (3, 3)), ((3, 3), (2, 2)), ((2, 3), (4, 1)),
                                    ((1, 5), (3, 2)), ((4, 4), (4, 4)),
                                    ((3, 2, 2), (3, 3, 3)), ((2, 2, 3), (2, 4, 1)),
                                    ((4, 3, 3), (4, 2, 2)), ((3, 3), "eye")])
def test_kron_same_bits_as_numpy(shapes):
    """The broadcast product forms each entry as np.kron does, so every bit
    agrees, the sign of every zero included: for two matrices, for each pair
    of matrices of two (k, m, n) and (k, p, q) stacks, and for a complex
    matrix against the real np.eye(3)."""
    rng = np.random.default_rng(13)
    a_shape, b_shape = shapes
    A = rng.normal(size=a_shape) + 1j * rng.normal(size=a_shape)
    if b_shape == "eye":
        B = np.eye(3)
    else:
        B = rng.normal(size=b_shape) + 1j * rng.normal(size=b_shape)
        B.flat[-1] = complex(0.0, -0.0)
    A.flat[0] = complex(-0.0, 0.0)
    A.flat[-1] = -1.0
    got = kron(A, B)
    want = np.kron(A, B) if A.ndim == 2 else np.stack([np.kron(a, b) for a, b in zip(A, B)])
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.signbit(got.real).any() and np.signbit(got.imag).any()


def test_operator_norms_same_bits_as_numpy_norm():
    """unitarity_defect reads the largest singular value from np.linalg.svd
    directly and op_distance_mod_phase from linalg.singular_values, the same
    zgesdd call; np.linalg.norm(., 2) makes that LAPACK call too, so every
    value agrees bit for bit."""
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


def test_eig_unitary_refuses_an_overflowing_matrix_without_a_warning():
    """A Haar 3x3 U scaled so that its squared norm overflows (1e300 U,
    1e154 U) raises before a residual is read, where the residual would read
    0 or NaN; 2 U fails the residual test."""
    U = random_unitary(3, np.random.default_rng(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e300, 1e154, 2.0):
            with pytest.raises(NumericalFailure):
                eig_unitary(scale * U)


def test_eig_unitary_non_square_raises():
    with pytest.raises(NumericalFailure):
        eig_unitary(np.eye(3, 2, dtype=complex))


@pytest.mark.parametrize("call, outcome", [
    pytest.param(lambda: kron(np.eye(2), np.ones(2)), DimensionMismatch, id="kron-vector"),
    pytest.param(lambda: kron(np.ones((2, 2, 2)), np.ones((3, 2, 2))), DimensionMismatch,
                 id="kron-stack-lengths"),
    pytest.param(lambda: arc_of_phases([]), ValueError, id="arc_of_phases-empty"),
    pytest.param(lambda: single_query_distinguishable(np.eye(2), np.eye(3)), DimensionMismatch,
                 id="single_query_distinguishable-shapes"),
    pytest.param(lambda: validate_unitary(np.eye(1), 1), DimensionMismatch,
                 id="validate_unitary-d_a"),
    pytest.param(lambda: phase_distance(np.eye(2), np.eye(3)), DimensionMismatch,
                 id="phase_distance-shapes"),
    pytest.param(lambda: op_distance_mod_phase(np.eye(2), np.eye(3)), DimensionMismatch,
                 id="op_distance_mod_phase-shapes"),
    pytest.param(lambda: compose_sequential(np.eye(2), [np.eye(3)]), DimensionMismatch,
                 id="compose_sequential-interleaver"),
    pytest.param(lambda: build_sequential_scheme(np.eye(2), np.eye(3)), DimensionMismatch,
                 id="build_sequential_scheme-shapes"),
    pytest.param(lambda: realign(np.eye(4), 2, 3), DimensionMismatch, id="realign-shape"),
    pytest.param(lambda: match_exp_xx_mod_phase(validate_unitary(np.eye(4), 4)), None,
                 id="match_exp_xx_mod_phase-d_b"),
    pytest.param(lambda: synthesize(validate_unitary(np.eye(4), 2, 2),
                                    validate_unitary(np.eye(4), 4)),
                 DimensionMismatch, id="synthesize-dims"),
    pytest.param(lambda: CircuitTemplate(2, 2, [np.eye(4)]), TypeError, id="CircuitTemplate-layer"),
])
def test_input_checks_raise_their_typed_error(call, outcome):
    """Operands a caller can get wrong are refused with a typed error, or
    answered with None where the form cannot hold."""
    if outcome is None:
        assert call() is None
    else:
        with pytest.raises(outcome):
            call()


def test_eig_unitary_memoizes_lapack_setup_only():
    """The routine and its workspace are kept per dimension; a result never
    is, so a changed matrix of the same size is decomposed afresh."""
    from seqlocc.linalg import _lapack

    A = np.diag(np.exp([0.1j, 0.7j, 2.0j]))
    first = eig_unitary(A)
    assert _lapack("gees", 3, 3) is _lapack("gees", 3, 3)
    A[:] = np.diag(np.exp([0.3j, 1.1j, 2.5j]))
    assert not np.array_equal(eig_unitary(A).phases, first.phases)


@pytest.mark.parametrize("n", [2, 3, 4, 9, 16])
def test_schur_residual_is_the_reconstruction_residual(n):
    """Read off T, the residual agrees with ||Z D Z^dag - A|| / ||A|| of the
    reconstruction it replaces, on Haar draws."""
    from seqlocc.linalg import _lapack, _no_sort, _schur_residual, canonical_phases

    rng = np.random.default_rng(100 + n)
    gees, lwork = _lapack("gees", n, n)
    for _ in range(20):
        A = random_unitary(n, rng)
        T, _, w, Z, _, info = gees(_no_sort, A, lwork=lwork)
        assert info == 0
        phases = canonical_phases(w)
        recon = (Z * np.exp(1j * phases)) @ Z.conj().T
        expected = np.linalg.norm(recon - A) / np.linalg.norm(A)
        assert abs(_schur_residual(A, T, phases) - expected) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_eig_unitary_keeps_the_bits_of_schur_and_the_canonical_sort(n):
    """Phases and vectors, ==, of scipy.linalg.schur(output="complex")
    followed by np.angle, the wrap into [0, 2pi) and a stable argsort, on
    seeded Haar draws and a degenerate spectrum; a defect above
    EIG_MAX_DEFECT still raises."""
    import scipy.linalg

    from seqlocc.config import EIG_MAX_DEFECT

    rng = np.random.default_rng(3900 + n)
    Q = random_unitary(n, rng)
    degenerate = (Q * np.exp(1j * np.resize([0.3, -2.0], n))) @ Q.conj().T
    for M in [random_unitary(n, rng) for _ in range(40)] + [degenerate]:
        T, Z = scipy.linalg.schur(M, output="complex")
        phases = np.array(np.angle(np.diag(T)), dtype=float)
        np.mod(phases, 2 * np.pi, out=phases)
        phases[phases >= 2 * np.pi] = 0.0
        order = np.argsort(phases, kind="stable")
        dec = eig_unitary(M)
        assert np.array_equal(dec.phases, phases[order])
        assert np.array_equal(dec.vectors, Z[:, order])
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = (G + G.conj().T) / np.abs(np.linalg.eigvalsh(G + G.conj().T)).max()
    M = Q @ (np.eye(n) + (np.sqrt(1 + 2 * EIG_MAX_DEFECT) - 1) * H)
    assert unitarity_defect(M) > EIG_MAX_DEFECT
    with pytest.raises(NumericalFailure):
        eig_unitary(M)


def test_eig_unitary_refuses_a_non_normal_unit_spectrum():
    """Both eigenvalues are 1, on the circle, but the matrix is no unitary."""
    with pytest.raises(NumericalFailure):
        eig_unitary(np.array([[1.0, 1e-6], [0.0, 1.0]], dtype=complex))


@pytest.mark.parametrize("scale, accepted", [(0.9, True), (10.0, False)])
def test_eig_unitary_accepts_a_defect_up_to_the_cap(scale, accepted):
    """A unitary nudged to a defect just under EIG_MAX_DEFECT still
    decomposes, with its phases moved by about the defect; ten times the cap
    is refused."""
    from seqlocc.config import EIG_MAX_DEFECT

    rng = np.random.default_rng(41)
    U = random_unitary(4, rng)
    G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = (G + G.conj().T) / np.abs(np.linalg.eigvalsh(G + G.conj().T)).max()
    M = U @ (np.eye(4) + (np.sqrt(1 + scale * EIG_MAX_DEFECT) - 1) * H)
    assert unitarity_defect(M) == pytest.approx(scale * EIG_MAX_DEFECT, rel=1e-6)
    if not accepted:
        with pytest.raises(NumericalFailure):
            eig_unitary(M)
        return
    assert np.allclose(eig_unitary(M).phases, eig_unitary(U).phases, rtol=0, atol=1e-7)


# the matrices the SVD kernel sees under classify_primitive: the realignment
# d_a^2 x d_b^2 of every d_a, d_b in 2..5 with d_a d_b <= 16, and the d x d
# polar factors
_SVD_SHAPES = sorted({(a * a, b * b) for a in range(2, 6) for b in range(2, 6) if a * b <= 16}
                     | {(d, d) for d in range(2, 6)})


def _svd_draws(rng, m, n):
    """A complex Gaussian draw, a near-rank-1 one and an exact Kronecker
    realignment (rank 1 up to rounding) where m and n are squares."""
    G = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    yield G
    yield np.outer(G[:, 0], G[0].conj()) + 1e-9 * G
    a, b = round(m ** 0.5), round(n ** 0.5)
    if a * a == m and b * b == n:
        A, B = random_unitary(a, rng), random_unitary(b, rng)
        yield np.kron(A, B).reshape(a, b, a, b).transpose(0, 2, 1, 3).reshape(m, n)


@pytest.mark.parametrize("shape", _SVD_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_svd_kernels_are_numpys_bits(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for _ in range(10):
        for M in _svd_draws(rng, *shape):
            got, expected = linalg.svd(M), np.linalg.svd(M)
            assert all(np.array_equal(g, e) for g, e in zip(got, expected))
            assert np.array_equal(linalg.singular_values(M), np.linalg.svd(M, compute_uv=False))


def test_svd_kernels_of_a_non_contiguous_view_are_numpys_bits():
    rng = np.random.default_rng(7)
    big = rng.normal(size=(18, 10)) + 1j * rng.normal(size=(18, 10))
    for view in (big[::2, 1::2], big[:9, :9].T, big[1::4, ::3]):
        assert not view.flags.c_contiguous
        got, expected = linalg.svd(view), np.linalg.svd(view)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))
        assert np.array_equal(linalg.singular_values(view), np.linalg.svd(view, compute_uv=False))


def test_norm_is_numpys_bits():
    rng = np.random.default_rng(8)
    for shape in ((1,), (7,), (16,), (3, 3), (9, 4), (25, 25)):
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert linalg.norm(x) == np.linalg.norm(x)
        assert linalg.norm(x.real) == np.linalg.norm(x.real)
    # the off-diagonal blocks engine._controlled_form measures: strided slices
    M4 = random_unitary(12, rng).reshape(3, 4, 3, 4)
    for a in range(3):
        for ap in range(3):
            assert linalg.norm(M4[a, :, ap, :]) == np.linalg.norm(M4[a, :, ap, :])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_svd_kernels_refuse_non_finite_matrices(bad):
    M = np.eye(3, dtype=complex)
    M[1, 2] = bad
    for kernel in (linalg.svd, linalg.singular_values):
        with pytest.raises(NumericalFailure):
            kernel(M)
    with pytest.raises(NumericalFailure):
        op_distance_mod_phase(M, np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_op_distance_mod_phase_refuses_non_finite_operands_without_a_warning(bad):
    """Either operand is screened before the phase is read off tr(B^dag A),
    so the typed error comes with no RuntimeWarning from the product."""
    M = np.eye(3, dtype=complex)
    M[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((M, np.eye(3)), (np.eye(3), M)):
            with pytest.raises(NumericalFailure):
                op_distance_mod_phase(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_unitarity_defect_refuses_non_finite_entries(bad):
    """A typed error, not numpy's LinAlgError, and no RuntimeWarning first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure):
            unitarity_defect([[bad, 0], [0, 1]])


def _spread_defect(scale, tol):
    """A Haar 4x4 M whose defect scale * tol sits on three singular values of
    M^dag M - I, so its Frobenius norm is about 1.6 scale * tol."""
    rng = np.random.default_rng(40)
    U, W = random_unitary(4, rng), random_unitary(4, rng)
    s = np.sqrt(1.0 + scale * tol * np.array([1.0, 0.9, 0.8, 0.0]))
    return U @ (s[:, None] * W)


@pytest.mark.parametrize("scale", [0.9, 1.1])
def test_validate_unitary_decides_on_the_operator_norm_at_the_screen_boundary(scale):
    """At 0.9 tol the Frobenius screen fails and the exact norm accepts; at
    1.1 tol NotUnitary carries unitarity_defect's value, ==."""
    tol = 1e-9
    M = _spread_defect(scale, tol)
    assert unitarity_defect(M) == pytest.approx(scale * tol, rel=1e-6)
    assert np.linalg.norm(M.conj().T @ M - np.eye(4)) > tol
    if scale < 1:
        validate_unitary(M, 2, 2, tol=tol)
        return
    with pytest.raises(NotUnitary) as info:
        validate_unitary(M, 2, 2, tol=tol)
    assert info.value.defect == unitarity_defect(M)


def test_a_unitary_operand_takes_no_svd(monkeypatch):
    """The screen passes a unitary, so neither validate_unitary nor
    loads_matrix decomposes it."""
    from seqlocc.io import dumps_matrix, loads_matrix

    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    rng = np.random.default_rng(41)
    for d_a, d_b in ((2, 2), (3, 3), (2, 3)):
        U = validate_unitary(random_unitary(d_a * d_b, rng), d_a, d_b)
        loads_matrix(dumps_matrix(U))
    assert calls == []
    validate_unitary(_spread_defect(0.9, 1e-9), 2, 2)  # the counter sees the exact path
    assert calls == [1]


@pytest.mark.parametrize("kind", ["diagonal", "haar"])
def test_an_overflowing_gram_is_an_infinite_defect_without_a_warning(kind):
    """Finite entries whose gram overflows, diag(1e200, 0, 0, 0) and 1e200
    times a Haar 4x4, are an infinite defect, with no numpy warning and no
    LinAlgError, through validate_unitary, loads_matrix and unitarity_defect."""
    from seqlocc.io import dumps_matrix, loads_matrix

    if kind == "diagonal":
        M = np.diag([1e200, 0.0, 0.0, 0.0]).astype(complex)
    else:
        M = 1e200 * random_unitary(4, np.random.default_rng(42))
    text = dumps_matrix(BipartiteUnitary(M, 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert unitarity_defect(M) == np.inf
        for check in (lambda: validate_unitary(M, 2, 2), lambda: loads_matrix(text)):
            with pytest.raises(NotUnitary) as info:
                check()
            assert info.value.defect == np.inf


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_svd_kernels_refuse_empty_matrices(shape):
    for kernel in (linalg.svd, linalg.singular_values):
        with pytest.raises(DimensionMismatch):
            kernel(np.zeros(shape, dtype=complex))
    with pytest.raises(DimensionMismatch):
        linalg.svd(np.ones(3, dtype=complex))


def test_svd_kernels_read_matrices_whose_square_norm_overflows():
    """The cheap finiteness screen overflows at entries near 1e154; the
    entrywise test then lets a finite matrix through."""
    M = 1e200 * random_unitary(3, np.random.default_rng(9))
    assert np.array_equal(linalg.singular_values(M), np.linalg.svd(M, compute_uv=False))


@pytest.mark.parametrize("bad", [[np.nan, 1.0], [np.inf, 1.0], [0.0, 0.0]])
def test_normalize_refuses_a_zero_or_non_finite_norm(bad):
    with pytest.raises(ValueError):
        linalg.normalize(bad)


def test_mat_and_kron_pass_complex128_arrays_through(monkeypatch):
    """A complex128 ndarray, as the package makes them, is used as it is: mat
    returns the same object, and neither mat nor kron converts it (np.asarray
    is not called)."""
    rng = np.random.default_rng(36)
    A = random_unitary(3, rng)
    S = np.stack([random_unitary(2, rng) for _ in range(4)])
    want = np.kron(A, A)

    def refuse(*args, **kwargs):
        raise AssertionError("np.asarray called on a complex128 array")

    monkeypatch.setattr(np, "asarray", refuse)
    assert linalg.mat(A) is A
    assert np.array_equal(kron(A, A).view(np.uint64), want.view(np.uint64))
    assert kron(S, S).shape == (4, 4, 4)


def test_mat_and_kron_still_convert_other_input_and_refuse_vectors():
    real = np.array([[0.0, 1.0], [1.0, 0.0]])
    listed = [[1, 0], [0, 1j]]
    swapped = random_unitary(2, np.random.default_rng(36)).astype(">c16")  # big-endian
    for M in (real, listed, swapped):
        got = linalg.mat(M)
        assert got.dtype == np.dtype(complex) and got is not M
        assert np.array_equal(got, np.asarray(M, dtype=complex))
    got = kron(real, listed)
    want = np.kron(np.asarray(real, dtype=complex), np.asarray(listed, dtype=complex))
    assert got.dtype == np.dtype(complex)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for call in (lambda: linalg.mat(np.ones(3, dtype=complex)),
                 lambda: kron(np.ones(3, dtype=complex), np.eye(2, dtype=complex)),
                 lambda: kron(np.eye(2, dtype=complex), [1.0, 2.0])):
        with pytest.raises(DimensionMismatch):
            call()


def test_canonical_phases_and_the_extended_trace_keep_their_bits():
    """canonical_phases is np.angle's arctan2 wrapped in place, and the
    extended trace converts each operand once to clongdouble: both give the
    bits of the expressions they replace, on seeded draws, == and no tolerance."""
    rng = np.random.default_rng(36)
    for trial in range(200):
        n = int(rng.integers(1, 9))
        z = np.exp(1j * rng.uniform(-10.0, 10.0, n)) * rng.uniform(0.5, 2.0, n)
        z[0] = np.exp(-1e-17j)  # a phase that rounds to 2 pi
        old = np.array(np.angle(np.asarray(z, dtype=complex)), dtype=float)
        np.mod(old, 2 * np.pi, out=old)
        old[old >= 2 * np.pi] = 0.0
        assert np.array_equal(linalg.canonical_phases(z).view(np.uint64), old.view(np.uint64))
        assert np.array_equal(linalg.canonical_phases(list(z)), old)
        a, b = random_unitary(n, rng), random_unitary(n, rng)
        if trial % 3 == 0:
            a, b = a.T, np.exp(0.4j) * a.T  # strided operands, near phase equivalence
        ar, ai = a.real.astype(np.longdouble), a.imag.astype(np.longdouble)
        br, bi = b.real.astype(np.longdouble), b.imag.astype(np.longdouble)
        re, im = linalg._trace_inner(a, b)
        assert re == np.sum(ar * br + ai * bi) and im == np.sum(ar * bi - ai * br)
    assert linalg.canonical_phases(1j) == np.pi / 2
