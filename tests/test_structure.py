import numpy as np
import pytest
import scipy.linalg

from seqlocc import (
    classify_primitive,
    build_symmetry_set,
    entangling_witness,
    exp_xx_form,
    match_exp_xx,
    operator_schmidt,
    phase_distance,
    random_unitary,
    swap_operator,
    symmetry_set_inverts,
    validate_unitary,
    xx_generator,
)
from seqlocc.errors import DimensionTooSmall
from seqlocc.structure import (
    _unitary_factors_from_rank1,
    block_exponential,
    match_exp_xx_mod_phase,
)

from conftest import CNOT, CZ, HAD, SX


def _wrap(M, d_a, d_b):
    return validate_unitary(M, d_a, d_b)


def test_schmidt_product_single_coefficient():
    rng = np.random.default_rng(0)
    a, b = random_unitary(2, rng), random_unitary(3, rng)
    dec = operator_schmidt(_wrap(np.kron(a, b), 2, 3))
    assert dec.coefficients[0] == pytest.approx(np.sqrt(6), abs=1e-9)
    assert dec.rank() == 1


def test_schmidt_cnot():
    # CNOT = |0><0| x I + |1><1| x X, two orthogonal terms of weight sqrt(2)
    dec = operator_schmidt(_wrap(CNOT, 2, 2))
    assert np.allclose(dec.coefficients[:2], np.sqrt(2), atol=1e-12)
    assert np.allclose(dec.coefficients[2:], 0.0, atol=1e-12)


def test_schmidt_swap():
    # SWAP = (I x I + X x X + Y x Y + Z x Z) / 2: four unit coefficients
    dec = operator_schmidt(_wrap(swap_operator(2), 2, 2))
    assert np.allclose(dec.coefficients, 1.0, atol=1e-12)


def test_schmidt_reconstruction_and_norm():
    rng = np.random.default_rng(1)
    for d_a, d_b in [(2, 2), (2, 3), (3, 3)]:
        U = _wrap(random_unitary(d_a * d_b, rng), d_a, d_b)
        dec = operator_schmidt(U)
        assert np.sum(dec.coefficients ** 2) == pytest.approx(d_a * d_b, abs=1e-8)
        rec = sum(c * np.kron(A, B) for c, A, B in
                  zip(dec.coefficients, dec.left_ops, dec.right_ops))
        assert np.linalg.norm(rec - U.matrix) <= 1e-9


def test_schmidt_coefficients_local_invariance():
    rng = np.random.default_rng(2)
    U = _wrap(random_unitary(4, rng), 2, 2)
    a, b, c, d = (random_unitary(2, rng) for _ in range(4))
    conj = _wrap(np.kron(a, b) @ U.matrix @ np.kron(c, d), 2, 2)
    assert np.allclose(operator_schmidt(U).coefficients,
                       operator_schmidt(conj).coefficients, atol=1e-9)


def _fit(M, fa, fb):
    """Frobenius distance of M from the closest phase times fa (x) fb."""
    K = np.kron(fa, fb)
    t = np.vdot(K, M)
    return np.linalg.norm(M - t / abs(t) * K)


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (3, 2), (2, 5), (4, 3), (5, 3), (5, 5)])
def test_one_sweep_recovers_exact_product(d_a, d_b):
    rng = np.random.default_rng([d_a, d_b])
    a, b = random_unitary(d_a, rng), random_unitary(d_b, rng)
    M = np.exp(0.4j) * np.kron(a, b)
    fa, fb = _unitary_factors_from_rank1(operator_schmidt(_wrap(M, d_a, d_b)).right_ops[0], M)
    assert np.abs(np.kron(fa, fb) - M).max() <= 1e-14
    for f in (fa, fb):
        assert np.abs(f.conj().T @ f - np.eye(len(f))).max() <= 1e-14


def _three_sweep_factors(M, B, d_a, d_b):
    """Reference: the alternating polar refinement run three times."""
    def polar(X):
        u, _, vh = np.linalg.svd(X)
        return u @ vh

    M4 = M.reshape(d_a, d_b, d_a, d_b)
    fb = polar(B)
    for _ in range(3):
        fa = polar(np.einsum("abcd,bd->ac", M4, fb.conj()))
        fb = polar(np.einsum("abcd,ac->bd", M4, fa.conj()))
    return fa, fb


@pytest.mark.parametrize("eps", [1e-9, 1e-8, 1e-7, 1e-6])
def test_one_sweep_fits_near_product_like_three(eps):
    """Off a product by eps, the one sweep fits M as well as three sweeps do,
    to a relative 1e-6: later sweeps move the fit only at O(eps^2)."""
    rng = np.random.default_rng(int(-np.log10(eps)))
    for d_a, d_b in [(2, 2), (2, 3), (3, 3), (4, 2)]:
        n = d_a * d_b
        G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        M = np.kron(random_unitary(d_a, rng), random_unitary(d_b, rng)) @ scipy.linalg.expm(
            1j * eps * (G + G.conj().T))
        B = operator_schmidt(_wrap(M, d_a, d_b)).right_ops[0]
        one = _fit(M, *_unitary_factors_from_rank1(B, M))
        three = _fit(M, *_three_sweep_factors(M, B, d_a, d_b))
        assert three > 0.1 * eps
        assert abs(one - three) <= 1e-6 * three


def test_classify_product_with_factor_recovery():
    U = _wrap(np.kron(HAD, SX), 2, 2)
    form = classify_primitive(U)
    assert form.kind == "Product"
    assert phase_distance(np.kron(form.factor_a, form.factor_b), U.matrix) <= 1e-8


def test_classify_swap():
    form = classify_primitive(_wrap(swap_operator(2), 2, 2))
    assert form.kind == "SwapProduct"
    # SWAP = (I x I) P, so both factors are identity up to phase
    assert phase_distance(form.factor_a, np.eye(2)) <= 1e-8
    assert phase_distance(form.factor_b, np.eye(2)) <= 1e-8


def test_classify_cnot_cz_imprimitive():
    for M in (CNOT, CZ):
        U = _wrap(M, 2, 2)
        assert classify_primitive(U).kind == "Imprimitive"
        coeff, state = entangling_witness(U)
        assert coeff > 0.5
        # the witness really is a product state that the operator entangles
        out = M @ state
        s = np.linalg.svd(out.reshape(2, 2), compute_uv=False)
        assert s[1] == pytest.approx(coeff, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_classify_random_products(seed):
    rng = np.random.default_rng(seed)
    d_a, d_b = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    U = _wrap(np.kron(random_unitary(d_a, rng), random_unitary(d_b, rng)), d_a, d_b)
    form = classify_primitive(U)
    assert form.kind == "Product"
    assert phase_distance(np.kron(form.factor_a, form.factor_b), U.matrix) <= 1e-8


def test_symmetry_set_elements_hermitian_unitary():
    for d_a, d_b in [(2, 2), (2, 3), (3, 3), (4, 2)]:
        sym = build_symmetry_set(d_a, d_b)
        assert len(sym.elements) == 4
        for W, (wa, wb) in zip(sym.elements, sym.factor_pairs):
            assert np.linalg.norm(W - W.conj().T) <= 1e-12
            assert np.linalg.norm(W.conj().T @ W - np.eye(d_a * d_b)) <= 1e-12
            assert np.allclose(W, np.kron(wa, wb))


def test_symmetry_set_first_element_2x2():
    sym = build_symmetry_set(2, 2)
    assert np.allclose(sym.elements[0], np.kron(np.diag([1, -1]), np.eye(2)))


def test_symmetry_set_rejects_dimension_one():
    with pytest.raises(DimensionTooSmall):
        build_symmetry_set(1, 2)


def test_exp_xx_closed_form_matches_expm():
    for d_a, d_b in [(2, 2), (3, 3), (2, 4)]:
        for x in (0.0, 0.3, np.pi / 2, -1.2):
            direct = exp_xx_form(x, d_a, d_b).matrix
            dense = scipy.linalg.expm(1j * x * xx_generator(d_a, d_b))
            assert np.linalg.norm(direct - dense) <= 1e-12


def test_exp_xx_identity_outside_block():
    U = exp_xx_form(0.3, 3, 3).matrix
    # rows and columns outside span{|0>,|1>} x span{|0>,|1>} are identity
    outside = [a * 3 + b for a in range(3) for b in range(3) if a > 1 or b > 1]
    for i in outside:
        e = np.zeros(9)
        e[i] = 1.0
        assert np.allclose(U[:, i], e) and np.allclose(U[i, :], e)


def test_exp_xx_half_pi():
    U = exp_xx_form(np.pi / 2, 2, 2).matrix
    assert np.allclose(U, 1j * np.kron(SX, SX))


def test_symmetry_inversion_on_exp_xx():
    for x in np.linspace(-3.0, 3.0, 7):
        assert symmetry_set_inverts(exp_xx_form(x, 2, 2))
    assert symmetry_set_inverts(exp_xx_form(0.9, 2, 3))
    assert symmetry_set_inverts(exp_xx_form(0.0, 3, 3))  # identity case


def test_symmetry_inversion_fails_for_cnot():
    assert not symmetry_set_inverts(_wrap(CNOT, 2, 2))


def test_match_exp_xx_round_trip():
    for x in (1.0, -0.4, 0.0, np.pi - 0.01):
        got = match_exp_xx(exp_xx_form(x, 2, 2))
        assert got == pytest.approx(x, abs=1e-9)
    got = match_exp_xx(exp_xx_form(-0.4, 3, 3))
    assert got == pytest.approx(-0.4, abs=1e-9)


def test_match_exp_xx_sign_by_eigenvectors():
    """Oracle: the +x eigenphase of the interaction block must pair with the
    +1 eigenspace of sigma_x (x) sigma_x; phases alone cannot see the sign."""
    x = -0.4
    U = exp_xx_form(x, 2, 2)
    got = match_exp_xx(U)
    assert got == pytest.approx(x, abs=1e-12)
    evals, vecs = np.linalg.eigh(np.kron(SX, SX))
    plus = vecs[:, evals > 0.5]
    proj_plus = plus @ plus.conj().T
    # action on the +1 eigenspace carries phase e^{i x}, resolving the sign
    phase = np.trace(proj_plus @ U.matrix @ proj_plus) / 2
    assert np.angle(phase) == pytest.approx(x, abs=1e-12)


def test_match_exp_xx_rejects_cnot():
    assert match_exp_xx(_wrap(CNOT, 2, 2)) is None


def test_match_exp_xx_mod_phase():
    U = exp_xx_form(0.7, 2, 2)
    shifted = _wrap(np.exp(0.3j) * U.matrix, 2, 2)
    got = match_exp_xx_mod_phase(shifted)
    assert got is not None
    x, phase = got
    assert x == pytest.approx(0.7, abs=1e-9)
    assert phase == pytest.approx(0.3, abs=1e-9)
    assert match_exp_xx(shifted) is None  # the exact matcher sees the phase


def test_symmetry_equivalence_bidirectional():
    """symmetry_set_inverts(U) iff U matches the interaction-exponential
    form, across exponentials, products, and entangling operators."""
    rng = np.random.default_rng(9)
    samples = []
    for x in np.linspace(-2.5, 2.5, 8):
        samples.append(exp_xx_form(x, 2, 2))
    samples.append(_wrap(CNOT, 2, 2))
    samples.append(_wrap(CZ, 2, 2))
    samples.append(_wrap(swap_operator(2) @ CNOT @ swap_operator(2), 2, 2))
    for _ in range(6):
        samples.append(_wrap(np.kron(random_unitary(2, rng), random_unitary(2, rng)), 2, 2))
    for _ in range(6):
        Q = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        samples.append(_wrap(Q @ CNOT @ Q.conj().T, 2, 2))
    for U in samples:
        assert symmetry_set_inverts(U) == (match_exp_xx(U) is not None)


def test_random_imprimitives_fail_symmetry():
    rng = np.random.default_rng(10)
    count = 0
    for _ in range(25):
        U = _wrap(random_unitary(4, rng), 2, 2)
        if classify_primitive(U).kind == "Imprimitive":
            count += 1
            assert not symmetry_set_inverts(U)
    assert count > 20  # Haar-random operators are essentially never products


def test_imprimitive_witness_entangles():
    """Every Imprimitive operator has a grid product state whose image has a
    second Schmidt coefficient above the reporting floor."""
    rng = np.random.default_rng(11)
    ops = [exp_xx_form(x, 2, 2) for x in (0.05, 0.4, 1.0, -2.0)]
    ops += [exp_xx_form(0.6, 2, 3), exp_xx_form(0.6, 3, 3)]
    ops += [_wrap(random_unitary(4, rng), 2, 2) for _ in range(5)]
    for U in ops:
        assert classify_primitive(U).kind == "Imprimitive"
        coeff, state = entangling_witness(U)
        assert coeff >= 1e-6
        d_a, d_b = U.d_a, U.d_b
        out = U.matrix @ state
        s = np.linalg.svd(out.reshape(d_a, d_b), compute_uv=False)
        assert s[1] == pytest.approx(coeff, abs=1e-12)


def test_block_exponential_matches_expm():
    u1 = np.zeros((3, 3), dtype=complex)
    u1[:2, :2] = SX
    assert np.linalg.norm(block_exponential(0.7, 3) - scipy.linalg.expm(0.7j * u1)) <= 1e-12
