import numpy as np
import pytest
import scipy.linalg

from seqlocc import (
    classify_primitive,
    build_symmetry_set,
    entangling_witness,
    exp_xx_form,
    match_exp_xx_mod_phase,
    operator_schmidt,
    phase_distance,
    random_unitary,
    realign,
    swap_operator,
    symmetry_set_inverts,
    validate_unitary,
    xx_generator,
)
from seqlocc import structure
from seqlocc.config import MATCH_TOL, RANK_TOL
from seqlocc.errors import DimensionTooSmall
from seqlocc.structure import _closest_unitary, block_exponential

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
    """The polar parts of the leading Schmidt pair are the factors of an
    exact product, its global phase included."""
    rng = np.random.default_rng([d_a, d_b])
    a, b = random_unitary(d_a, rng), random_unitary(d_b, rng)
    M = np.exp(0.4j) * np.kron(a, b)
    cls = classify_primitive(_wrap(M, d_a, d_b))
    fa, fb = cls.factor_a, cls.factor_b
    assert cls.kind == "Product"
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
    """Off a product by eps, the polar parts of the leading Schmidt pair fit
    M as well as three sweeps of alternating polar refinement do, to a
    relative 1e-6: the leading pair is the nearest Kronecker product, and
    its polar parts are off the best unitary fit only at O(eps^2)."""
    rng = np.random.default_rng(int(-np.log10(eps)))
    for d_a, d_b in [(2, 2), (2, 3), (3, 3), (4, 2)]:
        n = d_a * d_b
        G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        M = np.kron(random_unitary(d_a, rng), random_unitary(d_b, rng)) @ scipy.linalg.expm(
            1j * eps * (G + G.conj().T))
        dec = operator_schmidt(_wrap(M, d_a, d_b))
        leading = _fit(M, _closest_unitary(dec.left_ops[0]), _closest_unitary(dec.right_ops[0]))
        three = _fit(M, *_three_sweep_factors(M, dec.right_ops[0], d_a, d_b))
        assert three > 0.1 * eps
        assert abs(leading - three) <= 1e-6 * three


def _schmidt_calls(monkeypatch, U):
    """classify_primitive(U) and the realigned matrices it decomposed."""
    calls = []
    real = structure._schmidt

    def counting(R, d_a, d_b):
        calls.append(R)
        return real(R, d_a, d_b)

    with monkeypatch.context() as m:
        m.setattr(structure, "_schmidt", counting)
        cls = classify_primitive(U)
    return cls, calls


@pytest.mark.parametrize("d", [2, 3, 4])
def test_product_decomposes_the_plain_realignment_only(d, monkeypatch):
    """A product is decided from the plain realignment; U P is decomposed
    only for an operand that is not a product."""
    rng = np.random.default_rng(60 + d)
    M = np.kron(random_unitary(d, rng), random_unitary(d, rng))
    cls, calls = _schmidt_calls(monkeypatch, _wrap(M, d, d))
    assert (cls.kind, len(calls)) == ("Product", 1)
    cls, calls = _schmidt_calls(monkeypatch, _wrap(M @ swap_operator(d), d, d))
    assert (cls.kind, len(calls)) == ("SwapProduct", 2)
    cls, calls = _schmidt_calls(monkeypatch, _wrap(CNOT, 2, 2))
    assert (cls.kind, len(calls)) == ("Imprimitive", 2)


def test_swapped_realignment_of_a_product_is_far_from_rank_one():
    """A product times the swap has d^2 Schmidt coefficients all equal, so
    U P of an operand whose plain realignment is rank 1 is never rank 1:
    classify_primitive needs no guard against both forms at once."""
    rng = np.random.default_rng(71)
    operands = [U for d in (2, 3, 4, 5) for U in _products(rng, False, ((d, d),))]
    operands += _products(rng, False, ((5, 5),), nudge=1e-6)
    for U in operands:
        assert operator_schmidt(U).rank() == 1
        c = operator_schmidt(_wrap(U.matrix @ swap_operator(U.d_a), U.d_a, U.d_b)).coefficients
        assert c[1] >= 0.99 * c[0]


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
    for x, d_a, d_b in ((1.0, 2, 2), (-0.4, 2, 2), (0.0, 2, 2), (np.pi - 0.01, 2, 2), (-0.4, 3, 3)):
        got, phase = match_exp_xx_mod_phase(exp_xx_form(x, d_a, d_b))
        assert got == pytest.approx(x, abs=1e-9)
        assert abs(phase) <= 1e-12


def test_match_exp_xx_sign_by_eigenvectors():
    """Oracle: the +x eigenphase of the interaction block must pair with the
    +1 eigenspace of sigma_x (x) sigma_x; phases alone cannot see the sign."""
    x = -0.4
    U = exp_xx_form(x, 2, 2)
    got, phase = match_exp_xx_mod_phase(U)
    assert got == pytest.approx(x, abs=1e-12)
    assert abs(phase) <= 1e-12
    evals, vecs = np.linalg.eigh(np.kron(SX, SX))
    plus = vecs[:, evals > 0.5]
    proj_plus = plus @ plus.conj().T
    # action on the +1 eigenspace carries phase e^{i x}, resolving the sign
    phase = np.trace(proj_plus @ U.matrix @ proj_plus) / 2
    assert np.angle(phase) == pytest.approx(x, abs=1e-12)


def test_match_exp_xx_rejects_cnot():
    assert match_exp_xx_mod_phase(_wrap(CNOT, 2, 2)) is None


def test_match_exp_xx_mod_phase():
    U = exp_xx_form(0.7, 2, 2)
    shifted = _wrap(np.exp(0.3j) * U.matrix, 2, 2)
    got = match_exp_xx_mod_phase(shifted)
    assert got is not None
    x, phase = got
    assert x == pytest.approx(0.7, abs=1e-9)
    assert phase == pytest.approx(0.3, abs=1e-9)


def test_symmetry_equivalence_bidirectional():
    """symmetry_set_inverts(U) iff U matches the interaction-exponential
    form at a phase of 0 or pi, across exponentials, products, and
    entangling operators. Literal inversion cannot see U -> -U: at 2x3,
    -exp_xx_form(x) is inverted by every probe and matches at phase pi."""
    rng = np.random.default_rng(9)
    samples = []
    for x in np.linspace(-2.5, 2.5, 8):
        samples.append(exp_xx_form(x, 2, 2))
        samples.append(_wrap(-exp_xx_form(x, 2, 3).matrix, 2, 3))
    samples.append(_wrap(CNOT, 2, 2))
    samples.append(_wrap(CZ, 2, 2))
    samples.append(_wrap(swap_operator(2) @ CNOT @ swap_operator(2), 2, 2))
    for _ in range(6):
        samples.append(_wrap(np.kron(random_unitary(2, rng), random_unitary(2, rng)), 2, 2))
    for _ in range(6):
        Q = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        samples.append(_wrap(Q @ CNOT @ Q.conj().T, 2, 2))
    for U in samples:
        m = match_exp_xx_mod_phase(U)
        real_phase = m is not None and min(abs(m[1]), abs(abs(m[1]) - np.pi)) <= 1e-12
        assert symmetry_set_inverts(U) == real_phase


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


def _form_deviation_reference(X, cls):
    """The engine's former measure of an operand's distance from its form:
    the reference PrimitiveForm.deviation must equal bit for bit."""
    from seqlocc.linalg import kron

    M = kron(cls.factor_a, cls.factor_b)
    if cls.kind == "SwapProduct":
        M = M @ swap_operator(X.d_a)
    t = np.vdot(M, X.matrix)
    return float(np.linalg.norm(X.matrix - t / abs(t) * M))


def _products(rng, swapped, dims=((2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (2, 5)), nudge=0.0):
    """Haar products (swapped ones at equal dimensions), times
    expm(i nudge H) for a Hermitian H of unit Frobenius norm."""
    out = []
    for d_a, d_b in dims:
        if swapped and d_a != d_b:
            continue
        for _ in range(6):
            M = np.kron(random_unitary(d_a, rng), random_unitary(d_b, rng))
            if swapped:
                M = M @ swap_operator(d_a)
            if nudge:
                G = rng.normal(size=M.shape) + 1j * rng.normal(size=M.shape)
                M = M @ scipy.linalg.expm(1j * nudge * (G + G.conj().T) / np.linalg.norm(G + G.conj().T))
            out.append(validate_unitary(M, d_a, d_b))
    return out


@pytest.mark.parametrize("swapped", [False, True])
def test_form_deviation_bits_equal_the_engine_measure(swapped):
    for U in _products(np.random.default_rng(31 + swapped), swapped):
        cls = classify_primitive(U)
        assert cls.kind == ("SwapProduct" if swapped else "Product")
        assert cls.deviation == _form_deviation_reference(U, cls)
        assert cls.residual == cls.deviation / np.sqrt(2 * U.dim)


@pytest.mark.parametrize("swapped", [False, True])
def test_form_residual_is_phase_distance_off_a_product(swapped):
    """1e-6 off a product, deviation / sqrt(2 dim) is the phase distance. At
    5x5 that perturbation keeps the operator Schmidt rank 1 at RANK_TOL
    (smaller products turn imprimitive), with a residual of about 1.4e-7.
    The two agree exactly for a unitary operand; a stored 25x25 unitary is
    off by rounding, which moves the squares apart by a few eps (about
    3e-16 here), so the distances agree to that over twice the residual."""
    for U in _products(np.random.default_rng(41 + swapped), swapped, ((5, 5),), nudge=1e-6):
        cls = classify_primitive(U)
        assert cls.kind == ("SwapProduct" if swapped else "Product")
        form = np.kron(cls.factor_a, cls.factor_b)
        if swapped:
            form = form @ swap_operator(U.d_a)
        assert cls.deviation == _form_deviation_reference(U, cls)
        assert cls.residual > 1e-7
        assert abs(cls.residual ** 2 - phase_distance(U.matrix, form) ** 2) <= 1e-15
        assert abs(cls.residual - phase_distance(U.matrix, form)) <= 4e-9


def test_imprimitive_form_unchanged():
    """No factors, a NaN deviation, and the truncation-weight residual."""
    rng = np.random.default_rng(51)
    for M, d_a, d_b in ((CNOT, 2, 2), (CZ, 2, 2), (random_unitary(6, rng), 2, 3),
                        (random_unitary(9, rng), 3, 3)):
        U = _wrap(M, d_a, d_b)
        cls = classify_primitive(U)
        assert cls.kind == "Imprimitive" and cls.factor_a is None and cls.factor_b is None
        assert np.isnan(cls.deviation)
        c = operator_schmidt(U).coefficients
        expected = float(np.sqrt(max(0.0, 1.0 - c[0] ** 2 / U.dim)))
        if d_a == d_b:
            cp = operator_schmidt(_wrap(M @ swap_operator(d_a), d_a, d_b)).coefficients
            expected = min(expected, float(np.sqrt(max(0.0, 1.0 - cp[0] ** 2 / U.dim))))
        assert cls.residual == expected


def _match_mod_phase_reference(U):
    """match_exp_xx_mod_phase read off the validated exp_xx_form: strip
    each candidate phase, then compare against exp_xx_form(x)."""
    a, b = complex(U.matrix[0, 0]), complex(U.matrix[0, U.d_b + 1])
    half = 0.5 * np.angle(a * a - b * b)
    for phase in (half, half + np.pi):
        stripped = U.matrix * np.exp(-1j * phase)
        x = structure._wrap_angle(float(np.arctan2(stripped[0, U.d_b + 1].imag,
                                                   stripped[0, 0].real)))
        if np.linalg.norm(stripped - exp_xx_form(x, U.d_a, U.d_b).matrix, 2) <= MATCH_TOL:
            return x, structure._wrap_angle(float(phase))
    return None


def test_recognition_keeps_its_bits(monkeypatch):
    """classify_primitive reads U P as an index permutation of U: the second
    matrix it decomposes is the realignment of U.matrix @ P, and a swapped
    product's deviation is the one measured against kron(fa, fb) @ P, bit
    for bit. match_exp_xx_mod_phase returns the bits of a matcher that
    compares against the validated exp_xx_form."""
    rng = np.random.default_rng(81)
    dims = ((2, 2), (3, 3), (4, 4))
    operands = (_products(rng, True, dims) + _products(rng, True, dims, nudge=1e-6)
                + [_wrap(random_unitary(d * d, rng), d, d) for d in (2, 3, 4) for _ in range(4)])
    for U in operands:
        cls, calls = _schmidt_calls(monkeypatch, U)
        assert len(calls) == 2
        assert np.array_equal(calls[1], realign(U.matrix @ swap_operator(U.d_a), U.d_a, U.d_b))
        if cls.kind == "SwapProduct":
            assert cls.deviation == _form_deviation_reference(U, cls)
    for d_a, d_b in ((2, 2), (2, 3), (3, 3)):
        for x, phi in ((0.3, 0.0), (1.0, 0.7), (-2.1, -2.5), (np.pi, 3.0)):
            U = _wrap(np.exp(1j * phi) * exp_xx_form(x, d_a, d_b).matrix, d_a, d_b)
            expected = _match_mod_phase_reference(U)
            assert expected is not None
            assert match_exp_xx_mod_phase(U) == expected


def test_block_exponential_rejects_dimension_one():
    """sigma_x (+) 0 needs two levels, on one side as on both."""
    with pytest.raises(DimensionTooSmall):
        block_exponential(0.3, 1)
    with pytest.raises(DimensionTooSmall):
        xx_generator(1, 2)


def _leading_minor(X) -> float:
    """|M00 M11 - M01 M10| of the image of |0...0>, read as a d_a x d_b matrix."""
    M = X.matrix[:, 0].reshape(X.d_a, X.d_b)
    return abs(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])


@pytest.mark.parametrize("d_a, d_b, swapped", [
    (2, 2, False), (2, 2, True), (2, 3, False), (3, 3, False), (3, 3, True),
    (4, 4, False), (4, 4, True), (3, 5, False)])
def test_certificate_never_fires_on_a_primitive_operand(d_a, d_b, swapped):
    """Products and swapped products times expm(i eps H), eps swept across
    the point where classify_primitive flips to Imprimitive: on every operand
    it still calls primitive, the certificate does not fire, and the minor
    stays within D RANK_TOL, half the certificate's bound, as its derivation
    says (up to the unitarity defect)."""
    rng = np.random.default_rng(100 + 10 * d_a + d_b + swapped)
    D = d_a * d_b
    bound = 2 * D * RANK_TOL
    kinds = set()
    for _ in range(3):
        F = np.kron(random_unitary(d_a, rng), random_unitary(d_b, rng))
        if swapped:
            F = F @ swap_operator(d_a)
        H = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
        H = (H + H.conj().T) / np.linalg.norm(H + H.conj().T, 2)
        for eps in np.geomspace(1e-9, 1e-5, 13):
            X = _wrap(F @ scipy.linalg.expm(1j * eps * H), d_a, d_b)
            kind = classify_primitive(X).kind
            kinds.add(kind)
            if kind != "Imprimitive":
                assert not structure._certified_imprimitive(X), (eps, kind)
                assert _leading_minor(X) <= 0.5 * bound * (1 + 1e-6), (eps, kind)
    # the sweep reaches both verdicts, so it crosses the flip
    assert kinds == {"SwapProduct" if swapped else "Product", "Imprimitive"}


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (3, 3)])
def test_certificate_fires_on_haar_operands(d_a, d_b):
    """Every seeded Haar operand entangles |0...0> past the bound, and
    classify_primitive agrees that it is imprimitive."""
    rng = np.random.default_rng(12345)
    for _ in range(40):
        X = _wrap(random_unitary(d_a * d_b, rng), d_a, d_b)
        assert structure._certified_imprimitive(X)
        assert classify_primitive(X).kind == "Imprimitive"


def test_certificate_needs_two_levels_per_side():
    """With one level on B (validate_unitary takes d_b = 1, not d_a = 1)
    every image is a product: no certificate, even for an operand that mixes
    all levels of A."""
    rng = np.random.default_rng(5)
    for d_a in (2, 4):
        X = _wrap(random_unitary(d_a, rng), d_a, 1)
        assert not structure._certified_imprimitive(X)
    assert structure._certified_imprimitive(exp_xx_form(1.0, 2, 3))
    assert not structure._certified_imprimitive(_wrap(CNOT, 2, 2))  # |00> goes to |00>
