"""Operator Schmidt decomposition, primitivity classification, and the
symmetry characterization of exponentials of a product Hermitian generator.

A bipartite unitary is primitive when it is a product U_A (x) U_B, or such a
product followed by the swap when the two dimensions agree; otherwise it is
imprimitive and can entangle some product state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CLOSED_FORM_TOL, MATCH_TOL, RunConfig
from .errors import AmbiguousClassification, DimensionMismatch, DimensionTooSmall
from .linalg import (
    BipartiteUnitary,
    basis_state,
    kron,
    mat,
    normalize,
    phase_distance,
    swap_operator,
    validate_unitary,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass
class OperatorSchmidtDecomposition:
    """U = sum_i c_i A_i (x) B_i with c sorted descending and A_i, B_i
    orthonormal under the Hilbert-Schmidt inner product."""

    coefficients: np.ndarray
    left_ops: list[np.ndarray]
    right_ops: list[np.ndarray]

    def rank(self, rank_tol: float = RunConfig.rank_tol) -> int:
        c = self.coefficients
        return int(np.sum(c > rank_tol * c[0]))


@dataclass
class PrimitiveForm:
    """Classification result with extracted local factors when primitive.

    residual is the phase-invariant distance to the classified form; for
    imprimitive operators it is the distance to the nearest primitive form.
    schmidt_coefficients are those of the plain (unswapped) realignment.
    """

    kind: str  # "Product" | "SwapProduct" | "Imprimitive"
    factor_a: np.ndarray | None
    factor_b: np.ndarray | None
    residual: float
    schmidt_coefficients: np.ndarray


def realign(U, d_a: int, d_b: int) -> np.ndarray:
    """Reshuffle U[(a b), (a' b')] into R[(a a'), (b b')]."""
    A = mat(U)
    if A.shape != (d_a * d_b, d_a * d_b):
        raise DimensionMismatch(f"expected {(d_a * d_b,) * 2}, got {A.shape}")
    return A.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b * d_b)


def operator_schmidt(U: BipartiteUnitary) -> OperatorSchmidtDecomposition:
    """Schmidt terms from the SVD of the realigned matrix.

    R = sum_i c_i x_i y_i^dag row-by-row gives B_i[b, b'] = (y_i^dag)[(b b')]
    directly; the rows of the returned V^dag factor are already the
    conjugated vectors.
    """
    d_a, d_b = U.d_a, U.d_b
    R = realign(U.matrix, d_a, d_b)
    X, s, Yh = np.linalg.svd(R)
    r = min(R.shape)
    left = [X[:, i].reshape(d_a, d_a) for i in range(r)]
    right = [Yh[i, :].reshape(d_b, d_b) for i in range(r)]
    return OperatorSchmidtDecomposition(s[:r], left, right)


def _apply_phase_convention(fa: np.ndarray, fb: np.ndarray):
    """Largest-magnitude entry of factor_a real positive; the leftover
    scalar is absorbed into factor_b."""
    flat = np.abs(fa).ravel()
    pivot = fa.ravel()[int(np.argmax(flat))]
    phase = pivot / abs(pivot)
    return fa / phase, fb * phase


def _closest_unitary(M: np.ndarray) -> np.ndarray:
    X, _, Yh = np.linalg.svd(M)
    return X @ Yh


def _polish_product_factors(M: np.ndarray, fb: np.ndarray):
    """One sweep of alternating polar refinement of fa (x) fb toward M.

    Each half-step maximizes Re tr((fa (x) fb)^dag M) exactly over one
    unitary factor. For a product M = a (x) b, fb is b up to a phase, so one
    sweep returns a and b to the last bit the trace metric can see; for M
    eps off a product, fb starts O(eps) off the best fit, where the fit is
    stationary, so more sweeps would move the residual only at O(eps^2).
    """
    d_a, d_b = M.shape[0] // fb.shape[0], fb.shape[0]
    M4 = M.reshape(d_a, d_b, d_a, d_b)
    fa = _closest_unitary(np.einsum("abcd,bd->ac", M4, fb.conj()))
    fb = _closest_unitary(np.einsum("abcd,ac->bd", M4, fa.conj()))
    return fa, fb


def _unitary_factors_from_rank1(B: np.ndarray, M: np.ndarray):
    """Unitary factors of M from the B operator of its rank-1 Schmidt term,
    polished against M before the phase convention is applied."""
    return _apply_phase_convention(*_polish_product_factors(M, _closest_unitary(B)))


def entangling_witness(U: BipartiteUnitary):
    """(coefficient, state): a product state from a small computational-basis
    grid that U entangles, and the second Schmidt coefficient of its image.

    Candidates are basis states and two-term superpositions (+, -, +i) of
    the first three levels; the winner maximizes that coefficient. The
    state is None when no candidate is entangled at all (a primitive U).
    """
    d_a, d_b = U.d_a, U.d_b

    def side_states(d):
        states = [basis_state(d, k) for k in range(d)]
        for j in range(min(d, 3)):
            for k in range(j + 1, min(d, 3)):
                e_j, e_k = basis_state(d, j), basis_state(d, k)
                states.append(normalize(e_j + e_k))
                states.append(normalize(e_j - e_k))
                states.append(normalize(e_j + 1j * e_k))
        return states

    best = (0.0, None)
    for sa in side_states(d_a):
        for sb in side_states(d_b):
            out = U.matrix @ np.kron(sa, sb)
            s = np.linalg.svd(out.reshape(d_a, d_b), compute_uv=False)
            if s[1] > best[0]:
                best = (float(s[1]), np.kron(sa, sb))
    return best


def classify_primitive(U: BipartiteUnitary,
                       rank_tol: float = RunConfig.rank_tol) -> PrimitiveForm:
    """Product / SwapProduct / Imprimitive, with factors where applicable.

    The decision is by operator Schmidt rank at rank_tol (second coefficient
    relative to the first), which is robust at float precision; the
    phase-invariant residual to the classified form is recorded alongside.
    The product form is tested first, then the swapped product (only when
    d_a == d_b); rank 1 for both forms cannot occur exactly (the swap itself
    is never a product) and raises AmbiguousClassification.
    """
    d_a, d_b = U.d_a, U.d_b
    dec = operator_schmidt(U)
    is_product = dec.rank(rank_tol) == 1

    dec_p = None
    is_swap = False
    if d_a == d_b:
        UP = BipartiteUnitary(U.matrix @ swap_operator(d_a), d_a, d_b, U.unitarity_defect)
        dec_p = operator_schmidt(UP)
        is_swap = dec_p.rank(rank_tol) == 1

    if is_product and is_swap:
        raise AmbiguousClassification(
            "both the plain and the swapped realignment look rank one")
    if is_product:
        fa, fb = _unitary_factors_from_rank1(dec.right_ops[0], U.matrix)
        return PrimitiveForm("Product", fa, fb,
                             float(phase_distance(U.matrix, kron(fa, fb))), dec.coefficients)
    if is_swap:
        ga, gb = _unitary_factors_from_rank1(dec_p.right_ops[0], U.matrix @ swap_operator(d_a))
        residual = phase_distance(U.matrix, kron(ga, gb) @ swap_operator(d_a))
        return PrimitiveForm("SwapProduct", ga, gb, float(residual), dec.coefficients)
    # distance to the nearest primitive form, from the truncation weight
    c = dec.coefficients
    residual = float(np.sqrt(max(0.0, 1.0 - c[0] ** 2 / (d_a * d_b))))
    if dec_p is not None:
        cp = dec_p.coefficients
        residual = min(residual, float(np.sqrt(max(0.0, 1.0 - cp[0] ** 2 / (d_a * d_b)))))
    return PrimitiveForm("Imprimitive", None, None, residual, dec.coefficients)


def _embedded_pauli(sigma: np.ndarray, d: int) -> np.ndarray:
    """sigma (+) I_{d-2}: the Pauli block on the first two levels."""
    M = np.eye(d, dtype=complex)
    M[:2, :2] = sigma
    return M


@dataclass
class SymmetrySet:
    """The four Hermitian unitary probes (sigma (+) I) on either side.

    factor_pairs holds the (A-side, B-side) local factors of each element,
    so the probes can enter circuit templates as product layers.
    """

    elements: list[np.ndarray]
    labels: list[str]
    factor_pairs: list[tuple[np.ndarray, np.ndarray]]


def build_symmetry_set(d_a: int, d_b: int) -> SymmetrySet:
    if d_a < 2 or d_b < 2:
        raise DimensionTooSmall(f"need both dimensions >= 2, got ({d_a}, {d_b})")
    pairs = [
        (_embedded_pauli(SIGMA_Z, d_a), np.eye(d_b, dtype=complex)),
        (_embedded_pauli(SIGMA_Y, d_a), np.eye(d_b, dtype=complex)),
        (np.eye(d_a, dtype=complex), _embedded_pauli(SIGMA_Z, d_b)),
        (np.eye(d_a, dtype=complex), _embedded_pauli(SIGMA_Y, d_b)),
    ]
    labels = ["(sz+I)xI", "(sy+I)xI", "Ix(sz+I)", "Ix(sy+I)"]
    return SymmetrySet([np.kron(a, b) for a, b in pairs], labels, pairs)


def symmetry_set_inverts(U: BipartiteUnitary) -> bool:
    """True when U^dag = W U W^dag holds (in operator norm, to MATCH_TOL) for
    all four probes W. Literal equality is demanded, not phase equivalence."""
    Ud = U.matrix.conj().T
    for W in build_symmetry_set(U.d_a, U.d_b).elements:
        if np.linalg.norm(Ud - W @ U.matrix @ W.conj().T, 2) > MATCH_TOL:
            return False
    return True


def xx_generator(d_a: int, d_b: int) -> np.ndarray:
    """(sigma_x (+) 0) (x) (sigma_x (+) 0): Hermitian, squares to a projector."""
    if d_a < 2 or d_b < 2:
        raise DimensionTooSmall(f"need both dimensions >= 2, got ({d_a}, {d_b})")
    u1 = np.zeros((d_a, d_a), dtype=complex)
    u1[:2, :2] = SIGMA_X
    u2 = np.zeros((d_b, d_b), dtype=complex)
    u2[:2, :2] = SIGMA_X
    return np.kron(u1, u2)


def exp_xx_form(x: float, d_a: int, d_b: int) -> BipartiteUnitary:
    """expm(i x (sigma_x (+) 0) (x) (sigma_x (+) 0)).

    Acts as cos(x) I + i sin(x) sigma_x (x) sigma_x on the 4-dimensional
    block spanned by the first two levels of each side, and as the identity
    elsewhere. G^2 is the block projector, so the two-term closed form is
    exact.
    """
    G = xx_generator(d_a, d_b)
    proj = G @ G
    M = np.eye(d_a * d_b, dtype=complex) + (np.cos(x) - 1.0) * proj + 1j * np.sin(x) * G
    return validate_unitary(M, d_a, d_b, tol=CLOSED_FORM_TOL)


def block_exponential(x: float, d: int) -> np.ndarray:
    """expm(i x (sigma_x (+) 0)) on a single d-dimensional system."""
    u = np.zeros((d, d), dtype=complex)
    u[:2, :2] = SIGMA_X
    proj = u @ u
    return np.eye(d, dtype=complex) + (np.cos(x) - 1.0) * proj + 1j * np.sin(x) * u


def _wrap_angle(x: float) -> float:
    """Map to the canonical representative in (-pi, pi]."""
    y = (x + np.pi) % (2 * np.pi) - np.pi
    return np.pi if y == -np.pi else float(y)


def match_exp_xx(U: BipartiteUnitary, tol: float = MATCH_TOL):
    """x in (-pi, pi] with ||U - exp_xx_form(x)|| <= tol, or None.

    The candidate angle is read from the interaction block: the diagonal
    entry gives cos(x) and the |00><11| entry gives i sin(x), which fixes
    the sign that eigenphases alone would leave open. Exact distance is then
    verified against the reconstructed form; no global phase is tolerated.
    """
    d_a, d_b = U.d_a, U.d_b
    if d_a < 2 or d_b < 2:
        return None
    i00 = 0
    i11 = 1 * d_b + 1
    c = U.matrix[i00, i00].real
    s = U.matrix[i00, i11].imag
    x = _wrap_angle(float(np.arctan2(s, c)))
    ref = exp_xx_form(x, d_a, d_b)
    if np.linalg.norm(U.matrix - ref.matrix, 2) <= tol:
        return x
    return None


def match_exp_xx_mod_phase(U: BipartiteUnitary, tol: float = MATCH_TOL):
    """(x, phase) with U = e^{i phase} exp_xx_form(x) within tol, or None.

    Routing helper for the case engine: the discrimination logic treats a
    global phase as unobservable, so images that only differ from the
    canonical form by a phase follow the same branch.

    If the form holds, the block entries give a = e^{i phase} cos x and
    b = e^{i phase} i sin x, so a^2 - b^2 = e^{2 i phase}; both square
    roots are tried against the exact matcher.
    """
    d_a, d_b = U.d_a, U.d_b
    if d_a < 2 or d_b < 2:
        return None
    i00 = 0
    i11 = 1 * d_b + 1
    a = complex(U.matrix[i00, i00])
    b = complex(U.matrix[i00, i11])
    sq = a * a - b * b
    if abs(abs(sq) - 1.0) > 0.5:
        return None
    half = 0.5 * np.angle(sq)
    for phase in (half, half + np.pi):
        stripped = BipartiteUnitary(U.matrix * np.exp(-1j * phase), d_a, d_b,
                                    U.unitarity_defect)
        x = match_exp_xx(stripped, tol)
        if x is not None:
            return x, _wrap_angle(float(phase))
    return None
