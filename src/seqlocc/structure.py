"""Operator Schmidt decomposition, primitivity classification, and the
symmetry characterization of exponentials of a product Hermitian generator.

A bipartite unitary is primitive when it is a product U_A (x) U_B, or such a
product followed by the swap when the two dimensions agree; otherwise it is
imprimitive and can entangle some product state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import CLOSED_FORM_TOL, MATCH_TOL, RANK_TOL
from .errors import DimensionMismatch, DimensionTooSmall
from .linalg import BipartiteUnitary, basis_state, kron, mat, normalize, validate_unitary

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass
class OperatorSchmidtDecomposition:
    """U = sum_i c_i A_i (x) B_i with c sorted descending and A_i, B_i
    orthonormal under the Hilbert-Schmidt inner product; A_i = left_ops[i]
    and B_i = right_ops[i] are stacked in (len(c), d, d) arrays."""

    coefficients: np.ndarray
    left_ops: np.ndarray
    right_ops: np.ndarray

    def rank(self, rank_tol: float = RANK_TOL) -> int:
        c = self.coefficients.tolist()  # a few floats: a list beats numpy's per-call cost
        return len([x for x in c if x > rank_tol * c[0]])


@dataclass
class PrimitiveForm:
    """Classification result with extracted local factors when primitive.

    factor_a and factor_b are the polar parts of the leading Schmidt pair of
    the plain (Product) or swapped (SwapProduct) realignment, with the
    largest-magnitude entry of factor_a real positive; None when imprimitive.
    deviation is the Frobenius distance, modulo a global phase, of the
    operator from the (swapped) product of its factors, an upper bound on
    the operator-norm distance; NaN for imprimitive operators. residual is
    the phase-invariant distance to the classified form: deviation /
    sqrt(2 dim), which is phase_distance for a unitary operator, and for
    imprimitive operators the distance to the nearest primitive form.
    schmidt_coefficients are those of the plain (unswapped) realignment.
    """

    kind: str  # "Product" | "SwapProduct" | "Imprimitive"
    factor_a: np.ndarray | None
    factor_b: np.ndarray | None
    residual: float
    schmidt_coefficients: np.ndarray
    deviation: float = math.nan


def realign(U, d_a: int, d_b: int) -> np.ndarray:
    """Reshuffle U[(a b), (a' b')] into R[(a a'), (b b')]."""
    A = mat(U)
    if A.shape != (d_a * d_b, d_a * d_b):
        raise DimensionMismatch(f"expected {(d_a * d_b,) * 2}, got {A.shape}")
    return A.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b * d_b)


def _schmidt(R: np.ndarray, d_a: int, d_b: int) -> OperatorSchmidtDecomposition:
    """Schmidt terms from the SVD of R, a realigned matrix.

    R = sum_i c_i x_i y_i^dag row-by-row gives B_i[b, b'] = (y_i^dag)[(b b')]
    directly; the rows of the returned V^dag factor are already the
    conjugated vectors. Each side is reshaped as one stack, not term by term.
    """
    X, s, Yh = np.linalg.svd(R)
    r = min(R.shape)
    return OperatorSchmidtDecomposition(s[:r], X.T.reshape(-1, d_a, d_a)[:r],
                                        Yh.reshape(-1, d_b, d_b)[:r])


def operator_schmidt(U: BipartiteUnitary) -> OperatorSchmidtDecomposition:
    """Schmidt terms of U, from the SVD of its realignment."""
    return _schmidt(realign(U.matrix, U.d_a, U.d_b), U.d_a, U.d_b)


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


def classify_primitive(U: BipartiteUnitary) -> PrimitiveForm:
    """Product / SwapProduct / Imprimitive, with factors where applicable.

    The decision is by operator Schmidt rank at RANK_TOL (second coefficient
    relative to the first), which is robust at float precision. The plain
    realignment is decomposed first; the swapped one, U P, only when the
    plain one is not rank 1 and d_a == d_b. Both cannot be rank 1: an
    operator that close to a product times the swap has d^2 Schmidt
    coefficients all near 1. The factors are the polar parts of the leading
    Schmidt pair, the nearest Kronecker product (Van Loan & Pitsianis), and
    the distance from the classified form (deviation, residual) is measured
    once on them.
    """
    d_a, d_b = U.d_a, U.d_b
    dec = schmidt = operator_schmidt(U)
    # the swap P only trades the column indices, so U P and its realignment
    # are index permutations of U, and so is form P below
    swapped = dec.rank() != 1 and d_a == d_b
    if swapped:
        schmidt = _schmidt(U.matrix.reshape((d_a,) * 4).transpose(0, 3, 1, 2).reshape(
            d_a * d_a, d_a * d_a), d_a, d_a)
    if schmidt.rank() == 1:
        fa, fb = _apply_phase_convention(_closest_unitary(schmidt.left_ops[0]),
                                         _closest_unitary(schmidt.right_ops[0]))
        form = kron(fa, fb)
        if swapped:
            form = form.reshape((d_a,) * 4).transpose(0, 1, 3, 2).reshape(d_a * d_a, d_a * d_a)
        t = np.vdot(form, U.matrix)  # tr(form^dag U), of modulus about dim
        deviation = float(np.linalg.norm(U.matrix - t / abs(t) * form))
        return PrimitiveForm("SwapProduct" if swapped else "Product", fa, fb,
                             deviation / math.sqrt(2 * d_a * d_b), dec.coefficients, deviation)
    # distance to the nearest primitive form, from the truncation weight of
    # the larger leading coefficient of the realignments decomposed
    c0 = max(dec.coefficients[0], schmidt.coefficients[0])
    residual = float(np.sqrt(max(0.0, 1.0 - c0 ** 2 / (d_a * d_b))))
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


def _sigma_x_block(d: int) -> np.ndarray:
    """sigma_x (+) 0 on a d-dimensional system."""
    if d < 2:
        raise DimensionTooSmall(f"need dimension >= 2, got {d}")
    u = np.zeros((d, d), dtype=complex)
    u[:2, :2] = SIGMA_X
    return u


def _exp_of_block(x: float, G: np.ndarray) -> np.ndarray:
    """expm(i x G) for a Hermitian G whose square is a projector:
    I + (cos x - 1) G^2 + i sin x G, exactly."""
    return np.eye(len(G), dtype=complex) + (np.cos(x) - 1.0) * (G @ G) + 1j * np.sin(x) * G


def xx_generator(d_a: int, d_b: int) -> np.ndarray:
    """(sigma_x (+) 0) (x) (sigma_x (+) 0): Hermitian, squares to a projector."""
    return np.kron(_sigma_x_block(d_a), _sigma_x_block(d_b))


def exp_xx_form(x: float, d_a: int, d_b: int) -> BipartiteUnitary:
    """expm(i x (sigma_x (+) 0) (x) (sigma_x (+) 0)).

    Acts as cos(x) I + i sin(x) sigma_x (x) sigma_x on the 4-dimensional
    block spanned by the first two levels of each side, and as the identity
    elsewhere.
    """
    return validate_unitary(_exp_of_block(x, xx_generator(d_a, d_b)), d_a, d_b, tol=CLOSED_FORM_TOL)


def block_exponential(x: float, d: int) -> np.ndarray:
    """expm(i x (sigma_x (+) 0)) on a single d-dimensional system."""
    return _exp_of_block(x, _sigma_x_block(d))


def _wrap_angle(x: float) -> float:
    """Map to the canonical representative in (-pi, pi]."""
    y = (x + np.pi) % (2 * np.pi) - np.pi
    return np.pi if y == -np.pi else float(y)


def _match_xx(M: np.ndarray, d_a: int, d_b: int, tol: float):
    """x in (-pi, pi] with ||M - exp_xx_form(x)|| <= tol, or None: the
    candidate read from the interaction block of M, then the distance
    verified against the matrix exp_xx_form validates."""
    x = _wrap_angle(float(np.arctan2(M[0, d_b + 1].imag, M[0, 0].real)))
    if np.linalg.norm(M - _exp_of_block(x, xx_generator(d_a, d_b)), 2) <= tol:
        return x
    return None


def match_exp_xx(U: BipartiteUnitary, tol: float = MATCH_TOL):
    """x in (-pi, pi] with ||U - exp_xx_form(x)|| <= tol, or None.

    The candidate angle is read from the interaction block: the diagonal
    entry gives cos(x) and the |00><11| entry gives i sin(x), which fixes
    the sign that eigenphases alone would leave open. Exact distance is then
    verified against the reconstructed form; no global phase is tolerated.
    """
    if U.d_a < 2 or U.d_b < 2:
        return None
    return _match_xx(U.matrix, U.d_a, U.d_b, tol)


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
    a = complex(U.matrix[0, 0])
    b = complex(U.matrix[0, d_b + 1])
    sq = a * a - b * b
    if abs(abs(sq) - 1.0) > 0.5:
        return None
    half = 0.5 * np.angle(sq)
    for phase in (half, half + np.pi):
        x = _match_xx(U.matrix * np.exp(-1j * phase), d_a, d_b, tol)
        if x is not None:
            return x, _wrap_angle(float(phase))
    return None
