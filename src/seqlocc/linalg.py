"""Dense complex matrix and state primitives shared by all other modules.

Index convention, used everywhere: the composite basis vector |a>|b> sits at
row a * d_b + b, which is what ``np.kron`` produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import EIG_MAX_DEFECT, RunConfig
from .errors import DimensionMismatch, NotUnitary, NumericalFailure

TWO_PI = 2.0 * np.pi

# below any nonzero norm or trace of the matrices handled here; guards a division
_TINY = 1e-300
# relative Frobenius residual of the Schur reconstruction of an exactly
# unitary matrix: float rounding keeps it orders of magnitude below this
_EIG_FLOOR = 1e-10
# a residual norm above this keeps the Gram-Schmidt step well conditioned
_ORTHO_MIN = 1e-8


@dataclass
class BipartiteUnitary:
    """A validated unitary with declared subsystem dimensions.

    d_b == 1 marks single-system use; then d_a is the full dimension.
    """

    matrix: np.ndarray
    d_a: int
    d_b: int
    unitarity_defect: float

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b


@dataclass
class SpectralDecomposition:
    """Eigenphases in [0, 2pi) sorted ascending, with orthonormal eigenvectors.

    vectors[:, k] belongs to phases[k]. Within a degenerate cluster any
    orthonormal basis of the eigenspace is acceptable; callers must not rely
    on the particular choice.
    """

    phases: np.ndarray
    vectors: np.ndarray


def _as_matrix(M) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={A.ndim}")
    return A


def mat(U) -> np.ndarray:
    """Underlying ndarray of a BipartiteUnitary or array-like."""
    return U.matrix if isinstance(U, BipartiteUnitary) else _as_matrix(U)


def unitarity_defect(M) -> float:
    """Operator-norm deviation of M^dag M from the identity."""
    A = _as_matrix(M)
    return float(np.linalg.norm(A.conj().T @ A - np.eye(A.shape[1]), 2))


def validate_unitary(M, d_a: int, d_b: int = 1,
                     tol: float = RunConfig.unitarity_tol) -> BipartiteUnitary:
    """Wrap M as a BipartiteUnitary after checking shape and unitarity."""
    A = _as_matrix(M)
    if d_a < 2 or d_b < 1:
        raise DimensionMismatch(f"need d_a >= 2 and d_b >= 1, got ({d_a}, {d_b})")
    n = d_a * d_b
    if A.shape != (n, n):
        raise DimensionMismatch(f"expected {n}x{n} for ({d_a}, {d_b}), got {A.shape}")
    defect = unitarity_defect(A)
    if defect > tol:
        raise NotUnitary(defect, tol)
    return BipartiteUnitary(A, d_a, d_b, defect)


def dagger(U) -> np.ndarray:
    """Conjugate transpose. Applied only to matrices the workbench holds
    explicitly, never to the unknown operation inside a scheme."""
    return mat(U).conj().T


def kron(A, B) -> np.ndarray:
    """np.kron of two matrices as one broadcast product: the same bits, faster."""
    a, b = mat(A), mat(B)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], -1)


def normalize(psi) -> np.ndarray:
    v = np.asarray(psi, dtype=complex).reshape(-1)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def basis_state(dim: int, index: int) -> np.ndarray:
    e = np.zeros(dim, dtype=complex)
    e[index] = 1.0
    return e


def swap_operator(d: int) -> np.ndarray:
    """P with P|x>|y> = |y>|x> on d (x) d. Satisfies P @ P = I."""
    P = np.zeros((d * d, d * d), dtype=complex)
    for x in range(d):
        for y in range(d):
            P[y * d + x, x * d + y] = 1.0
    return P


def _trace_inner(a: np.ndarray, b: np.ndarray):
    """tr(a^dag b) = sum of conj(a) * b elementwise, in extended precision.

    The square root in phase_distance amplifies rounding in |tr|/dim by a
    factor 1/(2 sqrt(eps)), so the trace is accumulated in longdouble where
    the platform provides one; equal-up-to-phase operands then measure a
    distance of ~1e-9 instead of ~3e-8.
    """
    ar, ai = a.real.astype(np.longdouble), a.imag.astype(np.longdouble)
    br, bi = b.real.astype(np.longdouble), b.imag.astype(np.longdouble)
    re = np.sum(ar * br + ai * bi)
    im = np.sum(ar * bi - ai * br)
    return re, im


def phase_distance(U, V) -> float:
    """Global-phase-invariant distance sqrt(max(0, 1 - |tr(U^dag V)| / dim)).

    Zero exactly when U = e^{i theta} V. Deficits at the float64
    representation scale (a few eps) read as zero: storing an exactly
    unitary matrix already perturbs |tr|/dim by that much, so nothing below
    it is measurable between stored operands.
    """
    a, b = mat(U), mat(V)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    d = a.shape[0]
    re, im = _trace_inner(a, b)
    deficit = np.longdouble(1.0) - np.sqrt(re * re + im * im) / d
    if deficit <= 4.0 * np.finfo(float).eps:
        return 0.0
    return float(np.sqrt(deficit))


def op_distance_mod_phase(A, B) -> float:
    """Operator-norm distance min over phases of ||A - e^{i t} B||."""
    a, b = mat(A), mat(B)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    t = np.trace(b.conj().T @ a)
    phase = t / abs(t) if abs(t) > _TINY else 1.0
    return float(np.linalg.norm(a - phase * b, 2))


def canonical_phases(eigvals) -> np.ndarray:
    """Angles of unit-circle values mapped into [0, 2pi)."""
    ph = np.mod(np.angle(np.asarray(eigvals, dtype=complex)), TWO_PI)
    ph[ph >= TWO_PI] = 0.0
    return ph


def eig_unitary(U) -> SpectralDecomposition:
    """Spectral decomposition of a unitary via the complex Schur form.

    Schur keeps the eigenvector matrix exactly unitary, so degenerate
    clusters come out orthonormal. The relative Frobenius residual of the
    reconstruction is at most about d / sqrt(2) for a unitarity defect d, so
    it is verified to d + _EIG_FLOOR, with d up to EIG_MAX_DEFECT.
    """
    # imported here: loading scipy.linalg takes longer than the rest of the
    # package, and importing seqlocc or verifying a scheme never decomposes
    import scipy.linalg

    A = mat(U)
    try:
        T, Z = scipy.linalg.schur(A, output="complex")
    except Exception as exc:  # pragma: no cover - scipy failure is exotic
        raise NumericalFailure(f"Schur decomposition failed: {exc}") from exc
    phases = canonical_phases(np.diag(T))
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    vectors = Z[:, order]
    recon = (vectors * np.exp(1j * phases)) @ vectors.conj().T
    residual = np.linalg.norm(recon - A) / max(np.linalg.norm(A), _TINY)
    if residual > _EIG_FLOOR:
        defect = unitarity_defect(A)
        if not (defect <= EIG_MAX_DEFECT and residual <= defect + _EIG_FLOOR):
            raise NumericalFailure(
                f"eigendecomposition residual {residual:.3e} with unitarity defect "
                f"{defect:.3e} (accepted up to {EIG_MAX_DEFECT:.0e})")
    return SpectralDecomposition(phases, vectors)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from the QR of a complex Gaussian matrix."""
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(A)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def orthogonal_state(psi) -> np.ndarray:
    """Deterministic unit vector orthogonal to psi (dim >= 2)."""
    v = normalize(psi)
    dim = v.shape[0]
    if dim < 2:
        raise DimensionMismatch("no orthogonal state in dimension 1")
    for k in range(dim):
        e = basis_state(dim, k)
        w = e - np.vdot(v, e) * v
        n = np.linalg.norm(w)
        if n > _ORTHO_MIN:
            return w / n
    raise NumericalFailure("failed to orthogonalize against the given state")
