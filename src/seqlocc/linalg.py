"""Dense complex matrix and state primitives shared by all other modules.

Index convention, used everywhere: the composite basis vector |a>|b> sits at
row a * d_b + b, which is what ``np.kron`` produces.
"""

from __future__ import annotations

import functools
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
    """Operator-norm deviation of M^dag M from the identity: its largest
    singular value, from the one LAPACK call np.linalg.norm(., 2) makes."""
    A = _as_matrix(M)
    return float(np.linalg.svd(A.conj().T @ A - np.eye(A.shape[1]), compute_uv=False)[0])


def validate_unitary(M, d_a: int, d_b: int = 1,
                     tol: float = RunConfig.unitarity_tol) -> BipartiteUnitary:
    """Wrap M as a BipartiteUnitary after checking shape and unitarity; a
    NaN or infinite entry is an infinite defect."""
    A = _as_matrix(M)
    if d_a < 2 or d_b < 1:
        raise DimensionMismatch(f"need d_a >= 2 and d_b >= 1, got ({d_a}, {d_b})")
    n = d_a * d_b
    if A.shape != (n, n):
        raise DimensionMismatch(f"expected {n}x{n} for ({d_a}, {d_b}), got {A.shape}")
    if not np.isfinite(A).all():
        raise NotUnitary(np.inf, tol)
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
    return float(np.linalg.svd(a - phase * b, compute_uv=False)[0])


def wrap_phases(phases) -> np.ndarray:
    """Angles mapped into [0, 2pi); a value that rounds to 2pi becomes 0."""
    ph = np.array(phases, dtype=float)  # a copy: a scalar becomes a writable 0-d array
    np.mod(ph, TWO_PI, out=ph)
    ph[ph >= TWO_PI] = 0.0
    return ph


def canonical_phases(eigvals) -> np.ndarray:
    """Angles of unit-circle values mapped into [0, 2pi)."""
    return wrap_phases(np.angle(np.asarray(eigvals, dtype=complex)))


def _no_sort(_eigenvalue):
    return 0


@functools.cache
def _gees(n: int):
    """LAPACK zgees and the workspace size scipy.linalg.schur queries for it
    at dimension n (the query reads n only, not the matrix)."""
    # imported here: loading scipy.linalg takes longer than the rest of the
    # package, and importing seqlocc or verifying a scheme never decomposes
    from scipy.linalg import get_lapack_funcs

    gees, = get_lapack_funcs(("gees",), (np.zeros((n, n), dtype=complex),))
    work = gees(_no_sort, np.eye(n, dtype=complex), lwork=-1)[-2]
    return gees, int(work[0].real)


def _schur_residual(A: np.ndarray, T: np.ndarray, phases: np.ndarray) -> float:
    """||Z D Z^dag - A|| / ||A|| for A = Z T Z^dag, read as ||T - D|| / ||A|| (Z is
    unitary), T overwritten; D = diag(e^{i phases}), as w / |w| is nan at w = 0."""
    T.flat[::len(T) + 1] -= np.exp(1j * phases)
    return np.vdot(T, T).real ** 0.5 / max(np.vdot(A, A).real ** 0.5, _TINY)


def eig_unitary(U) -> SpectralDecomposition:
    """Spectral decomposition of a unitary via the complex Schur form.

    Calls LAPACK zgees as scipy.linalg.schur(U, output="complex") does, with
    the same workspace, so the bits are the same, without its wrapper. Schur
    keeps the eigenvector matrix exactly unitary, so degenerate clusters come
    out orthonormal. The relative residual of the reconstruction, read off the
    Schur form, is at most about d / sqrt(2) for a unitarity defect d, so it is
    verified to d + _EIG_FLOOR, with d up to EIG_MAX_DEFECT. A non-finite or
    non-square matrix, or a LAPACK failure, raises NumericalFailure.
    """
    A = mat(U)
    n = A.shape[0]
    if A.shape != (n, n) or n == 0:
        raise NumericalFailure(f"Schur decomposition needs a square matrix, got {A.shape}")
    if not np.isfinite(A).all():
        raise NumericalFailure("Schur decomposition of a matrix with non-finite entries")
    gees, lwork = _gees(n)
    T, _, w, Z, _, info = gees(_no_sort, A, lwork=lwork)
    if info != 0:
        raise NumericalFailure(f"Schur decomposition failed: LAPACK zgees info {info}")
    phases = canonical_phases(w)
    residual = _schur_residual(A, T, phases)
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    vectors = Z[:, order]
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
