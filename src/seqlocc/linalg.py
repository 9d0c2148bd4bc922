"""Dense complex matrix and state primitives shared by all other modules.

Index convention, used everywhere: the composite basis vector |a>|b> sits at
row a * d_b + b, which is what ``np.kron`` produces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import EIG_MAX_DEFECT, RunConfig
from .errors import DimensionMismatch, NotUnitary, NumericalFailure

TWO_PI = 2.0 * np.pi
# the dtype of every array the package makes; an operand of it needs no conversion
_COMPLEX = np.dtype(complex)

# below any nonzero norm or trace of the matrices handled here; guards a division
_TINY = 1e-300
# relative Frobenius residual of the Schur reconstruction of an exactly
# unitary matrix: float rounding keeps it orders of magnitude below this
_EIG_FLOOR = 1e-10
# deficit 1 - |tr(U^dag V)| / dim (a phase distance of 1e-2) above which the
# float64 trace decides phase_distance; every threshold the distance is
# compared with lies below it, so each is decided on the extended trace
_EXTENDED_BELOW = 1e-4
# eps of float64 plus eps of longdouble: (N + 2) times it bounds how far the
# float64 and the extended deficits of a trace of N terms of unitaries part
_TRACE_ROUNDING = float(np.finfo(float).eps + np.finfo(np.longdouble).eps)


@dataclass
class BipartiteUnitary:
    """A unitary with declared subsystem dimensions, as validate_unitary
    returns it; unitarity_defect(U.matrix) reads its defect.

    d_b == 1 marks single-system use; then d_a is the full dimension.
    """

    matrix: np.ndarray
    d_a: int
    d_b: int

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


def _complex_array(X) -> np.ndarray:
    """X as a complex128 ndarray: an ndarray of that dtype, as the package
    makes them, as it is; any other array-like converted once."""
    if type(X) is np.ndarray and X.dtype is _COMPLEX:
        return X
    return np.asarray(X, dtype=complex)


def _as_matrix(M) -> np.ndarray:
    A = _complex_array(M)
    if A.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={A.ndim}")
    return A


def mat(U) -> np.ndarray:
    """Underlying ndarray of a BipartiteUnitary or array-like; a complex128
    matrix, as the package passes around, is returned as is."""
    if type(U) is np.ndarray and U.dtype is _COMPLEX and U.ndim == 2:
        return U
    return U.matrix if isinstance(U, BipartiteUnitary) else _as_matrix(U)


@functools.cache
def _identity(n: int) -> np.ndarray:
    """The n x n identity, made once per n and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _unitarity_defect(stacks, tol: float) -> float:
    """The one unitarity verdict on the matrices F of these (k, n, n) stacks:
    0.0 when the Frobenius norm of all their F^dag F - I is within tol (it
    bounds each operator norm; a negative tol skips this screen), else the
    largest operator norm, one np.linalg.svd call per stack, up to the first
    stack with one above tol. A gram left non-finite by a NaN or infinite
    entry, or by an overflow, is an infinite defect: the batched matmuls run
    with numpy's warnings off. Taking the identity off changes no entry off
    the diagonal."""
    with np.errstate(invalid="ignore", over="ignore"):
        grams = [F.conj().transpose(0, 2, 1) @ F - _identity(F.shape[-1]) for F in stacks]
        if math.sqrt(sum(np.vdot(G, G).real for G in grams)) <= tol:
            return 0.0
    defect = 0.0
    for G in grams:
        if not np.isfinite(G).all():
            return math.inf
        defect = max(defect, float(np.linalg.svd(G, compute_uv=False).max()))
        if defect > tol:
            break
    return defect


def unitarity_defect(M) -> float:
    """Operator-norm deviation of M^dag M from the identity: its largest
    singular value, from the one LAPACK call np.linalg.norm(., 2) makes. A
    NaN or infinite entry raises NumericalFailure; a gram that overflows is
    an infinite defect."""
    A = _as_matrix(M)
    _check_finite(A, "unitarity defect")
    return _unitarity_defect((A[None],), -1.0)


def validate_unitary(M, d_a: int, d_b: int = 1,
                     tol: float = RunConfig.unitarity_tol) -> BipartiteUnitary:
    """Wrap M as a BipartiteUnitary after checking shape and unitarity: the
    defect _unitarity_defect decides, so a unitary M takes no SVD, and a NaN
    or infinite entry, or an overflowing gram, is an infinite defect."""
    A = _as_matrix(M)
    if d_a < 2 or d_b < 1:
        raise DimensionMismatch(f"need d_a >= 2 and d_b >= 1, got ({d_a}, {d_b})")
    n = d_a * d_b
    if A.shape != (n, n):
        raise DimensionMismatch(f"expected {n}x{n} for ({d_a}, {d_b}), got {A.shape}")
    defect = _unitarity_defect((A[None],), tol)
    if defect > tol:
        raise NotUnitary(defect, tol)
    return BipartiteUnitary(A, d_a, d_b)


def dagger(U) -> np.ndarray:
    """Conjugate transpose. Applied only to matrices the workbench holds
    explicitly, never to the unknown operation inside a scheme."""
    return mat(U).conj().T


def kron(A, B) -> np.ndarray:
    """np.kron of two matrices, or of each pair of matrices of two stacks of
    one length, (k, m, n) and (k, p, q), as one broadcast product: the same
    bits, faster. An operand with fewer than two axes, or stacks whose
    leading axes differ, raise DimensionMismatch."""
    a = A.matrix if isinstance(A, BipartiteUnitary) else _complex_array(A)
    b = B.matrix if isinstance(B, BipartiteUnitary) else _complex_array(B)
    k = a.shape[:-2]
    if a.ndim < 2 or b.ndim < 2 or k != b.shape[:-2]:
        raise DimensionMismatch(f"expected two matrices or two equal-length stacks, "
                                f"got {a.shape} and {b.shape}")
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(*k, m * p, n * q)


def normalize(psi) -> np.ndarray:
    """psi flattened and scaled to unit norm; a norm that is zero or not
    finite (a NaN or infinite entry) raises ValueError."""
    v = _complex_array(psi).reshape(-1)
    n = norm(v)
    if not 0.0 < n < math.inf:
        raise ValueError(f"cannot normalize a vector of norm {n}")
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

    The square root in _extended_distance amplifies rounding in |tr|/dim by a
    factor 1/(2 sqrt(eps)), so the trace is accumulated in longdouble where
    the platform provides one; equal-up-to-phase operands then measure a
    distance of ~1e-9 instead of ~3e-8. phase_distance needs it only for a
    deficit at or below _EXTENDED_BELOW.
    """
    x, y = a.astype(np.clongdouble), b.astype(np.clongdouble)
    ar, ai, br, bi = x.real, x.imag, y.real, y.imag
    return (ar * br + ai * bi).sum(), (ar * bi - ai * br).sum()


def _extended_distance(a: np.ndarray, b: np.ndarray) -> float:
    """phase_distance of two arrays of one shape, always from the extended
    trace: for a caller that ranks distances far above _EXTENDED_BELOW by
    differences near eps, where the float64 trace could reorder them."""
    re, im = _trace_inner(a, b)
    deficit = np.longdouble(1.0) - np.sqrt(re * re + im * im) / a.shape[0]
    if deficit <= 4.0 * np.finfo(float).eps:
        return 0.0
    return float(np.sqrt(deficit))


def _operand_pair(U, V) -> tuple[np.ndarray, np.ndarray]:
    a, b = mat(U), mat(V)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    if not a.shape[0]:
        raise DimensionMismatch(f"operands of shape {a.shape} have no rows")
    return a, b


def _distance_of_deficit(a: np.ndarray, b: np.ndarray, deficit: float) -> float:
    """phase_distance of a and b, given the deficit 1 - |tr(a^dag b)| / dim
    of the float64 trace. That deficit is not finite only when an entry is
    not (or the trace overflowed); then NumericalFailure is raised, before
    the extended trace would warn on the product."""
    if deficit > _EXTENDED_BELOW:
        return math.sqrt(deficit)
    if not math.isfinite(deficit) and not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NumericalFailure("phase distance of a matrix with non-finite entries")
    return _extended_distance(a, b)


def phase_distance(U, V) -> float:
    """Global-phase-invariant distance sqrt(max(0, 1 - |tr(U^dag V)| / dim)).

    Zero exactly when U = e^{i theta} V. Deficits at the float64
    representation scale (a few eps) read as zero: storing an exactly
    unitary matrix already perturbs |tr|/dim by that much, so nothing below
    it is measurable between stored operands. The float64 trace decides a
    deficit above _EXTENDED_BELOW, off by about one ulp of 1, which is
    eps / (2 r^2) relative at distance r; at or below it the value is
    _extended_distance's, bit for bit. A NaN or infinite entry raises
    NumericalFailure.
    """
    a, b = _operand_pair(U, V)
    return _distance_of_deficit(a, b, 1.0 - abs(np.vdot(a, b)) / a.shape[0])


def _phase_gap(U, V, tol: float) -> float:
    """phase_distance(U, V) wherever it exceeds tol; a pair the float64
    trace alone puts within tol reads that trace's sqrt(max(0, deficit))
    instead, also within tol, and skips the extended trace.

    The rounding bound: the float64 trace vdot(a, b) sums N = dim^2 complex
    products. In the standard model (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 3.6) a complex product is off by at most
    sqrt(2) gamma_2 = 2.83 u of its modulus and a complex sum by u of its
    own, so in any summation order the sum is off by at most
    (N - 1 + 2.83) u sum |a_ij| |b_ij|, and sum |a_ij| |b_ij| <= ||a||_F ||b||_F
    = dim for unitaries. abs adds at most 2u, the division by dim u, and
    1 - |t| / dim is exact near 1: the deficit is off by at most (N + 5) u,
    within (N + 2) eps = (N + 2) 2u for every N >= 1. The factor of about 2
    to spare covers operands a little off unitarity, whose norms scale the
    bound. The extended deficit is off by at most (N + 2) eps_L in turn,
    eps_L longdouble's eps. A float64 deficit below
    tol^2 - (N + 2) (eps + eps_L) thus puts the extended deficit below
    tol^2, which phase_distance reads as at most tol. For dim >= 7,
    (N + 2) eps exceeds DISTINCT_TOL^2 = 1e-14, so at that tolerance no
    pair whose float64 deficit is nonnegative skips the extended trace.
    """
    a, b = _operand_pair(U, V)
    deficit = 1.0 - abs(np.vdot(a, b)) / a.shape[0]
    # -inf is an infinite entry, which _distance_of_deficit reports
    if -math.inf < deficit < tol * tol - (a.size + 2) * _TRACE_ROUNDING:
        return math.sqrt(max(deficit, 0.0))
    return _distance_of_deficit(a, b, deficit)


def op_distance_mod_phase(A, B) -> float:
    """Operator-norm distance min over phases of ||A - e^{i t} B||; a NaN or
    infinite entry in either operand raises NumericalFailure before the
    phase is read."""
    a, b = mat(A), mat(B)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    _check_finite(a, "distance modulo phase")
    _check_finite(b, "distance modulo phase")
    t = np.trace(b.conj().T @ a)
    phase = t / abs(t) if abs(t) > _TINY else 1.0
    return float(singular_values(a - phase * b)[0])


def _wrap(ph: np.ndarray) -> np.ndarray:
    """The float array ph mapped into [0, 2pi) in place."""
    np.mod(ph, TWO_PI, out=ph)
    ph[ph >= TWO_PI] = 0.0
    return ph


def wrap_phases(phases) -> np.ndarray:
    """Angles mapped into [0, 2pi); a value that rounds to 2pi becomes 0."""
    return _wrap(np.array(phases, dtype=float))  # a copy: a scalar becomes a writable 0-d array


def canonical_phases(eigvals) -> np.ndarray:
    """Angles of unit-circle values mapped into [0, 2pi): np.angle's
    arctan2(imag, real), written into a fresh array and wrapped there."""
    z = _complex_array(eigvals)
    return _wrap(np.arctan2(z.imag, z.real, out=np.empty(z.shape)))


def _no_sort(_eigenvalue):
    return 0


@functools.cache
def _lapack(routine: str, m: int, n: int, compute_uv: bool = True):
    """LAPACK's complex `routine`, "gees" or "gesdd", and the workspace size
    its own query returns for an m x n matrix: the query scipy.linalg.schur
    makes for zgees, and the one numpy's umath_linalg makes for zgesdd, for
    the job compute_uv selects. A query reads the shape and job, not the
    matrix, so each is made once."""
    # imported here: loading scipy.linalg takes longer than the rest of the
    # package, and importing seqlocc or verifying a scheme never decomposes
    from scipy.linalg import get_lapack_funcs

    if routine == "gees":
        func, = get_lapack_funcs(("gees",), dtype=complex)
        work = func(_no_sort, np.eye(n, dtype=complex), lwork=-1)[-2][0]
    else:
        func, query = get_lapack_funcs(("gesdd", "gesdd_lwork"), dtype=complex)
        work = query(m, n, compute_uv=compute_uv, full_matrices=compute_uv)[0]
    return func, int(work.real)


def _check_finite(A: np.ndarray, what: str) -> float:
    """A's squared Frobenius norm, after NumericalFailure for a NaN or
    infinite entry."""
    # the squared norm, one BLAS call, is finite only when every entry is;
    # the entrywise test runs when it is not (or it overflowed)
    norm_sq = np.vdot(A, A).real
    if not math.isfinite(norm_sq) and not np.isfinite(A).all():
        raise NumericalFailure(f"{what} of a matrix with non-finite entries")
    return norm_sq


def _gesdd(M, compute_uv: bool):
    A = _as_matrix(M)
    if not A.size:  # LAPACK would refuse the leading dimension 0
        raise DimensionMismatch(f"singular value decomposition of an empty {A.shape} matrix")
    _check_finite(A, "singular value decomposition")
    func, lwork = _lapack("gesdd", *A.shape, compute_uv)
    out = func(A, compute_uv, compute_uv, lwork)  # full_matrices when U and V are asked for
    if out[-1] != 0:
        raise NumericalFailure(f"singular value decomposition failed: LAPACK zgesdd info {out[-1]}")
    return out


def svd(M):
    """(U, s, V^dag) of a matrix, all of U and V: LAPACK zgesdd with the
    workspace numpy queries, so np.linalg.svd(M)'s bits without its wrapper
    (U and V^dag come back in Fortran order). An empty matrix raises
    DimensionMismatch, a non-finite one or a LAPACK failure NumericalFailure."""
    return _gesdd(M, True)[:3]


def singular_values(M) -> np.ndarray:
    """Singular values of a matrix, descending: svd's kernel without U and
    V, the bits of np.linalg.svd(M, compute_uv=False). singular_values(M)[0]
    is the operator norm."""
    return _gesdd(M, False)[1]


def norm(x) -> float:
    """2-norm of the entries of an array: np.linalg.norm(x)'s own expression,
    x.real . x.real + x.imag . x.imag (x . x for a real x) over the array
    raveled in memory order, without its wrapper, so the same bits."""
    v = (x if type(x) is np.ndarray else np.asarray(x)).ravel(order="K")
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    v = v.astype(float, copy=False)
    return math.sqrt(v.dot(v))


def _schur_residual(A: np.ndarray, T: np.ndarray, phases: np.ndarray, norm_sq=None) -> float:
    """||Z D Z^dag - A|| / ||A|| for A = Z T Z^dag, read as ||T - D|| / ||A|| (Z is
    unitary), with D = diag(e^{i phases}), as w / |w| is nan at w = 0. T's
    diagonal is overwritten through a flat view of LAPACK's Fortran array;
    norm_sq is ||A||^2, when the caller has it."""
    R = T.ravel(order="K")
    R[::len(T) + 1] -= np.exp(1j * phases)
    if norm_sq is None:
        norm_sq = np.vdot(A, A).real
    return math.sqrt(np.vdot(R, R).real / max(norm_sq, _TINY))


def eig_unitary(U) -> SpectralDecomposition:
    """Spectral decomposition of a unitary via the complex Schur form.

    Calls LAPACK zgees as scipy.linalg.schur(U, output="complex") does, with
    the same workspace, so the bits are the same, without its wrapper. Schur
    keeps the eigenvector matrix exactly unitary, so degenerate clusters come
    out orthonormal. The relative residual of the reconstruction, read off the
    Schur form, is at most about d / sqrt(2) for a unitarity defect d, so it is
    verified to d + _EIG_FLOOR, with d up to EIG_MAX_DEFECT. A non-finite or
    non-square matrix, one whose squared norm overflows, or a LAPACK failure
    raises NumericalFailure.
    """
    A = mat(U)
    n = A.shape[0]
    if A.shape != (n, n) or n == 0:
        raise NumericalFailure(f"Schur decomposition needs a square matrix, got {A.shape}")
    norm_sq = _check_finite(A, "Schur decomposition")
    if not math.isfinite(norm_sq):  # finite entries whose squares overflow: no residual is read
        raise NumericalFailure("Schur decomposition of a matrix whose squared norm overflows")
    gees, lwork = _lapack("gees", n, n)
    T, _, w, Z, _, info = gees(_no_sort, A, 1, 0, lwork)  # compute_v, sort_t, lwork
    if info != 0:
        raise NumericalFailure(f"Schur decomposition failed: LAPACK zgees info {info}")
    phases = _wrap(np.arctan2(w.imag, w.real))  # canonical_phases of the vector w
    residual = _schur_residual(A, T, phases, norm_sq)
    if not residual <= _EIG_FLOOR:  # a NaN residual fails too
        defect = _unitarity_defect((A[None],), -1.0)
        if not (defect <= EIG_MAX_DEFECT and residual <= defect + _EIG_FLOOR):
            raise NumericalFailure(
                f"eigendecomposition residual {residual:.3e} with unitarity defect "
                f"{defect:.3e} (accepted up to {EIG_MAX_DEFECT:.0e})")
    order = phases.argsort(kind="stable")
    # Z[:, order]'s values and Fortran layout, gathered as rows of Z^T in one take
    return SpectralDecomposition(phases[order], Z.T.take(order, axis=0).T)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from the QR of a complex Gaussian matrix."""
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(A)
    d = np.diag(R)
    return Q * (d / np.abs(d))
