"""Eigenphase arc analysis: the single-query criterion and zero-overlap inputs.

Theta(W) is the length of the smallest arc on the unit circle containing all
eigenvalues of W. A pair (U, V) is perfectly distinguishable with one query
exactly when Theta(U^dag V) >= pi, equivalently when 0 lies in the convex
hull of the eigenvalues of U^dag V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import ArcTooSmall, DimensionMismatch, Indistinguishable
from .linalg import TWO_PI, SpectralDecomposition, dagger, eig_unitary, mat, phase_distance

# queries_for_arc rounds a quotient within _CEIL_SLACK of an integer down, so
# zero_overlap_from_spectrum also takes an arc short of pi - tol_angle by that
_CEIL_SLACK = 1e-12
_ARC_ROUNDING = 1e-11


@dataclass
class ArcInfo:
    """Smallest covering arc: length theta, endpoints, and witness indices.

    witness_phase_indices point into the sorted eigenphase array of the
    analyzed operator (one representative per endpoint).
    """

    theta: float
    start_phase: float
    end_phase: float
    witness_phase_indices: tuple[int, int]


def dedup_phases(phases, tol_angle: float = RunConfig.tol_angle):
    """Cluster sorted phases circularly at tol_angle.

    Returns (representatives, member_index) where member_index[j] is the
    position in the sorted input of cluster j's first member.
    """
    p = np.sort(np.asarray(phases, dtype=float))
    if p.size == 0:
        raise ValueError("empty phase list")
    reps = [p[0]]
    first = [0]
    counts = [1]
    for i in range(1, p.size):
        if p[i] - reps[-1] <= tol_angle:
            counts[-1] += 1
        else:
            reps.append(p[i])
            first.append(i)
            counts.append(1)
    # wrap-around cluster: the top of the circle may continue the bottom
    if len(reps) > 1 and (p[0] + TWO_PI) - reps[-1] <= tol_angle:
        counts[0] += counts.pop()
        reps.pop()
        first.pop()
    return np.asarray(reps), first, counts


def arc_of_phases(phases, tol_angle: float = RunConfig.tol_angle) -> ArcInfo:
    """Smallest covering arc of a set of phases in [0, 2pi)."""
    reps, first, _ = dedup_phases(phases, tol_angle)
    m = reps.size
    if m == 1:
        return ArcInfo(0.0, float(reps[0]), float(reps[0]), (first[0], first[0]))
    gaps = np.empty(m)
    gaps[:-1] = np.diff(reps)
    gaps[-1] = reps[0] + TWO_PI - reps[-1]
    j = int(np.argmax(gaps))
    start = (j + 1) % m
    theta = float(TWO_PI - gaps[j])
    return ArcInfo(theta, float(reps[start]), float(reps[j]), (first[start], first[j]))


def smallest_arc(U, tol_angle: float = RunConfig.tol_angle) -> ArcInfo:
    """Theta(U) with endpoints, from the sorted deduplicated eigenphases."""
    dec = eig_unitary(U)
    return arc_of_phases(dec.phases, tol_angle)


def single_query_distinguishable(U, V, tol_angle: float = RunConfig.tol_angle) -> bool:
    """True when Theta(U^dag V) >= pi (within tol_angle)."""
    a, b = mat(U), mat(V)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    return smallest_arc(dagger(a) @ b, tol_angle).theta >= math.pi - tol_angle


def queries_for_arc(theta: float, tol_angle: float = RunConfig.tol_angle) -> int:
    """Fewest n with n theta >= pi - tol_angle: queries stretching arc theta to pi."""
    return max(1, math.ceil((math.pi - tol_angle) / theta - _CEIL_SLACK))


def parallel_query_count(U, V, distinct_tol: float = RunConfig.distinct_tol,
                         tol_angle: float = RunConfig.tol_angle) -> int:
    """queries_for_arc(Theta(U^dag V)): parallel copies needed for orthogonality."""
    if phase_distance(U, V) <= distinct_tol:
        raise Indistinguishable("operations agree up to a global phase")
    theta = smallest_arc(dagger(U) @ mat(V), tol_angle).theta
    if theta <= tol_angle:
        raise Indistinguishable("relative operation has a single eigenvalue")
    return queries_for_arc(theta, tol_angle)


def min_achievable_overlap(theta: float) -> float:
    """min over unit psi of |<psi|T|psi>| for a normal T with arc theta.

    Equals the distance from 0 to the convex hull of the eigenvalues,
    which is cos(theta / 2) while theta < pi and 0 afterwards.
    """
    return max(0.0, math.cos(theta / 2.0))


def _pair_weight(z1: complex, z2: complex) -> float:
    """p minimizing |p z1 + (1-p) z2| over [0, 1] for distinct points."""
    delta = z1 - z2
    return float(np.clip(-np.real(np.conj(delta) * z2) / abs(delta) ** 2, 0.0, 1.0))


def _triple_weights(z) -> np.ndarray:
    """Barycentric weights p >= 0, sum 1, with p @ z = 0, for three unit-circle
    points whose circular gaps are all at most pi (0 is in their triangle)."""
    A = np.array([[(z[0] - z[2]).real, (z[1] - z[2]).real],
                  [(z[0] - z[2]).imag, (z[1] - z[2]).imag]])
    p12 = np.linalg.solve(A, [-z[2].real, -z[2].imag])
    p = np.clip([p12[0], p12[1], 1.0 - p12[0] - p12[1]], 0.0, None)
    return p / p.sum()


def zero_overlap_state(T, tol_angle: float = RunConfig.tol_angle) -> np.ndarray:
    """Unit state psi with <psi|T|psi> = 0, mixing at most 3 eigenvectors.

    Requires Theta(T) >= pi - tol_angle; see zero_overlap_from_spectrum.
    """
    dec = eig_unitary(T)
    return zero_overlap_from_spectrum(dec, arc_of_phases(dec.phases, tol_angle), tol_angle)


def zero_overlap_from_spectrum(dec: SpectralDecomposition, info: ArcInfo,
                               tol_angle: float) -> np.ndarray:
    """zero_overlap_state from a decomposition and its arc, in closed form.

    Up to pi + tol_angle the two arc-endpoint eigenvectors are mixed; an arc
    short of pi by at most tol_angle leaves the optimal residual
    cos(theta / 2). A wider arc adds the eigenvector nearest its middle: its
    phase lies in [end - pi, start + pi], a window of length 2 pi - theta
    that no gap inside the arc can skip (the outer gap is the widest), so
    the three circular gaps are at most pi and the weights are nonnegative.
    """
    if info.theta < math.pi - tol_angle - _ARC_ROUNDING:
        raise ArcTooSmall(info.theta, min_achievable_overlap(info.theta))
    s, e = info.witness_phase_indices
    z = np.exp(1j * dec.phases)
    if info.theta <= math.pi + tol_angle:
        idx = sorted((s, e))
        p = _pair_weight(*z[idx])
        w = np.array([p, 1.0 - p])
    else:
        offset = np.mod(dec.phases - info.start_phase, TWO_PI)
        idx = [s, int(np.argmin(np.abs(offset - 0.5 * info.theta))), e]
        w = _triple_weights(z[idx])
    psi = dec.vectors[:, idx] @ np.sqrt(w).astype(complex)
    return psi / np.linalg.norm(psi)


def eigenphase_rows(U, tol_angle: float = RunConfig.tol_angle):
    """(index, phase, multiplicity) rows of the deduplicated spectrum of U,
    or of a SpectralDecomposition already made of it."""
    dec = U if isinstance(U, SpectralDecomposition) else eig_unitary(U)
    reps, _, counts = dedup_phases(dec.phases, tol_angle)
    return [(k, float(reps[k]), int(counts[k])) for k in range(reps.size)]


# relative size of the rounding noise the closed forms below tolerate
_ROUNDING = 1e-13
# support angles of the numerical-range screen, and the accepted |phi^dag A phi|
_ANGLES = 32
_ZERO_TOL = 1e-12


def _zero_of_2x2(A: np.ndarray) -> np.ndarray | None:
    """Unit x in C^2 with x^dag A x = 0, in closed form; None when 0 lies
    outside the numerical range F(A) by more than rounding.

    A is first turned so that its eigenvalues, the foci of the ellipse
    F(A), lie on a horizontal line: the Hermitian part then has its widest
    spread, and a thin ellipse near a vertical segment stays well
    conditioned. With the Hermitian part E diag(h0, h1) E^dag and
    K = E^dag (A - A^dag) E / 2i, the vector x = E (cos t, e^{i beta} sin t)
    has real part h0 cos^2 t + h1 sin^2 t, zero at cos^2 t = h1 / (h1 - h0),
    and imaginary part c0 + 2 cos t sin t |K01| cos(beta + arg K01) with
    c0 = K00 cos^2 t + K11 sin^2 t; over beta that covers the whole slice of
    F(A) on the imaginary axis, so 0 is in F(A) iff h0 <= 0 <= h1 and
    |c0| <= 2 cos t sin t |K01|.
    """
    mu = np.sqrt(0.25 * (A[0, 0] - A[1, 1]) ** 2 + A[0, 1] * A[1, 0])
    if mu != 0:
        A = A * (abs(mu) / mu)
    slack = _ROUNDING * np.linalg.norm(A)
    h, E = np.linalg.eigh(0.5 * (A + A.conj().T))
    if h[0] > slack or h[1] < -slack:
        return None
    gap = h[1] - h[0]
    c2 = 0.5 if gap == 0.0 else min(1.0, max(0.0, h[1] / gap))
    c, s = math.sqrt(c2), math.sqrt(1.0 - c2)
    K = E.conj().T @ (A - A.conj().T) @ E / 2j
    c0 = K[0, 0].real * c2 + K[1, 1].real * (1.0 - c2)
    r = 2.0 * c * s * abs(K[0, 1])
    if abs(c0) > r + slack:
        return None
    beta = 0.0 if r == 0.0 else math.acos(min(1.0, max(-1.0, -c0 / r))) - np.angle(K[0, 1])
    return E @ np.array([c, np.exp(1j * beta) * s])


def _hit(A: np.ndarray, X: np.ndarray, z: complex) -> np.ndarray | None:
    """Unit v in the span of the two columns of X with v^dag A v = z, for a
    z inside F of A compressed to that span (one column suffices when they
    are parallel: the completed orthonormal basis still holds it)."""
    Q = np.linalg.qr(X)[0]
    c = _zero_of_2x2(Q.conj().T @ A @ Q - z * np.eye(2))
    return None if c is None else Q @ c


def numerical_range_zero(A) -> np.ndarray | None:
    """Unit phi with |phi^dag A phi| <= _ZERO_TOL, or None when none is found.

    0 lies in the numerical range F(A) iff the support function
    lambda_max(Re(e^{i alpha} A)) is nonnegative at every alpha, so one
    batched eigh at _ANGLES equally spaced alpha screens out every A with a
    separating line among them. The top eigenvectors x_k of those
    Hermitian parts give boundary points p_k = x_k^dag A x_k of F(A); a fan
    of triangles (p_0, p_j, p_j+1) locates 0, which is then reached by two
    closed-form 2x2 inverse field-of-values solves (Carden, Inverse
    Problems 25, 115019, 2009): the first hits the point z of
    [p_j, p_j+1] on the ray from p_0 through 0, the second hits 0 on
    [p_0, z]. None also when 0 lies in F(A) but outside the inscribed
    polygon of the p_k, as when F(A) is a segment through 0. Triangles of
    area within rounding of 0 are skipped: they cover no more than their
    edges, which other triangles share.
    """
    A = np.asarray(A, dtype=complex)
    rot = np.exp(1j * TWO_PI * np.arange(_ANGLES) / _ANGLES)[:, None, None]
    h, X = np.linalg.eigh(0.5 * (rot * A + rot.conj() * A.conj().T))
    if np.any(h[:, -1] < 0.0):
        return None
    x = X[:, :, -1]
    p = np.einsum("ki,ij,kj->k", x.conj(), A, x)
    if abs(p[0]) <= _ZERO_TOL:
        return x[0]
    p0, pj, pk = p[0], p[1:-1], p[2:]

    def cross(a, b):
        return (np.conj(a) * b).imag

    # barycentric weights of 0 in (p0, pj, pk) are (w0, wj, wk) / area; the
    # weight off p_0 is nonzero, since p_0 is not 0
    w0, wj, wk = cross(pj, pk), cross(pk, p0), cross(p0, pj)
    area = w0 + wj + wk
    inside = ((np.abs(area) > _ROUNDING * np.abs(p).max() ** 2) & (wj + wk != 0.0)
              & (w0 * area >= 0.0) & (wj * area >= 0.0) & (wk * area >= 0.0))
    if not inside.any():
        return None
    j = int(np.argmax(inside))
    z = (wj[j] * pj[j] + wk[j] * pk[j]) / (wj[j] + wk[j])
    v = _hit(A, x[[j + 1, j + 2]].T, z)
    phi = None if v is None else _hit(A, np.stack([x[0], v], axis=1), 0.0)
    if phi is None:
        return None
    phi = phi / np.linalg.norm(phi)
    return phi if abs(np.vdot(phi, A @ phi)) <= _ZERO_TOL else None
