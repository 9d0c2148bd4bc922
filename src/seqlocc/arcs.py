"""Eigenphase arc analysis: the single-query criterion and zero-overlap inputs.

Theta(W) is the length of the smallest arc on the unit circle containing all
eigenvalues of W. A pair (U, V) is perfectly distinguishable with one query
exactly when Theta(U^dag V) >= pi, equivalently when 0 lies in the convex
hull of the eigenvalues of U^dag V.

Two zero-finders stay: zero_overlap_from_spectrum takes the arcs that
queries_for_arc closes, up to TOL_ANGLE plus config.ARC_ROUNDING short of pi,
whose residual the _ZERO_TOL of numerical_range_zero rejects. The latter
decides a 2x2 matrix in closed form, in scalar arithmetic, a segment
through 0 included; from 3x3 on, a segment through 0 holds no triangle of
its fan and is solved on the chords between opposite support points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import ARC_ROUNDING, DISTINCT_TOL, TOL_ANGLE
from .errors import ArcTooSmall, DimensionMismatch, Indistinguishable
from .linalg import (
    TWO_PI, SpectralDecomposition, dagger, eig_unitary, mat, phase_distance, wrap_phases)

# queries_for_arc rounds a quotient within _CEIL_SLACK of an integer down, so
# zero_overlap_from_spectrum also takes an arc short of pi - TOL_ANGLE by that
_CEIL_SLACK = 1e-12


@dataclass
class ArcInfo:
    """Smallest covering arc: length theta, endpoints, and witness indices.

    witness_phase_indices point into the sorted eigenphase array of the
    analyzed operator: its first and last eigenvalue along the arc.
    """

    theta: float
    start_phase: float
    end_phase: float
    witness_phase_indices: tuple[int, int]


def arc_of_phases(phases) -> ArcInfo:
    """Smallest covering arc of a set of phases: the complement of the widest
    circular gap between the sorted phases, once mapped into [0, 2pi). A
    scalar reads as one phase; input of two or more dimensions raises
    DimensionMismatch, and a nan or infinite phase ValueError."""
    p = np.asarray(phases, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError(f"phases must be finite, got {phases!r}")
    p = wrap_phases(p)
    if p.ndim > 1:
        raise DimensionMismatch(f"expected a list of phases, got shape {p.shape}")
    if p.size == 0:
        raise ValueError("empty phase list")
    return _arc_of_sorted(np.sort(p, axis=None))  # a scalar sorts as one phase


def _arc_of_sorted(phases: np.ndarray) -> ArcInfo:
    """arc_of_phases of phases finite, in [0, 2pi) and sorted, as eig_unitary
    returns them; on a list, as a few phases cost numpy more calls than work."""
    p = phases.tolist()
    m = len(p)
    if m == 1:
        return ArcInfo(0.0, p[0], p[0], (0, 0))
    p.append(p[0] + TWO_PI)
    gaps = [b - a for a, b in zip(p, p[1:])]
    j = max(range(m), key=gaps.__getitem__)
    start = (j + 1) % m
    return ArcInfo(TWO_PI - gaps[j], p[start], p[j], (start, j))


def smallest_arc(U) -> ArcInfo:
    """Theta(U) with endpoints, from the sorted eigenphases."""
    return _arc_of_sorted(eig_unitary(U).phases)


def single_query_distinguishable(U, V) -> bool:
    """True when one query reaches orthogonality: queries_for_arc(Theta(U^dag V)) == 1."""
    a, b = mat(U), mat(V)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    return queries_for_arc(smallest_arc(dagger(a) @ b).theta) == 1


def queries_for_arc(theta: float) -> int | float:
    """Fewest n with n theta >= pi - TOL_ANGLE: queries stretching arc theta
    to pi; math.inf for an arc of at most TOL_ANGLE, a single eigenvalue.
    A nan or infinite theta raises ValueError."""
    if not math.isfinite(theta):
        raise ValueError(f"arc length must be finite, got {theta!r}")
    if theta <= TOL_ANGLE:
        return math.inf
    return max(1, math.ceil((math.pi - TOL_ANGLE) / theta - _CEIL_SLACK))


def parallel_query_count(U, V) -> int:
    """queries_for_arc(Theta(U^dag V)): parallel copies needed for orthogonality."""
    if phase_distance(U, V) <= DISTINCT_TOL:
        raise Indistinguishable("operations agree up to a global phase")
    n = queries_for_arc(smallest_arc(dagger(U) @ mat(V)).theta)
    if n == math.inf:
        raise Indistinguishable("relative operation has a single eigenvalue")
    return n


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


def zero_overlap_state(T) -> np.ndarray:
    """Unit state psi with <psi|T|psi> = 0, mixing at most 3 eigenvectors.

    Requires Theta(T) >= pi - TOL_ANGLE; see zero_overlap_from_spectrum.
    """
    dec = eig_unitary(T)
    return zero_overlap_from_spectrum(dec, _arc_of_sorted(dec.phases))


def zero_overlap_from_spectrum(dec: SpectralDecomposition, info: ArcInfo) -> np.ndarray:
    """zero_overlap_state from a decomposition and its arc, in closed form.

    Up to pi + TOL_ANGLE the two arc-endpoint eigenvectors are mixed; an arc
    short of pi by at most TOL_ANGLE leaves the optimal residual
    cos(theta / 2). A wider arc adds the eigenvector nearest its middle: its
    phase lies in [end - pi, start + pi], a window of length 2 pi - theta
    that no gap inside the arc can skip (the outer gap is the widest), so
    the three circular gaps are at most pi and the weights are nonnegative.
    """
    if info.theta < math.pi - TOL_ANGLE - ARC_ROUNDING:
        raise ArcTooSmall(info.theta, min_achievable_overlap(info.theta))
    s, e = info.witness_phase_indices
    z = np.exp(1j * dec.phases)
    if info.theta <= math.pi + TOL_ANGLE:
        idx = sorted((s, e))
        p = _pair_weight(*z[idx])
        w = np.array([p, 1.0 - p])
    else:
        offset = np.mod(dec.phases - info.start_phase, TWO_PI)
        idx = [s, int(np.argmin(np.abs(offset - 0.5 * info.theta))), e]
        w = _triple_weights(z[idx])
    psi = dec.vectors[:, idx] @ np.sqrt(w).astype(complex)
    return psi / np.linalg.norm(psi)


def eigenphase_rows(U):
    """(index, phase, multiplicity) rows of the spectrum of U, or of a
    SpectralDecomposition already made of it. A sorted phase within
    TOL_ANGLE of a row's phase joins that row, and the top of the circle
    may join the first row."""
    dec = U if isinstance(U, SpectralDecomposition) else eig_unitary(U)
    reps, counts = [float(dec.phases[0])], [1]
    for phase in dec.phases[1:]:
        if phase - reps[-1] <= TOL_ANGLE:
            counts[-1] += 1
        else:
            reps.append(float(phase))
            counts.append(1)
    if len(reps) > 1 and reps[0] + TWO_PI - reps[-1] <= TOL_ANGLE:
        counts[0] += counts.pop()
        reps.pop()
    return list(zip(range(len(reps)), reps, counts))


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

    All of it is scalar arithmetic on the four entries: the Hermitian part
    [[p, h], [h*, q]] has h0, h1 = m -/+ hypot((p - q) / 2, |h|) with
    eigenvectors E = [[-sin w e^{i arg h}, cos w], [cos w, sin w e^{-i arg h}]],
    w = atan2(|h|, (p - q) / 2) / 2.
    """
    (a, b), (c, d) = A.tolist()
    mu = cmath.sqrt(0.25 * (a - d) ** 2 + b * c)
    if mu != 0:
        turn = abs(mu) / mu
        a, b, c, d = a * turn, b * turn, c * turn, d * turn
    slack = _ROUNDING * math.sqrt(abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2)
    # off-diagonal entries of the Hermitian part and of (A - A^dag) / 2i
    h, k = 0.5 * (b + c.conjugate()), -0.5j * (b - c.conjugate())
    m, half = 0.5 * (a.real + d.real), 0.5 * (a.real - d.real)
    spread = math.hypot(half, abs(h))
    if m - spread > slack or m + spread < -slack:
        return None
    w = 0.5 * math.atan2(abs(h), half)
    u = math.sin(w) * cmath.exp(1j * cmath.phase(h))
    E = ((-u, complex(math.cos(w))), (complex(math.cos(w)), u.conjugate()))

    def K(i, j):
        """Entry (i, j) of K = E^dag ((A - A^dag) / 2i) E."""
        (x0, x1), (y0, y1) = E[i], E[j]
        return (x0.conjugate() * (a.imag * y0 + k * y1)
                + x1.conjugate() * (k.conjugate() * y0 + d.imag * y1))

    c2 = 0.5 if spread == 0.0 else min(1.0, max(0.0, (m + spread) / (2.0 * spread)))
    cos_t, sin_t = math.sqrt(c2), math.sqrt(1.0 - c2)
    c0 = K(0, 0).real * c2 + K(1, 1).real * (1.0 - c2)
    r = 2.0 * cos_t * sin_t * abs(K(0, 1))
    if abs(c0) > r + slack:
        return None
    beta = 0.0 if r == 0.0 else math.acos(min(1.0, max(-1.0, -c0 / r))) - cmath.phase(K(0, 1))
    y = cmath.exp(1j * beta) * sin_t
    return np.array([cos_t * E[0][0] + y * E[1][0], cos_t * E[0][1] + y * E[1][1]])


def _hit(A: np.ndarray, X: np.ndarray, z: complex) -> np.ndarray | None:
    """Unit v in the span of the two columns of X with v^dag A v = z, for a
    z inside F of A compressed to that span (one column suffices when they
    are parallel: the completed orthonormal basis still holds it)."""
    Q = np.linalg.qr(X)[0]
    c = _zero_of_2x2(Q.conj().T @ A @ Q - z * np.eye(2))
    return None if c is None else Q @ c


def numerical_range_zero(A) -> np.ndarray | None:
    """Unit phi with |phi^dag A phi| <= _ZERO_TOL, or None when none is found.

    A 2x2 A is decided exactly by _zero_of_2x2: F(A) is an ellipse, a
    segment or a point, and 0 is found whenever it lies in F(A). For a
    larger A there is no closed form. 0 lies in F(A) iff the support
    function lambda_max(Re(e^{i alpha} A)) is nonnegative at every alpha,
    so one batched eigh at _ANGLES equally spaced alpha screens out every A
    with a separating line among them. The top eigenvectors x_k of those
    Hermitian parts give boundary points p_k = x_k^dag A x_k of F(A); a fan
    of triangles (p_0, p_j, p_j+1) locates 0, which is then reached by two
    closed-form 2x2 inverse field-of-values solves (Carden, Inverse
    Problems 25, 115019, 2009): the first hits the point z of
    [p_j, p_j+1] on the ray from p_0 through 0, the second hits 0 on
    [p_0, z]. Triangles of area within rounding of 0 are skipped: they
    cover no more than their edges, which other triangles share. When no
    triangle holds 0, as when F(A) is a segment through it, 0 is sought on
    the chords between opposite support points p_k and p_k+_ANGLES/2.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape == (2, 2):
        phi = _zero_of_2x2(A)
        return phi if phi is not None and abs(np.vdot(phi, A @ phi)) <= _ZERO_TOL else None
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
    if inside.any():
        j = int(np.argmax(inside))
        z = (wj[j] * pj[j] + wk[j] * pk[j]) / (wj[j] + wk[j])
        v = _hit(A, x[[j + 1, j + 2]].T, z)
        phi = None if v is None else _hit(A, np.stack([x[0], v], axis=1), 0.0)
    else:
        half = _ANGLES // 2
        for k in range(half):
            phi = _hit(A, x[[k, k + half]].T, 0.0)
            if phi is not None:
                break
    if phi is None:
        return None
    phi = phi / np.linalg.norm(phi)
    return phi if abs(np.vdot(phi, A @ phi)) <= _ZERO_TOL else None
