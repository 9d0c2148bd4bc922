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

DEFAULT_TOL_ANGLE = RunConfig.tol_angle


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


def dedup_phases(phases, tol_angle: float = DEFAULT_TOL_ANGLE):
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


def arc_of_phases(phases, tol_angle: float = DEFAULT_TOL_ANGLE) -> ArcInfo:
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


def smallest_arc(U, tol_angle: float = DEFAULT_TOL_ANGLE) -> ArcInfo:
    """Theta(U) with endpoints, from the sorted deduplicated eigenphases."""
    dec = eig_unitary(U)
    return arc_of_phases(dec.phases, tol_angle)


def single_query_distinguishable(U, V, tol_angle: float = DEFAULT_TOL_ANGLE) -> bool:
    """True when Theta(U^dag V) >= pi (within tol_angle)."""
    a, b = mat(U), mat(V)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    return smallest_arc(dagger(a) @ b, tol_angle).theta >= math.pi - tol_angle


def queries_for_arc(theta: float) -> int:
    """ceil(pi / theta): queries that stretch a relative arc theta to pi."""
    return max(1, math.ceil(math.pi / theta - 1e-12))


def parallel_query_count(U, V, distinct_tol: float = RunConfig.distinct_tol,
                         tol_angle: float = DEFAULT_TOL_ANGLE) -> int:
    """N = ceil(pi / Theta(U^dag V)): parallel copies needed for orthogonality."""
    if phase_distance(U, V) <= distinct_tol:
        raise Indistinguishable("operations agree up to a global phase")
    theta = smallest_arc(dagger(U) @ mat(V), tol_angle).theta
    if theta <= tol_angle:
        raise Indistinguishable("relative operation has a single eigenvalue")
    return queries_for_arc(theta)


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


def zero_overlap_state(T, tol_angle: float = DEFAULT_TOL_ANGLE) -> np.ndarray:
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
    if info.theta < math.pi - tol_angle:
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


def eigenphase_rows(U, tol_angle: float = DEFAULT_TOL_ANGLE):
    """(index, phase, multiplicity) rows of the deduplicated spectrum."""
    dec = eig_unitary(U)
    reps, _, counts = dedup_phases(dec.phases, tol_angle)
    return [(k, float(reps[k]), int(counts[k])) for k in range(reps.size)]
