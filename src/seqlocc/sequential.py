"""Sequential discrimination of two single-system unitaries.

Given distinct U and V, builds interleavers w_1..w_N and an input state psi
with U w_N U ... w_1 U |psi> orthogonal to the V-chain, using exactly
N + 1 = ceil(pi / Theta(U^dag V)) queries, the optimum (Acin, PRL 87,
177901, 2001). Every stage is in closed form; nothing is searched, and
only U^dag V and the final relative operator are decomposed.

With A, B the chains built so far, T_c = A^dag B the current relative
operator (arc theta_c), R and Q the arc-sorted eigenbases of T_c and of
U^dag V (arc theta_0), a stage appends w = R S(t) Q^dag U^dag. The new
relative operator (A w U)^dag (B w V) is then Q S(t)^dag D_c S(t) D_0 Q^dag
with D_c, D_0 the diagonal phase matrices, and S(t) a rotation by t in the
plane of the first and last (arc-endpoint) columns:

* while theta_c + theta_0 < pi, t = 0: the eigenphases add in matched
  order and the stage gains exactly theta_0. From U^dag V = Q D_0 Q^dag,
  the relative operator after k queries is Q D_0^k Q^dag, so R is Q, the
  arc is k theta_0 and w is Q Q^dag U^dag = U^dag: no such stage needs a
  decomposition;
* on the closing stage, with sigma = (theta_c + theta_0) / 2 and
  Delta = (theta_c - theta_0) / 2, the endpoint block has trace
  2 e^{i sigma} (cos^2 t cos sigma + sin^2 t cos Delta), which vanishes at
  tan^2 t = -cos sigma / cos Delta. A solution exists because
  sigma in [pi/2, pi) and |Delta| < pi/2, and the two endpoint eigenvalues
  become exactly antipodal, so a zero-overlap input exists.

This is the intermediate-value step behind the sequential scheme of Duan,
Feng and Ying, "Entanglement is not necessary for perfect discrimination
between unitary operations", PRL 98, 100503 (2007), made explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arcs import arc_of_phases, queries_for_arc, zero_overlap_from_spectrum
from .config import RunConfig
from .errors import ArcTooSmall, DimensionMismatch, Indistinguishable, StageStalled
from .linalg import eig_unitary, mat, phase_distance

PI = math.pi


@dataclass
class SequentialScheme:
    """Interleavers (application order: interleavers[0] right after the first
    query), zero-overlap input state, and the achieved overlap."""

    interleavers: list[np.ndarray]
    input_state: np.ndarray
    query_count: int
    achieved_overlap: float
    theta_trace: list[float]


def compose_sequential(X, interleavers) -> np.ndarray:
    """X w_N X ... w_1 X as a matrix; interleavers[0] is w_1."""
    x = mat(X)
    M = x.copy()
    for w in interleavers:
        wm = mat(w)
        if wm.shape != x.shape:
            raise DimensionMismatch(f"interleaver {wm.shape} does not match {x.shape}")
        M = x @ wm @ M
    return M


def _circular_sorted_eig(M, tol_angle: float):
    """Spectrum of M, its arc, the arc of its raw phases, and the
    eigenvectors sorted by phase measured from the start of the latter.

    The arc merges phases closer than tol_angle into their cluster's first
    member, so a near-degenerate member can lie beyond an endpoint, or a tie
    of equal gaps can put the arc on the other half circle. The stage
    rotation and the input act on the extreme eigenvectors, so they take the
    raw arc (tol_angle 0); without such members both arcs are the same floats.
    """
    dec = eig_unitary(M)
    ends = arc_of_phases(dec.phases, 0.0)
    keys = np.mod(dec.phases - ends.start_phase + tol_angle, 2 * PI)
    order = np.argsort(keys, kind="stable")
    return dec, arc_of_phases(dec.phases, tol_angle), ends, dec.vectors[:, order]


def _stage_rotation(theta_c: float, theta_0: float, d: int) -> np.ndarray:
    """S(t) on the first and last columns; t = 0 unless the stage closes."""
    sigma = 0.5 * (theta_c + theta_0)
    delta = 0.5 * (theta_c - theta_0)
    t = math.atan2(math.sqrt(max(0.0, -math.cos(sigma))), math.sqrt(math.cos(delta)))
    S = np.eye(d, dtype=complex)
    c, s = math.cos(t), math.sin(t)
    S[0, 0], S[0, -1], S[-1, 0], S[-1, -1] = c, -s, s, c
    return S


def build_sequential_scheme(U, V, cfg: RunConfig | None = None, *,
                            _relative=None) -> SequentialScheme:
    """Interleavers and input state making the two chains orthogonal.

    Uses exactly n = queries_for_arc(Theta(U^dag V)) queries: pacing stages
    w = U^dag, then the closing stage at the closed-form arc (n - 1) theta_0.
    Decomposed are U^dag V (unless _relative, the caller's
    _circular_sorted_eig of it, is given) and the final relative operator
    A^dag B of the explicit chains, whose spectrum gives the input; the
    overlap is measured on it. theta_trace holds k theta_0 after query k,
    then the measured final arc. StageStalled reports a final arc short of
    pi or an overlap above cfg.overlap_tol: only numerical breakdown.
    """
    cfg = cfg or RunConfig()
    Um, Vm = mat(U), mat(V)
    if Um.shape != Vm.shape:
        raise DimensionMismatch(f"shapes differ: {Um.shape} vs {Vm.shape}")
    if phase_distance(Um, Vm) <= cfg.distinct_tol:
        raise Indistinguishable("operations agree up to a global phase")

    M = Um.conj().T @ Vm
    dec, info, ends, Q = _relative or _circular_sorted_eig(M, cfg.tol_angle)
    theta_0 = info.theta
    if theta_0 <= cfg.tol_angle:
        raise Indistinguishable("relative operation has a single eigenvalue")
    n = queries_for_arc(theta_0, cfg.tol_angle)
    trace = [k * theta_0 for k in range(1, n)]
    interleavers: list[np.ndarray] = []
    if n > 1:
        S = _stage_rotation((n - 1) * ends.theta, ends.theta, Um.shape[0])
        interleavers = [Q @ S @ (Um @ Q).conj().T] + [Um.conj().T] * (n - 2)
        M = compose_sequential(Um, interleavers).conj().T @ compose_sequential(Vm, interleavers)
        dec, info, ends, _ = _circular_sorted_eig(M, cfg.tol_angle)
    trace.append(info.theta)

    try:
        psi = zero_overlap_from_spectrum(dec, ends, cfg.tol_angle)
    except ArcTooSmall as exc:
        raise StageStalled(f"arc {ends.theta:.6f} short of pi after {n} queries", trace) from exc
    resid = float(abs(np.vdot(psi, M @ psi)))
    if resid > cfg.overlap_tol:
        raise StageStalled(f"final overlap {resid:.3e} above tolerance", trace)

    return SequentialScheme(interleavers, psi, n, resid, trace)
