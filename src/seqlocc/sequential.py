"""Sequential discrimination of two single-system unitaries.

Given distinct U and V, builds interleavers w_1..w_N and an input state psi
with U w_N U ... w_1 U |psi> orthogonal to the V-chain, using exactly
N + 1 = ceil(pi / Theta(U^dag V)) queries, the optimum (Acin, PRL 87,
177901, 2001). Every stage is in closed form; nothing is searched, and
only U^dag V is decomposed: the input comes from the 2x2 endpoint block of
the final relative operator, whose eigenpairs are solved in closed form.

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

The final relative operator Q S(t)^dag D_c S(t) D_0 Q^dag leaves the span of
the two endpoint columns E of Q invariant and is diagonal on the others, so
the input is E x for an x mixing the eigenvectors of the 2x2 block
E^dag M E of the explicit final relative operator M.

This is the intermediate-value step behind the sequential scheme of Duan,
Feng and Ying, "Entanglement is not necessary for perfect discrimination
between unitary operations", PRL 98, 100503 (2007), made explicit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .arcs import (
    _arc_of_sorted,
    _pair_weight,
    arc_of_phases,
    queries_for_arc,
    zero_overlap_from_spectrum,
)
from .config import ARC_ROUNDING, DISTINCT_TOL, MAX_QUERIES, TOL_ANGLE, RunConfig
from .errors import ArcTooSmall, DimensionMismatch, Indistinguishable, StageStalled, TooManyQueries
from .linalg import canonical_phases, eig_unitary, mat, phase_distance

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


def _circular_sorted_eig(M):
    """Spectrum of M, its arc read off the sorted phases, and the eigenvectors
    sorted by phase from the start of the arc: its endpoints come first and last."""
    dec = eig_unitary(M)
    info = _arc_of_sorted(dec.phases)
    order = np.argsort(np.mod(dec.phases - info.start_phase, 2 * PI), kind="stable")
    return dec, info, dec.vectors[:, order]


def _stage_rotation(theta_c: float, theta_0: float, d: int) -> np.ndarray:
    """S(t) on the first and last columns; t = 0 unless the stage closes."""
    sigma = 0.5 * (theta_c + theta_0)
    delta = 0.5 * (theta_c - theta_0)
    t = math.atan2(math.sqrt(max(0.0, -math.cos(sigma))), math.sqrt(math.cos(delta)))
    S = np.eye(d, dtype=complex)
    c, s = math.cos(t), math.sin(t)
    S[0, 0], S[0, -1], S[-1, 0], S[-1, -1] = c, -s, s, c
    return S


def _eig_2x2(B: np.ndarray):
    """Eigenvalues and unit eigenvectors of a normal 2x2 matrix, in scalar
    arithmetic: with h = (a - d) / 2 and mu = sqrt(h^2 + b c), signed so that
    g = mu + h is the larger of mu +/- h, (g, c) belongs to (a + d) / 2 + mu
    and (b, -g) to (a + d) / 2 - mu. g is nonzero unless the eigenvalues
    coincide."""
    (a, b), (c, d) = B.tolist()
    h = 0.5 * (a - d)
    mu = cmath.sqrt(h * h + b * c)
    if (mu.conjugate() * h).real < 0.0:
        mu = -mu
    m, g = 0.5 * (a + d), mu + h
    n1, n2 = math.hypot(abs(g), abs(c)), math.hypot(abs(b), abs(g))
    return (m + mu, m - mu), (np.array([g / n1, c / n1]), np.array([b / n2, -g / n2]))


def build_sequential_scheme(U, V, cfg: RunConfig | None = None, *,
                            _relative=None) -> SequentialScheme:
    """Interleavers and input state making the two chains orthogonal.

    Uses exactly n = queries_for_arc(Theta(U^dag V)) queries: pacing stages
    w = U^dag, then the closing stage at the closed-form arc (n - 1) theta_0.
    Only U^dag V is decomposed, and not even that when _relative, the
    caller's _circular_sorted_eig of it, is given; the caller has then also
    checked that U and V are distinct. For n > 1 the input is E x, with E
    the two arc-endpoint eigenvectors of U^dag V and x from the closed-form
    eigenpairs of the 2x2 block E^dag M E of the final relative operator
    M = A^dag B of the explicit chains; the overlap is measured on M.
    theta_trace holds k theta_0 after query k, then the final arc: that of
    the block's eigenphases and the other diagonal phases of Q^dag M Q.
    StageStalled reports endpoint eigenphases short of antipodal or an
    overlap above cfg.overlap_tol: only numerical breakdown. TooManyQueries
    refuses an n above config.MAX_QUERIES before any stage is built.
    """
    cfg = cfg or RunConfig()
    Um, Vm = mat(U), mat(V)
    if Um.shape != Vm.shape:
        raise DimensionMismatch(f"shapes differ: {Um.shape} vs {Vm.shape}")
    if _relative is None and phase_distance(Um, Vm) <= DISTINCT_TOL:
        raise Indistinguishable("operations agree up to a global phase")

    M = Um.conj().T @ Vm
    dec, info, Q = _relative or _circular_sorted_eig(M)
    theta_0 = info.theta
    n = queries_for_arc(theta_0)
    if n == math.inf:
        raise Indistinguishable("relative operation has a single eigenvalue")
    if n > MAX_QUERIES:
        raise TooManyQueries(n, MAX_QUERIES)
    trace = [k * theta_0 for k in range(1, n)]
    interleavers: list[np.ndarray] = []
    if n == 1:
        trace.append(theta_0)
        try:
            psi = zero_overlap_from_spectrum(dec, info)
        except ArcTooSmall as exc:
            raise StageStalled(f"arc {theta_0:.6f} short of pi after 1 query", trace) from exc
    else:
        S = _stage_rotation((n - 1) * theta_0, theta_0, Um.shape[0])
        interleavers = [Q @ S @ (Um @ Q).conj().T] + [Um.conj().T] * (n - 2)
        M = compose_sequential(Um, interleavers).conj().T @ compose_sequential(Vm, interleavers)
        T = Q.conj().T @ M @ Q
        edge = slice(None, None, Um.shape[0] - 1)  # the first and last index
        (l1, l2), (v1, v2) = _eig_2x2(T[edge, edge])
        trace.append(arc_of_phases(canonical_phases([l1, l2, *np.diag(T)[1:-1]])).theta)
        gap = abs(cmath.phase(l1 * l2.conjugate()))
        if gap < math.pi - TOL_ANGLE - ARC_ROUNDING:
            raise StageStalled(f"endpoint gap {gap:.6f} short of pi after {n} queries", trace)
        p = _pair_weight(l1 / abs(l1), l2 / abs(l2))
        psi = Q[:, edge] @ (math.sqrt(p) * v1 + math.sqrt(1.0 - p) * v2)
        psi = psi / np.linalg.norm(psi)
    resid = float(abs(np.vdot(psi, M @ psi)))
    if resid > cfg.overlap_tol:
        raise StageStalled(f"final overlap {resid:.3e} above tolerance", trace)

    return SequentialScheme(interleavers, psi, n, resid, trace)
