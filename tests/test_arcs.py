import math

import numpy as np
import pytest

from seqlocc import (
    ArcTooSmall,
    DimensionMismatch,
    Indistinguishable,
    discriminate,
    eig_unitary,
    min_achievable_overlap,
    parallel_query_count,
    phase_distance,
    random_unitary,
    single_query_distinguishable,
    smallest_arc,
    validate_unitary,
    zero_overlap_state,
)
from seqlocc.arcs import ArcInfo, arc_of_phases, eigenphase_rows, queries_for_arc
from seqlocc.config import DISTINCT_TOL, TOL_ANGLE

TWO_PI = 2 * np.pi


def brute_force_arc(phases, tol=1e-12):
    """O(n^2) oracle: scan every ordered pair of phases as arc endpoints and
    keep the shortest arc containing all of them."""
    p = np.sort(np.asarray(phases, dtype=float))
    n = p.size
    best = None
    for i in range(n):
        for j in range(n):
            length = (p[j] - p[i]) % TWO_PI
            if all(((p[k] - p[i]) % TWO_PI) <= length + tol for k in range(n)):
                if best is None or length < best[0] - tol:
                    best = (length, p[i], p[j])
    return best


def diag_phases(phases):
    return np.diag(np.exp(1j * np.asarray(phases)))


def test_arc_identity_zero():
    assert smallest_arc(np.eye(4, dtype=complex)).theta == 0.0


def test_arc_antipodal_pi():
    info = smallest_arc(np.diag([1, -1]).astype(complex))
    assert info.theta == pytest.approx(np.pi, abs=1e-12)


def test_arc_worked_example_vs_brute_force():
    phases = [0.0, 0.1, 2.0, 4.0]
    info = smallest_arc(diag_phases(phases))
    length, start, end = brute_force_arc(phases)
    assert info.theta == pytest.approx(length, abs=1e-12)
    assert info.theta == pytest.approx(4.0, abs=1e-12)
    assert info.start_phase == pytest.approx(start, abs=1e-12)
    assert info.end_phase == pytest.approx(end, abs=1e-12)


@pytest.mark.parametrize("seed", range(25))
def test_arc_matches_brute_force_random(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    U = random_unitary(dim, rng)
    info = smallest_arc(U)
    phases = eig_unitary(U).phases
    length, start, end = brute_force_arc(phases)
    assert info.theta == pytest.approx(length, abs=1e-12)
    assert info.start_phase == pytest.approx(start, abs=1e-12)
    assert info.end_phase == pytest.approx(end, abs=1e-12)


def test_arc_conjugation_invariance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        W = random_unitary(4, rng)
        Q = random_unitary(4, rng)
        assert smallest_arc(Q @ W @ Q.conj().T).theta == pytest.approx(
            smallest_arc(W).theta, abs=1e-10)


def test_tensor_power_arc_additivity():
    """Theta(W^(xN)) = N * Theta(W) while the summed arc stays below 2 pi;
    the phase sums of N independent copies fill the stretched arc."""
    rng = np.random.default_rng(5)
    for _ in range(12):
        dim = int(rng.integers(2, 5))
        theta = rng.uniform(0.15, 1.25)
        inner = np.sort(rng.uniform(0, theta, size=max(0, dim - 2)))
        phases = np.concatenate([[0.0], inner, [theta]])
        Q = random_unitary(dim, rng)
        W = Q @ diag_phases(phases) @ Q.conj().T
        T = np.eye(1, dtype=complex)
        for n in range(1, 5):
            T = np.kron(T, W)
            expected = min(n * theta, TWO_PI)
            assert smallest_arc(T).theta == pytest.approx(expected, abs=1e-9)


def test_single_query_criterion():
    assert single_query_distinguishable(np.eye(2, dtype=complex),
                                        np.diag([1, -1]).astype(complex))
    assert not single_query_distinguishable(np.eye(2, dtype=complex),
                                            np.diag([1, 1j]).astype(complex))
    U = random_unitary(3, np.random.default_rng(0))
    assert not single_query_distinguishable(U, np.exp(0.3j) * U)


def test_single_query_criterion_is_the_count():
    """Arcs within 2e-11 of pi - TOL_ANGLE: one query exactly when the
    count says one, also inside its quotient slack."""
    for theta in np.pi - TOL_ANGLE + np.linspace(-2e-11, 2e-11, 41):
        U, V = np.eye(4), np.kron(np.diag([1, np.exp(1j * theta)]), np.eye(2))
        assert single_query_distinguishable(U, V) == (parallel_query_count(U, V) == 1), theta


def test_queries_for_arc_owns_the_zero_arc():
    assert queries_for_arc(0.0) == queries_for_arc(TOL_ANGLE) == math.inf
    assert queries_for_arc(2 * TOL_ANGLE) == math.ceil((np.pi - TOL_ANGLE) / (2 * TOL_ANGLE))
    assert queries_for_arc(np.pi) == queries_for_arc(np.pi - TOL_ANGLE) == 1


def test_parallel_query_count_values():
    assert parallel_query_count(np.eye(2), np.diag([1, -1])) == 1
    assert parallel_query_count(np.eye(2), np.diag([1, 1j])) == 2
    with pytest.raises(Indistinguishable):
        parallel_query_count(np.eye(2), np.exp(0.2j) * np.eye(2))


def test_parallel_query_count_certifies_orthogonality():
    """N = ceil(pi / theta) copies really push the arc past pi."""
    rng = np.random.default_rng(6)
    for _ in range(5):
        theta = rng.uniform(np.pi / 4, np.pi - 0.05)
        dim = int(rng.integers(2, 4))
        inner = np.sort(rng.uniform(0, theta, size=max(0, dim - 2)))
        phases = np.concatenate([[0.0], inner, [theta]])
        Q = random_unitary(dim, rng)
        V = Q @ diag_phases(phases) @ Q.conj().T
        U = np.eye(dim, dtype=complex)
        n = parallel_query_count(U, V)
        rel = U.conj().T @ V
        T = np.eye(1, dtype=complex)
        for _ in range(n):
            T = np.kron(T, rel)
        assert smallest_arc(T).theta >= np.pi - 1e-9


def test_zero_overlap_antipodal_pair():
    T = np.diag([1, -1]).astype(complex)
    psi = zero_overlap_state(T)
    assert np.allclose(np.abs(psi), 1 / np.sqrt(2))
    assert abs(np.vdot(psi, T @ psi)) <= 1e-12


def test_zero_overlap_symmetric_triple():
    T = diag_phases([0.0, 2 * np.pi / 3, -2 * np.pi / 3])
    psi = zero_overlap_state(T)
    assert np.allclose(np.abs(psi) ** 2, 1 / 3, atol=1e-10)
    assert abs(np.vdot(psi, T @ psi)) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_zero_overlap_random_wide_arc(seed):
    # evenly filled endpoints keep the smallest arc equal to the spread
    # (a sparse spectrum spanning more than pi would fold the other way)
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(3, 6))
    spread = rng.uniform(np.pi + 0.05, 4 * np.pi / 3 - 0.05)
    phases = np.linspace(0.0, spread, dim) + np.concatenate(
        [[0.0], rng.uniform(-0.05, 0.05, size=dim - 2), [0.0]])
    Q = random_unitary(dim, rng)
    T = Q @ diag_phases(phases) @ Q.conj().T
    assert smallest_arc(T).theta >= np.pi
    psi = zero_overlap_state(T)
    assert abs(np.vdot(psi, T @ psi)) <= 1e-10
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_zero_overlap_arc_just_short_of_pi(dim):
    """Within TOL_ANGLE short of pi no zero-overlap state exists; the
    endpoint pair leaves the optimal residual cos(theta / 2)."""
    rng = np.random.default_rng(dim)
    theta = np.pi - 5e-9
    phases = np.concatenate([[0.0], rng.uniform(0.5, 2.5, size=dim - 2), [theta]])
    Q = random_unitary(dim, rng)
    T = Q @ diag_phases(phases) @ Q.conj().T
    psi = zero_overlap_state(T)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(psi, T @ psi)) == pytest.approx(
        min_achievable_overlap(smallest_arc(T).theta), abs=1e-15)


@pytest.mark.parametrize("dim", [3, 4, 5])
@pytest.mark.parametrize("seed", range(8))
def test_zero_overlap_wide_arc_without_antipodal_pair(dim, seed):
    """theta > pi with no eigenvalue pair antipodal: three eigenvectors with
    nonnegative weights, one of them between the two arc endpoints."""
    rng = np.random.default_rng(100 * dim + seed)
    while True:
        phases = rng.uniform(0.0, TWO_PI, size=dim)
        sep = np.abs(np.mod(phases[:, None] - phases[None, :], TWO_PI) - np.pi)
        if smallest_arc(diag_phases(phases)).theta > np.pi + 0.05 and sep.min() > 0.05:
            break
    Q = random_unitary(dim, rng)
    T = Q @ diag_phases(phases) @ Q.conj().T
    psi = zero_overlap_state(T)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(psi, T @ psi)) <= 1e-12
    assert np.sum(np.abs(Q.conj().T @ psi) > 1e-9) == 3


def test_zero_overlap_wide_arc_third_vector_from_window():
    """Arc 3.6 from phase 0: only phases in [3.6 - pi, pi] give a third
    vertex with nonnegative weights; 0.3 lies outside that window, 2.0 in it."""
    T = diag_phases([0.0, 0.3, 2.0, 3.6])
    psi = zero_overlap_state(T)
    assert abs(np.vdot(psi, T @ psi)) <= 1e-12
    assert abs(psi[1]) == 0 and abs(psi[2]) > 0.1


def test_parallel_query_count_default_matches_run_config():
    """Phase distance 7.1e-8 is below DISTINCT_TOL: the pair is
    indistinguishable for the count as it is for discriminate."""
    U = np.eye(4, dtype=complex)
    V = np.diag(np.exp(1e-7j * np.array([1, -1, 1, -1])))
    assert 0 < phase_distance(U, V) <= DISTINCT_TOL
    with pytest.raises(Indistinguishable):
        parallel_query_count(U, V)
    with pytest.raises(Indistinguishable):
        discriminate(validate_unitary(U, 2, 2), validate_unitary(V, 2, 2))


def test_zero_overlap_rejects_small_arc():
    T = np.diag([1, np.exp(0.4j)]).astype(complex)
    with pytest.raises(ArcTooSmall) as err:
        zero_overlap_state(T)
    theta = smallest_arc(T).theta
    assert err.value.achievable_overlap == pytest.approx(np.cos(theta / 2), abs=1e-12)


def test_min_achievable_overlap_matches_direct_minimization():
    """Independent check: random unit states never beat cos(theta/2)."""
    rng = np.random.default_rng(2)
    T = diag_phases([0.0, 0.7, 1.9])
    floor = min_achievable_overlap(smallest_arc(T).theta)
    best = min(
        abs(np.vdot(psi, T @ psi))
        for psi in (v / np.linalg.norm(v)
                    for v in (rng.normal(size=3) + 1j * rng.normal(size=3)
                              for _ in range(4000)))
    )
    assert best >= floor - 1e-9
    assert best <= floor + 0.05


def test_eigenphase_rows_multiplicity():
    rows = eigenphase_rows(np.diag([1, 1, -1, -1]).astype(complex))
    assert rows == [(0, 0.0, 2), (1, pytest.approx(np.pi), 2)]


@pytest.mark.parametrize("phases", [[0.0, 4e-9, 8e-9], [1e-9, 2 * np.pi - 5e-9],
                                    [3e-9, 2 * np.pi - 6e-9, 2 * np.pi - 1e-9], [0.7]])
def test_cluster_within_tol_angle_is_one_eigenvalue(phases):
    """Phases spanning at most TOL_ANGLE, across 0 or not, and a lone phase:
    a single eigenvalue to the count, and one CSV row of full multiplicity."""
    assert queries_for_arc(arc_of_phases(phases).theta) == math.inf
    rows = eigenphase_rows(diag_phases(phases))
    assert len(rows) == 1 and rows[0][2] == len(phases)


def test_arc_of_phases_wraparound_dedup():
    info = arc_of_phases([1e-10, 2 * np.pi - 1e-10, np.pi])
    assert info.theta == pytest.approx(np.pi, abs=1e-8)


@pytest.mark.parametrize("phases,theta", [
    ([0.0, 7.0], 7.0 - 2 * np.pi),
    ([0.1, 2 * np.pi + 0.2], 0.1),
    ([-1e-17, 1.0], 1.0),  # -1e-17 rounds to 2pi, which maps to 0
    ([-4.0, 0.0], 2 * np.pi - 4.0),
])
def test_arc_of_phases_maps_phases_into_the_circle(phases, theta):
    """Phases outside [0, 2pi) are taken mod 2pi before the arc is read, so
    the arc is never negative and its ends lie in [0, 2pi)."""
    info = arc_of_phases(phases)
    assert info.theta == pytest.approx(theta, abs=1e-12)
    assert 0.0 <= info.start_phase < 2 * np.pi and 0.0 <= info.end_phase < 2 * np.pi


@pytest.mark.parametrize("phase,wrapped", [(0.7, 0.7), (7.0, 7.0 - 2 * np.pi), (-1e-17, 0.0)])
def test_arc_of_phases_reads_a_scalar_as_one_phase(phase, wrapped):
    assert arc_of_phases(phase) == arc_of_phases([phase])
    assert arc_of_phases(phase) == ArcInfo(0.0, wrapped, wrapped, (0, 0))


def test_arc_of_phases_rejects_a_table_of_phases():
    with pytest.raises(DimensionMismatch):
        arc_of_phases([[0.1, 0.2], [0.3, 0.4]])
