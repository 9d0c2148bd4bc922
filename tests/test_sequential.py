import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlocc import (
    CaseFailure,
    Indistinguishable,
    RunConfig,
    TooManyQueries,
    build_sequential_scheme,
    compose_sequential,
    dagger,
    discriminate,
    eig_unitary,
    parallel_query_count,
    random_unitary,
    smallest_arc,
    validate_unitary,
)
import seqlocc.arcs
import seqlocc.sequential
from seqlocc.arcs import queries_for_arc
from seqlocc.config import MAX_QUERIES, TOL_ANGLE
from seqlocc.linalg import canonical_phases
from seqlocc.sequential import _circular_sorted_eig, _eig_2x2, _stage_rotation

CFG = RunConfig()


def _dphases(phases):
    return np.diag(np.exp(1j * np.asarray(phases)))


def _pair_with_arc(theta, dim, rng):
    inner = np.sort(rng.uniform(0, theta, size=max(0, dim - 2)))
    phases = np.concatenate([[0.0], inner, [theta]])
    Q = random_unitary(dim, rng)
    U = random_unitary(dim, rng)
    return U, U @ (Q @ _dphases(phases) @ Q.conj().T)


def _recompute_overlap(U, V, scheme):
    cu = compose_sequential(U, scheme.interleavers)
    cv = compose_sequential(V, scheme.interleavers)
    return abs(np.vdot(cu @ scheme.input_state, cv @ scheme.input_state))


def test_compose_no_interleavers():
    U = random_unitary(3, np.random.default_rng(0))
    assert np.allclose(compose_sequential(U, []), U)


def test_compose_identity_operand():
    rng = np.random.default_rng(1)
    ws = [random_unitary(2, rng) for _ in range(3)]
    got = compose_sequential(np.eye(2, dtype=complex), ws)
    assert np.allclose(got, ws[2] @ ws[1] @ ws[0])


def test_compose_quarter_phase_doubles():
    X = np.diag([1, np.exp(1j * np.pi / 2)]).astype(complex)
    got = compose_sequential(X, [np.eye(2, dtype=complex)])
    assert np.allclose(got, np.diag([1, np.exp(1j * np.pi)]), atol=1e-15)


def test_scheme_antipodal_needs_one_query():
    scheme = build_sequential_scheme(np.eye(2, dtype=complex),
                                     np.diag([1, -1]).astype(complex), CFG)
    assert scheme.query_count == 1
    assert scheme.interleavers == []
    assert np.allclose(np.abs(scheme.input_state), 1 / np.sqrt(2))
    assert scheme.achieved_overlap <= 1e-12


def test_scheme_quarter_turn_two_queries():
    U = np.eye(2, dtype=complex)
    V = np.diag([1, 1j]).astype(complex)
    scheme = build_sequential_scheme(U, V, CFG)
    assert scheme.query_count == 2
    assert _recompute_overlap(U, V, scheme) <= 1e-12


def test_scheme_rejects_phase_equivalent():
    U = random_unitary(3, np.random.default_rng(2))
    with pytest.raises(Indistinguishable):
        build_sequential_scheme(U, np.exp(1j * 0.7) * U, CFG)


def test_theta_trace_monotone_and_verified():
    rng = np.random.default_rng(3)
    for _ in range(5):
        dim = int(rng.integers(2, 5))
        theta = rng.uniform(np.pi / 4, np.pi - 0.01)
        U, V = _pair_with_arc(theta, dim, rng)
        scheme = build_sequential_scheme(U, V, CFG)
        assert all(b >= a - 1e-12 for a, b in
                   zip(scheme.theta_trace, scheme.theta_trace[1:]))
        # verification closure: recomputing from scratch matches the record
        assert _recompute_overlap(U, V, scheme) == pytest.approx(
            scheme.achieved_overlap, abs=1e-12)


def test_query_counts_within_bounds():
    rng = np.random.default_rng(4)
    for _ in range(8):
        dim = int(rng.integers(2, 5))
        theta = rng.uniform(np.pi / 4, np.pi - 0.01)
        U, V = _pair_with_arc(theta, dim, rng)
        n = int(np.ceil(np.pi / theta - 1e-12))
        scheme = build_sequential_scheme(U, V, CFG)
        assert scheme.query_count == n


def test_two_eigendecompositions_per_scheme(monkeypatch):
    """Only U^dag V is decomposed: the final relative operator is closed
    from its 2x2 endpoint block in closed form, so every scheme of 1 up to
    96 queries costs one decomposition."""
    calls = []

    def counting(M):
        calls.append(1)
        return eig_unitary(M)

    for module in (seqlocc.sequential, seqlocc.arcs):
        monkeypatch.setattr(module, "eig_unitary", counting)
    rng = np.random.default_rng(8)
    for theta in (np.pi / 95.5, 0.1, 0.5, 1.2, 2.0, np.pi - 0.01, np.pi + 0.3):
        calls.clear()
        U, V = _pair_with_arc(theta, 3, rng)
        scheme = build_sequential_scheme(U, V, CFG)
        assert scheme.query_count == queries_for_arc(theta)
        assert len(calls) == 1
        assert _recompute_overlap(U, V, scheme) <= 1e-12
    assert scheme.query_count == 1 and queries_for_arc(np.pi / 95.5) == 96


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_pacing_interleavers_are_u_dagger(dim):
    """Every stage but the closing one (interleavers[0], the last built) is
    Q Q^dag U^dag, which is U^dag."""
    rng = np.random.default_rng(20 + dim)
    for theta in (0.3, 0.7, 1.3):
        U, V = _pair_with_arc(theta, dim, rng)
        scheme = build_sequential_scheme(U, V, CFG)
        assert scheme.query_count == queries_for_arc(theta) >= 3
        for w in scheme.interleavers[1:]:
            assert np.abs(w - dagger(U)).max() <= 1e-12
        assert np.abs(scheme.interleavers[0] - dagger(U)).max() > 1e-3


@pytest.mark.parametrize("k", range(1, 8))
def test_query_count_agrees_with_parallel_count_at_tol_angle(k):
    """An arc within a few TOL_ANGLE of pi / k: the count and the engine
    read one rule, the fewest n with n theta >= pi - TOL_ANGLE, so they
    agree, and the scheme closes below overlap_tol. At theta exactly
    (pi - TOL_ANGLE) / k the measured arcs sit within rounding of that rule
    on either side, and k queries must still close."""
    rng = np.random.default_rng(40 + k)
    boundary = (np.pi - TOL_ANGLE) / k
    for theta in [np.pi / k + d for d in (-2e-8, -5e-9, 0.0, 5e-9, 2e-8)] + [boundary] * 8:
        U, Q = random_unitary(3, rng), random_unitary(3, rng)
        V = U @ Q @ _dphases([0.0, theta / 2, theta]) @ Q.conj().T
        scheme = build_sequential_scheme(U, V, CFG)
        assert scheme.query_count == parallel_query_count(U, V)
        assert scheme.query_count in ((k,) if theta == boundary else (k, k + 1))
        assert _recompute_overlap(U, V, scheme) <= CFG.overlap_tol


def test_end_cluster_counts_inside_the_arc():
    """Two eigenphases 5e-9 apart, inside TOL_ANGLE, at the end of an arc
    just past (pi - TOL_ANGLE) / 3: the arc runs to the outer one, so three
    queries close it, and the product pair spends those three on side A."""
    theta = (np.pi - TOL_ANGLE) / 3 - 1e-9
    Q = random_unitary(3, np.random.default_rng(7))
    V_A = Q @ _dphases([0.0, theta, theta + 5e-9]) @ Q.conj().T
    I3 = np.eye(3, dtype=complex)
    scheme = build_sequential_scheme(I3, V_A, CFG)
    assert scheme.query_count == parallel_query_count(I3, V_A) == 3
    assert _recompute_overlap(I3, V_A, scheme) <= 1e-12
    product, report = discriminate(validate_unitary(np.kron(V_A, np.eye(2)), 3, 2),
                                   validate_unitary(np.eye(6), 3, 2), CFG)
    assert product.case_trace == ["i-a"] and report.query_count == 3
    assert report.passed and report.overlap <= 1e-12


def test_commuting_diagonal_exact_counts():
    """Diagonal pairs compose by plain phase addition, so the engine must
    land exactly on ceil(pi / theta) queries."""
    rng = np.random.default_rng(5)
    for theta in (np.pi / 2, 1.1, 1.9, 2.6, 0.9):
        dim = int(rng.integers(2, 5))
        inner = np.sort(rng.uniform(0, theta, size=max(0, dim - 2)))
        phases = np.concatenate([[0.0], inner, [theta]])
        U = np.eye(dim, dtype=complex)
        V = _dphases(phases)
        scheme = build_sequential_scheme(U, V, CFG)
        assert scheme.query_count == int(np.ceil(np.pi / theta - 1e-12))
        assert _recompute_overlap(U, V, scheme) <= 1e-12


def test_stage_wide_arc_adds_no_interleaver():
    """An arc already past pi (three cube roots of unity, arc 4pi/3) needs
    no stage: one query, and the trace holds only the starting arc."""
    rng = np.random.default_rng(6)
    U = random_unitary(3, rng)
    Q = random_unitary(3, rng)
    V = U @ Q @ _dphases([0.0, 2 * np.pi / 3, 4 * np.pi / 3]) @ Q.conj().T
    scheme = build_sequential_scheme(U, V, CFG)
    assert scheme.interleavers == []
    assert scheme.theta_trace == pytest.approx([4 * np.pi / 3], abs=1e-9)
    assert _recompute_overlap(U, V, scheme) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_stage_closing_rotation_on_quarter_turn(dim):
    """From pi/2 the only stage is the closing one: its rotation zeroes the
    trace of the endpoint block, so the endpoints land exactly antipodal."""
    rng = np.random.default_rng(7 + dim)
    U = random_unitary(dim, rng)
    Q = random_unitary(dim, rng)
    phases = [0.0] * (dim - 1) + [np.pi / 2]
    V = U @ Q @ _dphases(phases) @ Q.conj().T
    scheme = build_sequential_scheme(U, V, CFG)
    assert scheme.query_count == 2
    (w,) = scheme.interleavers
    rel = dagger(U @ w @ U) @ (V @ w @ V)
    assert smallest_arc(rel).theta == pytest.approx(np.pi, abs=1e-12)
    assert _recompute_overlap(U, V, scheme) <= 1e-12
    # the closed form itself: tan^2 t = -cos(sigma) / cos(Delta) zeroes the
    # trace of the endpoint block for any closing pair of arcs
    for theta_c, theta_0 in [(np.pi / 2, np.pi / 2), (2.0, 1.5), (3.0, 0.2), (1.2, 2.5)]:
        S = _stage_rotation(theta_c, theta_0, 2)
        block = S.conj().T @ _dphases([0.0, theta_c]) @ S @ _dphases([0.0, theta_0])
        assert abs(np.trace(block)) <= 1e-15


def test_stage_commuting_pace_gains_full_arc():
    """For a diagonal pair every non-closing stage is the identity and gains
    exactly theta_0; only the closing stage rotates."""
    U = np.eye(4, dtype=complex)
    V = _dphases([0.0, 0.25, 0.5, 0.75])
    scheme = build_sequential_scheme(U, V, CFG)
    assert scheme.query_count == math.ceil(np.pi / 0.75)
    trace = scheme.theta_trace
    assert np.diff(trace[:-1]) == pytest.approx([0.75] * (len(trace) - 2), abs=1e-12)
    assert trace[-1] >= np.pi - TOL_ANGLE
    for w in scheme.interleavers[1:]:
        assert np.allclose(w, np.eye(4), atol=1e-12)
    assert not np.allclose(scheme.interleavers[0], np.eye(4))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("phases", [[0.0, 1.0 - 1e-12, 1.0], [0.0, 0.8 - 3e-12, 0.8],
                                    [0.0, 3.5e-13, np.pi / 9]])
def test_near_degenerate_arc_endpoint_closes_exactly(phases, seed):
    """A phase within 1e-12 of an arc endpoint joins that endpoint's cluster,
    whose representative need not be the extreme member. The closing
    rotation and the input must still use the extreme eigenvectors, or the
    endpoints miss antipodality by the cluster width (overlap about 1e-12
    instead of 1e-15)."""
    rng = np.random.default_rng(seed)
    U, Q = random_unitary(3, rng), random_unitary(3, rng)
    V = U @ Q @ _dphases(phases) @ Q.conj().T
    scheme = build_sequential_scheme(U, V, CFG)
    assert scheme.query_count == queries_for_arc(phases[-1])
    assert _recompute_overlap(U, V, scheme) <= 1e-13


_EXACT_ARCS = [np.pi / k for k in range(2, 10)]


@st.composite
def _arc_pairs(draw):
    """(U, V) with Theta(U^dag V) = theta in [pi/9, pi), d = 2..5; theta may
    be pi/k exactly and inner eigenphases may repeat an arc endpoint."""
    dim = draw(st.integers(2, 5))
    theta = draw(st.one_of(
        st.sampled_from(_EXACT_ARCS),
        st.floats(np.pi / 9, np.pi, exclude_max=True, allow_nan=False)))
    inner = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                          min_size=dim - 2, max_size=dim - 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    U = random_unitary(dim, rng)
    Q = random_unitary(dim, rng)
    phases = [0.0] + [theta * x for x in inner] + [theta]
    return U, U @ Q @ _dphases(phases) @ Q.conj().T


@settings(max_examples=120, deadline=None)
@given(_arc_pairs())
def test_closed_form_engine_properties(pair):
    U, V = pair
    scheme = build_sequential_scheme(U, V, CFG)
    assert scheme.query_count == parallel_query_count(U, V)
    assert _recompute_overlap(U, V, scheme) <= 1e-12
    eye = np.eye(U.shape[0])
    for w in scheme.interleavers:
        assert np.linalg.norm(w.conj().T @ w - eye, 2) <= 1e-12
    again = build_sequential_scheme(U, V, CFG)
    assert len(again.interleavers) == len(scheme.interleavers)
    assert all(np.array_equal(a, b) for a, b in zip(again.interleavers, scheme.interleavers))
    assert np.array_equal(again.input_state, scheme.input_state)


def _closing_ladder():
    """Arcs pi/k exactly, pi/k - TOL_ANGLE/(2k) (k queries leave the arc
    TOL_ANGLE/2 short of pi, so the closing rotation is t = 0) and a
    96-query arc, each with its count and whether it sits at that boundary."""
    ladder = []
    for k in (2, 3, 5, 8):
        ladder += [(np.pi / k, k, False), (np.pi / k - TOL_ANGLE / (2 * k), k, True)]
    return ladder + [(np.pi / 95.5, 96, False)]


@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("theta, n, boundary", _closing_ladder())
def test_closing_stage_from_the_endpoint_block(theta, n, boundary, dim):
    """The closing stage reads the final relative operator only through its
    2x2 block on the arc-endpoint eigenvectors of U^dag V: the recorded arc
    is that of the operator itself (decomposed here as the oracle), the
    input lies in the endpoints' span, and the overlap is zero up to
    rounding, or cos(n theta / 2) where n theta falls short of pi."""
    rng = np.random.default_rng(int(1000 * theta) + dim)
    U, Q = random_unitary(dim, rng), random_unitary(dim, rng)
    phases = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, dim - 2)) * theta, [theta]])
    V = U @ Q @ _dphases(phases) @ Q.conj().T
    scheme = build_sequential_scheme(U, V, CFG)
    assert scheme.query_count == n
    final = dagger(compose_sequential(U, scheme.interleavers)) @ compose_sequential(
        V, scheme.interleavers)
    assert abs(scheme.theta_trace[-1] - smallest_arc(final).theta) <= 1e-12
    ends = Q[:, [0, -1]]
    psi = scheme.input_state
    assert np.linalg.norm(psi - ends @ (ends.conj().T @ psi)) <= 1e-12
    overlap = _recompute_overlap(U, V, scheme)
    assert overlap == pytest.approx(scheme.achieved_overlap, abs=1e-15)
    if boundary:
        # V = U Q D Q^dag carries rounding, so its arc is theta only to a few
        # eps, and n queries multiply that: the decomposition-based closing
        # overshot cos(n theta / 2) by up to 3e-15 on such pairs
        assert overlap <= np.cos(n * theta / 2) + 1e-14
    else:
        assert overlap <= 1e-13


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_closing_without_rotation_stalls(dim, monkeypatch):
    """With the closing rotation replaced by the identity, the endpoint
    eigenphases stop short of antipodal, and the closing stage reports it
    rather than returning a scheme above overlap_tol."""
    from seqlocc import CaseFailure, StageStalled, discriminate, validate_unitary

    monkeypatch.setattr(seqlocc.sequential, "_stage_rotation",
                        lambda theta_c, theta_0, d: np.eye(d, dtype=complex))
    rng = np.random.default_rng(60 + dim)
    for theta in (0.3, 1.0, 0.45 * np.pi, 0.7 * np.pi):
        U, V = _pair_with_arc(theta, dim, rng)
        with pytest.raises(StageStalled):
            build_sequential_scheme(U, V, CFG)
        UB = random_unitary(2, rng)
        with pytest.raises(CaseFailure) as exc:
            discriminate(validate_unitary(np.kron(U, UB), dim, 2),
                         validate_unitary(np.kron(V, UB), dim, 2), CFG)
        assert exc.value.case_trace == ["i-a"]
        assert isinstance(exc.value.cause, StageStalled)


def test_a_pair_past_the_query_cap_is_refused_before_any_layer():
    """I_4 against diag(1, e^{2.9e-7 i}) (x) I_2 is distinct (phase distance
    1.03e-7) and would need 10,833,079 queries: i-a refuses it at once."""
    U = validate_unitary(np.eye(4), 2, 2)
    V = validate_unitary(np.kron(np.diag([1, np.exp(2.9e-7j)]), np.eye(2)), 2, 2)
    assert parallel_query_count(U.matrix, V.matrix) == 10_833_079
    start = time.perf_counter()
    with pytest.raises(CaseFailure) as err:
        discriminate(U, V, CFG)
    assert time.perf_counter() - start < 1.0
    assert err.value.case_trace == ["i-a"]
    assert isinstance(err.value.cause, TooManyQueries)
    assert (err.value.cause.queries, err.value.cause.cap) == (10_833_079, MAX_QUERIES)


def test_the_query_cap_admits_its_own_count(monkeypatch):
    rng = np.random.default_rng(5)
    U, V = _pair_with_arc(math.pi / 5.5, 3, rng)  # 6 queries
    monkeypatch.setattr(seqlocc.sequential, "MAX_QUERIES", 6)
    assert build_sequential_scheme(U, V, CFG).query_count == 6
    monkeypatch.setattr(seqlocc.sequential, "MAX_QUERIES", 5)
    with pytest.raises(TooManyQueries):
        build_sequential_scheme(U, V, CFG)


def test_pair_weight_is_its_old_numpy_expression():
    """_pair_weight in scalar arithmetic gives the bits of the numpy
    expression it replaces, on Python complexes and numpy scalars alike."""
    rng = np.random.default_rng(36)
    for trial in range(500):
        z1, z2 = np.exp(1j * rng.uniform(0.0, 2 * math.pi, 2))
        if trial % 2:
            z1, z2 = complex(z1) * rng.uniform(0.5, 2.0), complex(z2)
        delta = z1 - z2
        old = float(np.clip(-np.real(np.conj(delta) * z2) / abs(delta) ** 2, 0.0, 1.0))
        assert seqlocc.arcs._pair_weight(z1, z2) == old
        assert seqlocc.arcs._pair_weight(complex(z1), complex(z2)) == old


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_final_arc_is_its_old_expression(dim):
    """The recorded final arc, read from the already wrapped phases by the
    gap kernel, is arc_of_phases of the same phases, == on seeded pairs."""
    rng = np.random.default_rng(36 + dim)
    for theta in (0.3, 0.7, 1.1, 2.0):
        U, V = _pair_with_arc(theta, dim, rng)
        scheme = build_sequential_scheme(U, V, CFG)
        Q = _circular_sorted_eig(dagger(U) @ V)[2]
        M = compose_sequential(U, scheme.interleavers).conj().T @ compose_sequential(
            V, scheme.interleavers)
        T = Q.conj().T @ M @ Q
        (l1, l2), _ = _eig_2x2(T[::dim - 1, ::dim - 1])
        z = [l1, l2, *np.diag(T)[1:-1]]
        old = np.array(np.angle(np.asarray(z, dtype=complex)), dtype=float)
        np.mod(old, 2 * np.pi, out=old)
        old[old >= 2 * np.pi] = 0.0
        assert scheme.theta_trace[-1] == seqlocc.arcs.arc_of_phases(old).theta
        assert seqlocc.arcs._arc_of_sorted(np.sort(canonical_phases(z))) == \
            seqlocc.arcs.arc_of_phases(old)
