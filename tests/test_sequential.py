import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlocc import (
    Indistinguishable,
    RunConfig,
    build_sequential_scheme,
    compose_sequential,
    dagger,
    eig_unitary,
    parallel_query_count,
    random_unitary,
    smallest_arc,
)
import seqlocc.arcs
import seqlocc.sequential
from seqlocc.arcs import queries_for_arc
from seqlocc.sequential import _stage_rotation

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
    """U^dag V and the final relative operator are decomposed, nothing in
    between: one decomposition when the arc already reaches pi, two
    otherwise, for schemes of 1 up to 96 queries."""
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
        assert len(calls) == (1 if theta >= np.pi else 2)
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
    """An arc within a few tol_angle of pi / k: the count and the engine
    read one rule, the fewest n with n theta >= pi - tol_angle, so they
    agree, and the scheme closes below overlap_tol. At theta exactly
    (pi - tol_angle) / k the measured arcs sit within rounding of that rule
    on either side, and k queries must still close."""
    rng = np.random.default_rng(40 + k)
    boundary = (np.pi - CFG.tol_angle) / k
    for theta in [np.pi / k + d for d in (-2e-8, -5e-9, 0.0, 5e-9, 2e-8)] + [boundary] * 8:
        U, Q = random_unitary(3, rng), random_unitary(3, rng)
        V = U @ Q @ _dphases([0.0, theta / 2, theta]) @ Q.conj().T
        scheme = build_sequential_scheme(U, V, CFG)
        assert scheme.query_count == parallel_query_count(U, V)
        assert scheme.query_count in ((k,) if theta == boundary else (k, k + 1))
        assert _recompute_overlap(U, V, scheme) <= CFG.overlap_tol


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
    assert trace[-1] >= np.pi - CFG.tol_angle
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
