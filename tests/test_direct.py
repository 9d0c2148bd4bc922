"""The direct route: one query with a product input, ahead of the case engine."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqlocc import (
    ArcTooSmall,
    CaseFailure,
    LocalLayer,
    NumericalFailure,
    Query,
    RunConfig,
    StageStalled,
    discriminate,
    exp_xx_form,
    random_unitary,
    smallest_arc,
    swap_operator,
    validate_unitary,
    zero_overlap_state,
)
from seqlocc import engine
from seqlocc.arcs import _ROUNDING, _zero_of_2x2, numerical_range_zero
from seqlocc.engine import validate_scheme
from seqlocc.io import dumps_scheme

from corpus import labeled_pairs
from test_engine import _count_decompositions

CFG = RunConfig()


def _engine_only(U, V):
    """discriminate with the direct route turned off: the case engine alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_direct", lambda build, U, V: None)
        return discriminate(U, V, CFG)


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _with_zero_in_range(rng, d):
    """Random d x d matrix shifted so that 0 = x^dag A x for a random unit x."""
    A, x = _complex(rng, d, d), _complex(rng, d)
    x /= np.linalg.norm(x)
    return A - np.vdot(x, A @ x) * np.eye(d)


@pytest.mark.parametrize("seed", range(4))
def test_zero_of_2x2_hits_zero(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        A = _with_zero_in_range(rng, 2)
        x = _zero_of_2x2(A)
        assert x is not None
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-14
        assert abs(np.vdot(x, A @ x)) <= 1e-14


def test_zero_of_2x2_none_for_definite_hermitian_part():
    rng = np.random.default_rng(7)
    for _ in range(50):
        B = _complex(rng, 2, 2)
        P = B @ B.conj().T + 0.1 * np.eye(2)
        S = _complex(rng, 2, 2)
        S = S + S.conj().T
        for sign in (1.0, -1.0):
            assert _zero_of_2x2(sign * P + 1j * S) is None


def test_numerical_range_zero_solves_every_2x2():
    """A 2x2 A is decided in closed form, so every draw with 0 in F(A) is
    solved, not only those the inscribed polygon of a fan would cover."""
    rng = np.random.default_rng(2)
    for _ in range(200):
        A = _with_zero_in_range(rng, 2)
        phi = numerical_range_zero(A)
        assert phi is not None
        assert abs(np.linalg.norm(phi) - 1.0) <= 1e-14
        assert abs(np.vdot(phi, A @ phi)) <= 1e-12


def _zero_of_2x2_eigh(A):
    """The 2x2 closed form in numpy, through np.linalg.eigh: the reference
    that the scalar _zero_of_2x2 is held to."""
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


def _oracle_matrices():
    """4000 default_rng draws in four families (plain, shifted so that 0 is
    in F(A), e^{i alpha} H, shifted along the real axis), then edge cases."""
    rng = np.random.default_rng(2017)
    mats = []
    for i in range(4000):
        A = _complex(rng, 2, 2)
        if i % 4 == 1:
            x = _complex(rng, 2)
            A = A - np.vdot(x, A @ x) / np.vdot(x, x) * np.eye(2)
        elif i % 4 == 2:
            A = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * (A + A.conj().T)
        elif i % 4 == 3:
            A = A + 2.0 * rng.normal() * np.eye(2)
        mats.append(A)
    Q = random_unitary(2, rng)
    segments = [np.exp(1j * alpha) * (Q * h) @ Q.conj().T
                for alpha in (0.0, 0.7, np.pi / 2, 2.0, np.pi)
                for h in ([-1.0, 2.0], [0.5, 2.0], [-2.0, -0.5], [0.0, 1.0])]
    edges = [np.diag([1.0, -1.0]), np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]),
             np.zeros((2, 2)), np.diag([1.0, 1j]), 1e-12 * mats[1]]
    return mats + segments + [np.asarray(E, dtype=complex) for E in edges]


def test_zero_of_2x2_agrees_with_the_eigh_form():
    """The scalar closed form decides 0 in F(A) as the eigh form does, and
    every vector it returns is a unit zero of the form to rounding."""
    mats, found = _oracle_matrices(), 0
    for A in mats:
        x = _zero_of_2x2(A)
        assert (x is None) == (_zero_of_2x2_eigh(A) is None), A
        if x is not None:
            found += 1
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-14
            assert abs(np.vdot(x, A @ x)) <= 1e-14 * np.linalg.norm(A)
    assert 0 < found < len(mats)
    # a segment through 0, the disc of a nilpotent, {0} and a tiny matrix
    # with 0 in its range hold a zero; the point {1} and the segment [1, i]
    # do not
    assert [_zero_of_2x2(A) is None for A in mats[-6:]] == [False, True, False, False, True, False]


@pytest.mark.parametrize("alpha", [0.0, 0.3, np.pi / 2, 2.0, np.pi])
def test_numerical_range_zero_on_a_2x2_segment(alpha):
    """F(e^{i alpha} H) for a Hermitian H of indefinite sign is a segment
    through 0, which has no interior for a fan of triangles to locate."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        Q = random_unitary(2, rng)
        h = np.array([-rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)])
        A = np.exp(1j * alpha) * (Q * h) @ Q.conj().T
        phi = numerical_range_zero(A)
        assert phi is not None
        assert abs(np.linalg.norm(phi) - 1.0) <= 1e-14
        assert abs(np.vdot(phi, A @ phi)) <= 1e-14
    # a definite H puts the segment off 0
    assert numerical_range_zero(np.exp(1j * alpha) * np.diag([0.5, 2.0])) is None


@pytest.mark.parametrize("alpha", [0.0, 0.7, np.pi / 2, 2.0, np.pi])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_numerical_range_zero_on_a_segment_beyond_2x2(d, alpha):
    """A segment through 0 at d >= 3 holds no triangle of the fan; the
    chords between opposite support points reach 0 instead."""
    rng = np.random.default_rng([d, 9])
    for _ in range(20):
        Q = random_unitary(d, rng)
        h = np.concatenate([[-rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)],
                            rng.uniform(-2.0, 2.0, d - 2)])
        A = np.exp(1j * alpha) * (Q * h) @ Q.conj().T
        phi = numerical_range_zero(A)
        assert phi is not None
        assert abs(np.linalg.norm(phi) - 1.0) <= 1e-14
        assert abs(np.vdot(phi, A @ phi)) <= 1e-14
    Q = random_unitary(d, rng)
    A = np.exp(1j * alpha) * (Q * np.linspace(-1.0, 2.0, d)) @ Q.conj().T
    assert numerical_range_zero(A) is not None
    # a definite H puts the segment off 0
    H = (Q * np.linspace(0.5, 2.0, d)) @ Q.conj().T
    assert numerical_range_zero(np.exp(1j * alpha) * H) is None


@pytest.mark.parametrize("d", [3, 4, 5])
def test_numerical_range_zero_on_general_matrices(d):
    rng = np.random.default_rng(d)
    solved = 0
    for _ in range(40):
        A = _with_zero_in_range(rng, d)
        phi = numerical_range_zero(A)
        if phi is not None:
            solved += 1
            assert abs(np.linalg.norm(phi) - 1.0) <= 1e-14
            assert abs(np.vdot(phi, A @ phi)) <= 1e-12
    assert solved >= 30
    # F(0) = {0}: the first boundary point is already a zero
    assert numerical_range_zero(np.zeros((d, d))) is not None


def test_numerical_range_zero_none_when_separated():
    """A half-plane strictly containing F(A) leaves nothing to find."""
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        B = _complex(rng, d, d)
        A = np.exp(0.7j) * (B @ B.conj().T + 0.05 * np.eye(d) + 0.3j * (B - B.conj().T))
        assert numerical_range_zero(A) is None


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_normal_matrix_agrees_with_arc_criterion(d):
    """For a normal A, F(A) is the hull of its spectrum: the route succeeds
    exactly when Theta(A) >= pi, as zero_overlap_from_spectrum does."""
    checked = {True: 0, False: 0}
    for seed in range(60):
        rng = np.random.default_rng([d, seed])
        Q = random_unitary(d, rng)
        A = Q @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, d))) @ Q.conj().T
        theta = smallest_arc(A).theta
        if abs(theta - np.pi) < 0.02:
            continue
        try:
            zero_overlap_state(A)
            spectral = True
        except ArcTooSmall:
            spectral = False
        phi = numerical_range_zero(A)
        assert (phi is not None) == spectral == (theta >= np.pi)
        if phi is not None:
            assert abs(np.vdot(phi, A @ phi)) <= 1e-14
        checked[spectral] += 1
    if d == 2:
        # exactly antipodal: F(A) is a diameter of the unit disc
        Q = random_unitary(2, np.random.default_rng([d, 60]))
        A = Q @ np.diag(np.exp(0.7j) * np.array([1.0, -1.0])) @ Q.conj().T
        zero_overlap_state(A)
        phi = numerical_range_zero(A)
        assert phi is not None and abs(np.vdot(phi, A @ phi)) <= 1e-14
        checked[True] += 1
    assert checked[False] > 0 and checked[True] > 0


def _counting_zeros(monkeypatch):
    """engine.numerical_range_zero wrapped: the compressions it was given."""
    calls = []
    real = engine.numerical_range_zero
    monkeypatch.setattr(engine, "numerical_range_zero",
                        lambda A: calls.append(A) or real(A))
    return calls


def test_precheck_skips_iii_b_xne1(monkeypatch):
    """Theta(U^dag V) < pi rules out every product input. At d_a = 2 the
    route first tries the d_b + 1 B probes that need no generator, each a
    closed-form 2x2 compression, and the screen then returns before the
    generator is seeded."""
    calls = _counting_zeros(monkeypatch)
    rng_calls = _counting_rng(monkeypatch)
    U = exp_xx_form(1.0, 2, 3)
    V = validate_unitary(np.exp(0.4j) * exp_xx_form(0.6, 2, 3).matrix, 2, 3)
    scheme, report = discriminate(U, V, CFG)
    assert scheme.case_trace == ["iii", "iii-b-xne1"]
    assert report.passed
    assert [A.shape for A in calls] == [(2, 2)] * 4
    assert rng_calls == []


def test_basis_probe_answers_before_any_decomposition(monkeypatch):
    """The Haar 2x2 pair of default_rng(28) is answered by probe 0 on B,
    ahead of the Theta screen: its discriminate decomposes nothing."""
    rng = np.random.default_rng(28)
    U, V = (validate_unitary(random_unitary(4, rng), 2, 2) for _ in range(2))
    calls = _count_decompositions(monkeypatch)
    scheme, report = discriminate(U, V, CFG)
    assert scheme.case_trace == ["direct"]
    assert "probe 0 on B" in report.wall_notes
    assert calls == []


def test_seeded_draw_follows_one_screen(monkeypatch):
    """The Haar 2x2 pair of default_rng(33) misses the basis and the uniform
    probe on B, so the screen decomposes U^dag V once before the first
    seeded draw answers."""
    rng = np.random.default_rng(33)
    U, V = (validate_unitary(random_unitary(4, rng), 2, 2) for _ in range(2))
    calls = _count_decompositions(monkeypatch)
    scheme, report = discriminate(U, V, CFG)
    assert scheme.case_trace == ["direct"]
    assert "probe 4 on B" in report.wall_notes
    assert [M.shape for M in calls] == [(4, 4)]


def test_refused_3x3_pair_screens_after_the_deterministic_probes(monkeypatch):
    """The 3x3 near pair of default_rng(2033) at theta = 0.6 pi has
    Theta(U^dag V) < pi. As at every shape, the d_b + 1 B probes that need no
    generator come first, each a 3x3 compression, and the screen then
    returns before the generator is seeded, leaving the build untouched."""
    calls = _counting_zeros(monkeypatch)
    rng_calls = _counting_rng(monkeypatch)
    U, V = _near_pair(np.random.default_rng(2033), 3, 3, 0.6 * np.pi)
    build = engine._Build(CFG)
    assert engine._direct(build, U, V) is None
    assert [A.shape for A in calls] == [(3, 3)] * 4
    assert rng_calls == []
    assert build.trace == build.notes == build.per_branch_error == []


@pytest.mark.parametrize("d_a, seed, probe", [(3, 1, 3), (4, 0, 1)])
def test_qubit_on_b_probes_a_first(monkeypatch, d_a, seed, probe):
    """With d_a > d_b = 2, psi runs over A first, so every compression is
    2x2 and solved in closed form: the Haar pairs of default_rng(1) at 3x2
    (the uniform probe) and default_rng(0) at 4x2 (a basis probe) are
    answered without a decomposition."""
    rng = np.random.default_rng(seed)
    U, V = (validate_unitary(random_unitary(2 * d_a, rng), d_a, 2) for _ in range(2))
    zeros = _counting_zeros(monkeypatch)
    decompositions = _count_decompositions(monkeypatch)
    build = engine._Build(CFG)
    assert engine._direct(build, U, V) is not None
    assert build.notes == [f"direct: one query, probe {probe} on A, "
                           f"residual {build.per_branch_error[0]:.1e}"]
    assert [A.shape for A in zeros] == [(2, 2)] * (probe + 1)
    assert decompositions == []


@pytest.mark.parametrize("d_a", [3, 4])
def test_direct_route_end_to_end_beyond_d_b(d_a):
    """discriminate through the route at d_a > d_b = 2 on 5 Haar pairs: one
    query, verified, its budget the residual _direct measured, and a rerun
    byte-identical."""
    rng = np.random.default_rng(40 + d_a)
    for _ in range(5):
        U, V = (validate_unitary(random_unitary(2 * d_a, rng), d_a, 2) for _ in range(2))
        build = engine._Build(CFG)
        assert engine._direct(build, U, V) is not None
        scheme, report = discriminate(U, V, CFG)
        assert scheme.case_trace == ["direct"]
        assert report.passed and report.query_count == 1
        assert engine.verify_scheme(scheme, U, V, CFG).passed
        assert scheme.budget == build.per_branch_error[0] <= CFG.overlap_tol
        assert dumps_scheme(*discriminate(U, V, CFG)) == dumps_scheme(scheme, report)


@pytest.mark.parametrize("swapped", [False, True])
def test_product_pairs_skip_the_route(monkeypatch, swapped):
    """Product against product or swapped product keeps its closed form
    (i-a, i-b), already optimal among product-input schemes."""
    calls = []
    monkeypatch.setattr(engine, "_direct", lambda *args: calls.append(args))
    Z = np.diag([1.0, -1.0])
    V = np.kron(Z, Z) @ swap_operator(2) if swapped else np.kron(Z, Z)
    scheme, report = discriminate(validate_unitary(np.eye(4), 2, 2), validate_unitary(V, 2, 2), CFG)
    assert scheme.case_trace == (["i-b"] if swapped else ["i-a"])
    assert report.query_count == 1 and report.passed
    assert calls == []


def test_swapped_pairs_skip_the_route(monkeypatch):
    """Two swapped products keep the closed form of i-c: their overlap
    factorises too, so the route is never visited."""
    def refuse(*args):
        raise AssertionError("direct route visited on a swapped pair")

    monkeypatch.setattr(engine, "_direct", refuse)
    pairs = [(U, V) for label, _, U, V in labeled_pairs() if label == "i-c"]
    rng = np.random.default_rng(17)
    for d in (2, 3, 4):
        U, V = (validate_unitary(np.kron(random_unitary(d, rng), random_unitary(d, rng))
                                 @ swap_operator(d), d, d) for _ in range(2))
        pairs.append((U, V))
    for U, V in pairs:
        scheme, report = discriminate(U, V, CFG)
        assert scheme.case_trace[0] == "i-c"
        assert report.passed


def test_pair_no_candidate_solves_falls_back():
    """A diagonal W = U^dag V makes every W_psi diagonal, so F(W_psi) is a
    segment that the candidates do not put through 0, although
    Theta(W) > pi: the engine's scheme comes out unchanged."""
    U = validate_unitary(np.eye(4), 2, 2)
    V = validate_unitary(np.diag(np.exp(1j * np.array([0.0, 1.0, 2.5, 4.4]))), 2, 2)
    assert smallest_arc(V.matrix).theta > np.pi
    scheme, report = discriminate(U, V, CFG)
    engine_scheme, _ = _engine_only(U, V)
    assert scheme.case_trace == engine_scheme.case_trace == ["ii-a"]
    assert report.passed
    assert dumps_scheme(scheme) == dumps_scheme(engine_scheme)


def test_direct_scheme_budget_is_measured_residual():
    rng = np.random.default_rng(11)
    U, V = (validate_unitary(random_unitary(9, rng), 3, 3) for _ in range(2))
    scheme, report = discriminate(U, V, CFG)
    assert scheme.case_trace == ["direct"]
    assert report.query_count == 1
    assert scheme.budget == report.overlap <= CFG.overlap_tol
    layers = scheme.template.layers
    assert [type(layer) for layer in layers] == [LocalLayer, Query, LocalLayer]
    assert all(np.array_equal(np.kron(layer.factor_a, layer.factor_b), np.eye(9))
               for layer in layers[::2])


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (3, 3)])
@settings(max_examples=3, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_direct_route_properties(d_a, d_b, seed):
    rng = np.random.default_rng(seed)
    U, V = (validate_unitary(random_unitary(d_a * d_b, rng), d_a, d_b) for _ in range(2))
    scheme, report = discriminate(U, V, CFG)
    assert all(isinstance(layer, (LocalLayer, Query)) for layer in scheme.template.layers)
    for v, d in ((scheme.input_a, d_a), (scheme.input_b, d_b)):
        assert v.shape == (d,) and abs(np.linalg.norm(v) - 1.0) <= 1e-12
    # verify_scheme's own slack on top of the budget
    assert report.overlap <= scheme.budget + 1e-12
    assert scheme.budget <= CFG.overlap_tol
    again, again_report = discriminate(U, V, CFG)
    assert dumps_scheme(again, again_report) == dumps_scheme(scheme, report)
    if (d_a, d_b) == (2, 2):
        assert report.query_count <= _engine_only(U, V)[1].query_count


def _nesting(run, *args):
    """run(*args) with engine._dispatch_pair wrapped, and the nesting level
    of every dispatch it made (0 for the operand pair)."""
    levels, open_calls = [], [0]
    real = engine._dispatch_pair

    def counted(*a, **kw):
        levels.append(open_calls[0])
        open_calls[0] += 1
        try:
            return real(*a, **kw)
        finally:
            open_calls[0] -= 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_dispatch_pair", counted)
        return run(*args), levels


@pytest.fixture(scope="module")
def corpus_runs():
    """Each acceptance-corpus pair under the default configuration and with
    the case engine alone: (label, ((scheme, report), levels) with the route,
    the same without it)."""
    return [(label, _nesting(discriminate, U, V, CFG), _nesting(_engine_only, U, V))
            for label, _, U, V in labeled_pairs()]


def test_corpus_with_direct_route(corpus_runs):
    """Every acceptance-corpus pair under the default configuration: the
    scheme verifies, a direct scheme's budget is its verified overlap within
    overlap_tol, and no pair takes more queries than the case engine alone."""
    direct = 0
    for label, ((scheme, report), _), ((_, engine_report), _) in corpus_runs:
        assert report.passed, label
        assert report.overlap <= scheme.budget + 1e-12, label
        if scheme.case_trace == ["direct"]:
            direct += 1
            assert scheme.budget == report.overlap <= CFG.overlap_tol, label
        assert report.query_count <= engine_report.query_count, label
    assert direct > 0


def test_hermitian_relative_operation_is_direct(corpus_runs):
    """Corpus pairs 24 and 25 have a Hermitian U^dag V (eigenvalues 1 and
    -1), so every compression W_psi is Hermitian and F(W_psi) a segment:
    the route answers both in one query, where the case engine takes 20."""
    pairs = labeled_pairs()
    for index in (24, 25):
        *_, U, V = pairs[index]
        W = U.matrix.conj().T @ V.matrix
        assert np.abs(W - W.conj().T).max() <= 1e-12
        label, ((scheme, report), _), ((_, engine_report), _) = corpus_runs[index]
        assert scheme.case_trace == ["direct"], label
        assert report.query_count == 1 < engine_report.query_count, label
        assert scheme.budget == report.overlap <= CFG.overlap_tol, label


def test_dispatch_nests_at_most_once(corpus_runs):
    """Only case iii dispatches again, and on a pair that the direct route or
    cases i and ii answer: over the corpus, with the route on and off, no
    dispatch nests inside a nested one."""
    for mode, column in (("route on", 1), ("engine only", 2)):
        levels = [level for run in corpus_runs for level in run[column][1]]
        assert levels.count(0) == len(corpus_runs), mode
        assert max(levels) == 1, mode


def test_direct_under_a_block():
    """A Haar pair the route cannot answer at depth 0 reaches it on the
    image pair of the iii-a block."""
    rng = np.random.default_rng(29)
    U, V = (validate_unitary(random_unitary(4, rng), 2, 2) for _ in range(2))
    scheme, report = discriminate(U, V, CFG)
    assert scheme.case_trace == ["iii", "iii-a", "direct"]
    assert report.passed
    assert report.overlap <= scheme.budget <= CFG.overlap_tol
    assert report.query_count <= _engine_only(U, V)[1].query_count


def _counting_classify(monkeypatch):
    """engine.classify_primitive wrapped: the list of operands it was given."""
    calls = []
    real = engine.classify_primitive
    monkeypatch.setattr(engine, "classify_primitive", lambda X: calls.append(X) or real(X))
    return calls


def test_imprimitive_u_classifies_v_only_when_the_route_misses(monkeypatch):
    """Against an imprimitive U the direct route runs whatever V is, so V's
    kind is sought only after it misses: U alone is asked for a Haar pair
    the route answers, U then V for corpus pair 19 (iii/iii-a/i-a), which it
    misses. Each of those operands entangles |0...0>, so none is classified."""
    calls = _counting_classify(monkeypatch)
    asked = []
    certify = engine._certified_imprimitive
    monkeypatch.setattr(engine, "_certified_imprimitive", lambda X: asked.append(X) or certify(X))
    rng = np.random.default_rng(28)
    U, V = (validate_unitary(random_unitary(4, rng), 2, 2) for _ in range(2))
    scheme, _ = discriminate(U, V, CFG)
    assert scheme.case_trace == ["direct"]
    assert [id(X) for X in asked] == [id(U)]
    assert [id(X) for X in calls] == []
    calls.clear()
    asked.clear()
    *_, U, V = labeled_pairs()[19]
    scheme, report = discriminate(U, V, CFG)
    assert scheme.case_trace == ["iii", "iii-a", "i-a"] and report.passed
    assert [id(X) for X in asked if X is U or X is V] == [id(U), id(V)]
    assert [id(X) for X in calls if X is U or X is V] == []


def test_haar_direct_pairs_classify_nothing(monkeypatch):
    """A Haar 2x2 pair answered by the direct route is never classified: both
    operands entangle |0...0>. A product pair is still classified, U then V,
    since the case engine reads its factors."""
    calls = _counting_classify(monkeypatch)
    rng = np.random.default_rng(12345)
    pairs = [[validate_unitary(random_unitary(4, rng), 2, 2) for _ in range(2)] for _ in range(10)]
    direct = [(U, V) for U, V in pairs if engine._direct(engine._Build(CFG), U, V) is not None]
    assert len(direct) >= 8
    for U, V in direct:
        scheme, report = discriminate(U, V, CFG)
        assert scheme.case_trace == ["direct"] and report.passed
    assert calls == []
    U = validate_unitary(np.kron(random_unitary(2, rng), random_unitary(2, rng)), 2, 2)
    V = validate_unitary(np.kron(random_unitary(2, rng), random_unitary(2, rng)), 2, 2)
    scheme, report = discriminate(U, V, CFG)
    assert scheme.case_trace == ["i-a"] and report.passed
    assert [id(X) for X in calls] == [id(U), id(V)]


def test_primitive_u_still_trades_roles(monkeypatch):
    """A primitive U is classified with V up front; an imprimitive V takes
    U's role, and the scheme is that of the reversed pair."""
    calls = _counting_classify(monkeypatch)
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    U = validate_unitary(np.kron(had, had), 2, 2)
    V = validate_unitary(np.eye(4)[[0, 1, 3, 2]], 2, 2)
    scheme, report = discriminate(U, V, CFG)
    assert [id(X) for X in calls] == [id(U), id(V)]
    assert "operand roles swapped" in report.wall_notes
    assert scheme.case_trace == ["direct"] and report.passed
    assert dumps_scheme(scheme) == dumps_scheme(discriminate(V, U, CFG)[0])


def test_direct_route_error_is_one_case_failure(monkeypatch, cnot, cz):
    """An error in the direct route, run before any case label, arrives as
    one CaseFailure with an empty trace, the error itself its cause."""
    failure = NumericalFailure("no zero found")

    def fail(A):
        raise failure

    monkeypatch.setattr(engine, "numerical_range_zero", fail)
    with pytest.raises(CaseFailure) as exc:
        discriminate(cnot, cz, CFG)
    assert exc.value.case_trace == [] and exc.value.cause is failure


def test_nested_error_is_one_case_failure(monkeypatch):
    """A sequential engine that stalls under iii-a's inner dispatch (corpus
    pair 19) is wrapped once, with the trace down to the inner case."""
    def stall(*args, **kwargs):
        raise StageStalled("stage gained no arc", [])

    monkeypatch.setattr(engine, "build_sequential_scheme", stall)
    *_, U, V = labeled_pairs()[19]
    with pytest.raises(CaseFailure) as exc:
        discriminate(U, V, CFG)
    assert exc.value.case_trace == ["iii", "iii-a", "i-a"]
    assert isinstance(exc.value.cause, StageStalled)  # so not itself a CaseFailure


def _near_pair(rng, d_a, d_b, theta):
    """V = U Q diag(e^{i phi}) Q^dag with U, Q Haar and
    phi = (0, theta, theta u^(D-2)), u uniform: the arc of U^dag V is theta."""
    D = d_a * d_b
    U, Q = random_unitary(D, rng), random_unitary(D, rng)
    phi = np.concatenate([[0.0, theta], theta * rng.uniform(size=D - 2)])
    V = U @ (Q * np.exp(1j * phi)) @ Q.conj().T
    return validate_unitary(U, d_a, d_b), validate_unitary(V, d_a, d_b)


@pytest.fixture(scope="module")
def near_pairs_2x3():
    """2x3 near pairs at theta = 0.9, 0.6, 0.45 and 0.3 pi, drawn in that order."""
    rng = np.random.default_rng(2023)
    return [_near_pair(rng, 2, 3, theta * np.pi) for theta in (0.9, 0.6, 0.45, 0.3)]


@pytest.mark.parametrize("index", [1, 2])
def test_iii_a_on_near_pairs_beyond_2x2(near_pairs_2x3, index):
    """Entangling 2x3 pairs with a relative arc below pi reach case iii-a
    (then the direct route at 0.6 pi, ii-a at 0.45 pi): the scheme is
    forward-only, its layers are products of unitary factors, and it
    verifies within its budget."""
    U, V = near_pairs_2x3[index]
    scheme, report = discriminate(U, V, CFG)
    assert scheme.case_trace[:2] == ["iii", "iii-a"]
    assert all(isinstance(layer, (LocalLayer, Query)) for layer in scheme.template.layers)
    validate_scheme(scheme, CFG.unitarity_tol)
    assert report.passed and report.overlap <= scheme.budget


def test_iii_a_probe_is_the_cheapest_that_separates(near_pairs_2x3):
    """At theta = 0.3 pi every symmetry probe separates F(V) from the
    identity. The widest separation, (sz+I) on B, predicts 2 queries for
    (I, F(V)), and its scheme takes 36 with a budget over the cap; _cheapest
    takes (sy+I) on B, which predicts 1, and its scheme takes 18 within it."""
    U, V = near_pairs_2x3[3]
    scheme, report = discriminate(U, V, CFG)
    assert scheme.case_trace[:2] == ["iii", "iii-a"]
    assert "symmetry probe Ix(sy+I) selected" in report.wall_notes
    assert report.query_count == 18 and scheme.budget <= CFG.overlap_tol
    assert report.passed


def test_iii_a_at_3x3_under_the_case_engine():
    """A 3x3 near pair at theta = 0.6 pi with the direct route off: the case
    engine reaches iii-a, and the scheme is forward-only, its layers are
    products of unitary factors, and it verifies within its budget."""
    U, V = _near_pair(np.random.default_rng(2033), 3, 3, 0.6 * np.pi)
    scheme, report = _engine_only(U, V)
    assert scheme.case_trace[:2] == ["iii", "iii-a"]
    assert all(isinstance(layer, (LocalLayer, Query)) for layer in scheme.template.layers)
    validate_scheme(scheme, CFG.unitarity_tol)
    assert report.passed and report.overlap <= scheme.budget


def test_per_branch_error_adds_up_to_the_budget(corpus_runs):
    """Over the corpus, with the route on and off, per_branch_error holds
    the terms of the budget, the residuals and the charged deviations, and
    the budget is its math.fsum exactly."""
    for label, ((scheme, report), _), ((engine_scheme, engine_report), _) in corpus_runs:
        for s, r in ((scheme, report), (engine_scheme, engine_report)):
            assert r.per_branch_error, label
            assert math.fsum(r.per_branch_error) == s.budget, label


def test_direct_candidates_order():
    """Basis states, the uniform superposition, then four draws from
    cfg.rng("direct", d), in that order."""
    for d in (2, 3, 5):
        rng = CFG.rng("direct", d)
        draws = rng.normal(size=(4, d)) + 1j * rng.normal(size=(4, d))
        expected = (list(np.eye(d)) + [np.ones(d) / np.sqrt(d)]
                    + [z / np.linalg.norm(z) for z in draws])
        probes = list(engine._direct_candidates(d, CFG))
        assert len(probes) == len(expected) == d + 5
        for probe, want in zip(probes, expected):
            assert np.array_equal(probe, want)


def _counting_rng(monkeypatch):
    calls = []
    real = RunConfig.rng

    def counted(self, label, *indices):
        calls.append((label, *indices))
        return real(self, label, *indices)

    monkeypatch.setattr(RunConfig, "rng", counted)
    return calls


def test_direct_candidates_draw_only_when_reached(monkeypatch):
    calls = _counting_rng(monkeypatch)
    probes = engine._direct_candidates(3, CFG)
    for _ in range(4):
        next(probes)
    assert calls == []
    next(probes)
    assert calls == [("direct", 3)]


def test_early_probe_seeds_no_generator(monkeypatch):
    """A pair answered by a basis probe never seeds the probe generator,
    and its scheme does not depend on the seed."""
    rng = np.random.default_rng(28)
    U, V = (validate_unitary(random_unitary(4, rng), 2, 2) for _ in range(2))
    calls = _counting_rng(monkeypatch)
    scheme, report = discriminate(U, V, CFG)
    assert scheme.case_trace == ["direct"]
    assert "probe 0 on B" in report.wall_notes
    assert calls == []
    other = discriminate(U, V, RunConfig(seed=5))
    assert dumps_scheme(*other) == dumps_scheme(scheme, report)


@pytest.mark.parametrize("seed", [28, 33])
def test_direct_reruns_are_byte_identical(seed):
    """Answered by a basis probe (28) or a seeded draw (33): two runs give
    the same scheme record."""
    rng = np.random.default_rng(seed)
    U, V = (validate_unitary(random_unitary(4, rng), 2, 2) for _ in range(2))
    first, again = (dumps_scheme(*discriminate(U, V, CFG)) for _ in range(2))
    assert first == again
