"""The direct route: one query with a product input, ahead of the case engine."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqlocc import (
    ArcTooSmall,
    LocalLayer,
    Query,
    RunConfig,
    discriminate,
    exp_xx_form,
    random_unitary,
    smallest_arc,
    swap_operator,
    validate_unitary,
    zero_overlap_state,
)
from seqlocc import engine
from seqlocc.arcs import _zero_of_2x2, numerical_range_zero
from seqlocc.io import dumps_scheme

from corpus import labeled_pairs

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
    assert checked[False] > 0 and (d == 2 or checked[True] > 0)


def test_precheck_skips_iii_b_xne1(monkeypatch):
    """Theta(U^dag V) < pi rules out every product input, so the route
    returns before it forms a single compression."""
    calls = []
    real = engine.numerical_range_zero
    monkeypatch.setattr(engine, "numerical_range_zero",
                        lambda A: calls.append(A) or real(A))
    U = exp_xx_form(1.0, 2, 3)
    V = validate_unitary(np.exp(0.4j) * exp_xx_form(0.6, 2, 3).matrix, 2, 3)
    scheme, report = discriminate(U, V, CFG)
    assert scheme.case_trace == ["iii", "iii-b-xne1"]
    assert report.passed
    assert calls == []


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
    assert all(np.array_equal(layer.matrix(), np.eye(9)) for layer in layers[::2])


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
