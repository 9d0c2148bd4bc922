import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import copy

from seqlocc import (
    CaseFailure,
    DimensionMismatch,
    Indistinguishable,
    LocalLayer,
    MalformedScheme,
    NotUnitary,
    Query,
    RunConfig,
    SeqloccError,
    basis_state,
    classify_primitive,
    dagger,
    discriminate,
    evaluate_template,
    exp_xx_form,
    op_distance_mod_phase,
    operator_schmidt,
    phase_distance,
    random_unitary,
    smallest_arc,
    swap_operator,
    unitarity_defect,
    validate_unitary,
    verify_scheme,
)
from seqlocc import engine, linalg
from seqlocc.arcs import queries_for_arc
from seqlocc.config import DISTINCT_TOL, TOL_ANGLE
from seqlocc.engine import _controlled_form, _image_factors, validate_scheme
from seqlocc.io import dumps_scheme
from seqlocc.templates import QUERY, CircuitTemplate

from conftest import CNOT, CZ, HAD, I2, SX, SZ
from corpus import labeled_pairs

CFG = RunConfig()

# these tests pin the case engine's routes; the direct route (tests/test_direct.py)
# would answer many of their pairs with one query first
pytestmark = pytest.mark.usefixtures("engine_only")


def _v(M, d_a=2, d_b=2):
    return validate_unitary(M, d_a, d_b)


def _run(U, V, d_a=2, d_b=2):
    return discriminate(_v(U, d_a, d_b), _v(V, d_a, d_b), CFG)


def test_trivial_product_pair():
    scheme, report = _run(np.kron(I2, I2), np.kron(SZ, I2))
    assert scheme.case_trace == ["i-a"]
    assert report.query_count == 1
    assert report.overlap <= 1e-12
    # the arc of sigma_z is already pi: equal-weight zero-overlap input on A
    assert np.allclose(np.abs(scheme.input_a), 1 / np.sqrt(2))
    assert np.allclose(scheme.input_b, basis_state(2, 0))


def test_product_vs_swap_single_query():
    scheme, report = _run(np.kron(I2, I2), swap_operator(2))
    assert scheme.case_trace == ["i-b"]
    assert report.query_count == 1
    # inputs |0>|1>: outputs |0>|1> vs |1>|0>
    assert report.overlap <= 1e-14


def test_swap_vs_swap_reduces_to_products():
    """A^dag C = Z has arc pi: its zero-overlap state on B answers at once."""
    scheme, report = _run(swap_operator(2), np.kron(SZ, I2) @ swap_operator(2))
    assert scheme.case_trace == ["i-c"]
    assert report.passed and report.query_count == 1


def test_product_side_chosen_by_query_count():
    """Side A (Theta = pi, one query) wins although side B has the wider
    phase distance (two queries)."""
    V = np.kron(np.diag([1, 1, 1, -1]), np.diag([1, np.exp(0.7j * np.pi)]))
    scheme, report = _run(np.eye(8), V, 4, 2)
    assert scheme.case_trace == ["i-a"]
    assert report.query_count == 1
    assert report.overlap <= 1e-12


def _clock(d):
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d))


@pytest.mark.parametrize("d", [2, 3])
def test_swap_vs_clock_swap_one_query(d):
    """The clock's arc 2 pi (d - 1) / d is at least pi, so one query does;
    at d = 2 the identity middle layer would leave the two images equal."""
    P = swap_operator(d)
    scheme, report = _run(P, np.kron(_clock(d), _clock(d)) @ P, d, d)
    assert scheme.case_trace == ["i-c"]
    assert report.passed and report.overlap <= 1e-12
    assert report.query_count == 1


IDENTITY_LAYER_FAILS = [(2, 0), (2, 1), (3, 2), (3, 3), (4, 4)]


def _identity_layer_fails(d, seed):
    """Factors with A B ~ C D and B A ~ D C: with K = B A and M = A^dag C
    commuting, C = A M, B = K A^dag, D = M^dag B."""
    rng = np.random.default_rng(seed)
    A, W = random_unitary(d, rng), random_unitary(d, rng)
    K = W @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, d))) @ W.conj().T
    M = W @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, d))) @ W.conj().T
    B, C = K @ A.conj().T, A @ M
    return A, B, C, M.conj().T @ B


def _run_swapped(A, B, C, D):
    d = A.shape[0]
    P = swap_operator(d)
    return _run(np.kron(A, B) @ P, np.kron(C, D) @ P, d, d)


@pytest.mark.parametrize("d, seed", IDENTITY_LAYER_FAILS)
def test_swap_swap_when_identity_middle_layer_fails(d, seed):
    """The identity middle layer leaves the two images equal; the (4, 4)
    draw has an arc of at least pi and takes one query."""
    A, B, C, D = _identity_layer_fails(d, seed)
    assert phase_distance(np.kron(A @ B, B @ A), np.kron(C @ D, D @ C)) <= DISTINCT_TOL
    scheme, report = _run_swapped(A, B, C, D)
    assert scheme.case_trace == (["i-c"] if (d, seed) == (4, 4) else ["i-c", "i-a"])
    assert report.passed and report.overlap <= 1e-10


def _check_swap_swap_queries(A, B, C, D):
    """One query when Theta(A^dag C) or Theta(B^dag D) reaches pi, else
    2 ceil(pi / (Theta(A^dag C) + Theta(B^dag D))); the scheme verifies
    with overlap <= budget <= overlap_tol. Returns the query count."""
    scheme, report = _run_swapped(A, B, C, D)
    t1, t2 = (smallest_arc(M).theta for M in (A.conj().T @ C, B.conj().T @ D))
    expected = 1 if max(t1, t2) >= np.pi else 2 * math.ceil(np.pi / (t1 + t2))
    assert scheme.case_trace == (["i-c"] if expected == 1 else ["i-c", "i-a"])
    assert report.query_count == expected
    assert report.passed and report.overlap <= scheme.budget <= CFG.overlap_tol
    return expected


@pytest.mark.parametrize("d", [2, 3, 4])
def test_swap_swap_queries_from_the_two_arcs(d):
    """Haar swapped products at d = 2, 3, 4 and the engineered family."""
    counts = [_check_swap_swap_queries(*(random_unitary(d, rng) for _ in range(4)))
              for rng in (np.random.default_rng([d, seed]) for seed in range(12))]
    counts += [_check_swap_swap_queries(*_identity_layer_fails(d_f, seed))
               for d_f, seed in IDENTITY_LAYER_FAILS if d_f == d]
    # a 2x2 arc reaches pi only at antipodal eigenvalues; at d = 3 the
    # draws take both branches
    if d == 3:
        assert min(counts) == 1 < max(counts)


def test_swap_swap_single_query_decomposes_twice(monkeypatch):
    """Pricing decomposes A^dag C and B^dag D once each, and the one-query
    scheme is built from the side taken."""
    calls = _count_decompositions(monkeypatch)
    P = swap_operator(3)
    scheme, report = _run(P, np.kron(_clock(3), _clock(3)) @ P, 3, 3)
    assert scheme.case_trace == ["i-c"] and report.query_count == 1
    assert len(calls) == 2


def test_swap_swap_arcs_summing_past_pi_take_two_queries():
    """Arcs 0.6 pi and 0.55 pi at d = 2: the closing rotation of the middle
    layer makes the endpoints antipodal, where matched order alone would
    wrap to an arc of 0.85 pi and take four queries."""
    rng = np.random.default_rng(31)
    A, B, Q, R = (random_unitary(2, rng) for _ in range(4))
    C = A @ Q @ np.diag([1, np.exp(0.6j * np.pi)]) @ Q.conj().T
    D = B @ R @ np.diag([1, np.exp(0.55j * np.pi)]) @ R.conj().T
    assert _check_swap_swap_queries(A, B, C, D) == 2


def test_swap_swap_arc_within_count_slack_of_pi_takes_one_query():
    """An arc a few 1e-12 below pi - TOL_ANGLE, where queries_for_arc says
    one query: i-c answers on that arc instead of through the middle layer."""
    theta = (np.pi - TOL_ANGLE) * (1 - 2e-13)
    P = swap_operator(2)
    scheme, report = _run(P, np.kron(np.diag([1, np.exp(1j * theta)]), I2) @ P)
    assert scheme.case_trace == ["i-c"]
    assert report.passed and report.query_count == 1


def test_corpus_swapped_pair_takes_two_queries():
    label, _, U, V = labeled_pairs()[9]
    scheme, report = discriminate(U, V, CFG)
    assert label == "i-c" and scheme.case_trace == ["i-c", "i-a"]
    assert report.passed and report.query_count == 2


def test_cnot_vs_local_fast_path():
    scheme, report = _run(CNOT, np.kron(HAD, HAD))
    assert scheme.case_trace == ["ii-a"]
    assert report.passed
    assert scheme.budget <= 1e-10  # controlled fast path involves no synthesis


def _controlled_phase_pair():
    """|0><0| (x) I + |1><1| (x) diag(1, e^{0.2 pi i}) against
    Va (x) diag(1, e^{0.25 pi i}): the B factor is 0.05 pi from block 1
    (20 queries) and 0.25 pi from block 0 (4 queries)."""
    P1 = np.diag([0, 1]).astype(complex)
    U = np.kron(I2 - P1, I2) + np.kron(P1, np.diag([1, np.exp(0.2j * np.pi)]))
    Va = random_unitary(2, np.random.default_rng(41))
    return U, np.kron(Va, np.diag([1, np.exp(0.25j * np.pi)]))


def test_control_branch_chosen_by_query_count():
    """The control branch goes to the fewest predicted queries: block 0
    closes in 4, block 1 in 20."""
    scheme, report = _run(*_controlled_phase_pair())
    assert scheme.case_trace == ["ii-a"]
    assert report.query_count == 4
    assert report.passed and report.overlap <= scheme.budget <= CFG.overlap_tol


@pytest.mark.parametrize("index, queries", [(10, 1), (20, 8)])
def test_corpus_control_branch_by_query_count(index, queries):
    """Corpus pairs 10 (ii-a) and 20 (iii-a, ending in ii-a) on the cheaper
    control branch; block 1 would take 2 and 912 queries, pair 20 with a
    budget of 1.2e-5, above overlap_tol."""
    *_, U, V = labeled_pairs()[index]
    scheme, report = discriminate(U, V, CFG)
    assert scheme.case_trace[-1] == "ii-a"
    assert report.query_count <= queries
    assert report.passed and scheme.budget <= CFG.overlap_tol


def test_control_branches_decomposed_once_each(monkeypatch):
    """Pricing decomposes each block's relative operator once, and the
    sequential engine starts from the branch taken."""
    calls = _count_decompositions(monkeypatch)
    scheme, report = _run(*_controlled_phase_pair())
    assert report.query_count == 4
    assert [M.shape for M in calls] == [(2, 2)] * 2


def test_control_branches_both_equivalent_raise_case_failure(monkeypatch):
    """When both control blocks are phase-equivalent to the B factor of
    f(V), the sequential engine raises Indistinguishable, wrapped with the
    case trace. Neither the fast path nor the synthesized target (G is not
    scalar) yields such blocks, so they are forced here."""
    monkeypatch.setattr(engine, "_controlled_template", lambda U, build: (
        CircuitTemplate(2, 2, [QUERY]), [[0], [1]], [SX, -SX], 0.0))
    with pytest.raises(CaseFailure) as exc:
        _run(CNOT, np.kron(HAD, SX))
    assert exc.value.case_trace == ["ii-a"]
    assert isinstance(exc.value.cause, Indistinguishable)


def test_queryless_synthesis_is_refused(monkeypatch):
    """At epsilon 0.5 synthesis accepts a controlled target with no query.
    The compile step refuses it, naming the target, the delta reached and
    epsilon, with the case trace that reached it, before a plan is built or
    verified."""
    rng = np.random.default_rng(5)
    U = _v(random_unitary(4, rng))
    V = _v(np.kron(random_unitary(2, rng), random_unitary(2, rng)))
    reached = []
    for name in ("_one_side", "verify_scheme"):
        monkeypatch.setattr(engine, name, lambda *args, name=name: reached.append(name))
    with pytest.raises(CaseFailure, match=r"controlled target synthesized with no query: "
                                          r"delta \S+ within epsilon 0.5") as exc:
        discriminate(U, V, RunConfig(epsilon=0.5))
    assert exc.value.case_trace == ["ii-a"]
    assert type(exc.value.cause) is SeqloccError
    assert reached == []


def test_cz_vs_swap_single_application():
    scheme, report = _run(CZ, swap_operator(2))
    assert scheme.case_trace == ["ii-b"]
    assert report.query_count == 1
    assert report.overlap <= 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_swapped_image_takes_the_product_swap_inputs(d):
    """A controlled U against (V_A (x) V_B) P: the controlled fast path is
    the bare query, so f(V) = V and i-b's closed form applies with
    U_A = I, giving inputs |0> and V_A^dag |1>."""
    if d == 2:
        U, V = CZ, swap_operator(2)
    else:
        rng = np.random.default_rng(2032)
        U = _two_block_controlled(rng, 3, 3)
        V = np.kron(random_unitary(3, rng), random_unitary(3, rng)) @ swap_operator(3)
    scheme, report = _run(U, V, d, d)
    assert scheme.case_trace == ["ii-b"]
    assert report.query_count == 1
    assert np.array_equal(scheme.input_a, basis_state(d, 0))
    expected_b = classify_primitive(_v(V, d, d)).factor_a.conj().T @ basis_state(d, 1)
    assert abs(np.vdot(expected_b, scheme.input_b)) >= 1.0 - 1e-12
    assert report.overlap <= 1e-12


def test_even_image_delegates_to_product_tail():
    rng = np.random.default_rng(0)
    V = np.kron(random_unitary(2, rng), random_unitary(2, rng)) @ swap_operator(2)
    scheme, report = _run(exp_xx_form(0.7, 2, 2).matrix, V)
    assert scheme.case_trace == ["ii-b", "ii-a"]
    assert report.passed


def test_cnot_vs_cz_descends():
    scheme, report = _run(CNOT, CZ)
    assert scheme.case_trace[0] == "iii"
    assert report.passed
    assert scheme.budget <= 1e-2


def test_rejects_phase_equivalent():
    with pytest.raises(Indistinguishable):
        _run(CNOT, np.exp(0.3j) * CNOT)


def test_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        discriminate(_v(CNOT, 2, 2), _v(np.eye(6), 2, 3), CFG)


def test_roles_swap_is_symmetric():
    scheme, report = _run(np.kron(HAD, HAD), CNOT)
    assert scheme.case_trace == ["ii-a"]
    assert report.passed


def test_verify_detects_tampering():
    # a two-point spectrum with arc 1.8 forces a nontrivial interleaver
    rng = np.random.default_rng(5)
    Q = random_unitary(2, rng)
    VA = Q @ np.diag([1, np.exp(1.8j)]) @ Q.conj().T
    U, V = np.kron(I2, I2), np.kron(VA, I2)
    scheme, report = _run(U, V)
    assert report.passed
    # replace one non-identity local layer with identity
    tampered_layers = []
    replaced = False
    for layer in scheme.template.layers:
        if isinstance(layer, LocalLayer) and not replaced \
                and not np.allclose(np.kron(layer.factor_a, layer.factor_b), np.eye(4)):
            tampered_layers.append(LocalLayer(np.eye(2, dtype=complex),
                                              np.eye(2, dtype=complex)))
            replaced = True
        else:
            tampered_layers.append(layer)
    assert replaced
    from seqlocc import CircuitTemplate, LoccSequentialScheme
    bad = LoccSequentialScheme(
        CircuitTemplate(2, 2, tampered_layers), scheme.input_a, scheme.input_b,
        scheme.achieved_overlap, scheme.budget, scheme.case_trace)
    rep = verify_scheme(bad, _v(U), _v(V))
    assert not rep.passed


def test_verify_scheme_dimension_mismatch_is_typed():
    """Operands that do not fit the template, or differ from each other,
    raise DimensionMismatch rather than a numpy error."""
    U, V = np.eye(4, dtype=complex), np.kron(np.diag([1, 1j]), I2)
    scheme, _ = _run(U, V)
    big = _v(np.eye(6, dtype=complex), 2, 3)
    raw = np.eye(6, dtype=complex)  # a bare array carries no dimensions to compare
    for u, v in ((big, _v(V)), (_v(U), big), (big, big), (raw, raw), (U, raw)):
        with pytest.raises(DimensionMismatch):
            verify_scheme(scheme, u, v, CFG)


def _count_decompositions(monkeypatch):
    """Matrices handed to eig_unitary from here on."""
    from seqlocc import arcs, sequential
    calls = []
    real = sequential.eig_unitary

    def counting(M):
        calls.append(M)
        return real(M)

    for module in (arcs, sequential):
        monkeypatch.setattr(module, "eig_unitary", counting)
    return calls


def test_lone_distinct_product_side_decomposed_twice(monkeypatch):
    """A product pair distinct on one side only decomposes that side's
    U^dag V once, and the sequential engine starts from it."""
    calls = _count_decompositions(monkeypatch)
    rng = np.random.default_rng(5)
    Q = random_unitary(2, rng)
    VA = Q @ np.diag([1, np.exp(1.1j)]) @ Q.conj().T
    scheme, report = _run(np.kron(I2, HAD), np.kron(VA, HAD))
    assert scheme.case_trace == ["i-a"]
    assert report.query_count == 3
    assert len(calls) == 1


def test_both_distinct_product_sides_decomposed_once_each(monkeypatch):
    """Pricing decomposes each side's U^dag V once, and the sequential
    engine starts from the side taken instead of decomposing it again."""
    calls = _count_decompositions(monkeypatch)
    rng = np.random.default_rng(6)
    UA, UB = random_unitary(3, rng), random_unitary(2, rng)
    QA, QB = random_unitary(3, rng), random_unitary(2, rng)
    VA = UA @ QA @ np.diag(np.exp([0, 0.2j, 0.4j])) @ QA.conj().T
    VB = UB @ QB @ np.diag(np.exp([0, 0.9j])) @ QB.conj().T
    scheme, report = _run(np.kron(UA, UB), np.kron(VA, VB), 3, 2)
    assert scheme.case_trace == ["i-a"]
    assert report.query_count == 4 and report.passed
    for X_u, X_v in ((UA, VA), (UB, VB)):
        # the extracted factors carry a phase each, so W is matched up to one
        W = X_u.conj().T @ X_v
        assert sum(M.shape == W.shape and op_distance_mod_phase(M, W) <= 1e-9
                   for M in calls) == 1
    assert len(calls) == 2


def test_product_sides_priced_at_tol_angle():
    """Side A's arc pi/2 - 5e-9 closes in 2 queries, since 2 theta reaches
    pi - TOL_ANGLE; pricing it at 3, like side B (arc 1.347), sent the pair
    to B and spent a query more."""
    VA = np.diag(np.exp(1j * np.array([0, 0, 0, 0, np.pi / 2 - 5e-9])))
    VB = np.diag([1, np.exp(1.347j)])
    scheme, report = _run(np.eye(10), np.kron(VA, VB), 5, 2)
    assert scheme.case_trace == ["i-a"]
    assert report.query_count == 2 and report.passed
    assert scheme.input_b == pytest.approx(basis_state(2, 0))


def test_scheme_locc_legality():
    scheme, _ = _run(CNOT, CZ)
    for layer in scheme.template.layers:
        if isinstance(layer, LocalLayer):
            wrapped = _v(np.kron(layer.factor_a, layer.factor_b) / 1.0)
            dec = operator_schmidt(wrapped)
            assert dec.rank(1e-10) == 1


def test_scheme_no_inverse_layers():
    scheme, _ = _run(CNOT, CZ)
    assert all(isinstance(l, (LocalLayer, Query)) for l in scheme.template.layers)


def test_budget_dominates_overlap():
    rng = np.random.default_rng(1)
    pairs = [
        (CNOT, CZ),
        (exp_xx_form(0.7, 2, 2).matrix, np.kron(random_unitary(2, rng), random_unitary(2, rng))),
        (np.kron(random_unitary(2, rng), random_unitary(2, rng)),
         np.kron(random_unitary(2, rng), random_unitary(2, rng))),
    ]
    for U, V in pairs:
        scheme, report = _run(U, V)
        assert report.overlap <= scheme.budget + 1e-12


def test_deterministic_bytes():
    a, _ = _run(CNOT, CZ)
    b, _ = _run(CNOT, CZ)
    assert dumps_scheme(a) == dumps_scheme(b)


def test_controlled_form_extraction():
    got = _controlled_form(CNOT, 2, 2)
    assert got is not None
    groups, blocks = got
    assert groups == [[0], [1]]
    assert np.allclose(blocks[0], np.eye(2))
    assert np.allclose(blocks[1], np.array([[0, 1], [1, 0]]))
    assert _controlled_form(swap_operator(2), 2, 2) is None
    # a controlled operator with three distinct blocks is not two-block form
    M = np.zeros((6, 6), dtype=complex)
    for a, phase in enumerate([1, 1j, -1]):
        M[a * 2:(a + 1) * 2, a * 2:(a + 1) * 2] = phase * np.eye(2)
    assert _controlled_form(M, 3, 2) is None


def test_image_factors_track_swap_parity():
    rng = np.random.default_rng(2)
    fa, fb = random_unitary(2, rng), random_unitary(2, rng)
    t = CircuitTemplate(2, 2, [QUERY])
    MA, MB, parity = _image_factors(t, fa, fb, swaps=True)
    assert parity == 1
    V = np.kron(fa, fb) @ swap_operator(2)
    assert np.allclose(np.kron(MA, MB) @ swap_operator(2), V)
    t2 = CircuitTemplate(2, 2, [QUERY, QUERY])
    MA, MB, parity = _image_factors(t2, fa, fb, swaps=True)
    assert parity == 0
    assert np.allclose(np.kron(MA, MB), V @ V)


def test_generic_entangling_pair_descends_and_verifies():
    rng = np.random.default_rng(4)
    U = validate_unitary(random_unitary(4, rng), 2, 2)
    V = validate_unitary(random_unitary(4, rng), 2, 2)
    scheme, report = discriminate(U, V, CFG)
    assert report.passed
    # the case iii label and subcase, then the label of the one inner pair
    assert len(scheme.case_trace) <= 3
    # recorded per-branch deviations never exceed the total budget
    assert all(e <= scheme.budget + 1e-12 for e in report.per_branch_error)


def test_primitive_image_descends_to_mixed_case():
    """Both operands entangling, but the image of V under the synthesized
    template is a plain product: the engine must descend to the
    controlled-vs-product case."""
    from corpus import _forced_image_partners, _interaction_base
    U, locals_ = _interaction_base(1000)
    V = _forced_image_partners(U, locals_, np.kron(HAD, HAD))[0]
    scheme, report = discriminate(U, V, CFG)
    assert scheme.case_trace[:2] == ["iii", "ii-a"]
    assert report.passed


def test_primitive_image_classified_once(monkeypatch):
    """The mixed descent hands the image's classification to the dispatch.
    U, V and the interaction exponential entangle |0...0>, so the primitive
    image f(V) is the one operand classified."""
    from corpus import _forced_image_partners, _interaction_base
    U, locals_ = _interaction_base(1000)
    V = _forced_image_partners(U, locals_, np.kron(HAD, HAD))[0]
    calls = []
    real = engine.classify_primitive
    monkeypatch.setattr(engine, "classify_primitive",
                        lambda X: calls.append(X) or real(X))
    scheme, _ = discriminate(U, V, CFG)
    assert scheme.case_trace[:2] == ["iii", "ii-a"]
    assert len(calls) == 1


def test_2x3_controlled_fast_path():
    rng = np.random.default_rng(3)
    W3 = random_unitary(3, rng)
    U = np.zeros((6, 6), dtype=complex)
    U[:3, :3] = np.eye(3)
    U[3:, 3:] = W3
    V = np.kron(random_unitary(2, rng), random_unitary(3, rng))
    scheme, report = _run(U, V, 2, 3)
    assert scheme.case_trace == ["ii-a"]
    assert report.passed


def _near(M, seed, scale=2e-10):
    """M times expm(i scale H) for a random Hermitian H: inside the 1e-9
    tolerance at which the fast paths accept an operand, but not exact."""
    rng = np.random.default_rng(seed)
    H = rng.normal(size=M.shape) + 1j * rng.normal(size=M.shape)
    return M @ scipy.linalg.expm(0.5j * scale * (H + H.conj().T))


def test_controlled_fast_path_budget_covers_deviation():
    C = np.kron(np.diag([1, 0]), I2) + np.kron(np.diag([0, 1]), np.diag([1, np.exp(0.3j)]))
    rng = np.random.default_rng(5)
    scheme, report = _run(_near(C, 5), np.kron(random_unitary(2, rng), random_unitary(2, rng)))
    assert scheme.case_trace == ["ii-a"]
    assert report.overlap > 1e-11  # the deviation is visible in the overlap
    assert report.passed


def test_interaction_fast_path_reports_deviation():
    target = exp_xx_form(1.0, 2, 2)
    U = _v(_near(target.matrix, 7))
    f_template, _, delta = engine._compile(engine._Build(CFG), U, target, "interaction target")
    assert f_template.query_count == 1
    assert delta == op_distance_mod_phase(U.matrix, target.matrix) > 0


def _first_local(scheme):
    return next(layer for layer in scheme.template.layers if isinstance(layer, LocalLayer))


def _zero_factor(scheme):
    _first_local(scheme).factor_a = np.zeros((2, 2), dtype=complex)


def _scaled_factor(scheme):
    _first_local(scheme).factor_b = 2.0 * _first_local(scheme).factor_b


def _nan_factor(scheme):
    _first_local(scheme).factor_a = np.full((2, 2), np.nan, dtype=complex)


def _zero_input(scheme):
    scheme.input_a = np.zeros_like(scheme.input_a)


def _scaled_input(scheme):
    scheme.input_b = 1.5 * scheme.input_b


def _long_input(scheme):
    scheme.input_a = np.append(scheme.input_a, 0.0)


def _dense_layer(scheme):
    """A full 4x4 matrix in a local's place: not a product layer."""
    scheme.template.layers[2] = np.eye(4, dtype=complex)


def _wrong_shape_factor(scheme):
    _first_local(scheme).factor_a = np.eye(3, dtype=complex)


def _adjacent_queries(scheme):
    scheme.template.layers.insert(1, QUERY)


def _no_trailing_local(scheme):
    scheme.template.layers.pop()


FORGERIES = [(_zero_factor, NotUnitary), (_scaled_factor, NotUnitary), (_nan_factor, NotUnitary),
             (_zero_input, MalformedScheme), (_scaled_input, MalformedScheme),
             (_long_input, MalformedScheme), (_dense_layer, MalformedScheme),
             (_wrong_shape_factor, MalformedScheme), (_adjacent_queries, MalformedScheme),
             (_no_trailing_local, MalformedScheme)]


@pytest.mark.parametrize("forge, error", FORGERIES)
def test_verify_scheme_rejects_forged(forge, error):
    U, V = np.eye(4, dtype=complex), np.kron(np.diag([1, 1j]), I2)
    scheme, report = _run(U, V)
    assert report.passed and report.query_count == 2
    forged = copy.deepcopy(scheme)
    forge(forged)
    with pytest.raises(error):
        verify_scheme(forged, _v(U), _v(V), CFG)


def _locals(scheme):
    return [layer for layer in scheme.template.layers if isinstance(layer, LocalLayer)]


@pytest.mark.parametrize("side", ["factor_a", "factor_b"])
def test_one_non_unitary_factor_is_refused_with_its_defect(side):
    """The screen over both sides fails, and the per-side check refuses the
    one factor off unitarity, on either side, with its SVD defect."""
    scheme, _ = _run(np.eye(4, dtype=complex), np.kron(np.diag([1, 1j]), I2))
    layer = _locals(scheme)[1]
    F = np.diag([1.01, 1.0]) @ getattr(layer, side)
    setattr(layer, side, F)
    with pytest.raises(NotUnitary) as err:
        verify_scheme(scheme, _v(np.eye(4)), _v(np.kron(np.diag([1, 1j]), I2)), CFG)
    assert err.value.defect == unitarity_defect(F)


def test_factors_under_tol_that_fail_the_screen_pass():
    """One factor per side at a defect of 0.8 tol: the screen sum, 1.28 tol^2,
    fails, so the per-side check runs, and passes each factor."""
    U, V = np.eye(4, dtype=complex), np.kron(np.diag([1, 1j]), I2)
    scheme, _ = _run(U, V)
    tol = CFG.unitarity_tol
    first, last = _locals(scheme)[0], _locals(scheme)[-1]
    first.factor_a = first.factor_a @ np.diag([np.sqrt(1 + 0.8 * tol), 1.0])
    last.factor_b = last.factor_b @ np.diag([np.sqrt(1 + 0.8 * tol), 1.0])
    grams = [F.conj().T @ F - np.eye(2) for F in (first.factor_a, last.factor_b)]
    assert sum(np.linalg.norm(G) ** 2 for G in grams) > tol ** 2
    assert all(unitarity_defect(F) <= tol for F in (first.factor_a, last.factor_b))
    verify_scheme(scheme, _v(U), _v(V), CFG)


@pytest.mark.parametrize("scale", [0.9, 1.1])
def test_a_factor_at_the_screen_boundary_keeps_the_operator_norm_verdict(scale):
    """A factor whose defect scale * tol sits on both singular values of
    F^dag F - I, so its Frobenius norm is about 1.3 scale * tol: at 0.9 tol
    the screen fails and validate_scheme accepts, at 1.1 tol NotUnitary carries
    unitarity_defect(F), ==."""
    U, V = np.eye(4, dtype=complex), np.kron(np.diag([1, 1j]), I2)
    scheme, _ = _run(U, V)
    tol = CFG.unitarity_tol
    layer = _locals(scheme)[1]
    F = layer.factor_a @ np.diag(np.sqrt(1.0 + scale * tol * np.array([1.0, 0.9])))
    layer.factor_a = F
    assert unitarity_defect(F) == pytest.approx(scale * tol, rel=1e-6)
    assert np.linalg.norm(F.conj().T @ F - np.eye(2)) > tol
    if scale < 1:
        validate_scheme(scheme, tol)
        return
    with pytest.raises(NotUnitary) as err:
        validate_scheme(scheme, tol)
    assert err.value.defect == unitarity_defect(F)


def test_nan_factor_is_an_infinite_defect():
    scheme, _ = _run(np.eye(4, dtype=complex), np.kron(np.diag([1, 1j]), I2))
    _locals(scheme)[-1].factor_b = np.full((2, 2), np.nan, dtype=complex)
    with pytest.raises(NotUnitary) as err:
        verify_scheme(scheme, _v(np.eye(4)), _v(np.kron(np.diag([1, 1j]), I2)), CFG)
    assert err.value.defect == np.inf


def test_iii_a_budget_invariant_raises_case_failure(monkeypatch):
    """A probe composite farther from the identity than the synthesis bound
    allows is a typed failure carrying the case trace, not an assert."""
    real = engine.op_distance_mod_phase

    def inflated(A, B):
        b = np.asarray(B)
        return 1.0 if np.allclose(b, np.eye(b.shape[0])) else real(A, B)

    monkeypatch.setattr(engine, "op_distance_mod_phase", inflated)
    rng = np.random.default_rng(8)
    with pytest.raises(CaseFailure) as err:
        discriminate(exp_xx_form(1.0, 2, 2), _v(random_unitary(4, rng)), CFG)
    assert err.value.case_trace == ["iii", "iii-a"]


def test_iii_a_without_a_separating_probe_raises_case_failure(monkeypatch):
    """V = e^{0.3i} exp(0.5 i u1 (x) u2) against U = exp(i u1 (x) u2) routes
    iii-b-xne1; with the angle match withheld it reaches iii-a, where every
    symmetry probe inverts the exponential and maps f(V) to e^{0.6i} I."""
    U, V = exp_xx_form(1.0, 2, 2), _v(np.exp(0.3j) * exp_xx_form(0.5, 2, 2).matrix)
    assert discriminate(U, V, CFG)[0].case_trace == ["iii", "iii-b-xne1"]
    monkeypatch.setattr(engine, "match_exp_xx_mod_phase", lambda *args, **kwargs: None)
    with pytest.raises(CaseFailure) as err:
        discriminate(U, V, CFG)
    assert err.value.case_trace == ["iii", "iii-a"]
    assert type(err.value.cause) is SeqloccError
    assert str(err.value.cause) == "no symmetry element separated the image of V from the identity"


# --- primitive operands within RANK_TOL of their form -------------------------

def _near_product(rng, d_a, d_b, eps, swapped=False):
    """(A (x) B) P^swapped exp(i eps G) for the interaction generator G:
    exactly unitary, and within RANK_TOL of its classified form for these eps."""
    M = np.kron(random_unitary(d_a, rng), random_unitary(d_b, rng))
    if swapped:
        M = M @ swap_operator(d_a)
    return M @ exp_xx_form(eps, d_a, d_b).matrix


@pytest.mark.parametrize("eps", [1e-9, 1e-8, 5e-8])
@pytest.mark.parametrize("d_a, d_b, swapped_v, label", [
    (2, 2, False, "i-a"), (2, 3, False, "i-a"), (2, 2, True, "i-b"), (3, 3, True, "i-b")])
def test_near_product_deviation_charged(eps, d_a, d_b, swapped_v, label):
    """i-a and i-b build on the extracted factors; the operand's distance from
    them is charged per use, so the verified overlap stays within budget."""
    rng = np.random.default_rng(int(eps * 1e10) + d_b)
    U = _near_product(rng, d_a, d_b, eps)
    V = np.kron(random_unitary(d_a, rng), random_unitary(d_b, rng))
    if swapped_v:
        V = V @ swap_operator(d_a)
    assert classify_primitive(_v(U, d_a, d_b)).kind == "Product"
    scheme, report = _run(U, V, d_a, d_b)
    assert scheme.case_trace == [label]
    assert report.passed
    assert scheme.budget >= eps * report.query_count


@pytest.mark.parametrize("eps", [1e-9, 1e-8, 5e-8])
def test_near_swap_product_deviation_charged_twice_per_block(eps):
    rng = np.random.default_rng(int(eps * 1e10))
    U = _near_product(rng, 2, 2, eps, swapped=True)
    V = np.kron(random_unitary(2, rng), random_unitary(2, rng)) @ swap_operator(2)
    scheme, report = _run(U, V)
    assert scheme.case_trace == ["i-c", "i-a"]
    assert report.passed
    assert scheme.budget >= eps * report.query_count


# --- engine properties beyond 2x2 -------------------------------------------

ENGINE_PROPERTIES = settings(
    max_examples=3, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])


def _two_block_controlled(rng, d_a, d_b):
    """sum_a |a><a| (x) W_g(a) with two distinct blocks, both groups nonempty."""
    blocks = [random_unitary(d_b, rng) for _ in range(2)]
    groups = rng.permutation([0, 1] + list(rng.integers(0, 2, size=d_a - 2)))
    return sum(np.kron(np.diag(np.eye(d_a)[a]), blocks[g]) for a, g in enumerate(groups))


def _check_engine_scheme(U, V, d_a, d_b, label):
    scheme, report = _run(U, V, d_a, d_b)
    assert label in scheme.case_trace
    assert all(isinstance(layer, (LocalLayer, Query)) for layer in scheme.template.layers)
    validate_scheme(scheme, CFG.unitarity_tol)
    for v, d in ((scheme.input_a, d_a), (scheme.input_b, d_b)):
        assert v.shape == (d,) and abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert report.passed and report.overlap <= scheme.budget + 1e-12
    again, again_report = _run(U, V, d_a, d_b)
    assert dumps_scheme(again, again_report) == dumps_scheme(scheme, report)


@pytest.mark.parametrize("d_a, d_b", [(2, 3), (3, 2), (3, 3)])
@ENGINE_PROPERTIES
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_controlled_vs_product_properties(d_a, d_b, seed):
    rng = np.random.default_rng(seed)
    U = _two_block_controlled(rng, d_a, d_b)
    V = np.kron(random_unitary(d_a, rng), random_unitary(d_b, rng))
    _check_engine_scheme(U, V, d_a, d_b, "ii-a")


@ENGINE_PROPERTIES
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_controlled_vs_swapped_product_properties(seed):
    rng = np.random.default_rng(seed)
    U = _two_block_controlled(rng, 3, 3)
    V = np.kron(random_unitary(3, rng), random_unitary(3, rng)) @ swap_operator(3)
    _check_engine_scheme(U, V, 3, 3, "ii-b")


@pytest.mark.parametrize("d_a, d_b", [(2, 3), (3, 2), (3, 3)])
@ENGINE_PROPERTIES
@given(x=st.floats(1.2, 2.8), phase=st.floats(-np.pi, np.pi))
def test_interaction_exponentials_properties(d_a, d_b, x, phase):
    """exp_xx(1) against e^{i phase} exp_xx(x), x away from 1 mod pi."""
    V = np.exp(1j * phase) * exp_xx_form(x, d_a, d_b).matrix
    _check_engine_scheme(exp_xx_form(1.0, d_a, d_b).matrix, V, d_a, d_b, "iii-b-xne1")


_ARC_LADDER_SHAPES = [(a, b) for a in range(2, 6) for b in range(2, 6) if a * b <= 16]


def _arc_factor(d, theta, rng):
    """Q diag(e^{i phi}) Q^dag with phi spanning exactly [0, theta]."""
    phi = np.concatenate([[0.0, theta], rng.uniform(0.0, theta, d - 2)])
    Q = random_unitary(d, rng)
    return (Q * np.exp(1j * phi)) @ Q.conj().T


@pytest.mark.parametrize("sides", ["one-sided", "two-sided"])
@pytest.mark.parametrize("d_a,d_b", _ARC_LADDER_SHAPES)
def test_product_pairs_at_every_arc_ladder_shape(d_a, d_b, sides):
    """i-a at each product shape the benchmark's arc-ladder draws: the
    trace, the cheaper side's ceil(pi / Theta) queries, a passing verify and
    a byte-identical rerun. Arcs are pi / (k + 1/2), away from count changes."""
    rng = np.random.default_rng(3600 + 10 * d_a + d_b)
    UA, UB = random_unitary(d_a, rng), random_unitary(d_b, rng)
    theta_a = np.pi / (rng.integers(1, 5) + 0.5)
    VA = UA @ _arc_factor(d_a, theta_a, rng)
    if sides == "two-sided":
        VB = UB @ _arc_factor(d_b, np.pi / (rng.integers(1, 5) + 0.5), rng)
    else:
        VB = np.exp(1j * rng.uniform(0.0, 2 * np.pi)) * UB
    U, V = _v(np.kron(UA, UB), d_a, d_b), _v(np.kron(VA, VB), d_a, d_b)
    expected = min(queries_for_arc(smallest_arc(dagger(X) @ Y).theta)
                   for X, Y in ((UA, VA), (UB, VB)) if phase_distance(X, Y) > DISTINCT_TOL)
    scheme, report = discriminate(U, V, CFG)
    assert scheme.case_trace == ["i-a"]
    assert report.query_count == expected
    assert verify_scheme(scheme, U, V, CFG).passed
    assert dumps_scheme(*discriminate(U, V, CFG)) == dumps_scheme(scheme, report)


@pytest.mark.parametrize("d_a,d_b", _ARC_LADDER_SHAPES + [(2, 8)])
def test_idle_product_side_skips_the_extended_trace(d_a, d_b, monkeypatch):
    """A one-sided product pair's idle side, V_B = e^{i phi} U_B, is decided
    on the float64 trace at every arc-ladder shape, so discriminate reads
    no extended trace. At d_b = 8 the trace's rounding bound is above
    DISTINCT_TOL^2, and the idle side still reads it once."""
    calls = []
    extended = linalg._extended_distance
    monkeypatch.setattr(linalg, "_extended_distance",
                        lambda a, b: calls.append(a.shape) or extended(a, b))
    rng = np.random.default_rng(3700 + 10 * d_a + d_b)
    UA, UB = random_unitary(d_a, rng), random_unitary(d_b, rng)
    VA = UA @ _arc_factor(d_a, np.pi / (rng.integers(1, 5) + 0.5), rng)
    VB = np.exp(1j * rng.uniform(0.0, 2 * np.pi)) * UB
    U, V = _v(np.kron(UA, UB), d_a, d_b), _v(np.kron(VA, VB), d_a, d_b)
    scheme, report = discriminate(U, V, CFG)
    assert scheme.case_trace == ["i-a"] and report.passed
    assert calls == ([] if d_b <= 6 else [(d_b, d_b)])


def _near_phase(X, eps, rng):
    """e^{i phi} X expm(i eps H) for a Hermitian H scaled so that the phase
    distance to X is eps to first order."""
    n = X.shape[0]
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h, Q = np.linalg.eigh(G + G.conj().T)
    h /= np.sqrt(np.var(h) / 2.0)
    return np.exp(1j * rng.uniform(0.0, 2 * np.pi)) * X @ (Q * np.exp(1j * eps * h)) @ Q.conj().T


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_cheapest_prices_as_phase_distance_does(n, monkeypatch):
    """Pairs e^{i phi} X expm(i eps H), the distance eps swept across
    DISTINCT_TOL, alone and two at a time: deciding idle sides on the
    float64 trace, _cheapest returns the count and decompositions it
    returns with phase_distance, and the key wherever a side is priced
    (between inf sides the gap breaking the tie may differ). The float64
    trace decides some sides at n <= 6 and none at n = 8."""
    rng = np.random.default_rng(3800 + n)
    factors = np.array([0.0, 0.1, 0.3, 0.5, 0.8, 0.9, 0.95, 0.99, 1.01, 1.05, 1.1, 1.5, 2.0])
    pairs = []
    for f in factors:
        X = random_unitary(n, rng)
        pairs.append((X, _near_phase(X, f * DISTINCT_TOL, rng)))
    extended = linalg._extended_distance
    skipped = 0
    for X, Y in pairs:
        calls = []
        monkeypatch.setattr(linalg, "_extended_distance",
                            lambda a, b: calls.append(1) or extended(a, b))
        gap = linalg._phase_gap(X, Y, DISTINCT_TOL)
        monkeypatch.setattr(linalg, "_extended_distance", extended)
        skipped += not calls
        distance = phase_distance(X, Y)
        assert (gap > DISTINCT_TOL) == (distance > DISTINCT_TOL)
        if distance > DISTINCT_TOL or calls:
            assert gap == distance
    assert (skipped > 0) == (n <= 6)
    for i, j in [(i, j) for i in range(len(pairs)) for j in range(len(pairs)) if i != j][::7]:
        sides = {"A": pairs[i], "B": pairs[j]}
        key, count, spectra = engine._cheapest(sides)
        with monkeypatch.context() as mp:
            mp.setattr(engine, "_phase_gap", lambda U, V, tol: phase_distance(U, V))
            ref_key, ref_count, ref_spectra = engine._cheapest(sides)
        assert count == ref_count and spectra.keys() == ref_spectra.keys()
        for k in spectra:
            assert spectra[k][1].theta == ref_spectra[k][1].theta
        if count < math.inf:
            assert key == ref_key
