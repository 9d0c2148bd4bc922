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
    basis_state,
    classify_primitive,
    discriminate,
    evaluate_template,
    exp_xx_form,
    op_distance_mod_phase,
    operator_schmidt,
    phase_distance,
    random_unitary,
    smallest_arc,
    swap_operator,
    validate_unitary,
    verify_scheme,
)
from seqlocc import engine
from seqlocc.engine import _controlled_form, _image_factors
from seqlocc.io import dumps_scheme
from seqlocc.templates import bare_query_template, check_local_unitarity

from conftest import CNOT, CZ, HAD, I2, SZ
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
    assert phase_distance(np.kron(A @ B, B @ A), np.kron(C @ D, D @ C)) <= CFG.distinct_tol
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


def test_swap_swap_arcs_summing_past_pi_take_two_queries():
    """Arcs 0.6 pi and 0.55 pi at d = 2: the closing rotation of the middle
    layer makes the endpoints antipodal, where matched order alone would
    wrap to an arc of 0.85 pi and take four queries."""
    rng = np.random.default_rng(31)
    A, B, Q, R = (random_unitary(2, rng) for _ in range(4))
    C = A @ Q @ np.diag([1, np.exp(0.6j * np.pi)]) @ Q.conj().T
    D = B @ R @ np.diag([1, np.exp(0.55j * np.pi)]) @ R.conj().T
    assert _check_swap_swap_queries(A, B, C, D) == 2


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


def test_cz_vs_swap_single_application():
    scheme, report = _run(CZ, swap_operator(2))
    assert scheme.case_trace == ["ii-b"]
    assert report.query_count == 1
    assert report.overlap <= 1e-10


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
                and not np.allclose(layer.matrix(), np.eye(4)):
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
    for u, v in ((big, _v(V)), (_v(U), big), (big, big)):
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
    """A product pair distinct on one side only takes that side unpriced:
    the sequential engine's two decompositions are all it costs."""
    calls = _count_decompositions(monkeypatch)
    rng = np.random.default_rng(5)
    Q = random_unitary(2, rng)
    VA = Q @ np.diag([1, np.exp(1.1j)]) @ Q.conj().T
    scheme, report = _run(np.kron(I2, HAD), np.kron(VA, HAD))
    assert scheme.case_trace == ["i-a"]
    assert report.query_count == 3
    assert len(calls) == 2


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
    assert len(calls) == 3


def test_product_sides_priced_at_tol_angle():
    """Side A's arc pi/2 - 5e-9 closes in 2 queries, since 2 theta reaches
    pi - tol_angle; pricing it at 3, like side B (arc 1.347), sent the pair
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
            wrapped = _v(layer.matrix() / 1.0)
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
    t = bare_query_template(2, 2, 1)
    MA, MB, parity = _image_factors(t, fa, fb, swaps=True)
    assert parity == 1
    V = np.kron(fa, fb) @ swap_operator(2)
    assert np.allclose(np.kron(MA, MB) @ swap_operator(2), V)
    t2 = bare_query_template(2, 2, 2)
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
    """The mixed descent hands the image's classification to the dispatch:
    U, V, f(V) and the interaction exponential, four calls."""
    from corpus import _forced_image_partners, _interaction_base
    U, locals_ = _interaction_base(1000)
    V = _forced_image_partners(U, locals_, np.kron(HAD, HAD))[0]
    calls = []
    real = engine.classify_primitive
    monkeypatch.setattr(engine, "classify_primitive",
                        lambda X, tol: calls.append(X) or real(X, tol))
    scheme, _ = discriminate(U, V, CFG)
    assert scheme.case_trace[:2] == ["iii", "ii-a"]
    assert len(calls) == 4


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
    target = exp_xx_form(1.0, 2, 2).matrix
    U = _v(_near(target, 7))
    f_template, _, delta = engine._xx_template(U, engine._Build(CFG))
    assert f_template.query_count == 1
    assert delta == op_distance_mod_phase(U.matrix, target) > 0


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


FORGERIES = [(_zero_factor, NotUnitary), (_scaled_factor, NotUnitary), (_nan_factor, NotUnitary),
             (_zero_input, MalformedScheme), (_scaled_input, MalformedScheme),
             (_long_input, MalformedScheme)]


@pytest.mark.parametrize("forge, error", FORGERIES)
def test_verify_scheme_rejects_forged(forge, error):
    U, V = np.eye(4, dtype=complex), np.kron(np.diag([1, 1j]), I2)
    scheme, report = _run(U, V)
    assert report.passed and report.query_count == 2
    forged = copy.deepcopy(scheme)
    forge(forged)
    with pytest.raises(error):
        verify_scheme(forged, _v(U), _v(V), CFG)


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


# --- primitive operands within rank_tol of their form -------------------------

def _near_product(rng, d_a, d_b, eps, swapped=False):
    """(A (x) B) P^swapped exp(i eps G) for the interaction generator G:
    exactly unitary, and within rank_tol of its classified form for these eps."""
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
    check_local_unitarity(scheme.template, CFG.unitarity_tol)
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
