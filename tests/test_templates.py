import warnings

import numpy as np
import pytest

from seqlocc import (
    CircuitTemplate,
    LocalLayer,
    QUERY,
    Query,
    compose_templates,
    dumps_template,
    evaluate_template,
    loads_template,
    random_unitary,
    swap_operator,
    unitarity_defect,
)
from seqlocc.errors import DimensionMismatch, MalformedScheme, NotUnitary
from seqlocc.linalg import _unitarity_defect
from seqlocc.templates import _factor_stacks, _propagate, identity_local

from conftest import CNOT, HAD, SX, SZ


def _outputs(t, X, a, b):
    """Outputs of t on the product input a (x) b, one row per operand of the
    (m, n, n) stack X: the propagation kernel behind verify_scheme."""
    n = t.dim
    psi = np.broadcast_to(np.outer(a, b).reshape(n, 1), (len(X), n, 1))
    return _propagate(_factor_stacks(t), X, psi)


def _local(rng, d_a=2, d_b=2):
    return LocalLayer(random_unitary(d_a, rng), random_unitary(d_b, rng))


def test_zero_query_template_is_its_local():
    rng = np.random.default_rng(0)
    L = _local(rng)
    t = CircuitTemplate(2, 2, [L])
    assert t.query_count == 0
    assert np.allclose(evaluate_template(t, CNOT), np.kron(L.factor_a, L.factor_b))


def test_bare_query_evaluates_to_operand():
    t = CircuitTemplate(2, 2, [QUERY])
    assert np.allclose(evaluate_template(t, CNOT), CNOT)


def test_application_order():
    # layers listed first are applied first: matrix product reverses
    A = LocalLayer(HAD, np.eye(2, dtype=complex))
    B = LocalLayer(np.eye(2, dtype=complex), SX)
    t = CircuitTemplate(2, 2, [A, QUERY, B])
    X = np.diag([1, 1j, -1, -1j]).astype(complex)
    assert np.allclose(evaluate_template(t, X),
                       np.kron(B.factor_a, B.factor_b) @ X @ np.kron(A.factor_a, A.factor_b))


def test_swap_conjugation_algebra():
    """f(X) = X (u x v) X evaluated at (A x B) P equals A v B (x) B u A."""
    rng = np.random.default_rng(1)
    u, v = random_unitary(2, rng), random_unitary(2, rng)
    A, B = random_unitary(2, rng), random_unitary(2, rng)
    t = CircuitTemplate(2, 2, [QUERY, LocalLayer(u, v), QUERY])
    X = np.kron(A, B) @ swap_operator(2)
    expected = np.kron(A @ v @ B, B @ u @ A)
    assert np.linalg.norm(evaluate_template(t, X) - expected) <= 1e-12


def test_compose_identity_outer():
    rng = np.random.default_rng(2)
    inner = CircuitTemplate(2, 2, [_local(rng), QUERY, _local(rng)])
    outer = CircuitTemplate(2, 2, [QUERY])
    flat = compose_templates(outer, inner)
    X = random_unitary(4, rng)
    assert np.allclose(evaluate_template(flat, X), evaluate_template(inner, X))


def test_compose_doubles_query_count():
    rng = np.random.default_rng(3)
    inner = CircuitTemplate(2, 2, [QUERY, _local(rng), QUERY])
    outer = CircuitTemplate(2, 2, [QUERY, _local(rng), QUERY])
    flat = compose_templates(outer, inner)
    assert flat.query_count == 2 * inner.query_count


@pytest.mark.parametrize("seed", range(5))
def test_compose_equals_double_evaluation(seed):
    rng = np.random.default_rng(seed)
    inner = CircuitTemplate(2, 2, [_local(rng), QUERY, _local(rng), QUERY, _local(rng)])
    outer = CircuitTemplate(2, 2, [_local(rng), QUERY, _local(rng), QUERY, _local(rng)])
    flat = compose_templates(outer, inner)
    X = random_unitary(4, rng)
    direct = evaluate_template(outer, evaluate_template(inner, X))
    assert np.linalg.norm(evaluate_template(flat, X) - direct) <= 1e-12


def test_flattening_merges_adjacent_locals():
    rng = np.random.default_rng(6)
    inner = CircuitTemplate(2, 2, [_local(rng), QUERY, _local(rng)])
    outer = CircuitTemplate(2, 2, [_local(rng), QUERY, _local(rng), QUERY, _local(rng)])
    flat = compose_templates(outer, inner)
    kinds = [isinstance(l, Query) for l in flat.layers]
    # strict alternation: local, query, local, query, local
    assert kinds == [False, True, False, True, False]


def test_evaluation_stays_unitary():
    rng = np.random.default_rng(7)
    t = CircuitTemplate(2, 2, [_local(rng), QUERY, _local(rng), QUERY, _local(rng)])
    assert unitarity_defect(evaluate_template(t, random_unitary(4, rng))) <= 1e-10


def test_interleaved_queries_match_chain():
    rng = np.random.default_rng(8)
    ws = [LocalLayer(random_unitary(2, rng), np.eye(2, dtype=complex)) for _ in range(3)]
    t = CircuitTemplate(2, 2, [QUERY, ws[0], QUERY, ws[1], QUERY, ws[2], QUERY])
    assert t.query_count == 4
    X = random_unitary(4, rng)
    L = [np.kron(w.factor_a, w.factor_b) for w in ws]
    expected = X @ L[2] @ X @ L[1] @ X @ L[0] @ X
    assert np.linalg.norm(evaluate_template(t, X) - expected) <= 1e-12
    # random factors on both sides of unequal dimensions, against an explicit
    # np.kron chain: a swap of the A and B roles in the layer product shows
    for d_a, d_b in ((2, 3), (3, 2), (3, 3)):
        for k in (0, 1, 12):
            t = _random_template(rng, d_a, d_b, k)
            X = random_unitary(d_a * d_b, rng)
            expected = np.kron(t.layers[0].factor_a, t.layers[0].factor_b)
            for layer in t.layers[2::2]:
                expected = np.kron(layer.factor_a, layer.factor_b) @ X @ expected
            assert np.linalg.norm(evaluate_template(t, X) - expected) <= 1e-12
            a, b = _random_state(rng, d_a), _random_state(rng, d_b)
            out = _outputs(t, X[None], a, b)[0]
            assert np.linalg.norm(out - expected @ np.kron(a, b)) <= 1e-12


def test_extending_layers_by_a_query():
    rng = np.random.default_rng(9)
    t = CircuitTemplate(2, 2, [QUERY])
    t2 = CircuitTemplate(2, 2, [*t.layers, QUERY, identity_local(2, 2)])
    X = random_unitary(4, rng)
    assert np.allclose(evaluate_template(t2, X), X @ X)


def test_no_inverse_representation():
    """The layer vocabulary has exactly two kinds; nothing can encode an
    inverted query."""
    rng = np.random.default_rng(10)
    t = CircuitTemplate(2, 2, [_local(rng), QUERY, _local(rng), QUERY, _local(rng)])
    flat = compose_templates(t, CircuitTemplate(2, 2, [QUERY]))
    for layer in flat.layers:
        assert isinstance(layer, (LocalLayer, Query))
    data = loads_template(dumps_template(flat))
    for rec in [l for l in data.layers]:
        assert isinstance(rec, (LocalLayer, Query))


def test_serialization_bit_exact_round_trip():
    rng = np.random.default_rng(11)
    t = CircuitTemplate(2, 3, [
        LocalLayer(random_unitary(2, rng), random_unitary(3, rng)),
        QUERY,
        LocalLayer(random_unitary(2, rng), random_unitary(3, rng)),
    ])
    text = dumps_template(t)
    back = loads_template(text)
    for a, b in zip(t.layers, back.layers):
        if isinstance(a, LocalLayer):
            assert np.array_equal(a.factor_a, b.factor_a)
            assert np.array_equal(a.factor_b, b.factor_b)
    assert dumps_template(back) == text


def test_dimension_checks():
    rng = np.random.default_rng(12)
    t = CircuitTemplate(2, 2, [QUERY])
    with pytest.raises(DimensionMismatch):
        evaluate_template(t, np.eye(6))
    with pytest.raises(DimensionMismatch):
        compose_templates(t, CircuitTemplate(2, 3, [QUERY]))
    with pytest.raises(DimensionMismatch):
        CircuitTemplate(2, 2, [LocalLayer(np.eye(3), np.eye(2))])
    t23 = CircuitTemplate(2, 3, [QUERY, QUERY])
    # a layer list edited after construction: every A factor 3x3 in a 2x3 template
    for layer in t23.layers[::2]:
        layer.factor_a = np.eye(3, dtype=complex)
    with pytest.raises(MalformedScheme, match="do not fit"):
        evaluate_template(t23, np.eye(6))


def _random_template(rng, d_a, d_b, k):
    layers = [_local(rng, d_a, d_b)]
    for _ in range(k):
        layers += [QUERY, _local(rng, d_a, d_b)]
    return CircuitTemplate(d_a, d_b, layers)


def _random_state(rng, d):
    z = rng.normal(size=d) + 1j * rng.normal(size=d)
    return z / np.linalg.norm(z)


@pytest.mark.parametrize("d_a,d_b", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("k", range(5))
def test_outputs_agree_with_the_matrix_path(d_a, d_b, k):
    rng = np.random.default_rng([d_a, d_b, k])
    t = _random_template(rng, d_a, d_b, k)
    X = np.stack([random_unitary(d_a * d_b, rng) for _ in range(3)])
    a, b = _random_state(rng, d_a), _random_state(rng, d_b)
    out = _outputs(t, X, a, b)
    assert out.shape == (3, d_a * d_b)
    for row, x in zip(out, X):
        assert np.allclose(row, evaluate_template(t, x) @ np.kron(a, b), rtol=0, atol=1e-12)
        assert np.array_equal(row, _outputs(t, x[None], a, b)[0])


@pytest.mark.parametrize("d_a,d_b", [(2, 2), (2, 3), (3, 3)])
def test_matrix_columns_are_the_propagated_basis_inputs(d_a, d_b):
    """evaluate_template pushes the n basis inputs through the same kernel
    as _outputs, so the two agree bit for bit."""
    rng = np.random.default_rng([d_a, d_b, 7])
    t = _random_template(rng, d_a, d_b, 3)
    X = random_unitary(d_a * d_b, rng)
    columns = [_outputs(t, X[None], ea, eb)[0]
               for ea in np.eye(d_a, dtype=complex) for eb in np.eye(d_b, dtype=complex)]
    assert np.array_equal(evaluate_template(t, X), np.stack(columns, axis=1))


def test_normalization_converts_other_factors_and_copies_no_layer():
    """A complex128 factor is kept as it is; a real or list factor is
    converted to complex128; the template's layers are its own objects."""
    rng = np.random.default_rng(36)
    fa = random_unitary(2, rng)
    layers = [LocalLayer(fa, np.eye(3)), QUERY, LocalLayer([[0, 1], [1, 0]], random_unitary(3, rng))]
    t = CircuitTemplate(2, 3, layers)
    assert t.layers[0].factor_a is fa
    for layer in t.layers[::2]:
        for F in (layer.factor_a, layer.factor_b):
            assert type(F) is np.ndarray and F.dtype == np.dtype(complex)
    assert np.array_equal(t.layers[0].factor_b, np.eye(3))
    assert np.array_equal(t.layers[2].factor_a, SX)
    assert not any(mine is theirs for mine in t.layers[::2] for theirs in layers)


@pytest.mark.parametrize("order", ["C", "F"])
def test_unitarity_check_reports_the_defect_of_its_old_expression(order):
    """A forged factor in a C- or F-ordered stack reports the defect of the
    one gram expression, the batched F^dag F - I, ==, which is also
    unitarity_defect's value for that factor alone."""
    rng = np.random.default_rng(36)
    A = np.array([random_unitary(3, rng) for _ in range(4)], order=order)
    B = np.array([random_unitary(2, rng) for _ in range(4)], order=order)
    A[2] *= 1.0 + 1e-6
    gram = A.conj().transpose(0, 2, 1) @ A - np.eye(3)
    defect = _unitarity_defect((A, B), 1e-9)
    assert defect == float(np.linalg.svd(gram, compute_uv=False).max())
    assert defect == unitarity_defect(A[2]) > 1e-9
    assert _unitarity_defect((A, B), 1e-5) <= 1e-5  # within a looser tolerance


def _factor_stack(n, k, rng):
    return np.array([random_unitary(n, rng) for _ in range(k)])


@pytest.mark.parametrize("bad", [np.inf, complex(0, -np.inf), np.nan, 1e200])
def test_a_non_finite_factor_is_an_infinite_defect_without_a_warning(bad):
    """The batched matmul warns on a NaN or infinite entry, and on a gram
    that overflows: the kernel runs it with numpy's warnings off, and such a
    factor, kept off the screen by the sum that is not finite, is an
    infinite defect."""
    rng = np.random.default_rng(38)
    A, B = _factor_stack(3, 3, rng), _factor_stack(2, 3, rng)
    B[1, 0, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _unitarity_defect((A, B), 1e-9) == np.inf


@pytest.mark.parametrize("scale", [0.5, 0.99, 1.01, 2.0])
@pytest.mark.parametrize("both_sides", [False, True])
def test_unitarity_screen_keeps_the_exact_verdict(scale, both_sides):
    """Factors forged to a defect of scale * tol, on one side or one factor
    of each: the defect exceeds tol exactly when some factor's
    unitarity_defect does, and is then the largest of the first side that
    fails, ==. On both sides at 0.99 tol the screen's sum, about
    1.96 tol^2, fails and the exact path finds every factor within tol."""
    tol = 1e-9
    rng = np.random.default_rng(39)
    A, B = _factor_stack(3, 3, rng), _factor_stack(2, 3, rng)
    A[1] = A[1] @ np.diag([np.sqrt(1 + scale * tol), 1.0, 1.0])
    if both_sides:
        B[2] = B[2] @ np.diag([1.0, np.sqrt(1 + scale * tol)])
    defects = [max(unitarity_defect(F) for F in stack) for stack in (A, B)]
    assert defects[0] == pytest.approx(scale * tol, rel=1e-6)
    failing = [d for d in defects if d > tol]
    defect = _unitarity_defect((A, B), tol)
    if not failing:
        assert defect <= tol
        return
    assert defect == failing[0]
