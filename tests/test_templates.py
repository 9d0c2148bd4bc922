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
from seqlocc.errors import DimensionMismatch
from seqlocc.templates import identity_local, template_outputs

from conftest import CNOT, HAD, SX, SZ


def _local(rng, d_a=2, d_b=2):
    return LocalLayer(random_unitary(d_a, rng), random_unitary(d_b, rng))


def test_zero_query_template_is_its_local():
    rng = np.random.default_rng(0)
    L = _local(rng)
    t = CircuitTemplate(2, 2, [L])
    assert t.query_count == 0
    assert np.allclose(evaluate_template(t, CNOT), L.matrix())


def test_bare_query_evaluates_to_operand():
    t = CircuitTemplate(2, 2, [QUERY])
    assert np.allclose(evaluate_template(t, CNOT), CNOT)


def test_application_order():
    # layers listed first are applied first: matrix product reverses
    A = LocalLayer(HAD, np.eye(2, dtype=complex))
    B = LocalLayer(np.eye(2, dtype=complex), SX)
    t = CircuitTemplate(2, 2, [A, QUERY, B])
    X = np.diag([1, 1j, -1, -1j]).astype(complex)
    assert np.allclose(evaluate_template(t, X), B.matrix() @ X @ A.matrix())


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
    expected = X @ ws[2].matrix() @ X @ ws[1].matrix() @ X @ ws[0].matrix() @ X
    assert np.linalg.norm(evaluate_template(t, X) - expected) <= 1e-12


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
    a, b = np.ones(2) / np.sqrt(2), np.ones(3) / np.sqrt(3)
    for X in (np.eye(6), np.eye(4)[None], np.eye(6)[None, :5]):
        with pytest.raises(DimensionMismatch):
            template_outputs(t23, X, a, b)
    with pytest.raises(DimensionMismatch):
        template_outputs(t23, np.eye(6)[None], b, a)


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
    out = template_outputs(t, X, a, b)
    assert out.shape == (3, d_a * d_b)
    for row, x in zip(out, X):
        assert np.allclose(row, evaluate_template(t, x) @ np.kron(a, b), rtol=0, atol=1e-12)
        assert np.array_equal(row, template_outputs(t, x[None], a, b)[0])


@pytest.mark.parametrize("d_a,d_b", [(2, 2), (2, 3), (3, 3)])
def test_matrix_columns_are_the_propagated_basis_inputs(d_a, d_b):
    """evaluate_template pushes the n basis inputs through the same
    factor-wise loop as template_outputs, so the two agree bit for bit."""
    rng = np.random.default_rng([d_a, d_b, 7])
    t = _random_template(rng, d_a, d_b, 3)
    X = random_unitary(d_a * d_b, rng)
    columns = [template_outputs(t, X[None], ea, eb)[0]
               for ea in np.eye(d_a, dtype=complex) for eb in np.eye(d_b, dtype=complex)]
    assert np.array_equal(evaluate_template(t, X), np.stack(columns, axis=1))
