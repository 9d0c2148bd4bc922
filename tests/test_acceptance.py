"""Acceptance suite: one checked criterion per test, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the line per criterion
(or `python3 tests/test_acceptance.py` standalone).
"""

import time
from collections import Counter

import numpy as np
import pytest

from seqlocc import (
    LocalLayer,
    Query,
    RunConfig,
    build_sequential_scheme,
    classify_primitive,
    compose_sequential,
    discriminate,
    eig_unitary,
    exp_xx_form,
    match_exp_xx_mod_phase,
    operator_schmidt,
    phase_distance,
    random_unitary,
    single_query_distinguishable,
    smallest_arc,
    swap_operator,
    symmetry_set_inverts,
    synthesize,
    evaluate_template,
    validate_unitary,
    verify_scheme,
)
from seqlocc.io import dumps_scheme

from conftest import CNOT, CZ, HAD
from corpus import labeled_pairs

CFG = RunConfig()
TWO_PI = 2 * np.pi

# the criteria check the case engine; the direct route answers about half of
# the corpus with one query first (checked in tests/test_direct.py)
pytestmark = pytest.mark.usefixtures("engine_only")


def _report(number, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _brute_force_arc(phases, tol=1e-12):
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


def test_criterion_1_arc_oracle():
    rng = np.random.default_rng(101)
    start = time.time()
    ok = True
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        U = random_unitary(dim, rng)
        info = smallest_arc(U)
        length, s, e = _brute_force_arc(eig_unitary(U).phases)
        if abs(info.theta - length) > 1e-12 or abs(info.start_phase - s) > 1e-12 \
                or abs(info.end_phase - e) > 1e-12:
            ok = False
            break
    elapsed = time.time() - start
    _report(1, "smallest_arc matches the O(n^2) brute force on 200 random "
               "unitaries with the same gap selected",
            ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_single_query_criterion():
    U = np.eye(2, dtype=complex)
    V1 = np.diag([1, -1]).astype(complex)
    V2 = np.diag([1, np.exp(1j * np.pi / 2)]).astype(complex)
    scheme = build_sequential_scheme(U, V1, CFG)
    ok = (single_query_distinguishable(U, V1)
          and scheme.query_count == 1
          and scheme.achieved_overlap <= 1e-12
          and not single_query_distinguishable(U, V2))
    _report(2, "antipodal pair distinguishable with one query at overlap "
               "<= 1e-12; quarter-turn pair is not single-query", ok)


def test_criterion_3_tensor_power_arc_law():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        theta = rng.uniform(0.15, 1.25)
        inner = np.sort(rng.uniform(0, theta, size=max(0, dim - 2)))
        phases = np.concatenate([[0.0], inner, [theta]])
        Q = random_unitary(dim, rng)
        W = Q @ np.diag(np.exp(1j * phases)) @ Q.conj().T
        T = np.eye(1, dtype=complex)
        for n in range(1, 5):
            T = np.kron(T, W)
            expected = min(n * theta, TWO_PI)
            worst = max(worst, abs(smallest_arc(T).theta - expected))
    _report(3, "Theta(W^(xN)) = min(N Theta, 2 pi) within 1e-9 for 50 random "
               "W and N <= 4", worst <= 1e-9, f"worst {worst:.2e}")


def test_criterion_4_sequential_engine():
    rng = np.random.default_rng(104)
    ok = True
    detail = ""
    start = time.time()
    for i in range(100):
        dim = int(rng.integers(2, 5))
        theta = rng.uniform(np.pi / 4, np.pi - 1e-3)
        inner = np.sort(rng.uniform(0, theta, size=max(0, dim - 2)))
        phases = np.concatenate([[0.0], inner, [theta]])
        Q = random_unitary(dim, rng)
        U = random_unitary(dim, rng)
        V = U @ (Q @ np.diag(np.exp(1j * phases)) @ Q.conj().T)
        n = int(np.ceil(np.pi / theta - 1e-12))
        scheme = build_sequential_scheme(U, V, CFG)
        cu = compose_sequential(U, scheme.interleavers)
        cv = compose_sequential(V, scheme.interleavers)
        overlap = abs(np.vdot(cu @ scheme.input_state, cv @ scheme.input_state))
        if scheme.query_count > n + 1 or overlap > 1e-6:
            ok = False
            detail = f"pair {i}: count {scheme.query_count} vs {n}, overlap {overlap:.2e}"
            break
    if ok:
        for theta in (np.pi / 2, 1.1, 1.9, 2.6):
            dim = int(rng.integers(2, 5))
            inner = np.sort(rng.uniform(0, theta, size=max(0, dim - 2)))
            V = np.diag(np.exp(1j * np.concatenate([[0.0], inner, [theta]])))
            scheme = build_sequential_scheme(np.eye(dim, dtype=complex), V, CFG)
            if scheme.query_count != int(np.ceil(np.pi / theta - 1e-12)):
                ok = False
                detail = f"diagonal pair at theta={theta} used {scheme.query_count}"
                break
    _report(4, "100 random pairs discriminated within ceil(pi/theta)+1 queries "
               "at overlap <= 1e-6; commuting diagonal pairs exactly optimal",
            ok, detail or f"{time.time() - start:.1f}s")


def test_criterion_5_primitivity():
    rng = np.random.default_rng(105)
    ok = True
    detail = ""
    for i in range(100):
        d_a, d_b = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        U = validate_unitary(np.kron(random_unitary(d_a, rng), random_unitary(d_b, rng)),
                             d_a, d_b)
        form = classify_primitive(U)
        recovery = phase_distance(np.kron(form.factor_a, form.factor_b), U.matrix) \
            if form.kind == "Product" else np.inf
        if form.kind != "Product" or recovery > 1e-8:
            ok = False
            detail = f"product {i}: {form.kind}, recovery {recovery:.2e}"
            break
    if ok:
        checks = [
            (swap_operator(2), 2, 2, "SwapProduct"),
            (CNOT, 2, 2, "Imprimitive"),
            (CZ, 2, 2, "Imprimitive"),
        ]
        for M, d_a, d_b, expected in checks:
            got = classify_primitive(validate_unitary(M, d_a, d_b)).kind
            if got != expected:
                ok = False
                detail = f"expected {expected}, got {got}"
                break
    _report(5, "100 random products recovered as Product within 1e-8; SWAP, "
               "CNOT, CZ classified with zero errors", ok, detail)


def test_criterion_6_symmetry_equivalence():
    ok = True
    detail = ""
    grid = np.linspace(-np.pi + 0.05, np.pi - 0.05, 20)
    for d_a, d_b in [(2, 2), (2, 3), (3, 3)]:
        for x in grid:
            U = exp_xx_form(x, d_a, d_b)
            if not symmetry_set_inverts(U):
                ok, detail = False, f"exp form failed at x={x:.3f} ({d_a},{d_b})"
                break
            got = match_exp_xx_mod_phase(U)
            if got is None or abs(got[0] - x) > 1e-9 or abs(got[1]) > 1e-12:
                ok, detail = False, f"round trip failed at x={x:.3f} ({d_a},{d_b})"
                break
        if not ok:
            break
    if ok:
        rng = np.random.default_rng(106)
        count = 0
        while count < 100:
            U = validate_unitary(random_unitary(4, rng), 2, 2)
            if classify_primitive(U).kind != "Imprimitive":
                continue
            count += 1
            if symmetry_set_inverts(U):
                ok, detail = False, "random imprimitive passed the symmetry test"
                break
    _report(6, "interaction exponentials pass the symmetry test on a 20-point "
               "grid at three shapes and round-trip x within 1e-9; 100 random "
               "imprimitives fail it", ok, detail)


def test_criterion_7_synthesis():
    start = time.time()
    cnot = validate_unitary(CNOT, 2, 2)
    res = synthesize(validate_unitary(swap_operator(2), 2, 2), cnot, CFG)
    ok = res.layer_count == 3 and res.delta <= 1e-6
    detail = f"swap: k={res.layer_count}, delta={res.delta:.2e}"
    if ok:
        rng = np.random.default_rng(107)
        cfg = RunConfig(epsilon=1e-3, k_max=6)
        worst = 0.0
        for _ in range(20):
            target = validate_unitary(random_unitary(4, rng), 2, 2)
            r = synthesize(target, cnot, cfg)
            worst = max(worst, r.delta)
            if r.layer_count > 6 or r.delta > 1e-3:
                ok = False
                break
        detail += f"; su4 worst delta {worst:.2e}, {time.time() - start:.0f}s"
    _report(7, "SWAP reached from CNOT at k=3 within 1e-6; 20 random SU(4) "
               "targets within 1e-3 at k <= 6", ok, detail)


@pytest.fixture(scope="module")
def corpus_schemes():
    pairs = labeled_pairs()
    out = []
    for label, prefix, U, V in pairs:
        scheme, report = discriminate(U, V, CFG)
        out.append((label, prefix, U, V, scheme, report))
    return out


def test_criterion_8_end_to_end(corpus_schemes):
    counts = Counter(label for label, *_ in corpus_schemes)
    ok = all(counts[lab] >= 3 for lab in
             ["i-a", "i-b", "i-c", "ii-a", "ii-b", "iii-a", "iii-b-x1", "iii-b-xne1"])
    detail = dict(counts)
    if ok:
        for label, prefix, U, V, scheme, report in corpus_schemes:
            rep = verify_scheme(scheme, U, V)
            if not rep.passed or scheme.budget > 1e-2 \
                    or scheme.case_trace[:len(prefix)] != prefix:
                ok = False
                detail = f"{label}: overlap {rep.overlap:.2e}, budget {scheme.budget:.2e}, trace {scheme.case_trace}"
                break
    _report(8, ">=3 pairs per case label all verify with overlap <= budget "
               "<= 1e-2 and the constructed case trace", ok, str(detail))


def test_criterion_9_structure_and_determinism(corpus_schemes):
    ok = True
    detail = ""
    for label, prefix, U, V, scheme, report in corpus_schemes:
        for layer in scheme.template.layers:
            if isinstance(layer, Query):
                continue
            wrapped = validate_unitary(np.kron(layer.factor_a, layer.factor_b),
                                       scheme.template.d_a, scheme.template.d_b, tol=1e-8)
            if operator_schmidt(wrapped).rank(1e-10) != 1:
                ok, detail = False, f"{label}: non-product layer"
                break
            if not isinstance(layer, LocalLayer):
                ok, detail = False, f"{label}: unknown layer kind"
                break
        if not ok:
            break
    if ok:
        for label, prefix, U, V, scheme, report in corpus_schemes:
            again, _ = discriminate(U, V, CFG)
            if dumps_scheme(again) != dumps_scheme(scheme):
                ok, detail = False, f"{label}: rerun not byte-identical"
                break
    _report(9, "every emitted template is LOCC-legal and inverse-free, and "
               "reruns with the same seed are byte-identical", ok, detail)


def test_achieved_overlap_is_the_verified_overlap(corpus_schemes):
    """Every route records the overlap verify_scheme measures on the real
    operands, not one recomputed from the factors of a reduced pair."""
    for label, _, U, V, scheme, report in corpus_schemes:
        assert scheme.achieved_overlap == report.overlap, label


def test_propagated_outputs_match_the_matrix_path(corpus_schemes):
    """verify_scheme propagates the product input through the template; the
    overlap agrees with the n x n matrices of the template to 1e-14 and the
    verdict is the same."""
    for label, _, U, V, scheme, report in corpus_schemes:
        rep = verify_scheme(scheme, U, V)
        inp = np.kron(scheme.input_a, scheme.input_b)
        phi_u = evaluate_template(scheme.template, U.matrix) @ inp
        phi_v = evaluate_template(scheme.template, V.matrix) @ inp
        ov = float(abs(np.vdot(phi_u, phi_v)))
        assert abs(rep.overlap - ov) <= 1e-14, label
        assert rep.passed == (ov <= scheme.budget + 1e-12), label


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
