"""Deterministic labeled operator pairs covering every case label.

Pairs for the interaction cases are engineered against the template the
engine will deterministically synthesize for the first operand: with a
two-query template f(X) = L2 X L1 X L0, any desired image M of the second
operand solves V L1 V = L2^dag M L0^dag, a twisted square-root equation
whose unitary branches give distinct valid partners.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from seqlocc import (
    RunConfig,
    classify_primitive,
    entangling_witness,
    eig_unitary,
    exp_xx_form,
    phase_distance,
    random_unitary,
    swap_operator,
    synthesize,
    validate_unitary,
)
from seqlocc.templates import LocalLayer

from conftest import CNOT, CZ, HAD, I2, SZ

CFG = RunConfig()


def _unitary_sqrt(Z, flips=()):
    dec = eig_unitary(Z)
    roots = np.exp(0.5j * dec.phases)
    signs = np.ones(len(roots))
    for f in flips:
        signs[f] = -1.0
    return (dec.vectors * (signs * roots)) @ dec.vectors.conj().T


def _interaction_base(seed: int):
    """Locally disguised interaction exponential whose canonical-target
    synthesis comes out with two queries."""
    rng = np.random.default_rng(seed)
    for _ in range(8):
        ga, gb, ha, hb = (random_unitary(2, rng) for _ in range(4))
        U = validate_unitary(
            np.kron(ga, gb) @ exp_xx_form(0.5, 2, 2).matrix @ np.kron(ha, hb), 2, 2)
        res = synthesize(exp_xx_form(1.0, 2, 2), U, CFG)
        if res.template.query_count == 2:
            locals_ = [np.kron(l.factor_a, l.factor_b) for l in res.template.layers
                       if isinstance(l, LocalLayer)]
            return U, locals_
    raise RuntimeError(f"no two-query synthesis for seed {seed}")


def _forced_image_partners(U, locals_, image):
    """All valid V with f(V) = image, over the square-root branches."""
    L0, L1, L2 = locals_
    S = L2.conj().T @ image @ L0.conj().T
    W12 = _unitary_sqrt(L1)
    Z = W12 @ S @ W12
    out = []
    for flips in [(), (0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 2)]:
        Y = _unitary_sqrt(Z, flips)
        V = W12.conj().T @ Y @ W12.conj().T
        fV = L2 @ V @ L1 @ V @ L0
        if np.linalg.norm(fV - image) > 1e-9:
            continue
        try:
            Vb = validate_unitary(V, 2, 2)
        except Exception:
            continue
        if phase_distance(V, U.matrix) <= 1e-6:
            continue
        if classify_primitive(Vb).kind != "Imprimitive":
            continue
        out.append(Vb)
    return out


def _same_image_partner(U, locals_, min_witness=0.2):
    """Partner with f(V) = f(U), or None when no branch leaves V U^dag
    entangling strongly enough for the downstream inverse compilation
    (weak relative operators need unreachably deep templates)."""
    L0, L1, L2 = locals_
    fU = L2 @ U.matrix @ L1 @ U.matrix @ L0
    candidates = _forced_image_partners(U, locals_, fU)
    scored = []
    for V in candidates:
        rel = validate_unitary(V.matrix @ U.matrix.conj().T, 2, 2)
        if classify_primitive(rel).kind != "Imprimitive":
            continue
        coeff = entangling_witness(rel)[0]
        if coeff >= min_witness:
            scored.append((coeff, V))
    if not scored:
        return None
    return max(scored, key=lambda t: t[0])[1]


def _rand_product(rng, d_a=2, d_b=2):
    return validate_unitary(
        np.kron(random_unitary(d_a, rng), random_unitary(d_b, rng)), d_a, d_b)


def _rand_swap_product(rng, d=2):
    return validate_unitary(
        np.kron(random_unitary(d, rng), random_unitary(d, rng)) @ swap_operator(d), d, d)


def _controlled(blocks, d_b):
    d_a = len(blocks)
    M = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for a, W in enumerate(blocks):
        M[a * d_b:(a + 1) * d_b, a * d_b:(a + 1) * d_b] = W
    return M


@lru_cache(maxsize=1)
def labeled_pairs():
    """[(label, expected_trace_prefix, U, V)] covering all eight case labels
    at 2x2 plus product and controlled cases at 2x3."""
    rng = np.random.default_rng(20240817)
    P2 = swap_operator(2)
    pairs = []

    def v22(M):
        return validate_unitary(M, 2, 2)

    # (i-a) products
    pairs.append(("i-a", ["i-a"], v22(np.kron(I2, I2)), v22(np.kron(SZ, I2))))
    for _ in range(2):
        pairs.append(("i-a", ["i-a"], _rand_product(rng), _rand_product(rng)))
    pairs.append(("i-a", ["i-a"], _rand_product(rng, 2, 3), _rand_product(rng, 2, 3)))

    # (i-b) product vs swapped product
    pairs.append(("i-b", ["i-b"], v22(np.kron(I2, I2)), v22(P2)))
    for _ in range(2):
        pairs.append(("i-b", ["i-b"], _rand_product(rng), _rand_swap_product(rng)))

    # (i-c) both swapped products
    pairs.append(("i-c", ["i-c"], v22(P2), v22(np.kron(SZ, I2) @ P2)))
    for _ in range(2):
        pairs.append(("i-c", ["i-c", "i-a"], _rand_swap_product(rng), _rand_swap_product(rng)))

    # (ii-a) imprimitive vs product: controlled fast paths and synthesized
    pairs.append(("ii-a", ["ii-a"], v22(CNOT), v22(np.kron(HAD, HAD))))
    pairs.append(("ii-a", ["ii-a"], v22(CZ), _rand_product(rng)))
    pairs.append(("ii-a", ["ii-a"], exp_xx_form(0.7, 2, 2), _rand_product(rng)))
    W3 = random_unitary(3, rng)
    pairs.append(("ii-a", ["ii-a"],
                  validate_unitary(_controlled([np.eye(3), W3], 3), 2, 3),
                  _rand_product(rng, 2, 3)))
    pairs.append(("ii-a", ["ii-a"], exp_xx_form(0.8, 2, 3), _rand_product(rng, 2, 3)))

    # (ii-b) imprimitive vs swapped product: single-query and delegated
    pairs.append(("ii-b", ["ii-b"], v22(CNOT), v22(P2)))
    pairs.append(("ii-b", ["ii-b"], v22(CZ), _rand_swap_product(rng)))
    pairs.append(("ii-b", ["ii-b", "ii-a"], exp_xx_form(0.7, 2, 2), _rand_swap_product(rng)))

    # (iii) both imprimitive, driven by the forced image of V
    for i, (label, prefix, image_of) in enumerate([
        ("iii-a", ["iii", "iii-a"], "cnot"),
        ("iii-a", ["iii", "iii-a"], "cz"),
        ("iii-a", ["iii", "iii-a"], "mixed"),
        ("iii-b-xne1", ["iii", "iii-b-xne1"], 0.55),
        ("iii-b-xne1", ["iii", "iii-b-xne1"], 0.8),
        ("iii-b-xne1", ["iii", "iii-b-xne1"], 1.6),
    ]):
        U, locals_ = _interaction_base(1000 + i)
        if label == "iii-b-xne1":
            V = _forced_image_partners(U, locals_, exp_xx_form(image_of, 2, 2).matrix)[0]
        else:
            if image_of == "cnot":
                image = CNOT
            elif image_of == "cz":
                image = CZ
            else:
                image = _controlled([random_unitary(2, rng), random_unitary(2, rng)], 2)
            V = _forced_image_partners(U, locals_, image)[0]
        pairs.append((label, prefix, U, V))

    # coinciding images: scan bases until three leave a workable V U^dag
    found = 0
    seed = 2000
    while found < 3 and seed < 2040:
        U, locals_ = _interaction_base(seed)
        seed += 1
        V = _same_image_partner(U, locals_)
        if V is None:
            continue
        pairs.append(("iii-b-x1", ["iii", "iii-b-x1"], U, V))
        found += 1
    assert found == 3, "could not assemble the coinciding-image corpus"

    return pairs
