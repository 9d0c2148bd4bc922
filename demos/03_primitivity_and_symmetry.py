"""Operator Schmidt structure, primitivity, and the symmetry probes.

A bipartite unitary with one Schmidt term is a local product; with the
dimensions equal it may instead be a product followed by the swap. Anything
else is imprimitive: it entangles some product state, and together with
local unitaries it can generate everything.

The four probes (sigma (+) I on either side) characterize the interaction
exponentials exp(i x (sx (+) 0) (x) (sx (+) 0)): conjugation by every probe
inverts exactly those operators.
"""

import numpy as np

from seqlocc import (
    build_symmetry_set,
    classify_primitive,
    entangling_witness,
    exp_xx_form,
    match_exp_xx,
    operator_schmidt,
    random_unitary,
    swap_operator,
    symmetry_set_inverts,
    validate_unitary,
)

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
rng = np.random.default_rng(1)

print("=== operator Schmidt coefficients ===")
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
for name, M in [
    ("H x H", np.kron(H, H)),
    ("CNOT", CNOT),
    ("SWAP", swap_operator(2)),
    ("random", random_unitary(4, rng)),
]:
    dec = operator_schmidt(validate_unitary(M, 2, 2))
    print(f"{name:8s}: {np.round(dec.coefficients, 6)}")

print()
print("=== classification with factor extraction ===")
for name, M in [
    ("H x X", np.kron(H, np.array([[0, 1], [1, 0]], dtype=complex))),
    ("SWAP", swap_operator(2)),
    ("CNOT", CNOT),
]:
    U = validate_unitary(M, 2, 2)
    form = classify_primitive(U)
    extra = ""
    if form.kind == "Imprimitive":
        extra = f"; witness entangles to second coefficient {entangling_witness(U)[0]:.3f}"
    print(f"{name:8s}: {form.kind} (residual {form.residual:.1e}{extra})")

print()
print("=== the symmetry probes invert interaction exponentials only ===")
sym = build_symmetry_set(2, 2)
print("probes:", ", ".join(sym.labels))
for name, U in [
    ("exp_xx(0.7)", exp_xx_form(0.7, 2, 2)),
    ("exp_xx(-1.3) on 2x3", exp_xx_form(-1.3, 2, 3)),
    ("CNOT", validate_unitary(CNOT, 2, 2)),
]:
    inv = symmetry_set_inverts(U)
    x = match_exp_xx(U)
    print(f"{name:20s}: inverted by all probes: {inv};"
          f" matched angle: {x if x is None else round(x, 9)}")
