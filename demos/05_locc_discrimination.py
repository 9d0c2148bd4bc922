"""End-to-end: flat LOCC sequential schemes for bipartite pairs.

The case engine classifies both operands and assembles a flat circuit of
product-form local layers with forward queries, plus a product input state,
whose two possible outputs are orthogonal (within the reported budget when
synthesized blocks are involved). Orthogonal outputs can then be told apart
by local measurements and classical messages alone.

Before the case analysis, the direct route looks for a single query with a
product input |phi>|psi>: it exists when 0 lies in the numerical range of
(I (x) <psi|) U^dag V (I (x) |psi>). The last section compares the query
counts with and without it (patching engine._direct to return None leaves
the case engine alone).
"""

import time
from unittest import mock

import numpy as np

from seqlocc import RunConfig, discriminate, engine, random_unitary, swap_operator, validate_unitary, verify_scheme
from seqlocc.io import dumps_scheme

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
cfg = RunConfig()
rng = np.random.default_rng(3)

pairs = [
    ("two local products", np.kron(H, H),
     np.kron(random_unitary(2, rng), random_unitary(2, rng)), 2, 2),
    ("product vs swapped product", np.kron(H, H), swap_operator(2), 2, 2),
    ("CNOT vs a local product", CNOT, np.kron(H, H), 2, 2),
    ("CNOT vs CZ (both entangling)", CNOT, CZ, 2, 2),
    ("2x3 controlled vs product",
     np.block([[np.eye(3), np.zeros((3, 3))],
               [np.zeros((3, 3)), random_unitary(3, rng)]]),
     np.kron(random_unitary(2, rng), random_unitary(3, rng)), 2, 3),
]

for name, Um, Vm, d_a, d_b in pairs:
    U = validate_unitary(Um, d_a, d_b)
    V = validate_unitary(Vm, d_a, d_b)
    scheme, report = discriminate(U, V, cfg)
    print(f"=== {name} ===")
    print(f"  case trace : {' -> '.join(scheme.case_trace)}")
    print(f"  queries    : {report.query_count}")
    print(f"  overlap    : {report.overlap:.3e}  (budget {scheme.budget:.3e})")
    print(f"  verified   : {'pass' if report.passed else 'FAIL'}")
    if report.wall_notes:
        print(f"  notes      : {report.wall_notes}")
    print()

print("=== schemes are plain serializable records ===")
scheme, report = discriminate(validate_unitary(CNOT, 2, 2),
                              validate_unitary(CZ, 2, 2), cfg)
text = dumps_scheme(scheme, report)
print(f"CNOT-vs-CZ scheme file: {len(text)} bytes of JSON")
rep = verify_scheme(scheme, validate_unitary(CNOT, 2, 2), validate_unitary(CZ, 2, 2))
print(f"independent re-verification: overlap {rep.overlap:.3e}, pass={rep.passed}")

print()
print("=== direct route against the case engine alone (Haar-random pairs) ===")
for d_a, d_b in ((2, 2), (3, 3)):
    U = validate_unitary(random_unitary(d_a * d_b, rng), d_a, d_b)
    V = validate_unitary(random_unitary(d_a * d_b, rng), d_a, d_b)
    for direct in (True, False):
        start = time.perf_counter()
        if direct:
            scheme, report = discriminate(U, V, cfg)
        else:
            with mock.patch.object(engine, "_direct", lambda build, U, V: None):
                scheme, report = discriminate(U, V, cfg)
        print(f"  {d_a}x{d_b} direct={direct!s:5}: {report.query_count:3d} queries, "
              f"trace {' -> '.join(scheme.case_trace)}, overlap {report.overlap:.1e}, "
              f"{time.perf_counter() - start:.2f} s, verified {'pass' if report.passed else 'FAIL'}")
