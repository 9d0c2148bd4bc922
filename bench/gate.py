"""Correctness gate applied to every scheme the benchmark times.

On top of verify_scheme(...).passed it checks what verify_scheme skips:
every local factor is unitary, both inputs are unit vectors of the right
lengths, the template holds only LocalLayer and Query layers, and the
overlap, recomputed here without the program's evaluator, is within the
scheme's budget. check_scheme returns a list of problems; empty means the
scheme passed.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from seqlocc import engine
from seqlocc.templates import LocalLayer, Query

UNITARY_TOL = 1e-9
NORM_TOL = 1e-9
# the same absolute slack verify_scheme grants on top of the budget
OVERLAP_SLACK = 1e-12


def _own_overlap(scheme, U: np.ndarray, V: np.ndarray) -> float:
    inp = np.kron(scheme.input_a, scheme.input_b)
    phi_u, phi_v = inp.copy(), inp.copy()
    for layer in scheme.template.layers:
        if isinstance(layer, Query):
            phi_u, phi_v = U @ phi_u, V @ phi_v
        else:
            L = np.kron(layer.factor_a, layer.factor_b)
            phi_u, phi_v = L @ phi_u, L @ phi_v
    return float(abs(np.vdot(phi_u, phi_v)))


def check_scheme(scheme, U, V) -> list[str]:
    """Problems with a scheme for the pair (U, V); BipartiteUnitary inputs."""
    problems = []
    d_a, d_b = U.d_a, U.d_b
    t = scheme.template
    if (t.d_a, t.d_b) != (d_a, d_b):
        problems.append(f"template dims ({t.d_a}, {t.d_b}) != pair dims ({d_a}, {d_b})")
        return problems
    for k, layer in enumerate(t.layers):
        if isinstance(layer, Query):
            continue
        if not isinstance(layer, LocalLayer):
            problems.append(f"layer {k} is a {type(layer).__name__}")
            continue
        for side, f, d in (("a", layer.factor_a, d_a), ("b", layer.factor_b, d_b)):
            f = np.asarray(f)
            if f.shape != (d, d):
                problems.append(f"layer {k} factor_{side} has shape {f.shape}")
                continue
            defect = float(np.linalg.norm(f.conj().T @ f - np.eye(d), 2))
            if not defect <= UNITARY_TOL:
                problems.append(f"layer {k} factor_{side} unitarity defect {defect:.3e}")
    for name, v, d in (("input_a", scheme.input_a, d_a), ("input_b", scheme.input_b, d_b)):
        v = np.asarray(v)
        if v.shape != (d,):
            problems.append(f"{name} has shape {v.shape}, expected ({d},)")
        elif not abs(float(np.linalg.norm(v)) - 1.0) <= NORM_TOL:
            problems.append(f"{name} norm {float(np.linalg.norm(v)):.12g}")
    if problems:
        return problems
    report = engine.verify_scheme(scheme, U, V)
    if not report.passed:
        problems.append(f"verify_scheme failed: overlap {report.overlap:.3e} "
                        f"budget {scheme.budget:.3e}")
    ov = _own_overlap(scheme, U.matrix, V.matrix)
    if not (math.isfinite(scheme.budget) and ov <= scheme.budget + OVERLAP_SLACK):
        problems.append(f"overlap {ov:.3e} above budget {scheme.budget:.3e}")
    return problems


def query_count(scheme) -> int:
    return sum(1 for layer in scheme.template.layers if isinstance(layer, Query))


def self_check(scheme, U, V) -> None:
    """Raise RuntimeError unless the gate passes the scheme and rejects
    forged copies with a zero local factor or a zero input."""
    problems = check_scheme(scheme, U, V)
    if problems:
        raise RuntimeError(f"gate self-check: the genuine scheme failed: {problems}")
    forged = copy.deepcopy(scheme)
    k = next(i for i, layer in enumerate(forged.template.layers)
             if isinstance(layer, LocalLayer))
    forged.template.layers[k].factor_a = np.zeros_like(forged.template.layers[k].factor_a)
    if not check_scheme(forged, U, V):
        raise RuntimeError("gate self-check: a zero local factor passed the gate")
    forged = copy.deepcopy(scheme)
    forged.input_a = np.zeros_like(forged.input_a)
    if not check_scheme(forged, U, V):
        raise RuntimeError("gate self-check: a zero input passed the gate")
