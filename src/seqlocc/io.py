"""File formats: matrices, schemes, and eigenphase CSV export.

Matrix files are JSON documents with fields d_a, d_b, and a row-major
"entries" array of [real, imaginary] pairs; parsing is strict, a wrong
entry count is an error. Scheme files bundle the flat template, the two
input state vectors, and the report block, with a stable field order so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .config import RunConfig
from .engine import DiscriminationReport, LoccSequentialScheme, validate_scheme
from .errors import MatrixFileError
from .linalg import BipartiteUnitary, validate_unitary
from .templates import template_from_dict, template_to_dict


def matrix_to_dict(U: BipartiteUnitary) -> dict:
    flat = U.matrix.reshape(-1)
    return {
        "d_a": U.d_a,
        "d_b": U.d_b,
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def matrix_from_dict(data: dict,
                     unitarity_tol: float = RunConfig.unitarity_tol) -> BipartiteUnitary:
    try:
        d_a = int(data["d_a"])
        d_b = int(data["d_b"])
        entries = data["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixFileError(f"matrix record needs d_a, d_b, entries: {exc}") from exc
    n = d_a * d_b
    arr = np.asarray(entries, dtype=float)
    if arr.shape != (n * n, 2):
        raise MatrixFileError(
            f"expected {n * n} [re, im] entries for ({d_a}, {d_b}), got shape {arr.shape}")
    M = (arr[:, 0] + 1j * arr[:, 1]).reshape(n, n)
    return validate_unitary(M, d_a, d_b, tol=unitarity_tol)


def dumps_matrix(U: BipartiteUnitary) -> str:
    return json.dumps(matrix_to_dict(U), indent=2)


def loads_matrix(text: str, unitarity_tol: float = RunConfig.unitarity_tol) -> BipartiteUnitary:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"invalid JSON: {exc}") from exc
    return matrix_from_dict(data, unitarity_tol)


def load_matrix_file(path: str,
                     unitarity_tol: float = RunConfig.unitarity_tol) -> BipartiteUnitary:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_matrix(fh.read(), unitarity_tol)


def save_matrix_file(path: str, U: BipartiteUnitary) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_matrix(U))


def _state_to_lists(psi: np.ndarray):
    return [[float(z.real), float(z.imag)] for z in np.asarray(psi).reshape(-1)]


def _state_from_lists(rows, what: str) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise MatrixFileError(f"{what}: expected [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def scheme_to_dict(scheme: LoccSequentialScheme,
                   report: DiscriminationReport | None = None) -> dict:
    data = {
        "template": template_to_dict(scheme.template),
        "input_a": _state_to_lists(scheme.input_a),
        "input_b": _state_to_lists(scheme.input_b),
        "achieved_overlap": float(scheme.achieved_overlap),
        "budget": float(scheme.budget),
        "case_trace": list(scheme.case_trace),
    }
    if report is not None:
        data["report"] = {
            "overlap": float(report.overlap),
            "query_count": int(report.query_count),
            "passed": bool(report.passed),
            "per_branch_error": [float(x) for x in report.per_branch_error],
            "theta_trace": [float(x) for x in report.theta_trace],
            "case_trace": list(report.case_trace),
            "wall_notes": report.wall_notes,
        }
    return data


def scheme_from_dict(data: dict,
                     unitarity_tol: float = RunConfig.unitarity_tol) -> LoccSequentialScheme:
    """Scheme record to a scheme; a malformed record raises MatrixFileError,
    a malformed scheme the errors of validate_scheme."""
    try:
        template = template_from_dict(data["template"])
        input_a = _state_from_lists(data["input_a"], "input_a")
        input_b = _state_from_lists(data["input_b"], "input_b")
        scheme = LoccSequentialScheme(
            template, input_a, input_b,
            float(data["achieved_overlap"]), float(data["budget"]),
            list(data["case_trace"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixFileError(f"malformed scheme record: {exc}") from exc
    validate_scheme(scheme, unitarity_tol)
    return scheme


def dumps_scheme(scheme: LoccSequentialScheme,
                 report: DiscriminationReport | None = None) -> str:
    return json.dumps(scheme_to_dict(scheme, report), indent=2)


def loads_scheme(text: str,
                 unitarity_tol: float = RunConfig.unitarity_tol) -> LoccSequentialScheme:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"invalid JSON: {exc}") from exc
    return scheme_from_dict(data, unitarity_tol)


def load_scheme_file(path: str,
                     unitarity_tol: float = RunConfig.unitarity_tol) -> LoccSequentialScheme:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_scheme(fh.read(), unitarity_tol)


def eigenphase_csv(rows) -> str:
    """CSV text for (index, phase, multiplicity) rows."""
    lines = ["index,phase,multiplicity"]
    for idx, phase, mult in rows:
        lines.append(f"{idx},{phase!r},{mult}")
    return "\n".join(lines) + "\n"
