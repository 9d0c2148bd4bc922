"""File formats: matrices, templates, schemes, and eigenphase CSV export.

Every complex array is written as nested [real, imaginary] pairs. Matrix
files are JSON documents with fields d_a, d_b, and a row-major "entries"
array of such pairs; parsing is strict, a wrong entry count is an error.
Template files list the layers in application order. Scheme files bundle
the flat template, the two input state vectors, and the report block, with
a stable field order so identical runs produce byte-identical files.
loads_scheme and load_scheme_file validate the scheme they read (engine's
validate_scheme); seqlocc verify reads it unvalidated and leaves the check
to verify_scheme.
"""

from __future__ import annotations

import json

import numpy as np

from .config import RunConfig
from .engine import DiscriminationReport, LoccSequentialScheme, validate_scheme
from .errors import MatrixFileError
from .linalg import BipartiteUnitary, validate_unitary
from .templates import QUERY, CircuitTemplate, LocalLayer, Query


def _to_lists(a) -> list:
    """Nested [re, im] lists of a complex array."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _from_lists(rows, shape: tuple, what: str) -> np.ndarray:
    """Complex array of the given shape from nested [re, im] lists, in one
    conversion: for a stack of factors, that is most of reading a scheme.
    Strings, nulls and arrays of booleans alone are refused, never parsed."""
    try:
        arr = np.asarray(rows)
    except (TypeError, ValueError) as exc:
        raise MatrixFileError(f"{what}: not an array of numbers: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise MatrixFileError(f"{what}: not an array of numbers (read as {arr.dtype})")
    if arr.shape != (*shape, 2):
        raise MatrixFileError(f"{what}: expected [re, im] pairs of shape {shape}, "
                              f"got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def _parse(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"invalid JSON: {exc}") from exc


def _dimensions(data: dict) -> tuple[int, int]:
    """d_a and d_b of a record, which must be positive JSON integers: a
    fractional or string dimension is an error, never truncated or parsed."""
    dims = data["d_a"], data["d_b"]
    if any(type(d) is not int or d < 1 for d in dims):
        raise MatrixFileError(f"d_a and d_b must be integers of at least 1, "
                              f"got {dims[0]!r} and {dims[1]!r}")
    return dims


def dumps_matrix(U: BipartiteUnitary) -> str:
    return json.dumps({"d_a": U.d_a, "d_b": U.d_b, "entries": _to_lists(U.matrix.reshape(-1))},
                      indent=2)


def loads_matrix(text: str, unitarity_tol: float = RunConfig.unitarity_tol) -> BipartiteUnitary:
    data = _parse(text)
    try:
        d_a, d_b = _dimensions(data)
        entries = data["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixFileError(f"matrix record needs d_a, d_b, entries: {exc}") from exc
    n = d_a * d_b
    M = _from_lists(entries, (n * n,), f"entries for ({d_a}, {d_b})").reshape(n, n)
    return validate_unitary(M, d_a, d_b, tol=unitarity_tol)


def load_matrix_file(path: str,
                     unitarity_tol: float = RunConfig.unitarity_tol) -> BipartiteUnitary:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_matrix(fh.read(), unitarity_tol)


def save_matrix_file(path: str, U: BipartiteUnitary) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_matrix(U))


def template_to_dict(t: CircuitTemplate) -> dict:
    records = []
    for layer in t.layers:
        if isinstance(layer, Query):
            records.append({"kind": "query"})
        else:
            records.append({
                "kind": "local",
                "factor_a": _to_lists(layer.factor_a),
                "factor_b": _to_lists(layer.factor_b),
            })
    return {"d_a": t.d_a, "d_b": t.d_b, "layers": records}


def template_from_dict(data: dict) -> CircuitTemplate:
    try:
        d_a, d_b = _dimensions(data)
        records = data["layers"]
        kinds = [rec.get("kind") for rec in records]
        local_records = [rec for rec, kind in zip(records, kinds) if kind == "local"]
        rows = {side: [rec[side] for rec in local_records] for side in ("factor_a", "factor_b")}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MatrixFileError(f"malformed template record: {exc}") from exc
    for kind in kinds:
        if kind not in ("query", "local"):
            raise MatrixFileError(f"unknown layer kind {kind!r}")
    n = len(local_records)
    factors = zip(*(_from_lists(rows[side], (n, d, d), side)
                    for side, d in (("factor_a", d_a), ("factor_b", d_b)))) if n else None
    layers = [QUERY if kind == "query" else LocalLayer(*next(factors)) for kind in kinds]
    return CircuitTemplate(d_a, d_b, layers)


def dumps_template(t: CircuitTemplate) -> str:
    return json.dumps(template_to_dict(t), indent=2)


def loads_template(text: str) -> CircuitTemplate:
    return template_from_dict(_parse(text))


def _scheme_record(data: dict) -> LoccSequentialScheme:
    """Scheme record to a scheme, parsed but not validated; a malformed record
    raises MatrixFileError."""
    try:
        template = template_from_dict(data["template"])
        # the length of an input is validate_scheme's to check
        input_a, input_b = (_from_lists(data[name], (len(data[name]),), name)
                            for name in ("input_a", "input_b"))
        numbers = data["achieved_overlap"], data["budget"]
        # JSON numbers only: float() would parse "0.5" and read true as 1.0
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in numbers):
            raise MatrixFileError(f"achieved_overlap and budget must be numbers, got {numbers}")
        trace = data["case_trace"]
        # a JSON list of strings: list() would split "i-a" and take an object's keys
        if not isinstance(trace, list) or not all(isinstance(x, str) for x in trace):
            raise MatrixFileError(f"case_trace must be a list of strings, got {trace!r}")
        return LoccSequentialScheme(template, input_a, input_b, *map(float, numbers), trace)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MatrixFileError(f"malformed scheme record: {exc}") from exc


def dumps_scheme(scheme: LoccSequentialScheme,
                 report: DiscriminationReport | None = None) -> str:
    data = {
        "template": template_to_dict(scheme.template),
        "input_a": _to_lists(scheme.input_a),
        "input_b": _to_lists(scheme.input_b),
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
    return json.dumps(data, indent=2)


def loads_scheme(text: str,
                 unitarity_tol: float = RunConfig.unitarity_tol) -> LoccSequentialScheme:
    scheme = _scheme_record(_parse(text))
    validate_scheme(scheme, unitarity_tol)
    return scheme


def load_scheme_file(path: str,
                     unitarity_tol: float = RunConfig.unitarity_tol) -> LoccSequentialScheme:
    scheme = _read_scheme(path)
    validate_scheme(scheme, unitarity_tol)
    return scheme


def _read_scheme(path: str) -> LoccSequentialScheme:
    """The scheme of a file, parsed but not validated: seqlocc verify leaves
    that to verify_scheme, which stacks the factors once for both steps."""
    with open(path, "r", encoding="utf-8") as fh:
        return _scheme_record(_parse(fh.read()))


def eigenphase_csv(rows) -> str:
    """CSV text for (index, phase, multiplicity) rows."""
    lines = ["index,phase,multiplicity"]
    for idx, phase, mult in rows:
        lines.append(f"{idx},{phase!r},{mult}")
    return "\n".join(lines) + "\n"
