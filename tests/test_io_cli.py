import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqlocc import (
    CircuitTemplate,
    LoccSequentialScheme,
    RunConfig,
    classify_primitive,
    discriminate,
    random_unitary,
    swap_operator,
    validate_unitary,
    verify_scheme,
)
from seqlocc import engine
from seqlocc.cli import build_parser, main
from seqlocc.config import TOL_ANGLE
from seqlocc.errors import DimensionMismatch, MalformedScheme, MatrixFileError, NotUnitary
from seqlocc.io import (
    dumps_matrix,
    dumps_scheme,
    load_matrix_file,
    load_scheme_file,
    loads_matrix,
    loads_scheme,
    loads_template,
    save_matrix_file,
)

from conftest import CNOT, CZ, HAD, SX


def _write(tmp_path, name, M, d_a=2, d_b=2):
    path = tmp_path / name
    save_matrix_file(str(path), validate_unitary(M, d_a, d_b))
    return str(path)


def test_matrix_round_trip():
    U = validate_unitary(CNOT, 2, 2)
    back = loads_matrix(dumps_matrix(U))
    assert np.array_equal(back.matrix, U.matrix)
    assert (back.d_a, back.d_b) == (2, 2)


def test_matrix_parse_strictness():
    with pytest.raises(MatrixFileError):
        loads_matrix('{"d_a": 2, "d_b": 2, "entries": [[1, 0]]}')
    with pytest.raises(MatrixFileError):
        loads_matrix('{"d_a": 2, "entries": []}')
    with pytest.raises(MatrixFileError):
        loads_matrix("not json")


TEMPLATE_RECORDS = {
    "layer not an object": [1],
    "layer a string": ["query"],
    "local layer without factor_a": [{"kind": "local", "factor_b": [[[1, 0], [0, 0]],
                                                                     [[0, 0], [1, 0]]]}],
    "factor not numbers": [{"kind": "local", "factor_a": [["x", "y"], ["z", "w"]],
                            "factor_b": [["x", "y"], ["z", "w"]]}],
}


@pytest.mark.parametrize("name", TEMPLATE_RECORDS)
def test_malformed_template_layers_are_file_errors(name):
    with pytest.raises(MatrixFileError):
        loads_template(json.dumps({"d_a": 2, "d_b": 2, "layers": TEMPLATE_RECORDS[name]}))


@pytest.mark.parametrize("name", TEMPLATE_RECORDS)
def test_cli_verify_malformed_template_layers_exit2(tmp_path, capsys, name):
    a = _write(tmp_path, "u.json", CNOT)
    b = _write(tmp_path, "v.json", np.kron(HAD, HAD))
    scheme_path = tmp_path / "scheme.json"
    assert main(["discriminate", a, b, "--out", str(scheme_path)]) == 0
    data = json.loads(scheme_path.read_text())
    data["template"]["layers"] = TEMPLATE_RECORDS[name]
    scheme_path.write_text(json.dumps(data))
    assert main(["verify", str(scheme_path), a, b]) == 2
    assert "error:" in capsys.readouterr().err


NON_INTEGER_DIMENSIONS = [2.9, 2.0, "2", True, None]


def _product_scheme_record(tmp_path):
    """Operand files and the scheme record of a cheap 2x2 product pair."""
    a = _write(tmp_path, "i.json", np.eye(4))
    b = _write(tmp_path, "szi.json", np.kron(np.diag([1, -1]), np.eye(2)))
    scheme_path = tmp_path / "scheme.json"
    assert main(["discriminate", a, b, "--out", str(scheme_path)]) == 0
    return a, b, scheme_path, json.loads(scheme_path.read_text())


@pytest.mark.parametrize("side", ["d_a", "d_b"])
@pytest.mark.parametrize("d", NON_INTEGER_DIMENSIONS)
def test_non_integer_dimension_is_a_file_error(d, side):
    """A dimension is a JSON integer: 2.9 or "2" is an error, not truncated
    or parsed to 2."""
    matrix = json.loads(dumps_matrix(validate_unitary(np.eye(4), 2, 2)))
    template = {"d_a": 2, "d_b": 2, "layers": [{"kind": "query"}]}
    for record, load in ((matrix, loads_matrix), (template, loads_template)):
        with pytest.raises(MatrixFileError, match="must be integers"):
            load(json.dumps(dict(record, **{side: d})))


def test_scheme_with_non_integer_dimension_is_a_file_error(tmp_path):
    *_, scheme = _product_scheme_record(tmp_path)
    for d in NON_INTEGER_DIMENSIONS:
        for side in ("d_a", "d_b"):
            bad = dict(scheme, template=dict(scheme["template"], **{side: d}))
            with pytest.raises(MatrixFileError, match="must be integers"):
                loads_scheme(json.dumps(bad))


@pytest.mark.parametrize("d", [2.9, "2"])
def test_cli_verify_non_integer_dimension_exit2(tmp_path, capsys, d):
    a, b, scheme_path, scheme = _product_scheme_record(tmp_path)
    operand = json.loads(Path(a).read_text())
    Path(a).write_text(json.dumps(dict(operand, d_a=d)))
    assert main(["verify", str(scheme_path), a, b]) == 2
    assert "must be integers" in capsys.readouterr().err
    Path(a).write_text(json.dumps(operand))
    scheme_path.write_text(json.dumps(dict(scheme, template=dict(scheme["template"], d_a=d))))
    assert main(["verify", str(scheme_path), a, b]) == 2
    assert "must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("side", ["d_a", "d_b"])
@pytest.mark.parametrize("d", [0, -2])
def test_non_positive_dimension_is_a_file_error(d, side):
    """A dimension is at least 1: 0 would load a 0x2 template, and -2 would
    reach numpy as a negative shape."""
    matrix = json.loads(dumps_matrix(validate_unitary(np.eye(4), 2, 2)))
    for record, load in ((matrix, loads_matrix),
                         ({"d_a": 2, "d_b": 2, "layers": [{"kind": "query"}]}, loads_template),
                         ({"d_a": 2, "d_b": 2, "layers": []}, loads_template)):
        with pytest.raises(MatrixFileError, match="at least 1"):
            load(json.dumps(dict(record, **{side: d})))


def test_scheme_with_non_positive_dimension_is_a_file_error(tmp_path):
    *_, scheme = _product_scheme_record(tmp_path)
    for d in (0, -2):
        for side in ("d_a", "d_b"):
            bad = dict(scheme, template=dict(scheme["template"], **{side: d}))
            with pytest.raises(MatrixFileError, match="at least 1"):
                loads_scheme(json.dumps(bad))


# entries written as JSON strings, or as booleans alone: numpy would parse
# "1" and true as 1.0, so each of the first three records once loaded as the
# identity; rows of unequal length make numpy raise instead
NON_NUMBER_ENTRIES = {
    "strings": [["1", "0"], ["0", "0"], ["0", "0"], ["1", "0"]],
    "booleans": [[True, False], [False, False], [False, False], [True, False]],
    "null": [[1, 0], [None, 0], [0, 0], [1, 0]],
    "ragged": [[1, 0], [0], [0, 0], [1, 0]],
}


@pytest.mark.parametrize("name", NON_NUMBER_ENTRIES)
def test_non_number_entries_are_file_errors(tmp_path, name):
    entries = NON_NUMBER_ENTRIES[name]
    with pytest.raises(MatrixFileError, match="not an array of numbers"):
        loads_matrix(json.dumps({"d_a": 2, "d_b": 1, "entries": entries}))
    factor = entries[:2], entries[2:]
    with pytest.raises(MatrixFileError, match="not an array of numbers"):
        loads_template(json.dumps({"d_a": 2, "d_b": 2, "layers": [
            {"kind": "query"}, {"kind": "local", "factor_a": factor, "factor_b": factor}]}))
    *_, scheme = _product_scheme_record(tmp_path)
    with pytest.raises(MatrixFileError, match="not an array of numbers"):
        loads_scheme(json.dumps(dict(scheme, input_a=entries[:2])))


def test_unknown_layer_kind_is_a_file_error():
    with pytest.raises(MatrixFileError, match="unknown layer kind 'dense'"):
        loads_template(json.dumps({"d_a": 2, "d_b": 2, "layers": [{"kind": "dense"}]}))


def test_cli_classify_reads_stdin(tmp_path, monkeypatch, capsys):
    """classify - reads the matrix record from standard input and prints
    what the file path prints."""
    path = _write(tmp_path, "cz.json", CZ)
    assert main(["classify", path]) == 0
    from_file = capsys.readouterr().out
    with open(path, encoding="utf-8") as fh:
        monkeypatch.setattr(sys, "stdin", io.StringIO(fh.read()))
    assert main(["classify", "-"]) == 0
    assert capsys.readouterr().out == from_file


@pytest.mark.parametrize("key", ["budget", "achieved_overlap"])
@pytest.mark.parametrize("value", ["0.5", True, None])
def test_scheme_numbers_must_be_json_numbers(tmp_path, key, value):
    *_, scheme = _product_scheme_record(tmp_path)
    assert loads_scheme(json.dumps(dict(scheme, **{key: 0}))).template.query_count == 1
    with pytest.raises(MatrixFileError, match="achieved_overlap and budget must be numbers"):
        loads_scheme(json.dumps(dict(scheme, **{key: value})))


def test_scheme_number_beyond_float_range_is_a_file_error(tmp_path):
    """A 400-digit JSON integer is a number, but no float: a file error, not
    an OverflowError out of the reader."""
    *_, scheme = _product_scheme_record(tmp_path)
    with pytest.raises(MatrixFileError):
        loads_scheme(json.dumps(dict(scheme, budget=10 ** 400)))


def test_cli_verify_string_numbers_exit2(tmp_path, capsys):
    """The CZ-against-SWAP scheme with its budget, overlap and input written
    as strings is an input error, not a scheme with budget 0.5."""
    a = _write(tmp_path, "cz.json", CZ)
    b = _write(tmp_path, "swap.json", swap_operator(2))
    scheme_path = tmp_path / "scheme.json"
    assert main(["discriminate", a, b, "--out", str(scheme_path)]) == 0
    genuine = json.loads(scheme_path.read_text())
    as_strings = [[str(x) for x in pair] for pair in genuine["input_a"]]
    for edit in ({"budget": "0.5"}, {"achieved_overlap": True}, {"input_a": as_strings}):
        scheme_path.write_text(json.dumps(dict(genuine, **edit)))
        assert main(["verify", str(scheme_path), a, b]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("trace", ["i-a", {"x": 1}, [1, 2]])
def test_case_trace_must_be_a_list_of_strings(tmp_path, trace):
    """A string is not split into characters, an object does not give its
    keys and a list of numbers is not a trace: each is a file error."""
    *_, scheme = _product_scheme_record(tmp_path)
    assert loads_scheme(json.dumps(scheme)).case_trace == ["i-a"]
    with pytest.raises(MatrixFileError, match="case_trace must be a list of strings"):
        loads_scheme(json.dumps(dict(scheme, case_trace=trace)))


def test_cli_verify_string_case_trace_exit2(tmp_path, capsys):
    a, b, scheme_path, scheme = _product_scheme_record(tmp_path)
    scheme_path.write_text(json.dumps(dict(scheme, case_trace="i-a")))
    assert main(["verify", str(scheme_path), a, b]) == 2
    assert "error:" in capsys.readouterr().err


# a hand-written scheme that never queries: its outputs are its input, so
# the overlap is 1, inside the budget of 1 it claims
QUERYLESS_SCHEME = {"template": {"d_a": 2, "d_b": 2, "layers": []},
                    "input_a": [[1.0, 0.0], [0.0, 0.0]], "input_b": [[1.0, 0.0], [0.0, 0.0]],
                    "achieved_overlap": 1.0, "budget": 1.0, "case_trace": []}


def test_queryless_scheme_is_malformed():
    U, V = validate_unitary(np.eye(4), 2, 2), validate_unitary(CZ, 2, 2)
    with pytest.raises(MalformedScheme, match="never queries"):
        loads_scheme(json.dumps(QUERYLESS_SCHEME))
    scheme = LoccSequentialScheme(CircuitTemplate(2, 2, []), np.eye(2)[0], np.eye(2)[0],
                                  1.0, 1.0, [])
    with pytest.raises(MalformedScheme, match="never queries"):
        verify_scheme(scheme, U, V)


def test_cli_verify_queryless_scheme_exit2(tmp_path, capsys):
    """Against I4 and CZ the overlap, 1, is within the budget, yet verify
    refuses the scheme."""
    a, b = _write(tmp_path, "i.json", np.eye(4)), _write(tmp_path, "cz.json", CZ)
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(json.dumps(QUERYLESS_SCHEME))
    assert main(["verify", str(scheme_path), a, b]) == 2
    captured = capsys.readouterr()
    assert "never queries" in captured.err and "verified: pass" not in captured.out


def test_scheme_round_trip():
    scheme, report = discriminate(validate_unitary(CNOT, 2, 2),
                                  validate_unitary(np.kron(HAD, HAD), 2, 2),
                                  RunConfig())
    text = dumps_scheme(scheme, report)
    back = loads_scheme(text)
    assert back.case_trace == scheme.case_trace
    assert back.budget == scheme.budget
    assert back.template.query_count == scheme.template.query_count
    data = json.loads(text)
    assert data["report"]["passed"] is True


def test_cli_classify(tmp_path, capsys):
    path = _write(tmp_path, "cnot.json", CNOT)
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "Imprimitive" in out
    assert "1.41421356237" in out


def test_cli_classify_prints_both_factors(tmp_path, capsys):
    """A product operand prints each factor header, then that factor's rows
    as +.12g real and imaginary parts."""
    path = _write(tmp_path, "product.json", np.kron(HAD, SX))
    assert main(["classify", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    form = classify_primitive(load_matrix_file(path))
    assert form.kind == "Product"
    for name, factor in (("factor_a", form.factor_a), ("factor_b", form.factor_b)):
        at = lines.index(f"{name}:")
        rows = ["  " + "  ".join(f"{z.real:+.12g}{z.imag:+.12g}j" for z in row) for row in factor]
        assert lines[at + 1:at + 1 + len(rows)] == rows
    assert lines.index("factor_a:") < lines.index("factor_b:")


def test_cli_classify_swap(tmp_path, capsys):
    path = _write(tmp_path, "swap.json", swap_operator(2))
    assert main(["classify", path]) == 0
    assert "SwapProduct" in capsys.readouterr().out


def test_cli_classify_decomposes_each_realignment_once(tmp_path, monkeypatch, capsys):
    """The printed coefficients are the ones classify_primitive computed:
    one Schmidt decomposition for the plain realignment, one for the swapped."""
    from seqlocc import structure
    calls = []
    real = structure._schmidt

    def counting(R, d_a, d_b):
        calls.append(R)
        return real(R, d_a, d_b)

    # operator_schmidt decomposes through the same helper, so a direct call
    # from cli counts too
    monkeypatch.setattr(structure, "_schmidt", counting)
    path = _write(tmp_path, "cz.json", CZ)
    assert main(["classify", path]) == 0
    assert "schmidt_coefficients: [1.41421356237, 1.41421356237" in capsys.readouterr().out
    assert len(calls) == 2


def test_cli_classify_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d_a": 2, "d_b": 2, "entries": [[1, 0]]}')
    assert main(["classify", str(bad)]) == 2


def test_cli_theta_pair(tmp_path, capsys):
    a = _write(tmp_path, "i.json", np.eye(4))
    b = _write(tmp_path, "szi.json", np.kron(np.diag([1, -1]), np.eye(2)))
    csv = tmp_path / "phases.csv"
    assert main(["theta", a, b, "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "single_query_distinguishable: True" in out
    assert "parallel_query_count: 1" in out
    text = csv.read_text()
    assert text.splitlines()[0] == "index,phase,multiplicity"
    assert len(text.splitlines()) == 3  # header + two distinct phases


def test_cli_theta_reaches_pi_as_one_predicate(tmp_path, capsys):
    """An arc a few 1e-12 below pi - TOL_ANGLE, inside the quotient slack of
    queries_for_arc: the reaches-pi line reads the same rule as the count."""
    theta = (np.pi - TOL_ANGLE) * (1 - 2e-13)
    a = _write(tmp_path, "i.json", np.eye(4))
    b = _write(tmp_path, "v.json", np.kron(np.diag([1, np.exp(1j * theta)]), np.eye(2)))
    assert main(["theta", a, b]) == 0
    out = capsys.readouterr().out
    assert "single_query_distinguishable: True" in out
    assert "parallel_query_count: 1" in out


@pytest.mark.parametrize("operands", [1, 2])
def test_cli_theta_csv_decomposes_once(tmp_path, monkeypatch, operands):
    """The arc and the CSV rows come from one eigendecomposition of W."""
    from seqlocc import arcs, cli
    calls = []
    real = arcs.eig_unitary

    def counting(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(arcs, "eig_unitary", counting)
    monkeypatch.setattr(cli, "eig_unitary", counting)
    paths = [_write(tmp_path, "cnot.json", CNOT), _write(tmp_path, "cz.json", CZ)][:operands]
    assert main(["theta", *paths, "--csv", str(tmp_path / "p.csv")]) == 0
    assert len(calls) == 1


def test_cli_theta_single_cnot(tmp_path, capsys):
    path = _write(tmp_path, "cnot.json", CNOT)
    assert main(["theta", path]) == 0
    out = capsys.readouterr().out
    # CNOT spectrum {1, 1, 1, -1}: the arc is exactly pi
    assert f"theta: {np.pi!r}" in out


def test_cli_theta_dimension_mismatch(tmp_path):
    a = _write(tmp_path, "a.json", np.eye(4), 2, 2)
    b = _write(tmp_path, "b.json", np.eye(6), 2, 3)
    assert main(["theta", a, b]) == 2


def test_cli_discriminate_verify_round_trip(tmp_path, capsys):
    a = _write(tmp_path, "i.json", np.eye(4))
    b = _write(tmp_path, "szi.json", np.kron(np.diag([1, -1]), np.eye(2)))
    scheme_path = str(tmp_path / "scheme.json")
    assert main(["discriminate", a, b, "--out", scheme_path]) == 0
    err = capsys.readouterr().err
    assert "case_trace: i-a" in err
    assert "verified: pass" in err
    assert main(["verify", scheme_path, a, b]) == 0
    out = capsys.readouterr().out
    assert "verified: pass" in out


def test_cli_verify_stacks_the_factors_once(tmp_path, monkeypatch, capsys):
    """seqlocc verify checks the scheme through engine.verify_scheme, once,
    which validates and propagates with one factor stack: every seqlocc
    module that holds templates._factor_stacks gets the counting wrapper,
    and one verify call forms the stacks once."""
    import sys
    from seqlocc import cli, templates
    a = _write(tmp_path, "i.json", np.eye(4))
    b = _write(tmp_path, "szi.json", np.kron(np.diag([1, -1]), np.eye(2)))
    scheme_path = str(tmp_path / "scheme.json")
    assert main(["discriminate", a, b, "--out", scheme_path]) == 0
    calls = {"verify_scheme": 0, "_factor_stacks": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    real = templates._factor_stacks
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "seqlocc":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting("_factor_stacks", real))
    monkeypatch.setattr(cli, "verify_scheme", counting("verify_scheme", cli.verify_scheme))
    capsys.readouterr()
    assert main(["verify", scheme_path, a, b]) == 0
    assert "verified: pass" in capsys.readouterr().out
    assert calls == {"verify_scheme": 1, "_factor_stacks": 1}


def test_cli_verify_dimension_mismatch_exit2(tmp_path, capsys):
    a = _write(tmp_path, "i.json", np.eye(4))
    b = _write(tmp_path, "szi.json", np.kron(np.diag([1, -1]), np.eye(2)))
    scheme_path = str(tmp_path / "scheme.json")
    assert main(["discriminate", a, b, "--out", scheme_path]) == 0
    rng = np.random.default_rng(3)
    u3, v3 = (_write(tmp_path, f"{n}3.json", random_unitary(9, rng), 3, 3) for n in "uv")
    capsys.readouterr()
    assert main(["verify", scheme_path, u3, v3]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_rejects_operands_split_otherwise(tmp_path, capsys):
    """A 2x3 scheme checked against the same matrices declared 3x2: its layers
    are not local and its input not a product state under that split."""
    rng = np.random.default_rng(5)
    M = [random_unitary(6, rng) for _ in range(2)]
    U, V = (validate_unitary(m, 2, 3) for m in M)
    U32, V32 = (validate_unitary(m, 3, 2) for m in M)
    scheme, _ = discriminate(U, V)
    assert verify_scheme(scheme, U, V).passed
    for pair in ((U32, V32), (U, V32)):
        with pytest.raises(DimensionMismatch):
            verify_scheme(scheme, *pair)
    u, v = _write(tmp_path, "u.json", M[0], 2, 3), _write(tmp_path, "v.json", M[1], 2, 3)
    u32, v32 = (_write(tmp_path, f"{n}32.json", m, 3, 2) for n, m in zip("uv", M))
    scheme_path = str(tmp_path / "scheme.json")
    assert main(["discriminate", u, v, "--out", scheme_path]) == 0
    capsys.readouterr()
    assert main(["verify", scheme_path, u32, v32]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_flags_a_subcommand_does_not_read(tmp_path, capsys):
    a = _write(tmp_path, "i.json", np.eye(4))
    b = _write(tmp_path, "szi.json", np.kron(np.diag([1, -1]), np.eye(2)))
    scheme_path = str(tmp_path / "scheme.json")
    assert main(["discriminate", a, b, "--out", scheme_path, "--restarts", "3"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", scheme_path, a, b, "--restarts", "3"])
    assert exc.value.code == 2
    assert "--restarts" in capsys.readouterr().err
    assert main(["verify", scheme_path, a, b, "--tol-unitarity", "2.5e-9"]) == 0


def test_cli_discriminate_queryless_scheme_exit4(tmp_path, capsys, monkeypatch):
    """With the direct route off, --tol-epsilon 0.5 lets synthesis accept a
    controlled target with no query; ii-a refuses it before building a
    scheme, as a construction failure (exit 4) that names its case, the
    target, the delta reached and epsilon, not as an input error (exit 2)."""
    monkeypatch.setattr(engine, "_direct", lambda build, U, V: None)
    rng = np.random.default_rng(5)
    u = _write(tmp_path, "u.json", random_unitary(4, rng))
    v = _write(tmp_path, "v.json", np.kron(random_unitary(2, rng), random_unitary(2, rng)))
    assert main(["discriminate", u, v, "--tol-epsilon", "0.5"]) == 4
    assert re.search(r"case ii-a: controlled target synthesized with no query: "
                     r"delta \S+ within epsilon 0.5", capsys.readouterr().err)


def test_cli_discriminate_phase_equivalent_exit3(tmp_path):
    a = _write(tmp_path, "a.json", CNOT)
    b = _write(tmp_path, "b.json", np.exp(0.2j) * CNOT)
    assert main(["discriminate", a, b]) == 3


def test_cli_synth_swap_from_cnot(tmp_path, capsys):
    target = _write(tmp_path, "swap.json", swap_operator(2))
    gen = _write(tmp_path, "cnot.json", CNOT)
    out_path = str(tmp_path / "template.json")
    assert main(["synth", target, gen, "--out", out_path]) == 0
    err = capsys.readouterr().err
    assert "query_count: 3" in err
    from seqlocc import loads_template, evaluate_template, phase_distance
    with open(out_path) as fh:
        tpl = loads_template(fh.read())
    assert phase_distance(evaluate_template(tpl, CNOT), swap_operator(2)) <= 1e-6


def test_cli_synth_primitive_generator_exit4(tmp_path):
    target = _write(tmp_path, "swap.json", swap_operator(2))
    gen = _write(tmp_path, "hh.json", np.kron(HAD, HAD))
    assert main(["synth", target, gen]) == 4


def test_cli_deterministic_scheme_files(tmp_path):
    a = _write(tmp_path, "cnot.json", CNOT)
    b = _write(tmp_path, "cz.json", CZ)
    p1 = str(tmp_path / "s1.json")
    p2 = str(tmp_path / "s2.json")
    assert main(["discriminate", a, b, "--out", p1, "--seed", "0"]) == 0
    assert main(["discriminate", a, b, "--out", p2, "--seed", "0"]) == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_cli_builds_the_parser_once(tmp_path):
    path = _write(tmp_path, "cnot.json", CNOT)
    build_parser.cache_clear()
    for _ in range(5):
        assert main(["theta", path]) == 0
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def test_import_builds_no_parser():
    probe = "import seqlocc.cli; print(seqlocc.cli.build_parser.cache_info().currsize)"
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "0"


def test_cli_flags_do_not_leak_between_calls(tmp_path, capsys):
    """The parser is shared, but every call starts from the defaults."""
    # a Haar pair that the direct route answers with a seeded draw (probe
    # k >= d + 1 follows the d basis states and the uniform superposition),
    # so its scheme bytes depend on the seed
    rng = np.random.default_rng(33)
    U, V = (validate_unitary(random_unitary(4, rng), 2, 2) for _ in range(2))
    a, b = (_write(tmp_path, f"{n}.json", X.matrix) for n, X in zip("uv", (U, V)))
    seeded, plain, after_error = (tmp_path / f"{n}.json" for n in ("s5", "s", "e"))
    scheme, report = discriminate(U, V, RunConfig())
    probe = re.search(r"direct: one query, probe (\d+) on B", report.wall_notes)
    assert probe is not None and int(probe.group(1)) >= 3
    expected = dumps_scheme(scheme, report) + "\n"
    assert main(["discriminate", a, b, "--out", str(seeded), "--seed", "5"]) == 0
    assert main(["discriminate", a, b, "--out", str(plain)]) == 0
    assert seeded.read_text() != expected == plain.read_text()
    with pytest.raises(SystemExit) as exc:
        main(["discriminate", a, b, "--seed", "5", "--restarts", "x"])
    assert exc.value.code == 2
    assert main(["discriminate", a, b, "--out", str(after_error)]) == 0
    assert after_error.read_text() == expected

    assert main(["verify", str(plain), a, b, "--tol-unitarity", "2.5e-9"]) == 0
    assert main(["verify", str(plain), a, b]) == 0
    # operands 1.5e-9 off unitarity pass at 2.5e-9 only, not at the default 1e-9
    H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H += H.conj().T
    nudge = np.eye(4) + (np.sqrt(1 + 1.5e-9) - 1) * H / np.abs(np.linalg.eigvalsh(H)).max()
    na, nb = (str(tmp_path / f"n{n}.json") for n in "uv")
    for path, X in ((na, U), (nb, V)):
        save_matrix_file(path, validate_unitary(X.matrix @ nudge, 2, 2, tol=2.5e-9))
    nudged = str(tmp_path / "n.json")
    assert main(["discriminate", na, nb, "--out", nudged, "--tol-unitarity", "2.5e-9"]) == 0
    assert main(["verify", nudged, na, nb, "--tol-unitarity", "2.5e-9"]) == 0
    assert main(["verify", nudged, na, nb]) == 2
    assert "exceeds tolerance 1.000e-09" in capsys.readouterr().err


def _forged_records(text):
    """A genuine scheme record and forgeries of it, with the expected error."""
    data = json.loads(text)
    local = next(i for i, r in enumerate(data["template"]["layers"]) if r["kind"] == "local")
    zero_factor = json.loads(text)
    zero_factor["template"]["layers"][local]["factor_a"] = [[[0.0, 0.0]] * 2] * 2
    zero_input = json.loads(text)
    zero_input["input_a"] = [[0.0, 0.0]] * 2
    scaled_input = json.loads(text)
    scaled_input["input_b"] = [[2 * re, 2 * im] for re, im in scaled_input["input_b"]]
    short_input = json.loads(text)
    short_input["input_b"] = short_input["input_b"][:1]
    bad_budgets = [{**json.loads(text), "budget": b} for b in (float("inf"), float("nan"), -1.0)]
    return data, [(zero_factor, NotUnitary), (zero_input, MalformedScheme),
                  (scaled_input, MalformedScheme), (short_input, MalformedScheme),
                  *((record, MalformedScheme) for record in bad_budgets)]


def test_scheme_loaders_reject_forged(tmp_path):
    """loads_scheme and load_scheme_file validate what they parse."""
    U = validate_unitary(np.eye(4), 2, 2)
    V = validate_unitary(np.kron(np.diag([1, 1j]), np.eye(2)), 2, 2)
    scheme, _ = discriminate(U, V, RunConfig())
    genuine, forged = _forged_records(dumps_scheme(scheme))
    path = tmp_path / "scheme.json"
    for record, error in [(genuine, None), *forged]:
        path.write_text(json.dumps(record))
        for load in (lambda: loads_scheme(json.dumps(record)), lambda: load_scheme_file(str(path))):
            if error is None:
                assert load().template.query_count == 2
            else:
                with pytest.raises(error):
                    load()


def test_cli_verify_rejects_forged_scheme(tmp_path, capsys):
    a = _write(tmp_path, "i.json", np.eye(4))
    b = _write(tmp_path, "s.json", np.kron(np.diag([1, 1j]), np.eye(2)))
    scheme_path = tmp_path / "scheme.json"
    assert main(["discriminate", a, b, "--out", str(scheme_path)]) == 0
    _, forged = _forged_records(scheme_path.read_text())
    for k, (record, _) in enumerate(forged):
        path = tmp_path / f"forged{k}.json"
        path.write_text(json.dumps(record))
        assert main(["verify", str(path), a, b]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_operand_is_not_unitary(bad):
    """A NaN or infinite entry is an infinite unitarity defect, not an SVD
    that fails to converge."""
    M = np.eye(4, dtype=complex)
    M[1, 2] = bad
    with pytest.raises(NotUnitary) as exc:
        validate_unitary(M, 2, 2)
    assert exc.value.defect == np.inf


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_cli_non_finite_matrix_file_exit2(literal, tmp_path, capsys):
    """json reads the NaN and Infinity literals, so a matrix file can carry
    them: discriminate reports the defect and exits 2."""
    u = _write(tmp_path, "u.json", CNOT)
    data = json.loads(Path(u).read_text())
    data["entries"][5][0] = "@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data).replace('"@"', literal))
    assert main(["discriminate", str(bad), u]) == 2
    err = capsys.readouterr().err
    assert "unitarity defect inf" in err and "converge" not in err
