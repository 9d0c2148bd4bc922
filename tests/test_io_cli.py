import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqlocc import (
    RunConfig,
    discriminate,
    random_unitary,
    swap_operator,
    validate_unitary,
    verify_scheme,
)
from seqlocc.cli import build_parser, main
from seqlocc.errors import DimensionMismatch, MalformedScheme, MatrixFileError, NotUnitary
from seqlocc.io import (
    dumps_matrix,
    dumps_scheme,
    load_matrix_file,
    loads_matrix,
    loads_scheme,
    loads_template,
    save_matrix_file,
    scheme_from_dict,
)

from conftest import CNOT, CZ, HAD


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


def test_cli_classify_swap(tmp_path, capsys):
    path = _write(tmp_path, "swap.json", swap_operator(2))
    assert main(["classify", path]) == 0
    assert "SwapProduct" in capsys.readouterr().out


def test_cli_classify_decomposes_each_realignment_once(tmp_path, monkeypatch, capsys):
    """The printed coefficients are the ones classify_primitive computed:
    one operator_schmidt for the plain realignment, one for the swapped."""
    from seqlocc import cli, structure
    calls = []
    real = structure.operator_schmidt

    def counting(U):
        calls.append(U)
        return real(U)

    monkeypatch.setattr(structure, "operator_schmidt", counting)
    # a direct call from cli counts too, should it import the function again
    monkeypatch.setattr(cli, "operator_schmidt", counting, raising=False)
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
    # a Haar pair whose direct-route probes, hence scheme bytes, depend on the seed
    rng = np.random.default_rng(28)
    U, V = (validate_unitary(random_unitary(4, rng), 2, 2) for _ in range(2))
    a, b = (_write(tmp_path, f"{n}.json", X.matrix) for n, X in zip("uv", (U, V)))
    seeded, plain, after_error = (tmp_path / f"{n}.json" for n in ("s5", "s", "e"))
    expected = dumps_scheme(*discriminate(U, V, RunConfig())) + "\n"
    assert main(["discriminate", a, b, "--out", str(seeded), "--seed", "5"]) == 0
    assert main(["discriminate", a, b, "--out", str(plain)]) == 0
    assert seeded.read_text() != expected == plain.read_text()
    with pytest.raises(SystemExit) as exc:
        main(["discriminate", a, b, "--seed", "5", "--tol-rank", "x"])
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


def test_scheme_from_dict_rejects_forged():
    U = validate_unitary(np.eye(4), 2, 2)
    V = validate_unitary(np.kron(np.diag([1, 1j]), np.eye(2)), 2, 2)
    scheme, _ = discriminate(U, V, RunConfig())
    genuine, forged = _forged_records(dumps_scheme(scheme))
    assert scheme_from_dict(genuine).template.query_count == 2
    for record, error in forged:
        with pytest.raises(error):
            scheme_from_dict(record)


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
