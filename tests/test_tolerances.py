"""The tolerance contract: every operand validate_unitary accepts at
RunConfig.unitarity_tol gets a scheme, a matrix far from unitary is still
refused, and RunConfig rejects settings no search can run with."""

from dataclasses import fields

import numpy as np
import pytest

from seqlocc import (
    NumericalFailure,
    RunConfig,
    classify_primitive,
    dagger,
    discriminate,
    eig_unitary,
    random_unitary,
    smallest_arc,
    validate_unitary,
)
from seqlocc import engine
from seqlocc.cli import FLAGS, main
from seqlocc.config import CLOSED_FORM_TOL, EIG_MAX_DEFECT, MAX_UNITARITY_TOL
from seqlocc.io import save_matrix_file

from conftest import CNOT, CZ

CFG = RunConfig()


def _nudged(M, defect, rng):
    """M (I + t H) for a random Hermitian H with top eigenvalue 1, t chosen so
    the unitarity defect of a unitary M is exactly `defect`."""
    n = M.shape[0]
    H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = H + H.conj().T
    lam = np.linalg.eigvalsh(H)
    H = H / lam[np.argmax(np.abs(lam))]
    return M @ (np.eye(n) + (np.sqrt(1.0 + defect) - 1.0) * H)


@pytest.fixture(scope="module", params=[2, 3], ids=["2x2", "3x3"])
def nudged_pair(request):
    d = request.param
    rng = np.random.default_rng(11)
    U, V = (validate_unitary(_nudged(random_unitary(d * d, rng), 0.9 * CFG.unitarity_tol, rng),
                             d, d) for _ in range(2))
    for X in (U, V):
        assert 0.8 * CFG.unitarity_tol < X.unitarity_defect <= CFG.unitarity_tol
    return d, U, V


def test_nudged_pair_has_an_arc(nudged_pair):
    _, U, V = nudged_pair
    assert smallest_arc(dagger(U) @ V.matrix).theta > 0


@pytest.mark.parametrize("direct", [True, False], ids=["direct", "engine"])
def test_nudged_pair_discriminates(nudged_pair, direct, monkeypatch):
    _, U, V = nudged_pair
    if not direct:
        monkeypatch.setattr(engine, "_direct", lambda build, U, V: None)
    scheme, report = discriminate(U, V, CFG)
    assert report.passed
    assert (scheme.case_trace == ["direct"]) == direct


def test_nudged_pair_cli(nudged_pair, tmp_path, capsys):
    d, U, V = nudged_pair
    u, v, s = (str(tmp_path / name) for name in ("u.json", "v.json", "scheme.json"))
    save_matrix_file(u, U)
    save_matrix_file(v, V)
    assert main(["theta", u, v]) == 0
    assert main(["discriminate", u, v, "--out", s]) == 0
    capsys.readouterr()
    assert main(["verify", s, u, v]) == 0
    assert "verified: pass" in capsys.readouterr().out


@pytest.mark.parametrize("decompose", [eig_unitary, smallest_arc])
def test_far_from_unitary_still_refused(decompose):
    with pytest.raises(NumericalFailure):
        decompose(np.diag([1.0, 2.0]).astype(complex))


def test_every_setting_has_a_flag():
    assert sorted(f.name for f in fields(RunConfig)) == sorted(FLAGS)


@pytest.mark.parametrize("name", ["restarts", "k_max"])
def test_negative_budget_rejected(name):
    assert getattr(RunConfig(**{name: 0}), name) == 0
    with pytest.raises(ValueError, match=name):
        RunConfig(**{name: -1})


@pytest.mark.parametrize("argv", [
    ["synth", "t.json", "g.json", "--k-max", "-1"],
    ["synth", "t.json", "g.json", "--restarts", "-3"],
    ["discriminate", "u.json", "v.json", "--restarts", "-1"],
])
def test_cli_negative_budget_exit2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, M in (("t.json", CZ), ("g.json", CNOT), ("u.json", CNOT), ("v.json", CZ)):
        save_matrix_file(name, validate_unitary(M, 2, 2))
    assert main(argv) == 2
    assert "must be nonnegative" in capsys.readouterr().err


def test_max_depth_flag_is_gone(tmp_path, monkeypatch):
    # the case engine nests at most once by construction, so no setting bounds it
    monkeypatch.chdir(tmp_path)
    for name, M in (("u.json", CNOT), ("v.json", CZ)):
        save_matrix_file(name, validate_unitary(M, 2, 2))
    with pytest.raises(SystemExit) as exc:
        main(["discriminate", "u.json", "v.json", "--max-depth", "4"])
    assert exc.value.code == 2


TOLERANCES = ["unitarity_tol", "distinct_tol", "overlap_tol", "epsilon", "rank_tol", "tol_angle"]


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", TOLERANCES)
def test_nonfinite_tolerance_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        RunConfig(**{name: value})


def test_cli_nan_tolerance_exit2(tmp_path, capsys):
    # a NaN tolerance passes every "defect <= tol" check as False and every
    # "defect > tol" check as False too: refused before anything is read
    u = str(tmp_path / "u.json")
    save_matrix_file(u, validate_unitary(CNOT, 2, 2))
    assert main(["theta", u, "--tol-unitarity", "nan"]) == 2
    assert "unitarity_tol must be positive and finite" in capsys.readouterr().err


def test_rank_tol_range():
    for value in (CLOSED_FORM_TOL, CFG.rank_tol, 0.5):
        assert RunConfig(rank_tol=value).rank_tol == value
    for value in (1e-20, 1.0, 2.0):
        with pytest.raises(ValueError, match="rank_tol must be in"):
            RunConfig(rank_tol=value)


def test_cli_rank_tol_out_of_range_exit2(tmp_path, capsys):
    u = str(tmp_path / "u.json")
    save_matrix_file(u, validate_unitary(CNOT, 2, 2))
    assert main(["classify", u, "--tol-rank", "1"]) == 2
    assert "rank_tol must be in" in capsys.readouterr().err


@pytest.mark.parametrize("rank_tol", [CLOSED_FORM_TOL, 0.999])
def test_identity_is_a_product_at_every_accepted_rank_tol(rank_tol):
    # the one-level bound of the case engine rests on this (engine._dispatch_pair)
    for d_a, d_b in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (2, 6), (6, 6)):
        identity = validate_unitary(np.eye(d_a * d_b), d_a, d_b)
        assert classify_primitive(identity, rank_tol).kind == "Product", (d_a, d_b)


def test_unitarity_tol_capped_at_eig_max_defect():
    assert MAX_UNITARITY_TOL == EIG_MAX_DEFECT / 4
    assert RunConfig(unitarity_tol=MAX_UNITARITY_TOL).unitarity_tol == MAX_UNITARITY_TOL
    with pytest.raises(ValueError, match="unitarity_tol must be at most 2.5e-09"):
        RunConfig(unitarity_tol=2 * MAX_UNITARITY_TOL)


@pytest.mark.parametrize("d", [2, 3], ids=["2x2", "3x3"])
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_discriminate_at_the_unitarity_tol_cap(d, seed):
    """Operands just inside the largest unitarity_tol a run accepts still get
    a scheme: U^dag V, with more defect than either, stays decomposable."""
    cfg = RunConfig(unitarity_tol=MAX_UNITARITY_TOL)
    rng = np.random.default_rng(seed)
    U, V = (validate_unitary(_nudged(random_unitary(d * d, rng), 0.95 * MAX_UNITARITY_TOL, rng),
                             d, d, tol=MAX_UNITARITY_TOL) for _ in range(2))
    scheme, report = discriminate(U, V, cfg)
    assert report.passed


@pytest.mark.parametrize("command", ["theta", "discriminate"])
def test_cli_unitarity_tol_above_cap_exit2(command, tmp_path, capsys):
    # operands at a defect eig_unitary cannot decompose, read at a tolerance
    # that accepts them: refused before any decomposition, not late in one
    rng = np.random.default_rng(11)
    u, v = (str(tmp_path / f"{n}.json") for n in "uv")
    for path in (u, v):
        save_matrix_file(path, validate_unitary(_nudged(random_unitary(4, rng), 5e-8, rng),
                                                2, 2, tol=1e-7))
    assert main([command, u, v, "--tol-unitarity", "1e-7"]) == 2
    assert "unitarity_tol must be at most 2.5e-09" in capsys.readouterr().err
