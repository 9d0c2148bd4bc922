"""The tolerance contract: every operand validate_unitary accepts at
RunConfig.unitarity_tol gets a scheme, a matrix far from unitary is still
refused, RunConfig rejects settings no search can run with, and the
rounding floors of config.py are constants, not settings."""

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
    operator_schmidt,
    random_unitary,
    smallest_arc,
    validate_unitary,
)
from seqlocc import engine
from seqlocc.cli import FLAGS, main
from seqlocc.config import (
    CLOSED_FORM_TOL,
    EIG_MAX_DEFECT,
    MAX_UNITARITY_TOL,
    MIN_OVERLAP_TOL,
    RANK_TOL,
    TOL_ANGLE,
)
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


def test_run_config_holds_targets_and_budgets_only():
    assert [f.name for f in fields(RunConfig)] == [
        "unitarity_tol", "overlap_tol", "epsilon", "seed", "restarts", "k_max"]


@pytest.mark.parametrize("name", ["distinct_tol", "rank_tol", "tol_angle"])
def test_rounding_floors_are_not_settings(name):
    with pytest.raises(TypeError):
        RunConfig(**{name: 1e-6})


@pytest.mark.parametrize("command, flag", [
    ("classify", "--tol-rank"), ("theta", "--tol-distinct"), ("theta", "--tol-angle"),
    ("discriminate", "--tol-distinct"), ("discriminate", "--tol-rank"),
    ("discriminate", "--tol-angle"), ("synth", "--tol-rank")])
def test_removed_flag_exit2(command, flag, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, M in (("u.json", CNOT), ("v.json", CZ)):
        save_matrix_file(name, validate_unitary(M, 2, 2))
    argv = [command, "u.json"] + ([] if command == "classify" else ["v.json"])
    assert main(argv) == 0
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "1e-6"])
    assert exc.value.code == 2


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


TOLERANCES = ["unitarity_tol", "overlap_tol", "epsilon"]


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


@pytest.mark.parametrize("rank_tol", [CLOSED_FORM_TOL, 0.999])
def test_identity_is_a_product_at_every_accepted_rank_tol(rank_tol):
    # the one-level bound of the case engine rests on this (engine._dispatch_pair):
    # classify_primitive cuts at RANK_TOL, inside the range of cutoffs that hold it
    assert CLOSED_FORM_TOL <= RANK_TOL < 0.999
    for d_a, d_b in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (2, 6), (6, 6)):
        identity = validate_unitary(np.eye(d_a * d_b), d_a, d_b)
        assert operator_schmidt(identity).rank(rank_tol) == 1, (d_a, d_b)
        assert classify_primitive(identity).kind == "Product", (d_a, d_b)


def _arc_pair(theta):
    """I against diag(1, e^{i theta}) (x) I_2: a product pair with arc theta."""
    return (validate_unitary(np.eye(4), 2, 2),
            validate_unitary(np.kron(np.diag([1, np.exp(1j * theta)]), np.eye(2)), 2, 2))


def test_overlap_tol_floor():
    # k queries close the arc (pi - TOL_ANGLE) / k at overlap sin(TOL_ANGLE / 2)
    assert MIN_OVERLAP_TOL == pytest.approx(2 * np.sin(TOL_ANGLE / 2))
    assert RunConfig(overlap_tol=MIN_OVERLAP_TOL).overlap_tol == MIN_OVERLAP_TOL
    for value in (1e-10, 0.5 * MIN_OVERLAP_TOL):
        with pytest.raises(ValueError, match="overlap_tol must be at least 1e-08"):
            RunConfig(overlap_tol=value)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_arc_closed_short_of_pi_at_the_overlap_tol_floor(k):
    scheme, report = discriminate(*_arc_pair((np.pi - TOL_ANGLE) / k),
                                  RunConfig(overlap_tol=MIN_OVERLAP_TOL))
    assert report.passed and report.query_count == k
    assert report.overlap == pytest.approx(np.sin(TOL_ANGLE / 2), rel=1e-3)


def test_cli_overlap_tol_below_floor_exit2(tmp_path, capsys):
    u, v = (str(tmp_path / f"{n}.json") for n in "uv")
    for path, X in zip((u, v), _arc_pair(np.pi - TOL_ANGLE)):
        save_matrix_file(path, X)
    assert main(["discriminate", u, v, "--tol-overlap", "1e-10"]) == 2
    assert "overlap_tol must be at least 1e-08" in capsys.readouterr().err


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


def test_negative_seed_rejected():
    assert RunConfig(seed=0).seed == 0
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        RunConfig(seed=-1)


@pytest.mark.parametrize("name", ["seed", "restarts", "k_max"])
@pytest.mark.parametrize("value", [2.5, 3.0, "3", True, None])
def test_non_integer_seed_and_budget_rejected(name, value):
    """A float, string or bool seed or budget is refused when the config is
    built, not met later inside synthesize as an untyped TypeError."""
    assert getattr(RunConfig(**{name: np.int64(3)}), name) == 3
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        RunConfig(**{name: value})


@pytest.mark.parametrize("name", ["unitarity_tol", "overlap_tol", "epsilon"])
@pytest.mark.parametrize("value", [True, "1e-6", None])
def test_non_number_tolerance_rejected(name, value):
    """A bool, string or None tolerance is refused with ValueError, not read
    as 1.0 or met by a comparison as an untyped TypeError."""
    default = getattr(RunConfig, name)
    assert getattr(RunConfig(**{name: np.float64(default)}), name) == default
    with pytest.raises(ValueError, match=f"{name} must be a number"):
        RunConfig(**{name: value})


def test_cli_negative_seed_exit2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, M in (("u.json", CNOT), ("v.json", CZ)):
        save_matrix_file(name, validate_unitary(M, 2, 2))
    assert main(["discriminate", "u.json", "v.json", "--seed", "-1"]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
