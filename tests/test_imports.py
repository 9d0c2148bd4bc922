"""What each path loads of scipy. scipy.linalg is imported by the LAPACK
binding of linalg the first time it serves a routine (eig_unitary, the SVD
kernels under classify_primitive and discriminate), and scipy.optimize
inside synthesize, so importing the package, verifying a scheme and a
direct pair answered by a deterministic probe of the first side run on
numpy alone. Each check runs in a fresh interpreter, because this process
has scipy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqlocc import discriminate, kron, random_unitary, validate_unitary
from seqlocc.io import dumps_scheme, save_matrix_file

from conftest import CNOT, HAD, I2, SZ

SRC = Path(__file__).resolve().parent.parent / "src"
WATCHED = ("scipy.linalg", "scipy.optimize")


def _loaded_after(script: str, *args: str) -> set[str]:
    """The WATCHED modules loaded once `script` has run in a new interpreter."""
    probe = (script + "\nimport json, sys\n"
             f"print(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return set(json.loads(done.stdout.strip().splitlines()[-1]))


@pytest.fixture(scope="module")
def product_pair(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("product_pair")
    U = validate_unitary(kron(SZ, I2), 2, 2)
    V = validate_unitary(kron(HAD, I2), 2, 2)
    paths = [str(tmp / name) for name in ("u.json", "v.json", "scheme.json")]
    save_matrix_file(paths[0], U)
    save_matrix_file(paths[1], V)
    (tmp / "scheme.json").write_text(dumps_scheme(*discriminate(U, V)), encoding="utf-8")
    return paths


def test_import_loads_numpy_only():
    assert _loaded_after("import seqlocc, seqlocc.cli") == set()


def test_cli_verify_loads_numpy_only(product_pair):
    u, v, scheme = product_pair
    script = ("import sys\nfrom seqlocc.cli import main\n"
              "assert main(['verify', sys.argv[3], sys.argv[1], sys.argv[2]]) == 0")
    assert _loaded_after(script, u, v, scheme) == set()


def test_cli_classify_loads_linalg(product_pair):
    """classify_primitive decomposes through the LAPACK binding."""
    u, _, _ = product_pair
    script = ("import sys\nfrom seqlocc.cli import main\n"
              "assert main(['classify', sys.argv[1]]) == 0")
    assert _loaded_after(script, u) == {"scipy.linalg"}


def test_discriminate_product_pair_loads_linalg_only(product_pair):
    u, v, _ = product_pair
    script = ("import sys\nfrom seqlocc import discriminate\n"
              "from seqlocc.io import load_matrix_file\n"
              "assert discriminate(*map(load_matrix_file, sys.argv[1:3]))[1].passed")
    assert _loaded_after(script, u, v) == {"scipy.linalg"}


def test_haar_direct_pair_loads_numpy_only(tmp_path):
    """Haar pairs whose smaller subsystem is a qubit, answered by a
    deterministic probe of the first side (a B basis probe at 2x2, the
    uniform A probe at 3x2): closed-form 2x2 compressions, no classification
    (both operands entangle |0...0>) and no screen, so nothing goes through
    the LAPACK binding."""
    paths = []
    for seed, d_a in ((28, 2), (1, 3)):
        rng = np.random.default_rng(seed)
        for tag in ("u", "v"):
            paths.append(str(tmp_path / f"{tag}{d_a}.json"))
            save_matrix_file(paths[-1], validate_unitary(random_unitary(2 * d_a, rng), d_a, 2))
    script = ("import sys\nfrom seqlocc import discriminate\n"
              "from seqlocc.io import load_matrix_file\n"
              "for paths, probe in ((sys.argv[1:3], 'probe 0 on B'), (sys.argv[3:5], 'probe 3 on A')):\n"
              "    scheme, report = discriminate(*map(load_matrix_file, paths))\n"
              "    assert scheme.case_trace == ['direct'] and probe in report.wall_notes")
    assert _loaded_after(script, *paths) == set()


def test_synthesize_loads_optimize(tmp_path):
    g = str(tmp_path / "cnot.json")
    save_matrix_file(g, validate_unitary(CNOT, 2, 2))
    script = ("import sys, numpy as np\n"
              "from seqlocc import synthesize, validate_unitary\n"
              "from seqlocc.io import load_matrix_file\n"
              "synthesize(validate_unitary(np.eye(4), 2, 2), load_matrix_file(sys.argv[1]))")
    assert "scipy.optimize" in _loaded_after(script, g)
