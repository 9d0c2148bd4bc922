import numpy as np
import pytest

from seqlocc import engine, validate_unitary

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)


@pytest.fixture(scope="session")
def cnot():
    return validate_unitary(CNOT, 2, 2)


@pytest.fixture(scope="session")
def cz():
    return validate_unitary(CZ, 2, 2)


@pytest.fixture(scope="module")
def engine_only():
    """The direct route turned off, so the case engine answers every pair."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_direct", lambda build, U, V: None)
        yield
