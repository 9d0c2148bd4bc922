"""Circuit templates: alternating known local layers and forward query slots.

A template lists its layers in application order: local_0, Q, local_1, ...,
Q, local_k. Locals are stored as explicit (factor_a, factor_b) pairs, so
every layer is a product operator by construction, and the representation
has no way to express an inverted query: the unknown operation only ever
enters forward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import DimensionMismatch, MalformedScheme, NotUnitary
from .linalg import mat


@dataclass
class LocalLayer:
    """Product layer factor_a (x) factor_b."""

    factor_a: np.ndarray
    factor_b: np.ndarray

    def matrix(self) -> np.ndarray:
        return np.kron(self.factor_a, self.factor_b)


class Query:
    """Forward application slot for the unknown operation."""

    def __repr__(self):  # pragma: no cover - debugging aid
        return "Query()"


QUERY = Query()


@dataclass
class CircuitTemplate:
    """Alternating local layers and query slots, in application order.

    Normal form: the sequence starts and ends with a local layer and never
    holds two adjacent locals (they are merged on construction).
    """

    d_a: int
    d_b: int
    layers: list

    def __post_init__(self):
        self.layers = _normalize_layers(self.d_a, self.d_b, self.layers)

    @property
    def query_count(self) -> int:
        return sum(1 for layer in self.layers if isinstance(layer, Query))

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b


def identity_local(d_a: int, d_b: int) -> LocalLayer:
    return LocalLayer(np.eye(d_a, dtype=complex), np.eye(d_b, dtype=complex))


def _merge_locals(first: LocalLayer, second: LocalLayer) -> LocalLayer:
    """Layer applying `first` then `second` (matrix product second @ first)."""
    return LocalLayer(second.factor_a @ first.factor_a,
                      second.factor_b @ first.factor_b)


def _normalize_layers(d_a: int, d_b: int, layers) -> list:
    # Identities are inserted only where the alternation demands one, so a
    # template already in normal form passes through without re-multiplying
    # its locals (serialization round trips stay bit-exact).
    out: list = []
    for layer in layers:
        if isinstance(layer, Query):
            if not out or isinstance(out[-1], Query):
                out.append(identity_local(d_a, d_b))
            out.append(QUERY)
        elif isinstance(layer, LocalLayer):
            fa = np.asarray(layer.factor_a, dtype=complex)
            fb = np.asarray(layer.factor_b, dtype=complex)
            if fa.shape != (d_a, d_a) or fb.shape != (d_b, d_b):
                raise DimensionMismatch(
                    f"local factors {fa.shape}/{fb.shape} do not fit ({d_a}, {d_b})")
            layer = LocalLayer(fa, fb)
            if out and isinstance(out[-1], LocalLayer):
                out[-1] = _merge_locals(out[-1], layer)
            else:
                out.append(layer)
        else:
            raise TypeError(f"unsupported layer type {type(layer)!r}")
    if not out or not isinstance(out[-1], LocalLayer):
        out.append(identity_local(d_a, d_b))
    return out


def kron_layers(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Stack of the products A_i (x) B_i of the (m, d_a, d_a) and (m, d_b, d_b)
    factor stacks, formed in one broadcast: the same bits as np.kron."""
    m, d_a, d_b = len(A), A.shape[1], B.shape[1]
    return (A[:, :, None, :, None] * B[:, None, :, None, :]).reshape(m, d_a * d_b, d_a * d_b)


def _factor_stacks(t: CircuitTemplate) -> tuple[np.ndarray, np.ndarray]:
    """The (k+1, d_a, d_a) and (k+1, d_b, d_b) stacks of the local factors of
    t, which must be in normal form L Q L ... Q L with factors of its shape.

    Templates are normalized on construction, but their layer lists stay
    mutable, so a list edited afterwards raises MalformedScheme here.
    """
    layers = t.layers
    locals_ = layers[::2]
    if not (len(layers) % 2 == 1
            and all(isinstance(layer, LocalLayer) for layer in locals_)
            and all(isinstance(layer, Query) for layer in layers[1::2])):
        raise MalformedScheme("the template's layers are not local, query, local, ..., local")
    try:
        A = np.array([layer.factor_a for layer in locals_], dtype=complex)
        B = np.array([layer.factor_b for layer in locals_], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise MalformedScheme(f"the local factors are not matrices of one shape: {exc}") from exc
    if A.shape[1:] != (t.d_a, t.d_a) or B.shape[1:] != (t.d_b, t.d_b):
        raise MalformedScheme(
            f"local factors {A.shape[1:]}/{B.shape[1:]} do not fit ({t.d_a}, {t.d_b})")
    return A, B


def check_local_unitarity(t: CircuitTemplate, tol: float = RunConfig.unitarity_tol) -> None:
    """Raise NotUnitary if any local factor drifted from unitarity, and
    MalformedScheme if the layers are out of normal form."""
    _check_unitarity(_factor_stacks(t), tol)


def _check_unitarity(stacks, tol: float) -> None:
    """check_local_unitarity on a template's factor stacks. One screen passes
    every factor when the squared Frobenius norms of F^dag F - I sum to at
    most tol^2 over both sides; otherwise each side is checked as one stack,
    where the Frobenius norm bounds the operator norm from above, so only
    factors over tol by the former pay for the exact (SVD) norm."""
    grams = [np.einsum("kji,kjl->kil", F.conj(), F) - np.eye(F.shape[1]) for F in stacks]
    if sum(np.vdot(G, G).real for G in grams) <= tol * tol:
        return
    for G in grams:
        frobenius = np.sqrt(np.einsum("kij,kij->k", G.conj(), G).real)
        over = ~(frobenius <= tol)
        if not over.any():
            continue
        if not np.all(np.isfinite(frobenius)):
            raise NotUnitary(np.inf, tol)
        defect = float(np.linalg.svd(G[over], compute_uv=False)[:, 0].max())
        if defect > tol:
            raise NotUnitary(defect, tol)


def _propagate(stacks, x: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """(m, n) outputs of the template with these factor stacks on the (m, n, 1)
    or (n, 1) states psi, the m-th against x[m]. Every layer L_i = A_i (x) B_i
    is formed in one broadcast and a query step is L_i (X psi); no L_i X is formed."""
    L = kron_layers(*stacks)
    psi = L[0] @ psi
    for layer in L[1:]:
        psi = layer @ (x @ psi)
    return psi[..., 0]


def evaluate_template(t: CircuitTemplate, X) -> np.ndarray:
    """Matrix of the template with X substituted at every query slot: the
    images of the n basis inputs, propagated as a stack of columns."""
    x = mat(X)
    n = t.dim
    if x.shape != (n, n):
        raise DimensionMismatch(f"expected {n}x{n} query, got {x.shape}")
    basis = np.eye(n, dtype=complex).reshape(n, n, 1)
    return _propagate(_factor_stacks(t), np.broadcast_to(x, (n, n, n)), basis).T


def template_outputs(t: CircuitTemplate, X, input_a, input_b) -> np.ndarray:
    """Output states of the template on input_a (x) input_b, one row per
    operand of the (m, n, n) stack X."""
    d_a, d_b, n = t.d_a, t.d_b, t.dim
    x = np.asarray(X)
    if x.ndim != 3 or x.shape[1:] != (n, n):
        raise DimensionMismatch(f"expected a stack of {n}x{n} queries, got {x.shape}")
    a, b = np.asarray(input_a), np.asarray(input_b)
    if a.shape != (d_a,) or b.shape != (d_b,):
        raise DimensionMismatch(f"inputs {a.shape}/{b.shape} do not fit ({d_a}, {d_b})")
    return _propagate(_factor_stacks(t), x,
                      np.broadcast_to(np.outer(a, b).reshape(n, 1), (len(x), n, 1)))


def compose_templates(outer: CircuitTemplate, inner: CircuitTemplate) -> CircuitTemplate:
    """Substitute `inner` at every query slot of `outer` and flatten.

    Adjacent locals merge by multiplication, so the result is in normal
    form and evaluate(compose(outer, inner), X) equals
    evaluate(outer, evaluate(inner, X)).
    """
    if (outer.d_a, outer.d_b) != (inner.d_a, inner.d_b):
        raise DimensionMismatch(
            f"block dims ({outer.d_a}, {outer.d_b}) != inner dims ({inner.d_a}, {inner.d_b})")
    layers: list = []
    for layer in outer.layers:
        if isinstance(layer, Query):
            layers.extend(inner.layers)
        else:
            layers.append(layer)
    return CircuitTemplate(outer.d_a, outer.d_b, layers)
