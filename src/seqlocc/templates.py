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
from .errors import DimensionMismatch, NotUnitary
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
    if not isinstance(out[0], LocalLayer):
        out.insert(0, identity_local(d_a, d_b))
    return out


def check_local_unitarity(t: CircuitTemplate, tol: float = RunConfig.unitarity_tol) -> None:
    """Raise NotUnitary if any local factor drifted from unitarity.

    The factors of each side are stacked and checked with one einsum. The
    Frobenius norm of F^dag F - I bounds its operator norm from above, so
    only factors over tol by the former pay for the exact (SVD) norm.
    """
    locals_ = [layer for layer in t.layers if isinstance(layer, LocalLayer)]
    for side in ("factor_a", "factor_b"):
        F = np.stack([getattr(layer, side) for layer in locals_])
        G = np.einsum("kji,kjl->kil", F.conj(), F) - np.eye(F.shape[1])
        frobenius = np.sqrt(np.einsum("kij,kij->k", G.conj(), G).real)
        over = ~(frobenius <= tol)
        if not over.any():
            continue
        if not np.all(np.isfinite(frobenius)):
            raise NotUnitary(np.inf, tol)
        defect = float(np.linalg.norm(G[over], 2, axis=(1, 2)).max())
        if defect > tol:
            raise NotUnitary(defect, tol)


def bare_query_template(d_a: int, d_b: int, queries: int = 1) -> CircuitTemplate:
    """Template that just applies the unknown operation `queries` times."""
    layers: list = []
    for _ in range(queries):
        layers.append(QUERY)
    return CircuitTemplate(d_a, d_b, layers)


def evaluate_template(t: CircuitTemplate, X) -> np.ndarray:
    """Matrix of the template with X substituted at every query slot."""
    x = mat(X)
    n = t.dim
    if x.shape != (n, n):
        raise DimensionMismatch(f"expected {n}x{n} query, got {x.shape}")
    M = np.eye(n, dtype=complex)
    for layer in t.layers:
        M = (x if isinstance(layer, Query) else layer.matrix()) @ M
    return M


def template_outputs(t: CircuitTemplate, X, input_a, input_b) -> np.ndarray:
    """Output states of the template on input_a (x) input_b, one row per
    operand of the (m, n, n) stack X.

    The state propagates as an (m, d_a, d_b) array: a local layer acts as
    fa @ psi @ fb^T and a query as one batched mat-vec, so no Kronecker
    product and no n x n layer product is formed.
    """
    d_a, d_b, n = t.d_a, t.d_b, t.dim
    x = np.asarray(X)
    if x.ndim != 3 or x.shape[1:] != (n, n):
        raise DimensionMismatch(f"expected a stack of {n}x{n} queries, got {x.shape}")
    a, b = np.asarray(input_a), np.asarray(input_b)
    if a.shape != (d_a,) or b.shape != (d_b,):
        raise DimensionMismatch(f"inputs {a.shape}/{b.shape} do not fit ({d_a}, {d_b})")
    psi = np.broadcast_to(np.outer(a, b), (len(x), d_a, d_b))
    for layer in t.layers:
        if isinstance(layer, Query):
            psi = (x @ psi.reshape(-1, n, 1)).reshape(-1, d_a, d_b)
        else:
            psi = layer.factor_a @ psi @ layer.factor_b.T
    return psi.reshape(-1, n)


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


def append_query(t: CircuitTemplate, local: LocalLayer | None = None) -> CircuitTemplate:
    """Template applying t, then the unknown once, then an optional local."""
    layers = list(t.layers) + [QUERY]
    if local is not None:
        layers.append(local)
    return CircuitTemplate(t.d_a, t.d_b, layers)


def sequential_template(d_a: int, d_b: int, locals_between: list[LocalLayer]) -> CircuitTemplate:
    """Q, local_1, Q, ..., local_N, Q: the interleaved sequential shape.

    locals_between[0] is applied right after the first query.
    """
    layers: list = [QUERY]
    for layer in locals_between:
        layers.append(layer)
        layers.append(QUERY)
    return CircuitTemplate(d_a, d_b, layers)

