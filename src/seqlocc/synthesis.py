"""Numerical compilation of circuit templates toward target unitaries.

Lifts an imprimitive generator to arbitrary targets: the template's local
layers are optimized so that evaluate(template, generator) lands within a
phase-invariant distance epsilon of the target, escalating the query count
k until it does. The generator only ever enters forward; when more
interaction strength is needed the compiler adds queries, never inverses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import DimensionMismatch, GeneratorPrimitive, SynthesisFailed
from .linalg import BipartiteUnitary, _extended_distance, kron
from .structure import _certified_imprimitive, classify_primitive
from .templates import CircuitTemplate, LocalLayer, QUERY
from .unitary_opt import hermitian_basis, pullback, unitaries

# L-BFGS-B options: a short run per seed, and a long polish of the winner
_SEARCH_OPTIONS = {"maxiter": 150, "ftol": 1e-18, "gtol": 1e-12}
_POLISH_OPTIONS = {"maxiter": 1500, "ftol": 1e-20, "gtol": 1e-16}
# a new best must beat the old one by more than the float noise of delta
_IMPROVEMENT = 1e-15
# seeds settle onto a common floor fast when k is infeasible: after seed
# _FLOOR_SEEDS a best above _FLOOR_FACTOR * epsilon ends the search at this k
_FLOOR_SEEDS = 7
_FLOOR_FACTOR = 10.0


@dataclass
class SynthesisResult:
    """Winning template with its certified distance to the target."""

    template: CircuitTemplate
    delta: float
    layer_count: int


class _LayerProblem:
    """Loss 1 - |tr(T^dag M)|^2 / D^2 over the local layers of a k-query
    template, with analytic gradients through expm."""

    def __init__(self, target: np.ndarray, generator: np.ndarray, d_a: int, d_b: int, k: int):
        self.Td = target.conj().T
        self.X = generator
        self.d_a, self.d_b = d_a, d_b
        self.k = k
        self.D = d_a * d_b
        self.bases = (hermitian_basis(d_a), hermitian_basis(d_b))
        self.na = d_a * d_a
        self.per_layer = self.na + d_b * d_b
        self.n_total = (k + 1) * self.per_layer

    def _sides(self, x):
        """Parameter rows of the A and B factors of all k+1 layers."""
        rows = np.reshape(x, (self.k + 1, self.per_layer))
        return rows[:, :self.na], rows[:, self.na:]

    def _factors(self, x):
        """Local factors A_i, B_i of all k+1 layers: one batched call per side."""
        xa, xb = self._sides(x)
        return unitaries(xa, self.bases[0])[0], unitaries(xb, self.bases[1])[0]

    def template(self, x) -> CircuitTemplate:
        A, B = self._factors(x)
        layers: list = [LocalLayer(A[0], B[0])]
        for i in range(1, self.k + 1):
            layers += [QUERY, LocalLayer(A[i], B[i])]
        # application order: L_0 first, then X, then L_1, ...
        return CircuitTemplate(self.d_a, self.d_b, layers)

    def evaluate(self, x) -> np.ndarray:
        M = None
        for i, L in enumerate(kron(*self._factors(x))):
            M = L if i == 0 else L @ self.X @ M
        return M

    def value_and_grad(self, x):
        xa, xb = self._sides(x)
        A, spec_a = unitaries(xa, self.bases[0])
        B, spec_b = unitaries(xb, self.bases[1])
        L = kron(A, B)
        k = self.k
        # prefix[i]: product applied before layer i; suffix[i]: applied after
        prefix = [np.eye(self.D, dtype=complex)]
        for i in range(k):
            prefix.append(self.X @ L[i] @ prefix[i])
        suffix = [np.eye(self.D, dtype=complex)]
        for i in range(k, 0, -1):
            suffix.insert(0, suffix[0] @ L[i] @ self.X)
        c = np.trace(self.Td @ suffix[0] @ L[0])
        loss = 1.0 - (c * c.conjugate()).real / self.D ** 2

        # dc/dL_i is N_i^T with N_i = prefix[i] T^dag suffix[i]; contracted
        # with the other factor of L_i = A_i (x) B_i it is dc/dA_i and dc/dB_i
        N = (np.stack(prefix) @ self.Td @ np.stack(suffix)).reshape(
            k + 1, self.d_a, self.d_b, self.d_a, self.d_b)
        dc_a = pullback(spec_a, np.einsum("iabcd,idb->ica", N, B), self.bases[0])
        dc_b = pullback(spec_b, np.einsum("iabcd,ica->idb", N, A), self.bases[1])
        dc = np.concatenate([dc_a, dc_b], axis=1).ravel()
        return loss, -2.0 * np.real(c.conjugate() * dc) / self.D ** 2

    def delta(self, x) -> float:
        # the extended trace at every deficit: restarts are ranked on
        # differences down to _IMPROVEMENT, below the float64 trace's rounding
        return _extended_distance(self.evaluate(x), self.Td.conj().T)


def synthesize(target: BipartiteUnitary, generator: BipartiteUnitary,
               cfg: RunConfig | None = None) -> SynthesisResult:
    """Template over the generator approximating the target within epsilon.

    Escalates k from 0 to cfg.k_max; at each k the local layers are
    optimized by L-BFGS from the previous k's best padded with an identity
    local on either end, from identity, and from random seeds. The result
    is the first k whose polished best is within epsilon. Raises
    GeneratorPrimitive when the generator is a (swapped) product, and
    SynthesisFailed, carrying the closest (delta, k) over the k tried, when
    k_max is exhausted.
    """
    cfg = cfg or RunConfig()
    if (target.d_a, target.d_b) != (generator.d_a, generator.d_b):
        raise DimensionMismatch(
            f"target dims ({target.d_a}, {target.d_b}) != generator "
            f"({generator.d_a}, {generator.d_b})")
    # a generator that entangles |0...0> is imprimitive without a decomposition
    if not (_certified_imprimitive(generator)
            or classify_primitive(generator).kind == "Imprimitive"):
        raise GeneratorPrimitive("generator is primitive; it cannot generate")
    # imported here: loading scipy.optimize takes as long as the rest of the
    # package, and only synthesis runs L-BFGS. minimize stays a lookup on the
    # module at each call, so a wrapper set on scipy.optimize sees every run.
    import scipy.optimize

    closest = None  # (delta, k) over the k tried
    seeds: list[np.ndarray] = []  # the previous k's best, padded on either end
    for k in range(cfg.k_max + 1):
        problem = _LayerProblem(target.matrix, generator.matrix, target.d_a, target.d_b, k)
        rng = cfg.rng("synthesis", k)
        seeds += [np.zeros(problem.n_total)] + [
            rng.normal(scale=0.8, size=problem.n_total) for _ in range(cfg.restarts)]
        best = None  # (delta, x) over this k's seeds
        for s_idx, x0 in enumerate(seeds):
            res = scipy.optimize.minimize(
                problem.value_and_grad, x0, jac=True, method="L-BFGS-B", options=_SEARCH_OPTIONS)
            delta = problem.delta(res.x)
            if best is None or delta < best[0] - _IMPROVEMENT:
                best = (delta, res.x)
            floor = s_idx >= _FLOOR_SEEDS and best[0] > _FLOOR_FACTOR * cfg.epsilon
            if delta <= cfg.epsilon or floor:
                break
        delta, x = best
        if delta <= cfg.epsilon:
            # polish the winner: downstream error budgets scale with delta
            res = scipy.optimize.minimize(
                problem.value_and_grad, x, jac=True, method="L-BFGS-B", options=_POLISH_OPTIONS)
            polished = problem.delta(res.x)
            if polished < delta:
                delta, x = polished, res.x
            return SynthesisResult(problem.template(x), float(delta), k)
        if closest is None or delta < closest[0] - _IMPROVEMENT:
            closest = (delta, k)
        pad = np.zeros(problem.per_layer)
        seeds = [np.concatenate([x, pad]), np.concatenate([pad, x])]
    raise SynthesisFailed(*closest)
