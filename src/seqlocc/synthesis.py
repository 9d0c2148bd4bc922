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
from .linalg import BipartiteUnitary, mat, phase_distance
from .structure import classify_primitive
from .templates import CircuitTemplate, LocalLayer, QUERY
from .unitary_opt import hermitian_basis, unitaries, unitary_and_tangents

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
        self.bases = [(b, 1j * b) for b in (hermitian_basis(d_a), hermitian_basis(d_b))]
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
        return unitaries(xa, self.bases[0][0])[0], unitaries(xb, self.bases[1][0])[0]

    def _layers(self, A, B) -> np.ndarray:
        """All k+1 layers A_i (x) B_i, stacked."""
        return (A[:, :, None, :, None] * B[:, None, :, None, :]).reshape(self.k + 1, self.D, self.D)

    def template(self, x) -> CircuitTemplate:
        A, B = self._factors(x)
        layers: list = [LocalLayer(A[0], B[0])]
        for i in range(1, self.k + 1):
            layers += [QUERY, LocalLayer(A[i], B[i])]
        # application order: L_0 first, then X, then L_1, ...
        return CircuitTemplate(self.d_a, self.d_b, layers)

    def evaluate(self, x) -> np.ndarray:
        M = None
        for i, L in enumerate(self._layers(*self._factors(x))):
            M = L if i == 0 else L @ self.X @ M
        return M

    def value_and_grad(self, x):
        xa, xb = self._sides(x)
        A, dA = unitary_and_tangents(xa, *self.bases[0])
        B, dB = unitary_and_tangents(xb, *self.bases[1])
        L = self._layers(A, B)
        k = self.k
        # prefix[i]: product applied before layer i; suffix[i]: applied after
        prefix = [np.eye(self.D, dtype=complex)]
        for i in range(k):
            prefix.append(self.X @ L[i] @ prefix[i] if i > 0 else self.X @ L[0])
        suffix = [None] * (k + 1)
        suffix[k] = np.eye(self.D, dtype=complex)
        for i in range(k - 1, -1, -1):
            suffix[i] = suffix[i + 1] @ L[i + 1] @ self.X
        c = np.trace(self.Td @ suffix[0] @ L[0] @ prefix[0])
        loss = 1.0 - (c * c.conjugate()).real / self.D ** 2

        grad = np.empty(self.n_total)
        for i in range(k + 1):
            N = (prefix[i] @ self.Td @ suffix[i]).reshape(
                self.d_a, self.d_b, self.d_a, self.d_b)
            dc_dA = np.einsum("abcd,db->ca", N, B[i])
            dc_dB = np.einsum("abcd,ca->db", N, A[i])
            # per layer, not batched: its summation order follows the layout of
            # dc_dA, and the last bit steers L-BFGS (hence every template)
            dc_a = np.einsum("mij,ij->m", dA[i], dc_dA)
            dc_b = np.einsum("mij,ij->m", dB[i], dc_dB)
            base = i * self.per_layer
            grad[base:base + self.na] = -2.0 * np.real(c.conjugate() * dc_a) / self.D ** 2
            grad[base + self.na:base + self.per_layer] = (
                -2.0 * np.real(c.conjugate() * dc_b) / self.D ** 2)
        return loss, grad

    def delta(self, x) -> float:
        return phase_distance(self.evaluate(x), self.Td.conj().T)


def _pad_params(x_prev: np.ndarray, per_layer: int, front: bool) -> np.ndarray:
    pad = np.zeros(per_layer)
    return np.concatenate([pad, x_prev] if front else [x_prev, pad])


def synthesize(target: BipartiteUnitary, generator: BipartiteUnitary,
               cfg: RunConfig | None = None) -> SynthesisResult:
    """Template over the generator approximating the target within epsilon.

    Escalates k from 0 to cfg.k_max; at each k the local layers are
    optimized by L-BFGS from identity, warm-started (previous best padded
    with an identity local on either end), and random seeds. The reported
    delta is the best found over all k tried so far, so it is nonincreasing
    in k. Raises GeneratorPrimitive when the generator is a (swapped)
    product, SynthesisFailed when k_max is exhausted.
    """
    cfg = cfg or RunConfig()
    if (target.d_a, target.d_b) != (generator.d_a, generator.d_b):
        raise DimensionMismatch(
            f"target dims ({target.d_a}, {target.d_b}) != generator "
            f"({generator.d_a}, {generator.d_b})")
    if classify_primitive(generator, cfg.rank_tol).kind != "Imprimitive":
        raise GeneratorPrimitive("generator is primitive; it cannot generate")
    # imported here: loading scipy.optimize takes as long as the rest of the
    # package, and only synthesis runs L-BFGS. minimize stays a lookup on the
    # module at each call, so a wrapper set on scipy.optimize sees every run.
    import scipy.optimize

    X = generator.matrix
    best = None  # (delta, k, params, problem)
    prev_params: dict[int, np.ndarray] = {}

    for k in range(cfg.k_max + 1):
        problem = _LayerProblem(target.matrix, X, target.d_a, target.d_b, k)
        seeds: list[np.ndarray] = []
        if k - 1 in prev_params:
            seeds.append(_pad_params(prev_params[k - 1], problem.per_layer, front=False))
            seeds.append(_pad_params(prev_params[k - 1], problem.per_layer, front=True))
        seeds.append(np.zeros(problem.n_total))
        rng = cfg.rng("synthesis", k)
        for _ in range(cfg.restarts):
            seeds.append(rng.normal(scale=0.8, size=problem.n_total))

        k_best = None
        for s_idx, x0 in enumerate(seeds):
            res = scipy.optimize.minimize(
                problem.value_and_grad, x0, jac=True, method="L-BFGS-B", options=_SEARCH_OPTIONS)
            delta = problem.delta(res.x)
            if k_best is None or delta < k_best[0] - _IMPROVEMENT:
                k_best = (delta, res.x)
            if delta <= cfg.epsilon:
                break
            if s_idx >= _FLOOR_SEEDS and k_best[0] > _FLOOR_FACTOR * cfg.epsilon:
                break
        if k_best[0] <= cfg.epsilon:
            # polish the winner: downstream error budgets scale with delta
            res = scipy.optimize.minimize(
                problem.value_and_grad, k_best[1], jac=True, method="L-BFGS-B",
                options=_POLISH_OPTIONS)
            delta = problem.delta(res.x)
            if delta < k_best[0]:
                k_best = (delta, res.x)
        prev_params[k] = k_best[1]
        if best is None or k_best[0] < best[0] - _IMPROVEMENT:
            best = (k_best[0], k, k_best[1], problem)
        if best[0] <= cfg.epsilon:
            break

    delta, k, params, problem = best
    if delta > cfg.epsilon:
        raise SynthesisFailed(delta, k)
    return SynthesisResult(problem.template(params), float(delta), k)

