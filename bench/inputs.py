"""Seeded input generators owned by the benchmark.

Every matrix here is built from numpy alone: a Haar sampler (QR of a
complex Ginibre matrix with the phase fix of Mezzadri, 2007) and closed
forms for the interaction exponential exp(i x (sx+0)(x)(sx+0)), controlled
operators and the swap. Nothing calls seqlocc.random_unitary or
seqlocc.synthesize, so no change to the program can alter a workload's
inputs. The same seed always gives the same inputs.

A pair is a Pair(group, d_a, d_b, U, V) of plain complex arrays; the
benchmark wraps them with seqlocc.validate_unitary at set-up time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


@dataclass
class Pair:
    group: str   # the route the pair is built to reach, or its size class
    d_a: int
    d_b: int
    U: np.ndarray
    V: np.ndarray


def haar(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def swap(d: int) -> np.ndarray:
    P = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            P[b * d + a, a * d + b] = 1.0
    return P


def exp_xx(x: float, d_a: int, d_b: int) -> np.ndarray:
    """exp(i x G) with G = (sx+0)(x)(sx+0); G^2 is a projector, so
    exp(i x G) = I + (cos x - 1) G^2 + i sin x G exactly."""
    ua = np.zeros((d_a, d_a), dtype=complex)
    ua[:2, :2] = SX
    ub = np.zeros((d_b, d_b), dtype=complex)
    ub[:2, :2] = SX
    G = np.kron(ua, ub)
    return np.eye(d_a * d_b, dtype=complex) + (math.cos(x) - 1.0) * (G @ G) + 1j * math.sin(x) * G


def controlled(blocks: list[np.ndarray]) -> np.ndarray:
    """sum_a |a><a| (x) blocks[a]: block diagonal in the A basis."""
    d_a, d_b = len(blocks), blocks[0].shape[0]
    M = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for a, W in enumerate(blocks):
        M[a * d_b:(a + 1) * d_b, a * d_b:(a + 1) * d_b] = W
    return M


def arc_relative(d: int, theta: float, rng: np.random.Generator) -> np.ndarray:
    """Unitary whose eigenphases span an arc of exactly theta (< pi).

    Two phases sit on the arc ends, the rest inside; a Haar eigenbasis and
    a random rotation of the arc hide the structure from the program.
    """
    inner = rng.uniform(0.0, theta, size=d - 2)
    phases = np.concatenate([[0.0, theta], inner]) + rng.uniform(0.0, 2 * math.pi)
    Q = haar(d, rng)
    return (Q * np.exp(1j * phases)) @ Q.conj().T


def _product(rng, d_a, d_b):
    return np.kron(haar(d_a, rng), haar(d_b, rng))


def _swap_product(rng, d):
    return _product(rng, d, d) @ swap(d)


def _phase(rng):
    return np.exp(1j * rng.uniform(0.0, 2 * math.pi))


def haar_bipartite(seed: int, count: int = 16) -> list[Pair]:
    """Haar-random 2x2 pairs.

    2x3 and 3x3 pairs are left out: one takes 4-5 s (18 or 36 queries) or
    about 15 s (50-100 queries), so a run of run_seconds would hold one to
    three of them and its figures would swing with the seed by more than
    the bounds allow.
    """
    rng = np.random.default_rng([seed, 1])
    return [Pair("2x2", 2, 2, haar(4, rng), haar(4, rng)) for _ in range(count)]


def route_mix(seed: int, blocks: int = 5) -> list[Pair]:
    """Closed-form pairs, one group per route label the engine reaches
    without program-derived inputs; each block of 16 holds every group.

    iii-b-x1 is left out on purpose: its partner must share the image of
    the program's own synthesized template, so building it would make the
    workload's inputs depend on the code under test.
    """
    rng = np.random.default_rng([seed, 2])
    out = []
    for _ in range(blocks):
        # the 2x3 pair agrees on B up to phase, so its active side is always
        # the qubit and the block's mix of fast and slow operations is fixed
        out.append(Pair("i-a", 2, 2, _product(rng, 2, 2), _product(rng, 2, 2)))
        UA, VA, UB = haar(2, rng), haar(2, rng), haar(3, rng)
        out.append(Pair("i-a", 2, 3, np.kron(UA, UB), np.kron(VA, _phase(rng) * UB)))
        for d in (2, 3):
            out.append(Pair("i-b", d, d, _product(rng, d, d), _swap_product(rng, d)))
            out.append(Pair("i-c", d, d, _swap_product(rng, d), _swap_product(rng, d)))
        for d_a, d_b in ((2, 2), (2, 3)):
            ctrl = controlled([np.eye(d_b, dtype=complex), haar(d_b, rng)])
            out.append(Pair("ii-a", d_a, d_b, ctrl, _product(rng, d_a, d_b)))
            x = rng.uniform(0.4, 1.2)
            out.append(Pair("ii-a", d_a, d_b, exp_xx(x, d_a, d_b), _product(rng, d_a, d_b)))
        for _ in range(2):
            ctrl = controlled([np.eye(2, dtype=complex), haar(2, rng)])
            out.append(Pair("ii-b", 2, 2, ctrl, _swap_product(rng, 2)))
        canon = exp_xx(1.0, 2, 2)
        out.append(Pair("iii-a", 2, 2, canon, haar(4, rng)))
        out.append(Pair("iii-a", 2, 2, canon, _product(rng, 2, 2) @ CNOT @ _product(rng, 2, 2)))
        for d_a, d_b in ((2, 2), (2, 3)):
            x = rng.uniform(0.3, 0.8) if rng.random() < 0.5 else rng.uniform(1.3, 2.4)
            out.append(Pair("iii-b-xne1", d_a, d_b, exp_xx(1.0, d_a, d_b),
                            _phase(rng) * exp_xx(x, d_a, d_b)))
    return out


def arc_ladder(seed: int) -> list[Pair]:
    """Product pairs U_A(x)U_B against V_A(x)V_B with a seeded arc on A.

    Dimensions run over the 13 pairs (d_a, d_b) with d = 2..5 per side and
    d_a * d_b <= 16. The arcs Theta of U_A^dag V_A form a 12-rung ladder
    over [pi/9, 0.95 pi]; the 156 pairs cover each (dimensions, rung) cell
    once, so every seed has the same mix of dimensions and query counts.
    Input i takes dims i mod 13 and rung i mod 12, so any prefix of the
    cycle keeps that mix too. The seed moves each arc inside its rung and
    draws the bases. One pair in four also differs on B by a smaller arc,
    which shows the one-sided engine's overhead above the joint bound.
    """
    rng = np.random.default_rng([seed, 3])
    dims = [(a, b) for a in range(2, 6) for b in range(2, 6) if a * b <= 16]
    rungs = 12
    lo, hi = math.pi / 9, 0.95 * math.pi
    out = []
    for i in range(len(dims) * rungs):
        d_a, d_b = dims[i % len(dims)]
        theta = lo + (i % rungs + rng.uniform()) / rungs * (hi - lo)
        UA, UB = haar(d_a, rng), haar(d_b, rng)
        VA = UA @ arc_relative(d_a, theta, rng)
        two_sided = i % 4 == 3
        if two_sided:
            VB = UB @ arc_relative(d_b, rng.uniform(0.2, 0.8) * theta, rng)
        else:
            VB = _phase(rng) * UB
        out.append(Pair("two-sided" if two_sided else "one-sided", d_a, d_b,
                        np.kron(UA, UB), np.kron(VA, VB)))
    return out


def scheme_verify(seed: int) -> list[Pair]:
    """Synthesis-free pairs whose schemes have 5 to 96 queries.

    Each pair's arc is drawn so that ceil(pi / theta) is a fixed count:
    the seed changes the matrices but not the scheme sizes, so verify
    times do not swing with it. Product pairs go through the sequential
    engine (i-a); the canonical interaction against a nearby angle gives
    iii-b-xne1 chains, whose relative arc on A is 2 |x - 1|.
    """
    rng = np.random.default_rng([seed, 4])
    out = []
    for d_a, d_b, queries in ((2, 2, 5), (2, 3, 12), (3, 3, 24), (3, 3, 96),
                              (2, 2, 40), (3, 2, 60)):
        theta = math.pi / (queries - rng.uniform(0.2, 0.8))
        VA = haar(d_a, rng)
        UA = VA @ arc_relative(d_a, theta, rng).conj().T
        UB = haar(d_b, rng)
        out.append(Pair("i-a", d_a, d_b, np.kron(UA, UB), np.kron(VA, _phase(rng) * UB)))
    for d_a, d_b, queries in ((2, 2, 8), (2, 3, 14), (3, 3, 20)):
        x = 1.0 - math.pi / (2.0 * (queries - rng.uniform(0.2, 0.8)))
        out.append(Pair("iii-b-xne1", d_a, d_b, exp_xx(1.0, d_a, d_b),
                        _phase(rng) * exp_xx(x, d_a, d_b)))
    return out


WORKLOADS = {
    "haar-bipartite": haar_bipartite,
    "route-mix": route_mix,
    "arc-ladder": arc_ladder,
    "scheme-verify": scheme_verify,
}
