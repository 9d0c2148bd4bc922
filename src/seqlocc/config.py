"""Run-wide configuration: tolerances, seeds, and search budgets.

RunConfig holds every value a caller can set. The fixed thresholds that more
than one module reads are named below it; a threshold that one module alone
reads is named at the top of that module.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields

import numpy as np


@dataclass
class RunConfig:
    """Tolerances and budgets shared by the discrimination machinery.

    All tolerances are positive and all budgets nonnegative; the seed makes
    every search deterministic.
    """

    # tolerances
    unitarity_tol: float = 1e-9      # operator norm of M^dag M - I
    # the sqrt in phase_distance turns the ~1e-15 float noise of |tr|/dim
    # into ~3e-8, so the "same operation" threshold sits above that floor
    distinct_tol: float = 1e-7
    overlap_tol: float = 1e-6        # accepted residual overlap of a finished scheme
    epsilon: float = 1e-4            # synthesis target (phase-invariant distance)
    rank_tol: float = 1e-7           # Schmidt coefficient cutoff, relative to largest
    tol_angle: float = 1e-8          # eigenphase dedup / arc comparison tolerance

    # search budgets
    seed: int = 0
    restarts: int = 16
    k_max: int = 12
    max_depth: int = 4

    def __post_init__(self):
        for f in fields(self):
            if f.name.endswith(("_tol", "_angle")) or f.name == "epsilon":
                if getattr(self, f.name) <= 0:
                    raise ValueError(f"{f.name} must be positive")
        for name in ("restarts", "k_max", "max_depth"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.unitarity_tol > EIG_MAX_DEFECT:
            raise ValueError(f"unitarity_tol must be at most {EIG_MAX_DEFECT:.0e}, the largest "
                             "unitarity defect eig_unitary decomposes")

    def rng(self, label: str, *indices: int) -> np.random.Generator:
        """Deterministic generator for a named search, stable across runs."""
        tag = zlib.crc32(label.encode("utf-8"))
        return np.random.default_rng(np.random.SeedSequence((self.seed, tag, *indices)))


# Unitarity of a matrix built in closed form from exact entries (identities,
# controlled targets, interaction exponentials): only float rounding, a few
# eps times the dimension, separates it from unitary.
CLOSED_FORM_TOL = 1e-12

# Largest unitarity defect of a matrix eig_unitary decomposes: the eigenvalues
# of a matrix with defect d lie within about d / 2 of those of its nearest
# unitary (Bauer-Fike), so past tol_angle its eigenphases move by more than the
# arcs compare them at. unitarity_tol may not exceed it, or a run would accept
# operands it cannot decompose. At the default unitarity_tol, products of the
# few validated operands that reach an eigendecomposition stay below it:
# 3.2e-9 at most, measured with operands at defect 9.5e-10.
EIG_MAX_DEFECT = RunConfig.tol_angle

# Operator-norm threshold at which an operand counts as already having a
# structural form (two-block controlled, an interaction exponential, the
# symmetry of the probes): a fast path taken at this threshold charges the
# deviation it measured to the budget.
MATCH_TOL = 1e-9
