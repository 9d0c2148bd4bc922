"""Run-wide configuration: tolerances, seeds, and search budgets.

RunConfig holds every value a caller can set. The fixed thresholds that more
than one module reads are named below it; a threshold that one module alone
reads is named at the top of that module.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, fields

import numpy as np


@dataclass
class RunConfig:
    """Tolerances and budgets shared by the discrimination machinery.

    All tolerances are positive and finite and all budgets nonnegative; the
    seed makes every search deterministic.
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

    def __post_init__(self):
        for f in fields(self):
            if f.name.endswith(("_tol", "_angle")) or f.name == "epsilon":
                if not 0 < getattr(self, f.name) < math.inf:
                    raise ValueError(f"{f.name} must be positive and finite")
        for name in ("restarts", "k_max"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.unitarity_tol > MAX_UNITARITY_TOL:
            raise ValueError(f"unitarity_tol must be at most {MAX_UNITARITY_TOL:.2g}, a quarter "
                             "of the largest unitarity defect eig_unitary decomposes")
        # in this range the identity is a product, which bounds the case
        # engine's recursion (engine._dispatch_pair): below it rounding gives
        # the identity a second Schmidt coefficient, from 1 up none counts
        if not CLOSED_FORM_TOL <= self.rank_tol < 1:
            raise ValueError(f"rank_tol must be in [{CLOSED_FORM_TOL:.0e}, 1)")

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
# arcs compare them at.
EIG_MAX_DEFECT = RunConfig.tol_angle

# Largest unitarity_tol a run accepts: U^dag V and the other products of
# validated operands that reach an eigendecomposition carry up to 3.4 times
# the operands' defect (measured with operands at 9.5e-10), so operands must
# stay well below EIG_MAX_DEFECT for those products to be decomposable.
MAX_UNITARITY_TOL = EIG_MAX_DEFECT / 4

# Operator-norm threshold at which an operand counts as already having a
# structural form (two-block controlled, an interaction exponential, the
# symmetry of the probes): a fast path taken at this threshold charges the
# deviation it measured to the budget.
MATCH_TOL = 1e-9
