"""Run-wide configuration: tolerances, seeds, and search budgets.

RunConfig holds what a caller trades against time or accuracy. The fixed
thresholds and rounding floors that more than one module reads are named
below it; one that a single module reads is named at the top of that module.
"""

from __future__ import annotations

import math
import numbers
import zlib
from dataclasses import dataclass, fields

import numpy as np


@dataclass
class RunConfig:
    """Tolerances and budgets shared by the discrimination machinery.

    All tolerances are positive, finite real numbers and the seed and
    budgets are nonnegative integers (a bool is neither): anything else
    raises ValueError. The seed makes every search deterministic.
    """

    # tolerances
    unitarity_tol: float = 1e-9      # operator norm of M^dag M - I
    overlap_tol: float = 1e-6        # accepted residual overlap of a finished scheme
    epsilon: float = 1e-4            # synthesis target (phase-invariant distance)

    # search budgets
    seed: int = 0
    restarts: int = 16
    k_max: int = 12

    def __post_init__(self):
        for f in fields(self):
            if f.name.endswith("_tol") or f.name == "epsilon":
                value = getattr(self, f.name)
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise ValueError(f"{f.name} must be a number, got {value!r}")
                if not 0 < value < math.inf:
                    raise ValueError(f"{f.name} must be positive and finite")
        for name in ("seed", "restarts", "k_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.unitarity_tol > MAX_UNITARITY_TOL:
            raise ValueError(f"unitarity_tol must be at most {MAX_UNITARITY_TOL:.2g}, a quarter "
                             "of the largest unitarity defect eig_unitary decomposes")
        if self.overlap_tol < MIN_OVERLAP_TOL:
            raise ValueError(f"overlap_tol must be at least {MIN_OVERLAP_TOL:.2g}")

    def rng(self, label: str, *indices: int) -> np.random.Generator:
        """Deterministic generator for a named search, stable across runs."""
        tag = zlib.crc32(label.encode("utf-8"))
        return np.random.default_rng(np.random.SeedSequence((self.seed, tag, *indices)))


# Arc comparison tolerance: an arc within it of pi counts as reaching pi, an
# arc of at most it is a single eigenvalue, and eigenphase_rows merges phases
# closer than it into one row.
TOL_ANGLE = 1e-8

# Phase distance up to which two operations are the same: it sits above the
# ~3e-8 that the sqrt in phase_distance makes of the ~1e-15 noise of |tr|/dim.
DISTINCT_TOL = 1e-7

# Rounding that an arc closed by queries_for_arc may keep below pi - TOL_ANGLE:
# an arc drawn at exactly (pi - TOL_ANGLE) / k ends up to this far short after
# its k queries (183 of 440 such arcs, k = 1..11, fell short without it). The
# closed-form zero of arcs.zero_overlap_from_spectrum and the closing stage of
# sequential.build_sequential_scheme both accept that shortfall.
ARC_ROUNDING = 1e-11

# Most queries a sequential scheme is built with. A scheme of n queries keeps
# n + 1 dense local layers, and verify_scheme forms them as one stack of
# (n + 1) dim^2 complex entries: 41 MB at this cap and dim 16. A pair just
# above DISTINCT_TOL can ask for ~10^7 queries (1.1e7 for I_4 against
# diag(1, e^{2.9e-7 i}) (x) I_2), gigabytes built before anything could fail;
# the test corpus, the near pairs and the bench inputs need at most 96.
MAX_QUERIES = 10_000

# Schmidt coefficient cutoff, relative to the largest. At every cutoff in
# [CLOSED_FORM_TOL, 1) the identity is a product, which bounds the recursion
# of engine._dispatch_pair; below, rounding gives it a second coefficient.
RANK_TOL = 1e-7

# Smallest overlap_tol a run accepts, twice the overlap sin(TOL_ANGLE / 2)
# that an arc left TOL_ANGLE short of pi by queries_for_arc keeps: below it
# schemes with the fewest queries would be refused.
MIN_OVERLAP_TOL = TOL_ANGLE

# Unitarity of a matrix built in closed form from exact entries (identities,
# controlled targets, interaction exponentials): only float rounding, a few
# eps times the dimension, separates it from unitary.
CLOSED_FORM_TOL = 1e-12

# Largest unitarity defect of a matrix eig_unitary decomposes: the eigenvalues
# of a matrix with defect d lie within about d / 2 of those of its nearest
# unitary (Bauer-Fike), so past TOL_ANGLE its eigenphases move by more than the
# arcs compare them at.
EIG_MAX_DEFECT = TOL_ANGLE

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
