"""Run-wide configuration: tolerances, seeds, and search budgets."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, fields

import numpy as np


@dataclass
class RunConfig:
    """Tolerances and budgets shared by the discrimination machinery.

    All tolerances are positive; the seed makes every search deterministic.
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
    identity_tol: float = 1e-6       # "differs from identity" threshold for symmetry probes
    x_tol: float = 1e-6              # routing threshold between the x=1 and x!=1 branches

    # search budgets
    seed: int = 0
    restarts: int = 16
    k_min: int = 0
    k_max: int = 12
    max_depth: int = 4

    def __post_init__(self):
        for f in fields(self):
            if f.name.endswith(("_tol", "_angle")) or f.name == "epsilon":
                if getattr(self, f.name) <= 0:
                    raise ValueError(f"{f.name} must be positive")

    def rng(self, label: str, *indices: int) -> np.random.Generator:
        """Deterministic generator for a named search, stable across runs."""
        tag = zlib.crc32(label.encode("utf-8"))
        return np.random.default_rng(np.random.SeedSequence((self.seed, tag, *indices)))
