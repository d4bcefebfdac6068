"""Antenna subset modulation (ASM-c) baseline defense: its config and subset sampler.

Each symbol, only a uniformly random fraction c of the array elements stays
active (no power renormalization, per-antenna constraint), and the transmit
symbol is pre-rotated so the intended receiver direction sees the correct
symbol phase. Amplitude at the receiver still fluctuates, which is the
baseline's characteristic disadvantage. The compensated gains of the
subsets are computed by channel_sim.defense_gains, with those of the other
defenses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AsmConfig:
    """Active-antenna fraction c in (0, 1] for an n_rows x n_t array."""

    c: float
    n_t: int
    n_rows: int | None = None

    def __post_init__(self):
        if not 0.0 < self.c <= 1.0:
            raise ValueError(f"c must be in (0, 1], got {self.c}")
        if self.active_count < 1:
            raise ValueError(f"c={self.c} activates zero antennas")

    @property
    def size(self) -> int:
        rows = self.n_t if self.n_rows is None else self.n_rows
        return rows * self.n_t

    @property
    def active_count(self) -> int:
        return round(self.c * self.size)


def random_subset_masks(size: int, active: int, num: int, rng: np.random.Generator) -> np.ndarray:
    """num boolean masks of shape (num, size), each with exactly `active` True
    entries drawn uniformly without replacement."""
    scores = rng.random((num, size))
    keep = np.argpartition(scores, active - 1, axis=1)[:, :active]
    masks = np.zeros((num, size), dtype=bool)
    np.put_along_axis(masks, keep, True, axis=1)
    return masks

