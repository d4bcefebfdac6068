"""Antenna subset modulation (ASM-c) baseline defense: its config and subset sampler.

Each symbol, only a uniformly random fraction c of the array elements stays
active (no power renormalization, per-antenna constraint), and the transmit
symbol is pre-rotated so the intended receiver direction sees the correct
symbol phase. Amplitude at the receiver still fluctuates, which is the
baseline's characteristic disadvantage. random_subset_masks draws the
subsets: each keeps the smallest of uniform 32-bit keys, and a row whose
threshold key ties is drawn again, so every subset is exactly uniform. The
compensated gains of the subsets are computed by channel_sim.defense_gains,
with those of the other defenses.
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


def masks_from_keys(keys: np.ndarray, active: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks of keys' shape, each row keeping its `active` smallest keys
    (those at or below the row's threshold, np.partition's entry active - 1),
    and a boolean per row that is True where the threshold ties with a key
    beyond it, so that the row keeps more than `active` entries."""
    part = np.partition(keys, active - 1, axis=1)
    threshold = part[:, active - 1]
    beyond = part[:, active:]
    tied = beyond.min(axis=1) == threshold if beyond.shape[1] else np.zeros(len(keys), dtype=bool)
    return keys <= threshold[:, None], tied


def random_subset_masks(size: int, active: int, num: int, rng: np.random.Generator) -> np.ndarray:
    """num boolean masks of shape (num, size), each an exactly uniform subset of
    `active` of the size entries, drawn without replacement.

    Each row keeps the `active` smallest of size uniform 32-bit keys: the
    halves of rng's raw 64-bit words (rng.bit_generator.random_raw), in the
    host's byte order, so the low half first on a little-endian host. A row
    whose threshold key ties with a key beyond it (probability below
    size / 2^32) is drawn again, in row order, until no row ties. That event
    is the same for every order of the keys, so each kept row is a uniform
    subset. The peak is 9 bytes per element of the block: the keys, their
    np.partition copy and the masks.

    Raises:
        ValueError: unless 1 <= active <= size and num >= 0.
    """
    if not 1 <= active <= size or num < 0:
        raise ValueError(f"need 1 <= active <= size and num >= 0, got active={active}, size={size}, num={num}")
    masks, tied = masks_from_keys(_uniform_keys(rng, num, size), active)
    rows = np.flatnonzero(tied)
    while len(rows):
        masks[rows], tied = masks_from_keys(_uniform_keys(rng, len(rows), size), active)
        rows = rows[tied]
    return masks


def _uniform_keys(rng: np.random.Generator, num: int, size: int) -> np.ndarray:
    """(num, size) uniform uint32 keys from ceil(num * size / 2) raw 64-bit words."""
    n = num * size
    return rng.bit_generator.random_raw(-(-n // 2)).view(np.uint32)[:n].reshape(num, size)
