"""Antenna subset modulation (ASM-c) baseline defense.

Each symbol, only a uniformly random fraction c of the array elements stays
active (no power renormalization, per-antenna constraint), and the transmit
symbol is pre-rotated so the intended receiver direction sees the correct
symbol phase. Amplitude at the receiver still fluctuates, which is the
baseline's characteristic disadvantage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .array import array_response, beam_gain


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


def asm_transmit(f, x, rx_direction, cfg: AsmConfig, rng: np.random.Generator):
    """One ASM transmission: retain a random antenna subset, fix the RX phase.

    A uniform subset of cfg.active_count entries of f is kept (others zeroed,
    active entries unscaled), and the symbol is rotated by minus the phase of
    the subset beamformer's gain toward rx_direction, so the received symbol
    phase at the intended direction is preserved for every draw.

    Returns:
        (subset beamformer, rotated symbol).
    """
    rows, cols = f.shape
    if cfg.size != f.size:
        raise ValueError(f"config is for {cfg.size} elements, beamformer has {f.size}")
    keep = random_subset_masks(f.size, cfg.active_count, 1, rng).reshape(f.shape)
    f_asm = np.where(keep, f, 0)
    theta, phi = rx_direction
    gain = beam_gain(array_response(theta, phi, cols, rows), f_asm)
    return f_asm, x * np.exp(-1j * np.angle(gain))


def random_subset_masks(size: int, active: int, num: int, rng: np.random.Generator) -> np.ndarray:
    """num boolean masks of shape (num, size), each with exactly `active` True
    entries drawn uniformly without replacement."""
    scores = rng.random((num, size))
    keep = np.argpartition(scores, active - 1, axis=1)[:, :active]
    masks = np.zeros((num, size), dtype=bool)
    np.put_along_axis(masks, keep, True, axis=1)
    return masks


def asm_relative_atoms(
    f: np.ndarray,
    rx_direction,
    probe_direction,
    cfg: AsmConfig,
    rng: np.random.Generator,
    num_subsets: int = 256,
) -> np.ndarray:
    """Sampled relative post-equalization channel atoms under ASM.

    A receiver at probe_direction that equalized on the full beamformer sees,
    per subset S, the relative channel
    <V_probe, F_S> * exp(-j*phase(<V_rx, F_S>)) / <V_probe, F>. The exact
    subset ensemble is combinatorially large, so num_subsets draws are
    sampled; at probe == rx the atoms are real nonnegative (pure amplitude
    fluctuation).

    Raises:
        ValueError: if the full-beamformer gain at probe_direction is (near)
            zero, since equalization there is undefined.
    """
    rows, cols = f.shape
    v_rx = array_response(*rx_direction, cols, rows)
    v_probe = array_response(*probe_direction, cols, rows)
    base = beam_gain(v_probe, f)
    if abs(base) < 1e-12 * math.sqrt(f.size):
        raise ValueError("probe direction has no trained channel (zero gain)")
    masks = random_subset_masks(f.size, cfg.active_count, num_subsets, rng)
    w_rx = (v_rx * f.conj()).ravel()
    w_probe = (v_probe * f.conj()).ravel()
    g_rx = masks @ w_rx
    g_probe = masks @ w_probe
    return g_probe * np.exp(-1j * np.angle(g_rx)) / base
