"""Line-of-sight narrowband link simulation.

Signal model per symbol: y = sqrt(P_r) * exp(j nu) * <V, F> * x + n, with
training-based equalization (both receivers perfectly estimate their
composite channel on the fixed, unshifted beamformer) and nearest-symbol
PSK detection. Monte-Carlo SER runs share one noise stream per receiver per
run so defended and undefended runs with the same seed are exactly paired:
symbols first, then RX noise, then eavesdropper noise, then any defense
randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .array import ArrayConfig, array_response, beam_gain, dft_codeword, nearest_grid_index
from .asm_baseline import AsmConfig, random_subset_masks
from .csb_defense import shift_gains

DEFENSES = ("none", "csb", "asm")

CONSTELLATION_CAP = 10_000


@dataclass(frozen=True)
class LinkState:
    """Received reference power (linear), propagation phase, noise power."""

    p_r: float
    nu: float
    sigma2: float

    def __post_init__(self):
        if self.p_r < 0:
            raise ValueError(f"p_r must be nonnegative, got {self.p_r}")
        if self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")


@dataclass(frozen=True)
class PskConstellation:
    m_order: int

    def __post_init__(self):
        if self.m_order < 2:
            raise ValueError(f"m_order must be >= 2, got {self.m_order}")

    @property
    def symbols(self) -> np.ndarray:
        return np.exp(2j * np.pi * np.arange(self.m_order) / self.m_order)


@dataclass(frozen=True)
class SerResult:
    trials: int
    rx_errors: int
    eve_errors: int
    rx_ser: float
    eve_ser: float

    @classmethod
    def from_counts(cls, trials: int, rx_errors: int, eve_errors: int) -> "SerResult":
        return cls(trials, rx_errors, eve_errors, rx_errors / trials, eve_errors / trials)


def path_power(r, p0: float = 1.0, r0: float = 1.0):
    """Free-space inverse-square received power: p0 * (r0 / r)^2.

    Accepts a scalar range or an array of ranges.
    """
    if np.any(np.asarray(r) <= 0):
        raise ValueError(f"range must be positive, got {r}")
    return p0 * (r0 / r) ** 2


def sigma2_for_snr(p_r: float, gain_mag: float, snr_db: float) -> float:
    """Noise power that yields the given post-beamforming SNR (dB)."""
    return p_r * gain_mag**2 / 10 ** (snr_db / 10)


def received_symbol(link: LinkState, v: np.ndarray, f: np.ndarray, x: complex, noise: complex) -> complex:
    """y = sqrt(P_r) * exp(j nu) * <V, F> * x + n for one symbol."""
    return math.sqrt(link.p_r) * np.exp(1j * link.nu) * beam_gain(v, f) * x + noise


def _nearest_psk_indices(z: np.ndarray, m_order: int) -> np.ndarray:
    """Vectorized nearest-symbol decision for unit M-PSK (angle rounding)."""
    k = np.rint(np.angle(z) * m_order / (2 * np.pi)).astype(np.int64)
    return k % m_order


def equalize_and_detect(y: complex, h_hat: complex, constellation: PskConstellation) -> int:
    """Nearest-symbol (ML under AWGN) decision on y / h_hat.

    Returns -1 (an erasure, always counted as an error) when h_hat == 0.
    """
    if h_hat == 0:
        return -1
    return int(_nearest_psk_indices(np.asarray(y / h_hat), constellation.m_order))


class SymbolRun(NamedTuple):
    """Raw per-symbol record of a Monte-Carlo run."""

    true_idx: np.ndarray
    rx_idx: np.ndarray
    eve_idx: np.ndarray
    eve_equalized: np.ndarray


def simulate_symbols(
    rx_link: LinkState,
    rx_direction,
    eve_link: LinkState,
    eve_direction,
    cfg: ArrayConfig,
    defense: str,
    m_order: int,
    num_symbols: int,
    rng: np.random.Generator,
    asm_c: float | None = None,
) -> SymbolRun:
    """Simulate num_symbols transmissions and detect at RX and eavesdropper.

    The transmit beam is the codeword for the RX's nearest grid point; both
    receivers equalize on its unshifted gain (perfect training). Defense
    "csb" draws one uniform circulant shift per symbol and compensates the
    symbol for the RX grid point; "asm" retains a random antenna subset per
    symbol (fraction asm_c) with phase-only RX correction; "none" transmits
    the fixed beam.

    Draw order from rng is fixed (symbol indices, RX noise, eavesdropper
    noise, defense randomness) so runs differing only in the defense are
    exactly paired.
    """
    if num_symbols < 1:
        raise ValueError(f"num_symbols must be >= 1, got {num_symbols}")
    if defense not in DEFENSES:
        raise ValueError(f"defense must be one of {DEFENSES}, got {defense!r}")
    rows, cols = cfg.shape
    rx_grid = nearest_grid_index(*rx_direction, cfg.n_t, cfg.n_rows)
    f = dft_codeword(rx_grid, cfg)
    v_rx = array_response(*rx_direction, cols, rows)
    v_eve = array_response(*eve_direction, cols, rows)
    g_rx0 = beam_gain(v_rx, f)
    g_eve0 = beam_gain(v_eve, f)
    h_rx = math.sqrt(rx_link.p_r) * np.exp(1j * rx_link.nu) * g_rx0
    h_eve = math.sqrt(eve_link.p_r) * np.exp(1j * eve_link.nu) * g_eve0

    constellation = PskConstellation(m_order)
    true_idx = rng.integers(m_order, size=num_symbols)
    x = constellation.symbols[true_idx]
    noise_rx = (rng.standard_normal(num_symbols) + 1j * rng.standard_normal(num_symbols)) * math.sqrt(
        rx_link.sigma2 / 2
    )
    noise_eve = (rng.standard_normal(num_symbols) + 1j * rng.standard_normal(num_symbols)) * math.sqrt(
        eve_link.sigma2 / 2
    )

    if defense == "none":
        g_rx = np.full(num_symbols, g_rx0)
        g_eve = np.full(num_symbols, g_eve0)
        sent = x
    elif defense == "csb":
        s_idx = rng.integers(rows * cols, size=num_symbols)
        g_rx = shift_gains(v_rx, f, rx_grid)[s_idx]
        g_eve = shift_gains(v_eve, f, rx_grid)[s_idx]
        sent = x
    else:
        if asm_c is None:
            raise ValueError("defense 'asm' requires asm_c")
        asm_cfg = AsmConfig(asm_c, cfg.n_t, cfg.n_rows)
        masks = random_subset_masks(f.size, asm_cfg.active_count, num_symbols, rng)
        w_rx = (v_rx * f.conj()).ravel()
        w_eve = (v_eve * f.conj()).ravel()
        g_rx = masks @ w_rx
        g_eve = masks @ w_eve
        sent = x * np.exp(-1j * np.angle(g_rx))

    y_rx = math.sqrt(rx_link.p_r) * np.exp(1j * rx_link.nu) * g_rx * sent + noise_rx
    y_eve = math.sqrt(eve_link.p_r) * np.exp(1j * eve_link.nu) * g_eve * sent + noise_eve

    if h_rx == 0:
        rx_idx = np.full(num_symbols, -1, dtype=np.int64)
    else:
        rx_idx = _nearest_psk_indices(y_rx / h_rx, m_order)
    if h_eve == 0:
        eve_idx = np.full(num_symbols, -1, dtype=np.int64)
        eve_equalized = np.zeros(num_symbols, dtype=complex)
    else:
        eve_equalized = y_eve / h_eve
        eve_idx = _nearest_psk_indices(eve_equalized, m_order)
    return SymbolRun(true_idx, rx_idx, eve_idx, eve_equalized)


def run_ser_experiment(
    rx_link: LinkState,
    rx_direction,
    eve_link: LinkState,
    eve_direction,
    cfg: ArrayConfig,
    defense: str,
    m_order: int,
    num_symbols: int,
    rng: np.random.Generator,
    asm_c: float | None = None,
    capture_constellation: bool = False,
):
    """Count RX and eavesdropper symbol errors over a Monte-Carlo run.

    Returns a SerResult, or (SerResult, dump) with capture_constellation
    where dump is an (n, 3) array of eavesdropper-equalized samples
    (re, im, true symbol index), capped at 10^4 rows.
    """
    run = simulate_symbols(
        rx_link, rx_direction, eve_link, eve_direction, cfg, defense, m_order, num_symbols, rng, asm_c
    )
    result = SerResult.from_counts(
        num_symbols,
        int(np.count_nonzero(run.rx_idx != run.true_idx)),
        int(np.count_nonzero(run.eve_idx != run.true_idx)),
    )
    if not capture_constellation:
        return result
    cap = min(num_symbols, CONSTELLATION_CAP)
    dump = np.column_stack(
        [run.eve_equalized[:cap].real, run.eve_equalized[:cap].imag, run.true_idx[:cap].astype(float)]
    )
    return result, dump
