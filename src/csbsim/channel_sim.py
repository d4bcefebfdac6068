"""Line-of-sight narrowband link simulation and the defenses' gain path.

Signal model per symbol: y = sqrt(P_r) * exp(j nu) * g * x + n, where g is
the transmitter-compensated gain of the defended beamformer toward the
receiver (defense_gains: the fixed beam, a circulant shift, or an antenna
subset). Both receivers equalize on the fixed, unshifted beamformer's gain
(perfect training) and detect the nearest PSK symbol. Monte-Carlo SER runs
share one noise stream per receiver per run so defended and undefended runs
with the same seed are exactly paired: symbols first, then RX noise, then
eavesdropper noise, then any defense randomness. smi_sweep and
rx_power_penalty_db evaluate the same gains as secrecy mutual information
and as mean receive power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .array import ArrayConfig, array_response, beam_gain, dft_codeword, nearest_grid_index
from .asm_baseline import AsmConfig, random_subset_masks
from .csb_defense import mixture_mi, shift_gains

DEFENSES = ("none", "csb", "asm")

CONSTELLATION_CAP = 10_000

# ASM subsets sampled for each MI estimate and for the mean-power penalty;
# CSB uses its exact ensemble of shifts in both.
MI_SUBSETS = 256
PENALTY_SUBSETS = 4000


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


def received_symbol(link: LinkState, gain, x, noise):
    """y = sqrt(P_r) * exp(j nu) * gain * x + n, elementwise over arrays."""
    return math.sqrt(link.p_r) * np.exp(1j * link.nu) * gain * x + noise


def _nearest_psk_indices(z: np.ndarray, m_order: int) -> np.ndarray:
    """Vectorized nearest-symbol decision for unit M-PSK (angle rounding)."""
    k = np.rint(np.angle(z) * m_order / (2 * np.pi)).astype(np.int64)
    return k % m_order


def equalize_and_detect(y, h_hat, m_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-symbol (ML under AWGN) decisions on y / h_hat, elementwise.

    Returns (equalized samples, symbol indices). Where h_hat == 0 the
    receiver has no channel: the sample is 0 and the index -1 (an erasure,
    always counted as an error).
    """
    y, h_hat = np.broadcast_arrays(np.asarray(y, dtype=complex), h_hat)
    trained = h_hat != 0
    z = np.divide(y, h_hat, out=np.zeros(y.shape, dtype=complex), where=trained)
    return z, np.where(trained, _nearest_psk_indices(z, m_order), -1)


def defense_gains(defense: str, f: np.ndarray, v, rx_grid, rng=None, num=None, asm_c=None) -> np.ndarray:
    """Transmitter-compensated gains of a defense toward a stack of responses.

    f is the (rows, cols) beamformer steered at grid point rx_grid and v a
    (P, rows, cols) stack of responses, v[0] the intended receiver's.
    Returns a (P, K) array with one column per transmission:

    * "none": the fixed beam, <V, F> (K = 1).
    * "csb": with an rng, num transmissions on uniformly drawn circulant
      shifts; without, every shift once, flat at k = m * cols + n
      (K = rows * cols). Each gain includes the symbol's compensation for
      rx_grid (shift_gains).
    * "asm": num transmissions, each on a uniform subset of
      round(asm_c * rows * cols) elements drawn from rng, rotated by minus
      the phase of its gain toward v[0], so the receiver sees the symbol's
      phase on every draw.

    Raises:
        ValueError: on an unknown defense, responses not shaped like f, or
            "asm" without asm_c and an rng.
    """
    v = np.asarray(v)
    if v.shape[1:] != f.shape:
        raise ValueError(f"shape mismatch: responses {v.shape} vs beamformer {f.shape}")
    if defense == "csb":
        g = shift_gains(v, f, rx_grid)
        return g if rng is None else g[:, rng.integers(f.size, size=num)]
    if defense == "none":
        return np.array([[beam_gain(v_p, f)] for v_p in v])
    if defense == "asm":
        if asm_c is None or rng is None:
            raise ValueError("defense 'asm' requires asm_c and an rng")
        rows, cols = f.shape
        masks = random_subset_masks(f.size, AsmConfig(asm_c, cols, rows).active_count, num, rng)
        # one matrix-vector product per response: a single matrix-matrix
        # product measured about 9 MB more peak RSS (BLAS GEMM buffers)
        g = np.stack([masks @ w for w in (v * np.conj(f)).reshape(len(v), -1)])
        return g * np.exp(-1j * np.angle(g[0]))
    raise ValueError(f"defense must be one of {DEFENSES}, got {defense!r}")


def _defense_table(asm_c, seed: int, stream: int):
    """(defense, fraction, rng) for CSB, then ASM at each fraction of asm_c;
    fraction ci draws its subsets from the stream [seed, stream, ci]."""
    return [("csb", None, None)] + [
        ("asm", c, np.random.default_rng([seed, stream, ci])) for ci, c in enumerate(asm_c)
    ]


def smi_sweep(
    f: np.ndarray,
    rx_direction,
    eve_directions,
    rx_snr_db: float,
    m_order: int,
    asm_c,
    mi_samples: int,
    seed: int,
) -> np.ndarray:
    """Secrecy MI of CSB and of ASM at each fraction in asm_c, per eavesdropper direction.

    Both receivers equalize on the fixed beam f, which is steered at the
    receiver's nearest grid point; the eavesdropper's SNR is rx_snr_db
    scaled by the squared ratio of the two fixed-beam gains. An entry is
    max(I_rx - I_eve, 0), each I a mixture_mi estimate over the defense's
    gains divided by the fixed-beam gain: every shift for CSB, MI_SUBSETS
    subsets from the stream [seed, 7, ci] for fraction ci (the same subsets
    for both receivers). Every estimate uses the stream [seed, 101].

    Returns:
        (len(eve_directions), 1 + len(asm_c)) array, CSB in column 0; NaN
        where the eavesdropper's fixed-beam gain is below 1e-9 (no channel
        can be trained there, so nothing is learned).

    Raises:
        ValueError: if the receiver's own fixed-beam gain is (near) zero.
    """
    rows, cols = f.shape
    rx_grid = nearest_grid_index(*rx_direction, cols, rows)
    v = np.stack([array_response(*d, cols, rows) for d in [rx_direction, *eve_directions]])
    base = defense_gains("none", f, v, rx_grid)[:, 0]
    if abs(base[0]) < 1e-12 * math.sqrt(f.size):
        raise ValueError("receiver direction has no trained channel (zero gain)")
    # row 0 is the receiver, then every eavesdropper with a trained channel
    probed = np.concatenate([[0], 1 + np.flatnonzero(np.abs(base[1:]) >= 1e-9)])
    rho = 10 ** (rx_snr_db / 10) * (np.abs(base[probed]) / abs(base[0])) ** 2
    out = np.full((len(eve_directions), 1 + len(asm_c)), np.nan)
    for col, (defense, c, rng) in enumerate(_defense_table(asm_c, seed, 7)):
        atoms = defense_gains(defense, f, v[probed], rx_grid, rng, MI_SUBSETS, c) / base[probed, None]
        mi = [
            mixture_mi(a, r, m_order, np.random.default_rng([seed, 101]), mi_samples)
            for a, r in zip(atoms, rho)
        ]
        out[probed[1:] - 1, col] = np.maximum(mi[0] - np.array(mi[1:]), 0.0)
    return out


def rx_power_penalty_db(f: np.ndarray, rx_direction, asm_c, seed: int) -> np.ndarray:
    """Mean receive power of CSB and of ASM at each fraction in asm_c, in dB
    relative to the fixed beam f; ASM fraction ci averages PENALTY_SUBSETS
    subsets from the stream [seed, 55, ci], CSB averages every shift."""
    rows, cols = f.shape
    rx_grid = nearest_grid_index(*rx_direction, cols, rows)
    v = array_response(*rx_direction, cols, rows)[None]
    p_fixed = abs(defense_gains("none", f, v, rx_grid)[0, 0]) ** 2
    out = []
    for defense, c, rng in _defense_table(asm_c, seed, 55):
        g = defense_gains(defense, f, v, rx_grid, rng, PENALTY_SUBSETS, c)
        out.append(10 * math.log10(float(np.mean(np.abs(g) ** 2)) / p_fixed))
    return np.array(out)


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
    receivers equalize on its unshifted gain (perfect training). Each symbol
    goes out on its own draw of the defense (defense_gains): a uniform
    circulant shift compensated for the RX grid point ("csb"), a random
    antenna subset (fraction asm_c) with phase-only RX correction ("asm"),
    or the fixed beam ("none").

    Draw order from rng is fixed (symbol indices, RX noise, eavesdropper
    noise, defense randomness) so runs differing only in the defense are
    exactly paired.
    """
    if num_symbols < 1:
        raise ValueError(f"num_symbols must be >= 1, got {num_symbols}")
    rows, cols = cfg.shape
    rx_grid = nearest_grid_index(*rx_direction, cfg.n_t, cfg.n_rows)
    f = dft_codeword(rx_grid, cfg)
    v = np.stack([array_response(*d, cols, rows) for d in (rx_direction, eve_direction)])
    links = (rx_link, eve_link)

    true_idx = rng.integers(m_order, size=num_symbols)
    x = PskConstellation(m_order).symbols[true_idx]
    noise = [
        (rng.standard_normal(num_symbols) + 1j * rng.standard_normal(num_symbols)) * math.sqrt(link.sigma2 / 2)
        for link in links
    ]
    trained = defense_gains("none", f, v, rx_grid)[:, 0]
    g = defense_gains(defense, f, v, rx_grid, rng, num_symbols, asm_c)
    (_, rx_idx), (eve_equalized, eve_idx) = (
        equalize_and_detect(received_symbol(link, g_p, x, n_p), received_symbol(link, h_p, 1.0, 0.0), m_order)
        for link, g_p, n_p, h_p in zip(links, g, noise, trained)
    )
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
