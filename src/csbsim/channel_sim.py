"""Line-of-sight narrowband link simulation and the defenses' gain path.

Signal model per symbol: y = sqrt(P_r) * g * x + n, where g is
the transmitter-compensated gain of the defended beamformer toward the
receiver (defense_gains: the fixed beam, a circulant shift, or an antenna
subset). Both receivers equalize on the fixed, unshifted beamformer's gain
(perfect training) and detect the nearest PSK symbol. A Monte-Carlo run is
a draw step (symbols, unit noise and the defense's gains) then a detect
step that scales the noise to each link, so ser_sweep draws each defense
once, only rescales the noise at each SNR point, and takes the
eavesdropper's constellation from its own CSB draw. smi_sweep and
rx_power_penalty_db evaluate the same gains as secrecy mutual information
and as exact mean receive power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .array import array_bytes, gains, nearest_grid_index, responses
from .asm_baseline import AsmConfig, random_subset_masks
from .csb_defense import MI_NODES, mixture_mi_bytes, mixture_mis, psk_symbols, shift_gains

DEFENSES = ("none", "csb", "asm")

CONSTELLATION_CAP = 10_000

# ASM subsets drawn, and multiplied out, per block of rows: bounds the
# float64 scores of a draw and the float64 copy of the masks a product makes.
# A block's peak is 17 B per element and subset: the float64 scores, their
# np.partition copy and the boolean masks
MASK_BLOCK = 256

# ASM subsets sampled for each MI estimate; CSB uses its exact ensemble of shifts.
MI_SUBSETS = 256


@dataclass(frozen=True)
class LinkState:
    """Received reference power (linear) and noise power."""

    p_r: float
    sigma2: float

    def __post_init__(self):
        if self.p_r < 0:
            raise ValueError(f"p_r must be nonnegative, got {self.p_r}")
        if self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")


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
    """y = sqrt(P_r) * gain * x + n, elementwise over arrays."""
    return math.sqrt(link.p_r) * gain * x + noise


def _nearest_psk_indices(z: np.ndarray, m_order: int) -> np.ndarray:
    """Vectorized nearest-symbol decision for unit M-PSK (angle rounding)."""
    k = np.rint(np.angle(z) * m_order / (2 * np.pi)).astype(np.int64)
    return k % m_order


def equalize_and_detect(y, h_hat: complex, m_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-symbol (ML under AWGN) decisions on y / h_hat, elementwise,
    with one trained gain h_hat for every sample.

    Returns (equalized samples, symbol indices). If h_hat == 0 the receiver
    has no channel: every sample is 0 and every index -1 (an erasure, always
    counted as an error).
    """
    y = np.asarray(y, dtype=complex)
    if h_hat == 0:
        return np.zeros(y.shape, dtype=complex), np.full(y.shape, -1)
    z = y / h_hat
    return z, _nearest_psk_indices(z, m_order)


def defense_gains(defense: str, f: np.ndarray, directions, rx_grid, rng=None, num=None, asm_c=None) -> np.ndarray:
    """Transmitter-compensated gains of a defense toward a list of directions.

    f is the (rows, cols) beamformer steered at grid point rx_grid and
    directions a (P, 2) array of (theta, phi) pairs in radians, row 0 the
    intended receiver's. Returns a (P, K) array with one column per
    transmission:

    * "none": the fixed beam, <V, F> (K = 1).
    * "csb": with an rng, num transmissions on uniformly drawn circulant
      shifts; without, every shift once, flat at k = m * cols + n
      (K = rows * cols). Each gain includes the symbol's compensation for
      rx_grid (shift_gains).
    * "asm": num transmissions, each on a uniform subset of
      round(asm_c * rows * cols) elements drawn from rng, rotated by minus
      the phase of its gain toward directions[0], so the receiver sees the
      symbol's phase on every draw.

    Raises:
        ValueError: on an unknown defense, or "asm" without asm_c and an rng.
    """
    thetas, phis = np.asarray(directions, dtype=float).T
    if defense == "none":
        return gains(f, thetas, phis)[:, None]
    v = responses(thetas, phis, *f.shape)
    if defense == "csb":
        g = shift_gains(v, f, rx_grid)
        return g if rng is None else g[:, rng.integers(f.size, size=num)]
    if defense == "asm":
        if asm_c is None or rng is None:
            raise ValueError("defense 'asm' requires asm_c and an rng")
        rows, cols = f.shape
        active = AsmConfig(asm_c, cols, rows).active_count
        w = (v * np.conj(f)).reshape(len(v), -1)
        # one real product per block on the (size, 2P) matrix [Re w | Im w]: a complex
        # product copies the block to complex128, and P matrix-vector products each wake
        # the BLAS threads; peak RSS on a 64 x 64 array with 4000 subsets measured 161 MB
        w_ri = np.concatenate([w.real, w.imag]).T
        g = np.concatenate([
            random_subset_masks(f.size, active, min(MASK_BLOCK, num - lo), rng).astype(float) @ w_ri
            for lo in range(0, num, MASK_BLOCK)
        ]).T
        g = g[:len(v)] + 1j * g[len(v):]
        return g * np.exp(-1j * np.angle(g[0]))
    raise ValueError(f"defense must be one of {DEFENSES}, got {defense!r}")


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
    max(I_rx - I_eve, 0), each I a mixture_mis estimate over the defense's
    gains divided by the fixed-beam gain: every shift for CSB, MI_SUBSETS
    subsets from the stream [seed, 7, ci] for fraction ci (the same subsets
    for both receivers). A column's estimates are one mixture_mis call on
    the stream [seed, 101], so every estimate reads the same draws.

    Returns:
        (len(eve_directions), 1 + len(asm_c)) array, CSB in column 0; NaN
        where the eavesdropper's fixed-beam gain is below 1e-9 (no channel
        can be trained there, so nothing is learned).

    Raises:
        ValueError: if the receiver's own fixed-beam gain is (near) zero.
    """
    rows, cols = f.shape
    rx_grid = nearest_grid_index(*rx_direction, cols, rows)
    directions = np.array([rx_direction, *eve_directions], dtype=float)
    base = gains(f, *directions.T)
    if abs(base[0]) < 1e-12 * math.sqrt(f.size):
        raise ValueError("receiver direction has no trained channel (zero gain)")
    # row 0 is the receiver, then every eavesdropper with a trained channel
    probed = np.concatenate([[0], 1 + np.flatnonzero(np.abs(base[1:]) >= 1e-9)])
    rho = 10 ** (rx_snr_db / 10) * (np.abs(base[probed]) / abs(base[0])) ** 2
    out = np.full((len(eve_directions), 1 + len(asm_c)), np.nan)
    table = [("csb", None, None)] + [("asm", c, np.random.default_rng([seed, 7, ci])) for ci, c in enumerate(asm_c)]
    for col, (defense, c, rng) in enumerate(table):
        atoms = defense_gains(defense, f, directions[probed], rx_grid, rng, MI_SUBSETS, c) / base[probed, None]
        mi = mixture_mis(atoms, rho, m_order, np.random.default_rng([seed, 101]), mi_samples)
        out[probed[1:] - 1, col] = np.maximum(mi[0] - mi[1:], 0.0)
    return out


def smi_bytes(n_t: int, num_rows: int, m_order: int, asm_c, mi_samples: int) -> float:
    """Peak traced bytes of smi_sweep over num_rows directions (the receiver's
    and the eavesdroppers') on an n_t-element linear array, then of
    smi_theory: one column's mixture_mis call (at MI_WORKERS workers, the
    same on every host), 80 B per direction and atom for the defense gains
    that become the atoms (64 B measured for CSB), ASM's mask block, and
    psk_mutual_information's quadrature (25 B per element of its three
    (M, MI_NODES, MI_NODES) arrays, measured)."""
    atoms = max([n_t] + [MI_SUBSETS] * bool(asm_c))
    return (
        mixture_mi_bytes(mi_samples, m_order, atoms, num_rows)
        + 80.0 * num_rows * atoms
        + 17.0 * min(MASK_BLOCK, MI_SUBSETS) * n_t * bool(asm_c)
        + 25.0 * m_order * MI_NODES**2
    )


def rx_power_penalty_db(f: np.ndarray, rx_direction, asm_c) -> np.ndarray:
    """Exact mean receive power of CSB and of ASM at each fraction in asm_c, in
    dB relative to the fixed beam f. CSB averages every shift; ASM with k of
    the N elements active has mean p2 |sum w|^2 + (p1 - p2) sum |w|^2, with
    w = V * conj(F), p1 = k / N and p2 = k (k - 1) / (N (N - 1)) (0 for k <= 1)."""
    rows, cols = f.shape
    rx = np.array([rx_direction], dtype=float)
    p_fixed = abs(gains(f, *rx.T)[0]) ** 2  # |sum w|^2
    w_power = float(np.sum(np.abs(responses(*rx.T, rows, cols)[0] * np.conj(f)) ** 2))
    means = [float(np.mean(np.abs(defense_gains("csb", f, rx, nearest_grid_index(*rx_direction, cols, rows))) ** 2))]
    for c in asm_c:
        k = AsmConfig(c, cols, rows).active_count
        p1, p2 = k / f.size, k * (k - 1) / max(f.size * (f.size - 1), 1)  # p2 = 0 for k <= 1
        means.append(p2 * p_fixed + (p1 - p2) * w_power)
    return np.array([10 * math.log10(mean / p_fixed) for mean in means])


class SymbolRun(NamedTuple):
    """Raw per-symbol record of a Monte-Carlo run."""

    true_idx: np.ndarray
    rx_idx: np.ndarray
    eve_idx: np.ndarray
    eve_equalized: np.ndarray


def _draw(f, directions, defense, m_order, num_symbols, rng, asm_c, trained):
    """A Monte-Carlo run's draws from rng toward directions (RX, eavesdropper),
    in a fixed order (symbol indices, RX noise, eavesdropper noise, then the
    defense's gains from defense_gains), so runs that differ only in the
    defense are exactly paired. trained holds the fixed beam's gains toward
    directions, gains(f, *directions.T). Returns (symbol indices, symbols,
    then per receiver its unit noise re + j im, the defense's gains and its
    entry of trained)."""
    if num_symbols < 1:
        raise ValueError(f"num_symbols must be >= 1, got {num_symbols}")
    rows, cols = f.shape
    true_idx = rng.integers(m_order, size=num_symbols)
    normals = [rng.standard_normal(num_symbols) + 1j * rng.standard_normal(num_symbols) for _ in range(2)]
    g = defense_gains(defense, f, directions, nearest_grid_index(*directions[0], cols, rows), rng, num_symbols, asm_c)
    return true_idx, psk_symbols(m_order)[true_idx], list(zip(normals, g, trained))


def _detect(draw, links, m_order: int) -> SymbolRun:
    """Both receivers' decisions on a _draw, each one's unit noise scaled to its link's noise power."""
    true_idx, x, paths = draw
    (_, rx_idx), (eve_equalized, eve_idx) = (
        equalize_and_detect(
            received_symbol(link, g, x, n * math.sqrt(link.sigma2 / 2)), math.sqrt(link.p_r) * h, m_order
        )
        for link, (n, g, h) in zip(links, paths)
    )
    return SymbolRun(true_idx, rx_idx, eve_idx, eve_equalized)


def ser_sweep(
    f: np.ndarray,
    rx_direction,
    eve_direction,
    p_rx: float,
    p_eve: float,
    snr_dbs,
    m_order: int,
    asm_c,
    num_symbols: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Symbol errors at the RX and the eavesdropper, per defense and SNR point.

    f is the fixed beam steered at the RX's nearest grid point, p_rx and
    p_eve the received reference powers. At each point both receivers see
    the noise power that gives the RX a post-beamforming SNR of snr_db on f.
    Each defense is drawn once, from the stream [seed, 0], and detected at
    every point, so the defenses are paired; one defense's draws are held at a
    time.

    Returns:
        (errors, constellation). errors is an int array of shape
        (len(snr_dbs), 2 + len(asm_c), 2): the (RX, eavesdropper) error
        counts out of num_symbols, for none, csb, then asm at each fraction
        of asm_c. constellation holds the eavesdropper's (re, im, true
        symbol index) rows of the CSB draw at the last SNR point, the same
        symbols its error count is taken over, at most CONSTELLATION_CAP of
        them.
    """
    g_rx = abs(gains(f, (rx_direction[0],), (rx_direction[1],))[0])
    sigma2s = [sigma2_for_snr(p_rx, g_rx, snr_db) for snr_db in snr_dbs]
    directions = np.array([rx_direction, eve_direction], dtype=float)
    trained = gains(f, *directions.T)
    defenses = [("none", None), ("csb", None)] + [("asm", c) for c in asm_c]
    errors = np.empty((len(sigma2s), len(defenses), 2), dtype=np.int64)
    for col, (defense, c) in enumerate(defenses):
        draw = _draw(f, directions, defense, m_order, num_symbols, np.random.default_rng([seed, 0]), c, trained)
        for si, s2 in enumerate(sigma2s):
            run = _detect(draw, (LinkState(p_rx, s2), LinkState(p_eve, s2)), m_order)
            errors[si, col] = [np.count_nonzero(idx != run.true_idx) for idx in (run.rx_idx, run.eve_idx)]
        if defense == "csb":  # a capped copy: the run itself is freed below
            z, k = run.eve_equalized[:CONSTELLATION_CAP], run.true_idx[:CONSTELLATION_CAP]
            constellation = np.column_stack([z.real, z.imag, k.astype(float)])
        del draw, run  # freed before the next defense is drawn
    return errors, constellation


def ser_bytes(rows: int, cols: int, num_points: float, asm_c, num_symbols: int) -> float:
    """Peak traced bytes of ser_sweep on a rows x cols array, with the rows of
    the ser tables: array_bytes (every shift's gain toward both receivers),
    1 MB for numpy.random's and numpy.fft's first use, 272 B per symbol, 160 B
    per SNR point and 190 B per defense row of it, and ASM's mask block."""
    return (
        array_bytes(rows, cols)
        + 2.0**20
        + 272.0 * num_symbols
        + num_points * (160.0 + 190.0 * (2 + len(asm_c)))
        + 17.0 * min(MASK_BLOCK, num_symbols) * rows * cols * bool(asm_c)
    )
