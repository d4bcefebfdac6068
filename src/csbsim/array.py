"""Array responses, phase-shifter quantization, and the quantized DFT codebook.

The transmit array is a rectangular grid of half-wavelength spaced elements,
(n_rows x n_t); the square planar case n_rows == n_t is the default and a
single-row config models a uniform linear array. Index convention, used
consistently everywhere: row index k carries the elevation phase (grid index
j), column index l carries the azimuth phase (grid index i).

A direction is "on-grid" when i = (n_t/2) sin(theta) and j = (n_rows/2)
sin(phi) are integers; those directions form the DFT beam grid, and the
codebook is the entrywise q-bit quantization of the matched responses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Sentinel for unquantized (infinite-resolution) phase shifters.
UNQUANTIZED = None

#: Complex elements in one block of gains' (beams, directions, cols)
#: products: 512 kB, which stays in a core's L2 cache from the block's
#: gather through its product to its sum.
GAIN_BLOCK = 2**15


@dataclass(frozen=True)
class ArrayConfig:
    """Array size and phase-shifter resolution.

    Attributes:
        n_t: elements per azimuth row; must be even and >= 2 so the on-grid
            index set is symmetric in angle.
        q: phase-shifter resolution in bits (>= 1), or UNQUANTIZED.
        n_rows: elements per elevation column; None means square (n_t),
            1 models a uniform linear array, otherwise must be even.
    """

    n_t: int
    q: int | None = UNQUANTIZED
    n_rows: int | None = None

    def __post_init__(self):
        if self.n_t < 2 or self.n_t % 2 != 0:
            raise ValueError(f"n_t must be even and >= 2, got {self.n_t}")
        if self.q is not UNQUANTIZED and (not isinstance(self.q, int) or self.q < 1):
            raise ValueError(f"q must be a positive integer or UNQUANTIZED, got {self.q}")
        rows = self.n_rows
        if rows is not None and rows != 1 and (rows < 2 or rows % 2 != 0):
            raise ValueError(f"n_rows must be None, 1, or even >= 2, got {rows}")

    @property
    def shape(self) -> tuple[int, int]:
        rows = self.n_t if self.n_rows is None else self.n_rows
        return rows, self.n_t


class GridIndex(NamedTuple):
    """Beam-grid direction index (azimuth i, elevation j), stored mod the
    per-axis element count. The physical angle of index i on an n-element
    axis is arcsin(2i/n) for i <= n/2 and arcsin(2(i-n)/n) otherwise."""

    i: int
    j: int = 0


def _steering(angles, n: int) -> np.ndarray:
    """Steering factors exp(-j pi k sin(angle)), k = 0 .. n-1: one row per angle (radians)."""
    phase = -1j * np.pi * np.sin(np.asarray(angles, dtype=float))[:, None] * np.arange(n)
    return np.exp(phase, out=phase)


def responses(thetas, phis, rows: int, cols: int) -> np.ndarray:
    """Far-field responses V(theta, phi) = a(phi) a(theta)^T over direction
    pairs (thetas[d], phis[d]), radians: a (D, rows, cols) stack whose entry
    (d, k, l) is exp(-j pi (k sin(phis[d]) + l sin(thetas[d])))."""
    return _steering(phis, rows)[:, :, None] * _steering(thetas, cols)[:, None, :]


def grid_angle(i: int, n: int) -> float:
    """Physical angle (radians) of grid index i on an n-element axis."""
    if n == 1:
        return 0.0
    i = i % n
    if i <= n // 2:
        return math.asin(2 * i / n)
    return math.asin(2 * (i - n) / n)


def nearest_grid_index(theta: float, phi: float, n_t: int, n_rows: int | None = None) -> GridIndex:
    """Snap a direction to the nearest beam-grid index (round in sin-space)."""
    rows = n_t if n_rows is None else n_rows
    i = round((n_t / 2) * math.sin(theta)) % n_t
    j = 0 if rows == 1 else round((rows / 2) * math.sin(phi)) % rows
    return GridIndex(i, j)


def quantize_phase(x, q: int | None):
    """Round a phase to the nearest member of B_q = {2 pi i / 2^q}.

    Distance is circular (wraparound), so e.g. 1.6*pi quantizes to 0 for
    q=1. Exact midpoints resolve to the smaller phase value in [0, 2 pi),
    which at the seam means the tie between 2 pi (1 - 2^-q) and 2 pi goes
    to 0. Accepts scalars or arrays; UNQUANTIZED returns the phase mod 2 pi.
    """
    y = np.mod(x, 2 * np.pi)
    if q is UNQUANTIZED:
        return y
    levels = 1 << q
    step = 2 * np.pi / levels
    k0 = np.floor(y / step)
    d0 = y - k0 * step
    d1 = step - d0
    # Nearest level; on an exact tie keep k0 unless the upper candidate wraps
    # to 0, which is the smaller phase value.
    k = np.where(d0 <= d1, k0, k0 + 1)
    tie_at_seam = (d0 == d1) & (k0 + 1 == levels)
    k = np.where(tie_at_seam, levels, k)  # maps to 0 after the mod below
    out = (np.mod(k, levels)) * step
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def dft_codeword(g: GridIndex, cfg: ArrayConfig) -> np.ndarray:
    """Codebook beamformer that steers the beam toward grid direction g.

    The unquantized variant is V(grid g) / sqrt(size), so its gain at grid g
    is the full coherent sum and exactly zero at every other grid point by
    DFT orthogonality; quantization keeps the entries on the q-bit phase
    lattice.
    """
    rows, cols = cfg.shape
    i, j = int(g[0]) % cols, int(g[1]) % rows
    k = np.arange(rows)[:, None]
    l = np.arange(cols)[None, :]
    # Matched to the response at grid (i, j): same (negative) phase slopes.
    phase = -2 * np.pi * (j * k / rows + i * l / cols)
    return np.exp(1j * quantize_phase(phase, cfg.q)) / math.sqrt(rows * cols)


def gains(f: np.ndarray, thetas, phis) -> np.ndarray:
    """Gains <V(theta, phi), F> over direction pairs (thetas[d], phis[d]), radians.

    f is one (rows, cols) beamformer, giving a (D,) complex array, or a stack
    (B, rows, cols), giving (B, D). Each distinct elevation's row products
    with every beam, and each distinct azimuth's factor, are built once; the
    directions then go through in blocks of about GAIN_BLOCK / (B cols), all
    beams at once, so no temporary grows with D. A stack's gains equal, bit
    for bit, those of single calls on each beam. A direction's gain need not
    equal its gain alone: with more than one distinct elevation, the BLAS
    call behind the elevation products may round them differently.
    """
    f = np.asarray(f)
    rows, cols = f.shape[-2:]
    u_phi, ip = np.unique(np.asarray(phis, dtype=float), return_inverse=True)
    u_theta, it = np.unique(np.asarray(thetas, dtype=float), return_inverse=True)
    stack = f.reshape(-1, rows, cols)
    el = _steering(u_phi, rows) @ np.conj(stack)  # (B, distinct phis, cols)
    a_az = _steering(u_theta, cols)
    out = np.empty((len(stack), len(ip)), dtype=complex)
    step = max(1, GAIN_BLOCK // (len(stack) * cols))
    for lo in range(0, len(ip), step):
        blk = slice(lo, lo + step)
        t = el[:, ip[blk]]
        t *= a_az[it[blk]]
        np.sum(t, axis=2, out=out[:, blk])
    return out.reshape(f.shape[:-2] + (len(ip),))


def beam_pattern(f: np.ndarray, directions) -> np.ndarray:
    """Normalized gain magnitude of a beamformer over a list of directions.

    Args:
        f: (rows, cols) beamformer.
        directions: iterable of (theta, phi) pairs, radians.

    Returns:
        1D array of |<V(theta, phi), F>| / max over the list.

    Raises:
        ValueError: if the direction list is empty.
    """
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if dirs.size == 0:
        raise ValueError("direction list is empty")
    amp = np.abs(gains(f, dirs[:, 0], dirs[:, 1]))
    return amp / amp.max()


def array_bytes(rows: int, cols: int) -> float:
    """Peak traced bytes of the array's kernels on a rows x cols array: a
    codeword (66 B per element, measured) and every circulant shift's gain
    toward two directions (171 B); a map of gains over 181 angles per axis
    (32 B per angle and column); and 256 kB for numpy.fft's first use."""
    return 2.0**18 + 240.0 * rows * cols + 32.0 * 181 * cols
