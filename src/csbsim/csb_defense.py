"""Circulant-shift beamforming defense and its exact phase-noise law.

Circularly shifting a beamformer by (m, n) rotates the gain seen at any
on-grid direction (i, j) by exactly exp(-j 2 pi (m j / rows + n i / cols)),
for every beamformer matrix. The transmitter compensates that rotation for
the intended receiver's grid point (shift_gains, every shift at once); every
other grid direction is left with a shift-dependent artificial phase-noise
(APN) term whose exact distribution under uniform random shifts is derived
here, together with the resulting constellation-partition law and secrecy
mutual information for PSK inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .array import grid_angle


def shift_gains(v: np.ndarray, f: np.ndarray, rx_grid) -> np.ndarray:
    """Compensated gain of every circulant shift s = (m, n), flat at k = m * cols + n.

    Entry k is <V, F_s> * exp(2j pi p), where F_s moves entry (a, b) of F to
    ((a + m) mod rows, (b + n) mod cols) and p = (m j / rows + n i / cols) mod 1
    is the exact rotation fraction at rx_grid = (i, j). All shifts' gains are
    one circular cross-correlation, ifft2(fft2(V) * conj(fft2(F))), and p enters
    as its integer numerator over rows * cols. v may be a stack of responses
    (..., rows, cols); the result is then (..., rows * cols).
    """
    rows, cols = f.shape
    i, j = rx_grid
    m = np.arange(rows)[:, None]
    n = np.arange(cols)[None, :]
    num = ((m * j) % rows * cols + (n * i) % cols * rows) % (rows * cols)
    comp = np.exp(2j * np.pi * (num / (rows * cols)))
    gains = np.fft.ifft2(np.fft.fft2(v) * np.conj(np.fft.fft2(f))) * comp
    return gains.reshape(*gains.shape[:-2], -1)


@dataclass(frozen=True)
class ApnLaw:
    """Exact law of the artificial phase noise at an off-receiver grid point.

    The offset (delta_i, delta_j) is receiver grid minus eavesdropper grid.
    With g = gcd(delta_i, delta_j) and g' = gcd(n_t, g), the phase error is
    uniform over the n_t/g' multiples of 2 pi g'/n_t.

    Attributes:
        support_indices: integers k with support phase 2 pi k / n_t.
        support: the phases in radians, ascending.
        prob: probability of each atom (uniform).
    """

    n_t: int
    delta_i: int
    delta_j: int
    g: int
    support_indices: tuple[int, ...]
    support: np.ndarray
    prob: float


def apn_law(delta_i: int, delta_j: int, n_t: int) -> ApnLaw:
    """Distribution of the eavesdropper's per-symbol phase error.

    Under a uniform random shift on an n_t x n_t array, the compensated
    symbol at grid offset (delta_i, delta_j) from the receiver acquires
    phase (2 pi / n_t) * ((m*delta_j + n*delta_i) mod n_t). gcd(0, 0) is
    taken as 0, giving a point mass at 0 for the receiver direction itself.
    """
    g = math.gcd(delta_i, delta_j)
    gp = math.gcd(n_t, g)  # n_t for g == 0: single atom at 0
    indices = tuple(range(0, n_t, gp))
    support = 2 * np.pi * np.array(indices) / n_t
    return ApnLaw(
        n_t=n_t,
        delta_i=delta_i,
        delta_j=delta_j,
        g=g,
        support_indices=indices,
        support=support,
        prob=gp / n_t,
    )


@dataclass(frozen=True)
class PartitionReport:
    """How the phase-noise support partitions an M-PSK constellation.

    Symbols in the same class are mapped onto each other by some support
    atom and are therefore indistinguishable to the eavesdropper; within a
    class, indices differ by multiples of num_classes.
    """

    m_order: int
    class_size: int
    num_classes: int
    classes: tuple[tuple[int, ...], ...]


def partition_report(m_order: int, g: int, n_t: int) -> PartitionReport:
    """Partition of M-PSK under the phase-noise law with gcd value g.

    The support has n_t / gcd(n_t, g) atoms; the class size is the gcd of
    that count with M, and the eavesdropper can distinguish only
    M / class_size effective symbols.

    Raises:
        ValueError: if m_order is not a power of two >= 2, or g < 0.
    """
    if m_order < 2 or m_order & (m_order - 1):
        raise ValueError(f"m_order must be a power of two >= 2, got {m_order}")
    if g < 0:
        raise ValueError(f"g must be nonnegative, got {g}")
    omega = n_t // math.gcd(n_t, g)
    class_size = math.gcd(omega, m_order)
    num_classes = m_order // class_size
    classes = tuple(
        tuple(c + t * num_classes for t in range(class_size)) for c in range(num_classes)
    )
    return PartitionReport(m_order, class_size, num_classes, classes)


def psk_symbols(m_order: int) -> np.ndarray:
    """The unit-energy M-PSK constellation exp(j 2 pi k / M), k = 0..M-1.

    Raises:
        ValueError: if m_order < 2.
    """
    if m_order < 2:
        raise ValueError(f"m_order must be >= 2, got {m_order}")
    return np.exp(2j * np.pi * np.arange(m_order) / m_order)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    mx = a.max(axis=axis, keepdims=True)
    return np.squeeze(mx, axis=axis) + np.log(np.sum(np.exp(a - mx), axis=axis))


MI_TOL = 1e-3  # accuracy target of psk_mutual_information, in bits
MI_NODES = 256  # most quadrature nodes per axis psk_mutual_information uses
MI_BLOCK = 256  # samples per exponent block of mixture_mi
MI_CHUNK = 4096  # samples per summation slice of mixture_mi


def psk_mutual_information(rho: float, m_order: int) -> float:
    """Mutual information of equiprobable M-PSK over a complex AWGN channel.

    Computed by 2D Gauss-Hermite quadrature over the noise, doubling the
    per-axis node count from 16 until the estimate moves by less than
    MI_TOL/10 bits (capped at 256 nodes). Monotone nondecreasing in rho and
    bounded by log2 M; rho = 0 or M = 1 give exactly 0.

    Args:
        rho: SNR (linear), >= 0; the signal is sqrt(rho) x with unit noise.
        m_order: constellation order M >= 1.

    Returns:
        Mutual information in bits per symbol.
    """
    if rho < 0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    if m_order < 1:
        raise ValueError(f"m_order must be >= 1, got {m_order}")
    if m_order == 1:
        return 0.0
    syms = psk_symbols(m_order)
    d = math.sqrt(rho) * (syms[0] - syms)  # PSK symmetry: condition on x_0
    prev = None
    nodes = 16
    while True:
        t, w = np.polynomial.hermite.hermgauss(nodes)
        # noise = t_p + j t_q with weight w_p w_q / pi matches CN(0, 1)
        ex = (
            -np.abs(d)[:, None, None] ** 2
            - 2 * (d.real[:, None, None] * t[None, :, None] + d.imag[:, None, None] * t[None, None, :])
        )
        inner = _logsumexp(ex, axis=0) / math.log(2)
        val = math.log2(m_order) - float(w @ inner @ w) / math.pi
        if prev is not None and abs(val - prev) < MI_TOL / 10:
            return val
        if nodes >= MI_NODES:
            return val
        prev = val
        nodes *= 2


def smi_theory(rx_i: int, n_t: int, m_order: int, rx_snr_db: float) -> dict[str, np.ndarray]:
    """Partition-law secrecy floor at every on-grid eavesdropper direction.

    On an n_t-element linear array with the receiver at grid index rx_i, the
    eavesdropper at index i has offset g = |rx_i - i| and can resolve at most
    eve_bits_max = log2 of partition_report's class count; smi_floor is
    max(I_rx - eve_bits_max, 0), the secrecy MI with the eavesdropper's SNR
    taken to infinity, I_rx the PSK MI at rx_snr_db.

    Returns:
        The columns of smi_theory.csv by name, ascending in angle:
        eve_grid_i (signed grid index), eve_theta_deg, g, eve_bits_max,
        smi_floor.
    """
    i_rx = psk_mutual_information(10 ** (rx_snr_db / 10), m_order)
    signed_i = np.arange(1 - n_t // 2, n_t // 2 + 1)
    g = np.abs(rx_i - signed_i % n_t)
    eve_bits = np.log2([partition_report(m_order, int(x), n_t).num_classes for x in g])
    return {
        "eve_grid_i": signed_i,
        "eve_theta_deg": np.degrees([grid_angle(int(i), n_t) for i in signed_i]),
        "g": g,
        "eve_bits_max": eve_bits,
        "smi_floor": np.maximum(i_rx - eve_bits, 0.0),
    }


def _mi_terms(
    atoms: np.ndarray,
    rho: float,
    m_order: int,
    rng: np.random.Generator,
    num_samples: int,
) -> np.ndarray:
    """Per-sample terms log p(y | x) - log p(y), in nats, of mixture_mi's
    estimate; their mean is the estimate and std / sqrt(num_samples) its
    standard error."""
    if rho < 0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    if m_order == 1:
        return np.zeros(num_samples)
    atoms = np.sqrt(rho) * np.asarray(atoms, dtype=complex).ravel()
    syms = psk_symbols(m_order)
    idx = rng.integers(m_order, size=num_samples)
    draw = rng.integers(atoms.size, size=num_samples)
    noise = (rng.standard_normal(num_samples) + 1j * rng.standard_normal(num_samples)) * math.sqrt(0.5)
    y = atoms[draw] * syms[idx] + noise
    # log p(y | x_m) up to terms common to every (m, k): with c = a_k x_m,
    # -|y - c|^2 = 2 Re(y conj(c)) - |c|^2 - |y|^2, and |y|^2 cancels in the
    # MI, so the exponents are one real product of [Re y, Im y] with 2 [Re c; Im c]
    c = (syms[:, None] * atoms[None, :]).ravel()
    c_ri = 2 * np.stack([c.real, c.imag])
    c2 = c.real**2 + c.imag**2
    y_ri = np.column_stack([y.real, y.imag])
    terms = np.empty(num_samples)
    block = np.empty((min(MI_BLOCK, num_samples), c.size))  # reused by every block
    log_m = math.log(m_order)
    for lo in range(0, num_samples, MI_BLOCK):
        hi = min(lo + MI_BLOCK, num_samples)
        e = np.matmul(y_ri[lo:hi], c_ri, out=block[:hi - lo])
        e -= c2
        # the log-sum-exp over the atoms, on the block itself
        e = e.reshape(hi - lo, m_order, atoms.size)
        mx = e.max(axis=2, keepdims=True)
        e -= mx
        np.exp(e, out=e)
        ll = np.log(e.sum(axis=2)) + mx[..., 0]  # (rows, M)
        lpy = _logsumexp(ll, axis=1) - log_m
        terms[lo:hi] = ll[np.arange(hi - lo), idx[lo:hi]] - lpy
    return terms


def mixture_mi(
    atoms: np.ndarray,
    rho: float,
    m_order: int,
    rng: np.random.Generator,
    num_samples: int = 20000,
) -> float:
    """Monte-Carlo mutual information of PSK through a finite channel mixture.

    Channel: y = sqrt(rho) * a * x + n with a drawn uniformly from `atoms`
    each symbol, n ~ CN(0, 1), and a receiver that knows the atom set and
    rho but not the draw. Densities are exact finite mixtures, so the
    estimator is unbiased; the returned value carries O(1/sqrt(num_samples))
    MC noise. Deterministic for a given rng state.

    The exponents of MI_BLOCK samples at a time form one (MI_BLOCK, M * K)
    block, K = len(atoms), small enough to stay in cache, and the
    log-sum-exp over the atoms runs in place on it. Each sample's term
    log p(y | x) - log p(y) goes into one (num_samples,) array (_mi_terms),
    which is summed one MI_CHUNK slice at a time.

    Args:
        atoms: complex relative-channel atoms (the defense's randomization).
        rho: SNR scale applied to the atoms (linear), >= 0.
        m_order: PSK order M >= 1.
        rng: seeded generator.
        num_samples: Monte-Carlo sample count, >= 1.

    Returns:
        Mutual information estimate in bits per symbol.

    Raises:
        ValueError: if rho < 0 or num_samples < 1.
    """
    terms = _mi_terms(atoms, rho, m_order, rng, num_samples)
    total = 0.0
    for lo in range(0, num_samples, MI_CHUNK):
        total += float(np.sum(terms[lo:lo + MI_CHUNK]))
    return total / num_samples / math.log(2)
