"""Circulant-shift beamforming defense and its exact phase-noise law.

Circularly shifting a beamformer by (m, n) rotates the gain seen at any
on-grid direction (i, j) by exactly exp(-j 2 pi (m j / rows + n i / cols)),
for every beamformer matrix. The transmitter compensates that rotation for
the intended receiver's grid point; every other grid direction is left with
a shift-dependent artificial phase-noise (APN) term whose exact distribution
under uniform random shifts is derived here, together with the resulting
constellation-partition law and secrecy mutual information for PSK inputs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np


class ShiftPair(NamedTuple):
    """Row shift m (elevation axis) and column shift n (azimuth axis)."""

    m: int
    n: int


def circulant_shift(f: np.ndarray, s) -> np.ndarray:
    """2D circulant shift: output[k, l] = input[(k - m) mod rows, (l - n) mod cols]."""
    m, n = s
    return np.roll(f, (m, n), axis=(0, 1))


def shift_phase_fraction(s, g, n_t: int, n_rows: int | None = None) -> Fraction:
    """Exact phase of the gain rotation a shift induces at a grid direction.

    Returns the fraction p such that the rotation factor is exp(-j 2 pi p),
    reduced to [0, 1). Kept rational so tests and the phase-noise law can do
    exact integer arithmetic.
    """
    rows = n_t if n_rows is None else n_rows
    m, n = s
    i, j = g
    frac = Fraction(m * j, rows) + Fraction(n * i, n_t)
    return frac % 1


def shift_phase_factor(s, g, n_t: int, n_rows: int | None = None) -> complex:
    """Unit complex factor relating shifted and unshifted gain at grid g.

    For every beamformer F and on-grid response V at grid g:
    <V, circulant_shift(F, s)> = <V, F> * shift_phase_factor(s, g, ...).
    """
    frac = shift_phase_fraction(s, g, n_t, n_rows)
    return cmath.exp(-2j * math.pi * float(frac))


def shift_gains(v: np.ndarray, f: np.ndarray, rx_grid) -> np.ndarray:
    """Compensated gain of every circulant shift s = (m, n), flat at k = m * cols + n.

    Entry k is <V, circulant_shift(F, s)> * conj(shift_phase_factor(s, rx_grid)).
    The gains over all shifts are one circular cross-correlation,
    ifft2(fft2(V) * conj(fft2(F))); the compensation phase uses the exact
    integer numerators of shift_phase_fraction. v may be a stack of
    responses (..., rows, cols); the result is then (..., rows * cols).
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


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    mx = a.max(axis=axis, keepdims=True)
    out = mx[..., 0] if axis == -1 else np.squeeze(mx, axis=axis)
    return out + np.log(np.sum(np.exp(a - mx), axis=axis))


@lru_cache(maxsize=None)
def _hermgauss(n: int):
    t, w = np.polynomial.hermite.hermgauss(n)
    return t, w


def psk_mutual_information(rho: float, m_order: int, tol: float = 1e-3) -> float:
    """Mutual information of equiprobable M-PSK over a complex AWGN channel.

    Computed by 2D Gauss-Hermite quadrature over the noise, doubling the
    per-axis node count from 16 until the estimate moves by less than
    tol/10 bits (capped at 256 nodes). Monotone nondecreasing in rho and
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
    syms = np.exp(2j * np.pi * np.arange(m_order) / m_order)
    d = math.sqrt(rho) * (syms[0] - syms)  # PSK symmetry: condition on x_0
    prev = None
    nodes = 16
    while True:
        t, w = _hermgauss(nodes)
        # noise = t_p + j t_q with weight w_p w_q / pi matches CN(0, 1)
        ex = (
            -np.abs(d)[:, None, None] ** 2
            - 2 * (d.real[:, None, None] * t[None, :, None] + d.imag[:, None, None] * t[None, None, :])
        )
        inner = _logsumexp(ex, axis=0) / math.log(2)
        val = math.log2(m_order) - float(w @ inner @ w) / math.pi
        if prev is not None and abs(val - prev) < tol / 10:
            return val
        if nodes >= 256:
            return val
        prev = val
        nodes *= 2


def smi(rx_snr_term: float, eve_snr_term: float, m_order: int, g: int, n_t: int) -> float:
    """Secrecy mutual information with the shift defense active.

    The eavesdropper's effective constellation shrinks to the
    distinguishable-class count from partition_report; the result is the
    clamped difference max(I_rx - I_eve, 0).

    Args:
        rx_snr_term: receiver post-beamforming SNR (linear).
        eve_snr_term: eavesdropper post-beamforming SNR (linear).
        m_order: PSK order at the transmitter.
        g: gcd of the grid offsets between receiver and eavesdropper.
        n_t: per-axis element count.
    """
    if rx_snr_term < 0 or eve_snr_term < 0:
        raise ValueError("SNR terms must be nonnegative")
    report = partition_report(m_order, g, n_t)
    i_rx = psk_mutual_information(rx_snr_term, m_order)
    i_eve = psk_mutual_information(eve_snr_term, report.num_classes)
    return max(i_rx - i_eve, 0.0)


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

    Args:
        atoms: complex relative-channel atoms (the defense's randomization).
        rho: SNR scale applied to the atoms (linear), >= 0.
        m_order: PSK order M >= 1.
        rng: seeded generator.
        num_samples: Monte-Carlo sample count.

    Returns:
        Mutual information estimate in bits per symbol.
    """
    if m_order == 1:
        return 0.0
    atoms = np.sqrt(rho) * np.asarray(atoms, dtype=complex).ravel()
    syms = np.exp(2j * np.pi * np.arange(m_order) / m_order)
    idx = rng.integers(m_order, size=num_samples)
    draw = rng.integers(atoms.size, size=num_samples)
    noise = (rng.standard_normal(num_samples) + 1j * rng.standard_normal(num_samples)) * math.sqrt(0.5)
    y = atoms[draw] * syms[idx] + noise
    total = 0.0
    chunk = 4096
    log_m = math.log(m_order)
    for lo in range(0, num_samples, chunk):
        hi = min(lo + chunk, num_samples)
        # log p(y | x_m) up to the common 1/(pi K) constant
        d2 = np.abs(y[lo:hi, None, None] - atoms[None, None, :] * syms[None, :, None]) ** 2
        ll = _logsumexp(-d2, axis=2)  # (chunk, M)
        lpy = _logsumexp(ll, axis=1) - log_m
        lpyx = ll[np.arange(hi - lo), idx[lo:hi]]
        total += float(np.sum(lpyx - lpy))
    return total / num_samples / math.log(2)
