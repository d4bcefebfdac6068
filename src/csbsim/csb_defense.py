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
import threading
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
    """log(sum(exp(a))) along axis, in float64 whatever a's float dtype."""
    mx = a.max(axis=axis, keepdims=True)
    return np.squeeze(mx, axis=axis) + np.log(np.sum(np.exp(a - mx), axis=axis, dtype=float))


MI_TOL = 1e-3  # accuracy target of psk_mutual_information, in bits
MI_NODES = 256  # most quadrature nodes per axis psk_mutual_information uses
# exponents per block of mixture_mis in either dtype (512 kB of float64 or
# 256 kB of float32; 768 or 384 kB with a group), one block per worker: each
# fits a core's cache, and its product (4 * MI_BLOCK multiply-adds) stays at
# OpenBLAS's one-thread threshold. The atom sum's matrix-vector product is
# past OpenBLAS's own threshold, so with its default threads a second thread
# would spin beside every worker; cli.main holds OpenBLAS to one thread and
# leaves the cores to the workers
MI_BLOCK = 2**16
# bytes of a row group's y4, c4 and sums buffers in mixture_mis in float64:
# a float32 group has as many rows, in half the bytes
MI_GROUP = 2**18
MI_CHUNK = 4096  # samples per summation slice of mixture_mis
# workers of a mixture_mis call on every host (one per row when fewer), as
# its size estimate (mixture_mi_bytes) counts them: the gain of a second was
# measured on 2 vCPUs, and what more workers gain or cost is unmeasured
MI_WORKERS = 2
# largest rho * max|atom|^2 mixture_mis accepts (about 120 dB): the rounding
# of its exponents grows with this product (see mixture_mis)
MI_RHO_MAX = 2.0**40
# largest rho * max|atom|^2 at which a mixture_mis row runs in float32 (about
# 36 dB): the largest power of two at which float32 estimates stayed within
# 1e-5 bits of float64 ones, measured (see mixture_mis)
MI_F32_MAX = 2.0**12
# a float32 row whose exponents can fall below this raises them to it before
# exp: exp(-87) = 1.6e-38 is just above float32's smallest normal, and a
# subnormal result costs about 7 ns against 0.6 ns. What it adds to a sum is
# far below float32 rounding of the sent symbol's own sum, about
# exp(-|noise|^2). The raise itself costs 0.27 ns per exponent, so a row
# whose exponents cannot reach this skips it
MI_F32_EXP_MIN = -87.0


class SnrCeilingError(ValueError):
    """rho * max|atom|^2 is above MI_RHO_MAX, past what mixture_mis resolves."""


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


def _mi_block_rows(num_samples: int, elems: int) -> int:
    """Samples per exponent block of mixture_mis with elems = M * K exponents
    per sample: MI_BLOCK exponents, at least one sample and at most all."""
    return max(1, min(MI_BLOCK // elems, num_samples))


def _mi_group_rows(num_rows: int, chunk: int, m_order: int, num_atoms: int) -> int:
    """Directions per group of mixture_mis: as many as fit their y4 (chunk, 4),
    sums (chunk, M) and c4 (4, M * K) buffers in MI_GROUP bytes of float64,
    at least one and at most all; chunk is the samples of one MI_CHUNK slice.
    A float32 group has as many rows."""
    row_bytes = 8 * (chunk * (4 + m_order) + 4 * m_order * num_atoms)
    return max(1, min(MI_GROUP // row_bytes, num_rows))


def mixture_mi_bytes(num_samples: int, m_order: int, num_atoms: int, num_rows: int = 1) -> float:
    """Peak traced bytes of one mixture_mis call on num_rows sets of num_atoms
    atoms, measured: 48 B per sample (the shared draws, an atom index and a
    noise sample, 40 B while the noise is formed), 24 B per atom of the stack
    (its SNR check), and 8 kB; and for each of min(MI_WORKERS, num_rows)
    workers on ceil(num_rows / workers) rows, 24 B per element of a row group's y4, sums and c4 buffers (with the
    slice's y, c and term temporaries) and 8 B per exponent of its block.
    Nothing else grows with num_samples. These are the workers mixture_mis
    runs on every host. It counts every row in float64; a float32 row's
    buffers and block take half the bytes. The measured peak is 0.34 to 0.81
    of this in float64 and 0.18 to 0.81 in float32 on 20 shapes (D up to
    1000, K up to 4096, M up to 1024, up to 300000 samples); the most is on
    one row with many samples, the least at M = 1024, whose terms take no
    temporary with a symbol axis. A part that runs both dtypes holds one
    dtype's buffers at a time."""
    chunk = min(num_samples, MI_CHUNK)
    workers = min(MI_WORKERS, num_rows)
    elems = m_order * num_atoms
    group = _mi_group_rows(-(-num_rows // workers), chunk, m_order, num_atoms)
    worker = 24.0 * group * (chunk * (4 + m_order) + 4 * elems) + 8.0 * elems * _mi_block_rows(chunk, elems)
    return 8192.0 + 48.0 * num_samples + 24.0 * num_rows * num_atoms + workers * worker


def _mi_draws(rng, num_atoms, num_samples):
    """The draws every row of a mixture_mis call reads, taken from rng in
    this order: atom indices, then CN(0, 1) noise. Returns (draw, noise)."""
    draw = rng.integers(num_atoms, size=num_samples)
    noise = (rng.standard_normal(num_samples) + 1j * rng.standard_normal(num_samples)) * math.sqrt(0.5)
    return draw, noise


def _mi_term_groups(atoms, rhos, peaks, m_order, draws):
    """mixture_mis's per-sample terms log p(y | x_0) - log p(y) =
    log(M s_0 / sum_m s_m), in nats, on the _mi_draws draws, with s_m the
    sum over the atoms of exp(-|y - a_k x_m|^2): one group of rows and one
    MI_CHUNK slice of samples at a time. Yields (rows, terms) with rows an
    index array into atoms and terms a float64 array of shape (len(rows),
    slice length), the slices of a group in order. A row's terms average to
    its estimate, and their std / sqrt(num_samples) is its standard error.
    peaks holds each row's rho * max|a|^2: the rows at most MI_F32_MAX run
    first, in float32, then the others in float64; a float32 row whose
    exponents could fall below MI_F32_EXP_MIN raises them to it before exp.
    Takes validated inputs with m_order >= 2."""
    draw, noise = draws
    num_samples = len(draw)
    num_atoms = atoms.shape[1]
    elems = m_order * num_atoms
    syms = psk_symbols(m_order)
    chunk = min(num_samples, MI_CHUNK)
    height = _mi_block_rows(chunk, elems)
    low = peaks <= MI_F32_MAX
    # float32 rows whose exponents can pass MI_F32_EXP_MIN: |y - c| is at
    # most 2 sqrt(peak) + |noise|, and |noise|^2 > 12 has probability 6e-6
    clamp = low & ((2 * np.sqrt(peaks) + math.sqrt(12)) ** 2 > -MI_F32_EXP_MIN)
    for dtype, part in ((np.float32, np.flatnonzero(low)), (np.float64, np.flatnonzero(~low))):
        if not len(part):
            continue
        # log p(y | x_m) up to the common 1/(pi K): with c = a_k x_m, the
        # exponent -|y - c|^2 = 2 Re(y conj(c)) - |y|^2 - |c|^2 is one real
        # product with inner dimension 4, and at most 0 up to rounding (which
        # MI_F32_MAX and MI_RHO_MAX bound), so exp cannot overflow unshifted
        group = _mi_group_rows(len(part), chunk, m_order, num_atoms)
        y4 = np.empty((group, chunk, 4), dtype)
        y4[:, :, 3] = 1.0
        c4 = np.empty((group, 4, elems), dtype)
        c4[:, 2] = -1.0
        sums = np.empty((group, chunk, m_order), dtype)
        block = np.empty((height, elems), dtype)  # reused by every block of every row
        ones = np.ones(num_atoms, dtype)
        for d0 in range(0, len(part), group):
            rows = part[d0:d0 + group]
            g = len(rows)
            a = np.sqrt(rhos[rows, None]) * atoms[rows]
            # column block 0 is x_0 = 1, the symbol sent
            c = (syms[None, :, None] * a[:, None, :]).reshape(g, elems)
            c4[:g, 0] = 2 * c.real
            c4[:g, 1] = 2 * c.imag
            c4[:g, 3] = -(c.real**2 + c.imag**2)
            for lo in range(0, num_samples, chunk):
                n = min(chunk, num_samples - lo)
                y = a[:, draw[lo:lo + n]] + noise[lo:lo + n]
                y4[:g, :n, 0] = y.real
                y4[:g, :n, 1] = y.imag
                y4[:g, :n, 2] = y.real**2 + y.imag**2
                for r in range(g):
                    for b0 in range(0, n, height):
                        b1 = min(b0 + height, n)
                        e = np.matmul(y4[r, b0:b1], c4[r], out=block[:b1 - b0])
                        if clamp[rows[r]]:
                            np.maximum(e, MI_F32_EXP_MIN, out=e)
                        np.exp(e, out=e)
                        # the sum over the atoms as one matrix-vector product
                        np.matmul(e.reshape(-1, num_atoms), ones, out=sums[r, b0:b1].reshape(-1))
                s = sums[:g, :n]  # (g, n, M)
                yield rows, np.log(s[:, :, 0] / s.sum(axis=2, dtype=float) * m_order)
        # this dtype's buffers go before the next dtype's are taken
        del y4, c4, sums, block, ones, a, c, y, e, s


def _run_parts(fn, parts):
    """fn(*part) for every part at once: the first in the calling thread, each
    other in a thread of its own. Returns once every part has ended, then
    raises a part's exception, if any."""
    errors = []

    def run(*part):
        try:
            fn(*part)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = []
    try:
        for part in parts[1:]:
            thread = threading.Thread(target=run, args=part)
            thread.start()
            threads.append(thread)
        fn(*parts[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def mixture_mis(
    atoms: np.ndarray,
    rhos,
    m_order: int,
    rng: np.random.Generator,
    num_samples: int = 20000,
) -> np.ndarray:
    """Monte-Carlo mutual information of PSK through each of D finite channel
    mixtures, from one set of draws.

    Channel d: y = sqrt(rhos[d]) * a * x + n with a drawn uniformly from
    atoms[d] each symbol, n ~ CN(0, 1), and a receiver that knows the atom
    set and rho but not the draw. Densities are exact finite mixtures, so the
    estimator is unbiased; each value carries O(1/sqrt(num_samples)) MC noise.
    The set {x_m a_k} is closed under multiplication by a PSK symbol, so the
    mutual information is the same whichever symbol is sent: every sample
    sends x_0 = 1, and its term is log p(y | x_0) - log p(y) =
    log(M s_0 / sum_m s_m), s_m the sum over the atoms of exp(-|y - a_k x_m|^2).
    Every row reads the same draws (atom indices, then noise), taken from
    rng once in that order, and its value is the one that row gives alone.
    Deterministic for a given rng state, whatever the number of workers.

    The rows are split into min(MI_WORKERS, D) contiguous parts, one per
    worker, whatever the host's CPUs (two workers on one CPU took the time
    of one); the calling thread runs the first part and a thread each the
    others, each on its own buffers, writing its own rows' totals. numpy
    releases the interpreter lock in the products and in exp. A part's
    exception is raised here once every part has ended.

    Each exponent -|y - a_k x_m|^2 comes from one real product,
    [Re y, Im y, |y|^2, 1] @ [2 Re c; 2 Im c; -1; -|c|^2] with c = a_k x_m, and
    is at most 0, so the blocks are exponentiated unshifted, and summed over
    the atoms as one matrix-vector product with a ones vector. A block holds
    the M * K exponents of MI_BLOCK // (M * K) samples of one row, at least
    one and at most a slice, small enough to stay in a core's cache. A part's
    rows run in groups of one dtype, one MI_CHUNK slice of samples at a
    time, and a group's y4, c4 and per-symbol sums fill at most MI_GROUP
    bytes of float64 (at least one row). For each slice, a group takes the
    terms from its per-symbol sums at once, in float64, and adds the slice's
    sum to each row's total; only the draws span every sample.

    The dtype belongs to the row. A row whose rho * max|a|^2 is at most
    MI_F32_MAX runs its y4, c4, exponent block, ones vector and per-symbol
    sums in float32, with each exponent raised to MI_F32_EXP_MIN before exp;
    its terms are float64. Every other row runs in float64. A part runs its
    float32 rows first, then the others, so a group never mixes dtypes and
    each row gives the bits it gives alone. A float32 block takes half the bytes and its exp half the
    time of a float64 one.

    The exponents' rounding error grows with rho * max|a|^2. In float32 at
    MI_F32_MAX it moves the estimate by under 1e-5 bits from the float64
    one, and by 1.05e-5 at twice that (48 atom sets, K up to 256, M up to
    16, 256 to 20000 samples). In float64 at MI_RHO_MAX it moves the
    estimate by under 1e-5 bits from the direct distances (48 such atom
    sets at 2000 samples), and near 1e19 exp overflows; estimates above
    MI_RHO_MAX are refused.

    Args:
        atoms: (D, K) complex relative-channel atoms, one defense's
            randomization per row.
        rhos: (D,) SNR scales applied to each row's atoms (linear), >= 0.
        m_order: PSK order M >= 1.
        rng: seeded generator.
        num_samples: Monte-Carlo sample count, >= 1.

    Returns:
        (D,) mutual information estimates in bits per symbol.

    Raises:
        ValueError: if a rho < 0, num_samples < 1, or the shapes disagree.
        SnrCeilingError: if some rho * max|atom|^2 > MI_RHO_MAX, checked
            before the draws; the message names the largest.
    """
    atoms = np.asarray(atoms, dtype=complex)
    rhos = np.asarray(rhos, dtype=float)
    if atoms.ndim != 2 or rhos.shape != atoms.shape[:1]:
        raise ValueError(f"atoms must be (D, K) and rhos (D,), got {atoms.shape} and {rhos.shape}")
    if (rhos < 0).any():
        raise ValueError(f"rho must be nonnegative, got {rhos.min()}")
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    # what the ceiling and each row's dtype are decided from
    peaks = rhos * np.max(atoms.real**2 + atoms.imag**2, axis=1)
    if not (peaks <= MI_RHO_MAX).all():
        raise SnrCeilingError(f"rho * max|atom|^2 = {np.max(peaks):.3g} is above MI_RHO_MAX = {MI_RHO_MAX:.4g}")
    out = np.zeros(len(rhos))
    if m_order == 1:
        return out
    draws = _mi_draws(rng, atoms.shape[1], num_samples)

    def part(lo, hi):
        total = out[lo:hi]
        for rows, terms in _mi_term_groups(atoms[lo:hi], rhos[lo:hi], peaks[lo:hi], m_order, draws):
            total[rows] += terms.sum(axis=1)

    workers = max(1, min(MI_WORKERS, len(rhos)))
    bounds = [len(rhos) * w // workers for w in range(workers + 1)]
    _run_parts(part, list(zip(bounds[:-1], bounds[1:])))
    return out / num_samples / math.log(2)
