"""Reference implementations that the vectorised library paths are tested against.

Scalar forms of the steering vector, the far-field response and the gain
of a beamformer (against array.responses, array.gains and
channel_sim.defense_gains), of the circulant shift and its exact gain
rotation (against csb_defense.shift_gains and channel_sim.defense_gains), of a beam-grid
index's angles, of the hover-plane map (against the planner's cell geometry
in airspy._Tables), of the per-step secrecy rate (against a trajectory's
secrecy_rate column), and of the subset sampler. The mixture MI estimate
over a single atom set (mixture_mi, the one-row view of
csb_defense.mixture_mis). Direct forms of the direction-gain kernel (against
array.gains, which shares each distinct angle's factor) and of the mixture
MI estimator (against mixture_mi, whose exponents come from one real
product); the kernel's previous gathered form, which must match within 8
eps times each beam's sum of |F| entries, and the estimator's previous
blocked form, which must match within a tolerance that grows with rho
times the largest atom power; and a quadrature of the mixture MI that its
standard error is checked against.
The single Monte-Carlo symbol run (simulate_symbols, written from the
link model with its own nearest-symbol decision), which ser_sweep's rows
and constellation are checked against and the link tests drive directly,
and the exact SER of M-PSK at any order through a finite mixture of gains
(exact_ser), which ser_sweep's none and csb rows, and its asm rows over
the subsets actually drawn, are checked against. The CSV writer's
previous row-by-row form (row_csv), whose bytes cli._write_csv must equal.
The planner's previous move-by-move backward induction (offset_values),
whose values airspy.value_iteration must equal bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from csbsim.airspy import NEG_INF, AttackConstraints, Scenario, _Tables
from csbsim.array import GridIndex, gains, grid_angle, nearest_grid_index
from csbsim.channel_sim import defense_gains, path_power
from csbsim.csb_defense import _logsumexp, mixture_mis, psk_symbols
from csbsim.geometry import RectPoint, UavPlaneSpec, rect_to_msph


def steering_vector(theta: float, n: int) -> np.ndarray:
    """Vandermonde steering vector: entry k is exp(-j pi k sin(theta))."""
    k = np.arange(n)
    return np.exp(-1j * np.pi * math.sin(theta) * k)


def array_response(theta: float, phi: float, n_t: int, n_rows: int | None = None) -> np.ndarray:
    """Far-field response matrix V(theta, phi) = a(phi) a(theta)^T.

    Entry (k, l) equals exp(-j pi (k sin(phi) + l sin(theta))).

    Args:
        theta: azimuth, radians.
        phi: elevation, radians.
        n_t: columns (azimuth elements).
        n_rows: rows (elevation elements); defaults to n_t.

    Returns:
        (n_rows, n_t) complex matrix with unit-modulus entries.
    """
    rows = n_t if n_rows is None else n_rows
    return np.outer(steering_vector(phi, rows), steering_vector(theta, n_t))


def beam_gain(v: np.ndarray, f: np.ndarray) -> complex:
    """Inner product <V, F> = sum V * conj(F); the received-signal gain."""
    v = np.asarray(v)
    f = np.asarray(f)
    if v.shape != f.shape:
        raise ValueError(f"shape mismatch: response {v.shape} vs beamformer {f.shape}")
    return complex(np.vdot(f, v))


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


def direct_gains(f: np.ndarray, thetas, phis) -> np.ndarray:
    """Gains <V(theta, phi), F> of a (rows, cols) beamformer, one per direction
    pair (thetas[d], phis[d]) in radians, each direction's factors built for it."""
    rows, cols = f.shape
    a_el = np.exp(-1j * np.pi * np.sin(np.asarray(phis, dtype=float))[:, None] * np.arange(rows))
    a_az = np.exp(-1j * np.pi * np.sin(np.asarray(thetas, dtype=float))[:, None] * np.arange(cols))
    return np.sum((a_el @ np.conj(f)) * a_az, axis=1)


def gathered_gains(f: np.ndarray, thetas, phis) -> np.ndarray:
    """array.gains as it was before it took one matrix product per elevation:
    per beam, each direction's elevation products and azimuth factor
    gathered into two fresh (D, cols) arrays, then multiplied and summed."""
    def steering(angles, n):
        return np.exp(-1j * np.pi * np.sin(angles)[:, None] * np.arange(n))

    f = np.asarray(f)
    rows, cols = f.shape[-2:]
    u_phi, ip = np.unique(np.asarray(phis, dtype=float), return_inverse=True)
    u_theta, it = np.unique(np.asarray(thetas, dtype=float), return_inverse=True)
    a_el = steering(u_phi, rows)
    a_az = steering(u_theta, cols)[it]
    stack = f.reshape(-1, rows, cols)
    out = np.empty((len(stack), len(ip)), dtype=complex)
    for b, f_b in enumerate(stack):
        t = (a_el @ np.conj(f_b))[ip]
        t *= a_az
        out[b] = np.sum(t, axis=1)
    return out.reshape(f.shape[:-2] + (len(ip),))


def mixture_mi(atoms, rho: float, m_order: int, rng: np.random.Generator, num_samples: int = 20000) -> float:
    """Monte-Carlo mutual information of PSK through one finite channel
    mixture: the one-row view of csb_defense.mixture_mis, with atoms of any
    shape taken as one atom set of K = atoms.size atoms and rho its SNR
    scale. Raises as mixture_mis does."""
    return float(mixture_mis(np.reshape(atoms, (1, -1)), [rho], m_order, rng, num_samples)[0])


def direct_mixture_mi(atoms, rho: float, m_order: int, rng: np.random.Generator, num_samples: int) -> float:
    """mixture_mi with each log-likelihood exponent taken as the
    squared distance -|y - a_k x_m|^2 itself; it reads rng the same way."""
    if m_order == 1:
        return 0.0
    atoms = np.sqrt(rho) * np.asarray(atoms, dtype=complex).ravel()
    syms = psk_symbols(m_order)
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


def blocked_mixture_mi(atoms, rho: float, m_order: int, rng: np.random.Generator, num_samples: int) -> float:
    """mixture_mi as it was before its exponent blocks ran in
    place: 4096-sample blocks of 2 Re(y conj(c)) - |c|^2, each log-sum-exp
    shifted by its row max on fresh arrays. The same draws, terms and
    summation slices as the library; its exponents round differently."""
    if m_order == 1:
        return 0.0
    atoms = np.sqrt(rho) * np.asarray(atoms, dtype=complex).ravel()
    syms = psk_symbols(m_order)
    idx = rng.integers(m_order, size=num_samples)
    draw = rng.integers(atoms.size, size=num_samples)
    noise = (rng.standard_normal(num_samples) + 1j * rng.standard_normal(num_samples)) * math.sqrt(0.5)
    y = atoms[draw] * syms[idx] + noise
    c = (syms[:, None] * atoms[None, :]).ravel()
    c_ri = 2 * np.stack([c.real, c.imag])
    c2 = c.real**2 + c.imag**2
    y_ri = np.column_stack([y.real, y.imag])
    total = 0.0
    chunk = 4096
    log_m = math.log(m_order)
    for lo in range(0, num_samples, chunk):
        hi = min(lo + chunk, num_samples)
        e = y_ri[lo:hi] @ c_ri
        e -= c2
        ll = _logsumexp(e.reshape(hi - lo, m_order, atoms.size), axis=2)  # (chunk, M)
        lpy = _logsumexp(ll, axis=1) - log_m
        lpyx = ll[np.arange(hi - lo), idx[lo:hi]]
        total += float(np.sum(lpyx - lpy))
    return total / num_samples / math.log(2)


def quadrature_mixture_mi(atoms, rho: float, m_order: int, nodes: int) -> float:
    """The mutual information mixture_mi estimates, by 2D
    Gauss-Hermite quadrature over the noise with `nodes` nodes per axis.

    As in csb_defense.psk_mutual_information, PSK symmetry lets the sent
    symbol be x_0 = 1; the quadrature is then averaged over the atom a_j
    that was drawn. With y = s a_j + n, s = sqrt(rho), and d = s (a_j - a_k x_m),
    -|y - s a_k x_m|^2 = -|d|^2 - 2 Re(d conj(n)) - |n|^2, and |n|^2 cancels
    between log p(y | x_0) and log p(y).
    """
    atoms = math.sqrt(rho) * np.asarray(atoms, dtype=complex).ravel()
    syms = psk_symbols(m_order)
    t, w = np.polynomial.hermite.hermgauss(nodes)
    c = (syms[:, None] * atoms[None, :]).ravel()  # row m = 0 holds x_0 = 1
    total = 0.0
    for a in atoms:
        d = (a - c)[:, None, None]
        # noise t_p + j t_q with weight w_p w_q / pi is CN(0, 1)
        ex = -np.abs(d) ** 2 - 2 * (d.real * t[None, :, None] + d.imag * t[None, None, :])
        inner = _logsumexp(ex[:atoms.size], axis=0) - _logsumexp(ex, axis=0) + math.log(m_order)
        total += float(w @ inner @ w) / math.pi
    return total / atoms.size / math.log(2)


@dataclass(frozen=True)
class LinkState:
    """A receiver's received reference power (linear) and noise power."""

    p_r: float
    sigma2: float

    def __post_init__(self):
        if self.p_r < 0:
            raise ValueError(f"p_r must be nonnegative, got {self.p_r}")
        if self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")


class SymbolRun(NamedTuple):
    """Raw per-symbol record of a Monte-Carlo run."""

    true_idx: np.ndarray
    rx_idx: np.ndarray
    eve_idx: np.ndarray
    eve_equalized: np.ndarray


def simulate_symbols(
    f: np.ndarray,
    rx_link: LinkState,
    rx_direction,
    eve_link: LinkState,
    eve_direction,
    defense: str,
    m_order: int,
    num_symbols: int,
    rng: np.random.Generator,
    asm_c: float | None = None,
) -> SymbolRun:
    """One Monte-Carlo run of num_symbols transmissions, detected at the RX
    and the eavesdropper, as ser_sweep takes them for one defense at one SNR
    point.

    f is the fixed beamformer steered at the RX's nearest grid point; both
    receivers equalize on its unshifted gain (perfect training). Each symbol
    goes out on its own draw of the defense (defense_gains). The draw order
    from rng is fixed (symbol indices, RX noise, eavesdropper noise, defense
    randomness), so runs differing only in the defense are exactly paired.
    Each receiver decides the symbol x_m with the largest Re(z conj(x_m)),
    the nearest one to its equalized sample z, and erases (index -1) when
    its trained gain is 0.
    """
    if num_symbols < 1:
        raise ValueError(f"num_symbols must be >= 1, got {num_symbols}")
    rows, cols = f.shape
    directions = np.array([rx_direction, eve_direction], dtype=float)
    symbols = psk_symbols(m_order)
    true_idx = rng.integers(m_order, size=num_symbols)
    noise = [rng.standard_normal(num_symbols) + 1j * rng.standard_normal(num_symbols) for _ in range(2)]
    g = defense_gains(defense, f, directions, nearest_grid_index(*directions[0], cols, rows), rng, num_symbols, asm_c)
    x = symbols[true_idx]
    decided = []
    for link, g_r, h, n in zip((rx_link, eve_link), g, gains(f, *directions.T), noise):
        y = math.sqrt(link.p_r) * g_r * x + n * math.sqrt(link.sigma2 / 2)
        h_hat = math.sqrt(link.p_r) * h
        if h_hat == 0:
            decided.append((np.zeros(num_symbols, dtype=complex), np.full(num_symbols, -1)))
        else:
            z = y / h_hat
            decided.append((z, np.argmax((z[:, None] * np.conj(symbols)).real, axis=1)))
    (_, rx_idx), (eve_equalized, eve_idx) = decided
    return SymbolRun(true_idx, rx_idx, eve_idx, eve_equalized)


_erfc = np.frompyfunc(math.erfc, 1, 1)
# Gauss-Legendre nodes and weights on [-1, 1] for exact_ser's sector integral
_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)


def _phi(x) -> np.ndarray:
    """The standard normal CDF, elementwise, from math.erfc."""
    return 0.5 * _erfc(-np.asarray(x, dtype=float) / math.sqrt(2)).astype(float)


def exact_ser(g, h: complex, p_r: float, sigma2: float, m_order: int) -> float:
    """Exact M-PSK SER (any m_order >= 2) at a receiver of received reference
    power p_r and noise power sigma2 that equalizes on sqrt(p_r) h and
    decides the nearest symbol, when each symbol goes out on a gain drawn
    uniformly from g (the fixed beam's, every shift's, or the drawn subsets').

    Given the gain g_k, the equalized sample times conj(x), over
    s = sqrt(sigma2 / (2 p_r |h|^2)), is a unit-variance Gaussian per axis,
    w, with mean mu = g_k / (h s). BPSK is right with probability Phi(Re mu).
    For M >= 3 the correct wedge |arg w| < pi/M is where Im(w e^{j pi/M})
    and -Im(w e^{-j pi/M}) are both positive: unit normals with means
    a = Im(mu e^{j pi/M}) and b = -Im(mu e^{-j pi/M}) and correlation
    rho = -cos(2 pi / M). So P(correct | g_k) =
    Phi2(a, b; rho) = Phi(a) Phi(b) + (1 / 2 pi) * integral from 0 to
    asin(rho) of exp(-(a^2 - 2 a b sin t + b^2) / (2 cos^2 t)) dt, taken
    with 48 Gauss-Legendre nodes (it vanishes for QPSK, where rho = 0).
    h = 0 (or p_r = 0) is an erasure, SER 1.
    """
    if m_order < 2:
        raise ValueError(f"m_order must be >= 2, got {m_order}")
    if p_r * abs(h) ** 2 == 0:
        return 1.0
    s = math.sqrt(sigma2 / (2 * p_r * abs(h) ** 2))
    mu = np.ravel(g) / (h * s)
    if m_order == 2:
        return 1.0 - float(np.mean(_phi(mu.real)))
    a = (mu * cmath.exp(1j * math.pi / m_order)).imag
    b = -(mu * cmath.exp(-1j * math.pi / m_order)).imag
    p_correct = _phi(a) * _phi(b)
    top = math.asin(-math.cos(2 * math.pi / m_order))
    t = top / 2 * (_GL_X + 1)
    ex = -(a[:, None] ** 2 - 2 * (a * b)[:, None] * np.sin(t) + b[:, None] ** 2) / (2 * np.cos(t) ** 2)
    p_correct += top / 2 * (np.exp(ex) @ _GL_W) / (2 * math.pi)
    return 1.0 - float(np.mean(p_correct))


def grid_angles(g: GridIndex, n_t: int, n_rows: int | None = None) -> tuple[float, float]:
    """(theta, phi) of a beam-grid index."""
    rows = n_t if n_rows is None else n_rows
    return grid_angle(g.i, n_t), grid_angle(g.j, rows)


def _check_plane_spec(spec: UavPlaneSpec) -> None:
    if not spec.d > 0:
        raise ValueError(f"plane distance must be positive, got d={spec.d}")
    if not 0 < spec.beta < math.pi:
        raise ValueError(f"plane aperture must lie in (0, pi), got beta={spec.beta}")


def uav_plane_to_rect(c, spec: UavPlaneSpec, theta_tilt: float = 0.0) -> RectPoint:
    """Map normalized plane coordinates to rectangular space.

    The plane is perpendicular to the tilted boresight, at distance d:
    every output satisfies x*cos(tilt) - z*sin(tilt) = d exactly.

    Args:
        c: (u, v) pair, each component in [-1, 1].
        spec: plane geometry.
        theta_tilt: the array's elevation reference tilt in radians.

    Returns:
        RectPoint on the plane. u moves the point in elevation, v in azimuth.

    Raises:
        ValueError: if |u| > 1 or |v| > 1, or the spec is invalid.
    """
    _check_plane_spec(spec)
    u, v = c
    if abs(u) > 1 or abs(v) > 1:
        raise ValueError(f"plane coordinates must lie in [-1,1]^2, got ({u}, {v})")
    half = spec.d * math.tan(spec.beta / 2)
    sin_t = math.sin(theta_tilt)
    cos_t = math.cos(theta_tilt)
    x = u * half * sin_t + spec.d * cos_t
    y = v * half
    z = u * half * cos_t - spec.d * sin_t
    return RectPoint(x, y, z)


def msph_angles_of_plane_coord(c, spec: UavPlaneSpec, theta_tilt: float = 0.0) -> tuple[float, float]:
    """Angles (theta, phi) of a hover-plane point under the tilt theta_tilt,
    composing the two maps above.

    Raises:
        ValueError: if the plane point falls on or behind the array plane
            (possible for tilted arrays at extreme u).
    """
    p = uav_plane_to_rect(c, spec, theta_tilt)
    s = rect_to_msph(p, theta_tilt)
    return s.theta, s.phi


def secrecy_rate(f, rx_angles, rx_range, eve_angles, eve_range, scenario: Scenario) -> float:
    """Unclamped log2(1 + snr_rx*|g_rx|^2) - log2(1 + snr_eve*|g_eve|^2)."""
    g_rx, g_eve = np.abs(direct_gains(f, (rx_angles[0], eve_angles[0]), (rx_angles[1], eve_angles[1])))
    snr_rx = path_power(rx_range, scenario.p0, scenario.r0) / scenario.sigma2
    snr_eve = path_power(eve_range, scenario.p0, scenario.r0) / scenario.sigma2
    return math.log2(1 + snr_rx * g_rx * g_rx) - math.log2(1 + snr_eve * g_eve * g_eve)


def argpartition_subset_masks(size: int, active: int, num: int, rng: np.random.Generator) -> np.ndarray:
    """Subset masks by index selection: each row sets True at the indices of
    its `active` smallest of size uniform scores (argpartition, then
    put_along_axis). It reads rng exactly as asm_baseline.random_subset_masks
    does and always keeps exactly `active` entries per row, where the
    threshold sampler would keep one more on a tie at the threshold."""
    scores = rng.random((num, size))
    keep = np.argpartition(scores, active - 1, axis=1)[:, :active]
    masks = np.zeros((num, size), dtype=bool)
    np.put_along_axis(masks, keep, True, axis=1)
    return masks


def row_csv(path: str, header, columns) -> None:
    """cli._write_csv as it was before it formatted each distinct float once:
    each row is one `%` call on a format built from the columns' element
    types, and a float column holding a NaN is formatted field by field."""
    arrays = []
    for column in map(np.asarray, columns):
        if column.dtype.kind == "f" and np.isnan(column).any():
            column = np.array(["" if math.isnan(x) else "%.12g" % x for x in column.tolist()])
        arrays.append(column)
    formats = {"U": "%s", "i": "%d", "u": "%d", "f": "%.12g"}
    line = ",".join(formats[a.dtype.kind] for a in arrays) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in zip(*arrays, strict=True))


def offset_values(scenario: Scenario, constraints: AttackConstraints) -> np.ndarray:
    """airspy.value_iteration's values as they were taken before its row
    maxima: each step's maximum of R + H taken one move at a time, over
    every offset within the index radius that can land on the grid."""
    tab = _Tables(scenario, constraints)
    g, n = tab.g, scenario.num_steps
    rad = constraints.step_radius * scenario.t_s * g / 2.0
    offsets = [(di, dj) for di in range(1 - g, g) for dj in range(1 - g, g) if di * di + dj * dj <= rad * rad]
    h = np.zeros((g, g, n))
    for t in range(n - 2, -1, -1):
        cand = tab.reward[:, :, t + 1] + h[:, :, t + 1]
        cand[~tab.feasible[:, :, t + 1]] = NEG_INF
        best = np.full((g, g), NEG_INF)
        for di, dj in offsets:
            src_a = slice(max(0, -di), g - max(0, di))
            src_b = slice(max(0, -dj), g - max(0, dj))
            dst_a = slice(max(0, di), g + min(0, di))
            dst_b = slice(max(0, dj), g + min(0, dj))
            np.maximum(best[src_a, src_b], cand[dst_a, dst_b], out=best[src_a, src_b])
        h[:, :, t] = best
    return h
