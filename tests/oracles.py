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
product); the kernel's previous gathered form, which must match bit for
bit, and the estimator's previous blocked form, which must match within a
tolerance that grows with rho times the largest atom power; and a
quadrature of the mixture MI that its standard error is checked against.
The single Monte-Carlo symbol run (simulate_symbols: channel_sim's draw
step then its detect step), which ser_sweep's rows and constellation are
checked against and the link tests drive directly.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from csbsim.airspy import Scenario
from csbsim.array import GridIndex, gains, grid_angle
from csbsim.channel_sim import LinkState, SymbolRun, _detect, _draw, path_power
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
    """array.gains as it was before it went through the directions in blocks:
    per beam, each direction's elevation products and azimuth factor
    gathered into two fresh (D, cols) arrays, then multiplied and summed.
    The same floating-point operations on every element, so the result is
    bit for bit the library's."""
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
    and the eavesdropper: channel_sim's draw step then its detect step, as
    ser_sweep takes them for one defense at one SNR point.

    f is the fixed beamformer steered at the RX's nearest grid point; both
    receivers equalize on its unshifted gain (perfect training). Each symbol
    goes out on its own draw of the defense (defense_gains). The draw order
    from rng is fixed (symbol indices, RX noise, eavesdropper noise, defense
    randomness), so runs differing only in the defense are exactly paired.
    """
    directions = np.array([rx_direction, eve_direction], dtype=float)
    draw = _draw(f, directions, defense, m_order, num_symbols, rng, asm_c, gains(f, *directions.T))
    return _detect(draw, (rx_link, eve_link), m_order)


def grid_angles(g: GridIndex, n_t: int, n_rows: int | None = None) -> tuple[float, float]:
    """(theta, phi) of a beam-grid index."""
    rows = n_t if n_rows is None else n_rows
    return grid_angle(g.i, n_t), grid_angle(g.j, rows)


def _check_plane_spec(spec: UavPlaneSpec) -> None:
    if not spec.d > 0:
        raise ValueError(f"plane distance must be positive, got d={spec.d}")
    if not 0 < spec.beta < math.pi:
        raise ValueError(f"plane aperture must lie in (0, pi), got beta={spec.beta}")


def uav_plane_to_rect(c, spec: UavPlaneSpec) -> RectPoint:
    """Map normalized plane coordinates to rectangular space.

    The plane is perpendicular to the tilted boresight, at distance d:
    every output satisfies x*cos(tilt) - z*sin(tilt) = d exactly.

    Args:
        c: (u, v) pair, each component in [-1, 1].
        spec: plane geometry.

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
    sin_t = math.sin(spec.theta_tilt)
    cos_t = math.cos(spec.theta_tilt)
    x = u * half * sin_t + spec.d * cos_t
    y = v * half
    z = u * half * cos_t - spec.d * sin_t
    return RectPoint(x, y, z)


def msph_angles_of_plane_coord(c, spec: UavPlaneSpec) -> tuple[float, float]:
    """Angles (theta, phi) of a hover-plane point, composing the two maps above.

    Raises:
        ValueError: if the plane point falls on or behind the array plane
            (possible for tilted arrays at extreme u).
    """
    p = uav_plane_to_rect(c, spec)
    s = rect_to_msph(p, spec.theta_tilt)
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
