"""Shift defense tests: exact rotation identity, phase-noise law, partitions,
and the PSK mutual-information machinery.

The three frozen mutual-information values below were produced by an
independent Monte-Carlo estimator (2e6 samples, direct density ratio) and are
trusted to about 3e-4 bits.
"""

import math
import os
import re
import sys
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csbsim.array import ArrayConfig, GridIndex, dft_codeword, gains, grid_angle, nearest_grid_index
from csbsim import csb_defense
from csbsim.channel_sim import MI_SUBSETS, defense_gains, smi_sweep
from csbsim.cli import load_config, main
from csbsim.csb_defense import (
    MI_CHUNK,
    MI_F32_MAX,
    MI_RHO_MAX,
    ApnLaw,
    SnrCeilingError,
    _mi_block_rows,
    _mi_draws,
    _mi_group_rows,
    _mi_term_groups,
    apn_law,
    mixture_mi_bytes,
    mixture_mis,
    partition_report,
    psk_mutual_information,
    shift_gains,
    smi_theory,
)

from oracles import (
    array_response,
    beam_gain,
    blocked_mixture_mi,
    circulant_shift,
    direct_mixture_mi,
    grid_angles,
    mixture_mi,
    quadrature_mixture_mi,
    shift_phase_factor,
    shift_phase_fraction,
)

BPSK_MI_SNR0DB = 0.7215   # I(rho=1, M=2), frozen MC oracle
QPSK_MI_SNR10DB = 1.9936  # I(rho=10, M=4)
QPSK_MI_SNR0DB = 0.9719   # I(rho=1, M=4)


# ---------------------------------------------------------------- shifting

def test_circulant_shift_small_matrix():
    f = np.array([[1, 2], [3, 4]])
    assert np.array_equal(circulant_shift(f, (0, 0)), f)
    assert np.array_equal(circulant_shift(f, (1, 0)), [[3, 4], [1, 2]])
    assert np.array_equal(circulant_shift(f, (0, 1)), [[2, 1], [4, 3]])
    assert np.array_equal(circulant_shift(f, (1, 1)), [[4, 3], [2, 1]])


def test_circulant_shift_composes_and_preserves_norm():
    rng = np.random.default_rng(0)
    f = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    a = circulant_shift(circulant_shift(f, (3, 2)), (2, 5))
    b = circulant_shift(f, (5, 7))
    assert np.array_equal(a, b)
    assert np.linalg.norm(circulant_shift(f, (1, 3))) == pytest.approx(np.linalg.norm(f))


def test_shift_phase_fraction_examples():
    # Unit column shift, azimuth grid 1, 16 columns: 1/16 of a turn.
    assert shift_phase_fraction((0, 1), GridIndex(1, 0), 16) == Fraction(1, 16)
    # Wraps mod 1 exactly.
    assert shift_phase_fraction((8, 8), GridIndex(2, 2), 16) == Fraction(0)
    # Row shifts are inert on a single-row array.
    assert shift_phase_fraction((0, 3), GridIndex(5, 0), 8, 1) == Fraction(15, 8) % 1
    f = shift_phase_fraction((2, 3), GridIndex(4, 6), 16, 8)
    assert f == (Fraction(2 * 6, 8) + Fraction(3 * 4, 16)) % 1


def test_gain_rotation_identity_any_beamformer():
    # Shifting any beamformer rotates its gain at every on-grid direction by
    # exactly the predicted unit factor.
    rng = np.random.default_rng(5)
    for rows, cols in ((8, 8), (4, 8), (1, 16)):
        f = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        for _ in range(20):
            g = GridIndex(int(rng.integers(cols)), int(rng.integers(rows)))
            s = (int(rng.integers(rows)), int(rng.integers(cols)))
            theta, phi = grid_angles(g, cols, rows)
            v = array_response(theta, phi, cols, rows)
            lhs = beam_gain(v, circulant_shift(f, s))
            rhs = beam_gain(v, f) * shift_phase_factor(s, g, cols, rows)
            assert lhs == pytest.approx(rhs, abs=1e-10)


@pytest.mark.parametrize("rows,cols", [(8, 8), (4, 8), (1, 16)])
@pytest.mark.parametrize("on_grid", [True, False])
def test_shift_gains_match_per_shift_oracle(rows, cols, on_grid):
    rng = np.random.default_rng(rows * cols)
    f = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    for _ in range(4):
        rx = GridIndex(int(rng.integers(cols)), int(rng.integers(rows)))
        if on_grid:
            probe = grid_angles(GridIndex(int(rng.integers(cols)), int(rng.integers(rows))), cols, rows)
        else:
            probe = tuple(rng.uniform(-1.5, 1.5, size=2))
        v = array_response(*probe, cols, rows)
        oracle = [
            beam_gain(v, circulant_shift(f, (m, n)))
            * shift_phase_factor((m, n), rx, cols, rows).conjugate()
            for m in range(rows)
            for n in range(cols)
        ]
        assert_allclose(shift_gains(v, f, rx), oracle, rtol=0, atol=1e-12)


def test_compensation_round_trip_on_grid():
    # Every compensated shift delivers the unshifted gain to the receiver's
    # grid point, whatever the beamformer.
    rng = np.random.default_rng(9)
    f = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rx = GridIndex(3, 1)
    theta, phi = grid_angles(rx, 4)
    v = array_response(theta, phi, 4)
    x = 0.8 - 0.6j
    got = defense_gains("csb", f, [(theta, phi)], rx)[0] * x
    assert got.shape == (16,)
    assert_allclose(got, beam_gain(v, f) * x, rtol=0, atol=1e-12)


def test_csb_draws_reproducible_and_consistent():
    # With an rng, each transmission is the compensated gain of one uniformly
    # drawn shift: the draw repeats for a seed, and it is the shift-and-
    # compensate oracle at the shift the same stream picks.
    rx = GridIndex(2, 1)
    f = dft_codeword(rx, ArrayConfig(8, 2))
    dirs = [grid_angles(g, 8) for g in (rx, GridIndex(5, 3))]
    v = np.stack([array_response(*d, 8) for d in dirs])
    a = defense_gains("csb", f, dirs, rx, np.random.default_rng(42), 50)
    b = defense_gains("csb", f, dirs, rx, np.random.default_rng(42), 50)
    assert a.shape == (2, 50)
    assert np.array_equal(a, b)
    shifts = np.random.default_rng(42).integers(64, size=50)
    for col, k in enumerate(shifts):
        s = (int(k) // 8, int(k) % 8)
        for p in range(2):
            oracle = beam_gain(v[p], circulant_shift(f, s)) * shift_phase_factor(s, rx, 8, 8).conjugate()
            assert a[p, col] == pytest.approx(oracle, abs=1e-12)


# ---------------------------------------------------------------- phase-noise law

def test_apn_law_point_mass_at_receiver():
    law = apn_law(0, 0, 16)
    assert law.g == 0
    assert law.support_indices == (0,)
    assert law.prob == 1.0


def test_apn_law_coprime_offset_full_support():
    law = apn_law(1, 0, 16)
    assert law.g == 1
    assert law.support_indices == tuple(range(16))
    assert law.prob == pytest.approx(1 / 16)
    assert_allclose(law.support, 2 * np.pi * np.arange(16) / 16)


def test_apn_law_half_offset_binary_support():
    law = apn_law(8, 0, 16)
    assert law.g == 8
    assert law.support_indices == (0, 8)
    assert_allclose(law.support, [0.0, np.pi])
    assert law.prob == pytest.approx(0.5)


def test_apn_law_negative_offsets_and_mixed():
    law = apn_law(12, -8, 16)
    assert law.g == 4
    assert law.support_indices == (0, 4, 8, 12)
    assert law.prob == pytest.approx(0.25)


def test_apn_law_matches_brute_force_histogram_n8():
    n = 8
    for di in range(-n, n + 1):
        for dj in range(-n, n + 1):
            counts = Counter(
                (m * dj + k * di) % n for m in range(n) for k in range(n)
            )
            law = apn_law(di, dj, n)
            assert set(counts) == set(law.support_indices), (di, dj)
            for idx in law.support_indices:
                assert counts[idx] == n * n * law.prob / 1, (di, dj)
                assert counts[idx] * 1 == round(n * n * law.prob), (di, dj)


# ---------------------------------------------------------------- partitions

def test_partition_qpsk_canonical_cases():
    # Coprime offset: one class, nothing distinguishable.
    rep = partition_report(4, 1, 16)
    assert (rep.class_size, rep.num_classes) == (4, 1)
    assert rep.classes == ((0, 1, 2, 3),)
    # Offset gcd 8: two classes of two, one recoverable bit.
    rep = partition_report(4, 8, 16)
    assert (rep.class_size, rep.num_classes) == (2, 2)
    assert rep.classes == ((0, 2), (1, 3))
    # Receiver direction: no mixing at all.
    rep = partition_report(4, 0, 16)
    assert (rep.class_size, rep.num_classes) == (1, 4)
    assert rep.classes == ((0,), (1,), (2,), (3,))


def test_partition_16psk_intermediate_gcd():
    rep = partition_report(16, 4, 16)
    assert rep.class_size == 4
    assert rep.num_classes == 4
    assert rep.classes[1] == (1, 5, 9, 13)


def test_partition_validation():
    with pytest.raises(ValueError):
        partition_report(3, 1, 16)
    with pytest.raises(ValueError):
        partition_report(0, 1, 16)
    with pytest.raises(ValueError):
        partition_report(4, -2, 16)


# ---------------------------------------------------------------- mutual information

def test_psk_mi_frozen_oracle_values():
    assert psk_mutual_information(1.0, 2) == pytest.approx(BPSK_MI_SNR0DB, abs=1e-3)
    assert psk_mutual_information(10.0, 4) == pytest.approx(QPSK_MI_SNR10DB, abs=1e-3)
    assert psk_mutual_information(1.0, 4) == pytest.approx(QPSK_MI_SNR0DB, abs=1e-3)


def test_psk_mi_limits_and_monotonicity():
    assert psk_mutual_information(0.0, 4) == pytest.approx(0.0, abs=1e-9)
    assert psk_mutual_information(5.0, 1) == 0.0
    vals = [psk_mutual_information(r, 4) for r in (0.5, 1.0, 2.0, 4.0)]
    assert vals == sorted(vals)
    assert psk_mutual_information(1000.0, 4) == pytest.approx(2.0, abs=1e-3)
    for r, m in ((0.3, 2), (3.0, 8)):
        v = psk_mutual_information(r, m)
        assert 0.0 <= v <= math.log2(m) + 1e-12


def test_psk_mi_validation():
    with pytest.raises(ValueError):
        psk_mutual_information(-0.1, 4)
    with pytest.raises(ValueError):
        psk_mutual_information(1.0, 0)


def test_smi_coprime_offset_keeps_full_rate():
    # One distinguishable class means the eavesdropper term vanishes.
    theory = smi_theory(0, 16, 4, 3.0)
    row = list(theory["eve_grid_i"]).index(1)
    assert theory["g"][row] == 1
    assert theory["eve_bits_max"][row] == 0.0
    assert theory["smi_floor"][row] == pytest.approx(psk_mutual_information(10**0.3, 4), abs=1e-12)


def test_smi_clamps_at_zero():
    # The receiver's own direction resolves every symbol class.
    for rx_snr_db in (-10.0, 10.0):
        theory = smi_theory(3, 16, 4, rx_snr_db)
        row = list(theory["eve_grid_i"]).index(3)
        assert theory["eve_bits_max"][row] == 2.0
        assert theory["smi_floor"][row] == 0.0


# ---------------------------------------------------------------- atoms / mixtures

def _shift_atoms(f, theta, phi, rx):
    """Relative channels of every shift at a probe: compensated gain over the
    unshifted gain the probe equalizes on."""
    rows, cols = f.shape
    v = array_response(theta, phi, cols, rows)
    return defense_gains("csb", f, [(theta, phi)], rx)[0] / beam_gain(v, f)


def test_shift_atoms_collapse_at_receiver():
    cfg = ArrayConfig(8, 1)
    rx = GridIndex(3, 2)
    f = dft_codeword(rx, cfg)
    theta, phi = grid_angles(rx, 8)
    atoms = _shift_atoms(f, theta, phi, rx)
    assert atoms.shape == (64,)
    assert_allclose(atoms, 1.0, atol=1e-10)


def test_shift_atoms_match_phase_noise_support():
    # On-grid eavesdropper: atoms are unit phasors distributed exactly per
    # the phase-noise law for the grid offset.
    cfg = ArrayConfig(16, 1)
    rx = GridIndex(3, 0)
    eve = GridIndex(2, 0)
    f = dft_codeword(rx, cfg)
    theta, phi = grid_angles(eve, 16)
    atoms = _shift_atoms(f, theta, phi, rx)
    assert_allclose(np.abs(atoms), 1.0, atol=1e-9)
    law = apn_law(rx.i - eve.i, rx.j - eve.j, 16)
    k = np.mod(np.rint(np.angle(atoms) / (2 * np.pi / 16)), 16).astype(int)
    counts = Counter(k.tolist())
    expected_each = round(256 * law.prob)
    assert set(counts) == set(law.support_indices)
    assert all(c == expected_each for c in counts.values())


def test_shift_atoms_zero_gain_raises():
    # A receiver at a null of the beam has no trained channel to divide by.
    cfg = ArrayConfig(8, None)
    f = dft_codeword(GridIndex(1, 1), cfg)
    rx_dir = grid_angles(GridIndex(4, 1), 8)  # orthogonal grid point
    with pytest.raises(ValueError, match="no trained channel"):
        smi_sweep(f, rx_dir, [], 10.0, 4, (), 100, 0)


def test_mixture_mi_single_atom_matches_quadrature():
    rng = np.random.default_rng(77)
    est = mixture_mi(np.array([1.0 + 0j]), 1.0, 4, rng, num_samples=40000)
    assert est == pytest.approx(QPSK_MI_SNR0DB, abs=0.02)


def test_mixture_mi_zero_atoms_and_determinism():
    # A dead channel carries nothing; only float summation order remains.
    dead = mixture_mi(np.zeros(3, dtype=complex), 5.0, 4, np.random.default_rng(1))
    assert dead == pytest.approx(0.0, abs=1e-12)
    a = mixture_mi(np.array([1.0, 1j]), 2.0, 4, np.random.default_rng(3), 5000)
    b = mixture_mi(np.array([1.0, 1j]), 2.0, 4, np.random.default_rng(3), 5000)
    assert a == b


def test_mixture_mi_full_phase_support_erases_qpsk():
    # All sixteen roots of unity as atoms: each QPSK symbol produces the same
    # sixteen-point cloud, so the channel carries exactly zero information.
    atoms = np.exp(2j * np.pi * np.arange(16) / 16)
    val = mixture_mi(atoms, 50.0, 4, np.random.default_rng(123), 8000)
    assert val == pytest.approx(0.0, abs=1e-9)


def test_mixture_mi_binary_support_leaves_one_bit():
    # Atoms {+1, -1} fold QPSK into two distinguishable classes; at high SNR
    # the mixture information approaches exactly one bit.
    atoms = np.array([1.0 + 0j, -1.0 + 0j])
    val = mixture_mi(atoms, 100.0, 4, np.random.default_rng(8), 20000)
    assert val == pytest.approx(1.0, abs=0.03)


def _rho_and_tolerance(rho, atoms):
    """The test's rho for these atoms ("ceiling": just below MI_F32_MAX over
    their largest power) and the declared bound on the estimate's rounding:
    C eps (1 + rho max|a|^2), with C = 8 in float64 and 1 in float32. The
    largest ratio measured on the two oracle tests' shapes was 0.35 in
    float64 and 0.034 in float32."""
    power = np.max(np.abs(atoms)) ** 2
    if rho == "ceiling":
        rho = 0.999 * MI_F32_MAX / power
    if rho * power <= MI_F32_MAX:
        return rho, np.finfo(np.float32).eps * (1 + rho * power)
    return rho, 8 * np.finfo(float).eps * (1 + rho * power)


# rho 0, 0.1 and 10 and the ceiling run every (K, M) pair below MI_F32_MAX,
# in float32, and 1e3 runs every pair above it, in float64
@pytest.mark.parametrize("rho", [0.0, 0.1, 10.0, 1e3, "ceiling"])
def test_mixture_mi_matches_direct_distances(rho):
    # The exponents -|y - c|^2 come from |y|^2, |c|^2 and 2 Re(y conj(c)), so
    # they cancel terms of size rho |a|^2 that the direct distances never
    # form: the declared tolerance grows with rho times the largest atom power.
    for k in (1, 16, 256):
        for m in (2, 4, 8):
            r = np.random.default_rng([k, m])
            atoms = (r.standard_normal(k) + 1j * r.standard_normal(k)) * 2.0
            rho_k, tol = _rho_and_tolerance(rho, atoms)
            got = mixture_mi(atoms, rho_k, m, np.random.default_rng(5), 512)
            want = direct_mixture_mi(atoms, rho_k, m, np.random.default_rng(5), 512)
            assert abs(got - want) <= tol, (k, m, got, want)


@pytest.mark.parametrize("rho", [0.0, 0.1, 10.0, 1e3, "ceiling"])
def test_mixture_mi_matches_the_blocked_body(rho):
    # The same draws and terms as the 4096-row blocks that shifted each
    # exponent row by its max before exp, summed per 4096-row slice as
    # before; the exponents differ in rounding only, within the declared
    # tolerance. n = 5000 and 20000 cross the summation slices and, for
    # K >= 16, the exponent blocks; K = 256 with M = 8 makes a block 32
    # samples high.
    for k in (1, 16, 256):
        for m in (2, 4, 8):
            r = np.random.default_rng([k, m])
            atoms = (r.standard_normal(k) + 1j * r.standard_normal(k)) * 2.0
            rho_k, tol = _rho_and_tolerance(rho, atoms)
            for n in (256, 5000, 20000):
                got = mixture_mi(atoms, rho_k, m, np.random.default_rng(5), n)
                want = blocked_mixture_mi(atoms, rho_k, m, np.random.default_rng(5), n)
                assert abs(got - want) <= tol, (k, m, n, got, want)


def _stack(d, k, m, interleaved):
    """D random atom sets of K atoms and their rhos, 0 first: all below
    MI_F32_MAX, or with every odd row 1.5 to 64 times above it."""
    r = np.random.default_rng([d, k, m])
    atoms = r.standard_normal((d, k)) + 1j * r.standard_normal((d, k))
    rhos = np.concatenate([[0.0], r.uniform(0.1, 30.0, d - 1)])
    power = np.max(np.abs(atoms) ** 2, axis=1)
    if interleaved:
        rhos[1::2] = MI_F32_MAX * r.uniform(1.5, 64.0, d // 2) / power[1::2]
    assert np.array_equal(rhos * power > MI_F32_MAX, interleaved & (np.arange(d) % 2 == 1))
    return atoms, rhos


@pytest.mark.parametrize(
    "d,k,m,n,interleaved",
    [
        pytest.param(37, 16, 4, 256, False, id="37-16-4-256"),  # 14-row groups, the last one of 9
        pytest.param(30, 1, 2, 256, False, id="30-1-2-256"),  # one atom, 21-row groups
        pytest.param(12, 256, 4, 256, False, id="12-256-4-256"),  # 64-sample blocks, 5-row groups
        pytest.param(3, 256, 8, 5000, False, id="3-256-8-5000"),  # 32-sample blocks and two MI_CHUNK slices
        pytest.param(4, 16, 1, 300, False, id="4-16-1-300"),  # one symbol: nothing to learn
        # float32 and float64 rows in turn, each dtype in groups of 14 rows
        pytest.param(37, 16, 4, 5000, True, id="37-16-4-5000-interleaved"),
    ],
)
def test_mixture_mis_rows_equal_each_row_alone(d, k, m, n, interleaved):
    # Every row reads the same draws, whatever group it falls in: each value
    # is the one its row gives alone, bit for bit.
    atoms, rhos = _stack(d, k, m, interleaved)
    if m > 1:
        assert _mi_group_rows(d, min(n, MI_CHUNK), m, k) < d or n > MI_CHUNK
        assert _mi_block_rows(min(n, MI_CHUNK), m * k) < n or k < 256
    got = mixture_mis(atoms, rhos, m, np.random.default_rng(9), n)
    assert got.shape == (d,)
    for row in range(d):
        alone = mixture_mis(atoms[row:row + 1], rhos[row:row + 1], m, np.random.default_rng(9), n)
        assert got[row] == alone[0] == mixture_mi(atoms[row], rhos[row], m, np.random.default_rng(9), n), row


def _on_cpus(monkeypatch, count):
    """Make mixture_mis run min(count, D) workers on D rows: MI_WORKERS at count."""
    monkeypatch.setattr(csb_defense, "MI_WORKERS", count)


@pytest.mark.parametrize(
    "d,k,m,n,interleaved",
    [
        pytest.param(37, 16, 4, 256, False, id="37-16-4-256"),
        pytest.param(30, 1, 2, 256, False, id="30-1-2-256"),
        pytest.param(12, 256, 4, 256, False, id="12-256-4-256"),
        pytest.param(3, 256, 8, 5000, False, id="3-256-8-5000"),
        pytest.param(37, 16, 4, 5000, True, id="37-16-4-5000-interleaved"),
    ],
)
def test_mixture_mis_bits_do_not_depend_on_the_worker_count(monkeypatch, d, k, m, n, interleaved):
    # The shapes of test_mixture_mis_rows_equal_each_row_alone, split into
    # 1, 2 and 3 parts and into one part per row (more CPUs than rows), with
    # the interpreter switching threads as often as it can.
    atoms, rhos = _stack(d, k, m, interleaved)
    _on_cpus(monkeypatch, 1)
    want = mixture_mis(atoms, rhos, m, np.random.default_rng(9), n)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (2, 3, d + 5):
            _on_cpus(monkeypatch, cpus)
            assert np.array_equal(mixture_mis(atoms, rhos, m, np.random.default_rng(9), n), want), cpus
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("failing", [0, 2, 4])
def test_mixture_mis_raises_a_failing_parts_error_and_leaves_no_thread(monkeypatch, failing):
    # Six rows on three CPUs: parts [0, 2), [2, 4) and [4, 6), the first in
    # the calling thread. Each rho names its row, so the stand-in for the
    # terms fails on the part that starts at row `failing`.
    real = csb_defense._mi_term_groups

    def terms(atoms, rhos, peaks, m_order, draws):
        if rhos[0] == failing:
            raise ArithmeticError(f"part at row {failing}")
        return real(atoms, rhos, peaks, m_order, draws)

    monkeypatch.setattr(csb_defense, "_mi_term_groups", terms)
    _on_cpus(monkeypatch, 3)
    errors = []

    def call():
        try:
            mixture_mis(np.ones((6, 4), dtype=complex), np.arange(6.0), 4, np.random.default_rng(0), 2000)
        except ArithmeticError as exc:
            errors.append(exc)

    before = threading.active_count()
    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert threading.active_count() == before
    assert [str(e) for e in errors] == [f"part at row {failing}"]


def test_smi_sweep_columns_equal_a_per_direction_loop():
    # smi_sweep's one mixture_mis call per column against one mixture_mi call
    # per direction on the same atoms; the codebook null keeps its NaN row.
    rx = GridIndex(1, 1)
    f = dft_codeword(rx, ArrayConfig(8, None))
    rx_dir = grid_angles(rx, 8)
    eves = [(0.3, 0.1), grid_angles(GridIndex(5, 1), 8), (-0.5, 0.2), (0.05, -0.4)]
    asm_c = (0.3, 0.5)
    got = smi_sweep(f, rx_dir, eves, 10.0, 4, asm_c, 300, 4)
    directions = np.array([rx_dir, *eves])
    base = gains(f, *directions.T)
    probed = np.concatenate([[0], 1 + np.flatnonzero(np.abs(base[1:]) >= 1e-9)])
    assert probed.tolist() == [0, 1, 3, 4]
    rho = 10.0 * (np.abs(base[probed]) / abs(base[0])) ** 2
    rx_grid = nearest_grid_index(*rx_dir, 8, 8)
    want = np.full((len(eves), 3), np.nan)
    table = [("csb", None, None)] + [("asm", c, np.random.default_rng([4, 7, ci])) for ci, c in enumerate(asm_c)]
    for col, (defense, c, rng) in enumerate(table):
        atoms = defense_gains(defense, f, directions[probed], rx_grid, rng, MI_SUBSETS, c) / base[probed, None]
        mi = [mixture_mi(a, r, 4, np.random.default_rng([4, 101]), 300) for a, r in zip(atoms, rho)]
        want[probed[1:] - 1, col] = np.maximum(mi[0] - np.array(mi[1:]), 0.0)
    assert np.isnan(got[1]).all()
    assert np.array_equal(got, want, equal_nan=True)


def test_mixture_mi_refuses_rho_past_its_ceiling():
    # Below the ceiling the exponents' rounding moves the estimate by under
    # 1e-5 bits from the direct distances; past about 1e19 it overflows exp.
    # The ceiling holds rho * max|a|^2, so weaker atoms take a larger rho.
    atoms = np.array([1.0, 0.5j, -0.25])
    for scale in (1.0, 1e-3):
        rho = 0.999 * MI_RHO_MAX / scale**2
        got = mixture_mi(atoms * scale, rho, 4, np.random.default_rng(0), 2000)
        want = direct_mixture_mi(atoms * scale, rho, 4, np.random.default_rng(0), 2000)
        assert abs(got - want) <= 1e-4, (scale, got, want)
    for rho in (1.001 * MI_RHO_MAX, 1e20, math.inf):
        with pytest.raises(SnrCeilingError, match="above MI_RHO_MAX"):
            mixture_mi(atoms, rho, 4, np.random.default_rng(0), 256)
    assert issubclass(SnrCeilingError, ValueError)


def test_mixture_mis_refuses_a_stack_with_one_row_past_the_ceiling():
    # Each row is checked before the draws, and the message names the
    # largest rho * max|a|^2 of the stack.
    atoms = np.ones((4, 3), dtype=complex)
    rhos = np.array([1.0, 3 * MI_RHO_MAX, 10.0, 2 * MI_RHO_MAX])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(SnrCeilingError, match=re.escape(f"= {3 * MI_RHO_MAX:.3g} is above MI_RHO_MAX")):
        mixture_mis(atoms, rhos, 4, rng, 256)
    assert rng.bit_generator.state == state
    rhos[[1, 3]] = MI_RHO_MAX
    assert mixture_mis(atoms, rhos, 4, rng, 256).shape == (4,)
    with pytest.raises(ValueError, match="atoms must be"):
        mixture_mis(atoms, rhos[:3], 4, rng, 256)


# rho on unit-magnitude atoms: every row in float32, then every row in float64
PEAK_RHOS = (10.0, 2 * MI_F32_MAX)


def test_mixture_mi_peak_stays_below_its_estimate(traced_peak):
    for rho in PEAK_RHOS:
        # K = 256 atoms with M = 8: 32-sample exponent blocks in 4096-sample
        # slices, so only the shared draws grow with num_samples
        atoms = np.exp(1j * np.arange(256))
        peaks = [traced_peak(mixture_mi, atoms, rho, 8, np.random.default_rng(0), n) for n in (20000, 40000)]
        assert peaks[0] < mixture_mi_bytes(20000, 8, 256), rho
        assert peaks[1] < mixture_mi_bytes(40000, 8, 256), rho
        assert peaks[1] - peaks[0] < mixture_mi_bytes(40000, 8, 256) - mixture_mi_bytes(20000, 8, 256), rho
        # smi-sweep's ASM column: 182 directions of 256 subsets, in 5-row groups
        stack = np.exp(1j * np.arange(182 * 256)).reshape(182, 256)
        peak = traced_peak(mixture_mis, stack, np.full(182, rho), 4, np.random.default_rng(0), 256)
        assert peak < mixture_mi_bytes(256, 4, 256, 182), rho


@pytest.mark.parametrize("cpus", [1, 2])
def test_mixture_mi_peak_counts_every_worker(monkeypatch, traced_peak, cpus):
    # smi-sweep's ASM column again, on one worker and on two whatever the
    # host's CPUs; the estimate at that count must hold the peak
    _on_cpus(monkeypatch, cpus)
    stack = np.exp(1j * np.arange(182 * 256)).reshape(182, 256)
    for rho in PEAK_RHOS:
        peak = traced_peak(mixture_mis, stack, np.full(182, rho), 4, np.random.default_rng(0), 256)
        assert peak < mixture_mi_bytes(256, 4, 256, 182), rho


def test_mixture_mi_peak_stays_below_its_estimate_at_large_m(monkeypatch, traced_peak):
    # Rows of 16 atoms at M = 1024, where the per-symbol sums are almost all
    # of the peak. One float64 row on one worker takes 0.35 of the estimate
    # and a float32 row about half that; one row on each of two workers may
    # hold their buffers at once. In the mixed stack each part runs a
    # float32 row, then a float64 row, so the float32 buffers must be gone
    # before the float64 ones are taken: its peak stays within 10 % of the
    # float64 rows' alone, where holding both dtypes' takes about 1.5 times.
    for workers in (1, 2):
        _on_cpus(monkeypatch, workers)
        peaks = []
        for rhos in ([PEAK_RHOS[0]], [PEAK_RHOS[1]], list(PEAK_RHOS)):
            rows = len(rhos) * workers
            atoms = np.exp(1j * np.arange(16)) * np.ones((rows, 1))
            peaks.append(traced_peak(mixture_mis, atoms, np.array(rhos * workers), 1024, np.random.default_rng(0), 2000))
            assert peaks[-1] < mixture_mi_bytes(2000, 1024, 16, rows), (rhos, workers)
        assert peaks[2] < 1.1 * peaks[1], (peaks, workers)


def _count_parts(monkeypatch, run=True):
    """Record the number of parts of each mixture_mis call in the returned
    list; with run=False a call stops at its parts, before any runs."""
    counts, real = [], csb_defense._run_parts

    def run_parts(fn, parts):
        counts.append(len(parts))
        if not run:
            raise InterruptedError("parts counted")
        real(fn, parts)

    monkeypatch.setattr(csb_defense, "_run_parts", run_parts)
    return counts


@pytest.mark.parametrize("m", [4, 512, 1024])
def test_many_cpus_start_at_most_mi_workers(monkeypatch, m):
    # On 64 CPUs as on 1, smi-sweep's 182-row call splits into MI_WORKERS
    # parts whatever their buffers take, M = 1024's 126 MB rows as M = 4's,
    # and the size estimate counts that many workers on both
    counts = _count_parts(monkeypatch, run=False)
    estimates = []
    for cpus in (64, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        with pytest.raises(InterruptedError):
            mixture_mis(np.ones((182, 256), dtype=complex), np.ones(182), m, np.random.default_rng(0), 256)
        estimates.append(mixture_mi_bytes(20000, m, 256, 182))
    assert counts == [csb_defense.MI_WORKERS] * 2 == [2, 2]
    assert estimates[0] == estimates[1]


def test_one_cpu_runs_mi_workers_parts_with_the_one_worker_bits(monkeypatch):
    # Under taskset -c 0, smi-sweep's 182 rows still run in MI_WORKERS
    # parts, which give the bits one worker gives
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    counts = _count_parts(monkeypatch)
    r = np.random.default_rng(182)
    atoms = np.exp(2j * np.pi * r.random((182, 16)))
    rhos = r.uniform(0.1, 30.0, 182)
    got = mixture_mis(atoms, rhos, 4, np.random.default_rng(9), 256)
    _on_cpus(monkeypatch, 1)
    assert np.array_equal(mixture_mis(atoms, rhos, 4, np.random.default_rng(9), 256), got)
    assert counts == [2, 1]


def _csb_atom_sets():
    """(atoms, M) for CSB atom sets of at most 16 atoms: on-grid phase-noise
    supports with two classes of M-PSK left to resolve, and every shift's
    relative channel at an off-grid angle of a linear array."""
    sets = [
        pytest.param(np.exp(1j * apn_law(4, 0, 8).support), 4, id="apn-2-of-8-qpsk"),
        pytest.param(np.exp(1j * apn_law(2, 0, 16).support), 16, id="apn-8-of-16-16psk"),
    ]
    for n, rx_i, eve_deg in ((8, 1, 37.0), (16, 3, -20.0)):
        rx = GridIndex(rx_i, 0)
        f = dft_codeword(rx, ArrayConfig(n, 1, n_rows=1))
        atoms = _shift_atoms(f, math.radians(eve_deg), 0.0, rx)
        sets.append(pytest.param(atoms, 4, id=f"csb-{n}-off-grid-qpsk"))
    return sets


@pytest.mark.parametrize("rho", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("atoms,m", _csb_atom_sets())
def test_mixture_mi_within_4_se_of_quadrature(atoms, m, rho):
    draws = _mi_draws(np.random.default_rng(11), atoms.size, 20000)
    peak = rho * np.max(np.abs(atoms) ** 2)
    slices = _mi_term_groups(atoms[None], np.array([rho]), np.array([peak]), m, draws)
    terms = np.concatenate([t[0] for _, t in slices])
    se = float(np.std(terms, ddof=1)) / math.sqrt(terms.size) / math.log(2)
    assert 0 < se < math.inf
    est = mixture_mi(atoms, rho, m, np.random.default_rng(11), 20000)
    assert abs(est - quadrature_mixture_mi(atoms, rho, m, 64)) <= 4 * se


def test_smi_sweep_csb_column_within_4_paired_se_of_quadrature(tmp_path, capsys):
    # smi-sweep --tiny on the lock config sweeps the n_t grid angles. Each
    # CSB entry is max(I_rx - I_eve, 0) over every shift's relative channel,
    # so its exact value comes from the quadrature of both atom sets, built
    # here from the oracles' shifted beams at the SNR the gain ratio gives.
    # The bound is 4 standard errors of the paired per-sample differences
    # on the sweep's own draws.
    lock = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "lock", "lock.ini")
    assert main(["smi-sweep", "--tiny", "--seed", "0", "--config", lock, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    with open(tmp_path / "smi_sweep.csv") as fh:
        got = [row.split(",")[1] for row in fh.read().splitlines()[1:]]
    cfg = load_config(lock)
    n, m = cfg.n_t, cfg.m_order
    rx_dir = (math.radians(cfg.rx_theta_deg), 0.0)
    rx = nearest_grid_index(*rx_dir, n, 1)
    f = dft_codeword(rx, ArrayConfig(n, cfg.q, n_rows=1))
    shifts = [(0, s) for s in range(n)]
    eves = [(grid_angle(i, n), 0.0) for i in range(1 - n // 2, n // 2 + 1)]
    atoms, rhos = [], []
    rx_base = beam_gain(array_response(*rx_dir, n, 1), f)
    for theta, phi in [rx_dir, *eves]:
        v = array_response(theta, phi, n, 1)
        base = beam_gain(v, f)
        atoms.append([beam_gain(v, circulant_shift(f, s)) / shift_phase_factor(s, rx, n, 1) / base for s in shifts])
        rhos.append(10 ** (cfg.rx_snr_db / 10) * abs(base / rx_base) ** 2)
    atoms, rhos = np.array(atoms), np.array(rhos)
    assert len(got) == len(eves) and "" not in got  # a 1-bit beam has no null on the grid
    draws = _mi_draws(np.random.default_rng([0, 101]), n, min(cfg.mi_samples, 500))
    terms = [[] for _ in rhos]
    peaks = rhos * np.max(np.abs(atoms) ** 2, axis=1)
    for rows, slice_terms in _mi_term_groups(atoms, rhos, peaks, m, draws):
        for row, row_terms in zip(np.arange(len(rhos))[rows], slice_terms):
            terms[row].append(row_terms)
    terms = [np.concatenate(t) for t in terms]
    exact = [quadrature_mixture_mi(a, rho, m, 64) for a, rho in zip(atoms, rhos)]
    for row, value in enumerate(got):
        diff = terms[0] - terms[1 + row]
        se = float(np.std(diff, ddof=1)) / math.sqrt(diff.size) / math.log(2)
        want = max(exact[0] - exact[1 + row], 0.0)
        assert abs(float(value) - want) <= 4 * se, (row, value, want, se)


def test_mixture_mi_rejects_negative_rho():
    with pytest.raises(ValueError, match="rho must be nonnegative"):
        mixture_mi(np.array([1.0 + 0j]), -1.0, 4, np.random.default_rng(0), 100)


def test_mixture_mi_rejects_zero_samples():
    with pytest.raises(ValueError, match="num_samples must be >= 1"):
        mixture_mi(np.array([1.0 + 0j]), 1.0, 4, np.random.default_rng(0), 0)


def test_apn_law_is_frozen():
    law = apn_law(1, 0, 8)
    with pytest.raises(AttributeError):
        law.g = 2
    assert isinstance(law, ApnLaw)
