"""Shift defense tests: exact rotation identity, phase-noise law, partitions,
and the PSK mutual-information machinery.

The three frozen mutual-information values below were produced by an
independent Monte-Carlo estimator (2e6 samples, direct density ratio) and are
trusted to about 3e-4 bits.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csbsim.array import (
    ArrayConfig,
    GridIndex,
    array_response,
    beam_gain,
    dft_codeword,
    grid_angles,
)
from csbsim.channel_sim import defense_gains, smi_sweep
from csbsim.csb_defense import (
    ApnLaw,
    ShiftPair,
    apn_law,
    circulant_shift,
    mixture_mi,
    partition_report,
    psk_mutual_information,
    shift_gains,
    shift_phase_factor,
    shift_phase_fraction,
    smi,
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
    assert shift_phase_fraction(ShiftPair(0, 1), GridIndex(1, 0), 16) == Fraction(1, 16)
    # Wraps mod 1 exactly.
    assert shift_phase_fraction(ShiftPair(8, 8), GridIndex(2, 2), 16) == Fraction(0)
    # Row shifts are inert on a single-row array.
    assert shift_phase_fraction(ShiftPair(0, 3), GridIndex(5, 0), 8, 1) == Fraction(15, 8) % 1
    f = shift_phase_fraction(ShiftPair(2, 3), GridIndex(4, 6), 16, 8)
    assert f == (Fraction(2 * 6, 8) + Fraction(3 * 4, 16)) % 1


def test_gain_rotation_identity_any_beamformer():
    # Shifting any beamformer rotates its gain at every on-grid direction by
    # exactly the predicted unit factor.
    rng = np.random.default_rng(5)
    for rows, cols in ((8, 8), (4, 8), (1, 16)):
        f = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        for _ in range(20):
            g = GridIndex(int(rng.integers(cols)), int(rng.integers(rows)))
            s = ShiftPair(int(rng.integers(rows)), int(rng.integers(cols)))
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
            beam_gain(v, circulant_shift(f, ShiftPair(m, n)))
            * shift_phase_factor(ShiftPair(m, n), rx, cols, rows).conjugate()
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
    got = defense_gains("csb", f, v[None], rx)[0] * x
    assert got.shape == (16,)
    assert_allclose(got, beam_gain(v, f) * x, rtol=0, atol=1e-12)


def test_csb_draws_reproducible_and_consistent():
    # With an rng, each transmission is the compensated gain of one uniformly
    # drawn shift: the draw repeats for a seed, and it is the shift-and-
    # compensate oracle at the shift the same stream picks.
    rx = GridIndex(2, 1)
    f = dft_codeword(rx, ArrayConfig(8, 2))
    v = np.stack([array_response(*grid_angles(g, 8), 8) for g in (rx, GridIndex(5, 3))])
    a = defense_gains("csb", f, v, rx, np.random.default_rng(42), 50)
    b = defense_gains("csb", f, v, rx, np.random.default_rng(42), 50)
    assert a.shape == (2, 50)
    assert np.array_equal(a, b)
    shifts = np.random.default_rng(42).integers(64, size=50)
    for col, k in enumerate(shifts):
        s = ShiftPair(int(k) // 8, int(k) % 8)
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
    v = smi(2.0, 1000.0, 4, 1, 16)
    assert v == pytest.approx(psk_mutual_information(2.0, 4), abs=1e-12)


def test_smi_clamps_at_zero():
    assert smi(0.1, 1000.0, 4, 0, 16) == 0.0
    with pytest.raises(ValueError):
        smi(-1.0, 1.0, 4, 1, 16)


# ---------------------------------------------------------------- atoms / mixtures

def _shift_atoms(f, theta, phi, rx):
    """Relative channels of every shift at a probe: compensated gain over the
    unshifted gain the probe equalizes on."""
    rows, cols = f.shape
    v = array_response(theta, phi, cols, rows)
    return defense_gains("csb", f, v[None], rx)[0] / beam_gain(v, f)


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


def test_apn_law_is_frozen():
    law = apn_law(1, 0, 8)
    with pytest.raises(AttributeError):
        law.g = 2
    assert isinstance(law, ApnLaw)
