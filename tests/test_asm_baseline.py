"""Antenna-subset baseline tests."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csbsim.array import ArrayConfig, GridIndex, dft_codeword
from csbsim.asm_baseline import AsmConfig, random_subset_masks
from csbsim.channel_sim import defense_gains, smi_sweep

from oracles import argpartition_subset_masks, array_response, beam_gain, grid_angles


def test_asm_config_validation():
    with pytest.raises(ValueError):
        AsmConfig(0.0, 16)
    with pytest.raises(ValueError):
        AsmConfig(1.2, 16)
    with pytest.raises(ValueError):
        AsmConfig(-0.5, 16)
    # Fraction so small no antenna survives rounding.
    with pytest.raises(ValueError):
        AsmConfig(0.01, 4)
    cfg = AsmConfig(0.5, 16)
    assert cfg.size == 256
    assert cfg.active_count == 128
    assert AsmConfig(0.3, 4, 1).active_count == 1


def test_full_fraction_is_identity():
    cfg = AsmConfig(1.0, 8)
    g = GridIndex(2, 3)
    f = dft_codeword(g, ArrayConfig(8, None))
    dirs = [grid_angles(g, 8), (0.3, -0.2)]
    got = defense_gains("asm", f, dirs, g, np.random.default_rng(0), 5, cfg.c)
    # Matched unquantized beam has real positive gain, so no rotation: every
    # draw is the fixed beam.
    fixed = defense_gains("none", f, dirs, g)
    assert got.shape == (2, 5)
    assert_allclose(got, np.broadcast_to(fixed, got.shape), rtol=0, atol=1e-12)


def test_subset_keeps_exact_count_unscaled():
    # Each draw is the gain of the beamformer with all but exactly
    # active_count entries zeroed and the rest left as they are.
    cfg = AsmConfig(0.3, 16)
    g = GridIndex(4, 4)
    f = dft_codeword(g, ArrayConfig(16, 2))
    dirs = [(0.4, 0.1), grid_angles(g, 16)]  # off-grid receiver
    v = np.stack([array_response(theta, phi, 16) for theta, phi in dirs])
    masks = random_subset_masks(f.size, cfg.active_count, 20, np.random.default_rng(1))
    assert cfg.active_count == 77
    assert np.all(masks.sum(axis=1) == 77)
    got = defense_gains("asm", f, dirs, g, np.random.default_rng(1), 20, cfg.c)
    for k, mask in enumerate(masks):
        f_asm = np.where(mask.reshape(f.shape), f, 0)
        rot = np.exp(-1j * np.angle(beam_gain(v[0], f_asm)))
        assert_allclose(got[:, k], [beam_gain(v_p, f_asm) * rot for v_p in v], rtol=0, atol=1e-12)


def test_receiver_phase_preserved_every_draw():
    # Whatever subset is drawn, the product (compensated gain) * (symbol)
    # keeps the phase of the original symbol at the intended direction.
    f = dft_codeword(GridIndex(5, 12), ArrayConfig(16, 2))
    rx_dir = (0.21, -0.48)
    x = np.exp(1j * 0.77)
    rng = np.random.default_rng(123)
    y = defense_gains("asm", f, [rx_dir], GridIndex(5, 12), rng, 200, 0.5)[0] * x
    err = np.angle(y * np.conj(x))
    assert np.abs(err).max() < 1e-10


def test_transmit_deterministic_for_seed():
    g = GridIndex(1, 6)
    f = dft_codeword(g, ArrayConfig(8, 1))
    dirs = [grid_angles(g, 8), (-0.7, 0.2)]
    a = defense_gains("asm", f, dirs, g, np.random.default_rng(5), 30, 0.7)
    b = defense_gains("asm", f, dirs, g, np.random.default_rng(5), 30, 0.7)
    assert np.array_equal(a, b)


def test_mean_mainlobe_gain_drops():
    # Half the antennas silent means roughly half the coherent sum; the
    # intended link pays an SNR price under this baseline.
    g = GridIndex(3, 3)
    f = dft_codeword(g, ArrayConfig(16, None))
    rx_dir = grid_angles(g, 16)
    full = abs(beam_gain(array_response(*rx_dir, 16), f))
    mags = np.abs(defense_gains("asm", f, [rx_dir], g, np.random.default_rng(7), 500, 0.5)[0])
    assert np.mean(mags) < 0.6 * full
    assert np.mean(mags) == pytest.approx(0.5 * full, rel=0.05)


def test_random_subset_masks_counts_and_uniformity():
    rng = np.random.default_rng(99)
    masks = random_subset_masks(16, 8, 4000, rng)
    assert masks.shape == (4000, 16)
    assert masks.dtype == bool
    assert np.all(masks.sum(axis=1) == 8)
    # Each element active with frequency 1/2 within a 4-sigma binomial band.
    freq = masks.mean(axis=0)
    assert np.all(np.abs(freq - 0.5) < 4 * math.sqrt(0.25 / 4000) + 1e-12)


@pytest.mark.parametrize("size", [16, 256, 4096])
@pytest.mark.parametrize("fraction", ["one", "half", "all"])
def test_threshold_masks_match_index_selection(size, fraction):
    # the threshold sampler keeps the same entries as argpartition on the
    # same scores, bitwise, over several seeds
    active = {"one": 1, "half": size // 2, "all": size}[fraction]
    num = 300 if size < 4096 else 40
    for seed in range(4):
        got = random_subset_masks(size, active, num, np.random.default_rng([seed, size]))
        want = argpartition_subset_masks(size, active, num, np.random.default_rng([seed, size]))
        assert got.dtype == bool and got.shape == (num, size)
        assert np.array_equal(got, want)


def test_relative_atoms_at_receiver_are_amplitudes():
    g = GridIndex(2, 2)
    f = dft_codeword(g, ArrayConfig(8, None))
    rx_dir = grid_angles(g, 8)
    v = array_response(*rx_dir, 8)
    atoms = defense_gains("asm", f, [rx_dir], g, np.random.default_rng(11), 64, 0.5)[0] / beam_gain(v, f)
    assert atoms.shape == (64,)
    assert_allclose(atoms.imag, 0.0, atol=1e-12)
    assert np.all(atoms.real >= -1e-12)
    assert np.all(atoms.real <= 1.0 + 1e-12)
    # Mean relative amplitude is near the retained fraction.
    assert np.mean(atoms.real) == pytest.approx(0.5, abs=0.05)


def test_relative_atoms_zero_gain_probe_raises():
    g = GridIndex(1, 1)
    f = dft_codeword(g, ArrayConfig(8, None))
    probe = grid_angles(GridIndex(5, 1), 8)  # exact codebook null
    # An eavesdropper there trains no channel and learns nothing ...
    smi = smi_sweep(f, grid_angles(g, 8), [probe], 10.0, 4, (0.5,), 200, 0)
    assert smi.shape == (1, 2)
    assert np.all(np.isnan(smi))
    # ... and a receiver there has no channel to equalize on.
    with pytest.raises(ValueError, match="no trained channel"):
        smi_sweep(f, probe, [], 10.0, 4, (0.5,), 200, 0)
