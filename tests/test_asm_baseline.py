"""Antenna-subset baseline tests."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csbsim.array import ArrayConfig, GridIndex, dft_codeword
from csbsim.asm_baseline import AsmConfig, masks_from_keys, random_subset_masks
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


@pytest.mark.parametrize("active", [1, 3, 6])
def test_every_subset_equally_likely(active):
    # each of the C(6, active) subsets (20 for three of six) within a
    # 5-sigma binomial band of its probability over 40 000 draws
    num = 40_000
    masks = random_subset_masks(6, active, num, np.random.default_rng([5, active]))
    assert np.all(masks.sum(axis=1) == active)
    counts = np.bincount(masks @ (1 << np.arange(6)), minlength=64)
    subsets = [k for k in range(64) if bin(k).count("1") == active]
    assert len(subsets) == math.comb(6, active)
    assert counts.sum() == counts[subsets].sum() == num
    p = 1 / len(subsets)
    band = 5 * math.sqrt(p * (1 - p) / num) if p < 1 else 0.0
    assert np.all(np.abs(counts[subsets] / num - p) <= band)


def test_masks_from_keys_flags_ties_beyond_the_threshold():
    keys = np.array([[1, 3, 1, 9], [5, 2, 5, 8], [4, 4, 6, 0], [7, 7, 7, 7]], dtype=np.uint32)
    masks, tied = masks_from_keys(keys, 2)
    # a tie below the threshold keeps exactly two; one at it keeps more
    assert masks.tolist() == [[1, 0, 1, 0], [1, 1, 1, 0], [1, 1, 0, 1], [1, 1, 1, 1]]
    assert tied.tolist() == [False, True, True, True]
    masks, tied = masks_from_keys(keys, 1)
    assert masks.sum(axis=1).tolist() == [2, 1, 1, 4]
    assert tied.tolist() == [True, False, False, True]
    # keeping every entry leaves no key beyond the threshold to tie with
    masks, tied = masks_from_keys(keys, 4)
    assert masks.all() and not tied.any()


class _Words:
    """Stands in for a Generator: bit_generator.random_raw(n) hands out the
    next n of the given 64-bit words and records n."""

    def __init__(self, keys):
        self.bit_generator = self
        self.words = np.asarray(keys, dtype=np.uint32).ravel().view(np.uint64)
        self.requests = []

    def random_raw(self, n):
        self.requests.append(n)
        out, self.words = self.words[:n], self.words[n:]
        assert len(out) == n
        return out


def test_tied_rows_are_drawn_again_until_none_ties():
    # round 1: rows 1 and 2 tie at their threshold; round 2 redraws them in
    # row order and row 1 ties again; round 3 redraws row 1 alone
    keys = [
        [1, 3, 1, 9], [5, 2, 5, 8], [4, 4, 6, 0],
        [6, 6, 6, 6], [10, 20, 30, 0],
        [2, 9, 1, 3],
    ]
    want = [[1, 0, 1, 0], [1, 0, 1, 0], [1, 0, 0, 1]]
    for sample in (random_subset_masks, argpartition_subset_masks):
        rng = _Words(keys)
        masks = sample(4, 2, 3, rng)
        assert masks.dtype == bool and masks.tolist() == want
        assert rng.requests == [6, 4, 2] and len(rng.words) == 0


@pytest.mark.parametrize("size,active,num", [(16, 0, 3), (16, 17, 3), (16, -1, 3), (16, 3, -1), (0, 0, 3)])
def test_random_subset_masks_rejects_bad_counts(size, active, num):
    with pytest.raises(ValueError, match="1 <= active <= size and num >= 0"):
        random_subset_masks(size, active, num, np.random.default_rng(0))


def test_no_draws_give_empty_masks_and_gains():
    masks = random_subset_masks(16, 3, 0, np.random.default_rng(0))
    assert masks.dtype == bool and masks.shape == (0, 16)
    g = GridIndex(1, 2)
    f = dft_codeword(g, ArrayConfig(4, 1))
    dirs = [grid_angles(g, 4), (0.3, -0.2), (-0.5, 0.1)]
    for defense in ("asm", "csb"):
        gains = defense_gains(defense, f, dirs, g, np.random.default_rng(0), 0, 0.5)
        assert gains.shape == (3, 0) and gains.dtype == complex


@pytest.mark.parametrize("size", [16, 256, 4096])
@pytest.mark.parametrize("fraction", ["one", "half", "all"])
def test_threshold_masks_match_index_selection(size, fraction):
    # the threshold sampler keeps the same entries as argpartition on the
    # same 32-bit keys, bitwise, over several seeds
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
