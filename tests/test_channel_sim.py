"""Link-simulation tests.

The off-grid sweep at the bottom uses the exact SER oracle (exact_ser:
rotated-QPSK decision probabilities under the exact per-shift relative
channels) because the interesting regime sits at SER ~ 1e-8 where
Monte-Carlo cannot resolve anything; the oracle itself is cross-validated
against ser_sweep's rows and a Monte-Carlo run where both are sharp.
"""

import dataclasses
import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csbsim.array import (
    ArrayConfig,
    GridIndex,
    dft_codeword,
    gains,
    nearest_grid_index,
    responses,
)
from csbsim import channel_sim, cli
from csbsim.channel_sim import (
    CONSTELLATION_CAP,
    MASK_BLOCK,
    defense_gains,
    equalize_and_detect,
    path_power,
    rx_power_penalty_db,
    ser_bytes,
    ser_sweep,
    sigma2_for_snr,
    smi_bytes,
    smi_sweep,
)
from csbsim.asm_baseline import AsmConfig, random_subset_masks
from csbsim.csb_defense import apn_law, psk_symbols, shift_gains, smi_theory

from oracles import (
    LinkState,
    array_response,
    beam_gain,
    circulant_shift,
    exact_ser,
    grid_angles,
    shift_phase_factor,
    simulate_symbols,
)

LOCK_INI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "lock", "lock.ini")


# ---------------------------------------------------------------- basics

def _entry_case():
    """A one-bit 8-element linear beam at grid point 1, and the RX and
    eavesdropper directions at grid points 1 and 3."""
    f = dft_codeword(GridIndex(1, 0), ArrayConfig(8, 1, 1))
    return f, grid_angles(GridIndex(1, 0), 8, 1), grid_angles(GridIndex(3, 0), 8, 1)


def test_ser_sweep_entry_checks(monkeypatch):
    # refused before anything is drawn: a negative received power, a noise
    # power of 0 at some point (no RX power to scale it to, or an underflow
    # at 300 dB), and one that overflows to inf (at -3090 dB, or at -400 dB
    # with p_rx = 1e300), with no overflow warning on the way; a dead
    # eavesdropper (p_eve = 0) is an erasure
    f, rx_dir, eve_dir = _entry_case()
    monkeypatch.setattr(channel_sim, "defense_gains", lambda *args: pytest.fail("drew before checking"))
    for p_rx, p_eve, snr_dbs in (
        (-0.1, 1.0, [10.0]), (1.0, -0.1, [10.0]), (0.0, 1.0, [10.0]), (1e-300, 0.0, [0.0, 300.0]),
        (1.0, 1.0, [10.0, -3090.0]), (1e300, 1.0, [-400.0]),
    ):
        with pytest.raises(ValueError):
            ser_sweep(f, rx_dir, eve_dir, p_rx, p_eve, snr_dbs, 4, (), 10, 0)


def test_ser_sweep_refuses_an_empty_snr_list():
    f, rx_dir, eve_dir = _entry_case()
    with pytest.raises(ValueError, match="snr_dbs"):
        ser_sweep(f, rx_dir, eve_dir, 1.0, 1.0, [], 4, (), 10, 0)


def test_constellation_unit_energy():
    with pytest.raises(ValueError):
        psk_symbols(1)
    symbols = psk_symbols(8)
    assert_allclose(np.abs(symbols), 1.0, atol=1e-15)
    assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0)


def test_path_power_inverse_square():
    assert path_power(1.0) == 1.0
    assert path_power(2.0) == pytest.approx(0.25)
    assert path_power(2.0, p0=4.0, r0=2.0) == pytest.approx(4.0)
    assert_allclose(path_power(np.array([1.0, 2.0, 4.0])), [1.0, 0.25, 0.0625])
    # Receiver at (3, 0, -8): 73x weaker than the 1 m reference.
    assert path_power(1.0) / path_power(math.sqrt(73)) == pytest.approx(73.0, rel=1e-12)
    with pytest.raises(ValueError):
        path_power(0.0)
    with pytest.raises(ValueError):
        path_power(np.array([1.0, -2.0]))


def test_sigma2_for_snr():
    assert sigma2_for_snr(1.0, 4.0, 10.0) == pytest.approx(1.6)
    assert sigma2_for_snr(2.0, 1.0, 0.0) == pytest.approx(2.0)


def test_received_magnitude_matched_beam():
    g = GridIndex(2, 5)
    cfg = ArrayConfig(16, None)
    theta, phi = grid_angles(g, 16)
    v = array_response(theta, phi, 16)
    f = dft_codeword(g, cfg)
    y = math.sqrt(9.0) * beam_gain(v, f) * (1 + 0j) + 0.0
    assert abs(y) == pytest.approx(3.0 * 16.0, abs=1e-9)


def test_equalize_and_detect_cases():
    symbols = psk_symbols(4)
    h = 0.3 - 1.1j
    z, idx = equalize_and_detect(h * symbols, h, 4)
    assert_allclose(z, symbols, atol=1e-12)
    assert idx.tolist() == [0, 1, 2, 3]
    # Quarter-turn phase noise moves the decision by one index.
    _, idx = equalize_and_detect(h * symbols * np.exp(1j * np.pi / 2), h, 4)
    assert idx.tolist() == [1, 2, 3, 0]
    # Binary flip.
    assert equalize_and_detect(h * np.exp(1j * np.pi), h, 2)[1] == 1
    # Dead channel is an erasure: no division, a zero sample, index -1.
    z, idx = equalize_and_detect(np.array([1 + 1j, -2.0]), 0, 4)
    assert z.tolist() == [0, 0]
    assert idx.tolist() == [-1, -1]


@pytest.mark.parametrize("rows,cols", [(8, 8), (4, 8), (1, 16)])
@pytest.mark.parametrize("on_grid", [True, False])
def test_defense_gains_match_scalar_oracles(rows, cols, on_grid):
    # Every defense's gains against the per-transmission scalar construction:
    # shift then compensate (CSB), zero the unused elements then rotate by
    # the receiver's phase (ASM), the plain beam (none).
    rng = np.random.default_rng(rows * cols + on_grid)
    f = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    for _ in range(3):
        rx = GridIndex(int(rng.integers(cols)), int(rng.integers(rows)))
        if on_grid:
            grid = [GridIndex(int(rng.integers(cols)), int(rng.integers(rows))) for _ in range(3)]
            dirs = [grid_angles(g, cols, rows) for g in grid]
        else:
            dirs = [tuple(rng.uniform(-1.5, 1.5, size=2)) for _ in range(3)]
        v = np.stack([array_response(theta, phi, cols, rows) for theta, phi in dirs])

        fixed = defense_gains("none", f, dirs, rx)
        assert_allclose(fixed[:, 0], [beam_gain(v_p, f) for v_p in v], rtol=0, atol=1e-12)

        csb = defense_gains("csb", f, dirs, rx)
        assert csb.shape == (3, rows * cols)
        for k in range(rows * cols):
            s = (k // cols, k % cols)
            comp = shift_phase_factor(s, rx, cols, rows).conjugate()
            oracle = [beam_gain(v_p, circulant_shift(f, s)) * comp for v_p in v]
            assert_allclose(csb[:, k], oracle, rtol=0, atol=1e-12)

        c = 0.5
        seed = int(rng.integers(1000))
        asm = defense_gains("asm", f, dirs, rx, np.random.default_rng(seed), 10, c)
        active = AsmConfig(c, cols, rows).active_count
        masks = random_subset_masks(f.size, active, 10, np.random.default_rng(seed))
        for k, mask in enumerate(masks):
            f_asm = np.where(mask.reshape(f.shape), f, 0)
            rot = np.exp(-1j * np.angle(beam_gain(v[0], f_asm)))
            assert_allclose(asm[:, k], [beam_gain(v_p, f_asm) * rot for v_p in v], rtol=0, atol=1e-12)


def test_asm_gains_drawn_in_blocks_match_one_draw():
    # Gains drawn in several mask blocks equal, bitwise, one whole draw of
    # masks from the same stream multiplied block by block as real products
    # on [Re w | Im w] (one product over the whole draw may differ in the
    # last bits, as BLAS splits its sums by the row count). That holds
    # unless a row is redrawn: a block draws its tied rows again before the
    # next block's keys, one whole draw after all of them (a tie at the
    # threshold has probability below 64 / 2^32 per row here). They match the
    # complex product masks @ w within 1e-12 of the largest gain (measured:
    # at most 5.4e-14).
    rows, cols, c, num = 8, 8, 0.3, 2 * MASK_BLOCK + 37
    rx = GridIndex(2, 5)
    f = dft_codeword(rx, ArrayConfig(cols, 1, n_rows=rows))
    dirs = ((0.2, 0.6), (-0.4, 0.1))
    v = np.stack([array_response(theta, phi, cols, rows) for theta, phi in dirs])
    w = (v * np.conj(f)).reshape(len(v), -1)
    w_ri = np.concatenate([w.real, w.imag]).T
    for seed in (0, 9):
        blocked = defense_gains("asm", f, dirs, rx, np.random.default_rng(seed), num, c)
        masks = random_subset_masks(f.size, AsmConfig(c, cols, rows).active_count, num, np.random.default_rng(seed))
        g = np.concatenate([masks[lo:lo + MASK_BLOCK].astype(float) @ w_ri for lo in range(0, num, MASK_BLOCK)]).T
        g = g[:2] + 1j * g[2:]
        assert blocked.shape == (2, num)
        assert np.array_equal(blocked, g * np.exp(-1j * np.angle(g[0])))
        g = np.stack([masks @ w_p for w_p in w])
        want = g * np.exp(-1j * np.angle(g[0]))
        assert_allclose(blocked, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_defense_gains_asm_needs_an_rng():
    # Unknown defenses and a missing asm_c are covered by test_simulate_validation.
    f = dft_codeword(GridIndex(1, 0), ArrayConfig(8, 1, n_rows=1))
    with pytest.raises(ValueError, match="requires asm_c and an rng"):
        defense_gains("asm", f, [(0.1, 0.0)], GridIndex(1, 0), None, 4, 0.5)


def test_rx_power_penalty_matches_exact_means():
    # off-grid receiver: CSB averages every shift's power, and ASM at k of N
    # active elements has mean power p2 |sum w|^2 + (p1 - p2) sum |w|^2,
    # with w = V * conj(F), p1 = k / N and p2 = k (k - 1) / (N (N - 1))
    rx_dir = (0.4, -0.2)
    rx_grid = nearest_grid_index(*rx_dir, 8, 8)
    f = dft_codeword(rx_grid, ArrayConfig(8, 1))
    v = array_response(*rx_dir, 8)
    asm_c = (0.3, 0.5, 0.7, 1.0)
    got = rx_power_penalty_db(f, rx_dir, asm_c)
    assert got.shape == (1 + len(asm_c),)
    p_fixed = abs(beam_gain(v, f)) ** 2
    csb = np.mean([abs(beam_gain(v, circulant_shift(f, (m, n)))) ** 2 for m in range(8) for n in range(8)])
    assert abs(got[0] - 10 * math.log10(csb / p_fixed)) <= 1e-12
    w = (v * np.conj(f)).ravel()
    size = w.size
    for ci, c in enumerate(asm_c[:-1]):
        k = AsmConfig(c, 8, 8).active_count
        p1, p2 = k / size, k * (k - 1) / (size * (size - 1))
        exact = p2 * abs(w.sum()) ** 2 + (p1 - p2) * np.sum(np.abs(w) ** 2)
        assert abs(p_fixed * 10 ** (got[1 + ci] / 10) - exact) <= 1e-12 * exact
    assert abs(got[-1]) <= 1e-12  # c = 1: every element, the fixed beam


def test_rx_power_penalty_with_one_active_element():
    # k = 1 leaves no pair of active elements (p2 = 0): the mean power is
    # sum |w|^2 / N, which on a one-element array (N - 1 = 0) is the fixed
    # beam's own power, 0 dB
    rx_dir = (0.3, 0.1)
    f = dft_codeword(GridIndex(1, 0), ArrayConfig(2, 1, n_rows=1))
    w = array_response(*rx_dir, 2, 1) * np.conj(f)
    got = rx_power_penalty_db(f, rx_dir, (0.5,))
    exact = np.sum(np.abs(w) ** 2) / 2
    assert abs(abs(w.sum()) ** 2 * 10 ** (got[1] / 10) - exact) <= 1e-12 * exact
    one = np.full((1, 1), np.exp(0.7j))
    assert np.all(np.abs(rx_power_penalty_db(one, rx_dir, (1.0,))) <= 1e-12)


# ---------------------------------------------------------------- simulate

def _links(rx_snr_db, eve_snr_db, cfg, rx_dir, eve_dir):
    """The fixed beam steered at rx_dir's grid point, and both links."""
    rows, cols = cfg.shape
    f = dft_codeword(nearest_grid_index(*rx_dir, cfg.n_t, cfg.n_rows), cfg)
    g_rx = abs(beam_gain(array_response(*rx_dir, cols, rows), f))
    g_eve = abs(beam_gain(array_response(*eve_dir, cols, rows), f))
    assert g_eve > 0
    rx = LinkState(1.0, sigma2_for_snr(1.0, g_rx, rx_snr_db))
    eve = LinkState(1.0, sigma2_for_snr(1.0, g_eve, eve_snr_db))
    return f, rx, eve


def _errors(run):
    """(RX, eavesdropper) symbol error counts of a simulate_symbols run."""
    return [np.count_nonzero(run.rx_idx != run.true_idx), np.count_nonzero(run.eve_idx != run.true_idx)]


def _error_rates(run):
    """(RX SER, eavesdropper SER) of a simulate_symbols run."""
    return [e / run.true_idx.size for e in _errors(run)]


def test_simulate_validation():
    cfg = ArrayConfig(8, 1)
    f, rx, eve = _links(10, 10, cfg, grid_angles(GridIndex(1, 0), 8), grid_angles(GridIndex(2, 0), 8))
    with pytest.raises(ValueError):
        simulate_symbols(f, rx, (0, 0), eve, (0.1, 0), "none", 4, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        simulate_symbols(f, rx, (0, 0), eve, (0.1, 0), "jam", 4, 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        simulate_symbols(f, rx, (0, 0), eve, (0.1, 0), "asm", 4, 10, np.random.default_rng(0))


def test_rx_clean_at_20db():
    cfg = ArrayConfig(16, 1)
    rx_dir = grid_angles(GridIndex(3, 0), 16)
    eve_dir = grid_angles(GridIndex(2, 0), 16)
    f, rx, eve = _links(20, 10, cfg, rx_dir, eve_dir)
    run = simulate_symbols(f, rx, rx_dir, eve, eve_dir, "none", 4, 20000, np.random.default_rng(0))
    assert _error_rates(run)[0] < 1e-4


def test_seed_determinism_bitwise():
    cfg = ArrayConfig(16, 1)
    rx_dir = grid_angles(GridIndex(3, 0), 16)
    eve_dir = grid_angles(GridIndex(2, 0), 16)
    f, rx, eve = _links(8, 15, cfg, rx_dir, eve_dir)
    a = simulate_symbols(f, rx, rx_dir, eve, eve_dir, "csb", 4, 5000, np.random.default_rng(31))
    b = simulate_symbols(f, rx, rx_dir, eve, eve_dir, "csb", 4, 5000, np.random.default_rng(31))
    for field_a, field_b in zip(a, b):
        assert np.array_equal(field_a, field_b)


def test_csb_single_symbol_transparency():
    # Shift plus compensation reproduces the undefended received sample.
    cfg = ArrayConfig(16, 2)
    rx_grid = GridIndex(3, 7)
    rx_dir = grid_angles(rx_grid, 16)
    f = dft_codeword(rx_grid, cfg)
    v = array_response(*rx_dir, 16)
    x = np.exp(1j * 2 * np.pi * 3 / 8)
    noise = 0.01 - 0.02j
    y0 = math.sqrt(2.0) * beam_gain(v, f) * x + noise
    y1 = math.sqrt(2.0) * defense_gains("csb", f, [rx_dir], rx_grid)[0] * x + noise
    assert y1.shape == (256,)
    assert_allclose(y1, y0, rtol=0, atol=1e-12)


def test_csb_paired_run_identical_rx_stream():
    # Same seed, defense on vs off: identical decisions at the receiver,
    # symbol by symbol, not just equal error rates.
    cfg = ArrayConfig(16, 1)
    rx_dir = grid_angles(GridIndex(3, 0), 16)
    eve_dir = grid_angles(GridIndex(2, 0), 16)
    f, rx, eve = _links(10, 20, cfg, rx_dir, eve_dir)
    plain = simulate_symbols(f, rx, rx_dir, eve, eve_dir, "none", 4, 20000, np.random.default_rng(7))
    shifted = simulate_symbols(f, rx, rx_dir, eve, eve_dir, "csb", 4, 20000, np.random.default_rng(7))
    assert np.array_equal(plain.true_idx, shifted.true_idx)
    assert np.array_equal(plain.rx_idx, shifted.rx_idx)
    assert np.count_nonzero(plain.rx_idx != plain.true_idx) > 0  # regime is not trivial


def _eve_ser_expectation(law, m_order):
    """High-SNR eavesdropper SER from the phase-noise atoms: an atom interior
    to the correct decision sector is always right, one exactly on the sector
    boundary is right half the time, anything else is always wrong."""
    sector = math.pi / m_order
    p_correct = 0.0
    for k in law.support_indices:
        ang = abs(math.remainder(2 * math.pi * k / law.n_t, 2 * math.pi))
        if ang < sector - 1e-12:
            p_correct += law.prob
        elif abs(ang - sector) <= 1e-12:
            p_correct += law.prob / 2
    return 1.0 - p_correct


@pytest.mark.parametrize(
    "eve_grid,m_order,expected",
    [
        (GridIndex(2, 0), 4, 0.75),   # offset gcd 1: fully scrambled QPSK
        (GridIndex(1, 0), 4, 0.75),   # offset gcd 2: still 0.75 for QPSK
        (GridIndex(11, 0), 4, 0.5),   # offset gcd 8: one bit survives
        (GridIndex(2, 0), 2, 0.5),    # BPSK under full scrambling
    ],
)
def test_eve_ser_matches_atom_expectation(eve_grid, m_order, expected):
    cfg = ArrayConfig(16, 1)
    rx_grid = GridIndex(3, 0)
    rx_dir = grid_angles(rx_grid, 16)
    eve_dir = grid_angles(eve_grid, 16)
    law = apn_law(rx_grid.i - eve_grid.i, rx_grid.j - eve_grid.j, 16)
    pred = _eve_ser_expectation(law, m_order)
    assert pred == pytest.approx(expected, abs=1e-12)
    f, rx, eve = _links(10, 40, cfg, rx_dir, eve_dir)
    n = 40000
    run = simulate_symbols(f, rx, rx_dir, eve, eve_dir, "csb", m_order, n, np.random.default_rng(19))
    sigma = math.sqrt(pred * (1 - pred) / n)
    assert abs(_error_rates(run)[1] - pred) < 3 * sigma + 1e-9


def test_eve_with_zero_power_is_erased():
    # Exactly dead eavesdropper channel: every decision of every defense is
    # an erasure, and the captured samples are zero.
    rx_grid = GridIndex(1, 1)
    f = dft_codeword(rx_grid, ArrayConfig(8, None))
    rx_dir = grid_angles(rx_grid, 8)
    eve_dir = grid_angles(GridIndex(5, 1), 8)
    errors, constellation = ser_sweep(f, rx_dir, eve_dir, 1.0, 0.0, [48.0], 4, (0.5,), 500, 2)
    assert np.all(errors[..., 1] == 500)
    assert_allclose(constellation[:, :2], 0.0)


def test_eve_at_codebook_null_decides_noise():
    # A numerically tiny (but nonzero) trained gain amplifies noise into
    # useless near-uniform decisions rather than an erasure.
    cfg = ArrayConfig(8, None)
    rx_grid = GridIndex(1, 1)
    rx_dir = grid_angles(rx_grid, 8)
    eve_dir = grid_angles(GridIndex(5, 1), 8)  # codeword null, gain ~ 1e-16
    f = dft_codeword(rx_grid, cfg)
    rx = LinkState(1.0, 0.001)
    eve = LinkState(1.0, 0.001)
    run = simulate_symbols(f, rx, rx_dir, eve, eve_dir, "none", 4, 2000, np.random.default_rng(2))
    assert abs(_error_rates(run)[1] - 0.75) < 0.05


def test_constellation_capture_cap_and_content():
    # The capture is the eavesdropper's side of the sweep's own CSB draw (the
    # stream [seed, 0]) at the last SNR point, capped in length, so its
    # decisions reproduce that point's CSB error count.
    cfg = ArrayConfig(8, 1)
    rx_dir = grid_angles(GridIndex(1, 0), 8)
    eve_dir = grid_angles(GridIndex(3, 0), 8)
    f = dft_codeword(GridIndex(1, 0), cfg)
    snr_dbs = [0.0, 10.0]
    errors, dump = ser_sweep(f, rx_dir, eve_dir, 1.0, 0.5, snr_dbs, 4, (), 300, 3)
    assert dump.shape == (300, 3)
    assert set(np.unique(dump[:, 2])) <= {0.0, 1.0, 2.0, 3.0}
    sigma2 = sigma2_for_snr(1.0, abs(beam_gain(array_response(*rx_dir, 8, 8), f)), snr_dbs[-1])
    run = simulate_symbols(
        f, LinkState(1.0, sigma2), rx_dir, LinkState(0.5, sigma2), eve_dir,
        "csb", 4, 300, np.random.default_rng([3, 0]),
    )
    assert np.array_equal(dump[:, 0] + 1j * dump[:, 1], run.eve_equalized)
    assert np.array_equal(dump[:, 2], run.true_idx)
    _, decided = equalize_and_detect(dump[:, 0] + 1j * dump[:, 1], 1.0, 4)
    assert np.count_nonzero(decided != dump[:, 2]) == errors[-1, 1, 1]
    _, big = ser_sweep(f, rx_dir, eve_dir, 1.0, 0.5, [10.0], 4, (), CONSTELLATION_CAP + 500, 3)
    assert big.shape == (CONSTELLATION_CAP, 3)


def test_ser_sweep_pairs_defenses(monkeypatch):
    # At an on-grid RX, CSB's receiver makes the same errors as no defense
    # at every SNR point, while the eavesdropper on the one-bit mirror lobe
    # is scrambled; columns are none, csb, then asm per fraction, each the
    # (RX, eavesdropper) error counts of simulate_symbols on [seed, 0].
    rx_grid = GridIndex(1, 2)
    f = dft_codeword(rx_grid, ArrayConfig(8, 1))
    rx_dir = grid_angles(rx_grid, 8)
    eve_dir = grid_angles(GridIndex(7, 6), 8)
    snr_dbs, asm_c, n, seed = [0.0, 5.0, 10.0], (0.3, 0.7), 2000, 11
    real_gains, draws = channel_sim.defense_gains, []

    def counted_gains(defense, *args):
        draws.append(defense)
        return real_gains(defense, *args)

    monkeypatch.setattr(channel_sim, "defense_gains", counted_gains)
    errors, _ = ser_sweep(f, rx_dir, eve_dir, 1.0, 0.8, snr_dbs, 4, asm_c, n, seed)
    assert draws == ["none", "csb", "asm", "asm"]  # one draw per defense, the constellation's included
    assert errors.shape == (len(snr_dbs), 2 + len(asm_c), 2)
    assert errors.dtype.kind == "i"
    assert np.array_equal(errors[:, 1, 0], errors[:, 0, 0])
    assert np.all(errors[:, 1, 1] > errors[:, 0, 1])
    assert errors[0, 0, 0] > 0  # the sweep exercises a non-trivial regime
    g_rx = abs(beam_gain(array_response(*rx_dir, 8, 8), f))
    for si, snr_db in enumerate(snr_dbs):
        sigma2 = sigma2_for_snr(1.0, g_rx, snr_db)
        links = LinkState(1.0, sigma2), LinkState(0.8, sigma2)
        for col, (defense, c) in enumerate([("none", None), ("csb", None), ("asm", 0.3), ("asm", 0.7)]):
            run = simulate_symbols(
                f, links[0], rx_dir, links[1], eve_dir, defense, 4, n, np.random.default_rng([seed, 0]), c
            )
            assert errors[si, col].tolist() == _errors(run)


def _none_sweep(snr_dbs, n):
    """ser_sweep's (RX, eavesdropper) error counts without a defense, per
    point of snr_dbs (the RX's post-beamforming SNR), at an on-grid RX of an
    8 x 8 one-bit array."""
    rx_grid = GridIndex(1, 2)
    f = dft_codeword(rx_grid, ArrayConfig(8, 1))
    errors, _ = ser_sweep(f, grid_angles(rx_grid, 8), (0.9, -0.4), 1.0, 0.8, snr_dbs, 4, (), n, 5)
    return errors[:, 0]


def test_ser_sweep_none_rows_fall_with_snr():
    # One draw per defense: a lower noise power moves each equalized sample
    # along the ray toward its symbol, inside the symbol's convex decision
    # wedge, so no error count can rise with the SNR, at either receiver.
    errors = _none_sweep(np.arange(-10.0, 21.0, 1.0), 3000)
    assert np.all(np.diff(errors, axis=0) <= 0)
    assert np.all(errors[0] > errors[-1])


def _within_wilson(count, n, p, z):
    """Whether p lies in the z-sigma Wilson interval of count successes in n trials."""
    rate = count / n
    center = (rate + z * z / (2 * n)) / (1 + z * z / n)
    half = z / (1 + z * z / n) * math.sqrt(rate * (1 - rate) / n + z * z / (4 * n * n))
    return abs(p - center) <= half


def test_ser_sweep_none_rx_matches_qpsk_closed_form():
    # QPSK SER at SNR gamma is 2 Q(sqrt(gamma)) - Q(sqrt(gamma))^2; every
    # point's count lies in the 4-sigma Wilson interval around its rate.
    snr_dbs, n = np.arange(-6.0, 11.0, 2.0), 20000
    errors = _none_sweep(snr_dbs, n)
    for snr_db, count in zip(snr_dbs, errors[:, 0]):
        q = 0.5 * math.erfc(math.sqrt(10 ** (snr_db / 10)) / math.sqrt(2))
        assert _within_wilson(count, n, 2 * q - q * q, 4.0), f"{snr_db} dB: {count / n} vs {2 * q - q * q}"


def _ser_run(monkeypatch, cfg):
    """cmd_ser's ser_sweep.csv columns on cfg at seed 0, the arguments it
    passed ser_sweep, and the gains of each ASM draw ser_sweep took (one
    (RX, eavesdropper) x num_symbols array per fraction of asm_c, in order)."""
    seen, asm_draws = [], []

    def sweep_spy(*args):
        seen.append(args)
        return ser_sweep(*args)

    def gains_spy(defense, *args):
        g = defense_gains(defense, *args)
        if defense == "asm":
            asm_draws.append(g)
        return g

    monkeypatch.setattr(cli, "ser_sweep", sweep_spy)
    monkeypatch.setattr(channel_sim, "defense_gains", gains_spy)
    _, columns = cli.cmd_ser(dataclasses.replace(cfg, seed=0))["ser_sweep.csv"]
    [args] = seen
    return columns, args, asm_draws


def _fixed_and_shift_gains(f, rx_dir, eve_dir):
    """The none and csb gain ensembles toward (RX, eavesdropper): the fixed
    beam's gain, and every shift's, compensated for the RX's grid point."""
    rows, cols = f.shape
    thetas, phis = np.array([rx_dir, eve_dir], dtype=float).T
    every_shift = shift_gains(responses(thetas, phis, rows, cols), f, nearest_grid_index(*rx_dir, cols, rows))
    return {"none": gains(f, thetas, phis)[:, None], "csb": every_shift}


def _check_ser_rows(columns, args, ensembles):
    """Assert that every row of a defense in ensembles, at the RX and the
    eavesdropper, lies within a z = 5 Wilson interval of exact_ser over that
    defense's (RX, eavesdropper) gains, on the geometry cmd_ser passed to
    ser_sweep; return the number of rates checked."""
    snr_col, labels, rx_ser, eve_ser, trials = columns
    f, rx_dir, eve_dir, p_rx, p_eve, _, m_order, _, n, _ = args
    h = gains(f, *np.array([rx_dir, eve_dir], dtype=float).T)
    checked = 0
    for snr_db, label, rates in zip(snr_col, labels, zip(rx_ser, eve_ser)):
        if label not in ensembles:
            continue
        sigma2 = sigma2_for_snr(p_rx, abs(h[0]), snr_db)
        for r, (p_r, rate) in enumerate(zip((p_rx, p_eve), rates)):
            exact = exact_ser(ensembles[label][r], h[r], p_r, sigma2, m_order)
            assert _within_wilson(round(rate * n), n, exact, 5.0), f"{snr_db} dB {label} receiver {r}: {rate} vs {exact}"
            checked += 1
    assert np.all(trials == n)
    return checked


@pytest.mark.parametrize(
    "config,changes",
    [
        (None, {}),
        (LOCK_INI, {"tiny": True}),
        (None, {"tiny": True, "m_order": 8}),
        (None, {"tiny": True, "m_order": 8, "theta_tilt_deg": -10.0}),
    ],
    ids=["default", "lock-tiny", "8psk-tiny", "8psk-tilted-tiny"],
)
def test_ser_none_and_csb_rows_within_5_wilson_of_exact(monkeypatch, config, changes):
    # every none and csb row of ser, at the RX and the eavesdropper, against
    # the exact SER over the fixed beam's gain or every shift's; 8-PSK takes
    # the sector integral, and the tilt reaches the cells and the receiver
    # through the scenario alone
    columns, args, _ = _ser_run(monkeypatch, dataclasses.replace(cli.load_config(config), **changes))
    assert args[6] == changes.get("m_order", 4)
    assert _check_ser_rows(columns, args, _fixed_and_shift_gains(*args[:3])) == 4 * len(set(columns[0]))


@pytest.mark.parametrize("m_order", [4, 8])
def test_ser_asm_rows_within_5_wilson_of_exact_over_the_drawn_subsets(monkeypatch, m_order):
    # each asm-c row against the exact SER given the subsets ser_sweep drew
    # for it: the Monte Carlo against the model as implemented, with the
    # receivers equalizing on the fixed beam's phase, so at 8-PSK the RX rows
    # near 1 at high SNR are near 1 exactly too
    columns, args, draws = _ser_run(monkeypatch, dataclasses.replace(cli.load_config(None), tiny=True, m_order=m_order))
    asm_c, n = args[7], args[8]
    assert [g.shape for g in draws] == [(2, n)] * len(asm_c)
    ensembles = {f"asm-{c:g}": g for c, g in zip(asm_c, draws)}
    assert _check_ser_rows(columns, args, ensembles) == 2 * len(asm_c) * len(set(columns[0]))


def test_exact_csb_eve_ser_is_three_quarters_at_unit_gcd():
    # criterion 7's geometry: the eavesdropper one grid point off the RX sees
    # every shift's gain rotated by one of 16 equally likely phases, 3 of
    # them inside the symbol's wedge and 2 on its edges, so QPSK is right
    # 1/4 of the time once the noise cannot move a sample across a wedge
    cfg = ArrayConfig(16, 1)
    rx_grid = GridIndex(3, 0)
    f = dft_codeword(rx_grid, cfg)
    eve_dir = grid_angles(GridIndex(2, 0), 16)
    h = beam_gain(array_response(*eve_dir, 16), f)
    g = defense_gains("csb", f, [eve_dir], rx_grid)[0]
    for snr_db in (30.0, 40.0, 60.0):
        assert exact_ser(g, h, 1.0, sigma2_for_snr(1.0, abs(h), snr_db), 4) == pytest.approx(0.75, abs=1e-12)


def test_asm_rx_keeps_phase_but_pays_amplitude():
    # ASM decisions at the receiver stay mostly correct at high SNR (phase is
    # corrected), but the eavesdropper is not scrambled in phase the way the
    # shift defense scrambles.
    cfg = ArrayConfig(16, 1)
    rx_dir = grid_angles(GridIndex(3, 0), 16)
    eve_dir = grid_angles(GridIndex(2, 0), 16)
    f, rx, eve = _links(20, 20, cfg, rx_dir, eve_dir)
    run = simulate_symbols(f, rx, rx_dir, eve, eve_dir, "asm", 4, 20000, np.random.default_rng(5), asm_c=0.7)
    assert _error_rates(run)[0] < 0.02


@pytest.mark.parametrize(
    "rows,cols,asm_c,num_symbols",
    [(1, 16, (), 50000), (16, 16, (0.3, 0.5, 0.7), 2000), (64, 64, (0.3, 0.5, 0.7), 500), (128, 128, (0.5,), 256)],
)
def test_ser_peak_stays_below_its_estimate(traced_peak, rows, cols, asm_c, num_symbols):
    # many symbols on a linear array with no ASM; the lock's run, the
    # loosest shape measured (0.47 of the estimate, which counts no beam
    # map: with beam-pattern's maps it read 0.17); wide-array's, the largest
    # of the tests and the benchmark, where the ASM mask block is the peak;
    # and one full mask block on a 128 x 128 array, the closest shape
    # measured (0.96 of the estimate)
    rx_dir, eve_dir = (math.radians(25.0), math.radians(-20.0)), (math.radians(-30.0), math.radians(10.0))
    f = dft_codeword(nearest_grid_index(*rx_dir, cols, rows), ArrayConfig(cols, 1, rows))
    snr_dbs = list(range(-10, 31, 2))
    peak = traced_peak(ser_sweep, f, rx_dir, eve_dir, 1.0, 0.5, snr_dbs, 4, asm_c, num_symbols, 0)
    assert peak < ser_bytes(rows, cols, len(snr_dbs), asm_c, num_symbols) < 3 * peak


@pytest.mark.parametrize("n_t,asm_c,mi_samples", [(16, (0.5,), 256), (16, (0.3, 0.5, 0.7), 500), (4096, (), 64)])
def test_smi_peak_stays_below_its_estimate(traced_peak, n_t, asm_c, mi_samples):
    # smi-sweep's 181 angles and its floor: smi-ser's step, the largest of
    # the benchmark; the lock's fractions and samples; and a wide linear
    # array, where every shift's gains toward the 182 directions are the peak
    f = dft_codeword(GridIndex(1), ArrayConfig(n_t, 1, 1))
    eve_dirs = np.column_stack([np.radians(np.arange(-90.0, 91.0)), np.zeros(181)])

    def sweep():
        smi_sweep(f, (math.asin(2 / n_t), 0.0), eve_dirs, 10.0, 4, asm_c, mi_samples, 0)
        smi_theory(1, n_t, 4, 10.0)

    assert traced_peak(sweep) < smi_bytes(n_t, 182, 4, asm_c, mi_samples)


# ---------------------------------------------------------------- off-grid sweep

def _relative_shift_atoms(cfg, theta, phi_ang):
    """Exact per-shift relative channel after nearest-grid compensation."""
    rows, cols = cfg.shape
    rx_grid = nearest_grid_index(theta, phi_ang, cfg.n_t, cfg.n_rows)
    f = dft_codeword(rx_grid, cfg)
    v = array_response(theta, phi_ang, cols, rows)
    base = beam_gain(v, f)
    out = np.empty(rows * cols, dtype=complex)
    k = 0
    for m in range(rows):
        for n in range(cols):
            s = (m, n)
            g = beam_gain(v, circulant_shift(f, s))
            out[k] = g * shift_phase_factor(s, rx_grid, cols, rows).conjugate() / base
            k += 1
    return out


def _off_grid_direction(bi, bj, frac, n=16):
    return math.asin(2 * (bi + frac) / n), math.asin(2 * (bj + frac) / n)


def test_offgrid_oracle_matches_monte_carlo_at_6db():
    cfg = ArrayConfig(16, 1)
    th, ph = _off_grid_direction(3, 2, 0.49)
    atoms = _relative_shift_atoms(cfg, th, ph)
    gamma = 4.0
    pred = exact_ser(atoms, 1.0, 1.0, 1 / gamma, 4)
    f = dft_codeword(nearest_grid_index(th, ph, 16), cfg)
    g0 = abs(beam_gain(array_response(th, ph, 16), f))
    rx = LinkState(1.0, sigma2_for_snr(1.0, g0, 10 * math.log10(gamma)))
    eve = LinkState(1.0, 1.0)
    n = 100000
    run = simulate_symbols(f, rx, (th, ph), eve, (0.5, 0.5), "csb", 4, n, np.random.default_rng(4))
    mc = np.count_nonzero(run.rx_idx != run.true_idx) / n
    sigma = math.sqrt(pred * (1 - pred) / n)
    assert abs(mc - pred) < 4 * sigma


def test_offgrid_unquantized_is_exactly_transparent():
    # The unquantized codeword is an exact eigenvector of circulant shifting,
    # so compensation is perfect at any angle, not just on the grid.
    cfg = ArrayConfig(16, None)
    for bi, bj, frac in ((0, 1, 0.49), (5, 5, 0.49), (3, 2, 0.25)):
        atoms = _relative_shift_atoms(cfg, *_off_grid_direction(bi, bj, frac))
        assert_allclose(atoms, 1.0, atol=1e-10)


GAMMA_15DB = 10 ** 1.5
SER_UNDEFENDED_15DB = exact_ser([1.0], 1.0, 1.0, 1 / GAMMA_15DB, 4)


def test_offgrid_three_bit_within_10x_through_04_cell():
    # Sweep every base cell at diagonal sine offsets up to 0.4 of a cell:
    # 3-bit shifters keep the defended off-grid SER within 10x of the
    # undefended value at 15 dB (worst measured 4.6x).
    cfg = ArrayConfig(16, 3)
    worst = 0.0
    for bi in range(8):
        for bj in range(8):
            for frac in (0.25, 0.4):
                if bi + frac >= 8 or bj + frac >= 8:
                    continue
                atoms = _relative_shift_atoms(cfg, *_off_grid_direction(bi, bj, frac))
                worst = max(worst, exact_ser(atoms, 1.0, 1.0, 1 / GAMMA_15DB, 4) / SER_UNDEFENDED_15DB)
    assert worst <= 10.0


@pytest.mark.parametrize("q", [1, 2, 3])
def test_offgrid_phase_residual_within_half_lattice_step(q):
    cfg = ArrayConfig(16, q)
    bound = math.pi / 2**q
    for bi, bj in ((0, 1), (5, 5), (3, 2), (6, 0), (2, 7)):
        atoms = _relative_shift_atoms(cfg, *_off_grid_direction(bi, bj, 0.49))
        assert np.abs(np.angle(atoms)).max() <= bound


def test_offgrid_one_bit_amplitude_collapse_documented():
    # Known limitation, kept visible: with 1-bit shifters the relative
    # channel amplitude dips far enough that already a quarter-cell offset
    # blows the 10x SER budget at 15 dB (the effect is amplitude-driven, not
    # phase-driven). Finer shifters push the boundary outward; only the
    # unquantized beam is immune everywhere.
    cfg = ArrayConfig(16, 1)
    worst = 0.0
    for bi, bj in ((0, 1), (0, 0), (2, 4), (4, 2)):
        atoms = _relative_shift_atoms(cfg, *_off_grid_direction(bi, bj, 0.25))
        worst = max(worst, exact_ser(atoms, 1.0, 1.0, 1 / GAMMA_15DB, 4) / SER_UNDEFENDED_15DB)
    assert worst > 10.0
