"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
printed lines for passing criteria too). Each test exercises the full
stated scope at the stated tolerance; nothing is subsampled.
"""

import math
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from csbsim.airspy import (
    AttackConstraints,
    InfeasibleError,
    Scenario,
    extract_trajectory,
    value_iteration,
)
from csbsim.array import ArrayConfig, GridIndex, dft_codeword
from csbsim.asm_baseline import AsmConfig, random_subset_masks
from csbsim.channel_sim import sigma2_for_snr, smi_sweep
from csbsim.cli import ExperimentConfig
from csbsim.csb_defense import apn_law, partition_report
from csbsim.geometry import UavPlaneSpec

from dp_oracle import brute_force_trajectory, tiny_instance
from oracles import (
    LinkState,
    array_response,
    beam_gain,
    circulant_shift,
    grid_angles,
    shift_phase_fraction,
    simulate_symbols,
    steering_vector,
)


@contextmanager
def report(k, text):
    try:
        yield
    except BaseException:
        print(f"FAIL [{k:2d}/10] {text}")
        raise
    print(f"PASS [{k:2d}/10] {text}")


def test_criterion_01_shift_gain_rotation_identity():
    with report(1, "gain rotation identity, all grid dirs x shifts x q, < 30 s"):
        start = time.perf_counter()
        worst = 0.0
        for n in (4, 8, 16):
            size = n * n
            idx = np.arange(size).reshape(n, n)
            dirs = [GridIndex(i, j) for i in range(n) for j in range(n)]
            v_all = np.empty((size, size), dtype=complex)
            for d, g in enumerate(dirs):
                th, ph = grid_angles(g, n)
                v_all[d] = array_response(th, ph, n, n).ravel()
            shifts = [(m, k) for m in range(n) for k in range(n)]
            rot = np.empty((size, size), dtype=complex)
            for d, g in enumerate(dirs):
                for s_i, s in enumerate(shifts):
                    rot[d, s_i] = np.exp(-2j * np.pi * float(shift_phase_fraction(s, g, n, n)))
            perms = {s: np.roll(idx, s, axis=(0, 1)).ravel() for s in shifts}
            # the flat permutation map must agree with the shift operator
            rng = np.random.default_rng(n)
            probe = np.arange(size, dtype=float) + 1j
            for _ in range(3):
                s = shifts[int(rng.integers(size))]
                assert np.array_equal(
                    probe[perms[s]].reshape(n, n), circulant_shift(probe.reshape(n, n), s)
                )
            for q in (1, 2, None):
                cfg = ArrayConfig(n, q, n_rows=n)
                f_all = np.empty((size, size), dtype=complex)
                for c, g in enumerate(dirs):
                    f_all[c] = dft_codeword(g, cfg).ravel()
                base = v_all @ f_all.conj().T
                for s_i, s in enumerate(shifts):
                    shifted = v_all @ f_all[:, perms[s]].conj().T
                    err = float(np.abs(shifted - base * rot[:, s_i][:, None]).max())
                    worst = max(worst, err)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-10, f"worst identity error {worst}"
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_02_phase_noise_law_matches_brute_force():
    with report(2, "phase noise law == exhaustive shift histogram, all offsets, < 5 s"):
        start = time.perf_counter()
        n = 16
        for delta_i in range(-8, 9):
            for delta_j in range(-8, 9):
                law = apn_law(delta_i, delta_j, n)
                hist = Counter(
                    (m * delta_j + k * delta_i) % n for m in range(n) for k in range(n)
                )
                assert set(hist) == set(law.support_indices)
                for count in hist.values():
                    assert Fraction(count, n * n) == Fraction(1, len(law.support_indices))
                assert law.prob == 1.0 / len(law.support_indices)
                expected_support = 2 * np.pi * np.array(law.support_indices) / n
                assert np.array_equal(np.asarray(law.support), expected_support)
        assert time.perf_counter() - start < 5.0


def test_criterion_03_partition_matches_indistinguishability_enumeration():
    with report(3, "constellation partition == brute-force indistinguishability"):
        for n in (8, 16):
            for m_order in (2, 4, 8, 16):
                for g in range(n + 1):
                    law = apn_law(g, 0, n)
                    sig = {
                        s: frozenset(
                            (Fraction(s, m_order) + Fraction(k, n)) % 1
                            for k in law.support_indices
                        )
                        for s in range(m_order)
                    }
                    groups = {}
                    for s in range(m_order):
                        groups.setdefault(sig[s], []).append(s)
                    brute = tuple(sorted(tuple(v) for v in groups.values()))
                    rep = partition_report(m_order, g, n)
                    assert tuple(sorted(rep.classes)) == brute
                    assert rep.num_classes == len(brute)
                    assert rep.class_size == len(brute[0])
        # 16-element array, QPSK: only the half-turn offset leaks a bit
        for g in range(17):
            bits = math.log2(partition_report(4, g, 16).num_classes)
            if g == 0 or g == 16:
                assert bits == 2.0
            elif g == 8:
                assert bits == 1.0
            else:
                assert bits == 0.0


def test_criterion_04_one_bit_patterns_are_mirror_symmetric():
    with report(4, "every one-bit 16x16 codeword: |gain| mirror symmetric to 1e-12"):
        n = 16
        cfg = ArrayConfig(n, 1, n_rows=n)
        s = np.sin(np.radians(np.arange(-90, 91)))
        a = np.exp(-1j * np.pi * np.outer(s, np.arange(n)))
        worst = 0.0
        for i in range(n):
            for j in range(n):
                f = dft_codeword(GridIndex(i, j), cfg)
                gain = a @ f.conj() @ a.T  # [phi_idx, theta_idx]
                mag = np.abs(gain)
                worst = max(worst, float(np.abs(mag - mag[::-1, ::-1]).max()))
        assert worst <= 1e-12, f"worst asymmetry {worst}"


def test_criterion_05_unit_shift_moves_mainlobe_phase_thirty_degrees():
    with report(5, "12-element one-bit beam: unit shift = +30 deg mainlobe, -30 deg mirror"):
        n = 12
        cfg = ArrayConfig(n, 1, n_rows=1)
        main, mirror = GridIndex(1, 0), GridIndex(11, 0)
        # one element step against the roll direction advances the mainlobe
        unit = (0, 11)

        def signed_degrees(frac):
            # rotation factor is exp(-j 2 pi frac); map to (-180, 180]
            deg = (-360 * frac) % 360
            return deg - 360 if deg > 180 else deg

        frac_main = shift_phase_fraction(unit, main, n, 1)
        frac_mirror = shift_phase_fraction(unit, mirror, n, 1)
        assert frac_main == Fraction(11, 12)
        assert frac_mirror == Fraction(1, 12)
        assert signed_degrees(frac_main) == Fraction(30)
        assert signed_degrees(frac_mirror) == Fraction(-30)

        f = dft_codeword(main, cfg)
        shifted = circulant_shift(f, unit)
        assert math.sin(grid_angles(main, n)[0]) == pytest.approx(1 / 6, rel=1e-12)
        for grid, expected in ((main, 30.0), (mirror, -30.0)):
            v = array_response(*grid_angles(grid, n), n, 1)
            g0, g1 = beam_gain(v, f), beam_gain(v, shifted)
            change = math.degrees(np.angle(g1 / g0))
            assert change == pytest.approx(expected, abs=1e-10)


def test_criterion_06_shift_defense_is_transparent_to_the_receiver():
    with report(6, "paired-seed SER, on-grid RX, 0-20 dB: identical decisions vs no defense"):
        cfg = ArrayConfig(16, 1)
        rx_dir = grid_angles(GridIndex(3, 0), 16)
        eve_dir = grid_angles(GridIndex(2, 0), 16)
        f = dft_codeword(GridIndex(3, 0), cfg)
        g_rx = abs(beam_gain(array_response(*rx_dir, cfg.n_t, cfg.n_rows), f))
        g_eve = abs(beam_gain(array_response(*eve_dir, cfg.n_t, cfg.n_rows), f))
        errors_seen = 0
        for snr_db in (0, 5, 10, 15, 20):
            rx = LinkState(1.0, sigma2_for_snr(1.0, g_rx, snr_db))
            eve = LinkState(1.0, sigma2_for_snr(1.0, g_eve, 10.0))
            seed = 1000 + snr_db
            plain = simulate_symbols(
                f, rx, rx_dir, eve, eve_dir, "none", 4, 20000, np.random.default_rng(seed)
            )
            defended = simulate_symbols(
                f, rx, rx_dir, eve, eve_dir, "csb", 4, 20000, np.random.default_rng(seed)
            )
            assert np.array_equal(plain.true_idx, defended.true_idx)
            assert np.array_equal(plain.rx_idx, defended.rx_idx)
            errors_seen += int(np.count_nonzero(plain.rx_idx != plain.true_idx))
        assert errors_seen > 0  # the sweep exercises a non-trivial regime


def test_criterion_07_coprime_offset_corrupts_the_eavesdropper():
    with report(7, "unit-gcd offset, QPSK, eve SNR 30 dB: eve SER = 0.75 +/- 0.01"):
        cfg = ArrayConfig(16, 1)
        rx_dir = grid_angles(GridIndex(3, 0), 16)
        eve_dir = grid_angles(GridIndex(2, 0), 16)
        f = dft_codeword(GridIndex(3, 0), cfg)
        g_rx = abs(beam_gain(array_response(*rx_dir, cfg.n_t, cfg.n_rows), f))
        g_eve = abs(beam_gain(array_response(*eve_dir, cfg.n_t, cfg.n_rows), f))
        assert g_eve > 0
        rx = LinkState(1.0, sigma2_for_snr(1.0, g_rx, 20.0))
        eve = LinkState(1.0, sigma2_for_snr(1.0, g_eve, 30.0))
        run = simulate_symbols(
            f, rx, rx_dir, eve, eve_dir, "csb", 4, 100_000, np.random.default_rng(77)
        )
        trials = run.true_idx.size
        eve_ser = np.count_nonzero(run.eve_idx != run.true_idx) / trials
        assert trials >= 100_000
        assert eve_ser == pytest.approx(0.75, abs=0.01), f"eve SER {eve_ser}"


def test_criterion_08_planner_is_exactly_optimal_on_tiny_instances():
    with report(8, "20 random tiny instances: planner total == exhaustive max, < 10 s"):
        start = time.perf_counter()
        checked = 0
        seed = 100
        while checked < 20:
            scenario, constraints = tiny_instance(seed)
            seed += 1
            oracle = brute_force_trajectory(scenario, constraints)
            table, h = value_iteration(scenario, constraints)
            if oracle is None:
                with pytest.raises(InfeasibleError):
                    extract_trajectory(table, h)
                continue
            traj = extract_trajectory(table, h)
            cells, total = oracle
            assert traj.total_reward == total
            assert list(traj.cells) == [tuple(c) for c in cells]
            checked += 1
        assert time.perf_counter() - start < 10.0


def test_criterion_09_lane_crossing_secrecy_stays_nonpositive():
    with report(9, "full-size one-bit lane crossing: unclamped secrecy <= 0 each step, < 60 s"):
        start = time.perf_counter()
        cfg = ArrayConfig(16, 1, n_rows=16)
        tilt = math.radians(15.0)
        scenario = Scenario(cfg, tilt, 8.0, 3.0, 20.0, (-10.0, 10.0), 0.025, 0.01)
        constraints = AttackConstraints(
            UavPlaneSpec(1.0, math.radians(160.0)), 17.0, math.radians(3.0), 64
        )
        assert scenario.num_steps == 41
        traj = extract_trajectory(*value_iteration(scenario, constraints))
        profile = traj.secrecy_rate
        elapsed = time.perf_counter() - start
        assert len(profile) == 41
        assert max(profile) <= 0.0, f"positive secrecy step: {max(profile)}"
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_10_shift_defense_dominates_subset_masking():
    with report(10, "CSB SMI >= ASM SMI at every on-grid direction; RX SNR higher too"):
        cfg = ExperimentConfig(
            rx_theta_deg=math.degrees(math.asin(3.0 / 8.0)), mi_samples=8000, seed=123
        )
        acfg = ArrayConfig(cfg.n_t, cfg.q, n_rows=1)
        rx_dir = (math.radians(cfg.rx_theta_deg), 0.0)
        rx_grid = GridIndex(3, 0)
        f = dft_codeword(rx_grid, acfg)
        g_rx0 = abs(beam_gain(array_response(*rx_dir, cfg.n_t, 1), f))
        asm_cfgs = [AsmConfig(c, cfg.n_t, 1) for c in cfg.asm_c]
        eve_dirs = [(grid_angles(GridIndex(i, 0), cfg.n_t)[0], 0.0) for i in range(cfg.n_t)]
        smi = smi_sweep(f, rx_dir, eve_dirs, cfg.rx_snr_db, cfg.m_order, cfg.asm_c, cfg.mi_samples, cfg.seed)
        for i, (csb, *asms) in enumerate(smi):
            assert not math.isnan(csb)
            for asm_cfg, asm in zip(asm_cfgs, asms):
                assert not math.isnan(asm)
                assert csb + 1e-12 >= asm, f"direction {i}, c={asm_cfg.c}: {csb} < {asm}"

        # mean receive power: shifting preserves it, masking forfeits gain
        v_rx = array_response(*rx_dir, cfg.n_t, 1)
        csb_power = float(
            np.mean(
                [
                    abs(beam_gain(v_rx, circulant_shift(f, (0, k)))) ** 2
                    for k in range(cfg.n_t)
                ]
            )
        )
        assert csb_power == pytest.approx(g_rx0**2, rel=1e-12)
        w_rx = (v_rx * f.conj()).ravel()
        for ci, c in enumerate(cfg.asm_c):
            masks = random_subset_masks(
                f.size, AsmConfig(c, cfg.n_t, 1).active_count, 4000,
                np.random.default_rng([cfg.seed, 55, ci]),
            )
            asm_power = float(np.mean(np.abs(masks @ w_rx) ** 2))
            assert csb_power > asm_power, f"c={c}: {csb_power} <= {asm_power}"
