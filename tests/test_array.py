"""Array response, quantization, codebook, and pattern tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from csbsim.array import (
    GAIN_BLOCK,
    UNQUANTIZED,
    ArrayConfig,
    GridIndex,
    array_bytes,
    beam_map_bytes,
    beam_pattern,
    dft_codeword,
    gains,
    grid_angle,
    nearest_grid_index,
    quantize_phase,
    responses,
)
from csbsim.csb_defense import shift_gains

from csbsim.airspy import AttackConstraints, Scenario, _Tables, rx_state_at
from csbsim.cli import ExperimentConfig, cmd_beam_pattern
from csbsim.geometry import UavPlaneSpec

from oracles import array_response, beam_gain, direct_gains, gathered_gains, grid_angles, steering_vector


# ---------------------------------------------------------------- config

def test_array_config_validation():
    with pytest.raises(ValueError):
        ArrayConfig(3)
    with pytest.raises(ValueError):
        ArrayConfig(0)
    with pytest.raises(ValueError):
        ArrayConfig(16, 0)
    with pytest.raises(ValueError):
        ArrayConfig(16, -1)
    # 2^q levels past the float range, or a shift 1 << q that fills memory
    for q in (1024, 2**62):
        with pytest.raises(ValueError):
            ArrayConfig(16, q)
    with pytest.raises(ValueError):
        ArrayConfig(16, 2, 3)
    assert ArrayConfig(16).shape == (16, 16)
    assert ArrayConfig(16, 1, 1).shape == (1, 16)
    assert ArrayConfig(8, None, 4).shape == (4, 8)


# ---------------------------------------------------------------- responses

def test_steering_vector_quarter_turns():
    # azimuth steering along the row, elevation down the column
    s = math.asin(0.5)
    assert_allclose(responses([s], [0.0], 1, 4)[0, 0], [1, -1j, -1, 1j], atol=1e-12)
    assert_allclose(responses([0.0], [s], 4, 1)[0, :, 0], [1, -1j, -1, 1j], atol=1e-12)


def test_array_response_is_outer_product_with_unit_modulus():
    v = responses([0.3, -0.1], [-0.7, 0.2], 4, 8)
    assert v.shape == (2, 4, 8)
    assert_allclose(np.abs(v), 1.0, atol=1e-14)
    assert_allclose(v[0], np.outer(steering_vector(-0.7, 4), steering_vector(0.3, 8)), atol=1e-14)
    assert_allclose(v[1], np.outer(steering_vector(0.2, 4), steering_vector(-0.1, 8)), atol=1e-14)


@pytest.mark.parametrize("rows,cols", [(8, 8), (4, 8), (1, 16)])
def test_responses_equal_stacked_scalar_responses(rows, cols):
    # bitwise: the same factors, multiplied in the same order; some angles
    # repeat, and some sit at the end-fire angles +-pi/2
    rng = np.random.default_rng(rows * cols)
    angles = np.concatenate([rng.uniform(-math.pi / 2, math.pi / 2, 6), [math.pi / 2, -math.pi / 2, 0.0]])
    thetas = np.concatenate([angles, angles[rng.integers(len(angles), size=31)]])
    phis = np.concatenate([angles[::-1], angles[rng.integers(len(angles), size=31)]])
    want = np.stack([array_response(t, p, cols, rows) for t, p in zip(thetas, phis)])
    assert np.array_equal(responses(thetas, phis, rows, cols), want)


def test_on_grid_response_has_rational_phases():
    # At grid direction (i, j) entry (k, l) is exp(-2 pi j (j k + i l) / n).
    n = 8
    i, j = 2, 1
    v = responses([grid_angle(i, n)], [grid_angle(j, n)], n, n)[0]
    k = np.arange(n)[:, None]
    l = np.arange(n)[None, :]
    expected = np.exp(-2j * np.pi * (j * k + i * l) / n)
    assert_allclose(v, expected, atol=1e-12)


def test_grid_angle_signed_halves():
    assert grid_angle(0, 16) == 0.0
    assert grid_angle(4, 16) == pytest.approx(math.asin(0.5))
    assert grid_angle(8, 16) == pytest.approx(math.pi / 2)
    assert grid_angle(15, 16) == pytest.approx(math.asin(-1 / 8))
    assert grid_angle(5, 1) == 0.0


@pytest.mark.parametrize("n", [4, 8, 16])
def test_nearest_grid_index_roundtrip(n):
    for i in range(n):
        for j in range(n):
            theta, phi = grid_angles(GridIndex(i, j), n)
            assert nearest_grid_index(theta, phi, n) == GridIndex(i, j)


def test_nearest_grid_index_ula_pins_elevation():
    g = nearest_grid_index(0.4, 1.2, 16, 1)
    assert g.j == 0


# ---------------------------------------------------------------- quantization

def test_quantize_phase_basic_rounding():
    assert quantize_phase(1.6 * math.pi, 1) == 0.0
    assert quantize_phase(0.6 * math.pi, 1) == pytest.approx(math.pi)
    assert quantize_phase(-0.1, 2) == 0.0
    assert quantize_phase(0.3 * math.pi, 2) == pytest.approx(math.pi / 2)


def test_quantize_phase_ties_go_to_smaller_value():
    # Interior midpoint: tie between 0 and pi resolves to 0.
    assert quantize_phase(math.pi / 2, 1) == 0.0
    # Seam midpoint: tie between pi and 2 pi resolves to the wrapped 0.
    assert quantize_phase(3 * math.pi / 2, 1) == 0.0
    assert quantize_phase(3 * math.pi / 4, 2) == pytest.approx(math.pi / 2)
    assert quantize_phase(7 * math.pi / 4, 2) == 0.0


def test_quantize_phase_array_and_unquantized():
    x = np.array([0.1, 2.0, -0.3])
    assert_allclose(quantize_phase(x, UNQUANTIZED), np.mod(x, 2 * np.pi), atol=1e-15)
    out = quantize_phase(x, 3)
    assert out.shape == x.shape


@given(x=st.floats(-50, 50), q=st.integers(1, 6))
def test_quantize_phase_lands_on_lattice_within_half_step(x, q):
    step = 2 * math.pi / (1 << q)
    y = quantize_phase(x, q)
    assert 0 <= y < 2 * math.pi
    # On the lattice.
    ratio = y / step
    assert abs(ratio - round(ratio)) < 1e-9
    # Within half a step in circular distance.
    d = abs((x - y + math.pi) % (2 * math.pi) - math.pi)
    assert d <= step / 2 + 1e-9


def test_quantization_idempotent_exactly():
    rng = np.random.default_rng(7)
    phases = np.angle(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    for q in (1, 2, 4):
        once = quantize_phase(phases, q)
        twice = quantize_phase(once, q)
        assert np.array_equal(once, twice)


# ---------------------------------------------------------------- codebook

def test_codeword_unquantized_matches_scaled_response():
    cfg = ArrayConfig(8, UNQUANTIZED)
    g = GridIndex(3, 6)
    theta, phi = grid_angles(g, 8)
    cw = dft_codeword(g, cfg)
    assert_allclose(cw, responses([theta], [phi], 8, 8)[0] / 8.0, atol=1e-12)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_codebook_gram_is_scaled_identity(n):
    # Matched gain sqrt(size) on the diagonal, exact nulls elsewhere.
    cfg = ArrayConfig(n, UNQUANTIZED)
    size = n * n
    grid = [GridIndex(i, j) for i in range(n) for j in range(n)]
    thetas, phis = np.array([grid_angles(g, n) for g in grid]).T
    resp = responses(thetas, phis, n, n).reshape(size, size)
    cws = np.stack([dft_codeword(g, cfg).ravel() for g in grid])
    gram = np.abs(np.conj(cws) @ resp.T)
    assert_allclose(gram, math.sqrt(size) * np.eye(size), atol=1e-9)


def test_one_bit_codeword_entries_are_real():
    cw = dft_codeword(GridIndex(5, 11), ArrayConfig(16, 1))
    assert_allclose(cw.imag, 0, atol=1e-15)
    assert_allclose(np.abs(cw), 1 / 16, atol=1e-15)


def test_beam_gain_is_conjugate_inner_product():
    rng = np.random.default_rng(11)
    v = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    f = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    assert beam_gain(v, f) == pytest.approx(np.sum(v * np.conj(f)))
    with pytest.raises(ValueError):
        beam_gain(v, f[:, :4])


def test_matched_gain_magnitudes():
    # Unquantized matched beam collects the full coherent sum.
    cfg = ArrayConfig(16, UNQUANTIZED)
    g = GridIndex(4, 9)
    theta, phi = grid_angles(g, 16)
    v = array_response(theta, phi, 16)
    assert abs(beam_gain(v, dft_codeword(g, cfg))) == pytest.approx(16.0, abs=1e-10)
    # One-bit quantization loses a 2/pi-ish factor but stays dominant.
    g1 = abs(beam_gain(v, dft_codeword(g, ArrayConfig(16, 1))))
    assert 9.0 < g1 < 16.0


# ---------------------------------------------------------------- patterns

def _deg_grid(step):
    deg = np.arange(-90, 91, step, dtype=float)
    return [(math.radians(t), math.radians(p)) for p in deg for t in deg]


def test_pattern_unquantized_unique_maximum():
    dirs = _deg_grid(2)
    amp = beam_pattern(dft_codeword(GridIndex(-5 % 16, -5 % 16), ArrayConfig(16, UNQUANTIZED)), dirs)
    assert int(np.sum(amp > 1 - 1e-9)) == 1


def test_pattern_one_bit_has_mirror_maximum():
    # A symmetric sampling grid must see the sampled peak twice.
    dirs = _deg_grid(2)
    amp = beam_pattern(dft_codeword(GridIndex(-5 % 16, -5 % 16), ArrayConfig(16, 1)), dirs)
    assert int(np.sum(amp > 1 - 1e-9)) >= 2


def test_pattern_two_bit_sidelobes_between_floors():
    # Genuine 2-bit quantization (grid phases off the lattice) raises the
    # sidelobe peak above the unquantized pattern without creating a second
    # mainlobe.
    dirs = _deg_grid(2)
    g = GridIndex(-5 % 16, -5 % 16)
    amp2 = beam_pattern(dft_codeword(g, ArrayConfig(16, 2)), dirs)
    ampi = beam_pattern(dft_codeword(g, ArrayConfig(16, UNQUANTIZED)), dirs)
    tg = math.degrees(grid_angle(-5 % 16, 16))
    arr = np.degrees(np.array(dirs))
    far = (np.abs(arr[:, 0] - tg) > 8) | (np.abs(arr[:, 1] - tg) > 8)
    psl2 = amp2[far].max()
    psli = ampi[far].max()
    assert psl2 < 0.9
    assert psl2 > psli + 0.05


def test_one_bit_mirror_symmetry_pointwise():
    # Real-entried beamformers cannot distinguish (theta, phi) from its
    # negation; check a batch of arbitrary off-grid directions.
    rng = np.random.default_rng(23)
    cfg = ArrayConfig(16, 1)
    f = dft_codeword(GridIndex(3, 14), cfg)
    for _ in range(50):
        theta = rng.uniform(-math.pi / 2, math.pi / 2)
        phi = rng.uniform(-math.pi / 2, math.pi / 2)
        g_fwd = abs(beam_gain(array_response(theta, phi, 16), f))
        g_mir = abs(beam_gain(array_response(-theta, -phi, 16), f))
        assert g_fwd == pytest.approx(g_mir, abs=1e-12)


def test_mirror_gain_example_at_off_grid_target():
    # 16x16 one-bit beam aimed near (-30, -42) degrees: the gain magnitude
    # at (30, 42) equals the gain magnitude at (-30, -42).
    cfg = ArrayConfig(16, 1)
    tgt = (math.radians(-30), math.radians(-42))
    f = dft_codeword(nearest_grid_index(*tgt, 16), cfg)
    fwd = abs(beam_gain(array_response(*tgt, 16), f))
    mir = abs(beam_gain(array_response(-tgt[0], -tgt[1], 16), f))
    assert fwd > 0
    assert fwd == pytest.approx(mir, abs=1e-12)


@pytest.mark.parametrize("rows,cols", [(8, 8), (4, 8), (1, 16)])
def test_gains_match_pointwise_beam_gain(rows, cols):
    rng = np.random.default_rng(rows + cols)
    f = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    on_grid = [grid_angles(GridIndex(i, j), cols, rows) for i in range(cols) for j in range(rows)]
    off_grid = rng.uniform(-math.pi / 2, math.pi / 2, size=(20, 2))
    thetas, phis = np.array(on_grid + [tuple(d) for d in off_grid]).T
    expected = [beam_gain(array_response(t, p, cols, rows), f) for t, p in zip(thetas, phis)]
    assert_allclose(gains(f, thetas, phis), expected, rtol=0, atol=1e-12)


def _planner_cells():
    """The planner's valid cells on a 64 x 64 one-bit array, under two codewords."""
    cfg = ArrayConfig(64, 1)
    tilt = math.radians(15.0)
    sc = Scenario(cfg, tilt, 8.0, 3.0, 20.0, (-10.0, 10.0), 0.025, 0.01)
    tab = _Tables(sc, AttackConstraints(UavPlaneSpec(1.0, math.radians(160.0)), 17.0, 0.05, 64))
    f = np.stack([dft_codeword(GridIndex(3, 60), cfg), dft_codeword(GridIndex(0, 0), cfg)])
    return f, tab.theta[tab.valid], tab.phi[tab.valid]


def _beam_pattern_mesh():
    """The beam-pattern subcommand's 181 x 181 mesh under its three codewords."""
    rad = np.radians(np.arange(-90, 91))
    th, ph = np.meshgrid(rad, rad, indexing="ij")
    f = np.stack([dft_codeword(GridIndex(2, 14), ArrayConfig(16, q)) for q in (None, 1, 2)])
    return f, th.ravel(), ph.ravel()


def _repeated_angles():
    """Random directions drawing from 40 azimuths and 25 elevations, some pairs repeated."""
    rng = np.random.default_rng(11)
    th = rng.uniform(-math.pi / 2, math.pi / 2, 40)[rng.integers(40, size=3000)]
    ph = rng.uniform(-math.pi / 2, math.pi / 2, 25)[rng.integers(25, size=3000)]
    f = rng.normal(size=(3, 4, 8)) + 1j * rng.normal(size=(3, 4, 8))
    return f, np.concatenate([th, th[:100]]), np.concatenate([ph, ph[:100]])


def _linear_array():
    """A one-row array, on which the elevation factor is the constant 1."""
    rng = np.random.default_rng(12)
    f = rng.normal(size=(2, 1, 16)) + 1j * rng.normal(size=(2, 1, 16))
    return f, rng.uniform(-math.pi / 2, math.pi / 2, 500), rng.uniform(-math.pi / 2, math.pi / 2, 500)


def _ragged_blocks():
    """Random directions, each at an elevation of its own, under a
    2-beam 8 x 16 stack: 3 GAIN_BLOCK / 32 + 1 of them."""
    rng = np.random.default_rng(13)
    f = rng.normal(size=(2, 8, 16)) + 1j * rng.normal(size=(2, 8, 16))
    count = 3 * (GAIN_BLOCK // (2 * 16)) + 1
    return f, rng.uniform(-math.pi / 2, math.pi / 2, count), rng.uniform(-math.pi / 2, math.pi / 2, count)


def _long_elevation_groups():
    """A 2-beam 8 x 16 stack over random azimuths at two elevations, shuffled
    together: one past three whole chunks of directions at the first."""
    rng = np.random.default_rng(14)
    f = rng.normal(size=(2, 8, 16)) + 1j * rng.normal(size=(2, 8, 16))
    count = 3 * (GAIN_BLOCK // 16) + 1
    phis = rng.permutation(np.repeat([0.3, -0.7], [count, 100]))
    return f, rng.uniform(-math.pi / 2, math.pi / 2, len(phis)), phis


def _single_direction():
    """One direction under one 2-bit 16 x 16 codeword."""
    return dft_codeword(GridIndex(5, 3), ArrayConfig(16, 2)), [0.4], [-0.2]


def _wide_planner_beams():
    """The wide-array benchmark's planner: its valid cells (128 x 128 grid)
    under every distinct beam of its 41 steps on a 64 x 64 one-bit array."""
    cfg = ExperimentConfig(n_t=64, q=1, grid_g=128)
    sc = cfg.scenario()
    tab = _Tables(sc, cfg.constraints())
    beams = dict.fromkeys(rx_state_at(sc, t)[0] for t in range(sc.num_steps))
    f = np.stack([dft_codeword(g, sc.array_cfg) for g in beams])
    assert len(f) == 27
    return f, tab.theta[tab.valid], tab.phi[tab.valid]


def _assert_within_gain_bound(f, got, want):
    """Each beam's gains within 8 eps times the sum of its |F| entries."""
    f = np.asarray(f)
    l1 = np.abs(f.reshape(-1, f.shape[-2] * f.shape[-1])).sum(axis=1)
    err = np.abs(got - want).reshape(len(l1), -1).max(axis=1, initial=0.0)
    assert np.all(err <= 8 * np.finfo(float).eps * l1), err / (np.finfo(float).eps * l1)


@pytest.mark.parametrize(
    "directions",
    [
        _planner_cells, _beam_pattern_mesh, _repeated_angles, _linear_array,
        _ragged_blocks, _long_elevation_groups, _single_direction, _wide_planner_beams,
    ],
)
def test_gains_bits_equal_the_gathered_body(directions):
    # within the declared bound, not bit for bit: each elevation's BLAS
    # product sums a direction's terms in an order of its own choosing
    f, thetas, phis = directions()
    got = gains(f, thetas, phis)
    assert got.shape == np.shape(f)[:-2] + (len(thetas),)
    _assert_within_gain_bound(f, got, gathered_gains(f, thetas, phis))


def test_gains_temporaries_do_not_grow_with_directions(traced_peak):
    # three 64 x 64 codewords over the beam-pattern mesh: gathering every
    # direction's elevation products and azimuth factor at once, two
    # (32761, 64) complex arrays per beam, peaked at 98 MB
    rad = np.radians(np.arange(-90, 91))
    th, ph = np.meshgrid(rad, rad, indexing="ij")
    th, ph = th.ravel(), ph.ravel()
    f = np.stack([dft_codeword(GridIndex(2, 14), ArrayConfig(64, q)) for q in (None, 1, 2)])
    assert traced_peak(gains, f, th, ph) < 8e6


@pytest.mark.parametrize("directions", [_planner_cells, _beam_pattern_mesh, _repeated_angles, _linear_array])
def test_gains_match_direct_factors(directions):
    f, thetas, phis = directions()
    got = gains(f, thetas, phis)
    assert got.shape == (len(f), len(thetas))
    for f_b, g_b in zip(f, got):
        want = direct_gains(f_b, thetas, phis)
        assert np.max(np.abs(g_b - want)) <= 1e-12 * np.max(np.abs(want))


def test_gains_of_a_stack_equal_single_calls():
    # within the declared bound, as against the gathered body
    f, thetas, phis = _repeated_angles()
    single = np.stack([gains(f_b, thetas, phis) for f_b in f])
    _assert_within_gain_bound(f, gains(f, thetas, phis), single)
    assert gains(f[0], thetas, phis).shape == (len(thetas),)


@pytest.mark.parametrize("rows,cols", [(2, 2), (16, 16), (1, 1024), (64, 64), (128, 128)])
def test_array_peak_stays_below_its_estimate(traced_peak, rows, cols):
    # a codeword, then every shift's gain toward two directions, as ser takes
    # them; wide-array's 64 x 64 is the largest array of the tests and the
    # benchmark. The first shape may hold numpy.fft's first use (0.18 MB).
    directions = np.radians([[25.0, -20.0], [-30.0, 10.0]])
    grid = nearest_grid_index(*directions[0], cols, rows)

    def kernels():
        f = dft_codeword(grid, ArrayConfig(cols, 1, rows))
        shift_gains(responses(*directions.T, rows, cols), f, grid)

    assert traced_peak(kernels) < array_bytes(rows, cols)


def test_beam_map_growth_stays_below_the_array_estimate(traced_peak):
    # a map over 181 x 181 one-degree directions, as beam-pattern draws it:
    # past the mesh's fixed 2.2 MB, each angle's row products and azimuth
    # factor grow with the columns, 5.8 kB per column on a linear array
    rad = np.radians(np.arange(-90, 91))
    th, ph = np.meshgrid(rad, rad, indexing="ij")
    mesh = np.column_stack([th.ravel(), ph.ravel()])
    peaks = [traced_peak(beam_pattern, dft_codeword(GridIndex(1), ArrayConfig(n, 1, 1)), mesh) for n in (16, 2048)]
    assert peaks[1] - peaks[0] < array_bytes(1, 2048) + beam_map_bytes(2048) - array_bytes(1, 16) - beam_map_bytes(16)


def test_beam_pattern_of_a_stack_normalizes_each_beam():
    # the three codewords peak at different gains: each row is divided by its own
    dirs = _deg_grid(5)
    g = GridIndex(-5 % 16, -5 % 16)
    f = np.stack([dft_codeword(g, ArrayConfig(16, q)) for q in (UNQUANTIZED, 1, 2)])
    maps = beam_pattern(f, dirs)
    assert maps.shape == (3, len(dirs))
    assert (maps.max(axis=1) == 1.0).all()
    for f_b, amp in zip(f, maps):
        assert_allclose(amp, beam_pattern(f_b, dirs), rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        beam_pattern(f, [])


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("rows,cols", [(16, 16), (64, 64), (1, 2048)])
def test_beam_maps_peak_stays_below_the_array_estimate(traced_peak, rows, cols, tiny):
    # beam-pattern's three maps from one call: the 181 x 181 mesh's
    # per-direction tables dominate small arrays, and the three beams' row
    # products a long linear one
    cfg = ExperimentConfig(n_t=cols, n_rows=rows, tiny=tiny, mi_samples=100, grid_g=8)
    assert traced_peak(cmd_beam_pattern, cfg) < array_bytes(rows, cols) + beam_map_bytes(cols)


def test_beam_pattern_rejects_empty():
    f = dft_codeword(GridIndex(0, 0), ArrayConfig(4, None))
    with pytest.raises(ValueError):
        beam_pattern(f, [])
