"""Tests for the mobile-eavesdropper planning module.

The planner is checked against an independent exhaustive-search oracle on
small random instances, and its behaviour on the full-size scenario is
pinned through frozen kinematics, a Bellman consistency sweep, and two
mirror-lobe tracking regimes:

* a slow central sweep where chasing the one-bit conjugate lobe is
  velocity-feasible and the optimal path shadows it cell for cell, and
* a fast lane crossing where the lobe sweeps too wide and the planner
  provably earns more by hugging the close-range region instead.
"""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csbsim import airspy
from csbsim.airspy import (
    AttackConstraints,
    InfeasibleError,
    PlannerInternalError,
    Scenario,
    _Tables,
    extract_trajectory,
    planner_bytes,
    rx_state_at,
    value_iteration,
)
from csbsim.array import ArrayConfig, dft_codeword, gains, grid_angle
from csbsim.channel_sim import path_power
from csbsim.cli import ExperimentConfig
from csbsim.geometry import UavPlaneSpec, rect_to_msph

from dp_oracle import brute_force_trajectory, successors, tiny_instance
from oracles import (
    array_response,
    offset_values,
    beam_gain,
    direct_gains,
    msph_angles_of_plane_coord,
    secrecy_rate,
    uav_plane_to_rect,
)

CFG = ArrayConfig(16, 1, n_rows=16)
TILT = math.radians(15.0)
PLANE = UavPlaneSpec(1.0, math.radians(160.0))


def lane_scenario(rx_speed=20.0, y_range=(-10.0, 10.0)):
    return Scenario(CFG, TILT, 8.0, 3.0, rx_speed, y_range, 0.025, 0.01)


def lane_constraints(v_max=17.0, epsilon_deg=3.0, grid_g=64):
    return AttackConstraints(PLANE, v_max, math.radians(epsilon_deg), grid_g)


def index_radius(scenario, constraints):
    """Per-step cell displacement bound implied by the speed limit."""
    return constraints.step_radius * scenario.t_s * constraints.grid_g / 2.0


def plane_cell_angles(scenario, constraints):
    """(theta, phi) arrays over the plane grid, NaN where off the array's view."""
    g = constraints.grid_g
    theta = np.full((g, g), np.nan)
    phi = np.full((g, g), np.nan)
    for a in range(g):
        for b in range(g):
            coord = (-1.0 + 2.0 * a / g, -1.0 + 2.0 * b / g)
            try:
                ang = msph_angles_of_plane_coord(coord, constraints.uav_plane, scenario.theta_tilt)
            except ValueError:
                continue
            theta[a, b] = ang[0]
            phi[a, b] = ang[1]
    return theta, phi


def nearest_feasible_cell(theta_t, phi_t, feasible, theta, phi):
    d2 = (theta - theta_t) ** 2 + (phi - phi_t) ** 2
    d2[~feasible] = np.inf
    return divmod(int(np.nanargmin(d2)), d2.shape[1])


class TestScenario:
    def test_step_count_for_lane_crossing(self):
        assert lane_scenario().num_steps == 41

    def test_step_count_degenerates_to_one(self):
        assert lane_scenario(y_range=(0.0, 0.01)).num_steps == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h": 0.0},
            {"lane_x": -1.0},
            {"rx_speed": 0.0},
            {"t_s": 0.0},
            {"y_range": (2.0, 2.0)},
            {"sigma2": 0.0},
        ],
    )
    def test_rejects_degenerate_parameters(self, kwargs):
        base = dict(
            array_cfg=CFG, theta_tilt=TILT, h=8.0, lane_x=3.0,
            rx_speed=20.0, y_range=(-10.0, 10.0), t_s=0.025, sigma2=0.01,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            Scenario(**base)

    @pytest.mark.parametrize("rx_speed,t_s", [(20.0, 1e-320), (1e-10, 1e-320)])
    def test_rejects_step_count_past_float_range(self, rx_speed, t_s):
        # 20 m over 2e-319 m per step overflows to inf; 1e-10 * 1e-320 underflows to 0
        with pytest.raises(ValueError, match="no finite step count"):
            Scenario(CFG, TILT, 8.0, 3.0, rx_speed, (-10.0, 10.0), t_s, 0.01)
        # a huge but finite step count is the planner size cap's business
        assert Scenario(CFG, TILT, 8.0, 3.0, 20.0, (-10.0, 10.0), 1e-300, 0.01).num_steps > 10**299


class TestConstraints:
    @pytest.mark.parametrize("v_max,eps,g", [(0.0, 0.05, 64), (17.0, 0.0, 64), (17.0, 0.05, 1)])
    def test_rejects_degenerate_parameters(self, v_max, eps, g):
        with pytest.raises(ValueError):
            AttackConstraints(PLANE, v_max, eps, g)

    def test_step_radius_value(self):
        cons = lane_constraints()
        expected = 17.0 / (2.0 * 1.0 * math.tan(math.radians(80.0)))
        assert cons.step_radius == pytest.approx(expected, rel=1e-12)
        assert cons.step_radius == pytest.approx(1.498779336021953, rel=1e-12)


class TestReceiverKinematics:
    def test_endpoints_and_midpoint(self):
        sc = lane_scenario()
        grid0, ang0, r0 = rx_state_at(sc, 0)
        assert (grid0.i, grid0.j) == (8, 9)
        assert ang0[0] == pytest.approx(-1.2793395323170296, abs=1e-12)
        assert ang0[1] == pytest.approx(-0.950226268725175, abs=1e-12)
        assert r0 == pytest.approx(13.152946437965905, rel=1e-12)

        grid_mid, ang_mid, r_mid = rx_state_at(sc, 20)
        assert (grid_mid.i, grid_mid.j) == (0, 9)
        assert ang_mid[0] == 0.0
        assert r_mid == pytest.approx(math.sqrt(3.0**2 + 8.0**2), rel=1e-12)

        grid_end, ang_end, _ = rx_state_at(sc, 40)
        assert (grid_end.i, grid_end.j) == (8, 9)
        assert ang_end[0] == pytest.approx(-ang0[0], abs=1e-12)

    @pytest.mark.parametrize("t", [-1, 41])
    def test_step_outside_episode_raises(self, t):
        with pytest.raises(ValueError, match="outside"):
            rx_state_at(lane_scenario(), t)


class TestRewardOp:
    def test_matches_channel_formula_at_plane_centre(self):
        sc, cons = lane_scenario(), lane_constraints()
        a = b = cons.grid_g // 2
        coord = (-1.0 + 2.0 * a / cons.grid_g, -1.0 + 2.0 * b / cons.grid_g)
        sph = rect_to_msph(uav_plane_to_rect(coord, cons.uav_plane, sc.theta_tilt), sc.theta_tilt)
        f = dft_codeword(rx_state_at(sc, 7)[0], sc.array_cfg)
        v_eve = array_response(sph.theta, sph.phi, sc.array_cfg.n_t, sc.array_cfg.n_rows)
        snr = path_power(sph.r, sc.p0, sc.r0) / sc.sigma2
        expected = math.log2(1.0 + snr * abs(beam_gain(v_eve, f)) ** 2)
        assert _Tables(sc, cons).reward[a, b, 7] == pytest.approx(expected, rel=1e-12)


    def test_every_step_matches_its_beam_evaluated_directly(self):
        sc, cons = lane_scenario(), lane_constraints()
        tab = _Tables(sc, cons)
        theta, phi = tab.theta[tab.valid], tab.phi[tab.valid]
        snr = path_power(tab.r[tab.valid], sc.p0, sc.r0) / sc.sigma2
        beams = [rx_state_at(sc, t)[0] for t in range(sc.num_steps)]
        assert len(set(beams)) > 5
        for t, grid in enumerate(beams):
            g = np.abs(direct_gains(dft_codeword(grid, sc.array_cfg), theta, phi))
            assert_allclose(tab.reward[:, :, t][tab.valid], np.log2(1.0 + snr * g * g), rtol=1e-12, atol=0)
        assert np.all(tab.reward[~tab.valid] == -np.inf)

    def test_one_gain_call_covers_every_cell(self, monkeypatch):
        # every distinct beam's gains come from one call, over the valid cells
        # followed by each step's receiver direction
        sizes = []

        def counting_gains(f, thetas, phis):
            sizes.append(len(thetas))
            return gains(f, thetas, phis)

        monkeypatch.setattr(airspy, "gains", counting_gains)
        sc = lane_scenario()
        tab = _Tables(sc, lane_constraints())
        assert sizes == [int(tab.valid.sum()) + sc.num_steps]


class TestActionSpace:
    def test_interior_cell_has_five_moves(self):
        # index radius 1.199 covers the four rook moves and staying put
        sc, cons = lane_scenario(), lane_constraints()
        tab = _Tables(sc, cons)
        assert tab.offsets == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
        moves = successors((32, 32), 7, tab.feasible, sc, cons)
        assert moves == [(31, 32), (32, 31), (32, 32), (32, 33), (33, 32)]

    def test_moves_are_feasible_and_within_speed_limit(self):
        sc, cons = lane_scenario(), lane_constraints()
        rad = index_radius(sc, cons)
        tab, h = value_iteration(sc, cons)
        cells = extract_trajectory(tab, h).cells
        assert len(cells) == sc.num_steps
        assert tab.feasible[(*cells[0], 0)]
        for t in range(sc.num_steps - 1):
            (a, b), (sa, sb) = cells[t], cells[t + 1]
            assert math.hypot(sa - a, sb - b) <= rad + 1e-12
            assert tab.feasible[sa, sb, t + 1]

    def test_feasible_cells_mask(self):
        sc, cons = lane_scenario(), lane_constraints()
        feas0 = _Tables(sc, cons).feasible[:, :, 0]
        assert feas0.shape == (64, 64)
        assert int(feas0.sum()) == 2662


class TestSecrecyRate:
    def test_zero_when_eavesdropper_shares_receiver_state(self):
        sc = lane_scenario()
        grid, ang, r = rx_state_at(sc, 7)
        f = dft_codeword(grid, sc.array_cfg)
        assert secrecy_rate(f, ang, r, ang, r, sc) == 0.0

    def test_negative_for_conjugate_lobe_at_half_range(self):
        # the one-bit mirror lobe has the receiver's gain, and half the
        # range gives the eavesdropper a 6 dB power advantage
        sc = Scenario(CFG, 0.0, 8.0, 3.0, 20.0, (-10.0, 10.0), 0.025, 0.01)
        grid, ang, r = rx_state_at(sc, 3)
        f = dft_codeword(grid, sc.array_cfg)
        rate = secrecy_rate(f, ang, r, (-ang[0], -ang[1]), r / 2.0, sc)
        assert rate < 0.0
        assert rate == pytest.approx(-1.860613400399616, rel=1e-9)


class TestPlanner:
    def test_bellman_consistency_sweep(self):
        sc, cons = lane_scenario(), lane_constraints()
        tab, h = value_iteration(sc, cons)
        rng = np.random.default_rng(11)
        feas_cache = {t: tab.feasible[:, :, t] for t in range(sc.num_steps)}
        checked = 0
        while checked < 300:
            t = int(rng.integers(0, sc.num_steps - 1))
            cells = np.argwhere(feas_cache[t])
            a, b = (int(x) for x in cells[int(rng.integers(0, len(cells)))])
            moves = successors((a, b), t, tab.feasible, sc, cons)
            if moves:
                best = max(tab.reward[sa, sb, t + 1] + h[sa, sb, t + 1] for sa, sb in moves)
                assert h[a, b, t] == best
            else:
                assert np.isneginf(h[a, b, t])
            checked += 1

    def test_each_step_plane_is_contiguous(self):
        # the build, the backward induction and the walk each touch one
        # step's (g, g) plane at a time
        sc, cons = lane_scenario(), lane_constraints(grid_g=16)
        tab, h = value_iteration(sc, cons)
        for table in (tab.reward, tab.feasible, h):
            assert table.shape == (16, 16, sc.num_steps)
            assert all(table[:, :, t].flags.c_contiguous for t in range(sc.num_steps))

    def test_terminal_layer_is_zero(self):
        sc, cons = lane_scenario(), lane_constraints()
        _, h = value_iteration(sc, cons)
        assert not h[:, :, sc.num_steps - 1].any()

    def test_matches_exhaustive_oracle_on_tiny_instances(self):
        # a tiny instance's index radius is below 1, so staying put is its only
        # move: each runs again at radius 1.5 (nine moves), with its rewards and
        # under noise so strong that every reward is exactly 0, where every
        # successor ties and the tie rule alone picks the path
        instances = [tiny_instance(seed) for seed in range(8)]
        for sc, cons in instances[:8]:
            wide = dataclasses.replace(cons, v_max=cons.v_max * 1.5 / index_radius(sc, cons))
            instances += [(sc, wide), (dataclasses.replace(sc, sigma2=1e40), wide)]
        feasible_seen = 0
        for sc, cons in instances:
            oracle = brute_force_trajectory(sc, cons)
            tab, h = value_iteration(sc, cons)
            if oracle is None:
                with pytest.raises(InfeasibleError):
                    extract_trajectory(tab, h)
                continue
            traj = extract_trajectory(tab, h)
            cells, total = oracle
            assert list(traj.cells) == [tuple(c) for c in cells]
            assert traj.total_reward == total
            feasible_seen += 1
        assert feasible_seen >= 4

    @pytest.mark.parametrize("radius", [0.5, 1.0, 1.5, 2.4, 3.2, 7.5, 1e6])
    def test_values_bit_equal_the_move_by_move_maximum(self, radius):
        # the row maxima against a maximum taken one move at a time, from
        # staying put up to a radius past the 16-cell grid
        sc = lane_scenario()
        base = lane_constraints(grid_g=16)
        cons = dataclasses.replace(base, v_max=base.v_max * radius / index_radius(sc, base))
        _, h = value_iteration(sc, cons)
        assert np.array_equal(h, offset_values(sc, cons))

    def test_radius_past_the_grid_plans_as_the_grid_diagonal(self):
        # no move longer than g - 1 cells per axis lands on the grid, so any
        # larger radius gives the same values and no oversized move table
        sc = lane_scenario()
        base = lane_constraints(grid_g=16)
        values = []
        for radius in (15 * math.sqrt(2) + 1, 1e6):
            cons = dataclasses.replace(base, v_max=base.v_max * radius / index_radius(sc, base))
            tab, h = value_iteration(sc, cons)
            assert len(tab.offsets) == 31 * 31
            values.append(h)
        assert np.array_equal(*values)

    def test_infeasible_when_separation_covers_the_view(self):
        sc = lane_scenario()
        cons = AttackConstraints(PLANE, 17.0, math.pi, 8)
        tab, h = value_iteration(sc, cons)
        with pytest.raises(InfeasibleError):
            extract_trajectory(tab, h)

    def test_single_step_episode(self):
        sc = lane_scenario(y_range=(0.0, 0.01))
        cons = lane_constraints()
        tab, h = value_iteration(sc, cons)
        assert h.shape == (64, 64, 1)
        assert not h.any()
        traj = extract_trajectory(tab, h)
        first = tuple(int(x) for x in np.argwhere(tab.feasible[:, :, 0])[0])
        assert traj.cells == (first,)
        assert traj.total_reward == 0.0

    def test_extraction_is_deterministic_and_consistent(self):
        sc, cons = lane_scenario(), lane_constraints()
        tab, h = value_iteration(sc, cons)
        traj = extract_trajectory(tab, h)
        again = extract_trajectory(*value_iteration(sc, cons))
        assert again.cells == traj.cells
        assert again.total_reward == traj.total_reward

        rewards = traj.reward
        assert len(rewards) == sc.num_steps
        # the starting cell earns nothing; later entries sum to the total
        assert float(np.sum(rewards[1:])) == pytest.approx(traj.total_reward, rel=1e-12)
        fold = 0.0
        for t in range(sc.num_steps - 1, 0, -1):
            fold = tab.reward[traj.cells[t][0], traj.cells[t][1], t] + fold
        assert fold == traj.total_reward

        start_vals = h[:, :, 0].copy()
        start_vals[~tab.feasible[:, :, 0]] = -np.inf
        assert float(np.max(start_vals)) == traj.total_reward

    def test_episode_profile_matches_pointwise_rates(self):
        sc, cons = lane_scenario(), lane_constraints()
        traj = extract_trajectory(*value_iteration(sc, cons))
        profile = traj.secrecy_rate
        assert len(profile) == sc.num_steps
        for t in (0, 20, 40):
            grid, rx_ang, rx_r = rx_state_at(sc, t)
            a, b = traj.cells[t]
            coord = (-1.0 + 2.0 * a / cons.grid_g, -1.0 + 2.0 * b / cons.grid_g)
            sph = rect_to_msph(uav_plane_to_rect(coord, cons.uav_plane, sc.theta_tilt), sc.theta_tilt)
            f = dft_codeword(grid, sc.array_cfg)
            expected = secrecy_rate(f, rx_ang, rx_r, (sph.theta, sph.phi), sph.r, sc)
            assert profile[t] == pytest.approx(expected, rel=1e-12)

    def test_trajectory_carries_the_receiver_track(self):
        # the tables' own rx_state_at results, one per step, handed on as they are
        sc, cons = lane_scenario(), lane_constraints()
        tab, h = value_iteration(sc, cons)
        traj = extract_trajectory(tab, h)
        assert traj.rx is tab.rx
        assert len(traj.rx) == sc.num_steps
        for t in range(sc.num_steps):
            assert traj.rx[t] == rx_state_at(sc, t)

    def test_ties_break_toward_smallest_cell(self):
        # with H = -R every successor scores 0, so each step must take the
        # lexicographically smallest permissible successor
        sc = lane_scenario(y_range=(-1.0, 1.0))
        cons = lane_constraints(v_max=60.0, grid_g=16)  # index radius 1.06: rook moves
        n = sc.num_steps
        tab = _Tables(sc, cons)
        h = np.where(tab.valid[:, :, None], -tab.reward, 0.0)  # outside coverage: never feasible
        traj = extract_trajectory(tab, h)
        choices = 0
        for t in range(n - 1):
            moves = successors(traj.cells[t], t, tab.feasible, sc, cons)
            assert traj.cells[t + 1] == min(moves)
            choices += len(moves) > 1
        assert choices == n - 1

    def test_self_check_raises_planner_internal_error(self, monkeypatch):
        # a plane grid stretched tenfold after planning makes the walked path
        # break the speed limit, which only corrupt tables can do
        sc = lane_scenario(y_range=(-1.0, 1.0))
        cons = lane_constraints(v_max=60.0, grid_g=16)
        tab, h = value_iteration(sc, cons)
        assert extract_trajectory(tab, h).cells[:2] == ((9, 9), (10, 9))
        monkeypatch.setattr(tab, "u_grid", 10 * tab.u_grid)
        with pytest.raises(PlannerInternalError, match="velocity bound violated at step 1"):
            extract_trajectory(tab, h)
        assert not issubclass(PlannerInternalError, AssertionError)

    def test_trajectory_columns_match_scalar_geometry(self):
        # the planner's vectorised plane map against the scalar transforms
        instances = [(lane_scenario(), lane_constraints())] + [tiny_instance(seed) for seed in range(8)]
        checked = 0
        for sc, cons in instances:
            try:
                traj = extract_trajectory(*value_iteration(sc, cons))
            except InfeasibleError:
                continue
            g = cons.grid_g
            for t, (a, b) in enumerate(traj.cells):
                assert (traj.u[t], traj.v[t]) == (-1.0 + 2.0 * a / g, -1.0 + 2.0 * b / g)
                theta, phi = msph_angles_of_plane_coord((traj.u[t], traj.v[t]), cons.uav_plane, sc.theta_tilt)
                rect = uav_plane_to_rect((traj.u[t], traj.v[t]), cons.uav_plane, sc.theta_tilt)
                assert traj.theta[t] == pytest.approx(theta, abs=1e-12)
                assert traj.phi[t] == pytest.approx(phi, abs=1e-12)
                assert traj.r[t] == pytest.approx(math.hypot(*rect), abs=1e-12)
            checked += 1
        assert checked >= 5


@pytest.mark.parametrize("n_t,grid_g,span", [(16, 5, 1.5), (16, 64, 1e-4), (2, 32, 20.0), (64, 128, 20.0)])
def test_planner_peak_stays_below_its_estimate(traced_peak, n_t, grid_g, span):
    # --tiny's 4-step plan; one step on a 64 x 64 grid, where a block of
    # array.gains is most of the peak; 41 steps; and wide-array's plan on a
    # 128 x 128 grid with a 64 x 64 array, the largest of the tests and the benchmark
    cfg = ExperimentConfig(n_t=n_t, grid_g=grid_g, y_min=-span / 2, y_max=span / 2)
    scenario = cfg.scenario()
    peak = traced_peak(lambda: extract_trajectory(*value_iteration(scenario, cfg.constraints())))
    assert peak < planner_bytes(grid_g, scenario.num_steps, *scenario.array_cfg.shape)


class TestMirrorTracking:
    """How the planner relates to the one-bit conjugate lobe."""

    def mirror_paths(self, sc, cons, tab):
        theta, phi = plane_cell_angles(sc, cons)
        continuous, lobe = [], []
        for t in range(sc.num_steps):
            grid, ang, _ = rx_state_at(sc, t)
            feas = tab.feasible[:, :, t]
            continuous.append(nearest_feasible_cell(-ang[0], -ang[1], feas, theta, phi))
            lth = grid_angle((-grid.i) % sc.array_cfg.n_t, sc.array_cfg.n_t)
            lph = grid_angle((-grid.j) % sc.array_cfg.n_rows, sc.array_cfg.n_rows)
            lobe.append(nearest_feasible_cell(lth, lph, feas, theta, phi))
        return continuous, lobe

    def path_is_velocity_feasible(self, path, sc, cons):
        rad = index_radius(sc, cons)
        return all(
            math.hypot(path[t + 1][0] - path[t][0], path[t + 1][1] - path[t][1]) <= rad + 1e-12
            for t in range(len(path) - 1)
        )

    def path_total(self, path, tab):
        total = 0.0
        for t in range(len(path) - 1, 0, -1):
            total = tab.reward[path[t][0], path[t][1], t] + total
        return total

    def test_slow_sweep_shadows_the_conjugate_lobe(self):
        # 4 m/s receiver over a 4 m span: the conjugate lobe moves slowly
        # enough that chasing it is velocity-feasible, and the planner stays
        # within one cell of the lobe's nearest feasible cell at every step.
        sc = lane_scenario(rx_speed=4.0, y_range=(-2.0, 2.0))
        cons = lane_constraints(epsilon_deg=10.0)
        tab, h = value_iteration(sc, cons)
        continuous, lobe = self.mirror_paths(sc, cons, tab)
        assert self.path_is_velocity_feasible(continuous, sc, cons)
        traj = extract_trajectory(tab, h)
        cheb_lobe = max(
            max(abs(c[0] - m[0]), abs(c[1] - m[1])) for c, m in zip(traj.cells, lobe)
        )
        cheb_cont = max(
            max(abs(c[0] - m[0]), abs(c[1] - m[1])) for c, m in zip(traj.cells, continuous)
        )
        assert cheb_lobe <= 1
        assert cheb_cont <= 2

    def test_fast_crossing_prefers_close_range_over_mirror(self):
        # With the receiver crossing at 20 m/s the conjugate lobe sweeps the
        # whole aperture. Even with a speed budget that makes chasing it
        # feasible, hugging the close-range region earns strictly more.
        sc = lane_scenario()
        cons = lane_constraints(v_max=29.0)
        tab, h = value_iteration(sc, cons)
        continuous, _ = self.mirror_paths(sc, cons, tab)
        assert self.path_is_velocity_feasible(continuous, sc, cons)
        traj = extract_trajectory(tab, h)
        cheb = max(
            max(abs(c[0] - m[0]), abs(c[1] - m[1])) for c, m in zip(traj.cells, continuous)
        )
        assert cheb > 10
        assert traj.total_reward > self.path_total(continuous, tab)
