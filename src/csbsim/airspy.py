"""Mobile-eavesdropper trajectory attack against a codebook beamformer.

A ground receiver drives along a lane while the transmitter tracks it with
per-step codewords. The eavesdropper rides a virtual plane parallel to the
array face at distance d, discretized to a G x G grid of plane coordinates,
and plans a finite-horizon trajectory maximizing the summed rate reward
log2(1 + SNR * |gain|^2) under a per-step velocity bound and a minimum
angular separation from the receiver. Planning is exact backward induction
over the (cell, step) state space; states with no permissible successor are
marked -inf and never selected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .array import ArrayConfig, GridIndex, dft_codeword, gains, nearest_grid_index
from .channel_sim import path_power
from .geometry import RectPoint, UavPlaneSpec, rect_to_msph

NEG_INF = float("-inf")


class InfeasibleError(RuntimeError):
    """No permissible trajectory exists (every start state is excluded)."""


class PlannerInternalError(RuntimeError):
    """A planned path breaks a constraint the planner enforces: a planner defect, not bad input."""


@dataclass(frozen=True)
class Scenario:
    """Episode geometry: TX at the origin, RX driving the lane {x=lane_x, z=-h}."""

    array_cfg: ArrayConfig
    theta_tilt: float
    h: float
    lane_x: float
    rx_speed: float
    y_range: tuple[float, float]
    t_s: float
    sigma2: float
    p0: float = 1.0
    r0: float = 1.0

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError(f"h must be positive, got {self.h}")
        if self.lane_x <= 0:
            raise ValueError(f"lane_x must be positive, got {self.lane_x}")
        if self.rx_speed <= 0 or self.t_s <= 0:
            raise ValueError("rx_speed and t_s must be positive")
        if self.y_range[1] <= self.y_range[0]:
            raise ValueError(f"empty y_range {self.y_range}")
        step = self.rx_speed * self.t_s
        if step == 0 or not math.isfinite((self.y_range[1] - self.y_range[0]) / step):
            raise ValueError(f"rx_speed {self.rx_speed} and t_s {self.t_s} give no finite step count")
        if self.sigma2 <= 0 or self.p0 <= 0 or self.r0 <= 0:
            raise ValueError("sigma2, p0, r0 must be positive")

    @property
    def num_steps(self) -> int:
        span = self.y_range[1] - self.y_range[0]
        return round(span / (self.rx_speed * self.t_s)) + 1


@dataclass(frozen=True)
class AttackConstraints:
    uav_plane: UavPlaneSpec
    v_max: float
    epsilon: float
    grid_g: int

    def __post_init__(self):
        if self.v_max <= 0:
            raise ValueError(f"v_max must be positive, got {self.v_max}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.grid_g < 2:
            raise ValueError(f"grid_g must be >= 2, got {self.grid_g}")

    @property
    def step_radius(self) -> float:
        """Max per-step plane-coordinate displacement: v_max*T_s/(2 d tan(beta/2)).

        T_s is supplied by the scenario; this property returns the radius per
        unit T_s and is scaled at use sites.
        """
        spec = self.uav_plane
        return self.v_max / (2 * spec.d * math.tan(spec.beta / 2))


@dataclass(frozen=True)
class Trajectory:
    """Planned episode, one entry per step in each column.

    cells are the eavesdropper's (grid u, grid v) cells; u, v, theta, phi
    and r their plane coordinates, angles and range. rx is the receiver's
    track, rx_state_at(scenario, t) per step: (beam grid, (theta, phi), r).
    reward is the eavesdropper's rate under the step's beam (index 0 is not
    counted in total_reward), secrecy_rate the RX rate minus reward, unclamped.
    """

    cells: tuple[tuple[int, int], ...]
    total_reward: float
    u: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    r: np.ndarray
    rx: tuple[tuple[GridIndex, tuple[float, float], float], ...]
    reward: np.ndarray
    secrecy_rate: np.ndarray


def rx_state_at(scenario: Scenario, t: int):
    """Receiver beam grid index, true angles, and range at step t.

    The receiver is at (lane_x, y_start + speed*t*T_s, -h); angles come from
    the modified spherical transform with the scenario's tilt, and the beam
    index is the nearest codebook grid point.
    """
    if not 0 <= t < scenario.num_steps:
        raise ValueError(f"step {t} outside episode of {scenario.num_steps} steps")
    y = scenario.y_range[0] + scenario.rx_speed * t * scenario.t_s
    sph = rect_to_msph(RectPoint(scenario.lane_x, y, -scenario.h), scenario.theta_tilt)
    cfg = scenario.array_cfg
    grid = nearest_grid_index(sph.theta, sph.phi, cfg.n_t, cfg.n_rows)
    return grid, (sph.theta, sph.phi), sph.r


class _Tables:
    """Static cell geometry plus per-step beams, rewards, and feasibility.

    value_iteration builds one per plan and hands it to extract_trajectory
    with the values; the trajectory keeps only rx, each step's
    rx_state_at(scenario, t). The plane is tilted by scenario.theta_tilt.
    offsets are the per-step moves in lexicographic order, and widths[k]
    the largest |dj| among them in row offset di = k - len(widths) // 2.
    """

    def __init__(self, scenario: Scenario, constraints: AttackConstraints):
        spec = constraints.uav_plane
        g = constraints.grid_g
        self.g = g
        self.scenario = scenario
        self.constraints = constraints
        self.u_grid = -1.0 + 2.0 * np.arange(g) / g
        half = spec.d * math.tan(spec.beta / 2)
        sin_t, cos_t = math.sin(scenario.theta_tilt), math.cos(scenario.theta_tilt)
        uu = self.u_grid[:, None]
        vv = self.u_grid[None, :]
        x = uu * half * sin_t + spec.d * cos_t + 0.0 * vv
        y = np.broadcast_to(vv * half, (g, g))
        z = uu * half * cos_t - spec.d * sin_t + 0.0 * vv
        self.r = np.sqrt(x * x + y * y + z * z)
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = np.arctan(y / x)
            phi = np.arctan(z / x) + scenario.theta_tilt
        fov = spec.beta / 2 + 1e-12
        self.valid = (x > 0) & (np.abs(theta) <= fov) & (np.abs(phi) <= fov)
        self.theta = np.where(self.valid, theta, 0.0)
        self.phi = np.where(self.valid, phi, 0.0)

        # per step: each valid cell's rate under that step's beam, the
        # receiver's own rate, and feasibility (valid geometry and
        # eps-separation from the receiver angles)
        cfg = scenario.array_cfg
        n = scenario.num_steps
        eps2 = constraints.epsilon**2
        snr = path_power(self.r[self.valid], scenario.p0, scenario.r0) / scenario.sigma2
        self.rx = tuple(rx_state_at(scenario, t) for t in range(n))
        beam_of = {grid: b for b, grid in enumerate(dict.fromkeys(s[0] for s in self.rx))}
        f = np.stack([dft_codeword(grid, cfg) for grid in beam_of])
        # |gain| of every valid cell, then of every step's receiver, under
        # every distinct beam, in one call; the cells' columns are squared in place
        rx_theta, rx_phi = np.array([s[1] for s in self.rx]).T
        amp = np.abs(gains(f, np.append(self.theta[self.valid], rx_theta), np.append(self.phi[self.valid], rx_phi)))
        cells = amp.shape[1] - n
        gain2 = amp[:, :cells]
        gain2 *= gain2
        # stored step by step, so each step's (g, g) plane is contiguous,
        # and indexed (u, v, t)
        self.reward = np.full((n, g, g), NEG_INF).transpose(1, 2, 0)
        self.rx_rate = np.empty(n)
        self.feasible = np.empty((n, g, g), dtype=bool).transpose(1, 2, 0)
        for t, (beam_grid, (th_r, ph_r), rx_r) in enumerate(self.rx):
            b = beam_of[beam_grid]
            self.reward[:, :, t][self.valid] = np.log2(1.0 + snr * gain2[b])
            g_rx = amp[b, cells + t]
            snr_rx = path_power(rx_r, scenario.p0, scenario.r0) / scenario.sigma2
            self.rx_rate[t] = math.log2(1 + snr_rx * g_rx * g_rx)
            sep2 = (self.theta - th_r) ** 2 + (self.phi - ph_r) ** 2
            self.feasible[:, :, t] = self.valid & (sep2 > eps2)

        # the moves within the index radius, clamped to g - 1 cells per axis:
        # no farther move lands on the grid
        rad_idx = constraints.step_radius * scenario.t_s * g / 2.0
        lim = int(min(rad_idx, g - 1))
        rows = range(-lim, lim + 1)
        self.widths = [max(dj for dj in range(lim + 1) if di * di + dj * dj <= rad_idx * rad_idx) for di in rows]
        self.offsets = [(di, dj) for di, w in zip(rows, self.widths) for dj in range(-w, w + 1)]


def planner_bytes(grid_g: int, steps: float, rows: int, cols: int) -> float:
    """Peak traced bytes of one plan on a grid_g x grid_g grid over `steps`
    steps with a rows x cols array: per cell and step, the reward, values,
    feasibility and each distinct beam's gain and |gain| (at most one beam
    per step), 41 B; per cell, its azimuth factor (16 B per column) and its
    geometry (80 B); per beam, its row products at each distinct elevation
    (at most one per grid row and one per step) and its codeword twice; and
    1 MB for a block of array.gains. In floats: past their range it is inf."""
    beams = min(float(steps), float(rows * cols))
    per_beam = 16.0 * ((grid_g + steps) * cols + 2.0 * rows * cols)
    return 2.0**20 + float(grid_g) ** 2 * (41.0 * steps + 16.0 * cols + 80.0) + beams * per_beam


def value_iteration(scenario: Scenario, constraints: AttackConstraints) -> tuple[_Tables, np.ndarray]:
    """Finite-horizon backward induction over (cell, step).

    Returns the tables it built and the values H indexed (grid u, grid v,
    time step), stored step by step like the tables' reward and feasible
    arrays, so that each step's plane is contiguous. Terminal-layer values
    are 0; earlier layers satisfy
    H(s, t) = max over permissible successors s' of R(s', t+1) + H(s', t+1),
    with -inf where no successor is permissible. A successor is an in-bounds
    cell at one of the tables' offsets that is feasible at step t+1.

    Each step takes the maximum over the moves by row maxima: for
    w = 1 .. the widest row's half-width, the largest R + H within w columns
    of each cell comes from the one within w - 1 and two shifted maxima,
    and each row offset di then takes one shifted maximum of it at its own
    half-width. A maximum is exact, so H is bit-equal to a maximum taken
    move by move. The tables clamp the moves to g - 1 cells per axis, so any
    radius past the grid plans as the radius (g - 1) sqrt(2) does.
    """
    tab = _Tables(scenario, constraints)
    g, n = tab.g, scenario.num_steps
    lim = len(tab.widths) // 2
    rows_of_width: dict[int, list[int]] = {}
    for di, w in enumerate(tab.widths, -lim):
        rows_of_width.setdefault(w, []).append(di)
    h = np.zeros((n, g, g)).transpose(1, 2, 0)
    for t in range(n - 2, -1, -1):
        cand = tab.reward[:, :, t + 1] + h[:, :, t + 1]
        cand[~tab.feasible[:, :, t + 1]] = NEG_INF
        # row[a, b]: the largest cand[a, b - w .. b + w] on the grid, for
        # w = 0, 1, ... in turn; each row offset di takes it at w = its width
        row = cand.copy()
        best = h[:, :, t]
        best.fill(NEG_INF)
        for w in range(max(tab.widths) + 1):
            if w:
                np.maximum(row[:, w:], cand[:, : g - w], out=row[:, w:])
                np.maximum(row[:, : g - w], cand[:, w:], out=row[:, : g - w])
            for di in rows_of_width.get(w, ()):
                src = slice(max(0, -di), g - max(0, di))
                dst = slice(max(0, di), g + min(0, di))
                np.maximum(best[src], row[dst], out=best[src])
    return tab, h


def extract_trajectory(tab: _Tables, h: np.ndarray) -> Trajectory:
    """Greedy forward walk through value_iteration's tables and values.

    The start is the feasible step-0 cell with maximal finite value; each
    step follows the successor maximizing R + H at the next layer. All ties
    break toward the lexicographically smallest cell. The path's total
    reward is its start value, value_iteration's sum of its rewards; its rx
    is the tables' own receiver track.

    Raises:
        InfeasibleError: if no step-0 cell is both feasible and has a
            permissible continuation.
        PlannerInternalError: if the walked path breaks the velocity bound
            or the feasibility table it was walked on.
    """
    scenario, constraints = tab.scenario, tab.constraints
    g, n = tab.g, scenario.num_steps
    start_vals = np.where(tab.feasible[:, :, 0], h[:, :, 0], NEG_INF)
    if not np.isfinite(start_vals).any():
        raise InfeasibleError("no feasible start state on the plane grid")
    flat = int(np.argmax(start_vals))  # first maximum in C order = lexicographic
    cell = (flat // g, flat % g)
    cells = [cell]
    offsets = np.array(tab.offsets)
    for t in range(n - 1):
        # the offsets are lexicographic, so argmax's first maximum is the smallest cell
        nxt = offsets + cell
        a, b = nxt[((nxt >= 0) & (nxt < g)).all(axis=1)].T
        score = np.where(tab.feasible[a, b, t + 1], tab.reward[a, b, t + 1] + h[a, b, t + 1], NEG_INF)
        k = int(np.argmax(score))
        if score[k] == NEG_INF:
            raise InfeasibleError(f"dead end at step {t} from cell {cell}")
        cell = (int(a[k]), int(b[k]))
        cells.append(cell)

    rad = constraints.step_radius * scenario.t_s
    for t in range(1, n):
        du = tab.u_grid[cells[t][0]] - tab.u_grid[cells[t - 1][0]]
        dv = tab.u_grid[cells[t][1]] - tab.u_grid[cells[t - 1][1]]
        if math.hypot(du, dv) > rad + 1e-12:
            raise PlannerInternalError(f"velocity bound violated at step {t}")
        if not tab.feasible[cells[t][0], cells[t][1], t]:
            raise PlannerInternalError(f"separation violated at step {t}")
    if not tab.feasible[cells[0][0], cells[0][1], 0]:
        raise PlannerInternalError("infeasible start cell")
    a, b = np.array(cells).T
    step_reward = tab.reward[a, b, np.arange(n)]
    return Trajectory(
        cells=tuple(cells),
        total_reward=float(h[cells[0][0], cells[0][1], 0]),
        u=tab.u_grid[a],
        v=tab.u_grid[b],
        theta=tab.theta[a, b],
        phi=tab.phi[a, b],
        r=tab.r[a, b],
        rx=tab.rx,
        reward=step_reward,
        secrecy_rate=tab.rx_rate - step_reward,
    )
