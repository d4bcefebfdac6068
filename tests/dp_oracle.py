"""Independent reference for the attacker planning problem.

Enumerates every velocity-permissible trajectory and keeps the best one,
with the same tie rule as the planner (first in lexicographic order).  It
takes only the per-step reward and feasibility tables from the planner
(``_Tables(...).reward`` and ``.feasible``); its successor rule, every
in-bounds cell within the per-step index radius that is feasible at the
next step, is its own (``successors``).  Suffix values are memoised per
(cell, step), which prunes the walk without changing the argmax; totals are
accumulated back-to-front so they are bit-identical to the planner's fold
over the same reward floats.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from csbsim.airspy import AttackConstraints, Scenario, _Tables
from csbsim.array import ArrayConfig
from csbsim.geometry import UavPlaneSpec


def successors(cell, t: int, feasible: np.ndarray, scenario: Scenario, constraints: AttackConstraints):
    """Cells the eavesdropper may take at step t+1 from cell at step t, ascending.

    A successor is in bounds, within constraints.step_radius * t_s * grid_g / 2
    grid cells of cell (the velocity bound in cell units), and feasible[:, :, t+1].
    """
    g = constraints.grid_g
    rad = constraints.step_radius * scenario.t_s * g / 2
    a, b = cell
    return [
        (aa, bb)
        for aa in range(g)
        for bb in range(g)
        if (aa - a) ** 2 + (bb - b) ** 2 <= rad * rad and feasible[aa, bb, t + 1]
    ]


def brute_force_trajectory(scenario: Scenario, constraints: AttackConstraints):
    """Exhaustive best trajectory, or None when no full-length path exists.

    Returns (cells, total) where cells is a list of (a, b) grid cells, one
    per step, and total is the summed reward of steps 1..N-1.  Ties in total
    reward resolve to the lexicographically smallest cell sequence.
    """
    n = scenario.num_steps
    tab = _Tables(scenario, constraints)
    # memo[(cell, t)] = (suffix_total, suffix_cells) for the best completion
    # from cell at step t, or None when every continuation dead-ends.
    memo: dict[tuple[tuple[int, int], int], tuple[float, list] | None] = {}

    def best_suffix(cell: tuple[int, int], t: int):
        key = (cell, t)
        if key in memo:
            return memo[key]
        if t == n - 1:
            result = (0.0, [cell])
        else:
            result = None
            for succ in successors(cell, t, tab.feasible, scenario, constraints):
                tail = best_suffix(succ, t + 1)
                if tail is None:
                    continue
                total = tab.reward[succ[0], succ[1], t + 1] + tail[0]
                if result is None or total > result[0]:
                    result = (total, [cell] + tail[1])
        memo[key] = result
        return result

    best: tuple[float, list] | None = None
    g = constraints.grid_g
    feas0 = tab.feasible[:, :, 0]
    for a in range(g):
        for b in range(g):
            if not feas0[a, b]:
                continue
            cand = best_suffix((a, b), 0)
            if cand is None:
                continue
            if best is None or cand[0] > best[0]:
                best = cand
    if best is None:
        return None
    assert math.isfinite(best[0])
    return best[1], best[0]


def tiny_instance(seed: int) -> tuple[Scenario, AttackConstraints]:
    """Random 5x5-grid, 4-step planning instance for oracle comparison."""
    rng = np.random.default_rng(seed)
    n_t = int(rng.choice([4, 8]))
    q = rng.choice([1, 2, 0])
    cfg = ArrayConfig(n_t, None if q == 0 else int(q), n_rows=n_t)
    tilt = math.radians(float(rng.uniform(-20.0, 20.0)))
    t_s = 0.025
    speed = float(rng.uniform(5.0, 30.0))
    y0 = float(rng.uniform(-6.0, 6.0))
    span = 3.0 * speed * t_s * float(rng.uniform(0.9, 1.1))
    scenario = Scenario(
        cfg,
        tilt,
        float(rng.uniform(2.0, 12.0)),
        float(rng.uniform(1.0, 6.0)),
        speed,
        (y0, y0 + span),
        t_s,
        float(rng.uniform(0.005, 0.1)),
    )
    assert scenario.num_steps == 4
    plane = UavPlaneSpec(float(rng.uniform(0.5, 2.0)), math.radians(float(rng.uniform(100.0, 160.0))))
    constraints = AttackConstraints(
        plane,
        float(rng.uniform(6.0, 40.0)),
        math.radians(float(rng.uniform(1.0, 8.0))),
        5,
    )
    return scenario, constraints


def moving_instance(seed: int, tied: bool = False) -> tuple[Scenario, AttackConstraints]:
    """tiny_instance(seed) with a speed limit whose index radius, drawn from
    [1, 3), lets the eavesdropper move between cells. tied puts the links
    under noise so strong (sigma2 = 1e40) that every reward is exactly 0:
    every path ties, and the tie rule alone picks the plan."""
    scenario, constraints = tiny_instance(seed)
    radius = float(np.random.default_rng([seed, 1]).uniform(1.0, 3.0))
    plane, g = constraints.uav_plane, constraints.grid_g
    v_max = radius * 4 * plane.d * math.tan(plane.beta / 2) / (scenario.t_s * g)
    constraints = dataclasses.replace(constraints, v_max=v_max)
    assert constraints.step_radius * scenario.t_s * g / 2 >= 1.0
    if tied:
        scenario = dataclasses.replace(scenario, sigma2=1e40)
    return scenario, constraints
