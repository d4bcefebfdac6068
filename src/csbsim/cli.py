"""Command-line front end: config parsing, experiment orchestration, CSV output.

Subcommands: beam-pattern, smi-sweep, attack, ser, apn-dist. Every run takes
a mandatory --seed; identical config + seed produces byte-identical CSVs
(LF line endings, %.12g float formatting). Exit codes: 0 success, 1 config
error, 2 infeasible scenario, 3 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .airspy import (
    AttackConstraints,
    InfeasibleError,
    Scenario,
    episode_secrecy_profile,
    extract_trajectory,
    rx_state_at,
    trajectory_rewards,
    value_iteration,
)
from .array import ArrayConfig, array_response, beam_gain, beam_pattern, dft_codeword, grid_angle, nearest_grid_index
from .asm_baseline import AsmConfig
from .channel_sim import LinkState, path_power, run_ser_experiment, rx_power_penalty_db, sigma2_for_snr, smi_sweep
from .csb_defense import apn_law, partition_report, psk_mutual_information
from .geometry import UavPlaneSpec, uav_plane_to_rect, msph_angles_of_plane_coord


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    # array
    n_t: int = 16
    n_rows: int | None = None
    q: int | None = 1
    # scenario
    theta_tilt_deg: float = 15.0
    h: float = 8.0
    lane_x: float = 3.0
    rx_speed: float = 20.0
    y_min: float = -10.0
    y_max: float = 10.0
    t_s: float = 0.025
    sigma2: float = 0.01
    p0: float = 1.0
    r0: float = 1.0
    # attack
    d: float = 1.0
    beta_deg: float = 160.0
    v_max: float = 17.0
    epsilon_deg: float = 3.0
    grid_g: int = 64
    # experiment
    m_order: int = 4
    snr_min_db: float = -10.0
    snr_max_db: float = 30.0
    snr_step_db: float = 2.0
    asm_c: tuple[float, ...] = (0.3, 0.5, 0.7)
    num_symbols: int = 20000
    mi_samples: int = 20000
    rx_snr_db: float = 10.0
    target_theta_deg: float = -30.0
    target_phi_deg: float = -42.0
    rx_theta_deg: float = 25.0
    # runtime (CLI flags, never stored in the config file)
    seed: int = 0
    out_dir: str = "out"
    tiny: bool = False

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            entries = value if field.name == "asm_c" else (value,)
            if any(isinstance(x, float) and not math.isfinite(x) for x in entries):
                raise ConfigError(f"{field.name} must be finite, got {value}")
        for name in ("h", "lane_x", "rx_speed", "t_s", "sigma2", "p0", "r0", "d", "v_max", "epsilon_deg"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 < self.beta_deg < 180:
            raise ConfigError(f"beta_deg must be in (0, 180), got {self.beta_deg}")
        if self.grid_g < 2:
            raise ConfigError(f"grid_g must be >= 2, got {self.grid_g}")
        if self.y_max <= self.y_min:
            raise ConfigError(f"empty y range [{self.y_min}, {self.y_max}]")
        if self.m_order < 2 or self.m_order & (self.m_order - 1):
            raise ConfigError(f"m_order must be a power of two >= 2, got {self.m_order}")
        if self.snr_step_db <= 0 or self.snr_max_db < self.snr_min_db:
            raise ConfigError("bad SNR sweep bounds")
        if self.num_symbols < 1 or self.mi_samples < 1:
            raise ConfigError("num_symbols and mi_samples must be >= 1")
        for c in self.asm_c:
            if not 0 < c <= 1:
                raise ConfigError(f"asm_c entries must be in (0, 1], got {c}")
        # the objects the commands build, for the planar (n_rows x n_t) and
        # the linear (1 x n_t) array, so their own checks fail here
        try:
            for rows in (self.n_rows, 1):
                ArrayConfig(self.n_t, self.q, rows)
                for c in self.asm_c:
                    AsmConfig(c, self.n_t, rows)
            self.scenario()
            self.constraints()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def array_config(self) -> ArrayConfig:
        return ArrayConfig(self.n_t, self.q, self.n_rows)

    def scenario(self) -> Scenario:
        return Scenario(
            array_cfg=self.array_config(),
            theta_tilt=math.radians(self.theta_tilt_deg),
            h=self.h,
            lane_x=self.lane_x,
            rx_speed=self.rx_speed,
            y_range=(self.y_min, self.y_max),
            t_s=self.t_s,
            sigma2=self.sigma2,
            p0=self.p0,
            r0=self.r0,
        )

    def constraints(self) -> AttackConstraints:
        return AttackConstraints(
            uav_plane=UavPlaneSpec(self.d, math.radians(self.beta_deg), math.radians(self.theta_tilt_deg)),
            v_max=self.v_max,
            epsilon=math.radians(self.epsilon_deg),
            grid_g=self.grid_g,
        )

    @property
    def snr_sweep(self) -> list[float]:
        out = []
        v = self.snr_min_db
        while v <= self.snr_max_db + 1e-9:
            out.append(round(v, 9))
            v += self.snr_step_db
        return out


_SECTIONS: dict[str, tuple[str, ...]] = {
    "array": ("n_t", "n_rows", "q"),
    "scenario": (
        "theta_tilt_deg", "h", "lane_x", "rx_speed", "y_min", "y_max", "t_s", "sigma2", "p0", "r0",
    ),
    "attack": ("d", "beta_deg", "v_max", "epsilon_deg", "grid_g"),
    "experiment": (
        "m_order", "snr_min_db", "snr_max_db", "snr_step_db", "asm_c", "num_symbols",
        "mi_samples", "rx_snr_db", "target_theta_deg", "target_phi_deg", "rx_theta_deg",
    ),
}

_INT_FIELDS = {"n_t", "grid_g", "m_order", "num_symbols", "mi_samples"}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        if key == "q":
            return None if raw.lower() in ("", "inf", "none") else int(raw)
        if key == "n_rows":
            return None if raw == "" else int(raw)
        if key == "asm_c":
            return tuple(float(p) for p in raw.split(",") if p.strip())
        if key in _INT_FIELDS:
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def _format_value(key: str, value) -> str:
    if value is None:
        return "inf" if key == "q" else ""
    if key == "asm_c":
        return ",".join(repr(c) for c in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def load_config(path: str | None) -> ExperimentConfig:
    """Read a key=value config file; None yields the built-in defaults."""
    if path is None:
        return ExperimentConfig()
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[key] = _parse_value(key, raw)
    return ExperimentConfig(**values)


def dump_config(cfg: ExperimentConfig) -> str:
    """Serialize the file-backed fields; load(dump(cfg)) round-trips exactly."""
    parser = configparser.ConfigParser()
    for section, keys in _SECTIONS.items():
        parser[section] = {key: _format_value(key, getattr(cfg, key)) for key in keys}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _write_csv(path: str, header: str, rows) -> str:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.12g" % float(v)


def cmd_beam_pattern(cfg: ExperimentConfig) -> list[str]:
    """Normalized amplitude maps for the unquantized, 1-bit, and 2-bit beams."""
    step = 5 if cfg.tiny else 1
    deg = np.arange(-90, 91, step)
    th, ph = np.meshgrid(np.radians(deg), np.radians(deg), indexing="ij")
    dirs = np.column_stack([th.ravel(), ph.ravel()])
    target = (math.radians(cfg.target_theta_deg), math.radians(cfg.target_phi_deg))
    paths = []
    for label, q in (("inf", None), ("1", 1), ("2", 2)):
        acfg = dataclasses.replace(cfg, q=q).array_config()
        grid = nearest_grid_index(*target, cfg.n_t, cfg.n_rows)
        amp = beam_pattern(dft_codeword(grid, acfg), dirs)
        rows = (
            (math.degrees(t), math.degrees(p), a)
            for (t, p), a in zip(dirs, amp)
        )
        paths.append(
            _write_csv(
                os.path.join(cfg.out_dir, f"beam_pattern_q{label}.csv"),
                "theta_deg,phi_deg,normalized_amplitude",
                rows,
            )
        )
    return paths


def cmd_smi_sweep(cfg: ExperimentConfig) -> list[str]:
    """Secrecy MI vs. eavesdropper angle on a linear array, CSB vs. ASM-c."""
    rx_dir = (math.radians(cfg.rx_theta_deg), 0.0)
    rx_grid = nearest_grid_index(*rx_dir, cfg.n_t, 1)
    f = dft_codeword(rx_grid, ArrayConfig(cfg.n_t, cfg.q, n_rows=1))
    if cfg.tiny:
        angles = [math.degrees(grid_angle(i, cfg.n_t)) for i in range(cfg.n_t)]
    else:
        angles = [float(a) for a in np.arange(-90, 91)]
    angles.sort()
    smi = smi_sweep(
        f, rx_dir, [(math.radians(a), 0.0) for a in angles],
        cfg.rx_snr_db, cfg.m_order, cfg.asm_c, cfg.mi_samples, cfg.seed,
    )
    # an empty field: no trained channel in that direction
    rows = ([a, *("" if math.isnan(v) else v for v in row)] for a, row in zip(angles, smi))
    header = "eve_theta_deg,csb_smi," + ",".join(f"asm_smi_{c:g}" for c in cfg.asm_c)
    sweep_path = _write_csv(os.path.join(cfg.out_dir, "smi_sweep.csv"), header, rows)

    # exact partition-law markers at the on-grid directions
    rho_rx = 10 ** (cfg.rx_snr_db / 10)
    i_rx = psk_mutual_information(rho_rx, cfg.m_order)
    theory_rows = []
    for i in range(cfg.n_t):
        signed_i = i if i <= cfg.n_t // 2 else i - cfg.n_t
        delta = rx_grid.i - i
        report = partition_report(cfg.m_order, math.gcd(delta, 0), cfg.n_t)
        eve_bits = math.log2(report.num_classes)
        theory_rows.append(
            (
                signed_i,
                math.degrees(grid_angle(i, cfg.n_t)),
                math.gcd(delta, 0),
                eve_bits,
                max(i_rx - eve_bits, 0.0),
            )
        )
    theory_rows.sort(key=lambda r: r[1])
    theory_path = _write_csv(
        os.path.join(cfg.out_dir, "smi_theory.csv"),
        "eve_grid_i,eve_theta_deg,g,eve_bits_max,smi_floor",
        theory_rows,
    )
    return [sweep_path, theory_path]


def _tiny_attack_config(cfg: ExperimentConfig) -> ExperimentConfig:
    span = 3 * cfg.rx_speed * cfg.t_s
    return dataclasses.replace(cfg, grid_g=5, y_min=-span / 2, y_max=span / 2)


def cmd_attack(cfg: ExperimentConfig) -> list[str]:
    """Plan the eavesdropper trajectory for the 1-bit and 2-bit transmitters."""
    run_cfg = _tiny_attack_config(cfg) if cfg.tiny else cfg
    constraints = run_cfg.constraints()
    paths = []
    for q in (1, 2):
        scenario = dataclasses.replace(run_cfg, q=q).scenario()
        table = value_iteration(scenario, constraints)
        traj = extract_trajectory(table, scenario, constraints)
        profile = episode_secrecy_profile(traj, scenario, constraints)
        rewards = trajectory_rewards(traj, scenario, constraints)
        spec = constraints.uav_plane
        rows = []
        for t, coord in enumerate(traj.steps):
            theta, phi = msph_angles_of_plane_coord(coord, spec)
            rows.append(
                (
                    t * scenario.t_s,
                    coord.u,
                    coord.v,
                    math.degrees(theta),
                    math.degrees(phi),
                    rewards[t],
                    profile[t],
                )
            )
        paths.append(
            _write_csv(
                os.path.join(cfg.out_dir, f"attack_trajectory_q{q}.csv"),
                "t_s,u,v,theta_deg,phi_deg,reward,secrecy_rate",
                rows,
            )
        )
    return paths


def cmd_ser(cfg: ExperimentConfig) -> list[str]:
    """SER vs. SNR for {none, csb, asm-c} with the eavesdropper parked on the
    planned trajectory's midpoint cell."""
    run_cfg = _tiny_attack_config(cfg) if cfg.tiny else cfg
    num_symbols = min(cfg.num_symbols, 2000) if cfg.tiny else cfg.num_symbols
    constraints = run_cfg.constraints()
    scenario = run_cfg.scenario()
    table = value_iteration(scenario, constraints)
    traj = extract_trajectory(table, scenario, constraints)
    t_mid = scenario.num_steps // 2
    spec = constraints.uav_plane
    eve_coord = traj.steps[t_mid]
    eve_dir = msph_angles_of_plane_coord(eve_coord, spec)
    rect = uav_plane_to_rect(eve_coord, spec)
    eve_r = math.sqrt(rect.x**2 + rect.y**2 + rect.z**2)
    _, rx_dir, rx_r = rx_state_at(scenario, t_mid)

    acfg = run_cfg.array_config()
    rows, cols = acfg.shape
    rx_grid = nearest_grid_index(*rx_dir, acfg.n_t, acfg.n_rows)
    f = dft_codeword(rx_grid, acfg)
    p_rx = path_power(rx_r, cfg.p0, cfg.r0)
    p_eve = path_power(eve_r, cfg.p0, cfg.r0)
    g_rx0 = abs(beam_gain(array_response(*rx_dir, cols, rows), f))

    defenses = [("none", "none", None), ("csb", "csb", None)] + [(f"asm-{c:g}", "asm", c) for c in cfg.asm_c]
    ser_rows = []
    for si, snr_db in enumerate(cfg.snr_sweep):
        sigma2 = sigma2_for_snr(p_rx, g_rx0, snr_db)
        rx_link = LinkState(p_rx, 0.0, sigma2)
        eve_link = LinkState(p_eve, 0.0, sigma2)
        for label, defense, c in defenses:
            res = run_ser_experiment(
                rx_link,
                rx_dir,
                eve_link,
                eve_dir,
                acfg,
                defense,
                cfg.m_order,
                num_symbols,
                np.random.default_rng([cfg.seed, si]),
                asm_c=c,
            )
            ser_rows.append((snr_db, label, res.rx_ser, res.eve_ser, res.trials))
    ser_path = _write_csv(
        os.path.join(cfg.out_dir, "ser_sweep.csv"),
        "snr_db,defense,rx_ser,eve_ser,trials",
        ser_rows,
    )

    # mean received-power penalty of each defense at the RX, relative to the
    # fixed beam (0 dB); ASM loses gain, the shift defense does not
    labels = [label for label, _, _ in defenses[1:]]
    snr_rows = zip(labels, rx_power_penalty_db(f, rx_dir, cfg.asm_c, cfg.seed))
    snr_path = _write_csv(
        os.path.join(cfg.out_dir, "rx_snr_penalty.csv"),
        "defense,rx_snr_delta_db",
        snr_rows,
    )

    # eavesdropper constellation under the shift defense at the top SNR point
    sigma2 = sigma2_for_snr(p_rx, g_rx0, cfg.snr_sweep[-1])
    _, dump = run_ser_experiment(
        LinkState(p_rx, 0.0, sigma2),
        rx_dir,
        LinkState(p_eve, 0.0, sigma2),
        eve_dir,
        acfg,
        "csb",
        cfg.m_order,
        num_symbols,
        np.random.default_rng([cfg.seed, len(cfg.snr_sweep)]),
        capture_constellation=True,
    )
    const_path = _write_csv(
        os.path.join(cfg.out_dir, "eve_constellation.csv"),
        "re,im,true_symbol_index",
        ((re, im, int(k)) for re, im, k in dump),
    )
    return [ser_path, snr_path, const_path]


def cmd_apn_dist(cfg: ExperimentConfig) -> list[str]:
    """Exact phase-noise support and probabilities for each gcd value."""
    rows = []
    for g in range(cfg.n_t + 1):
        law = apn_law(g, 0, cfg.n_t)
        for phase in law.support:
            rows.append((g, math.degrees(phase), law.prob))
    path = _write_csv(
        os.path.join(cfg.out_dir, "apn_dist.csv"), "g,phase_deg,probability", rows
    )
    return [path]


_COMMANDS = {
    "beam-pattern": cmd_beam_pattern,
    "smi-sweep": cmd_smi_sweep,
    "attack": cmd_attack,
    "ser": cmd_ser,
    "apn-dist": cmd_apn_dist,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors (exit 1)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_seed(raw: str) -> int:
    value = int(raw)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="csbsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file (defaults built in)")
        p.add_argument("--seed", type=_parse_seed, required=True, help="mandatory 64-bit seed")
        p.add_argument("--out", default="out", help="output directory for CSV files")
        p.add_argument("--tiny", action="store_true", help="oracle-scale instance sizes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = dataclasses.replace(cfg, seed=args.seed, out_dir=args.out, tiny=args.tiny)
        os.makedirs(cfg.out_dir, exist_ok=True)
        written = _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
