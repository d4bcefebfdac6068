"""Command-line front end: config parsing and CSV output.

Subcommands: beam-pattern, smi-sweep, attack, ser, apn-dist. Each one is a
few library calls returning {file name: (header, columns)}; once it returns,
main writes each table through _write_csv, the one CSV writer: a header line
of names, then one LF-terminated line per row, with str columns as %s, int
columns as %d, float columns as %.12g, and an empty field for a NaN (an
eavesdropper direction with no trained channel). Every run takes a mandatory
--seed; the same config and seed give byte-identical CSVs. Exit codes: 0
success, 1 config error, 2 infeasible scenario, 3 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import dataclasses
import io
import itertools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .airspy import (
    AttackConstraints,
    InfeasibleError,
    Scenario,
    Trajectory,
    extract_trajectory,
    planner_bytes,
    value_iteration,
)
from .array import (
    ArrayConfig, array_bytes, beam_map_bytes, beam_pattern, dft_codeword, gains, grid_angle, nearest_grid_index,
)
from .asm_baseline import AsmConfig
from .channel_sim import path_power, rx_power_penalty_db, ser_bytes, ser_sweep, sigma2_for_snr, smi_bytes, smi_sweep
from .csb_defense import SnrCeilingError, apn_law, smi_theory
from .geometry import UavPlaneSpec

# Largest array, planner or Monte-Carlo run accepted, in estimated traced
# bytes (array_bytes with beam_map_bytes, planner_bytes, ser_bytes,
# smi_bytes): about 18 times the 59 MB estimated for the wide-array
# benchmark's planner (128 x 128 grid, 41 steps, 64 x 64 array; 23 MB traced).
MAX_BYTES = 2**30


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
    tiny: bool = False

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            entries = value if field.name == "asm_c" else (value,)
            if any(isinstance(x, float) and not math.isfinite(x) for x in entries):
                raise ConfigError(f"{field.name} must be finite, got {value}")
            # config counts reach numpy as int64s; _parse_seed bounds the seed
            if field.name != "seed" and any(isinstance(x, int) and abs(x) >= 2**63 for x in entries):
                raise ConfigError(f"{field.name} must be below 2**63, got {value}")
        # checked here in the config's units; the objects built below check
        # every other field
        for name in ("d", "epsilon_deg"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 < self.beta_deg < 180:
            raise ConfigError(f"beta_deg must be in (0, 180), got {self.beta_deg}")
        if self.m_order < 2 or self.m_order & (self.m_order - 1):
            raise ConfigError(f"m_order must be a power of two >= 2, got {self.m_order}")
        for name in ("snr_min_db", "snr_max_db", "rx_snr_db"):
            try:
                10 ** (getattr(self, name) / 10)  # the linear SNR the experiments compute
            except OverflowError:
                raise ConfigError(
                    f"[experiment] {name} = {getattr(self, name):g} dB is too large: "
                    f"its linear power overflows a float"
                ) from None
        if self.snr_step_db <= 0 or self.snr_max_db < self.snr_min_db:
            raise ConfigError("bad SNR sweep bounds")
        top = max(abs(self.snr_min_db), abs(self.snr_max_db))
        if top + self.snr_step_db == top:
            raise ConfigError(
                f"[experiment] snr_step_db = {self.snr_step_db:g} cannot advance an SNR sweep that reaches {top:g} dB"
            )
        if self.num_symbols < 1 or self.mi_samples < 1:
            raise ConfigError("num_symbols and mi_samples must be >= 1")
        labels = [f"{c:g}" for c in self.asm_c]  # the fractions' CSV column and row labels
        if len(set(labels)) < len(labels):
            shared = next(x for x in labels if labels.count(x) > 1)
            raise ConfigError(f"[experiment] asm_c: fractions {self.asm_c} share the label {shared!r}")
        # the objects the commands build, for the planar (n_rows x n_t) and
        # the linear (1 x n_t) array, so their own checks fail here, named
        # after the config values they were built from
        shapes = (self.n_rows, 1)
        for where, build in (
            ("[array]", lambda: [ArrayConfig(self.n_t, self.q, rows) for rows in shapes]),
            ("[experiment] asm_c", lambda: [AsmConfig(c, self.n_t, rows) for rows in shapes for c in self.asm_c]),
            ("[scenario]", self.scenario),
            ("[attack]", self.constraints),
        ):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        rows, cols = self.array_config().shape
        steps = float(self.scenario().num_steps)
        points = (self.snr_max_db - self.snr_min_db + 1e-9) / self.snr_step_db + 1
        shape, ser = f"a {rows} x {cols} array", (self.asm_c, self.num_symbols)
        # floats the runs form, each checked finite: the peak SNR p0 (r0 / r)^2 /
        # sigma2 times the element count (the array gain's largest square), as
        # every plane cell lies at least d from the array and the lane at least
        # hypot(lane_x, h); the planner's squared range to its farthest cell
        # (u = v = -1); a step's squared elevation separation, below tilt^2;
        # and the squared separation bound epsilon^2 it is compared with
        r_min = min(self.d, math.hypot(self.lane_x, self.h))
        ratio, half = self.r0 / r_min, self.d * math.tan(math.radians(self.beta_deg) / 2)
        # the plane's half-width divides the planner's step radius
        if not half > 0:
            raise ConfigError(
                f"[attack] d = {self.d:.12g}, beta_deg = {self.beta_deg:.12g}: "
                f"the plane's half-width d tan(beta/2) rounds to 0"
            )
        tilt = abs(math.radians(self.theta_tilt_deg)) + math.pi
        epsilon = math.radians(self.epsilon_deg)
        for where, value in (
            (
                f"[scenario] p0 = {self.p0:g}, r0 = {self.r0:g}, sigma2 = {self.sigma2:g}: "
                f"the peak SNR at range {r_min:g} on {shape}",
                self.p0 * (ratio * ratio) / self.sigma2 * rows * cols,
            ),
            (
                f"[attack] d = {self.d:.12g}, beta_deg = {self.beta_deg:.12g}: the farthest plane cell's squared range",
                self.d * self.d + 2 * half * half,
            ),
            (f"[scenario] theta_tilt_deg = {self.theta_tilt_deg:.12g}: the squared elevation separation", tilt * tilt),
            (f"[attack] epsilon_deg = {self.epsilon_deg:.12g}: the squared separation bound", epsilon * epsilon),
        ):
            if not math.isfinite(value):
                raise ConfigError(f"{where} overflows a float")
        # each estimate sits beside its kernels; the first past the cap names its key
        for where, estimate in (
            (f"[array] n_t = {self.n_t}: {shape}", array_bytes(rows, cols) + beam_map_bytes(cols)),
            (
                f"[attack] grid_g = {self.grid_g} with [scenario] {steps:.3g} steps: the planner on {shape}",
                planner_bytes(self.grid_g, steps, rows, cols),
            ),
            (f"[experiment] num_symbols: {self.num_symbols} symbols on {shape}", ser_bytes(rows, cols, 1, *ser)),
            (f"[experiment] snr_step_db: {points:.3g} SNR points", ser_bytes(rows, cols, points, *ser)),
            (
                f"[experiment] mi_samples = {self.mi_samples} with m_order = {self.m_order}: the MI estimates",
                # the receiver and 181 eavesdropper angles, or the n_t grid angles under --tiny
                smi_bytes(self.n_t, 1 + max(181, self.n_t), self.m_order, self.asm_c, self.mi_samples),
            ),
        ):
            if estimate > MAX_BYTES:
                raise ConfigError(f"{where}: about {estimate:.3g} bytes, above the cap of {MAX_BYTES} bytes")

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
            uav_plane=UavPlaneSpec(self.d, math.radians(self.beta_deg)),
            v_max=self.v_max,
            epsilon=math.radians(self.epsilon_deg),
            grid_g=self.grid_g,
        )

    @property
    def snr_sweep(self) -> list[float]:
        """snr_min_db, then every snr_step_db up to snr_max_db (1e-9 dB slack)."""
        count = math.floor((self.snr_max_db - self.snr_min_db + 1e-9) / self.snr_step_db) + 1
        return [round(self.snr_min_db + k * self.snr_step_db, 9) for k in range(count)]


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

_FILE_KEYS = {key for keys in _SECTIONS.values() for key in keys}
_INT_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig) if f.type == "int" and f.name in _FILE_KEYS}


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
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
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


# The format of a column's values by its numpy dtype kind: str, int, float.
_FORMATS = {"U": "%s", "i": "%d", "u": "%d", "f": "%.12g"}
#: Rows _write_csv formats at a time: few enough that their strings stay
#: small beside the run's arrays, many enough that a repeated float, such as
#: a beam map's angles, is formatted once for many rows.
CSV_ROWS = 2048


def _formatted(fmt: str, values: list) -> list[str]:
    """Each value formatted by fmt, all of them in one `%`."""
    return ((fmt + "\n") * len(values) % tuple(values)).split("\n")[:-1]


def _fields(column: np.ndarray) -> list[str]:
    """A column's CSV fields. Each distinct float is formatted once, told
    apart by its bits so that -0.0 keeps its sign; a NaN is an empty field."""
    kind = column.dtype.kind
    if kind == "U":
        return column.tolist()
    if kind != "f":
        return _formatted(_FORMATS[kind], column.tolist())
    bits, inverse = np.unique(column.astype(np.float64).view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    text = np.array(_formatted(_FORMATS[kind], values.tolist()), dtype=object)
    text[np.isnan(values)] = ""
    return text[inverse].tolist()


def _write_csv(path: str, header, columns) -> str:
    """Write columns (equal-length sequences or arrays) under a header of names.

    The rows go out CSV_ROWS at a time: each column's slice is formatted by
    its element type (see _fields), and the slice's rows are one `%` of a
    comma-separated row format, repeated once per row, over the fields in
    row order. Columns of unequal length raise ValueError, before the file
    is opened.
    """
    arrays = [np.asarray(column) for column in columns]
    if len({len(a) for a in arrays}) > 1:
        raise ValueError(f"columns of unequal length: {[len(a) for a in arrays]}")
    row = ",".join(["%s"] * len(arrays)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(arrays[0]) if arrays else 0, CSV_ROWS):
            fields = [_fields(a[lo : lo + CSV_ROWS]) for a in arrays]
            fh.write(row * len(fields[0]) % tuple(itertools.chain.from_iterable(zip(*fields))))
    return path


Table = tuple[list[str], list]  # one CSV's (header, columns), as _write_csv takes them


def cmd_beam_pattern(cfg: ExperimentConfig) -> dict[str, Table]:
    """Normalized amplitude maps for the unquantized, 1-bit, and 2-bit beams,
    from one beam_pattern call on the three codewords."""
    step = 5 if cfg.tiny else 1
    rad = np.radians(np.arange(-90, 91, step))
    th, ph = np.meshgrid(rad, rad, indexing="ij")
    dirs = np.column_stack([th.ravel(), ph.ravel()])
    degrees = np.degrees(dirs.T)
    grid = nearest_grid_index(math.radians(cfg.target_theta_deg), math.radians(cfg.target_phi_deg), cfg.n_t, cfg.n_rows)
    labels, qs = ("inf", "1", "2"), (None, 1, 2)
    maps = beam_pattern(np.stack([dft_codeword(grid, ArrayConfig(cfg.n_t, q, cfg.n_rows)) for q in qs]), dirs)
    header = ["theta_deg", "phi_deg", "normalized_amplitude"]
    return {f"beam_pattern_q{label}.csv": (header, [*degrees, amp]) for label, amp in zip(labels, maps)}


def cmd_smi_sweep(cfg: ExperimentConfig) -> dict[str, Table]:
    """Secrecy MI vs. eavesdropper angle on a linear array, CSB vs. ASM-c, and
    the partition-law floor at the grid angles; --tiny sweeps only the n_t
    grid angles, with at most 500 MI samples."""
    rx_dir = (math.radians(cfg.rx_theta_deg), 0.0)
    rx_grid = nearest_grid_index(*rx_dir, cfg.n_t, 1)
    if cfg.tiny:  # the grid angles, ascending, as smi_theory lists them
        angles = np.degrees([grid_angle(i, cfg.n_t) for i in range(1 - cfg.n_t // 2, cfg.n_t // 2 + 1)])
    else:
        angles = np.arange(-90.0, 91.0)
    try:
        smi = smi_sweep(
            dft_codeword(rx_grid, ArrayConfig(cfg.n_t, cfg.q, n_rows=1)),
            rx_dir,
            np.column_stack([np.radians(angles), np.zeros(len(angles))]),
            cfg.rx_snr_db, cfg.m_order, cfg.asm_c, min(cfg.mi_samples, 500) if cfg.tiny else cfg.mi_samples, cfg.seed,
        )
    except SnrCeilingError as exc:  # every estimate's rho is rx_snr_db scaled by a gain ratio
        raise ConfigError(f"[experiment] rx_snr_db = {cfg.rx_snr_db:g} dB: {exc}") from exc
    # after the sweep: run first, the quadrature's freed temporaries raise
    # the sweep's peak RSS by about 1.3 MB on a 16-element array
    theory = smi_theory(rx_grid.i, cfg.n_t, cfg.m_order, cfg.rx_snr_db)
    header = ["eve_theta_deg", "csb_smi", *(f"asm_smi_{c:g}" for c in cfg.asm_c)]
    return {"smi_sweep.csv": (header, [angles, *smi.T]), "smi_theory.csv": (list(theory), list(theory.values()))}


def _plan(cfg: ExperimentConfig, q: int | None) -> tuple[Scenario, Trajectory]:
    """The scenario with q-bit phase shifters and the eavesdropper's planned
    trajectory; --tiny shrinks the plane grid to 5 x 5 and the episode to 4 steps."""
    if cfg.tiny:
        span = 3 * cfg.rx_speed * cfg.t_s
        cfg = dataclasses.replace(cfg, grid_g=5, y_min=-span / 2, y_max=span / 2)
    scenario = dataclasses.replace(cfg, q=q).scenario()
    return scenario, extract_trajectory(*value_iteration(scenario, cfg.constraints()))


def cmd_attack(cfg: ExperimentConfig) -> dict[str, Table]:
    """Plan the eavesdropper trajectory for the 1-bit and 2-bit transmitters."""
    tables = {}
    for q in (1, 2):
        scenario, traj = _plan(cfg, q)
        tables[f"attack_trajectory_q{q}.csv"] = (
            ["t_s", "u", "v", "theta_deg", "phi_deg", "reward", "secrecy_rate"],
            [
                np.arange(len(traj.u)) * scenario.t_s, traj.u, traj.v,
                np.degrees(traj.theta), np.degrees(traj.phi), traj.reward, traj.secrecy_rate,
            ],
        )
    return tables


def cmd_ser(cfg: ExperimentConfig) -> dict[str, Table]:
    """SER vs. SNR for {none, csb, asm-c} at the planned episode's midpoint
    step, the RX at its traj.rx entry and the eavesdropper parked on its cell
    (each defense drawn once, from the stream [seed, 0], and rescaled at every
    SNR point), the defenses' exact mean receive-power penalty at the RX, and
    the eavesdropper's constellation under CSB at the top SNR point, from the
    same CSB draw as its csb row of ser_sweep.csv. The RX sits at its true,
    off-grid angles, so CSB's penalty is not 0 dB: the compensation keeps the
    gain exactly only on the beam grid (-1.44 dB on the default 16 x 16 config)."""
    num_symbols = min(cfg.num_symbols, 2000) if cfg.tiny else cfg.num_symbols
    scenario, traj = _plan(cfg, cfg.q)
    t_mid = scenario.num_steps // 2
    rx_grid, rx_dir, rx_r = traj.rx[t_mid]
    f = dft_codeword(rx_grid, scenario.array_cfg)
    p_rx = path_power(rx_r, cfg.p0, cfg.r0)
    snr_dbs = cfg.snr_sweep
    # ser_sweep's noise power falls as the SNR rises: check it at the sweep's ends
    g_rx = abs(gains(f, (rx_dir[0],), (rx_dir[1],))[0])
    for name, snr_db in (("snr_min_db", snr_dbs[0]), ("snr_max_db", snr_dbs[-1])):
        with np.errstate(over="ignore"):
            sigma2 = sigma2_for_snr(p_rx, g_rx, snr_db)
        if not 0 < sigma2 < math.inf:
            raise ConfigError(f"[experiment] {name}: noise power at {snr_db:g} dB must be in (0, inf), got {sigma2:g}")
    errors, constellation = ser_sweep(
        f, rx_dir, (traj.theta[t_mid], traj.phi[t_mid]), p_rx, path_power(traj.r[t_mid], cfg.p0, cfg.r0),
        snr_dbs, cfg.m_order, cfg.asm_c, num_symbols, cfg.seed,
    )
    labels = ["none", "csb"] + [f"asm-{c:g}" for c in cfg.asm_c]
    rates = errors.reshape(-1, 2) / num_symbols
    return {
        "ser_sweep.csv": (
            ["snr_db", "defense", "rx_ser", "eve_ser", "trials"],
            [np.repeat(snr_dbs, len(labels)), labels * len(snr_dbs), *rates.T, np.full(len(rates), num_symbols)],
        ),
        "rx_snr_penalty.csv": (
            ["defense", "rx_snr_delta_db"],
            [labels[1:], rx_power_penalty_db(f, rx_dir, cfg.asm_c)],
        ),
        "eve_constellation.csv": (
            ["re", "im", "true_symbol_index"],
            [*constellation[:, :2].T, constellation[:, 2].astype(int)],
        ),
    }


def cmd_apn_dist(cfg: ExperimentConfig) -> dict[str, Table]:
    """Exact phase-noise support and probabilities for each gcd value."""
    laws = [apn_law(g, 0, cfg.n_t) for g in range(cfg.n_t + 1)]
    sizes = [law.support.size for law in laws]
    columns = [
        np.repeat([law.g for law in laws], sizes),
        np.degrees(np.concatenate([law.support for law in laws])),
        np.repeat([law.prob for law in laws], sizes),
    ]
    return {"apn_dist.csv": (["g", "phase_deg", "probability"], columns)}


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


def _openblas(name: str):
    """numpy's OpenBLAS function openblas_<name> (under any of its exported
    spellings) or, for an internal function such as blas_thread_shutdown_,
    plain <name>; None under another BLAS. It is looked up on the handle of
    numpy's _multiarray_umath extension, which finds it among the libraries
    that extension links."""
    ext = sys.modules.get("numpy._core._multiarray_umath") or sys.modules.get("numpy.core._multiarray_umath")
    try:
        lib = ctypes.CDLL(ext.__file__)
    except (AttributeError, OSError):  # not loaded from a shared library
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""), ("", "")):
        fn = getattr(lib, prefix + name + suffix, None)
        if fn is not None:
            return fn
    return None


def _blas_one_thread() -> None:
    """Hold numpy's OpenBLAS to one thread and stop its idle threads:
    mixture_mis runs MI_WORKERS worker threads, and OpenBLAS's own threads
    would spin beside them, the first for about 0.1 s after numpy loads.

    The count is set before blas_thread_shutdown_ (what OpenBLAS calls at
    fork) joins the idle threads, and never set after: setting it rebuilds
    the pool, whose new threads spin again. So a count already at one
    (a second main, or OPENBLAS_NUM_THREADS=1) returns at once. Under
    another BLAS nothing changes."""
    get, setter = _openblas("get_num_threads"), _openblas("set_num_threads")
    if get is None or setter is None or get() == 1:
        return
    setter(1)
    shutdown = _openblas("blas_thread_shutdown_")
    if shutdown is not None:
        shutdown()


def main(argv=None) -> int:
    _blas_one_thread()
    args = build_parser().parse_args(argv)
    try:
        cfg = dataclasses.replace(load_config(args.config), seed=args.seed, tiny=args.tiny)
        os.makedirs(args.out, exist_ok=True)
        tables = _COMMANDS[args.command](cfg)
        written = [_write_csv(os.path.join(args.out, name), *table) for name, table in tables.items()]
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
