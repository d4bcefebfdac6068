"""Check a run's CSV outputs against reference outputs of the seed commit.

The reference for a workload lives in reference/<size>/<workload>/:
expected.json holds, for every output file, its header, its row count, its
sha256 for each reference seed ("*" when the file does not depend on the
seed), and the mean and standard deviation over the reference seeds of each
Monte-Carlo quantity; <file>.xz is the seed-0 copy of each file that has
deterministic columns. make_reference.py writes them.

File names, headers and row counts must match exactly. Deterministic columns
must agree with the copy to a tight float tolerance. Monte-Carlo columns are
checked by statistics, so that a declared change of RNG draw order can pass
while a wrong number cannot:
  * an error rate (SER) must lie within Z_POINT binomial standard errors of
    the reference mean;
  * any other Monte-Carlo value must lie within Z_POINT reference standard
    deviations of the reference mean;
  * over a column, the root mean square of those z-scores must stay within
    Z_CURVE;
  * the eavesdropper constellation is summarised (symbol frequencies, mean,
    power, error rate) and each summary is checked like a Monte-Carlo value.
"""

from __future__ import annotations

import csv
import fnmatch
import hashlib
import io
import json
import lzma
import math
import os
from dataclasses import dataclass

import numpy as np

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12
Z_POINT = 8.0
Z_CURVE = 4.0
# Rows whose reference values do not vary (clamped at 0, say) are compared
# with this share of the column's median reference deviation instead.
SD_FLOOR = 0.5
MAX_PROBLEMS = 10  # reported per file


@dataclass(frozen=True)
class Rule:
    """How the columns of one output file are checked.

    exact: columns (fnmatch patterns) compared with the reference copy.
    mc: Monte-Carlo columns compared with reference statistics.
    binomial: error-rate columns; trials names the column of trial counts.
    exact_rows: (column, value) selecting rows that are wholly deterministic.
    summary: the file is checked through summary() statistics only.
    """

    exact: tuple[str, ...] = ()
    mc: tuple[str, ...] = ()
    binomial: tuple[str, ...] = ()
    trials: str | None = None
    exact_rows: tuple[str, str] | None = None
    summary: bool = False


RULES = (
    ("beam_pattern_q*.csv", Rule(exact=("*",))),
    ("smi_theory.csv", Rule(exact=("*",))),
    ("smi_sweep.csv", Rule(exact=("eve_theta_deg",), mc=("csb_smi", "asm_smi_*"))),
    ("ser_sweep.csv", Rule(exact=("snr_db", "defense", "trials"), binomial=("rx_ser", "eve_ser"), trials="trials")),
    ("rx_snr_penalty.csv", Rule(exact=("defense",), mc=("rx_snr_delta_db",), exact_rows=("defense", "csb"))),
    ("eve_constellation.csv", Rule(summary=True)),
)


def rule_for(name: str) -> Rule | None:
    for pattern, rule in RULES:
        if fnmatch.fnmatch(name, pattern):
            return rule
    return None


def columns(header: list[str], patterns: tuple[str, ...]) -> list[int]:
    return [i for i, col in enumerate(header) if any(fnmatch.fnmatch(col, p) for p in patterns)]


def read_csv(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode())))


def summary(rows: list[list[str]], m_order: int) -> dict[str, float]:
    """Statistics of an eavesdropper constellation dump (re, im, symbol)."""
    arr = np.array(rows, dtype=float)
    z = arr[:, 0] + 1j * arr[:, 1]
    sym = arr[:, 2].astype(int)
    detected = np.rint(np.angle(z) * m_order / (2 * np.pi)).astype(int) % m_order
    out = {
        "mean_re": float(z.real.mean()),
        "mean_im": float(z.imag.mean()),
        "mean_power": float(np.mean(np.abs(z) ** 2)),
        "error_rate": float(np.mean(detected != sym)),
    }
    out.update({f"freq_{k}": float(np.mean(sym == k)) for k in range(m_order)})
    return out


def _close(value: str, ref: str) -> bool:
    if value == ref:
        return True
    try:
        a, b = float(value), float(ref)
    except ValueError:
        return False
    return abs(a - b) <= FLOAT_ATOL + FLOAT_RTOL * abs(b)


def _sd_floor(sds) -> float:
    positive = [s for s in sds if s]
    return SD_FLOOR * float(np.median(positive)) if positive else 0.0


@dataclass
class Report:
    problems: list[str]
    byte_identical: bool | None

    @property
    def ok(self) -> bool:
        return not self.problems


def reference_dir(size: str, workload: str) -> str:
    return os.path.join(REFERENCE, size, workload)


def check(out_dir: str, ref_dir: str, seed: int, z_point: float = Z_POINT, z_curve: float = Z_CURVE) -> Report:
    """Verify every output file in out_dir against the reference in ref_dir."""
    with open(os.path.join(ref_dir, "expected.json")) as fh:
        expected = json.load(fh)
    problems: list[str] = []
    found = sorted(os.listdir(out_dir))
    if found != sorted(expected["files"]):
        problems.append(f"output files {found} differ from reference {sorted(expected['files'])}")
    mismatch, unknown = found != sorted(expected["files"]), False
    for name, spec in sorted(expected["files"].items()):
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            continue
        with open(path, "rb") as fh:
            data = fh.read()
        known = spec["sha256"].get(str(seed), spec["sha256"].get("*"))
        if known is None:
            unknown = True
        elif known != hashlib.sha256(data).hexdigest():
            mismatch = True
        found_problems = _check_file(data, spec, ref_dir, name, z_point, z_curve)
        if len(found_problems) > MAX_PROBLEMS:
            found_problems[MAX_PROBLEMS:] = [f"and {len(found_problems) - MAX_PROBLEMS} more"]
        problems += [f"{name}: {p}" for p in found_problems]
    return Report(problems, False if mismatch else None if unknown else True)


def _check_file(data: bytes, spec: dict, ref_dir: str, name: str, z_point: float, z_curve: float) -> list[str]:
    rule = rule_for(name)
    if rule is None:
        return ["no verification rule for this file"]
    rows = read_csv(data)
    if not rows or ",".join(rows[0]) != spec["header"]:
        return [f"header {rows[0] if rows else None} != {spec['header']!r}"]
    header, body = rows[0], rows[1:]
    if len(body) != spec["rows"]:
        return [f"{len(body)} rows, reference has {spec['rows']}"]
    if any(len(row) != len(header) for row in body):
        return ["ragged rows"]
    if rule.summary:
        try:
            values = summary(body, spec["m_order"])
        except ValueError as exc:
            return [f"unreadable sample: {exc}"]
        return _check_values(values, spec["summary"], spec["seeds"], z_point)

    problems = []
    exact_cols = columns(header, rule.exact)
    exact_row_set: set[int] = set()
    if exact_cols or rule.exact_rows:
        with lzma.open(os.path.join(ref_dir, name + ".xz"), "rb") as fh:
            ref_body = read_csv(fh.read())[1:]
        if rule.exact_rows:
            col = header.index(rule.exact_rows[0])
            exact_row_set = {r for r, row in enumerate(ref_body) if row[col] == rule.exact_rows[1]}
        for r, (row, ref) in enumerate(zip(body, ref_body)):
            for c in range(len(header)) if r in exact_row_set else exact_cols:
                if not _close(row[c], ref[c]):
                    problems.append(f"row {r + 1} {header[c]}: {row[c]!r} != reference {ref[c]!r}")
    trials_col = header.index(rule.trials) if rule.trials else None
    binomial_cols = set(columns(header, rule.binomial))
    for c in columns(header, rule.mc + rule.binomial):
        stats = spec["mc"][header[c]]
        floor = _sd_floor(stats["sd"])
        zs = []
        for r, row in enumerate(body):
            mean, sd = stats["mean"][r], stats["sd"][r]
            if r in exact_row_set:
                continue
            if mean is None or row[c] == "":
                if (mean is None) != (row[c] == ""):
                    problems.append(f"row {r + 1} {header[c]}: {row[c]!r}, reference mean {mean}")
                continue
            try:
                value = float(row[c])
                n = float(row[trials_col]) if c in binomial_cols else 0.0
            except ValueError:
                problems.append(f"row {r + 1} {header[c]}: not a number")
                continue
            if c in binomial_cols:
                p = min(max(mean, 3.0 / n), 1.0 - 3.0 / n)
                sd = math.sqrt(p * (1.0 - p) / n)
            else:
                sd = max(sd, floor)
            # the reference mean carries its own error over the reference seeds
            sd *= math.sqrt(1.0 + 1.0 / spec["seeds"])
            z = (value - mean) / sd if sd > 0 else (0.0 if _close(row[c], repr(mean)) else math.inf)
            zs.append(z)
            if abs(z) > z_point:
                problems.append(f"row {r + 1} {header[c]}: {value} is {z:+.1f} sd from reference {mean:.6g}")
        if len(zs) >= 4 and math.sqrt(np.mean(np.square(zs))) > z_curve:
            problems.append(f"{header[c]}: rms z {math.sqrt(np.mean(np.square(zs))):.2f} over {len(zs)} rows")
    return problems


def _check_values(values: dict[str, float], stats: dict[str, dict], seeds: int, z_point: float) -> list[str]:
    problems = []
    for key, ref in stats.items():
        sd = ref["sd"] * math.sqrt(1.0 + 1.0 / seeds)
        if abs(values[key] - ref["mean"]) > z_point * sd + FLOAT_ATOL:
            problems.append(f"{key} = {values[key]:.6g}, reference {ref['mean']:.6g} +- {sd:.3g}")
    return problems
