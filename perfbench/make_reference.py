"""Write the reference outputs that verify.py checks every run against.

    python3 perfbench/make_reference.py --size full [--workload NAME] [--seeds 16]

Runs each workload once per seed 0 .. seeds-1 on the current code and writes
reference/<size>/<workload>/: expected.json and the xz-compressed seed-0
copy of each file with deterministic columns. The committed reference comes
from the seed commit; regenerate it only with a change that declares its
outputs changed.

Before writing, it checks the thresholds: each reference seed is verified
against statistics of the other seeds, at the real thresholds and at half
of them, and the counts of passes are printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import lzma
import os
import shutil
import statistics

import run as bench
import verify
from workloads import SIZES, WORKLOADS


def run_seed(name: str, size: str, seed: int) -> dict[str, bytes]:
    """Outputs of one untraced run of the workload at seed, by file name."""
    r = bench.Run(name, size, seed)
    job = r.job(r.steps)
    os.makedirs(job["out"])
    code, _ = bench.spawn(job, job["out"] + ".log", bench.CHILD_TIMEOUT_S)
    if code != 0:
        raise SystemExit(f"{name} seed {seed} failed; see {job['out']}.log")
    outputs = {}
    for fname in sorted(os.listdir(job["out"])):
        with open(os.path.join(job["out"], fname), "rb") as fh:
            outputs[fname] = fh.read()
    return outputs


def _column_stats(values: list[str]) -> tuple[float | None, float]:
    if all(v == "" for v in values):
        return None, 0.0
    if any(v == "" for v in values):
        raise SystemExit(f"a Monte-Carlo value is empty for some seeds only: {values}")
    numbers = [float(v) for v in values]
    return statistics.fmean(numbers), statistics.stdev(numbers)


def build(outputs: dict[int, dict[str, bytes]], ref_dir: str) -> None:
    """Write expected.json and the seed-0 copies for the given per-seed outputs."""
    seeds = sorted(outputs)
    names = sorted(outputs[seeds[0]])
    if any(sorted(outputs[s]) != names for s in seeds):
        raise SystemExit("reference seeds wrote different file sets")
    shutil.rmtree(ref_dir, ignore_errors=True)
    os.makedirs(ref_dir)
    files = {}
    for name in names:
        rule = verify.rule_for(name)
        if rule is None:
            raise SystemExit(f"no verification rule for {name}; add one to verify.RULES")
        parsed = {s: verify.read_csv(outputs[s][name]) for s in seeds}
        header, body = parsed[seeds[0]][0], parsed[seeds[0]][1:]
        if any(p[0] != header or len(p) - 1 != len(body) for p in parsed.values()):
            raise SystemExit(f"{name}: header or row count depends on the seed")
        digests = {str(s): hashlib.sha256(outputs[s][name]).hexdigest() for s in seeds}
        if len(set(digests.values())) == 1:
            digests = {"*": digests[str(seeds[0])]}
        spec = {"header": ",".join(header), "rows": len(body), "seeds": len(seeds), "sha256": digests}
        if rule.summary:
            m_order = 1 + max(int(float(row[2])) for row in body)
            values = [verify.summary(parsed[s][1:], m_order) for s in seeds]
            spec["m_order"] = m_order
            spec["summary"] = {
                key: {"mean": statistics.fmean(v[key] for v in values), "sd": statistics.stdev(v[key] for v in values)}
                for key in values[0]
            }
        else:
            spec["mc"] = {}
            for c in verify.columns(header, rule.mc + rule.binomial):
                stats = [_column_stats([parsed[s][r + 1][c] for s in seeds]) for r in range(len(body))]
                spec["mc"][header[c]] = {"mean": [m for m, _ in stats], "sd": [sd for _, sd in stats]}
            exact = verify.columns(header, rule.exact)
            rows = range(1, len(body) + 1)
            cells = [(r, c) for r in rows for c in exact]
            if rule.exact_rows:
                key = header.index(rule.exact_rows[0])
                cells += [(r, c) for r in rows if body[r - 1][key] == rule.exact_rows[1] for c in range(len(header))]
            for r, c in cells:
                if any(p[r][c] != parsed[seeds[0]][r][c] for p in parsed.values()):
                    raise SystemExit(f"{name}: deterministic value row {r} {header[c]} depends on the seed")
            if exact or rule.exact_rows:
                with lzma.open(os.path.join(ref_dir, name + ".xz"), "wb", preset=9) as fh:
                    fh.write(outputs[seeds[0]][name])
        files[name] = spec
    with open(os.path.join(ref_dir, "expected.json"), "w") as fh:
        json.dump({"files": files}, fh, indent=1)
        fh.write("\n")


def leave_one_out(outputs: dict[int, dict[str, bytes]], scratch: str) -> None:
    """Verify each seed against a reference built from the other seeds."""
    for factor in (1.0, 0.5):
        passed = 0
        for seed in outputs:
            others = {s: o for s, o in outputs.items() if s != seed}
            ref_dir, out_dir = os.path.join(scratch, "ref"), os.path.join(scratch, "out")
            build(others, ref_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
            os.makedirs(out_dir)
            for fname, data in outputs[seed].items():
                with open(os.path.join(out_dir, fname), "wb") as fh:
                    fh.write(data)
            report = verify.check(out_dir, ref_dir, seed, verify.Z_POINT * factor, verify.Z_CURVE * factor)
            passed += report.ok
            for problem in report.problems:
                print(f"    seed {seed} at {factor} x thresholds: {problem}")
        print(f"  leave-one-out at {factor} x thresholds: {passed} of {len(outputs)} seeds pass")
    shutil.rmtree(scratch, ignore_errors=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=SIZES, required=True)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=16)
    args = parser.parse_args()
    for name in [args.workload] if args.workload else list(WORKLOADS):
        outputs = {seed: run_seed(name, args.size, seed) for seed in range(args.seeds)}
        print(f"{name} ({args.size}): {args.seeds} seeds")
        leave_one_out(outputs, os.path.join(bench.WORK, "reference-check"))
        build(outputs, verify.reference_dir(args.size, name))


if __name__ == "__main__":
    main()
