"""Self-test of the benchmark at the miniature ("mini") workload shapes.

    python3 perfbench/selftest.py

For each workload it checks that
  * an untraced run emits exactly the end-to-end metrics BENCHMARK.json
    names, with their units, and a traced run exactly the per-layer ones;
  * verification passes on the unmodified code;
  * two traced runs give the same counts;
  * corrupted copies of the run's CSVs (a row dropped, a value changed to a
    wrong number) are reported as failures.
It prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import verify
from run import ROOT, WORK
from workloads import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def bench(name: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "mini"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    if out.returncode != 0:
        raise SystemExit(f"run.py failed for {name}:\n{out.stdout}\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def corruptions(data: bytes, name: str):
    """(description, corrupted bytes) pairs for one CSV."""
    lines = data.decode().splitlines(keepends=True)
    yield "last row dropped", "".join(lines[:-1]).encode()
    rule = verify.rule_for(name)
    if rule.summary:
        return  # a single wrong sample is within the statistics of a summary
    header = lines[0].rstrip("\n").split(",")
    checked = verify.columns(header, rule.mc + rule.binomial) or verify.columns(header, rule.exact)
    row = len(lines) // 2
    cells = lines[row].rstrip("\n").split(",")
    for col in reversed(checked):
        try:
            value = float(cells[col])
        except ValueError:
            continue
        cells[col] = repr(value + 1.0 + abs(value))
        lines[row] = ",".join(cells) + "\n"
        yield f"row {row} {header[col]} changed to {cells[col]}", "".join(lines).encode()
        return


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
        names = {m["name"]: m["unit"] for m in declared[kind]}
        for name in WORKLOADS:
            result = bench(name, trace)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(emitted == names, f"{name}: trace {trace} emits the {kind} metrics with their units")
            expect(result["correct"] and result["failed"] == 0, f"{name}: trace {trace} outputs verify")
            if trace:
                again = bench(name, trace)
                counts = {k for k, unit in names.items() if unit != "s"}
                expect(
                    all(result["metrics"][k] == again["metrics"][k] for k in counts),
                    f"{name}: counts repeat between two traced runs",
                )

    for name in WORKLOADS:
        # the last run of each workload left its outputs in the work directory
        work = os.path.join(WORK, name)
        out_dir = next(
            os.path.join(work, d) for d in sorted(os.listdir(work)) if os.path.isdir(os.path.join(work, d))
        )
        ref_dir = verify.reference_dir("mini", name)
        for fname in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, fname), "rb") as fh:
                data = fh.read()
            for what, bad in corruptions(data, fname):
                copy = os.path.join(WORK, "selftest", name)
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(out_dir, copy)
                with open(os.path.join(copy, fname), "wb") as fh:
                    fh.write(bad)
                report = verify.check(copy, ref_dir, 3)
                expect(not report.ok and report.byte_identical is False, f"{name}: {fname} with {what} fails")
        shutil.rmtree(os.path.join(WORK, "selftest"), ignore_errors=True)

    print(f"{len(failures)} checks failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
