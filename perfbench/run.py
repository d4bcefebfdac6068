"""Benchmark entry point: run a csbsim workload in fresh interpreters, check
its outputs, and report end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload smi-ser --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 50 --trace 0

Run it from the root of a checkout; csbsim is imported from ./src. The load
is a closed loop with one client: iterations run one after another, each in
a fresh interpreter (child.py) that the benchmark starts and waits for, until
--seconds have passed. An iteration runs the workload's steps, each a
subcommand on its own generated config with --seed passed to csbsim, through
csbsim.cli.main; its outputs are verified against the reference (verify.py).
Numpy keeps its default BLAS threading, which the environment record shows.

--trace 0 reports, as medians over the iterations:
  wall_s       time inside csbsim.cli.main, summed over the subcommands
  cpu_s        user + sys CPU of the iteration's process, BLAS threads included
  peak_rss_mb  ru_maxrss of the iteration's process
  setup_s      process start to the parsed config (imports plus load_config),
               median over the iterations and the set-up probes run after each
failed_frac (failed iterations over attempted ones) is printed with them and
is the "failed"/"attempted" pair of the result line.

--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics of layers.py plus trace.overhead_s, the traced minus the
untraced median wall_s.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Above it are a readable summary and the environment
record; the full record, per-iteration outputs, logs and spans stay in
.perfbench/<workload>/ until the next run of that workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import verify
from workloads import SIZES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Set-up-only children after each untraced iteration, so that set-up is
# sampled across the whole run rather than in one burst.
PROBES_PER_ITERATION = 2
# No iteration starts once it could end after this; a run must end within 180 s.
LAST_START_S = 150.0
CHILD_TIMEOUT_S = 170.0
POLL_S = 0.05


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def spawn(job: dict, log_path: str, timeout: float):
    """Run child.py on job; returns (exit code, resource usage of the child).

    The child is killed if it runs past timeout seconds."""
    job = dict(job, spawn_t=time.monotonic())
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(job)], stdout=log, stderr=subprocess.STDOUT, cwd=ROOT
        )
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(POLL_S)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


class Run:
    """One benchmark run of one workload: its work directory and iterations."""

    def __init__(self, workload: str, size: str, seed: int):
        self.workload = WORKLOADS[workload]
        self.size, self.seed = size, seed
        self.work = os.path.join(WORK, workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        # one config per step; the first is the one set-up parses
        self.configs = []
        for i, step in enumerate(self.workload.steps, 1):
            self.configs.append(os.path.join(self.work, f"config-{i}.ini"))
            with open(self.configs[-1], "w") as fh:
                fh.write(step.ini(size))
        self.steps = [[step.command, config] for step, config in zip(self.workload.steps, self.configs)]
        self.started = time.monotonic()
        self.jobs = 0

    def job(self, steps=(), trace=False, environment=False) -> dict:
        self.jobs += 1
        base = os.path.join(self.work, f"job-{self.jobs}")
        return {
            "root": ROOT,
            "config": self.configs[0],
            "seed": self.seed,
            "steps": list(steps),
            "trace": trace,
            "environment": environment,
            "out": base,
            "result": base + ".json",
            "spans": base + ".spans.jsonl",
            "run_id": f"{self.workload.name}-{self.seed}-{self.jobs}",
        }

    def timeout(self) -> float:
        return max(1.0, CHILD_TIMEOUT_S - (time.monotonic() - self.started))

    def probe(self, environment=False) -> dict | None:
        """A set-up-only child: imports and config parsing, nothing else."""
        job = self.job(environment=environment)
        code, _ = spawn(job, job["out"] + ".log", self.timeout())
        return read_json(job["result"]) if code == 0 else None

    def iteration(self, trace: bool) -> dict:
        """One run of the workload's steps in a fresh child, verified."""
        job = self.job(self.steps, trace)
        os.makedirs(job["out"])
        load_before = os.getloadavg()
        code, usage = spawn(job, job["out"] + ".log", self.timeout())
        record = {
            "job": job["run_id"],
            "traced": trace,
            "exit_code": code,
            "load_before": load_before,
            "load_after": os.getloadavg(),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        record.update(read_json(job["result"]) or {})
        if code != 0 or "wall_s" not in record:
            record["problems"] = [f"exit code {code}; log in {job['out']}.log"]
        else:
            report = verify.check(job["out"], verify.reference_dir(self.size, self.workload.name), self.seed)
            record["problems"] = report.problems
            record["byte_identical"] = report.byte_identical
        return record


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest() -> str:
    """sha256 over the package sources, which names the code without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def summarize(values: list[float]) -> dict:
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values[:1] * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "min": values[0], "max": values[-1], "n": len(values)}


def measure(run: Run, seconds: float, trace: bool) -> tuple[list[dict], list[float]]:
    """Iterations for about `seconds`: the iteration records and the set-up
    times of the probes run between untraced iterations. No round starts that
    would end more than half a round past `seconds`, so a run lasts `seconds`
    give or take half a round."""
    records: list[dict] = []
    setup: list[float] = []
    rounds: list[float] = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for traced in (False, True) if trace else (False,):
            records.append(run.iteration(traced))
        if not trace:
            probes = [run.probe() for _ in range(PROBES_PER_ITERATION)]
            setup += [p["setup_s"] for p in probes if p is not None]
        rounds.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(rounds) / 2 >= seconds or elapsed + max(rounds) > LAST_START_S:
            return records, setup


def environment_record(run: Run, warm: dict) -> dict:
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        **warm["environment"],
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "workload": run.workload.name,
        "size": run.size,
        "seed": run.seed,
        "configs": {f"{i} {step.command}": step.ini(run.size) for i, step in enumerate(run.workload.steps, 1)},
    }


def print_report(run: Run, records: list[dict], stats: dict, metrics: dict, environment: dict, trace: bool) -> None:
    failed = sum(bool(r["problems"]) for r in records)
    identical = [r.get("byte_identical") for r in records]
    print(f"perfbench {run.workload.name} (size {run.size}, seed {run.seed}, trace {int(trace)}): {len(records)} iterations")
    for key, unit in END_TO_END.items():
        s = stats[key]
        print(
            f"  {key:<12} {s['median']:12.6g} {unit:<3} q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
            f"  min {s['min']:.6g}  max {s['max']:.6g}  n={s['n']}"
        )
    print(f"  {'failed_frac':<12} {failed / len(records):12.6g}     ({failed} of {len(records)} iterations)")
    print(
        "  byte-identical to reference: "
        f"{identical.count(True)} yes, {identical.count(False)} no, {identical.count(None)} unknown"
    )
    for r in records:
        wall = f"wall {r['wall_s']:.3f} s, " if "wall_s" in r else ""
        load = f"load {r['load_before'][0]:.2f} -> {r['load_after'][0]:.2f}"
        traced = " traced" if r["traced"] else ""
        print(f"  iteration {r['job']}{traced}: {wall}{load}; " + ("; ".join(r["problems"]) or "verified"))
    if trace:
        for key, m in metrics.items():
            print(f"  {key:<48} {m['value']:14.6g} {m['unit']}")
    print("environment " + json.dumps(environment, sort_keys=True))


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict | None:
    """Run one workload and print its report; returns the result object, or
    None when no iteration produced a measurement."""
    run = Run(name, size, seed)
    warm = run.probe(environment=True)  # also writes bytecode caches before timing
    if warm is None:
        print(f"perfbench: csbsim failed to start; see {run.work}", file=sys.stderr)
        return None
    records, setup = measure(run, seconds, trace)
    untraced = [r for r in records if not r["traced"] and r["exit_code"] == 0 and "wall_s" in r]
    traced = [r for r in records if r["traced"] and r["exit_code"] == 0 and "layers" in r]
    if not untraced or (trace and not traced):
        print(f"perfbench: no iteration of {name} completed; see {run.work}", file=sys.stderr)
        return None

    stats = {
        "wall_s": summarize([r["wall_s"] for r in untraced]),
        "cpu_s": summarize([r["cpu_s"] for r in untraced]),
        "peak_rss_mb": summarize([r["peak_rss_mb"] for r in untraced]),
        "setup_s": summarize([r["setup_s"] for r in untraced] + setup),
    }
    if trace:
        # median_low keeps counts whole: every value is one iteration's
        metrics = {
            key: {"value": statistics.median_low(r["layers"][key] for r in traced), "unit": layer_unit(key)}
            for key in sorted(traced[0]["layers"])
        }
        overhead = statistics.median(r["wall_s"] for r in traced) - stats["wall_s"]["median"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {key: {"value": stats[key]["median"], "unit": unit} for key, unit in END_TO_END.items()}

    failed = sum(bool(r["problems"]) for r in records)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    environment = environment_record(run, warm)
    with open(os.path.join(run.work, "record.json"), "w") as fh:
        json.dump({"environment": environment, "stats": stats, "iterations": records, "result": result}, fh, indent=1)
    print_report(run, records, stats, metrics, environment, trace)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help="mini is the self-test's shape")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "csbsim", "cli.py")):
        print(f"perfbench: no csbsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        if result is None:
            return 1
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
