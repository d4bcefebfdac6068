"""One fresh-interpreter iteration of a workload, started by run.py.

    python3 perfbench/child.py '<job as JSON>'

A fresh process per iteration keeps csbsim's lru caches cold, as they are
for a CLI user, and makes ru_maxrss belong to one iteration. The child
imports csbsim from the checkout's src/, parses the first step's config (the
end of set-up), then runs each step's subcommand on its config through
csbsim.cli.main, traced or not, and writes its result as JSON to
job["result"]. A job without steps is a set-up probe.
"""

from __future__ import annotations

import json
import os
import sys
import time


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (part of set-up, as for a CLI user)
    import csbsim.cli as cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"csbsim was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    cli.load_config(job["config"])
    result = {"setup_s": time.monotonic() - job["spawn_t"]}
    if job["environment"]:
        result["environment"] = environment()

    tracer = None
    if job["trace"]:
        import layers

        tracer = layers.Tracer(job["run_id"])
        layers.install(tracer)
    wall_s, codes = 0.0, []
    for command, config in job["steps"]:
        argv = [command, "--seed", str(job["seed"]), "--config", config, "--out", job["out"]]
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        wall_s += time.perf_counter() - start
        codes.append(code)
        if code != 0:
            break
    if job["steps"]:
        result.update(wall_s=wall_s, exit_codes=codes)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layers"]["cli.smi_skipped"] = layers.skipped_directions(job["out"])
        tracer.dump(job["spans"])
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
