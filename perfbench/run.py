"""Benchmark command: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload refine --seed 0 --seconds 25 --trace 0

Run from the root of a spherecorr checkout; the library is imported from its
``src`` directory, nothing is installed.  The workload runs in a fresh
worker process with BLAS pools held to one thread, so the only worker
threads are the ones ``--threads`` asks for.  Set-up is also timed in
separate set-up-only processes and reported as the median.  Results, traces
and packing caches go under ``perfbench/results``; byte-compiling the library
writes only ``__pycache__`` directories.

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, wall_s,
cpu_s, peak_rss_mb); with ``--trace 1`` they are the per-layer ones.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 160

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    # Ops set their own cache directory; this one only catches a stray default.
    env["SPHERECORR_CACHE"] = str(RESULTS / "cache")
    return env


def worker(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env, cwd=str(HERE), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )


def per_layer_names() -> list[str]:
    ops = [op for name in workloads.NAMES for op in workloads.OPS[name]]
    return [name for name, _, _ in layers.PER_LAYER] + [f"cli.{op}_s" for op in ops]


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    return {name: units.get(name, "s") for name in per_layer_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spherecorr" / "__init__.py").is_file():
        print(f"error: no spherecorr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    # The build: byte-compile the library so no timed set-up pays for it.
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("error: spherecorr does not compile", file=sys.stderr)
        return 2

    env = worker_env()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--cache-parent", str(RESULTS)]
    setups = []
    for _ in range(SETUP_PROBES):
        probe = worker(common + ["--setup-only"], env)
        if probe.returncode != 0:
            sys.stderr.write(probe.stderr)
            return 1
        setups.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_path = RESULTS / f"{stem}.json"
    run = worker(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--report", str(report_path)],
        env,
    )
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        return 1
    report = json.loads(report_path.read_text())
    setups.append(report["setup_s"])
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    if args.trace:
        values = {name: report["per_layer"].get(name, 0.0) for name in per_layer_names()}
        units = per_layer_units()
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": report["wall_s"], "unit": "s"},
            "cpu_s": {"value": report["cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    for err in report["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not report["errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    report.update({
        "setup_samples_s": setups,
        "peak_rss_mb": peak_mb,
        "result": result,
    })
    report["environment"].update({
        "seconds": args.seconds,
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
    })
    report_path.write_text(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
