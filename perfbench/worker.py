"""One workload in a fresh process: set up, run whole rounds, check outputs.

    python worker.py --workload refine --seed 0 --seconds 25 --trace 0 --report FILE
    python worker.py --workload refine --seed 0 --setup-only

A round runs every operation of the workload once.  Rounds repeat until at
least ``--seconds`` of timed work is done, and always as whole rounds.  The
first round's outputs go through the independent checks; every later round
must print the same bytes.  With ``--trace 1`` untraced and traced rounds
alternate, and the traced ones give the per-layer metrics.

The report written to ``--report`` is JSON; ``run.py`` turns it into the
benchmark's result line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

CACHE_ENV = "SPHERECORR_CACHE"
# A run stops starting rounds once this much time has passed, so that it
# always exits well within three minutes on a slow host.
HARD_STOP_S = 120.0


def _cpu() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def setup(workload: str, seed: int, cache_parent: Path):
    """Import spherecorr and its CLI and build the workload's inputs; time it."""
    start = time.perf_counter()
    import spherecorr.cli  # noqa: F401

    import workloads

    wl = workloads.build(workload, seed)
    cache_root = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=cache_parent))
    return wl, cache_root, time.perf_counter() - start


def run_round(wl, cache_root: Path, tracer=None):
    """Run every op once; return (wall, cpu, outputs, per-op walls)."""
    wall = cpu = 0.0
    outputs, op_walls, dirs = {}, {}, {}
    for op in wl.ops:
        cache = dirs[op.reuse_cache] if op.reuse_cache else tempfile.mkdtemp(dir=cache_root)
        dirs[op.name] = cache
        os.environ[CACHE_ENV] = cache
        c0, t0 = _cpu(), time.perf_counter()
        if tracer is None:
            result = op.run()
        else:
            with tracer.span("op." + op.name):
                result = op.run()
        t1, c1 = time.perf_counter(), _cpu()
        wall += t1 - t0
        cpu += c1 - c0
        op_walls[op.name] = t1 - t0
        outputs[op.name] = result
    return wall, cpu, outputs, op_walls


def check_outputs(wl, outputs) -> tuple[int, list[str]]:
    """(failed ops, errors) from the independent checks of one round."""
    failed, errors = 0, []
    for op in wl.ops:
        rc, text = outputs[op.name]
        op_failed, errs = op.check(rc, text, outputs)
        failed += op_failed
        errors += [f"{op.name}: {e}" for e in errs]
    return failed, errors


def refine_gains(wl, outputs, cache_root: Path) -> dict[str, float]:
    """Estimate minus the same op's estimate at refine_iters=0, summed per layer."""
    gains: dict[str, float] = {}
    for op in wl.ops:
        if op.gain is None:
            continue
        layer, rerun, value_of = op.gain
        os.environ[CACHE_ENV] = tempfile.mkdtemp(dir=cache_root)
        rc, text = rerun()
        if rc != 0:
            raise RuntimeError(f"{op.name} at refine_iters=0 exited {rc}")
        gains[layer] = gains.get(layer, 0.0) + value_of(outputs[op.name][1]) - value_of(text)
    return gains


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache-parent", required=True)
    parser.add_argument("--report")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    began = time.perf_counter()

    wl, cache_root, setup_s = setup(args.workload, args.seed, Path(args.cache_parent))
    if args.setup_only:
        shutil.rmtree(cache_root, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy

    import layers
    import spherecorr
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    per_block = 2 if args.trace else 1
    rounds, layer_rounds, errors = [], [], []
    first = None
    failed = attempted = 0
    elapsed = 0.0
    try:
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.reset()
                layers.install(tracer)
                try:
                    wall, cpu, outputs, op_walls = run_round(wl, cache_root, tracer)
                finally:
                    tracer.uninstall()
                gains = refine_gains(wl, outputs, cache_root)
                row = layers.metrics(tracer, gains)
                row.update({f"cli.{name}_s": s for name, s in op_walls.items()})
                layer_rounds.append(row)
                spans = tracer.dump()
            else:
                wall, cpu, outputs, op_walls = run_round(wl, cache_root)
            rounds.append({"wall_s": wall, "cpu_s": cpu, "traced": traced, "ops": op_walls})
            elapsed += wall
            if first is None:
                first = outputs
                round_failed, errs = check_outputs(wl, outputs)
                errors += errs
                if wl.thread_check is not None:
                    name, rerun = wl.thread_check
                    if rerun() != outputs[name]:
                        errors.append(f"{name}: output at --threads 1 differs from --threads {wl.threads}")
            else:
                errors += [
                    f"{name}: round {len(rounds)} printed different output from round 1"
                    for name in outputs if outputs[name] != first[name]
                ]
            failed += round_failed
            attempted += len(wl.ops)
            if len(rounds) % per_block == 0:
                block = elapsed / (len(rounds) // per_block)
                since = time.perf_counter() - began
                if elapsed >= args.seconds or since + block > HARD_STOP_S:
                    break
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "rounds": rounds,
        "environment": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "spherecorr": spherecorr.__version__,
            "spherecorr_path": str(Path(spherecorr.__file__).parent),
            "threads": wl.threads,
        },
    }
    if tracer is not None:
        per_layer = {key: statistics.median(r[key] for r in layer_rounds) for key in layer_rounds[0]}
        traced_wall = statistics.median(r["wall_s"] for r in rounds if r["traced"])
        per_layer["trace.overhead"] = traced_wall / report["wall_s"]
        report["per_layer"] = per_layer
        report["spans"] = spans
    Path(args.report).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
