"""The three workloads: their operations, inputs and output checks.

Every operation is a ``spherecorr.cli.main(argv)`` call with stdout captured,
except ``vdiam6``, which calls the library.  The workload seed reaches every
operation as ``--seed`` (or as the ``RngStream`` seed), except
``verify_geometry``, which keeps a fixed seed so that its known failure is the
same on every run.

Two planned operations are left out because they fail on some seeds only:
``distortion --corr odd-rk --k 5`` with refinement, whose estimate can exceed
(k-1)pi/k by ~1e-11 (seed 130), and ``verify --scope odd``, whose
``boundary-search-dominates`` invariant compares two sampled maxima (seed 107).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import checks

# Collapse and vdiam sample budgets: large enough that refinement dominates
# `refine`, small enough that a round takes seconds, not minutes.
RPQ4_SAMPLES = 262_144
VDIAM6_SAMPLES = 100_000
SWEEP_SAMPLES = 1_048_576
GEOMETRY_SAMPLES = 1_000_000
GEOMETRY_SEED = 0
TABLE_KS = range(8, 17)

Check = Callable[[int, str, dict], "tuple[bool, list[str]]"]


@dataclass
class Op:
    """One timed operation: ``run()`` returns (exit code, output text)."""

    name: str
    run: Callable[[], tuple[int, str]]
    check: Check
    reuse_cache: str | None = None  # run in the cache directory this op filled
    # Untimed rerun at refine_iters=0 for the traced run's refinement gain:
    # (layer, rerun, estimate-from-output).
    gain: tuple[str, Callable[[], tuple[int, str]], Callable[[str], float]] | None = None


@dataclass
class Workload:
    threads: int
    ops: list[Op]
    # (op name, rerun at --threads 1) whose bytes must match the timed run.
    thread_check: tuple[str, Callable[[], tuple[int, str]]] | None = None


def cli_runner(argv: list[str]) -> Callable[[], tuple[int, str]]:
    from spherecorr import cli

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        return rc, buf.getvalue()

    return run


def _plain(errors_of) -> Check:
    """A check that never counts a failure: any error makes the run incorrect."""

    def check(rc, text, outputs):
        errs = errors_of(text, outputs)
        if rc != 0:
            errs = [f"exit code {rc}"] + errs
        return False, errs

    return check


def _estimate(text: str) -> float:
    return float(json.loads(text)["estimate"])


def _distortion_op(name, corr, k, samples, threads, seed, refine=True) -> Op:
    base = ["distortion", "--corr", corr, "--k", str(k), "--samples", str(samples),
            "--threads", str(threads), "--seed", str(seed)]
    argv = base if refine else base + ["--refine-iters", "0"]
    checker = checks.check_odd_distortion if corr == "odd-rk" else checks.check_collapse_distortion
    gain = None
    if refine:
        gain = ("distortion", cli_runner(base + ["--refine-iters", "0"]), _estimate)
    return Op(name, cli_runner(argv), _plain(lambda text, _: checker(text, k, seed)), gain=gain)


def _verify_op(name, scope, threads, seed, extra=()) -> Op:
    argv = ["verify", "--scope", scope, *extra, "--threads", str(threads), "--seed", str(seed)]
    return Op(name, cli_runner(argv), lambda rc, text, _: (False, checks.check_verify(rc, text, scope)))


def _vdiam_op(seed: int) -> Op:
    from spherecorr import pointsets
    from spherecorr.rng import RngStream

    k = 6
    aset = pointsets.cross_polytope_set(k)

    def call(refine_iters):
        def run():
            value, (u, v) = pointsets.voronoi_diameter_estimate(
                aset, VDIAM6_SAMPLES, refine_iters=refine_iters, rng=RngStream(seed), threads=1
            )
            return 0, json.dumps({"value": value, "u": u.coords.tolist(), "v": v.coords.tolist()})

        return run

    def errors(text, _):
        out = json.loads(text)
        return checks.check_cross_vdiam(out["value"], out["u"], out["v"], k)

    gain = ("pointsets", call(0), lambda text: json.loads(text)["value"])
    return Op("vdiam6", call(200), _plain(errors), gain=gain)


def _geometry_op(threads: int) -> Op:
    argv = ["verify", "--scope", "geometry", "--samples", str(GEOMETRY_SAMPLES),
            "--threads", str(threads), "--seed", str(GEOMETRY_SEED)]
    return Op("verify_geometry", cli_runner(argv), lambda rc, text, _: checks.classify_geometry(rc, text))


def _table_ops(seed: int) -> list[Op]:
    ks = f"{TABLE_KS.start}..{TABLE_KS.stop - 1}"
    argv = ["table", "--n", "2", "--k", ks, "--threads", "1", "--seed", str(seed)]

    def warm(text, outputs):
        errs = checks.check_table(text, TABLE_KS)
        if text != outputs["table_cold"][1]:
            errs.append("table_warm printed different bytes from table_cold")
        return errs

    return [
        Op("table_cold", cli_runner(argv), _plain(lambda text, _: checks.check_table(text, TABLE_KS))),
        Op("table_warm", cli_runner(argv), _plain(warm), reuse_cache="table_cold"),
    ]


def _packing_op(name, n, k, seed, anchor=None) -> Op:
    argv = ["packing", "--n", str(n), "--k", str(k), "--threads", "1", "--seed", str(seed)]
    return Op(name, cli_runner(argv), _plain(lambda text, _: checks.check_packing(text, n, k, anchor)))


def build(name: str, seed: int) -> Workload:
    """The operations of workload ``name`` at ``seed``, ready to run."""
    if name == "refine":
        return Workload(1, [
            _distortion_op("rpq4", "rpq-even-cross", 4, RPQ4_SAMPLES, 1, seed),
            _vdiam_op(seed),
            _verify_op("verify_pointsets", "pointsets", 1, seed),
        ])
    if name == "sample":
        single = ["distortion", "--corr", "odd-rk", "--k", "3", "--samples", str(SWEEP_SAMPLES),
                  "--threads", "1", "--seed", str(seed), "--refine-iters", "0"]
        return Workload(2, [
            _distortion_op("odd3_sweep", "odd-rk", 3, SWEEP_SAMPLES, 2, seed, refine=False),
            _distortion_op("rpq4_sweep", "rpq-even-cross", 4, SWEEP_SAMPLES, 2, seed, refine=False),
            _geometry_op(2),
            _verify_op("verify_rpq", "rpq", 2, seed, ("--k", "2..6")),
        ], thread_check=("odd3_sweep", cli_runner(single)))
    if name == "pack":
        return Workload(1, _table_ops(seed) + [
            _packing_op("packing_anchor", 2, 5, seed, anchor=math.acos(1 / math.sqrt(5))),
            _packing_op("packing_rp3", 3, 12, seed),
            _verify_op("verify_packing", "packing", 1, seed),
        ])
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("refine", "sample", "pack")
OPS = {
    "refine": ("rpq4", "vdiam6", "verify_pointsets"),
    "sample": ("odd3_sweep", "rpq4_sweep", "verify_geometry", "verify_rpq"),
    "pack": ("table_cold", "table_warm", "packing_anchor", "packing_rp3", "verify_packing"),
}
