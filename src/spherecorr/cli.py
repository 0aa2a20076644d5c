"""Batch command-line front end.

Subcommands: ``bound`` (closed-form bound tables), ``distortion`` (empirical
distortion runs), ``packing`` (projective packing optimization), ``verify``
(the numeric invariant suite), and ``table`` (packing-driven asymptotic
rows).  For ``packing`` and ``table``, ``--samples`` counts soft-ascent steps
and ``--refine-iters`` polish steps.  Output is deterministic JSON lines or
CSV: identical flags plus seed reproduce identical bytes at any worker count.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import packing, pointsets, serialize
from .distortion import SearchBudget, estimate_distortion
from .odd_corr import OddCircleCorrespondence
from .rng import RngStream
from .verify import SCOPES, run_verify
from .voronoi_corr import VoronoiCorrespondence, rpq_bound

USAGE_ERROR = 2


def parse_k_range(text: str) -> list[int]:
    """Parse ``7`` or an inclusive range ``3..40`` into a list of ints."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _emit(rows: list[dict], fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = "\n".join(serialize.dumps(row) for row in rows) + "\n"
    else:
        header = list(rows[0].keys())
        lines = [",".join(header)]
        for row in rows:
            cells = []
            for key in header:
                value = row[key]
                if isinstance(value, float):
                    cells.append(serialize.format_float(value))
                else:
                    cells.append(str(value))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _bound_rows(n: int, k_values: list[int]) -> list[dict]:
    rows = []
    for k in k_values:
        value, tag = packing.best_bound(n, k)
        rows.append(
            {
                "n": n,
                "k": k,
                "two_dgh_bound": value,
                "two_dgh_bound_over_pi": value / np.pi,
                "exactness": tag,
                "euclidean_bound": packing.euclidean_bound(value),
                "source": packing.bound_source(n, k),
            }
        )
    return rows


def cmd_bound(args) -> int:
    # best_bound rejects every (n, k) outside 1 <= n < k before a row is printed
    _emit(_bound_rows(args.n, parse_k_range(args.k)), args.format, args.out)
    return 0


def _single_k(text: str) -> int:
    values = parse_k_range(text)
    if len(values) != 1:
        raise ValueError("this command runs on a single k, not a range")
    return values[0]


def cmd_distortion(args) -> int:
    k = _single_k(args.k)
    rng = RngStream(args.seed)
    if args.corr == "odd-rk":
        if k < 3 or k % 2 == 0:
            raise ValueError("the odd-rk correspondence needs odd k >= 3")
        corr = OddCircleCorrespondence(k)
        bound = (k - 1) * np.pi / k
    elif args.corr == "rpq-even-cross":
        if k < 2:
            raise ValueError("rpq-even-cross needs k >= 2")
        corr = VoronoiCorrespondence(
            pointsets.evenly_spaced_circle_set(k + 1), pointsets.cross_polytope_set(k)
        )
        bound = rpq_bound(corr, np.pi / (k + 1), pointsets.cross_polytope_vdiam_exact(k))
    else:
        raise ValueError(f"unknown correspondence selector {args.corr!r}")
    budget = SearchBudget(args.samples, args.refine_iters, args.restarts)
    report = estimate_distortion(corr, budget, rng, bound=bound, threads=args.threads)
    _emit([report.to_json_dict()], args.format, args.out)
    return 0


def cmd_packing(args) -> int:
    k = _single_k(args.k)
    if args.n < 1 or k <= args.n:
        raise ValueError("packing needs 1 <= n < k")
    budget = packing.PackingBudget(args.samples, args.refine_iters, args.restarts)
    store = packing.PackingStore()
    m = k + 1
    rng = RngStream(args.seed)
    result = store.load(args.n, m, budget, rng)
    if result is None:
        result = packing.optimize_packing(args.n, m, budget, rng)
        store.save(args.n, m, budget, rng, result)
    row = result.to_json_dict()
    row.update({"n": args.n, "m": m, "min_dist_over_pi": result.min_dist / np.pi})
    _emit([row], args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    k_values = parse_k_range(args.k) if args.k else None
    results = run_verify(
        args.scope, k_values=k_values, samples=args.samples, seed=args.seed, threads=args.threads
    )
    _emit([r.to_json_dict() for r in results], "json", args.out)
    return 0 if all(r.passed for r in results) else 1


def cmd_table(args) -> int:
    # asymptotic_table rejects n < 2 and each k <= n before it optimizes that row
    rows = packing.asymptotic_table(
        args.n,
        parse_k_range(args.k),
        budget=packing.PackingBudget(args.samples, args.refine_iters, args.restarts),
        rng=RngStream(args.seed),
        store=packing.PackingStore(),
    )
    slim = [{key: row[key] for key in ("k", "bound", "gap", "gap_sqrtk")} for row in rows]
    _emit(slim, args.format, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherecorr",
        description="Sphere correspondences: distortion bounds, estimates, and packings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def seeded(p, samples_default):
        p.add_argument("--samples", type=int, default=samples_default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", default=None)

    def common(p, samples_default):
        seeded(p, samples_default)
        p.add_argument("--refine-iters", type=int, default=200, dest="refine_iters")
        p.add_argument("--restarts", type=int, default=8)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_bound = sub.add_parser("bound", help="closed-form bound table rows")
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--k", required=True, help="single value or inclusive range a..b")
    p_bound.add_argument("--format", choices=("json", "csv"), default="json")
    p_bound.add_argument("--out", default=None)
    p_bound.set_defaults(func=cmd_bound)

    p_dist = sub.add_parser("distortion", help="estimate the distortion of a correspondence")
    p_dist.add_argument("--corr", required=True, choices=("rpq-even-cross", "odd-rk"))
    p_dist.add_argument("--k", required=True)
    common(p_dist, 1_000_000)
    p_dist.set_defaults(func=cmd_distortion)

    p_pack = sub.add_parser("packing", help="optimize a packing of k+1 points in RP^n")
    p_pack.add_argument("--n", type=int, required=True)
    p_pack.add_argument("--k", required=True)
    common(p_pack, 1600)
    p_pack.set_defaults(func=cmd_packing)

    p_ver = sub.add_parser("verify", help="run the numeric invariant suite")
    p_ver.add_argument(
        "--scope", default="all", choices=SCOPES + ("all",)
    )
    p_ver.add_argument("--k", default=None, help="k values for rpq/odd scopes (a..b allowed)")
    seeded(p_ver, 20000)
    p_ver.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="packing-driven asymptotic bound table")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--k", required=True, help="inclusive range a..b")
    common(p_table, 1600)
    p_table.set_defaults(func=cmd_table)
    p_table.set_defaults(format="csv")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
