"""Batch command-line front end.

Subcommands: ``bound`` (closed-form bound tables), ``distortion`` (empirical
distortion runs), ``packing`` (projective packing optimization), ``verify``
(the numeric invariant suite), and ``table`` (packing-driven asymptotic
rows).  ``distortion`` takes the fields of a ``SearchBudget`` as flags and
``packing`` and ``table`` those of a ``PackingBudget``, each with the
dataclass's own defaults.  Output is deterministic JSON lines (``bound`` and
``table`` also print CSV): identical flags plus seed reproduce identical
bytes at any worker count.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import packing, serialize
from .distortion import SearchBudget, estimate_distortion
from .odd_corr import OddCircleCorrespondence
from .rng import RngStream
from .verify import DEFAULT_SAMPLES, SCOPES, run_verify
from .voronoi_corr import even_cross

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


def cmd_bound(args) -> int:
    # best_bound rejects every (n, k) outside 1 <= n < k before a row is printed
    _emit(packing.bound_table(args.n, parse_k_range(args.k)), args.format, args.out)
    return 0


def _single_k(text: str) -> int:
    values = parse_k_range(text)
    if len(values) != 1:
        raise ValueError("this command runs on a single k, not a range")
    return values[0]


def cmd_distortion(args) -> int:
    k = _single_k(args.k)
    if args.corr == "odd-rk":
        corr, bound = OddCircleCorrespondence(k), packing.circle_to_sphere_exact(k)
    else:
        corr, bound = even_cross(k)
    report = estimate_distortion(corr, _budget(args, SearchBudget), RngStream(args.seed), threads=args.threads)
    _emit([{**report.to_json_dict(), "bound": bound}], "json", args.out)
    return 0


def cmd_packing(args) -> int:
    k = _single_k(args.k)
    if args.n < 1 or k <= args.n:
        raise ValueError("packing needs 1 <= n < k")
    m = k + 1
    result = packing.cached_packing(
        args.n, m, _budget(args, packing.PackingBudget), RngStream(args.seed), packing.PackingStore()
    )
    row = result.to_json_dict()
    row.update({"n": args.n, "m": m, "min_dist_over_pi": result.min_dist / np.pi})
    _emit([row], "json", args.out)
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
        budget=_budget(args, packing.PackingBudget),
        rng=RngStream(args.seed),
        store=packing.PackingStore(),
    )
    _emit(rows, args.format, args.out)
    return 0


def _budget_flags(p, budget_type) -> None:
    """One flag per field of ``budget_type``, with the dataclass's default."""
    for field in dataclasses.fields(budget_type):
        p.add_argument("--" + field.name.replace("_", "-"), type=int, default=field.default)


def _budget(args, budget_type):
    """The ``budget_type`` that the flags of :func:`_budget_flags` parsed into ``args``."""
    return budget_type(**{f.name: getattr(args, f.name) for f in dataclasses.fields(budget_type)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherecorr",
        description="Sphere correspondences: distortion bounds, estimates, and packings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, fmt=None, seeded=True):
        p = sub.add_parser(name, help=help)
        if fmt is not None:
            p.add_argument("--format", choices=("json", "csv"), default=fmt)
        if seeded:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
        return p

    p_bound = command("bound", cmd_bound, "closed-form bound table rows", fmt="json", seeded=False)
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--k", required=True, help="single value or inclusive range a..b")

    p_dist = command("distortion", cmd_distortion, "estimate the distortion of a correspondence")
    p_dist.add_argument("--corr", required=True, choices=("rpq-even-cross", "odd-rk"))
    p_dist.add_argument("--k", required=True)
    _budget_flags(p_dist, SearchBudget)

    p_pack = command("packing", cmd_packing, "optimize a packing of k+1 points in RP^n")
    p_pack.add_argument("--n", type=int, required=True)
    p_pack.add_argument("--k", required=True)
    _budget_flags(p_pack, packing.PackingBudget)

    p_ver = command("verify", cmd_verify, "run the numeric invariant suite")
    p_ver.add_argument("--scope", default="all", choices=SCOPES + ("all",))
    p_ver.add_argument("--k", default=None, help="k values for rpq/odd scopes (a..b allowed)")
    p_ver.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)

    p_table = command("table", cmd_table, "packing-driven asymptotic bound table", fmt="csv")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--k", required=True, help="inclusive range a..b")
    _budget_flags(p_table, packing.PackingBudget)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "threads", None) is not None and args.threads < 1:
            raise ValueError(f"threads must be >= 1; got {args.threads}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
