"""Which spherecorr functions the traced run wraps, and the per-layer metrics.

Each layer is a module of spherecorr.  Phase A of an estimator is the
``run_shards`` span directly under it; phase B (candidate refinement) is the
rest of the estimator's span.  Hot scalar calls (``variants_of_free``,
``tangent_step``, ``RngStream.generator``) are counters, not spans.
"""

from __future__ import annotations

import functools

from tracing import Tracer

# verify scopes the workloads run; the odd scope is left out (see workloads.py).
SCOPES = ("geometry", "pointsets", "rpq", "packing")

# (name, unit, better) for every per-layer metric except the per-op
# ``cli.<op>_s`` times, which come from the workload table.
PER_LAYER = [
    ("distortion.estimate_s", "s", "lower"),
    ("distortion.phase_a_s", "s", "lower"),
    ("distortion.phase_b_s", "s", "lower"),
    ("distortion.refine_calls", "count", "lower"),
    ("distortion.refine_improved", "count", "higher"),
    ("distortion.refine_gain", "rad", "higher"),
    ("distortion.samples_used", "count", "higher"),
    ("distortion.samples_per_s", "1/s", "higher"),
    ("odd_corr.variants_calls", "count", "lower"),
    ("odd_corr.variants_s", "s", "lower"),
    ("odd_corr.sample_batch_s", "s", "lower"),
    ("odd_corr.focus_pairs_s", "s", "lower"),
    ("voronoi_corr.variants_calls", "count", "lower"),
    ("voronoi_corr.variants_s", "s", "lower"),
    ("voronoi_corr.sample_batch_s", "s", "lower"),
    ("voronoi_corr.focus_pairs_s", "s", "lower"),
    ("pointsets.vdiam_s", "s", "lower"),
    ("pointsets.vdiam_phase_a_s", "s", "lower"),
    ("pointsets.vdiam_phase_b_s", "s", "lower"),
    ("pointsets.vdiam_refine_gain", "rad", "higher"),
    ("pointsets.hausdorff_s", "s", "lower"),
    ("geometry.geodesic_many_rows", "count", "lower"),
    ("geometry.geodesic_many_s", "s", "lower"),
    ("geometry.sample_uniform_rows", "count", "lower"),
    ("geometry.sample_uniform_s", "s", "lower"),
    ("geometry.tangent_step_calls", "count", "lower"),
    ("parallel.run_shards_calls", "count", "lower"),
    ("parallel.shards", "count", "lower"),
    ("parallel.run_shards_s", "s", "lower"),
    ("packing.optimize_calls", "count", "lower"),
    ("packing.optimize_s", "s", "lower"),
    ("packing.restarts", "count", "lower"),
    ("packing.restarts_per_s", "1/s", "higher"),
    ("packing.table_s", "s", "lower"),
    ("packing.covering_s", "s", "lower"),
    ("packing.store_loads", "count", "lower"),
    ("packing.store_hits", "count", "higher"),
    ("packing.store_load_s", "s", "lower"),
    ("packing.store_saves", "count", "lower"),
    ("packing.store_save_s", "s", "lower"),
    ("serialize.dumps_calls", "count", "lower"),
    ("serialize.dumps_bytes", "bytes", "lower"),
    ("serialize.dumps_s", "s", "lower"),
] + [(f"verify.{scope}_s", "s", "lower") for scope in SCOPES] + [
    ("rng.generators", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def install(t: Tracer) -> None:
    """Wrap the public functions of every layer; ``t.uninstall()`` undoes it."""
    from spherecorr import (
        distortion, geometry, odd_corr, packing, parallel, pointsets, rng, serialize, verify,
        voronoi_corr,
    )

    def count(key, value_of):
        return lambda args, kwargs, out: t.add(key, value_of(out))

    t.patch_function(
        distortion, "estimate_distortion",
        t.spanned("distortion.estimate", count("distortion.samples_used", lambda r: r.samples_used)),
    )
    objective = distortion.pair_objective

    def refine(fn):
        @functools.wraps(fn)
        def wrapper(corr, pair, *args, **kwargs):
            before = objective(corr, *pair)
            with t.span("distortion.refine_pair"):
                out = fn(corr, pair, *args, **kwargs)
            t.add("distortion.refine_improved", out[1] > before)
            return out

        return wrapper

    t.patch_function(distortion, "refine_pair", refine)
    t.patch_function(
        parallel, "run_shards",
        t.spanned("parallel.run_shards", count("parallel.shards", len)),
    )
    for cls, layer in (
        (odd_corr.OddCircleCorrespondence, "odd_corr"),
        (voronoi_corr.VoronoiCorrespondence, "voronoi_corr"),
    ):
        t.patch_method(cls, "variants_of_free", t.counted(f"{layer}.variants"))
        t.patch_method(cls, "sample_batch", t.counted(f"{layer}.sample_batch"))
        t.patch_method(cls, "sample_focus_pairs", t.counted(f"{layer}.focus_pairs"))

    length = lambda args, kwargs, out: len(out)  # noqa: E731
    t.patch_function(geometry, "geodesic_many", t.counted("geometry.geodesic_many", size=length))
    t.patch_function(geometry, "sample_uniform_many", t.counted("geometry.sample_uniform", size=length))
    t.patch_function(geometry, "tangent_step", t.counted("geometry.tangent_step", timed=False))

    t.patch_function(pointsets, "voronoi_diameter_estimate", t.spanned("pointsets.vdiam"))
    t.patch_function(pointsets, "hausdorff_to_sphere_estimate", t.spanned("pointsets.hausdorff"))

    t.patch_function(
        packing, "optimize_packing",
        t.spanned("packing.optimize", count("packing.restarts", lambda r: r.restarts_used)),
    )
    t.patch_function(packing, "asymptotic_table", t.spanned("packing.table"))
    t.patch_function(packing, "covering_radius_estimate", t.spanned("packing.covering"))
    t.patch_method(
        packing.PackingStore, "load",
        t.spanned("packing.store_load", count("packing.store_hits", lambda r: r is not None)),
    )
    t.patch_method(packing.PackingStore, "save", t.spanned("packing.store_save"))

    t.patch_function(serialize, "dumps", t.counted("serialize.dumps", size=length))
    for scope in SCOPES:
        t.patch_function(verify, f"check_{scope}", t.spanned(f"verify.{scope}"))
    t.patch_method(rng.RngStream, "generator", t.counted("rng.generator", timed=False))


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def metrics(t: Tracer, gains: dict[str, float]) -> dict[str, float]:
    """Per-layer values of one traced round, in ``PER_LAYER`` order (without cli/trace)."""
    c = t.counts
    estimate = t.total("distortion.estimate")
    phase_a = t.total("parallel.run_shards", parent="distortion.estimate")
    vdiam = t.total("pointsets.vdiam")
    vdiam_a = t.total("parallel.run_shards", parent="pointsets.vdiam")
    optimize = t.total("packing.optimize")
    out = {
        "distortion.estimate_s": estimate,
        "distortion.phase_a_s": phase_a,
        "distortion.phase_b_s": estimate - phase_a,
        "distortion.refine_calls": t.calls("distortion.refine_pair"),
        "distortion.refine_improved": c["distortion.refine_improved"],
        "distortion.refine_gain": gains.get("distortion", 0.0),
        "distortion.samples_used": c["distortion.samples_used"],
        "distortion.samples_per_s": _rate(c["distortion.samples_used"], phase_a),
    }
    for layer in ("odd_corr", "voronoi_corr"):
        out[f"{layer}.variants_calls"] = c[f"{layer}.variants.calls"]
        out[f"{layer}.variants_s"] = c[f"{layer}.variants.s"]
        out[f"{layer}.sample_batch_s"] = c[f"{layer}.sample_batch.s"]
        out[f"{layer}.focus_pairs_s"] = c[f"{layer}.focus_pairs.s"]
    out.update({
        "pointsets.vdiam_s": vdiam,
        "pointsets.vdiam_phase_a_s": vdiam_a,
        "pointsets.vdiam_phase_b_s": vdiam - vdiam_a,
        "pointsets.vdiam_refine_gain": gains.get("pointsets", 0.0),
        "pointsets.hausdorff_s": t.total("pointsets.hausdorff"),
        "geometry.geodesic_many_rows": c["geometry.geodesic_many.size"],
        "geometry.geodesic_many_s": c["geometry.geodesic_many.s"],
        "geometry.sample_uniform_rows": c["geometry.sample_uniform.size"],
        "geometry.sample_uniform_s": c["geometry.sample_uniform.s"],
        "geometry.tangent_step_calls": c["geometry.tangent_step.calls"],
        "parallel.run_shards_calls": t.calls("parallel.run_shards"),
        "parallel.shards": c["parallel.shards"],
        "parallel.run_shards_s": t.total("parallel.run_shards"),
        "packing.optimize_calls": t.calls("packing.optimize"),
        "packing.optimize_s": optimize,
        "packing.restarts": c["packing.restarts"],
        "packing.restarts_per_s": _rate(c["packing.restarts"], optimize),
        "packing.table_s": t.total("packing.table"),
        "packing.covering_s": t.total("packing.covering"),
        "packing.store_loads": t.calls("packing.store_load"),
        "packing.store_hits": c["packing.store_hits"],
        "packing.store_load_s": t.total("packing.store_load"),
        "packing.store_saves": t.calls("packing.store_save"),
        "packing.store_save_s": t.total("packing.store_save"),
        "serialize.dumps_calls": c["serialize.dumps.calls"],
        "serialize.dumps_bytes": c["serialize.dumps.size"],
        "serialize.dumps_s": c["serialize.dumps.s"],
    })
    for scope in SCOPES:
        out[f"verify.{scope}_s"] = t.total(f"verify.{scope}")
    out["rng.generators"] = c["rng.generator.calls"]
    return out
