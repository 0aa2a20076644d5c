"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure).  The heavy computations shared with the determinism criterion run
once per worker count through session fixtures.
"""

import time

import numpy as np
import pytest

from spherecorr import (
    OddCircleCorrespondence,
    PackingBudget,
    PackingStore,
    RngStream,
    SearchBudget,
    VoronoiCorrespondence,
    arc_augmented_set,
    asymptotic_table,
    best_bound,
    cross_polytope_set,
    cross_polytope_vdiam_exact,
    estimate_distortion,
    evenly_spaced_circle_set,
    optimize_packing,
    rpq_bound,
    separation,
    voronoi_diameter_estimate,
)
from spherecorr import pointsets
from spherecorr.geometry import sample_uniform_many
from spherecorr.serialize import dumps
from spherecorr.verify import (
    CORNER_K3,
    PACKING_ANCHORS,
    arc_set_sweep,
    corner_correspondent_error,
    cross_cell_diameter_gaps,
    cross_vdiam_error,
    cyclic_shift_violation,
    distance_decrease_violations,
    nine_case_witnesses,
    odd_window_violation,
    odd_witness_error,
    z2_violation,
)

WORKER_COUNTS = (1, 4, 8)

SEED = 2024


def report(num: int, ok: bool, text: str):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


# ---------------------------------------------------------------------------
# shared heavy runs (used by criteria 2, 5, 10 and re-checked by criterion 12)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def vdiam_runs():
    runs = {}
    for workers in WORKER_COUNTS:
        t0 = time.perf_counter()
        per_k = {}
        for k in range(2, 7):
            value, (u, v) = voronoi_diameter_estimate(
                cross_polytope_set(k), 100_000, 200, RngStream(SEED, (2, k)), threads=workers
            )
            per_k[k] = dumps({"k": k, "value": value, "u": u.coords, "v": v.coords})
        runs[workers] = (per_k, time.perf_counter() - t0)
    return runs


@pytest.fixture(scope="session")
def odd_distortion_runs():
    budget = SearchBudget(samples=1_000_000, refine_iters=200)
    runs = {}
    for workers in WORKER_COUNTS:
        per_k = {}
        for k in (3, 5, 7):
            t0 = time.perf_counter()
            rep = estimate_distortion(
                OddCircleCorrespondence(k),
                budget,
                RngStream(SEED, (5, k)),
                threads=workers,
            )
            per_k[k] = (dumps(rep.to_json_dict()), rep.estimate, time.perf_counter() - t0)
        runs[workers] = per_k
    return runs


@pytest.fixture(scope="session")
def packing_runs():
    anchor_budget = PackingBudget(1600, 400, 16)
    wide_budget = PackingBudget(1600, 400, 64)
    runs = {}
    for workers in WORKER_COUNTS:
        t0 = time.perf_counter()
        results = {}
        for n, m in PACKING_ANCHORS:
            budget = wide_budget if (n, m) == (2, 4) else anchor_budget
            results[n, m] = optimize_packing(n, m, budget, RngStream(SEED, (10, 10 * n + m)))
        blob = dumps({f"{n}-{m}": r.to_json_dict() for (n, m), r in results.items()})
        runs[workers] = (results, blob, time.perf_counter() - t0)
    return runs


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_closed_form_bounds():
    worst = 0.0
    for k in range(2, 22):
        value, tag = best_bound(1, k)
        half = k // 2
        expected = k * np.pi / (k + 1) if k % 2 == 0 else (k - 1) * np.pi / k
        assert tag == "exact"
        worst = max(worst, abs(value - expected))
        assert abs(2 * np.pi * half / (2 * half + 1) - expected) <= 1e-15
    for n in range(2, 21):
        for k in range(n + 1, 22):
            value, tag = best_bound(n, k)
            worst = max(worst, abs(value - np.pi * k / (k + 1)))
            assert tag == "upper-bound"
    report(1, worst <= 1e-12, f"closed-form bound table, worst error {worst:.2e}")


def test_criterion_02_cross_polytope_vdiam(vdiam_runs):
    import json

    per_k, elapsed = vdiam_runs[4]
    worst = 0.0
    for k in range(2, 7):
        worst = max(worst, cross_vdiam_error(k, json.loads(per_k[k])["value"]))
        assert separation(cross_polytope_set(k)) == np.pi / 2
    ok = worst <= 0.01 and elapsed < 30.0
    report(2, ok, f"sampled cell diameters, worst error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_diameter_inequality_sweep():
    worst, eq_err = cross_cell_diameter_gaps()
    ok = worst <= 1e-12 and eq_err <= 1e-12
    report(3, ok, f"diameter inequality sweep, worst excess {worst:.2e}, k=3 gap {eq_err:.2e}")


def test_criterion_04_corner_correspondents():
    worst = max(corner_correspondent_error(*corner) for corner in CORNER_K3)
    report(4, worst <= 1e-12, f"corner correspondent angles, worst error {worst:.2e}")


def test_criterion_05_odd_correspondence_distortion(odd_distortion_runs):
    ok = True
    notes = []
    for k in (3, 5, 7):
        witness_err = odd_witness_error(k)
        ok &= witness_err <= 1e-12
        for workers in WORKER_COUNTS:
            _, estimate, elapsed = odd_distortion_runs[workers][k]
            ok &= odd_window_violation(k, estimate) <= 0.0
            ok &= elapsed < 300.0
        _, estimate, elapsed = odd_distortion_runs[4][k]
        gap = (k - 1) * np.pi / k - estimate
        notes.append(f"k={k}: witness err {witness_err:.1e}, est gap {gap:+.1e}, {elapsed:.0f}s")
    report(5, ok, "; ".join(notes))


def test_criterion_06_distance_decrease():
    ok = True
    notes = []
    for k in (3, 5, 7, 9):
        bad, margin = distance_decrease_violations(k, 1_000_000, RngStream(SEED, (6, k)))
        ok &= bad == 0
        notes.append(f"k={k}: {bad} violations (closest margin {margin:.2e})")
    report(6, ok, "; ".join(notes))


def test_criterion_07_shift_relations():
    worst = 0.0
    for k in (3, 5, 7):
        worst = max(worst, cyclic_shift_violation(k, 100_000, RngStream(SEED, (7, k, 0))))
        worst = max(worst, z2_violation(k, 100_000, RngStream(SEED, (7, k, 1))))
    report(7, worst <= 1e-12, f"cyclic and antipodal shift relations, worst {worst:.2e}")


def _mixed_configurations():
    configs = []
    for k in range(2, 7):
        configs.append((evenly_spaced_circle_set(k + 1), cross_polytope_set(k)))
    for m in range(2, 7):
        configs.append((evenly_spaced_circle_set(m), evenly_spaced_circle_set(m)))
    for n, k in ((2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5)):
        configs.append((arc_augmented_set(n, k), cross_polytope_set(k)))
    gen1 = sample_uniform_many(2, 5, RngStream(SEED, (8, 1)))
    configs.append((pointsets.AntipodalSet(gen1), cross_polytope_set(4)))
    gen2 = sample_uniform_many(3, 6, RngStream(SEED, (8, 2)))
    gen3 = sample_uniform_many(4, 6, RngStream(SEED, (8, 3)))
    configs.append((pointsets.AntipodalSet(gen2), pointsets.AntipodalSet(gen3)))
    return configs


def _vdiam_for(aset, stream):
    if aset.dim == 1:
        return voronoi_diameter_estimate(aset, 16, 0, stream)[0]
    if aset.label == "cross-polytope":
        return cross_polytope_vdiam_exact(aset.dim)
    return voronoi_diameter_estimate(aset, 32768, 200, stream)[0]


def test_criterion_08_collapse_soundness():
    configs = _mixed_configurations()
    assert len(configs) == 20
    worst = -np.inf
    for idx, (P, Q) in enumerate(configs):
        corr = VoronoiCorrespondence(P, Q)
        vd_p = _vdiam_for(P, RngStream(SEED, (8, 10, idx)))
        vd_q = _vdiam_for(Q, RngStream(SEED, (8, 11, idx)))
        bound = rpq_bound(corr, vd_p, vd_q)
        rep = estimate_distortion(
            corr,
            SearchBudget(samples=32768, refine_iters=60),
            RngStream(SEED, (8, 12, idx)),
        )
        worst = max(worst, rep.estimate - bound)
    case_worst = 0.0
    for k in range(2, 7):
        for case, obj, cbound in nine_case_witnesses(k, 20000, RngStream(SEED, (8, 13, k))):
            case_worst = max(case_worst, obj - cbound)
    ok = worst <= 1e-6 and case_worst <= 1e-9
    report(
        8, ok,
        f"20 collapse configs, worst estimate-bound excess {worst:.2e}; "
        f"nine-case worst excess {case_worst:.2e}",
    )


def test_criterion_09_arc_sets():
    worst_sep = 0.0
    worst_vd = 0.0
    count_bad = 0
    for n, k, aset, sep_deficit, count_err in arc_set_sweep():
        count_bad += count_err > 0
        worst_sep = max(worst_sep, sep_deficit)
        vd, _ = voronoi_diameter_estimate(aset, 2048, 20, RngStream(SEED, (9, n, k)))
        worst_vd = max(worst_vd, vd - np.pi * n / (n + 1))
    ok = count_bad == 0 and worst_sep <= 1e-12 and worst_vd <= 0.02
    report(
        9, ok,
        f"arc sets 2<=n<k<=30: counts ok, worst separation deficit {worst_sep:.2e}, "
        f"worst vdiam excess {worst_vd:.2e}",
    )


def test_criterion_10_packing_anchors(packing_runs):
    results, _, elapsed = packing_runs[4]
    errs = {key: abs(results[key].min_dist - target) for key, (target, _) in PACKING_ANCHORS.items()}
    ok = all(errs[key] <= tol for key, (_, tol) in PACKING_ANCHORS.items()) and elapsed < 120.0
    note = ", ".join(f"({n},{m}) err {val:.1e}" for (n, m), val in errs.items())
    report(10, ok, f"packing anchors: {note}, {elapsed:.0f}s")


def test_criterion_11_asymptotic_slope(tmp_path):
    budget = PackingBudget(1200, 300, 10)
    store = PackingStore(tmp_path / "cache")
    ks = list(range(8, 41))
    t0 = time.perf_counter()
    rows = asymptotic_table(2, ks, budget, RngStream(SEED, (11,)), store=store)
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    rows_warm = asymptotic_table(2, ks, budget, RngStream(SEED, (11,)), store=store)
    warm = time.perf_counter() - t0
    gaps = np.array([row["gap"] for row in rows])
    slope = float(np.polyfit(np.log(ks), np.log(gaps), 1)[0])
    ok = (
        abs(slope + 0.5) <= 0.15
        and np.all(gaps > 0)
        and cold < 900.0
        and warm < 10.0
        and dumps(rows) == dumps(rows_warm)
    )
    report(11, ok, f"slope {slope:.3f} (target -0.5 +- 0.15), cold {cold:.0f}s, warm {warm:.2f}s")


def test_criterion_12_determinism(vdiam_runs, odd_distortion_runs, packing_runs):
    ok = True
    for k in range(2, 7):
        blobs = {w: vdiam_runs[w][0][k] for w in WORKER_COUNTS}
        ok &= blobs[1] == blobs[4] == blobs[8]
    for k in (3, 5, 7):
        blobs = {w: odd_distortion_runs[w][k][0] for w in WORKER_COUNTS}
        ok &= blobs[1] == blobs[4] == blobs[8]
    pack_blobs = {w: packing_runs[w][1] for w in WORKER_COUNTS}
    ok &= pack_blobs[1] == pack_blobs[4] == pack_blobs[8]
    report(12, ok, "criteria 2, 5, 10 reports byte-identical at 1, 4, and 8 workers")
