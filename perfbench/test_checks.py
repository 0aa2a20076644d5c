"""The benchmark's output checks accept known-good outputs and reject known-bad ones.

Good outputs are built by hand from closed forms (the k = 3 boundary witness,
the icosahedral six lines, the cross-polytope cell diagonal), not from
spherecorr, so these tests also pin the checks to the paper's definitions.
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402


def _unit(v):
    n = math.sqrt(sum(c * c for c in v))
    return [c / n for c in v]


# -- ordered-cell witnesses ---------------------------------------------------

def _odd_report(x, y, x2, y2, estimate, k=3):
    exact = (k - 1) * math.pi / k
    return json.dumps({
        "bound": exact, "estimate": estimate, "seed": 0, "per_stratum": {"cell-1|cell-4": estimate},
        "witness": {"x": x, "y": y, "x2": x2, "y2": y2},
    })


# (1, 0, 0, -1)/sqrt(2) lies in ordered cells 1 and 4 of S^3, with cell-map
# angles pi/24 and 17pi/24: the pair realizes the full distortion 2pi/3.
CORNER = _unit([1.0, 0.0, 0.0, -1.0])
ODD_GOOD = (CORNER, math.pi / 24, CORNER, 17 * math.pi / 24)


def test_odd_witness_accepted():
    assert checks.check_odd_distortion(_odd_report(*ODD_GOOD, 2 * math.pi / 3), 3, 0) == []


def test_odd_estimate_one_ulp_over_the_rounded_bound_accepted():
    over = 2 * math.pi / 3 + 4.4e-16
    assert checks.check_odd_distortion(_odd_report(*ODD_GOOD, over), 3, 0) == []


def test_odd_witness_moved_off_its_cell_rejected():
    x, y, _, y2 = ODD_GOOD
    moved = _unit([1.0, 0.0, 0.0, -0.5])  # now only in cell 1, not cell 4
    errs = checks.check_odd_distortion(_odd_report(x, y, moved, y2, 2 * math.pi / 3), 3, 0)
    assert any("(x2, y2) is not in the ordered-cell relation" in e for e in errs)


def test_odd_estimate_above_the_supremum_rejected():
    errs = checks.check_odd_distortion(_odd_report(*ODD_GOOD, 2 * math.pi / 3 + 1e-6), 3, 0)
    assert any("outside" in e for e in errs)
    assert any("does not match estimate" in e for e in errs)


def test_odd_cell_map_matches_paper_corner_values():
    # The (1/2, -1/2, 1/2, 1/2) corner of S^3 maps to -pi/24, 7pi/24, 11pi/24, 43pi/24.
    x = [0.5, -0.5, 0.5, 0.5]
    cells = [m for m in range(1, 9) if checks.in_ordered_cell(3, m, x)]
    assert cells == [1, 2, 3, 8]
    got = sorted(checks.cell_map_angle(3, m, x) for m in cells)
    want = sorted(t % (2 * math.pi) for t in (-math.pi / 24, 7 * math.pi / 24, 11 * math.pi / 24, 43 * math.pi / 24))
    assert all(abs(a - b) < 1e-12 for a, b in zip(got, want))


# -- collapse witnesses -------------------------------------------------------

def _rpq_report(y2, estimate):
    # k = 2: x = (1, 0) is circle site 0, collapsed onto e_1; y2 is a free point
    # of the sphere's cell e_1, collapsed back onto circle site 0.
    return json.dumps({
        "bound": 2 * math.pi / 3, "estimate": estimate, "seed": 0, "per_stratum": {},
        "witness": {"x": [1.0, 0.0], "y": [1.0, 0.0, 0.0], "x2": [1.0, 0.0], "y2": y2},
    })


def test_collapse_witness_accepted():
    assert checks.check_collapse_distortion(_rpq_report([0.8, 0.6, 0.0], math.acos(0.8)), 2, 0) == []


def test_collapse_witness_in_wrong_cell_rejected():
    errs = checks.check_collapse_distortion(_rpq_report([0.6, 0.8, 0.0], math.acos(0.6)), 2, 0)
    assert errs == ["witness (x2, y2) is not in the collapse relation"]


def test_collapse_estimate_above_bound_rejected():
    assert checks.collapse_bound(4) == 4 * math.pi / 5
    errs = checks.check_collapse_distortion(_rpq_report([0.8, 0.6, 0.0], 2.2), 2, 0)
    assert any("exceeds the collapse bound" in e for e in errs)


# -- Voronoi diameter ----------------------------------------------------------

def test_cross_vdiam_diagonal_accepted():
    u = _unit([1.0] * 7)
    v = _unit([1.0] + [-1.0] * 6)
    assert checks.check_cross_vdiam(math.acos(-5 / 7), u, v, 6) == []


def test_cross_vdiam_overstated_or_split_pair_rejected():
    u = _unit([1.0] * 7)
    v = _unit([1.0] + [-1.0] * 6)
    errs = checks.check_cross_vdiam(math.acos(-5 / 7) + 1e-6, u, v, 6)
    assert any("exceeds the exact cell diameter" in e for e in errs)
    split = _unit([1.0, -1.1] + [-1.0] * 5)  # nearest site is -e_2 alone
    errs = checks.check_cross_vdiam(checks.sphere_distance(u, split), u, split, 6)
    assert "witness pair does not lie in one common cell" in errs


# -- packings -------------------------------------------------------------------

PHI = (1 + math.sqrt(5)) / 2
ICOSA = [_unit(p) for p in ([0, 1, PHI], [0, 1, -PHI], [1, PHI, 0], [1, -PHI, 0], [PHI, 0, 1], [-PHI, 0, 1])]
ANCHOR = math.acos(1 / math.sqrt(5))


def _packing_row(points, min_dist):
    return json.dumps({
        "points": points, "min_dist": min_dist, "min_dist_over_pi": min_dist / math.pi,
        "n": 2, "m": len(points), "iterations": 1, "restarts_used": 1,
    })


def test_icosahedral_lines_accepted_at_the_welch_bound():
    assert abs(checks.welch_bound(2, 6) - ANCHOR) < 1e-15
    assert checks.check_packing(_packing_row(ICOSA, ANCHOR), 2, 5, anchor=ANCHOR) == []


def test_overstated_min_dist_rejected():
    errs = checks.check_packing(_packing_row(ICOSA, 1.2), 2, 5)
    assert any("but the points give" in e for e in errs)


def test_packing_shape_errors_rejected():
    assert checks.check_packing(_packing_row(ICOSA[:5], ANCHOR), 2, 5)
    scaled = [[2 * c for c in ICOSA[0]]] + ICOSA[1:]
    errs = checks.check_packing(_packing_row(scaled, ANCHOR), 2, 5)
    assert errs == ["point 0 is not a unit vector (norm 2.0)"]


def test_packing_far_from_anchor_rejected():
    pts = [_unit([1, 0, 0]), _unit([0, 1, 0]), _unit([0, 0, 1]), _unit([1, 1, 0]),
           _unit([1, 0, 1]), _unit([0, 1, 1])]
    row = _packing_row(pts, math.pi / 4)
    assert any("not within 1e-3" in e for e in checks.check_packing(row, 2, 5, anchor=ANCHOR))


# -- gap table --------------------------------------------------------------------

def _table(gap_of, ks=range(8, 17), sqrtk_scale=1.0):
    lines = ["k,bound,gap,gap_sqrtk"]
    for k in ks:
        gap = gap_of(k)
        lines.append(f"{k},{math.pi - gap!r},{gap!r},{gap * math.sqrt(k) * sqrtk_scale!r}")
    return "\n".join(lines) + "\n"


def test_table_with_inverse_sqrt_gap_accepted():
    assert checks.check_table(_table(lambda k: 1.9 / math.sqrt(k)), range(8, 17)) == []


def test_table_identity_and_slope_errors_rejected():
    errs = checks.check_table(_table(lambda k: 1.9 / math.sqrt(k), sqrtk_scale=1.001), range(8, 17))
    assert any("gap_sqrtk" in e for e in errs)
    errs = checks.check_table(_table(lambda k: 5.4 / k), range(8, 17))
    assert any("log-log slope" in e for e in errs)
    errs = checks.check_table(_table(lambda k: 0.1), range(8, 17))
    assert any("outside" in e for e in errs)


def test_table_warm_must_print_the_cold_bytes():
    import workloads

    warm = next(op for op in workloads.build("pack", 0).ops if op.name == "table_warm")
    cold = _table(lambda k: 1.9 / math.sqrt(k))
    assert warm.check(0, cold, {"table_cold": (0, cold)}) == (False, [])
    other = _table(lambda k: 1.8 / math.sqrt(k))
    assert warm.check(0, other, {"table_cold": (0, cold)}) == (
        False, ["table_warm printed different bytes from table_cold"])


# -- verify -----------------------------------------------------------------------

def _verify(*rows, scope="geometry"):
    return "\n".join(
        json.dumps({"invariant": name, "scope": scope, "status": status, "max_violation": v})
        for name, status, v in rows
    ) + "\n"


def test_verify_pass_and_fail():
    good = _verify(("a", "pass", 0.0), ("b", "pass", 0.0), scope="odd")
    assert checks.check_verify(0, good, "odd") == []
    bad = _verify(("a", "pass", 0.0), ("b", "fail", 1.0), scope="odd")
    assert checks.check_verify(1, bad, "odd") == ["invariant 'b' is 'fail'", "verify exited 1"]


def test_geometry_known_fault_counts_as_a_failure_only_in_its_own_form():
    fault = _verify(("triangle-inequality", "pass", 0.0), ("circle-embedding", "fail", 3.7e-12))
    assert checks.classify_geometry(1, fault) == (True, [])
    assert checks.classify_geometry(0, _verify(("circle-embedding", "pass", 1e-15))) == (False, [])
    large = _verify(("circle-embedding", "fail", 1e-6))
    assert checks.classify_geometry(1, large)[1]
    other = _verify(("triangle-inequality", "fail", 1e-3), ("circle-embedding", "fail", 3.7e-12))
    assert checks.classify_geometry(1, other)[1]


# -- the benchmark's declared metrics match what it prints ---------------------------

def test_benchmark_json_matches_the_metrics_printed():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.NAMES)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "cpu_s", "peak_rss_mb"]
    units = run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
