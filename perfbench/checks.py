"""Output checks that re-derive every result apart from spherecorr.

Nothing here imports spherecorr or compares with a stored copy of earlier
output.  Each check rebuilds what it needs from the paper's definitions
(ordered cells and cell-map angles, nearest-site cells, closed-form cell
diameters, the Welch bound) and returns a list of error strings; an empty
list means the output passed.

Floats are compared with roundoff-sized tolerances, never strictly: the
program rounds pi, so an exact supremum can be exceeded by one ulp.
"""

from __future__ import annotations

import csv
import io
import json
import math

ROUNDOFF = 1e-12
# spherecorr admits a point to every cell whose site is within 1e-9 of the
# nearest one, so cell membership gets that slack; values do not.
MEMBERSHIP_TOL = 1e-9
ODD_WINDOW = 0.02


def _norm(v):
    return math.sqrt(sum(c * c for c in v))


def sphere_distance(x, y) -> float:
    """Geodesic distance of unit vectors through the half-chord arcsine."""
    diff = _norm([a - b for a, b in zip(x, y)])
    summ = _norm([a + b for a, b in zip(x, y)])
    if diff <= summ:
        return 2.0 * math.asin(min(1.0, diff / 2.0))
    return math.pi - 2.0 * math.asin(min(1.0, summ / 2.0))


def line_distance(x, y) -> float:
    """Distance between the lines through unit vectors x and y, in [0, pi/2]."""
    d = sphere_distance(x, y)
    return min(d, math.pi - d)


def circle_distance(a: float, b: float) -> float:
    d = abs(math.fmod(a - b, 2.0 * math.pi))
    return min(d, 2.0 * math.pi - d)


def _close(a: float, b: float, tol: float = ROUNDOFF) -> bool:
    return abs(a - b) <= tol


def _unit_errors(label, v, dim) -> list[str]:
    if len(v) != dim + 1:
        return [f"{label} has {len(v)} coordinates, expected {dim + 1}"]
    if not _close(_norm(v), 1.0, 1e-9):
        return [f"{label} is not a unit vector (norm {_norm(v)!r})"]
    return []


# ---------------------------------------------------------------------------
# Ordered-cell correspondence, odd S^k -> S^1
# ---------------------------------------------------------------------------

def ordered_cell(k: int, m: int) -> tuple[int, int]:
    """(0-based axis, sign) of ordered cell m, 1 <= m <= 2k+2.

    Cells 1..k+1 take axes 0..k with signs +, -, +, ...; cells k+2..2k+2
    are their antipodes.
    """
    first = m if m <= k + 1 else m - (k + 1)
    sign = 1 if first % 2 == 1 else -1
    return first - 1, sign if m <= k + 1 else -sign


def in_ordered_cell(k: int, m: int, x, tol: float = MEMBERSHIP_TOL) -> bool:
    axis, sign = ordered_cell(k, m)
    top = max(abs(c) for c in x)
    return sign * x[axis] > 0 and abs(x[axis]) >= top - tol


def cell_map_angle(k: int, m: int, x) -> float:
    """The paper's image angle of a point x of ordered cell m.

    For m <= k+1: (m-1)pi/(k+1) + pi/(2k(k+1)) * (x_1+..+x_{m-1} -
    x_{m+1}-..-x_{k+1}) / x_m.  Cells past k+1 take the value of -x in the
    antipodal cell, shifted by pi.
    """
    if m > k + 1:
        return math.fmod(cell_map_angle(k, m - (k + 1), [-c for c in x]) + math.pi, 2.0 * math.pi)
    j = m - 1
    ratio = (sum(x[:j]) - sum(x[j + 1:])) / x[j]
    angle = j * math.pi / (k + 1) + math.pi / (2.0 * k * (k + 1)) * ratio
    return angle % (2.0 * math.pi)


def odd_correspondent(k: int, x, y: float) -> bool:
    """Whether angle y corresponds to x under some ordered cell containing x."""
    return any(
        in_ordered_cell(k, m, x) and circle_distance(cell_map_angle(k, m, x), y) <= ROUNDOFF
        for m in range(1, 2 * k + 3)
    )


def check_odd_distortion(text: str, k: int, seed: int) -> list[str]:
    """Check an ``odd-rk`` distortion report at odd k."""
    try:
        rep = json.loads(text)
        w = rep["witness"]
        x, y, x2, y2 = w["x"], float(w["y"]), w["x2"], float(w["y2"])
        est, bound = float(rep["estimate"]), float(rep["bound"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable odd-rk report: {exc!r}"]
    errs = _unit_errors("witness x", x, k) + _unit_errors("witness x2", x2, k)
    if errs:
        return errs
    exact = (k - 1) * math.pi / k
    if not _close(bound, exact):
        errs.append(f"printed bound {bound!r} is not (k-1)pi/k = {exact!r}")
    if rep.get("seed") != seed:
        errs.append(f"report seed {rep.get('seed')!r} is not {seed}")
    for label, pt, ang in (("(x, y)", x, y), ("(x2, y2)", x2, y2)):
        if not odd_correspondent(k, pt, ang):
            errs.append(f"witness {label} is not in the ordered-cell relation")
    value = abs(circle_distance(y, y2) - sphere_distance(x, x2))
    if not _close(value, est):
        errs.append(f"witness objective {value!r} does not match estimate {est!r}")
    if not exact - ODD_WINDOW <= est <= exact + ROUNDOFF:
        errs.append(f"estimate {est!r} outside [(k-1)pi/k - {ODD_WINDOW}, (k-1)pi/k]")
    worst = max(rep.get("per_stratum", {}).values(), default=0.0)
    if worst > exact + ROUNDOFF:
        errs.append(f"a stratum maximum {worst!r} exceeds (k-1)pi/k")
    return errs


# ---------------------------------------------------------------------------
# Cell-collapse correspondence, even circle set vs cross-polytope
# ---------------------------------------------------------------------------

def circle_sites(m: int) -> list[list[float]]:
    """The 2m evenly spaced circle points: representatives j*pi/m, then negatives."""
    reps = [[math.cos(j * math.pi / m), math.sin(j * math.pi / m)] for j in range(m)]
    return reps + [[-a, -b] for a, b in reps]


def cross_sites(k: int) -> list[list[float]]:
    """+-e_1..e_{k+1} in R^{k+1}: the positive axes, then their negatives."""
    eye = [[1.0 if i == j else 0.0 for j in range(k + 1)] for i in range(k + 1)]
    return eye + [[-c for c in row] for row in eye]


def nearest_cells(sites, x, tol: float = MEMBERSHIP_TOL) -> list[int]:
    dists = [sphere_distance(s, x) for s in sites]
    low = min(dists)
    return [c for c, d in enumerate(dists) if d <= low + tol]


def _same_point(p, q, tol: float = MEMBERSHIP_TOL) -> bool:
    return max(abs(a - b) for a, b in zip(p, q)) <= tol


def collapse_related(low_sites, high_sites, x, y) -> bool:
    """Whether (x, y) is in the relation that collapses each cell onto the matching site."""
    if any(_same_point(y, high_sites[c]) for c in nearest_cells(low_sites, x)):
        return True
    return any(_same_point(x, low_sites[c]) for c in nearest_cells(high_sites, y))


def collapse_bound(k: int) -> float:
    """max(vdiam P, pi - sep P, vdiam Q, pi - sep Q) for k+1 circle lines vs the cross-polytope."""
    cell = math.pi / (k + 1)
    return max(cell, math.pi - cell, math.acos(-(k - 1) / (k + 1)), math.pi / 2)


def check_collapse_distortion(text: str, k: int, seed: int) -> list[str]:
    """Check an ``rpq-even-cross`` distortion report at k."""
    try:
        rep = json.loads(text)
        w = rep["witness"]
        x, y, x2, y2 = w["x"], w["y"], w["x2"], w["y2"]
        est, bound = float(rep["estimate"]), float(rep["bound"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable rpq report: {exc!r}"]
    errs = []
    for label, v, dim in (("x", x, 1), ("y", y, k), ("x2", x2, 1), ("y2", y2, k)):
        errs += _unit_errors(f"witness {label}", v, dim)
    if errs:
        return errs
    expect = collapse_bound(k)
    if not _close(bound, expect):
        errs.append(f"printed bound {bound!r} is not {expect!r}")
    if rep.get("seed") != seed:
        errs.append(f"report seed {rep.get('seed')!r} is not {seed}")
    low, high = circle_sites(k + 1), cross_sites(k)
    for label, a, b in (("(x, y)", x, y), ("(x2, y2)", x2, y2)):
        if not collapse_related(low, high, a, b):
            errs.append(f"witness {label} is not in the collapse relation")
    value = abs(sphere_distance(x, x2) - sphere_distance(y, y2))
    if not _close(value, est):
        errs.append(f"witness objective {value!r} does not match estimate {est!r}")
    if est > expect + ROUNDOFF:
        errs.append(f"estimate {est!r} exceeds the collapse bound {expect!r}")
    worst = max(rep.get("per_stratum", {}).values(), default=0.0)
    if worst > expect + ROUNDOFF:
        errs.append(f"a stratum maximum {worst!r} exceeds the collapse bound")
    return errs


# ---------------------------------------------------------------------------
# Voronoi diameter of the cross-polytope
# ---------------------------------------------------------------------------

def cross_cell_diameter(k: int) -> float:
    return math.acos(-(k - 1) / (k + 1))


def check_cross_vdiam(value: float, u, v, k: int) -> list[str]:
    """A sampled cell diameter of the cross-polytope in S^k with its witness pair."""
    errs = _unit_errors("witness u", u, k) + _unit_errors("witness v", v, k)
    if errs:
        return errs
    exact = cross_cell_diameter(k)
    if abs(value - exact) > 0.01:
        errs.append(f"estimate {value!r} is not within 0.01 of arccos(-(k-1)/(k+1)) = {exact!r}")
    if value > exact + ROUNDOFF:
        errs.append(f"estimate {value!r} exceeds the exact cell diameter {exact!r}")
    if not _close(sphere_distance(u, v), value, 1e-12):
        errs.append(f"witness distance {sphere_distance(u, v)!r} does not match {value!r}")
    sites = cross_sites(k)
    if not set(nearest_cells(sites, u)) & set(nearest_cells(sites, v)):
        errs.append("witness pair does not lie in one common cell")
    return errs


# ---------------------------------------------------------------------------
# Projective packings and the gap table
# ---------------------------------------------------------------------------

def welch_bound(n: int, m: int) -> float:
    """Welch (1974): m > n+1 lines in R^{n+1} have a pair within this angle."""
    d = n + 1
    return math.acos(math.sqrt((m - d) / (d * (m - 1))))


def check_packing(text: str, n: int, k: int, anchor: float | None = None) -> list[str]:
    """Check a ``packing --n n --k k`` row: k+1 unit rows and a sound min_dist."""
    try:
        row = json.loads(text)
        pts = row["points"]
        min_dist = float(row["min_dist"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable packing row: {exc!r}"]
    m = k + 1
    errs = []
    if row.get("n") != n or row.get("m") != m:
        errs.append(f"row reports n={row.get('n')!r}, m={row.get('m')!r}; expected {n}, {m}")
    if len(pts) != m:
        errs.append(f"{len(pts)} points printed, expected k+1 = {m}")
    for i, p in enumerate(pts):
        errs += _unit_errors(f"point {i}", p, n)
    if errs:
        return errs
    actual = min(line_distance(pts[i], pts[j]) for i in range(m) for j in range(i + 1, m))
    if not _close(actual, min_dist):
        errs.append(f"printed min_dist {min_dist!r} but the points give {actual!r}")
    if not _close(float(row.get("min_dist_over_pi", 0.0)), min_dist / math.pi):
        errs.append("min_dist_over_pi is not min_dist / pi")
    floor, ceiling = math.pi / (k - n + 3), welch_bound(n, m)
    if not floor - ROUNDOFF <= actual <= ceiling + ROUNDOFF:
        errs.append(f"min_dist {actual!r} outside [pi/(k-n+3), Welch] = [{floor!r}, {ceiling!r}]")
    if anchor is not None and abs(actual - anchor) > 1e-3:
        errs.append(f"min_dist {actual!r} is not within 1e-3 of the optimum {anchor!r}")
    return errs


def loglog_slope(ks, gaps) -> float:
    xs = [math.log(k) for k in ks]
    ys = [math.log(g) for g in gaps]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / sum((a - mx) ** 2 for a in xs)


def check_table(text: str, ks) -> list[str]:
    """Check the CSV gap table: bound window, gap identities, slope -1/2."""
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
        table = [(int(r["k"]), float(r["bound"]), float(r["gap"]), float(r["gap_sqrtk"])) for r in rows]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable table: {exc!r}"]
    if [r[0] for r in table] != list(ks):
        return [f"table rows cover k={[r[0] for r in table]}, expected {list(ks)}"]
    errs = []
    for k, bound, gap, gap_sqrtk in table:
        lo, hi = cross_cell_diameter(k), math.pi * k / (k + 1)
        if not lo - ROUNDOFF <= bound <= hi + ROUNDOFF:
            errs.append(f"k={k}: bound {bound!r} outside [{lo!r}, {hi!r}]")
        if not _close(gap, math.pi - bound):
            errs.append(f"k={k}: gap {gap!r} is not pi - bound")
        if not _close(gap_sqrtk, gap * math.sqrt(k)):
            errs.append(f"k={k}: gap_sqrtk {gap_sqrtk!r} is not gap * sqrt(k)")
    if errs:
        return errs
    slope = loglog_slope([r[0] for r in table], [r[2] for r in table])
    if abs(slope + 0.5) > 0.15:
        errs.append(f"log-log slope of gap against k is {slope:.4f}, not -0.5 +- 0.15")
    return errs


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_records(text: str, scope: str) -> tuple[list[dict], list[str]]:
    try:
        recs = [json.loads(line) for line in text.splitlines() if line.strip()]
    except ValueError as exc:
        return [], [f"unreadable verify output: {exc!r}"]
    if not recs:
        return [], ["verify printed no invariants"]
    wrong = sorted({r.get("scope") for r in recs} - {scope})
    return recs, [f"invariants of scope {s!r} in a {scope!r} run" for s in wrong]


def check_verify(rc: int, text: str, scope: str) -> list[str]:
    """A verify run must exit 0 with every invariant ``pass``."""
    recs, errs = _verify_records(text, scope)
    errs += [f"invariant {r.get('invariant')!r} is {r.get('status')!r}" for r in recs if r.get("status") != "pass"]
    if rc != 0:
        errs.append(f"verify exited {rc}")
    return errs


# verify --scope geometry compares arccos-based geodesic_many against exact
# circle distances at 1e-12; the clipped arccos loses ~1e-11 near 0 and pi.
KNOWN_FAULT = "circle-embedding"
KNOWN_FAULT_CEILING = 1e-9


def classify_geometry(rc: int, text: str) -> tuple[bool, list[str]]:
    """(failed, errors) for ``verify --scope geometry``.

    The one failure accepted is the known arccos fault: exit 1 with only
    ``circle-embedding`` failing, by less than 1e-9.  A clean pass is also
    correct.  Anything else is an error.
    """
    recs, errs = _verify_records(text, "geometry")
    if errs:
        return False, errs
    bad = [r for r in recs if r.get("status") != "pass"]
    if not bad:
        return False, [] if rc == 0 else [f"verify exited {rc} with every invariant passing"]
    if len(bad) == 1 and bad[0].get("invariant") == KNOWN_FAULT and rc == 1:
        if float(bad[0].get("max_violation", math.inf)) <= KNOWN_FAULT_CEILING:
            return True, []
    return False, [f"unexpected failure: {r.get('invariant')!r} at {r.get('max_violation')!r}" for r in bad]
