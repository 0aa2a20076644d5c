import hashlib
import itertools
import math

import numpy as np
import pytest

from spherecorr import (
    AntipodalSet,
    RngStream,
    arc_augmented_set,
    cross_polytope_set,
    cross_polytope_vdiam_exact,
    evenly_spaced_circle_set,
    hausdorff_to_sphere_estimate,
    separation,
    voronoi_diameter_estimate,
)
from spherecorr import geometry
from spherecorr.pointsets import _climb_pairs_in_cells, _slide_directions, arc_rows, cell_mask, covering_radius
from spherecorr.serialize import dumps


def exhaustive_separation(aset) -> float:
    """Independent pairwise minimum over all 2m points, plain loops."""
    pts = aset.points()
    best = math.pi
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            c = max(-1.0, min(1.0, float(np.dot(pts[i], pts[j]))))
            best = min(best, math.acos(c))
    return best


# -- constructions ----------------------------------------------------------

def test_evenly_spaced_circle_set():
    aset = evenly_spaced_circle_set(3)
    assert aset.m == 3 and aset.points().shape == (6, 2)
    angles = sorted(np.mod(np.arctan2(aset.points()[:, 1], aset.points()[:, 0]), 2 * np.pi))
    assert np.allclose(angles, [j * np.pi / 3 for j in range(6)], atol=1e-12)
    assert separation(aset) == pytest.approx(np.pi / 3, abs=1e-12)


def test_evenly_spaced_m2_is_square():
    aset = evenly_spaced_circle_set(2)
    assert separation(aset) == pytest.approx(np.pi / 2, abs=1e-12)
    got = {tuple(np.round(p, 12)) for p in aset.points()}
    assert got == {(1, 0), (0, 1), (-1, 0), (0, -1)}


def test_evenly_spaced_rejects_small_m():
    with pytest.raises(ValueError):
        evenly_spaced_circle_set(1)


def test_cross_polytope_set():
    aset = cross_polytope_set(3)
    assert aset.m == 4
    assert separation(aset) == pytest.approx(np.pi / 2, abs=1e-15)
    k1 = cross_polytope_set(1)
    got = {tuple(np.round(p, 12)) for p in k1.points()}
    assert got == {(1, 0), (0, 1), (-1, 0), (0, -1)}


def test_antipodal_set_rejects_coincident():
    with pytest.raises(ValueError):
        AntipodalSet([[1, 0, 0], [1, 1e-12, 0]])
    with pytest.raises(ValueError):
        AntipodalSet([[1, 0, 0], [-1, 0, 0]])  # rep equal to another's antipode


def test_arc_augmented_counts_and_separation():
    aset = arc_augmented_set(2, 5)
    assert aset.m == 6 and aset.points().shape == (12, 2 + 1)
    # N = 1 here, so the guaranteed gap is pi/4; check by plain pairwise loops
    assert exhaustive_separation(aset) >= np.pi / 4 - 1e-12
    assert separation(aset) == pytest.approx(exhaustive_separation(aset), abs=1e-12)

    big = arc_augmented_set(2, 20)
    assert big.points().shape[0] == 42
    assert exhaustive_separation(big) >= np.pi / 8 - 1e-12


def test_arc_augmented_preconditions():
    with pytest.raises(ValueError):
        arc_augmented_set(2, 2)
    with pytest.raises(ValueError):
        arc_augmented_set(1, 5)


def test_arc_augmented_sweep_separation_bound():
    for n in range(2, 30):
        for k in range(n + 1, 31):
            aset = arc_augmented_set(n, k)
            assert aset.points().shape[0] == 2 * (k + 1)
            assert separation(aset) >= np.pi / (k - n + 3) - 1e-12


# -- exact queries ----------------------------------------------------------

def test_separation_matches_exhaustive_on_random_sets():
    gen = RngStream(3).generator()
    for _ in range(5):
        reps = gen.standard_normal((4, 4))
        aset = AntipodalSet(reps)
        assert separation(aset) == pytest.approx(exhaustive_separation(aset), abs=1e-12)


def test_separation_upper_bound_for_antipodal_sets():
    # any antipodal set with more than two points separates by at most pi/2
    gen = RngStream(4).generator()
    for _ in range(10):
        aset = AntipodalSet(gen.standard_normal((3, 3)))
        assert separation(aset) <= np.pi / 2 + 1e-12


def test_cross_polytope_vdiam_exact_values():
    assert cross_polytope_vdiam_exact(1) == pytest.approx(np.pi / 2, abs=1e-15)
    assert cross_polytope_vdiam_exact(2) == pytest.approx(np.arccos(-1 / 3), abs=1e-15)
    assert cross_polytope_vdiam_exact(2) == pytest.approx(1.910633, abs=1e-6)
    assert cross_polytope_vdiam_exact(3) == pytest.approx(2 * np.pi / 3, abs=1e-15)


def test_cross_polytope_vdiam_inequality_sweep():
    for k in range(3, 1001):
        assert cross_polytope_vdiam_exact(k) <= (k - 1) * np.pi / k + 1e-12
    assert cross_polytope_vdiam_exact(3) == pytest.approx(2 * np.pi / 3, abs=1e-12)


def signed_cells(aset, x):
    """(representative, sign) of each cell containing one point; column i >= m is the negative of rep i - m."""
    return sorted((i % aset.m + 1, 1 if i < aset.m else -1) for i in np.flatnonzero(cell_mask(aset, [x])))


def test_voronoi_cells_at_site_and_corners():
    cp = cross_polytope_set(3)
    assert signed_cells(cp, [1.0, 0, 0, 0]) == [(1, 1)]
    assert signed_cells(cp, [0.5, -0.5, 0.5, 0.5]) == [(1, 1), (2, -1), (3, 1), (4, 1)]
    assert signed_cells(cp, [0.5, 0.5, 0.5, 0.5]) == [(1, 1), (2, 1), (3, 1), (4, 1)]


def test_voronoi_cells_dimension_check():
    with pytest.raises(ValueError):
        cell_mask(cross_polytope_set(3), np.array([[1.0, 0, 0]]))


def test_voronoi_antipode_equivariance():
    # the antipodal cell of column i is column (i + m) mod 2m
    cp = cross_polytope_set(4)
    xs = geometry.sample_uniform_many(4, 100, RngStream(8))
    assert np.array_equal(cell_mask(cp, xs), np.roll(cell_mask(cp, -xs), cp.m, axis=1))


# -- sampled estimators -----------------------------------------------------

def test_circle_vdiam_is_exact():
    value, (u, v) = voronoi_diameter_estimate(evenly_spaced_circle_set(4), 10, rng=RngStream(0))
    assert value == pytest.approx(np.pi / 4, abs=1e-12)
    assert geometry.geodesic_many(u.coords, v.coords) == pytest.approx(value, abs=1e-9)


def test_vdiam_estimate_matches_cross_polytope():
    for k in (2, 3):
        est, (u, v) = voronoi_diameter_estimate(
            cross_polytope_set(k), 30000, 200, RngStream(3)
        )
        assert est == pytest.approx(cross_polytope_vdiam_exact(k), abs=0.01)
        # the witness pair lies in a common cell and realizes the value
        assert np.any(np.all(cell_mask(cross_polytope_set(k), [u.coords, v.coords]), axis=0))
        assert geometry.geodesic_many(u.coords, v.coords) == pytest.approx(est, abs=1e-12)


def test_vdiam_monotone_in_samples():
    # the sample budget is consumed in whole shards, so growing it only
    # appends shards and the max-reduced estimate cannot decrease
    cp = cross_polytope_set(3)
    values = [
        voronoi_diameter_estimate(cp, s, 40, RngStream(5))[0]
        for s in (8192, 16384, 32768, 40000)
    ]
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi + 1e-15


def test_vdiam_deterministic_across_threads():
    cp = cross_polytope_set(3)
    outs = []
    for threads in (1, 4, 8):
        v, (u, w) = voronoi_diameter_estimate(cp, 20000, 60, RngStream(3), threads=threads)
        outs.append(dumps({"v": v, "u": u.coords, "w": w.coords}))
    assert outs[0] == outs[1] == outs[2]



@pytest.mark.parametrize(
    "aset, samples, iters, rng, value_hex, witness_sha256",
    [
        (cross_polytope_set(6), 100000, 200, RngStream(0), "0x1.2eb6965f39956p+1",
         "a1ba7d116d580fa1e7f8ef07d613c021090d61d8f143d0083668791902b7787a"),
        (cross_polytope_set(6), 100000, 200, RngStream(23), "0x1.2e5096638de70p+1",
         "ca16e0c46ca90535a1b0297fceae6ff14d004d6fdd311d325856a7adf94d6b75"),
        # verify --scope pointsets at seed 0: cross-vdiam-estimate's two calls
        (cross_polytope_set(2), 20000, 200, RngStream(0).child(2).child(12), "0x1.e91f4285ed188p+0",
         "e8da87a0a3992a232a6b622c3c0effa09023272e5149726b5e74aadf41276f62"),
        (cross_polytope_set(3), 20000, 200, RngStream(0).child(2).child(13), "0x1.0c150bea7b686p+1",
         "fe3c306f3c1ab218130ae39434a6eb74635de86d6ad72903a061afd898119377"),
        # criterion 9's budget, on its widest and on a low arc set
        (arc_augmented_set(5, 29), 2048, 20, RngStream(0, (9, 5, 29)), "0x1.e51ee6dc229bep+0",
         "3470d98f1702fdb2f61c57c1b3fd3076fa796dcff165235dba7235211973448d"),
        (arc_augmented_set(2, 9), 2048, 20, RngStream(0, (9, 2, 9)), "0x1.980dbfa27c9efp+0",
         "aa3ab335a1f7792a66d4f87868810387410a6c286a21563f51df6e457cb1795d"),
    ],
)
def test_vdiam_bytes_are_pinned(aset, samples, iters, rng, value_hex, witness_sha256):
    value, (u, v) = voronoi_diameter_estimate(aset, samples, iters, rng, threads=1)
    assert value.hex() == value_hex
    assert hashlib.sha256(np.concatenate([u.coords, v.coords]).tobytes()).hexdigest() == witness_sha256


def test_arc_rows_bytes_are_pinned():
    sweep = hashlib.sha256()
    for n in range(2, 30):
        for k in range(n + 1, 31):
            sweep.update(arc_rows(n, k + 1).tobytes())
    assert sweep.hexdigest() == "09a0f47427ec7a1cbfcad0146808cd5d9e267bc1fb9874d52a19873b4dfe1a9c"
    starts = {
        (1, 3): "cbecf4da3e5161933df73faaa3ce558a395de95ad01c9dcc9e6a68e196d6ec9c",
        (1, 7): "23ecb8eabe4c7e5370ea3745ff24ced6e4bc8e74fd1e0a46a8e0047c03ea1502",
        (2, 2): "e7c6bff0f84ed48b4f18ee4f3f45716a62d7b2c9d6000334483986fa86bbbe3d",
        (2, 5): "ea051e4dc16790bf16fda18069690e334cdafc21d23faf9c29c8e2d0dd7f273d",
        (2, 9): "5be3acfcc1a2d3246d227093e9551ff8538a783532b844bab76f62171e2f154d",
        (2, 41): "5d6ca3cb2971aecdccb1537c95f5615dad39ed920cd8fab57bafc423bbbac3c4",
        (3, 4): "ccc7977ae7987f37c2235e57c320a5142d6b58413825b6457a4a1c9fe469ac1c",
        (3, 8): "9e5cd10e9a4146ee3ff0795471e2eb7a20d9c6c77a026349ed2b7dd13847faa3",
        (4, 30): "48ea5ca42d30c549b7e09ea1e0689a4660a7d8cd760f818079b6ac3f8f254f55",
        (6, 100): "01169cee6e2745413a52bb58bbf6e7de5c016c6e7a29de266961d5dfe87da4ee",
    }
    for (n, m), digest in starts.items():
        assert hashlib.sha256(arc_rows(n, m).tobytes()).hexdigest() == digest, (n, m)


def test_vdiam_rejects_a_negative_climb_budget():
    with pytest.raises(ValueError, match="refine_iters"):
        voronoi_diameter_estimate(cross_polytope_set(3), 1000, -1, RngStream(0))
    # zero iterations is the unclimbed estimate, as in SearchBudget
    value, _ = voronoi_diameter_estimate(cross_polytope_set(3), 1000, 0, RngStream(0))
    assert 0.0 < value <= cross_polytope_vdiam_exact(3)


def batch_wide_slide(x, raw, own_sites, sites, activation):
    """Reference walk: the batch visits, in index order, every wall that any
    row crosses, and recomputes every row's product against every wall after
    each one."""
    g = raw - geometry.row_dot(raw, x)[:, None] * x
    normals = own_sites[:, None, :] - sites
    sq = geometry.row_dot(normals, normals)
    margins = geometry.row_dot(own_sites, x)[:, None] - geometry.row_dot(x[:, None, :], sites)
    walls = (margins <= activation[:, None]) & (sq >= 1e-300)
    cols = np.arange(len(sites))
    for _ in range(2):
        j = -1
        while True:
            viol = geometry.row_dot(g[:, None, :], normals)
            hit = walls & (viol < 0) & (cols > j)
            if not hit.any():
                break
            j = int(np.argmax(hit.any(axis=0)))
            on = hit[:, j]
            g[on] -= (viol[on, j] / sq[on, j])[:, None] * normals[on, j]
    return g - geometry.row_dot(g, x)[:, None] * x


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("aset", [
    cross_polytope_set(2), cross_polytope_set(3), cross_polytope_set(6),
    arc_augmented_set(2, 9), arc_augmented_set(3, 7), arc_augmented_set(5, 29),
], ids=["cp2", "cp3", "cp6", "arc2-9", "arc3-7", "arc5-29"])
def test_slide_directions_match_the_batch_wide_walk(aset, seed):
    rng = np.random.default_rng(seed)
    sites = aset.points()
    normals = sites[:, None, :] - sites
    walls = normals, geometry.row_dot(normals, normals)
    rows = int(rng.integers(1, 61))
    x = geometry.sample_uniform_many(aset.dim, rows, RngStream(seed))
    own = aset.nearest_site_many(x)
    raw = rng.standard_normal(x.shape)
    # some rows get no active wall; the own site's wall (sq = 0) is never active
    activation = np.where(rng.random(rows) < 0.25, 0.0, rng.uniform(1e-3, 0.8, rows))
    for act in (activation, np.zeros(rows)):  # the second batch has no active wall at all
        got = _slide_directions(x, raw, own, sites, walls, act)
        assert got.tobytes() == batch_wide_slide(x, raw, sites[own], sites, act).tobytes()
    # with no active wall the step is only projected onto the tangent space, twice
    g = raw - geometry.row_dot(raw, x)[:, None] * x
    idle = _slide_directions(x, raw, own, sites, walls, np.zeros(rows))
    assert idle.tobytes() == (g - geometry.row_dot(g, x)[:, None] * x).tobytes()


@pytest.mark.parametrize("aset", [cross_polytope_set(4), arc_augmented_set(3, 7)], ids=["cp4", "arc3-7"])
def test_in_cell_climb_rows_are_batch_independent(aset):
    xs = geometry.sample_uniform_many(aset.dim, 400, RngStream(31))
    nearest = aset.nearest_site_many(xs)
    pairs = [np.flatnonzero(nearest == c)[:2] for c in range(2 * aset.m)]
    pairs = np.array([p for p in pairs if len(p) == 2])
    cells, pts = nearest[pairs[:, 0]], xs[pairs]
    rngs = [RngStream(32).child(i) for i in range(len(pairs))]
    together = pts.copy()
    values = _climb_pairs_in_cells(aset, cells, together, 40, rngs)
    for i in (0, len(pairs) // 2, len(pairs) - 1):
        alone = pts[[i]].copy()
        value = _climb_pairs_in_cells(aset, cells[[i]], alone, 40, [rngs[i]])
        assert value[0] == values[i]
        assert alone[0].tobytes() == together[i].tobytes()
    assert np.all(values > geometry.geodesic_many(pts[:, 0], pts[:, 1]))


def test_arc_augmented_vdiam_below_cross_bound():
    aset = arc_augmented_set(2, 5)
    est, _ = voronoi_diameter_estimate(aset, 20000, 100, RngStream(9))
    assert est <= 2 * np.pi / 3 + 0.01


def test_hausdorff_estimate_values():
    # even circle: half gap
    est = hausdorff_to_sphere_estimate(evenly_spaced_circle_set(4))
    assert est == pytest.approx(np.pi / 8, abs=1e-12)
    # cross-polytope on S^2: the fixed cube-corner point is farthest
    est = hausdorff_to_sphere_estimate(cross_polytope_set(2))
    assert est == pytest.approx(np.arccos(1 / np.sqrt(3)), abs=1e-12)


def hull_covering_radius(reps) -> float:
    """Independent oracle: the farthest points of +-reps are the facet normals of their hull."""
    from scipy.spatial import ConvexHull

    offsets = ConvexHull(np.vstack([reps, -reps])).equations[:, -1]
    return float(np.max(np.arccos(np.clip(-offsets, -1.0, 1.0))))


COVERING_CASES = (
    [("circle", 1, m) for m in (2, 3, 5, 8)]
    + [("cross", n, n + 1) for n in (1, 2, 3, 4)]
    # arc points share coordinate planes, so many (n+1)-subsets are singular
    + [("arc", n, k) for n, k in ((2, 3), (2, 4), (2, 8), (3, 4), (3, 6), (4, 5))]
    + [("random", n, m) for n in (1, 2, 3, 4) for m in (n + 1, n + 4)]
    + [("packing", n, n + 4) for n in (1, 2, 3, 4)]
)


def covering_case_reps(kind, n, size):
    from spherecorr import PackingBudget, optimize_packing

    if kind == "circle":
        return evenly_spaced_circle_set(size).reps
    if kind == "cross":
        return cross_polytope_set(n).reps
    if kind == "arc":
        return arc_augmented_set(n, size).reps
    if kind == "random":
        return AntipodalSet(np.random.default_rng(10 * n + size).standard_normal((size, n + 1))).reps
    return optimize_packing(n, size, PackingBudget(400, 100, 4), RngStream(4).child(n)).points


@pytest.mark.parametrize("kind,n,size", COVERING_CASES)
def test_covering_radius_matches_convex_hull(kind, n, size):
    reps = covering_case_reps(kind, n, size)
    assert covering_radius(reps) == pytest.approx(hull_covering_radius(reps), abs=1e-12)


def fully_scored_covering_radius(reps) -> float:
    """Reference: every candidate of ``covering_radius`` scored by the accurate kernel."""
    m, d = reps.shape
    subsets = np.array(list(itertools.combinations(range(m), d)), dtype=int).reshape(-1, d)
    rows = reps[subsets]
    rows = rows[np.linalg.matrix_rank(rows) == d]
    if not len(rows):
        return np.pi / 2
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=d)))[: 2 ** (d - 1)]
    v = np.linalg.solve(rows[:, None], signs[None, :, :, None]).reshape(-1, d)
    v = geometry.normalize_rows(v)
    return float(np.max(np.min(geometry.projective_many(v[:, None, :], reps), axis=1)))


def test_pruned_covering_scorer_matches_the_full_scorer_bitwise():
    # the matmul pre-screen may only drop candidates that cannot hold the max
    from spherecorr import PackingBudget, optimize_packing

    sets = [covering_case_reps(*case) for case in COVERING_CASES] + [np.eye(3), np.eye(4)]
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 4):
        for size in (n + 1, n + 2, n + 5, 3 * n + 4):
            sets += [AntipodalSet(rng.standard_normal((size, n + 1))).reps for _ in range(3)]
    for n, k in ((2, 3), (2, 9), (3, 5), (3, 8)):
        sets.append(optimize_packing(n, k + 1, PackingBudget(400, 100, 4), RngStream(0).child(k)).points)
    for reps in sets:
        assert covering_radius(reps) == fully_scored_covering_radius(reps), reps


def test_covering_radius_without_a_spanning_subset_is_a_right_angle():
    # fewer than n+1 lines, or lines confined to a hyperplane: some point is orthogonal to all
    assert covering_radius(np.eye(4)[:3]) == np.pi / 2
    assert covering_radius(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.8, 0.0]])) == np.pi / 2
    with pytest.raises(ValueError):
        covering_radius(np.empty((0, 3)))


def test_hausdorff_dense_grid_oracle():
    # independent Fibonacci-grid oracle for the covering radius of the S^2 sites
    n = 200_000
    i = np.arange(n) + 0.5
    phi = np.arccos(1 - 2 * i / n)
    theta = np.pi * (1 + 5**0.5) * i
    grid = np.column_stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)]
    )
    sites = cross_polytope_set(2).points()
    oracle = float(np.arccos(np.clip(np.max(grid @ sites.T, axis=1), -1, 1)).max())
    assert oracle == pytest.approx(np.arccos(1 / np.sqrt(3)), abs=5e-3)


def test_hausdorff_is_the_projective_covering_radius_of_the_reps():
    from spherecorr import covering_radius_estimate

    for aset in (cross_polytope_set(2), evenly_spaced_circle_set(5), arc_augmented_set(2, 4)):
        assert hausdorff_to_sphere_estimate(aset) == covering_radius_estimate(aset.reps)


def test_vdiam_against_hausdorff_inequality():
    for aset in (cross_polytope_set(2), arc_augmented_set(2, 4)):
        vd, _ = voronoi_diameter_estimate(aset, 10000, 60, RngStream(6))
        dh = hausdorff_to_sphere_estimate(aset)
        assert dh >= vd / 2 - 0.01


# -- serialization ----------------------------------------------------------

def test_json_17_digit_floats():
    aset = AntipodalSet([[1, 1, 0], [1, -1, 0]])
    text = dumps(aset.reps)
    assert "0.70710678118654746" in text
