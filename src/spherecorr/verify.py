"""Numeric verification suite behind the ``verify`` CLI command.

Each invariant check returns a record with the observed worst violation and a
witness, emitted by the CLI as one JSON line per invariant.  Budgets scale
with the ``samples`` argument so the same checks serve quick smoke runs and
long verification sweeps.  An invariant that the acceptance suite checks too
comes from one function here, which both call.  The sampled geometry and
ordered-cell checks draw and reduce their samples in blocks of BLOCK_ROWS
rows, so their memory does not grow with the budget; each block continues
its stream's one generator, and a reduction carried across blocks gives the
bytes it gives on the whole draw.

Each invariant is of one of three kinds.  One-sided sound comparisons hold a
sampled maximum to at most an exact or certified value: nine-case-bounds,
estimate-within-bound, vdiam-vs-hausdorff, and covering-below-packing, which
checks the optimizer by an optimized packing's exact covering radius and
certified separation.  Estimate-quality windows hold a sample or an optimized
value near an exact one: uniform-sampling, cross-vdiam-estimate,
global-distortion-window, circle-five-lines, orthogonal-lines,
four-lines-plane.  The rest are exact identities, or inequalities at every
point checked, which only roundoff may break, save boundary-search-dominates,
the only comparison of two sampled maxima.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry, odd_corr, packing, pointsets
from .distortion import ElementBatch, SearchBudget, _objectives, estimate_distortion
from .odd_corr import OddCircleCorrespondence, cell_angles_many
from .rng import RngStream
from .voronoi_corr import VoronoiCorrespondence, even_cross

SCOPES = ("geometry", "pointsets", "rpq", "odd", "packing")

# Default sample budget of a verify run, for the library and the CLI.
DEFAULT_SAMPLES = 20000

# Rows per block of the streamed checks.  Blocks of 8192 rows hold the
# geometry checks' temporaries to about 2 MB (8.7 MB at 32768 rows), and
# run no slower.
BLOCK_ROWS = 8192


@dataclass
class InvariantResult:
    invariant: str
    scope: str
    passed: bool
    max_violation: float
    detail: str
    witness: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "scope": self.scope,
            "status": "pass" if self.passed else "fail",
            "max_violation": self.max_violation,
            "detail": self.detail,
            "witness": self.witness,
        }


def _result(invariant, scope, violation, tol, detail, witness=None):
    return InvariantResult(
        invariant=invariant,
        scope=scope,
        passed=bool(violation <= tol),
        max_violation=float(violation),
        detail=detail,
        witness=witness or {},
    )


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def uniform_moments(count: int, rng: RngStream) -> tuple[np.ndarray, float]:
    """(mean row, fraction with x_0 > 0) of ``sample_uniform_many(2, count, rng)``, bitwise.

    numpy sums a C-contiguous array over axis 0 one row after another, so
    the sum goes on from the previous blocks' total, added into the first row
    of the block (a fresh draw, used for nothing else); adding per-block sums
    would reassociate it.
    """
    total, positive = None, 0
    for block in geometry.sample_uniform_blocks(2, count, rng, BLOCK_ROWS):
        positive += int(np.count_nonzero(block[:, 0] > 0))
        if total is not None:
            block[0] += total
        total = block.sum(axis=0)
    return total / count, positive / count


def _geometry_maxima(xs, ys, zs, angles, angles2) -> list[float]:
    """The worst violations of the five distance identities on one block of draws."""
    dxy = geometry.geodesic_many(xs, ys)
    emb1 = np.column_stack([np.cos(angles), np.sin(angles)])
    emb2 = np.column_stack([np.cos(angles2), np.sin(angles2)])
    return [
        np.max(geometry.geodesic_many(xs, zs) - dxy - geometry.geodesic_many(ys, zs)),
        np.max(np.abs(geometry.geodesic_many(-xs, -ys) - dxy)),
        np.max(np.abs(geometry.projective_many(xs, ys) - np.minimum(dxy, np.pi - dxy))),
        np.max(np.abs(2 * np.sin(dxy / 2) - geometry.row_norms(xs - ys))),
        np.max(np.abs(geometry.circle_distance_many(angles, angles2) - geometry.geodesic_many(emb1, emb2))),
    ]


def check_geometry(samples: int, rng: RngStream) -> list[InvariantResult]:
    n = max(1000, samples // 10)
    circle = [rng.child(c).generator() for c in (3, 4)]
    maxima = [
        _geometry_maxima(xs, ys, zs, *(gen.uniform(0, 2 * np.pi, size=len(xs)) for gen in circle))
        for xs, ys, zs in zip(*(geometry.sample_uniform_blocks(3, n, rng.child(c), BLOCK_ROWS) for c in range(3)))
    ]
    triangle, antipodal, fold, chord, circle_gap = (float(v) for v in np.max(maxima, axis=0))
    mean, frac = uniform_moments(max(samples, 10000), rng.child(5))
    mean_dev = float(np.max(np.abs(mean)))
    return [
        _result("triangle-inequality", "geometry", triangle, 1e-12, f"geodesic triples on S^3, n={n}"),
        _result("antipodal-invariance", "geometry", antipodal, 0.0, "d(-x, -y) == d(x, y) exactly"),
        _result("projective-fold", "geometry", fold, 1e-12, "arccos|<x,y>| == min(d, pi - d)"),
        _result("chord-identity", "geometry", chord, 1e-12, "2 sin(d/2) equals the Euclidean chord"),
        _result(
            "circle-embedding", "geometry", circle_gap, 1e-12,
            "angle distance matches geodesic distance on the embedded circle",
        ),
        _result(
            "uniform-sampling", "geometry",
            max(mean_dev - 0.02, abs(frac - 0.5) - 0.01, 0.0), 0.0,
            f"mean deviation {mean_dev:.4f}, halfspace fraction {frac:.4f}",
        ),
    ]


# ---------------------------------------------------------------------------
# pointsets
# ---------------------------------------------------------------------------

def cross_cell_diameter_gaps() -> tuple[float, float]:
    """(max of vdiam - (k-1)pi/k over 3 <= k <= 1000, |vdiam - 2pi/3| at k = 3) of the cross-polytope."""
    excess = max(pointsets.cross_polytope_vdiam_exact(k) - (k - 1) * np.pi / k for k in range(3, 1001))
    return excess, abs(pointsets.cross_polytope_vdiam_exact(3) - 2 * np.pi / 3)


def arc_set_sweep():
    """(n, k, set, pi/(k-n+3) - separation, |#points - 2(k+1)|) of each arc set with 2 <= n < k <= 30."""
    for n in range(2, 30):
        for k in range(n + 1, 31):
            aset = pointsets.arc_augmented_set(n, k)
            count_err = float(abs(aset.points().shape[0] - 2 * (k + 1)))
            yield n, k, aset, np.pi / (k - n + 3) - pointsets.separation(aset), count_err


def cross_vdiam_error(k: int, value: float) -> float:
    """Distance of a sampled cross-polytope Voronoi diameter from its closed form."""
    return abs(value - pointsets.cross_polytope_vdiam_exact(k))


def check_pointsets(samples: int, rng: RngStream, threads=None) -> list[InvariantResult]:
    out = []
    excess, k3_gap = cross_cell_diameter_gaps()
    out.append(
        _result(
            "cross-cell-diameter-inequality", "pointsets", excess, 1e-12,
            "cell diameter <= (k-1)pi/k for 3 <= k <= 1000",
        )
    )
    out.append(
        _result(
            "cross-cell-diameter-equality-k3", "pointsets", k3_gap, 1e-12,
            "equality holds at k = 3",
        )
    )

    worst = 0.0
    worst_cfg = {}
    for n, k, _, sep_deficit, count_err in arc_set_sweep():
        v = max(sep_deficit, count_err)
        if v > worst:
            worst, worst_cfg = v, {"n": n, "k": k}
    out.append(
        _result(
            "arc-set-separation-sweep", "pointsets",
            max(worst, 0.0), 1e-12,
            "2(k+1) points with separation >= pi/(k-n+3), 2 <= n < k <= 30",
            worst_cfg,
        )
    )

    sep_err = max(
        abs(pointsets.separation(pointsets.cross_polytope_set(3)) - np.pi / 2),
        abs(pointsets.separation(pointsets.evenly_spaced_circle_set(4)) - np.pi / 4),
    )
    out.append(
        _result(
            "construction-separations", "pointsets", sep_err, 1e-12,
            "cross-polytope pi/2; even circle pi/m",
        )
    )

    cp = pointsets.cross_polytope_set(3)
    xs = geometry.sample_uniform_many(3, max(200, samples // 100), rng.child(0))
    # the antipodal cell of column i is column (i + m) mod 2m
    flipped = np.roll(pointsets.cell_mask(cp, -xs), cp.m, axis=1)
    equiv_bad = int(np.sum(np.any(pointsets.cell_mask(cp, xs) != flipped, axis=1)))
    out.append(
        _result(
            "voronoi-antipode-equivariance", "pointsets", float(equiv_bad), 0.0,
            "cells(-x) are the antipodal cells of cells(x)",
        )
    )

    vdiam = {
        k: pointsets.voronoi_diameter_estimate(
            pointsets.cross_polytope_set(k), max(20000, samples), 200,
            rng.child(10 + k), threads=threads,
        )[0]
        for k in (2, 3)
    }
    worst = max(cross_vdiam_error(k, est) for k, est in vdiam.items())
    out.append(
        _result(
            "cross-vdiam-estimate", "pointsets", worst, 0.01,
            "sampled Voronoi diameter matches the closed form (k = 2, 3)",
        )
    )

    dh = pointsets.hausdorff_to_sphere_estimate(cp)
    out.append(
        _result(
            "vdiam-vs-hausdorff", "pointsets", max(vdiam[3] / 2 - dh - 0.01, 0.0), 0.0,
            "covering radius >= vdiam estimate / 2 - 0.01",
        )
    )
    return out


# ---------------------------------------------------------------------------
# cell-collapse correspondence
# ---------------------------------------------------------------------------

# The collapse proof's cases, numbered from 0: the row says where a pair's
# two free points lie (both on the high sphere S^k, one on each sphere, both
# on the low sphere) and the column how their cells relate (same, antipodal,
# other), where an element's cell is its stratum mod 2m.
NINE_CASES = np.array([[0, 1, 2], [3, 4, 5], [8, 7, 6]])


def nine_case_of(corr: VoronoiCorrespondence, first: ElementBatch, second: ElementBatch) -> np.ndarray:
    """Proof case (0..8, see ``NINE_CASES``) of each pair (first[i], second[i]) of ``corr``."""
    m = corr.P.m
    c1, c2 = first.strata % (2 * m), second.strata % (2 * m)
    column = np.where(c1 == c2, 0, np.where((c1 - c2) % (2 * m) == m, 1, 2))
    return NINE_CASES[2 - first.side - second.side, column]


def nine_case_witnesses(k: int, samples: int, rng: RngStream) -> list[tuple[str, float, float]]:
    """(case, objective, case bound) triples for the collapse-relation proof cases.

    Scores sampled pairs of ``even_cross(k)``, whose separations and Voronoi
    diameters are known exactly, and draws batches from ``rng.child(0)``,
    ``rng.child(1)``, ... until every case holds ``max(8, samples // 2000)``
    pairs.  A case's objective is the largest over its pairs.
    """
    corr, _ = even_cross(k)
    vd_p, vd_q = np.pi / (k + 1), pointsets.cross_polytope_vdiam_exact(k)
    gap_p, gap_q = np.pi - pointsets.separation(corr.P), np.pi - pointsets.separation(corr.Q)
    bounds = (vd_q, vd_q, gap_p, gap_p, gap_p, max(gap_p, gap_q), gap_q, vd_p, vd_p)  # case-1 .. case-9
    need = max(8, samples // 2000)
    counts = np.zeros(9, dtype=int)
    worst = np.zeros(9)
    draw = 0
    while counts.min() < need:
        batch = corr.sample_batch(8 * len(corr.stratum_labels) * need, rng.child(draw))
        half = len(batch.strata) // 2
        first, second = batch.take(slice(0, half)), batch.take(slice(half, 2 * half))
        cases = nine_case_of(corr, first, second)
        counts += np.bincount(cases, minlength=9)
        np.maximum.at(worst, cases, _objectives(first, second))
        draw += 1
    return [(f"case-{i + 1}", float(worst[i]), bounds[i]) for i in range(9)]


def check_rpq(k_values, samples: int, rng: RngStream, threads=None) -> list[InvariantResult]:
    check_k_values("rpq", k_values)
    out = []
    worst_case = 0.0
    worst = {}
    for k in k_values:
        for case, obj, bound in nine_case_witnesses(k, samples, rng.child(k)):
            v = obj - bound
            if v > worst_case:
                worst_case, worst = v, {"k": k, "case": case}
    out.append(
        _result(
            "nine-case-bounds", "rpq", max(worst_case, 0.0), 1e-9,
            "every proof case stays within its own bound", worst,
        )
    )

    worst_sound = 0.0
    worst = {}
    for k in k_values:
        corr, bound = even_cross(k)
        rep = estimate_distortion(
            corr,
            SearchBudget(samples=max(20000, samples), refine_iters=60),
            rng.child(100 + k),
            threads=threads,
        )
        v = rep.estimate - bound
        if v > worst_sound:
            worst_sound, worst = v, {"k": k, "estimate": rep.estimate, "bound": bound}
    out.append(
        _result(
            "estimate-within-bound", "rpq", max(worst_sound, 0.0), 1e-6,
            "empirical distortion never exceeds the collapse bound", worst,
        )
    )

    # Antipodal equivariance of correspondent queries.
    corr, _ = even_cross(3)
    ys = geometry.sample_uniform_many(3, 100, rng.child(200))
    ups, up_owner = corr.variants_many(1, ys)
    downs, down_owner = corr.variants_many(1, -ys)
    # (row, rounded correspondent) pairs; a row is bad if its two sets differ
    up = {(int(i), tuple(np.round(a, 9))) for i, a in zip(up_owner, ups.a)}
    down = {(int(i), tuple(np.round(-a, 9))) for i, a in zip(down_owner, downs.a)}
    bad = len({i for i, _ in up ^ down})
    out.append(
        _result(
            "correspondent-equivariance", "rpq", float(bad), 0.0,
            "correspondents of -y are the negated correspondents of y",
        )
    )
    return out


# ---------------------------------------------------------------------------
# ordered-cell correspondence
# ---------------------------------------------------------------------------

def cyclic_shift_violation(k: int, count: int, rng: RngStream) -> float:
    """Worst deviation of angle(m+n, A_n x) from angle(m, x) + n pi/(k+1)."""
    shifts = rng.child(1).generator()
    worst = []
    for xs in geometry.sample_uniform_blocks(k, count, rng.child(0), BLOCK_ROWS):
        ms = odd_corr.principal_cells_many(k, xs)
        base = cell_angles_many(k, xs, ms)
        ns = shifts.integers(0, 2 * k + 2, size=len(xs))
        lhs = cell_angles_many(k, odd_corr.cyclic_shift(k, ns, xs), (ms + ns - 1) % (2 * k + 2) + 1)
        rhs = base + ns * np.pi / (k + 1)
        worst.append(np.max(geometry.circle_distance_many(lhs, rhs)))
    return float(np.max(worst))


def z2_violation(k: int, count: int, rng: RngStream) -> float:
    """Worst deviation of angle(m+k+1, -x) from angle(m, x) + pi."""
    worst = []
    for xs in geometry.sample_uniform_blocks(k, count, rng, BLOCK_ROWS):
        ms = odd_corr.principal_cells_many(k, xs)
        lhs = cell_angles_many(k, -xs, (ms + k) % (2 * k + 2) + 1)
        rhs = cell_angles_many(k, xs, ms) + np.pi
        worst.append(np.max(geometry.circle_distance_many(lhs, rhs)))
    return float(np.max(worst))


def interval_confinement_violation(k: int, count: int, rng: RngStream) -> float:
    """Worst circle distance of a sampled point's image angle outside its cell's interval."""
    worst = 0.0
    for xs in geometry.sample_uniform_blocks(k, count, rng, BLOCK_ROWS):
        ms = odd_corr.principal_cells_many(k, xs)
        iv = odd_corr.CircleInterval.of_cell(k, ms)
        delta = np.mod(cell_angles_many(k, xs, ms) - iv.lo, 2 * np.pi)
        off = np.minimum(np.abs(delta - np.clip(delta, 0, iv.width)), np.abs(delta - 2 * np.pi))
        worst = max(worst, float(np.max(off, initial=0.0)))
    return worst


def coordinate_gaps(k: int, count: int, rng: RngStream) -> tuple[float, float]:
    """Worst excess of (x_1 - |z_m|)^2 over |x - z|^2, and of the proof's linear
    form over |x - z|, on sampled pairs of cell 1 with cells k and k+1."""
    coeff = np.pi / (2 * k * (k + 1))
    draws = [
        odd_corr.sample_in_ordered_cell_blocks(k, m, count, rng.child(c), BLOCK_ROWS)
        for c, m in enumerate((1, k, k + 1))
    ]
    sq_gaps, linear_gaps = [], []
    for xs, *zss in zip(*draws):
        sum_x = xs.sum(axis=1) / xs[:, 0]
        for j, zs in zip((k, k + 1), zss):
            dist2 = np.einsum("ij,ij->i", xs - zs, xs - zs)
            sq_gaps.append(np.max((xs[:, 0] - np.abs(zs[:, odd_corr.cell_axis(k, j)])) ** 2 - dist2))
            if j == k:
                sum_z = (zs[:, : k - 1].sum(axis=1) + zs[:, k - 1] - zs[:, k]) / zs[:, k - 1]
                lhs = coeff * (sum_x + sum_z - 2 * k)
            else:
                sum_z = zs.sum(axis=1) / zs[:, k]
                lhs = coeff * (sum_x + sum_z)
            linear_gaps.append(np.max(lhs - np.sqrt(dist2)))
    return float(np.max(sq_gaps)), float(np.max(linear_gaps))


def distance_decrease_violations(k: int, count: int, rng: RngStream) -> tuple[int, float]:
    """(failures, closest margin) of strict contraction of the cell maps on
    same-cell pairs: x uniform, y uniform on x's ordered cell."""
    bad, closest = 0, np.inf
    draws = [geometry.sample_uniform_blocks(k, count, rng.child(0, c), BLOCK_ROWS) for c in (0, 1)]
    for xs, ys in zip(*draws):
        ms = odd_corr.principal_cells_many(k, xs)
        ys = odd_corr.into_cells(k, ys, ms)
        d_sphere = geometry.geodesic_many(xs, ys)
        d_circle = geometry.circle_distance_many(
            cell_angles_many(k, xs, ms), cell_angles_many(k, ys, ms)
        )
        strict = (d_circle < d_sphere) | (d_sphere <= 1e-12)
        bad += int(np.count_nonzero(~strict))
        closest = min(closest, float(np.min(d_sphere - d_circle, initial=np.inf)))
    return bad, closest


# The worked example at k = 3: a corner where four ordered cells meet, and the
# circle correspondents of it and of its antipode, in units of pi/24.
CORNER_K3 = (((0.5, -0.5, 0.5, 0.5), (-1, 7, 11, 43)), ((-0.5, 0.5, -0.5, -0.5), (19, 23, 31, 35)))


def corner_correspondent_error(coords, twenty_fourths) -> float:
    """Worst circle distance from the k = 3 correspondents of ``coords`` to the expected angles.

    A wrong count scores pi, the largest circle distance."""
    batch, _ = OddCircleCorrespondence(3).variants_many(0, np.array([coords]))
    got = np.sort(batch.b)
    want = np.sort(np.array(twenty_fourths) * np.pi / 24 % (2 * np.pi))
    return float(np.max(geometry.circle_distance_many(got, want))) if len(got) == len(want) else np.pi


def odd_witness_error(k: int) -> float:
    """Distance of the boundary witness's objective from (k-1)pi/k."""
    _, value = odd_corr.max_distortion_witness(k)
    return abs(value - packing.circle_to_sphere_exact(k))


def odd_window_violation(k: int, estimate: float) -> float:
    """How far ``estimate`` lies outside [(k-1)pi/k - 0.02, (k-1)pi/k + 1e-6]; <= 0 inside."""
    target = packing.circle_to_sphere_exact(k)
    return max(target - 0.02 - estimate, estimate - target - 1e-6)


def cell_pair_objectives(k: int, i: int, j: int, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """|circle distance - sphere distance| of the pairs ((xs[r], cell i), (zs[r], cell j))."""
    angles = [cell_angles_many(k, pts, np.full(len(pts), m)) for pts, m in ((xs, i), (zs, j))]
    return np.abs(geometry.circle_distance_many(*angles) - geometry.geodesic_many(xs, zs))


def check_odd(k_values, samples: int, rng: RngStream, threads=None) -> list[InvariantResult]:
    check_k_values("odd", k_values)
    out = []

    if 3 in k_values:
        out.append(
            _result(
                "corner-correspondents-k3", "odd", corner_correspondent_error(*CORNER_K3[0]), 1e-12,
                "the (1/2, -1/2, 1/2, 1/2) corner maps to its four known angles",
            )
        )

    worst = max(odd_witness_error(k) for k in k_values)
    out.append(
        _result(
            "witness-value", "odd", worst, 1e-12,
            "the boundary witness realizes (k-1)pi/k exactly",
        )
    )

    count = max(5000, samples)
    worst_cyc = max(cyclic_shift_violation(k, count, rng.child(30 + k)) for k in k_values)
    out.append(
        _result(
            "cyclic-shift-relation", "odd", worst_cyc, 1e-12,
            "angle(m+n, A_n x) == angle(m, x) + n pi/(k+1) (mod 2 pi)",
        )
    )
    worst_z2 = max(z2_violation(k, count, rng.child(60 + k)) for k in k_values)
    out.append(
        _result(
            "antipodal-shift-relation", "odd", worst_z2, 1e-12,
            "angle(m+k+1, -x) == angle(m, x) + pi (mod 2 pi)",
        )
    )

    worst_bad = 0
    for k in k_values:
        bad, _ = distance_decrease_violations(k, count, rng.child(90 + k))
        worst_bad = max(worst_bad, bad)
    out.append(
        _result(
            "cell-maps-contract", "odd", float(worst_bad), 0.0,
            "every cell map strictly decreases distances on same-cell pairs",
        )
    )

    worst_conf = max(interval_confinement_violation(k, count, rng.child(120 + k)) for k in k_values)
    out.append(
        _result(
            "interval-confinement", "odd", worst_conf, 1e-9,
            "cell maps send each cell into its own circle interval",
        )
    )

    # Euclidean comparison inequalities used by the distortion proof.
    gaps = [coordinate_gaps(k, count, rng.child(150 + k)) for k in k_values]
    worst_sq = max(0.0, *(sq for sq, _ in gaps))
    worst_simple = max(0.0, *(linear for _, linear in gaps))
    out.append(
        _result(
            "coordinate-gap-inequality", "odd", worst_sq, 1e-12,
            "(x_1 - |z_m|)^2 <= |x - z|^2 on sampled cell pairs",
        )
    )
    out.append(
        _result(
            "reduced-case-inequality", "odd", worst_simple, 1e-12,
            "the sufficient linear form stays below the Euclidean distance",
        )
    )

    # Boundary-restricted search dominates interior search.
    worst_gap = 0.0
    for k in k_values:
        probe = max(2000, samples // 10)
        for (i, j) in odd_corr.case_reduction_pairs(k):
            b_rng = rng.child(200 + k, i, j)
            others_i, others_j = odd_corr.neighbor_cells(k, i), odd_corr.neighbor_cells(k, j)
            xs = np.vstack([
                odd_corr.sample_cell_boundary_many(k, i, int(mm), probe // len(others_i) + 1, b_rng.child(1, t))
                for t, mm in enumerate(others_i)
            ])[:probe]
            zs = np.vstack([
                odd_corr.sample_cell_boundary_many(k, j, int(mm), probe // len(others_j) + 1, b_rng.child(2, t))
                for t, mm in enumerate(others_j)
            ])[:probe]
            d_bnd = cell_pair_objectives(k, i, j, xs, zs)
            xi = odd_corr.sample_in_ordered_cell_many(k, i, probe, b_rng.child(3))
            zi = odd_corr.sample_in_ordered_cell_many(k, j, probe, b_rng.child(4))
            d_int = cell_pair_objectives(k, i, j, xi, zi)
            worst_gap = max(worst_gap, float(np.max(d_int) - np.max(d_bnd)))
    out.append(
        _result(
            "boundary-search-dominates", "odd", max(worst_gap, 0.0), 0.0,
            "boundary-restricted search finds at least the interior maximum",
        )
    )

    # Global distortion window, concentrated on the reduced case pairs.
    worst = 0.0
    for k in k_values:
        rep = estimate_distortion(
            OddCircleCorrespondence(k),
            SearchBudget(samples=max(30000, samples), refine_iters=80),
            rng.child(250 + k),
            threads=threads,
        )
        worst = max(worst, odd_window_violation(k, rep.estimate))
    out.append(
        _result(
            "global-distortion-window", "odd", worst, 0.0,
            "estimates fall in [(k-1)pi/k - 0.02, (k-1)pi/k + 1e-6]",
        )
    )
    return out


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------

# Packings of m lines in RP^n with a known optimum: (n, m) -> (min distance, tolerance).
PACKING_ANCHORS = {
    (1, 5): (np.pi / 5, 1e-4),
    (2, 2): (np.pi / 2, 1e-6),
    (2, 3): (np.pi / 2, 1e-6),
    (2, 4): (np.arccos(1 / 3), 1e-3),
}


def check_packing(rng: RngStream) -> list[InvariantResult]:
    out = []
    budget = packing.PackingBudget(1200, 300, 12)
    packed = {}  # (n, m) -> result: each size is optimized once, on the stream of its first use
    for child, (n, m, name, detail) in enumerate((
        (1, 5, "circle-five-lines", "five projective points on the circle pack at pi/5"),
        (2, 3, "orthogonal-lines", "m <= n+1 lines reach the projective diameter"),
        (2, 4, "four-lines-plane", "four lines in RP^2 pack at arccos(1/3)"),
    )):
        target, tol = PACKING_ANCHORS[n, m]
        result = packed[n, m] = packing.optimize_packing(n, m, budget, rng.child(child))
        out.append(_result(name, "packing", abs(result.min_dist - target), tol, detail))
    cov = packing.covering_radius_estimate(np.eye(3))
    out.append(
        _result(
            "basis-covering-radius", "packing",
            abs(cov - np.arccos(1 / np.sqrt(3))), 1e-12,
            "basis lines of RP^2 cover at arccos(1/sqrt(3))",
        )
    )
    worst = 0.0
    for n, m in ((2, 4), (2, 6), (3, 8)):
        res = packed[n, m] if (n, m) in packed else packing.optimize_packing(n, m, budget, rng.child(10 + m))
        c = packing.covering_radius_estimate(res.points)
        worst = max(worst, c - res.min_dist - 0.01)
    out.append(
        _result(
            "covering-below-packing", "packing", max(worst, 0.0), 0.0,
            "covering radius <= packing distance + 0.01",
        )
    )
    return out


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def check_k_values(scope: str, k_values) -> None:
    """Raise ValueError unless every k suits every scope that ``scope`` runs."""
    if scope not in ("rpq", "odd", "all"):
        raise ValueError(f"scope {scope} reads no k values; only rpq, odd and all take --k")
    for k in k_values:
        if scope != "odd" and k < 2:
            raise ValueError(f"rpq scope needs k >= 2, got {k}")
        if scope != "rpq" and (k < 3 or k % 2 == 0):
            raise ValueError(f"odd scope needs odd k >= 3, got {k}")


def run_verify(
    scope: str,
    k_values=None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    threads: int | None = None,
) -> list[InvariantResult]:
    """Run one verification scope (or all) and return its invariant records."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if scope != "all" and scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}")
    if k_values is not None:  # before any scope runs, so a bad k costs no work
        check_k_values(scope, k_values)
    rng = RngStream(seed)
    scopes = SCOPES if scope == "all" else (scope,)
    out: list[InvariantResult] = []
    for sc in scopes:
        if sc == "geometry":
            out.extend(check_geometry(samples, rng.child(1)))
        elif sc == "pointsets":
            out.extend(check_pointsets(samples, rng.child(2), threads))
        elif sc == "rpq":
            out.extend(check_rpq(k_values or [2, 3, 4], samples, rng.child(3), threads))
        elif sc == "odd":
            out.extend(check_odd(k_values or [3], samples, rng.child(4), threads))
        elif sc == "packing":
            out.extend(check_packing(rng.child(5)))
    return out
