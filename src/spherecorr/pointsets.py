"""Finite antipodal point sets on spheres and their Voronoi statistics.

An antipodal set is stored through m representatives; the other m points are
the implicit negatives.  The module builds the three constructions used by
the correspondence machinery (evenly spaced circle points, cross-polytope
vertices, cross-polytope vertices augmented with arc points) and answers
separation, cell-membership, Voronoi-diameter, and covering queries.
Separation and the covering radius are exact; the Voronoi diameter is exact
on S^1 and a sampled, hill-climbed lower estimate elsewhere.

Cells are numbered by the columns of :meth:`AntipodalSet.points`: column i < m
is the cell of representative i, column i + m that of its negative, so the
antipodal cell of column i is column (i + m) mod 2m.  Membership is one batch
query, :func:`cell_mask`, over a stack of points.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from . import geometry
from .geometry import UnitVector, clip_cosine
from .parallel import run_shards, shard_sizes
from .rng import RngStream

# Cell membership uses a positive tolerance so that boundary points (ties
# between sites) are reported as members of every tied cell.
CELL_TOL = 1e-9

# Construction-time guard against coincident points.
COINCIDENCE_TOL = 1e-9


class AntipodalSet:
    """2m points {+-p_1, ..., +-p_m} on S^d, stored via the m representatives."""

    def __init__(self, reps, label: str = "custom"):
        arr = np.atleast_2d(np.asarray(reps, dtype=float))
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise ValueError("representatives must be an (m, d+1) array with d >= 1")
        arr = geometry.normalize_rows(arr)
        self.reps = arr
        self.label = label
        self._points = np.vstack([arr, -arr])
        cos = clip_cosine(self._points @ self._points.T)
        np.fill_diagonal(cos, -1.0)
        self._separation = float(np.arccos(np.max(cos)))
        if self._separation < COINCIDENCE_TOL:
            raise ValueError(
                "antipodal set has coincident points "
                f"(closest pair at {self._separation:.3e} rad)"
            )

    @property
    def m(self) -> int:
        return self.reps.shape[0]

    @property
    def dim(self) -> int:
        return self.reps.shape[1] - 1

    def points(self) -> np.ndarray:
        """All 2m points, representatives first, as a (2m, d+1) array."""
        return self._points

    def site_distances(self, x: np.ndarray) -> np.ndarray:
        """Geodesic distances from ``x`` to all 2m sites; (rows, 2m) for a stack of rows."""
        return geometry.geodesic_many(np.asarray(x, dtype=float)[..., None, :], self._points)

    def nearest_site_many(self, xs: np.ndarray) -> np.ndarray:
        """0-based nearest-site index for each row of ``xs`` (ties -> lowest)."""
        # numpy's argmax stays: a column loop took 3.3 ms to its 1.2 on (32768, 10)
        return np.argmax(xs @ self._points.T, axis=1)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def evenly_spaced_circle_set(m: int) -> AntipodalSet:
    """2m evenly spaced points on S^1, at angles j*pi/m; separation pi/m."""
    if m < 2:
        raise ValueError("need at least 2 representatives on the circle")
    angles = np.arange(m) * np.pi / m
    reps = np.column_stack([np.cos(angles), np.sin(angles)])
    return AntipodalSet(reps, label="circle-even")


def cross_polytope_set(k: int) -> AntipodalSet:
    """The 2(k+1) points {+-e_1, ..., +-e_{k+1}} on S^k; separation pi/2."""
    if k < 1:
        raise ValueError("sphere dimension must be >= 1")
    return AntipodalSet(np.eye(k + 1), label="cross-polytope")


def positive_arcs(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Endpoint pairs of the n(n+1) positive geodesic arcs between basis axes.

    For i < j the positive copies are (+e_i, +e_j) and (+e_i, -e_j); their
    antipodal arcs are the negative copies.  Yielded lazily, in that order.
    """
    eye = np.eye(n + 1)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            yield eye[i], eye[j]
            yield eye[i], -eye[j]


def arc_rows(n: int, count: int) -> np.ndarray:
    """The first ``count`` rows of the arc construction in R^{n+1}.

    Basis vectors come first; the remaining rows sit in the interiors of the
    positive arcs at even arc-length fractions, filling arcs in the fixed
    order of :func:`positive_arcs` with at most ceil(extra / n(n+1)) each.
    Only the arcs that are filled are built.
    Rows are unit vectors up to roundoff and are not renormalized.
    """
    base = np.eye(n + 1)
    if count <= n + 1:
        return base[:count]
    rows = [base]
    budget = count - (n + 1)
    per_arc = -(-budget // (n * (n + 1)))  # ceil
    for a, b in positive_arcs(n):
        if budget == 0:
            break
        take = min(per_arc, budget)
        budget -= take
        fracs = np.arange(1, take + 1) / (take + 1)
        t = fracs * (np.pi / 2)  # arcs between non-antipodal axes have length pi/2
        rows.append(np.outer(np.cos(t), a) + np.outer(np.sin(t), b))
    return np.vstack(rows)


def arc_augmented_set(n: int, k: int) -> AntipodalSet:
    """Cross-polytope vertices of S^n plus k-n arc points, 2(k+1) points total.

    The extra representatives sit in the interiors of the positive arcs
    between non-antipodal vertex pairs, at even arc-length fractions, filling
    arcs in a fixed lexicographic order with at most
    N = ceil((k-n)/(n(n+1))) points each.  Consecutive gaps along any filled
    arc are at least pi/(2(N+1)), which bounds the separation of the whole
    set from below by pi/(k-n+3).
    """
    if n < 2:
        raise ValueError("the arc construction needs sphere dimension n >= 2")
    if k <= n:
        raise ValueError("need k > n so there are arc points to place")
    return AntipodalSet(arc_rows(n, k + 1), label="arc-augmented")


# ---------------------------------------------------------------------------
# Exact queries
# ---------------------------------------------------------------------------

def separation(aset: AntipodalSet) -> float:
    """Minimum geodesic distance over all distinct pairs of the 2m points.

    Computed once, when the set is built (which rejects coincident points).
    """
    return aset._separation


def cross_polytope_vdiam_exact(k: int) -> float:
    """Voronoi diameter of the cross-polytope vertex set in S^k.

    Each cell is the set of points whose distinguished coordinate is largest
    in magnitude, and its diameter is arccos(-(k-1)/(k+1)).
    """
    if k < 1:
        raise ValueError("sphere dimension must be >= 1")
    return float(np.arccos(-(k - 1.0) / (k + 1.0)))


def covering_radius(reps: np.ndarray) -> float:
    """Exact covering radius sup_x min_i d(x, +-reps_i) of unit rows ``reps``.

    The distance to the nearer of +-p is the projective distance to p, so
    this is both the covering radius of the antipodal set and the projective
    covering radius of the representatives.  The farthest points are Voronoi
    vertices of +-P, which are the unit normals of the facets of conv(+-P),
    and each facet holds n+1 linearly independent signed representatives.
    So every independent (n+1)-subset and every sign pattern s (first sign
    fixed: s and -s give one line) yields a candidate v with <v, s_i p_i> = 1;
    each candidate is scored at its own point, so no score exceeds the
    radius, and the largest score equals it.  If no n+1 representatives are
    independent, a unit vector orthogonal to all of them lies at pi/2.

    Cost: C(m, n+1) * 2^n solves of (n+1) x (n+1) systems.
    """
    reps = np.atleast_2d(np.asarray(reps, dtype=float))
    m, d = reps.shape
    if m < 1:
        raise ValueError("need at least one point")
    subsets = np.array(list(itertools.combinations(range(m), d)), dtype=int).reshape(-1, d)
    rows = reps[subsets]
    # det (one LU) is 0 exactly where solve's LU meets a zero pivot and would
    # raise; a nearly singular subset's candidates whose norm overflows are dropped.
    rows = rows[np.linalg.det(rows) != 0]
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=d)))[: 2 ** (d - 1)]
    v = np.linalg.solve(rows[:, None], signs[None, :, :, None]).reshape(-1, d)
    v = v[np.isfinite(geometry.row_dot(v, v))]
    if not len(v):
        return np.pi / 2
    v = geometry.normalize_rows(v)
    # A score is arccos max_i |<v, p_i>| and arccos falls with slope >= 1: a
    # candidate more than 1e-9 behind the smallest cosine is more than 1e-9
    # behind in distance, far above the matmul's roundoff, so it cannot hold the max.
    cos = np.max(np.abs(v @ reps.T), axis=1)
    v = v[cos <= cos.min() + 1e-9]
    return float(np.max(np.min(geometry.projective_many(v[:, None, :], reps), axis=1)))


def hausdorff_to_sphere_estimate(aset: AntipodalSet) -> float:
    """Hausdorff distance from the set to its sphere: its exact covering radius.

    The exact side of the inequality vdiam <= 2 * d_H.
    """
    return covering_radius(aset.reps)


def cell_mask(aset: AntipodalSet, xs: np.ndarray) -> np.ndarray:
    """(rows, 2m) mask of the cells whose site distance is within ``CELL_TOL`` of each row's minimum."""
    dists = aset.site_distances(xs)
    return dists <= geometry.row_min(dists)[:, None] + CELL_TOL


# ---------------------------------------------------------------------------
# Sampled Voronoi-diameter estimator
# ---------------------------------------------------------------------------

def _slide_directions(x, raw, own_sites, sites, activation):
    """Tangent ascent directions, row-wise, projected onto each row's active cell walls.

    Row i's cell is cut out by the halfspaces <x, own_sites[i] - s'> >= 0;
    removing the infeasible components of the step lets the climb slide along
    cell walls instead of stalling against them.  Each row walks its own
    active walls (margin within ``activation[i]``) in index order, twice,
    pushing the step back onto each wall it crosses; a pass recomputes only
    the products of active (row, wall) pairs, and ends once no row crosses
    another wall.
    """
    g = raw - geometry.row_dot(raw, x)[:, None] * x
    normals = own_sites[:, None, :] - sites
    sq = geometry.row_dot(normals, normals)
    margins = geometry.row_dot(own_sites, x)[:, None] - geometry.row_dot(x[:, None, :], sites)
    # row-major: each row's active walls are contiguous and in index order
    rows, cols = np.nonzero((margins <= activation[:, None]) & (sq >= 1e-300))
    normals, sq = normals[rows, cols], sq[rows, cols]
    pair = np.arange(len(rows))
    for _ in range(2):
        done = np.full(len(x), -1)  # each row's last pushed-back pair
        while True:
            viol = geometry.row_dot(g[rows], normals)
            hit = np.flatnonzero((viol < 0) & (pair > done[rows]))
            if not hit.size:
                break
            hit = hit[geometry.run_heads(rows[hit])]  # each row's first crossing
            on = rows[hit]
            g[on] -= (viol[hit] / sq[hit])[:, None] * normals[hit]
            done[on] = hit
    return g - geometry.row_dot(g, x)[:, None] * x


def _climb_pairs_in_cells(aset, cells, pts, iters, rngs):
    """Hill-climb point pairs ``pts[i]`` inside cells ``cells[i]`` to larger distance.

    Each move pushes one endpoint away from the other, with the step slid
    along active cell walls, then straight away, then in a random direction
    (row i draws its directions up front from ``rngs[i]``).  Moves that leave
    the cell or do not increase the distance are rejected, so every value is
    realized by a feasible pair.  Updates ``pts`` in place; returns the values.
    """
    sites = aset.points()
    normals = np.array([r.generator().standard_normal((iters, aset.dim + 1)) for r in rngs])

    def propose(it, rows, steps):
        p, step = it % 2, steps[rows]
        cur, other = pts[rows, p], pts[rows, 1 - p]
        slide = _slide_directions(cur, -other, sites[cells[rows]], sites, step)
        moved = np.repeat(pts[rows], 3, axis=0)
        ways = np.stack([slide, -other, normals[rows, it]], axis=1).reshape(-1, cur.shape[1])
        moved[:, p] = geometry.tangent_step(moved[:, p], ways, np.repeat(step, 3))
        owner = np.repeat(rows, 3)
        inside = cell_mask(aset, moved[:, p])[np.arange(len(owner)), cells[owner]]
        scores = geometry.geodesic_many(moved[:, 0], moved[:, 1])
        return owner, np.where(inside, scores, -np.inf), (moved,)

    start = geometry.geodesic_many(pts[:, 0], pts[:, 1])
    return geometry.hill_climb((pts,), start, iters, np.pi / 16, 0.5, 0.8, propose)


def _far_pair(points: np.ndarray) -> tuple[float, int, int]:
    """Greedy farthest-pair search inside one bucket of sampled points."""
    best = (-1.0, 0, 0)
    i = 0
    for _ in range(6):
        d = np.arccos(clip_cosine(points @ points[i]))
        j = int(np.argmax(d))
        if d[j] > best[0]:
            best = (float(d[j]), i, j)
        if j == i:
            break
        i = j
    return best


def _circle_vdiam_exact(aset: AntipodalSet) -> tuple[float, tuple[UnitVector, UnitVector]]:
    """On S^1 the Voronoi diameter is exact: widest cell between gap midpoints."""
    pts = aset.points()
    angles = np.sort(np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * np.pi))
    gaps = np.diff(np.append(angles, angles[0] + 2 * np.pi))
    widths = (gaps + np.roll(gaps, 1)) / 2.0  # cell of site i spans half of each adjacent gap
    i = int(np.argmax(widths))
    lo = angles[i] - gaps[i - 1] / 2.0
    hi = angles[i] + gaps[i] / 2.0
    witness = (
        UnitVector([np.cos(lo), np.sin(lo)]),
        UnitVector([np.cos(hi), np.sin(hi)]),
    )
    return float(widths[i]), witness


def voronoi_diameter_estimate(
    aset: AntipodalSet,
    samples: int,
    refine_iters: int = 200,
    rng: RngStream = RngStream(0),
    threads: int | None = None,
) -> tuple[float, tuple[UnitVector, UnitVector]]:
    """Lower estimate of the largest Voronoi cell diameter, with witness pair.

    Samples are bucketed by nearest site; each shard finds a far pair per
    cell, and the most promising pairs of all shards are hill-climbed as one
    batch without leaving their cells.
    On S^1 the answer is computed exactly instead.

    Returns
    -------
    (value, (u, v)) where u, v lie in a common cell and realize ``value``.
    """
    if samples < 1:
        raise ValueError("sample budget must be >= 1")
    if refine_iters < 0:
        raise ValueError("refine_iters must be >= 0")
    if aset.dim == 1:
        return _circle_vdiam_exact(aset)

    # Phase A (parallel, vectorized): bucket samples by cell and pull a far
    # pair per cell.  Phase B (in the calling thread): hill-climb the best
    # candidates as one batch; worker count therefore never influences the
    # result.
    def work(index, count, shard_rng):
        xs = geometry.sample_uniform_many(aset.dim, count, shard_rng.child(0))
        assign = aset.nearest_site_many(xs)
        candidates = []
        for cell in range(2 * aset.m):
            bucket = xs[assign == cell]
            if bucket.shape[0] < 2:
                continue
            val, i, j = _far_pair(bucket)
            candidates.append((val, cell, bucket[i], bucket[j]))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        return candidates[:4]

    results = run_shards(work, shard_sizes(samples, 8192), rng, threads)
    cands = [c for candidates in results for c in candidates]
    if not cands:
        # Degenerate budget: fall back to a site paired with itself.
        p = UnitVector(aset.reps[0])
        return 0.0, (p, p)
    values = np.array([c[0] for c in cands])
    pts = np.array([(c[2], c[3]) for c in cands])
    if refine_iters > 0:
        cells = np.array([c[1] for c in cands])
        # candidate j of shard i climbs on its own stream rng.child(i, 1, j)
        rngs = [rng.child(i, 1, j) for i, candidates in enumerate(results) for j in range(len(candidates))]
        values = _climb_pairs_in_cells(aset, cells, pts, refine_iters, rngs)
    best = int(np.argmax(values))
    return float(values[best]), (UnitVector(pts[best, 0]), UnitVector(pts[best, 1]))
