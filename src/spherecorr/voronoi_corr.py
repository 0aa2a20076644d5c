"""The cell-collapse correspondence induced by two equal-size antipodal sets.

Given antipodal sets P in S^n and Q in S^k with the same number of
representatives, each Voronoi cell of Q collapses onto the matching site of
P and vice versa.  The distortion of the resulting relation is at most

    max( vdiam(P), pi - sep(P), vdiam(Q), pi - sep(Q) ),

which is the quantity :func:`rpq_bound` evaluates.  The relation itself is a
continuum and is exposed only through the batch correspondent query
:meth:`VoronoiCorrespondence.variants_many` and the samplers.
"""

from __future__ import annotations

import numpy as np

from . import geometry, pointsets
from .distortion import Correspondence, ElementBatch
from .pointsets import AntipodalSet


class VoronoiCorrespondence(Correspondence):
    """Cell-collapse relation between S^n (the low sphere) and S^k (the high sphere).

    Relation elements are tracked by their free point: either a point of the
    low sphere (side 0) paired with the site of a containing cell of Q, or a
    point of the high sphere (side 1) paired with the site of a containing
    cell of P.  Strata are the 4m signed cells, counted per direction.  Cell
    membership admits ties within ``pointsets.CELL_TOL`` radians of site
    distance.
    """

    def __init__(self, p_set: AntipodalSet, q_set: AntipodalSet):
        if p_set.m != q_set.m:
            raise ValueError(
                f"the two sets must have equal size: {p_set.m} vs {q_set.m} representatives"
            )
        self.P = p_set
        self.Q = q_set

    # -- engine interface ---------------------------------------------------

    @property
    def stratum_labels(self) -> tuple[str, ...]:
        cells = range(1, 2 * self.P.m + 1)
        return tuple(f"{name}-cell-{c}" for name in "PQ" for c in cells)

    def _elements(self, side: int, free: np.ndarray, cells: np.ndarray):
        """Batch columns (a, b, side, strata) of the elements over rows ``free`` in ``cells``."""
        if side == 0:
            a, b, strata = free, self.Q.points()[cells], cells
        else:
            a, b, strata = self.P.points()[cells], free, 2 * self.P.m + cells
        return a, b, np.full(len(cells), side), strata

    def sample_batch(self, count, rng):
        n_low = count // 2
        xs = geometry.sample_uniform_many(self.P.dim, n_low, rng.child(0))
        ys = geometry.sample_uniform_many(self.Q.dim, count - n_low, rng.child(1))
        cells = np.concatenate([self.P.nearest_site_many(xs), self.Q.nearest_site_many(ys)])
        # Shuffle so that pairing the two batch halves mixes the directions:
        # row i is row perm[i] of the low elements followed by the high ones
        # (the rows of :meth:`_elements`).  The a and b columns are each one
        # gather from the free points of one side and the sites of the other.
        perm = rng.child(2).generator().permutation(count)
        side = (perm >= n_low).astype(int)
        cells = cells.take(perm)
        a = np.concatenate([xs, self.P.points()]).take(np.where(side, n_low + cells, perm), axis=0)
        b = np.concatenate([self.Q.points(), ys]).take(
            np.where(side, perm + (2 * self.Q.m - n_low), cells), axis=0
        )
        return ElementBatch(a, b, side, cells + 2 * self.P.m * side)

    def variants_many(self, side, frees):
        if side not in (0, 1):
            raise ValueError(f"side must be 0 (the low sphere) or 1 (the high sphere); got {side}")
        frees = np.asarray(frees, dtype=float)
        owner, cells = np.nonzero(pointsets.cell_mask(self.P if side == 0 else self.Q, frees))
        return ElementBatch(*self._elements(side, frees.take(owner, axis=0), cells)), owner

    variants_of_free = Correspondence.variants_of_free  # per-class name, wrapped by perfbench/layers.py

    # -- boundary-focused candidates -----------------------------------------

    @staticmethod
    def _tie_points_many(aset: AntipodalSet, ys: np.ndarray) -> np.ndarray:
        """Slide each row toward its second-nearest site until the top two tie.

        With s1, s2 the nearest and second-nearest site (ordered by inner
        product), the tie <q, s1> = <q, s2> on the chord q(t) = (1-t) y + t s2
        is linear in t, so t = f0 / (f0 - f1) with f0 = <y, s1 - s2> >= 0 and
        f1 = <s2, s1 - s2> = <s1, s2> - 1 < 0; t lies in [0, 1).  The tie
        point is q(t) normalized; it is at least as near to s1 and s2 as to
        any other site.  Rows whose second site is antipodal are left in place
        (they get a single variant and are dropped by the caller).
        """
        sites = aset.points()
        dots = ys @ sites.T
        # The first two columns of a stable descending sort: argmax takes the
        # lowest index among equal maxima, as the sort does.
        first = dots.argmax(axis=1)
        dots[np.arange(len(ys)), first] = -np.inf
        s1, s2 = sites[first], sites[dots.argmax(axis=1)]
        f0, f1 = geometry.row_dot(ys, s1 - s2), geometry.row_dot(s2, s1 - s2)
        movable = geometry.row_dot(ys, s2) > -1.0 + 1e-12
        t = np.where(movable, f0 / (f0 - f1), 0.0)
        return geometry.normalize_rows((1 - t)[:, None] * ys + t[:, None] * s2)

    def sample_focus_pairs(self, count, rng):
        """Element pairs over ``count // 8`` closed-form tie points per side
        (:meth:`_tie_points_many`).  A pair's objective is a distance between
        two sites of the other set; the tie point decides which cells pair.
        """
        per_side = max(1, count // 8)
        left, right = [], []  # column blocks; row t of left pairs with row t of right
        for side, aset in ((1, self.Q), (0, self.P)):
            ys = geometry.sample_uniform_many(aset.dim, per_side, rng.child(side))
            ties = self._tie_points_many(aset, ys)
            hit = pointsets.cell_mask(aset, ties)
            # Containing cells of each tie point in index order c0 < c1 < c2,
            # each the first True left after clearing the ones before; each
            # point gives the pair (c0, c1), and also (c0, c2) on a triple tie.
            rows = np.repeat(np.arange(per_side), np.clip(hit.sum(axis=1) - 1, 0, 2))
            c = []
            for _ in range(3):
                c.append(hit.argmax(axis=1))
                hit[np.arange(per_side), c[-1]] = False
            partner = np.where(geometry.run_heads(rows), c[1][rows], c[2][rows])
            pts = ties[rows]
            left.append(self._elements(side, pts, c[0][rows]))
            right.append(self._elements(side, pts, partner))
        return ElementBatch(*(np.concatenate(col) for col in zip(*(left + right))))


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

def rpq_bound(
    corr: VoronoiCorrespondence, vdiam_p: float, vdiam_q: float
) -> float:
    """Distortion bound max(vdiam(P), pi - sep(P), vdiam(Q), pi - sep(Q)).

    Voronoi diameters are supplied by the caller (exact where known, sampled
    estimates otherwise); separations are computed exactly here.
    """
    sep_p = pointsets.separation(corr.P)
    sep_q = pointsets.separation(corr.Q)
    return max(vdiam_p, np.pi - sep_p, vdiam_q, np.pi - sep_q)


def even_cross(k: int) -> tuple[VoronoiCorrespondence, float]:
    """The evenly spaced circle set collapsed onto the cross-polytope of S^k, and its bound.

    Both Voronoi diameters are exact (pi/(k+1) on the circle), so the bound
    is the closed form k*pi/(k+1) up to roundoff.
    """
    if k < 2:
        raise ValueError("rpq-even-cross needs k >= 2")
    corr = VoronoiCorrespondence(
        pointsets.evenly_spaced_circle_set(k + 1), pointsets.cross_polytope_set(k)
    )
    return corr, rpq_bound(corr, np.pi / (k + 1), pointsets.cross_polytope_vdiam_exact(k))

