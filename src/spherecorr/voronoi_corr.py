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
    def n_strata(self) -> int:
        return 4 * self.P.m

    def stratum_label(self, stratum: int) -> str:
        m = self.P.m
        if stratum < 2 * m:
            return f"P-cell-{stratum + 1}"
        return f"Q-cell-{stratum - 2 * m + 1}"

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
        low = self._elements(0, xs, self.P.nearest_site_many(xs))
        high = self._elements(1, ys, self.Q.nearest_site_many(ys))
        # Shuffle so that pairing the two batch halves mixes the directions:
        # row i is row perm[i] of low-then-high, so row j of that lands in slot[j].
        perm = rng.child(2).generator().permutation(count)
        slot = np.empty(count, dtype=perm.dtype)
        slot[perm] = np.arange(count)
        cols = []
        for lo, hi in zip(low, high):
            col = np.empty((count, *lo.shape[1:]), dtype=lo.dtype)
            col[slot[:n_low]] = lo
            col[slot[n_low:]] = hi
            cols.append(col)
        return ElementBatch(*cols)

    def variants_many(self, side, frees):
        if side not in (0, 1):
            raise ValueError(f"side must be 0 (the low sphere) or 1 (the high sphere); got {side}")
        frees = np.asarray(frees, dtype=float)
        owner, cells = np.nonzero(pointsets.cell_mask(self.P if side == 0 else self.Q, frees))
        return ElementBatch(*self._elements(side, frees[owner], cells)), owner

    variants_of_free = Correspondence.variants_of_free  # per-class name, wrapped by perfbench/layers.py

    def dist_a(self, a1, a2):
        return geometry.geodesic_many(a1, a2)

    dist_b = dist_a

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
        order = np.argsort(-(ys @ sites.T), axis=1, kind="stable")
        s1, s2 = sites[order[:, 0]], sites[order[:, 1]]
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
            # Containing cells of each tie point in index order c0 < c1 < c2;
            # each point gives the pair (c0, c1), and also (c0, c2) on a triple tie.
            cells = np.argsort(~hit, axis=1, kind="stable")
            rows = np.repeat(np.arange(per_side), np.clip(hit.sum(axis=1) - 1, 0, 2))
            second = 1 + np.arange(rows.size) - np.searchsorted(rows, rows)
            left.append(self._elements(side, ties[rows], cells[rows, 0]))
            right.append(self._elements(side, ties[rows], cells[rows, second]))
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

