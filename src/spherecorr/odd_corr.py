"""The sphere-to-circle correspondence for odd-dimensional spheres.

For odd k >= 3 the 2k+2 signed Voronoi cells of the cross-polytope vertices
in S^k are linearly ordered, and cell m is matched with the circle interval
[(2m-3)pi/(2k+2), (2m-1)pi/(2k+2)] through an explicit map: a point of cell
m with distinguished coordinate x_m is sent to

    (m-1)pi/(k+1) + pi/(2k(k+1)) * (x_1+...+x_{m-1} - x_{m+1}-...-x_{k+1})/x_m

for m <= k+1, and to the antipodal-cell value shifted by pi for m > k+1.
The relation pairs every cell point with its image angle; points on cell
boundaries get one correspondent per containing cell.  Its distortion equals
(k-1)pi/k, attained on the boundary where the first and last ordered cells
meet.

Every query takes a stack of points: :meth:`OddCircleCorrespondence.variants_many`
lists the cells and image angles of each row, :func:`cell_angles_many` maps
rows into given cells, :func:`principal_cells_many` names the cell of each
row's largest coordinate, and :func:`cyclic_shift` moves rows along the
cyclic symmetry.  :func:`_cell_tables` is the one owner of the numbering of
cells by (axis, sign).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import geometry
from .distortion import Correspondence, ElementBatch
from .geometry import UnitVector
from .rng import RngStream

CELL_TOL = 1e-9


def _check_k(k: int):
    if k < 3 or k % 2 == 0:
        raise ValueError(f"the ordered-cell correspondence needs odd k >= 3, got {k}")


def _points_of(k: int, xs) -> np.ndarray:
    """``xs`` as a float array whose rows are points of S^k."""
    xs = np.asarray(xs, dtype=float)
    if xs.shape[-1] != k + 1:
        raise ValueError(f"points live on S^{xs.shape[-1] - 1}, expected S^{k}")
    return xs


def cell_axis(k: int, m: int) -> int:
    """0-based distinguished coordinate of ordered cell m (1 <= m <= 2k+2)."""
    if not 1 <= m <= 2 * k + 2:
        raise ValueError(f"ordered cell index {m} out of range 1..{2 * k + 2}")
    return int(_cell_tables(k)[0][m - 1])


@lru_cache(maxsize=None)
def _cell_tables(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The numbering of ordered cells by the axis and sign of their distinguished coordinate.

    Returns ``(axes, signs, cells)``: the 0-based axis and the sign of cell m
    at index m-1, and the inverse, ``cells[axis, sign > 0]``.  The first k+1
    cells alternate +,-,+,... along the axes; the second half is the
    antipodal image of the first, so its signs are the negations.
    """
    ms = np.arange(1, 2 * k + 3)
    axes = (ms - 1) % (k + 1)
    signs = np.where(axes % 2 == 0, 1, -1) * np.where(ms <= k + 1, 1, -1)
    cells = np.empty((k + 1, 2), dtype=int)
    cells[axes, (signs > 0).astype(int)] = ms
    return axes, signs, cells


def _cell_mask(k: int, coords: np.ndarray, tol: float) -> np.ndarray:
    """(..., 2k+2) mask of the ordered cells containing each row of ``coords``."""
    axes, signs, _ = _cell_tables(k)
    vals = coords[..., axes]
    top = geometry.row_max(np.abs(coords))[..., None]
    return (signs * vals > 0) & (np.abs(vals) >= top - tol)


@dataclass(frozen=True)
class CircleInterval:
    """Circle interval paired with ordered cell m; width exactly pi/(k+1)."""

    lo: float
    hi: float

    @classmethod
    def of_cell(cls, k: int, m: int) -> "CircleInterval":
        _check_k(k)
        lo = (2 * m - 3) * np.pi / (2 * k + 2)
        hi = (2 * m - 1) * np.pi / (2 * k + 2)
        return cls(lo, hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


def cell_angles_many(k: int, xs: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """Vectorized image angles; row i of xs is assumed to lie in cell ms[i].

    A cell of the second half maps through its antipodal cell, that is
    through -x.  Negating a row negates its prefix sums and x_m exactly, so
    the quotient below is the same without the negated copy.
    """
    ms = np.asarray(ms, dtype=int)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    second_half = ms > k + 1
    m1 = np.where(second_half, ms - (k + 1), ms)
    axis = m1 - 1
    # One running sum, left to right as np.cumsum adds: it is x_1+..+x_{m-1}
    # when it reaches axis m, and the total at the end.
    prefix = np.zeros(len(xs))
    total = xs[:, 0].copy()
    for j in range(1, xs.shape[1]):
        np.copyto(prefix, total, where=axis == j)
        total += xs[:, j]
    xm = xs[np.arange(len(xs)), axis]
    signed_sum = 2.0 * prefix + xm - total  # x_1+..+x_{m-1} - x_{m+1}-..-x_{k+1}
    coeff = np.pi / (2.0 * k * (k + 1))
    angles = (m1 - 1) * np.pi / (k + 1) + coeff * signed_sum / xm
    angles = angles + np.where(second_half, np.pi, 0.0)
    return np.mod(angles, 2 * np.pi)


def principal_cells_many(k: int, xs: np.ndarray) -> np.ndarray:
    """For each row, the ordered cell of its largest-magnitude coordinate."""
    xs = np.asarray(xs, dtype=float)
    # numpy's argmax stays: a column loop took 0.66 ms to its 0.67 on (32768, 4)
    axis = np.argmax(np.abs(xs), axis=1)
    positive = xs[np.arange(xs.shape[0]), axis] > 0
    return _cell_tables(k)[2][axis, positive.astype(int)]


def cyclic_shift(k: int, n, xs: np.ndarray) -> np.ndarray:
    """Rows of ``xs`` after n applications of (x_1, ..., x_{k+1}) -> (x_{k+1}, -x_1, ..., -x_k).

    An isometry of S^k that advances ordered cells by one step; k+1
    applications give the antipodal map and 2k+2 the identity.  ``n`` is one
    count for every row or one count per row.  Coordinate i lands on
    (i + n) mod (k+1), negated once per step that does not wrap it around.
    """
    _check_k(k)
    xs = _points_of(k, xs)
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("shift count must be nonnegative")
    n = (n % (2 * k + 2))[..., None]
    src = (np.arange(k + 1) - n) % (k + 1)
    negate = (n - (src + n) // (k + 1)) % 2 == 1
    shifted = np.take_along_axis(xs, np.broadcast_to(src, xs.shape), axis=-1)
    return np.where(negate, -shifted, shifted)


def case_reduction_pairs(k: int) -> list[tuple[int, int]]:
    """The two cell pairs left after exploiting the cyclic and antipodal symmetries.

    Shifting both cells reduces any pair to (1, j); the antipodal symmetry
    folds j onto k+3-j; and the pairs whose interval gap already forces a
    small objective drop out, leaving (1, k) and (1, k+1).
    """
    _check_k(k)
    return [(1, k), (1, k + 1)]


def neighbor_cells(k: int, m: int) -> np.ndarray:
    """The ordered cells that can share boundary points (tied coordinates) with
    cell m: those whose axis differs from m's, in ascending order."""
    return np.flatnonzero(_cell_tables(k)[0] != cell_axis(k, m)) + 1


def sample_cell_boundary_many(k: int, m1: int, m2: int, count: int, rng: RngStream) -> np.ndarray:
    """Samples with the two distinguished coordinates tied at the maximum magnitude."""
    _check_k(k)
    if m2 not in neighbor_cells(k, m1):
        raise ValueError(f"ordered cells {m1} and {m2} do not share boundary points")
    gen = rng.generator()
    g = gen.standard_normal((count, k + 1))
    top = geometry.row_max(np.abs(g))
    axes, signs, _ = _cell_tables(k)
    g[:, axes[m1 - 1]] = signs[m1 - 1] * top
    g[:, axes[m2 - 1]] = signs[m2 - 1] * top
    return geometry.normalize_rows(g)


def sample_in_ordered_cell_many(k: int, m, count: int, rng: RngStream) -> np.ndarray:
    """Uniform samples of ordered cell m, or of cell m[i] in row i for an array m.

    Draws uniform sphere points and maps each isometrically (coordinate swap
    plus sign flips) from its own cell onto its target cell; cells have equal
    measure, so each row is uniform on its target cell.  The one-block case
    of :func:`sample_in_ordered_cell_blocks`.
    """
    return next(sample_in_ordered_cell_blocks(k, m, count, rng, max(count, 1)))


def sample_in_ordered_cell_blocks(k: int, m, count: int, rng: RngStream, block: int):
    """The rows of ``sample_in_ordered_cell_many(k, m, count, rng)``, bitwise,
    as an iterator of consecutive arrays of at most ``block`` rows."""
    _check_k(k)
    ms = np.broadcast_to(np.asarray(m, dtype=int), (count,))
    if np.any((ms < 1) | (ms > 2 * k + 2)):
        raise ValueError(f"ordered cell index out of range 1..{2 * k + 2}")
    blocks = geometry.sample_uniform_blocks(k, count, rng, block)
    starts = range(0, max(count, 1), block)  # the first row of each block
    return (_into_cells(k, xs, ms[s : s + block]) for s, xs in zip(starts, blocks))


def _into_cells(k: int, xs: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """``xs`` with row i moved from its own ordered cell onto cell ms[i], in place."""
    axes, signs, _ = _cell_tables(k)
    axis, sign = axes[ms - 1], signs[ms - 1]
    rows = np.arange(len(xs))
    # numpy's argmax stays: a column loop took 0.66 ms to its 0.67 on (32768, 4)
    src = np.argmax(np.abs(xs), axis=1)
    vals_src = xs[rows, src].copy()
    xs[rows, src] = xs[rows, axis]
    xs[rows, axis] = vals_src
    flip = np.sign(xs[rows, axis]) != sign
    xs[rows[flip], axis[flip]] *= -1.0
    return xs


def max_distortion_witness(k: int) -> tuple[tuple[tuple[UnitVector, float], tuple[UnitVector, float]], float]:
    """A pair of relation elements realizing the full distortion (k-1)pi/k.

    The base point (1, 0, ..., 0, -1)/sqrt(2) lies on the boundary between
    the first and last ordered cells; its two correspondents sit exactly
    (k-1)pi/k apart while the sphere distance of the pair is zero.
    """
    _check_k(k)
    coords = np.zeros(k + 1)
    coords[0] = 1.0
    coords[-1] = -1.0
    x = UnitVector(coords)
    a1, a2 = cell_angles_many(k, np.stack([x.coords, x.coords]), np.array([1, k + 1]))
    value = float(geometry.circle_distance_many(a1, a2))
    return ((x, float(a1)), (x, float(a2))), value


class OddCircleCorrespondence(Correspondence):
    """Engine adapter for the ordered-cell correspondence on odd S^k.

    Factor A is S^k (vector points); factor B is the circle (angles).  The
    focused sampler concentrates on the surviving case-reduction cell pairs
    and on boundary ties, where the distortion maximum lives.
    """

    def __init__(self, k: int):
        _check_k(k)
        self.k = k
        self._focus_pairs = case_reduction_pairs(k)

    @property
    def n_strata(self) -> int:
        return 2 * self.k + 2

    def stratum_label(self, stratum: int) -> str:
        return f"cell-{stratum + 1}"

    def sample_batch(self, count, rng):
        xs = geometry.sample_uniform_many(self.k, count, rng)
        ms = principal_cells_many(self.k, xs)
        angles = cell_angles_many(self.k, xs, ms)
        return ElementBatch(
            a=xs, b=angles, side=np.zeros(count, dtype=int), strata=ms - 1
        )

    def variants_many(self, side, frees):
        if side != 0:
            raise ValueError(f"side must be 0 (the sphere S^{self.k}); got {side}")
        frees = _points_of(self.k, frees)
        owner, cells = np.nonzero(_cell_mask(self.k, frees, CELL_TOL))
        axes = _cell_tables(self.k)[0]
        xs = frees[owner]
        edges = np.abs(xs[np.arange(len(cells)), axes[cells]])
        # A point admitted through the tolerance lies slightly outside its
        # cell; clip it onto the closed cell so the pair it forms really exists.
        out = edges < geometry.row_max(np.abs(xs))
        clipped = np.clip(xs[out], -edges[out, None], edges[out, None])
        xs[out] = clipped / np.sqrt(geometry.row_dot(clipped, clipped))[:, None]
        angles = cell_angles_many(self.k, xs, cells + 1)
        return ElementBatch(a=xs, b=angles, side=np.zeros(len(cells), dtype=int), strata=cells), owner

    variants_of_free = Correspondence.variants_of_free  # per-class name, wrapped by perfbench/layers.py

    def dist_a(self, a1, a2):
        return geometry.geodesic_many(a1, a2)

    def dist_b(self, b1, b2):
        return geometry.circle_distance_many(b1, b2)

    def sample_focus_pairs(self, count, rng):
        k = self.k
        per_case = max(1, count // (4 * len(self._focus_pairs)))
        # (points, cell) blocks; row t of ``left`` pairs with row t of ``right``.
        left: list[tuple[np.ndarray, int]] = []
        right: list[tuple[np.ndarray, int]] = []
        for c, (i, j) in enumerate(self._focus_pairs):
            case_rng = rng.child(c)
            # Coincident boundary pairs: both elements over one tie point.
            xs = sample_cell_boundary_many(k, i, j, per_case, case_rng.child(0))
            left.append((xs, i))
            right.append((xs, j))
            # Independent boundary pairs: x on a boundary of cell i, z of cell j.
            gen = case_rng.child(1).generator()
            for main, out, sub in ((i, left, 2), (j, right, 3)):
                pick = gen.choice(neighbor_cells(k, main), size=per_case)
                xs = np.empty((per_case, k + 1))
                for u, m_other in enumerate(np.unique(pick)):
                    rows = pick == m_other
                    xs[rows] = sample_cell_boundary_many(
                        k, main, int(m_other), int(rows.sum()), case_rng.child(sub, u)
                    )
                out.append((xs, main))
        blocks = left + right
        xs = np.vstack([x for x, _ in blocks])
        ms = np.concatenate([np.full(len(x), m) for x, m in blocks])
        return ElementBatch(
            a=xs, b=cell_angles_many(k, xs, ms), side=np.zeros(len(ms), dtype=int), strata=ms - 1
        )
