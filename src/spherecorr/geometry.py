"""Metric primitives on unit spheres and on the circle.

Points on S^d are unit vectors in R^{d+1} with the geodesic metric
d(x, y) = arccos<x, y>; points of the circle are also plain angles in
radians, because all of the sphere-to-circle machinery works in angles.
Every query is row-wise over stacks of points: every distance between two
unit vectors comes from one kernel, :func:`geodesic_many`, which stays
accurate at 0 and pi, where witnesses of the correspondences live; its
projective fold is :func:`projective_many` and the arc distance of angles
:func:`circle_distance_many`.  A single point is a one-row case.
"""

from __future__ import annotations

import numpy as np

from .rng import RngStream

TWO_PI = 2.0 * np.pi

# Rows whose |cosine| exceeds this take the half-chord form in geodesic_many:
# below it the arccos is accurate to about 1e-15, and it is several times cheaper.
HALF_CHORD_COS = 0.99

# Reductions over the coordinate axis of rows narrower than this go column by
# column, one numpy call per column in place of one per row, with numpy's bits.
COLUMN_LOOP_WIDTH = 8


def clip_cosine(c):
    """Clamp cosines into [-1, 1] before arccos.

    Roundoff can push an inner product of unit vectors a few ulp outside the
    interval, where arccos is undefined.  Near +-1 an error of eps in the
    cosine becomes an angle error of O(sqrt(eps)), about 1.5e-8, so only
    paths that hold cosines and no vector pairs use this, away from 0 and
    pi; distances between vectors go through :func:`geodesic_many`.
    """
    return np.minimum(np.maximum(c, -1.0), 1.0)


class UnitVector:
    """A point on S^d stored as d+1 coordinates, normalized on construction."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        v = np.asarray(coords, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("a sphere point needs at least two coordinates (dim >= 1)")
        if not np.all(np.isfinite(v)):
            raise ValueError("coordinates must be finite")
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        self.coords = v / norm

    @property
    def dim(self) -> int:
        return self.coords.size - 1

    def antipode(self) -> "UnitVector":
        # exact negation: renormalizing could perturb the last ulp
        other = object.__new__(UnitVector)
        other.coords = -self.coords
        return other

    def __eq__(self, other):
        return isinstance(other, UnitVector) and np.array_equal(self.coords, other.coords)

    def __repr__(self):
        return f"UnitVector({self.coords.tolist()!r})"


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, broadcasting over the leading axes.

    Summed left to right in a fixed order, so a row's value never depends on
    the stack it sits in: a row climbed alone and the same row inside a batch
    take bitwise the same path.
    """
    prod = a * b
    out = prod[..., 0]
    for j in range(1, prod.shape[-1]):
        out = out + prod[..., j]
    return out


def row_norms(arr: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, bitwise ``np.linalg.norm(arr, axis=-1)``.

    Rows narrower than COLUMN_LOOP_WIDTH take :func:`row_dot`'s column loop,
    which adds left to right as numpy does below 8 terms, and costs one
    dispatch per column where numpy's reduction costs one per row.  Wider
    rows keep numpy's pairwise sum, whose order the loop would not match.
    """
    if arr.shape[-1] < COLUMN_LOOP_WIDTH:
        return np.sqrt(row_dot(arr, arr))
    return np.sqrt(np.add.reduce(arr * arr, axis=-1))


def row_max(arr: np.ndarray) -> np.ndarray:
    """Maxima over the last axis, bitwise ``np.max(arr, axis=-1)``, one
    ``np.maximum`` per column below COLUMN_LOOP_WIDTH (see :func:`_fold_columns`)."""
    return _fold_columns(np.maximum, arr)


def row_min(arr: np.ndarray) -> np.ndarray:
    """Minima over the last axis, bitwise ``np.min(arr, axis=-1)``, one
    ``np.minimum`` per column below COLUMN_LOOP_WIDTH (see :func:`_fold_columns`)."""
    return _fold_columns(np.minimum, arr)


def _fold_columns(op, arr: np.ndarray) -> np.ndarray:
    """``op.reduce(arr, axis=-1)`` with the narrow rows folded column by column.

    Values agree at any width, but numpy's vectorized reduction over rows
    of 9 or more breaks a tie of 0.0 and -0.0 in its own order, so rows from
    COLUMN_LOOP_WIDTH up keep the reduction.
    """
    if arr.shape[-1] >= COLUMN_LOOP_WIDTH:
        return op.reduce(arr, axis=-1)
    out = arr[..., 0].copy()
    for j in range(1, arr.shape[-1]):
        op(out, arr[..., j], out=out)
    return out


def geodesic_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise geodesic distances of unit rows, accurate at 0 and pi.

    The arccos of the cosine, except for rows with |<a, b>| above
    HALF_CHORD_COS: there arccos loses ~1e-8, and the arcsine of the
    half-chord to the nearer of b, -b keeps full precision.  Inner products
    come from :func:`row_dot`, so a row's value never depends on its batch.
    Rows are the last axis; leading axes broadcast.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    dot = row_dot(a, b)
    out = np.asarray(np.arccos(clip_cosine(dot)))
    near = np.abs(dot) > HALF_CHORD_COS
    if near.any():
        far_side = (dot[near] < 0.0)[:, None]
        chord = np.where(far_side, a[near] + b[near], a[near] - b[near])
        angle = 2.0 * np.arcsin(np.minimum(1.0, 0.5 * np.sqrt(row_dot(chord, chord))))
        out[near] = np.where(far_side[:, 0], np.pi - angle, angle)
    return out


def sample_uniform_many(dim: int, count: int, rng: RngStream) -> np.ndarray:
    """Uniform samples on S^dim as a (count, dim+1) array of unit rows.

    Normalizes independent standard normal deviates, which is
    rotation-invariant in every dimension.  The one-block case of
    :func:`sample_uniform_blocks`.
    """
    return next(sample_uniform_blocks(dim, count, rng, max(count, 1)))


def sample_uniform_blocks(dim: int, count: int, rng: RngStream, block: int):
    """The rows of ``sample_uniform_many(dim, count, rng)``, bitwise, as an
    iterator of consecutive arrays of at most ``block`` rows.

    Every block continues the stream's one generator, so a check that reduces
    its draws block by block holds one block at a time.  A count of 0 yields
    one empty block.
    """
    if dim < 1:
        raise ValueError("sphere dimension must be >= 1")
    if count < 0:
        raise ValueError("sample count must be nonnegative")
    if block < 1:
        raise ValueError(f"block size must be >= 1; got {block}")
    gen = rng.generator()
    return (
        normalize_rows(gen.standard_normal((min(block, count - start), dim + 1)))
        for start in range(0, max(count, 1), block)
    )


def normalize_rows(arr: np.ndarray) -> np.ndarray:
    """Normalize the rows of an array to unit Euclidean norm.

    The norms are what ``np.linalg.norm(arr, axis=-1, keepdims=True)``
    computes, bitwise, from :func:`row_norms`: the sum of squares goes column
    by column, left to right, over rows narrower than COLUMN_LOOP_WIDTH,
    where numpy adds in the same order, and wider rows keep numpy's pairwise
    sum.
    """
    norms = row_norms(arr)[..., None]
    if (norms == 0.0).any():
        raise ValueError("cannot normalize a zero row")
    return arr / norms


def projective_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise projective distances arccos|<a, b>| of unit rows: the
    geodesic kernel applied to the nearer of b, -b."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return geodesic_many(a, np.where((row_dot(a, b) < 0.0)[..., None], -b, b))


def circle_distance_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise arc distance between two arrays of angles in radians."""
    d = np.abs(np.mod(a, TWO_PI) - np.mod(b, TWO_PI))
    return np.minimum(d, TWO_PI - d)


def tangent_step(points: np.ndarray, directions: np.ndarray, steps) -> np.ndarray:
    """Move each row of ``points`` on its sphere along the tangent part of the
    matching row of ``directions``, by that row's entry of ``steps``.

    Directions are projected orthogonal to their points; a row whose tangent
    vanishes stays where it is.  A single point is a one-row case.
    """
    tangent = directions - row_dot(directions, points)[..., None] * points
    norm = np.sqrt(row_dot(tangent, tangent))
    flat = norm < 1e-300
    moved = points + (steps / np.where(flat, 1.0, norm))[..., None] * tangent
    moved = moved / np.sqrt(row_dot(moved, moved))[..., None]
    return np.where(flat[..., None], points, moved)


def run_heads(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``keys`` that start a run of equal keys."""
    head = np.empty(len(keys), dtype=bool)
    head[:1] = True
    head[1:] = keys[1:] != keys[:-1]
    return head


def hill_climb(state, values, iters: int, step: float, cap: float, decay: float, propose) -> np.ndarray:
    """Raise the values of a batch of states by local moves, in place.

    ``state`` is a tuple of arrays whose rows are the states.  Each row keeps
    its own step: x1.3 up to ``cap`` after an accepted move, times ``decay``
    otherwise, frozen once below 1e-14.  ``propose(it, rows, steps)`` gets
    the live ``rows`` and every row's step and returns ``(owner, scores,
    moved)``: proposal i moves row ``owner[i]`` to row i of the arrays in
    ``moved`` (parallel to ``state``) and scores ``scores[i]``, -inf if
    infeasible; a row lists its proposals in order of preference.  A row
    takes its best proposal, the earliest among equals, if it strictly beats
    its value.  Returns the final values.
    """
    values = np.array(values, dtype=float)
    steps = np.full(values.shape, float(step))
    for it in range(iters):
        rows = np.flatnonzero(steps >= 1e-14)
        if rows.size == 0:
            break
        owner, scores, moved = propose(it, rows, steps)
        order = np.lexsort((-scores, owner))
        first = order[run_heads(owner[order])]
        picks = first[scores[first] > values[owner[first]]]
        won = owner[picks]
        values[won] = scores[picks]
        for col, new in zip(state, moved):
            col[won] = new[picks]
        accepted = np.zeros(values.shape, dtype=bool)
        accepted[won] = True
        grow = accepted[rows]
        steps[rows] = np.where(grow, np.minimum(steps[rows] * 1.3, cap), steps[rows] * decay)
    return values
