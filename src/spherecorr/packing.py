"""Projective packings (line configurations) and packing-driven bounds.

Points of RP^n are represented by canonically-signed unit vectors in S^n with
the distance arccos|<x, y>|.  The optimizer maximizes the minimum pairwise
distance with a smoothed max-min ascent (soft-min energy under a sharpening
schedule) followed by direct polishing of the minimum pairs, over a batch of
restarts.  The resulting minimum distance is always re-verified from the
points, so every result is a certified lower bound for the packing value it
estimates.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geometry, serialize
from .pointsets import AntipodalSet, arc_rows, covering_radius, cross_polytope_vdiam_exact, separation
from .rng import RngStream

BETA_SCHEDULE = (8.0, 32.0, 128.0, 512.0)

CACHE_ENV = "SPHERECORR_CACHE"

# Version of the PackingStore key and entry layout; bump it when either changes.
STORE_FORMAT = 4

# Largest deviation from unit length that a cached packing or a bounded one may show.
UNIT_NORM_TOL = 1e-12

# First step of the soft ascent and of the polish; the polish's decay on a rejected move.
STEP = 0.08
POLISH_DECAY = 0.9

# Ascent steps of the table's early stages, tried in order before the full budget.  At the
# default budget every row screened (n = 2..5, k <= 40, seeds 0 and 23) stops at one of them.
TABLE_STAGES = (25, 100)


@dataclass(frozen=True)
class PackingBudget:
    """Work per packing: soft-ascent steps, polish steps, restarts.

    The default is the budget the ``packing`` and ``table`` commands run and
    their cached entries are keyed by.  (1600, 400, 16) packs more closely
    (six lines in RP^2 miss arccos(1/sqrt(5)) by at most 1.7e-4 at seeds
    0-7, against 3.9e-4) for about 40% more time.
    """

    ascent_steps: int = 1600
    polish_steps: int = 200
    restarts: int = 8

    def __post_init__(self):
        if self.ascent_steps < 1 or self.polish_steps < 0 or self.restarts < 1:
            raise ValueError("budget fields must be positive (polish_steps may be 0)")


def _gram_distances(gram: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Projective distances from Gram matrices of unit rows, +inf on the diagonals.

    Written into ``out`` when given.  |Gram| needs only the clamp at 1 of
    ``geometry.clip_cosine``.
    """
    d = np.abs(gram, out=out)
    np.arccos(np.minimum(d, 1.0, out=d), out=d)
    m = d.shape[-1]
    d.reshape(-1, m * m)[:, :: m + 1] = np.inf
    return d


def _unit_rows(points) -> np.ndarray:
    """``points`` as a float array if its rows are finite and unit within UNIT_NORM_TOL."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"points must be a 2-D array of unit rows; got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite rows")
    if np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0), initial=0.0) > UNIT_NORM_TOL:
        raise ValueError("points must be unit rows: covering_radius assumes them")
    return pts


def min_pair_distance(points: np.ndarray) -> float:
    """Exact minimum pairwise projective distance of a configuration."""
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError("need a 2-D array of at least two points")
    return float(np.min(_gram_distances(points @ points.T)))


def canonicalize_signs(points: np.ndarray) -> np.ndarray:
    """Flip representatives so the first coordinate above 1e-12 is positive.

    Rows run along the last axis; a row with no such coordinate is kept.
    """
    pts = np.array(points, dtype=float)
    first = np.argmax(np.abs(pts) > 1e-12, axis=-1)
    lead = np.take_along_axis(pts, first[..., None], axis=-1)[..., 0]
    pts[lead < -1e-12] *= -1.0
    return pts


@dataclass
class PackingResult:
    """A line configuration and its verified minimum pairwise distance."""

    points: np.ndarray
    min_dist: float
    iterations: int
    restarts_used: int

    def to_json_dict(self) -> dict:
        return {
            "points": self.points.tolist(),
            "min_dist": self.min_dist,
            "iterations": self.iterations,
            "restarts_used": self.restarts_used,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PackingResult":
        pts = canonicalize_signs(np.asarray(data["points"], dtype=float))
        return cls(
            points=pts,
            min_dist=min_pair_distance(pts),
            iterations=int(data["iterations"]),
            restarts_used=int(data["restarts_used"]),
        )


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def _soft_ascent(x: np.ndarray, steps: int) -> np.ndarray:
    """Ascend the soft-min energy of every restart through the sharpening schedule.

    ``x`` is an (R, m, n+1) stack of starts.  The ``steps`` are split over the
    beta stages, the first ``steps % 4`` stages taking one extra.  The nearest
    pair of a restart always weighs exp(0) = 1, so its weights never vanish; a
    restart whose gradient vanishes stops moving until the next beta stage.

    Steps write into buffers allocated once per call; ``x`` is a copy of the
    starts.  The gradient ``neg`` is kept negated, exactly: only the sign of
    an exactly-zero sum differs, and it reaches ``x`` only from a -0.0 in a
    start.
    """
    x = np.array(x, dtype=float)
    count, m = x.shape[:2]
    xt = x.transpose(0, 2, 1)
    gram, a, w, sign = np.empty((4, count, m, m))
    w_flat = w.reshape(count, m * m)
    w_diag = w_flat[:, :: m + 1]
    neg, scratch = np.empty_like(x), np.empty_like(x)
    per_stage, extra = divmod(steps, len(BETA_SCHEDULE))
    for stage, beta in enumerate(BETA_SCHEDULE):
        iters = per_stage + (stage < extra)
        step = STEP
        shrink = (1e-2) ** (1.0 / max(iters, 1))
        live = None  # every restart moves until one's gradient vanishes
        for _ in range(iters):
            np.matmul(x, xt, out=gram)
            np.minimum(np.abs(gram, out=a), 1.0, out=a)
            np.arccos(a, out=w)
            w_diag[...] = np.inf
            w -= np.minimum.reduce(w_flat, axis=1)[:, None, None]
            w *= -beta
            np.exp(w, out=w)  # 0 on the diagonal
            w /= np.add.reduce(w_flat, axis=1)[:, None, None]
            w *= np.sign(gram, out=sign)  # in place, np.sign took 6x as long at (12, 64, 64)
            np.subtract(1.0, np.multiply(a, a, out=a), out=a)
            w /= np.sqrt(np.maximum(a, 1e-12, out=a), out=a)  # the sines sqrt(1 - |Gram|^2)
            np.matmul(w, x, out=neg)
            neg -= np.multiply(np.einsum("rij,rij->ri", neg, x)[..., None], x, out=scratch)
            np.multiply(neg, neg, out=scratch)
            top = np.sqrt(np.maximum.reduce(np.add.reduce(scratch, axis=-1), axis=1))
            if live is None and np.minimum.reduce(top) >= 1e-300:
                scale = step / top
            else:
                live = top >= 1e-300 if live is None else live & (top >= 1e-300)
                if not live.any():
                    break
                scale = step / np.where(live, top, 1.0)
            np.subtract(x, np.multiply(neg, scale[:, None, None], out=scratch), out=scratch)
            geometry.normalize_rows(scratch, out=x, where=True if live is None else live[:, None, None])
            step *= shrink
    return x


def _circle_polish(x: np.ndarray, iters: int) -> np.ndarray:
    """Gap-diffusion polish on the projective circle (n = 1), per restart.

    Lines through the origin of R^2 live on a circle of circumference pi;
    averaging adjacent gaps converges to even spacing, the max-min optimum in
    one dimension, far faster than pairwise nudging.
    """
    angles = np.sort(np.mod(np.arctan2(x[..., 1], x[..., 0]), np.pi), axis=1)
    for _ in range(iters):
        gaps = np.diff(np.append(angles, angles[:, :1] + np.pi, axis=1), axis=1)
        angles = angles + (gaps - np.roll(gaps, 1, axis=1)) / 4.0
        angles = np.sort(angles, axis=1)
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def _polish(x: np.ndarray, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy max-min polish of every restart in an (R, m, n+1) stack.

    Only the pairs realizing a restart's minimum are pushed apart.  Returns
    the polished stack and the iterations each restart used.
    """
    x = x.copy()
    count, m = x.shape[:2]
    upper = np.triu(np.ones((m, m), dtype=bool), 1)
    gram = x @ x.transpose(0, 2, 1)
    d = _gram_distances(gram)
    best = d.min(axis=(1, 2))
    step = np.full(count, STEP)
    used = np.zeros(count, dtype=int)
    run = np.ones(count, dtype=bool)
    trial_gram, trial_d = np.empty((2, count, m, m))
    trial_d_flat = trial_d.reshape(count, m * m)
    move, trial = np.empty_like(x), np.empty_like(x)
    for it in range(iters):
        used[run] = it + 1
        tight = d <= best[:, None, None] + 1e-12
        c = np.where(tight & upper, -np.sign(gram), 0.0)
        np.matmul(c, x, out=move)
        move += np.matmul(c.transpose(0, 2, 1), x, out=trial)
        norms = np.sqrt(np.add.reduce(np.multiply(move, move, out=trial), axis=-1))
        active = norms > 1e-300
        run &= np.logical_or.reduce(active, axis=1)
        if not run.any():
            break
        np.multiply(step[:, None, None], move, out=trial)
        trial /= np.where(active, norms, 1.0)[..., None]
        trial += x
        np.copyto(trial, x, where=~active[..., None])
        geometry.normalize_rows(trial, out=trial)
        np.matmul(trial, trial.transpose(0, 2, 1), out=trial_gram)
        _gram_distances(trial_gram, out=trial_d)
        val = np.minimum.reduce(trial_d_flat, axis=1)
        better = run & (val > best)
        # bitwise what x @ x.T gives next time: the batched matmul works per restart
        for kept, new in ((x, trial), (gram, trial_gram), (d, trial_d)):
            np.copyto(kept, new, where=better[:, None, None])
        np.copyto(best, val, where=better)
        step = np.where(better, np.minimum(step * 1.2, 0.3), np.where(run, step * POLISH_DECAY, step))
        run &= better | (step >= 1e-13)
    return x, used


def optimize_packing(
    n: int,
    m: int,
    budget: PackingBudget = PackingBudget(),
    rng: RngStream = RngStream(0),
) -> PackingResult:
    """Maximize the minimum pairwise projective distance of m points in RP^n.

    Runs ``budget.restarts`` starts (the arc-augmented warm start plus random
    configurations drawn from ``rng.child(i)``), ascended and polished
    together as one (restarts, m, n+1) batch; keeps the best.  ``min_dist``
    of the result is re-verified directly from the returned points.
    """
    if n < 1:
        raise ValueError("projective dimension must be >= 1")
    if m < 2:
        raise ValueError("need at least two points to pack")
    starts = [arc_rows(n, m)] + [
        geometry.sample_uniform_many(n, m, rng.child(i)) for i in range(1, budget.restarts)
    ]
    x = _soft_ascent(np.stack(starts), budget.ascent_steps)
    if n == 1:
        x = _circle_polish(x, budget.polish_steps)
    x, used = _polish(x, budget.polish_steps)
    best_val, best_x, best_iters = -1.0, None, 0
    for points, steps in zip(canonicalize_signs(geometry.normalize_rows(x)), used):
        val = min_pair_distance(points)
        if val > best_val or (val == best_val and points.tolist() < best_x.tolist()):
            best_val, best_x, best_iters = val, points, budget.ascent_steps + int(steps)
    return PackingResult(
        points=best_x,
        min_dist=best_val,
        iterations=best_iters,
        restarts_used=budget.restarts,
    )


def covering_radius_estimate(points) -> float:
    """Exact covering radius sup_x min_i d_RP(x, x_i) of unit rows ``points``."""
    return covering_radius(points)


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

def packing_bound(points: np.ndarray, k: int) -> float:
    """Certified bound max(arccos(-(k-1)/(k+1)), pi - p, 2 cov) from k+1 unit lines in RP^n.

    It is ``voronoi_corr.rpq_bound`` of +-points collapsed onto the cross-polytope
    of S^k, whose term pi - pi/2 is below its cell term: a cell of +-points lies
    within cov of its site, so its diameter is <= 2 cov.
    """
    points = _unit_rows(points)
    n = points.shape[1] - 1
    if n < 2 or k <= n or points.shape[0] != k + 1:
        raise ValueError(f"the packing bound needs k+1 lines in RP^n with 2 <= n < k; got {points.shape[0]} lines")
    # through this module's name: perfbench's trace wraps it to time packing.covering_s
    two_cov = 2.0 * covering_radius_estimate(points)
    return max(two_cov, np.pi - separation(AntipodalSet(points)), cross_polytope_vdiam_exact(k))


def circle_to_sphere_exact(k: int) -> float:
    """Exact doubled distance between the circle and S^k (k >= 2).

    Even k: k*pi/(k+1); odd k: (k-1)*pi/k.  Both equal 2*pi*l/(2l+1) with
    l = floor(k/2).
    """
    if k < 2:
        raise ValueError("needs k >= 2")
    half = k // 2
    return 2.0 * np.pi * half / (2 * half + 1)


def collapse_bound(k: int) -> float:
    """The even-circle / cross-polytope collapse bound pi*k/(k+1)."""
    return np.pi * k / (k + 1.0)


def best_bound(n: int, k: int, points: np.ndarray | None = None) -> tuple[float, str]:
    """Best available upper bound on the doubled distance between S^n and S^k.

    For n = 1 the value is exact.  For n >= 2 the collapse bound pi*k/(k+1)
    always applies; the certified packing bound of ``points`` (k+1 lines in
    RP^n), when supplied, may improve on it.
    """
    if not 1 <= n < k:
        raise ValueError("need 1 <= n < k")
    if n == 1:
        return circle_to_sphere_exact(k), "exact"
    value = collapse_bound(k)
    if points is not None:
        if np.shape(points)[-1:] != (n + 1,):
            raise ValueError(f"the packing must hold lines of RP^{n}")
        value = min(value, packing_bound(points, k))
    return value, "upper-bound"


def euclidean_bound(two_dgh_geodesic: float) -> float:
    """Chord-metric bound sin(t/2) from a doubled geodesic bound t in [0, pi]."""
    if not 0.0 <= two_dgh_geodesic <= np.pi + 1e-12:
        raise ValueError("doubled geodesic bound must lie in [0, pi]")
    return float(np.sin(min(two_dgh_geodesic, np.pi) / 2.0))


# ---------------------------------------------------------------------------
# On-disk cache and the asymptotic table
# ---------------------------------------------------------------------------

class PackingStore:
    """Directory of best-known packings, keyed by (n, m, budget, stream).

    The key holds the full stream path the packing was optimized on and the
    entry format version, so a lookup only finds what the same call would
    compute.  Entries are replaced atomically, and an entry that cannot be
    read or does not describe m unit vectors in R^{n+1} is a cache miss.
    """

    def __init__(self, root: str | Path | None = None):
        if root is None:
            root = os.environ.get(CACHE_ENV) or Path.home() / ".cache" / "spherecorr"
        self.root = Path(root)

    def _path(self, n: int, m: int, budget: PackingBudget, rng: RngStream) -> Path:
        blob = serialize.dumps(
            {
                "format": STORE_FORMAT,
                "ascent_steps": budget.ascent_steps,
                "polish_steps": budget.polish_steps,
                "restarts": budget.restarts,
                "seed": rng.seed,
                "stream": list(rng.stream),
            }
        )
        digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
        return self.root / f"pack_n{n}_m{m}_{digest}.json"

    def load(self, n: int, m: int, budget: PackingBudget, rng: RngStream) -> PackingResult | None:
        try:
            data = json.loads(self._path(n, m, budget, rng).read_text())
            if data["n"] != n or data["m"] != m:
                return None
            result = PackingResult.from_json_dict(data)
            if _unit_rows(result.points).shape != (m, n + 1):
                return None
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return result

    def save(self, n: int, m: int, budget: PackingBudget, rng: RngStream, result: PackingResult):
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(n, m, budget, rng)
        entry = dict(result.to_json_dict(), n=n, m=m)
        handle = tempfile.NamedTemporaryFile(
            "w", dir=self.root, prefix=path.stem, suffix=".tmp", delete=False
        )
        try:
            with handle:
                handle.write(serialize.dumps(entry))
            os.replace(handle.name, path)
        except BaseException:
            Path(handle.name).unlink(missing_ok=True)
            raise


def cached_packing(
    n: int, m: int, budget: PackingBudget, rng: RngStream, store: PackingStore | None
) -> PackingResult:
    """``optimize_packing(n, m, budget, rng)``, read from ``store`` when it holds the entry.

    A computed packing is saved to ``store``; with no store it is only computed.
    A save that raises ``OSError`` is skipped with a ``RuntimeWarning``.
    """
    # store.load, store.save and optimize_packing by name: perfbench's trace wraps them
    result = store.load(n, m, budget, rng) if store is not None else None
    if result is None:
        result = optimize_packing(n, m, budget, rng)
        if store is not None:
            try:
                store.save(n, m, budget, rng, result)
            except OSError as exc:
                warnings.warn(f"packing cache save skipped: {exc}", RuntimeWarning, stacklevel=2)
    return result


def bound_table(n: int, k_values) -> list[dict]:
    """The ``bound`` command's rows: ``best_bound(n, k)`` with no packing, and its labels."""
    rows = []
    for k in k_values:
        value, tag = best_bound(n, k)
        rows.append(
            {
                "n": n,
                "k": k,
                "two_dgh_bound": value,
                "two_dgh_bound_over_pi": value / np.pi,
                "exactness": tag,
                "euclidean_bound": euclidean_bound(value),
                "source": ("circle-even" if k % 2 == 0 else "circle-odd") if n == 1 else "even-cross-collapse",
            }
        )
    return rows


def asymptotic_table(
    n: int,
    k_values,
    budget: PackingBudget = PackingBudget(),
    rng: RngStream = RngStream(0),
    store: PackingStore | None = None,
) -> list[dict]:
    """Rows (k, bound, gap, gap*sqrt(k)) using certified packing bounds.

    Each row packs k+1 points in RP^n in stages: ``PackingBudget(s, 0,
    budget.restarts)`` for each ``s`` in ``TABLE_STAGES`` below
    ``budget.ascent_steps``, then ``budget`` itself.  It stops at the first
    stage whose bound is the cell term arccos(-(k-1)/(k+1)), the least the
    packing bound can be; a row that no early stage certifies is the one
    packing at ``budget``.  Every stage is read from the store when it holds
    the entry and optimized (and cached under its own budget) otherwise.
    """
    if n < 2:
        raise ValueError("the table needs n >= 2")
    stages = [PackingBudget(s, 0, budget.restarts) for s in TABLE_STAGES if s < budget.ascent_steps]
    stages.append(budget)
    rows = []
    for k in k_values:
        if k <= n:
            raise ValueError(f"every k must exceed n; got k={k}, n={n}")
        cell, stream = cross_polytope_vdiam_exact(k), rng.child(int(k))
        for stage in stages:
            result = cached_packing(n, k + 1, stage, stream, store)
            bound, _ = best_bound(n, k, result.points)
            if bound == cell:
                break
        gap = np.pi - bound
        rows.append(
            {
                "k": int(k),
                "bound": float(bound),
                "gap": float(gap),
                "gap_sqrtk": float(gap * np.sqrt(k)),
            }
        )
    return rows
