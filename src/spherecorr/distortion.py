"""Empirical distortion estimation for sphere correspondences.

A correspondence is exposed to the engine as a black box with two abilities:
sample relation elements, and list the relation elements sitting over a given
free point.  Both samplers (uniform and the optional focus sampler) return an
:class:`ElementBatch` whose row i is paired with row half+i.  The engine
scores every sampled pair of either batch through one vectorized path,
tracks the largest value of |d_A(a, a') - d_B(b, b')| per stratum pair, and
hill-climbs the best candidates while re-deriving membership after every
accepted move, so every reported value is realized by a concrete,
re-checkable witness pair and the estimate is a lower bound on the true
distortion.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from . import geometry
from .parallel import SHARD_SIZE, run_shards, shard_sizes
from .rng import RngStream

DEFAULT_MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class SearchBudget:
    """Knobs for the stochastic search: sampling plus local refinement."""

    samples: int = 1_000_000
    refine_iters: int = 200
    initial_step: float = np.pi / 16
    decay: float = 0.9
    restarts: int = 8

    def __post_init__(self):
        if self.samples < 1 or self.refine_iters < 0 or self.restarts < 1:
            raise ValueError("budget fields must be positive (refine_iters may be 0)")
        if self.initial_step <= 0:
            raise ValueError("initial_step must be positive")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must lie in (0, 1)")


@dataclass
class RelationElement:
    """One element (a, b) of a correspondence, tracked through its free point.

    ``side`` names the factor that carries the free (continuum) coordinate;
    the other coordinate is derived from it by the correspondence.
    """

    side: int
    free: np.ndarray
    a: np.ndarray
    b: object
    stratum: int


@dataclass
class ElementBatch:
    """Vectorized relation elements: row i is the element (a[i], b[i]).

    As a batch of pairs, row i is paired with row half+i, half = len // 2.
    """

    a: np.ndarray
    b: np.ndarray
    side: np.ndarray
    strata: np.ndarray

    def element(self, i: int, corr: "Correspondence") -> RelationElement:
        side = int(self.side[i])
        free = self.a[i] if corr.free_factor(side) == 0 else self.b[i]
        return RelationElement(side, np.asarray(free, dtype=float), self.a[i], self.b[i], int(self.strata[i]))


class Correspondence(ABC):
    """Relation between two spheres, exposed through samplers and queries."""

    tol: float = DEFAULT_MEMBERSHIP_TOL

    @property
    @abstractmethod
    def n_strata(self) -> int:
        """Number of sampling strata (cells / intervals, counted per side)."""

    @abstractmethod
    def stratum_label(self, stratum: int) -> str:
        """Human-readable name of one stratum."""

    @abstractmethod
    def free_factor(self, side: int) -> int:
        """Which factor (0 = A, 1 = B) carries the free point for ``side``."""

    @abstractmethod
    def sample_batch(self, count: int, rng: RngStream) -> ElementBatch:
        """Draw ``count`` relation elements with positive density everywhere."""

    @abstractmethod
    def variants_of_free(self, side: int, free: np.ndarray) -> list[RelationElement]:
        """All relation elements over ``free`` (several on cell boundaries)."""

    @abstractmethod
    def dist_a(self, a1, a2) -> float: ...

    @abstractmethod
    def dist_b(self, b1, b2) -> float: ...

    @abstractmethod
    def dist_a_many(self, a1: np.ndarray, a2: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def dist_b_many(self, b1: np.ndarray, b2: np.ndarray) -> np.ndarray: ...

    def sample_focus_pairs(self, count: int, rng: RngStream) -> ElementBatch | None:
        """Optional targeted pairs (boundary strata etc.), paired like a batch.

        Returns an even-length batch whose row i pairs with row half+i, or
        None when the correspondence has no focus sampler.
        """
        return None

    def element_valid(self, elem: RelationElement, tol: float | None = None) -> bool:
        """Whether ``elem`` matches some variant over its own free point."""
        for cand in self.variants_of_free(elem.side, elem.free):
            if cand.stratum != elem.stratum:
                continue
            if _points_close(cand.a, elem.a) and _points_close(cand.b, elem.b):
                return True
        return False


def _points_close(p, q, tol: float = 1e-9) -> bool:
    """Coordinate comparison that treats angles modulo 2*pi."""
    if np.ndim(p) == 0 and np.ndim(q) == 0:
        return geometry.circle_distance_many(np.array([p]), np.array([q]))[0] <= tol
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return p.shape == q.shape and float(np.max(np.abs(p - q))) <= tol


def pair_objective(corr: Correspondence, e1: RelationElement, e2: RelationElement) -> float:
    """|d_A(a1, a2) - d_B(b1, b2)| for a pair of relation elements."""
    return abs(corr.dist_a(e1.a, e2.a) - corr.dist_b(e1.b, e2.b))


@dataclass
class DistortionReport:
    """Outcome of one distortion-estimation run."""

    estimate: float
    witness: dict
    samples_used: int
    per_stratum: dict
    seed: int
    bound: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound,
            "estimate": self.estimate,
            "estimate_over_pi": self.estimate / np.pi,
            "witness": self.witness,
            "samples_used": self.samples_used,
            "seed": self.seed,
            "per_stratum": self.per_stratum,
        }


def _as_witness(e1: RelationElement, e2: RelationElement) -> dict:
    def point(p):
        return float(p) if np.ndim(p) == 0 else np.asarray(p, dtype=float).tolist()

    return {"x": point(e1.a), "y": point(e1.b), "x2": point(e2.a), "y2": point(e2.b)}


def _witness_key(e1: RelationElement, e2: RelationElement) -> tuple:
    flat = []
    for p in (e1.a, e1.b, e2.a, e2.b):
        flat.extend(np.atleast_1d(np.asarray(p, dtype=float)).tolist())
    return tuple(flat)


def refine_pair(
    corr: Correspondence,
    pair: tuple[RelationElement, RelationElement],
    iters: int,
    step: float = np.pi / 16,
    decay: float = 0.9,
    rng: RngStream = RngStream(0),
) -> tuple[tuple[RelationElement, RelationElement], float]:
    """Hill-climb a pair of relation elements to larger objective value.

    One free point moves per iteration (alternating); each proposal is
    re-derived through the correspondence, so every accepted state is a valid
    pair of relation elements and the objective never decreases.
    """
    e1, e2 = pair
    for e in (e1, e2):
        if not corr.element_valid(e):
            raise ValueError(f"input pair is not in the relation (stratum {e.stratum})")
    if iters == 0:
        return (e1, e2), pair_objective(corr, e1, e2)
    gen = rng.generator()
    best = pair_objective(corr, e1, e2)
    pair_now = [e1, e2]
    cur_step = step
    for it in range(iters):
        moving = it % 2
        mover, other = pair_now[moving], pair_now[1 - moving]
        proposals = [
            geometry.tangent_step(mover.free, gen.standard_normal(mover.free.size), cur_step)
        ]
        if mover.side == other.side and mover.free.size == other.free.size:
            proposals.append(geometry.tangent_step(mover.free, other.free - mover.free, cur_step))
            proposals.append(geometry.tangent_step(mover.free, mover.free - other.free, cur_step))
        improved = None
        for free_new in proposals:
            for cand in corr.variants_of_free(mover.side, free_new):
                val = pair_objective(corr, cand, other)
                if val > best:
                    best = val
                    improved = cand
        if improved is not None:
            pair_now[moving] = improved
            cur_step = min(cur_step * 1.3, np.pi / 4)
        else:
            cur_step *= decay
            if cur_step < 1e-14:
                break
    return (pair_now[0], pair_now[1]), best


def _stratum_pair_key(n_strata: int, s1, s2):
    """Flat index of the unordered stratum pair; works on ints and arrays."""
    return np.minimum(s1, s2) * n_strata + np.maximum(s1, s2)


def _scan_pairs(corr: Correspondence, batch: ElementBatch, stratum_max: np.ndarray):
    """Objectives and stratum keys of the pairs (i, half+i) of ``batch``.

    Folds the objectives into ``stratum_max`` and returns (objectives, keys).
    """
    half = len(batch.strata) // 2
    lo, hi = slice(0, half), slice(half, 2 * half)
    obj = np.abs(
        corr.dist_a_many(batch.a[lo], batch.a[hi]) - corr.dist_b_many(batch.b[lo], batch.b[hi])
    )
    keys = _stratum_pair_key(corr.n_strata, batch.strata[lo], batch.strata[hi])
    np.maximum.at(stratum_max, keys, obj)
    return obj, keys


def _pair_at(corr: Correspondence, batch: ElementBatch, i: int):
    half = len(batch.strata) // 2
    return batch.element(int(i), corr), batch.element(half + int(i), corr)


def estimate_distortion(
    corr: Correspondence,
    budget: SearchBudget,
    rng: RngStream,
    bound: float | None = None,
    threads: int | None = None,
) -> DistortionReport:
    """Lower-estimate the distortion of ``corr`` by stratified search.

    The sample budget is split into fixed shards (deterministic child streams,
    order-independent max reduction), so reports are byte-identical across
    worker counts and monotone when the budget grows.
    """
    if budget.samples < 2:
        raise ValueError("need at least 2 samples to form a pair")
    ns = corr.n_strata
    sizes = shard_sizes(budget.samples, SHARD_SIZE)

    # Phase A (parallel, vectorized): score the sampled pairs of the uniform
    # and the focus batch, record per-stratum maxima, and extract candidate
    # pairs.  Phase B (serial in shard order) refines the candidates; each
    # shard keeps its own child streams, so worker count never influences
    # the result.
    def work(index, count, shard_rng):
        stratum_max = np.full(ns * ns, -1.0)
        batch = corr.sample_batch(count, shard_rng.child(0))
        obj, keys = _scan_pairs(corr, batch, stratum_max)

        # Candidate pairs: the best sampled pair from each of the top strata.
        candidates: list[tuple[RelationElement, RelationElement]] = []
        seen_keys: set[int] = set()
        for idx in np.argsort(-obj, kind="stable"):
            key = int(keys[idx])
            if key in seen_keys:
                continue
            seen_keys.add(key)
            candidates.append(_pair_at(corr, batch, idx))
            if len(candidates) >= budget.restarts:
                break
        used = count
        focus = corr.sample_focus_pairs(max(2, count // 4), shard_rng.child(1))
        if focus is not None:
            fobj, _ = _scan_pairs(corr, focus, stratum_max)
            candidates.extend(
                _pair_at(corr, focus, idx) for idx in np.argsort(-fobj, kind="stable")[:2]
            )
            used += 2 * fobj.size
        return stratum_max, candidates, used

    results = run_shards(work, sizes, rng, threads)

    best_val, best_pair, best_key = -1.0, None, None
    merged = np.full(ns * ns, -1.0)
    samples_used = 0
    for index, (stratum_max, candidates, counted) in enumerate(results):
        samples_used += counted
        shard_rng = rng.child(index)
        for j, cand in enumerate(candidates):
            refined, val = refine_pair(
                corr,
                cand,
                budget.refine_iters,
                budget.initial_step,
                budget.decay,
                shard_rng.child(2 + j),
            )
            stratum_key = _stratum_pair_key(ns, refined[0].stratum, refined[1].stratum)
            stratum_max[stratum_key] = max(stratum_max[stratum_key], val)
            key = _witness_key(*refined)
            if val > best_val or (
                val == best_val and best_key is not None and key < best_key
            ):
                best_val, best_pair, best_key = val, refined, key
        merged = np.maximum(merged, stratum_max)

    if best_pair is None:
        raise RuntimeError("no candidate pairs were produced; increase the budget")

    per_stratum = {}
    for flat_key in np.flatnonzero(merged >= 0.0):
        lo, hi = divmod(int(flat_key), ns)
        label = f"{corr.stratum_label(lo)}|{corr.stratum_label(hi)}"
        per_stratum[label] = float(merged[flat_key])

    return DistortionReport(
        estimate=best_val,
        witness=_as_witness(*best_pair),
        samples_used=samples_used,
        per_stratum=per_stratum,
        seed=rng.seed,
        bound=bound,
    )


class IdentityCorrespondence(Correspondence):
    """The diagonal relation x <-> x on S^dim; its distortion is zero."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("sphere dimension must be >= 1")
        self.dim = dim

    @property
    def n_strata(self) -> int:
        return 1

    def stratum_label(self, stratum: int) -> str:
        return "all"

    def free_factor(self, side: int) -> int:
        return 0

    def sample_batch(self, count, rng):
        xs = geometry.sample_uniform_many(self.dim, count, rng)
        return ElementBatch(a=xs, b=xs, side=np.zeros(count, dtype=int), strata=np.zeros(count, dtype=int))

    def variants_of_free(self, side, free):
        free = np.asarray(free, dtype=float)
        return [RelationElement(0, free, free, free, 0)]

    def dist_a(self, a1, a2):
        return geometry.geodesic_accurate(a1, a2)

    dist_b = dist_a

    def dist_a_many(self, a1, a2):
        return geometry.geodesic_many(a1, a2)

    dist_b_many = dist_a_many
