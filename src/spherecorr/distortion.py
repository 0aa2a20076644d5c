"""Empirical distortion estimation for sphere correspondences.

A correspondence is exposed to the engine as a black box with three
abilities: sample relation elements, list the relation elements sitting
over given free points, and measure row-wise distances on its two factors.
Both samplers (uniform and the optional focus sampler) return an
:class:`ElementBatch` whose row i is paired with row half+i.  Phase A scores
every sampled pair of either batch, tracks the largest value of
|d_A(a, a') - d_B(b, b')| per stratum pair, and keeps the best pairs of
every shard as candidates.  Phase B hill-climbs all candidates of all shards
as one batch, re-deriving membership of every proposal through
``variants_many``.  Phase A, phase B and :func:`pair_objective` score pairs
through the one function :func:`_objectives`, so every reported value is
realized by a concrete, re-checkable witness pair and the estimate is a
lower bound on the true distortion.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from . import geometry
from .parallel import SHARD_SIZE, run_shards, shard_sizes
from .rng import RngStream


# First step of the phase B climb, and its shrink factor after a rejected move.
REFINE_STEP = np.pi / 16
REFINE_DECAY = 0.9


@dataclass(frozen=True)
class SearchBudget:
    """Knobs for the stochastic search: sampling plus local refinement."""

    samples: int = 1_000_000
    refine_iters: int = 200
    restarts: int = 8

    def __post_init__(self):
        if self.samples < 1 or self.refine_iters < 0 or self.restarts < 1:
            raise ValueError("budget fields must be positive (refine_iters may be 0)")


@dataclass
class RelationElement:
    """One element (a, b) of a correspondence, tracked through its free point.

    ``side`` names the factor that carries the free (continuum) coordinate,
    ``a`` for side 0 and ``b`` for side 1; the other coordinate is derived
    from it by the correspondence.
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

    def element(self, i: int) -> RelationElement:
        side = int(self.side[i])
        free = self.a[i] if side == 0 else self.b[i]
        return RelationElement(side, np.asarray(free, dtype=float), self.a[i], self.b[i], int(self.strata[i]))

    @property
    def columns(self) -> tuple:
        return self.a, self.b, self.side, self.strata

    def take(self, rows) -> "ElementBatch":
        return ElementBatch(*(col[rows] for col in self.columns))

    @classmethod
    def concat(cls, batches) -> "ElementBatch":
        return cls(*(np.concatenate(col) for col in zip(*(b.columns for b in batches))))

    @classmethod
    def of(cls, elems) -> "ElementBatch":
        return cls(*(np.array(col) for col in zip(*((e.a, e.b, e.side, e.stratum) for e in elems))))


class Correspondence(ABC):
    """Relation between two spheres, exposed through samplers and queries.

    ``dist_a`` and ``dist_b`` are the only distances the engine scores; on a
    sphere factor they are :func:`geometry.geodesic_many`, which is accurate
    at 0 and pi where the distortion of a collapse is attained.  The free
    point of a side-s element lies on factor s: ``a`` for side 0, ``b`` for
    side 1.
    """

    @property
    @abstractmethod
    def n_strata(self) -> int:
        """Number of sampling strata (cells / intervals, counted per side)."""

    @abstractmethod
    def stratum_label(self, stratum: int) -> str:
        """Human-readable name of one stratum."""

    @abstractmethod
    def sample_batch(self, count: int, rng: RngStream) -> ElementBatch:
        """Draw ``count`` relation elements with positive density everywhere."""

    @abstractmethod
    def variants_many(self, side: int, frees: np.ndarray) -> tuple[ElementBatch, np.ndarray]:
        """All relation elements over each row of ``frees`` (several on cell
        boundaries), with ``owner[i]`` the row that element i sits over.

        Elements come in row order, and a row's elements in a fixed order.
        """

    def variants_of_free(self, side: int, free: np.ndarray) -> list[RelationElement]:
        """All relation elements over one free point: one row of ``variants_many``."""
        batch, _ = self.variants_many(side, np.asarray(free, dtype=float)[None, :])
        return [batch.element(i) for i in range(len(batch.strata))]

    @abstractmethod
    def dist_a(self, a1, a2):
        """Exact distance on factor A, row-wise on stacked points."""

    @abstractmethod
    def dist_b(self, b1, b2):
        """Exact distance on factor B, row-wise on stacked points."""

    def sample_focus_pairs(self, count: int, rng: RngStream) -> ElementBatch | None:
        """Optional targeted pairs (boundary strata etc.), paired like a batch.

        Returns an even-length batch whose row i pairs with row half+i, or
        None when the correspondence has no focus sampler.
        """
        return None


def _in_relation(corr: Correspondence, batch: ElementBatch) -> np.ndarray:
    """Whether each row of ``batch`` matches some variant over its own free point."""
    ok = np.zeros(len(batch.strata), dtype=bool)
    for side in np.unique(batch.side):
        rows = np.flatnonzero(batch.side == side)
        own = batch.take(rows)
        found, owner = corr.variants_many(int(side), own.a if side == 0 else own.b)
        match = (
            (found.strata == own.strata[owner])
            & _close(found.a, own.a[owner])
            & _close(found.b, own.b[owner])
        )
        ok[rows[owner[match]]] = True
    return ok


def _close(p: np.ndarray, q: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Row-wise coordinate comparison that treats angles modulo 2*pi."""
    if p.ndim == 1:
        return geometry.circle_distance_many(p, q) <= tol
    return geometry.row_max(np.abs(p - q)) <= tol


def pair_objective(corr: Correspondence, e1: RelationElement, e2: RelationElement) -> float:
    """|d_A(a1, a2) - d_B(b1, b2)| of two relation elements: one row of :func:`_objectives`."""
    return float(_objectives(corr, ElementBatch.of([e1]), ElementBatch.of([e2]))[0])


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
    rng: RngStream = RngStream(0),
) -> tuple[tuple[RelationElement, RelationElement], float]:
    """Hill-climb a pair of relation elements to larger objective value.

    One pair through :func:`_climb_pairs`: one free point moves per
    iteration (alternating); each proposal is re-derived through the
    correspondence, so every accepted state is a valid pair of relation
    elements and the objective never decreases.
    """
    e1, e2 = pair
    for e, ok in zip(pair, _in_relation(corr, ElementBatch.of(pair))):
        if not ok:
            raise ValueError(f"input pair is not in the relation (stratum {e.stratum})")
    if iters == 0:
        return (e1, e2), pair_objective(corr, e1, e2)
    first, second = ElementBatch.of([e1]), ElementBatch.of([e2])
    value = _climb_pairs(corr, first, second, iters, [rng])[0]
    return (first.element(0), second.element(0)), float(value)


def _climb_pairs(corr, first: ElementBatch, second: ElementBatch, iters, rngs) -> np.ndarray:
    """Hill-climb the pairs (first[i], second[i]) in place; returns their objectives.

    The elements alternate as mover.  Proposals: a random direction, then
    toward and away from the other free point when both live on one side.
    Row i draws its random directions from ``rngs[i]`` as one block up front,
    in move order, so no row's path depends on the others.  Rows are grouped
    by the mover's side, whose free points may live on another sphere.
    """
    pair = (first, second)
    values = _objectives(corr, first, second)
    if iters == 0:
        return values

    def free(batch, rows, side):
        return batch.a[rows] if side == 0 else batch.b[rows]

    moves = ((iters + 1) // 2, iters // 2)
    normals = ([], [])
    for i, row_rng in enumerate(rngs):
        d0, d1 = (free(b, [i], b.side[i]).shape[1] for b in pair)
        flat = row_rng.generator().standard_normal(moves[0] * d0 + moves[1] * d1)
        block = np.pad(flat, (0, (moves[0] - moves[1]) * d1)).reshape(moves[0], d0 + d1)
        normals[0].append(block[:, :d0])
        normals[1].append(block[:, d0:])

    def propose(it, rows, steps):
        p = it % 2
        mover, other = pair[p], pair[1 - p]
        owners, batches = [], []
        for s in np.unique(mover.side[rows]):
            g = rows[mover.side[rows] == s]
            x, st = free(mover, g, s), steps[g]
            props = [geometry.tangent_step(x, np.array([normals[p][i][it // 2] for i in g]), st)]
            same = other.side[g] == s
            if same.any():
                ox = free(other, g, s)
                props += [geometry.tangent_step(x, ox - x, st), geometry.tangent_step(x, x - ox, st)]
            keep = np.column_stack([np.ones_like(same), same, same])[:, : len(props)]
            prop_rows, prop_idx = np.nonzero(keep)
            batch, owner = corr.variants_many(s, np.stack(props, axis=1)[prop_rows, prop_idx])
            owners.append(g[prop_rows[owner]])
            batches.append(batch)
        owner = np.concatenate(owners)
        found, kept = ElementBatch.concat(batches), other.take(owner)
        moved = (found, kept) if p == 0 else (kept, found)
        return owner, _objectives(corr, found, kept), moved[0].columns + moved[1].columns

    state = first.columns + second.columns
    return geometry.hill_climb(state, values, iters, REFINE_STEP, np.pi / 4, REFINE_DECAY, propose)


def _objectives(corr: Correspondence, first: ElementBatch, second: ElementBatch) -> np.ndarray:
    """Row-wise exact pair objectives |d_A - d_B|: the one scoring path of the engine."""
    return np.abs(corr.dist_a(first.a, second.a) - corr.dist_b(first.b, second.b))


def _stratum_pair_key(n_strata: int, s1, s2):
    """Flat index of the unordered stratum pair; works on ints and arrays."""
    return np.minimum(s1, s2) * n_strata + np.maximum(s1, s2)


def _scan_pairs(corr: Correspondence, batch: ElementBatch, stratum_max: np.ndarray):
    """Objectives and stratum keys of the pairs (i, half+i) of ``batch``.

    Folds the objectives into ``stratum_max`` and returns (objectives, keys).
    """
    half = len(batch.strata) // 2
    first, second = batch.take(slice(0, half)), batch.take(slice(half, 2 * half))
    obj = _objectives(corr, first, second)
    keys = _stratum_pair_key(corr.n_strata, first.strata, second.strata)
    np.maximum.at(stratum_max, keys, obj)
    return obj, keys


def _stratum_picks(obj, keys, stratum_max, restarts: int) -> np.ndarray:
    """Rows of the best pair of each of the top ``restarts`` strata, without a sort:
    a key's pick is its earliest row attaining ``stratum_max``, and picks come
    by decreasing objective, earliest row first."""
    tops = np.flatnonzero(obj == stratum_max[keys])
    _, first = np.unique(keys[tops], return_index=True)
    best = tops[first]
    return best[np.lexsort((best, -obj[best]))][:restarts]


def _pair_rows(batch: ElementBatch, idx) -> tuple[ElementBatch, ElementBatch]:
    half = len(batch.strata) // 2
    idx = np.asarray(idx, dtype=int)
    return batch.take(idx), batch.take(half + idx)


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
    # pairs.  Phase B (in the calling thread) refines the candidates of all
    # shards as one batch; candidate j of shard i climbs on the stream
    # rng.child(i, 2 + j), so neither the worker count nor the batch
    # influences the result.
    def work(index, count, shard_rng):
        stratum_max = np.full(ns * ns, -1.0)
        batch = corr.sample_batch(count, shard_rng.child(0))
        obj, keys = _scan_pairs(corr, batch, stratum_max)

        candidates = [_pair_rows(batch, _stratum_picks(obj, keys, stratum_max, budget.restarts))]
        used = count
        focus = corr.sample_focus_pairs(max(2, count // 4), shard_rng.child(1))
        if focus is not None:
            fobj, _ = _scan_pairs(corr, focus, stratum_max)
            candidates.append(_pair_rows(focus, np.argsort(-fobj, kind="stable")[:2]))
            used += 2 * fobj.size
        return stratum_max, candidates, used

    results = run_shards(work, sizes, rng, threads)

    merged = np.max([stratum_max for stratum_max, _, _ in results], axis=0)
    samples_used = sum(used for _, _, used in results)
    first = ElementBatch.concat(c[0] for _, cands, _ in results for c in cands)
    second = ElementBatch.concat(c[1] for _, cands, _ in results for c in cands)
    if not _in_relation(corr, ElementBatch.concat([first, second])).all():
        raise ValueError("a candidate pair is not in the relation")
    streams = [
        rng.child(index, 2 + j)
        for index, (_, cands, _) in enumerate(results)
        for j in range(sum(len(c[0].strata) for c in cands))
    ]
    values = _climb_pairs(corr, first, second, budget.refine_iters, streams)
    np.maximum.at(merged, _stratum_pair_key(ns, first.strata, second.strata), values)

    # Largest value; ties go to the smallest witness key.
    best = min(
        np.flatnonzero(values == values.max()),
        key=lambda i: _witness_key(first.element(i), second.element(i)),
    )
    per_stratum = {}
    for flat_key in np.flatnonzero(merged >= 0.0):
        lo, hi = divmod(int(flat_key), ns)
        label = f"{corr.stratum_label(lo)}|{corr.stratum_label(hi)}"
        per_stratum[label] = float(merged[flat_key])

    return DistortionReport(
        estimate=float(values[best]),
        witness=_as_witness(first.element(best), second.element(best)),
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

    def sample_batch(self, count, rng):
        xs = geometry.sample_uniform_many(self.dim, count, rng)
        return ElementBatch(a=xs, b=xs, side=np.zeros(count, dtype=int), strata=np.zeros(count, dtype=int))

    def variants_many(self, side, frees):
        frees = np.asarray(frees, dtype=float)
        zeros = np.zeros(len(frees), dtype=int)
        return ElementBatch(a=frees, b=frees, side=zeros, strata=zeros), np.arange(len(frees))

    def dist_a(self, a1, a2):
        return geometry.geodesic_many(a1, a2)

    dist_b = dist_a
