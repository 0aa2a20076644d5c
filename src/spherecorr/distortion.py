"""Empirical distortion estimation for sphere correspondences.

A correspondence is exposed to the engine as a black box with three
abilities: name its sampling strata (:attr:`Correspondence.stratum_labels`),
draw relation elements uniformly (``sample_batch``), and list the relation
elements over given free points (``variants_many``, the membership query).
An optional focus sampler draws targeted pairs.  Both samplers return an
:class:`ElementBatch` whose row i is paired with row half+i.  The engine
picks each factor's metric from the shape of its column through
:func:`factor_distances`: the arc distance for a column of circle angles,
the geodesic for rows of unit vectors.  Phase A scores every sampled pair of
either batch, tracks the largest value of |d_A(a, a') - d_B(b, b')| per
stratum pair, and keeps the best pairs of every shard as candidates.  Phase
B hill-climbs all candidates of all shards as one batch, re-deriving
membership of every proposal through ``variants_many``.  Phase A, phase B
and :func:`pair_objective` score pairs through the one function
:func:`_objectives`, so every reported value is realized by a concrete,
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


# First step of the phase B climb, and its shrink factor after a rejected move.
REFINE_STEP = np.pi / 16
REFINE_DECAY = 0.9

# Strata per shard whose best pair becomes a phase B candidate.
CANDIDATE_STRATA = 8


@dataclass(frozen=True)
class SearchBudget:
    """Knobs for the stochastic search: sampling plus local refinement."""

    samples: int = 1_000_000
    refine_iters: int = 200

    def __post_init__(self):
        if self.samples < 1 or self.refine_iters < 0:
            raise ValueError("budget fields must be positive (refine_iters may be 0)")


@dataclass
class ElementBatch:
    """Relation elements as rows: row i is the element (a[i], b[i]).

    ``side[i]`` names the factor that carries row i's free (continuum)
    coordinate, ``a`` for side 0 and ``b`` for side 1; the other coordinate
    is derived from it by the correspondence.  As a batch of pairs, row i is
    paired with row half+i, half = len // 2; a single pair of elements is
    two one-row batches.
    """

    a: np.ndarray
    b: np.ndarray
    side: np.ndarray
    strata: np.ndarray

    @property
    def columns(self) -> tuple:
        return self.a, self.b, self.side, self.strata

    def take(self, rows) -> "ElementBatch":
        return ElementBatch(*(col[rows] for col in self.columns))

    @classmethod
    def concat(cls, batches) -> "ElementBatch":
        return cls(*(np.concatenate(col) for col in zip(*(b.columns for b in batches))))


class Correspondence(ABC):
    """Relation between two spheres, exposed through samplers and a membership query.

    A subclass names its strata, draws relation elements uniformly and lists
    the elements over given free points; the focus sampler is optional.  It
    measures no distances: :func:`factor_distances` scores an angle column
    (the circle factor) by arc length and unit-vector rows (a sphere factor)
    by :func:`geometry.geodesic_many`, which is accurate at 0 and pi where
    the distortion of a collapse is attained.  The free point of a side-s
    element lies on factor s: ``a`` for side 0, ``b`` for side 1.
    """

    @property
    @abstractmethod
    def stratum_labels(self) -> tuple[str, ...]:
        """Names of the sampling strata (cells / intervals, counted per side), by index."""

    @abstractmethod
    def sample_batch(self, count: int, rng: RngStream) -> ElementBatch:
        """Draw ``count`` relation elements with positive density everywhere."""

    @abstractmethod
    def variants_many(self, side: int, frees: np.ndarray) -> tuple[ElementBatch, np.ndarray]:
        """All relation elements over each row of ``frees`` (several on cell
        boundaries), with ``owner[i]`` the row that element i sits over.

        Elements come in row order, and a row's elements in a fixed order.
        """

    def variants_of_free(self, side: int, free: np.ndarray) -> ElementBatch:
        """All relation elements over one free point: one row of ``variants_many``."""
        return self.variants_many(side, np.asarray(free, dtype=float)[None])[0]

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


def pair_objective(corr: Correspondence, e1: ElementBatch, e2: ElementBatch) -> float:
    """|d_A(a1, a2) - d_B(b1, b2)| of two one-row batches of ``corr``: one row of :func:`_objectives`."""
    return float(_objectives(e1, e2)[0])


@dataclass
class DistortionReport:
    """Outcome of one distortion-estimation run."""

    estimate: float
    witness: dict
    samples_used: int
    per_stratum: dict
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "estimate_over_pi": self.estimate / np.pi,
            "witness": self.witness,
            "samples_used": self.samples_used,
            "seed": self.seed,
            "per_stratum": self.per_stratum,
        }


def _witness_points(first: ElementBatch, second: ElementBatch, i) -> tuple:
    """The points (x, y, x2, y2) of the pair (first[i], second[i])."""
    return first.a[i], first.b[i], second.a[i], second.b[i]


def refine_pair(
    corr: Correspondence,
    pair: tuple[ElementBatch, ElementBatch],
    iters: int,
    rng: RngStream = RngStream(0),
) -> tuple[tuple[ElementBatch, ElementBatch], float]:
    """Hill-climb a pair of relation elements, two one-row batches, to larger objective value.

    One pair through :func:`_climb_pairs`, on copies of the input rows: one
    free point moves per iteration (alternating); each proposal is
    re-derived through the correspondence, so every accepted state is a
    valid pair of relation elements and the objective never decreases.
    """
    first, second = (e.take([0]) for e in pair)
    if not _in_relation(corr, ElementBatch.concat([first, second])).all():
        raise ValueError("input pair is not in the relation")
    return (first, second), float(_climb_pairs(corr, first, second, iters, [rng])[0])


def _climb_pairs(corr, first: ElementBatch, second: ElementBatch, iters, rngs) -> np.ndarray:
    """Hill-climb the pairs (first[i], second[i]) in place; returns their objectives.

    The elements alternate as mover.  Proposals: a random direction, then
    toward and away from the other free point when both live on one side.
    Row i draws its random directions from ``rngs[i]`` as one block up front,
    in move order, so no row's path depends on the others.  Rows are grouped
    by the mover's side, whose free points may live on another sphere; an
    element keeps its side, so only its a, b and stratum are written back.
    """
    pair = (first, second)
    values = _objectives(first, second)
    if iters == 0:
        return values

    def free(batch, rows, side):
        return (batch.a if side == 0 else batch.b).take(rows, axis=0)

    # row i's random normals by parity, each side's d columns in front of a zero pad
    moves = ((iters + 1) // 2, iters // 2)
    width = max((free(b, [0], s).shape[1] for b in pair for s in np.unique(b.side)), default=0)
    normals = np.zeros((2, len(rngs), moves[0], width))
    for i, row_rng in enumerate(rngs):
        d0, d1 = (free(b, [i], b.side[i]).shape[1] for b in pair)
        flat = row_rng.generator().standard_normal(moves[0] * d0 + moves[1] * d1)
        block = np.pad(flat, (0, (moves[0] - moves[1]) * d1)).reshape(moves[0], d0 + d1)
        normals[0, i, :, :d0], normals[1, i, :, :d1] = block[:, :d0], block[:, d0:]
    # proposals kept per row: the random one, then toward and away when both sides agree
    keep = (first.side == second.side)[:, None] | (np.arange(3) == 0)
    groups = [[(s, mover.side == s) for s in np.unique(mover.side)] for mover in pair]

    def propose(it, rows, steps):
        p = it % 2
        mover, other = pair[p], pair[1 - p]
        owners, found = [], []
        for s, members in groups[p]:
            g = rows[members[rows]]
            if not g.size:
                continue
            x, ox = free(mover, g, s), free(other, g, s)
            ways = np.stack([normals[p, :, it // 2, : x.shape[1]].take(g, axis=0), ox - x, x - ox], axis=1)
            props = geometry.tangent_step(x[:, None], ways, steps[g][:, None])
            kept = keep.take(g, axis=0).ravel().nonzero()[0]  # as flat indices into the (row, proposal) grid
            batch, owner = corr.variants_many(s, props.reshape(-1, x.shape[1]).take(kept, axis=0))
            owners.append(g[kept[owner] // 3])
            found.append(batch)
        owner, found = np.concatenate(owners), ElementBatch.concat(found)
        moved = (found.a, found.b, found.strata)
        moved = moved + (None,) * 3 if p == 0 else (None,) * 3 + moved
        return owner, _objectives(found, other.take(owner)), moved

    state = (first.a, first.b, first.strata, second.a, second.b, second.strata)
    return geometry.hill_climb(state, values, iters, REFINE_STEP, np.pi / 4, REFINE_DECAY, propose)


def factor_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise exact distances on one factor: arc length for a column of circle
    angles (1-D), :func:`geometry.geodesic_many` for rows of unit vectors (2-D)."""
    if p.ndim == 1:
        return geometry.circle_distance_many(p, q)
    return geometry.geodesic_many(p, q)


def _objectives(first: ElementBatch, second: ElementBatch) -> np.ndarray:
    """Row-wise exact pair objectives |d_A - d_B|: the one scoring path of the engine."""
    return np.abs(factor_distances(first.a, second.a) - factor_distances(first.b, second.b))


def _stratum_pair_key(strata_count: int, s1, s2):
    """Flat index of the unordered stratum pair; works on ints and arrays."""
    return np.minimum(s1, s2) * strata_count + np.maximum(s1, s2)


def _scan_pairs(batch: ElementBatch, strata_count: int, stratum_max: np.ndarray):
    """Objectives and stratum keys of the pairs (i, half+i) of ``batch``.

    Folds the objectives into ``stratum_max`` and returns (objectives, keys).
    """
    half = len(batch.strata) // 2
    first, second = batch.take(slice(0, half)), batch.take(slice(half, 2 * half))
    obj = _objectives(first, second)
    keys = _stratum_pair_key(strata_count, first.strata, second.strata)
    np.maximum.at(stratum_max, keys, obj)
    return obj, keys


def _stratum_picks(obj, keys, stratum_max, count: int) -> np.ndarray:
    """Rows of the best pair of each of the top ``count`` strata, without a sort:
    a key's pick is its earliest row attaining ``stratum_max``, and picks come
    by decreasing objective, earliest row first."""
    tops = np.flatnonzero(obj == stratum_max[keys])
    _, first = np.unique(keys[tops], return_index=True)
    best = tops[first]
    return best[np.lexsort((best, -obj[best]))][:count]


def _pair_rows(batch: ElementBatch, idx) -> tuple[ElementBatch, ElementBatch]:
    half = len(batch.strata) // 2
    idx = np.asarray(idx, dtype=int)
    return batch.take(idx), batch.take(half + idx)


def estimate_distortion(
    corr: Correspondence,
    budget: SearchBudget,
    rng: RngStream,
    threads: int | None = None,
) -> DistortionReport:
    """Lower-estimate the distortion of ``corr`` by stratified search.

    The sample budget is split into fixed shards (deterministic child streams,
    order-independent max reduction), so reports are byte-identical across
    worker counts and monotone when the budget grows.
    """
    if budget.samples < 2:
        raise ValueError("need at least 2 samples to form a pair")
    labels = corr.stratum_labels
    ns = len(labels)
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
        obj, keys = _scan_pairs(batch, ns, stratum_max)

        candidates = [_pair_rows(batch, _stratum_picks(obj, keys, stratum_max, CANDIDATE_STRATA))]
        used = count
        focus = corr.sample_focus_pairs(max(2, count // 4), shard_rng.child(1))
        if focus is not None:
            fobj, _ = _scan_pairs(focus, ns, stratum_max)
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
        key=lambda i: np.hstack(_witness_points(first, second, i)).tolist(),
    )
    per_stratum = {}
    for flat_key in np.flatnonzero(merged >= 0.0):
        lo, hi = divmod(int(flat_key), ns)
        per_stratum[f"{labels[lo]}|{labels[hi]}"] = float(merged[flat_key])

    return DistortionReport(
        estimate=float(values[best]),
        witness=dict(zip(("x", "y", "x2", "y2"), (p.tolist() for p in _witness_points(first, second, best)))),
        samples_used=samples_used,
        per_stratum=per_stratum,
        seed=rng.seed,
    )


class IdentityCorrespondence(Correspondence):
    """The diagonal relation x <-> x on S^dim; its distortion is zero."""

    stratum_labels = ("all",)

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("sphere dimension must be >= 1")
        self.dim = dim

    def sample_batch(self, count, rng):
        xs = geometry.sample_uniform_many(self.dim, count, rng)
        return ElementBatch(a=xs, b=xs, side=np.zeros(count, dtype=int), strata=np.zeros(count, dtype=int))

    def variants_many(self, side, frees):
        frees = np.asarray(frees, dtype=float)
        zeros = np.zeros(len(frees), dtype=int)
        return ElementBatch(a=frees, b=frees, side=zeros, strata=zeros), np.arange(len(frees))
