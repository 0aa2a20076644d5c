"""Sharded, order-independent execution of sampling work.

Every stochastic estimator splits its sample budget into fixed-size shards;
shard ``i`` always draws from the same child stream and is reduced in shard
order, so results are byte-identical no matter how many workers run them,
and growing the budget only appends shards (estimates are monotone under a
max reduction).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from .rng import RngStream

T = TypeVar("T")

# Samples per shard for the Monte Carlo estimators.
SHARD_SIZE = 32768


def shard_sizes(total: int, shard: int = SHARD_SIZE) -> list[int]:
    """Split ``total`` samples into full shards of fixed size.

    A trailing partial shard is dropped (budgets below one shard run as a
    single smaller shard): growing the budget can then only append shards,
    which is what makes max-reduced estimates monotone in the budget.
    """
    if total < 1:
        raise ValueError("sample budget must be >= 1")
    if total < shard:
        return [total]
    return [shard] * (total // shard)


def default_threads() -> int:
    return max(1, os.cpu_count() or 1)


def run_shards(
    work: Callable[[int, int, RngStream], T],
    sizes: Sequence[int],
    rng: RngStream,
    threads: int | None = None,
) -> list[T]:
    """Run ``work(shard_index, shard_samples, shard_rng)`` for every shard.

    Returns results in shard order regardless of completion order or thread
    count, which is what makes downstream reductions deterministic.
    ``threads=None`` means one worker per core.
    """
    threads = default_threads() if threads is None else int(threads)
    if threads < 1:
        raise ValueError(f"threads must be >= 1; got {threads}")
    jobs = [(i, n, rng.child(i)) for i, n in enumerate(sizes)]
    if threads == 1 or len(jobs) == 1:
        return [work(*job) for job in jobs]
    with ThreadPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
        futures = [pool.submit(work, *job) for job in jobs]
        return [f.result() for f in futures]
