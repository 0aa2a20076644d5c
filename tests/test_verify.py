"""The streamed sampled checks of ``verify``: the same values as on the whole
draw, and a peak memory that does not grow with the budget.  The packing
scope optimizes each size once."""

import tracemalloc

import numpy as np
import pytest

from spherecorr import RngStream, geometry, odd_corr, packing, verify
from spherecorr.odd_corr import cell_angles_many
from spherecorr.parallel import SHARD_SIZE

# Budgets that span several blocks and end in a partial one.
COUNTS = (1, SHARD_SIZE, 2 * SHARD_SIZE + 7)


# Each reference computes its check on the whole draw at once, as verify did
# before it streamed its samples.

def whole_cyclic_shift(k, count, rng):
    xs = geometry.sample_uniform_many(k, count, rng.child(0))
    ms = odd_corr.principal_cells_many(k, xs)
    base = cell_angles_many(k, xs, ms)
    ns = rng.child(1).generator().integers(0, 2 * k + 2, size=count)
    lhs = cell_angles_many(k, odd_corr.cyclic_shift(k, ns, xs), (ms + ns - 1) % (2 * k + 2) + 1)
    return float(np.max(geometry.circle_distance_many(lhs, base + ns * np.pi / (k + 1))))


def whole_z2(k, count, rng):
    xs = geometry.sample_uniform_many(k, count, rng)
    ms = odd_corr.principal_cells_many(k, xs)
    lhs = cell_angles_many(k, -xs, (ms + k) % (2 * k + 2) + 1)
    return float(np.max(geometry.circle_distance_many(lhs, cell_angles_many(k, xs, ms) + np.pi)))


def whole_confinement(k, count, rng):
    xs = geometry.sample_uniform_many(k, count, rng)
    ms = odd_corr.principal_cells_many(k, xs)
    angles = cell_angles_many(k, xs, ms)
    worst = 0.0
    for m in np.unique(ms):
        iv = odd_corr.CircleInterval.of_cell(k, int(m))
        delta = np.mod(angles[ms == m] - iv.lo, 2 * np.pi)
        off = np.minimum(np.abs(delta - np.clip(delta, 0, iv.width)), np.abs(delta - 2 * np.pi))
        worst = max(worst, float(np.max(off)))
    return worst


def whole_coordinate_gaps(k, count, rng):
    xs = odd_corr.sample_in_ordered_cell_many(k, 1, count, rng.child(0))
    coeff = np.pi / (2 * k * (k + 1))
    sq_gap, linear_gap = -np.inf, -np.inf
    for idx, j in enumerate((k, k + 1)):
        zs = odd_corr.sample_in_ordered_cell_many(k, j, count, rng.child(1 + idx))
        dist2 = np.einsum("ij,ij->i", xs - zs, xs - zs)
        sq_gap = max(sq_gap, float(np.max((xs[:, 0] - np.abs(zs[:, odd_corr.cell_axis(k, j)])) ** 2 - dist2)))
        sum_x = xs.sum(axis=1) / xs[:, 0]
        if j == k:
            lhs = coeff * (sum_x + (zs[:, : k - 1].sum(axis=1) + zs[:, k - 1] - zs[:, k]) / zs[:, k - 1] - 2 * k)
        else:
            lhs = coeff * (sum_x + zs.sum(axis=1) / zs[:, k])
        linear_gap = max(linear_gap, float(np.max(lhs - np.sqrt(dist2))))
    return sq_gap, linear_gap


def whole_distance_decrease(k, count, rng):
    xs = geometry.sample_uniform_many(k, count, rng.child(0, 0))
    ms = odd_corr.principal_cells_many(k, xs)
    ys = odd_corr.sample_in_ordered_cell_many(k, ms, count, rng.child(0, 1))
    d_sphere = geometry.geodesic_many(xs, ys)
    d_circle = geometry.circle_distance_many(cell_angles_many(k, xs, ms), cell_angles_many(k, ys, ms))
    strict = (d_circle < d_sphere) | (d_sphere <= 1e-12)
    return int(np.sum(~strict)), float(np.min(d_sphere - d_circle))


@pytest.mark.parametrize("k", [3, 5, 7])
@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("streamed, whole", [
    (verify.cyclic_shift_violation, whole_cyclic_shift),
    (verify.z2_violation, whole_z2),
    (verify.interval_confinement_violation, whole_confinement),
    (verify.coordinate_gaps, whole_coordinate_gaps),
    (verify.distance_decrease_violations, whole_distance_decrease),
])
def test_streamed_odd_checks_match_the_whole_draw(streamed, whole, k, count):
    rng = RngStream(3, (k, count))
    assert streamed(k, count, rng) == whole(k, count, rng)


# (bad, closest margin) of the contraction check at RngStream(9, (k,)).  Up to
# 250,000 pairs it reads the streams of the first 250,000-row chunk it once drew.
CONTRACTION_PINS = {
    (3, 20_000): (0, 0.03321503255012739),
    (3, 250_000): (0, 0.015325917415832217),
    (9, 20_000): (0, 0.2753014006490361),
    (9, 250_000): (0, 0.19608458827761496),
}


@pytest.mark.parametrize("k, count", sorted(CONTRACTION_PINS))
def test_contraction_check_values_are_pinned(k, count):
    assert verify.distance_decrease_violations(k, count, RngStream(9, (k,))) == CONTRACTION_PINS[k, count]


@pytest.mark.parametrize("count", [1, 10000, 2 * SHARD_SIZE + 7, 400000])
def test_uniform_moments_match_the_whole_draw(count):
    # numpy sums axis 0 row after row; per-block sums added up would move the last bits
    big = geometry.sample_uniform_many(2, count, RngStream(5, (1,)))
    mean, frac = verify.uniform_moments(count, RngStream(5, (1,)))
    assert mean.tobytes() == big.mean(axis=0).tobytes()
    assert frac == np.mean(big[:, 0] > 0)


def traced_peak(fn, *args) -> int:
    """Peak bytes that numpy and Python hold at once during ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("block", [1000, SHARD_SIZE])
def test_geometry_checks_do_not_depend_on_the_block_size(monkeypatch, block):
    # maxima are exact in any grouping, the mean is carried row after row,
    # and every block continues its stream's generator
    want = [r.to_json_dict() for r in verify.check_geometry(400_000, RngStream(2))]
    monkeypatch.setattr(verify, "BLOCK_ROWS", block)
    assert [r.to_json_dict() for r in verify.check_geometry(400_000, RngStream(2))] == want


def test_check_geometry_memory_does_not_grow_with_samples():
    # both budgets fill whole blocks; a whole draw of 4M samples holds over 300 MB
    verify.check_geometry(1000, RngStream(0))
    small = traced_peak(verify.check_geometry, 400_000, RngStream(0))
    large = traced_peak(verify.check_geometry, 4_000_000, RngStream(0))
    assert large <= 1.5 * small, (small, large)


@pytest.mark.parametrize("check", [
    verify.cyclic_shift_violation,
    verify.z2_violation,
    verify.interval_confinement_violation,
    verify.coordinate_gaps,
    verify.distance_decrease_violations,
])
def test_streamed_odd_check_memory_does_not_grow_with_count(check):
    check(3, 1000, RngStream(0))
    small = traced_peak(check, 3, 50_000, RngStream(0))
    large = traced_peak(check, 3, 500_000, RngStream(0))
    assert large <= 1.5 * small, (small, large)


def test_check_packing_optimizes_each_size_once(monkeypatch):
    calls = []
    optimize = packing.optimize_packing

    def counted(n, m, *args, **kwargs):
        calls.append((n, m))
        return optimize(n, m, *args, **kwargs)

    monkeypatch.setattr(packing, "optimize_packing", counted)
    results = verify.check_packing(RngStream(0).child(5))
    assert sorted(calls) == [(1, 5), (2, 3), (2, 4), (2, 6), (3, 8)]
    assert all(r.passed for r in results)


@pytest.mark.parametrize("k_values", [None, [3]])
def test_run_verify_names_an_unknown_scope(k_values):
    # the scope is checked before its k values, whose message would name the wrong fault
    with pytest.raises(ValueError, match="unknown scope 'bogus'"):
        verify.run_verify("bogus", k_values=k_values)
