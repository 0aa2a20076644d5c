import hashlib

import numpy as np
import pytest

from spherecorr import (
    OddCircleCorrespondence,
    PackingBudget,
    RngStream,
    SearchBudget,
    VoronoiCorrespondence,
    cross_polytope_set,
    cross_polytope_vdiam_exact,
    estimate_distortion,
    evenly_spaced_circle_set,
    max_distortion_witness,
    refine_pair,
    rpq_bound,
)
from spherecorr.distortion import (
    Correspondence,
    ElementBatch,
    IdentityCorrespondence,
    _climb_pairs,
    _in_relation,
    _objectives,
    _stratum_picks,
    factor_distances,
    pair_objective,
)
from spherecorr import geometry, odd_corr
from spherecorr.parallel import run_shards
from spherecorr.serialize import dumps
from spherecorr.voronoi_corr import even_cross


def odd_element(k, x_coords, m):
    """The relation element over ``x_coords`` in ordered cell m, as a one-row batch."""
    x = np.asarray(x_coords, dtype=float)[None, :]
    return ElementBatch(x, odd_corr.cell_angles_many(k, x, np.array([m])), np.zeros(1, dtype=int), np.array([m - 1]))


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(samples=0)
    with pytest.raises(ValueError):
        PackingBudget(ascent_steps=0)
    with pytest.raises(ValueError):
        PackingBudget(polish_steps=-1)


def test_identity_correspondence_has_zero_distortion():
    report = estimate_distortion(
        IdentityCorrespondence(2), SearchBudget(samples=20000, refine_iters=20), RngStream(7)
    )
    assert report.estimate == 0.0
    assert report.samples_used >= 20000 // 2


def test_odd_estimate_reaches_bound():
    corr = OddCircleCorrespondence(3)
    report = estimate_distortion(corr, SearchBudget(samples=65536, refine_iters=60), RngStream(7))
    assert report.estimate == pytest.approx(2 * np.pi / 3, abs=0.01)
    assert report.estimate <= 2 * np.pi / 3 + 1e-6


def test_rpq_estimate_reaches_bound():
    corr = VoronoiCorrespondence(evenly_spaced_circle_set(3), cross_polytope_set(2))
    bound = rpq_bound(corr, np.pi / 3, cross_polytope_vdiam_exact(2))
    report = estimate_distortion(corr, SearchBudget(samples=65536, refine_iters=60), RngStream(7))
    assert report.estimate == pytest.approx(2 * np.pi / 3, abs=0.01)
    assert report.estimate <= bound + 1e-6


def test_witness_realizes_estimate():
    corr = OddCircleCorrespondence(3)
    report = estimate_distortion(
        corr, SearchBudget(samples=32768, refine_iters=40), RngStream(9)
    )
    w = report.witness
    d_a = geometry.geodesic_many(np.asarray(w["x"]), np.asarray(w["x2"]))
    d_b = geometry.circle_distance_many(w["y"], w["y2"])
    assert abs(abs(d_a - d_b) - report.estimate) <= 1e-12


def test_per_stratum_map_present():
    corr = OddCircleCorrespondence(3)
    report = estimate_distortion(
        corr, SearchBudget(samples=32768, refine_iters=10), RngStream(9)
    )
    assert report.per_stratum
    assert all("|" in key for key in report.per_stratum)
    assert max(report.per_stratum.values()) == pytest.approx(report.estimate, abs=1e-9)


def test_monotone_in_samples():
    corr = OddCircleCorrespondence(5)
    values = []
    for s in (32768, 65536, 131072):
        rep = estimate_distortion(corr, SearchBudget(samples=s, refine_iters=20), RngStream(11))
        values.append(rep.estimate)
    assert values[0] <= values[1] + 1e-15
    assert values[1] <= values[2] + 1e-15


def test_deterministic_across_worker_counts():
    corr = OddCircleCorrespondence(3)
    outs = []
    for threads in (1, 4, 8):
        rep = estimate_distortion(
            corr, SearchBudget(samples=65536, refine_iters=30), RngStream(42), threads=threads
        )
        outs.append(dumps(rep.to_json_dict()))
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("threads", [0, -1])
def test_run_shards_rejects_fewer_than_one_thread(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        run_shards(lambda i, n, rng: n, [1, 1], RngStream(0), threads)


def test_zero_budget_errors():
    corr = IdentityCorrespondence(2)
    with pytest.raises(ValueError):
        estimate_distortion(corr, SearchBudget(samples=1, refine_iters=5), RngStream(0))


def test_refine_pair_rejects_invalid_input():
    corr = OddCircleCorrespondence(3)
    x = np.array([1.0, 0, 0, 0])
    # angle and stratum do not match x
    bogus = ElementBatch(x[None], np.array([1.0]), np.zeros(1, dtype=int), np.array([5]))
    with pytest.raises(ValueError):
        refine_pair(corr, (bogus, bogus), 5)


def test_refine_pair_zero_iters_returns_input():
    corr = OddCircleCorrespondence(3)
    (w1, w2), value = max_distortion_witness(3)
    e1 = odd_element(3, w1.a[0], 1)
    e2 = odd_element(3, w2.a[0], 4)
    (r1, r2), val = refine_pair(corr, (e1, e2), 0)
    for r, e in ((r1, e1), (r2, e2)):
        assert r is not e  # refine_pair climbs on copies
        for col_r, col_e in zip(r.columns, e.columns):
            assert col_r.dtype == col_e.dtype and col_r.tobytes() == col_e.tobytes()
    assert val == pytest.approx(value, abs=1e-12)


def test_refine_pair_cannot_improve_optimal_witness():
    corr = OddCircleCorrespondence(3)
    (w1, _), value = max_distortion_witness(3)
    e1 = odd_element(3, w1.a[0], 1)
    e2 = odd_element(3, w1.a[0], 4)
    _, val = refine_pair(corr, (e1, e2), 50, rng=RngStream(3))
    assert val <= value + 1e-12
    assert val == pytest.approx(value, abs=1e-12)


def test_refine_pair_improves_random_interior_pairs():
    # interior pairs are almost never local maxima, so refinement should
    # strictly improve nearly every one of them
    corr = OddCircleCorrespondence(3)
    improved = 0
    trials = 100
    for t in range(trials):
        rng = RngStream(100 + t)
        xs = odd_corr.sample_in_ordered_cell_many(3, 1, 1, rng.child(0))
        zs = odd_corr.sample_in_ordered_cell_many(3, 4, 1, rng.child(1))
        e1 = odd_element(3, xs[0], 1)
        e2 = odd_element(3, zs[0], 4)
        base = pair_objective(corr, e1, e2)
        _, val = refine_pair(corr, (e1, e2), 25, rng=rng.child(2))
        if val > base + 1e-12:
            improved += 1
    assert improved > 0.9 * trials


def test_refined_elements_remain_members():
    corr = OddCircleCorrespondence(3)
    rng = RngStream(55)
    xs = odd_corr.sample_in_ordered_cell_many(3, 2, 1, rng.child(0))
    zs = odd_corr.sample_in_ordered_cell_many(3, 7, 1, rng.child(1))
    pair = (odd_element(3, xs[0], 2), odd_element(3, zs[0], 7))
    before = [col.copy() for e in pair for col in e.columns]
    (r1, r2), _ = refine_pair(corr, pair, 40, rng=rng.child(2))
    assert _in_relation(corr, ElementBatch.concat([r1, r2])).all()
    # the climb moves copies: the input rows stay as they were
    after = [col for e in pair for col in e.columns]
    assert all(np.array_equal(col, old) for col, old in zip(after, before))


def test_report_serialization_fields():
    corr = IdentityCorrespondence(2)
    report = estimate_distortion(corr, SearchBudget(samples=4096, refine_iters=5), RngStream(1))
    data = report.to_json_dict()
    assert set(data) == {
        "estimate", "estimate_over_pi", "witness",
        "samples_used", "seed", "per_stratum",
    }
    assert set(data["witness"]) == {"x", "y", "x2", "y2"}
    assert data["seed"] == 1
    text = dumps(data)
    assert text.startswith("{")


@pytest.mark.parametrize(
    "corr",
    [
        OddCircleCorrespondence(5),
        VoronoiCorrespondence(evenly_spaced_circle_set(5), cross_polytope_set(4)),
    ],
    ids=["odd", "rpq"],
)
def test_focus_batches_have_aligned_pair_rows(corr):
    batch = corr.sample_focus_pairs(4096, RngStream(21))
    rows = len(batch.strata)
    assert rows > 0 and rows % 2 == 0
    assert batch.a.shape[0] == batch.b.shape[0] == batch.side.shape[0] == rows
    half = rows // 2
    # both elements of every focus pair carry their free point on the same side
    assert np.array_equal(batch.side[:half], batch.side[half:])


@pytest.mark.parametrize("sampler, digest", [
    (lambda: OddCircleCorrespondence(3).sample_batch(5000, RngStream(0)),
     "d3b6152d18bda0e360f9de4c1ab0599b24a03e84c83a920ae7fb1093180a83ce"),
    (lambda: OddCircleCorrespondence(3).sample_focus_pairs(5000, RngStream(0)),
     "07a7de348327fa4d34696a55e672a49bf9337cbe8f5557876e3d318f4ed86a58"),
    (lambda: VoronoiCorrespondence(evenly_spaced_circle_set(5), cross_polytope_set(4)).sample_batch(5000, RngStream(0)),
     "b3b28ec1cdcc75dda8174efc85397aad4868ed3d424632b5cc00773ce55d2a49"),
    (lambda: OddCircleCorrespondence(5).sample_focus_pairs(5000, RngStream(0)),
     "9f2885eefeab5821dd99cc186c50dbf25571358c62f9f0311b45cd0bc3a07e08"),
    # rows 10 wide: row_max and row_norms take numpy's reductions
    (lambda: OddCircleCorrespondence(9).sample_focus_pairs(5000, RngStream(0)),
     "31bdd97bae819744242450fda89116803d85f1aa5e7a73df954871c07b259a17"),
    (lambda: VoronoiCorrespondence(evenly_spaced_circle_set(5), cross_polytope_set(4)).sample_focus_pairs(5000, RngStream(0)),
     "530265d1656badbc4f0fb92d1510454b59d3ece85f29a59c7ff1d1d47c026bc7"),
    (lambda: OddCircleCorrespondence(9).sample_batch(5000, RngStream(0)),
     "859bd6b133bdba323a2184b34d816d687557dd2285d35b85b1bbafa56dcac67d"),
    (lambda: even_cross(9)[0].sample_batch(5000, RngStream(0)),
     "5092c9701942ffcb37bd07e1d61c5ff3df0b08c38192a8460c04391d6f20fc0b"),
], ids=["odd3-batch", "odd3-focus", "rpq4-batch", "odd5-focus", "odd9-focus", "rpq4-focus", "odd9-batch", "rpq9-batch"])
def test_sampler_columns_are_pinned(sampler, digest):
    # every column of a phase A batch, bit for bit: a kernel that reorders a
    # reduction or drops a copy must leave these bytes alone
    batch = sampler()
    h = hashlib.sha256()
    for col in batch.columns:
        h.update(np.ascontiguousarray(col).tobytes())
    assert h.hexdigest() == digest


def sort_and_skip_picks(obj, keys, restarts):
    """Reference: the best pair of each of the top strata by a stable sort and a skip loop."""
    picks, seen = [], set()
    for idx in np.argsort(-obj, kind="stable"):
        if int(keys[idx]) not in seen:
            seen.add(int(keys[idx]))
            picks.append(idx)
            if len(picks) >= restarts:
                break
    return picks


@pytest.mark.parametrize(
    "rows, n_keys, levels, restarts",
    [
        (4096, 40, None, 8),  # continuous objectives
        (4096, 40, 5, 8),  # many exact ties, zeros among them
        (300, 3, 4, 8),  # more restarts than distinct keys
        (200, 1, 3, 4),  # a single key
        (64, 10, 1, 8),  # every objective zero
        (1, 5, None, 8),
    ],
)
def test_stratum_picks_match_sort_and_skip(rows, n_keys, levels, restarts):
    gen = np.random.default_rng(rows + n_keys)
    for _ in range(20):
        obj = gen.random(rows) if levels is None else gen.integers(0, levels, rows) / 4.0
        keys = gen.integers(0, n_keys, rows) * 3  # sparse keys, as stratum-pair keys are
        stratum_max = np.full(3 * n_keys, -1.0)
        np.maximum.at(stratum_max, keys, obj)
        picks = _stratum_picks(obj, keys, stratum_max, restarts)
        assert picks.tolist() == sort_and_skip_picks(obj, keys, restarts)


def test_correspondence_without_focus_sampler_returns_none():
    assert IdentityCorrespondence(2).sample_focus_pairs(64, RngStream(0)) is None


def test_correspondence_contract_is_labels_samplers_and_membership():
    assert Correspondence.__abstractmethods__ == {"stratum_labels", "sample_batch", "variants_many"}


@pytest.mark.parametrize("corr, metric_b", [
    (OddCircleCorrespondence(3), geometry.circle_distance_many),
    (even_cross(3)[0], geometry.geodesic_many),
], ids=["odd-circle", "rpq-sphere"])
def test_objectives_pick_each_factor_metric_from_its_column(corr, metric_b):
    # a column of angles is scored by arc length, unit-vector rows by the geodesic
    first, second = sampled_pairs(corr, 500, 4)
    want = np.abs(geometry.geodesic_many(first.a, second.a) - metric_b(first.b, second.b))
    assert _objectives(first, second).tobytes() == want.tobytes()
    assert factor_distances(first.b, second.b).tobytes() == metric_b(first.b, second.b).tobytes()


def test_stratum_labels_name_every_stratum():
    assert OddCircleCorrespondence(3).stratum_labels == tuple(f"cell-{m}" for m in range(1, 9))
    labels = tuple(f"{side}-cell-{c}" for side in "PQ" for c in range(1, 7))
    assert even_cross(2)[0].stratum_labels == labels
    assert IdentityCorrespondence(2).stratum_labels == ("all",)


CLIMB_CORRS = [
    OddCircleCorrespondence(5),
    VoronoiCorrespondence(evenly_spaced_circle_set(5), cross_polytope_set(4)),
]


def sampled_pairs(corr, count, seed):
    batch = corr.sample_batch(2 * count, RngStream(seed))
    rows = np.arange(count)
    return batch.take(rows), batch.take(count + rows)


@pytest.mark.parametrize("corr", CLIMB_CORRS, ids=["odd", "rpq"])
def test_refined_values_are_realized_and_never_below_start(corr):
    first, second = sampled_pairs(corr, 40, 12)
    start = _objectives(first, second)
    rngs = [RngStream(13).child(i) for i in range(40)]
    values = _climb_pairs(corr, first, second, 40, rngs)
    assert np.all(values >= start)
    assert np.any(values > start)
    for i in range(40):
        # the climber scores in the arithmetic of pair_objective: equal, not close
        assert values[i] == pair_objective(corr, first.take([i]), second.take([i]))
    assert _in_relation(corr, first).all() and _in_relation(corr, second).all()


@pytest.mark.parametrize("corr", CLIMB_CORRS, ids=["odd", "rpq"])
def test_refinement_rows_are_batch_independent(corr):
    first, second = sampled_pairs(corr, 24, 14)
    rngs = [RngStream(15).child(i) for i in range(24)]
    together = (first.take(np.arange(24)), second.take(np.arange(24)))
    values = _climb_pairs(corr, *together, 30, rngs)
    for i in (0, 7, 23):
        alone = (first.take([i]), second.take([i]))
        value = _climb_pairs(corr, *alone, 30, [rngs[i]])
        assert value[0] == values[i]
        for a, b in zip(alone, together):
            assert np.array_equal(a.a[0], b.a[i]) and np.array_equal(a.b[0], b.b[i])
            assert a.strata[0] == b.strata[i]


@pytest.mark.parametrize("k", [3, 5, 7])
def test_refined_odd_states_lie_in_closed_cells(k, monkeypatch):
    corr = OddCircleCorrespondence(k)
    offered = []
    variants_many = corr.variants_many

    def recording(side, frees):
        batch, owner = variants_many(side, frees)
        offered.append(batch)
        return batch, owner

    monkeypatch.setattr(corr, "variants_many", recording)
    first, second = sampled_pairs(corr, 30, 16 + k)
    _climb_pairs(corr, first, second, 30, [RngStream(17).child(i) for i in range(30)])
    # every state the climber can accept is one of these variants
    for batch in offered + [first, second]:
        mask = odd_corr._cell_mask(k, batch.a, 0.0)
        assert mask[np.arange(len(batch.strata)), batch.strata].all()
