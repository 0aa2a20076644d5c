import numpy as np
import pytest

from spherecorr import (
    RngStream,
    VoronoiCorrespondence,
    arc_augmented_set,
    cross_polytope_set,
    cross_polytope_vdiam_exact,
    evenly_spaced_circle_set,
    rpq_bound,
    separation,
    voronoi_diameter_estimate,
)
from spherecorr import verify, voronoi_corr
from spherecorr.distortion import _in_relation
from spherecorr.geometry import geodesic_many, normalize_rows, sample_uniform_many
from spherecorr.pointsets import AntipodalSet, cell_mask
from spherecorr.verify import nine_case_of, nine_case_witnesses


def even_cross(k):
    return VoronoiCorrespondence(
        evenly_spaced_circle_set(k + 1), cross_polytope_set(k)
    )


def test_library_even_cross_matches_and_rejects_k_below_2():
    corr, bound = voronoi_corr.even_cross(4)
    assert np.array_equal(corr.P.reps, even_cross(4).P.reps)
    assert bound == rpq_bound(even_cross(4), np.pi / 5, cross_polytope_vdiam_exact(4))
    with pytest.raises(ValueError):
        voronoi_corr.even_cross(1)


def test_requires_equal_sizes():
    with pytest.raises(ValueError):
        VoronoiCorrespondence(evenly_spaced_circle_set(3), cross_polytope_set(3))


def test_bound_circle_vs_cross_k2():
    corr = even_cross(2)
    bound = rpq_bound(corr, np.pi / 3, cross_polytope_vdiam_exact(2))
    assert bound == pytest.approx(2 * np.pi / 3, abs=1e-12)


def test_bound_circle_vs_cross_k4():
    corr = even_cross(4)
    bound = rpq_bound(corr, np.pi / 5, cross_polytope_vdiam_exact(4))
    assert bound == pytest.approx(4 * np.pi / 5, abs=1e-12)


def test_bound_arc_vs_cross():
    P = arc_augmented_set(2, 5)
    Q = cross_polytope_set(5)
    corr = VoronoiCorrespondence(P, Q)
    vd_p, _ = voronoi_diameter_estimate(P, 20000, 100, RngStream(1))
    bound = rpq_bound(corr, vd_p, cross_polytope_vdiam_exact(5))
    assert bound <= 5 * np.pi / 6 + 1e-12
    # here the binding term is pi - sep(P) = 3 pi / 4
    assert bound == pytest.approx(np.pi - separation(P), abs=1e-12)


def correspondents(corr, side, point):
    """Sites related to one point: of P for a point of the high sphere (side 1), of Q for the low (side 0)."""
    batch, _ = corr.variants_many(side, normalize_rows(np.array([point], dtype=float)))
    return batch.a if side == 1 else batch.b


@pytest.mark.parametrize("side", [-1, 2])
def test_variants_reject_an_unknown_side(side):
    with pytest.raises(ValueError, match="side must be 0"):
        even_cross(2).variants_many(side, np.array([[1.0, 0.0, 0.0]]))


def test_correspondents_at_site():
    corr = even_cross(2)
    got = correspondents(corr, 1, [1, 0, 0])
    assert len(got) == 1
    assert np.array_equal(got[0], corr.P.points()[0])


def test_correspondents_at_symmetric_corner():
    corr = even_cross(2)
    got = correspondents(corr, 1, [1, 1, 1])
    assert len(got) == 3


def test_correspondents_low_side():
    corr = even_cross(2)
    got = correspondents(corr, 0, [1, 0])
    assert len(got) >= 1
    assert np.array_equal(got[0], corr.Q.points()[0])
    # a boundary angle between the first two cells has two correspondents
    theta = np.pi / 6  # halfway between sites at 0 and pi/3 (m = 3 reps)
    got = correspondents(corr, 0, [np.cos(theta), np.sin(theta)])
    assert len(got) == 2


def test_correspondents_validations():
    # a point of the wrong sphere matches no site
    corr = even_cross(2)
    with pytest.raises(ValueError):
        correspondents(corr, 0, [1, 0, 0])
    with pytest.raises(ValueError):
        correspondents(corr, 1, [1, 0])


def test_sample_batch_membership_and_reproducibility():
    corr = even_cross(2)
    batch = corr.sample_batch(100, RngStream(7))
    assert set(batch.side.tolist()) == {0, 1}
    assert _in_relation(corr, batch).all()
    again = corr.sample_batch(100, RngStream(7))
    for col, col2 in zip(batch.columns, again.columns):
        assert np.array_equal(col, col2)


@pytest.mark.parametrize("k, count", [(2, 1), (2, 7), (4, 1000), (9, 301)])
def test_sample_batch_is_the_shuffled_elements_of_both_sides(k, count):
    corr, rng = even_cross(k), RngStream(8)
    n_low = count // 2
    xs = sample_uniform_many(corr.P.dim, n_low, rng.child(0))
    ys = sample_uniform_many(corr.Q.dim, count - n_low, rng.child(1))
    low = corr._elements(0, xs, corr.P.nearest_site_many(xs))
    high = corr._elements(1, ys, corr.Q.nearest_site_many(ys))
    perm = rng.child(2).generator().permutation(count)
    for col, lo, hi in zip(corr.sample_batch(count, rng).columns, low, high):
        want = np.concatenate([lo, hi])[perm]
        assert col.dtype == want.dtype and col.tobytes() == want.tobytes()


def test_sampler_hits_every_stratum():
    # coupon-collector check: all 12 strata (6 cells x 2 directions) appear
    corr = even_cross(2)
    batch = corr.sample_batch(100_000, RngStream(3))
    assert set(int(s) for s in np.unique(batch.strata)) == set(range(12))


def test_relation_is_antipode_equivariant():
    # the correspondents of -y are the negated correspondents of y, row by row
    corr = even_cross(2)
    ys = sample_uniform_many(2, 100, RngStream(4))
    ups, up_owner = corr.variants_many(1, ys)
    downs, down_owner = corr.variants_many(1, -ys)
    assert {(i, tuple(np.round(a, 9))) for i, a in zip(up_owner, ups.a)} == {
        (i, tuple(np.round(-a, 9))) for i, a in zip(down_owner, downs.a)
    }


def test_nine_cases_satisfy_their_bounds():
    for k in (2, 3, 4, 5, 6):
        rows = nine_case_witnesses(k, 20000, RngStream(20).child(k))
        assert {case for case, _, _ in rows} == {f"case-{i}" for i in range(1, 10)}
        for case, objective, bound in rows:
            assert objective <= bound + 1e-9, (k, case)


def site_element(corr, side, cell):
    """The one relation element over site ``cell`` of the sphere that carries ``side``'s free point."""
    aset = corr.P if side == 0 else corr.Q
    batch, _ = corr.variants_many(side, aset.points()[[cell]])
    assert batch.strata.tolist() == [2 * aset.m * side + cell]
    return batch


@pytest.mark.parametrize("first_cell", [0, 5])
def test_nine_case_table_labels_one_pair_per_case(first_cell):
    corr = even_cross(3)
    m = corr.P.m
    # (side of the first free point, side of the second) -> case numbers of a
    # second cell that is the same, the antipodal, or another cell
    table = {(1, 1): (1, 2, 3), (0, 1): (4, 5, 6), (1, 0): (4, 5, 6), (0, 0): (9, 8, 7)}
    same, antipodal = first_cell, (first_cell + m) % (2 * m)
    others = [(first_cell + d) % (2 * m) for d in (1, 2, 2 * m - 1)]
    for (s1, s2), (c_same, c_antipodal, c_other) in table.items():
        for cell, case in [(same, c_same), (antipodal, c_antipodal)] + [(c, c_other) for c in others]:
            first, second = site_element(corr, s1, first_cell), site_element(corr, s2, cell)
            assert nine_case_of(corr, first, second).tolist() == [case - 1], (s1, s2, cell)


@pytest.mark.parametrize("k, samples", [(k, 20000) for k in range(2, 7)] + [(3, 0), (30, 20000), (30, 200000)])
def test_every_nine_case_holds_its_pair_count(monkeypatch, k, samples):
    drawn = []

    def recording(corr, first, second):
        drawn.append(nine_case_of(corr, first, second))
        return drawn[-1]

    monkeypatch.setattr(verify, "nine_case_of", recording)
    rows = nine_case_witnesses(k, samples, RngStream(21).child(k))
    assert np.bincount(np.concatenate(drawn), minlength=9).min() >= max(8, samples // 2000)
    assert [case for case, _, _ in rows] == [f"case-{i}" for i in range(1, 10)]
    for case, objective, bound in rows:
        assert 0 < objective <= bound + 1e-9, (k, case)


def test_focus_pairs_are_valid_relation_elements():
    corr = even_cross(3)
    batch = corr.sample_focus_pairs(64, RngStream(6))
    assert len(batch.strata) > 0
    assert _in_relation(corr, batch).all()


def sorted_cell_focus_pairs(corr, count, rng):
    """Reference: the focus pairs with each tie point's containing cells read
    off a stable argsort of its cell mask."""
    per_side = max(1, count // 8)
    left, right = [], []
    for side, aset in ((1, corr.Q), (0, corr.P)):
        ys = sample_uniform_many(aset.dim, per_side, rng.child(side))
        ties = VoronoiCorrespondence._tie_points_many(aset, ys)
        hit = cell_mask(aset, ties)
        cells = np.argsort(~hit, axis=1, kind="stable")
        rows = np.repeat(np.arange(per_side), np.clip(hit.sum(axis=1) - 1, 0, 2))
        second = 1 + np.arange(rows.size) - np.searchsorted(rows, rows)
        left.append(corr._elements(side, ties[rows], cells[rows, 0]))
        right.append(corr._elements(side, ties[rows], cells[rows, second]))
    return [np.concatenate(col) for col in zip(*(left + right))]


@pytest.mark.parametrize("k", [2, 4, 9])
def test_focus_pairs_match_the_sorted_cell_reference(k):
    corr = even_cross(k)
    got = corr.sample_focus_pairs(4096, RngStream(10).child(k)).columns
    for col, want in zip(got, sorted_cell_focus_pairs(corr, 4096, RngStream(10).child(k))):
        assert col.dtype == want.dtype and col.tobytes() == want.tobytes()


def bisection_ties(aset, ys):
    """Reference: 50 bisection steps along the chord toward the second-nearest site."""
    sites = aset.points()
    order = np.argsort(-(ys @ sites.T), axis=1, kind="stable")
    s1, s2 = sites[order[:, 0]], sites[order[:, 1]]
    lo = np.zeros(len(ys))
    hi = np.where(np.sum(ys * s2, axis=1) > -1.0 + 1e-12, 1.0, 0.0)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        pts = normalize_rows((1 - mid)[:, None] * ys + mid[:, None] * s2)
        nearer = np.sum(pts * s1, axis=1) > np.sum(pts * s2, axis=1)
        lo, hi = np.where(nearer, mid, lo), np.where(nearer, hi, mid)
    return normalize_rows((1 - hi)[:, None] * ys + hi[:, None] * s2)


@pytest.mark.parametrize(
    "aset",
    [evenly_spaced_circle_set(5), cross_polytope_set(4), arc_augmented_set(2, 6)],
    ids=["circle", "cross", "arc"],
)
def test_tie_points_tie_the_two_nearest_sites(aset):
    sites = aset.points()
    ys = np.vstack([sample_uniform_many(aset.dim, 2000, RngStream(31)), sites])
    ties = VoronoiCorrespondence._tie_points_many(aset, ys)
    order = np.argsort(-(ys @ sites.T), axis=1, kind="stable")
    c1, c2 = order[:, 0], order[:, 1]
    rows = np.arange(len(ys))
    assert np.all(np.abs(np.sum(ties * sites[c1], axis=1) - np.sum(ties * sites[c2], axis=1)) <= 1e-14)
    hit = cell_mask(aset, ties)
    assert hit[rows, c1].all() and hit[rows, c2].all()
    # on the arc from y to s2: the two legs add up to the whole arc
    legs = geodesic_many(ys, ties) + geodesic_many(ties, sites[c2])
    assert np.max(np.abs(legs - geodesic_many(ys, sites[c2]))) <= 1e-12
    assert np.max(np.abs(ties - bisection_ties(aset, ys))) <= 1e-14


def test_tie_points_stay_put_when_the_second_site_is_antipodal():
    aset = AntipodalSet([[1.0, 0.0, 0.0]])
    ys = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 1e-7, 0.0]])
    ties = VoronoiCorrespondence._tie_points_many(aset, ys)
    assert np.array_equal(ties, normalize_rows(ys))
    assert np.array_equal(ties, bisection_ties(aset, ys))


def test_even_cross_estimates_reach_collapse_bound():
    # refinement drives the estimate into the window below k pi/(k+1)
    from spherecorr import SearchBudget, estimate_distortion

    for k in range(2, 9):
        corr = even_cross(k)
        target = k * np.pi / (k + 1)
        rep = estimate_distortion(
            corr, SearchBudget(samples=65536, refine_iters=60), RngStream(30).child(k)
        )
        assert target - 0.02 <= rep.estimate <= target + 1e-6


def test_mixed_construction_correspondence():
    # equal-size pairing of an arc-augmented set with a cross-polytope
    P = arc_augmented_set(2, 5)
    Q = cross_polytope_set(5)
    corr = VoronoiCorrespondence(P, Q)
    batch = corr.sample_batch(2000, RngStream(8))
    assert batch.a.shape == (2000, 3)
    assert batch.b.shape == (2000, 6)
    assert _in_relation(corr, batch).all()
