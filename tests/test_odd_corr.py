import numpy as np
import pytest

from spherecorr import (
    CircleInterval,
    OddCircleCorrespondence,
    OrderedCellId,
    RngStream,
    UnitVector,
    case_reduction_pairs,
    cell_angle,
    circle_correspondents,
    circle_distance,
    cyclic_shift,
    geodesic_distance,
    max_distortion_witness,
    ordered_cells_of,
)
from spherecorr import odd_corr
from spherecorr.distortion import ElementBatch, _objectives
from spherecorr.geometry import sample_uniform_many

PI24 = np.pi / 24

CORNER = UnitVector([0.5, -0.5, 0.5, 0.5])


def angles_close(got, expected, tol=1e-12):
    got = sorted(a.theta if hasattr(a, "theta") else a for a in got)
    expected = sorted(t % (2 * np.pi) for t in expected)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert circle_distance(g, e) <= tol


# -- cell identification ----------------------------------------------------

def test_cell_sign_sequence_k3():
    signs = [odd_corr.cell_sign(3, m) for m in range(1, 9)]
    assert signs == [1, -1, 1, -1, -1, 1, -1, 1]


def test_ordered_cells_of_corner():
    assert ordered_cells_of(3, CORNER) == [1, 2, 3, 8]
    assert ordered_cells_of(3, CORNER.antipode()) == [4, 5, 6, 7]
    assert ordered_cells_of(3, UnitVector([1, 0, 0, 0])) == [1]


def test_ordered_cells_rejects_bad_k():
    with pytest.raises(ValueError):
        ordered_cells_of(4, UnitVector([1, 0, 0, 0, 0]))
    with pytest.raises(ValueError):
        ordered_cells_of(3, UnitVector([1, 0, 0]))


def test_ordered_cell_id_decoding():
    cell = OrderedCellId(8, 3)
    assert cell.axis == 3 and cell.sign == 1
    cell = OrderedCellId(4, 3)
    assert cell.axis == 3 and cell.sign == -1
    with pytest.raises(ValueError):
        OrderedCellId(9, 3)
    with pytest.raises(ValueError):
        OrderedCellId(1, 4)


def test_cells_match_voronoi_translation():
    # ordered cells agree with the plain Voronoi query under index translation
    from spherecorr import cross_polytope_set, voronoi_cells_of

    cp = cross_polytope_set(3)
    for row in sample_uniform_many(3, 200, RngStream(2)):
        x = UnitVector(row)
        ordered = set(ordered_cells_of(3, x))
        translated = set()
        for c in voronoi_cells_of(cp, x):
            translated.add(odd_corr.cell_from_axis_sign(3, c.rep_index - 1, c.sign))
        assert ordered == translated


# -- the cell-to-angle maps -------------------------------------------------

def test_corner_angles_match_worked_example():
    assert cell_angle(3, 1, CORNER).theta == pytest.approx((-PI24) % (2 * np.pi), abs=1e-12)
    assert cell_angle(3, 2, CORNER).theta == pytest.approx(7 * PI24, abs=1e-12)
    assert cell_angle(3, 3, CORNER).theta == pytest.approx(11 * PI24, abs=1e-12)
    assert cell_angle(3, 8, CORNER).theta == pytest.approx(43 * PI24, abs=1e-12)
    anti = CORNER.antipode()
    assert cell_angle(3, 4, anti).theta == pytest.approx(19 * PI24, abs=1e-12)
    assert cell_angle(3, 5, anti).theta == pytest.approx(23 * PI24, abs=1e-12)
    assert cell_angle(3, 6, anti).theta == pytest.approx(31 * PI24, abs=1e-12)
    assert cell_angle(3, 7, anti).theta == pytest.approx(35 * PI24, abs=1e-12)


def test_cell_angle_membership_error_names_cell():
    with pytest.raises(ValueError, match="cell 4"):
        cell_angle(3, 4, CORNER)


def test_correspondents_of_corner():
    angles_close(
        circle_correspondents(3, CORNER),
        [-PI24, 7 * PI24, 11 * PI24, 43 * PI24],
    )
    angles_close(
        circle_correspondents(3, CORNER.antipode()),
        [19 * PI24, 23 * PI24, 31 * PI24, 35 * PI24],
    )


def test_site_maps_to_interval_center():
    angles_close(circle_correspondents(3, UnitVector([1, 0, 0, 0])), [0.0])


def test_curve_corner_gives_six_equally_spaced():
    x = UnitVector([0.5, 0.5, 0.5, 0.5])
    both = [a.theta for a in circle_correspondents(3, x)]
    both += [a.theta for a in circle_correspondents(3, x.antipode())]
    distinct = sorted({round(t % (2 * np.pi), 9) for t in both})
    assert len(distinct) == 6
    gaps = np.diff(distinct + [distinct[0] + 2 * np.pi])
    assert np.allclose(gaps, np.pi / 3, atol=1e-9)


def test_angles_confined_to_intervals():
    for k in (3, 5):
        xs = sample_uniform_many(k, 3000, RngStream(4).child(k))
        ms = odd_corr.principal_cells_many(k, xs)
        angles = odd_corr.cell_angles_many(k, xs, ms)
        for m in range(1, 2 * k + 3):
            rows = np.flatnonzero(ms == m)
            interval = CircleInterval.of_cell(k, m)
            assert interval.width == pytest.approx(np.pi / (k + 1), abs=1e-15)
            for t in angles[rows]:
                assert interval.contains(t)


def test_intervals_tile_circle():
    k = 5
    total = sum(CircleInterval.of_cell(k, m).width for m in range(1, 2 * k + 3))
    assert total == pytest.approx(2 * np.pi, abs=1e-12)
    uppers = [CircleInterval.of_cell(k, m).hi for m in range(1, 2 * k + 2)]
    lowers = [CircleInterval.of_cell(k, m + 1).lo for m in range(1, 2 * k + 2)]
    assert np.allclose(uppers, lowers, atol=1e-15)


# -- symmetries --------------------------------------------------------------

def test_cyclic_shift_basics():
    e1 = UnitVector([1, 0, 0, 0])
    assert np.allclose(cyclic_shift(3, 1, e1).coords, [0, -1, 0, 0], atol=0)
    for row in sample_uniform_many(3, 20, RngStream(5)):
        x = UnitVector(row)
        assert np.allclose(cyclic_shift(3, 4, x).coords, -x.coords, atol=0)
        assert np.allclose(cyclic_shift(3, 8, x).coords, x.coords, atol=0)


def test_cyclic_shift_is_isometry_and_advances_cells():
    for row in sample_uniform_many(3, 50, RngStream(6)):
        x = UnitVector(row)
        m = ordered_cells_of(3, x)[0]
        shifted = cyclic_shift(3, 1, x)
        assert ordered_cells_of(3, shifted)[0] == m % 8 + 1
    a = UnitVector(sample_uniform_many(3, 1, RngStream(7))[0])
    b = UnitVector(sample_uniform_many(3, 1, RngStream(8))[0])
    assert geodesic_distance(cyclic_shift(3, 1, a), cyclic_shift(3, 1, b)) == pytest.approx(
        geodesic_distance(a, b), abs=1e-15
    )


def test_cyclic_shift_angle_relation():
    # angle(m+n, A_n x) == angle(m, x) + n pi/(k+1) (mod 2 pi)
    for k in (3, 5):
        xs = sample_uniform_many(k, 500, RngStream(9).child(k))
        for row in xs[:100]:
            x = UnitVector(row)
            m = ordered_cells_of(k, x)[0]
            base = cell_angle(k, m, x).theta
            y = x
            for n in range(1, 2 * k + 3):
                y = cyclic_shift(k, 1, y)
                m_new = (m + n - 1) % (2 * k + 2) + 1
                lhs = cell_angle(k, m_new, y).theta
                assert circle_distance(lhs, base + n * np.pi / (k + 1)) <= 1e-12


def test_antipodal_angle_relation():
    for k in (3, 5, 7):
        xs = sample_uniform_many(k, 300, RngStream(10).child(k))
        ms = odd_corr.principal_cells_many(k, xs)
        lhs = odd_corr.cell_angles_many(k, -xs, (ms + k) % (2 * k + 2) + 1)
        rhs = odd_corr.cell_angles_many(k, xs, ms) + np.pi
        assert np.max(np.abs(np.minimum(np.abs(np.mod(lhs - rhs, 2 * np.pi)),
                                        2 * np.pi - np.abs(np.mod(lhs - rhs, 2 * np.pi))))) <= 1e-12


def test_cell_maps_strictly_contract():
    from spherecorr.verify import sample_same_cell_pairs

    for k in (3, 5):
        xs2, ys2, ms2 = sample_same_cell_pairs(k, 2000, RngStream(11).child(k, 1))
        d_sphere = np.arccos(np.clip(np.einsum("ij,ij->i", xs2, ys2), -1, 1))
        d_circle = np.abs(
            odd_corr.cell_angles_many(k, xs2, ms2) - odd_corr.cell_angles_many(k, ys2, ms2)
        )
        d_circle = np.minimum(d_circle, 2 * np.pi - d_circle)
        ok = (d_circle < d_sphere) | (d_sphere <= 1e-12)
        assert np.all(ok)


def pair_objectives(k, ms, xs, ns, zs):
    """Engine objectives |d_circle - d_sphere| of the pairs ((xs[i], cell ms[i]), (zs[i], cell ns[i]))."""

    def elements(cells, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        cells = np.broadcast_to(cells, (len(pts),))
        for m, p in zip(cells, pts):
            assert m in ordered_cells_of(k, UnitVector(p))
        angles = odd_corr.cell_angles_many(k, pts, cells)
        return ElementBatch(a=pts, b=angles, side=np.zeros(len(pts), dtype=int), strata=cells - 1)

    return _objectives(OddCircleCorrespondence(k), elements(ms, xs), elements(ns, zs))


def test_pair_objective_values():
    # boundary pair between the first and last ordered cells attains 2 pi/3
    x = UnitVector([1, 0, 0, -1]).coords
    assert pair_objectives(3, 1, x, 4, x)[0] == pytest.approx(2 * np.pi / 3, abs=1e-12)
    # identical pair in one cell: zero
    y = UnitVector([0.9, 0.1, 0.2, 0.1]).coords
    m = ordered_cells_of(3, UnitVector(y))[0]
    assert pair_objectives(3, m, y, m, y)[0] == 0.0
    # antipodal pair across opposite cells: both distances are pi
    assert pair_objectives(3, 1, y, 5, -y)[0] == pytest.approx(0.0, abs=1e-12)


def test_symmetry_reduction_identities():
    # shifting both arguments back to the first cell preserves the objective
    k, count = 3, 20
    gen = RngStream(12)
    i = gen.child(0).generator().integers(1, 2 * k + 3, size=count)
    j = gen.child(1).generator().integers(1, 2 * k + 3, size=count)
    xs = odd_corr.sample_in_ordered_cell_many(k, i, count, gen.child(2))
    zs = odd_corr.sample_in_ordered_cell_many(k, j, count, gen.child(3))
    back = 2 * k + 2 - (i - 1)
    x0 = np.array([cyclic_shift(k, int(b), UnitVector(x)).coords for b, x in zip(back, xs)])
    z0 = np.array([cyclic_shift(k, int(b), UnitVector(z)).coords for b, z in zip(back, zs)])
    j0 = (j - i) % (2 * k + 2) + 1
    d1 = pair_objectives(k, i, xs, j, zs)
    assert np.allclose(pair_objectives(k, 1, x0, j0, z0), d1, rtol=0, atol=1e-12)


def test_antipodal_reduction_identity():
    # the objective of (1, j) pairs matches (j, k+2) pairs on negated points
    k, count = 3, 20
    gen = RngStream(13)
    j = gen.child(0).generator().integers(1, 2 * k + 3, size=count)
    xs = odd_corr.sample_in_ordered_cell_many(k, 1, count, gen.child(1))
    zs = odd_corr.sample_in_ordered_cell_many(k, j, count, gen.child(2))
    d1 = pair_objectives(k, 1, xs, j, zs)
    d2 = pair_objectives(k, j, zs, k + 2, -xs)
    assert np.allclose(d2, d1, rtol=0, atol=1e-12)


def test_ordered_cell_sampler_takes_per_row_cells():
    k = 5
    ms = np.arange(1, 2 * k + 3)
    xs = odd_corr.sample_in_ordered_cell_many(k, ms, len(ms), RngStream(21))
    assert np.array_equal(odd_corr.principal_cells_many(k, xs), ms)
    # one cell for every row is the broadcast case of the same draw
    one = odd_corr.sample_in_ordered_cell_many(k, 3, len(ms), RngStream(21))
    assert np.array_equal(one, odd_corr.sample_in_ordered_cell_many(k, np.full(len(ms), 3), len(ms), RngStream(21)))
    for bad in (0, 2 * k + 3):
        with pytest.raises(ValueError):
            odd_corr.sample_in_ordered_cell_many(k, bad, 4, RngStream(0))


# -- witnesses and search support --------------------------------------------

def test_max_distortion_witness_values():
    for k in (3, 5, 7):
        (e1, e2), value = max_distortion_witness(k)
        assert value == pytest.approx((k - 1) * np.pi / k, abs=1e-12)
        assert e1[0] is e2[0]
        expected = np.zeros(k + 1)
        expected[0], expected[-1] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        assert np.allclose(e1[0].coords, expected, atol=1e-15)


def test_case_reduction_pairs():
    assert case_reduction_pairs(3) == [(1, 3), (1, 4)]
    assert case_reduction_pairs(5) == [(1, 5), (1, 6)]
    assert case_reduction_pairs(7) == [(1, 7), (1, 8)]
    with pytest.raises(ValueError):
        case_reduction_pairs(4)


def test_boundary_sample_membership():
    k = 3
    for (m1, m2) in ((1, 4), (1, 2), (3, 8)):
        xs = odd_corr.sample_cell_boundary_many(k, m1, m2, 50, RngStream(14).child(m1, m2))
        for x in xs:
            cells = ordered_cells_of(k, UnitVector(x))
            assert m1 in cells and m2 in cells


def test_boundary_sample_tied_coordinates():
    xs = odd_corr.sample_cell_boundary_many(3, 1, 4, 50, RngStream(15))
    assert np.allclose(xs[:, 0], -xs[:, 3], rtol=0, atol=1e-15)
    assert np.allclose(np.abs(xs[:, 0]), np.max(np.abs(xs), axis=1), rtol=0, atol=1e-15)
    ys = odd_corr.sample_cell_boundary_many(3, 1, 2, 50, RngStream(16))
    assert np.allclose(ys[:, 0], -ys[:, 1], rtol=0, atol=1e-15)


def test_boundary_sample_incompatible_cells():
    with pytest.raises(ValueError):
        odd_corr.sample_cell_boundary_many(3, 1, 5, 1, RngStream(0))  # antipodal cells: empty tie set
    with pytest.raises(ValueError):
        odd_corr.sample_cell_boundary_many(3, 2, 2, 1, RngStream(0))


def test_boundary_sample_bulk_membership_rate():
    k = 5
    xs = odd_corr.sample_cell_boundary_many(k, 1, k + 1, 10_000, RngStream(17))
    ms = np.full(len(xs), 1)
    ang = odd_corr.cell_angles_many(k, xs, ms)  # raises nothing: membership exact
    axes, _ = odd_corr._cell_tables(k)
    top = np.max(np.abs(xs), axis=1)
    assert np.all(xs[:, 0] >= top - 1e-9)
    assert np.all(-xs[:, k] >= top - 1e-9)
    assert ang.shape == (10_000,)


def test_boundary_witness_identity_on_samples():
    # every point tied between the first and last cells realizes (k-1)pi/k
    for k in (3, 5, 7):
        xs = odd_corr.sample_cell_boundary_many(k, 1, k + 1, 200, RngStream(18).child(k))
        a1 = odd_corr.cell_angles_many(k, xs, np.full(len(xs), 1))
        a2 = odd_corr.cell_angles_many(k, xs, np.full(len(xs), k + 1))
        gaps = np.abs(a2 - a1)
        gaps = np.minimum(gaps, 2 * np.pi - gaps)
        assert np.allclose(gaps, (k - 1) * np.pi / k, atol=1e-12)


def test_focus_pairs_are_valid_relation_elements():
    for k in (3, 5):
        corr = OddCircleCorrespondence(k)
        batch = corr.sample_focus_pairs(256, RngStream(19).child(k))
        rows = len(batch.strata)
        assert rows > 0
        for i in range(rows):
            assert corr.element_valid(batch.element(i)), (k, i)


def test_variants_just_outside_a_cell_lie_in_the_closed_cell():
    # 1e-10 outside ordered cell 1 of S^5 (x_3 beats x_1), inside the membership slack
    k = 5
    x = np.array([0.5, 0.1, 0.5 + 1e-10, -0.2, 0.3, 0.1])
    x /= np.linalg.norm(x)
    corr = OddCircleCorrespondence(k)
    variants = corr.variants_of_free(0, x)
    assert sorted(v.stratum + 1 for v in variants) == [1, 3]
    for v in variants:
        assert v.stratum + 1 in odd_corr._cells_of_coords(k, v.a, 0.0)
        assert np.array_equal(v.free, v.a)
        assert np.linalg.norm(v.a) == pytest.approx(1.0, abs=1e-15)
        assert corr.element_valid(v)
    moved = next(v for v in variants if v.stratum == 0)
    assert 0 < np.max(np.abs(moved.a - x)) < 1e-9
