import numpy as np
import pytest

from spherecorr import (
    CircleInterval,
    OddCircleCorrespondence,
    RngStream,
    UnitVector,
    case_reduction_pairs,
    cyclic_shift,
    max_distortion_witness,
)
from spherecorr import odd_corr
from spherecorr.distortion import ElementBatch, _in_relation, _objectives
from spherecorr.geometry import circle_distance_many, geodesic_many, sample_uniform_many
from spherecorr.parallel import SHARD_SIZE
from spherecorr.pointsets import cell_mask, cross_polytope_set

PI24 = np.pi / 24

CORNER = UnitVector([0.5, -0.5, 0.5, 0.5]).coords


def cells_of(k, xs):
    """(rows, 2k+2) mask of the ordered cells containing each row, within the membership slack."""
    return odd_corr._cell_mask(k, np.asarray(xs, dtype=float), odd_corr.CELL_TOL)


def ordered_cells(k, x):
    """1-based ordered cells of one point, in order."""
    return (np.flatnonzero(cells_of(k, x)) + 1).tolist()


def correspondents(k, x):
    """Circle angles related to one point, one per containing ordered cell."""
    batch, _ = OddCircleCorrespondence(k).variants_many(0, np.atleast_2d(x))
    return batch.b


def angles_close(got, expected, tol=1e-12):
    got = np.sort(got)
    expected = np.sort(np.mod(expected, 2 * np.pi))
    assert len(got) == len(expected)
    assert np.max(circle_distance_many(got, expected)) <= tol


# -- cell identification ----------------------------------------------------

def test_cell_sign_sequence_k3():
    _, signs, _ = odd_corr._cell_tables(3)
    assert signs.tolist() == [1, -1, 1, -1, -1, 1, -1, 1]


def test_ordered_cells_of_corner():
    assert ordered_cells(3, CORNER) == [1, 2, 3, 8]
    assert ordered_cells(3, -CORNER) == [4, 5, 6, 7]
    assert ordered_cells(3, [1, 0, 0, 0]) == [1]


def test_ordered_cells_rejects_bad_k():
    with pytest.raises(ValueError):
        OddCircleCorrespondence(4)
    for coords in ([1.0, 0, 0], [1.0, 0, 0, 0, 0, 0]):
        with pytest.raises(ValueError):
            correspondents(3, coords)


def test_ordered_cell_id_decoding():
    axes, signs, cells = odd_corr._cell_tables(3)
    assert (axes[7], signs[7]) == (3, 1)
    assert (axes[3], signs[3]) == (3, -1)
    # principal_cells_many inverts the table: the signed basis vector of cell m lies in m
    for k in (3, 5, 7):
        axes, signs, cells = odd_corr._cell_tables(k)
        ms = np.arange(1, 2 * k + 3)
        assert np.array_equal(cells[axes, (signs > 0).astype(int)], ms)
        assert np.array_equal(odd_corr.principal_cells_many(k, signs[:, None] * np.eye(k + 1)[axes]), ms)


def test_cells_match_voronoi_translation():
    # ordered cells agree with the plain Voronoi query under index translation:
    # Voronoi column i is the cell of site i, which lies in ordered cell principal(site i)
    cp = cross_polytope_set(3)
    xs = sample_uniform_many(3, 200, RngStream(2))
    translated = np.zeros((len(xs), 8), dtype=bool)
    translated[:, odd_corr.principal_cells_many(3, cp.points()) - 1] = cell_mask(cp, xs)
    assert np.array_equal(cells_of(3, xs), translated)


# -- the cell-to-angle maps -------------------------------------------------

def test_corner_angles_match_worked_example():
    angles = odd_corr.cell_angles_many(3, np.array([CORNER] * 4), np.array([1, 2, 3, 8]))
    assert np.allclose(angles, np.array([-1, 7, 11, 43]) * PI24 % (2 * np.pi), rtol=0, atol=1e-12)
    anti = odd_corr.cell_angles_many(3, np.array([-CORNER] * 4), np.array([4, 5, 6, 7]))
    assert np.allclose(anti, np.array([19, 23, 31, 35]) * PI24, rtol=0, atol=1e-12)


@pytest.mark.parametrize("cell", [0, -1, 9, 100])
def test_cell_angles_reject_a_cell_out_of_range(cell):
    # cell 0 once read the last column and gave this row the angle 5.37
    with pytest.raises(ValueError, match="out of range"):
        odd_corr.cell_angles_many(3, np.array([CORNER, CORNER]), np.array([1, cell]))


@pytest.mark.parametrize("k", [2, 4, 1])
def test_cell_angles_reject_a_k_without_ordered_cells(k):
    with pytest.raises(ValueError, match="odd k >= 3"):
        odd_corr.cell_angles_many(k, np.ones((1, k + 1)) / np.sqrt(k + 1), np.array([1]))


@pytest.mark.parametrize("width", [3, 5])
def test_cell_angles_reject_rows_of_the_wrong_width(width):
    with pytest.raises(ValueError, match="expected S\\^3"):
        odd_corr.cell_angles_many(3, np.ones((2, width)) / np.sqrt(width), np.array([1, 2]))


def test_correspondents_of_corner():
    angles_close(
        correspondents(3, CORNER),
        [-PI24, 7 * PI24, 11 * PI24, 43 * PI24],
    )
    angles_close(
        correspondents(3, -CORNER),
        [19 * PI24, 23 * PI24, 31 * PI24, 35 * PI24],
    )


def test_site_maps_to_interval_center():
    angles_close(correspondents(3, [1.0, 0, 0, 0]), [0.0])


def test_curve_corner_gives_six_equally_spaced():
    x = UnitVector([0.5, 0.5, 0.5, 0.5]).coords
    both = np.concatenate([correspondents(3, x), correspondents(3, -x)])
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
            # offset past the interval's start, measured the short way round at its start
            delta = np.mod(angles[rows] - interval.lo, 2 * np.pi)
            assert np.all((delta <= interval.width + 1e-9) | (delta >= 2 * np.pi - 1e-9))


def negated_copy_angles(k, xs, ms):
    """Reference: the cell map through an explicit -x copy for second-half cells and np.cumsum."""
    second_half = ms > k + 1
    m1 = np.where(second_half, ms - (k + 1), ms)
    base = np.where(second_half[:, None], -xs, xs)
    rows, axis = np.arange(xs.shape[0]), m1 - 1
    csum = np.cumsum(base, axis=1)
    xm = base[rows, axis]
    prefix = np.where(axis > 0, csum[rows, np.maximum(axis - 1, 0)], 0.0)
    signed_sum = 2.0 * prefix + xm - csum[:, -1]
    angles = (m1 - 1) * np.pi / (k + 1) + np.pi / (2.0 * k * (k + 1)) * signed_sum / xm
    return np.mod(angles + np.where(second_half, np.pi, 0.0), 2 * np.pi)


@pytest.mark.parametrize("k", [3, 5, 9])
def test_cell_angles_match_the_negated_copy_bitwise(k):
    # every cell of both halves, on rows with zero coordinates of either sign among them
    gen = np.random.default_rng(k)
    xs = sample_uniform_many(k, 4000, RngStream(8).child(k))
    xs[gen.random(xs.shape) < 0.2] = 0.0
    xs[gen.random(xs.shape) < 0.1] = -0.0
    xs[::7] = np.round(xs[::7], 1)  # exact cancellations in the signed sums
    for m in range(1, 2 * k + 3):
        rows = xs[xs[:, odd_corr.cell_axis(k, m)] != 0.0]
        ms = np.full(len(rows), m)
        got = odd_corr.cell_angles_many(k, rows, ms)
        assert got.tobytes() == negated_copy_angles(k, rows, ms).tobytes(), m
    xs = xs[np.any(xs != 0.0, axis=1)]
    ms = odd_corr.principal_cells_many(k, xs)
    assert odd_corr.cell_angles_many(k, xs, ms).tobytes() == negated_copy_angles(k, xs, ms).tobytes()


def test_intervals_tile_circle():
    k = 5
    total = sum(CircleInterval.of_cell(k, m).width for m in range(1, 2 * k + 3))
    assert total == pytest.approx(2 * np.pi, abs=1e-12)
    uppers = [CircleInterval.of_cell(k, m).hi for m in range(1, 2 * k + 2)]
    lowers = [CircleInterval.of_cell(k, m + 1).lo for m in range(1, 2 * k + 2)]
    assert np.allclose(uppers, lowers, atol=1e-15)


# -- symmetries --------------------------------------------------------------

def test_cyclic_shift_basics():
    assert np.array_equal(cyclic_shift(3, 1, [1.0, 0, 0, 0]), [0, -1, 0, 0])
    xs = sample_uniform_many(3, 20, RngStream(5))
    assert np.array_equal(cyclic_shift(3, 4, xs), -xs)
    assert np.array_equal(cyclic_shift(3, 8, xs), xs)
    # one count per row is each row shifted alone, and n applications of one step
    ns = np.arange(20) % 9
    one = xs.copy()
    for n in range(9):
        assert np.array_equal(cyclic_shift(3, ns, xs)[ns == n], one[ns == n])
        one = cyclic_shift(3, 1, one)
    with pytest.raises(ValueError):
        cyclic_shift(3, -1, xs)
    with pytest.raises(ValueError):
        cyclic_shift(3, 1, xs[:, :3])


def test_cyclic_shift_is_isometry_and_advances_cells():
    xs = sample_uniform_many(3, 50, RngStream(6))
    ms = odd_corr.principal_cells_many(3, xs)
    assert np.array_equal(odd_corr.principal_cells_many(3, cyclic_shift(3, 1, xs)), ms % 8 + 1)
    a = sample_uniform_many(3, 1, RngStream(7))
    b = sample_uniform_many(3, 1, RngStream(8))
    assert geodesic_many(cyclic_shift(3, 1, a), cyclic_shift(3, 1, b)) == pytest.approx(
        geodesic_many(a, b), abs=1e-15
    )


def test_cyclic_shift_angle_relation():
    # angle(m+n, A_n x) == angle(m, x) + n pi/(k+1) (mod 2 pi)
    for k in (3, 5):
        xs = sample_uniform_many(k, 500, RngStream(9).child(k))[:100]
        ms = odd_corr.principal_cells_many(k, xs)
        base = odd_corr.cell_angles_many(k, xs, ms)
        for n in range(1, 2 * k + 3):
            m_new = (ms + n - 1) % (2 * k + 2) + 1
            lhs = odd_corr.cell_angles_many(k, cyclic_shift(k, n, xs), m_new)
            assert np.max(circle_distance_many(lhs, base + n * np.pi / (k + 1))) <= 1e-12


def test_antipodal_angle_relation():
    for k in (3, 5, 7):
        xs = sample_uniform_many(k, 300, RngStream(10).child(k))
        ms = odd_corr.principal_cells_many(k, xs)
        lhs = odd_corr.cell_angles_many(k, -xs, (ms + k) % (2 * k + 2) + 1)
        rhs = odd_corr.cell_angles_many(k, xs, ms) + np.pi
        assert np.max(np.abs(np.minimum(np.abs(np.mod(lhs - rhs, 2 * np.pi)),
                                        2 * np.pi - np.abs(np.mod(lhs - rhs, 2 * np.pi))))) <= 1e-12


def test_cell_maps_strictly_contract():
    for k in (3, 5):
        rng = RngStream(11).child(k, 1)
        xs2 = sample_uniform_many(k, 2000, rng.child(0))
        ms2 = odd_corr.principal_cells_many(k, xs2)
        ys2 = odd_corr.sample_in_ordered_cell_many(k, ms2, 2000, rng.child(1))
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
        assert np.all(cells_of(k, pts)[np.arange(len(pts)), cells - 1])
        angles = odd_corr.cell_angles_many(k, pts, cells)
        return ElementBatch(a=pts, b=angles, side=np.zeros(len(pts), dtype=int), strata=cells - 1)

    return _objectives(elements(ms, xs), elements(ns, zs))


def test_pair_objective_values():
    # boundary pair between the first and last ordered cells attains 2 pi/3
    x = UnitVector([1, 0, 0, -1]).coords
    assert pair_objectives(3, 1, x, 4, x)[0] == pytest.approx(2 * np.pi / 3, abs=1e-12)
    # identical pair in one cell: zero
    y = UnitVector([0.9, 0.1, 0.2, 0.1]).coords
    m = ordered_cells(3, y)[0]
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
    x0 = cyclic_shift(k, back, xs)
    z0 = cyclic_shift(k, back, zs)
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


@pytest.mark.parametrize("k, block", [(3, 1), (3, 7), (5, SHARD_SIZE)])
def test_ordered_cell_blocks_concatenate_to_the_whole_draw(k, block):
    for m, count in ((1, SHARD_SIZE + 1), (k + 1, 0), (np.arange(20) % (2 * k + 2) + 1, 20)):
        blocks = list(odd_corr.sample_in_ordered_cell_blocks(k, m, count, RngStream(22), block))
        assert np.array_equal(np.concatenate(blocks), odd_corr.sample_in_ordered_cell_many(k, m, count, RngStream(22)))


# -- witnesses and search support --------------------------------------------

def test_max_distortion_witness_values():
    for k in (3, 5, 7):
        (first, second), value = max_distortion_witness(k)
        assert value == pytest.approx((k - 1) * np.pi / k, abs=1e-12)
        assert np.array_equal(first.a, second.a)
        assert first.strata.tolist() == [0] and second.strata.tolist() == [k]
        expected = np.zeros(k + 1)
        expected[0], expected[-1] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        assert np.allclose(first.a[0], expected, atol=1e-15)
        corr = OddCircleCorrespondence(k)
        assert _in_relation(corr, ElementBatch.concat([first, second])).all()
        assert _objectives(first, second)[0] == value


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
        assert np.all(cells_of(k, xs)[:, [m1 - 1, m2 - 1]])


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


@pytest.mark.parametrize("k", [3, 5, 7])
def test_neighbor_cells_are_the_other_axes_in_order(k):
    axes = [odd_corr.cell_axis(k, m) for m in range(1, 2 * k + 3)]
    for m in range(1, 2 * k + 3):
        want = [c for c in range(1, 2 * k + 3) if axes[c - 1] != axes[m - 1]]
        assert odd_corr.neighbor_cells(k, m).tolist() == want
    assert odd_corr.neighbor_cells(3, 1).tolist() == [2, 3, 4, 6, 7, 8]
    with pytest.raises(ValueError):
        odd_corr.neighbor_cells(3, 9)


def test_boundary_sample_bulk_membership_rate():
    k = 5
    xs = odd_corr.sample_cell_boundary_many(k, 1, k + 1, 10_000, RngStream(17))
    ms = np.full(len(xs), 1)
    ang = odd_corr.cell_angles_many(k, xs, ms)  # raises nothing: membership exact
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
        assert len(batch.strata) > 0
        assert _in_relation(corr, batch).all(), k


def per_block_focus_pairs(k, count, rng):
    """Reference: the focus sampler as one sample_cell_boundary_many call per
    block of tie points, scattered per neighbour cell and stacked."""
    pairs = odd_corr.case_reduction_pairs(k)
    per_case = max(1, count // (4 * len(pairs)))
    left, right = [], []
    for c, (i, j) in enumerate(pairs):
        case_rng = rng.child(c)
        xs = odd_corr.sample_cell_boundary_many(k, i, j, per_case, case_rng.child(0))
        left.append((xs, i))
        right.append((xs, j))
        gen = case_rng.child(1).generator()
        for main, out, sub in ((i, left, 2), (j, right, 3)):
            pick = gen.choice(odd_corr.neighbor_cells(k, main), size=per_case)
            xs = np.empty((per_case, k + 1))
            for u, m_other in enumerate(np.unique(pick)):
                rows = pick == m_other
                xs[rows] = odd_corr.sample_cell_boundary_many(
                    k, main, int(m_other), int(rows.sum()), case_rng.child(sub, u)
                )
            out.append((xs, main))
    blocks = left + right
    return np.vstack([x for x, _ in blocks]), np.concatenate([np.full(len(x), m) for x, m in blocks])


@pytest.mark.parametrize("k", [3, 5, 9, 11])
@pytest.mark.parametrize("count", [1, 9, 100, 5000])
def test_focus_pairs_match_the_per_block_sampler_bitwise(k, count):
    batch = OddCircleCorrespondence(k).sample_focus_pairs(count, RngStream(23).child(k))
    xs, ms = per_block_focus_pairs(k, count, RngStream(23).child(k))
    assert batch.a.tobytes() == xs.tobytes()
    assert batch.b.tobytes() == odd_corr.cell_angles_many(k, xs, ms).tobytes()
    assert np.array_equal(batch.strata, ms - 1) and not batch.side.any()


@pytest.mark.parametrize("side", [1, 7, -1])
def test_variants_reject_a_side_other_than_0(side):
    with pytest.raises(ValueError, match="side must be 0"):
        OddCircleCorrespondence(3).variants_many(side, np.array([[1.0, 0, 0, 0]]))


def test_variants_just_outside_a_cell_lie_in_the_closed_cell():
    # 1e-10 outside ordered cell 1 of S^5 (x_3 beats x_1), inside the membership slack
    k = 5
    x = np.array([0.5, 0.1, 0.5 + 1e-10, -0.2, 0.3, 0.1])
    x /= np.linalg.norm(x)
    corr = OddCircleCorrespondence(k)
    variants = corr.variants_of_free(0, x)
    assert sorted((variants.strata + 1).tolist()) == [1, 3]
    rows = np.arange(len(variants.strata))
    assert odd_corr._cell_mask(k, variants.a, 0.0)[rows, variants.strata].all()
    assert (variants.side == 0).all()  # the free point is a
    assert np.allclose(np.linalg.norm(variants.a, axis=1), 1.0, rtol=0, atol=1e-15)
    assert _in_relation(corr, variants).all()
    moved = variants.a[variants.strata == 0][0]
    assert 0 < np.max(np.abs(moved - x)) < 1e-9
