import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spherecorr import RngStream, UnitVector
from spherecorr.geometry import (
    COLUMN_LOOP_WIDTH,
    HALF_CHORD_COS,
    circle_distance_many,
    clip_cosine,
    geodesic_many,
    normalize_rows,
    projective_many,
    row_dot,
    row_max,
    row_min,
    row_norms,
    sample_uniform_blocks,
    sample_uniform_many,
)
from spherecorr.parallel import SHARD_SIZE

E1 = UnitVector([1, 0, 0]).coords
E2 = UnitVector([0, 1, 0]).coords


def test_constructor_normalizes():
    v = UnitVector([3.0, 4.0])
    assert abs(np.linalg.norm(v.coords) - 1.0) <= 1e-12
    assert v.dim == 1


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        UnitVector([1.0])
    with pytest.raises(ValueError):
        UnitVector([0.0, 0.0])
    with pytest.raises(ValueError):
        UnitVector([np.nan, 1.0])


def test_geodesic_basic_values():
    assert geodesic_many(E1, -E1) == pytest.approx(np.pi, abs=1e-15)
    assert geodesic_many(E1, E2) == pytest.approx(np.pi / 2, abs=1e-15)


def test_geodesic_simplex_corner_pair():
    # both cell corners of the cross-polytope cell in S^3: angle arccos(-1/2)
    x = UnitVector([1, 1, 1, 1]).coords
    y = UnitVector([1, -1, -1, -1]).coords
    assert geodesic_many(x, y) == pytest.approx(np.arccos(-0.5), abs=1e-12)
    assert geodesic_many(x, y) == pytest.approx(2 * np.pi / 3, abs=1e-12)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        geodesic_many(E1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        projective_many(E1, np.array([1.0, 0.0]))


def test_projective_values():
    assert projective_many(E1, -E1) == 0.0
    assert projective_many(E1, E2) == pytest.approx(np.pi / 2, abs=1e-15)
    diag = UnitVector([1, 1, 0]).coords
    # direct evaluation: arccos(1/sqrt(2))
    assert projective_many(E1, diag) == pytest.approx(np.arccos(1 / np.sqrt(2)), abs=1e-12)
    assert projective_many(E1, diag) == pytest.approx(np.pi / 4, abs=1e-12)


def test_circle_distance_values():
    assert circle_distance_many(0.0, np.pi) == pytest.approx(np.pi, abs=1e-15)
    # direct arithmetic on the worked corner angles
    assert circle_distance_many(-np.pi / 24, 43 * np.pi / 24) == pytest.approx(np.pi / 6, abs=1e-12)
    assert circle_distance_many(7 * np.pi / 24, 35 * np.pi / 24) == pytest.approx(5 * np.pi / 6, abs=1e-12)


@given(st.floats(-50, 50), st.floats(-50, 50))
@settings(max_examples=200, deadline=None)
def test_circle_distance_properties(a, b):
    d = circle_distance_many(a, b)
    assert 0.0 <= d <= np.pi + 1e-12
    assert d == pytest.approx(circle_distance_many(b, a), abs=1e-12)
    # invariant under full turns of either argument
    assert circle_distance_many(a + 2 * np.pi, b) == pytest.approx(d, abs=1e-9)


def test_triangle_inequality_random_triples():
    rng = RngStream(11)
    xs = sample_uniform_many(4, 3000, rng.child(0))
    ys = sample_uniform_many(4, 3000, rng.child(1))
    zs = sample_uniform_many(4, 3000, rng.child(2))
    excess = geodesic_many(xs, zs) - geodesic_many(xs, ys) - geodesic_many(ys, zs)
    assert np.max(excess) <= 1e-12


def test_antipodal_invariance_exact():
    rng = RngStream(12)
    xs = sample_uniform_many(3, 500, rng.child(0))
    ys = sample_uniform_many(3, 500, rng.child(1))
    assert np.array_equal(geodesic_many(-xs, -ys), geodesic_many(xs, ys))


def test_projective_equals_folded_geodesic():
    rng = RngStream(13)
    xs = sample_uniform_many(5, 400, rng.child(0))
    ys = sample_uniform_many(5, 400, rng.child(1))
    d = geodesic_many(xs, ys)
    proj = projective_many(xs, ys)
    assert np.max(np.abs(proj - np.minimum(d, np.pi - d))) <= 1e-12
    assert np.max(np.abs(projective_many(-xs, ys) - proj)) <= 1e-15


def test_chord_identity():
    rng = RngStream(14)
    xs = sample_uniform_many(3, 400, rng.child(0))
    ys = sample_uniform_many(3, 400, rng.child(1))
    d = geodesic_many(xs, ys)
    assert np.max(np.abs(2 * np.sin(d / 2) - np.linalg.norm(xs - ys, axis=1))) <= 1e-12


def test_circle_distance_matches_embedded_geodesic():
    a, b = RngStream(15).generator().uniform(0, 2 * np.pi, (2, 400))
    emb = geodesic_many(np.column_stack([np.cos(a), np.sin(a)]), np.column_stack([np.cos(b), np.sin(b)]))
    assert np.max(np.abs(circle_distance_many(a, b) - emb)) <= 1e-12


ENDPOINT_ANGLES = [0.0, 1e-12, 1e-9, 1e-6, np.pi / 2, np.pi - 1e-9, np.pi - 1e-12, np.pi]


def plane_rows(angles):
    """Row pairs (e1, u) in R^3 with u at each given angle from e1 in the e1-e2 plane."""
    t = np.asarray(angles, dtype=float)
    return np.tile([1.0, 0.0, 0.0], (t.size, 1)), np.column_stack([np.cos(t), np.sin(t), 0.0 * t])


def test_geodesic_accurate_endpoints():
    x = np.array([1.0, 0.0, 0.0])
    assert geodesic_many(x, x) == 0.0
    assert geodesic_many(x, -x) == pytest.approx(np.pi, abs=1e-15)
    y = np.array([np.cos(1e-9), np.sin(1e-9), 0.0])
    assert geodesic_many(x, y) == pytest.approx(1e-9, rel=1e-6)
    a, b = plane_rows(ENDPOINT_ANGLES)
    batch = geodesic_many(a, b)
    for i, t in enumerate(ENDPOINT_ANGLES):
        assert abs(batch[i] - t) <= 1e-15
        assert abs(geodesic_many(a[i], b[i]) - t) <= 1e-15


def mixed_rows(count, seed):
    """Unit rows of S^4 whose pairs are near 0, near pi, or generic, in turn."""
    rng = RngStream(seed)
    xs = sample_uniform_many(4, count, rng.child(0))
    ys = sample_uniform_many(4, count, rng.child(1))
    ys[::3] = normalize_rows(xs[::3] + 1e-3 * ys[::3])
    ys[1::3] = normalize_rows(-xs[1::3] + 1e-3 * ys[1::3])
    return xs, ys


def test_geodesic_rows_are_batch_independent():
    xs, ys = mixed_rows(300, 16)
    cos = np.abs(row_dot(xs, ys))
    assert np.any(cos > HALF_CHORD_COS) and np.any(cos <= HALF_CHORD_COS)
    batch = geodesic_many(xs, ys)
    table = geodesic_many(xs[:, None, :], ys[:7])
    for i in range(300):
        assert geodesic_many(xs[i : i + 1], ys[i : i + 1])[0] == batch[i]
        assert geodesic_many(xs[i], ys[i]) == batch[i]
        for j in range(7):
            assert table[i, j] == geodesic_many(xs[i], ys[j])


@pytest.mark.parametrize("rows", ["plane", "mixed"])
def test_projective_many_matches_folded_geodesic_many(rows):
    a, b = plane_rows(ENDPOINT_ANGLES) if rows == "plane" else mixed_rows(600, 17)
    d = geodesic_many(a, b)
    assert np.max(np.abs(projective_many(a, b) - np.minimum(d, np.pi - d))) <= 1e-15


def test_clip_cosine_matches_np_clip_bitwise():
    one_up, one_down = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
    values = [0.0, -0.0, 0.3, -0.7, 1.0, -1.0, one_up, one_down, -one_up, -one_down,
              2.5, -2.5, np.inf, -np.inf, np.nan]
    for v in values:
        for c in (v, np.float64(v), np.array(v)):
            got, want = clip_cosine(c), np.clip(c, -1.0, 1.0)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    arr = np.array(values)
    assert clip_cosine(arr).tobytes() == np.clip(arr, -1.0, 1.0).tobytes()


@pytest.mark.parametrize("shape", [
    (5,), (9, 3), (4, 7, 3), (32768, 4), (1000, 2), (1000, 7), (1000, 8), (1000, 10), (1000, 30), (3, 5, 10),
])
def test_normalize_rows_matches_linalg_norm_bitwise(shape):
    # rows below COLUMN_LOOP_WIDTH sum column by column; 8 and up take numpy's pairwise sum
    arr = np.random.default_rng(sum(shape)).normal(size=shape) * 3.0
    norms = np.linalg.norm(arr, axis=-1, keepdims=True)
    assert row_norms(arr).tobytes() == norms[..., 0].tobytes()
    assert normalize_rows(arr).tobytes() == (arr / norms).tobytes()


TIE_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf])


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=12),
        elements=TIE_VALUES | st.floats(allow_nan=False),
    )
)
@settings(max_examples=300, deadline=None)
def test_row_max_and_row_min_match_numpy_bitwise(arr):
    # ties, both zeros and both infinities, at widths on both sides of COLUMN_LOOP_WIDTH
    assert row_max(arr).tobytes() == np.max(arr, axis=-1).tobytes()
    assert row_min(arr).tobytes() == np.min(arr, axis=-1).tobytes()


@pytest.mark.parametrize("width", [2, 4, 7, COLUMN_LOOP_WIDTH, 9, 10, 17])
def test_row_max_and_row_min_match_numpy_on_signed_zero_ties(width):
    # numpy's vectorized reduction over wide rows breaks 0.0 / -0.0 ties in its own order
    arr = np.random.default_rng(width).choice([0.0, -0.0, -np.inf, np.inf], size=(2000, width))
    assert row_max(arr).tobytes() == np.max(arr, axis=-1).tobytes()
    assert row_min(arr).tobytes() == np.min(arr, axis=-1).tobytes()


def test_normalize_rows_rejects_a_zero_row():
    with pytest.raises(ValueError):
        normalize_rows(np.zeros(3))
    arr = np.ones((3, 4, 2))
    arr[1, 2] = 0.0
    with pytest.raises(ValueError):
        normalize_rows(arr)


def test_sample_uniform_statistics():
    rng = RngStream(1)
    xs = sample_uniform_many(2, 100_000, rng)
    assert np.max(np.abs(np.linalg.norm(xs, axis=1) - 1.0)) <= 1e-12
    # law of large numbers: the mean of a rotation-invariant law vanishes
    assert np.max(np.abs(xs.mean(axis=0))) <= 0.02
    # symmetry: each halfspace holds half the mass
    assert abs(np.mean(xs[:, 0] > 0) - 0.5) <= 0.01


def test_sample_uniform_rejects_bad_dim():
    with pytest.raises(ValueError):
        sample_uniform_many(0, 5, RngStream(0))


@pytest.mark.parametrize("block", [1, 7, SHARD_SIZE])
@pytest.mark.parametrize("count", [0, 1, SHARD_SIZE + 1])
def test_uniform_blocks_concatenate_to_the_whole_draw(block, count):
    blocks = list(sample_uniform_blocks(3, count, RngStream(4, (1,)), block))
    assert all(len(b) <= block for b in blocks)
    assert np.array_equal(np.concatenate(blocks), sample_uniform_many(3, count, RngStream(4, (1,))))


@pytest.mark.parametrize("block", [0, -1])
def test_uniform_blocks_reject_a_block_below_one(block):
    with pytest.raises(ValueError, match="block size must be >= 1"):
        sample_uniform_blocks(3, 10, RngStream(0), block)


def test_rng_stream_reproducibility():
    a = sample_uniform_many(3, 10, RngStream(5, (2,)))
    b = sample_uniform_many(3, 10, RngStream(5, (2,)))
    c = sample_uniform_many(3, 10, RngStream(5, (3,)))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert RngStream(5).child(2) == RngStream(5, (2,))
