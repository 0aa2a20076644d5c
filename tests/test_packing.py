import hashlib
import json

import numpy as np
import pytest
from scipy.optimize import minimize

from spherecorr import (
    AntipodalSet,
    PackingBudget,
    PackingStore,
    RngStream,
    SearchBudget,
    VoronoiCorrespondence,
    asymptotic_table,
    best_bound,
    covering_radius_estimate,
    cross_polytope_set,
    cross_polytope_vdiam_exact,
    estimate_distortion,
    euclidean_bound,
    optimize_packing,
    packing_bound,
    voronoi_diameter_estimate,
)
from spherecorr import geometry, packing
from spherecorr.packing import BETA_SCHEDULE, POLISH_DECAY, STEP
from spherecorr.pointsets import arc_rows, covering_radius
from spherecorr.serialize import dumps
from spherecorr.voronoi_corr import rpq_bound

FAST = PackingBudget(1200, 300, 12)


# -- independent oracles ------------------------------------------------------

def lines_from_angles(ang):
    ang = ang.reshape(-1, 2)
    return np.column_stack(
        [
            np.sin(ang[:, 0]) * np.cos(ang[:, 1]),
            np.sin(ang[:, 0]) * np.sin(ang[:, 1]),
            np.cos(ang[:, 0]),
        ]
    )


def pairwise_line_distances(pts):
    cos = np.abs(pts @ pts.T)
    iu = np.triu_indices(pts.shape[0], 1)
    return np.arccos(np.clip(cos[iu], -1, 1))


def slsqp_line_packing_oracle(m, tries, seed):
    """Constrained-NLP oracle: maximize the slack below all pair distances."""
    gen = np.random.default_rng(seed)
    n_pairs = m * (m - 1) // 2
    best = 0.0
    for _ in range(tries):
        ang0 = np.column_stack(
            [gen.uniform(0, np.pi, m), gen.uniform(0, 2 * np.pi, m)]
        ).ravel()
        x0 = np.append(ang0, 0.5)
        cons = [
            {
                "type": "ineq",
                "fun": (lambda x, idx=idx: pairwise_line_distances(lines_from_angles(x[:-1]))[idx] - x[-1]),
            }
            for idx in range(n_pairs)
        ]
        res = minimize(
            lambda x: -x[-1], x0, method="SLSQP", constraints=cons,
            options={"maxiter": 300, "ftol": 1e-12},
        )
        best = max(best, float(pairwise_line_distances(lines_from_angles(res.x[:-1])).min()))
    return best


def test_gap_vector_oracle_for_circle_packing():
    # on the projective circle the gaps of m points sum to pi, so the minimum
    # gap never exceeds pi/m; even spacing attains it
    gen = np.random.default_rng(0)
    m = 5
    for _ in range(20000):
        gaps = gen.dirichlet(np.ones(m)) * np.pi
        assert gaps.min() <= np.pi / m + 1e-12
    even = np.full(m, np.pi / m)
    assert even.min() == pytest.approx(np.pi / m, abs=1e-15)


def test_optimizer_matches_circle_oracle():
    result = optimize_packing(1, 5, FAST, RngStream(3))
    assert result.min_dist == pytest.approx(np.pi / 5, abs=1e-4)


def test_optimizer_matches_slsqp_oracle_four_lines():
    oracle = slsqp_line_packing_oracle(4, 8, 2)
    assert oracle == pytest.approx(np.arccos(1 / 3), abs=1e-6)
    result = optimize_packing(2, 4, FAST, RngStream(3))
    assert result.min_dist == pytest.approx(np.arccos(1 / 3), abs=1e-3)
    assert abs(result.min_dist - oracle) <= 1e-3


def test_basis_configurations_reach_diameter():
    for m in (2, 3):
        result = optimize_packing(2, m, FAST, RngStream(4))
        assert result.min_dist == pytest.approx(np.pi / 2, abs=1e-6)


def test_welch_bound_caps_packings():
    # m lines in R^d pack at most at arccos sqrt((m-d)/(d(m-1))) (Welch 1974)
    results = {}
    for n, m in ((1, 3), (1, 5), (2, 4), (2, 6), (2, 7), (3, 5), (3, 8), (4, 9)):
        d = n + 1
        welch = np.arccos(np.sqrt((m - d) / (d * (m - 1))))
        results[n, m] = optimize_packing(n, m, FAST, RngStream(15).child(n, m))
        assert results[n, m].min_dist <= welch + 1e-12, (n, m)
    # and the bound is tight for 6 lines in RP^2 (Conway-Hardin-Sloane 1996)
    assert abs(results[2, 6].min_dist - np.arccos(1 / np.sqrt(5))) <= 1e-3


@pytest.mark.parametrize("n, m", [(1, 4), (2, 3), (2, 6), (3, 9)])
def test_batched_restarts_do_not_mix(n, m):
    # every restart of a batch must follow exactly the path it follows alone;
    # at m <= n+1 the basis start has no tight pair to push and stops at once
    starts = np.stack(
        [arc_rows(n, m)]
        + [geometry.sample_uniform_many(n, m, RngStream(14).child(i)) for i in range(1, 5)]
    )

    def run(x):
        x = packing._soft_ascent(x, 400)
        if n == 1:
            x = packing._circle_polish(x, 100)
        return packing._polish(x, 100)

    x, used = run(starts)
    for r in range(len(starts)):
        alone, alone_used = run(starts[r:r + 1])
        assert np.array_equal(x[r], alone[0]), r
        assert used[r] == alone_used[0], r
    if m <= n + 1:
        assert used[0] == 1 < used.max()


def test_min_dist_reverified_from_points():
    result = optimize_packing(2, 5, FAST, RngStream(5))
    assert result.min_dist == pytest.approx(packing.min_pair_distance(result.points), abs=0)
    assert result.min_dist <= np.pi / 2 + 1e-12
    assert result.restarts_used == FAST.restarts


def test_canonical_signs():
    pts = packing.canonicalize_signs(np.array([[-1.0, 0.2, 0.0], [0.0, -0.5, 0.8]]))
    assert pts[0, 0] > 0
    assert pts[1, 1] > 0


# Pinned bytes of six small optimizations: a change to the ascent or polish
# arithmetic that moves a packing fails here instead of passing as a
# different, equally plausible packing.
@pytest.mark.parametrize(
    "n, m, rng, min_dist_hex, points_sha256",
    [
        (1, 5, RngStream(0), "0x1.41b2f769cf0dep-1",
         "9d3ed01966086ff08488bc830e5ebb017e1c87bde0fa395aaf46bbdb9f446ec6"),
        (1, 8, RngStream(3), "0x1.921fb54442d0ep-2",
         "713e59b529639b891220cfdc29206fdc9180b1cf5e27f92c75ce98d6261c8506"),
        (2, 6, RngStream(0), "0x1.1b6c457fc35cep+0",
         "7dfaf827e311c525667666edde27570515525e67dadcb5c0c72b80166abb5002"),
        (2, 9, RngStream(7, (2,)), "0x1.ac82a57ac73d4p-1",
         "8447f5553b2d473f3e5bd98af43cc4310edb927e2acbc4e9b94428c7bfdfa29f"),
        (3, 7, RngStream(23), "0x1.2b6f2ad22eef2p+0",
         "09aabfc11e81e30ffa69686fb6e04144de7810b479a3ea80e64c083c5a2df405"),
        (3, 10, RngStream(5), "0x1.1f1bd6f6c615ep+0",
         "1ea48be8368e2fcdbda81f2a04c6f85d66f2d95cff953042ae54402003750f87"),
    ],
)
def test_packing_bytes_are_pinned(n, m, rng, min_dist_hex, points_sha256):
    result = optimize_packing(n, m, FAST, rng)
    assert result.min_dist.hex() == min_dist_hex
    assert hashlib.sha256(result.points.tobytes()).hexdigest() == points_sha256


def canonicalize_signs_loop(points):
    # the per-element loop canonicalize_signs replaced, kept as its reference
    pts = np.array(points, dtype=float)
    for row in pts:
        for c in row:
            if abs(c) > 1e-12:
                if c < 0:
                    row *= -1.0
                break
    return pts


def test_canonical_signs_match_the_element_loop():
    gen = np.random.default_rng(3)
    cases = [gen.normal(size=(40, 4)), gen.normal(size=(7, 2))]
    tiny = gen.normal(size=(60, 5))
    tiny[:, :2] = gen.choice([0.0, -0.0, 1e-12, -1e-12, 5e-13, -5e-13, 2e-12, -2e-12], size=(60, 2))
    cases.append(tiny)
    cases.append(np.array([[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [-1e-12, 1e-12, -0.0], [-0.0, -3.0, 2.0]]))
    for pts in cases:
        got, want = packing.canonicalize_signs(pts), canonicalize_signs_loop(pts)
        assert got.tobytes() == want.tobytes()
        assert got is not pts
    # optimize_packing canonicalizes a whole (R, m, n+1) stack in one pass
    stack = gen.normal(size=(5, 6, 3))
    stack[:, :, 0] *= gen.random(size=(5, 6)) < 0.5
    got = packing.canonicalize_signs(stack)
    for r in range(5):
        assert got[r].tobytes() == canonicalize_signs_loop(stack[r]).tobytes()


# The loop bodies packing._soft_ascent and packing._polish replaced (with the
# _gram_distances they call), kept verbatim as their references: the buffered
# loops must move every restart through bitwise the same iterates.
def _gram_distances(gram: np.ndarray) -> np.ndarray:
    """Projective distances from Gram matrices of unit rows, +inf on the diagonals."""
    d = np.arccos(geometry.clip_cosine(np.abs(gram)))
    m = d.shape[-1]
    d.reshape(-1, m * m)[:, :: m + 1] = np.inf
    return d


def soft_ascent_reference(x: np.ndarray, steps: int) -> np.ndarray:
    count, m = x.shape[:2]
    per_stage, extra = divmod(steps, len(BETA_SCHEDULE))
    for stage, beta in enumerate(BETA_SCHEDULE):
        iters = per_stage + (stage < extra)
        step = STEP
        shrink = (1e-2) ** (1.0 / max(iters, 1))
        live = np.ones(count, dtype=bool)
        for _ in range(iters):
            gram = x @ x.transpose(0, 2, 1)
            a = np.minimum(np.abs(gram), 1.0)
            w = np.arccos(a)
            w.reshape(count, -1)[:, :: m + 1] = np.inf
            w -= w.min(axis=(1, 2), keepdims=True)
            w *= -beta
            np.exp(w, out=w)  # 0 on the diagonal
            w /= w.reshape(count, -1).sum(axis=1)[:, None, None]
            np.negative(w, out=w)
            w *= np.sign(gram)
            w /= np.sqrt(np.maximum(1.0 - a * a, 1e-12))
            grad = w @ x
            grad -= np.einsum("rij,rij->ri", grad, x)[..., None] * x
            top = np.sqrt(np.add.reduce(grad * grad, axis=-1).max(axis=1))
            live &= top >= 1e-300
            if live.all():
                x = geometry.normalize_rows(x + (step / top)[:, None, None] * grad)
            elif live.any():
                scale = step / np.where(live, top, 1.0)
                moved = geometry.normalize_rows(x + scale[:, None, None] * grad)
                x = np.where(live[:, None, None], moved, x)
            else:
                break
            step *= shrink
    return x


def polish_reference(x: np.ndarray, iters: int) -> tuple[np.ndarray, np.ndarray]:
    x = x.copy()
    count, m = x.shape[:2]
    upper = np.triu(np.ones((m, m), dtype=bool), 1)
    gram = x @ x.transpose(0, 2, 1)
    d = _gram_distances(gram)
    best = d.min(axis=(1, 2))
    step = np.full(count, STEP)
    used = np.zeros(count, dtype=int)
    run = np.ones(count, dtype=bool)
    for it in range(iters):
        used[run] = it + 1
        tight = d <= best[:, None, None] + 1e-12
        c = np.where(tight & upper, -np.sign(gram), 0.0)
        move = c @ x + c.transpose(0, 2, 1) @ x
        norms = np.sqrt(np.add.reduce(move * move, axis=-1))
        active = norms > 1e-300
        run &= active.any(axis=1)
        if not run.any():
            break
        pushed = x + step[:, None, None] * move / np.where(active, norms, 1.0)[..., None]
        trial = geometry.normalize_rows(np.where(active[..., None], pushed, x))
        trial_gram = trial @ trial.transpose(0, 2, 1)
        trial_d = _gram_distances(trial_gram)
        val = trial_d.min(axis=(1, 2))
        better = run & (val > best)
        x[better], best[better] = trial[better], val[better]
        # bitwise what x @ x.T gives next time: the batched matmul works per restart
        gram[better], d[better] = trial_gram[better], trial_d[better]
        step = np.where(better, np.minimum(step * 1.2, 0.3), np.where(run, step * POLISH_DECAY, step))
        run &= better | (step >= 1e-13)
    return x, used


def assert_loops_match_the_references(starts, steps, polish_iters=()):
    before = starts.tobytes()
    x = packing._soft_ascent(starts, steps)
    assert starts.tobytes() == before
    assert x.tobytes() == soft_ascent_reference(starts, steps).tobytes()
    for iters in polish_iters:
        got, got_used = packing._polish(x, iters)
        want, want_used = polish_reference(x, iters)
        assert got.tobytes() == want.tobytes()
        assert got_used.tobytes() == want_used.tobytes()
    return x


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_buffered_loops_match_the_reference_loops(n):
    for m in range(2, 18):
        starts = np.stack(
            [arc_rows(n, m)]
            + [geometry.sample_uniform_many(n, m, RngStream(40 + n).child(m, i)) for i in range(1, 12)]
        )
        for count in (1, 5, 12):
            # one to three steps leave some beta stages with no iteration at all
            for steps in (1, 2, 3, 5):
                assert_loops_match_the_references(starts[:count], steps)
        # the full run at one stack size per m, so every size meets every n
        count = (1, 5, 12)[m % 3]
        assert_loops_match_the_references(starts[:count], 400, polish_iters=(0, 1, 100))


@pytest.mark.parametrize("n, m", [(1, 2), (2, 2), (2, 3), (3, 4)])
def test_buffered_loops_match_the_references_on_dead_starts(n, m):
    # basis starts have no gradient and no tight pair to push: alone they take
    # the ascent's break and the polish's, and among live starts the masked step
    basis = arc_rows(n, m)
    assert_loops_match_the_references(np.stack([basis] * 3), 400, polish_iters=(0, 1, 100))
    mixed = np.stack([basis, geometry.sample_uniform_many(n, m, RngStream(9)), basis])
    x = assert_loops_match_the_references(mixed, 400, polish_iters=(0, 1, 100))
    assert np.array_equal(x[0], basis) and not np.array_equal(x[1], basis)


def test_polish_keeps_the_signed_zeros_of_rows_it_does_not_move():
    # a planar start whose last coordinates are -0.0: the row outside the tight
    # pair is only renormalized, and keeps its signed zero
    ang = np.array([0.0, 0.2, 1.6])
    x = np.stack([np.cos(ang), np.sin(ang), np.full(3, -0.0)], axis=-1)[None]
    got, _ = packing._polish(x, 3)
    assert got.tobytes() == polish_reference(x, 3)[0].tobytes()
    assert np.signbit(got[0, 2, 2])


def test_packing_monotone_in_m():
    # adjacent m can share one optimal value (a plateau), so allow polish-level
    # noise; real restart failures show up orders of magnitude above this
    budget = PackingBudget(1600, 400, 24)
    for n in (2, 3):
        values = [
            optimize_packing(n, m, budget, RngStream(6).child(n, m)).min_dist
            for m in range(2, 13)
        ]
        for lo, hi in zip(values[1:], values):
            assert lo <= hi + 1e-4, (n, values)


def test_packing_scaling_band():
    # min distance scales like m**(-1/n): the normalized values stay in a band
    for n in (2, 3):
        norms = []
        for m in (8, 16, 32, 64):
            r = optimize_packing(n, m, FAST, RngStream(7).child(n, m))
            norms.append(r.min_dist * m ** (1.0 / n))
        assert max(norms) <= 2.0 * min(norms)


def test_covering_radius_examples():
    # four evenly spaced projective points on the circle cover at pi/8
    angles = np.arange(4) * np.pi / 4
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    assert covering_radius_estimate(pts) == pytest.approx(np.pi / 8, abs=1e-12)
    # the basis lines of RP^2: farthest line is the main diagonal
    assert covering_radius_estimate(np.eye(3)) == pytest.approx(np.arccos(1 / np.sqrt(3)), abs=1e-12)


def test_covering_never_exceeds_packing():
    for n, m in ((2, 4), (2, 6), (3, 8)):
        r = optimize_packing(n, m, FAST, RngStream(10).child(n, m))
        assert covering_radius_estimate(r.points) <= r.min_dist + 0.01


CERTIFIED_ROWS = ((2, 3), (3, 4), (3, 5))  # the table rows the certified bound lowers at seed 0


@pytest.fixture(scope="module")
def table_packings():
    # the packings behind these rows of `table --seed 0` at its default flags
    budget = PackingBudget(1600, 200, 8)
    return {(n, k): optimize_packing(n, k + 1, budget, RngStream(0).child(k)).points for n, k in CERTIFIED_ROWS}


@pytest.mark.parametrize("n, k", CERTIFIED_ROWS)
def test_packing_bound_is_the_certified_collapse_bound(table_packings, n, k):
    points = table_packings[n, k]
    cov = covering_radius(points)
    value = packing_bound(points, k)
    terms = (cross_polytope_vdiam_exact(k), np.pi - packing.min_pair_distance(points), 2 * cov)
    assert value == pytest.approx(max(terms), abs=1e-15)
    assert value < np.pi * k / (k + 1)
    assert best_bound(n, k, points) == (value, "upper-bound")
    # the bound holds the engine's estimate for the same correspondence
    corr = VoronoiCorrespondence(AntipodalSet(points), cross_polytope_set(k))
    report = estimate_distortion(corr, SearchBudget(65536, 60), RngStream(3), threads=1)
    assert report.estimate <= value
    # and 2 cov holds the sampled Voronoi diameter it stands in for
    vdiam, _ = voronoi_diameter_estimate(AntipodalSet(points), 20_000, rng=RngStream(4), threads=1)
    assert vdiam <= 2 * cov


def test_packing_bound_usage_errors():
    with pytest.raises(ValueError):
        packing_bound(np.eye(2), 3)  # n = 1
    with pytest.raises(ValueError):
        packing_bound(np.eye(3), 2)  # k = n
    with pytest.raises(ValueError):
        packing_bound(np.eye(3), 3)  # 3 lines against the 4 of the cross-polytope of S^3
    with pytest.raises(ValueError):
        best_bound(3, 4, np.eye(3)[[0, 1, 2, 0]])  # lines of RP^2 for n = 3


def collapse_path_bound(points, k):
    """The packing bound as the collapse bound of +-points onto the cross-polytope of S^k."""
    corr = VoronoiCorrespondence(AntipodalSet(points), cross_polytope_set(k))
    return rpq_bound(corr, 2 * covering_radius(points), cross_polytope_vdiam_exact(k))


def test_packing_bound_is_the_collapse_bound_bit_for_bit(table_packings):
    cases = [(points, k) for (_, k), points in table_packings.items()]
    n, k, budget = UNCERTIFIED
    cases.append((optimize_packing(n, k + 1, budget, RngStream(5).child(k)).points, k))
    for n in range(2, 5):
        for k in range(n + 1, 13):
            cases.append((geometry.sample_uniform_many(n, k + 1, RngStream(7).child(n, k)), k))
    winners = set()
    for points, k in cases:
        value = packing_bound(points, k)
        assert value == collapse_path_bound(points, k)
        terms = (cross_polytope_vdiam_exact(k), np.pi - packing.min_pair_distance(points), 2 * covering_radius(points))
        winners.add(int(np.argmax(terms)))
    # the cell term, pi - p and 2 cov each decide some case
    assert winners == {0, 1, 2}


def test_packing_bound_rejects_rows_off_the_unit_sphere():
    # covering_radius reads unit rows: these lines scaled by 1.1 would give 2.8864 < 2.9097
    draws = np.random.default_rng(1)
    draws.standard_normal((5, 3))
    points = geometry.normalize_rows(draws.standard_normal((5, 3)))
    assert packing_bound(points, 4) == pytest.approx(2.9097421266, abs=1e-10)
    with pytest.raises(ValueError, match="unit rows"):
        packing_bound(1.1 * points, 4)


def test_packing_bound_rejects_non_finite_rows():
    # NaN > UNIT_NORM_TOL is False, so only an explicit check stops a NaN row
    points = geometry.normalize_rows(np.random.default_rng(1).standard_normal((5, 3)))
    for bad in (np.nan, np.inf):
        broken = points.copy()
        broken[2, 1] = bad
        with pytest.raises(ValueError, match="finite rows"):
            packing_bound(broken, 4)


@pytest.mark.parametrize("points", [
    np.array([1.0, 0.0, 0.0]),
    np.ones((4, 3, 1)),
    np.array(1.0),
], ids=["one-row", "three-axes", "scalar"])
def test_packing_bound_rejects_points_that_are_not_a_2d_array(points):
    # bad input, rejected by the unit-row check before any row or axis is indexed
    with pytest.raises(ValueError, match="2-D array"):
        packing_bound(points, 3)
    with pytest.raises(ValueError):
        best_bound(2, 3, points)


def test_best_bound_closed_forms():
    assert best_bound(1, 4) == (pytest.approx(4 * np.pi / 5, abs=1e-15), "exact")
    assert best_bound(1, 5) == (pytest.approx(4 * np.pi / 5, abs=1e-15), "exact")
    assert best_bound(1, 6) == (pytest.approx(6 * np.pi / 7, abs=1e-15), "exact")
    value, tag = best_bound(2, 3)
    assert value == pytest.approx(3 * np.pi / 4, abs=1e-15)
    assert tag == "upper-bound"
    with pytest.raises(ValueError):
        best_bound(3, 3)


def test_euclidean_bound():
    assert euclidean_bound(0.0) == 0.0
    assert euclidean_bound(4 * np.pi / 5) == pytest.approx(np.sin(2 * np.pi / 5), abs=1e-15)
    assert euclidean_bound(3 * np.pi / 4) == pytest.approx(np.sin(3 * np.pi / 8), abs=1e-15)
    with pytest.raises(ValueError):
        euclidean_bound(-0.1)
    with pytest.raises(ValueError):
        euclidean_bound(3.3)


def test_store_roundtrip(tmp_path):
    store = PackingStore(tmp_path)
    result = optimize_packing(2, 4, FAST, RngStream(12))
    store.save(2, 4, FAST, RngStream(12), result)
    loaded = store.load(2, 4, FAST, RngStream(12))
    assert loaded is not None
    assert loaded.min_dist == pytest.approx(result.min_dist, abs=1e-15)
    assert np.allclose(loaded.points, result.points, atol=0)
    assert store.load(2, 4, FAST, RngStream(13)) is None


def test_store_keys_on_stream_path_and_format(tmp_path, monkeypatch):
    store = PackingStore(tmp_path)
    result = optimize_packing(2, 4, FAST, RngStream(12).child(3))
    store.save(2, 4, FAST, RngStream(12).child(3), result)
    assert store.load(2, 4, FAST, RngStream(12).child(3)) is not None
    assert store.load(2, 4, FAST, RngStream(12)) is None
    assert store.load(2, 4, FAST, RngStream(12).child(4)) is None
    monkeypatch.setattr(packing, "STORE_FORMAT", packing.STORE_FORMAT + 1)
    assert store.load(2, 4, FAST, RngStream(12).child(3)) is None


@pytest.mark.parametrize(
    "tamper",
    [
        lambda e: e.update(n=3),
        lambda e: e.update(m=5),
        lambda e: e.update(points=e["points"][:3]),
        lambda e: e.update(points=[row[:2] for row in e["points"]]),
        lambda e: e.update(points=(1.001 * np.asarray(e["points"])).tolist()),
        lambda e: e.update(points=[0.6, 0.8]),
    ],
    ids=["n", "m", "rows", "columns", "norms", "one-row"],
)
def test_store_rejects_mismatched_entry(tmp_path, tamper):
    store = PackingStore(tmp_path)
    result = optimize_packing(2, 4, FAST, RngStream(12))
    store.save(2, 4, FAST, RngStream(12), result)
    (path,) = tmp_path.glob("pack_*.json")
    entry = json.loads(path.read_text())
    tamper(entry)
    path.write_text(json.dumps(entry))
    assert store.load(2, 4, FAST, RngStream(12)) is None


def table_stages(budget):
    """Every budget ``asymptotic_table`` may run for one row, in order."""
    early = [PackingBudget(s, 0, budget.restarts) for s in packing.TABLE_STAGES]
    return [b for b in early if b.ascent_steps < budget.ascent_steps] + [budget]


@pytest.mark.parametrize("text", ["", '{"points": [[1.0, 0.0', "[]", '{"n": 2, "m": 4}', "\xff"])
def test_corrupt_store_entry_is_recomputed(tmp_path, text):
    store = PackingStore(tmp_path)
    stream = RngStream(1).child(3)
    rows = asymptotic_table(2, [3], FAST, RngStream(1), store=store)
    (path,) = tmp_path.glob("pack_*.json")
    # the key of the entry the table wrote: the stage that certified the row
    (budget,) = [b for b in table_stages(FAST) if store.load(2, 4, b, stream) is not None]
    path.write_text(text, encoding="latin-1")
    assert store.load(2, 4, budget, stream) is None
    assert dumps(asymptotic_table(2, [3], FAST, RngStream(1), store=store)) == dumps(rows)
    assert store.load(2, 4, budget, stream) is not None


def test_store_save_is_atomic(tmp_path, monkeypatch):
    store = PackingStore(tmp_path)
    result = optimize_packing(2, 4, FAST, RngStream(12))
    store.save(2, 4, FAST, RngStream(12), result)
    store.save(2, 4, FAST, RngStream(12), result)
    (path,) = tmp_path.iterdir()
    before = path.read_bytes()

    def fail(_obj):
        raise OSError("disk full")

    # a save that fails mid-write leaves the old entry and no temp file
    monkeypatch.setattr(packing.serialize, "dumps", fail)
    with pytest.raises(OSError):
        store.save(2, 4, FAST, RngStream(12), result)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before


def test_asymptotic_table_n3_slope_not_steeper_than_sqrt(tmp_path):
    # this construction only yields a 1/sqrt(k) gap in every dimension, so
    # the fitted log-log slope should not drop much below -1/2 for n = 3
    budget = PackingBudget(1000, 250, 8)
    ks = list(range(8, 25, 2))
    rows = asymptotic_table(3, ks, budget, RngStream(21), store=PackingStore(tmp_path))
    gaps = np.array([row["gap"] for row in rows])
    assert np.all(gaps > 0)
    slope = float(np.polyfit(np.log(ks), np.log(gaps), 1)[0])
    assert slope >= -0.5 - 0.15


def test_asymptotic_table_rows(tmp_path):
    store = PackingStore(tmp_path)
    rows = asymptotic_table(2, [3, 4, 5], FAST, RngStream(1), store=store)
    assert [row["k"] for row in rows] == [3, 4, 5]
    for row in rows:
        assert row["gap"] > 0
        assert row["gap_sqrtk"] == pytest.approx(row["gap"] * np.sqrt(row["k"]), abs=1e-12)
    # warm rerun hits the cache and reproduces the rows byte for byte
    rows2 = asymptotic_table(2, [3, 4, 5], FAST, RngStream(1), store=store)
    assert dumps(rows) == dumps(rows2)


def record_optimize(monkeypatch):
    """Route ``packing.optimize_packing`` through a recorder of its budgets."""
    calls = []

    def recording(n, m, budget, rng):
        calls.append(budget)
        return optimize_packing(n, m, budget, rng)

    monkeypatch.setattr(packing, "optimize_packing", recording)
    return calls


def test_warm_table_optimizes_nothing(tmp_path, monkeypatch):
    store = PackingStore(tmp_path)
    rows = asymptotic_table(2, [3, 4, 8], FAST, RngStream(1), store=store)

    def fail(*_args):
        raise AssertionError("a warm table optimized a packing")

    monkeypatch.setattr(packing, "optimize_packing", fail)
    assert dumps(asymptotic_table(2, [3, 4, 8], FAST, RngStream(1), store=store)) == dumps(rows)


@pytest.mark.parametrize("steps", [1, packing.TABLE_STAGES[0]])
def test_table_at_or_below_the_first_stage_runs_only_its_budget(monkeypatch, steps):
    budget = PackingBudget(steps, 5, 3)
    calls = record_optimize(monkeypatch)
    (row,) = asymptotic_table(2, [4], budget, RngStream(2))
    assert calls == [budget]
    points = optimize_packing(2, 5, budget, RngStream(2).child(4)).points
    assert row["bound"] == best_bound(2, 4, points)[0]


# Five lines in RP^2 from the arc start alone: no stage reaches the cell term.
UNCERTIFIED = (2, 4, PackingBudget(200, 10, 1))


def test_uncertified_row_is_the_full_budget_packing(monkeypatch):
    n, k, budget = UNCERTIFIED
    calls = record_optimize(monkeypatch)
    (row,) = asymptotic_table(n, [k], budget, RngStream(5))
    assert calls == table_stages(budget) and len(calls) == 3
    result = optimize_packing(n, k + 1, budget, RngStream(5).child(k))
    bound = best_bound(n, k, result.points)[0]
    assert bound > cross_polytope_vdiam_exact(k)
    assert row["bound"] == bound


def test_every_stage_entry_is_its_own_optimize_packing(tmp_path):
    n, k, budget = UNCERTIFIED
    store = PackingStore(tmp_path / "table")
    asymptotic_table(n, [k], budget, RngStream(5), store=store)
    reference = PackingStore(tmp_path / "reference")
    stream = RngStream(5).child(k)
    for stage in table_stages(budget):
        reference.save(n, k + 1, stage, stream, optimize_packing(n, k + 1, stage, stream))
    written = sorted(store.root.iterdir())
    assert len(written) == len(table_stages(budget))
    for path in written:
        assert path.read_bytes() == (reference.root / path.name).read_bytes()


@pytest.mark.parametrize("steps", [1, 3, 1601, 1603])
def test_ascent_budget_is_the_work_done(steps):
    # the first steps % 4 sharpening stages take one extra step; no rounding
    assert optimize_packing(2, 4, PackingBudget(steps, 0, 2)).iterations == steps


def test_restart_reduction_deterministic():
    a = optimize_packing(2, 4, FAST, RngStream(3))
    b = optimize_packing(2, 4, FAST, RngStream(3))
    assert dumps(a.to_json_dict()) == dumps(b.to_json_dict())
