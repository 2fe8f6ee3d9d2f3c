"""The batched partition-of-unity, quotient-distance and metric-entry
kernels against the per-point code they replaced.

The reference functions below are the per-point implementations kept as
oracles: every entry must agree bit for bit, because reports and CSV dumps
are byte-identical for a fixed (config, seed).
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbidiff import groups as G
from orbidiff import maps as P
from orbidiff import model as M
from orbidiff import riemann as R
from orbidiff import suites as S
from orbidiff.errors import CoverGap, NotSPD, OutOfDomain

THIRD_TURN = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
QUARTER_TURN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def _sphere(name, gens):
    return lambda: M.GoodOrbifold(M.ModelSpace(M.SPHERE, 2),
                                  G.generate_group(gens), name=name)


# (orbifold, atlas resolution); the atlases hold 3 to 12 charts, so row
# totals are taken over fewer and over more than 8 columns
CASES = {
    "football2": (lambda: M.football(2), 20),
    "football3": (lambda: M.football(3), 20),
    "football5": (lambda: M.football(5), 20),
    "disk_Z4": (lambda: M.disk_mod_rotation(4), 13),
    "disk_D4": (lambda: M.disk_mod_dihedral(4), 13),
    "mirror": (M.plane_mod_reflection, 13),
    "line": (M.line_mod_flip, 15),
    "S2/T": (_sphere("S2/T", [THIRD_TURN, np.diag([1.0, -1.0, -1.0])]), 8),
    "S2/Oh": (_sphere("S2/Oh", [THIRD_TURN, QUARTER_TURN, -np.eye(3)]), 8),
}


@functools.cache
def case(name):
    build, resolution = CASES[name]
    orbifold = build()
    return orbifold, M.build_atlas(orbifold, resolution=resolution)


# -- per-point references --------------------------------------------------------

def reference_bump(u):
    """The cubic cutoff written out: (1 - u)^3 below 1, else 0."""
    return np.where(u < 1, (1 - np.minimum(u, 1)) ** 3, 0)


def reference_raw_weights(orbifold, atlas):
    model, grp = orbifold.model, orbifold.group

    def raw_weight(chart):
        def w(y):
            pts = grp.matrices @ np.asarray(y, dtype=float)
            u = (model.distances(pts, chart.center) / chart.radius) ** 2
            return float(reference_bump(u).sum() / grp.order)
        return w

    return [raw_weight(ch) for ch in atlas]


def reference_weights(orbifold, atlas):
    raws = reference_raw_weights(orbifold, atlas)

    def normalized(k):
        def w(y):
            vals = [r(y) for r in raws]
            total = sum(vals)
            return vals[k] / total if total > 0.0 else 0.0
        return w

    return [normalized(k) for k in range(len(atlas))]


def reference_total(weights, y):
    return float(sum(w(y) for w in weights))


def reference_verify(orbifold, weights, grid):
    sum_res = 0.0
    equi_res = 0.0
    grp = orbifold.group
    for y in grid:
        sum_res = max(sum_res, abs(reference_total(weights, y) - 1.0))
        for lab in range(1, grp.order):
            gy = grp.act(lab, y)
            for w in weights:
                equi_res = max(equi_res, abs(w(gy) - w(y)))
    return sum_res, equi_res


def reference_raw_distance(orbifold, a, b):
    pts = orbifold.group.matrices @ a
    return float(orbifold.model.distances(pts, b).min())


def reference_quotient_distance(orbifold, a, b):
    return min(reference_raw_distance(orbifold, a, b),
               reference_raw_distance(orbifold, b, a))


def reference_injectivity_witness(orbifold, sources, images):
    """The first pair (i, j), in loop order, of distinct canonical source
    rows whose canonical image rows coincide."""
    for i in range(len(sources)):
        for j in range(i + 1, len(sources)):
            if reference_quotient_distance(orbifold, sources[i],
                                           sources[j]) < 1e-6:
                continue
            if reference_quotient_distance(orbifold, images[i],
                                           images[j]) < 1e-9:
                return i, j
    return None


def reference_raw_metric(bump):
    n = len(bump)

    def raw(y):
        sym = bump + bump.T
        return np.eye(n) + 0.2 * np.sin(float(np.sum(y))) * sym @ sym.T

    return raw


def reference_average_metric(chart, raw, printed_double_sum=False):
    group = chart.isotropy
    if printed_double_sum:
        proj = group.matrices.mean(axis=0)
        return lambda y: proj.T @ np.asarray(raw(y), dtype=float) @ proj

    def averaged(y):
        acc = None
        for lab in range(group.order):
            g = group.matrix(lab)
            term = g.T @ np.asarray(raw(g @ y), dtype=float) @ g
            acc = term if acc is None else acc + term
        return acc / group.order

    return averaged


def reference_metric_invariance_residual(chart, entry, per_axis=4):
    worst = 0.0
    for p in chart.sample_points(per_axis=per_axis):
        base = np.asarray(entry(p), dtype=float)
        for a in range(chart.isotropy.order):
            g = chart.isotropy.matrix(a)
            moved = g.T @ np.asarray(entry(g @ p), dtype=float) @ g
            worst = max(worst, float(np.abs(moved - base).max()))
    return worst


def reference_spd_error(raw, pts):
    for p in pts:
        mat = np.asarray(raw(p), dtype=float)
        if float(np.abs(mat - mat.T).max()) > 1e-12:
            return f"metric is not symmetric at {np.round(p, 4)}"
        if float(np.linalg.eigvalsh(mat).min()) <= 0.0:
            return f"metric is not positive definite at {np.round(p, 4)}"
    return None


# -- drawn points ---------------------------------------------------------------------

# coarse lattice coordinates land on mirrors, axes and chart centres
COORD = st.one_of(st.floats(-1.0, 1.0),
                  st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0]))


def model_points(orbifold, rows):
    """Points of the model from drawn coordinates: projected to the sphere,
    or scaled into the ball (rows of the unit cube outside the unit ball
    move onto the sphere of radius 0.98R)."""
    pts = np.array(rows, dtype=float).reshape(-1, orbifold.model.ambient_dim)
    if orbifold.model.kind == M.FLAT:
        norms = np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1.0)
        return pts / norms * 0.98 * orbifold.model.radius
    pts[np.linalg.norm(pts, axis=1) < 1e-3] = np.eye(3)[2]
    return np.array([orbifold.model.project(p) for p in pts])


def draw_points(data, orbifold, max_size=6):
    n = orbifold.model.ambient_dim
    rows = data.draw(st.lists(st.lists(COORD, min_size=n, max_size=n),
                              min_size=1, max_size=max_size))
    return model_points(orbifold, rows)


def assert_bitwise(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- kernels against the references -------------------------------------------------

@pytest.mark.parametrize("name", sorted(CASES))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_partition_values_match_reference_weights(name, data):
    orbifold, atlas = case(name)
    pts = draw_points(data, orbifold, max_size=4)
    pou = R.equivariant_partition_of_unity(orbifold, atlas)
    ref = reference_weights(orbifold, atlas)
    vals = pou.values(pts)
    assert_bitwise(vals, [[w(y) for w in ref] for y in pts])
    for y in pts:
        assert_bitwise([w(y) for w in pou.weights], [w(y) for w in ref])
        assert_bitwise(pou.total(y), reference_total(ref, y))
    assert pou.verify(pts[:2]) == reference_verify(orbifold, ref, pts[:2])


@pytest.mark.parametrize("name", sorted(CASES))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_quotient_distances_match_reference(name, data):
    orbifold, _ = case(name)
    a = G.canonical_representatives(orbifold.group, draw_points(data, orbifold))
    b = G.canonical_representatives(orbifold.group, draw_points(data, orbifold))
    dists = orbifold.quotient_distances(a, b)
    assert_bitwise(dists, [[reference_quotient_distance(orbifold, x, y)
                            for y in b] for x in a])
    for x in a[:2]:
        for y in b[:2]:
            cx, cy = orbifold.canonicals(np.array([x, y]))
            assert_bitwise(orbifold.quotient_distances(cx[None], cy[None])[0, 0],
                           reference_quotient_distance(orbifold, cx, cy))


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_matches_reference_on_the_verification_grid(name):
    orbifold, atlas = case(name)
    pou = R.equivariant_partition_of_unity(orbifold, atlas)
    grid = orbifold.model.verification_domain(orbifold.model.grid(6))
    ref = reference_weights(orbifold, atlas)
    assert pou.verify(grid) == reference_verify(orbifold, ref, grid)


@pytest.mark.parametrize("block", [G._BLOCK, 50, 7])
@pytest.mark.parametrize("name", ["football5", "mirror", "S2/Oh"])
def test_kernels_match_across_blocks(name, block, monkeypatch):
    # small blocks split the points of values and both sides of the
    # distance tiles; at 7 a single translate set exceeds the block
    monkeypatch.setattr(G, "_BLOCK", block)
    orbifold, atlas = case(name)
    rng = np.random.default_rng(11)
    pts = model_points(orbifold, rng.uniform(-1.0, 1.0, size=(
        120, orbifold.model.ambient_dim)))
    pts[::4] = model_points(orbifold, np.round(pts[::4]))
    pou = R.PartitionOfUnity(orbifold, atlas)
    ref = reference_weights(orbifold, atlas)
    assert_bitwise(pou.values(pts), [[w(y) for w in ref] for y in pts])
    canon = G.canonical_representatives(orbifold.group, pts)
    a, b = canon[:45], canon[45:75]
    assert_bitwise(orbifold.quotient_distances(a, b),
                   [[reference_quotient_distance(orbifold, x, y) for y in b]
                    for x in a])


def test_atlas_prefixes_around_eight_charts_match_reference():
    # prefixes of the football5 atlas sum 1, 7, 8 and 9 columns; their
    # partitions leave gaps, so the kernel is built without the cover probe
    orbifold, atlas = case("football5")
    pts = orbifold.model.grid(8)
    for k in (1, 7, 8, 9):
        pou = R.PartitionOfUnity(orbifold, atlas[:k])
        ref = reference_weights(orbifold, atlas[:k])
        assert_bitwise(pou.values(pts), [[w(y) for w in ref] for y in pts])
        assert pou.verify(pts[::4]) == reference_verify(orbifold, ref, pts[::4])


@pytest.mark.parametrize("block", [G._BLOCK, 50, 7])
@pytest.mark.parametrize("name", sorted(CASES))
def test_pair_distances_are_the_matrix_diagonal(name, block, monkeypatch):
    # rows on mirrors and axes, random rows and near-orthogonal pairs, where
    # the sign of a dot product picks the distance branch; small blocks
    # split the rows
    monkeypatch.setattr(G, "_BLOCK", block)
    orbifold, _ = case(name)
    rng = np.random.default_rng(5)
    n = orbifold.model.ambient_dim
    pts = model_points(orbifold, rng.uniform(-1.0, 1.0, size=(80, n)))
    pts[::4] = model_points(orbifold, np.round(pts[::4]))
    if n == 3:
        u = pts[:40]
        v = rng.normal(size=u.shape)
        v -= G.row_dot(v, u)[:, None] * u
        pts[40:] = v / np.linalg.norm(v, axis=1, keepdims=True)
    canon = orbifold.canonicals(pts)
    a, b = canon[:40], canon[40:]
    got = orbifold.quotient_pair_distances(a, b)
    assert_bitwise(got, np.diagonal(orbifold.quotient_distances(a, b)))
    assert_bitwise(got, [reference_quotient_distance(orbifold, x, y)
                         for x, y in zip(a, b)])
    assert orbifold.quotient_pair_distances(a[:0], b[:0]).shape == (0,)


@pytest.mark.parametrize("p", [2, 5])
def test_near_orthogonal_pairs_match_reference(p):
    # rotated translates end up orthogonal to b within rounding, where the
    # sign of a BLAS dot product decides between two arcsin branches
    orbifold = M.football(p)
    t = np.linspace(-1.0, 1.0, 9)
    a = G.canonical_representatives(orbifold.group, model_points(
        orbifold, np.stack([np.zeros_like(t), np.ones_like(t), t], axis=1)))
    turns = 2.0 * np.pi * np.arange(2 * p) / (2 * p)
    b = G.canonical_representatives(orbifold.group, np.concatenate([
        np.stack([np.cos(turns), np.sin(turns), np.zeros_like(turns)], axis=1),
        np.eye(3)]))
    assert_bitwise(orbifold.quotient_distances(a, b),
                   [[reference_quotient_distance(orbifold, x, y) for y in b]
                    for x in a])


def reference_sphere_distances(pts, q):
    """ModelSpace.distances on the sphere with each row's branch taken from
    np.dot of that row, as ModelSpace.distance takes it."""
    near = 2.0 * np.arcsin(np.clip(np.linalg.norm(pts - q, axis=1) / 2.0, 0.0, 1.0))
    far = np.pi - 2.0 * np.arcsin(np.clip(np.linalg.norm(pts + q, axis=1) / 2.0,
                                          0.0, 1.0))
    return np.array([n if np.dot(p, q) >= 0.0 else f
                     for p, n, f in zip(pts, near, far)])


@pytest.mark.parametrize("p", [2, 5])
def test_distances_take_each_rows_branch_on_near_orthogonal_rows(p):
    # the translates of these rows are orthogonal to the columns of b within
    # rounding; a matrix-vector product gives some of them the other sign
    orbifold = M.football(p)
    t = np.linspace(-1.0, 1.0, 9)
    a = model_points(orbifold, np.stack([np.zeros_like(t), np.ones_like(t), t],
                                        axis=1))
    pts = G.translates(orbifold.group, a).reshape(-1, 3)
    turns = 2.0 * np.pi * np.arange(2 * p) / (2 * p)
    for q in np.concatenate([np.stack([np.cos(turns), np.sin(turns),
                                       np.zeros_like(turns)], axis=1), np.eye(3)]):
        assert_bitwise(orbifold.model.distances(pts, q),
                       reference_sphere_distances(pts, q))


def test_distances_do_not_depend_on_the_rows_beside():
    # 300 rows on the great circle orthogonal to q, whole and in three-row
    # sub-calls
    model = M.ModelSpace(M.SPHERE, 2)
    rng = np.random.default_rng(7)
    for _ in range(5):
        q = model.project(rng.normal(size=3))
        e1 = model.project(np.cross(q, [0.3, 0.5, 0.8]))
        e2 = np.cross(q, e1)
        turns = rng.uniform(0.0, 2.0 * np.pi, 300)
        pts = np.cos(turns)[:, None] * e1 + np.sin(turns)[:, None] * e2
        whole = model.distances(pts, q)
        assert_bitwise(whole, np.concatenate(
            [model.distances(pts[i:i + 3], q) for i in range(0, 300, 3)]))
        assert_bitwise(whole, reference_sphere_distances(pts, q))


@pytest.mark.parametrize("width", [1, 2, 3, 8, 9, 12])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_flat_distances_are_the_norm_of_the_difference(width, data):
    """The flat branch is np.linalg.norm(a - b, axis=-1) bit for bit, NaN
    and infinities included, across the 8-coordinate pairwise threshold."""
    model = M.ModelSpace(M.FLAT, width, radius=1.0)
    coords = st.one_of(st.floats(allow_nan=True, allow_infinity=True,
                                 width=64),
                       st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]))
    rows = data.draw(st.integers(0, 5))
    a = np.array(data.draw(st.lists(coords, min_size=rows * width,
                                    max_size=rows * width)),
                 dtype=float).reshape(rows, width)
    b = np.array(data.draw(st.lists(coords, min_size=width, max_size=width)),
                 dtype=float)
    with np.errstate(all="ignore"):
        want = np.linalg.norm(a - b, axis=-1)
        assert_bitwise(model.row_distances(a, b), want)
        assert_bitwise(model.row_distances(a[:, None], b[None, None]),
                       want[:, None])


def test_distance_is_distances_row_by_row():
    # near-orthogonal sphere rows, where the two branches differ by an ulp,
    # and random flat rows, where a 1-D dot product and a row norm add the
    # squares differently
    rng = np.random.default_rng(11)
    sphere = M.ModelSpace(M.SPHERE, 2)
    q = sphere.project(rng.normal(size=3))
    e1 = sphere.project(np.cross(q, [0.3, 0.5, 0.8]))
    e2 = np.cross(q, e1)
    turns = rng.uniform(0.0, 2.0 * np.pi, 3000)
    circle = np.cos(turns)[:, None] * e1 + np.sin(turns)[:, None] * e2
    cases = [(sphere, circle, q)]
    for n in (2, 3):
        flat = M.ModelSpace(M.FLAT, n, 2.0)
        cases.append((flat, rng.uniform(-1.0, 1.0, size=(3000, n)),
                      rng.uniform(-1.0, 1.0, size=n)))
    for model, pts, q in cases:
        assert_bitwise(model.distances(pts, q),
                       [model.distance(p, q) for p in pts])


@pytest.mark.parametrize("name", ["football3", "disk_D4", "mirror", "line"])
def test_metric_entries_match_reference(name):
    orbifold, atlas = case(name)
    chart = max(atlas, key=lambda c: c.isotropy.order)   # a pole on football3
    n = orbifold.model.ambient_dim
    raw = S._raw_metric(np.random.default_rng(5), n)
    ref_raw = reference_raw_metric(np.random.default_rng(5).normal(size=(n, n)) * 0.1)
    pts = np.concatenate([chart.sample_points(per_axis=5), model_points(
        orbifold, np.random.default_rng(6).uniform(-1.0, 1.0, size=(40, n)))])
    assert_bitwise(raw(pts), [ref_raw(y) for y in pts])

    entry = R.average_metric(chart, raw)
    ref = reference_average_metric(chart, ref_raw)
    assert_bitwise(entry(pts), [ref(y) for y in pts])
    twice = R.average_metric(chart, entry)
    ref_twice = reference_average_metric(chart, ref)
    assert_bitwise(twice(pts), [ref_twice(y) for y in pts])
    assert_bitwise(R.metric_invariance_residual(chart, entry),
                   reference_metric_invariance_residual(chart, ref))
    degen = R.average_metric(chart, raw, printed_double_sum=True)
    ref_degen = reference_average_metric(chart, ref_raw, printed_double_sum=True)
    assert_bitwise(degen(pts), [ref_degen(y) for y in pts])


def test_not_spd_names_the_first_bad_sample_point():
    orbifold, atlas = case("disk_D4")
    chart = max(atlas, key=lambda c: c.isotropy.order)
    pts = chart.sample_points(per_axis=4)

    def raw_from(skew, flip):
        def raw(rows):
            rows = np.atleast_2d(rows)
            out = np.repeat(np.eye(2)[None], len(rows), axis=0)
            out[rows[:, 0] > skew, 0, 1] = 0.5
            out[rows[:, 1] > flip, 1, 1] = -1.0
            return out
        return raw

    for skew, flip in [(0.1, 0.1), (0.1, 9.0), (9.0, 0.1), (0.2, 0.05)]:
        raw = raw_from(skew, flip)
        want = reference_spd_error(lambda y: raw(y)[0], pts)
        assert want is not None
        with pytest.raises(NotSPD) as exc:
            R.average_metric(chart, raw)
        assert str(exc.value) == want


def test_quotient_distances_match_reference_from_eight_coordinates():
    # np.linalg.norm adds 8 or more squares pairwise
    orbifold = M.GoodOrbifold(M.ModelSpace(M.FLAT, 9, 2.0),
                              G.group_from_elements([np.eye(9), -np.eye(9)]))
    rng = np.random.default_rng(5)
    a, b = rng.uniform(-0.6, 0.6, size=(7, 9)), rng.uniform(-0.6, 0.6, size=(5, 9))
    assert_bitwise(orbifold.quotient_distances(a, b),
                   [[reference_quotient_distance(orbifold, x, y) for y in b]
                    for x in a])


def reference_row_totals(mat):
    total = np.zeros(len(mat))
    for col in mat.T:
        total += col
    return total


def test_partition_sums_keep_their_order_on_an_order_48_group():
    # 48 translates per chart are past the 8 at which ndarray.sum adds
    # pairwise, so the group sums must run along the axis the one-point
    # sums ran along
    orbifold, atlas = case("S2/Oh")
    pts = np.concatenate([orbifold.model.grid(8), model_points(
        orbifold, np.random.default_rng(9).normal(size=(60, 3)))])
    pou = R.PartitionOfUnity(orbifold, atlas)
    raws = reference_raw_weights(orbifold, atlas)
    ref = reference_weights(orbifold, atlas)
    assert_bitwise(pou._raw(pts), [[r(y) for r in raws] for y in pts])
    assert_bitwise(pou.values(pts), [[w(y) for w in ref] for y in pts])
    assert_bitwise([pou.total(y) for y in pts],
                   [reference_total(ref, y) for y in pts])


@pytest.mark.parametrize("name", ["football5", "disk_Z4", "S2/Oh"])
def test_values_past_one_block_match_one_row_calls(name):
    orbifold, atlas = case(name)
    # one more row than a translate-distance tile holds
    k = G.block_rows(orbifold.group.order, orbifold.model.ambient_dim,
                     len(atlas)) + 1
    pts = model_points(orbifold, np.random.default_rng(13).uniform(
        -1.0, 1.0, size=(k, orbifold.model.ambient_dim)))
    pou = R.PartitionOfUnity(orbifold, atlas)
    assert_bitwise(pou.values(pts),
                   np.concatenate([pou.values(y[None]) for y in pts]))


@pytest.mark.parametrize("cols", [1, 3, 8, 9, 12, 40])
def test_row_totals_match_the_column_loop(cols):
    rng = np.random.default_rng(cols)
    mat = rng.uniform(0.0, 1.0, size=(200, cols)) ** 3
    mat[rng.uniform(size=mat.shape) < 0.3] = 0.0
    mat[::7] *= 1e-12
    assert_bitwise(R._row_totals(mat), reference_row_totals(mat))
    assert_bitwise(R._row_totals(mat[:0]), np.zeros(0))


def test_partition_refuses_rows_of_the_wrong_width():
    orbifold, atlas = case("disk_Z4")
    pou = R.PartitionOfUnity(orbifold, atlas)
    with pytest.raises(OutOfDomain, match=r"\(2, 3\)"):
        pou.values(np.zeros((2, 3)))
    with pytest.raises(OutOfDomain, match=r"\(1, 3\)"):
        pou.total(np.zeros(3))
    with pytest.raises(OutOfDomain, match=r"\(2,\)"):
        pou.values(np.zeros(2))
    with pytest.raises(CoverGap):
        R.PartitionOfUnity(orbifold, ())
    # a NaN or an infinity names the first row holding one, before any
    # arithmetic can warn on it
    for bad in (np.nan, np.inf, -np.inf):
        rows = np.full((4, 2), 0.1)
        rows[2, 1] = rows[3, 0] = bad
        with pytest.raises(OutOfDomain, match="partition point 2 is not finite"):
            pou.values(rows)
        with pytest.raises(OutOfDomain, match="partition point 0 is not finite"):
            pou.total(rows[3])
        with pytest.raises(OutOfDomain, match="partition point 2 is not finite"):
            pou.verify(rows)


# the cutoff's edges: zero, the least subnormal, one ulp either side of the
# rim, past it, infinity and NaN
BUMP_POINTS = [0.0, -0.0, 5e-324, 0.5, float(np.nextafter(1.0, 0.0)), 1.0,
               float(np.nextafter(1.0, 2.0)), 2.0, np.inf, np.nan]


@given(st.lists(st.floats(min_value=0.0), max_size=40))
@settings(max_examples=200, deadline=None)
def test_bump_is_the_written_cubic(values):
    u = np.array(BUMP_POINTS + values)
    assert_bitwise(R._bump(u), reference_bump(u))


def test_empty_inputs_give_empty_matrices():
    orbifold, atlas = case("football3")
    pou = R.PartitionOfUnity(orbifold, atlas)
    assert pou.values(np.empty((0, 3))).shape == (0, len(atlas))
    assert pou.verify(np.empty((0, 3))) == (0.0, 0.0)
    assert orbifold.quotient_distances(np.empty((0, 3)),
                                       np.eye(3)).shape == (0, 3)
    assert orbifold.quotient_distances(np.eye(3),
                                       np.empty((0, 3))).shape == (3, 0)


def test_cover_gap_names_the_first_vanishing_grid_point():
    orbifold, atlas = case("football3")
    small = [M.build_chart(orbifold, [0, 0, 1.0], radius=0.2)]
    raws = reference_raw_weights(orbifold, small)
    grid = orbifold.model.grid(24)
    first = next(y for y in grid if sum(r(y) for r in raws) < 1e-12)
    with pytest.raises(CoverGap) as exc:
        R.equivariant_partition_of_unity(orbifold, small)
    assert str(np.round(first, 4)) in str(exc.value)


def test_fold_witness_is_the_first_pair_of_the_loop(football3_atlas):
    orbifold = M.football(3)
    idm = P.identity_map(orbifold, football3_atlas)

    def folding(rows):
        return np.column_stack([rows[:, 0], rows[:, 1], np.abs(rows[:, 2])])

    report = R.verify_diffeo(idm, per_axis=4, underlying_override=folding)
    reps = orbifold.model.project_checked(M.atlas_grid(idm.atlas, 4))
    want = reference_injectivity_witness(orbifold, orbifold.canonicals(reps),
                                         orbifold.canonicals(folding(reps)))
    assert want is not None and report.injectivity_witness is not None
    for got, ref in zip(report.injectivity_witness, reps[list(want)]):
        assert got.tobytes() == ref.tobytes()


def test_kernel_memory_stays_flat_on_an_order_48_group():
    orbifold, atlas = case("S2/Oh")
    rng = np.random.default_rng(3)
    pts = model_points(orbifold, rng.normal(size=(5000, 3)))
    canon = G.canonical_representatives(orbifold.group, pts[:2300])
    pou = R.PartitionOfUnity(orbifold, atlas)
    tracemalloc.start()
    try:
        dists = orbifold.quotient_distances(canon[:2000], canon[2000:])
        vals = pou.values(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # unblocked, the (2000, 48, 300, 3) pair differences alone take 660 MiB
    assert peak < 16 * 2**20
    assert dists.shape == (2000, 300) and vals.shape == (5000, len(atlas))
    assert np.allclose(vals.sum(axis=1), 1.0)
