"""Strata components, action linearization and identity-lift conjugation
against the per-point code they replaced.

The reference functions below are the per-point implementations kept as
oracles: outputs must agree bit for bit, because reports and CSV dumps are
byte-identical for a fixed (config, seed).  Each batched step also gets a
planted defect that these comparisons turn red.
"""

import functools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from orbidiff import groups as G
from orbidiff import maps as P
from orbidiff import model as M
from orbidiff import riemann as R
from orbidiff import tangent as T
from orbidiff.errors import ChartMismatch
from orbidiff.groups import rotation_2d, rotation_about_z, row_apply
from test_kernels import POLYHEDRAL, in_chart


def _sphere(name):
    return lambda: M.GoodOrbifold(M.ModelSpace(M.SPHERE, 2),
                                  G.generate_group(POLYHEDRAL[name]),
                                  name=f"S2/{name}")


ORBIFOLDS = {
    "S2/T": _sphere("T"),
    "S2/O": _sphere("O"),
    "S2/D2h": _sphere("D2h"),
    "S2/Oh": _sphere("Oh"),
    "football3": lambda: M.football(3),
    "football5": lambda: M.football(5),
    "disk_Z4": lambda: M.disk_mod_rotation(4),
    "disk_D4": lambda: M.disk_mod_dihedral(4),
    "disk_D6": lambda: M.disk_mod_dihedral(6),
    "mirror": M.plane_mod_reflection,
    "line": M.line_mod_flip,
    "corner": lambda: M.product(M.line_mod_flip(1.0), M.line_mod_flip(1.0)),
    "manifold": lambda: M.manifold_disk(2),
}


# strata only: the 3-D flat rows of B3/T; its 17-chart atlas is too slow for
# the loops over ORBIFOLDS
STRATA_ONLY = {
    "B3/T": lambda: M.GoodOrbifold(M.ModelSpace(M.FLAT, 3),
                                   G.generate_group(POLYHEDRAL["T"]), name="B3/T"),
}


@functools.cache
def orbifold(name):
    return {**ORBIFOLDS, **STRATA_ONLY}[name]()


# -- per-point references --------------------------------------------------------

def reference_first_by_key(pts):
    first = {}
    for i, key in enumerate(map(tuple, G._snap(pts).tolist())):
        first.setdefault(key, i)
    return list(first.values()), list(first)


def reference_strata_input(orb, resolution):
    """Deduplicated sample points, their keys and signatures, the threshold."""
    model = orb.model
    pts = np.concatenate([
        G.canonical_representatives(orb.group, model.grid(resolution)),
        orb.singular_points(resolution)])
    idx, keys = reference_first_by_key(pts)
    points = pts[idx]
    sigs = [tuple(np.flatnonzero(row).tolist())
            for row in G.fixing_mask(orb.group, points)]
    thresh = 1.6 * model.grid_spacing(resolution)
    if model.kind == M.SPHERE:
        thresh = 2.0 * np.sin(min(thresh, np.pi) / 2.0)
    return points, keys, sigs, thresh


def reference_hits(orb, points, thresh):
    """Every (moved point, sample) pair within thresh, element by element."""
    tree = cKDTree(points)
    for lab in range(orb.group.order):
        moved = points @ orb.group.matrix(lab).T
        for i, hits in enumerate(tree.query_ball_point(moved, r=thresh)):
            for j in hits:
                yield i, j


def reference_strata(orb, resolution):
    """model.strata with a union-find over every query_ball_point hit."""
    points, keys, sigs, thresh = reference_strata_input(orb, resolution)
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in reference_hits(orb, points, thresh):
        if sigs[i] == sigs[j]:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

    components = {}
    for i in range(len(points)):
        components.setdefault((sigs[i], find(i)), []).append(i)
    out = []
    for cid, ((sig, _), idxs) in enumerate(sorted(
            components.items(),
            key=lambda kv: (-len(kv[0][0]), kv[0][0],
                            min(keys[i] for i in kv[1])))):
        sample = points[sorted(idxs, key=lambda i: keys[i])]
        out.append(M.Stratum(orb, sig, cid, sample, resolution))
    return out


def reference_build_atlas(orb, resolution=16, max_charts=128):
    """model.build_atlas with a dict walk over keys and a sort per pass."""
    model = orb.model

    def ordered_samples(res):
        grid = model.verification_domain(model.grid(res))
        pts = np.concatenate([model.verification_domain(orb.singular_points(res)),
                              G.canonical_representatives(orb.group, grid)])
        idx, keys = reference_first_by_key(pts)
        orders = G.fixing_mask(orb.group, pts[idx]).sum(axis=1)
        ranked = sorted(range(len(idx)), key=lambda r: (-orders[r], keys[r]))
        return pts[[idx[r] for r in ranked]]

    def covered(charts, pts):
        # the chart-by-chart loop build_atlas ran before chart_hits
        trans = G.translates(orb.group, pts)
        out = np.zeros(len(trans), dtype=bool)
        for ch in charts:
            dists = model.distances(trans.reshape(-1, trans.shape[2]), ch.center)
            out |= dists.reshape(trans.shape[:2]).min(axis=1) <= ch.radius * 0.999
        return out

    charts = []
    for res in (resolution, 2 * resolution - 1, M.COVERAGE_RESOLUTION):
        samples = ordered_samples(res)
        done = covered(charts, samples)
        for i, s in enumerate(samples):
            if done[i]:
                continue
            charts.append(M.build_chart(orb, s))
            done |= covered(charts[-1:], samples)
    return tuple(charts)


def reference_components(n, edges):
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in edges:
        ri, rj = find(i), find(j)
        parent[max(ri, rj)] = min(ri, rj)
    return [find(i) for i in range(n)]


def reference_fd_jacobian(f, x, step=G.FD_STEP):
    x = np.asarray(x, dtype=float)
    fx = np.asarray(f(x), dtype=float)
    jac = np.empty((fx.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        jac[:, j] = (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * step)
    return jac


def reference_linearize(action, samples):
    """linearize_action one point per map call; returns the chart map on one
    point and the two residuals."""
    group = action.group

    def one(f, y):
        return np.asarray(f(y[None]), dtype=float)[0]

    def chart_map(y):
        acc = np.zeros_like(y)
        for lab in range(group.order):
            acc = acc + action.linearizations[lab] @ one(
                action.maps[group.inverse(lab)], y)
        return acc / group.order

    conj = 0.0
    for lab in range(group.order):
        for y in samples:
            lhs = chart_map(one(action.maps[lab], y))
            rhs = action.linearizations[lab] @ chart_map(y)
            conj = max(conj, float(np.abs(lhs - rhs).max()))
    dres = float(np.abs(reference_fd_jacobian(chart_map, np.zeros(group.dimension))
                        - np.eye(group.dimension)).max())
    return chart_map, conj, dres


def reference_source_chart(atlas, grp, z):
    """The first chart_hits hit of z, one one-point chart test per (chart, label)."""
    for k, ck in enumerate(atlas):
        for lab in range(grp.order):
            if in_chart(ck, grp.act(lab, z)):
                return k, lab
    return None


def reference_conjugate_identity_lift(id_group, assignment, g, tol=1e-8):
    """riemann.conjugate_identity_lifts of one assignment, redoing the
    map-only work per call."""
    orb = id_group.orbifold
    grp = orb.group
    out = []
    for chart in id_group.atlas:
        z = np.asarray(g.inverse_lift(chart.center[None]), dtype=float)[0]
        source = reference_source_chart(id_group.atlas, grp, z)
        if source is None:
            return None
        k, lab = source
        gk_global = id_group.atlas[k].isotropy.parent_labels[assignment[k]]
        germ = grp.matrix(grp.conjugate(grp.inverse(lab), gk_global))
        pts = chart.sample_points(per_axis=4)
        vals = np.asarray(g.global_lift(row_apply(germ, g.inverse_lift(pts))),
                          dtype=float)
        match = None
        for loc in range(chart.isotropy.order):
            m = chart.isotropy.matrix(loc)
            if float(np.abs(vals - row_apply(m, pts)).max()) <= tol:
                match = loc
                break
        if match is None:
            return None
        out.append(match)
    return tuple(out)


# -- strata ----------------------------------------------------------------------------

def assert_strata_match(orb, resolution):
    got = M.strata(orb, resolution)
    want = reference_strata(orb, resolution)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.signature, g.component_id, g.resolution) == \
            (w.signature, w.component_id, w.resolution)
        assert g.sample_points.tobytes() == w.sample_points.tobytes()


@given(name=st.sampled_from(sorted(ORBIFOLDS)), resolution=st.integers(3, 32),
       budget=st.sampled_from([7, 256, 500, G._BLOCK]))
@settings(max_examples=40, deadline=None)
def test_strata_match_union_find(name, resolution, budget):
    # small budgets split the moved points of each element into many queries
    with mock.patch.object(G, "_BLOCK", budget):
        assert_strata_match(orbifold(name), resolution)


@pytest.mark.parametrize("name,resolution", [
    ("football3", 64), ("football5", 40), ("S2/Oh", 32), ("S2/D2h", 48),
    ("disk_D6", 33), ("corner", 21), ("line", 64)])
def test_strata_at_suite_resolutions(name, resolution):
    assert_strata_match(orbifold(name), resolution)


@pytest.mark.parametrize("budget", [7, 256, 500, G._BLOCK])
@pytest.mark.parametrize("name,resolution", [
    ("football3", 64), ("S2/O", 32), ("S2/D2h", 48), ("disk_D4", 25),
    ("line", 40), ("B3/T", 16)])
def test_edge_set_matches_query_ball_point(name, resolution, budget):
    orb = orbifold(name)
    seen = []
    merge = M._merge

    def recording(labels, codes, heads, tails):
        seen.append(np.stack([heads, tails]))
        return merge(labels, codes, heads, tails)

    with mock.patch.object(G, "_BLOCK", budget), \
            mock.patch.object(M, "_merge", recording):
        M.strata(orb, resolution)
    points, _, _, thresh = reference_strata_input(orb, resolution)
    got = np.concatenate(seen, axis=1)
    want = np.array(list(reference_hits(orb, points, thresh))).T
    # the same pairs as often, whatever order each query returns them in
    assert got.shape == want.shape
    assert np.array_equal(got[:, np.lexsort(got[::-1])],
                          want[:, np.lexsort(want[::-1])])


def test_strata_memory_stays_within_the_candidate_budget():
    # the football's grid is about ten times denser near the poles, where
    # 256 rows at once would hold about 100k candidate pairs
    orb = M.football(3)
    tracemalloc.start()
    try:
        got = M.strata(orb, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20
    assert len(got) == 3


def assert_close_pairs_match(points, query, thresh):
    """The index pairs (i, j) with |query[i] - points[j]| <= thresh, i
    ascending, from one `M._cell_list` of the (k, n) sample rows, against
    cKDTree.query_ball_point; returns the pairs."""
    points = np.asarray(points, dtype=float)
    query = np.asarray(query, dtype=float)
    ranges, pairs = M._cell_list(points, thresh)
    heads, tails = pairs(query, *ranges(query))
    assert np.all(np.diff(heads) >= 0)
    got = sorted(zip(heads.tolist(), tails.tolist()))
    want = sorted((i, j) for i, hits in enumerate(
        cKDTree(points).query_ball_point(query, r=thresh)) for j in hits)
    assert got == want
    return got


def test_close_pairs_keep_rows_exactly_thresh_apart():
    # dyadic rows: every squared distance below is exact
    points = [[0.0, 0.0], [0.25, 0.0], [-0.25, 0.0], [0.5, 0.0], [0.0, -0.25],
              [0.125, 0.125], [0.25, 0.25]]
    got = assert_close_pairs_match(points, points, 0.25)
    assert (0, 1) in got and (0, 2) in got and (1, 3) in got and (0, 4) in got
    assert (0, 3) not in got
    # on a diagonal: (1/2, 1/2, 1/2, 1/2) is one unit from the origin
    diag = [[0.0] * 4, [0.5] * 4, [-0.5] * 4, [0.5, -0.5, 0.5, -0.5]]
    got = assert_close_pairs_match(diag, diag, 1.0)
    assert (0, 1) in got and (0, 2) in got and (0, 3) in got
    assert (1, 2) not in got


def test_close_pairs_sum_squares_left_to_right():
    # a row whose verdict at this threshold flips with the order of the sum
    rng = np.random.default_rng(7)
    for d in rng.normal(size=(4000, 3)):
        sq = d * d
        thresh = float(np.sqrt((sq[0] + sq[1]) + sq[2]))
        ours = (sq[0] + sq[1]) + sq[2] <= thresh * thresh
        if ours != (sq[0] + (sq[1] + sq[2]) <= thresh * thresh):
            break
    else:
        pytest.fail("no order-sensitive row found")
    got = assert_close_pairs_match([np.zeros(3)], [d], thresh)
    assert got == ([(0, 0)] if ours else [])


def test_close_pairs_on_negative_cell_boundaries():
    axis = [-0.5, -0.25, -0.0, 0.0, 0.25]
    grid = np.array([[x, y] for x in axis for y in axis])
    assert_close_pairs_match(grid, grid, 0.25)
    # one ulp either side of each boundary
    assert_close_pairs_match(grid, np.nextafter(grid, 1.0), 0.25)
    assert_close_pairs_match(np.nextafter(grid, -1.0), grid, 0.25)
    assert_close_pairs_match(grid[:, :1], grid[:, 1:] - 0.25, 0.25)


def test_close_pairs_with_one_sample_row():
    query = [[0.1, 0.2], [0.1, 0.2 + 0.3], [0.4, 0.6], [-0.1, 0.0]]
    got = assert_close_pairs_match([[0.1, 0.2]], query, 0.3)
    assert (0, 0) in got and (2, 0) not in got


def test_close_pairs_on_one_dimensional_rows():
    points = np.linspace(-2.0, 2.0, 21)[:, None]
    query = np.concatenate([points, -points[::-1], points + 0.1])
    got = assert_close_pairs_match(points, query, 0.2)
    assert len(got) > len(query)


def test_close_pairs_with_query_rows_outside_the_samples_box():
    rng = np.random.default_rng(3)
    points = rng.uniform(-1.0, 1.0, size=(60, 3))
    query = np.concatenate([
        [[5.0, 0.0, 0.0], [-40.0, 3.0, 2.0], [0.0, 0.0, -1e150]],
        points * 1.15, points + [0.0, 0.0, 2.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no cell index overflows
        got = assert_close_pairs_match(points, query, 0.35)
    assert not [i for i, _ in got if i < 3]
    assert [i for i, _ in got if i >= 3]


@given(n=st.integers(1, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_close_pairs_match_query_ball_point(n, data):
    thresh = data.draw(st.sampled_from([0.25, 0.3, 0.5, 1.0]))
    # coordinates on a grid of quarter thresholds make many ties
    coord = st.one_of(st.integers(-12, 12).map(lambda i: i * thresh / 4),
                      st.floats(-3.0, 3.0))
    row = st.lists(coord, min_size=n, max_size=n)
    points = data.draw(st.lists(row, min_size=1, max_size=30))
    query = data.draw(st.lists(row, min_size=0, max_size=30))
    assert_close_pairs_match(points, np.reshape(query, (-1, n)), thresh)


@given(n=st.integers(1, 12), data=st.data())
@settings(max_examples=60, deadline=None)
def test_merge_matches_union_find(n, data):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)), max_size=20))
    cut = data.draw(st.integers(0, len(pairs)))
    heads = np.array([i for i, _ in pairs], dtype=int)
    tails = np.array([j for _, j in pairs], dtype=int)
    labels = np.arange(n)
    codes = np.zeros(n, dtype=int)
    # two batches, as consecutive query blocks arrive
    first = M._merge(labels, codes, heads[:cut], tails[:cut])
    out = M._merge(first, codes, heads[cut:], tails[cut:])
    assert out.tolist() == reference_components(n, pairs)
    assert labels.tolist() == list(range(n))     # the caller's labels stay


def test_merge_keeps_codes_apart():
    codes = np.array([0, 1, 1, 0])
    out = M._merge(np.arange(4), codes, np.array([0, 1, 2]), np.array([1, 2, 3]))
    assert out.tolist() == [0, 1, 1, 3]


def one_round_merge(labels, codes, heads, tails):
    """A planted defect: a single hooking round."""
    same = codes[heads] == codes[tails]
    a, b = labels[heads[same]], labels[tails[same]]
    labels = labels.copy()
    np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
    while not np.array_equal(labels[labels], labels):
        labels = labels[labels]
    return labels


def test_planted_one_round_merge_is_caught():
    # hooking 2 under 0 and under 1 at once keeps 0; node 1 needs a second round
    heads, tails = np.array([0, 1]), np.array([2, 2])
    codes = np.zeros(3, dtype=int)
    want = reference_components(3, [(0, 2), (1, 2)])
    assert M._merge(np.arange(3), codes, heads, tails).tolist() == want
    assert one_round_merge(np.arange(3), codes, heads, tails).tolist() != want


def test_planted_merge_ignoring_codes_is_caught():
    merge = M._merge

    def ignoring(labels, codes, heads, tails):
        return merge(labels, np.zeros_like(codes), heads, tails)

    with mock.patch.object(M, "_merge", ignoring):
        with pytest.raises(AssertionError):
            assert_strata_match(orbifold("football3"), 16)


def test_strata_memory_is_bounded():
    fb = orbifold("football3")
    M.strata(fb, 16)
    tracemalloc.start()
    try:
        M.strata(fb, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one unblocked edge list of the 473k kept edges peaks near 37 MB; blocks
    # of moved points merged as they come stay near 5 MB
    assert peak < 12 * 2 ** 20


# -- keys, singular points and the atlas --------------------------------------------------

KEY_COORD = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
                      st.floats(-1.0, 1.0),
                      st.floats(-3.0, 3.0).map(lambda x: 0.5 + x * 1e-10))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_first_by_key_matches_dict_walk(data):
    n = data.draw(st.integers(1, 3))
    pts = np.array(data.draw(st.lists(st.lists(KEY_COORD, min_size=n, max_size=n),
                                      max_size=12)), dtype=float).reshape(-1, n)
    idx, ranks = M._first_by_key(pts)
    want_idx, keys = reference_first_by_key(pts)
    assert idx.tolist() == want_idx
    assert np.argsort(ranks).tolist() == sorted(range(len(keys)),
                                                key=lambda r: keys[r])


@pytest.mark.parametrize("name", sorted(ORBIFOLDS))
def test_singular_points_and_atlas_match_reference(name):
    orb = orbifold(name)
    for res in (9, M.COVERAGE_RESOLUTION):
        pts = orb.singular_points(res)
        reps = np.concatenate([pts, pts[::-1]])
        assert M._first_by_key(reps)[0].tolist() == \
            reference_first_by_key(reps)[0]
        got = M.build_atlas(orb, resolution=res)
        want = reference_build_atlas(orb, resolution=res)
        assert [(c.center.tobytes(), c.radius, c.isotropy.parent_labels)
                for c in got] == \
            [(c.center.tobytes(), c.radius, c.isotropy.parent_labels)
             for c in want]


def test_atlas_builds_each_sample_set_once(monkeypatch):
    calls = []
    singular = M.GoodOrbifold.singular_points

    def counting(self, resolution=16):
        calls.append(resolution)
        return singular(self, resolution)

    monkeypatch.setattr(M.GoodOrbifold, "singular_points", counting)
    M.build_atlas(orbifold("football3"), resolution=M.COVERAGE_RESOLUTION)
    assert calls == [16, 31]
    calls.clear()
    M.build_atlas(orbifold("football3"), resolution=9)
    assert calls == [9, 17, 16]


# -- linearization -----------------------------------------------------------------------

def bent_action(group, bend):
    """group conjugated by h(x, y) = (x + bend y^2, y), on (k, 2) rows."""
    def h(pts):
        return np.stack([pts[:, 0] + bend * pts[:, 1] ** 2, pts[:, 1]], axis=1)

    def h_inv(pts):
        return np.stack([pts[:, 0] - bend * pts[:, 1] ** 2, pts[:, 1]], axis=1)

    maps = tuple(lambda pts, m=m: h(row_apply(m, h_inv(np.asarray(pts, dtype=float))))
                 for m in group.matrices)
    return G.NonlinearActionSample(group, maps, tuple(group.matrices), radius=1.0)


def bent_flip():
    def h(y):
        return y + 0.1 * y ** 3

    def h_inv(y):
        out = np.asarray(y, dtype=float).copy()
        for _ in range(60):
            out = out - (out + 0.1 * out ** 3 - y) / (1.0 + 0.3 * out ** 2)
        return out

    return G.NonlinearActionSample(
        G.sign_flip_group(),
        (lambda y: np.asarray(y, dtype=float),
         lambda y: h(-h_inv(np.asarray(y, dtype=float)))),
        (np.eye(1), -np.eye(1)), radius=1.0)


def assert_linearization_matches(action, samples):
    result = G.linearize_action(action, samples)
    chart_map, conj, dres = reference_linearize(action, samples)
    assert result.conjugacy_residual == conj
    assert result.differential_residual == dres
    assert result.sample_count == len(samples)
    assert result.chart_map(samples).tobytes() == \
        np.stack([chart_map(y) for y in samples]).tobytes()


@given(p=st.integers(2, 6), dihedral=st.booleans(),
       bend=st.floats(-0.3, 0.3), data=st.data())
@settings(max_examples=25, deadline=None)
def test_linearize_matches_per_point(p, dihedral, bend, data):
    group = G.dihedral_group(p) if dihedral else G.cyclic_rotation_group(p)
    radius = st.floats(0.0, 0.6)
    angle = st.floats(0.0, 2.0 * np.pi)
    polar = data.draw(st.lists(st.tuples(radius, angle), min_size=1, max_size=9))
    samples = np.array([[r * np.cos(t), r * np.sin(t)] for r, t in polar])
    assert_linearization_matches(bent_action(group, bend), samples)


def test_linearize_bent_flip_matches_per_point():
    # the line flip of the group suite, at its 101 samples
    assert_linearization_matches(bent_flip(), np.linspace(-0.9, 0.9, 101)[:, None])


def test_fd_jacobian_matches_per_point():
    f = bent_action(G.dihedral_group(3), 0.2).maps[1]
    x = np.array([0.1, -0.2])
    want = reference_fd_jacobian(lambda y: f(y[None])[0], x)
    assert G.fd_jacobian(f, x).tobytes() == want.tobytes()


# -- identity-lift conjugation ---------------------------------------------------------------

@functools.cache
def conjugation_case(name):
    # rotations that normalize the group, so they are orbifold maps
    orb, resolution, angles = {
        "football3": (orbifold("football3"), 20, (0.8, 2.1)),
        "disk_Z4": (orbifold("disk_Z4"), 13, (0.8, 2.1)),
        "disk_D4": (orbifold("disk_D4"), 13, (np.pi / 4, 3 * np.pi / 4)),
        # in D3, unlike D4, conjugating by r and by r^-1 differ
        "disk_D3": (M.disk_mod_dihedral(3), 13, (np.pi / 3, 2 * np.pi / 3))}[name]
    atlas = M.build_atlas(orb, resolution=resolution)
    ids = P.enumerate_identity_lifts(orb, atlas)
    exp_map = R.ExpMap.closed_form(orb)
    gen = np.random.default_rng(50)
    rotate = rotation_about_z if orb.model.kind == M.SPHERE else rotation_2d
    flip = np.diag([1.0, -1.0, -1.0]) if orb.model.kind == M.SPHERE else \
        np.diag([1.0, -1.0])
    maps = [P.map_from_global(
        orb, orb, lambda pts, a=a: row_apply(rotate(a), pts), atlas,
        inverse=lambda pts, a=a: row_apply(rotate(-a), pts))
        for a in angles]
    maps.append(P.map_from_global(orb, orb, lambda pts: row_apply(flip, pts),
                                  atlas, inverse=lambda pts: row_apply(flip, pts)))
    for _ in range(2):
        sigma = T.random_orbisection(orb, atlas, gen, 0.04)
        maps.append(R.E_apply(sigma, exp_map))
    return ids, maps


@pytest.mark.parametrize("name", ["football3", "disk_Z4", "disk_D4", "disk_D3"])
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_conjugations_match_per_assignment(name, data):
    ids, maps = conjugation_case(name)
    g = data.draw(st.sampled_from(maps))
    # a tolerance of 0 leaves only exact matches, so some assignments die
    # part of the way through the atlas
    tol = data.draw(st.sampled_from([1e-8, 1e-14, 0.0]))
    # any germ per chart, not only identity lifts, so every deck element
    # that transports a germ meets a germ it does not commute with
    any_lift = st.tuples(*(st.integers(0, ch.isotropy.order - 1) for ch in ids.atlas))
    chosen = data.draw(st.lists(st.sampled_from(ids.assignments) | any_lift,
                                min_size=1, max_size=12))
    got = R.conjugate_identity_lifts(ids, chosen, g, tol)
    assert got == [reference_conjugate_identity_lift(ids, a, g, tol) for a in chosen]
    assert [R.conjugate_identity_lifts(ids, [a], g, tol)[0] for a in chosen] == got


@pytest.mark.parametrize("name,resolution", [
    ("football3", 20), ("S2/T", 8), ("disk_D4", 13)])
def test_source_chart_matches_the_chart_by_label_loop(name, resolution):
    # chart centres, points a chart radius from them, where the slack-0 test
    # decides by the last bit, and random points; the one-chart atlas leaves
    # most points without a source
    orb = orbifold(name)
    model = orb.model
    atlas = M.build_atlas(orb, resolution=resolution)
    rng = np.random.default_rng(21)
    rows = [orb.random_row(rng) for _ in range(40)]
    for ch in atlas:
        frame = model.tangent_basis(ch.center)
        dirs = np.concatenate([frame, -frame, (frame[:1] + frame[-1:]) / np.sqrt(2.0)])
        rows += [ch.center, *model.geo_exp(np.broadcast_to(ch.center, dirs.shape),
                                           ch.radius * dirs)]
    got = {}
    for sub in (atlas, atlas[:1]):
        source, deck = M.first_hits(M.chart_hits(orb, sub, np.array(rows)))
        got[len(sub)] = [None if k < 0 else (k, lab)
                         for k, lab in zip(source.tolist(), deck.tolist())]
        assert got[len(sub)] == [reference_source_chart(sub, orb.group, z)
                                 for z in rows]
    assert None in got[1] and None not in got[len(atlas)]
    assert any(lab > 0 for _, lab in got[len(atlas)])


def reference_chart_hits(orb, atlas, rows, factor):
    """model.chart_hits, one one-point distance per (row, label, chart)."""
    grp = orb.group
    out = np.zeros((len(rows), grp.order, len(atlas)), dtype=bool)
    for i, y in enumerate(rows):
        for lab in range(grp.order):
            w = grp.act(lab, y)
            for c, ch in enumerate(atlas):
                out[i, lab, c] = orb.model.distance(ch.center, w) <= ch.radius * factor
    return out


def reference_first_hit(hits_row):
    """The first (chart, label) of one row's (order, charts) hits, charts
    outermost."""
    for c in range(hits_row.shape[1]):
        for lab in range(hits_row.shape[0]):
            if hits_row[lab, c]:
                return c, lab
    return None


CHART_HIT_CASES = ["football3", "S2/T", "disk_D4", "line", "B3/T"]


@functools.cache
def chart_hit_case(name):
    """An atlas and rows: centres, rows one chart radius from each centre,
    random rows, tiled past one chart_hits block."""
    orb = orbifold(name)
    model = orb.model
    atlas = M.build_atlas(orb)
    rng = np.random.default_rng(8)
    base = [orb.random_row(rng) for _ in range(30)]
    for ch in atlas:
        frame = model.tangent_basis(ch.center)
        dirs = np.concatenate([frame, -frame, (frame[:1] + frame[-1:]) / np.sqrt(2.0)])
        base += [ch.center, *model.geo_exp(np.broadcast_to(ch.center, dirs.shape),
                                           ch.radius * dirs)]
    block = G.block_rows(orb.group.order, orb.model.ambient_dim, len(atlas))
    rows = np.tile(base, (block // len(base) + 2, 1))
    assert len(rows) > block
    return orb, atlas, rows


@pytest.mark.parametrize("name", CHART_HIT_CASES)
@pytest.mark.parametrize("factor", [1.0, 0.999, 1.0 + 1e-9])
def test_chart_hits_match_the_one_point_loop(name, factor, monkeypatch):
    # blocks of 50 and 7 split the rows, and the charts too, into tiles
    orb, atlas, rows = chart_hit_case(name)
    want = reference_chart_hits(orb, atlas, rows, factor)
    first = [reference_first_hit(w) for w in want]
    for block in (G._BLOCK, 50, 7):
        monkeypatch.setattr(G, "_BLOCK", block)
        hits = M.chart_hits(orb, atlas, rows, factor)
        assert hits.shape == want.shape and np.array_equal(hits, want)
        source, deck = M.first_hits(hits)
        assert [None if k < 0 else (k, lab)
                for k, lab in zip(source.tolist(), deck.tolist())] == first


def test_chart_hit_cases_see_every_ordering():
    # rows on a chart's edge, rows with several hits, and rows whose first
    # hit in label-major order is another, so each rule of the kernel and
    # of first_hits decides some entry
    edge = several = label_major = False
    for name in CHART_HIT_CASES:
        orb, atlas, rows = chart_hit_case(name)
        hits = M.chart_hits(orb, atlas, rows)
        centres, radii = M.stacked_charts(orb, atlas)
        dists = orb.model.row_distances(G.translates(orb.group, rows)[:, :, None],
                                        centres)
        edge |= bool((dists == radii).any())
        several |= bool((hits.sum(axis=(1, 2)) > 1).any())
        source, _ = M.first_hits(hits)
        # charts as labels: the second array holds the label-major chart
        _, by_label = M.first_hits(np.swapaxes(hits, 1, 2))
        label_major |= bool((source[source >= 0] != by_label[source >= 0]).any())
    assert edge and several and label_major


def test_chart_hits_on_an_empty_atlas():
    orb, _, rows = chart_hit_case("football3")
    hits = M.chart_hits(orb, (), rows[:5])
    assert hits.shape == (5, orb.group.order, 0)
    source, _ = M.first_hits(hits)
    assert source.tolist() == [-1] * 5
    assert M.first_hits(M.chart_hits(orb, (), rows[:0]))[0].shape == (0,)


def test_conjugations_cover_every_outcome():
    # the cases above see both results: images and failures
    ids, maps = conjugation_case("football3")
    images = [R.conjugate_identity_lifts(ids, ids.assignments, g, tol)
              for g in maps for tol in (1e-8, 0.0)]
    flat = [im for per_g in images for im in per_g]
    assert any(im is None for im in flat) and any(im is not None for im in flat)


def test_planted_swapped_germ_is_caught():
    ids, maps = conjugation_case("football3")
    flip = maps[2]
    want = [reference_conjugate_identity_lift(ids, a, flip) for a in ids.assignments]
    assert R.conjugate_identity_lifts(ids, ids.assignments, flip) == want

    def swapped(m, pts):
        # the stack of germs comes in reversed, so each germ gets another's values
        return row_apply(m[::-1] if np.ndim(m) == 4 else m, pts)

    with mock.patch.object(R, "row_apply", swapped):
        assert R.conjugate_identity_lifts(ids, ids.assignments, flip) != want


def test_conjugation_needs_both_lifts():
    ids, maps = conjugation_case("football3")
    bare = P.map_from_global(ids.orbifold, ids.orbifold, lambda pts: pts, ids.atlas)
    with pytest.raises(ChartMismatch):
        R.conjugate_identity_lifts(ids, ids.assignments, bare)


def test_quotient_check_matches_per_assignment_loop():
    ids, maps = conjugation_case("football3")
    report = R.reduced_group_quotient_check(ids, maps)
    want = all(image is not None and ids.contains(image)
               for g in maps for image in
               (reference_conjugate_identity_lift(ids, a, g)
                for a in ids.assignments[:12]))
    assert report.conjugation_closed == want


# -- random sections the averaging cancels ---------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cancelled_random_section_is_not_rescaled(seed):
    orb = orbifold("S2/Oh")
    atlas = M.build_atlas(orb, resolution=8)
    sigma = T.random_orbisection(orb, atlas, np.random.default_rng(seed))
    # the O_h average of the quadratic raw field is zero: the section stays
    # at rounding level instead of being blown up to the C^1 bound
    assert T.seminorm(sigma, 1) < 1e-9
    f = R.E_apply(sigma, R.ExpMap.closed_form(orb))
    pole = np.array([[0.0, 0.0, 1.0]])
    assert np.abs(f.global_lift(f.inverse_lift(pole)) - pole).max() < 1e-12
