"""The batched orbit, canonical-representative, fixing-mask and overlap
kernels against the per-point loops they replaced.

The reference functions below are the per-point implementations kept as
oracles: outputs must agree bit for bit, because reports and CSV dumps are
byte-identical for a fixed (config, seed).
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
from orbidiff.errors import ClosureExceeded

THIRD_TURN = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
QUARTER_TURN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
POLYHEDRAL = {
    "T": [THIRD_TURN, np.diag([1.0, -1.0, -1.0])],
    "O": [THIRD_TURN, QUARTER_TURN],
    "D2h": [np.diag([-1.0, 1.0, 1.0]), np.diag([1.0, -1.0, 1.0]),
            np.diag([1.0, 1.0, -1.0])],
    "Oh": [THIRD_TURN, QUARTER_TURN, -np.eye(3)],
}


def _groups():
    out = {}
    for p in range(2, 13):
        out[f"Z{p}"] = lambda p=p: G.cyclic_rotation_group(p)
        out[f"D{p}"] = lambda p=p: G.dihedral_group(p)
    for p in (2, 3, 5, 8):
        out[f"football{p}"] = lambda p=p: G.football_rotation_group(p)
    for name, gens in POLYHEDRAL.items():
        out[f"S2/{name}"] = lambda gens=gens: G.generate_group(gens)
    return out


GROUPS = _groups()


@functools.cache
def group(name):
    return GROUPS[name]()


# -- per-point references ------------------------------------------------------

def reference_orbit(grp, point, tol=G.EPS_GRP):
    pts = grp.matrices @ np.asarray(point, dtype=float)
    keep = []
    for p in pts:
        if not any(np.abs(p - q).max() < tol for q in keep):
            keep.append(p)
    keep.sort(key=G._snap_key)
    return np.stack(keep)


def reference_signature(grp, point, tol=G.EPS_GRP):
    x = np.asarray(point, dtype=float)
    moved = np.abs(grp.matrices @ x - x).max(axis=1)
    return tuple(np.nonzero(moved < tol)[0].tolist())


def in_chart(chart, point):
    """The one-point chart test: point within the chart radius of its centre."""
    return chart.orbifold.model.distance(chart.center, point) <= chart.radius


def reference_overlap_graph(orbifold, atlas):
    grp = orbifold.group
    model = orbifold.model
    singular = orbifold.singular_points(48)
    edges = []
    for i, ci in enumerate(atlas):
        for j, cj in enumerate(atlas):
            if j <= i:
                continue
            for lab in range(grp.order):
                if model.distance(grp.act(lab, ci.center), cj.center) >= \
                        ci.radius + cj.radius:
                    continue
                sing = []
                for s in singular:
                    for mu in range(grp.order):
                        w = grp.act(mu, np.asarray(s))
                        if in_chart(ci, w) and in_chart(cj, grp.act(lab, w)):
                            sing.append(w)
                edges.append(P.OverlapEdge(
                    i, j, lab, np.reshape(sing, (-1, grp.dimension))))
    return tuple(edges)


# -- kernels against the references --------------------------------------------

def assert_matches_reference(grp, pts):
    canon = G.canonical_representatives(grp, pts)
    fixing = G.fixing_mask(grp, pts)
    assert canon.shape == pts.shape and fixing.shape == (len(pts), grp.order)
    for k, p in enumerate(pts):
        ref = reference_orbit(grp, p)
        assert G.orbit(grp, p).tobytes() == ref.tobytes()
        assert canon[k].tobytes() == ref[0].tobytes()
        sig = tuple(np.flatnonzero(fixing[k]).tolist())
        assert sig == reference_signature(grp, p)
        # near a fixed point without being fixed, the labels moving p less
        # than tol need not form a subgroup
        if set(grp.cayley[np.ix_(sig, sig)].ravel()) <= set(sig):
            assert G.stabilizer(grp, p).parent_labels == sig
        else:
            with pytest.raises(ClosureExceeded):
                G.stabilizer(grp, p)


# coordinates from a coarse lattice land on mirrors and rotation axes, so
# stabilizers larger than the identity are drawn often; coordinates near
# EPS_GRP give translates within tol of some but not all earlier ones
COORD = st.one_of(st.floats(-1.0, 1.0),
                  st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 0.25]),
                  st.floats(-3.0, 3.0).map(lambda x: x * G.EPS_GRP))


@pytest.mark.parametrize("name", sorted(GROUPS))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_kernels_match_per_point_loops(name, data):
    grp = group(name)
    pts = data.draw(st.lists(st.lists(COORD, min_size=grp.dimension,
                                      max_size=grp.dimension),
                             min_size=1, max_size=6))
    assert_matches_reference(grp, np.array(pts, dtype=float))


@pytest.mark.parametrize("block", [G._BLOCK, 1000, 40])
@pytest.mark.parametrize("name", ["D12", "football8", "S2/Oh"])
def test_kernels_match_across_blocks(name, block, monkeypatch):
    # a smaller block splits the points, and at 1000 and 40 the rows of the
    # close mask too; the points sit on mirrors and axes or within a few
    # EPS_GRP of the fixed origin
    monkeypatch.setattr(G, "_BLOCK", block)
    grp = group(name)
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(300, grp.dimension))
    pts[::3] = np.round(pts[::3])
    pts[1::3] *= G.EPS_GRP
    assert_matches_reference(grp, pts)


# -- row kernels: a row's bits do not depend on the call ------------------------

def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("name", ["Z5", "D6", "football5", "S2/Oh"])
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 64),
       data=st.data())
@settings(max_examples=25, deadline=None)
def test_row_kernels_give_a_row_its_bits_alone(name, seed, size, data):
    """row_apply, row_dot, translates and row_distances give a row the same
    bits at any position of a batch of any size as in a one-row call."""
    grp = group(name)
    n = grp.dimension
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(size, n)) * 10.0 ** rng.integers(-3, 4, size=(size, 1))
    b = rng.normal(size=(size, n))
    m = rng.normal(size=(n, n))
    i = data.draw(st.integers(0, size - 1), label="row")
    one = slice(i, i + 1)
    assert _bits(G.row_apply(m, a)[i]) == _bits(G.row_apply(m, a[one])[0]) \
        == _bits(m @ a[i])
    assert _bits(G.row_apply(grp.matrices[:, None], a)[:, i]) == \
        _bits([g @ a[i] for g in grp.matrices])
    assert _bits(G.row_dot(a, b)[i]) == _bits(G.row_dot(a[one], b[one])[0]) \
        == _bits(np.dot(a[i], b[i]))
    assert _bits(G.translates(grp, a)[i]) == _bits(G.translates(grp, a[one])[0]) \
        == _bits([g @ a[i] for g in grp.matrices])
    flat = M.ModelSpace(M.FLAT, n, radius=2.0)
    assert _bits(flat.row_distances(a, b)[i]) == \
        _bits(flat.row_distances(a[one], b[one])[0])
    if n == 3:
        # unit rows, every other b a rounding step from orthogonal to its a,
        # where the distance kernel switches branch
        u = a / np.linalg.norm(a, axis=1, keepdims=True)
        v = b - (b * u).sum(axis=1, keepdims=True) * u
        v[::2] += rng.uniform(-1e-15, 1e-15, size=(len(v[::2]), 1)) * u[::2]
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        sphere = M.ModelSpace(M.SPHERE, 2)
        assert _bits(sphere.row_distances(u, v)[i]) == \
            _bits(sphere.row_distances(u[one], v[one])[0])


@functools.cache
def z1024():
    # built directly from the rotations and the table of Z_1024, so these
    # kernel tests do not rest on the closure; test_groups checks that
    # generate_group gives the same table
    p = 1024
    labels = np.arange(p)
    return G.FiniteActionGroup(
        [G.rotation_2d(2.0 * np.pi * a / p) for a in labels],
        (labels[:, None] + labels[None]) % p)


def test_close_mask_memory_does_not_grow_with_order_squared():
    grp = z1024()
    p = grp.order
    pts = np.array([[0.6, 0.1], [0.0, 0.0], [0.3 * G.EPS_GRP, 0.0], [-0.2, 0.5]])
    tracemalloc.start()
    try:
        canon = G.canonical_representatives(grp, pts)
        orb = G.orbit(grp, pts[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (4, 1024, 1024) float mask alone would take 32 MiB
    assert peak < 16 * 2**20
    assert len(orb) == p and canon[0].tobytes() == orb[0].tobytes()
    assert len(G.orbit(grp, pts[2])) == 1
    assert np.array_equal(canon[1], [0.0, 0.0])


# -- the distinct-translate certificate -----------------------------------------

def projection_gaps(trans):
    """Least gap between each row's sorted translate projections onto
    cos(1..n), and the certificate margin 2·|u|₁·EPS_GRP (rows below 1e6)."""
    u = np.cos(np.arange(1.0, trans.shape[2] + 1.0))
    proj = np.sort(trans @ u, axis=1)
    return np.diff(proj, axis=1).min(axis=1), 2.0 * np.abs(u).sum() * G.EPS_GRP


def assert_walk_gets_the_uncertified_rows(grp, pts):
    """canonical_representatives hands the pairwise walk exactly the rows
    with two translate projections within the margin, and each result is
    the reference's bit for bit."""
    seen = []
    walk = G._pairwise_walk
    with pytest.MonkeyPatch.context() as m:
        m.setattr(G, "_pairwise_walk",
                  lambda trans, tol: seen.append(trans) or walk(trans, tol))
        canon = G.canonical_representatives(grp, pts)
    trans = G.translates(grp, pts)
    gaps, margin = projection_gaps(trans)
    near = gaps < margin
    walked = np.concatenate(seen) if seen else trans[:0]
    assert walked.tobytes() == trans[near].tobytes()
    for k, p in enumerate(pts):
        assert canon[k].tobytes() == reference_orbit(grp, p)[0].tobytes()
    return near


@pytest.mark.parametrize("name", ["S2/O", "S2/D2h"])
def test_only_rows_near_a_fixed_set_reach_the_walk(name):
    grp = group(name)
    pts = M.ModelSpace(M.SPHERE, 2).grid(32)
    near = assert_walk_gets_the_uncertified_rows(grp, pts)
    # the grid rows on mirrors and rotation axes, and no other
    assert 0 < near.sum() < 0.25 * len(pts)
    assert (G.fixing_mask(grp, pts[near]).sum(axis=1) > 1).all()


# offsets of a few EPS_GRP either side of a fixed set, where translates come
# within tol of some but not all others; at 0.5 two of them are tol apart
OFFSETS = np.array([k * s for k in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0)
                    for s in (1.0, -1.0)]) * G.EPS_GRP


def near_fixed_rows(where):
    """(group, rows) at each offset from a mirror of S²/D2h, from the
    quarter-turn axis of S²/O, or from the fixed origin of Z_1024."""
    off = OFFSETS[:, None]
    if where == "mirror":
        return group("S2/D2h"), np.array([0.6, 0.8, 0.0]) + off * [0.0, 0.0, 1.0]
    if where == "axis":
        return group("S2/O"), np.array([0.0, 0.0, 1.0]) + off * [1.0, 0.3, 0.0]
    return z1024(), np.concatenate([off * [1.0, 0.0], off * [0.7, -1.0]])


@pytest.mark.parametrize("where", ["mirror", "axis", "origin"])
def test_rows_beside_a_fixed_set_match_the_reference(where):
    grp, pts = near_fixed_rows(where)
    assert_walk_gets_the_uncertified_rows(grp, pts)
    for p in pts:
        assert G.orbit(grp, p).tobytes() == reference_orbit(grp, p).tobytes()


def test_rows_far_from_the_origin_match_the_reference():
    # two translates closer than EPS_GRP, at coordinates where rounding the
    # projections moves them by more than that: with the margin fixed at
    # 2·|u|₁·EPS_GRP, 2,666 of 200,000 such rows passed the certificate
    # (x86-64, OpenBLAS)
    grp = G.generate_group([np.diag([1.0, -1.0])])
    rng = np.random.default_rng(0)
    x = rng.uniform(1e7, 1e9, 600)
    y = rng.choice([-1.0, 1.0], 600) * rng.uniform(0.25, 0.49, 600) * G.EPS_GRP
    pts = np.stack([x, y], axis=1)
    canon = G.canonical_representatives(grp, pts)
    for k, p in enumerate(pts):
        ref = reference_orbit(grp, p)
        assert len(ref) == 1
        assert canon[k].tobytes() == ref[0].tobytes()
        assert G.orbit(grp, p).tobytes() == ref.tobytes()


def _zero_margin(trans, tol, certify=G._certify_distinct):
    return certify(trans, 0.0)


def _never_certified(trans, tol):
    return np.zeros(len(trans), dtype=bool)


@pytest.mark.parametrize("plant", [_zero_margin, _never_certified])
def test_planted_certificate_defects_are_caught(plant, monkeypatch):
    # a zero margin clears rows whose translates are closer than tol but not
    # equal; a certificate that never passes sends every row to the walk
    monkeypatch.setattr(G, "_certify_distinct", plant)
    grp, pts = near_fixed_rows("axis")
    pts = np.concatenate([M.ModelSpace(M.SPHERE, 2).grid(16), pts])
    with pytest.raises(AssertionError):
        assert_walk_gets_the_uncertified_rows(grp, pts)


def test_singular_points_are_fixed_canonical_and_distinct():
    orbifold = M.GoodOrbifold(M.ModelSpace(M.SPHERE, 2),
                              group("S2/Oh"), name="S2/Oh")
    pts = orbifold.singular_points(16)
    assert pts.shape[1] == 3 and len(pts) > 0
    assert (G.fixing_mask(orbifold.group, pts).sum(axis=1) > 1).all()
    assert np.array_equal(G.canonical_representatives(orbifold.group, pts), pts)
    assert len({G._snap_key(p) for p in pts}) == len(pts)


def _edge_bytes(edges):
    return [(e.i, e.j, e.eta, e.singular_points.shape,
             e.singular_points.tobytes()) for e in edges]


@pytest.mark.parametrize("build, resolution, carries_singular", [
    (M.plane_mod_reflection, 16, True),
    (lambda: M.disk_mod_dihedral(4), 13, True),
    (lambda: M.GoodOrbifold(M.ModelSpace(M.SPHERE, 2),
                            group("S2/T"), name="S2/T"), 16, False),
    (lambda: M.GoodOrbifold(M.ModelSpace(M.SPHERE, 2),
                            group("S2/O"), name="S2/O"), 16, False),
])
def test_overlap_graph_matches_reference_loop(build, resolution, carries_singular,
                                              monkeypatch):
    # blocks of 50 and 7 split the chart centres, as rows and as targets,
    # and the singular points into tiles
    orbifold = build()
    atlas = M.build_atlas(orbifold, resolution=resolution)
    want = _edge_bytes(reference_overlap_graph(orbifold, atlas))
    for block in (G._BLOCK, 50, 7):
        monkeypatch.setattr(G, "_BLOCK", block)
        edges = P.overlap_graph(orbifold, atlas)
        assert _edge_bytes(edges) == want
        assert any(e.singular_points.size for e in edges) == carries_singular
