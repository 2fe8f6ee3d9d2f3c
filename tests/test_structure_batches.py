"""The structure path's batched kernels against the per-element, per-product
and per-edge loops they replace.

Each reference below is the earlier loop written out; outputs must agree bit
for bit, because group labels, strata, atlases and identity lifts feed
reports that are byte-identical for a fixed (config, seed).
"""

import functools
import itertools

import numpy as np
import pytest

from orbidiff import groups as G
from orbidiff import maps as P
from orbidiff import model as M
from orbidiff.errors import ClosureExceeded
from test_kernels import POLYHEDRAL, THIRD_TURN

FIVE_TURN = np.array([
    [0.5, -0.8090169943749475, 0.3090169943749474],
    [0.8090169943749475, 0.3090169943749474, -0.5],
    [0.3090169943749474, 0.5, 0.8090169943749475]])
ICOSAHEDRAL = [THIRD_TURN, np.diag([-1.0, -1.0, 1.0]), FIVE_TURN]
AXIS = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)


def turn_about(u, angle):
    """Rotation by angle about the unit axis u (Rodrigues)."""
    cross = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return (np.cos(angle) * np.eye(3) + (1.0 - np.cos(angle)) * np.outer(u, u)
            + np.sin(angle) * cross)


GENERATORS = {
    "T": POLYHEDRAL["T"],
    "O": POLYHEDRAL["O"],
    "D2h": POLYHEDRAL["D2h"],
    "I": ICOSAHEDRAL,
    "Oh": POLYHEDRAL["Oh"],
    "Ih": ICOSAHEDRAL + [-np.eye(3)],
    "C7": [G.rotation_about_z(2.0 * np.pi / 7)],
    # fixed subspaces with inexact entries: a generic axis, a generic plane
    "C5 tilted": [turn_about(AXIS, 2.0 * np.pi / 5)],
    "mirror tilted": [np.eye(3) - 2.0 * np.outer(AXIS, AXIS)],
}


@functools.cache
def group(name):
    return G.generate_group(GENERATORS[name])


# -- product grids ------------------------------------------------------------------

AXES = {
    "float": np.linspace(-1.0, 1.0, 5),
    "int": np.array((-1, 0, 1)),
    "one float": np.array([0.25]),
    "one int": np.array([7]),
}


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("name", AXES)
def test_product_grid_is_itertools_product(name, k):
    axis = AXES[name]
    want = np.array(list(itertools.product(axis, repeat=k)))
    got = G.product_grid(axis, k)
    assert got.shape == want.shape == (len(axis) ** k, k)
    assert got.tobytes() == want.tobytes()
    # at k = 0 np.array makes the one empty tuple float64 whatever the
    # axis; the grid keeps the axis dtype there too
    assert got.dtype == axis.dtype
    assert got.flags.c_contiguous


# -- group closure ----------------------------------------------------------------

def reference_closure(generators, max_order=G.MAX_ORDER_DEFAULT):
    """(elements, Cayley table) of generate_group with one product, one polar
    step and one re-stacked lookup per (frontier element, generator)."""
    gens = [G.polar_orthonormalize(np.asarray(g, dtype=float)) for g in generators]
    n = gens[0].shape[0]
    found = [np.eye(n)]

    def lookup(m):
        diffs = np.abs(np.stack(found) - m).max(axis=(1, 2))
        best = int(np.argmin(diffs))
        return best if diffs[best] < G.EPS_GRP else None

    frontier = [np.eye(n)]
    while frontier:
        products = [G.polar_orthonormalize(m @ g) for m in frontier for g in gens]
        products.sort(key=G._snap_key)
        next_frontier = []
        for p in products:
            if lookup(p) is None:
                found.append(p)
                next_frontier.append(p)
                if len(found) > max_order:
                    raise ClosureExceeded("past max_order")
        frontier = next_frontier
    stack = np.stack(found)
    cay = np.empty((len(found), len(found)), dtype=int)
    for a in range(len(found)):
        prods = stack[a] @ stack
        diffs = np.abs(prods[:, None] - stack[None]).max(axis=(2, 3))
        cay[a] = np.argmin(diffs, axis=1)
    return stack, cay


@pytest.mark.parametrize("name", GENERATORS)
def test_closure_matches_the_per_product_loop(name):
    stack, cay = reference_closure(GENERATORS[name])
    grp = group(name)
    assert grp.matrices.shape == stack.shape
    assert grp.matrices.tobytes() == stack.tobytes()
    assert grp.cayley.tobytes() == cay.tobytes()


@pytest.mark.parametrize("name", ["T", "D2h", "C7"])
def test_closure_refuses_one_past_max_order_as_the_loop_does(name):
    order = group(name).order
    with pytest.raises(ClosureExceeded):
        reference_closure(GENERATORS[name], max_order=order - 1)
    with pytest.raises(ClosureExceeded):
        G.generate_group(GENERATORS[name], max_order=order - 1)
    assert G.generate_group(GENERATORS[name], max_order=order).order == order


def test_closure_of_drifting_generators_matches_the_loop():
    # products re-orthonormalised each step; inputs off by about 1e-13
    rng = np.random.default_rng(3)
    gens = [g + 1e-13 * rng.standard_normal(g.shape) for g in ICOSAHEDRAL]
    stack, cay = reference_closure(gens)
    grp = G.generate_group(gens)
    assert grp.order == 60
    assert grp.matrices.tobytes() == stack.tobytes()
    assert grp.cayley.tobytes() == cay.tobytes()


# -- fixed subspaces ---------------------------------------------------------------

@pytest.mark.parametrize("name", GENERATORS)
def test_fixed_bases_are_the_per_label_svds(name):
    grp = group(name)
    assert len(grp.fixed_bases) == grp.order
    for lab, basis in enumerate(grp.fixed_bases):
        _, svals, vt = np.linalg.svd(grp.matrix(lab) - np.eye(grp.dimension))
        want = vt[svals < 1e-9]
        assert basis.shape == want.shape
        assert basis.tobytes() == want.tobytes()
        assert not basis.flags.writeable
    assert grp.fixed_bases is grp.fixed_bases      # computed once per group


@pytest.mark.parametrize("name", GENERATORS)
def test_fixed_subspace_matches_the_per_label_blocks(name):
    grp = group(name)
    n = grp.dimension
    blocks = np.concatenate([grp.matrix(a) - np.eye(n) for a in range(grp.order)])
    _, svals, vt = np.linalg.svd(blocks)
    svals = np.concatenate([svals, np.zeros(n - svals.size)])
    want = vt[svals < G.EPS_GRP]
    got = G.fixed_subspace(grp)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- identity lifts ----------------------------------------------------------------

def reference_identity_lifts(orbifold, charts, edges):
    """The assignment rows of enumerate_identity_lifts with one fixing mask
    and one distinct-rows call per overlap edge."""
    grp = orbifold.group
    conj = grp.conjugations
    allowed = {}
    for edge in edges:
        key = (edge.i, edge.j)
        gi, gj = (list(charts[k].isotropy.parent_labels) for k in key)
        fixing = G.fixing_mask(grp, edge.singular_points)
        for row in fixing[G.distinct_rows(fixing)[0]]:
            if row.sum() <= 1:
                continue
            reach = np.zeros((grp.order, len(gj)), dtype=bool)
            reach[conj[np.ix_(np.flatnonzero(row), gj)], np.arange(len(gj))] = True
            allowed[key] = allowed.get(key, True) & reach[conj[edge.eta, gi]]
    rows = np.zeros((1, 0), dtype=int)
    for k, ch in enumerate(charts):
        m = ch.isotropy.order
        rows = np.column_stack([np.repeat(rows, m, axis=0),
                                np.tile(np.arange(m), len(rows))])
        for (i, j), pairs in allowed.items():
            if max(i, j) == k:
                rows = rows[pairs[rows[:, i], rows[:, j]]]
    return tuple(map(tuple, rows.tolist()))


def _lift_cases():
    cases = {name: lambda name=name: M.GoodOrbifold(
        M.ModelSpace(M.SPHERE, 2), group(name), name=f"S2/{name}")
        for name in ("T", "O", "D2h", "Oh")}
    cases["football3"] = lambda: M.football(3)
    cases["disk_Z4"] = lambda: M.disk_mod_rotation(4, radius=2.0)
    cases["mirror"] = lambda: M.plane_mod_reflection(radius=2.0)
    return cases


LIFT_CASES = _lift_cases()


@pytest.mark.parametrize("name", LIFT_CASES)
def test_identity_lifts_match_the_per_edge_loop(name):
    orb = LIFT_CASES[name]()
    atlas = M.build_atlas(orb, resolution=8)
    edges = P.overlap_graph(orb, atlas)
    want = reference_identity_lifts(orb, atlas, edges)
    assert P.enumerate_identity_lifts(orb, atlas, edges=edges).assignments == want
    # edges without singular points, or no edges at all, constrain nothing
    bare = tuple(P.OverlapEdge(e.i, e.j, e.eta, e.singular_points[:0])
                 for e in edges)
    for sub in (bare, ()):
        got = P.enumerate_identity_lifts(orb, atlas, edges=sub).assignments
        assert got == reference_identity_lifts(orb, atlas, sub)
        assert len(got) == np.prod([c.isotropy.order for c in atlas])
