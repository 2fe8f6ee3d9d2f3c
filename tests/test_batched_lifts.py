"""Orbisection fields, map lifts and the exponential map on (k, n) rows.

Every field and lift the library builds maps (k, n) rows to (k, m) rows,
each row independent of the others in the call.  The per-point code they
replaced is kept below as the reference: every entry must agree with it bit
for bit, because reports and CSV dumps are byte-identical for a fixed
(config, seed).
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbidiff import groups as G
from orbidiff import maps as P
from orbidiff import model as M
from orbidiff import riemann as R
from orbidiff import tangent as T
from orbidiff.config import DEFAULT_FOOTBALL3, parse_config
from orbidiff.errors import NotCloseToIdentity, OutOfDomain
from orbidiff.groups import row_apply
from test_field_kernels import (CASES, QUARTER_TURN, THIRD_TURN, assert_bitwise,
                                case, draw_points)

STEP = 1e-5


# -- per-point references --------------------------------------------------------

def reference_geo_exp(model, x, v):
    if model.kind == M.FLAT:
        return x + v
    speed = float(np.linalg.norm(v))
    if speed == 0.0:
        return x.copy()
    return np.cos(speed) * x + np.sin(speed) * v / speed


def reference_geo_log(model, x, y):
    if model.kind == M.FLAT:
        return y - x
    if np.array_equal(x, y):
        return np.zeros_like(x)
    dot = float(np.clip(np.dot(x, y), -1.0, 1.0))
    perp = y - dot * x
    norm = float(np.linalg.norm(perp))
    if dot <= -1.0 + 1e-12 and norm < 1e-9:
        raise ValueError("log undefined at antipodal points")
    if norm < 1e-9:
        return perp
    return float(np.arctan2(norm, dot)) * perp / norm


def reference_tangent_basis(model, x):
    """ModelSpace.tangent_basis as a Gram-Schmidt walk over one point."""
    if model.kind == M.FLAT:
        return np.eye(model.dimension)
    x = np.asarray(x, dtype=float)
    n = model.ambient_dim
    basis = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        v = e - np.dot(e, x) * x
        for b in basis:
            v = v - np.dot(v, b) * b
        nv = float(np.linalg.norm(v))
        if nv > 1e-8:
            basis.append(v / nv)
        if len(basis) == model.dimension:
            break
    return np.stack(basis)


def reference_ball_grid(model, center, radius, per_axis, shrink):
    axis = np.linspace(-1.0, 1.0, per_axis)
    cube = np.array(list(itertools.product(axis, repeat=model.dimension)))
    cube = cube[np.linalg.norm(cube, axis=1) <= 1.0 + 1e-12] * radius * shrink
    if model.kind == M.FLAT:
        return center + cube
    frame = reference_tangent_basis(model, center)
    return np.stack([reference_geo_exp(model, center, c @ frame) for c in cube])


def reference_sphere_grid(resolution):
    """ModelSpace.grid on S^2, one np.array per point."""
    thetas = np.linspace(0.0, np.pi, resolution)
    phis = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    out = []
    for t in thetas:
        st, ct = np.sin(t), np.cos(t)
        if abs(st) < 1e-15:
            out.append(np.array([0.0, 0.0, np.sign(ct) if ct else 1.0]))
            continue
        for p in phis:
            out.append(np.array([st * np.cos(p), st * np.sin(p), ct]))
    return np.stack(out)


def reference_singular_candidates(orbifold, resolution, dense=False):
    """The candidate rows of GoodOrbifold.singular_points, one product, norm
    or projection per candidate.

    On the sphere a fixed k-space (k > 1) gives the coefficient rows on the
    boundary of [-1, 1]^k; ``dense`` gives its whole nonzero coefficient grid
    instead, the sampling the boundary rows replaced.
    """
    model, group = orbifold.model, orbifold.group
    cands = []
    for lab in range(1, group.order):
        _, svals, vt = np.linalg.svd(group.matrix(lab) - np.eye(group.dimension))
        svals = np.concatenate([svals, np.zeros(vt.shape[0] - svals.size)])
        basis = vt[svals < 1e-9]
        if model.kind == M.FLAT:
            cands.append(np.zeros(model.ambient_dim))
            if basis.shape[0] == 0:
                continue
            axis = np.linspace(-1, 1, max(resolution, 3)) * model.radius * 0.98
            for coeffs in itertools.product(axis, repeat=basis.shape[0]):
                p = np.asarray(coeffs) @ basis
                if np.linalg.norm(p) < model.radius * 0.98:
                    cands.append(p)
        elif basis.shape[0] == 1:
            cands += [basis[0], -basis[0]]
        elif basis.shape[0] > 1:
            axis = np.linspace(-1, 1, max(resolution, 3))
            for coeffs in itertools.product(axis, repeat=basis.shape[0]):
                c = np.asarray(coeffs)
                if np.abs(c).max() == 1.0 or (dense and np.linalg.norm(c) > 1e-9):
                    cands.append(reference_project(model, c @ basis))
    return np.reshape(cands, (-1, model.ambient_dim))


def reference_singular_points(orbifold, resolution, dense=False):
    """GoodOrbifold.singular_points with one product, norm or projection per
    candidate."""
    group = orbifold.group
    pts = reference_singular_candidates(orbifold, resolution, dense)
    reps = G.canonical_representatives(
        group, pts[G.fixing_mask(group, pts).sum(axis=1) > 1])
    return reps[M._first_by_key(reps)[0]]


def reference_dense_singular_points(orbifold, resolution):
    """reference_singular_points with every fixed plane of the sphere sampled
    through its whole coefficient grid, not only the grid's boundary."""
    return reference_singular_points(orbifold, resolution, dense=True)


def reference_lift_exp(model, x, v):
    """The closed-form ExpMap.lift_exp on one point."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    speed = float(np.linalg.norm(v))
    if speed == 0.0:
        return x.copy()
    if model.kind == M.FLAT:
        return x + v
    if speed >= np.pi:
        raise OutOfDomain(f"|v| = {speed:.4f} is at or past the cut locus")
    v = v - np.dot(v, x) * x
    return reference_geo_exp(model, x, v)


def reference_lift_log(model, x, y):
    return reference_geo_log(model, np.asarray(x, dtype=float),
                             np.asarray(y, dtype=float))


def reference_project(model, p):
    return p / np.linalg.norm(p) if model.kind == M.SPHERE else p


def reference_raw(coeff):
    """The raw polynomial field of random_orbisection on one point."""
    def raw(y):
        y = np.asarray(y, dtype=float)
        feats = np.concatenate([[1.0], y, np.outer(y, y).ravel()])
        return coeff @ feats
    return raw


def reference_averaged(group, field, model=None):
    """project_equivariant on one point."""
    def averaged(y):
        y = np.asarray(y, dtype=float)
        acc = None
        for lab in range(group.order):
            g = group.matrix(lab)
            gy = g @ y
            val = np.asarray(field(gy), dtype=float)
            if model is not None and model.kind == M.SPHERE:
                val = val - np.dot(val, gy) * gy
            term = g.T @ val
            acc = term if acc is None else acc + term
        return acc / group.order
    return averaged


def reference_lift_jet(model, func, pts, s, step):
    """_lift_jet with one call of func per point."""
    vals = np.stack([np.asarray(func(p), dtype=float) for p in pts])
    jets = [vals]
    if s == 0:
        return jets

    def shift(p, i, t):
        if model.kind == M.FLAT:
            e = np.zeros(model.dimension)
            e[i] = t
            return p + e
        frame = reference_tangent_basis(model, p)
        return reference_geo_exp(model, p, t * frame[i])

    dim = model.dimension
    jets.append(np.stack([
        np.stack([(np.asarray(func(shift(p, i, step)), dtype=float)
                   - np.asarray(func(shift(p, i, -step)), dtype=float))
                  / (2 * step) for i in range(dim)])
        for p in pts]))
    if s >= 2:
        second = []
        for p in pts:
            f0 = np.asarray(func(p), dtype=float)
            rows = []
            for i in range(dim):
                for j in range(i, dim):
                    if i == j:
                        fp = np.asarray(func(shift(p, i, step)), dtype=float)
                        fm = np.asarray(func(shift(p, i, -step)), dtype=float)
                        rows.append((fp - 2 * f0 + fm) / step ** 2)
                    else:
                        fpp = np.asarray(func(shift(shift(p, i, step), j, step)))
                        fpm = np.asarray(func(shift(shift(p, i, step), j, -step)))
                        fmp = np.asarray(func(shift(shift(p, i, -step), j, step)))
                        fmm = np.asarray(func(shift(shift(p, i, -step), j, -step)))
                        rows.append((fpp - fpm - fmp + fmm) / (4 * step ** 2))
            second.append(np.stack(rows))
        jets.append(np.stack(second))
    return jets


def reference_seminorm(model, field, atlas, order, per_axis=5, step=STEP):
    worst = 0.0
    for chart in atlas:
        vals = np.stack([np.asarray(field(p), dtype=float)
                         for p in chart.sample_points(per_axis=per_axis)])
        worst = max(worst, float(np.abs(vals).max(initial=0.0)))
        if order >= 1:
            jets = reference_lift_jet(model, field,
                                      chart.sample_points(per_axis=3), 1, step)
            worst = max(worst, float(np.abs(jets[1]).max(initial=0.0)))
    return worst


def reference_random_field(orbifold, atlas, rng, c1_bound=0.05):
    """The field of random_orbisection, one point per call."""
    dim = orbifold.model.ambient_dim
    coeff = rng.normal(size=(dim, 1 + dim + dim * dim))
    field = reference_averaged(orbifold.group, reference_raw(coeff),
                               orbifold.model)
    size = reference_seminorm(orbifold.model, field, atlas, 1)
    if size < 1e-9 * float(np.abs(coeff).sum()):
        return field
    t = c1_bound * rng.uniform(0.4, 0.9) / size
    return lambda y: t * np.asarray(field(y), dtype=float)


def reference_inverse_lift(model, func, tol=1e-12, iters=200):
    def inverse(y):
        y = np.asarray(y, dtype=float)
        w = y.copy()
        for _ in range(iters):
            r = y - np.asarray(func(w), dtype=float)
            if float(np.abs(r).max()) < tol:
                return w
            w = reference_project(model, w + r)
        raise NotCloseToIdentity("inverse iteration failed")
    return inverse


@functools.cache
def chain(name, seed):
    """A seeded section, its chart map and E^-1, with their references."""
    orbifold, atlas = case(name)
    model = orbifold.model
    exp_map = R.ExpMap.closed_form(orbifold)
    sigma = T.random_orbisection(orbifold, atlas, np.random.default_rng(seed))
    f = R.E_apply(sigma, exp_map)
    ref_field = reference_random_field(orbifold, atlas,
                                       np.random.default_rng(seed))

    def ref_lift(y):
        return reference_lift_exp(model, y, ref_field(y))

    return sigma, f, R.E_inverse(f, exp_map), ref_field, ref_lift


def per_row(func, pts):
    return [func(y) for y in pts]


# -- batched code against the references ----------------------------------------------

@pytest.mark.parametrize("name", sorted(CASES))
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_fields_and_lifts_match_reference(name, data):
    orbifold, _ = case(name)
    sigma, f, back, ref_field, ref_lift = chain(name, data.draw(st.integers(0, 2)))
    pts = draw_points(data, orbifold, max_size=5)
    model = orbifold.model
    assert_bitwise(sigma.values(pts), per_row(ref_field, pts))
    assert_bitwise(f.global_lift(pts), per_row(ref_lift, pts))
    # on S2/Oh the averaged quadratic field vanishes; the section stays at
    # rounding level, unscaled, and its chart map inverts like any other
    assert_bitwise(f.inverse_lift(pts),
                   per_row(reference_inverse_lift(model, ref_lift), pts))
    assert_bitwise(back.values(pts), per_row(
        lambda y: reference_lift_log(model, y, ref_lift(y)), pts))


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_lift_jets_match_reference(name, order, data):
    orbifold, _ = case(name)
    _, f, _, _, ref_lift = chain(name, 0)
    pts = draw_points(data, orbifold, max_size=4)
    jets = P._lift_jet(orbifold.model, f.global_lift, pts, order, STEP)
    want = reference_lift_jet(orbifold.model, ref_lift, pts, order, STEP)
    assert len(jets) == len(want) == order + 1
    for got, ref in zip(jets, want):
        assert_bitwise(got, ref)


@pytest.mark.parametrize("name", sorted(CASES))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_exp_and_log_match_reference(name, data):
    orbifold, _ = case(name)
    model = orbifold.model
    exp_map = R.ExpMap.closed_form(orbifold)
    x = draw_points(data, orbifold, max_size=6)
    n = model.ambient_dim
    # zero rows, tiny rows and rows up to just below the cut locus
    scales = data.draw(st.lists(st.sampled_from([0.0, 1e-12, 0.01, 0.3, 1.0, 3.1]),
                                min_size=len(x), max_size=len(x)))
    dirs = np.array(data.draw(st.lists(st.lists(st.floats(-1.0, 1.0),
                                                min_size=n, max_size=n),
                                       min_size=len(x), max_size=len(x))))
    norms = np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1.0)
    v = dirs / norms * np.array(scales)[:, None]
    ends = exp_map.lift_exp(x, v)
    assert_bitwise(ends, [reference_lift_exp(model, a, b) for a, b in zip(x, v)])
    # targets: the endpoints, the base points themselves and drawn points,
    # moved off the antipodes of their base points
    y = np.concatenate([ends, x, draw_points(data, orbifold, max_size=len(x))[:len(x)]])
    base = np.concatenate([x, x, x])[:len(y)]
    if model.kind == M.SPHERE:
        antipodal = np.einsum("ij,ij->i", base, y) < -1.0 + 1e-6
        y[antipodal] = base[antipodal]
    assert_bitwise(exp_map.lift_log(base, y),
                   [reference_lift_log(model, a, b) for a, b in zip(base, y)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_chart_samples_and_singular_points_match_reference(name):
    orbifold, atlas = case(name)
    model = orbifold.model
    for chart in atlas:
        for per_axis, shrink in ((3, 0.95), (5, 0.95), (4, 0.55)):
            assert_bitwise(chart.sample_points(per_axis=per_axis, shrink=shrink),
                           reference_ball_grid(model, chart.center, chart.radius,
                                               per_axis, shrink))
    for resolution in (3, 16):
        assert_bitwise(orbifold.singular_points(resolution),
                       reference_singular_points(orbifold, resolution))


SWAP_XY = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
MIRROR_GROUPS = {
    "S2/D2h": [np.diag([-1.0, 1.0, 1.0]), np.diag([1.0, -1.0, 1.0]),
               np.diag([1.0, 1.0, -1.0])],
    "S2/C2v": [np.diag([-1.0, 1.0, 1.0]), np.diag([1.0, -1.0, 1.0])],
    "S2/Td": [THIRD_TURN, np.diag([1.0, -1.0, -1.0]), SWAP_XY],
    "S2/Th": [THIRD_TURN, np.diag([1.0, -1.0, -1.0]), -np.eye(3)],
    "S2/D3d": [G.rotation_about_z(2.0 * np.pi / 3.0), np.diag([1.0, -1.0, -1.0]),
               -np.eye(3)],
    "S2/Oh": [THIRD_TURN, QUARTER_TURN, -np.eye(3)],
}


def sphere_structure(orbifold):
    """Atlas, strata, identity lifts and overlap edges, as comparable values."""
    grp = orbifold.group
    atlas = M.build_atlas(orbifold, resolution=16)
    edges = P.overlap_graph(orbifold, atlas)
    return {
        "centres": [chart.center.tobytes() for chart in atlas],
        "radii": [chart.radius for chart in atlas],
        "strata": [(layer.signature, layer.component_id)
                   for layer in M.strata(orbifold, resolution=32)],
        "assignments": P.enumerate_identity_lifts(orbifold, atlas,
                                                  edges=edges).assignments,
        "edges": [(e.i, e.j, e.eta, np.unique(G.fixing_mask(grp, e.singular_points),
                                              axis=0).tolist()) for e in edges],
    }


@pytest.mark.parametrize("name", sorted(MIRROR_GROUPS))
def test_mirror_circle_boundary_rows_keep_the_sphere_structure(name, monkeypatch):
    def build():
        return M.GoodOrbifold(M.ModelSpace(M.SPHERE, 2),
                              G.generate_group(MIRROR_GROUPS[name]), name=name)

    got = sphere_structure(build())
    monkeypatch.setattr(M.GoodOrbifold, "singular_points",
                        lambda self, resolution=16:
                        reference_dense_singular_points(self, resolution))
    assert got == sphere_structure(build())


def widest_gap(angles):
    angles = np.sort(angles)
    return max(np.diff(angles).max(), 2.0 * np.pi - angles[-1] + angles[0])


@pytest.mark.parametrize("mirror", [np.diag([1.0, 1.0, -1.0]), SWAP_XY],
                         ids=["z = 0", "x = y"])
def test_mirror_circle_rows_are_dense_rows_with_no_wider_gap(mirror):
    group = G.generate_group([mirror])
    orbifold = M.GoodOrbifold(M.ModelSpace(M.SPHERE, 2), group, name="S2/mirror")
    # the fixed plane: the right singular vectors of singular value 0
    plane = np.linalg.svd(mirror - np.eye(3))[2][1:]
    for resolution in range(3, 65):
        got = orbifold.singular_points(resolution)
        dense = G.canonical_representatives(
            group, reference_singular_candidates(orbifold, resolution, dense=True))
        assert {row.tobytes() for row in got} <= {row.tobytes() for row in dense}
        assert widest_gap(np.arctan2(*row_apply(plane, got).T[::-1])) <= \
            widest_gap(np.arctan2(*row_apply(plane, dense).T[::-1]))


def test_sphere_grid_matches_the_point_loop():
    # rows, their order and the signs of the pole rows' zeros
    model = M.ModelSpace(M.SPHERE, 2)
    for resolution in range(1, 130):
        got = model.grid(resolution)
        assert_bitwise(got, reference_sphere_grid(resolution))
        assert not np.signbit(got[[0, -1], :2]).any()


@pytest.mark.parametrize("name,generators", [
    ("B3/T", [THIRD_TURN, np.diag([1.0, -1.0, -1.0])]),
    # a mirror of the 3-ball: its fixed set is a plane, two coefficients
    ("B3/mirror", [np.diag([1.0, 1.0, -1.0])])])
@pytest.mark.parametrize("resolution", [4, 16, 48])
def test_flat_singular_points_in_three_dimensions_match_reference(
        name, generators, resolution):
    orbifold = M.GoodOrbifold(M.ModelSpace(M.FLAT, 3),
                              G.generate_group(generators), name=name)
    got = orbifold.singular_points(resolution)
    assert_bitwise(got, reference_singular_points(orbifold, resolution))
    assert len(got) > 1


def test_inverse_lift_rows_take_the_steps_they_take_alone():
    # rows converging after 1, several and many steps share one call
    orbifold, _ = case("disk_Z4")
    model = orbifold.model

    def func(pts):
        return pts + 0.3 * np.sin(3.0 * pts) * np.abs(pts)

    inverse = R.make_inverse_lift(func, orbifold)
    pts = np.array([[0.0, 0.0], [0.05, -0.02], [0.4, 0.3], [-0.6, 0.1],
                    [0.2, 0.2], [0.5, -0.5]])
    ref = reference_inverse_lift(model, lambda y: func(y[None])[0])
    assert_bitwise(inverse(pts), [ref(y) for y in pts])
    assert inverse(np.empty((0, 2))).shape == (0, 2)


# -- the calling convention ---------------------------------------------------------------

def _football_rotation():
    cfg = parse_config(DEFAULT_FOOTBALL3)
    orbifold = cfg.build_orbifold()
    atlas = M.build_atlas(orbifold, resolution=cfg.atlas_resolution)
    mat, inv = G.rotation_about_z(0.3), G.rotation_about_z(-0.3)
    return orbifold, atlas, P.map_from_global(
        orbifold, orbifold, lambda pts: row_apply(mat, pts), atlas=atlas,
        name="rot", inverse=lambda pts: row_apply(inv, pts))


def _callables():
    """(name, callable, (k, n) points it accepts) for every field and lift
    the library builds."""
    fb, fb_atlas, rot = _football_rotation()
    pts_fb = np.concatenate([ch.sample_points(per_axis=4) for ch in fb_atlas[:3]])
    exp_map = R.ExpMap.closed_form(fb)
    rng = np.random.default_rng(4)
    sigma = T.random_orbisection(fb, fb_atlas, rng, 0.04)
    tau = T.random_orbisection(fb, fb_atlas, rng, 0.04)
    e_sigma = R.E_apply(sigma, exp_map)
    e_tau = R.E_apply(tau, exp_map)
    sing = [k for k, ch in enumerate(fb_atlas) if ch.isotropy.order > 1]
    twisted = [0] * len(fb_atlas)
    twisted[sing[0]] = 1
    id_twisted = P.identity_map(fb, fb_atlas, twisted)
    idm = P.identity_map(fb, fb_atlas)
    constant = P.constant_map(fb, fb, np.array([0.0, 0.0, 1.0]), fb_atlas)
    through = P.compose(rot, id_twisted)
    big = fb_atlas[sing[0]]
    small = M.build_chart(fb, big.center, radius=big.radius * 0.45)
    gmat = big.isotropy.matrix(1)
    ext = P.extend_lift(lambda ys: ys, small, lambda y: row_apply(gmat, y), big, fb)
    out = [
        ("identity global", idm.global_lift, pts_fb),
        ("identity inverse", idm.inverse_lift, pts_fb),
        ("identity twisted chart", id_twisted.lifts[sing[0]].func, pts_fb),
        ("constant global", constant.global_lift, pts_fb),
        ("constant chart", constant.lifts[0].func, pts_fb),
        ("config rotation", rot.global_lift, pts_fb),
        ("config rotation inverse", rot.inverse_lift, pts_fb),
        ("compose global", P.compose(rot, rot).global_lift, pts_fb),
        ("compose inverse", P.compose(rot, rot).inverse_lift, pts_fb),
        ("compose through a chart", through.lifts[0].func,
         fb_atlas[0].sample_points(per_axis=7)),
        ("inverse_map", P.inverse_map(rot).global_lift, pts_fb),
        ("extend_lift", ext.func, big.sample_points(per_axis=7)),
        ("E_apply global", e_sigma.global_lift, pts_fb),
        ("E_apply inverse", e_sigma.inverse_lift, pts_fb),
        ("E_inverse field", R.E_inverse(e_sigma, exp_map).field, pts_fb),
        ("transition_map field", R.transition_map(e_sigma, e_tau, sigma,
                                                  exp_map).field, pts_fb),
        ("random_orbisection", sigma.field, pts_fb),
        ("linear_combination", T.linear_combination(sigma, tau, 2.0, -1.0).field,
         pts_fb),
        ("scale", T.scale(sigma, 3.0).field, pts_fb),
        ("zero_orbisection", T.zero_orbisection(fb, fb_atlas).field, pts_fb),
    ]

    line = parse_config("[orbifold]\nname = line\nmodel = flat\n"
                        "dimension = 1\nradius = 2.0\ngenerator = -1\n"
                        ).build_orbifold()
    line_atlas = M.build_atlas(line, resolution=15)
    power = P.map_from_global(line, line, lambda pts: np.asarray(pts) ** 3,
                              atlas=line_atlas, name="sq")
    out.append(("config power", power.global_lift,
                np.linspace(-1.0, 1.0, 11)[:, None]))

    mirror = parse_config("[orbifold]\nname = mirror\nmodel = flat\n"
                          "dimension = 2\nradius = 2.0\n"
                          "generator = 1 0 0 -1\n").build_orbifold()
    mirror_atlas = M.build_atlas(mirror, resolution=13)
    poly = P.map_from_global(
        mirror, mirror,
        lambda pts: np.stack([0.3 * (pts[:, 0] ** 2 + pts[:, 1] ** 2),
                              0.2 * pts[:, 0] * pts[:, 1]], axis=1),
        atlas=mirror_atlas, name="sq")
    out.append(("config polynomial", poly.global_lift,
                mirror_atlas[0].sample_points(per_axis=7)))
    return out


@functools.cache
def callables():
    return {name: (func, pts) for name, func, pts in _callables()}


CALLABLES = [name for name, _, _ in _callables()]


@pytest.mark.parametrize("name", CALLABLES)
def test_every_field_and_lift_takes_rows(name):
    func, pts = callables()[name]
    n = pts.shape[1]
    assert len(pts) >= 7
    width = None
    for k in (1, n, 7):
        rows = pts[:k]
        out = np.asarray(func(rows))
        # k = n catches a leftover m @ Y, which runs but mixes the rows
        assert out.ndim == 2 and out.shape[0] == k
        width = out.shape[1] if width is None else width
        assert out.shape[1] == width
        for i in range(k):
            assert out[i].tobytes() == np.asarray(func(rows[i:i + 1]))[0].tobytes()


# -- planted defects on the batched failure paths -------------------------------------------

def test_one_row_past_the_cut_locus_is_named(football3, football3_exp):
    x = np.tile([0.0, 0.0, 1.0], (6, 1))
    v = np.zeros((6, 3))
    v[:, 0] = [0.1, 0.0, 0.3, 3.5, 0.2, 4.0]
    # the good rows alone go through
    football3_exp.lift_exp(x[:3], v[:3])
    with pytest.raises(OutOfDomain, match=r"\|v\| = 3\.5000 "):
        football3_exp.lift_exp(x, v)


def test_one_non_convergent_row_fails_the_inverse_lift(manifold):
    # rows right of 0.6 are pushed 0.1 further, so the damped iteration of a
    # row at 0.65 bounces between 0.55 and 0.65 for ever
    def func(pts):
        return pts + np.where(pts[:, :1] > 0.6, [0.1, 0.0], 0.0)

    inverse = R.make_inverse_lift(func, manifold)
    good = np.array([[0.1, 0.2], [-0.3, 0.0], [0.0, 0.5]])
    assert_bitwise(inverse(good), good)
    with pytest.raises(NotCloseToIdentity):
        inverse(np.insert(good, 1, [0.65, 0.0], axis=0))
