"""Atlas-wide evaluation against the per-chart and per-point code it replaced.

Chart grids are built once per chart and key, tangent frames for many points
in one Gram-Schmidt, finite-difference stencils in one exponential call,
seminorms in one field call per atlas, and lift extension and the
commutation probe canonicalise many points in one call.  The map-level
consumers (cs_distance, theta matching, the E^-1 displacement, the exp and
diffeomorphism probes) run each distinct lift once over the stacked chart
grids.  The references below are the replaced code, kept as oracles: every
entry must agree bit for bit, because reports and CSV dumps are
byte-identical for a fixed (config, seed).
"""

import itertools
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbidiff import cli
from orbidiff import groups as G
from orbidiff import maps as P
from orbidiff import model as M
from orbidiff import riemann as R
from orbidiff import suites as S
from orbidiff import tangent as T
from orbidiff.config import DEFAULT_FOOTBALL3, parse_config
from orbidiff.errors import (BranchAmbiguity, ChartMismatch,
                             EquivarianceViolation, ImageEscapesChart,
                             NotCloseToIdentity, OutOfDomain,
                             ThetaNotIdentity)
from orbidiff.groups import (FD_STEP, GroupHom, row_apply, row_dot, stabilizer,
                             translates)
from test_batched_lifts import (STEP, chain, reference_ball_grid,
                                reference_lift_jet, reference_seminorm,
                                reference_tangent_basis)
from test_field_kernels import CASES, assert_bitwise, case, draw_points
from test_kernels import in_chart

# the coordinate axes and their negatives: at +-e0 and +-e1 the walk skips
# an axis, at the poles +-e2 it stops after two
AXES = np.concatenate([np.eye(3), -np.eye(3)])


def sphere_points(rows):
    rows = np.asarray(rows, dtype=float)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def mixed_sphere_rows():
    """Axes, rows a rounding step off them and generic rows in one batch."""
    near = sphere_points(AXES + 1e-9 * np.array([1.0, -2.0, 3.0]))
    generic = sphere_points(np.random.default_rng(7).normal(size=(12, 3)))
    return np.concatenate([AXES, near, generic, AXES[::-1]])


# -- per-point and per-chart references ----------------------------------------

def one_projected(orbifold, row):
    """One row projected onto the model, from a one-row call."""
    return orbifold.model.project_checked(np.asarray(row, dtype=float)[None])[0]


def one_canonical(orbifold, row):
    """The canonical member of one row's orbit, from a one-row call."""
    return orbifold.canonicals(np.asarray(row, dtype=float)[None])[0]


def one_quotient_distance(orbifold, a, b):
    """The quotient distance of two canonical rows, from a one-pair call."""
    return orbifold.quotient_distances(a[None], b[None])[0, 0]


def reference_commutation(f, per_axis):
    """The commutation probe of check_equivariance, one pair at a time."""
    worst = 0.0
    grp = f.source.group
    for i, ei in enumerate(f.lifts):
        for ej in f.lifts[i + 1:]:
            for lab in range(grp.order):
                moved_center = grp.act(lab, ei.chart.center)
                if f.source.model.distance(moved_center, ej.chart.center) >= \
                        ei.chart.radius + ej.chart.radius:
                    continue
                pts = ei.chart.sample_points(per_axis=per_axis)
                moved = np.array([row_apply(grp.matrix(lab), p) for p in pts])
                inside = [k for k, p in enumerate(moved) if in_chart(ej.chart, p)][:8]
                if not inside:
                    continue
                ya = np.asarray(ei.func(pts[inside]), dtype=float)
                yb = np.asarray(ej.func(moved[inside]), dtype=float)
                for a, b in zip(ya, yb):
                    worst = max(worst, one_quotient_distance(
                        f.target, one_canonical(f.target, a),
                        one_canonical(f.target, b)))
    return worst


def reference_extension(underlying, small, small_lift, big, target, y, steps=64):
    """extend_lift's extension at one point: a path of one-point exp calls,
    walked with one canonical member per path point."""
    model = small.orbifold.model
    dist = model.distance(big.center, y)
    if dist <= small.radius * 0.9:
        return np.asarray(small_lift(y[None]), dtype=float)[0]
    start_r = min(small.radius * 0.9, dist)
    if model.kind == M.FLAT:
        direction = (y - big.center) / dist
        path = [big.center + r * direction
                for r in np.linspace(start_r, dist, steps)]
    else:
        v = model.geo_log(big.center, y)
        v = v / np.linalg.norm(v)
        path = [model.geo_exp(big.center, r * v)
                for r in np.linspace(start_r, dist, steps)]
    prev = np.asarray(small_lift(path[0][None]), dtype=float)[0]
    for p in path[1:]:
        cand = target.group.matrices @ one_canonical(target,
                                                     underlying(p[None])[0])
        prev = cand[np.argmin(np.linalg.norm(cand - prev, axis=1))]
    return prev


def one_row_images(mats, rows):
    """(T, n, n) matrices applied to (..., n) rows, one row per row_apply
    call: entry [t, ...] is mats[t] @ row."""
    flat = rows.reshape(-1, rows.shape[-1])
    return np.stack([row_apply(mats, r) for r in flat], axis=1).reshape(
        len(mats), *rows.shape)


def reference_cs_distance(f, g, s, per_axis, step=FD_STEP):
    """cs_distance one chart at a time: four _lift_jet calls per chart."""
    model = f.source.model
    tgt = f.target.group

    def one_sided(a, b):
        out = []
        for ea in a.lifts:
            eb = b.lift_at(ea.chart)
            pts = ea.chart.sample_points(per_axis=per_axis)
            dpts = ea.chart.sample_points(per_axis=3)
            ja = P._lift_jet(model, ea.func, pts, 0, step)
            jb = P._lift_jet(model, eb.func, pts, 0, step)
            if s:
                ja += P._lift_jet(model, ea.func, dpts, s, step)[1:]
                jb += P._lift_jet(model, eb.func, dpts, s, step)[1:]
            images = [one_row_images(tgt.matrices, kb) for kb in jb]
            best = np.inf
            for lab in range(tgt.order):
                worst = 0.0
                for ka, kb in zip(ja, images):
                    gaps = np.linalg.norm(ka - kb[lab], axis=-1)
                    worst = max(worst, float(gaps.max()))
                best = min(best, worst)
            out.append(best)
        return out

    per_chart = tuple(max(x, y) for x, y in zip(one_sided(f, g), one_sided(g, f)))
    return per_chart, max(per_chart)


def reference_theta_residuals(chart, func, target_group, per_axis):
    """_theta_residuals on one chart: func on the translates, then on the grid."""
    pts = chart.sample_points(per_axis=per_axis)
    trans = translates(chart.isotropy, pts)
    k, order, n = trans.shape
    moved = np.asarray(func(trans.reshape(-1, n)), dtype=float).reshape(k, order, -1)
    vals = np.asarray(func(pts), dtype=float)
    image = one_row_images(target_group.matrices, vals)
    return np.stack([np.abs(image - moved[None, :, a]).max(axis=(1, 2))
                     for a in range(order)])


def reference_displacement(f):
    """E_inverse's displacement: one lift call per chart grid."""
    worst = 0.0
    for entry in f.lifts:
        pts = entry.chart.sample_points(per_axis=4)
        worst = max(worst, float(f.source.model.row_distances(
            pts, np.asarray(entry.func(pts), dtype=float)).max()))
    return worst


def reference_exp(exp_map, exp_rows):
    """One exponential at a time: a one-row call from a projected base row,
    and the canonical member of its image."""
    orbifold = exp_map.orbifold

    def one(x, v):
        out = (exp_rows or exp_map.lift_exp)(x[None], v[None])[0]
        if not orbifold.model.contains(out):
            raise OutOfDomain("exponential image leaves the model")
        return one_canonical(orbifold, out)

    return one


def reference_homeo_check(exp_map, row, eps, rng, pair_count=60,
                          image_per_axis=21, exp_rows=None):
    """exp_local_homeo_check one exponential at a time, stopping at the first
    pair whose images coincide."""
    orbifold = exp_map.orbifold
    the_exp = reference_exp(exp_map, exp_rows)
    x = one_projected(orbifold, row)
    frame = orbifold.model.tangent_basis(x)
    stab = stabilizer(orbifold.group, x)
    injective, witness, pairs = True, None, 0
    while pairs < pair_count:
        v = rng.normal(size=frame.shape[0]) @ frame
        w = rng.normal(size=frame.shape[0]) @ frame
        v = v / max(np.linalg.norm(v), 1e-12) * rng.uniform(0, eps)
        w = w / max(np.linalg.norm(w), 1e-12) * rng.uniform(0, eps)
        if float(np.linalg.norm(stab.matrices @ v - w, axis=1).min()) < 1e-6:
            continue
        pairs += 1
        if one_quotient_distance(orbifold, the_exp(x, v), the_exp(x, w)) < 1e-9:
            injective, witness = False, (v.copy(), w.copy())
            break
    axis = np.linspace(-1.0, 1.0, image_per_axis)
    cube = np.array(list(itertools.product(axis, repeat=frame.shape[0])))
    disc = cube[np.hypot.reduce(cube, axis=1) <= 1.0] * eps
    images = np.array([the_exp(x, c @ frame) for c in disc])
    tol = 2.5 * 2.0 * eps / (image_per_axis - 1)
    grid = orbifold.canonicals(orbifold.model.grid(32))
    near = orbifold.quotient_distances(
        grid, one_canonical(orbifold, row)[None])[:, 0] <= eps * 0.9
    gap = float(orbifold.quotient_distances(grid[near], images)
                .min(axis=1).max(initial=0.0))
    return R.HomeoCheckReport(injective, gap <= tol, witness, gap, tol, pairs,
                              int(near.sum()))


def reference_well_defined_residual(exp_map, rng, count=50, scale=0.4):
    """exp_well_defined_residual one triple at a time, each pair of images
    measured on its own."""
    orbifold = exp_map.orbifold
    grp = orbifold.group
    the_exp = reference_exp(exp_map, None)
    worst, limit, checked = 0.0, scale, 0
    while checked < count:
        x = one_projected(orbifold, orbifold.random_row(rng))
        frame = orbifold.model.tangent_basis(x)
        v = rng.normal(size=frame.shape[0]) @ frame
        v = v / max(np.linalg.norm(v), 1e-12) * rng.uniform(0.0, limit)
        lab = int(rng.integers(0, grp.order))
        try:
            q1 = the_exp(x, v)
            moved = one_projected(orbifold, grp.act(lab, x))
            q2 = the_exp(moved, grp.act(lab, v))
        except OutOfDomain:
            limit = min(scale, 0.1 * orbifold.model.radius)
            continue
        limit = scale
        checked += 1
        worst = max(worst, one_quotient_distance(orbifold, q1, q2))
    return worst


def reference_underlying(f, y):
    """The image row of the induced map at one source row, through the
    first chart, in atlas order, holding a translate of its canonical
    member."""
    if f.global_lift is not None:
        return f.global_lift(one_projected(f.source, y)[None])[0]
    grp = f.source.group
    canon = one_canonical(f.source, y)
    for entry in f.lifts:
        for lab in range(grp.order):
            rep = grp.act(lab, canon)
            if in_chart(entry.chart, rep):
                return np.asarray(entry.func(rep[None]), dtype=float)[0]
    raise ChartMismatch(f"no chart of the atlas covers {np.round(canon, 6)}")


def reference_verify_diffeo(f, per_axis=5, inner_fraction=0.55, rows=None):
    """verify_diffeo with one canonical member per grid point and its image."""
    orbifold = f.source
    reps, sources, images, spacing = [], [], [], 0.0
    for chart in f.atlas:
        spacing = max(spacing, 2.0 * chart.radius / (per_axis - 1))
        for y in chart.sample_points(per_axis=per_axis):
            reps.append(one_projected(orbifold, y))
            sources.append(one_canonical(orbifold, y))
            images.append(one_canonical(f.target, reference_underlying(f, y)
                                        if rows is None else
                                        rows(reps[-1][None])[0]))
    src = np.array(sources)
    img = np.array(images)
    collide = np.triu(~(orbifold.quotient_distances(src, src) < 1e-6), k=1) \
        & (orbifold.quotient_distances(img, img) < 1e-9)
    hits = np.flatnonzero(collide)
    witness = None
    if hits.size:
        i, j = divmod(int(hits[0]), len(sources))
        witness = (reps[i], reps[j])
    inner = np.concatenate([ch.sample_points(per_axis=per_axis,
                                             shrink=inner_fraction)
                            for ch in f.atlas])
    gap = float(orbifold.quotient_distances(orbifold.canonicals(inner), img)
                .min(axis=1).max(initial=0.0))
    if rows is None:
        d0 = reference_cs_distance(f, P.identity_map(orbifold, f.atlas), 0,
                                   per_axis)[1]
    else:   # the planted map's own displacement, one grid point at a time
        d0 = max(float(orbifold.quotient_distances(s[None], i[None])[0, 0])
                 for s, i in zip(src, img))
    margin = 0.5 * min((1.0 - inner_fraction) * ch.radius for ch in f.atlas)
    return R.DiffeoVerification(hits.size == 0, witness, gap, 2.5 * spacing,
                                d0, margin)


# -- tangent frames ------------------------------------------------------------

# S^2 is the only sphere a ModelSpace builds
@pytest.mark.parametrize("model", [M.ModelSpace(M.SPHERE, 2)], ids=["S2"])
def test_tangent_frames_match_the_one_point_walk_where_axes_are_skipped(model):
    pts = mixed_sphere_rows()
    frames = model.tangent_frames(pts)
    assert frames.shape == (len(pts), model.dimension, model.ambient_dim)
    assert_bitwise(frames, [reference_tangent_basis(model, p) for p in pts])
    for p, frame in zip(pts, frames):
        assert_bitwise(model.tangent_basis(p), frame)
        # orthonormal rows, each tangent to the sphere at p
        assert np.abs(frame @ frame.T - np.eye(model.dimension)).max() < 1e-12
        assert np.abs(frame @ p).max() < 1e-12


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_tangent_frames_on_flat_models_are_the_coordinate_axes(dimension):
    model = M.ModelSpace(M.FLAT, dimension, 2.0)
    pts = np.random.default_rng(dimension).uniform(-1.0, 1.0, (5, dimension))
    frames = model.tangent_frames(pts)
    assert_bitwise(frames, [reference_tangent_basis(model, p) for p in pts])
    assert_bitwise(model.tangent_basis(pts[0]), np.eye(dimension))


@given(rows=st.lists(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
                     min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_tangent_frames_match_the_one_point_walk_on_drawn_points(rows):
    rows = np.asarray(rows, dtype=float)
    rows = rows[np.linalg.norm(rows, axis=1) > 1e-3]
    if not len(rows):
        return
    model = M.ModelSpace(M.SPHERE, 2)
    pts = np.concatenate([sphere_points(rows), AXES])
    assert_bitwise(model.tangent_frames(pts),
                   [reference_tangent_basis(model, p) for p in pts])


# -- finite-difference stencils ------------------------------------------------

@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("name", ["football3", "S2/T", "disk_Z4", "line"])
def test_lift_jets_match_the_shift_stencils(name, order):
    orbifold, atlas = case(name)
    _, f, _, _, ref_lift = chain(name, 0)
    model = orbifold.model
    if model.kind == M.SPHERE:
        pts = mixed_sphere_rows()
    else:
        pts = np.concatenate([ch.sample_points(per_axis=3) for ch in atlas[:3]])
    jets = P._lift_jet(model, f.global_lift, pts, order, STEP)
    want = reference_lift_jet(model, ref_lift, pts, order, STEP)
    assert len(jets) == order + 1
    for got, ref in zip(jets, want):
        assert_bitwise(got, ref)


def test_lift_jet_evaluates_its_whole_stencil_in_one_call():
    orbifold, atlas = case("football3")
    _, f, _, _, _ = chain("football3", 0)
    rows = []

    def func(pts):
        rows.append(len(pts))
        return f.global_lift(pts)

    pts = atlas[0].sample_points(per_axis=3)
    P._lift_jet(orbifold.model, func, pts, 2, STEP)
    # the points, two per axis and four per mixed pair
    assert rows == [len(pts) * (1 + 2 * 2 + 4)]


# -- chart grids and seminorms -------------------------------------------------

@pytest.mark.parametrize("name", ["football3", "S2/Oh", "disk_Z4", "line"])
def test_chart_grids_are_built_once_and_read_only(name):
    orbifold, atlas = case(name)
    model = orbifold.model
    for chart in atlas:
        for per_axis, shrink in ((3, 0.95), (5, 0.95), (4, 0.55)):
            pts = chart.sample_points(per_axis=per_axis, shrink=shrink)
            assert chart.sample_points(per_axis=per_axis, shrink=shrink) is pts
            assert_bitwise(pts, model.ball_grid(chart.center, chart.radius,
                                                per_axis=per_axis, shrink=shrink))
            assert_bitwise(pts, reference_ball_grid(model, chart.center,
                                                    chart.radius, per_axis, shrink))
            with pytest.raises(ValueError, match="read-only"):
                pts[0, 0] = 0.0
        assert chart.sample_points(per_axis=3) is not chart.sample_points(per_axis=5)
    stacked = M.atlas_grid(atlas, 4)
    assert_bitwise(stacked, np.concatenate([reference_ball_grid(
        model, ch.center, ch.radius, 4, 0.95) for ch in atlas]))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["football3", "S2/Oh", "disk_Z4"])
def test_stacked_seminorm_is_the_per_chart_max(name, seed):
    orbifold, atlas = case(name)
    sigma = T.random_orbisection(orbifold, atlas, np.random.default_rng(seed))
    tau = T.random_orbisection(orbifold, atlas, np.random.default_rng(seed + 5))
    for section in (sigma, T.linear_combination(sigma, tau, 1.0, -1.0)):
        for order in (0, 1):
            for per_axis in (3, 5):
                got = T.seminorm(section, order, per_axis=per_axis)
                want = reference_seminorm(
                    orbifold.model, lambda y: section.values(y[None])[0], atlas,
                    order, per_axis=per_axis)
                assert got == want


def test_equivariance_residual_matches_the_per_chart_products():
    orbifold, atlas = case("football3")
    sigma = T.random_orbisection(orbifold, atlas, np.random.default_rng(3))
    grp = orbifold.group
    worst = 0.0
    for chart in atlas:
        pts = chart.sample_points(per_axis=4)
        vals = sigma.values(np.array(pts))
        for lab in range(grp.order):
            g = grp.matrix(lab)
            moved = sigma.values(row_apply(g, pts))
            worst = max(worst, float(np.abs(moved - one_row_images(
                g[None], vals)[0]).max()))
    assert sigma.equivariance_residual(per_axis=4) == worst


# -- quotient points, lift extension and the commutation probe ----------------

@pytest.mark.parametrize("name", sorted(CASES))
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_points_canonicalise_like_one_point_at_a_time(name, data):
    orbifold, _ = case(name)
    pts = draw_points(data, orbifold)
    reps = orbifold.model.project_checked(pts)
    canon = orbifold.canonicals(pts)
    for p, rep, c in zip(pts, reps, canon):
        assert_bitwise(rep, one_projected(orbifold, p))
        assert_bitwise(c, one_canonical(orbifold, p))


def test_points_refuse_a_row_outside_the_model():
    disk = M.disk_mod_rotation(4)
    with pytest.raises(ValueError, match="not in the model space"):
        disk.model.project_checked(np.array([[0.1, 0.2], [1.5, 0.0]]))


@pytest.mark.parametrize("name", ["football3", "S2/T", "disk_Z4", "mirror"])
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_canonicals_are_the_canonical_members_of_points(name, data):
    orbifold, atlas = case(name)
    for rows in (draw_points(data, orbifold), M.atlas_grid(atlas, 4)):
        assert_bitwise(orbifold.canonicals(rows), G.canonical_representatives(
            orbifold.group, orbifold.model.project_checked(rows)))


def test_canonicals_name_the_first_row_outside_the_model():
    disk = M.disk_mod_rotation(4)
    rows = np.array([[0.1, 0.2], [1.5, 0.0], [0.0, 2.5]])
    with pytest.raises(ValueError, match=re.escape(
            f"point {rows[1]} is not in the model space")):
        disk.canonicals(rows)


def _extensions():
    fb = M.football(3)
    big = M.build_chart(fb, [0.0, 0.0, 1.0])
    small = M.build_chart(fb, [0.0, 0.0, 1.0], radius=big.radius * 0.4)
    g = big.isotropy.matrix(1)
    rot = np.array([[np.cos(0.5), -np.sin(0.5), 0.0],
                    [np.sin(0.5), np.cos(0.5), 0.0], [0.0, 0.0, 1.0]])
    side = M.build_chart(fb, [1.0, 0.0, 0.0])
    side_small = M.build_chart(fb, [1.0, 0.0, 0.0],
                               radius=side.radius * 0.35)
    line = M.line_mod_flip()
    line_big = M.build_chart(line, [0.0], radius=1.2)
    line_small = M.build_chart(line, [0.0], radius=0.5)
    return [
        ("football pole, deck element", (lambda ys: ys, small,
                                        lambda pts: row_apply(g, pts), big, fb)),
        ("football side, rotation",
         (lambda ys: row_apply(rot, ys), side_small,
          lambda pts: row_apply(rot, pts), side, fb)),
        ("line, square",
         (lambda ys: ys ** 2, line_small,
          lambda y: np.asarray(y, dtype=float) ** 2, line_big, line)),
    ]


@pytest.mark.parametrize("name,args", _extensions(), ids=lambda v: v
                         if isinstance(v, str) else "")
def test_extension_matches_the_one_point_walk(name, args):
    underlying, small, small_lift, big, target = args
    ext = P.extend_lift(*args)
    pts = big.sample_points(per_axis=7)
    assert_bitwise(ext.func(pts), [reference_extension(
        underlying, small, small_lift, big, target, y) for y in pts])


@pytest.mark.parametrize("name,args", _extensions(), ids=lambda v: v
                         if isinstance(v, str) else "")
def test_extension_rows_do_not_depend_on_earlier_calls(name, args):
    underlying, small, small_lift, big, target = args
    model = small.orbifold.model
    ext = P.extend_lift(*args)
    pts = big.sample_points(per_axis=7)
    far = pts[model.distances(pts, big.center) > small.radius * 0.9]
    near = model.project(far + 1e-10)
    # the pairs a rounding step apart with the same 1e-9-snapped keys
    same = [P._snap_key(a) == P._snap_key(b) for a, b in zip(far, near)]
    assert 2 * sum(same) >= len(far)
    far, near = far[same], near[same]
    assert (far != near).any(axis=1).all()
    ext.func(far)
    want = [reference_extension(underlying, small, small_lift, big, target, y)
            for y in near]
    assert_bitwise(ext.func(near), want)
    for y, w in zip(near, want):
        assert_bitwise(ext.func(y[None])[0], w)


@pytest.mark.parametrize("count", [1, 12])
def test_extension_makes_one_underlying_call_per_step(count):
    fb = M.football(3)
    big = M.build_chart(fb, [0.0, 0.0, 1.0])
    small = M.build_chart(fb, [0.0, 0.0, 1.0], radius=big.radius * 0.4)
    g = big.isotropy.matrix(1)
    calls = []
    ext = P.extend_lift(lambda ys: calls.append(len(ys)) or ys, small,
                        lambda pts: row_apply(g, pts), big, fb)
    pts = big.sample_points(per_axis=7)
    far = fb.model.distances(pts, big.center) > small.radius * 0.9
    # near rows ride along without any walk
    rows = np.concatenate([pts[~far][:3], pts[far][:count]])
    calls.clear()
    ext.func(rows)
    assert calls == [count] * (P.EXTENSION_STEPS - 1)


def test_extension_refuses_an_image_outside_the_target():
    wide = M.line_mod_flip(radius=4.0)
    narrow = M.line_mod_flip(radius=1.0)
    iso = stabilizer(wide.group, [0.0])
    big = M.DerivedChart(wide, np.array([0.0]), 0.9, iso)
    small = M.DerivedChart(wide, np.array([0.0]), 0.2, iso)
    # images pass radius 1 from |y| = 2/3 on, inside the big chart
    with pytest.raises(ImageEscapesChart):
        P.extend_lift(lambda ys: 1.5 * ys, small,
                      lambda y: 1.5 * np.asarray(y, dtype=float), big, narrow)


def test_extension_refuses_a_path_outside_the_source_model():
    line = M.line_mod_flip(radius=2.0)
    iso = stabilizer(line.group, [0.0])
    big = M.DerivedChart(line, np.array([0.0]), 1.2, iso)
    small = M.DerivedChart(line, np.array([0.0]), 0.5, iso)
    ext = P.extend_lift(lambda ys: ys / 4, small, lambda y: y / 4, big, line)
    # every image is inside the model; the path to 2.5 leaves it
    with pytest.raises(ValueError, match="not in the model space"):
        ext.func(np.array([[0.3], [1.0], [2.5]]))
    assert_bitwise(ext.func(np.array([[0.3], [1.0]])), [[0.075], [0.25]])


def test_extension_keeps_branch_and_chart_errors():
    wide = M.line_mod_flip(radius=4.0)
    iso = stabilizer(wide.group, [0.75])
    big = M.DerivedChart(wide, np.array([0.75]), 0.7499, iso)
    small = M.DerivedChart(wide, np.array([0.75]), 0.2, iso)
    with pytest.raises(BranchAmbiguity):
        ext = P.extend_lift(lambda ys: ys ** 2,
                            small, lambda y: np.asarray(y, dtype=float) ** 2,
                            big, wide)
        ext.func(np.array([[0.0002]]))
    off = M.DerivedChart(wide, np.array([0.5]), 0.3, iso)
    with pytest.raises(ChartMismatch):
        P.extend_lift(lambda ys: ys, off, lambda y: y, big, wide)


@pytest.mark.parametrize("name", ["football3", "S2/T", "disk_Z4", "mirror"])
def test_commutation_probe_matches_the_pairwise_loop(name):
    orbifold, atlas = case(name)
    _, f, _, _, _ = chain(name, 1)
    sing = [k for k, ch in enumerate(atlas) if ch.isotropy.order > 1]
    twisted = [0] * len(atlas)
    twisted[sing[0]] = 1
    for m in (f, P.identity_map(orbifold, atlas, twisted)):
        for per_axis in (3, 4):
            report = P.check_equivariance(m, per_axis=per_axis)
            assert report.commutation == reference_commutation(m, per_axis)


def test_commutation_probe_refuses_an_image_outside_the_model():
    orbifold, atlas = case("disk_Z4")
    grp = orbifold.group
    lifts = [P.ChartLift(ch, lambda pts: 3.0 * np.asarray(pts, dtype=float),
                         GroupHom.inclusion(ch.isotropy, grp)) for ch in atlas]
    grown = P.OrbifoldMapData(orbifold, orbifold, lifts)
    with pytest.raises(ImageEscapesChart, match="not in the model space"):
        P.check_equivariance(grown, per_axis=4)


# -- map-level consumers: one lift call per distinct lift ---------------------

def _sections(name):
    """Two small sections; on S2/Oh, where the averaged random field
    vanishes, the tangent parts of the gradients of two invariant sums of
    powers."""
    orbifold, atlas = case(name)
    if name != "S2/Oh":
        return tuple(T.random_orbisection(orbifold, atlas,
                                          np.random.default_rng(seed), 0.04)
                     for seed in (1, 2))

    def gradient(power, size):
        def field(pts):
            g = power * pts ** (power - 1)
            return size * (g - row_dot(g, pts)[:, None] * pts)
        return T.Orbisection(orbifold, atlas, field, name=f"grad{power}")

    return gradient(4, 0.02), gradient(6, 0.015)


def _split(f):
    """f with the lift of every odd chart behind its own function object."""
    lifts = [P.ChartLift(e.chart, (lambda pts, fn=e.func: fn(pts)) if k % 2
                         else e.func, e.theta) for k, e in enumerate(f.lifts)]
    return P.OrbifoldMapData(f.source, f.target, lifts, degree=f.degree,
                             global_lift=f.global_lift,
                             inverse_lift=f.inverse_lift)


def _maps(name):
    orbifold, atlas = case(name)
    exp_map = R.ExpMap.closed_form(orbifold)
    sigma, tau = _sections(name)
    f, g = R.E_apply(sigma, exp_map), R.E_apply(tau, exp_map)
    twisted = [0] * len(atlas)
    twisted[next(k for k, ch in enumerate(atlas) if ch.isotropy.order > 1)] = 1
    return (exp_map, f, g, _split(g), P.identity_map(orbifold, atlas),
            P.identity_map(orbifold, atlas, twisted))


@pytest.mark.parametrize("s", [0, 1, 2])
@pytest.mark.parametrize("name", ["football3", "S2/Oh", "disk_Z4"])
def test_cs_distance_matches_the_per_chart_jets(name, s):
    _, f, g, split, idm, twisted = _maps(name)
    for a, b in ((f, g), (g, f), (f, split), (split, idm), (f, twisted),
                 (twisted, idm)):
        for per_axis in (4, 5):
            report = P.cs_distance(a, b, s=s, per_axis=per_axis)
            assert (report.per_chart, report.value) == \
                reference_cs_distance(a, b, s, per_axis)


def test_cs_distance_runs_each_distinct_lift_once(monkeypatch):
    _, f, g, split, idm, _ = _maps("football3")
    # g's lifts on new chart objects with f's centres and radii, which
    # lift_at finds by centre
    copies = [M.DerivedChart(e.chart.orbifold, e.chart.center, e.chart.radius,
                             e.chart.isotropy) for e in g.lifts]
    moved = P.OrbifoldMapData(
        g.source, g.target,
        [P.ChartLift(ch, e.func, e.theta) for ch, e in zip(copies, g.lifts)],
        degree=g.degree)
    want = [reference_cs_distance(f, moved, s, 4) for s in (0, 1)]
    calls = Counter()
    lift_jet = P._lift_jet
    monkeypatch.setattr(P, "_lift_jet", lambda model, func, *a: calls.update(
        [id(func)]) or lift_jet(model, func, *a))
    P.cs_distance(f, split, s=1, per_axis=4)
    # the lifts of f and g and split's own lift per odd chart, each once for
    # the values and once for the derivatives, read by both sides
    assert len(calls) == 2 + len(f.lifts) // 2 and set(calls.values()) == {2}
    calls.clear()
    P.cs_distance(f, idm, s=0, per_axis=4)
    assert len(calls) == 1 + len(idm.lifts) and set(calls.values()) == {1}
    # each side's jets are built on its own charts, so f's one lift and g's
    # one lift each run on both chart lists
    for s in (0, 1):
        calls.clear()
        report = P.cs_distance(f, moved, s=s, per_axis=4)
        assert calls == {id(f.global_lift): 2 + 2 * s,
                         id(g.global_lift): 2 + 2 * s}
        assert (report.per_chart, report.value) == want[s]


def test_E_apply_validates_each_charts_inclusion_once(monkeypatch):
    orbifold = M.football(3)
    atlas = M.build_atlas(orbifold, resolution=20)
    exp_map = R.ExpMap.closed_form(orbifold)
    sigma = T.random_orbisection(orbifold, atlas, np.random.default_rng(4), 0.04)
    built = Counter()
    post_init = GroupHom.__post_init__

    def counted(self):
        built["GroupHom"] += 1
        post_init(self)

    monkeypatch.setattr(GroupHom, "__post_init__", counted)
    first = R.E_apply(sigma, exp_map)
    assert built["GroupHom"] == len(atlas)
    built.clear()
    second = R.E_apply(T.scale(sigma, 0.5), exp_map)
    assert built["GroupHom"] == 0
    monkeypatch.undo()
    for f in (first, second):
        for ch, entry in zip(atlas, f.lifts):
            assert entry.theta is ch.inclusion
            assert entry.theta.table == \
                GroupHom.inclusion(ch.isotropy, orbifold.group).table


def test_E_inverse_refuses_a_twisted_map_every_time():
    """The half turn about the x axis inverts each cone's rotations, so its
    homomorphisms are not the identity there."""
    orbifold, atlas = case("football3")
    exp_map, f, _, _, _, _ = _maps("football3")
    flip = np.diag([1.0, -1.0, -1.0])
    twisted = P.map_from_global(orbifold, orbifold,
                                lambda pts: row_apply(flip, pts), atlas,
                                inverse=lambda pts: row_apply(flip, pts))
    for _ in range(2):
        with pytest.raises(ThetaNotIdentity):
            R.E_inverse(twisted, exp_map)
        assert R.E_inverse(f, exp_map).atlas == f.atlas
    assert all(e.theta.is_identity for e in f.lifts)
    assert not all(e.theta.is_identity for e in twisted.lifts)


@pytest.mark.parametrize("per_axis", [3, 4])
def test_by_func_with_interleaved_funcs_matches_per_chart_calls(per_axis):
    _, atlas = case("football3")
    assert len(atlas) >= 4

    def f1(pts):
        return pts * 2.0 + 1.0

    def f2(pts):
        return pts * pts - 0.5

    funcs = [(f1, f2)[k % 2] for k in range(len(atlas))]
    ran = []

    def run(func, pts):
        ran.append(func)
        vals = func(pts)
        return [vals, vals[:, :1] * 3.0]

    got = P._by_func(funcs, atlas, per_axis, run)
    assert ran == [f1, f2]
    want = [run(func, ch.sample_points(per_axis=per_axis))
            for func, ch in zip(funcs, atlas)]
    for k, arr in enumerate(got):
        assert_bitwise(arr, np.concatenate([w[k] for w in want]))


@pytest.mark.parametrize("name", ["football3", "S2/Oh", "disk_Z4"])
def test_transition_and_composite_thetas_match_the_per_chart_residuals(
        name, monkeypatch):
    orbifold, atlas = case(name)
    exp_map, f, g, split, _, _ = _maps(name)
    grp = orbifold.group
    sigma = T.scale(_sections(name)[0], 0.5)
    inverted = []
    e_inverse = R.E_inverse
    monkeypatch.setattr(R, "E_inverse", lambda h, *a, **k: inverted.append(h)
                        or e_inverse(h, *a, **k))
    R.transition_map(f, g, sigma, exp_map)
    h, = inverted
    residuals = P._theta_residuals(atlas, h.global_lift, grp, 3)
    for chart, entry, got in zip(atlas, h.lifts, residuals):
        want = reference_theta_residuals(chart, h.global_lift, grp, 3)
        assert_bitwise(got[:len(want)], want)
        assert not got[len(want):].any()
        assert entry.theta.table == tuple(want.argmin(axis=1).tolist())
    for composite in (P.compose(f, g), P.compose(split, g)):
        for chart, entry in zip(atlas, composite.lifts):
            want = reference_theta_residuals(chart, entry.func, grp, 5)
            assert entry.theta.table == tuple(want.argmin(axis=1).tolist())
    # one composite lift per distinct lift of the first map
    assert len({id(e.func) for e in P.compose(split, g).lifts}) == \
        1 + len(atlas) // 2


def test_derive_theta_refuses_when_one_chart_has_no_match():
    orbifold, atlas = case("football3")
    bent = [k for k, ch in enumerate(atlas) if ch.isotropy.order > 1][1]

    def func(pts):
        # equivariant except near the second singular chart
        out = np.array(pts, dtype=float)
        near = M.ModelSpace(M.SPHERE, 2).row_distances(atlas[bent].center,
                                                       pts) < atlas[bent].radius
        out[near] = M.ModelSpace(M.SPHERE, 2).project(out[near] + [0.1, 0.0, 0.0])
        return out

    with pytest.raises(EquivarianceViolation, match="isotropy element 1"):
        P.derive_theta(atlas, func, orbifold.group)
    assert len(P.derive_theta(atlas[:bent], func, orbifold.group)) == bent


def test_isotropy_values_meet_rows_in_the_per_chart_order():
    # a lift that memoises its rows (extend_lift's) sees them as it did one
    # chart at a time: each chart's translates, then its grid
    orbifold, atlas = case("football3")
    seen = []

    def func(pts):
        seen.append(np.array(pts))
        return np.array(pts)

    vals, moved, sample, label = P._isotropy_values(atlas, func, 3)
    want = []
    for chart in atlas:
        pts = chart.sample_points(per_axis=3)
        want += [translates(chart.isotropy, pts).reshape(-1, 3), pts]
    assert len(seen) == 1
    assert_bitwise(seen[0], np.concatenate(want))
    assert_bitwise(vals, M.atlas_grid(atlas, 3))
    assert_bitwise(moved, np.concatenate(want[0::2]))
    # translate i is matrix(label[i]) of its chart's isotropy at grid row sample[i]
    chart = P._grid_charts(atlas, 3)[sample]
    mats = np.stack([atlas[c].isotropy.matrix(a) for c, a in zip(chart, label)])
    assert_bitwise(moved, row_apply(mats, vals[sample]))


@pytest.mark.parametrize("name", ["football3", "S2/Oh", "disk_Z4"])
def test_E_inverse_displacement_is_the_per_chart_max(name):
    exp_map, f, g, split, _, _ = _maps(name)
    for m in (f, split, P.compose(split, g)):
        worst = reference_displacement(m)
        assert worst > 0.0
        R.E_inverse(m, exp_map, eps_inj=np.nextafter(worst, np.inf))
        with pytest.raises(NotCloseToIdentity,
                           match=f"displacement {worst:.4f} reaches"):
            R.E_inverse(m, exp_map, eps_inj=worst)


def _quantized(exp_map, cell):
    return lambda x, v: exp_map.lift_exp(x, np.floor(v / cell) * cell)


HOMEO_CASES = [("football3", [0.0, 0.0, 1.0]), ("football3", [1.0, 0.0, 0.0]),
               ("S2/Oh", [0.0, 0.0, 1.0]), ("disk_Z4", [0.0, 0.0]),
               ("disk_Z4", [0.2, 0.1]), ("line", [0.0])]


@pytest.mark.parametrize("planted", ["none", "quantized", "shrunk"])
@pytest.mark.parametrize("name,base", HOMEO_CASES)
def test_homeo_check_matches_the_one_point_loop(name, base, planted):
    orbifold, _ = case(name)
    exp_map = R.ExpMap.closed_form(orbifold)
    eps = 0.3
    hook = {"none": None, "quantized": _quantized(exp_map, eps),
            "shrunk": lambda x, v: exp_map.lift_exp(x, 0.3 * v)}[planted]
    got = R.exp_local_homeo_check(exp_map, base, eps, np.random.default_rng(11),
                                  exp_override=hook)
    want = reference_homeo_check(exp_map, base, eps, np.random.default_rng(11),
                                 exp_rows=hook)
    assert (got.injective, got.surjective, got.surjectivity_gap,
            got.surjectivity_tolerance, got.pairs_checked,
            got.targets_checked) == \
        (want.injective, want.surjective, want.surjectivity_gap,
         want.surjectivity_tolerance, want.pairs_checked, want.targets_checked)
    if want.injectivity_witness is None:
        assert got.injectivity_witness is None
    else:
        for a, b in zip(got.injectivity_witness, want.injectivity_witness):
            assert_bitwise(a, b)
    if planted == "quantized" and orbifold.dimension == 2:
        assert not got.injective and got.pairs_checked < 60


def test_homeo_check_measures_its_pairs_without_the_pair_matrix(monkeypatch):
    # the injectivity probe once built the (60, 60) quotient distance matrix
    # to read its diagonal
    orbifold, _ = case("S2/Oh")
    calls = {"matrix": [], "pairs": []}
    matrix, pairs = M.GoodOrbifold.quotient_distances, \
        M.GoodOrbifold.quotient_pair_distances
    monkeypatch.setattr(M.GoodOrbifold, "quotient_distances",
                        lambda self, a, b: calls["matrix"].append((len(a), len(b)))
                        or matrix(self, a, b))
    monkeypatch.setattr(M.GoodOrbifold, "quotient_pair_distances",
                        lambda self, a, b: calls["pairs"].append(len(a))
                        or pairs(self, a, b))
    R.exp_local_homeo_check(R.ExpMap.closed_form(orbifold), [0.0, 0.0, 1.0], 0.3,
                            np.random.default_rng(11))
    assert calls["pairs"] == [R.HOMEO_PAIRS]
    assert (R.HOMEO_PAIRS, R.HOMEO_PAIRS) not in calls["matrix"]


def test_homeo_check_refuses_an_image_outside_the_model():
    orbifold, _ = case("disk_Z4")
    exp_map = R.ExpMap.closed_form(orbifold)
    with pytest.raises(OutOfDomain, match="leaves the model"):
        R.exp_local_homeo_check(exp_map, [0.0, 0.0], 0.3,
                                np.random.default_rng(1),
                                exp_override=lambda x, v: x + 10.0 * v)


@pytest.mark.parametrize("build,seed", [
    (lambda: M.football(3), 6), (lambda: case("S2/Oh")[0], 6),
    (lambda: M.disk_mod_rotation(4), 6005), (lambda: M.disk_mod_rotation(4, 2.0), 6),
    (lambda: M.line_mod_flip(), 6)],
    ids=["football3", "S2/Oh", "disk_Z4 redraws", "disk_Z4 radius 2", "line"])
def test_exp_well_defined_residual_matches_the_one_triple_loop(build, seed):
    exp_map = R.ExpMap.closed_form(build())
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = R.exp_well_defined_residual(exp_map, rng)
    assert got == reference_well_defined_residual(exp_map, ref_rng, 50)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _fold(rows):
    return np.column_stack([rows[:, 0], rows[:, 1], np.abs(rows[:, 2])])


def _into_cap(rows):
    moved = rows + np.array([0.0, 0.0, 3.0])
    return moved / np.linalg.norm(moved, axis=1, keepdims=True)


@pytest.mark.parametrize("name", ["football3", "S2/Oh", "disk_Z4"])
def test_verify_diffeo_matches_the_one_point_loop(name):
    _, f, _, split, idm, twisted = _maps(name)
    cases = [(f, None), (split, None), (idm, None), (twisted, None)]
    if name == "football3":
        cases += [(idm, _fold), (idm, _into_cap)]
    for m, rows in cases:
        got = R.verify_diffeo(m, per_axis=4, underlying_override=rows)
        want = reference_verify_diffeo(m, per_axis=4, rows=rows)
        assert (got.injective, got.surjectivity_gap, got.surjectivity_tolerance,
                got.c0_distance_to_identity, got.margin) == \
            (want.injective, want.surjectivity_gap, want.surjectivity_tolerance,
             want.c0_distance_to_identity, want.margin)
        if want.injectivity_witness is None:
            assert got.injectivity_witness is None
        else:
            for a, b in zip(got.injectivity_witness, want.injectivity_witness):
                assert_bitwise(a, b)
        # the planted fold fails injectivity, the cap map surjectivity
        assert got.passed == (rows is None)


@pytest.mark.parametrize("name", ["football3", "S2/T", "disk_D4", "line"])
def test_underlying_rows_match_the_one_point_walk(name):
    orbifold, atlas = case(name)
    twisted = [ch.isotropy.order - 1 for ch in atlas]
    rng = np.random.default_rng(4)
    pts = np.concatenate([M.atlas_grid(atlas, 3), [
        one_projected(orbifold, orbifold.random_row(rng)) for _ in range(9)]])
    rows = orbifold.model.project_checked(pts)
    for m in (P.identity_map(orbifold, atlas, twisted), _maps("football3")[1]
              if name == "football3" else P.identity_map(orbifold, atlas)):
        images = m.target.model.project_checked(m.underlying_rows(rows))
        want = [one_projected(m.target, reference_underlying(m, y)) for y in pts]
        for got, one in zip(images, want):
            assert_bitwise(got, one)


def test_underlying_rows_name_a_point_no_chart_covers():
    orbifold, atlas = case("football3")
    pole = atlas[0]
    m = P.OrbifoldMapData(orbifold, orbifold, [P.ChartLift(
        pole, lambda pts: np.array(pts), GroupHom.inclusion(pole.isotropy,
                                                            orbifold.group))])
    with pytest.raises(ChartMismatch, match="no chart of the atlas covers"):
        m.underlying_rows(np.array([list(pole.center), [1.0, 0.0, 0.0]]))


def test_lift_at_takes_the_chart_object_then_an_equal_chart(monkeypatch):
    orbifold, atlas = case("football3")
    idm = P.identity_map(orbifold, atlas)
    keys = []
    snap_key = P._snap_key
    monkeypatch.setattr(P, "_snap_key", lambda m: keys.append(1) or snap_key(m))
    for k, chart in enumerate(atlas):
        assert idm.lift_at(chart) is idm.lifts[k]
    assert keys == []
    for k, chart in enumerate(atlas):
        twin = M.DerivedChart(orbifold, np.array(chart.center), chart.radius,
                              chart.isotropy)
        assert twin is not chart and idm.lift_at(twin) is idm.lifts[k]
    assert keys
    off = M.DerivedChart(orbifold, atlas[0].center, atlas[0].radius * 0.5,
                         atlas[0].isotropy)
    with pytest.raises(ChartMismatch):
        idm.lift_at(off)


def test_vector_polynomial_rows_are_one_row_calls():
    rng = np.random.default_rng(23)
    poly = P.VectorPolynomial(P.monomial_exponents(2, 2),
                              rng.normal(size=(6, 2)))
    pts = rng.uniform(-1.0, 1.0, size=(200, 2))
    many = poly(pts)
    assert many.shape == (200, 2)
    assert poly(pts[:1]).shape == (1, 2)
    assert_bitwise(many, np.concatenate([poly(pts[i:i + 1]) for i in range(200)]))
    mono = np.stack([np.prod(pts ** np.array(e), axis=1) for e in poly.exps],
                    axis=1)
    assert np.allclose(many, mono @ poly.coeffs, rtol=0.0, atol=1e-14)


# -- one default run -----------------------------------------------------------

def test_default_run_builds_each_grid_once_and_no_per_point_frames(monkeypatch):
    built = Counter()
    in_jet = Counter()
    depth = [0]
    probing = [0]
    ball_grid = M.ModelSpace.ball_grid
    tangent_basis = M.ModelSpace.tangent_basis
    geo_exp = M.ModelSpace.geo_exp
    canonicals = M.GoodOrbifold.canonicals
    lift_jet = P._lift_jet

    def counted_ball_grid(self, center, radius, per_axis=5, shrink=0.95):
        built[(np.asarray(center).tobytes(), radius, per_axis, shrink)] += 1
        return ball_grid(self, center, radius, per_axis, shrink)

    def counted_tangent_basis(self, x):
        in_jet["tangent_basis"] += depth[0] > 0
        return tangent_basis(self, x)

    def counted_geo_exp(self, x, v):
        in_jet["one-row geo_exp"] += depth[0] > 0 and np.ndim(v) == 1
        return geo_exp(self, x, v)

    def counted_canonicals(self, rows):
        in_jet["one-row canonicals"] += probing[0] > 0 and len(rows) == 1
        return canonicals(self, rows)

    def watched_lift_jet(*args, **kwargs):
        in_jet["_lift_jet"] += 1
        depth[0] += 1
        try:
            return lift_jet(*args, **kwargs)
        finally:
            depth[0] -= 1

    def watched(probe):
        def run(*args, **kwargs):
            in_jet[probe.__name__] += 1
            probing[0] += 1
            try:
                return probe(*args, **kwargs)
            finally:
                probing[0] -= 1
        return run

    monkeypatch.setattr(M.ModelSpace, "ball_grid", counted_ball_grid)
    monkeypatch.setattr(M.ModelSpace, "tangent_basis", counted_tangent_basis)
    monkeypatch.setattr(M.ModelSpace, "geo_exp", counted_geo_exp)
    monkeypatch.setattr(M.GoodOrbifold, "canonicals", counted_canonicals)
    monkeypatch.setattr(P, "_lift_jet", watched_lift_jet)
    monkeypatch.setattr(T, "_lift_jet", watched_lift_jet)
    for probe in (R.exp_local_homeo_check, R.exp_well_defined_residual,
                  R.verify_diffeo):
        monkeypatch.setattr(S, probe.__name__, watched(probe))
    report = S.run_suite(parse_config(DEFAULT_FOOTBALL3))
    assert report.passed
    assert built and max(built.values()) == 1
    assert in_jet["_lift_jet"] > 0
    assert in_jet["tangent_basis"] == 0
    assert in_jet["one-row geo_exp"] == 0
    # the exp and diffeomorphism probes canonicalise their rows in batches
    assert in_jet["exp_local_homeo_check"] == in_jet["verify_diffeo"] == 1
    assert in_jet["exp_well_defined_residual"] == 1
    assert in_jet["one-row canonicals"] == 0


def test_run_dumps_reuse_the_atlas_the_suites_ran_on(monkeypatch, tmp_path):
    config = parse_config(DEFAULT_FOOTBALL3, name_hint="football3")
    report = S.run_suite(config, seed=2)
    for which in ("partition", "orbisection", "metric"):
        assert S.dump_fields(config, which, seed=2, atlas=report.atlas) == \
            S.dump_fields(config, which, seed=2)
    builds = []
    build_atlas = M.build_atlas
    monkeypatch.setattr(S, "build_atlas",
                        lambda *a, **k: builds.append(1) or build_atlas(*a, **k))
    assert cli.main(["run", "--seed", "2", "--out", str(tmp_path)]) == 0
    assert builds == [1]
    assert len(list(tmp_path.iterdir())) == 4


# -- known failure -------------------------------------------------------------

S2_D2H = """[orbifold]
name = s2d2h
model = sphere
dimension = 2
generator = -1 0 0 0 1 0 0 0 1
generator = 1 0 0 0 -1 0 0 0 1
generator = 1 0 0 0 1 0 0 0 -1

[run]
seed = 3
suites = corollary2
"""


MIRROR = """[orbifold]
name = mirror
model = flat
dimension = 2
radius = {radius}
generator = 1 0 0 -1

[run]
seed = 3
suites = corollary2
"""


@pytest.mark.parametrize("radius,witness", [
    (1.0, "diffeo0 conjugates (1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0) to None"),
    (2.0, "-")], ids=["radius 1", "radius 2"])
def test_mirror_conjugation_closure_names_its_witness(radius, witness):
    report = S.run_suite(parse_config(MIRROR.format(radius=radius)))
    rec, = [rec for _, rec in report.records if rec.name == "conjugation_closure"]
    assert rec.passed == (witness == "-")
    assert rec.witness == witness


@pytest.mark.xfail(strict=True, reason=(
    "corollary2 lift_differences fails on S2/D2h (seed 3): two lifts of one "
    "sampled diffeomorphism do not differ by an enumerated identity lift"))
def test_s2_d2h_lift_differences_pass():
    report = S.run_suite(parse_config(S2_D2H))
    records = {(suite, rec.name): rec for suite, rec in report.records}
    assert records[("corollary2", "lift_differences")].passed
