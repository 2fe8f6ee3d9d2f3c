"""Atlas-wide evaluation against the per-chart and per-point code it replaced.

Chart grids are built once per chart and key, tangent frames for many points
in one Gram-Schmidt, finite-difference stencils in one exponential call,
seminorms in one field call per atlas, and lift extension and the
commutation probe canonicalise many points in one call.  The references
below are the replaced code, kept as oracles: every entry must agree bit for
bit, because reports and CSV dumps are byte-identical for a fixed
(config, seed).
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbidiff import maps as P
from orbidiff import model as M
from orbidiff import suites as S
from orbidiff import tangent as T
from orbidiff.config import DEFAULT_FOOTBALL3, parse_config
from orbidiff.errors import BranchAmbiguity, ChartMismatch, ImageEscapesChart
from orbidiff.groups import GroupHom, row_apply
from test_batched_lifts import (STEP, chain, reference_ball_grid,
                                reference_lift_jet, reference_seminorm,
                                reference_tangent_basis)
from test_field_kernels import CASES, assert_bitwise, case, draw_points

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
                moved = grp.act(lab, pts)
                inside = [k for k, p in enumerate(moved)
                          if ej.chart.contains(p, slack=0.0)][:8]
                if not inside:
                    continue
                ya = np.asarray(ei.func(pts[inside]), dtype=float)
                yb = np.asarray(ej.func(moved[inside]), dtype=float)
                for a, b in zip(ya, yb):
                    worst = max(worst, f.target.quotient_distance(
                        f.target.point(a), f.target.point(b)))
    return worst


def reference_extension(underlying, small, small_lift, big, target, y, steps=64):
    """extend_lift's extension at one point: a path of one-point exp calls,
    walked with one quotient point per path point."""
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
        q = underlying(small.orbifold.point(p))
        cand = target.group.matrices @ q.canonical
        prev = cand[np.argmin(np.linalg.norm(cand - prev, axis=1))]
    return prev


# -- tangent frames ------------------------------------------------------------

@pytest.mark.parametrize("model", [M.ModelSpace(M.SPHERE, 2),
                                   M.ModelSpace(M.SPHERE, 1)],
                         ids=["S2", "S1"])
def test_tangent_frames_match_the_one_point_walk_where_axes_are_skipped(model):
    if model.ambient_dim == 3:
        pts = mixed_sphere_rows()
    else:
        angles = np.linspace(0.0, 2.0 * np.pi, 13)
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        pts = np.concatenate([pts, np.eye(2), -np.eye(2)])
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
                want = reference_seminorm(orbifold.model, section.value, atlas,
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
            worst = max(worst, float(np.abs(moved - vals @ g.T).max()))
    assert sigma.equivariance_residual(per_axis=4) == worst


# -- quotient points, lift extension and the commutation probe ----------------

@pytest.mark.parametrize("name", sorted(CASES))
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_points_canonicalise_like_one_point_at_a_time(name, data):
    orbifold, _ = case(name)
    pts = draw_points(data, orbifold)
    batch = orbifold.points(pts)
    for p, q in zip(pts, batch):
        one = orbifold.point(p)
        assert_bitwise(q.representative, one.representative)
        assert_bitwise(q.canonical, one.canonical)


def test_points_refuse_a_row_outside_the_model():
    disk = M.disk_mod_rotation(4)
    with pytest.raises(ValueError, match="not in the model space"):
        disk.points(np.array([[0.1, 0.2], [1.5, 0.0]]))


def _extensions():
    fb = M.football(3)
    big = M.build_chart(fb, fb.point([0.0, 0.0, 1.0]))
    small = M.build_chart(fb, fb.point([0.0, 0.0, 1.0]), radius=big.radius * 0.4)
    g = big.isotropy.matrix(1)
    rot = np.array([[np.cos(0.5), -np.sin(0.5), 0.0],
                    [np.sin(0.5), np.cos(0.5), 0.0], [0.0, 0.0, 1.0]])
    side = M.build_chart(fb, fb.point([1.0, 0.0, 0.0]))
    side_small = M.build_chart(fb, fb.point([1.0, 0.0, 0.0]),
                               radius=side.radius * 0.35)
    line = M.line_mod_flip()
    line_big = M.build_chart(line, line.point([0.0]), radius=1.2)
    line_small = M.build_chart(line, line.point([0.0]), radius=0.5)
    return [
        ("football pole, deck element", (lambda q: q, small,
                                        lambda pts: row_apply(g, pts), big, fb)),
        ("football side, rotation",
         (lambda q: fb.point(rot @ q.representative), side_small,
          lambda pts: row_apply(rot, pts), side, fb)),
        ("line, square",
         (lambda q: line.point(np.asarray(q.representative) ** 2), line_small,
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


def test_extension_refuses_an_image_outside_the_target():
    wide = M.line_mod_flip(radius=4.0)
    narrow = M.line_mod_flip(radius=1.0)
    iso = wide.isotropy_at(wide.point([0.0]))
    big = M.DerivedChart(wide, np.array([0.0]), 0.9, iso)
    small = M.DerivedChart(wide, np.array([0.0]), 0.2, iso)
    # images pass radius 1 from |y| = 2/3 on, inside the big chart
    with pytest.raises(ImageEscapesChart):
        P.extend_lift(lambda q: wide.point(1.5 * q.representative), small,
                      lambda y: 1.5 * np.asarray(y, dtype=float), big, narrow)


def test_extension_keeps_branch_and_chart_errors():
    wide = M.line_mod_flip(radius=4.0)
    iso = wide.isotropy_at(wide.point([0.75]))
    big = M.DerivedChart(wide, np.array([0.75]), 0.7499, iso)
    small = M.DerivedChart(wide, np.array([0.75]), 0.2, iso)
    with pytest.raises(BranchAmbiguity):
        ext = P.extend_lift(lambda q: wide.point(np.asarray(q.representative) ** 2),
                            small, lambda y: np.asarray(y, dtype=float) ** 2,
                            big, wide)
        ext.func(np.array([[0.0002]]))
    off = M.DerivedChart(wide, np.array([0.5]), 0.3, iso)
    with pytest.raises(ChartMismatch):
        P.extend_lift(lambda q: q, off, lambda y: y, big, wide)


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
    grown = P.OrbifoldMapData(orbifold, orbifold, lifts, validate=False)
    with pytest.raises(ImageEscapesChart, match="not in the model space"):
        P.check_equivariance(grown, per_axis=4)


# -- one default run -----------------------------------------------------------

def test_default_run_builds_each_grid_once_and_no_per_point_frames(monkeypatch):
    built = Counter()
    in_jet = Counter()
    depth = [0]
    ball_grid = M.ModelSpace.ball_grid
    tangent_basis = M.ModelSpace.tangent_basis
    geo_exp = M.ModelSpace.geo_exp
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

    def watched_lift_jet(*args, **kwargs):
        in_jet["_lift_jet"] += 1
        depth[0] += 1
        try:
            return lift_jet(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(M.ModelSpace, "ball_grid", counted_ball_grid)
    monkeypatch.setattr(M.ModelSpace, "tangent_basis", counted_tangent_basis)
    monkeypatch.setattr(M.ModelSpace, "geo_exp", counted_geo_exp)
    monkeypatch.setattr(P, "_lift_jet", watched_lift_jet)
    monkeypatch.setattr(T, "_lift_jet", watched_lift_jet)
    report = S.run_suite(parse_config(DEFAULT_FOOTBALL3))
    assert report.passed
    assert built and max(built.values()) == 1
    assert in_jet["_lift_jet"] > 0
    assert in_jet["tangent_basis"] == 0
    assert in_jet["one-row geo_exp"] == 0


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


@pytest.mark.xfail(strict=True, reason=(
    "corollary2 lift_differences fails on S2/D2h (seed 3): two lifts of one "
    "sampled diffeomorphism do not differ by an enumerated identity lift"))
def test_s2_d2h_lift_differences_pass():
    report = S.run_suite(parse_config(S2_D2H))
    records = {(suite, rec.name): rec for suite, rec in report.records}
    assert records[("corollary2", "lift_differences")].passed
