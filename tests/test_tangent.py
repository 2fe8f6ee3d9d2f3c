import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbidiff import model as M
from orbidiff import tangent as T
from orbidiff.errors import NotDifferentiable
from orbidiff.groups import (_snap_key, fixed_subspace, row_apply, row_dot,
                             stabilizer)


class TestAdmissibleSpace:
    def test_line_flip_origin_admits_only_zero(self, line_flip):
        assert T.admissible_space(line_flip, [0.0]).shape[0] == 0

    def test_mirror_stratum_is_one_dimensional(self, mirror):
        basis = T.admissible_space(mirror, [0.3, 0.0])
        assert basis.shape[0] == 1
        assert abs(abs(basis[0, 0]) - 1.0) < 1e-12

    def test_regular_points_admit_everything(self, mirror):
        assert T.admissible_space(mirror, [0.3, 0.2]).shape[0] == 2

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_football_pole_admits_only_zero(self, p):
        fb = M.football(p)
        assert T.admissible_space(fb, [0, 0, 1.0]).shape[0] == 0

    def test_matches_fixed_subspace_by_mutual_projection(self, disk_z4, rng):
        for _ in range(6):
            x = disk_z4.model.project_checked(disk_z4.random_row(rng)[None])[0]
            admissible = T.admissible_space(disk_z4, x)
            fixed = fixed_subspace(stabilizer(disk_z4.group, x))
            assert admissible.shape[0] == fixed.shape[0]
            if fixed.shape[0]:
                proj = fixed.T @ fixed
                for b in admissible:
                    assert np.abs(proj @ b - b).max() < 1e-12

    def test_bundle_not_locally_trivial_at_origin(self, line_flip):
        # the admissible dimension jumps on every neighborhood of [0]
        for radius in (0.5, 0.1, 1e-3, 1e-6):
            dims = {T.admissible_space(line_flip, [x]).shape[0]
                    for x in (0.0, radius)}
            assert dims == {0, 1}


class TestProjectEquivariant:
    def test_already_equivariant_field_unchanged(self, disk_z4):
        def field(pts):
            pts = np.asarray(pts, dtype=float)
            return pts * row_dot(pts, pts)[:, None]

        projected = T.project_equivariant(disk_z4.group, field)
        for y in np.random.default_rng(0).normal(size=(12, 2)) * 0.4:
            assert np.abs(projected(y[None])[0] - field(y[None])[0]).max() < 1e-12

    def test_constant_field_on_line_flip_projects_to_zero(self, line_flip):
        projected = T.project_equivariant(line_flip.group,
                                          lambda pts: np.full((len(pts), 1), 5.0))
        for x in np.linspace(-1.5, 1.5, 11):
            assert abs(float(projected(np.array([[x]]))[0, 0])) < 1e-15

    def test_random_cubic_becomes_equivariant(self, disk_z4, rng):
        coeff = rng.normal(size=(2, 10))

        def field(pts):
            y = np.asarray(pts, dtype=float).T
            feats = np.array([np.ones_like(y[0]), y[0], y[1], y[0] ** 2,
                              y[0] * y[1], y[1] ** 2, y[0] ** 3, y[0] ** 2 * y[1],
                              y[0] * y[1] ** 2, y[1] ** 3]).T
            return row_apply(coeff, feats)

        projected = T.project_equivariant(disk_z4.group, field)
        res = 0.0
        for y in rng.normal(size=(15, 2)) * 0.4:
            for lab in range(disk_z4.group.order):
                g = disk_z4.group.matrix(lab)
                res = max(res, float(np.abs(projected((g @ y)[None])[0]
                                            - g @ projected(y[None])[0]).max()))
        assert res < 1e-12

    def test_idempotent(self, disk_z4, rng):
        raw = lambda pts: np.stack([pts[:, 0] + 0.3, pts[:, 1] ** 2], axis=1)
        once = T.project_equivariant(disk_z4.group, raw)
        twice = T.project_equivariant(disk_z4.group, once)
        for y in rng.normal(size=(10, 2)) * 0.4:
            assert np.abs(once(y[None])[0] - twice(y[None])[0]).max() < 1e-12

    def test_sphere_projection_keeps_tangency(self, football3, rng):
        raw = lambda pts: rng.normal(size=(len(pts), 3)) * 0 + np.array([0.2, -0.1, 0.4])
        projected = T.project_equivariant(football3.group, raw,
                                          model=football3.model)
        for _ in range(8):
            y = rng.normal(size=3)
            y = y / np.linalg.norm(y)
            assert abs(float(projected(y[None])[0] @ y)) < 1e-12


class TestOrbisectionAlgebra:
    def test_zero_is_neutral(self, football3, football3_atlas, rng):
        sigma = T.random_orbisection(football3, football3_atlas, rng, 0.05)
        zero = T.zero_orbisection(football3, football3_atlas)
        combo = sigma + zero
        pts = football3_atlas[0].sample_points(per_axis=4)
        for y in pts[:, None]:
            assert np.abs(combo.values(y) - sigma.values(y)).max() < 1e-15

    def test_scaling_is_pointwise(self, football3, football3_atlas, rng):
        sigma = T.random_orbisection(football3, football3_atlas, rng, 0.05)
        doubled = 2.0 * sigma
        for y in football3_atlas[1].sample_points(per_axis=3)[:, None]:
            assert np.abs(doubled.values(y) - 2 * sigma.values(y)).max() < 1e-15

    def test_combination_keeps_equivariance(self, football3,
                                            football3_atlas, rng):
        a = T.random_orbisection(football3, football3_atlas, rng, 0.05)
        b = T.random_orbisection(football3, football3_atlas, rng, 0.05)
        combo = T.linear_combination(a, b, 1.3, -0.7)
        assert combo.equivariance_residual(per_axis=4) < 1e-9

    def test_singular_center_values_stay_admissible(self, football3,
                                                    football3_atlas, rng):
        a = T.random_orbisection(football3, football3_atlas, rng, 0.05)
        b = T.random_orbisection(football3, football3_atlas, rng, 0.05)
        combo = T.linear_combination(a, b, 2.0, 3.0)
        assert combo.center_fixed_residual() < 1e-9
        for pole in ([0, 0, 1.0], [0, 0, -1.0]):
            assert np.abs(combo.values(np.array([pole]))[0]).max() < 1e-12


class TestSeminorm:
    def test_zero_section_has_zero_norm(self, football3, football3_atlas):
        zero = T.zero_orbisection(football3, football3_atlas)
        assert T.seminorm(zero, 0) == 0.0
        assert T.seminorm(zero, 1) == 0.0

    def test_linear_field_norm_matches_grid_oracle(self, manifold):
        atlas = (M.build_chart(manifold, [0.0, 0.0],
                               radius=0.999),)
        c = 0.37
        sigma = T.Orbisection(manifold, atlas,
                              lambda y: c * np.asarray(y, dtype=float))
        # closed form on the grid: c times the largest sample radius
        pts = atlas[0].sample_points(per_axis=5)
        expected = c * float(np.linalg.norm(pts, axis=1).max())
        assert T.seminorm(sigma, 0) == pytest.approx(expected, rel=1e-12)

    def test_order_one_includes_derivatives(self, manifold):
        atlas = (M.build_chart(manifold, [0.0, 0.0],
                               radius=0.999),)
        sigma = T.Orbisection(manifold, atlas,
                              lambda pts: np.array([0.0, 0.001])
                              * np.sin(50 * pts[:, :1]))
        assert T.seminorm(sigma, 0) < 2e-3
        assert T.seminorm(sigma, 1) > 2e-2

    def test_triangle_inequality_on_random_pairs(self, football3,
                                                 football3_atlas):
        gen = np.random.default_rng(11)
        for _ in range(100):
            a = T.random_orbisection(football3, football3_atlas, gen, 0.05)
            b = T.random_orbisection(football3, football3_atlas, gen, 0.05)
            lhs = T.seminorm(a + b, 0, per_axis=3)
            rhs = T.seminorm(a, 0, per_axis=3) + T.seminorm(b, 0, per_axis=3)
            assert lhs <= rhs + 1e-12

    @given(st.floats(-4.0, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_absolute_homogeneity(self, t):
        fb = M.football(2)
        atlas = M.build_atlas(fb, resolution=14)
        sigma = T.random_orbisection(fb, atlas, np.random.default_rng(2), 0.05)
        lhs = T.seminorm(t * sigma, 0, per_axis=3)
        rhs = abs(t) * T.seminorm(sigma, 0, per_axis=3)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


WIDE_MIRROR = M.plane_mod_reflection(radius=2.0)


def _curve_b(mirror=None):
    mirror = mirror or WIDE_MIRROR
    return T.CurveInOrbifold(mirror, [
        T.CurveSegment(-1.0, 0.0, lambda t: np.array([t, -t])),
        T.CurveSegment(0.0, 1.0, lambda t: np.array([t, t]))])


def _curve_c(mirror=None):
    mirror = mirror or WIDE_MIRROR
    return T.CurveInOrbifold(mirror, [
        T.CurveSegment(-1.0, 0.0, lambda t: np.array([t, t * t])),
        T.CurveSegment(0.0, 1.0, lambda t: np.array([t, t * t]))])


class TestCurveLifts:
    def test_kinked_curve_counts(self):
        lifts = T.enumerate_curve_lifts(_curve_b(), 0.0, k=2)
        assert len(lifts) == 4
        assert sum(1 for l in lifts if l.smooth_order >= 1) == 2
        assert sum(1 for l in lifts if l.smooth_order >= 2) == 2

    def test_parabola_counts(self):
        lifts = T.enumerate_curve_lifts(_curve_c(), 0.0, k=2)
        assert len(lifts) == 4
        assert sum(1 for l in lifts if l.smooth_order >= 1) == 4
        assert sum(1 for l in lifts if l.smooth_order >= 2) == 2

    def test_regular_crossing_has_single_lift(self):
        curve = T.CurveInOrbifold(WIDE_MIRROR, [
            T.CurveSegment(-1.0, 0.0, lambda t: np.array([t, 0.5])),
            T.CurveSegment(0.0, 1.0, lambda t: np.array([t, 0.5]))])
        lifts = T.enumerate_curve_lifts(curve, 0.0, k=2)
        assert len(lifts) == 1
        assert lifts[0].smooth_order == 2

    def test_counts_invariant_under_reparametrization(self):
        for alpha in (0.5, 2.0, 3.7):
            curve = T.CurveInOrbifold(WIDE_MIRROR, [
                T.CurveSegment(-1.0 / alpha, 0.0,
                               lambda t, a=alpha: np.array([a * t, -a * t])),
                T.CurveSegment(0.0, 1.0 / alpha,
                               lambda t, a=alpha: np.array([a * t, a * t]))])
            lifts = T.enumerate_curve_lifts(curve, 0.0, k=2)
            assert len(lifts) == 4
            assert sum(1 for l in lifts if l.smooth_order >= 1) == 2

    def test_rejects_orders_beyond_two(self):
        with pytest.raises(ValueError):
            T.enumerate_curve_lifts(_curve_b(), 0.0, k=3)

    def test_lift_callables_project_correctly(self):
        for lift in T.enumerate_curve_lifts(_curve_b(), 0.0, k=1):
            for t in (-0.5, 0.25):
                a, b = WIDE_MIRROR.canonicals(np.array([lift.lift(t),
                                                        [t, abs(t)]]))
                assert _snap_key(a) == _snap_key(b)


class TestCurveTangent:
    def test_regular_time_is_plain_derivative(self):
        tv = T.curve_tangent(_curve_c(), 0.5)
        assert np.abs(tv - np.array([1.0, 1.0])).max() < 1e-8

    def test_parabola_tangent_is_fixed_vector(self):
        tv = T.curve_tangent(_curve_c(), 0.0)
        assert np.abs(tv - np.array([1.0, 0.0])).max() < 1e-8
        refl = WIDE_MIRROR.group.matrix(1)
        assert np.abs(refl @ tv - tv).max() < 1e-8

    def test_kinked_curve_is_not_differentiable(self):
        with pytest.raises(NotDifferentiable):
            T.curve_tangent(_curve_b(), 0.0)

    def test_kinked_smooth_lifts_are_isotropy_related(self):
        lifts = [l for l in T.enumerate_curve_lifts(_curve_b(), 0.0, k=1)
                 if l.smooth_order >= 1]
        ders = []
        h = 1e-5
        for l in lifts:
            ders.append((np.asarray(l.lift(h)) - np.asarray(l.lift(-h)))
                        / (2 * h))
        assert len(ders) == 2
        refl = WIDE_MIRROR.group.matrix(1)
        assert np.abs(refl @ ders[0] - ders[1]).max() < 1e-6
        for d in ders:
            assert np.abs(np.abs(d) - np.array([1.0, 1.0])).max() < 1e-6

    def test_boundary_tangent_returns_class(self):
        tv = T.curve_tangent(_curve_b(), -1.0)
        assert np.abs(tv - np.array([1.0, -1.0])).max() < 1e-6
