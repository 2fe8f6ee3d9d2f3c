import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbidiff import maps as P
from orbidiff import model as M
from orbidiff import riemann as R
from orbidiff import tangent as T
from orbidiff.errors import (AtlasNotCovering, BranchAmbiguity,
                             EquivarianceViolation)
from orbidiff.groups import (GroupHom, generate_group, rotation_about_z,
                             row_apply, stabilizer)
from orbidiff.model import DerivedChart, build_chart


class TestCheckEquivariance:
    def test_identity_lift_with_conjugated_theta(self, football3,
                                                 football3_atlas):
        idm = P.identity_map(football3, football3_atlas,
                             assignments=[1 % c.isotropy.order
                                          for c in football3_atlas])
        assert P.check_equivariance(idm).max_residual < 1e-12

    def test_constant_map_with_trivial_theta(self, line_flip,
                                             line_flip_atlas):
        const = P.constant_map(line_flip, line_flip, np.array([0.0]),
                               atlas=line_flip_atlas)
        assert P.check_equivariance(const).max_residual < 1e-12

    def test_planted_perturbation_detected(self, line_flip, line_flip_atlas):
        sing = next(c for c in line_flip_atlas if c.isotropy.order > 1)

        def warped(y):
            y = np.asarray(y, dtype=float)
            return y + 1e-3 * (y > 0)

        lift = P.ChartLift(sing, warped,
                           GroupHom.inclusion(sing.isotropy, line_flip.group))
        bad = P.OrbifoldMapData(line_flip, line_flip, [lift])
        residual = P.check_equivariance(bad).max_residual
        assert residual == pytest.approx(1e-3, rel=0.2)

    def test_residual_invariant_under_lift_ambiguity(self, football3,
                                                     football3_atlas):
        # replacing a lift by d.lift and theta by d.theta(.)d^-1 is the same map
        grp = football3.group
        sing = next(c for c in football3_atlas if c.isotropy.order > 1)
        base_lift = P.ChartLift(
            sing, lambda pts: np.asarray(pts, dtype=float),
            GroupHom.inclusion(sing.isotropy, grp))
        base = P.OrbifoldMapData(football3, football3, [base_lift])
        base_res = P.check_equivariance(base).max_residual
        for d in range(grp.order):
            mat = grp.matrix(d)
            table = tuple(grp.conjugate(d, base_lift.theta.table[a])
                          for a in range(sing.isotropy.order))
            moved = P.ChartLift(
                sing, lambda pts, m=mat: row_apply(m, pts),
                GroupHom(sing.isotropy, grp, table))
            res = P.check_equivariance(
                P.OrbifoldMapData(football3, football3, [moved])).max_residual
            assert abs(res - base_res) < 1e-12


class TestValidationPolicy:
    """The constructor checks nothing; a builder checks an outside function
    once and builds everything else equivariant by construction."""

    def test_only_outside_functions_are_checked(self, monkeypatch, football3,
                                               football3_atlas, football3_exp):
        calls = []
        check = P.check_equivariance
        monkeypatch.setattr(P, "check_equivariance", lambda f, per_axis=5:
                            calls.append(f.name) or check(f, per_axis))
        rng = np.random.default_rng(5)
        sigma, tau = (T.random_orbisection(football3, football3_atlas, rng, 0.03)
                      for _ in range(2))
        P.identity_map(football3, football3_atlas)
        P.identity_map(football3, football3_atlas,
                       assignments=[1 % c.isotropy.order for c in football3_atlas])
        P.constant_map(football3, football3, np.array([0.0, 0.0, 1.0]),
                       atlas=football3_atlas)
        f, g = R.E_apply(sigma, football3_exp), R.E_apply(tau, football3_exp)
        R.transition_map(f, g, sigma, football3_exp)
        assert calls == []
        P.map_from_global(football3, football3,
                          lambda pts: row_apply(rotation_about_z(0.7), pts),
                          football3_atlas, name="rot")
        assert calls == ["rot"]

    def test_map_from_global_refuses_a_bump_that_breaks_commutation(
            self, disk_z4, disk_z4_atlas):
        chart = disk_z4_atlas[1]
        assert chart.isotropy.order == 1

        def bumped(pts):
            # a bump on one regular chart and not on its deck translates
            u = np.sum((pts - chart.center) ** 2, axis=1) / chart.radius ** 2
            return pts + 1e-3 * np.where(u < 1.0, (1.0 - np.minimum(u, 1.0)) ** 3,
                                         0.0)[:, None]

        thetas = P.derive_theta(disk_z4_atlas, bumped, disk_z4.group)
        report = P.check_equivariance(P.OrbifoldMapData(
            disk_z4, disk_z4, [P.ChartLift(ch, bumped, theta) for ch, theta
                               in zip(disk_z4_atlas, thetas)]), per_axis=4)
        assert max(report.per_chart) <= P.LIFT_TOL < report.commutation
        with pytest.raises(EquivarianceViolation, match="violates equivariance"):
            P.map_from_global(disk_z4, disk_z4, bumped, disk_z4_atlas)


class TestIdentityLifts:
    def test_football_counts(self, football3, football3_atlas):
        ids = P.enumerate_identity_lifts(football3, football3_atlas)
        assert ids.order == 9
        assert ids.is_abelian
        assert ids.exponent == 3
        identity = tuple(0 for _ in football3_atlas)
        assert all(ids.element_order(a) in (1, 3) for a in ids.assignments)
        assert ids.contains(identity)

    def test_manifold_identity_lift_is_unique(self, manifold):
        atlas = M.build_atlas(manifold, resolution=13)
        assert P.enumerate_identity_lifts(manifold, atlas).order == 1

    def test_line_flip_has_two(self, line_flip, line_flip_atlas):
        assert P.enumerate_identity_lifts(line_flip, line_flip_atlas).order == 2

    def test_mirror_stratum_forces_equal_germs(self, mirror):
        atlas = M.build_atlas(mirror, resolution=13)
        ids = P.enumerate_identity_lifts(mirror, atlas)
        assert ids.order == 2
        sing = [k for k, c in enumerate(atlas) if c.isotropy.order > 1]
        for a in ids.assignments:
            assert len({a[k] for k in sing}) == 1

    def test_full_octahedral_sphere_quotient(self):
        # every singular point of S^2/O_h lies on a mirror, and a mirror
        # stratum forces equal germs (as for D2h), so the lift is unique
        third = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        orbifold = M.GoodOrbifold(M.ModelSpace(M.SPHERE, 2),
                                  generate_group([third, quarter, -np.eye(3)]))
        assert orbifold.group.order == 48
        assert len(M.strata(orbifold, resolution=32)) == 7
        atlas = M.build_atlas(orbifold, resolution=16)
        assert tuple(c.isotropy.order for c in atlas) == (8, 6, 4)
        edges = P.overlap_graph(orbifold, atlas)
        assert P.enumerate_identity_lifts(orbifold, atlas, edges=edges).order == 1

    def test_atlas_not_covering(self, football3):
        pole = build_chart(football3, [0, 0, 1.0])
        with pytest.raises(AtlasNotCovering):
            P.enumerate_identity_lifts(football3, [pole])

    def test_group_closure_and_inverse(self, football3, football3_atlas):
        ids = P.enumerate_identity_lifts(football3, football3_atlas)
        assert ids.is_group()
        for a in ids.assignments:
            assert ids.contains(ids.inverse(a))

    def test_assignment_roundtrip_through_map(self, football3,
                                              football3_atlas):
        ids = P.enumerate_identity_lifts(football3, football3_atlas)
        a = ids.assignments[4]
        rebuilt = ids.assignment_from_map(ids.to_map(a))
        assert rebuilt == a


class TestThetaChoices:
    def test_cyclic(self):
        from orbidiff.groups import cyclic_rotation_group
        assert P.count_theta_choices(cyclic_rotation_group(5)) == 1

    def test_dihedral_eight(self):
        from orbidiff.groups import dihedral_group
        assert P.count_theta_choices(dihedral_group(4)) == 4

    def test_symmetric_three_in_o2(self):
        from orbidiff.groups import dihedral_group
        assert P.count_theta_choices(dihedral_group(3)) == 6

    def test_trivial(self):
        from orbidiff.groups import trivial_group
        assert P.count_theta_choices(trivial_group(2)) == 1


class TestExtendLift:
    def test_identity_lift_extends_as_same_deck_element(self, football3):
        big = build_chart(football3, [0, 0, 1.0])
        small = build_chart(football3, [0, 0, 1.0],
                            radius=big.radius * 0.4)
        g = big.isotropy.matrix(1)
        ext = P.extend_lift(lambda ys: ys, small,
                            lambda pts: row_apply(g, pts),
                            big, football3)
        for p in big.sample_points(per_axis=5):
            assert np.abs(np.asarray(ext.func(p[None]))[0] - g @ p).max() < 1e-9

    def test_rotation_extension_matches_global(self, football3):
        rot = rotation_about_z(2 * np.pi / 3 * 0.5)
        big = build_chart(football3, [1.0, 0, 0])
        small = build_chart(football3, [1.0, 0, 0],
                            radius=big.radius * 0.35)

        def underlying(ys):
            return row_apply(rot, ys)

        ext = P.extend_lift(underlying, small,
                            lambda pts: row_apply(rot, pts),
                            big, football3)
        for p in big.sample_points(per_axis=5):
            assert np.abs(np.asarray(ext.func(p[None]))[0] - rot @ p).max() < 1e-9

    def test_square_map_keeps_positive_branch(self, line_flip):
        big = build_chart(line_flip, [0.0], radius=1.2)
        small = build_chart(line_flip, [0.0], radius=0.5)

        def underlying(ys):
            return ys ** 2

        ext = P.extend_lift(underlying, small,
                            lambda y: np.asarray(y, dtype=float) ** 2,
                            big, line_flip)
        for x in np.linspace(-1.1, 1.1, 23):
            val = float(np.asarray(ext.func(np.array([[x]])))[0, 0])
            assert val == pytest.approx(x * x, abs=1e-9)

    def test_branch_ambiguity_near_collision(self):
        wide = M.line_mod_flip(radius=4.0)
        center = [0.75]
        big = DerivedChart(wide, np.array([0.75]), 0.7499,
                           stabilizer(wide.group, center))
        small = DerivedChart(wide, np.array([0.75]), 0.2,
                             stabilizer(wide.group, center))

        def underlying(ys):
            return ys ** 2

        with pytest.raises(BranchAmbiguity):
            ext = P.extend_lift(underlying, small,
                                lambda y: np.asarray(y, dtype=float) ** 2,
                                big, wide)
            ext.func(np.array([[0.0002]]))


class TestCompose:
    def test_identity_after_map(self, football3, football3_atlas):
        rot = P.map_from_global(
            football3, football3,
            lambda pts: row_apply(rotation_about_z(0.4), pts), football3_atlas,
            inverse=lambda pts: row_apply(rotation_about_z(-0.4), pts),
            name="rot")
        idm = P.identity_map(football3, football3_atlas)
        comp = P.compose(rot, idm)
        assert P.cs_distance(comp, rot, s=0, per_axis=4).value < 1e-12

    def test_rotations_add(self, football3, football3_atlas):
        def rot_map(angle):
            return P.map_from_global(
                football3, football3,
                lambda pts, a=angle: row_apply(rotation_about_z(a), pts),
                football3_atlas,
                inverse=lambda pts, a=angle: row_apply(rotation_about_z(-a), pts))

        comp = P.compose(rot_map(0.3), rot_map(0.5))
        assert P.cs_distance(comp, rot_map(0.8), s=0,
                             per_axis=4).value < 1e-12

    def test_composite_equivariance_validated(self, football3,
                                              football3_atlas):
        rot = P.map_from_global(
            football3, football3,
            lambda pts: row_apply(rotation_about_z(0.7), pts), football3_atlas,
            inverse=lambda pts: row_apply(rotation_about_z(-0.7), pts))
        comp = P.compose(rot, rot)
        assert P.check_equivariance(comp, per_axis=4).max_residual < 1e-8


class TestCsDistance:
    def test_distance_to_self_vanishes(self, football3, football3_atlas):
        idm = P.identity_map(football3, football3_atlas)
        for s in (0, 1, 2):
            assert P.cs_distance(idm, idm, s=s, per_axis=3).value == 0.0

    def test_rotation_distance_matches_pointwise_oracle(self, disk_z4,
                                                        disk_z4_atlas):
        from orbidiff.groups import rotation_2d
        angle = 0.6
        rmat = rotation_2d(angle)
        rot = P.map_from_global(
            disk_z4, disk_z4,
            lambda pts: row_apply(rmat, pts), disk_z4_atlas)
        idm = P.identity_map(disk_z4, disk_z4_atlas)
        report = P.cs_distance(idm, rot, s=0, per_axis=5)
        # oracle: per grid point the distance is min over the deck rotations
        # of the chord |y - R_g R_angle y|, maximized over the grid
        expected = 0.0
        for chart in disk_z4_atlas:
            for y in chart.sample_points(per_axis=5):
                img = rmat @ y
                best = min(np.linalg.norm(disk_z4.group.matrix(g) @ img - y)
                           for g in range(disk_z4.group.order))
                expected = max(expected, best)
        assert report.value == pytest.approx(expected, rel=1e-12)

    def test_d1_detects_derivative_only_perturbation(self, line_flip,
                                                     line_flip_atlas):
        amp = 1e-3
        idm = P.identity_map(line_flip, line_flip_atlas)
        wiggly = P.map_from_global(
            line_flip, line_flip,
            lambda y: np.asarray(y, dtype=float)
            + amp * np.sin(np.asarray(y, dtype=float) / amp),
            atlas=line_flip_atlas, name="wiggle")
        d0 = P.cs_distance(idm, wiggly, s=0, per_axis=5).value
        d1 = P.cs_distance(idm, wiggly, s=1, per_axis=5).value
        assert d1 / d0 > 10.0

    def test_metric_axioms_on_sampled_triple(self, football3,
                                             football3_atlas, football3_exp):
        from orbidiff.riemann import E_apply
        from orbidiff.tangent import random_orbisection
        rng = np.random.default_rng(3)
        f = E_apply(random_orbisection(football3, football3_atlas, rng, 0.03),
                    football3_exp)
        g = E_apply(random_orbisection(football3, football3_atlas, rng, 0.03),
                    football3_exp)
        idm = P.identity_map(football3, football3_atlas)
        dfg = P.cs_distance(f, g, 0, per_axis=4).value
        dgf = P.cs_distance(g, f, 0, per_axis=4).value
        dfi = P.cs_distance(f, idm, 0, per_axis=4).value
        dgi = P.cs_distance(g, idm, 0, per_axis=4).value
        assert dfg == dgf
        assert dfg <= dfi + dgi + 1e-12
        assert dfg > 0

    def test_orders_above_two_rejected(self, football3, football3_atlas):
        idm = P.identity_map(football3, football3_atlas)
        with pytest.raises(ValueError):
            P.cs_distance(idm, idm, s=3)


class TestPolynomialAveraging:
    def _line_chart_lift(self, line_flip, func, theta_table):
        chart = build_chart(line_flip, [0.0], radius=0.9)
        theta = GroupHom(chart.isotropy, line_flip.group, theta_table)
        return P.ChartLift(chart, func, theta)

    def test_averaging_equivariant_polynomial_is_identity(self, line_flip):
        poly = P.VectorPolynomial(P.monomial_exponents(1, 3),
                                  np.array([[0.0], [2.0], [0.0], [-1.5]]))
        entry = self._line_chart_lift(line_flip, lambda y: poly(y), (0, 1))
        pairs = [(entry.chart.isotropy.matrix(a), entry.theta.matrix(a))
                 for a in range(entry.chart.isotropy.order)]
        averaged = P.average_polynomial(poly, pairs)
        assert np.abs(averaged.coeffs - poly.coeffs).max() < 1e-12

    def test_averaging_extracts_odd_part(self, line_flip):
        coeffs = np.array([[0.7], [1.1], [-0.4], [2.5]])
        poly = P.VectorPolynomial(P.monomial_exponents(1, 3), coeffs)
        entry = self._line_chart_lift(line_flip, lambda y: poly(y), (0, 1))
        pairs = [(entry.chart.isotropy.matrix(a), entry.theta.matrix(a))
                 for a in range(entry.chart.isotropy.order)]
        averaged = P.average_polynomial(poly, pairs)
        # oracle: (q(z) - q(-z)) / 2 on coefficients kills even exponents
        expected = coeffs.copy()
        for k, e in enumerate(P.monomial_exponents(1, 3)):
            if sum(e) % 2 == 0:
                expected[k] = 0.0
        assert np.abs(averaged.coeffs - expected).max() < 1e-12

    def test_averaging_idempotent_at_lift_level(self, disk_z4, disk_z4_atlas):
        sing = next(c for c in disk_z4_atlas if c.isotropy.order > 1)
        rng = np.random.default_rng(5)
        raw = P.VectorPolynomial(P.monomial_exponents(2, 3),
                                 rng.normal(size=(10, 2)))
        pairs = [(sing.isotropy.matrix(a), sing.isotropy.matrix(a))
                 for a in range(sing.isotropy.order)]
        once = P.average_polynomial(raw, pairs)
        twice = P.average_polynomial(once, pairs)
        assert np.abs(once.coeffs - twice.coeffs).max() < 1e-12

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_compose_linear_matches_pointwise(self, seed):
        gen = np.random.default_rng(seed)
        poly = P.VectorPolynomial(P.monomial_exponents(2, 3),
                                  gen.normal(size=(10, 2)))
        a = gen.normal(size=(2, 2))
        pts = gen.normal(size=(7, 2)) * 0.5
        composed = poly.compose_linear(a)
        direct = poly(pts @ a.T)
        assert np.abs(composed(pts) - direct).max() < 1e-10
