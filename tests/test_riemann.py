import numpy as np
import pytest

from orbidiff import maps as P
from orbidiff import model as M
from orbidiff import riemann as R
from orbidiff import tangent as T
from orbidiff.errors import (CoverGap, NotCloseToIdentity, NotSPD,
                             OutOfDomain, ThetaNotIdentity)
from orbidiff.groups import GroupHom, rotation_about_z, row_apply, row_dot
from test_model import qdist


class TestPartitionOfUnity:
    def test_single_covering_chart_gives_constant_one(self, manifold):
        chart = M.build_chart(manifold, [0.0, 0.0],
                              radius=0.999)
        pou = R.equivariant_partition_of_unity(manifold, [chart])
        for y in manifold.model.grid(9):
            if np.linalg.norm(y) <= 0.75:
                assert pou.total(y) == pytest.approx(1.0, abs=1e-15)
                assert pou.weights[0](y) == pytest.approx(1.0, abs=1e-15)

    def test_football_weights_sum_to_one(self, football3, football3_atlas):
        pou = R.equivariant_partition_of_unity(football3, football3_atlas)
        grid = football3.model.grid(24)
        sum_res, equi_res = pou.verify(grid[::5])
        assert sum_res < 1e-9
        assert equi_res < 1e-12

    def test_weights_supported_in_their_charts(self, football3,
                                               football3_atlas):
        pou = R.equivariant_partition_of_unity(football3, football3_atlas)
        grp = football3.group
        for chart, w in zip(football3_atlas, pou.weights):
            for y in football3.model.grid(12):
                if w(y) > 1e-15:
                    pts = grp.matrices @ y
                    assert float(football3.model.distances(
                        pts, chart.center).min()) <= chart.radius + 1e-12

    def test_cover_gap_detected(self, football3):
        tiny = [M.build_chart(football3, [0, 0, 1.0],
                              radius=0.2)]
        with pytest.raises(CoverGap):
            R.equivariant_partition_of_unity(football3, tiny)


class TestAverageMetric:
    def test_invariant_metric_unchanged(self, disk_z4, disk_z4_atlas):
        chart = next(c for c in disk_z4_atlas if c.isotropy.order > 1)

        def conformal(pts):
            return (1.0 + row_dot(pts, pts))[:, None, None] * np.eye(2)

        averaged = R.average_metric(chart, conformal)
        pts = chart.sample_points(per_axis=4)
        assert np.abs(averaged(pts) - conformal(pts)).max() < 1e-12

    def test_random_perturbation_becomes_invariant(self, disk_z4,
                                                   disk_z4_atlas, rng):
        chart = next(c for c in disk_z4_atlas if c.isotropy.order > 1)
        bump = rng.normal(size=(2, 2)) * 0.2

        def raw(pts):
            w = bump + bump.T
            wave = 0.3 * np.sin(pts[:, 0] + 2 * pts[:, 1])
            return np.eye(2) + wave[:, None, None] * w @ w.T

        averaged = R.average_metric(chart, raw)
        assert R.metric_invariance_residual(chart, averaged) < 1e-10
        pts = chart.sample_points(per_axis=4)
        min_in = float(np.linalg.eigvalsh(raw(pts)).min())
        min_out = float(np.linalg.eigvalsh(averaged(pts)).min())
        assert min_out > 0
        assert min_out >= min_in / chart.isotropy.order - 1e-12

    def test_identity_metric_passes_through(self, disk_z4, disk_z4_atlas):
        chart = disk_z4_atlas[0]
        averaged = R.average_metric(chart, _constant_metric(np.eye(2)))
        out = averaged(chart.sample_points(per_axis=3))
        assert np.abs(out - np.eye(2)).max() == 0.0
        assert float(np.linalg.eigvalsh(out).min()) == 1.0

    def test_averaging_idempotent(self, disk_z4, disk_z4_atlas, rng):
        chart = next(c for c in disk_z4_atlas if c.isotropy.order > 1)
        bump = rng.normal(size=(2, 2)) * 0.1

        def raw(pts):
            w = bump + bump.T
            wave = 0.2 * np.cos(pts[:, 0])
            return np.eye(2) + wave[:, None, None] * w @ w.T

        once = R.average_metric(chart, raw)
        twice = R.average_metric(chart, once)
        pts = chart.sample_points(per_axis=4)
        assert np.abs(once(pts) - twice(pts)).max() < 1e-12

    def test_not_spd_rejected(self, disk_z4, disk_z4_atlas):
        chart = disk_z4_atlas[0]
        with pytest.raises(NotSPD):
            R.average_metric(chart, _constant_metric(-np.eye(2)))
        with pytest.raises(NotSPD):
            R.average_metric(chart, _constant_metric(np.array([[1.0, 0.5],
                                                               [0.0, 1.0]])))

    def test_printed_double_sum_is_degenerate(self, line_flip,
                                              line_flip_atlas):
        chart = next(c for c in line_flip_atlas if c.isotropy.order > 1)
        entry = R.average_metric(chart, _constant_metric(np.eye(1)),
                                 printed_double_sum=True)
        # the two-slot average factors through the fixed-subspace projector,
        # which is zero for the sign flip: no positive definiteness survives
        assert np.abs(entry(chart.sample_points(per_axis=3))).max() < 1e-15


def _constant_metric(mat):
    """The metric entry (k, n) -> (k, n, n) that is mat at every row."""
    return lambda pts: np.broadcast_to(mat, (len(pts),) + mat.shape)


class TestExpMap:
    def test_zero_vector_is_fixed(self, football3, football3_exp):
        row = np.array([[0.3, 0.4, np.sqrt(1 - 0.25)]])
        q = football3_exp.lift_exp(football3.model.project_checked(row),
                                   np.zeros((1, 3)))
        assert qdist(football3, row, q) == 0.0

    def test_sphere_half_pi_from_pole(self, football3, football3_exp):
        pole = np.array([[0, 0, 1.0]])
        v = np.array([1.0, 0.0, 0.0]) * (np.pi / 2)
        out = football3_exp.lift_exp(pole, v[None])
        assert qdist(football3, pole, out) == pytest.approx(
            np.pi / 2, abs=1e-12)

    def test_representative_independence(self, football3_exp, rng):
        assert R.exp_well_defined_residual(football3_exp, rng) < 1e-9

    @pytest.mark.parametrize("build", [lambda: M.football(3),
                                       lambda: M.disk_mod_rotation(4, 2.0)],
                             ids=["football3", "disk_Z4 radius 2"])
    def test_well_defined_residual_keeps_the_stream_where_no_image_leaves(
            self, build):
        exp_map = R.ExpMap.closed_form(build())
        rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        got = R.exp_well_defined_residual(exp_map, rng)
        assert got == _reference_well_defined_residual(exp_map, ref_rng, 50)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("radius", [1.0, 1e-6])
    def test_well_defined_residual_redraws_images_that_leave(self, radius,
                                                             monkeypatch):
        # the riemann suite's stream at seed 5: at radius 1 two of the first
        # 50 triples leave the disk, at radius 1e-6 all of them do
        disk = M.disk_mod_rotation(4, radius)
        exp_map = R.ExpMap.closed_form(disk)
        with pytest.raises(OutOfDomain):
            _reference_well_defined_residual(
                exp_map, np.random.default_rng(6005), 50)
        measured = []
        distances = M.GoodOrbifold.quotient_pair_distances
        monkeypatch.setattr(M.GoodOrbifold, "quotient_pair_distances",
                            lambda self, a, b: measured.append(len(a))
                            or distances(self, a, b))
        got = R.exp_well_defined_residual(exp_map, np.random.default_rng(6005))
        # the kept triples are measured together, one row each
        assert measured == [50]
        assert got < 1e-9

    def test_out_of_domain_on_sphere(self, football3, football3_exp):
        pole = np.array([[0, 0, 1.0]])
        with pytest.raises(OutOfDomain):
            football3_exp.lift_exp(pole, np.array([[3.2, 0.0, 0.0]]))

    def test_log_inverts_exp(self, football3, football3_exp, rng):
        model, grp = football3.model, football3.group
        for _ in range(10):
            x = model.project_checked(football3.random_row(rng)[None])
            v = rng.normal(size=2) @ model.tangent_basis(x[0]) * 0.4
            q = football3.canonicals(football3_exp.lift_exp(x, v[None]))
            # log points at the representative of q nearest to x
            reps = grp.matrices @ q[0]
            near = reps[np.argmin(model.distances(reps, x[0]))]
            back = football3_exp.lift_log(x, near[None])
            image = football3_exp.lift_exp(x, back)
            assert qdist(football3, q, image) < 1e-12


def _reference_well_defined_residual(exp_map, rng, count):
    """exp_well_defined_residual before it redrew triples leaving the model:
    one exponential call per endpoint, OutOfDomain on the first that leaves."""
    orbifold = exp_map.orbifold
    model = orbifold.model
    grp = orbifold.group
    worst = 0.0
    for _ in range(count):
        x = model.project_checked(orbifold.random_row(rng)[None])
        frame = model.tangent_basis(x[0])
        v = rng.normal(size=frame.shape[0]) @ frame
        v = v / max(np.linalg.norm(v), 1e-12) * rng.uniform(0.0, 0.4)
        lab = int(rng.integers(0, grp.order))
        q1 = exp_map.lift_exp(x, v[None])
        R._require_in_model(model, q1)
        moved = model.project_checked(grp.act(lab, x[0])[None])
        q2 = exp_map.lift_exp(moved, grp.act(lab, v)[None])
        R._require_in_model(model, q2)
        worst = max(worst, qdist(orbifold, q1, q2))
    return worst


class TestHomeoAndStrata:
    def test_flat_regular_point_passes(self, manifold):
        exp_map = R.ExpMap.closed_form(manifold)
        rep = R.exp_local_homeo_check(exp_map, [0.1, 0.0],
                                      0.25, np.random.default_rng(1))
        assert rep.passed

    def test_football_pole_passes(self, football3, football3_exp):
        rep = R.exp_local_homeo_check(football3_exp, [0, 0, 1.0], 0.3,
                                      np.random.default_rng(2))
        assert rep.passed
        assert rep.injectivity_witness is None

    def test_planted_quantized_exp_fails_with_witness(self, football3,
                                                      football3_exp):
        eps = 0.3
        cell = eps  # coarse cells force exact image collisions

        def quantized(x, v):
            v = np.floor(np.asarray(v, dtype=float) / cell) * cell
            return football3_exp.lift_exp(x, v)

        rep = R.exp_local_homeo_check(
            football3_exp, [0, 0, 1.0], eps,
            np.random.default_rng(3), exp_override=quantized)
        assert not rep.injective
        assert rep.injectivity_witness is not None

    def test_planted_shrunk_exp_fails_surjectivity(self, football3,
                                                   football3_exp):
        eps = 0.3

        def shrunk(x, v):
            # images fill only the 0.3 eps ball: injective, not onto
            return football3_exp.lift_exp(x, 0.3 * np.asarray(v, dtype=float))

        rep = R.exp_local_homeo_check(
            football3_exp, [0, 0, 1.0], eps,
            np.random.default_rng(4), exp_override=shrunk)
        assert rep.injective
        assert not rep.surjective
        assert rep.surjectivity_gap > rep.surjectivity_tolerance
        assert rep.targets_checked > 0

    def test_mirror_stratum_preserved(self, mirror):
        exp_map = R.ExpMap.closed_form(mirror)
        p = np.array([0.2, 0.0])
        v = T.admissible_space(mirror, p)[0] * 0.3
        assert R.exp_stratum_check(exp_map, p, v, np.linspace(0, 1, 11))

    def test_regular_point_stays_regular(self, mirror):
        exp_map = R.ExpMap.closed_form(mirror)
        p = np.array([0.2, 0.35])
        assert R.exp_stratum_check(exp_map, p, np.array([0.05, 0.02]),
                                   np.linspace(0, 1, 9))

    def test_pole_only_zero_is_admissible(self, football3, football3_exp):
        pole = np.array([0, 0, 1.0])
        assert T.admissible_space(football3, pole).shape[0] == 0
        assert R.exp_stratum_check(football3_exp, pole, np.zeros(3),
                                   np.linspace(0, 1, 5))


class TestChartMapE:
    def test_zero_section_gives_identity(self, football3, football3_atlas,
                                         football3_exp):
        zero = T.zero_orbisection(football3, football3_atlas)
        f = R.E_apply(zero, football3_exp)
        idm = P.identity_map(football3, football3_atlas)
        assert P.cs_distance(f, idm, s=0, per_axis=4).value == 0.0

    def test_constant_field_translates_flat_chart(self, manifold):
        atlas = (M.build_chart(manifold, [0.0, 0.0],
                               radius=0.999),)
        exp_map = R.ExpMap.closed_form(manifold)
        shift = np.array([0.05, -0.02])
        sigma = T.Orbisection(manifold, atlas,
                              lambda pts: np.tile(shift, (len(pts), 1)))
        f = R.E_apply(sigma, exp_map)
        for y in atlas[0].sample_points(per_axis=4):
            assert np.abs(np.asarray(f.global_lift(y[None]))[0]
                          - (y + shift)).max() == 0.0

    def test_equivariance_of_twenty_random_sections(self, football3,
                                                    football3_atlas,
                                                    football3_exp):
        gen = np.random.default_rng(23)
        worst = 0.0
        for _ in range(20):
            sigma = T.random_orbisection(football3, football3_atlas, gen, 0.05)
            f = R.E_apply(sigma, football3_exp)
            worst = max(worst,
                        P.check_equivariance(f, per_axis=3).max_residual)
        assert worst < 1e-8

    def test_out_of_domain_rejected(self, football3, football3_atlas,
                                    football3_exp):
        big = T.Orbisection(
            football3, football3_atlas,
            lambda y: 4.0 * np.cross(np.array([0.0, 0.0, 1.0]), y))
        with pytest.raises(OutOfDomain):
            R.E_apply(big, football3_exp)

    def test_inverse_of_identity_is_zero_section(self, football3,
                                                 football3_atlas,
                                                 football3_exp):
        idm = P.identity_map(football3, football3_atlas)
        sigma = R.E_inverse(idm, football3_exp)
        assert T.seminorm(sigma, 0) == 0.0

    def test_inverse_of_small_rotation_matches_closed_form(self, football3,
                                                           football3_atlas,
                                                           football3_exp):
        angle = 0.07
        rmat = rotation_about_z(angle)
        rot = P.map_from_global(football3, football3,
                                lambda pts: row_apply(rmat, pts),
                                football3_atlas,
                                inverse=lambda pts: row_apply(rmat.T, pts))
        sigma = R.E_inverse(rot, football3_exp)
        # closed-form great-circle log toward the rotated image
        worst = 0.0
        for chart in football3_atlas:
            for y in chart.sample_points(per_axis=3):
                target = rmat @ y
                dot = float(np.clip(y @ target, -1, 1))
                theta = np.arccos(dot)
                if theta < 1e-9:
                    expected = np.zeros(3)
                else:
                    expected = (target - dot * y) * theta / np.sin(theta)
                worst = max(worst,
                            float(np.abs(sigma.values(y[None])[0]
                                         - expected).max()))
        assert worst < 1e-8
        assert sigma.equivariance_residual(per_axis=3) < 1e-8

    def test_theta_not_identity_rejected(self, football3, football3_atlas,
                                         football3_exp):
        lifts = []
        for ch in football3_atlas:
            table = (0,) * ch.isotropy.order  # planted: trivial homomorphism
            lifts.append(P.ChartLift(ch, lambda pts: np.asarray(pts, dtype=float),
                                     GroupHom(ch.isotropy, football3.group,
                                              table)))
        planted = P.OrbifoldMapData(football3, football3, lifts,
                                    global_lift=lambda pts: np.asarray(pts))
        with pytest.raises(ThetaNotIdentity):
            R.E_inverse(planted, football3_exp)

    def test_far_from_identity_rejected(self, football3, football3_atlas,
                                        football3_exp):
        rmat = rotation_about_z(2.5)  # identity homomorphism, huge displacement
        far = P.map_from_global(football3, football3,
                                lambda pts: row_apply(rmat, pts), football3_atlas,
                                inverse=lambda pts: row_apply(rmat.T, pts))
        with pytest.raises(NotCloseToIdentity):
            R.E_inverse(far, football3_exp)

    def test_flip_has_nonidentity_theta(self, football3, football3_atlas,
                                        football3_exp):
        flip = np.diag([1.0, -1.0, -1.0])
        far = P.map_from_global(football3, football3,
                                lambda pts: row_apply(flip, pts), football3_atlas,
                                inverse=lambda pts: row_apply(flip, pts))
        with pytest.raises(ThetaNotIdentity):
            R.E_inverse(far, football3_exp)


class TestRoundtrips:
    @pytest.mark.parametrize("builder,resolution", [
        (lambda: M.disk_mod_rotation(4), 13),
        (lambda: M.football(3), 20),
    ])
    def test_fifty_seeded_sections(self, builder, resolution):
        orbifold = builder()
        atlas = M.build_atlas(orbifold, resolution=resolution)
        exp_map = R.ExpMap.closed_form(orbifold)
        gen = np.random.default_rng(99)
        worst_sec, worst_map = 0.0, 0.0
        for _ in range(10):
            sigma = T.random_orbisection(orbifold, atlas, gen, 0.05)
            f = R.E_apply(sigma, exp_map)
            back = R.E_inverse(f, exp_map)
            worst_sec = max(worst_sec, T.seminorm(
                T.linear_combination(back, sigma, 1, -1), 0, per_axis=3))
            worst_map = max(worst_map, P.cs_distance(
                R.E_apply(back, exp_map), f, s=0, per_axis=3).value)
        assert worst_sec < 1e-8
        assert worst_map < 1e-8

    def test_injectivity_at_data_level(self, football3, football3_atlas,
                                       football3_exp):
        gen = np.random.default_rng(41)
        sigma = T.random_orbisection(football3, football3_atlas, gen, 0.04)
        tau = T.random_orbisection(football3, football3_atlas, gen, 0.04)
        gap = T.seminorm(T.linear_combination(sigma, tau, 1, -1), 0)
        assert gap > 1e-4
        d = P.cs_distance(R.E_apply(sigma, football3_exp),
                          R.E_apply(tau, football3_exp), s=0,
                          per_axis=4).value
        assert d > 0


class TestVerifyDiffeo:
    def test_identity_passes(self, football3, football3_atlas):
        idm = P.identity_map(football3, football3_atlas)
        report = R.verify_diffeo(idm, per_axis=4)
        assert report.passed
        assert report.c0_distance_to_identity == 0.0

    def test_small_section_chart_map_passes(self, football3,
                                            football3_atlas, football3_exp):
        sigma = T.random_orbisection(football3, football3_atlas,
                                     np.random.default_rng(5), 0.05)
        f = R.E_apply(sigma, football3_exp)
        assert R.verify_diffeo(f, per_axis=4).passed

    def test_planted_fold_fails(self, football3, football3_atlas,
                                football3_exp):
        idm = P.identity_map(football3, football3_atlas)

        def folding(rows):
            # fold the hemispheres together: +z and -z samples collide exactly
            return np.column_stack([rows[:, 0], rows[:, 1], np.abs(rows[:, 2])])

        report = R.verify_diffeo(idm, per_axis=4,
                                 underlying_override=folding)
        assert not report.injective
        assert report.injectivity_witness is not None


    def test_planted_cap_map_fails_surjectivity(self, football3,
                                                football3_atlas):
        idm = P.identity_map(football3, football3_atlas)

        def into_cap(rows):
            # central projection from (0, 0, -3): injective, and it commutes
            # with the rotations, but every image lies near the north pole
            moved = rows + np.array([0.0, 0.0, 3.0])
            return moved / np.linalg.norm(moved, axis=1, keepdims=True)

        report = R.verify_diffeo(idm, per_axis=4,
                                 underlying_override=into_cap)
        assert report.injective
        assert not report.surjective
        assert not report.passed

    def test_planted_squeeze_reports_its_own_displacement(self, football3,
                                                          football3_atlas):
        idm = P.identity_map(football3, football3_atlas)

        def squeeze(rows):
            # the polar angle theta -> 0.6 theta: injective, commutes with the
            # rotations about z, and moves the south cone point by 0.4 pi
            theta = 0.6 * np.arccos(np.clip(rows[:, 2], -1.0, 1.0))
            phi = np.arctan2(rows[:, 1], rows[:, 0])
            return np.column_stack([np.sin(theta) * np.cos(phi),
                                    np.sin(theta) * np.sin(phi), np.cos(theta)])

        report = R.verify_diffeo(idm, per_axis=4, underlying_override=squeeze)
        assert report.c0_distance_to_identity > 1.0
        assert not report.margin_ok
        assert not report.passed


class TestTransitions:
    def test_same_chart_transition_is_identity(self, football3,
                                               football3_atlas,
                                               football3_exp):
        gen = np.random.default_rng(8)
        f = R.E_apply(T.random_orbisection(football3, football3_atlas, gen,
                                           0.04), football3_exp)
        sigma = T.random_orbisection(football3, football3_atlas, gen, 0.02)
        out = R.transition_map(f, f, sigma, football3_exp)
        assert T.seminorm(T.linear_combination(out, sigma, 1, -1), 0,
                          per_axis=3) < 1e-8

    def test_transition_between_rotations_matches_closed_form(self, football3,
                                                              football3_atlas,
                                                              football3_exp):
        alpha, beta = 0.05, 0.11
        def rot(angle):
            m = rotation_about_z(angle)
            return P.map_from_global(football3, football3,
                                     lambda pts, m=m: row_apply(m, pts),
                                     football3_atlas,
                                     inverse=lambda pts, m=m: row_apply(m.T, pts))

        f, g = rot(alpha), rot(beta)
        gen = np.random.default_rng(21)
        sigma = T.random_orbisection(football3, football3_atlas, gen, 0.02)
        out = R.transition_map(f, g, sigma, football3_exp)
        # closed form: the transition lift is R_(alpha-beta) exp(y, s(y)),
        # so the output section is the great-circle log toward that point
        diff = rotation_about_z(alpha - beta)
        worst = 0.0
        for chart in football3_atlas:
            for y in chart.sample_points(per_axis=3):
                target = diff @ football3.model.geo_exp(
                    y, sigma.values(y[None])[0])
                dot = float(np.clip(y @ target, -1, 1))
                theta = np.arccos(dot)
                expected = np.zeros(3) if theta < 1e-9 else \
                    (target - dot * y) * theta / np.sin(theta)
                worst = max(worst,
                            float(np.abs(out.values(y[None])[0]
                                         - expected).max()))
        assert worst < 1e-10

    def test_transition_roundtrip(self, football3, football3_atlas,
                                  football3_exp):
        gen = np.random.default_rng(9)
        f = R.E_apply(T.random_orbisection(football3, football3_atlas, gen,
                                           0.04), football3_exp)
        g = R.E_apply(T.random_orbisection(football3, football3_atlas, gen,
                                           0.04), football3_exp)
        sigma = T.random_orbisection(football3, football3_atlas, gen, 0.02)
        fwd = R.transition_map(f, g, sigma, football3_exp)
        back = R.transition_map(g, f, fwd, football3_exp)
        assert T.seminorm(T.linear_combination(back, sigma, 1, -1), 0,
                          per_axis=3) < 1e-7


class TestCorollaryChecks:
    def test_conjugation_and_differences(self, football3, football3_atlas,
                                         football3_exp):
        ids = P.enumerate_identity_lifts(football3, football3_atlas)
        gen = np.random.default_rng(10)
        rot = P.map_from_global(
            football3, football3,
            lambda pts: row_apply(rotation_about_z(0.8), pts), football3_atlas,
            inverse=lambda pts: row_apply(rotation_about_z(-0.8), pts))
        esig = R.E_apply(T.random_orbisection(football3, football3_atlas,
                                              gen, 0.04), football3_exp)
        report = R.reduced_group_quotient_check(ids, [rot, esig])
        assert report.passed

    def test_flip_permutes_pole_germs(self, football3, football3_atlas):
        ids = P.enumerate_identity_lifts(football3, football3_atlas)
        flip_mat = np.diag([1.0, -1.0, -1.0])
        flip = P.map_from_global(football3, football3,
                                 lambda pts: row_apply(flip_mat, pts),
                                 football3_atlas,
                                 inverse=lambda pts: row_apply(flip_mat, pts))
        poles = [k for k, c in enumerate(football3_atlas)
                 if c.isotropy.order > 1]
        a = list(ids.assignments[0])
        a[poles[0]], a[poles[1]] = 1, 0
        conj = R.conjugate_identity_lifts(ids, [tuple(a)], flip)[0]
        assert conj is not None and ids.contains(conj)
        assert conj != tuple(a)  # the nontrivial germ moved to the other pole

    def test_calibrated_radius_positive(self, football3, football3_atlas,
                                        football3_exp):
        eps = R.calibrate_chart_radius(football3, football3_exp,
                                       football3_atlas,
                                       np.random.default_rng(12), steps=3,
                                       probes=1, upper=0.06)
        assert eps > 0.0
        chart = R.DiffeoChart(P.identity_map(football3, football3_atlas),
                              eps, football3_exp)
        sigma = T.random_orbisection(football3, football3_atlas,
                                     np.random.default_rng(13),
                                     c1_bound=eps * 0.9)
        assert R.verify_diffeo(chart.chart(sigma), per_axis=3).passed

    def test_default_chart_radius(self, football3, football3_atlas,
                                  football3_exp):
        idm = P.identity_map(football3, football3_atlas)
        chart = R.DiffeoChart.around(idm, football3_exp)
        assert chart.radius == pytest.approx(
            0.1 * min(c.radius for c in football3_atlas))
