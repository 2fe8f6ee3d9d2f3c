import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbidiff import model as M
from orbidiff.errors import (EquivarianceViolation, RadiusTooLarge,
                             UnsupportedModel)
from orbidiff.groups import generate_group, rotation_2d
from orbidiff.maps import identity_map, map_from_global


class TestQuotientPoints:
    def test_equality_uses_canonical_member(self, mirror):
        a = mirror.point([0.3, 0.4])
        b = mirror.point([0.3, -0.4])
        assert a == b
        assert hash(a) == hash(b)

    def test_distinct_points_differ(self, mirror):
        assert mirror.point([0.3, 0.4]) != mirror.point([0.31, 0.4])

    def test_canonical_is_lexicographically_least(self, disk_z4):
        p = disk_z4.point([0.5, 0.2])
        orbit_pts = disk_z4.group.matrices @ p.representative
        keys = sorted(tuple(np.round(q, 9)) for q in orbit_pts)
        assert tuple(np.round(p.canonical, 9)) == keys[0]


class TestQuotientDistance:
    def test_trivial_group_gives_model_distance(self, manifold):
        a, b = manifold.point([0.1, 0.2]), manifold.point([-0.3, 0.4])
        assert manifold.quotient_distance(a, b) == pytest.approx(
            np.linalg.norm([0.4, -0.2]), abs=1e-15)

    def test_line_flip_example(self, line_flip):
        # min(|1 - (-2)|, |-1 - (-2)|) = 1
        d = line_flip.quotient_distance(line_flip.point([1.0]),
                                        line_flip.point([-2.0]))
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_football_pole_to_pole(self, football3):
        d = football3.quotient_distance(football3.point([0, 0, 1.0]),
                                        football3.point([0, 0, -1.0]))
        assert d == pytest.approx(np.pi, abs=1e-12)

    def test_symmetry_is_exact(self, disk_z4, rng):
        for _ in range(20):
            a, b = disk_z4.random_point(rng), disk_z4.random_point(rng)
            assert disk_z4.quotient_distance(a, b) == \
                disk_z4.quotient_distance(b, a)

    def test_zero_iff_equal(self, mirror):
        a = mirror.point([0.2, 0.3])
        b = mirror.point([0.2, -0.3])
        assert mirror.quotient_distance(a, b) == 0.0
        c = mirror.point([0.2, 0.31])
        assert mirror.quotient_distance(a, c) > 0.0

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_triangle_inequality(self, seed):
        orbifold = M.disk_mod_rotation(4)
        gen = np.random.default_rng(seed)
        a, b, c = (orbifold.random_point(gen) for _ in range(3))
        dab = orbifold.quotient_distance(a, b)
        dbc = orbifold.quotient_distance(b, c)
        dac = orbifold.quotient_distance(a, c)
        assert dac <= dab + dbc + 1e-12


class TestIsotropy:
    def test_football_pole_order(self, football3):
        assert football3.isotropy_at(football3.point([0, 0, 1.0])).order == 3

    def test_regular_point_is_free(self, football3):
        assert football3.isotropy_at(football3.point([1.0, 0, 0])).order == 1

    def test_product_corner_order_four(self, line_flip):
        prod = M.product(line_flip, line_flip)
        assert prod.isotropy_at(prod.point([0.0, 0.0])).order == 4

    def test_conjugation_consistency(self, disk_z4, rng):
        for _ in range(10):
            p = disk_z4.random_point(rng)
            base = disk_z4.isotropy_at(p).order
            for lab in range(disk_z4.group.order):
                moved = disk_z4.point(disk_z4.group.act(lab, p.representative))
                assert disk_z4.isotropy_at(moved).order == base


class TestBuildChart:
    def test_regular_chart_is_free(self, football3):
        ch = M.build_chart(football3, football3.point([1.0, 0, 0]))
        assert ch.isotropy.order == 1
        assert ch.radius < 0.5 * M.separation(football3, ch.center)

    def test_pole_chart_carries_isotropy(self, football3):
        ch = M.build_chart(football3, football3.point([0, 0, 1.0]))
        assert ch.isotropy.order == 3

    def test_dihedral_origin_chart(self):
        orbifold = M.disk_mod_dihedral(4)
        ch = M.build_chart(orbifold, orbifold.point([0.0, 0.0]))
        assert ch.isotropy.order == 8

    def test_radius_too_large(self, football3):
        with pytest.raises(RadiusTooLarge):
            M.build_chart(football3, football3.point([1.0, 0, 0]), radius=1.2)

    def test_dimension_mismatch_rejected(self):
        group = generate_group([np.eye(2)])
        good = M.GoodOrbifold(M.ModelSpace(M.FLAT, 2, 1.0), group)
        assert good.group.order == 1
        bad_group = generate_group([rotation_2d(2 * np.pi / 3)])
        with pytest.raises(UnsupportedModel):
            M.GoodOrbifold(M.ModelSpace(M.FLAT, 3, 1.0), bad_group)


class TestStrata:
    def test_football_has_three_strata(self, football3):
        layers = M.strata(football3, resolution=64)
        assert len(layers) == 3
        assert sum(1 for s in layers if s.is_singleton) == 2
        orders = sorted(s.isotropy_order for s in layers)
        assert orders == [1, 3, 3]

    def test_manifold_single_stratum(self, manifold):
        assert len(M.strata(manifold, resolution=15)) == 1

    def test_mirror_two_strata(self, mirror):
        layers = M.strata(mirror, resolution=21)
        assert len(layers) == 2
        assert sorted(s.isotropy_order for s in layers) == [1, 2]

    def test_signatures_constant_within_stratum(self, mirror):
        for layer in M.strata(mirror, resolution=15):
            sigs = {M.signature_at(mirror, p) for p in layer.sample_points}
            assert len(sigs) == 1

    def test_resolution_recorded(self, manifold):
        assert M.strata(manifold, resolution=9)[0].resolution == 9

    @pytest.mark.parametrize("build,expected_orders", [
        (lambda: M.product(M.line_mod_flip(1.0), M.line_mod_flip(1.0)),
         [4, 2, 2, 1]),
        (lambda: M.disk_mod_dihedral(4), [8, 2, 2, 1]),
        (lambda: M.disk_mod_rotation(6), [6, 1]),
    ])
    def test_richer_singular_structure(self, build, expected_orders):
        layers = M.strata(build(), resolution=33)
        assert [s.isotropy_order for s in layers] == expected_orders
        # maximal-isotropy strata here are all single points
        assert layers[0].is_singleton


class TestVerificationDomain:
    @pytest.mark.parametrize("dimension,radius", [(1, 2.0), (2, 1.0), (2, 1.5),
                                                  (3, 1.0)])
    def test_matches_filter_without_slack(self, dimension, radius):
        # field dumps used to filter without the 1e-12 slack; no grid point
        # falls in the slack band at these resolutions
        model = M.ModelSpace(M.FLAT, dimension, radius)
        for res in range(2, 101 if dimension < 3 else 31):
            grid = model.grid(res)
            strict = grid[np.linalg.norm(grid, axis=1) <= radius * 0.75]
            assert np.array_equal(model.verification_domain(grid), strict)

    @pytest.mark.parametrize("dimension,radius", [(1, 2.0), (2, 1.0)])
    def test_keeps_rounded_points_on_the_boundary(self, dimension, radius):
        # at resolution 197 rounding puts grid points on the 0.75R sphere a
        # hair outside it: the slack keeps them, a filter without it drops them
        model = M.ModelSpace(M.FLAT, dimension, radius)
        grid = model.grid(197)
        norms = np.linalg.norm(grid, axis=1)
        kept = model.verification_domain(grid)
        extra = (norms > radius * 0.75) & (norms <= radius * 0.75 + 1e-12)
        assert extra.any()
        assert np.array_equal(kept, grid[(norms <= radius * 0.75) | extra])

    def test_sphere_keeps_every_point(self, football3):
        grid = football3.model.grid(12)
        assert np.array_equal(football3.model.verification_domain(grid), grid)


def reference_contains(space, point):
    """ModelSpace.contains one row at a time, as it was before it took rows."""
    p = np.asarray(point, dtype=float)
    if p.shape != (space.ambient_dim,):
        return False
    if space.kind == M.FLAT:
        return float(np.linalg.norm(p)) < space.radius * (1.0 + 1e-9)
    return abs(float(np.linalg.norm(p)) - 1.0) < 1e-12 + 1e-9


class TestModelMembership:
    @pytest.mark.parametrize("space", [M.ModelSpace(M.FLAT, 2, 2.0),
                                       M.ModelSpace(M.FLAT, 3, 1.0),
                                       M.ModelSpace(M.SPHERE, 2)])
    def test_rows_at_the_slack_boundary_match_one_row_calls(self, space):
        rng = np.random.default_rng(11)
        dirs = rng.normal(size=(60, space.ambient_dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        # norms a few ulps either side of each edge of the 1e-9 slack band
        edges = [space.radius * (1.0 + 1e-9)] if space.kind == M.FLAT else \
            [1.0 - 1e-12 - 1e-9, 1.0 + 1e-12 + 1e-9]
        rows = np.concatenate([
            dirs * e * (1.0 + rng.integers(-8, 9, (len(dirs), 1)) * np.finfo(float).eps)
            for e in edges])
        rows = rows[rng.permutation(len(rows))]
        mask = space.contains(rows)
        want = [reference_contains(space, r) for r in rows]
        assert mask.tolist() == want == [bool(space.contains(r)) for r in rows]
        assert 0 < sum(want) < len(want)
        assert space.contains(rows.reshape(4, -1, space.ambient_dim)).tolist() == \
            mask.reshape(4, -1).tolist()

    def test_rows_of_another_width_are_outside(self):
        space = M.ModelSpace(M.FLAT, 2, 2.0)
        assert space.contains(np.zeros((3, 3))).tolist() == [False] * 3
        assert not space.contains(np.zeros(1))
        assert not space.contains(0.0)

    def test_points_names_the_first_row_outside(self, disk_z4):
        rows = np.array([[0.1, 0.2], [3.0, 0.0], [0.0, 4.0]])
        with pytest.raises(ValueError, match=r"point \[3\. 0\.\] is not in"):
            disk_z4.points(rows)
        assert len(disk_z4.points(rows[:1])) == 1


class TestProduct:
    def test_corner_isotropy_is_product(self, line_flip):
        prod = M.product(line_flip, line_flip)
        assert prod.group.order == 4
        assert prod.isotropy_at(prod.point([0.0, 0.0])).order == 4
        assert prod.isotropy_at(prod.point([0.5, 0.0])).order == 2

    def test_trivial_factor_keeps_orders(self, line_flip):
        triv = M.manifold_disk(1)
        prod = M.product(line_flip, triv)
        assert prod.isotropy_at(prod.point([0.0, 0.3])).order == 2

    def test_order_six_product(self, line_flip):
        z3 = M.disk_mod_rotation(3)
        prod = M.product(line_flip, z3)
        assert prod.isotropy_at(prod.point([0.0, 0.0, 0.0])).order == 6

    def test_sphere_products_unsupported(self, football3, line_flip):
        with pytest.raises(UnsupportedModel):
            M.product(football3, line_flip)


class TestSuborbifolds:
    def test_diagonal_halves_corner_isotropy(self, line_flip):
        diag = M.diagonal_suborbifold(line_flip)
        assert diag.ambient.isotropy_at(
            diag.ambient.point([0.0, 0.0])).order == 4
        assert diag.isotropy_order_at(np.zeros(2)) == 2

    def test_manifold_diagonal_trivial(self):
        diag = M.diagonal_suborbifold(M.manifold_disk(1))
        assert diag.isotropy_order_at(np.zeros(2)) == 1

    def test_disk_z4_diagonal(self, disk_z4):
        diag = M.diagonal_suborbifold(disk_z4)
        assert diag.group.order == 4
        assert diag.subspace.shape == (2, 4)
        assert diag.invariance_residual < 1e-12
        assert diag.chart_residual < 1e-12

    def test_graph_of_identity_matches_diagonal(self, line_flip,
                                                line_flip_atlas):
        idm = identity_map(line_flip, line_flip_atlas)
        graphs = M.graph_suborbifold(idm)
        diag = M.diagonal_suborbifold(line_flip)
        twisted = graphs[0].group
        assert twisted.order <= diag.group.order
        for a in range(twisted.order):
            assert diag.group.find(twisted.matrix(a)) is not None
        for g in graphs:
            assert np.abs(g.samples[:, 0] - g.samples[:, 1]).max() < 1e-12

    def test_graph_of_square_map(self, line_flip, line_flip_atlas):
        square = map_from_global(line_flip, line_flip,
                                 lambda y: np.asarray(y, dtype=float) ** 2,
                                 atlas=line_flip_atlas, name="square")
        graphs = M.graph_suborbifold(square)
        assert all(g.invariance_residual < 1e-12 for g in graphs)

    def test_graph_of_constant_to_singular_point(self, line_flip,
                                                 line_flip_atlas):
        from orbidiff.maps import constant_map
        const = constant_map(line_flip, line_flip, np.array([0.0]),
                             atlas=line_flip_atlas)
        graphs = M.graph_suborbifold(const)
        assert all(g.invariance_residual < 1e-12 for g in graphs)

    def test_graph_rejects_inconsistent_data(self, line_flip,
                                             line_flip_atlas):
        from orbidiff.groups import GroupHom
        from orbidiff.maps import ChartLift, OrbifoldMapData
        # plant: odd lift declared with the trivial homomorphism
        lifts = []
        for ch in line_flip_atlas:
            theta = GroupHom(ch.isotropy, line_flip.group,
                             (0,) * ch.isotropy.order)
            lifts.append(ChartLift(ch, lambda y: np.asarray(y, dtype=float),
                                   theta))
        bad = OrbifoldMapData(line_flip, line_flip, lifts)
        with pytest.raises(EquivarianceViolation):
            M.graph_suborbifold(bad)


class TestAtlas:
    def test_football_atlas_has_two_singular_charts(self, football3,
                                                    football3_atlas):
        singular = [c for c in football3_atlas if c.isotropy.order > 1]
        assert len(singular) == 2
        centers = sorted(round(float(c.center[2])) for c in singular)
        assert centers == [-1, 1]

    def test_atlas_covers_verification_grid(self, football3, football3_atlas):
        from orbidiff.maps import _require_covering
        _require_covering(football3, football3_atlas, 16)

    def test_chart_separation_invariant(self, football3_atlas, football3):
        for ch in football3_atlas:
            assert ch.radius < 0.5 * M.separation(football3, ch.center) + 1e-12
