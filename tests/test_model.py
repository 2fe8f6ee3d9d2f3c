import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbidiff import model as M
from orbidiff import riemann as R
from orbidiff import tangent as T
from orbidiff.errors import (EquivarianceViolation, RadiusTooLarge,
                             UnsupportedModel)
from orbidiff.groups import (EPS_GRP, FiniteActionGroup, _snap_key,
                             fixing_mask, generate_group, rotation_2d,
                             stabilizer)
from orbidiff.maps import identity_map, map_from_global


def qdist(orbifold, a, b):
    """The quotient distance of two rows (or one-row arrays): one entry of
    quotient_distances on their canonicals."""
    canon = orbifold.canonicals(np.vstack([a, b]).astype(float))
    return orbifold.quotient_distances(canon[:1], canon[1:])[0, 0]


class TestQuotientPoints:
    def test_equality_uses_canonical_member(self, mirror):
        a, b = mirror.canonicals(np.array([[0.3, 0.4], [0.3, -0.4]]))
        assert a.tobytes() == b.tobytes()

    def test_distinct_points_differ(self, mirror):
        a, b = mirror.canonicals(np.array([[0.3, 0.4], [0.31, 0.4]]))
        assert _snap_key(a) != _snap_key(b)

    def test_canonical_is_lexicographically_least(self, disk_z4):
        row = np.array([0.5, 0.2])
        rep = disk_z4.model.project_checked(row[None])[0]
        orbit_pts = disk_z4.group.matrices @ rep
        keys = sorted(tuple(np.round(q, 9)) for q in orbit_pts)
        assert tuple(np.round(disk_z4.canonicals(row[None])[0], 9)) == keys[0]


class TestQuotientDistance:
    def test_trivial_group_gives_model_distance(self, manifold):
        assert qdist(manifold, [0.1, 0.2], [-0.3, 0.4]) == pytest.approx(
            np.linalg.norm([0.4, -0.2]), abs=1e-15)

    def test_line_flip_example(self, line_flip):
        # min(|1 - (-2)|, |-1 - (-2)|) = 1
        d = qdist(line_flip, [1.0], [-2.0])
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_football_pole_to_pole(self, football3):
        d = qdist(football3, [0, 0, 1.0], [0, 0, -1.0])
        assert d == pytest.approx(np.pi, abs=1e-12)

    def test_symmetry_is_exact(self, disk_z4, rng):
        for _ in range(20):
            a, b = disk_z4.random_row(rng), disk_z4.random_row(rng)
            assert qdist(disk_z4, a, b) == qdist(disk_z4, b, a)

    def test_zero_iff_equal(self, mirror):
        assert qdist(mirror, [0.2, 0.3], [0.2, -0.3]) == 0.0
        assert qdist(mirror, [0.2, 0.3], [0.2, 0.31]) > 0.0

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_triangle_inequality(self, seed):
        orbifold = M.disk_mod_rotation(4)
        gen = np.random.default_rng(seed)
        a, b, c = (orbifold.random_row(gen) for _ in range(3))
        dab = qdist(orbifold, a, b)
        dbc = qdist(orbifold, b, c)
        dac = qdist(orbifold, a, c)
        assert dac <= dab + dbc + 1e-12


class TestIsotropy:
    def test_football_pole_order(self, football3):
        assert stabilizer(football3.group, [0, 0, 1.0]).order == 3

    def test_regular_point_is_free(self, football3):
        assert stabilizer(football3.group, [1.0, 0, 0]).order == 1

    def test_product_corner_order_four(self, line_flip):
        prod = M.product(line_flip, line_flip)
        assert stabilizer(prod.group, [0.0, 0.0]).order == 4

    def test_conjugation_consistency(self, disk_z4, rng):
        for _ in range(10):
            x = disk_z4.model.project_checked(disk_z4.random_row(rng)[None])[0]
            base = stabilizer(disk_z4.group, x).order
            for lab in range(disk_z4.group.order):
                moved = disk_z4.group.act(lab, x)
                assert stabilizer(disk_z4.group, moved).order == base


class TestBuildChart:
    def test_regular_chart_is_free(self, football3):
        ch = M.build_chart(football3, [1.0, 0, 0])
        assert ch.isotropy.order == 1
        assert ch.radius < 0.5 * M.separation(football3, ch.center)

    def test_pole_chart_carries_isotropy(self, football3):
        ch = M.build_chart(football3, [0, 0, 1.0])
        assert ch.isotropy.order == 3

    def test_dihedral_origin_chart(self):
        orbifold = M.disk_mod_dihedral(4)
        ch = M.build_chart(orbifold, [0.0, 0.0])
        assert ch.isotropy.order == 8

    def test_radius_too_large(self, football3):
        with pytest.raises(RadiusTooLarge):
            M.build_chart(football3, [1.0, 0, 0], radius=1.2)

    def test_dimension_mismatch_rejected(self):
        group = generate_group([np.eye(2)])
        good = M.GoodOrbifold(M.ModelSpace(M.FLAT, 2, 1.0), group)
        assert good.group.order == 1
        bad_group = generate_group([rotation_2d(2 * np.pi / 3)])
        with pytest.raises(UnsupportedModel):
            M.GoodOrbifold(M.ModelSpace(M.FLAT, 3, 1.0), bad_group)

    @pytest.mark.parametrize("kind,dimension,radius", [
        (M.FLAT, 2, float("nan")), (M.FLAT, 2, float("inf")),
        (M.FLAT, 1, 1e200), (M.SPHERE, 2, 3.0), (M.SPHERE, 2, float("nan")),
        (M.SPHERE, 3, 1.0), (M.SPHERE, 1, 1.0)])
    def test_the_model_refuses_what_it_cannot_be(self, kind, dimension, radius):
        # a NaN, infinite or overflowing flat radius, a sphere of another
        # radius or dimension were once accepted; an infinite radius gave
        # empty grids, and 1e200 overflowed in the grid's distances
        with pytest.raises(UnsupportedModel):
            M.ModelSpace(kind, dimension, radius)

    @pytest.mark.parametrize("offset,effective", [(0.0, False), (5e-10, False),
                                                  (2e-9, True)])
    def test_an_element_acting_as_the_identity_is_refused(self, offset,
                                                         effective):
        # a two-element table whose second matrix is the identity moved by
        # offset in one entry; below EPS_GRP it acts as the identity
        second = np.eye(2)
        second[0, 1] = offset
        group = FiniteActionGroup(
            [np.eye(2), second],
            np.array([[0, 1], [1, 0]]))
        space = M.ModelSpace(M.FLAT, 2, 1.0)
        if effective:
            assert M.GoodOrbifold(space, group).group is group
        else:
            with pytest.raises(EquivarianceViolation, match="not effective"):
                M.GoodOrbifold(space, group)


class TestRowEntryPoints:
    """The entry points that take one model row project it at entry, and
    refuse a row the projection leaves outside the model."""

    @given(seed=st.integers(0, 2 ** 32 - 1), delta=st.floats(-1e-10, 1e-10))
    @settings(max_examples=25, deadline=None)
    def test_build_chart_centres_at_the_projected_row(self, seed, delta):
        orbifold = M.football(3)
        v = np.random.default_rng(seed).normal(size=3)
        row = v / np.linalg.norm(v) * (1.0 + delta)
        centre = M.build_chart(orbifold, row).center
        assert centre.tobytes() == \
            orbifold.model.project_checked(row[None])[0].tobytes()

    @given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1.001, 4.0))
    @settings(max_examples=10, deadline=None)
    def test_a_flat_row_outside_the_model_is_refused(self, seed, scale):
        orbifold = M.disk_mod_rotation(4)
        v = np.random.default_rng(seed).normal(size=2)
        row = v / np.linalg.norm(v) * scale
        exp_map = R.ExpMap.closed_form(orbifold)
        calls = [
            lambda: M.build_chart(orbifold, row),
            lambda: T.admissible_space(orbifold, row),
            lambda: R.exp_local_homeo_check(exp_map, row, 0.1,
                                            np.random.default_rng(seed)),
            lambda: R.exp_stratum_check(exp_map, row, np.zeros(2),
                                        np.linspace(0.0, 1.0, 3)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="is not in the model space"):
                call()


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
            masks = fixing_mask(mirror.group, layer.sample_points)
            sigs = {tuple(np.flatnonzero(m).tolist()) for m in masks}
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
            disk_z4.canonicals(rows)
        assert len(disk_z4.canonicals(rows[:1])) == 1


class TestProduct:
    def test_corner_isotropy_is_product(self, line_flip):
        prod = M.product(line_flip, line_flip)
        assert prod.group.order == 4
        assert stabilizer(prod.group, [0.0, 0.0]).order == 4
        assert stabilizer(prod.group, [0.5, 0.0]).order == 2

    def test_trivial_factor_keeps_orders(self, line_flip):
        triv = M.manifold_disk(1)
        prod = M.product(line_flip, triv)
        assert stabilizer(prod.group, [0.0, 0.3]).order == 2

    def test_order_six_product(self, line_flip):
        z3 = M.disk_mod_rotation(3)
        prod = M.product(line_flip, z3)
        assert stabilizer(prod.group, [0.0, 0.0, 0.0]).order == 6

    def test_sphere_products_unsupported(self, football3, line_flip):
        with pytest.raises(UnsupportedModel):
            M.product(football3, line_flip)


class TestSuborbifolds:
    def test_diagonal_halves_corner_isotropy(self, line_flip):
        diag = M.diagonal_suborbifold(line_flip)
        assert stabilizer(diag.ambient.group, [0.0, 0.0]).order == 4
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
            diffs = np.abs(diag.group.matrices - twisted.matrix(a))
            assert diffs.max(axis=(1, 2)).min() < EPS_GRP
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
