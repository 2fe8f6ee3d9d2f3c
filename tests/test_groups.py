import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbidiff import groups as G
from orbidiff.errors import ClosureExceeded, NotOrthogonal, SampleOutOfChart
from test_kernels import POLYHEDRAL


def brute_force_closure(generators, cap=512):
    """Independent oracle: close a matrix set by repeated multiplication."""
    eye = np.eye(generators[0].shape[0])
    found = [eye]

    def present(m):
        return any(np.abs(m - f).max() < 1e-8 for f in found)

    changed = True
    while changed:
        changed = False
        for a in list(found):
            for g in generators:
                p = a @ g
                if not present(p):
                    found.append(p)
                    changed = True
                    assert len(found) <= cap
    return found


class TestGenerateGroup:
    def test_rotation_by_third_gives_order_three(self):
        gen = G.rotation_2d(2 * np.pi / 3)
        expected = len(brute_force_closure([gen]))
        grp = G.generate_group([gen])
        assert grp.order == expected == 3

    def test_identity_only(self):
        grp = G.generate_group([np.eye(3)], max_order=1)
        assert grp.order == 1

    def test_rotation_and_reflection_give_dihedral_eight(self):
        gens = [G.rotation_2d(np.pi / 2), G.reflection_2d(0.0)]
        expected = len(brute_force_closure(gens))
        grp = G.generate_group(gens)
        assert grp.order == expected == 8

    def test_non_orthogonal_rejected(self):
        with pytest.raises(NotOrthogonal):
            G.generate_group([np.array([[1.0, 0.0], [0.0, 2.0]])])

    def test_infinite_rotation_exceeds_bound(self):
        with pytest.raises(ClosureExceeded):
            G.generate_group([G.rotation_2d(1.0)], max_order=64)

    def test_products_off_their_table_entry_are_refused(self):
        # T's generators moved by about 2e-10 and re-orthonormalised: the
        # closure finds twelve elements, but some products of two of them
        # miss the element their table entry names by more than EPS_GRP
        rng = np.random.default_rng(3)
        gens = [G.polar_orthonormalize(g + 2e-10 * rng.standard_normal((3, 3)))
                for g in POLYHEDRAL["T"]]
        with pytest.raises(ClosureExceeded, match="closure lookup failed"):
            G.generate_group(gens)

    def test_closes_z1024_with_the_addition_table(self):
        grp = G.cyclic_rotation_group(1024)
        labels = np.arange(1024)
        assert grp.cayley.tobytes() == ((labels[:, None] + labels) % 1024).tobytes()

    def test_labeling_deterministic(self):
        gens = [G.rotation_2d(np.pi / 2), G.reflection_2d(0.0)]
        a = G.generate_group(gens)
        b = G.generate_group(gens)
        assert all(np.array_equal(x, y) for x, y in zip(a.matrices, b.matrices))
        assert np.array_equal(a.cayley, b.cayley)

    def test_identity_is_label_zero(self):
        grp = G.dihedral_group(4)
        assert np.abs(grp.matrix(0) - np.eye(2)).max() < 1e-12

    def test_cayley_matches_matrix_products(self):
        grp = G.dihedral_group(4)
        for a in range(grp.order):
            for b in range(grp.order):
                prod = grp.matrix(a) @ grp.matrix(b)
                assert np.abs(prod - grp.matrix(grp.multiply(a, b))).max() < 1e-9

    def test_every_element_has_inverse(self):
        grp = G.dihedral_group(3)
        for a in range(grp.order):
            assert grp.multiply(a, grp.inverse(a)) == 0


class TestCenter:
    def test_cyclic_center_is_whole_group(self):
        grp = G.cyclic_rotation_group(5)
        assert G.center(grp).order == 5

    def test_dihedral_eight_center_has_order_two(self):
        grp = G.dihedral_group(4)
        centre = G.center(grp)
        assert centre.order == 2
        # exhaustive commutation oracle
        commuting = [a for a in range(grp.order)
                     if all(grp.multiply(a, b) == grp.multiply(b, a)
                            for b in range(grp.order))]
        assert sorted(centre.parent_labels) == sorted(commuting)

    def test_trivial_group(self):
        grp = G.trivial_group(2)
        assert G.center(grp).order == 1


class TestInnerAutomorphisms:
    def test_cyclic_has_single_automorphism(self):
        autos = G.inner_automorphisms(G.cyclic_rotation_group(5))
        assert len(autos) == 1
        assert autos[0].is_identity

    def test_dihedral_eight_has_four(self):
        grp = G.dihedral_group(4)
        # oracle: enumerate conjugation tables directly and deduplicate
        tables = {tuple(grp.conjugate(g, d) for d in range(grp.order))
                  for g in range(grp.order)}
        autos = G.inner_automorphisms(grp)
        assert len(autos) == len(tables) == 4

    def test_trivial(self):
        assert len(G.inner_automorphisms(G.trivial_group(1))) == 1

    @pytest.mark.parametrize("build", [
        lambda: G.cyclic_rotation_group(3),
        lambda: G.dihedral_group(3),
        lambda: G.dihedral_group(4),
        lambda: G.football_rotation_group(5),
    ])
    def test_count_identity(self, build):
        grp = build()
        autos = G.inner_automorphisms(grp)
        assert len(autos) * G.center(grp).order == grp.order


def assert_matches_unique(rows):
    """G.distinct_rows against np.unique on rows; returns its arrays."""
    rows = np.asarray(rows)
    first, inverse = G.distinct_rows(rows)
    _, want_first, want_inverse = np.unique(rows, axis=0, return_index=True,
                                            return_inverse=True)
    assert first.dtype == want_first.dtype and inverse.shape == (len(rows),)
    assert first.tolist() == want_first.tolist()
    assert inverse.tolist() == want_inverse.reshape(-1).tolist()
    return first, inverse


# entries a hair apart that snapping merges, or keeps apart
SNAPPED = st.builds(lambda base, nudge: base + nudge,
                    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0 / 3.0, -1.0]),
                    st.sampled_from([0.0, 1e-12, -1e-12, 1e-6]))
ENTRIES = {"bool": st.booleans(),
           "int": st.one_of(st.integers(-3, 3), st.integers(-2**62, 2**62)),
           "snapped": SNAPPED}


class TestDistinctRows:
    @given(kind=st.sampled_from(sorted(ENTRIES)), width=st.integers(1, 4),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_unique(self, kind, width, data):
        rows = data.draw(st.lists(st.lists(ENTRIES[kind], min_size=width,
                                           max_size=width), max_size=30))
        rows = np.array(rows, dtype={"bool": bool, "int": np.int64,
                                     "snapped": float}[kind])
        rows = rows.reshape(-1, width)
        if kind == "snapped":
            rows = G._snap(rows)
        first, inverse = assert_matches_unique(rows)
        # each row's class holds an equal row, and each class starts there
        assert np.array_equal(rows[first][inverse], rows)
        assert np.array_equal(inverse[first], np.arange(len(first)))

    def test_signed_zeros_are_one_row(self):
        first, inverse = assert_matches_unique([[-0.0, 1.0], [0.0, 1.0],
                                                [0.0, -0.0], [-0.0, 0.0]])
        assert first.tolist() == [2, 0] and inverse.tolist() == [1, 1, 0, 0]

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_one_row_all_equal_rows_and_no_rows(self, width):
        first, inverse = assert_matches_unique(np.full((1, width), 7))
        assert first.tolist() == [0] and inverse.tolist() == [0]
        first, inverse = assert_matches_unique(np.full((5, width), 0.25))
        assert first.tolist() == [0] and inverse.tolist() == [0] * 5
        first, inverse = assert_matches_unique(np.zeros((0, width), dtype=bool))
        assert first.size == inverse.size == 0


class TestFixedSubspace:
    def test_sign_flip_has_zero_subspace(self):
        assert G.fixed_subspace(G.sign_flip_group()).shape[0] == 0

    def test_trivial_group_fixes_everything(self):
        assert G.fixed_subspace(G.trivial_group(3)).shape[0] == 3

    def test_reflection_fixes_first_axis(self):
        grp = G.generate_group([np.array([[1.0, 0.0], [0.0, -1.0]])])
        basis = G.fixed_subspace(grp)
        assert basis.shape == (1, 2)
        assert abs(abs(basis[0, 0]) - 1.0) < 1e-12 and abs(basis[0, 1]) < 1e-12

    def test_basis_vectors_are_fixed(self):
        grp = G.dihedral_group(4)
        basis = G.fixed_subspace(grp)
        for a in range(grp.order):
            for b in basis:
                assert np.abs(grp.matrix(a) @ b - b).max() < 1e-9


class TestOrbitStabilizer:
    def test_football_pole_stabilizer(self):
        grp = G.football_rotation_group(5)
        pole = np.array([0.0, 0.0, 1.0])
        assert G.stabilizer(grp, pole).order == 5
        assert G.orbit(grp, pole).shape[0] == 1

    def test_generic_point_trivial_stabilizer(self):
        grp = G.dihedral_group(4)
        x = np.array([0.31, 0.17])
        assert G.stabilizer(grp, x).order == 1
        assert G.orbit(grp, x).shape[0] == grp.order

    def test_mirror_axis_stabilizer(self):
        grp = G.generate_group([np.array([[1.0, 0.0], [0.0, -1.0]])])
        assert G.stabilizer(grp, np.array([0.4, 0.0])).order == 2

    @given(x=st.floats(-1, 1), y=st.floats(-1, 1))
    @settings(max_examples=25, deadline=None)
    def test_orbit_stabilizer_product(self, x, y):
        grp = G.dihedral_group(4)
        point = np.array([x, y])
        orb = G.orbit(grp, point).shape[0]
        stab = G.stabilizer(grp, point).order
        assert orb * stab == grp.order

    # ROADMAP item 19: 6.164e-10 from the origin, fixing_mask keeps 6 of the
    # 8 labels, which are not a subgroup, and orbit finds 2 points
    @pytest.mark.xfail(strict=True, raises=ClosureExceeded,
                       reason="isotropy decided element by element (item 19)")
    def test_orbit_stabilizer_product_near_the_d4_origin(self):
        grp = G.dihedral_group(4)
        point = np.array([0.0, 6.164e-10])
        orb = G.orbit(grp, point).shape[0]
        stab = G.stabilizer(grp, point).order
        assert orb * stab == grp.order

    def test_shared_stabilizer_is_read_only(self):
        grp = G.dihedral_group(4)
        stab = G.stabilizer(grp, np.array([0.4, 0.0]))
        assert G.stabilizer(grp, np.array([0.7, 0.0])) is stab
        for arr in (stab.cayley, stab.matrices, stab._inverses):
            with pytest.raises(ValueError):
                arr.flat[0] = 1
        assert stab.cayley[0, 0] == 0 and stab.inverse(0) == 0

    def test_canonical_representative_is_least(self):
        grp = G.dihedral_group(4)
        point = np.array([0.3, -0.2])
        canon = G.canonical_representatives(grp, point[None])[0]
        orb = G.orbit(grp, point)
        keys = sorted(tuple(np.round(p, 9)) for p in orb)
        assert tuple(np.round(canon, 9)) == keys[0]


class TestGroupHom:
    def test_rejects_non_homomorphism(self):
        grp = G.cyclic_rotation_group(3)
        with pytest.raises(ValueError):
            G.GroupHom(grp, grp, (0, 2, 2))

    def test_rejects_identity_violation(self):
        grp = G.cyclic_rotation_group(3)
        with pytest.raises(ValueError):
            G.GroupHom(grp, grp, (1, 2, 0))

    @pytest.mark.parametrize("table, message", [
        ((0, 1), "table length must equal the source order"),
        ((0, 5, 1), r"table entries must be integers in \[0, 3\)"),
        ((0, 1.5, 2), r"table entries must be integers in \[0, 3\)"),
        ((0, -1, 1), r"table entries must be integers in \[0, 3\)"),
        ((1, 2, 0), "homomorphism must map identity to identity"),
        ((0, 2, 2), "not a homomorphism: .* at a=1, b=1"),
    ])
    def test_rejects_bad_tables(self, table, message):
        grp = G.cyclic_rotation_group(3)
        with pytest.raises(ValueError, match=message):
            G.GroupHom(grp, grp, table)

    def test_table_stays_python_ints(self):
        grp = G.cyclic_rotation_group(3)
        hom = G.GroupHom(grp, grp, tuple(np.arange(3)))
        assert hom.table == (0, 1, 2)
        assert all(type(x) is int for x in hom.table)

    def test_identity_and_compose(self):
        grp = G.dihedral_group(3)
        ident = G.GroupHom.identity(grp)
        autos = G.inner_automorphisms(grp)
        some = autos[1]
        assert some.compose(ident).table == some.table
        assert ident.compose(some).table == some.table

    def test_inclusion_of_stabilizer(self):
        grp = G.dihedral_group(4)
        sub = G.stabilizer(grp, np.array([0.5, 0.0]))
        inc = G.GroupHom.inclusion(sub, grp)
        for a in range(sub.order):
            assert np.abs(inc.matrix(a) - sub.matrix(a)).max() < 1e-12


class TestLinearizeAction:
    def _bent_flip(self):
        flip = G.sign_flip_group()

        def h(y):
            return y + 0.1 * y ** 3

        def h_inv(y):
            out = np.asarray(y, dtype=float).copy()
            for _ in range(80):
                out = out - (out + 0.1 * out ** 3 - y) / (1 + 0.3 * out ** 2)
            return out

        return G.NonlinearActionSample(
            flip,
            (lambda y: np.asarray(y, dtype=float),
             lambda y: h(-h_inv(np.asarray(y, dtype=float)))),
            (np.eye(1), -np.eye(1)),
            radius=1.0)

    def test_linear_action_averages_to_identity(self):
        flip = G.sign_flip_group()
        action = G.NonlinearActionSample(
            flip,
            (lambda y: np.asarray(y, dtype=float),
             lambda y: -np.asarray(y, dtype=float)),
            (np.eye(1), -np.eye(1)), radius=1.0)
        samples = np.linspace(-0.9, 0.9, 41).reshape(-1, 1)
        result = G.linearize_action(action, samples)
        assert np.abs(result.chart_map(samples) - samples).max() < 1e-12

    def test_bent_flip_conjugacy_residual(self):
        samples = np.linspace(-0.9, 0.9, 101).reshape(-1, 1)
        result = G.linearize_action(self._bent_flip(), samples)
        assert result.conjugacy_residual < 1e-9

    def test_differential_at_origin_is_identity(self):
        samples = np.linspace(-0.5, 0.5, 11).reshape(-1, 1)
        result = G.linearize_action(self._bent_flip(), samples)
        assert result.differential_residual < 1e-6

    def test_sample_out_of_chart(self):
        with pytest.raises(SampleOutOfChart):
            G.linearize_action(self._bent_flip(), np.array([[1.5]]))

    def test_rejects_maps_not_fixing_origin(self):
        flip = G.sign_flip_group()
        with pytest.raises(ValueError):
            G.NonlinearActionSample(
                flip,
                (lambda y: np.asarray(y) + 0.1, lambda y: -np.asarray(y)),
                (np.eye(1), -np.eye(1)))

    def test_rejects_wrong_linearization(self):
        flip = G.sign_flip_group()
        with pytest.raises(ValueError):
            G.NonlinearActionSample(
                flip,
                (lambda y: np.asarray(y, dtype=float),
                 lambda y: -np.asarray(y, dtype=float)),
                (np.eye(1), np.eye(1)))
