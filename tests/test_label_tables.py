"""Group algebra on Cayley label tables against the per-entry loops it
replaced.

The reference functions below are those loops, kept as oracles.  Every
result is an integer table, so the array code must give the same tables in
the same order.  Planted defects show that the identity-lift group checks,
the suites' |G|/|Z(G)| comparisons and the orbit-stabilizer record can fail.
"""

import functools
import itertools
import math
import types

import numpy as np
import pytest

from orbidiff import groups as G
from orbidiff import maps as P
from orbidiff import model as M
from orbidiff import riemann as R
from orbidiff import suites as S
from orbidiff.config import DEFAULT_FOOTBALL3, parse_config
from test_kernels import POLYHEDRAL, THIRD_TURN
from test_structure_checks import ORBIFOLDS

PHI = (1.0 + 5.0 ** 0.5) / 2.0
ICOSAHEDRAL = [THIRD_TURN, np.diag([-1.0, -1.0, 1.0]),
               0.5 * np.array([[1.0, -PHI, 1.0 / PHI],
                               [PHI, 1.0 / PHI, -1.0],
                               [1.0 / PHI, 1.0, PHI]])]


def _groups():
    out = {}
    for p in (1, 2, 3, 4, 5, 6, 8):
        out[f"Z{p}"] = lambda p=p: G.cyclic_rotation_group(p)
        out[f"D{p}"] = lambda p=p: G.dihedral_group(p)
    for name, gens in POLYHEDRAL.items():
        out[name] = lambda gens=gens: G.generate_group(gens)
    out["I"] = lambda: G.generate_group(ICOSAHEDRAL)
    return out


GROUPS = _groups()


@functools.cache
def group(name):
    return GROUPS[name]()


# -- per-entry references ------------------------------------------------------

def reference_law_failure(source, target, table):
    """First (a, b) in row-major order with table(a*b) != table(a)*table(b)."""
    for a in range(source.order):
        for b in range(source.order):
            if table[source.multiply(a, b)] != target.multiply(table[a], table[b]):
                return a, b
    return None


def reference_center(grp):
    return tuple(a for a in range(grp.order)
                 if all(grp.multiply(a, b) == grp.multiply(b, a)
                        for b in range(grp.order)))


def reference_element_order(grp, label):
    k, acc = 1, label
    while acc != 0:
        acc = grp.multiply(acc, label)
        k += 1
    return k


def reference_inner_tables(grp):
    seen = {}
    for g in range(grp.order):
        seen.setdefault(tuple(grp.conjugate(g, d) for d in range(grp.order)))
    return list(seen)


def reference_compose(ids, a, b):
    return tuple(ch.isotropy.multiply(x, y) for ch, x, y in zip(ids.atlas, a, b))


def reference_id_element_order(ids, a):
    k, acc = 1, a
    identity = tuple(0 for _ in ids.atlas)
    while acc != identity:
        acc = reference_compose(ids, acc, a)
        k += 1
    return k


def reference_is_abelian(ids):
    return all(reference_compose(ids, a, b) == reference_compose(ids, b, a)
               for a in ids.assignments for b in ids.assignments)


def reference_is_group(ids):
    elems = set(ids.assignments)
    return all(reference_compose(ids, a, b) in elems
               for a in ids.assignments for b in ids.assignments) and \
        all(ids.inverse(a) in elems for a in ids.assignments)


def reference_assignments(orbifold, charts, edges):
    """The product of all germ choices, filtered through every overlap."""
    grp = orbifold.group
    allowed_sets = {}
    for edge in edges:
        ci, cj = charts[edge.i], charts[edge.j]
        pairs = None
        fixing = G.fixing_mask(grp, edge.singular_points)
        for row in np.unique(fixing, axis=0):
            slabs = np.flatnonzero(row).tolist()
            if len(slabs) <= 1:
                continue
            allowed = set()
            for a in range(ci.isotropy.order):
                t = grp.conjugate(edge.eta, ci.isotropy.parent_labels[a])
                for b in range(cj.isotropy.order):
                    gb = cj.isotropy.parent_labels[b]
                    if any(grp.conjugate(s, gb) == t for s in slabs):
                        allowed.add((a, b))
            pairs = allowed if pairs is None else pairs & allowed
        if pairs is not None:
            key = (edge.i, edge.j)
            allowed_sets[key] = allowed_sets.get(
                key, {(a, b) for a in range(ci.isotropy.order)
                      for b in range(cj.isotropy.order)}) & pairs
    return tuple(
        combo for combo in itertools.product(
            *[range(ch.isotropy.order) for ch in charts])
        if all((combo[i], combo[j]) in pairs
               for (i, j), pairs in allowed_sets.items()))


# -- groups ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_tables_match_loops(name):
    grp = group(name)
    assert G.center(grp).parent_labels == reference_center(grp)
    orders = [reference_element_order(grp, a) for a in range(grp.order)]
    assert [grp.element_order(a) for a in range(grp.order)] == orders
    assert grp.exponent == math.lcm(*orders)
    tables = reference_inner_tables(grp)
    autos = G.inner_automorphisms(grp)
    assert [h.table for h in autos] == tables
    assert P.count_theta_choices(grp) == len(tables)
    assert [h.is_identity for h in autos] == [t == tuple(range(grp.order))
                                              for t in tables]
    last = autos[-1]
    assert last.compose(autos[0]).table == \
        tuple(last.table[autos[0].table[a]] for a in range(grp.order))


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_homomorphism_law_names_the_first_failure(name):
    grp = group(name)
    rng = np.random.default_rng(grp.order)
    tables = [tuple(range(grp.order))]
    for _ in range(4):
        # random maps fixing the identity, and one entry off a valid table
        tables.append((0,) + tuple(rng.integers(0, grp.order, grp.order - 1).tolist()))
        if grp.order > 2:
            bent = list(G.inner_automorphisms(grp)[-1].table)
            bent[int(rng.integers(1, grp.order))] = int(rng.integers(1, grp.order))
            tables.append(tuple(bent))
    for table in tables:
        failure = reference_law_failure(grp, grp, table)
        if failure is None:
            assert G.GroupHom(grp, grp, table).table == table
        else:
            with pytest.raises(ValueError) as info:
                G.GroupHom(grp, grp, table)
            assert str(info.value).endswith(f"at a={failure[0]}, b={failure[1]}")


# -- identity lifts ----------------------------------------------------------------

def _b3t():
    return M.GoodOrbifold(M.ModelSpace(M.FLAT, 3),
                          G.generate_group(POLYHEDRAL["T"]), name="B3/T")


LIFT_CASES = {name: (make, 8) for name, make in ORBIFOLDS.items()}
LIFT_CASES["B3/T"] = (_b3t, 16)   # 17 charts, |ID| = 216


@functools.cache
def lift_case(name):
    make, resolution = LIFT_CASES[name]
    orb = make()
    atlas = M.build_atlas(orb, resolution=resolution)
    edges = P.overlap_graph(orb, atlas)
    return orb, atlas, edges, P.enumerate_identity_lifts(orb, atlas, edges=edges)


@pytest.mark.parametrize("name", sorted(LIFT_CASES))
def test_identity_lifts_match_loops(name):
    orb, atlas, edges, ids = lift_case(name)
    assert ids.assignments == reference_assignments(orb, atlas, edges)
    assert all(type(x) is int for a in ids.assignments for x in a)
    assert ids.is_group() and reference_is_group(ids)
    assert [ids.element_order(a) for a in ids.assignments] == \
        [reference_id_element_order(ids, a) for a in ids.assignments]
    assert ids.exponent == math.lcm(*(reference_id_element_order(ids, a)
                                      for a in ids.assignments))
    assert ids.is_abelian == reference_is_abelian(ids)


def test_dropped_assignment_is_not_a_group():
    orb, atlas, _, ids = lift_case("football3")
    for k in (0, ids.order - 1):
        cut = P.IdentityLiftGroup(orb, atlas, ids.assignments[:k]
                                  + ids.assignments[k + 1:])
        assert not cut.is_group() and not reference_is_group(cut)


def test_all_germs_of_s3_are_not_abelian():
    orb = M.disk_mod_dihedral(3)
    chart = M.build_chart(orb, [0.0, 0.0])
    assert chart.isotropy.order == 6
    ids = P.IdentityLiftGroup(orb, (chart,), tuple((a,) for a in range(6)))
    assert not ids.is_abelian and not reference_is_abelian(ids)
    assert ids.is_group() and reference_is_group(ids)
    assert ids.exponent == 6


def test_dropping_a_constraining_edge_on_s2_d2h():
    orb, atlas, edges, _ = lift_case("S2/D2h")
    # the first edge of two chart pairs; either one alone leaves more lifts
    kept = [next(e for e in edges if (e.i, e.j) == pair) for pair in ((0, 1), (0, 2))]
    orders = []
    for subset in (kept, kept[:1]):
        ids = P.enumerate_identity_lifts(orb, atlas, edges=subset)
        assert ids.assignments == reference_assignments(orb, atlas, subset)
        orders.append(ids.order)
    assert orders[0] < orders[1]


# -- lift differences (corollary2, part (c)) -----------------------------------------

def reference_lift_differences(ids):
    """Part (c) of reduced_group_quotient_check as the loop over (deck label,
    chart, t) it replaced, with its float check that t eta fixes the chart
    centre: per deck label, the germ assignment of the difference, or None
    when some chart has no germ."""
    grp = ids.orbifold.group
    out = []
    for lab in range(grp.order):
        diff = []
        for chart in ids.atlas:
            if chart.isotropy.order == 1:
                diff.append(0)
                continue
            loc = None
            for t in range(grp.order):
                cand = grp.multiply(t, lab)
                if cand in chart.isotropy.parent_labels:
                    moved = grp.act(cand, chart.center)
                    if float(np.abs(moved - chart.center).max()) < G.EPS_GRP:
                        loc = chart.isotropy.parent_labels.index(cand)
                        break
            if loc is None:
                diff = None
                break
            diff.append(loc)
        out.append(None if diff is None else tuple(diff))
    return out


def _config(name, model, dimension, radius, *generators):
    return "\n".join(["[orbifold]", f"name = {name}", f"model = {model}",
                      f"dimension = {dimension}", f"radius = {radius}",
                      *(f"generator = {g}" for g in generators)]) + "\n"


# the CI configs, with the verdicts CI pins for corollary2 lift_differences
LIFT_DIFFERENCES = {
    "football": (DEFAULT_FOOTBALL3, True),
    "S2/T": (_config("s2t", "sphere", 2, 1.0, "-1 0 0 0 -1 0 0 0 1",
                     "0 0 1 1 0 0 0 1 0"), True),
    "S2/D2h": (_config("s2d2h", "sphere", 2, 1.0, "-1 0 0 0 1 0 0 0 1",
                       "1 0 0 0 -1 0 0 0 1", "1 0 0 0 1 0 0 0 -1"), False),
    "S2/Oh": (_config("s2oh", "sphere", 2, 1.0, "0 0 1 1 0 0 0 1 0",
                      "0 -1 0 1 0 0 0 0 1", "-1 0 0 0 -1 0 0 0 -1"), False),
    "disk mod D4": (_config("diskd4", "flat", 2, 1.0, "0 -1 1 0", "1 0 0 -1"),
                    True),
    "mirror plane": (_config("mirror", "flat", 2, 2.0, "1 0 0 -1"), True),
}


@pytest.mark.parametrize("name", LIFT_DIFFERENCES)
def test_lift_differences_read_off_the_tables_match_the_loop(name, monkeypatch):
    text, verdict = LIFT_DIFFERENCES[name]
    ids = S._Context(parse_config(text), 0, 1.0).id_group
    want = reference_lift_differences(ids)
    assert None not in want
    assert all(ids.contains(diff) for diff in want) == verdict
    assert R.reduced_group_quotient_check(ids, []).lift_differences_in_id == verdict
    # with no sample diffeomorphisms only part (c) asks for membership, and a
    # yes to every question lets it ask about every deck label
    asked = []
    monkeypatch.setattr(P.IdentityLiftGroup, "contains",
                        lambda self, a: asked.append(a) or True)
    R.reduced_group_quotient_check(ids, [])
    assert asked == want


# -- the suites' |G| / |Z(G)| comparisons ------------------------------------------

def test_suite_records_fail_when_a_conjugation_table_is_dropped(monkeypatch):
    monkeypatch.setattr(S, "inner_automorphisms",
                        lambda grp: G.inner_automorphisms(grp)[1:])
    monkeypatch.setattr(S, "count_theta_choices",
                        lambda grp: len(G.inner_automorphisms(grp)[1:]))
    report = S.run_suite(parse_config(DEFAULT_FOOTBALL3), suites=("group", "maps"))
    records = {(suite, rec.name): rec for suite, rec in report.records}
    for key in (("group", "inner_automorphism_count"), ("maps", "theta_choices")):
        assert "  pass: false" in records[key].lines()


def test_orbit_stabilizer_record_fails_when_a_stabilizer_drops_a_label(monkeypatch):
    # random rows are regular, where the dropped label is never there to drop;
    # the cone points of the football are not
    def dropping(grp, point):
        labels = G.stabilizer(grp, point).parent_labels
        return types.SimpleNamespace(order=len(labels) - (len(labels) > 1))

    config = parse_config(DEFAULT_FOOTBALL3)
    rec, = [rec for _, rec in S.run_suite(config, suites=("group",)).records
            if rec.name == "orbit_stabilizer"]
    assert rec.passed
    monkeypatch.setattr(S, "stabilizer", dropping)
    rec, = [rec for _, rec in S.run_suite(config, suites=("group",)).records
            if rec.name == "orbit_stabilizer"]
    assert "  pass: false" in rec.lines()
