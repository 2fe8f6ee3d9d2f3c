"""Acceptance criteria, one test per criterion, each printing a verdict line.

Tolerances are pinned here exactly as stated; runtime bounds are asserted
with time.monotonic.  Run with -s to watch the verdict lines stream.
"""

import time

import numpy as np

from orbidiff import maps as P
from orbidiff import model as M
from orbidiff import riemann as R
from orbidiff import tangent as T
from orbidiff.config import DEFAULT_FOOTBALL3, parse_config
from orbidiff.groups import (cyclic_rotation_group, dihedral_group,
                             rotation_about_z, row_apply, stabilizer)
from orbidiff.suites import run_suite


def _verdict(number: int, ok: bool, detail: str):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_identity_lift_groups_of_footballs():
    for p in (2, 3, 5):
        start = time.monotonic()
        fb = M.football(p)
        atlas = M.build_atlas(fb, resolution=20)
        ids = P.enumerate_identity_lifts(fb, atlas)
        elapsed = time.monotonic() - start
        ok = (ids.order == p * p and ids.is_abelian
              and all(ids.element_order(a) in (1, p) for a in ids.assignments)
              and elapsed < 5.0)
        _verdict(1, ok,
                 f"football p={p}: |ID| = {ids.order} (expected {p * p}), "
                 f"abelian={ids.is_abelian}, exponent={ids.exponent}, "
                 f"{elapsed:.2f}s")


def test_criterion_02_theta_choice_counts():
    cases = [
        ("Z_5", cyclic_rotation_group(5), 1),
        ("dihedral order 8", dihedral_group(4), 4),
        ("S_3 in O(2)", dihedral_group(3), 6),
    ]
    for name, grp, expected in cases:
        got = P.count_theta_choices(grp)
        _verdict(2, got == expected,
                 f"{name}: {got} homomorphism choices (expected {expected})")


def test_criterion_03_admissible_dimensions():
    line = M.line_mod_flip()
    mirror = M.plane_mod_reflection()
    d0 = T.admissible_space(line, [0.0]).shape[0]
    d1 = T.admissible_space(mirror, [0.3, 0.0]).shape[0]
    d2 = T.admissible_space(mirror, [0.3, 0.2]).shape[0]
    d3 = T.admissible_space(line, [0.7]).shape[0]
    ok = (d0, d1, d2, d3) == (0, 1, 2, 1)
    _verdict(3, ok, f"admissible dims: origin of R/Z2 = {d0}, mirror stratum "
                    f"= {d1}, regular plane point = {d2}, regular line point "
                    f"= {d3}")


def test_criterion_04_curve_lift_counts():
    mirror = M.plane_mod_reflection(radius=2.0)
    kinked = T.CurveInOrbifold(mirror, [
        T.CurveSegment(-1.0, 0.0, lambda t: np.array([t, -t])),
        T.CurveSegment(0.0, 1.0, lambda t: np.array([t, t]))])
    smooth = T.CurveInOrbifold(mirror, [
        T.CurveSegment(-1.0, 0.0, lambda t: np.array([t, t * t])),
        T.CurveSegment(0.0, 1.0, lambda t: np.array([t, t * t]))])
    kl = T.enumerate_curve_lifts(kinked, 0.0, k=2)
    sl = T.enumerate_curve_lifts(smooth, 0.0, k=2)
    counts = (len(kl), sum(1 for l in kl if l.smooth_order >= 1),
              len(sl), sum(1 for l in sl if l.smooth_order >= 1),
              sum(1 for l in sl if l.smooth_order >= 2))
    ok = counts == (4, 2, 4, 4, 2)
    _verdict(4, ok, f"curve lifts (C0 kinked, C1 kinked, C0 smooth, C1 "
                    f"smooth, C2 smooth) = {counts}, expected (4, 2, 4, 4, 2)")


def test_criterion_05_product_and_diagonal_isotropy():
    line = M.line_mod_flip()
    prod = M.product(line, line)
    corner = stabilizer(prod.group, [0.0, 0.0]).order
    diag = M.diagonal_suborbifold(line)
    diag_corner = diag.isotropy_order_at(np.zeros(2))
    ok = corner == 4 and diag_corner == 2
    _verdict(5, ok, f"product corner isotropy {corner} (expected 4), "
                    f"diagonal corner isotropy {diag_corner} (expected 2)")


def test_criterion_06_football_strata():
    fb = M.football(3)
    layers = M.strata(fb, resolution=64)
    singles = sum(1 for s in layers if s.is_singleton)
    ok = len(layers) == 3 and singles == 2
    _verdict(6, ok, f"football strata at 64^2: {len(layers)} strata, "
                    f"{singles} singletons (expected 3 and 2)")


def test_criterion_07_chart_roundtrips():
    start = time.monotonic()
    worst_sec = worst_map = 0.0
    exact_zero = True
    for builder, resolution in ((lambda: M.disk_mod_rotation(4), 13),
                                (lambda: M.football(3), 20)):
        orbifold = builder()
        atlas = M.build_atlas(orbifold, resolution=resolution)
        exp_map = R.ExpMap.closed_form(orbifold)
        idm = P.identity_map(orbifold, atlas)
        zero = T.zero_orbisection(orbifold, atlas)
        exact_zero &= P.cs_distance(R.E_apply(zero, exp_map), idm, s=0,
                                    per_axis=4).value == 0.0
        gen = np.random.default_rng(2024)
        for _ in range(25):
            sigma = T.random_orbisection(orbifold, atlas, gen, 0.05)
            assert T.seminorm(sigma, 1) < 0.05
            f = R.E_apply(sigma, exp_map)
            back = R.E_inverse(f, exp_map)
            worst_sec = max(worst_sec, T.seminorm(
                T.linear_combination(back, sigma, 1, -1), 0, per_axis=3))
            worst_map = max(worst_map, P.cs_distance(
                R.E_apply(back, exp_map), f, s=0, per_axis=3).value)
    elapsed = time.monotonic() - start
    ok = worst_sec < 1e-8 and worst_map < 1e-8 and exact_zero and elapsed < 60
    _verdict(7, ok, f"50 seeded roundtrips: section gap {worst_sec:.2e}, "
                    f"map gap {worst_map:.2e}, E(0)=Id exact={exact_zero}, "
                    f"{elapsed:.1f}s")


def test_criterion_08_exp_well_defined_and_local_homeo():
    fb = M.football(3)
    exp_map = R.ExpMap.closed_form(fb)
    residual = R.exp_well_defined_residual(exp_map, np.random.default_rng(31))
    homeo = R.exp_local_homeo_check(exp_map, [0, 0, 1.0], 0.3,
                                    np.random.default_rng(32))
    ok = residual < 1e-9 and homeo.passed
    _verdict(8, ok, f"representative independence {residual:.2e} (< 1e-9), "
                    f"pole ball injective={homeo.injective}, "
                    f"surjective={homeo.surjective} "
                    f"(gap {homeo.surjectivity_gap:.2e})")


def test_criterion_09_equivariant_averaging_battery():
    disk = M.disk_mod_rotation(4)
    atlas = M.build_atlas(disk, resolution=13)
    chart = next(c for c in atlas if c.isotropy.order > 1)
    rng = np.random.default_rng(40)
    bump = rng.normal(size=(2, 2)) * 0.2

    def raw(pts):
        w = bump + bump.T
        wave = 0.3 * np.sin(pts[:, 0] - pts[:, 1])
        return np.eye(2) + wave[:, None, None] * w @ w.T

    entry = R.average_metric(chart, raw)
    inv = R.metric_invariance_residual(chart, entry)
    min_eig = float(np.linalg.eigvalsh(
        entry(chart.sample_points(per_axis=4))).min())

    fb = M.football(3)
    fatlas = M.build_atlas(fb, resolution=20)
    pou = R.equivariant_partition_of_unity(fb, fatlas)
    grid = fb.model.grid(100)  # ten-thousand-point verification grid
    sum_res = max(abs(pou.total(y) - 1.0) for y in grid)

    exps = P.monomial_exponents(2, 3)
    raw_poly = P.VectorPolynomial(exps, rng.normal(size=(len(exps), 2)))
    pairs = [(chart.isotropy.matrix(a), chart.isotropy.matrix(a))
             for a in range(chart.isotropy.order)]
    once = P.average_polynomial(raw_poly, pairs)
    twice = P.average_polynomial(once, pairs)
    poly_idem = float(np.abs(once.coeffs - twice.coeffs).max())

    field = lambda pts: row_apply(bump, pts) + bump[:, 0]
    f_once = T.project_equivariant(disk.group, field)
    f_twice = T.project_equivariant(disk.group, f_once)
    proj_idem = max(float(np.abs(f_once(p[None])[0] - f_twice(p[None])[0]).max())
                    for p in chart.sample_points(per_axis=4))

    ok = (inv < 1e-10 and min_eig > 0 and sum_res < 1e-9
          and poly_idem < 1e-12 and proj_idem < 1e-12)
    _verdict(9, ok, f"metric invariance {inv:.2e} (<1e-10, min eig "
                    f"{min_eig:.3f}), partition sum {sum_res:.2e} (<1e-9), "
                    f"polynomial idempotence {poly_idem:.2e} (<1e-12), "
                    f"projection idempotence {proj_idem:.2e} (<1e-12)")


def test_criterion_10_corollary_membership():
    fb = M.football(3)
    atlas = M.build_atlas(fb, resolution=20)
    exp_map = R.ExpMap.closed_form(fb)
    ids = P.enumerate_identity_lifts(fb, atlas)
    gen = np.random.default_rng(50)
    diffeos = []
    for k in range(5):
        angle = gen.uniform(0.2, 2.8)
        diffeos.append(P.map_from_global(
            fb, fb, lambda pts, a=angle: row_apply(rotation_about_z(a), pts),
            atlas,
            inverse=lambda pts, a=angle: row_apply(rotation_about_z(-a), pts)))
    for k in range(5):
        sigma = T.random_orbisection(fb, atlas, gen, 0.04)
        diffeos.append(R.E_apply(sigma, exp_map))
    conj_ok = True
    for g in diffeos:
        for a in ids.assignments:
            image = R.conjugate_identity_lifts(ids, [a], g)[0]
            if image is None or not ids.contains(image):
                conj_ok = False
    report = R.reduced_group_quotient_check(ids, diffeos)
    ok = conj_ok and report.lift_differences_in_id
    _verdict(10, ok, f"conjugates of all {ids.order} identity lifts by 10 "
                     f"sample diffeomorphisms stay in the group: {conj_ok}; "
                     f"lift differences in the group: "
                     f"{report.lift_differences_in_id}")


def test_criterion_11_default_suite_runtime_and_determinism():
    start = time.monotonic()
    config = parse_config(DEFAULT_FOOTBALL3)
    first = run_suite(config).render()
    elapsed = time.monotonic() - start
    second = run_suite(parse_config(DEFAULT_FOOTBALL3)).render()
    ok = elapsed < 120.0 and first == second and "pass: false" not in first
    _verdict(11, ok, f"default suite in {elapsed:.1f}s (< 120s), "
                     f"deterministic={first == second}, all checks pass="
                     f"{'pass: false' not in first}")
