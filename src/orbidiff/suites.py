"""Verification suites, report records, and dataset dumps.

Every check produces one record (name, claim, residual, tolerance, pass,
witness); reports are plain text with a stable field order and embed the
configuration so a run can be reproduced from its own output.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import platform
from dataclasses import dataclass, replace

import numpy as np

from .config import SuiteConfig
from .errors import ConfigInvalid, CoverGap, OrbidiffError
from . import __version__
from .groups import (NonlinearActionSample, center, fixed_subspace,
                     fixing_mask, inner_automorphisms, linearize_action, orbit,
                     row_apply, sign_flip_group, stabilizer, translates)
from .maps import (OrbifoldMapData, VectorPolynomial, average_polynomial,
                   check_equivariance, count_theta_choices, cs_distance,
                   enumerate_identity_lifts, extend_lift, identity_map,
                   monomial_exponents)
from .model import (FLAT, DerivedChart, atlas_grid, build_atlas, build_chart,
                    plane_mod_reflection, strata)
from .riemann import (E_apply, E_inverse, ExpMap, average_metric,
                      equivariant_partition_of_unity, exp_local_homeo_check,
                      exp_stratum_check, exp_well_defined_residual,
                      metric_invariance_residual, reduced_group_quotient_check,
                      transition_map, verify_diffeo)
from .tangent import (CurveInOrbifold, CurveSegment, admissible_space,
                      enumerate_curve_lifts, linear_combination,
                      project_equivariant, random_orbisection, seminorm,
                      zero_orbisection)


@dataclass(frozen=True)
class CheckRecord:
    """One verification check with its claim and outcome."""

    name: str
    claim: str
    residual: float
    tolerance: float
    passed: bool
    witness: str = "-"

    def lines(self) -> list[str]:
        return [
            f"  check {self.name}",
            f"  claim: {self.claim}",
            f"  residual: {self.residual:.16e}",
            f"  tolerance: {self.tolerance:.16e}",
            f"  pass: {'true' if self.passed else 'false'}",
            f"  witness: {self.witness}",
        ]


@dataclass
class SuiteReport:
    """All records of a run plus the data needed to reproduce it, and the
    atlas the suites ran on, which the run's CSV dumps reuse."""

    config: SuiteConfig
    seed: int
    tol_scale: float
    records: list[tuple[str, CheckRecord]]
    atlas: tuple[DerivedChart, ...]

    @property
    def passed(self) -> bool:
        return all(rec.passed for _, rec in self.records)

    @property
    def failures(self) -> int:
        return sum(0 if rec.passed else 1 for _, rec in self.records)

    def render(self) -> str:
        # imported here, so that only a rendered report pays for it:
        # hashlib loads OpenSSL (+3.6 MB resident)
        import hashlib
        sha = hashlib.sha256(self.config.raw_text.encode()).hexdigest()
        out = io.StringIO()
        out.write("orbidiff report\n")
        out.write(f"version: {__version__}\n")
        out.write(f"config: {self.config.name}\n")
        out.write(f"config-sha256: {sha}\n")
        out.write(f"seed: {self.seed}\n")
        out.write(f"tol-scale: {self.tol_scale:.16e}\n")
        out.write(f"environment: python {platform.python_version()}; "
                  f"numpy {np.__version__}\n")
        current = None
        for suite, rec in self.records:
            if suite != current:
                out.write(f"\nsuite {suite}\n")
                current = suite
            out.write("\n".join(rec.lines()) + "\n")
        out.write("\nsummary\n")
        out.write(f"  checks: {len(self.records)}\n")
        out.write(f"  failed: {self.failures}\n")
        out.write(f"  pass: {'true' if self.passed else 'false'}\n")
        out.write("\nconfig-echo\n")
        for line in self.config.raw_text.splitlines():
            out.write(f"  | {line}\n")
        return out.getvalue()


# base tolerances shared by several checks; a run multiplies them by its
# tol-scale. Checks that count mismatches record them with tolerance 0.0.
_TOLERANCES = {
    "equivariance": 1e-9,
    "roundtrip": 1e-8,
    "pou_sum": 1e-9,
    "metric_invariance": 1e-10,
    "idempotence": 1e-12,
    "exp_well_defined": 1e-9,
    "metric_axioms": 1e-12,
}


class _Context:
    """Shared objects built once per run."""

    def __init__(self, config: SuiteConfig, seed: int, tol_scale: float):
        self.config = config
        self.seed = seed
        self.scale = tol_scale
        self.orbifold = config.build_orbifold()
        self.atlas = build_atlas(self.orbifold, resolution=config.atlas_resolution,
                                 max_charts=config.max_charts)
        self.exp_map = ExpMap.closed_form(self.orbifold)
        self._diffeos = None
        self._id_group = None

    def rng(self, offset: int) -> np.random.Generator:
        return np.random.default_rng(self.seed + 1000 * offset)

    def tol(self, key: str) -> float:
        return _TOLERANCES[key] * self.scale

    @property
    def id_group(self):
        if self._id_group is None:
            self._id_group = enumerate_identity_lifts(
                self.orbifold, self.atlas,
                coverage_resolution=min(16, self.config.atlas_resolution))
        return self._id_group

    def sample_diffeos(self) -> list[OrbifoldMapData]:
        if self._diffeos is None:
            rng = self.rng(17)
            out = []
            for k in range(self.config.diffeos):
                sigma = random_orbisection(self.orbifold, self.atlas, rng,
                                           c1_bound=0.04, name=f"probe{k}")
                out.append(E_apply(sigma, self.exp_map, name=f"diffeo{k}"))
            self._diffeos = out
        return self._diffeos


def _record(records, suite, name, claim, residual, tolerance, witness="-"):
    records.append((suite, CheckRecord(name, claim, float(residual),
                                       float(tolerance),
                                       float(residual) <= float(tolerance),
                                       witness)))


def _raw_metric(rng: np.random.Generator, n: int):
    """(k, n) -> (k, n, n): the identity plus a sine-modulated symmetric
    square, seeded by rng; the metric the riemann suite and the metric dump
    average."""
    bump = rng.normal(size=(n, n)) * 0.1
    sym = bump + bump.T

    def raw(pts: np.ndarray) -> np.ndarray:
        wave = 0.2 * np.sin(np.sum(pts, axis=1))
        return np.eye(n) + wave[:, None, None] * sym @ sym.T

    return raw


# -- individual suites --------------------------------------------------------------

def _suite_group(ctx: _Context, records):
    grp = ctx.orbifold.group
    tol = ctx.tol("equivariance")
    worst = 0.0
    for a in range(grp.order):
        prods = grp.matrices[a] @ grp.matrices
        expect = grp.matrices[grp.cayley[a]]
        worst = max(worst, float(np.abs(prods - expect).max()))
    _record(records, "group", "closure",
            "products of group elements land back on group elements", worst, tol)

    autos = inner_automorphisms(grp)
    _record(records, "group", "inner_automorphism_count",
            f"conjugation maps count {len(autos)} times center order "
            f"{center(grp).order} equals the group order {grp.order}",
            0 if len(autos) * center(grp).order == grp.order else 1, 0.0)

    basis = fixed_subspace(grp)
    res = float(np.abs(row_apply(grp.matrices[:, None], basis) - basis
                       ).max(initial=0.0))
    _record(records, "group", "fixed_subspace",
            f"the joint fixed subspace (dimension {basis.shape[0]}) is fixed "
            "by every element", res, tol)

    rng = ctx.rng(1)
    mismatches = 0
    model = ctx.orbifold.model
    draws = [model.project_checked(ctx.orbifold.random_row(rng)[None])[0]
             for _ in range(8)]
    # random rows are regular; the singular rows are where stabilizers grow
    for x in [*draws, *ctx.orbifold.singular_points(16)]:
        orb_size = orbit(grp, x).shape[0]
        stab_size = stabilizer(grp, x).order
        if orb_size * stab_size != grp.order:
            mismatches += 1
    _record(records, "group", "orbit_stabilizer",
            "orbit size times stabilizer order equals the group order "
            "at sampled points", mismatches, 0.0)

    # linearization battery on a conjugated line flip: h(y) = y + 0.1 y^3
    flip = sign_flip_group()

    def h(y):
        return y + 0.1 * y ** 3

    def h_inv(y):
        out = np.asarray(y, dtype=float).copy()
        for _ in range(60):
            out = out - (out + 0.1 * out ** 3 - y) / (1.0 + 0.3 * out ** 2)
        return out

    action = NonlinearActionSample(
        flip,
        (lambda y: np.asarray(y, dtype=float),
         lambda y: h(-h_inv(np.asarray(y, dtype=float)))),
        (np.eye(1), -np.eye(1)), radius=1.0)
    samples = np.linspace(-0.9, 0.9, 101).reshape(-1, 1)
    result = linearize_action(action, samples)
    _record(records, "group", "linearize_conjugacy",
            "averaged chart map conjugates the bent line flip to its linear part",
            result.conjugacy_residual, tol)
    _record(records, "group", "linearize_differential",
            "averaged chart map has identity differential at the origin",
            result.differential_residual, 1e-6 * ctx.scale)

    linear_action = NonlinearActionSample(
        flip, (lambda y: np.asarray(y, dtype=float),
               lambda y: -np.asarray(y, dtype=float)),
        (np.eye(1), -np.eye(1)), radius=1.0)
    lin = linearize_action(linear_action, samples)
    sup = float(np.abs(lin.chart_map(samples) - samples).max())
    _record(records, "group", "linearize_fixed_point",
            "an already linear action averages to the identity chart map",
            sup, 1e-12 * ctx.scale)


def _suite_strata(ctx: _Context, records):
    orbifold = ctx.orbifold
    layers = strata(orbifold, resolution=ctx.config.strata_resolution)
    singletons = sum(1 for s in layers if s.is_singleton)
    _record(records, "strata", "finite_count",
            f"{len(layers)} strata at resolution "
            f"{ctx.config.strata_resolution}, {singletons} singletons",
            0 if layers else 1, 0.0)

    group = orbifold.group
    mismatches = 0
    for layer in layers:
        masks = fixing_mask(group, layer.sample_points[:24])
        mismatches += int((masks != masks[0]).any())
    _record(records, "strata", "signature_constancy",
            "every stratum carries a single isotropy signature",
            mismatches, 0.0)

    rng = ctx.rng(2)
    rows = np.stack([orbifold.random_row(rng) for _ in range(6)])
    canon = orbifold.canonicals(rows)
    dist = orbifold.quotient_distances(canon, canon)
    a, b, c = np.array(list(itertools.combinations(range(len(rows)), 3))).T
    _record(records, "strata", "metric_symmetry",
            "nearest-orbit distance is symmetric",
            max(0.0, float(np.abs(dist - dist.T).max())), 0.0)
    _record(records, "strata", "metric_triangle",
            "nearest-orbit distance satisfies the triangle inequality on "
            "sampled triples",
            max(0.0, float((dist[a, c] - dist[a, b] - dist[b, c]).max())),
            ctx.tol("metric_axioms"))

    # label 0 is the identity, so column 0 holds each point's own order
    reps = orbifold.model.project_checked(rows[:4])
    orders = fixing_mask(group, translates(group, reps).reshape(
        -1, reps.shape[1])).sum(axis=1).reshape(len(reps), -1)
    _record(records, "strata", "isotropy_conjugacy",
            "isotropy order is constant along each orbit",
            int((orders != orders[:, :1]).sum()), 0.0)


def _suite_maps(ctx: _Context, records):
    orbifold = ctx.orbifold
    idg = ctx.id_group
    product_order = math.prod(ch.isotropy.order for ch in ctx.atlas)
    _record(records, "maps", "identity_lift_count",
            f"identity lifts number {idg.order} over "
            f"{len(ctx.atlas)} charts (unconstrained product "
            f"{product_order})", 0 if idg.order >= 1 else 1, 0.0)
    _record(records, "maps", "identity_lift_group",
            "identity lifts close under chartwise composition and inverse",
            0 if idg.is_group() else 1, 0.0)

    n_theta = count_theta_choices(orbifold.group)
    _record(records, "maps", "theta_choices",
            f"the identity map admits {n_theta} homomorphism choices, "
            f"the group order {orbifold.group.order} over the center "
            f"order {center(orbifold.group).order}",
            0 if n_theta * center(orbifold.group).order
            == orbifold.group.order else 1, 0.0)

    idm = identity_map(orbifold, ctx.atlas)
    _record(records, "maps", "identity_equivariance",
            "identity lifts satisfy the equivariance relation",
            check_equivariance(idm, per_axis=4).max_residual,
            ctx.tol("equivariance"))

    rng = ctx.rng(3)
    f = E_apply(random_orbisection(orbifold, ctx.atlas, rng, 0.03, "mf"),
                ctx.exp_map)
    g = E_apply(random_orbisection(orbifold, ctx.atlas, rng, 0.03, "mg"),
                ctx.exp_map)
    dff = cs_distance(f, f, s=0, per_axis=4).value
    dfg = cs_distance(f, g, s=0, per_axis=4).value
    dgf = cs_distance(g, f, s=0, per_axis=4).value
    dfi = cs_distance(f, idm, s=0, per_axis=4).value
    dgi = cs_distance(g, idm, s=0, per_axis=4).value
    _record(records, "maps", "distance_identity", "d0(f, f) vanishes", dff, 0.0)
    _record(records, "maps", "distance_symmetry", "d0 is symmetric",
            abs(dfg - dgf), 0.0)
    _record(records, "maps", "distance_triangle",
            "d0 satisfies the triangle inequality on a sampled triple",
            max(dfg - dfi - dgi, 0.0), ctx.tol("metric_axioms"))

    # polynomial averaging battery, exact at the coefficient level; it needs
    # flat chart coordinates, so a sphere borrows a flat mirror chart
    if ctx.orbifold.model.kind == FLAT:
        poly_chart = max(ctx.atlas, key=lambda c: c.isotropy.order)
    else:
        line = plane_mod_reflection()
        poly_chart = build_chart(line, np.zeros(2), radius=0.45)
    exps = monomial_exponents(poly_chart.orbifold.dimension, 3)
    raw_poly = VectorPolynomial(exps, ctx.rng(14).normal(
        size=(len(exps), poly_chart.orbifold.dimension)))
    pairs = [(poly_chart.isotropy.matrix(a), poly_chart.isotropy.matrix(a))
             for a in range(poly_chart.isotropy.order)]
    once = average_polynomial(raw_poly, pairs)
    twice = average_polynomial(once, pairs)
    _record(records, "maps", "polynomial_averaging_idempotent",
            "group averaging of polynomial lifts is exact on coefficients",
            float(np.abs(once.coeffs - twice.coeffs).max()),
            ctx.tol("idempotence"))

    # identity lift extension: sub-chart germ forced onto the whole chart
    sing = [ch for ch in ctx.atlas if ch.isotropy.order > 1]
    if sing:
        big = sing[0]
        small = build_chart(orbifold, big.center, radius=big.radius * 0.45)
        loc = 1 % big.isotropy.order
        gmat = big.isotropy.matrix(loc)
        ext = extend_lift(lambda ys: ys, small,
                          lambda pts, m=gmat: row_apply(m, pts), big, orbifold)
        pts = big.sample_points(per_axis=4)
        res = float(np.abs(ext.func(pts) - row_apply(gmat, pts)).max())
        _record(records, "maps", "lift_extension",
                "the unique radial continuation of an identity-lift germ is "
                "the same deck element on the whole chart", res,
                ctx.tol("equivariance"))


def _suite_tangent(ctx: _Context, records):
    orbifold = ctx.orbifold
    rng = ctx.rng(4)
    dim = orbifold.model.ambient_dim
    coeff = rng.normal(size=(dim, dim))

    def raw(pts):
        return row_apply(coeff, pts) + coeff[:, 0]

    once = project_equivariant(orbifold.group, raw, model=orbifold.model)
    twice = project_equivariant(orbifold.group, once, model=orbifold.model)
    pts = atlas_grid(ctx.atlas, 3)
    idem = float(np.abs(once(pts) - twice(pts)).max())
    _record(records, "tangent", "projection_idempotent",
            "equivariant averaging of vector fields is idempotent", idem,
            ctx.tol("idempotence"))

    sigma = random_orbisection(orbifold, ctx.atlas, rng, 0.05, "ts")
    tau = random_orbisection(orbifold, ctx.atlas, rng, 0.05, "tt")
    _record(records, "tangent", "equivariance",
            "sections satisfy s(g y) = g s(y) on chart grids",
            sigma.equivariance_residual(per_axis=4), ctx.tol("equivariance"))
    _record(records, "tangent", "center_values",
            "section values at chart centers are isotropy fixed",
            sigma.center_fixed_residual(), ctx.tol("equivariance"))

    combo = linear_combination(sigma, tau, 2.0, -1.0)
    _record(records, "tangent", "combination_equivariance",
            "linear combinations of sections stay equivariant",
            combo.equivariance_residual(per_axis=4), ctx.tol("equivariance"))
    homog = abs(seminorm(2.0 * sigma, 0) - 2.0 * seminorm(sigma, 0))
    tri = max(seminorm(sigma + tau, 0) - seminorm(sigma, 0) - seminorm(tau, 0),
              0.0)
    _record(records, "tangent", "seminorm_homogeneity",
            "the order-0 seminorm is absolutely homogeneous", homog,
            ctx.tol("metric_axioms"))
    _record(records, "tangent", "seminorm_triangle",
            "the order-0 seminorm is subadditive", tri, ctx.tol("metric_axioms"))

    mism = 0
    for ch in ctx.atlas:
        basis = admissible_space(orbifold, ch.center)
        fixed = fixed_subspace(stabilizer(orbifold.group, ch.center))
        # ambient directions normal to the model are not tangent
        expect = fixed.shape[0] - orbifold.model.ambient_dim + orbifold.dimension
        if basis.shape[0] != max(expect, 0):
            mism += 1
    _record(records, "tangent", "admissible_dimensions",
            "admissible spaces match the isotropy fixed subspaces at "
            "chart centers", mism, 0.0)

    mirror = plane_mod_reflection()
    kinked = CurveInOrbifold(mirror, [
        CurveSegment(-1.0, 0.0, lambda t: np.array([t, -t])),
        CurveSegment(0.0, 1.0, lambda t: np.array([t, t]))])
    smooth = CurveInOrbifold(mirror, [
        CurveSegment(-1.0, 0.0, lambda t: np.array([t, t * t])),
        CurveSegment(0.0, 1.0, lambda t: np.array([t, t * t]))])
    kl = enumerate_curve_lifts(kinked, 0.0, k=2)
    sl = enumerate_curve_lifts(smooth, 0.0, k=2)
    counts = (len(kl), sum(1 for l in kl if l.smooth_order >= 1),
              len(sl), sum(1 for l in sl if l.smooth_order >= 1),
              sum(1 for l in sl if l.smooth_order >= 2))
    _record(records, "tangent", "curve_lift_counts",
            "reflected-plane curve lifts count 4/2 (kinked, once "
            "differentiable) and 4/4/2 (smooth, twice differentiable)",
            0 if counts == (4, 2, 4, 4, 2) else 1, 0.0,
            witness=str(counts))


def _suite_riemann(ctx: _Context, records):
    orbifold = ctx.orbifold
    try:
        pou = equivariant_partition_of_unity(orbifold, ctx.atlas)
        grid = orbifold.model.verification_grid(ctx.config.verify_resolution)
        sum_res, equi_res = pou.verify(grid[::3])
        _record(records, "riemann", "partition_sum",
                "partition weights sum to one on the verification grid",
                sum_res, ctx.tol("pou_sum"))
        _record(records, "riemann", "partition_equivariance",
                "partition weights are deck invariant", equi_res,
                1e-12 * ctx.scale)
    except CoverGap as exc:
        _record(records, "riemann", "partition_sum", str(exc), 1, 0.0)

    chart = max(ctx.atlas, key=lambda c: c.isotropy.order)
    n = orbifold.model.ambient_dim
    raw_metric = _raw_metric(ctx.rng(5), n)
    entry = average_metric(chart, raw_metric)
    _record(records, "riemann", "metric_invariance",
            "the averaged metric is isotropy invariant on the chart",
            metric_invariance_residual(chart, entry),
            ctx.tol("metric_invariance"))
    twice = average_metric(chart, entry)
    pts = chart.sample_points(per_axis=3)
    vals = entry(pts)
    idem = float(np.abs(twice(pts) - vals).max())
    _record(records, "riemann", "metric_idempotence",
            "averaging an invariant metric changes nothing", idem,
            ctx.tol("idempotence"))
    mineig = float(np.linalg.eigvalsh(vals).min())
    _record(records, "riemann", "metric_positive",
            f"averaged metric stays positive definite (min eigenvalue "
            f"{mineig:.3e})", 0 if mineig > 0 else 1, 0.0)
    if chart.isotropy.order > 1 and \
            fixed_subspace(chart.isotropy).shape[0] < n:
        degen = average_metric(chart, raw_metric, printed_double_sum=True)(pts)
        deg_eig = float(np.linalg.eigvalsh(
            0.5 * (degen + np.swapaxes(degen, 1, 2))).min())
        _record(records, "riemann", "metric_double_sum_degenerate",
                "the two-slot averaged form is degenerate off the fixed "
                f"subspace (min eigenvalue {deg_eig:.3e})",
                0 if abs(deg_eig) < 1e-9 else 1, 0.0)

    _record(records, "riemann", "exp_well_defined",
            "exponential images agree across orbit representatives",
            exp_well_defined_residual(ctx.exp_map, ctx.rng(6)),
            ctx.tol("exp_well_defined"))
    x = orbifold.model.project_checked(chart.center[None])
    end = ctx.exp_map.lift_exp(x, np.zeros((1, n)))
    canon = orbifold.canonicals(np.vstack([end, chart.center]))
    _record(records, "riemann", "exp_zero",
            "the exponential of the zero vector is the base point",
            orbifold.quotient_distances(canon[:1], canon[1:])[0, 0], 0.0)

    basis = admissible_space(orbifold, chart.center)
    if basis.shape[0]:
        ok = exp_stratum_check(ctx.exp_map, chart.center, basis[0] * 0.2,
                               np.linspace(0.0, 1.0, 9))
        _record(records, "riemann", "exp_stratum",
                "admissible directions exponentiate inside the stratum",
                0 if ok else 1, 0.0)


def _suite_theorem1(ctx: _Context, records):
    orbifold = ctx.orbifold
    idm = identity_map(orbifold, ctx.atlas)
    zero = zero_orbisection(orbifold, ctx.atlas)
    _record(records, "theorem1", "zero_section_identity",
            "the chart map sends the zero section to the identity",
            cs_distance(E_apply(zero, ctx.exp_map), idm, s=0, per_axis=4).value,
            0.0)

    rng = ctx.rng(7)
    worst_sec = 0.0
    worst_map = 0.0
    for k in range(ctx.config.sections):
        sigma = random_orbisection(orbifold, ctx.atlas, rng, 0.05, f"s{k}")
        f = E_apply(sigma, ctx.exp_map)
        back = E_inverse(f, ctx.exp_map)
        worst_sec = max(worst_sec,
                        seminorm(linear_combination(back, sigma, 1, -1), 0,
                                 per_axis=4))
        worst_map = max(worst_map,
                        cs_distance(E_apply(back, ctx.exp_map), f, s=0,
                                    per_axis=4).value)
    _record(records, "theorem1", "roundtrip_sections",
            f"inverting the chart map recovers each of "
            f"{ctx.config.sections} seeded sections", worst_sec,
            ctx.tol("roundtrip"))
    _record(records, "theorem1", "roundtrip_maps",
            "re-applying the chart map recovers the diffeomorphism",
            worst_map, ctx.tol("roundtrip"))

    sigma = random_orbisection(orbifold, ctx.atlas, rng, 0.04, "inj1")
    tau = random_orbisection(orbifold, ctx.atlas, rng, 0.04, "inj2")
    gap = seminorm(linear_combination(sigma, tau, 1, -1), 0)
    if gap > 1e-4:
        d = cs_distance(E_apply(sigma, ctx.exp_map),
                        E_apply(tau, ctx.exp_map), s=0, per_axis=4).value
        _record(records, "theorem1", "injective_on_sections",
                f"distinct sections (gap {gap:.2e}) give distinct "
                f"diffeomorphisms (distance {d:.2e})",
                0 if d > 0 else 1, 0.0)

    sing = max(ctx.atlas, key=lambda c: c.isotropy.order)
    homeo = exp_local_homeo_check(ctx.exp_map, sing.center,
                                  min(0.3, sing.radius), ctx.rng(8))
    _record(records, "theorem1", "exp_local_homeo",
            "exp is injective and surjective onto the sampled ball at "
            "the most singular chart center",
            0 if homeo.passed else 1, 0.0,
            witness=f"gap={homeo.surjectivity_gap:.3e} "
                    f"tol={homeo.surjectivity_tolerance:.3e}")

    probe = E_apply(random_orbisection(orbifold, ctx.atlas, ctx.rng(9), 0.04,
                                       "vd"), ctx.exp_map)
    vd = verify_diffeo(probe, per_axis=4)
    _record(records, "theorem1", "verify_diffeo",
            "a small-section chart map verifies as a diffeomorphism "
            f"(margin {vd.margin:.3e}, displacement "
            f"{vd.c0_distance_to_identity:.3e})",
            0 if vd.passed else 1, 0.0)

    diffeos = ctx.sample_diffeos()
    if len(diffeos) >= 2:
        f, g = diffeos[0], diffeos[1]
        sigma = random_orbisection(orbifold, ctx.atlas, ctx.rng(10), 0.02, "tr")
        same = transition_map(f, f, sigma, ctx.exp_map)
        _record(records, "theorem1", "transition_identity",
                "the transition between a chart and itself is the identity",
                seminorm(linear_combination(same, sigma, 1, -1), 0,
                         per_axis=4), ctx.tol("roundtrip"))
        fwd = transition_map(f, g, sigma, ctx.exp_map)
        back = transition_map(g, f, fwd, ctx.exp_map)
        _record(records, "theorem1", "transition_roundtrip",
                "transitions between two charts invert each other",
                seminorm(linear_combination(back, sigma, 1, -1), 0,
                         per_axis=4), 10 * ctx.tol("roundtrip"))
        eta = 1e-3
        bumped = transition_map(
            f, g, linear_combination(sigma, sigma, 1.0, eta), ctx.exp_map)
        modulus = seminorm(linear_combination(bumped, fwd, 1, -1), 0,
                           per_axis=4) / (eta * max(seminorm(sigma, 0), 1e-12))
        _record(records, "theorem1", "transition_modulus",
                f"transition output moves continuously with the input "
                f"(sampled modulus {modulus:.3e})",
                0 if np.isfinite(modulus) else 1, 0.0)


def _suite_corollary2(ctx: _Context, records):
    idg = ctx.id_group
    report = reduced_group_quotient_check(idg, ctx.sample_diffeos())
    _record(records, "corollary2", "id_finite",
            f"identity lifts form a finite group of order {idg.order}"
            + (f", abelian of exponent {idg.exponent}"
               if idg.order <= 64 and idg.is_abelian else ""),
            0 if report.id_order == report.enumerated_order else 1, 0.0)
    witness = report.conjugation_witness
    _record(records, "corollary2", "conjugation_closure",
            "conjugating identity lifts by sampled diffeomorphisms "
            "stays inside the identity-lift group",
            0 if report.conjugation_closed else 1, 0.0,
            "-" if witness is None
            else "diffeo{} conjugates {} to {}".format(*witness))
    _record(records, "corollary2", "lift_differences",
            "two lifts of one sampled diffeomorphism differ by an "
            "identity lift", 0 if report.lift_differences_in_id else 1, 0.0)


_SUITE_RUNNERS = {
    "group": _suite_group,
    "strata": _suite_strata,
    "maps": _suite_maps,
    "tangent": _suite_tangent,
    "riemann": _suite_riemann,
    "theorem1": _suite_theorem1,
    "corollary2": _suite_corollary2,
}


def run_suite(config: SuiteConfig, suites: tuple[str, ...] | None = None,
              seed: int | None = None, tol_scale: float = 1.0,
              grid_override: int | None = None) -> SuiteReport:
    """Execute the selected suites in declared order, deterministically."""
    if grid_override is not None:
        config = replace(config, strata_resolution=grid_override,
                         verify_resolution=grid_override)
    if not len(config.model.verification_grid(config.verify_resolution)):
        raise ConfigInvalid(
            f"verification grid at resolution {config.verify_resolution} has no "
            "row in the verification domain")
    chosen = tuple(suites or config.suites)
    # suites always execute in the canonical declared order
    chosen = tuple(s for s in _SUITE_RUNNERS if s in chosen)
    ctx = _Context(config, config.seed if seed is None else seed, tol_scale)
    records: list[tuple[str, CheckRecord]] = []
    for suite in chosen:
        _SUITE_RUNNERS[suite](ctx, records)
    return SuiteReport(config, ctx.seed, tol_scale, records, ctx.atlas)


# -- describe and dumps ---------------------------------------------------------------

def describe(config: SuiteConfig) -> str:
    """Human-readable structure summary of the configured orbifold."""
    orbifold = config.build_orbifold()
    atlas = build_atlas(orbifold, resolution=config.atlas_resolution,
                        max_charts=config.max_charts)
    layers = strata(orbifold, resolution=min(config.strata_resolution, 48))
    out = io.StringIO()
    out.write(f"orbifold {orbifold.name}\n")
    out.write(f"  model: {orbifold.model.kind}, dimension "
              f"{orbifold.model.dimension}\n")
    out.write(f"  group order: {orbifold.group.order}\n")
    out.write(f"  strata: {len(layers)}\n")
    for s in layers:
        kind = "point" if s.is_singleton else f"{s.sample_points.shape[0]} samples"
        out.write(f"    isotropy order {s.isotropy_order}: {kind}\n")
    out.write(f"  atlas: {len(atlas)} charts\n")
    for ch in atlas:
        if ch.isotropy.order > 1:
            out.write(f"    singular chart at {np.round(ch.center, 4).tolist()} "
                      f"(isotropy order {ch.isotropy.order}, radius "
                      f"{ch.radius:.4f})\n")
    for p in [atlas[0].center] if atlas else []:
        dims = admissible_space(orbifold, p).shape[0]
        out.write(f"  admissible dimension at {np.round(p, 4).tolist()}: {dims}\n")
    return out.getvalue()


def dump_fields(config: SuiteConfig, which: str, grid: int | None = None,
                seed: int | None = None, section=None,
                atlas: tuple[DerivedChart, ...] = ()) -> tuple[str, str]:
    """CSV dump of partition, orbisection, or averaged metric values.

    Returns (filename, csv text); columns carry chart ids and coordinate
    headers in model units.  ``section`` overrides the seeded random
    orbisection (e.g. the zero section dumps all-zero value columns).
    ``atlas`` is the config's atlas when the caller holds it already (a
    ``SuiteReport`` does); without it the orbifold and atlas are built.
    """
    if which not in ("partition", "orbisection", "metric"):
        raise OrbidiffError(f"unknown field dump {which!r}")
    if atlas:
        orbifold = atlas[0].orbifold
    else:
        orbifold = config.build_orbifold()
        atlas = build_atlas(orbifold, resolution=config.atlas_resolution,
                            max_charts=config.max_charts)
    res = grid or config.verify_resolution
    pts = orbifold.model.verification_grid(res)
    out = io.StringIO()
    writer = csv.writer(out)
    coords = [f"x{i}" for i in range(orbifold.model.ambient_dim)]
    rng = np.random.default_rng(config.seed if seed is None else seed)

    if which == "partition":
        pou = equivariant_partition_of_unity(orbifold, atlas)
        writer.writerow(coords + [f"weight_chart{j}"
                                  for j in range(len(atlas))] + ["total"])
        for y, row in zip(pts, pou.values(pts).tolist()):
            writer.writerow([f"{c:.12g}" for c in y] + [f"{v:.12g}" for v in row]
                            + [f"{sum(row):.12g}"])
    elif which == "orbisection":
        sigma = section if section is not None else \
            random_orbisection(orbifold, atlas, rng, 0.05, "dump")
        writer.writerow(coords + [f"s_{c}" for c in coords])
        for y, v in zip(pts, sigma.values(pts)):
            writer.writerow([f"{c:.12g}" for c in y] + [f"{c:.12g}" for c in v])
    else:
        chart = max(atlas, key=lambda c: c.isotropy.order)
        n = orbifold.model.ambient_dim
        entry = average_metric(chart, _raw_metric(rng, n))
        writer.writerow(coords + [f"g_{i}{j}" for i in range(n)
                                  for j in range(n)] + ["min_eigenvalue"])
        pts = chart.sample_points(per_axis=grid or 5)
        vals = entry(pts)
        for y, m, low in zip(pts, vals, np.linalg.eigvalsh(vals).min(axis=1)):
            writer.writerow([f"{c:.12g}" for c in y]
                            + [f"{c:.12g}" for c in m.ravel()]
                            + [f"{float(low):.12g}"])
    return f"{which}_{orbifold.name}.csv", out.getvalue()
