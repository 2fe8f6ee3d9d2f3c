"""Equivariant Riemannian structure and the diffeomorphism-group chart map.

The exponential map is closed form on flat and round models.  Composing it
with orbisections gives the chart map into the diffeomorphism group;
inverting it recovers the section.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (ChartMismatch, CoverGap, ImageEscapesChart,
                     NotCloseToIdentity, NotSPD, OutOfDomain, ThetaNotIdentity)
from .groups import (fixing_mask, product_grid, row_apply, row_dot, stabilizer,
                     translates)
from .maps import (ChartLift, IdentityLiftGroup, OrbifoldMapData,
                   _isotropy_values, compose, cs_distance, derive_theta,
                   identity_map)
from .model import (DerivedChart, GoodOrbifold, atlas_grid, chart_hits,
                    first_hits, stacked_charts)
from .tangent import (Orbisection, random_orbisection, scale as scale_section,
                      seminorm)

WELL_DEFINED_TRIPLES = 50   # seeded (g, x, v) triples of exp_well_defined_residual
WELL_DEFINED_SCALE = 0.4    # their largest tangent vector length
HOMEO_PAIRS = 60            # tangent class pairs of exp_local_homeo_check
HOMEO_PER_AXIS = 21         # its tangent disc grid points per axis
INNER_FRACTION = 0.55       # verify_diffeo's inner ball, per chart radius


# -- partitions of unity ---------------------------------------------------------

def _bump(u: np.ndarray) -> np.ndarray:
    """Cubic cutoff in the radius-squared variable; C^2 across the edge,
    and 0 at and past it, at inf and at NaN (``fmin`` takes the 1 there)."""
    return (1.0 - np.fmin(u, 1.0)) ** 3


@dataclass(frozen=True)
class PartitionOfUnity:
    """Normalized equivariant chart weights summing to one.

    ``values`` is the evaluation kernel; ``weights[j]`` is its column j on
    one point, filled in when no weights are given.
    """

    orbifold: GoodOrbifold
    atlas: tuple[DerivedChart, ...]
    weights: tuple[Callable[[np.ndarray], float], ...] = ()
    _charts: tuple = field(init=False, repr=False, compare=False)  # centres, radii

    def __post_init__(self):
        if not self.atlas:
            raise CoverGap("a partition of unity needs at least one chart")
        if not self.weights:
            object.__setattr__(self, "weights", tuple(
                functools.partial(self._weight, j) for j in range(len(self.atlas))))
        object.__setattr__(self, "_charts", stacked_charts(self.orbifold, self.atlas))

    def _weight(self, j: int, y: np.ndarray) -> float:
        return float(self.values(np.asarray(y, dtype=float)[None])[0, j])

    def _raw(self, pts: np.ndarray) -> np.ndarray:
        """(k, n) -> (k, charts) group-averaged bumps, before normalizing,
        summing over the group along the last axis as the one-point sum did.
        Raises OutOfDomain on rows of the wrong width and on the first row
        holding a NaN or an infinity."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.orbifold.model.ambient_dim:
            raise OutOfDomain(f"partition points have shape {pts.shape}")
        if not np.isfinite(pts).all():
            bad = int(np.argmin(np.isfinite(pts).all(axis=1)))
            raise OutOfDomain(f"partition point {bad} is not finite: {pts[bad]}")
        centres, radii = self._charts
        order = self.orbifold.group.order
        return self.orbifold.translate_distances(pts, centres, lambda d, cols: (
            np.add.reduce(_bump((d / radii[cols, None]) ** 2), axis=-1) / order))

    def values(self, pts: np.ndarray) -> np.ndarray:
        """(k, n) -> (k, charts): every normalized weight at every point."""
        raw = self._raw(pts)
        total = _row_totals(raw)[:, None]
        return np.divide(raw, total, out=np.zeros(raw.shape), where=total > 0.0)

    def total(self, y: np.ndarray) -> float:
        return float(_row_totals(self.values(np.asarray(y, dtype=float)[None]))[0])

    def verify(self, grid: np.ndarray) -> tuple[float, float]:
        """(sum residual, equivariance residual) over the grid and its translates."""
        grid = np.asarray(grid, dtype=float)
        base = self.values(grid)
        sum_res = float(np.abs(_row_totals(base) - 1.0).max(initial=0.0))
        moved = translates(self.orbifold.group, grid)[:, 1:]
        vals = self.values(moved.reshape(-1, grid.shape[1])).reshape(
            *moved.shape[:2], len(self.atlas))
        return sum_res, float(np.abs(vals - base[:, None]).max(initial=0.0))


def _row_totals(mat: np.ndarray) -> np.ndarray:
    """Row sums adding the columns left to right, as Python's ``sum`` does;
    ``ndarray.sum`` adds pairwise from 8 columns on."""
    return np.add.accumulate(mat, axis=1)[:, -1]


def equivariant_partition_of_unity(orbifold: GoodOrbifold,
                                   atlas: Sequence[DerivedChart]
                                   ) -> PartitionOfUnity:
    """Radial bumps, group averaged and normalized.

    Radial profiles are exactly isotropy invariant; averaging over the whole
    deck group makes every weight a function on the quotient.  Raises
    CoverGap when the un-normalized total vanishes on the verification grid.
    """
    pou = PartitionOfUnity(orbifold, tuple(atlas))
    grid = orbifold.model.verification_grid(24)
    gaps = np.flatnonzero(_row_totals(pou._raw(grid)) < 1e-12)
    if gaps.size:
        raise CoverGap(f"partition weights vanish near {np.round(grid[gaps[0]], 4)}")
    return pou


# -- metric fields ----------------------------------------------------------------

def _check_spd(mats: np.ndarray, pts: np.ndarray):
    """NotSPD naming the first of the (k, n) points whose (k, n, n) matrix is
    not symmetric positive definite."""
    asym = np.abs(mats - np.swapaxes(mats, 1, 2)).max(axis=(1, 2)) > 1e-12
    bad = np.flatnonzero(asym | (np.linalg.eigvalsh(mats).min(axis=1) <= 0.0))
    if bad.size:
        k = bad[0]
        what = "symmetric" if asym[k] else "positive definite"
        raise NotSPD(f"metric is not {what} at {np.round(pts[k], 4)}")


def average_metric(chart: DerivedChart, raw: Callable[[np.ndarray], np.ndarray],
                   printed_double_sum: bool = False
                   ) -> Callable[[np.ndarray], np.ndarray]:
    """Isotropy average of a raw metric over a chart.

    Metric entries map (k, n) rows to (k, n, n) matrices, ``raw`` and the
    returned entry alike.  The default diagonal average (1/|G|) sum_g
    g^T raw(g y) g is invariant and keeps positive definiteness (min
    eigenvalue at least 1/|G| of the input minimum).  ``printed_double_sum``
    instead averages the two slots independently, which factors through the
    fixed-subspace projector and is degenerate off that subspace; it is
    provided only for demonstration.
    """
    group = chart.isotropy
    pts = chart.sample_points(per_axis=4)
    _check_spd(np.asarray(raw(pts), dtype=float), pts)

    if printed_double_sum:
        proj = group.matrices.mean(axis=0)

        def degenerate(pts: np.ndarray) -> np.ndarray:
            return proj.T @ np.asarray(raw(pts), dtype=float) @ proj

        return degenerate

    def averaged(pts: np.ndarray) -> np.ndarray:
        trans = translates(group, pts)
        k, order, n = trans.shape
        vals = np.asarray(raw(trans.reshape(-1, n)), dtype=float)
        vals = vals.reshape(k, order, n, n)
        acc = None
        for lab, g in enumerate(group.matrices):
            term = g.T @ vals[:, lab] @ g
            acc = term if acc is None else acc + term
        return acc / order

    return averaged


def metric_invariance_residual(chart: DerivedChart, entry: Callable) -> float:
    """max |g^T entry(g y) g - entry(y)| over the chart grid and isotropy."""
    base, moved, sample, label = _isotropy_values([chart], entry, per_axis=4)
    g = chart.isotropy.matrices[label]
    return float(np.abs(np.swapaxes(g, 1, 2) @ moved @ g - base[sample]).max())


# -- exponential maps --------------------------------------------------------------

@dataclass(frozen=True)
class ExpMap:
    """Closed-form Riemannian exponential of the orbifold's model: straight
    lines on a flat ball, great circles on the round sphere."""

    orbifold: GoodOrbifold

    @staticmethod
    def closed_form(orbifold: GoodOrbifold) -> "ExpMap":
        return ExpMap(orbifold)

    def lift_exp(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(k, n) base points and (k, n) vectors -> (k, n) endpoints of the
        vectors' tangent parts; a zero vector keeps its base point."""
        model = self.orbifold.model
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        speed = np.sqrt(row_dot(v, v))
        past = speed >= model.exp_bound
        if past.any():
            raise OutOfDomain(f"|v| = {speed[past.argmax()]:.4f} is at or past "
                              f"the cut locus")
        return np.where((speed != 0.0)[:, None],
                        model.geo_exp(x, model.tangent_part(x, v)), x)

    def lift_log(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """(k, n) base points and (k, n) targets -> (k, n) vectors."""
        return self.orbifold.model.geo_log(x, y)


def _require_in_model(model, ends: np.ndarray):
    """OutOfDomain unless every (k, n) exponential endpoint is in the model."""
    if not model.contains(ends).all():
        raise OutOfDomain("exponential image leaves the model")


def exp_well_defined_residual(exp_map: ExpMap, rng: np.random.Generator) -> float:
    """Representative independence: exp((g x, g v)) equals exp((x, v)).

    Returns the worst quotient distance over WELL_DEFINED_TRIPLES seeded
    random (g, x, v) triples with |v| below WELL_DEFINED_SCALE.  A triple
    whose image leaves a flat model is redrawn with |v| below 0.1 R, which
    keeps it inside: base points lie within 0.9 R.
    The loop keeps each triple's two endpoints; they are canonicalised and
    measured together after it.
    """
    orbifold = exp_map.orbifold
    model = orbifold.model
    grp = orbifold.group
    ends = []
    limit = WELL_DEFINED_SCALE
    while len(ends) < WELL_DEFINED_TRIPLES:
        x = model.project(orbifold.random_row(rng))
        frame = model.tangent_basis(x)
        v = rng.normal(size=frame.shape[0]) @ frame
        v = v / max(np.linalg.norm(v), 1e-12) * rng.uniform(0.0, limit)
        lab = int(rng.integers(0, grp.order))
        # the moved base is g x projected onto the model
        moved = model.project(grp.act(lab, x))
        try:
            pair = exp_map.lift_exp(np.stack([x, moved]),
                                    np.stack([v, grp.act(lab, v)]))
            _require_in_model(model, pair)
        except OutOfDomain:
            limit = min(WELL_DEFINED_SCALE, 0.1 * model.radius)
            continue
        limit = WELL_DEFINED_SCALE
        ends.append(pair)
    canon = orbifold.canonicals(np.reshape(ends, (-1, model.ambient_dim)))
    gaps = orbifold.quotient_pair_distances(canon[0::2], canon[1::2])
    return float(gaps.max(initial=0.0))


@dataclass(frozen=True)
class HomeoCheckReport:
    """Sampled local-homeomorphism evidence for exp at one point."""

    injective: bool
    surjective: bool
    injectivity_witness: tuple | None
    surjectivity_gap: float
    surjectivity_tolerance: float
    pairs_checked: int
    targets_checked: int

    @property
    def passed(self) -> bool:
        return self.injective and self.surjective


def exp_local_homeo_check(exp_map: ExpMap, row: np.ndarray, eps: float,
                          rng: np.random.Generator,
                          exp_override: Callable | None = None
                          ) -> HomeoCheckReport:
    """Sampled injectivity and surjectivity of exp on the eps ball at a
    model row, projected onto the model (ValueError when it is not in it).

    Injectivity compares HOMEO_PAIRS random distinct tangent classes; the
    witness is the first pair, in draw order, whose images coincide.
    Surjectivity covers a quotient grid of B(p, eps) by the image of a
    tangent-ball grid with HOMEO_PER_AXIS points per axis.  Every
    pair and disc vector goes through one exponential call.
    ``exp_override`` maps (k, n) base rows and (k, n) vectors to (k, n)
    endpoints in place of ``exp_map.lift_exp``, so that tests can exercise
    the check against a planted map.
    """
    orbifold = exp_map.orbifold
    the_exp = exp_override or exp_map.lift_exp
    base_row = np.asarray(row, dtype=float)[None]
    x = orbifold.model.project_checked(base_row)[0]
    frame = orbifold.model.tangent_basis(x)
    stab = stabilizer(orbifold.group, x)

    vecs = []
    pairs = 0
    while pairs < HOMEO_PAIRS:
        v = rng.normal(size=frame.shape[0]) @ frame
        w = rng.normal(size=frame.shape[0]) @ frame
        v = v / max(np.linalg.norm(v), 1e-12) * rng.uniform(0, eps)
        w = w / max(np.linalg.norm(w), 1e-12) * rng.uniform(0, eps)
        class_gap = float(np.linalg.norm(stab.matrices @ v - w, axis=1).min())
        if class_gap < 1e-6:
            continue
        pairs += 1
        vecs += [v, w]

    axis = np.linspace(-1.0, 1.0, HOMEO_PER_AXIS)
    cube = product_grid(axis, frame.shape[0])
    disc = cube[np.hypot.reduce(cube, axis=1) <= 1.0] * eps
    vecs = np.concatenate([np.reshape(vecs, (-1, frame.shape[1])),
                           row_apply(frame.T, disc)])
    ends = the_exp(np.tile(x, (len(vecs), 1)), vecs)
    _require_in_model(orbifold.model, ends)
    # the base row's canonical member comes last
    canon = orbifold.canonicals(np.concatenate([ends, base_row]))
    pair_rows, images, base = canon[:2 * pairs], canon[2 * pairs:-1], canon[-1:]

    same = orbifold.quotient_pair_distances(pair_rows[0::2], pair_rows[1::2]) < 1e-9
    injective = not same.any()
    witness = None
    if not injective:
        k = int(same.argmax())
        pairs = k + 1
        witness = (vecs[2 * k].copy(), vecs[2 * k + 1].copy())

    spacing = 2.0 * eps / (HOMEO_PER_AXIS - 1)
    tol = 2.5 * spacing
    grid = orbifold.canonicals(orbifold.model.grid(32))
    near = orbifold.quotient_distances(grid, base)[:, 0] <= eps * 0.9
    gap = _cover_gap(orbifold, grid[near], images)
    return HomeoCheckReport(injective, gap <= tol, witness, gap, tol,
                            pairs, int(near.sum()))


def _cover_gap(orbifold: GoodOrbifold, targets: np.ndarray,
               images: np.ndarray) -> float:
    """Largest quotient distance from a target row to its nearest image row."""
    dists = orbifold.quotient_distances(targets, images)
    return float(dists.min(axis=1).max(initial=0.0))


def exp_stratum_check(exp_map: ExpMap, row: np.ndarray, v: np.ndarray,
                      t_grid: np.ndarray) -> bool:
    """exp(x, t v) stays in the stratum of x, the model row projected onto
    the model, for admissible v: every endpoint has the fixing mask of x.
    ValueError when the row is not in the model."""
    x = exp_map.orbifold.model.project_checked(np.asarray(row, dtype=float)[None])
    t_grid = np.asarray(t_grid, dtype=float)
    base = np.broadcast_to(x, (len(t_grid), x.shape[1]))
    ends = exp_map.lift_exp(base, t_grid[:, None] * np.asarray(v, dtype=float))
    masks = fixing_mask(exp_map.orbifold.group, np.vstack([x, ends]))
    return bool((masks[1:] == masks[0]).all())


# -- the chart map E and its inverse ------------------------------------------------

def E_apply(sigma: Orbisection, exp_map: ExpMap,
            name: str = "") -> OrbifoldMapData:
    """exp composed with an orbisection, as an orbifold self-map.

    Lifts are y -> exp(y, s(y)) with the identity homomorphism on every
    chart.  Raises OutOfDomain when the section leaves the exp domain.
    """
    orbifold = sigma.orbifold
    bound = exp_map.orbifold.model.exp_bound
    if seminorm(sigma, 0) >= bound:
        raise OutOfDomain(
            f"section sup norm {seminorm(sigma, 0):.4f} reaches the exp "
            f"domain bound {bound:.4f}")

    def func(pts: np.ndarray) -> np.ndarray:
        return exp_map.lift_exp(pts, sigma.field(pts))

    lifts = [ChartLift(ch, func, ch.inclusion) for ch in sigma.atlas]
    return OrbifoldMapData(orbifold, orbifold, lifts, degree=2,
                           name=name or f"E[{sigma.name}]",
                           global_lift=func,
                           inverse_lift=make_inverse_lift(func, orbifold))


def make_inverse_lift(func: Callable, orbifold: GoodOrbifold) -> Callable:
    """Inverse of a near-identity global lift on (k, n) rows, by damped
    iteration to 1e-12 in at most 200 steps.  A converged row is frozen, so
    each row takes the steps it would take alone."""
    model = orbifold.model

    def inverse(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        w = pts.copy()
        active = np.arange(len(pts))
        for _ in range(200):
            if not active.size:
                return w
            r = pts[active] - np.asarray(func(w[active]), dtype=float)
            moving = ~(np.abs(r).max(axis=1) < 1e-12)
            active = active[moving]
            w[active] = model.project(w[active] + r[moving])
        if active.size:
            raise NotCloseToIdentity("inverse iteration failed; map too far "
                                     "from the identity")
        return w

    return inverse


def E_inverse(f: OrbifoldMapData, exp_map: ExpMap,
              eps_inj: float | None = None, name: str = "") -> Orbisection:
    """Recover the orbisection with exp(y, s(y)) = lift(y).

    Requires identity homomorphisms on every chart (ThetaNotIdentity
    otherwise) and lifts within the per-chart injectivity scale of the
    identity (NotCloseToIdentity otherwise).
    """
    orbifold = f.source
    for entry in f.lifts:
        if not entry.theta.is_identity:
            raise ThetaNotIdentity(
                f"chart at {np.round(entry.chart.center, 4)} carries a "
                "non-identity homomorphism")
    if f.global_lift is None:
        raise ChartMismatch("E_inverse needs a map with a global lift")
    if eps_inj is None:
        eps_inj = orbifold.model.injectivity_scale
    grid = atlas_grid(f.atlas, 4)
    worst = float(orbifold.model.row_distances(grid, f.global_lift(grid)).max())
    if worst >= eps_inj:
        raise NotCloseToIdentity(
            f"lift displacement {worst:.4f} reaches the injectivity scale "
            f"{eps_inj:.4f}")

    def field(pts: np.ndarray) -> np.ndarray:
        return exp_map.lift_log(pts, np.asarray(f.global_lift(pts), dtype=float))

    return Orbisection(orbifold, f.atlas, field, name=name or f"log[{f.name}]")


def transition_map(f: OrbifoldMapData, g: OrbifoldMapData, sigma: Orbisection,
                   exp_map: ExpMap) -> Orbisection:
    """Chart-overlap transition: the section representing g^-1 (f E(sigma))."""
    if g.inverse_lift is None or f.global_lift is None:
        raise ChartMismatch("transition maps need global lifts and an inverse")
    e_sigma = E_apply(sigma, exp_map)

    def func(pts: np.ndarray) -> np.ndarray:
        return np.asarray(
            g.inverse_lift(f.global_lift(e_sigma.global_lift(pts))), dtype=float)

    lifts = [ChartLift(ch, func, theta) for ch, theta in zip(
        sigma.atlas, derive_theta(sigma.atlas, func, sigma.orbifold.group,
                                  per_axis=3))]
    h = OrbifoldMapData(sigma.orbifold, sigma.orbifold, lifts, degree=2,
                        name="transition", global_lift=func)
    return E_inverse(h, exp_map)


# -- diffeomorphism verification -----------------------------------------------------

@dataclass(frozen=True)
class DiffeoVerification:
    """Sampled injectivity, surjectivity, and the covering margin check."""

    injective: bool
    injectivity_witness: tuple | None
    surjectivity_gap: float
    surjectivity_tolerance: float
    c0_distance_to_identity: float
    margin: float                      # half the minimal covering separation

    @property
    def surjective(self) -> bool:
        return self.surjectivity_gap <= self.surjectivity_tolerance

    @property
    def margin_ok(self) -> bool:
        return self.c0_distance_to_identity < self.margin

    @property
    def passed(self) -> bool:
        return self.injective and self.surjective and self.margin_ok


def verify_diffeo(f: OrbifoldMapData, per_axis: int = 5,
                  underlying_override: Callable | None = None
                  ) -> DiffeoVerification:
    """Check a self-map against the small-section diffeomorphism criteria.

    Covering data: each atlas chart is an outer set with an inner ball at
    INNER_FRACTION of its radius, so the separation constant of chart i is
    (1 - INNER_FRACTION) x radius_i.  The stacked chart grids and their
    images are canonicalised in one call each.  ``underlying_override``
    maps (k, n) source rows to (k, n) image rows in place of
    ``f.underlying_rows``, so that tests can plant a defective map while
    keeping the harness honest; the displacement from the identity is then
    the planted map's, the largest quotient distance from a grid point to
    its image, since f's lifts no longer describe the map checked.
    """
    orbifold = f.source
    apply_f = underlying_override or f.underlying_rows

    grid = atlas_grid(f.atlas, per_axis)
    src = orbifold.canonicals(grid)
    image_rows = apply_f(orbifold.model.project(grid))
    try:
        img = f.target.canonicals(image_rows)
    except ValueError as exc:
        raise ImageEscapesChart(str(exc)) from exc
    spacing = max(2.0 * ch.radius / (per_axis - 1) for ch in f.atlas)
    # pairs (i < j) of distinct sources with coinciding images, row-major
    collide = np.triu(~(orbifold.quotient_distances(src, src) < 1e-6), k=1) \
        & (orbifold.quotient_distances(img, img) < 1e-9)
    hits = np.flatnonzero(collide)
    injective = hits.size == 0
    witness = None
    if not injective:
        i, j = divmod(int(hits[0]), len(grid))
        witness = tuple(orbifold.model.project_checked(grid[[i, j]]))

    tol = 2.5 * spacing
    inner = np.concatenate([chart.sample_points(per_axis=per_axis,
                                                shrink=INNER_FRACTION)
                            for chart in f.atlas])
    gap = _cover_gap(orbifold, orbifold.canonicals(inner), img)

    if underlying_override is None:
        d0 = cs_distance(f, identity_map(orbifold, f.atlas), s=0,
                         per_axis=per_axis).value
    else:
        d0 = float(orbifold.quotient_pair_distances(src, img).max())
    margin = 0.5 * min((1.0 - INNER_FRACTION) * ch.radius for ch in f.atlas)
    return DiffeoVerification(injective, witness, gap, tol, d0, margin)


@dataclass(frozen=True)
class DiffeoChart:
    """Local chart of the diffeomorphism group around a base map."""

    base: OrbifoldMapData
    radius: float
    exp_map: ExpMap

    @staticmethod
    def around(base: OrbifoldMapData, exp_map: ExpMap,
               radius: float | None = None) -> "DiffeoChart":
        """Chart with the default radius, 0.1 x the minimal chart radius."""
        if radius is None:
            radius = 0.1 * min(ch.radius for ch in base.atlas)
        return DiffeoChart(base, radius, exp_map)

    def chart(self, sigma: Orbisection) -> OrbifoldMapData:
        if seminorm(sigma, 1) >= self.radius:
            raise OutOfDomain("section leaves the chart ball")
        return compose(E_apply(sigma, self.exp_map), self.base)


def calibrate_chart_radius(orbifold: GoodOrbifold, exp_map: ExpMap,
                           atlas: Sequence[DerivedChart],
                           rng: np.random.Generator, steps: int = 8,
                           probes: int = 2, upper: float | None = None) -> float:
    """Largest section size whose chart maps verify as diffeomorphisms.

    Bisection (the given number of steps) on the C^1 bound; each candidate is
    probed with seeded random sections at that size.
    """
    if upper is None:
        upper = 0.5 * min(ch.radius for ch in atlas)

    def passes(eps: float) -> bool:
        for _ in range(probes):
            sigma = random_orbisection(orbifold, atlas, rng, c1_bound=eps)
            size = seminorm(sigma, 1)
            if size > 0:
                sigma = scale_section(sigma, eps * 0.98 / size)
            try:
                if not verify_diffeo(E_apply(sigma, exp_map)).passed:
                    return False
            except (OutOfDomain, NotCloseToIdentity):
                return False
        return True

    lo, hi = 0.0, upper
    if passes(hi):
        return hi
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo


# -- corollary checks: identity lifts inside the diffeomorphism group ------------------

def conjugate_identity_lifts(id_group: IdentityLiftGroup,
                             assignments: Sequence[tuple[int, ...]],
                             g: OrbifoldMapData,
                             tol: float = 1e-8) -> list[tuple[int, ...] | None]:
    """Assignment tuple of g f g^-1 for each identity lift f, or None.

    Needs g to carry global and inverse lifts.  The conjugate's germ on each
    chart is transported through the chart of f nearest to the preimage of
    the center; None means some germ failed to normalize into the isotropy,
    i.e. the conjugate is not an identity lift over this atlas.

    One inverse_lift call takes every chart centre, and their first
    chart_hits hits are the source charts.  Chart by chart, the sample
    points and their preimages are found once, and g's global lift runs
    once on the preimages moved by each distinct germ the assignments still
    alive there ask for.
    """
    if g.global_lift is None or g.inverse_lift is None:
        raise ChartMismatch("conjugation needs global and inverse lifts")
    orbifold = id_group.orbifold
    grp = orbifold.group
    atlas = id_group.atlas
    # the source chart and deck label of each centre's preimage
    source, deck = first_hits(chart_hits(orbifold, atlas, np.asarray(
        g.inverse_lift(stacked_charts(orbifold, atlas)[0]), dtype=float)))
    out: list[list[int] | None] = [[] for _ in assignments]
    for chart, k, lab in zip(atlas, source.tolist(), deck.tolist()):
        alive = [n for n, locs in enumerate(out) if locs is not None]
        if not alive:
            break
        if k < 0:
            return [None] * len(assignments)
        parents = atlas[k].isotropy.parent_labels
        germ_of = {n: grp.conjugate(grp.inverse(lab), parents[assignments[n][k]])
                   for n in alive}
        germs = sorted(set(germ_of.values()))

        pts = chart.sample_points(per_axis=4)
        back = np.asarray(g.inverse_lift(pts), dtype=float)
        moved = row_apply(grp.matrices[germs][:, None], back)
        vals = np.asarray(g.global_lift(moved.reshape(-1, moved.shape[2])),
                          dtype=float).reshape(len(germs), len(pts), -1)
        # hits[germ, loc]: the germ's values are isotropy element loc's
        hits = np.abs(vals[:, :, None] - translates(chart.isotropy, pts)
                      ).max(axis=(1, 3)) <= tol
        match = {germ: int(row.argmax()) if row.any() else None
                 for germ, row in zip(germs, hits)}
        for n in alive:
            loc = match[germ_of[n]]
            if loc is None:
                out[n] = None
            else:
                out[n].append(loc)
    return [None if locs is None else tuple(locs) for locs in out]


@dataclass(frozen=True)
class QuotientGroupReport:
    """Evidence for the identity-lift normal subgroup structure."""

    id_order: int
    enumerated_order: int
    conjugation_closed: bool
    lift_differences_in_id: bool
    # (sample index, identity lift, conjugate or None) of the first miss
    conjugation_witness: tuple | None = None

    @property
    def passed(self) -> bool:
        return (self.id_order == self.enumerated_order
                and self.conjugation_closed and self.lift_differences_in_id)


def reduced_group_quotient_check(id_group: IdentityLiftGroup,
                                 sample_diffeos: Sequence[OrbifoldMapData]
                                 ) -> QuotientGroupReport:
    """Normality and coset checks for the identity-lift subgroup.

    (a) the enumeration is finite and closed; (b) conjugates of identity
    lifts (the first 12) by the sample diffeomorphisms are again identity
    lifts over the atlas, and the first that is not is the witness; (c) two
    lifts of one sample diffeomorphism differ by an identity lift (deck
    variants give exactly the global identity-lift assignments).
    """
    orbifold = id_group.orbifold
    grp = orbifold.group
    elements = id_group.assignments[:12]

    witness = next(((k, a, image) for k, g in enumerate(sample_diffeos)
                    for a, image in zip(elements, conjugate_identity_lifts(
                        id_group, elements, g))
                    if image is None or not id_group.contains(image)), None)
    conj_ok = id_group.is_group() and witness is None

    # (c): alternative lifts of one underlying map are deck variants eta g;
    # the difference (eta g) g^-1 = eta covers the identity, and its germ at
    # a chart is t eta for the first label t with t eta in the chart's
    # isotropy H: t = min over h in H of h eta^-1.  H fixes the chart centre,
    # so each germ t eta does too.
    cols = []
    for chart in id_group.atlas:
        iso = np.array(chart.isotropy.parent_labels)
        first = grp.cayley[iso[:, None], grp.inverses].min(axis=0)
        cols.append(np.searchsorted(iso, grp.cayley[first, np.arange(grp.order)]))
    diff_ok = all(id_group.contains(tuple(diff))
                  for diff in np.stack(cols, axis=1).tolist())
    return QuotientGroupReport(id_group.order, id_group.order, conj_ok, diff_ok,
                               witness)
