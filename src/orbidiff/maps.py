"""Orbifold maps: chartwise equivariant lifts with their homomorphisms.

A map is stored as (chart, lift, homomorphism) triples over a source atlas.
Lifts evaluate on model points; homomorphisms are label tables from chart
isotropy into the target group.  Maps built from a single equivariant model
map also carry that global lift, which keeps composition exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (AtlasNotCovering, BranchAmbiguity, ChartMismatch,
                     EquivarianceViolation, ImageEscapesChart)
from .groups import (FD_STEP, FiniteActionGroup, GroupHom, _snap_key,
                     canonical_representatives, distinct_rows, fixing_mask,
                     inner_automorphisms, row_apply, row_dot, translates)
from .model import (DerivedChart, GoodOrbifold, atlas_grid, build_atlas,
                    chart_hits, first_hits, stacked_charts)

LIFT_TOL = 1e-9          # equivariance tolerance on validated lifts
COMPOSE_TOL = 1e-8       # equivariance tolerance after composition
EXTENSION_STEPS = 64     # points on each radial path of a lift extension
BRANCH_TOL = 1e-6        # least gap between two continuation branches


@dataclass(frozen=True)
class ChartLift:
    """One chart of a map: evaluable lift plus its homomorphism.

    ``func`` maps (k, n) model points to their (k, m) images.
    """

    chart: DerivedChart
    func: Callable[[np.ndarray], np.ndarray]
    theta: GroupHom           # chart.isotropy -> target group


def _func_groups(funcs: Sequence[Callable]) -> list[list[int]]:
    """Indices of the funcs grouped by function object, each group and the
    groups in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for i, func in enumerate(funcs):
        groups.setdefault(id(func), []).append(i)
    return list(groups.values())


def _grid_charts(charts: Sequence[DerivedChart], per_axis: int) -> np.ndarray:
    """The chart of each row of atlas_grid(charts, per_axis)."""
    return np.repeat(np.arange(len(charts)),
                     [len(ch.sample_points(per_axis=per_axis)) for ch in charts])


def _by_func(funcs: Sequence[Callable], charts: Sequence[DerivedChart],
             per_axis: int, run: Callable[[Callable, np.ndarray], list[np.ndarray]]
             ) -> list[np.ndarray]:
    """run(func, rows) once per distinct func, on the stacked grids of the
    charts paired with it; each of run's arrays comes back over all the rows
    of atlas_grid(charts, per_axis), in chart order.  A func's rows are those
    whose entry in one per-row owner index is its group."""
    pts = atlas_grid(charts, per_axis)
    func_groups = _func_groups(funcs)
    owner = np.empty(len(charts), dtype=int)
    for k, idx in enumerate(func_groups):
        owner[idx] = k
    owner = owner[_grid_charts(charts, per_axis)]
    out: list[np.ndarray] = []
    for k, idx in enumerate(func_groups):
        rows = np.flatnonzero(owner == k)
        arrays = run(funcs[idx[0]], pts[rows])
        out = out or [np.empty((len(pts), *a.shape[1:])) for a in arrays]
        for whole, part in zip(out, arrays):
            whole[rows] = part
    return out


def _isotropy_values(charts: Sequence[DerivedChart], func: Callable,
                     per_axis: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """func on atlas_grid(charts, per_axis), (k, ...), and on the isotropy
    translates of its rows, (r, ...), with the grid row and local label of
    each translate: translate i is func at matrix(label[i]) @ grid[sample[i]].

    One func call takes every chart's translates and then its grid, in
    chart order.
    """
    rows, is_grid, sample, label = [], [], [], []
    start = 0
    for ch in charts:
        pts = ch.sample_points(per_axis=per_axis)
        trans = translates(ch.isotropy, pts)
        k, order, n = trans.shape
        rows += [trans.reshape(-1, n), pts]
        is_grid += [np.zeros(k * order, dtype=bool), np.ones(k, dtype=bool)]
        sample.append(np.repeat(np.arange(start, start + k), order))
        label.append(np.tile(np.arange(order), k))
        start += k
    out = np.asarray(func(np.concatenate(rows)), dtype=float)
    is_grid = np.concatenate(is_grid)
    return (out[is_grid], out[~is_grid], np.concatenate(sample),
            np.concatenate(label))


def _theta_residuals(charts: Sequence[DerivedChart], func: Callable,
                     target_group: FiniteActionGroup, per_axis: int
                     ) -> np.ndarray:
    """(charts, largest isotropy order, target order): entry [c, a, m] is
    the largest |func(g_a y) - T_m func(y)| over chart c's samples y, and 0
    past chart c's isotropy order."""
    vals, moved, sample, label = _isotropy_values(charts, func, per_axis)
    image = row_apply(target_group.matrices[:, None], vals)
    gaps = np.abs(moved - image[:, sample]).max(axis=2)
    out = np.zeros((len(charts), max(ch.isotropy.order for ch in charts),
                    target_group.order))
    np.maximum.at(out, (_grid_charts(charts, per_axis)[sample], label), gaps.T)
    return out


def derive_theta(charts: Sequence[DerivedChart], func: Callable,
                 target_group: FiniteActionGroup, per_axis: int = 5,
                 tol: float = LIFT_TOL) -> tuple[GroupHom, ...]:
    """Match the homomorphism table of an equivariant lift numerically, on
    each of the charts.

    For every isotropy element g the target element T(g) is the unique group
    element with func(g y) == T(g) func(y) on chart samples.
    """
    out = []
    for chart, residuals in zip(charts, _theta_residuals(charts, func,
                                                         target_group, per_axis)):
        residuals = residuals[:chart.isotropy.order]
        table = residuals.argmin(axis=1)
        for a, best in enumerate(table):
            if residuals[a, best] > tol:
                raise EquivarianceViolation(
                    f"no target element matches the lift under isotropy element {a}: "
                    f"best residual {residuals[a, best]:.3e}")
        try:
            out.append(GroupHom(chart.isotropy, target_group, tuple(table.tolist())))
        except ValueError as exc:
            raise EquivarianceViolation(str(exc)) from exc
    return tuple(out)


class OrbifoldMapData:
    """A map between good orbifolds with per-chart equivariant lifts.

    Plain data: the constructor checks nothing.  Builders that take an
    outside function (map_from_global, compose) run check_equivariance on
    what they build; the others are equivariant by construction.
    """

    def __init__(self, source: GoodOrbifold, target: GoodOrbifold,
                 lifts: Sequence[ChartLift], degree: int = 2, name: str = "",
                 global_lift: Callable | None = None,
                 inverse_lift: Callable | None = None):
        self.source = source
        self.target = target
        self.lifts = tuple(lifts)
        self.degree = int(degree)
        self.name = name
        self.global_lift = global_lift
        self.inverse_lift = inverse_lift

    @property
    def atlas(self) -> tuple[DerivedChart, ...]:
        return tuple(entry.chart for entry in self.lifts)

    def lift_at(self, chart: DerivedChart) -> ChartLift:
        """The lift on this chart object, else on a chart with the same
        centre and radius."""
        for entry in self.lifts:
            if entry.chart is chart:
                return entry
        key = _snap_key(chart.center)
        for entry in self.lifts:
            if (_snap_key(entry.chart.center) == key
                    and abs(entry.chart.radius - chart.radius) < 1e-12):
                return entry
        raise ChartMismatch("map has no lift on the requested chart")

    def underlying_rows(self, pts: np.ndarray) -> np.ndarray:
        """(k, n) model rows -> (k, m) rows over their images under the
        induced map of underlying spaces.

        With a global lift this is that lift.  Otherwise each row's
        canonical member is moved by its first chart_hits hit, in atlas
        order and then label order, and that chart's lift runs on it; each
        chart's lift runs once, on all its rows.
        """
        pts = np.asarray(pts, dtype=float)
        try:
            if self.global_lift is not None:
                return np.asarray(self.global_lift(pts), dtype=float)
            grp = self.source.group
            canon = canonical_representatives(grp, pts)
            chart, label = first_hits(chart_hits(self.source, self.atlas, canon))
            if (chart < 0).any():
                raise ChartMismatch(f"no chart of the atlas covers "
                                    f"[{np.round(canon[chart.argmin()], 6)}]")
            out = np.empty((len(pts), self.target.model.ambient_dim))
            for k, entry in enumerate(self.lifts):
                rows = np.flatnonzero(chart == k)
                if rows.size:
                    moved = row_apply(grp.matrices[label[rows]], canon[rows])
                    out[rows] = np.asarray(entry.func(moved), dtype=float)
        except ValueError as exc:
            raise ImageEscapesChart(str(exc)) from exc
        return out

    def __repr__(self) -> str:
        return (f"OrbifoldMapData({self.name or 'map'}: {self.source.name} -> "
                f"{self.target.name}, charts={len(self.lifts)})")


@dataclass(frozen=True)
class EquivarianceReport:
    """Worst-case equivariance and chart-consistency residuals."""

    per_chart: tuple[float, ...]
    commutation: float
    per_axis: int

    @property
    def max_residual(self) -> float:
        worst = max(self.per_chart) if self.per_chart else 0.0
        return max(worst, self.commutation)


def check_equivariance(f: OrbifoldMapData, per_axis: int = 5) -> EquivarianceReport:
    """Residuals of the defining relations of an orbifold map.

    Per chart: max |lift(g y) - theta(g) lift(y)| over isotropy elements and
    samples.  Across charts: the projections of overlapping lifts must give
    the same quotient point (commutation with the quotient maps).
    """
    per_chart = [0.0] * len(f.lifts)
    for idx in _func_groups([entry.func for entry in f.lifts]):
        residuals = _theta_residuals([f.lifts[i].chart for i in idx],
                                     f.lifts[idx[0]].func, f.target.group, per_axis)
        for i, res in zip(idx, residuals):
            table = f.lifts[i].theta.table
            per_chart[i] = float(res[np.arange(len(table)), table].max())

    commutation = 0.0
    for i, ei in enumerate(f.lifts):
        pts = ei.chart.sample_points(per_axis=per_axis)
        trans = translates(f.source.group, pts)
        hits = chart_hits(f.source, f.atlas, pts)
        for j, lab in np.argwhere(hits[:, :, i + 1:].any(axis=0).T).tolist():
            ej = f.lifts[i + 1 + j]
            inside = np.flatnonzero(hits[:, lab, i + 1 + j])[:8]
            try:
                qa = f.target.canonicals(ei.func(pts[inside]))
                qb = f.target.canonicals(ej.func(trans[inside, lab]))
            except ValueError as exc:
                raise ImageEscapesChart(str(exc)) from exc
            gaps = f.target.quotient_pair_distances(qa, qb)
            commutation = max(commutation, float(gaps.max()))
    return EquivarianceReport(tuple(per_chart), commutation, per_axis)


# -- constructors ---------------------------------------------------------------

def map_from_global(source: GoodOrbifold, target: GoodOrbifold, func: Callable,
                    atlas: Sequence[DerivedChart] | None = None, degree: int = 2,
                    name: str = "", inverse: Callable | None = None
                    ) -> OrbifoldMapData:
    """Map induced by one globally equivariant model map.

    derive_theta matches each chart's isotropy; check_equivariance then
    also probes commutation across overlaps, and EquivarianceViolation is
    raised above LIFT_TOL.
    """
    charts = tuple(atlas) if atlas is not None else build_atlas(source)
    lifts = [ChartLift(ch, func, theta)
             for ch, theta in zip(charts, derive_theta(charts, func, target.group))]
    out = OrbifoldMapData(source, target, lifts, degree=degree, name=name,
                          global_lift=func, inverse_lift=inverse)
    report = check_equivariance(out, per_axis=4)
    if report.max_residual > LIFT_TOL:
        raise EquivarianceViolation(
            f"map {name or '<anon>'} violates equivariance: "
            f"residual {report.max_residual:.3e} > {LIFT_TOL:.1e}")
    return out


def identity_map(orbifold: GoodOrbifold,
                 atlas: Sequence[DerivedChart] | None = None,
                 assignments: Sequence[int] | None = None,
                 name: str = "identity") -> OrbifoldMapData:
    """A lift of the identity: on chart i the map y -> g_i y, g_i in Gamma_i.

    ``assignments`` are local isotropy labels per chart (default all 0);
    theta on chart i is conjugation by g_i.
    """
    charts = tuple(atlas) if atlas is not None else build_atlas(orbifold)
    if assignments is None:
        assignments = [0] * len(charts)
    grp = orbifold.group
    lifts = []
    for ch, loc in zip(charts, assignments):
        glob = ch.isotropy.parent_labels[loc]
        mat = grp.matrix(glob)
        table = grp.conjugations[glob, list(ch.isotropy.parent_labels)]
        theta = GroupHom(ch.isotropy, grp, tuple(table.tolist()))
        lifts.append(ChartLift(ch, _linear_map(mat), theta))
    trivial = all(loc == 0 for loc in assignments)
    return OrbifoldMapData(
        orbifold, orbifold, lifts, degree=99, name=name,
        global_lift=_copy_rows if trivial else None,
        inverse_lift=_copy_rows if trivial else None)


def _copy_rows(pts: np.ndarray) -> np.ndarray:
    return np.array(pts, dtype=float)


def _linear_map(mat: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    m = np.array(mat, dtype=float)
    return lambda pts: row_apply(m, pts)


def constant_map(source: GoodOrbifold, target: GoodOrbifold,
                 value: np.ndarray, atlas: Sequence[DerivedChart] | None = None,
                 name: str = "constant") -> OrbifoldMapData:
    """Constant map; theta is the trivial homomorphism on every chart."""
    charts = tuple(atlas) if atlas is not None else build_atlas(source)
    val = np.asarray(value, dtype=float)

    def func(pts: np.ndarray) -> np.ndarray:
        return np.tile(val, (len(pts), 1))

    lifts = []
    for ch in charts:
        theta = GroupHom(ch.isotropy, target.group, (0,) * ch.isotropy.order)
        lifts.append(ChartLift(ch, func, theta))
    return OrbifoldMapData(source, target, lifts, degree=99, name=name,
                           global_lift=func)


# -- composition -----------------------------------------------------------------

def compose(f: OrbifoldMapData, g: OrbifoldMapData,
            name: str = "") -> OrbifoldMapData:
    """The composite (g after f); the target of f must be the source of g.

    Lifts compose chartwise.  When g has no global lift, a single g-chart and
    deck transport must accommodate each f-chart image, else ChartMismatch.
    """
    if f.target is not g.source and f.target.name != g.source.name:
        raise ChartMismatch("target of f must be the source of g")
    lifts: list[ChartLift | None] = [None] * len(f.lifts)
    if g.global_lift is not None:
        # one composite lift per distinct lift of f, its theta on all its charts
        for idx in _func_groups([entry.func for entry in f.lifts]):
            func = (lambda pts, ff=f.lifts[idx[0]].func, gg=g.global_lift:
                    np.asarray(gg(np.asarray(ff(pts), dtype=float)), dtype=float))
            charts = [f.lifts[i].chart for i in idx]
            for i, ch, theta in zip(idx, charts, derive_theta(
                    charts, func, g.target.group, tol=COMPOSE_TOL)):
                lifts[i] = ChartLift(ch, func, theta)
    else:
        for i, entry in enumerate(f.lifts):
            func = _compose_through_chart(entry, g)
            theta, = derive_theta([entry.chart], func, g.target.group,
                                  tol=COMPOSE_TOL)
            lifts[i] = ChartLift(entry.chart, func, theta)
    composite_global = None
    if f.global_lift is not None and g.global_lift is not None:
        composite_global = (lambda pts, ff=f.global_lift, gg=g.global_lift:
                            np.asarray(gg(np.asarray(ff(pts), dtype=float))))
    inverse = None
    if f.inverse_lift is not None and g.inverse_lift is not None:
        inverse = (lambda pts, fi=f.inverse_lift, gi=g.inverse_lift:
                   np.asarray(fi(np.asarray(gi(pts), dtype=float))))
    out = OrbifoldMapData(f.source, g.target, lifts,
                          degree=min(f.degree, g.degree),
                          name=name or f"{g.name}*{f.name}",
                          global_lift=composite_global, inverse_lift=inverse)
    report = check_equivariance(out, per_axis=4)
    if report.max_residual > COMPOSE_TOL:
        raise EquivarianceViolation(
            f"composite violates equivariance: {report.max_residual:.3e}")
    return out


def _compose_through_chart(entry: ChartLift, g: OrbifoldMapData) -> Callable:
    """g's lift on the first chart, in atlas order and then label order,
    that one deck element moves the whole image of entry's grid into."""
    mid = g.source
    images = np.asarray(entry.func(entry.chart.sample_points(per_axis=4)), dtype=float)
    (k,), (lab,) = first_hits(chart_hits(mid, g.atlas, images).all(axis=0)[None])
    if k < 0:
        raise ChartMismatch(
            "no chart of g contains the image of an f-chart under any deck "
            "transport; refine the atlases")
    return (lambda pts, ff=entry.func, gg=g.lifts[k].func, m=mid.group.matrix(lab):
            np.asarray(gg(row_apply(m, ff(pts)))))


def inverse_map(f: OrbifoldMapData, atlas: Sequence[DerivedChart] | None = None,
                name: str = "") -> OrbifoldMapData:
    """Inverse of a map carrying a global inverse lift."""
    if f.inverse_lift is None:
        raise ChartMismatch("map carries no inverse lift")
    return map_from_global(f.target, f.source, f.inverse_lift,
                           atlas=atlas, degree=f.degree,
                           name=name or f"{f.name}^-1", inverse=f.global_lift)


# -- lift extension ---------------------------------------------------------------

def extend_lift(underlying: Callable[[np.ndarray], np.ndarray],
                small: DerivedChart, small_lift: Callable,
                big: DerivedChart, target: GoodOrbifold) -> ChartLift:
    """Equivariant continuation of a lift from a sub-chart to a concentric chart.

    ``underlying`` maps (k, n) source rows to (k, m) target rows.  A point
    within 0.9 of the small radius takes the small lift.  From any other
    point, walk outward along the radial geodesic from 0.9 of the small
    radius in EXTENSION_STEPS points; at every step take the orbit
    representative of the underlying image nearest to the previous value.
    The far rows walk together, and each row's bits do not depend on the
    other rows or on earlier calls.  The branch is forced by continuity;
    BranchAmbiguity signals that two candidates came within BRANCH_TOL and
    the step size must shrink.  A failing step raises for its lowest
    failing row.
    """
    model = small.orbifold.model
    if _snap_key(small.center) != _snap_key(big.center):
        raise ChartMismatch("extension requires concentric charts")
    if small.radius >= big.radius:
        raise ChartMismatch("the source chart must be the smaller one")
    tgt_grp = target.group

    def walk(path: np.ndarray, prev: np.ndarray) -> np.ndarray:
        for step in range(1, EXTENSION_STEPS):
            try:
                canon = target.canonicals(underlying(path[:, step]))
            except ValueError as exc:
                raise ImageEscapesChart(f"underlying image: {exc}") from exc
            cand = translates(tgt_grp, canon)
            dists = np.linalg.norm(cand - prev[:, None], axis=2)
            nearest = dists.argmin(axis=1)
            prev = cand[np.arange(len(cand)), nearest]
            # within 1e-9 of the nearest: the same branch, another deck element
            apart = cand - prev[:, None]
            rival = np.where(np.sqrt(row_dot(apart, apart)) < 1e-9, np.inf,
                             dists).min(axis=1)
            tied = np.flatnonzero(rival < dists.min(axis=1) + BRANCH_TOL)
            if tied.size:
                raise BranchAmbiguity(
                    f"two continuation branches within {BRANCH_TOL:.1e} at "
                    f"radius {model.distance(big.center, path[tied[0], step]):.4f}")
        return prev

    def extension(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        dist = model.row_distances(big.center, pts)
        far = np.flatnonzero(dist > small.radius * 0.9)
        path = model.radial_paths(big.center, pts[far], dist[far],
                                  small.radius * 0.9, EXTENSION_STEPS)
        model.project_checked(path.reshape(-1, model.ambient_dim))
        start = pts.copy()
        start[far] = path[:, 0]
        out = np.array(small_lift(start), dtype=float)
        if far.size:
            out[far] = walk(path, out[far])
        return out

    pts = small.sample_points(per_axis=4)
    if float(np.abs(extension(pts) - np.asarray(small_lift(pts))).max()) > LIFT_TOL:
        raise EquivarianceViolation("extension does not restrict to the given lift")
    theta, = derive_theta([big], extension, tgt_grp, per_axis=4, tol=COMPOSE_TOL)
    return ChartLift(big, extension, theta)


# -- sampled C^s distances ---------------------------------------------------------

@dataclass(frozen=True)
class MapDistanceReport:
    """Sampled distance between two maps up to derivative order s."""

    s: int
    value: float
    per_chart: tuple[float, ...]
    per_axis: int


def _steps(model, pts: np.ndarray, step: float) -> np.ndarray:
    """(..., n) points -> (..., dim, 2, n): each point moved by +step and
    -step along every axis of its tangent frame, in one geo_exp call."""
    dim = model.dimension
    n = pts.shape[-1]
    frames = model.tangent_frames(pts.reshape(-1, n)).reshape(*pts.shape[:-1], dim, n)
    return model.geo_exp(pts[..., None, None, :],
                         np.array([step, -step])[:, None] * frames[..., None, :])


def _lift_jet(model, func, pts: np.ndarray, s: int,
              step: float) -> list[np.ndarray]:
    """Values and directional FD derivatives up to order s along a frame.

    func runs once, on the points and their whole stencil, and the jets are
    the values, (k, m); the central differences of the +-step points, (k,
    dim, m); and at order 2 the second differences, (k, dim (dim + 1) / 2, m)
    with the pairs i <= j in row-major order.  A mixed pair (i, j) moves
    each +-step point along axis i by +-step along axis j of its own frame.
    """
    pts = np.asarray(pts, dtype=float)
    k, n = pts.shape
    dim = model.dimension
    mixed = [(i, j) for i in range(dim) for j in range(i + 1, dim)] if s >= 2 else []
    stencil = [pts]
    if s >= 1:
        moved = _steps(model, pts, step)            # (k, dim, 2, n)
        stencil.append(moved.reshape(-1, n))
    if mixed:
        twice = _steps(model, moved, step)          # (k, dim, 2, dim, 2, n)
        stencil.append(np.stack([twice[:, i, :, j] for i, j in mixed], axis=1)
                       .reshape(-1, n))
    out = np.asarray(func(np.concatenate(stencil)), dtype=float)
    vals = out[:k]
    jets = [vals]
    if s == 0:
        return jets
    pm = out[k:k * (1 + 2 * dim)].reshape(k, dim, 2, -1)
    jets.append((pm[:, :, 0] - pm[:, :, 1]) / (2 * step))
    if s >= 2:
        if mixed:
            corners = out[k * (1 + 2 * dim):].reshape(k, len(mixed), 4, -1)
        rows = []
        for i in range(dim):
            for j in range(i, dim):
                if i == j:
                    rows.append((pm[:, i, 0] - 2 * vals + pm[:, i, 1]) / step ** 2)
                else:
                    c = corners[:, mixed.index((i, j))]
                    rows.append((c[:, 0] - c[:, 1] - c[:, 2] + c[:, 3])
                                / (4 * step ** 2))
        jets.append(np.stack(rows, axis=1))
    return jets


def cs_distance(f: OrbifoldMapData, g: OrbifoldMapData, s: int = 0,
                per_axis: int = 5) -> MapDistanceReport:
    """Chartwise lift distance up to order s in {0, 1, 2}.

    Per chart: minimum over target group elements of the sup over the chart
    grid of lift and FD-derivative differences; the report takes the max over
    charts.  Orders above 2 are rejected: finite differences there cannot
    support the library's tolerances in double precision.

    The jets of each (funcs, charts) pair are built once per call and read by
    both one-sided passes, so a lift runs once per grid kind when f and g
    share their chart objects; a g whose lifts sit on other chart objects
    (found by ``lift_at``'s centre match) has its jets built on each side's
    charts.
    """
    if s not in (0, 1, 2):
        raise ValueError("s must be 0, 1, or 2")
    if s > min(f.degree, g.degree):
        raise ValueError(f"s={s} exceeds the claimed differentiability order")
    if f.source is not g.source or f.target is not g.target:
        raise ChartMismatch("maps must share source and target")
    tgt = f.target.group
    model = f.source.model

    built: dict[tuple, list[np.ndarray]] = {}

    def jets(funcs: list[Callable], charts: list[DerivedChart]) -> list[np.ndarray]:
        """Its func's values on each chart grid and, at s > 0, its FD
        derivatives on the coarser per_axis=3 grids that bound their cost,
        stacked in chart order; one _lift_jet per distinct func and grid
        kind, on the first request for these funcs and charts."""
        key = (tuple(map(id, funcs)), tuple(map(id, charts)))
        if key not in built:
            out = _by_func(funcs, charts, per_axis, lambda func, pts:
                           _lift_jet(model, func, pts, 0, FD_STEP))
            if s:
                out += _by_func(funcs, charts, 3, lambda func, pts:
                                _lift_jet(model, func, pts, s, FD_STEP)[1:])
            built[key] = out
        return built[key]

    def one_sided(a: OrbifoldMapData, b: OrbifoldMapData) -> list[float]:
        charts = [ea.chart for ea in a.lifts]
        ja = jets([ea.func for ea in a.lifts], charts)
        jb = jets([b.lift_at(ch).func for ch in charts], charts)
        # worst[m, c]: the sup over chart c of |a - T_m b|, Euclidean over
        # vector components
        worst = np.zeros((tgt.order, len(charts)))
        for ka, kb, grid in zip(ja, jb, (per_axis, 3, 3)):
            rows = kb.reshape(-1, kb.shape[-1])
            gaps = np.linalg.norm(ka.reshape(rows.shape)
                                  - row_apply(tgt.matrices[:, None], rows), axis=-1)
            np.maximum.at(worst.T, _grid_charts(charts, grid),
                          gaps.reshape(tgt.order, len(kb), -1).max(axis=2).T)
        return worst.min(axis=0).tolist()

    fw = one_sided(f, g)
    bw = one_sided(g, f)
    per_chart = tuple(max(x, y) for x, y in zip(fw, bw))
    value = max(per_chart) if per_chart else 0.0
    return MapDistanceReport(s, value, per_chart, per_axis)


# -- lifts of the identity ----------------------------------------------------------

@dataclass(frozen=True)
class OverlapEdge:
    """Charts i and j overlap through deck element eta (a global label)."""

    i: int
    j: int
    eta: int
    singular_points: np.ndarray     # (k, n) overlap points with isotropy


def overlap_graph(orbifold: GoodOrbifold,
                  atlas: Sequence[DerivedChart]) -> tuple[OverlapEdge, ...]:
    """All chart overlaps with their realizing deck elements.

    Each edge carries the singular points of the overlap region; those are
    where identity-lift germs are actually constrained.
    """
    grp = orbifold.group
    singular = orbifold.singular_points(48)
    trans = translates(grp, singular)
    # inside[c][s, mu]: the translate mu . s of singular point s lies in chart c
    inside = np.moveaxis(chart_hits(orbifold, atlas, singular), 2, 0).copy()
    centres, radii = stacked_charts(orbifold, atlas)
    gaps = orbifold.translate_distances(centres, centres, lambda d, cols: d)
    near = gaps < (radii[:, None] + radii)[..., None]
    near[np.tril_indices(len(atlas))] = False     # each pair once, i < j
    edges = []
    for i, j, lab in np.argwhere(near):
        # eta . (mu . s) is the translate (eta mu) . s
        hit = inside[i] & inside[j][:, grp.cayley[lab]]
        edges.append(OverlapEdge(int(i), int(j), int(lab), trans[hit]))
    return tuple(edges)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """(k, m) integer rows -> (k,) keys that compare, sort and search as rows."""
    rows = np.ascontiguousarray(rows, dtype=int)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))[:, 0]


@dataclass(frozen=True)
class IdentityLiftGroup:
    """All lifts of the identity over a fixed atlas, as a finite group.

    Elements are assignment tuples of local isotropy labels, one per chart,
    in lexicographic order; composition and inverse act chartwise through
    the isotropy Cayley tables.
    """

    orbifold: GoodOrbifold
    atlas: tuple[DerivedChart, ...]
    assignments: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.assignments)

    def _germs(self) -> list[tuple[FiniteActionGroup, np.ndarray]]:
        """(isotropy, label column) of each chart of nontrivial isotropy."""
        rows = np.array(self.assignments, dtype=int).reshape(-1, len(self.atlas))
        return [(ch.isotropy, rows[:, k]) for k, ch in enumerate(self.atlas)
                if ch.isotropy.order > 1]

    def inverse(self, a: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(ch.isotropy.inverse(x) for ch, x in zip(self.atlas, a))

    def contains(self, a: tuple[int, ...]) -> bool:
        return tuple(a) in set(self.assignments)

    def element_order(self, a: tuple[int, ...]) -> int:
        return math.lcm(*(ch.isotropy.element_order(x)
                          for ch, x in zip(self.atlas, a)))

    @property
    def exponent(self) -> int:
        orders = [grp.element_orders[col] for grp, col in self._germs()]
        return int(np.lcm.reduce(np.concatenate([[1], *orders])))

    @property
    def is_abelian(self) -> bool:
        used = [(grp.cayley, col[distinct_rows(col[:, None])[0]])
                for grp, col in self._germs()]
        subs = [cay[np.ix_(u, u)] for cay, u in used]
        return all(np.array_equal(sub, sub.T) for sub in subs)

    def is_group(self) -> bool:
        """Whether every chartwise product and inverse is an assignment."""
        germs = self._germs()
        if not germs:
            return True     # the only possible assignment is all identities
        found = _row_keys(np.stack([
            np.concatenate([grp.cayley[col[:, None], col].ravel(), grp.inverses[col]])
            for grp, col in germs], axis=1))
        members = np.sort(_row_keys(np.stack([col for _, col in germs], axis=1)))
        at = np.searchsorted(members, found).clip(max=len(members) - 1)
        return bool((members[at] == found).all())

    def to_map(self, assignment: tuple[int, ...]) -> OrbifoldMapData:
        return identity_map(self.orbifold, self.atlas, assignment,
                            name=f"id_lift{assignment}")

    def assignment_from_map(self, f: OrbifoldMapData) -> tuple[int, ...] | None:
        """Recover the assignment tuple of a map that covers the identity."""
        out = []
        for ch in self.atlas:
            pts = ch.sample_points(per_axis=4)
            vals = np.asarray(f.lift_at(ch).func(pts), dtype=float)
            hits = np.abs(translates(ch.isotropy, pts)
                          - vals[:, None]).max(axis=(0, 2)) <= 1e-8
            if not hits.any():
                return None
            out.append(int(hits.argmax()))
        return tuple(out)


def enumerate_identity_lifts(orbifold: GoodOrbifold,
                             atlas: Sequence[DerivedChart] | None = None,
                             edges: Sequence[OverlapEdge] | None = None,
                             coverage_resolution: int = 16) -> IdentityLiftGroup:
    """Enumerate identity lifts as overlap-consistent isotropy assignments.

    Consistency on an overlap (i, j, eta): at every singular point of the
    overlap region the transported assignments must be conjugate within that
    point's stabilizer.  Regular overlap points impose nothing (their germ
    data is absorbed by chart injections), which is what makes the two
    singular charts of a football independent.  The assignments grow chart
    by chart, filtered by each overlap once both its charts are placed.
    """
    charts = tuple(atlas) if atlas is not None else build_atlas(orbifold)
    _require_covering(orbifold, charts, coverage_resolution)
    if edges is None:
        edges = overlap_graph(orbifold, charts)
    grp = orbifold.group
    conj = grp.conjugations

    # allowed[(i, j)][a, b]: germs a on chart i and b on chart j agree
    allowed: dict[tuple[int, int], np.ndarray] = {}
    for edge in edges:
        key = (edge.i, edge.j)
        gi, gj = (list(charts[k].isotropy.parent_labels) for k in key)
        fixing = fixing_mask(grp, edge.singular_points)
        # the constraint depends on a point only through its stabilizer S:
        # eta g_a eta^-1 must be s g_b s^-1 for some s in S
        for row in fixing[distinct_rows(fixing)[0]]:
            if row.sum() <= 1:
                continue
            reach = np.zeros((grp.order, len(gj)), dtype=bool)
            reach[conj[np.ix_(np.flatnonzero(row), gj)], np.arange(len(gj))] = True
            allowed[key] = allowed.get(key, True) & reach[conj[edge.eta, gi]]
    rows = np.zeros((1, 0), dtype=int)
    for k, ch in enumerate(charts):
        m = ch.isotropy.order
        rows = np.column_stack([np.repeat(rows, m, axis=0),
                                np.tile(np.arange(m), len(rows))])
        for (i, j), pairs in allowed.items():
            if max(i, j) == k:
                rows = rows[pairs[rows[:, i], rows[:, j]]]
    group = IdentityLiftGroup(orbifold, charts, tuple(map(tuple, rows.tolist())))
    if not group.is_group():
        raise EquivarianceViolation(
            "consistent assignments failed to close under composition")
    return group


def _require_covering(orbifold: GoodOrbifold, charts: Sequence[DerivedChart],
                      resolution: int):
    grid = orbifold.model.verification_grid(resolution)
    covered = chart_hits(orbifold, charts, grid, 1.0 + 1e-9).any(axis=(1, 2))
    if not covered.all():
        raise AtlasNotCovering(
            f"atlas leaves {np.round(grid[np.argmin(covered)], 4)} uncovered at "
            f"resolution {resolution}")


def count_theta_choices(group: FiniteActionGroup) -> int:
    """Number of distinct identity-map homomorphism choices, |G|/|Z(G)|."""
    return len(inner_automorphisms(group))


# -- equivariant polynomial approximation -------------------------------------------

@dataclass(frozen=True)
class VectorPolynomial:
    """Vector-valued polynomial: sum_a coeffs[a] * prod_i z_i^exps[a][i]."""

    exps: tuple[tuple[int, ...], ...]
    coeffs: np.ndarray                  # (terms, out_dim)

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        return len(self.exps[0])

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """(k, n) rows -> (k, m) values; each row's bits are those of a
        one-row call."""
        z = np.asarray(z, dtype=float)
        mono = np.stack([np.prod(z ** np.asarray(e), axis=1)
                         for e in self.exps], axis=1)
        return row_apply(self.coeffs.T, mono)

    def compose_linear(self, a: np.ndarray) -> "VectorPolynomial":
        """Coefficients of p(A z), exactly, on the same monomial basis."""
        index = {e: k for k, e in enumerate(self.exps)}
        n = self.dim
        new = np.zeros_like(self.coeffs)
        rows = [tuple(int(v) for v in np.eye(n, dtype=int)[i]) for i in range(n)]
        for k, e in enumerate(self.exps):
            # expand prod_i (sum_j a_ij z_j)^(e_i) by repeated convolution
            acc = {tuple([0] * n): 1.0}
            for i, power in enumerate(e):
                lin = {rows[j]: a[i, j] for j in range(n) if a[i, j] != 0.0}
                for _ in range(power):
                    nxt: dict[tuple[int, ...], float] = {}
                    for e1, c1 in acc.items():
                        for e2, c2 in lin.items():
                            key = tuple(x + y for x, y in zip(e1, e2))
                            nxt[key] = nxt.get(key, 0.0) + c1 * c2
                    acc = nxt
            for mono, w in acc.items():
                new[index[mono]] += w * self.coeffs[k]
        return VectorPolynomial(self.exps, new)

    def transform_values(self, m: np.ndarray) -> "VectorPolynomial":
        return VectorPolynomial(self.exps, self.coeffs @ np.asarray(m).T)

    def add(self, other: "VectorPolynomial") -> "VectorPolynomial":
        return VectorPolynomial(self.exps, self.coeffs + other.coeffs)

    def scale(self, t: float) -> "VectorPolynomial":
        return VectorPolynomial(self.exps, self.coeffs * t)


def monomial_exponents(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    out = [e for e in itertools.product(range(degree + 1), repeat=dim)
           if sum(e) <= degree]
    out.sort(key=lambda e: (sum(e), e))
    return tuple(out)


def average_polynomial(poly: VectorPolynomial,
                       pairs: Sequence[tuple[np.ndarray, np.ndarray]]
                       ) -> VectorPolynomial:
    """Group average (1/|G|) sum_g theta(g) . p(g^-1 z) on coefficients.

    ``pairs`` holds (g_matrix, theta_matrix) per element.  The output
    satisfies theta(g) p(z) = p(g z) exactly at the coefficient level.
    """
    acc = None
    for gmat, tmat in pairs:
        ginv = np.asarray(gmat, dtype=float).T  # orthogonal inverse
        term = poly.compose_linear(ginv).transform_values(tmat)
        acc = term if acc is None else acc.add(term)
    return acc.scale(1.0 / len(pairs))
