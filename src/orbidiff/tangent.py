"""Tangent orbibundle fibers, orbisections, and curves.

Orbisections are stored as one globally equivariant vector field on the
model; chart lifts are restrictions, which keeps them consistent on every
overlap by construction.  Tangent data on the sphere lives in the ambient
embedding with tangency enforced by projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NotDifferentiable
from .groups import (EPS_GRP, FD_STEP, FiniteActionGroup, _snap_key,
                     fixed_subspace, row_apply, stabilizer, translates)
from .maps import _lift_jet
from .model import DerivedChart, GoodOrbifold, atlas_grid, stacked_charts

CURVE_FD_STEP = 1e-4       # one-sided differencing step for lift classification
CURVE_FD_TOL = 1e-6        # derivative agreement tolerance
MAX_CURVE_ORDER = 2        # FD above order 2 cannot hold the tolerance


def admissible_space(orbifold: GoodOrbifold, row: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the admissible vectors at a model row,
    projected onto the model; ValueError when it is not in the model.

    This is the fixed subspace of the isotropy action, intersected with the
    tangent plane on sphere models; it is exactly where orbisections can
    take values.
    """
    x = orbifold.model.project_checked(np.asarray(row, dtype=float)[None])[0]
    return orbifold.model.tangent_subspace(
        x, fixed_subspace(stabilizer(orbifold.group, x)))


def project_equivariant(group: FiniteActionGroup, field: Callable,
                        model=None) -> Callable[[np.ndarray], np.ndarray]:
    """Group-average a raw vector field into an equivariant one.

    s_bar(y) = (1/|G|) sum_g g^-1 s(g y); idempotent on equivariant input.
    With a model the input is first reduced to its tangent part, which the
    averaging preserves.  Both fields map (k, n) rows to (k, n)
    rows; the raw field gets the k |G| translates in one call.
    """
    def averaged(pts: np.ndarray) -> np.ndarray:
        trans = translates(group, pts)
        k, order, n = trans.shape
        vals = np.asarray(field(trans.reshape(-1, n)), dtype=float).reshape(k, order, n)
        if model is not None:
            vals = model.tangent_part(trans, vals)
        terms = row_apply(np.swapaxes(group.matrices, 1, 2), vals)
        acc = terms[:, 0]
        for lab in range(1, order):
            acc = acc + terms[:, lab]
        return acc / order

    return averaged


class Orbisection:
    """Section of the tangent orbibundle over a good orbifold.

    ``field`` maps (k, n) model points to their (k, n) values.
    """

    def __init__(self, orbifold: GoodOrbifold, atlas: Sequence[DerivedChart],
                 field: Callable[[np.ndarray], np.ndarray], name: str = ""):
        self.orbifold = orbifold
        self.atlas = tuple(atlas)
        self.field = field
        self.name = name
        self._grid_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def values(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.field(np.asarray(pts, dtype=float)), dtype=float)

    def grid_values(self, per_axis: int = 5) -> tuple[np.ndarray, np.ndarray]:
        """The chart grids of the atlas stacked in chart order, (k, n), and
        the field on them, (k, n), from one call; kept per per_axis."""
        if per_axis not in self._grid_cache:
            pts = atlas_grid(self.atlas, per_axis)
            self._grid_cache[per_axis] = (pts, self.values(pts))
        return self._grid_cache[per_axis]

    def equivariance_residual(self, per_axis: int = 5) -> float:
        """max |s(g y) - g s(y)| over charts, group elements, and samples."""
        grp = self.orbifold.group
        pts, vals = self.grid_values(per_axis)
        trans = translates(grp, pts)
        moved = self.values(trans.reshape(-1, trans.shape[2])).reshape(trans.shape)
        return float(np.abs(moved - translates(grp, vals)).max(initial=0.0))

    def center_fixed_residual(self) -> float:
        """Distance of each chart-center value from its fixed subspace."""
        orders = [chart.isotropy.order for chart in self.atlas]
        vals = np.repeat(self.values(stacked_charts(self.orbifold, self.atlas)[0]),
                         orders, axis=0)
        mats = np.concatenate([chart.isotropy.matrices for chart in self.atlas])
        return float(np.abs(row_apply(mats, vals) - vals).max(initial=0.0))

    def __add__(self, other: "Orbisection") -> "Orbisection":
        return linear_combination(self, other, 1.0, 1.0)

    def __sub__(self, other: "Orbisection") -> "Orbisection":
        return linear_combination(self, other, 1.0, -1.0)

    def __rmul__(self, t: float) -> "Orbisection":
        return scale(self, float(t))

    def __repr__(self) -> str:
        return f"Orbisection({self.name or 'section'} on {self.orbifold.name})"


def zero_orbisection(orbifold: GoodOrbifold,
                     atlas: Sequence[DerivedChart]) -> Orbisection:
    dim = orbifold.model.ambient_dim
    return Orbisection(orbifold, atlas, lambda pts: np.zeros((len(pts), dim)),
                       name="zero")


def linear_combination(sigma: Orbisection, tau: Orbisection,
                       a: float, b: float) -> Orbisection:
    """Pointwise a*sigma + b*tau; equivariance is preserved."""
    if sigma.orbifold is not tau.orbifold:
        raise ValueError("sections live on different orbifolds")
    return Orbisection(
        sigma.orbifold, sigma.atlas,
        lambda pts, f=sigma.field, g=tau.field, a=a, b=b:
            a * np.asarray(f(pts), dtype=float) + b * np.asarray(g(pts), dtype=float),
        name=f"{a}*{sigma.name}+{b}*{tau.name}")


def scale(sigma: Orbisection, t: float) -> Orbisection:
    return Orbisection(sigma.orbifold, sigma.atlas,
                       lambda pts, f=sigma.field: t * np.asarray(f(pts), dtype=float),
                       name=f"{t}*{sigma.name}")


def seminorm(sigma: Orbisection, order: int = 0, per_axis: int = 5) -> float:
    """Sup of |s| and, at order 1, of FD first derivatives (step FD_STEP)
    over the chart grids of the atlas, each order evaluated on all the grids
    at once."""
    if order not in (0, 1):
        raise ValueError("seminorm order must be 0 or 1")
    worst = float(np.abs(sigma.grid_values(per_axis)[1]).max(initial=0.0))
    if order >= 1:
        jets = _lift_jet(sigma.orbifold.model, sigma.field,
                         atlas_grid(sigma.atlas, 3), 1, FD_STEP)
        worst = max(worst, float(np.abs(jets[1]).max(initial=0.0)))
    return worst


def random_orbisection(orbifold: GoodOrbifold, atlas: Sequence[DerivedChart],
                       rng: np.random.Generator, c1_bound: float = 0.05,
                       name: str = "") -> Orbisection:
    """Seeded random orbisection with C^1 seminorm strictly below the bound.

    A random low-order polynomial field is projected to the tangent plane
    (sphere models), group-averaged, then rescaled; a field the averaging
    cancels comes back unscaled, with C^1 size at rounding level.
    """
    dim = orbifold.model.ambient_dim
    coeff = rng.normal(size=(dim, 1 + dim + dim * dim))

    def raw(pts: np.ndarray) -> np.ndarray:
        feats = np.hstack([np.ones((len(pts), 1)), pts,
                           (pts[:, :, None] * pts[:, None, :]).reshape(len(pts), -1)])
        return row_apply(coeff, feats)

    field = project_equivariant(orbifold.group, raw, model=orbifold.model)
    section = Orbisection(orbifold, atlas, field, name=name or "random")
    size = seminorm(section, order=1)
    # the averaging can cancel the raw field exactly (S^2/O_h); the size left
    # is then rounding noise of the raw field's scale, blown up by the finite
    # difference step, and is not rescaled
    if size < 1e-9 * float(np.abs(coeff).sum()):
        return section
    target = c1_bound * rng.uniform(0.4, 0.9)
    return scale(section, target / size)


# -- curves ---------------------------------------------------------------------

@dataclass(frozen=True)
class CurveSegment:
    """One smooth piece of a curve, lifted to the model."""

    t0: float
    t1: float
    lift: Callable[[float], np.ndarray]

    def __call__(self, t: float) -> np.ndarray:
        return np.asarray(self.lift(float(t)), dtype=float)


class CurveInOrbifold:
    """Piecewise-lifted curve with declared singular crossing times."""

    def __init__(self, orbifold: GoodOrbifold, segments: Sequence[CurveSegment]):
        self.orbifold = orbifold
        self.segments = tuple(segments)
        if not self.segments:
            raise ValueError("a curve needs at least one segment")
        for a, b in zip(self.segments, self.segments[1:]):
            if abs(a.t1 - b.t0) > 1e-12:
                raise ValueError("segments must abut")
            gap = float(np.abs(a(a.t1) - b(b.t0)).max())
            if gap > EPS_GRP:
                raise ValueError(
                    f"segment lifts disagree at t={a.t1}: gap {gap:.3e}; "
                    "normalize the right lift by a deck element first")

    @property
    def crossings(self) -> tuple[float, ...]:
        return tuple(a.t1 for a in self.segments[:-1])

    @property
    def t_range(self) -> tuple[float, float]:
        return self.segments[0].t0, self.segments[-1].t1

    def segment_at(self, t: float, side: int = 0) -> CurveSegment:
        """Segment containing t; side < 0 prefers the left one at a boundary."""
        for k, seg in enumerate(self.segments):
            if seg.t0 <= t < seg.t1 or (k == len(self.segments) - 1 and t <= seg.t1):
                if side < 0 and k > 0 and abs(t - seg.t0) < 1e-12:
                    return self.segments[k - 1]
                return seg
        raise ValueError(f"t={t} outside the curve interval")


@dataclass(frozen=True)
class CurveLift:
    """One concatenated lift with its smoothness class at the crossing."""

    gamma_left: int               # local label in the crossing stabilizer
    gamma_right: int
    smooth_order: int             # largest j <= k with C^j agreement
    lift: Callable[[float], np.ndarray]


def _one_sided_d1(f: Callable[[float], np.ndarray], t0: float, h: float) -> np.ndarray:
    c = [-25.0, 48.0, -36.0, 16.0, -3.0]
    return sum(ci * np.asarray(f(t0 + k * h), dtype=float)
               for k, ci in enumerate(c)) / (12.0 * h)


def _one_sided_d2(f: Callable[[float], np.ndarray], t0: float, h: float) -> np.ndarray:
    c = [2.0, -5.0, 4.0, -1.0]
    return sum(ci * np.asarray(f(t0 + k * h), dtype=float)
               for k, ci in enumerate(c)) / (h * h)


def enumerate_curve_lifts(curve: CurveInOrbifold, t0: float,
                          k: int = 2) -> list[CurveLift]:
    """All concatenations g_l . left | g_r . right at a crossing time.

    Concatenations run over the crossing point's isotropy, deduplicated as
    curves, and each is classified by one-sided FD derivatives up to order
    min(k, 2) with step 1e-4 and tolerance 1e-6.
    """
    if k > MAX_CURVE_ORDER:
        raise ValueError(f"classification supports orders up to {MAX_CURVE_ORDER}")
    left = curve.segment_at(t0, side=-1)
    right = curve.segment_at(t0, side=+1)
    if left is right:
        raise ValueError(f"t={t0} is not a crossing time")
    x = left(t0)
    stab = stabilizer(curve.orbifold.group, x)
    h = CURVE_FD_STEP

    probe_ts = np.linspace(left.t0, t0, 5)[:-1]
    probe_rs = np.linspace(t0, right.t1, 5)[1:]
    seen: set[tuple] = set()
    out: list[CurveLift] = []
    for a in range(stab.order):
        ga = stab.matrix(a)
        for b in range(stab.order):
            gb = stab.matrix(b)
            sig = (tuple(_snap_key(ga @ left(t)) for t in probe_ts)
                   + tuple(_snap_key(gb @ right(t)) for t in probe_rs))
            if sig in seen:
                continue
            seen.add(sig)

            def lifted(t: float, ga=ga, gb=gb) -> np.ndarray:
                seg = left if t <= t0 else right
                g = ga if t <= t0 else gb
                return g @ seg(t)

            order = 0
            dl1 = ga @ _one_sided_d1(left, t0, -h)
            dr1 = gb @ _one_sided_d1(right, t0, h)
            if float(np.abs(dl1 - dr1).max()) < CURVE_FD_TOL:
                order = 1
                if k >= 2:
                    dl2 = ga @ _one_sided_d2(left, t0, -h)
                    dr2 = gb @ _one_sided_d2(right, t0, h)
                    if float(np.abs(dl2 - dr2).max()) < CURVE_FD_TOL:
                        order = 2
            out.append(CurveLift(a, b, order, lifted))
    return out


def curve_tangent(curve: CurveInOrbifold, t: float) -> np.ndarray:
    """Tangent vector of a curve at time t, as a row at the lift point
    projected onto the model; tangent-projected on sphere models.

    At regular times this is the lift derivative.  At an interior singular
    crossing a tangent is assigned only when some C^1 concatenation has a
    derivative fixed by the whole crossing isotropy; otherwise
    NotDifferentiable is raised.  At interval endpoints the one-sided
    derivative is returned.
    """
    orbifold = curve.orbifold
    base = orbifold.model.project_checked(curve.segment_at(t)(t)[None])[0]

    def tangent(v: np.ndarray) -> np.ndarray:
        return orbifold.model.tangent_part(base, v)

    lo, hi = curve.t_range
    h = CURVE_FD_STEP
    if abs(t - lo) < 1e-12:
        return tangent(_one_sided_d1(curve.segment_at(t), t, h))
    if abs(t - hi) < 1e-12:
        return tangent(_one_sided_d1(curve.segment_at(t), t, -h))
    if t not in curve.crossings:
        seg = curve.segment_at(t)
        return tangent((seg(t + h) - seg(t - h)) / (2.0 * h))

    x = curve.segment_at(t, side=-1)(t)
    stab = stabilizer(orbifold.group, x)
    fixed: list[np.ndarray] = []
    for lift in enumerate_curve_lifts(curve, t, k=1):
        if lift.smooth_order < 1:
            continue
        d = stab.matrix(lift.gamma_right) @ _one_sided_d1(
            curve.segment_at(t, side=+1), t, h)
        moved = np.abs(stab.matrices @ d - d).max()
        if float(moved) < CURVE_FD_TOL:
            fixed.append(d)
    if not fixed:
        raise NotDifferentiable(
            f"no C^1 concatenation at t={t} has an isotropy-fixed derivative; "
            "the lift derivatives form a non-trivial orbit")
    rep = fixed[0]
    for other in fixed[1:]:
        if float(np.linalg.norm(stab.matrices @ rep - other, axis=1).min()) > \
                CURVE_FD_TOL:
            raise NotDifferentiable("C^1 concatenations disagree beyond tolerance")
    return tangent(rep)
