"""Good orbifolds as global quotients of flat balls and round spheres.

Everything downstream works on one model manifold M (a flat ball or a round
sphere in ambient coordinates) carrying a finite orthogonal action.  Charts,
strata, isotropy, and the quotient metric are all derived from that pair.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (AtlasNotCovering, EquivarianceViolation, RadiusTooLarge,
                     UnsupportedModel)
from . import groups
from .groups import (EPS_GRP, FiniteActionGroup, GroupHom, _snap,
                     canonical_representatives, cyclic_rotation_group,
                     dihedral_group, distinct_rows, fixing_mask,
                     football_rotation_group, generate_group,
                     group_from_elements, orbit, row_apply, row_dot,
                     sign_flip_group, stabilizer, translates, trivial_group)

FLAT = "flat"
SPHERE = "sphere"

CHART_RADIUS_FACTOR = 0.4     # default chart radius as a fraction of separation
FLAT_DOMAIN_FACTOR = 0.75     # closed sub-ball used for covering-style checks
COVERAGE_RESOLUTION = 16      # canonical grid for atlas covering checks


@dataclass(frozen=True)
class ModelSpace:
    """Flat ball of a given radius, or the unit round sphere S^2; the one
    place that tells the geometries apart.

    ``dimension`` is the manifold dimension; sphere points live in
    ``dimension + 1`` ambient coordinates.  A refusal names its field first.
    """

    kind: str
    dimension: int
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in (FLAT, SPHERE):
            raise UnsupportedModel(f"model: unknown model {self.kind!r} "
                                   f"(expected flat or sphere)")
        if self.dimension < 1:
            raise UnsupportedModel("dimension: must be positive")
        if self.kind == SPHERE and self.dimension != 2:
            raise UnsupportedModel("dimension: sphere models support dimension 2")
        if self.kind == SPHERE and self.radius != 1.0:
            raise UnsupportedModel(
                f"radius: sphere models have radius 1, got {self.radius}")
        # distances square differences of up to the diameter
        if not (self.radius > 0 and math.isfinite(4.0 * self.radius * self.radius)):
            raise UnsupportedModel(
                f"radius: must be positive with a finite squared diameter, "
                f"got {self.radius}")

    @property
    def ambient_dim(self) -> int:
        return self.dimension + 1 if self.kind == SPHERE else self.dimension

    def contains(self, point: np.ndarray) -> np.ndarray:
        """(..., n) -> (...) mask of the rows in the model, up to a slack of
        1e-9; a row of another width is outside."""
        p = np.asarray(point, dtype=float)
        if p.ndim == 0 or p.shape[-1] != self.ambient_dim:
            return np.zeros(p.shape[:-1], dtype=bool)
        norm = np.sqrt(row_dot(p, p))
        if self.kind == FLAT:
            return norm < self.radius * (1.0 + 1e-9)
        return np.abs(norm - 1.0) < 1e-12 + 1e-9

    def project(self, point: np.ndarray) -> np.ndarray:
        """Nearest model point of each (..., n) row on the sphere; rows as
        given on a flat model."""
        p = np.asarray(point, dtype=float)
        if self.kind == SPHERE:
            return p / np.sqrt(row_dot(p, p))[..., None]
        return p

    def project_checked(self, rows: np.ndarray) -> np.ndarray:
        """(k, n) rows projected onto the model; ValueError naming the first
        projected row that is not in it."""
        reps = self.project(np.asarray(rows, dtype=float))
        inside = self.contains(reps)
        if not inside.all():
            raise ValueError(
                f"point {reps[np.argmin(inside)]} is not in the model space")
        return reps

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(self.row_distances(a, b))

    def row_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(..., n), (..., n) -> (...), broadcasting: distance from each row
        of a to the matching row of b.

        This is the library's one distance kernel.  Each entry is the same
        bits whatever rows share the call: the sums of squares (the
        expression ``np.linalg.norm`` runs along an axis, written out on one
        array of differences squared in place) add each row's squares on
        their own, and ``row_dot`` takes each sign as ``np.dot``.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        d = a - b
        if self.kind == FLAT:
            d *= d
            return np.sqrt(np.add.reduce(d, axis=-1))
        # chord-based great-circle distance: full precision at both ends,
        # unlike arccos of the dot product which loses ~1e-8 near zero; the
        # chord is a + b where the rows are more than a right angle apart
        near = row_dot(a, b) >= 0.0
        np.add(a, b, out=d, where=~near[..., None])
        d *= d
        chord = np.sqrt(np.add.reduce(d, axis=-1))
        angle = 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
        return np.where(near, angle, np.pi - angle)

    def distances(self, pts: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Distances from each row of pts to q."""
        return self.row_distances(np.atleast_2d(pts), q)

    def verification_domain(self, pts: np.ndarray) -> np.ndarray:
        """Rows of pts on the whole sphere, or in the closed 0.75R sub-ball."""
        pts = np.asarray(pts, dtype=float)
        if self.kind == SPHERE:
            return pts
        return pts[np.linalg.norm(pts, axis=1)
                   <= self.radius * FLAT_DOMAIN_FACTOR + 1e-12]

    def verification_grid(self, resolution: int) -> np.ndarray:
        """The grid's rows in the verification domain."""
        return self.verification_domain(self.grid(resolution))

    # -- geodesics (round metric on the sphere, Euclidean on the ball) ------

    @property
    def exp_bound(self) -> float:
        """Tangent length of the cut locus (none on a flat ball)."""
        return np.pi if self.kind == SPHERE else np.inf

    @property
    def injectivity_scale(self) -> float:
        """Largest displacement that E_inverse inverts."""
        return np.pi / 2 if self.kind == SPHERE else 0.5 * self.radius

    def tangent_part(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(..., n) vectors at (..., n) rows -> v - (v.x) x on the sphere."""
        v = np.asarray(v, dtype=float)
        if self.kind == FLAT:
            return v
        return v - row_dot(v, x)[..., None] * x

    def tangent_subspace(self, x: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """Gram-Schmidt of the tangent parts of basis rows at the row x, in
        order, skipping a remainder shorter than 1e-9."""
        if self.kind == FLAT:
            return basis
        out = []
        for r in basis:
            r = self.tangent_part(x, r)
            for o in out:
                r = r - np.dot(r, o) * o
            nr = float(np.linalg.norm(r))
            if nr > 1e-9:
                out.append(r / nr)
        return np.stack(out) if out else np.zeros((0, self.ambient_dim))

    def radial_paths(self, center: np.ndarray, rows: np.ndarray,
                     lengths: np.ndarray, start: float, steps: int) -> np.ndarray:
        """(k, n) rows at (k,) distances from center -> (k, steps, n) points
        on the geodesic through each, from radius start out to the row."""
        direction = self.geo_log(center, rows)
        norm = (lengths if self.kind == FLAT
                else np.sqrt(row_dot(direction, direction)))
        direction = direction / norm[:, None]
        radii = np.linspace(start, lengths, steps, axis=1)
        return self.geo_exp(center, radii[..., None] * direction[:, None])

    def geo_exp(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Geodesic exponential of (..., n) rows; exp(x, 0) == x exactly."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if self.kind == FLAT:
            return x + v
        speed = np.sqrt(row_dot(v, v))[..., None]
        still = speed == 0.0
        speed = np.where(still, 1.0, speed)
        return np.where(still, x, np.cos(speed) * x + np.sin(speed) * v / speed)

    def geo_log(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Inverse of geo_exp(x, .) on (..., n) rows; smallest representative
        on the sphere."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == FLAT:
            return y - x
        dot = np.clip(row_dot(x, y), -1.0, 1.0)[..., None]
        perp = y - dot * x
        norm = np.sqrt(row_dot(perp, perp))[..., None]
        if np.any((dot <= -1.0 + 1e-12) & (norm < 1e-9)):
            raise ValueError("log undefined at antipodal points")
        # below 1e-9 perp is the series tail, relative error O(theta^2);
        # atan2 keeps full precision at both ends, unlike arccos near 0
        tiny = norm < 1e-9
        norm = np.where(tiny, 1.0, norm)
        out = np.where(tiny, perp, np.arctan2(norm, dot) * perp / norm)
        return np.where(np.all(x == y, axis=-1, keepdims=True), 0.0, out)

    def tangent_basis(self, x: np.ndarray) -> np.ndarray:
        """Orthonormal rows spanning the tangent space at x."""
        return self.tangent_frames(np.asarray(x, dtype=float)[None])[0]

    def tangent_frames(self, x: np.ndarray) -> np.ndarray:
        """(k, n) points -> (k, dim, n): orthonormal rows spanning the tangent
        space at each point.

        On the sphere this is Gram-Schmidt of the coordinate axes projected
        to the tangent plane, in axis order, skipping an axis whose remainder
        is shorter than 1e-8; all rows take each step at once, and a row that
        skips an axis or already holds dim vectors keeps its state.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == FLAT:
            return np.repeat(np.eye(self.dimension)[None], len(x), axis=0)
        dim = self.dimension
        frames = np.zeros((len(x), dim, self.ambient_dim))
        filled = np.zeros(len(x), dtype=int)
        for e in np.eye(self.ambient_dim):
            v = e - row_dot(e, x)[:, None] * x
            for j in range(dim):
                b = frames[:, j]
                v = np.where((j < filled)[:, None], v - row_dot(v, b)[:, None] * b, v)
            nv = np.sqrt(row_dot(v, v))
            take = np.flatnonzero((filled < dim) & (nv > 1e-8))
            frames[take, filled[take]] = v[take] / nv[take, None]
            filled[take] += 1
        return frames

    # -- deterministic sample sets -------------------------------------------

    def grid(self, resolution: int) -> np.ndarray:
        """Deterministic sample grid of the model, shape (k, ambient_dim)."""
        if self.kind == FLAT:
            axis = np.linspace(-self.radius, self.radius, resolution) * 0.98
            pts = groups.product_grid(axis, self.dimension)
            keep = np.linalg.norm(pts, axis=1) < self.radius * 0.98 + 1e-12
            return pts[keep]
        thetas = np.linspace(0.0, np.pi, resolution)
        phis = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
        st, ct = np.sin(thetas)[:, None], np.cos(thetas)[:, None]
        rings = np.stack(np.broadcast_arrays(st * np.cos(phis), st * np.sin(phis),
                                             ct), axis=-1)
        # a pole is one row, the first of its ring
        pole = np.abs(st[:, 0]) < 1e-15
        rings[pole, 0] = 0.0
        rings[pole, 0, 2] = np.where(ct[pole, 0] != 0.0, np.sign(ct[pole, 0]), 1.0)
        return rings[~pole[:, None] | (np.arange(resolution) == 0)]

    def grid_spacing(self, resolution: int) -> float:
        if self.kind == FLAT:
            return 2.0 * 0.98 * self.radius / max(resolution - 1, 1)
        return 2.0 * np.pi / resolution

    def ball_grid(self, center: np.ndarray, radius: float,
                  per_axis: int = 5, shrink: float = 0.95) -> np.ndarray:
        """Deterministic samples of the metric ball around center."""
        center = np.asarray(center, dtype=float)
        axis = np.linspace(-1.0, 1.0, per_axis)
        cube = groups.product_grid(axis, self.dimension)
        cube = cube[np.linalg.norm(cube, axis=1) <= 1.0 + 1e-12] * radius * shrink
        if self.kind == FLAT:
            return center + cube
        return self.geo_exp(center, row_apply(self.tangent_basis(center).T, cube))


class GoodOrbifold:
    """A model space together with a finite effective orthogonal action."""

    def __init__(self, model: ModelSpace, group: FiniteActionGroup,
                 name: str = ""):
        if group.dimension != model.ambient_dim:
            raise UnsupportedModel(
                f"group acts on R^{group.dimension} but the model has ambient "
                f"dimension {model.ambient_dim}")
        if (np.abs(group.matrices[1:] - np.eye(group.dimension)).max(axis=(1, 2))
                < EPS_GRP).any():
            raise EquivarianceViolation(
                "action is not effective: a non-identity element acts as the "
                "identity on the model")
        self.model = model
        self.group = group
        self.name = name or f"{model.kind}{model.dimension}/order{group.order}"

    @property
    def dimension(self) -> int:
        return self.model.dimension

    def __repr__(self) -> str:
        return f"GoodOrbifold({self.name})"

    # -- quotient points -----------------------------------------------------

    def canonicals(self, rows: np.ndarray) -> np.ndarray:
        """(k, n) rows -> (k, n) canonical members of their orbits, after
        projecting each row onto the model; ValueError naming the first row
        that is not in it."""
        return canonical_representatives(self.group,
                                         self.model.project_checked(rows))

    def random_row(self, rng: np.random.Generator) -> np.ndarray:
        """A seeded model row: within 0.9R of the centre of a flat ball, or a
        unit vector, which ``model.project`` still rounds onto the sphere."""
        if self.model.kind == FLAT:
            v = rng.normal(size=self.model.dimension)
            return v / np.linalg.norm(v) * self.model.radius * rng.uniform(0, 0.9)
        v = rng.normal(size=self.model.ambient_dim)
        return v / np.linalg.norm(v)

    def translate_distances(self, rows: np.ndarray, targets: np.ndarray,
                            reduce: Callable[[np.ndarray, slice], np.ndarray]
                            ) -> np.ndarray:
        """(k, n) rows, (t, n) targets -> (k, t, ...): the library's one
        kernel of distances from every translate of a row to every target.

        Each tile of rows by targets holds the entries d[i, j, g], the model
        distance from g . rows[i] to targets[j], with the group on the last
        axis; ``reduce(d, cols)`` gets the tile and the slice of targets it
        covers, and acts on the last axis only.  A tile's differences of
        coordinates, its largest temporary, hold about ``groups._BLOCK``
        elements.  An empty side still makes one tile, so the result keeps
        reduce's shape.
        """
        n = self.model.ambient_dim
        rows = np.asarray(rows, dtype=float).reshape(-1, n)
        targets = np.asarray(targets, dtype=float).reshape(-1, 1, n)
        width = min(max(len(targets), 1), groups.block_rows(self.group.order, n))
        step = groups.block_rows(self.group.order, n, width)
        out = None
        for lo in range(0, max(len(rows), 1), step):
            trans = translates(self.group, rows[lo:lo + step])[:, None]
            for co in range(0, max(len(targets), 1), width):
                cols = slice(co, co + width)
                tile = reduce(self.model.row_distances(trans, targets[cols]), cols)
                if out is None:     # reduce decides the trailing shape
                    out = np.empty((len(rows), len(targets), *tile.shape[2:]),
                                   tile.dtype)
                out[lo:lo + step, cols] = tile
        return out

    def quotient_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(N, n), (M, n) canonical rows -> (N, M) nearest-orbit distances.

        Entry (i, j) is the least distance from a translate of a_i to b_j or
        from a translate of b_j to a_i.
        """
        def nearest(d, cols):
            # a min over a short contiguous last axis runs one inner loop
            # per entry; with the labels in front it runs one per label
            return np.moveaxis(d, -1, 0).copy().min(axis=0)
        return np.minimum(self.translate_distances(a, b, nearest),
                          self.translate_distances(b, a, nearest).T)

    def quotient_pair_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(N, n), (N, n) canonical rows -> (N,): entry k is entry (k, k) of
        ``quotient_distances(a, b)``, bit for bit, without the other pairs.
        Blocks of rows keep each block's translates within ``groups._BLOCK``
        elements."""
        n = self.model.ambient_dim
        a = np.asarray(a, dtype=float).reshape(-1, n)
        b = np.asarray(b, dtype=float).reshape(-1, n)
        step = groups.block_rows(self.group.order, n)
        dist = self.model.row_distances
        out = np.empty(len(a))
        for lo in range(0, len(a), step):
            ab, bb = a[lo:lo + step], b[lo:lo + step]
            d_ab = dist(translates(self.group, ab), bb[:, None]).min(axis=1)
            d_ba = dist(translates(self.group, bb), ab[:, None]).min(axis=1)
            out[lo:lo + step] = np.minimum(d_ab, d_ba)
        return out

    # -- singular structure ----------------------------------------------------

    def singular_points(self, resolution: int = 16) -> np.ndarray:
        """Exact singular locations, sampled along every fixed-point set.

        Rows are canonical representatives, deduplicated.  For each
        non-identity element we sample its fixed subspace, whose basis is
        cached in ``group.fixed_bases``, intersected with the model.  Flat:
        the coefficient grid of the fixed subspace, kept inside 0.98R.
        Sphere: a fixed line gives its two unit vectors; a fixed
        k-space (k > 1) gives the rows of its coefficient grid on the boundary
        of the cube [-1, 1]^k, which radial projection maps one to one onto
        the fixed (k-1)-sphere (4(r-1) rows on a mirror circle).
        """
        # every candidate lies in the model: norm below 0.98R, or a unit vector
        model, n = self.model, self.model.ambient_dim
        axis = np.linspace(-1, 1, max(resolution, 3))
        cands = [np.empty((0, n))]
        for basis in self.group.fixed_bases[1:]:
            k = basis.shape[0]
            if model.kind == FLAT:
                cands.append(np.zeros((1, n)))
                if k == 0:
                    continue
                coeffs = groups.product_grid(axis * model.radius * 0.98, k)
                p = row_apply(basis.T, coeffs)
                cands.append(p[np.sqrt(row_dot(p, p)) < model.radius * 0.98])
            elif k == 1:
                cands.append(np.stack([basis[0], -basis[0]]))
            elif k > 1:
                coeffs = groups.product_grid(axis, k)
                coeffs = coeffs[np.abs(coeffs).max(axis=1) == 1.0]
                cands.append(model.project(row_apply(basis.T, coeffs)))
        pts = np.concatenate(cands)
        reps = canonical_representatives(
            self.group, pts[fixing_mask(self.group, pts).sum(axis=1) > 1])
        return reps[_first_by_key(reps)[0]]


@dataclass(frozen=True)
class DerivedChart:
    """Metric ball chart around a model point, with its isotropy subgroup.

    The sample grids and the isotropy's inclusion into the group are built
    on first use and kept on the chart.
    """

    orbifold: GoodOrbifold
    center: np.ndarray
    radius: float
    isotropy: FiniteActionGroup   # subgroup of the global group, parent labels kept
    _grids: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "center", c)

    def sample_points(self, per_axis: int = 5, shrink: float = 0.95) -> np.ndarray:
        """The chart's ball grid, built on the first call for each
        (per_axis, shrink) and returned read-only from then on."""
        key = (per_axis, shrink)
        if key not in self._grids:
            pts = self.orbifold.model.ball_grid(self.center, self.radius,
                                                per_axis=per_axis, shrink=shrink)
            pts.setflags(write=False)
            self._grids[key] = pts
        return self._grids[key]

    @functools.cached_property
    def inclusion(self) -> GroupHom:
        """The inclusion of the isotropy into the orbifold's group, built and
        validated once."""
        return GroupHom.inclusion(self.isotropy, self.orbifold.group)

    def __repr__(self) -> str:
        return (f"DerivedChart(center={np.round(self.center, 4)}, "
                f"radius={self.radius:.4f}, isotropy={self.isotropy.order})")


def atlas_grid(atlas: Sequence[DerivedChart], per_axis: int = 5) -> np.ndarray:
    """The charts' sample grids stacked in atlas order, shape (k, n)."""
    return np.concatenate([ch.sample_points(per_axis=per_axis) for ch in atlas])


def _first_by_key(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first row with each snapped key, in order, and the
    lexicographic rank of that row's key among the distinct keys."""
    first, _ = distinct_rows(_snap(pts))
    ranks = np.argsort(first)
    return first[ranks], ranks


def stacked_charts(orbifold: GoodOrbifold, atlas: Sequence[DerivedChart]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Chart centres (charts, n) and radii (charts,), in atlas order."""
    return (np.reshape([ch.center for ch in atlas], (-1, orbifold.model.ambient_dim)),
            np.array([ch.radius for ch in atlas], dtype=float))


def chart_hits(orbifold: GoodOrbifold, atlas: Sequence[DerivedChart],
               rows: np.ndarray, factor: float = 1.0) -> np.ndarray:
    """(k, n) rows -> (k, order, charts) mask: entry [i, g, c] is whether
    translate g of row i lies within factor x radius of chart c's centre."""
    centres, radii = stacked_charts(orbifold, atlas)
    return np.swapaxes(orbifold.translate_distances(
        rows, centres, lambda d, cols: d <= radii[cols, None] * factor), 1, 2)


def first_hits(hits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, order, charts) chart_hits mask -> each row's first (chart, label)
    hit, in atlas order and then label order; chart -1 where a row has none."""
    k, order, charts = hits.shape
    flat = np.swapaxes(hits, 1, 2).reshape(k, charts * order)
    chart, label = np.divmod(flat.argmax(axis=1) if flat.size else
                             np.zeros(k, dtype=int), order)
    return np.where(flat.any(axis=1), chart, -1), label


def separation(orbifold: GoodOrbifold, point: np.ndarray) -> float:
    """Distance from a point to its nearest distinct orbit translate (inf if none)."""
    p = np.asarray(point, dtype=float)
    pts = orbit(orbifold.group, p)
    dists = orbifold.model.distances(pts, p)
    dists = dists[dists > EPS_GRP]
    return float(dists.min()) if dists.size else np.inf


def build_chart(orbifold: GoodOrbifold, row: np.ndarray,
                radius: float | None = None) -> DerivedChart:
    """Chart centred at a model row, projected onto the model, with radius
    defaulting to 0.4 x orbit separation.

    Points whose whole orbit collapses (separation is infinite) fall back to
    0.4 x the local model scale.  Raises RadiusTooLarge when an explicit
    radius reaches half the separation or leaves the model, and ValueError
    when the row is not in the model.
    """
    center = orbifold.model.project_checked(np.asarray(row, dtype=float)[None])[0]
    sep = separation(orbifold, center)
    model = orbifold.model
    if model.kind == FLAT:
        boundary = model.radius - float(np.linalg.norm(center))
        fallback = CHART_RADIUS_FACTOR * boundary
        cap = boundary
    else:
        fallback = CHART_RADIUS_FACTOR * (np.pi / 2.0)
        cap = np.pi
    if radius is None:
        radius = min(CHART_RADIUS_FACTOR * sep, cap) if np.isfinite(sep) else fallback
        radius = max(radius, 1e-9)
    if radius >= 0.5 * sep:
        raise RadiusTooLarge(
            f"radius {radius} reaches half the orbit separation {sep}")
    if radius > cap * (1.0 + 1e-9):
        raise RadiusTooLarge(f"radius {radius} leaves the model (cap {cap})")
    return DerivedChart(orbifold, center, float(radius),
                        stabilizer(orbifold.group, center))


def build_atlas(orbifold: GoodOrbifold, resolution: int = 16,
                max_charts: int = 128) -> tuple[DerivedChart, ...]:
    """Deterministic greedy atlas: singular charts first, then fill the rest.

    Coverage is demanded on the verification domain (the whole sphere, or the
    closed 0.75R sub-ball of a flat model).  Raises AtlasNotCovering when
    max_charts is not enough.
    """
    model = orbifold.model

    @functools.cache    # the default passes repeat COVERAGE_RESOLUTION
    def ordered_samples(res: int) -> np.ndarray:
        grid = model.verification_grid(res)
        pts = np.concatenate([model.verification_domain(orbifold.singular_points(res)),
                              canonical_representatives(orbifold.group, grid)])
        idx, ranks = _first_by_key(pts)
        orders = fixing_mask(orbifold.group, pts[idx]).sum(axis=1)
        return pts[idx[np.lexsort((ranks, -orders))]]

    def covered(charts, samples):
        return chart_hits(orbifold, charts, samples, 0.999).any(axis=(1, 2))

    charts: list[DerivedChart] = []

    # the refinement pass keeps finer grids covered; the final pass walks the
    # canonical covering grid so downstream covering checks hold by construction
    for res in (resolution, 2 * resolution - 1, COVERAGE_RESOLUTION):
        samples = ordered_samples(res)
        done = covered(charts, samples)
        for i, s in enumerate(samples):
            if done[i]:
                continue
            charts.append(build_chart(orbifold, s))
            if len(charts) > max_charts:
                raise AtlasNotCovering(
                    f"atlas needs more than max_charts={max_charts} charts at "
                    f"resolution {res}")
            done |= covered(charts[-1:], samples)
    return tuple(charts)


# -- strata -------------------------------------------------------------------

@dataclass(frozen=True)
class Stratum:
    """Connected set of samples sharing one isotropy signature."""

    orbifold: GoodOrbifold
    signature: tuple[int, ...]      # global labels of the common stabilizer
    component_id: int
    sample_points: np.ndarray       # canonical representatives, shape (k, d)
    resolution: int

    @property
    def isotropy_order(self) -> int:
        return len(self.signature)

    @property
    def is_singleton(self) -> bool:
        return self.sample_points.shape[0] == 1

    def __repr__(self) -> str:
        return (f"Stratum(order={self.isotropy_order}, "
                f"samples={self.sample_points.shape[0]})")


def strata(orbifold: GoodOrbifold, resolution: int = 32) -> list[Stratum]:
    """Sample the model, group by isotropy signature, split into components.

    Connectivity is grid adjacency at the sampling resolution, measured in
    the quotient (orbit-aware), so fundamental-domain seams do not split
    strata.  The resolution is recorded on every stratum.  Strata come by
    decreasing isotropy order, then signature, then least sample key; the
    samples of each come in key order.

    The neighbour search moves the samples by each element in blocks whose
    key ranges, 3^(n-1) per row, hold at most ``groups._BLOCK`` entries; it
    queries a block in runs of at most ``groups._BLOCK`` candidate pairs (a
    run holds at least one row) and merges each run's edges as it comes, so
    the memory it holds at once grows neither with the sample count nor with
    how densely a region is sampled.
    """
    model = orbifold.model
    group = orbifold.group
    pts = np.concatenate([
        canonical_representatives(group, model.grid(resolution)),
        orbifold.singular_points(resolution)])
    idx, ranks = _first_by_key(pts)
    points = pts[idx]
    fixing = fixing_mask(group, points)
    kinds, codes = distinct_rows(fixing)
    sigs = [tuple(np.flatnonzero(m).tolist()) for m in fixing[kinds]]

    spacing = model.grid_spacing(resolution)
    thresh = 1.6 * spacing
    if model.kind == SPHERE:
        thresh = 2.0 * np.sin(min(thresh, np.pi) / 2.0)  # chordal
    ranges, pairs = _cell_list(points, thresh)
    block = groups.block_rows(3 ** (points.shape[1] - 1))
    labels = np.arange(len(points))
    for lab, start in itertools.product(range(group.order),
                                        range(0, len(points), block)):
        moved = row_apply(group.matrix(lab), points[start:start + block])
        first, counts = ranges(moved)
        ends = np.concatenate([[0], np.cumsum(counts.sum(axis=1))])
        lo = 0
        while lo < len(moved):
            hi = max(lo + 1, int(np.searchsorted(
                ends, ends[lo] + groups._BLOCK, side="right")) - 1)
            heads, tails = pairs(moved[lo:hi], first[lo:hi], counts[lo:hi])
            labels = _merge(labels, codes, heads + start + lo, tails)
            lo = hi

    sig_rank = np.argsort(sorted(range(len(sigs)),
                                 key=lambda c: (-len(sigs[c]), sigs[c])))
    least = np.full(len(points), len(points))
    np.minimum.at(least, labels, ranks)
    comp = least[labels]        # a component's least key rank names it
    order = np.lexsort((ranks, comp, sig_rank[codes]))
    bounds = [0, *(np.flatnonzero(np.diff(comp[order])) + 1).tolist(), len(order)]
    return [Stratum(orbifold, sigs[codes[order[lo]]], cid, points[order[lo:hi]],
                    resolution)
            for cid, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))]


def _cell_list(points: np.ndarray, thresh: float):
    """A cell list of the (k, n) sample rows: returns (ranges, pairs).

    ranges(query) gives each query row's 3^(n-1) key ranges as two
    (len(query), 3^(n-1)) arrays, the first sorted sample and the sample
    count of each; a row's counts add up to its candidates.  pairs(query,
    first, counts) measures each row against its candidates and returns the
    index pairs (i, j) with |query[i] - points[j]| <= thresh, i ascending.
    Its temporaries hold about counts.sum() entries, so a caller bounds
    them by the rows it passes at once.

    Samples are binned into cubes a hair wider than thresh, so that a pair
    within thresh sits in adjacent cells despite rounding, and sorted by
    cell key, the last axis varying fastest.  A query row's 3^n neighbour
    cells are then 3^(n-1) key ranges, each three cells long.  The box
    spans the largest sample norm plus two cells on each side; query cells
    are clipped into it, which only moves rows that have no sample within
    thresh.  The squared distance is summed axis by axis, left to right
    from 0.0, as cKDTree sums it, so a pair exactly thresh apart gets the
    same verdict.
    """
    side = thresh * (1.0 + 1e-9)
    n = points.shape[1]
    reach = int(np.ceil(np.sqrt(row_dot(points, points)).max() / side)) + 2
    strides = (2 * reach + 1) ** np.arange(n - 1, -1, -1)
    steps = groups.product_grid(np.array((-1, 0, 1)), n - 1) @ strides[:-1]

    def keys(rows):
        cells = np.clip(np.floor(rows / side), 1 - reach, reach - 1)
        return (cells.astype(int) + reach) @ strides

    sample_keys = keys(points)
    order = np.argsort(sample_keys, kind="stable")
    sample_keys = sample_keys[order]
    cols = [np.ascontiguousarray(points[order, a]) for a in range(n)]

    def ranges(query):
        mids = keys(query)[:, None] + steps     # a range's middle cell
        first = np.searchsorted(sample_keys, mids - 1)
        return first, np.searchsorted(sample_keys, mids + 2) - first

    def pairs(query, first, counts):
        per_row = counts.sum(axis=1)
        first, counts = first.ravel(), counts.ravel()
        pos = np.arange(counts.sum()) + np.repeat(
            first + counts - np.cumsum(counts), counts)
        sq = np.zeros(len(pos))
        for a in range(n):
            d = np.repeat(query[:, a], per_row)
            d -= cols[a][pos]
            d *= d
            sq += d
        keep = sq <= thresh * thresh
        return np.repeat(np.arange(len(query)), per_row)[keep], order[pos[keep]]

    return ranges, pairs


def _merge(labels: np.ndarray, codes: np.ndarray, heads: np.ndarray,
           tails: np.ndarray) -> np.ndarray:
    """Component labels after adding the edges (heads[e], tails[e]) whose two
    ends have the same code.

    labels[x] is the least node of x's component so far (np.arange at the
    start).  Each round hooks the larger label of every edge joining two
    components under the smaller, then jumps pointers until each node
    points at its root; rounds repeat until no edge joins two components.
    """
    same = codes[heads] == codes[tails]
    heads, tails = heads[same], tails[same]
    while True:
        a, b = labels[heads], labels[tails]
        cross = a != b
        if not cross.any():
            return labels
        heads, tails = heads[cross], tails[cross]
        labels = labels.copy()
        np.minimum.at(labels, np.maximum(a[cross], b[cross]),
                      np.minimum(a[cross], b[cross]))
        while True:
            up = labels[labels]
            if np.array_equal(up, labels):
                break
            labels = up


# -- products and suborbifolds --------------------------------------------------

def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[:a.shape[0], :a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def product(o1: GoodOrbifold, o2: GoodOrbifold, name: str = "") -> GoodOrbifold:
    """Product orbifold with the block-diagonal action (flat factors only)."""
    if o1.model.kind != FLAT or o2.model.kind != FLAT:
        raise UnsupportedModel("products are implemented for flat factors only")
    radius = float(np.hypot(o1.model.radius, o2.model.radius))
    model = ModelSpace(FLAT, o1.dimension + o2.dimension, radius)
    mats = [_block_diag(o1.group.matrix(a), o2.group.matrix(b))
            for a in range(o1.group.order) for b in range(o2.group.order)]
    group = group_from_elements(mats)
    return GoodOrbifold(model, group,
                        name or f"({o1.name})x({o2.name})")


@dataclass(frozen=True)
class SuborbifoldData:
    """Descriptor of a suborbifold: twisted subgroup, sample set, checks."""

    ambient: GoodOrbifold
    group: FiniteActionGroup            # subgroup of the ambient group
    samples: np.ndarray                 # points of the sub-chart, shape (k, d)
    subspace: np.ndarray | None         # orthonormal rows, or None
    invariance_residual: float
    chart_residual: float

    def isotropy_order_at(self, point: np.ndarray) -> int:
        """Order of the stabilizer within the suborbifold group."""
        return stabilizer(self.group, point).order


def diagonal_suborbifold(orbifold: GoodOrbifold) -> SuborbifoldData:
    """Diagonal of O x O with the diagonal subgroup and subspace."""
    if orbifold.model.kind != FLAT:
        raise UnsupportedModel("diagonal suborbifolds need a flat model")
    amb = product(orbifold, orbifold)
    n = orbifold.dimension
    lam = group_from_elements(
        [_block_diag(g, g) for g in orbifold.group.matrices])
    basis = np.zeros((n, 2 * n))
    for i in range(n):
        basis[i, i] = basis[i, n + i] = 1.0 / np.sqrt(2.0)

    proj = basis.T @ basis
    inv_res = 0.0
    for lab in range(lam.order):
        m = lam.matrix(lab)
        inv_res = max(inv_res, float(np.abs((np.eye(2 * n) - proj) @ m @ proj).max()))

    base_pts = orbifold.model.ball_grid(np.zeros(n), orbifold.model.radius * 0.7,
                                        per_axis=7)
    samples = np.hstack([base_pts, base_pts])

    # chart condition: ambient equivalence and Lambda equivalence agree on the
    # sub-chart samples (the sub-chart separates points exactly like U ∩ X_P)
    chart_res = 0.0
    canon = amb.canonicals(samples[:24])
    amb_ds = amb.quotient_distances(canon, canon)
    for i in range(len(canon)):
        for j in range(i + 1, len(canon)):
            amb_d = float(amb_ds[i, j])
            lam_pts = lam.matrices @ samples[i]
            lam_d = float(amb.model.distances(lam_pts, samples[j]).min())
            if (amb_d < EPS_GRP) != (lam_d < EPS_GRP):
                chart_res = max(chart_res, abs(amb_d - lam_d))
    return SuborbifoldData(amb, lam, samples, basis, inv_res, chart_res)


def graph_suborbifold(map_data) -> list[SuborbifoldData]:
    """Graph of an orbifold map as a twisted-diagonal suborbifold, per chart.

    For each chart lift with homomorphism T, the subgroup is
    {(g, T(g))} acting on source x target, and the sample set is the graph
    of the lift on the chart grid.  Raises EquivarianceViolation when the
    graph is not invariant within 1e-8 (inconsistent lift / homomorphism
    data).
    """
    src, tgt = map_data.source, map_data.target
    if src.model.kind != FLAT or tgt.model.kind != FLAT:
        raise UnsupportedModel("graph suborbifolds need flat source and target")
    amb = product(src, tgt)
    out = []
    for entry in map_data.lifts:
        chart, func, theta = entry.chart, entry.func, entry.theta
        mats = [_block_diag(chart.isotropy.matrix(a), theta.matrix(a))
                for a in range(chart.isotropy.order)]
        twisted = group_from_elements(mats)
        base = chart.sample_points(per_axis=5)
        vals = np.asarray(func(base), dtype=float)
        graph_pts = np.hstack([base, vals])
        trans = translates(chart.isotropy, base)
        moved = np.asarray(func(trans.reshape(-1, trans.shape[2])),
                           dtype=float).reshape(*trans.shape[:2], -1)
        res = 0.0
        for a in range(chart.isotropy.order):
            lhs = row_apply(theta.matrix(a), vals)
            res = max(res, float(np.abs(lhs - moved[:, a]).max(initial=0.0)))
        if res > 1e-8:
            raise EquivarianceViolation(
                f"graph of chart at {np.round(chart.center, 4)} is not invariant: "
                f"residual {res:.3e} > 1.0e-08")
        out.append(SuborbifoldData(amb, twisted, graph_pts, None, res, 0.0))
    return out


# -- ready-made orbifolds -------------------------------------------------------

def football(p: int) -> GoodOrbifold:
    """S^2 mod Z_p rotation about the z-axis; poles are the singular points."""
    return GoodOrbifold(ModelSpace(SPHERE, 2), football_rotation_group(p),
                        name=f"football{p}")


def line_mod_flip(radius: float = 2.0) -> GoodOrbifold:
    """Interval (-R, R) mod x -> -x; one singular point at the origin."""
    return GoodOrbifold(ModelSpace(FLAT, 1, radius), sign_flip_group(),
                        name="line_mod_flip")


def disk_mod_rotation(p: int, radius: float = 1.0) -> GoodOrbifold:
    """Flat disk mod Z_p rotation; a single cone point at the origin."""
    return GoodOrbifold(ModelSpace(FLAT, 2, radius), cyclic_rotation_group(p),
                        name=f"disk_mod_Z{p}")


def plane_mod_reflection(radius: float = 1.0) -> GoodOrbifold:
    """Flat disk mod (x, y) -> (x, -y); the mirror line is singular."""
    group = generate_group([np.array([[1.0, 0.0], [0.0, -1.0]])], max_order=2)
    return GoodOrbifold(ModelSpace(FLAT, 2, radius), group,
                        name="plane_mod_reflection")


def disk_mod_dihedral(p: int, radius: float = 1.0) -> GoodOrbifold:
    return GoodOrbifold(ModelSpace(FLAT, 2, radius), dihedral_group(p),
                        name=f"disk_mod_D{p}")


def manifold_disk(dimension: int = 2, radius: float = 1.0) -> GoodOrbifold:
    """Trivial quotient: a disk with no symmetry."""
    return GoodOrbifold(ModelSpace(FLAT, dimension, radius),
                        trivial_group(dimension), name="manifold_disk")
