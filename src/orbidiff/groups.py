"""Finite subgroups of the orthogonal group: enumeration and structure.

Groups are stored as explicit element lists with a Cayley table over small
integer labels.  Label 0 is always the identity; labels are assigned
breadth-first from the identity with a lexicographic tie-break on matrix
entries, so tables are reproducible bit for bit across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ClosureExceeded, NotOrthogonal, SampleOutOfChart

EPS_GRP = 1e-9        # element and point equality tolerance
ORTHO_TOL = 1e-12     # orthogonality tolerance on inputs
FD_STEP = 1e-5        # central finite-difference step, chart units
FD_TOL = 1e-6         # tolerance when comparing FD Jacobians
MAX_ORDER_DEFAULT = 4096
# the library's one memory budget: float64 elements (128 KiB) in the largest
# temporary of a batched kernel (translate blocks, the pairwise walk's mask,
# translate-distance tiles, strata's key ranges and candidate pairs)
_BLOCK = 1 << 14


def polar_orthonormalize(m: np.ndarray) -> np.ndarray:
    """Nearest orthogonal matrix (polar factor); keeps long products stable."""
    u, _, vt = np.linalg.svd(m)
    return u @ vt


def is_orthogonal(m: np.ndarray) -> bool:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    # entries of an orthogonal matrix lie in [-1, 1]; larger or non-finite
    # ones would overflow or make NaN in the product, with a warning
    if not (np.abs(m) <= 1.0 + ORTHO_TOL).all():
        return False
    return float(np.abs(m.T @ m - np.eye(m.shape[0])).max()) < ORTHO_TOL


def block_rows(*shape: int) -> int:
    """Rows per block of a batched kernel whose largest temporary holds
    ``shape`` float64 elements per row: ``_BLOCK`` elements in all, and at
    least one row."""
    return max(1, _BLOCK // math.prod(shape))


def _snap(pts: np.ndarray) -> np.ndarray:
    # +0.0 normalizes away -0.0 so sort keys are stable
    return np.round(pts, 9) + 0.0


def _snap_key(m: np.ndarray) -> tuple:
    return tuple(_snap(np.asarray(m, dtype=float).ravel()).tolist())


def fd_jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Jacobian at x of a map of (k, n) rows, by central differences of step
    FD_STEP; the 2n stencil rows go through f in one call."""
    x = np.asarray(x, dtype=float)
    shift = FD_STEP * np.eye(x.size)
    vals = np.asarray(f(np.concatenate([x + shift, x - shift])), dtype=float)
    return (vals[:x.size] - vals[x.size:]).T / (2.0 * FD_STEP)


@dataclass(frozen=True)
class OrthogonalElement:
    """One orthogonal matrix with its label inside a group."""

    matrix: np.ndarray
    label: int

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


class FiniteActionGroup:
    """A finite subgroup of O(n) closed under product and inverse.

    ``parent_labels`` is set on subgroups and maps each local label to the
    label of the same matrix in the parent group.
    """

    def __init__(self, elements: Sequence[OrthogonalElement], cayley: np.ndarray,
                 parent_labels: tuple[int, ...] | None = None):
        self.elements = tuple(elements)
        self.dimension = int(self.elements[0].matrix.shape[0])
        self.cayley = np.asarray(cayley, dtype=int)
        self.cayley.setflags(write=False)
        self.parent_labels = parent_labels
        self._stack = np.stack([e.matrix for e in self.elements])
        self._stack.setflags(write=False)
        is_identity = self.cayley == 0
        bad = np.flatnonzero(is_identity.sum(axis=1) != 1)
        if bad.size:
            raise ClosureExceeded(f"element {bad[0]} lacks a unique inverse")
        self._inverses = np.argmax(is_identity, axis=1)
        self._inverses.setflags(write=False)
        self._subgroups: dict[tuple[int, ...], FiniteActionGroup] = {}

    # -- basic structure ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def matrices(self) -> np.ndarray:
        """Stacked element matrices, shape (order, n, n)."""
        return self._stack

    def matrix(self, label: int) -> np.ndarray:
        return self.elements[label].matrix

    def multiply(self, a: int, b: int) -> int:
        return int(self.cayley[a, b])

    def inverse(self, label: int) -> int:
        return int(self._inverses[label])

    @property
    def inverses(self) -> np.ndarray:
        """Label of each element's inverse, shape (order,)."""
        return self._inverses

    def conjugate(self, g: int, h: int) -> int:
        """Label of g h g^-1."""
        return self.multiply(self.multiply(g, h), self.inverse(g))

    @cached_property
    def conjugations(self) -> np.ndarray:
        """Conjugation table, shape (order, order): [g, h] labels g h g^-1."""
        table = self.cayley[self.cayley, self._inverses[:, None]]
        table.setflags(write=False)
        return table

    def find(self, m: np.ndarray) -> int | None:
        """Label of the element equal to m within EPS_GRP, or None."""
        diffs = np.abs(self._stack - np.asarray(m, dtype=float)).max(axis=(1, 2))
        best = int(np.argmin(diffs))
        return best if diffs[best] < EPS_GRP else None

    @cached_property
    def element_orders(self) -> np.ndarray:
        """Order of each element; the powers of all labels are raised together."""
        labels = np.arange(self.order)
        orders, power, k = np.zeros(self.order, dtype=int), labels, 1
        while not orders.all():
            orders[(power == 0) & (orders == 0)] = k
            power, k = self.cayley[power, labels], k + 1
        orders.setflags(write=False)
        return orders

    def element_order(self, label: int) -> int:
        return int(self.element_orders[label])

    @property
    def exponent(self) -> int:
        return int(np.lcm.reduce(self.element_orders))

    def subgroup(self, labels: Iterable[int]) -> "FiniteActionGroup":
        """Subgroup on the given labels, memoised; label 0 stays the identity."""
        labs = tuple(sorted(set(int(l) for l in labels)))
        if labs in self._subgroups:
            return self._subgroups[labs]
        if 0 not in labs:
            raise ClosureExceeded("subgroup must contain the identity")
        pos = np.full(self.order, -1, dtype=int)
        pos[list(labs)] = np.arange(len(labs))
        cay = pos[self.cayley[np.ix_(labs, labs)]]
        if (cay < 0).any():
            raise ClosureExceeded("labels are not closed under product")
        elems = [OrthogonalElement(self.matrix(l), i) for i, l in enumerate(labs)]
        return self._subgroups.setdefault(
            labs, FiniteActionGroup(elems, cay, parent_labels=labs))

    def act(self, label: int, points: np.ndarray) -> np.ndarray:
        """Apply element to one point (n,) or a batch (k, n)."""
        return row_apply(self.matrix(label), points)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"FiniteActionGroup(order={self.order}, dim={self.dimension})"


def generate_group(generators: Sequence[np.ndarray],
                   max_order: int = MAX_ORDER_DEFAULT) -> FiniteActionGroup:
    """Close a generator set under multiplication.

    Breadth-first from the identity; products are re-orthonormalized by a
    polar decomposition each step so numerically drifting inputs do not
    masquerade as new elements.  Raises ClosureExceeded past max_order and
    NotOrthogonal on bad generators.
    """
    if max_order < 1:
        raise ClosureExceeded("max_order must be at least 1")
    gens = [np.asarray(g, dtype=float) for g in generators]
    if not gens:
        raise NotOrthogonal("at least one generator matrix is required")
    n = gens[0].shape[0]
    for i, g in enumerate(gens):
        if g.shape != (n, n):
            raise NotOrthogonal(f"generator {i} has shape {g.shape}, expected {(n, n)}")
        if not is_orthogonal(g):
            raise NotOrthogonal(f"generator {i} is not orthogonal within {ORTHO_TOL}")
    gens = [polar_orthonormalize(g) for g in gens]

    found: list[np.ndarray] = [np.eye(n)]

    def lookup(m: np.ndarray) -> int | None:
        diffs = np.abs(np.stack(found) - m).max(axis=(1, 2))
        best = int(np.argmin(diffs))
        return best if diffs[best] < EPS_GRP else None

    frontier = [np.eye(n)]
    while frontier:
        products = []
        for m in frontier:
            for g in gens:
                products.append(polar_orthonormalize(m @ g))
        products.sort(key=_snap_key)
        next_frontier = []
        for p in products:
            if lookup(p) is None:
                found.append(p)
                next_frontier.append(p)
                if len(found) > max_order:
                    raise ClosureExceeded(
                        f"group order exceeds max_order={max_order}; generators may "
                        "not generate a finite group or are drifting numerically")
        frontier = next_frontier

    elems = [OrthogonalElement(m, i) for i, m in enumerate(found)]
    stack = np.stack(found)
    order = len(found)
    cay = np.empty((order, order), dtype=int)
    for a in range(order):
        prods = stack[a] @ stack  # (order, n, n) products a*b
        diffs = np.abs(prods[:, None, :, :] - stack[None, :, :, :]).max(axis=(2, 3))
        labels = np.argmin(diffs, axis=1)
        if float(diffs[np.arange(order), labels].max()) > EPS_GRP:
            raise ClosureExceeded("closure lookup failed; numerical drift too large")
        cay[a] = labels
    return FiniteActionGroup(elems, cay)


def group_from_elements(matrices: Sequence[np.ndarray]) -> FiniteActionGroup:
    """Group from a complete element set (must already be closed)."""
    return generate_group(matrices, max_order=len(matrices))


def trivial_group(dimension: int) -> FiniteActionGroup:
    return generate_group([np.eye(dimension)], max_order=1)


def center(group: FiniteActionGroup) -> FiniteActionGroup:
    """Subgroup of elements commuting with everything (exhaustive check)."""
    return group.subgroup(np.flatnonzero((group.cayley == group.cayley.T).all(axis=1)))


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism between two finite action groups, stored as a label table."""

    source: FiniteActionGroup
    target: FiniteActionGroup
    table: tuple[int, ...]

    def __post_init__(self):
        t = np.asarray(self.table)
        if t.shape != (self.source.order,):
            raise ValueError("table length must equal the source order")
        if t.dtype.kind not in "iu" or t.min() < 0 or t.max() >= self.target.order:
            raise ValueError(
                f"table entries must be integers in [0, {self.target.order})")
        if t[0] != 0:
            raise ValueError("homomorphism must map identity to identity")
        # bad[a, b]: table(a*b) != table(a)*table(b)
        bad = t[self.source.cayley] != self.target.cayley[t[:, None], t]
        if bad.any():
            a, b = np.argwhere(bad)[0]
            raise ValueError(
                f"not a homomorphism: table(a*b) != table(a)*table(b) "
                f"at a={a}, b={b}")
        object.__setattr__(self, "table", tuple(t.tolist()))

    def __call__(self, label: int) -> int:
        return self.table[label]

    def matrix(self, label: int) -> np.ndarray:
        return self.target.matrix(self.table[label])

    @cached_property
    def is_identity(self) -> bool:
        """True when every source element maps to the same matrix in the
        target; computed on first use."""
        images = self.target.matrices[list(self.table)]
        return float(np.abs(self.source.matrices - images).max()) < EPS_GRP

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner."""
        return GroupHom(inner.source, self.target,
                        tuple(np.take(self.table, inner.table).tolist()))

    @staticmethod
    def identity(group: FiniteActionGroup) -> "GroupHom":
        return GroupHom(group, group, tuple(range(group.order)))

    @staticmethod
    def inclusion(sub: FiniteActionGroup, ambient: FiniteActionGroup) -> "GroupHom":
        """Inclusion of a subgroup carrying parent labels into its parent."""
        if sub.parent_labels is None:
            labels = []
            for a in range(sub.order):
                lab = ambient.find(sub.matrix(a))
                if lab is None:
                    raise ValueError("subgroup element not found in ambient group")
                labels.append(lab)
            return GroupHom(sub, ambient, tuple(labels))
        return GroupHom(sub, ambient, tuple(sub.parent_labels))


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, m) rows -> (first, inverse): the index of the first row of each
    distinct row, distinct rows in lexicographic order, and for each row the
    position of its distinct row in that order; the arrays numpy's unique
    gives with axis=0, return_index and return_inverse.

    Rows compare entry by entry with ``!=``, so -0.0 equals 0.0.  A stable
    lexsort on the columns (primary key last) is about 3x faster than
    unique's sort of rows as structured voids."""
    rows = np.asarray(rows)
    order = np.lexsort(rows.T[::-1])
    starts = np.ones(len(order), dtype=bool)
    ordered = rows[order]
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def inner_automorphisms(group: FiniteActionGroup) -> tuple[GroupHom, ...]:
    """All distinct conjugation maps d -> g d g^-1, in order of the first g
    that gives each; there are |G| / |center(G)| of them."""
    conj = group.conjugations
    first, _ = distinct_rows(conj)
    return tuple(GroupHom(group, group, tuple(conj[g].tolist()))
                 for g in np.sort(first))


def fixed_subspace(group: FiniteActionGroup) -> np.ndarray:
    """Orthonormal basis (rows) of the joint fixed subspace of all elements.

    Computed as the numerical nullspace of the stacked (g - I) blocks;
    singular values below EPS_GRP count as zero.  Shape (k, n) with k
    possibly 0.
    """
    n = group.dimension
    blocks = np.concatenate([group.matrix(a) - np.eye(n)
                             for a in range(group.order)], axis=0)
    _, svals, vt = np.linalg.svd(blocks)
    svals = np.concatenate([svals, np.zeros(n - svals.size)])
    return vt[svals < EPS_GRP]


def row_apply(m: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(..., n, n) matrices applied to (..., n) rows, broadcasting; each row
    is bit for bit ``m @ row``, whatever the number of rows in the call.

    The library's products of rows by matrices go through this kernel (or
    ``translates``), never ``pts @ m.T``, whose last bits depend on the row
    count; so results may be stacked and reduced across charts freely."""
    pts = np.ascontiguousarray(pts, dtype=float)
    return (m @ pts[..., None])[..., 0]


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., n), (..., n) -> (...): dot products of rows, broadcasting; each is
    bit for bit ``np.dot`` of the two rows, and ``np.sqrt(row_dot(a, a))`` is
    the 1-D ``np.linalg.norm`` of each row."""
    if np.ndim(a) == np.ndim(b) == 1:
        return np.dot(a, b)     # the same product, without the stacking cost
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def translates(group: FiniteActionGroup, pts: np.ndarray) -> np.ndarray:
    """(k, n) -> (k, order, n); entry [k, g] is bit for bit matrix(g) @ pts[k]."""
    return row_apply(group.matrices, np.asarray(pts, dtype=float)[:, None])


def fixing_mask(group: FiniteActionGroup, pts: np.ndarray) -> np.ndarray:
    """(k, order) mask of the elements moving each point less than EPS_GRP."""
    pts = np.asarray(pts, dtype=float)
    step = block_rows(group.order, group.dimension)
    out = np.empty((len(pts), group.order), dtype=bool)
    for lo in range(0, len(pts), step):
        b = pts[lo:lo + step]
        moves = translates(group, b)
        moves -= b[:, None]
        out[lo:lo + step] = np.abs(moves, out=moves).max(axis=2) < EPS_GRP
    return out


def _certify_distinct(trans: np.ndarray, tol: float) -> np.ndarray:
    """(k, order, n) -> (k,): True where no two of a row's translates lie
    within tol of each other on every axis.

    Two such translates project onto u = cos(1..n) within |u|₁·tol of each
    other, so a row passes when every gap between its sorted projections is
    at least the margin 2·|u|₁·tol.  The factor 2 absorbs the rounding of
    the projections; past coordinates of about 1e6, where that rounding
    could exceed tol, the margin grows with the batch's largest coordinate.
    A row holding a NaN fails."""
    n = trans.shape[2]
    u = np.cos(np.arange(1.0, n + 1.0))
    proj = np.sort(trans @ u, axis=1)
    scale = _abs_max(trans)
    margin = 2.0 * np.abs(u).sum() * max(tol, n * np.finfo(float).eps * scale)
    return (np.diff(proj, axis=1) >= margin).all(axis=1)


def _abs_max(a: np.ndarray) -> float:
    """The largest |entry| of a, NaN skipped, 0.0 for none: the value of
    ``np.fmax.reduce(np.abs(a), axis=None, initial=0.0)``, without the
    temporary |a|."""
    return max(np.fmax.reduce(a, axis=None, initial=0.0),
               -np.fmin.reduce(a, axis=None, initial=0.0)) + 0.0


def _pairwise_walk(trans: np.ndarray, tol: float) -> np.ndarray:
    """(k, order) mask of the translates kept by a walk in label order that
    drops each translate within tol of one already kept; O(order²) per row."""
    k, order, n = trans.shape
    keep = np.ones((k, order), dtype=bool)
    step = block_rows(k, order)
    for lo in range(1, order, step):   # blocks of translates bound the memory
        hi = min(order, lo + step)
        # close[., r, i]: translate i comes before translate lo + r and is near it
        close = np.repeat(np.tri(hi - lo, hi, k=lo - 1, dtype=bool)[None], k, axis=0)
        for c in range(n):
            gap = trans[:, lo:hi, None, c] - trans[:, None, :hi, c]
            close &= np.abs(gap, out=gap) < tol
        for r in np.flatnonzero(close.any(axis=(0, 2))):
            keep[:, lo + r] = ~(close[:, r] & keep[:, :hi]).any(axis=1)
    return keep


def _distinct_translates(trans: np.ndarray, tol: float) -> np.ndarray:
    """(k, order) mask of the translates kept by a walk in label order that
    drops each translate within tol of one already kept.

    A row that ``_certify_distinct`` clears keeps every translate, at
    O(order log order) cost; only the others, on or within about tol of a
    fixed set, go through ``_pairwise_walk``.  Rows are independent, so the
    mask is the walk's on every row."""
    keep = np.ones(trans.shape[:2], dtype=bool)
    near = ~_certify_distinct(trans, tol)
    if near.any():
        keep[near] = _pairwise_walk(trans[near], tol)
    return keep


def canonical_representatives(group: FiniteActionGroup, pts: np.ndarray) -> np.ndarray:
    """(k, n) -> (k, n): the distinct translate with the lexicographically
    least snapped coordinates; ties go to the lower group label.

    Blocks of rows keep the translates, and the sort keys, within
    ``_BLOCK`` elements; the pairwise walk bounds its own mask for the rows
    it gets."""
    out = np.empty(np.shape(pts))
    chunk = block_rows(group.order, group.dimension)
    for lo in range(0, len(pts), chunk):
        trans = translates(group, pts[lo:lo + chunk])
        keys = np.round(trans, 9)
        keys += 0.0     # _snap's keys: -0.0 becomes 0.0
        keys[~_distinct_translates(trans, EPS_GRP)] = np.inf
        # lexsort is stable and takes its primary key last
        first = np.lexsort(np.moveaxis(keys, 2, 0)[::-1], axis=-1)[:, 0]
        out[lo:lo + chunk] = trans[np.arange(len(trans)), first]
    return out


def stabilizer(group: FiniteActionGroup, point: np.ndarray) -> FiniteActionGroup:
    """Isotropy subgroup of a point: elements moving it less than EPS_GRP."""
    mask = fixing_mask(group, np.asarray(point, dtype=float)[None])[0]
    return group.subgroup(np.flatnonzero(mask))


def orbit(group: FiniteActionGroup, point: np.ndarray) -> np.ndarray:
    """Deduplicated orbit of a point, rows sorted lexicographically."""
    trans = translates(group, np.asarray(point, dtype=float)[None])
    pts = trans[0][_distinct_translates(trans, EPS_GRP)[0]]
    return pts[np.lexsort(_snap(pts).T[::-1])]


# -- linearization of nonlinear actions -------------------------------------

@dataclass(frozen=True)
class NonlinearActionSample:
    """A smooth finite action on a chart ball, given per-label.

    ``group`` supplies the abstract structure (labels, Cayley table); ``maps``
    are the nonlinear chart maps fixing the origin, each taking (k, n) rows
    to (k, n) rows, and ``linearizations`` their Jacobians at 0.
    """

    group: FiniteActionGroup
    maps: tuple[Callable[[np.ndarray], np.ndarray], ...]
    linearizations: tuple[np.ndarray, ...]
    radius: float = 1.0

    def __post_init__(self):
        if len(self.maps) != self.group.order or \
                len(self.linearizations) != self.group.order:
            raise ValueError("maps and linearizations must cover every label")
        origin = np.zeros(self.group.dimension)
        for lab in range(self.group.order):
            val = np.asarray(self.maps[lab](origin[None]), dtype=float)[0]
            if float(np.abs(val).max(initial=0.0)) > 1e-12:
                raise ValueError(f"map for label {lab} does not fix the origin")
            jac = fd_jacobian(self.maps[lab], origin)
            if float(np.abs(jac - self.linearizations[lab]).max()) > FD_TOL:
                raise ValueError(
                    f"linearization for label {lab} does not match the FD Jacobian")


@dataclass(frozen=True)
class LinearizationResult:
    """Averaged chart map (on (k, n) rows) with its verification residuals."""

    chart_map: Callable[[np.ndarray], np.ndarray]
    conjugacy_residual: float
    differential_residual: float
    sample_count: int


def linearize_action(action: NonlinearActionSample,
                     sample_points: np.ndarray) -> LinearizationResult:
    """Averaging construction conjugating a smooth action to its linear part.

    F(y) = (1/|G|) sum_g L_g (g^-1 . y).  The report carries the worst
    conjugacy defect max |F(g.y) - L_g F(y)| over samples and elements, and
    the FD distance of dF(0) from the identity.
    """
    samples = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if float(np.linalg.norm(samples, axis=1).max()) >= action.radius:
        raise SampleOutOfChart("sample points must lie inside the chart ball")
    group = action.group

    def chart_map(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        acc = np.zeros_like(pts)
        for lab in range(group.order):
            inv = group.inverse(lab)
            acc = acc + row_apply(action.linearizations[lab],
                                  np.asarray(action.maps[inv](pts), dtype=float))
        return acc / group.order

    base = chart_map(samples)
    conj = 0.0
    for lab in range(group.order):
        lhs = chart_map(np.asarray(action.maps[lab](samples), dtype=float))
        rhs = row_apply(action.linearizations[lab], base)
        conj = max(conj, float(np.abs(lhs - rhs).max()))
    dres = float(np.abs(fd_jacobian(chart_map, np.zeros(group.dimension))
                        - np.eye(group.dimension)).max())
    return LinearizationResult(chart_map, conj, dres, len(samples))


# -- common construction helpers ---------------------------------------------

def rotation_2d(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def reflection_2d(axis_angle: float = 0.0) -> np.ndarray:
    """Reflection across the line at the given angle to the x-axis."""
    c, s = np.cos(2 * axis_angle), np.sin(2 * axis_angle)
    return np.array([[c, s], [s, -c]])


def rotation_about_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def cyclic_rotation_group(p: int) -> FiniteActionGroup:
    """Z_p acting on the plane by rotation through 2 pi / p."""
    return generate_group([rotation_2d(2.0 * np.pi / p)], max_order=p)


def dihedral_group(p: int) -> FiniteActionGroup:
    """Dihedral group of order 2p in O(2)."""
    return generate_group([rotation_2d(2.0 * np.pi / p), reflection_2d(0.0)],
                          max_order=2 * p)


def sign_flip_group() -> FiniteActionGroup:
    """Z_2 acting on the line by x -> -x."""
    return generate_group([np.array([[-1.0]])], max_order=2)


def football_rotation_group(p: int) -> FiniteActionGroup:
    """Z_p acting on the 2-sphere by rotation about the z-axis."""
    return generate_group([rotation_about_z(2.0 * np.pi / p)], max_order=p)
