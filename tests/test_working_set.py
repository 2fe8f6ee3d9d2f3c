"""The library's one working-set budget, ``groups._BLOCK`` float64 elements in
the largest temporary of a batched kernel, and the in-place rewrites that
keep the other temporaries out of the working set.

The reference expressions below are the full-size-temporary forms the
kernels used before; outputs must agree bit for bit, because reports and CSV
dumps are byte-identical for a fixed (config, seed).
"""

import contextlib
import functools
import math
import tracemalloc

import numpy as np
import pytest

from orbidiff import groups as G
from orbidiff import maps as P
from orbidiff import model as M
from test_kernels import POLYHEDRAL


@functools.cache
def sphere(name):
    return M.GoodOrbifold(M.ModelSpace(M.SPHERE, 2),
                          G.generate_group(POLYHEDRAL[name]), name=f"S2/{name}")


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


# -- peak memory of the structure path ------------------------------------------

def traced_peak(f):
    """(f(), the tracemalloc peak of the call in MiB)."""
    tracemalloc.start()
    try:
        out = f()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / 2**20


def test_structure_path_peaks_stay_under_one_mib():
    # a fresh S²/O (order 24); with the budget counted in (row, label)
    # entries the four peaks were 1.74-1.83, 1.29, 1.19 and 1.28 MiB
    orb = M.GoodOrbifold(M.ModelSpace(M.SPHERE, 2),
                         G.generate_group(POLYHEDRAL["O"]), name="S2/O")
    grid = orb.model.grid(64)
    peaks = {}
    _, peaks["canonical_representatives"] = traced_peak(
        lambda: G.canonical_representatives(orb.group, grid))
    atlas, peaks["build_atlas"] = traced_peak(
        lambda: M.build_atlas(orb, resolution=16))
    layers, peaks["strata"] = traced_peak(lambda: M.strata(orb, resolution=32))
    _, peaks["overlaps and lifts"] = traced_peak(
        lambda: P.enumerate_identity_lifts(orb, atlas,
                                           edges=P.overlap_graph(orb, atlas)))
    assert len(grid) == 3970 and len(atlas) > 1 and len(layers) > 1
    assert max(peaks.values()) < 1.0, peaks


# -- every block's largest temporary holds at most _BLOCK elements ---------------

@contextlib.contextmanager
def recorded_sizes(monkeypatch):
    """Element counts of every translate block and every distance tile the
    kernels make, and of every key-range block and candidate run of strata."""
    sizes = {"translates": [], "distances": [], "key ranges": [], "candidates": []}
    translates, distances, cell_list = G.translates, M.ModelSpace.row_distances, \
        M._cell_list

    def recording_translates(group, pts):
        out = translates(group, pts)
        sizes["translates"].append(out.size)
        return out

    def recording_distances(self, a, b):
        sizes["distances"].append(math.prod(np.broadcast_shapes(
            np.shape(a), np.shape(b))))
        return distances(self, a, b)

    def recording_cell_list(points, thresh):
        ranges, pairs = cell_list(points, thresh)

        def recording_ranges(query):
            first, counts = ranges(query)
            sizes["key ranges"].append(first.size)
            return first, counts

        def recording_pairs(query, first, counts):
            sizes["candidates"].append(int(counts.sum()))
            return pairs(query, first, counts)

        return recording_ranges, recording_pairs

    for module in (G, M):
        monkeypatch.setattr(module, "translates", recording_translates)
    monkeypatch.setattr(M.ModelSpace, "row_distances", recording_distances)
    monkeypatch.setattr(M, "_cell_list", recording_cell_list)
    yield sizes


@pytest.mark.parametrize("budget", [4000, 700])
@pytest.mark.parametrize("name", ["O", "Oh"])
def test_blocks_fill_but_do_not_pass_the_budget(name, budget, monkeypatch):
    # each kernel gets rows for several blocks of these budgets; no block
    # passes the budget, and the largest comes within one row's worth of it
    monkeypatch.setattr(G, "_BLOCK", budget)
    orb = sphere(name)
    n, order = orb.model.ambient_dim, orb.group.order
    rows = orb.model.grid(48)
    targets = rows[::7]
    with recorded_sizes(monkeypatch) as sizes:
        G.fixing_mask(orb.group, rows)
        G.canonical_representatives(orb.group, rows)
        orb.quotient_pair_distances(rows, rows[::-1])
        orb.translate_distances(rows, targets, lambda d, cols: d.min(axis=-1))
        M.strata(orb, resolution=48)
    per_row = {"translates": order * n, "distances": order * n,
               "key ranges": 3 ** (n - 1), "candidates": 0}
    for kind, seen in sizes.items():
        assert seen, kind
        assert max(seen) <= budget, kind
        if per_row[kind]:
            assert max(seen) > budget - per_row[kind] * len(targets), kind
    assert max(sizes["candidates"]) > budget // 2


# -- the in-place rewrites give the bits of the expressions they replaced -------

def reference_sphere_distances(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    near = G.row_dot(a, b) >= 0.0
    chord = np.linalg.norm(np.where(near[..., None], a - b, a + b), axis=-1)
    angle = 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
    return np.where(near, angle, np.pi - angle)


def reference_flat_distances(a, b):
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return np.sqrt(np.add.reduce(d * d, axis=-1))


def sphere_rows():
    """Unit rows with pairs whose dot product is exactly 0, rows a rounding
    step either side of a right angle, and NaN and ±inf rows."""
    rng = np.random.default_rng(29)
    u = rng.normal(size=(40, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = rng.normal(size=(40, 3))
    v -= (v * u).sum(axis=1, keepdims=True) * u
    v[::2] += rng.uniform(-1e-15, 1e-15, size=(20, 1)) * u[::2]
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    exact_a = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.0, 0.0, -1.0],
                        [-0.0, 1.0, 0.0], [0.75, 0.5, 0.0]])
    exact_b = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, -0.0], [1.0, 0.0, 0.0],
                        [1.0, -0.0, 0.0], [-0.5, 0.75, 0.0]])
    odd = np.array([[np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0], [-np.inf, 1.0, 0.0],
                    [np.inf, -np.inf, 0.0], [0.0, 0.0, np.nan]])
    a = np.concatenate([u, exact_a, odd, odd, u[:5]])
    b = np.concatenate([v, exact_b, u[:5], odd, odd])
    return a, b


def test_sphere_row_distances_keep_their_bits():
    a, b = sphere_rows()
    assert (G.row_dot(a[40:45], b[40:45]) == 0.0).all()
    sph = M.ModelSpace(M.SPHERE, 2)
    flat = M.ModelSpace(M.FLAT, 3, radius=2.0)
    with np.errstate(all="ignore"):
        for x, y in [(a, b),                            # row by row
                     (a[:, None], b[None, :12]),        # every pair
                     (a[3], b),                         # one row against many
                     (a[3], b[7]),                      # two rows
                     (a[:6, None, None], G.translates(G.generate_group(
                         POLYHEDRAL["T"]), b[:4])[None])]:
            assert _bits(sph.row_distances(x, y)) == \
                _bits(reference_sphere_distances(x, y))
            assert _bits(flat.row_distances(x, y)) == \
                _bits(reference_flat_distances(x, y))


def reference_canonical(group, pts):
    trans = G.translates(group, pts)
    keys = np.where(G._distinct_translates(trans, G.EPS_GRP)[..., None],
                    G._snap(trans), np.inf)
    first = np.lexsort(np.moveaxis(keys, 2, 0)[::-1], axis=-1)[:, 0]
    return trans[np.arange(len(trans)), first]


@pytest.mark.parametrize("budget", [G._BLOCK, 100])
@pytest.mark.parametrize("name", ["T", "D2h", "Oh"])
def test_canonical_keys_keep_their_bits(name, budget, monkeypatch):
    # ±0.0 coordinates, coordinates that snap to ±0.0, and rows on axes and
    # mirrors, whose repeated translates are dropped from the keys
    monkeypatch.setattr(G, "_BLOCK", budget)
    grp = G.generate_group(POLYHEDRAL[name])
    signed = np.array([[0.0, 0.6, 0.8], [-0.0, 0.6, -0.8], [0.6, -0.0, 0.8],
                       [1e-12, 0.6, 0.8], [-1e-12, -0.6, 0.8], [0.0, 0.0, 1.0],
                       [-0.0, -0.0, -1.0], [0.6, 0.8, -0.0], [3e-10, -4e-10, 1.0]])
    # within EPS_GRP of a rotation axis, a dropped translate can snap to a
    # lesser key than the one kept
    rng = np.random.default_rng(29)
    axes = np.repeat([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0] / np.sqrt(3.0)], 30, axis=0)
    beside = axes + rng.uniform(-0.7, 0.7, size=axes.shape) * G.EPS_GRP
    pts = np.concatenate([signed, beside, M.ModelSpace(M.SPHERE, 2).grid(24)])
    got = G.canonical_representatives(grp, pts)
    assert _bits(got) == _bits(reference_canonical(grp, pts))
    trans = G.translates(grp, signed)
    assert np.signbit(trans[np.round(trans, 9) == 0.0]).any()
    assert (G.fixing_mask(grp, signed).sum(axis=1) > 1).any()


@pytest.mark.parametrize("budget", [G._BLOCK, 100, 7])
@pytest.mark.parametrize("name", ["T", "D2h", "Oh"])
def test_fixing_mask_keeps_its_bits(name, budget, monkeypatch):
    monkeypatch.setattr(G, "_BLOCK", budget)
    grp = G.generate_group(POLYHEDRAL[name])
    pts = np.concatenate([M.ModelSpace(M.SPHERE, 2).grid(24),
                          [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0 + 1e-9],
                           [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0]]])
    with np.errstate(invalid="ignore"):
        want = np.abs(G.translates(grp, pts) - pts[:, None]).max(axis=2) \
            < G.EPS_GRP
        got = G.fixing_mask(grp, pts)
    assert got.dtype == bool and np.array_equal(got, want)
    assert G.fixing_mask(grp, pts[:0]).shape == (0, grp.order)


@pytest.mark.parametrize("rows", [
    [[np.nan, np.nan, np.nan]],
    [[np.nan, -2.0, 1.0], [0.5, np.nan, -3.0]],
    [[0.0, 0.0, 0.0]],
    [[-0.0, -0.0, -0.0], [-0.0, 0.0, -0.0]],
    [[np.nan, -0.0, 0.0]],
    [[-np.inf, 1.0, 2.0]],
    [[np.inf, np.nan, -5.0]],
    [[-7.0, 1.0, 3.0], [2.0, -1e300, 1e-300]],
], ids=["all-nan", "nan-rows", "zeros", "negative-zeros", "nan-and-zeros",
        "minus-inf", "inf-and-nan", "negative-largest"])
def test_certificate_scale_keeps_its_bits(rows):
    trans = np.asarray(rows, dtype=float)[:, None]
    want = np.fmax.reduce(np.abs(trans), axis=None, initial=0.0)
    assert _bits(G._abs_max(trans)) == _bits(want)
    assert _bits(G._abs_max(trans[:0])) == _bits(0.0)
