"""ModelSpace owns the flat-versus-sphere geometry: each expression it took
over from the modules that used to branch on the model kind gives the same
bits as the inline code it replaced, kept here as references."""

import numpy as np
import pytest

from orbidiff import model as M
from orbidiff import tangent as T
from orbidiff.groups import fixed_subspace, row_dot, stabilizer
from orbidiff.maps import _steps
from orbidiff.riemann import ExpMap

ORBIFOLDS = {"flat": lambda: M.plane_mod_reflection(1.5),
             "sphere": lambda: M.football(3)}


def assert_bitwise(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- the inline expressions the model methods replaced -------------------------

def reference_steps(model, pts, step):
    """maps._steps with its flat offset stencil."""
    dim = model.dimension
    if model.kind == M.FLAT:
        offsets = np.zeros((dim, 2, dim))
        axes = np.arange(dim)
        offsets[axes, 0, axes] = step
        offsets[axes, 1, axes] = -step
        return pts[..., None, None, :] + offsets
    n = pts.shape[-1]
    frames = model.tangent_frames(pts.reshape(-1, n)).reshape(*pts.shape[:-1], dim, n)
    return model.geo_exp(pts[..., None, None, :],
                         np.array([step, -step])[:, None] * frames[..., None, :])


def reference_lift_exp(model, x, v):
    """ExpMap.lift_exp with its flat ``x + v``."""
    speed = np.sqrt(row_dot(v, v))
    moving = speed != 0.0
    if model.kind == M.FLAT:
        return np.where(moving[:, None], x + v, x)
    v = v - row_dot(v, x)[:, None] * x
    return np.where(moving[:, None], model.geo_exp(x, v), x)


def reference_averaged_part(model, trans, vals):
    """project_equivariant's tangent projection of (k, order, n) values."""
    if model.kind == M.SPHERE:
        vals = vals - row_dot(vals, trans)[..., None] * trans
    return vals


def reference_curve_tangent(model, base, v):
    """curve_tangent's projection of one vector."""
    v = np.asarray(v, dtype=float)
    if model.kind == M.SPHERE:
        v = v - np.dot(v, base) * base
    return v


def reference_admissible_space(orbifold, x):
    """admissible_space at a model row, its Gram-Schmidt written out."""
    x = orbifold.model.project_checked(np.asarray(x, dtype=float)[None])[0]
    basis = fixed_subspace(stabilizer(orbifold.group, x))
    if orbifold.model.kind == M.FLAT:
        return basis
    rows = [b - np.dot(b, x) * x for b in basis]
    out = []
    for r in rows:
        for o in out:
            r = r - np.dot(r, o) * o
        nr = float(np.linalg.norm(r))
        if nr > 1e-9:
            out.append(r / nr)
    return np.stack(out) if out else np.zeros((0, orbifold.model.ambient_dim))


def reference_rays(model, center, pts, dist, start, steps):
    """extend_lift's radial paths, written out."""
    direction = model.geo_log(center, pts)
    norm = (dist if model.kind == M.FLAT
            else np.sqrt(row_dot(direction, direction)))
    direction = direction / norm[:, None]
    radii = np.linspace(start, dist, steps, axis=1)
    return model.geo_exp(center, radii[..., None] * direction[:, None])


def check_moved_expressions(orbifold):
    """Every moved or deleted expression against its reference, bit for bit;
    AssertionError names the first that differs."""
    model = orbifold.model
    n = model.ambient_dim
    rng = np.random.default_rng(23)
    rows = model.project(np.concatenate([
        model.verification_grid(9),
        np.stack([orbifold.random_row(rng) for _ in range(16)])]))

    # the stencil, on rows and on a batch of stencils; a flat row holding
    # -0.0 may come back as -0.0 where the offsets gave +0.0
    for pts in (rows, _steps(model, rows[:5], 1e-3)):
        assert_bitwise(_steps(model, pts, 1e-4), reference_steps(model, pts, 1e-4))
    signed = np.array([[-0.0] * n]) if model.kind == M.FLAT else \
        np.array([[-0.0, -0.0, 1.0]])
    assert np.array_equal(_steps(model, signed, 1e-4),
                          reference_steps(model, signed, 1e-4))

    # the exponential, zero vectors included; vectors carry normal parts
    vecs = 0.3 * rng.uniform(-1.0, 1.0, rows.shape)
    vecs[::4] = 0.0
    assert_bitwise(ExpMap.closed_form(orbifold).lift_exp(rows, vecs),
                   reference_lift_exp(model, rows, vecs))

    # the four tangent projections
    assert_bitwise(model.tangent_part(rows, vecs),
                   reference_averaged_part(model, rows[:, None], vecs[:, None])[:, 0])
    even = len(rows) // 2 * 2
    trans = rows[:even].reshape(-1, 2, n)
    stacked = vecs[:even].reshape(-1, 2, n)
    assert_bitwise(model.tangent_part(trans, stacked),
                   reference_averaged_part(model, trans, stacked))
    for x, v in zip(rows, vecs):
        assert_bitwise(model.tangent_part(x, v), reference_curve_tangent(model, x, v))
    for x in np.concatenate([rows, [c.center for c in M.build_atlas(orbifold)]]):
        assert_bitwise(T.admissible_space(orbifold, x),
                       reference_admissible_space(orbifold, x))

    # the verification grid
    for res in (2, 9, 16, 24):
        assert_bitwise(model.verification_grid(res),
                       model.verification_domain(model.grid(res)))

    # extend_lift's rays, out of a random row to the rows short of its
    # antipode
    center = rows[-1]
    dist = model.row_distances(center, rows)
    far = (dist > 0.05) & (dist < 3.0)
    assert_bitwise(model.radial_paths(center, rows[far], dist[far], 0.05, 7),
                   reference_rays(model, center, rows[far], dist[far], 0.05, 7))


@pytest.mark.parametrize("name", sorted(ORBIFOLDS))
def test_model_methods_give_the_bits_of_the_inline_code(name):
    check_moved_expressions(ORBIFOLDS[name]())


def test_a_tangent_part_that_keeps_normal_parts_is_caught(monkeypatch):
    monkeypatch.setattr(M.ModelSpace, "tangent_part",
                        lambda self, x, v: np.asarray(v, dtype=float))
    with pytest.raises(AssertionError):
        check_moved_expressions(ORBIFOLDS["sphere"]())
