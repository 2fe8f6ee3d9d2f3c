"""Plain-text suite configuration: parsing, validation, and builtins.

The format is sectioned key = value text; keys may repeat (generators,
coefficients, curve segments).  Matrices are row-major decimals.  Errors
carry field-level locations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigInvalid
from .groups import (generate_group, is_orthogonal, rotation_2d, rotation_about_z,
                     row_apply, trivial_group)
from .maps import OrbifoldMapData, map_from_global
from .model import FLAT, SPHERE, GoodOrbifold, ModelSpace
from .tangent import CurveInOrbifold, CurveSegment

ALL_SUITES = ("group", "strata", "maps", "tangent", "riemann", "theorem1",
              "corollary2")

_DEFAULT_TOLERANCES = {
    "equivariance": 1e-9,
    "roundtrip": 1e-8,
    "pou_sum": 1e-9,
    "metric_invariance": 1e-10,
    "idempotence": 1e-12,
    "exp_well_defined": 1e-9,
    "metric_axioms": 1e-12,
    "composition": 1e-8,
}


@dataclass
class MapSpec:
    """Named builtin map description from the configuration."""

    name: str
    kind: str                       # identity|rotation|power|constant|polynomial
    angle: float = 0.0
    exponent: int = 1
    point: np.ndarray | None = None
    coefficients: list[tuple[tuple[int, ...], np.ndarray]] = field(
        default_factory=list)
    theta: tuple[int, ...] | None = None


@dataclass
class CurveSpec:
    """Curve description: interval, crossing times, segment expressions."""

    name: str
    interval: tuple[float, float]
    crossings: tuple[float, ...]
    segments: list[tuple[str, ...]]    # per segment, one expression per coordinate


@dataclass
class SuiteConfig:
    """Validated configuration for one verification run."""

    name: str
    model_kind: str
    dimension: int
    radius: float
    generators: list[np.ndarray]
    max_order: int
    atlas_resolution: int
    max_charts: int
    strata_resolution: int
    chart_per_axis: int
    verify_resolution: int
    tolerances: dict[str, float]
    seed: int
    suites: tuple[str, ...]
    out_dir: str
    sections: int
    diffeos: int
    maps: dict[str, MapSpec]
    curves: dict[str, CurveSpec]
    raw_text: str

    def tol(self, key: str, scale: float = 1.0) -> float:
        return self.tolerances[key] * scale

    def build_orbifold(self) -> GoodOrbifold:
        model = ModelSpace(self.model_kind, self.dimension, self.radius)
        if self.generators:
            group = generate_group(self.generators, max_order=self.max_order)
        else:
            group = trivial_group(model.ambient_dim)
        return GoodOrbifold(model, group, name=self.name)


def _parse_sections(text: str) -> list[tuple[str, list[tuple[str, str, int]]]]:
    sections: list[tuple[str, list[tuple[str, str, int]]]] = []
    current: list[tuple[str, str, int]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            sections.append((line[1:-1].strip(), []))
            current = sections[-1][1]
            continue
        if "=" not in line:
            raise ConfigInvalid(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigInvalid(f"line {lineno}: key outside any [section]")
        key, value = line.split("=", 1)
        current.append((key.strip(), value.strip(), lineno))
    return sections


def _one(entries, key, default=None, cast=str, where=""):
    hits = [v for k, v, _ in entries if k == key]
    if not hits:
        if default is None:
            raise ConfigInvalid(f"{where}: missing required key {key!r}")
        return default
    if len(hits) > 1:
        raise ConfigInvalid(f"{where}: key {key!r} given more than once")
    try:
        return cast(hits[0])
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"{where}.{key}: {exc}") from exc


def _matrix(value: str, dim: int, where: str) -> np.ndarray:
    try:
        vals = [float(tok) for tok in value.split()]
    except ValueError as exc:
        raise ConfigInvalid(f"{where}: {exc}") from exc
    if len(vals) != dim * dim:
        raise ConfigInvalid(
            f"{where}: expected {dim * dim} row-major entries, got {len(vals)}")
    return np.asarray(vals, dtype=float).reshape(dim, dim)


def parse_config(text: str, name_hint: str = "config") -> SuiteConfig:
    """Parse and validate a configuration; raises ConfigInvalid with locations."""
    sections = _parse_sections(text)
    by_name: dict[str, list] = {}
    maps: dict[str, MapSpec] = {}
    curves: dict[str, CurveSpec] = {}
    for sec, entries in sections:
        if sec.startswith("map "):
            maps[sec[4:].strip()] = _parse_map(sec[4:].strip(), entries)
        elif sec.startswith("curve "):
            curves[sec[6:].strip()] = _parse_curve(sec[6:].strip(), entries)
        elif sec in by_name:
            raise ConfigInvalid(f"section [{sec}] repeated")
        else:
            by_name[sec] = entries

    if "orbifold" not in by_name:
        raise ConfigInvalid("missing required section [orbifold]")
    orb = by_name["orbifold"]
    kind = _one(orb, "model", where="orbifold")
    if kind not in (FLAT, SPHERE):
        raise ConfigInvalid(f"orbifold.model: unknown model {kind!r} "
                            f"(expected flat or sphere)")
    dimension = _one(orb, "dimension", cast=int, where="orbifold")
    if dimension < 1:
        raise ConfigInvalid("orbifold.dimension: must be positive")
    if kind == SPHERE and dimension != 2:
        raise ConfigInvalid("orbifold.dimension: sphere models support dimension 2")
    radius = _one(orb, "radius", default=1.0, cast=float, where="orbifold")
    if radius <= 0:
        raise ConfigInvalid("orbifold.radius: must be positive")
    amb = dimension + 1 if kind == SPHERE else dimension
    generators = []
    for key, value, lineno in orb:
        if key != "generator":
            continue
        mat = _matrix(value, amb, f"orbifold.generator[{len(generators)}]")
        if not is_orthogonal(mat):
            raise ConfigInvalid(
                f"orbifold.generator[{len(generators)}] (line {lineno}): matrix "
                f"{np.round(mat, 6).tolist()} is not orthogonal within 1e-12")
        generators.append(mat)

    atlas = by_name.get("atlas", [])
    grids = by_name.get("grids", [])
    tols = by_name.get("tolerances", [])
    run = by_name.get("run", [])

    tolerances = dict(_DEFAULT_TOLERANCES)
    for k, v, lineno in tols:
        if k not in tolerances:
            raise ConfigInvalid(f"tolerances.{k} (line {lineno}): unknown tolerance")
        try:
            val = float(v)
        except ValueError as exc:
            raise ConfigInvalid(f"tolerances.{k}: {exc}") from exc
        if val <= 0:
            raise ConfigInvalid(f"tolerances.{k}: must be positive")
        tolerances[k] = val

    suites_raw = _one(run, "suites", default=",".join(ALL_SUITES), where="run")
    suites = tuple(s.strip() for s in suites_raw.split(",") if s.strip())
    for s in suites:
        if s not in ALL_SUITES:
            raise ConfigInvalid(
                f"run.suites: unknown suite {s!r}; choose from {ALL_SUITES}")

    return SuiteConfig(
        name=_one(orb, "name", default=name_hint, where="orbifold"),
        model_kind=kind,
        dimension=dimension,
        radius=radius,
        generators=generators,
        max_order=_one(orb, "max_order", default=4096, cast=int, where="orbifold"),
        atlas_resolution=_one(atlas, "resolution", default=16, cast=int,
                              where="atlas"),
        max_charts=_one(atlas, "max_charts", default=128, cast=int, where="atlas"),
        strata_resolution=_one(grids, "strata_resolution", default=64, cast=int,
                               where="grids"),
        chart_per_axis=_one(grids, "chart_per_axis", default=5, cast=int,
                            where="grids"),
        verify_resolution=_one(grids, "verify_resolution", default=20, cast=int,
                               where="grids"),
        tolerances=tolerances,
        seed=_one(run, "seed", default=7, cast=int, where="run"),
        suites=suites,
        out_dir=_one(run, "out", default="reports", where="run"),
        sections=_one(run, "sections", default=12, cast=int, where="run"),
        diffeos=_one(run, "diffeos", default=4, cast=int, where="run"),
        maps=maps,
        curves=curves,
        raw_text=text,
    )


def load_config(path: str) -> SuiteConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text, name_hint=re.sub(r"\.[^.]*$", "", path.split("/")[-1]))


def _parse_map(name: str, entries) -> MapSpec:
    where = f"map {name}"
    kind = _one(entries, "type", where=where)
    if kind not in ("identity", "rotation", "power", "constant", "polynomial"):
        raise ConfigInvalid(f"{where}.type: unknown builtin {kind!r}")
    spec = MapSpec(name=name, kind=kind)
    if kind == "rotation":
        spec.angle = _one(entries, "angle", cast=float, where=where)
    if kind == "power":
        spec.exponent = _one(entries, "exponent", cast=int, where=where)
        if spec.exponent < 1:
            raise ConfigInvalid(f"{where}.exponent: must be at least 1")
    if kind == "constant":
        raw = _one(entries, "point", where=where)
        spec.point = np.asarray([float(t) for t in raw.split()], dtype=float)
    if kind == "polynomial":
        for k, v, lineno in entries:
            if k != "coefficient":
                continue
            toks = v.split()
            if len(toks) < 2:
                raise ConfigInvalid(f"{where}.coefficient (line {lineno}): "
                                    "expected exponents then vector entries")
            half = len(toks) // 2
            exps = tuple(int(t) for t in toks[:half])
            vec = np.asarray([float(t) for t in toks[half:]], dtype=float)
            spec.coefficients.append((exps, vec))
        if not spec.coefficients:
            raise ConfigInvalid(f"{where}: polynomial maps need coefficient rows")
        theta_raw = [v for k, v, _ in entries if k == "theta"]
        if theta_raw:
            spec.theta = tuple(int(t) for t in theta_raw[0].split())
    return spec


def _parse_curve(name: str, entries) -> CurveSpec:
    where = f"curve {name}"
    interval = _one(entries, "interval", where=where)
    toks = interval.split()
    if len(toks) != 2:
        raise ConfigInvalid(f"{where}.interval: expected two endpoints")
    lo, hi = float(toks[0]), float(toks[1])
    if not lo < hi:
        raise ConfigInvalid(f"{where}.interval: endpoints must increase")
    crossings_raw = _one(entries, "crossings", default="", where=where)
    crossings = tuple(float(t) for t in crossings_raw.split())
    segs = [tuple(part.strip() for part in v.split(","))
            for k, v, _ in entries if k == "segment"]
    if len(segs) != len(crossings) + 1:
        raise ConfigInvalid(
            f"{where}: {len(crossings)} crossings need {len(crossings) + 1} "
            f"segment rows, got {len(segs)}")
    return CurveSpec(name, (lo, hi), crossings, segs)


_EXPR_TOKENS = re.compile(r"^[\s0-9t+\-*/().eE]*$")
_EXPR_FUNCS = {"abs": np.abs, "sin": np.sin, "cos": np.cos}


def _compile_expr(expr: str, where: str) -> Callable[[float], float]:
    body = expr
    for fn in _EXPR_FUNCS:
        body = body.replace(fn, "")
    if not _EXPR_TOKENS.match(body):
        raise ConfigInvalid(f"{where}: expression {expr!r} uses tokens outside "
                            "the builtin set (numbers, t, + - * / ( ), abs, sin, cos)")
    code = compile(expr, where, "eval")

    def run(t: float) -> float:
        return float(eval(code, {"__builtins__": {}},
                          {"t": t, **_EXPR_FUNCS}))

    run(0.0)  # fail fast on malformed expressions
    return run


def build_curve(spec: CurveSpec, orbifold: GoodOrbifold) -> CurveInOrbifold:
    """Instantiate a curve description over an orbifold."""
    times = [spec.interval[0], *spec.crossings, spec.interval[1]]
    segments = []
    for idx, exprs in enumerate(spec.segments):
        if len(exprs) != orbifold.model.ambient_dim:
            raise ConfigInvalid(
                f"curve {spec.name}.segment[{idx}]: expected "
                f"{orbifold.model.ambient_dim} coordinate expressions")
        funcs = [_compile_expr(e, f"curve {spec.name}.segment[{idx}]")
                 for e in exprs]
        segments.append(CurveSegment(
            times[idx], times[idx + 1],
            lambda t, fns=tuple(funcs): np.asarray([fn(t) for fn in fns])))
    return CurveInOrbifold(orbifold, segments)


def build_map(spec: MapSpec, orbifold: GoodOrbifold,
              atlas) -> OrbifoldMapData:
    """Instantiate a named builtin map over an orbifold."""
    model = orbifold.model
    if spec.kind == "identity":
        from .maps import identity_map
        return identity_map(orbifold, atlas, name=spec.name)
    if spec.kind == "rotation":
        if model.kind == SPHERE:
            mat = rotation_about_z(spec.angle)
            inv = rotation_about_z(-spec.angle)
        elif model.dimension == 2:
            mat = rotation_2d(spec.angle)
            inv = rotation_2d(-spec.angle)
        else:
            raise ConfigInvalid(
                f"map {spec.name}: rotations need a sphere or a flat plane")
        return map_from_global(orbifold, orbifold,
                               lambda pts, m=mat: row_apply(m, pts),
                               atlas=atlas, name=spec.name,
                               inverse=lambda pts, m=inv: row_apply(m, pts))
    if spec.kind == "power":
        if model.kind != FLAT or model.dimension != 1:
            raise ConfigInvalid(f"map {spec.name}: power maps act on flat lines")
        k = spec.exponent
        return map_from_global(orbifold, orbifold,
                               lambda pts, k=k: np.asarray(pts, dtype=float) ** k,
                               atlas=atlas, name=spec.name)
    if spec.kind == "constant":
        from .maps import constant_map
        if spec.point.shape != (model.ambient_dim,):
            raise ConfigInvalid(f"map {spec.name}.point: expected "
                                f"{model.ambient_dim} coordinates")
        return constant_map(orbifold, orbifold, spec.point, atlas=atlas,
                            name=spec.name)
    # polynomial
    if model.kind != FLAT:
        raise ConfigInvalid(f"map {spec.name}: polynomial lifts act on flat models")

    def func(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        out = np.zeros((len(pts), model.ambient_dim))
        for exps, vec in spec.coefficients:
            out = out + vec * np.prod(pts ** np.asarray(exps), axis=1)[:, None]
        return out

    built = map_from_global(orbifold, orbifold, func, atlas=atlas,
                            name=spec.name)
    if spec.theta is not None:
        if len(spec.theta) != orbifold.group.order:
            raise ConfigInvalid(
                f"map {spec.name}.theta: expected {orbifold.group.order} labels")
        for entry in built.lifts:
            for a in range(entry.chart.isotropy.order):
                glob = entry.chart.isotropy.parent_labels[a]
                if entry.theta.table[a] != spec.theta[glob]:
                    raise ConfigInvalid(
                        f"map {spec.name}.theta: declared table maps label "
                        f"{glob} to {spec.theta[glob]} but the lift is "
                        f"equivariant for {entry.theta.table[a]}")
    return built


DEFAULT_FOOTBALL3 = """\
# Z_3 football: the unit sphere modulo rotation by 2*pi/3 about the z-axis
[orbifold]
name = football3
model = sphere
dimension = 2
generator = -0.5 -0.8660254037844387 0 0.8660254037844387 -0.5 0 0 0 1
max_order = 3

[atlas]
resolution = 20
max_charts = 64

[grids]
strata_resolution = 64
chart_per_axis = 5
verify_resolution = 20

[run]
seed = 7
suites = group, strata, maps, tangent, riemann, theorem1, corollary2
out = reports
sections = 12
diffeos = 3
"""
