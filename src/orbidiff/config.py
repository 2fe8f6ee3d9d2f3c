"""Plain-text suite configuration: parsing, validation, and builtins.

The format is sectioned key = value text; ``generator`` may repeat.
Matrices are row-major decimals.  Unknown sections and keys, and numbers
out of range, are errors that carry field-level locations.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, UnsupportedModel
from .groups import generate_group, is_orthogonal, trivial_group
from .model import GoodOrbifold, ModelSpace

ALL_SUITES = ("group", "strata", "maps", "tangent", "riemann", "theorem1",
              "corollary2")

# every section and the keys it may hold
_KEYS = {
    "orbifold": ("name", "model", "dimension", "radius", "generator",
                 "max_order"),
    "atlas": ("resolution", "max_charts"),
    "grids": ("strata_resolution", "verify_resolution"),
    "run": ("seed", "suites", "out", "sections", "diffeos"),
}


@dataclass
class SuiteConfig:
    """Validated configuration for one verification run."""

    name: str
    model: ModelSpace
    generators: list[np.ndarray]
    max_order: int
    atlas_resolution: int
    max_charts: int
    strata_resolution: int
    verify_resolution: int
    seed: int
    suites: tuple[str, ...]
    out_dir: str
    sections: int
    diffeos: int
    raw_text: str

    def build_orbifold(self) -> GoodOrbifold:
        if self.generators:
            group = generate_group(self.generators, max_order=self.max_order)
        else:
            group = trivial_group(self.model.ambient_dim)
        return GoodOrbifold(self.model, group, name=self.name)


def at_least(value: int, low: int, where: str) -> int:
    """value, or ConfigInvalid naming ``where`` when it is below low."""
    if value < low:
        raise ConfigInvalid(f"{where}: must be at least {low}, got {value}")
    return value


def finite_positive(value: float, where: str) -> float:
    """value, or ConfigInvalid naming ``where`` unless it is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigInvalid(f"{where}: must be finite and positive, got {value}")
    return value


def _parse_sections(text: str
                    ) -> list[tuple[str, int, list[tuple[str, str, int]]]]:
    """(name, header line, [(key, value, line)]) per section, in order."""
    sections: list[tuple[str, int, list[tuple[str, str, int]]]] = []
    current: list[tuple[str, str, int]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            sections.append((line[1:-1].strip(), lineno, []))
            current = sections[-1][2]
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


def _count(entries, key, default, where, low=1, high=None) -> int:
    """An integer key that must be at least ``low`` (and at most ``high``)."""
    value = _one(entries, key, default=default, cast=int, where=where)
    if high is not None and value > high:
        raise ConfigInvalid(f"{where}.{key}: must be at most {high}, got {value}")
    return at_least(value, low, f"{where}.{key}")


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
    by_name: dict[str, list] = {}
    for sec, header, entries in _parse_sections(text):
        if sec not in _KEYS:
            raise ConfigInvalid(
                f"[{sec}] (line {header}): unknown section; expected one of "
                + ", ".join(f"[{name}]" for name in _KEYS))
        if sec in by_name:
            raise ConfigInvalid(f"section [{sec}] repeated")
        for key, _, lineno in entries:
            if key not in _KEYS[sec]:
                raise ConfigInvalid(f"{sec}.{key} (line {lineno}): unknown key")
        by_name[sec] = entries

    if "orbifold" not in by_name:
        raise ConfigInvalid("missing required section [orbifold]")
    orb = by_name["orbifold"]
    try:
        # the model's refusals name the field: model, dimension or radius;
        # past 3 dimensions the default flat grids reach 64^4 rows
        model = ModelSpace(_one(orb, "model", where="orbifold"),
                           _count(orb, "dimension", None, "orbifold", high=3),
                           _one(orb, "radius", default=1.0, cast=float,
                                where="orbifold"))
    except UnsupportedModel as exc:
        raise ConfigInvalid(f"orbifold.{exc}") from exc
    amb = model.ambient_dim
    generators = []
    for key, value, lineno in orb:
        if key != "generator":
            continue
        mat = _matrix(value, amb, f"orbifold.generator[{len(generators)}]")
        if not is_orthogonal(mat):
            # np.round(x, 6) overflows past about 1e302; entries past 1e15
            # show as given
            shown = mat.copy()
            small = np.abs(mat) < 1e15
            shown[small] = np.round(mat[small], 6)
            raise ConfigInvalid(
                f"orbifold.generator[{len(generators)}] (line {lineno}): matrix "
                f"{shown.tolist()} is not orthogonal within 1e-12")
        generators.append(mat)

    atlas = by_name.get("atlas", [])
    grids = by_name.get("grids", [])
    run = by_name.get("run", [])

    suites_raw = _one(run, "suites", default=",".join(ALL_SUITES), where="run")
    suites = tuple(s.strip() for s in suites_raw.split(",") if s.strip())
    for s in suites:
        if s not in ALL_SUITES:
            raise ConfigInvalid(
                f"run.suites: unknown suite {s!r}; choose from {ALL_SUITES}")

    # the name is part of every output file name
    name = _one(orb, "name", default=name_hint, where="orbifold")
    if not name or "/" in name or "\0" in name:
        raise ConfigInvalid(
            f"orbifold.name: must be non-empty, without '/' or NUL, got {name!r}")

    return SuiteConfig(
        name=name,
        model=model,
        generators=generators,
        max_order=_count(orb, "max_order", 4096, "orbifold"),
        atlas_resolution=_count(atlas, "resolution", 16, "atlas"),
        max_charts=_count(atlas, "max_charts", 128, "atlas"),
        strata_resolution=_count(grids, "strata_resolution", 64, "grids"),
        verify_resolution=_count(grids, "verify_resolution", 20, "grids"),
        seed=_count(run, "seed", 7, "run", low=0),
        suites=suites,
        out_dir=_one(run, "out", default="reports", where="run"),
        sections=_count(run, "sections", 12, "run"),
        diffeos=_count(run, "diffeos", 4, "run"),
        raw_text=text,
    )


def load_config(path: str) -> SuiteConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text, name_hint=re.sub(r"\.[^.]*$", "", path.split("/")[-1]))


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
verify_resolution = 20

[run]
seed = 7
suites = group, strata, maps, tangent, riemann, theorem1, corollary2
out = reports
sections = 12
diffeos = 3
"""
