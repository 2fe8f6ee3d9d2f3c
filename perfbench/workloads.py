"""The benchmark's workloads: inputs from a seed, one run, and output checks.

Each workload class builds its inputs in ``__init__`` (this is the set-up that
``setup_s`` times), makes one full run in ``run`` and turns the outputs of a
run into operations in ``check``: a list of ``(name, passed)`` pairs, one per
check, pinned invariant or round trip.  ``plant`` returns a copy of the
outputs with one value perturbed, which ``check`` must reject.

The workloads call orbidiff through module attributes (``model.build_atlas``
rather than a name imported here), so that a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import copy
import io
import shutil
import time
from pathlib import Path

import numpy as np

from orbidiff import cli, config, groups, maps, model, riemann, tangent


class Football3Cli:
    """``orbidiff run`` on the built-in order-3 football, in process."""

    name = "football3_cli"
    expected_checks = 49

    def __init__(self, seed: int, workdir: Path):
        self.config_name = config.parse_config(
            config.DEFAULT_FOOTBALL3, name_hint="football3").name
        self.out = workdir / self.name
        self.argv = ["run", "--out", str(self.out), "--seed", str(seed)]
        self.expected_files = sorted(
            [f"report_{self.config_name}.txt"]
            + [f"{which}_{self.config_name}.csv"
               for which in ("partition", "orbisection", "metric")])

    @property
    def operations(self) -> int:
        return self.expected_checks + 5

    def run(self, tracer) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        files = {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}
        return {"exit": code, "files": files}

    def check(self, out: dict, first: dict | None) -> list[tuple[str, bool]]:
        report = out["files"].get(f"report_{self.config_name}.txt", b"")
        body, _, summary = report.decode().partition("\nsummary\n")
        checks = [line.removeprefix("  check ") for line in body.splitlines()
                  if line.startswith("  check ")]
        passes = [line == "  pass: true" for line in body.splitlines()
                  if line.startswith("  pass: ")]
        ops = [(f"check {c}", ok) for c, ok in zip(checks, passes)]
        ops += [
            ("exit code 0", out["exit"] == 0),
            (f"{self.expected_checks} checks, one verdict each",
             len(checks) == len(passes) == self.expected_checks
             and f"  checks: {self.expected_checks}\n" in summary),
            ("summary pass: true", "  pass: true\n" in summary),
            ("report and three CSV dumps written",
             sorted(out["files"]) == self.expected_files
             and all(out["files"].values())),
        ]
        if first is not None:
            ops.append(("outputs byte-identical to the first run",
                        out["files"] == first["files"]))
        return ops

    def plant(self, out: dict) -> dict:
        bad = copy.deepcopy(out)
        name = f"report_{self.config_name}.txt"
        bad["files"][name] = bad["files"][name].replace(
            b"  pass: true", b"  pass: false", 1)
        return bad

    def cleanup(self):
        shutil.rmtree(self.out, ignore_errors=True)


_THIRD_TURN = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
_QUARTER_TURN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


class SphereStructure:
    """Group, atlas, strata, overlaps and identity lifts of three S^2/G.

    The inputs are fixed generator matrices, so the seed changes nothing.
    """

    name = "sphere_structure"
    atlas_resolution = 16
    strata_resolution = 32
    # group order, |ID| (the cone-order product 2*3*3, 2*3*4, and 1 for the
    # three mirrors of D2h), number of strata
    expected = {"T": (12, 18, 4), "O": (24, 24, 4), "D2h": (8, 1, 7)}

    def __init__(self, seed: int, workdir: Path):
        self.generators = {
            "T": [_THIRD_TURN, np.diag([1.0, -1.0, -1.0])],
            "O": [_THIRD_TURN, _QUARTER_TURN],
            "D2h": [np.diag([-1.0, 1.0, 1.0]), np.diag([1.0, -1.0, 1.0]),
                    np.diag([1.0, 1.0, -1.0])],
        }

    @property
    def operations(self) -> int:
        return 3 * len(self.expected)

    def run(self, tracer) -> dict:
        out = {}
        for label, gens in self.generators.items():
            group = groups.generate_group(gens)
            orbifold = model.GoodOrbifold(model.ModelSpace(model.SPHERE, 2),
                                          group, name=f"S2/{label}")
            atlas = model.build_atlas(orbifold,
                                      resolution=self.atlas_resolution)
            layers = model.strata(orbifold, resolution=self.strata_resolution)
            edges = maps.overlap_graph(orbifold, atlas)
            ids = maps.enumerate_identity_lifts(orbifold, atlas, edges=edges)
            out[label] = (group.order, ids.order, len(layers))
        return out

    def check(self, out: dict, first: dict | None) -> list[tuple[str, bool]]:
        ops = []
        for label, (order, ids, layers) in self.expected.items():
            got = out.get(label, (None, None, None))
            ops += [(f"S2/{label} group order {order}", got[0] == order),
                    (f"S2/{label} |ID| = {ids}", got[1] == ids),
                    (f"S2/{label} {layers} strata", got[2] == layers)]
        return ops

    def plant(self, out: dict) -> dict:
        order, ids, layers = out["T"]
        return {**out, "T": (order, ids + 1, layers)}

    def cleanup(self):
        pass


class DiskFieldSweep:
    """Partition totals on a fine grid and seeded E / E^-1 round trips on the
    flat disk mod Z4 at atlas resolution 13."""

    name = "disk_field_sweep"
    order = 4
    atlas_resolution = 13
    grid_resolution = 100
    grid_points = 4508          # points of the 0.75R grid at resolution 100
    roundtrips = 100
    c1_bound = 0.05
    pou_tol = 1e-9
    roundtrip_tol = 1e-8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    @property
    def operations(self) -> int:
        return 2 + self.roundtrips

    def run(self, tracer) -> dict:
        orbifold = model.disk_mod_rotation(self.order)
        atlas = model.build_atlas(orbifold, resolution=self.atlas_resolution)
        exp_map = riemann.ExpMap.closed_form(orbifold)
        pou = riemann.equivariant_partition_of_unity(orbifold, atlas)
        grid = orbifold.model.grid(self.grid_resolution)
        grid = grid[np.linalg.norm(grid, axis=1)
                    <= 0.75 * orbifold.model.radius + 1e-12]
        totals = np.array([pou.total(y) for y in grid])

        zero = tangent.zero_orbisection(orbifold, atlas)
        zero_gap = maps.cs_distance(riemann.E_apply(zero, exp_map),
                                    maps.identity_map(orbifold, atlas),
                                    s=0, per_axis=4).value

        rng = np.random.default_rng(self.seed)
        trips = []
        for _ in range(self.roundtrips):
            start = time.perf_counter()
            with tracer.span("riemann.roundtrip_check"):
                sigma = tangent.random_orbisection(orbifold, atlas, rng,
                                                   self.c1_bound)
                size = tangent.seminorm(sigma, 1)
                f = riemann.E_apply(sigma, exp_map)
                back = riemann.E_inverse(f, exp_map)
                section_gap = tangent.seminorm(
                    tangent.linear_combination(back, sigma, 1, -1), 0,
                    per_axis=3)
                map_gap = maps.cs_distance(riemann.E_apply(back, exp_map), f,
                                           s=0, per_axis=3).value
            trips.append((size, section_gap, map_gap,
                          time.perf_counter() - start))
        return {"totals": totals, "zero_gap": zero_gap, "trips": trips}

    def check(self, out: dict, first: dict | None) -> list[tuple[str, bool]]:
        totals = out["totals"]
        ops = [(f"partition sums to 1 within {self.pou_tol:g} at "
                f"{self.grid_points} points",
                totals.shape == (self.grid_points,)
                and float(np.abs(totals - 1.0).max()) <= self.pou_tol),
               ("E(0) is the identity exactly", out["zero_gap"] == 0.0)]
        for k, (size, section_gap, map_gap, _) in enumerate(out["trips"]):
            ops.append((f"round trip {k}",
                        size < self.c1_bound
                        and section_gap <= self.roundtrip_tol
                        and map_gap <= self.roundtrip_tol))
        return ops

    def plant(self, out: dict) -> dict:
        totals = out["totals"].copy()
        totals[len(totals) // 2] += 10 * self.pou_tol
        return {**out, "totals": totals}

    def cleanup(self):
        pass


WORKLOADS = {w.name: w for w in (Football3Cli, SphereStructure, DiskFieldSweep)}
