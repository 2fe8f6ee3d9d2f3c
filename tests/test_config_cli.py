import contextlib
import io
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbidiff import cli
from orbidiff.config import DEFAULT_FOOTBALL3, parse_config
from orbidiff.errors import (ConfigInvalid, EquivarianceViolation,
                             NotDifferentiable)
from orbidiff.groups import rotation_2d, row_apply
from orbidiff.maps import check_equivariance, map_from_global
from orbidiff.model import build_atlas
from orbidiff.suites import describe, dump_fields, run_suite
from orbidiff.tangent import (CurveInOrbifold, CurveSegment, curve_tangent,
                              enumerate_curve_lifts)

FLAT_Z2 = """\
[orbifold]
name = halfline
model = flat
dimension = 1
radius = 2.0
generator = -1

[atlas]
resolution = 15

[run]
seed = 3
suites = group, maps
sections = 4
diffeos = 2
"""

WIDE_MIRROR = """\
[orbifold]
name = widemirror
model = flat
dimension = 2
radius = 2.0
generator = 1 0 0 -1

[atlas]
resolution = 13
"""


class TestParsing:
    def test_default_config_parses(self):
        cfg = parse_config(DEFAULT_FOOTBALL3)
        assert cfg.name == "football3"
        orbifold = cfg.build_orbifold()
        assert orbifold.group.order == 3

    def test_missing_section(self):
        with pytest.raises(ConfigInvalid, match=r"\[orbifold\]"):
            parse_config("[run]\nseed = 1\n")

    def test_bad_generator_names_matrix(self):
        text = FLAT_Z2.replace("generator = -1", "generator = -2")
        with pytest.raises(ConfigInvalid, match="not orthogonal"):
            parse_config(text)

    def test_unknown_suite(self):
        text = FLAT_Z2.replace("suites = group, maps", "suites = nonsense")
        with pytest.raises(ConfigInvalid, match="unknown suite"):
            parse_config(text)

    def test_tolerances_section_is_unknown(self):
        # base tolerances live in suites.py; --tol-scale is the one knob
        text = FLAT_Z2 + "\n[tolerances]\nroundtrip = 1e-8\n"
        with pytest.raises(ConfigInvalid) as exc:
            parse_config(text)
        assert str(exc.value).startswith("[tolerances] (line ")
        assert str(exc.value).endswith(
            "unknown section; expected one of [orbifold], [atlas], [grids], [run]")

    def test_negative_tolerance(self):
        # refused before any value is read: the section itself is unknown
        text = FLAT_Z2 + "\n[tolerances]\nroundtrip = -1\n"
        with pytest.raises(ConfigInvalid, match=r"^\[tolerances\] .*unknown section"):
            parse_config(text)

    def test_unknown_tolerance_key(self):
        text = FLAT_Z2 + "\n[tolerances]\nmystery = 1e-3\n"
        with pytest.raises(ConfigInvalid, match=r"^\[tolerances\] .*unknown section"):
            parse_config(text)

    def test_repeated_scalar_key(self):
        text = FLAT_Z2 + "\n[grids]\nstrata_resolution = 3\nstrata_resolution = 5\n"
        with pytest.raises(ConfigInvalid, match="more than once"):
            parse_config(text)

    def test_sphere_dimension_restriction(self):
        text = DEFAULT_FOOTBALL3.replace("dimension = 2", "dimension = 3")
        with pytest.raises(ConfigInvalid, match="dimension"):
            parse_config(text)

    @pytest.mark.parametrize("dimension", ["4", "1" + "0" * 30])
    def test_flat_dimension_above_three(self, dimension):
        # the 31-digit dimension once reached np.eye and exited 1
        text = FLAT_Z2.replace("dimension = 1", f"dimension = {dimension}")
        text = text.replace("generator = -1\n", "")
        with pytest.raises(ConfigInvalid, match=(
                rf"^orbifold\.dimension: must be at most 3, got {dimension}$")):
            parse_config(text)

    @pytest.mark.parametrize("radius", ["3.0", "0.5", "nan"])
    def test_sphere_radius_other_than_one_exits_two(self, radius, tmp_path,
                                                    capsys):
        # a sphere config at radius 3 once ran the unit sphere and exited 0
        cfg_file = tmp_path / "s2.cfg"
        cfg_file.write_text(DEFAULT_FOOTBALL3.replace(
            "dimension = 2", f"dimension = 2\nradius = {radius}"))
        code = cli.main(["run", "--config", str(cfg_file), "--out",
                         str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error: orbifold.radius: ")
        assert not (tmp_path / "out").exists()

    def test_seed_recorded_verbatim(self):
        cfg = parse_config(FLAT_Z2)
        report = run_suite(cfg, suites=("group",))
        assert "seed: 3" in report.render()


def _rotation(orbifold, atlas, angle):
    mat, inv = rotation_2d(angle), rotation_2d(-angle)
    return map_from_global(orbifold, orbifold, lambda pts: row_apply(mat, pts),
                           atlas=atlas, name="rot",
                           inverse=lambda pts: row_apply(inv, pts))


class TestMapAndCurveSchemas:
    """Builtin maps and piecewise curves on configured orbifolds."""

    def test_builtin_rotation_map(self):
        # rotations are equivariant self-maps of rotation quotients
        cfg = parse_config("""[orbifold]
name = diskz4
model = flat
dimension = 2
generator = 0 -1 1 0

[atlas]
resolution = 13
""")
        orbifold = cfg.build_orbifold()
        atlas = build_atlas(orbifold, resolution=cfg.atlas_resolution)
        rot = _rotation(orbifold, atlas, 0.4)
        assert check_equivariance(rot, per_axis=3).max_residual < 1e-9

    def test_rotation_rejected_on_mirror_quotient(self):
        cfg = parse_config(WIDE_MIRROR)
        orbifold = cfg.build_orbifold()
        atlas = build_atlas(orbifold, resolution=cfg.atlas_resolution)
        with pytest.raises(EquivarianceViolation):
            _rotation(orbifold, atlas, 0.4)

    def test_curves_reproduce_lift_counts(self):
        orbifold = parse_config(WIDE_MIRROR).build_orbifold()
        kinked = CurveInOrbifold(orbifold, [
            CurveSegment(-1.0, 0.0, lambda t: np.array([t, -t])),
            CurveSegment(0.0, 1.0, lambda t: np.array([t, t]))])
        bent = CurveInOrbifold(orbifold, [
            CurveSegment(-1.0, 0.0, lambda t: np.array([t, t * t])),
            CurveSegment(0.0, 1.0, lambda t: np.array([t, t * t]))])
        kl = enumerate_curve_lifts(kinked, 0.0, k=2)
        bl = enumerate_curve_lifts(bent, 0.0, k=2)
        assert (len(kl), sum(1 for l in kl if l.smooth_order >= 1)) == (4, 2)
        assert (len(bl), sum(1 for l in bl if l.smooth_order >= 2)) == (4, 2)
        with pytest.raises(NotDifferentiable):
            curve_tangent(kinked, 0.0)


# (suite, check) -> the check's tolerance at tol-scale 1 on the built-in
# football; 0.0 marks a check that counts mismatches
FOOTBALL_TOLERANCES = {
    ("group", "closure"): 1e-9,
    ("group", "inner_automorphism_count"): 0.0,
    ("group", "fixed_subspace"): 1e-9,
    ("group", "orbit_stabilizer"): 0.0,
    ("group", "linearize_conjugacy"): 1e-9,
    ("group", "linearize_differential"): 1e-6,
    ("group", "linearize_fixed_point"): 1e-12,
    ("strata", "finite_count"): 0.0,
    ("strata", "signature_constancy"): 0.0,
    ("strata", "metric_symmetry"): 0.0,
    ("strata", "metric_triangle"): 1e-12,
    ("strata", "isotropy_conjugacy"): 0.0,
    ("maps", "identity_lift_count"): 0.0,
    ("maps", "identity_lift_group"): 0.0,
    ("maps", "theta_choices"): 0.0,
    ("maps", "identity_equivariance"): 1e-9,
    ("maps", "distance_identity"): 0.0,
    ("maps", "distance_symmetry"): 0.0,
    ("maps", "distance_triangle"): 1e-12,
    ("maps", "polynomial_averaging_idempotent"): 1e-12,
    ("maps", "lift_extension"): 1e-9,
    ("tangent", "projection_idempotent"): 1e-12,
    ("tangent", "equivariance"): 1e-9,
    ("tangent", "center_values"): 1e-9,
    ("tangent", "combination_equivariance"): 1e-9,
    ("tangent", "seminorm_homogeneity"): 1e-12,
    ("tangent", "seminorm_triangle"): 1e-12,
    ("tangent", "admissible_dimensions"): 0.0,
    ("tangent", "curve_lift_counts"): 0.0,
    ("riemann", "partition_sum"): 1e-9,
    ("riemann", "partition_equivariance"): 1e-12,
    ("riemann", "metric_invariance"): 1e-10,
    ("riemann", "metric_idempotence"): 1e-12,
    ("riemann", "metric_positive"): 0.0,
    ("riemann", "metric_double_sum_degenerate"): 0.0,
    ("riemann", "exp_well_defined"): 1e-9,
    ("riemann", "exp_zero"): 0.0,
    ("theorem1", "zero_section_identity"): 0.0,
    ("theorem1", "roundtrip_sections"): 1e-8,
    ("theorem1", "roundtrip_maps"): 1e-8,
    ("theorem1", "injective_on_sections"): 0.0,
    ("theorem1", "exp_local_homeo"): 0.0,
    ("theorem1", "verify_diffeo"): 0.0,
    ("theorem1", "transition_identity"): 1e-8,
    ("theorem1", "transition_roundtrip"): 10 * 1e-8,
    ("theorem1", "transition_modulus"): 0.0,
    ("corollary2", "id_finite"): 0.0,
    ("corollary2", "conjugation_closure"): 0.0,
    ("corollary2", "lift_differences"): 0.0,
}


class TestSuitesAndReports:
    def test_flat_run_passes(self):
        cfg = parse_config(FLAT_Z2)
        report = run_suite(cfg)
        assert report.passed
        text = report.render()
        assert "suite group" in text and "suite maps" in text
        assert "config-echo" in text

    def test_reports_are_byte_identical(self):
        a = run_suite(parse_config(FLAT_Z2)).render()
        b = run_suite(parse_config(FLAT_Z2)).render()
        assert a == b

    def test_seed_changes_report(self):
        a = run_suite(parse_config(FLAT_Z2), suites=("maps",)).render()
        b = run_suite(parse_config(FLAT_Z2), suites=("maps",),
                      seed=12345).render()
        assert a != b

    def test_tol_scale_recorded(self):
        report = run_suite(parse_config(FLAT_Z2), suites=("group",),
                           tol_scale=10.0)
        assert "tol-scale: 1.0000000000000000e+01" in report.render()

    @pytest.mark.parametrize("scale", [1.0, 10.0])
    def test_every_check_states_its_tolerance(self, scale):
        report = run_suite(parse_config(DEFAULT_FOOTBALL3), tol_scale=scale)
        got = {(suite, rec.name): rec.tolerance for suite, rec in report.records}
        assert len(got) == len(report.records) == 49
        assert got == {key: base * scale
                       for key, base in FOOTBALL_TOLERANCES.items()}

    def test_pass_flags_match_residuals(self):
        report = run_suite(parse_config(FLAT_Z2))
        for _, rec in report.records:
            assert rec.passed == (rec.residual <= rec.tolerance)

    def test_grid_override_leaves_the_callers_config_unchanged(self):
        cfg = parse_config(FLAT_Z2)
        before = (cfg.strata_resolution, cfg.verify_resolution)
        report = run_suite(cfg, suites=("strata", "riemann"), grid_override=8)
        assert (cfg.strata_resolution, cfg.verify_resolution) == before
        assert (report.config.strata_resolution,
                report.config.verify_resolution) == (8, 8)
        assert "resolution 8" in report.render()
        # the in-place override ran on the caller's config set to the grid
        cfg.strata_resolution = cfg.verify_resolution = 8
        assert report.render() == run_suite(
            cfg, suites=("strata", "riemann")).render()

    def test_describe_football(self):
        text = describe(parse_config(DEFAULT_FOOTBALL3))
        assert "strata: 3" in text
        assert text.count("isotropy order 3: point") == 2

    def test_describe_manifold_single_stratum(self):
        cfg = parse_config(FLAT_Z2.replace("generator = -1", "")
                           .replace("halfline", "segment"))
        assert "strata: 1" in describe(cfg)

    def test_trivial_group_config_has_exact_zero_residuals(self):
        cfg = parse_config(FLAT_Z2.replace("generator = -1", "")
                           .replace("halfline", "segment"))
        report = run_suite(cfg, suites=("group", "maps", "tangent"))
        assert report.passed
        zero_names = {"closure", "identity_equivariance", "equivariance",
                      "center_values", "combination_equivariance"}
        for _, rec in report.records:
            if rec.name in zero_names:
                assert rec.residual == 0.0


class TestDumps:
    def test_partition_columns_sum_to_one(self):
        cfg = parse_config(FLAT_Z2)
        _, text = dump_fields(cfg, "partition", grid=9)
        rows = text.strip().splitlines()
        header = rows[0].split(",")
        for row in rows[1:]:
            total = float(row.split(",")[-1])
            assert total == pytest.approx(1.0, abs=1e-9)
        assert header[-1] == "total"

    def test_orbisection_dump_has_value_columns(self):
        cfg = parse_config(FLAT_Z2)
        name, text = dump_fields(cfg, "orbisection", grid=9)
        assert name == "orbisection_halfline.csv"
        assert text.splitlines()[0] == "x0,s_x0"

    def test_metric_dump_min_eigenvalue_positive(self):
        cfg = parse_config(WIDE_MIRROR)
        _, text = dump_fields(cfg, "metric", grid=4)
        rows = text.strip().splitlines()
        assert rows[0].split(",")[-1] == "min_eigenvalue"
        for row in rows[1:]:
            assert float(row.split(",")[-1]) > 0.0

    def test_zero_section_dumps_all_zero_columns(self):
        from orbidiff.model import build_atlas
        from orbidiff.tangent import zero_orbisection
        cfg = parse_config(FLAT_Z2)
        orbifold = cfg.build_orbifold()
        atlas = build_atlas(orbifold, resolution=cfg.atlas_resolution)
        _, text = dump_fields(cfg, "orbisection", grid=9,
                              section=zero_orbisection(orbifold, atlas))
        for row in text.strip().splitlines()[1:]:
            assert float(row.split(",")[-1]) == 0.0

    def test_describe_product_corner(self):
        cfg = parse_config("""[orbifold]
name = corner
model = flat
dimension = 2
generator = -1 0 0 1
generator = 1 0 0 -1

[atlas]
resolution = 13
""")
        text = describe(cfg)
        assert "isotropy order 4" in text


class TestCli:
    def test_run_exit_zero_and_writes_report(self, tmp_path):
        cfg_file = tmp_path / "flat.cfg"
        cfg_file.write_text(FLAT_Z2)
        code = cli.main(["run", "--config", str(cfg_file), "--out",
                         str(tmp_path / "out")])
        assert code == 0
        report = (tmp_path / "out" / "report_halfline.txt").read_text()
        assert "pass: true" in report

    def test_failing_check_exits_one(self, tmp_path):
        # an absurd tolerance scale turns round-off residuals into failures
        code = cli.main(["run", "--suite", "group", "--tol-scale", "1e-18",
                         "--out", str(tmp_path / "out")])
        assert code == 1

    def test_config_error_exits_two(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("[orbifold]\nmodel = flat\n")
        assert cli.main(["run", "--config", str(cfg_file)]) == 2

    def test_describe_subcommand(self, capsys, tmp_path):
        cfg_file = tmp_path / "flat.cfg"
        cfg_file.write_text(FLAT_Z2)
        assert cli.main(["describe", "--config", str(cfg_file)]) == 0
        out = capsys.readouterr().out
        assert "orbifold halfline" in out

    def test_dump_subcommand(self, tmp_path):
        cfg_file = tmp_path / "flat.cfg"
        cfg_file.write_text(FLAT_Z2)
        code = cli.main(["dump", "--config", str(cfg_file), "--which",
                         "partition", "--grid", "7", "--out",
                         str(tmp_path / "d")])
        assert code == 0
        assert (tmp_path / "d" / "partition_halfline.csv").exists()

    def test_flat_orbisection_dump_on_an_empty_grid_writes_its_header(
            self, tmp_path):
        cfg_file = tmp_path / "flat.cfg"
        cfg_file.write_text(FLAT_Z2)
        code = cli.main(["dump", "--config", str(cfg_file), "--which",
                         "orbisection", "--grid", "1", "--out",
                         str(tmp_path / "d")])
        assert code == 0
        text = (tmp_path / "d" / "orbisection_halfline.csv").read_text()
        assert text.splitlines() == ["x0,s_x0"]

    def test_run_grid_dumps_at_the_grid(self, tmp_path):
        cfg_file = tmp_path / "flat.cfg"
        cfg_file.write_text(FLAT_Z2)
        assert cli.main(["run", "--config", str(cfg_file), "--suite", "group",
                         "--grid", "7", "--out", str(tmp_path / "r")]) == 0
        assert cli.main(["dump", "--config", str(cfg_file), "--which",
                         "partition", "--grid", "7", "--out",
                         str(tmp_path / "d")]) == 0
        run_csv = (tmp_path / "r" / "partition_halfline.csv").read_text()
        assert run_csv == (tmp_path / "d" / "partition_halfline.csv").read_text()
        assert run_csv != dump_fields(parse_config(FLAT_Z2), "partition")[1]

    def test_repeatable_suite_flag(self, tmp_path):
        cfg_file = tmp_path / "flat.cfg"
        cfg_file.write_text(FLAT_Z2)
        code = cli.main(["run", "--config", str(cfg_file), "--suite", "group",
                         "--suite", "maps", "--out", str(tmp_path / "o")])
        assert code == 0
        text = (tmp_path / "o" / "report_halfline.txt").read_text()
        assert "suite group" in text and "suite maps" in text
        assert "suite riemann" not in text


# flat configs whose exp checks once left the model or assumed a 2-D
# tangent disc
FLAT_RUNS = {
    "half-line": FLAT_Z2.replace("suites = group, maps\n", ""),
    "wide mirror": WIDE_MIRROR,
    "disk mod Z4 radius 1": "[orbifold]\nname = diskz4\nmodel = flat\n"
                            "dimension = 2\ngenerator = 0 -1 1 0\n\n"
                            "[run]\nseed = 5\n",
}


@pytest.mark.parametrize("case", FLAT_RUNS)
def test_flat_configs_run_every_suite_to_a_report(case, tmp_path, capsys):
    cfg_file = tmp_path / "flat.cfg"
    cfg_file.write_text(FLAT_RUNS[case])
    code = cli.main(["run", "--config", str(cfg_file), "--out",
                     str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 0
    assert err == ""
    report = next((tmp_path / "out").glob("report_*.txt")).read_text()
    assert "suite theorem1" in report and "  failed: 0" in report


# (config text, extra ``run`` arguments) that the parser or the CLI must refuse
BAD_INPUT = {
    "radius nan": (FLAT_Z2.replace("radius = 2.0", "radius = nan"), []),
    "radius inf": (FLAT_Z2.replace("radius = 2.0", "radius = inf"), []),
    "atlas resolution -5": (FLAT_Z2.replace("resolution = 15",
                                            "resolution = -5"), []),
    "max_charts 0": (FLAT_Z2.replace("resolution = 15",
                                     "resolution = 15\nmax_charts = 0"), []),
    "max_order 0": (FLAT_Z2.replace("generator = -1",
                                    "generator = -1\nmax_order = 0"), []),
    "seed -1": (FLAT_Z2.replace("seed = 3", "seed = -1"), []),
    "verify_resolution 0": (FLAT_Z2 + "\n[grids]\nverify_resolution = 0\n", []),
    "strata_resolution 0": (FLAT_Z2 + "\n[grids]\nstrata_resolution = 0\n", []),
    "roundtrip nan": (FLAT_Z2 + "\n[tolerances]\nroundtrip = nan\n", []),
    "composition tolerance": (FLAT_Z2 + "\n[tolerances]\ncomposition = 1e-8\n",
                              []),
    "chart_per_axis": (FLAT_Z2 + "\n[grids]\nchart_per_axis = 5\n", []),
    "misspelt key": (FLAT_Z2 + "\n[grids]\nverify_resolutoin = 3\n", []),
    "grid section": (FLAT_Z2 + "\n[grid]\nverify_resolution = 3\n", []),
    "map section": (FLAT_Z2 + "\n[map rot]\ntype = rotation\nangle = 0.4\n", []),
    "curve section": (FLAT_Z2 + "\n[curve c]\ninterval = -1 1\n"
                      "segment = t\n", []),
    "--grid 0": (FLAT_Z2, ["--grid", "0"]),
    "--seed -1": (FLAT_Z2, ["--seed", "-1"]),
    "--tol-scale 0": (FLAT_Z2, ["--tol-scale", "0"]),
    "--tol-scale nan": (FLAT_Z2, ["--tol-scale", "nan"]),
    # the flat grid at resolution 2 has no row inside 0.75 of the radius
    "--grid 2": (FLAT_Z2, ["--grid", "2"]),
    "name with a slash": (FLAT_Z2.replace("name = halfline", "name = a/b"), []),
    "empty name": (FLAT_Z2.replace("name = halfline", "name ="), []),
    "name with a NUL": (FLAT_Z2.replace("name = halfline", "name = a\0b"), []),
}


@pytest.mark.parametrize("case", BAD_INPUT)
def test_bad_input_exits_two_without_traceback(case, tmp_path, capsys):
    text, extra = BAD_INPUT[case]
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(text)
    code = cli.main(["run", "--config", str(cfg_file), "--suite", "group",
                     "--out", str(tmp_path / "out"), *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_a_config_file_without_a_stem_needs_a_name(tmp_path, capsys):
    # the file name gives the default name, and ".cfg" gives the empty one
    cfg_file = tmp_path / ".cfg"
    cfg_file.write_text(FLAT_Z2.replace("name = halfline\n", ""))
    code = cli.main(["run", "--config", str(cfg_file), "--out",
                     str(tmp_path / "out")])
    assert code == 2
    assert "orbifold.name: must be non-empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,default,value", [("sections", 4, -3),
                                               ("sections", 4, 0),
                                               ("diffeos", 2, 0)])
def test_run_counts_below_one_exit_two_naming_the_key(key, default, value,
                                                      tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(FLAT_Z2.replace(f"{key} = {default}", f"{key} = {value}"))
    code = cli.main(["run", "--config", str(cfg_file), "--out",
                     str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"run.{key}: must be at least 1, got {value}" in err
    assert not (tmp_path / "out").exists()


S2_D2H = """\
[orbifold]
name = s2d2h
model = sphere
dimension = 2
generator = -1 0 0 0 1 0 0 0 1
generator = 1 0 0 0 -1 0 0 0 1
generator = 1 0 0 0 1 0 0 0 -1
"""

STRUCTURE_PATH = """\
import contextlib, io, sys
import numpy as np
from orbidiff import cli, groups, maps, model
group = groups.generate_group([np.diag([-1.0, 1.0, 1.0]), np.diag([1.0, -1.0, 1.0]),
                               np.diag([1.0, 1.0, -1.0])])
orb = model.GoodOrbifold(model.ModelSpace(model.SPHERE, 2), group)
atlas = model.build_atlas(orb, resolution=16)
assert len(model.strata(orb, resolution=32)) == 7
edges = maps.overlap_graph(orb, atlas)
assert maps.enumerate_identity_lifts(orb, atlas, edges=edges).is_abelian
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["describe", "--config", sys.argv[1]]) == 0
print(*sorted(sys.modules))
"""


RUN_GROUP_SUITE = """\
import contextlib, io, sys
from orbidiff import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["run", "--suite", "group", "--seed", "1",
                     "--out", sys.argv[1]]) == 0
print(*sorted(sys.modules))
"""


def test_cli_import_loads_no_scipy_subpackage(tmp_path):
    # scipy.spatial alone took about 0.4 s of a 0.66 s start-up; scipy and
    # hashlib (OpenSSL) cost 1.2 and 3.6 MB of resident memory, and only a
    # rendered report reads hashlib; the library reads no scipy at all;
    # numpy.ma, 1.2 MB, came in through np.unique
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))

    def modules(script, *args):
        return subprocess.run(
            [sys.executable, "-c", script, *args], env=env,
            capture_output=True, text=True, check=True).stdout.split()

    loaded = modules("import sys, orbidiff.cli; print(*sorted(sys.modules))")
    assert not [m for m in loaded if m in ("scipy", "_hashlib")
                or m.startswith("scipy.")]
    cfg = tmp_path / "s2d2h.cfg"
    cfg.write_text(S2_D2H, encoding="utf-8")
    loaded = modules(STRUCTURE_PATH, str(cfg))
    assert "orbidiff.suites" in loaded
    assert not [m for m in loaded if m in ("scipy", "_hashlib", "numpy.ma")
                or m.startswith(("scipy.", "numpy.ma."))]
    # a run renders a report on the default football
    out = tmp_path / "run"
    loaded = modules(RUN_GROUP_SUITE, str(out))
    assert "orbidiff.suites" in loaded and list(out.glob("report_*.txt"))
    assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


@pytest.mark.parametrize("entry", ["1e308", "-1e308", "inf", "nan"])
def test_huge_or_non_finite_generators_are_refused_quietly(entry):
    # the orthogonality test once overflowed in its product, and the message
    # overflowed in rounding, each with a RuntimeWarning
    text = FLAT_Z2.replace("generator = -1", f"generator = {entry}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigInvalid, match="not orthogonal") as info:
            parse_config(text)
    assert f"[[{float(entry)}]]" in str(info.value)


# -- fuzzed [orbifold] sections ------------------------------------------------

ENTRY = ["0", "1", "-1", "0.5", "-0.5", "0.8660254037844387",
         "-0.8660254037844387", "2", "1e-13", "1e308", "nan", "inf", "-inf",
         "x", "1,0", "0x1"]
# orthogonal generators by width, among them rotations of order 3, 4 and 6
# that can close into infinite groups (refused past max_order)
ORTHOGONAL = {
    1: ["-1", "1"],
    2: ["0 -1 1 0", "1 0 0 -1", "-0.5 -0.8660254037844387 0.8660254037844387 -0.5",
        "0.5 -0.8660254037844387 0.8660254037844387 0.5"],
    3: ["0 0 1 1 0 0 0 1 0", "0 -1 0 1 0 0 0 0 1", "-1 0 0 0 -1 0 0 0 -1",
        "1 0 0 0 1 0 0 0 -1",
        "0.5 -0.8660254037844387 0 0.8660254037844387 0.5 0 0 0 1",
        "1 0 0 0 0.5 -0.8660254037844387 0 0.8660254037844387 0.5"],
}


@st.composite
def generator_values(draw, width):
    """An orthogonal matrix (of the model's width when it has one), one with
    a token replaced, or a run of tokens."""
    kind = draw(st.sampled_from(["orthogonal"] * 4 + ["spoiled", "tokens"]))
    if kind == "tokens":
        return " ".join(draw(st.lists(st.sampled_from(ENTRY), max_size=10)))
    widths = [width] if width in ORTHOGONAL and draw(st.integers(0, 3)) else ORTHOGONAL
    tokens = draw(st.sampled_from([m for w in widths for m in ORTHOGONAL[w]])).split()
    if kind == "spoiled":
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(ENTRY))
    return " ".join(tokens)


@st.composite
def orbifold_sections(draw):
    model, dimension = draw(st.one_of(
        st.sampled_from([("flat", "1"), ("flat", "2"), ("flat", "3"),
                         ("sphere", "2")]),
        st.tuples(st.sampled_from(["flat", "sphere", "torus", ""]),
                  st.sampled_from(["1", "2", "3", "4", "1" + "0" * 30, "0", "-1",
                                   "2.5", "x", ""]))))
    width = int(dimension) + (model == "sphere") if dimension.isdigit() else None
    gens = draw(st.lists(generator_values(width), max_size=3))
    radius = draw(st.sampled_from(["", "1", "1.0", "2.0", "3.0", "0", "-1",
                                   "1e-300", "1e308", "nan", "inf", "x"]))
    return "".join(["[orbifold]\nname = fuzz\n", f"model = {model}\n",
                    f"dimension = {dimension}\n", "max_order = 48\n",
                    f"radius = {radius}\n" if radius else "",
                    *(f"generator = {g}\n" for g in gens)])


# small grids keep each run short; the fuzz varies only [orbifold]
FUZZ_REST = """
[atlas]
resolution = 9
max_charts = 64

[grids]
strata_resolution = 16
verify_resolution = 8

[run]
seed = 3
"""


@given(section=orbifold_sections())
@settings(max_examples=40, deadline=10000)
def test_fuzzed_orbifold_sections_exit_without_a_traceback(section):
    # numpy warnings are errors here: one would be a traceback under -W error
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg_file = Path(tmp) / "fuzz.cfg"
        cfg_file.write_text(section + FUZZ_REST)
        code = cli.main(["run", "--config", str(cfg_file), "--suite", "group",
                         "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
