"""Tests of the benchmark itself: its output checks, its gates and its
command-line contract.  Run from the repository root with

    python3 -m pytest perfbench/test_perfbench.py -q

They take about a minute and sit outside the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402

SECOND_SEED = 2
SPEC = run.load_spec()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each workload's outputs on a seed other than the default, two runs."""
    cache = {}

    def get(name):
        if name not in cache:
            workdir = tmp_path_factory.mktemp(name)
            workload = workloads.WORKLOADS[name](SECOND_SEED, workdir)
            first = workload.run(spans.NullTracer())
            second = workload.run(spans.NullTracer()) \
                if name == "football3_cli" else first
            workload.cleanup()
            cache[name] = (workload, first, second)
        return cache[name]
    return get


def fail_ratio(workload, out, first) -> float:
    ops = workload.check(out, first)
    return sum(not ok for _, ok in ops) / len(ops)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_check_passes_on_a_second_seed(outputs, name):
    workload, first, second = outputs(name)
    ops = workload.check(second, first)
    assert [op for op, ok in ops if not ok] == []
    assert len(ops) == workload.operations


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_planted_output_defect_makes_fail_ratio_nonzero(outputs, name):
    workload, first, second = outputs(name)
    assert fail_ratio(workload, second, first) == 0.0
    assert fail_ratio(workload, workload.plant(second), first) > 0.0


@pytest.mark.parametrize("name, attribute, wrong", [
    ("football3_cli", "expected_checks", 50),
    ("sphere_structure", "expected",
     {"T": (12, 19, 4), "O": (24, 24, 4), "D2h": (8, 1, 7)}),
    ("disk_field_sweep", "grid_points", 4509),
])
def test_wrong_expected_value_makes_fail_ratio_nonzero(outputs, name,
                                                       attribute, wrong):
    workload, first, second = outputs(name)
    correct = getattr(workload, attribute)
    setattr(workload, attribute, wrong)
    try:
        assert fail_ratio(workload, second, first) > 0.0
    finally:
        setattr(workload, attribute, correct)


def test_football_outputs_that_differ_between_runs_fail(outputs):
    workload, first, second = outputs("football3_cli")
    changed = {**second, "files": {**second["files"]}}
    name = next(n for n in changed["files"] if n.endswith(".csv"))
    changed["files"][name] += b"\n"
    assert fail_ratio(workload, changed, first) > 0.0


def test_a_run_that_raises_counts_all_its_operations_as_failed():
    class Broken(workloads.DiskFieldSweep):
        def run(self, tracer):
            raise RuntimeError("planted")

    runner = run.Runner(Broken(SECOND_SEED, run.WORKDIR))
    runner.run_once(spans.NullTracer())
    assert runner.attempted == runner.failed == runner.workload.operations
    assert not runner.gate_catches_planted_defect()


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=175)


def test_untraced_run_prints_every_end_to_end_metric():
    done = _bench("--workload", "disk_field_sweep", "--seed", str(SECOND_SEED),
                  "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * workloads.DiskFieldSweep.roundtrips + 4
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "roundtrip_p90_ms" in done.stdout and "fail_ratio" in done.stdout


def test_traced_run_prints_every_layer_metric_and_repeats_counts():
    done = _bench("--workload", "disk_field_sweep", "--seed", str(SECOND_SEED),
                  "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stdout
    assert [n for n in result["metrics"]] == \
        [m["name"] for m in SPEC["per_layer"]]
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert metrics["riemann.partition_weight_yield"] == 1 / metrics["model.charts"]
    assert "count metrics repeat across the two traced runs: yes" in done.stdout


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "disk_field_sweep", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_times_add_up_to_the_traced_span():
    tracer = spans.Tracer("t")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    own = tracer.self_times()
    _, _, start, end, _ = tracer.spans[0]
    assert set(own) == {"outer", "inner"}
    assert sum(own.values()) == pytest.approx(end - start, abs=1e-12)
    assert all(parent == 0 for *_, parent in tracer.spans[1:])


def test_instrument_counts_calls_and_restores_every_binding():
    from orbidiff import maps, model, suites

    def bindings():
        out = {(mod.__name__, name): value for mod in spans.MODULES
               for name, value in vars(mod).items()}
        out.update({("ModelSpace", name): vars(model.ModelSpace)[name]
                    for name in ("distance", "distances")})
        out.update({("registry", name): fn
                    for name, fn in suites._SUITE_RUNNERS.items()})
        return out

    before = bindings()
    tracer = spans.Tracer("t")
    with spans.instrument(tracer):
        orbifold = model.football(2)
        atlas = model.build_atlas(orbifold, resolution=8)
        ids = maps.enumerate_identity_lifts(orbifold, atlas)
    after = bindings()
    assert tracer.counts["model.charts"] == len(atlas)
    assert tracer.counts["maps.lift_ids"] == ids.order == 4
    assert tracer.counts["maps.overlap_graph.edges"] > 0
    assert tracer.counts["groups.orbit.calls"] > 0
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
