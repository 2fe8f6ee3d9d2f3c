"""Benchmark of orbidiff, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload disk_field_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                # every workload, one process each

A run builds the workload's inputs from ``--seed``, then runs the workload
back to back in this process (a closed loop with one caller) until
``--seconds`` have passed, and makes at least two runs.  Every run's outputs
are checked; a run that raises counts all its operations as failed.  With
``--trace 0`` the metrics are the ``end_to_end`` ones of BENCHMARK.json.  With
``--trace 1`` the benchmark makes one untraced run and two traced runs and
reports the ``per_layer`` metrics.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
SETUPS = 5
MIN_RUNS = 2
CHILD_TIMEOUT_S = 170


def cap_threads():
    """Cap BLAS and OpenMP threads at the CPUs this process may use."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = n


def import_program():
    """Import orbidiff from this checkout's ``src``, and from nowhere else."""
    package = ROOT / "src" / "orbidiff"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no orbidiff source at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import orbidiff
    if Path(orbidiff.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported orbidiff from "
                         f"{orbidiff.__file__}, not from {package}")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, p: int) -> float:
    """The p-th percentile, interpolating between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def time_setups(args) -> list[float]:
    """Wall time from spawning a fresh interpreter to the end of set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUPS):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


class Runner:
    """One workload instance, its runs, and the tally of its operations."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.last = None
        self.failures: list[str] = []

    def run_once(self, tracer) -> float:
        start = time.perf_counter()
        try:
            with tracer.span("run"):
                out = self.workload.run(tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
        elapsed = time.perf_counter() - start
        if out is None:
            self.attempted += self.workload.operations
            self.failed += self.workload.operations
            self.failures.append("run raised")
            return elapsed
        ops = self.workload.check(out, self.first)
        self.attempted += len(ops)
        bad = [name for name, ok in ops if not ok]
        self.failed += len(bad)
        self.failures.extend(bad)
        if self.first is None:
            self.first = out
        self.last = out
        return elapsed

    def gate_catches_planted_defect(self) -> bool:
        """The checker must reject a copy of the last outputs with one value
        perturbed; a gate that passes it would pass by construction."""
        if self.last is None:
            return False
        ops = self.workload.check(self.workload.plant(self.last), self.first)
        return not all(ok for _, ok in ops)


def measure(args, workloads, spans) -> tuple[dict, list[str], Runner]:
    """Untraced runs: the end-to-end metrics."""
    setup = time_setups(args)
    runner = Runner(workloads.WORKLOADS[args.workload](args.seed, WORKDIR))
    tracer = spans.NullTracer()
    times = []
    start = time.perf_counter()
    elapsed = 0.0
    while len(times) < MIN_RUNS or elapsed < args.seconds:
        times.append(runner.run_once(tracer))
        elapsed = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"setup_s": statistics.median(setup),
               "run_s": statistics.median(times),
               "peak_rss_mb": peak_kb / 1024.0}
    notes = [f"{len(times)} runs in {elapsed:.1f} s, closed loop, one caller",
             f"setup_s is the median of {SETUPS} set-ups in fresh "
             f"interpreters: " + ", ".join(f"{t:.3f}" for t in setup),
             "run times: " + ", ".join(f"{t:.3f}" for t in times)]
    trips = runner.last.get("trips") if isinstance(runner.last, dict) else None
    if trips:
        lat = [t[-1] * 1000.0 for t in trips]
        notes.append(f"roundtrip_p50_ms {percentile(lat, 50):.3f} ms, "
                     f"roundtrip_p90_ms {percentile(lat, 90):.3f} ms "
                     f"(last run, {len(lat)} round trips)")
    return metrics, notes, runner


def measure_traced(args, workloads, spans) -> tuple[dict, list[str], Runner]:
    """One untraced run, then two traced runs: the per-layer metrics."""
    runner = Runner(workloads.WORKLOADS[args.workload](args.seed, WORKDIR))
    untraced = runner.run_once(spans.NullTracer())
    tracers, traced = [], []
    for k in (1, 2):
        tracer = spans.Tracer(f"{args.workload}-seed{args.seed}-{k}")
        with spans.instrument(tracer):
            traced.append(runner.run_once(tracer))
        tracers.append(tracer)
    per_run = [layer_metrics(t) for t in tracers]
    counts_repeat = all(per_run[0][k] == per_run[1][k] for k in per_run[0]
                        if isinstance(per_run[0][k], int))
    if not counts_repeat:
        runner.failures.append("counts differ between the two traced runs")
    metrics = {k: (v if isinstance(v, int) else (v + per_run[1][k]) / 2.0)
               for k, v in per_run[0].items()}
    metrics["trace.overhead_s"] = statistics.mean(traced) - untraced
    self_sums = [sum(t.self_times().values()) for t in tracers]
    if any(abs(a - b) > 1e-3 for a, b in zip(self_sums, traced)):
        runner.failures.append("span self-times do not add up to the run")
    notes = [f"untraced run {untraced:.3f} s, traced runs "
             + ", ".join(f"{t:.3f}" for t in traced) + " s",
             "span self-times of the traced runs add up to "
             + ", ".join(f"{t:.3f}" for t in self_sums) + " s; their mean "
             f"is the untraced run_s plus trace.overhead_s "
             f"{metrics['trace.overhead_s']:.3f} s",
             "count metrics repeat across the two traced runs: "
             + ("yes" if counts_repeat else "NO")]
    path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            tracer.write(fh)
    notes.append(f"spans written to {path.relative_to(ROOT)}")
    return metrics, notes, runner


SPAN_TIMES = ("groups.generate_group", "model.build_atlas", "model.strata",
              "maps.overlap_graph", "maps.enumerate_identity_lifts",
              "maps.cs_distance", "tangent.random_orbisection",
              "tangent.seminorm", "riemann.partition_build",
              "riemann.partition_eval", "riemann.E_apply", "riemann.E_inverse",
              "riemann.roundtrip_check", "riemann.verify_diffeo",
              "riemann.exp_local_homeo_check", "suites.context",
              "suites.group", "suites.strata", "suites.maps", "suites.tangent",
              "suites.riemann", "suites.theorem1", "suites.corollary2",
              "suites.dump_fields", "cli.main")
COUNTS = ("groups.orbit.calls", "groups.stabilizer.calls", "model.charts",
          "model.strata.count", "model.distance.calls",
          "model.distances.calls", "maps.overlap_graph.edges",
          "maps.lift_candidates", "maps.cs_distance.calls",
          "tangent.field.evals")


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of one traced run; counts stay ints."""
    own = tracer.self_times()
    counts = tracer.counts
    out = {f"{name}.s": own.get(name, 0.0) for name in SPAN_TIMES}
    out.update({name: int(counts[name]) for name in COUNTS})
    candidates = counts["maps.lift_candidates"]
    out["maps.lift_yield"] = (counts["maps.lift_ids"] / candidates
                              if candidates else 0.0)
    raw = counts["riemann.partition_raw_evals"]
    out["riemann.partition_weight_yield"] = (
        counts["riemann.partition_weight_evals"] / raw if raw else 0.0)
    eval_s = own.get("riemann.partition_eval", 0.0)
    out["riemann.partition_points_per_s"] = (
        tracer.partition_points / eval_s if eval_s else 0.0)
    trips = [end - start for _, name, start, end, _ in tracer.spans
             if name == "riemann.roundtrip_check"]
    out["riemann.roundtrip_check.p50_ms"] = (
        percentile(trips, 50) * 1000.0 if trips else 0.0)
    out["riemann.roundtrip_check.p90_ms"] = (
        percentile(trips, 90) * 1000.0 if trips else 0.0)
    out["trace.unattributed_s"] = own.get("run", 0.0)
    return out


def run_one(args) -> int:
    import spans
    import workloads
    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    WORKDIR.mkdir(exist_ok=True)
    measure_fn = measure_traced if args.trace else measure
    values, notes, runner = measure_fn(args, workloads, spans)
    runner.workload.cleanup()
    gate_ok = runner.gate_catches_planted_defect()
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    fail_ratio = runner.failed / runner.attempted
    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':40s} {fail_ratio:.6g} "
          f"({runner.failed}/{runner.attempted} operations)")
    for name in sorted(set(runner.failures))[:20]:
        print(f"  FAILED: {name}")
    if not gate_ok:
        print("  FAILED: the output checker accepted a planted defect")
    correct = runner.failed == 0 and gate_ok and not runner.failures
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints their reports and a total."""
    spec = load_spec()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               w["name"], "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S + args.seconds)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {w['name']} exited "
                             f"{done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{w['name']}.{name}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="workload name (default: every workload)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cap_threads()
    import_program()
    if args.workload is None:
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
        print(time.monotonic())
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
