"""In-memory spans and counters around orbidiff's public functions.

A traced run patches the functions listed in ``instrument`` wherever the
package has bound them (a module-level ``from .model import build_atlas`` is a
separate binding), records one span per call of a coarse function and one
count per call of a fine-grained one, and restores every binding on exit.
Nothing under ``src/`` changes.

A span is ``(run_id, name, start, end, parent)``; ``parent`` indexes the
enclosing span of the same run, or is -1.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import time
from collections import Counter

import orbidiff
from orbidiff import cli, config, groups, maps, model, riemann, suites, tangent

MODULES = (orbidiff, groups, model, maps, tangent, riemann, config, suites, cli)

class NullTracer:
    """Tracer used by timed runs: spans cost one context-manager call."""

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.partition_points = 0.0
        self._stack: list[int] = []
        self._partition_depth = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((self.run_id, name, time.perf_counter(), math.nan,
                           parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            run_id, _, start, _, _ = self.spans[index]
            self.spans[index] = (run_id, name, start, time.perf_counter(),
                                 parent)

    def self_times(self) -> dict[str, float]:
        """Sum of self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (_, name, start, end, _), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def write(self, fh):
        """Write every span to an open text file, one JSON object a line."""
        for run_id, name, start, end, parent in self.spans:
            fh.write(json.dumps({"run": run_id, "name": name, "start": start,
                                 "end": end, "parent": parent}) + "\n")

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, span=None, count=None, after=None):
        """``fn`` inside a span named ``span``, counting calls under
        ``count`` and passing the result through ``after``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            if span is None:
                result = fn(*args, **kwargs)
            else:
                with self.span(span):
                    result = fn(*args, **kwargs)
            return result if after is None else after(result)
        return wrapper

    def _distances(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["model.distances.calls"] += 1
            if self._partition_depth:
                # each raw chart weight makes exactly one distances call
                counts["riemann.partition_raw_evals"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _weight(self, fn, charts: int):
        counts = self.counts

        def weight(y):
            counts["riemann.partition_weight_evals"] += 1
            self.partition_points += 1.0 / charts
            self._partition_depth += 1
            try:
                with self.span("riemann.partition_eval"):
                    return fn(y)
            finally:
                self._partition_depth -= 1
        return weight

    def _after_partition(self, pou):
        n = len(pou.weights)
        return dataclasses.replace(
            pou, weights=tuple(self._weight(w, n) for w in pou.weights))

    def _after_field(self, field):
        return self.wrap(field, count="tangent.field.evals")

    def _count_len(self, key):
        def after(result):
            self.counts[key] += len(result)
            return result
        return after

    def _after_lifts(self, id_group):
        self.counts["maps.lift_candidates"] += math.prod(
            chart.isotropy.order for chart in id_group.atlas)
        self.counts["maps.lift_ids"] += id_group.order
        return id_group


def _rebind(original, replacement, undo):
    for mod in MODULES:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route orbidiff's public functions through the tracer's wrappers.

    The per-suite spans and ``suites.context`` read the suite registry and
    the context class of ``orbidiff.suites``; when a later version renames
    them those spans are simply absent and their metrics read 0.
    """
    undo: list[tuple[object, str, object]] = []
    w = tracer.wrap
    functions = [
        (groups.orbit, w(groups.orbit, count="groups.orbit.calls")),
        (groups.stabilizer,
         w(groups.stabilizer, count="groups.stabilizer.calls")),
        (groups.generate_group,
         w(groups.generate_group, span="groups.generate_group")),
        (model.build_atlas,
         w(model.build_atlas, span="model.build_atlas",
           after=tracer._count_len("model.charts"))),
        (model.strata,
         w(model.strata, span="model.strata",
           after=tracer._count_len("model.strata.count"))),
        (maps.overlap_graph,
         w(maps.overlap_graph, span="maps.overlap_graph",
           after=tracer._count_len("maps.overlap_graph.edges"))),
        (maps.enumerate_identity_lifts,
         w(maps.enumerate_identity_lifts,
           span="maps.enumerate_identity_lifts", after=tracer._after_lifts)),
        (maps.cs_distance, w(maps.cs_distance, span="maps.cs_distance",
                             count="maps.cs_distance.calls")),
        (tangent.random_orbisection,
         w(tangent.random_orbisection, span="tangent.random_orbisection")),
        (tangent.seminorm, w(tangent.seminorm, span="tangent.seminorm")),
        (tangent.project_equivariant,
         w(tangent.project_equivariant, after=tracer._after_field)),
        (riemann.equivariant_partition_of_unity,
         w(riemann.equivariant_partition_of_unity,
           span="riemann.partition_build", after=tracer._after_partition)),
        (riemann.E_apply, w(riemann.E_apply, span="riemann.E_apply")),
        (riemann.E_inverse, w(riemann.E_inverse, span="riemann.E_inverse")),
        (riemann.verify_diffeo,
         w(riemann.verify_diffeo, span="riemann.verify_diffeo")),
        (riemann.exp_local_homeo_check,
         w(riemann.exp_local_homeo_check,
           span="riemann.exp_local_homeo_check")),
        (suites.dump_fields, w(suites.dump_fields, span="suites.dump_fields")),
        (cli.main, w(cli.main, span="cli.main")),
    ]
    methods = [
        (model.ModelSpace, "distance",
         w(model.ModelSpace.distance, count="model.distance.calls")),
        (model.ModelSpace, "distances",
         tracer._distances(model.ModelSpace.distances)),
    ]
    context = getattr(suites, "_Context", None)
    if context is not None:
        methods.append((context, "__init__",
                        w(context.__init__, span="suites.context")))
    registry = getattr(suites, "_SUITE_RUNNERS", None)
    registry_before = dict(registry) if isinstance(registry, dict) else None
    try:
        for original, replacement in functions:
            _rebind(original, replacement, undo)
        for cls, attr, replacement in methods:
            undo.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, replacement)
        if registry_before is not None:
            for name, fn in registry_before.items():
                registry[name] = w(fn, span=f"suites.{name}")
        yield tracer
    finally:
        if registry_before is not None:
            registry.update(registry_before)
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
