"""Spans and counts at the entry functions of each ``spepi`` module.

The benchmark patches each entry function under the name its caller looks
it up by (``cli`` imports ``simulate`` by name, ``model`` calls
``_kernels.run_chunk`` through the module, ...), so nothing in ``src/``
changes.  A span records name, start, end and parent; self time is a
span's duration minus the part its child spans cover.  Spans are kept in
memory and written out as JSON when the run ends.

``incidence.phi`` runs once per step on the generic path, so it is
aggregated (calls, time, and its parent's child time) without a span
record of its own.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent id, name, start, end]
        self.stack = []  # open frames: [id, name, start, child time]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer_outer = defaultdict(float)  # outermost spans of each layer
        self.counts = defaultdict(float)
        self._next_id = 0
        self._patched = []

    def wrap(self, name, fn, count=None, record=True):
        """``fn`` inside a span; ``count(counts, args, result, dur)`` runs after it."""
        layer = name.split(".", 1)[0]
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, name, 0.0, 0.0]
            stack.append(frame)
            frame[2] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[3]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += dur
                if parent is None or parent[1].split(".", 1)[0] != layer:
                    tracer.layer_outer[layer] += dur
                if record:
                    tracer.spans.append(
                        [sid, parent[0] if parent else None, name, start, end])
            if count is not None:
                count(tracer.counts, args, result, dur)
            return result

        return traced

    def patch(self, table):
        """Install wrappers for ``(module, attribute, span name, count, record)`` rows."""
        wrappers = {}
        for module_name, attr, name, count, record in table:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            key = (id(original), name)
            if key not in wrappers:
                wrappers[key] = self.wrap(name, original, count, record)
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, wrappers[key])

    def unpatch(self):
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    def summary(self) -> dict:
        return {name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.self_time[name]} for name in sorted(self.calls)}


# --- counts -----------------------------------------------------------------

def _count_simulate(counts, args, traj, dur):
    counts["model.steps"] += traj.n_steps


def _count_chunk(counts, args, result, dur):
    rows = result[0]
    counts["_kernels.rows"] += rows
    outer = args[8]  # run_chunk(S, I, R, phi_entry, gamma, ik, v1, v2, ok, op, ...)
    if outer == 1:
        counts["contacts.table_rows"] += rows
        counts["contacts.table_s"] += dur
    elif outer == 2:
        counts["contacts.poisson_rows"] += rows
        counts["contacts.poisson_s"] += dur


def _count_regularity(counts, args, report, dur):
    counts["incidence.regularity_points"] += report.points_checked


def _count_perron(counts, args, pd, dur):
    counts["spectral.perron_iterations"] += pd.iterations


def _count_bisection(counts, args, res, dur):
    counts["asymptotics.bisection_iterations"] += res.iterations


def _count_csv(counts, args, result, dur):
    traj, path = args[0], args[1]
    counts["cli.csv_rows"] += len(traj.S)
    counts["cli.csv_bytes"] += os.path.getsize(path)


# (module, attribute, span name, count, keep span records)
PATCHES = (
    ("spepi.cli", "main", "cli.main", None, True),
    ("spepi.cli", "_write_trajectory_csv", "cli.csv_write", _count_csv, True),
    ("spepi.cli", "load_scenario", "scenario.load", None, True),
    ("spepi.cli", "figure_scenarios", "scenario.figures", None, True),
    ("spepi.cli", "scenario_to_dict", "scenario.to_dict", None, True),
    ("spepi.cli", "set_scenario_value", "scenario.set_value", None, True),
    ("spepi.cli", "scenario_from_dict", "scenario.build", None, True),
    ("spepi.scenario", "scenario_from_dict", "scenario.build", None, True),
    ("spepi.scenario", "compose_incidence", "contacts.compose", None, True),
    ("spepi.scenario", "poisson_incidence", "contacts.compose", None, True),
    ("spepi.cli", "simulate", "model.simulate", _count_simulate, True),
    ("spepi.asymptotics", "simulate", "model.simulate", _count_simulate, True),
    ("spepi.model", "simulate", "model.simulate", _count_simulate, True),
    ("spepi.model", "_simulate_generic", "model.generic", None, True),
    ("spepi._kernels", "run_chunk", "_kernels.run_chunk", _count_chunk, True),
    ("spepi.incidence", "IncidenceModel.phi", "incidence.phi", None, False),
    ("spepi.cli", "validate_regularity", "incidence.regularity", _count_regularity, True),
    ("spepi.incidence", "validate_regularity", "incidence.regularity", _count_regularity, True),
    ("spepi.spectral", "r0", "spectral.r0", None, True),
    ("spepi.asymptotics", "r0", "spectral.r0", None, True),
    ("spepi.prevalence", "r0", "spectral.r0", None, True),
    ("spepi.spectral", "build_B", "spectral.build_B", None, True),
    ("spepi.asymptotics", "build_B", "spectral.build_B", None, True),
    ("spepi.spectral", "nrv", "spectral.nrv", None, True),
    ("spepi.spectral", "perron", "spectral.perron", _count_perron, True),
    ("spepi.asymptotics", "perron", "spectral.perron", _count_perron, True),
    ("spepi.asymptotics", "final_size_bounds", "asymptotics.final_size_bounds", None, True),
    ("spepi.asymptotics", "final_size_equation_solve", "asymptotics.final_size_equation",
     _count_bisection, True),
    ("spepi.asymptotics", "limit_direction", "asymptotics.limit_direction", None, True),
    ("spepi.asymptotics", "tail_sum_check", "asymptotics.tail_sum", None, True),
    ("spepi.asymptotics", "monotonicity_onset", "asymptotics.monotonicity_onset", None, True),
    ("spepi.prevalence", "classify_shape", "prevalence.classify_shape", None, True),
    ("spepi.prevalence", "initial_rise_predicate_general", "prevalence.predicates", None, True),
    ("spepi.prevalence", "threshold_decay_predicate", "prevalence.predicates", None, True),
    ("spepi.prevalence", "outbreak_predicate_lastclass", "prevalence.predicates", None, True),
    ("spepi.prevalence", "monotone_decay_ratio_check", "prevalence.predicates", None, True),
)

# (metric, unit, better); how each is computed is in per_layer_metrics.
# Metric names start with a letter, so the _kernels layer reports as kernels.
PER_LAYER = (
    ("scenario.build_s", "s", "lower"),
    ("scenario.builds", "count", "lower"),
    ("model.simulate_self_s", "s", "lower"),
    ("model.runs", "count", "lower"),
    ("model.steps", "count", "lower"),
    ("model.generic_s", "s", "lower"),
    ("kernels.run_chunk_s", "s", "lower"),
    ("kernels.chunks", "count", "lower"),
    ("kernels.steps_per_s", "1/s", "higher"),
    ("contacts.table_steps_per_s", "1/s", "higher"),
    ("contacts.poisson_steps_per_s", "1/s", "higher"),
    ("incidence.phi_s", "s", "lower"),
    ("incidence.phi_calls", "count", "lower"),
    ("incidence.regularity_s", "s", "lower"),
    ("incidence.regularity_points", "count", "lower"),
    ("spectral.perron_s", "s", "lower"),
    ("spectral.perron_iterations", "count", "lower"),
    ("spectral.nrv_s", "s", "lower"),
    ("asymptotics.final_size_equation_s", "s", "lower"),
    ("asymptotics.bisection_iterations", "count", "lower"),
    ("asymptotics.limit_direction_self_s", "s", "lower"),
    ("asymptotics.tail_sum_s", "s", "lower"),
    ("asymptotics.monotonicity_onset_s", "s", "lower"),
    ("prevalence.classify_shape_s", "s", "lower"),
    ("prevalence.predicates_s", "s", "lower"),
    ("cli.csv_write_s", "s", "lower"),
    ("cli.csv_rows", "count", "lower"),
    ("cli.csv_bytes", "B", "lower"),
    ("cli.self_s", "s", "lower"),
)


def per_layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Every per-layer metric; times and counts are per operation, rates are ratios.

    A layer that did not run in the workload reads 0.
    """
    t, s, c, n = tracer.total, tracer.self_time, tracer.calls, tracer.counts

    def rate(rows, secs):
        return rows / secs if secs > 0.0 else 0.0

    values = {
        "scenario.build_s": tracer.layer_outer["scenario"] / ops,
        "scenario.builds": c["scenario.build"] / ops,
        "model.simulate_self_s": s["model.simulate"] / ops,
        "model.runs": c["model.simulate"] / ops,
        "model.steps": n["model.steps"] / ops,
        "model.generic_s": s["model.generic"] / ops,
        "kernels.run_chunk_s": t["_kernels.run_chunk"] / ops,
        "kernels.chunks": c["_kernels.run_chunk"] / ops,
        "kernels.steps_per_s": rate(n["_kernels.rows"], t["_kernels.run_chunk"]),
        "contacts.table_steps_per_s": rate(n["contacts.table_rows"], n["contacts.table_s"]),
        "contacts.poisson_steps_per_s": rate(n["contacts.poisson_rows"],
                                             n["contacts.poisson_s"]),
        "incidence.phi_s": t["incidence.phi"] / ops,
        "incidence.phi_calls": c["incidence.phi"] / ops,
        "incidence.regularity_s": t["incidence.regularity"] / ops,
        "incidence.regularity_points": n["incidence.regularity_points"] / ops,
        "spectral.perron_s": t["spectral.perron"] / ops,
        "spectral.perron_iterations": n["spectral.perron_iterations"] / ops,
        "spectral.nrv_s": t["spectral.nrv"] / ops,
        "asymptotics.final_size_equation_s": t["asymptotics.final_size_equation"] / ops,
        "asymptotics.bisection_iterations": n["asymptotics.bisection_iterations"] / ops,
        "asymptotics.limit_direction_self_s": s["asymptotics.limit_direction"] / ops,
        "asymptotics.tail_sum_s": t["asymptotics.tail_sum"] / ops,
        "asymptotics.monotonicity_onset_s": t["asymptotics.monotonicity_onset"] / ops,
        "prevalence.classify_shape_s": t["prevalence.classify_shape"] / ops,
        "prevalence.predicates_s": t["prevalence.predicates"] / ops,
        "cli.csv_write_s": t["cli.csv_write"] / ops,
        "cli.csv_rows": n["cli.csv_rows"] / ops,
        "cli.csv_bytes": n["cli.csv_bytes"] / ops,
        "cli.self_s": s["cli.main"] / ops,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
