"""Per-layer tracing of windlayout from outside the package.

Public functions are wrapped at every module-level name that refers to them
inside ``windlayout`` (the names their callers look up), and methods are
wrapped on their class. Nothing under ``src/`` is edited. Calls that are few
and expensive become spans (name, op id, span id, parent id, start, end);
hot small calls such as ``ChaosStream.index`` only bump counters, so their
cost stays part of the caller's self time.

Spans are kept in memory and reduced to per-layer metrics when the run
ends. A span's self time is its duration minus the durations of its direct
children.
"""

import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def rebind(original, replacement):
    """Point every ``windlayout.*`` module-level name bound to ``original`` at
    ``replacement``; return the list of (module, name) pairs changed."""
    changed = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "windlayout" or mod_name.startswith("windlayout.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


class Tracer:
    """Span and counter recorder installed around the windlayout layers."""

    def __init__(self):
        self.op = 0
        self.spans = []  # (op, span id, parent id, name, t0, t1)
        self.counts = Counter()
        self.draw_hist = {}  # ChaosStream.index range n -> per-cell counts
        self.evaluate_directions = {}  # id(FarmEvaluator) -> wind directions
        self._stack = [0]
        self._next_id = 1
        self._undo = []

    # -- wrapping ---------------------------------------------------------

    def _span(self, name, fn, before=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((tracer.op, sid, parent, name, t0, t1))

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_function(self, module, attr, make):
        original = getattr(module, attr, None)
        if original is None:
            return
        for owner, name in rebind(original, make(original)):
            self._undo.append((owner, name, original))

    def _wrap_method(self, cls, attr, make):
        original = cls.__dict__.get(attr)
        if original is None:
            return
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def install(self, wl):
        """Wrap the layers of the imported ``windlayout`` package ``wl``."""
        c = self.counts
        geometry, wake, power = wl.geometry, wl.wake, wl.power
        optimizer, study, cli = wl.optimizer, wl.study, wl.cli

        def count_pairs(args, kwargs):
            c["geometry.overlap_areas.pairs"] += np.broadcast(*args[:3]).size

        def count_table(args, kwargs):
            m = len(args[0])
            c["wake.squared_deficit_matrix.table_bytes"] += m * m * 8

        def count_elements(args, kwargs):
            c["power.power_values.elements"] += np.size(args[1])

        def count_gather(args, kwargs):
            evaluator, indices = args[0], args[1] if len(args) > 1 else kwargs.get("indices")
            n = len(evaluator.points) if indices is None else len(indices)
            directions = self.evaluate_directions.get(id(evaluator))
            if directions is None:
                directions = len({t for t, _, _ in evaluator.scenario.bins})
                self.evaluate_directions[id(evaluator)] = directions
            c["power.evaluate.gather_bytes"] += directions * n * n * 8

        def count_write(args, kwargs):
            c["cli.bytes_written"] += len(args[1].encode())

        def count_sweep_points(args, kwargs):
            c["study.sweep_points"] += len(args[0])

        self._wrap_function(geometry, "overlap_areas",
                            lambda f: self._span("geometry.overlap_areas", f, count_pairs))
        self._wrap_function(wake, "squared_deficit_matrix",
                            lambda f: self._span("wake.squared_deficit_matrix", f, count_table))
        self._wrap_function(power, "power_values",
                            lambda f: self._span("power.power_values", f, count_elements))
        self._wrap_method(power.FarmEvaluator, "__init__",
                          lambda f: self._span("power.precompute", f))
        self._wrap_method(power.FarmEvaluator, "evaluate",
                          lambda f: self._span("power.evaluate", f, count_gather))
        self._wrap_method(power.FarmEvaluator, "per_turbine_power",
                          lambda f: self._span("power.per_turbine_power", f))
        self._wrap_function(optimizer, "run_aga", self._search_span)
        self._wrap_function(study, "shrink_sweep",
                            lambda f: self._span("study.shrink_sweep", f, count_sweep_points))
        self._wrap_function(cli, "_write_text",
                            lambda f: self._span("cli.write", f, count_write))
        self._wrap_function(cli, "main", lambda f: self._span("cli", f))
        self._wrap_method(optimizer.ChaosStream, "index", self._count_index)
        self._wrap_function(optimizer, "chaos_position", self._count_position)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _search_span(self, fn):
        inner = self._span("optimizer.search", fn)
        counts = self.counts

        def run_aga(*args, **kwargs):
            best, trace = inner(*args, **kwargs)
            params = args[0] if args else kwargs["params"]
            counts["optimizer.layouts_ranked"] += len(trace) * params.population
            return best, trace

        run_aga.__wrapped__ = fn
        return run_aga

    def _count_index(self, fn):
        counts, hists = self.counts, self.draw_hist

        def index(stream, n):
            i = fn(stream, n)
            counts["optimizer.chaos.draws"] += 1
            hist = hists.get(n)
            if hist is None:
                hist = hists[n] = [0] * n
            hist[i] += 1
            return i

        index.__wrapped__ = fn
        return index

    def _count_position(self, fn):
        counts = self.counts

        def chaos_position(*args, **kwargs):
            before = counts["optimizer.chaos.draws"]
            idx = fn(*args, **kwargs)
            counts["optimizer.chaos_position.calls"] += 1
            counts["optimizer.chaos_position.draws"] += counts["optimizer.chaos.draws"] - before
            return idx

        chaos_position.__wrapped__ = fn
        return chaos_position

    # -- reduction --------------------------------------------------------

    def layer_metrics(self, traced_ops: int) -> dict:
        """Per-op layer metrics over ``traced_ops`` traced operations, as
        name -> (value, unit)."""
        per_op = 1.0 / max(traced_ops, 1)
        child_time = defaultdict(float)
        name_of = {0: None}
        parent_of = {}
        for _, sid, parent, name, t0, t1 in self.spans:
            child_time[parent] += t1 - t0
            name_of[sid] = name
            parent_of[sid] = parent
        calls = Counter()
        self_s = defaultdict(float)
        evaluate_us = []
        fitness = 0
        precompute_in_sweep = 0
        for _, sid, parent, name, t0, t1 in self.spans:
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_time[sid]
            if name == "power.evaluate":
                evaluate_us.append((t1 - t0) * 1e6)
                fitness += name_of[parent] == "optimizer.search"
            elif name == "power.precompute":
                node = parent
                while node and name_of[node] != "study.shrink_sweep":
                    node = parent_of[node]
                precompute_in_sweep += bool(node)

        c = self.counts
        ranked = c["optimizer.layouts_ranked"]
        position_draws = c["optimizer.chaos_position.draws"]
        grid_hist = self.draw_hist[max(self.draw_hist)] if self.draw_hist else [0]
        median_cell = statistics.median(grid_hist)
        sweep_points = c["study.sweep_points"]
        metrics = {}
        for layer in ("geometry.overlap_areas", "wake.squared_deficit_matrix", "power.precompute",
                      "power.evaluate", "power.power_values"):
            metrics[f"{layer}.calls"] = (calls[layer] * per_op, "count/op")
            metrics[f"{layer}.self_s"] = (self_s[layer] * per_op, "s/op")
        for name, unit in (("geometry.overlap_areas.pairs", "count/op"),
                           ("wake.squared_deficit_matrix.table_bytes", "bytes/op"),
                           ("power.evaluate.gather_bytes", "bytes/op"),
                           ("power.power_values.elements", "count/op"),
                           ("optimizer.layouts_ranked", "count/op"),
                           ("optimizer.chaos.draws", "count/op"),
                           ("cli.bytes_written", "bytes/op")):
            metrics[name] = (c[name] * per_op, unit)
        for q in (50, 99):
            value = float(np.percentile(evaluate_us, q)) if evaluate_us else 0.0
            metrics[f"power.evaluate.p{q}_us"] = (value, "us")
        metrics.update({
            "optimizer.search.self_s": (self_s["optimizer.search"] * per_op, "s/op"),
            "optimizer.fitness_evals": (fitness * per_op, "count/op"),
            "optimizer.relocation_evals": (calls["power.per_turbine_power"] * per_op, "count/op"),
            "optimizer.cache_hit_ratio": ((ranked - fitness) / ranked if ranked else 0.0, "fraction"),
            "optimizer.chaos_position.accept_ratio": (
                c["optimizer.chaos_position.calls"] / position_draws if position_draws else 0.0,
                "fraction"),
            "optimizer.chaos.cell_max_median": (
                max(grid_hist) / median_cell if median_cell else 0.0, "ratio"),
            "study.shrink_sweep.self_s": (self_s["study.shrink_sweep"] * per_op, "s/op"),
            "study.precompute_per_point": (
                precompute_in_sweep / sweep_points if sweep_points else 0.0, "count/point"),
            "cli.self_s": (self_s["cli"] * per_op, "s/op"),
            "cli.write_s": (self_s["cli.write"] * per_op, "s/op"),
        })
        return metrics
