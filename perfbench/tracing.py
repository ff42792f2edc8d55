"""In-memory spans and work counters, installed from outside the package.

Wrappers replace module attributes at the names callers look them up by
(``circlelab.runner.simulate_pdmp`` and so on).  Each wrapped call records
a span: id, parent id, trace id, layer, start, end.  Spans stay in memory
and are written out once, when the run ends.  A layer's self time is the
duration of its spans minus the part covered by their child spans; runs
are single-threaded, so child spans are disjoint and nested in their
parent.

Counters are taken at the same boundaries: from call arguments and
results, from a proxy on the velocity-jump generator that passes every
draw through unchanged, and from class-attribute wrappers on the scalar
evaluators of ``PeriodicPotential``.  Nothing here changes an RNG draw,
so a traced run writes the same bytes as an untraced one.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []       # [id, parent id, trace id, layer, start, end]
        self._stack = []
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)
        self._undo = []
        self._cells = []

    # ----- installing ---------------------------------------------------

    def span(self, owner, attr: str, layer: str, after=None) -> None:
        """Replace owner.attr by a wrapper recording one span per call.

        after(tracer, bound_arguments, result) runs once the span has
        closed, to take counts from the call."""
        original = getattr(owner, attr)
        sig = inspect.signature(original)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            root = spans[parent][2] if parent is not None else sid
            rec = [sid, parent, root, layer, time.perf_counter(), None]
            spans.append(rec)
            stack.append(sid)
            try:
                result = original(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                stack.pop()
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self, bound.arguments, result)
            return result

        self._patch(owner, attr, wrapper, original)

    def count_calls(self, cls, attr: str, key: str) -> None:
        """Count calls of a method through a class-attribute wrapper."""
        original = cls.__dict__[attr]
        cell = [0]
        self._cells.append((key, cell))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return original(*args, **kwargs)

        self._patch(cls, attr, wrapper, original)

    def replace(self, owner, attr: str, new) -> None:
        self._patch(owner, attr, new, getattr(owner, attr))

    def _patch(self, owner, attr, new, original) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        for key, cell in self._cells:
            self.counts[key] += cell[0]
            cell[0] = 0

    # ----- reading ------------------------------------------------------

    def layer_times(self):
        """(self seconds, span count) per layer."""
        child_time = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for sid, _, _, layer, start, end in self.spans:
            row = out[layer]
            row[0] += (end - start) - child_time[sid]
            row[1] += 1
        return dict(out)

    def dump(self, path: str) -> None:
        keys = ("id", "parent", "trace", "layer", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": dict(self.counts)}, fh)


class CountingGenerator:
    """Generator proxy counting exponential draws.

    Every call is forwarded to the wrapped generator with its arguments,
    and its result returned as is, so the stream is untouched."""

    __slots__ = ("_gen", "_counts")

    def __init__(self, gen, counts):
        self._gen = gen
        self._counts = counts

    def standard_exponential(self, *args, **kwargs):
        self._counts["pdmp.exp_draws"] += 1
        return self._gen.standard_exponential(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def instrument_spans(tracer: Tracer) -> None:
    """Install the spans and the counters taken at span boundaries."""
    import circlelab.control as control
    import circlelab.pdmp as pdmp
    import circlelab.runner as runner

    t = tracer
    t.span(runner, "run_scenario", "runner")
    t.span(runner, "scenario_from_dict", "config.parse")
    t.span(runner, "simulate_diffusion_ensemble", "diffusion",
           after=_diffusion_counts)
    t.span(runner, "simulate_diffusion", "diffusion", after=_diffusion_counts)
    t.span(runner, "simulate_pdmp", "pdmp", after=_pdmp_counts)
    t.span(runner, "occupation_histogram", "stats.hist", after=_hist_counts)
    t.span(runner, "detect_convergence", "stats.detect")
    t.span(runner, "tv_distance", "stats.tv")
    for name in ("classify_landscape", "compute_level_geometry"):
        t.span(runner, name, "landscape")
    for name in ("write_json", "write_trajectory_csv", "write_events_csv"):
        t.span(runner, name, "io.write", after=_bytes_written)
    t.span(runner, "hash_inventory", "io.hash")
    t.span(control, "plan_diffusion_control", "control.plan_diffusion")
    t.span(control, "plan_pdmp_velocity_schedule", "control.plan_pdmp")
    for name in ("integrate_diffusion_control", "integrate_velocity_schedule"):
        t.span(control, name, "control.integrate")
    real = pdmp.generator_from_seed
    t.replace(pdmp, "generator_from_seed",
              lambda seed: CountingGenerator(real(seed), t.counts))


def instrument_scalar_counts(tracer: Tracer) -> None:
    """Count scalar evaluator calls.  The wrappers cost more than the
    evaluators they count, so they run in a pass of their own and the
    span pass keeps its times."""
    from circlelab.potential import PeriodicPotential

    for name in ("value_s", "derivative_s", "antiderivative_s"):
        tracer.count_calls(PeriodicPotential, name, "potential.scalar_evals")


def _diffusion_counts(t: Tracer, args, result) -> None:
    width = len(args["seeds"]) if "seeds" in args else 1
    steps = width * int(round(args["horizon"] / args["dt"]))
    t.counts["diffusion.replica_steps"] += steps
    t.counts["diffusion.width_x_steps"] += width * steps
    t.counts["sim.replica_time"] += steps * args["dt"]


def _pdmp_counts(t: Tracer, args, log) -> None:
    t.counts["pdmp.jumps_landscape"] += log.causes.count("landscape")
    t.counts["pdmp.jumps_constant"] += log.causes.count("constant-rate")
    # One constant-rate clock draw per row after the first; every other
    # exponential draw is a thinning proposal.
    t.counts["pdmp.clock_draws"] += len(log.times) - 1
    t.counts["sim.replica_time"] += float(log.times[-1])
    t.samples["pdmp.abs_u_final"].append(abs(float(log.u[-1])))


def _hist_counts(t: Tracer, args, result) -> None:
    from circlelab.pdmp import EventLog

    path = args["path"]
    if isinstance(path, EventLog):
        times = path.times
        inside = (times[1:] > args["burn_in"]) & (times[:-1] < args["t_max"])
        t.counts["stats.hist_segments"] += int(inside.sum())


def _bytes_written(t: Tracer, args, result) -> None:
    import os

    t.counts["io.bytes_written"] += os.path.getsize(args["path"])
