"""Per-layer spans and counters, recorded from outside the program.

A traced run replaces each listed ``upm`` function, at every module
attribute that is bound to it (its own module and every module that
imported it by name), with a wrapper that times the call and updates
counters.  ``Tracer.restore`` puts the original functions back.  Spans
are summed in memory: total time, and self time (total minus the time
spent in nested traced calls).  A listed function that the program no
longer defines is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _length_of_first_arg(args, kwargs, result) -> int:
    return len(args[0])


def _graph_nodes(args, kwargs, result) -> int:
    # Counted after the call, outside the span: the walk is tracing cost.
    trace_graph = getattr(sys.modules["upm.engine"], "trace_graph", None)
    if trace_graph is None:
        return 0
    graph = trace_graph(args[0])
    return len(getattr(graph, "nodes", graph))


def _lbfgs_iterations(args, kwargs, result) -> int:
    return int(result.iterations)


def _one(args, kwargs, result) -> int:
    return 1


@dataclass(frozen=True)
class Probe:
    """One wrapped function: where it lives, and what it records.

    ``span`` names the timing metrics (``<span>_ms``, ``<span>_self_ms``);
    ``counter`` names a count metric, incremented by ``count(args,
    kwargs, result)`` after each call.  ``scene_key`` records the
    ``scene_id`` of the first argument, for per-scene ratios.
    """

    module: str
    attr: str
    span: str | None = None
    counter: str | None = None
    count: Callable = _one
    scene_key: bool = False


PROBES: tuple[Probe, ...] = (
    # data
    Probe("upm.data", "generate_scene", span="data.generate_scene"),
    Probe("upm.data", "save_scene", span="data.save_scene"),
    Probe("upm.data", "load_scene", span="data.load_scene"),
    # geometry and objectives: scene preparation
    Probe("upm.trainer", "prepare_scene", span="trainer.prepare_scene"),
    Probe("upm.objectives", "geo_targets", span="objectives.geo_targets"),
    Probe("upm.geometry", "chamfer_distance", span="geometry.chamfer_distance",
          counter="geometry.chamfer_calls"),
    Probe("upm.geometry", "max_coverage_sample", span="geometry.max_coverage_sample"),
    Probe("upm.geometry", "visibility_pairs", span="geometry.visibility_pairs"),
    Probe("upm.geometry", "visible_area", counter="geometry.visible_area_calls"),
    # encoder
    Probe("upm.encoder", "encode_views", span="encoder.encode_views",
          counter="encoder.views_encoded", count=_length_of_first_arg),
    Probe("upm.encoder", "encode_texts", span="encoder.encode_texts",
          counter="encoder.texts_encoded", count=_length_of_first_arg),
    Probe("upm.encoder", "save_checkpoint", span="encoder.save_checkpoint"),
    # losses, backward and optimizer
    Probe("upm.objectives", "geo_loss_from_targets", span="objectives.geo_loss"),
    Probe("upm.objectives", "ground_loss", span="objectives.ground_loss"),
    Probe("upm.objectives", "view_loss", span="objectives.view_loss"),
    Probe("upm.objectives", "scene_loss", span="objectives.scene_loss"),
    Probe("upm.trainer", "batch_loss", span="trainer.batch_loss"),
    Probe("upm.engine", "backward", span="engine.backward",
          counter="engine.graph_nodes", count=_graph_nodes),
    Probe("upm.trainer", "clip_gradients", span="trainer.clip_gradients"),
    Probe("upm.trainer", "adamw_step", span="trainer.adamw_step"),
    # evaluation and probe
    Probe("upm.evaluation", "build_grounding_instances",
          span="evaluation.build_grounding_instances"),
    Probe("upm.evaluation", "embed_scene_views", counter="evaluation.embed_scene_views_calls",
          scene_key=True),
    Probe("upm.evaluation", "viewpoint_grounding", span="evaluation.viewpoint_grounding"),
    Probe("upm.evaluation", "scene_retrieval", span="evaluation.scene_retrieval"),
    Probe("upm.evaluation", "zero_shot_classify", span="evaluation.zero_shot_classify"),
    Probe("upm.evaluation", "few_shot_probe", span="evaluation.few_shot_probe"),
    Probe("upm.evaluation", "retrieval_views_curve", span="evaluation.retrieval_views_curve"),
    Probe("upm.evaluation", "emit_report", span="evaluation.emit_report"),
    Probe("upm.probe", "linear_probe", span="probe.linear_probe"),
    Probe("upm.probe", "fit_logistic", counter="probe.fit_logistic_calls"),
    Probe("upm.probe", "lbfgs_minimize", counter="probe.lbfgs_iterations",
          count=_lbfgs_iterations),
)


class Tracer:
    """Installs the probes, accumulates spans and counts, restores on exit."""

    def __init__(self, probes: tuple[Probe, ...] = PROBES,
                 clock: Callable[[], float] = time.perf_counter):
        self.probes = probes
        self.clock = clock
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.scene_ids: dict[str, set[str]] = defaultdict(set)
        self.absent: list[str] = []
        self._child_s: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        for probe in self.probes:
            try:
                home = importlib.import_module(probe.module)
            except ImportError:
                self.absent.append(f"{probe.module}.{probe.attr}")
                continue
            original = getattr(home, probe.attr, None)
            if not callable(original):
                self.absent.append(f"{probe.module}.{probe.attr}")
                continue
            wrapper = self._wrap(probe, original)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "upm" or name.startswith("upm.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, probe: Probe, original):
        def traced(*args, **kwargs):
            if probe.span is None:
                result = original(*args, **kwargs)
            else:
                self._child_s.append(0.0)
                start = self.clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = self.clock() - start
                    children = self._child_s.pop()
                    self.total_s[probe.span] += elapsed
                    self.self_s[probe.span] += elapsed - children
                    if self._child_s:
                        self._child_s[-1] += elapsed
            if probe.counter is not None:
                self.counts[probe.counter] += probe.count(args, kwargs, result)
            if probe.scene_key:
                self.scene_ids[probe.counter].add(args[0].scene_id)
            return result

        traced.__wrapped__ = original
        return traced

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Every probe's metrics per workload operation, as (value, unit)."""
        per_op = 1.0 / ops if ops else 0.0
        out: dict[str, tuple[float, str]] = {}
        for probe in self.probes:
            if probe.span is not None:
                out[f"{probe.span}_ms"] = (1000.0 * self.total_s[probe.span] * per_op, "ms")
                out[f"{probe.span}_self_ms"] = (1000.0 * self.self_s[probe.span] * per_op, "ms")
            if probe.counter is not None:
                out[probe.counter] = (self.counts[probe.counter] * per_op, "count")
        calls = self.counts["evaluation.embed_scene_views_calls"]
        distinct = len(self.scene_ids["evaluation.embed_scene_views_calls"])
        out["evaluation.scene_encodes_per_scene"] = (
            calls / (distinct * ops) if distinct and ops else 0.0, "ratio"
        )
        out["trace.absent_functions"] = (float(len(self.absent)), "count")
        return out
