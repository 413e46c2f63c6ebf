"""The three benchmark workloads, driven through ``upm``'s public functions.

Each workload has a set-up (inputs made from the seed, parameters, warm-up)
and a cycle of operations that is repeated until the time budget is spent.
Every cycle does the same work on the same inputs, so each operation's
output digest must equal the one from the first cycle; a mismatch, a
failed output check or an exception counts the operation as failed.

Calls go through module attributes (``trainer.batch_loss(...)``), never
through names bound at import, so that a traced run sees them.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import tracing
from reference import Reference
from upm import data, encoder, engine, evaluation, objectives, probe, trainer


@dataclass(frozen=True)
class Size:
    """Input sizes of all workloads; ``DEFAULT`` is what the benchmark runs."""

    view_count: int = 16
    image_size: int = 32
    object_count: tuple[int, int] = (2, 5)
    train: trainer.TrainConfig = field(default_factory=trainer.TrainConfig)
    encoder: encoder.EncoderConfig = field(default_factory=encoder.EncoderConfig)
    ingest_scenes: int = 8
    train_scenes: int = 4
    eval_test_scenes: int = 8
    eval_probe_scenes_per_class: int = 8
    probe_shots: tuple[int, ...] = (4, 8)
    probe_reg_grid: tuple[float, ...] | None = None
    retrieval_utterances: tuple[int, ...] = (1, 2)
    curve_budgets: tuple[int, ...] = (2, 4, 8)
    setups: int = 3
    warmup_steps: int = 2


DEFAULT = Size()

PROBE_SCENE_OFFSET = 1000


@dataclass
class Op:
    """One timed operation of a cycle.

    ``seconds`` is the whole operation, used for throughput; ``latency`` is
    the part reported as the workload's per-operation latency, or None for
    operations that are not latency samples (the checkpoint write).
    ``start`` and ``end`` bound the operation on the workload's clock.
    """

    seconds: float
    scenes: int
    latency: float | None
    digest: str
    ok: bool
    start: float = 0.0
    end: float = 0.0


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    digest: str
    outputs: dict[str, object]


# ---------------------------------------------------------------------------
# helpers


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _generate(size: Size, seed: int, index: int) -> data.Scene:
    spec = data.SceneSpec(
        scene_type=data.SCENE_TYPES[index % len(data.SCENE_TYPES)],
        seed=seed,
        view_count=size.view_count,
        image_size=size.image_size,
        object_count=size.object_count,
    )
    return data.generate_scene(spec, seed=index)


def _bits(array) -> bytes:
    array = np.asarray(array)
    return repr((array.dtype.str, array.shape)).encode() + array.tobytes()


def scene_bits(scene: data.Scene) -> bytes:
    """Every stored field of a scene, as bytes: equal bytes means bitwise equal."""
    parts = [repr((scene.scene_id, scene.scene_type, scene.scene_caption,
                   list(scene.view_captions))).encode()]
    for view in scene.views:
        intr = view.intrinsics
        parts += [_bits(view.image), _bits(view.depth), _bits(view.pose.rotation),
                  _bits(view.pose.translation),
                  _bits(np.array([intr.fx, intr.fy, intr.cx, intr.cy]))]
    for ob in scene.objects:
        parts += [repr((ob.object_id, ob.category, ob.referring_text)).encode(),
                  _bits(ob.aabb_min), _bits(ob.aabb_max)]
    return b"".join(parts)


def chosen_view_indices(scene: data.Scene, prepared: trainer.PreparedScene) -> list[int]:
    """Indices into ``scene.views`` of the views ``prepare_scene`` selected."""
    index_of: dict[bytes, int] = {}
    for i, view in enumerate(scene.views):
        index_of.setdefault(view.image.tobytes(), i)
    return [index_of.get(np.asarray(image).tobytes(), -1) for image, _ in prepared.views]


def _percentile_ms(samples: list[float], q: float) -> float:
    return 1000.0 * float(np.percentile(samples, q))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Set-up and cycle of one workload; ``clock`` times its operations."""

    name: str

    def __init__(self, size: Size, seed: int, workdir: Path,
                 clock: Callable[[], float] = time.perf_counter):
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.clock = clock

    def outputs(self) -> dict[str, object]:
        return {}


# ---------------------------------------------------------------------------
# ingest: generate -> save -> load -> prepare


class Ingest(Workload):
    name = "ingest"

    def setup(self) -> None:
        self.cfg = replace(self.size.train, seed=self.seed)
        self.indices = list(range(self.size.ingest_scenes))
        self._ingest(self.indices[0])

    def _ingest(self, index: int):
        scene = _generate(self.size, self.seed, index)
        directory = self.workdir / scene.scene_id
        data.save_scene(scene, directory)
        loaded = data.load_scene(directory)
        start = self.clock()
        prepared = trainer.prepare_scene(loaded, self.cfg)
        return scene, loaded, prepared, self.clock() - start

    def cycle(self) -> Iterator[Op]:
        for index in self.indices:
            start = self.clock()
            scene, loaded, prepared, prepare_s = self._ingest(index)
            seconds = self.clock() - start
            yield self._check(scene, loaded, prepared, seconds, prepare_s)

    def _check(self, scene, loaded, prepared, seconds, prepare_s) -> Op:
        problems = []
        if scene_bits(loaded) != scene_bits(scene):
            problems.append("loaded scene differs from the generated one")
        chosen = chosen_view_indices(loaded, prepared)
        budget = min(self.cfg.views_per_scene, len(loaded.views))
        if -1 in chosen or len(set(chosen)) != len(chosen) or not 1 <= len(chosen) <= budget:
            problems.append(f"selected views {chosen} not distinct within budget {budget}")
        targets = prepared.geo_targets
        if targets is not None:
            if targets.shape != (len(chosen), len(chosen) - 1):
                problems.append(f"geo targets shape {targets.shape}")
            elif np.any(np.abs(targets.sum(axis=1) - 1.0) > 1e-9) or np.any(targets < 0):
                problems.append("a geo target row is not a distribution")
        for v, o in prepared.pairs:
            if not (0 <= v < len(chosen) and 0 <= o < len(loaded.objects)):
                problems.append(f"visibility pair {(v, o)} out of range")
        for problem in problems:
            print(f"ingest {scene.scene_id}: {problem}", file=sys.stderr)
        digest = _sha(scene.scene_id, chosen,
                      _bits(targets) if targets is not None else b"none",
                      list(prepared.pairs))
        return Op(seconds=seconds, scenes=1, latency=prepare_s, digest=digest, ok=not problems)


# ---------------------------------------------------------------------------
# train: the step loop of trainer.train over prepared scenes


def train_steps(
    prepared: list[trainer.PreparedScene],
    cfg: trainer.TrainConfig,
    enc_cfg: encoder.EncoderConfig,
    on_step: Callable[[float, int], None] | None = None,
    clock: Callable[[], float] = time.perf_counter,
):
    """Run ``trainer.train``'s loop (no validation split) from fresh parameters.

    Yields one ``metrics.tsv`` row per step as a tuple ``(step, lr, l_geo,
    l_ground, l_view, l_scene, total, tau)``; the last item is ``(params,
    temperature)`` so that the caller can write the checkpoint.  ``on_step``
    receives each step's duration in seconds, read from ``clock``, and its
    batch size.
    """
    params = encoder.init_encoder_params(enc_cfg, seed=cfg.seed)
    temperature = objectives.Temperature(cfg.initial_tau)
    named = list(params.named_parameters()) + [(trainer.TEMPERATURE_KEY, temperature.log_tau)]
    state = trainer.OptimizerState()
    steps_per_epoch = math.ceil(len(prepared) / cfg.scenes_per_batch)
    total_steps = cfg.epochs * steps_per_epoch
    step = 0
    for epoch in range(cfg.epochs):
        order = np.random.default_rng((cfg.seed, epoch)).permutation(len(prepared))
        for begin in range(0, len(order), cfg.scenes_per_batch):
            batch = [prepared[i] for i in order[begin : begin + cfg.scenes_per_batch]]
            start = clock()
            lr = trainer.cosine_lr(step, total_steps, cfg.learning_rate, cfg.warmup_fraction)
            engine.zero_grads(t for _, t in named)
            breakdown = trainer.batch_loss(batch, params, enc_cfg, temperature, cfg)
            engine.backward(breakdown.total)
            trainer.clip_gradients(named, cfg.grad_clip)
            trainer.adamw_step(
                named, state, lr,
                beta1=cfg.beta1, beta2=cfg.beta2, weight_decay=cfg.weight_decay,
            )
            temperature.clamp()
            values = breakdown.values()
            if on_step is not None:
                on_step(clock() - start, len(batch))
            yield (step, lr, values["l_geo"], values["l_ground"], values["l_view"],
                   values["l_scene"], values["total"], temperature.value)
            step += 1
    yield params, temperature


class Train(Workload):
    name = "train"
    final_loss: float | None = None

    def setup(self) -> None:
        self.cfg = replace(self.size.train, seed=self.seed)
        scenes = [_generate(self.size, self.seed, i) for i in range(self.size.train_scenes)]
        self.prepared = [trainer.prepare_scene(s, self.cfg) for s in scenes]
        warmup = replace(self.cfg, epochs=self.size.warmup_steps)
        for _ in train_steps(self.prepared[: warmup.scenes_per_batch], warmup, self.size.encoder):
            pass

    def cycle(self) -> Iterator[Op]:
        timings: list[tuple[float, int]] = []
        steps = train_steps(self.prepared, self.cfg, self.size.encoder,
                            lambda seconds, scenes: timings.append((seconds, scenes)), self.clock)
        for row in steps:
            if len(row) == 2:
                params, temperature = row
                break
            finite = all(math.isfinite(x) for x in row[1:])
            if not finite:
                print(f"train step {row[0]}: non-finite loss {row}", file=sys.stderr)
            last_total = row[6]
            seconds, scenes = timings[-1]
            yield Op(seconds=seconds, scenes=scenes, latency=seconds, digest=_sha(row), ok=finite)
        path = self.workdir / "checkpoint.upm"
        start = self.clock()
        encoder.save_checkpoint(path, params, self.size.encoder,
                                extras=[(trainer.TEMPERATURE_KEY, temperature.log_tau)])
        seconds = self.clock() - start
        self.final_loss = last_total
        yield Op(seconds=seconds, scenes=0, latency=None,
                 digest=_sha(path.read_bytes()), ok=True)

    def outputs(self) -> dict[str, object]:
        return {"train_loss_final": self.final_loss}


# ---------------------------------------------------------------------------
# eval: one full EvalReport per operation


class Eval(Workload):
    name = "eval"

    def setup(self) -> None:
        size = self.size
        self.classes = list(data.SCENE_TYPES)
        self.test = [_generate(size, self.seed, i) for i in range(size.eval_test_scenes)]
        self.probe_train = [
            _generate(size, self.seed, PROBE_SCENE_OFFSET + i)
            for i in range(size.eval_probe_scenes_per_class * len(self.classes))
        ]
        self.params = encoder.init_encoder_params(size.encoder, seed=self.seed)
        grid = {} if size.probe_reg_grid is None else {"reg_grid": size.probe_reg_grid}
        self.probe_configs = {
            shots: probe.ProbeConfig(shots=shots, seed=self.seed, **grid)
            for shots in size.probe_shots
        }
        evaluation.embed_scene_views(self.test[0], self.params, size.encoder)

    def report(self) -> evaluation.EvalReport:
        p, enc, test = self.params, self.size.encoder, self.test
        instances = evaluation.build_grounding_instances(test)
        return evaluation.EvalReport(
            grounding=evaluation.viewpoint_grounding(p, enc, test, instances),
            grounding_unique=evaluation.viewpoint_grounding(
                p, enc, test, evaluation.filter_unique(instances)),
            retrieval={n: evaluation.scene_retrieval(p, enc, test, n)
                       for n in self.size.retrieval_utterances},
            zero_shot_accuracy=evaluation.zero_shot_classify(p, enc, test, self.classes),
            probe_outcomes={
                shots: evaluation.few_shot_probe(p, enc, self.probe_train, test, self.classes, cfg)
                for shots, cfg in self.probe_configs.items()
            },
            views_curve=evaluation.retrieval_views_curve(
                p, enc, test, self.size.retrieval_utterances[0], self.size.curve_budgets),
        )

    def cycle(self) -> Iterator[Op]:
        out_dir = self.workdir / "report"
        start = self.clock()
        report = self.report()
        written = evaluation.emit_report(report, out_dir)
        seconds = self.clock() - start
        summary = Path(written["summary"])
        problems = check_report(report, summary)
        for problem in problems:
            print(f"eval: {problem}", file=sys.stderr)
        digest = _sha(summary.read_bytes(), report.views_curve)
        yield Op(seconds=seconds, scenes=len(self.test), latency=seconds,
                 digest=digest, ok=not problems)



def check_report(report: evaluation.EvalReport, summary: Path) -> list[str]:
    """Range checks on every recall and accuracy, and a bit-exact summary read-back."""
    values: list[float] = []
    counts: list[int] = []
    for result in [report.grounding, report.grounding_unique, *report.retrieval.values()]:
        if result is None:
            continue
        values += list(result.recall_at.values())
        if result.visible_set_accuracy is not None:
            values.append(result.visible_set_accuracy)
        counts.append(result.count)
    if report.zero_shot_accuracy is not None:
        values.append(report.zero_shot_accuracy)
    for outcome in report.probe_outcomes.values():
        values += [outcome.test_accuracy, outcome.holdout_accuracy]
    values += [y for _, y in report.views_curve]
    problems = [f"metric {v!r} outside [0, 1]" for v in values if not 0.0 <= v <= 1.0]

    lines = [line for line in summary.read_text(encoding="utf-8").splitlines() if line.strip()]
    parsed = evaluation.parse_summary(summary)
    if len(parsed) != len(lines):
        problems.append(f"summary has {len(lines)} lines, parse_summary read {len(parsed)}")
    known = {np.float64(v).tobytes() for v in values + counts}
    for key, value in parsed.items():
        if value is None:
            continue
        if np.float64(value).tobytes() not in known:
            problems.append(f"summary value {key}={value!r} is not a report value")
    for line in lines:
        key, _, raw = line.partition("=")
        value = parsed.get(key)
        if value is not None and repr(float(raw)) != repr(value):
            problems.append(f"summary line {line!r} does not read back exactly")
    return problems


WORKLOADS = {w.name: w for w in (Ingest, Train, Eval)}


# ---------------------------------------------------------------------------
# the timed loop and the metrics


@dataclass
class Phase:
    ops: list[Op] = field(default_factory=list)
    first_digests: list[str] = field(default_factory=list)
    failed: int = 0

    def latencies(self, speed: Speed) -> list[float]:
        return [op.latency * speed(op.start, op.end) for op in self.ops if op.latency is not None]


Speed = Callable[[float, float], float]


def measured_speed(start: float, end: float) -> float:
    return 1.0


def run_phase(workload: Workload, seconds: float) -> Phase:
    """Repeat the workload's cycle until ``seconds`` pass and one cycle is complete."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    cycles = 0
    while True:
        position = 0
        cycle = workload.cycle()
        try:
            while True:
                start = workload.clock()
                op = next(cycle, None)
                if op is None:
                    break
                op.start, op.end = start, workload.clock()
                if cycles == 0:
                    phase.first_digests.append(op.digest)
                elif position >= len(phase.first_digests) or op.digest != phase.first_digests[position]:
                    print(f"{workload.name}: operation {position} of cycle {cycles} "
                          f"differs from the first cycle", file=sys.stderr)
                    op.ok = False
                phase.ops.append(op)
                phase.failed += not op.ok
                position += 1
                if cycles > 0 and time.perf_counter() >= deadline:
                    return phase
        except Exception:  # an operation that raises counts as failed; keep measuring
            traceback.print_exc(file=sys.stderr)
            phase.ops.append(Op(seconds=0.0, scenes=0, latency=None, digest="", ok=False))
            phase.failed += 1
            if cycles == 0:
                phase.first_digests.append("")
        finally:
            cycle.close()
        cycles += 1
        if time.perf_counter() >= deadline:
            return phase


def end_to_end(phase: Phase, setups: list[tuple[float, float]], speed: Speed):
    """The end-to-end metrics, each time multiplied by ``speed`` of its interval."""
    latencies = phase.latencies(speed) or [math.nan]
    busy = sum(op.seconds * speed(op.start, op.end) for op in phase.ops)
    scenes = sum(op.scenes for op in phase.ops)
    return {
        "setup_s": (statistics.median((end - start) * speed(start, end) for start, end in setups), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "scenes_per_s": (scenes / busy if busy > 0 else 0.0, "1/s"),
        "op_ms_p50": (_percentile_ms(latencies, 50), "ms"),
    }


def tail_ms(phase: Phase, speed: Speed) -> dict[str, float]:
    """p90 operation time and its sample count; only ``train`` has enough samples to gate it."""
    latencies = phase.latencies(speed) or [math.nan]
    return {"op_ms_p90": _percentile_ms(latencies, 90), "op_samples": len(phase.latencies(speed))}


def per_layer(tracer: tracing.Tracer, plain: Phase, traced: Phase, speed: Speed,
              span_scale: float):
    """The tracer's metrics, spans times ``span_scale``, and the tracing overhead.

    The overhead is the traced median operation minus the untraced one,
    each operation multiplied by ``speed`` of its interval.
    """
    ops = len(traced.latencies(speed))
    metrics = {name: (value * span_scale if unit == "ms" else value, unit)
               for name, (value, unit) in tracer.metrics(ops).items()}
    plain_ms = _percentile_ms(plain.latencies(speed) or [math.nan], 50)
    traced_ms = _percentile_ms(traced.latencies(speed) or [math.nan], 50)
    metrics["trace.ops"] = (float(ops), "count")
    metrics["trace.overhead_ms"] = (traced_ms - plain_ms, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced_ms - plain_ms) / plain_ms, "%")
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        size: Size = DEFAULT) -> RunResult:
    """Set up ``size.setups`` times, then measure; with ``trace``, add per-layer numbers.

    Every time is reported at reference speed: multiplied by the reference
    kernel's speed around the interval it was measured in (see
    ``reference``).  The times as measured are kept in
    ``outputs["measured"]``.  The traced run spends half the budget
    untraced and half traced, and reports the difference of their median
    operation times as the tracing overhead.
    """
    with Reference() as reference:
        setups = []
        for _ in range(size.setups):
            workload = WORKLOADS[name](size, seed, workdir, reference.clock)
            start = reference.clock()
            workload.setup()
            setups.append((start, reference.clock()))
        if trace:
            plain = run_phase(workload, seconds / 2.0)
            with tracing.Tracer(clock=reference.clock) as tracer:
                traced = run_phase(workload, seconds / 2.0)
        else:
            phase = run_phase(workload, seconds)

    tail: dict[str, float] = {}
    if not trace:
        metrics = end_to_end(phase, setups, reference.speed)
        measured = end_to_end(phase, setups, measured_speed)
        tail = tail_ms(phase, reference.speed)
        failed = phase.failed
        attempted = len(phase.ops)
    else:
        for missing in tracer.absent:
            print(f"trace: {missing} is absent; its metrics read 0", file=sys.stderr)
        # Span totals add up calls from the whole phase: scale by its overall speed.
        overall = reference.speed(-math.inf, math.inf)
        metrics = per_layer(tracer, plain, traced, reference.speed, overall)
        measured = per_layer(tracer, plain, traced, measured_speed, 1.0)
        failed = plain.failed + traced.failed
        if traced.first_digests != plain.first_digests:
            print("trace: traced outputs differ from untraced ones", file=sys.stderr)
            failed += 1
        phase = traced
        attempted = len(plain.ops) + len(traced.ops)

    outputs = {
        **workload.outputs(),
        **tail,
        "reference_ms": reference.median_ms,
        "reference_samples": len(reference.samples),
        "measured": {name: value for name, (value, _) in measured.items()},
    }
    return RunResult(
        correct=failed == 0 and all(math.isfinite(v) for v, _ in metrics.values()),
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        digest=_sha(*phase.first_digests),
        outputs=outputs,
    )
