"""Pretraining loop: batching, view sampling, AdamW, cosine schedule.

Per-scene geometry (max-coverage view subset, Chamfer-rank targets, the
(view, object) visibility matrix) is computed once at dataset load.
``train_step`` is the one optimizer step: it encodes the selected views,
assembles the four losses on one graph, and applies a clipped AdamW
update; ``train`` calls it once per batch and writes its rows.  Everything is deterministic given
(seed, config, dataset).

``batch_loss`` builds each loss once over the batch's (N, d) views, with
no graph node per scene.  Every scene enters all four losses, except that
a scene whose selected views observe no object has an all-false
visibility block, so it contributes nothing to the grounded loss.

The trained parameters are ``EncoderParams.named_parameters()`` and the
temperature: the text table is a fixed seeded draw that no step changes.
Every gradient that ``clip_gradients`` and ``adamw_step`` read is a dense
array, and every AdamW moment has its parameter's shape.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import engine as E
from . import objectives as obj
from .config import check_fields, declared
from .data import Scene, load_split_scenes
from .encoder import (EncoderConfig, EncoderParams, encode_texts, encode_views, init_encoder_params,
                      pool_scene, save_checkpoint)
from .engine import Tensor
from .errors import ConfigError, ContractError, DegenerateInputError, NumericError, ShapeError
from .geometry import max_coverage_sample, visibility

logger = logging.getLogger(__name__)

TEMPERATURE_KEY = "temperature.log_tau"
ADAM_EPS = 1e-8
METRICS_HEADER = "step\tlr\tl_geo\tl_ground\tl_view\tl_scene\ttotal\ttau"
TELEMETRY_HEADER = "step\tgrad_norm\tlr\ttau"


@dataclass(frozen=True)
class TrainConfig:
    """The pretraining recipe; ``upm.config`` checks each field's kind and range."""

    epochs: int = declared(30, int, (">", 0))
    scenes_per_batch: int = declared(4, int, (">", 0))
    views_per_scene: int = declared(8, int, (">", 0))
    learning_rate: float = declared(3e-4, float, (">", 0))
    beta1: float = declared(0.9, float, (">=", 0), ("<", 1))  # AdamW divides by 1 - beta**t
    beta2: float = declared(0.98, float, (">=", 0), ("<", 1))
    weight_decay: float = declared(0.01, float, (">=", 0))
    warmup_fraction: float = declared(0.1, float, (">=", 0), ("<", 1))
    seed: int = declared(0, int, (">=", 0))
    grad_clip: float = declared(1.0, float, (">=", 0))
    initial_tau: float = declared(0.07, float, (">=", obj.TAU_MIN), ("<=", obj.TAU_MAX))
    chamfer_subsample: int = declared(512, int, (">", 0))
    use_geo: bool = declared(True, bool)
    use_ground: bool = declared(True, bool)
    use_view: bool = declared(True, bool)
    use_scene: bool = declared(True, bool)

    def __post_init__(self):
        check_fields(self)
        if self.use_geo and self.views_per_scene < 2:
            raise ConfigError("the geometric loss needs at least two views per scene")
        if not (self.use_geo or self.use_ground or self.use_view or self.use_scene):
            raise ConfigError("use_geo, use_ground, use_view and use_scene are all off: "
                              "no objective would train")


def paper_train_config() -> TrainConfig:
    """The full-scale recipe as a preset; tests never run it."""
    return TrainConfig(
        epochs=80,
        scenes_per_batch=64,
        views_per_scene=32,
        learning_rate=1e-4,
    )


# ---------------------------------------------------------------------------
# schedule and optimizer


def cosine_lr(step: int, total_steps: int, base_lr: float, warmup_fraction: float) -> float:
    """Linear warmup to base_lr, then cosine decay to zero."""
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    if not math.isfinite(base_lr):
        raise ContractError(f"base learning rate {base_lr} is not finite")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ContractError(f"warmup fraction {warmup_fraction} outside [0, 1)")
    warmup_steps = warmup_fraction * total_steps
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    remaining = total_steps - warmup_steps
    progress = (step - warmup_steps) / remaining if remaining > 0 else 1.0
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class OptimizerState:
    """AdamW's moments and its step count.

    A parameter's moments have its shape and appear with its first
    gradient; a parameter that has had no gradient yet has none.
    """

    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def adamw_step(
    named_params: list[tuple[str, Tensor]],
    state: OptimizerState,
    lr: float,
    beta1: float,
    beta2: float,
    weight_decay: float,
) -> None:
    """Decoupled-weight-decay Adam with bias correction, in place.

    Per parameter: m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*g*g,
    then p -= lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay*p), with
    eps = ``ADAM_EPS``; the temperature (``TEMPERATURE_KEY``) takes no
    weight decay.  A missing gradient counts as zero.  A parameter that
    has had no gradient yet keeps no moments and gets
    p -= lr * (weight_decay*p + 0.0), or nothing without decay: with
    m = v = g = 0 the Adam term is 0.0/eps = +0.0, and adding it turns a
    -0.0 decay into +0.0 as the ``+ 0.0`` does, so that is the full
    update's bytes.

    Raises ``ContractError`` unless 0 <= beta1, beta2 < 1, lr is finite
    with its sign bit clear and weight_decay is finite: outside those
    ranges the update is not +0.0 on a zero parameter, divides by zero, or
    turns a parameter into inf or NaN.  A non-finite gradient raises
    ``NumericError``; both raise before ``state.step`` or any array
    changes.
    """
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0
            and math.isfinite(lr) and math.copysign(1.0, lr) > 0.0 and math.isfinite(weight_decay)):
        raise ContractError(f"AdamW needs 0 <= beta1, beta2 < 1, a finite lr >= +0.0 and a finite "
                            f"weight_decay, got beta1={beta1!r}, beta2={beta2!r}, lr={lr!r}, "
                            f"weight_decay={weight_decay!r}")
    for name, tensor in named_params:
        if tensor.grad is not None and not np.isfinite(tensor.grad).all():
            raise NumericError(f"non-finite gradient in parameter {name}")
    state.step += 1
    t = state.step
    m_correction = 1.0 - beta1**t
    v_correction = 1.0 - beta2**t
    for name, tensor in named_params:
        p, grad = tensor.array, tensor.grad
        decay = weight_decay if weight_decay and name != TEMPERATURE_KEY else 0.0
        if name not in state.first_moment:
            if grad is None:
                if decay:
                    p -= (decay * p + 0.0) * lr
                continue
            state.first_moment[name] = np.zeros_like(p)
            state.second_moment[name] = np.zeros_like(p)
        if grad is None:
            grad = 0.0
        # AdamW's arithmetic on p, m and v in place, through two work arrays.
        m, v = state.first_moment[name], state.second_moment[name]
        update, work = np.empty_like(p), np.empty_like(p)
        m *= beta1
        np.multiply(1.0 - beta1, grad, out=work)
        m += work
        v *= beta2
        np.multiply(1.0 - beta2, grad, out=work)
        work *= grad
        v += work
        np.divide(m, m_correction, out=update)
        np.divide(v, v_correction, out=work)
        np.sqrt(work, out=work)
        work += ADAM_EPS
        update /= work
        if decay:
            np.multiply(decay, p, out=work)
            update += work
        update *= lr
        p -= update


def clip_gradients(named_params, max_norm: float) -> float:
    """Scale all gradients to a global L2 norm of at most max_norm; 0 means no clipping.

    A NaN or negative ``max_norm`` raises ``ContractError``; a non-finite
    global norm raises ``NumericError`` before any gradient is scaled.
    """
    if not max_norm >= 0:
        raise ContractError(f"max_norm must be nonnegative, got {max_norm}")
    grads = [tensor.grad for _, tensor in named_params if tensor.grad is not None]
    total = 0.0
    for grad in grads:
        total += float((grad * grad).sum())
    norm = math.sqrt(total)
    if not math.isfinite(norm):
        raise NumericError(f"non-finite global gradient norm {norm}")
    if norm > max_norm > 0:
        factor = max_norm / norm
        for grad in grads:
            grad *= factor
    return norm


# ---------------------------------------------------------------------------
# scene preparation


@dataclass
class PreparedScene:
    """One scene's frozen training inputs, over the views max coverage chose.

    ``images`` and ``points`` stack the chosen views, (V', H, W, 3) each, with invalid
    points at +0.0 as ``back_project`` writes them; ``visible`` is their (V', O) visibility.
    ``views`` (per view) and ``pairs`` ((view, object), row-major) are windows onto them.
    """

    scene_id: str
    images: np.ndarray
    points: np.ndarray
    geo_targets: np.ndarray | None
    visible: np.ndarray
    object_texts: list[str]
    view_captions: list[str]
    scene_caption: str

    @property
    def views(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return list(zip(self.images, self.points))

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return [(int(v), int(o)) for v, o in zip(*np.nonzero(self.visible))]


def prepare_scene(scene: Scene, cfg: TrainConfig) -> PreparedScene:
    """Select views by max coverage and freeze the geometric targets."""
    points, validity = scene.pointmaps()
    budget = cfg.views_per_scene
    if budget > len(scene.images):
        logger.warning(
            "scene %s has %d views, capping requested %d",
            scene.scene_id, len(scene.images), budget,
        )
        budget = len(scene.images)
    chosen = max_coverage_sample(points, validity, budget)
    points, validity = points[chosen], validity[chosen]
    targets = None
    if len(chosen) >= 2:
        targets = obj.geo_targets(points, validity, subsample=cfg.chamfer_subsample, seed=cfg.seed)
    return PreparedScene(
        scene_id=scene.scene_id,
        images=scene.images[chosen],
        points=points,
        geo_targets=targets,
        visible=visibility(points, validity, scene.objects),
        object_texts=[o.referring_text for o in scene.objects],
        view_captions=[scene.view_captions[i] for i in chosen],
        scene_caption=scene.scene_caption,
    )


# ---------------------------------------------------------------------------
# loss assembly


def batch_loss(
    batch: list[PreparedScene],
    params: EncoderParams,
    enc_cfg: EncoderConfig,
    temperature: obj.Temperature,
    cfg: TrainConfig,
) -> obj.LossBreakdown:
    """All four objectives over one batch, each one graph over the batch's (N, d) views.

    The scenes' stacks are concatenated for ``encode_views``; scenes whose views differ in
    size raise ``ShapeError``, and an empty batch ``DegenerateInputError``.
    """
    if not batch:
        raise DegenerateInputError("a batch of zero scenes")
    if len({(scene.images.shape[1:], scene.points.shape[1:]) for scene in batch}) > 1:
        raise ShapeError("the scenes of the batch differ in view size")
    zero = Tensor(np.zeros(1))
    views = encode_views(np.concatenate([scene.images for scene in batch]),
                         np.concatenate([scene.points for scene in batch]), params, enc_cfg)
    counts = [len(scene.images) for scene in batch]

    l_geo = zero
    if cfg.use_geo:
        l_geo = obj.geo_loss_from_targets(views, [s.geo_targets for s in batch], temperature)

    l_ground = zero
    if cfg.use_ground:
        for scene in batch:
            if not scene.visible.any():
                logger.warning("ground loss: scene %s has no visible pairs", scene.scene_id)
        if any(scene.visible.any() for scene in batch):
            text_embeddings = encode_texts(
                [text for scene in batch for text in scene.object_texts], params, enc_cfg)
            l_ground = obj.ground_loss(views, text_embeddings, [s.visible for s in batch],
                                       temperature)

    l_view = zero
    if cfg.use_view:
        all_captions = [c for scene in batch for c in scene.view_captions]
        caption_embeddings = encode_texts(all_captions, params, enc_cfg)
        l_view = obj.view_loss(views, caption_embeddings, temperature)

    l_scene = zero
    if cfg.use_scene:
        scene_caption_embeddings = encode_texts([s.scene_caption for s in batch], params, enc_cfg)
        l_scene = obj.scene_loss(pool_scene(views, counts), scene_caption_embeddings, temperature)

    return obj.total_loss(l_geo, l_ground, l_view, l_scene)


# ---------------------------------------------------------------------------
# the training loop


@dataclass(frozen=True)
class StepRecord:
    """One step's losses and its global gradient norm before clipping."""

    losses: obj.LossBreakdown
    grad_norm: float


def train_step(
    batch: list[PreparedScene],
    params: EncoderParams,
    enc_cfg: EncoderConfig,
    temperature: obj.Temperature,
    state: OptimizerState,
    cfg: TrainConfig,
    lr: float,
) -> StepRecord:
    """One clipped AdamW step of the batch's four losses, in place.

    The parameters are the encoder's and the temperature's ``log_tau``.  A
    non-finite total raises ``NumericError`` before ``backward``, so no
    parameter, moment or ``state.step`` changes.
    """
    named = [*params.named_parameters(), (TEMPERATURE_KEY, temperature.log_tau)]
    E.zero_grads(t for _, t in named)
    breakdown = batch_loss(batch, params, enc_cfg, temperature, cfg)
    if not math.isfinite(breakdown.total.item()):
        raise NumericError(f"non-finite training loss at step {state.step}")
    E.backward(breakdown.total)
    grad_norm = clip_gradients(named, cfg.grad_clip)
    adamw_step(named, state, lr, beta1=cfg.beta1, beta2=cfg.beta2, weight_decay=cfg.weight_decay)
    temperature.clamp()
    return StepRecord(breakdown, grad_norm)


@dataclass
class TrainResult:
    checkpoint_path: Path
    best_checkpoint_path: Path
    metrics_path: Path
    telemetry_path: Path
    initial_total: float
    final_total: float
    steps: int


def _batches(items, batch_size: int):
    for start in range(0, len(items), batch_size):
        yield items[start : start + batch_size]


def train(
    manifest_path,
    cfg: TrainConfig,
    enc_cfg: EncoderConfig,
    out_dir,
) -> TrainResult:
    """Run pretraining over the manifest's train split.

    Writes ``metrics.tsv`` (the losses per step) and ``telemetry.tsv`` (the
    pre-clip gradient norm, learning rate and temperature per step) into
    ``out_dir``, with the checkpoints.
    """
    out_dir = Path(out_dir)
    train_scenes = [prepare_scene(s, cfg) for s in load_split_scenes(manifest_path, "train")]
    if len(train_scenes) < cfg.scenes_per_batch:
        raise ConfigError(
            f"need at least {cfg.scenes_per_batch} training scenes, "
            f"manifest has {len(train_scenes)}"
        )
    val_scenes = [prepare_scene(s, cfg) for s in load_split_scenes(manifest_path, "val")]
    out_dir.mkdir(parents=True, exist_ok=True)
    logger.info("loaded and prepared %d train and %d val scenes from %s",
                len(train_scenes), len(val_scenes), manifest_path)

    params = init_encoder_params(enc_cfg, seed=cfg.seed)
    temperature = obj.Temperature(cfg.initial_tau)
    state = OptimizerState()

    steps_per_epoch = math.ceil(len(train_scenes) / cfg.scenes_per_batch)
    total_steps = cfg.epochs * steps_per_epoch

    metrics_path = out_dir / "metrics.tsv"
    telemetry_path = out_dir / "telemetry.tsv"
    checkpoint_path = out_dir / "checkpoint.upm"
    best_path = out_dir / "checkpoint_best.upm"

    def write_checkpoint(path: Path) -> None:
        save_checkpoint(path, params, enc_cfg, extras=[(TEMPERATURE_KEY, temperature.log_tau)])
        logger.info("wrote checkpoint %s", path)

    best_val = math.inf
    initial_total = None
    step = 0
    with (open(metrics_path, "w", encoding="utf-8") as metrics,
          open(telemetry_path, "w", encoding="utf-8") as telemetry):
        metrics.write(METRICS_HEADER + "\n")
        telemetry.write(TELEMETRY_HEADER + "\n")
        for epoch in range(cfg.epochs):
            order = np.random.default_rng((cfg.seed, epoch)).permutation(len(train_scenes))
            epoch_totals = []
            for batch in _batches([train_scenes[i] for i in order], cfg.scenes_per_batch):
                lr = cosine_lr(step, total_steps, cfg.learning_rate, cfg.warmup_fraction)
                record = train_step(batch, params, enc_cfg, temperature, state, cfg, lr)
                values = record.losses.values()
                if initial_total is None:
                    initial_total = values["total"]
                epoch_totals.append(values["total"])
                metrics.write(
                    f"{step}\t{lr!r}\t{values['l_geo']!r}\t{values['l_ground']!r}"
                    f"\t{values['l_view']!r}\t{values['l_scene']!r}\t{values['total']!r}"
                    f"\t{temperature.value!r}\n"
                )
                telemetry.write(f"{step}\t{record.grad_norm!r}\t{lr!r}\t{temperature.value!r}\n")
                step += 1

            logger.info("epoch %d/%d: mean total loss %r over %d steps",
                        epoch + 1, cfg.epochs, float(np.mean(epoch_totals)), len(epoch_totals))
            if val_scenes:
                val_total = evaluate_loss(val_scenes, params, enc_cfg, temperature, cfg)
                logger.info("epoch %d/%d: validation total %r", epoch + 1, cfg.epochs, val_total)
                if val_total < best_val:
                    best_val = val_total
                    write_checkpoint(best_path)

    write_checkpoint(checkpoint_path)
    if not val_scenes:
        write_checkpoint(best_path)
    return TrainResult(
        checkpoint_path=checkpoint_path,
        best_checkpoint_path=best_path,
        metrics_path=metrics_path,
        telemetry_path=telemetry_path,
        initial_total=float(initial_total),
        final_total=float(np.mean(epoch_totals)),
        steps=step,
    )


def evaluate_loss(
    scenes: list[PreparedScene],
    params: EncoderParams,
    enc_cfg: EncoderConfig,
    temperature: obj.Temperature,
    cfg: TrainConfig,
) -> float:
    """Mean total loss over fixed batches, no gradients.  No scenes raise ``DegenerateInputError``."""
    if not scenes:
        raise DegenerateInputError("validation loss over zero scenes")
    with E.no_grad():
        totals = [batch_loss(batch, params, enc_cfg, temperature, cfg).total.item()
                  for batch in _batches(scenes, cfg.scenes_per_batch)]
    return float(np.mean(totals))
