"""Pretraining loop: batching, view sampling, AdamW, cosine schedule.

Per-scene geometry (max-coverage view subset, Chamfer-rank targets,
visibility pairs) is computed once at dataset load; each step encodes the
selected views, assembles the four losses on one graph, and applies a
clipped AdamW update.  Everything is deterministic given (seed, config,
dataset).

``batch_loss`` builds each loss once over the batch's (N, d) views, with
no graph node per scene.  Every scene enters all four losses, except that
a scene whose selected views observe no object has no (view, object)
pair, so it contributes nothing to the grounded loss.

``adamw_step`` runs Adam's arithmetic on a matrix parameter's live rows
only, the rows that have ever had a nonzero gradient, and gives every
other row the decay-only update.  A row whose moments and gradient are
zero gets exactly that update from the dense formula, so the parameters
and moments keep the dense update's bytes while the text table, whose
batches read a few dozen of its rows, costs a few dozen rows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import engine as E
from . import objectives as obj
from .data import Scene, load_manifest, load_scene
from .encoder import (MODALITIES, EncoderConfig, EncoderParams, encode_texts, encode_views,
                      init_encoder_params, pool_scene, save_checkpoint)
from .engine import Tensor
from .errors import ConfigError, ContractError, NumericError
from .geometry import DEFAULT_MIN_POINTS, max_coverage_sample, visibility_pairs

logger = logging.getLogger(__name__)

TEMPERATURE_KEY = "temperature.log_tau"
METRICS_HEADER = "step\tlr\tl_geo\tl_ground\tl_view\tl_scene\ttotal\ttau"
TELEMETRY_HEADER = "step\tgrad_norm\tlr\ttau"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    scenes_per_batch: int = 4
    views_per_scene: int = 8
    learning_rate: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.98
    weight_decay: float = 0.01
    warmup_fraction: float = 0.1
    seed: int = 0
    weight_geo: float = obj.DEFAULT_GEO_WEIGHT
    geo: obj.GeoAlignConfig = field(default_factory=obj.GeoAlignConfig)
    grad_clip: float = 1.0
    initial_tau: float = 0.07
    chamfer_subsample: int | None = 512
    voxel_size: float = 0.25
    min_points: int = DEFAULT_MIN_POINTS
    modality: str = "both"
    use_geo: bool = True
    use_ground: bool = True
    use_view: bool = True
    use_scene: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:  # AdamW divides by 1 - beta**t
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not self.weight_decay >= 0:
            raise ConfigError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if not self.grad_clip >= 0:  # NaN or negative: clip_gradients would silently not clip
            raise ConfigError(f"grad_clip must be nonnegative, got {self.grad_clip}")
        if not obj.TAU_MIN <= self.initial_tau <= obj.TAU_MAX:
            raise ConfigError(f"initial_tau must lie in [{obj.TAU_MIN}, {obj.TAU_MAX}], "
                              f"got {self.initial_tau}")
        if not (math.isfinite(self.weight_geo) and self.weight_geo >= 0):
            raise ConfigError(f"weight_geo must be finite and nonnegative, got {self.weight_geo}")
        if self.modality not in MODALITIES:
            raise ConfigError(f"modality must be one of {MODALITIES}, got {self.modality!r}")
        if self.chamfer_subsample is not None and self.chamfer_subsample < 1:  # None: every point
            raise ConfigError(f"chamfer_subsample must be at least 1 or None, got {self.chamfer_subsample}")
        if self.min_points < 1:
            raise ConfigError(f"min_points must be at least 1, got {self.min_points}")
        if not self.voxel_size > 0:
            raise ConfigError(f"voxel_size must be positive, got {self.voxel_size}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError("warmup fraction must lie in [0, 1)")
        if self.scenes_per_batch < 1 or self.views_per_scene < 1:
            raise ConfigError("batch and view counts must be positive")
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
        beta1=0.9,
        beta2=0.98,
    )


# ---------------------------------------------------------------------------
# schedule and optimizer


def cosine_lr(step: int, total_steps: int, base_lr: float, warmup_fraction: float) -> float:
    """Linear warmup to base_lr, then cosine decay to zero."""
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    warmup_steps = warmup_fraction * total_steps
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    remaining = total_steps - warmup_steps
    progress = (step - warmup_steps) / remaining if remaining > 0 else 1.0
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class OptimizerState:
    """AdamW's moments, its step count and each matrix parameter's live rows.

    ``first_moment`` and ``second_moment`` are dense, full-shape arrays.
    ``live_rows`` holds, for each parameter with two or more axes, a boolean
    mask over its leading axis: the rows that have ever had a nonzero (or
    non-finite) gradient.  A row outside the mask has zero moments and a
    zero gradient, so ``adamw_step`` gives it the decay-only update.  The
    mask holds no information the moments lack: rebuilt as "any moment of
    the row is nonzero", it can only drop rows whose moments are zero, and
    such a row updates to the same bytes either way, so resuming from saved
    moments needs no record of it.
    """

    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)
    live_rows: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def adamw_step(
    named_params: list[tuple[str, Tensor]],
    state: OptimizerState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.98,
    weight_decay: float = 0.0,
    eps: float = 1e-8,
    no_decay: frozenset[str] = frozenset({TEMPERATURE_KEY}),
) -> None:
    """Decoupled-weight-decay Adam with bias correction, in place.

    Per parameter: m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*g*g,
    then p -= lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay*p).  A
    missing gradient counts as zero.

    A matrix parameter runs that arithmetic only on its live rows (see
    ``OptimizerState``): it gathers their p, m, v and g, updates them and
    scatters them back, and gives every other row p -= lr * (0.0 +
    weight_decay*p), or nothing without decay.  Where m = v = g = 0 the
    full update is exactly that: m_hat and v_hat are +0.0, so the Adam term
    is 0.0/eps = +0.0, and adding it turns a -0.0 decay into +0.0 as the
    ``0.0 +`` does.  The results are therefore the dense update's bytes; a
    text table whose batches read a few of its rows costs a few rows.  Once
    every row is live the update runs in place over the whole array.

    Raises ``ContractError`` unless 0 <= beta1, beta2 < 1, eps > 0 and lr
    is finite with its sign bit clear: outside those ranges the dense
    update is not +0.0 on a zero row, or divides by zero.
    """
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0 and eps > 0.0
            and math.isfinite(lr) and math.copysign(1.0, lr) > 0.0):
        raise ContractError(f"AdamW needs 0 <= beta1, beta2 < 1, eps > 0 and a finite lr >= +0.0, "
                            f"got beta1={beta1!r}, beta2={beta2!r}, eps={eps!r}, lr={lr!r}")
    state.step += 1
    t = state.step
    m_correction = 1.0 - beta1**t
    v_correction = 1.0 - beta2**t

    def adam(name, p, m, v, grad, decay):
        """AdamW's arithmetic on p, m and v in place, through two work arrays."""
        if not np.isfinite(grad).all():
            raise NumericError(f"non-finite gradient in parameter {name}")
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
        work += eps
        update /= work
        if decay:
            np.multiply(decay, p, out=work)
            update += work
        update *= lr
        p -= update

    for name, tensor in named_params:
        p, grad = tensor.array, tensor.grad
        m = state.first_moment.get(name)
        if m is None:
            m = state.first_moment[name] = np.zeros_like(p)
        v = state.second_moment.get(name)
        if v is None:
            v = state.second_moment[name] = np.zeros_like(p)
        decay = weight_decay if weight_decay and name not in no_decay else 0.0
        live = state.live_rows.get(name)
        if live is None and p.ndim >= 2:
            live = state.live_rows[name] = np.zeros(p.shape[0], dtype=bool)
        if live is not None and not live.all() and grad is not None:
            live |= grad.any(axis=tuple(range(1, grad.ndim)))
        if live is None or live.all():
            adam(name, p, m, v, 0.0 if grad is None else grad, decay)
            continue
        rows = np.flatnonzero(live)
        p_rows, m_rows, v_rows = p[rows], m[rows], v[rows]
        adam(name, p_rows, m_rows, v_rows, 0.0 if grad is None else grad[rows], decay)
        m[rows], v[rows] = m_rows, v_rows
        if decay:  # the decay-only update on every row; the live rows are then overwritten
            work = np.multiply(decay, p)
            work += 0.0
            work *= lr
            p -= work
        p[rows] = p_rows


def clip_gradients(named_params, max_norm: float) -> float:
    """Scale all gradients to a global L2 norm of at most max_norm."""
    total = 0.0
    for _, tensor in named_params:
        if tensor.grad is not None:
            total += float((tensor.grad * tensor.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        factor = max_norm / norm
        for _, tensor in named_params:
            if tensor.grad is not None:
                tensor.grad *= factor
    return norm


# ---------------------------------------------------------------------------
# scene preparation


@dataclass
class PreparedScene:
    """One scene's frozen training inputs, over the views max coverage chose.

    ``views`` holds (image (H, W, 3), points (H, W, 3)) pairs, with invalid
    pixels at +0.0 as ``back_project`` writes them.
    """

    scene_id: str
    views: list[tuple[np.ndarray, np.ndarray]]
    geo_targets: np.ndarray | None
    pairs: list[tuple[int, int]]
    object_texts: list[str]
    view_captions: list[str]
    scene_caption: str


def prepare_scene(scene: Scene, cfg: TrainConfig) -> PreparedScene:
    """Select views by max coverage and freeze the geometric targets."""
    points, validity = scene.pointmaps()
    budget = cfg.views_per_scene
    if budget > len(scene.views):
        logger.warning(
            "scene %s has %d views, capping requested %d",
            scene.scene_id, len(scene.views), budget,
        )
        budget = len(scene.views)
    chosen = max_coverage_sample(points, validity, budget, cfg.voxel_size)
    points, validity = points[chosen], validity[chosen]
    views = [(scene.views[i].image, p) for i, p in zip(chosen, points)]
    targets = None
    if len(chosen) >= 2:
        targets = obj.geo_targets(
            points, validity, cfg.geo, subsample=cfg.chamfer_subsample, seed=cfg.seed
        )
    pairs = sorted(visibility_pairs(points, validity, scene.objects, min_points=cfg.min_points))
    return PreparedScene(
        scene_id=scene.scene_id,
        views=views,
        geo_targets=targets,
        pairs=pairs,
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
    """All four objectives over one batch, each one graph over the batch's (N, d) views."""
    zero = Tensor(np.zeros(1))
    views = encode_views(
        [view for scene in batch for view in scene.views], params, enc_cfg, modality=cfg.modality
    )
    counts = [len(scene.views) for scene in batch]

    l_geo = zero
    if cfg.use_geo:
        l_geo = obj.geo_loss_from_targets(views, [s.geo_targets for s in batch], temperature)

    l_ground = zero
    if cfg.use_ground:
        object_counts = [len(scene.object_texts) for scene in batch]
        starts = zip(np.cumsum([0] + counts).tolist(), np.cumsum([0] + object_counts).tolist())
        pairs = [(vs + v, os + o) for scene, (vs, os) in zip(batch, starts) for v, o in scene.pairs]
        for scene in batch:
            if not scene.pairs:
                logger.warning("ground loss: scene %s has no visible pairs", scene.scene_id)
        if pairs:
            text_embeddings = encode_texts(
                [text for scene in batch for text in scene.object_texts], params, enc_cfg)
            l_ground = obj.ground_loss(views, text_embeddings, pairs, temperature,
                                       obj.same_scene(counts, object_counts))

    l_view = zero
    if cfg.use_view:
        all_captions = [c for scene in batch for c in scene.view_captions]
        caption_embeddings = encode_texts(all_captions, params, enc_cfg)
        l_view = obj.view_loss(views, caption_embeddings, temperature)

    l_scene = zero
    if cfg.use_scene:
        scene_caption_embeddings = encode_texts([s.scene_caption for s in batch], params, enc_cfg)
        l_scene = obj.scene_loss(pool_scene(views, counts), scene_caption_embeddings, temperature)

    return obj.total_loss(l_geo, l_ground, l_view, l_scene, weight_geo=cfg.weight_geo)


# ---------------------------------------------------------------------------
# the training loop


@dataclass
class TrainResult:
    checkpoint_path: Path
    best_checkpoint_path: Path
    metrics_path: Path
    telemetry_path: Path
    initial_total: float
    final_total: float
    steps: int


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield order[start : start + batch_size]


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
    manifest_path = Path(manifest_path)
    out_dir = Path(out_dir)
    splits = load_manifest(manifest_path)
    if len(splits["train"]) < cfg.scenes_per_batch:
        raise ConfigError(
            f"need at least {cfg.scenes_per_batch} training scenes, "
            f"manifest has {len(splits['train'])}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    base = manifest_path.parent
    train_scenes = [prepare_scene(load_scene(base / name), cfg) for name in splits["train"]]
    val_scenes = [prepare_scene(load_scene(base / name), cfg) for name in splits["val"]]
    logger.info("loaded and prepared %d train and %d val scenes from %s",
                len(train_scenes), len(val_scenes), manifest_path)

    params = init_encoder_params(enc_cfg, seed=cfg.seed)
    temperature = obj.Temperature(cfg.initial_tau)
    named = list(params.named_parameters()) + [(TEMPERATURE_KEY, temperature.log_tau)]
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
    final_epoch_totals: list[float] = []
    step = 0
    with (open(metrics_path, "w", encoding="utf-8") as metrics,
          open(telemetry_path, "w", encoding="utf-8") as telemetry):
        metrics.write(METRICS_HEADER + "\n")
        telemetry.write(TELEMETRY_HEADER + "\n")
        for epoch in range(cfg.epochs):
            order = np.random.default_rng((cfg.seed, epoch)).permutation(len(train_scenes))
            epoch_totals = []
            for batch_idx in _batches(order, cfg.scenes_per_batch):
                batch = [train_scenes[i] for i in batch_idx]
                lr = cosine_lr(step, total_steps, cfg.learning_rate, cfg.warmup_fraction)
                E.zero_grads(t for _, t in named)
                breakdown = batch_loss(batch, params, enc_cfg, temperature, cfg)
                values = breakdown.values()
                if not math.isfinite(values["total"]):
                    raise NumericError(f"non-finite training loss at step {step}")
                E.backward(breakdown.total)
                grad_norm = clip_gradients(named, cfg.grad_clip)
                adamw_step(
                    named, state, lr,
                    beta1=cfg.beta1, beta2=cfg.beta2, weight_decay=cfg.weight_decay,
                )
                temperature.clamp()

                if initial_total is None:
                    initial_total = values["total"]
                epoch_totals.append(values["total"])
                metrics.write(
                    f"{step}\t{lr!r}\t{values['l_geo']!r}\t{values['l_ground']!r}"
                    f"\t{values['l_view']!r}\t{values['l_scene']!r}\t{values['total']!r}"
                    f"\t{temperature.value!r}\n"
                )
                telemetry.write(f"{step}\t{grad_norm!r}\t{lr!r}\t{temperature.value!r}\n")
                step += 1

            logger.info("epoch %d/%d: mean total loss %r over %d steps",
                        epoch + 1, cfg.epochs, float(np.mean(epoch_totals)), len(epoch_totals))
            if val_scenes:
                val_total = evaluate_loss(val_scenes, params, enc_cfg, temperature, cfg)
                logger.info("epoch %d/%d: validation total %r", epoch + 1, cfg.epochs, val_total)
                if val_total < best_val:
                    best_val = val_total
                    write_checkpoint(best_path)
            if epoch == cfg.epochs - 1:
                final_epoch_totals = epoch_totals

    write_checkpoint(checkpoint_path)
    if not val_scenes:
        write_checkpoint(best_path)
    return TrainResult(
        checkpoint_path=checkpoint_path,
        best_checkpoint_path=best_path,
        metrics_path=metrics_path,
        telemetry_path=telemetry_path,
        initial_total=float(initial_total),
        final_total=float(np.mean(final_epoch_totals)),
        steps=step,
    )


def evaluate_loss(
    scenes: list[PreparedScene],
    params: EncoderParams,
    enc_cfg: EncoderConfig,
    temperature: obj.Temperature,
    cfg: TrainConfig,
) -> float:
    """Mean total loss over fixed batches, no gradients."""
    totals = []
    with E.no_grad():
        for start in range(0, len(scenes), cfg.scenes_per_batch):
            batch = scenes[start : start + cfg.scenes_per_batch]
            totals.append(batch_loss(batch, params, enc_cfg, temperature, cfg).total.item())
    return float(np.mean(totals))
