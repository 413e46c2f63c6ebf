"""Evaluation protocols: viewpoint grounding, scene retrieval, scene
classification (zero-shot and linear probe), and report emission.

All rankings use cosine similarity between unit-normalized embeddings;
ties break toward the lower index.  Grounding and retrieval share one
Recall@N, and retrieval, zero-shot classification and the probe share
one scene embedding, ``embed_scenes``.  Embedding extraction runs outside
the autodiff graph.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import engine as E
from .data import Scene
from .encoder import EncoderConfig, EncoderParams, encode_texts, encode_views
from .errors import ContractError, DegenerateInputError, FormatError
from .geometry import DEFAULT_MIN_POINTS, box_counts, max_coverage_sample
from .probe import ProbeConfig, ProbeOutcome, linear_probe

logger = logging.getLogger(__name__)

DEFAULT_RECALL_NS = (1, 5, 10)
DEFAULT_PROMPT = "This room is a {}."
EXTRA_PROMPTS = (
    "The room type is {}.",
    "The scene is a {}.",
    "This indoor scene is a {}.",
)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity between rows of a and rows of b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a_norm = np.linalg.norm(a, axis=-1, keepdims=True)
    b_norm = np.linalg.norm(b, axis=-1, keepdims=True)
    if np.any(a_norm == 0) or np.any(b_norm == 0):
        raise DegenerateInputError("cosine similarity of a zero row")
    return (a / a_norm) @ (b / b_norm).T


def rank_descending(scores: np.ndarray) -> list[int]:
    """Indices sorted by descending score, ties toward the lower index."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def _recall_at(
    orders: Sequence[list[int]], targets: Sequence[int], recall_ns: Sequence[int]
) -> dict[int, float]:
    """For each N, the fraction of rankings that place their target in the top N."""
    positions = [order.index(target) for order, target in zip(orders, targets)]
    return {n: sum(position < n for position in positions) / len(positions) for n in recall_ns}


# ---------------------------------------------------------------------------
# embedding extraction


def embed_scene_views(
    scene: Scene, params: EncoderParams, config: EncoderConfig, modality: str = "both"
) -> np.ndarray:
    """All view embeddings of a scene as a (V, d) array, without gradients.

    The pointmaps come from ``Scene.pointmaps``, recomputed on each call by
    design: holding them for every evaluated scene would cost more memory
    than back-projecting again saves.
    """
    points, _ = scene.pointmaps()
    pairs = list(zip([v.image for v in scene.views], points))
    with E.no_grad():
        return encode_views(pairs, params, config, modality=modality).array


def scene_embedding_from_views(view_embeddings: np.ndarray) -> np.ndarray:
    mean = view_embeddings.mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm < 1e-12:
        raise DegenerateInputError("scene embedding degenerates to zero")
    return mean / norm


def embed_scenes(
    scenes: Sequence[Scene], params: EncoderParams, config: EncoderConfig
) -> np.ndarray:
    """One pooled, unit-norm embedding row per scene, as an (S, d) array."""
    return np.stack(
        [scene_embedding_from_views(embed_scene_views(s, params, config)) for s in scenes]
    )


def embed_texts(texts: Sequence[str], params: EncoderParams, config: EncoderConfig) -> np.ndarray:
    with E.no_grad():
        return encode_texts(texts, params, config).array


# ---------------------------------------------------------------------------
# viewpoint grounding


@dataclass(frozen=True)
class GroundingInstance:
    scene_id: str
    referring_text: str
    target_object_id: int
    gt_view: int
    visible_set: frozenset[int]


@dataclass
class RetrievalResult:
    recall_at: dict[int, float]
    visible_set_accuracy: float | None
    count: int


def build_grounding_instances(
    scenes: Sequence[Scene], min_points: int = DEFAULT_MIN_POINTS
) -> list[GroundingInstance]:
    """One instance per annotated object with a nonempty visible set.

    The ground-truth view maximizes visible area (ties to the lower view
    index); the visible set collects all views at or above min_points.
    """
    instances = []
    for scene in scenes:
        scene_areas = box_counts(*scene.pointmaps(), scene.objects)
        for obj, areas in zip(scene.objects, scene_areas.T):
            visible = frozenset(int(v) for v in np.nonzero(areas >= min_points)[0])
            if not visible:
                logger.warning(
                    "object %d in scene %s observed nowhere, skipping",
                    obj.object_id, scene.scene_id,
                )
                continue
            instances.append(
                GroundingInstance(
                    scene_id=scene.scene_id,
                    referring_text=obj.referring_text,
                    target_object_id=obj.object_id,
                    gt_view=int(np.argmax(areas)),
                    visible_set=visible,
                )
            )
    return instances


def grounding_metrics(
    similarities: Sequence[np.ndarray],
    gt_views: Sequence[int],
    visible_sets: Sequence[frozenset[int]],
    recall_ns: Sequence[int] = DEFAULT_RECALL_NS,
) -> RetrievalResult:
    """Recall@N and visible-set accuracy from per-instance view scores."""
    if len(similarities) == 0:
        return RetrievalResult(recall_at={n: 0.0 for n in recall_ns}, visible_set_accuracy=0.0, count=0)
    orders = [rank_descending(np.asarray(scores)) for scores in similarities]
    visible_hits = sum(order[0] in visible for order, visible in zip(orders, visible_sets))
    return RetrievalResult(
        recall_at=_recall_at(orders, gt_views, recall_ns),
        visible_set_accuracy=visible_hits / len(orders),
        count=len(orders),
    )


def viewpoint_grounding(
    params: EncoderParams,
    config: EncoderConfig,
    scenes: Sequence[Scene],
    instances: Sequence[GroundingInstance],
    recall_ns: Sequence[int] = DEFAULT_RECALL_NS,
    modality: str = "both",
) -> RetrievalResult:
    """Rank each scene's views against the referring text embedding."""
    by_id = {scene.scene_id: scene for scene in scenes}
    view_cache: dict[str, np.ndarray] = {}
    sims, gts, visibles = [], [], []
    for inst in instances:
        scene = by_id.get(inst.scene_id)
        if scene is None:
            raise ContractError(f"instance references unknown scene {inst.scene_id}")
        if inst.scene_id not in view_cache:
            view_cache[inst.scene_id] = embed_scene_views(scene, params, config, modality)
        text = embed_texts([inst.referring_text], params, config)
        sims.append(cosine_similarity(view_cache[inst.scene_id], text)[:, 0])
        gts.append(inst.gt_view)
        visibles.append(inst.visible_set)
    return grounding_metrics(sims, gts, visibles, recall_ns)


def filter_unique(instances: Sequence[GroundingInstance]) -> list[GroundingInstance]:
    """Instances whose target is observed by exactly one view."""
    return [inst for inst in instances if len(inst.visible_set) == 1]


# ---------------------------------------------------------------------------
# scene retrieval


def build_scene_captions(scene: Scene, n_utterances: int) -> list[str]:
    """Join consecutive groups of n referring texts into retrieval captions."""
    if n_utterances < 1:
        raise ContractError("captions need at least one utterance")
    texts = [obj.referring_text for obj in scene.objects]
    if not texts:
        return []
    if len(texts) < n_utterances:
        logger.info(
            "scene %s has %d referring texts, using one shorter caption",
            scene.scene_id, len(texts),
        )
    chunks = [texts[i : i + n_utterances] for i in range(0, len(texts), n_utterances)]
    return [". ".join(chunk) for chunk in chunks]


def _retrieval_captions(scenes: Sequence[Scene], n_utterances: int) -> tuple[list[str], list[int]]:
    """Every scene's captions, and the index of the scene each one describes."""
    captions, gt_scene = [], []
    for i, scene in enumerate(scenes):
        for caption in build_scene_captions(scene, n_utterances):
            captions.append(caption)
            gt_scene.append(i)
    return captions, gt_scene


def _caption_recall(
    caption_matrix: np.ndarray,
    gt_scene: Sequence[int],
    scene_matrix: np.ndarray,
    recall_ns: Sequence[int],
) -> dict[int, float]:
    orders = [rank_descending(row) for row in cosine_similarity(caption_matrix, scene_matrix)]
    return _recall_at(orders, gt_scene, recall_ns)


def scene_retrieval(
    params: EncoderParams,
    config: EncoderConfig,
    scenes: Sequence[Scene],
    n_utterances: int,
    recall_ns: Sequence[int] = (1, 5),
) -> RetrievalResult:
    """Rank scenes against captions built from their referring texts."""
    captions, gt_scene = _retrieval_captions(scenes, n_utterances)
    if not captions:
        return RetrievalResult(recall_at={n: 0.0 for n in recall_ns}, visible_set_accuracy=None, count=0)
    scene_matrix = embed_scenes(scenes, params, config)
    recall = _caption_recall(embed_texts(captions, params, config), gt_scene, scene_matrix, recall_ns)
    return RetrievalResult(recall_at=recall, visible_set_accuracy=None, count=len(captions))


def retrieval_views_curve(
    params: EncoderParams,
    config: EncoderConfig,
    scenes: Sequence[Scene],
    n_utterances: int,
    budgets: Sequence[int],
    voxel_size: float = 0.25,
) -> list[tuple[int, float]]:
    """R@1 of scene retrieval as the per-scene view budget varies.

    Each scene and each caption is encoded once.  At each budget a scene
    with more views than the budget is represented by the pooled rows of
    its max-coverage views.  Greedy picks at a smaller budget are a prefix
    of those at a larger one, so coverage runs once per scene, at the
    largest budget below its view count.
    """
    if min(budgets, default=1) < 1:
        raise ContractError(f"view budgets must be at least 1, got {list(budgets)}")
    captions, gt_scene = _retrieval_captions(scenes, n_utterances)
    if not captions:
        return [(budget, 0.0) for budget in budgets]
    caption_matrix = embed_texts(captions, params, config)
    scene_views = []
    for scene in scenes:
        views = embed_scene_views(scene, params, config)
        below = [budget for budget in budgets if budget < len(views)]
        picks = max_coverage_sample(*scene.pointmaps(), max(below), voxel_size) if below else []
        scene_views.append((views, picks))
    curve = []
    for budget in budgets:
        rows = [
            scene_embedding_from_views(views[picks[:budget]] if budget < len(views) else views)
            for views, picks in scene_views
        ]
        curve.append((budget, _caption_recall(caption_matrix, gt_scene, np.stack(rows), (1,))[1]))
    return curve


# ---------------------------------------------------------------------------
# scene type classification


def classify_from_similarities(similarities: np.ndarray, labels: np.ndarray) -> float:
    predictions = similarities.argmax(axis=1)
    return float(np.mean(predictions == np.asarray(labels)))


def zero_shot_classify(
    params: EncoderParams,
    config: EncoderConfig,
    scenes: Sequence[Scene],
    class_names: Sequence[str],
    template: str | Sequence[str] = DEFAULT_PROMPT,
) -> float:
    """Accuracy of matching scene embeddings to prompted class texts.

    With several templates the class text embeddings are averaged and
    re-normalized before matching.
    """
    if len(class_names) < 2:
        raise ContractError("zero-shot classification needs at least two classes")
    templates = [template] if isinstance(template, str) else list(template)
    class_rows = []
    for name in class_names:
        prompts = [t.format(name) for t in templates]
        rows = embed_texts(prompts, params, config)
        mean = rows.mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm == 0:
            raise DegenerateInputError(f"class {name!r}: mean prompt embedding has zero norm")
        class_rows.append(mean / norm)
    class_matrix = np.stack(class_rows)

    labels = np.array([class_names.index(s.scene_type) for s in scenes])
    similarities = cosine_similarity(embed_scenes(scenes, params, config), class_matrix)
    return classify_from_similarities(similarities, labels)


def probe_features(
    params: EncoderParams,
    config: EncoderConfig,
    scenes: Sequence[Scene],
    class_names: Sequence[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Scene embeddings and integer labels for linear probing."""
    labels = np.array([class_names.index(s.scene_type) for s in scenes])
    return embed_scenes(scenes, params, config), labels


def few_shot_probe(
    params: EncoderParams,
    config: EncoderConfig,
    train_scenes: Sequence[Scene],
    test_scenes: Sequence[Scene],
    class_names: Sequence[str],
    cfg: ProbeConfig,
) -> ProbeOutcome:
    """Sample `shots` scenes per class, probe, and score the test scenes."""
    features, labels = probe_features(params, config, train_scenes, class_names)
    rng = np.random.default_rng(cfg.seed)
    chosen: list[int] = []
    for cls in range(len(class_names)):
        members = np.nonzero(labels == cls)[0]
        if len(members) < cfg.shots:
            raise ContractError(
                f"class {class_names[cls]!r} has {len(members)} scenes, need {cfg.shots}"
            )
        chosen.extend(rng.choice(members, size=cfg.shots, replace=False).tolist())
    chosen = sorted(chosen)
    test_features, test_labels = probe_features(params, config, test_scenes, class_names)
    return linear_probe(features[chosen], labels[chosen], test_features, test_labels, cfg)


# ---------------------------------------------------------------------------
# reports


@dataclass
class EvalReport:
    grounding: RetrievalResult | None = None
    grounding_unique: RetrievalResult | None = None
    retrieval: dict[int, RetrievalResult] = field(default_factory=dict)
    zero_shot_accuracy: float | None = None
    probe_outcomes: dict[int, ProbeOutcome] = field(default_factory=dict)
    views_curve: list[tuple[int, float]] = field(default_factory=list)


def _fmt(value) -> str:
    """Numbers via repr of the builtin type, so parsing is bit-exact."""
    if value is None:
        return "None"
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    return repr(float(value))


def emit_report(report: EvalReport, out_dir) -> dict[str, Path]:
    """Write the per-task TSV tables, plot series, and key=value summary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    summary: list[tuple[str, object]] = []

    grounding_path = out_dir / "grounding.tsv"
    lines = ["protocol\tcount\tr_at_1\tr_at_5\tr_at_10\tvisible_set_accuracy"]
    for name, result in (("standard", report.grounding), ("unique", report.grounding_unique)):
        if result is None:
            continue
        lines.append(
            f"{name}\t{result.count}"
            f"\t{_fmt(result.recall_at.get(1, 0.0))}\t{_fmt(result.recall_at.get(5, 0.0))}"
            f"\t{_fmt(result.recall_at.get(10, 0.0))}\t{_fmt(result.visible_set_accuracy)}"
        )
        summary.append((f"grounding.{name}.count", result.count))
        for n, value in sorted(result.recall_at.items()):
            summary.append((f"grounding.{name}.r_at_{n}", value))
        summary.append((f"grounding.{name}.visible_set_accuracy", result.visible_set_accuracy))
    grounding_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written["grounding"] = grounding_path

    retrieval_path = out_dir / "retrieval.tsv"
    lines = ["n_utterances\tcount\tr_at_1\tr_at_5"]
    for n, result in sorted(report.retrieval.items()):
        lines.append(
            f"{n}\t{result.count}\t{_fmt(result.recall_at.get(1, 0.0))}"
            f"\t{_fmt(result.recall_at.get(5, 0.0))}"
        )
        summary.append((f"retrieval.n{n}.r_at_1", result.recall_at.get(1, 0.0)))
        summary.append((f"retrieval.n{n}.r_at_5", result.recall_at.get(5, 0.0)))
    retrieval_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written["retrieval"] = retrieval_path

    classify_path = out_dir / "classification.tsv"
    lines = ["protocol\taccuracy\tchosen_reg"]
    if report.zero_shot_accuracy is not None:
        lines.append(f"zero_shot\t{_fmt(report.zero_shot_accuracy)}\t-")
        summary.append(("classification.zero_shot", report.zero_shot_accuracy))
    for shots, outcome in sorted(report.probe_outcomes.items()):
        lines.append(f"probe_{shots}shot\t{_fmt(outcome.test_accuracy)}\t{_fmt(outcome.chosen_reg)}")
        summary.append((f"classification.probe_{shots}shot", outcome.test_accuracy))
    classify_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written["classification"] = classify_path

    curve_path = out_dir / "plot_views_vs_r1.tsv"
    lines = ["x\ty"] + [f"{x}\t{_fmt(y)}" for x, y in report.views_curve]
    curve_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written["plot_views_vs_r1"] = curve_path

    summary_path = out_dir / "summary.txt"
    summary_path.write_text(
        "".join(f"{key}={_fmt(value)}\n" for key, value in summary), encoding="utf-8"
    )
    written["summary"] = summary_path
    return written


def parse_summary(path) -> dict[str, float | None]:
    """Read back a key=value summary with exact float round-trip."""
    values: dict[str, float | None] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        key, _, raw = line.partition("=")
        try:  # a line without '=' leaves raw empty, which float rejects too
            values[key] = float(raw) if raw != "None" else None
        except ValueError as exc:
            raise FormatError(f"summary line is not key=number: {line!r} in {path}") from exc
    return values
