"""Evaluation protocols: viewpoint grounding, scene retrieval, scene
classification (zero-shot and linear probe), and report emission.

All rankings use cosine similarity between embeddings that
``engine.normalize_rows`` scales to unit norm, with its zero-row rule.
No score row is sorted: a target's rank is counted on its row, as the
place it would take in a descending sort with ties toward the lower
index.  Grounding and retrieval share one Recall@N at fixed N: R@1, R@5
and R@10 for grounding, R@1 and R@5 for retrieval, R@1 for the views
curve.  Retrieval, zero-shot classification (one prompt,
``DEFAULT_PROMPT``) and the probe share one scene embedding,
``embed_scenes``.  Embedding extraction runs outside the autodiff graph.

A protocol call encodes only the scenes it reads (the probe encodes only
the training scenes it samples) and each of them once, in one
``embed_scene_views`` call per scene.  Nothing is cached across calls:
parameters change in place during training, and a ``Scene`` is frozen but
its arrays are not, so a cache could return stale rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import engine as E
from .atomic import atomic_write
from .config import conforms
from .data import Scene, read_utf8
from .encoder import EncoderConfig, EncoderParams, encode_texts, encode_views, pool_scene
from .errors import ContractError, DegenerateInputError, FormatError, NumericError, ShapeError
from .geometry import DEFAULT_MIN_POINTS, box_counts, max_coverage_sample
from .probe import ProbeConfig, ProbeOutcome, accuracy, linear_probe

logger = logging.getLogger(__name__)

GROUNDING_RECALL_NS = (1, 5, 10)
RETRIEVAL_RECALL_NS = (1, 5)
DEFAULT_PROMPT = "This room is a {}."


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity between rows of a and rows of b, 2-D and of one width.

    Both sides are normalized by ``engine.normalize_rows``, so a row whose
    norm is below its 1e-12 floor raises ``DegenerateInputError``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"cosine similarity of rows of shapes {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NumericError("cosine similarity of a non-finite row")
    return E.normalize_rows(E.Tensor(a)).array @ E.normalize_rows(E.Tensor(b)).array.T


def _recall_at(
    rows: Sequence[np.ndarray], targets: Sequence[int], recall_ns: Sequence[int]
) -> dict[int, float]:
    """For each N, the fraction of score rows that place their target in the top N:
    below N scores higher than it, counting equal scores at lower indices."""
    positions = [int(np.count_nonzero(row > row[t]) + np.count_nonzero(row[:t] == row[t]))
                 for row, t in zip(rows, targets)]
    return {n: sum(position < n for position in positions) / len(positions) for n in recall_ns}


# ---------------------------------------------------------------------------
# embedding extraction


def embed_scene_views(
    scene: Scene,
    params: EncoderParams,
    config: EncoderConfig,
    points: np.ndarray | None = None,
) -> np.ndarray:
    """All view embeddings of a scene as a (V, d) array, without gradients.

    ``points`` are the (V, H, W, 3) points of ``scene.pointmaps()``, from a
    caller that already holds them.  Without them the call back-projects
    again, by design: holding every evaluated scene's pointmaps would cost
    more memory than back-projecting again saves.
    """
    if points is None:
        points, _ = scene.pointmaps()
    with E.no_grad():
        return encode_views(scene.images, points, params, config).array


def scene_embedding_from_views(view_embeddings: np.ndarray) -> np.ndarray:
    """One scene's (V, d) view rows pooled by ``pool_scene``, as training pools them."""
    if not np.isfinite(view_embeddings).all():
        raise NumericError("scene embedding from a non-finite view row")
    with E.no_grad():
        return pool_scene(E.Tensor(view_embeddings), [len(view_embeddings)]).array[0]


def embed_scenes(
    scenes: Sequence[Scene], params: EncoderParams, config: EncoderConfig
) -> np.ndarray:
    """One pooled, unit-norm embedding row per scene, as an (S, d) array.

    No scenes raise ``DegenerateInputError``.
    """
    if not scenes:
        raise DegenerateInputError("cannot embed zero scenes")
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
    gt_view: int
    visible_set: frozenset[int]


@dataclass
class RetrievalResult:
    recall_at: dict[int, float]
    visible_set_accuracy: float | None
    count: int


def build_grounding_instances(scenes: Sequence[Scene]) -> list[GroundingInstance]:
    """One instance per annotated object with a nonempty visible set.

    The ground-truth view maximizes visible area (ties to the lower view
    index); the visible set collects all views at or above
    ``DEFAULT_MIN_POINTS``.
    """
    instances = []
    for scene in scenes:
        scene_areas = box_counts(*scene.pointmaps(), scene.objects)
        for obj, areas in zip(scene.objects, scene_areas.T):
            visible = frozenset(int(v) for v in np.nonzero(areas >= DEFAULT_MIN_POINTS)[0])
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
                    gt_view=int(np.argmax(areas)),
                    visible_set=visible,
                )
            )
    return instances


def grounding_metrics(
    similarities: Sequence[np.ndarray],
    gt_views: Sequence[int],
    visible_sets: Sequence[frozenset[int]],
) -> RetrievalResult:
    """Recall@N for each N of ``GROUNDING_RECALL_NS``, and visible-set accuracy.

    The three sequences hold one entry per instance; lengths that differ,
    or a score row that is not 1-D, raise ``ShapeError``, a NaN score
    ``NumericError``, and a ground-truth view that is not an int inside its
    score row ``ContractError``.  Ties go to the lower view index.
    """
    if not len(similarities) == len(gt_views) == len(visible_sets):
        raise ShapeError(f"{len(similarities)} score rows, {len(gt_views)} ground-truth views "
                         f"and {len(visible_sets)} visible sets")
    rows = [np.asarray(scores) for scores in similarities]
    if any(row.ndim != 1 for row in rows):
        raise ShapeError(f"score rows of shapes {[row.shape for row in rows]}, not one row each")
    if any(np.isnan(row).any() for row in rows):
        raise NumericError("ranking a NaN score")
    if not all(conforms(int, gt) and 0 <= gt < len(row) for row, gt in zip(rows, gt_views)):
        raise ContractError("a ground-truth view is not an int inside its row of view scores")
    if not rows:
        return RetrievalResult(recall_at={n: 0.0 for n in GROUNDING_RECALL_NS},
                               visible_set_accuracy=0.0, count=0)
    visible_hits = sum(int(np.argmax(row)) in visible for row, visible in zip(rows, visible_sets))
    return RetrievalResult(
        recall_at=_recall_at(rows, gt_views, GROUNDING_RECALL_NS),
        visible_set_accuracy=visible_hits / len(rows),
        count=len(rows),
    )


def viewpoint_grounding(
    params: EncoderParams,
    config: EncoderConfig,
    scenes: Sequence[Scene],
    instances: Sequence[GroundingInstance],
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
            view_cache[inst.scene_id] = embed_scene_views(scene, params, config)
        text = embed_texts([inst.referring_text], params, config)
        sims.append(cosine_similarity(view_cache[inst.scene_id], text)[:, 0])
        gts.append(inst.gt_view)
        visibles.append(inst.visible_set)
    return grounding_metrics(sims, gts, visibles)


def filter_unique(instances: Sequence[GroundingInstance]) -> list[GroundingInstance]:
    """Instances whose target is observed by exactly one view."""
    return [inst for inst in instances if len(inst.visible_set) == 1]


# ---------------------------------------------------------------------------
# scene retrieval


def build_scene_captions(scene: Scene, n_utterances: int) -> list[str]:
    """Join consecutive groups of n referring texts into retrieval captions.

    An ``n_utterances`` that is not an int of at least 1 raises ``ContractError``."""
    if not (conforms(int, n_utterances) and n_utterances >= 1):
        raise ContractError(f"captions need an int of at least one utterance, got {n_utterances!r}")
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


def scene_retrieval(
    params: EncoderParams,
    config: EncoderConfig,
    scenes: Sequence[Scene],
    n_utterances: int,
) -> RetrievalResult:
    """Rank scenes against captions built from their referring texts, at ``RETRIEVAL_RECALL_NS``."""
    captions, gt_scene = _retrieval_captions(scenes, n_utterances)
    if not captions:
        return RetrievalResult(recall_at={n: 0.0 for n in RETRIEVAL_RECALL_NS},
                               visible_set_accuracy=None, count=0)
    scene_matrix = embed_scenes(scenes, params, config)
    similarities = cosine_similarity(embed_texts(captions, params, config), scene_matrix)
    recall = _recall_at(similarities, gt_scene, RETRIEVAL_RECALL_NS)
    return RetrievalResult(recall_at=recall, visible_set_accuracy=None, count=len(captions))


def retrieval_views_curve(
    params: EncoderParams,
    config: EncoderConfig,
    scenes: Sequence[Scene],
    n_utterances: int,
    budgets: Sequence[int],
) -> list[tuple[int, float]]:
    """R@1 of scene retrieval as the per-scene view budget varies.

    Each scene is back-projected and encoded once, and each caption
    encoded once.  At each budget a scene with more views than the budget
    is represented by the pooled rows of its max-coverage views.  Greedy
    picks at a smaller budget are a prefix of those at a larger one, so
    coverage runs once per scene, at the largest budget below its view
    count.
    """
    if min(budgets, default=1) < 1:
        raise ContractError(f"view budgets must be at least 1, got {list(budgets)}")
    captions, gt_scene = _retrieval_captions(scenes, n_utterances)
    if not captions:
        return [(budget, 0.0) for budget in budgets]
    caption_matrix = embed_texts(captions, params, config)
    scene_views = []
    for scene in scenes:
        points, validity = scene.pointmaps()
        views = embed_scene_views(scene, params, config, points=points)
        below = [budget for budget in budgets if budget < len(views)]
        picks = max_coverage_sample(points, validity, max(below)) if below else []
        scene_views.append((views, picks))
    curve = []
    for budget in budgets:
        rows = [
            scene_embedding_from_views(views[picks[:budget]] if budget < len(views) else views)
            for views, picks in scene_views
        ]
        similarities = cosine_similarity(caption_matrix, np.stack(rows))
        curve.append((budget, _recall_at(similarities, gt_scene, (1,))[1]))
    return curve


# ---------------------------------------------------------------------------
# scene type classification


def class_labels(scenes: Sequence[Scene], class_names: Sequence[str]) -> np.ndarray:
    """Each scene's index in class_names; ContractError names a type not among them."""
    names = list(class_names)
    unknown = sorted({s.scene_type for s in scenes} - set(names))
    if unknown:
        raise ContractError(f"scene types {unknown} are not among the class names {names}")
    return np.array([names.index(s.scene_type) for s in scenes], dtype=np.int64)


def classify_from_similarities(similarities: np.ndarray, labels: np.ndarray) -> float:
    """The fraction of (S, C) similarity rows whose argmax is the row's label, by ``probe.accuracy``;
    no classes (C = 0) raise ``DegenerateInputError``."""
    if similarities.shape[1] == 0:
        raise DegenerateInputError(f"zero-shot accuracy over no classes: {similarities.shape}")
    if np.isnan(similarities).any():
        raise NumericError("zero-shot accuracy over a NaN similarity")
    return accuracy(similarities.argmax(axis=1), labels)


def zero_shot_classify(
    params: EncoderParams,
    config: EncoderConfig,
    scenes: Sequence[Scene],
    class_names: Sequence[str],
) -> float:
    """Accuracy of matching scene embeddings to one prompt per class.

    Each class's prompt is ``DEFAULT_PROMPT`` with the class name filled
    in.  A scene type not among the class names raises ``ContractError``
    before any prompt is embedded.
    """
    if len(class_names) < 2:
        raise ContractError("zero-shot classification needs at least two classes")
    labels = class_labels(scenes, class_names)
    class_matrix = embed_texts([DEFAULT_PROMPT.format(name) for name in class_names], params, config)
    similarities = cosine_similarity(embed_scenes(scenes, params, config), class_matrix)
    return classify_from_similarities(similarities, labels)


def few_shot_probe(
    params: EncoderParams,
    config: EncoderConfig,
    train_scenes: Sequence[Scene],
    test_scenes: Sequence[Scene],
    class_names: Sequence[str],
    cfg: ProbeConfig,
) -> ProbeOutcome:
    """Sample `shots` training scenes per class, probe, and score the test scenes.

    Both label sets are checked, and the scenes drawn, before anything is
    encoded, so an unknown scene type or a class with too few scenes
    raises ``ContractError`` at no encoding cost.  Only the drawn training
    scenes are encoded; each scene is encoded alone, so its row has the
    bytes it has when every training scene is embedded.
    """
    labels = class_labels(train_scenes, class_names)
    test_labels = class_labels(test_scenes, class_names)
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
    features = embed_scenes([train_scenes[i] for i in chosen], params, config)
    test_features = embed_scenes(test_scenes, params, config)
    return linear_probe(features, labels[chosen], test_features, test_labels, cfg)


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


def _recall_cells(result: RetrievalResult, recall_ns: Sequence[int]) -> str:
    """Tab-joined table cells of R@N for each N; ``-`` where the result holds no R@N."""
    return "\t".join(_fmt(result.recall_at[n]) if n in result.recall_at else "-"
                     for n in recall_ns)


def emit_report(report: EvalReport, out_dir) -> dict[str, Path]:
    """Write the per-task TSV tables, plot series, and key=value summary, each atomically.

    A recall that a result did not compute is ``-`` in its table cell and
    has no summary line.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    texts: dict[str, str] = {}  # file name -> contents
    summary: list[tuple[str, object]] = []

    lines = ["\t".join(["protocol", "count", *(f"r_at_{n}" for n in GROUNDING_RECALL_NS),
                         "visible_set_accuracy"])]
    for name, result in (("standard", report.grounding), ("unique", report.grounding_unique)):
        if result is None:
            continue
        lines.append(f"{name}\t{result.count}\t{_recall_cells(result, GROUNDING_RECALL_NS)}"
                     f"\t{_fmt(result.visible_set_accuracy)}")
        summary.append((f"grounding.{name}.count", result.count))
        for n, value in sorted(result.recall_at.items()):
            summary.append((f"grounding.{name}.r_at_{n}", value))
        summary.append((f"grounding.{name}.visible_set_accuracy", result.visible_set_accuracy))
    texts["grounding.tsv"] = "\n".join(lines) + "\n"

    lines = ["\t".join(["n_utterances", "count", *(f"r_at_{n}" for n in RETRIEVAL_RECALL_NS)])]
    for n, result in sorted(report.retrieval.items()):
        lines.append(f"{n}\t{result.count}\t{_recall_cells(result, RETRIEVAL_RECALL_NS)}")
        for k, value in sorted(result.recall_at.items()):
            summary.append((f"retrieval.n{n}.r_at_{k}", value))
    texts["retrieval.tsv"] = "\n".join(lines) + "\n"

    lines = ["protocol\taccuracy\tchosen_reg"]
    if report.zero_shot_accuracy is not None:
        lines.append(f"zero_shot\t{_fmt(report.zero_shot_accuracy)}\t-")
        summary.append(("classification.zero_shot", report.zero_shot_accuracy))
    for shots, outcome in sorted(report.probe_outcomes.items()):
        lines.append(f"probe_{shots}shot\t{_fmt(outcome.test_accuracy)}\t{_fmt(outcome.chosen_reg)}")
        summary.append((f"classification.probe_{shots}shot", outcome.test_accuracy))
    texts["classification.tsv"] = "\n".join(lines) + "\n"

    lines = ["x\ty"] + [f"{x}\t{_fmt(y)}" for x, y in report.views_curve]
    texts["plot_views_vs_r1.tsv"] = "\n".join(lines) + "\n"
    texts["summary.txt"] = "".join(f"{key}={_fmt(value)}\n" for key, value in summary)

    written: dict[str, Path] = {}
    for name, text in texts.items():
        written[Path(name).stem] = path = out_dir / name
        with atomic_write(path) as fh:
            fh.write(text.encode("utf-8"))
    return written


def parse_summary(path) -> dict[str, float | None]:
    """Read back a key=value summary with exact float round-trip.

    A missing, non-UTF-8 or malformed summary raises ``FormatError``, and
    so does an empty or repeated key.
    """
    values: dict[str, float | None] = {}
    for line in read_utf8(Path(path), "summary").splitlines():
        if not line.strip():
            continue
        key, _, raw = line.partition("=")
        if not key or key in values:
            raise FormatError(f"summary line has an empty or repeated key: {line!r} in {path}")
        try:  # a line without '=' leaves raw empty, which float rejects too
            values[key] = float(raw) if raw != "None" else None
        except ValueError as exc:
            raise FormatError(f"summary line is not key=number: {line!r} in {path}") from exc
    return values
