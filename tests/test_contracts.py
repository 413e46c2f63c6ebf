"""Degenerate inputs raise typed errors.

One table: each row is a public callable, degenerate arguments, and the
``UpmError`` subclass the call must raise instead of returning an answer.
"""

import functools
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from upm import data, evaluation, geometry, objectives, probe, trainer
from upm.encoder import EncoderConfig, embed_views, encode_views, init_encoder_params
from upm.engine import Tensor, normalize_rows
from upm.errors import (ConfigError, ContractError, DegenerateInputError, FormatError, NumericError,
                        ShapeError)

CONFIG = EncoderConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=0, num_heads=2,
                       mlp_ratio=1, text_vocab_size=4, text_context_length=4)
PARAMS = init_encoder_params(CONFIG)
VIEWS = np.zeros((2, 8, 8, 3))
VALID = np.ones((2, 8, 8), dtype=bool)
# A two-class probe problem of four rows, for fit_logistic_grid(features, labels, 2, regs).
FEATURES = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, -1.0]])
LABELS = np.array([0, 1, 1, 0])
# Two cameras as (V, ...) stacks: intrinsics, rotations and translations.
CAMERAS = ([[4.0, 4.0, 3.5, 3.5]] * 2, [np.eye(3)] * 2, np.zeros((2, 3)))
BOX = geometry.ObjectAnnotation(0, [-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], "the box", "box")
# Two 4-pixel views, as data.Scene takes their stacks.
IMAGES = np.full((2, 4, 4, 3), 0.5)
DEPTHS = np.ones((2, 4, 4))


def with_value(array, index, value):
    """A float copy of ``array`` with one entry replaced."""
    out = np.array(array, dtype=float)
    out[index] = value
    return out


def gradients(grad=None):
    """One parameter with a gradient, ones unless given, as ``clip_gradients`` takes them."""
    tensor = Tensor(np.zeros(2), requires_grad=True)
    tensor.grad = np.ones(2) if grad is None else grad
    return [("w", tensor)]


def prepared(size):
    """A prepared scene of two blank views, ``size`` pixels a side, as ``batch_loss`` takes it."""
    blank = np.zeros((2, size, size, 3))
    return trainer.PreparedScene("blank", blank, blank, None, np.zeros((2, 0), dtype=bool), [],
                                 ["", ""], "")


def load_manifest_text(text):
    """``data.load_manifest`` of a manifest file holding ``text``."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "manifest.tsv"
        path.write_text(text, encoding="utf-8")
        return data.load_manifest(path)


def scene_args(images=IMAGES, depths=DEPTHS, cameras=2, objects=()):
    """``data.Scene``'s arguments: the two raster stacks, stacks of ``cameras`` cameras, the
    ``objects`` and a caption per view."""
    return ("blank", images, depths, [[4.0, 4.0, 1.5, 1.5]] * cameras, [np.eye(3)] * cameras,
            np.zeros((cameras, 3)), list(objects), "bedroom", "", [""] * len(images))


BOXED_SCENE = data.Scene(*scene_args(objects=[BOX]))

ROWS = [
    pytest.param(geometry.chamfer_ranks, (with_value(VIEWS, (1, 2, 3, 0), np.nan), VALID, 512, 0),
                 NumericError, id="chamfer_ranks-nan-valid-point"),
    pytest.param(geometry.chamfer_ranks, (with_value(VIEWS, (0, 0, 0, 2), np.inf), VALID, 512, 0),
                 NumericError, id="chamfer_ranks-inf-valid-point"),
    pytest.param(geometry.chamfer_ranks, (VIEWS, with_value(VALID, 1, False).astype(bool), 512, 0),
                 DegenerateInputError, id="chamfer_ranks-empty-view"),
    pytest.param(geometry.chamfer_ranks, (VIEWS[:1], VALID[:1], 512, 0),
                 DegenerateInputError, id="chamfer_ranks-single-view"),
    # 64 points a view: a negative seed is refused without a subsample to draw.
    pytest.param(geometry.chamfer_ranks, (VIEWS, VALID, 512, -1),
                 ContractError, id="chamfer_ranks-negative-seed"),
    *[pytest.param(geometry.chamfer_ranks, (VIEWS, VALID, subsample, 0),
                   ContractError, id=f"chamfer_ranks-subsample-{subsample}")
      for subsample in (-1, 0, 2.5)],
    # A seed that is not an int: 2.5 and True, the bool once taken as 1.
    *[pytest.param(function, (*args, seed), ContractError, id=f"{function.__name__}-seed-{seed}")
      for function, args in ((geometry.chamfer_ranks, (VIEWS, VALID, 512)),
                             (data.generate_scene, (data.SceneSpec(view_count=2, image_size=4),)),
                             (data.split_dataset, (["a", "b"],)),
                             (init_encoder_params, (CONFIG,)))
      for seed in (2.5, True)],
    # Pointmaps of the wrong shape, and a validity mask that is not bool.
    *[pytest.param(function, (VIEWS, VALID.astype(float), *args), ShapeError,
                   id=f"{function.__name__}-float-mask")
      for function, args in ((geometry.chamfer_ranks, (512, 0)), (geometry.max_coverage_sample, (1,)),
                             (geometry.visibility, ([BOX],)), (geometry.box_counts, ([BOX],)))],
    pytest.param(geometry.chamfer_ranks, (VIEWS[..., :2], VALID, 512, 0),
                 ShapeError, id="chamfer_ranks-two-coordinates"),
    pytest.param(geometry.max_coverage_sample, (VIEWS, VALID[:, :, :4], 1),
                 ShapeError, id="max_coverage_sample-mask-shape"),
    pytest.param(geometry.back_project, (with_value(np.ones((2, 8, 8)), (1, 3, 4), np.nan), *CAMERAS),
                 NumericError, id="back_project-nan-depth"),
    pytest.param(geometry.box_counts, (with_value(VIEWS, (1, 2, 3, 0), np.nan), VALID, [BOX]),
                 NumericError, id="box_counts-nan-valid-point"),
    pytest.param(geometry.max_coverage_sample, (with_value(VIEWS, (0, 5, 1, 1), np.nan), VALID, 1),
                 NumericError, id="max_coverage_sample-nan-valid-point"),
    # Three views, so that a budget of 2.5 lies inside [1, V].
    *[pytest.param(geometry.max_coverage_sample,
                   (np.zeros((3, 8, 8, 3)), np.ones((3, 8, 8), dtype=bool), budget),
                   ContractError, id=f"max_coverage_sample-budget-{budget}")
      for budget in (2.5, True)],
    pytest.param(objectives.geo_targets, (np.full((2, 8, 8, 3), np.nan), VALID, 512, 0),
                 NumericError, id="geo_targets-all-nan-points"),
    pytest.param(objectives.geo_loss_from_targets,
                 (Tensor(np.eye(2)), [np.array([[np.nan], [1.0]])], objectives.Temperature()),
                 NumericError, id="geo_loss_from_targets-nan-target"),
    pytest.param(objectives.ground_loss,
                 (Tensor(np.eye(2)), Tensor(np.eye(2)), [np.ones(2, dtype=bool)],
                  objectives.Temperature()),
                 ShapeError, id="ground_loss-1d-block"),
    pytest.param(objectives.ground_loss,
                 (Tensor(np.eye(2)), Tensor(np.eye(2)), [np.ones((1, 2), dtype=bool)],
                  objectives.Temperature()),
                 ShapeError, id="ground_loss-blocks-miss-logits"),
    pytest.param(objectives.ground_loss,
                 (Tensor(np.eye(2)), Tensor(np.eye(2)), [np.array([[2, 0], [0, 0]])],
                  objectives.Temperature()),
                 ContractError, id="ground_loss-int-block"),
    pytest.param(objectives.ground_loss,
                 (Tensor(np.eye(2)), Tensor(np.eye(2)), [np.zeros((2, 2), dtype=bool)],
                  objectives.Temperature()),
                 DegenerateInputError, id="ground_loss-no-visible-pair"),
    pytest.param(embed_views, (with_value(VIEWS, (0, 1, 1, 1), np.nan), VIEWS, PARAMS, CONFIG),
                 NumericError, id="embed_views-nan-image"),
    pytest.param(embed_views, (VIEWS, with_value(VIEWS, (1, 7, 7, 2), -np.inf), PARAMS, CONFIG),
                 NumericError, id="embed_views-inf-points"),
    pytest.param(encode_views, (with_value(VIEWS, (0, 4, 4, 0), np.nan), VIEWS, PARAMS, CONFIG),
                 NumericError, id="encode_views-nan-image"),
    pytest.param(probe.accuracy, (np.array([0, 1]), np.array([0])),
                 ShapeError, id="accuracy-length-mismatch"),
    pytest.param(probe.accuracy, (np.array([], dtype=int), np.array([], dtype=int)),
                 DegenerateInputError, id="accuracy-empty"),
    pytest.param(probe.fit_logistic_grid, (FEATURES, LABELS, 2, []),
                 DegenerateInputError, id="fit_logistic_grid-empty-reg-grid"),
    pytest.param(probe.fit_logistic_grid, (FEATURES, LABELS, 2, [np.nan]),
                 ContractError, id="fit_logistic_grid-nan-reg"),
    pytest.param(probe.fit_logistic_grid, (FEATURES, LABELS, 2, [0.0]),
                 ContractError, id="fit_logistic_grid-zero-reg"),
    pytest.param(probe.fit_logistic_grid, (FEATURES, LABELS, 2, [-1.0]),
                 ContractError, id="fit_logistic_grid-negative-reg"),
    pytest.param(probe.fit_logistic_grid, (with_value(FEATURES, (2, 1), np.nan), LABELS, 2, [1.0]),
                 NumericError, id="fit_logistic_grid-nan-feature"),
    pytest.param(probe.fit_logistic_grid, (FEATURES, LABELS[:3], 2, [1.0]),
                 ShapeError, id="fit_logistic_grid-labels-shorter-than-rows"),
    pytest.param(probe.fit_logistic_grid, (FEATURES, np.array([0, 1, 2, 0]), 2, [1.0]),
                 ContractError, id="fit_logistic_grid-label-beyond-n-classes"),
    pytest.param(probe.fit_logistic_grid, (FEATURES[:0], LABELS[:0], 2, [1.0]),
                 DegenerateInputError, id="fit_logistic_grid-no-rows"),
    pytest.param(probe.predict_logistic, (np.zeros((2, 3)), np.zeros(3), np.array([[np.nan, 0.0]])),
                 NumericError, id="predict_logistic-nan-feature"),
    pytest.param(probe.predict_logistic, (np.zeros((3, 2)), np.zeros(2), np.zeros((4, 5))),
                 ShapeError, id="predict_logistic-feature-width-mismatch"),
    pytest.param(probe.predict_logistic, (np.zeros((3, 2)), np.zeros(4), np.zeros((4, 3))),
                 ShapeError, id="predict_logistic-bias-width-mismatch"),
    pytest.param(probe.predict_logistic, (np.zeros((3, 4, 2)), np.zeros((2, 2)), np.zeros((5, 4))),
                 ShapeError, id="predict_logistic-bias-stack-mismatch"),
    pytest.param(evaluation.cosine_similarity, (np.ones((2, 3)), np.ones((2, 4))),
                 ShapeError, id="cosine_similarity-width-mismatch"),
    pytest.param(evaluation.cosine_similarity, (np.ones(3), np.ones((2, 3))),
                 ShapeError, id="cosine_similarity-1d-input"),
    pytest.param(evaluation.cosine_similarity, (np.array([[1e-13, 0.0]]), np.ones((2, 2))),
                 DegenerateInputError, id="cosine_similarity-near-zero-row"),
    pytest.param(evaluation.grounding_metrics, ([np.array([np.nan, 1.0, 2.0])], [0], [frozenset({0})]),
                 NumericError, id="grounding_metrics-nan-score"),
    pytest.param(evaluation.grounding_metrics, ([np.ones((2, 3))], [0], [frozenset({0})]),
                 ShapeError, id="grounding_metrics-2d-scores"),
    pytest.param(evaluation.classify_from_similarities,
                 (np.array([[0.1, 0.9], [np.nan, np.nan]]), np.array([1, 0])),
                 NumericError, id="classify_from_similarities-nan-row"),
    pytest.param(evaluation.classify_from_similarities,
                 (np.array([[0.1, 0.9], [0.8, 0.2]]), np.array([1])),
                 ShapeError, id="classify_from_similarities-label-length-mismatch"),
    pytest.param(evaluation.classify_from_similarities, (np.zeros((2, 0)), np.array([0, 0])),
                 DegenerateInputError, id="classify_from_similarities-no-classes"),
    pytest.param(evaluation.grounding_metrics,
                 ([np.array([0.3, 0.1])], [0, 1], [frozenset({0}), frozenset({1})]),
                 ShapeError, id="grounding_metrics-length-mismatch"),
    pytest.param(evaluation.grounding_metrics, ([np.array([0.3, 0.1])], [5], [frozenset({0})]),
                 ContractError, id="grounding_metrics-gt-view-outside-row"),
    *[pytest.param(evaluation.grounding_metrics, ([np.array([0.3, 0.1])], [gt], [frozenset({0})]),
                   ContractError, id=f"grounding_metrics-gt-view-{gt}")
      for gt in (1.5, True)],
    # A scene with one referring text, so that its captions are built.
    *[pytest.param(evaluation.build_scene_captions, (BOXED_SCENE, n_utterances),
                   ContractError, id=f"build_scene_captions-n-utterances-{n_utterances}")
      for n_utterances in (1.5, True)],
    *[pytest.param(function, (PARAMS, CONFIG, [BOXED_SCENE], 1.5, *budgets),
                   ContractError, id=f"{function.__name__}-n-utterances-1.5")
      for function, budgets in ((evaluation.scene_retrieval, ()),
                                (evaluation.retrieval_views_curve, ([1],)))],
    pytest.param(evaluation.embed_scenes, ([], PARAMS, CONFIG),
                 DegenerateInputError, id="embed_scenes-no-scenes"),
    pytest.param(trainer.evaluate_loss,
                 ([], PARAMS, CONFIG, objectives.Temperature(), trainer.TrainConfig()),
                 DegenerateInputError, id="evaluate_loss-no-scenes"),
    pytest.param(trainer.batch_loss,
                 ([prepared(32), prepared(24)], PARAMS, CONFIG, objectives.Temperature(),
                  trainer.TrainConfig()),
                 ShapeError, id="batch_loss-mixed-view-sizes"),
    pytest.param(trainer.cosine_lr, (5, 100, np.nan, 0.1),
                 ContractError, id="cosine_lr-nan-base-rate"),
    pytest.param(trainer.cosine_lr, (5, 100, 1e-3, 1.0),
                 ContractError, id="cosine_lr-warmup-fraction-one"),
    pytest.param(trainer.cosine_lr, (5, 100, 1e-3, -0.1),
                 ContractError, id="cosine_lr-negative-warmup-fraction"),
    pytest.param(trainer.clip_gradients, (gradients(), np.nan),
                 ContractError, id="clip_gradients-nan-max-norm"),
    pytest.param(trainer.clip_gradients, (gradients(), -1.0),
                 ContractError, id="clip_gradients-negative-max-norm"),
    pytest.param(trainer.clip_gradients, (gradients(np.array([np.inf, 1.0])), 1.0),
                 NumericError, id="clip_gradients-inf-gradient"),
    pytest.param(trainer.clip_gradients, (gradients(np.array([0.0, np.nan])), 0.0),
                 NumericError, id="clip_gradients-nan-gradient-no-clipping"),
    pytest.param(trainer.batch_loss,
                 ([], PARAMS, CONFIG, objectives.Temperature(), trainer.TrainConfig()),
                 DegenerateInputError, id="batch_loss-no-scenes"),
    pytest.param(objectives.soft_targets, (np.array(0),),
                 ShapeError, id="soft_targets-scalar-ranks"),
    pytest.param(objectives.same_scene, ([2, -1], [1, 1]),
                 ContractError, id="same_scene-negative-count"),
    pytest.param(objectives.same_scene, ([2.0, 3.0], [1, 1]),
                 ContractError, id="same_scene-float-counts"),
    pytest.param(objectives.same_scene, ([[2, 3]], [1]),
                 ShapeError, id="same_scene-2d-counts"),
    pytest.param(objectives.same_scene, ([2, 3], [1]),
                 ShapeError, id="same_scene-scene-count-mismatch"),
    pytest.param(objectives.same_scene, ([[1], [2, 3]], [1, 1]),
                 ShapeError, id="same_scene-ragged-row-counts"),
    pytest.param(objectives.same_scene, ([1, 1], [[1], [2, 3]]),
                 ShapeError, id="same_scene-ragged-col-counts"),
    pytest.param(normalize_rows, (Tensor(np.array([[1e200, 1e200]])),),
                 NumericError, id="normalize_rows-overflowing-row"),
    pytest.param(evaluation.cosine_similarity, (np.array([[1e308, 1e308]]), np.ones((1, 2))),
                 NumericError, id="cosine_similarity-overflowing-row"),
    *[pytest.param(data.Scene, scene_args(depths=with_value(DEPTHS, (0, 2, 1), bad)),
                   DegenerateInputError, id=f"Scene-{name}-depth")
      for name, bad in (("nan", np.nan), ("inf", np.inf), ("negative-inf", -np.inf))],
    *[pytest.param(data.Scene, scene_args(images=with_value(IMAGES, (0, 0, 3, 2), bad)),
                   DegenerateInputError, id=f"Scene-{name}-image")
      for name, bad in (("nan", np.nan), ("inf", np.inf))],
    *[pytest.param(data.Scene, scene_args(IMAGES[:, :height, :width], DEPTHS[:, :height, :width]),
                   ContractError, id=f"Scene-empty-raster-{height}-{width}")
      for height, width in ((0, 4), (4, 0), (0, 0))],
    pytest.param(data.Scene, scene_args(depths=DEPTHS[:, :, :3]),
                 ContractError, id="Scene-stacks-differ-in-size"),
    pytest.param(data.Scene, scene_args(IMAGES[:1], DEPTHS[:1], cameras=1),
                 ContractError, id="Scene-one-view"),
    pytest.param(data.Scene, scene_args(cameras=3),
                 ShapeError, id="Scene-camera-count-mismatch"),
    pytest.param(data.split_dataset, (["a", "a", "b"], 0),
                 ContractError, id="split_dataset-duplicate-ids"),
    pytest.param(data.split_dataset, (["a", "b"], -1),
                 ContractError, id="split_dataset-negative-seed"),
    pytest.param(data.generate_scene, (data.SceneSpec(view_count=2, image_size=4), -3),
                 ContractError, id="generate_scene-negative-seed"),
    pytest.param(init_encoder_params, (CONFIG, -1),
                 ContractError, id="init_encoder_params-negative-seed"),
    *[pytest.param(functools.partial(config, seed=-1), (), ConfigError, id=f"{config.__name__}-negative-seed")
      for config in (data.SceneSpec, trainer.TrainConfig, probe.ProbeConfig)],
    # A field of the wrong type: a float or a bool for an int, an int for a
    # bool, a short or float tuple, a string for an int, an infinite float.
    *[pytest.param(functools.partial(config, **{name: value}), (), ConfigError,
                   id=f"{config.__name__}-{name}-{value!r}")
      for config, name, value in (
          (trainer.TrainConfig, "epochs", 1.5), (trainer.TrainConfig, "scenes_per_batch", 2.5),
          (trainer.TrainConfig, "seed", True), (trainer.TrainConfig, "use_geo", 1),
          (trainer.TrainConfig, "grad_clip", float("inf")), (probe.ProbeConfig, "shots", 2.5),
          (EncoderConfig, "embed_dim", 64.0), (EncoderConfig, "num_blocks", True),
          (data.SceneSpec, "view_count", 3.0), (data.SceneSpec, "object_count", (2,)),
          (data.SceneSpec, "object_count", (2.0, 3)), (data.SceneSpec, "image_size", "32"))],
    # A path under the null device cannot be written, so nothing is even if the check fails.
    pytest.param(data.write_manifest, (os.path.join(os.devnull, "manifest.tsv"), [("train", "a/b")]),
                 ContractError, id="write_manifest-nested-scene-directory"),
    pytest.param(load_manifest_text, ("train\ts0\ntrain\t..\n",),
                 FormatError, id="load_manifest-parent-scene-directory"),
    # The null device reads as an empty manifest.
    pytest.param(data.load_split_scenes, (os.devnull, "bogus"),
                 ContractError, id="load_split_scenes-unknown-split"),
]


@pytest.mark.parametrize("function,args,error", ROWS)
def test_degenerate_input_raises_typed_error(function, args, error):
    with pytest.raises(error):
        function(*args)
