"""Alignment objectives for multi-view pretraining.

Four losses share one learnable temperature: a rank-aware cross-view
geometric alignment over Chamfer-proximity targets, a grounded
view-to-object-text alignment over visible pairs, and symmetric InfoNCE
at the view-caption and scene-caption levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import engine as E
from .engine import Tensor
from .errors import ContractError, DegenerateInputError
from .geometry import (
    DEFAULT_CHAMFER_SEED,
    DEFAULT_CHAMFER_SUBSAMPLE,
    _ranks_by_distance,
    pairwise_chamfer,
)

DEFAULT_GEO_WEIGHT = 0.1  # Eq. 8 weight on the geometric term
TAU_MIN = 1e-3
TAU_MAX = 100.0


@dataclass(frozen=True)
class GeoAlignConfig:
    """Mixing weight and rank temperature for the geometric soft targets."""

    alpha: float = 0.7
    tau_r: float = 0.35

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ContractError("alpha must lie in [0, 1]")
        if self.tau_r <= 0.0:
            raise ContractError("tau_r must be positive")


class Temperature:
    """Learnable positive temperature, parameterized as log(tau)."""

    def __init__(self, initial: float = 0.07):
        if not TAU_MIN <= initial <= TAU_MAX:
            raise ContractError(f"initial temperature outside [{TAU_MIN}, {TAU_MAX}]")
        self.log_tau = Tensor(np.array([np.log(initial)]), requires_grad=True)

    @property
    def value(self) -> float:
        return float(np.exp(self.log_tau.array[0]))

    def inverse(self) -> Tensor:
        """1/tau as a graph node, so gradients reach log_tau."""
        return E.exp(E.neg(self.log_tau))

    def clamp(self) -> None:
        """Keep tau inside [TAU_MIN, TAU_MAX]; call after each update."""
        np.clip(self.log_tau.array, np.log(TAU_MIN), np.log(TAU_MAX), out=self.log_tau.array)


# ---------------------------------------------------------------------------
# soft targets


def soft_targets(ranks: Sequence[int], cfg: GeoAlignConfig) -> np.ndarray:
    """Probability over candidates from their proximity ranks.

    A softmax over -rank/tau_r is mixed with the one-hot nearest-neighbor
    target: p = alpha * hard + (1 - alpha) * soft.
    """
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise DegenerateInputError("soft targets need at least one candidate")
    if sorted(ranks.tolist()) != list(range(ranks.size)):
        raise ContractError("ranks must be a permutation of 0..K-1")
    scores = -ranks / cfg.tau_r
    scores -= scores.max()
    e = np.exp(scores)
    p_soft = e / e.sum()
    p_hard = (ranks == 0).astype(np.float64)
    return cfg.alpha * p_hard + (1.0 - cfg.alpha) * p_soft


def geo_targets(
    points: np.ndarray,
    validity: np.ndarray,
    cfg: GeoAlignConfig,
    subsample: int | None = DEFAULT_CHAMFER_SUBSAMPLE,
    seed: int = DEFAULT_CHAMFER_SEED,
) -> np.ndarray:
    """Per-anchor soft targets over the other views, shape (V, V-1).

    Row v holds the target distribution over candidates [0..V-1] \\ {v} in
    ascending view order.  Chamfer ties rank toward the lower view index.
    """
    n_views = len(points)
    if n_views < 2:
        raise DegenerateInputError("geometric targets need at least two views")
    cd = pairwise_chamfer(points, validity, subsample=subsample, seed=seed)
    targets = np.zeros((n_views, n_views - 1))
    for v in range(n_views):
        rank_of = _ranks_by_distance(cd[v], v)
        targets[v] = soft_targets([rank_of[u] for u in range(n_views) if u != v], cfg)
    return targets


# ---------------------------------------------------------------------------
# losses


def geo_loss_from_targets(
    view_embeddings: Tensor, targets: np.ndarray, temperature: Temperature
) -> Tensor:
    """Soft-label cross-entropy of a scene's (V, d) view similarities against targets."""
    h = view_embeddings
    n_views = h.shape[0]
    if n_views < 2:
        raise DegenerateInputError("geometric loss needs at least two views")
    if targets.shape != (n_views, n_views - 1):
        raise ContractError(f"targets shape {targets.shape} does not match {n_views} views")
    logits = E.mul(E.matmul(h, E.transpose(h)), temperature.inverse())
    return E.off_diagonal_soft_xent(logits, targets)


def ground_loss(
    view_embeddings: Tensor,
    object_text_embeddings: Tensor,
    pairs: Sequence[tuple[int, int]],
    temperature: Temperature,
) -> Tensor:
    """Symmetric InfoNCE over all visible (view, object) pairs in a scene."""
    pair_list = sorted(set(pairs))
    if not pair_list:
        raise DegenerateInputError("ground loss needs at least one visible (view, object) pair")
    h, t = view_embeddings, object_text_embeddings
    n_views, n_objects = h.shape[0], t.shape[0]
    for v, o in pair_list:
        if not (0 <= v < n_views and 0 <= o < n_objects):
            raise ContractError(f"pair ({v}, {o}) outside {n_views} views x {n_objects} objects")
    logits = E.mul(E.matmul(h, E.transpose(t)), temperature.inverse())
    over_objects = E.log_softmax(logits, axis=1)
    over_views = E.log_softmax(logits, axis=0)
    indicator = np.zeros((n_views, n_objects))
    for v, o in pair_list:
        indicator[v, o] = 1.0
    picked = E.mul(Tensor(indicator), E.add(over_objects, over_views))
    return E.scale(E.neg(E.reduce_sum(picked)), 1.0 / (2.0 * len(pair_list)))


def _paired_infonce(a: Tensor, b: Tensor, temperature: Temperature, what: str) -> Tensor:
    if a.shape[0] == 0:
        raise DegenerateInputError(f"{what} loss needs at least one pair")
    if a.shape[0] != b.shape[0]:
        raise ContractError(f"{what} loss: {a.shape[0]} embeddings vs {b.shape[0]} captions")
    n = a.shape[0]
    logits = E.mul(E.matmul(a, E.transpose(b)), temperature.inverse())
    over_cols = E.log_softmax(logits, axis=1)
    over_rows = E.log_softmax(logits, axis=0)
    eye = Tensor(np.eye(n))
    picked = E.mul(eye, E.add(over_cols, over_rows))
    return E.scale(E.neg(E.reduce_sum(picked)), 1.0 / (2.0 * n))


def view_loss(
    view_embeddings: Tensor, caption_embeddings: Tensor, temperature: Temperature
) -> Tensor:
    """Batch-level InfoNCE between views and their own captions."""
    return _paired_infonce(view_embeddings, caption_embeddings, temperature, "view")


def scene_loss(
    scene_embeddings: Tensor, caption_embeddings: Tensor, temperature: Temperature
) -> Tensor:
    """Batch-level InfoNCE between pooled scenes and scene captions."""
    return _paired_infonce(scene_embeddings, caption_embeddings, temperature, "scene")


# ---------------------------------------------------------------------------
# total


@dataclass
class LossBreakdown:
    """The four loss nodes and their weighted total on one batch graph."""

    l_geo: Tensor
    l_ground: Tensor
    l_view: Tensor
    l_scene: Tensor
    total: Tensor
    weight_geo: float

    def values(self) -> dict[str, float]:
        return {
            "l_geo": self.l_geo.item(),
            "l_ground": self.l_ground.item(),
            "l_view": self.l_view.item(),
            "l_scene": self.l_scene.item(),
            "total": self.total.item(),
        }


def total_loss(
    l_geo: Tensor,
    l_ground: Tensor,
    l_view: Tensor,
    l_scene: Tensor,
    weight_geo: float = DEFAULT_GEO_WEIGHT,
) -> LossBreakdown:
    """Weighted sum: weight_geo * geo + ground + view + scene."""
    total = E.add(E.scale(l_geo, weight_geo), E.add(l_ground, E.add(l_view, l_scene)))
    return LossBreakdown(
        l_geo=l_geo,
        l_ground=l_ground,
        l_view=l_view,
        l_scene=l_scene,
        total=total,
        weight_geo=weight_geo,
    )
