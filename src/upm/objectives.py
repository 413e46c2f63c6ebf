"""Alignment objectives for multi-view pretraining.

Four losses share one learnable temperature: a rank-aware cross-view
geometric alignment over Chamfer-proximity targets, a grounded
view-to-object-text alignment over visible pairs, and symmetric InfoNCE
at the view-caption and scene-caption levels.
Each loss is one graph over a batch's (N, d) views, and all four are the
same cross-entropy of temperature-scaled similarities against a target
matrix (``_masked_xent``); the geometric and grounded losses mask their
log-softmax to each scene's block of the logits (``same_scene``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import engine as E
from .engine import Tensor
from .errors import ContractError, DegenerateInputError, ShapeError
from .geometry import DEFAULT_CHAMFER_SEED, DEFAULT_CHAMFER_SUBSAMPLE, pairwise_chamfer

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
        if not self.tau_r > 0.0:  # NaN too: it would make every soft target NaN
            raise ContractError(f"tau_r must be positive, got {self.tau_r}")


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


def soft_targets(ranks: Sequence[int] | np.ndarray, cfg: GeoAlignConfig) -> np.ndarray:
    """Probability over candidates from their proximity ranks.

    ``ranks`` holds one anchor's K ranks, or a stack (V, K) of them, one
    anchor per row.  A softmax over -rank/tau_r is mixed with the one-hot
    nearest-neighbor target: p = alpha * hard + (1 - alpha) * soft.
    """
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise DegenerateInputError("soft targets need at least one candidate")
    if (np.sort(ranks, axis=-1) != np.arange(ranks.shape[-1])).any():
        raise ContractError("ranks must be a permutation of 0..K-1")
    scores = -ranks / cfg.tau_r
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    p_soft = e / e.sum(axis=-1, keepdims=True)
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
    ascending view order, ranked by ascending Chamfer distance to v; ties
    rank toward the lower view index (a stable sort).
    """
    n_views = len(points)
    if n_views < 2:
        raise DegenerateInputError("geometric targets need at least two views")
    cd = pairwise_chamfer(points, validity, subsample=subsample, seed=seed)
    off_diagonal = cd[~np.eye(n_views, dtype=bool)].reshape(n_views, n_views - 1)
    ranks = np.argsort(np.argsort(off_diagonal, axis=1, kind="stable"), axis=1)
    return soft_targets(ranks, cfg)


# ---------------------------------------------------------------------------
# losses


def same_scene(row_counts: Sequence[int], col_counts: Sequence[int]) -> np.ndarray:
    """True where row and column belong to the same scene; scene s owns
    ``row_counts[s]`` consecutive rows and ``col_counts[s]`` consecutive columns."""
    rows = np.repeat(np.arange(len(row_counts)), row_counts)
    cols = np.repeat(np.arange(len(col_counts)), col_counts)
    return rows[:, None] == cols[None, :]


def _masked_xent(a: Tensor, b: Tensor, targets: np.ndarray, temperature: Temperature,
                 mask: np.ndarray | None, both_axes: bool, factor: float) -> Tensor:
    """``factor`` times the sum of ``targets`` times the log-probabilities of a b^T / tau.

    The log-softmax runs over each row, within ``mask`` (None keeps every
    entry); with ``both_axes`` the one over each column is added to it.
    """
    logits = E.mul(E.matmul(a, E.transpose(b)), temperature.inverse())
    log_probs = E.log_softmax(logits, axis=1, mask=mask)  # checks the mask's shape
    if both_axes:
        log_probs = E.add(log_probs, E.log_softmax(logits, axis=0, mask=mask))
    return E.scale(E.reduce_sum(E.mul(Tensor(targets), log_probs)), factor)


def geo_loss_from_targets(
    view_embeddings: Tensor, targets: Sequence[np.ndarray], temperature: Temperature
) -> Tensor:
    """Soft-label cross-entropy of each view's similarities to its scene's other views, summed.

    ``targets`` holds each scene's (V, V-1) targets, in the order the (N, d)
    embeddings hold the scenes' views.  One row-wise log-softmax, masked to
    each scene's off-diagonal block, meets those targets placed in the same
    blocks of an (N, N) matrix.
    """
    counts = [len(t) for t in targets]
    if not counts or min(counts) < 2:
        raise DegenerateInputError("geometric loss needs at least two views per scene")
    if any(np.shape(t) != (c, c - 1) for c, t in zip(counts, targets)):
        raise ShapeError(f"targets of shapes {[np.shape(t) for t in targets]} are not (V, V-1)")
    mask = same_scene(counts, counts)
    np.fill_diagonal(mask, False)
    target_matrix = np.zeros(mask.shape)
    target_matrix[mask] = np.concatenate([np.ravel(t) for t in targets])  # row-major, as each block
    # ShapeError from the mask check unless the counts cover the embeddings.
    return _masked_xent(view_embeddings, view_embeddings, target_matrix, temperature, mask,
                        both_axes=False, factor=-1.0)


def ground_loss(
    view_embeddings: Tensor,
    object_text_embeddings: Tensor,
    pairs: Sequence[tuple[int, int]],
    temperature: Temperature,
    mask: np.ndarray,
) -> Tensor:
    """Symmetric InfoNCE over all visible (view, object) pairs of a batch, each weighed the same.

    The (N, O) logits are normalized over objects per view and over views
    per object, within the boolean ``mask`` (``same_scene`` for a batch).
    """
    pair_list = sorted(set(pairs))
    if not pair_list:
        raise DegenerateInputError("ground loss needs at least one visible (view, object) pair")
    shape = (view_embeddings.shape[0], object_text_embeddings.shape[0])
    if np.shape(mask) != shape:
        raise ShapeError(f"mask of shape {np.shape(mask)} does not match the {shape} logits")
    indicator = np.zeros(shape)
    for v, o in pair_list:
        if not (0 <= v < shape[0] and 0 <= o < shape[1] and mask[v, o]):
            raise ContractError(f"pair ({v}, {o}) outside the {shape} logits or the mask")
        indicator[v, o] = 1.0
    return _masked_xent(view_embeddings, object_text_embeddings, indicator, temperature, mask,
                        both_axes=True, factor=-1.0 / (2.0 * len(pair_list)))


def _paired_infonce(a: Tensor, b: Tensor, temperature: Temperature, what: str) -> Tensor:
    if a.shape[0] == 0:
        raise DegenerateInputError(f"{what} loss needs at least one pair")
    if a.shape[0] != b.shape[0]:
        raise ContractError(f"{what} loss: {a.shape[0]} embeddings vs {b.shape[0]} captions")
    n = a.shape[0]
    return _masked_xent(a, b, np.eye(n), temperature, None, both_axes=True, factor=-1.0 / (2.0 * n))


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
