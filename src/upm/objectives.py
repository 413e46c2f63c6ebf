"""Alignment objectives for multi-view pretraining.

Four losses share one learnable temperature: a rank-aware cross-view
geometric alignment over Chamfer-proximity targets, a grounded
view-to-object-text alignment over visible pairs, and symmetric InfoNCE
at the view-caption and scene-caption levels.
Each loss is one graph over a batch's (N, d) views, and all four are the
same cross-entropy of temperature-scaled similarities against a target
matrix (``_masked_xent``).  The geometric and grounded losses mask their
log-softmax to each scene's block of the logits (``same_scene``) and place
each scene's targets or (V, O) visibility in its block (``_place_blocks``).
The geometric targets' mix and rank temperature are ``GEO_ALPHA`` and
``GEO_RANK_TAU``, and ``total_loss`` weighs that term by ``DEFAULT_GEO_WEIGHT``.
The targets use the Chamfer distances only through their ranks, so
``geo_targets`` takes ``geometry.chamfer_ranks``: a float32 filter
estimates every distance with a proven rounding bound, only the entries
whose bound cannot order them against their row are searched exactly, and
the ranks equal those of the exact distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import engine as E
from .config import conforms
from .engine import Tensor
from .errors import ContractError, DegenerateInputError, NumericError, ShapeError
from .geometry import chamfer_ranks

DEFAULT_GEO_WEIGHT = 0.1  # Eq. 8 weight on the geometric term
GEO_ALPHA = 0.7  # weight of the one-hot nearest-view target in the soft-target mix
GEO_RANK_TAU = 0.35  # rank temperature of the soft targets
TAU_MIN = 1e-3
TAU_MAX = 100.0


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
        return E.exp(E.scale(self.log_tau, -1.0))

    def clamp(self) -> None:
        """Keep tau inside [TAU_MIN, TAU_MAX]; call after each update."""
        np.clip(self.log_tau.array, np.log(TAU_MIN), np.log(TAU_MAX), out=self.log_tau.array)


# ---------------------------------------------------------------------------
# soft targets


def soft_targets(ranks: Sequence[int] | np.ndarray) -> np.ndarray:
    """Probability over candidates from their proximity ranks.

    ``ranks`` holds one anchor's K ranks, or a stack (V, K) of them, one
    anchor per row.  A softmax over -rank/tau_r is mixed with the one-hot
    nearest-neighbor target: p = alpha * hard + (1 - alpha) * soft, with
    alpha = ``GEO_ALPHA`` and tau_r = ``GEO_RANK_TAU``.  A scalar raises
    ``ShapeError``.
    """
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.ndim == 0:
        raise ShapeError("soft targets need a vector or a stack of ranks, got a scalar")
    if ranks.size == 0:
        raise DegenerateInputError("soft targets need at least one candidate")
    if (np.sort(ranks, axis=-1) != np.arange(ranks.shape[-1])).any():
        raise ContractError("ranks must be a permutation of 0..K-1")
    scores = -ranks / GEO_RANK_TAU
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    p_soft = e / e.sum(axis=-1, keepdims=True)
    p_hard = (ranks == 0).astype(np.float64)
    return GEO_ALPHA * p_hard + (1.0 - GEO_ALPHA) * p_soft


def geo_targets(points: np.ndarray, validity: np.ndarray, subsample: int, seed: int) -> np.ndarray:
    """Per-anchor soft targets over the other views, shape (V, V-1).

    Row v holds the target distribution over candidates [0..V-1] \\ {v} in
    ascending view order, ranked by ascending Chamfer distance to v; ties
    rank toward the lower view index (a stable sort).  The ranks are
    ``chamfer_ranks``': those of the exact distances, certified from a
    float32 estimate and its rounding bound.
    """
    return soft_targets(chamfer_ranks(points, validity, subsample, seed))


# ---------------------------------------------------------------------------
# losses


def same_scene(row_counts: Sequence[int], col_counts: Sequence[int]) -> np.ndarray:
    """True where row and column belong to the same scene; scene s owns
    ``row_counts[s]`` consecutive rows and ``col_counts[s]`` consecutive columns.
    Count lists not 1-D of one length raise ``ShapeError``, and a count not a
    nonnegative int ``ContractError``."""
    try:
        flat = np.ndim(row_counts) == np.ndim(col_counts) == 1
    except ValueError:  # a ragged list has no shape
        flat = False
    if not flat or len(row_counts) != len(col_counts):
        raise ShapeError(f"count lists {row_counts!r} and {col_counts!r} are not 1-D of one length")
    if not all(conforms(int, count) and count >= 0 for count in (*row_counts, *col_counts)):
        raise ContractError(f"counts {row_counts!r} and {col_counts!r} are not nonnegative ints")
    rows = np.repeat(np.arange(len(row_counts)), row_counts)
    cols = np.repeat(np.arange(len(col_counts)), col_counts)
    return rows[:, None] == cols[None, :]


def _place_blocks(mask: np.ndarray, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """A float matrix of the mask's shape: the blocks, raveled in turn, at its true cells."""
    placed = np.zeros(mask.shape)
    placed[mask] = np.concatenate([np.ravel(block) for block in blocks])
    return placed


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
    blocks of an (N, N) matrix.  A non-finite target raises ``NumericError``.
    """
    counts = [len(t) for t in targets]
    if not counts or min(counts) < 2:
        raise DegenerateInputError("geometric loss needs at least two views per scene")
    if any(np.shape(t) != (c, c - 1) for c, t in zip(counts, targets)):
        raise ShapeError(f"targets of shapes {[np.shape(t) for t in targets]} are not (V, V-1)")
    mask = same_scene(counts, counts)
    np.fill_diagonal(mask, False)
    target_matrix = _place_blocks(mask, targets)
    if not np.isfinite(target_matrix).all():
        raise NumericError("geometric loss over a non-finite target")
    # ShapeError from the mask check unless the counts cover the embeddings.
    return _masked_xent(view_embeddings, view_embeddings, target_matrix, temperature, mask,
                        both_axes=False, factor=-1.0)


def ground_loss(
    view_embeddings: Tensor,
    object_text_embeddings: Tensor,
    visible: Sequence[np.ndarray],
    temperature: Temperature,
) -> Tensor:
    """Symmetric InfoNCE over all visible (view, object) pairs of a batch, each weighed the same.

    ``visible`` holds each scene's (V, O) boolean block, in the order the
    embeddings hold the scenes' rows.  The (N, M) logits are normalized over
    objects per view and over views per object, within each scene's block.
    Blocks that are not 2-D or do not cover the logits raise ``ShapeError``,
    and a block that is not bool, which would weigh its pairs, ``ContractError``.
    """
    shapes = [np.shape(block) for block in visible]
    if any(len(shape) != 2 for shape in shapes):
        raise ShapeError(f"visibility blocks of shapes {shapes} are not (V, O)")
    if any(np.asarray(block).dtype != bool for block in visible):
        raise ContractError("visibility blocks must be bool")
    count = sum(int(np.count_nonzero(block)) for block in visible)
    if not count:
        raise DegenerateInputError("ground loss needs at least one visible (view, object) pair")
    mask = same_scene([rows for rows, _ in shapes], [cols for _, cols in shapes])
    # ShapeError from the mask check unless the blocks cover the logits.
    return _masked_xent(view_embeddings, object_text_embeddings, _place_blocks(mask, visible),
                        temperature, mask, both_axes=True, factor=-1.0 / (2.0 * count))


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
) -> LossBreakdown:
    """Weighted sum: ``DEFAULT_GEO_WEIGHT`` * geo + ground + view + scene."""
    total = E.add(E.scale(l_geo, DEFAULT_GEO_WEIGHT), E.add(l_ground, E.add(l_view, l_scene)))
    return LossBreakdown(
        l_geo=l_geo,
        l_ground=l_ground,
        l_view=l_view,
        l_scene=l_scene,
        total=total,
    )
