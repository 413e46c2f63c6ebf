"""Coordinate-frame and point-set machinery.

A scene's pointmaps are the pair ``back_project`` returns: world points
(V, H, W, 3), pixel-aligned with the RGB images they came from, and
validity (V, H, W).  View v's valid points are ``points[v][validity[v]]``,
in raster order.  Everything here is a pure function over immutable numpy
inputs; nothing touches the autodiff engine.

Each per-view step makes one array pass over all of a scene's views, and
each is bitwise equal to its one-view-at-a-time form, kept in the tests
as its oracle:

- ``back_project`` lifts a (V, H, W) depth stack to (V, H, W, 3) points
  with no BLAS call (oracle: ``oracle_back_project``);
- ``box_counts`` counts valid pixels inside object boxes on the
  (V, H·W) pixel grid, and ``visibility`` thresholds those counts into
  the (V, O) boolean matrix of which view sees which object;
- ``max_coverage_sample`` builds one (V, K) voxel-occupancy matrix and
  scores every view per greedy round (oracle:
  ``oracle_max_coverage_sample``, an ``np.isin`` loop over views);
- ``chamfer_ranks`` ranks each view's other views by Chamfer distance,
  as the exact distances rank them (oracle: the ranks of the tests'
  exact ``pairwise_chamfer`` matrix).  A float32 filter, one GEMM per
  block of query columns through ‖q − t‖² = ‖q‖² − 2q·t + ‖t‖² on points
  shifted to the target view's centroid, estimates every distance with a
  proven rounding bound.  Only an entry whose interval overlaps another
  in its row is computed exactly, by ``_min_sq_dists``: a blocked float64
  scan over every target, with no BLAS call.  So the ranks are those of
  the exact distances on any BLAS kernel.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import conforms
from .errors import ContractError, DegenerateInputError, NumericError, RangeError, ShapeError

logger = logging.getLogger(__name__)

DEFAULT_MIN_POINTS = 16
DEFAULT_VOXEL_SIZE = 0.25


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixel units: one row of a scene's (V, 4) stack."""

    fx: float
    fy: float
    cx: float
    cy: float


@dataclass(frozen=True)
class CameraPose:
    """Camera-to-world rigid transform, x_world = R @ x_cam + t: one view of a scene's stacks."""

    rotation: np.ndarray
    translation: np.ndarray


@dataclass
class ObjectAnnotation:
    """A referred object, its world AABB, and its referring text."""

    object_id: int
    aabb_min: np.ndarray
    aabb_max: np.ndarray
    referring_text: str
    category: str

    def __post_init__(self):
        self.aabb_min = np.asarray(self.aabb_min, dtype=np.float64)
        self.aabb_max = np.asarray(self.aabb_max, dtype=np.float64)
        if self.aabb_min.shape != (3,) or self.aabb_max.shape != (3,):
            raise ShapeError("AABB corners must be 3-vectors")
        if not (np.isfinite(self.aabb_min).all() and np.isfinite(self.aabb_max).all()):
            raise ContractError("AABB corners must be finite")
        if np.any(self.aabb_min > self.aabb_max):
            raise ContractError("AABB min corner exceeds max corner")


# ---------------------------------------------------------------------------
# back-projection


def back_project(
    depths: np.ndarray,
    intrinsics: np.ndarray,
    rotations: np.ndarray,
    translations: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Lift V depth maps to world points (V, H, W, 3) and validity (V, H, W).

    View v's camera is ``intrinsics[v]`` [fx, fy, cx, cy] and x_world =
    R @ x_cam + t for R, t = ``rotations[v]``, ``translations[v]``.  Zero
    depth marks invalid pixels, whose points are +0.0.  Each view is
    bitwise equal to lifting it alone: the per-pixel float ops are the
    same, and no BLAS call rotates the points.  Stacks that are not
    (V, H, W), (V, 4), (V, 3, 3) and (V, 3) raise ``ShapeError``; a NaN
    depth, or a valid point that overflows to a non-finite coordinate,
    ``NumericError``.
    """
    depths, intrinsics, rotations, translations = (
        np.ascontiguousarray(a, dtype=np.float64) for a in (depths, intrinsics, rotations, translations))
    shapes = tuple(a.shape for a in (depths, intrinsics, rotations, translations))
    if depths.ndim != 3 or shapes[1:] != ((len(depths), 4), (len(depths), 3, 3), (len(depths), 3)):
        raise ShapeError(f"depths, intrinsics, rotations and translations of shapes {shapes}")
    if not (depths >= 0).all():  # false for a negative depth and for NaN
        if np.isnan(depths).any():
            raise NumericError("back-projecting a NaN depth")
        raise ContractError("depth values must be nonnegative")
    # Each intrinsic, rotation entry and translation as a (V, 1, 1) column.
    fx, fy, cx, cy = intrinsics.T[..., None, None]
    r, t = rotations[..., None, None], translations[..., None, None]
    _, h, w = depths.shape
    u = np.arange(w, dtype=np.float64)[None, :]
    v = np.arange(h, dtype=np.float64)[:, None]
    world = np.empty(depths.shape + (3,))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite point is caught below
        x, y = (u - cx) * depths / fx, (v - cy) * depths / fy
        for a in range(3):
            world[..., a] = ((x * r[:, a, 0] + y * r[:, a, 1]) + depths * r[:, a, 2]) + t[:, a]
    validity = depths > 0
    world[~validity] = 0.0
    if not np.isfinite(world).all():
        raise NumericError("back-projected points overflow to non-finite coordinates")
    return world, validity


# ---------------------------------------------------------------------------
# Chamfer distance


# Query rows per scan block: a block's (128, m) arrays hold the scan's
# memory to O(128·m) for m targets, whatever the number of queries.
_BLOCK_ROWS = 128
# The float32 filter of chamfer_ranks: query columns per score block (a
# (512, 256) block stays in cache, and 256 ran fastest against 512-point
# targets), the per-query bound K·s² + A, and the s from which the bound
# is infinite (see chamfer_ranks for the derivation).
_FILTER_COLS = 256
_FILTER_K = 2.0 ** -20
_FILTER_A = 2.0 ** -126
_FILTER_S_MAX = 2.0 ** 62


def _min_sq_dists(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Each query's squared distance to its nearest target, by exhaustive scan.

    For each block of 128 query rows, every target's squared distance is
    summed one coordinate plane at a time, as (dx² + dy²) + dz², and the
    row minimum taken.  No BLAS call is made, so the bytes are the same on
    every kernel.  A square that overflows is inf, without a warning.
    """
    columns = np.ascontiguousarray(targets.T)
    out = np.empty(len(queries))
    with np.errstate(over="ignore"):
        for lo in range(0, len(queries), _BLOCK_ROWS):
            block = queries[lo:lo + _BLOCK_ROWS]
            total = np.square(block[:, 0, None] - columns[0])
            for axis in (1, 2):
                total += np.square(block[:, axis, None] - columns[axis])
            out[lo:lo + len(block)] = total.min(axis=1)
    return out


def _subsample(points: np.ndarray, count: int, seed: int) -> np.ndarray:
    if len(points) <= count:
        return points
    rng = np.random.default_rng((seed, len(points)))
    idx = np.sort(rng.choice(len(points), size=count, replace=False))
    return points[idx]


def _filter_means(point_sets: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Float32 estimates of every (v, u) mean nearest squared distance, with error bounds.

    Entry [v, u] of the first (V, V) array estimates the mean, over the
    points q of set v, of the squared distance to q's nearest point in set
    u; entry [v, u] of the second is the mean of the per-query bounds
    ``_FILTER_K·s² + _FILTER_A`` derived in ``chamfer_ranks``, or inf where
    s reaches ``_FILTER_S_MAX``.  Both diagonals are zero.

    For each target set u, every point is shifted by u's centroid and cast
    to float32 as a column [q̂; 1], and one (m, 4) @ (4, k) GEMM per block
    of query columns scores all m targets as ‖t̂‖² − 2q̂·t̂; a query's
    estimate is its minimum score plus ‖q̂‖², added in float64.  u's own
    points are not scored.
    """
    n_sets = len(point_sets)
    counts = np.array([len(pts) for pts in point_sets])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    every = np.concatenate(point_sets)
    columns = np.ones((4, len(every)), dtype=np.float32)
    nearest = np.zeros(len(every), dtype=np.float32)
    means = np.zeros((n_sets, n_sets))
    bounds = np.zeros((n_sets, n_sets))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow makes a bound inf or NaN
        for u, (start, targets) in enumerate(zip(starts, point_sets)):
            columns[:3] = (every - targets.mean(axis=0)).T
            stop = start + len(targets)
            shifted = columns[:3, start:stop]
            norms = np.einsum("ij,ij->j", shifted, shifted)
            weights = np.hstack([-2.0 * shifted.T, norms[:, None]])
            for lo, hi in ((0, start), (stop, len(every))):
                for block in range(lo, hi, _FILTER_COLS):
                    end = min(block + _FILTER_COLS, hi)
                    np.min(weights @ columns[:, block:end], axis=0, out=nearest[block:end])
            query_norms = np.einsum("ij,ij->j", columns[:3], columns[:3]).astype(np.float64)
            s = np.sqrt(query_norms) + np.sqrt(np.float64(norms.max()))
            slack = np.where(s < _FILTER_S_MAX, _FILTER_K * s * s + _FILTER_A, np.inf)
            means[:, u] = np.add.reduceat(query_norms + nearest, starts) / counts
            bounds[:, u] = np.add.reduceat(slack, starts) / counts
    np.fill_diagonal(means, 0.0)
    np.fill_diagonal(bounds, 0.0)
    return means, bounds


def chamfer_ranks(
    points: np.ndarray,
    validity: np.ndarray,
    subsample: int,
    seed: int,
) -> np.ndarray:
    """(V, V-1) ranks of each view's Chamfer distances to the other views.

    Row v ranks the candidates [0..V-1] \\ {v}, in ascending view order,
    by ascending Chamfer distance to v, 0 for the nearest; exact ties rank
    toward the lower view index.  Each view's valid points are subsampled
    once, to at most ``subsample`` points (a view with no more keeps them
    all).  The distance of v and u is the mean squared distance from
    every point of v to its nearest point in u, plus the same mean from u
    to v: the exact distance, as the exhaustive scan ``_min_sq_dists`` and
    ``np.mean`` compute each half and ``+`` adds them.  The ranks are those
    of the exact distances, but most distances are never computed exactly:

    1. **Filter.**  ``_filter_means`` estimates every half in float32,
       with a bound B_vu on |estimate − exact| for each entry (below).
    2. **Certify and refine.**  An entry whose interval [d − B, d + B]
       about its estimate d overlaps the interval of any other entry in its row, or whose
       estimate or bound is not finite, is searched exactly, in both
       directions.  Every estimate lies within its interval, so two
       entries with disjoint intervals compare as their exact distances
       do, and two with overlapping intervals are both exact.
    3. **Rank** with a stable argsort.

    **The bound.**  u = 2⁻²⁴ and w = 2⁻⁵³ are float32's and float64's
    unit roundoffs, τ = 2⁻¹²⁶ is float32's smallest normal, γₖ = ku/(1 − ku)
    and γ'ₖ = kw/(1 − kw).  Arithmetic rounds to nearest with gradual
    underflow: a product or a cast to float32 returns z(1 + δ) + η with
    |δ| ≤ u and |η| ≤ uτ, a sum or difference z(1 + δ), and float64 the
    same with w.  Take one target set, its centroid c, a query q of
    another set and a target t; x = q − c and y = t − c are the exact
    shifts, x̂ and ŷ their float32 casts, a = ‖x̂‖, R = max ‖ŷ‖ over the
    targets and s = a + R.  D is q's exact nearest squared distance, D̂
    the same over the cast points, f the filter's estimate and Ď
    ``_min_sq_dists``' value.  A cross term in uτs is below
    2⁻⁵⁶u(s² + τ), since τs ≤ 2⁻⁶⁶s² + 2⁻⁶⁰τ.

    - *Cast.*  The float64 shift and the cast give |x̂ᵢ − xᵢ| ≤ α|xᵢ| + uτ
      with α = u + w + uw, so ‖x̂ − x‖ ≤ α‖x‖ + 2uτ and ‖x‖ ≤ (a + 2uτ)/(1 − α).
      Each distance ‖x̂ − ŷ‖ is then within ρ = αs/(1 − α) + 5uτ of
      ‖x − y‖, and so are their minima √D̂ and √D.  As √D̂ ≤ s,
      |D̂ − D| ≤ ρ(2s + ρ) ≤ 2.0001u·s² + uτ.
    - *Norms.*  Three squares and two sums in any order:
      |N̂ − ‖ŷ‖²| ≤ γ₃(‖ŷ‖² + τ), and the same for ‖x̂‖².
    - *Dot product.*  The score [x̂, 1]·[−2ŷ, N̂_t] has four terms, so in
      any summation order, with or without FMA (Higham, *Accuracy and
      Stability of Numerical Algorithms*, §3.1),
      |ŝ − (N̂_t − 2x̂·ŷ)| ≤ γ₄(2aR + N̂_t + τ).  A minimum moves by no
      more than its terms' largest error, so with both norms
      |N̂_q + min ŝ − D̂| ≤ (γ₃ + γ₄ + γ₃γ₄)s² + (2γ₃ + γ₄ + γ₃γ₄)τ
      ≤ 7.0001u·s² + 10.0001uτ, and the float64 sum that forms f adds
      under 2⁻²⁸u·s².
    - *Exact path.*  Ď, the minimum of three squared float64 differences
      summed, is within γ'₅D + 2⁻¹⁰⁷³ of D, and D ≤ (s + ρ)².

    So |f − Ď| ≤ 9.01u·s² + 11uτ per query.  Each ``np.mean`` of n values
    (n < 2²⁶ points a set), in any summation order, is off by at most γ'ₙ
    times the mean of their magnitudes, each at most 1.0001s², and
    ``means + means.T`` rounds once more: together under 0.3u·s².  So
    with K = 16u = 2⁻²⁰ and A = τ, B_vu = mean over v's points of K·s² + A
    (targets u) plus mean over u's points (targets v) bounds the entry,
    and the 6.6u·s² and 0.99τ it has to spare cover the float64 rounding
    of B, of d ± B, and of √N̂ in place of ‖x̂‖.  B is finite only while
    every s < 2⁶²: below that no float32 cast, norm or score overflows,
    nor any float64 distance.

    Pointmaps of the wrong shape or a mask that is not bool raise
    ``ShapeError``; a non-finite valid point ``NumericError``; fewer than
    two views, or a view without a valid point, ``DegenerateInputError``;
    a seed that is not a nonnegative int, or a ``subsample`` that is not
    an int of at least 1, ``ContractError``.
    One DEBUG line reports how many of the V(V−1) entries were searched
    exactly.
    """
    _check_pointmaps(points, validity)
    n_views = len(points)
    if not (conforms(int, seed) and seed >= 0):
        raise ContractError(f"seed must be a nonnegative int, got {seed!r}")
    if not (conforms(int, subsample) and subsample >= 1):
        raise ContractError(f"subsample must be an int of at least 1, got {subsample!r}")
    if n_views < 2:
        raise DegenerateInputError("Chamfer ranks need at least two views")
    finite = np.isfinite(points)
    if not finite.all() and not finite.all(axis=-1)[validity].all():
        raise NumericError("Chamfer distance over a non-finite valid point")
    point_sets = [_subsample(p[m], subsample, seed) for p, m in zip(points, validity)]
    if any(len(pts) == 0 for pts in point_sets):
        raise DegenerateInputError("Chamfer distance needs at least one valid point per set")
    means, bounds = _filter_means(point_sets)
    candidates = ~np.eye(n_views, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        distances = means + means.T
        slack = (bounds + bounds.T)[candidates].reshape(n_views, n_views - 1)
        estimates = distances[candidates].reshape(n_views, n_views - 1)
        certain = np.isfinite(estimates) & np.isfinite(slack)
        lo = np.where(certain, estimates - slack, -np.inf)
        hi = np.where(certain, estimates + slack, np.inf)
    overlap = (lo[:, :, None] <= hi[:, None, :]) & (lo[:, None, :] <= hi[:, :, None])
    uncertain = np.zeros((n_views, n_views), dtype=bool)
    uncertain[candidates] = (overlap & ~np.eye(n_views - 1, dtype=bool)).any(axis=2).ravel()
    pairs = np.argwhere(np.triu(uncertain | uncertain.T, 1))
    for v, u in pairs:
        distances[v, u] = distances[u, v] = (np.mean(_min_sq_dists(point_sets[v], point_sets[u]))
                                             + np.mean(_min_sq_dists(point_sets[u], point_sets[v])))
    logger.debug("Chamfer ranks: %d of %d entries searched exactly", 2 * len(pairs),
                 n_views * (n_views - 1))
    off_diagonal = distances[candidates].reshape(n_views, n_views - 1)
    return np.argsort(np.argsort(off_diagonal, axis=1, kind="stable"), axis=1)


# ---------------------------------------------------------------------------
# visibility, coverage


def _check_pointmaps(points: np.ndarray, validity: np.ndarray) -> None:
    """Raise ``ShapeError`` unless points are a (V, H, W, 3) array and validity a bool (V, H, W) one."""
    if not (isinstance(points, np.ndarray) and points.ndim == 4 and points.shape[-1] == 3
            and isinstance(validity, np.ndarray) and validity.dtype == bool
            and validity.shape == points.shape[:3]):
        raise ShapeError(f"expected (V, H, W, 3) points and a bool (V, H, W) validity mask, got "
                         f"points {getattr(points, 'shape', None)} and a mask of "
                         f"{getattr(validity, 'dtype', None)} {getattr(validity, 'shape', None)}")


def box_counts(points: np.ndarray, validity: np.ndarray,
               objects: Sequence[ObjectAnnotation]) -> np.ndarray:
    """(V, O) counts of valid pixels whose world point lies in each object box.

    Takes points (V, H, W, 3) and validity (V, H, W), and counts on the
    (V, H·W) pixel grid; invalid pixels are never counted, whatever their
    coordinates.  Box bounds are inclusive.  Pointmaps of the wrong shape
    or a mask that is not bool raise ``ShapeError``, and a NaN coordinate
    at a valid pixel, which no box comparison would count, ``NumericError``.
    """
    _check_pointmaps(points, validity)
    points = points.reshape(len(points), -1, 3)
    validity = validity.reshape(len(validity), -1)
    nan = np.isnan(points)
    if nan.any() and nan.any(axis=-1)[validity].any():
        raise NumericError("counting box points over a NaN valid point")
    lo = np.array([obj.aabb_min for obj in objects]).reshape(-1, 1, 1, 3)
    hi = np.array([obj.aabb_max for obj in objects]).reshape(-1, 1, 1, 3)
    inside = np.repeat(validity[None], len(objects), axis=0)
    for a in range(3):
        coord = points[..., a]
        inside &= coord >= lo[..., a]
        inside &= coord <= hi[..., a]
    return np.ascontiguousarray(inside.sum(axis=2, dtype=np.int64).T)


def visibility(
    points: np.ndarray, validity: np.ndarray, objects: Sequence[ObjectAnnotation]
) -> np.ndarray:
    """(V, O) bool: True where ``DEFAULT_MIN_POINTS`` or more valid view points lie in the box.

    ``box_counts`` checks the pointmaps.
    """
    return box_counts(points, validity, objects) >= DEFAULT_MIN_POINTS


def max_coverage_sample(points: np.ndarray, validity: np.ndarray, budget: int) -> list[int]:
    """Greedy view selection maximizing newly covered voxels of side ``DEFAULT_VOXEL_SIZE``.

    Every view's occupied voxels form one (V, K) boolean matrix, with keys
    packed relative to the minimum voxel over all views; each greedy round
    scores all views against the voxels not yet covered.  Ties break
    toward the lower view index; once no view adds coverage, the remaining
    budget is filled by ascending index.  Pointmaps of the wrong shape or
    a mask that is not bool raise ``ShapeError``, a ``budget`` that is not
    an int in [1, V] ``ContractError``, a non-finite valid point
    ``NumericError``, and voxel keys that overflow ``RangeError``.
    """
    _check_pointmaps(points, validity)
    n_views = len(points)
    if not (conforms(int, budget) and 1 <= budget <= n_views):
        raise ContractError(f"budget {budget!r} is not an int in [1, {n_views}]")
    # (3, n): one contiguous row per axis, so the reductions below are fast.
    with np.errstate(over="ignore"):  # an overflow to inf is caught below
        cells = np.floor(points[validity].T.copy() / DEFAULT_VOXEL_SIZE)
    occupied = np.zeros((n_views, 0), dtype=bool)
    if cells.size:
        lo, hi = cells.min(axis=1), cells.max(axis=1)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            if not np.isfinite(points[validity]).all():
                raise NumericError("max coverage over a non-finite valid point")
            raise RangeError(f"voxel coordinates overflow at voxel size {DEFAULT_VOXEL_SIZE}")
        sizes = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
        if math.prod(sizes) > np.iinfo(np.int64).max:
            raise RangeError(f"voxel grid {sizes} at voxel size {DEFAULT_VOXEL_SIZE} overflows int64 keys")
        offset = (cells - lo[:, None]).astype(np.int64)
        keys = (offset[0] * sizes[1] + offset[1]) * sizes[2] + offset[2]
        voxels, voxel_of_point = np.unique(keys, return_inverse=True)
        occupied = np.zeros((n_views, len(voxels)), dtype=bool)
        per_view = validity.reshape(n_views, -1).sum(axis=1)
        occupied[np.repeat(np.arange(n_views), per_view), voxel_of_point] = True
    uncovered = np.ones(occupied.shape[1], dtype=bool)
    available = np.ones(n_views, dtype=bool)
    chosen: list[int] = []
    while len(chosen) < budget:
        gains = np.where(available, (occupied & uncovered).sum(axis=1), -1)
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            break
        chosen.append(best)
        available[best] = False
        uncovered &= ~occupied[best]
    return chosen + np.flatnonzero(available)[: budget - len(chosen)].tolist()
