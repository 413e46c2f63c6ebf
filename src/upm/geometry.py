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
  with one stacked rotation product (oracle: ``oracle_back_project``);
- ``box_counts`` counts valid pixels inside object boxes on the
  (V, H·W) pixel grid;
- ``max_coverage_sample`` builds one (V, K) voxel-occupancy matrix and
  scores every view per greedy round (oracle:
  ``oracle_max_coverage_sample``, an ``np.isin`` loop over views);
- ``pairwise_chamfer`` queries each view's KD-tree once, with the other
  views' points concatenated (oracle: the exhaustive scan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, DegenerateInputError, NumericError, RangeError, ShapeError

DEFAULT_MIN_POINTS = 16
DEFAULT_CHAMFER_SUBSAMPLE = 512
DEFAULT_CHAMFER_SEED = 0


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixel units."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.fx, self.fy, self.cx, self.cy)):
            raise ContractError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ContractError("focal lengths must be positive")


@dataclass(frozen=True)
class CameraPose:
    """Camera-to-world rigid transform: x_world = R @ x_cam + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.ascontiguousarray(np.asarray(self.rotation, dtype=np.float64))
        t = np.ascontiguousarray(np.asarray(self.translation, dtype=np.float64))
        if r.shape != (3, 3) or t.shape != (3,):
            raise ShapeError(f"pose expects 3x3 rotation and 3-vector, got {r.shape}, {t.shape}")
        if not (np.isfinite(r).all() and np.isfinite(t).all()):
            raise ContractError("pose must be finite")
        if np.abs(r @ r.T - np.eye(3)).max() > 1e-9:
            raise ContractError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ContractError("rotation determinant must be +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)


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
    intrinsics: Sequence[CameraIntrinsics],
    poses: Sequence[CameraPose],
) -> tuple[np.ndarray, np.ndarray]:
    """Lift V depth maps to world points (V, H, W, 3) and validity (V, H, W).

    Zero depth marks invalid pixels, whose points are +0.0.  Each view is
    bitwise equal to lifting it alone: the per-pixel float ops are the
    same, and the rotation is one stacked product, a BLAS call per image
    row as in the one-view form.  A valid point that overflows to a
    non-finite coordinate raises ``NumericError``.
    """
    depths = np.asarray(depths, dtype=np.float64)
    if depths.ndim != 3:
        raise ShapeError(f"depths must be VxHxW, got {depths.shape}")
    if not len(intrinsics) == len(poses) == len(depths):
        raise ShapeError(f"{len(depths)} depth maps, {len(intrinsics)} intrinsics, "
                         f"{len(poses)} poses")
    if np.any(depths < 0):
        raise ContractError("depth values must be nonnegative")
    # Each intrinsic as a (V, 1, 1) column.
    columns = np.array([(i.fx, i.fy, i.cx, i.cy) for i in intrinsics]).reshape(-1, 4)
    fx, fy, cx, cy = columns.T[..., None, None]
    _, h, w = depths.shape
    u = np.arange(w, dtype=np.float64)[None, :]
    v = np.arange(h, dtype=np.float64)[:, None]
    rotations_t = np.array([p.rotation for p in poses]).reshape(-1, 3, 3).transpose(0, 2, 1)
    translations = np.array([p.translation for p in poses]).reshape(-1, 1, 1, 3)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite point is caught below
        cam = np.stack([(u - cx) * depths / fx, (v - cy) * depths / fy, depths], axis=-1)
        world = np.matmul(cam, rotations_t[:, None]) + translations
    validity = depths > 0
    world[~validity] = 0.0
    if not np.isfinite(world).all():
        raise NumericError("back-projected points overflow to non-finite coordinates")
    return world, validity


# ---------------------------------------------------------------------------
# Chamfer distance


def _min_sq_dists_brute(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    diff = queries[:, None, :] - targets[None, :, :]
    return (diff * diff).sum(axis=2).min(axis=1)


# Relative gap below which a KD-tree's two nearest distances count as tied.
# Rounding inside the tree is ~1e-16 relative, so anything this close may
# order differently under the brute-force expression.
_NEAR_TIE_RTOL = 1e-9


def _min_sq_dists(queries: np.ndarray, targets: np.ndarray, tree) -> np.ndarray:
    """``_min_sq_dists_brute(queries, targets)``, bitwise, found through a KD-tree.

    The tree's nearest index is rescored with the brute-force expression.
    Rows whose two nearest tree distances are near-tied are rescanned by
    brute force, so ties and duplicates resolve exactly as the scan does.
    """
    dist, idx = tree.query(queries, k=2)
    diff = queries - targets[idx[:, 0]]
    out = (diff * diff).sum(axis=1)
    near_tie = dist[:, 1] <= dist[:, 0] * (1.0 + _NEAR_TIE_RTOL)
    if near_tie.any():
        out[near_tie] = _min_sq_dists_brute(queries[near_tie], targets)
    return out


def _mean_min_sq_dists(point_sets: Sequence[np.ndarray]) -> np.ndarray:
    """Entry [v, u]: mean squared distance from set v to its nearest points in set u.

    Each set's KD-tree is queried once, with every other set's points
    concatenated; the distances are split back per source set.  The
    diagonal is zero.
    """
    # Deferred: importing scipy.spatial costs ~10 MB of RSS, which code that
    # never computes Chamfer distances should not pay.
    from scipy.spatial import cKDTree

    if any(len(pts) == 0 for pts in point_sets):
        raise DegenerateInputError("Chamfer distance needs at least one valid point per set")
    n_sets = len(point_sets)
    means = np.zeros((n_sets, n_sets))
    for u, targets in enumerate(point_sets):
        sources = [v for v in range(n_sets) if v != u]
        queries = np.concatenate([point_sets[v] for v in sources])
        dists = _min_sq_dists(queries, targets, cKDTree(targets))
        splits = np.cumsum([len(point_sets[v]) for v in sources])[:-1]
        for v, part in zip(sources, np.split(dists, splits)):
            means[v, u] = np.mean(part)
    return means


def _subsample(points: np.ndarray, count: int | None, seed: int) -> np.ndarray:
    if count is None or len(points) <= count:
        return points
    rng = np.random.default_rng((seed, len(points)))
    idx = np.sort(rng.choice(len(points), size=count, replace=False))
    return points[idx]


def pairwise_chamfer(
    points: np.ndarray,
    validity: np.ndarray,
    subsample: int | None = DEFAULT_CHAMFER_SUBSAMPLE,
    seed: int = DEFAULT_CHAMFER_SEED,
) -> np.ndarray:
    """Symmetric (V, V) matrix of Chamfer distances between all view pairs.

    Each view's valid points are subsampled once (``subsample=None`` keeps
    them all).  Entry [v, u] averages the squared distance from every point
    of v to its nearest neighbor in u, and adds the same average from u to
    v; the diagonal is zero.  Nearest neighbors come from a KD-tree and
    agree bitwise with an exhaustive O(n^2) scan.
    """
    means = _mean_min_sq_dists([_subsample(p[m], subsample, seed) for p, m in zip(points, validity)])
    return means + means.T


# ---------------------------------------------------------------------------
# visibility, coverage


def box_counts(points: np.ndarray, validity: np.ndarray,
               objects: Sequence[ObjectAnnotation]) -> np.ndarray:
    """(V, O) counts of valid pixels whose world point lies in each object box.

    Takes points (V, H, W, 3) and validity (V, H, W), and counts on the
    (V, H·W) pixel grid; invalid pixels are never counted, whatever their
    coordinates.  Box bounds are inclusive.
    """
    points = points.reshape(len(points), -1, 3)
    validity = validity.reshape(len(validity), -1)
    lo = np.array([obj.aabb_min for obj in objects]).reshape(-1, 1, 1, 3)
    hi = np.array([obj.aabb_max for obj in objects]).reshape(-1, 1, 1, 3)
    inside = np.repeat(validity[None], len(objects), axis=0)
    for a in range(3):
        coord = points[..., a]
        inside &= coord >= lo[..., a]
        inside &= coord <= hi[..., a]
    return np.ascontiguousarray(inside.sum(axis=2, dtype=np.int64).T)


def visibility_pairs(
    points: np.ndarray,
    validity: np.ndarray,
    objects: Sequence[ObjectAnnotation],
    min_points: int = DEFAULT_MIN_POINTS,
) -> set[tuple[int, int]]:
    """All (view index, object index) pairs where the view observes the object."""
    if min_points < 1:
        raise ContractError("min_points must be at least 1")
    views, objs = np.nonzero(box_counts(points, validity, objects) >= min_points)
    return {(int(v), int(o)) for v, o in zip(views, objs)}


def max_coverage_sample(
    points: np.ndarray, validity: np.ndarray, budget: int, voxel_size: float
) -> list[int]:
    """Greedy view selection maximizing newly covered voxels.

    Every view's occupied voxels form one (V, K) boolean matrix, with keys
    packed relative to the minimum voxel over all views; each greedy round
    scores all views against the voxels not yet covered.  Ties break
    toward the lower view index; once no view adds coverage, the remaining
    budget is filled by ascending index.
    """
    n_views = len(points)
    if not (1 <= budget <= n_views):
        raise ContractError(f"budget {budget} outside [1, {n_views}]")
    if voxel_size <= 0:
        raise ContractError("voxel_size must be positive")
    # (3, n): one contiguous row per axis, so the reductions below are fast.
    with np.errstate(over="ignore"):  # an overflow to inf is caught below
        cells = np.floor(points[validity].T.copy() / voxel_size)
    occupied = np.zeros((n_views, 0), dtype=bool)
    if cells.size:
        lo, hi = cells.min(axis=1), cells.max(axis=1)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise RangeError(f"voxel coordinates overflow at voxel size {voxel_size}")
        sizes = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
        if math.prod(sizes) > np.iinfo(np.int64).max:
            raise RangeError(f"voxel grid {sizes} at voxel size {voxel_size} overflows int64 keys")
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
