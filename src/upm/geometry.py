"""Coordinate-frame and point-set machinery.

Pointmaps store one world-frame 3D coordinate per pixel, pixel-aligned
with the RGB image they came from.  Everything here is a pure function
over immutable numpy inputs; nothing touches the autodiff engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, DegenerateInputError, RangeError, ShapeError

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
        if np.abs(r @ r.T - np.eye(3)).max() > 1e-9:
            raise ContractError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ContractError("rotation determinant must be +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)


@dataclass
class Pointmap:
    """Per-pixel world coordinates with a validity mask."""

    points: np.ndarray
    validity: np.ndarray

    def __post_init__(self):
        self.points = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        self.validity = np.ascontiguousarray(np.asarray(self.validity, dtype=bool))
        if self.points.ndim != 3 or self.points.shape[2] != 3:
            raise ShapeError(f"points must be HxWx3, got {self.points.shape}")
        if self.validity.shape != self.points.shape[:2]:
            raise ShapeError("validity mask does not match points")
        if not np.isfinite(self.points[self.validity]).all():
            raise ContractError("valid pixels must hold finite coordinates")

    @property
    def height(self) -> int:
        return self.points.shape[0]

    @property
    def width(self) -> int:
        return self.points.shape[1]

    def valid_points(self) -> np.ndarray:
        """Valid world points as an (n, 3) array, raster order."""
        return self.points[self.validity]


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
        if np.any(self.aabb_min > self.aabb_max):
            raise ContractError("AABB min corner exceeds max corner")


# ---------------------------------------------------------------------------
# back-projection


def back_project(depth: np.ndarray, intr: CameraIntrinsics, pose: CameraPose) -> Pointmap:
    """Lift a depth map to a world-frame pointmap. Zero depth marks invalid pixels."""
    depth = np.asarray(depth, dtype=np.float64)
    if depth.ndim != 2:
        raise ShapeError(f"depth must be HxW, got {depth.shape}")
    if np.any(depth < 0):
        raise ContractError("depth values must be nonnegative")
    h, w = depth.shape
    u = np.arange(w, dtype=np.float64)[None, :]
    v = np.arange(h, dtype=np.float64)[:, None]
    x_cam = (u - intr.cx) * depth / intr.fx
    y_cam = (v - intr.cy) * depth / intr.fy
    cam = np.stack([x_cam, y_cam, depth], axis=-1)
    world = cam @ pose.rotation.T + pose.translation
    validity = depth > 0
    world[~validity] = 0.0
    return Pointmap(points=world, validity=validity)


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

    One KD-tree per set serves every ordered pair; the diagonal is zero.
    """
    # Deferred: importing scipy.spatial costs ~10 MB of RSS, which code that
    # never computes Chamfer distances should not pay.
    from scipy.spatial import cKDTree

    if any(len(pts) == 0 for pts in point_sets):
        raise DegenerateInputError("Chamfer distance needs at least one valid point per set")
    trees = [cKDTree(pts) for pts in point_sets]
    n_sets = len(point_sets)
    means = np.zeros((n_sets, n_sets))
    for v in range(n_sets):
        for u in range(n_sets):
            if u != v:
                means[v, u] = np.mean(_min_sq_dists(point_sets[v], point_sets[u], trees[u]))
    return means


def _subsample(points: np.ndarray, count: int | None, seed: int) -> np.ndarray:
    if count is None or len(points) <= count:
        return points
    rng = np.random.default_rng((seed, len(points)))
    idx = np.sort(rng.choice(len(points), size=count, replace=False))
    return points[idx]


def pairwise_chamfer(
    pointmaps: Sequence[Pointmap],
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
    means = _mean_min_sq_dists([_subsample(pm.valid_points(), subsample, seed) for pm in pointmaps])
    return means + means.T


# ---------------------------------------------------------------------------
# proximity ranks, visibility, coverage


def _ranks_by_distance(distances: np.ndarray, anchor: int) -> dict[int, int]:
    """0-based rank of every index but the anchor, by ascending distance.

    Ties break toward the lower index.
    """
    candidates = [u for u in range(len(distances)) if u != anchor]
    order = sorted(candidates, key=lambda u: (distances[u], u))
    return {u: rank for rank, u in enumerate(order)}


def visible_areas(pointmaps: Sequence[Pointmap], objects: Sequence[ObjectAnnotation]) -> np.ndarray:
    """(V, O) counts of each view's valid pixels whose world point lies in each object box.

    Box bounds are inclusive.
    """
    lo = np.array([obj.aabb_min for obj in objects]).reshape(-1, 3)
    hi = np.array([obj.aabb_max for obj in objects]).reshape(-1, 3)
    areas = np.zeros((len(pointmaps), len(objects)), dtype=np.int64)
    for v, pm in enumerate(pointmaps):
        pts = pm.valid_points()
        inside = np.ones((len(pts), len(objects)), dtype=bool)
        for a in range(3):
            coord = pts[:, a, None]
            inside &= (coord >= lo[:, a]) & (coord <= hi[:, a])
        areas[v] = inside.sum(axis=0)
    return areas


def visibility_pairs(
    pointmaps: Sequence[Pointmap],
    objects: Sequence[ObjectAnnotation],
    min_points: int = DEFAULT_MIN_POINTS,
) -> set[tuple[int, int]]:
    """All (view index, object index) pairs where the view observes the object."""
    if min_points < 1:
        raise ContractError("min_points must be at least 1")
    views, objs = np.nonzero(visible_areas(pointmaps, objects) >= min_points)
    return {(int(v), int(o)) for v, o in zip(views, objs)}


def _voxel_keys(pointmaps: Sequence[Pointmap], voxel_size: float) -> list[np.ndarray]:
    """Per view, the sorted unique int64 keys of the voxels its valid points occupy.

    Voxel coordinates are packed relative to the minimum over all views, so
    keys compare across the views of one call only.
    """
    with np.errstate(over="ignore"):  # an overflow to inf is caught below
        cells = [np.floor(pm.valid_points() / voxel_size) for pm in pointmaps]
    occupied = [c for c in cells if len(c)]
    if not occupied:
        return [np.empty(0, dtype=np.int64) for _ in pointmaps]
    lo = np.min([c.min(axis=0) for c in occupied], axis=0)
    hi = np.max([c.max(axis=0) for c in occupied], axis=0)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise RangeError(f"voxel coordinates overflow at voxel size {voxel_size}")
    sizes = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    if math.prod(sizes) > np.iinfo(np.int64).max:
        raise RangeError(f"voxel grid {sizes} at voxel size {voxel_size} overflows int64 keys")
    keys = []
    for c in cells:
        offset = (c - lo).astype(np.int64)
        keys.append(np.unique((offset[:, 0] * sizes[1] + offset[:, 1]) * sizes[2] + offset[:, 2]))
    return keys


def max_coverage_sample(
    pointmaps: Sequence[Pointmap], budget: int, voxel_size: float
) -> list[int]:
    """Greedy view selection maximizing newly covered voxels.

    Ties break toward the lower view index; once no view adds coverage,
    the remaining budget is filled by ascending index.
    """
    n_views = len(pointmaps)
    if not (1 <= budget <= n_views):
        raise ContractError(f"budget {budget} outside [1, {n_views}]")
    if voxel_size <= 0:
        raise ContractError("voxel_size must be positive")
    voxels = _voxel_keys(pointmaps, voxel_size)
    covered = np.empty(0, dtype=np.int64)
    chosen: list[int] = []
    remaining = list(range(n_views))
    while len(chosen) < budget:
        best_gain = -1
        best_view = None
        for v in remaining:
            gain = int(np.isin(voxels[v], covered, assume_unique=True, invert=True).sum())
            if gain > best_gain:
                best_gain = gain
                best_view = v
        if best_gain <= 0:
            break
        chosen.append(best_view)
        covered = np.union1d(covered, voxels[best_view])
        remaining.remove(best_view)
    for v in remaining:
        if len(chosen) >= budget:
            break
        chosen.append(v)
    return chosen
