"""Procedural synthetic scenes: colored boxes on a floor, ring cameras.

Each scene is V posed RGB + depth views of axis-aligned colored boxes
standing on a square floor, as image, depth and camera stacks that
``Scene`` checks once and ``Scene.views`` windows view by view, plus
object annotations (world AABB, referring text, category) and
template-generated view/scene captions.
The boxes come from the scene type's catalog (``SCENE_TYPE_CATALOGS``),
the floor's side is ``ROOM_EXTENT``, and ring cameras at distances in
``CAMERA_RADIUS`` and heights in ``CAMERA_HEIGHT`` look near its centre.
Generation is a pure function of (spec, seed); every object is guaranteed
to be visible from at least one view, by regeneration if needed.  A
layout's ring cameras are (V, …) arrays and all its views are ray-cast in
one batched pass, each bitwise equal to casting it alone
(``oracle_render_view`` in the tests), with no BLAS call in any step.

A scene directory holds one file, ``scene.upm``: a ``upm.container`` whose
five arrays, all in view order, are ``images`` (V, H, W, 3), ``depths``
(V, H, W), ``intrinsics`` (V, 4) as [fx, fy, cx, cy], ``rotations``
(V, 3, 3) and ``translations`` (V, 3).  Its metadata is one object:
``scene_id``, ``scene_type`` and ``scene_caption`` strings, a
``view_captions`` list of one string per view, and an ``objects`` list
of records with an integer ``object_id``, ``category``, ``aabb_min`` and
``aabb_max`` of 3 numbers each, and ``referring_text``.  The file is
replaced atomically, so a save that stops part-way leaves the previous
scene in place.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .config import check_fields, conforms, declared
from .container import read_arrays, write_arrays
from .engine import Tensor, normalize_rows
from .errors import ConfigError, ContractError, DegenerateInputError, FormatError, GenerationError, ShapeError
from .geometry import (
    DEFAULT_MIN_POINTS,
    CameraIntrinsics,
    CameraPose,
    ObjectAnnotation,
    back_project,
    box_counts,
)

logger = logging.getLogger(__name__)

SCENE_FILE = "scene.upm"
# A scene's stacks, in the order its file stores them: two rasters, then three camera stacks.
SCENE_ARRAYS = ("images", "depths", "intrinsics", "rotations", "translations")
MAX_REGENERATIONS = 25
FLOOR_COLOR = (0.52, 0.48, 0.42)
# The square floor's side, and the ranges each ring camera's horizontal
# distance from the room's centre and its height are drawn from, in metres.
ROOM_EXTENT = 6.0
CAMERA_RADIUS = (1.7, 2.5)
CAMERA_HEIGHT = (1.5, 2.4)

COLOR_TABLE = {
    "red": (0.82, 0.18, 0.14),
    "green": (0.18, 0.65, 0.25),
    "blue": (0.16, 0.32, 0.78),
    "yellow": (0.88, 0.80, 0.18),
    "purple": (0.55, 0.22, 0.68),
    "orange": (0.90, 0.52, 0.12),
    "teal": (0.12, 0.62, 0.60),
    "white": (0.92, 0.92, 0.90),
}


@dataclass(frozen=True)
class CatalogEntry:
    category: str
    color_name: str
    size_min: tuple[float, float, float]
    size_max: tuple[float, float, float]

    @property
    def rgb(self) -> tuple[float, float, float]:
        return COLOR_TABLE[self.color_name]


def _entries(category, colors, size_min, size_max):
    return [CatalogEntry(category, c, size_min, size_max) for c in colors]


SCENE_TYPE_CATALOGS: dict[str, tuple[CatalogEntry, ...]] = {
    "bedroom": tuple(
        _entries("bed", ["red", "blue", "white"], (1.4, 1.0, 0.45), (2.0, 1.6, 0.6))
        + _entries("wardrobe", ["purple", "teal"], (0.8, 0.5, 0.9), (1.2, 0.7, 1.2))
        + _entries("nightstand", ["yellow", "green"], (0.4, 0.4, 0.45), (0.6, 0.6, 0.6))
        + _entries("lamp", ["orange"], (0.35, 0.35, 0.4), (0.5, 0.5, 0.55))
    ),
    "office": tuple(
        _entries("desk", ["white", "teal", "blue"], (1.1, 0.6, 0.65), (1.6, 0.9, 0.8))
        + _entries("chair", ["red", "green"], (0.45, 0.45, 0.45), (0.6, 0.6, 0.55))
        + _entries("cabinet", ["purple", "yellow"], (0.5, 0.4, 0.9), (0.8, 0.6, 1.2))
        + _entries("printer", ["orange"], (0.45, 0.45, 0.4), (0.6, 0.6, 0.5))
    ),
    "kitchen": tuple(
        _entries("table", ["yellow", "white", "green"], (0.9, 0.9, 0.7), (1.4, 1.4, 0.8))
        + _entries("stool", ["red", "blue"], (0.35, 0.35, 0.45), (0.5, 0.5, 0.6))
        + _entries("counter", ["teal", "purple"], (1.2, 0.6, 0.85), (1.8, 0.8, 0.95))
        + _entries("cart", ["orange"], (0.5, 0.4, 0.7), (0.7, 0.6, 0.9))
    ),
    "library": tuple(
        _entries("bookshelf", ["green", "purple", "red"], (0.9, 0.35, 1.0), (1.4, 0.5, 1.2))
        + _entries("armchair", ["blue", "orange"], (0.7, 0.7, 0.6), (0.9, 0.9, 0.75))
        + _entries("bench", ["white", "teal"], (1.2, 0.45, 0.4), (1.6, 0.6, 0.5))
        + _entries("globe", ["yellow"], (0.35, 0.35, 0.5), (0.5, 0.5, 0.65))
    ),
}

SCENE_TYPES = tuple(SCENE_TYPE_CATALOGS)


@dataclass(frozen=True)
class SceneSpec:
    """What varies between scenes.  The catalog is ``SCENE_TYPE_CATALOGS[scene_type]``; the room,
    cameras and visibility are ``ROOM_EXTENT``, ``CAMERA_*`` and ``DEFAULT_MIN_POINTS``.
    ``upm.config`` checks each field's kind and range."""

    scene_type: str = declared("bedroom", str, ("in", SCENE_TYPES))
    seed: int = declared(0, int, (">=", 0))
    object_count: tuple[int, int] = declared((2, 5), (int, int), (">=", 0))
    view_count: int = declared(16, int, (">=", 2))
    image_size: int = declared(32, int, (">", 0))

    def __post_init__(self):
        check_fields(self)
        if self.object_count[0] > self.object_count[1]:
            raise ConfigError("invalid object count range")
        if self.object_count[1] > len(SCENE_TYPE_CATALOGS[self.scene_type]):
            raise ConfigError("object count range exceeds catalog size")


@dataclass(frozen=True)
class View:
    """One posed RGB + depth observation: a window onto a ``Scene``'s stacks, not a copy."""

    image: np.ndarray
    depth: np.ndarray
    intrinsics: CameraIntrinsics
    pose: CameraPose


@dataclass(frozen=True)
class Scene:
    """V posed views as the stacks of ``SCENE_ARRAYS`` (module docstring), their only copy.

    Checked once, when built: bad raster shapes, an empty raster, a
    negative depth, fewer than two views or not one caption per view raise
    ``ContractError``, and a non-finite raster value ``DegenerateInputError``.
    Camera stacks of other shapes raise ``ShapeError``; a non-finite camera,
    a focal length ≤ 0, or a rotation R with max |R Rᵀ − I| or |det R − 1|
    over 1e-9, ``ContractError``."""

    scene_id: str
    images: np.ndarray
    depths: np.ndarray
    intrinsics: np.ndarray
    rotations: np.ndarray
    translations: np.ndarray
    objects: list[ObjectAnnotation]
    scene_type: str
    scene_caption: str
    view_captions: list[str]

    def __post_init__(self):
        for name in SCENE_ARRAYS:
            object.__setattr__(self, name, np.ascontiguousarray(getattr(self, name), dtype=np.float64))
        images, depths, intrinsics, rotations, translations = (
            getattr(self, name) for name in SCENE_ARRAYS)
        if images.ndim != 4 or images.shape[3] != 3:
            raise ContractError(f"images must be a (V, H, W, 3) stack, got {images.shape}")
        if depths.shape != images.shape[:3]:
            raise ContractError(f"depths {depths.shape} are not pixel-aligned with images {images.shape}")
        if len(images) < 2:
            raise ContractError("a scene needs at least two views")
        if depths.size == 0:
            raise ContractError(f"rasters need a nonzero height and width, got {depths.shape[1:]}")
        if len(self.view_captions) != len(images):
            raise ContractError(f"{len(self.view_captions)} view captions for {len(images)} views")
        if not (np.isfinite(images).all() and np.isfinite(depths).all()):
            raise DegenerateInputError("image and depth values must be finite")
        if np.any(depths < 0):
            raise ContractError("depth must be nonnegative")
        n_views = len(images)
        shapes = (intrinsics.shape, rotations.shape, translations.shape)
        if shapes != ((n_views, 4), (n_views, 3, 3), (n_views, 3)):
            raise ShapeError(f"camera stacks of shapes {shapes} for {n_views} views, not "
                             f"(V, 4) intrinsics, (V, 3, 3) rotations and (V, 3) translations")
        if not all(np.isfinite(stack).all() for stack in (intrinsics, rotations, translations)):
            raise ContractError("camera intrinsics, rotations and translations must be finite")
        if np.any(intrinsics[:, :2] <= 0):
            raise ContractError("focal lengths must be positive")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the checks below
            if not np.abs(rotations @ rotations.transpose(0, 2, 1) - np.eye(3)).max() <= 1e-9:
                raise ContractError("rotation is not orthonormal")
            if not np.abs(np.linalg.det(rotations) - 1.0).max() <= 1e-9:
                raise ContractError("rotation determinant must be +1")

    @property
    def views(self) -> list[View]:
        """One ``View`` per view, its rasters and pose windows onto the stacks."""
        return [View(image, depth, CameraIntrinsics(*intrinsics), CameraPose(rotation, translation))
                for image, depth, intrinsics, rotation, translation
                in zip(self.images, self.depths, self.intrinsics, self.rotations, self.translations)]

    def pointmaps(self) -> tuple[np.ndarray, np.ndarray]:
        """Every view's pointmap as ``back_project`` returns it, in one batched pass.

        Points (V, H, W, 3) and validity (V, H, W).  Recomputed on each call
        by design: keeping them would hold every view's points for as long
        as the scene lives (about 16 MB for the 640 views of a default
        40-scene evaluation).
        """
        return back_project(self.depths, self.intrinsics, self.rotations, self.translations)


# ---------------------------------------------------------------------------
# generation


def _article(word: str) -> str:
    return "an" if word[0] in "aeiou" else "a"


def _noun(entry_color: str, category: str) -> str:
    return f"{entry_color} {category}"


def _look_at_rotations(eyes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Camera-to-world rotations (V, 3, 3) of cameras at ``eyes`` looking at ``targets``, world z up.

    Every ring camera's eye is at least 1.7 - 0.9 * sqrt(2) (about 0.43)
    off the vertical through its target, so neither axis is degenerate.
    """
    z_axes = normalize_rows(Tensor(targets - eyes)).array
    x_axes = normalize_rows(Tensor(np.cross(z_axes, [0.0, 0.0, 1.0]))).array
    return np.stack([x_axes, np.cross(z_axes, x_axes), z_axes], axis=2)


def _place_objects(spec: SceneSpec, rng, seed: int):
    count = int(rng.integers(spec.object_count[0], spec.object_count[1] + 1))
    catalog = SCENE_TYPE_CATALOGS[spec.scene_type]
    order = rng.permutation(len(catalog))[:count]
    placed: list[tuple[CatalogEntry, np.ndarray, np.ndarray]] = []
    half = ROOM_EXTENT / 2.0
    margin = 0.1
    for idx in order:
        entry = catalog[idx]
        size = rng.uniform(entry.size_min, entry.size_max)
        for _ in range(1000):
            cx = rng.uniform(-half + size[0] / 2, half - size[0] / 2)
            cy = rng.uniform(-half + size[1] / 2, half - size[1] / 2)
            lo = np.array([cx - size[0] / 2, cy - size[1] / 2, 0.0])
            hi = np.array([cx + size[0] / 2, cy + size[1] / 2, size[2]])
            if _clear_of(placed, lo, hi, margin):
                placed.append((entry, lo, hi))
                break
        else:
            raise GenerationError(
                f"could not place a {entry.category} after 1000 attempts (seed {seed})"
            )
    return placed


def _clear_of(placed, lo, hi, margin) -> bool:
    for _, plo, phi in placed:
        overlap_x = lo[0] - margin < phi[0] and plo[0] < hi[0] + margin
        overlap_y = lo[1] - margin < phi[1] and plo[1] < hi[1] + margin
        if overlap_x and overlap_y:
            return False
    return True


def _render_views(
    intrinsics: np.ndarray,
    rotations: np.ndarray,
    translations: np.ndarray,
    n: int,
    boxes: list[tuple[np.ndarray, np.ndarray]],
    colors: list[tuple[float, float, float]],
    room_half: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-hit ray cast of the boxes and the floor from V cameras at once, flat shading.

    The cameras are stacks as ``Scene`` holds them; ``translations`` are their
    centres.  Returns images (V, n, n, 3) and depths (V, n, n); a ray that
    hits nothing is black at depth 0.  Every view is bitwise equal to
    casting it alone: the float ops per ray are the same, and no BLAS call
    rotates the rays.  The ray directions and their zero-safe copy hold
    V·n·n·3 float64 values each; the slab test works one axis at a time in
    five V·n·n float64 buffers written in place.
    """
    v_count = len(translations)
    fx, fy, cx, cy = intrinsics.T[..., None, None]
    u = np.arange(n, dtype=np.float64)
    dx, dy = (u - cx) / fx, (u[:, None] - cy) / fy  # (V, 1, n) and (V, n, 1)
    r = rotations[..., None, None]
    # (3, V, n*n): one contiguous plane per world axis, the camera ray (dx, dy, 1) rotated.
    dirs = np.stack([(dx * r[:, a, 0] + dy * r[:, a, 1]) + r[:, a, 2]
                     for a in range(3)]).reshape(3, v_count, -1)
    safe_dirs = np.where(dirs == 0.0, 1e-300, dirs)

    # Floor: z = 0 inside the room square.
    ex, ey, ez = translations.T[:, :, None]
    s_floor = -ez / safe_dirs[2]
    fx = ex + s_floor * dirs[0]
    fy = ey + s_floor * dirs[1]
    update = (s_floor > 1e-9) & (np.abs(fx) <= room_half) & (np.abs(fy) <= room_half)
    depth = np.where(update, s_floor, np.inf)
    # Index into the palette: nothing, the floor, then each box.
    label = update.astype(np.intp)

    t1, t2, t3, t_near, t_far = (np.empty_like(depth) for _ in range(5))
    mask = np.empty_like(update)
    for index, (lo, hi) in enumerate(boxes, start=2):
        lo_rel, hi_rel = lo - translations, hi - translations
        for a in range(3):
            np.divide(lo_rel[:, a, None], safe_dirs[a], out=t1)
            np.divide(hi_rel[:, a, None], safe_dirs[a], out=t2)
            if a == 0:
                np.minimum(t1, t2, out=t_near)
                np.maximum(t1, t2, out=t_far)
            else:
                np.maximum(t_near, np.minimum(t1, t2, out=t3), out=t_near)
                np.minimum(t_far, np.maximum(t1, t2, out=t3), out=t_far)
        np.greater_equal(t_far, t_near, out=update)
        update &= np.greater(t_near, 1e-9, out=mask)
        update &= np.less(t_near, depth, out=mask)
        np.copyto(depth, t_near, where=update)
        np.copyto(label, index, where=update)

    depth[~np.isfinite(depth)] = 0.0
    palette = np.array([(0.0, 0.0, 0.0), FLOOR_COLOR, *colors])
    return palette[label].reshape(v_count, n, n, 3), depth.reshape(v_count, n, n)


def _referring_texts(placed) -> list[str]:
    centers = [((lo + hi) / 2.0) for _, lo, hi in placed]
    texts = []
    for i, (entry, _, _) in enumerate(placed):
        if len(placed) == 1:
            texts.append(f"the {_noun(entry.color_name, entry.category)}")
            continue
        others = [(math.dist(centers[i], centers[j]), j) for j in range(len(placed)) if j != i]
        _, nearest = min(others)
        anchor = placed[nearest][0]
        texts.append(
            f"the {_noun(entry.color_name, entry.category)} near "
            f"the {_noun(anchor.color_name, anchor.category)}"
        )
    return texts


def _view_caption(scene_type: str, visible: list[CatalogEntry]) -> str:
    if not visible:
        return f"a view of an empty part of {_article(scene_type)} {scene_type}"
    nouns = [f"{_article(e.color_name)} {_noun(e.color_name, e.category)}" for e in visible]
    return f"a view of {_article(scene_type)} {scene_type} showing " + _join(nouns)


def _scene_caption(scene_type: str, entries: list[CatalogEntry]) -> str:
    if not entries:
        return f"an empty {scene_type}"
    nouns = [f"{_article(e.color_name)} {_noun(e.color_name, e.category)}" for e in entries]
    return f"{_article(scene_type)} {scene_type} containing " + _join(nouns)


def _join(parts: list[str]) -> str:
    if len(parts) == 1:
        return parts[0]
    return ", ".join(parts[:-1]) + " and " + parts[-1]


def generate_scene(spec: SceneSpec, seed: int) -> Scene:
    """Generate one scene; regenerate until every object is observable.

    An object is observable when some view holds at least ``DEFAULT_MIN_POINTS``
    valid points in its box.  Each rejected layout is logged at DEBUG with the
    objects no view observes; ``GenerationError`` names the last of
    ``MAX_REGENERATIONS`` layouts' objects.  A seed that is not a
    nonnegative int raises ``ContractError``.
    """
    if not (conforms(int, seed) and seed >= 0):
        raise ContractError(f"seed must be a nonnegative int, got {seed!r}")
    for attempt in range(MAX_REGENERATIONS):
        scene, unobserved = _generate_once(spec, seed, attempt)
        if scene is not None:
            return scene
        logger.debug("seed %d attempt %d: layout rejected, no view observes %s",
                     seed, attempt, _join(unobserved))
    raise GenerationError(f"no layout with all objects visible after {MAX_REGENERATIONS} attempts "
                          f"(seed {seed}); the last left unobserved: {_join(unobserved)}")


def _generate_once(spec: SceneSpec, seed: int, attempt: int) -> tuple[Scene | None, list[str]]:
    """One layout: the scene, or None and the objects that no view observes."""
    rng = np.random.default_rng((spec.seed, seed, attempt))
    placed = _place_objects(spec, rng, seed)
    boxes = [(lo, hi) for _, lo, hi in placed]
    colors = [entry.rgb for entry, _, _ in placed]
    half = ROOM_EXTENT / 2.0

    n = spec.image_size
    v_count = spec.view_count
    intrinsics = np.tile([0.8 * n, 0.8 * n, (n - 1) / 2.0, (n - 1) / 2.0], (v_count, 1))
    angles = (2.0 * np.pi * np.arange(v_count) / v_count
              + rng.uniform(-0.4, 0.4, v_count) * 2.0 * np.pi / v_count)
    radii = rng.uniform(*CAMERA_RADIUS, v_count)
    heights = rng.uniform(*CAMERA_HEIGHT, v_count)
    translations = np.stack([radii * np.cos(angles), radii * np.sin(angles), heights], axis=1)
    targets = np.column_stack([rng.uniform(-0.3, 0.3, (v_count, 2)) * half, np.zeros(v_count)])
    rotations = _look_at_rotations(translations, targets)
    images, depths = _render_views(intrinsics, rotations, translations, n, boxes, colors, half)

    texts = _referring_texts(placed)
    objects = [
        ObjectAnnotation(object_id=i, aabb_min=lo, aabb_max=hi, referring_text=texts[i],
                         category=entry.category)
        for i, (entry, lo, hi) in enumerate(placed)
    ]

    points, validity = back_project(depths, intrinsics, rotations, translations)
    areas = box_counts(points, validity, objects)
    unobserved = [
        _noun(entry.color_name, entry.category)
        for (entry, _, _), best in zip(placed, areas.max(axis=0)) if best < DEFAULT_MIN_POINTS
    ]
    if unobserved:
        return None, unobserved

    view_captions = []
    for vi in range(spec.view_count):
        visible = [placed[oi][0] for oi in np.argsort(-areas[vi]) if areas[vi][oi] >= DEFAULT_MIN_POINTS]
        view_captions.append(_view_caption(spec.scene_type, visible))

    return Scene(
        scene_id=f"scene_{seed:05d}",
        images=images, depths=depths, intrinsics=intrinsics, rotations=rotations, translations=translations,
        objects=objects,
        scene_type=spec.scene_type,
        scene_caption=_scene_caption(spec.scene_type, [e for e, _, _ in placed]),
        view_captions=view_captions,
    ), []


# ---------------------------------------------------------------------------
# on-disk format


def save_scene(scene: Scene, directory) -> None:
    """Write ``directory/scene.upm`` (module docstring) in one atomic replace.

    The metadata is built, and it and the stacks pass ``load_scene``'s
    checks, before anything is written.  So a scene that ``load_scene``
    would refuse (its captions or stacks changed since it was built, a text
    not a string, an object id not an int or repeated) raises
    ``ContractError`` and leaves the directory untouched.
    """
    meta = {
        "scene_id": scene.scene_id,
        "scene_type": scene.scene_type,
        "scene_caption": scene.scene_caption,
        "view_captions": list(scene.view_captions),
        "objects": [
            {
                "object_id": obj.object_id,
                "category": obj.category,
                "aabb_min": obj.aabb_min.tolist(),
                "aabb_max": obj.aabb_max.tolist(),
                "referring_text": obj.referring_text,
            }
            for obj in scene.objects
        ],
    }
    arrays = {name: getattr(scene, name) for name in SCENE_ARRAYS}
    try:
        Scene(**_scene_fields(meta), **arrays)
    except (*_METADATA_ERRORS, DegenerateInputError, ShapeError) as exc:
        raise ContractError(f"cannot save scene {scene.scene_id!r}: {type(exc).__name__}: {exc}") from exc
    write_arrays(Path(directory) / SCENE_FILE, meta, arrays.items())


_SCENE_KEYS = {"scene_id", "scene_type", "scene_caption", "view_captions", "objects"}
_OBJECT_KEYS = {"object_id", "category", "aabb_min", "aabb_max", "referring_text"}
_METADATA_ERRORS = (ValueError, TypeError, KeyError, OverflowError, ContractError)


def _numbers(value, count: int, what: str) -> list[float]:
    """A JSON list of exactly ``count`` numbers, booleans excluded."""
    if not (isinstance(value, list) and len(value) == count
            and all(type(x) in (int, float) for x in value)):
        raise TypeError(f"{what} must be a list of {count} numbers")
    return [float(x) for x in value]


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string")
    return value


def _scene_fields(meta: dict) -> dict:
    """The ``Scene`` fields other than its stacks, read from a scene file's metadata.

    The one reader of the layout in the module docstring, run by ``load_scene`` and
    ``save_scene``: metadata not of it raises one of ``_METADATA_ERRORS``.  Unknown
    top-level keys are not read."""
    fields = {key: _text(meta[key], key) for key in ("scene_id", "scene_type", "scene_caption")}
    view_captions, records = meta["view_captions"], meta["objects"]
    if not (isinstance(view_captions, list) and all(isinstance(c, str) for c in view_captions)):
        raise TypeError("view captions must be a list of strings")
    if not (isinstance(records, list)
            and all(isinstance(r, dict) and r.keys() == _OBJECT_KEYS for r in records)):
        raise ValueError(f"objects must be a list of records of the keys {sorted(_OBJECT_KEYS)}")
    objects = []
    for r in records:
        if type(r["object_id"]) is not int:
            raise TypeError(f"object id {r['object_id']!r} is not an integer")
        objects.append(ObjectAnnotation(
            object_id=r["object_id"], aabb_min=_numbers(r["aabb_min"], 3, "aabb_min"),
            aabb_max=_numbers(r["aabb_max"], 3, "aabb_max"),
            referring_text=_text(r["referring_text"], "referring text"),
            category=_text(r["category"], "category")))
    if len({obj.object_id for obj in objects}) < len(objects):
        raise ValueError("object ids are not distinct")
    return dict(fields, view_captions=view_captions, objects=objects)


def read_utf8(path: Path, what: str) -> str:
    """The text of a UTF-8 file; ``FormatError`` if it is missing, a directory or not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise FormatError(f"missing {what} {path}") from exc
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise FormatError(f"unreadable {what} {path}: {exc}") from exc


def load_scene(directory) -> Scene:
    """Read a scene directory written by :func:`save_scene`.

    Any malformed directory raises :class:`FormatError`: a missing or
    malformed ``scene.upm``, arrays other than exactly ``SCENE_ARRAYS``,
    metadata not of the layout in the module docstring, and stacks or
    records that no valid scene could hold.  An unknown top-level metadata
    key is logged and ignored.
    """
    path = Path(directory) / SCENE_FILE
    meta, arrays = read_arrays(path)
    if arrays.keys() != set(SCENE_ARRAYS):
        raise FormatError(f"scene file {path} holds the arrays {sorted(arrays)}, "
                          f"not {sorted(SCENE_ARRAYS)}")
    for key in sorted(meta.keys() - _SCENE_KEYS):
        logger.warning("ignoring unknown metadata key %r in %s", key, path)
    try:
        fields = _scene_fields(meta)
    except _METADATA_ERRORS as exc:
        raise FormatError(f"invalid metadata in {path}: {type(exc).__name__}: {exc}") from exc

    try:
        return Scene(**fields, **arrays)
    except (ContractError, DegenerateInputError, ShapeError) as exc:
        raise FormatError(f"invalid scene in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# dataset manifest

_SPLITS = ("train", "val", "test")


def split_dataset(scene_ids: list[str], seed: int) -> list[tuple[str, str]]:
    """Assign 80/10/10 train/val/test tags by seeded shuffle.

    Both holdout splits take floor(0.1 * n); the remainder trains.  A
    repeated id or a seed that is not a nonnegative int raises
    ``ContractError``.
    """
    if not (conforms(int, seed) and seed >= 0):
        raise ContractError(f"seed must be a nonnegative int, got {seed!r}")
    if len(set(scene_ids)) != len(scene_ids):
        raise ContractError("scene ids repeat: each scene can be in one split only")
    n = len(scene_ids)
    n_val = n // 10
    n_test = n // 10
    order = np.random.default_rng(seed).permutation(n)
    tags = {}
    for pos, idx in enumerate(order):
        if pos < n - n_val - n_test:
            tags[idx] = "train"
        elif pos < n - n_test:
            tags[idx] = "val"
        else:
            tags[idx] = "test"
    return [(tags[i], scene_ids[i]) for i in range(n)]


def _not_one_path_component(scene_dir: str) -> bool:
    """True for ``.``, ``..``, a name holding a separator and an absolute path: each
    names something other than one entry of the manifest's directory."""
    return scene_dir in (".", "..") or Path(scene_dir).name != scene_dir


def write_manifest(path, entries: list[tuple[str, str]]) -> None:
    """Write one ``split<TAB>scene_dir`` line per entry, atomically.

    An entry that ``load_manifest`` would refuse, an unknown split, an
    empty directory name, a name listed twice (in one split or two), one
    holding a tab or a line break, or one that is not a single plain path
    component (``.``, ``..``, a name holding ``/``, an absolute path),
    raises ``ContractError`` before any write; so does a name that UTF-8
    cannot encode, such as one holding a lone surrogate.
    """
    seen: set[str] = set()
    for split, scene_dir in entries:
        if split not in _SPLITS:
            raise ContractError(f"unknown split {split!r}; expected one of {_SPLITS}")
        if "\t" in scene_dir or scene_dir.splitlines() not in ([], [scene_dir]):
            raise ContractError(f"scene directory {scene_dir!r} holds a tab or a line break")
        if not scene_dir or scene_dir in seen:
            raise ContractError(f"scene directory {scene_dir!r} is empty or listed twice")
        if _not_one_path_component(scene_dir):
            raise ContractError(f"scene directory {scene_dir!r} is not one plain path component")
        seen.add(scene_dir)
        try:
            scene_dir.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ContractError(f"scene directory {scene_dir!r} is not encodable as UTF-8") from exc
    lines = [f"{split}\t{scene_dir}" for split, scene_dir in entries]
    with atomic_write(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def load_manifest(path) -> dict[str, list[str]]:
    """Scene directories by split; a malformed manifest raises ``FormatError``.

    So does an empty directory name, one that an earlier line lists, and
    one that is not a single plain path component (``.``, ``..``, a name
    holding ``/``, an absolute path), which would load something other
    than one entry of the manifest's directory.
    """
    path = Path(path)
    splits: dict[str, list[str]] = {split: [] for split in _SPLITS}
    seen: set[str] = set()
    for lineno, raw in enumerate(read_utf8(path, "manifest").splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            split, scene_dir = raw.split("\t")
        except ValueError as exc:
            raise FormatError(f"malformed manifest line {lineno} in {path}") from exc
        if split not in splits:
            raise FormatError(f"unknown split {split!r} on manifest line {lineno} in {path}")
        if not scene_dir or scene_dir in seen:
            raise FormatError(f"scene directory {scene_dir!r} on manifest line {lineno} in {path} "
                              f"is empty or listed twice")
        if _not_one_path_component(scene_dir):
            raise FormatError(f"scene directory {scene_dir!r} on manifest line {lineno} in {path} "
                              f"is not one plain path component")
        seen.add(scene_dir)
        splits[split].append(scene_dir)
    return splits


def load_split_scenes(manifest_path, split: str) -> list[Scene]:
    """The scenes of one split, in manifest order; an unknown split raises ``ContractError``."""
    if split not in _SPLITS:
        raise ContractError(f"unknown split {split!r}; expected one of {_SPLITS}")
    manifest_path = Path(manifest_path)
    splits = load_manifest(manifest_path)
    base = manifest_path.parent
    return [load_scene(base / name) for name in splits[split]]
