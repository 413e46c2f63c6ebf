"""Procedural synthetic scenes: colored boxes on a floor, ring cameras.

Each scene is a set of posed RGB + depth views of axis-aligned colored
boxes standing on a square floor, plus object annotations (world AABB,
referring text, category) and template-generated view/scene captions.
Generation is a pure function of (spec, seed); every object is guaranteed
to be visible from at least one view, by regeneration if needed.  All
views of a layout are ray-cast in one batched pass, and each view is
bitwise equal to casting it alone (``oracle_render_view`` in the tests).
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .errors import ConfigError, ContractError, DegenerateInputError, FormatError, GenerationError
from .geometry import (
    DEFAULT_MIN_POINTS,
    CameraIntrinsics,
    CameraPose,
    ObjectAnnotation,
    back_project,
    box_counts,
)

logger = logging.getLogger(__name__)

RASTER_MAGIC = b"UPMV"
# Characters that would split a meta.txt record: its field separator, and
# every line boundary of ``str.splitlines``.
_RECORD_BREAKS = "\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
FLOOR_COLOR = (0.52, 0.48, 0.42)

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
    """Everything that parameterizes procedural generation of one scene."""

    scene_type: str = "bedroom"
    seed: int = 0
    room_extent: float = 6.0
    object_count: tuple[int, int] = (2, 5)
    catalog: tuple[CatalogEntry, ...] = ()
    view_count: int = 16
    image_size: int = 32
    camera_radius: tuple[float, float] = (1.7, 2.5)
    camera_height: tuple[float, float] = (1.5, 2.4)
    min_points: int = DEFAULT_MIN_POINTS

    def __post_init__(self):
        if not (math.isfinite(self.room_extent) and self.room_extent > 0):
            raise ConfigError(f"room extent must be finite and positive, got {self.room_extent}")
        if self.view_count < 2:
            raise ConfigError("a scene needs at least two views")
        if self.image_size < 1:
            raise ConfigError(f"image size must be at least 1, got {self.image_size}")
        for name in ("camera_radius", "camera_height"):
            low, high = getattr(self, name)
            if not (math.isfinite(low) and math.isfinite(high) and 0 < low <= high):
                raise ConfigError(f"{name} must be a finite range with 0 < low <= high, "
                                  f"got {(low, high)}")
        if self.min_points < 1:
            raise ConfigError(f"min_points must be at least 1, got {self.min_points}")
        if self.object_count[0] < 0 or self.object_count[0] > self.object_count[1]:
            raise ConfigError("invalid object count range")
        if not self.catalog:
            if self.scene_type not in SCENE_TYPE_CATALOGS:
                raise ConfigError(f"unknown scene type {self.scene_type!r}")
            object.__setattr__(self, "catalog", SCENE_TYPE_CATALOGS[self.scene_type])
        if self.object_count[1] > len(self.catalog):
            raise ConfigError("object count range exceeds catalog size")


@dataclass
class View:
    """One posed RGB + depth observation."""

    image: np.ndarray
    depth: np.ndarray
    intrinsics: CameraIntrinsics
    pose: CameraPose

    def __post_init__(self):
        self.image = np.ascontiguousarray(np.asarray(self.image, dtype=np.float64))
        self.depth = np.ascontiguousarray(np.asarray(self.depth, dtype=np.float64))
        if self.image.ndim != 3 or self.image.shape[2] != 3:
            raise ContractError(f"image must be HxWx3, got {self.image.shape}")
        if self.depth.shape != self.image.shape[:2]:
            raise ContractError("depth is not pixel-aligned with the image")
        if self.depth.size == 0:
            raise ContractError(f"rasters need a nonzero height and width, got {self.depth.shape}")
        if not (np.isfinite(self.image).all() and np.isfinite(self.depth).all()):
            raise DegenerateInputError("image and depth values must be finite")
        if np.any(self.depth < 0):
            raise ContractError("depth must be nonnegative")


@dataclass
class Scene:
    scene_id: str
    views: list[View]
    objects: list[ObjectAnnotation]
    scene_type: str
    scene_caption: str
    view_captions: list[str]

    def __post_init__(self):
        if len(self.views) < 2:
            raise ContractError("a scene needs at least two views")
        if len(self.view_captions) != len(self.views):
            raise ContractError("one caption per view required")
        sizes = sorted({v.depth.shape for v in self.views})
        if len(sizes) > 1:
            raise ContractError(f"views differ in image size: {sizes}")

    def pointmaps(self) -> tuple[np.ndarray, np.ndarray]:
        """Every view's pointmap as ``back_project`` returns it, in one batched pass.

        Points (V, H, W, 3) and validity (V, H, W).  Recomputed on each call
        by design: keeping them would hold every view's points for as long
        as the scene lives (about 16 MB for the 640 views of a default
        40-scene evaluation).
        """
        return back_project(
            np.array([v.depth for v in self.views]),
            [v.intrinsics for v in self.views], [v.pose for v in self.views],
        )


# ---------------------------------------------------------------------------
# generation


def _article(word: str) -> str:
    return "an" if word[0] in "aeiou" else "a"


def _noun(entry_color: str, category: str) -> str:
    return f"{entry_color} {category}"


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of two 3-vectors, with the float ops it uses but without its overhead."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _look_at_pose(eye: np.ndarray, target: np.ndarray) -> CameraPose:
    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm < 1e-9:
        raise GenerationError("camera eye coincides with its target")
    z_axis = forward / norm
    up = np.array([0.0, 0.0, 1.0])
    x_axis = _cross(z_axis, up)
    x_norm = np.linalg.norm(x_axis)
    if x_norm < 1e-9:
        raise GenerationError("camera looks straight along the world up axis")
    x_axis /= x_norm
    y_axis = _cross(z_axis, x_axis)
    rotation = np.stack([x_axis, y_axis, z_axis], axis=1)
    return CameraPose(rotation=rotation, translation=eye)


def _place_objects(spec: SceneSpec, rng, seed: int):
    count = int(rng.integers(spec.object_count[0], spec.object_count[1] + 1))
    order = rng.permutation(len(spec.catalog))[:count]
    placed: list[tuple[CatalogEntry, np.ndarray, np.ndarray]] = []
    half = spec.room_extent / 2.0
    margin = 0.1
    for idx in order:
        entry = spec.catalog[idx]
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
    eyes: np.ndarray,
    rotations: np.ndarray,
    intr: CameraIntrinsics,
    n: int,
    boxes: list[tuple[np.ndarray, np.ndarray]],
    colors: list[tuple[float, float, float]],
    room_half: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-hit ray cast of the boxes and the floor from V cameras at once, flat shading.

    ``eyes`` (V, 3) are the camera centres and ``rotations`` (V, 3, 3) their
    camera-to-world rotations.  Returns images (V, n, n, 3) and depths
    (V, n, n); a ray that hits nothing is black at depth 0.  Every view is
    bitwise equal to casting it alone: the float ops per ray are the same,
    and the ray directions come from one stacked product, a BLAS call per
    view.  The ray directions and their zero-safe copy hold V·n·n·3 float64
    values each; the slab test works one axis at a time in five V·n·n
    float64 buffers written in place.
    """
    v_count = len(eyes)
    u = np.arange(n, dtype=np.float64)[None, :].repeat(n, axis=0)
    v = np.arange(n, dtype=np.float64)[:, None].repeat(n, axis=1)
    dirs_cam = np.stack([(u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy, np.ones((n, n))], axis=-1)
    # (3, V, n*n): one contiguous plane per world axis.
    dirs = np.matmul(dirs_cam.reshape(-1, 3), rotations.transpose(0, 2, 1)).transpose(2, 0, 1).copy()
    safe_dirs = np.where(dirs == 0.0, 1e-300, dirs)

    # Floor: z = 0 inside the room square.
    ex, ey, ez = eyes.T[:, :, None]
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
        lo_rel, hi_rel = lo - eyes, hi - eyes
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
        others = [(np.linalg.norm(centers[i] - centers[j]), j) for j in range(len(placed)) if j != i]
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


def generate_scene(spec: SceneSpec, seed: int, max_regenerations: int = 25) -> Scene:
    """Generate one scene; regenerate until every object is observable.

    Each rejected layout is logged at DEBUG with the objects no view observes.
    """
    unobserved: list[str] = []
    for attempt in range(max_regenerations):
        scene, unobserved = _generate_once(spec, seed, attempt)
        if scene is not None:
            return scene
        logger.debug("seed %d attempt %d: layout rejected, no view observes %s",
                     seed, attempt, _join(unobserved))
    last = f"; the last left unobserved: {_join(unobserved)}" if unobserved else ""
    raise GenerationError(
        f"no layout with all objects visible after {max_regenerations} attempts (seed {seed}){last}"
    )


def _generate_once(spec: SceneSpec, seed: int, attempt: int) -> tuple[Scene | None, list[str]]:
    """One layout: the scene, or None and the objects that no view observes."""
    rng = np.random.default_rng((spec.seed, seed, attempt))
    placed = _place_objects(spec, rng, seed)
    boxes = [(lo, hi) for _, lo, hi in placed]
    colors = [entry.rgb for entry, _, _ in placed]
    half = spec.room_extent / 2.0

    n = spec.image_size
    intr = CameraIntrinsics(fx=0.8 * n, fy=0.8 * n, cx=(n - 1) / 2.0, cy=(n - 1) / 2.0)
    poses: list[CameraPose] = []
    for i in range(spec.view_count):
        angle = 2.0 * np.pi * i / spec.view_count + rng.uniform(-0.4, 0.4) * 2.0 * np.pi / spec.view_count
        radius = rng.uniform(*spec.camera_radius)
        height = rng.uniform(*spec.camera_height)
        eye = np.array([radius * np.cos(angle), radius * np.sin(angle), height])
        target = np.array([rng.uniform(-0.3, 0.3) * half, rng.uniform(-0.3, 0.3) * half, 0.0])
        poses.append(_look_at_pose(eye, target))
    images, depths = _render_views(
        np.array([p.translation for p in poses]), np.array([p.rotation for p in poses]),
        intr, n, boxes, colors, half,
    )
    views = [View(image=images[i], depth=depths[i], intrinsics=intr, pose=pose)
             for i, pose in enumerate(poses)]

    texts = _referring_texts(placed)
    objects = [
        ObjectAnnotation(object_id=i, aabb_min=lo, aabb_max=hi, referring_text=texts[i],
                         category=entry.category)
        for i, (entry, lo, hi) in enumerate(placed)
    ]

    points, validity = back_project(depths, [intr] * spec.view_count, poses)
    areas = box_counts(points, validity, objects)
    unobserved = [
        _noun(entry.color_name, entry.category)
        for (entry, _, _), best in zip(placed, areas.max(axis=0)) if best < spec.min_points
    ]
    if unobserved:
        return None, unobserved

    view_captions = []
    for vi in range(spec.view_count):
        visible = [
            placed[oi][0]
            for oi in np.argsort(-areas[vi])
            if objects and areas[vi][oi] >= spec.min_points
        ] if objects else []
        view_captions.append(_view_caption(spec.scene_type, visible))

    return Scene(
        scene_id=f"scene_{seed:05d}",
        views=views,
        objects=objects,
        scene_type=spec.scene_type,
        scene_caption=_scene_caption(spec.scene_type, [e for e, _, _ in placed]),
        view_captions=view_captions,
    ), []


# ---------------------------------------------------------------------------
# on-disk format


def _write_raster(path: Path, array: np.ndarray) -> None:
    array = np.asarray(array, dtype=np.float64)
    with atomic_write(path) as fh:
        fh.write(RASTER_MAGIC)
        fh.write(struct.pack("<B", array.ndim))
        for dim in array.shape:
            fh.write(struct.pack("<I", dim))
        fh.write(array.astype("<f8").tobytes())


def _read_raster(path: Path) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except (FileNotFoundError, IsADirectoryError) as exc:
        raise FormatError(f"unreadable raster {path}: {exc.strerror}") from exc
    if len(blob) < 5 or blob[:4] != RASTER_MAGIC:
        raise FormatError(f"bad raster magic in {path}")
    rank = blob[4]
    header_end = 5 + 4 * rank
    if len(blob) < header_end:
        raise FormatError(f"truncated raster header in {path}")
    dims = struct.unpack(f"<{rank}I", blob[5:header_end])
    payload = blob[header_end:]
    if len(payload) != 8 * math.prod(dims):
        raise FormatError(f"truncated raster payload in {path}")
    try:
        return np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
    except ValueError as exc:  # a rank beyond numpy's limit
        raise FormatError(f"raster shape {dims} in {path}: {exc}") from exc


def _floats(values) -> str:
    return " ".join(repr(float(x)) for x in np.asarray(values).ravel())


def _check_record_text(text: str, what: str) -> None:
    bad = sorted({c for c in text if c in _RECORD_BREAKS})
    if bad:
        raise ContractError(f"{what} {text!r} contains {bad!r}, which meta.txt cannot hold")


def save_scene(scene: Scene, directory) -> None:
    """Write one scene directory: per-view binary rasters, then meta.txt.

    Every file is written atomically.  Texts that would break a meta.txt
    record (a tab or a line break) are rejected before anything is written.
    """
    for what, text in [("scene id", scene.scene_id), ("scene type", scene.scene_type),
                       ("scene caption", scene.scene_caption)]:
        _check_record_text(text, what)
    for caption in scene.view_captions:
        _check_record_text(caption, "view caption")
    for obj in scene.objects:
        _check_record_text(obj.category, "object category")
        _check_record_text(obj.referring_text, "referring text")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [
        f"scene_id={scene.scene_id}",
        f"scene_type={scene.scene_type}",
        f"scene_caption={scene.scene_caption}",
        f"num_views={len(scene.views)}",
        f"num_objects={len(scene.objects)}",
    ]
    for i, view in enumerate(scene.views):
        intr = view.intrinsics
        cam = _floats([intr.fx, intr.fy, intr.cx, intr.cy])
        pose = _floats(view.pose.rotation) + " " + _floats(view.pose.translation)
        lines.append(f"view={i}\t{cam}\t{pose}")
        lines.append(f"view_caption={i}\t{scene.view_captions[i]}")
    for obj in scene.objects:
        box = _floats(obj.aabb_min) + " " + _floats(obj.aabb_max)
        lines.append(f"object={obj.object_id}\t{obj.category}\t{box}\t{obj.referring_text}")
    for i, view in enumerate(scene.views):
        _write_raster(directory / f"view_{i:03d}_image.upmv", view.image)
        _write_raster(directory / f"view_{i:03d}_depth.upmv", view.depth)
    with atomic_write(directory / "meta.txt") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def _record_fields(value: str, count: int, key: str, meta_path: Path) -> list[str]:
    fields = value.split("\t")
    if len(fields) != count:
        raise FormatError(f"{key} record has {len(fields)} tab-separated fields, "
                          f"expected {count}, in {meta_path}")
    return fields


def _record_int(text: str, what: str, meta_path: Path) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise FormatError(f"{what} {text!r} is not an integer in {meta_path}") from exc


def _record_floats(text: str, count: int, what: str, meta_path: Path) -> list[float]:
    try:
        values = [float(x) for x in text.split()]
    except ValueError as exc:
        raise FormatError(f"non-numeric {what} value in {text!r} in {meta_path}") from exc
    if len(values) != count:
        raise FormatError(f"{what} has {len(values)} values, expected {count}, in {meta_path}")
    return values


def _store_once(records: dict, idx: int, value, key: str, meta_path: Path) -> None:
    if idx in records:
        raise FormatError(f"duplicate {key}={idx} record in {meta_path}")
    records[idx] = value


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
    unreadable file, metadata that is not UTF-8 or breaks a record, and
    rasters or records that no valid scene could hold.
    """
    directory = Path(directory)
    meta_path = directory / "meta.txt"
    meta_text = read_utf8(meta_path, "metadata file")

    scalars: dict[str, str] = {}
    cameras: dict[int, tuple[CameraIntrinsics, CameraPose]] = {}
    captions: dict[int, str] = {}
    objects: dict[int, ObjectAnnotation] = {}
    for raw in meta_text.splitlines():
        if not raw.strip():
            continue
        key, _, value = raw.partition("=")
        if key == "view":
            idx_str, cam_str, pose_str = _record_fields(value, 3, key, meta_path)
            idx = _record_int(idx_str, "view index", meta_path)
            cam = _record_floats(cam_str, 4, "camera", meta_path)
            pose_vals = _record_floats(pose_str, 12, "pose", meta_path)
            try:
                intr = CameraIntrinsics(*cam)
                pose = CameraPose(
                    rotation=np.array(pose_vals[:9]).reshape(3, 3),
                    translation=np.array(pose_vals[9:12]),
                )
            except ContractError as exc:
                raise FormatError(f"invalid camera for view {idx} in {meta_path}: {exc}") from exc
            _store_once(cameras, idx, (intr, pose), key, meta_path)
        elif key == "view_caption":
            idx_str, text = _record_fields(value, 2, key, meta_path)
            idx = _record_int(idx_str, "view caption index", meta_path)
            _store_once(captions, idx, text, key, meta_path)
        elif key == "object":
            obj_id, category, box_str, text = _record_fields(value, 4, key, meta_path)
            idx = _record_int(obj_id, "object id", meta_path)
            box = _record_floats(box_str, 6, "box", meta_path)
            try:
                annotation = ObjectAnnotation(object_id=idx, aabb_min=np.array(box[:3]),
                                              aabb_max=np.array(box[3:6]),
                                              referring_text=text, category=category)
            except ContractError as exc:
                raise FormatError(f"invalid box for object {idx} in {meta_path}: {exc}") from exc
            _store_once(objects, idx, annotation, key, meta_path)
        elif key in ("scene_id", "scene_type", "scene_caption", "num_views", "num_objects"):
            scalars[key] = value
        else:
            logger.warning("ignoring unknown metadata key %r in %s", key, meta_path)

    if "num_views" not in scalars:
        raise FormatError(f"metadata missing required key 'num_views' in {meta_path}")
    n_views = _record_int(scalars["num_views"], "num_views", meta_path)
    if n_views < 2:
        raise FormatError(f"num_views={n_views} in {meta_path}: a scene needs at least two views")
    for key, records in (("view", cameras), ("view_caption", captions)):
        stray = sorted(set(records) - set(range(n_views)))
        if stray:
            raise FormatError(f"{key} records for views {stray} outside num_views={n_views} "
                              f"in {meta_path}")

    views = []
    for i in range(n_views):
        if i not in cameras:
            raise FormatError(f"metadata missing camera record for view {i} in {meta_path}")
        if i not in captions:
            raise FormatError(f"metadata missing view_caption record for view {i} in {meta_path}")
        image = _read_raster(directory / f"view_{i:03d}_image.upmv")
        depth = _read_raster(directory / f"view_{i:03d}_depth.upmv")
        intr, pose = cameras[i]
        try:
            views.append(View(image=image, depth=depth, intrinsics=intr, pose=pose))
        except (ContractError, DegenerateInputError) as exc:
            raise FormatError(f"invalid rasters for view {i} in {directory}: {exc}") from exc

    try:
        return Scene(
            scene_id=scalars.get("scene_id", directory.name),
            views=views,
            objects=list(objects.values()),
            scene_type=scalars.get("scene_type", ""),
            scene_caption=scalars.get("scene_caption", ""),
            view_captions=[captions[i] for i in range(n_views)],
        )
    except ContractError as exc:
        raise FormatError(f"invalid scene in {directory}: {exc}") from exc


# ---------------------------------------------------------------------------
# dataset manifest


def split_dataset(scene_ids: list[str], seed: int) -> list[tuple[str, str]]:
    """Assign 80/10/10 train/val/test tags by seeded shuffle.

    Both holdout splits take floor(0.1 * n); the remainder trains.
    """
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


def write_manifest(path, entries: list[tuple[str, str]]) -> None:
    lines = [f"{split}\t{scene_dir}" for split, scene_dir in entries]
    with atomic_write(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def load_manifest(path) -> dict[str, list[str]]:
    """Scene directories by split; a malformed manifest raises ``FormatError``."""
    path = Path(path)
    splits: dict[str, list[str]] = {"train": [], "val": [], "test": []}
    for lineno, raw in enumerate(read_utf8(path, "manifest").splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            split, scene_dir = raw.split("\t")
        except ValueError as exc:
            raise FormatError(f"malformed manifest line {lineno} in {path}") from exc
        if split not in splits:
            raise FormatError(f"unknown split {split!r} on manifest line {lineno} in {path}")
        splits[split].append(scene_dir)
    return splits


def load_split_scenes(manifest_path, split: str) -> list[Scene]:
    manifest_path = Path(manifest_path)
    splits = load_manifest(manifest_path)
    base = manifest_path.parent
    return [load_scene(base / name) for name in splits[split]]
