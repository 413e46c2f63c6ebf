"""Tests for synthetic scene generation and the on-disk scene format."""

import hashlib
import logging
from pathlib import Path

import numpy as np
import pytest

from upm import atomic
from upm import data as D
from upm import encoder as enc
from upm import evaluation as ev
from upm.errors import ConfigError, ContractError, DegenerateInputError, FormatError, GenerationError
from upm.geometry import (
    CameraIntrinsics,
    CameraPose,
    ObjectAnnotation,
    back_project,
    box_counts,
    pairwise_chamfer,
)


def aabb_surface_distance(points, lo, hi):
    below = np.maximum(lo - points, 0.0)
    above = np.maximum(points - hi, 0.0)
    outside = np.sqrt((below * below + above * above).sum(axis=1))
    inside_margin = np.minimum(points - lo, hi - points).min(axis=1)
    return np.where(outside > 0.0, outside, inside_margin)


def render_depth_consistency(scene):
    """Max distance from any back-projected point to a rendered surface.

    Every valid pixel must land on the floor plane or on some object's
    AABB surface; returns the worst offender in meters.
    """
    worst = 0.0
    for pts, valid in zip(*scene.pointmaps()):
        pts = pts[valid]
        if len(pts) == 0:
            continue
        best = np.abs(pts[:, 2])  # floor plane z=0
        for obj in scene.objects:
            best = np.minimum(best, aabb_surface_distance(pts, obj.aabb_min, obj.aabb_max))
        worst = max(worst, float(best.max()))
    return worst


def oracle_render_view(eye, pose, intr, image_size, boxes, colors, room_half):
    """One view's nearest-hit ray cast, one camera at a time: the oracle of ``_render_views``."""
    n = image_size
    u = np.arange(n, dtype=np.float64)[None, :].repeat(n, axis=0)
    v = np.arange(n, dtype=np.float64)[:, None].repeat(n, axis=1)
    dirs_cam = np.stack([(u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy, np.ones((n, n))], axis=-1)
    dirs = dirs_cam.reshape(-1, 3) @ pose.rotation.T
    safe_dirs = np.where(dirs == 0.0, 1e-300, dirs)

    depth = np.full(n * n, np.inf)
    color = np.zeros((n * n, 3))

    s_floor = -eye[2] / safe_dirs[:, 2]
    fx = eye[0] + s_floor * dirs[:, 0]
    fy = eye[1] + s_floor * dirs[:, 1]
    floor_hit = (s_floor > 1e-9) & (np.abs(fx) <= room_half) & (np.abs(fy) <= room_half)
    update = floor_hit & (s_floor < depth)
    depth[update] = s_floor[update]
    color[update] = D.FLOOR_COLOR

    for (lo, hi), rgb in zip(boxes, colors):
        t1 = (lo - eye) / safe_dirs
        t2 = (hi - eye) / safe_dirs
        t_near = np.minimum(t1, t2).max(axis=1)
        t_far = np.maximum(t1, t2).min(axis=1)
        hit = (t_far >= t_near) & (t_near > 1e-9)
        update = hit & (t_near < depth)
        depth[update] = t_near[update]
        color[update] = rgb

    invalid = ~np.isfinite(depth)
    depth[invalid] = 0.0
    return color.reshape(n, n, 3), depth.reshape(n, n)


def small_spec(**overrides):
    defaults = dict(scene_type="bedroom", view_count=6, image_size=24)
    defaults.update(overrides)
    return D.SceneSpec(**defaults)


def scenes_equal(a: D.Scene, b: D.Scene) -> bool:
    if (a.scene_id, a.scene_type, a.scene_caption, a.view_captions) != (
        b.scene_id,
        b.scene_type,
        b.scene_caption,
        b.view_captions,
    ):
        return False
    if len(a.views) != len(b.views) or len(a.objects) != len(b.objects):
        return False
    for va, vb in zip(a.views, b.views):
        if not (
            np.array_equal(va.image, vb.image)
            and np.array_equal(va.depth, vb.depth)
            and va.intrinsics == vb.intrinsics
            and np.array_equal(va.pose.rotation, vb.pose.rotation)
            and np.array_equal(va.pose.translation, vb.pose.translation)
        ):
            return False
    for oa, ob in zip(a.objects, b.objects):
        if not (
            oa.object_id == ob.object_id
            and oa.category == ob.category
            and oa.referring_text == ob.referring_text
            and np.array_equal(oa.aabb_min, ob.aabb_min)
            and np.array_equal(oa.aabb_max, ob.aabb_max)
        ):
            return False
    return True


def _bits(array) -> bytes:
    array = np.asarray(array)
    return repr((array.dtype.str, array.shape)).encode() + array.tobytes()


def scene_digest(scene: D.Scene) -> str:
    """SHA-256 over every stored field of a scene: equal digests mean bitwise-equal scenes."""
    h = hashlib.sha256()
    h.update(repr((scene.scene_id, scene.scene_type, scene.scene_caption,
                   list(scene.view_captions))).encode())
    for view in scene.views:
        intr = view.intrinsics
        for part in (view.image, view.depth, view.pose.rotation, view.pose.translation,
                     np.array([intr.fx, intr.fy, intr.cx, intr.cy])):
            h.update(_bits(part))
    for ob in scene.objects:
        h.update(repr((ob.object_id, ob.category, ob.referring_text)).encode())
        h.update(_bits(ob.aabb_min) + _bits(ob.aabb_max))
    return h.hexdigest()


# (spec overrides, seed, SHA-256 of the scene): every scene type at the
# default spec; a seed whose first layout is rejected (library seed 2); an
# object-free spec; and non-default view counts and image sizes, one odd.
PINNED_SCENES = [
    (dict(scene_type="bedroom"), 8, "3ccf4883844f934b570fca87d829f74cde22e607cec5eb37030f9acea4175b19"),
    (dict(scene_type="office"), 4, "67e7d2de4c76c34252f437e27d937a4559c7b1ec6fbc1ed956e49f0ce9d1a86f"),
    (dict(scene_type="kitchen"), 2, "351b08a62e45839088da197a65335c7484250e2fe782f81e5f6b598aa5da6434"),
    (dict(scene_type="library"), 0, "090a435e6186c9c08f33f7162a2d0549f612cf362cf4d6c10f033bf9a2ac9ff0"),
    (dict(scene_type="library"), 2, "4b0aef5b17a6011cec1837eee2a88230ec5cabd92b0dd2248a1e3efbc157d398"),
    (dict(scene_type="office", object_count=(0, 0)), 5, "58e8af485381d5ad33b830e308ba569aa545a070236bbd7526a75893824ef31e"),
    (dict(scene_type="kitchen", view_count=5, image_size=17), 3, "1024a1ee45743a3b230889cc4c1fea107d88b6bded0dc6defb271f39fec8e443"),
    (dict(scene_type="bedroom", view_count=3, image_size=8, object_count=(1, 2)), 9, "60e68f7f7877fa9f1e3fc4dedf97137cc7557a72d6fa83e1fda5cdc3f6a4f929"),
    (dict(scene_type="library", view_count=7, image_size=24), 6, "becb2ce9700eebd7ac523b5c8a11174892c375a5e9de3f927b5e36233104aa3d"),
]


class TestSceneSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            D.SceneSpec(scene_type="bedroom", room_extent=0.0)
        with pytest.raises(ConfigError):
            D.SceneSpec(scene_type="bedroom", view_count=1)
        with pytest.raises(ConfigError):
            D.SceneSpec(scene_type="spaceship")
        with pytest.raises(ConfigError):
            D.SceneSpec(scene_type="bedroom", object_count=(3, 2))

    @pytest.mark.parametrize("overrides", [
        dict(image_size=0),
        dict(room_extent=float("nan")),
        dict(room_extent=float("inf")),
        dict(room_extent=-2.0),
        dict(camera_radius=(2.5, 1.7)),
        dict(camera_radius=(1.7, float("inf"))),
        dict(camera_radius=(float("nan"), 2.5)),
        dict(camera_radius=(0.0, 2.5)),
        dict(camera_height=(2.4, 1.5)),
        dict(camera_height=(1.5, float("nan"))),
        dict(camera_height=(-1.0, 2.4)),
        dict(camera_height=(0.0, 2.4)),
        dict(min_points=0),
    ], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
    def test_rejects_degenerate_geometry(self, overrides):
        with pytest.raises(ConfigError):
            D.SceneSpec(scene_type="bedroom", **overrides)

    def test_four_scene_types_available(self):
        assert len(D.SCENE_TYPES) == 4


class TestGenerateScene:
    def test_deterministic(self):
        spec = small_spec()
        a = D.generate_scene(spec, seed=7)
        b = D.generate_scene(spec, seed=7)
        assert scenes_equal(a, b)

    def test_different_seeds_differ(self):
        spec = small_spec()
        a = D.generate_scene(spec, seed=1)
        b = D.generate_scene(spec, seed=2)
        assert not scenes_equal(a, b)

    def test_zero_objects_gives_floor_only_scene(self):
        scene = D.generate_scene(small_spec(object_count=(0, 0)), seed=3)
        assert scene.objects == []
        assert scene.scene_caption == "an empty bedroom"
        colors = {tuple(c) for view in scene.views for c in view.image.reshape(-1, 3)}
        assert colors <= {D.FLOOR_COLOR, (0.0, 0.0, 0.0)}

    def test_image_and_depth_ranges(self):
        scene = D.generate_scene(small_spec(), seed=4)
        for view in scene.views:
            assert view.image.min() >= 0.0 and view.image.max() <= 1.0
            assert view.depth.min() >= 0.0

    def test_every_object_visible_somewhere(self):
        for seed in range(5):
            for scene_type in ("office", "kitchen"):
                scene = D.generate_scene(small_spec(scene_type=scene_type), seed=seed)
                areas = box_counts(*scene.pointmaps(), scene.objects)
                for obj, best in zip(scene.objects, areas.max(axis=0)):
                    assert best >= D.DEFAULT_MIN_POINTS, (scene_type, seed, obj.category)

    def test_referring_texts_unique_per_object(self):
        scene = D.generate_scene(small_spec(), seed=5)
        texts = [o.referring_text for o in scene.objects]
        assert len(set(texts)) == len(texts)

    def test_view_captions_match_visibility(self):
        spec = small_spec()
        scene = D.generate_scene(spec, seed=6)
        areas = box_counts(*scene.pointmaps(), scene.objects)
        for vi, caption in enumerate(scene.view_captions):
            for oi, obj in enumerate(scene.objects):
                noun = obj.referring_text.split(" near ")[0].removeprefix("the ")
                if areas[vi, oi] >= spec.min_points:
                    assert noun in caption
                else:
                    assert noun not in caption

    def test_impossible_layout_raises(self):
        huge = (1.6, 1.6, 0.5)
        catalog = tuple(
            D.CatalogEntry("crate", color, huge, huge) for color in ("red", "green", "blue")
        )
        spec = D.SceneSpec(
            scene_type="bedroom",
            catalog=catalog,
            room_extent=2.4,
            object_count=(3, 3),
            view_count=2,
            image_size=8,
        )
        with pytest.raises(GenerationError, match="seed"):
            D.generate_scene(spec, seed=0)

    def test_exhausted_regeneration_raises(self):
        with pytest.raises(GenerationError):
            D.generate_scene(small_spec(), seed=0, max_regenerations=0)

    def test_rejected_layouts_logged_with_unobserved_objects(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="upm.data"):
            scene = D.generate_scene(D.SceneSpec(scene_type="bedroom"), seed=0)
        assert [r.levelno for r in caplog.records] == [logging.DEBUG] * 2
        assert [r.getMessage() for r in caplog.records] == [
            "seed 0 attempt 0: layout rejected, no view observes teal wardrobe, green nightstand "
            "and yellow nightstand",
            "seed 0 attempt 1: layout rejected, no view observes green nightstand",
        ]
        assert [o.category for o in scene.objects] == ["bed", "lamp"]

    def test_generation_error_names_last_unobserved_objects(self, caplog):
        spec = small_spec(view_count=2, image_size=8, object_count=(1, 1), min_points=65)
        with caplog.at_level(logging.DEBUG, logger="upm.data"):
            with pytest.raises(GenerationError) as info:
                D.generate_scene(spec, seed=0, max_regenerations=3)
        messages = [r.getMessage() for r in caplog.records]
        assert [m.split(":")[0] for m in messages] == [f"seed 0 attempt {a}" for a in range(3)]
        last_object = messages[-1].rsplit("no view observes ", 1)[1]
        assert str(info.value).endswith(f"the last left unobserved: {last_object}")


def oracle_box_counts(points, validity, objects):
    """(V, O) box counts, one view and one object at a time over the view's valid points."""
    counts = np.zeros((len(points), len(objects)), dtype=np.int64)
    for v, (pts, valid) in enumerate(zip(points, validity)):
        for o, obj in enumerate(objects):
            inside = (pts[valid] >= obj.aabb_min) & (pts[valid] <= obj.aabb_max)
            counts[v, o] = inside.all(axis=1).sum()
    return counts


class TestGenerationVisibility:
    def test_counts_equal_visible_areas_of_the_scene(self, monkeypatch):
        # _generate_once counts straight from its batch arrays; the last
        # count of a returned scene must equal counting each view's valid
        # points one view at a time.
        calls, box_counts = [], D.box_counts

        def recording_box_counts(*args):
            calls.append(box_counts(*args))
            return calls[-1]

        monkeypatch.setattr(D, "box_counts", recording_box_counts)
        cases = [(D.SceneSpec(scene_type="library"), 2), (small_spec(object_count=(0, 0)), 5),
                 (small_spec(view_count=5, image_size=17), 3)]
        cases += [(small_spec(scene_type=t), seed) for t in D.SCENE_TYPES for seed in (0, 1)]
        for spec, seed in cases:
            scene = D.generate_scene(spec, seed)
            expected = oracle_box_counts(*scene.pointmaps(), scene.objects)
            assert calls[-1].dtype == expected.dtype and np.array_equal(calls[-1], expected)
        assert len(calls) > len(cases)  # library seed 2 rejects its first layout


class TestGenerationPinned:
    @pytest.mark.parametrize("overrides, seed, digest", PINNED_SCENES)
    def test_scene_bytes_pinned(self, overrides, seed, digest):
        assert scene_digest(D.generate_scene(D.SceneSpec(**overrides), seed)) == digest

    def test_set_includes_a_rejected_first_layout(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="upm.data"):
            D.generate_scene(D.SceneSpec(scene_type="library"), seed=2)
        assert "attempt 0: layout rejected" in caplog.text


def ring_intrinsics(n):
    return CameraIntrinsics(fx=0.8 * n, fy=0.8 * n, cx=(n - 1) / 2.0, cy=(n - 1) / 2.0)


def random_boxes(rng, count):
    boxes = []
    for _ in range(count):
        lo = np.append(rng.uniform(-2.0, 1.5, size=2), 0.0)
        boxes.append((lo, lo + rng.uniform(0.2, 1.2, size=3)))
    colors = [tuple(rng.uniform(0.0, 1.0, size=3)) for _ in boxes]
    return boxes, colors


def look_at_poses(rng, count, room_half=3.0):
    poses = []
    for _ in range(count):
        eye = np.append(rng.uniform(-room_half, room_half, size=2), rng.uniform(0.2, 3.0))
        target = np.append(rng.uniform(-1.0, 1.0, size=2), rng.uniform(0.0, 0.5))
        poses.append(D._look_at_pose(eye, target))
    return poses


# Camera-to-world rotations that keep exact zeros in the ray directions:
# looking straight down, and looking horizontally along +x.
DOWN = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
ALONG_X = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


class TestRenderConsistency:
    def ring_pointmaps(self, box_lo, box_hi, n_views=8, image_size=32):
        intr = ring_intrinsics(image_size)
        angles = 2 * np.pi * np.arange(n_views) / n_views
        poses = [D._look_at_pose(np.array([2.2 * np.cos(a), 2.2 * np.sin(a), 1.8]), np.zeros(3))
                 for a in angles]
        _, depths = D._render_views(
            np.array([p.translation for p in poses]), np.array([p.rotation for p in poses]),
            intr, image_size, [(box_lo, box_hi)], [(1.0, 0.0, 0.0)], 3.0,
        )
        return back_project(depths, [intr] * n_views, poses)

    def test_centered_box_visible_from_every_ring_view(self):
        lo, hi = np.array([-0.5, -0.5, 0.0]), np.array([0.5, 0.5, 0.6])
        obj = ObjectAnnotation(0, lo, hi, "the box", "box")
        assert (box_counts(*self.ring_pointmaps(lo, hi), [obj]) > 0).all()

    def test_floor_pixels_back_project_to_zero_height(self):
        scene = D.generate_scene(small_spec(object_count=(0, 0)), seed=8)
        points, validity = scene.pointmaps()
        assert np.abs(points[validity][:, 2]).max() <= 1e-9

    def test_box_top_pixels_on_max_z_plane(self):
        lo, hi = np.array([-0.5, -0.5, 0.0]), np.array([0.5, 0.5, 0.6])
        found = 0
        for pts, valid in zip(*self.ring_pointmaps(lo, hi)):
            pts = pts[valid]
            interior = (
                np.logical_and(pts[:, :2] > lo[:2] + 1e-6, pts[:, :2] < hi[:2] - 1e-6).all(axis=1)
                & (pts[:, 2] > 1e-6)
            )
            top = pts[interior]
            if len(top):
                found += len(top)
                np.testing.assert_allclose(top[:, 2], 0.6, atol=1e-9)
        assert found > 0

    def test_cross_view_box_top_overlap(self):
        lo, hi = np.array([-0.5, -0.5, 0.0]), np.array([0.5, 0.5, 0.6])
        top_slab = ObjectAnnotation(0, [-0.5, -0.5, 0.59], [0.5, 0.5, 0.61], "t", "box")
        points, validity = self.ring_pointmaps(lo, hi)
        points, validity = points[[0, 1, 4]], validity[[0, 1, 4]]
        # Keep only the pixels inside the top slab.
        validity &= ((points >= top_slab.aabb_min) & (points <= top_slab.aabb_max)).all(axis=-1)
        voxel_tolerance = 0.2**2
        cd = pairwise_chamfer(points, validity, subsample=None)
        assert cd[0, 1] < voxel_tolerance
        assert cd[0, 2] < voxel_tolerance

    def test_scene_level_consistency_check(self):
        scene = D.generate_scene(small_spec(), seed=9)
        assert render_depth_consistency(scene) <= 1e-6


class TestRenderViews:
    def assert_matches_oracle(self, poses, intr, n, boxes, colors, room_half=3.0):
        eyes = np.array([p.translation for p in poses])
        images, depths = D._render_views(
            eyes, np.array([p.rotation for p in poses]), intr, n, boxes, colors, room_half)
        assert images.shape == (len(poses), n, n, 3) and depths.shape == (len(poses), n, n)
        for pose, image, depth in zip(poses, images, depths):
            want_image, want_depth = oracle_render_view(
                pose.translation, pose, intr, n, boxes, colors, room_half)
            assert image.tobytes() == want_image.tobytes()
            assert depth.tobytes() == want_depth.tobytes()
        return images, depths

    @pytest.mark.parametrize("n", [8, 24, 32, 17])
    def test_random_cameras_match_oracle(self, n):
        rng = np.random.default_rng(n)
        boxes, colors = random_boxes(rng, 4)
        images, depths = self.assert_matches_oracle(look_at_poses(rng, 12), ring_intrinsics(n),
                                                    n, boxes, colors)
        drawn = {tuple(c) for c in images.reshape(-1, 3)}
        assert D.FLOOR_COLOR in drawn and drawn & set(colors) and (depths > 0).any()

    @pytest.mark.parametrize("n", [8, 17])
    def test_zero_direction_components_match_oracle(self, n):
        # Integer principal points put exact zeros in the camera rays.
        intr = CameraIntrinsics(fx=0.8 * n, fy=0.8 * n, cx=float(n // 2), cy=float(n // 3))
        boxes, colors = random_boxes(np.random.default_rng(5), 3)
        poses = [CameraPose(rotation=DOWN, translation=np.array([0.3, -0.2, 2.5])),
                 CameraPose(rotation=ALONG_X, translation=np.array([-2.5, 0.1, 0.4])),
                 CameraPose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 1.0]))]
        self.assert_matches_oracle(poses, intr, n, boxes, colors)

    def test_eye_on_box_face_planes_matches_oracle(self):
        # Zero slab distances, signed either way; the downward cameras also
        # cast rays inside a face plane, where the distance is 0 / 0 unguarded.
        lo, hi = np.array([-0.5, -0.4, 0.0]), np.array([0.6, 0.5, 0.7])
        eyes = [np.array([lo[0], 2.0, 1.2]), np.array([1.5, hi[1], 0.9]),
                np.array([-1.5, -1.5, hi[2]]), np.array([hi[0], lo[1], 1.5])]
        poses = [D._look_at_pose(eye, np.array([0.05, 0.05, 0.0])) for eye in eyes]
        poses += [CameraPose(rotation=DOWN, translation=np.array([0.0, 0.0, hi[2]])),
                  CameraPose(rotation=DOWN, translation=np.array([lo[0], 0.0, 2.0])),
                  CameraPose(rotation=DOWN, translation=np.array([0.1, hi[1], 1.6]))]
        intr = CameraIntrinsics(fx=12.8, fy=12.8, cx=8.0, cy=8.0)
        images, _ = self.assert_matches_oracle(poses, intr, 16, [(lo, hi)], [(0.9, 0.1, 0.1)])
        assert tuple(images[5, 8, 8]) == (0.9, 0.1, 0.1)

    def test_no_boxes_matches_oracle(self):
        poses = look_at_poses(np.random.default_rng(6), 5)
        images, _ = self.assert_matches_oracle(poses, ring_intrinsics(24), 24, [], [])
        assert {tuple(c) for c in images.reshape(-1, 3)} <= {D.FLOOR_COLOR, (0.0, 0.0, 0.0)}

    def test_overlapping_boxes_match_oracle(self):
        boxes = [(np.array([-0.6, -0.6, 0.0]), np.array([0.6, 0.6, 0.5])),
                 (np.array([-0.3, -0.3, 0.0]), np.array([0.9, 0.9, 0.9])),
                 (np.array([-0.3, -0.3, 0.0]), np.array([0.9, 0.9, 0.9]))]
        colors = [(0.8, 0.2, 0.1), (0.1, 0.7, 0.2), (0.2, 0.2, 0.9)]
        images, _ = self.assert_matches_oracle(
            look_at_poses(np.random.default_rng(7), 8), ring_intrinsics(32), 32, boxes, colors)
        assert colors[2] not in {tuple(c) for c in images.reshape(-1, 3)}

    def test_one_view_batch_matches_oracle(self):
        rng = np.random.default_rng(8)
        boxes, colors = random_boxes(rng, 2)
        self.assert_matches_oracle(look_at_poses(rng, 1), ring_intrinsics(24), 24, boxes, colors)


class TestCross:
    def test_bytes_equal_numpy_cross(self):
        rng = np.random.default_rng(9)
        vectors = rng.normal(size=(400, 3))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        axes = np.vstack([np.eye(3), -np.eye(3), [[0.6, -0.8, 0.0], [-0.6, 0.0, 0.8]]])
        vectors = np.vstack([vectors, axes])
        for a, b in zip(vectors, np.roll(vectors, 1, axis=0)):
            assert D._cross(a, b).tobytes() == np.cross(a, b).tobytes()
        for a in vectors:
            for b in axes:
                assert D._cross(a, b).tobytes() == np.cross(a, b).tobytes()


class TestSceneIO:
    def test_round_trip(self, tmp_path):
        scene = D.generate_scene(small_spec(), seed=10)
        D.save_scene(scene, tmp_path / "scene")
        loaded = D.load_scene(tmp_path / "scene")
        assert scenes_equal(scene, loaded)

    def test_truncated_raster_rejected(self, tmp_path):
        scene = D.generate_scene(small_spec(), seed=11)
        D.save_scene(scene, tmp_path / "scene")
        victim = tmp_path / "scene" / "view_000_depth.upmv"
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(FormatError, match="view_000_depth"):
            D.load_scene(tmp_path / "scene")

    def test_every_raster_truncation_and_byte_flip_fails_typed_or_loads_intact(self, tmp_path):
        path = tmp_path / "raster.upmv"
        D._write_raster(path, np.arange(12.0).reshape(2, 2, 3))
        blob = path.read_bytes()
        variants = [blob[:end] for end in range(len(blob))]
        variants += [blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:] for i in range(len(blob))]
        loaded = 0
        for variant in variants:
            path.write_bytes(variant)
            try:
                array = D._read_raster(path)
            except FormatError:
                continue
            assert array.shape == (2, 2, 3)  # a flipped payload byte loads: no checksum
            loaded += 1
        assert loaded == 12 * 8
        # Headers no single flip reaches: a count past 2**64 bytes, a rank past numpy's limit.
        for header in (b"\x02" + (0x80000000).to_bytes(4, "little") * 2, b"\x41" + bytes(4 * 65)):
            path.write_bytes(D.RASTER_MAGIC + header)
            with pytest.raises(FormatError):
                D._read_raster(path)

    def test_bad_magic_rejected(self, tmp_path):
        scene = D.generate_scene(small_spec(), seed=12)
        D.save_scene(scene, tmp_path / "scene")
        victim = tmp_path / "scene" / "view_001_image.upmv"
        victim.write_bytes(b"XXXX" + victim.read_bytes()[4:])
        with pytest.raises(FormatError, match="magic"):
            D.load_scene(tmp_path / "scene")

    def test_unknown_metadata_key_warns_and_loads(self, tmp_path, caplog):
        scene = D.generate_scene(small_spec(), seed=13)
        D.save_scene(scene, tmp_path / "scene")
        meta = tmp_path / "scene" / "meta.txt"
        meta.write_text(meta.read_text() + "future_field=hello\n")
        with caplog.at_level(logging.WARNING):
            loaded = D.load_scene(tmp_path / "scene")
        assert scenes_equal(scene, loaded)
        assert any("unknown metadata key" in r.message for r in caplog.records)

    def test_missing_metadata_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="meta.txt"):
            D.load_scene(tmp_path / "nowhere")


def _edit_field(line, index, edit):
    key, _, value = line.partition("=")
    fields = value.split("\t")
    fields[index] = edit(fields[index])
    return key + "=" + "\t".join(fields)


def _edit_first_number(text, replacement):
    return " ".join([replacement] + text.split()[1:])


def _set_number(text, index, replacement):
    numbers = text.split()
    numbers[index] = replacement
    return " ".join(numbers)


# name -> (prefix of the meta.txt line to edit, edit of that line; None deletes it)
MALFORMED_RECORDS = {
    "view_missing_field": ("view=0\t", lambda line: line.rsplit("\t", 1)[0]),
    "view_extra_field": ("view=0\t", lambda line: line + "\textra"),
    "view_caption_missing_tab": ("view_caption=0\t", lambda line: line.replace("\t", " ")),
    "view_caption_extra_field": ("view_caption=0\t", lambda line: line + "\textra"),
    "object_missing_field": ("object=0\t", lambda line: line.rsplit("\t", 1)[0]),
    "object_extra_field": ("object=0\t", lambda line: line + "\textra"),
    "camera_non_numeric": ("view=0\t", lambda l: _edit_field(l, 1, lambda f: _edit_first_number(f, "abc"))),
    "camera_value_count": ("view=0\t", lambda l: _edit_field(l, 1, lambda f: f.split(" ", 1)[1])),
    "pose_non_numeric": ("view=1\t", lambda l: _edit_field(l, 2, lambda f: _edit_first_number(f, "1.0.0"))),
    "pose_value_count": ("view=1\t", lambda l: _edit_field(l, 2, lambda f: f + " 0.0")),
    "box_non_numeric": ("object=0\t", lambda l: _edit_field(l, 2, lambda f: _edit_first_number(f, "x"))),
    "box_value_count": ("object=0\t", lambda l: _edit_field(l, 2, lambda f: f.split(" ", 1)[1])),
    "num_views_non_integer": ("num_views=", lambda line: "num_views=six"),
    "num_views_float": ("num_views=", lambda line: line + ".5"),
    "view_index_non_integer": ("view=1\t", lambda line: line.replace("view=1", "view=one", 1)),
    "view_caption_index_non_integer": ("view_caption=1\t", lambda line: line.replace("=1", "=1.0", 1)),
    "object_id_non_integer": ("object=0\t", lambda line: line.replace("object=0", "object=#0", 1)),
    "view_caption_missing": ("view_caption=1\t", None),
    "num_views_too_small": ("num_views=", lambda line: "num_views=1"),
    "num_views_negative": ("num_views=", lambda line: "num_views=-3"),
    "focal_length_negative": ("view=0\t", lambda l: _edit_field(l, 1, lambda f: _edit_first_number(f, "-1.0"))),
    "rotation_not_orthonormal": ("view=1\t", lambda l: _edit_field(l, 2, lambda f: _edit_first_number(f, "2.0"))),
    "view_duplicated": ("view=1\t", lambda line: line + "\n" + line),
    "view_caption_duplicated": ("view_caption=1\t", lambda line: line + "\n" + line),
    "view_index_past_num_views": ("view=1\t", lambda line: line + "\n" + line.replace("=1", "=6", 1)),
    "view_caption_index_past_num_views": ("view_caption=0\t", lambda line: line + "\nview_caption=9\tx"),
}


class TestMalformedMeta:
    @pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
    def test_raises_format_error(self, tmp_path, case):
        prefix, edit = MALFORMED_RECORDS[case]
        scene = D.generate_scene(small_spec(object_count=(2, 3)), seed=14)
        D.save_scene(scene, tmp_path / "scene")
        meta = tmp_path / "scene" / "meta.txt"
        lines = meta.read_text().splitlines()
        (hit,) = [i for i, line in enumerate(lines) if line.startswith(prefix)]
        if edit is None:
            del lines[hit]
        else:
            lines[hit] = edit(lines[hit])
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="meta.txt"):
            D.load_scene(tmp_path / "scene")


class TestViewValidation:
    def view_arrays(self):
        intr = CameraIntrinsics(fx=4.0, fy=4.0, cx=1.5, cy=1.5)
        pose = CameraPose(rotation=np.eye(3), translation=np.zeros(3))
        return np.full((4, 4, 3), 0.5), np.ones((4, 4)), intr, pose

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_depth_rejected(self, bad):
        image, depth, intr, pose = self.view_arrays()
        depth[2, 1] = bad
        with pytest.raises(DegenerateInputError):
            D.View(image=image, depth=depth, intrinsics=intr, pose=pose)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_image_rejected(self, bad):
        image, depth, intr, pose = self.view_arrays()
        image[0, 3, 2] = bad
        with pytest.raises(DegenerateInputError):
            D.View(image=image, depth=depth, intrinsics=intr, pose=pose)

    @pytest.mark.parametrize("height, width", [(0, 4), (4, 0), (0, 0)])
    def test_empty_raster_rejected(self, height, width):
        image, depth, intr, pose = self.view_arrays()
        with pytest.raises(ContractError, match="nonzero height and width"):
            D.View(image=image[:height, :width], depth=depth[:height, :width], intrinsics=intr,
                   pose=pose)


def _replace_with_directory(path):
    path.unlink()
    path.mkdir()


def _edit_meta(directory, prefix, edit):
    """Rewrite the one meta.txt line that starts with ``prefix``."""
    meta = directory / "meta.txt"
    lines = meta.read_text().splitlines()
    (hit,) = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    lines[hit] = edit(lines[hit])
    meta.write_text("\n".join(lines) + "\n")


def _edit_raster(directory, name, edit):
    path = directory / name
    D._write_raster(path, edit(D._read_raster(path)))


def _with_nan(depth):
    depth[3, 3] = np.nan
    return depth


def _invert_box(line):
    return _edit_field(line, 2, lambda box: " ".join(box.split()[3:] + box.split()[:3]))


# name -> edit of a saved scene directory that no valid scene could hold
MALFORMED_DIRECTORIES = {
    "raster_missing": lambda d: (d / "view_001_depth.upmv").unlink(),
    "raster_is_directory": lambda d: _replace_with_directory(d / "view_001_image.upmv"),
    "meta_not_utf8": lambda d: (d / "meta.txt").write_bytes(
        (d / "meta.txt").read_bytes().replace(b"scene_caption=", b"scene_caption=\xff\xfe")),
    "meta_is_directory": lambda d: _replace_with_directory(d / "meta.txt"),
    "image_raster_wrong_shape": lambda d: _edit_raster(d, "view_002_image.upmv", lambda a: a[:, :-1]),
    "image_raster_wrong_rank": lambda d: _edit_raster(d, "view_002_image.upmv", lambda a: a[..., 0]),
    "depth_raster_wrong_rank": lambda d: _edit_raster(d, "view_002_depth.upmv", lambda a: a[None]),
    "depth_raster_nan": lambda d: _edit_raster(d, "view_002_depth.upmv", _with_nan),
    "depth_raster_negative": lambda d: _edit_raster(d, "view_002_depth.upmv", lambda a: -a),
    "view_size_differs": lambda d: [_edit_raster(d, f"view_003_{kind}.upmv", lambda a: a[:16, :16])
                                    for kind in ("image", "depth")],
    "object_box_inverted": lambda d: _edit_meta(d, "object=0\t", _invert_box),
    # object 0's min x, and its max x, which no min corner exceeds
    "object_box_nan": lambda d: _edit_meta(
        d, "object=0\t", lambda line: _edit_field(line, 2, lambda f: _set_number(f, 0, "nan"))),
    "object_box_inf": lambda d: _edit_meta(
        d, "object=0\t", lambda line: _edit_field(line, 2, lambda f: _set_number(f, 3, "inf"))),
    "object_duplicated": lambda d: _edit_meta(d, "object=1\t", lambda line: line + "\n" + line),
    # view 0's translation x, and its cx
    "pose_nan": lambda d: _edit_meta(
        d, "view=0\t", lambda line: _edit_field(line, 2, lambda f: _set_number(f, 9, "nan"))),
    "intrinsics_inf": lambda d: _edit_meta(
        d, "view=0\t", lambda line: _edit_field(line, 1, lambda f: _set_number(f, 2, "inf"))),
    # every view's rasters, so that all views still share one size
    "raster_empty": lambda d: [_edit_raster(d, path.name, lambda a: a[:0])
                               for path in d.glob("view_*.upmv")],
}


class TestMalformedSceneDirectory:
    @pytest.mark.parametrize("case", sorted(MALFORMED_DIRECTORIES))
    def test_raises_format_error(self, tmp_path, case):
        scene = D.generate_scene(small_spec(object_count=(2, 3)), seed=15)
        D.save_scene(scene, tmp_path / "scene")
        MALFORMED_DIRECTORIES[case](tmp_path / "scene")
        with pytest.raises(FormatError, match="scene"):
            D.load_scene(tmp_path / "scene")


class TestSceneValidation:
    def test_views_of_different_sizes_rejected(self):
        scene = D.generate_scene(small_spec(), seed=17)
        small = D.generate_scene(small_spec(image_size=16), seed=17).views[0]
        with pytest.raises(ContractError, match="image size"):
            D.Scene(scene.scene_id, scene.views[:-1] + [small], scene.objects, scene.scene_type,
                    scene.scene_caption, scene.view_captions)


class TestSaveSceneTexts:
    def scene_with(self, field, text):
        scene = D.generate_scene(small_spec(object_count=(2, 3)), seed=16)
        if field == "scene_caption":
            scene.scene_caption = text
        elif field == "view_caption":
            scene.view_captions[1] = text
        elif field == "referring_text":
            scene.objects[0].referring_text = text
        else:
            scene.objects[1].category = text
        return scene

    @pytest.mark.parametrize("field", ["scene_caption", "view_caption", "referring_text", "category"])
    @pytest.mark.parametrize("breaker", ["\t", "\r", "\n", "\r\n", "\u2028"])
    def test_rejected_before_any_write(self, tmp_path, field, breaker):
        scene = self.scene_with(field, f"a red{breaker}chair")
        with pytest.raises(ContractError, match="meta.txt"):
            D.save_scene(scene, tmp_path / "scene")
        assert not (tmp_path / "scene").exists()

    def test_round_trip_of_unusual_texts(self, tmp_path):
        scene = D.generate_scene(small_spec(object_count=(2, 3)), seed=17)
        scene.scene_caption = "a=b  room, caf\u00e9 \u00a0 with = signs "
        scene.view_captions[0] = ""
        scene.view_captions[2] = " leading and trailing spaces "
        scene.objects[0].referring_text = "the \u201cred\u201d chair = seat #1"
        scene.objects[1].category = "arm chair"
        D.save_scene(scene, tmp_path / "scene")
        assert scenes_equal(scene, D.load_scene(tmp_path / "scene"))


class FailingWrites:
    """An ``open`` for ``upm.atomic``: a write to the named file stops halfway and raises."""

    def __init__(self, target: str):
        self.target = target
        self.temp_paths = []

    def __call__(self, path, mode):
        fh = open(path, mode)
        if self.target not in Path(path).name:
            return fh
        self.temp_paths.append(Path(path))
        return _FailingHandle(fh)


class _FailingHandle:
    def __init__(self, fh):
        self.fh = fh

    def write(self, blob):
        self.fh.write(blob[: len(blob) // 2])
        self.fh.flush()
        raise OSError("no space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestAtomicWrites:
    def assert_failed_write_keeps(self, monkeypatch, path, write):
        before = path.read_bytes()
        failing = FailingWrites(path.name)
        monkeypatch.setattr(atomic, "open", failing, raising=False)
        with pytest.raises(OSError, match="no space"):
            write()
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.parent for p in failing.temp_paths] == [path.parent]
        assert not failing.temp_paths[0].exists()
        assert [p.name for p in path.parent.iterdir() if p.name.startswith(".")] == []

    def test_checkpoint(self, tmp_path, monkeypatch):
        config = enc.EncoderConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=1,
                                   num_heads=2, text_vocab_size=16)
        path = tmp_path / "model.upm"
        enc.save_checkpoint(path, enc.init_encoder_params(config, seed=1), config)
        newer = enc.init_encoder_params(config, seed=2)
        self.assert_failed_write_keeps(
            monkeypatch, path, lambda: enc.save_checkpoint(path, newer, config))

    def test_raster(self, tmp_path, monkeypatch):
        first = D.generate_scene(small_spec(), seed=18)
        second = D.generate_scene(small_spec(), seed=19)
        D.save_scene(first, tmp_path / "scene")
        raster = tmp_path / "scene" / "view_003_depth.upmv"
        self.assert_failed_write_keeps(
            monkeypatch, raster, lambda: D.save_scene(second, tmp_path / "scene"))
        assert np.array_equal(D._read_raster(raster), first.views[3].depth)

    def test_meta(self, tmp_path, monkeypatch):
        first = D.generate_scene(small_spec(), seed=20)
        second = D.generate_scene(small_spec(), seed=21)
        D.save_scene(first, tmp_path / "scene")
        meta = tmp_path / "scene" / "meta.txt"
        self.assert_failed_write_keeps(
            monkeypatch, meta, lambda: D.save_scene(second, tmp_path / "scene"))

    def test_manifest(self, tmp_path, monkeypatch):
        path = tmp_path / "manifest.tsv"
        D.write_manifest(path, [("train", "a")])
        self.assert_failed_write_keeps(
            monkeypatch, path, lambda: D.write_manifest(path, [("train", "b"), ("val", "c")]))

    def test_report(self, tmp_path, monkeypatch):
        ev.emit_report(ev.EvalReport(zero_shot_accuracy=0.25), tmp_path)
        self.assert_failed_write_keeps(
            monkeypatch, tmp_path / "summary.txt",
            lambda: ev.emit_report(ev.EvalReport(zero_shot_accuracy=0.75), tmp_path))

    def test_success_replaces_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "file.bin"
        path.write_bytes(b"old")
        with atomic.atomic_write(path) as fh:
            fh.write(b"new")
            assert path.read_bytes() == b"old"
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["file.bin"]


class TestManifest:
    def test_split_counts_64(self):
        entries = D.split_dataset([f"scene_{i:05d}" for i in range(64)], seed=0)
        counts = {split: sum(1 for s, _ in entries if s == split) for split in ("train", "val", "test")}
        assert counts == {"train": 52, "val": 6, "test": 6}

    def test_singleton_goes_to_train(self):
        assert D.split_dataset(["only"], seed=0) == [("train", "only")]

    def test_split_deterministic(self):
        ids = [f"s{i}" for i in range(20)]
        assert D.split_dataset(ids, seed=5) == D.split_dataset(ids, seed=5)
        assert D.split_dataset(ids, seed=5) != D.split_dataset(ids, seed=6)

    def test_manifest_round_trip(self, tmp_path):
        entries = D.split_dataset([f"d{i}" for i in range(12)], seed=1)
        path = tmp_path / "manifest.tsv"
        D.write_manifest(path, entries)
        splits = D.load_manifest(path)
        for split, name in entries:
            assert name in splits[split]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("train\ta\nnot a valid line\n")
        with pytest.raises(FormatError, match="line 2"):
            D.load_manifest(path)

    def test_unknown_split_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("training\ta\n")
        with pytest.raises(FormatError, match="unknown split"):
            D.load_manifest(path)

    @pytest.mark.parametrize("case", ["missing", "directory", "non_utf8"])
    def test_unreadable_manifest_rejected(self, tmp_path, case):
        path = tmp_path / "manifest.tsv"
        if case == "directory":
            path.mkdir()
        elif case == "non_utf8":
            path.write_bytes(b"train\ta\xff\n")
        with pytest.raises(FormatError, match="manifest"):
            D.load_manifest(path)
