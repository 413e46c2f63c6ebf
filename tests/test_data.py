"""Tests for synthetic scene generation and the on-disk scene format."""

import hashlib
import json
import logging
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from upm import atomic
from upm import data as D
from upm import encoder as enc
from upm import evaluation as ev
from upm.container import read_arrays, write_arrays
from upm.errors import ConfigError, ContractError, FormatError, GenerationError, ShapeError
from upm.geometry import ObjectAnnotation, back_project, box_counts
from tests.conftest import corruptions, edit_header, header_end, rewrite_header
from tests.test_geometry import pairwise_chamfer


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


def oracle_render_view(intrinsics, rotation, eye, image_size, boxes, colors, room_half):
    """One view's nearest-hit ray cast, one camera at a time: the oracle of ``_render_views``."""
    n = image_size
    fx, fy, cx, cy = intrinsics
    u = np.arange(n, dtype=np.float64)[None, :].repeat(n, axis=0)
    v = np.arange(n, dtype=np.float64)[:, None].repeat(n, axis=1)
    dx, dy = ((u - cx) / fx).ravel(), ((v - cy) / fy).ravel()
    dirs = np.stack([(dx * rotation[a, 0] + dy * rotation[a, 1]) + rotation[a, 2]
                     for a in range(3)], axis=1)
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
    if len(a.objects) != len(b.objects):
        return False
    if not all(np.array_equal(getattr(a, name), getattr(b, name)) for name in D.SCENE_ARRAYS):
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
    (dict(scene_type="bedroom"), 8, "656101fd3bcc93f802b416b5fa2b3c22f639e26c6769b24c018f5383f9dce4e7"),
    (dict(scene_type="office"), 4, "6e79d61f63e7babe947d1196f65c611c12c42855f040276621fc3ebd56a82b8b"),
    (dict(scene_type="kitchen"), 2, "df5fb1861736595bf338a8d7e967c23dec2164d72824cc383dca9e7a7ecf0cfd"),
    (dict(scene_type="library"), 0, "98b7628cf604927765e8d9fd21c4ebfcaeb3516a3b7d720f0ab93e35fcdd66e6"),
    (dict(scene_type="library"), 2, "2b6d953d153f54d491f20112314e4074192c3a99f0fc2c70749cef1299e65b06"),
    (dict(scene_type="office", object_count=(0, 0)), 5, "d354b276d0fc8697c16932f4ee2ea547905d515e8afb62f5936605ab06659b80"),
    (dict(scene_type="kitchen", view_count=5, image_size=17), 3, "a2b0bcadb04b382df091342ec1d660e862e907933f90f5b3e82afdcd3902f40d"),
    (dict(scene_type="bedroom", view_count=3, image_size=8, object_count=(1, 2)), 9, "4186daa2e18d953cc9f729cd8b2543f2219d64e37f8ab0d1bd1b1a4c45eb78c6"),
    (dict(scene_type="library", view_count=7, image_size=24), 6, "4681643c801f1ac004a5869017e8978aa367787441d10c8e7d006e146af352f3"),
]


class TestSceneSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            D.SceneSpec(scene_type="bedroom", view_count=1)
        with pytest.raises(ConfigError):
            D.SceneSpec(scene_type="spaceship")
        with pytest.raises(ConfigError):
            D.SceneSpec(scene_type="bedroom", object_count=(3, 2))

    @pytest.mark.parametrize("overrides", [
        dict(image_size=0),
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
                if areas[vi, oi] >= D.DEFAULT_MIN_POINTS:
                    assert noun in caption
                else:
                    assert noun not in caption

    def test_impossible_layout_raises(self, monkeypatch):
        # Every candidate position overlaps: no object can be placed.
        monkeypatch.setattr(D, "_clear_of", lambda placed, lo, hi, margin: False)
        spec = D.SceneSpec(scene_type="bedroom", object_count=(1, 1), view_count=2, image_size=8)
        with pytest.raises(GenerationError, match="seed 0"):
            D.generate_scene(spec, seed=0)

    def test_rejected_layouts_logged_with_unobserved_objects(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="upm.data"):
            scene = D.generate_scene(D.SceneSpec(scene_type="bedroom"), seed=5)
        assert [r.levelno for r in caplog.records] == [logging.DEBUG] * 2
        assert [r.getMessage() for r in caplog.records] == [
            "seed 5 attempt 0: layout rejected, no view observes orange lamp and yellow nightstand",
            "seed 5 attempt 1: layout rejected, no view observes orange lamp",
        ]
        assert [o.category for o in scene.objects] == ["nightstand", "bed", "lamp"]

    def test_generation_error_names_last_unobserved_objects(self, caplog):
        # 3x3 views hold 9 pixels, fewer than DEFAULT_MIN_POINTS: no layout is accepted.
        spec = small_spec(view_count=2, image_size=3, object_count=(1, 1))
        with caplog.at_level(logging.DEBUG, logger="upm.data"):
            with pytest.raises(GenerationError) as info:
                D.generate_scene(spec, seed=0)
        messages = [r.getMessage() for r in caplog.records]
        assert [m.split(":")[0] for m in messages] == [
            f"seed 0 attempt {a}" for a in range(D.MAX_REGENERATIONS)]
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
    # Ids without the digest, so that a re-pin keeps each case's name.
    @pytest.mark.parametrize("overrides, seed, digest", PINNED_SCENES,
                             ids=[f"overrides{i}-{seed}" for i, (_, seed, _) in enumerate(PINNED_SCENES)])
    def test_scene_bytes_pinned(self, overrides, seed, digest):
        assert scene_digest(D.generate_scene(D.SceneSpec(**overrides), seed)) == digest

    def test_set_includes_a_rejected_first_layout(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="upm.data"):
            D.generate_scene(D.SceneSpec(scene_type="library"), seed=2)
        assert "attempt 0: layout rejected" in caplog.text

    def test_pins_hold_on_another_blas_kernel(self):
        # Generation makes no BLAS call, and prepare_scene's one, the Chamfer
        # filter, has certified ranks, so neither output depends on the
        # kernel OpenBLAS picks for the CPU: the pins hold under a forced
        # older kernel too.  Only the child sees the forced kernel.
        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=os.pathsep.join(
            filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "tests/test_data.py::TestGenerationPinned::test_scene_bytes_pinned",
             "tests/test_trainer.py::TestPrepareScene::test_default_outputs_pinned"],
            cwd=repo, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        assert f"{len(PINNED_SCENES) + 1} passed" in done.stdout


def ring_intrinsics(n):
    """Generation's [fx, fy, cx, cy] at ``n`` pixels a side."""
    return [0.8 * n, 0.8 * n, (n - 1) / 2.0, (n - 1) / 2.0]


def random_boxes(rng, count):
    boxes = []
    for _ in range(count):
        lo = np.append(rng.uniform(-2.0, 1.5, size=2), 0.0)
        boxes.append((lo, lo + rng.uniform(0.2, 1.2, size=3)))
    colors = [tuple(rng.uniform(0.0, 1.0, size=3)) for _ in boxes]
    return boxes, colors


def look_at_poses(rng, count, room_half=3.0):
    """``count`` random look-at cameras: rotations (count, 3, 3) and translations (count, 3)."""
    eyes = np.column_stack([rng.uniform(-room_half, room_half, size=(count, 2)),
                            rng.uniform(0.2, 3.0, count)])
    targets = np.column_stack([rng.uniform(-1.0, 1.0, size=(count, 2)), rng.uniform(0.0, 0.5, count)])
    return D._look_at_rotations(eyes, targets), eyes


# Camera-to-world rotations that keep exact zeros in the ray directions:
# looking straight down, and looking horizontally along +x.
DOWN = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
ALONG_X = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


class TestRenderConsistency:
    def ring_pointmaps(self, box_lo, box_hi, n_views=8, image_size=32):
        intrinsics = np.tile(ring_intrinsics(image_size), (n_views, 1))
        angles = 2 * np.pi * np.arange(n_views) / n_views
        eyes = np.array([[2.2 * np.cos(a), 2.2 * np.sin(a), 1.8] for a in angles])
        rotations = D._look_at_rotations(eyes, np.zeros((n_views, 3)))
        _, depths = D._render_views(intrinsics, rotations, eyes, image_size,
                                    [(box_lo, box_hi)], [(1.0, 0.0, 0.0)], 3.0)
        return back_project(depths, intrinsics, rotations, eyes)

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
        cd = pairwise_chamfer(points, validity, subsample=validity[0].size, seed=0)  # every point
        assert cd[0, 1] < voxel_tolerance
        assert cd[0, 2] < voxel_tolerance

    def test_scene_level_consistency_check(self):
        scene = D.generate_scene(small_spec(), seed=9)
        assert render_depth_consistency(scene) <= 1e-6


class TestRenderViews:
    def assert_matches_oracle(self, rotations, translations, intrinsics, n, boxes, colors,
                              room_half=3.0):
        """``intrinsics`` is one [fx, fy, cx, cy] for every view, or a (V, 4) stack."""
        intrinsics = np.broadcast_to(intrinsics, (len(rotations), 4))
        images, depths = D._render_views(
            intrinsics, rotations, translations, n, boxes, colors, room_half)
        assert images.shape == (len(rotations), n, n, 3) and depths.shape == (len(rotations), n, n)
        for camera, image, depth in zip(zip(intrinsics, rotations, translations), images, depths):
            want_image, want_depth = oracle_render_view(*camera, n, boxes, colors, room_half)
            assert image.tobytes() == want_image.tobytes()
            assert depth.tobytes() == want_depth.tobytes()
        return images, depths

    @pytest.mark.parametrize("n", [8, 24, 32, 17])
    def test_random_cameras_match_oracle(self, n):
        rng = np.random.default_rng(n)
        boxes, colors = random_boxes(rng, 4)
        images, depths = self.assert_matches_oracle(*look_at_poses(rng, 12), ring_intrinsics(n),
                                                    n, boxes, colors)
        drawn = {tuple(c) for c in images.reshape(-1, 3)}
        assert D.FLOOR_COLOR in drawn and drawn & set(colors) and (depths > 0).any()

    @pytest.mark.parametrize("n", [8, 17])
    def test_zero_direction_components_match_oracle(self, n):
        # Integer principal points put exact zeros in the camera rays.
        intr = [0.8 * n, 0.8 * n, float(n // 2), float(n // 3)]
        boxes, colors = random_boxes(np.random.default_rng(5), 3)
        rotations = np.array([DOWN, ALONG_X, np.eye(3)])
        translations = np.array([[0.3, -0.2, 2.5], [-2.5, 0.1, 0.4], [0.0, 0.0, 1.0]])
        self.assert_matches_oracle(rotations, translations, intr, n, boxes, colors)

    def test_per_view_intrinsics_match_oracle(self):
        rng = np.random.default_rng(10)
        boxes, colors = random_boxes(rng, 3)
        rotations, translations = look_at_poses(rng, 6)
        intrinsics = ring_intrinsics(16) * rng.uniform(0.8, 1.2, size=(6, 4))
        images, _ = self.assert_matches_oracle(rotations, translations, intrinsics, 16, boxes, colors)
        assert D.FLOOR_COLOR in {tuple(c) for c in images.reshape(-1, 3)}

    def test_eye_on_box_face_planes_matches_oracle(self):
        # Zero slab distances, signed either way; the downward cameras also
        # cast rays inside a face plane, where the distance is 0 / 0 unguarded.
        lo, hi = np.array([-0.5, -0.4, 0.0]), np.array([0.6, 0.5, 0.7])
        eyes = [np.array([lo[0], 2.0, 1.2]), np.array([1.5, hi[1], 0.9]),
                np.array([-1.5, -1.5, hi[2]]), np.array([hi[0], lo[1], 1.5])]
        targets = np.tile([0.05, 0.05, 0.0], (4, 1))
        rotations = [*D._look_at_rotations(np.array(eyes), targets), DOWN, DOWN, DOWN]
        eyes += [np.array([0.0, 0.0, hi[2]]), np.array([lo[0], 0.0, 2.0]), np.array([0.1, hi[1], 1.6])]
        images, _ = self.assert_matches_oracle(np.array(rotations), np.array(eyes),
                                               [12.8, 12.8, 8.0, 8.0], 16, [(lo, hi)], [(0.9, 0.1, 0.1)])
        assert tuple(images[5, 8, 8]) == (0.9, 0.1, 0.1)

    def test_no_boxes_matches_oracle(self):
        cameras = look_at_poses(np.random.default_rng(6), 5)
        images, _ = self.assert_matches_oracle(*cameras, ring_intrinsics(24), 24, [], [])
        assert {tuple(c) for c in images.reshape(-1, 3)} <= {D.FLOOR_COLOR, (0.0, 0.0, 0.0)}

    def test_overlapping_boxes_match_oracle(self):
        boxes = [(np.array([-0.6, -0.6, 0.0]), np.array([0.6, 0.6, 0.5])),
                 (np.array([-0.3, -0.3, 0.0]), np.array([0.9, 0.9, 0.9])),
                 (np.array([-0.3, -0.3, 0.0]), np.array([0.9, 0.9, 0.9]))]
        colors = [(0.8, 0.2, 0.1), (0.1, 0.7, 0.2), (0.2, 0.2, 0.9)]
        images, _ = self.assert_matches_oracle(
            *look_at_poses(np.random.default_rng(7), 8), ring_intrinsics(32), 32, boxes, colors)
        assert colors[2] not in {tuple(c) for c in images.reshape(-1, 3)}

    def test_one_view_batch_matches_oracle(self):
        rng = np.random.default_rng(8)
        boxes, colors = random_boxes(rng, 2)
        self.assert_matches_oracle(*look_at_poses(rng, 1), ring_intrinsics(24), 24, boxes, colors)


def _set_object_field(index, field, value):
    """An edit of a scene that sets ``field`` of its object ``index`` to ``value``."""

    def edit(scene):
        setattr(scene.objects[index], field, value)
        return scene

    return edit


def _caption_not_text(scene):
    scene.view_captions[1] = 1
    return scene


def _depth_made_negative(scene):
    scene.depths[0, 0, 0] = -1.0  # the stacks stay mutable after the scene's checks
    return scene


# name -> edit of a scene that save_scene must refuse, as load_scene would refuse its file
UNLOADABLE_SCENES = {
    "scene_id_not_text": lambda scene: replace(scene, scene_id=5),
    "scene_type_missing": lambda scene: replace(scene, scene_type=None),
    "view_caption_not_text": _caption_not_text,
    "depth_made_negative": _depth_made_negative,
    "referring_text_not_text": _set_object_field(0, "referring_text", 7),
    "category_missing": _set_object_field(1, "category", None),
    "object_ids_repeat": _set_object_field(1, "object_id", 0),
    "object_id_float": _set_object_field(0, "object_id", 1.5),
    "object_id_text": _set_object_field(0, "object_id", "x"),
}


class TestSceneIO:
    def test_round_trip(self, tmp_path):
        scene = D.generate_scene(small_spec(), seed=10)
        D.save_scene(scene, tmp_path / "scene")
        loaded = D.load_scene(tmp_path / "scene")
        assert scenes_equal(scene, loaded)

    def test_truncated_raster_rejected(self, tmp_path):
        scene = D.generate_scene(small_spec(), seed=11)
        D.save_scene(scene, tmp_path / "scene")
        victim = tmp_path / "scene" / "scene.upm"
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(FormatError, match="scene.upm"):
            D.load_scene(tmp_path / "scene")

    def test_bad_magic_rejected(self, tmp_path):
        scene = D.generate_scene(small_spec(), seed=12)
        D.save_scene(scene, tmp_path / "scene")
        victim = tmp_path / "scene" / "scene.upm"
        victim.write_bytes(b"XXXX" + victim.read_bytes()[4:])
        with pytest.raises(FormatError, match="magic"):
            D.load_scene(tmp_path / "scene")

    def test_every_meta_truncation_fails_and_byte_flip_fails_typed_or_loads(self, tmp_path):
        # 12-pixel views keep the payload, and so the count of truncations, small,
        # while both objects can still show DEFAULT_MIN_POINTS points.
        spec = small_spec(view_count=2, object_count=(2, 2), image_size=12)
        scene = D.generate_scene(spec, seed=13)
        D.save_scene(scene, tmp_path / "scene")
        path = tmp_path / "scene" / "scene.upm"
        blob = path.read_bytes()
        truncated, _ = corruptions(blob)
        for variant in truncated:
            path.write_bytes(variant)
            with pytest.raises(FormatError, match="scene.upm"):
                D.load_scene(tmp_path / "scene")
        # Flips of the magic, the header length and the JSON header, which holds the metadata.
        end = header_end(blob)
        _, flipped = corruptions(blob[:end], masks=(0x01, 0x20, 0x80))
        loaded = 0
        for variant in flipped:
            path.write_bytes(variant + blob[end:])
            try:
                assert isinstance(D.load_scene(tmp_path / "scene"), D.Scene)
            except FormatError:
                continue
            loaded += 1
        # No checksum: a flipped digit or letter of a text loads.
        assert 0 < loaded < len(flipped)
        # Flips of the camera stacks, the end of the payload: a camera no scene could hold fails.
        start = len(blob) - 8 * sum(getattr(scene, name).size for name in D.SCENE_ARRAYS[2:])
        _, flipped = corruptions(blob[start:], masks=(0x01, 0x20, 0x80))
        loaded = 0
        for variant in flipped:
            path.write_bytes(blob[:start] + variant)
            try:
                assert isinstance(D.load_scene(tmp_path / "scene"), D.Scene)
            except FormatError:
                continue
            loaded += 1
        assert 0 < loaded < len(flipped)

    def test_unknown_metadata_key_warns_and_loads(self, tmp_path, caplog):
        scene = D.generate_scene(small_spec(), seed=13)
        D.save_scene(scene, tmp_path / "scene")
        _edit_meta(tmp_path / "scene", lambda meta: meta.update(future_field="hello"))
        with caplog.at_level(logging.WARNING):
            loaded = D.load_scene(tmp_path / "scene")
        assert scenes_equal(scene, loaded)
        assert any("unknown metadata key" in r.message for r in caplog.records)

    def test_unencodable_scene_rejected_before_any_write(self, tmp_path):
        scene = D.generate_scene(small_spec(), seed=13)
        scene.objects[0].aabb_max[2] = np.inf  # arrays stay mutable after validation
        with pytest.raises(ContractError, match="cannot save scene .*AABB corners must be finite"):
            D.save_scene(scene, tmp_path / "scene")
        assert not (tmp_path / "scene").exists()

    def test_missing_metadata_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="scene.upm"):
            D.load_scene(tmp_path / "nowhere")

    def test_directory_holds_two_stacks_and_metadata(self, tmp_path):
        scene = D.generate_scene(small_spec(), seed=10)
        D.save_scene(scene, tmp_path / "scene")
        assert [path.name for path in (tmp_path / "scene").iterdir()] == ["scene.upm"]
        meta, arrays = read_arrays(tmp_path / "scene" / "scene.upm")
        assert list(arrays) == ["images", "depths", "intrinsics", "rotations", "translations"]
        for name in D.SCENE_ARRAYS:
            assert _bits(arrays[name]) == _bits(getattr(scene, name))
        assert meta["scene_id"] == scene.scene_id and meta["view_captions"] == scene.view_captions
        loaded = D.load_scene(tmp_path / "scene")
        assert scene_digest(loaded) == scene_digest(scene)
        # Each view's rasters are slices of the two stacks, not copies.
        for field, shape in (("image", arrays["images"].shape), ("depth", arrays["depths"].shape)):
            stack = getattr(loaded.views[0], field).base
            assert stack is not None and stack.shape == shape
            assert all(getattr(view, field).base is stack for view in loaded.views)

    def test_per_view_layout_rejected(self, tmp_path):
        # The layout before stacks: meta.json beside two UPMV rasters per view.
        directory = self.older_layout(tmp_path, lambda arrays: {
            f"view_{i:03d}_{field}": stack[i]
            for field, stack in (("image", arrays["images"]), ("depth", arrays["depths"]))
            for i in range(len(stack))})
        with pytest.raises(FormatError, match="scene.upm"):
            D.load_scene(directory)

    def test_stack_layout_rejected(self, tmp_path):
        # The layout before scene.upm: meta.json beside one UPMV raster per stack.
        directory = self.older_layout(tmp_path, lambda arrays: arrays)
        with pytest.raises(FormatError, match="scene.upm"):
            D.load_scene(directory)

    def older_layout(self, tmp_path, rasters):
        """A scene directory of meta.json and a UPMV raster for each of ``rasters(arrays)``."""
        directory = tmp_path / "scene"
        D.save_scene(D.generate_scene(small_spec(), seed=10), directory)
        meta, arrays = read_arrays(directory / "scene.upm")
        (directory / "scene.upm").unlink()
        (directory / "meta.json").write_text(json.dumps(meta))
        for name, raster in rasters(arrays).items():
            dims = np.array(raster.shape, dtype="<u4").tobytes()
            (directory / f"{name}.upmv").write_bytes(
                b"UPMV" + bytes([raster.ndim]) + dims + raster.tobytes())
        return directory

    def test_caption_count_rejected_before_any_write(self, tmp_path):
        directory = tmp_path / "scene"
        scene = D.generate_scene(small_spec(), seed=17)
        D.save_scene(scene, directory)
        before = {path.name: path.read_bytes() for path in directory.iterdir()}
        # Scene checks its captions when built; its list of captions stays mutable.
        scene.view_captions.pop()
        with pytest.raises(ContractError,
                           match=f"scene '{scene.scene_id}'.* 5 view captions for 6 views"):
            D.save_scene(scene, directory)
        assert {path.name: path.read_bytes() for path in directory.iterdir()} == before

    @pytest.mark.parametrize("case", sorted(UNLOADABLE_SCENES))
    def test_unloadable_scene_rejected_before_any_write(self, tmp_path, case):
        # Each of these used to save and then fail to load, except that an id
        # of 1.5 saved as 1 and an id "x" raised an untyped ValueError.
        directory = tmp_path / "scene"
        scene = D.generate_scene(small_spec(object_count=(2, 3)), seed=17)
        D.save_scene(scene, directory)
        before = (directory / "scene.upm").read_bytes()
        with pytest.raises(ContractError, match="cannot save scene"):
            D.save_scene(UNLOADABLE_SCENES[case](scene), directory)
        assert [path.name for path in directory.iterdir()] == ["scene.upm"]
        assert (directory / "scene.upm").read_bytes() == before


def _edit_meta(directory, edit):
    """Rewrite the scene file's metadata after ``edit`` changes it in place."""
    edit_header(directory / "scene.upm", lambda header: edit(header["meta"]))


def _replace(keys, value):
    """An edit that sets the item at ``keys``: to ``value(item)`` if callable, deleted if None."""

    def edit(meta):
        *parents, last = keys
        for key in parents:
            meta = meta[key]
        if value is None:
            del meta[last]
        else:
            meta[last] = value(meta[last]) if callable(value) else value

    return edit


def _set(index, value):
    """An edit of an array that sets its entry at ``index`` to ``value``."""

    def apply(array):
        array[index] = value
        return array

    return apply


# name -> (camera stack, edit of it that no valid scene could hold, the error data.Scene raises)
BAD_CAMERAS = {
    "camera_non_numeric": ("intrinsics", _set((0, 0), np.nan), ContractError),
    "pose_non_numeric": ("rotations", _set((1, 0, 2), np.nan), ContractError),
    "focal_length_negative": ("intrinsics", _set((0, 0), -1.0), ContractError),
    "focal_length_zero": ("intrinsics", _set((1, 1), 0.0), ContractError),
    "rotation_not_orthonormal": ("rotations", _set((1, 0, 0), 2.0), ContractError),
    "rotation_reflection": ("rotations", lambda stack: stack * [[[1.0], [1.0], [-1.0]]], ContractError),
    "camera_value_count": ("intrinsics", lambda stack: stack[:, 1:], ShapeError),
    "pose_value_count": ("translations", lambda stack: np.hstack([stack, stack[:, :1]]), ShapeError),
    "rotation_rank": ("rotations", lambda stack: stack.reshape(len(stack), 9), ShapeError),
    "camera_count": ("rotations", lambda stack: stack[:-1], ShapeError),
}


class TestSceneCameras:
    @pytest.mark.parametrize("case", sorted(BAD_CAMERAS))
    def test_bad_stack_raises_typed_error(self, case):
        scene = D.generate_scene(small_spec(object_count=(2, 3)), seed=14)
        stack, edit, error = BAD_CAMERAS[case]
        with pytest.raises(error):
            replace(scene, **{stack: edit(getattr(scene, stack).copy())})


# name -> edit of the parsed metadata that no valid scene could hold
MALFORMED_RECORDS = {
    "view_missing_field": _replace(("view_captions",), None),
    "view_caption_missing": _replace(("view_captions", 1), lambda caption: None),  # JSON null
    "view_caption_not_text": _replace(("view_captions", 1), 7),
    "object_missing_field": _replace(("objects", 0, "referring_text"), None),
    "object_extra_field": _replace(("objects", 0, "extra"), 1),
    "object_id_non_integer": _replace(("objects", 0, "object_id"), "#0"),
    "object_id_float": _replace(("objects", 0, "object_id"), 0.0),
    "object_id_boolean": _replace(("objects", 0, "object_id"), False),
    "box_non_numeric": _replace(("objects", 0, "aabb_min", 0), "x"),
    "box_value_count": _replace(("objects", 0, "aabb_max"), lambda values: values[1:]),
    "views_not_a_list": _replace(("view_captions",), {}),
    "scene_id_missing": _replace(("scene_id",), None),
    "scene_caption_not_text": _replace(("scene_caption",), ["a", "bedroom"]),
}


class TestMalformedMeta:
    # Bad metadata, and camera stacks that no scene could hold: load_scene refuses both.
    @pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS.keys() | BAD_CAMERAS.keys()))
    def test_raises_format_error(self, tmp_path, case):
        scene = D.generate_scene(small_spec(object_count=(2, 3)), seed=14)
        D.save_scene(scene, tmp_path / "scene")
        if case in MALFORMED_RECORDS:
            _edit_meta(tmp_path / "scene", MALFORMED_RECORDS[case])
            what = "metadata"
        else:
            _edit_raster(tmp_path / "scene", *BAD_CAMERAS[case][:2])
            what = "scene"
        with pytest.raises(FormatError, match=f"invalid {what} in .*scene.upm"):
            D.load_scene(tmp_path / "scene")


def _replace_with_directory(path):
    path.unlink()
    path.mkdir()


def _nest_meta(directory):
    """Replace scene.upm by a directory that holds its metadata as meta.json."""
    meta, _ = read_arrays(directory / "scene.upm")
    _replace_with_directory(directory / "scene.upm")
    (directory / "scene.upm" / "meta.json").write_text(json.dumps(meta))


def _edit_arrays(directory, edit):
    """Rewrite the scene file's arrays after ``edit`` changes their dict in place."""
    path = directory / "scene.upm"
    meta, arrays = read_arrays(path)
    edit(arrays)
    write_arrays(path, meta, arrays.items())


def _edit_raster(directory, name, edit):
    """Replace the stack ``name``, one of ``data.SCENE_ARRAYS``, by ``edit`` of it."""
    _edit_arrays(directory, lambda arrays: arrays.update({name: edit(arrays[name])}))


def _edit_stacks(directory, edit):
    """Apply ``edit`` to both the image and the depth stack."""
    for name in ("images", "depths"):
        _edit_raster(directory, name, edit)


def _in_view(index, edit):
    """An edit of a stack that replaces view ``index`` by ``edit`` of it."""

    def apply(stack):
        stack[index] = edit(stack[index])
        return stack

    return apply


def _with_nan(depth):
    depth[3, 3] = np.nan
    return depth


def _swap_corners(obj):
    return {**obj, "aabb_min": obj["aabb_max"], "aabb_max": obj["aabb_min"]}


# name -> edit of a saved scene directory that no valid scene could hold
MALFORMED_DIRECTORIES = {
    "raster_missing": lambda d: _edit_arrays(d, lambda arrays: arrays.pop("depths")),
    "raster_extra": lambda d: _edit_arrays(d, lambda arrays: arrays.update(normals=arrays["depths"])),
    # scene.upm holds both the rasters and the metadata: an empty directory in
    # its place, and one that holds the metadata as the older layout's meta.json
    "raster_is_directory": lambda d: _replace_with_directory(d / "scene.upm"),
    "meta_is_directory": lambda d: _nest_meta(d),
    "meta_not_utf8": lambda d: rewrite_header(d / "scene.upm", lambda text: text.replace(
        b'"scene_caption": "', b'"scene_caption": "\xff\xfe')),
    "meta_top_level_array": lambda d: edit_header(d / "scene.upm", lambda header: header.update(
        meta=[header["meta"]])),
    "meta_deeply_nested": lambda d: rewrite_header(d / "scene.upm", lambda text: b"[" * 100000),
    "image_raster_wrong_shape": lambda d: _edit_raster(d, "images", lambda a: a[:, :, :-1]),
    "image_raster_wrong_rank": lambda d: _edit_raster(d, "images", lambda a: a[..., 0]),
    "depth_raster_wrong_rank": lambda d: _edit_raster(d, "depths", lambda a: a[None]),
    "depth_raster_rank_zero": lambda d: _edit_raster(d, "depths", lambda a: a[0, 0, 0]),
    "depth_raster_nan": lambda d: _edit_raster(d, "depths", _in_view(2, _with_nan)),
    "depth_raster_negative": lambda d: _edit_raster(d, "depths", _in_view(2, lambda a: -a)),
    "stacks_one_view_fewer": lambda d: _edit_stacks(d, lambda a: a[:-1]),
    "stacks_one_view_more": lambda d: _edit_stacks(d, lambda a: np.concatenate([a, a[:1]])),
    "stacks_differ_in_size": lambda d: _edit_raster(d, "depths", lambda a: a[:, :16, :16]),
    "object_box_inverted": lambda d: _edit_meta(d, _replace(("objects", 0), _swap_corners)),
    # object 0's min x, and its max x, which no min corner exceeds
    "object_box_nan": lambda d: _edit_meta(d, _replace(("objects", 0, "aabb_min", 0), float("nan"))),
    "object_box_inf": lambda d: _edit_meta(d, _replace(("objects", 0, "aabb_max", 0), float("inf"))),
    "object_duplicated": lambda d: _edit_meta(d, _replace(("objects",), lambda objs: objs + objs[1:2])),
    # view 0's translation x, and its cx
    "pose_nan": lambda d: _edit_raster(d, "translations", _set((0, 0), np.nan)),
    "intrinsics_inf": lambda d: _edit_raster(d, "intrinsics", _set((0, 2), np.inf)),
    # every stack and the view captions, so that they all hold one view
    "one_view": lambda d: [_edit_meta(d, _replace(("view_captions",), lambda captions: captions[:1])),
                           _edit_arrays(d, lambda arrays: arrays.update(
                               {name: stack[:1] for name, stack in arrays.items()}))],
    # every view's height, so that the views still share one size
    "raster_empty": lambda d: _edit_stacks(d, lambda a: a[:, :0]),
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
        # One stack holds one view size, so views of two sizes are stacks whose shapes disagree.
        scene = D.generate_scene(small_spec(), seed=17)
        with pytest.raises(ContractError, match="not pixel-aligned"):
            replace(scene, depths=scene.depths[:, :16, :16])


class TestSaveSceneTexts:
    def scene_with(self, field, text):
        scene = D.generate_scene(small_spec(object_count=(2, 3)), seed=16)
        if field == "scene_caption":
            return replace(scene, scene_caption=text)
        if field == "view_caption":
            scene.view_captions[1] = text
        elif field == "referring_text":
            scene.objects[0].referring_text = text
        else:
            scene.objects[1].category = text
        return scene

    @pytest.mark.parametrize("field", ["scene_caption", "view_caption", "referring_text", "category"])
    @pytest.mark.parametrize("char", ["\t", "\r", "\n", "\r\n", "\u2028", '"', "\\", "\ud800"])
    def test_round_trip(self, tmp_path, field, char):
        scene = self.scene_with(field, f"a red{char}chair")
        D.save_scene(scene, tmp_path / "scene")
        blob = (tmp_path / "scene" / "scene.upm").read_bytes()
        assert blob[12:header_end(blob)].isascii()
        assert scenes_equal(scene, D.load_scene(tmp_path / "scene"))

    def test_round_trip_of_unusual_texts(self, tmp_path):
        scene = D.generate_scene(small_spec(object_count=(2, 3)), seed=17)
        scene = replace(scene, scene_caption="a=b  room, caf\u00e9 \u00a0 with = signs ")
        scene.view_captions[0] = ""
        scene.view_captions[2] = " leading and trailing spaces "
        scene.objects[0].referring_text = "the \u201cred\u201d chair = seat #1"
        scene.objects[1].category = "arm chair"
        D.save_scene(scene, tmp_path / "scene")
        assert scenes_equal(scene, D.load_scene(tmp_path / "scene"))


class FailingWrites:
    """An ``open`` for ``upm.atomic``: a write to the named file stops halfway and raises.

    The first ``whole_writes`` writes to it succeed; the next one writes
    half its bytes and raises.
    """

    def __init__(self, target: str, whole_writes: int = 0):
        self.target = target
        self.whole_writes = whole_writes
        self.temp_paths = []

    def __call__(self, path, mode):
        fh = open(path, mode)
        if self.target not in Path(path).name:
            return fh
        self.temp_paths.append(Path(path))
        return _FailingHandle(fh, self.whole_writes)


class _FailingHandle:
    def __init__(self, fh, whole_writes):
        self.fh = fh
        self.whole_writes = whole_writes

    def write(self, blob):
        if self.whole_writes:
            self.whole_writes -= 1
            return self.fh.write(blob)
        self.fh.write(blob[: len(blob) // 2])
        self.fh.flush()
        raise OSError("no space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestAtomicWrites:
    def assert_failed_write_keeps(self, monkeypatch, path, write, whole_writes=0):
        before = path.read_bytes()
        failing = FailingWrites(path.name, whole_writes)
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
        # The header and the image stack are written whole; the depth stack stops halfway.
        self.assert_failed_scene_save_keeps_previous(tmp_path, monkeypatch, whole_writes=2)

    def test_meta(self, tmp_path, monkeypatch):
        # The first write, of the header that holds the metadata, stops halfway.
        self.assert_failed_scene_save_keeps_previous(tmp_path, monkeypatch, whole_writes=0)

    def assert_failed_scene_save_keeps_previous(self, tmp_path, monkeypatch, whole_writes):
        """The scene file is the whole commit: a save that fails leaves no
        temp file, and the directory still loads the previous scene bitwise."""
        first = D.generate_scene(small_spec(), seed=18)
        second = D.generate_scene(small_spec(), seed=19)
        D.save_scene(first, tmp_path / "scene")
        self.assert_failed_write_keeps(
            monkeypatch, tmp_path / "scene" / "scene.upm",
            lambda: D.save_scene(second, tmp_path / "scene"), whole_writes=whole_writes)
        assert [path.name for path in (tmp_path / "scene").iterdir()] == ["scene.upm"]
        assert scene_digest(D.load_scene(tmp_path / "scene")) == scene_digest(first)

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

    @pytest.mark.parametrize("entry,match", [
        (("train", "scene\t1"), "tab or a line break"),
        (("train", "scene\n1"), "tab or a line break"),
        (("training", "scene_1"), "unknown split"),
        (("train", "a\udc80"), "not encodable as UTF-8"),
        (("test", "a"), "empty or listed twice"),
        (("val", "a"), "empty or listed twice"),
        (("train", ""), "empty or listed twice"),
    ])
    def test_unloadable_entry_not_written(self, tmp_path, entry, match):
        # Each of the first three once wrote a manifest that load_manifest
        # refused ("malformed manifest line 1", "line 2", "unknown split");
        # the lone surrogate raised an untyped UnicodeEncodeError.  A
        # repeated name once leaked a scene into two splits or trained it
        # twice an epoch, and an empty one named the manifest's directory.
        with pytest.raises(ContractError, match=match):
            D.write_manifest(tmp_path / "manifest.tsv", [("val", "a"), entry])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", ["train\ts0\ntest\ts0\n", "train\ts1\ntrain\ts1\n",
                                      "train\ts0\ntrain\t\n"])
    def test_empty_or_repeated_scene_directory_rejected(self, tmp_path, text):
        path = tmp_path / "manifest.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match="line 2 .* is empty or listed twice"):
            D.load_manifest(path)

    @pytest.mark.parametrize("name", [".", "..", "a/b", "scene/", "/abs/scene", "../scene"])
    def test_scene_directory_beyond_one_component_not_written(self, tmp_path, name):
        # load_split_scenes joins each name to the manifest's directory, so
        # these would load the manifest's own directory, its parent, a
        # nested directory or any absolute path.
        with pytest.raises(ContractError, match="not one plain path component"):
            D.write_manifest(tmp_path / "manifest.tsv", [("val", "a"), ("train", name)])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", [".", "..", "a/b", "scene/", "/abs/scene", "../scene"])
    def test_scene_directory_beyond_one_component_rejected(self, tmp_path, name):
        path = tmp_path / "manifest.tsv"
        path.write_text(f"train\ts0\ntest\t{name}\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2 .* not one plain path component"):
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
