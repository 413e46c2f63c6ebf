"""Tests for pointmap geometry: back-projection, Chamfer, ranks, coverage."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from upm import geometry as G
from upm.errors import ContractError, DegenerateInputError, RangeError, ShapeError
from upm.objectives import GeoAlignConfig, geo_targets


def single_point_map(xyz):
    return G.Pointmap(points=np.asarray(xyz, float).reshape(1, 1, 3), validity=np.ones((1, 1), bool))


def cloud_map(points):
    """Wrap an (n, 3) cloud as an n x 1 pointmap."""
    pts = np.asarray(points, float).reshape(-1, 1, 3)
    return G.Pointmap(points=pts, validity=np.ones(pts.shape[:2], bool))


def project(points_world, intr, pose):
    """Forward-project world points to (u, v, z): the inverse of back_project, as its oracle."""
    pts = np.asarray(points_world, dtype=np.float64).reshape(-1, 3)
    cam = (pts - pose.translation) @ pose.rotation
    z = cam[:, 2]
    u = cam[:, 0] * intr.fx / z + intr.cx
    v = cam[:, 1] * intr.fy / z + intr.cy
    return np.stack([u, v, z], axis=-1)


def chamfer(a, b, subsample=None, seed=G.DEFAULT_CHAMFER_SEED):
    """The Chamfer distance of one pair of pointmaps, read from the pairwise matrix."""
    return G.pairwise_chamfer([a, b], subsample, seed)[0, 1]


def chamfer_points(pts_a, pts_b):
    return chamfer(cloud_map(pts_a), cloud_map(pts_b))


def brute_chamfer(a, b):
    """Scalar-loop Chamfer oracle, independent of the library path."""
    a = np.asarray(a, float).reshape(-1, 3)
    b = np.asarray(b, float).reshape(-1, 3)
    fwd = np.mean([min(np.sum((x - y) ** 2) for y in b) for x in a])
    bwd = np.mean([min(np.sum((x - y) ** 2) for x in a) for y in b])
    return fwd + bwd


def brute_path_chamfer(a, b):
    """Chamfer through the exhaustive scan, the oracle the KD-tree path must match bitwise."""
    return float(np.mean(G._min_sq_dists_brute(a, b)) + np.mean(G._min_sq_dists_brute(b, a)))


def proximity_ranks(maps, anchor):
    """Every other view's 0-based rank by Chamfer distance to the anchor, as geo_targets ranks."""
    return G._ranks_by_distance(G.pairwise_chamfer(maps)[anchor], anchor)


def identity_pose():
    return G.CameraPose(rotation=np.eye(3), translation=np.zeros(3))


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestCameraTypes:
    def test_intrinsics_reject_nonpositive_focal(self):
        with pytest.raises(ContractError):
            G.CameraIntrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0)

    def test_pose_rejects_non_orthonormal(self):
        with pytest.raises(ContractError):
            G.CameraPose(rotation=np.eye(3) * 2.0, translation=np.zeros(3))

    def test_pose_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ContractError):
            G.CameraPose(rotation=r, translation=np.zeros(3))

    def test_aabb_ordering(self):
        with pytest.raises(ContractError):
            G.ObjectAnnotation(0, [1, 0, 0], [0, 1, 1], "t", "c")


class TestBackProject:
    def test_principal_ray(self):
        intr = G.CameraIntrinsics(100, 100, 50, 50)
        depth = np.zeros((101, 101))
        depth[50, 50] = 2.0
        pm = G.back_project(depth, intr, identity_pose())
        np.testing.assert_allclose(pm.points[50, 50], [0.0, 0.0, 2.0])
        assert pm.validity[50, 50]
        assert not pm.validity[0, 0]

    def test_pure_translation(self):
        intr = G.CameraIntrinsics(100, 100, 50, 50)
        pose = G.CameraPose(rotation=np.eye(3), translation=np.array([1.0, 0.0, 0.0]))
        depth = np.zeros((101, 101))
        depth[50, 50] = 2.0
        pm = G.back_project(depth, intr, pose)
        np.testing.assert_allclose(pm.points[50, 50], [1.0, 0.0, 2.0])

    def test_round_trip_through_projection(self):
        rng = np.random.default_rng(19)
        intr = G.CameraIntrinsics(40.0, 44.0, 15.5, 15.5)
        pose = G.CameraPose(rotation=random_rotation(rng), translation=rng.normal(size=3))
        depth = rng.uniform(0.5, 4.0, size=(32, 32))
        depth[rng.random((32, 32)) < 0.3] = 0.0
        pm = G.back_project(depth, intr, pose)
        vs, us = np.nonzero(pm.validity)
        uvz = project(pm.points[vs, us], intr, pose)
        np.testing.assert_allclose(uvz[:, 0], us, atol=1e-9)
        np.testing.assert_allclose(uvz[:, 1], vs, atol=1e-9)
        np.testing.assert_allclose(uvz[:, 2], depth[vs, us], atol=1e-9)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            G.back_project(np.zeros((2, 2, 2)), G.CameraIntrinsics(1, 1, 0, 0), identity_pose())

    def test_rejects_negative_depth(self):
        with pytest.raises(ContractError):
            G.back_project(np.full((2, 2), -1.0), G.CameraIntrinsics(1, 1, 0, 0), identity_pose())


class TestChamferDistance:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(2)
        pm = cloud_map(rng.normal(size=(20, 3)))
        assert chamfer(pm, pm) == 0.0

    def test_single_point_pair(self):
        a = single_point_map([0, 0, 0])
        b = single_point_map([1, 0, 0])
        assert chamfer(a, b) == pytest.approx(2.0)

    def test_two_against_one(self):
        a = cloud_map([[0, 0, 0], [2, 0, 0]])
        b = cloud_map([[1, 0, 0]])
        # (1 + 1)/2 forward, plus 1 backward.
        assert chamfer(a, b) == pytest.approx(brute_chamfer(a.valid_points(), b.valid_points()))
        assert chamfer(a, b) == pytest.approx(2.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = cloud_map(rng.normal(size=(rng.integers(1, 30), 3)))
            b = cloud_map(rng.normal(size=(rng.integers(1, 30), 3)))
            expected = brute_chamfer(a.valid_points(), b.valid_points())
            assert chamfer(a, b) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        a = cloud_map(rng.normal(size=(17, 3)))
        b = cloud_map(rng.normal(size=(23, 3)))
        assert chamfer(a, b) == chamfer(b, a)

    def test_symmetry_exact_under_subsampling(self):
        rng = np.random.default_rng(6)
        a = cloud_map(rng.normal(size=(60, 3)))
        b = cloud_map(rng.normal(size=(45, 3)))
        fwd = chamfer(a, b, subsample=16, seed=9)
        rev = chamfer(b, a, subsample=16, seed=9)
        assert fwd == rev

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        pts_a = rng.normal(size=(12, 3))
        pts_b = rng.normal(size=(9, 3))
        base = chamfer_points(pts_a, pts_b)
        for _ in range(5):
            shuffled = chamfer_points(rng.permutation(pts_a), rng.permutation(pts_b))
            assert shuffled == pytest.approx(base, abs=1e-12)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(8)
        pts_a = rng.normal(size=(14, 3))
        pts_b = rng.normal(size=(11, 3))
        r = random_rotation(rng)
        t = rng.normal(size=3)
        base = chamfer_points(pts_a, pts_b)
        moved = chamfer_points(pts_a @ r.T + t, pts_b @ r.T + t)
        assert abs(base - moved) <= 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = cloud_map(rng.normal(size=(rng.integers(1, 15), 3)))
            b = cloud_map(rng.normal(size=(rng.integers(1, 15), 3)))
            assert chamfer(a, b) >= 0.0

    def test_empty_set_rejected(self):
        empty = G.Pointmap(points=np.zeros((2, 2, 3)), validity=np.zeros((2, 2), bool))
        with pytest.raises(DegenerateInputError):
            chamfer(empty, single_point_map([0, 0, 0]))

    def test_grid_agrees_bitwise_with_brute(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            pts_a = rng.uniform(-3, 3, size=(rng.integers(1, 120), 3))
            pts_b = rng.uniform(-3, 3, size=(rng.integers(1, 120), 3))
            assert chamfer_points(pts_a, pts_b) == brute_path_chamfer(pts_a, pts_b)

    def test_grid_handles_identical_points(self):
        pts = np.zeros((5, 3))
        assert chamfer_points(pts, pts) == brute_path_chamfer(pts, pts) == 0.0


class TestKdTreeNearest:
    """The KD-tree nearest distances equal the exhaustive scan's bitwise."""

    def assert_bitwise(self, queries, targets):
        kd = G._min_sq_dists(queries, targets, cKDTree(targets))
        assert np.array_equal(kd, G._min_sq_dists_brute(queries, targets))
        assert chamfer_points(queries, targets) == brute_path_chamfer(queries, targets)

    def test_integer_lattice_ties(self):
        # Half-integer queries sit equidistant from up to eight lattice points.
        rng = np.random.default_rng(31)
        for _ in range(20):
            targets = rng.integers(-3, 4, size=(rng.integers(1, 200), 3)).astype(float)
            queries = rng.integers(-6, 7, size=(rng.integers(1, 200), 3)) / 2.0
            self.assert_bitwise(queries, targets)

    def test_targets_contain_queries(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            queries = rng.normal(size=(rng.integers(1, 100), 3))
            extra = rng.normal(size=(rng.integers(0, 100), 3))
            targets = rng.permutation(np.vstack([queries, extra, queries[:3]]))
            self.assert_bitwise(queries, targets)

    def test_tight_clusters_far_from_origin(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            centers = rng.uniform(-1e6, 1e6, size=(3, 3))
            queries = centers[rng.integers(0, 3, 80)] + 1e-6 * rng.normal(size=(80, 3))
            targets = centers[rng.integers(0, 3, 60)] + 1e-6 * rng.normal(size=(60, 3))
            self.assert_bitwise(queries, targets)

    def test_single_point_targets(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            self.assert_bitwise(rng.normal(size=(rng.integers(1, 50), 3)), rng.normal(size=(1, 3)))


class TestPairwiseChamfer:
    def test_symmetric_and_equal_to_each_pair(self):
        rng = np.random.default_rng(35)
        maps = [cloud_map(rng.normal(size=(rng.integers(1, 90), 3))) for _ in range(6)]
        maps.append(cloud_map(rng.integers(-2, 3, size=(40, 3)).astype(float)))
        cd = G.pairwise_chamfer(maps, subsample=32, seed=4)
        assert np.array_equal(cd, cd.T)
        assert np.all(np.diag(cd) == 0.0)
        for v, u in itertools.combinations(range(len(maps)), 2):
            assert cd[v, u] == chamfer(maps[v], maps[u], subsample=32, seed=4)

    def test_empty_view_rejected(self):
        empty = G.Pointmap(points=np.zeros((2, 2, 3)), validity=np.zeros((2, 2), bool))
        with pytest.raises(DegenerateInputError):
            G.pairwise_chamfer([single_point_map([0, 0, 0]), empty])

    def test_scipy_spatial_imported_lazily(self):
        code = "import sys, upm.evaluation, upm.trainer; print('scipy.spatial' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(G.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.strip() == "False"


class TestProximityRanks:
    def test_two_views(self):
        maps = [single_point_map([0, 0, 0]), single_point_map([3, 0, 0])]
        assert proximity_ranks(maps, anchor=0) == {1: 0}

    def test_collinear_points(self):
        maps = [single_point_map([x, 0, 0]) for x in (0.0, 1.0, 5.0)]
        assert proximity_ranks(maps, anchor=0) == {1: 0, 2: 1}

    def test_tie_breaks_to_lower_index(self):
        maps = [
            single_point_map([0, 0, 0]),
            single_point_map([1, 0, 0]),
            single_point_map([-1, 0, 0]),
        ]
        ranks = proximity_ranks(maps, anchor=0)
        assert ranks[1] == 0 and ranks[2] == 1

    def test_ranks_are_a_bijection(self):
        rng = np.random.default_rng(13)
        maps = [cloud_map(rng.normal(size=(8, 3))) for _ in range(6)]
        for anchor in range(6):
            ranks = proximity_ranks(maps, anchor)
            assert sorted(ranks.keys()) == [u for u in range(6) if u != anchor]
            assert sorted(ranks.values()) == list(range(5))

    def test_single_view_rejected(self):
        # geo_targets ranks the views of a scene, and there are none to rank.
        with pytest.raises(DegenerateInputError):
            geo_targets([single_point_map([0, 0, 0])], GeoAlignConfig())


class TestVisibility:
    def box(self):
        return G.ObjectAnnotation(0, [-1, -1, -1], [1, 1, 1], "the box", "box")

    def test_fully_inside(self):
        pm = cloud_map(np.zeros((5, 3)))
        assert G.visibility_pairs([pm], [self.box()], min_points=1) == {(0, 0)}

    def test_fully_outside(self):
        pm = cloud_map(np.full((5, 3), 10.0))
        assert G.visibility_pairs([pm], [self.box()], min_points=1) == set()

    def test_threshold_boundary(self):
        inside = np.zeros((4, 3))
        outside = np.full((6, 3), 9.0)
        pm = cloud_map(np.vstack([inside, outside]))
        assert G.visibility_pairs([pm], [self.box()], min_points=5) == set()
        assert G.visibility_pairs([pm], [self.box()], min_points=4) == {(0, 0)}

    def test_inclusive_bounds(self):
        pm = cloud_map([[1.0, 1.0, 1.0]])
        assert G.visibility_pairs([pm], [self.box()], min_points=1) == {(0, 0)}

    def test_min_points_validation(self):
        with pytest.raises(ContractError):
            G.visibility_pairs([], [], min_points=0)


class TestVisibleArea:
    def test_disjoint_is_zero(self):
        pm = cloud_map(np.full((7, 3), 5.0))
        obj = G.ObjectAnnotation(0, [-1, -1, -1], [1, 1, 1], "t", "c")
        assert G.visible_areas([pm], [obj])[0, 0] == 0

    def test_all_points_inside(self):
        pts = np.zeros((3, 4, 3))
        pm = G.Pointmap(points=pts, validity=np.ones((3, 4), bool))
        obj = G.ObjectAnnotation(0, [-1, -1, -1], [1, 1, 1], "t", "c")
        assert G.visible_areas([pm], [obj])[0, 0] == 12

    def test_half_plane_exact_count(self):
        xs = np.linspace(-2, 2, 9)
        pts = np.stack([xs, np.zeros(9), np.zeros(9)], axis=-1)
        pm = cloud_map(pts)
        obj = G.ObjectAnnotation(0, [0, -1, -1], [3, 1, 1], "t", "c")
        expected = int(np.sum(xs >= 0))
        assert G.visible_areas([pm], [obj])[0, 0] == expected


class TestVisibleAreas:
    def test_matches_elementwise_count(self):
        rng = np.random.default_rng(36)
        maps = [cloud_map(rng.integers(-3, 4, size=(rng.integers(1, 60), 3)).astype(float))
                for _ in range(5)]
        maps.append(G.Pointmap(points=np.zeros((2, 2, 3)), validity=np.zeros((2, 2), bool)))
        objects = []
        for i in range(4):
            lo = rng.integers(-3, 2, size=3).astype(float)
            objects.append(G.ObjectAnnotation(i, lo, lo + rng.integers(0, 3, size=3), "t", "c"))
        areas = G.visible_areas(maps, objects)
        assert areas.shape == (6, 4) and areas.dtype == np.int64
        for v, pm in enumerate(maps):
            for o, obj in enumerate(objects):
                expected = sum(
                    all(obj.aabb_min[k] <= p[k] <= obj.aabb_max[k] for k in range(3))
                    for p in pm.valid_points()
                )
                assert areas[v, o] == expected

    def test_no_objects(self):
        assert G.visible_areas([single_point_map([0, 0, 0])], []).shape == (1, 0)


def voxel_set(pm, voxel):
    return set(map(tuple, np.floor(pm.valid_points() / voxel).astype(np.int64)))


def coverage(maps, views, voxel):
    """Voxel count covered by a view subset, over Python sets of voxel tuples."""
    return len(set().union(*(voxel_set(maps[v], voxel) for v in views)))


def set_based_coverage_sample(maps, budget, voxel):
    """Greedy max coverage over Python sets of voxel tuples, the reference selection."""
    voxels = [voxel_set(pm, voxel) for pm in maps]
    covered, chosen, remaining = set(), [], list(range(len(maps)))
    while len(chosen) < budget:
        gains = [len(voxels[v] - covered) for v in remaining]
        if max(gains) <= 0:
            break
        best = remaining[int(np.argmax(gains))]
        chosen.append(best)
        covered |= voxels[best]
        remaining.remove(best)
    return chosen + remaining[: budget - len(chosen)]


class TestMaxCoverage:
    def test_matches_set_based_reference(self):
        rng = np.random.default_rng(37)
        empty = G.Pointmap(points=np.zeros((1, 1, 3)), validity=np.zeros((1, 1), bool))
        for _ in range(30):
            maps = [cloud_map(rng.uniform(-2, 2, size=(rng.integers(1, 40), 3)))
                    for _ in range(rng.integers(1, 7))]
            if rng.random() < 0.3:
                maps.insert(int(rng.integers(0, len(maps) + 1)), empty)
            if rng.random() < 0.3:
                maps.append(maps[0])
            voxel = float(rng.choice([0.3, 0.8, 2.0]))
            for budget in range(1, len(maps) + 1):
                expected = set_based_coverage_sample(maps, budget, voxel)
                assert G.max_coverage_sample(maps, budget, voxel) == expected

    def test_key_overflow_raises(self):
        wide = cloud_map([[0.0, 0.0, 0.0], [1e7, 1e7, 1e7]])
        with pytest.raises(RangeError):
            G.max_coverage_sample([wide], budget=1, voxel_size=1e-1)
        with pytest.raises(RangeError):
            G.max_coverage_sample([cloud_map([[1e300, 0.0, 0.0]])], budget=1, voxel_size=1e-10)

    def test_full_budget_returns_all_views(self):
        rng = np.random.default_rng(21)
        maps = [cloud_map(rng.normal(size=(10, 3))) for _ in range(4)]
        chosen = G.max_coverage_sample(maps, budget=4, voxel_size=0.5)
        assert sorted(chosen) == [0, 1, 2, 3]

    def test_duplicate_views_deprioritized(self):
        shared = cloud_map(np.zeros((5, 3)))
        duplicate = cloud_map(np.zeros((5, 3)))
        disjoint = cloud_map(np.full((5, 3), 10.0))
        chosen = G.max_coverage_sample([shared, duplicate, disjoint], budget=2, voxel_size=1.0)
        assert chosen == [0, 2]

    def test_beats_every_fixed_triple(self):
        # Frozen instance where the exhaustive enumeration confirms greedy
        # attains the optimum, so it dominates every fixed triple.
        rng = np.random.default_rng(1)
        maps = [cloud_map(rng.uniform(-2, 2, size=(30, 3))) for _ in range(6)]
        voxel = 0.8
        chosen = G.max_coverage_sample(maps, budget=3, voxel_size=voxel)
        greedy_cover = coverage(maps, chosen, voxel)
        for triple in itertools.combinations(range(6), 3):
            assert greedy_cover >= coverage(maps, triple, voxel)

    def test_greedy_approximation_guarantee(self):
        # On arbitrary instances greedy is within (1 - 1/e) of the best
        # enumerated triple, and its first pick is the best single view.
        for seed in (3, 4, 23):
            rng = np.random.default_rng(seed)
            maps = [cloud_map(rng.uniform(-2, 2, size=(30, 3))) for _ in range(6)]
            voxel = 0.8
            chosen = G.max_coverage_sample(maps, budget=3, voxel_size=voxel)
            greedy_cover = coverage(maps, chosen, voxel)
            best_triple = max(
                coverage(maps, t, voxel) for t in itertools.combinations(range(6), 3)
            )
            assert greedy_cover >= (1 - 1 / np.e) * best_triple
            first = G.max_coverage_sample(maps, budget=1, voxel_size=voxel)[0]
            assert coverage(maps, [first], voxel) == max(
                coverage(maps, [v], voxel) for v in range(6)
            )

    def test_coverage_monotone_in_budget(self):
        rng = np.random.default_rng(29)
        maps = [cloud_map(rng.uniform(-2, 2, size=(20, 3))) for _ in range(5)]
        covers = [
            coverage(maps, G.max_coverage_sample(maps, k, 0.5), 0.5) for k in range(1, 6)
        ]
        assert all(b >= a for a, b in zip(covers, covers[1:]))

    def test_smaller_budget_picks_are_a_prefix(self):
        # retrieval_views_curve reads every budget's picks off one run at the largest.
        rng = np.random.default_rng(41)
        spread = [cloud_map(rng.uniform(-2, 2, size=(25, 3))) for _ in range(7)]
        # Coverage saturates after views 0 and 2, so the rest fill by ascending index.
        a, b = cloud_map(np.zeros((4, 3))), cloud_map(np.full((4, 3), 5.0))
        saturating = [a, a, b, b, a]
        assert G.max_coverage_sample(saturating, 5, 0.5) == [0, 2, 1, 3, 4]
        for maps in (spread, saturating):
            largest = G.max_coverage_sample(maps, len(maps), 0.5)
            for budget in range(1, len(maps) + 1):
                assert G.max_coverage_sample(maps, budget, 0.5) == largest[:budget]

    def test_budget_validation(self):
        maps = [single_point_map([0, 0, 0])]
        with pytest.raises(ContractError):
            G.max_coverage_sample(maps, budget=2, voxel_size=1.0)
        with pytest.raises(ContractError):
            G.max_coverage_sample(maps, budget=1, voxel_size=0.0)
