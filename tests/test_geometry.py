"""Tests for pointmap geometry: back-projection, Chamfer, ranks, coverage."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from upm import data as D
from upm import geometry as G
from upm.errors import (
    ContractError,
    DegenerateInputError,
    NumericError,
    RangeError,
    ShapeError,
    UpmError,
)
from upm.objectives import geo_targets, soft_targets


def stack(clouds):
    """Pointmaps of ragged (n, 3) clouds, each cloud an n x 1 view.

    Returns points (V, N, 1, 3) and validity (V, N, 1).  Views are padded to
    the largest cloud, and to at least one pixel, with invalid pixels at the
    origin.
    """
    clouds = [np.asarray(c, float).reshape(-1, 3) for c in clouds]
    n = max([1] + [len(c) for c in clouds])
    points = np.zeros((len(clouds), n, 1, 3))
    validity = np.zeros((len(clouds), n, 1), bool)
    for v, cloud in enumerate(clouds):
        points[v, : len(cloud), 0] = cloud
        validity[v, : len(cloud)] = True
    return points, validity


EMPTY = np.empty((0, 3))
# A Chamfer subsample count above every test set's size, so every point is kept.
EVERY_POINT = 1 << 20


def oracle_back_project(depth, intrinsics, rotation, translation):
    """One view's back-projection, one view at a time: the oracle of the batched ``back_project``."""
    depth = np.asarray(depth, dtype=np.float64)
    fx, fy, cx, cy = intrinsics
    h, w = depth.shape
    u = np.arange(w, dtype=np.float64)[None, :]
    v = np.arange(h, dtype=np.float64)[:, None]
    x_cam = (u - cx) * depth / fx
    y_cam = (v - cy) * depth / fy
    world = np.stack([((x_cam * rotation[a, 0] + y_cam * rotation[a, 1]) + depth * rotation[a, 2])
                      + translation[a] for a in range(3)], axis=-1)
    validity = depth > 0
    world[~validity] = 0.0
    return world, validity


def back_project_one(depth, intrinsics, rotation=np.eye(3), translation=np.zeros(3)):
    """Back-project a single view through the batched ``back_project``."""
    points, validity = G.back_project(np.asarray(depth)[None], [intrinsics], [rotation], [translation])
    return points[0], validity[0]


def project(points_world, intrinsics, rotation, translation):
    """Forward-project world points to (u, v, z): the inverse of back_project, as its oracle."""
    fx, fy, cx, cy = intrinsics
    pts = np.asarray(points_world, dtype=np.float64).reshape(-1, 3)
    cam = (pts - translation) @ rotation
    z = cam[:, 2]
    u = cam[:, 0] * fx / z + cx
    v = cam[:, 1] * fy / z + cy
    return np.stack([u, v, z], axis=-1)


def mean_min_sq_dists(point_sets):
    """Entry [v, u]: mean squared distance from set v to its nearest points in set u.

    Each set is searched once by the exact ``_min_sq_dists``, with every
    other set's points concatenated as the queries; the distances are
    split back per source set.  The diagonal is zero.
    """
    if any(len(pts) == 0 for pts in point_sets):
        raise DegenerateInputError("Chamfer distance needs at least one valid point per set")
    n_sets = len(point_sets)
    means = np.zeros((n_sets, n_sets))
    for u, targets in enumerate(point_sets):
        sources = [v for v in range(n_sets) if v != u]
        if not sources:  # a single set: its one entry is the zero diagonal
            break
        queries = np.concatenate([point_sets[v] for v in sources])
        dists = G._min_sq_dists(queries, targets)
        splits = np.cumsum([len(point_sets[v]) for v in sources])[:-1]
        for v, part in zip(sources, np.split(dists, splits)):
            means[v, u] = np.mean(part)
    return means


def pairwise_chamfer(points, validity, subsample, seed):
    """Symmetric (V, V) matrix of exact Chamfer distances between all view pairs: the
    oracle whose ranks ``chamfer_ranks`` must give.

    Each view's valid points are subsampled once as ``chamfer_ranks``
    subsamples them.  Entry [v, u] averages the squared distance from every
    point of v to its nearest neighbor in u, and adds the same average from
    u to v; the diagonal is zero.  A single view gives [[0.0]]; a
    non-finite valid point raises ``NumericError``.
    """
    finite = np.isfinite(points)
    if not finite.all() and not finite.all(axis=-1)[validity].all():
        raise NumericError("Chamfer distance over a non-finite valid point")
    means = mean_min_sq_dists([G._subsample(p[m], subsample, seed) for p, m in zip(points, validity)])
    return means + means.T


def exact_ranks(points, validity, subsample=EVERY_POINT, seed=0):
    """The (V, V-1) ranks of the oracle's off-diagonal distances, ties to the lower index."""
    cd = pairwise_chamfer(points, validity, subsample, seed)
    off_diagonal = cd[~np.eye(len(cd), dtype=bool)].reshape(len(cd), len(cd) - 1)
    return np.argsort(np.argsort(off_diagonal, axis=1, kind="stable"), axis=1)


def chamfer(a, b, subsample=EVERY_POINT, seed=0):
    """The Chamfer distance of one pair of clouds, read from the pairwise matrix."""
    return pairwise_chamfer(*stack([a, b]), subsample, seed)[0, 1]


def brute_chamfer(a, b):
    """Scalar-loop Chamfer oracle, independent of the library path."""
    a = np.asarray(a, float).reshape(-1, 3)
    b = np.asarray(b, float).reshape(-1, 3)
    fwd = np.mean([min(np.sum((x - y) ** 2) for y in b) for x in a])
    bwd = np.mean([min(np.sum((x - y) ** 2) for x in a) for y in b])
    return fwd + bwd


def oracle_min_sq_dists(queries, targets):
    """Each query's squared distance to its nearest target, as one broadcast expression:
    the oracle ``_min_sq_dists`` must match bitwise.  An overflowing square is inf."""
    with np.errstate(over="ignore"):
        diff = queries[:, None, :] - targets[None, :, :]
        return (diff * diff).sum(axis=2).min(axis=1)


def brute_path_chamfer(a, b):
    """Chamfer through the broadcast oracle, which the blocked scan must match bitwise."""
    return float(np.mean(oracle_min_sq_dists(a, b)) + np.mean(oracle_min_sq_dists(b, a)))


def proximity_ranks(clouds, anchor):
    """Every other view's 0-based rank by Chamfer distance to the anchor, ties to the
    lower index: the oracle for geo_targets' ranking."""
    distances = pairwise_chamfer(*stack(clouds), EVERY_POINT, 0)[anchor]
    order = sorted((u for u in range(len(clouds)) if u != anchor), key=lambda u: (distances[u], u))
    return {u: rank for rank, u in enumerate(order)}


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def two_view_scene(stack, view, value):
    """A two-view ``data.Scene`` whose camera ``stack`` holds ``value`` at view ``view``."""
    cameras = {"intrinsics": np.array([[10.0, 10.0, 4.0, 4.0]] * 2),
               "rotations": np.stack([np.eye(3)] * 2), "translations": np.zeros((2, 3))}
    cameras[stack][view] = value
    return D.Scene("s", np.zeros((2, 8, 8, 3)), np.ones((2, 8, 8)), objects=[],
                   scene_type="bedroom", scene_caption="", view_captions=["", ""], **cameras)


class TestCameraTypes:
    # A scene's cameras are (V, ...) stacks, and data.Scene checks them once.
    def test_intrinsics_reject_nonpositive_focal(self):
        with pytest.raises(ContractError):
            two_view_scene("intrinsics", 1, [0.0, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_intrinsics_reject_non_finite(self, field, bad):
        with pytest.raises(ContractError, match="finite"):
            two_view_scene("intrinsics", (1, ["fx", "fy", "cx", "cy"].index(field)), bad)

    @pytest.mark.parametrize("part, index", [("rotation", (0, 0)), ("rotation", (2, 1)),
                                             ("translation", (0,)), ("translation", (2,))])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pose_rejects_non_finite(self, part, index, bad):
        with pytest.raises(ContractError, match="finite"):
            two_view_scene(part + "s", (1, *index), bad)

    def test_pose_rejects_non_orthonormal(self):
        with pytest.raises(ContractError, match="orthonormal"):
            two_view_scene("rotations", 1, np.eye(3) * 2.0)

    def test_pose_rejects_reflection(self):
        with pytest.raises(ContractError, match="determinant"):
            two_view_scene("rotations", 0, np.diag([1.0, 1.0, -1.0]))

    def test_aabb_ordering(self):
        with pytest.raises(ContractError):
            G.ObjectAnnotation(0, [1, 0, 0], [0, 1, 1], "t", "c")
        for lo, hi in (([np.nan, 0, 0], [1, 1, 1]), ([0, 0, 0], [np.inf, 1, 1]),
                       ([-np.inf, 0, 0], [1, 1, 1])):
            with pytest.raises(ContractError, match="finite"):
                G.ObjectAnnotation(0, lo, hi, "t", "c")


class TestBackProject:
    def test_principal_ray(self):
        depth = np.zeros((101, 101))
        depth[50, 50] = 2.0
        points, validity = back_project_one(depth, [100, 100, 50, 50])
        np.testing.assert_allclose(points[50, 50], [0.0, 0.0, 2.0])
        assert validity[50, 50]
        assert not validity[0, 0]

    def test_pure_translation(self):
        depth = np.zeros((101, 101))
        depth[50, 50] = 2.0
        points, _ = back_project_one(depth, [100, 100, 50, 50], np.eye(3), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(points[50, 50], [1.0, 0.0, 2.0])

    def test_round_trip_through_projection(self):
        rng = np.random.default_rng(19)
        camera = ([40.0, 44.0, 15.5, 15.5], random_rotation(rng), rng.normal(size=3))
        depth = rng.uniform(0.5, 4.0, size=(32, 32))
        depth[rng.random((32, 32)) < 0.3] = 0.0
        points, validity = back_project_one(depth, *camera)
        vs, us = np.nonzero(validity)
        uvz = project(points[vs, us], *camera)
        np.testing.assert_allclose(uvz[:, 0], us, atol=1e-9)
        np.testing.assert_allclose(uvz[:, 1], vs, atol=1e-9)
        np.testing.assert_allclose(uvz[:, 2], depth[vs, us], atol=1e-9)

    def test_rejects_bad_shapes(self):
        cameras = ([[1.0, 1.0, 0.0, 0.0]], [np.eye(3)], [np.zeros(3)])
        with pytest.raises(ShapeError):
            G.back_project(np.zeros((2, 2)), *cameras)
        with pytest.raises(ShapeError):
            G.back_project(np.zeros((2, 2, 2)), *cameras)
        for stack, bad in ((0, [[1.0, 1.0, 0.0]]), (1, np.eye(3)), (2, [np.zeros(4)])):
            with pytest.raises(ShapeError):
                G.back_project(np.zeros((1, 2, 2)), *cameras[:stack], bad, *cameras[stack + 1:])

    def test_rejects_negative_depth(self):
        with pytest.raises(ContractError):
            back_project_one(np.full((2, 2), -1.0), [1.0, 1.0, 0.0, 0.0])

    def test_invalid_pixels_are_positive_zero(self):
        # The encoder patchifies the points as they are, so every zero-depth
        # pixel must hold +0.0 bytes, although the camera would put it at t.
        rng = np.random.default_rng(45)
        rotations, translations = zip(*[(random_rotation(rng), rng.uniform(1.0, 3.0, size=3))
                                        for _ in range(3)])
        depths = rng.uniform(0.2, 6.0, size=(3, 16, 16))
        depths[rng.random(depths.shape) < 0.3] = 0.0
        points, validity = G.back_project(depths, [[20.0, 24.0, 7.5, 8.5]] * 3, rotations,
                                          translations)
        invalid = ~validity
        assert invalid.any(axis=(1, 2)).all()
        assert points[invalid].tobytes() == bytes(points[invalid].nbytes)

    def test_overflow_raises_typed_error_without_warning(self):
        # A finite depth and a valid camera whose points overflow float64.
        rotation = random_rotation(np.random.default_rng(46))
        depths = np.zeros((2, 3, 3))
        depths[1, 2, 1] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="non-finite") as info:
                G.back_project(depths, [[1.0, 1.0, -10.0, -10.0]] * 2, [rotation] * 2,
                               np.ones((2, 3)))
        assert isinstance(info.value, UpmError)

    @pytest.mark.parametrize("views, h, w", [(5, 32, 32), (1, 32, 32), (3, 17, 23), (2, 1, 1)])
    def test_batch_bytes_equal_oracle(self, views, h, w):
        # Per-view intrinsics and poses, with zero-depth pixels in every view.
        rng = np.random.default_rng(h * w + views)
        intrinsics = np.concatenate([rng.uniform(10.0, 50.0, size=(views, 2)),
                                     rng.uniform(-5.0, 20.0, size=(views, 2))], axis=1)
        rotations = np.array([random_rotation(rng) for _ in range(views)])
        translations = rng.normal(size=(views, 3))
        depths = rng.uniform(0.2, 6.0, size=(views, h, w))
        depths[rng.random(depths.shape) < 0.3] = 0.0
        points, validity = G.back_project(depths, intrinsics, rotations, translations)
        assert points.shape == (views, h, w, 3) and validity.shape == (views, h, w)
        for v in range(views):
            oracle_points, oracle_validity = oracle_back_project(depths[v], intrinsics[v],
                                                                 rotations[v], translations[v])
            assert points[v].tobytes() == oracle_points.tobytes()
            assert np.array_equal(validity[v], oracle_validity)


class TestChamferDistance:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(20, 3))
        assert chamfer(pts, pts) == 0.0

    def test_single_point_pair(self):
        assert chamfer([[0, 0, 0]], [[1, 0, 0]]) == pytest.approx(2.0)

    def test_two_against_one(self):
        a = [[0, 0, 0], [2, 0, 0]]
        b = [[1, 0, 0]]
        # (1 + 1)/2 forward, plus 1 backward.
        assert chamfer(a, b) == pytest.approx(brute_chamfer(a, b))
        assert chamfer(a, b) == pytest.approx(2.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=(rng.integers(1, 30), 3))
            b = rng.normal(size=(rng.integers(1, 30), 3))
            assert chamfer(a, b) == pytest.approx(brute_chamfer(a, b), abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(17, 3))
        b = rng.normal(size=(23, 3))
        assert chamfer(a, b) == chamfer(b, a)

    def test_symmetry_exact_under_subsampling(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(60, 3))
        b = rng.normal(size=(45, 3))
        fwd = chamfer(a, b, subsample=16, seed=9)
        rev = chamfer(b, a, subsample=16, seed=9)
        assert fwd == rev

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        pts_a = rng.normal(size=(12, 3))
        pts_b = rng.normal(size=(9, 3))
        base = chamfer(pts_a, pts_b)
        for _ in range(5):
            shuffled = chamfer(rng.permutation(pts_a), rng.permutation(pts_b))
            assert shuffled == pytest.approx(base, abs=1e-12)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(8)
        pts_a = rng.normal(size=(14, 3))
        pts_b = rng.normal(size=(11, 3))
        r = random_rotation(rng)
        t = rng.normal(size=3)
        base = chamfer(pts_a, pts_b)
        moved = chamfer(pts_a @ r.T + t, pts_b @ r.T + t)
        assert abs(base - moved) <= 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.normal(size=(rng.integers(1, 15), 3))
            b = rng.normal(size=(rng.integers(1, 15), 3))
            assert chamfer(a, b) >= 0.0

    def test_empty_set_rejected(self):
        with pytest.raises(DegenerateInputError):
            chamfer(EMPTY, [[0, 0, 0]])

    def test_grid_agrees_bitwise_with_brute(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            pts_a = rng.uniform(-3, 3, size=(rng.integers(1, 120), 3))
            pts_b = rng.uniform(-3, 3, size=(rng.integers(1, 120), 3))
            assert chamfer(pts_a, pts_b) == brute_path_chamfer(pts_a, pts_b)

    def test_grid_handles_identical_points(self):
        pts = np.zeros((5, 3))
        assert chamfer(pts, pts) == brute_path_chamfer(pts, pts) == 0.0


class TestNearest:
    """The blocked scan's nearest distances equal the broadcast oracle's bitwise."""

    def assert_bitwise(self, queries, targets):
        assert np.array_equal(G._min_sq_dists(queries, targets),
                              oracle_min_sq_dists(queries, targets))
        assert chamfer(queries, targets) == brute_path_chamfer(queries, targets)

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

    @pytest.mark.parametrize("count", [1, 127, 128, 129, 257])
    def test_query_counts_across_block_edges(self, count):
        # Counts on either side of the 128-row block edges leave a partial
        # last block; about 60% of half-integer queries tie on the lattice.
        rng = np.random.default_rng(36 + count)
        targets = rng.integers(-3, 4, size=(150, 3)).astype(float)
        self.assert_bitwise(rng.normal(size=(count, 3)), targets)
        self.assert_bitwise(rng.integers(-6, 7, size=(count, 3)) / 2.0, targets)

    def test_underflowing_coordinates(self):
        # Squares near 1e-322 are subnormal, so rounding is no longer
        # relative to the scale.
        rng = np.random.default_rng(38)
        for _ in range(20):
            self.assert_bitwise(rng.normal(size=(100, 3)) * 1e-161, rng.normal(size=(60, 3)) * 1e-161)

    @pytest.mark.parametrize("huge", ["queries", "targets", "both"])
    def test_overflowing_coordinates_give_inf(self, huge):
        # Squares of 1e200 overflow to inf: a huge query's minimum is inf,
        # and a huge target is nearest only to its copy, at distance 0.
        rng = np.random.default_rng(37)
        queries, targets = rng.normal(size=(200, 3)), rng.normal(size=(40, 3))
        if huge in ("queries", "both"):
            queries[::3] *= 1e200
        if huge in ("targets", "both"):
            targets[5] = 1e200 * np.array([1.0, -2.0, 0.5])
            queries[7] = targets[5]
        expected = oracle_min_sq_dists(queries, targets)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = G._min_sq_dists(queries, targets)
        assert np.array_equal(got, expected)
        assert np.isinf(expected).any() == (huge != "targets")


class TestPairwiseChamfer:
    def test_symmetric_and_equal_to_each_pair(self):
        rng = np.random.default_rng(35)
        clouds = [rng.normal(size=(rng.integers(1, 90), 3)) for _ in range(6)]
        clouds.append(rng.integers(-2, 3, size=(40, 3)).astype(float))
        cd = pairwise_chamfer(*stack(clouds), subsample=32, seed=4)
        assert np.array_equal(cd, cd.T)
        assert np.all(np.diag(cd) == 0.0)
        for v, u in itertools.combinations(range(len(clouds)), 2):
            assert cd[v, u] == chamfer(clouds[v], clouds[u], subsample=32, seed=4)

    def test_unequal_sets_with_duplicates_and_near_ties_match_brute(self):
        # Lattice points give exact ties, repeated points duplicates, and
        # a 1e-12 jitter near-ties; each set has its own size.
        rng = np.random.default_rng(44)
        for _ in range(10):
            sets = []
            for _ in range(int(rng.integers(2, 7))):
                pts = rng.integers(-2, 3, size=(rng.integers(1, 40), 3)) / 2.0
                pts = np.vstack([pts, pts[: rng.integers(0, len(pts) + 1)]])
                pts[rng.random(len(pts)) < 0.2] += 1e-12 * rng.normal(size=3)
                sets.append(rng.permutation(pts))
            cd = pairwise_chamfer(*stack(sets), EVERY_POINT, 0)
            for v, u in itertools.permutations(range(len(sets)), 2):
                assert cd[v, u] == brute_path_chamfer(sets[v], sets[u])

    def test_empty_view_rejected(self):
        with pytest.raises(DegenerateInputError):
            pairwise_chamfer(*stack([[[0, 0, 0]], EMPTY]), EVERY_POINT, 0)

    def test_single_view_gives_zero_diagonal(self):
        cd = pairwise_chamfer(*stack([[[0, 0, 0], [1, 2, 3]]]), EVERY_POINT, 0)
        assert cd.tolist() == [[0.0]]

    def test_non_finite_invalid_pixel_ignored(self):
        points, validity = stack([[[0, 0, 0], [1, 0, 0]], [[3, 0, 0]]])
        points[1, 1] = np.nan  # padding: an invalid pixel
        cd = pairwise_chamfer(points, validity, EVERY_POINT, 0)
        assert cd.tolist() == [[0.0, 10.5], [10.5, 0.0]]


class TestProximityRanks:
    def test_two_views(self):
        assert proximity_ranks([[[0, 0, 0]], [[3, 0, 0]]], anchor=0) == {1: 0}

    def test_collinear_points(self):
        clouds = [[[x, 0, 0]] for x in (0.0, 1.0, 5.0)]
        assert proximity_ranks(clouds, anchor=0) == {1: 0, 2: 1}

    def test_tie_breaks_to_lower_index(self):
        ranks = proximity_ranks([[[0, 0, 0]], [[1, 0, 0]], [[-1, 0, 0]]], anchor=0)
        assert ranks[1] == 0 and ranks[2] == 1

    def test_ranks_are_a_bijection(self):
        rng = np.random.default_rng(13)
        clouds = [rng.normal(size=(8, 3)) for _ in range(6)]
        for anchor in range(6):
            ranks = proximity_ranks(clouds, anchor)
            assert sorted(ranks.keys()) == [u for u in range(6) if u != anchor]
            assert sorted(ranks.values()) == list(range(5))

    def test_geo_targets_rank_as_the_oracle(self):
        # Repeated clouds tie exactly, so the tie-break is exercised too.
        rng = np.random.default_rng(14)
        distinct = [rng.normal(size=(int(rng.integers(1, 9)), 3)) for _ in range(5)]
        clouds = distinct + [distinct[1], distinct[3], distinct[1]]
        targets = geo_targets(*stack(clouds), EVERY_POINT, 0)
        for anchor in range(len(clouds)):
            ranks = proximity_ranks(clouds, anchor)
            expected = soft_targets([ranks[u] for u in sorted(ranks)])
            assert targets[anchor].tobytes() == expected.tobytes()

    def test_single_view_rejected(self):
        # geo_targets ranks the views of a scene, and there are none to rank.
        with pytest.raises(DegenerateInputError):
            geo_targets(*stack([[[0, 0, 0]]]), EVERY_POINT, 0)


def near_tie_clouds():
    """An anchor cloud and two shifted copies whose Chamfer distances to it differ by
    about 1e-9 relative: far inside the float32 filter's bound.  The farther copy
    has the lower index, so ranking by index instead of distance shows."""
    rng = np.random.default_rng(61)
    anchor = rng.uniform(-1.0, 1.0, size=(40, 3))
    step = np.array([0.05, 0.0, 0.0])
    return [anchor, anchor + step * (1 + 1e-9), anchor + step]


def generated_chosen_views(seed, count):
    """Pointmaps of the views max coverage chooses, as prepare_scene chooses them, for
    ``count`` small generated scenes of one spec seed."""
    for index in range(count):
        spec = D.SceneSpec(scene_type=D.SCENE_TYPES[index % 4], seed=seed, view_count=8,
                           image_size=24)
        points, validity = D.generate_scene(spec, seed=index).pointmaps()
        chosen = G.max_coverage_sample(points, validity, 8)
        yield points[chosen], validity[chosen]


def exact_searches(monkeypatch):
    """Count ``chamfer_ranks``' exact searches: a list that gets one entry per call."""
    calls = []
    search = G._min_sq_dists
    monkeypatch.setattr(G, "_min_sq_dists", lambda q, t: calls.append(len(q)) or search(q, t))
    return calls


# A child process ranks the clouds saved at argv[1] and prints its BLAS core
# name (OpenBLAS only) and the SHA-256 of every geo_targets output in turn.
RANKS_IN_CHILD = """
import ctypes, glob, hashlib, os, sys
import numpy as np
from upm.objectives import geo_targets
libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
core = b"unknown"
if libs:
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    core = corename()
inputs = np.load(sys.argv[1])
digest = hashlib.sha256()
for k in range(len(inputs.files) // 2):
    digest.update(geo_targets(inputs[f"p{k}"], inputs[f"m{k}"], 64, 0).tobytes())
print(core.decode(), digest.hexdigest())
"""


class TestChamferRanks:
    """``chamfer_ranks`` gives the exact distances' ranks, from a certified float32 filter."""

    @pytest.mark.parametrize("seed", [3, 4])
    def test_filter_within_bound_and_ranks_exact_on_generated_scenes(self, seed):
        # 50 scenes a seed: every filter entry lies within its bound of the
        # exact entry, and the ranks are the exact distances' ranks.
        for points, validity in generated_chosen_views(seed, 50):
            sets = [G._subsample(p[m], 128, 0) for p, m in zip(points, validity)]
            means, bounds = G._filter_means(sets)
            exact = pairwise_chamfer(points, validity, 128, 0)
            assert (np.abs(means + means.T - exact) <= bounds + bounds.T).all()
            assert np.array_equal(G.chamfer_ranks(points, validity, 128, 0),
                                  exact_ranks(points, validity, 128, 0))

    def test_separated_views_searched_by_the_filter_alone(self, monkeypatch):
        rng = np.random.default_rng(62)
        clouds = [rng.normal(size=(50, 3)) + [4.0 * v, 0.0, 0.0] for v in range(5)]
        expected = exact_ranks(*stack(clouds))
        searches = exact_searches(monkeypatch)
        assert np.array_equal(G.chamfer_ranks(*stack(clouds), EVERY_POINT, 0), expected)
        assert searches == []

    def test_near_tie_searched_exactly(self, monkeypatch, caplog):
        clouds = near_tie_clouds()
        expected = exact_ranks(*stack(clouds))
        searches = exact_searches(monkeypatch)
        with caplog.at_level("DEBUG", logger="upm.geometry"):
            ranks = G.chamfer_ranks(*stack(clouds), EVERY_POINT, 0)
        assert expected[0].tolist() == [1, 0]  # the nearer copy has the higher index
        assert np.array_equal(ranks, expected)
        # Row 0's two entries overlap: both pairs are searched, each way.
        assert len(searches) == 4
        assert [r.getMessage() for r in caplog.records] == [
            "Chamfer ranks: 4 of 6 entries searched exactly"]

    def test_duplicate_views_keep_the_lower_index_first(self):
        rng = np.random.default_rng(63)
        distinct = [rng.normal(size=(int(rng.integers(5, 30)), 3)) for _ in range(4)]
        clouds = [distinct[0], distinct[1], distinct[2], distinct[1], distinct[3], distinct[1]]
        ranks = G.chamfer_ranks(*stack(clouds), EVERY_POINT, 0)
        assert np.array_equal(ranks, exact_ranks(*stack(clouds)))
        # Anchor 0's candidates 1, 3 and 5 tie exactly, in columns 0, 2 and 4.
        assert ranks[0, 0] < ranks[0, 2] < ranks[0, 4]

    @pytest.mark.parametrize("scale", [1e30, 1e39, 1e200])
    def test_huge_coordinates_rank_exactly_without_warnings(self, scale):
        # At 1e30 float32 squares overflow, at 1e39 the cast itself, and at
        # 1e200 the exact search's squares too: no bound is finite, so every
        # entry is searched exactly.
        rng = np.random.default_rng(64)
        clouds = [(rng.normal(size=(20, 3)) + 3.0 * v) * scale for v in range(5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ranks = G.chamfer_ranks(*stack(clouds), EVERY_POINT, 0)
            expected = exact_ranks(*stack(clouds))
        assert np.array_equal(ranks, expected)

    @pytest.mark.parametrize("scale", [1e-20, 1e-40, 1e-160, 1e-310])
    def test_subnormal_coordinates_rank_exactly(self, scale):
        # At 1e-20 float32 squares are subnormal, so their rounding is
        # absolute, not relative: the bound's A term covers it.  1e-40 is
        # subnormal in float32, 1e-160 squares to a float64 subnormal, and
        # 1e-310 is a float64 subnormal itself.
        rng = np.random.default_rng(65)
        clouds = [(rng.normal(size=(20, 3)) + 2.0 * v) * scale for v in range(5)]
        clouds.append(clouds[2] * (1 + 1e-6))
        points, validity = stack(clouds)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ranks = G.chamfer_ranks(points, validity, EVERY_POINT, 0)
            means, bounds = G._filter_means([p[m] for p, m in zip(points, validity)])
        assert np.array_equal(ranks, exact_ranks(points, validity))
        exact = pairwise_chamfer(points, validity, EVERY_POINT, 0)
        assert (np.abs(means + means.T - exact) <= bounds + bounds.T).all()

    def test_views_with_one_valid_point(self):
        rng = np.random.default_rng(66)
        clouds = [rng.normal(size=(1, 3)) for _ in range(4)] + [rng.normal(size=(9, 3))]
        clouds.append(clouds[1])
        ranks = G.chamfer_ranks(*stack(clouds), EVERY_POINT, 0)
        assert np.array_equal(ranks, exact_ranks(*stack(clouds)))

    def test_one_debug_line_per_geo_targets_call(self, caplog):
        rng = np.random.default_rng(67)
        clouds = [rng.normal(size=(30, 3)) + [3.0 * v, 0.0, 0.0] for v in range(4)]
        with caplog.at_level("DEBUG", logger="upm.geometry"):
            geo_targets(*stack(clouds), EVERY_POINT, 0)
        assert [r.getMessage() for r in caplog.records] == [
            "Chamfer ranks: 0 of 12 entries searched exactly"]

    @pytest.mark.parametrize("kernel", ["Haswell", "Nehalem"])
    def test_same_targets_on_another_blas_kernel(self, tmp_path, kernel):
        # sgemm's bits vary by kernel (FMA use, summation order): Nehalem's
        # filter estimates differ from SkylakeX's and Haswell's.  The
        # certified ranks may not.  The child runs the given OpenBLAS
        # kernel on one thread, set in its own environment only.
        rng = np.random.default_rng(68)
        cases = [[rng.normal(size=(int(rng.integers(20, 200)), 3)) * 2.0 for _ in range(8)],
                 near_tie_clouds(),
                 [c for c in near_tie_clouds() for _ in range(2)]]
        arrays = {}
        digest = hashlib.sha256()
        for k, clouds in enumerate(cases):
            arrays[f"p{k}"], arrays[f"m{k}"] = stack(clouds)
            digest.update(geo_targets(arrays[f"p{k}"], arrays[f"m{k}"], 64, 0).tobytes())
        np.savez(tmp_path / "clouds.npz", **arrays)
        src = Path(G.__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", RANKS_IN_CHILD, str(tmp_path / "clouds.npz")],
                             env=env, capture_output=True, text=True, check=True, timeout=120).stdout
        core, child_digest = out.split()
        assert core in (kernel, "unknown")
        assert child_digest == digest.hexdigest()


class TestVisibility:
    # A view observes the box with at least DEFAULT_MIN_POINTS (16) valid points inside it.
    def box(self):
        return G.ObjectAnnotation(0, [-1, -1, -1], [1, 1, 1], "the box", "box")

    def visible(self, clouds):
        visible = G.visibility(*stack(clouds), [self.box()])
        assert visible.dtype == bool and visible.shape == (len(clouds), 1)
        return visible.tolist()

    def test_fully_inside(self):
        assert self.visible([np.zeros((16, 3))]) == [[True]]

    def test_fully_outside(self):
        assert self.visible([np.full((16, 3), 10.0)]) == [[False]]

    def test_threshold_boundary(self):
        outside = np.full((6, 3), 9.0)
        assert self.visible([np.vstack([np.zeros((15, 3)), outside]),
                             np.vstack([np.zeros((16, 3)), outside])]) == [[False], [True]]

    def test_inclusive_bounds(self):
        assert self.visible([np.ones((16, 3))]) == [[True]]


class TestVisibleArea:
    def test_disjoint_is_zero(self):
        obj = G.ObjectAnnotation(0, [-1, -1, -1], [1, 1, 1], "t", "c")
        assert G.box_counts(*stack([np.full((7, 3), 5.0)]), [obj])[0, 0] == 0

    def test_all_points_inside(self):
        points = np.zeros((1, 3, 4, 3))
        obj = G.ObjectAnnotation(0, [-1, -1, -1], [1, 1, 1], "t", "c")
        assert G.box_counts(points, np.ones((1, 3, 4), bool), [obj])[0, 0] == 12

    def test_half_plane_exact_count(self):
        xs = np.linspace(-2, 2, 9)
        pts = np.stack([xs, np.zeros(9), np.zeros(9)], axis=-1)
        obj = G.ObjectAnnotation(0, [0, -1, -1], [3, 1, 1], "t", "c")
        expected = int(np.sum(xs >= 0))
        assert G.box_counts(*stack([pts]), [obj])[0, 0] == expected


class TestVisibleAreas:
    def test_matches_elementwise_count(self):
        # Ragged views and an empty one, padded with invalid pixels at the
        # origin, which some boxes contain.
        rng = np.random.default_rng(36)
        clouds = [rng.integers(-3, 4, size=(rng.integers(1, 60), 3)).astype(float)
                  for _ in range(5)]
        clouds.append(EMPTY)
        objects = []
        for i in range(4):
            lo = rng.integers(-3, 2, size=3).astype(float)
            objects.append(G.ObjectAnnotation(i, lo, lo + rng.integers(0, 3, size=3), "t", "c"))
        areas = G.box_counts(*stack(clouds), objects)
        assert areas.shape == (6, 4) and areas.dtype == np.int64
        for v, cloud in enumerate(clouds):
            for o, obj in enumerate(objects):
                expected = sum(
                    all(obj.aabb_min[k] <= p[k] <= obj.aabb_max[k] for k in range(3))
                    for p in cloud
                )
                assert areas[v, o] == expected

    def test_no_objects(self):
        assert G.box_counts(*stack([[[0, 0, 0]]]), []).shape == (1, 0)


def voxel_set(cloud, voxel):
    return set(map(tuple, np.floor(np.asarray(cloud) / voxel).astype(np.int64)))


def coverage(clouds, views, voxel):
    """Voxel count covered by a view subset, over Python sets of voxel tuples."""
    return len(set().union(*(voxel_set(clouds[v], voxel) for v in views)))


def set_based_coverage_sample(clouds, budget, voxel):
    """Greedy max coverage over Python sets of voxel tuples, the reference selection."""
    voxels = [voxel_set(cloud, voxel) for cloud in clouds]
    covered, chosen, remaining = set(), [], list(range(len(clouds)))
    while len(chosen) < budget:
        gains = [len(voxels[v] - covered) for v in remaining]
        if max(gains) <= 0:
            break
        best = remaining[int(np.argmax(gains))]
        chosen.append(best)
        covered |= voxels[best]
        remaining.remove(best)
    return chosen + remaining[: budget - len(chosen)]


def oracle_max_coverage_sample(clouds, budget, voxel):
    """Greedy max coverage with per-view sorted voxel keys and an ``np.isin`` loop over views.

    The oracle of ``max_coverage_sample``'s occupancy matrix: the same key
    packing and the same overflow checks, one view at a time.
    """
    with np.errstate(over="ignore"):
        cells = [np.floor(np.asarray(cloud).reshape(-1, 3) / voxel) for cloud in clouds]
    occupied = [c for c in cells if len(c)]
    voxels = [np.empty(0, dtype=np.int64) for _ in clouds]
    if occupied:
        lo = np.min([c.min(axis=0) for c in occupied], axis=0)
        hi = np.max([c.max(axis=0) for c in occupied], axis=0)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise RangeError("voxel coordinates overflow")
        sizes = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
        if math.prod(sizes) > np.iinfo(np.int64).max:
            raise RangeError("voxel grid overflows int64 keys")
        voxels = []
        for c in cells:
            offset = (c - lo).astype(np.int64)
            voxels.append(np.unique((offset[:, 0] * sizes[1] + offset[:, 1]) * sizes[2] + offset[:, 2]))
    covered = np.empty(0, dtype=np.int64)
    chosen, remaining = [], list(range(len(clouds)))
    while len(chosen) < budget:
        best_gain, best_view = -1, None
        for v in remaining:
            gain = int(np.isin(voxels[v], covered, assume_unique=True, invert=True).sum())
            if gain > best_gain:
                best_gain, best_view = gain, v
        if best_gain <= 0:
            break
        chosen.append(best_view)
        covered = np.union1d(covered, voxels[best_view])
        remaining.remove(best_view)
    return chosen + remaining[: budget - len(chosen)]


def max_coverage(clouds, budget, voxel):
    """``max_coverage_sample`` over ragged clouds with ``DEFAULT_VOXEL_SIZE`` set to ``voxel``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(G, "DEFAULT_VOXEL_SIZE", voxel)
        return G.max_coverage_sample(*stack(clouds), budget)


class TestMaxCoverage:
    def test_matches_isin_oracle_at_every_budget(self):
        rng = np.random.default_rng(43)
        tie_a, tie_b = np.zeros((3, 3)), np.full((6, 3), 4.0)
        saturating = rng.uniform(-2, 2, size=(400, 3))
        for trial in range(40):
            clouds = [rng.uniform(-2, 2, size=(rng.integers(1, 50), 3))
                      for _ in range(rng.integers(1, 8))]
            if trial % 4 == 1:
                clouds.insert(int(rng.integers(0, len(clouds) + 1)), EMPTY)
            if trial % 4 == 2:
                clouds = [tie_a, tie_b, tie_a, tie_b] + clouds
            if trial % 4 == 3:
                clouds.insert(int(rng.integers(0, len(clouds) + 1)), saturating)
            voxel = float(rng.choice([0.25, 0.7, 1.5, 5.0]))
            for budget in range(1, len(clouds) + 1):
                expected = oracle_max_coverage_sample(clouds, budget, voxel)
                assert max_coverage(clouds, budget, voxel) == expected
        all_empty = [EMPTY, EMPTY, EMPTY]
        assert max_coverage(all_empty, 2, 1.0) == [0, 1]
        assert oracle_max_coverage_sample(all_empty, 2, 1.0) == [0, 1]

    def test_matches_set_based_reference(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            clouds = [rng.uniform(-2, 2, size=(rng.integers(1, 40), 3))
                      for _ in range(rng.integers(1, 7))]
            if rng.random() < 0.3:
                clouds.insert(int(rng.integers(0, len(clouds) + 1)), EMPTY)
            if rng.random() < 0.3:
                clouds.append(clouds[0])
            voxel = float(rng.choice([0.3, 0.8, 2.0]))
            for budget in range(1, len(clouds) + 1):
                expected = set_based_coverage_sample(clouds, budget, voxel)
                assert max_coverage(clouds, budget, voxel) == expected

    def test_key_overflow_raises(self):
        wide = [[0.0, 0.0, 0.0], [1e7, 1e7, 1e7]]
        with pytest.raises(RangeError):
            max_coverage([wide], 1, 1e-1)
        with pytest.raises(RangeError):
            max_coverage([[[1e300, 0.0, 0.0]]], 1, 1e-10)
        with pytest.raises(RangeError):  # 1e308 / 0.25 overflows to inf
            G.max_coverage_sample(*stack([[[1e308, 0.0, 0.0]]]), 1)

    def test_full_budget_returns_all_views(self):
        rng = np.random.default_rng(21)
        clouds = [rng.normal(size=(10, 3)) for _ in range(4)]
        chosen = max_coverage(clouds, 4, 0.5)
        assert sorted(chosen) == [0, 1, 2, 3]

    def test_duplicate_views_deprioritized(self):
        shared = np.zeros((5, 3))
        duplicate = np.zeros((5, 3))
        disjoint = np.full((5, 3), 10.0)
        chosen = max_coverage([shared, duplicate, disjoint], 2, 1.0)
        assert chosen == [0, 2]

    def test_beats_every_fixed_triple(self):
        # Frozen instance where the exhaustive enumeration confirms greedy
        # attains the optimum, so it dominates every fixed triple.
        rng = np.random.default_rng(1)
        clouds = [rng.uniform(-2, 2, size=(30, 3)) for _ in range(6)]
        voxel = 0.8
        chosen = max_coverage(clouds, 3, voxel)
        greedy_cover = coverage(clouds, chosen, voxel)
        for triple in itertools.combinations(range(6), 3):
            assert greedy_cover >= coverage(clouds, triple, voxel)

    def test_greedy_approximation_guarantee(self):
        # On arbitrary instances greedy is within (1 - 1/e) of the best
        # enumerated triple, and its first pick is the best single view.
        for seed in (3, 4, 23):
            rng = np.random.default_rng(seed)
            clouds = [rng.uniform(-2, 2, size=(30, 3)) for _ in range(6)]
            voxel = 0.8
            chosen = max_coverage(clouds, 3, voxel)
            greedy_cover = coverage(clouds, chosen, voxel)
            best_triple = max(
                coverage(clouds, t, voxel) for t in itertools.combinations(range(6), 3)
            )
            assert greedy_cover >= (1 - 1 / np.e) * best_triple
            first = max_coverage(clouds, 1, voxel)[0]
            assert coverage(clouds, [first], voxel) == max(
                coverage(clouds, [v], voxel) for v in range(6)
            )

    def test_coverage_monotone_in_budget(self):
        rng = np.random.default_rng(29)
        clouds = [rng.uniform(-2, 2, size=(20, 3)) for _ in range(5)]
        covers = [
            coverage(clouds, max_coverage(clouds, k, 0.5), 0.5) for k in range(1, 6)
        ]
        assert all(b >= a for a, b in zip(covers, covers[1:]))

    def test_smaller_budget_picks_are_a_prefix(self):
        # retrieval_views_curve reads every budget's picks off one run at the largest.
        rng = np.random.default_rng(41)
        spread = [rng.uniform(-2, 2, size=(25, 3)) for _ in range(7)]
        # Coverage saturates after views 0 and 2, so the rest fill by ascending index.
        a, b = np.zeros((4, 3)), np.full((4, 3), 5.0)
        saturating = [a, a, b, b, a]
        assert max_coverage(saturating, 5, 0.5) == [0, 2, 1, 3, 4]
        for clouds in (spread, saturating):
            largest = max_coverage(clouds, len(clouds), 0.5)
            for budget in range(1, len(clouds) + 1):
                assert max_coverage(clouds, budget, 0.5) == largest[:budget]

    def test_budget_validation(self):
        clouds = [[[0, 0, 0]]]
        with pytest.raises(ContractError):
            max_coverage(clouds, 2, 1.0)
        with pytest.raises(ContractError):
            max_coverage(clouds, 0, 1.0)
