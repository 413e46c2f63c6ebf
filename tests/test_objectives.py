"""Tests for the alignment losses against scalar-arithmetic oracles."""

import math

import numpy as np
import pytest

from upm import engine as E
from upm import objectives as obj
from upm.engine import Tensor
from upm.errors import ContractError, DegenerateInputError, ShapeError


def point_maps(xyzs):
    """One single-pixel view per point: points (V, 1, 1, 3) and validity (V, 1, 1), all valid."""
    points = np.asarray(xyzs, float).reshape(-1, 1, 1, 3)
    return points, np.ones(points.shape[:3], bool)


def unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def soft_targets_oracle(ranks, alpha, tau_r):
    """Direct per-element evaluation with python floats."""
    exps = [math.exp(-r / tau_r) for r in ranks]
    z = sum(exps)
    return [alpha * (1.0 if r == 0 else 0.0) + (1.0 - alpha) * (e / z) for r, e in zip(ranks, exps)]


def ground_loss_oracle(logits, pairs):
    """Scalar evaluation of the grounded-view objective."""
    total = 0.0
    for v, o in pairs:
        row = logits[v, :]
        col = logits[:, o]
        total -= math.log(math.exp(logits[v, o]) / sum(math.exp(x) for x in row))
        total -= math.log(math.exp(logits[v, o]) / sum(math.exp(x) for x in col))
    return total / (2.0 * len(pairs))


def paired_infonce_oracle(logits):
    n = logits.shape[0]
    total = 0.0
    for i in range(n):
        total -= math.log(math.exp(logits[i, i]) / sum(math.exp(x) for x in logits[i, :]))
        total -= math.log(math.exp(logits[i, i]) / sum(math.exp(x) for x in logits[:, i]))
    return total / (2.0 * n)


def oracle_off_diagonal_soft_xent(logits, targets):
    """The per-row graph the fused op replaces: one op chain per anchor view."""
    n_views = logits.shape[0]
    total = Tensor(np.zeros(1))
    for v in range(n_views):
        row = E.narrow(logits, 0, v, 1)
        parts = []
        if v > 0:
            parts.append(E.narrow(row, 1, 0, v))
        if v < n_views - 1:
            parts.append(E.narrow(row, 1, v + 1, n_views - 1 - v))
        candidate_row = parts[0] if len(parts) == 1 else E.concat(parts, axis=1)
        log_probs = E.log_softmax(candidate_row, axis=1)
        weighted = E.mul(Tensor(targets[v][None, :]), log_probs)
        total = E.add(total, E.neg(E.reduce_sum(weighted)))
    return total


def random_targets(rng, n_views):
    """Dirichlet rows, with a one-hot row (exact zeros) when there is room."""
    targets = rng.dirichlet(np.ones(n_views - 1), size=n_views)
    if n_views > 2:
        targets[1] = np.eye(n_views - 1)[rng.integers(0, n_views - 1)]
    return targets


def geo_loss(h, maps, cfg, temperature):
    """One scene's geometric loss from its pointmaps: targets as in prepare_scene, loss as in batch_loss."""
    return obj.geo_loss_from_targets(h, obj.geo_targets(*maps, cfg), temperature)


def geo_graph(xent, base, targets, tau):
    """Per-view rows -> stacked logits -> xent, backpropagated as in a train step."""
    rows = [Tensor(base[i : i + 1].copy(), requires_grad=True) for i in range(len(base))]
    temp = obj.Temperature(tau)
    h = E.concat(rows, axis=0)
    logits = E.mul(E.matmul(h, E.transpose(h)), temp.inverse())
    loss = xent(logits, targets)
    E.backward(E.add(E.scale(loss, obj.DEFAULT_GEO_WEIGHT), Tensor(np.ones(1))))
    return loss, logits, rows, temp


class TestGeoAlignConfig:
    def test_validation(self):
        with pytest.raises(ContractError):
            obj.GeoAlignConfig(alpha=1.5)
        with pytest.raises(ContractError):
            obj.GeoAlignConfig(tau_r=0.0)


class TestTemperature:
    def test_initial_value(self):
        assert obj.Temperature(0.07).value == pytest.approx(0.07)

    def test_clamp(self):
        temp = obj.Temperature(0.07)
        temp.log_tau.array[0] = 50.0
        temp.clamp()
        assert temp.value == pytest.approx(obj.TAU_MAX)
        temp.log_tau.array[0] = -50.0
        temp.clamp()
        assert temp.value == pytest.approx(obj.TAU_MIN)

    def test_gradient_flows_through_inverse(self):
        temp = obj.Temperature(0.5)

        def f(_):
            return E.reduce_sum(E.mul(Tensor(np.array([3.0])), temp.inverse()))

        assert E.finite_diff_check(f, temp.log_tau) <= 1e-7


class TestSoftTargets:
    def test_alpha_one_is_exact_one_hot(self):
        cfg = obj.GeoAlignConfig(alpha=1.0, tau_r=0.35)
        p = obj.soft_targets([2, 0, 1], cfg)
        np.testing.assert_array_equal(p, [0.0, 1.0, 0.0])

    def test_paper_setting_matches_oracle(self):
        cfg = obj.GeoAlignConfig(alpha=0.7, tau_r=0.35)
        p = obj.soft_targets([0, 1, 2], cfg)
        expected = soft_targets_oracle([0, 1, 2], 0.7, 0.35)
        np.testing.assert_allclose(p, expected, atol=1e-12)
        np.testing.assert_allclose(p, [0.9828, 0.0162, 0.0009], atol=5e-5)

    def test_single_candidate(self):
        cfg = obj.GeoAlignConfig()
        np.testing.assert_array_equal(obj.soft_targets([0], cfg), [1.0])

    def test_small_tau_r_approaches_one_hot(self):
        cfg = obj.GeoAlignConfig(alpha=0.0, tau_r=1e-4)
        p = obj.soft_targets([1, 0, 3, 2], cfg)
        np.testing.assert_allclose(p, [0.0, 1.0, 0.0, 0.0], atol=1e-10)

    def test_distribution_property(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = int(rng.integers(1, 9))
            ranks = rng.permutation(k)
            cfg = obj.GeoAlignConfig(alpha=float(rng.uniform(0, 1)), tau_r=float(rng.uniform(0.01, 5)))
            p = obj.soft_targets(ranks, cfg)
            assert (p >= 0).all()
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_rejects_non_permutation(self):
        with pytest.raises(ContractError):
            obj.soft_targets([0, 0, 1], obj.GeoAlignConfig())
        with pytest.raises(DegenerateInputError):
            obj.soft_targets([], obj.GeoAlignConfig())


class TestGeoLoss:
    def test_two_views_is_zero(self):
        rng = np.random.default_rng(3)
        h = Tensor(unit_rows(rng, 2, 8))
        maps = point_maps([[0, 0, 0], [1, 0, 0]])
        loss = geo_loss(h, maps, obj.GeoAlignConfig(), obj.Temperature())
        assert loss.item() == pytest.approx(0.0, abs=1e-15)

    def test_alpha_one_equals_one_hot_cross_entropy(self):
        rng = np.random.default_rng(4)
        h = Tensor(unit_rows(rng, 3, 8), requires_grad=True)
        maps = point_maps([[x, 0, 0] for x in (0.0, 1.0, 5.0)])
        temp = obj.Temperature(0.5)
        cfg = obj.GeoAlignConfig(alpha=1.0, tau_r=0.35)
        loss = geo_loss(h, maps, cfg, temp).item()

        # Independent one-hot oracle: nearest by Chamfer gets all mass.
        logits = h.array @ h.array.T / temp.value
        nearest = {0: 1, 1: 0, 2: 1}  # x positions 0, 1, 5
        expected = 0.0
        for v in range(3):
            cands = [u for u in range(3) if u != v]
            row = logits[v, cands]
            target_pos = cands.index(nearest[v])
            expected -= math.log(math.exp(row[target_pos]) / sum(math.exp(x) for x in row))
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_uniform_logits_scalar_oracle(self):
        # Identical embeddings give uniform candidate logits; with any
        # target, each anchor contributes ln(V-1).
        row = np.zeros((1, 8))
        row[0, 0] = 1.0
        h = Tensor(np.repeat(row, 3, axis=0))
        maps = point_maps([[x, 0, 0] for x in (0.0, 1.0, 5.0)])
        cfg = obj.GeoAlignConfig(alpha=0.0, tau_r=0.35)
        loss = geo_loss(h, maps, cfg, obj.Temperature(1.0))
        assert loss.item() == pytest.approx(3.0 * math.log(2.0), abs=1e-12)

    def test_gradient_through_embeddings_and_temperature(self):
        rng = np.random.default_rng(5)
        base = unit_rows(rng, 4, 6)
        maps = point_maps([rng.normal(size=3) for _ in range(4)])
        cfg = obj.GeoAlignConfig()
        temp = obj.Temperature(0.3)
        targets = obj.geo_targets(*maps, cfg)

        h = Tensor(base.copy(), requires_grad=True)
        assert E.finite_diff_check(
            lambda t: obj.geo_loss_from_targets(t, targets, temp), h, h=1e-6
        ) <= 1e-5
        h2 = Tensor(base.copy())
        assert E.finite_diff_check(
            lambda _: obj.geo_loss_from_targets(h2, targets, temp), temp.log_tau, h=1e-6
        ) <= 1e-5


class TestFusedGeoLoss:
    """The fused op is bitwise the per-row chain it replaced."""

    @pytest.mark.parametrize("n_views", range(2, 13))
    def test_matches_per_row_oracle_bytewise(self, n_views):
        rng = np.random.default_rng(100 + n_views)
        for trial in range(3):
            base = unit_rows(rng, n_views, 16)
            if trial == 2:
                base[-1] = base[0]  # tied logits
            targets = random_targets(rng, n_views)
            tau = float(rng.uniform(0.05, 1.0))
            fused = geo_graph(E.off_diagonal_soft_xent, base, targets, tau)
            oracle = geo_graph(oracle_off_diagonal_soft_xent, base, targets, tau)
            (loss, logits, rows, temp), (o_loss, o_logits, o_rows, o_temp) = fused, oracle
            assert loss.array.tobytes() == o_loss.array.tobytes()
            assert logits.grad.tobytes() == o_logits.grad.tobytes()
            for row, o_row in zip(rows, o_rows):
                assert row.grad.tobytes() == o_row.grad.tobytes()
            assert temp.log_tau.grad.tobytes() == o_temp.log_tau.grad.tobytes()
            assert np.all(np.diag(logits.grad) == 0.0)

    @pytest.mark.parametrize("n_views", [3, 12])
    def test_geo_loss_from_targets_matches_oracle_bytewise(self, n_views):
        rng = np.random.default_rng(n_views)
        base = unit_rows(rng, n_views, 16)
        targets = random_targets(rng, n_views)
        h = Tensor(base.copy(), requires_grad=True)
        temp = obj.Temperature(0.3)
        loss = obj.geo_loss_from_targets(h, targets, temp)
        # The (V, d) embeddings, log_tau, and six nodes, whatever the view count.
        assert len(E.trace_graph(loss)) == 8
        E.backward(E.add(E.scale(loss, obj.DEFAULT_GEO_WEIGHT), Tensor(np.ones(1))))
        o_loss, _, o_rows, o_temp = geo_graph(oracle_off_diagonal_soft_xent, base, targets, 0.3)
        assert loss.array.tobytes() == o_loss.array.tobytes()
        for row_grad, o_row in zip(h.grad, o_rows):
            assert row_grad.tobytes() == o_row.grad[0].tobytes()
        assert temp.log_tau.grad.tobytes() == o_temp.log_tau.grad.tobytes()

    def test_finite_differences(self):
        rng = np.random.default_rng(13)
        for n_views in (2, 5, 9):
            targets = random_targets(rng, n_views)
            logits = Tensor(rng.normal(size=(n_views, n_views)), requires_grad=True)
            assert E.finite_diff_check(
                lambda x: E.off_diagonal_soft_xent(x, targets), logits, h=1e-6
            ) <= 1e-6

    def test_value_matches_scalar_oracle(self):
        rng = np.random.default_rng(14)
        logits = rng.normal(size=(5, 5))
        targets = random_targets(rng, 5)
        expected = 0.0
        for v in range(5):
            row = [logits[v, u] for u in range(5) if u != v]
            z = sum(math.exp(x) for x in row)
            expected -= sum(t * math.log(math.exp(x) / z) for t, x in zip(targets[v], row))
        loss = E.off_diagonal_soft_xent(Tensor(logits), targets)
        assert loss.shape == (1,)
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            E.off_diagonal_soft_xent(Tensor(np.zeros((3, 4))), np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            E.off_diagonal_soft_xent(Tensor(np.zeros(3)), np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            E.off_diagonal_soft_xent(Tensor(np.zeros((3, 3))), np.zeros((3, 3)))
        with pytest.raises(DegenerateInputError):
            E.off_diagonal_soft_xent(Tensor(np.zeros((1, 1))), np.zeros((1, 0)))

    @pytest.mark.parametrize("n_views", [0, 1])
    def test_fewer_than_two_views_rejected(self, n_views):
        rows = Tensor(np.ones((n_views, 4)))
        targets = np.zeros((n_views, max(n_views - 1, 0)))
        with pytest.raises(DegenerateInputError, match="at least two views"):
            obj.geo_loss_from_targets(rows, targets, obj.Temperature())


class TestGroundLoss:
    def test_singleton_denominators_give_zero(self):
        h = Tensor(np.ones((1, 4)) / 2.0)
        t = Tensor(np.ones((1, 4)) / 2.0)
        loss = obj.ground_loss(h, t, [(0, 0)], obj.Temperature())
        assert loss.item() == pytest.approx(0.0, abs=1e-15)

    def test_uniform_logits_one_pair(self):
        h = Tensor(np.zeros((2, 4)))
        t = Tensor(np.zeros((2, 4)))
        loss = obj.ground_loss(h, t, [(0, 0)], obj.Temperature(1.0))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(6)
        h = Tensor(unit_rows(rng, 3, 8))
        t = Tensor(unit_rows(rng, 2, 8))
        temp = obj.Temperature(0.7)
        pairs = [(0, 0), (1, 1), (2, 0)]
        loss = obj.ground_loss(h, t, pairs, temp).item()
        logits = h.array @ t.array.T / temp.value
        assert loss == pytest.approx(ground_loss_oracle(logits, pairs), abs=1e-12)

    def test_empty_pairs_rejected(self):
        h = Tensor(np.ones((2, 4)))
        t = Tensor(np.ones((1, 4)))
        with pytest.raises(DegenerateInputError, match="at least one visible"):
            obj.ground_loss(h, t, [], obj.Temperature())

    def test_out_of_range_pair_rejected(self):
        h = Tensor(np.ones((2, 4)))
        t = Tensor(np.ones((1, 4)))
        with pytest.raises(ContractError):
            obj.ground_loss(h, t, [(2, 0)], obj.Temperature())

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            h = Tensor(unit_rows(rng, 4, 6))
            t = Tensor(unit_rows(rng, 3, 6))
            pairs = [(int(rng.integers(0, 4)), int(rng.integers(0, 3))) for _ in range(4)]
            assert obj.ground_loss(h, t, pairs, obj.Temperature(0.2)).item() >= 0.0


class TestViewAndSceneLoss:
    def test_single_pair_is_zero(self):
        h = Tensor(np.ones((1, 4)) / 2.0)
        t = Tensor(np.ones((1, 4)) / 2.0)
        assert obj.view_loss(h, t, obj.Temperature()).item() == pytest.approx(0.0, abs=1e-15)
        assert obj.scene_loss(h, t, obj.Temperature()).item() == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_uniform_logits_give_log_n(self, n):
        h = Tensor(np.zeros((n, 4)))
        t = Tensor(np.zeros((n, 4)))
        loss = obj.view_loss(h, t, obj.Temperature(1.0))
        assert loss.item() == pytest.approx(math.log(n), abs=1e-9)

    def test_sharp_diagonal_drives_loss_to_zero(self):
        n = 4
        h = Tensor(np.eye(n))
        t = Tensor(np.where(np.eye(n) > 0, 10.0, -10.0).T)
        loss = obj.view_loss(h, t, obj.Temperature(1.0))
        assert loss.item() <= 1e-6

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(8)
        h = Tensor(unit_rows(rng, 3, 8))
        t = Tensor(unit_rows(rng, 3, 8))
        temp = obj.Temperature(0.4)
        loss = obj.scene_loss(h, t, temp).item()
        logits = h.array @ t.array.T / temp.value
        assert loss == pytest.approx(paired_infonce_oracle(logits), abs=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(9)
        h = unit_rows(rng, 5, 8)
        t = unit_rows(rng, 5, 8)
        temp = obj.Temperature(0.3)
        base = obj.view_loss(Tensor(h), Tensor(t), temp).item()
        perm = rng.permutation(5)
        permuted = obj.view_loss(Tensor(h[perm]), Tensor(t[perm]), temp).item()
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_empty_batch_rejected(self):
        empty = Tensor(np.zeros((0, 4)))
        with pytest.raises(DegenerateInputError):
            obj.view_loss(empty, empty, obj.Temperature())

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ContractError):
            obj.view_loss(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))), obj.Temperature())


class TestTotalLoss:
    def test_all_zero(self):
        zero = Tensor(np.zeros(1))
        breakdown = obj.total_loss(zero, zero, zero, zero)
        assert breakdown.total.item() == 0.0

    def test_paper_weighting(self):
        terms = [Tensor(np.array([v])) for v in (1.0, 2.0, 3.0, 4.0)]
        breakdown = obj.total_loss(*terms, weight_geo=0.1)
        assert breakdown.total.item() == pytest.approx(9.1, abs=1e-12)

    def test_breakdown_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            vals = rng.uniform(0, 5, size=4)
            terms = [Tensor(np.array([v])) for v in vals]
            b = obj.total_loss(*terms, weight_geo=0.1)
            recomputed = 0.1 * vals[0] + vals[1] + vals[2] + vals[3]
            assert abs(b.total.item() - recomputed) <= 1e-12

    def test_gradients_flow_to_all_inputs(self):
        rng = np.random.default_rng(11)
        base_h = unit_rows(rng, 4, 6)
        base_t = unit_rows(rng, 4, 6)
        maps = point_maps([rng.normal(size=3) for _ in range(4)])
        cfg = obj.GeoAlignConfig()
        temp = obj.Temperature(0.3)
        targets = obj.geo_targets(*maps, cfg)
        pairs = [(0, 0), (1, 2), (3, 1)]

        def build(h):
            t = Tensor(base_t)
            scenes = Tensor(base_h[:2])
            scene_caps = Tensor(base_t[:2])
            breakdown = obj.total_loss(
                obj.geo_loss_from_targets(h, targets, temp),
                obj.ground_loss(h, t, pairs, temp),
                obj.view_loss(h, t, temp),
                obj.scene_loss(scenes, scene_caps, temp),
            )
            return breakdown.total

        h = Tensor(base_h.copy(), requires_grad=True)
        assert E.finite_diff_check(build, h, h=1e-6) <= 1e-4
        h_const = Tensor(base_h.copy())
        assert E.finite_diff_check(lambda _: build(h_const), temp.log_tau, h=1e-6) <= 1e-4
