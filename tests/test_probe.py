"""Tests for the L-BFGS optimizer and the linear probe."""

import hashlib

import numpy as np
import pytest

from upm import probe
from upm.errors import ConfigError, ContractError
from upm.probe import (
    GRID_STEPS,
    LbfgsResult,
    ProbeConfig,
    ProbeOutcome,
    _LineSearch,
    accuracy,
    default_reg_grid,
    fit_logistic,
    fit_logistic_grid,
    lbfgs_minimize,
    lbfgs_minimize_batch,
    linear_probe,
    logistic_loss_grad,
    predict_logistic,
)


# ---------------------------------------------------------------------------
# oracle: the one-problem L-BFGS and logistic loss the batched code must match


def oracle_strong_wolfe(fun_grad, x, direction, f0, g0, c1=1e-4, c2=0.9, max_evals=30):
    """Line search satisfying the strong Wolfe conditions (bracket + zoom)."""
    dphi0 = float(g0 @ direction)
    if dphi0 >= 0:
        raise ContractError("line search requires a descent direction")

    def phi(alpha):
        f, g = fun_grad(x + alpha * direction)
        return f, g, float(g @ direction)

    def zoom(lo, f_lo, dphi_lo, hi, f_hi):
        for _ in range(max_evals):
            alpha = 0.5 * (lo + hi)
            f, g, dphi = phi(alpha)
            if f > f0 + c1 * alpha * dphi0 or f >= f_lo:
                hi, f_hi = alpha, f
            else:
                if abs(dphi) <= -c2 * dphi0:
                    return alpha, f, g
                if dphi * (hi - lo) >= 0:
                    hi, f_hi = lo, f_lo
                lo, f_lo, dphi_lo = alpha, f, dphi
            if abs(hi - lo) < 1e-16:
                break
        f, g, _ = phi(lo)
        return lo, f, g

    alpha_prev, f_prev, dphi_prev = 0.0, f0, dphi0
    alpha = 1.0
    for i in range(max_evals):
        f, g, dphi = phi(alpha)
        if f > f0 + c1 * alpha * dphi0 or (i > 0 and f >= f_prev):
            return zoom(alpha_prev, f_prev, dphi_prev, alpha, f)
        if abs(dphi) <= -c2 * dphi0:
            return alpha, f, g
        if dphi >= 0:
            return zoom(alpha, f, dphi, alpha_prev, f_prev)
        alpha_prev, f_prev, dphi_prev = alpha, f, dphi
        alpha *= 2.0
    return alpha_prev, f, g  # out of doublings: the last evaluated step


def oracle_lbfgs_minimize(fun_grad, x0, max_iterations=1000, history=10, grad_tol=1e-9,
                          objective_tol=0.0):
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun_grad(x)
    objective_history = [float(f)]
    s_list, y_list, rho_list = [], [], []
    converged = False
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        if np.linalg.norm(g) <= grad_tol:
            converged = True
            iterations -= 1
            break

        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if y_list:
            last_s, last_y = s_list[-1], y_list[-1]
            q *= (last_s @ last_y) / (last_y @ last_y)
        for s, y, rho, a in zip(s_list, y_list, rho_list, reversed(alphas)):
            b = rho * (y @ q)
            q += (a - b) * s
        direction = -q

        if float(g @ direction) >= 0:
            direction = -g

        alpha, f_new, g_new = oracle_strong_wolfe(fun_grad, x, direction, f, g)
        if not f_new < f - objective_tol * max(1.0, abs(f)):
            converged = True
            iterations -= 1
            break
        step = alpha * direction
        y_vec = g_new - g
        sy = float(step @ y_vec)
        if sy > 1e-12:
            s_list.append(step)
            y_list.append(y_vec)
            rho_list.append(1.0 / sy)
            if len(s_list) > history:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)
        x = x + step
        f, g = f_new, g_new
        objective_history.append(float(f))

    return LbfgsResult(x=x, objective_history=objective_history, iterations=iterations,
                       converged=converged)


def oracle_logistic_loss_grad(flat, features, labels, n_classes, reg):
    n, dim = features.shape
    w = flat[: dim * n_classes].reshape(dim, n_classes)
    b = flat[dim * n_classes :]
    logits = features @ w + b
    logits -= logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(logits).sum(axis=1, keepdims=True))
    log_probs = logits - log_z
    loss = -log_probs[np.arange(n), labels].mean() + 0.5 * reg * float((w * w).sum())
    probs = np.exp(log_probs)
    probs[np.arange(n), labels] -= 1.0
    probs /= n
    grad_w = features.T @ probs + reg * w
    grad_b = probs.sum(axis=0)
    return loss, np.concatenate([grad_w.ravel(), grad_b])


def oracle_fit(features, labels, n_classes, reg):
    x0 = np.zeros(features.shape[1] * n_classes + n_classes)
    return oracle_lbfgs_minimize(
        lambda x: oracle_logistic_loss_grad(x, features, labels, n_classes, reg), x0)


def assert_bitwise_equal(result, expected):
    assert result.x.tobytes() == expected.x.tobytes()
    assert result.objective_history == expected.objective_history
    assert type(result.iterations) is int and result.iterations == expected.iterations
    assert result.converged == expected.converged


def separable_toy(rng, n_per_class=20, gap=3.0):
    a = rng.normal(size=(n_per_class, 2)) + gap
    b = rng.normal(size=(n_per_class, 2)) - gap
    features = np.vstack([a, b])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return features, labels


def gradient_descent_1000(features, labels, n_classes, reg, lr=0.5):
    """Plain fixed-step gradient descent baseline, 1000 steps."""
    x = np.zeros(features.shape[1] * n_classes + n_classes)
    for _ in range(1000):
        _, g = logistic_loss_grad(x, features, labels, n_classes, reg)
        x -= lr * g
    loss, _ = logistic_loss_grad(x, features, labels, n_classes, reg)
    return loss


class TestLbfgs:
    def test_quadratic_solution(self):
        a = np.diag([1.0, 10.0, 100.0])
        b = np.array([1.0, -2.0, 3.0])
        result = lbfgs_minimize(lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b), np.zeros(3))
        np.testing.assert_allclose(result.x, np.linalg.solve(a, b), atol=1e-5)

    def test_objective_strictly_decreases(self):
        rng = np.random.default_rng(1)
        features, labels = separable_toy(rng)
        _, _, result = fit_logistic(features, labels, 2, reg=1e-3)
        history = result.objective_history
        assert len(history) >= 2
        assert all(later < earlier for earlier, later in zip(history, history[1:]))

    def test_beats_plain_gradient_descent(self):
        rng = np.random.default_rng(2)
        features, labels = separable_toy(rng, gap=1.0)
        _, _, result = fit_logistic(features, labels, 2, reg=1e-2)
        gd_loss = gradient_descent_1000(features, labels, 2, reg=1e-2)
        assert result.objective_history[-1] <= gd_loss

    def test_requires_descent_direction(self):
        fg = lambda x: (float(x @ x), 2 * x)
        x = np.array([1.0])
        with pytest.raises(ContractError):
            oracle_strong_wolfe(fg, x, np.array([1.0]), float(x @ x), 2 * x)
        with pytest.raises(ContractError):
            _LineSearch(float(x @ x), float(2 * x @ np.array([1.0])))
        # A zero gradient that the gradient test lets through leaves no descent direction.
        with pytest.raises(ContractError):
            lbfgs_minimize(lambda x: (0.0, np.zeros(1)), np.zeros(1), grad_tol=-1.0)

    def test_bracket_exhaustion_returns_last_evaluated_step(self):
        # The slope never flattens, so every doubling passes until the bracket runs out.
        fun = lambda x: (-x[0], np.array([-1.0]))
        for minimize in (lbfgs_minimize, oracle_lbfgs_minimize):
            result = minimize(fun, np.zeros(1), max_iterations=1)
            assert result.x[0] == 2.0**29
            assert result.objective_history[-1] == fun(result.x)[0]

    def test_gradient_of_logistic_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(12, 3))
        labels = rng.integers(0, 3, size=12)
        x = rng.normal(size=3 * 3 + 3)
        _, grad = logistic_loss_grad(x, features, labels, 3, reg=0.05)
        h = 1e-6
        for i in range(len(x)):
            probe = x.copy()
            probe[i] += h
            f_plus, _ = logistic_loss_grad(probe, features, labels, 3, reg=0.05)
            probe[i] -= 2 * h
            f_minus, _ = logistic_loss_grad(probe, features, labels, 3, reg=0.05)
            assert grad[i] == pytest.approx((f_plus - f_minus) / (2 * h), abs=1e-6)


class TestProbeConfig:
    def test_default_grid(self):
        grid = default_reg_grid()
        assert len(grid) == GRID_STEPS
        assert grid[0] == pytest.approx(1e-6)
        assert grid[-1] == pytest.approx(1e6)
        assert np.all(np.diff(grid) > 0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ProbeConfig(shots=0)
        with pytest.raises(ConfigError):
            ProbeConfig(reg_grid=(1.0, 1.0))
        for bad in ({"history": 0}, {"max_iterations": 0}, {"holdout_fraction": -1.0},
                    {"holdout_fraction": 1.0}):
            with pytest.raises(ConfigError):
                ProbeConfig(**bad)
        ProbeConfig(history=1, max_iterations=1, holdout_fraction=0.0)


class TestLinearProbe:
    def test_separable_toy_near_perfect(self):
        rng = np.random.default_rng(4)
        features, labels = separable_toy(rng)
        outcome = linear_probe(features, labels, features, labels, ProbeConfig(shots=20))
        assert outcome.test_accuracy >= 0.99

    def test_heavy_regularization_collapses_to_prior(self):
        rng = np.random.default_rng(5)
        features, labels = separable_toy(rng)
        # Imbalanced classes: the unregularized bias carries the prior.
        keep = labels != 1
        keep[-5:] = True
        features, labels = features[keep], labels[keep]
        majority = int(np.bincount(labels).argmax())
        w, b, _ = fit_logistic(features, labels, 2, reg=1e6)
        assert np.abs(w).max() <= 1e-4
        predictions = predict_logistic(w, b, features)
        assert set(predictions.tolist()) == {majority}

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        features, labels = separable_toy(rng, gap=1.0)
        cfg = ProbeConfig(shots=20, seed=3)
        a = linear_probe(features, labels, features, labels, cfg)
        b = linear_probe(features, labels, features, labels, cfg)
        assert a == b

    def test_missing_class_rejected(self):
        features = np.zeros((4, 2))
        labels = np.array([0, 0, 0, 0])
        test_labels = np.array([0, 1, 1, 0])
        with pytest.raises(ConfigError, match="missing"):
            linear_probe(features, labels, features, test_labels, ProbeConfig())

    def test_outcomes_pinned(self, monkeypatch):
        # Outcomes, and the fitted x of every grid point and of the refit, as
        # produced by fitting the grid points one at a time.  Noisy training
        # labels make the 4-shot holdout pick a point inside the grid.
        rng = np.random.default_rng(4)
        labels = np.repeat(np.arange(4), 8)
        centers = rng.normal(size=(4, 64))
        features = 0.3 * centers[labels] + rng.normal(size=(32, 64))
        noisy = labels.copy()
        flipped = rng.choice(32, size=6, replace=False)
        noisy[flipped] = rng.integers(0, 4, size=6)
        sweeps, refits = [], []

        def record_sweep(*args, **kwargs):
            sweeps.append(fit_logistic_grid(*args, **kwargs))
            return sweeps[-1]

        def record_refit(*args, **kwargs):
            refits.append(fit_logistic(*args, **kwargs))
            return refits[-1]

        monkeypatch.setattr(probe, "fit_logistic_grid", record_sweep)
        monkeypatch.setattr(probe, "fit_logistic", record_refit)
        expected = {
            4: (ProbeOutcome(0.65625, 2.7676123707542306, 0.3333333333333333),
                "8209d34e763c73becd87da1da2fa24b2aca28512db94b6184a4085a4192141eb",
                "b218bb5cd7231bf07ca4113483ac81471b9a579a9fd83626bcf6a96c657d484f"),
            8: (ProbeOutcome(0.84375, 1e-06, 0.3333333333333333),
                "5a4f442dfdf11e50f37a2bfd76758d943c2f37b1bc25588c1ab50225016175cc",
                "1a43dba0a36b647c0414939e477706d20922aaa91ca881b61114bd337bd4d9de"),
        }
        for shots, (outcome, sweep_digest, refit_digest) in expected.items():
            train = np.concatenate([np.flatnonzero(labels == c)[:shots] for c in range(4)])
            cfg = ProbeConfig(shots=shots, seed=shots)
            assert linear_probe(features[train], noisy[train], features, labels, cfg) == outcome
            sweep = hashlib.sha256()
            for result in sweeps[-1]:
                sweep.update(result.x.tobytes())
            assert len(sweeps[-1]) == GRID_STEPS
            assert sweep.hexdigest() == sweep_digest
            assert hashlib.sha256(refits[-1][2].x.tobytes()).hexdigest() == refit_digest

    def test_accuracy_helper(self):
        assert accuracy(np.array([1, 0, 1]), np.array([1, 1, 1])) == pytest.approx(2 / 3)


class TestBatchedLbfgs:
    """The batched sweep against the one-problem oracle, grid point by grid point."""

    def test_loss_rows_match_lone_rows(self):
        rng = np.random.default_rng(7)
        features = rng.normal(size=(26, 64))
        labels = rng.integers(0, 4, size=26)
        regs = default_reg_grid()[::8]
        xs = rng.normal(size=(len(regs), 64 * 4 + 4))
        losses, grads = logistic_loss_grad(xs, features, labels, 4, regs)
        for x, reg, loss, grad in zip(xs, regs, losses, grads):
            expected_loss, expected_grad = oracle_logistic_loss_grad(x, features, labels, 4, reg)
            assert loss == expected_loss
            assert grad.tobytes() == expected_grad.tobytes()
            lone_loss, lone_grad = logistic_loss_grad(x, features, labels, 4, reg)
            assert lone_loss == expected_loss
            assert lone_grad.tobytes() == expected_grad.tobytes()

    def test_default_grid_matches_oracle(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(26, 64))
        labels = rng.integers(0, 4, size=26)
        regs = default_reg_grid()
        results = fit_logistic_grid(features, labels, 4, regs)
        assert len(results) == GRID_STEPS
        assert not all(r.converged for r in results)  # some points run to max_iterations
        for result, reg in zip(results, regs):
            assert_bitwise_equal(result, oracle_fit(features, labels, 4, reg))

    def test_separable_toy_matches_oracle(self):
        features, labels = separable_toy(np.random.default_rng(9))
        regs = default_reg_grid()
        for result, reg in zip(fit_logistic_grid(features, labels, 2, regs), regs):
            assert_bitwise_equal(result, oracle_fit(features, labels, 2, reg))

    def test_quadratics_match_oracle(self):
        curvature = np.array([1.0, 10.0, 100.0])
        b = np.array([1.0, -2.0, 3.0])
        scales = np.array([1.0, 0.5, 3.0, 1e-3])

        def stacked(xs, rows):
            ax = xs * (curvature * scales[rows, None])
            return 0.5 * (xs * ax).sum(axis=1) - (xs * b).sum(axis=1), ax - b

        results = lbfgs_minimize_batch(stacked, np.zeros((len(scales), 3)))
        for row, result in enumerate(results):
            def alone(x, row=row):
                f, g = stacked(x[None], np.array([row]))
                return f[0], g[0]

            assert_bitwise_equal(result, oracle_lbfgs_minimize(alone, np.zeros(3)))
        a = np.diag(curvature)
        quadratic = lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b)
        assert_bitwise_equal(lbfgs_minimize(quadratic, np.zeros(3)),
                             oracle_lbfgs_minimize(quadratic, np.zeros(3)))

    def test_iteration_limits(self):
        quadratic = lambda x: (0.5 * x @ x, x.copy())
        for limit in (0, 1):
            result = lbfgs_minimize(quadratic, np.ones(2), max_iterations=limit)
            assert_bitwise_equal(result, oracle_lbfgs_minimize(quadratic, np.ones(2), max_iterations=limit))
        with pytest.raises(ConfigError):
            lbfgs_minimize(quadratic, np.ones(2), history=0)
