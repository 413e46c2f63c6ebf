"""Tests for the L-BFGS optimizer and the linear probe."""

import hashlib
import logging

import numpy as np
import pytest

from upm import probe
from upm.errors import ConfigError, ContractError, DegenerateInputError, NumericError, ShapeError
from upm.probe import (
    GRADIENT_TOL,
    GRID_STEPS,
    OBJECTIVE_TOL,
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


def oracle_lbfgs_minimize(fun_grad, x0, max_iterations=1000, history=10, grad_tol=GRADIENT_TOL,
                          objective_tol=OBJECTIVE_TOL):
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun_grad(x)
    objective_history = [float(f)]
    s_list, y_list, rho_list = [], [], []
    converged = False
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        if np.abs(g).max() <= grad_tol:
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


def oracle_fit(features, labels, n_classes, reg, max_iterations=1000):
    x0 = np.zeros(features.shape[1] * n_classes + n_classes)
    return oracle_lbfgs_minimize(
        lambda x: oracle_logistic_loss_grad(x, features, labels, n_classes, reg), x0,
        max_iterations=max_iterations)


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


def pinned_probe_problem():
    """32 examples of 4 classes in 64 dimensions, 6 of the training labels flipped."""
    rng = np.random.default_rng(4)
    labels = np.repeat(np.arange(4), 8)
    centers = rng.normal(size=(4, 64))
    features = 0.3 * centers[labels] + rng.normal(size=(32, 64))
    noisy = labels.copy()
    flipped = rng.choice(32, size=6, replace=False)
    noisy[flipped] = rng.integers(0, 4, size=6)
    return features, labels, noisy


def few_shot_rows(labels, shots):
    return np.concatenate([np.flatnonzero(labels == c)[:shots] for c in range(4)])


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
        # Without the objective tolerance, and with a gradient tolerance far
        # below GRADIENT_TOL, the fit runs to the gradient test.
        rng = np.random.default_rng(2)
        features, labels = separable_toy(rng, gap=1.0)
        result = lbfgs_minimize(lambda x: logistic_loss_grad(x, features, labels, 2, 1e-2),
                                np.zeros(2 * 2 + 2), grad_tol=1e-9, objective_tol=0.0)
        gd_loss = gradient_descent_1000(features, labels, 2, reg=1e-2)
        assert result.objective_history[-1] <= gd_loss

    def test_gradient_test_uses_infinity_norm(self):
        # At x0 = c * ones(4) the gradient of x @ x / 2 is x0: max |g_i| = c
        # and ||g||_2 = 2c.  At c = GRADIENT_TOL the fit stops before a step;
        # one ulp above it takes the exact Newton step to 0 and then stops.
        quadratic = lambda x: (0.5 * x @ x, x.copy())
        at_tol = np.full(4, GRADIENT_TOL)
        assert np.linalg.norm(at_tol) > GRADIENT_TOL
        above = np.full(4, np.nextafter(GRADIENT_TOL, 1.0))
        for minimize in (lbfgs_minimize, oracle_lbfgs_minimize):
            stopped = minimize(quadratic, at_tol)
            assert stopped.converged and stopped.iterations == 0
            assert stopped.x.tobytes() == at_tol.tobytes()
            stepped = minimize(quadratic, above)
            assert stepped.converged and stepped.iterations == 1
            assert stepped.objective_history == [quadratic(above)[0], 0.0]

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

    @pytest.mark.parametrize("case,error", [
        ("empty_train", DegenerateInputError),
        ("empty_test", DegenerateInputError),
        ("train_rows_mismatch", ShapeError),
        ("test_rows_mismatch", ShapeError),
        ("width_mismatch", ShapeError),
        ("negative_train_label", ContractError),
        ("negative_test_label", ContractError),
        ("nan_train_features", NumericError),
        ("inf_test_features", NumericError),
    ])
    def test_malformed_inputs_raise_typed_errors(self, case, error):
        rng = np.random.default_rng(7)
        features, labels = separable_toy(rng)
        args = {"train_features": features, "train_labels": labels,
                "test_features": features.copy(), "test_labels": labels.copy()}
        if case == "empty_train":
            args.update(train_features=features[:0], train_labels=labels[:0])
        elif case == "empty_test":
            args.update(test_features=features[:0], test_labels=labels[:0])
        elif case == "train_rows_mismatch":
            args["train_labels"] = labels[:-1]
        elif case == "test_rows_mismatch":
            args["test_features"] = features[:-1]
        elif case == "width_mismatch":
            args["test_features"] = features[:, :-1]
        elif case == "negative_train_label":
            args["train_labels"] = np.where(labels == 1, -1, labels)
        elif case == "negative_test_label":
            args["test_labels"][0] = -1
        elif case == "nan_train_features":
            args["train_features"] = np.full_like(features, np.nan)
        elif case == "inf_test_features":
            args["test_features"][3, 0] = np.inf
        with pytest.raises(error):
            linear_probe(cfg=ProbeConfig(shots=20), **args)

    def test_outcomes_pinned(self, monkeypatch):
        # Outcomes, and the fitted x of every grid point and of the refit, as
        # produced by fitting the grid points one at a time, per (shots, seed).
        # At 4 and 8 shots the lowest reg already gets 1 of 3 holdout examples
        # right, as well as any grid point does, so the lowest-reg tie-break
        # picks it.  At 5 shots and seed 10 the holdout picks a point inside
        # the grid: regs 51-54 get 2 of 4 right, the lowest reg 0 and the
        # highest 1.
        features, labels, noisy = pinned_probe_problem()
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
            (4, 4): (ProbeOutcome(0.65625, 1e-06, 0.3333333333333333),
                     "c1090f7e98c6cb71eed0846701e3b42ed766dcb9628a1266281f9490f035ca46",
                     "c12212fb6c83a9b6f6501bc7828b8bc1c0f9ab4d29d00cd182558887355fb2fb"),
            (8, 8): (ProbeOutcome(0.84375, 1e-06, 0.3333333333333333),
                     "c3b3a01eeddbe60814e8d2e04fdecd7681bbe929af19452d7e29b6e26d4096a1",
                     "bd4068b191c34b6a8bb4dab2fd1dff498264f8ab7e5fc0800070e9913c5d06b0"),
            (5, 10): (ProbeOutcome(0.75, 2.7676123707542306, 0.5),
                      "b507b2cdcf21462dc9e4249c257c854afe72ba6687ff1702fce8a5abcf0dad5f",
                      "89cdc9b61e7c359ced6d9c14d77d0c6e1b6551e09b2694f455073e6606d32f75"),
        }
        for (shots, seed), (outcome, sweep_digest, refit_digest) in expected.items():
            train = few_shot_rows(labels, shots)
            cfg = ProbeConfig(shots=shots, seed=seed)
            assert linear_probe(features[train], noisy[train], features, labels, cfg) == outcome
            sweep = hashlib.sha256()
            for result in sweeps[-1]:
                sweep.update(result.x.tobytes())
            assert len(sweeps[-1]) == GRID_STEPS
            assert sweep.hexdigest() == sweep_digest
            assert hashlib.sha256(refits[-1][2].x.tobytes()).hexdigest() == refit_digest

    def test_objective_tolerance_keeps_predictions(self, monkeypatch):
        # The sweep linear_probe fits, against the same sweep run to the
        # gradient test alone (objective_tol=0.0).  Both sides stop at
        # GRADIENT_TOL, so this isolates the objective tolerance; predictions
        # of fits run to a much tighter gradient test can differ (15 of the
        # 96 at 4 shots against ||g||_2 <= 1e-9).  Objectives are compared
        # on the stopping test's own scale, max(1, |f|): the low-reg fits end
        # at f of order 1e-5, where the plain relative gap reaches 1e-6.
        features, labels, noisy = pinned_probe_problem()
        sweeps = []

        def record_sweep(*args, **kwargs):
            sweeps.append((args, fit_logistic_grid(*args, **kwargs)))
            return sweeps[-1][1]

        monkeypatch.setattr(probe, "fit_logistic_grid", record_sweep)
        for shots in (4, 8):
            train = few_shot_rows(labels, shots)
            linear_probe(features[train], noisy[train], features, labels,
                         ProbeConfig(shots=shots, seed=shots))
            (fit_x, fit_y, n_classes, regs), default = sweeps[-1]
            regs = np.asarray(regs)
            strict = lbfgs_minimize_batch(
                lambda xs, rows: logistic_loss_grad(xs, fit_x, fit_y, n_classes, regs[rows]),
                np.zeros((len(regs), 64 * n_classes + n_classes)),
                grad_tol=GRADIENT_TOL, objective_tol=0.0)
            assert len(default) == len(strict) == GRID_STEPS
            assert sum(r.iterations for r in default) < sum(r.iterations for r in strict)
            for loose, tight in zip(default, strict):
                w, b = probe._unflatten(loose.x, 64, n_classes)
                w_tight, b_tight = probe._unflatten(tight.x, 64, n_classes)
                np.testing.assert_array_equal(predict_logistic(w, b, features),
                                              predict_logistic(w_tight, b_tight, features))
                f, f_tight = loose.objective_history[-1], tight.objective_history[-1]
                assert abs(f - f_tight) <= 1e-9 * max(1.0, abs(f_tight))

    def test_pinned_fits_converge_within_budget(self, monkeypatch, caplog):
        # Every fit linear_probe makes on the pinned problem at 4 and 8 shots
        # converges before the cap, with no WARNING.  Together they take 4,179
        # L-BFGS iterations; a fit that runs to the cap instead adds up to
        # 1,000, so the bound catches a stopping rule that lets fits run on.
        features, labels, noisy = pinned_probe_problem()
        fits = []

        def record_sweep(*args, **kwargs):
            sweep = fit_logistic_grid(*args, **kwargs)
            fits.extend(sweep)
            return sweep

        def record_refit(*args, **kwargs):
            refit = fit_logistic(*args, **kwargs)
            fits.append(refit[2])
            return refit

        monkeypatch.setattr(probe, "fit_logistic_grid", record_sweep)
        monkeypatch.setattr(probe, "fit_logistic", record_refit)
        with caplog.at_level(logging.WARNING, logger="upm.probe"):
            for shots in (4, 8):
                train = few_shot_rows(labels, shots)
                linear_probe(features[train], noisy[train], features, labels,
                             ProbeConfig(shots=shots, seed=shots))
        assert len(fits) == 2 * (GRID_STEPS + 1)
        assert all(fit.converged for fit in fits)
        assert max(fit.iterations for fit in fits) < ProbeConfig().max_iterations
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]
        assert sum(fit.iterations for fit in fits) <= 4400

    def test_unconverged_fits_logged_once(self, caplog):
        rng = np.random.default_rng(7)
        features, labels = separable_toy(rng, n_per_class=4, gap=1.0)
        regs = (1e-3, 1.0, 1e3)
        capped = ProbeConfig(shots=4, reg_grid=regs, max_iterations=1)
        with caplog.at_level(logging.WARNING, logger="upm.probe"):
            outcome = linear_probe(features, labels, features, labels, capped)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "3 of 3 grid fits stopped at max_iterations=1" in warnings[0].getMessage()
        assert "did not converge" in warnings[0].getMessage()
        assert outcome.chosen_reg in regs

        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="upm.probe"):
            linear_probe(features, labels, features, labels,
                         ProbeConfig(shots=4, reg_grid=(1e3,), max_iterations=1000))
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]

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
        # Every point converges within 46 iterations; at 40 some run to the cap.
        results = fit_logistic_grid(features, labels, 4, regs, max_iterations=40)
        assert len(results) == GRID_STEPS
        assert any(r.converged for r in results)
        assert not all(r.converged for r in results)  # some points run to max_iterations
        for result, reg in zip(results, regs):
            assert_bitwise_equal(result, oracle_fit(features, labels, 4, reg, max_iterations=40))

    def test_empty_batch_makes_no_call(self):
        def never(xs, rows):
            raise AssertionError("fun_grad called for an empty batch")

        assert lbfgs_minimize_batch(never, np.zeros((0, 3))) == []

    def test_stopped_problems_are_not_evaluated(self):
        # Each problem passes through fun_grad exactly as often as the oracle
        # calls its own objective, rows in ascending order, so no problem is
        # evaluated again once it has stopped.
        rng = np.random.default_rng(0)
        features = rng.normal(size=(26, 64))
        labels = rng.integers(0, 4, size=26)
        regs = default_reg_grid()
        rows_seen = np.zeros(len(regs), dtype=np.int64)

        def counted(xs, rows):
            assert np.all(np.diff(rows) > 0)
            rows_seen[rows] += 1
            return logistic_loss_grad(xs, features, labels, 4, regs[rows])

        results = lbfgs_minimize_batch(counted, np.zeros((len(regs), 64 * 4 + 4)), max_iterations=40)
        assert any(r.converged for r in results) and not all(r.converged for r in results)
        for row, reg in enumerate(regs):
            calls = []

            def alone(x, reg=reg):
                calls.append(x)
                return oracle_logistic_loss_grad(x, features, labels, 4, reg)

            oracle_lbfgs_minimize(alone, np.zeros(64 * 4 + 4), max_iterations=40)
            assert rows_seen[row] == len(calls)

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
