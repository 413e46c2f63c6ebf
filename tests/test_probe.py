"""Tests for the Newton logistic-regression solver and the linear probe."""

import hashlib
import logging

import numpy as np
import pytest

from upm import probe
from upm.errors import ConfigError, ContractError, DegenerateInputError, NumericError, ShapeError
from upm.probe import (
    GRADIENT_TOL,
    GRID_STEPS,
    ProbeConfig,
    ProbeOutcome,
    accuracy,
    default_reg_grid,
    fit_logistic_grid,
    linear_probe,
    logistic_loss_grad,
    predict_logistic,
)


# ---------------------------------------------------------------------------
# oracle: the one-problem logistic loss the stacked loss must match


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


def random_problem():
    """26 examples of 4 classes in 64 dimensions, the size of an 8-shot fit fold."""
    rng = np.random.default_rng(0)
    return rng.normal(size=(26, 64)), rng.integers(0, 4, size=26)


def record_fits(monkeypatch):
    """The (args, LogisticFits) of every fit_logistic_grid call linear_probe makes."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, fit_logistic_grid(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(probe, "fit_logistic_grid", recorded)
    return calls


def fits_digest(fits):
    return hashlib.sha256(fits.w.tobytes() + fits.b.tobytes()).hexdigest()


class TestNewton:
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

    def test_hessian_matches_finite_differences(self):
        # Central differences of logistic_loss_grad's gradient, taken in the
        # span coordinates, against every column of the Newton Hessian.  With
        # 5 rows in 8 dimensions the span has rank 5.
        rng = np.random.default_rng(8)
        features = rng.normal(size=(5, 8))
        labels = np.array([0, 1, 2, 0, 1])
        regs = np.array([0.05, 3.0])
        v, z = probe._row_span(features)
        assert v.shape == (8, 5) and z.shape == (5, 6)
        np.testing.assert_allclose(v.T @ v, np.eye(5), atol=1e-12)
        theta = rng.normal(size=(2, 3, 6))

        def span_gradient(theta):
            _, grad = logistic_loss_grad(probe._primal(v, theta), features, labels, 3, regs)
            return probe._span_gradient(v, grad, 3)

        hess = probe._span_hessian(z, theta, regs)
        assert hess.shape == (2, 18, 18)
        np.testing.assert_allclose(hess, hess.transpose(0, 2, 1), rtol=0, atol=1e-15)
        h = 1e-6
        for j in range(18):
            step = np.zeros(18)
            step[j] = h
            step = step.reshape(3, 6)
            column = (span_gradient(theta + step) - span_gradient(theta - step)) / (2 * h)
            np.testing.assert_allclose(hess[:, :, j], column, rtol=0, atol=1e-8)

    def test_default_grid_matches_tight_reference(self, monkeypatch):
        # Every fifth grid point on the pinned 8-shot problem, against scipy's
        # L-BFGS-B run to max|g| <= 1e-12 on the full (W, b).  Predictions on
        # all 32 rows agree.  At GRADIENT_TOL the low-reg fits stop with f up
        # to 1.5e-5 above the optimum (relative to max(1, |f|)), so the bound
        # is 3e-5; run to max|g| <= 1e-9 every fit lies within 1.3e-12 of it,
        # so the bound is 1e-11.  No fit ends below the reference.
        from scipy.optimize import minimize

        features, labels, noisy = pinned_probe_problem()
        train = few_shot_rows(labels, 8)
        x, y = features[train], noisy[train]
        regs = default_reg_grid()[::5]
        reference = [
            minimize(lambda p, reg=reg: logistic_loss_grad(p, x, y, 4, reg), np.zeros(64 * 4 + 4),
                     jac=True, method="L-BFGS-B",
                     options={"gtol": 1e-12, "ftol": 0.0, "maxiter": 10_000})
            for reg in regs
        ]
        f_ref = np.array([r.fun for r in reference])
        scale = np.maximum(1.0, np.abs(f_ref))
        predicted = np.array([predict_logistic(r.x[:256].reshape(64, 4), r.x[256:], features)
                              for r in reference])
        default = fit_logistic_grid(x, y, 4, regs)
        monkeypatch.setattr(probe, "GRADIENT_TOL", 1e-9)
        tight = fit_logistic_grid(x, y, 4, regs)
        for fits, bound in ((default, 3e-5), (tight, 1e-11)):
            assert fits.converged.all()
            np.testing.assert_array_equal(predict_logistic(fits.w, fits.b, features), predicted)
            gap = (fits.objective - f_ref) / scale
            assert gap.min() >= -1e-12
            assert gap.max() <= bound
        # Quadratic convergence: the tighter test costs a few more steps, not many.
        assert tight.iterations.max() <= default.iterations.max() + 6

    def test_stacked_fits_equal_lone_fits(self):
        # The refit is a one-point grid, so a grid point's fit must not depend
        # on the other points it runs beside.
        features, labels = random_problem()
        regs = default_reg_grid()
        stacked = fit_logistic_grid(features, labels, 4, regs)
        for i in range(0, GRID_STEPS, 19):
            lone = fit_logistic_grid(features, labels, 4, regs[i:i + 1])
            assert lone.w.tobytes() == stacked.w[i:i + 1].tobytes()
            assert lone.b.tobytes() == stacked.b[i:i + 1].tobytes()
            assert lone.objective[0] == stacked.objective[i]
            assert lone.iterations[0] == stacked.iterations[i]

    def test_objective_strictly_decreases(self):
        features, labels = separable_toy(np.random.default_rng(1))
        full = fit_logistic_grid(features, labels, 2, [1e-3])
        objectives = [fit_logistic_grid(features, labels, 2, [1e-3], max_iterations=cap).objective[0]
                      for cap in range(full.iterations[0] + 1)]
        assert len(objectives) >= 3
        assert all(later < earlier for earlier, later in zip(objectives, objectives[1:]))
        assert objectives[-1] == full.objective[0]
        flat = np.concatenate([full.w[0].ravel(), full.b[0]])
        assert logistic_loss_grad(flat, features, labels, 2, 1e-3)[0] == full.objective[0]

    def test_beats_plain_gradient_descent(self):
        # Fewer than 10 Newton steps reach the objective that 1,000 plain
        # gradient steps reach, to rounding.
        rng = np.random.default_rng(2)
        features, labels = separable_toy(rng, gap=1.0)
        fits = fit_logistic_grid(features, labels, 2, [1e-2])
        assert fits.converged[0] and fits.iterations[0] < 10
        gd_loss = gradient_descent_1000(features, labels, 2, reg=1e-2)
        assert fits.objective[0] <= gd_loss * (1 + 1e-14)

    def test_gradient_test_uses_infinity_norm(self):
        # Two rows, 0 and c * ones(4), of two classes: at zero the gradient's W
        # part is +-c / 4 in every entry and its bias part 0, so max |g_i| = c / 4
        # and ||g||_2 = 2c / 4.  At c / 4 = GRADIENT_TOL the fit stops before a
        # step; one ulp above it takes a step.
        labels = np.array([0, 1])
        for tol, steps in ((GRADIENT_TOL, 0), (np.nextafter(GRADIENT_TOL, 1.0), 1)):
            features = np.vstack([np.zeros(4), np.full(4, 4 * tol)])
            _, grad = logistic_loss_grad(np.zeros(4 * 2 + 2), features, labels, 2, 1.0)
            assert np.abs(grad).max() == tol and np.linalg.norm(grad) > GRADIENT_TOL
            fits = fit_logistic_grid(features, labels, 2, [1.0])
            assert fits.converged[0] and fits.iterations[0] == steps

    def test_iteration_limits(self):
        # A cap leaves the fits that need more steps unconverged at the cap,
        # and the others bitwise as they are without it.
        features, labels = random_problem()
        regs = default_reg_grid()
        full = fit_logistic_grid(features, labels, 4, regs)
        for cap in (0, 1, 4):
            capped = fit_logistic_grid(features, labels, 4, regs, max_iterations=cap)
            np.testing.assert_array_equal(capped.iterations, np.minimum(full.iterations, cap))
            done = full.iterations <= cap
            np.testing.assert_array_equal(capped.converged, done)
            assert capped.w[done].tobytes() == full.w[done].tobytes()
        assert not capped.converged.all() and capped.converged.any()
        assert not fit_logistic_grid(features, labels, 4, regs, max_iterations=0).w.any()

    @pytest.mark.parametrize("absent", [0, 3])
    def test_class_absent_from_fit_rows(self, absent):
        # An absent class's bias has no finite optimum: it falls until the
        # gradient test stops the fit.  Class 3's bias is the one Newton holds
        # at 0, so then the other three rise together.
        features, _, noisy = pinned_probe_problem()
        keep = noisy != absent
        fits = fit_logistic_grid(features[keep], noisy[keep], 4, default_reg_grid())
        assert fits.converged.all() and fits.iterations.max() <= 12
        assert np.isfinite(fits.w).all() and np.isfinite(fits.b).all()
        assert absent not in predict_logistic(fits.w, fits.b, features)


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
        for bad in ({"reg_grid": (0.0, 1.0)}, {"reg_grid": (-1.0, 1.0)}, {"max_iterations": 0},
                    {"holdout_fraction": -1.0}, {"holdout_fraction": 1.0}):
            with pytest.raises(ConfigError):
                ProbeConfig(**bad)
        ProbeConfig(reg_grid=(1e-300,), max_iterations=1, holdout_fraction=0.0)


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
        fits = fit_logistic_grid(features, labels, 2, [1e6])
        assert np.abs(fits.w).max() <= 1e-4
        predictions = predict_logistic(fits.w[0], fits.b[0], features)
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
        ("float_train_labels", ContractError),
        ("fractional_test_label", ContractError),
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
        elif case == "float_train_labels":
            args["train_labels"] = labels.astype(np.float64)
        elif case == "fractional_test_label":
            args["test_labels"] = labels.astype(np.float64)
            args["test_labels"][0] = 1.5
        elif case == "nan_train_features":
            args["train_features"] = np.full_like(features, np.nan)
        elif case == "inf_test_features":
            args["test_features"][3, 0] = np.inf
        with pytest.raises(error):
            linear_probe(cfg=ProbeConfig(shots=20), **args)

    def test_outcomes_pinned(self, monkeypatch):
        # Outcomes, and digests of the fitted (W, b) of every grid point and
        # of the refit, per (shots, seed).  At 8 shots every grid point gets
        # 2 of 6 holdout examples right, so the lowest-reg tie-break picks the
        # lowest reg.  The other two pick a point inside the grid: at 4 shots
        # regs 0-50 get none of 3 right and regs 51-95 one; at 5 shots, seed
        # 10, regs 51-54 get 2 of 4 right, the lowest reg 0 and the highest 1.
        features, labels, noisy = pinned_probe_problem()
        calls = record_fits(monkeypatch)
        expected = {
            (4, 4): (ProbeOutcome(0.65625, 2.7676123707542306, 0.3333333333333333),
                     "ffa4e12b76f3fb114d1d56d41891bcdc359b732ae2c0ba9cf0506c09c6ea8558", "bb65c70b5e70bc5e7f0742890b3ce0ead1c4dd30f389b3c3a091b1e06698dd22"),
            (8, 8): (ProbeOutcome(0.84375, 1e-06, 0.3333333333333333),
                     "042698230b2544cf87d4b8f78e21342ac182b9216d07d0acf9569ff204cb6801", "237334582130252182e8341bca108966f353e98e428d7d2400b2cb965ed92070"),
            (5, 10): (ProbeOutcome(0.75, 2.7676123707542306, 0.5),
                      "1740177bc72230c23887dc748a6bf36d4d3930733df378e339a2d5fa80c34c1d", "716f7be83c187cdc526c590d8d4cad7737eab821de11e85830dd57313467df0b"),
        }
        for (shots, seed), (outcome, sweep_digest, refit_digest) in expected.items():
            train = few_shot_rows(labels, shots)
            cfg = ProbeConfig(shots=shots, seed=seed)
            assert linear_probe(features[train], noisy[train], features, labels, cfg) == outcome
            (_, sweep), (_, refit) = calls[-2:]
            assert len(sweep.objective) == GRID_STEPS and len(refit.objective) == 1
            assert fits_digest(sweep) == sweep_digest
            assert fits_digest(refit) == refit_digest

    def test_objective_tolerance_keeps_predictions(self, monkeypatch):
        # The sweep linear_probe fits, against the same sweep with the
        # gradient test switched off, so that the objective tolerance alone
        # stops each fit.  It does, before the cap and no earlier than the
        # gradient test, and no prediction on the 32 rows changes.  Objectives
        # are compared on the stopping test's own scale, max(1, |f|): the
        # gradient test leaves the low-reg fits up to 1.5e-5 above the
        # optimum.
        features, labels, noisy = pinned_probe_problem()
        calls = record_fits(monkeypatch)
        for shots in (4, 8):
            train = few_shot_rows(labels, shots)
            linear_probe(features[train], noisy[train], features, labels,
                         ProbeConfig(shots=shots, seed=shots))
            args, default = calls[-2]
            with monkeypatch.context() as patched:
                patched.setattr(probe, "GRADIENT_TOL", -1.0)
                strict = fit_logistic_grid(*args)
            assert len(default.objective) == len(strict.objective) == GRID_STEPS
            assert strict.converged.all()
            assert strict.iterations.max() < ProbeConfig().max_iterations
            assert np.all(strict.iterations >= default.iterations)
            assert strict.iterations.sum() > default.iterations.sum()
            np.testing.assert_array_equal(predict_logistic(default.w, default.b, features),
                                          predict_logistic(strict.w, strict.b, features))
            scale = np.maximum(1.0, np.abs(strict.objective))
            assert np.all(strict.objective <= default.objective)
            assert np.all(default.objective - strict.objective <= 3e-5 * scale)

    def test_pinned_fits_converge_within_budget(self, monkeypatch, caplog):
        # Every fit linear_probe makes on the pinned problem at 4 and 8 shots
        # converges before the cap, with no WARNING.  Together they take 912
        # Newton steps, at most 9 per fit; a fit that runs to the cap instead
        # adds up to 1,000, so the bound catches a stopping rule that lets fits
        # run on.
        features, labels, noisy = pinned_probe_problem()
        calls = record_fits(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="upm.probe"):
            for shots in (4, 8):
                train = few_shot_rows(labels, shots)
                linear_probe(features[train], noisy[train], features, labels,
                             ProbeConfig(shots=shots, seed=shots))
        iterations = np.concatenate([fits.iterations for _, fits in calls])
        assert len(iterations) == 2 * (GRID_STEPS + 1)
        assert all(fits.converged.all() for _, fits in calls)
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]
        assert iterations.max() <= 12
        assert iterations.sum() <= 1000

    def test_one_shot_holdout_empties_a_class(self, monkeypatch, caplog):
        # At 1 shot the holdout takes one class's only example, so the grid
        # is fitted with that class absent; every fit still converges.
        features, labels, _ = pinned_probe_problem()
        train = few_shot_rows(labels, 1)
        calls = record_fits(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="upm.probe"):
            outcome = linear_probe(features[train], labels[train], features, labels,
                                   ProbeConfig(shots=1))
        (sweep_args, sweep), (_, refit) = calls
        assert len(sweep_args[1]) == 3 and len(np.unique(sweep_args[1])) == 3
        for fits in (sweep, refit):
            assert fits.converged.all() and fits.iterations.max() <= 12
            assert np.isfinite(fits.w).all() and np.isfinite(fits.b).all()
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]
        assert 0.0 <= outcome.test_accuracy <= 1.0

    def test_info_line_per_call(self, caplog):
        features, labels, noisy = pinned_probe_problem()
        train = few_shot_rows(labels, 5)
        with caplog.at_level(logging.INFO, logger="upm.probe"):
            linear_probe(features[train], noisy[train], features, labels,
                         ProbeConfig(shots=5, seed=10))
        infos = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert infos == ["linear probe: 96 grid fits and a refit, at most 9 Newton steps each; "
                         "reg 2.76761 chosen at holdout accuracy 0.5"]

    def test_unconverged_fits_logged_once(self, caplog):
        rng = np.random.default_rng(7)
        features, labels = separable_toy(rng, n_per_class=4, gap=1.0)
        regs = (1e-3, 1e-2, 1e-1)  # 8, 7 and 5 Newton steps uncapped
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
