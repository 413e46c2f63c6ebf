"""Few-shot linear probing: multinomial logistic regression by Newton's method.

The probe minimizes mean cross-entropy plus ``(reg/2)||W||^2`` over weights
W (dim, C) and an unregularized bias b (C,).  With fewer rows than feature
dimensions, the optimal W lies in the span of the training rows (the
representer theorem; kernel logistic regression, Zhu & Hastie, JCGS 2005).
A thin SVD of the rows, F = U S V^T of rank r, gives W = V B with
``||W|| = ||B||``, so Newton's method works on the (r + 1) * C unknowns of
B (r, C) and b whatever the feature width, as LIBLINEAR's logistic
regression does in the primal (Lin, Weng & Keerthi, JMLR 2008).  Softmax
leaves a shift shared by all biases free, so the last class's bias stays
at 0.

A stack of regularization strengths is fitted in lockstep: each round
builds the Hessian of every fit still running, class pair by class pair,
solves the Newton systems in batched ``np.linalg.solve`` calls of
``SOLVE_CHUNK`` fits, and runs an Armijo backtracking line search
(halving the step until f falls by ``ARMIJO_C1`` of the predicted
decrease).  f and the gradient come from :func:`logistic_loss_grad` at the
full (W, b).  A fit stops converged when its largest gradient component
falls to ``GRADIENT_TOL`` (``max_i |g_i| <= 1e-5``, L-BFGS-B's ``pgtol``
and scipy's default ``gtol``) or when a step improves f by no more than
``OBJECTIVE_TOL * max(1, |f|)`` (L-BFGS-B's ``factr = 1e4``), both after
Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 1995; it stops unconverged
after ``MAX_ITERATIONS`` Newton steps.

The regularization strength is selected on a held-out fold over a
96-point log-spaced grid.  The whole grid is fitted in one batched run,
then the chosen strength is refit on the full few-shot training set.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import check_fields, declared
from .errors import ConfigError, ContractError, DegenerateInputError, NumericError, ShapeError

logger = logging.getLogger(__name__)

GRID_STEPS = 96

# Relative objective tolerance: L-BFGS-B's factr = 1e4 times machine epsilon.
OBJECTIVE_TOL = 1e4 * np.finfo(float).eps
# Tolerance on the gradient's largest absolute component: L-BFGS-B's pgtol.
GRADIENT_TOL = 1e-5
# Armijo sufficient-decrease constant, and the step halvings allowed per Newton step.
ARMIJO_C1 = 1e-4
MAX_HALVINGS = 30
# Fits whose Newton systems are built and solved in one batch.  np.linalg.solve
# copies its stack, so this bounds the Hessians to 2 x 16 x P^2 doubles: 3.0 MB
# at 8 shots (P = 108), against 18 MB for the whole 96-point grid at once.
SOLVE_CHUNK = 16
# Share of the few-shot training set held out to choose the regularization strength.
HOLDOUT_FRACTION = 0.2
# Newton steps after which a fit stops unconverged.
MAX_ITERATIONS = 1000


def default_reg_grid() -> np.ndarray:
    return np.logspace(-6.0, 6.0, GRID_STEPS)


@dataclass(frozen=True)
class ProbeConfig:
    """Few-shot probe settings; ``upm.config`` checks each field's kind and range."""

    shots: int = declared(5, int, (">", 0))
    reg_grid: tuple[float, ...] = declared(tuple(default_reg_grid()), (float, ...), (">", 0))
    seed: int = declared(0, int, (">=", 0))

    def __post_init__(self):
        check_fields(self)
        if any(b <= a for a, b in zip(self.reg_grid, self.reg_grid[1:])):
            raise ConfigError("regularization grid must be strictly increasing")


# ---------------------------------------------------------------------------
# multinomial logistic regression


def logistic_loss_grad(flat: np.ndarray, features: np.ndarray, labels: np.ndarray, n_classes: int, reg):
    """Mean cross-entropy + (reg/2)||W||^2; bias is unregularized.

    ``flat`` is a stack (K, P) of parameter vectors and ``reg`` a scalar or
    (K,), giving (K,) losses and (K, P) gradients.  Each row of a stack
    gets bitwise the loss and gradient it gets in a stack of one.
    """
    k = len(flat)
    n, dim = features.shape
    reg = np.asarray(reg, dtype=np.float64)
    w = flat[:, : dim * n_classes].reshape(k, dim, n_classes)
    b = flat[:, dim * n_classes :]
    rows = np.arange(n)
    logits = np.matmul(features, w) + b[:, None, :]
    logits -= logits.max(axis=2, keepdims=True)
    log_z = np.log(np.exp(logits).sum(axis=2, keepdims=True))
    log_probs = logits - log_z
    # A contiguous copy, so that each row sums in the order a lone row does.
    picked = np.ascontiguousarray(log_probs[:, rows, labels])
    loss = -(picked.sum(axis=1) / n) + 0.5 * reg * (w * w).reshape(k, -1).sum(axis=1)
    probs = np.exp(log_probs)
    probs[:, rows, labels] -= 1.0
    probs /= n
    grad_w = np.matmul(features.T, probs) + reg[..., None, None] * w
    grad = np.concatenate([grad_w.reshape(k, -1), probs.sum(axis=1)], axis=1)
    return loss, grad


def _row_span(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V (dim, r), orthonormal columns spanning the rows of features, and
    each row's coordinates with a bias column, Z = [U S, 1] (n, r + 1)."""
    u, s, vt = np.linalg.svd(features, full_matrices=False)
    rank = int(np.sum(s > s.max(initial=0.0) * max(features.shape) * np.finfo(float).eps))
    return vt[:rank].T, np.hstack([u[:, :rank] * s[:rank], np.ones((len(features), 1))])


def _primal(v: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Flat (W, b) vectors (K, dim * C + C) of span coordinates theta (K, C, r + 1),
    where theta[k, c] holds B's column c and then b_c."""
    r = v.shape[1]
    w = np.matmul(v, theta[:, :, :r].transpose(0, 2, 1))
    return np.concatenate([w.reshape(len(theta), -1), theta[:, :, r]], axis=1)


def _span_gradient(v: np.ndarray, grad: np.ndarray, n_classes: int) -> np.ndarray:
    """The gradients (K, dim * C + C) of :func:`logistic_loss_grad` in theta's layout, flat."""
    k, dim = len(grad), v.shape[0]
    grad_w = grad[:, : dim * n_classes].reshape(k, dim, n_classes)
    grad_b = grad[:, dim * n_classes :, None]
    return np.concatenate([np.matmul(v.T, grad_w).transpose(0, 2, 1), grad_b], axis=2).reshape(k, -1)


def _span_hessian(z: np.ndarray, theta: np.ndarray, regs: np.ndarray) -> np.ndarray:
    """The objective's Hessians (K, P, P) in theta, P = C (r + 1).

    Block (c, c') is Z^T diag(p_c (delta_cc' - p_c') / n) Z, one GEMM per
    class pair, plus reg on the diagonal of B's entries.
    """
    k, n_classes, q = theta.shape
    logits = np.matmul(z, theta.transpose(0, 2, 1))
    probs = np.exp(logits - logits.max(axis=2, keepdims=True))
    probs /= probs.sum(axis=2, keepdims=True)
    hess = np.empty((k, n_classes, q, n_classes, q))
    for a in range(n_classes):
        for c in range(a, n_classes):
            weight = probs[:, :, a] * ((a == c) - probs[:, :, c]) / len(z)
            hess[:, a, :, c] = hess[:, c, :, a] = np.matmul(z.T * weight[:, None, :], z)
    hess = hess.reshape(k, n_classes * q, n_classes * q)
    coords = (np.arange(n_classes)[:, None] * q + np.arange(q - 1)).ravel()
    hess[:, coords, coords] += regs[:, None]
    return hess


@dataclass
class LogisticFits:
    """K fits of one problem: weights (K, dim, C), biases (K, C), final
    objectives (K,), Newton steps taken (K,) and convergence flags (K,)."""

    w: np.ndarray
    b: np.ndarray
    objective: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def _checked_set(name: str, features, labels, n_classes=np.inf) -> tuple[np.ndarray, np.ndarray]:
    """The set as arrays, or the error ``linear_probe`` documents; labels must be < n_classes."""
    features, labels = np.asarray(features), np.asarray(labels)
    if features.ndim != 2 or labels.ndim != 1 or len(features) != len(labels):
        raise ShapeError(f"{name} features {features.shape} do not match "
                         f"labels {labels.shape} row for row")
    if len(labels) == 0:
        raise DegenerateInputError(f"empty probe {name} set")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractError(f"probe {name} labels have dtype {labels.dtype}, not an integer type")
    if not 0 <= labels.min() <= labels.max() < n_classes:
        raise ContractError(f"a probe {name} label lies outside [0, {n_classes})")
    if not np.isfinite(features).all():
        raise NumericError(f"non-finite probe {name} features")
    return features, labels


def fit_logistic_grid(
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    regs,
) -> LogisticFits:
    """Fit W, b from zero at every regularization strength, by Newton's method in lockstep.

    A bad set raises as in ``linear_probe``, no strengths ``DegenerateInputError``
    and a label >= n_classes or a strength not finite and positive ``ContractError``.
    """
    features, labels = _checked_set("fit", features, labels, n_classes)
    regs = np.asarray(regs, dtype=np.float64)
    if regs.size == 0:
        raise DegenerateInputError("an empty regularization grid")
    if regs.ndim != 1 or not np.all((regs > 0) & (regs < np.inf)):  # NaN fails both
        raise ContractError(f"regularization strengths {regs!r} are not a grid of finite positives")
    k, dim = len(regs), features.shape[1]
    v, z = _row_span(features)
    q = z.shape[1]
    theta = np.zeros((k, n_classes, q))

    def evaluate(theta_rows: np.ndarray, rows: np.ndarray):
        return logistic_loss_grad(_primal(v, theta_rows), features, labels, n_classes, regs[rows])

    f, g = evaluate(theta, np.arange(k))
    iterations = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    for it in range(MAX_ITERATIONS + 1):
        converged |= np.abs(g).max(axis=1) <= GRADIENT_TOL
        rows = np.flatnonzero(~converged)
        if it == MAX_ITERATIONS or not len(rows):
            break
        # The last unknown, the last class's bias, stays at 0.
        grad = _span_gradient(v, g[rows], n_classes)[:, :-1]
        step = np.zeros((len(rows), n_classes * q))
        for lo in range(0, len(rows), SOLVE_CHUNK):
            part = slice(lo, lo + SOLVE_CHUNK)
            hess = _span_hessian(z, theta[rows[part]], regs[rows[part]])[:, :-1, :-1]
            step[part, :-1] = -np.linalg.solve(hess, grad[part, :, None])[:, :, 0]
        slope = np.sum(grad * step[:, :-1], axis=1)
        step = step.reshape(-1, n_classes, q)
        t = np.ones(len(rows))
        f_new, g_new = np.full(len(rows), np.inf), np.empty((len(rows), g.shape[1]))
        pending = np.arange(len(rows))
        for _ in range(MAX_HALVINGS):
            f_t, g_t = evaluate(theta[rows[pending]] + t[pending, None, None] * step[pending],
                                rows[pending])
            ok = f_t <= f[rows[pending]] + ARMIJO_C1 * t[pending] * slope[pending]
            f_new[pending[ok]], g_new[pending[ok]] = f_t[ok], g_t[ok]
            pending = pending[~ok]
            if not len(pending):
                break
            t[pending] *= 0.5
        # A step that improves f too little, or none that passes, ends the fit.
        improved = f_new < f[rows] - OBJECTIVE_TOL * np.maximum(1.0, np.abs(f[rows]))
        converged[rows[~improved]] = True
        moved = rows[improved]
        theta[moved] += t[improved, None, None] * step[improved]
        f[moved], g[moved] = f_new[improved], g_new[improved]
        iterations[moved] += 1
    x = _primal(v, theta)
    return LogisticFits(w=x[:, : dim * n_classes].reshape(k, dim, n_classes),
                        b=x[:, dim * n_classes :], objective=f, iterations=iterations,
                        converged=converged)


def predict_logistic(w: np.ndarray, b: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Class predictions of one fit (W (dim, C), b (C,)), or of a stack ((K, dim, C), (K, C)).

    A non-finite feature raises ``NumericError``; features whose width is
    not W's input width, or a bias whose width is not W's class count or
    whose stack is not W's, raise ``ShapeError``.
    """
    if (np.shape(features)[-1] != np.shape(w)[-2] or np.shape(b)[-1] != np.shape(w)[-1]
            or np.shape(b)[:-1] != np.shape(w)[:-2]):
        raise ShapeError(f"features {np.shape(features)} and bias {np.shape(b)} do not fit "
                         f"weights {np.shape(w)}")
    if not np.isfinite(features).all():
        raise NumericError("non-finite features to predict from")
    return np.argmax(features @ w + b[..., None, :], axis=-1)


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """The fraction of predictions equal to their labels, over arrays of one shape."""
    predictions, labels = np.asarray(predictions), np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ShapeError(f"predictions {predictions.shape} do not match labels {labels.shape}")
    if predictions.size == 0:
        raise DegenerateInputError("accuracy over no predictions")
    return float(np.mean(predictions == labels))


@dataclass
class ProbeOutcome:
    test_accuracy: float
    chosen_reg: float
    holdout_accuracy: float


def linear_probe(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    test_features: np.ndarray,
    test_labels: np.ndarray,
    cfg: ProbeConfig,
) -> ProbeOutcome:
    """Grid-searched logistic probe: fit on a sub-fold, select reg, refit.

    The holdout fold takes ``HOLDOUT_FRACTION`` of the few-shot training
    set (at least one example); the best grid point by holdout accuracy
    (lowest reg on ties) is refit on the full training set.  Both are
    :func:`fit_logistic_grid` calls, the refit on a one-point grid: Newton
    steps in the span of the fit rows, each fit stopping once
    ``max_i |g_i| <= GRADIENT_TOL`` (1e-5, L-BFGS-B's ``pgtol``) or once a
    step improves f by at most ``OBJECTIVE_TOL`` relative (L-BFGS-B's
    ``factr = 1e4``).  One INFO line gives the grid size, the most Newton
    steps any fit took, the chosen reg and its holdout accuracy.  One
    WARNING reports how many grid fits stopped at ``MAX_ITERATIONS``
    without converging and whether the refit converged, when any fit did
    not.

    Raises ``ShapeError`` when features and labels disagree in rows or the
    two feature sets in width, ``DegenerateInputError`` for an empty set,
    ``ContractError`` for a label that is not a non-negative integer and
    ``NumericError`` for a non-finite feature.
    """
    train_features, train_labels = _checked_set("train", train_features, train_labels)
    test_features, test_labels = _checked_set("test", test_features, test_labels)
    if train_features.shape[1] != test_features.shape[1]:
        raise ShapeError(f"train features have width {train_features.shape[1]}, "
                         f"test features {test_features.shape[1]}")
    n_classes = int(max(train_labels.max(), test_labels.max())) + 1
    present = np.unique(train_labels)
    if len(present) != n_classes:
        missing = sorted(set(range(n_classes)) - set(present.tolist()))
        raise ConfigError(f"classes {missing} missing from the probe training set")

    n = len(train_labels)
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(n)
    n_holdout = max(1, round(HOLDOUT_FRACTION * n)) if n > 1 else 0
    holdout_idx = order[:n_holdout]
    fit_idx = order[n_holdout:]
    score_idx = holdout_idx if len(holdout_idx) else np.arange(n)

    sweep = fit_logistic_grid(train_features[fit_idx], train_labels[fit_idx], n_classes,
                              cfg.reg_grid)
    predictions = predict_logistic(sweep.w, sweep.b, train_features[score_idx])
    scores = np.mean(predictions == train_labels[score_idx], axis=1)
    best = int(np.argmax(scores))  # the first, lowest-reg, of tied points
    chosen_reg = float(cfg.reg_grid[best])
    refit = fit_logistic_grid(train_features, train_labels, n_classes, [chosen_reg])
    logger.info(
        "linear probe: %d grid fits and a refit, at most %d Newton steps each; "
        "reg %g chosen at holdout accuracy %g",
        len(scores), max(sweep.iterations.max(), refit.iterations[0]), chosen_reg, scores[best],
    )
    unconverged = int(np.sum(~sweep.converged))
    if unconverged or not refit.converged[0]:
        logger.warning(
            "linear probe: %d of %d grid fits stopped at MAX_ITERATIONS=%d without "
            "converging; the refit at reg %g %s",
            unconverged, len(scores), MAX_ITERATIONS, chosen_reg,
            "converged" if refit.converged[0] else "did not converge",
        )
    test_acc = accuracy(predict_logistic(refit.w[0], refit.b[0], test_features), test_labels)
    return ProbeOutcome(test_accuracy=test_acc, chosen_reg=chosen_reg,
                        holdout_accuracy=float(scores[best]))
