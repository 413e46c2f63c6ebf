"""Few-shot linear probing: multinomial logistic regression under L-BFGS.

The optimizer is a standard limited-memory BFGS with two-loop recursion
and a strong-Wolfe line search (doubling bracket, then bisection zoom).
It minimizes a stack of independent problems together: every problem
keeps its own history ring, line-search state, iteration count and
stopping test, and all of them run in lockstep until each has stopped.
Each round makes one batched objective call at every running problem's
next trial point.  A problem's iterates are bitwise those it reaches when
minimized alone, because each per-problem step is the float operation the
one-problem iteration makes; row dot products go through BLAS ``ddot``,
as ``a @ b`` of two vectors does.

A problem stops converged when its largest gradient component falls to
``GRADIENT_TOL`` (``max_i |g_i| <= 1e-5``, L-BFGS-B's ``pgtol`` and
scipy's default ``gtol``) or when a strong-Wolfe step improves f by no
more than ``OBJECTIVE_TOL * max(1, |f|)`` (L-BFGS-B's ``factr = 1e4``),
both after Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 1995; it stops
unconverged at ``max_iterations``.

The regularization strength is selected on a held-out fold over a
96-point log-spaced grid.  The whole grid is fitted in one batched run,
then the chosen strength is refit on the full few-shot training set.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractError, DegenerateInputError, NumericError, ShapeError

logger = logging.getLogger(__name__)

GRID_STEPS = 96


def default_reg_grid() -> np.ndarray:
    return np.logspace(-6.0, 6.0, GRID_STEPS)


@dataclass(frozen=True)
class ProbeConfig:
    shots: int = 5
    reg_grid: tuple[float, ...] = field(default_factory=lambda: tuple(default_reg_grid()))
    max_iterations: int = 1000
    history: int = 10
    holdout_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.shots < 1:
            raise ConfigError("shots must be at least 1")
        grid = np.asarray(self.reg_grid)
        if grid.ndim != 1 or len(grid) < 1 or np.any(np.diff(grid) <= 0):
            raise ConfigError("regularization grid must be strictly increasing")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least 1")
        if self.history < 1:
            raise ConfigError("history must be at least 1")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ConfigError("holdout_fraction must lie in [0, 1)")


# ---------------------------------------------------------------------------
# L-BFGS


@dataclass
class LbfgsResult:
    x: np.ndarray
    objective_history: list[float]
    iterations: int
    converged: bool


# Strong-Wolfe constants, and the evaluations allowed per phase (bracket, zoom).
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
LINE_SEARCH_EVALS = 30

# Relative objective tolerance: L-BFGS-B's factr = 1e4 times machine epsilon.
OBJECTIVE_TOL = 1e4 * np.finfo(float).eps
# Tolerance on the gradient's largest absolute component: L-BFGS-B's pgtol.
GRADIENT_TOL = 1e-5

_BRACKET, _ZOOM, _AT_LO = 0, 1, 2


class _LineSearch:
    """One problem's strong-Wolfe line search, advanced one evaluation at a time.

    ``alpha`` is the step to evaluate next.  :meth:`update` takes the
    objective and the slope there, and returns True once ``alpha`` is the
    accepted step.  The phases are a doubling bracket, a bisection zoom,
    and, when the zoom runs out, one evaluation at its low end.
    """

    __slots__ = ("f0", "dphi0", "alpha", "phase", "evals", "alpha_prev", "f_prev", "lo", "f_lo", "hi")

    def __init__(self, f0: float, dphi0: float):
        if dphi0 >= 0:
            raise ContractError("line search requires a descent direction")
        self.f0, self.dphi0 = f0, dphi0
        self.alpha, self.phase, self.evals = 1.0, _BRACKET, 0
        self.alpha_prev, self.f_prev = 0.0, f0

    def _zoom(self, lo: float, f_lo: float, hi: float) -> bool:
        self.phase, self.evals = _ZOOM, 0
        self.lo, self.f_lo, self.hi = lo, f_lo, hi
        self.alpha = 0.5 * (lo + hi)
        return False

    def update(self, f: float, dphi: float) -> bool:
        if self.phase == _AT_LO:
            return True
        alpha = self.alpha
        sufficient = not f > self.f0 + WOLFE_C1 * alpha * self.dphi0
        curvature = abs(dphi) <= -WOLFE_C2 * self.dphi0
        if self.phase == _BRACKET:
            if not sufficient or (self.evals > 0 and f >= self.f_prev):
                return self._zoom(self.alpha_prev, self.f_prev, alpha)
            if curvature:
                return True
            if dphi >= 0:
                return self._zoom(alpha, f, self.alpha_prev)
            self.alpha_prev, self.f_prev = alpha, f
            self.evals += 1
            if self.evals == LINE_SEARCH_EVALS:
                return True  # out of doublings: the last evaluated step
            self.alpha = alpha * 2.0
            return False
        if not sufficient or f >= self.f_lo:
            self.hi = alpha
        else:
            if curvature:
                return True
            if dphi * (self.hi - self.lo) >= 0:
                self.hi = self.lo
            self.lo, self.f_lo = alpha, f
        self.evals += 1
        if abs(self.hi - self.lo) < 1e-16 or self.evals == LINE_SEARCH_EVALS:
            self.phase, self.alpha = _AT_LO, self.lo
        else:
            self.alpha = 0.5 * (self.lo + self.hi)
        return False


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[k] @ b[k]`` for every row k, each one BLAS ``ddot``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _two_loop(q: np.ndarray, window: np.ndarray, rho: np.ndarray, valid: list) -> None:
    """Overwrite q (n, P) with H @ q by the two-loop recursion.

    ``window`` (depth, n, 2, P) holds each row's pairs (s, y), newest
    first, and ``rho`` (depth, n) their 1 / (s @ y).  Rows skip pair j
    where ``valid[j]`` (n, 1, 1) is False.
    """
    levels = list(zip(window[:, :, 0, None, :], window[:, :, 1, None, :],
                      rho[:, :, None, None], np.empty(rho.shape + (1, 1)), valid))
    q_row, q_col = q[:, None, :], q[:, :, None]
    for s, y, rho_j, a, valid_j in levels:
        np.multiply(rho_j, np.matmul(s, q_col), out=a)
        np.subtract(q_row, a * y, out=q_row, where=valid_j)
    s, y, _, _, valid_j = levels[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.matmul(s, y.transpose(0, 2, 1)) / np.matmul(y, y.transpose(0, 2, 1))
    np.multiply(q_row, scale, out=q_row, where=valid_j)
    for s, y, rho_j, a, valid_j in reversed(levels):
        np.add(q_row, (a - rho_j * np.matmul(y, q_col)) * s, out=q_row, where=valid_j)


def lbfgs_minimize_batch(
    fun_grad: Callable,
    x0: np.ndarray,
    max_iterations: int = 1000,
    history: int = 10,
    grad_tol: float = GRADIENT_TOL,
    objective_tol: float = OBJECTIVE_TOL,
) -> list[LbfgsResult]:
    """Minimize K independent problems, one per row of x0 (K, P), in lockstep.

    ``fun_grad(xs, rows)`` returns the objectives (M,) and gradients
    (M, P) of problems ``rows`` (indices into x0) at the points xs (M, P).
    One call at x0 starts every problem; each round then makes one call
    at the next trial point of every problem still running, in ascending
    row order.  Each problem runs :func:`lbfgs_minimize`'s iteration and
    stopping tests on its own, and its result is bitwise the one it gets
    alone.  The curvature pairs take K x history x 2 x P x 8 bytes: 4.0 MB
    for the 96-point grid on 64-d, 4-class features, about 47 MB on
    768-d ones.
    """
    if history < 1:
        raise ConfigError("history must be at least 1")
    x = np.array(x0, dtype=np.float64)
    k, p = x.shape
    if not k:
        return []
    f, g = fun_grad(x, np.arange(k))
    f = np.array(f, dtype=np.float64)
    g = np.array(g, dtype=np.float64)
    objective_history = [[f_i] for f_i in f.tolist()]
    d = np.zeros((k, p))
    it = np.ones(k, dtype=np.int64)  # the iteration each problem is in
    iterations = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    running = np.ones(k, dtype=bool)
    searches: list[_LineSearch | None] = [None] * k
    # Each problem's curvature pairs (s, y): its pair i sits in slot i % history.
    ring = np.zeros((k, history, 2, p))
    rho_ring = np.zeros((k, history))
    pairs = np.zeros(k, dtype=np.int64)

    def stop(rows: np.ndarray, is_converged: bool, completed: np.ndarray) -> None:
        running[rows] = False
        iterations[rows] = completed
        converged[rows] = is_converged

    def start_iteration(rows: np.ndarray) -> None:
        """Gradient test, then the two-loop direction and a new line search."""
        g_rows = g[rows]
        small = np.abs(g_rows).max(axis=1, initial=0.0) <= grad_tol
        if small.any():
            stop(rows[small], True, it[rows[small]] - 1)
            rows, g_rows = rows[~small], g_rows[~small]
        if not len(rows):
            return
        q = g_rows.copy()
        stored = np.minimum(pairs[rows], history)
        depth = int(stored.max())
        if depth:
            # Ring slots of each row's pairs, newest first.
            slots = (pairs[rows] - 1 - np.arange(depth)[:, None]) % history
            valid = [True] * depth if stored.min() == depth else list(
                (np.arange(depth)[:, None] < stored)[:, :, None, None])
            _two_loop(q, ring[rows, slots], rho_ring[rows, slots], valid)
        d_rows = -q
        dphi0 = _rowdot(g_rows, d_rows)
        restart = dphi0 >= 0  # not a descent direction: steepest descent instead
        if restart.any():
            d_rows[restart] = -g_rows[restart]
            dphi0[restart] = _rowdot(g_rows[restart], d_rows[restart])
        d[rows] = d_rows
        for r, f0, slope in zip(rows.tolist(), f[rows].tolist(), dphi0.tolist()):
            searches[r] = _LineSearch(f0, slope)

    def finish_iteration(rows: np.ndarray, alpha: np.ndarray, f_new: np.ndarray,
                         g_new: np.ndarray) -> None:
        """Take the accepted steps of rows, then start their next iteration."""
        step = alpha[:, None] * d[rows]
        y = g_new - g[rows]
        sy = _rowdot(step, y)
        kept = sy > 1e-12
        if kept.any():
            at = rows[kept]
            slot = pairs[at] % history
            ring[at, slot, 0] = step[kept]
            ring[at, slot, 1] = y[kept]
            rho_ring[at, slot] = 1.0 / sy[kept]
            pairs[at] += 1
        x[rows] = x[rows] + step
        f[rows] = f_new
        g[rows] = g_new
        for r, f_r in zip(rows.tolist(), f_new.tolist()):
            objective_history[r].append(f_r)
        it_rows = it[rows]
        last = it_rows >= max_iterations
        if last.any():
            stop(rows[last], False, it_rows[last])
            rows = rows[~last]
        it[rows] += 1
        start_iteration(rows)

    if max_iterations >= 1:
        start_iteration(np.arange(k))
    else:
        stop(np.arange(k), False, 0)
    while running.any():
        rows = np.flatnonzero(running)
        alpha = np.array([searches[r].alpha for r in rows.tolist()])
        d_rows = d[rows]
        f_new, g_new = fun_grad(x[rows] + alpha[:, None] * d_rows, rows)
        f_new = np.asarray(f_new, dtype=np.float64)
        g_new = np.asarray(g_new, dtype=np.float64)
        dphi = _rowdot(g_new, d_rows)
        accepted, stalled = [], []
        for i, (r, f_r, dphi_r) in enumerate(zip(rows.tolist(), f_new.tolist(), dphi.tolist())):
            search = searches[r]
            if search.update(f_r, dphi_r):
                f0 = search.f0
                improved = f_r < f0 - objective_tol * max(1.0, abs(f0))
                (accepted if improved else stalled).append(i)
        if stalled:
            done = rows[stalled]
            stop(done, True, it[done] - 1)
        if accepted:
            finish_iteration(rows[accepted], alpha[accepted], f_new[accepted], g_new[accepted])

    return [
        LbfgsResult(x=x[i], objective_history=objective_history[i],
                    iterations=int(iterations[i]), converged=bool(converged[i]))
        for i in range(k)
    ]


def lbfgs_minimize(
    fun_grad: Callable,
    x0: np.ndarray,
    max_iterations: int = 1000,
    history: int = 10,
    grad_tol: float = GRADIENT_TOL,
    objective_tol: float = OBJECTIVE_TOL,
) -> LbfgsResult:
    """Minimize fun_grad (returning (f, grad)) from x0.

    The objective history records f at every accepted iterate and is
    strictly decreasing.  Iteration stops converged once the gradient's
    infinity norm ``max_i |g_i|`` falls to ``grad_tol`` (default
    ``GRADIENT_TOL = 1e-5``, L-BFGS-B's ``pgtol``) or a Wolfe step improves
    f by no more than ``objective_tol * max(1, |f|)`` (default
    ``OBJECTIVE_TOL``, L-BFGS-B's ``factr = 1e4``), and unconverged after
    ``max_iterations``.
    """

    def stacked(xs, rows):
        f, g = fun_grad(xs[0])
        return np.array([f], dtype=np.float64), np.asarray(g, dtype=np.float64)[None]

    (result,) = lbfgs_minimize_batch(stacked, np.asarray(x0, dtype=np.float64)[None],
                                     max_iterations, history, grad_tol, objective_tol)
    return result


# ---------------------------------------------------------------------------
# multinomial logistic regression


def logistic_loss_grad(flat: np.ndarray, features: np.ndarray, labels: np.ndarray, n_classes: int, reg):
    """Mean cross-entropy + (reg/2)||W||^2; bias is unregularized.

    ``flat`` is one parameter vector (P,) with a scalar ``reg``, giving a
    scalar loss and a (P,) gradient, or a stack (K, P) with ``reg`` a
    scalar or (K,), giving (K,) losses and (K, P) gradients.  Each row of
    a stack gets bitwise the loss and gradient it gets alone.
    """
    x = flat.reshape(-1, flat.shape[-1])
    k = len(x)
    n, dim = features.shape
    reg = np.asarray(reg, dtype=np.float64)
    w = x[:, : dim * n_classes].reshape(k, dim, n_classes)
    b = x[:, dim * n_classes :]
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
    if np.ndim(flat) == 1:
        return loss[0], grad[0]
    return loss, grad


def _unflatten(x: np.ndarray, dim: int, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    return x[: dim * n_classes].reshape(dim, n_classes), x[dim * n_classes :]


def fit_logistic(
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    reg: float,
    max_iterations: int = 1000,
    history: int = 10,
) -> tuple[np.ndarray, np.ndarray, LbfgsResult]:
    """Train W, b by L-BFGS from zero initialization."""
    dim = features.shape[1]
    x0 = np.zeros(dim * n_classes + n_classes)
    result = lbfgs_minimize(
        lambda x: logistic_loss_grad(x, features, labels, n_classes, reg),
        x0,
        max_iterations=max_iterations,
        history=history,
    )
    w, b = _unflatten(result.x, dim, n_classes)
    return w, b, result


def fit_logistic_grid(
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    regs,
    max_iterations: int = 1000,
    history: int = 10,
) -> list[LbfgsResult]:
    """One :func:`fit_logistic` per regularization strength, in one batched L-BFGS."""
    regs = np.asarray(regs, dtype=np.float64)
    x0 = np.zeros((len(regs), features.shape[1] * n_classes + n_classes))
    return lbfgs_minimize_batch(
        lambda xs, rows: logistic_loss_grad(xs, features, labels, n_classes, regs[rows]),
        x0,
        max_iterations=max_iterations,
        history=history,
    )


def predict_logistic(w: np.ndarray, b: np.ndarray, features: np.ndarray) -> np.ndarray:
    return np.argmax(features @ w + b, axis=1)


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
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

    The holdout fold takes ``holdout_fraction`` of the few-shot training
    set (at least one example); the best grid point by holdout accuracy
    (lowest reg on ties) is refit on the full training set.  Every fit
    stops once ``max_i |g_i| <= GRADIENT_TOL`` (1e-5, L-BFGS-B's ``pgtol``)
    or once a step improves f by at most ``OBJECTIVE_TOL`` relative
    (L-BFGS-B's ``factr = 1e4``).  One WARNING reports how many grid fits
    stopped at ``max_iterations`` without converging and whether the refit
    converged, when any fit did not.

    Raises ``ShapeError`` when features and labels disagree in rows or the
    two feature sets in width, ``DegenerateInputError`` for an empty set,
    ``ContractError`` for a negative label and ``NumericError`` for a
    non-finite feature.
    """
    train_features = np.asarray(train_features)
    test_features = np.asarray(test_features)
    train_labels = np.asarray(train_labels)
    test_labels = np.asarray(test_labels)
    for name, features, labels in (("train", train_features, train_labels),
                                   ("test", test_features, test_labels)):
        if features.ndim != 2 or labels.ndim != 1 or len(features) != len(labels):
            raise ShapeError(f"{name} features {features.shape} do not match "
                             f"labels {labels.shape} row for row")
        if len(labels) == 0:
            raise DegenerateInputError(f"empty probe {name} set")
        if labels.min() < 0:
            raise ContractError(f"negative class label in the probe {name} set")
        if not np.isfinite(features).all():
            raise NumericError(f"non-finite probe {name} features")
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
    n_holdout = max(1, round(cfg.holdout_fraction * n)) if n > 1 else 0
    holdout_idx = order[:n_holdout]
    fit_idx = order[n_holdout:]
    if len(fit_idx) == 0:
        fit_idx = order
    score_idx = holdout_idx if len(holdout_idx) else np.arange(n)

    fits = fit_logistic_grid(
        train_features[fit_idx], train_labels[fit_idx], n_classes, cfg.reg_grid,
        max_iterations=cfg.max_iterations, history=cfg.history,
    )
    best = (-1.0, 0)
    for gi, fit in enumerate(fits):
        w, b = _unflatten(fit.x, train_features.shape[1], n_classes)
        score = accuracy(predict_logistic(w, b, train_features[score_idx]), train_labels[score_idx])
        if score > best[0]:
            best = (score, gi)

    chosen_reg = float(cfg.reg_grid[best[1]])
    w, b, refit = fit_logistic(
        train_features, train_labels, n_classes, chosen_reg,
        max_iterations=cfg.max_iterations, history=cfg.history,
    )
    unconverged = sum(not fit.converged for fit in fits)
    if unconverged or not refit.converged:
        logger.warning(
            "linear probe: %d of %d grid fits stopped at max_iterations=%d without "
            "converging; the refit at reg %g %s",
            unconverged, len(fits), cfg.max_iterations, chosen_reg,
            "converged" if refit.converged else "did not converge",
        )
    test_acc = accuracy(predict_logistic(w, b, test_features), test_labels)
    return ProbeOutcome(test_accuracy=test_acc, chosen_reg=chosen_reg, holdout_accuracy=best[0])
