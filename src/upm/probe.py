"""Few-shot linear probing: multinomial logistic regression under L-BFGS.

The optimizer is a standard limited-memory BFGS with two-loop recursion
and a strong-Wolfe line search (doubling bracket, then bisection zoom).
It minimizes a stack of independent problems together: every problem
keeps its own history ring, line-search state, iteration count and
stopping test, and a problem that stops frees its place for the next.
Each round makes one batched objective call at every running problem's
next trial point.  A problem's iterates are bitwise those it reaches when
minimized alone, because each per-problem step is the float operation the
one-problem iteration makes; row dot products go through BLAS ``ddot``,
as ``a @ b`` of two vectors does.

The regularization strength is selected on a held-out fold over a
96-point log-spaced grid.  The whole grid is fitted in one batched run,
then the chosen strength is refit on the full few-shot training set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractError

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


# Problems minimized at once.  Their curvature pairs take MAX_RUNNING x history
# x P x 16 bytes; each further problem starts when a running one stops.
MAX_RUNNING = 32


class _Running:
    """The problems being minimized, one row each, with the ring lane it owns."""

    FIELDS = ("ids", "lanes", "it", "x", "f", "g", "d", "stopped")

    def __init__(self, p: int):
        self.ids = np.zeros(0, dtype=np.int64)
        self.lanes = np.zeros(0, dtype=np.int64)
        self.it = np.zeros(0, dtype=np.int64)  # the iteration each row is in
        self.x, self.g, self.d = np.zeros((0, p)), np.zeros((0, p)), np.zeros((0, p))
        self.f = np.zeros(0)
        self.stopped = np.zeros(0, dtype=bool)
        self.searches: list[_LineSearch | None] = []

    def add(self, ids: np.ndarray, lanes: np.ndarray, x: np.ndarray, f: np.ndarray,
            g: np.ndarray) -> np.ndarray:
        """Append rows for problems ids at x; returns their row indices."""
        n = len(ids)
        new = {"ids": ids, "lanes": lanes, "it": np.ones(n, dtype=np.int64), "x": x, "f": f,
               "g": g, "d": np.zeros_like(x), "stopped": np.zeros(n, dtype=bool)}
        for name in self.FIELDS:
            setattr(self, name, np.concatenate([getattr(self, name), new[name]]))
        self.searches += [None] * n
        return np.arange(len(self.ids) - n, len(self.ids))

    def drop_stopped(self) -> list[int]:
        """Remove the stopped rows; returns the lanes they free."""
        freed = self.lanes[self.stopped].tolist()
        keep = ~self.stopped
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name)[keep])
        self.searches = [s for s, kept in zip(self.searches, keep.tolist()) if kept]
        return freed


def lbfgs_minimize_batch(
    fun_grad: Callable,
    x0: np.ndarray,
    max_iterations: int = 1000,
    history: int = 10,
    grad_tol: float = 1e-9,
    objective_tol: float = 0.0,
) -> list[LbfgsResult]:
    """Minimize K independent problems, one per row of x0 (K, P).

    ``fun_grad(xs, rows)`` returns the objectives (M,) and gradients
    (M, P) of problems ``rows`` (indices into x0) at the points xs (M, P).
    Each problem runs :func:`lbfgs_minimize`'s iteration and stopping
    tests on its own, and its result is bitwise the one it gets alone.
    Problems start in row order, at most ``MAX_RUNNING`` at a time.
    """
    if history < 1:
        raise ConfigError("history must be at least 1")
    x0 = np.asarray(x0, dtype=np.float64)
    k, p = x0.shape
    objective_history: list[list[float]] = [[] for _ in range(k)]
    final_x = np.empty((k, p))
    iterations = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    # Curvature pairs (s, y) in one ring per lane, flattened to (lane, slot):
    # a problem's pair i sits in slot i % history of its lane.
    n_lanes = min(k, MAX_RUNNING)
    ring = np.zeros((n_lanes * history, 2, p))
    rho_ring = np.zeros(n_lanes * history)
    pairs = np.zeros(n_lanes, dtype=np.int64)
    free_lanes = list(range(n_lanes))
    run = _Running(p)

    def stop(rows: np.ndarray, is_converged: bool, completed: np.ndarray) -> None:
        run.stopped[rows] = True
        ids = run.ids[rows]
        final_x[ids] = run.x[rows]
        iterations[ids] = completed
        converged[ids] = is_converged

    def start_iteration(rows: np.ndarray) -> None:
        """Gradient test, then the two-loop direction and a new line search."""
        g_rows = run.g[rows]
        small = np.sqrt(_rowdot(g_rows, g_rows)) <= grad_tol
        if small.any():
            stop(rows[small], True, run.it[rows[small]] - 1)
            rows, g_rows = rows[~small], g_rows[~small]
        if not len(rows):
            return
        q = g_rows.copy()
        lanes = run.lanes[rows]
        stored = np.minimum(pairs[lanes], history)
        depth = int(stored.max())
        if depth:
            # Ring positions of each row's pairs, newest first.
            at = lanes * history + (pairs[lanes] - 1 - np.arange(depth)[:, None]) % history
            valid = [True] * depth if stored.min() == depth else list(
                (np.arange(depth)[:, None] < stored)[:, :, None, None])
            _two_loop(q, ring[at], rho_ring[at], valid)
        d = -q
        dphi0 = _rowdot(g_rows, d)
        restart = dphi0 >= 0  # not a descent direction: steepest descent instead
        if restart.any():
            d[restart] = -g_rows[restart]
            dphi0[restart] = _rowdot(g_rows[restart], d[restart])
        run.d[rows] = d
        for r, f0, slope in zip(rows.tolist(), run.f[rows].tolist(), dphi0.tolist()):
            run.searches[r] = _LineSearch(f0, slope)

    def finish_iteration(rows: np.ndarray, alpha: np.ndarray, f_new: np.ndarray,
                         g_new: np.ndarray) -> None:
        """Take the accepted steps of rows, then start their next iteration."""
        step = alpha[:, None] * run.d[rows]
        y = g_new - run.g[rows]
        sy = _rowdot(step, y)
        kept = sy > 1e-12
        if kept.any():
            lanes = run.lanes[rows[kept]]
            at = lanes * history + pairs[lanes] % history
            ring[at, 0] = step[kept]
            ring[at, 1] = y[kept]
            rho_ring[at] = 1.0 / sy[kept]
            pairs[lanes] += 1
        run.x[rows] = run.x[rows] + step
        run.f[rows] = f_new
        run.g[rows] = g_new
        for i, f_i in zip(run.ids[rows].tolist(), f_new.tolist()):
            objective_history[i].append(f_i)
        it = run.it[rows]
        last = it >= max_iterations
        if last.any():
            stop(rows[last], False, it[last])
            rows = rows[~last]
        run.it[rows] += 1
        start_iteration(rows)

    def admit(ids: np.ndarray) -> None:
        """Evaluate problems ids at their x0 and start them on free lanes."""
        lanes = np.array(free_lanes[: len(ids)])
        del free_lanes[: len(ids)]
        x = x0[ids]
        f, g = fun_grad(x, ids)
        f = np.asarray(f, dtype=np.float64)
        for i, f_i in zip(ids.tolist(), f.tolist()):
            objective_history[i].append(f_i)
        pairs[lanes] = 0
        rows = run.add(ids, lanes, x, f, np.asarray(g, dtype=np.float64))
        if max_iterations >= 1:
            start_iteration(rows)
        else:
            stop(rows, False, np.zeros(len(rows), dtype=np.int64))

    started = 0
    while True:
        while free_lanes and started < k:
            ids = np.arange(started, min(k, started + len(free_lanes)))
            started += len(ids)
            admit(ids)
            free_lanes += run.drop_stopped()
        if not len(run.ids):
            break
        alpha = np.array([search.alpha for search in run.searches])
        f, g = fun_grad(run.x + alpha[:, None] * run.d, run.ids)
        f = np.asarray(f, dtype=np.float64)
        g = np.asarray(g, dtype=np.float64)
        dphi = _rowdot(g, run.d)
        accepted, stalled = [], []
        for r, (search, f_r, dphi_r) in enumerate(zip(run.searches, f.tolist(), dphi.tolist())):
            if search.update(f_r, dphi_r):
                f0 = search.f0
                improved = f_r < f0 - objective_tol * max(1.0, abs(f0))
                (accepted if improved else stalled).append(r)
        if stalled:
            stop(np.array(stalled), True, run.it[stalled] - 1)
        if accepted:
            rows = np.array(accepted)
            finish_iteration(rows, alpha[rows], f[rows], g[rows])
        if run.stopped.any():
            free_lanes += run.drop_stopped()

    return [
        LbfgsResult(x=final_x[i], objective_history=objective_history[i],
                    iterations=int(iterations[i]), converged=bool(converged[i]))
        for i in range(k)
    ]


def lbfgs_minimize(
    fun_grad: Callable,
    x0: np.ndarray,
    max_iterations: int = 1000,
    history: int = 10,
    grad_tol: float = 1e-9,
    objective_tol: float = 0.0,
) -> LbfgsResult:
    """Minimize fun_grad (returning (f, grad)) from x0.

    The objective history records f at every accepted iterate and is
    strictly decreasing: iteration stops once a Wolfe step no longer
    strictly improves f (beyond ``objective_tol`` relative), or the
    gradient norm falls under ``grad_tol``.
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
    (lowest reg on ties) is refit on the full training set.
    """
    train_labels = np.asarray(train_labels)
    test_labels = np.asarray(test_labels)
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
    w, b, _ = fit_logistic(
        train_features, train_labels, n_classes, chosen_reg,
        max_iterations=cfg.max_iterations, history=cfg.history,
    )
    test_acc = accuracy(predict_logistic(w, b, test_features), test_labels)
    return ProbeOutcome(test_accuracy=test_acc, chosen_reg=chosen_reg, holdout_accuracy=best[0])
