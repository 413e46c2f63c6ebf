"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is built define-by-run: every operation on gradient-tracked
tensors records its parents and a local backward rule on the output.
``backward`` walks the recorded graph once in reverse topological order.
All storage is float64 and row-major; slicing copies, it never aliases.

Operands may carry a leading stack axis: ``matmul`` takes an (N, T, k)
left operand against a (k, p) weight, and ``attention`` runs (N, Tq, d)
queries against (N, T, d) keys and values.  Forward rows stay bitwise per
item: each item's product is its own BLAS call (a stacked ``np.matmul``,
never one flattened (N*T, k) product), so an item has the bits it would
have alone and a permuted stack permutes the rows.  A stacked weight's
gradient is one GEMM over the flattened stack,
``a.reshape(-1, k).T @ g.reshape(-1, p)``: it sums over items and rows
in BLAS order, so it agrees with the sum of per-item gradients to
rounding, not bit for bit.  The other stack reductions (``_unbroadcast``
for biases, ``layer_norm``'s gamma and beta) still reduce within each
item first, then add the N item results in stack order.

Every ``.grad`` is built by ``_accumulate`` as zeros plus contributions,
and the root's is ones, so no ``.grad`` ever holds -0.0: a sum is -0.0
only when both terms are.  A backward rule hands ``_accumulate`` an array
it allocated and references nowhere else as ``owned``; a first gradient
of that kind becomes ``.grad`` itself, normalized in place, instead of
being copied.  Rules never write into their upstream gradient or into the
arrays their closures captured from the forward.

``linear(a, w, b)`` is ``add(matmul(a, w), b)`` as one graph node, with
the chain's bytes forward and in every gradient; its backward is
``matmul``'s.  The forward kernels (``linear``, ``layer_norm``, ``gelu``,
``attention``) and the backward rules of ``layer_norm``, ``gelu``,
``attention``, ``normalize_rows`` and ``log_softmax`` reuse their
temporaries in place: the same float ops in the same order as the plain
expressions, so the same bits, with fewer passes over memory.

No gradient is computed for an operand that does not require one: every
backward rule tests ``requires_grad`` before it forms an operand's
gradient, so constant inputs (patch stacks) cost nothing in ``backward``.

``embedding_bag`` pools table rows by integer id, so a bag-of-tokens text
never becomes a dense (n, vocab) selection matrix; its backward adds into
the touched rows of the table's gradient only.

``log_softmax`` takes an optional boolean ``mask``, so a batch's losses
are each one op over the whole batch: a (N, N) or (N, O) logits matrix
normalizes each row or column over the entries of its own scene only.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf as _erf

from .errors import ContractError, DegenerateInputError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (forward values only)."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


class Tensor:
    """A dense float64 array, optionally tracked for differentiation.

    ``array`` is the row-major value storage.  ``grad``, once ``backward``
    has run, holds d(root)/d(self) with the same shape as ``array``.
    """

    __slots__ = ("array", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        self.array = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    def item(self) -> float:
        if self.array.size != 1:
            raise ContractError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.array.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={list(self.shape)}{flag})"


def _make(array: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(array)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` into ``t.grad``; callers skip operands without ``requires_grad``.

    A first gradient has the bytes of zeros plus ``g``: ``g + 0.0``, which
    turns -0.0 into +0.0.  ``owned`` says the caller allocated ``g`` and
    references it nowhere else; a C-contiguous float64 ``g`` of t's exact
    shape is then normalized in place and adopted as ``t.grad``.  Any
    other ``g`` (a view of a node's gradient, a broadcast or transposed
    view, another dtype or shape) is copied.
    """
    if t.grad is not None:
        t.grad += g
    elif (owned and g.dtype == np.float64 and g.shape == t.array.shape
          and g.flags.c_contiguous):
        g += 0.0
        t.grad = g
    else:
        t.grad = np.add(g, 0.0, out=np.empty_like(t.array))  # zeros + g's bytes, one pass


def _sum_leading(g: np.ndarray, count: int) -> np.ndarray:
    """Sum out the first ``count`` axes, innermost first (see module doc)."""
    for axis in reversed(range(count)):
        g = g.sum(axis=axis)
    return g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    g = _sum_leading(g, g.ndim - len(shape))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def trace_graph(root: Tensor) -> list[Tensor]:
    """Topologically order the gradient-tracked graph below ``root``."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad:
                stack.append((parent, False))
    return order


def backward(root: Tensor) -> None:
    """Populate ``grad`` on every tracked ancestor of a scalar root."""
    if root.array.size != 1:
        raise ContractError(f"backward requires a scalar root, got shape {root.shape}")
    order = trace_graph(root)
    root.grad = np.ones_like(root.array)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.array + b.array

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.array.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.array.shape))

    return _make(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.array * b.array

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.array, a.array.shape), owned=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.array, b.array.shape), owned=True)

    return _make(out, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(a, -g, owned=True)

    return _make(-a.array, (a,), bwd)


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a plain (non-differentiated) float."""
    factor = float(factor)

    def bwd(g):
        _accumulate(a, g * factor, owned=True)

    return _make(a.array * factor, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.array)

    def bwd(g):
        _accumulate(a, g * out, owned=True)

    return _make(out, (a,), bwd)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    x = a.array
    cdf = x * _INV_SQRT2
    _erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = x * cdf

    def bwd(g):  # g * (cdf + x * pdf), pdf = exp(-x*x/2) / sqrt(2 pi), in one array
        grad = x * x
        grad *= -0.5
        np.exp(grad, out=grad)
        grad *= _INV_SQRT_2PI
        grad *= x
        grad += cdf
        grad *= g
        _accumulate(a, grad, owned=True)

    return _make(out, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra and shape manipulation


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.array.ndim not in (2, 3) or b.array.ndim != 2:
        raise ShapeError(f"matmul expects a 2-D or 3-D left and a 2-D right operand, "
                         f"got {a.shape} and {b.shape}")
    if a.array.shape[-1] != b.array.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(m, k) @ (k, p), or a stack (N, m, k) @ (k, p) with one product per item.

    The forward and the left operand's gradient are per item, so every
    output row has the bits of its item's lone product.  The weight's
    gradient is one (k, N*m) @ (N*m, p) product over the flattened stack.
    """
    _check_matmul(a, b)
    return _make(a.array @ b.array, (a, b), lambda g: _matmul_backward(a, b, g))


def _matmul_backward(a: Tensor, w: Tensor, g: np.ndarray) -> None:
    """Per-item ``g @ w.T`` into a; one flat GEMM over the stack into w."""
    k, p = w.array.shape
    if a.requires_grad:
        _accumulate(a, g @ w.array.T, owned=True)
    if w.requires_grad:
        _accumulate(w, a.array.reshape(-1, k).T @ g.reshape(-1, p), owned=True)


def linear(a: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``a @ w + b`` as one node: ``matmul``'s operands and a (p,) bias ``b``.

    Bytes equal ``add(matmul(a, w), b)`` forward and in every gradient.
    The bias gradient is ``add``'s ``_unbroadcast`` of g.  The matmul
    backward gets g itself: in the chain it got the add's operand
    gradient, zeros plus g, and since no ``.grad`` holds -0.0 (see the
    module doc) that is g byte for byte.
    """
    _check_matmul(a, w)
    if b.array.shape != w.array.shape[1:]:
        raise ShapeError(f"linear bias of shape {b.shape} does not match weight {w.shape}")
    out = a.array @ w.array
    out += b.array

    def bwd(g):
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.array.shape))
        if a.requires_grad or w.requires_grad:
            _matmul_backward(a, w, g)

    return _make(out, (a, w, b), bwd)


def embedding_bag(table: Tensor, ids, offsets) -> Tensor:
    """Mean of each bag's rows of a (V, d) ``table``, as an (n, d) tensor.

    ``ids`` is the flat int sequence of every bag's row ids; bag b holds
    ``ids[offsets[b]:offsets[b + 1]]`` (the last bag runs to the end).
    ``offsets`` starts at 0 and strictly increases, so no bag is empty.
    A repeated id counts once per occurrence.  The backward adds each
    bag's gradient, divided by its length, into the rows it read, with
    one ``np.add.at`` over the flattened table gradient: cell (i, c) of
    the (len(ids), d) contributions goes to ``ids[i] * d + c``, in the
    per-cell order of a row-wise ``np.add.at``.  The table's other
    gradient rows stay zero.
    """
    if table.array.ndim != 2:
        raise ShapeError(f"embedding_bag expects a 2-D table, got {table.shape}")
    ids = np.asarray(ids)
    offsets = np.asarray(offsets)
    for name, arr in (("ids", ids), ("offsets", offsets)):
        if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
            raise ContractError(f"embedding_bag {name} must be a 1-D integer array, "
                                f"got {arr.dtype} of shape {arr.shape}")
    vocab = table.array.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise ShapeError(f"embedding_bag ids outside [0, {vocab})")
    if (offsets.size == 0 or offsets[0] != 0 or np.any(np.diff(offsets) <= 0)
            or offsets[-1] >= ids.size):
        raise ContractError("embedding_bag offsets must start at 0 and strictly increase "
                            f"below {ids.size}, giving no empty bag")
    counts = np.diff(offsets, append=ids.size)[:, None]
    out = np.add.reduceat(table.array[ids], offsets, axis=0) / counts

    def bwd(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.array)
        width = table.array.shape[1]
        cells = ids.astype(np.intp)[:, None] * width + np.arange(width)
        rows = np.repeat(g / counts, counts[:, 0], axis=0)
        np.add.at(table.grad.reshape(-1), cells.ravel(), rows.ravel())

    return _make(out, (table,), bwd)


def transpose(a: Tensor) -> Tensor:
    if a.array.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got {a.shape}")

    def bwd(g):
        _accumulate(a, g.T)

    return _make(a.array.T.copy(), (a,), bwd)


def broadcast_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    """Copy ``a`` along new or size-1 axes, as numpy broadcasting does."""
    shape = tuple(int(s) for s in shape)

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.array.shape))

    return _make(np.broadcast_to(a.array, shape).copy(), (a,), bwd)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)

    def bwd(g):
        _accumulate(a, g.reshape(a.array.shape))

    return _make(a.array.reshape(shape).copy(), (a,), bwd)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Copy ``length`` consecutive slices along ``axis`` starting at ``start``."""
    if not (0 <= start and start + length <= a.array.shape[axis]):
        raise ShapeError(
            f"narrow range [{start}, {start + length}) outside axis {axis} of {a.shape}"
        )
    index = [slice(None)] * a.array.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = a.array[index].copy()

    def bwd(g):
        full = np.zeros_like(a.array)
        full[index] = g
        _accumulate(a, full, owned=True)

    return _make(out, (a,), bwd)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat of an empty sequence")
    out = np.concatenate([p.array for p in parts], axis=axis)
    sizes = [p.array.shape[axis] for p in parts]

    def bwd(g):
        offset = 0
        for p, size in zip(parts, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + size)
            if p.requires_grad:
                _accumulate(p, g[tuple(index)])
            offset += size

    return _make(out, parts, bwd)


def reduce_sum(a: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(a, np.full_like(a.array, np.ravel(g)[0]), owned=True)

    return _make(np.asarray(a.array.sum()), (a,), bwd)


# ---------------------------------------------------------------------------
# normalization and attention nonlinearities


def log_softmax(x: Tensor, axis: int = -1, mask: np.ndarray | None = None) -> Tensor:
    """Log-probabilities along ``axis`` over the entries a boolean ``mask`` of x's shape keeps.

    Entries outside the mask read 0 and pass no gradient, so a slice with
    nothing kept is all 0.  Without a mask, the plain formula's float ops.
    """
    if mask is not None and np.shape(mask) != x.array.shape:
        raise ShapeError(f"log_softmax mask of shape {np.shape(mask)} does not match {x.shape}")
    keep = True if mask is None else mask
    peak = x.array.max(axis=axis, keepdims=True, where=keep, initial=-np.inf)
    # Outside the mask, and in a slice with nothing kept, exp(shifted) is 0.
    shifted = np.where(keep, x.array - np.where(np.isneginf(peak), 0.0, peak), -np.inf)
    total = np.exp(shifted).sum(axis=axis, keepdims=True)
    log_probs = shifted - np.log(total, out=np.zeros_like(total), where=total > 0)
    soft = np.exp(log_probs)
    out = np.where(keep, log_probs, 0.0)

    def bwd(g):
        g = np.where(keep, g, 0.0)
        g -= soft * g.sum(axis=axis, keepdims=True)
        _accumulate(x, g, owned=True)

    return _make(out, (x,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ContractError("layer_norm eps must be positive")
    xhat = x.array - x.array.mean(axis=-1, keepdims=True)
    # np.var's own steps on the centred array: the sum of squares over n.
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / x.array.shape[-1]
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out = gamma.array * xhat
    out += beta.array
    lead = x.array.ndim - 1

    def bwd(g):
        if x.requires_grad:  # (g_xhat - mean(g_xhat) - xhat * mean(g_xhat * xhat)) * inv_std
            term = g * gamma.array  # g_xhat, then the input gradient
            product = term * xhat
            mean_term = term.mean(axis=-1, keepdims=True)
            mean_product = product.mean(axis=-1, keepdims=True)
            np.multiply(xhat, mean_product, out=product)
            term -= mean_term
            term -= product
            term *= inv_std
            _accumulate(x, term, owned=True)
        if gamma.requires_grad:
            _accumulate(gamma, _sum_leading(g * xhat, lead), owned=True)
        if beta.requires_grad:
            _accumulate(beta, _sum_leading(g, lead))

    return _make(out, (x, gamma, beta), bwd)


def normalize_rows(x: Tensor) -> Tensor:
    """Scale each row (last axis) to unit L2 norm."""
    norms = np.sqrt((x.array * x.array).sum(axis=-1, keepdims=True))
    if np.any(norms < 1e-12):
        raise DegenerateInputError("cannot L2-normalize a (near-)zero vector")
    out = x.array / norms

    def bwd(g):  # (g - out * inner) / norms, inner = sum(g * out), in one array
        grad = g * out
        inner = grad.sum(axis=-1, keepdims=True)
        np.multiply(out, inner, out=grad)
        np.subtract(g, grad, out=grad)
        grad /= norms
        _accumulate(x, grad, owned=True)

    return _make(out, (x,), bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of (N, Tq, d) queries over (N, T, d) k and v.

    The output is (N, Tq, d), and each query row attends over all T key
    rows, so passing only the query rows a caller keeps gives those rows
    of the full output, to rounding.  Each head sees a contiguous
    (rows, d / num_heads) copy of its columns, and the head outputs are
    merged back in head order: the same products, in the same operand
    layouts, as the per-head op chain of the per-view oracle in the
    encoder tests.
    """
    if q.array.ndim != 3 or k.array.ndim != 3:
        raise ShapeError(f"attention expects 3-D q, k, v; got {q.shape}, {k.shape}, {v.shape}")
    n, _, d = q.array.shape
    if k.array.shape[::2] != (n, d) or v.array.shape != k.array.shape:
        raise ShapeError(f"attention expects (N, Tq, d) q against equal (N, T, d) k, v; got "
                         f"{q.shape}, {k.shape}, {v.shape}")
    if num_heads < 1 or d % num_heads != 0:
        raise ShapeError(f"width {d} does not split into {num_heads} heads")
    head_dim = d // num_heads
    factor = 1.0 / math.sqrt(head_dim)

    def split(x):  # (N, T, d) -> contiguous (N, H, T, head_dim), T the operand's own
        return np.ascontiguousarray(
            x.reshape(n, x.shape[1], num_heads, head_dim).transpose(0, 2, 1, 3))

    def merge(x):  # (N, H, T, head_dim) -> (N, T, d)
        return x.transpose(0, 2, 1, 3).reshape(n, x.shape[2], d)

    qh, kh, vh = split(q.array), split(k.array), split(v.array)
    kt = np.ascontiguousarray(kh.transpose(0, 1, 3, 2))
    probs = qh @ kt  # the scores, turned into probabilities in place
    probs *= factor
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    out = merge(probs @ vh)

    def bwd(g):
        gh = split(g)
        if q.requires_grad or k.requires_grad:
            g_scores = gh @ vh.transpose(0, 1, 3, 2)  # g_probs, then probs * (g_probs - inner) * factor
            inner = (g_scores * probs).sum(axis=-1, keepdims=True)
            g_scores -= inner
            g_scores *= probs
            g_scores *= factor
            if q.requires_grad:
                _accumulate(q, merge(g_scores @ kt.transpose(0, 1, 3, 2)), owned=True)
            if k.requires_grad:
                _accumulate(k, merge((qh.transpose(0, 1, 3, 2) @ g_scores).transpose(0, 1, 3, 2)),
                            owned=True)
        if v.requires_grad:
            _accumulate(v, merge(probs.transpose(0, 1, 3, 2) @ gh), owned=True)

    return _make(out, (q, k, v), bwd)


# ---------------------------------------------------------------------------
# verification harness


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative disagreement between analytic and central-difference grads.

    ``f`` must rebuild its computation from the current value of ``x`` on
    every call (define-by-run).  The relative error per coordinate is
    ``|analytic - numeric| / max(1, |analytic|)``.
    """
    if h <= 0:
        raise ContractError("finite_diff_check requires h > 0")
    if not x.requires_grad:
        raise ContractError("finite_diff_check requires a gradient-tracked input")
    x.grad = None
    out = f(x)
    backward(out)
    analytic = (x.grad if x.grad is not None else np.zeros_like(x.array)).ravel().copy()

    numeric = np.empty_like(analytic)
    flat = x.array.ravel()
    with no_grad():
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            f_plus = f(x).item()
            flat[i] = saved - h
            f_minus = f(x).item()
            flat[i] = saved
            numeric[i] = (f_plus - f_minus) / (2.0 * h)

    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(rel.max()) if rel.size else 0.0
