"""Tests for the tensor engine: forward values, gradients, invariants."""

import gc
import math
import weakref

import numpy as np
import pytest

from upm import engine as E
from upm.errors import ContractError, DegenerateInputError, ShapeError
from tests.conftest import finite_diff_check, record_backward
from tests.test_encoder import softmax


def triple_loop_matmul(a, b):
    """Brute-force matrix product, independent of the engine."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestTensorBasics:
    def test_storage_invariants(self):
        t = E.Tensor(np.arange(12.0).reshape(3, 4))
        assert t.shape == (3, 4)
        assert t.array.flags["C_CONTIGUOUS"]
        assert t.array.ravel().shape == (12,)
        assert math.prod(t.shape) == t.array.size
        assert t.array.dtype == np.float64

    def test_grad_matches_data_length(self):
        t = E.Tensor(np.ones((2, 5)), requires_grad=True)
        E.backward(E.reduce_sum(t))
        assert t.grad.shape == t.array.shape

    def test_item_rejects_non_scalar(self):
        with pytest.raises(ContractError):
            E.Tensor(np.ones(3)).item()


class TestMatmul:
    def test_identity(self):
        eye = E.Tensor(np.eye(2))
        out = E.matmul(eye, eye)
        np.testing.assert_array_equal(out.array, np.eye(2))

    def test_hand_case(self):
        a = E.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = E.Tensor([[0.0], [1.0]])
        np.testing.assert_array_equal(E.matmul(a, b).array, [[2.0], [4.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        got = E.matmul(E.Tensor(a), E.Tensor(b)).array
        assert np.abs(got - triple_loop_matmul(a, b)).max() <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            E.matmul(E.Tensor(np.ones((2, 3))), E.Tensor(np.ones((2, 3))))


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(E.Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.array, [0.5, 0.5])

    def test_hand_case(self):
        out = softmax(E.Tensor([math.log(1.0), math.log(3.0)]))
        np.testing.assert_allclose(out.array, [0.25, 0.75], atol=1e-12)

    def test_large_inputs_stable(self):
        out = softmax(E.Tensor([1000.0, 1000.0]))
        assert np.isfinite(out.array).all()
        np.testing.assert_allclose(out.array, [0.5, 0.5])

    def test_distribution_property(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.normal(scale=10.0, size=(4, rng.integers(1, 9)))
            out = softmax(E.Tensor(x), axis=-1).array
            assert (out >= 0).all()
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)


class TestLayerNorm:
    def test_constant_rows_give_zeros(self):
        x = E.Tensor(np.full((3, 4), 2.5))
        gamma = E.Tensor(np.ones(4))
        beta = E.Tensor(np.zeros(4))
        out = E.layer_norm(x, gamma, beta)
        np.testing.assert_allclose(out.array, 0.0, atol=1e-9)

    def test_hand_case(self):
        x = E.Tensor([[1.0, 3.0]])
        out = E.layer_norm(x, E.Tensor(np.ones(2)), E.Tensor(np.zeros(2)))
        # Mean 2 and variance 1, so each entry is ±1/sqrt(1 + LAYER_NORM_EPS).
        np.testing.assert_allclose(out.array, [[-1.0, 1.0]] / np.sqrt(1.0 + 1e-5), rtol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = E.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        gamma = E.Tensor(rng.normal(size=5), requires_grad=True)
        beta = E.Tensor(rng.normal(size=5), requires_grad=True)
        w = E.Tensor(rng.normal(size=(3, 5)))

        def f_x(t):
            return E.reduce_sum(E.mul(E.layer_norm(t, gamma, beta), w))

        def f_gamma(t):
            return E.reduce_sum(E.mul(E.layer_norm(x, t, beta), w))

        def f_beta(t):
            return E.reduce_sum(E.mul(E.layer_norm(x, gamma, t), w))

        assert finite_diff_check(f_x, x) <= 1e-6
        assert finite_diff_check(f_gamma, gamma) <= 1e-6
        assert finite_diff_check(f_beta, beta) <= 1e-6


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = E.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        E.backward(E.reduce_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_dot_gradient_is_2x(self):
        rng = np.random.default_rng(5)
        x = E.Tensor(rng.normal(size=7), requires_grad=True)
        E.backward(E.reduce_sum(E.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.array, atol=1e-12)

    def test_rejects_non_scalar_root(self):
        x = E.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            E.backward(E.mul(x, x))

    def test_composite_against_finite_differences(self):
        rng = np.random.default_rng(17)
        w = E.Tensor(rng.normal(size=(4, 4)))
        gamma = E.Tensor(rng.normal(size=4))
        beta = E.Tensor(rng.normal(size=4))
        x = E.Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def f(t):
            h = E.matmul(t, w)
            h = E.layer_norm(h, gamma, beta)
            h = softmax(h, axis=-1)
            return E.reduce_sum(E.mul(h, h))

        assert finite_diff_check(f, x, h=1e-5) <= 1e-5

    def test_each_node_visited_once(self):
        # A diamond-shaped graph: y feeds the root through two paths. A
        # double visit would double the accumulated gradient.
        x = E.Tensor([2.0], requires_grad=True)
        y = E.mul(x, x)
        root = E.reduce_sum(E.add(y, y))
        E.backward(root)
        np.testing.assert_allclose(x.grad, [8.0])

    def test_deterministic_gradients(self):
        rng = np.random.default_rng(23)
        base = rng.normal(size=(5, 5))

        def run():
            x = E.Tensor(base.copy(), requires_grad=True)
            h = softmax(E.matmul(x, E.transpose(x)), axis=-1)
            E.backward(E.reduce_sum(E.mul(h, h)))
            return x.grad.tobytes()

        assert run() == run()

    @pytest.mark.parametrize("g", [
        np.array([[-0.0, 0.0, -1.5], [-0.0, 2.0, -0.0]]),
        np.array([[-0.0, 3.0, -2.5]]),
        np.arange(6.0).reshape(3, 2).T * -1.0,
    ], ids=["negative-zero", "broadcast", "transposed"])
    def test_first_accumulation_is_zeros_plus_gradient(self, g):
        # The first gradient is written in one pass; its bytes and layout
        # must be those of a zero-filled array with g added into it.
        x = E.Tensor(np.ones((2, 3)), requires_grad=True)
        E._accumulate(x, g)
        expected = np.zeros_like(x.array)
        expected += g
        assert x.grad.tobytes() == expected.tobytes()
        assert x.grad.flags.c_contiguous and not np.shares_memory(x.grad, g)
        E._accumulate(x, g)
        expected += g
        assert x.grad.tobytes() == expected.tobytes()

    def test_owned_gradient_is_adopted(self):
        # A fresh C-contiguous float64 array of the exact shape becomes
        # .grad itself, with the bytes of zeros plus g.
        x = E.Tensor(np.ones((2, 3)), requires_grad=True)
        g = np.array([[-0.0, 0.0, -1.5], [-0.0, 2.0, -0.0]])
        expected = np.zeros_like(x.array) + g
        E._accumulate(x, g, owned=True)
        assert x.grad is g
        assert x.grad.tobytes() == expected.tobytes()
        assert not np.signbit(x.grad[x.grad == 0]).any()

    @pytest.mark.parametrize("g", [
        np.asfortranarray(np.array([[-0.0, 0.0, -1.5], [-0.0, 2.0, -0.0]])),
        np.broadcast_to(np.array([-0.0, 3.0, -2.5]), (2, 3)),
        np.array([[-0.0, 3.0, -2.5]]),
        np.array([[-0.0, 0.5, -1.5], [-0.0, 2.0, 1e-30]], dtype=np.float32),
    ], ids=["fortran-order", "broadcast-view", "wrong-shape", "float32"])
    def test_owned_gradient_copied_unless_adoptable(self, g):
        x = E.Tensor(np.ones((2, 3)), requires_grad=True)
        before = g.tobytes()
        expected = np.zeros_like(x.array)
        expected += g
        E._accumulate(x, g, owned=True)
        assert not np.shares_memory(x.grad, g) and g.tobytes() == before
        assert x.grad.dtype == np.float64 and x.grad.flags.c_contiguous
        assert x.grad.tobytes() == expected.tobytes()

    def test_graph_is_topological(self):
        x = E.Tensor([1.0, 2.0], requires_grad=True)
        y = E.mul(x, x)
        z = E.reduce_sum(E.add(y, x))
        order = E.trace_graph(z)
        position = {id(node): i for i, node in enumerate(order)}
        for node in order:
            for parent in node._parents:
                if parent.requires_grad:
                    assert position[id(parent)] < position[id(node)]


class TestBackwardReleasesGraph:
    """``backward`` frees the graph it walks; leaves keep their gradients."""

    @staticmethod
    def leaves():
        rng = np.random.default_rng(31)
        x = E.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = E.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        return x, w, E.Tensor(rng.normal(size=(2, 3, 5)))

    @staticmethod
    def loss(x, w, probe):
        h = E.gelu(E.matmul(x, w))
        return h, E.reduce_sum(E.mul(h, probe))

    def test_interior_nodes_hold_no_parents_or_grad(self):
        x, w, probe = self.leaves()
        h, root = self.loss(x, w, probe)
        product = h._parents[0]
        nodes = E.trace_graph(root)
        values = [node.array.copy() for node in nodes]
        received = record_backward(root)
        assert set(received) == set(nodes) - {x, w}
        for node, value in zip(nodes, values):
            assert node.array.tobytes() == value.tobytes()  # values stay readable
            if node not in (x, w):
                assert node._parents == () and node.grad is None
        assert E.trace_graph(root) == [root]
        # Each leaf holds what matmul's rule made of the gradient it received.
        g = received[product]
        assert x.grad.tobytes() == (g @ w.array.T + 0.0).tobytes()
        assert w.grad.tobytes() == (x.array.reshape(-1, 4).T @ g.reshape(-1, 5) + 0.0).tobytes()

    def test_activations_freed_while_root_is_referenced(self):
        x, w, probe = self.leaves()
        h, root = self.loss(x, w, probe)
        value = root.item()
        # h's array, and the matmul output that gelu's rule saved.
        freed = [weakref.ref(h.array), weakref.ref(h._parents[0].array)]
        del h
        gc.collect()
        assert all(ref() is not None for ref in freed)  # the graph holds them
        E.backward(root)
        gc.collect()
        assert all(ref() is None for ref in freed)
        assert root.item() == value and x.grad.shape == x.shape and w.grad.shape == w.shape

    def test_second_backward_raises_and_keeps_leaf_grads(self):
        x, w, probe = self.leaves()
        _, root = self.loss(x, w, probe)
        E.backward(root)
        before = x.grad.tobytes(), w.grad.tobytes()
        with pytest.raises(ContractError, match="released"):
            E.backward(root)
        assert (x.grad.tobytes(), w.grad.tobytes()) == before
        assert root.grad is None

    def test_loss_on_a_released_tensor_raises_before_any_write(self):
        x, w, probe = self.leaves()
        h, root = self.loss(x, w, probe)
        E.backward(root)
        before = x.grad.tobytes(), w.grad.tobytes()
        # The new root's rules would reach h's gradient, and x's through the
        # fresh matmul, before the walk met h's released rule.
        again = E.reduce_sum(E.mul(h, E.matmul(x, w)))
        with pytest.raises(ContractError, match="released"):
            E.backward(again)
        assert (x.grad.tobytes(), w.grad.tobytes()) == before
        assert h.grad is None and again.grad is None


class TestRegisteredOpGradients:
    """Every differentiable op passes a finite-difference check."""

    @pytest.mark.parametrize(
        "name,builder",
        [
            ("add", lambda t, w: E.add(t, E.mul(t, t))),
            ("mul", lambda t, w: E.mul(t, w)),
            ("scale", lambda t, w: E.scale(E.mul(t, t), -1.7)),
            ("exp", lambda t, w: E.exp(E.scale(t, 0.3))),
            ("gelu", lambda t, w: E.gelu(t)),
            ("matmul", lambda t, w: E.matmul(t, E.transpose(w))),
            ("transpose", lambda t, w: E.mul(E.transpose(t), E.transpose(w))),
            ("reshape", lambda t, w: E.mul(E.reshape(t, (2, 6)), E.reshape(w, (2, 6)))),
            ("narrow", lambda t, w: E.mul(E.narrow(t, 1, 1, 2), E.narrow(w, 1, 0, 2))),
            ("concat", lambda t, w: E.mul(E.concat([t, t], axis=0), E.concat([w, w], axis=0))),
            ("softmax", lambda t, w: E.mul(softmax(t, axis=-1), w)),
            ("log_softmax", lambda t, w: E.mul(E.log_softmax(t, axis=-1), w)),
            ("normalize_rows", lambda t, w: E.mul(E.normalize_rows(t), w)),
        ],
    )
    def test_gradient(self, name, builder):
        rng = np.random.default_rng(hash(name) % 2**32)
        t = E.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = E.Tensor(rng.normal(size=(3, 4)))

        def f(x):
            return E.reduce_sum(builder(x, w))

        assert finite_diff_check(f, t, h=1e-5) <= 1e-5, name

    def test_broadcast_add_gradient(self):
        rng = np.random.default_rng(31)
        bias = E.Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        x = E.Tensor(rng.normal(size=(3, 4)))

        def f(b):
            return E.reduce_sum(E.mul(E.add(x, b), E.add(x, b)))

        assert finite_diff_check(f, bias) <= 1e-6


class TestStackedOpGradients:
    """Ops on (N, T, d) stacks pass finite-difference checks too."""

    def setup_method(self):
        self.rng = np.random.default_rng(61)

    def stacked(self, *shape, grad=True):
        return E.Tensor(self.rng.normal(size=shape), requires_grad=grad)

    def test_matmul_stacked_left(self):
        w = self.stacked(4, 3, grad=False)
        probe = self.stacked(2, 5, 3, grad=False)
        x = self.stacked(2, 5, 4)
        assert finite_diff_check(lambda t: E.reduce_sum(E.mul(E.matmul(t, w), probe)), x) <= 1e-6

    def test_matmul_stacked_weight(self):
        x = self.stacked(3, 5, 4, grad=False)
        probe = self.stacked(3, 5, 2, grad=False)
        w = self.stacked(4, 2)
        assert finite_diff_check(lambda t: E.reduce_sum(E.mul(E.matmul(x, t), probe)), w) <= 1e-6

    def test_matmul_rejects_stacked_right(self):
        with pytest.raises(ShapeError):
            E.matmul(E.Tensor(np.ones((2, 3))), E.Tensor(np.ones((2, 3, 4))))
        with pytest.raises(ShapeError):
            E.matmul(E.Tensor(np.ones((2, 3, 4))), E.Tensor(np.ones((3, 4))))

    def test_matmul_stacked_is_per_item(self):
        a = self.stacked(4, 5, 6, grad=False)
        b = self.stacked(6, 3, grad=False)
        out = E.matmul(a, b).array
        for i in range(4):
            assert out[i].tobytes() == E.matmul(E.Tensor(a.array[i]), b).array.tobytes()

    def test_layer_norm_stacked(self):
        x = self.stacked(2, 3, 5)
        gamma = self.stacked(5)
        beta = self.stacked(5)
        w = self.stacked(2, 3, 5, grad=False)

        def loss(xv, gv, bv):
            return E.reduce_sum(E.mul(E.layer_norm(xv, gv, bv), w))

        assert finite_diff_check(lambda t: loss(t, gamma, beta), x) <= 1e-6
        assert finite_diff_check(lambda t: loss(x, t, beta), gamma) <= 1e-6
        assert finite_diff_check(lambda t: loss(x, gamma, t), beta) <= 1e-6

    def test_layer_norm_stacked_sums_items_in_order(self):
        x = self.stacked(3, 4, 5, grad=False)
        gamma = self.stacked(5)
        beta = self.stacked(5)
        g = self.stacked(3, 4, 5, grad=False)
        E.backward(E.reduce_sum(E.mul(E.layer_norm(x, gamma, beta), g)))
        stacked_grads = gamma.grad.tobytes(), beta.grad.tobytes()
        gamma.grad = beta.grad = None
        for i in range(3):
            item = E.layer_norm(E.Tensor(x.array[i]), gamma, beta)
            E.backward(E.reduce_sum(E.mul(item, E.Tensor(g.array[i]))))
        assert stacked_grads == (gamma.grad.tobytes(), beta.grad.tobytes())

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_attention(self, which):
        qkv = [self.stacked(2, 4, 6) for _ in range(3)]
        probe = self.stacked(2, 4, 6, grad=False)

        def f(t):
            args = list(qkv)
            args[which] = t
            return E.reduce_sum(E.mul(E.attention(*args, num_heads=3), probe))

        assert finite_diff_check(f, qkv[which]) <= 1e-6

    def test_attention_single_head_is_softmax_attention(self):
        q, k, v = (self.stacked(2, 3, 4, grad=False) for _ in range(3))
        out = E.attention(q, k, v, num_heads=1).array
        for i in range(2):
            scores = q.array[i] @ k.array[i].T / 2.0
            weights = np.exp(scores - scores.max(axis=1, keepdims=True))
            weights /= weights.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(out[i], weights @ v.array[i], atol=1e-12)

    def test_attention_rejects_bad_shapes(self):
        x = E.Tensor(np.ones((2, 3, 4)))
        with pytest.raises(ShapeError):
            E.attention(x, x, x, num_heads=3)
        with pytest.raises(ShapeError):
            E.attention(x, x, E.Tensor(np.ones((2, 3, 8))), num_heads=2)
        # q may differ from k in rows only, and v must equal k.
        for q_shape in [(3, 1, 4), (2, 1, 6), (2, 4)]:
            with pytest.raises(ShapeError):
                E.attention(E.Tensor(np.ones(q_shape)), x, x, num_heads=2)
        q = E.Tensor(np.ones((2, 1, 4)))
        for v_shape in [(2, 5, 4), (3, 3, 4), (2, 3, 6)]:
            with pytest.raises(ShapeError):
                E.attention(q, x, E.Tensor(np.ones(v_shape)), num_heads=2)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_attention_one_query_row(self, which):
        qkv = [self.stacked(2, 1, 6), self.stacked(2, 5, 6), self.stacked(2, 5, 6)]
        probe = self.stacked(2, 1, 6, grad=False)

        def f(t):
            args = list(qkv)
            args[which] = t
            return E.reduce_sum(E.mul(E.attention(*args, num_heads=3), probe))

        assert finite_diff_check(f, qkv[which]) <= 1e-6

    def test_attention_query_rows_are_rows_of_the_full_output(self):
        q, k, v = (self.stacked(3, 5, 6, grad=False) for _ in range(3))
        full = E.attention(q, k, v, num_heads=2).array
        first = E.attention(E.narrow(q, 1, 0, 1), k, v, num_heads=2).array
        np.testing.assert_allclose(first, full[:, :1], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_linear(self, which):
        operands = [self.stacked(2, 5, 4, grad=False), self.stacked(4, 3, grad=False),
                    self.stacked(3, grad=False)]
        operands[which].requires_grad = True
        probe = self.stacked(2, 5, 3, grad=False)

        def f(t):
            args = operands[:which] + [t] + operands[which + 1:]
            out = E.linear(*args)
            return E.reduce_sum(E.mul(E.mul(out, out), probe))

        assert finite_diff_check(f, operands[which]) <= 1e-6

    @pytest.mark.parametrize("shapes", [
        [(5, 4), (3, 2), (2,)],     # inner dimensions disagree
        [(5, 4), (4, 2), (3,)],     # bias longer than the output width
        [(5, 4), (4, 2), (1, 2)],   # bias not a (p,) vector
        [(5, 4), (1, 4, 2), (2,)],  # stacked weight
        [(4,), (4, 2), (2,)],       # 1-D left operand
    ])
    def test_linear_rejects_bad_shapes(self, shapes):
        with pytest.raises(ShapeError):
            E.linear(*(E.Tensor(np.ones(shape)) for shape in shapes))

    def test_broadcast_to(self):
        row = self.stacked(1, 4)
        probe = self.stacked(3, 1, 4, grad=False)
        out = E.broadcast_to(row, (3, 1, 4))
        assert out.shape == (3, 1, 4)
        f = lambda t: E.reduce_sum(E.mul(E.broadcast_to(t, (3, 1, 4)), probe))
        assert finite_diff_check(f, row) <= 1e-6


class TestConstantOperands:
    """An operand without requires_grad gets no gradient, and the others the same bits."""

    @pytest.mark.parametrize("left_shape", [(5, 4), (3, 5, 4)])
    def test_matmul_constant_left(self, left_shape):
        rng = np.random.default_rng(71)
        a = E.Tensor(rng.normal(size=left_shape))
        w = E.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        probe = rng.normal(size=left_shape[:-1] + (3,))
        E.backward(E.reduce_sum(E.mul(E.matmul(a, w), E.Tensor(probe))))
        assert a.grad is None
        # The weight gradient is one GEMM over the flattened stack.
        expected = np.zeros((4, 3)) + a.array.reshape(-1, 4).T @ probe.reshape(-1, 3)
        assert w.grad.tobytes() == expected.tobytes()

    # Fused ops and the op chains whose bytes they keep.
    ORACLES = {
        "linear": lambda a, w, b: E.add(E.matmul(a, w), b),
        "linear_stacked": lambda a, w, b: E.add(E.matmul(a, w), b),
    }

    CASES = [
            ("add", [(3, 4), (1, 4)], lambda a, b: E.add(a, b)),
            ("mul_broadcast", [(3, 4), (1,)], lambda a, b: E.mul(a, b)),
            ("mul", [(3, 4), (3, 4)], lambda a, b: E.mul(a, b)),
            ("matmul", [(3, 4), (4, 2)], lambda a, b: E.matmul(a, b)),
            ("matmul_stacked", [(2, 3, 4), (4, 2)], lambda a, b: E.matmul(a, b)),
            ("concat", [(2, 4), (3, 4)], lambda a, b: E.concat([a, b], axis=0)),
            ("layer_norm", [(2, 3, 4), (4,), (4,)], lambda x, g, b: E.layer_norm(x, g, b)),
            ("attention", [(2, 3, 4)] * 3, lambda q, k, v: E.attention(q, k, v, 2)),
            ("linear", [(5, 4), (4, 3), (3,)], lambda a, w, b: E.linear(a, w, b)),
            ("linear_stacked", [(2, 5, 4), (4, 3), (3,)], lambda a, w, b: E.linear(a, w, b)),
    ]

    @staticmethod
    def inputs(shapes, build):
        rng = np.random.default_rng(72)
        values = [rng.normal(size=shape) for shape in shapes]
        probe = rng.normal(size=build(*map(E.Tensor, values)).shape)
        probe[..., 0] = -0.0  # signed zeros in the output gradient
        return values, E.Tensor(probe)

    @pytest.mark.parametrize("name,shapes,build", CASES)
    def test_every_subset_of_tracked_operands(self, name, shapes, build):
        # A fused op's forward and gradient bytes equal its op chain's, run
        # with every operand tracked; every other op is its own reference.
        oracle = self.ORACLES.get(name, build)
        values, probe = self.inputs(shapes, build)

        def run(tracked, op=build):
            operands = [E.Tensor(v.copy(), requires_grad=t) for v, t in zip(values, tracked)]
            out = op(*operands)
            E.backward(E.reduce_sum(E.mul(out, probe)))
            return out, operands

        reference_out, reference = run([True] * len(shapes), oracle)
        for mask in range(1, 2 ** len(shapes)):
            tracked = [bool(mask >> i & 1) for i in range(len(shapes))]
            out, operands = run(tracked)
            assert out.array.tobytes() == reference_out.array.tobytes(), (name, tracked)
            for operand, ref, t in zip(operands, reference, tracked):
                if t:
                    assert operand.grad.tobytes() == ref.grad.tobytes(), (name, tracked)
                else:
                    assert operand.grad is None, (name, tracked)

    @pytest.mark.parametrize("name,shapes,build", CASES)
    def test_no_gradient_holds_negative_zero(self, name, shapes, build):
        # The probe's -0.0 column reaches the op's output gradient, yet no
        # traced node's gradient holds -0.0: each is zeros plus contributions.
        # This is why linear can pass g to the matmul backward uncopied.
        values, probe = self.inputs(shapes, build)
        root = E.reduce_sum(E.mul(build(*(E.Tensor(v, requires_grad=True) for v in values)),
                                  probe))
        nodes = E.trace_graph(root)
        received = record_backward(root)
        for node in nodes:
            grad = received.get(node, node.grad)  # a leaf keeps its own
            assert not np.signbit(grad[grad == 0]).any(), (name, node)


def plain_log_softmax(x, axis):
    """The unmasked log-softmax forward and backward, as one formula each."""
    shifted = x.array - x.array.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def bwd(g):
        E._accumulate(x, g - np.exp(out) * g.sum(axis=axis, keepdims=True))

    return E._make(out, (x,), bwd)


class TestMaskedLogSoftmax:
    """Row 2 keeps nothing, so it reads all 0; every other row keeps at least one entry."""

    MASK = np.array([[1, 1, 0, 1, 1],
                     [0, 1, 0, 0, 0],
                     [0, 0, 0, 0, 0],
                     [1, 1, 1, 1, 1]], dtype=bool)

    def setup_method(self):
        rng = np.random.default_rng(91)
        self.x = E.Tensor(rng.normal(size=(4, 5)) * 3.0, requires_grad=True)
        self.probe = E.Tensor(rng.normal(size=(4, 5)))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_finite_differences(self, axis):
        def f(t):
            return E.reduce_sum(E.mul(E.log_softmax(t, axis=axis, mask=self.MASK), self.probe))

        assert finite_diff_check(f, self.x, h=1e-6) <= 1e-6

    def test_kept_entries_normalize_and_the_rest_read_zero(self):
        out = E.log_softmax(self.x, axis=1, mask=self.MASK)
        E.backward(E.reduce_sum(E.mul(out, self.probe)))
        assert np.all(out.array[~self.MASK] == 0.0)
        assert np.all(self.x.grad[~self.MASK] == 0.0)
        for i in (0, 1, 3):
            keep = self.MASK[i]
            kept = self.x.array[i, keep]
            np.testing.assert_allclose(out.array[i, keep], kept - np.log(np.exp(kept).sum()),
                                       rtol=0, atol=1e-13)
        assert out.array[1, 1] == 0.0  # a lone kept entry has probability 1

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_unmasked_matches_plain_formula_bytewise(self, axis):
        got = E.log_softmax(self.x, axis=axis)
        E.backward(E.reduce_sum(E.mul(got, self.probe)))
        got_grad, self.x.grad = self.x.grad, None
        plain = plain_log_softmax(self.x, axis)
        E.backward(E.reduce_sum(E.mul(plain, self.probe)))
        assert got.array.tobytes() == plain.array.tobytes()
        assert got_grad.tobytes() == self.x.grad.tobytes()

    def test_mask_shape_checked(self):
        with pytest.raises(ShapeError):
            E.log_softmax(self.x, axis=1, mask=self.MASK[:, :4])


class TestFiniteDiffCheck:
    def test_sum_is_exact(self):
        x = E.Tensor(np.arange(4.0), requires_grad=True)
        assert finite_diff_check(E.reduce_sum, x) <= 1e-10

    def test_squared_norm(self):
        rng = np.random.default_rng(41)
        x = E.Tensor(rng.normal(size=6), requires_grad=True)
        assert finite_diff_check(lambda t: E.reduce_sum(E.mul(t, t)), x) <= 1e-7

    def test_rejects_bad_h(self):
        x = E.Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ContractError):
            finite_diff_check(E.reduce_sum, x, h=0.0)


class TestNoGrad:
    def test_no_graph_recorded(self):
        x = E.Tensor(np.ones(3), requires_grad=True)
        with E.no_grad():
            y = E.mul(x, x)
        assert not y.requires_grad
        assert y._backward_fn is None


class TestNormalizeRows:
    def test_unit_norm(self):
        rng = np.random.default_rng(53)
        out = E.normalize_rows(E.Tensor(rng.normal(size=(6, 5)))).array
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-9)

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateInputError):
            E.normalize_rows(E.Tensor(np.zeros((2, 3))))


class TestQuickGelu:
    def test_odd_part_is_identity(self):
        # sigmoid(z) + sigmoid(-z) = 1, so gelu(x) - gelu(-x) = x.
        x = np.random.default_rng(54).normal(scale=4.0, size=1000)
        x[:4] = (1e-300, -1e-12, 40.0, -40.0)
        diff = E.gelu(E.Tensor(x)).array - E.gelu(E.Tensor(-x)).array
        np.testing.assert_allclose(diff, x, rtol=4 * np.finfo(float).eps, atol=0.0)

    def test_saturates_to_finite_values_at_the_extremes(self):
        big = np.finfo(float).max
        x = E.Tensor(np.array([1e300, big, -1e300, -big]), requires_grad=True)
        with np.errstate(all="raise"):
            out = E.gelu(x)
            out._backward_fn(np.ones(4))  # a reduce_sum of the outputs would overflow
        np.testing.assert_array_equal(out.array, [1e300, big, 0.0, 0.0])
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 0.0, 0.0])

    def test_negative_zero_maps_to_negative_zero(self):
        out = E.gelu(E.Tensor(np.array([-0.0]))).array
        assert out[0] == 0.0 and np.signbit(out[0])


# The plain forward expressions of the engine's kernels, which compute
# their temporaries in place; the kernels must keep their bytes.

def plain_layer_norm(x, gamma, beta, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    return gamma * ((x - mean) * inv_std) + beta


def plain_gelu(x):
    return x * (0.5 * (1.0 + np.tanh(x * 0.851)))


def plain_attention(q, k, v, num_heads):
    n, _, d = q.shape
    head_dim = d // num_heads

    def split(x):
        return np.ascontiguousarray(
            x.reshape(n, x.shape[1], num_heads, head_dim).transpose(0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    kt = np.ascontiguousarray(kh.transpose(0, 1, 3, 2))
    scores = (qh @ kt) * (1.0 / math.sqrt(head_dim))
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    return (probs @ vh).transpose(0, 2, 1, 3).reshape(n, q.shape[1], d)


class TestKernelsKeepPlainFormulaBytes:
    @pytest.mark.parametrize("shape", [(4, 1, 7), (3, 5, 7), (2, 9, 64), (6, 1)])
    def test_layer_norm(self, shape):
        rng = np.random.default_rng(91)
        x = rng.normal(size=shape) * rng.uniform(0.1, 50.0, size=shape[:-1] + (1,)) + 3.0
        gamma, beta = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        out = E.layer_norm(E.Tensor(x), E.Tensor(gamma), E.Tensor(beta))
        assert out.array.tobytes() == plain_layer_norm(x, gamma, beta).tobytes()

    @pytest.mark.parametrize("shape", [(4, 1, 7), (3, 5, 7), (2, 9, 256)])
    def test_gelu(self, shape):
        x = np.random.default_rng(92).normal(scale=4.0, size=shape)
        x.flat[:3] = (-0.0, 40.0, -40.0)
        assert E.gelu(E.Tensor(x)).array.tobytes() == plain_gelu(x).tobytes()

    @pytest.mark.parametrize("q_rows,keys,width,heads", [
        (1, 6, 5, 1),    # one query row against every key, odd width
        (6, 6, 5, 1),
        (1, 17, 64, 4),  # the default encoder's last block
        (4, 4, 6, 2),    # odd head width
    ])
    def test_attention(self, q_rows, keys, width, heads):
        rng = np.random.default_rng(93)
        q = rng.normal(scale=3.0, size=(3, q_rows, width))
        k, v = rng.normal(scale=3.0, size=(2, 3, keys, width))
        out = E.attention(E.Tensor(q), E.Tensor(k), E.Tensor(v), heads)
        assert out.array.tobytes() == plain_attention(q, k, v, heads).tobytes()


# The plain backward expressions of the engine's rules, which work in
# place.  Each recomputes the forward's captured arrays with the plain
# formulas above and returns the contribution per operand, before
# _accumulate adds it to zeros.

def sum_leading(a, count):
    for axis in reversed(range(count)):
        a = a.sum(axis=axis)
    return a


def oracle_gelu_backward(x, g):
    s = 0.5 * (1.0 + np.tanh(x * 0.851))
    return (g * (s + (1.0 - s) * s * x * 1.702),)


def oracle_layer_norm_backward(x, gamma, beta, g, eps=1e-5):
    inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    xhat = (x - x.mean(axis=-1, keepdims=True)) * inv_std
    g_xhat = g * gamma
    term = g_xhat - g_xhat.mean(axis=-1, keepdims=True)
    term -= xhat * (g_xhat * xhat).mean(axis=-1, keepdims=True)
    lead = x.ndim - 1
    return term * inv_std, sum_leading(g * xhat, lead), sum_leading(g, lead)


def oracle_attention_backward(q, k, v, g, num_heads):
    n, _, d = q.shape
    head_dim = d // num_heads
    factor = 1.0 / math.sqrt(head_dim)

    def split(x):
        return np.ascontiguousarray(
            x.reshape(n, x.shape[1], num_heads, head_dim).transpose(0, 2, 1, 3))

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(n, x.shape[2], d)

    qh, kh, vh = split(q), split(k), split(v)
    kt = np.ascontiguousarray(kh.transpose(0, 1, 3, 2))
    scores = (qh @ kt) * factor
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    gh = split(g)
    g_probs = gh @ vh.transpose(0, 1, 3, 2)
    inner = (g_probs * probs).sum(axis=-1, keepdims=True)
    g_scores = probs * (g_probs - inner) * factor
    return (merge(g_scores @ kt.transpose(0, 1, 3, 2)),
            merge((qh.transpose(0, 1, 3, 2) @ g_scores).transpose(0, 1, 3, 2)),
            merge(probs.transpose(0, 1, 3, 2) @ gh))


def oracle_normalize_rows_backward(x, g):
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    out = x / norms
    inner = (g * out).sum(axis=-1, keepdims=True)
    return ((g - out * inner) / norms,)


def oracle_log_softmax_backward(x, g, axis, mask):
    keep = True if mask is None else mask
    peak = x.max(axis=axis, keepdims=True, where=keep, initial=-np.inf)
    shifted = np.where(keep, x - np.where(np.isneginf(peak), 0.0, peak), -np.inf)
    total = np.exp(shifted).sum(axis=axis, keepdims=True)
    soft = np.exp(shifted - np.log(total, out=np.zeros_like(total), where=total > 0))
    g = np.where(keep, g, 0.0)
    return (g - soft * g.sum(axis=axis, keepdims=True),)


def upstream(rng, shape):
    """An output gradient with -0.0 entries and +0.0 ones."""
    g = rng.normal(size=shape)
    g.flat[::3] = -0.0
    g.flat[1::7] = 0.0
    return g


class TestBackwardRulesKeepPlainFormulaBytes:
    """Every tracked operand's gradient equals the old expression's bytes.

    The rule runs twice on the same upstream gradient: the second pass adds
    onto the first and must read the same captured forward arrays, and
    neither pass may write into the upstream gradient or the output.
    """

    @staticmethod
    def check(op, values, oracle, g):
        operands = [E.Tensor(v, requires_grad=True) for v in values]
        out = op(*operands)
        g_bytes, out_bytes = g.tobytes(), out.array.tobytes()
        contributions = oracle(*values, g)
        expected = [np.zeros_like(v) + c for v, c in zip(values, contributions)]
        for _ in range(2):
            out._backward_fn(g)
            for operand, want in zip(operands, expected):
                assert operand.grad.tobytes() == want.tobytes()
            for want, c in zip(expected, contributions):
                want += c
        assert g.tobytes() == g_bytes and out.array.tobytes() == out_bytes

    @pytest.mark.parametrize("shape", [(4, 1, 7), (3, 5, 7), (2, 9, 256)])
    def test_gelu(self, shape):
        rng = np.random.default_rng(101)
        x = rng.normal(scale=4.0, size=shape)
        x.flat[:3] = (-0.0, 40.0, -40.0)
        self.check(E.gelu, [x], oracle_gelu_backward, upstream(rng, shape))

    @pytest.mark.parametrize("shape", [(4, 1, 7), (3, 5, 7), (2, 9, 64), (6, 1), (5, 9)])
    def test_layer_norm(self, shape):
        rng = np.random.default_rng(102)
        x = rng.normal(size=shape) * rng.uniform(0.1, 50.0, size=shape[:-1] + (1,)) + 3.0
        gamma, beta = rng.normal(size=(2, shape[-1]))
        self.check(E.layer_norm, [x, gamma, beta], oracle_layer_norm_backward,
                   upstream(rng, shape))

    @pytest.mark.parametrize("q_rows,keys,width,heads", [
        (1, 6, 5, 1),
        (6, 6, 5, 1),
        (1, 17, 64, 4),
        (4, 4, 6, 2),
        (17, 17, 64, 4),
    ])
    def test_attention(self, q_rows, keys, width, heads):
        rng = np.random.default_rng(103)
        q = rng.normal(scale=3.0, size=(3, q_rows, width))
        k, v = rng.normal(scale=3.0, size=(2, 3, keys, width))
        self.check(lambda *qkv: E.attention(*qkv, heads), [q, k, v],
                   lambda *args: oracle_attention_backward(*args, heads),
                   upstream(rng, q.shape))

    @pytest.mark.parametrize("shape", [(5, 7), (4, 1, 7), (3, 5, 6)])
    def test_normalize_rows(self, shape):
        rng = np.random.default_rng(104)
        x = rng.normal(size=shape) * rng.uniform(0.1, 50.0, size=shape[:-1] + (1,))
        self.check(E.normalize_rows, [x], oracle_normalize_rows_backward, upstream(rng, shape))

    @pytest.mark.parametrize("shape,axis,masked", [
        ((4, 5), 1, False), ((4, 5), 0, False), ((4, 1, 7), -1, False),
        ((4, 5), 1, True), ((4, 5), 0, True), ((3, 1, 7), -1, True),
    ])
    def test_log_softmax(self, shape, axis, masked):
        rng = np.random.default_rng(105)
        x = rng.normal(scale=3.0, size=shape)
        mask = None
        if masked:  # one slice along axis keeps nothing, another a lone entry
            mask = rng.random(shape) < 0.6
            slices = np.moveaxis(mask, axis, -1)  # a view, one slice per last-axis row
            slices[0] = False
            slices[1] = False
            slices[1, ..., 0] = True
        self.check(lambda t: E.log_softmax(t, axis=axis, mask=mask), [x],
                   lambda x, g: oracle_log_softmax_backward(x, g, axis, mask),
                   upstream(rng, shape))
