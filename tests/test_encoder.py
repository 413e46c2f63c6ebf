"""Tests for the early-fusion view encoder, text encoder, and checkpoints."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from upm import encoder as enc
from upm import engine as E
from upm.encoder import EncoderConfig
from upm.errors import ConfigError, ContractError, DegenerateInputError, FormatError, ShapeError
from tests.conftest import corruptions, edit_header, finite_diff_check


def tiny_config(**overrides):
    defaults = dict(
        image_size=8,
        patch_size=4,
        embed_dim=16,
        num_blocks=2,
        num_heads=2,
        mlp_ratio=2,
        text_vocab_size=128,
        text_context_length=16,
    )
    defaults.update(overrides)
    return EncoderConfig(**defaults)


def unpatchify(patches, image_size, patch_size):
    """Inverse of the patch split, to check the round trip."""
    p = patch_size
    side = image_size // p
    c = patches.shape[1] // (p * p)
    grid = patches.reshape(side, side, p, p, c).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(grid.reshape(image_size, image_size, c))


def oracle_patchify(image, points, patch_size):
    """One view's (M, p*p*3) image and point patches, raster order, channels last."""
    def cut(grid):
        side = grid.shape[0] // patch_size
        patches = grid.reshape(side, patch_size, side, patch_size, 3).transpose(0, 2, 1, 3, 4)
        return np.ascontiguousarray(patches.reshape(side * side, -1))

    return cut(np.asarray(image, dtype=np.float64)), cut(np.asarray(points, dtype=np.float64))


def softmax(x, axis=-1):
    """Softmax as a graph op, for the per-head attention chain of the oracle below."""
    shifted = x.array - x.array.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        E._accumulate(x, out * (g - inner))

    return E._make(out, (x,), bwd)


def random_view(rng, config, invalid_fraction=0.2):
    size = config.image_size
    image = rng.uniform(0.0, 1.0, size=(size, size, 3))
    points = rng.normal(size=(size, size, 3))
    validity = rng.random((size, size)) > invalid_fraction
    return image, points * validity[:, :, None]


def stacks(views):
    """The image stack and the point stack of (image, points) pairs, as ``encode_views`` takes them."""
    return np.stack([image for image, _ in views]), np.stack([points for _, points in views])


class TestConfig:
    def test_patch_count(self):
        assert tiny_config().num_patches == 4
        assert EncoderConfig().num_patches == 16

    def test_divisibility_checks(self):
        with pytest.raises(ConfigError):
            tiny_config(image_size=10)
        with pytest.raises(ConfigError):
            tiny_config(embed_dim=15)

    @pytest.mark.parametrize("name", ["image_size", "patch_size", "embed_dim", "num_heads", "mlp_ratio",
                                      "text_context_length"])
    def test_nonpositive_sizes_rejected(self, name):
        for value in (0, -4):
            with pytest.raises(ConfigError, match=name):
                tiny_config(**{name: value})

    def test_negative_block_count_rejected(self):
        with pytest.raises(ConfigError, match="num_blocks"):
            tiny_config(num_blocks=-1)

    @pytest.mark.parametrize("name,value", [("text_vocab_size", 1), ("modality", "depth-only")])
    def test_out_of_range_field_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            tiny_config(**{name: value})

    def test_paper_preset_matches_vit_b16(self):
        cfg = enc.paper_encoder_config()
        assert cfg.image_size == 224 and cfg.patch_size == 16
        assert cfg.num_patches == 196


def embed_params(config, seed):
    """Encoder parameters with the patch biases and positional rows zeroed."""
    params = enc.init_encoder_params(config, seed=seed)
    for name in ("phi_i.bias", "phi_p.bias", "pos_embedding"):
        params[name].array[:] = 0.0
    return params


class TestPatchify:
    def test_single_patch_collects_everything(self):
        config = tiny_config(image_size=4)
        params = embed_params(config, seed=1)
        rng = np.random.default_rng(0)
        image, points = rng.uniform(size=(1, 4, 4, 3)), rng.normal(size=(1, 4, 4, 3))
        tokens = enc.embed_views(image, points, params, config).array
        assert tokens.shape == (1, 2, config.embed_dim)
        expected = (image.reshape(-1) @ params["phi_i.weight"].array
                    + points.reshape(-1) @ params["phi_p.weight"].array)
        np.testing.assert_allclose(tokens[0, 1], expected, atol=1e-12)

    def test_raster_order(self):
        config = tiny_config()
        params = embed_params(config, seed=2)
        image = np.zeros((1, 8, 8, 3))
        image[0, :4, :4] = 1.0  # top-left patch
        tokens = enc.embed_views(image, np.zeros_like(image), params, config).array[0]
        np.testing.assert_allclose(tokens[1], params["phi_i.weight"].array.sum(axis=0), atol=1e-12)
        np.testing.assert_array_equal(tokens[2:], np.zeros((3, config.embed_dim)))

    def test_round_trip(self):
        # With identity projections the tokens are the patches themselves.
        config = tiny_config(embed_dim=48)
        rng = np.random.default_rng(1)
        image, points = rng.uniform(size=(2, 8, 8, 3)), rng.normal(size=(2, 8, 8, 3))
        for stream, other, grid in (("phi_i", "phi_p", image), ("phi_p", "phi_i", points)):
            params = embed_params(config, seed=3)
            params[f"{stream}.weight"].array[:] = np.eye(48)
            params[f"{other}.weight"].array[:] = 0.0
            tokens = enc.embed_views(image, points, params, config).array
            for view_tokens, view in zip(tokens, grid):
                np.testing.assert_array_equal(unpatchify(view_tokens[1:], 8, 4), view)

    def test_misaligned_shapes_rejected(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=4)
        with pytest.raises(ShapeError, match="pixel-aligned"):
            enc.embed_views(np.zeros((1, 8, 8, 3)), np.zeros((1, 4, 4, 3)), params, config)
        with pytest.raises(ShapeError, match="pixel-aligned"):
            enc.embed_views(np.zeros((2, 8, 8, 3)), np.zeros((1, 8, 8, 3)), params, config)


class TestEmbedView:
    def test_zero_inputs_expose_biases_and_positional_rows(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=3)
        params["phi_i.bias"].array[:] = 0.25
        params["phi_p.bias"].array[:] = 0.5
        zeros = np.zeros((2, 8, 8, 3))
        tokens = enc.embed_views(zeros, zeros, params, config)
        assert tokens.shape == (2, config.num_patches + 1, config.embed_dim)
        expected = params["pos_embedding"].array + 0.75
        for view_tokens in tokens.array:
            np.testing.assert_array_equal(view_tokens[0], params["cls_token"].array[0])
            np.testing.assert_allclose(view_tokens[1:], expected, atol=1e-12)

    def test_zeroed_point_projection_reduces_to_image_path(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=4)
        params["phi_p.weight"].array[:] = 0.0
        params["phi_p.bias"].array[:] = 0.0
        rng = np.random.default_rng(5)
        image, points = rng.normal(size=(8, 8, 3)), rng.normal(size=(8, 8, 3))
        tokens = enc.embed_views(image[None], points[None], params, config).array[0]
        ip, _ = oracle_patchify(image, points, config.patch_size)
        image_only = (
            ip @ params["phi_i.weight"].array
            + params["phi_i.bias"].array
            + params["pos_embedding"].array
        )
        np.testing.assert_allclose(tokens[1:], image_only, atol=1e-12)

    def test_fused_rows_componentwise(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=6)
        rng = np.random.default_rng(7)
        images, points = rng.normal(size=(3, 8, 8, 3)), rng.normal(size=(3, 8, 8, 3))
        tokens = enc.embed_views(images, points, params, config)
        for n in range(3):
            ip, pp = oracle_patchify(images[n], points[n], config.patch_size)
            for m in range(config.num_patches):
                image_row = ip[m] @ params["phi_i.weight"].array + params["phi_i.bias"].array
                point_row = pp[m] @ params["phi_p.weight"].array + params["phi_p.bias"].array
                expected = image_row + params["pos_embedding"].array[m] + point_row
                np.testing.assert_allclose(tokens.array[n, m + 1], expected, atol=1e-12)

    def test_patch_stack_shape_checked(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=9)
        view = np.zeros((8, 8, 3))
        with pytest.raises(ShapeError, match="image stack"):
            enc.embed_views(view, view, params, config)
        for size in (4, 12):
            stack = np.zeros((1, size, size, 3))
            with pytest.raises(ShapeError, match="image stack"):
                enc.embed_views(stack, stack, params, config)
        wide = np.zeros((1, 8, 8, 4))
        with pytest.raises(ShapeError, match="image stack"):
            enc.embed_views(wide, wide, params, config)

    def test_shared_initialization_of_patch_embeddings(self):
        params = enc.init_encoder_params(tiny_config(), seed=8)
        np.testing.assert_array_equal(params["phi_i.weight"].array, params["phi_p.weight"].array)
        assert params["phi_i.weight"] is not params["phi_p.weight"]


class TestEncodeViews:
    def test_unit_norm_and_determinism(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=9)
        rng = np.random.default_rng(10)
        view = random_view(rng, config)
        h1 = enc.encode_views(*stacks([view]), params, config).array[0]
        h2 = enc.encode_views(*stacks([view]), params, config).array[0]
        assert abs(np.linalg.norm(h1) - 1.0) <= 1e-9
        np.testing.assert_array_equal(h1, h2)

    def test_identical_views_identical_embeddings(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=11)
        rng = np.random.default_rng(12)
        view = random_view(rng, config)
        out = enc.encode_views(*stacks([view, view]), params, config)
        np.testing.assert_array_equal(out.array[0], out.array[1])

    def test_zero_blocks_ignore_patch_content(self):
        config = tiny_config(num_blocks=0)
        params = enc.init_encoder_params(config, seed=13)
        rng = np.random.default_rng(14)
        h1 = enc.encode_views(*stacks([random_view(rng, config)]), params, config).array[0]
        h2 = enc.encode_views(*stacks([random_view(rng, config)]), params, config).array[0]
        np.testing.assert_array_equal(h1, h2)

    def test_permutation_equivariance(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=15)
        rng = np.random.default_rng(16)
        views = [random_view(rng, config) for _ in range(4)]
        base = enc.encode_views(*stacks(views), params, config).array
        perm = [2, 0, 3, 1]
        permuted = enc.encode_views(*stacks([views[i] for i in perm]), params, config).array
        for out_row, src in zip(permuted, perm):
            np.testing.assert_array_equal(out_row, base[src])

    def test_modality_ablation_changes_output(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=17)
        rng = np.random.default_rng(18)
        view = random_view(rng, config)
        both = enc.encode_views(*stacks([view]), params, config).array[0]
        image_only = enc.encode_views(
            *stacks([view]), params, dataclasses.replace(config, modality="image-only")).array[0]
        pointmap_only = enc.encode_views(
            *stacks([view]), params, dataclasses.replace(config, modality="pointmap-only")).array[0]
        assert not np.array_equal(both, image_only)
        assert not np.array_equal(both, pointmap_only)

    def test_gradient_reaches_parameters(self):
        config = tiny_config(image_size=4, num_blocks=1)
        params = enc.init_encoder_params(config, seed=19)
        rng = np.random.default_rng(20)
        view = random_view(rng, config)
        probe = np.linspace(-1, 1, config.embed_dim)[None, :]

        def loss_for(param):
            def f(_):
                h = enc.encode_views(*stacks([view]), params, config)
                return E.reduce_sum(E.mul(h, E.Tensor(probe)))

            return f

        for name, tensor in [
            ("phi_p.weight", params["phi_p.weight"]),
            ("cls_token", params["cls_token"]),
            ("blocks.0.attn.wq", params["blocks.0.attn.wq"]),
            ("final_ln.gamma", params["final_ln.gamma"]),
        ]:
            err = finite_diff_check(loss_for(tensor), tensor, h=1e-5)
            assert err <= 1e-4, name

    def test_empty_view_list_rejected(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=21)
        empty = np.zeros((0, config.image_size, config.image_size, 3))
        with pytest.raises(DegenerateInputError):
            enc.encode_views(empty, empty, params, config)

    def test_views_of_two_sizes_rejected(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=22)
        rng = np.random.default_rng(23)
        images, _ = stacks([random_view(rng, config)])
        small_images, small_points = stacks([random_view(rng, tiny_config(image_size=4))])
        with pytest.raises(ShapeError, match="not pixel-aligned"):
            enc.encode_views(images, small_points, params, config)
        with pytest.raises(ShapeError, match="image stack"):
            enc.encode_views(small_images, small_points, params, config)


def oracle_encode_view(image, points, params, config, modality="both", pruned=True):
    """The per-view encoder: one graph per view, one op chain per head.

    Pruned, it keeps only the class-token row where ``encode_views`` does:
    the last block's queries, residual and MLP run on that row alone, and
    with no blocks the row is taken before the final layer norm.  Batched
    ``encode_views`` must match it byte for byte in embeddings, and in
    every gradient that reaches the parameters up to ``GRAD_RTOL``.
    Unpruned, it is the full-block oracle: every block runs on every
    token and the class token is taken last, so the pruned encoder's rows
    and gradients agree with it to rounding only.
    """
    image_patches, point_patches = oracle_patchify(image, points, config.patch_size)
    if modality == "image-only":
        point_patches = np.zeros_like(point_patches)
    elif modality == "pointmap-only":
        image_patches = np.zeros_like(image_patches)
    z_image = E.add(
        E.add(E.matmul(E.Tensor(image_patches), params["phi_i.weight"]), params["phi_i.bias"]),
        params["pos_embedding"],
    )
    z_points = E.add(E.matmul(E.Tensor(point_patches), params["phi_p.weight"]), params["phi_p.bias"])
    x = E.concat([params["cls_token"], E.add(z_image, z_points)], axis=0)
    if pruned and config.num_blocks == 0:
        x = E.narrow(x, 0, 0, 1)
    head_dim = config.embed_dim // config.num_heads
    for i in range(config.num_blocks):
        pre = f"blocks.{i}."
        h = E.layer_norm(x, params[pre + "ln1.gamma"], params[pre + "ln1.beta"])
        queries = h
        if pruned and i == config.num_blocks - 1:
            x, queries = E.narrow(x, 0, 0, 1), E.narrow(h, 0, 0, 1)
        q = E.add(E.matmul(queries, params[pre + "attn.wq"]), params[pre + "attn.bq"])
        k = E.add(E.matmul(h, params[pre + "attn.wk"]), params[pre + "attn.bk"])
        v = E.add(E.matmul(h, params[pre + "attn.wv"]), params[pre + "attn.bv"])
        heads = []
        for head in range(config.num_heads):
            start = head * head_dim
            qh = E.narrow(q, 1, start, head_dim)
            kh = E.narrow(k, 1, start, head_dim)
            vh = E.narrow(v, 1, start, head_dim)
            scores = E.scale(E.matmul(qh, E.transpose(kh)), 1.0 / math.sqrt(head_dim))
            heads.append(E.matmul(softmax(scores, axis=-1), vh))
        attended = E.add(E.matmul(E.concat(heads, axis=1), params[pre + "attn.wo"]),
                         params[pre + "attn.bo"])
        x = E.add(x, attended)
        h = E.layer_norm(x, params[pre + "ln2.gamma"], params[pre + "ln2.beta"])
        hidden = E.gelu(E.add(E.matmul(h, params[pre + "mlp.w_up"]), params[pre + "mlp.b_up"]))
        x = E.add(x, E.add(E.matmul(hidden, params[pre + "mlp.w_down"]), params[pre + "mlp.b_down"]))
    x = E.layer_norm(x, params["final_ln.gamma"], params["final_ln.beta"])
    return E.normalize_rows(E.narrow(x, 0, 0, 1))


def mixing_loss(rows, seed):
    """A scalar that reads every row of an (N, d) tensor through several consumers."""
    rng = np.random.default_rng(seed)
    n, d = rows.shape
    logits = E.matmul(rows, E.Tensor(rng.normal(size=(d, n))))
    total = E.reduce_sum(E.mul(E.log_softmax(logits, axis=1), E.Tensor(rng.normal(size=(n, n)))))
    for i in range(n):
        row = E.narrow(rows, 0, i, 1)
        total = E.add(total, E.reduce_sum(E.mul(row, E.Tensor(rng.normal(size=(1, d))))))
    return E.add(total, E.reduce_sum(E.mul(enc.pool_scene(rows, [n]), E.Tensor(rng.normal(size=(1, d))))))


# A stacked weight's gradient is one GEMM over the flattened stack, whose
# BLAS summation order differs from the per-view graphs' item-by-item sums:
# gradients agree to this bound, relative to each parameter's largest |grad|.
GRAD_RTOL = 1e-12


def encoded(encode, views, config, modality="both", seed=0):
    """Embedding row bytes and every parameter's gradient after one backward."""
    params = enc.init_encoder_params(config, seed=seed)
    rows = encode(views, params, config, modality)
    E.backward(mixing_loss(rows, seed))
    grads = {name: (t.grad.copy() if t.grad is not None else None)
             for name, t in params.named_parameters()}
    return [r.tobytes() for r in rows.array], grads


def assert_matches_oracle(got, want, rtol=GRAD_RTOL):
    """Rows byte-equal; each gradient within ``rtol`` of the oracle's largest |grad|."""
    assert got[0] == want[0]
    assert got[1].keys() == want[1].keys()
    for name, expected in want[1].items():
        actual = got[1][name]
        if expected is None:
            assert actual is None, name
            continue
        scale = np.abs(expected).max()
        assert np.abs(actual - expected).max() <= rtol * scale, name


def batched(views, params, config, modality):
    return enc.encode_views(*stacks(views), params, dataclasses.replace(config, modality=modality))


def per_view(views, params, config, modality):
    return E.concat([oracle_encode_view(img, pts, params, config, modality) for img, pts in views])


class TestBatchedEqualsPerView:
    @pytest.mark.parametrize("num_blocks", [0, 2])
    @pytest.mark.parametrize("modality", enc.MODALITIES)
    @pytest.mark.parametrize("n_views", [1, 5])
    def test_bytes_match_oracle(self, num_blocks, modality, n_views):
        config = tiny_config(num_blocks=num_blocks)
        rng = np.random.default_rng(100 + 10 * num_blocks + n_views)
        views = [random_view(rng, config) for _ in range(n_views)]
        got = encoded(batched, views, config, modality)
        want = encoded(per_view, views, config, modality)
        # A one-view stack's GEMM is the lone view's product, and with no
        # blocks every stacked-weight gradient still sums in the oracle's
        # order: both keep byte-equal gradients.
        exact = n_views == 1 or num_blocks == 0
        assert_matches_oracle(got, want, rtol=0.0 if exact else GRAD_RTOL)
        text_only = {"text.table", "text.weight", "text.bias"}
        assert all(want[1][name] is not None for name in want[1] if name not in text_only)

    def test_permuted_order_matches_oracle(self):
        config = tiny_config(num_heads=4)
        rng = np.random.default_rng(200)
        views = [random_view(rng, config) for _ in range(6)]
        permuted = [views[i] for i in [4, 1, 5, 0, 3, 2]]
        got = encoded(batched, permuted, config)
        assert_matches_oracle(got, encoded(per_view, permuted, config))
        unpermuted = encoded(batched, views, config)
        assert [got[0][j] for j in np.argsort([4, 1, 5, 0, 3, 2])] == unpermuted[0]

    def test_default_config_matches_oracle(self):
        config = EncoderConfig()
        rng = np.random.default_rng(300)
        views = [random_view(rng, config) for _ in range(8)]
        got = encoded(batched, views, config, seed=21)
        assert_matches_oracle(got, encoded(per_view, views, config, seed=21))

    def test_forward_without_grad_matches_oracle(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=31)
        rng = np.random.default_rng(32)
        views = [random_view(rng, config) for _ in range(3)]
        with E.no_grad():
            rows = enc.encode_views(*stacks(views), params, config)
        assert not rows.requires_grad
        for row, (img, pts) in zip(rows.array, views):
            assert row.tobytes() == oracle_encode_view(img, pts, params, config).array[0].tobytes()


def full_block(views, params, config, modality):
    return E.concat([oracle_encode_view(img, pts, params, config, modality, pruned=False)
                     for img, pts in views])


class TestClassTokenPruning:
    """The last block runs its queries, residual and MLP on the class-token row only."""

    @pytest.mark.parametrize("config,n_views", [
        (tiny_config(), 5),
        (tiny_config(num_blocks=1, num_heads=4), 3),
        (EncoderConfig(), 8),
    ])
    def test_matches_full_block_oracle(self, config, n_views):
        rng = np.random.default_rng(400 + n_views)
        views = [random_view(rng, config) for _ in range(n_views)]
        got_rows, got_grads = encoded(batched, views, config, seed=n_views)
        want_rows, want_grads = encoded(full_block, views, config, seed=n_views)
        got, want = (np.frombuffer(b"".join(rows)) for rows in (got_rows, want_rows))
        assert np.abs(got - want).max() <= 1e-12
        # Relative to the largest |grad| over all parameters: the key biases'
        # true gradient is 0, so theirs are rounding noise around it.
        largest = max(np.abs(g).max() for g in want_grads.values() if g is not None)
        for name, expected in want_grads.items():
            if expected is None:
                assert got_grads[name] is None, name
            else:
                assert np.abs(got_grads[name] - expected).max() <= 1e-12 * largest, name

    def test_last_block_mlp_sees_class_token_rows_only(self, monkeypatch):
        config = tiny_config(num_blocks=3)
        shapes = []
        gelu = E.gelu

        def recording_gelu(a):
            shapes.append(a.shape)
            return gelu(a)

        monkeypatch.setattr(E, "gelu", recording_gelu)
        rng = np.random.default_rng(410)
        params = enc.init_encoder_params(config, seed=41)
        enc.encode_views(*stacks([random_view(rng, config) for _ in range(4)]), params, config)
        hidden = config.embed_dim * config.mlp_ratio
        tokens = config.num_patches + 1
        assert shapes == [(4, tokens, hidden), (4, tokens, hidden), (4, 1, hidden)]


class TestPoolScene:
    def test_single_view_passthrough(self):
        row = E.Tensor(np.eye(1, 5))
        pooled = enc.pool_scene(row, [1])
        np.testing.assert_allclose(pooled.array, row.array, atol=1e-12)

    def test_two_basis_vectors(self):
        e1 = np.eye(1, 4, 0)
        e2 = np.eye(1, 4, 1)
        pooled = enc.pool_scene(E.Tensor(np.concatenate([e1, e2])), [2]).array
        expected = (e1 + e2) / np.sqrt(2.0)
        np.testing.assert_allclose(pooled, expected, atol=1e-12)

    def test_batch_pools_each_scene_over_its_own_rows(self):
        rows = np.random.default_rng(33).normal(size=(9, 4))
        counts = [2, 1, 6]
        pooled = enc.pool_scene(E.Tensor(rows), counts)
        assert pooled.shape == (3, 4)
        for scene_rows, got in zip(np.split(rows, np.cumsum(counts)[:-1]), pooled.array):
            mean = scene_rows.mean(axis=0)
            np.testing.assert_allclose(got, mean / np.linalg.norm(mean), rtol=0, atol=1e-15)
        with pytest.raises(ShapeError):
            enc.pool_scene(E.Tensor(rows), [2, 1, 5])

    def test_antipodal_views_degenerate(self):
        e1 = np.eye(1, 4, 0)
        with pytest.raises(DegenerateInputError):
            enc.pool_scene(E.Tensor(np.concatenate([e1, -e1])), [2])

    def test_empty_scene_rejected(self):
        with pytest.raises(DegenerateInputError):
            enc.pool_scene(E.Tensor(np.zeros((0, 4))), [0])
        with pytest.raises(DegenerateInputError):
            enc.pool_scene(E.Tensor(np.ones((2, 4))), [2, 0])


def oracle_encode_texts(texts, params, config):
    """The dense text tower: an (n, vocab) selection matrix times the table.

    Row i of the selection matrix holds 1/len for each of text i's token
    ids, added once per occurrence.  ``encode_texts`` must agree with it to
    rounding, in rows and in the projection's gradients.
    """
    selection = np.zeros((len(texts), config.text_vocab_size))
    for row, text in enumerate(texts):
        ids = enc.token_ids(text, config)
        for tid in ids:
            selection[row, tid] += 1.0 / len(ids)
    pooled = E.matmul(E.Tensor(selection), params["text.table"])
    projected = E.add(E.matmul(pooled, params["text.weight"]), params["text.bias"])
    return E.normalize_rows(projected)


class TestTextEncoder:
    def test_matches_dense_selection_oracle(self):
        config = tiny_config(text_vocab_size=8)  # a small vocabulary forces hash collisions
        texts = ["the red chair near the blue table", "", "chair chair chair", "...",
                 "a lamp", "table table chair"]
        rng = np.random.default_rng(26)
        probe = E.Tensor(rng.normal(size=(len(texts), config.embed_dim)))
        results = []
        for encode in (enc.encode_texts, oracle_encode_texts):
            params = enc.init_encoder_params(config, seed=26)
            rows = encode(texts, params, config)
            E.backward(E.reduce_sum(E.mul(rows, probe)))
            assert params["text.table"].grad is None  # the table is fixed
            results.append((rows.array, params["text.weight"].grad, params["text.bias"].grad))
        ids = [enc.token_ids(t, config) for t in texts]
        assert [0] in ids and any(len(set(i)) < len(i) for i in ids)
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_deterministic(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=22)
        a = enc.encode_texts(["the red chair near the blue table"], params, config).array
        b = enc.encode_texts(["the red chair near the blue table"], params, config).array
        np.testing.assert_array_equal(a, b)

    def test_empty_string_uses_reserved_token(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=23)
        emb = enc.encode_texts([""], params, config).array
        assert abs(np.linalg.norm(emb) - 1.0) <= 1e-9
        assert enc.token_ids("", config) == [0]

    def test_unit_norm_for_random_strings(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=24)
        rng = np.random.default_rng(25)
        words = ["alpha", "beta", "gamma", "delta", "room", "chair", "zeta"]
        texts = [" ".join(rng.choice(words, size=rng.integers(1, 6))) for _ in range(20)]
        out = enc.encode_texts(texts, params, config).array
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)

    def test_token_ids_equal_uncached_md5(self):
        # Memoized ids are the hash formula's, on every call.
        config = tiny_config(text_vocab_size=97)
        texts = ["", "The RED-chair, near table.", "chair chair 42", "...", "Été café naïve",
                 "x" * 40 + " 0"]
        for text in texts * 2:
            tokens = enc.tokenize(text, config.text_context_length)
            expected = [int.from_bytes(hashlib.md5(t.encode("utf-8")).digest()[:8], "little") % 96 + 1
                        for t in tokens]
            assert enc.token_ids(text, config) == (expected or [0])

    def test_truncation(self):
        config = tiny_config(text_context_length=3)
        ids = enc.token_ids("one two three four five", config)
        assert len(ids) == 3

    def test_tokenizer_splits_punctuation(self):
        assert enc.tokenize("The RED-chair, near table.", 10) == [
            "the",
            "red",
            "chair",
            "near",
            "table",
        ]


class TestParameterLayout:
    @pytest.mark.parametrize("config", [tiny_config(), tiny_config(num_blocks=0), EncoderConfig()])
    def test_init_and_load_follow_the_table(self, tmp_path, config):
        # The table is the one statement of the layout: the init and the
        # checkpoint reader give its names, in its order, at its shapes, and
        # the trained parameters are all of them but the fixed text table.
        layout = [(name, shape) for name, (shape, _) in enc._parameter_layout(config).items()]
        trained = [(name, shape) for name, shape in layout if name != "text.table"]
        params = enc.init_encoder_params(config, seed=1)
        enc.save_checkpoint(tmp_path / "model.upm", params, config)
        loaded, _, extras = enc.load_checkpoint(tmp_path / "model.upm")
        assert extras == {}
        for p in (params, loaded):
            assert [(name, t.shape) for name, t in p.items()] == layout
            assert [(name, t.shape) for name, t in p.named_parameters()] == trained
            assert [name for name, t in p.items() if not t.requires_grad] == ["text.table"]


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=26)
        extra = E.Tensor(np.array([0.125]), requires_grad=True)
        path = tmp_path / "model.upm"
        enc.save_checkpoint(path, params, config, extras=[("temperature.log_tau", extra)])
        loaded, loaded_config, extras = enc.load_checkpoint(path)
        assert loaded_config == config
        for (name_a, t_a), (name_b, t_b) in zip(params.items(), loaded.items(), strict=True):
            assert name_a == name_b
            np.testing.assert_array_equal(t_a.array, t_b.array)
        np.testing.assert_array_equal(extras["temperature.log_tau"].array, extra.array)

    def test_save_is_byte_deterministic(self, tmp_path):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=27)
        p1, p2 = tmp_path / "a.upm", tmp_path / "b.upm"
        enc.save_checkpoint(p1, params, config)
        enc.save_checkpoint(p2, params, config)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.upm"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            enc.load_checkpoint(path)

    def test_malformed_config_record_rejected(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "model.upm"
        enc.save_checkpoint(path, enc.init_encoder_params(config, seed=29), config)
        blob = path.read_bytes()
        # Text, float and boolean sizes; an integer and an unknown modality;
        # a field missing (no array's shape depends on this one, so only the
        # config check sees it); an unknown field; no config; a config that
        # is not an object.
        for edit in (lambda meta: meta["encoder"].update(patch_size="x"),
                     lambda meta: meta["encoder"].update(patch_size=4.0),
                     lambda meta: meta["encoder"].update(patch_size=True),
                     lambda meta: meta["encoder"].update(modality=1),
                     lambda meta: meta["encoder"].update(modality="depth-only"),
                     lambda meta: meta["encoder"].pop("text_context_length"),
                     lambda meta: meta["encoder"].update(dropout=0),
                     lambda meta: meta.pop("encoder"),
                     lambda meta: meta.update(encoder=[4])):
            path.write_bytes(blob)
            edit_header(path, lambda header: edit(header["meta"]))
            with pytest.raises(FormatError, match="invalid checkpoint config"):
                enc.load_checkpoint(path)

    def edited(self, tmp_path, old, new):
        """A saved checkpoint with one same-length byte edit, so every length stays valid."""
        assert len(old) == len(new)
        config = tiny_config()
        path = tmp_path / "model.upm"
        enc.save_checkpoint(path, enc.init_encoder_params(config, seed=30), config)
        blob = path.read_bytes()
        assert old in blob
        path.write_bytes(blob.replace(old, new, 1))
        return path

    def test_non_utf8_config_record_rejected(self, tmp_path):
        path = self.edited(tmp_path, b'"patch_size": 4', b'"patch_size": \xff')
        with pytest.raises(FormatError, match="'ascii' codec can't decode"):
            enc.load_checkpoint(path)

    def test_non_utf8_tensor_name_rejected(self, tmp_path):
        path = self.edited(tmp_path, b"phi_i.weight", b"phi_i.\xffeight")
        with pytest.raises(FormatError, match="'ascii' codec can't decode"):
            enc.load_checkpoint(path)

    def test_zero_patch_size_record_rejected(self, tmp_path):
        path = self.edited(tmp_path, b'"patch_size": 4', b'"patch_size": 0')
        with pytest.raises(FormatError, match="patch_size must be positive"):
            enc.load_checkpoint(path)

    def tiny_checkpoint(self, path):
        """The smallest encoder plus one extra tensor: 650 bytes."""
        config = EncoderConfig(image_size=1, patch_size=1, embed_dim=1, num_blocks=0, num_heads=1,
                               mlp_ratio=1, text_vocab_size=2, text_context_length=1)
        extra = E.Tensor(np.array([0.5, -2.0]))
        enc.save_checkpoint(path, enc.init_encoder_params(config, seed=0), config,
                            extras=[("temperature.log_tau", extra)])
        return {name: t.shape for name, t in enc.init_encoder_params(config).items()} | {
            "temperature.log_tau": (2,)}

    def test_every_truncation_and_byte_flip_fails_typed_or_loads_intact(self, tmp_path):
        path = tmp_path / "model.upm"
        saved = self.tiny_checkpoint(path)
        blob = path.read_bytes()
        assert len(blob) == 650
        truncated, flipped = corruptions(blob)
        loaded = 0
        for variant in truncated + flipped:
            path.write_bytes(variant)
            try:
                params, _, extras = enc.load_checkpoint(path)
            except FormatError:
                continue
            # No checksum: a flipped payload byte loads, with every name and shape intact.
            shapes = {name: t.shape for name, t in params.items()}
            assert shapes | {name: t.shape for name, t in extras.items()} == saved
            loaded += 1
        assert 0 < loaded < len(blob)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.upm"
        self.tiny_checkpoint(path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="1 trailing bytes"):
            enc.load_checkpoint(path)

    @pytest.mark.parametrize("field,value,match", [
        ("text_vocab_size", 2**62, "text.table has shape"),  # once a ValueError
        ("text_vocab_size", 2**40, "text.table has shape"),  # once a MemoryError
        ("embed_dim", 2**40, "phi_i.weight has shape"),
        ("num_blocks", 2**40, "too few for 1099511627776 blocks"),
    ])
    def test_config_beyond_the_stored_arrays_rejected_before_allocating(self, tmp_path, field,
                                                                          value, match):
        path = tmp_path / "model.upm"
        self.tiny_checkpoint(path)
        edit_header(path, lambda header: header["meta"]["encoder"].update({field: value}))
        with pytest.raises(FormatError, match=match):
            enc.load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path):
        path = tmp_path / "model.upm"
        self.tiny_checkpoint(path)

        def rename(header):
            assert header["arrays"][-2] == ["text.bias", [1]]
            header["arrays"][-2][0] = "text.offset"

        edit_header(path, rename)
        with pytest.raises(FormatError, match=r"missing parameters \[text.bias\]"):
            enc.load_checkpoint(path)

    def test_repeated_tensor_name_rejected(self, tmp_path):
        # The writer refuses a repeated name before any write; a file that
        # repeats one anyway, by a hand-edited header, fails to load.
        path = tmp_path / "model.upm"
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=0)
        extra = E.Tensor(np.zeros(1))
        with pytest.raises(ContractError, match=r"\['extra'\] repeat"):
            enc.save_checkpoint(path, params, config, extras=[("extra", extra), ("extra", extra)])
        assert list(tmp_path.iterdir()) == []
        enc.save_checkpoint(path, params, config, extras=[("extra", extra), ("other", extra)])

        def rename(header):
            assert header["arrays"][-1] == ["other", [1]]
            header["arrays"][-1][0] = "extra"

        edit_header(path, rename)
        with pytest.raises(FormatError, match="extra appears twice"):
            enc.load_checkpoint(path)

    def test_huge_or_unrepresentable_dims_rejected(self, tmp_path):
        path = tmp_path / "model.upm"
        self.tiny_checkpoint(path)
        blob = path.read_bytes()

        def set_extra_shape(shape):
            def edit(header):
                assert header["arrays"][-1] == ["temperature.log_tau", [2]]
                header["arrays"][-1][1] = shape

            path.write_bytes(blob)
            edit_header(path, edit)

        set_extra_shape([2**31, 2**31])  # 2**65 bytes
        with pytest.raises(FormatError, match="truncated"):
            enc.load_checkpoint(path)
        set_extra_shape([0] * 65)  # past numpy's rank limit
        with pytest.raises(FormatError, match="has shape"):
            enc.load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="model.upm"):
            enc.load_checkpoint(tmp_path / "model.upm")

    def test_directory_rejected(self, tmp_path):
        (tmp_path / "model.upm").mkdir()
        with pytest.raises(FormatError, match="model.upm"):
            enc.load_checkpoint(tmp_path / "model.upm")

    def test_truncated_file_rejected(self, tmp_path):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=28)
        path = tmp_path / "model.upm"
        enc.save_checkpoint(path, params, config)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="truncated"):
            enc.load_checkpoint(path)
