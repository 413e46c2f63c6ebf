"""Tests for the early-fusion view encoder, text encoder, and checkpoints."""

import math

import numpy as np
import pytest

from upm import encoder as enc
from upm import engine as E
from upm.encoder import EncoderConfig
from upm.errors import ConfigError, DegenerateInputError, FormatError, ShapeError


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

    def test_paper_preset_matches_vit_b16(self):
        cfg = enc.paper_encoder_config()
        assert cfg.image_size == 224 and cfg.patch_size == 16
        assert cfg.num_patches == 196


class TestPatchify:
    def test_single_patch_collects_everything(self):
        rng = np.random.default_rng(0)
        image = rng.uniform(size=(4, 4, 3))
        ip, pp = enc.patchify(image, rng.normal(size=(4, 4, 3)), patch_size=4)
        assert ip.shape == (1, 48) and pp.shape == (1, 48)
        np.testing.assert_array_equal(ip[0], image.reshape(-1))

    def test_raster_order(self):
        image = np.zeros((8, 8, 3))
        image[:4, :4] = 1.0  # top-left block
        ip, _ = enc.patchify(image, np.zeros((8, 8, 3)), patch_size=4)
        assert ip.shape == (4, 48)
        np.testing.assert_array_equal(ip[0], np.ones(48))
        np.testing.assert_array_equal(ip[1:], np.zeros((3, 48)))

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        image = rng.uniform(size=(8, 8, 3))
        points = rng.normal(size=(8, 8, 3))
        ip, pp = enc.patchify(image, points, patch_size=4)
        np.testing.assert_array_equal(unpatchify(ip, 8, 4), image)
        np.testing.assert_array_equal(unpatchify(pp, 8, 4), points)

    def test_misaligned_shapes_rejected(self):
        with pytest.raises(ShapeError):
            enc.patchify(np.zeros((8, 8, 3)), np.zeros((4, 4, 3)), patch_size=4)


class TestEmbedView:
    def test_zero_inputs_expose_biases_and_positional_rows(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=3)
        params.phi_i_bias.array[:] = 0.25
        params.phi_p_bias.array[:] = 0.5
        m = config.num_patches
        zeros = np.zeros((2, m, config.patch_dim))
        tokens = enc.embed_views(zeros, zeros, params)
        assert tokens.shape == (2, m + 1, config.embed_dim)
        expected = params.pos_embedding.array + 0.75
        for view_tokens in tokens.array:
            np.testing.assert_array_equal(view_tokens[0], params.cls_token.array[0])
            np.testing.assert_allclose(view_tokens[1:], expected, atol=1e-12)

    def test_zeroed_point_projection_reduces_to_image_path(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=4)
        params.phi_p_weight.array[:] = 0.0
        params.phi_p_bias.array[:] = 0.0
        rng = np.random.default_rng(5)
        ip = rng.normal(size=(config.num_patches, config.patch_dim))
        pp = rng.normal(size=(config.num_patches, config.patch_dim))
        tokens = enc.embed_views(ip[None], pp[None], params).array[0]
        image_only = (
            ip @ params.phi_i_weight.array
            + params.phi_i_bias.array
            + params.pos_embedding.array
        )
        np.testing.assert_allclose(tokens[1:], image_only, atol=1e-12)

    def test_fused_rows_componentwise(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=6)
        rng = np.random.default_rng(7)
        ip = rng.normal(size=(3, config.num_patches, config.patch_dim))
        pp = rng.normal(size=(3, config.num_patches, config.patch_dim))
        tokens = enc.embed_views(ip, pp, params)
        for n in range(3):
            for m in range(config.num_patches):
                image_row = ip[n, m] @ params.phi_i_weight.array + params.phi_i_bias.array
                point_row = pp[n, m] @ params.phi_p_weight.array + params.phi_p_bias.array
                expected = image_row + params.pos_embedding.array[m] + point_row
                np.testing.assert_allclose(tokens.array[n, m + 1], expected, atol=1e-12)

    def test_patch_stack_shape_checked(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=9)
        patches = np.zeros((config.num_patches, config.patch_dim))
        with pytest.raises(ShapeError):
            enc.embed_views(patches, patches, params)
        with pytest.raises(ShapeError):
            enc.embed_views(patches[None, 1:], patches[None, 1:], params)

    def test_shared_initialization_of_patch_embeddings(self):
        params = enc.init_encoder_params(tiny_config(), seed=8)
        np.testing.assert_array_equal(params.phi_i_weight.array, params.phi_p_weight.array)
        assert params.phi_i_weight is not params.phi_p_weight


class TestEncodeViews:
    def test_unit_norm_and_determinism(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=9)
        rng = np.random.default_rng(10)
        view = random_view(rng, config)
        h1 = enc.encode_views([view], params, config).array[0]
        h2 = enc.encode_views([view], params, config).array[0]
        assert abs(np.linalg.norm(h1) - 1.0) <= 1e-9
        np.testing.assert_array_equal(h1, h2)

    def test_identical_views_identical_embeddings(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=11)
        rng = np.random.default_rng(12)
        view = random_view(rng, config)
        out = enc.encode_views([view, view], params, config)
        np.testing.assert_array_equal(out.array[0], out.array[1])

    def test_zero_blocks_ignore_patch_content(self):
        config = tiny_config(num_blocks=0)
        params = enc.init_encoder_params(config, seed=13)
        rng = np.random.default_rng(14)
        h1 = enc.encode_views([random_view(rng, config)], params, config).array[0]
        h2 = enc.encode_views([random_view(rng, config)], params, config).array[0]
        np.testing.assert_array_equal(h1, h2)

    def test_permutation_equivariance(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=15)
        rng = np.random.default_rng(16)
        views = [random_view(rng, config) for _ in range(4)]
        base = enc.encode_views(views, params, config).array
        perm = [2, 0, 3, 1]
        permuted = enc.encode_views([views[i] for i in perm], params, config).array
        for out_row, src in zip(permuted, perm):
            np.testing.assert_array_equal(out_row, base[src])

    def test_modality_ablation_changes_output(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=17)
        rng = np.random.default_rng(18)
        view = random_view(rng, config)
        both = enc.encode_views([view], params, config).array[0]
        image_only = enc.encode_views([view], params, config, modality="image-only").array[0]
        pointmap_only = enc.encode_views([view], params, config, modality="pointmap-only").array[0]
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
                h = enc.encode_views([view], params, config)
                return E.reduce_sum(E.mul(h, E.Tensor(probe)))

            return f

        for name, tensor in [
            ("phi_p.weight", params.phi_p_weight),
            ("cls_token", params.cls_token),
            ("blocks.0.attn.wq", params.blocks[0].wq),
            ("final_ln.gamma", params.final_gamma),
        ]:
            err = E.finite_diff_check(loss_for(tensor), tensor, h=1e-5)
            assert err <= 1e-4, name

    def test_empty_view_list_rejected(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=21)
        with pytest.raises(DegenerateInputError):
            enc.encode_views([], params, config)


def oracle_encode_view(image, points, params, config, modality="both"):
    """The per-view encoder: one graph per view, one op chain per head.

    Batched ``encode_views`` must match it byte for byte, in embeddings
    and in every gradient that reaches the parameters.
    """
    image_patches, point_patches = enc.patchify(image, points, config.patch_size)
    if modality == "image-only":
        point_patches = np.zeros_like(point_patches)
    elif modality == "pointmap-only":
        image_patches = np.zeros_like(image_patches)
    z_image = E.add(
        E.add(E.matmul(E.Tensor(image_patches), params.phi_i_weight), params.phi_i_bias),
        params.pos_embedding,
    )
    z_points = E.add(E.matmul(E.Tensor(point_patches), params.phi_p_weight), params.phi_p_bias)
    x = E.concat([params.cls_token, E.add(z_image, z_points)], axis=0)
    head_dim = config.embed_dim // config.num_heads
    for blk in params.blocks:
        h = E.layer_norm(x, blk.ln1_gamma, blk.ln1_beta)
        q = E.add(E.matmul(h, blk.wq), blk.bq)
        k = E.add(E.matmul(h, blk.wk), blk.bk)
        v = E.add(E.matmul(h, blk.wv), blk.bv)
        heads = []
        for head in range(config.num_heads):
            start = head * head_dim
            qh = E.narrow(q, 1, start, head_dim)
            kh = E.narrow(k, 1, start, head_dim)
            vh = E.narrow(v, 1, start, head_dim)
            scores = E.scale(E.matmul(qh, E.transpose(kh)), 1.0 / math.sqrt(head_dim))
            heads.append(E.matmul(softmax(scores, axis=-1), vh))
        attended = E.add(E.matmul(E.concat(heads, axis=1), blk.wo), blk.bo)
        x = E.add(x, attended)
        h = E.layer_norm(x, blk.ln2_gamma, blk.ln2_beta)
        hidden = E.gelu(E.add(E.matmul(h, blk.w_up), blk.b_up))
        x = E.add(x, E.add(E.matmul(hidden, blk.w_down), blk.b_down))
    x = E.layer_norm(x, params.final_gamma, params.final_beta)
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
    return E.add(total, E.reduce_sum(E.mul(enc.pool_scene(rows), E.Tensor(rng.normal(size=(1, d))))))


def encoded_bytes(encode, views, config, modality="both", seed=0):
    """Embedding bytes and every parameter's gradient bytes after one backward."""
    params = enc.init_encoder_params(config, seed=seed)
    rows = encode(views, params, config, modality)
    E.backward(mixing_loss(rows, seed))
    grads = {name: (t.grad.tobytes() if t.grad is not None else None)
             for name, t in params.named_parameters()}
    return [r.tobytes() for r in rows.array], grads


def batched(views, params, config, modality):
    return enc.encode_views(views, params, config, modality=modality)


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
        got = encoded_bytes(batched, views, config, modality)
        want = encoded_bytes(per_view, views, config, modality)
        assert got[0] == want[0]
        assert got[1].keys() == want[1].keys()
        for name in want[1]:
            assert got[1][name] == want[1][name], name
        text_only = {"text.table", "text.weight", "text.bias"}
        assert all(want[1][name] is not None for name in want[1] if name not in text_only)

    def test_permuted_order_matches_oracle(self):
        config = tiny_config(num_heads=4)
        rng = np.random.default_rng(200)
        views = [random_view(rng, config) for _ in range(6)]
        permuted = [views[i] for i in [4, 1, 5, 0, 3, 2]]
        got = encoded_bytes(batched, permuted, config)
        want = encoded_bytes(per_view, permuted, config)
        assert got == want
        unpermuted = encoded_bytes(batched, views, config)
        assert [got[0][j] for j in np.argsort([4, 1, 5, 0, 3, 2])] == unpermuted[0]

    def test_default_config_matches_oracle(self):
        config = EncoderConfig()
        rng = np.random.default_rng(300)
        views = [random_view(rng, config) for _ in range(8)]
        got = encoded_bytes(batched, views, config, seed=21)
        want = encoded_bytes(per_view, views, config, seed=21)
        assert got == want

    def test_forward_without_grad_matches_oracle(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=31)
        rng = np.random.default_rng(32)
        views = [random_view(rng, config) for _ in range(3)]
        with E.no_grad():
            rows = enc.encode_views(views, params, config)
        assert not rows.requires_grad
        for row, (img, pts) in zip(rows.array, views):
            assert row.tobytes() == oracle_encode_view(img, pts, params, config).array[0].tobytes()


class TestPoolScene:
    def test_single_view_passthrough(self):
        row = E.Tensor(np.eye(1, 5))
        pooled = enc.pool_scene(row)
        np.testing.assert_allclose(pooled.array, row.array, atol=1e-12)

    def test_two_basis_vectors(self):
        e1 = np.eye(1, 4, 0)
        e2 = np.eye(1, 4, 1)
        pooled = enc.pool_scene(E.Tensor(np.concatenate([e1, e2]))).array
        expected = (e1 + e2) / np.sqrt(2.0)
        np.testing.assert_allclose(pooled, expected, atol=1e-12)

    def test_antipodal_views_degenerate(self):
        e1 = np.eye(1, 4, 0)
        with pytest.raises(DegenerateInputError):
            enc.pool_scene(E.Tensor(np.concatenate([e1, -e1])))

    def test_empty_scene_rejected(self):
        with pytest.raises(DegenerateInputError):
            enc.pool_scene(E.Tensor(np.zeros((0, 4))))


class TestTextEncoder:
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


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=26)
        extra = E.Tensor(np.array([0.125]), requires_grad=True)
        path = tmp_path / "model.upm"
        enc.save_checkpoint(path, params, config, extras=[("temperature.log_tau", extra)])
        loaded, loaded_config, extras = enc.load_checkpoint(path)
        assert loaded_config == config
        for (name_a, t_a), (name_b, t_b) in zip(
            params.named_parameters(), loaded.named_parameters()
        ):
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
        field = f"patch_size={config.patch_size}".encode()
        assert field in blob
        # Same-length edits keep the record length, so only the record is bad.
        for bad in (b"patch_size=" + b"x" * (len(field) - 11), field.replace(b"=", b"_")):
            path.write_bytes(blob.replace(field, bad))
            with pytest.raises(FormatError, match="config"):
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
        path = self.edited(tmp_path, b"patch_size=4", b"patch_size=\xff")
        with pytest.raises(FormatError, match="config record is not UTF-8"):
            enc.load_checkpoint(path)

    def test_non_utf8_tensor_name_rejected(self, tmp_path):
        path = self.edited(tmp_path, b"phi_i.weight", b"phi_i.\xffeight")
        with pytest.raises(FormatError, match="tensor name is not UTF-8"):
            enc.load_checkpoint(path)

    def test_zero_patch_size_record_rejected(self, tmp_path):
        path = self.edited(tmp_path, b"patch_size=4", b"patch_size=0")
        with pytest.raises(FormatError, match="patch_size must be positive"):
            enc.load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=28)
        path = tmp_path / "model.upm"
        enc.save_checkpoint(path, params, config)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="truncated"):
            enc.load_checkpoint(path)
