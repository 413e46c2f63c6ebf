"""Tests for the early-fusion view encoder, text encoder, and checkpoints."""

import numpy as np
import pytest

from upm import encoder as enc
from upm import engine as E
from upm.encoder import EncoderConfig
from upm.errors import ConfigError, DegenerateInputError, FormatError, ShapeError
from upm.geometry import Pointmap


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


def random_view(rng, config, invalid_fraction=0.2):
    size = config.image_size
    image = rng.uniform(0.0, 1.0, size=(size, size, 3))
    points = rng.normal(size=(size, size, 3))
    validity = rng.random((size, size)) > invalid_fraction
    points = points * validity[:, :, None]
    return image, Pointmap(points=points, validity=validity)


class TestConfig:
    def test_patch_count(self):
        assert tiny_config().num_patches == 4
        assert EncoderConfig().num_patches == 16

    def test_divisibility_checks(self):
        with pytest.raises(ConfigError):
            tiny_config(image_size=10)
        with pytest.raises(ConfigError):
            tiny_config(embed_dim=15)

    def test_paper_preset_matches_vit_b16(self):
        cfg = enc.paper_encoder_config()
        assert cfg.image_size == 224 and cfg.patch_size == 16
        assert cfg.num_patches == 196


class TestPatchify:
    def test_single_patch_collects_everything(self):
        rng = np.random.default_rng(0)
        image = rng.uniform(size=(4, 4, 3))
        pm = Pointmap(points=rng.normal(size=(4, 4, 3)), validity=np.ones((4, 4), bool))
        ip, pp = enc.patchify(image, pm, patch_size=4)
        assert ip.shape == (1, 48) and pp.shape == (1, 48)
        np.testing.assert_array_equal(ip[0], image.reshape(-1))

    def test_raster_order(self):
        image = np.zeros((8, 8, 3))
        image[:4, :4] = 1.0  # top-left block
        pm = Pointmap(points=np.zeros((8, 8, 3)), validity=np.ones((8, 8), bool))
        ip, _ = enc.patchify(image, pm, patch_size=4)
        assert ip.shape == (4, 48)
        np.testing.assert_array_equal(ip[0], np.ones(48))
        np.testing.assert_array_equal(ip[1:], np.zeros((3, 48)))

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        image = rng.uniform(size=(8, 8, 3))
        pm = Pointmap(points=rng.normal(size=(8, 8, 3)), validity=np.ones((8, 8), bool))
        ip, _ = enc.patchify(image, pm, patch_size=4)
        np.testing.assert_array_equal(enc.unpatchify(ip, 8, 4), image)

    def test_invalid_pixels_zeroed(self):
        rng = np.random.default_rng(2)
        junk = rng.normal(size=(4, 4, 3))  # invalid entries may hold junk
        pm = Pointmap(points=junk, validity=np.zeros((4, 4), bool))
        _, pp = enc.patchify(np.zeros((4, 4, 3)), pm, patch_size=4)
        np.testing.assert_array_equal(pp, np.zeros((1, 48)))

    def test_misaligned_shapes_rejected(self):
        pm = Pointmap(points=np.zeros((4, 4, 3)), validity=np.ones((4, 4), bool))
        with pytest.raises(ShapeError):
            enc.patchify(np.zeros((8, 8, 3)), pm, patch_size=4)


class TestEmbedView:
    def test_zero_inputs_expose_biases_and_positional_rows(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=3)
        params.phi_i_bias.array[:] = 0.25
        params.phi_p_bias.array[:] = 0.5
        m = config.num_patches
        zeros = np.zeros((m, config.patch_dim))
        tokens = enc.embed_view(zeros, zeros, params)
        assert tokens.shape == (m + 1, config.embed_dim)
        np.testing.assert_array_equal(tokens.array[0], params.cls_token.array[0])
        expected = params.pos_embedding.array + 0.75
        np.testing.assert_allclose(tokens.array[1:], expected, atol=1e-12)

    def test_zeroed_point_projection_reduces_to_image_path(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=4)
        params.phi_p_weight.array[:] = 0.0
        params.phi_p_bias.array[:] = 0.0
        rng = np.random.default_rng(5)
        ip = rng.normal(size=(config.num_patches, config.patch_dim))
        pp = rng.normal(size=(config.num_patches, config.patch_dim))
        tokens = enc.embed_view(ip, pp, params)
        image_only = (
            ip @ params.phi_i_weight.array
            + params.phi_i_bias.array
            + params.pos_embedding.array
        )
        np.testing.assert_allclose(tokens.array[1:], image_only, atol=1e-12)

    def test_fused_rows_componentwise(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=6)
        rng = np.random.default_rng(7)
        ip = rng.normal(size=(config.num_patches, config.patch_dim))
        pp = rng.normal(size=(config.num_patches, config.patch_dim))
        tokens = enc.embed_view(ip, pp, params)
        for m in range(config.num_patches):
            image_row = ip[m] @ params.phi_i_weight.array + params.phi_i_bias.array
            point_row = pp[m] @ params.phi_p_weight.array + params.phi_p_bias.array
            expected = image_row + params.pos_embedding.array[m] + point_row
            np.testing.assert_allclose(tokens.array[m + 1], expected, atol=1e-12)

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
        h1 = enc.encode_view(*view, params, config)
        h2 = enc.encode_view(*view, params, config)
        assert abs(np.linalg.norm(h1.array) - 1.0) <= 1e-9
        np.testing.assert_array_equal(h1.array, h2.array)

    def test_identical_views_identical_embeddings(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=11)
        rng = np.random.default_rng(12)
        view = random_view(rng, config)
        out = enc.encode_views([view, view], params, config)
        np.testing.assert_array_equal(out[0].array, out[1].array)

    def test_zero_blocks_ignore_patch_content(self):
        config = tiny_config(num_blocks=0)
        params = enc.init_encoder_params(config, seed=13)
        rng = np.random.default_rng(14)
        h1 = enc.encode_view(*random_view(rng, config), params, config)
        h2 = enc.encode_view(*random_view(rng, config), params, config)
        np.testing.assert_array_equal(h1.array, h2.array)

    def test_permutation_equivariance(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=15)
        rng = np.random.default_rng(16)
        views = [random_view(rng, config) for _ in range(4)]
        base = [h.array for h in enc.encode_views(views, params, config)]
        perm = [2, 0, 3, 1]
        permuted = enc.encode_views([views[i] for i in perm], params, config)
        for out_row, src in zip(permuted, perm):
            np.testing.assert_array_equal(out_row.array, base[src])

    def test_modality_ablation_changes_output(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=17)
        rng = np.random.default_rng(18)
        view = random_view(rng, config)
        both = enc.encode_view(*view, params, config).array
        image_only = enc.encode_view(*view, params, config, modality="image-only").array
        pointmap_only = enc.encode_view(*view, params, config, modality="pointmap-only").array
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
                h = enc.encode_view(*view, params, config)
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


class TestPoolScene:
    def test_single_view_passthrough(self):
        row = E.Tensor(np.eye(1, 5))
        pooled = enc.pool_scene([row])
        np.testing.assert_allclose(pooled.array, row.array, atol=1e-12)

    def test_two_basis_vectors(self):
        e1 = E.Tensor(np.eye(1, 4, 0))
        e2 = E.Tensor(np.eye(1, 4, 1))
        pooled = enc.pool_scene([e1, e2]).array
        expected = (e1.array + e2.array) / np.sqrt(2.0)
        np.testing.assert_allclose(pooled, expected, atol=1e-12)

    def test_antipodal_views_degenerate(self):
        e1 = E.Tensor(np.eye(1, 4, 0))
        with pytest.raises(DegenerateInputError):
            enc.pool_scene([e1, E.neg(e1)])

    def test_empty_scene_rejected(self):
        with pytest.raises(DegenerateInputError):
            enc.pool_scene([])


class TestTextEncoder:
    def test_deterministic(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=22)
        a = enc.encode_text("the red chair near the blue table", params, config).array
        b = enc.encode_text("the red chair near the blue table", params, config).array
        np.testing.assert_array_equal(a, b)

    def test_empty_string_uses_reserved_token(self):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=23)
        emb = enc.encode_text("", params, config).array
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

    def test_truncated_file_rejected(self, tmp_path):
        config = tiny_config()
        params = enc.init_encoder_params(config, seed=28)
        path = tmp_path / "model.upm"
        enc.save_checkpoint(path, params, config)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="truncated"):
            enc.load_checkpoint(path)
