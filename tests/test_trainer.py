"""Tests for the optimizer, schedule, and training loop."""

import dataclasses
import hashlib
import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from upm import data as D
from upm import engine as E
from upm import objectives as obj
from upm import trainer
from upm.encoder import (EncoderConfig, encode_texts, encode_views, init_encoder_params,
                         load_checkpoint, pool_scene)
from upm.engine import Tensor, trace_graph
from upm.errors import ConfigError, ContractError, NumericError
from upm.objectives import Temperature
from upm.trainer import (
    TELEMETRY_HEADER,
    TEMPERATURE_KEY,
    OptimizerState,
    TrainConfig,
    adamw_step,
    batch_loss,
    clip_gradients,
    cosine_lr,
    paper_train_config,
    prepare_scene,
    train,
    train_step,
)
from tests.conftest import TINY_ENCODER, TINY_TRAIN
from tests.test_objectives import oracle_off_diagonal_soft_xent


class TestCosineLr:
    def test_end_of_warmup_hits_base(self):
        assert cosine_lr(10, 100, 1e-3, 0.1) == pytest.approx(1e-3)

    def test_final_step_is_zero(self):
        assert cosine_lr(100, 100, 1e-3, 0.1) == pytest.approx(0.0, abs=1e-18)

    def test_decay_midpoint_is_half(self):
        assert cosine_lr(55, 100, 1e-3, 0.1) == pytest.approx(5e-4)

    def test_warmup_is_linear(self):
        assert cosine_lr(0, 100, 1e-3, 0.1) == 0.0
        assert cosine_lr(5, 100, 1e-3, 0.1) == pytest.approx(5e-4)

    def test_no_warmup(self):
        assert cosine_lr(0, 100, 1e-3, 0.0) == pytest.approx(1e-3)

    def test_step_out_of_range(self):
        with pytest.raises(ContractError):
            cosine_lr(101, 100, 1e-3, 0.1)


def oracle_adamw_step(named_params, state, lr, beta1=0.9, beta2=0.98, weight_decay=0.0,
                      eps=1e-8, no_decay=frozenset({TEMPERATURE_KEY})):
    """AdamW as one numpy expression per quantity, allocating as it goes."""
    state.step += 1
    t = state.step
    for name, tensor in named_params:
        grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.array)
        if not np.isfinite(grad).all():
            raise NumericError(f"non-finite gradient in parameter {name}")
        m = state.first_moment.setdefault(name, np.zeros_like(tensor.array))
        v = state.second_moment.setdefault(name, np.zeros_like(tensor.array))
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        update = m_hat / (np.sqrt(v_hat) + eps)
        if weight_decay and name not in no_decay:
            update = update + weight_decay * tensor.array
        tensor.array -= lr * update


def adamw(named_params, state, lr, **hyper):
    """``adamw_step`` at ``TrainConfig``'s betas and no weight decay, unless ``hyper`` sets them."""
    hyper = {"beta1": 0.9, "beta2": 0.98, "weight_decay": 0.0, **hyper}
    adamw_step(named_params, state, lr, **hyper)


def optimizer_snapshot(tensors, state):
    """The bytes of the parameters and of every moment, and ``state.step``."""
    return ([t.array.tobytes() for t in tensors], state.step,
            [{name: a.tobytes() for name, a in kind.items()}
             for kind in (state.first_moment, state.second_moment)])


class TestAdamw:
    def one_param(self, value=1.0, grad=None):
        t = Tensor(np.array([value]), requires_grad=True)
        if grad is not None:
            t.grad = np.array([grad])
        return t

    def test_zero_grad_zero_decay_is_identity(self):
        t = self.one_param(2.5, grad=0.0)
        adamw([("w", t)], OptimizerState(), lr=0.1, weight_decay=0.0)
        assert t.array[0] == 2.5

    def test_single_step_matches_scalar_oracle(self):
        # With g=1 the bias-corrected ratio is 1/(1+ADAM_EPS) at step one.
        t = self.one_param(0.0, grad=1.0)
        adamw([("w", t)], OptimizerState(), lr=0.01, weight_decay=0.0)
        expected = -0.01 * (1.0 / (1.0 + 1e-8))
        assert t.array[0] == pytest.approx(expected, rel=1e-12)

    def test_decoupled_decay_only(self):
        t = self.one_param(4.0, grad=0.0)
        state = OptimizerState()
        for _ in range(3):
            adamw([("w", t)], state, lr=0.1, weight_decay=0.5)
        assert t.array[0] == pytest.approx(4.0 * (1 - 0.1 * 0.5) ** 3, rel=1e-12)

    def test_temperature_excluded_from_decay(self):
        t = self.one_param(2.0, grad=0.0)
        adamw([(TEMPERATURE_KEY, t)], OptimizerState(), lr=0.1, weight_decay=0.5)
        assert t.array[0] == 2.0

    def test_non_finite_gradient_aborts_with_name(self):
        t = self.one_param(1.0, grad=float("nan"))
        with pytest.raises(NumericError, match="attn.wq"):
            adamw([("blocks.0.attn.wq", t)], OptimizerState(), lr=0.1)

    def test_seeded_sequence_matches_oracle_bytewise(self):
        # Shapes repeat; one parameter never gets a gradient and one is
        # excluded from decay.
        rng = np.random.default_rng(17)
        shapes = {"a": (6, 4), "b": (6, 4), "c": (4,), "d": (1,), TEMPERATURE_KEY: (1,),
                  "never": (3, 2)}
        values = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        runs = []
        for step_fn in (adamw_step, oracle_adamw_step):
            named = [(name, Tensor(v.copy(), requires_grad=True)) for name, v in values.items()]
            runs.append((step_fn, named, OptimizerState()))
        for step in range(8):
            grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
                     for name, shape in shapes.items() if name != "never"}
            lr = float(rng.uniform(1e-4, 1e-1))
            for step_fn, named, state in runs:
                for name, tensor in named:
                    tensor.grad = grads[name].copy() if name in grads else None
                step_fn(named, state, lr, beta1=0.85, beta2=0.97, weight_decay=0.05)
            (_, named, state), (_, o_named, o_state) = runs
            assert state.step == o_state.step == step + 1
            for (name, tensor), (_, o_tensor) in zip(named, o_named):
                assert tensor.array.tobytes() == o_tensor.array.tobytes(), (step, name)
                if name == "never":  # no gradient yet, so no moments: the oracle's are zeros
                    assert name not in state.first_moment and name not in state.second_moment
                    assert not o_state.first_moment[name].any()
                    assert not o_state.second_moment[name].any()
                    continue
                assert state.first_moment[name].tobytes() == o_state.first_moment[name].tobytes()
                assert state.second_moment[name].tobytes() == o_state.second_moment[name].tobytes()

    def test_non_finite_gradient_changes_nothing(self):
        # After one real step, so there are moments to keep; the
        # non-finite gradient belongs to the last parameter, which the
        # update reaches after the other.
        first, second = Tensor(np.ones(3), requires_grad=True), Tensor(np.ones((5, 2)), requires_grad=True)
        named = [("w", first), ("v", second)]
        state = OptimizerState()
        first.grad, second.grad = np.full(3, 0.5), np.ones((5, 2))
        adamw(named, state, lr=0.1, weight_decay=0.01)
        before = optimizer_snapshot([first, second], state)
        second.grad = np.zeros((5, 2))
        second.grad[3, 1] = np.nan
        with pytest.raises(NumericError, match="parameter v"):
            adamw(named, state, lr=0.1, weight_decay=0.01)
        assert optimizer_snapshot([first, second], state) == before

    @pytest.mark.parametrize("name,value", [
        ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("beta2", math.nan),
        ("lr", -1e-3), ("lr", -0.0), ("lr", math.nan), ("lr", math.inf),
        ("weight_decay", math.inf), ("weight_decay", math.nan),
    ])
    def test_out_of_range_hyperparameter_rejected(self, name, value):
        t = self.one_param(1.0, grad=1.0)
        kwargs = {"lr": 0.1, name: value}
        with pytest.raises(ContractError, match=name):
            adamw([("w", t)], OptimizerState(), **kwargs)
        assert t.array[0] == 1.0

    def test_missing_grad_treated_as_zero(self):
        t = self.one_param(3.0)
        adamw([("w", t)], OptimizerState(), lr=0.1, weight_decay=0.0)
        assert t.array[0] == 3.0


class TestClipGradients:
    def test_large_gradients_rescaled(self):
        t = Tensor(np.zeros(4), requires_grad=True)
        t.grad = np.full(4, 10.0)
        norm = clip_gradients([("w", t)], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(t.grad) == pytest.approx(1.0)

    def test_small_gradients_untouched(self):
        t = Tensor(np.zeros(2), requires_grad=True)
        t.grad = np.array([0.1, 0.2])
        clip_gradients([("w", t)], max_norm=1.0)
        np.testing.assert_array_equal(t.grad, [0.1, 0.2])

    def test_non_finite_norm_raises_before_scaling(self):
        ok, bad = Tensor(np.zeros(2), requires_grad=True), Tensor(np.zeros(2), requires_grad=True)
        ok.grad, bad.grad = np.array([3.0, 4.0]), np.array([np.inf, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="inf"):
                clip_gradients([("a", ok), ("b", bad)], max_norm=1.0)
        np.testing.assert_array_equal(ok.grad, [3.0, 4.0])
        np.testing.assert_array_equal(bad.grad, [np.inf, 0.0])

    def test_zero_max_norm_does_not_clip(self):
        t = Tensor(np.zeros(2), requires_grad=True)
        t.grad = np.array([30.0, 40.0])
        assert clip_gradients([("w", t)], max_norm=0.0) == 50.0
        np.testing.assert_array_equal(t.grad, [30.0, 40.0])


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(warmup_fraction=1.0)
        with pytest.raises(ConfigError, match="two views"):
            TrainConfig(views_per_scene=1)
        assert TrainConfig(views_per_scene=1, use_geo=False).views_per_scene == 1

    def test_every_objective_off_rejected(self):
        # With all four off the total is an untracked constant: backward
        # touches no gradient and AdamW would only decay the weights.
        off = dict(use_geo=False, use_ground=False, use_view=False, use_scene=False)
        with pytest.raises(ConfigError, match="no objective"):
            TrainConfig(**off)
        for name in off:
            assert getattr(TrainConfig(**{**off, name: True}), name)

    @pytest.mark.parametrize("name,value", [
        ("beta1", 1.0), ("beta1", -0.1), ("beta1", math.nan), ("beta2", 1.0), ("beta2", -1e-3),
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("weight_decay", -0.01), ("weight_decay", math.inf), ("weight_decay", math.nan),
        ("chamfer_subsample", 0),
        ("grad_clip", math.nan), ("grad_clip", -1.0),
        ("initial_tau", math.nan), ("initial_tau", 5e-4), ("initial_tau", 101.0),
    ])
    def test_out_of_range_field_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            TrainConfig(**{name: value})

    def test_paper_preset(self):
        cfg = paper_train_config()
        assert cfg.epochs == 80
        assert cfg.scenes_per_batch == 64
        assert cfg.views_per_scene == 32
        assert cfg.learning_rate == pytest.approx(1e-4)
        assert (cfg.beta1, cfg.beta2) == (0.9, 0.98)


class TestPrepareScene:
    def test_caps_view_budget_with_warning(self, caplog):
        scene = D.generate_scene(
            D.SceneSpec(scene_type="office", view_count=4, image_size=24, object_count=(1, 2)),
            seed=0,
        )
        cfg = TrainConfig(views_per_scene=9, chamfer_subsample=64)
        import logging

        with caplog.at_level(logging.WARNING):
            prepared = prepare_scene(scene, cfg)
        assert len(prepared.images) == len(prepared.points) == 4
        assert any("capping" in r.message for r in caplog.records)

    def test_targets_and_pairs_shapes(self):
        scene = D.generate_scene(
            D.SceneSpec(scene_type="kitchen", view_count=6, image_size=24), seed=1
        )
        cfg = TrainConfig(views_per_scene=4, chamfer_subsample=64)
        prepared = prepare_scene(scene, cfg)
        assert prepared.geo_targets.shape == (4, 3)
        np.testing.assert_allclose(prepared.geo_targets.sum(axis=1), 1.0, atol=1e-12)
        assert prepared.visible.shape == (4, len(prepared.object_texts))
        assert prepared.visible.dtype == bool and prepared.visible.any()
        # perfbench's window: the true cells as (view, object) ints, row-major.
        cells = [(v, o) for v in range(4) for o in range(len(prepared.object_texts))
                 if prepared.visible[v, o]]
        assert prepared.pairs == cells
        assert all(type(i) is int for pair in prepared.pairs for i in pair)

    def test_default_outputs_pinned(self):
        # Chosen views, geo-target bytes and pairs of four default scenes, as
        # produced by the exhaustive-scan Chamfer and set-based coverage code.
        h = hashlib.sha256()
        for i in range(4):
            scene = D.generate_scene(D.SceneSpec(scene_type=D.SCENE_TYPES[i % 4], seed=7), seed=i)
            prepared = prepare_scene(scene, TrainConfig())
            index_of = {}
            for k, image in enumerate(scene.images):
                index_of.setdefault(image.tobytes(), k)
            chosen = [index_of[image.tobytes()] for image in prepared.images]
            targets = prepared.geo_targets
            h.update(repr((chosen, targets.shape, prepared.pairs)).encode())
            h.update(targets.tobytes())
        assert h.hexdigest() == "de82596fc035b9ce2f72f2d40675d347eaae1479ffcc2571ad7db216d4e634e3"


def oracle_batch_loss(batch, params, enc_cfg, temperature, cfg):
    """The four losses scene by scene, as batch_loss built them before its block masks.

    Each scene takes a fresh narrow of the view rows per loss, its own (V, V)
    geometric logits through the per-row graph, and its own text-tower call
    and grounded loss when it has visible pairs, weighted by their count; each
    scene pools on its own.
    """
    zero = Tensor(np.zeros(1))
    views = encode_views(np.concatenate([scene.images for scene in batch]),
                         np.concatenate([scene.points for scene in batch]), params, enc_cfg)
    counts = [len(scene.images) for scene in batch]
    spans = list(zip(np.cumsum([0] + counts[:-1]).tolist(), counts))

    l_geo = zero
    if cfg.use_geo:
        for scene, span in zip(batch, spans):
            h = E.narrow(views, 0, *span)
            logits = E.mul(E.matmul(h, E.transpose(h)), temperature.inverse())
            l_geo = E.add(l_geo, oracle_off_diagonal_soft_xent(logits, scene.geo_targets))

    l_ground = zero
    if cfg.use_ground:
        weighted, total_pairs = zero, 0
        for scene, span in zip(batch, spans):
            if scene.visible.any():
                texts = encode_texts(scene.object_texts, params, enc_cfg)
                rows = E.narrow(views, 0, *span)
                term = obj.ground_loss(rows, texts, [scene.visible], temperature)
                weighted = E.add(weighted, E.scale(term, float(scene.visible.sum())))
                total_pairs += int(scene.visible.sum())
        if total_pairs:
            l_ground = E.scale(weighted, 1.0 / total_pairs)

    captions = encode_texts([c for scene in batch for c in scene.view_captions], params, enc_cfg)
    l_view = obj.view_loss(views, captions, temperature)
    pooled = E.concat([pool_scene(E.narrow(views, 0, *span), [span[1]]) for span in spans])
    scene_captions = encode_texts([s.scene_caption for s in batch], params, enc_cfg)
    l_scene = obj.scene_loss(pooled, scene_captions, temperature)
    return obj.total_loss(l_geo, l_ground, l_view, l_scene)


def default_batch(first_seed):
    cfg = TrainConfig()
    scenes = [D.generate_scene(D.SceneSpec(scene_type=D.SCENE_TYPES[i]), seed=first_seed + i)
              for i in range(cfg.scenes_per_batch)]
    return [prepare_scene(scene, cfg) for scene in scenes], EncoderConfig(), cfg


def pairless_batch():
    """Small scenes: one with objects but no view seeing them, and one with no objects at all."""
    cfg = TrainConfig(views_per_scene=4, chamfer_subsample=64)
    specs = [D.SceneSpec(scene_type=kind, view_count=6, image_size=24, object_count=count)
             for kind, count in (("office", (2, 4)), ("kitchen", (2, 4)), ("bedroom", (2, 4)),
                                 ("office", (0, 0)))]
    batch = [prepare_scene(D.generate_scene(spec, seed=40 + i), cfg) for i, spec in enumerate(specs)]
    batch[1] = dataclasses.replace(batch[1], visible=np.zeros_like(batch[1].visible))
    assert batch[0].visible.any() and batch[2].visible.any() and not batch[3].object_texts
    return batch, TINY_ENCODER, cfg


class TestBatchLoss:
    @pytest.fixture(scope="class")
    def default_batch_seed0(self):
        return default_batch(0)

    def test_default_step_graph_is_small(self, default_batch_seed0):
        # 4 scenes x 8 views encode as one stacked graph to one (32, d) tensor,
        # and each loss is one graph over it, whatever the scene count: the
        # geometric and grounded losses mask their logits to each scene's
        # block and the scenes pool in one matmul.  The last encoder block
        # narrows its input and its first layer norm to the class-token row,
        # the encoder's trailing narrow is gone, each of the 17 biased
        # projections is one linear node, and the fixed text table's pooled
        # rows enter as constants: 132 nodes.  One narrow per scene and use,
        # with the per-scene losses added up, made 250.
        batch, enc_cfg, cfg = default_batch_seed0
        assert sum(len(p.images) for p in batch) == 32
        params = init_encoder_params(enc_cfg, seed=0)
        breakdown = batch_loss(batch, params, enc_cfg, Temperature(cfg.initial_tau), cfg)
        assert len(trace_graph(breakdown.total)) <= 140

    def test_default_step_adopts_the_gradients_its_rules_allocate(self, default_batch_seed0,
                                                                  monkeypatch):
        # A backward rule hands _accumulate the arrays it allocated, and a
        # first accumulation adopts them as .grad.  It still copies where g
        # is a view of the node's own gradient (add, reshape, transpose,
        # concat, broadcast_to, and the bias and beta sums over no axis) or
        # not C-contiguous (attention's key gradient): 53 copies against 78
        # adoptions in this step.
        batch, enc_cfg, cfg = default_batch_seed0
        params = init_encoder_params(enc_cfg, seed=0)
        real_accumulate = E._accumulate
        firsts = []

        def accumulate(t, g, owned=False):
            first = t.grad is None
            real_accumulate(t, g, owned)
            if first:
                firsts.append(t.grad is g)

        monkeypatch.setattr(E, "_accumulate", accumulate)
        breakdown = batch_loss(batch, params, enc_cfg, Temperature(cfg.initial_tau), cfg)
        E.backward(breakdown.total)
        assert firsts.count(False) <= 54

    def test_default_step_reaches_every_parameter(self, default_batch_seed0):
        # A parameter-table entry that the forward never reads would be
        # saved, loaded and decayed, but never trained.
        batch, enc_cfg, cfg = default_batch_seed0
        params = init_encoder_params(enc_cfg, seed=0)
        E.backward(batch_loss(batch, params, enc_cfg, Temperature(cfg.initial_tau), cfg).total)
        assert [name for name, t in params.named_parameters() if t.grad is None] == []

    def test_default_step_traced_peak(self, default_batch_seed0):
        # Traced from before the first step, so AdamW's moments count; the
        # second step peaks mid-backward, at 17.3 MB with the text table
        # fixed.  A trained (4096, 64) table with a dense gradient and dense
        # moments made it 23.6 MB.
        batch, enc_cfg, cfg = default_batch_seed0
        params = init_encoder_params(enc_cfg, seed=0)
        temperature = Temperature(cfg.initial_tau)
        state = OptimizerState()
        tracemalloc.start()
        try:
            train_step(batch, params, enc_cfg, temperature, state, cfg, 1e-4)
            tracemalloc.reset_peak()
            train_step(batch, params, enc_cfg, temperature, state, cfg, 1e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_graph_size_independent_of_scene_count(self, default_batch_seed0):
        batch, enc_cfg, cfg = default_batch_seed0
        params = init_encoder_params(enc_cfg, seed=0)
        sizes = {len(trace_graph(batch_loss(batch[:n], params, enc_cfg, Temperature(), cfg).total))
                 for n in (1, 2, 4)}
        assert len(sizes) == 1

    def assert_matches_oracle(self, batch, enc_cfg, cfg, seed, tau):
        runs = []
        for build in (batch_loss, oracle_batch_loss):
            params = init_encoder_params(enc_cfg, seed=seed)
            temperature = Temperature(tau)
            breakdown = build(batch, params, enc_cfg, temperature, cfg)
            E.backward(breakdown.total)
            named = list(params.named_parameters()) + [(TEMPERATURE_KEY, temperature.log_tau)]
            runs.append((breakdown.values(), {name: t.grad for name, t in named}))
        (values, grads), (o_values, o_grads) = runs
        for key, value in o_values.items():
            assert abs(values[key] - value) <= 1e-12 * abs(value), key
        # Relative to the step's largest |grad|: attn.bk's true gradient is 0.
        largest = max(np.abs(g).max() for g in o_grads.values() if g is not None)
        for name, o_grad in o_grads.items():
            grad = grads[name]
            if o_grad is None:
                assert grad is None or not grad.any(), name
            else:
                assert np.abs(grad - o_grad).max() <= 1e-12 * largest, name

    def test_default_batch_matches_per_scene_oracle(self, default_batch_seed0):
        self.assert_matches_oracle(*default_batch_seed0, seed=0, tau=0.07)

    def test_second_default_batch_matches_per_scene_oracle(self):
        self.assert_matches_oracle(*default_batch(4), seed=1, tau=0.2)

    def test_pairless_scenes_match_oracle_and_warn_once_each(self, caplog):
        batch, enc_cfg, cfg = pairless_batch()
        self.assert_matches_oracle(batch, enc_cfg, cfg, seed=2, tau=0.1)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="upm.trainer"):
            batch_loss(batch, init_encoder_params(enc_cfg), enc_cfg, Temperature(), cfg)
        assert [r.getMessage() for r in caplog.records] == [
            f"ground loss: scene {batch[i].scene_id} has no visible pairs" for i in (1, 3)]


class TestTrainLoop:
    def test_smoke_run_produces_finite_history(self, tiny_run):
        assert math.isfinite(tiny_run.initial_total)
        assert math.isfinite(tiny_run.final_total)
        assert tiny_run.checkpoint_path.exists()
        assert tiny_run.best_checkpoint_path.exists()

    def test_metrics_identity_and_clamped_tau(self, tiny_run):
        lines = tiny_run.metrics_path.read_text().splitlines()
        assert lines[0].split("\t") == [
            "step", "lr", "l_geo", "l_ground", "l_view", "l_scene", "total", "tau",
        ]
        assert len(lines) - 1 == tiny_run.steps
        for row in lines[1:]:
            fields = row.split("\t")
            l_geo, l_ground, l_view, l_scene, total = map(float, fields[2:7])
            recomputed = 0.1 * l_geo + l_ground + l_view + l_scene
            assert abs(total - recomputed) <= 1e-12
            assert 1e-3 <= float(fields[7]) <= 100.0

    def test_identical_seeds_identical_checkpoints(self, tiny_dataset, tmp_path):
        cfg = TrainConfig(
            epochs=1, scenes_per_batch=2, views_per_scene=3, seed=11, chamfer_subsample=64
        )
        a = train(tiny_dataset, cfg, TINY_ENCODER, tmp_path / "a")
        b = train(tiny_dataset, cfg, TINY_ENCODER, tmp_path / "b")
        assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()
        assert a.metrics_path.read_bytes() == b.metrics_path.read_bytes()
        assert a.telemetry_path.read_bytes() == b.telemetry_path.read_bytes()

    def test_telemetry_rows(self, tiny_run):
        assert TELEMETRY_HEADER == "step\tgrad_norm\tlr\ttau"
        lines = tiny_run.telemetry_path.read_text().splitlines()
        assert lines[0] == TELEMETRY_HEADER
        assert len(lines) - 1 == tiny_run.steps
        metrics = [row.split("\t") for row in tiny_run.metrics_path.read_text().splitlines()[1:]]
        for row, metric in zip(lines[1:], metrics):
            step, grad_norm, lr, tau = row.split("\t")
            assert (step, lr, tau) == (metric[0], metric[1], metric[7])
            assert math.isfinite(float(grad_norm)) and float(grad_norm) > 0.0

    def test_phase_boundaries_logged(self, tiny_dataset, tmp_path, caplog):
        cfg = TrainConfig(epochs=2, scenes_per_batch=4, views_per_scene=3, seed=3,
                          chamfer_subsample=64)
        with caplog.at_level(logging.INFO, logger="upm.trainer"):
            result = train(tiny_dataset, cfg, TINY_ENCODER, tmp_path / "run")
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "upm.trainer" and r.levelno == logging.INFO]
        assert messages[0].startswith("loaded and prepared 10 train and 1 val scenes from ")
        epochs = [m for m in messages if "mean total loss" in m]
        assert [m.split(":")[0] for m in epochs] == ["epoch 1/2", "epoch 2/2"]
        assert all(m.endswith("over 3 steps") for m in epochs)
        assert len([m for m in messages if "validation total" in m]) == 2
        written = [m.removeprefix("wrote checkpoint ") for m in messages if m.startswith("wrote")]
        assert written[-1] == str(result.checkpoint_path)
        assert str(result.best_checkpoint_path) in written
        assert epochs[-1] == f"epoch 2/2: mean total loss {result.final_total!r} over 3 steps"

    def test_checkpoint_carries_temperature(self, tiny_run):
        _, _, extras = load_checkpoint(tiny_run.checkpoint_path)
        assert TEMPERATURE_KEY in extras

    def test_non_finite_loss_raises_before_backward(self, monkeypatch):
        # After one real step, so there are moments to keep.
        batch, enc_cfg, cfg = pairless_batch()
        params = init_encoder_params(enc_cfg, seed=0)
        temperature = Temperature(cfg.initial_tau)
        state = OptimizerState()
        train_step(batch, params, enc_cfg, temperature, state, cfg, 1e-3)
        named = [*params.named_parameters(), (TEMPERATURE_KEY, temperature.log_tau)]

        def snapshot():
            return ([(name, t.array.tobytes()) for name, t in named], state.step,
                     [{name: a.tobytes() for name, a in kind.items()}
                      for kind in (state.first_moment, state.second_moment)])

        before = snapshot()
        real_batch_loss = trainer.batch_loss
        backward_calls = []

        def nan_loss(*args):
            breakdown = real_batch_loss(*args)
            return dataclasses.replace(breakdown, total=E.scale(breakdown.total, math.nan))

        monkeypatch.setattr(trainer, "batch_loss", nan_loss)
        monkeypatch.setattr(E, "backward", backward_calls.append)
        with pytest.raises(NumericError, match="non-finite training loss at step 1"):
            train_step(batch, params, enc_cfg, temperature, state, cfg, 1e-3)
        assert backward_calls == []
        assert state.first_moment and snapshot() == before

    def test_step_record_grad_norm_is_the_telemetry_value(self, tiny_dataset, tmp_path,
                                                          monkeypatch):
        real_train_step = trainer.train_step
        records = []

        def recording_step(*args):
            records.append(real_train_step(*args))
            return records[-1]

        monkeypatch.setattr(trainer, "train_step", recording_step)
        result = train(tiny_dataset, TINY_TRAIN, TINY_ENCODER, tmp_path / "run")
        rows = [row.split("\t") for row in result.telemetry_path.read_text().splitlines()[1:]]
        assert len(records) == len(rows) == result.steps
        assert [row[1] for row in rows] == [repr(record.grad_norm) for record in records]

    def test_rejects_undersized_manifest(self, tiny_dataset, tmp_path):
        cfg = TrainConfig(scenes_per_batch=1000)
        out_dir = tmp_path / "out"
        with pytest.raises(ConfigError, match="training scenes"):
            train(tiny_dataset, cfg, TINY_ENCODER, out_dir)
        assert not out_dir.exists()

    @pytest.fixture(scope="class")
    def default_run(self, tmp_path_factory):
        """A short default-config run: ten 10-view scenes, two epochs, seed 5."""
        root = tmp_path_factory.mktemp("default_run")
        ids = []
        for i in range(10):
            spec = D.SceneSpec(scene_type=D.SCENE_TYPES[i % 4], view_count=10)
            scene = D.generate_scene(spec, seed=100 + i)
            D.save_scene(scene, root / "data" / scene.scene_id)
            ids.append(scene.scene_id)
        D.write_manifest(root / "data" / "manifest.tsv", D.split_dataset(ids, seed=0))
        return train(root / "data" / "manifest.tsv", TrainConfig(epochs=2, seed=5), EncoderConfig(),
                     root / "run")

    def test_default_config_run_pinned(self, default_run):
        # metrics.tsv and both checkpoints of the default-config run, as
        # produced by a text table fixed at its seeded draw, one-GEMM stacked
        # weight gradients, losses built once per batch under block masks, a
        # last encoder block that runs on the class-token row only and QuickGELU.
        # The checkpoint bytes also pin the container format and the config
        # record, modality included.
        assert default_run.steps == 4
        h = hashlib.sha256()
        for path in (default_run.metrics_path, default_run.checkpoint_path,
                     default_run.best_checkpoint_path):
            h.update(path.read_bytes())
        assert h.hexdigest() == "d9753dee5f450701d013c99667d5e4648451f75b6c564f3e09c4d7d31a9e79e1"

    def test_default_run_leaves_the_text_table_at_its_init(self, default_run):
        # The table is a fixed seeded draw: no step trains or decays it,
        # while the projection behind it trains.
        init = init_encoder_params(EncoderConfig(), seed=5)
        for path in (default_run.checkpoint_path, default_run.best_checkpoint_path):
            params, _, _ = load_checkpoint(path)
            assert params["text.table"].array.tobytes() == init["text.table"].array.tobytes()
            assert params["text.weight"].array.tobytes() != init["text.weight"].array.tobytes()

    def test_default_config_metrics_pinned(self, default_run):
        # The run's numbers alone, apart from any file format.
        digest = hashlib.sha256(default_run.metrics_path.read_bytes()).hexdigest()
        assert digest == "5b14275c52e819ab01475c0bf054fd05c7e52c60bcdd494bbb7cc84583854384"

    def test_default_config_loaded_arrays_pinned(self, default_run):
        # What both checkpoints load as, apart from their byte layout: the
        # config, then every parameter in checkpoint order, the fixed text
        # table too, then the extras.
        h = hashlib.sha256()
        for path in (default_run.checkpoint_path, default_run.best_checkpoint_path):
            params, config, extras = load_checkpoint(path)
            h.update(repr(dataclasses.asdict(config)).encode())
            for name, tensor in [*params.items(), *sorted(extras.items())]:
                array = tensor.array
                h.update(repr((name, array.dtype.str, array.shape)).encode() + array.tobytes())
        assert h.hexdigest() == "7613e1b381edcf84861d5f4d124bba80a47dc3bc5e65cabc84134ace3d16c39d"
