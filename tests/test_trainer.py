"""Tests for the optimizer, schedule, and training loop."""

import dataclasses
import hashlib
import logging
import math

import numpy as np
import pytest

from upm import data as D
from upm import engine as E
from upm import objectives as obj
from upm import trainer
from upm.encoder import (EncoderConfig, encode_texts, encode_views, init_encoder_params,
                         load_checkpoint, pool_scene, token_ids)
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


class TestAdamw:
    def one_param(self, value=1.0, grad=None):
        t = Tensor(np.array([value]), requires_grad=True)
        if grad is not None:
            t.grad = np.array([grad])
        return t

    def test_zero_grad_zero_decay_is_identity(self):
        t = self.one_param(2.5, grad=0.0)
        adamw_step([("w", t)], OptimizerState(), lr=0.1, weight_decay=0.0)
        assert t.array[0] == 2.5

    def test_single_step_matches_scalar_oracle(self):
        # With g=1 the bias-corrected ratio is 1/(1+eps) at step one.
        t = self.one_param(0.0, grad=1.0)
        adamw_step([("w", t)], OptimizerState(), lr=0.01, weight_decay=0.0, eps=1e-8)
        expected = -0.01 * (1.0 / (1.0 + 1e-8))
        assert t.array[0] == pytest.approx(expected, rel=1e-12)

    def test_decoupled_decay_only(self):
        t = self.one_param(4.0, grad=0.0)
        state = OptimizerState()
        for _ in range(3):
            adamw_step([("w", t)], state, lr=0.1, weight_decay=0.5)
        assert t.array[0] == pytest.approx(4.0 * (1 - 0.1 * 0.5) ** 3, rel=1e-12)

    def test_temperature_excluded_from_decay(self):
        t = self.one_param(2.0, grad=0.0)
        adamw_step([(TEMPERATURE_KEY, t)], OptimizerState(), lr=0.1, weight_decay=0.5)
        assert t.array[0] == 2.0

    def test_non_finite_gradient_aborts_with_name(self):
        t = self.one_param(1.0, grad=float("nan"))
        with pytest.raises(NumericError, match="attn.wq"):
            adamw_step([("blocks.0.attn.wq", t)], OptimizerState(), lr=0.1)

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
                assert state.first_moment[name].tobytes() == o_state.first_moment[name].tobytes()
                assert state.second_moment[name].tobytes() == o_state.second_moment[name].tobytes()

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_live_rows_match_oracle_bytewise(self, weight_decay):
        # A (V, d) table and a (4, 2, 2) stack whose rows go live at
        # different steps: row 3 only ever sees -0.0, so it stays dead; a
        # step with no gradient still moves the live rows; the stack goes
        # fully live at step 3 and then updates in place.  The table holds
        # -0.0 and a tiny negative value, where a decay-only row must keep
        # the dense update's `0.0 +` step.
        rng = np.random.default_rng(29)
        table = rng.normal(size=(9, 3))
        table[5] = [-0.0, -5e-324, 0.0]
        values = {"table": table, "stack": rng.normal(size=(4, 2, 2))}
        table_rows = [[1], [1, 6], [], [6], [0, 1, 5, 6], [], [2]]
        stack_rows = [[2], [], [0], [0, 1, 3], [1], None, [2]]
        runs = []
        for step_fn in (adamw_step, oracle_adamw_step):
            named = [(name, Tensor(v.copy(), requires_grad=True)) for name, v in values.items()]
            runs.append((named, OptimizerState(), step_fn))
        for step, (t_rows, s_rows) in enumerate(zip(table_rows, stack_rows)):
            grads = {}
            if t_rows:
                grads["table"] = np.zeros((9, 3))
                grads["table"][t_rows] = rng.normal(size=(len(t_rows), 3))
                grads["table"][3] = -0.0
            if s_rows is not None:
                grads["stack"] = np.zeros((4, 2, 2))
                grads["stack"][s_rows] = rng.normal(size=(len(s_rows), 2, 2))
            lr = float(rng.uniform(1e-3, 1e-1))
            for named, state, step_fn in runs:
                for name, tensor in named:
                    tensor.grad = grads[name].copy() if name in grads else None
                step_fn(named, state, lr, beta1=0.8, beta2=0.95, weight_decay=weight_decay)
            (named, state, _), (o_named, o_state, _) = runs
            for (name, tensor), (_, o_tensor) in zip(named, o_named):
                assert tensor.array.tobytes() == o_tensor.array.tobytes(), (step, name)
                assert state.first_moment[name].tobytes() == o_state.first_moment[name].tobytes()
                assert state.second_moment[name].tobytes() == o_state.second_moment[name].tobytes()
        assert np.flatnonzero(state.live_rows["table"]).tolist() == [0, 1, 2, 5, 6]
        assert state.live_rows["stack"].all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_gradient_in_dead_row_aborts_with_name(self, bad):
        t = Tensor(np.ones((5, 2)), requires_grad=True)
        state = OptimizerState()
        t.grad = np.zeros((5, 2))
        t.grad[1] = 1.0
        adamw_step([("text.table", t)], state, lr=0.1)
        t.grad = np.zeros((5, 2))
        t.grad[3, 1] = bad
        with pytest.raises(NumericError, match="text.table"):
            adamw_step([("text.table", t)], state, lr=0.1)

    @pytest.mark.parametrize("name,value", [
        ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("beta2", math.nan),
        ("eps", 0.0), ("eps", -1e-8), ("eps", math.nan),
        ("lr", -1e-3), ("lr", -0.0), ("lr", math.nan), ("lr", math.inf),
    ])
    def test_out_of_range_hyperparameter_rejected(self, name, value):
        t = self.one_param(1.0, grad=1.0)
        kwargs = {"lr": 0.1, name: value}
        with pytest.raises(ContractError, match=name):
            adamw_step([("w", t)], OptimizerState(), **kwargs)
        assert t.array[0] == 1.0

    def test_missing_grad_treated_as_zero(self):
        t = self.one_param(3.0)
        adamw_step([("w", t)], OptimizerState(), lr=0.1, weight_decay=0.0)
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
        ("weight_decay", -0.01),
        ("weight_geo", math.nan), ("weight_geo", math.inf), ("weight_geo", -1.0),
        ("modality", "depth-only"),
        ("chamfer_subsample", 0), ("voxel_size", 0.0), ("voxel_size", -0.25), ("min_points", 0),
        ("grad_clip", math.nan), ("grad_clip", -1.0),
        ("initial_tau", math.nan), ("initial_tau", 5e-4), ("initial_tau", 101.0),
    ])
    def test_out_of_range_field_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            TrainConfig(**{name: value})

    def test_chamfer_subsample_none_keeps_every_point(self):
        assert TrainConfig(chamfer_subsample=None).chamfer_subsample is None

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
        assert len(prepared.views) == 4
        assert any("capping" in r.message for r in caplog.records)

    def test_targets_and_pairs_shapes(self):
        scene = D.generate_scene(
            D.SceneSpec(scene_type="kitchen", view_count=6, image_size=24), seed=1
        )
        cfg = TrainConfig(views_per_scene=4, chamfer_subsample=64)
        prepared = prepare_scene(scene, cfg)
        assert prepared.geo_targets.shape == (4, 3)
        np.testing.assert_allclose(prepared.geo_targets.sum(axis=1), 1.0, atol=1e-12)
        for v, o in prepared.pairs:
            assert 0 <= v < 4 and 0 <= o < len(prepared.object_texts)

    def test_default_outputs_pinned(self):
        # Chosen views, geo-target bytes and pairs of four default scenes, as
        # produced by the exhaustive-scan Chamfer and set-based coverage code.
        h = hashlib.sha256()
        for i in range(4):
            scene = D.generate_scene(D.SceneSpec(scene_type=D.SCENE_TYPES[i % 4], seed=7), seed=i)
            prepared = prepare_scene(scene, TrainConfig())
            chosen = [next(k for k, v in enumerate(scene.views) if v.image is image)
                      for image, _ in prepared.views]
            targets = prepared.geo_targets
            h.update(repr((chosen, targets.shape, prepared.pairs)).encode())
            h.update(targets.tobytes())
        assert h.hexdigest() == "16420ee83bf5e69f732b24c4858e3e474d97765080049b176cbb7aeb98cbf587"


def oracle_batch_loss(batch, params, enc_cfg, temperature, cfg):
    """The four losses scene by scene, as batch_loss built them before its block masks.

    Each scene takes a fresh narrow of the view rows per loss, its own (V, V)
    geometric logits through the per-row graph, and its own text-tower call
    and grounded loss when it has pairs, weighted by its pair count; each
    scene pools on its own.
    """
    zero = Tensor(np.zeros(1))
    views = encode_views(
        [view for scene in batch for view in scene.views], params, enc_cfg, modality=cfg.modality
    )
    counts = [len(scene.views) for scene in batch]
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
            if scene.pairs:
                texts = encode_texts(scene.object_texts, params, enc_cfg)
                rows = E.narrow(views, 0, *span)
                term = obj.ground_loss(rows, texts, scene.pairs, temperature,
                                       np.ones((span[1], len(scene.object_texts)), dtype=bool))
                weighted = E.add(weighted, E.scale(term, float(len(scene.pairs))))
                total_pairs += len(scene.pairs)
        if total_pairs:
            l_ground = E.scale(weighted, 1.0 / total_pairs)

    captions = encode_texts([c for scene in batch for c in scene.view_captions], params, enc_cfg)
    l_view = obj.view_loss(views, captions, temperature)
    pooled = E.concat([pool_scene(E.narrow(views, 0, *span), [span[1]]) for span in spans])
    scene_captions = encode_texts([s.scene_caption for s in batch], params, enc_cfg)
    l_scene = obj.scene_loss(pooled, scene_captions, temperature)
    return obj.total_loss(l_geo, l_ground, l_view, l_scene, weight_geo=cfg.weight_geo)


def default_batch(first_seed):
    cfg = TrainConfig()
    scenes = [D.generate_scene(D.SceneSpec(scene_type=D.SCENE_TYPES[i]), seed=first_seed + i)
              for i in range(cfg.scenes_per_batch)]
    return [prepare_scene(scene, cfg) for scene in scenes], EncoderConfig(), cfg


def pairless_batch():
    """Small scenes: one with objects but its pairs dropped, and one with no objects at all."""
    cfg = TrainConfig(views_per_scene=4, chamfer_subsample=64)
    specs = [D.SceneSpec(scene_type=kind, view_count=6, image_size=24, object_count=count)
             for kind, count in (("office", (2, 4)), ("kitchen", (2, 4)), ("bedroom", (2, 4)),
                                 ("office", (0, 0)))]
    batch = [prepare_scene(D.generate_scene(spec, seed=40 + i), cfg) for i, spec in enumerate(specs)]
    batch[1] = dataclasses.replace(batch[1], pairs=[])
    assert batch[0].pairs and batch[2].pairs and not batch[3].object_texts
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
        # the encoder's trailing narrow is gone, and each of the 17 biased
        # projections is one linear node: 136 nodes.  One narrow per scene
        # and use, with the per-scene losses added up, made 250.
        batch, enc_cfg, cfg = default_batch_seed0
        assert sum(len(p.views) for p in batch) == 32
        params = init_encoder_params(enc_cfg, seed=0)
        breakdown = batch_loss(batch, params, enc_cfg, Temperature(cfg.initial_tau), cfg)
        assert len(trace_graph(breakdown.total)) <= 140

    def test_default_step_adopts_the_gradients_its_rules_allocate(self, default_batch_seed0,
                                                                  monkeypatch):
        # A backward rule hands _accumulate the arrays it allocated, and a
        # first accumulation adopts them as .grad.  It still copies where g
        # is a view of the node's own gradient (add, reshape, transpose,
        # concat, broadcast_to, and the bias and beta sums over no axis) or
        # not C-contiguous (attention's key gradient): 53 copies against 81
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

    def test_non_finite_loss_raises_before_backward(self, tiny_dataset, tmp_path, monkeypatch):
        real_batch_loss = trainer.batch_loss
        real_init = trainer.init_encoder_params
        created, backward_calls = [], []

        def nan_loss(*args):
            breakdown = real_batch_loss(*args)
            return dataclasses.replace(breakdown, total=E.scale(breakdown.total, math.nan))

        def init(*args, **kwargs):
            created.append(real_init(*args, **kwargs))
            return created[-1]

        monkeypatch.setattr(trainer, "batch_loss", nan_loss)
        monkeypatch.setattr(trainer, "init_encoder_params", init)
        monkeypatch.setattr(E, "backward", backward_calls.append)
        with pytest.raises(NumericError, match="non-finite training loss at step 0"):
            train(tiny_dataset, TINY_TRAIN, TINY_ENCODER, tmp_path / "run")
        assert backward_calls == []
        fresh = real_init(TINY_ENCODER, seed=TINY_TRAIN.seed)
        for (name, tensor), (_, initial) in zip(created[0].named_parameters(),
                                                fresh.named_parameters()):
            assert tensor.array.tobytes() == initial.array.tobytes(), name

    def test_rejects_undersized_manifest(self, tiny_dataset, tmp_path):
        cfg = TrainConfig(scenes_per_batch=1000)
        out_dir = tmp_path / "out"
        with pytest.raises(ConfigError, match="training scenes"):
            train(tiny_dataset, cfg, TINY_ENCODER, out_dir)
        assert not out_dir.exists()

    def test_default_config_run_pinned(self, tmp_path):
        # metrics.tsv and both checkpoints of a short default-config run, as
        # produced by the embedding-bag text tower, one-GEMM stacked weight
        # gradients, losses built once per batch under block masks and a last
        # encoder block that runs on the class-token row only.
        root = tmp_path / "data"
        ids = []
        for i in range(10):
            spec = D.SceneSpec(scene_type=D.SCENE_TYPES[i % 4], view_count=10)
            scene = D.generate_scene(spec, seed=100 + i)
            D.save_scene(scene, root / scene.scene_id)
            ids.append(scene.scene_id)
        D.write_manifest(root / "manifest.tsv", D.split_dataset(ids, seed=0))
        result = train(root / "manifest.tsv", TrainConfig(epochs=2, seed=5), EncoderConfig(),
                       tmp_path / "run")
        assert result.steps == 4
        h = hashlib.sha256()
        for path in (result.metrics_path, result.checkpoint_path, result.best_checkpoint_path):
            h.update(path.read_bytes())
        assert h.hexdigest() == "9ae534a6d79c8932b0efc28e2594ee675637730344442cabc0718636a824830b"

    def test_default_run_updates_only_the_text_rows_it_read(self, tmp_path, monkeypatch):
        # AdamW's live rows of the text table are exactly the token ids of
        # the texts encoded under gradient; every other matrix is live
        # throughout after its first step, so it updates in place.
        real_encode_texts = trainer.encode_texts
        trained_texts, states = set(), []

        def encode_texts(texts, params, enc_cfg):
            if E._grad_enabled:
                trained_texts.update(texts)
            return real_encode_texts(texts, params, enc_cfg)

        def adamw_step(named, state, *args, **kwargs):
            states.append(state)
            return real_adamw_step(named, state, *args, **kwargs)

        real_adamw_step = trainer.adamw_step
        monkeypatch.setattr(trainer, "encode_texts", encode_texts)
        monkeypatch.setattr(trainer, "adamw_step", adamw_step)
        root = tmp_path / "data"
        ids = []
        for i in range(10):
            scene = D.generate_scene(D.SceneSpec(scene_type=D.SCENE_TYPES[i % 4]), seed=200 + i)
            D.save_scene(scene, root / scene.scene_id)
            ids.append(scene.scene_id)
        D.write_manifest(root / "manifest.tsv", D.split_dataset(ids, seed=0))
        enc_cfg = EncoderConfig()
        train(root / "manifest.tsv", TrainConfig(epochs=2, seed=3), enc_cfg, tmp_path / "run")
        read = {row for text in trained_texts for row in token_ids(text, enc_cfg)}
        live = states[-1].live_rows
        assert set(np.flatnonzero(live.pop("text.table")).tolist()) == read
        assert 0 < len(read) < enc_cfg.text_vocab_size // 10
        assert live and all(mask.all() for mask in live.values())
