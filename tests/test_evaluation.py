"""Tests for the evaluation protocols and report emission."""

import dataclasses
import hashlib

import numpy as np
import pytest

from upm import data as D
from upm import engine as E
from upm import evaluation as ev
from upm.encoder import encode_views, init_encoder_params, load_checkpoint, save_checkpoint
from upm.errors import ContractError, DegenerateInputError, FormatError, NumericError
from upm.probe import ProbeConfig, ProbeOutcome
from tests.conftest import TINY_ENCODER


@pytest.fixture(scope="module")
def trained(tiny_run):
    params, config, _ = load_checkpoint(tiny_run.checkpoint_path)
    return params, config


@pytest.fixture(scope="module")
def test_scenes(tiny_dataset):
    from upm.data import load_split_scenes

    return load_split_scenes(tiny_dataset, "train")[:4]


@pytest.fixture
def encodes(monkeypatch):
    """The id of every scene ``embed_scene_views`` encodes, in call order."""
    ids = []
    embed = ev.embed_scene_views

    def spy(scene, *args, **kwargs):
        ids.append(scene.scene_id)
        return embed(scene, *args, **kwargs)

    monkeypatch.setattr(ev, "embed_scene_views", spy)
    return ids


class TestEmbedSceneViews:
    def test_image_only_checkpoint_encodes_as_trained(self, test_scenes, tmp_path):
        # The modality travels with the encoder: a loaded image-only
        # checkpoint zeroes the pointmap stream in evaluation, as in training.
        config = dataclasses.replace(TINY_ENCODER, modality="image-only")
        save_checkpoint(tmp_path / "model.upm", init_encoder_params(config, seed=4), config)
        params, loaded, _ = load_checkpoint(tmp_path / "model.upm")
        assert loaded == config
        scene = test_scenes[0]
        got = ev.embed_scene_views(scene, params, loaded)
        with E.no_grad():
            want = encode_views(scene.images, np.zeros_like(scene.images), params, TINY_ENCODER).array
        assert got.tobytes() == want.tobytes()
        assert not np.array_equal(got, ev.embed_scene_views(scene, params, TINY_ENCODER))


class TestGroundingMetrics:
    def test_single_view_is_always_correct(self):
        result = ev.grounding_metrics([np.array([0.3])], [0], [frozenset({0})])
        assert result.recall_at == {n: 1.0 for n in ev.GROUNDING_RECALL_NS}

    def test_oracle_embedding_ranks_first(self):
        sims = np.array([0.1, 0.9, 0.2, 0.0])
        result = ev.grounding_metrics([sims], [1], [frozenset({1})])
        assert result.recall_at[1] == 1.0
        assert result.visible_set_accuracy == 1.0

    def test_recall_monotone_and_saturating(self):
        rng = np.random.default_rng(0)
        sims = [rng.normal(size=6) for _ in range(40)]
        gts = [int(rng.integers(0, 6)) for _ in range(40)]
        recall = ev._recall_at(sims, gts, (1, 2, 3, 6))
        values = [recall[n] for n in (1, 2, 3, 6)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert recall[6] == 1.0

    def test_visible_set_accuracy_dominates_r1(self):
        rng = np.random.default_rng(1)
        sims, gts, visible = [], [], []
        for _ in range(60):
            scores = rng.normal(size=5)
            gt = int(rng.integers(0, 5))
            extra = {int(rng.integers(0, 5)) for _ in range(2)}
            sims.append(scores)
            gts.append(gt)
            visible.append(frozenset({gt} | extra))
        result = ev.grounding_metrics(sims, gts, visible)
        assert result.visible_set_accuracy >= result.recall_at[1]

    def test_random_embeddings_match_null_model(self):
        rng = np.random.default_rng(2)
        n_views, n_instances = 5, 2000
        sims = [rng.normal(size=n_views) for _ in range(n_instances)]
        gts = [int(rng.integers(0, n_views)) for _ in range(n_instances)]
        visible = [frozenset({gt}) for gt in gts]
        result = ev.grounding_metrics(sims, gts, visible)
        p = 1.0 / n_views
        sigma = np.sqrt(p * (1 - p) / n_instances)
        assert abs(result.recall_at[1] - p) <= 3 * sigma

    def test_tie_breaks_to_lower_view_index(self):
        sims = np.array([0.5, 0.5, 0.1])
        top_first = ev.grounding_metrics([sims], [0], [frozenset({0})])
        second = ev.grounding_metrics([sims], [1], [frozenset({1})])
        assert top_first.recall_at[1] == 1.0
        assert second.recall_at[1] == 0.0

    def test_tie_at_top_gives_visible_set_hit_to_lower_index(self):
        sims = np.array([0.1, 0.5, 0.5])
        assert ev.grounding_metrics([sims], [0], [frozenset({1})]).visible_set_accuracy == 1.0
        assert ev.grounding_metrics([sims], [0], [frozenset({2})]).visible_set_accuracy == 0.0

    def test_signed_zeros_tie(self):
        sims = np.array([-0.0, 0.0])
        result = ev.grounding_metrics([sims], [1], [frozenset({0})])
        assert result.recall_at == {1: 0.0, 5: 1.0, 10: 1.0}
        assert result.visible_set_accuracy == 1.0

    def test_recall_values_are_python_floats(self):
        recall = ev._recall_at([np.array([0.2, 0.7, 0.1])], [1], (1, 2))
        assert recall == {1: 1.0, 2: 1.0}
        assert all(type(value) is float for value in recall.values())


class TestFilterUnique:
    def make(self, visible):
        return ev.GroundingInstance("s", "t", min(visible), frozenset(visible))

    def test_multi_view_instances_dropped(self):
        instances = [self.make({0, 1}), self.make({2, 3, 4})]
        assert ev.filter_unique(instances) == []

    def test_mixed_set_keeps_singletons(self):
        keep = self.make({2})
        instances = [self.make({0, 1}), keep, self.make({3, 4})]
        assert ev.filter_unique(instances) == [keep]

    def test_identity_r1_equals_visible_accuracy(self):
        rng = np.random.default_rng(3)
        sims, gts, visible = [], [], []
        for _ in range(50):
            scores = rng.normal(size=4)
            gt = int(rng.integers(0, 4))
            sims.append(scores)
            gts.append(gt)
            visible.append(frozenset({gt}))  # singleton visible set
        result = ev.grounding_metrics(sims, gts, visible)
        assert result.recall_at[1] == result.visible_set_accuracy


class TestGroundingIntegration:
    def test_instances_well_formed(self, test_scenes):
        instances = ev.build_grounding_instances(test_scenes)
        assert instances
        for inst in instances:
            assert inst.gt_view in inst.visible_set

    def test_end_to_end_metrics_in_range(self, trained, test_scenes):
        params, config = trained
        instances = ev.build_grounding_instances(test_scenes)
        result = ev.viewpoint_grounding(params, config, test_scenes, instances)
        for n, value in result.recall_at.items():
            assert 0.0 <= value <= 1.0
        assert result.recall_at[1] <= result.recall_at[5] <= result.recall_at[10]
        assert result.visible_set_accuracy >= result.recall_at[1]

    def test_unknown_scene_rejected(self, trained):
        params, config = trained
        ghost = ev.GroundingInstance("ghost", "text", 0, frozenset({0}))
        with pytest.raises(ContractError):
            ev.viewpoint_grounding(params, config, [], [ghost])


class TestSceneRetrieval:
    def test_caption_construction_chunks(self):
        scene = D.generate_scene(
            D.SceneSpec(scene_type="bedroom", view_count=4, image_size=24, object_count=(5, 5)),
            seed=20,
        )
        captions = ev.build_scene_captions(scene, n_utterances=2)
        assert len(captions) == 3  # 2 + 2 + 1 leftover
        assert captions[0].count(". ") == 1

    def test_short_scene_contributes_single_caption(self):
        scene = D.generate_scene(
            D.SceneSpec(scene_type="office", view_count=4, image_size=24, object_count=(2, 2)),
            seed=21,
        )
        captions = ev.build_scene_captions(scene, n_utterances=10)
        assert len(captions) == 1

    def test_invalid_utterance_count(self):
        scene = D.generate_scene(
            D.SceneSpec(scene_type="office", view_count=6, image_size=24, object_count=(2, 3)),
            seed=22,
        )
        with pytest.raises(ContractError):
            ev.build_scene_captions(scene, 0)

    def test_single_scene_always_retrieved(self, trained, test_scenes):
        params, config = trained
        result = ev.scene_retrieval(params, config, test_scenes[:1], n_utterances=2)
        assert result.recall_at[1] == 1.0

    def test_metrics_in_range(self, trained, test_scenes):
        params, config = trained
        result = ev.scene_retrieval(params, config, test_scenes, n_utterances=2)
        assert 0.0 <= result.recall_at[1] <= result.recall_at[5] <= 1.0

    def test_views_curve_shape(self, trained, test_scenes):
        params, config = trained
        curve = ev.retrieval_views_curve(params, config, test_scenes, 2, budgets=(2, 4))
        assert [x for x, _ in curve] == [2, 4]
        assert all(0.0 <= y <= 1.0 for _, y in curve)

    def test_views_curve_back_projects_and_encodes_each_scene_once(self, trained, test_scenes,
                                                                   encodes, monkeypatch):
        params, config = trained
        back_projected = []
        pointmaps = D.Scene.pointmaps
        monkeypatch.setattr(D.Scene, "pointmaps",
                            lambda scene: back_projected.append(scene.scene_id) or pointmaps(scene))
        ev.retrieval_views_curve(params, config, test_scenes, 2, budgets=(2, 4))
        assert back_projected == encodes == [s.scene_id for s in test_scenes]

    def test_views_curve_rejects_nonpositive_budget(self, trained, test_scenes):
        params, config = trained
        with pytest.raises(ContractError, match="at least 1"):
            ev.retrieval_views_curve(params, config, test_scenes, 2, budgets=(0, 2))

    def test_views_curve_rejects_nonpositive_budget_without_captions(self, trained):
        params, config = trained
        spec = D.SceneSpec(scene_type="kitchen", view_count=4, image_size=24, object_count=(0, 0))
        scenes = [D.generate_scene(spec, seed=i) for i in range(2)]
        assert ev.retrieval_views_curve(params, config, scenes, 2, budgets=(2,)) == [(2, 0.0)]
        with pytest.raises(ContractError, match="at least 1"):
            ev.retrieval_views_curve(params, config, scenes, 2, budgets=[0])


class TestZeroShot:
    def test_identity_similarities_are_perfect(self):
        sims = np.eye(4)
        assert ev.classify_from_similarities(sims, np.arange(4)) == 1.0

    def test_scale_invariance_of_cosine_argmax(self):
        rng = np.random.default_rng(4)
        scenes = rng.normal(size=(10, 8))
        classes = rng.normal(size=(3, 8))
        base = ev.cosine_similarity(scenes, classes).argmax(axis=1)
        scaled = ev.cosine_similarity(scenes * 37.5, classes).argmax(axis=1)
        np.testing.assert_array_equal(base, scaled)

    def test_zero_row_rejected(self):
        rows = np.eye(3)
        for a, b in ((np.zeros((1, 3)), rows), (rows, np.vstack([rows, np.zeros(3)]))):
            with pytest.raises(DegenerateInputError):
                ev.cosine_similarity(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", [
        lambda rows: ev.cosine_similarity(rows, np.eye(3)),
        lambda rows: ev.cosine_similarity(np.eye(3), rows),
        lambda rows: ev.scene_embedding_from_views(rows),
    ], ids=["cosine_left", "cosine_right", "scene_embedding"])
    def test_non_finite_row_rejected(self, call, bad):
        rows = np.eye(3)
        rows[1, 2] = bad
        with pytest.raises(NumericError, match="non-finite"):
            call(rows)

    def test_scene_embedding_of_no_views_rejected(self):
        with pytest.raises(DegenerateInputError):
            ev.scene_embedding_from_views(np.zeros((0, 3)))

    def test_zero_scenes_rejected(self):
        with pytest.raises(DegenerateInputError, match="no predictions"):
            ev.classify_from_similarities(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_random_null_model(self):
        rng = np.random.default_rng(5)
        n_classes, n_scenes = 4, 2000
        sims = rng.normal(size=(n_scenes, n_classes))
        labels = rng.integers(0, n_classes, size=n_scenes)
        acc = ev.classify_from_similarities(sims, labels)
        p = 1.0 / n_classes
        sigma = np.sqrt(p * (1 - p) / n_scenes)
        assert abs(acc - p) <= 3 * sigma

    def test_requires_two_classes(self, trained, test_scenes):
        params, config = trained
        with pytest.raises(ContractError):
            ev.zero_shot_classify(params, config, test_scenes, ["bedroom"])

    def test_unknown_scene_type_rejected_before_prompts_are_embedded(self, trained, test_scenes,
                                                                       monkeypatch):
        params, config = trained
        calls = []
        monkeypatch.setattr(ev, "embed_texts", lambda *args: calls.append(args))
        unknown = test_scenes[0].scene_type
        names = [t for t in D.SCENE_TYPES if t != unknown]
        with pytest.raises(ContractError, match=repr(unknown)):
            ev.zero_shot_classify(params, config, test_scenes, names)
        assert calls == []


class TestClassLabels:
    def test_labels_index_class_names(self, test_scenes):
        names = list(D.SCENE_TYPES)
        labels = ev.class_labels(test_scenes, names)
        assert labels.dtype == np.int64
        assert [names[i] for i in labels] == [s.scene_type for s in test_scenes]

    def test_unknown_scene_type_rejected(self, trained, test_scenes):
        params, config = trained
        unknown = test_scenes[0].scene_type
        names = [t for t in D.SCENE_TYPES if t != unknown]
        cfg = ProbeConfig(shots=1, reg_grid=(1.0,))
        for call in (lambda: ev.class_labels(test_scenes, names),
                     lambda: ev.zero_shot_classify(params, config, test_scenes, names),
                     lambda: ev.few_shot_probe(params, config, test_scenes, test_scenes, names, cfg)):
            with pytest.raises(ContractError, match=repr(unknown)):
                call()


class TestFewShotProbe:
    def test_probe_on_trained_embeddings(self, trained, tiny_dataset):
        from upm.data import load_split_scenes

        params, config = trained
        scenes = load_split_scenes(tiny_dataset, "train") + load_split_scenes(
            tiny_dataset, "val"
        ) + load_split_scenes(tiny_dataset, "test")
        names = list(D.SCENE_TYPES)
        cfg = ProbeConfig(shots=2, reg_grid=tuple(np.logspace(-4, 2, 8)), seed=0)
        outcome = ev.few_shot_probe(params, config, scenes, scenes, names, cfg)
        assert 0.0 <= outcome.test_accuracy <= 1.0

    def test_insufficient_shots_rejected(self, trained, test_scenes):
        params, config = trained
        names = list(D.SCENE_TYPES)
        with pytest.raises(ContractError, match="need"):
            ev.few_shot_probe(
                params, config, test_scenes, test_scenes, names, ProbeConfig(shots=50)
            )

    @pytest.fixture
    def probe_inputs(self, monkeypatch):
        """The arrays each ``linear_probe`` call receives, as bytes."""
        calls = []
        probe = ev.linear_probe

        def spy(*args):
            calls.append([a.tobytes() for a in args[:4]])
            return probe(*args)

        monkeypatch.setattr(ev, "linear_probe", spy)
        return calls

    def test_encodes_only_the_sampled_training_scenes(self, trained, tiny_dataset, test_scenes,
                                                      encodes):
        params, config = trained
        pool = all_scenes(tiny_dataset)  # three of each type
        cfg = ProbeConfig(shots=2, reg_grid=(1.0,), seed=0)
        ev.few_shot_probe(params, config, pool, test_scenes, list(D.SCENE_TYPES), cfg)
        train_ids, test_ids = encodes[:8], encodes[8:]
        assert test_ids == [s.scene_id for s in test_scenes]
        order = [s.scene_id for s in pool]
        assert sorted(train_ids, key=order.index) == train_ids and len(set(train_ids)) == 8
        types = [pool[order.index(i)].scene_type for i in train_ids]
        assert sorted(types) == sorted(list(D.SCENE_TYPES) * 2)

    @pytest.mark.parametrize("shots", [1, 2, 3])
    def test_outcome_equals_embed_everything_oracle(self, trained, tiny_dataset, test_scenes,
                                                    probe_inputs, shots):
        params, config = trained
        pool = all_scenes(tiny_dataset)
        names = list(D.SCENE_TYPES)
        cfg = ProbeConfig(shots=shots, reg_grid=tuple(np.logspace(-4, 2, 8)), seed=shots)
        got = ev.few_shot_probe(params, config, pool, test_scenes, names, cfg)
        want = oracle_few_shot_probe(params, config, pool, test_scenes, names, cfg)
        assert got == want
        assert probe_inputs[0] == probe_inputs[1]

    def test_rejects_before_any_encode(self, trained, tiny_dataset, encodes):
        params, config = trained
        pool = all_scenes(tiny_dataset)
        names = list(D.SCENE_TYPES)
        missing = names[0]
        without = [s for s in pool if s.scene_type != missing]
        calls = [
            (pool, pool, names, 4, "need"),                       # 3 scenes per class
            (pool, without, names[1:], 1, repr(missing)),         # unknown training type
            (without, pool, names[1:], 1, repr(missing)),         # unknown test type
        ]
        for train_scenes, test, class_names, shots, message in calls:
            with pytest.raises(ContractError, match=message):
                ev.few_shot_probe(params, config, train_scenes, test, class_names,
                                  ProbeConfig(shots=shots, reg_grid=(1.0,)))
        assert encodes == []


def all_scenes(manifest):
    return [scene for split in ("train", "val", "test")
            for scene in D.load_split_scenes(manifest, split)]


def oracle_few_shot_probe(params, config, train_scenes, test_scenes, class_names, cfg):
    """``few_shot_probe`` as it was: embed every training scene, then index the sampled rows."""
    features = ev.embed_scenes(train_scenes, params, config)
    labels = ev.class_labels(train_scenes, class_names)
    rng = np.random.default_rng(cfg.seed)
    chosen = []
    for cls in range(len(class_names)):
        members = np.nonzero(labels == cls)[0]
        chosen.extend(rng.choice(members, size=cfg.shots, replace=False).tolist())
    chosen = sorted(chosen)
    test_features = ev.embed_scenes(test_scenes, params, config)
    test_labels = ev.class_labels(test_scenes, class_names)
    return ev.linear_probe(features[chosen], labels[chosen], test_features, test_labels, cfg)


class TestEmitReport:
    def test_empty_report_writes_headers(self, tmp_path):
        written = ev.emit_report(ev.EvalReport(), tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "classification.tsv", "grounding.tsv", "plot_views_vs_r1.tsv", "retrieval.tsv",
            "summary.txt"]
        for name in ("grounding", "retrieval", "classification", "plot_views_vs_r1"):
            lines = written[name].read_text().splitlines()
            assert len(lines) == 1  # header only
        assert written["summary"].read_text() == ""

    def test_single_grounding_row(self, tmp_path):
        result = ev.RetrievalResult(
            recall_at={1: 0.5, 5: 0.75, 10: 1.0}, visible_set_accuracy=0.8, count=16
        )
        written = ev.emit_report(ev.EvalReport(grounding=result), tmp_path)
        lines = written["grounding"].read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split("\t")
        assert fields[0] == "standard"
        assert float(fields[2]) == 0.5

    def test_summary_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        values = rng.random(3)
        report = ev.EvalReport(
            grounding=ev.RetrievalResult(
                recall_at={1: values[0], 5: values[1], 10: values[2]},
                visible_set_accuracy=float(values.mean()),
                count=7,
            ),
            zero_shot_accuracy=float(values[0] / 3),
            probe_outcomes={1: ProbeOutcome(float(values[1] / 7), 0.125, 1.0)},
        )
        written = ev.emit_report(report, tmp_path)
        parsed = ev.parse_summary(written["summary"])
        assert parsed["grounding.standard.r_at_1"] == values[0]
        assert parsed["grounding.standard.r_at_5"] == values[1]
        assert parsed["classification.zero_shot"] == values[0] / 3
        assert parsed["classification.probe_1shot"] == values[1] / 7

    def test_recalls_not_computed_are_not_reported(self, tmp_path):
        grounding = ev.RetrievalResult(recall_at={1: 1.0}, visible_set_accuracy=1.0, count=1)
        retrieval = ev.RetrievalResult(recall_at={5: 0.25}, visible_set_accuracy=None, count=8)
        written = ev.emit_report(ev.EvalReport(grounding=grounding, retrieval={2: retrieval}), tmp_path)
        assert written["grounding"].read_text().splitlines()[1] == "standard\t1\t1.0\t-\t-\t1.0"
        assert written["retrieval"].read_text().splitlines()[1] == "2\t8\t-\t0.25"
        assert ev.parse_summary(written["summary"]) == {
            "grounding.standard.count": 1, "grounding.standard.r_at_1": 1.0,
            "grounding.standard.visible_set_accuracy": 1.0, "retrieval.n2.r_at_5": 0.25}

    @pytest.mark.parametrize("line", ["grounding.standard.count 7", "retrieval.n1.r_at_1=0.5x",
                                      "=1.0", "classification.zero_shot=0.5"])
    def test_malformed_summary_line_rejected(self, tmp_path, line):
        path = tmp_path / "summary.txt"
        path.write_text(f"classification.zero_shot=0.25\n{line}\n", encoding="utf-8")
        with pytest.raises(FormatError, match="summary"):
            ev.parse_summary(path)

    @pytest.mark.parametrize("case", ["missing", "directory", "non_utf8"])
    def test_unreadable_summary_rejected(self, tmp_path, case):
        path = tmp_path / "summary.txt"
        if case == "directory":
            path.mkdir()
        elif case == "non_utf8":
            path.write_bytes(b"classification.zero_shot=0.25\xff\n")
        with pytest.raises(FormatError, match="summary"):
            ev.parse_summary(path)


class TestFullReport:
    def test_outcomes_pinned(self, trained, tiny_dataset, tmp_path):
        # summary.txt and the views curve of a full report on the tiny run's
        # checkpoint, as produced when each protocol embedded its scenes itself
        # and the curve re-ran scene_retrieval once per view budget, with the
        # encoder's QuickGELU and a text table fixed at its seeded draw.
        params, config = trained
        scenes = [scene for split in ("train", "val", "test")
                  for scene in D.load_split_scenes(tiny_dataset, split)]
        names = list(D.SCENE_TYPES)
        instances = ev.build_grounding_instances(scenes)
        probe_cfg = ProbeConfig(shots=2, reg_grid=tuple(np.logspace(-4, 2, 8)), seed=0)
        report = ev.EvalReport(
            grounding=ev.viewpoint_grounding(params, config, scenes, instances),
            grounding_unique=ev.viewpoint_grounding(
                params, config, scenes, ev.filter_unique(instances)),
            retrieval={n: ev.scene_retrieval(params, config, scenes, n) for n in (1, 2)},
            zero_shot_accuracy=ev.zero_shot_classify(params, config, scenes, names),
            probe_outcomes={2: ev.few_shot_probe(params, config, scenes, scenes, names, probe_cfg)},
            views_curve=ev.retrieval_views_curve(params, config, scenes, 1, budgets=(2, 4)),
        )
        summary = ev.emit_report(report, tmp_path)["summary"].read_bytes()
        digest = hashlib.sha256(summary + repr(report.views_curve).encode()).hexdigest()
        assert digest == "a2435b48f2450b1a239d13383653869c935654008719a6bdd55bc69dc3b50ae2"
