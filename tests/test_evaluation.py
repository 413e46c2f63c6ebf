"""Tests for the evaluation protocols and report emission."""

import numpy as np
import pytest

from upm import data as D
from upm import evaluation as ev
from upm.encoder import load_checkpoint
from upm.errors import ContractError, DegenerateInputError
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


class TestGroundingMetrics:
    def test_single_view_is_always_correct(self):
        result = ev.grounding_metrics([np.array([0.3])], [0], [frozenset({0})], recall_ns=(1, 5))
        assert result.recall_at[1] == 1.0
        assert result.recall_at[5] == 1.0

    def test_oracle_embedding_ranks_first(self):
        sims = np.array([0.1, 0.9, 0.2, 0.0])
        result = ev.grounding_metrics([sims], [1], [frozenset({1})])
        assert result.recall_at[1] == 1.0
        assert result.visible_set_accuracy == 1.0

    def test_recall_monotone_and_saturating(self):
        rng = np.random.default_rng(0)
        sims = [rng.normal(size=6) for _ in range(40)]
        gts = [int(rng.integers(0, 6)) for _ in range(40)]
        visible = [frozenset({gt}) for gt in gts]
        result = ev.grounding_metrics(sims, gts, visible, recall_ns=(1, 2, 3, 6))
        values = [result.recall_at[n] for n in (1, 2, 3, 6)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert result.recall_at[6] == 1.0

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


class TestFilterUnique:
    def make(self, visible):
        return ev.GroundingInstance("s", "t", 0, min(visible), frozenset(visible))

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
        ghost = ev.GroundingInstance("ghost", "text", 0, 0, frozenset({0}))
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

    def test_end_to_end_with_prompt_ensemble(self, trained, test_scenes):
        params, config = trained
        names = list(D.SCENE_TYPES)
        single = ev.zero_shot_classify(params, config, test_scenes, names)
        ensemble = ev.zero_shot_classify(
            params, config, test_scenes, names, template=[ev.DEFAULT_PROMPT, *ev.EXTRA_PROMPTS]
        )
        assert 0.0 <= single <= 1.0 and 0.0 <= ensemble <= 1.0


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
