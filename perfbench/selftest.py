"""Self-test of the benchmark; it is not part of the repository's test suite.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads
from upm import data, encoder, trainer
from upm.encoder import EncoderConfig
from upm.trainer import TrainConfig

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK_JSON = BENCH_DIR.parent / "BENCHMARK.json"

TINY_ENCODER = EncoderConfig(
    image_size=24, patch_size=8, embed_dim=32, num_blocks=1, num_heads=2,
    mlp_ratio=2, text_vocab_size=512, text_context_length=32,
)
TINY_TRAIN = TrainConfig(epochs=2, scenes_per_batch=2, views_per_scene=4, chamfer_subsample=128)
TINY = workloads.Size(
    view_count=6, image_size=24, object_count=(2, 4),
    train=TINY_TRAIN, encoder=TINY_ENCODER,
    ingest_scenes=2, train_scenes=4, eval_test_scenes=4, eval_probe_scenes_per_class=2,
    probe_shots=(1, 2), probe_reg_grid=(1e-2, 1.0, 1e2),
    retrieval_utterances=(1, 2), curve_budgets=(2, 4), setups=1, warmup_steps=1,
)


def _declared(kind: str) -> set[str]:
    return {m["name"] for m in json.loads(BENCHMARK_JSON.read_text())[kind]}


def test_step_loop_reproduces_trainer_metrics_and_checkpoint(tmp_path):
    ids = []
    for i in range(4):
        spec = data.SceneSpec(scene_type=data.SCENE_TYPES[i], view_count=6, image_size=24,
                              object_count=(2, 4))
        scene = data.generate_scene(spec, seed=i)
        data.save_scene(scene, tmp_path / scene.scene_id)
        ids.append(scene.scene_id)
    manifest = tmp_path / "manifest.tsv"
    data.write_manifest(manifest, [("train", name) for name in ids])
    result = trainer.train(manifest, TINY_TRAIN, TINY_ENCODER, tmp_path / "run")

    prepared = [trainer.prepare_scene(data.load_scene(tmp_path / name), TINY_TRAIN) for name in ids]
    rows = list(workloads.train_steps(prepared, TINY_TRAIN, TINY_ENCODER))
    params, temperature = rows.pop()
    written = result.metrics_path.read_text(encoding="utf-8").splitlines()[1:]
    ours = ["\t".join([str(row[0])] + [repr(x) for x in row[1:]]) for row in rows]
    assert ours == written

    encoder.save_checkpoint(tmp_path / "ours.upm", params, TINY_ENCODER,
                            extras=[(trainer.TEMPERATURE_KEY, temperature.log_tau)])
    assert (tmp_path / "ours.upm").read_bytes() == result.checkpoint_path.read_bytes()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_at_tiny_size(name, trace, tmp_path):
    result = workloads.run(name, seed=3, seconds=0.2, trace=trace, workdir=tmp_path, size=TINY)
    assert result.correct
    assert result.attempted >= 1 and result.failed == 0
    expected = _declared("per_layer" if trace else "end_to_end")
    assert set(result.metrics) == expected
    if not trace:
        assert all(value > 0 for value, _ in result.metrics.values())


def test_same_seed_same_digest(tmp_path):
    first = workloads.run("ingest", 5, 0.1, False, tmp_path / "a", size=TINY)
    second = workloads.run("ingest", 5, 0.1, False, tmp_path / "b", size=TINY)
    assert first.digest == second.digest


def test_tracer_restores_functions_and_reports_absent():
    original = trainer.batch_loss
    probes = (
        tracing.Probe("upm.trainer", "batch_loss", span="trainer.batch_loss"),
        tracing.Probe("upm.trainer", "no_such_function", span="trainer.gone"),
    )
    with tracing.Tracer(probes) as tracer:
        assert trainer.batch_loss is not original
    assert trainer.batch_loss is original
    assert tracer.absent == ["upm.trainer.no_such_function"]
    assert tracer.metrics(1)["trainer.gone_ms"] == (0.0, "ms")


def test_refuses_to_run_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
