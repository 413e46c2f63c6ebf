"""Learning gate: a short default-config run must beat its seeded initial encoder.

Every other train check pins bits or asserts finite losses; this one fails
a change that leaves the losses finite but stops the encoder learning.  It
is a bound, not a pin, so a change that moves only the last bits passes it
unedited.

One fixed run: 16 default scenes, the default ``TrainConfig`` (seed 0) for
8 epochs of 4 scenes, 32 steps.  Measured on that run:
- mean total loss: 12.75 at the initial encoder's first step, 8.18 over
  the final epoch, a gain of 4.57;
- ``scene_retrieval`` R@5 at one utterance over 16 held-out scenes: 0.191
  for the initial encoder, 0.426 trained, a gain of 0.235.

Each margin below is the measured gain divided by 2, rounded down.

At this size only the loss gain is stable over seeds.  With the scene,
held-out and train seeds set together to 0-5, the final epoch's loss beat
the first step's by 4.2 to 6.0, but held-out R@5 moved by -0.146 to
+0.235, so the retrieval bound holds for this run, not for every seed (at
64 scenes and 160 steps, about 12 s, it rose at seeds 0-2 by 0.08 to
0.24).  Zero-shot accuracy over the held-out scenes stayed at or below
chance (0.25) for the trained encoder at every seed, so it is not gated.
"""

import numpy as np
import pytest

from upm import data as D
from upm import evaluation as ev
from upm.encoder import EncoderConfig, init_encoder_params, load_checkpoint
from upm.trainer import TrainConfig, train

TRAIN_SCENES = 16
HELD_OUT_SCENES = 16
HELD_OUT_OFFSET = 1000
EPOCHS = 8
LOSS_MARGIN = 2.2
RECALL_AT_5_MARGIN = 0.11


def default_scene(i):
    return D.generate_scene(D.SceneSpec(scene_type=D.SCENE_TYPES[i % 4]), seed=i)


@pytest.fixture(scope="module")
def gate_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("learning_gate")
    ids = []
    for i in range(TRAIN_SCENES):
        scene = default_scene(i)
        D.save_scene(scene, root / scene.scene_id)
        ids.append(scene.scene_id)
    D.write_manifest(root / "manifest.tsv", [("train", scene_id) for scene_id in ids])
    cfg = TrainConfig(epochs=EPOCHS)
    result = train(root / "manifest.tsv", cfg, EncoderConfig(), root / "run")
    trained, config, _ = load_checkpoint(result.checkpoint_path)
    initial = init_encoder_params(config, seed=cfg.seed)
    held_out = [default_scene(HELD_OUT_OFFSET + i) for i in range(HELD_OUT_SCENES)]
    return result, initial, trained, config, held_out


def test_final_epoch_loss_beats_initial_encoder(gate_run):
    result = gate_run[0]
    assert result.steps == EPOCHS * TRAIN_SCENES // 4
    assert np.isfinite(result.final_total)
    assert result.final_total <= result.initial_total - LOSS_MARGIN


def test_held_out_retrieval_beats_initial_encoder(gate_run):
    _, initial, trained, config, held_out = gate_run
    before, after = (ev.scene_retrieval(params, config, held_out, 1).recall_at[5]
                     for params in (initial, trained))
    assert after >= before + RECALL_AT_5_MARGIN
