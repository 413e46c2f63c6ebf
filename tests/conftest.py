"""Shared fixtures: a tiny on-disk dataset and a briefly trained model; a file corrupter;
a backward that records interior gradients."""

import numpy as np
import pytest

from upm import data as D
from upm import engine as E
from upm.encoder import EncoderConfig
from upm.trainer import TrainConfig, train

TINY_ENCODER = EncoderConfig(
    image_size=24,
    patch_size=8,
    embed_dim=32,
    num_blocks=1,
    num_heads=2,
    mlp_ratio=2,
    text_vocab_size=512,
    text_context_length=32,
)

TINY_TRAIN = TrainConfig(
    epochs=2,
    scenes_per_batch=2,
    views_per_scene=4,
    seed=0,
    chamfer_subsample=128,
)


def corruptions(blob: bytes, masks=(0xFF,)) -> tuple[list[bytes], list[bytes]]:
    """Every proper prefix of ``blob``, and every copy with one byte XORed by one of ``masks``."""
    truncated = [blob[:end] for end in range(len(blob))]
    flipped = [blob[:i] + bytes([blob[i] ^ mask]) + blob[i + 1:]
               for mask in masks for i in range(len(blob))]
    return truncated, flipped


def record_backward(root) -> dict:
    """Run ``E.backward(root)`` and return a copy of the gradient each interior node received.

    ``backward`` releases every interior node's ``.grad`` as it goes, so
    each rule is wrapped before the walk to copy the gradient it is handed.
    Keys are the interior nodes (those with a rule) in walk order; leaves
    keep their ``.grad`` as usual.
    """
    received: dict[E.Tensor, np.ndarray] = {}
    for node in E.trace_graph(root):
        if node._backward_fn not in (None, E._released):  # a released graph must still raise
            def recording(g, node=node, rule=node._backward_fn):
                received[node] = g.copy()
                rule(g)

            node._backward_fn = recording
    E.backward(root)
    return received


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """Twelve small scenes (three per type) with a 10/1/1 manifest."""
    root = tmp_path_factory.mktemp("tiny_dataset")
    ids = []
    for i in range(12):
        spec = D.SceneSpec(
            scene_type=D.SCENE_TYPES[i % 4],
            view_count=6,
            image_size=24,
            object_count=(2, 4),
        )
        scene = D.generate_scene(spec, seed=i)
        D.save_scene(scene, root / scene.scene_id)
        ids.append(scene.scene_id)
    D.write_manifest(root / "manifest.tsv", D.split_dataset(ids, seed=0))
    return root / "manifest.tsv"


@pytest.fixture(scope="session")
def tiny_run(tiny_dataset, tmp_path_factory):
    """A short training run over the tiny dataset."""
    out = tmp_path_factory.mktemp("tiny_run")
    result = train(tiny_dataset, TINY_TRAIN, TINY_ENCODER, out)
    return result
