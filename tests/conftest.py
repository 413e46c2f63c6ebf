"""Shared fixtures: a tiny on-disk dataset and a briefly trained model; a file corrupter
and container header editors; a backward that records interior gradients; a row
gradient made dense; the finite-difference gradient oracle."""

import json

import numpy as np
import pytest

from upm import data as D
from upm import engine as E
from upm.encoder import EncoderConfig
from upm.errors import ContractError
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


def header_end(blob: bytes) -> int:
    """Where a container's JSON header ends: after the magic, 8 length bytes and the header."""
    return 12 + int.from_bytes(blob[4:12], "little")


def rewrite_header(path, edit) -> None:
    """Replace a container's JSON header by ``edit`` of its bytes, fixing the header length."""
    blob = path.read_bytes()
    end = header_end(blob)
    header = edit(blob[12:end])
    path.write_bytes(blob[:4] + len(header).to_bytes(8, "little") + header + blob[end:])


def edit_header(path, edit) -> None:
    """Rewrite a container's parsed JSON header after ``edit`` changes it in place.

    JSON's defaults re-encode it, so an edit may put in NaN or infinity,
    which the container's writer never writes.
    """

    def edit_text(text):
        header = json.loads(text)
        edit(header)
        return json.dumps(header, sort_keys=True).encode("ascii")

    rewrite_header(path, edit_text)


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


def finite_diff_check(f, x: E.Tensor, h: float = 1e-5) -> float:
    """Max relative disagreement between analytic and central-difference grads.

    ``f`` must rebuild its computation from the current value of ``x`` on
    every call (define-by-run).  The relative error per coordinate is
    ``|analytic - numeric| / max(1, |analytic|)``.
    """
    if h <= 0:
        raise ContractError("finite_diff_check requires h > 0")
    if not x.requires_grad:
        raise ContractError("finite_diff_check requires a gradient-tracked input")
    x.grad = None
    E.backward(f(x))
    analytic = (x.grad if x.grad is not None else np.zeros_like(x.array)).ravel().copy()

    numeric = np.empty_like(analytic)
    flat = x.array.ravel()
    with E.no_grad():
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            f_plus = f(x).item()
            flat[i] = saved - h
            f_minus = f(x).item()
            flat[i] = saved
            numeric[i] = (f_plus - f_minus) / (2.0 * h)

    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(rel.max()) if rel.size else 0.0


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
