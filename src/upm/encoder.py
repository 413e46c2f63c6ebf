"""Early-fusion view encoder over image + pointmap patch streams.

``encode_views`` takes a stack of views, (N, H, W, 3) images and their
world points, and ``embed_views`` cuts both stacks into RGB and
world-point patches, one reshape per stream, embeds both linearly, and
fuses the token streams by elementwise summation before a stack of
pre-norm transformer blocks, whose MLPs use CLIP's QuickGELU,
x * sigmoid(1.702 x) (``engine.gelu``).  The output class token,
L2-normalized, is the view embedding: a batch of N views encodes to one
unit-norm (N, d) tensor, one row per view, and a scene embedding
mean-pools a scene's rows.  A deterministic hashing text encoder stands
in for a pretrained text tower so the alignment losses can be exercised
end to end: each token hashes to a row of a table, a text is the mean of
its tokens' rows (an empty text reads the reserved row 0), and a linear
layer projects it.  The table is a fixed seeded draw, as a pretrained
tower's weights would be held fixed: it is saved and loaded with the other
parameters but never trained, so the projection is where text gradients
stop, and every gradient is a dense array.

``_parameter_layout`` is the one statement of the parameters: each
checkpoint name, in checkpoint order, with its shape and its init.
``EncoderParams`` is a dict from those names to tensors; the init, the
checkpoint writer and reader, and the forward's lookups follow the table.
``named_parameters()`` is the same table without the fixed text table.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import re
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from . import engine as E
from .config import check_fields, conforms, declared
from .container import read_arrays, write_arrays
from .engine import Tensor
from .errors import ConfigError, ContractError, DegenerateInputError, FormatError, NumericError, ShapeError

MODALITY_BOTH = "both"
MODALITY_IMAGE_ONLY = "image-only"
MODALITY_POINTMAP_ONLY = "pointmap-only"
MODALITIES = (MODALITY_BOTH, MODALITY_IMAGE_ONLY, MODALITY_POINTMAP_ONLY)

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_EMPTY_TOKEN_ID = 0
_FIXED = "text.table"  # drawn at init, saved and loaded, never trained


@dataclass(frozen=True)
class EncoderConfig:
    """The encoder's sizes and modality; ``upm.config`` checks each field's kind and range."""

    image_size: int = declared(32, int, (">", 0))
    patch_size: int = declared(8, int, (">", 0))
    embed_dim: int = declared(64, int, (">", 0))
    num_blocks: int = declared(2, int, (">=", 0))
    num_heads: int = declared(4, int, (">", 0))
    mlp_ratio: int = declared(4, int, (">", 0))
    text_vocab_size: int = declared(4096, int, (">=", 2))  # id 0 is reserved for the empty text
    text_context_length: int = declared(77, int, (">", 0))
    modality: str = declared(MODALITY_BOTH, str, ("in", MODALITIES))

    def __post_init__(self):
        check_fields(self)
        if self.image_size % self.patch_size != 0:
            raise ConfigError("image_size must be divisible by patch_size")
        if self.embed_dim % self.num_heads != 0:
            raise ConfigError("embed_dim must be divisible by num_heads")

    @property
    def num_patches(self) -> int:
        side = self.image_size // self.patch_size
        return side * side

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * 3


def paper_encoder_config() -> EncoderConfig:
    """ViT-B/16 at 224x224, as a preset only; tests never exercise it."""
    return EncoderConfig(
        image_size=224,
        patch_size=16,
        embed_dim=768,
        num_blocks=12,
        num_heads=12,
        mlp_ratio=4,
        text_vocab_size=49408,
        text_context_length=77,
    )


class EncoderParams(dict):
    """The encoder's parameters: checkpoint name to ``Tensor``, in ``_parameter_layout`` order."""

    def named_parameters(self):
        """The trained (name, tensor) pairs, in checkpoint order: every entry but the text table."""
        return ((name, tensor) for name, tensor in self.items() if name != _FIXED)


_DRAW = "N(0, 0.02)"


def _block_layout(config: EncoderConfig) -> dict[str, tuple[tuple[int, ...], float | str]]:
    """One transformer block's entries of ``_parameter_layout``, named below ``blocks.{i}.``."""
    d, hidden = config.embed_dim, config.embed_dim * config.mlp_ratio
    block = {"ln1.gamma": ((d,), 1.0), "ln1.beta": ((d,), 0.0)}
    for name in "qkvo":
        block |= {f"attn.w{name}": ((d, d), _DRAW), f"attn.b{name}": ((d,), 0.0)}
    return block | {"ln2.gamma": ((d,), 1.0), "ln2.beta": ((d,), 0.0),
                    "mlp.w_up": ((d, hidden), _DRAW), "mlp.b_up": ((hidden,), 0.0),
                    "mlp.w_down": ((hidden, d), _DRAW), "mlp.b_down": ((d,), 0.0)}


def _parameter_layout(config: EncoderConfig) -> dict[str, tuple[tuple[int, ...], float | str]]:
    """The one statement of the encoder's parameters: name to (shape, init), in checkpoint order.

    An init is ``_DRAW``, a seeded N(0, 0.02) draw made in table order; a
    constant fill; or the name of an earlier entry to copy (the pointmap
    patch embedding starts as a copy of the image one).  Init, checkpoint
    names and checkpoint checks all read this table; it allocates nothing.
    """
    d = config.embed_dim
    layout = {"phi_i.weight": ((config.patch_dim, d), _DRAW), "phi_i.bias": ((d,), 0.0),
              "phi_p.weight": ((config.patch_dim, d), "phi_i.weight"), "phi_p.bias": ((d,), 0.0),
              "pos_embedding": ((config.num_patches, d), _DRAW), "cls_token": ((1, d), _DRAW)}
    block = _block_layout(config)
    for i in range(config.num_blocks):
        layout |= {f"blocks.{i}.{name}": entry for name, entry in block.items()}
    return layout | {"final_ln.gamma": ((d,), 1.0), "final_ln.beta": ((d,), 0.0),
                     "text.table": ((config.text_vocab_size, d), _DRAW),
                     "text.weight": ((d, d), _DRAW), "text.bias": ((d,), 0.0)}


def init_encoder_params(config: EncoderConfig, seed: int = 0) -> EncoderParams:
    """Seeded initialization: one pass over ``_parameter_layout``.

    A seed that is not a nonnegative int raises ``ContractError``.
    """
    if not (conforms(int, seed) and seed >= 0):
        raise ContractError(f"seed must be a nonnegative int, got {seed!r}")
    rng = np.random.default_rng(seed)
    params = EncoderParams()
    for name, (shape, init) in _parameter_layout(config).items():
        if init == _DRAW:
            array = rng.normal(0.0, 0.02, size=shape)
        elif isinstance(init, str):
            array = params[init].array.copy()
        else:
            array = np.full(shape, init)
        params[name] = Tensor(array, requires_grad=name != _FIXED)
    return params


# ---------------------------------------------------------------------------
# forward pass


def embed_views(images: np.ndarray, points: np.ndarray, params: EncoderParams,
                config: EncoderConfig) -> Tensor:
    """Cut N views into patches, embed and fuse both streams, and prepend the class token.

    Takes the (N, H, W, 3) image stack and the pixel-aligned world-point
    stack, H = W = ``config.image_size``, and gives (N, M + 1, d) tokens.
    One reshape and transpose cuts each stack into (N, M, p*p*3) patches,
    raster order, pixel channels flattened last.  The points are taken as
    they are: ``back_project`` already writes invalid pixels as +0.0.  The
    positional table is added to the image stream only; the pointmap
    stream carries its own coordinates.  A stack of another shape raises
    ``ShapeError`` and a non-finite value ``NumericError``.
    """
    images = np.asarray(images, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    size, p = config.image_size, config.patch_size
    if images.ndim != 4 or images.shape[1:] != (size, size, 3):
        raise ShapeError(f"expected an (N, {size}, {size}, 3) image stack, got {images.shape}")
    if points.shape != images.shape:
        raise ShapeError(f"points {points.shape} are not pixel-aligned with images {images.shape}")
    if not (np.isfinite(images).all() and np.isfinite(points).all()):
        raise NumericError("non-finite image or point value in a view stack")
    n, side = len(images), size // p

    def cut(stack: np.ndarray) -> Tensor:
        grid = stack.reshape(n, side, p, side, p, 3).transpose(0, 1, 3, 2, 4, 5)
        return Tensor(np.ascontiguousarray(grid).reshape(n, side * side, config.patch_dim))

    z_image = E.add(E.linear(cut(images), params["phi_i.weight"], params["phi_i.bias"]),
                    params["pos_embedding"])
    z_points = E.linear(cut(points), params["phi_p.weight"], params["phi_p.bias"])
    fused = E.add(z_image, z_points)
    return E.concat([E.broadcast_to(params["cls_token"], (n, 1, config.embed_dim)), fused], axis=1)


def _transformer_block(x: Tensor, params: EncoderParams, index: int, num_heads: int,
                       class_token_only: bool) -> Tensor:
    """Block ``index``, pre-norm, over (N, T, d) tokens.

    Keys and values always read every token.  With ``class_token_only``
    the queries, the residual and the MLP run on the class-token row
    alone and the block returns (N, 1, d), for a last block whose other
    rows nothing reads.
    """
    def p(name: str) -> Tensor:
        return params[f"blocks.{index}.{name}"]

    h = E.layer_norm(x, p("ln1.gamma"), p("ln1.beta"))
    queries = h
    if class_token_only:
        x, queries = E.narrow(x, 1, 0, 1), E.narrow(h, 1, 0, 1)
    q = E.linear(queries, p("attn.wq"), p("attn.bq"))
    k = E.linear(h, p("attn.wk"), p("attn.bk"))
    v = E.linear(h, p("attn.wv"), p("attn.bv"))
    x = E.add(x, E.linear(E.attention(q, k, v, num_heads), p("attn.wo"), p("attn.bo")))
    h = E.layer_norm(x, p("ln2.gamma"), p("ln2.beta"))
    hidden = E.gelu(E.linear(h, p("mlp.w_up"), p("mlp.b_up")))
    return E.add(x, E.linear(hidden, p("mlp.w_down"), p("mlp.b_down")))


def encode_views(images: np.ndarray, points: np.ndarray, params: EncoderParams,
                 config: EncoderConfig) -> Tensor:
    """Encode N views, an (N, H, W, 3) image stack and its pointmaps, to (N, d) unit-norm rows.

    The stack that ``config.modality`` ablates is zeroed, and both are cut
    by ``embed_views``, the one check of their shapes and values; no views
    raise ``DegenerateInputError``.
    All views run through one stacked graph over (N, M + 1, d) tokens;
    row i has the bits it would have if view i were encoded alone.  Only
    the class token is kept: the last block runs its queries, residual and
    MLP on that row alone (keys and values still read every token), and
    with no blocks the row is taken straight from the embedded tokens.
    """
    if len(images) == 0:
        raise DegenerateInputError("cannot encode an empty view stack")
    if config.modality == MODALITY_IMAGE_ONLY:
        points = np.zeros_like(points)
    elif config.modality == MODALITY_POINTMAP_ONLY:
        images = np.zeros_like(images)
    x = embed_views(images, points, params, config)
    for i in range(config.num_blocks):
        x = _transformer_block(x, params, i, config.num_heads,
                               class_token_only=i == config.num_blocks - 1)
    if config.num_blocks == 0:
        x = E.narrow(x, 1, 0, 1)
    x = E.layer_norm(x, params["final_ln.gamma"], params["final_ln.beta"])
    return E.normalize_rows(E.reshape(x, (len(images), config.embed_dim)))


def pool_scene(view_embeddings: Tensor, counts: Sequence[int]) -> Tensor:
    """Each scene's mean view embedding, re-normalized: an (S, d) tensor of unit rows.

    Scene s owns ``counts[s]`` consecutive rows of the (N, d) embeddings;
    one (S, N) averaging matmul pools every scene.
    """
    if not counts or min(counts) < 1:
        raise DegenerateInputError("cannot pool an empty scene")
    weights = np.repeat(np.diag(1.0 / np.asarray(counts, float)), counts, axis=1)
    return E.normalize_rows(E.matmul(Tensor(weights), view_embeddings))


# ---------------------------------------------------------------------------
# text encoding


def tokenize(text: str, context_length: int) -> list[str]:
    return _TOKEN_RE.findall(text.lower())[:context_length]


@functools.lru_cache(maxsize=1 << 16)
def _token_id(token: str, vocab_size: int) -> int:
    """A token's table row from the md5 of its UTF-8 bytes, never the reserved row 0."""
    digest = hashlib.md5(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % (vocab_size - 1) + 1


def token_ids(text: str, config: EncoderConfig) -> list[int]:
    tokens = tokenize(text, config.text_context_length)
    if not tokens:
        return [_EMPTY_TOKEN_ID]
    return [_token_id(t, config.text_vocab_size) for t in tokens]


def encode_texts(texts: Sequence[str], params: EncoderParams, config: EncoderConfig) -> Tensor:
    """Encode a batch of strings to unit-norm rows of an (n, d) tensor.

    Each text is the mean of its token ids' rows of the fixed table, one
    ``np.add.reduceat`` over the batch's flat ids, fed as a constant to the
    trained linear projection.
    """
    if len(texts) == 0:
        raise DegenerateInputError("cannot encode an empty text batch")
    bags = [token_ids(text, config) for text in texts]
    lengths = [len(bag) for bag in bags]
    offsets = np.cumsum([0] + lengths[:-1])
    ids = np.fromiter(itertools.chain.from_iterable(bags), dtype=np.int64)
    pooled = np.add.reduceat(params[_FIXED].array[ids], offsets, axis=0) / np.array(lengths)[:, None]
    return E.normalize_rows(E.linear(Tensor(pooled), params["text.weight"], params["text.bias"]))


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: EncoderParams, config: EncoderConfig, extras=None) -> None:
    """Write a ``container`` of the encoder config and the named parameters, atomically.

    The metadata is ``{"encoder": asdict(config)}``, the sizes and the
    ``modality`` string; the arrays are every ``_parameter_layout`` entry,
    the fixed text table too, in its order, then ``extras``, such as the
    temperature.
    """
    entries = [*params.items(), *(extras or [])]
    write_arrays(path, {"encoder": asdict(config)},
                 [(name, tensor.array) for name, tensor in entries])


def load_checkpoint(path) -> tuple[EncoderParams, EncoderConfig, dict[str, Tensor]]:
    """Read a checkpoint back into parameters, config and extras.

    A malformed file, a config record that does not name exactly
    ``EncoderConfig``'s fields or that its constructor refuses, and a
    parameter that is missing or of the wrong shape raise ``FormatError``;
    an extra is an array that is not a parameter.
    Names and shapes are checked against ``_parameter_layout``, which
    allocates nothing, and the parameters wrap the arrays read.
    """
    meta, tensors = read_arrays(path)
    try:
        record = meta["encoder"]
        config = EncoderConfig(**record)  # TypeError for an unknown field or a record not a mapping
        if len(record) != len(fields(config)):
            raise TypeError(f"the encoder config {record!r} lacks some of EncoderConfig's fields")
    except (KeyError, TypeError, ConfigError) as exc:
        raise FormatError(f"invalid checkpoint config in {path}: {exc}") from exc

    # Checked before the table is built: a huge num_blocks would make a huge table.
    if config.num_blocks * len(_block_layout(config)) > len(tensors):
        raise FormatError(f"checkpoint holds {len(tensors)} arrays, too few for "
                          f"{config.num_blocks} blocks: {path}")
    layout = _parameter_layout(config)
    for name, arr in tensors.items():
        if name in layout and arr.shape != layout[name][0]:
            raise FormatError(f"checkpoint tensor {name} has shape {arr.shape}, "
                              f"expected {layout[name][0]}: {path}")
    missing = sorted(layout.keys() - tensors.keys())
    if missing:
        raise FormatError(f"checkpoint is missing parameters [{', '.join(missing)}]: {path}")
    params = EncoderParams((name, Tensor(tensors.pop(name), requires_grad=name != _FIXED))
                           for name in layout)
    return params, config, {name: Tensor(arr, requires_grad=True) for name, arr in tensors.items()}
