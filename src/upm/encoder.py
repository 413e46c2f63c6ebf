"""Early-fusion view encoder over image + pointmap patch streams.

Each view is patchified twice (RGB and world-frame point coordinates),
both patch sets are linearly embedded, and the token streams are fused by
elementwise summation before a stack of pre-norm transformer blocks, whose
MLPs use CLIP's QuickGELU, x * sigmoid(1.702 x) (``engine.gelu``).  The
output class token, L2-normalized, is the view embedding: a batch of N
views encodes to one unit-norm (N, d) tensor, one row per view, and a
scene embedding mean-pools a scene's rows.  A deterministic hashing text
encoder stands in for a pretrained text tower so the alignment losses can
be exercised end to end: each token hashes to a row of a learned table,
a text is the mean of its tokens' rows (an embedding bag; an empty text
reads the reserved row 0), and a linear layer projects it.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import re
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import engine as E
from .container import read_arrays, write_arrays
from .engine import Tensor
from .errors import ConfigError, ContractError, DegenerateInputError, FormatError, ShapeError

MODALITY_BOTH = "both"
MODALITY_IMAGE_ONLY = "image-only"
MODALITY_POINTMAP_ONLY = "pointmap-only"
MODALITIES = (MODALITY_BOTH, MODALITY_IMAGE_ONLY, MODALITY_POINTMAP_ONLY)

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_EMPTY_TOKEN_ID = 0


@dataclass(frozen=True)
class EncoderConfig:
    image_size: int = 32
    patch_size: int = 8
    embed_dim: int = 64
    num_blocks: int = 2
    num_heads: int = 4
    mlp_ratio: int = 4
    text_vocab_size: int = 4096
    text_context_length: int = 77

    def __post_init__(self):
        sizes = ("image_size", "patch_size", "embed_dim", "num_heads", "mlp_ratio",
                 "text_context_length")
        for name in sizes:
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.num_blocks < 0:
            raise ConfigError(f"num_blocks must be nonnegative, got {self.num_blocks}")
        if self.text_vocab_size < 2:  # id 0 is reserved for the empty text
            raise ConfigError(f"text_vocab_size must be at least 2, got {self.text_vocab_size}")
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


@dataclass
class BlockParams:
    ln1_gamma: Tensor
    ln1_beta: Tensor
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor
    w_up: Tensor
    b_up: Tensor
    w_down: Tensor
    b_down: Tensor


@dataclass
class EncoderParams:
    phi_i_weight: Tensor
    phi_i_bias: Tensor
    phi_p_weight: Tensor
    phi_p_bias: Tensor
    pos_embedding: Tensor
    cls_token: Tensor
    blocks: list[BlockParams] = field(default_factory=list)
    final_gamma: Tensor = None
    final_beta: Tensor = None
    text_table: Tensor = None
    text_weight: Tensor = None
    text_bias: Tensor = None

    def named_parameters(self):
        """(name, tensor) pairs in a fixed, checkpoint-stable order."""
        yield "phi_i.weight", self.phi_i_weight
        yield "phi_i.bias", self.phi_i_bias
        yield "phi_p.weight", self.phi_p_weight
        yield "phi_p.bias", self.phi_p_bias
        yield "pos_embedding", self.pos_embedding
        yield "cls_token", self.cls_token
        for i, blk in enumerate(self.blocks):
            prefix = f"blocks.{i}."
            yield prefix + "ln1.gamma", blk.ln1_gamma
            yield prefix + "ln1.beta", blk.ln1_beta
            yield prefix + "attn.wq", blk.wq
            yield prefix + "attn.bq", blk.bq
            yield prefix + "attn.wk", blk.wk
            yield prefix + "attn.bk", blk.bk
            yield prefix + "attn.wv", blk.wv
            yield prefix + "attn.bv", blk.bv
            yield prefix + "attn.wo", blk.wo
            yield prefix + "attn.bo", blk.bo
            yield prefix + "ln2.gamma", blk.ln2_gamma
            yield prefix + "ln2.beta", blk.ln2_beta
            yield prefix + "mlp.w_up", blk.w_up
            yield prefix + "mlp.b_up", blk.b_up
            yield prefix + "mlp.w_down", blk.w_down
            yield prefix + "mlp.b_down", blk.b_down
        yield "final_ln.gamma", self.final_gamma
        yield "final_ln.beta", self.final_beta
        yield "text.table", self.text_table
        yield "text.weight", self.text_weight
        yield "text.bias", self.text_bias


def init_encoder_params(config: EncoderConfig, seed: int = 0) -> EncoderParams:
    """Seeded initialization; the pointmap patch embedding copies the image one."""
    rng = np.random.default_rng(seed)
    return _build_params(config, lambda shape: rng.normal(0.0, 0.02, size=shape))


def _parameter_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Each parameter's shape by name, in ``named_parameters()`` order, allocating nothing."""
    d, hidden = config.embed_dim, config.embed_dim * config.mlp_ratio
    shapes = {"phi_i.weight": (config.patch_dim, d), "phi_i.bias": (d,),
              "phi_p.weight": (config.patch_dim, d), "phi_p.bias": (d,),
              "pos_embedding": (config.num_patches, d), "cls_token": (1, d)}
    block = {"ln1.gamma": (d,), "ln1.beta": (d,)}
    for name in ("q", "k", "v", "o"):
        block |= {f"attn.w{name}": (d, d), f"attn.b{name}": (d,)}
    block |= {"ln2.gamma": (d,), "ln2.beta": (d,), "mlp.w_up": (d, hidden), "mlp.b_up": (hidden,),
              "mlp.w_down": (hidden, d), "mlp.b_down": (d,)}
    for i in range(config.num_blocks):
        shapes |= {f"blocks.{i}.{name}": shape for name, shape in block.items()}
    return shapes | {"final_ln.gamma": (d,), "final_ln.beta": (d,),
                     "text.table": (config.text_vocab_size, d), "text.weight": (d, d),
                     "text.bias": (d,)}


def _build_params(config: EncoderConfig, draw: Callable[[tuple[int, ...]], np.ndarray]) -> EncoderParams:
    """The parameter layout: ``draw(shape)`` makes each random array, in a fixed order.

    Shapes come from ``_parameter_shapes``; biases and betas start at
    zero, gammas at one.
    """
    shapes = _parameter_shapes(config)

    def param(name: str) -> Tensor:
        return Tensor(draw(shapes[name]), requires_grad=True)

    def const(name: str, value: float = 0.0) -> Tensor:
        return Tensor(np.full(shapes[name], value), requires_grad=True)

    phi_i_weight = param("phi_i.weight")
    params = EncoderParams(
        phi_i_weight=phi_i_weight,
        phi_i_bias=const("phi_i.bias"),
        phi_p_weight=Tensor(phi_i_weight.array.copy(), requires_grad=True),
        phi_p_bias=const("phi_p.bias"),
        pos_embedding=param("pos_embedding"),
        cls_token=param("cls_token"),
    )
    for i in range(config.num_blocks):
        prefix = f"blocks.{i}."
        params.blocks.append(
            BlockParams(
                ln1_gamma=const(prefix + "ln1.gamma", 1.0),
                ln1_beta=const(prefix + "ln1.beta"),
                wq=param(prefix + "attn.wq"),
                bq=const(prefix + "attn.bq"),
                wk=param(prefix + "attn.wk"),
                bk=const(prefix + "attn.bk"),
                wv=param(prefix + "attn.wv"),
                bv=const(prefix + "attn.bv"),
                wo=param(prefix + "attn.wo"),
                bo=const(prefix + "attn.bo"),
                ln2_gamma=const(prefix + "ln2.gamma", 1.0),
                ln2_beta=const(prefix + "ln2.beta"),
                w_up=param(prefix + "mlp.w_up"),
                b_up=const(prefix + "mlp.b_up"),
                w_down=param(prefix + "mlp.w_down"),
                b_down=const(prefix + "mlp.b_down"),
            )
        )
    params.final_gamma = const("final_ln.gamma", 1.0)
    params.final_beta = const("final_ln.beta")
    params.text_table = param("text.table")
    params.text_weight = param("text.weight")
    params.text_bias = const("text.bias")
    return params


# ---------------------------------------------------------------------------
# patchification


def patchify(image: np.ndarray, points: np.ndarray, patch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a view's image and world points, each (H, W, 3), into patches, raster order.

    Returns (image patches, pointmap patches), each M x (p*p*3) with the
    pixel channels flattened last.  The points are taken as they are:
    ``back_project`` already writes invalid pixels as +0.0.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ShapeError(f"image must be HxWx3, got {image.shape}")
    h, w = image.shape[:2]
    if h != w:
        raise ShapeError(f"expected a square view, got {h}x{w}")
    points = np.asarray(points, dtype=np.float64)
    if points.shape != image.shape:
        raise ShapeError("pointmap is not pixel-aligned with the image")
    if h % patch_size != 0:
        raise ShapeError(f"view size {h} not divisible by patch size {patch_size}")
    return _to_patches(image, patch_size), _to_patches(points, patch_size)


def _to_patches(grid: np.ndarray, p: int) -> np.ndarray:
    h, w, c = grid.shape
    rows, cols = h // p, w // p
    patches = grid.reshape(rows, p, cols, p, c).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(patches.reshape(rows * cols, p * p * c))


# ---------------------------------------------------------------------------
# forward pass


def embed_views(image_patches: np.ndarray, point_patches: np.ndarray, params: EncoderParams) -> Tensor:
    """Fuse the two patch streams of N views and prepend the class token.

    Takes (N, M, p*p*3) patch stacks and gives (N, M + 1, d) tokens.  The
    positional table is added to the image stream only; the pointmap
    stream carries its own coordinates.
    """
    if image_patches.shape != point_patches.shape:
        raise ShapeError("patch streams disagree in shape")
    if image_patches.ndim != 3 or image_patches.shape[1] != params.pos_embedding.shape[0]:
        raise ShapeError(
            f"got patch stack {image_patches.shape}, positional table has "
            f"{params.pos_embedding.shape[0]} rows"
        )
    z_image = E.add(
        E.linear(Tensor(image_patches), params.phi_i_weight, params.phi_i_bias),
        params.pos_embedding,
    )
    z_points = E.linear(Tensor(point_patches), params.phi_p_weight, params.phi_p_bias)
    fused = E.add(z_image, z_points)
    n, _, d = fused.shape
    return E.concat([E.broadcast_to(params.cls_token, (n, 1, d)), fused], axis=1)


def _mlp(x: Tensor, blk: BlockParams) -> Tensor:
    hidden = E.gelu(E.linear(x, blk.w_up, blk.b_up))
    return E.linear(hidden, blk.w_down, blk.b_down)


def _transformer_block(x: Tensor, blk: BlockParams, num_heads: int, class_token_only: bool) -> Tensor:
    """One pre-norm block over (N, T, d) tokens.

    Keys and values always read every token.  With ``class_token_only``
    the queries, the residual and the MLP run on the class-token row
    alone and the block returns (N, 1, d), for a last block whose other
    rows nothing reads.
    """
    h = E.layer_norm(x, blk.ln1_gamma, blk.ln1_beta)
    queries = h
    if class_token_only:
        x, queries = E.narrow(x, 1, 0, 1), E.narrow(h, 1, 0, 1)
    q = E.linear(queries, blk.wq, blk.bq)
    k = E.linear(h, blk.wk, blk.bk)
    v = E.linear(h, blk.wv, blk.bv)
    x = E.add(x, E.linear(E.attention(q, k, v, num_heads), blk.wo, blk.bo))
    return E.add(x, _mlp(E.layer_norm(x, blk.ln2_gamma, blk.ln2_beta), blk))


def encode_views(
    views: Sequence[tuple[np.ndarray, np.ndarray]],
    params: EncoderParams,
    config: EncoderConfig,
    modality: str = MODALITY_BOTH,
) -> Tensor:
    """Encode N (image, points) pairs, each (H, W, 3), to an (N, d) tensor of unit-norm rows.

    All views run through one stacked graph over (N, M + 1, d) tokens;
    row i has the bits it would have if view i were encoded alone.  Only
    the class token is kept: the last block runs its queries, residual and
    MLP on that row alone (keys and values still read every token), and
    with no blocks the row is taken straight from the embedded tokens.
    """
    if modality not in MODALITIES:
        raise ContractError(f"unknown modality {modality!r}")
    if len(views) == 0:
        raise DegenerateInputError("cannot encode an empty view list")
    patches = [patchify(image, points, config.patch_size) for image, points in views]
    image_patches = np.stack([ip for ip, _ in patches])
    point_patches = np.stack([pp for _, pp in patches])
    if modality == MODALITY_IMAGE_ONLY:
        point_patches = np.zeros_like(point_patches)
    elif modality == MODALITY_POINTMAP_ONLY:
        image_patches = np.zeros_like(image_patches)
    x = embed_views(image_patches, point_patches, params)
    for blk in params.blocks[:-1]:
        x = _transformer_block(x, blk, config.num_heads, class_token_only=False)
    if params.blocks:
        x = _transformer_block(x, params.blocks[-1], config.num_heads, class_token_only=True)
    else:
        x = E.narrow(x, 1, 0, 1)
    x = E.layer_norm(x, params.final_gamma, params.final_beta)
    return E.normalize_rows(E.reshape(x, (len(views), config.embed_dim)))


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

    Each text is the mean of its token ids' table rows (one
    ``embedding_bag`` over the batch's flat ids), then a linear projection.
    """
    if len(texts) == 0:
        raise DegenerateInputError("cannot encode an empty text batch")
    bags = [token_ids(text, config) for text in texts]
    offsets = np.cumsum([0] + [len(bag) for bag in bags[:-1]])
    ids = np.fromiter(itertools.chain.from_iterable(bags), dtype=np.int64)
    pooled = E.embedding_bag(params.text_table, ids, offsets)
    return E.normalize_rows(E.linear(pooled, params.text_weight, params.text_bias))


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: EncoderParams, config: EncoderConfig, extras=None) -> None:
    """Write a ``container`` of the encoder config and the named parameters, atomically.

    The metadata is ``{"encoder": asdict(config)}``; the arrays are the
    parameters in ``named_parameters()`` order, then ``extras``, further
    named tensors such as the loss temperature.
    """
    entries = [*params.named_parameters(), *(extras or [])]
    write_arrays(path, {"encoder": asdict(config)},
                 [(name, tensor.array) for name, tensor in entries])


def load_checkpoint(path) -> tuple[EncoderParams, EncoderConfig, dict[str, Tensor]]:
    """Read a checkpoint back into parameters, config and extras.

    A malformed file, a config that is not exactly the integer fields of
    ``EncoderConfig``, and a parameter that is missing or of the wrong
    shape raise ``FormatError``; an array that is not a parameter is an extra.
    The shapes are checked against the arrays read before any parameter is
    built, so a config that asks for more than the file holds allocates
    nothing.
    """
    meta, tensors = read_arrays(path)
    try:
        fields = meta["encoder"]
        if not (isinstance(fields, dict) and all(type(v) is int for v in fields.values())):
            raise TypeError(f"the encoder config {fields!r} does not hold integers only")
        config = EncoderConfig(**fields)
        if asdict(config) != fields:
            raise TypeError(f"the encoder config {fields!r} lacks a field")
    except (KeyError, TypeError, ConfigError) as exc:
        raise FormatError(f"invalid checkpoint config in {path}: {exc}") from exc

    if 16 * config.num_blocks > len(tensors):  # each block has 16 parameters
        raise FormatError(f"checkpoint holds {len(tensors)} arrays, too few for "
                          f"{config.num_blocks} blocks: {path}")
    shapes = _parameter_shapes(config)
    for name, arr in tensors.items():
        if name in shapes and arr.shape != shapes[name]:
            raise FormatError(f"checkpoint tensor {name} has shape {arr.shape}, "
                              f"expected {shapes[name]}: {path}")
    missing = sorted(shapes.keys() - tensors.keys())
    if missing:
        raise FormatError(f"checkpoint is missing parameters [{', '.join(missing)}]: {path}")
    params = _build_params(config, np.empty)  # no larger than the arrays read; each is replaced
    for name, target in params.named_parameters():
        target.array = tensors.pop(name)
    return params, config, {name: Tensor(arr, requires_grad=True) for name, arr in tensors.items()}
