"""Early-fusion view encoder over image + pointmap patch streams.

Each view is patchified twice (RGB and world-frame point coordinates),
both patch sets are linearly embedded, and the token streams are fused by
elementwise summation before a stack of pre-norm transformer blocks.  The
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
import math
import re
import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import engine as E
from .atomic import atomic_write
from .engine import Tensor
from .errors import ConfigError, ContractError, DegenerateInputError, FormatError, ShapeError

CHECKPOINT_MAGIC = b"UPM1"

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


def _build_params(config: EncoderConfig, draw: Callable[[tuple[int, ...]], np.ndarray]) -> EncoderParams:
    """The parameter layout: ``draw(shape)`` makes each random array, in a fixed order."""
    d = config.embed_dim

    def param(shape) -> Tensor:
        return Tensor(draw(shape), requires_grad=True)

    phi_i_weight = param((config.patch_dim, d))
    phi_i_bias = Tensor(np.zeros(d), requires_grad=True)
    params = EncoderParams(
        phi_i_weight=phi_i_weight,
        phi_i_bias=phi_i_bias,
        phi_p_weight=Tensor(phi_i_weight.array.copy(), requires_grad=True),
        phi_p_bias=Tensor(phi_i_bias.array.copy(), requires_grad=True),
        pos_embedding=param((config.num_patches, d)),
        cls_token=param((1, d)),
    )
    hidden = d * config.mlp_ratio
    for _ in range(config.num_blocks):
        params.blocks.append(
            BlockParams(
                ln1_gamma=Tensor(np.ones(d), requires_grad=True),
                ln1_beta=Tensor(np.zeros(d), requires_grad=True),
                wq=param((d, d)),
                bq=Tensor(np.zeros(d), requires_grad=True),
                wk=param((d, d)),
                bk=Tensor(np.zeros(d), requires_grad=True),
                wv=param((d, d)),
                bv=Tensor(np.zeros(d), requires_grad=True),
                wo=param((d, d)),
                bo=Tensor(np.zeros(d), requires_grad=True),
                ln2_gamma=Tensor(np.ones(d), requires_grad=True),
                ln2_beta=Tensor(np.zeros(d), requires_grad=True),
                w_up=param((d, hidden)),
                b_up=Tensor(np.zeros(hidden), requires_grad=True),
                w_down=param((hidden, d)),
                b_down=Tensor(np.zeros(d), requires_grad=True),
            )
        )
    params.final_gamma = Tensor(np.ones(d), requires_grad=True)
    params.final_beta = Tensor(np.zeros(d), requires_grad=True)
    params.text_table = param((config.text_vocab_size, d))
    params.text_weight = param((d, d))
    params.text_bias = Tensor(np.zeros(d), requires_grad=True)
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
# checkpoint container


def _config_record(config: EncoderConfig) -> bytes:
    lines = [
        f"image_size={config.image_size}",
        f"patch_size={config.patch_size}",
        f"embed_dim={config.embed_dim}",
        f"num_blocks={config.num_blocks}",
        f"num_heads={config.num_heads}",
        f"mlp_ratio={config.mlp_ratio}",
        f"text_vocab_size={config.text_vocab_size}",
        f"text_context_length={config.text_context_length}",
    ]
    return "\n".join(lines).encode("utf-8")


def _parse_config_record(blob: bytes) -> EncoderConfig:
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"checkpoint config record is not UTF-8: {exc}") from exc
    values = {}
    for line in text.splitlines():
        key, sep, raw = line.partition("=")
        if not sep:
            raise FormatError(f"checkpoint config line without '=': {line!r}")
        try:
            values[key.strip()] = int(raw.strip())
        except ValueError as exc:
            raise FormatError(f"checkpoint config value is not an integer: {line!r}") from exc
    try:
        return EncoderConfig(**values)
    except (TypeError, ConfigError) as exc:
        raise FormatError(f"invalid checkpoint config record: {exc}") from exc


def save_checkpoint(path, params: EncoderParams, config: EncoderConfig, extras=None) -> None:
    """Write the self-describing binary container (magic ``UPM1``), atomically.

    ``extras`` may carry additional named tensors (e.g. the loss
    temperature) that are stored after the encoder parameters.
    """
    entries = list(params.named_parameters())
    if extras:
        entries.extend(extras)
    record = _config_record(config)
    with atomic_write(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(record)))
        fh.write(record)
        fh.write(struct.pack("<I", len(entries)))
        for name, tensor in entries:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            arr = tensor.array
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[EncoderParams, EncoderConfig, dict[str, Tensor]]:
    """Read a ``UPM1`` container back into parameters + config + extras, checking every length."""
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def take(count: int) -> bytes:
        nonlocal pos
        if count > len(blob) - pos:
            raise FormatError(f"truncated checkpoint file: {path}")
        pos += count
        return blob[pos - count : pos]

    if take(4) != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic bytes in checkpoint: {path}")
    (record_len,) = struct.unpack("<I", take(4))
    config = _parse_config_record(take(record_len))
    (n_entries,) = struct.unpack("<I", take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_entries):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"checkpoint tensor name is not UTF-8: {path}") from exc
        if name in tensors:
            raise FormatError(f"checkpoint tensor {name} appears twice: {path}")
        rank = take(1)[0]
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        payload = take(8 * math.prod(dims))
        try:
            tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
        except ValueError as exc:  # a rank beyond numpy's limit
            raise FormatError(f"checkpoint tensor {name} has shape {dims}: {path}") from exc
    if pos != len(blob):
        raise FormatError(f"{len(blob) - pos} trailing bytes in checkpoint: {path}")

    params = _build_params(config, np.empty)  # every array is replaced below
    extras: dict[str, Tensor] = {}
    expected = dict(params.named_parameters())
    for name, arr in tensors.items():
        if name in expected:
            target = expected.pop(name)
            if target.array.shape != arr.shape:
                raise FormatError(f"checkpoint tensor {name} has shape {arr.shape}, "
                                  f"expected {target.array.shape}: {path}")
            target.array = np.ascontiguousarray(arr)
        else:
            extras[name] = Tensor(arr, requires_grad=True)
    if expected:
        missing = ", ".join(sorted(expected))
        raise FormatError(f"checkpoint is missing parameters [{missing}]: {path}")
    return params, config, extras
