"""Early-fusion view encoder over image + pointmap patch streams.

Each view is patchified twice (RGB and world-frame point coordinates),
both patch sets are linearly embedded, and the token streams are fused by
elementwise summation before a stack of pre-norm transformer blocks.  The
output class token, L2-normalized, is the view embedding: a batch of N
views encodes to one unit-norm (N, d) tensor, one row per view, and a
scene embedding mean-pools a scene's rows.  A deterministic hashing text
encoder stands in for a pretrained text tower so the alignment losses can
be exercised end to end.
"""

from __future__ import annotations

import hashlib
import re
import struct
from dataclasses import dataclass, field
from typing import Sequence

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


def _param(rng, shape, std=0.02) -> Tensor:
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


def init_encoder_params(config: EncoderConfig, seed: int = 0) -> EncoderParams:
    """Seeded initialization; the pointmap patch embedding copies the image one."""
    rng = np.random.default_rng(seed)
    d = config.embed_dim
    phi_i_weight = _param(rng, (config.patch_dim, d))
    phi_i_bias = Tensor(np.zeros(d), requires_grad=True)
    params = EncoderParams(
        phi_i_weight=phi_i_weight,
        phi_i_bias=phi_i_bias,
        phi_p_weight=Tensor(phi_i_weight.array.copy(), requires_grad=True),
        phi_p_bias=Tensor(phi_i_bias.array.copy(), requires_grad=True),
        pos_embedding=_param(rng, (config.num_patches, d)),
        cls_token=_param(rng, (1, d)),
    )
    hidden = d * config.mlp_ratio
    for _ in range(config.num_blocks):
        params.blocks.append(
            BlockParams(
                ln1_gamma=Tensor(np.ones(d), requires_grad=True),
                ln1_beta=Tensor(np.zeros(d), requires_grad=True),
                wq=_param(rng, (d, d)),
                bq=Tensor(np.zeros(d), requires_grad=True),
                wk=_param(rng, (d, d)),
                bk=Tensor(np.zeros(d), requires_grad=True),
                wv=_param(rng, (d, d)),
                bv=Tensor(np.zeros(d), requires_grad=True),
                wo=_param(rng, (d, d)),
                bo=Tensor(np.zeros(d), requires_grad=True),
                ln2_gamma=Tensor(np.ones(d), requires_grad=True),
                ln2_beta=Tensor(np.zeros(d), requires_grad=True),
                w_up=_param(rng, (d, hidden)),
                b_up=Tensor(np.zeros(hidden), requires_grad=True),
                w_down=_param(rng, (hidden, d)),
                b_down=Tensor(np.zeros(d), requires_grad=True),
            )
        )
    params.final_gamma = Tensor(np.ones(d), requires_grad=True)
    params.final_beta = Tensor(np.zeros(d), requires_grad=True)
    params.text_table = _param(rng, (config.text_vocab_size, d))
    params.text_weight = _param(rng, (d, d))
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
        E.add(E.matmul(Tensor(image_patches), params.phi_i_weight), params.phi_i_bias),
        params.pos_embedding,
    )
    z_points = E.add(E.matmul(Tensor(point_patches), params.phi_p_weight), params.phi_p_bias)
    fused = E.add(z_image, z_points)
    n, _, d = fused.shape
    return E.concat([E.broadcast_to(params.cls_token, (n, 1, d)), fused], axis=1)


def _attention(x: Tensor, blk: BlockParams, num_heads: int) -> Tensor:
    q = E.add(E.matmul(x, blk.wq), blk.bq)
    k = E.add(E.matmul(x, blk.wk), blk.bk)
    v = E.add(E.matmul(x, blk.wv), blk.bv)
    return E.add(E.matmul(E.attention(q, k, v, num_heads), blk.wo), blk.bo)


def _mlp(x: Tensor, blk: BlockParams) -> Tensor:
    hidden = E.gelu(E.add(E.matmul(x, blk.w_up), blk.b_up))
    return E.add(E.matmul(hidden, blk.w_down), blk.b_down)


def _transformer_block(x: Tensor, blk: BlockParams, num_heads: int) -> Tensor:
    x = E.add(x, _attention(E.layer_norm(x, blk.ln1_gamma, blk.ln1_beta), blk, num_heads))
    return E.add(x, _mlp(E.layer_norm(x, blk.ln2_gamma, blk.ln2_beta), blk))


def encode_views(
    views: Sequence[tuple[np.ndarray, np.ndarray]],
    params: EncoderParams,
    config: EncoderConfig,
    modality: str = MODALITY_BOTH,
) -> Tensor:
    """Encode N (image, points) pairs, each (H, W, 3), to an (N, d) tensor of unit-norm rows.

    All views run through one stacked graph over (N, M + 1, d) tokens;
    row i has the bits it would have if view i were encoded alone.
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
    for blk in params.blocks:
        x = _transformer_block(x, blk, config.num_heads)
    x = E.layer_norm(x, params.final_gamma, params.final_beta)
    return E.normalize_rows(E.reshape(E.narrow(x, 1, 0, 1), (len(views), config.embed_dim)))


def pool_scene(view_embeddings: Tensor) -> Tensor:
    """Mean of a scene's (V, d) view embeddings, re-normalized to a unit (1, d) row."""
    n_views = view_embeddings.shape[0]
    if n_views == 0:
        raise DegenerateInputError("cannot pool an empty scene")
    weights = Tensor(np.full((1, n_views), 1.0 / n_views))
    return E.normalize_rows(E.matmul(weights, view_embeddings))


# ---------------------------------------------------------------------------
# text encoding


def tokenize(text: str, context_length: int) -> list[str]:
    return _TOKEN_RE.findall(text.lower())[:context_length]


def _token_id(token: str, vocab_size: int) -> int:
    digest = hashlib.md5(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % (vocab_size - 1) + 1


def token_ids(text: str, config: EncoderConfig) -> list[int]:
    tokens = tokenize(text, config.text_context_length)
    if not tokens:
        return [_EMPTY_TOKEN_ID]
    return [_token_id(t, config.text_vocab_size) for t in tokens]


def encode_texts(texts: Sequence[str], params: EncoderParams, config: EncoderConfig) -> Tensor:
    """Encode a batch of strings to unit-norm rows of an (n, d) tensor."""
    if len(texts) == 0:
        raise DegenerateInputError("cannot encode an empty text batch")
    selection = np.zeros((len(texts), config.text_vocab_size))
    for row, text in enumerate(texts):
        ids = token_ids(text, config)
        for tid in ids:
            selection[row, tid] += 1.0 / len(ids)
    pooled = E.matmul(Tensor(selection), params.text_table)
    projected = E.add(E.matmul(pooled, params.text_weight), params.text_bias)
    return E.normalize_rows(projected)


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


def _read_exact(fh, count: int, path) -> bytes:
    blob = fh.read(count)
    if len(blob) != count:
        raise FormatError(f"truncated checkpoint file: {path}")
    return blob


def load_checkpoint(path) -> tuple[EncoderParams, EncoderConfig, dict[str, Tensor]]:
    """Read a ``UPM1`` container back into parameters + config + extras."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, path) != CHECKPOINT_MAGIC:
            raise FormatError(f"bad magic bytes in checkpoint: {path}")
        (record_len,) = struct.unpack("<I", _read_exact(fh, 4, path))
        config = _parse_config_record(_read_exact(fh, record_len, path))
        (n_entries,) = struct.unpack("<I", _read_exact(fh, 4, path))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(n_entries):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, path))
            try:
                name = _read_exact(fh, name_len, path).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"checkpoint tensor name is not UTF-8: {path}") from exc
            (rank,) = struct.unpack("<B", _read_exact(fh, 1, path))
            dims = [struct.unpack("<I", _read_exact(fh, 4, path))[0] for _ in range(rank)]
            count = int(np.prod(dims)) if dims else 1
            payload = _read_exact(fh, count * 8, path)
            tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()

    params = init_encoder_params(config, seed=0)
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
