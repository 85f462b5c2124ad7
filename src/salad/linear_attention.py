"""3-axis rotary position embeddings and streaming ReLU linear attention.

The streaming form folds the keys into a d x d state first, so the branch
costs Theta(N d^2). It divides by an epsilon-guarded normalizer so a query
whose ReLU features vanish yields a zero row instead of a division error.
:func:`linear_attention_map` builds the row-normalized N x N weights of the
same form for map export only. The quadratic form the streaming one is
checked against is ``checks.linear_attention_naive``, with the other
references.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DimensionError
from .masking import LatentGrid, grid_coords
from .numerics import Array, matmul, relu, stacked_matmul

#: Denominator guard; a dead query row divides 0 by this and returns 0.
EPSILON = 1e-9

#: Default rotary frequency base.
DEFAULT_ROPE_BASE = 10000.0


@dataclass(frozen=True)
class RopeConfig:
    """Per-axis channel budget for the (t, h, w) rotary embedding.

    ``split`` lists the channels given to the temporal, height, and width
    axes; each must be even and they must sum to the head dimension.
    """

    split: tuple[int, int, int]
    base: float = DEFAULT_ROPE_BASE

    def __post_init__(self):
        if len(self.split) != 3 or any(s < 0 or s % 2 for s in self.split):
            raise ConfigError(f"rope split must be three even non-negative budgets, got {self.split}")
        if self.base <= 0:
            raise ConfigError("rope base must be positive")
        object.__setattr__(self, "split", tuple(int(s) for s in self.split))

    @property
    def head_dim(self) -> int:
        return sum(self.split)

    @staticmethod
    def default(head_dim: int, base: float = DEFAULT_ROPE_BASE) -> "RopeConfig":
        """Even split roughly proportional to (2, 1, 1), temporal largest.

        Allocates pairs: height and width each get floor(pairs/4), the
        temporal axis takes the rest.
        """
        if head_dim % 2:
            raise ConfigError("head_dim must be even")
        pairs = head_dim // 2
        ph = pairs // 4
        pw = pairs // 4
        pt = pairs - ph - pw
        return RopeConfig(split=(2 * pt, 2 * ph, 2 * pw), base=base)


def rope3d_rotate(x: Array, coords: Array, cfg: RopeConfig) -> Array:
    """Rotate channel pairs of ``x`` by position-dependent angles.

    Row m of ``coords`` holds the (t, h, w) position of row m of ``x``.
    Channels are laid out [t-budget | h-budget | w-budget]; pair i of an
    axis with budget b turns by angle coordinate * base^(-2i/b). Each
    rotation is an isometry of its pair, and a token at (0, 0, 0) is
    returned unchanged. ``x`` may hold several heads side by side (any
    multiple of the head dimension); every head turns by the same angles.
    An (S, N, C) stack turns each element alike.
    """
    x, heads = _rope_input(x, cfg)
    coords = np.asarray(coords)
    if coords.shape != (x.shape[-2], 3):
        raise DimensionError(f"coords shape {coords.shape} does not match {x.shape[-2]} rows")
    return _rotate_pairs(x, *_rope_tables(coords, cfg, heads))


def rope3d_apply(x: Array, grid: LatentGrid, cfg: RopeConfig) -> Array:
    """Apply the 3-axis rotation to a sequence in default (frame-major) order."""
    return _grid_rotate(x, grid, cfg, 1)


def _grid_rotate(x: Array, grid: LatentGrid, cfg: RopeConfig, sign: int) -> Array:
    """Turn ``x`` by ``sign`` times the grid's angles, from the cached
    tables; ``x`` is (N, C) or an (S, N, C) stack, each element turned alike."""
    x, heads = _rope_input(x, cfg)
    if x.shape[-2] != grid.seq_len:
        raise DimensionError(f"sequence length {x.shape[-2]} does not match grid N={grid.seq_len}")
    return _rotate_pairs(x, *grid_rope_tables(grid.frames, grid.height, grid.width, cfg, heads, sign))


@lru_cache(maxsize=64)
def grid_rope_tables(frames: int, height: int, width: int, cfg: RopeConfig, heads: int, sign: int) -> tuple[Array, Array]:
    """Read-only cos/sin tables of ``sign`` times a grid's coordinates, for
    ``heads`` heads side by side, built once per process for each key; sign
    -1 turns by the negated angles, the transpose the backward applies."""
    coords = grid_coords(frames, height, width)
    cos, sin = _rope_tables(-coords if sign < 0 else coords, cfg, heads)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def _rope_input(x: Array, cfg: RopeConfig) -> tuple[Array, int]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or not cfg.head_dim or x.shape[-1] % cfg.head_dim:
        raise ConfigError(f"input has {x.shape[-1] if x.ndim in (2, 3) else '?'} channels, rope split covers {cfg.head_dim}")
    return x, x.shape[-1] // cfg.head_dim


def _rope_tables(coords: Array, cfg: RopeConfig, heads: int) -> tuple[Array, Array]:
    freqs = np.concatenate([cfg.base ** (-2.0 * np.arange(b // 2, dtype=np.float64) / b) for b in cfg.split])
    axis_of_pair = np.concatenate([np.full(b // 2, a, dtype=np.int64) for a, b in enumerate(cfg.split)])
    angles = coords[:, axis_of_pair].astype(np.float64) * freqs[None, :]
    return np.tile(np.cos(angles), heads), np.tile(np.sin(angles), heads)


def _rotate_pairs(x: Array, c: Array, s: Array) -> Array:
    """Turn channel pair i of ``x`` by the angle with cosine ``c[:, i]``, sine ``s[:, i]``."""
    out = np.empty_like(x)
    out[..., 0::2] = x[..., 0::2] * c - x[..., 1::2] * s
    out[..., 1::2] = x[..., 0::2] * s + x[..., 1::2] * c
    return out


def linear_attention_map(q: Array, k: Array) -> Array:
    """Row-normalized relu(Q) relu(K)^T pair weights (naive-form weights)."""
    _check_qkv(q, k, k)
    weights = matmul(relu(q), relu(k).T)
    denom = weights.sum(axis=1) + EPSILON
    return weights / denom[:, None]


@dataclass(frozen=True)
class LinearState:
    """The streaming state one forward formed for one head: H = relu(K)^T V,
    Z = relu(K)^T 1, the numerators relu(Q) H and the guarded denominators
    relu(Q) Z + EPSILON, each with the stack axis of a stacked forward.
    The backward pass reads them instead of forming them again."""

    h: Array
    z: Array
    num: Array
    den: Array


def linear_attention_streaming(q: Array, k: Array, v: Array) -> tuple[Array, LinearState]:
    """Linear-cost ReLU linear attention: the output and the
    :class:`LinearState` it formed.

    Folds the keys once into the d x d state H = relu(K)^T V and the
    normalizer Z = relu(K)^T 1, then evaluates each query against the
    state: O_i = relu(Q_i) H / (relu(Q_i) Z + EPSILON). Algebraically
    identical to the quadratic form at Theta(N d^2) cost.

    Each of Q, K and V may be an (S, N, d) stack, the 2-D ones shared by
    every element, and each element gets the bits it gets alone: the
    products run through :func:`stacked_matmul`, and Z sums relu(K) down
    its token axis, which is never the fastest in memory, so each column
    adds its tokens in order. The numerators and the normalizer are one
    product, relu(Q) [H | Z], whose columns keep the bits of two.
    """
    _check_qkv(q, k, v)
    fk = relu(k)
    h = stacked_matmul(fk.swapaxes(-1, -2), v)
    z = fk.sum(axis=-2)
    hz = np.concatenate([h, np.broadcast_to(z[..., None], (*h.shape[:-1], 1))], axis=-1)
    terms = stacked_matmul(relu(q), hz)
    num, den = terms[..., :-1], terms[..., -1] + EPSILON
    return num / den[..., None], LinearState(h, z, num, den)


def _check_qkv(q: Array, k: Array, v: Array) -> None:
    """Q, K and V as N x d matrices or (S, N, d) stacks of them."""
    if any(a.ndim not in (2, 3) for a in (q, k, v)) or q.shape[-2:] != k.shape[-2:] or (
            v.shape[-2] != q.shape[-2]) or len({len(a) for a in (q, k, v) if a.ndim == 3}) > 1:
        raise DimensionError(f"inconsistent attention shapes q={q.shape} k={k.shape} v={v.shape}")
