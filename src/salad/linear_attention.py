"""ReLU linear attention and 3-axis rotary position embeddings.

The quadratic ("naive") form materializes every query-key weight; the
streaming form folds the keys into a d x d state first and is the one the
block uses. Both divide by an epsilon-guarded normalizer so a query whose
ReLU features vanish yields a zero row instead of a division error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .masking import LatentGrid
from .numerics import Array, matmul, relu

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


def _pair_freqs(budget: int, base: float) -> Array:
    if budget == 0:
        return np.zeros(0)
    i = np.arange(budget // 2, dtype=np.float64)
    return base ** (-2.0 * i / budget)


def rope3d_rotate(x: Array, coords: Array, cfg: RopeConfig) -> Array:
    """Rotate channel pairs of ``x`` by position-dependent angles.

    Row m of ``coords`` holds the (t, h, w) position of row m of ``x``.
    Channels are laid out [t-budget | h-budget | w-budget]; pair i of an
    axis with budget b turns by angle coordinate * base^(-2i/b). Each
    rotation is an isometry of its pair, and a token at (0, 0, 0) is
    returned unchanged. ``x`` may hold several heads side by side (any
    multiple of the head dimension); every head turns by the same angles.
    """
    x = np.asarray(x, dtype=np.float64)
    coords = np.asarray(coords)
    if x.ndim != 2 or not cfg.head_dim or x.shape[1] % cfg.head_dim:
        raise ConfigError(f"input has {x.shape[1] if x.ndim == 2 else '?'} channels, rope split covers {cfg.head_dim}")
    if coords.shape != (x.shape[0], 3):
        raise DimensionError(f"coords shape {coords.shape} does not match {x.shape[0]} rows")
    freqs = np.concatenate([_pair_freqs(b, cfg.base) for b in cfg.split])
    axis_of_pair = np.concatenate([np.full(b // 2, a, dtype=np.int64) for a, b in enumerate(cfg.split)])
    angles = coords[:, axis_of_pair].astype(np.float64) * freqs[None, :]
    heads = x.shape[1] // cfg.head_dim
    c = np.tile(np.cos(angles), heads)
    s = np.tile(np.sin(angles), heads)
    x0 = x[:, 0::2]
    x1 = x[:, 1::2]
    out = np.empty_like(x)
    out[:, 0::2] = x0 * c - x1 * s
    out[:, 1::2] = x0 * s + x1 * c
    return out


def rope3d_apply(x: Array, grid: LatentGrid, cfg: RopeConfig) -> Array:
    """Apply the 3-axis rotation to a sequence in default (frame-major) order."""
    if x.shape[0] != grid.seq_len:
        raise DimensionError(f"sequence length {x.shape[0]} does not match grid N={grid.seq_len}")
    return rope3d_rotate(x, grid.coords(), cfg)


def linear_attention_naive(q: Array, k: Array, v: Array) -> Array:
    """Quadratic-form ReLU linear attention.

    Materializes the full pair-weight matrix relu(Q) relu(K)^T, normalizes
    each row by its sum plus EPSILON, and averages the values. Kept as the
    reference the streaming form is checked against, and as the source of
    row-normalized maps for visualization.
    """
    _check_qkv(q, k, v)
    fq = relu(q)
    fk = relu(k)
    weights = matmul(fq, fk.T)
    denom = weights.sum(axis=1) + EPSILON
    return matmul(weights, v) / denom[:, None]


def linear_attention_map(q: Array, k: Array) -> Array:
    """Row-normalized relu(Q) relu(K)^T pair weights (naive-form weights)."""
    _check_qkv(q, k, k)
    weights = matmul(relu(q), relu(k).T)
    denom = weights.sum(axis=1) + EPSILON
    return weights / denom[:, None]


def linear_attention_streaming(q: Array, k: Array, v: Array) -> Array:
    """Linear-cost ReLU linear attention.

    Folds the keys once into the d x d state H = relu(K)^T V and the
    normalizer Z = relu(K)^T 1, then evaluates each query against the
    state: O_i = relu(Q_i) H / (relu(Q_i) Z + EPSILON). Algebraically
    identical to the quadratic form at Theta(N d^2) cost.
    """
    _, _, _, _, num, den = streaming_terms(q, k, v)
    return num / den[:, None]


def streaming_terms(q: Array, k: Array, v: Array) -> tuple[Array, ...]:
    """(relu(Q), relu(K), H, Z, numerators, guarded denominators) of the
    streaming form; the backward pass reuses them."""
    _check_qkv(q, k, v)
    fq = relu(q)
    fk = relu(k)
    h = matmul(fk.T, v)
    z = fk.sum(axis=0)
    return fq, fk, h, z, matmul(fq, h), matmul(fq, z[:, None])[:, 0] + EPSILON


def linear_branch_flops(n: int, d: int) -> int:
    """FLOPs of one streaming evaluation under the 2-FLOPs-per-MAC convention.

    4*N*d^2 covers building H and the per-query products against it;
    2*N*d covers Z and the per-query normalizers.
    """
    return 4 * n * d * d + 2 * n * d


def _check_qkv(q: Array, k: Array, v: Array) -> None:
    if q.ndim != 2 or q.shape != k.shape or v.shape[0] != q.shape[0] or v.ndim != 2:
        raise DimensionError(f"inconsistent attention shapes q={q.shape} k={k.shape} v={v.shape}")
