"""Sparse attention plans: construction, calibration, and accounting.

A :class:`MaskPlan` carries one entry per attention head. Window entries
realize a symmetric band |i - j| <= r (optionally after the spatial-major
token reorder); top-k entries select key blocks dynamically from the
actual queries and keys; explicit entries carry a full boolean mask.
Every realized mask keeps the diagonal true, so no query is ever left
without a key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BlockCountError, ConfigError, DegenerateRowError, DimensionError, StateError
from .numerics import Array, matmul, softmax_masked

#: Default relative-squared-error budget for window calibration.
DEFAULT_CALIBRATION_DELTA = 2.0

#: Default number of key blocks each query block keeps in top-k plans.
DEFAULT_TOPK = 4


@dataclass(frozen=True)
class LatentGrid:
    """Geometry of a flattened video latent: frames x height x width tokens.

    The default token order is frame-major: token (t, h, w) sits at index
    t * height * width + h * width + w.
    """

    frames: int
    height: int
    width: int
    heads: int
    head_dim: int

    def __post_init__(self):
        for name in ("frames", "height", "width", "heads", "head_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"grid.{name} must be positive")
        if self.head_dim % 2 != 0:
            raise ConfigError("head_dim must be even (rotary channel pairing)")

    @property
    def seq_len(self) -> int:
        return self.frames * self.height * self.width

    @property
    def channels(self) -> int:
        return self.heads * self.head_dim

    def coords(self) -> Array:
        """(N, 3) integer array of (t, h, w) per token in default order."""
        t, h, w = np.meshgrid(
            np.arange(self.frames),
            np.arange(self.height),
            np.arange(self.width),
            indexing="ij",
        )
        return np.stack([t.ravel(), h.ravel(), w.ravel()], axis=1)


@dataclass(frozen=True)
class Window:
    """Band mask of radius ``radius``; ``reordered`` applies the
    spatial-major permutation before banding."""

    radius: int
    reordered: bool = False

    def __post_init__(self):
        if self.radius < 0:
            raise ConfigError("window radius must be >= 0")


@dataclass(frozen=True)
class TopK:
    """Keep the k highest-scoring key blocks per query block."""

    block_size: int
    k: int = DEFAULT_TOPK

    def __post_init__(self):
        if self.block_size < 1:
            raise ConfigError("block_size must be >= 1")
        if self.k < 1:
            raise ConfigError("k must be >= 1")


@dataclass(frozen=True)
class Explicit:
    """A caller-supplied boolean mask, validated at realization time."""

    mask: Array

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError(f"explicit mask must be square, got {m.shape}")
        object.__setattr__(self, "mask", m)


HeadPlan = Window | TopK | Explicit


@dataclass(frozen=True)
class MaskPlan:
    """One plan entry per head."""

    entries: tuple[HeadPlan, ...]

    def __init__(self, entries: Sequence[HeadPlan]):
        object.__setattr__(self, "entries", tuple(entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, head: int) -> HeadPlan:
        return self.entries[head]

    @staticmethod
    def uniform(entry: HeadPlan, heads: int) -> "MaskPlan":
        return MaskPlan([entry] * heads)


@dataclass(frozen=True)
class SparsityStats:
    """Pair counts and attention FLOPs for one realized head mask.

    FLOP convention: one multiply-add is 2 FLOPs; scores plus the weighted
    sum cost 4 * pairs * head_dim.
    """

    attended_pairs: int
    total_pairs: int
    sparsity: float
    attn_flops_sparse: int
    attn_flops_full: int

    @staticmethod
    def from_pairs(attended: int, n: int, head_dim: int) -> "SparsityStats":
        total = n * n
        return SparsityStats(
            attended_pairs=int(attended),
            total_pairs=total,
            sparsity=1.0 - attended / total,
            attn_flops_sparse=4 * int(attended) * head_dim,
            attn_flops_full=4 * total * head_dim,
        )


# ---------------------------------------------------------------------------
# Token reordering


def st_reorder_permutation(grid: LatentGrid) -> Array:
    """Gather indices that turn the default frame-major order spatial-major.

    Token (t, h, w) moves to position (h * width + w) * frames + t, so all
    frames of one spatial site become consecutive. The return value ``g``
    satisfies ``reordered = x[g]``; a single frame yields the identity.
    """
    f, hh, ww = grid.frames, grid.height, grid.width
    new_pos = np.empty(grid.seq_len, dtype=np.int64)
    coords = grid.coords()
    default_idx = coords[:, 0] * (hh * ww) + coords[:, 1] * ww + coords[:, 2]
    new_pos[default_idx] = (coords[:, 1] * ww + coords[:, 2]) * f + coords[:, 0]
    gather = np.empty_like(new_pos)
    gather[new_pos] = np.arange(grid.seq_len, dtype=np.int64)
    return gather


def invert_permutation(perm: Array) -> Array:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.shape[0], dtype=perm.dtype)
    return inv


# ---------------------------------------------------------------------------
# Mask construction


def build_window_mask(n: int, radius: int) -> Array:
    """Boolean band mask: true where |i - j| <= radius."""
    if radius < 0:
        raise ConfigError("window radius must be >= 0")
    idx = np.arange(n)
    return np.abs(idx[:, None] - idx[None, :]) <= radius


def window_attended_pairs(n: int, radius: int) -> int:
    """Closed-form count of true entries in a band mask: (2r+1)N - r(r+1)."""
    r = min(radius, n - 1)
    return (2 * r + 1) * n - r * (r + 1)


def _blocks(n: int, block_size: int) -> list[tuple[int, int]]:
    return [(s, min(s + block_size, n)) for s in range(0, n, block_size)]


def select_topk_blocks(q: Array, k: Array, block_size: int, top_k: int) -> list[list[int]]:
    """Key-block indices each query block attends, diagonal block included.

    Scoring: partition queries and keys into blocks, take each block's mean
    vector, rank key blocks per query block by the dot product of the two
    means, and keep the ``top_k`` best (ties go to the lower block index).
    The query block's own index is appended when the ranking missed it.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.ndim != 2 or q.shape != k.shape:
        raise DimensionError(f"queries {q.shape} and keys {k.shape} must be equal 2-D shapes")
    n = q.shape[0]
    spans = _blocks(n, block_size)
    nb = len(spans)
    if top_k > nb:
        raise BlockCountError(f"k={top_k} exceeds the {nb} key blocks of a length-{n} sequence")
    q_means = np.stack([q[a:b].mean(axis=0) for a, b in spans])
    k_means = np.stack([k[a:b].mean(axis=0) for a, b in spans])
    scores = matmul(q_means, k_means.T)
    selected = []
    for qb in range(nb):
        order = np.argsort(-scores[qb], kind="stable")  # stable: ties keep lower index
        keep = set(order[:top_k].tolist())
        keep.add(qb)  # own block is always attended
        selected.append(sorted(keep))
    return selected


def topk_block_select(q: Array, k: Array, block_size: int, top_k: int) -> Array:
    """Realize the top-k block selection as a boolean N x N mask."""
    n = q.shape[0]
    spans = _blocks(n, block_size)
    selected = select_topk_blocks(q, k, block_size, top_k)
    mask = np.zeros((n, n), dtype=bool)
    for qb, (a, b) in enumerate(spans):
        for kb in selected[qb]:
            ka, kb_end = spans[kb]
            mask[a:b, ka:kb_end] = True
    return mask


def realize_head_mask(
    entry: HeadPlan,
    grid: LatentGrid,
    q: Array | None = None,
    k: Array | None = None,
) -> tuple[Array, Array | None]:
    """Boolean mask plus the token permutation it applies under (or None).

    Window entries with ``reordered`` return the spatial-major gather
    indices; attention is then computed on the permuted sequence and the
    output is scattered back. Top-k entries need the head's actual queries
    and keys.
    """
    n = grid.seq_len
    if isinstance(entry, Window):
        mask = build_window_mask(n, entry.radius)
        perm = st_reorder_permutation(grid) if entry.reordered else None
        return mask, perm
    if isinstance(entry, TopK):
        if q is None or k is None:
            raise StateError("top-k plans need the head's queries and keys to realize a mask")
        return topk_block_select(q, k, entry.block_size, entry.k), None
    if isinstance(entry, Explicit):
        if entry.mask.shape != (n, n):
            raise ConfigError(f"explicit mask shape {entry.mask.shape} does not match N={n}")
        if not entry.mask.diagonal().all():
            row = int(np.flatnonzero(~entry.mask.diagonal())[0])
            raise DegenerateRowError(f"explicit mask row {row} does not attend itself")
        return entry.mask, None
    raise ConfigError(f"unknown plan entry {entry!r}")


# ---------------------------------------------------------------------------
# Attention kernel


def attend(q: Array, k: Array, v: Array, mask: Array) -> tuple[Array, Array]:
    """Scaled dot-product attention restricted to ``mask``.

    Returns the output and the attention weights. This is the package's
    one masked-softmax attention kernel: plan execution and calibration
    both run through it.
    """
    logits = matmul(q, k.T) * (1.0 / math.sqrt(q.shape[1]))
    attn = softmax_masked(logits, mask)
    return matmul(attn, v), attn


def sparse_head_attention(
    q: Array,
    k: Array,
    v: Array,
    entry: HeadPlan,
    grid: LatentGrid,
) -> tuple[Array, dict]:
    """One head of masked softmax attention under a plan entry.

    Realizes the entry's mask (permuting the sequence first for reordered
    window entries), runs :func:`attend`, and scatters the output back to
    the original token order. The returned info dict carries the realized
    ``mask``, the permutation ``perm`` (or None) and the attention weights
    ``attn``, both in the order attention was computed in.
    """
    mask, perm = realize_head_mask(entry, grid, q, k)
    if perm is None:
        out, attn = attend(q, k, v, mask)
    else:
        permuted, attn = attend(q[perm], k[perm], v[perm], mask)
        out = np.empty_like(permuted)
        out[perm] = permuted
    return out, {"mask": mask, "perm": perm, "attn": attn}


# ---------------------------------------------------------------------------
# Window calibration


@dataclass(frozen=True)
class CalibrationResult:
    radius: int
    rse: float
    qualified: bool
    reordered: bool = False


def calibrate_window(
    profiles: Sequence[tuple[Array, Array, Array]],
    candidates: Sequence[int],
    delta: float = DEFAULT_CALIBRATION_DELTA,
    perm: Array | None = None,
) -> CalibrationResult:
    """Smallest candidate radius whose pooled RSE stays within ``delta``.

    ``profiles`` is a list of (Q, K, V) triples for one head. The RSE at a
    radius pools numerator and denominator over the whole profiling set.
    Candidates are scanned in ascending order and the first qualifying one
    wins; if none qualifies the largest candidate is returned with
    ``qualified=False`` so the caller can flag the head.
    """
    if not candidates:
        raise ConfigError("candidate radius list is empty")
    cand = list(candidates)
    if cand != sorted(cand):
        raise ConfigError("candidate radii must be ascending")
    prepared = []
    for q, k, v in profiles:
        if perm is not None:
            q, k, v = q[perm], k[perm], v[perm]
        n = q.shape[0]
        full, _ = attend(q, k, v, np.ones((n, n), dtype=bool))
        prepared.append((q, k, v, full))

    last_rse = math.inf
    for radius in cand:
        num = 0.0
        den = 0.0
        for q, k, v, full in prepared:
            # The RSE sums in calibration token order; summing the output
            # scattered back to default order would change its last bits.
            sparse, _ = attend(q, k, v, build_window_mask(q.shape[0], radius))
            num += float(np.sum((sparse - full) ** 2))
            den += float(np.sum(full**2))
        last_rse = (0.0 if num == 0.0 else math.inf) if den == 0.0 else num / den
        if last_rse <= delta:
            return CalibrationResult(radius=radius, rse=last_rse, qualified=True,
                                     reordered=perm is not None)
    return CalibrationResult(radius=cand[-1], rse=last_rse, qualified=False,
                             reordered=perm is not None)


def calibrate_head(
    profiles: Sequence[tuple[Array, Array, Array]],
    candidates: Sequence[int],
    grid: LatentGrid,
    delta: float = DEFAULT_CALIBRATION_DELTA,
    choose_reorder: bool = True,
) -> CalibrationResult:
    """Calibrate one head, optionally picking the token order as well.

    When ``choose_reorder`` is set both the default and the spatial-major
    order are calibrated and the order with the lower achieved RSE wins
    (ties keep the default order). Heads whose locality is temporal tend to
    calibrate to a much smaller radius after the reorder.
    """
    plain = calibrate_window(profiles, candidates, delta, perm=None)
    if not choose_reorder:
        return plain
    reordered = calibrate_window(profiles, candidates, delta,
                                 perm=st_reorder_permutation(grid))
    return reordered if reordered.rse < plain.rse else plain


def calibrate_plan(
    per_head_profiles: Sequence[Sequence[tuple[Array, Array, Array]]],
    candidates: Sequence[int],
    grid: LatentGrid,
    delta: float = DEFAULT_CALIBRATION_DELTA,
    choose_reorder: bool = True,
) -> tuple[MaskPlan, list[CalibrationResult]]:
    """Calibrated window plan for every head."""
    results = [
        calibrate_head(profiles, candidates, grid, delta, choose_reorder)
        for profiles in per_head_profiles
    ]
    plan = MaskPlan([Window(radius=r.radius, reordered=r.reordered) for r in results])
    return plan, results


# ---------------------------------------------------------------------------
# Sparsity accounting


def head_sparsity_stats(
    entry: HeadPlan,
    grid: LatentGrid,
    q: Array | None = None,
    k: Array | None = None,
) -> SparsityStats:
    """Pair counts for one head's realized mask.

    Window entries use the closed form (the ``window_counts`` check
    verifies it exhaustively); top-k entries count the realized mask when
    queries and keys are supplied and otherwise fall back to the static
    model of k full-size key blocks per query row.
    """
    n = grid.seq_len
    d = grid.head_dim
    if isinstance(entry, Window):
        return SparsityStats.from_pairs(window_attended_pairs(n, entry.radius), n, d)
    if isinstance(entry, TopK) and (q is None or k is None):
        per_row = min(entry.k * entry.block_size, n)
        return SparsityStats.from_pairs(n * per_row, n, d)
    mask, _ = realize_head_mask(entry, grid, q, k)
    return SparsityStats.from_pairs(int(mask.sum()), n, d)


def plan_sparsity_stats(
    plan: MaskPlan,
    grid: LatentGrid,
    qk_per_head: Sequence[tuple[Array, Array]] | None = None,
) -> tuple[list[SparsityStats], float]:
    """Per-head stats plus the aggregate sparsity (mean over heads)."""
    if len(plan) != grid.heads:
        raise ConfigError(f"plan has {len(plan)} entries for {grid.heads} heads")
    stats = []
    for head, entry in enumerate(plan.entries):
        q = k = None
        if qk_per_head is not None:
            q, k = qk_per_head[head]
        stats.append(head_sparsity_stats(entry, grid, q, k))
    aggregate = float(np.mean([s.sparsity for s in stats]))
    return stats, aggregate
