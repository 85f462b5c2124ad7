"""Sparse attention plans: construction, attention kernels, calibration,
and accounting.

A :class:`MaskPlan` carries one entry per attention head. Window entries
realize a symmetric band |i - j| <= r (optionally after the spatial-major
token reorder); top-k entries select key blocks dynamically from the
actual queries and keys; explicit entries carry a full boolean mask.
Every realized mask keeps the diagonal true, so no query is ever left
without a key. Windows narrower than the sequence run on a banded kernel
that touches only the attended pairs; every other entry runs densely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BlockCountError, ConfigError, DegenerateRowError, DimensionError, StateError
from .numerics import Array, ensure_finite, matmul, softmax_masked

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

    Returns the output and the attention weights. This is the dense
    masked-softmax kernel: top-k, explicit and full-window heads and
    calibration's full-attention reference run through it; narrower
    windows run through :func:`band_attend`.
    """
    logits = matmul(q, k.T) * (1.0 / math.sqrt(q.shape[1]))
    attn = softmax_masked(logits, mask)
    return matmul(attn, v), attn


# ---------------------------------------------------------------------------
# Banded window kernel
#
# A window head of radius r is stored as an (N, 2r+1) band: slot m of row
# i holds key i + m - r, so keys run i-r..i+r in ascending order, and slots
# past either end of the sequence hold 0. Every product accumulates its
# terms in the order matmul uses on the dense N x N matrices, and the
# out-of-band terms it skips are exact zeros, so the band kernels are
# bit-identical to the dense ones.

#: Rows scattered into dense length-N rows at a time by :func:`band_row_sum`.
BAND_CHUNK_ROWS = 128


def uses_band(radius: int, n: int) -> bool:
    """Whether a window of ``radius`` over ``n`` tokens runs banded: only
    when its band is narrower than the sequence. Wider windows attend
    every pair and run densely, so a full window equals full attention."""
    return 2 * radius + 1 < n


def _band_keys(n: int, radius: int, start: int = 0, stop: int | None = None) -> tuple[Array, Array]:
    """Key index of each band slot in rows start..stop-1, and which of those
    keys lie inside the sequence."""
    stop = n if stop is None else stop
    keys = np.arange(start, stop)[:, None] + np.arange(-radius, radius + 1)
    return keys, (keys >= 0) & (keys < n)


def band_valid(n: int, radius: int) -> Array:
    """Boolean (N, 2r+1) band: true where the slot's key is in range."""
    return _band_keys(n, radius)[1]


def _band_span(n: int, radius: int, slot: int) -> tuple[int, int, int]:
    """Rows i in lo..hi-1 whose ``slot`` holds an in-range key i + offset."""
    offset = slot - radius
    return max(0, -offset), min(n, n - offset), offset


def band_scores(a: Array, b: Array, radius: int) -> Array:
    """Band of a[i] . b[i + m - r], i.e. ``matmul(a, b.T)`` on the band.

    Each entry accumulates over channels in ascending order from 0.0, as
    :func:`matmul` does. Out-of-range slots hold 0.
    """
    n, d = a.shape
    padded = np.zeros((n + 2 * radius, d))
    padded[radius:radius + n] = b
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * radius + 1, axis=0)  # (N, d, 2r+1)
    out = np.zeros((n, 2 * radius + 1))
    for c in range(d):
        out += a[:, c:c + 1] * windows[:, c]
    return ensure_finite(out, "band scores")


def band_apply(band: Array, x: Array, radius: int) -> Array:
    """``matmul(dense, x)`` for a band: row i sums band[i, j] x[j] over
    keys j in ascending order."""
    n = band.shape[0]
    out = np.zeros((n, x.shape[1]))
    for slot in range(band.shape[1]):
        lo, hi, offset = _band_span(n, radius, slot)
        out[lo:hi] += band[lo:hi, slot:slot + 1] * x[lo + offset:hi + offset]
    return ensure_finite(out, "band product")


def band_apply_transposed(band: Array, x: Array, radius: int) -> Array:
    """``matmul(dense.T, x)`` for a band: row j sums band[i, j] x[i] over
    queries i in ascending order, which for key j = i + offset means
    offsets in descending order."""
    n = band.shape[0]
    out = np.zeros((n, x.shape[1]))
    for slot in reversed(range(band.shape[1])):
        lo, hi, offset = _band_span(n, radius, slot)
        out[lo + offset:hi + offset] += band[lo:hi, slot:slot + 1] * x[lo:hi]
    return ensure_finite(out, "band product")


def _band_rows_dense(band: Array, radius: int, start: int, stop: int) -> Array:
    """Rows start..stop-1 of the band scattered into zeroed length-N rows."""
    n = band.shape[0]
    keys, valid = _band_keys(n, radius, start, stop)
    dense = np.zeros((stop - start, n))
    dense[np.nonzero(valid)[0], keys[valid]] = band[start:stop][valid]
    return dense


def band_to_dense(band: Array, radius: int) -> Array:
    """The (N, N) matrix a band stands for."""
    return _band_rows_dense(band, radius, 0, band.shape[0])


def band_row_sum(band: Array, radius: int) -> Array:
    """Row sums of a band, bit-identical to ``band_to_dense(band).sum(axis=1)``.

    numpy sums each row pairwise over its full length, an order no
    accumulation over the band alone reproduces, so the rows are scattered
    into zeroed length-N rows, ``BAND_CHUNK_ROWS`` at a time, and summed
    there.
    """
    n = band.shape[0]
    out = np.empty(n)
    for start in range(0, n, BAND_CHUNK_ROWS):
        stop = min(start + BAND_CHUNK_ROWS, n)
        out[start:stop] = _band_rows_dense(band, radius, start, stop).sum(axis=1)
    return out


def band_softmax(logits: Array, radius: int) -> Array:
    """:func:`softmax_masked` on a band whose in-range slots form the mask."""
    valid = band_valid(logits.shape[0], radius)
    row_max = np.where(valid, logits, -np.inf).max(axis=1)
    shifted = np.where(valid, logits - row_max[:, None], 0.0)
    weights = np.exp(shifted) * valid
    return weights / band_row_sum(weights, radius)[:, None]


def band_attend(q: Array, k: Array, v: Array, radius: int) -> tuple[Array, Array]:
    """:func:`attend` under the window |i - j| <= ``radius``, touching only
    the band. Returns the output and the (N, 2r+1) band of weights."""
    logits = band_scores(q, k, radius) * (1.0 / math.sqrt(q.shape[1]))
    attn = band_softmax(logits, radius)
    return band_apply(attn, v, radius), attn


@dataclass(frozen=True)
class HeadAttention:
    """What :func:`sparse_head_attention` computed for one head, in the
    token order attention ran in (spatial-major for reordered windows).

    A dense head keeps the (N, N) ``weights`` and its realized ``mask``; a
    banded head sets ``radius``, keeps the (N, 2r+1) band as ``weights``
    and no mask. ``perm`` is the token permutation (or None) and
    ``pairs`` the number of attended query-key pairs.
    """

    weights: Array
    mask: Array | None
    radius: int | None
    perm: Array | None
    pairs: int

    def dense_weights(self) -> Array:
        """The (N, N) attention weights."""
        return self.weights if self.radius is None else band_to_dense(self.weights, self.radius)

    def dense_mask(self) -> Array:
        """The (N, N) boolean mask attention ran under."""
        if self.radius is None:
            return self.mask
        return build_window_mask(self.weights.shape[0], self.radius)


def sparse_head_attention(
    q: Array,
    k: Array,
    v: Array,
    entry: HeadPlan,
    grid: LatentGrid,
) -> tuple[Array, HeadAttention]:
    """One head of masked softmax attention under a plan entry.

    Window entries with ``2r+1 < N`` run :func:`band_attend`; every other
    entry realizes its mask and runs :func:`attend`. Reordered windows
    permute the sequence first, and the output is scattered back to the
    original token order.
    """
    n = grid.seq_len
    banded = isinstance(entry, Window) and uses_band(entry.radius, n)
    if banded:
        mask, perm = None, (st_reorder_permutation(grid) if entry.reordered else None)
    else:
        mask, perm = realize_head_mask(entry, grid, q, k)
    if perm is not None:
        q, k, v = q[perm], k[perm], v[perm]
    out, weights = band_attend(q, k, v, entry.radius) if banded else attend(q, k, v, mask)
    if perm is not None:
        permuted, out = out, np.empty_like(out)
        out[perm] = permuted
    pairs = window_attended_pairs(n, entry.radius) if isinstance(entry, Window) else int(mask.sum())
    return out, HeadAttention(weights, mask, entry.radius if banded else None, perm, pairs)


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
            n = q.shape[0]
            if uses_band(radius, n):
                sparse, _ = band_attend(q, k, v, radius)
            else:
                sparse, _ = attend(q, k, v, build_window_mask(n, radius))
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
