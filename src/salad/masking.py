"""Sparse attention plans: construction, the attention kernel,
calibration, and pair counting (pricing lives in ``analysis``).

A :class:`MaskPlan` carries one entry per attention head. Window entries
realize a symmetric band |i - j| <= r (optionally after the spatial-major
token reorder); top-k entries select key blocks dynamically from the
actual queries and keys; explicit entries carry a full boolean mask.
Every realized mask keeps the diagonal true, so no query is ever left
without a key.

:func:`head_keys` turns any entry into a :class:`KeyList`, the keys each
query attends in ascending order, and one kernel (:func:`attend_keys`,
with the backward in ``gradients``) reads those keys for every head, so
a head costs in proportion to the pairs it attends. Every product adds
its terms in the dense ``matmul`` order, through the same
``numerics.ordered_sum`` (a C-order stack of the terms, reduced over its
leading axis: per channel for the scores, per slot for the weighted sum),
and every term it skips is an exact zero, so the kernel gives the bits of
dense masked attention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BlockCountError, ConfigError, DegenerateRowError, DimensionError, StateError
from .numerics import Array, ensure_finite, matmul, ordered_sum

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


# ---------------------------------------------------------------------------
# Token reordering


def st_reorder_permutation(grid: LatentGrid) -> Array:
    """Gather indices that turn the default frame-major order spatial-major.

    Token (t, h, w) moves to position (h * width + w) * frames + t, so all
    frames of one spatial site become consecutive. The return value ``g``
    satisfies ``reordered = x[g]``; a single frame yields the identity.
    """
    return np.arange(grid.seq_len, dtype=np.int64).reshape(grid.frames, -1).T.ravel()


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
    return _topk_keys(q, k, block_size, top_k).mask()


def realize_head_mask(
    entry: HeadPlan,
    grid: LatentGrid,
    q: Array | None = None,
    k: Array | None = None,
) -> tuple[Array, Array | None]:
    """Boolean N x N mask of :func:`head_keys`, plus the token permutation
    it applies under (or None)."""
    keys, perm = head_keys(entry, grid, q, k)
    return keys.mask(), perm


# ---------------------------------------------------------------------------
# Key lists and the attention kernel (see the module docstring for why it
# gives the bits of dense masked attention)

#: Rows scattered into zeroed length-N rows at a time by :meth:`KeyList.row_sum`.
ROW_SUM_CHUNK = 128


@dataclass(frozen=True)
class KeyList:
    """The keys each of N queries attends, as two (N, W) arrays.

    ``keys[i, m]`` is the m-th slot's key of query i and ``valid[i, m]``
    whether query i attends it; the valid keys of a row ascend with m, and
    invalid slots hold in-range keys that carry weight 0. A head that
    attends every pair holds broadcast views of ``arange(N)``, so it builds
    no N x N index array.
    """

    keys: Array
    valid: Array

    @staticmethod
    def full(n: int) -> "KeyList":
        """Every query attends every key."""
        return KeyList(np.broadcast_to(np.arange(n), (n, n)), np.broadcast_to(True, (n, n)))

    @staticmethod
    def from_pairs(rows: Array, cols: Array, n: int) -> "KeyList":
        """Pack (query, key) pairs grouped by ascending query, keeping their
        order within each query, into slots from 0."""
        counts = np.bincount(rows, minlength=n)
        slots = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
        keys = np.zeros((n, int(counts.max())), dtype=np.int64)
        valid = np.zeros(keys.shape, dtype=bool)
        keys[rows, slots] = cols
        valid[rows, slots] = True
        return KeyList(keys, valid)

    @property
    def pairs(self) -> int:
        """Number of attended query-key pairs."""
        return int(self.valid.sum())

    def _terms(self, coef: Array, x: Array, axis: int):
        """The ``terms`` callback of :func:`ordered_sum` for a product over
        the keys: term k of row i and column j is ``coef[k, i]`` times x
        gathered at row i's keys, which are rows of x (``axis=0``: k a slot,
        j a channel) or its columns (``axis=1``: k a channel, j a slot).
        A broadcast list (every query shares its keys) gathers its one
        index row once."""
        if self.keys.strides[0] == 0:
            shared = x.take(self.keys[0], axis=axis)[:, None]
            return lambda s, e, out: np.multiply(coef[:, s:e, None], shared, out=out)

        def terms(s: int, e: int, out: Array) -> None:
            index = self.keys[s:e].T if axis == 0 else self.keys[s:e]
            # Keys are in range; "clip" only spares take the bounds check
            # that would make it gather into a temporary and copy.
            x.take(index, axis=axis, out=out, mode="clip")
            np.multiply(out, coef[:, s:e, None], out=out)

        return terms

    def scores(self, a: Array, b: Array) -> Array:
        """``matmul(a, b.T)`` at the listed pairs: slot m of row i holds
        a[i] . b[keys[i, m]], accumulated over channels in ascending order
        from 0.0 as :func:`matmul` does (by :func:`ordered_sum`)."""
        terms = self._terms(a.T, np.ascontiguousarray(b.T), axis=1)
        return ensure_finite(ordered_sum(self.keys.shape, a.shape[1], terms), "attention scores")

    def apply(self, w: Array, x: Array) -> Array:
        """``matmul(dense, x)`` for slot weights ``w``: row i sums
        w[i, m] x[keys[i, m]] over its keys in ascending order (by
        :func:`ordered_sum`)."""
        n, width = self.keys.shape
        terms = self._terms(w.T, x, axis=0)
        return ensure_finite(ordered_sum((n, x.shape[1]), width, terms), "attention product")

    def to_dense(self, w: Array, start: int = 0, stop: int | None = None) -> Array:
        """The (N, N) matrix the slot values ``w`` stand for, or its rows
        start..stop-1."""
        stop = self.keys.shape[0] if stop is None else stop
        rows, slots = np.nonzero(self.valid[start:stop])
        dense = np.zeros((stop - start, self.keys.shape[0]), dtype=w.dtype)
        dense[rows, self.keys[start:stop][rows, slots]] = w[start:stop][rows, slots]
        return dense

    def mask(self) -> Array:
        """The boolean (N, N) mask of attended pairs."""
        return self.to_dense(self.valid)

    def row_sum(self, w: Array) -> Array:
        """Row sums of slot values, bit-identical to ``to_dense(w).sum(axis=1)``.

        numpy sums each row pairwise over its full length, an order no
        accumulation over the slots alone reproduces, so the rows are
        scattered into zeroed length-N rows, ``ROW_SUM_CHUNK`` at a time,
        and summed there.
        """
        n = self.keys.shape[0]
        out = np.empty(n)
        for start in range(0, n, ROW_SUM_CHUNK):
            stop = min(start + ROW_SUM_CHUNK, n)
            out[start:stop] = self.to_dense(w, start, stop).sum(axis=1)
        return out

    def softmax(self, logits: Array) -> Array:
        """``numerics.softmax_masked`` on slot logits, with the valid slots
        as the mask."""
        row_max = np.where(self.valid, logits, -np.inf).max(axis=1)
        shifted = np.where(self.valid, logits - row_max[:, None], 0.0)
        weights = np.exp(shifted) * self.valid
        return weights / self.row_sum(weights)[:, None]

    def transposed(self, *weights: Array) -> tuple["KeyList", list[Array]]:
        """For each key, the queries that attend it in ascending order, and
        each of the slot values ``weights`` moved into that layout."""
        rows, slots = np.nonzero(self.valid)
        cols = self.keys[rows, slots]
        order = np.argsort(cols, kind="stable")  # stable: each key's queries stay ascending
        back = KeyList.from_pairs(cols[order], rows[order], self.keys.shape[0])
        moved = [np.zeros(back.keys.shape) for _ in weights]
        for out, w in zip(moved, weights):
            out[back.valid] = w[rows, slots][order]
        return back, moved


def attend_keys(q: Array, k: Array, v: Array, keys: KeyList) -> tuple[Array, Array]:
    """Scaled dot-product attention over ``keys``: the output and the
    (N, W) slot weights."""
    logits = keys.scores(q, k) * (1.0 / math.sqrt(q.shape[1]))
    attn = keys.softmax(logits)
    return keys.apply(attn, v), attn


def window_keys(n: int, radius: int) -> KeyList:
    """Keys i-r..i+r of each query i, as W = min(2r+1, N) consecutive
    slots that start where the window does, shifted inside the sequence at
    either end; slots outside the window are invalid."""
    if radius >= n - 1:
        return KeyList.full(n)
    width = min(2 * radius + 1, n)
    queries = np.arange(n)[:, None]
    keys = np.clip(queries - radius, 0, n - width) + np.arange(width)
    return KeyList(keys, np.abs(keys - queries) <= radius)


def _topk_keys(q: Array, k: Array, block_size: int, top_k: int) -> KeyList:
    """Each query reads the spans of its block's selected key blocks."""
    n = q.shape[0]
    spans = _blocks(n, block_size)
    rows, cols = [], []
    for (a, b), selected in zip(spans, select_topk_blocks(q, k, block_size, top_k)):
        block_keys = np.concatenate([np.arange(*spans[kb]) for kb in selected])
        rows.append(np.repeat(np.arange(a, b), block_keys.size))
        cols.append(np.tile(block_keys, b - a))
    return KeyList.from_pairs(np.concatenate(rows), np.concatenate(cols), n)


def head_keys(
    entry: HeadPlan,
    grid: LatentGrid,
    q: Array | None = None,
    k: Array | None = None,
) -> tuple[KeyList, Array | None]:
    """The keys a plan entry attends, plus the token permutation they apply
    under (or None).

    Window entries with ``reordered`` return the spatial-major gather
    indices; attention is then computed on the permuted sequence and the
    output is scattered back. Top-k entries need the head's actual queries
    and keys. Every row keeps its own key, so no query is left without one.
    """
    n = grid.seq_len
    if isinstance(entry, Window):
        perm = st_reorder_permutation(grid) if entry.reordered else None
        return window_keys(n, entry.radius), perm
    if isinstance(entry, TopK):
        if q is None or k is None:
            raise StateError("top-k plans need the head's queries and keys to realize a mask")
        return _topk_keys(q, k, entry.block_size, entry.k), None
    if isinstance(entry, Explicit):
        if entry.mask.shape != (n, n):
            raise ConfigError(f"explicit mask shape {entry.mask.shape} does not match N={n}")
        if not entry.mask.diagonal().all():
            row = int(np.flatnonzero(~entry.mask.diagonal())[0])
            raise DegenerateRowError(f"explicit mask row {row} does not attend itself")
        return KeyList.from_pairs(*np.nonzero(entry.mask), n), None
    raise ConfigError(f"unknown plan entry {entry!r}")


@dataclass(frozen=True)
class HeadAttention:
    """What :func:`sparse_head_attention` computed for one head, in the
    token order attention ran in (spatial-major for reordered windows):
    the (N, W) slot ``weights`` over ``keys`` and the token permutation
    ``perm`` (or None)."""

    weights: Array
    keys: KeyList
    perm: Array | None

    def dense_weights(self) -> Array:
        """The (N, N) attention weights."""
        return self.keys.to_dense(self.weights)

    def dense_mask(self) -> Array:
        """The (N, N) boolean mask attention ran under."""
        return self.keys.mask()


def sparse_head_attention(
    q: Array,
    k: Array,
    v: Array,
    entry: HeadPlan,
    grid: LatentGrid,
) -> tuple[Array, HeadAttention]:
    """One head of masked softmax attention under a plan entry.

    Reordered windows permute the sequence first, and the output is
    scattered back to the original token order.
    """
    keys, perm = head_keys(entry, grid, q, k)
    if perm is not None:
        q, k, v = q[perm], k[perm], v[perm]
    out, weights = attend_keys(q, k, v, keys)
    if perm is not None:
        permuted, out = out, np.empty_like(out)
        out[perm] = permuted
    return out, HeadAttention(weights, keys, perm)


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
        full, _ = attend_keys(q, k, v, KeyList.full(q.shape[0]))
        prepared.append((q, k, v, full))

    last_rse = math.inf
    for radius in cand:
        num = 0.0
        den = 0.0
        for q, k, v, full in prepared:
            # The RSE sums in calibration token order; summing the output
            # scattered back to default order would change its last bits.
            sparse, _ = attend_keys(q, k, v, window_keys(q.shape[0], radius))
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
