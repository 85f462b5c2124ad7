"""Sparse attention plans, the key-list attention kernel, window
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
``numerics.ordered_sum`` (the operand gathered at each row's keys, one
term per channel for the scores and per slot for the weighted sum, each
element's terms added in ascending order; a window list reads it through
views whose rows slide along the operand), and every term it skips is an
exact zero, so the kernel gives the bits of dense masked attention.
Row sums (the softmax denominator and the backward's sum(y*g)) follow
numpy's pairwise sum of the dense row; a window list sums only the
pairwise leaves its keys reach, each through a view that shears along
one of its spans (:func:`_window_row_sum`), so it holds nothing for its
sums beyond its keys. A stack of inputs to one window head runs as one
block-diagonal list (:meth:`KeyList.stacked`) that keeps the element's
spans, so its sums add each element's rows over their own N-long dense
rows, and each element gets its lone bits. The backward
runs on transposed lists, which each list's structure gives without
sorting pairs: a window list is its own transpose, and a block list
(top-k, or an explicit mask in blocks of one token) transposes its block
selection. The dense band mask the oracles compare it against is
``checks.build_window_mask``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from typing import Callable, Sequence

import numpy as np

from .errors import BlockCountError, ConfigError, DegenerateRowError, DimensionError, StateError
from .numerics import ORDERED_SUM_BLOCK, Array, ensure_finite, matmul, ordered_sum

#: Default relative-squared-error budget for window calibration.
DEFAULT_CALIBRATION_DELTA = 2.0

#: Default number of key blocks each query block keeps in top-k plans.
DEFAULT_TOPK = 4


@dataclass(frozen=True)
class LatentGrid:
    """Geometry of a flattened video latent: frames x height x width tokens.

    The default token order is frame-major: token (t, h, w) sits at index
    t * height * width + h * width + w. The defaults are the run config's.
    """

    frames: int = 4
    height: int = 4
    width: int = 4
    heads: int = 2
    head_dim: int = 8

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
        """Read-only (N, 3) integer (t, h, w) per token in default order."""
        return grid_coords(self.frames, self.height, self.width)


@lru_cache(maxsize=64)
def grid_coords(frames: int, height: int, width: int) -> Array:
    """:meth:`LatentGrid.coords`, built once per process for each extents."""
    t, h, w = np.meshgrid(np.arange(frames), np.arange(height), np.arange(width), indexing="ij")
    coords = np.stack([t.ravel(), h.ravel(), w.ravel()], axis=1)
    coords.flags.writeable = False
    return coords


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


def window_attended_pairs(n: int, radius: int) -> int:
    """Closed-form count of true entries in a band mask: (2r+1)N - r(r+1)."""
    r = min(radius, n - 1)
    return (2 * r + 1) * n - r * (r + 1)


def _block_means(x: Array, block_size: int) -> Array:
    """Mean vector of each run of ``block_size`` rows; the last may be short."""
    full = x.shape[0] - x.shape[0] % block_size
    means = x[:full].reshape(-1, block_size, x.shape[1]).mean(axis=1)
    return np.concatenate([means, x[full:].mean(axis=0)[None]]) if x.shape[0] > full else means


def _topk_keep(q: Array, k: Array, block_size: int, top_k: int) -> Array:
    """:func:`select_topk_blocks` as an (nb, nb) boolean matrix, all blocks at once."""
    q, k = np.asarray(q, dtype=np.float64), np.asarray(k, dtype=np.float64)
    if q.ndim != 2 or q.shape != k.shape:
        raise DimensionError(f"queries {q.shape} and keys {k.shape} must be equal 2-D shapes")
    n, nb = q.shape[0], -(-q.shape[0] // block_size)
    if top_k > nb:
        raise BlockCountError(f"k={top_k} exceeds the {nb} key blocks of a length-{n} sequence")
    # A stable argsort's first top_k: all above the top_k-th best, then ties, lowest index first.
    scores = matmul(_block_means(q, block_size), _block_means(k, block_size).T)
    kth = np.partition(scores, nb - top_k, axis=1)[:, [nb - top_k]]  # top_k-th best, a copy
    keep, ties = scores > kth, scores == kth
    keep |= ties & (np.cumsum(ties, axis=1, dtype=np.int32) <= top_k - keep.sum(1, keepdims=True))
    keep[np.diag_indices(nb)] = True  # own block is always attended
    return keep


def select_topk_blocks(q: Array, k: Array, block_size: int, top_k: int) -> list[list[int]]:
    """Key-block indices each query block attends, diagonal block included.

    Scoring: partition queries and keys into blocks, score every (query block, key block)
    pair by the dot product of the two blocks' mean vectors in one (nb, nb) matrix, and keep
    each row's ``top_k`` best (ties go to the lower block index) plus the query block itself.
    """
    return [np.flatnonzero(row).tolist() for row in _topk_keep(q, k, block_size, top_k)]


# ---------------------------------------------------------------------------
# Key lists and the attention kernel (see the module docstring for why it
# gives the bits of dense masked attention)

#: Rows scattered into zeroed length-N rows at a time by :meth:`KeyList.row_sum`
#: on a top-k or explicit list, or a window list when the row-sum probe fails.
ROW_SUM_CHUNK = 128

#: Most elements numpy's pairwise sum adds in one leaf (its ``PW_BLOCKSIZE``).
PAIRWISE_LEAF = 128


@lru_cache(maxsize=64)
def _pairwise_tree(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """numpy's pairwise sum over a C-contiguous row of n floats, as a tree:
    the (start, stop) of each leaf, in order, and the (left, right)
    children of each inner node, children first. Leaves are nodes 0..L-1,
    inner node j is node L + j, and the root is the last node.

    A row of at most ``PAIRWISE_LEAF`` elements is one leaf; a longer one
    splits at ``n2 = n // 2; n2 -= n2 % 8`` and sums each part the same
    way."""
    leaves: list[tuple[int, int]] = []
    joins: list[tuple[int, int]] = []

    def split(start: int, stop: int) -> int:
        # The subtree's root: leaf i is i, inner node j is ~j until all are known.
        if stop - start <= PAIRWISE_LEAF:
            leaves.append((start, stop))
            return len(leaves) - 1
        half = (stop - start) // 2
        half -= half % 8
        joins.append((split(start, start + half), split(start + half, stop)))
        return ~(len(joins) - 1)

    split(0, n)
    return tuple(leaves), tuple(tuple(len(leaves) + ~c if c < 0 else c for c in pair)
                                for pair in joins)


def _window_row_sum(keys: "KeyList", w: Array) -> Array:
    """``to_dense(w).sum(axis=1)`` of a window list, or of a stack of
    them (:meth:`KeyList.stacked`) each over its own N-long dense rows,
    with work in proportion to the pairs rather than N x N.

    numpy sums a C row as 0.0 plus a fixed pairwise tree over leaves of at
    most ``PAIRWISE_LEAF`` elements (:func:`_pairwise_tree`). A leaf that
    holds no pair is all +0.0 and sums to +0.0, and adding +0.0 changes no
    other value, so only the leaves a row's keys reach need summing. The
    rows' valid slot values go into one zeroed buffer, each row's W slots
    followed by G zeros, G the longest leaf, after a first row of zeros. A
    leaf that a row's slots reach starts less than G before them and ends
    less than G after them, so it reads the dense row's zeros from the
    gaps on either side and nothing else. A leaf's rows, within one span,
    are then one view of the buffer whose rows step back one element a
    row in the sliding span (its windows slide one key a row) and not at
    all in the two clipped ones; numpy sums exactly that leaf's length of
    each, which is the dense leaf. The leaf sums are joined in the tree's
    order, each node over the rows that reach its keys; a row that
    reaches only one child takes that child's sum, as adding a +0.0 leaf
    would. numpy starts a sum from 0.0, so neither a leaf sum, nor a join
    of them, nor the dense sum is -0.0 (a -0.0 leaf inside the dense tree
    changes no nonzero sum), and the bits are the dense sum's.
    :func:`_window_row_sum_holds` checks that model once."""
    n, width = keys.spans[-1][1], keys.keys.shape[1]
    leaves, joins = _pairwise_tree(n)
    stack, pitch = len(w) // n, width + max(b - a for a, b in leaves)
    buffer = np.zeros((stack * n + 1, pitch))
    slots = buffer[1:, :width].reshape(stack, n, width)
    slots[...] = w.reshape(stack, n, width)
    for start, stop, _, step in keys.spans:
        if not step:  # only a clipped span has invalid slots
            np.copyto(slots[:, start:stop], 0.0, where=~keys.valid[start:stop])
    # Node j's leaves are reached by rows reach[j] = (lo, hi): those whose
    # slots first_key..first_key + width - 1 reach its keys; sums[j] holds
    # its sums over those rows.
    first_key, (starts, stops) = keys.keys[:n, 0], np.array(leaves).T
    reach = list(zip(np.searchsorted(first_key, starts - width, "right").tolist(),
                     np.searchsorted(first_key, stops).tolist()))
    sums = []
    item = buffer.itemsize
    for (a, b), (lo, hi) in zip(leaves, reach):
        sums.append(np.empty((stack, hi - lo)))
        for start, stop, first, step in keys.spans:
            rows = slice(max(lo, start), min(hi, stop))
            if rows.start < rows.stop:
                offset = (rows.start + 1) * pitch + a - first - step * (rows.start - start)
                view = np.ndarray((stack, rows.stop - rows.start, b - a), buffer.dtype, buffer,
                                  offset * item, (n * pitch * item, (pitch - step) * item, item))
                view.sum(axis=2, out=sums[-1][:, rows.start - lo : rows.stop - lo])
    for left, right in joins:
        (lo, left_hi), (right_lo, hi) = reach[left], reach[right]
        total = np.zeros((stack, hi - lo))
        total[:, : left_hi - lo] = sums[left]
        total[:, right_lo - lo :] += sums[right]
        reach.append((lo, hi))
        sums.append(total)
    return sums[-1].reshape(-1)


@lru_cache(maxsize=1)
def _window_row_sum_holds() -> bool:
    """Whether :func:`_window_row_sum` gives ``np.sum``'s bits on a fixed
    probe; :func:`window_keys` asks when it builds its first window list.

    Windows over 7, 150 and 264 keys make one leaf, two unequal leaves,
    and a leaf beside a split half, with rows of one key, windows as wide
    as the sequence, runs of 41 keys across leaf borders and clipped ends.
    Every third slot holds +0.0 and invalid slots hold values, the first
    row is all -0.0, the terms' signs and magnitudes (2^-30..2^30) follow
    fixed sequences, and each list sums as a stack of two, so a wrong
    tree, leaf, shear or stride shows in the bits. It is kept small, as
    every process that builds a window list runs it."""
    for n, radius in ((7, 0), (7, 5), (150, 3), (150, 20), (264, 8)):
        keys = _window_list(n, radius)
        k = np.arange(2 * n * keys.keys.shape[1]).reshape(2 * n, -1)
        w = np.ldexp(k * 0.6180339887498949 % 1.0 - 0.5, k * 7 % 61 - 30)
        w[:, 1::3] = 0.0
        w[0] = -0.0
        scatter = KeyList(keys.keys, keys.valid)  # the dense sums, a few rows at a time
        want = np.concatenate([scatter.row_sum(half) for half in (w[:n], w[n:])])
        if not np.array_equal(_window_row_sum(keys, w).view(np.uint64), want.view(np.uint64)):
            return False
    return True


@dataclass(frozen=True)
class KeyList:
    """The keys each of N queries attends, as two (N, W) arrays.

    ``keys[i, m]`` is the m-th slot's key of query i and ``valid[i, m]``
    whether query i attends it; the valid keys of a row ascend with m, and
    invalid slots hold in-range keys that carry weight 0. A head that
    attends every pair holds broadcast views of ``arange(N)``, so it builds
    no N x N index array.

    How a list was built gives its transpose. A window list
    (:func:`window_keys`, or a stack of one, :meth:`stacked`) is its own,
    and keeps its ``spans``: the row ranges (start, stop, first key, step)
    of one N-row element over which row i's keys begin at first + step *
    (i - start), step 0 or 1; its row sums and wide products read them. A
    block list (:func:`_block_keys`: top-k, and explicit masks as blocks
    of one token) keeps its ``(keep, block_size)`` in ``blocks``. A bare
    ``KeyList(keys, valid)`` is neither, and has no transpose.
    """

    keys: Array
    valid: Array
    blocks: tuple[Array, int] | None = field(default=None, compare=False, repr=False)
    spans: tuple[tuple[int, int, int, int], ...] | None = field(
        default=None, compare=False, repr=False)

    @staticmethod
    def full(n: int) -> "KeyList":
        """Every query attends every key."""
        return KeyList(np.broadcast_to(np.arange(n), (n, n)), np.broadcast_to(True, (n, n)))

    @property
    def pairs(self) -> int:
        """Number of attended query-key pairs."""
        return int(self.valid.sum())

    def _product(self, coef: Array, x: Array, axis: int, cols: int) -> Array:
        """:func:`ordered_sum` of ``coef`` over x read at row i's keys,
        which are rows of x (``axis=0``: k a slot, j a channel) or its
        columns (``axis=1``: k a channel, j a slot). A broadcast list
        (every query attends every key, in order) reads x as it is, as
        values every row shares. A window list whose gathered operand
        would fill more than one ``ORDERED_SUM_BLOCK`` reads each span of
        each element through a view of x whose rows slide along the keys,
        so nothing is gathered; a smaller one gathers, as one gather costs
        less than the two extra kernel calls of three spans. Any other
        list gathers x at its keys."""
        if self.keys.strides[0] == 0:
            return ordered_sum(coef, x, cols)
        if self.spans is not None and coef.size * cols > ORDERED_SUM_BLOCK:
            x = np.ascontiguousarray(x)
            row, key = x.strides[0], x.strides[axis]
            runs = []
            for base in range(0, len(self.keys), self.spans[-1][1]):
                for start, stop, first, step in self.spans:
                    view = np.ndarray((len(coef), stop - start, cols), x.dtype, x,
                                      (base + first) * key, (row, step * key, x.itemsize))
                    view.flags.writeable = False
                    runs.append((base + start, base + stop, view))
            return ordered_sum(coef, runs, cols)

        def gather(s: int, e: int, out: Array) -> None:
            index = self.keys[s:e].T if axis == 0 else self.keys[s:e]
            # Keys are in range; "clip" only spares take the bounds check
            # that would make it gather into a temporary and copy.
            x.take(index, axis=axis, out=out, mode="clip")

        return ordered_sum(coef, gather, cols)

    def scores(self, a: Array, b: Array) -> Array:
        """``matmul(a, b.T)`` at the listed pairs: slot m of row i holds
        a[i] . b[keys[i, m]], accumulated over channels in ascending order
        from 0.0 as :func:`matmul` does (by :func:`ordered_sum`)."""
        scores = self._product(a.T, np.ascontiguousarray(b.T), 1, self.keys.shape[1])
        return ensure_finite(scores, "attention scores")

    def apply(self, w: Array, x: Array) -> Array:
        """``matmul(dense, x)`` for slot weights ``w``: row i sums
        w[i, m] x[keys[i, m]] over its keys in ascending order (by
        :func:`ordered_sum`)."""
        return ensure_finite(self._product(w.T, x, 0, x.shape[1]), "attention product")

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

        numpy sums each row pairwise over its full length. A broadcast
        list's slots already are the dense row, so its rows are summed in
        place. A window list sums only the pairwise leaves its keys reach,
        from its spans (:func:`_window_row_sum`). Any other list, and a
        lone window list when numpy's sum does not follow that model,
        scatters its rows into zeroed length-N rows, ``ROW_SUM_CHUNK`` at
        a time, and sums them there.
        """
        if self.keys.strides[0] == 0:
            return np.ascontiguousarray(w).sum(axis=1)
        if self.spans is not None and _window_row_sum_holds():
            return _window_row_sum(self, w)
        n = self.keys.shape[0]
        out = np.empty(n)
        for start in range(0, n, ROW_SUM_CHUNK):
            stop = min(start + ROW_SUM_CHUNK, n)
            out[start:stop] = self.to_dense(w, start, stop).sum(axis=1)
        return out

    def softmax(self, logits: Array) -> Array:
        """Row softmax of slot logits over the valid slots, exactly 0 in
        the others: invalid slots never enter the row max, the exponential
        or the row sum (:meth:`row_sum`). A broadcast list has no invalid
        slot, so it skips the masking, which would keep every value as it
        is."""
        if self.keys.strides[0] == 0:
            weights = np.exp(logits - logits.max(axis=1)[:, None])
        else:
            row_max = np.where(self.valid, logits, -np.inf).max(axis=1)
            shifted = np.where(self.valid, logits - row_max[:, None], 0.0)
            weights = np.exp(shifted) * self.valid
        return weights / self.row_sum(weights)[:, None]

    @property
    def stacks(self) -> bool:
        """Whether :meth:`stacked` takes this list: a window list, while
        numpy's sum follows :func:`_window_row_sum`'s model."""
        return self.spans is not None and _window_row_sum_holds()

    def stacked(self, count: int) -> "KeyList":
        """``count`` copies of this window list as one block-diagonal list
        over count x N queries and keys: query s*N + i attends keys s*N +
        ``keys[i]``. It keeps this list's spans, from which its row sums
        sum each copy's rows over that copy's own N-long dense rows, so
        every copy's rows get the bits this list gives them."""
        n = self.keys.shape[0]
        if not self.stacks:
            raise StateError("only a window list stacks, and only while its row sums hold")
        keys = (self.keys + n * np.arange(count)[:, None, None]).reshape(count * n, -1)
        valid = np.broadcast_to(self.valid, (count, *self.valid.shape)).reshape(count * n, -1)
        return KeyList(keys, valid, spans=self.spans)

    def transposed(self, *weights: Array) -> tuple["KeyList", list[Array]]:
        """For each key, the queries that attend it in ascending order, and
        each of the slot values ``weights`` moved there by one gather (0.0
        in invalid slots). The list's structure gives it; no pair is sorted.

        A broadcast list is its own transpose, so each weight is only
        transposed. So is a window list, as |i - j| <= r is symmetric: back
        slot (j, m) reads query i = keys[j, m] at its slot j - keys[i, 0].
        A block list's back list is the block list of ``keep.T``; key j of
        block b sits in slot rank[a, b] * size + j % size of the rows of
        query block a, b being the rank[a, b]-th block that a keeps."""
        if self.keys.strides[0] == 0:
            return self, [w.T for w in weights]
        n, width = self.keys.shape
        if self.spans is not None:
            back = self
            first = np.arange(n) * width - self.keys[:, 0]  # flat index of w[i, j] is first[i] + j
            gather = first.take(self.keys) + np.arange(n)[:, None]
        elif self.blocks is not None:
            keep, size = self.blocks
            back = _block_keys(_transposed_copy(keep), size, n)
            queries = back.keys[::size]  # the back list once per key block
            rank = np.cumsum(keep, axis=1, dtype=np.int32) - 1
            at = queries * width + rank[queries // size, np.arange(len(keep))[:, None]] * size
            gather = (at[:, None] + np.arange(size)[:, None]).reshape(-1, at.shape[1])[:n]
        else:
            raise StateError("a key list of bare arrays has no structure to transpose by")
        # An invalid slot's index can fall outside w: "clip" keeps it in range and where drops it.
        return back, [np.where(back.valid, np.take(w, gather, mode="clip"), 0.0) for w in weights]


def attend_keys(q: Array, k: Array, v: Array, keys: KeyList,
                weights: bool = True) -> tuple[Array, Array | None]:
    """Scaled dot-product attention over ``keys``: the output and the
    (N, W) slot weights, or None for them unless ``weights``.

    A broadcast list runs scores, softmax and product one block of at most
    ``ORDERED_SUM_BLOCK`` slots at a time, so it holds one block's
    temporaries (and the weights, when kept) rather than several N x N
    arrays. That moves no bit: each row's scores, max, exponentials, row
    sum and product read only that row, and :func:`ordered_sum` adds each
    element's terms in ascending order however its rows are blocked. A
    window or block list is O(N * W) already, and a window list's row sum
    reads its spans, which cover all its rows, so it runs as one block."""
    n = keys.keys.shape[0]
    scale = 1.0 / math.sqrt(q.shape[1])
    step = max(1, ORDERED_SUM_BLOCK // n) if keys.keys.strides[0] == 0 else n
    if step >= n:
        attn = keys.softmax(keys.scores(q, k) * scale)
        return keys.apply(attn, v), attn if weights else None
    # Each block reads k.T and v C-contiguous: copy them once, not per block.
    k, v = np.ascontiguousarray(k.T).T, np.ascontiguousarray(v)
    out = np.empty((n, v.shape[1]))
    attn = np.empty((n, n)) if weights else None
    for start in range(0, n, step):
        stop = min(start + step, n)
        rows = KeyList(keys.keys[start:stop], keys.valid[start:stop])
        w = rows.softmax(rows.scores(q[start:stop], k) * scale)
        out[start:stop] = rows.apply(w, v)
        if attn is not None:
            attn[start:stop] = w
    return out, attn


#: Held across each :func:`window_keys` lookup, so threads that miss at once build one list.
_WINDOW_LOCK = threading.Lock()


def _locked(cached: Callable) -> Callable:
    """The ``lru_cache`` ``cached``, each call under ``_WINDOW_LOCK``."""
    def call(*args):
        with _WINDOW_LOCK:
            return cached(*args)
    call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
    return wraps(cached)(call)


@_locked
@lru_cache(maxsize=64)
def window_keys(n: int, radius: int) -> KeyList:
    """Keys i-r..i+r of each query i, as W = min(2r+1, N) consecutive
    slots that start where the window does, shifted inside the sequence at
    either end; slots outside the window are invalid. Cached; read-only.
    A window narrower than the sequence keeps its spans (the first one
    built also runs the row-sum probe, :func:`_window_row_sum_holds`); a
    full one is :meth:`KeyList.full`."""
    if radius >= n - 1:
        return KeyList.full(n)
    _window_row_sum_holds()
    return _window_list(n, radius)


def _window_list(n: int, radius: int) -> KeyList:
    """:func:`window_keys` for a radius below n - 1, built anew."""
    width = min(2 * radius + 1, n)
    queries = np.arange(n)[:, None]
    keys = np.clip(queries - radius, 0, n - width) + np.arange(width)
    valid = (keys >= queries - radius) & (keys <= queries + radius)
    keys.flags.writeable = valid.flags.writeable = False
    # Windows start at key 0 up to row lo, slide one key a row up to row
    # hi, and end at key n - 1 from there.
    lo = int(np.searchsorted(keys[:, 0], 0, side="right"))
    hi = max(lo, int(np.searchsorted(keys[:, 0], n - width)))
    spans = tuple(span for span in ((0, lo, 0, 0), (lo, hi, lo - radius, 1), (hi, n, n - width, 0))
                  if span[1] > span[0])
    return KeyList(keys, valid, spans=spans)


def _transposed_copy(a: Array) -> Array:
    """``a.T`` as a C-order copy, written in strips of rows of ``a`` of at
    most ``ORDERED_SUM_BLOCK`` elements. On a 2-vCPU Xeon guest,
    ``np.nonzero`` on the strided ``a.T`` of a 2048 x 2048 mask took 40 ms
    against 19 ms on a C-order copy, but one strided copy of the whole
    mask misses the cache on nearly every element (35 ms); strips that
    stay in cache took 8 ms."""
    out = np.empty(a.shape[::-1], dtype=a.dtype)
    step = max(1, ORDERED_SUM_BLOCK // max(1, a.shape[1]))
    for start in range(0, len(a), step):
        out[:, start : start + step] = a[start : start + step].T
    return out


def _block_keys(keep: Array, block_size: int, n: int) -> KeyList:
    """The block list of ``keep``: the queries of block a read the key
    blocks b with ``keep[a, b]`` in ascending order from slot 0, laid out
    once per query block; a short last block, last in any row, has its
    missing keys cut. Invalid slots hold key 0."""
    counts = keep.sum(axis=1)
    tokens = counts * block_size - keep[:, -1] * (len(keep) * block_size - n)
    slot = np.arange(tokens.max())
    valid = slot < tokens[:, None]
    rows, cols = np.nonzero(keep)  # kept blocks, ascending in each row
    blocks = np.zeros((len(keep), counts.max()), dtype=np.intp)
    blocks[rows, np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]] = cols
    keys = np.where(valid, blocks[:, slot // block_size] * block_size + slot % block_size, 0)
    row_block = np.arange(n) // block_size
    return KeyList(keys[row_block], valid[row_block], blocks=(keep, block_size))


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
        return _block_keys(_topk_keep(q, k, entry.block_size, entry.k), entry.block_size, n), None
    if isinstance(entry, Explicit):
        if entry.mask.shape != (n, n):
            raise ConfigError(f"explicit mask shape {entry.mask.shape} does not match N={n}")
        if not entry.mask.diagonal().all():
            row = int(np.flatnonzero(~entry.mask.diagonal())[0])
            raise DegenerateRowError(f"explicit mask row {row} does not attend itself")
        return _block_keys(entry.mask, 1, n), None
    raise ConfigError(f"unknown plan entry {entry!r}")


@dataclass(frozen=True)
class HeadAttention:
    """What :func:`sparse_head_attention` computed for one head, in the
    token order attention ran in (spatial-major for reordered windows):
    the (N, W) slot ``weights`` over ``keys`` (None when the forward did
    not keep them) and the token permutation ``perm`` (or None)."""

    weights: Array | None
    keys: KeyList
    perm: Array | None


def sparse_head_attention(
    q: Array,
    k: Array,
    v: Array,
    entry: HeadPlan,
    grid: LatentGrid,
    weights: bool = True,
) -> tuple[Array, HeadAttention | None]:
    """One head of masked softmax attention under a plan entry. The record
    keeps the slot weights only if ``weights`` (see :func:`attend_keys`).

    Reordered windows permute the sequence first, and the output is
    scattered back to the original token order.

    Any of Q, K and V may be an (S, N, d) stack, the 2-D ones shared by
    every element; then the (S, N, d) outputs come back with no record
    (None) and no weights formed, and each element gets the bits it gets
    alone. A window list that stacks (:attr:`KeyList.stacks`) runs the
    whole stack as one block-diagonal list (:meth:`KeyList.stacked`), a
    reordered one permuting within each element; other entries, and every
    entry when numpy's sum fails the row-sum probe, run element by
    element.
    """
    if q.ndim == k.ndim == v.ndim == 2:
        keys, perm = head_keys(entry, grid, q, k)
        attend = keys
    else:
        count = max(len(a) for a in (q, k, v) if a.ndim == 3)
        q, k, v = (np.broadcast_to(a, (count, *a.shape[-2:])) for a in (q, k, v))
        keys, perm = head_keys(entry, grid) if isinstance(entry, Window) else (None, None)
        if keys is None or not keys.stacks:
            return np.stack([sparse_head_attention(q[s], k[s], v[s], entry, grid, False)[0]
                             for s in range(count)]), None
        attend, weights = keys.stacked(count), False
    if perm is not None:
        q, k, v = (a[..., perm, :] for a in (q, k, v))
    out, attn = attend_keys(*(a.reshape(-1, a.shape[-1]) for a in (q, k, v)), attend, weights)
    out = out.reshape(v.shape)
    if perm is not None:
        permuted, out = out, np.empty_like(out)
        out[..., perm, :] = permuted
    return out, None if out.ndim == 3 else HeadAttention(attn, keys, perm)


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
        full, _ = attend_keys(q, k, v, KeyList.full(q.shape[0]), weights=False)
        prepared.append((q, k, v, full))

    last_rse = math.inf
    for radius in cand:
        num = 0.0
        den = 0.0
        for q, k, v, full in prepared:
            # The RSE sums in calibration token order; summing the output
            # scattered back to default order would change its last bits.
            sparse, _ = attend_keys(q, k, v, window_keys(q.shape[0], radius), weights=False)
            num += float(np.sum((sparse - full) ** 2))
            den += float(np.sum(full**2))
        last_rse = (0.0 if num == 0.0 else math.inf) if den == 0.0 else num / den
        if last_rse <= delta:
            return CalibrationResult(radius=radius, rse=last_rse, qualified=True,
                                     reordered=perm is not None)
    return CalibrationResult(radius=cand[-1], rse=last_rse, qualified=False,
                             reordered=perm is not None)


def calibrate_plan(
    per_head_profiles: Sequence[Sequence[tuple[Array, Array, Array]]],
    candidates: Sequence[int],
    grid: LatentGrid,
    delta: float = DEFAULT_CALIBRATION_DELTA,
    choose_reorder: bool = True,
) -> tuple[MaskPlan, list[CalibrationResult]]:
    """Calibrated window plan for every head.

    When ``choose_reorder`` is set both the default and the spatial-major
    order are calibrated and the order with the lower achieved RSE wins
    (ties keep the default order). Heads whose locality is temporal tend to
    calibrate to a much smaller radius after the reorder.
    """
    results = []
    for profiles in per_head_profiles:
        result = calibrate_window(profiles, candidates, delta)
        if choose_reorder:
            reordered = calibrate_window(profiles, candidates, delta, st_reorder_permutation(grid))
            result = reordered if reordered.rse < result.rse else result
        results.append(result)
    plan = MaskPlan([Window(radius=r.radius, reordered=r.reordered) for r in results])
    return plan, results
