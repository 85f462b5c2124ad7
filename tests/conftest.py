import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from salad import numerics
from salad.block import salad_forward
from salad.errors import ConfigError, DegenerateRowError, DimensionError, NumericError
from salad.gradients import FD_STEP
from salad.masking import Explicit, KeyList
from salad.numerics import Rng, ensure_finite, matmul, round_robin_rounds
from salad.tensor_io import (DOCUMENT_VERSION, PLAN_FORMAT, _RECORD_KINDS, dumps_json, mask_to_bytes,
                             record_to_dict)


@pytest.fixture
def rng():
    return Rng(1234)


def triple_loop_matmul(a, b):
    """Plain triple-loop product; the accumulation-order reference."""
    m, kk = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for k in range(kk):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def softmax_masked(logits, mask):
    """Row softmax restricted to ``mask``; masked entries are exactly 0.

    Exclusion is structural: masked logits never enter the exponential or
    the row sum, which realizes the "minus infinity" semantics without the
    rounding artifacts of adding a large negative constant. Each row is
    shifted by its unmasked maximum before exponentiation.

    Raises :class:`DegenerateRowError` if any row masks out every entry.
    """
    logits = np.asarray(logits, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if logits.shape != mask.shape or logits.ndim != 2:
        raise DimensionError(f"logits {logits.shape} and mask {mask.shape} must be equal 2-D shapes")
    ensure_finite(logits, "logits")
    alive = mask.any(axis=1)
    if not alive.all():
        row = int(np.flatnonzero(~alive)[0])
        raise DegenerateRowError(f"mask row {row} excludes every key")
    row_max = np.where(mask, logits, -np.inf).max(axis=1)
    shifted = np.where(mask, logits - row_max[:, None], 0.0)
    weights = np.exp(shifted) * mask
    out = weights / weights.sum(axis=1)[:, None]
    return out


def same_bits(x, y):
    """Equal shapes and equal bits, so -0.0 and +0.0 differ."""
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def traced_peak(fn, *args) -> int:
    """Peak bytes numpy and Python allocate while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def from_pairs(rows, cols, n):
    """The ``KeyList`` of (query, key) pairs grouped by ascending query,
    keeping their order within each query, packed into slots from 0 with
    key 0 in invalid slots; the reference for explicit lists."""
    counts = np.bincount(rows, minlength=n)
    slots = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    keys = np.zeros((n, int(counts.max())), dtype=np.int64)
    keys[rows, slots] = cols
    return KeyList(keys, np.arange(keys.shape[1]) < counts[:, None])


def transpose_plan(keys):
    """For each key of ``keys``, the queries that attend it in ascending
    order (by a stable sort of every pair on its key), and for each slot
    of that list the flat index of the slot of ``keys`` it takes its value
    from (0 where invalid); the reference for ``KeyList.transposed``."""
    rows, slots = np.nonzero(keys.valid)
    cols = keys.keys[rows, slots]
    order = np.argsort(cols, kind="stable")  # stable: each key's queries stay ascending
    back = from_pairs(cols[order], rows[order], keys.keys.shape[0])
    gather = np.zeros(back.keys.shape, dtype=np.intp)
    gather[back.valid] = (rows * keys.keys.shape[1] + slots)[order]
    return back, gather


def loop_fd_gradient(x, params, plan, grid, rope_cfg, name, step=FD_STEP):
    """Central differences one perturbation at a time, each through its own
    ``salad_forward``; the reference for ``gradients.fd_gradient``."""
    base = np.array(x, dtype=np.float64) if name == "x" else params.param(name).copy()
    flat = base.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        for sign in (+1.0, -1.0):
            bumped = flat.copy()
            bumped[i] += sign * step
            value = bumped.reshape(base.shape)
            if name == "x":
                y, _ = salad_forward(value, params, plan, grid, rope_cfg)
            else:
                y, _ = salad_forward(x, params.with_param(name, value), plan, grid, rope_cfg)
            out[i] += sign * float(np.sum(y * y))
    return (out / (2.0 * step)).reshape(base.shape)


def loop_topk_blocks(q, k, block_size, top_k):
    """Top-k block selection one query block at a time: each block's mean
    on its own, one stable argsort per query block; the reference for
    ``masking.select_topk_blocks``."""
    n = q.shape[0]
    spans = [(s, min(s + block_size, n)) for s in range(0, n, block_size)]
    q_means = np.stack([q[a:b].mean(axis=0) for a, b in spans])
    k_means = np.stack([k[a:b].mean(axis=0) for a, b in spans])
    scores = matmul(q_means, k_means.T)
    selected = []
    for qb in range(len(spans)):
        order = np.argsort(-scores[qb], kind="stable")
        selected.append(sorted(set(order[:top_k].tolist()) | {qb}))
    return selected


def loop_topk_keys(q, k, block_size, top_k):
    """The top-k ``KeyList`` from (query, key) pairs listed one query block
    at a time; the reference for top-k lists."""
    n = q.shape[0]
    spans = [(s, min(s + block_size, n)) for s in range(0, n, block_size)]
    rows, cols = [], []
    for (a, b), selected in zip(spans, loop_topk_blocks(q, k, block_size, top_k)):
        block_keys = np.concatenate([np.arange(*spans[kb]) for kb in selected])
        rows.append(np.repeat(np.arange(a, b), block_keys.size))
        cols.append(np.tile(block_keys, b - a))
    return from_pairs(np.concatenate(rows), np.concatenate(cols), n)


def loop_mask_to_bytes(mask):
    """SMSK bytes of a square boolean mask, one element at a time; the
    reference for ``tensor_io.mask_to_bytes``."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
        raise ConfigError(f"mask must be square, got {mask.shape}")
    n = mask.shape[0]
    chunks = [b"SMSK", struct.pack("<HI", 1, n)]
    for row in mask:
        runs = []
        current = False  # rows start with a false run, length 0 if row[0] is true
        length = 0
        for val in row:
            if bool(val) == current:
                length += 1
            else:
                runs.append(length)
                current = not current
                length = 1
        runs.append(length)
        chunks.append(struct.pack(f"<{len(runs)}I", *runs))
    return b"".join(chunks)


def loop_mask_from_bytes(raw):
    """The mask of SMSK bytes, one run at a time; the reference for
    ``tensor_io.mask_from_bytes``, raising the same ``ConfigError`` messages."""
    if len(raw) < 10 or raw[:4] != b"SMSK":
        raise ConfigError("not a mask sidecar (bad magic)")
    version, n = struct.unpack("<HI", raw[4:10])
    if version != 1:
        raise ConfigError(f"unsupported mask sidecar version {version}")
    if len(raw) < 10 + 4 * n:  # every row holds at least one run
        raise ConfigError(f"mask sidecar of {len(raw)} bytes cannot hold {n} rows")
    mask = np.zeros((n, n), dtype=bool)
    offset = 10
    for i in range(n):
        filled = 0
        value = False
        while filled < n:
            if offset + 4 > len(raw):
                raise ConfigError(f"mask sidecar truncated in row {i}")
            (run,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            if filled + run > n:
                raise ConfigError(f"mask sidecar row {i} overruns N={n}")
            if value:
                mask[i, filled : filled + run] = True
            filled += run
            value = not value
    if offset != len(raw):
        raise ConfigError("mask sidecar has trailing bytes")
    return mask


def write_plan(plan, path):
    """Write ``plan`` as a plan document at ``path``, each explicit mask in
    an SMSK sidecar beside it; the inverse of ``tensor_io.read_plan``."""
    path = Path(path)
    heads = []
    for i, entry in enumerate(plan.entries):
        if isinstance(entry, Explicit):
            sidecar = f"{path.stem}_h{i}.smsk"
            path.with_name(sidecar).write_bytes(mask_to_bytes(entry.mask))
            heads.append({"head": i, "kind": "explicit", "sidecar": sidecar})
        elif type(entry) in _RECORD_KINDS:
            heads.append({"head": i, "kind": _RECORD_KINDS[type(entry)], **record_to_dict(entry)})
        else:
            raise ConfigError(f"unknown plan entry {entry!r}")
    path.write_text(dumps_json({"format": PLAN_FORMAT, "version": DOCUMENT_VERSION, "heads": heads}))


def elimination_rank(a, rel_tol=1e-6):
    """Rank by full-pivot Gaussian elimination with a relative threshold."""
    a = np.array(a, dtype=np.float64)
    if not a.size:
        return 0
    scale = float(np.abs(a).max())
    if scale == 0.0:
        return 0
    rank = 0
    while a.size:
        idx = np.unravel_index(np.argmax(np.abs(a)), a.shape)
        pivot = a[idx]
        if abs(pivot) <= rel_tol * scale:
            break
        rank += 1
        a = np.delete(np.delete(a - np.outer(a[:, idx[1]], a[idx[0], :]) / pivot, idx[0], axis=0),
                      idx[1], axis=1)
    return rank


def one_matrix_householder_r(a):
    """R (n x n) of one tall m x n matrix by Householder reflections, one
    column reduction at a time; ``a`` is left as it is. The reference for
    ``numerics.householder_r``."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[1]
    for k in range(n):
        v = a[k:, k].copy()
        norm = math.sqrt(float(np.sum(v * v)))
        if norm == 0.0:
            continue
        diag = -math.copysign(norm, v[0])
        v[0] -= diag
        scale = 2.0 / float(np.sum(v * v))
        a[k, k] = diag
        a[k + 1 :, k] = 0.0
        rest = a[k:, k + 1 :]
        rest -= v[:, None] * (np.sum(v[:, None] * rest, axis=0) * scale)
    return a[:n]


def one_matrix_jacobi_singular_values(x):
    """Singular values of one matrix by QR-preconditioned one-sided Jacobi,
    the reference for ``numerics.jacobi_singular_values``. It stalls on two
    kinds of pair that ``numerics`` skips: a column whose squared norm is
    subnormal rather than 0.0, and a rotation whose tangent is 0.0 because
    ``zeta**2`` overflows, which changes nothing but counts as one."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {x.shape}")
    ensure_finite(x, "singular-value input")
    _, exponent = math.frexp(float(np.max(np.abs(x), initial=0.0)))
    x = np.ldexp(x, -exponent)
    a = one_matrix_householder_r(np.ascontiguousarray(x.T if x.shape[0] < x.shape[1] else x))
    rounds = round_robin_rounds(a.shape[1])
    for _ in range(numerics._JACOBI_MAX_SWEEPS):
        rotated = False
        for p, q in rounds:
            ap = a[:, p]
            aq = a[:, q]
            alpha = np.sum(ap * ap, axis=0)
            beta = np.sum(aq * aq, axis=0)
            gamma = np.sum(ap * aq, axis=0)
            live = (alpha != 0.0) & (beta != 0.0)
            live &= np.abs(gamma) > numerics._JACOBI_SWEEP_TOL * np.sqrt(alpha * beta)
            if not live.any():
                continue
            rotated = True
            if not live.all():
                p, q, ap, aq = p[live], q[live], ap[:, live], aq[:, live]
                alpha, beta, gamma = alpha[live], beta[live], gamma[live]
            zeta = (beta - alpha) / (2.0 * gamma)
            t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            a[:, p] = c * ap - s * aq
            a[:, q] = s * ap + c * aq
        if not rotated:
            break
    else:
        raise NumericError(f"Jacobi sweeps did not converge in {numerics._JACOBI_MAX_SWEEPS} sweeps")
    sv = np.sqrt(np.sum(a * a, axis=0))
    return np.ldexp(np.sort(sv)[::-1], exponent)


def _mix64_out_of_place(z):
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class TwoDrawRng:
    """Counter-addressed splitmix64 that mixes through fresh arrays and
    draws u1 and u2 of ``normal`` from two ``raw`` calls; the bit-for-bit
    reference for ``numerics.Rng``."""

    def __init__(self, seed):
        self.seed = int(seed) & ((1 << 64) - 1)
        self._pos = 0

    def raw(self, n):
        idx = np.arange(self._pos + 1, self._pos + n + 1, dtype=np.uint64)
        self._pos += n
        return _mix64_out_of_place(np.uint64(self.seed) + idx * np.uint64(0x9E3779B97F4A7C15))

    def uniform(self, shape):
        n = int(np.prod(shape)) if not np.isscalar(shape) else int(shape)
        out = (self.raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return out.reshape(shape) if not np.isscalar(shape) else out

    def normal(self, shape):
        scalar = np.isscalar(shape)
        n = int(shape) if scalar else int(np.prod(shape))
        m = (n + 1) // 2
        u1 = ((self.raw(m) >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
        u2 = (self.raw(m) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return out if scalar else out.reshape(shape)

    def permutation(self, n):
        return np.argsort(self.uniform(n), kind="stable")

    def spawn(self, stream):
        tag = _mix64_out_of_place(np.array([stream & ((1 << 64) - 1)], dtype=np.uint64))[0]
        return TwoDrawRng(int(_mix64_out_of_place(np.array([self.seed ^ int(tag)], dtype=np.uint64))[0]))


def chunked_window_counts(n):
    """Band pair counts of an N-token sequence for every radius r < N,
    counted row by row 64 radii at a time in int64; the reference for the
    enumeration in ``checks._window_counts_match``."""
    i = np.arange(n)
    counts = []
    for r0 in range(0, n, 64):
        r = np.arange(r0, min(r0 + 64, n))
        hi = np.minimum(i[None, :] + r[:, None], n - 1)
        lo = np.maximum(i[None, :] - r[:, None], 0)
        counts.append((hi - lo + 1).sum(axis=1))
    return np.concatenate(counts)


def sorted_topk_blocks(q, k, block_size, top_k):
    """Top-k block selection with one Python ``sorted`` per query block,
    keyed on (-score, block index) over per-pair dot products of the block
    means; the reference for ``checks.topk_blocks_ref``."""
    n = q.shape[0]
    spans = [(s, min(s + block_size, n)) for s in range(0, n, block_size)]
    q_means = np.stack([q[a:e].mean(axis=0) for a, e in spans])
    k_means = np.stack([k[a:e].mean(axis=0) for a, e in spans])
    selected = []
    for qb in range(len(spans)):
        scored = sorted(range(len(spans)), key=lambda j: (-float(q_means[qb] @ k_means[j]), j))
        selected.append(sorted(set(scored[:top_k]) | {qb}))
    return selected
