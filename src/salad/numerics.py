"""Dense float64 primitives with a fixed, sequential evaluation order.

All tensors in this package are C-contiguous float64 ``numpy`` arrays.
The routines here deliberately avoid BLAS-backed reductions whose
accumulation order can vary: products accumulate along the inner axis in
ascending index order, which makes every result bit-identical to a plain
triple-loop evaluation and byte-reproducible from run to run.

:func:`ordered_sum` is how such a sum runs without a Python loop over its
terms. It hands one block of result rows at a time to a block kernel, as
a k-major C-contiguous (K, rows) copy of the coefficients and a k-major
(K, rows, cols) operand of values, and the kernel writes the block's
sums. The fused kernel (:func:`fused_block`) is one
``einsum("ki,kij->ij")``: k has the largest stride in every operand, so
numpy's iterator puts it outermost and adds each output element's
products one at a time in ascending k, from 0.0, with a multiply and a
separate add. A window's values are a view whose rows slide along k, so
their row stride can equal the k stride; the iterator may then run rows
outside k, which keeps each element's order, as the cols axis (smallest
stride) stays innermost. The stack kernel (:func:`stacked_block`) writes the
products as a C-order (K, rows, cols) stack and reduces its leading axis;
numpy sums pairwise only along the axis that is fastest in memory, here
``cols``, so that order is sequential too, at the cost of writing every
product to memory. A block with a single output element always takes the
stack kernel through ``np.add.accumulate``, which is sequential by
definition: einsum would reduce its only axis in a SIMD inner loop, and
``np.add.reduce`` pairwise. A reduction may start from its first term
rather than from 0.0, which differs from the loop only where every term
is -0.0, so the stack kernel adds a final 0.0 to turn that -0.0 into the
loop's +0.0; einsum zero-fills its output and starts every sum at +0.0.

einsum's inner loop runs along the output's fastest axis. A product
whose values every row shares (``matmul``) and whose row blocks are
taller than they are wide writes into a column-major buffer, so that
loop runs over the rows rather than over 16-32 columns; k keeps the
largest stride, so it stays the outermost loop and the bits are the same.
The result is returned C-contiguous, because later ``np.sum`` calls group
their terms by memory layout.

An einsum that fuses multiply-add (numpy built for an FMA baseline) or
iterates in another order would change bits, so at import
:func:`choose_block_kernel` runs the fused kernel on a small fixed probe
and keeps it only if it gives the stack kernel's bits on every case (a
sum of -0.0 terms must come out +0.0); otherwise ``BLOCK_KERNEL`` is the
stack kernel. The probe runs once more with column-major outputs, and
``FUSED_COLUMN_MAJOR`` records whether the fused kernel keeps those bits
there too; if not, every product writes row-major blocks.

:func:`jacobi_singular_values` solves a stack of matrices at once. Each of
its sums runs over the rows of one matrix, in that matrix's memory layout,
and each rotation is elementwise, so a matrix in a stack gets the bits it
gets alone, and one Python loop over the sweeps serves the whole stack.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DimensionError, NumericError

Array = np.ndarray

#: Relative singular-value cutoff used by :func:`numerical_rank` when the
#: caller does not supply one.
DEFAULT_RANK_REL_TOL = 1e-6

#: Convergence threshold on the normalized off-diagonal mass of the implicit
#: Gram matrix in the Jacobi sweep.
_JACOBI_SWEEP_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 100

#: Most terms :func:`ordered_sum` handles per row block (512 KiB of float64).
ORDERED_SUM_BLOCK = 1 << 16


def ensure_finite(x: Array, label: str = "array") -> Array:
    if not np.isfinite(x).all():
        raise NumericError(f"{label} contains non-finite values")
    return x


def fused_block(coef: Array, values: Array, out: Array) -> None:
    """Write ``out[i, j] = sum_k coef[k, i] * values[k, i, j]``, adding the
    products in ascending k from 0.0, by one einsum (see the module
    docstring). ``coef`` must be k-major and C-contiguous, and ``values``
    k-major: C-contiguous, broadcast over i, or a view whose rows slide
    along k (see :func:`ordered_sum`)."""
    np.einsum("ki,kij->ij", coef, values, out=out, optimize=False)


def stacked_block(coef: Array, values: Array, out: Array) -> None:
    """:func:`fused_block` by a product stack reduced over its leading
    axis, or accumulated when ``out`` has one element, plus a final 0.0
    (see the module docstring). A writable ``values`` is scratch and holds
    the stack afterwards; a read-only one (a broadcast) is left as it is."""
    stack = np.multiply(values, coef[:, :, None], out=values if values.flags.writeable else None)
    if out.size == 1:
        out[...] = np.add.accumulate(stack, axis=0)[-1]
    else:
        np.add.reduce(stack, axis=0, out=out)
    out += 0.0


def ordered_sum(coef: Array, values: Array | list[tuple[int, int, Array]]
                | Callable[[int, int, Array], None], cols: int) -> Array:
    """The (rows, cols) sums ``sum_k coef[k, i] * values[k, i, j]``, each
    added in ascending k from 0.0, exactly as a loop ``out += term[k]``
    would.

    ``coef`` is (K, rows) in any layout. ``values`` is one of:

    - a (K, cols) array that every result row shares;
    - a list of runs ``(start, stop, view)`` that cover the rows in order,
      each ``view`` a read-only (K, stop - start, cols) array with positive
      strides, none larger than its k stride or smaller than its cols
      stride (such as a window whose rows slide along one array);
    - a callable ``gather(start, stop, out)`` that writes the values of
      result rows start..stop-1 into ``out``, a C-order (K, stop - start,
      cols) scratch array.

    Rows go to ``BLOCK_KERNEL`` in blocks of at most ``ORDERED_SUM_BLOCK``
    terms (or one row), each with a k-major copy of its coefficients; one
    buffer per call holds the gathered values. The fused kernel reads
    shared values and views in place, so their blocks count only the
    K x rows coefficient copy; when a block of shared values is taller
    than wide, the sums go to a column-major buffer (see the module
    docstring). The result is C-contiguous.

    Products that share a left operand run as one call on their right
    operands side by side: each output column adds the same terms in the
    same order whatever columns sit beside it, so every column keeps its
    bits.
    """
    count, rows = coef.shape
    if count == 0 or rows * cols == 0:
        return np.zeros((rows, cols))
    in_place = not callable(values) and BLOCK_KERNEL is not stacked_block
    step = min(rows, max(1, ORDERED_SUM_BLOCK // (count if in_place else count * cols)))
    shared = not callable(values) and not isinstance(values, list)
    # Rows innermost where a block is taller than wide (see the module docstring).
    column_major = shared and in_place and step > cols > 1 and FUSED_COLUMN_MAJOR
    out = np.zeros((cols, rows)).T if column_major else np.zeros((rows, cols))
    if callable(values):
        buffer = np.empty(count * step * cols)
        runs = [(0, rows, None)]
    elif shared:
        row = np.ascontiguousarray(values)[:, None, :]
        row.flags.writeable = False
        runs = [(0, rows, row)]
    else:
        runs = values
    for first, last, run in runs:
        for start in range(first, last, step):
            stop = min(start + step, last)
            block = out[start:stop]
            if callable(values):
                operand = buffer[: count * (stop - start) * cols].reshape(count, stop - start, cols)
                values(start, stop, operand)
            else:
                operand = run if shared else run[:, start - first : stop - first]
            kernel = stacked_block if block.size == 1 else BLOCK_KERNEL
            kernel(np.ascontiguousarray(coef[:, start:stop]), operand, block)
    return np.ascontiguousarray(out)


def _probe_cases() -> list[tuple[Array, Array]]:
    """(coef, values) blocks on which a kernel must give the stack kernel's
    bits: one row, one column, several of each and 40 rows (enough for the
    SIMD loops when rows run innermost), with values shared by the rows
    (read-only, as ``ordered_sum`` passes them) and gathered. Each output
    element adds, in order, 1*(-1) and (1+2^-30)^2 (exact only under a
    fused multiply-add), or 1 and then 2^-53 eighteen times (1 only in
    ascending order), or only -0.0 terms (+0.0 in the loop). Row i scales
    its coefficients by 2^(i mod 8), which keeps every case exact. The
    last case reads its values through a read-only view whose rows slide
    one term along k, as a window list's products do."""
    count = 20
    tiny = 2.0**-53
    near = 1.0 + 2.0**-30
    columns = np.zeros((count, 3))
    columns[:2, 0] = (-1.0, near)
    columns[0, 1], columns[2:, 1] = 1.0, tiny
    columns[:, 2] = -0.0
    coef = np.ones((count, 40)) * 2.0 ** (np.arange(40) % 8)
    coef[1] *= near
    cases = []
    for rows, cols in [(1, slice(None)), (3, slice(None)), (3, [0]), (3, [1]), (3, [2]),
                       (40, slice(None)), (40, [0, 1])]:
        c = np.ascontiguousarray(coef[:, :rows])
        v = np.ascontiguousarray(columns[:, cols])
        shared = v[:, None, :]
        shared.flags.writeable = False
        cases.append((c, shared))
        cases.append((c, np.ascontiguousarray(np.broadcast_to(shared, (count, rows, v.shape[1])))))
    rows = 3
    base = np.concatenate([columns, np.zeros((rows - 1, 3))])
    sliding = np.lib.stride_tricks.as_strided(base, (count, rows, 3), (24, 24, 8), writeable=False)
    cases.append((np.ascontiguousarray(coef[:, :rows]), sliding))
    return cases


def _gives_stack_bits(kernel: Callable[[Array, Array, Array], None], column_major: bool) -> bool:
    """Whether ``kernel``, writing into row-major or (``column_major``)
    column-major outputs, gives :func:`stacked_block`'s bits on every
    probe case."""
    for coef, values in _probe_cases():
        shape = (coef.shape[1], values.shape[2])
        want = np.empty(shape)
        got = np.empty(shape[::-1]).T if column_major else np.empty(shape)
        kernel(coef, values.copy() if values.flags.writeable else values, got)
        stacked_block(coef, values, want)
        if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
            return False
    return True


def choose_block_kernel(candidate: Callable[[Array, Array, Array], None] = fused_block):
    """``candidate`` if it gives :func:`stacked_block`'s bits on every
    probe case, else :func:`stacked_block`."""
    return candidate if _gives_stack_bits(candidate, column_major=False) else stacked_block


#: The kernel :func:`ordered_sum` runs row blocks through.
BLOCK_KERNEL = choose_block_kernel()
#: Whether :func:`fused_block` keeps its bits writing column-major blocks,
#: where :func:`ordered_sum` puts shared-operand products with tall blocks.
FUSED_COLUMN_MAJOR = BLOCK_KERNEL is fused_block and _gives_stack_bits(fused_block, column_major=True)


def matmul(a: Array, b: Array) -> Array:
    """Matrix product accumulated sequentially over the inner axis.

    For each output element the partial products a[i, k] * b[k, j] are added
    in ascending k starting from 0.0, exactly as a row-major triple loop
    would (by :func:`ordered_sum`), so the result carries no dependence on
    BLAS kernel or thread count.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    return ensure_finite(ordered_sum(a.T, b, b.shape[1]), "matmul result")


def stacked_matmul(a: Array, b: Array) -> Array:
    """:func:`matmul` over a leading stack axis: ``a`` is (M, K) or
    (S, M, K), ``b`` is (K, P) or (S, K, P), and a 2-D operand is every
    element's. Element s of the C-contiguous (S, M, P) result has the bits
    of ``matmul(a[s], b[s])``, as every element's sums add in ascending k
    from 0.0 however the rows and columns are grouped.

    A stacked ``a`` runs as one tall product, a stacked ``b`` as one wide
    one, and two stacked operands as one :func:`ordered_sum` whose gather
    reads each row's own element of ``b``. Two 2-D operands are
    :func:`matmul` itself.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 2 and b.ndim == 2:
        return matmul(a, b)
    if a.ndim not in (2, 3) or b.ndim not in (2, 3) or a.shape[-1] != b.shape[-2] or (
            a.ndim == b.ndim == 3 and len(a) != len(b)):
        raise DimensionError(f"stacked matmul operands do not fit: {a.shape} x {b.shape}")
    m, p = a.shape[-2], b.shape[-1]
    if b.ndim == 2:
        return matmul(a.reshape(-1, a.shape[-1]), b).reshape(len(a), m, p)
    by_k = np.ascontiguousarray(b.transpose(1, 0, 2))  # (K, S, P)
    if a.ndim == 2:
        return np.ascontiguousarray(
            matmul(a, by_k.reshape(len(by_k), -1)).reshape(m, len(b), p).transpose(1, 0, 2))

    def gather(start: int, stop: int, out: Array) -> None:
        by_k.take(np.arange(start, stop) // m, axis=1, out=out, mode="clip")

    out = ordered_sum(a.reshape(-1, a.shape[-1]).T, gather, p)
    return ensure_finite(out, "matmul result").reshape(len(a), m, p)


def relu(x: Array) -> Array:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def sigmoid(x: Array) -> Array:
    """Logistic function, evaluated piecewise so neither branch overflows."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tanh(x: Array) -> Array:
    return np.tanh(np.asarray(x, dtype=np.float64))


def round_robin_rounds(n: int) -> list[tuple[Array, Array]]:
    """Brent-Luk round-robin ordering of the column pairs of an n-column matrix.

    Returns the rounds of one sweep as ``(p, q)`` index arrays with
    ``p < q`` elementwise. The pairs of a round are disjoint, so their
    rotations commute and can be applied at once, and every pair of
    columns meets exactly once per sweep: n - 1 rounds when n is even, n
    when it is odd (each column sits out one round).
    """
    m = n + n % 2  # an odd count gets a phantom column m - 1 that pairs with no one
    ring = list(range(1, m))
    rounds = []
    for r in range(m - 1):
        order = [0] + ring[r:] + ring[:r]
        pairs = [sorted((order[i], order[-1 - i])) for i in range(m // 2)]
        p, q = np.array([pq for pq in pairs if pq[1] < n], dtype=np.intp).reshape(-1, 2).T
        rounds.append((p, q))
    return rounds


def householder_r(a: Array) -> Array:
    """Upper-triangular factor R (n x n) of the QR factorization of a tall
    m x n matrix (m >= n), or of each matrix of a (B, m, n) stack, by
    Householder reflections.

    A float64 ``a`` is factored in place: it ends as R stacked on zeros,
    and R is returned as a view of its first n rows. Each reflection
    updates the trailing columns with ``np.sum`` reductions over the row
    axis of each matrix, in its memory layout, so the accumulation order
    is fixed and BLAS-free, and it is the same for a matrix in a stack as
    for that matrix alone. A matrix whose
    column is already zero on and below the diagonal is left as it is at
    that step; only the others are reflected.
    """
    a = np.asarray(a, dtype=np.float64)
    stack = a if a.ndim == 3 else a[None]
    n = stack.shape[2]
    for k in range(n):
        v = stack[:, k:, k].copy()
        norm = np.sqrt(np.sum(v * v, axis=1))
        live = norm != 0.0
        if not live.any():
            continue
        work = stack
        if not live.all():
            # empty_like keeps each matrix's memory layout, which sets the
            # order of its sums over the rows.
            work = np.empty_like(stack[: np.count_nonzero(live)])
            work[...] = stack[live]
            v, norm = v[live], norm[live]
        diag = -np.copysign(norm, v[:, 0])
        v[:, 0] -= diag
        scale = 2.0 / np.sum(v * v, axis=1)
        work[:, k, k] = diag
        work[:, k + 1 :, k] = 0.0
        rest = work[:, k:, k + 1 :]
        # Matrices go in blocks of at most ORDERED_SUM_BLOCK products, which
        # bounds the scratch memory; a matrix's sums do not depend on its block.
        step = max(1, ORDERED_SUM_BLOCK // max(1, rest[0].size))
        for b in range(0, len(rest), step):
            block, vb = rest[b : b + step], v[b : b + step, :, None]
            block -= vb * (np.sum(vb * block, axis=1) * scale[b : b + step, None])[:, None]
        if work is not stack:
            stack[live] = work
    return a[..., :n, :]


def jacobi_singular_values(x: Array) -> Array:
    """Singular values via QR-preconditioned one-sided Jacobi rotations, in
    descending order: an (n,) array for an (m, n) matrix, or (B, n) for
    each matrix of a (B, m, n) stack (or a sequence of equal-shape
    matrices), solved together.

    Each tall operand (the matrix, or its transpose when wide; a wide stack
    is transposed as a whole) is first reduced to its square triangular
    factor R, which has the same singular values, so each sweep touches
    n-long columns rather than N-long ones. R is factored from a C-order
    copy, so no memory layout sets the order of its sums: the bits do not
    depend on the operand's layout, and a non-square matrix and its
    transpose get the same ones. The sweeps then visit the column pairs of R in round-robin order, one
    vectorized round of disjoint pairs at a time over the whole stack,
    rotating each (matrix, pair) entry whose implicit Gram off-diagonal exceeds
    ``_JACOBI_SWEEP_TOL`` relative to the column norms; at convergence the
    column 2-norms are the singular values. The sweeps stop after one in
    which no matrix rotated. Later sweeps change a matrix whose sweep
    rotated nothing in no value (at most the sign of a zero entry, which
    no singular value sees), and every column sum is a reduction over the
    row axis of that matrix alone, so each matrix's values are bit-equal
    to the ones it gets alone. No LAPACK involvement, so the iteration is
    fully deterministic.

    Two rules keep a pair that no rotation can change from stalling the
    sweeps. A column whose squared norm is below the smallest normal
    float64 counts as zero, as one of exactly 0.0 does, and is never
    rotated. And where ``zeta**2`` overflows, the tangent is +-0.0 (its
    true size is below 1e-154), so the rotation changes no value and does
    not count as one.

    The working copy of the operand is scaled, matrix by matrix, by the
    power of two that brings the largest entry into [0.5, 1), and the
    singular values are scaled back. That is exact and every later step
    is scale-free, so ordinary operands keep their bits, and entries near
    1e200 or 1e-200 cannot overflow or underflow when squared.

    Raises :class:`NumericError` for non-finite input or sweeps that do
    not converge.
    """
    a = np.array(x, dtype=np.float64)
    if a.ndim not in (2, 3):
        raise DimensionError(f"expected a matrix or a stack of matrices, got shape {a.shape}")
    ensure_finite(a, "singular-value input")
    stack = a if a.ndim == 3 else a[None]
    largest = np.maximum(stack.max(axis=(1, 2), initial=0.0), -stack.min(axis=(1, 2), initial=0.0))
    _, exponent = np.frexp(largest)
    np.ldexp(stack, -exponent[:, None, None], out=stack)
    tall = stack.swapaxes(1, 2) if stack.shape[1] < stack.shape[2] else stack
    r = householder_r(np.ascontiguousarray(tall))
    rounds = round_robin_rounds(r.shape[2])
    tiny = np.finfo(np.float64).tiny
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for p, q in rounds:
            ap = r[:, :, p]
            aq = r[:, :, q]
            alpha = np.sum(ap * ap, axis=1)
            beta = np.sum(aq * aq, axis=1)
            gamma = np.sum(ap * aq, axis=1)
            live = (alpha >= tiny) & (beta >= tiny)
            live &= np.abs(gamma) > _JACOBI_SWEEP_TOL * np.sqrt(alpha * beta)
            mat, pair = np.nonzero(live)
            if mat.size == 0:
                continue
            ap, aq = ap[mat, :, pair], aq[mat, :, pair]
            alpha, beta, gamma = alpha[mat, pair], beta[mat, pair], gamma[mat, pair]
            zeta = (beta - alpha) / (2.0 * gamma)
            with np.errstate(over="ignore"):  # zeta**2 = inf gives t = +-0.0
                t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
            rotated |= bool(t.any())
            c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
            s = c * t[:, None]
            r[mat, :, p[pair]] = c * ap - s * aq
            r[mat, :, q[pair]] = s * ap + c * aq
        if not rotated:
            break
    else:
        raise NumericError(f"Jacobi sweeps did not converge in {_JACOBI_MAX_SWEEPS} sweeps")
    sv = np.sqrt(np.sum(r * r, axis=1))
    sv = np.ldexp(np.sort(sv, axis=1)[:, ::-1], exponent[:, None])
    return sv if a.ndim == 3 else sv[0]


def numerical_rank(x: Array, rel_tol: float = DEFAULT_RANK_REL_TOL) -> int | Array:
    """Count singular values above ``rel_tol`` times the largest one: an
    int for one matrix, an int array for each matrix of a (B, m, n) stack
    (or a sequence of equal-shape matrices), solved by one
    :func:`jacobi_singular_values` call.

    The all-zero matrix has rank 0. ``rel_tol`` must lie in (0, 1).
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    sv = jacobi_singular_values(x)
    ranks = np.sum(sv > rel_tol * sv[..., :1], axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


# ---------------------------------------------------------------------------
# Seeded random numbers

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
#: Box-Muller pairs :meth:`Rng.normal` draws at once.
_NORMAL_CHUNK = 1 << 14


def _mix64(z: Array) -> Array:
    """splitmix64's output mix, in place on the uint64 array ``z``, which it
    returns; callers pass an array of their own making."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


class Rng:
    """Counter-addressed splitmix64 generator.

    The i-th raw output is ``mix64(seed + (i+1) * GAMMA)`` in wrapping
    64-bit arithmetic, so a given seed yields the same integer stream on
    every platform and the stream can be produced in vectorized batches.
    Floating-point derivations (uniform, normal) are built on that stream.
    """

    algorithm = "splitmix64"

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._pos = 0

    def raw(self, n: int) -> Array:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        start = self._pos
        self._pos += n
        return self._raw_at(start, n)

    def _raw_at(self, start: int, n: int) -> Array:
        """The ``n`` raw outputs after the first ``start``, wherever the
        counter stands."""
        idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        idx *= _GAMMA
        idx += np.uint64(self.seed)
        return _mix64(idx)

    def uniform(self, shape) -> Array:
        """Uniform samples in [0, 1) with 53-bit resolution."""
        n = int(np.prod(shape)) if not np.isscalar(shape) else int(shape)
        out = (self.raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return out.reshape(shape) if not np.isscalar(shape) else out

    def normal(self, shape) -> Array:
        """Standard normal samples via the Box-Muller transform.

        The next 2m outputs, m = ceil(n / 2), make m pairs: output i < m
        gives u1 and output m + i gives u2 of pair i, whose cosine sample is
        element i and whose sine sample is element m + i. The pairs are
        drawn ``_NORMAL_CHUNK`` at a time, straight from their counters, so
        the temporaries stay a fixed size beside the result.
        """
        scalar = np.isscalar(shape)
        n = int(shape) if scalar else int(np.prod(shape))
        m = (n + 1) // 2
        start = self._pos
        self._pos += 2 * m
        out = np.empty(2 * m)
        for lo in range(0, m, _NORMAL_CHUNK):
            hi = min(lo + _NORMAL_CHUNK, m)
            # u1 lies in (0, 1], which keeps the log finite, and u2 in
            # [0, 1). Below 2^53, (x + 1) * 2^-53 is exactly x * 2^-53 + 2^-53.
            u1, u2 = ((self._raw_at(at, hi - lo) >> np.uint64(11)).astype(np.float64) * 2.0**-53
                      for at in (start + lo, start + m + lo))
            r = np.sqrt(-2.0 * np.log(u1 + 2.0**-53))
            theta = (2.0 * math.pi) * u2
            out[lo:hi] = r * np.cos(theta)
            out[m + lo : m + hi] = r * np.sin(theta)
        out = out[:n]
        return out if scalar else out.reshape(shape)

    def permutation(self, n: int) -> Array:
        """Deterministic random permutation of range(n)."""
        keys = self.uniform(n)
        return np.argsort(keys, kind="stable")

    def spawn(self, stream: int) -> "Rng":
        """Independent child generator for the given stream index."""
        tag = _mix64(np.array([stream & _MASK64], dtype=np.uint64))[0]
        child = _mix64(np.array([self.seed ^ int(tag)], dtype=np.uint64))[0]
        return Rng(int(child))
