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
separate add. The stack kernel (:func:`stacked_block`) writes the
products as a C-order (K, rows, cols) stack and reduces its leading axis;
numpy sums pairwise only along the axis that is fastest in memory, here
``cols``, so that order is sequential too, at the cost of writing every
product to memory. A block with a single output element always takes the
stack kernel through ``np.add.accumulate``, which is sequential by
definition: einsum would reduce its only axis in a SIMD inner loop, and
``np.add.reduce`` pairwise.

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
and keeps it only if it gives the stack kernel's bits on every case;
otherwise ``BLOCK_KERNEL`` is the stack kernel. The probe runs once more
with column-major outputs, and ``FUSED_COLUMN_MAJOR`` records whether the
fused kernel keeps those bits there too; if not, every product writes
row-major blocks.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DegenerateRowError, DimensionError, NumericError

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
    docstring). ``coef`` and ``values`` must be k-major and C-contiguous
    (``values`` may broadcast over i)."""
    np.einsum("ki,kij->ij", coef, values, out=out, optimize=False)


def stacked_block(coef: Array, values: Array, out: Array) -> None:
    """:func:`fused_block` by a product stack reduced over its leading
    axis, or accumulated when ``out`` has one element. A writable
    ``values`` is scratch and holds the stack afterwards; a read-only one
    (a broadcast) is left as it is."""
    stack = np.multiply(values, coef[:, :, None], out=values if values.flags.writeable else None)
    if out.size == 1:
        out[...] = np.add.accumulate(stack, axis=0)[-1]
    else:
        np.add.reduce(stack, axis=0, out=out)


def ordered_sum(coef: Array, values: Array | Callable[[int, int, Array], None], cols: int) -> Array:
    """The (rows, cols) sums ``sum_k coef[k, i] * values[k, i, j]``, each
    added in ascending k from 0.0, exactly as a loop ``out += term[k]``
    would.

    ``coef`` is (K, rows) in any layout. ``values`` is either a (K, cols)
    array that every result row shares, or a callable ``gather(start,
    stop, out)`` that writes the values of result rows start..stop-1 into
    ``out``, a C-order (K, stop - start, cols) scratch array. Rows go to
    ``BLOCK_KERNEL`` in blocks of at most ``ORDERED_SUM_BLOCK`` terms (or
    one row), each with a k-major copy of its coefficients; one buffer per
    call holds the gathered values. The fused kernel reads shared values
    in place, so their blocks count only the K x rows coefficient copy;
    when a block of them is taller than wide, the sums go to a column-major
    buffer (see the module docstring). The result is C-contiguous.
    The stack kernel may start a reduction from its first term rather than
    from 0.0, and an accumulate always does; that differs from the loop
    only where every term is -0.0, and the final ``+= 0.0`` turns that
    -0.0 into the loop's +0.0 and leaves every other value as it is.
    """
    count, rows = coef.shape
    if count == 0 or rows * cols == 0:
        return np.zeros((rows, cols))
    per_row = count * cols if callable(values) or BLOCK_KERNEL is stacked_block else count
    step = min(rows, max(1, ORDERED_SUM_BLOCK // per_row))
    # Rows innermost where a block is taller than wide (see the module docstring).
    column_major = (not callable(values) and step > cols > 1
                    and BLOCK_KERNEL is not stacked_block and FUSED_COLUMN_MAJOR)
    out = np.zeros((cols, rows)).T if column_major else np.zeros((rows, cols))
    if callable(values):
        buffer = np.empty(count * step * cols)
    else:
        shared = np.ascontiguousarray(values)[:, None, :]
        shared.flags.writeable = False
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        block = out[start:stop]
        if callable(values):
            operand = buffer[: count * (stop - start) * cols].reshape(count, stop - start, cols)
            values(start, stop, operand)
        else:
            operand = shared
        kernel = stacked_block if block.size == 1 else BLOCK_KERNEL
        kernel(np.ascontiguousarray(coef[:, start:stop]), operand, block)
    out += 0.0
    return np.ascontiguousarray(out)


def _probe_cases() -> list[tuple[Array, Array]]:
    """(coef, values) blocks on which a kernel must give the stack kernel's
    bits: one row, one column, several of each and 40 rows (enough for the
    SIMD loops when rows run innermost), with values shared by the rows
    (read-only, as ``ordered_sum`` passes them) and gathered. Each output
    element adds, in order, 1*(-1) and (1+2^-30)^2 (exact only under a
    fused multiply-add), or 1 and then 2^-53 eighteen times (1 only in
    ascending order), or only -0.0 terms. Row i scales its coefficients by
    2^(i mod 8), which keeps every case exact."""
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
        if not np.array_equal((got + 0.0).view(np.uint64), (want + 0.0).view(np.uint64)):
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


def softmax_masked(logits: Array, mask: Array) -> Array:
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
    m x n matrix (m >= n), by Householder reflections.

    Each reflection updates the trailing columns with ``np.sum`` column
    reductions, so the accumulation order is fixed and BLAS-free. A column
    that is already zero on and below the diagonal is left as it is.
    """
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


def jacobi_singular_values(x: Array) -> Array:
    """Singular values via QR-preconditioned one-sided Jacobi rotations.

    The tall operand (``x``, or ``x.T`` when wide) is first reduced to its
    square triangular factor R, which has the same singular values, so
    each sweep touches n-long columns rather than N-long ones. The sweeps
    then visit the column pairs of R in round-robin order, one vectorized
    round of disjoint pairs at a time, rotating whenever a pair's implicit
    Gram off-diagonal exceeds ``_JACOBI_SWEEP_TOL`` relative to the column
    norms; at convergence the column 2-norms are the singular values.
    No LAPACK involvement, so the iteration is fully deterministic.

    The operand is first scaled by the power of two that brings its
    largest entry into [0.5, 1), and the singular values are scaled back.
    That is exact and every later step is scale-free, so ordinary operands
    keep their bits, and entries near 1e200 or 1e-200 cannot overflow or
    underflow when squared.

    Raises :class:`NumericError` for non-finite input or sweeps that do
    not converge.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {x.shape}")
    ensure_finite(x, "singular-value input")
    _, exponent = math.frexp(float(np.max(np.abs(x), initial=0.0)))
    x = np.ldexp(x, -exponent)
    a = householder_r(x.T if x.shape[0] < x.shape[1] else x)
    rounds = round_robin_rounds(a.shape[1])
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for p, q in rounds:
            ap = a[:, p]
            aq = a[:, q]
            alpha = np.sum(ap * ap, axis=0)
            beta = np.sum(aq * aq, axis=0)
            gamma = np.sum(ap * aq, axis=0)
            live = (alpha != 0.0) & (beta != 0.0)
            live &= np.abs(gamma) > _JACOBI_SWEEP_TOL * np.sqrt(alpha * beta)
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
        raise NumericError(f"Jacobi sweeps did not converge in {_JACOBI_MAX_SWEEPS} sweeps")
    sv = np.sqrt(np.sum(a * a, axis=0))
    return np.ldexp(np.sort(sv)[::-1], exponent)


def numerical_rank(x: Array, rel_tol: float = DEFAULT_RANK_REL_TOL) -> int:
    """Count singular values above ``rel_tol`` times the largest one.

    The all-zero matrix has rank 0. ``rel_tol`` must lie in (0, 1).
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    sv = jacobi_singular_values(x)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


# ---------------------------------------------------------------------------
# Seeded random numbers

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: Array) -> Array:
    z = z ^ (z >> np.uint64(30))
    z = z * _MIX1
    z = z ^ (z >> np.uint64(27))
    z = z * _MIX2
    return z ^ (z >> np.uint64(31))


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
        idx = np.arange(self._pos + 1, self._pos + n + 1, dtype=np.uint64)
        self._pos += n
        return _mix64(np.uint64(self.seed) + idx * _GAMMA)

    def uniform(self, shape) -> Array:
        """Uniform samples in [0, 1) with 53-bit resolution."""
        n = int(np.prod(shape)) if not np.isscalar(shape) else int(shape)
        out = (self.raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return out.reshape(shape) if not np.isscalar(shape) else out

    def normal(self, shape) -> Array:
        """Standard normal samples via the Box-Muller transform."""
        scalar = np.isscalar(shape)
        n = int(shape) if scalar else int(np.prod(shape))
        m = (n + 1) // 2
        # u1 in (0, 1] keeps the log finite; u2 in [0, 1).
        u1 = ((self.raw(m) >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
        u2 = (self.raw(m) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
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
