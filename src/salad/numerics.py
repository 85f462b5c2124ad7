"""Dense float64 primitives with a fixed, sequential evaluation order.

All tensors in this package are C-contiguous float64 ``numpy`` arrays.
The routines here deliberately avoid BLAS-backed reductions whose
accumulation order can vary: products accumulate along the inner axis in
ascending index order, which makes every result bit-identical to a plain
triple-loop evaluation and byte-reproducible from run to run.
"""

from __future__ import annotations

import math

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


def ensure_finite(x: Array, label: str = "array") -> Array:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"{label} contains non-finite values")
    return x


def matmul(a: Array, b: Array) -> Array:
    """Matrix product accumulated sequentially over the inner axis.

    For each output element the partial products a[i, k] * b[k, j] are added
    in ascending k starting from 0.0, exactly as a row-major triple loop
    would, so the result carries no dependence on BLAS kernel or thread
    count.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return ensure_finite(out, "matmul result")


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


def jacobi_singular_values(x: Array) -> Array:
    """Singular values via one-sided Jacobi rotations on the columns.

    Sweeps column pairs cyclically, rotating whenever the pair's implicit
    Gram off-diagonal exceeds ``_JACOBI_SWEEP_TOL`` relative to the column
    norms; at convergence the column 2-norms are the singular values.
    No LAPACK involvement, so the iteration is fully deterministic.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {x.shape}")
    a = (x.T if x.shape[0] < x.shape[1] else x).copy()
    n = a.shape[1]
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                ap = a[:, p]
                aq = a[:, q]
                alpha = float(np.sum(ap * ap))
                beta = float(np.sum(aq * aq))
                gamma = float(np.sum(ap * aq))
                if alpha == 0.0 or beta == 0.0:
                    continue
                if abs(gamma) <= _JACOBI_SWEEP_TOL * math.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                new_p = c * ap - s * aq
                new_q = s * ap + c * aq
                a[:, p] = new_p
                a[:, q] = new_q
        if not rotated:
            break
    else:
        raise ArithmeticError("Jacobi sweep did not converge")
    sv = np.sqrt(np.sum(a * a, axis=0))
    return np.sort(sv)[::-1]


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
