import tracemalloc

import numpy as np
import pytest

from salad.numerics import Rng


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
