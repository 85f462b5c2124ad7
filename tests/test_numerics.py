import math
import platform
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salad import numerics
from salad.errors import DimensionError, NumericError
from salad.masking import Explicit, KeyList, LatentGrid, head_keys, window_keys
from salad.numerics import (
    Rng,
    householder_r,
    jacobi_singular_values,
    matmul,
    numerical_rank,
    relu,
    round_robin_rounds,
    sigmoid,
    tanh,
)

from conftest import (TwoDrawRng, elimination_rank, one_matrix_householder_r,
                      one_matrix_jacobi_singular_values, same_bits, traced_peak, triple_loop_matmul)


class TestMatmul:
    def test_identity(self, rng):
        b = rng.normal((3, 5))
        assert np.array_equal(matmul(np.eye(3), b), b)

    def test_hand_checked(self):
        out = matmul([[1.0, 2.0], [3.0, 4.0]], [[0.0], [1.0]])
        assert out.tolist() == [[2.0], [4.0]]

    def test_matches_triple_loop_exactly(self, rng):
        a = rng.normal((7, 5))
        b = rng.normal((5, 3))
        got = matmul(a, b)
        want = triple_loop_matmul(a, b)
        assert np.array_equal(got, want)  # same accumulation order, 0 ulp

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            matmul(rng.normal((2, 3)), rng.normal((4, 2)))
        with pytest.raises(DimensionError):
            matmul(rng.normal(6), rng.normal((3, 2)))

    def test_associativity(self, rng):
        for _ in range(5):
            a, b, c = rng.normal((8, 6)), rng.normal((6, 9)), rng.normal((9, 4))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            rel = np.linalg.norm(left - right) / np.linalg.norm(left)
            assert rel < 1e-9


#: matmul sweep: every output shape from 1 x 1 up, and inner extents on
#: either side of numpy's pairwise-sum sizes (8 lanes, 128-element leaves)
#: and of a row block.
SWEEP_ROWS = (1, 2, 3, 5, 8, 16, 33)
SWEEP_COLS = (1, 2, 3, 7, 16, 32)
SWEEP_INNER = (0, 1, 2, 7, 8, 9, 16, 127, 128, 129, 257, 1024)


def loop_matmul(a, b):
    """The row-major triple loop with its i and j loops vectorized: one
    ``out += a[:, k] b[k, :]`` update per inner index, ascending from 0.0."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        out += a[:, k:k + 1] * b[k:k + 1, :]
    return out


def spread(r, shape):
    """Entries of either sign with magnitudes over e^-30..e^30, about 10%
    of them -0.0."""
    x = np.exp(60.0 * r.uniform(shape) - 30.0)
    x = np.where(r.uniform(shape) < 0.5, -x, x)
    return np.where(r.uniform(shape) < 0.1, -0.0, x)


def test_loop_matmul_is_the_triple_loop(rng):
    a, b = spread(rng, (5, 129)), spread(rng, (129, 3))
    assert same_bits(loop_matmul(a, b), triple_loop_matmul(a, b))


@pytest.mark.parametrize("inner", SWEEP_INNER)
def test_matmul_bits_match_loop_sweep(inner):
    r = Rng(inner)
    for m in SWEEP_ROWS:
        for n in SWEEP_COLS:
            a, b = spread(r, (m, inner)), spread(r, (inner, n))
            # Terms of one scale round differently in any other order; the
            # spread ones are mostly dominated by their largest term.
            an, bn = r.normal((m, inner)), r.normal((inner, n))
            neg_a, neg_b = np.full((m, inner), -0.0), np.full((inner, n), -0.0)
            for x, y in ((a, b), (an, bn), (neg_a, b), (a, neg_b), (neg_a, bn)):
                assert same_bits(matmul(x, y), loop_matmul(x, y)), (m, n, inner)


@pytest.mark.parametrize("stacked", ["a", "b", "both"])
@pytest.mark.parametrize("kernel", ["fused", "stack"])
def test_stacked_matmul_gives_each_element_its_loop_bits(monkeypatch, stacked, kernel):
    """A tall, a wide and a gathered product: element s of the result is
    ``matmul(a[s], b[s])`` bit for bit, with either block kernel and with
    one row per block."""
    if kernel == "stack":
        monkeypatch.setattr(numerics, "BLOCK_KERNEL", numerics.stacked_block)
    r = Rng(len(stacked))
    for m, inner, n in ((1, 1, 1), (3, 9, 2), (8, 4, 4), (33, 129, 7), (2, 257, 1)):
        for block in (numerics.ORDERED_SUM_BLOCK, 1):
            monkeypatch.setattr(numerics, "ORDERED_SUM_BLOCK", block)
            a = spread(r, (4, m, inner) if stacked in ("a", "both") else (m, inner))
            b = spread(r, (4, inner, n) if stacked in ("b", "both") else (inner, n))
            got = numerics.stacked_matmul(a, b)
            assert got.shape == (4, m, n) and got.flags.c_contiguous
            for s in range(4):
                want = loop_matmul(a[s] if a.ndim == 3 else a, b[s] if b.ndim == 3 else b)
                assert same_bits(got[s], want), (m, inner, n, s)


def test_stacked_matmul_checks_its_operands(rng):
    assert same_bits(numerics.stacked_matmul(np.eye(2), np.ones((2, 3))), np.ones((2, 3)))
    for a, b in (((2, 3, 4), (2, 5, 6)), ((2, 3, 4), (3, 4, 6)), ((3, 4), (4,)), ((2, 2, 3, 4), (4, 1))):
        with pytest.raises(DimensionError):
            numerics.stacked_matmul(rng.normal(a), rng.normal(b))
    with pytest.raises(NumericError, match="matmul result"):
        numerics.stacked_matmul(np.full((2, 1, 1), 1e300), np.full((2, 1, 1), 1e300))


def test_matmul_bits_hold_with_one_row_per_block(monkeypatch):
    """A budget below one row makes every row its own block, so an (m, K) x
    (K, 1) product sums a single output element per block."""
    monkeypatch.setattr(numerics, "ORDERED_SUM_BLOCK", 1)
    r = Rng(7)
    for m, k, n in ((5, 129, 1), (3, 257, 2), (1, 1024, 1), (4, 16, 1)):
        a, b = r.normal((m, k)), r.normal((k, n))
        assert same_bits(matmul(a, b), loop_matmul(a, b)), (m, k, n)
        neg = np.full((m, k), -0.0)
        assert same_bits(matmul(neg, b), loop_matmul(neg, b)), (m, k, n)


def layouts(r, m, inner, n):
    """(a, b) operand pairs of one product in the layouts callers pass:
    C order, transposed views, F order and column slices."""
    a, b = spread(r, (m, inner)), spread(r, (inner, n))
    wide_a = spread(r, (m, 2 * inner + 1))
    return {
        "c_order": (a, b),
        "b_transposed": (a, np.ascontiguousarray(b.T).T),
        "a_transposed": (np.ascontiguousarray(a.T).T, b),
        "f_order": (np.asfortranarray(a), np.asfortranarray(b)),
        "column_slice": (wide_a[:, 1::2], b),
    }


@pytest.mark.parametrize("inner", (1, 7, 9, 129))
def test_matmul_bits_match_loop_in_every_layout(inner):
    r = Rng(100 + inner)
    for m in SWEEP_ROWS:
        for n in SWEEP_COLS:
            for name, (a, b) in layouts(r, m, inner, n).items():
                assert same_bits(matmul(a, b), loop_matmul(a, b)), (name, m, n, inner)


#: Products 1 * (-1) and then (1 + 2^-30)^2: rounded after the multiply
#: they sum to 2^-29; a fused multiply-add keeps the 2^-60 term too.
FMA_A = np.array([[1.0, 1.0 + 2.0**-30]])
FMA_B = np.array([[-1.0], [1.0 + 2.0**-30]])


def test_matmul_rounds_each_product_before_adding():
    assert matmul(FMA_A, FMA_B)[0, 0] == 2.0**-29
    wide = matmul(np.repeat(FMA_A, 3, axis=0), np.repeat(FMA_B, 4, axis=1))
    assert np.all(wide == 2.0**-29)


def fma_kernel(coef, values, out):
    """A block kernel that adds each product unrounded, as a fused
    multiply-add would (exact rationals, rounded once per step)."""
    values = np.broadcast_to(values, (coef.shape[0], *out.shape))
    for i, j in np.ndindex(out.shape):
        acc = Fraction(0)
        for k in range(coef.shape[0]):
            acc = Fraction(float(acc + Fraction(coef[k, i]) * Fraction(values[k, i, j])))
        out[i, j] = float(acc)


@pytest.mark.skipif(np.__version__ != "2.4.6" or platform.machine() != "x86_64",
                    reason="the fused kernel was verified on numpy 2.4.6 for x86-64")
def test_probe_keeps_the_fused_kernel():
    assert numerics.choose_block_kernel() is numerics.fused_block
    assert numerics.BLOCK_KERNEL is numerics.fused_block


def test_probe_rejects_a_fused_multiply_add_kernel():
    assert numerics.choose_block_kernel(fma_kernel) is numerics.stacked_block


def test_probe_rejects_a_reordering_kernel():
    def reversed_kernel(coef, values, out):
        numerics.fused_block(coef[::-1].copy(), np.ascontiguousarray(values[::-1]), out)

    assert numerics.choose_block_kernel(reversed_kernel) is numerics.stacked_block


def test_stack_kernel_gives_the_fused_bits(monkeypatch):
    r = Rng(5)
    cases = [layouts(r, m, inner, n)["c_order"] for m in SWEEP_ROWS for n in SWEEP_COLS
             for inner in SWEEP_INNER]
    cases += [(FMA_A, FMA_B)]
    fused = [matmul(a, b) for a, b in cases]
    monkeypatch.setattr(numerics, "BLOCK_KERNEL", numerics.stacked_block)
    for (a, b), want in zip(cases, fused):
        assert same_bits(matmul(a, b), want), (a.shape, b.shape)


@pytest.mark.parametrize("shape_a, shape_b", [((512, 512), (512, 16)), ((512, 16), (16, 512))])
def test_matmul_memory_stays_within_a_row_block(rng, shape_a, shape_b):
    """Both products would stack 512 x 512 x 16 terms (32 MiB) at once."""
    a, b = rng.normal(shape_a), rng.normal(shape_b)
    out_bytes = shape_a[0] * shape_b[1] * 8
    assert traced_peak(matmul, a, b) < 2 * numerics.ORDERED_SUM_BLOCK * 8 + 2 * out_bytes


def test_shared_operand_product_is_one_kernel_call(monkeypatch):
    """``matmul(x.T, d_pre)`` at (32, 1024) x (1024, 32), the weight
    gradient of an N=1024 block: the fused kernel reads the shared operand
    in place and copies 1024 x 32 coefficients, within one row block."""
    calls = []
    kernel = numerics.BLOCK_KERNEL
    monkeypatch.setattr(numerics, "BLOCK_KERNEL", lambda *args: calls.append(1) or kernel(*args))
    r = Rng(11)
    a, b = r.normal((32, 1024)), r.normal((1024, 32))
    got = matmul(a, b)
    assert len(calls) == 1
    assert same_bits(got, loop_matmul(a, b))


@pytest.mark.parametrize("kernel", ["fused", "stack"])
def test_a_product_of_only_negative_zero_terms_is_positive_zero(monkeypatch, kernel):
    """The loop adds -0.0 terms to 0.0 and gets +0.0. einsum zero-fills its
    output, so the fused kernel gets it with no final addition, even into
    a buffer holding -0.0; the stack kernel adds its final 0.0 itself,
    also on a one-element block, which it accumulates."""
    count, rows, cols = 9, 4, 3
    for shape in ((rows, cols), (1, 1)):
        values = np.full((count, 1, shape[1]), -0.0)
        values.flags.writeable = False
        out = np.full(shape, -0.0)
        if kernel == "fused":
            numerics.fused_block(np.ones((count, shape[0])), values, out)
        else:
            numerics.stacked_block(np.ones((count, shape[0])), values, out)
        assert same_bits(out, np.zeros(shape)), shape
    if kernel == "stack":
        monkeypatch.setattr(numerics, "BLOCK_KERNEL", numerics.stacked_block)
    for m, n in ((rows, cols), (1, 1), (rows, 1)):
        got = matmul(np.full((m, count), -0.0), np.ones((count, n)))
        assert same_bits(got, np.zeros((m, n))), (m, n)


@pytest.mark.parametrize("kernel", ["fused", "stack"])
@pytest.mark.parametrize("n, width, parts", [(1024, 32, 3), (1024, 32, 6), (24, 8, 6), (7, 1, 2)])
def test_a_wide_shared_operand_product_keeps_each_parts_bits(monkeypatch, kernel, n, width,
                                                             parts):
    """``X^T [dQ | dK | dV ...]``, the block's projection-weight gradients
    as one product (three blocks shared, six non-shared), gives each part
    the bits of its own product ``X^T dW``."""
    if kernel == "stack":
        monkeypatch.setattr(numerics, "BLOCK_KERNEL", numerics.stacked_block)
    r = Rng(n + width + parts)
    x = spread(r, (n, width))
    ds = [spread(r, (n, width)) for _ in range(parts)]
    wide = matmul(x.T, np.concatenate(ds, axis=1))
    for got, d in zip(np.split(wide, parts, axis=1), ds):
        assert same_bits(np.ascontiguousarray(got), matmul(x.T, d))


def test_stack_kernel_memory_stays_within_a_row_block(monkeypatch, rng):
    """The stack kernel writes every product of a shared operand, so its
    blocks stay sized by the terms: 512 x 512 x 16 would be 32 MiB."""
    monkeypatch.setattr(numerics, "BLOCK_KERNEL", numerics.stacked_block)
    a, b = rng.normal((512, 512)), rng.normal((512, 16))
    assert traced_peak(matmul, a, b) < 2 * numerics.ORDERED_SUM_BLOCK * 8 + 2 * 512 * 16 * 8



def recording_kernel(monkeypatch):
    """Swap ``BLOCK_KERNEL`` for the fused kernel plus a record of each
    block's output strides, in elements."""
    strides = []

    def kernel(coef, values, out):
        strides.append(tuple(s // 8 for s in out.strides))
        numerics.fused_block(coef, values, out)

    monkeypatch.setattr(numerics, "BLOCK_KERNEL", kernel)
    return strides


@pytest.mark.parametrize("m, inner, n, column_major", [
    (1024, 32, 32, True),  # a (1024 x 32) x (32 x 32) projection: one tall block
    (129, 1024, 16, True),  # blocks of 64 rows by 16 columns
    (2048, 2048, 32, False),  # blocks of 32 rows by 32 columns stay row-major
    (32, 1024, 32, False),
    (8, 8, 1, False),  # one column is the same memory either way
])
def test_tall_shared_blocks_run_rows_innermost(monkeypatch, m, inner, n, column_major):
    """A shared-operand product writes column-major blocks exactly where a
    block has more rows than columns (and more than one column), and
    returns a C-contiguous result with the loop's bits."""
    strides = recording_kernel(monkeypatch)
    r = Rng(m + inner + n)
    a, b = spread(r, (m, inner)), spread(r, (inner, n))
    got = matmul(a, b)
    assert got.flags.c_contiguous
    assert same_bits(got, loop_matmul(a, b))
    assert strides and all((s[1] != 1) == column_major for s in strides)


def test_column_major_probe_failure_keeps_row_major_blocks(monkeypatch):
    monkeypatch.setattr(numerics, "FUSED_COLUMN_MAJOR", False)
    strides = recording_kernel(monkeypatch)
    r = Rng(3)
    a, b = spread(r, (1024, 32)), spread(r, (32, 32))
    assert same_bits(matmul(a, b), loop_matmul(a, b))
    assert strides == [(32, 1)]


@pytest.mark.skipif(np.__version__ != "2.4.6" or platform.machine() != "x86_64",
                    reason="the column-major layout was verified on numpy 2.4.6 for x86-64")
def test_probe_keeps_column_major_blocks():
    assert numerics.FUSED_COLUMN_MAJOR


def test_probe_rejects_a_kernel_that_reorders_only_column_major_blocks():
    def kernel(coef, values, out):
        if out.flags.c_contiguous:
            numerics.fused_block(coef, values, out)
        else:
            numerics.fused_block(coef[::-1].copy(), np.ascontiguousarray(values[::-1]), out)

    assert numerics.choose_block_kernel(kernel) is kernel
    assert not numerics._gives_stack_bits(kernel, column_major=True)


def softmax_lists(mask, radius):
    """A broadcast list over ``len(mask)`` keys, the window list of
    ``radius`` and the block list of the explicit ``mask``: the three kinds
    of list ``KeyList.softmax`` runs on, each with its mask."""
    n = len(mask)
    lists = [KeyList.full(n), window_keys(n, radius),
             head_keys(Explicit(mask), LatentGrid(1, 1, n, heads=1, head_dim=2))[0]]
    return [(keys, keys.mask()) for keys in lists]


def dense_softmax(keys, logits):
    """``keys.softmax`` on the slot logits of a dense (N, N) matrix, as the
    dense (N, N) weights."""
    return keys.to_dense(keys.softmax(np.take_along_axis(logits, keys.keys, axis=1)))


class TestSoftmaxMasked:
    """``KeyList.softmax``, the masked softmax every head runs."""

    def test_single_survivor(self):
        # Row 1 keeps every key, so the block list's rows 0 and 2 have
        # invalid slots; they read key 0, which row 2 masks at logit 1e4.
        mask = np.eye(3, dtype=bool)
        mask[1] = True
        logits = np.where(mask, np.array([[5.0], [-3.0], [2.0]]), 1e4)
        for keys, kept in softmax_lists(mask, 0)[1:]:
            one = kept.sum(axis=1) == 1
            assert dense_softmax(keys, logits)[one].tolist() == (kept[one] * 1.0).tolist()
        assert dense_softmax(KeyList.full(1), np.array([[5.0]])).tolist() == [[1.0]]

    def test_uniform_logits(self):
        mask = np.eye(4, dtype=bool)
        mask[0, 1:] = mask[2, 3] = mask[3, :2] = True
        for c in (-7.5, 0.0, 3e4):
            for keys, kept in softmax_lists(mask, 1):
                out = dense_softmax(keys, np.full((4, 4), c))
                assert out.tolist() == (kept / kept.sum(axis=1)[:, None]).tolist()

    def test_against_extended_precision(self):
        import mpmath

        mpmath.mp.dps = 50
        logits = np.array([[1.0, 2.0, 3.0]] * 3)
        mask = np.eye(3, dtype=bool)
        mask[0, 2] = mask[2, 0] = True
        for keys, kept in softmax_lists(mask, 1):
            for row, terms, keep in zip(dense_softmax(keys, logits), logits, kept):
                exps = [mpmath.e ** mpmath.mpf(v) for v in terms[keep]]
                want = [float(e / sum(exps)) for e in exps]
                assert np.max(np.abs(row[keep] - want)) < 1e-15

    def test_masked_entries_exactly_zero(self, rng):
        logits = rng.normal((6, 6)) * 50
        mask = rng.uniform((6, 6)) < 0.5
        np.fill_diagonal(mask, True)
        for keys, kept in softmax_lists(mask, 2):
            y = keys.softmax(np.take_along_axis(logits, keys.keys, axis=1))
            assert np.all(y[~keys.valid] == 0.0)  # window edges, short block rows
            out = keys.to_dense(y)
            assert np.all(out[~kept] == 0.0)
            assert np.max(np.abs(out[kept])) <= 1.0

    def test_shift_invariance_bit_for_bit(self):
        # Dyadic logits and shifts add exactly, so the max-subtracted
        # inputs are identical and the outputs match to the bit.
        logits = np.array([[0.5, -1.25, 3.0, 0.0], [2.0, 2.5, -0.5, 1.75],
                           [-2.0, 0.25, 1.5, 4.0], [1.0, -0.75, 0.0, 2.25]])
        mask = np.array([[1, 0, 1, 1], [1, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=bool)
        for keys, _ in softmax_lists(mask, 1):
            base = dense_softmax(keys, logits)
            for c in (-8.0, 0.25, 1024.0):
                assert same_bits(dense_softmax(keys, logits + c), base)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rows_are_simplices(self, seed):
        r = Rng(seed)
        logits = r.normal((7, 7)) * 10
        mask = r.uniform((7, 7)) < 0.4
        np.fill_diagonal(mask, True)
        for keys, kept in softmax_lists(mask, int(r.raw(1)[0] % 6)):
            out = dense_softmax(keys, logits)
            assert np.all(out >= 0.0) and np.all(out[~kept] == 0.0)
            assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12


class TestElementwise:
    def test_relu(self):
        assert relu(np.array([-1.0, 0.0, 2.0])).tolist() == [0.0, 0.0, 2.0]

    def test_sigmoid_symmetry_point(self):
        assert float(sigmoid(np.array(0.0))) == 0.5

    def test_sigmoid_extreme_inputs_finite(self):
        out = sigmoid(np.array([-1e4, 1e4]))
        assert 0.0 <= out[0] < 1e-300 or out[0] == 0.0
        assert out[1] == 1.0  # saturates, never overflows

    def test_tanh_saturates(self):
        out = tanh(np.array([50.0, -50.0]))
        assert abs(out[0] - 1.0) < 1e-12 and abs(out[1] + 1.0) < 1e-12

    def test_relu_preserves_shape(self, rng):
        x = rng.normal((3, 4))
        assert relu(x).shape == (3, 4)
        assert tanh(x).shape == (3, 4)


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(8)) == 8

    def test_outer_product(self, rng):
        u = rng.normal((9, 1))
        v = rng.normal((1, 6))
        assert numerical_rank(u @ v) == 1

    def test_zeros(self):
        assert numerical_rank(np.zeros((4, 7))) == 0

    def test_random_full_rank_vs_elimination(self, rng):
        x = rng.normal((64, 16))
        assert numerical_rank(x) == 16 == elimination_rank(x)

    def test_constructed_low_rank_vs_elimination(self, rng):
        for k in (1, 3, 7):
            x = matmul(rng.normal((20, k)), rng.normal((k, 12)))
            assert numerical_rank(x) == k == elimination_rank(x)

    def test_wide_matrix(self, rng):
        x = rng.normal((5, 40))
        assert numerical_rank(x) == 5

    def test_singular_values_match_lapack(self, rng):
        x = rng.normal((12, 8))
        sv = jacobi_singular_values(x)
        want = np.linalg.svd(x, compute_uv=False)
        assert np.max(np.abs(sv - want)) < 1e-10

    def test_rel_tol_validation(self):
        with pytest.raises(ValueError):
            numerical_rank(np.eye(2), rel_tol=0.0)
        with pytest.raises(ValueError):
            numerical_rank(np.eye(2), rel_tol=1.5)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_rank_bounds(self, seed, m, n):
        x = Rng(seed).normal((m, n))
        r = numerical_rank(x)
        assert 0 <= r <= min(m, n)

    def test_rank_of_product_bound(self, rng):
        for _ in range(5):
            x = rng.normal((10, 6))
            y = rng.normal((6, 9))
            assert numerical_rank(matmul(x, y)) <= min(numerical_rank(x), numerical_rank(y))


def planted(rng, m, values):
    """An m x len(values) matrix whose singular values are ``values``."""
    n = len(values)
    u, _ = np.linalg.qr(rng.normal((m, n)))
    v, _ = np.linalg.qr(rng.normal((n, n)))
    return (u * np.asarray(values)) @ v.T


class TestJacobiSingularValues:
    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-3, 1e-1])
    def test_planted_values_either_side_of_cutoff(self, rng, rel_tol):
        head = [2.0, 1.5, 1.0, 0.7]
        above = planted(rng, 64, head + [1.01 * rel_tol * 2.0])
        below = planted(rng, 64, head + [0.99 * rel_tol * 2.0])
        assert numerical_rank(above, rel_tol) == 5
        assert numerical_rank(below, rel_tol) == 4

    def test_tall_matches_lapack(self, rng):
        x = rng.normal((512, 16)) * np.logspace(0, -4, 16)
        sv = jacobi_singular_values(x)
        want = np.linalg.svd(x, compute_uv=False)
        assert np.max(np.abs(sv - want)) < 1e-12 * want[0]

    def test_rank_deficient_factor_has_zero_columns(self, rng):
        x = rng.normal((512, 16))
        zero = [3, 7, 8, 15]
        x[:, zero] = 0.0
        r = householder_r(x)
        assert r.shape == (16, 16)
        assert np.array_equal(r, np.triu(r))
        assert not r[:, zero].any()
        sv = jacobi_singular_values(x)
        assert np.array_equal(sv[-len(zero):], np.zeros(len(zero)))
        want = np.linalg.svd(x, compute_uv=False)
        assert np.max(np.abs(sv - want)) < 1e-12 * want[0]
        assert numerical_rank(x) == 16 - len(zero)

    @pytest.mark.filterwarnings("error")
    def test_column_whose_squares_underflow_is_skipped(self, rng):
        # Its squared norm is 0 while its products with other columns are
        # not, so only the zero-column rule keeps it from being rotated.
        x = rng.normal((64, 4))
        x[:, 2] *= 1e-170
        sv = jacobi_singular_values(x)
        assert sv[-1] == 0.0
        want = np.linalg.svd(np.delete(x, 2, axis=1), compute_uv=False)
        assert np.max(np.abs(sv[:3] - want)) < 1e-12 * want[0]

    def test_wide_matches_its_transpose(self, rng):
        x = rng.normal((16, 512))
        assert np.array_equal(jacobi_singular_values(x), jacobi_singular_values(x.T))

    @pytest.mark.parametrize("shape", [(64, 16), (16, 64)], ids=["tall", "wide"])
    def test_memory_layout_does_not_move_the_bits(self, shape):
        """A C-order copy, an F-order copy, a transposed view of a C-order
        transpose, and the transpose itself give the same bits."""
        x = Rng(3).normal(shape)
        want = jacobi_singular_values(x)
        for operand in (np.asfortranarray(x), np.ascontiguousarray(x.T).T, x.T):
            assert same_bits(jacobi_singular_values(operand), want)

    @pytest.mark.parametrize("n", range(1, 18))
    def test_round_robin_meets_every_pair_once_per_sweep(self, n):
        rounds = round_robin_rounds(n)
        assert len(rounds) == n - 1 + n % 2
        met = Counter()
        for p, q in rounds:
            assert np.all(p < q)
            cols = np.concatenate([p, q])
            assert len(set(cols.tolist())) == cols.size  # disjoint pairs
            met.update(zip(p.tolist(), q.tolist()))
        assert met == Counter((p, q) for p in range(n) for q in range(p + 1, n))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, rng, bad):
        x = rng.normal((32, 4))
        x[5, 2] = bad
        with pytest.raises(NumericError, match="non-finite"):
            numerical_rank(x)

    @pytest.mark.parametrize("scale", [1e200, 1e-200], ids=["huge", "tiny"])
    def test_extreme_scales_match_lapack(self, rng, scale):
        # Squared entries of these operands overflow or underflow unless the
        # operand is rescaled first.
        x = rng.normal((64, 8)) * scale
        sv = jacobi_singular_values(x)
        want = np.linalg.svd(x, compute_uv=False)
        assert np.max(np.abs(sv - want)) < 1e-12 * want[0]
        assert numerical_rank(x) == 8

    def test_unconverged_sweeps_raise(self, rng, monkeypatch):
        monkeypatch.setattr(numerics, "_JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(NumericError, match="did not converge"):
            jacobi_singular_values(rng.normal((32, 6)))


def rank_operand_stack(rng, m, n, wide):
    """Eight (m, n) matrices as one C-order stack, each transposed when
    ``wide``: plain, with every third column zero, all zero, scaled by
    1e200, 1e-200 and 3e150, with graded columns, and with orthogonal
    columns. The last needs no rotation and converges in the first sweep;
    the plain ones take several."""
    plain = rng.normal((m, n))
    zero_cols = rng.normal((m, n))
    zero_cols[:, ::3] = 0.0
    graded = rng.normal((m, n)) * np.logspace(0, -9, n)
    orthogonal = np.eye(m, n) * np.arange(n, 0, -1)
    mats = [plain, zero_cols, np.zeros((m, n)), plain * 1e200, rng.normal((m, n)) * 1e-200,
            rng.normal((m, n)) * 3e150, graded, orthogonal]
    stack = np.stack(mats)
    return np.ascontiguousarray(stack.swapaxes(1, 2)) if wide else stack


def stall_sweep_inputs():
    """600 seeded inputs of five kinds: square matrices with one zero row,
    tall ones with 4 zero rows, rank-deficient products, graded columns and
    plain tall matrices, with 2 to 17 columns."""
    for seed in range(120):
        rng = Rng(seed)
        n = 2 + seed % 16
        square = rng.normal((n, n))
        square[seed % n] = 0.0
        zero_rows = rng.normal((2 * n + 4, n))
        zero_rows[rng.permutation(2 * n + 4)[:4]] = 0.0
        k = 1 + seed % (n - 1)
        product = matmul(rng.normal((2 * n, k)), rng.normal((k, n)))
        graded = rng.normal((2 * n, n)) * np.logspace(0, -12, n)
        yield from (square, zero_rows, product, graded, rng.normal((3 * n, n)))


class TestStackedSolve:
    """One solve over a (B, m, n) stack gives each matrix the bits of the
    one-matrix reference in conftest."""

    @pytest.mark.parametrize("n", range(1, 18))
    def test_stack_is_bit_equal_to_the_one_matrix_reference(self, n):
        rng = Rng(n)
        for m in sorted({n, n + 1, 2 * n + 3, 64, 512}):
            for wide in (False, True):
                stack = rank_operand_stack(rng, m, n, wide)
                got = jacobi_singular_values(stack)
                assert got.shape == (len(stack), n)
                for x, sv in zip(stack, got):
                    try:
                        with np.errstate(over="ignore"):
                            want = one_matrix_jacobi_singular_values(x)
                    except NumericError:
                        # A stall of the reference (a transposed square with
                        # zero rows), which the package mends.
                        want = np.linalg.svd(x, compute_uv=False)
                        assert np.max(np.abs(sv - want)) <= 1e-12 * want[0]
                        continue
                    assert same_bits(sv, want), (m, wide)
                # The factor of the unscaled operands, which are not extreme.
                keep = [0, 1, 2, 6, 7]
                tall = stack[keep].swapaxes(1, 2) if wide else stack[keep]
                work = tall.copy(order="K")
                r = householder_r(work)
                assert r.base is work or r.base is work.base
                assert not work[:, n:].any()
                for x, got_r in zip(tall, r):
                    assert same_bits(got_r, one_matrix_householder_r(x)), (m, wide)

    def test_one_matrix_is_a_stack_of_one(self, rng):
        x = rng.normal((64, 7))
        assert same_bits(jacobi_singular_values(x), jacobi_singular_values(x[None])[0])
        assert numerical_rank(x) == 7 and numerical_rank(x[None]).tolist() == [7]

    def test_a_sequence_of_matrices_is_a_stack(self, rng):
        mats = [rng.normal((20, 5)) for _ in range(3)]
        assert same_bits(jacobi_singular_values(mats), jacobi_singular_values(np.stack(mats)))
        assert jacobi_singular_values(np.zeros((0, 20, 5))).shape == (0, 5)

    def test_operand_is_left_as_it_is(self, rng):
        stack = rng.normal((3, 40, 6))
        before = stack.copy()
        jacobi_singular_values(stack)
        assert same_bits(stack, before)

    def test_rejects_other_ranks(self):
        with pytest.raises(DimensionError):
            jacobi_singular_values(np.zeros(5))
        with pytest.raises(DimensionError):
            jacobi_singular_values(np.zeros((2, 3, 4, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_one_non_finite_operand_raises(self, rng, bad):
        stack = rng.normal((3, 32, 4))
        stack[1, 5, 2] = bad
        with pytest.raises(NumericError, match="non-finite"):
            jacobi_singular_values(stack)

    def test_one_unconverged_operand_raises(self, rng, monkeypatch):
        orthogonal = np.eye(32, 6) * np.arange(6, 0, -1)
        monkeypatch.setattr(numerics, "_JACOBI_MAX_SWEEPS", 1)
        assert np.array_equal(jacobi_singular_values(np.stack([orthogonal] * 2)),
                              [np.arange(6.0, 0, -1)] * 2)
        with pytest.raises(NumericError, match="did not converge"):
            jacobi_singular_values(np.stack([orthogonal, rng.normal((32, 6)), orthogonal]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [
        # One column of R collapses to entries near 1e-159: its squared norm
        # is subnormal but not 0.0.
        np.vstack([Rng(0).normal((7, 8)), np.zeros((1, 8))]),
        # zeta = (beta - alpha) / (2 gamma) is near -5e155, so zeta**2
        # overflows and the tangent is 0.0.
        np.array([[1.0, 1e-156], [0.0, 1e-150]]),
    ], ids=["subnormal_norm", "tangent_overflow"])
    def test_pairs_no_rotation_changes_do_not_stall(self, x):
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="did not converge"):
            one_matrix_jacobi_singular_values(x)
        sv = jacobi_singular_values(x)
        want = np.linalg.svd(x, compute_uv=False)
        assert sv.shape == want.shape
        assert np.max(np.abs(sv - want)) <= 1e-12 * want[0]

    @pytest.mark.filterwarnings("error")
    def test_seeded_sweep_converges_and_keeps_the_reference_bits(self):
        """Every input converges near LAPACK, stacked by shape; each one the
        reference solves keeps its bits, and the reference stalls on 42."""
        inputs = list(stall_sweep_inputs())
        by_shape = defaultdict(list)
        for i, x in enumerate(inputs):
            by_shape[x.shape].append(i)
        got = {}
        for rows in by_shape.values():
            got.update(zip(rows, jacobi_singular_values([inputs[i] for i in rows])))
        stalled = 0
        for i, x in enumerate(inputs):
            want = np.linalg.svd(x, compute_uv=False)
            assert np.max(np.abs(got[i] - want)) <= 1e-12 * want[0], i
            try:
                with np.errstate(over="ignore"):
                    reference = one_matrix_jacobi_singular_values(x)
            except NumericError:
                stalled += 1
                continue
            assert same_bits(got[i], reference), i
        assert stalled == 42


class TestRng:
    def test_matches_scalar_reference(self):
        mask = (1 << 64) - 1

        def scalar_stream(seed, n):
            out = []
            state = seed
            for _ in range(n):
                state = (state + 0x9E3779B97F4A7C15) & mask
                z = state
                z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
                z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
                out.append(z ^ (z >> 31))
            return out

        for seed in (0, 1, 42, 2**64 - 1):
            assert Rng(seed).raw(16).tolist() == scalar_stream(seed, 16)

    def test_known_vector_seed_zero(self):
        # First outputs of the widely used 64-bit mix sequence for seed 0.
        got = [int(v) for v in Rng(0).raw(3)]
        assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_stream_continues_across_calls(self):
        a = Rng(9)
        b = Rng(9)
        joined = np.concatenate([a.raw(3), a.raw(5)])
        assert np.array_equal(joined, b.raw(8))

    def test_uniform_range(self):
        u = Rng(3).uniform(10_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_normal_moments(self):
        z = Rng(4).normal(200_000)
        assert abs(float(z.mean())) < 0.02
        assert abs(float(z.std()) - 1.0) < 0.02

    def test_normal_shape_and_determinism(self):
        a = Rng(7).normal((3, 4, 5))
        b = Rng(7).normal((3, 4, 5))
        assert a.shape == (3, 4, 5)
        assert np.array_equal(a, b)

    def test_normal_holds_a_bounded_chunk_beside_its_draws(self):
        """2^20 samples peaked at 4x their 8 MiB when every pair's
        temporaries were made at once; chunks of pairs add about 10%."""
        n = 1 << 20
        assert traced_peak(Rng(3).normal, n) < 1.25 * 8 * n

    def test_permutation_is_bijection(self):
        p = Rng(11).permutation(257)
        assert np.array_equal(np.sort(p), np.arange(257))

    def test_spawn_streams_differ(self):
        root = Rng(5)
        a = root.spawn(1).raw(4)
        b = root.spawn(2).raw(4)
        assert not np.array_equal(a, b)
        assert np.array_equal(root.spawn(1).raw(4), a)

    #: Every method, on odd and even sizes, scalar and tuple shapes and size
    #: 1; normal also on one whole chunk of 2^14 pairs, one pair past it
    #: (odd), and three chunks less a pair.
    CALLS = [("raw", 1), ("raw", 8), ("uniform", 1), ("uniform", 7), ("uniform", (3, 4)),
             ("normal", 1), ("normal", (1,)), ("normal", (1, 1)), ("normal", 2), ("normal", 7),
             ("normal", (8, 8)), ("normal", (5, 3)), ("normal", (64, 16)), ("permutation", 1),
             ("permutation", 9), ("raw", 3), ("normal", 0), ("normal", 1001),
             ("normal", (2, 1 << 14)), ("normal", (1 << 15) + 1), ("normal", 3 * (1 << 15) - 2)]

    @staticmethod
    def same_draws(got, want):
        return got.dtype == want.dtype and same_bits(got, want)

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_streams_match_the_two_draw_reference(self, seed):
        """Each call gives the reference's bits and leaves the counter
        where the reference leaves it, in order and interleaved."""
        got, want = Rng(seed), TwoDrawRng(seed)
        shuffled = [self.CALLS[i] for i in np.argsort(TwoDrawRng(seed ^ 7).uniform(len(self.CALLS)))]
        for method, arg in self.CALLS + shuffled + self.CALLS[::-1]:
            assert self.same_draws(getattr(got, method)(arg), getattr(want, method)(arg)), (method, arg)
            assert got._pos == want._pos

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_spawned_streams_match_the_two_draw_reference(self, seed):
        root, want_root = Rng(seed), TwoDrawRng(seed)
        root.normal(5), want_root.normal(5)
        for stream in (0, 1, 2, 2**63, 2**64 - 1, 2**64 + 3):
            got, want = root.spawn(stream), want_root.spawn(stream)
            assert got.seed == want.seed and got._pos == want._pos == 0
            for method, arg in self.CALLS:
                assert self.same_draws(getattr(got, method)(arg), getattr(want, method)(arg))
            assert root._pos == want_root._pos == 6
