import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salad import numerics
from salad.errors import DegenerateRowError, DimensionError, NumericError
from salad.numerics import (
    Rng,
    householder_r,
    jacobi_singular_values,
    matmul,
    numerical_rank,
    relu,
    round_robin_rounds,
    sigmoid,
    softmax_masked,
    tanh,
)

from conftest import elimination_rank, triple_loop_matmul


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


class TestSoftmaxMasked:
    def test_single_survivor(self):
        logits = np.array([[5.0, 100.0, -3.0]])
        mask = np.array([[True, False, False]])
        assert softmax_masked(logits, mask).tolist() == [[1.0, 0.0, 0.0]]

    def test_uniform_logits(self):
        for c in (-7.5, 0.0, 3e4):
            out = softmax_masked(np.full((1, 4), c), np.ones((1, 4), dtype=bool))
            assert out.tolist() == [[0.25, 0.25, 0.25, 0.25]]

    def test_against_extended_precision(self):
        import mpmath

        mpmath.mp.dps = 50
        logits = np.array([[1.0, 2.0, 3.0]])
        out = softmax_masked(logits, np.ones((1, 3), dtype=bool))
        exps = [mpmath.e ** mpmath.mpf(v) for v in (1, 2, 3)]
        total = sum(exps)
        want = [float(e / total) for e in exps]
        assert np.max(np.abs(out[0] - want)) < 1e-15

    def test_masked_entries_exactly_zero(self, rng):
        logits = rng.normal((6, 6)) * 50
        mask = rng.uniform((6, 6)) < 0.5
        np.fill_diagonal(mask, True)
        out = softmax_masked(logits, mask)
        assert np.all(out[~mask] == 0.0)
        assert np.max(np.abs(out[mask].reshape(-1))) <= 1.0

    def test_degenerate_row_raises(self):
        mask = np.array([[True, True], [False, False]])
        with pytest.raises(DegenerateRowError, match="row 1"):
            softmax_masked(np.zeros((2, 2)), mask)

    def test_shift_invariance_bit_for_bit(self):
        # Dyadic logits and shifts add exactly, so the max-subtracted
        # inputs are identical and the outputs match to the bit.
        logits = np.array([[0.5, -1.25, 3.0, 0.0], [2.0, 2.5, -0.5, 1.75]])
        mask = np.array([[True, False, True, True], [True, True, True, False]])
        base = softmax_masked(logits, mask)
        for c in (-8.0, 0.25, 1024.0):
            assert np.array_equal(softmax_masked(logits + c, mask), base)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rows_are_simplices(self, seed):
        r = Rng(seed)
        logits = r.normal((5, 7)) * 10
        mask = r.uniform((5, 7)) < 0.4
        mask[:, 0] = True
        out = softmax_masked(logits, mask)
        assert np.all(out >= 0.0)
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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflowing_factor_raises(self):
        with pytest.raises(NumericError, match="triangular factor"):
            numerical_rank(np.full((8, 3), 1e200))

    def test_unconverged_sweeps_raise(self, rng, monkeypatch):
        monkeypatch.setattr(numerics, "_JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(NumericError, match="did not converge"):
            jacobi_singular_values(rng.normal((32, 6)))


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

    def test_permutation_is_bijection(self):
        p = Rng(11).permutation(257)
        assert np.array_equal(np.sort(p), np.arange(257))

    def test_spawn_streams_differ(self):
        root = Rng(5)
        a = root.spawn(1).raw(4)
        b = root.spawn(2).raw(4)
        assert not np.array_equal(a, b)
        assert np.array_equal(root.spawn(1).raw(4), a)
