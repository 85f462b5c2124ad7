import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salad.analysis import linear_branch_flops
from salad.checks import linear_attention_naive
from salad.errors import ConfigError, DimensionError
from salad.gradients import rope3d_backward
from salad.linear_attention import (
    EPSILON,
    RopeConfig,
    grid_rope_tables,
    linear_attention_map,
    linear_attention_streaming,
    rope3d_apply,
    rope3d_rotate,
)
from salad.masking import LatentGrid
from salad.numerics import Rng, matmul, numerical_rank, relu

from conftest import same_bits


def streaming_out(q, k, v):
    """The streaming form's output alone."""
    return linear_attention_streaming(q, k, v)[0]


class TestRopeConfig:
    def test_default_split_proportions(self):
        assert RopeConfig.default(16).split == (8, 4, 4)
        assert RopeConfig.default(12).split == (8, 2, 2)
        assert RopeConfig.default(4).split == (4, 0, 0)

    def test_split_validation(self):
        with pytest.raises(ConfigError):
            RopeConfig(split=(3, 2, 1))  # odd budget
        with pytest.raises(ConfigError):
            RopeConfig(split=(2, 2), base=10.0)  # two axes only
        with pytest.raises(ConfigError):
            RopeConfig(split=(2, 2, 2), base=-1.0)

    def test_mismatched_head_dim(self, rng):
        cfg = RopeConfig(split=(4, 2, 2))
        with pytest.raises(ConfigError):
            rope3d_rotate(rng.normal((3, 10)), np.zeros((3, 3), dtype=np.int64), cfg)


class TestRope:
    def test_origin_is_exact_identity(self, rng):
        x = rng.normal((5, 8))
        cfg = RopeConfig.default(8)
        out = rope3d_rotate(x, np.zeros((5, 3), dtype=np.int64), cfg)
        assert np.array_equal(out, x)

    def test_isometry(self, rng):
        x = rng.normal((30, 12))
        cfg = RopeConfig.default(12)
        coords = np.stack([rng.raw(30) % 6, rng.raw(30) % 5, rng.raw(30) % 5], axis=1).astype(np.int64)
        y = rope3d_rotate(x, coords, cfg)
        pairs_in = np.sqrt(x[:, 0::2] ** 2 + x[:, 1::2] ** 2)
        pairs_out = np.sqrt(y[:, 0::2] ** 2 + y[:, 1::2] ** 2)
        assert np.max(np.abs(pairs_in - pairs_out)) < 1e-12
        assert np.max(np.abs(np.linalg.norm(x, axis=1) - np.linalg.norm(y, axis=1))) < 1e-12

    def test_inverse_rotation_recovers_input(self, rng):
        x = rng.normal((10, 8))
        cfg = RopeConfig.default(8)
        coords = np.stack([rng.raw(10) % 4, rng.raw(10) % 3, rng.raw(10) % 3], axis=1).astype(np.int64)
        y = rope3d_rotate(x, coords, cfg)
        back = rope3d_rotate(y, -coords, cfg)
        assert np.max(np.abs(back - x)) < 1e-12

    def test_relative_position_property(self, rng):
        cfg = RopeConfig.default(16)
        worst = 0.0
        for _ in range(40):
            q, k = rng.normal((1, 16)), rng.normal((1, 16))
            p1 = (rng.raw(3) % 5).astype(np.int64)
            p2 = (rng.raw(3) % 5).astype(np.int64)
            shift = (rng.raw(3) % 4).astype(np.int64)
            a = float(np.sum(rope3d_rotate(q, p1[None], cfg) * rope3d_rotate(k, p2[None], cfg)))
            b = float(np.sum(rope3d_rotate(q, (p1 + shift)[None], cfg)
                             * rope3d_rotate(k, (p2 + shift)[None], cfg)))
            worst = max(worst, abs(a - b))
        assert worst < 1e-9

    def test_sequence_apply_uses_grid_coords(self, rng):
        grid = LatentGrid(2, 2, 2, heads=1, head_dim=8)
        x = rng.normal((8, 8))
        cfg = RopeConfig.default(8)
        assert np.array_equal(rope3d_apply(x, grid, cfg), rope3d_rotate(x, grid.coords(), cfg))
        with pytest.raises(DimensionError):
            rope3d_apply(rng.normal((7, 8)), grid, cfg)


class TestGridRopeTables:
    """``rope3d_apply`` and the block backward read cos/sin tables cached per
    (grid extents, config, heads, sign); they must give the bits of the
    uncached rotation by caller-given coordinates."""

    @pytest.mark.parametrize("heads", [1, 2])
    def test_cached_rotation_matches_caller_coords(self, rng, heads):
        grid = LatentGrid(3, 2, 4, heads=heads, head_dim=12)
        cfg = RopeConfig(split=(6, 4, 2), base=500.0)
        x = rng.normal((grid.seq_len, grid.channels))
        coords = grid.coords()
        assert same_bits(rope3d_apply(x, grid, cfg), rope3d_rotate(x, coords, cfg))
        assert same_bits(rope3d_backward(x, grid, cfg), rope3d_rotate(x, -coords, cfg))

    @pytest.mark.parametrize("rotate", [rope3d_apply, rope3d_backward])
    def test_cached_rotation_checks_its_input(self, rng, rotate):
        grid = LatentGrid(2, 2, 2, heads=1, head_dim=8)
        cfg = RopeConfig.default(8)
        with pytest.raises(ConfigError):
            rotate(rng.normal((8, 6)), grid, cfg)
        with pytest.raises(DimensionError):
            rotate(rng.normal((7, 8)), grid, cfg)

    def test_tables_are_shared_and_read_only(self):
        cfg = RopeConfig.default(8)
        tables = grid_rope_tables(2, 2, 2, cfg, 2, 1)
        assert grid_rope_tables(2, 2, 2, cfg, 2, 1) is tables
        assert grid_rope_tables(2, 2, 2, cfg, 2, -1) is not tables
        for table in tables:
            assert table.shape == (8, 8) and not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0


class TestLinearAttention:
    def test_single_positive_token_returns_value(self, rng):
        q = np.abs(rng.normal((1, 4))) + 0.1
        k = np.abs(rng.normal((1, 4))) + 0.1
        v = rng.normal((1, 4))
        for fn in (linear_attention_naive, streaming_out):
            assert np.max(np.abs(fn(q, k, v) - v)) < 1e-9

    def test_identical_values_give_convex_combination(self, rng):
        n, d = 10, 4
        q = np.abs(rng.normal((n, d))) + 0.1
        k = np.abs(rng.normal((n, d))) + 0.1
        v = np.tile(rng.normal((1, d)), (n, 1))
        out = linear_attention_naive(q, k, v)
        assert np.max(np.abs(out - v)) < 1e-9

    def test_dead_query_row_is_zero(self, rng):
        q = np.abs(rng.normal((4, 3))) + 0.1
        q[2] = -1.0  # relu kills the whole row
        k = np.abs(rng.normal((4, 3))) + 0.1
        v = rng.normal((4, 3))
        for fn in (linear_attention_naive, streaming_out):
            out = fn(q, k, v)
            assert np.array_equal(out[2], np.zeros(3))

    def test_zero_keys_give_zero_output(self, rng):
        out = streaming_out(rng.normal((5, 3)), np.zeros((5, 3)), rng.normal((5, 3)))
        assert np.array_equal(out, np.zeros((5, 3)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_streaming_equals_naive(self, seed):
        r = Rng(seed)
        n = 4 + int(r.raw(1)[0] % 60)
        d = 2 + int(r.raw(1)[0] % 14)
        q, k, v = r.normal((n, d)), r.normal((n, d)), r.normal((n, d))
        naive = linear_attention_naive(q, k, v)
        stream = streaming_out(q, k, v)
        bound = 1e-10 * (1.0 + float(np.max(np.abs(naive))))
        assert float(np.max(np.abs(stream - naive))) < bound

    def test_map_rows_are_subconvex_weights(self, rng):
        q, k = rng.normal((12, 6)), rng.normal((12, 6))
        m = linear_attention_map(q, k)
        assert np.all(m >= 0.0)
        assert np.all(m.sum(axis=1) <= 1.0 + 1e-12)

    def test_map_rows_sum_to_one_without_dead_queries(self, rng):
        q = np.abs(rng.normal((12, 6))) + 0.1
        k = np.abs(rng.normal((12, 6))) + 0.1
        m = linear_attention_map(q, k)
        assert np.max(np.abs(m.sum(axis=1) - 1.0)) < 1e-9

    def test_output_rank_bounded_by_head_dim(self, rng):
        n, d = 40, 5
        out = streaming_out(rng.normal((n, d)), rng.normal((n, d)), rng.normal((n, d)))
        assert numerical_rank(out) <= d

    def test_shape_validation(self, rng):
        with pytest.raises(DimensionError):
            linear_attention_streaming(rng.normal((4, 3)), rng.normal((5, 3)), rng.normal((4, 3)))

    def test_flop_convention(self):
        assert linear_branch_flops(100, 8) == 4 * 100 * 64 + 2 * 100 * 8

    def test_epsilon_value(self):
        assert EPSILON == 1e-9


# ---------------------------------------------------------------------------
# Stacks: each element gets the bits it gets alone


@pytest.mark.parametrize("rotate", [rope3d_apply, rope3d_backward])
def test_stacked_rotation_turns_each_element_alike(rng, rotate):
    grid = LatentGrid(3, 2, 4, heads=2, head_dim=12)
    cfg = RopeConfig(split=(6, 4, 2), base=500.0)
    x = rng.normal((3, grid.seq_len, grid.channels))
    got = rotate(x, grid, cfg)
    for s in range(3):
        assert same_bits(got[s], rotate(x[s], grid, cfg))
    with pytest.raises(DimensionError):
        rotate(x[:, :-1], grid, cfg)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 130, 300])
@pytest.mark.parametrize("stacked", ["q", "k", "v", "kv", "qkv"])
def test_stacked_streaming_terms_have_the_lone_bits(n, stacked):
    """Z sums relu(K) down the token axis; a C-order stack, and one whose
    elements interleave in memory (as a wide product's would), must add
    each column's tokens in the order a lone (N, d) array does, and the
    output and every other term of the state (H, the numerators and the
    guarded denominators) must match too. About half the features are
    zero, as ReLU makes them."""
    r = Rng(n + len(stacked))
    lone = {name: r.normal((n, 6)) * 3.0 for name in "qkv"}
    for layout in ("c_order", "interleaved"):
        args = []
        for name in "qkv":
            if name not in stacked:
                args.append(lone[name])
            elif layout == "c_order":
                args.append(r.normal((3, n, 6)) * 3.0)
            else:
                args.append(r.normal((n, 3, 6)).transpose(1, 0, 2) * 3.0)
        out, stack = linear_attention_streaming(*args)
        got = (out, stack.h, stack.z, stack.num, stack.den)
        for s in range(3):
            each, state = linear_attention_streaming(*(a[s] if a.ndim == 3 else a for a in args))
            want = (each, state.h, state.z, state.num, state.den)
            for term, (g, w) in enumerate(zip(got, want)):
                assert same_bits(g[s] if g.ndim > w.ndim else g, w), (layout, term)


@pytest.mark.parametrize("n", [1, 9, 130, 1024])
def test_numerators_and_normalizer_run_as_one_product_with_the_bits_of_two(n):
    """The streaming form runs relu(Q) [H | Z] as one product; the
    numerators and guarded denominators in its state have the bits of the
    two separate products relu(Q) H and relu(Q) Z, with dead feature rows
    included, and its output is their quotient."""
    r = Rng(n)
    q, k, v = (r.normal((n, 16)) for _ in range(3))
    q[: n // 4] = -np.abs(q[: n // 4])
    out, state = linear_attention_streaming(q, k, v)
    fq = relu(q)
    assert same_bits(state.num, matmul(fq, state.h))
    assert same_bits(state.den, matmul(fq, state.z[:, None])[:, 0] + EPSILON)
    assert same_bits(out, state.num / state.den[:, None])
