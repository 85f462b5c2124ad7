import gc
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salad import masking, numerics
from salad.analysis import head_sparsity_stats, plan_sparsity_stats
from salad.checks import build_window_mask
from salad.errors import BlockCountError, ConfigError, DegenerateRowError, StateError
from salad.gradients import head_attention_backward
from salad.masking import (
    CalibrationResult,
    Explicit,
    KeyList,
    LatentGrid,
    MaskPlan,
    TopK,
    Window,
    calibrate_plan,
    calibrate_window,
    head_keys,
    invert_permutation,
    select_topk_blocks,
    sparse_head_attention,
    st_reorder_permutation,
    window_attended_pairs,
    window_keys,
)
from salad.numerics import Rng

from conftest import (from_pairs, loop_topk_blocks, loop_topk_keys, same_bits, traced_peak,
                      transpose_plan)


def grid_of(f, h, w, heads=1, d=4):
    return LatentGrid(frames=f, height=h, width=w, heads=heads, head_dim=d)


class TestReorder:
    def test_single_frame_is_identity(self):
        for h, w in [(1, 1), (3, 5), (4, 4)]:
            g = grid_of(1, h, w)
            assert np.array_equal(st_reorder_permutation(g), np.arange(g.seq_len))

    def test_enumerated_2x2x2(self):
        assert st_reorder_permutation(grid_of(2, 2, 2)).tolist() == [0, 4, 1, 5, 2, 6, 3, 7]

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_bijection_round_trip(self, f, h, w):
        g = grid_of(f, h, w)
        perm = st_reorder_permutation(g)
        assert np.array_equal(np.sort(perm), np.arange(g.seq_len))
        assert np.array_equal(perm[invert_permutation(perm)], np.arange(g.seq_len))

    def test_temporal_neighbors_adjacent(self):
        g = grid_of(5, 3, 4)
        new_pos = invert_permutation(st_reorder_permutation(g))
        coords = g.coords()
        for i in range(g.seq_len):
            t, h, w = coords[i]
            if t + 1 < g.frames:
                j = (t + 1) * g.height * g.width + h * g.width + w
                assert abs(int(new_pos[i]) - int(new_pos[j])) == 1

    def test_band_covers_same_site_pairs_after_reorder(self):
        # radius >= F-1 reaches every frame pair of one spatial site.
        g = grid_of(4, 3, 3)
        new_pos = invert_permutation(st_reorder_permutation(g))
        mask = build_window_mask(g.seq_len, g.frames - 1)
        coords = g.coords()
        by_site = {}
        for i in range(g.seq_len):
            t, h, w = coords[i]
            by_site.setdefault((h, w), []).append(i)
        for site_tokens in by_site.values():
            for i in site_tokens:
                for j in site_tokens:
                    assert mask[new_pos[i], new_pos[j]]


class TestWindowMask:
    def test_full_window(self):
        assert build_window_mask(5, 4).all()
        assert build_window_mask(5, 100).all()

    def test_small_band_count(self):
        mask = build_window_mask(8, 1)
        assert int(mask.sum()) == 22
        assert np.array_equal(mask, mask.T)

    @given(st.integers(1, 60), st.integers(0, 70))
    @settings(max_examples=50, deadline=None)
    def test_diagonal_and_closed_form(self, n, r):
        mask = build_window_mask(n, r)
        assert mask.diagonal().all()
        assert int(mask.sum()) == window_attended_pairs(n, r)

    def test_large_window_closed_form(self):
        assert window_attended_pairs(1000, 50) == 101 * 1000 - 50 * 51 == 98450

    def test_negative_radius(self):
        with pytest.raises(ConfigError):
            build_window_mask(4, -1)


class TestTopK:
    def test_strictly_ordered_scores(self):
        # Key blocks with increasing magnitude: block scores are strictly
        # ordered, so the top-1 pick is the largest-mean block.
        n, d, b = 8, 2, 2
        q = np.ones((n, d))
        k = np.concatenate([np.full((2, d), v) for v in (1.0, 4.0, 2.0, 3.0)])
        sel = select_topk_blocks(q, k, b, 1)
        # per query block: argmax block 1, plus the forced own block
        assert sel == [[0, 1], [1], [1, 2], [1, 3]]

    def test_mask_realization(self):
        n, b = 8, 2
        q = np.ones((n, 2))
        k = np.concatenate([np.full((2, 2), v) for v in (1.0, 4.0, 2.0, 3.0)])
        mask = head_keys(TopK(b, 1), grid_of(1, 1, n), q, k)[0].mask()
        sel = select_topk_blocks(q, k, b, 1)
        for qb in range(4):
            rows = slice(qb * b, (qb + 1) * b)
            want = np.zeros(n, dtype=bool)
            for kb in sel[qb]:
                want[kb * b : (kb + 1) * b] = True
            assert np.array_equal(mask[rows], np.tile(want, (b, 1)))

    def test_selected_block_count_bound(self, rng):
        q, k = rng.normal((24, 4)), rng.normal((24, 4))
        for kk in (1, 2, 3):
            for blocks in select_topk_blocks(q, k, 4, kk):
                assert kk <= len(blocks) <= kk + 1

    def test_tie_breaks_to_lower_index(self):
        q = np.ones((4, 2))
        k = np.ones((4, 2))  # all scores equal
        assert select_topk_blocks(q, k, 2, 1) == [[0], [0, 1]]

    def test_k_exceeding_block_count(self, rng):
        q, k = rng.normal((8, 2)), rng.normal((8, 2))
        with pytest.raises(BlockCountError):
            select_topk_blocks(q, k, 4, 3)

    def test_k_equal_block_count_is_all_true(self, rng):
        q, k = rng.normal((9, 3)), rng.normal((9, 3))  # short last block
        assert head_keys(TopK(4, 3), grid_of(1, 1, 9), q, k)[0].mask().all()

    def test_defaults(self):
        assert TopK(block_size=8).k == 4

    @staticmethod
    def sweep():
        """Seeded (q, k, block_size, top_k) cases: every other one has
        integer-valued q and k in -2..2, so block scores tie often; block
        sizes run from 1 past N, many leaving a short last block; top_k
        runs from 1 to the block count."""
        r = Rng(61)
        for i in range(252):
            n, d, pick = (1 + int(x) for x in r.raw(3) % np.array([96, 9, 96]))
            block_size = (1, 2, 3, 8, n, n + 5, 1 + pick % n)[i % 7]
            nb = -(-n // block_size)
            top_k = (1, nb, 1 + pick % nb)[i % 3]
            q, k = r.normal((n, d)), r.normal((n, d))
            if i % 2:
                q, k = np.clip(np.round(q), -2, 2), np.clip(np.round(k), -2, 2)
            yield q, k, block_size, top_k

    def test_selection_matches_loop_reference(self):
        for q, k, block_size, top_k in self.sweep():
            got = select_topk_blocks(q, k, block_size, top_k)
            assert got == loop_topk_blocks(q, k, block_size, top_k)
            assert all(type(b) is int for blocks in got for b in blocks)

    def test_key_list_matches_loop_reference(self):
        for q, k, block_size, top_k in self.sweep():
            got, _ = head_keys(TopK(block_size, top_k), grid_of(1, 1, len(q)), q, k)
            want = loop_topk_keys(q, k, block_size, top_k)
            assert got.keys.dtype == want.keys.dtype == np.int64
            assert got.valid.dtype == want.valid.dtype == bool
            assert got.keys.shape == want.keys.shape == got.valid.shape
            assert np.array_equal(got.keys, want.keys)
            assert np.array_equal(got.valid, want.valid)

    def test_key_build_memory_is_bounded_by_the_block_scores(self):
        """N = 8192: the (1024, 1024) block scores take 8 MiB and the key
        list 2.8 MiB; an (nb, nb, block_size) int64 intermediate would take
        64 MiB."""
        r = Rng(17)
        grid = LatentGrid(frames=8, height=32, width=32, heads=1, head_dim=32)
        q, k = r.normal((8192, 32)), r.normal((8192, 32))
        keys, _ = head_keys(TopK(8, 4), grid, q, k)
        budget = 1024 * 1024 * 8 + keys.keys.nbytes + keys.valid.nbytes
        assert traced_peak(head_keys, TopK(8, 4), grid, q, k) < 2 * budget


class TestRealize:
    def test_explicit_shape_check(self):
        g = grid_of(2, 2, 2)
        with pytest.raises(ConfigError, match="does not match"):
            head_keys(Explicit(np.ones((4, 4), dtype=bool)), g)

    def test_explicit_empty_row(self):
        g = grid_of(2, 2, 1)
        mask = np.ones((4, 4), dtype=bool)
        mask[2, :] = False
        with pytest.raises(DegenerateRowError, match="row 2"):
            head_keys(Explicit(mask), g)

    def test_explicit_missing_diagonal(self):
        g = grid_of(2, 2, 1)
        mask = np.ones((4, 4), dtype=bool)
        mask[1, 1] = False  # row still has keys, but not itself
        with pytest.raises(DegenerateRowError, match="attend itself"):
            head_keys(Explicit(mask), g)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_realized_masks_keep_diagonal(self, seed):
        r = Rng(seed)
        g = grid_of(2, 2, 2)
        entries = [
            Window(radius=int(r.raw(1)[0] % 8), reordered=bool(r.raw(1)[0] % 2)),
            TopK(block_size=1 + int(r.raw(1)[0] % 4), k=1),
        ]
        for entry in entries:
            q, k = r.normal((8, 4)), r.normal((8, 4))
            assert head_keys(entry, g, q, k)[0].mask().diagonal().all()

    def test_topk_needs_data(self):
        with pytest.raises(StateError):
            head_keys(TopK(block_size=2, k=1), grid_of(2, 2, 1))

    def test_window_reordered_returns_permutation(self):
        g = grid_of(2, 2, 2)
        _, perm = head_keys(Window(radius=1, reordered=True), g)
        assert perm is not None
        _, perm = head_keys(Window(radius=1), g)
        assert perm is None


class TestCalibration:
    def test_vacuous_threshold_selects_smallest(self, rng):
        profiles = [tuple(rng.normal((12, 4)) for _ in range(3))]
        res = calibrate_window(profiles, [2, 4, 8], delta=math.inf)
        assert res.radius == 2 and res.qualified

    def test_empty_candidates(self):
        with pytest.raises(ConfigError):
            calibrate_window([], [])

    def test_unsorted_candidates(self, rng):
        profiles = [tuple(rng.normal((8, 4)) for _ in range(3))]
        with pytest.raises(ConfigError):
            calibrate_window(profiles, [4, 2])

    def test_none_qualifies_flags_head(self, rng):
        profiles = [tuple(rng.normal((24, 4)) for _ in range(3))]
        res = calibrate_window(profiles, [1, 2], delta=1e-12)
        assert res.radius == 2 and not res.qualified

    def test_degenerate_values_select_smallest(self, rng):
        n = 12
        q = rng.normal((n, 4))
        k = np.tile(rng.normal((1, 4)), (n, 1))
        v = np.tile(rng.normal((1, 4)), (n, 1))
        res = calibrate_window([(q, k, v)], [1, 3, 5], delta=0.5)
        assert res.radius == 1 and res.rse < 1e-20

    def test_greedy_matches_exhaustive_scan(self, rng):
        candidates = [1, 2, 4, 8]
        profiles = [tuple(rng.normal((20, 6)) for _ in range(3)) for _ in range(2)]
        delta = 0.05
        res = calibrate_window(profiles, candidates, delta)

        def plain_attention(q, k, v, mask):
            logits = np.where(mask, q @ k.T / math.sqrt(q.shape[1]), -np.inf)
            w = np.exp(logits - logits.max(axis=1, keepdims=True))
            return (w / w.sum(axis=1, keepdims=True)) @ v

        full = [plain_attention(q, k, v, np.ones((20, 20), dtype=bool)) for q, k, v in profiles]
        rses = []
        for r in candidates:
            num = den = 0.0
            for (q, k, v), f in zip(profiles, full):
                s = plain_attention(q, k, v, build_window_mask(20, r))
                num += float(np.sum((s - f) ** 2))
                den += float(np.sum(f**2))
            rses.append(num / den)
        qualifying = [r for r, e in zip(candidates, rses) if e <= delta]
        want = qualifying[0] if qualifying else candidates[-1]
        assert res.radius == want

    def test_reorder_chosen_for_temporal_locality(self):
        # Keys and values depend only on the spatial site, and queries point
        # at their own site, so attention is same-site (far apart in default
        # order, adjacent after the reorder).
        g = grid_of(6, 2, 2, heads=1, d=4)
        rng = Rng(99)
        site_vec = {(h, w): rng.normal(4) * 3.0 for h in range(2) for w in range(2)}
        q = np.stack([site_vec[(h, w)] for t, h, w in g.coords()])
        k = q.copy()
        v = np.stack([rng.normal(4) for _ in range(g.seq_len)])
        res = calibrate_plan([[(q, k, v)]], [g.frames - 1], g, delta=0.05, choose_reorder=True)[1][0]
        assert res.reordered

    def test_choose_reorder_off(self, rng):
        g = grid_of(2, 2, 2)
        profiles = [tuple(rng.normal((8, 4)) for _ in range(3))]
        res = calibrate_plan([profiles], [1, 2], g, choose_reorder=False)[1][0]
        assert isinstance(res, CalibrationResult)
        assert not res.reordered


class TestSparsityStats:
    def test_all_true_plan(self):
        g = grid_of(2, 2, 2, heads=3, d=4)
        plan = MaskPlan.uniform(Window(radius=8), 3)
        stats, aggregate = plan_sparsity_stats(plan, g)
        assert aggregate == 0.0
        assert all(s.attended_pairs == 64 for s in stats)
        assert stats[0].attn_flops_full == stats[0].attn_flops_sparse == 4 * 64 * 4

    def test_aggregate_is_mean(self):
        g = grid_of(2, 2, 2, heads=2, d=4)
        plan = MaskPlan([Window(radius=0), Window(radius=8)])
        stats, aggregate = plan_sparsity_stats(plan, g)
        assert aggregate == (stats[0].sparsity + stats[1].sparsity) / 2

    def test_topk_realized_vs_model(self, rng):
        g = grid_of(2, 2, 2, heads=1, d=4)
        entry = TopK(block_size=2, k=2)
        q, k = rng.normal((8, 4)), rng.normal((8, 4))
        keys, _ = head_keys(entry, g, q, k)
        model = head_sparsity_stats(entry, g)
        assert model.attended_pairs == 8 * 4  # k*B keys per row
        assert keys.pairs >= model.attended_pairs  # forced diagonal adds
        assert keys.pairs == int(keys.mask().sum())

    def test_plan_length_mismatch(self):
        g = grid_of(2, 2, 2, heads=2, d=4)
        with pytest.raises(ConfigError):
            plan_sparsity_stats(MaskPlan([Window(radius=1)]), g)

    def test_ninety_percent_operating_point(self):
        g = LatentGrid(frames=10, height=10, width=10, heads=2, head_dim=8)
        plan = MaskPlan.uniform(Window(radius=51), 2)
        _, aggregate = plan_sparsity_stats(plan, g)
        assert abs(aggregate - 0.90) <= 0.001


class TestGrid:
    def test_seq_len_and_channels(self):
        g = LatentGrid(3, 4, 5, heads=2, head_dim=6)
        assert g.seq_len == 60 and g.channels == 12

    def test_validation(self):
        with pytest.raises(ConfigError):
            LatentGrid(0, 1, 1, 1, 2)
        with pytest.raises(ConfigError, match="even"):
            LatentGrid(1, 1, 1, 1, 3)

    def test_coords_default_order(self):
        g = grid_of(2, 2, 2)
        want = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
                (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
        assert [tuple(c) for c in g.coords()] == want


class TestPerGridCaches:
    """Coordinates and window key lists are built once per key and shared,
    so they are read-only: a caller writing into one would corrupt every
    later user of the same entry."""

    def test_coords_are_read_only(self):
        coords = grid_of(2, 3, 4).coords()
        assert not coords.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            coords[0, 0] = 7

    def test_coords_keyed_on_extents_only(self):
        a, b = grid_of(2, 3, 4, heads=1), grid_of(2, 3, 4, heads=3, d=6)
        assert a.coords() is b.coords()
        other = grid_of(3, 2, 4)
        assert other.coords() is not a.coords()
        assert other.coords().shape == a.coords().shape
        assert not np.array_equal(other.coords(), a.coords())
        t, h, w = np.meshgrid(np.arange(3), np.arange(2), np.arange(4), indexing="ij")
        assert np.array_equal(other.coords(), np.stack([t.ravel(), h.ravel(), w.ravel()], axis=1))

    @pytest.mark.parametrize("n,radius", [(20, 3), (20, 19), (5, 40)], ids=["band", "full", "wide"])
    def test_window_keys_are_cached_and_read_only(self, n, radius):
        keys = window_keys(n, radius)
        assert window_keys(n, radius) is keys
        for arr in (keys.keys, keys.valid):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = arr[0, 0]
        assert np.array_equal(keys.mask(), build_window_mask(n, radius))


# ---------------------------------------------------------------------------
# The key-list kernel against its per-channel and per-slot loops


def loop_scores(keys, a, b):
    """One update per channel, ascending from 0.0: the dense matmul order."""
    out = np.zeros(keys.keys.shape)
    bt = np.ascontiguousarray(b.T)
    for c in range(a.shape[1]):
        out += a[:, c:c + 1] * bt[c].take(keys.keys)
    return out


def loop_apply(keys, w, x):
    """One update per slot, ascending from 0.0."""
    out = np.zeros((keys.keys.shape[0], x.shape[1]))
    for m in range(keys.keys.shape[1]):
        out += w[:, m:m + 1] * x.take(keys.keys[:, m], axis=0)
    return out


def signed_values(r, shape):
    """Normal entries with about 10% of them -0.0."""
    return np.where(r.uniform(shape) < 0.1, -0.0, r.normal(shape))


def key_list_cases():
    """Case name -> (key list, channels)."""
    r = Rng(11)
    q, k = r.normal((512, 16)), r.normal((512, 16))
    mask = r.uniform((600, 600)) < 0.05
    np.fill_diagonal(mask, True)
    return {
        "window_r8": (window_keys(1024, 8), 16),
        "window_r4": (window_keys(1024, 4), 32),
        "full": (KeyList.full(300), 16),
        "topk": (head_keys(TopK(block_size=8, k=4), grid_of(8, 8, 8), q, k)[0], 16),
        "explicit": (head_keys(Explicit(mask), grid_of(6, 10, 10))[0], 16),
    }


KEY_LISTS = key_list_cases()


@pytest.mark.parametrize("transposed", [False, True], ids=["forward", "transposed"])
@pytest.mark.parametrize("case", sorted(KEY_LISTS))
def test_key_list_kernel_bits_match_loops(case, transposed):
    keys, channels = KEY_LISTS[case]
    r = Rng(len(case))
    if transposed:
        keys, _ = keys.transposed()
    n, width = keys.keys.shape
    a, b, x = (signed_values(r, (n, channels)) for _ in range(3))
    w = signed_values(r, (n, width))
    assert same_bits(keys.scores(a, b), loop_scores(keys, a, b))
    assert same_bits(keys.apply(w, x), loop_apply(keys, w, x))
    neg = np.full((n, channels), -0.0)  # every term +-0.0; the loops give +0.0 where all are -0.0
    assert same_bits(keys.scores(neg, b), loop_scores(keys, neg, b))
    assert same_bits(keys.apply(w, neg), loop_apply(keys, w, neg))


@pytest.mark.parametrize("case", sorted(KEY_LISTS))
def test_key_list_kernel_stack_fallback_gives_the_fused_bits(case, monkeypatch):
    keys, channels = KEY_LISTS[case]
    r = Rng(len(case) + 50)
    n, width = keys.keys.shape
    a, b, x = (signed_values(r, (n, channels)) for _ in range(3))
    w = signed_values(r, (n, width))
    fused = keys.scores(a, b), keys.apply(w, x)
    monkeypatch.setattr(numerics, "BLOCK_KERNEL", numerics.stacked_block)
    assert same_bits(keys.scores(a, b), fused[0])
    assert same_bits(keys.apply(w, x), fused[1])


@pytest.mark.parametrize("n,radius", [(1, 0), (2, 0), (9, 0), (9, 1), (9, 3), (9, 6), (9, 7),
                                      (40, 5), (300, 17)])
def test_window_products_read_views_with_the_loops_bits(n, radius, monkeypatch):
    """A window list whose gathered operand would fill more than one block
    (here any) reads its operands through views whose rows slide along the
    keys, one per span of rows (of each element, in a stack of two), and
    gathers nothing: narrow and wide windows, radius 0 and windows as wide
    as the sequence give the loops' bits, on contiguous operands and on
    column slices."""
    monkeypatch.setattr(masking, "ORDERED_SUM_BLOCK", 0)
    keys = window_keys(n, radius)
    if radius < n - 1:
        spans = keys.spans
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        for start, stop, first, step in spans:
            assert np.array_equal(keys.keys[start:stop, 0], first + step * np.arange(stop - start))
    operands = []
    real = masking.ordered_sum
    monkeypatch.setattr(masking, "ordered_sum",
                        lambda coef, values, cols: operands.append(values) or real(coef, values, cols))
    r = Rng(n + radius)
    for lists in ([keys, keys.stacked(2)] if keys.stacks else [keys]):
        rows, width = lists.keys.shape
        for channels in (1, 5):
            wide = signed_values(r, (rows, 3 * channels))
            a, b, x = (wide[:, i * channels:(i + 1) * channels] for i in range(3))
            w = signed_values(r, (rows, width))
            assert same_bits(lists.scores(a, b), loop_scores(lists, a, b)), channels
            assert same_bits(lists.apply(w, x), loop_apply(lists, w, x)), channels
    assert not any(callable(values) for values in operands)


def test_window_products_gather_below_one_block_and_read_views_above(monkeypatch):
    operands = []
    real = masking.ordered_sum
    monkeypatch.setattr(masking, "ordered_sum",
                        lambda coef, values, cols: operands.append(values) or real(coef, values, cols))
    r = Rng(5)
    for n, radius, channels, views in ((64, 4, 16, False), (1024, 8, 16, True)):
        keys = window_keys(n, radius)
        a, b = r.normal((n, channels)), r.normal((n, channels))
        operands.clear()
        keys.scores(a, b)
        keys.apply(keys.scores(a, b), b)
        assert [isinstance(values, list) for values in operands] == [views] * 3, n
        assert [callable(values) for values in operands] == [not views] * 3, n


@pytest.mark.parametrize("n", [7, 128, 129, 2048])
def test_full_key_list_row_sum_matches_the_scatter(n):
    r = Rng(n)
    keys = KeyList.full(n)
    w = signed_values(r, (n, n))
    want = np.concatenate([keys.to_dense(w, s, min(s + 128, n)).sum(axis=1)
                           for s in range(0, n, 128)])
    assert same_bits(keys.row_sum(w), want)
    assert same_bits(keys.row_sum(np.asfortranarray(w)), want)


def test_key_list_cases_span_several_row_blocks():
    """Each case's stacks exceed one block, so the kernel sums row blocks."""
    for keys, channels in KEY_LISTS.values():
        n, width = keys.keys.shape
        assert n * width * channels > 2 * numerics.ORDERED_SUM_BLOCK


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 512, 1000])
def test_full_list_row_blocks_give_the_one_block_bits(n):
    """``attend_keys`` runs a full list in row blocks of at most
    ``ORDERED_SUM_BLOCK`` slots; its output and weights keep the bits of the
    whole list's scores, softmax and product. Rows scale their logits by
    2^-30..2^30 and about 10% of the terms are -0.0."""
    r = Rng(n + 7)
    keys = KeyList.full(n)
    q = signed_values(r, (n, 24)) * 2.0 ** np.floor(61.0 * r.uniform((n, 1)) - 30.0)
    k, v = signed_values(r, (n, 24)), signed_values(r, (n, 24))
    weights = keys.softmax(keys.scores(q, k) * (1.0 / math.sqrt(24)))
    out = keys.apply(weights, v)
    got, got_weights = masking.attend_keys(q, k, v, keys)
    assert same_bits(got, out) and same_bits(got_weights, weights)
    got, no_weights = masking.attend_keys(q, k, v, keys, weights=False)
    assert same_bits(got, out) and no_weights is None


def test_full_list_attention_memory_stays_within_a_row_block():
    """At N=2048 the whole-list path peaked at 128 MB; an output-only call
    holds one row block's temporaries, and a call that keeps the weights
    adds only the N x N weights."""
    n, r = 2048, Rng(4)
    q, k, v = (r.normal((n, 32)) for _ in range(3))
    assert traced_peak(masking.attend_keys, q, k, v, KeyList.full(n), False) <= 8 * 2**20
    assert traced_peak(masking.attend_keys, q, k, v, KeyList.full(n)) <= n * n * 8 + 8 * 2**20


def test_full_key_list_apply_memory_stays_within_a_row_block():
    """A full 512-key list would stack 512 x 512 x 16 terms (32 MiB) at once."""
    r = Rng(3)
    keys, w, x = KeyList.full(512), r.normal((512, 512)), r.normal((512, 16))
    assert traced_peak(keys.apply, w, x) < 2 * numerics.ORDERED_SUM_BLOCK * 8 + 2 * x.nbytes



# ---------------------------------------------------------------------------
# Row sums, and the transposes each list's structure gives

ROW_SUM_LENGTHS = [1, 7, 8, 127, 128, 129, 150, 264, 1000, 1024, 1500, 2048]


def row_sum_values(r, shape):
    """Slot values over magnitudes 2^-30..2^30, about 10% of them -0.0 and
    10% +0.0, with a first and a middle row of only -0.0. Invalid slots
    hold values too, which a row sum must not read."""
    w = signed_values(r, shape) * 2.0 ** np.floor(60.0 * r.uniform(shape) - 30.0)
    w = np.where(r.uniform(shape) < 0.1, 0.0, w)
    w[0] = w[shape[0] // 2] = -0.0
    return w


def row_sum_lists(n):
    """Window (several radii: one wider than a pairwise leaf, and one
    at least N - 1, which is the full list), top-k and explicit key lists
    over n keys."""
    r = Rng(n)
    q, k = r.normal((n, 4)), r.normal((n, 4))
    mask = r.uniform((n, n)) < 0.1
    np.fill_diagonal(mask, True)
    return {
        **{f"window_r{radius}": window_keys(n, radius) for radius in (0, 3, 8, 70, 130, n - 1)},
        "topk": head_keys(TopK(block_size=8, k=min(2, -(-n // 8))), grid_of(1, 1, n), q, k)[0],
        "explicit": head_keys(Explicit(mask), grid_of(1, 1, n))[0],
    }


def reference_transposed(keys, *weights):
    """``KeyList.transposed`` through the pair-sorting ``transpose_plan``."""
    back, gather = transpose_plan(keys)
    return back, [np.where(back.valid, np.take(w, gather), 0.0) for w in weights]


def assert_transpose_matches_the_pair_sort(keys, w):
    """Keys, valid flags and moved weights bit for bit, the weights moved
    from every slot but read only from valid ones."""
    back, moved = keys.transposed(w, -w)
    want_back, want_moved = reference_transposed(keys, w, -w)
    assert back.keys.dtype == want_back.keys.dtype == np.int64
    assert np.array_equal(back.keys, want_back.keys) and np.array_equal(back.valid, want_back.valid)
    assert all(same_bits(got, want) for got, want in zip(moved, want_moved))


@pytest.fixture
def fresh_window_lists():
    """The window lists, the pairwise trees and the row-sum probe, built
    anew in the test and again after it."""
    caches = (masking.window_keys, masking._pairwise_tree, masking._window_row_sum_holds)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("n", ROW_SUM_LENGTHS)
def test_row_sum_matches_the_dense_sum(n):
    r = Rng(n + 1)
    for name, keys in row_sum_lists(n).items():
        for _ in range(2):  # a cached window list sums again
            w = row_sum_values(r, keys.keys.shape)
            assert np.any(np.where(keys.valid, 0.0, w) != 0.0) or keys.valid.all(), name
            want = keys.to_dense(w).sum(axis=1)
            assert same_bits(keys.row_sum(w), want), name
            assert same_bits(keys.row_sum(w), want), name


def test_row_sum_model_splits_rows_as_numpy_does():
    leaves, joins = masking._pairwise_tree(150)
    assert leaves == ((0, 72), (72, 150)) and joins == ((0, 1),)
    leaves, joins = masking._pairwise_tree(264)  # a 128 leaf beside a split 136
    assert leaves == ((0, 128), (128, 192), (192, 264)) and joins == ((1, 2), (0, 3))
    assert masking._pairwise_tree(128) == (((0, 128),), ()) and masking._window_row_sum_holds()


def test_row_sum_falls_back_to_the_scatter_when_the_model_disagrees(monkeypatch,
                                                                      fresh_window_lists):
    """When the probe fails, a window list scatters its row sums, and still
    transposes itself, to the same bits; it does not stack, so a stacked
    head runs element by element."""
    monkeypatch.setattr(masking, "PAIRWISE_LEAF", 64)  # numpy's leaves hold up to 128
    assert not masking._window_row_sum_holds()
    for n in (150, 1024):
        keys = window_keys(n, 8)
        assert keys.spans is not None and not keys.stacks
        w = row_sum_values(Rng(n), keys.keys.shape)
        assert same_bits(keys.row_sum(w), keys.to_dense(w).sum(axis=1))
        back, (moved,) = keys.transposed(w)
        assert back is keys and same_bits(back.to_dense(moved), keys.to_dense(w).T)
        with pytest.raises(StateError, match="only a window list stacks"):
            keys.stacked(2)
    r = Rng(3)
    q, k, v = (r.normal((2, 64, 4)) for _ in range(3))
    out, record = sparse_head_attention(q, k, v, Window(8), grid_of(4, 4, 4))
    assert record is None
    for s in range(2):
        lone, _ = sparse_head_attention(q[s], k[s], v[s], Window(8), grid_of(4, 4, 4))
        assert same_bits(out[s], lone), s


@pytest.mark.parametrize("n, radius", [(7, 2), (33, 0), (64, 8), (150, 3), (150, 4), (300, 70),
                                       (1024, 8), (1500, 70)])
def test_window_transpose_matches_the_dense_transpose(n, radius):
    """A window list is its own transpose: its moved weights, -0.0 among
    them, are the dense transpose, 0.0 in invalid slots, and the backward
    product over them gives the pair-sorted back list's bits."""
    keys = window_keys(n, radius)
    r = Rng(n + radius)
    w = row_sum_values(r, keys.keys.shape)
    back, moved = keys.transposed(w, -w)
    assert back is keys and keys.spans is not None
    for got, want in zip(moved, (w, -w)):
        assert same_bits(back.to_dense(got), keys.to_dense(want).T)
        assert same_bits(np.where(back.valid, 0.0, got), np.zeros(got.shape))
    x = signed_values(r, (n, 4))
    want_back, want_moved = reference_transposed(keys, w, -w)
    for got, want in zip(moved, want_moved):
        assert same_bits(back.apply(got, x), want_back.apply(want, x))


@pytest.mark.parametrize("n", [8, 9, 17, 63, 100, 511, 2048])
def test_topk_transpose_matches_the_pair_sort(n):
    r = Rng(n)
    q, k = r.normal((n, 4)), r.normal((n, 4))
    for block_size in (1, 2, 3, 8, 16):
        nb = -(-n // block_size)
        for top_k in sorted({1, 2, 4, nb} & set(range(1, nb + 1))):
            if top_k == nb and n * nb > 2048 * 128:
                continue  # a full 2048 x 2048 list below blocks of 16: 0.7 s of pair sort each
            keys, _ = head_keys(TopK(block_size, top_k), grid_of(1, 1, n), q, k)
            assert keys.blocks is not None and keys.spans is None
            assert_transpose_matches_the_pair_sort(keys, signed_values(r, keys.keys.shape))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 150, 600])
def test_explicit_lists_match_the_pair_lists_and_their_sorted_transpose(n):
    r = Rng(n + 7)
    for density in (0.0, 0.01, 0.1, 0.5, 0.9, 1.0):
        mask = r.uniform((n, n)) < density
        np.fill_diagonal(mask, True)
        keys, _ = head_keys(Explicit(mask), grid_of(1, 1, n))
        want = from_pairs(*np.nonzero(mask), n)
        assert keys.keys.dtype == want.keys.dtype == np.int64
        assert np.array_equal(keys.keys, want.keys) and np.array_equal(keys.valid, want.valid)
        assert_transpose_matches_the_pair_sort(keys, signed_values(r, keys.keys.shape))


def test_a_bare_key_list_has_no_transpose():
    keys = window_keys(64, 8)
    with pytest.raises(StateError, match="no structure"):
        KeyList(keys.keys, keys.valid).transposed(np.zeros(keys.keys.shape))


def test_topk_and_explicit_lists_keep_no_plans():
    r = Rng(9)
    q, k, v, go = (r.normal((64, 4)) for _ in range(4))
    mask = r.uniform((64, 64)) < 0.2
    np.fill_diagonal(mask, True)
    for entry in (TopK(block_size=8, k=2), Explicit(mask)):
        _, rec = sparse_head_attention(q, k, v, entry, grid_of(4, 4, 4))
        head_attention_backward(q, k, v, rec, go)
        assert rec.keys.spans is None and rec.keys.blocks is not None and not rec.keys.stacks


def test_window_plans_are_built_once(fresh_window_lists):
    """No forward or backward over a window list builds it again."""
    r = Rng(4)
    q, k, v, go = (r.normal((256, 4)) for _ in range(4))
    for _ in range(3):
        for entry in (Window(8), Window(8, reordered=True), Window(3)):
            _, rec = sparse_head_attention(q, k, v, entry, grid_of(4, 8, 8))
            head_attention_backward(q, k, v, rec, go)
            assert rec.keys.transposed()[0] is rec.keys  # a reordered entry runs on permuted tokens
    assert masking.window_keys.cache_info().misses == 2  # window_keys(256, 8) and (256, 3)


def test_window_plans_are_built_once_under_racing_threads(fresh_window_lists):
    """Eight threads, on a short switch interval, ask for one new window
    list at once: it is built once, every thread gets that list, and each
    sums and transposes it to the single-threaded bits."""
    start = threading.Barrier(8)
    results = []
    w = row_sum_values(Rng(5), (1024, 17))

    def race():
        start.wait(timeout=10)
        keys = window_keys(1024, 8)
        results.append((keys, keys.row_sum(w), keys.transposed(w)[1][0]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=race) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(results) == 8
    assert masking.window_keys.cache_info().misses == 1
    keys = window_keys(1024, 8)
    want_sum = KeyList(keys.keys, keys.valid).row_sum(w)  # the scatter
    assert same_bits(keys.to_dense(results[0][2]), keys.to_dense(w).T)
    assert all(got is keys and same_bits(s, want_sum) and same_bits(m, results[0][2])
               for got, s, m in results)


def test_window_transpose_keeps_nothing():
    """The cached list holds no transpose, so transposing it leaves no
    allocation behind."""
    keys = window_keys(1024, 8)
    w = row_sum_values(Rng(8), keys.keys.shape)
    keys.transposed(w)
    tracemalloc.start()
    try:
        keys.transposed(w, w)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 1024


def test_window_list_build_and_row_sum_hold_no_per_pair_plan(fresh_window_lists):
    """N = 2048, r = 102: building the list peaked at 12x its keys array,
    and a row sum at 3.5x its slot values, while each list built and
    applied a row-sum plan of index arrays for every pair. Now the list
    holds its keys and valid flags, and a row sum one buffer of the slots
    with a leaf's length of zeros after each row."""
    assert masking._window_row_sum_holds()  # its probe builds lists of its own
    n, radius = 2048, 102
    assert traced_peak(window_keys, n, radius) < 4 * n * (2 * radius + 1) * 8
    keys = window_keys(n, radius)
    w = row_sum_values(Rng(6), keys.keys.shape)
    assert traced_peak(keys.row_sum, w) < 2 * w.nbytes


def test_window_list_build_holds_its_flags_without_wide_temporaries():
    """N = 4096, r = 205: the valid flags are |key - query| <= r, and the
    build peaks under 1.5x the keys and flags it returns. Forming them
    from |keys - queries| made two N x W int64 temporaries, a 2.7x peak."""
    n, radius = 4096, 205
    keys = masking._window_list(n, radius)
    assert np.array_equal(keys.valid, np.abs(keys.keys - np.arange(n)[:, None]) <= radius)
    assert traced_peak(masking._window_list, n, radius) < 1.5 * (keys.keys.nbytes
                                                                   + keys.valid.nbytes)


def test_topk_transpose_memory_stays_within_its_outputs():
    """N = 2048, blocks of 8, k = 4 (a 2048 x 384 back list): the back
    keys, valid flags and gather take 17 bytes a back slot and the two
    moved weights 16 more. The transpose peaks under 48 bytes a slot, so
    it holds no N x N block and no per-pair arrays beside them."""
    r = Rng(12)
    q, k = r.normal((2048, 4)), r.normal((2048, 4))
    keys, _ = head_keys(TopK(block_size=8, k=4), grid_of(1, 1, 2048), q, k)
    w = r.normal(keys.keys.shape)
    back, _ = keys.transposed()
    assert back.keys.shape == (2048, 384)
    assert traced_peak(keys.transposed, w, w) < 48 * back.keys.size


def test_full_window_list_is_its_own_transpose_and_keeps_nothing():
    """Transposing the full list through its pairs peaked at 65 MB at
    N=1024, 8x the weights."""
    n = 1024
    keys = window_keys(n, n - 1)
    w = Rng(1).normal((n, n))
    assert traced_peak(keys.transposed, w, w) < 64 * 1024
    back, moved = keys.transposed(w, w)
    assert back is keys and all(same_bits(m, w.T) for m in moved)
    keys.row_sum(w)
    assert keys.spans is None and keys.blocks is None


def test_window_row_sum_and_transpose_make_no_reference_cycles():
    keys = window_keys(1024, 8)
    w = row_sum_values(Rng(2), keys.keys.shape)
    keys.row_sum(w), keys.transposed(w)
    gc.disable()
    try:
        gc.collect()
        keys.row_sum(w)
        keys.transposed(w, w)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_window_plan_arrays_are_read_only():
    """A cached window list holds two read-only arrays and tuples; the
    cached pairwise tree is tuples only."""
    keys = window_keys(1500, 70)
    assert not keys.keys.flags.writeable and not keys.valid.flags.writeable
    assert keys.blocks is None and isinstance(keys.spans, tuple)
    assert all(type(part) is tuple for tree in [masking._pairwise_tree(1500)]
               for part in (tree, *tree, *tree[0], *tree[1]))


# ---------------------------------------------------------------------------
# Stacks of window lists, and the broadcast softmax


@pytest.mark.parametrize("n", ROW_SUM_LENGTHS)
def test_stacked_window_row_sums_are_each_lists_own(n):
    """A stack of three copies of a window list sums each copy's rows over
    that copy's own N-long dense rows (not the stack's 3N-long ones), to
    the bits of that copy's lone dense sum."""
    r = Rng(n + 3)
    for name, keys in row_sum_lists(n).items():
        if keys.spans is None:
            assert not keys.stacks  # a full window is broadcast, and does not stack
            continue
        w = [row_sum_values(r, keys.keys.shape) for _ in range(3)]
        stacked = keys.stacked(3)
        assert stacked.keys.shape == (3 * n, keys.keys.shape[1]) and stacked.spans == keys.spans
        assert same_bits(stacked.row_sum(np.concatenate(w)),
                         np.concatenate([keys.to_dense(v).sum(axis=1) for v in w])), name


def test_stacked_window_list_is_block_diagonal():
    keys = window_keys(6, 1)
    stacked = keys.stacked(2)
    assert np.array_equal(stacked.mask(), np.kron(np.eye(2, dtype=bool), keys.mask()))
    back, (moved,) = stacked.transposed(stacked.valid * 1.0)
    assert back is stacked and np.array_equal(back.to_dense(moved), stacked.mask().T * 1.0)


def test_only_a_window_list_with_a_plan_stacks():
    for keys in (KeyList.full(8), head_keys(Explicit(np.eye(8, dtype=bool)), grid_of(2, 2, 2))[0]):
        with pytest.raises(StateError, match="only a window list stacks"):
            keys.stacked(2)


@pytest.mark.parametrize("entry", [Window(2), Window(1, reordered=True), Window(3, reordered=True),
                                   Window(30), TopK(block_size=4, k=2),
                                   Explicit(np.eye(24, dtype=bool) | (Rng(2).uniform((24, 24)) < 0.2))],
                         ids=str)
@pytest.mark.parametrize("stacked", ["q", "v", "qkv"])
def test_stacked_head_attention_gives_each_element_its_bits(entry, stacked):
    """Any of Q, K and V stacked, the others shared: each element's output
    is that of its lone call, and the stack comes back with no record."""
    grid = grid_of(2, 3, 4)
    r = Rng(len(stacked))
    lone = {name: signed_values(r, (grid.seq_len, 4)) for name in "qkv"}
    args = {name: signed_values(r, (3, grid.seq_len, 4)) if name in stacked else lone[name]
            for name in "qkv"}
    out, record = sparse_head_attention(*args.values(), entry, grid)
    assert out.shape == (3, grid.seq_len, 4) and record is None
    for s in range(3):
        want, _ = sparse_head_attention(*(a[s] if a.ndim == 3 else a for a in args.values()),
                                        entry, grid)
        assert same_bits(out[s], want), s


@pytest.mark.parametrize("n", [64, 2048])
def test_broadcast_softmax_skips_the_mask_to_the_masked_bits(n):
    """A full list's softmax masks nothing: unmasked, it gives the bits of
    the masked path on the same slots as a list of ordinary arrays. Rows
    spread their logits over 2^-30..2^30."""
    r = Rng(n + 1)
    full = KeyList.full(n)
    masked = KeyList(np.ascontiguousarray(full.keys), np.ascontiguousarray(full.valid))
    logits = signed_values(r, (n, n)) * 2.0 ** np.floor(61.0 * r.uniform((n, 1)) - 30.0)
    got = full.softmax(logits)
    assert got.flags.c_contiguous
    assert same_bits(got, masked.softmax(logits))
