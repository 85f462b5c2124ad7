import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salad.errors import BlockCountError, ConfigError, DegenerateRowError, StateError
from salad.masking import (
    CalibrationResult,
    Explicit,
    LatentGrid,
    MaskPlan,
    TopK,
    Window,
    build_window_mask,
    calibrate_head,
    calibrate_window,
    head_sparsity_stats,
    invert_permutation,
    plan_sparsity_stats,
    realize_head_mask,
    select_topk_blocks,
    st_reorder_permutation,
    topk_block_select,
    window_attended_pairs,
)
from salad.numerics import Rng


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
        mask = topk_block_select(q, k, b, 1)
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
        assert topk_block_select(q, k, 4, 3).all()

    def test_defaults(self):
        assert TopK(block_size=8).k == 4


class TestRealize:
    def test_explicit_shape_check(self):
        g = grid_of(2, 2, 2)
        with pytest.raises(ConfigError, match="does not match"):
            realize_head_mask(Explicit(np.ones((4, 4), dtype=bool)), g)

    def test_explicit_empty_row(self):
        g = grid_of(2, 2, 1)
        mask = np.ones((4, 4), dtype=bool)
        mask[2, :] = False
        with pytest.raises(DegenerateRowError, match="row 2"):
            realize_head_mask(Explicit(mask), g)

    def test_explicit_missing_diagonal(self):
        g = grid_of(2, 2, 1)
        mask = np.ones((4, 4), dtype=bool)
        mask[1, 1] = False  # row still has keys, but not itself
        with pytest.raises(DegenerateRowError, match="attend itself"):
            realize_head_mask(Explicit(mask), g)

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
            mask, _ = realize_head_mask(entry, g, q, k)
            assert mask.diagonal().all()

    def test_topk_needs_data(self):
        with pytest.raises(StateError):
            realize_head_mask(TopK(block_size=2, k=1), grid_of(2, 2, 1))

    def test_window_reordered_returns_permutation(self):
        g = grid_of(2, 2, 2)
        _, perm = realize_head_mask(Window(radius=1, reordered=True), g)
        assert perm is not None
        _, perm = realize_head_mask(Window(radius=1), g)
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
        res = calibrate_head([(q, k, v)], [g.frames - 1], g, delta=0.05, choose_reorder=True)
        assert res.reordered

    def test_choose_reorder_off(self, rng):
        g = grid_of(2, 2, 2)
        profiles = [tuple(rng.normal((8, 4)) for _ in range(3))]
        res = calibrate_head(profiles, [1, 2], g, choose_reorder=False)
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
        realized = head_sparsity_stats(entry, g, q, k)
        model = head_sparsity_stats(entry, g)
        assert model.attended_pairs == 8 * 4  # k*B keys per row
        assert realized.attended_pairs >= model.attended_pairs  # forced diagonal adds
        mask, _ = realize_head_mask(entry, g, q, k)
        assert realized.attended_pairs == int(mask.sum())

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
