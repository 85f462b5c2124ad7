import dataclasses
import math

import numpy as np
import pytest

from salad.block import (
    SaladParams,
    added_param_count,
    compute_gate,
    export_attention_maps,
    head_slices,
    lora_apply,
    merged_weight,
    salad_forward,
    sparse_head_attention,
    sparse_only_params,
)
from salad.errors import ConfigError, DimensionError
from salad.linear_attention import RopeConfig
from salad.masking import Explicit, LatentGrid, MaskPlan, TopK, Window, window_attended_pairs
from salad.numerics import matmul, numerical_rank


def small_grid(heads=2, d=4):
    return LatentGrid(frames=2, height=2, width=2, heads=heads, head_dim=d)


def random_params(rng, grid, **overrides):
    h = grid.channels
    p = SaladParams(
        w_q=rng.normal((h, h)) * h**-0.5,
        w_k=rng.normal((h, h)) * h**-0.5,
        w_v=rng.normal((h, h)) * h**-0.5,
        w_o=rng.normal((h, h)) * h**-0.5,
        proj=rng.normal((h, h)) * h**-0.5,
        gate_w=rng.normal((h,)) * h**-0.5,
        gate_b=0.2,
    )
    for key, val in overrides.items():
        setattr(p, key, val)
    return p


class TestLora:
    def test_zero_update_is_identity(self, rng):
        w = rng.normal((6, 8))
        a = rng.normal((2, 6))
        b = np.zeros((8, 2))
        assert np.array_equal(lora_apply(w, a, b, 0.7), w)

    def test_rank_one_update(self, rng):
        w = rng.normal((6, 8))
        a = rng.normal((1, 6))
        b = rng.normal((8, 1))
        assert numerical_rank(lora_apply(w, a, b) - w) == 1

    def test_matches_two_matmul_application(self, rng):
        w = rng.normal((6, 8))
        a = rng.normal((4, 6))
        b = rng.normal((8, 4))
        scale = 0.3
        x = rng.normal((5, 6))
        merged = x @ lora_apply(w, a, b, scale)
        two_step = x @ w + scale * (x @ a.T) @ b.T
        assert np.max(np.abs(merged - two_step)) < 1e-12

    def test_shape_validation(self, rng):
        with pytest.raises(DimensionError):
            lora_apply(rng.normal((6, 8)), rng.normal((2, 5)), rng.normal((8, 2)))

    def test_merged_weight_without_adapter(self, rng):
        grid = small_grid()
        p = random_params(rng, grid)
        assert np.array_equal(merged_weight(p, "q"), p.w_q)

    def test_unmerged_application_matches_merged(self, rng):
        from salad.numerics import matmul

        w = rng.normal((6, 8))
        a = rng.normal((3, 6))
        b = rng.normal((8, 3))
        x = rng.normal((4, 6))
        merged = matmul(x, lora_apply(w, a, b, 0.4))
        unmerged = matmul(x, w) + 0.4 * matmul(matmul(x, a.T), b.T)  # x W + s (x a^T) b^T
        assert np.max(np.abs(merged - unmerged)) < 1e-12


class TestParamCount:
    def test_table_values(self):
        d = h = 128
        assert added_param_count("shared", d, h, with_proj=False, with_gate=False) == 0
        assert added_param_count("shared", d, h, with_proj=True, with_gate=False) == h * d
        assert added_param_count("shared", d, h) == h * d + d + 1
        assert added_param_count("non_shared", d, h, with_gate=False) == 4 * h * d
        assert added_param_count("non_shared", d, h) == 4 * h * d + d + 1

    def test_rectangular(self):
        assert added_param_count("shared", 64, 96, with_proj=True, with_gate=False) == 96 * 64

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            added_param_count("fused", 4, 4)


class TestGate:
    def test_zero_weights_exactly_half(self, rng):
        assert compute_gate(rng.normal((16, 8)), np.zeros(8), 0.0, "sigmoid") == 0.5

    def test_constant_ignores_input(self, rng):
        assert compute_gate(rng.normal((16, 8)), rng.normal(8), 1.0, "constant", 0.37) == 0.37

    def test_matches_per_token_oracle(self, rng):
        x = rng.normal((20, 6))
        w = rng.normal(6)
        b = -0.3
        for act, fn in [("sigmoid", lambda u: 1 / (1 + math.exp(-u))),
                        ("tanh", math.tanh),
                        ("relu", lambda u: max(u, 0.0))]:
            got = compute_gate(x, w, b, act)
            want = sum(fn(float(x[i] @ w + b)) for i in range(20)) / 20
            assert abs(got - want) < 1e-12

    def test_sigmoid_range(self, rng):
        for _ in range(50):
            g = compute_gate(rng.normal((8, 4)) * 3, rng.normal(4), float(rng.normal(1)[0]), "sigmoid")
            assert 0.0 < g < 1.0

    def test_unknown_activation(self, rng):
        with pytest.raises(ConfigError):
            compute_gate(rng.normal((4, 4)), np.zeros(4), 0.0, "softsign")


class TestForward:
    def test_zero_proj_equals_sparse_only(self, rng):
        grid = small_grid()
        p = random_params(rng, grid, proj=np.zeros((grid.channels,) * 2))
        plan = MaskPlan([Window(radius=2), Window(radius=1, reordered=True)])
        x = rng.normal((grid.seq_len, grid.channels))
        out, _ = salad_forward(x, p, plan, grid)
        ref, _ = salad_forward(x, sparse_only_params(p), plan, grid)
        assert np.array_equal(out, ref)

    def test_lambda_zero_equals_dropped(self, rng):
        grid = small_grid()
        p = random_params(rng, grid)
        plan = MaskPlan.uniform(Window(radius=2), grid.heads)
        x = rng.normal((grid.seq_len, grid.channels))
        out_zero, _ = salad_forward(x, dataclasses.replace(p, lambda_override=0.0), plan, grid)
        out_drop, _ = salad_forward(x, dataclasses.replace(p, dropped=True), plan, grid)
        assert np.max(np.abs(out_zero - out_drop)) < 1e-15

    def test_non_shared_with_equal_weights_matches_shared(self, rng):
        grid = small_grid()
        p = random_params(rng, grid)
        ns = dataclasses.replace(
            p, variant="non_shared",
            w_q_lin=p.w_q.copy(), w_k_lin=p.w_k.copy(), w_v_lin=p.w_v.copy(),
        )
        plan = MaskPlan.uniform(Window(radius=1), grid.heads)
        x = rng.normal((grid.seq_len, grid.channels))
        out_shared, _ = salad_forward(x, p, plan, grid)
        out_ns, _ = salad_forward(x, ns, plan, grid)
        assert np.array_equal(out_shared, out_ns)

    def test_trace_contents(self, rng):
        grid = small_grid()
        p = random_params(rng, grid)
        plan = MaskPlan([Window(radius=1), TopK(block_size=2, k=2)])
        x = rng.normal((grid.seq_len, grid.channels))
        out, trace = salad_forward(x, p, plan, grid)
        n = grid.seq_len
        assert trace.attended_pairs[0] == window_attended_pairs(n, 1)
        assert 0.0 < trace.gate < 1.0
        assert trace.gate_applied == trace.gate
        assert trace.o_s.shape == trace.o_l.shape == (n, grid.channels)
        assert len(trace.heads) == grid.heads
        assert np.array_equal(trace.proj_out, matmul(trace.o_l, p.proj))
        assert np.array_equal(matmul(trace.fused, trace.projection.wo), out)

    def test_dropped_trace_has_no_linear_output(self, rng):
        grid = small_grid()
        p = random_params(rng, grid, dropped=True)
        plan = MaskPlan.uniform(Window(radius=1), grid.heads)
        out, trace = salad_forward(x := rng.normal((grid.seq_len, grid.channels)), p, plan, grid)
        assert trace.o_l is None and trace.gate_applied is None and trace.proj_out is None
        assert 0.0 < trace.gate < 1.0  # gate still measured for analysis

    def test_shape_and_plan_validation(self, rng):
        grid = small_grid()
        p = random_params(rng, grid)
        plan = MaskPlan.uniform(Window(radius=1), grid.heads)
        with pytest.raises(DimensionError):
            salad_forward(rng.normal((grid.seq_len - 1, grid.channels)), p, plan, grid)
        with pytest.raises(ConfigError):
            salad_forward(rng.normal((grid.seq_len, grid.channels)), p,
                          MaskPlan([Window(radius=1)]), grid)
        bad_rope = RopeConfig(split=(2, 0, 0))
        with pytest.raises(ConfigError):
            salad_forward(rng.normal((grid.seq_len, grid.channels)), p, plan, grid, bad_rope)

    def test_params_shape_validation_names_field(self, rng):
        grid = small_grid()
        p = random_params(rng, grid)
        p.proj = np.zeros((3, 3))
        with pytest.raises(ConfigError, match="proj"):
            salad_forward(rng.normal((grid.seq_len, grid.channels)), p,
                          MaskPlan.uniform(Window(radius=1), grid.heads), grid)

    def test_reordered_head_matches_conjugated_mask(self, rng):
        from salad.masking import st_reorder_permutation

        grid = LatentGrid(3, 2, 2, heads=1, head_dim=6)
        n = grid.seq_len
        q, k, v = (rng.normal((n, 6)) for _ in range(3))
        out, info = sparse_head_attention(q, k, v, Window(radius=2, reordered=True), grid)
        g = st_reorder_permutation(grid)
        conj = np.zeros((n, n), dtype=bool)
        conj[np.ix_(g, g)] = info.dense_mask()
        ref, _ = sparse_head_attention(q, k, v, Explicit(conj), grid)
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_explicit_head_plan(self, rng):
        grid = small_grid(heads=1)
        n = grid.seq_len
        mask = np.eye(n, dtype=bool) | (rng.uniform((n, n)) < 0.3)
        plan = MaskPlan([Explicit(mask)])
        p = random_params(rng, grid)
        out, trace = salad_forward(rng.normal((n, grid.channels)), p, plan, grid)
        assert trace.attended_pairs[0] == int(mask.sum())


class TestAttentionMaps:
    def test_written_files_and_band_structure(self, rng, tmp_path):
        grid = small_grid(heads=1, d=4)
        n = grid.seq_len
        p = random_params(rng, grid)
        plan = MaskPlan([Window(radius=1)])
        # Shift the input positive so no linear-branch query row dies.
        x = np.abs(rng.normal((n, grid.channels))) + 0.2
        _, trace = salad_forward(x, p, plan, grid)
        written = export_attention_maps(trace, 0, tmp_path / "map")
        names = sorted(path.name for path in written)
        assert names == ["map_linear_h0.csv", "map_linear_h0.pgm",
                         "map_sparse_h0.csv", "map_sparse_h0.pgm"]

        raw = (tmp_path / "map_sparse_h0.pgm").read_bytes()
        header, pixels = raw.split(b"255\n", 1)
        assert header.startswith(b"P5")
        img = np.frombuffer(pixels, dtype=np.uint8).reshape(n, n)
        band = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]) <= 1
        assert np.all(img[~band] == 0)
        assert np.all(img[band] > 0)

        rows = (tmp_path / "map_linear_h0.csv").read_text().strip().splitlines()
        sums = [sum(float(cell) for cell in line.split(",")) for line in rows]
        assert max(abs(s - 1.0) for s in sums) < 1e-9

    def test_head_out_of_range(self, rng, tmp_path):
        grid = small_grid()
        p = random_params(rng, grid)
        plan = MaskPlan.uniform(Window(radius=1), grid.heads)
        _, trace = salad_forward(rng.normal((grid.seq_len, grid.channels)), p, plan, grid)
        with pytest.raises(ConfigError):
            export_attention_maps(trace, 5, tmp_path / "map")

    def test_uniform_logits_give_uniform_gray(self, rng, tmp_path):
        grid = small_grid(heads=1, d=4)
        n = grid.seq_len
        p = random_params(rng, grid, w_q=np.zeros((grid.channels,) * 2))  # logits all zero
        plan = MaskPlan([Window(radius=n)])
        x = rng.normal((n, grid.channels))
        _, trace = salad_forward(x, p, plan, grid)
        export_attention_maps(trace, 0, tmp_path / "m")
        raw = (tmp_path / "m_sparse_h0.pgm").read_bytes().split(b"255\n", 1)[1]
        img = np.frombuffer(raw, dtype=np.uint8)
        assert np.all(img == 255)  # every row is constant, scaled by its max


class TestHeadSlices:
    def test_contiguous_slices(self):
        slices = head_slices(12, 3)
        assert [(s.start, s.stop) for s in slices] == [(0, 4), (4, 8), (8, 12)]
