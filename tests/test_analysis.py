import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salad.analysis import (
    FLOP_CONVENTION,
    DropPlan,
    GateRecord,
    RunReport,
    atypical_gates,
    branch_rank_analysis,
    estimate_speedup,
    gate_percentiles,
    layer_mean_gates,
    layer_method_flops,
    percentile,
    plan_branch_drop,
)
from salad.block import SaladParams, salad_forward
from salad.errors import ConfigError, DataError
from salad.linear_attention import linear_branch_flops
from salad.masking import LatentGrid, MaskPlan, Window, window_attended_pairs
from salad.numerics import Rng
from salad.tensor_io import record_from_dict, record_to_dict


def records_from(means, timesteps=4, jitter=0.0, seed=0):
    rng = Rng(seed)
    out = []
    for layer, mean in enumerate(means):
        for t in range(timesteps):
            out.append(GateRecord(layer, t, mean + jitter * float(rng.normal(1)[0])))
    return out


class TestPercentiles:
    def test_constant_records(self):
        table = gate_percentiles(records_from([0.3] * 5, timesteps=2))
        for row in table["per_timestep"]:
            assert all(abs(v - 0.3) < 1e-15 for v in row["values"])
        assert all(abs(v - 0.3) < 1e-15 for v in table["time_averaged"])

    def test_four_layer_interpolation(self):
        recs = [GateRecord(i, 0, g) for i, g in enumerate([0.1, 0.2, 0.3, 0.4])]
        table = gate_percentiles(recs)
        q20 = table["per_timestep"][0]["values"][0]
        assert 0.1 < q20 < 0.2
        assert abs(q20 - 0.16) < 1e-15

    def test_empty_raises(self):
        with pytest.raises(DataError):
            gate_percentiles([])
        with pytest.raises(DataError):
            percentile(np.array([]), 0.5)

    @given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=30),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_and_bracketed(self, values, q1, q2):
        s = np.sort(np.asarray(values))
        lo_q, hi_q = min(q1, q2), max(q1, q2)
        assert percentile(s, lo_q) <= percentile(s, hi_q) + 1e-15
        assert s[0] - 1e-15 <= percentile(s, q1) <= s[-1] + 1e-15

    def test_atypical_flagging(self):
        recs = [GateRecord(0, 0, 0.2), GateRecord(1, 0, 0.01), GateRecord(2, 0, 0.7)]
        flagged = atypical_gates(recs)
        assert [(r.layer, r.gate) for r in flagged] == [(1, 0.01), (2, 0.7)]


class TestDropPlans:
    def test_threshold_zero_drops_nothing(self):
        plan = plan_branch_drop(records_from([0.2, 0.3, 0.4]), "threshold", tau=0.0)
        assert plan.dropped_layers == ()

    def test_threshold_drops_low_means(self):
        plan = plan_branch_drop(records_from([0.05, 0.3, 0.08, 0.4]), "threshold", tau=0.1)
        assert plan.dropped_layers == (0, 2)

    def test_interval_top_quintile_matches_sort_oracle(self):
        means = [0.31, 0.11, 0.42, 0.05, 0.27, 0.36, 0.18, 0.23, 0.39, 0.14]
        recs = records_from(means, jitter=0.0)
        plan = plan_branch_drop(recs, "interval", lo=0.8, hi=1.0)
        oracle = sorted(sorted(range(10), key=lambda l: means[l])[-2:])
        assert list(plan.dropped_layers) == oracle == [2, 8]
        assert plan.preferred

    def test_adjacent_intervals_are_disjoint_and_cover(self):
        recs = records_from([0.1 * (i + 1) for i in range(10)])
        parts = [plan_branch_drop(recs, "interval", lo=a, hi=b).dropped_layers
                 for a, b in [(0.0, 0.2), (0.2, 0.4), (0.4, 0.6), (0.6, 0.8), (0.8, 1.0)]]
        seen = [l for part in parts for l in part]
        assert sorted(seen) == list(range(10))
        assert len(seen) == len(set(seen))
        assert plan_branch_drop(recs, "interval", lo=0.0, hi=1.0).dropped_layers == tuple(range(10))

    def test_random_is_seeded_and_sized(self):
        recs = records_from([0.2] * 10)
        a = plan_branch_drop(recs, "random", fraction=0.3, seed=5)
        b = plan_branch_drop(recs, "random", fraction=0.3, seed=5)
        c = plan_branch_drop(recs, "random", fraction=0.3, seed=6)
        assert a.dropped_layers == b.dropped_layers
        assert len(a.dropped_layers) == 3
        assert a.dropped_layers != c.dropped_layers or a.params != c.params

    def test_validation(self):
        recs = records_from([0.2, 0.3])
        with pytest.raises(ConfigError):
            plan_branch_drop(recs, "interval", lo=0.9, hi=0.1)
        with pytest.raises(ConfigError):
            plan_branch_drop(recs, "banana")
        with pytest.raises(DataError):
            plan_branch_drop([], "threshold")

    def test_round_trip(self):
        plan = plan_branch_drop(records_from([0.1, 0.9]), "interval", lo=0.8, hi=1.0)
        doc = json.loads(json.dumps(record_to_dict(plan)))
        assert doc["dropped_layers"] == [1]
        assert record_from_dict(DropPlan, doc) == plan

    def test_layer_means(self):
        recs = [GateRecord(0, 0, 0.2), GateRecord(0, 1, 0.4), GateRecord(1, 0, 0.6)]
        assert layer_mean_gates(recs) == {0: 0.30000000000000004, 1: 0.6}


class TestRanks:
    def test_linear_rank_bounded(self, rng):
        grid = LatentGrid(2, 2, 4, heads=2, head_dim=6)
        h = grid.channels
        params = SaladParams(
            w_q=rng.normal((h, h)), w_k=rng.normal((h, h)), w_v=rng.normal((h, h)),
            w_o=rng.normal((h, h)), proj=rng.normal((h, h)),
            gate_w=rng.normal((h,)), gate_b=0.0,
        )
        plan = MaskPlan.uniform(Window(radius=3), grid.heads)
        _, trace = salad_forward(rng.normal((grid.seq_len, h)), params, plan, grid)
        rows = branch_rank_analysis([(0, trace)], grid)
        assert len(rows) == grid.heads
        for row in rows:
            assert row["rank_linear"] <= grid.head_dim
            assert row["rank_sparse"] <= grid.seq_len

    def test_rank_one_values_collapse_both_branches(self, rng):
        grid = LatentGrid(2, 2, 2, heads=1, head_dim=4)
        h = grid.channels
        u = rng.normal((h, 1))
        v_dir = rng.normal((1, h))
        params = SaladParams(
            w_q=rng.normal((h, h)), w_k=rng.normal((h, h)), w_v=u @ v_dir,
            w_o=rng.normal((h, h)), proj=rng.normal((h, h)),
            gate_w=rng.normal((h,)), gate_b=0.0,
        )
        plan = MaskPlan.uniform(Window(radius=8), 1)
        _, trace = salad_forward(rng.normal((grid.seq_len, h)), params, plan, grid)
        rows = branch_rank_analysis([(0, trace)], grid)
        assert rows[0]["rank_sparse"] <= 1
        assert rows[0]["rank_linear"] <= 1


class TestFlopModel:
    def test_all_true_without_branch_is_unity(self):
        grid = LatentGrid(2, 4, 4, heads=2, head_dim=8)
        plan = MaskPlan.uniform(Window(radius=grid.seq_len), grid.heads)
        assert estimate_speedup(plan, grid, include_linear=False, total_layers=3) == 1.0

    def test_layer_breakdown_formulas(self):
        grid = LatentGrid(2, 4, 4, heads=2, head_dim=8)
        n, d, h = grid.seq_len, grid.head_dim, grid.channels
        attended = [100, 200]
        row = layer_method_flops(attended, grid, include_linear=True, dropped=False)
        assert row["sparse"] == 4 * 300 * d
        assert row["linear"] == 2 * linear_branch_flops(n, d) == 2 * (4 * n * d * d + 2 * n * d)
        assert row["proj"] == 2 * n * h * h
        assert row["gate"] == 2 * n * h
        off = layer_method_flops(attended, grid, include_linear=True, dropped=True)
        assert off["linear"] == off["proj"] == off["gate"] == 0
        assert off["sparse"] == row["sparse"]

    def test_monotone_in_sparsity_and_dropping(self):
        grid = LatentGrid(4, 4, 4, heads=2, head_dim=8)
        tight = MaskPlan.uniform(Window(radius=2), grid.heads)
        loose = MaskPlan.uniform(Window(radius=16), grid.heads)
        assert estimate_speedup(tight, grid, total_layers=4) > estimate_speedup(loose, grid, total_layers=4)
        assert estimate_speedup(tight, grid, dropped_layers=(0, 1), total_layers=4) > \
            estimate_speedup(tight, grid, total_layers=4)

    def test_dropping_removes_exactly_branch_flops(self):
        grid = LatentGrid(4, 4, 4, heads=2, head_dim=8)
        plan = MaskPlan.uniform(Window(radius=4), grid.heads)
        layers = 5
        n, d = grid.seq_len, grid.head_dim
        attended = [window_attended_pairs(n, 4)] * grid.heads
        full = layers * grid.heads * 4 * n * n * d
        on = layer_method_flops(attended, grid, True, False)["total"]
        off = layer_method_flops(attended, grid, True, True)["total"]
        got = estimate_speedup(plan, grid, dropped_layers=(1, 3), total_layers=layers)
        assert got == full / (3 * on + 2 * off)

    def test_convention_documented(self):
        assert "multiply-add" in FLOP_CONVENTION and "4*pairs*head_dim" in FLOP_CONVENTION

    def test_production_scale_direction(self):
        # 480p x 77-frame latent scale, evaluated analytically (no forward
        # pass): at 90% sparsity with the branch on, the attention-only
        # model lands between the measured end-to-end figure (~1.7x, which
        # pays non-attention costs this model excludes) and the 10x ceiling
        # of pure 10%-density attention.
        grid = LatentGrid(frames=21, height=60, width=60, heads=12, head_dim=128)
        n = grid.seq_len
        assert n == 75_600
        attended = [n * n // 10] * grid.heads
        plan = MaskPlan.uniform(Window(radius=1), grid.heads)  # shape only
        speedup = estimate_speedup(plan, grid, include_linear=True, total_layers=30,
                                   per_layer_attended=[attended] * 30)
        assert 1.72 <= speedup <= 10.0
        no_branch = estimate_speedup(plan, grid, include_linear=False, total_layers=30,
                                     per_layer_attended=[attended] * 30)
        assert abs(no_branch - 10.0) < 1e-9  # exact sparse-only ceiling


class TestRunReport:
    def test_round_trip_through_json(self):
        report = RunReport(
            config={"seed": 1},
            sparsity={"per_head": [], "aggregate": 0.5},
            flops={"full_total": 10, "method_total": 5.0},
            speedup_estimate=2.0,
            gates={"records": [{"layer": 0, "timestep": 0, "gate": 0.25}]},
            drop_plan=None,
            ranks=[{"layer": 0, "head": 0, "rank_sparse": 3, "rank_linear": 2, "head_dim": 4}],
            gradcheck={"run": False, "all_passed": None, "reports": []},
            oracle_checks=[{"name": "x", "passed": True, "max_err": 0.0, "detail": ""}],
        )
        doc = json.loads(json.dumps(record_to_dict(report)))
        again = record_from_dict(RunReport, doc)
        assert record_to_dict(again) == record_to_dict(report)
        assert "timestamp" not in record_to_dict(report)
        assert [r.gate for r in again.gate_records()] == [0.25]

    def test_fixed_top_level_keys(self):
        report = RunReport(config={}, sparsity={}, flops={}, speedup_estimate=1.0,
                           gates={}, drop_plan=None, ranks=[], gradcheck={},
                           oracle_checks=[], timestamp="now")
        assert list(record_to_dict(report)) == [
            "config", "sparsity", "flops", "speedup_estimate", "gates",
            "drop_plan", "ranks", "gradcheck", "oracle_checks", "timestamp",
        ]
