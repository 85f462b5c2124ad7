import dataclasses
import inspect
import math

import numpy as np
import pytest

from salad.block import (
    LoraUpdate,
    SaladParams,
    added_param_count,
    compute_gate,
    export_attention_maps,
    gate_pre_activations,
    head_slices,
    lora_apply,
    merged_weight,
    salad_forward,
    sparse_head_attention,
    stacked_forward,
)
from salad.errors import ConfigError, DimensionError
from salad.linear_attention import RopeConfig
from salad.masking import Explicit, LatentGrid, MaskPlan, TopK, Window, window_attended_pairs
from salad.numerics import Rng, matmul, numerical_rank

from conftest import same_bits


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

    def test_the_record_keeps_the_gate_pre_activations(self, rng):
        """The backward pass reads them; a constant gate forms none."""
        grid = small_grid()
        p = random_params(rng, grid)
        x = rng.normal((grid.seq_len, grid.channels))
        plan = MaskPlan.uniform(Window(radius=1), grid.heads)
        _, trace = salad_forward(x, p, plan, grid)
        assert same_bits(trace.gate_pre, gate_pre_activations(x, p.gate_w, p.gate_b))
        _, constant = salad_forward(x, dataclasses.replace(p, gate_activation="constant"), plan, grid)
        assert constant.gate_pre is None


class TestForward:
    def test_zero_proj_equals_sparse_only(self, rng):
        grid = small_grid()
        p = random_params(rng, grid, proj=np.zeros((grid.channels,) * 2))
        plan = MaskPlan([Window(radius=2), Window(radius=1, reordered=True)])
        x = rng.normal((grid.seq_len, grid.channels))
        out, _ = salad_forward(x, p, plan, grid)
        ref, _ = salad_forward(x, dataclasses.replace(p, dropped=True), plan, grid)
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

    def test_dropped_non_shared_branch_is_not_projected(self, rng, monkeypatch):
        from salad import block

        grid = small_grid()
        h = grid.channels
        p = random_params(rng, grid, variant="non_shared", dropped=True,
                          w_q_lin=rng.normal((h, h)), w_k_lin=rng.normal((h, h)),
                          w_v_lin=rng.normal((h, h)))
        plan = MaskPlan.uniform(Window(radius=1), grid.heads)
        calls = []
        rotate = block.rope3d_apply
        monkeypatch.setattr(block, "rope3d_apply", lambda *a: calls.append(1) or rotate(*a))
        _, trace = salad_forward(rng.normal((grid.seq_len, h)), p, plan, grid)
        pr = trace.projection
        assert len(calls) == 2  # Q and K of the sparse branch only
        assert pr.q_lin is None and pr.k_lin is None and pr.v_lin is None

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
        conj[np.ix_(g, g)] = info.keys.mask()
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
        written = export_attention_maps(x, p, plan, grid, None, 0, tmp_path / "map")
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

    def test_dropped_branch_exports_the_undropped_maps(self, rng, tmp_path):
        """A dropped non-shared branch is projected for its map, so it
        exports the bytes of the same block undropped."""
        grid = small_grid(heads=1, d=4)
        h = grid.channels
        p = random_params(rng, grid, variant="non_shared", dropped=True,
                          w_q_lin=rng.normal((h, h)), w_k_lin=rng.normal((h, h)),
                          w_v_lin=rng.normal((h, h)))
        x = np.abs(rng.normal((grid.seq_len, h))) + 0.2
        plan = MaskPlan([Window(radius=1)])
        export_attention_maps(x, p, plan, grid, None, 0, tmp_path / "dropped")
        export_attention_maps(x, dataclasses.replace(p, dropped=False), plan, grid, None, 0,
                              tmp_path / "full")
        for kind in ("sparse", "linear"):
            assert ((tmp_path / f"dropped_{kind}_h0.csv").read_bytes()
                    == (tmp_path / f"full_{kind}_h0.csv").read_bytes())

    def test_head_out_of_range(self, rng, tmp_path):
        grid = small_grid()
        p = random_params(rng, grid)
        plan = MaskPlan.uniform(Window(radius=1), grid.heads)
        x = rng.normal((grid.seq_len, grid.channels))
        with pytest.raises(ConfigError):
            export_attention_maps(x, p, plan, grid, None, 5, tmp_path / "map")

    def test_uniform_logits_give_uniform_gray(self, rng, tmp_path):
        grid = small_grid(heads=1, d=4)
        n = grid.seq_len
        p = random_params(rng, grid, w_q=np.zeros((grid.channels,) * 2))  # logits all zero
        plan = MaskPlan([Window(radius=n)])
        x = rng.normal((n, grid.channels))
        export_attention_maps(x, p, plan, grid, None, 0, tmp_path / "m")
        raw = (tmp_path / "m_sparse_h0.pgm").read_bytes().split(b"255\n", 1)[1]
        img = np.frombuffer(raw, dtype=np.uint8)
        assert np.all(img == 255)  # every row is constant, scaled by its max


class TestHeadSlices:
    def test_contiguous_slices(self):
        slices = head_slices(12, 3)
        assert [(s.start, s.stop) for s in slices] == [(0, 4), (4, 8), (8, 12)]


# ---------------------------------------------------------------------------
# The stacked forward, element by element against lone forwards


def stack_setup(variant="shared", **overrides):
    """A 2x2x2 grid with 2 heads of 4 channels, adapters on q and o (so
    both factor shapes appear), and an input."""
    rng = Rng(61)
    grid = small_grid()
    h = grid.channels
    lora = {t: LoraUpdate(a=rng.normal((2, h)), b=rng.normal((h, 2)), scale=0.5) for t in "qo"}
    extra = {}
    if variant == "non_shared":
        extra = {name: rng.normal((h, h)) * h**-0.5 for name in ("w_q_lin", "w_k_lin", "w_v_lin")}
    p = random_params(rng, grid, lora=lora, variant=variant, **extra)
    p = dataclasses.replace(p, **overrides)
    return rng.normal((grid.seq_len, h)), p, grid


def perturbed(rng, base, count=3):
    """``count`` variants of ``base``: the first ``base`` itself."""
    values = base[None] + rng.normal((count, *base.shape)) * 0.3
    values[0] = base
    return values


def with_value(x, params, name, value):
    """The lone forward's input and parameters for one stack element."""
    if name == "x":
        return value, params
    return x, params.with_param(name, value)


def assert_elements_match_lone_forwards(x, params, plan, grid, name, values):
    out = stacked_forward(x, params, plan, grid, None, name, values)
    assert isinstance(out, np.ndarray)
    assert out.shape == (len(values), grid.seq_len, params.d_model)
    for s, value in enumerate(values):
        want, _ = salad_forward(*with_value(x, params, name, value), plan, grid)
        assert same_bits(out[s], want), s


STACK_PLANS = {
    "window": [Window(radius=2), Window(radius=0)],
    "reordered": [Window(radius=1, reordered=True), Window(radius=2, reordered=True)],
    "topk": [TopK(block_size=2, k=2), Window(radius=1)],
    "explicit": [Explicit(np.eye(8, dtype=bool) | (Rng(5).uniform((8, 8)) < 0.3)),
                 Window(radius=1, reordered=True)],
    "full": [Window(radius=7), Window(radius=9, reordered=True)],
}
#: One stacked parameter of each kind: the input, dense weights early and
#: late, the gate's weights and bias, both adapter factors, and a
#: non-shared branch weight.
STACK_NAMES = ["x", "w_q", "w_v", "w_o", "proj", "gate_w", "gate_b", "lora_q.a", "lora_o.b",
               "w_k_lin"]


@pytest.mark.parametrize("plan", STACK_PLANS)
@pytest.mark.parametrize("name", STACK_NAMES)
def test_each_stack_element_has_its_lone_forward_bits(plan, name):
    x, params, grid = stack_setup("non_shared" if name.endswith("_lin") else "shared")
    base = x if name == "x" else params.param(name)
    assert_elements_match_lone_forwards(x, params, MaskPlan(STACK_PLANS[plan]), grid, name,
                                        perturbed(Rng(len(name)), base))


@pytest.mark.parametrize("plan", STACK_PLANS)
def test_a_forward_without_weights_keeps_its_bits_and_no_weights(plan):
    """A lone forward run without weights gives the output of one that
    keeps them, and every head of its record holds None; a stacked
    forward, which keeps none, gives each element the output of its lone
    forward that keeps them."""
    x, params, grid = stack_setup()
    plan = MaskPlan(STACK_PLANS[plan])
    (out, trace), (want, kept) = (salad_forward(x, params, plan, grid, weights=weights)
                                  for weights in (False, True))
    assert same_bits(out, want) and same_bits(trace.o_s, kept.o_s)
    assert trace.attended_pairs == kept.attended_pairs
    assert all(info.weights is None for info in trace.heads)
    assert all(info.weights is not None for info in kept.heads)
    assert_elements_match_lone_forwards(x, params, plan, grid, "x", perturbed(Rng(7), x))


@pytest.mark.parametrize("name", ["x", "w_o"])
def test_a_stacked_forward_asks_for_no_weights_and_returns_its_outputs(monkeypatch, name):
    """With its default arguments a stacked forward never asks the
    attention kernel for weights, on any plan, whether its heads run
    stacked (``x``) or shared (``w_o``), and it returns the outputs alone."""
    from salad import masking

    asked, real = [], masking.attend_keys

    def spy(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        asked.append(bound.arguments["weights"])
        return real(*args, **kwargs)

    monkeypatch.setattr(masking, "attend_keys", spy)
    x, params, grid = stack_setup()
    for entries in STACK_PLANS.values():
        base = x if name == "x" else params.param(name)
        out = stacked_forward(x, params, MaskPlan(entries), grid, None, name,
                              perturbed(Rng(8), base))
        assert isinstance(out, np.ndarray) and out.shape == (3, grid.seq_len, params.d_model)
    assert asked and not any(asked)


@pytest.mark.parametrize("variant", [
    {"dropped": True}, {"gate_activation": "constant", "gate_constant": 0.3},
    {"lambda_override": 0.7}, {"gate_detached": True}, {"gate_activation": "tanh"}], ids=str)
@pytest.mark.parametrize("name", ["x", "w_k", "proj", "gate_w", "gate_b", "w_v_lin"])
def test_block_variants_stack_to_their_lone_bits(variant, name):
    """Where a variant ignores the stacked value (a dropped branch's proj
    or non-shared weights, a constant or overridden gate's parameters),
    every element gets the one shared output."""
    x, params, grid = stack_setup("non_shared" if name.endswith("_lin") else "shared", **variant)
    base = x if name == "x" else params.param(name)
    plan = MaskPlan([Window(radius=2), Window(radius=1, reordered=True)])
    assert_elements_match_lone_forwards(x, params, plan, grid, name, perturbed(Rng(9), base, 4))


def test_a_stack_of_one_has_the_lone_bits():
    x, params, grid = stack_setup()
    plan = MaskPlan(STACK_PLANS["reordered"])
    out = stacked_forward(x, params, plan, grid, None, "x", x[None])
    assert same_bits(out[0], salad_forward(x, params, plan, grid)[0])


@pytest.mark.parametrize("entry", [Window(radius=4), Window(radius=4, reordered=True),
                                   Window(radius=40)], ids=str)
def test_stacked_windows_over_two_row_sum_leaves(entry):
    """At N=150 numpy sums a dense row as two leaves (72 + 78), so rows
    near the border join two leaf sums; each element still gets its bits."""
    rng = Rng(150)
    grid = LatentGrid(3, 5, 10, heads=1, head_dim=4)
    params = random_params(rng, grid)
    x = rng.normal((grid.seq_len, grid.channels))
    assert_elements_match_lone_forwards(x, params, MaskPlan([entry]), grid, "x", perturbed(rng, x))


def test_stacked_forward_validates_the_stack():
    x, params, grid = stack_setup()
    plan = MaskPlan(STACK_PLANS["window"])
    with pytest.raises(DimensionError, match="stack of w_q"):
        stacked_forward(x, params, plan, grid, None, "w_q", params.w_q)
    with pytest.raises(DimensionError, match="stack of x"):
        stacked_forward(x, params, plan, grid, None, "x", x[None, :-1])
    with pytest.raises(DimensionError, match="stack of gate_b"):
        stacked_forward(x, params, plan, grid, None, "gate_b", np.zeros((0, 1)))
    with pytest.raises(ConfigError, match="unknown parameter 'w_q_lin'"):
        stacked_forward(x, params, plan, grid, None, "w_q_lin", params.w_q[None])
    with pytest.raises(DimensionError, match="input shape"):
        stacked_forward(x[:-1], params, plan, grid, None, "x", x[None])


@pytest.mark.parametrize("n", [1, 7, 8, 9, 130, 300])
@pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu"])
def test_stacked_gate_means_have_the_lone_bits(n, activation):
    """The token mean adds a contiguous row pairwise (in 8 lanes from 8
    tokens on, and in halves past 128), so each stacked row must be summed
    as a lone (N,) vector is."""
    rng = Rng(n)
    x, w, b = rng.normal((3, n, 6)) * 4.0, rng.normal((3, 6)), rng.normal(3)
    for stacked, lone in [((x, w[0], b[0]), lambda s: (x[s], w[0], b[0])),
                          ((x[0], w, b[0]), lambda s: (x[0], w[s], b[0])),
                          ((x[0], w[0], b), lambda s: (x[0], w[0], float(b[s])))]:
        gates = compute_gate(*stacked, activation)
        assert gates.shape == (3,)
        for s in range(3):
            assert gates[s] == compute_gate(*lone(s), activation)
