import dataclasses
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from salad.block import LoraUpdate, SaladParams, head_slices, salad_forward
from salad.checks import build_window_mask
from salad.errors import NumericError, StateError
from salad.gradients import (
    FD_TOL,
    GradCheckReport,
    checkable_params,
    elementwise_backward,
    fd_gradient,
    gate_mean_backward,
    gradcheck_salad,
    matmul_backward,
    max_rel_err,
    relu_linear_attention_backward,
    rope3d_backward,
    salad_loss_grads,
    softmax_backward,
)
from salad.linear_attention import RopeConfig, linear_attention_streaming, rope3d_apply
from salad import block, checks, gradients, linear_attention, masking
from salad.masking import (
    Explicit,
    LatentGrid,
    MaskPlan,
    TopK,
    Window,
    select_topk_blocks,
    st_reorder_permutation,
)
from salad.numerics import Rng, matmul
from salad.tensor_io import record_from_dict, record_to_dict

from conftest import (from_pairs, loop_fd_gradient, recomputing_linear_backward,
                      reference_loss_grads, same_bits, softmax_masked)


def small_setup(seed=21, heads=2, d=4, lora=False, shape=(2, 2, 2), **overrides):
    rng = Rng(seed)
    grid = LatentGrid(*shape, heads=heads, head_dim=d)
    h = grid.channels
    adapters = {}
    if lora:
        adapters = {t: LoraUpdate(a=rng.normal((2, h)), b=rng.normal((h, 2)), scale=0.5)
                    for t in ("q", "k", "v", "o")}
    params = SaladParams(
        w_q=rng.normal((h, h)) * h**-0.5,
        w_k=rng.normal((h, h)) * h**-0.5,
        w_v=rng.normal((h, h)) * h**-0.5,
        w_o=rng.normal((h, h)) * h**-0.5,
        proj=rng.normal((h, h)) * h**-0.5,
        gate_w=rng.normal((h,)) * h**-0.5,
        gate_b=-0.4,
        lora=adapters,
    )
    for key, val in overrides.items():
        setattr(params, key, val)
    plan = MaskPlan([Window(radius=2), Window(radius=1, reordered=True)][:heads])
    x = rng.normal((grid.seq_len, h))
    return x, params, plan, grid


def mask_keys(mask):
    return from_pairs(*np.nonzero(mask), mask.shape[0])


def slot_values(keys, dense):
    """The entries of a dense (N, N) matrix at each slot's key."""
    return np.take_along_axis(dense, keys.keys, axis=1)


def fd_scalar(fn, arr, step=1e-6):
    out = np.zeros_like(arr, dtype=np.float64)
    flat_in = arr.reshape(-1)
    flat_out = out.reshape(-1)
    for i in range(flat_in.size):
        keep = flat_in[i]
        flat_in[i] = keep + step
        hi = fn()
        flat_in[i] = keep - step
        lo = fn()
        flat_in[i] = keep
        flat_out[i] = (hi - lo) / (2 * step)
    return out


class TestPrimitiveBackward:
    def test_matmul_identity_case(self, rng):
        a = rng.normal((4, 4))
        g = rng.normal((4, 4))
        da, db = matmul_backward(a, np.eye(4), g)
        assert np.max(np.abs(da - g)) < 1e-15

    def test_matmul_fd(self, rng):
        a = rng.normal((3, 5))
        b = rng.normal((5, 4))
        r = rng.normal((3, 4))
        da, db = matmul_backward(a, b, r)
        fd_a = fd_scalar(lambda: float(np.sum(matmul(a, b) * r)), a)
        fd_b = fd_scalar(lambda: float(np.sum(matmul(a, b) * r)), b)
        assert max_rel_err(fd_a, da) < 1e-7
        assert max_rel_err(fd_b, db) < 1e-7

    def test_softmax_single_survivor_has_zero_gradient(self, rng):
        mask = np.eye(3, dtype=bool)
        keys = mask_keys(mask)
        y = keys.softmax(slot_values(keys, rng.normal((3, 3))))
        g = softmax_backward(y, slot_values(keys, rng.normal((3, 3))), keys)
        assert np.array_equal(keys.to_dense(g), np.zeros((3, 3)))

    def test_softmax_fd(self, rng):
        logits = rng.normal((6, 6))
        mask = rng.uniform((6, 6)) < 0.6
        np.fill_diagonal(mask, True)
        r = rng.normal((6, 6))
        keys = mask_keys(mask)
        y = keys.softmax(slot_values(keys, logits))
        assert np.array_equal(keys.to_dense(y), softmax_masked(logits, mask))
        got = keys.to_dense(softmax_backward(y, slot_values(keys, r), keys))
        fd = fd_scalar(lambda: float(np.sum(softmax_masked(logits, mask) * r)), logits)
        assert max_rel_err(fd, got) < 1e-6
        assert np.all(got[~mask] == 0.0)

    def test_elementwise_fd(self, rng):
        x = rng.normal((5, 5)) + 0.05  # keep clear of the relu kink
        r = rng.normal((5, 5))
        plain = {"relu": lambda a: np.maximum(a, 0.0),
                 "sigmoid": lambda a: 1.0 / (1.0 + np.exp(-a)),
                 "tanh": np.tanh}
        for op, fn in plain.items():
            got = elementwise_backward(op, x, r)
            fd = fd_scalar(lambda: float(np.sum(fn(x) * r)), x)
            assert max_rel_err(fd, got) < 1e-6

    def test_rope_backward_is_inverse_rotation(self, rng):
        cfg = RopeConfig.default(8)
        grid = LatentGrid(4, 3, 3, heads=2, head_dim=8)
        x = rng.normal((grid.seq_len, grid.channels))
        y = rope3d_apply(x, grid, cfg)
        assert np.max(np.abs(rope3d_backward(y, grid, cfg) - x)) < 1e-12

    def test_rope_fd(self, rng):
        cfg = RopeConfig.default(8)
        grid = LatentGrid(2, 2, 2, heads=1, head_dim=8)
        x = rng.normal((8, 8))
        r = rng.normal((8, 8))
        got = rope3d_backward(r, grid, cfg)
        fd = fd_scalar(lambda: float(np.sum(rope3d_apply(x, grid, cfg) * r)), x)
        assert max_rel_err(fd, got) < 1e-6

    def test_linear_attention_fd(self, rng):
        # Keep every feature row alive and negatives far from the relu
        # kink; a near-dead row runs on the epsilon guard, whose curvature
        # sits below the finite-difference noise floor.
        n, d = 6, 4
        q = np.abs(rng.normal((n, d))) + 0.1
        k = np.abs(rng.normal((n, d))) + 0.1
        q[0, 0] *= -1.0
        k[1, 2] *= -1.0
        v = rng.normal((n, d))
        r = rng.normal((n, d))
        _, state = linear_attention_streaming(q, k, v)
        dq, dk, dv = relu_linear_attention_backward(q, k, v, r, state)
        loss = lambda: float(np.sum(linear_attention_streaming(q, k, v)[0] * r))
        assert max_rel_err(fd_scalar(loss, q), dq) < 1e-6
        assert max_rel_err(fd_scalar(loss, k), dk) < 1e-6
        assert max_rel_err(fd_scalar(loss, v), dv) < 1e-6
        assert dq[0, 0] == 0.0  # gradient does not cross the relu gate

    def test_gate_fd(self, rng):
        from salad.block import compute_gate, gate_pre_activations

        x = rng.normal((7, 5))
        w = rng.normal(5)
        b = np.array(0.3)
        for act in ("sigmoid", "tanh"):
            dx, dw, db = gate_mean_backward(x, gate_pre_activations(x, w, float(b)), w, act, 1.7)
            loss_x = lambda: 1.7 * compute_gate(x, w, float(b), act)
            assert max_rel_err(fd_scalar(loss_x, x), dx) < 1e-6
            assert max_rel_err(fd_scalar(loss_x, w), dw) < 1e-6
            assert max_rel_err(fd_scalar(loss_x, b), np.array(db)) < 1e-6


class TestBlockGradients:
    def test_full_gradcheck_passes(self):
        x, params, plan, grid = small_setup(lora=True)
        reports = gradcheck_salad(x, params, plan, grid)
        names = {r.param for r in reports}
        assert {"x", "w_q", "w_k", "w_v", "w_o", "proj", "gate_w", "gate_b",
                "lora_q.a", "lora_o.b"} <= names
        assert all(r.passed for r in reports), [r for r in reports if not r.passed]

    def test_topk_plan_gradcheck(self):
        from salad.masking import TopK

        x, params, plan, grid = small_setup(seed=33)
        plan = MaskPlan([TopK(block_size=2, k=2), Window(radius=1)])
        _, grads = salad_loss_grads(x, params, plan, grid)
        for name in ("x", "w_q", "w_v", "proj"):
            fd = fd_gradient(x, params, plan, grid, None, name)
            assert max_rel_err(fd, grads[name]) < FD_TOL, name

    def test_dropped_branch_kills_branch_gradients(self):
        x, params, plan, grid = small_setup(dropped=True)
        _, grads = salad_loss_grads(x, params, plan, grid)
        assert not np.any(grads["proj"])
        assert not np.any(grads["gate_w"]) and grads["gate_b"] == 0.0

    def test_constant_gate_detaches_gate_weights(self):
        x, params, plan, grid = small_setup(gate_activation="constant", gate_constant=0.4)
        _, grads = salad_loss_grads(x, params, plan, grid)
        assert not np.any(grads["gate_w"]) and grads["gate_b"] == 0.0
        assert "lambda" in grads

    def test_zero_init_proj_gradient_nonzero(self):
        x, params, plan, grid = small_setup()
        params.proj = np.zeros_like(params.proj)
        _, grads = salad_loss_grads(x, params, plan, grid)
        assert float(np.max(np.abs(grads["proj"]))) > 1e-6
        fd = fd_gradient(x, params, plan, grid, None, "proj")
        assert max_rel_err(fd, grads["proj"]) < 1e-6

    def test_detached_gate_matches_constant_gate_input_gradient(self):
        x, params, plan, grid = small_setup(gate_detached=True)
        _, det = salad_loss_grads(x, params, plan, grid)
        _, trace = salad_forward(x, params, plan, grid)
        const = dataclasses.replace(params, gate_detached=False,
                                    gate_activation="constant", gate_constant=trace.gate)
        _, con = salad_loss_grads(x, const, plan, grid)
        assert np.max(np.abs(det["x"] - con["x"])) <= 1e-12
        assert np.any(det["gate_w"])  # gate weights still train

    def test_lambda_gradient_is_directional_derivative(self):
        x, params, plan, grid = small_setup(lambda_override=0.6)
        loss, grads = salad_loss_grads(x, params, plan, grid)
        out, trace = salad_forward(x, params, plan, grid)
        direction = matmul(matmul(trace.o_l, params.proj), params.w_o)
        want = float(np.sum(direction * 2.0 * out))
        assert abs(grads["lambda"] - want) <= 1e-8 * (1 + abs(want))

    def test_loss_value(self):
        x, params, plan, grid = small_setup()
        loss, _ = salad_loss_grads(x, params, plan, grid)
        out, _ = salad_forward(x, params, plan, grid)
        assert loss == float(np.sum(out * out))

    def test_checkable_params_lists(self):
        _, params, _, _ = small_setup(lora=True)
        names = checkable_params(params)
        assert names[0] == "x" and "lora_v.b" in names
        _, ns, _, _ = small_setup(variant="non_shared")
        assert "w_q_lin" in checkable_params(ns)

    def test_report_round_trip(self):
        rep = GradCheckReport(param="w_q", analytic_norm=1.5, max_rel_err=1e-9,
                              passed=True, step=1e-5)
        doc = record_to_dict(rep)
        assert list(doc) == ["param", "analytic_norm", "max_rel_err", "passed", "step"]
        assert record_from_dict(GradCheckReport, doc) == rep


# ---------------------------------------------------------------------------
# The key-list kernel against dense masked attention


def forward_and_grads(x, params, plan, grid):
    out, _ = salad_forward(x, params, plan, grid)
    loss, grads = salad_loss_grads(x, params, plan, grid)
    return out, loss, grads


def dense_mask(entry, grid, q, k):
    """The entry's (N, N) mask, built without key lists."""
    n = grid.seq_len
    if isinstance(entry, Window):
        return build_window_mask(n, entry.radius)
    if isinstance(entry, TopK):
        spans = [(a, min(a + entry.block_size, n)) for a in range(0, n, entry.block_size)]
        mask = np.zeros((n, n), dtype=bool)
        for (a, b), selected in zip(spans, select_topk_blocks(q, k, entry.block_size, entry.k)):
            for kb in selected:
                mask[a:b, slice(*spans[kb])] = True
        return mask
    return entry.mask


def dense_head_attention(q, k, v, entry, grid, weights=True):
    """Reference forward: matmul, softmax_masked, matmul on N x N arrays;
    it keeps the weights whatever ``weights`` asks."""
    mask = dense_mask(entry, grid, q, k)
    perm = st_reorder_permutation(grid) if getattr(entry, "reordered", False) else None
    if perm is not None:
        q, k, v = q[perm], k[perm], v[perm]
    attn = softmax_masked(matmul(q, k.T) * (1.0 / np.sqrt(q.shape[1])), mask)
    out = matmul(attn, v)
    if perm is not None:
        permuted, out = out, np.empty_like(out)
        out[perm] = permuted
    pairs = SimpleNamespace(pairs=int(mask.sum()))
    return out, SimpleNamespace(weights=attn, mask=mask, perm=perm, keys=pairs)


def dense_head_attention_backward(q, k, v, rec, go):
    """Reference backward with the dense softmax rule y * (g - sum(y * g))."""
    inv_sqrt_d = 1.0 / np.sqrt(q.shape[1])
    attn = rec.weights
    dattn, dv = matmul_backward(attn, v, go)
    dot = np.sum(attn * dattn, axis=1, keepdims=True)
    dlogits = np.where(rec.mask, attn * (dattn - dot), 0.0)
    return matmul(dlogits, k) * inv_sqrt_d, matmul(dlogits.T, q) * inv_sqrt_d, dv


def window_case(index, shape, radius, reordered):
    return pytest.param(shape, Window(radius, reordered), id=f"shape{index}-{radius}-{reordered}")


def random_mask(n, seed):
    mask = Rng(seed).uniform((n, n)) < 0.3
    np.fill_diagonal(mask, True)
    return mask


KERNEL_CASES = [  # (frames, height, width), plan entry
    window_case(0, (2, 3, 4), 0, False),
    window_case(1, (2, 3, 4), 0, True),
    window_case(2, (2, 3, 4), 11, False),  # 2r+1 = N-1: the widest partial window
    window_case(3, (2, 3, 4), 11, True),
    window_case(4, (3, 3, 3), 13, False),  # 2r+1 = N, still not every pair
    window_case(5, (3, 3, 3), 13, True),
    window_case(6, (3, 5, 10), 4, False),  # N = 150 splits into unequal leaves of 72 and 78
    window_case(7, (3, 5, 10), 4, True),
    pytest.param((2, 3, 4), Window(23), id="full-window"),
    pytest.param((2, 3, 4), TopK(block_size=5, k=2), id="topk-ragged"),
    pytest.param((3, 5, 10), TopK(block_size=8, k=3), id="topk-n150"),
    pytest.param((2, 3, 4), TopK(block_size=4, k=6), id="topk-every-block"),
    pytest.param((2, 3, 4), Explicit(random_mask(24, 5)), id="explicit-random"),
    pytest.param((3, 5, 10), Explicit(random_mask(150, 6)), id="explicit-n150"),
]


@pytest.mark.parametrize("shape,entry", KERNEL_CASES)
def test_window_plan_is_bit_identical_to_dense_path(monkeypatch, shape, entry):
    x, params, _, grid = small_setup(shape=shape)
    plan = MaskPlan.uniform(entry, grid.heads)
    got = forward_and_grads(x, params, plan, grid)
    monkeypatch.setattr(block, "sparse_head_attention", dense_head_attention)
    monkeypatch.setattr(gradients, "head_attention_backward", dense_head_attention_backward)
    want = forward_and_grads(x, params, plan, grid)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert sorted(got[2]) == sorted(want[2])
    for name in want[2]:
        assert np.array_equal(got[2][name], want[2][name]), name


def test_full_window_row_blocks_keep_the_weights_and_grads(monkeypatch):
    """At N=512 a full window runs in row blocks of 128 queries; its weights
    and every gradient are bit-equal to a run as one block."""
    x, params, _, grid = small_setup(shape=(8, 8, 8), d=8)
    plan = MaskPlan.uniform(Window(radius=grid.seq_len), grid.heads)

    def forward_weights_and_grads():
        _, trace = salad_forward(x, params, plan, grid)
        return [info.weights for info in trace.heads], salad_loss_grads(x, params, plan, grid)

    weights, (loss, grads) = forward_weights_and_grads()
    monkeypatch.setattr(masking, "ORDERED_SUM_BLOCK", 1 << 62)
    one_block, (one_block_loss, one_block_grads) = forward_weights_and_grads()
    assert all(same_bits(w, want) for w, want in zip(weights, one_block))
    assert loss == one_block_loss and sorted(grads) == sorted(one_block_grads)
    for name, grad in grads.items():
        assert same_bits(np.asarray(grad), np.asarray(one_block_grads[name])), name


def refuse_dense_path(monkeypatch, *originals):
    """Make every salad binding of ``originals`` raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a head took the dense path")

    for original in originals:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "salad" and getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, refuse)


def test_window_path_never_builds_a_dense_mask(monkeypatch):
    refuse_dense_path(monkeypatch, checks.build_window_mask)
    x, params, _, grid = small_setup(shape=(8, 8, 8), d=8)
    assert grid.seq_len == 512
    plan = MaskPlan.uniform(Window(radius=8), grid.heads)
    out, _ = salad_forward(x, params, plan, grid)
    _, grads = salad_loss_grads(x, params, plan, grid)
    assert np.all(np.isfinite(out)) and np.all(np.isfinite(grads["x"]))


def test_gradcheck_builds_grid_constants_once(monkeypatch):
    """``check_gradients`` runs thousands of tiny forwards and backwards on
    one 2x2x2 grid with one rope config and the windows r=2 and r=1. Its
    coordinates, rope tables and window key lists must come from the
    per-grid caches: one ``np.meshgrid`` per grid extent, one table pair per
    angle sign and one key list per radius, not one of each per forward."""
    built, tables = [], []
    meshgrid, rope_tables = np.meshgrid, linear_attention._rope_tables
    monkeypatch.setattr(np, "meshgrid", lambda *a, **k: built.append(tuple(map(len, a))) or meshgrid(*a, **k))
    monkeypatch.setattr(linear_attention, "_rope_tables", lambda *a: tables.append(1) or rope_tables(*a))
    for cache in (masking.grid_coords, linear_attention.grid_rope_tables, masking.window_keys):
        cache.cache_clear()
    assert checks.check_gradients().passed
    assert built == [(2, 2, 2)]
    assert len(tables) == 2
    assert masking.window_keys.cache_info().misses == 2


def test_topk_path_never_builds_a_dense_mask(monkeypatch):
    refuse_dense_path(monkeypatch, checks.build_window_mask)
    x, params, _, grid = small_setup(shape=(8, 8, 8), d=8)
    assert grid.seq_len == 512
    plan = MaskPlan.uniform(TopK(block_size=8, k=4), grid.heads)
    out, _ = salad_forward(x, params, plan, grid)
    _, grads = salad_loss_grads(x, params, plan, grid)
    assert np.all(np.isfinite(out)) and np.all(np.isfinite(grads["x"]))


# ---------------------------------------------------------------------------
# The recorded linear state and the wide weight-gradient product


def variant_setup(variant):
    """A block with adapters on every target at N=24: shared, non-shared,
    or non-shared with its linear branch dropped."""
    x, params, _, grid = small_setup(lora=True, shape=(2, 3, 4))
    if variant != "shared":
        rng, h = Rng(29), grid.channels
        params = dataclasses.replace(params, variant="non_shared", dropped=variant == "dropped",
                                     **{name: rng.normal((h, h)) * h**-0.5
                                        for name in ("w_q_lin", "w_k_lin", "w_v_lin")})
    return x, params, grid


VARIANTS = ["shared", "non_shared", "dropped"]
GRAD_PLANS = {
    "window": Window(radius=3),
    "reordered": Window(radius=2, reordered=True),
    "topk": TopK(block_size=5, k=2),
    "explicit": Explicit(random_mask(24, 7)),
    "full": Window(radius=23),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_recorded_linear_state_is_a_fresh_streaming_terms_call(variant):
    """Each head's recorded H, Z, numerators and denominators (the
    streaming terms) have the bits of the state a fresh
    ``linear_attention_streaming`` call forms on that head's linear-branch
    inputs; a dropped branch records none."""
    x, params, grid = variant_setup(variant)
    _, trace = salad_forward(x, params, MaskPlan.uniform(Window(radius=2), grid.heads), grid)
    if variant == "dropped":
        assert trace.linear is None
        return
    pr = trace.projection
    slices = head_slices(grid.channels, grid.heads)
    assert len(trace.linear) == len(slices)
    for s, state in zip(slices, trace.linear):
        _, want = linear_attention_streaming(pr.q_lin[:, s], pr.k_lin[:, s], pr.v_lin[:, s])
        for term in ("h", "z", "num", "den"):
            assert same_bits(getattr(state, term), getattr(want, term)), term


@pytest.mark.parametrize("plan_name", sorted(GRAD_PLANS))
@pytest.mark.parametrize("variant", VARIANTS)
def test_loss_grads_match_the_recomputing_reference(variant, plan_name):
    """``salad_loss_grads``, which reads the recorded linear state and runs
    the projection-weight gradients as one product, gives the bits of the
    reference that forms the state again and runs one product per weight."""
    x, params, grid = variant_setup(variant)
    plan = MaskPlan.uniform(GRAD_PLANS[plan_name], grid.heads)
    loss, grads = salad_loss_grads(x, params, plan, grid)
    want_loss, want = reference_loss_grads(x, params, plan, grid)
    assert loss == want_loss and sorted(grads) == sorted(want)
    for name in want:
        assert same_bits(np.asarray(grads[name], dtype=np.float64),
                         np.asarray(want[name], dtype=np.float64)), name


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_op_forms_each_heads_linear_state_once(monkeypatch, variant):
    """The regression guard for a backward that forms the linear state
    again: one ``salad_loss_grads`` runs ``linear_attention_streaming``
    once per head, in its forward, and a dropped branch not at all."""
    calls = []
    real = linear_attention.linear_attention_streaming
    for name, module in list(sys.modules.items()):  # every binding, as a backward may import it
        if name.split(".")[0] == "salad" and getattr(module, "linear_attention_streaming",
                                                     None) is real:
            monkeypatch.setattr(module, "linear_attention_streaming",
                                lambda *a: calls.append(1) or real(*a))
    x, params, grid = variant_setup(variant)
    salad_loss_grads(x, params, MaskPlan.uniform(Window(radius=2), grid.heads), grid)
    assert len(calls) == (0 if variant == "dropped" else grid.heads)


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_op_forms_the_gate_pre_activations_once(monkeypatch, variant):
    """The backward reads the pre-activations its forward's gate recorded
    rather than forming them again."""
    calls = []
    real = block.gate_pre_activations
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "salad" and getattr(module, "gate_pre_activations", None) is real:
            monkeypatch.setattr(module, "gate_pre_activations", lambda *a: calls.append(1) or real(*a))
    x, params, grid = variant_setup(variant)
    salad_loss_grads(x, params, MaskPlan.uniform(Window(radius=2), grid.heads), grid)
    assert len(calls) == 1


def test_backward_refuses_a_record_without_weights():
    x, params, plan, grid = small_setup()
    _, rec = salad_forward(x, params, plan, grid, weights=False)
    pr, s = rec.projection, head_slices(params.channels, grid.heads)[0]
    with pytest.raises(StateError, match="weights were not kept"):
        gradients.head_attention_backward(pr.q[:, s], pr.k[:, s], pr.v[:, s], rec.heads[0],
                                          np.ones((grid.seq_len, grid.head_dim)))


def test_linear_backward_matches_the_recomputing_reference(rng):
    """With dead feature rows and the epsilon guard in play."""
    n, d = 40, 6
    q, k, v, go = (rng.normal((n, d)) for _ in range(4))
    q[:5] = -np.abs(q[:5])  # rows whose features all vanish
    _, state = linear_attention_streaming(q, k, v)
    got = relu_linear_attention_backward(q, k, v, go, state)
    for g, w in zip(got, recomputing_linear_backward(q, k, v, go)):
        assert same_bits(g, w)


# ---------------------------------------------------------------------------
# Finite differences on stacked forwards


def oracle_setups():
    """A shared block with adapters on every target and a non-shared block,
    as ``check_gradients`` checks them."""
    x, params, plan, grid = small_setup(lora=True)
    rng, h = Rng(23), grid.channels
    non_shared = dataclasses.replace(params, lora={}, variant="non_shared",
                                     **{name: rng.normal((h, h)) * h**-0.5
                                        for name in ("w_q_lin", "w_k_lin", "w_v_lin")})
    return [(x, params, plan, grid), (x, non_shared, plan, grid)]


@pytest.mark.parametrize("setup", [0, 1], ids=["shared-lora", "non-shared"])
def test_fd_gradient_has_the_one_at_a_time_bits(setup):
    x, params, plan, grid = oracle_setups()[setup]
    for name in checkable_params(params):
        got = fd_gradient(x, params, plan, grid, None, name)
        assert same_bits(got, loop_fd_gradient(x, params, plan, grid, None, name)), name


def test_fd_gradient_keeps_its_bits_across_stack_chunks(monkeypatch):
    """Stacks of three bumps split the +step and -step of every second
    element between two stacked forwards."""
    x, params, plan, grid = oracle_setups()[0]
    calls = []
    real = gradients.stacked_forward
    monkeypatch.setattr(gradients, "stacked_forward",
                        lambda *a: calls.append(len(a[6])) or real(*a))
    monkeypatch.setattr(gradients, "ORDERED_SUM_BLOCK", 3 * grid.seq_len * grid.channels)
    for name in ("x", "gate_b", "lora_k.b", "w_o"):
        calls.clear()
        got = fd_gradient(x, params, plan, grid, None, name)
        size = 2 * (x if name == "x" else params.param(name)).size
        assert calls == [3] * (size // 3) + ([size % 3] if size % 3 else []), name
        assert same_bits(got, loop_fd_gradient(x, params, plan, grid, None, name)), name


def test_gradient_oracle_runs_one_stacked_forward_per_parameter(monkeypatch):
    """The regression guard for per-perturbation forwards: the oracle's
    2,212 bumps (2 x 1,106 parameter elements) run as 27 stacked forwards,
    one per parameter of its two blocks, beside its 11 lone forwards."""
    stacked, forwards = [], []
    real_stacked, real_forward = gradients.stacked_forward, block._forward
    monkeypatch.setattr(gradients, "stacked_forward",
                        lambda *a, **k: stacked.append(len(a[6])) or real_stacked(*a, **k))
    monkeypatch.setattr(block, "_forward", lambda *a: forwards.append(1) or real_forward(*a))
    assert checks.check_gradients().passed
    assert len(stacked) == 16 + 11 and sum(stacked) == 2212
    assert len(forwards) == len(stacked) + 11


@pytest.mark.parametrize("shift,named", [(0.0, r"element 0, \+1e\+300 step"),
                                         (-1e300, r"element 0, -1e\+300 step")])
def test_an_overflowing_bump_names_its_parameter_element_and_sign(shift, named):
    """x[0, 0] = -1e300 makes the +step bump the only finite one."""
    x, params, plan, grid = small_setup()
    x[0, 0] = x[0, 0] if shift == 0.0 else shift
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=rf"^finite differences of x, {named}: \S"):
            fd_gradient(x, params, plan, grid, None, "x", step=1e300)
