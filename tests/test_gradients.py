import dataclasses

import numpy as np

from salad.block import LoraUpdate, SaladParams, salad_forward
from salad.gradients import (
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
    softmax_masked_backward,
)
from salad.linear_attention import RopeConfig, linear_attention_streaming, rope3d_rotate
from salad.masking import LatentGrid, MaskPlan, Window
from salad.numerics import Rng, matmul, softmax_masked
from salad.tensor_io import record_from_dict, record_to_dict


def small_setup(seed=21, heads=2, d=4, lora=False, **overrides):
    rng = Rng(seed)
    grid = LatentGrid(frames=2, height=2, width=2, heads=heads, head_dim=d)
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

    def test_softmax_single_survivor_has_zero_gradient(self):
        logits = np.array([[2.0, 1.0, 7.0]])
        mask = np.array([[True, False, False]])
        y = softmax_masked(logits, mask)
        g = softmax_masked_backward(y, mask, np.array([[1.0, 0.0, 0.0]]))
        assert np.array_equal(g, np.zeros((1, 3)))

    def test_softmax_fd(self, rng):
        logits = rng.normal((4, 6))
        mask = rng.uniform((4, 6)) < 0.6
        mask[:, 0] = True
        r = rng.normal((4, 6))
        y = softmax_masked(logits, mask)
        got = softmax_masked_backward(y, mask, r)
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
        coords = np.stack([rng.raw(6) % 4, rng.raw(6) % 3, rng.raw(6) % 3], axis=1).astype(np.int64)
        x = rng.normal((6, 8))
        y = rope3d_rotate(x, coords, cfg)
        assert np.max(np.abs(rope3d_backward(y, coords, cfg) - x)) < 1e-12

    def test_rope_fd(self, rng):
        cfg = RopeConfig.default(8)
        coords = np.stack([rng.raw(6) % 4, rng.raw(6) % 3, rng.raw(6) % 3], axis=1).astype(np.int64)
        x = rng.normal((6, 8))
        r = rng.normal((6, 8))
        got = rope3d_backward(r, coords, cfg)
        fd = fd_scalar(lambda: float(np.sum(rope3d_rotate(x, coords, cfg) * r)), x)
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
        dq, dk, dv = relu_linear_attention_backward(q, k, v, r)
        loss = lambda: float(np.sum(linear_attention_streaming(q, k, v) * r))
        assert max_rel_err(fd_scalar(loss, q), dq) < 1e-6
        assert max_rel_err(fd_scalar(loss, k), dk) < 1e-6
        assert max_rel_err(fd_scalar(loss, v), dv) < 1e-6
        assert dq[0, 0] == 0.0  # gradient does not cross the relu gate

    def test_gate_fd(self, rng):
        from salad.block import compute_gate

        x = rng.normal((7, 5))
        w = rng.normal(5)
        b = np.array(0.3)
        for act in ("sigmoid", "tanh"):
            dx, dw, db = gate_mean_backward(x, w, float(b), act, 1.7)
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
        reports = gradcheck_salad(x, params, plan, grid,
                                  names=["x", "w_q", "w_v", "proj"])
        assert all(r.passed for r in reports)

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
