"""Hand-derived reverse-mode gradients for the block, checked against
central finite differences.

There is no autodiff engine here: the forward pass records its
intermediates and ``salad_loss_grads`` walks the chain backwards with
explicit formulas. The loss is the sum of squares of the block output,
which is enough to exercise every parameter path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .block import SaladParams, head_slices, salad_forward, stacked_forward
from .errors import NumericError, StateError
from .linear_attention import LinearState, RopeConfig, _grid_rotate
from .masking import HeadAttention, KeyList, LatentGrid, MaskPlan
from .numerics import ORDERED_SUM_BLOCK, Array, matmul, relu, sigmoid, tanh

FD_STEP = 1e-5
FD_TOL = 1e-6


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of one parameter's finite-difference comparison."""

    param: str
    analytic_norm: float
    max_rel_err: float
    passed: bool
    step: float


# ---------------------------------------------------------------------------
# Primitive backward rules


def matmul_backward(a: Array, b: Array, g: Array) -> tuple[Array, Array]:
    """Gradients of C = A B given upstream dC: (dC B^T, A^T dC)."""
    return matmul(g, np.asarray(b).T), matmul(np.asarray(a).T, g)


def softmax_backward(y: Array, gy: Array, keys: KeyList) -> Array:
    """Jacobian-vector product of the key-list softmax (:meth:`KeyList.softmax`).

    ``y`` is the forward output. Row rule on attended slots:
    y * (g - sum(y * g)), with the row sum taken as over the dense row;
    unattended slots receive exactly zero because the exclusion is
    structural, not a large negative addend.
    """
    dot = keys.row_sum(y * gy)[:, None]
    return np.where(keys.valid, y * (gy - dot), 0.0)


def head_attention_backward(
    q: Array, k: Array, v: Array, rec: HeadAttention, go: Array
) -> tuple[Array, Array, Array]:
    """Gradients of one head's attention output w.r.t. its Q, K and V, all
    in the token order attention ran in.

    The products over queries (dK and dV) run on the transposed key list,
    which visits each key's queries in ascending order as ``matmul`` on
    the dense transpose would; the list's structure gives that transpose
    without sorting pairs (:meth:`KeyList.transposed`). The record must
    keep its attention weights.
    """
    keys, attn = rec.keys, rec.weights
    if attn is None:
        raise StateError("the head's attention weights were not kept; the backward pass "
                         "needs a forward run with weights=True")
    inv_sqrt_d = 1.0 / math.sqrt(q.shape[1])
    dlogits = softmax_backward(attn, keys.scores(go, v), keys)
    back, (dlogits_back, attn_back) = keys.transposed(dlogits, attn)
    dq = keys.apply(dlogits, k) * inv_sqrt_d
    dk = back.apply(dlogits_back, q) * inv_sqrt_d
    return dq, dk, back.apply(attn_back, go)


def elementwise_backward(op: str, x: Array, gy: Array) -> Array:
    x = np.asarray(x, dtype=np.float64)
    if op == "relu":
        return gy * (x > 0)
    if op == "sigmoid":
        s = sigmoid(x)
        return gy * s * (1.0 - s)
    if op == "tanh":
        t = tanh(x)
        return gy * (1.0 - t * t)
    raise ValueError(f"unknown elementwise op {op!r}")


def rope3d_backward(gy: Array, grid: LatentGrid, cfg: RopeConfig) -> Array:
    """Transpose of :func:`rope3d_apply`: turn the cotangent by the negated angles."""
    return _grid_rotate(gy, grid, cfg, -1)


def relu_linear_attention_backward(
    q: Array, k: Array, v: Array, go: Array, state: LinearState
) -> tuple[Array, Array, Array]:
    """Gradients of the streaming ReLU linear attention output.

    Quotient rule through O_i = f_i H / (f_i Z + eps) with f = relu(Q),
    H = relu(K)^T V, Z = relu(K)^T 1, then the ReLU gates route the
    feature gradients back onto Q and K. H, Z, the numerators and the
    guarded denominators are the ``state`` the forward recorded for this
    head (:class:`LinearState`), read rather than formed again; dH and dZ
    are one product, relu(Q)^T [dnum | dden].
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    h, z, num, den = state.h, state.z, state.num, state.den
    fq = relu(q)
    dnum = go / den[:, None]
    dden = -np.sum(num * go, axis=1) / (den * den)
    dfq = matmul(dnum, h.T) + dden[:, None] * z[None, :]
    dhz = matmul(fq.T, np.concatenate([dnum, dden[:, None]], axis=1))
    dh, dz = dhz[:, :-1], dhz[:, -1]
    dfk = matmul(v, dh.T) + dz[None, :]
    dv = matmul(relu(k), dh)
    return dfq * (q > 0), dfk * (k > 0), dv


def gate_mean_backward(
    x: Array,
    u: Array,
    gate_w: Array,
    activation: str,
    g_up: float,
) -> tuple[Array, Array, float]:
    """Gradients of the token-mean gate scalar w.r.t. X, gate_w, gate_b,
    given the per-token pre-activations ``u`` the forward recorded
    (:attr:`BlockTrace.gate_pre`)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(gate_w, dtype=np.float64).reshape(-1)
    n = x.shape[0]
    dact = np.full(n, g_up / n)
    du = elementwise_backward(activation, u, dact)
    dw = matmul(x.T, du[:, None])[:, 0]
    db = float(du.sum())
    dx = du[:, None] * w[None, :]
    return dx, dw, db


# ---------------------------------------------------------------------------
# Whole-block backward


def salad_loss_grads(
    x: Array,
    params: SaladParams,
    plan: MaskPlan,
    grid: LatentGrid,
    rope_cfg: RopeConfig | None = None,
) -> tuple[float, dict[str, Array | float]]:
    """Sum-of-squares loss of the block output and gradients for every
    parameter (and the input).

    Dropped blocks have exactly-zero proj and gate gradients; constant or
    overridden gates detach the gate parameters and report the scalar's
    own gradient under the key "lambda"; a detached gate keeps its
    parameter gradients but sends nothing back into X.
    """
    out, rec = salad_forward(x, params, plan, grid, rope_cfg)
    pr = rec.projection
    loss = float(np.sum(out * out))
    shared = params.variant == "shared"

    dfinal = 2.0 * out
    dfused, dwo = matmul_backward(rec.fused, pr.wo, dfinal)

    zeros_like = lambda a: np.zeros_like(np.asarray(a, dtype=np.float64))
    grads: dict[str, Array | float] = {
        "proj": zeros_like(params.proj),
        "gate_w": zeros_like(params.gate_w),
        "gate_b": 0.0,
    }

    do_s = dfused
    do_l = None
    dx = np.zeros_like(x, dtype=np.float64)
    if not params.dropped:
        dproj_out = rec.gate_applied * dfused
        dg_applied = float(np.sum(rec.proj_out * dfused))
        do_l, grads["proj"] = matmul_backward(rec.o_l, params.proj, dproj_out)
        if params.lambda_override is not None or params.gate_activation == "constant":
            grads["lambda"] = dg_applied
        else:
            dx_gate, dw_gate, db_gate = gate_mean_backward(
                x, rec.gate_pre, params.gate_w, params.gate_activation, dg_applied
            )
            grads["gate_w"] = dw_gate
            grads["gate_b"] = db_gate
            if not params.gate_detached:
                dx += dx_gate

    dq_rot, dk_rot, dv = (np.zeros_like(a) for a in (pr.q, pr.k, pr.v))
    if shared:  # both branches read the same Q/K/V, so their gradients add up in place
        dql_rot, dkl_rot, dvl = dq_rot, dk_rot, dv
    else:
        dql_rot, dkl_rot, dvl = (np.zeros_like(a) for a in (pr.q, pr.k, pr.v))

    for head, s in enumerate(head_slices(params.channels, grid.heads)):
        # A reordered head ran on rows ``perm`` and scatters its gradients back there.
        info = rec.heads[head]
        rows = slice(None) if info.perm is None else info.perm
        q2, k2, v2, do2 = (a[rows, s] for a in (pr.q, pr.k, pr.v, do_s))
        dq2, dk2, dv2 = head_attention_backward(q2, k2, v2, info, do2)
        for dst, src in ((dq_rot, dq2), (dk_rot, dk2), (dv, dv2)):
            dst[rows, s] += src

        if do_l is not None:
            dql_h, dkl_h, dvl_h = relu_linear_attention_backward(
                pr.q_lin[:, s], pr.k_lin[:, s], pr.v_lin[:, s], do_l[:, s], rec.linear[head]
            )
            dql_rot[:, s] += dql_h
            dkl_rot[:, s] += dkl_h
            dvl[:, s] += dvl_h

    # Each projection X W: undo the rotation (queries and keys only), then
    # route the gradient onto W and back into X. The weight gradients share
    # X^T, so they run as one product, X^T [dQ | dK | dV ...].
    stages = [("w_q", dq_rot, pr.wq, True), ("w_k", dk_rot, pr.wk, True), ("w_v", dv, pr.wv, False)]
    if not shared:
        stages += [("w_q_lin", dql_rot, params.w_q_lin, True),
                   ("w_k_lin", dkl_rot, params.w_k_lin, True),
                   ("w_v_lin", dvl, params.w_v_lin, False)]
    d_pres = [rope3d_backward(d_out, grid, pr.rope_cfg) if rotated else d_out
              for _, d_out, _, rotated in stages]
    dws = np.split(matmul(x.T, np.concatenate(d_pres, axis=1)), len(stages), axis=1)
    for (name, _, w, _), d_pre, dw in zip(stages, d_pres, dws):
        grads[name] = np.ascontiguousarray(dw)
        dx += matmul(d_pre, np.asarray(w).T)
    grads["w_o"] = dwo

    for name, u in params.lora.items():
        dmerged = grads[f"w_{name}"]
        grads[f"lora_{name}.a"] = u.scale * matmul(dmerged, u.b).T
        grads[f"lora_{name}.b"] = u.scale * matmul(u.a, dmerged).T

    grads["x"] = dx
    return loss, grads


# ---------------------------------------------------------------------------
# Finite-difference verification


def checkable_params(params: SaladParams) -> list[str]:
    return ["x", *params.param_names()]


def fd_gradient(
    x: Array,
    params: SaladParams,
    plan: MaskPlan,
    grid: LatentGrid,
    rope_cfg: RopeConfig | None,
    name: str,
    step: float = FD_STEP,
) -> Array:
    """Central-difference gradient of the sum-of-squares loss.

    ``name`` is "x" for the input or a :meth:`SaladParams.param` name.
    Element i is (loss(+step at i) - loss(-step at i)) / (2 step), the
    two losses added to 0.0 in that order, as a loop over the elements
    would.

    The 2 x size perturbations (+step, then -step, for each element in
    order) run as a few stacked forwards (:func:`stacked_forward`), each
    with the bits of its lone forward. A stack holds at most
    ``ORDERED_SUM_BLOCK`` input-sized values (N x max(D, H) each), so every
    parameter of a 2 x 2 x 2 grid with 8 channels runs in one forward, and
    one at N = 64 with 16 channels in stacks of 64. A forward that raises
    :class:`NumericError` is named by its element and sign.
    """
    base = np.array(x, dtype=np.float64) if name == "x" else params.param(name).copy()
    flat = base.reshape(-1)
    total = 2 * flat.size
    chunk = max(1, ORDERED_SUM_BLOCK // (grid.seq_len * max(params.d_model, params.channels)))
    losses = np.empty(total)  # +step then -step per element
    for start in range(0, total, chunk):
        bumps = np.arange(start, min(start + chunk, total))
        values = np.repeat(flat[None], bumps.size, axis=0)
        values[np.arange(bumps.size), bumps // 2] += np.where(bumps % 2, -step, step)
        values = values.reshape(bumps.size, *base.shape)
        try:
            y = stacked_forward(x, params, plan, grid, rope_cfg, name, values)
        except NumericError:
            for value, bump in zip(values, bumps.tolist()):  # the first bump that fails alone
                try:
                    stacked_forward(x, params, plan, grid, rope_cfg, name, value[None])
                except NumericError as exc:
                    raise NumericError(f"finite differences of {name}, element {bump // 2}, "
                                       f"{'-' if bump % 2 else '+'}{step:g} step: {exc}") from None
            raise
        losses[bumps] = [np.sum(ys * ys) for ys in y]
    out = np.zeros_like(flat)
    for sign, loss in ((1.0, losses[0::2]), (-1.0, losses[1::2])):
        out += sign * loss
    return (out / (2.0 * step)).reshape(base.shape)


def max_rel_err(fd: Array, an: Array) -> float:
    fd = np.asarray(fd, dtype=np.float64)
    an = np.asarray(an, dtype=np.float64)
    err = np.abs(fd - an) / (np.abs(fd) + np.abs(an) + 1e-12)
    return float(err.max()) if err.size else 0.0


def gradcheck_salad(
    x: Array,
    params: SaladParams,
    plan: MaskPlan,
    grid: LatentGrid,
    rope_cfg: RopeConfig | None = None,
) -> list[GradCheckReport]:
    """Compare every analytic gradient against central differences of step
    ``FD_STEP``; a parameter passes below relative error ``FD_TOL``.

    Sizes should stay small (N <= 64, head_dim <= 16): the finite
    differences run two forwards per parameter element, stacked a few
    hundred at a time (at most ``ORDERED_SUM_BLOCK`` input-sized values per
    stack; see :func:`fd_gradient`), so a small grid checks each parameter
    in one stacked forward. A gradient whose norm or error is not finite
    raises :class:`NumericError` naming its parameter.
    """
    _, grads = salad_loss_grads(x, params, plan, grid, rope_cfg)
    reports = []
    for name in checkable_params(params):
        an = np.asarray(grads[name], dtype=np.float64)
        fd = fd_gradient(x, params, plan, grid, rope_cfg, name, FD_STEP)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned of
            norm, err = float(math.sqrt(np.sum(an * an))), max_rel_err(fd, an)
        if not (math.isfinite(norm) and math.isfinite(err)):
            raise NumericError(f"gradient of {name} has norm {norm:g} and relative error "
                               f"{err:g}; both must be finite")
        reports.append(GradCheckReport(param=name, analytic_norm=norm, max_rel_err=err,
                                       passed=err < FD_TOL, step=FD_STEP))
    return reports
