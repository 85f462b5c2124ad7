"""The hybrid attention block: sparse branch + gated linear branch.

Forward pass over input X of shape (N, D):

    Q, K, V = X Wq, X Wk, X Wv          (LoRA-merged when adapters present)
    rotate Q, K by the 3-axis rotary embedding (per head)
    O_s  = per-head masked softmax attention under the plan
    O_l  = per-head streaming ReLU linear attention
    gate = mean over tokens of act(x_i . gate_w + gate_b), one scalar
    out  = (O_s + gate * (O_l @ proj)) @ Wo

``proj`` defaults to all-zeros, which makes the whole block collapse
exactly onto the sparse-only path; training can therefore start from the
plain sparse model. The non-shared variant derives the linear branch's
Q/K/V from its own projection matrices instead of sharing.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError
from .linear_attention import (
    LinearState,
    RopeConfig,
    linear_attention_map,
    linear_attention_streaming,
    rope3d_apply,
)
from .masking import HeadAttention, LatentGrid, MaskPlan, sparse_head_attention
from .numerics import Array, relu, sigmoid, stacked_matmul, tanh

_ACTIVATIONS = {"sigmoid": sigmoid, "tanh": tanh, "relu": relu}
GATE_ACTIVATIONS = (*_ACTIVATIONS, "constant")
VARIANTS = ("shared", "non_shared")
#: The scalar :class:`SaladParams` fields a run config sets and a bundle
#: header stores verbatim, in header order.
BLOCK_FLAGS = ("variant", "gate_activation", "gate_constant", "lambda_override", "dropped",
               "gate_detached")


@dataclass(frozen=True)
class LoraUpdate:
    """Low-rank additive update: the merged weight is W + scale * (b a)^T."""

    a: Array  # (r, D)
    b: Array  # (H, r)
    scale: float = 1.0


@dataclass
class SaladParams:
    """All weights of one block.

    ``w_q/w_k/w_v`` are (D, H), ``w_o`` is (H, D), ``proj`` is (H, H) and
    zero unless loaded, ``gate_w`` is (D,). ``lora`` maps "q"/"k"/"v"/"o"
    to adapters merged into the dense weights before the forward pass.
    ``lambda_override`` replaces the computed gate scalar at inference;
    ``dropped`` removes the linear branch entirely; ``gate_detached``
    keeps the gate value in the forward pass but blocks its gradient path
    back into X.
    """

    w_q: Array
    w_k: Array
    w_v: Array
    w_o: Array
    proj: Array
    gate_w: Array
    gate_b: float
    lora: dict[str, LoraUpdate] = field(default_factory=dict)
    gate_activation: str = "sigmoid"
    gate_constant: float = 0.5
    lambda_override: float | None = None
    dropped: bool = False
    gate_detached: bool = False
    variant: str = "shared"
    w_q_lin: Array | None = None
    w_k_lin: Array | None = None
    w_v_lin: Array | None = None

    @property
    def d_model(self) -> int:
        return self.w_q.shape[0]

    @property
    def channels(self) -> int:
        return self.w_q.shape[1]

    def validate(self, grid: LatentGrid) -> None:
        d, h = self.d_model, self.channels
        expect = {
            "w_q": (d, h), "w_k": (d, h), "w_v": (d, h),
            "w_o": (h, d), "proj": (h, h), "gate_w": (d,),
        }
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.variant == "non_shared":
            for name in ("w_q_lin", "w_k_lin", "w_v_lin"):
                if getattr(self, name) is None:
                    raise ConfigError(f"non_shared variant requires {name}")
                expect[name] = (d, h)
        for name, shape in expect.items():
            got = np.asarray(getattr(self, name)).shape
            if got != shape:
                raise ConfigError(f"{name} has shape {got}, expected {shape}")
        if self.gate_activation not in GATE_ACTIVATIONS:
            raise ConfigError(f"unknown gate activation {self.gate_activation!r}")
        for key, u in self.lora.items():
            if key not in ("q", "k", "v", "o"):
                raise ConfigError(f"unknown lora target {key!r}")
            base = expect[f"w_{key}"]
            r = u.a.shape[0]
            if u.a.shape != (r, base[0]) or u.b.shape != (base[1], r):
                raise ConfigError(
                    f"lora[{key}] shapes a={u.a.shape} b={u.b.shape} do not fit weight {base}"
                )
        if grid.channels != h:
            raise ConfigError(f"grid supplies {grid.channels} channels but weights carry {h}")

    def param_names(self) -> list[str]:
        """Every parameter this block carries, in bundle order: the weight
        fields, "gate_b", the non-shared branch weights, then adapter
        factors "lora_<target>.a" / "lora_<target>.b" by target."""
        names = ["w_q", "w_k", "w_v", "w_o", "proj", "gate_w", "gate_b"]
        if self.variant == "non_shared":
            names += ["w_q_lin", "w_k_lin", "w_v_lin"]
        for target in sorted(self.lora):
            names += [f"lora_{target}.a", f"lora_{target}.b"]
        return names

    def param(self, name: str) -> Array:
        """One parameter named as in :meth:`param_names`, as a float64
        array; "gate_b" comes back with shape (1,)."""
        if name == "gate_b":
            return np.array([self.gate_b], dtype=np.float64)
        if name.startswith("lora_"):
            target, fld = name[len("lora_"):].split(".")
            return np.asarray(getattr(self.lora[target], fld), dtype=np.float64)
        return np.asarray(getattr(self, name), dtype=np.float64)

    def with_param(self, name: str, value: Array) -> "SaladParams":
        """Copy with the parameter named as in :meth:`param` replaced."""
        if name == "gate_b":
            return replace(self, gate_b=float(value.reshape(())))
        if name.startswith("lora_"):
            target, fld = name[len("lora_"):].split(".")
            adapter = replace(self.lora[target], **{fld: value})
            return replace(self, lora={**self.lora, target: adapter})
        return replace(self, **{name: value})


def lora_apply(w: Array, a: Array, b: Array, scale: float = 1.0) -> Array:
    """Merge a low-rank update into a dense weight: W + scale * (b a)^T.

    Composed so that x @ merged == x @ W + scale * (x @ a^T) @ b^T; the
    update's rank is at most the adapter rank. Any one of the three may be
    a stack with a leading axis; so is the result then, each element with
    the bits it gets alone (by :func:`stacked_matmul`).
    """
    w = np.asarray(w, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[-1] != w.shape[-2] or b.shape[-2] != w.shape[-1] or a.shape[-2] != b.shape[-1]:
        raise DimensionError(f"lora shapes a={a.shape} b={b.shape} do not fit weight {w.shape}")
    return w + scale * stacked_matmul(b, a).swapaxes(-1, -2)


def merged_weight(params: SaladParams, name: str) -> Array:
    """Dense weight with any adapter for ``name`` ("q"/"k"/"v"/"o") merged in."""
    w = getattr(params, f"w_{name}")
    u = params.lora.get(name)
    if u is None:
        return np.asarray(w, dtype=np.float64)
    return lora_apply(w, u.a, u.b, u.scale)


def added_param_count(
    variant: str,
    d_model: int,
    channels: int,
    with_proj: bool = True,
    with_gate: bool = True,
) -> int:
    """Parameters added on top of the pretrained attention weights.

    shared:     proj contributes channels * d_model, the gate contributes
                d_model + 1 (the scalar bias is counted).
    non_shared: 4 * channels * d_model covers the branch's own Q/K/V plus
                proj; the gate add-on is the same.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    gate = (d_model + 1) if with_gate else 0
    if variant == "non_shared":
        return 4 * channels * d_model + gate
    return (channels * d_model if with_proj else 0) + gate


def gate_pre_activations(x: Array, gate_w: Array, gate_b: float | Array) -> Array:
    """Per-token affine gate inputs x_i . gate_w + gate_b, shape (N,), or
    (S, N) when X is an (S, N, D) stack, ``gate_w`` an (S, D) one or
    ``gate_b`` an (S,) one."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(gate_w, dtype=np.float64)
    b = np.asarray(gate_b, dtype=np.float64)
    return stacked_matmul(x, w[..., None])[..., 0] + (b[:, None] if b.ndim else gate_b)


def compute_gate(
    x: Array,
    gate_w: Array,
    gate_b: float | Array,
    activation: str = "sigmoid",
    constant: float = 0.5,
    return_pre: bool = False,
) -> float | Array | tuple[float | Array, Array | None]:
    """Scalar gate: token mean of the activated per-token projections.

    With ``constant`` activation the input is ignored and the fixed value
    is returned, which turns the fused output into an affine function of
    that value. A stacked input (see :func:`gate_pre_activations`) gives
    one gate per element, an (S,) array; each element's mean runs over a
    C-contiguous row, as a lone (N,) mean does, so it has the same bits.
    With ``return_pre`` the result is (gate, pre-activations), the second
    None for a constant gate, which forms none.
    """
    if activation == "constant":
        return (float(constant), None) if return_pre else float(constant)
    if activation not in _ACTIVATIONS:
        raise ConfigError(f"unknown gate activation {activation!r}")
    u = gate_pre_activations(x, gate_w, gate_b)
    gate = np.mean(np.ascontiguousarray(_ACTIVATIONS[activation](u)), axis=-1)
    gate = float(gate) if gate.ndim == 0 else gate
    return (gate, u) if return_pre else gate


@dataclass
class Projection:
    """The projection stage of one forward pass: merged weights plus the
    rotated queries and keys and the values, all heads side by side.

    ``q_lin``/``k_lin``/``v_lin`` feed the linear branch; in the shared
    variant they are the same arrays as ``q``/``k``/``v``, and a dropped
    non-shared branch leaves them None. ``rope_cfg`` is the rotation that
    was applied, kept so the backward pass can undo it.
    """

    wq: Array
    wk: Array
    wv: Array
    wo: Array
    q: Array
    k: Array
    v: Array
    q_lin: Array | None
    k_lin: Array | None
    v_lin: Array | None
    rope_cfg: RopeConfig


def project(x: Array, params: SaladParams, grid: LatentGrid, rope_cfg: RopeConfig) -> Projection:
    """Merge adapters, project X to Q/K/V, and rotate every head of Q and K.
    A dropped non-shared branch is never read, so it is not projected.
    Stacked inputs or weights give stacked projections (see
    :func:`stacked_forward`)."""
    wq, wk, wv, wo = (merged_weight(params, m) for m in ("q", "k", "v", "o"))
    q = rope3d_apply(stacked_matmul(x, wq), grid, rope_cfg)
    k = rope3d_apply(stacked_matmul(x, wk), grid, rope_cfg)
    v = stacked_matmul(x, wv)
    if params.variant == "shared":
        linear = (q, k, v)
    elif params.dropped:
        linear = (None, None, None)
    else:
        linear = (rope3d_apply(stacked_matmul(x, params.w_q_lin), grid, rope_cfg),
                  rope3d_apply(stacked_matmul(x, params.w_k_lin), grid, rope_cfg),
                  stacked_matmul(x, params.w_v_lin))
    return Projection(wq, wk, wv, wo, q, k, v, *linear, rope_cfg)


@dataclass
class BlockTrace:
    """The record of one forward pass: everything the hand-derived backward
    pass, rank analysis and the run's gate and cost ledger read.

    ``gate`` is the scalar the gate path computed, and ``gate_pre`` its
    per-token pre-activations (None for a constant gate), which the
    backward pass reads; ``gate_applied`` is the
    value that actually scaled the linear branch. ``o_l``,
    ``gate_applied`` and the branch projection output ``proj_out`` are
    None when the branch is dropped. ``projection`` is the projection
    stage, and ``heads`` holds per head its :class:`HeadAttention` (the
    weights of the attended pairs only, or None when the forward ran
    without ``weights``; for reordered heads in permuted order, where the
    band structure is visible). ``linear`` holds per head
    the linear branch's streaming state (:class:`LinearState`), which the
    backward pass reads rather than forming again; it is None when the
    branch is dropped. Only :func:`salad_forward` returns a record;
    :func:`stacked_forward` returns its outputs alone.
    """

    o_s: Array
    o_l: Array | None
    gate: float | Array
    gate_pre: Array | None
    gate_applied: float | Array | None
    fused: Array
    proj_out: Array | None
    projection: Projection
    heads: tuple[HeadAttention, ...]
    linear: list[LinearState] | None

    @property
    def attended_pairs(self) -> list[int]:
        """Pairs each head attends."""
        return [info.keys.pairs for info in self.heads]


def head_slices(channels: int, heads: int) -> list[slice]:
    d = channels // heads
    return [slice(h * d, (h + 1) * d) for h in range(heads)]


def _validate_forward(x: Array, params: SaladParams, plan: MaskPlan, grid: LatentGrid,
                  rope_cfg: RopeConfig | None) -> RopeConfig:
    """Validate one forward's parameters, input and plan; the rope config
    it runs with."""
    params.validate(grid)
    n, d = grid.seq_len, grid.head_dim
    if x.shape != (n, params.d_model):
        raise DimensionError(f"input shape {x.shape} does not match (N={n}, D={params.d_model})")
    if len(plan) != grid.heads:
        raise ConfigError(f"plan has {len(plan)} entries for {grid.heads} heads")
    if rope_cfg is None:
        rope_cfg = RopeConfig.default(d)
    if rope_cfg.head_dim != d:
        raise ConfigError(f"rope split covers {rope_cfg.head_dim} channels, head_dim is {d}")
    return rope_cfg


def salad_forward(
    x: Array,
    params: SaladParams,
    plan: MaskPlan,
    grid: LatentGrid,
    rope_cfg: RopeConfig | None = None,
    weights: bool = True,
) -> tuple[Array, BlockTrace]:
    """Run the block on one sequence; returns (output, record). It is the
    forward :func:`stacked_forward` runs, with nothing stacked.

    The record keeps each head's attention weights only if ``weights``;
    only the backward pass reads them, and a full list's are N x N per
    head.
    """
    x = np.asarray(x, dtype=np.float64)
    return _forward(x, params, plan, grid, _validate_forward(x, params, plan, grid, rope_cfg),
                    weights)


def stacked_forward(
    x: Array,
    params: SaladParams,
    plan: MaskPlan,
    grid: LatentGrid,
    rope_cfg: RopeConfig | None,
    name: str,
    values: Array,
) -> Array:
    """Run the block on S variants at once: ``values`` is an (S, *shape)
    stack of the input (``name`` "x") or of the parameter
    :meth:`SaladParams.param` calls ``name`` ("gate_b" as (S, 1)), and
    everything else is shared. Returns the (S, N, D) outputs only, and
    keeps no attention weights; element s has the bits
    :func:`salad_forward` gives its variant. ``x`` and ``params`` are
    validated once, not once per element.

    In the style of JAX's ``vmap``, the forward is written once and a value
    that varies carries the leading stack axis: a stacked operand makes a
    product tall or wide (:func:`stacked_matmul`), elementwise steps
    broadcast, and a head runs its whole stack at once
    (:func:`sparse_head_attention`). A value that does not depend on the
    stacked one is computed once, so a late parameter such as ``w_o``
    repeats only the last product.
    """
    x = np.asarray(x, dtype=np.float64)
    rope_cfg = _validate_forward(x, params, plan, grid, rope_cfg)
    if name != "x" and name not in params.param_names():
        raise ConfigError(f"unknown parameter {name!r}; expected x or one of {params.param_names()}")
    values = np.asarray(values, dtype=np.float64)
    base = x.shape if name == "x" else params.param(name).shape
    if values.shape[1:] != base or not len(values):
        raise DimensionError(f"stack of {name} has shape {values.shape}, expected (S, *{base})")
    if name == "x":
        x = values
    elif name == "gate_b":
        params = replace(params, gate_b=values[:, 0])
    else:
        params = params.with_param(name, values)
    out, _ = _forward(x, params, plan, grid, rope_cfg, False)
    return np.broadcast_to(out, (len(values), *out.shape[-2:]))


def _forward(x: Array, params: SaladParams, plan: MaskPlan, grid: LatentGrid,
             rope_cfg: RopeConfig, weights: bool) -> tuple[Array, BlockTrace]:
    """The block on validated inputs, any of which may carry a leading
    stack axis (see :func:`stacked_forward`); the record of such a stack
    holds None for each head whose attention ran stacked, and only
    :func:`stacked_forward`, which drops it, sees it."""
    pr = project(x, params, grid, rope_cfg)
    # A head's output carries the stack axis when any of its inputs does.
    o_s = np.zeros(max(pr.q.shape, pr.k.shape, pr.v.shape, key=len))
    o_l = None if params.dropped else np.zeros(
        max(pr.q_lin.shape, pr.k_lin.shape, pr.v_lin.shape, key=len))
    heads = []
    linear: list[LinearState] | None = None if o_l is None else []

    for head, s in enumerate(head_slices(params.channels, grid.heads)):
        o_s[..., s], info = sparse_head_attention(pr.q[..., s], pr.k[..., s], pr.v[..., s],
                                                  plan[head], grid, weights)
        if o_l is not None:
            o_l[..., s], state = linear_attention_streaming(pr.q_lin[..., s], pr.k_lin[..., s],
                                                            pr.v_lin[..., s])
            linear.append(state)
        heads.append(info)

    gate, gate_pre = compute_gate(x, params.gate_w, params.gate_b, params.gate_activation,
                                  params.gate_constant, return_pre=True)
    if params.dropped:
        gate_applied = proj_out = None
        fused = o_s
    else:
        gate_applied = params.lambda_override if params.lambda_override is not None else gate
        proj_out = stacked_matmul(o_l, params.proj)
        scale = gate_applied if np.ndim(gate_applied) == 0 else gate_applied[:, None, None]
        fused = o_s + scale * proj_out
    trace = BlockTrace(o_s, o_l, gate, gate_pre, gate_applied, fused, proj_out, pr, tuple(heads),
                       linear)
    return stacked_matmul(fused, pr.wo), trace


def write_pgm(mat: Array, path: Path) -> None:
    """8-bit binary PGM with each row scaled by its own maximum."""
    mat = np.asarray(mat, dtype=np.float64)
    row_max = mat.max(axis=1)
    safe = np.where(row_max > 0, row_max, 1.0)
    pixels = np.clip(np.rint(255.0 * mat / safe[:, None]), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{mat.shape[1]} {mat.shape[0]}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def export_attention_maps(x: Array, params: SaladParams, plan: MaskPlan, grid: LatentGrid,
                          rope_cfg: RopeConfig | None, head: int,
                          out_prefix: str | Path) -> list[Path]:
    """Write one head's sparse and linear maps as CSV plus 8-bit PGM.

    The head is run again on ``x``, keeping its attention weights, and the
    linear branch is projected even where ``params`` drops it. CSV keeps
    full precision; the PGM scales each row by its maximum.
    """
    x = np.asarray(x, dtype=np.float64)
    rope_cfg = _validate_forward(x, params, plan, grid, rope_cfg)
    if not 0 <= head < grid.heads:
        raise ConfigError(f"head {head} out of range for {grid.heads} heads")
    pr = project(x, replace(params, dropped=False), grid, rope_cfg)
    s = head_slices(params.channels, grid.heads)[head]
    _, info = sparse_head_attention(pr.q[:, s], pr.k[:, s], pr.v[:, s], plan[head], grid)
    linear = linear_attention_map(pr.q_lin[:, s], pr.k_lin[:, s])
    prefix = Path(out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    written = []
    for kind, mat in (("sparse", info.keys.to_dense(info.weights)), ("linear", linear)):
        csv_path = prefix.with_name(f"{prefix.name}_{kind}_h{head}.csv")
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in mat:
                writer.writerow([repr(float(val)) for val in row])
        pgm_path = prefix.with_name(f"{prefix.name}_{kind}_h{head}.pgm")
        write_pgm(mat, pgm_path)
        written += [csv_path, pgm_path]
    return written
