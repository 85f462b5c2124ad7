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
    RopeConfig,
    linear_attention_map,
    linear_attention_streaming,
    rope3d_apply,
)
from .masking import HeadAttention, LatentGrid, MaskPlan, sparse_head_attention
from .numerics import Array, matmul, relu, sigmoid, tanh

_ACTIVATIONS = {"sigmoid": sigmoid, "tanh": tanh, "relu": relu}
GATE_ACTIVATIONS = (*_ACTIVATIONS, "constant")
VARIANTS = ("shared", "non_shared")


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
    update's rank is at most the adapter rank.
    """
    w = np.asarray(w, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[1] != w.shape[0] or b.shape[0] != w.shape[1] or a.shape[0] != b.shape[1]:
        raise DimensionError(f"lora shapes a={a.shape} b={b.shape} do not fit weight {w.shape}")
    return w + scale * matmul(b, a).T


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


def gate_pre_activations(x: Array, gate_w: Array, gate_b: float) -> Array:
    """Per-token affine gate inputs x_i . gate_w + gate_b, shape (N,)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(gate_w, dtype=np.float64).reshape(-1)
    return matmul(x, w[:, None])[:, 0] + gate_b


def compute_gate(
    x: Array,
    gate_w: Array,
    gate_b: float,
    activation: str = "sigmoid",
    constant: float = 0.5,
) -> float:
    """Scalar gate: token mean of the activated per-token projections.

    With ``constant`` activation the input is ignored and the fixed value
    is returned, which turns the fused output into an affine function of
    that value.
    """
    if activation == "constant":
        return float(constant)
    if activation not in _ACTIVATIONS:
        raise ConfigError(f"unknown gate activation {activation!r}")
    u = gate_pre_activations(x, gate_w, gate_b)
    return float(np.mean(_ACTIVATIONS[activation](u)))


@dataclass
class Projection:
    """The projection stage of one forward pass: merged weights plus the
    rotated queries and keys and the values, all heads side by side.

    ``q_lin``/``k_lin``/``v_lin`` feed the linear branch; in the shared
    variant they are the same arrays as ``q``/``k``/``v``. ``rope_cfg`` is
    the rotation that was applied, kept so the backward pass can undo it.
    """

    wq: Array
    wk: Array
    wv: Array
    wo: Array
    q: Array
    k: Array
    v: Array
    q_lin: Array
    k_lin: Array
    v_lin: Array
    rope_cfg: RopeConfig


def project(x: Array, params: SaladParams, grid: LatentGrid, rope_cfg: RopeConfig) -> Projection:
    """Merge adapters, project X to Q/K/V, and rotate every head of Q and K."""
    wq, wk, wv, wo = (merged_weight(params, m) for m in ("q", "k", "v", "o"))
    q = rope3d_apply(matmul(x, wq), grid, rope_cfg)
    k = rope3d_apply(matmul(x, wk), grid, rope_cfg)
    v = matmul(x, wv)
    if params.variant == "non_shared":
        q_lin = rope3d_apply(matmul(x, params.w_q_lin), grid, rope_cfg)
        k_lin = rope3d_apply(matmul(x, params.w_k_lin), grid, rope_cfg)
        v_lin = matmul(x, params.w_v_lin)
    else:
        q_lin, k_lin, v_lin = q, k, v
    return Projection(wq, wk, wv, wo, q, k, v, q_lin, k_lin, v_lin, rope_cfg)


@dataclass
class BlockTrace:
    """The record of one forward pass: everything the hand-derived backward
    pass, rank analysis and attention-map export read.

    ``gate`` is the scalar the gate path computed; ``gate_applied`` is the
    value that actually scaled the linear branch. ``o_l``,
    ``gate_applied`` and the branch projection output ``proj_out`` are
    None when the branch is dropped. ``projection`` is the projection
    stage, and ``heads`` holds per head its :class:`HeadAttention` (the
    weights of the attended pairs only; for reordered heads in permuted
    order, where the band structure is visible).
    """

    o_s: Array
    o_l: Array | None
    gate: float
    gate_applied: float | None
    fused: Array
    proj_out: Array | None
    projection: Projection
    heads: list[HeadAttention]

    @property
    def attended_pairs(self) -> list[int]:
        return [info.keys.pairs for info in self.heads]


def head_slices(channels: int, heads: int) -> list[slice]:
    d = channels // heads
    return [slice(h * d, (h + 1) * d) for h in range(heads)]


def salad_forward(
    x: Array,
    params: SaladParams,
    plan: MaskPlan,
    grid: LatentGrid,
    rope_cfg: RopeConfig | None = None,
) -> tuple[Array, BlockTrace]:
    """Run the block on one sequence; returns (output, record)."""
    x = np.asarray(x, dtype=np.float64)
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

    pr = project(x, params, grid, rope_cfg)
    o_s = np.zeros_like(pr.q)
    o_l = np.zeros_like(pr.q)
    heads: list[HeadAttention] = []

    for head, s in enumerate(head_slices(params.channels, grid.heads)):
        o_s[:, s], info = sparse_head_attention(pr.q[:, s], pr.k[:, s], pr.v[:, s], plan[head], grid)
        o_l[:, s] = linear_attention_streaming(pr.q_lin[:, s], pr.k_lin[:, s], pr.v_lin[:, s])
        heads.append(info)

    gate = compute_gate(x, params.gate_w, params.gate_b,
                        params.gate_activation, params.gate_constant)
    if params.dropped:
        o_l = gate_applied = proj_out = None
        fused = o_s
    else:
        gate_applied = params.lambda_override if params.lambda_override is not None else gate
        proj_out = matmul(o_l, params.proj)
        fused = o_s + gate_applied * proj_out
    trace = BlockTrace(o_s, o_l, gate, gate_applied, fused, proj_out, pr, heads)
    return matmul(fused, pr.wo), trace


def write_pgm(mat: Array, path: Path) -> None:
    """8-bit binary PGM with each row scaled by its own maximum."""
    mat = np.asarray(mat, dtype=np.float64)
    row_max = mat.max(axis=1)
    safe = np.where(row_max > 0, row_max, 1.0)
    pixels = np.clip(np.rint(255.0 * mat / safe[:, None]), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{mat.shape[1]} {mat.shape[0]}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def export_attention_maps(trace: BlockTrace, head: int, out_prefix: str | Path) -> list[Path]:
    """Write one head's sparse and linear maps as CSV plus 8-bit PGM.

    CSV keeps full precision; the PGM scales each row by its maximum.
    """
    pr = trace.projection
    if not 0 <= head < len(trace.heads):
        raise ConfigError(f"head {head} out of range for {len(trace.heads)} recorded heads")
    s = head_slices(pr.q.shape[1], len(trace.heads))[head]
    linear = linear_attention_map(pr.q_lin[:, s], pr.k_lin[:, s])
    prefix = Path(out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    written = []
    for kind, mat in (("sparse", trace.heads[head].dense_weights()), ("linear", linear)):
        csv_path = prefix.with_name(f"{prefix.name}_{kind}_h{head}.csv")
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in mat:
                writer.writerow([repr(float(val)) for val in row])
        pgm_path = prefix.with_name(f"{prefix.name}_{kind}_h{head}.pgm")
        write_pgm(mat, pgm_path)
        written += [csv_path, pgm_path]
    return written


def sparse_only_params(params: SaladParams) -> SaladParams:
    """Copy of ``params`` with the linear branch removed."""
    return replace(params, dropped=True)
