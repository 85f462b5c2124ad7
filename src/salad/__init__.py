"""Hybrid sparse + gated linear attention: a desk-scale float64 reference
implementation with calibration, gradient checking, and cost accounting."""

from .analysis import (
    GateRecord,
    RunReport,
    SparsityStats,
    estimate_speedup,
    gate_percentiles,
    plan_branch_drop,
)
from .block import (
    BlockTrace,
    SaladParams,
    added_param_count,
    compute_gate,
    lora_apply,
    salad_forward,
)
from .gradients import GradCheckReport, gradcheck_salad, salad_loss_grads
from .linear_attention import (
    RopeConfig,
    linear_attention_streaming,
    rope3d_apply,
)
from .masking import (
    Explicit,
    LatentGrid,
    MaskPlan,
    TopK,
    Window,
    calibrate_window,
    st_reorder_permutation,
)
from .numerics import Rng, matmul, numerical_rank

__version__ = "0.1.0"

__all__ = [
    "BlockTrace",
    "Explicit",
    "GateRecord",
    "GradCheckReport",
    "LatentGrid",
    "MaskPlan",
    "Rng",
    "RopeConfig",
    "RunReport",
    "SaladParams",
    "SparsityStats",
    "TopK",
    "Window",
    "added_param_count",
    "calibrate_window",
    "compute_gate",
    "estimate_speedup",
    "gate_percentiles",
    "gradcheck_salad",
    "linear_attention_streaming",
    "lora_apply",
    "matmul",
    "numerical_rank",
    "plan_branch_drop",
    "rope3d_apply",
    "salad_forward",
    "salad_loss_grads",
    "st_reorder_permutation",
]
