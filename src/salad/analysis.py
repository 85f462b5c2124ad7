"""Gate statistics, branch-drop planning, rank comparison, and the
attention-FLOP speedup model.

The speedup estimate is an attention-only cost model (documented in each
report), not a wall-clock prediction: it compares full-attention FLOPs
against the masked pairs plus, for layers that keep the branch, the
linear branch, its projection, and the gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .block import BlockTrace, head_slices
from .errors import ConfigError, DataError
from .linear_attention import linear_branch_flops
from .masking import LatentGrid, MaskPlan, head_sparsity_stats
from .numerics import Array, Rng, numerical_rank
from .tensor_io import record_from_dict

DEFAULT_PERCENTILES = (0.2, 0.4, 0.6, 0.8)

#: Gate scalars outside this band are flagged as atypical (informational;
#: deployed gates usually sit well inside it).
GATE_TYPICAL_BAND = (0.05, 0.6)

FLOP_CONVENTION = (
    "1 multiply-add = 2 FLOPs; attention scores + weighted sum = 4*pairs*head_dim; "
    "linear branch = 4*N*d^2 + 2*N*d per head; branch projection = 2*N*H^2; gate = 2*N*D. "
    "Attention-only model: the shared Q/K/V/O projections cancel and are excluded."
)


@dataclass(frozen=True)
class GateRecord:
    """One gate scalar observed at (layer, timestep)."""

    layer: int
    timestep: int
    gate: float


def percentile(sorted_values: Array, q: float) -> float:
    """Inclusive linear-interpolation percentile of pre-sorted values.

    The q-th percentile sits at fractional position q * (n - 1) between
    order statistics.
    """
    if sorted_values.size == 0:
        raise DataError("cannot take a percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    pos = q * (sorted_values.size - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, sorted_values.size - 1)
    frac = pos - lo
    return float(sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * frac)


def gate_percentiles(
    records: Sequence[GateRecord],
    qs: Sequence[float] = DEFAULT_PERCENTILES,
) -> dict:
    """Per-timestep percentiles over the layer population, plus their
    time averages.

    Returns {"qs": [...], "per_timestep": [{"timestep": t, "values": [...]}, ...],
    "time_averaged": [...]}. Every referenced timestep must contribute at
    least one record.
    """
    if not records:
        raise DataError("no gate records")
    by_t: dict[int, list[float]] = {}
    for r in records:
        by_t.setdefault(r.timestep, []).append(r.gate)
    table = []
    for t in sorted(by_t):
        vals = np.sort(np.asarray(by_t[t], dtype=np.float64))
        table.append({"timestep": t, "values": [percentile(vals, q) for q in qs]})
    averaged = [float(np.mean([row["values"][i] for row in table])) for i in range(len(qs))]
    return {"qs": list(qs), "per_timestep": table, "time_averaged": averaged}


def atypical_gates(
    records: Sequence[GateRecord],
    band: tuple[float, float] = GATE_TYPICAL_BAND,
) -> list[GateRecord]:
    lo, hi = band
    return [r for r in records if not lo <= r.gate <= hi]


def layer_mean_gates(records: Sequence[GateRecord]) -> dict[int, float]:
    by_layer: dict[int, list[float]] = {}
    for r in records:
        by_layer.setdefault(r.layer, []).append(r.gate)
    return {layer: float(np.mean(vals)) for layer, vals in sorted(by_layer.items())}


@dataclass(frozen=True)
class DropPlan:
    strategy: str
    params: dict
    dropped_layers: tuple[int, ...]
    preferred: bool
    note: str

    def __post_init__(self):
        object.__setattr__(self, "dropped_layers", tuple(self.dropped_layers))


def plan_branch_drop(
    records: Sequence[GateRecord],
    strategy: str,
    lo: float = 0.8,
    hi: float = 1.0,
    fraction: float = 0.2,
    tau: float = 0.1,
    seed: int = 0,
) -> DropPlan:
    """Choose the layers whose linear branch gets removed at inference.

    Strategies work on the time-averaged gate per layer:

    - ``interval(lo, hi)``: rank layers by mean gate ascending (ties by
      layer index) and drop ranks in [floor(lo*L), floor(hi*L)). The
      (0.8, 1.0) interval - drop the top-20%-gate layers - is the
      recommended operating point.
    - ``random(fraction, seed)``: seeded uniform choice without
      replacement of round(fraction * L) layers.
    - ``threshold(tau)``: drop layers with mean gate < tau.
    """
    means = layer_mean_gates(records)
    if not means:
        raise DataError("no gate records")
    layers = sorted(means)
    n = len(layers)
    if strategy == "interval":
        if not 0.0 <= lo <= hi <= 1.0:
            raise ConfigError(f"interval bounds must satisfy 0 <= lo <= hi <= 1, got ({lo}, {hi})")
        order = sorted(layers, key=lambda l: (means[l], l))
        start, stop = int(math.floor(lo * n)), int(math.floor(hi * n))
        dropped = tuple(sorted(order[start:stop]))
        preferred = (lo, hi) == (0.8, 1.0)
        note = "drops the top-20%-mean-gate layers; recommended operating point" if preferred \
            else f"drops layers with mean-gate rank in [{lo:.0%}, {hi:.0%})"
    elif strategy == "random":
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(f"fraction must be in [0, 1], got {fraction}")
        count = int(round(fraction * n))
        perm = Rng(seed).permutation(n)
        dropped = tuple(sorted(layers[i] for i in perm[:count]))
        preferred = False
        note = f"drops {count} of {n} layers chosen uniformly at random"
    elif strategy == "threshold":
        dropped = tuple(l for l in layers if means[l] < tau)
        preferred = False
        note = f"drops layers whose mean gate falls below {tau}"
    else:
        raise ConfigError(f"unknown drop strategy {strategy!r}")
    params: dict = {"interval": {"lo": lo, "hi": hi},
                    "random": {"fraction": fraction, "seed": seed},
                    "threshold": {"tau": tau}}[strategy]
    return DropPlan(strategy=strategy, params=params, dropped_layers=dropped,
                    preferred=preferred, note=note)


# ---------------------------------------------------------------------------
# Rank comparison


def branch_rank_analysis(
    traces: Sequence[tuple[int, BlockTrace]],
    grid: LatentGrid,
    rel_tol: float = 1e-6,
) -> list[dict]:
    """Numerical rank of each branch output, per head, per traced layer.

    The linear branch factors through a d x d state, so its per-head rank
    is provably at most the head dimension; the sparse branch usually sits
    much higher. Only the provable bound is asserted.
    """
    out = []
    for layer, trace in traces:
        for head, s in enumerate(head_slices(grid.channels, grid.heads)):
            rank_s = numerical_rank(trace.o_s[:, s], rel_tol)
            rank_l = None
            if trace.o_l is not None:
                rank_l = numerical_rank(trace.o_l[:, s], rel_tol)
                if rank_l > grid.head_dim:
                    raise AssertionError(
                        f"linear branch rank {rank_l} exceeds head_dim {grid.head_dim}"
                    )
            out.append({"layer": layer, "head": head, "rank_sparse": rank_s,
                        "rank_linear": rank_l, "head_dim": grid.head_dim})
    return out


# ---------------------------------------------------------------------------
# FLOP model


def layer_method_flops(
    per_head_attended: Sequence[int],
    grid: LatentGrid,
    include_linear: bool,
    dropped: bool,
) -> dict:
    """FLOP breakdown of one layer under the convention above."""
    n, d = grid.seq_len, grid.head_dim
    h = grid.channels
    d_model = h  # blocks are built with matching model width
    sparse = sum(4 * a * d for a in per_head_attended)
    branch_on = include_linear and not dropped
    linear = grid.heads * linear_branch_flops(n, d) if branch_on else 0
    proj = 2 * n * h * h if branch_on else 0
    gate = 2 * n * d_model if branch_on else 0
    return {"sparse": sparse, "linear": linear, "proj": proj, "gate": gate,
            "total": sparse + linear + proj + gate, "dropped": dropped}


def flops_after_drop(layer_rows: Sequence[dict], dropped_layers: set[int], grid: LatentGrid) -> float:
    """Method FLOPs of a run's per-layer rows once the linear branch of
    every layer in ``dropped_layers`` is removed.

    Each row keeps its sparse FLOPs; surviving layers add one branch,
    priced by :func:`layer_method_flops` with no attended pairs.
    """
    branch = layer_method_flops((), grid, include_linear=True, dropped=False)["total"]
    return sum(row["sparse"] + (0 if row["layer"] in dropped_layers else branch)
               for row in layer_rows)


def estimate_speedup(
    plan: MaskPlan,
    grid: LatentGrid,
    include_linear: bool = True,
    dropped_layers: Sequence[int] = (),
    total_layers: int = 1,
    per_layer_attended: Sequence[Sequence[int]] | None = None,
) -> float:
    """Full-attention FLOPs divided by the hybrid method's FLOPs.

    ``per_layer_attended`` supplies measured pair counts per layer and
    head; without it every layer uses the plan's static counts. Increasing
    sparsity or dropping more branches never lowers the estimate.
    """
    n, d = grid.seq_len, grid.head_dim
    full = total_layers * grid.heads * 4 * n * n * d
    if per_layer_attended is None:
        static = [head_sparsity_stats(e, grid).attended_pairs for e in plan.entries]
        per_layer_attended = [static] * total_layers
    dropped = set(dropped_layers)
    method = 0
    for layer in range(total_layers):
        method += layer_method_flops(
            per_layer_attended[layer], grid, include_linear, layer in dropped
        )["total"]
    return full / method


# ---------------------------------------------------------------------------
# Run report


@dataclass
class RunReport:
    """Everything one run produces, serializable to a stable JSON document.

    Top-level keys of the document are fixed: config, sparsity, flops,
    speedup_estimate, gates, drop_plan, ranks, gradcheck, oracle_checks,
    plus an optional timestamp.
    """

    config: dict
    sparsity: dict
    flops: dict
    speedup_estimate: float
    gates: dict
    drop_plan: dict | None
    ranks: list[dict]
    gradcheck: dict
    oracle_checks: list[dict]
    timestamp: str | None = None

    def gate_records(self) -> list[GateRecord]:
        return [record_from_dict(GateRecord, d) for d in self.gates["records"]]
