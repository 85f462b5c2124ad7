"""Gate statistics, branch-drop planning, rank comparison, and the cost
ledger: sparsity accounting and the attention-FLOP speedup model.

The speedup estimate is an attention-only cost model (documented in each
report), not a wall-clock prediction: it compares full-attention FLOPs
against the masked pairs plus, for layers that keep the branch, the
linear branch, its projection, and the gate. Every run, static plan and
drop plan is priced by :func:`price_run` and :func:`price_drop`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, NamedTuple, Sequence

import numpy as np

from .block import head_slices
from .errors import ConfigError, DataError, NumericError
from .masking import HeadPlan, LatentGrid, MaskPlan, TopK, Window, head_keys, window_attended_pairs
from .numerics import DEFAULT_RANK_REL_TOL, Array, Rng, numerical_rank
from .tensor_io import check_json, record_from_dict, record_to_dict, refuse_unknown_keys

DEFAULT_PERCENTILES = (0.2, 0.4, 0.6, 0.8)

#: Gate scalars outside this band are flagged as atypical (informational;
#: deployed gates usually sit well inside it).
GATE_TYPICAL_BAND = (0.05, 0.6)

#: Each branch-drop strategy's parameters with their defaults, in record
#: order. ``interval`` at its defaults, which drops the layers with the
#: top 20% of mean gates, is the recommended operating point.
DROP_STRATEGIES = {
    "interval": {"lo": 0.8, "hi": 1.0},
    "random": {"fraction": 0.2, "seed": 0},
    "threshold": {"tau": 0.1},
}

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


def gate_percentiles(records: Sequence[GateRecord]) -> dict:
    """Per-timestep :data:`DEFAULT_PERCENTILES` over the layer population,
    plus their time averages.

    Returns {"qs": [...], "per_timestep": [{"timestep": t, "values": [...]}, ...],
    "time_averaged": [...]}. Every referenced timestep must contribute at
    least one record.
    """
    if not records:
        raise DataError("no gate records")
    qs = DEFAULT_PERCENTILES
    by_t: dict[int, list[float]] = {}
    for r in records:
        by_t.setdefault(r.timestep, []).append(r.gate)
    table = []
    for t in sorted(by_t):
        vals = np.sort(np.asarray(by_t[t], dtype=np.float64))
        table.append({"timestep": t, "values": [percentile(vals, q) for q in qs]})
    averaged = [float(np.mean([row["values"][i] for row in table])) for i in range(len(qs))]
    return {"qs": list(qs), "per_timestep": table, "time_averaged": averaged}


def atypical_gates(records: Sequence[GateRecord]) -> list[GateRecord]:
    lo, hi = GATE_TYPICAL_BAND
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


def check_drop_params(strategy: str, params: dict, where: str = "drop") -> dict:
    """``params`` over the :data:`DROP_STRATEGIES` defaults of ``strategy``.

    An unknown strategy or key, a value not of its default's type, interval
    bounds outside 0 <= lo <= hi <= 1, a fraction outside [0, 1] or a seed
    outside [0, 2**64) raises :class:`ConfigError` naming ``where``.
    """
    if strategy not in DROP_STRATEGIES:
        raise ConfigError(f"{where}.strategy must be one of {tuple(DROP_STRATEGIES)}, got {strategy!r}")
    defaults = DROP_STRATEGIES[strategy]
    refuse_unknown_keys(params, defaults, f"{where}.")
    check_json(params, {key: type(defaults[key]) for key in params}, where)
    params = {**defaults, **params}
    if strategy == "interval" and not 0.0 <= params["lo"] <= params["hi"] <= 1.0:
        raise ConfigError(f"{where}.lo and {where}.hi must satisfy 0 <= lo <= hi <= 1, "
                          f"got ({params['lo']}, {params['hi']})")
    if strategy == "random" and not 0.0 <= params["fraction"] <= 1.0:
        raise ConfigError(f"{where}.fraction must be in [0, 1], got {params['fraction']}")
    if strategy == "random" and not 0 <= params["seed"] < 2**64:
        raise ConfigError(f"{where}.seed must be a 64-bit unsigned integer, got {params['seed']}")
    return params


def plan_branch_drop(records: Sequence[GateRecord], strategy: str, **params) -> DropPlan:
    """Choose the layers whose linear branch gets removed at inference.

    ``params`` override the strategy's :data:`DROP_STRATEGIES` defaults
    (:func:`check_drop_params`). Strategies work on the time-averaged gate
    per layer:

    - ``interval(lo, hi)``: rank layers by mean gate ascending (ties by
      layer index) and drop ranks in [floor(lo*L), floor(hi*L)).
    - ``random(fraction, seed)``: seeded uniform choice without
      replacement of round(fraction * L) layers.
    - ``threshold(tau)``: drop layers with mean gate < tau.
    """
    params = check_drop_params(strategy, params)
    means = layer_mean_gates(records)
    if not means:
        raise DataError("no gate records")
    layers = sorted(means)
    n = len(layers)
    preferred = strategy == "interval" and params == DROP_STRATEGIES["interval"]
    if strategy == "interval":
        lo, hi = params["lo"], params["hi"]
        order = sorted(layers, key=lambda l: (means[l], l))
        dropped = tuple(sorted(order[int(math.floor(lo * n)):int(math.floor(hi * n))]))
        note = "drops the top-20%-mean-gate layers; recommended operating point" if preferred \
            else f"drops layers with mean-gate rank in [{lo:.0%}, {hi:.0%})"
    elif strategy == "random":
        count = int(round(params["fraction"] * n))
        perm = Rng(params["seed"]).permutation(n)
        dropped = tuple(sorted(layers[i] for i in perm[:count]))
        note = f"drops {count} of {n} layers chosen uniformly at random"
    else:
        dropped = tuple(l for l in layers if means[l] < params["tau"])
        note = f"drops layers whose mean gate falls below {params['tau']}"
    return DropPlan(strategy=strategy, params=params, dropped_layers=dropped,
                    preferred=preferred, note=note)


# ---------------------------------------------------------------------------
# Rank comparison


class BranchOutputs(NamedTuple):
    """The two branch outputs of one forward, all of its record that
    :func:`branch_rank_analysis` reads (a forward's ``BlockTrace`` carries
    the same two fields)."""

    o_s: Array
    o_l: Array | None


def branch_rank_analysis(
    traces: Sequence[tuple[int, BranchOutputs]],
    grid: LatentGrid,
    rel_tol: float = DEFAULT_RANK_REL_TOL,
) -> list[dict]:
    """Numerical rank of each branch output, per head, per traced layer.

    The linear branch factors through a d x d state, so its per-head rank
    is provably at most the head dimension; the sparse branch usually sits
    much higher. Every operand (each head's sparse output, and its linear
    output where the branch ran) is solved in one stacked
    :func:`numerical_rank` call. When that raises :class:`NumericError`,
    the operands are solved again one at a time, in row order, and the
    error names the layer, head and branch of the first that fails.
    """
    rows, slots, operands = [], [], []
    for layer, trace in traces:
        for head, s in enumerate(head_slices(grid.channels, grid.heads)):
            row = {"layer": layer, "head": head, "rank_sparse": None, "rank_linear": None,
                   "head_dim": grid.head_dim}
            rows.append(row)
            for branch, out in (("sparse", trace.o_s), ("linear", trace.o_l)):
                if out is not None:
                    slots.append((row, branch))
                    operands.append(out[:, s])
    if not operands:
        return rows
    try:
        ranks = numerical_rank(operands, rel_tol)
    except NumericError:
        for (row, branch), x in zip(slots, operands):
            try:
                numerical_rank(x, rel_tol)
            except NumericError as exc:
                raise NumericError(f"layer {row['layer']}, head {row['head']}, {branch} branch: "
                                   f"{exc}") from None
        raise
    for (row, branch), rank in zip(slots, ranks.tolist()):
        row[f"rank_{branch}"] = rank
    return rows


# ---------------------------------------------------------------------------
# Cost ledger: sparsity accounting and the FLOP model


@dataclass(frozen=True)
class SparsityStats:
    """Pair counts and attention FLOPs for one head. ``attended_pairs`` is
    kept as given: one mask's count, or a run's mean over layers and timesteps."""

    attended_pairs: int | float
    total_pairs: int
    sparsity: float
    attn_flops_sparse: int | float
    attn_flops_full: int

    @staticmethod
    def from_pairs(attended: int | float, n: int, head_dim: int) -> "SparsityStats":
        total = n * n
        return SparsityStats(attended, total, 1.0 - attended / total, 4 * attended * head_dim,
                             4 * total * head_dim)


def head_sparsity_stats(entry: HeadPlan, grid: LatentGrid) -> SparsityStats:
    """Static pair counts for one head's plan entry.

    Window entries use the closed form (the ``window_counts`` check
    verifies it exhaustively); top-k entries use the static model of k
    full-size key blocks per query row; explicit entries count their mask.
    """
    n, d = grid.seq_len, grid.head_dim
    if isinstance(entry, Window):
        return SparsityStats.from_pairs(window_attended_pairs(n, entry.radius), n, d)
    if isinstance(entry, TopK):
        per_row = min(entry.k * entry.block_size, n)
        return SparsityStats.from_pairs(n * per_row, n, d)
    return SparsityStats.from_pairs(head_keys(entry, grid)[0].pairs, n, d)


def plan_sparsity_stats(plan: MaskPlan, grid: LatentGrid) -> tuple[list[SparsityStats], float]:
    """Static per-head stats plus the aggregate sparsity (mean over heads)."""
    if len(plan) != grid.heads:
        raise ConfigError(f"plan has {len(plan)} entries for {grid.heads} heads")
    stats = [head_sparsity_stats(entry, grid) for entry in plan.entries]
    return stats, float(np.mean([s.sparsity for s in stats]))


def linear_branch_flops(n: int, d: int) -> int:
    """FLOPs of one head's linear branch: 4*N*d^2 builds H and the per-query
    products against it; 2*N*d builds Z and the per-query normalizers."""
    return 4 * n * d * d + 2 * n * d


def layer_method_flops(per_head_attended: Sequence[int | float], grid: LatentGrid,
                       dropped: bool) -> dict:
    """FLOP breakdown of one layer: its attended pairs plus, unless the
    layer's branch is dropped, the linear branch, its projection and the
    gate."""
    n, d = grid.seq_len, grid.head_dim
    h = d_model = grid.channels  # blocks are built with matching model width
    sparse = sum(4 * a * d for a in per_head_attended)
    linear = 0 if dropped else grid.heads * linear_branch_flops(n, d)
    proj = 0 if dropped else 2 * n * h * h
    gate = 0 if dropped else 2 * n * d_model
    return {"sparse": sparse, "linear": linear, "proj": proj, "gate": gate,
            "total": sparse + linear + proj + gate, "dropped": dropped}


def price_run(attended: Array, grid: LatentGrid,
              dropped: Collection[int] = ()) -> tuple[dict, dict, float]:
    """Price a run's (layers, timesteps, heads) table of attended pairs.

    Returns the report's sparsity section (per-head records of the pairs
    averaged over layers and timesteps, and their mean sparsity), its flops
    section (one row per layer on its pairs averaged over timesteps, with
    the branch of every layer in ``dropped`` removed, plus the full and
    method totals), and the speedup estimate, full over method FLOPs."""
    attended = np.asarray(attended, dtype=np.float64)
    n, d = grid.seq_len, grid.head_dim
    per_head = [{"head": h, **record_to_dict(SparsityStats.from_pairs(float(mean), n, d))}
                for h, mean in enumerate(attended.mean(axis=(0, 1)))]
    aggregate = float(np.mean([rec["sparsity"] for rec in per_head]))
    rows = [{"layer": layer, **layer_method_flops(mean.tolist(), grid, layer in dropped)}
            for layer, mean in enumerate(attended.mean(axis=1))]
    full_total = attended.shape[0] * grid.heads * 4 * n * n * d
    method_total = sum(row["total"] for row in rows)
    flops = {"full_total": full_total, "method_total": method_total, "per_layer": rows,
             "convention": FLOP_CONVENTION}
    return {"per_head": per_head, "aggregate": aggregate}, flops, full_total / method_total


def price_drop(plan: DropPlan, flops: dict, grid: LatentGrid,
               dropped: Collection[int] = ()) -> dict:
    """A drop plan's record plus its speedup estimate over a run's flops
    section: every row keeps its sparse FLOPs, and every layer outside the
    plan's dropped layers and ``dropped`` adds one linear branch."""
    off = set(plan.dropped_layers) | set(dropped)
    branch = layer_method_flops((), grid, dropped=False)["total"]
    method = sum(row["sparse"] + (0 if row["layer"] in off else branch)
                 for row in flops["per_layer"])
    return {**record_to_dict(plan), "speedup_estimate": flops["full_total"] / method}


def estimate_speedup(plan: MaskPlan, grid: LatentGrid, include_linear: bool = True,
                     dropped_layers: Sequence[int] = (), total_layers: int = 1) -> float:
    """Full-attention FLOPs divided by the hybrid method's FLOPs, with
    every layer priced on the plan's static pair counts. Increasing
    sparsity or dropping more branches never lowers the estimate."""
    static = [head_sparsity_stats(e, grid).attended_pairs for e in plan.entries]
    dropped = set(dropped_layers) if include_linear else set(range(total_layers))
    return price_run(np.tile(static, (total_layers, 1, 1)), grid, dropped)[2]


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
