"""Run orchestration: forwards across layers and timesteps, inline
oracle checks, report assembly, and gate analysis over saved reports.

Everything is a pure function of (config, seed). With ``threads > 1``
the per-(layer, timestep) forwards run on a thread pool but land in
index order, so the report bytes match sequential execution exactly.
"""

from __future__ import annotations

import csv
import datetime as _dt
import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .analysis import (
    FLOP_CONVENTION,
    GateRecord,
    RunReport,
    atypical_gates,
    branch_rank_analysis,
    flops_after_drop,
    gate_percentiles,
    layer_method_flops,
    plan_branch_drop,
)
from .block import export_attention_maps, head_slices, project, salad_forward, sparse_only_params
from .config import RunConfig
from .errors import ConfigError, DataError
from .gradients import gradcheck_salad
from .masking import MaskPlan, calibrate_plan, invert_permutation, st_reorder_permutation
from .tensor_io import dumps_json, record_from_dict, record_to_dict
from .workload import Workload, generate_workload, load_workload

REPORT_NAME = "report.json"


def resolve_plan(cfg: RunConfig, workload: Workload) -> tuple[MaskPlan, list[dict] | None]:
    """The run's mask plan; calibration profiles on the first scaled input."""
    static = cfg.static_plan()
    if static is not None:
        return static, None
    grid = cfg.to_grid()
    rope_cfg = cfg.to_rope()
    sigma0 = cfg.sigma.schedule(cfg.timesteps)[0]
    x = workload.inputs[0, 0] * sigma0
    pr = project(x, workload.params[0], grid, rope_cfg)
    profiles = [[(pr.q[:, s], pr.k[:, s], pr.v[:, s])]
                for s in head_slices(grid.channels, grid.heads)]
    plan, results = calibrate_plan(
        profiles, cfg.mask.candidates, grid, cfg.mask.delta, cfg.mask.choose_reorder
    )
    return plan, [{"head": i, **record_to_dict(r)} for i, r in enumerate(results)]


def run_pipeline(cfg: RunConfig, out_dir: str | Path | None = None) -> RunReport:
    """Execute the configured run and assemble its report.

    When ``out_dir`` is given the report (and any requested attention
    maps) are written beneath it.
    """
    grid = cfg.to_grid()
    rope_cfg = cfg.to_rope()
    sigmas = cfg.sigma.schedule(cfg.timesteps)
    if cfg.workload_dir is not None:
        workload = load_workload(cfg.workload_dir, cfg)
    else:
        workload = generate_workload(cfg)
    if cfg.block.params_bundle is not None:
        from .tensor_io import read_params

        # One block everywhere.
        workload.params = [read_params(cfg.block.params_bundle, grid)] * cfg.layers
    plan, calibration = resolve_plan(cfg, workload)

    explicit_dropped = set(cfg.drop.layers or []) if cfg.drop.strategy == "explicit" else set()
    if cfg.block.dropped:
        explicit_dropped = set(range(cfg.layers))
    # Bundles may arrive with the branch already removed.
    explicit_dropped |= {i for i, p in enumerate(workload.params) if p.dropped}

    def one(layer: int, t: int):
        params = workload.params[layer]
        if layer in explicit_dropped and not params.dropped:
            params = sparse_only_params(params)
        x = workload.inputs[layer, t] * sigmas[t]
        keep = cfg.maps.export and layer == cfg.maps.layer and t == cfg.maps.timestep
        return salad_forward(x, params, plan, grid, rope_cfg, keep_intermediates=keep)

    tasks = [(layer, t) for layer in range(cfg.layers) for t in range(cfg.timesteps)]
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(lambda lt: one(*lt), tasks))
    else:
        results = [one(*lt) for lt in tasks]
    traces = {lt: trace for lt, (_, trace) in zip(tasks, results)}

    # Gate records and per-head attended-pair accounting.
    records = [GateRecord(layer, t, traces[(layer, t)].gate) for layer, t in tasks]
    n, d = grid.seq_len, grid.head_dim
    attended = np.array([[traces[(layer, t)].attended_pairs for t in range(cfg.timesteps)]
                         for layer in range(cfg.layers)], dtype=np.float64)
    per_head_mean = attended.mean(axis=(0, 1))  # (heads,)
    per_head = [
        {
            "head": h,
            "attended_pairs": float(per_head_mean[h]),
            "total_pairs": n * n,
            "sparsity": 1.0 - float(per_head_mean[h]) / (n * n),
            "attn_flops_sparse": 4.0 * float(per_head_mean[h]) * d,
            "attn_flops_full": 4 * n * n * d,
        }
        for h in range(grid.heads)
    ]
    aggregate = float(np.mean([rec["sparsity"] for rec in per_head]))

    # FLOP model over the layers as actually run.
    per_layer_attended = attended.mean(axis=1)  # (layers, heads)
    full_total = cfg.layers * grid.heads * 4 * n * n * d
    layer_rows = []
    method_total = 0.0
    for layer in range(cfg.layers):
        row = layer_method_flops(per_layer_attended[layer].tolist(), grid,
                                 include_linear=True, dropped=layer in explicit_dropped)
        row = {"layer": layer, **row}
        layer_rows.append(row)
        method_total += row["total"]
    speedup = full_total / method_total

    # Post-hoc branch-drop plan from this run's gates.
    drop_section = None
    if cfg.drop.strategy in ("interval", "random", "threshold"):
        plan_drop = plan_branch_drop(
            records, cfg.drop.strategy, lo=cfg.drop.lo, hi=cfg.drop.hi,
            fraction=cfg.drop.fraction, tau=cfg.drop.tau,
            seed=cfg.drop.seed if cfg.drop.seed is not None else cfg.seed,
        )
        method_after = flops_after_drop(layer_rows, set(plan_drop.dropped_layers) | explicit_dropped,
                                        grid)
        drop_section = record_to_dict(plan_drop)
        drop_section["speedup_estimate"] = full_total / method_after
    elif explicit_dropped:
        drop_section = {
            "strategy": "explicit",
            "params": {"layers": sorted(explicit_dropped)},
            "dropped_layers": sorted(explicit_dropped),
            "preferred": False,
            "note": "layers dropped by explicit config",
            "speedup_estimate": speedup,
        }

    # Branch output ranks on the sampled layers.
    rank_layers = cfg.analysis.rank_layers if cfg.analysis.rank_layers is not None \
        else list(range(cfg.layers))
    rt = cfg.analysis.rank_timestep
    ranks = branch_rank_analysis(
        [(layer, traces[(layer, rt)]) for layer in rank_layers], grid, cfg.analysis.rank_rel_tol
    )

    oracle_checks = _inline_checks(cfg, workload, plan, grid, rope_cfg, sigmas, traces)

    gradcheck_section: dict = {"run": False, "all_passed": None, "reports": []}
    if cfg.checks.gradcheck_in_run:
        if n > 64 or d > 16:
            gradcheck_section = {"run": False, "all_passed": None, "reports": [],
                                 "note": f"skipped: N={n}, head_dim={d} exceeds the N<=64, d<=16 budget"}
        else:
            x0 = workload.inputs[0, 0] * sigmas[0]
            reports = gradcheck_salad(x0, workload.params[0], plan, grid, rope_cfg)
            gradcheck_section = {
                "run": True,
                "all_passed": all(r.passed for r in reports),
                "reports": [record_to_dict(r) for r in reports],
            }

    gates_section = {
        "records": [record_to_dict(r) for r in records],
        "percentiles": gate_percentiles(records),
        "atypical": [record_to_dict(r) for r in atypical_gates(records)],
    }

    report = RunReport(
        config=cfg.semantic_dict(),
        sparsity={"per_head": per_head, "aggregate": aggregate,
                  "calibration": calibration},
        flops={"full_total": full_total, "method_total": method_total,
               "per_layer": layer_rows, "convention": FLOP_CONVENTION},
        speedup_estimate=speedup,
        gates=gates_section,
        drop_plan=drop_section,
        ranks=ranks,
        gradcheck=gradcheck_section,
        oracle_checks=oracle_checks,
        timestamp=_dt.datetime.now(_dt.timezone.utc).isoformat() if cfg.timestamp else None,
    )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / REPORT_NAME).write_text(dumps_json(record_to_dict(report)))
        if cfg.maps.export:
            trace = traces[(cfg.maps.layer, cfg.maps.timestep)]
            export_attention_maps(trace, cfg.maps.head,
                                  out / "maps" / f"l{cfg.maps.layer}_t{cfg.maps.timestep}")
    return report


def _inline_checks(cfg, workload, plan, grid, rope_cfg, sigmas, traces) -> list[dict]:
    """Cheap oracle checks recorded into every run report."""
    checks = []

    perm = st_reorder_permutation(grid)
    roundtrip = perm[invert_permutation(perm)]
    checks.append({
        "name": "permutation_roundtrip",
        "passed": bool(np.array_equal(roundtrip, np.arange(grid.seq_len))),
        "max_err": 0.0,
        "detail": "reorder followed by its inverse is the identity",
    })

    params0 = workload.params[0]
    zero_proj = not params0.dropped and not np.any(params0.proj)
    if zero_proj:
        x = workload.inputs[0, 0] * sigmas[0]
        full, _ = salad_forward(x, params0, plan, grid, rope_cfg)
        sparse_only, _ = salad_forward(x, sparse_only_params(params0), plan, grid, rope_cfg)
        err = float(np.max(np.abs(full - sparse_only)))
        checks.append({
            "name": "zero_init_equivalence",
            "passed": err <= 1e-12,
            "max_err": err,
            "detail": "zero branch projection collapses the block onto the sparse-only path",
        })
    else:
        checks.append({
            "name": "zero_init_equivalence",
            "passed": None,
            "max_err": None,
            "detail": "not applicable: branch projection is nonzero or branch dropped",
        })
    return checks


# ---------------------------------------------------------------------------
# Gate analysis over saved reports


def load_report(path: str | Path) -> RunReport:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"report {path} is not valid JSON: {exc}") from None
    try:
        return record_from_dict(RunReport, doc)
    except KeyError as exc:
        raise ConfigError(f"report {path} is missing key {exc}") from None


DEFAULT_STRATEGIES = (
    {"strategy": "interval", "lo": 0.8, "hi": 1.0},
    {"strategy": "random", "fraction": 0.2},
    {"strategy": "threshold", "tau": 0.1},
)


def analyze_reports(cfg: RunConfig, report_paths: list[str | Path],
                    out_dir: str | Path) -> dict:
    """Percentile tables, drop plans per strategy, and re-estimated
    speedups from one or more saved run reports."""
    if not report_paths:
        raise DataError("analyze needs at least one report with gate records")
    reports = [load_report(p) for p in report_paths]
    records: list[GateRecord] = []
    for rep in reports:
        records.extend(rep.gate_records())
    if not records:
        raise DataError("loaded reports carry no gate records")

    base = reports[0]
    from .config import config_from_dict

    base_cfg = config_from_dict(base.config)
    grid = base_cfg.to_grid()
    full_total = base.flops["full_total"]
    layer_rows = base.flops["per_layer"]

    strategies = cfg.analysis.strategies if cfg.analysis.strategies is not None \
        else [dict(s) for s in DEFAULT_STRATEGIES]
    plans = []
    for spec_ in strategies:
        kwargs = {k: v for k, v in spec_.items() if k != "strategy"}
        if spec_["strategy"] == "random" and "seed" not in kwargs:
            kwargs["seed"] = cfg.seed
        plan = plan_branch_drop(records, spec_["strategy"], **kwargs)
        doc = record_to_dict(plan)
        doc["speedup_estimate"] = full_total / flops_after_drop(layer_rows, set(plan.dropped_layers),
                                                                grid)
        plans.append(doc)

    percentiles = gate_percentiles(records)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "gates.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "timestep", "gate"])
        for r in records:
            writer.writerow([r.layer, r.timestep, repr(r.gate)])

    with open(out / "percentiles.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestep"] + [f"q{int(q * 100)}" for q in percentiles["qs"]])
        for row in percentiles["per_timestep"]:
            writer.writerow([row["timestep"]] + [repr(v) for v in row["values"]])
        writer.writerow(["time_averaged"] + [repr(v) for v in percentiles["time_averaged"]])

    summary = {
        "reports": [str(p) for p in report_paths],
        "percentiles": percentiles,
        "atypical": [record_to_dict(r) for r in atypical_gates(records)],
        "drop_plans": plans,
        "baseline_speedup_estimate": base.speedup_estimate,
    }
    (out / "analysis.json").write_text(dumps_json(summary))
    return summary
