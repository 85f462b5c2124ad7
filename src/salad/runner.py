"""Run orchestration: forwards across layers and timesteps, inline
oracle checks, report assembly, and gate analysis over saved reports.

Everything is a pure function of (config, seed). The per-(layer,
timestep) forwards run in order in the caller at ``threads`` 1; otherwise
the caller and a pool of ``threads - 1`` workers take them from one queue
in order. Either way they land in index order, so the report bytes do not
depend on the thread count. A task returns only what the report reads,
and no task keeps attention weights: map export runs its one head again.
"""

from __future__ import annotations

import csv
import datetime as _dt
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (
    BranchOutputs,
    DROP_STRATEGIES,
    DropPlan,
    GateRecord,
    RunReport,
    atypical_gates,
    branch_rank_analysis,
    gate_percentiles,
    plan_branch_drop,
    price_drop,
    price_run,
)
from .block import export_attention_maps, head_slices, project, salad_forward
from .config import RunConfig, config_from_dict
from .errors import ConfigError, DataError, NumericError
from .gradients import gradcheck_salad
from .masking import MaskPlan, calibrate_plan, invert_permutation, st_reorder_permutation
from .tensor_io import (check_json, dumps_json, load_json, read_params, record_from_dict,
                        record_to_dict)
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
        # One block everywhere.
        workload.params = [read_params(cfg.block.params_bundle, grid)] * cfg.layers
    plan, calibration = resolve_plan(cfg, workload)

    explicit_dropped = set(cfg.drop.layers or []) if cfg.drop.strategy == "explicit" else set()
    if cfg.block.dropped:
        explicit_dropped = set(range(cfg.layers))
    # Bundles may arrive with the branch already removed.
    explicit_dropped |= {i for i, p in enumerate(workload.params) if p.dropped}

    # A task returns only what the report reads: its gate and attended
    # pairs, the branch outputs of each rank layer at the rank timestep, and
    # the output of task (0, 0).
    rank_layers = cfg.analysis.rank_layers if cfg.analysis.rank_layers is not None \
        else list(range(cfg.layers))
    rt = cfg.analysis.rank_timestep
    rank_tasks = {(layer, rt) for layer in rank_layers}

    def one(lt: tuple[int, int]):
        layer, t = lt
        params = workload.params[layer]
        if layer in explicit_dropped and not params.dropped:
            params = replace(params, dropped=True)
        x = workload.inputs[layer, t] * sigmas[t]
        try:
            out, trace = salad_forward(x, params, plan, grid, rope_cfg, weights=False)
        except NumericError as exc:
            raise NumericError(f"forward at timestep {t}, layer {layer}: {exc}") from None
        return (trace.gate, trace.attended_pairs,
                BranchOutputs(trace.o_s, trace.o_l) if lt in rank_tasks else None,
                out if lt == (0, 0) else None)

    tasks = [(layer, t) for layer in range(cfg.layers) for t in range(cfg.timesteps)]
    results = dict(zip(tasks, _run_in_order(one, tasks, cfg.threads)))

    # Gate records and the cost ledger over the layers as actually run.
    records = [GateRecord(layer, t, results[(layer, t)][0]) for layer, t in tasks]
    attended = [[results[(layer, t)][1] for t in range(cfg.timesteps)]
                for layer in range(cfg.layers)]
    sparsity, flops, speedup = price_run(attended, grid, explicit_dropped)

    # Post-hoc branch-drop plan from this run's gates.
    drop_section = None
    if cfg.drop.strategy in DROP_STRATEGIES:
        plan_drop = plan_branch_drop(records, cfg.drop.strategy, **cfg.drop_params()[cfg.drop.strategy])
        drop_section = price_drop(plan_drop, flops, grid, explicit_dropped)
    elif explicit_dropped:
        layers = sorted(explicit_dropped)
        explicit = DropPlan("explicit", {"layers": layers}, layers, preferred=False,
                            note="layers dropped by explicit config")
        drop_section = {**record_to_dict(explicit), "speedup_estimate": speedup}

    # Branch output ranks on the sampled layers.
    try:
        ranks = branch_rank_analysis(
            [(layer, results[(layer, rt)][2]) for layer in rank_layers], grid, cfg.analysis.rank_rel_tol
        )
    except NumericError as exc:
        raise NumericError(f"rank analysis at timestep {rt}, {exc}") from None

    oracle_checks = _inline_checks(workload, plan, grid, rope_cfg, sigmas,
                                   results[(0, 0)][3], 0 in explicit_dropped)

    gradcheck_section: dict = {"run": False, "all_passed": None, "reports": []}
    if cfg.checks.gradcheck_in_run:
        n, d = grid.seq_len, grid.head_dim
        if n > 64 or d > 16:
            gradcheck_section["note"] = f"skipped: N={n}, head_dim={d} exceeds the N<=64, d<=16 budget"
        else:
            x0 = workload.inputs[0, 0] * sigmas[0]
            try:
                reports = gradcheck_salad(x0, workload.params[0], plan, grid, rope_cfg)
            except NumericError as exc:
                raise NumericError(f"gradcheck at timestep 0, layer 0: {exc}") from None
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
        sparsity={**sparsity, "calibration": calibration},
        flops=flops,
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
            layer, t = cfg.maps.layer, cfg.maps.timestep
            export_attention_maps(workload.inputs[layer, t] * sigmas[t], workload.params[layer], plan,
                                  grid, rope_cfg, cfg.maps.head, out / "maps" / f"l{layer}_t{t}")
    return report


def _run_in_order(fn: Callable, tasks: Sequence, threads: int) -> list:
    """``fn`` over ``tasks``, the results in task order.

    At one thread the tasks run here. Otherwise this thread works beside a
    pool of ``threads - 1`` workers (fewer if there are fewer tasks), and
    all of them take the next task from one queue in task order: the caller
    would otherwise sit idle, and each pool thread adds its own malloc
    arena. The first task to fail in task order raises; once one has
    failed, no thread starts another.
    """
    workers = min(threads, len(tasks)) - 1
    if workers < 1:
        return list(map(fn, tasks))
    results: list = [None] * len(tasks)
    failed: dict[int, BaseException] = {}
    pending = iter(range(len(tasks)))
    lock = threading.Lock()

    def drain() -> None:
        while True:
            with lock:
                i = None if failed else next(pending, None)
            if i is None:
                return
            try:
                results[i] = fn(tasks[i])
            except BaseException as exc:  # raised below, once every thread has stopped
                with lock:
                    failed[i] = exc
                return

    with ThreadPoolExecutor(max_workers=workers) as pool:
        helpers = [pool.submit(drain) for _ in range(workers)]
        drain()
        for helper in helpers:
            helper.result()
    if failed:
        raise failed[min(failed)]
    return results


def _inline_checks(workload, plan, grid, rope_cfg, sigmas, task00, dropped0) -> list[dict]:
    """Cheap oracle checks recorded into every run report. ``task00`` is the
    output of task (0, 0), which ran sparse-only if ``dropped0``."""
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
        other, _ = salad_forward(x, params0 if dropped0 else replace(params0, dropped=True), plan, grid,
                                 rope_cfg, weights=False)
        full, sparse_only = (other, task00) if dropped0 else (task00, other)
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


#: The report fields ``analyze`` reads, as a :func:`~salad.tensor_io.check_json` schema.
ANALYZED_FIELDS = {
    "speedup_estimate": float,
    "flops": {"full_total": float, "per_layer": list[{"layer": int, "sparse": float}]},
    "gates": {"records": list[{"layer": int, "timestep": int, "gate": float}]},
}


def load_report(path: str | Path) -> RunReport:
    """A saved run report, with every field ``analyze`` reads checked."""
    where = f"report {path}"
    doc = load_json(path, where)
    check_json(doc, ANALYZED_FIELDS, where)
    report = record_from_dict(RunReport, doc, where)
    layers = config_from_dict(report.config).layers
    rows = report.flops["per_layer"]
    if (sorted(row["layer"] for row in rows) != list(range(layers))
            or min(row["sparse"] for row in rows) <= 0):
        raise ConfigError(f"report {path} needs one per-layer row with positive sparse FLOPs "
                          f"for each of its {layers} layers")
    bad = [r["layer"] for r in report.gates["records"] if not 0 <= r["layer"] < layers]
    if bad:
        raise ConfigError(f"report {path} has a gate record for layer {bad[0]}, "
                          f"outside its {layers} layers")
    return report


def analyze_reports(cfg: RunConfig, report_paths: list[str | Path],
                    out_dir: str | Path) -> dict:
    """Percentile tables, drop plans per strategy, and re-estimated
    speedups from one or more saved run reports of one layer count and
    grid."""
    if not report_paths:
        raise DataError("analyze needs at least one report with gate records")
    reports = [load_report(p) for p in report_paths]
    records = [r for rep in reports for r in rep.gate_records()]
    if not records:
        raise DataError("loaded reports carry no gate records")

    base = reports[0]
    first, *others = [config_from_dict(r.config) for r in reports]
    for path, other in zip(report_paths[1:], others):
        if (other.layers, other.grid) != (first.layers, first.grid):
            raise DataError(f"report {path} ran {other.layers} layers on {other.grid}, but report "
                            f"{report_paths[0]} ran {first.layers} on {first.grid}; "
                            "analyze prices every report on the first one's FLOPs")
    grid = first.to_grid()
    strategies = cfg.analysis.strategies
    if strategies is None:  # every strategy at its defaults
        strategies = [{"strategy": name} for name in DROP_STRATEGIES]
    plans = []
    for entry in strategies:
        params = {k: v for k, v in entry.items() if k != "strategy"}
        if entry["strategy"] == "random":  # an unset seed is the analysis config's
            params.setdefault("seed", cfg.seed)
        plans.append(price_drop(plan_branch_drop(records, entry["strategy"], **params), base.flops, grid))

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
