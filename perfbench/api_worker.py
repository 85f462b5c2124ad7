"""In-process salad work for the benchmark: API set-up, gradient ops, and
the measured-speedup probe.

Usage:
  python3 perfbench/api_worker.py setup --seed N [--set K=V ...]
  python3 perfbench/api_worker.py ops   --seed N [--set K=V ...] --seconds S
                                        --result PATH [--trace-dir DIR]
  python3 perfbench/api_worker.py probe --seed N [--set K=V ...]
                                        [--workload-dir DIR] --result PATH

``setup`` and ``ops`` time "import salad + generate_workload" from before
numpy is imported. ``ops`` then calls ``salad_loss_grads`` in a closed loop
over the workload's seeded inputs for ``--seconds``; with ``--trace-dir``
every second op runs under the span tracer. ``probe`` times one forward
under a full-window plan and under the configured plan on one input.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

PROBE_REPS = 3


def set_up(seed: int, sets: list[str], workload_dir: str | None = None):
    """Config, workload and seconds since start-up (import + generate)."""
    from salad.config import load_config
    from salad.workload import generate_workload, load_workload

    cfg = load_config(None, sets)
    cfg.seed = seed
    cfg.validate()
    workload = load_workload(workload_dir, cfg) if workload_dir else generate_workload(cfg)
    return cfg, workload, time.perf_counter() - _T0


def _grad_digest(loss, grads) -> tuple[bool, str]:
    """(all finite, sha256 over the loss and every gradient's bytes)."""
    import numpy as np

    h = hashlib.sha256(np.float64(loss).tobytes())
    finite = bool(np.isfinite(loss))
    for name in sorted(grads):
        arr = np.ascontiguousarray(grads[name], dtype=np.float64)
        finite = finite and bool(np.all(np.isfinite(arr)))
        h.update(name.encode())
        h.update(arr.tobytes())
    return finite, h.hexdigest()


def ops(args) -> dict:
    cfg, workload, setup_s = set_up(args.seed, args.sets)
    import salad.gradients

    grid, rope, plan = cfg.to_grid(), cfg.to_rope(), cfg.static_plan()
    inputs = [(layer, t) for layer in range(cfg.layers) for t in range(cfg.timesteps)]
    digests: dict = {}
    result = {"setup_s": setup_s, "op_s": [], "traced_op_s": [], "spans": [],
              "attempted": 0, "failed": 0, "repeats": 0}

    def one(i: int, trace: bool) -> float:
        layer, t = inputs[i % len(inputs)]
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            loss, grads = salad.gradients.salad_loss_grads(
                workload.inputs[layer, t], workload.params[layer], plan, grid, rope)
            ok = True
        except Exception:
            traceback.print_exc()
            ok = False
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            path = f"{args.trace_dir}/spans-{i}.json"
            tracer.dump(path)
            result["spans"].append(path)
        if ok:
            finite, digest = _grad_digest(loss, grads)
            ok = finite
            if (layer, t) in digests:
                result["repeats"] += 1
                ok = ok and digests[(layer, t)] == digest
            else:
                digests[(layer, t)] = digest
        result["attempted"] += 1
        result["failed"] += 0 if ok else 1
        return dt

    deadline = time.perf_counter() + args.seconds
    i = 0
    while (i == 0 or time.perf_counter() < deadline
           or (args.trace_dir and len(result["traced_op_s"]) < 2)):
        traced = bool(args.trace_dir) and i % 2 == 1
        result["traced_op_s" if traced else "op_s"].append(one(i, traced))
        i += 1
    if result["repeats"] == 0:  # every op saw a new input: repeat the first, untimed
        one(0, False)
    return result


def probe(args) -> dict:
    cfg, workload, _ = set_up(args.seed, args.sets, args.workload_dir)
    from salad.analysis import estimate_speedup
    from salad.block import salad_forward
    from salad.masking import MaskPlan, Window
    from salad.runner import resolve_plan

    grid, rope = cfg.to_grid(), cfg.to_rope()
    plan, _ = resolve_plan(cfg, workload)
    full = MaskPlan.uniform(Window(radius=grid.seq_len - 1), grid.heads)
    x = workload.inputs[0, 0] * cfg.sigma.schedule(cfg.timesteps)[0]
    times: dict[str, list[float]] = {"full": [], "plan": []}
    for _ in range(PROBE_REPS):
        for key, p in (("full", full), ("plan", plan)):
            t0 = time.perf_counter()
            salad_forward(x, workload.params[0], p, grid, rope)
            times[key].append(time.perf_counter() - t0)
    return {
        "speedup_measured": statistics.median(times["full"]) / statistics.median(times["plan"]),
        "speedup_estimate": estimate_speedup(plan, grid, include_linear=not cfg.block.dropped,
                                             total_layers=cfg.layers),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "ops", "probe"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--set", dest="sets", action="append", default=[])
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--result")
    parser.add_argument("--trace-dir")
    parser.add_argument("--workload-dir")
    args = parser.parse_args()
    if args.mode == "setup":
        print(json.dumps({"setup_s": set_up(args.seed, args.sets)[2]}))
        return 0
    doc = ops(args) if args.mode == "ops" else probe(args)
    with open(args.result, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
