#!/usr/bin/env python3
"""The salad benchmark: end-to-end operation times per workload, plus a
traced run that breaks one operation down by module.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

Each workload runs one client in a closed loop for ``--seconds``: the next
operation starts when the previous one has finished. CLI workloads start a
fresh ``python3 -m salad`` process per operation; the API workload calls
``salad_loss_grads`` in one worker process. ``--seed`` reaches the program
only through ``salad gen --seed`` or ``generate_workload``. Every operation's
output is validated, and a failed validation counts against
``success_rate``.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` untraced and traced operations
alternate and the JSON holds the per-layer metrics, while the human-readable
lines above it show both. ``--selftest`` runs one small operation of every
workload in both modes and checks that every metric in BENCHMARK.json is
emitted with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import EXACT_COUNTS, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Set-ups per run; setup_s is their median.
SETUP_REPS = 5
#: No operation starts after this much run time, whatever --seconds says.
HARD_STOP_S = 120.0
#: Child processes still running at this run time are killed (their step
#: fails), so a run always ends within 180 s.
RUN_LIMIT_S = 170.0

GRID_N512 = ["grid.frames=8", "grid.height=8", "grid.width=8",
             "grid.heads=2", "grid.head_dim=16", "layers=4", "timesteps=5"]
GRID_N1024 = ["grid.frames=8", "grid.height=8", "grid.width=16",
              "grid.heads=2", "grid.head_dim=16", "layers=2", "timesteps=4"]
#: Self-test scale: the smallest grid, one layer, one timestep.
SMOKE = ["grid.frames=4", "grid.height=4", "grid.width=4", "layers=1", "timesteps=1"]
SMOKE_CHECKS = "sparse_oracle,composition,zero_init,param_count,determinism"


#: Units of per-layer metrics that are not seconds.
UNITS = {
    "numerics.matmul.calls": "count",
    "numerics.matmul.inner_steps": "count",
    "masking.realize_head_mask.calls": "count",
    "masking.attended_pairs": "count",
    "masking.density": "ratio",
    "block.salad_forward.calls": "count",
    "block.sparse_ns_per_pair": "ns/pair",
    "linear_attention.rope3d_apply.calls": "count",
    "gradients.gradcheck_forwards": "count",
    "runner.pool_busy_ratio": "ratio",
    "tensor_io.bytes_read": "B-computed",
}


@dataclass(frozen=True)
class Workload:
    kind: str  # "check" | "run" | "api"
    why: str
    gen_sets: tuple[str, ...] = ()
    run_sets: tuple[str, ...] = ()
    threads: int = 1
    reference_threads: int | None = None


WORKLOADS = {
    "check_suite": Workload(
        "check",
        "salad check runs all 15 oracles; thousands of tiny gradcheck forwards expose "
        "per-call overhead (rope angles, validation) while the sparse kernels barely matter"),
    "run_calibrate_n512": Workload(
        "run",
        "salad run with window calibration at N=512: exercises calibrate_plan, the window "
        "kernel and Jacobi ranks, and bypasses top-k",
        gen_sets=tuple(GRID_N512),
        run_sets=("mask.kind=calibrate",)),
    "run_topk_n512": Workload(
        "run",
        "salad run with top-k, non-shared branch, LoRA and 2 threads at N=512: bypasses the "
        "window kernel and calibration, so a window-only change must not move it",
        gen_sets=tuple(GRID_N512) + ("block.variant=non_shared", "block.lora_rank=4"),
        run_sets=("mask.kind=topk", "mask.block_size=8", "mask.k=4"),
        threads=2, reference_threads=1),
    "grad_window_n1024": Workload(
        "api",
        "in-process salad_loss_grads at N=1024 with a window plan: the only workload where "
        "the block backward runs at scale, and the top rung of the N ladder",
        gen_sets=tuple(GRID_N1024) + (
            "block.random_proj=true", "mask.kind=per_head",
            'mask.per_head=[{"kind":"window","radius":8},'
            '{"kind":"window","radius":4,"reordered":true}]')),
}


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    out: str
    err: str

    @property
    def ok(self) -> bool:
        return self.code == 0 and "Traceback" not in self.err


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


class Session:
    """One benchmark run: a scratch directory inside the checkout, the
    environment child processes get, and the run's start time."""

    def __init__(self, name: str):
        self.start = time.perf_counter()
        self.work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self._n = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def path(self, name: str) -> Path:
        return self.work / name

    def child(self, argv: list[str]) -> Child:
        """Run one process to completion; wall time and its own peak RSS."""
        self._n += 1
        out_path, err_path = self.path(f"{self._n}.out"), self.path(f"{self._n}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(1.0, RUN_LIMIT_S - self.elapsed()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                     out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))

    def salad(self, args: list[str], spans: Path | None = None) -> Child:
        if spans is None:
            return self.child([sys.executable, "-m", "salad", *args])
        return self.child([sys.executable, str(BENCH / "traced_cli.py"), str(spans), "--", *args])

    def worker(self, mode: str, seed: int, sets, *extra: str) -> Child:
        argv = [sys.executable, str(BENCH / "api_worker.py"), mode, "--seed", str(seed)]
        for s in sets:
            argv += ["--set", s]
        return self.child(argv + list(extra))


def _set_flags(sets) -> list[str]:
    return [flag for s in sets for flag in ("--set", s)]


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def _check_verdicts_ok(child: Child, expected: int) -> bool:
    lines = [ln for ln in child.out.splitlines() if ln.strip()]
    verdicts = [ln for ln in lines if ln.startswith("[")]
    return (child.ok and len(verdicts) == expected
            and all(ln.startswith("[PASS] ") for ln in verdicts)
            and lines[-1] == f"all {expected} checks passed")


def _report_ok(report: bytes) -> bool:
    doc = json.loads(report)
    return all(entry.get("passed") is not False for entry in doc.get("oracle_checks", []))


@dataclass
class Measured:
    """Raw figures of one run, before they become metrics."""

    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    traced_op_s: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    spans: list[Path] = field(default_factory=list)
    write_workload_s: float = 0.0
    probe: dict[str, float] = field(default_factory=dict)
    check_names: list[str] = field(default_factory=list)


def _closed_loop(sess: Session, seconds: float, trace: bool, op) -> None:
    """Call ``op(i, traced)`` until ``seconds`` have passed; with tracing,
    odd operations are traced and at least two of them run."""
    deadline = time.perf_counter() + seconds
    i = traced_runs = 0
    while i == 0 or (sess.elapsed() < HARD_STOP_S and (
            time.perf_counter() < deadline or (trace and traced_runs < 2))):
        traced = trace and i % 2 == 1
        op(i, traced)
        traced_runs += traced
        i += 1


def measure_cli(w: Workload, seed: int, seconds: float, trace: bool,
                smoke: bool, sess: Session, tally: Tally) -> Measured:
    m = Measured()
    reps = 1 if smoke else SETUP_REPS
    gen_sets = list(w.gen_sets) + (SMOKE if smoke else [])
    wl = sess.path("workload")

    # Set-up: `salad check --list` (the CLI's fixed start-up cost) or `salad gen`.
    if w.kind == "check":
        for _ in range(reps):
            c = sess.salad(["check", "--list"])
            m.setup_s.append(c.wall_s)
            m.check_names = c.out.split()
            tally.record(c.ok and bool(m.check_names), "check --list")
        only = ["--only", SMOKE_CHECKS] if smoke else []
        expected = len(SMOKE_CHECKS.split(",")) if smoke else len(m.check_names)
        op_args = ["check", *only]
    else:
        gen_args = ["gen", "--seed", str(seed), *_set_flags(gen_sets), "--out", str(wl)]
        first = None
        for _ in range(reps):
            c = sess.salad(gen_args)
            m.setup_s.append(c.wall_s)
            digest = _dir_digest(wl) if c.ok else None
            first = first or digest
            tally.record(c.ok and digest == first, "gen output differs between set-ups")
        if trace:
            m.check_names = sess.salad(["check", "--list"]).out.split()
            spans = sess.path("gen-spans.json")
            tally.record(sess.salad(gen_args, spans).ok, "traced gen")
            gen_layers = layer_metrics(json.loads(spans.read_text())["spans"], 1, [])
            m.write_workload_s = gen_layers["workload.write_workload.s"]
        run_sets = gen_sets + list(w.run_sets) + [f"workload_dir={wl}"]

        def run_args(threads: int, out: Path) -> list[str]:
            return ["run", "--no-timestamp", "--threads", str(threads),
                    *_set_flags(run_sets), "--out", str(out)]

    reference: list[bytes] = []
    if w.reference_threads is not None:
        c = sess.salad(run_args(w.reference_threads, sess.path("ref")))
        ok = c.ok and (sess.path("ref") / "report.json").is_file()
        if tally.record(ok, f"--threads {w.reference_threads} reference run"):
            reference.append((sess.path("ref") / "report.json").read_bytes())

    first_report: list[bytes] = []

    def op(i: int, traced: bool) -> None:
        spans = sess.path(f"spans-{i}.json") if traced else None
        if w.kind == "check":
            c = sess.salad(op_args, spans)
            ok = _check_verdicts_ok(c, expected)
        else:
            out = sess.path("op")
            shutil.rmtree(out, ignore_errors=True)
            c = sess.salad(run_args(w.threads, out), spans)
            report_path = out / "report.json"
            ok = c.ok and report_path.is_file()
            if ok:
                report = report_path.read_bytes()
                if not first_report:
                    first_report.append(report)
                    if reference and reference[0] != report:
                        tally.record(False, "--threads 1 and --threads 2 reports differ")
                ok = report == first_report[0] and _report_ok(report)
        tally.record(ok, f"op {i} failed validation: exit {c.code}\n{c.err[-2000:]}")
        (m.traced_op_s if traced else m.op_s).append(c.wall_s)
        if traced:
            m.spans.append(spans)
        else:
            m.rss_mb.append(c.rss_mb)

    _closed_loop(sess, seconds, trace, op)
    if trace:
        probe_args = ["--result", str(sess.path("probe.json"))]
        sets: list[str] = []
        if w.kind == "run":
            sets = run_sets[:-1]
            probe_args += ["--workload-dir", str(wl)]
        elif smoke:
            sets = SMOKE
        c = sess.worker("probe", seed, sets, *probe_args)
        if tally.record(c.ok, f"speedup probe: {c.err[-2000:]}"):
            m.probe = json.loads(sess.path("probe.json").read_text())
        if w.kind == "run" and first_report:
            m.probe["speedup_estimate"] = json.loads(first_report[0])["speedup_estimate"]
    return m


def measure_api(w: Workload, seed: int, seconds: float, trace: bool,
                smoke: bool, sess: Session, tally: Tally) -> Measured:
    m = Measured()
    sets = list(w.gen_sets) + (SMOKE if smoke else [])
    reps = 1 if smoke else SETUP_REPS
    if trace:
        m.check_names = sess.salad(["check", "--list"]).out.split()
    for _ in range(reps - 1):
        c = sess.worker("setup", seed, sets)
        if tally.record(c.ok, f"api set-up: {c.err[-2000:]}"):
            m.setup_s.append(json.loads(c.out.splitlines()[-1])["setup_s"])
    result = sess.path("ops.json")
    extra = ["--seconds", str(seconds), "--result", str(result)]
    if trace:
        extra += ["--trace-dir", str(sess.work)]
    c = sess.worker("ops", seed, sets, *extra)
    if not (c.ok and result.is_file()):
        tally.record(False, f"api ops worker: exit {c.code}\n{c.err[-2000:]}")
        return m
    doc = json.loads(result.read_text())
    m.setup_s.append(doc["setup_s"])
    m.op_s, m.traced_op_s = doc["op_s"], doc["traced_op_s"]
    m.spans = [Path(p) for p in doc["spans"]]
    m.rss_mb = [c.rss_mb]
    tally.attempted += doc["attempted"]
    tally.failed += doc["failed"]
    if doc["failed"]:
        tally.notes.append(f"{doc['failed']} gradient ops non-finite or not bitwise repeatable")
    if trace:
        c = sess.worker("probe", seed, sets, "--result", str(sess.path("probe.json")))
        if tally.record(c.ok, f"speedup probe: {c.err[-2000:]}"):
            m.probe = json.loads(sess.path("probe.json").read_text())
    return m


def _highest_percentile(values: list[float]) -> str:
    """The highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = (p, ordered[max(0, math.ceil(p / 100 * n) - 1)])
    return "none (fewer than 20 samples)" if best is None else f"p{best[0]}={best[1]:.4f} s"


def machine_lines() -> list[str]:
    fields: dict[str, str] = {}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    caches = ", ".join(f"{k} {fields[k + ' cache']}" for k in ("L1d", "L1i", "L2", "L3")
                       if k + " cache" in fields)
    return [
        f"# machine: nproc={len(os.sched_getaffinity(0))} "
        f"cpu={fields.get('Model name', platform.processor() or 'unknown')!r}",
        f"# caches: {caches or 'unknown'}",
        f"# python {platform.python_version()}, numpy {numpy_version}",
    ]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[dict, list[str]]:
    """One benchmark run: (result object, human-readable lines)."""
    w = WORKLOADS[name]
    tally = Tally()
    sess = Session(name)
    try:
        measure = measure_api if w.kind == "api" else measure_cli
        m = measure(w, seed, seconds, trace, smoke, sess, tally)
        layer_runs = [layer_metrics(json.loads(p.read_text())["spans"], w.threads, m.check_names)
                      for p in m.spans if p.is_file()]
    finally:
        sess.close()

    attempted = max(tally.attempted, 1)
    e2e = {
        "op_s.p50": (statistics.median(m.op_s) if m.op_s else 0.0, "s"),
        "setup_s": (statistics.median(m.setup_s) if m.setup_s else 0.0, "s"),
        "peak_rss_mb": (max(m.rss_mb) if m.rss_mb else 0.0, "MB"),
        "success_rate": ((attempted - tally.failed) / attempted, "ratio"),
    }
    lines = [f"# workload {name} (seed {seed}, {seconds:g} s, trace {int(trace)}): {w.why}",
             *machine_lines(), "# closed loop, one client"]
    lines += [
        f"op_s.p50 {e2e['op_s.p50'][0]:.6f} s  n={len(m.op_s)}  "
        f"highest percentile with >=10 samples beyond it: {_highest_percentile(m.op_s)}",
        f"setup_s {e2e['setup_s'][0]:.6f} s  n={len(m.setup_s)} (median)",
        f"peak_rss_mb {e2e['peak_rss_mb'][0]:.2f} MB",
        f"success_rate {e2e['success_rate'][0]:.6f} ratio  "
        f"error_rate {tally.failed / attempted:.6f} ratio "
        f"({tally.failed} failed of {tally.attempted} attempted)",
    ]
    lines += [f"# failure: {note}" for note in tally.notes]

    correct = tally.failed == 0 and tally.attempted > 0
    if not trace:
        metrics = e2e
    else:
        for key in EXACT_COUNTS:
            values = {run[key] for run in layer_runs}
            if len(values) > 1:
                correct = False
                lines.append(f"# failure: exact count {key} differs between traced runs: "
                             f"{sorted(values)}")
        metrics = {key: (statistics.median(run[key] for run in layer_runs) if layer_runs
                         else 0.0, UNITS.get(key, "s"))
                   for key in (layer_runs[0] if layer_runs else {})}
        if w.kind == "run":
            metrics["workload.write_workload.s"] = (m.write_workload_s, "s")
        metrics["block.speedup_measured"] = (m.probe.get("speedup_measured", 0.0), "ratio")
        metrics["analysis.speedup_estimate"] = (m.probe.get("speedup_estimate", 0.0), "ratio")
        overhead = (statistics.median(m.traced_op_s) / statistics.median(m.op_s)
                    if m.traced_op_s and m.op_s else 0.0)
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        lines.append(f"# per-layer: median over {len(layer_runs)} traced ops; "
                     "tensor_io.bytes_read is computed from file sizes")
        lines += [f"{key} {value:.6g} {unit}" for key, (value, unit) in metrics.items()]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def selftest() -> int:
    """One smallest-grid op of every workload in both modes; every metric
    named in BENCHMARK.json must come out with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from perfbench/run.py")
    for name in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, lines = run_workload(name, seed=0, seconds=0, trace=trace, smoke=True)
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in spec[section]}
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: not correct\n" + "\n".join(lines))
            for key, unit in want.items():
                if key not in got:
                    problems.append(f"{name} trace={int(trace)}: {key} missing")
                elif got[key]["unit"] != unit:
                    problems.append(f"{name} trace={int(trace)}: {key} unit "
                                    f"{got[key]['unit']!r} != {unit!r}")
            extra = set(got) - set(want)
            if extra:
                problems.append(f"{name} trace={int(trace)}: unlisted metrics {sorted(extra)}")
            print(f"selftest {name} trace={int(trace)}: {len(got)} metrics, "
                  f"correct={result['correct']}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problems")
    return 0 if not problems else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="salad benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (SRC / "salad" / "cli.py").is_file():
        print(f"error: no salad sources under {SRC}; run from a salad checkout", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
