"""Per-layer metrics derived from one traced operation's spans.

Times are sums of span durations in seconds. A ``self_s`` value is the
span's duration minus the part of its interval covered by child spans,
where the numerics primitives (``tracer.PRIMITIVES``) count as the
caller's own work rather than as children. Counts are exact and repeat
from run to run on the same inputs.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import PRIMITIVES

SID, NAME, START, END, PARENT, TID, EXTRA = range(7)

#: Counts that must be identical between two traced runs of one input.
EXACT_COUNTS = (
    "numerics.matmul.inner_steps",
    "masking.attended_pairs",
    "block.salad_forward.calls",
    "gradients.gradcheck_forwards",
)

#: ``checks.run_checks`` result names that differ from the names
#: ``salad check --list`` and ``--only`` accept.
CHECK_RESULT_TO_LIST = {"gradients": "gradcheck"}


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def layer_metrics(spans: list, threads: int, check_names: list[str]) -> dict[str, float]:
    """Metric name -> value for one traced operation.

    ``threads`` is the run's configured worker count, the denominator of
    ``runner.pool_busy_ratio``; ``check_names`` are the names ``salad
    check --list`` prints, which key the per-check times.
    """
    by_id = {s[SID]: s for s in spans}
    children = defaultdict(list)
    time_of = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        time_of[s[NAME]] += s[END] - s[START]
        calls[s[NAME]] += 1
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)

    def self_time(name: str) -> float:
        total = 0.0
        for s in spans:
            if s[NAME] != name:
                continue
            inner = [(max(c[START], s[START]), min(c[END], s[END]))
                     for c in children[s[SID]] if c[NAME] not in PRIMITIVES]
            total += (s[END] - s[START]) - _covered([iv for iv in inner if iv[1] > iv[0]])
        return total

    def parent_name(s) -> str | None:
        p = by_id.get(s[PARENT])
        return p[NAME] if p is not None else None

    def has_ancestor(s, name: str) -> bool:
        p = by_id.get(s[PARENT])
        while p is not None:
            if p[NAME] == name:
                return True
            p = by_id.get(p[PARENT])
        return False

    forwards = [s for s in spans if s[NAME] == "block.salad_forward"]
    pairs = sum(s[EXTRA][0] for s in forwards)
    full_pairs = sum(s[EXTRA][1] for s in forwards)
    sparse_in_forward = sum(s[END] - s[START] for s in spans
                            if s[NAME] == "block.sparse_head_attention"
                            and parent_name(s) == "block.salad_forward")
    project = sum(s[END] - s[START] for s in spans
                  if s[NAME] == "numerics.matmul" and parent_name(s) == "block.salad_forward")
    read_bytes = sum(s[EXTRA] for s in spans if s[NAME] in (
        "workload.load_workload", "tensor_io.read_tensor", "tensor_io.read_params"))

    # Forward phase of each pipeline run: its salad_forward children up to
    # the first other stage span, i.e. the layer x timestep task loop.
    busy = phase = 0.0
    for run in (s for s in spans if s[NAME] == "runner.run_pipeline"):
        kids = sorted((c for c in children[run[SID]] if c[NAME] not in PRIMITIVES),
                      key=lambda c: c[START])
        task_forwards = []
        for c in kids:
            if c[NAME] != "block.salad_forward":
                if task_forwards:
                    break
                continue
            task_forwards.append(c)
        if task_forwards:
            busy += sum(c[END] - c[START] for c in task_forwards)
            phase += max(c[END] for c in task_forwards) - min(c[START] for c in task_forwards)

    check_s = {name: 0.0 for name in check_names}
    for s in spans:
        if s[NAME] == "checks.run_checks":
            for result_name, elapsed in s[EXTRA]:
                name = CHECK_RESULT_TO_LIST.get(result_name, result_name)
                check_s[name] = check_s.get(name, 0.0) + elapsed

    metrics = {
        "numerics.matmul.calls": calls["numerics.matmul"],
        "numerics.matmul.inner_steps": sum(s[EXTRA] for s in spans if s[NAME] == "numerics.matmul"),
        "numerics.matmul.s": time_of["numerics.matmul"],
        "numerics.softmax_masked.s": time_of["numerics.softmax_masked"],
        "masking.calibrate_plan.s": time_of["masking.calibrate_plan"],
        "masking.realize_head_mask.s": time_of["masking.realize_head_mask"],
        "masking.realize_head_mask.calls": calls["masking.realize_head_mask"],
        "masking.topk_block_select.s": time_of["masking.topk_block_select"],
        "masking.attended_pairs": pairs,
        "masking.density": pairs / full_pairs if full_pairs else 0.0,
        "block.salad_forward.s": time_of["block.salad_forward"],
        "block.salad_forward.calls": calls["block.salad_forward"],
        "block.project.s": project,
        "block.sparse_head_attention.s": time_of["block.sparse_head_attention"],
        "block.compute_gate.s": time_of["block.compute_gate"],
        "block.sparse_ns_per_pair": 1e9 * sparse_in_forward / pairs if pairs else 0.0,
        "linear_attention.rope3d_apply.s": time_of["linear_attention.rope3d_apply"],
        "linear_attention.rope3d_apply.calls": calls["linear_attention.rope3d_apply"],
        "linear_attention.linear_attention_streaming.s":
            time_of["linear_attention.linear_attention_streaming"],
        "gradients.salad_loss_grads.self_s": self_time("gradients.salad_loss_grads"),
        "gradients.gradcheck_salad.s": time_of["gradients.gradcheck_salad"],
        "gradients.gradcheck_forwards": sum(
            1 for s in forwards if has_ancestor(s, "gradients.gradcheck_salad")),
        "analysis.branch_rank_analysis.s": time_of["analysis.branch_rank_analysis"],
        "runner.run_pipeline.self_s": self_time("runner.run_pipeline"),
        "runner.pool_busy_ratio": busy / (threads * phase) if phase else 0.0,
        "workload.load_workload.s": time_of["workload.load_workload"],
        "workload.write_workload.s": time_of["workload.write_workload"],
        "tensor_io.bytes_read": read_bytes,
        "tensor_io.dumps_json.s": time_of["tensor_io.dumps_json"],
        "config.load_config.s": time_of["config.load_config"],
    }
    metrics.update({f"checks.{name}.s": t for name, t in check_s.items()})
    return metrics
