"""The benchmark under perfbench/ reaches into salad by module and name.

Its tracer wraps functions listed as "module.function"; a name it cannot
find is skipped into ``Tracer.missing`` and the per-layer metric built on
it silently reads 0. Its in-process worker imports salad names directly.
These tests fail when a refactor renames or moves any of them.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import salad.block
import salad.checks  # noqa: F401  (the modules the traced CLI imports)
import salad.cli  # noqa: F401
import salad.runner  # noqa: F401
import salad.workload
from salad.config import load_config
from salad.masking import MaskPlan, Window, window_attended_pairs
from salad.numerics import Rng

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert tracer.spans == []  # installing records nothing by itself
    finally:
        tracer.uninstall()


def test_traced_window_forward_records_sparse_spans_and_pairs():
    """``block.sparse_ns_per_pair`` divides the time of the
    ``block.sparse_head_attention`` spans under ``block.salad_forward`` by
    the pairs the forward span counts from ``trace.attended_pairs``; it
    reads 0 if either goes missing."""
    cfg = load_config(None, ["grid.frames=2", "grid.height=4", "grid.width=4",
                             "grid.heads=2", "grid.head_dim=4"])
    grid = cfg.to_grid()
    rng = Rng(3)
    params = salad.workload.make_params(cfg, rng)
    x = rng.normal((grid.seq_len, grid.channels))
    plan = MaskPlan.uniform(Window(radius=2), grid.heads)
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        _, trace = salad.block.salad_forward(x, params, plan, grid)
    finally:
        tracer.uninstall()
    forward = [s for s in tracer.spans if s[1] == "block.salad_forward"]
    sparse = [s for s in tracer.spans if s[1] == "block.sparse_head_attention"]
    assert len(forward) == 1 and len(sparse) == grid.heads
    assert all(s[4] == forward[0][0] for s in sparse)  # parent is the forward span
    pairs = window_attended_pairs(grid.seq_len, 2)
    assert trace.attended_pairs == [pairs] * grid.heads
    assert forward[0][6][0] == pairs * grid.heads


def salad_names_used(path: Path) -> list[tuple[str, str]]:
    """(module, attribute) pairs a script takes from salad: ``from salad.x
    import y`` and ``salad.x.y`` attribute chains."""
    used = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("salad"):
            used += [(node.module, alias.name) for alias in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
              and isinstance(node.value.value, ast.Name) and node.value.value.id == "salad"):
            used.append((f"salad.{node.value.attr}", node.attr))
    return used


def test_api_worker_salad_names_resolve():
    used = salad_names_used(PERFBENCH / "api_worker.py")
    assert ("salad.gradients", "salad_loss_grads") in used
    missing = [f"{module}.{name}" for module, name in used
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
