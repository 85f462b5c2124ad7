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

import salad.checks  # noqa: F401  (the modules the traced CLI imports)
import salad.cli  # noqa: F401
import salad.runner  # noqa: F401
import salad.workload  # noqa: F401

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
